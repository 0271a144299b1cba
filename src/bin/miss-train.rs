//! Command-line interface for training, evaluating, and inspecting models.
//!
//! ```text
//! miss-train stats  --dataset cds|books|alipay|tiny [--scale F]
//! miss-train train  --dataset cds --model DIN [--miss] [--scale F]
//!                   [--seed N] [--epochs N] [--out model.ckpt]
//!                   [--resume model.ckpt] [--ring DIR] [--keep K]
//! miss-train eval   --dataset cds --ckpt model.ckpt [--scale F]
//! ```
//!
//! Each subcommand accepts only its own flags: any other argument (a typo
//! such as `--epoch`) is a usage error, so it can never be silently ignored.
//!
//! `train` runs the paper's protocol: early stopping on validation AUC,
//! test metrics of the best-validation epoch. With `--out`, it also
//! checkpoints to FILE after every epoch; with `--resume`, it continues from
//! FILE (bitwise identical to the run that wrote it). With `--ring DIR`,
//! every epoch lands in its own slot in DIR (the newest `--keep` slots are
//! retained, default 3) and a restarted run resumes from the newest slot
//! that still loads — a corrupt file costs one epoch, not the run. None of
//! these changes the run: the printed metrics are the same with or without
//! them.
//!
//! `eval` builds the model the checkpoint records (base model and widths;
//! an SSL plug-in adds nothing at inference) and scores the checkpoint's
//! best-validation weights through the serving engine's inference forward
//! (identical bits, pre-packed GEMM panels), so it prints the test metrics
//! `train` printed.
//!
//! Exit codes tell scripts *why* a run died (see `MissError::exit_code`):
//! `0` success, `2` usage error, `3` bad artifact (corrupt bytes,
//! unsupported version, architecture mismatch), `4` I/O failure,
//! `5` non-finite abort (every step rejected by the NaN/Inf guard).

use miss::core::MissConfig;
use miss::data::{Dataset, WorldConfig};
use miss::trainer::{BaseModel, Experiment, SslKind, ALL_BASELINES};
use std::path::PathBuf;
use std::process::exit;

/// The arguments of one subcommand, checked against the flags it accepts.
struct Args {
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    /// Parse `raw` against `cmd`'s flags that take a value and its switches.
    /// Any other argument, or a value flag without its value, is a usage
    /// error (exit 2) that names it.
    fn parse(cmd: &str, raw: &[String], value_flags: &[&str], switches: &[&str]) -> Args {
        let mut args = Args {
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if value_flags.contains(&a.as_str()) {
                let Some(v) = it.next() else {
                    eprintln!("{a} needs a value");
                    usage()
                };
                args.values.push((a.clone(), v.clone()));
            } else if switches.contains(&a.as_str()) {
                args.switches.push(a.clone());
            } else {
                eprintln!("unknown argument for {cmd}: {a}");
                usage()
            }
        }
        args
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.values.iter().find(|(f, _)| f == flag).map(|(_, v)| v.as_str())
    }

    fn has(&self, flag: &str) -> bool {
        self.switches.iter().any(|a| a == flag)
    }

    /// `flag`'s value parsed as `T`, or `default` when absent; a malformed
    /// value is a usage error (exit 2).
    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        match self.get(flag) {
            Some(s) => s.parse().unwrap_or_else(|_| {
                eprintln!("bad value for {flag}: {s}");
                usage()
            }),
            None => default,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  miss-train stats --dataset <cds|books|alipay|tiny> [--scale F]\n  \
         miss-train train --dataset <ds> --model <name> [--miss] [--scale F] [--seed N] [--epochs N] [--out FILE] [--resume FILE] [--ring DIR] [--keep K]\n  \
         miss-train eval  --dataset <ds> --ckpt FILE [--scale F]\n\nmodels: {}\n\n\
         --ring DIR keeps the newest K (--keep, default {}) per-epoch checkpoints in DIR\n\
         and resumes a restarted run from the newest slot that loads.\n\n\
         exit codes: 0 ok, 2 usage, 3 bad checkpoint (corrupt/version/architecture),\n\
         4 i/o failure, 5 non-finite abort",
        ALL_BASELINES
            .iter()
            .map(|b| b.label())
            .collect::<Vec<_>>()
            .join(", "),
        miss::trainer::RING_KEEP_DEFAULT
    );
    exit(2)
}

fn world(args: &Args) -> WorldConfig {
    let scale: f64 = args.parsed("--scale", 1.0);
    match args.get("--dataset").unwrap_or_else(|| usage()) {
        "cds" => WorldConfig::amazon_cds(scale),
        "books" => WorldConfig::amazon_books(scale),
        "alipay" => WorldConfig::alipay(scale),
        "tiny" => WorldConfig::tiny(),
        other => {
            eprintln!("unknown dataset {other}");
            usage()
        }
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else { usage() };
    let args = |value_flags: &[&str], switches: &[&str]| Args::parse(cmd, rest, value_flags, switches);

    match cmd.as_str() {
        "stats" => {
            let args = args(&["--dataset", "--scale"], &[]);
            let dataset = Dataset::generate(world(&args), 0xDA7A);
            let s = dataset.stats();
            println!("dataset    : {}", s.name);
            println!("users      : {}", s.users);
            println!("items      : {}", s.items);
            println!("instances  : {}", s.instances);
            println!("features   : {}", s.features);
            println!("fields     : {}", s.fields);
        }
        "train" => {
            let args = args(
                &["--dataset", "--scale", "--model", "--seed", "--epochs", "--out", "--resume", "--ring", "--keep"],
                &["--miss"],
            );
            let dataset = Dataset::generate(world(&args), 0xDA7A);
            let seed: u64 = args.parsed("--seed", 0);
            let name = args.get("--model").unwrap_or("DIN");
            let base = BaseModel::from_label(name).unwrap_or_else(|| {
                eprintln!("unknown model {name}");
                usage()
            });
            let ssl = if args.has("--miss") {
                SslKind::Miss(MissConfig::default())
            } else {
                SslKind::None
            };
            let mut e = Experiment::new(base, ssl);
            e.train_cfg.max_epochs = args.parsed("--epochs", e.train_cfg.max_epochs);
            e.checkpoint_out = args.get("--out").map(PathBuf::from);
            e.resume_from = args.get("--resume").map(PathBuf::from);
            e.ring_dir = args.get("--ring").map(PathBuf::from);
            e.ring_keep = args.parsed("--keep", e.ring_keep);
            println!("training {} on {} (seed {seed})...", e.label(), dataset.name);
            let out = e.run(&dataset, seed).unwrap_or_else(|err| {
                eprintln!("miss-train: {err}");
                exit(err.exit_code())
            });
            if out.skipped_steps > 0 {
                eprintln!(
                    "miss-train: warning: {} minibatch step(s) skipped by the non-finite \
                     guard; metrics below come from a degraded run",
                    out.skipped_steps
                );
            }
            println!(
                "test AUC {:.4}  Logloss {:.4}  ({} epochs)",
                out.test.auc, out.test.logloss, out.epochs
            );
            if let Some(path) = &e.checkpoint_out {
                println!("checkpoint written to {}", path.display());
            }
        }
        "eval" => {
            let args = args(&["--dataset", "--scale", "--ckpt"], &[]);
            let dataset = Dataset::generate(world(&args), 0xDA7A);
            let ckpt = PathBuf::from(args.get("--ckpt").unwrap_or_else(|| usage()));
            // Every base model evaluates through the serving engine's
            // inference forward: the training-graph eval's bits without its
            // per-batch panel packing and backward state.
            let scored = miss::serve::load_frozen(&ckpt, &dataset.schema).and_then(
                |(frozen, progress)| {
                    if let Some(p) = progress {
                        let (name, epoch, step) = (frozen.name(), p.epoch, p.step);
                        println!("{name} checkpoint at epoch {epoch} (adam step {step})");
                    }
                    miss::serve::evaluate_frozen(&frozen, &dataset.test, &dataset.schema, 256)
                },
            );
            let r = scored.unwrap_or_else(|err| {
                eprintln!("miss-train: {err}");
                exit(err.exit_code())
            });
            println!("test AUC {:.4}  Logloss {:.4}", r.auc, r.logloss);
        }
        _ => usage(),
    }
}
