//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the paper (see DESIGN.md §3 for the index).

use miss_data::{Dataset, WorldConfig};
use miss_metrics::relative_improvement;
use miss_trainer::{EvalResult, Experiment};
use miss_util::{mean_std, paired_t_significant};

/// Command-line options shared by every experiment binary.
#[derive(Clone, Debug)]
pub struct ExpOpts {
    /// Dataset scale factor (1.0 = the default reduced-scale worlds).
    pub scale: f64,
    /// Seeds per cell (the paper uses 5).
    pub reps: usize,
    /// Smoke mode: tiny datasets, one rep, two epochs — for tests.
    pub smoke: bool,
}

impl ExpOpts {
    /// Parse `--scale X --reps N --smoke` from `std::env::args`. A missing
    /// or malformed value, or an unknown flag, is a usage error (exit 2).
    pub fn from_args() -> Self {
        let mut opts = ExpOpts {
            scale: 1.0,
            reps: 3,
            smoke: false,
        };
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--scale" => opts.scale = parsed(&flag, args.next()),
                "--reps" => opts.reps = parsed(&flag, args.next()),
                "--smoke" => {
                    opts.smoke = true;
                    opts.reps = 1;
                }
                other => usage(&format!("unknown argument {other}")),
            }
        }
        opts
    }

    /// The three dataset configurations at this scale (smoke → tiny).
    pub fn worlds(&self) -> Vec<WorldConfig> {
        if self.smoke {
            vec![WorldConfig::tiny()]
        } else {
            vec![
                WorldConfig::amazon_cds(self.scale),
                WorldConfig::amazon_books(self.scale),
                WorldConfig::alipay(self.scale),
            ]
        }
    }

    /// Test metrics of `e` over this many seeds; a run that aborts ends the
    /// binary with the error's exit code.
    pub fn runs(&self, e: &Experiment, dataset: &Dataset) -> Vec<EvalResult> {
        e.run_reps(dataset, self.reps).unwrap_or_else(|err| {
            eprintln!("{}: {err}", e.label());
            std::process::exit(err.exit_code())
        })
    }

    /// Apply smoke-mode shortcuts to an experiment.
    pub fn tune(&self, e: &mut Experiment) {
        if self.smoke {
            e.train_cfg.max_epochs = 2;
            e.train_cfg.patience = 0;
        }
    }
}

/// `flag`'s value parsed as `T`; a missing or malformed value exits 2.
fn parsed<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let value = value.unwrap_or_default();
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad value for {flag}: {value}")))
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}\nusage: [--scale F] [--reps N] [--smoke]");
    std::process::exit(2)
}

/// Generate the dataset for a world with the canonical seed.
pub fn dataset_for(config: WorldConfig) -> Dataset {
    Dataset::generate(config, 0xDA7A)
}

/// Aggregate of repeated runs.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Row label, e.g. "DIN-MISS".
    pub label: String,
    /// Per-seed AUCs.
    pub aucs: Vec<f64>,
    /// Per-seed Loglosses.
    pub loglosses: Vec<f64>,
}

impl CellResult {
    /// Build from per-seed evaluation results.
    pub fn from_runs(label: impl Into<String>, runs: &[EvalResult]) -> Self {
        CellResult {
            label: label.into(),
            aucs: runs.iter().map(|r| r.auc).collect(),
            loglosses: runs.iter().map(|r| r.logloss).collect(),
        }
    }

    /// Mean AUC.
    pub fn auc(&self) -> f64 {
        mean_std(&self.aucs).0
    }

    /// Mean Logloss.
    pub fn logloss(&self) -> f64 {
        mean_std(&self.loglosses).0
    }

    /// Statistical significance of the AUC difference vs another cell
    /// (paired over seeds, p < 0.05).
    pub fn significant_vs(&self, other: &CellResult) -> bool {
        self.aucs.len() == other.aucs.len()
            && self.aucs.len() >= 2
            && paired_t_significant(&self.aucs, &other.aucs)
    }
}

/// Print a paper-style table: one row per cell, AUC/Logloss per dataset.
/// `cells[d]` holds the rows of dataset `d` (same order in every dataset).
pub fn print_table(title: &str, dataset_names: &[String], cells: &[Vec<CellResult>]) {
    println!("\n=== {title} ===");
    print!("{:<18}", "Model");
    for name in dataset_names {
        print!(" | {:^21}", name);
    }
    println!();
    print!("{:<18}", "");
    for _ in dataset_names {
        print!(" | {:>10} {:>10}", "AUC", "Logloss");
    }
    println!();
    let rows = cells[0].len();
    for r in 0..rows {
        print!("{:<18}", cells[0][r].label);
        for d in cells {
            print!(" | {:>10.4} {:>10.4}", d[r].auc(), d[r].logloss());
        }
        println!();
    }
}

/// Format a relative-improvement column (Tables X/XI).
pub fn ri(base: f64, new: f64) -> String {
    format!("{:+.2}%", relative_improvement(base, new))
}
