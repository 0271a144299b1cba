//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the paper (see DESIGN.md §3 for the index). A grid-shaped
//! binary is a list of its cells: [`run_grid`] owns the world × cell × seed
//! loop, and [`run_ri_table`] the DIN vs DIN-MISS one of Tables X/XI.

use miss_core::MissConfig;
use miss_data::{Dataset, WorldConfig};
use miss_metrics::relative_improvement;
use miss_trainer::{BaseModel, Experiment, SslKind};
use miss_util::{mean, mean_std, paired_t_significant};

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

    /// Cell `label`: the test metrics of `e` over this many seeds, with the
    /// smoke shortcuts applied. A run that aborts ends the binary with the
    /// error's exit code.
    fn cell(&self, label: &str, e: &Experiment, dataset: &Dataset) -> CellResult {
        let mut e = e.clone();
        if self.smoke {
            e.train_cfg.max_epochs = 2;
            e.train_cfg.patience = 0;
        }
        let runs = e.run_reps(dataset, self.reps).unwrap_or_else(|err| {
            eprintln!("{label}: {err}");
            std::process::exit(err.exit_code())
        });
        eprintln!("[{}] {label} done", dataset.name);
        CellResult {
            label: label.to_string(),
            aucs: runs.iter().map(|r| r.auc).collect(),
            loglosses: runs.iter().map(|r| r.logloss).collect(),
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
fn print_table(title: &str, dataset_names: &[String], cells: &[Vec<CellResult>]) {
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

/// DIN with the MISS plug-in configured as `cfg`.
pub fn din_miss(cfg: MissConfig) -> Experiment {
    Experiment::new(BaseModel::Din, SslKind::Miss(cfg))
}

/// Run every cell on every world of `opts`, print the table under `title`,
/// and return the dataset names with the cells of each dataset (in the
/// order of `cells`).
pub fn run_grid(
    opts: &ExpOpts,
    title: &str,
    cells: &[(impl AsRef<str>, Experiment)],
) -> (Vec<String>, Vec<Vec<CellResult>>) {
    let mut dataset_names = Vec::new();
    let mut results = Vec::new();
    for world in opts.worlds() {
        let dataset = dataset_for(world);
        let rows = cells
            .iter()
            .map(|(label, e)| opts.cell(label.as_ref(), e, &dataset))
            .collect();
        dataset_names.push(dataset.name);
        results.push(rows);
    }
    print_table(title, &dataset_names, &results);
    (dataset_names, results)
}

/// Tables X/XI: mean test AUC of DIN and DIN-MISS on the Amazon worlds
/// with the training split changed by `transform` at each of `levels`
/// (printed as a percentage in column `column`), plus the relative
/// improvement.
pub fn run_ri_table(
    opts: &ExpOpts,
    title: &str,
    column: &str,
    levels: &[f64],
    transform: impl Fn(&mut Dataset, f64),
) {
    println!("=== {title} ===");
    println!(
        "{:<20} {:>5} {:>10} {:>10} {:>9}",
        "Dataset", column, "DIN", "DIN-MISS", "RI"
    );
    // The paper studies the Amazon worlds only (smoke mode has just tiny).
    let amazon = |w: &WorldConfig| opts.smoke || w.name.starts_with("amazon-");
    for world in opts.worlds().into_iter().filter(amazon) {
        for &level in levels {
            let mut dataset = dataset_for(world.clone());
            transform(&mut dataset, level);
            let cells = [
                Experiment::new(BaseModel::Din, SslKind::None),
                din_miss(MissConfig::default()),
            ];
            let [din, miss] = cells.map(|e| {
                let label = format!("{} {column}={level}", e.label());
                mean(&opts.cell(&label, &e, &dataset).aucs)
            });
            println!(
                "{:<20} {:>4.0}% {:>10.4} {:>10.4} {:>9}",
                dataset.name,
                level * 100.0,
                din,
                miss,
                format!("{:+.2}%", relative_improvement(din, miss))
            );
        }
    }
}
