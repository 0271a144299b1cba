//! Figure 7: sensitivity of DIN-MISS to the InfoNCE temperature
//! τ ∈ {0.05, 0.1, 0.5, 1, 5}. The paper finds the turning point at 0.1.

use miss_bench::{din_miss, run_grid, ExpOpts};
use miss_core::MissConfig;

fn main() {
    let opts = ExpOpts::from_args();
    let cells = [0.05f32, 0.1, 0.5, 1.0, 5.0].map(|tau| {
        let cfg = MissConfig {
            tau,
            ..MissConfig::default()
        };
        (format!("tau={tau}"), din_miss(cfg))
    });
    run_grid(&opts, "Figure 7: DIN-MISS vs InfoNCE temperature", &cells);
}
