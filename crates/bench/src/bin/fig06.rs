//! Figure 6: sensitivity of DIN-MISS to the SSL loss weight
//! α = α₁ = α₂ ∈ {0.05, 0.1, 0.5, 1, 5} on the three datasets. Expected
//! shape: performance rises with α then degrades once the SSL losses
//! dominate (α > 1).

use miss_bench::{din_miss, run_grid, ExpOpts};
use miss_core::MissConfig;

fn main() {
    let opts = ExpOpts::from_args();
    let cells = [0.05f32, 0.1, 0.5, 1.0, 5.0].map(|a| {
        let cfg = MissConfig {
            alpha1: a,
            alpha2: a,
            ..MissConfig::default()
        };
        (format!("alpha={a}"), din_miss(cfg))
    });
    run_grid(&opts, "Figure 6: DIN-MISS vs SSL loss weight", &cells);
}
