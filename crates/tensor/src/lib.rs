//! Dense row-major f32 matrices for the MISS reproduction.
//!
//! Every value flowing through the models is a 2-D [`Tensor`] with shape
//! `(rows, cols)` over a single flat `Vec<f32>`. Higher-rank data (e.g. the
//! paper's 3-D tensor `C ∈ R^{J×L×K}`, batched as `B×J×L×K`) is stored with
//! the leading axes flattened into the row dimension; the crates that need
//! the structure keep the axis sizes alongside and compute row indices
//! explicitly. This keeps the kernel surface small and the memory layout
//! cache-friendly (see the Rust Performance Book: flat buffers, `ikj` matmul
//! loop order, no per-element allocation).
//!
//! The matmul/bmm family packs its right-hand operand into one panel layout
//! and runs it through one kernel dispatcher (`kernels`), which picks a
//! fused-multiply-add panel body on AVX2+FMA CPUs and a portable one
//! elsewhere; above a fixed size threshold it fans out row chunks over the
//! `miss-parallel` pool. Each output element is one accumulation chain with
//! the contraction index ascending (fused or individually rounded, per
//! ISA), so results are bit-identical for any `MISS_THREADS` value — see
//! `kernels.rs` for the full determinism argument.

// R7 (DESIGN.md §7): serving links this crate, so production code has no
// panic path; an index needs a reasoned `#[expect]` naming its bound.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::todo,
    clippy::unimplemented,
    clippy::dbg_macro,
    clippy::panic,
    clippy::unreachable,
    clippy::indexing_slicing
)]

mod kernels;
pub mod math;
mod ops;
mod tensor;

pub use kernels::{detected_isa, GemmEpilogue};
pub use ops::PackedB;
pub use tensor::Tensor;
