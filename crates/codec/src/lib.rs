//! `miss-codec` — the versioned checkpoint container for MISS training runs.
//!
//! A checkpoint is a self-describing binary artifact holding up to five
//! sections: the model it belongs to (base model and widths), parameter
//! values, Adam moments, training progress (epoch, Adam step, RNG stream
//! state, phase, early-stopping state) and the best-validation weights. The header carries a magic string, a format
//! version, a checksummed section table, and the store's
//! `params_fingerprint`, which is re-verified end-to-end after a load.
//!
//! Design goals, in order:
//!
//! 1. **No panic on any input.** Every malformed byte stream — truncation,
//!    bit flips, hostile length prefixes, future versions — returns a typed
//!    [`MissError`] naming the section and the reason.
//! 2. **Bitwise-faithful resume.** `save` then `load` restores parameters
//!    *and* optimiser state exactly, so a run interrupted at epoch *k* and
//!    resumed is bit-identical to one that never stopped (see
//!    `miss-trainer::Trainer`).
//! 3. **Versioned evolution.** Readers accept exactly the versions they
//!    know ([`FORMAT_VERSION`]); unknown versions fail with
//!    [`MissError::UnsupportedVersion`], never a misparse.
//!
//! See DESIGN.md §8 for the wire diagram and the error taxonomy.

// R6 (DESIGN.md §7): no unwrap/expect/todo/dbg in production code; a panic
// mid-minibatch poisons the worker pool.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::todo,
    clippy::unimplemented,
    clippy::dbg_macro
)]

mod checkpoint;
mod faultio;
mod wire;

pub use checkpoint::{
    load, load_from_path, load_from_slice, read, save, save_to_path,
    save_to_path_retrying, save_to_vec, tmp_sibling, Arch, Best, Checkpoint, TrainProgress,
    FORMAT_VERSION, HEADER_FIXED_LEN, MAGIC, MAX_ARCH_WIDTH, SAVE_ATTEMPTS, SECTION_ARCH,
    SECTION_BEST, SECTION_ENTRY_LEN, SECTION_MOMENTS, SECTION_PARAMS, SECTION_PROGRESS,
};
pub use faultio::{FaultReader, FaultWriter};
pub use miss_util::{MissError, MissResult};
pub use wire::fnv1a;
