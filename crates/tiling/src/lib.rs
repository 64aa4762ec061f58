//! Tiling systems and the Section 5 reduction.
//!
//! Theorem 5.1 of the paper shows that `CQAns(PWL)` — conjunctive query
//! answering under piece-wise linear TGDs *without* the wardedness condition
//! — is undecidable, by a reduction from the unbounded tiling problem. This
//! crate implements:
//!
//! * [`TilingSystem`] — the tuple `(T, L, R, H, V, a, b)` of tiles, border
//!   sets, horizontal/vertical constraints and start/finish tiles;
//! * [`mod@reduction`] — the construction of the database `D_T`, the fixed
//!   piece-wise linear (non-warded) TGD set Σ and the Boolean CQ `q` from
//!   Section 5;
//! * [`solver`] — a bounded brute-force tiling solver used to cross-validate
//!   the reduction on decidable instances (finite width/height bounds).
//!
//! The E5 experiment uses these pieces to demonstrate the boundary that
//! justifies combining wardedness with piece-wise linearity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod reduction;
pub mod solver;
pub mod system;

pub use reduction::{reduction, TilingReduction};
pub use solver::{has_tiling_within, Tiling};
pub use system::TilingSystem;
