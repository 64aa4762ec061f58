//! The space-efficient core of Vadalog: proof-tree based query answering for
//! (piece-wise linear) warded sets of TGDs.
//!
//! This crate implements the paper's primary contribution (Sections 4 and 6):
//!
//! * **chunk-based resolution** — the σ-resolvents of every admissible
//!   chunk, factorings included ([`resolution`]);
//! * the **node-width bounds** `f_{WARD∩PWL}` and `f_{WARD}` of
//!   Theorems 4.8/4.9 ([`bounds`]);
//! * **one proof search** ([`search`]), a memoised breadth-first simulation
//!   of Section 4.3's non-deterministic algorithms: linear proof trees for
//!   `CQAns(WARD ∩ PWL)` (Theorem 4.8), and trees that branch at
//!   decompositions for `CQAns(WARD)` (Theorem 4.9);
//! * the **rewriting into piece-wise linear Datalog** behind the
//!   expressiveness result of Theorem 6.3 ([`rewrite`]);
//! * a high-level [`answer::CertainAnswerEngine`] that normalises a program,
//!   analyses it, picks the appropriate procedure and exposes both the
//!   decision problem (`is c̄ a certain answer?`) and answer enumeration;
//! * [`metrics::SpaceMeter`] — the peak-working-set instrumentation used by
//!   the space-efficiency experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answer;
pub mod bounds;
pub mod metrics;
pub mod resolution;
pub mod rewrite;
pub mod search;
pub mod support;

pub use answer::{CertainAnswerEngine, EngineOptions, Strategy};
pub use bounds::{node_width_bound_ward, node_width_bound_ward_pwl};
pub use metrics::SpaceMeter;
pub use resolution::{chunk_resolvents, CqState};
pub use rewrite::{rewrite_to_pwl_datalog, RewriteOptions, RewrittenQuery};
pub use search::{
    linear_proof_search, warded_proof_search, SearchOptions, SearchOutcome, SearchStats,
};
pub use support::PositionSupport;
