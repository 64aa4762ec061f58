//! A stratified, semi-naive Datalog evaluation engine.
//!
//! The paper compares (piece-wise linear) warded Datalog∃ against plain
//! (piece-wise linear) Datalog both complexity-wise and in expressive power
//! (Section 6). This crate provides the Datalog side of those comparisons:
//!
//! * it is the **target** of the Theorem 6.3 rewriting implemented in
//!   `vadalog-core::rewrite`, and
//! * it is the **baseline engine** used by the benchmark harness whenever a
//!   scenario is expressible in plain Datalog.
//!
//! Evaluation is bottom-up: the program is stratified by its recursive
//! components (`vadalog-analysis::stratify`), each stratum is saturated with
//! semi-naive iteration (a rule is driven from the rows of one body atom with
//! the rest of the body joined behind it, so work in round *i + 1* is driven
//! only by the atoms discovered in round *i*).
//!
//! Three engines run that one loop ([`engine`]) and differ only in the round
//! schedule ([`vadalog_model::DrivenRows`]) they start it from:
//!
//! * [`DatalogEngine`] — batch full materialisation, from scratch: the first
//!   round drives each rule's body atom 0 over its whole relation;
//! * [`IncrementalEngine`] — a live instance maintained at fixpoint across
//!   fact batches: each ingest resumes the loop from the engine's per-relation
//!   watermarks, so its first round drives only the rows that arrived since;
//! * [`DemandEngine`] — demand-driven (magic-sets) evaluation of bound
//!   queries against a frozen snapshot, from scratch over a scratch instance,
//!   with specialised programs cached per binding pattern ([`demand`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod demand;
pub mod engine;
pub mod explain;
pub mod incremental;

pub use demand::{
    DemandAnswer, DemandEngine, DemandError, DemandProfile, DemandStats, SpecialisedProgram,
};
pub use engine::{DatalogEngine, DatalogResult, DatalogStats, RoundProfile};
pub use explain::{explain_query, ExplainReport};
pub use incremental::{IncrementalEngine, IngestOutcome};
