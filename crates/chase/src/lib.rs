//! The chase procedure for TGDs (Section 2 of the paper) with termination
//! control (Section 7) and, on request, provenance tracking (the chase graph
//! of Section 4.2; see [`ChaseConfig::record_provenance`]).
//!
//! The chase is the classical bottom-up tool for certain-answer computation:
//! `cert(q, D, Σ) = q(chase(D, Σ))` (Proposition 2.1). For warded programs
//! the chase may be infinite, so the engine supports termination policies
//! that bound the number of steps, the number of invented nulls, or the
//! *generation depth* of nulls — the practical device the Vadalog system uses
//! for "aggressive termination control".
//!
//! Two chase variants are provided:
//!
//! * the **restricted** (standard) chase, which fires a trigger only when its
//!   head is not already satisfied, and
//! * the **oblivious** chase, which fires every trigger exactly once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod provenance;
pub mod termination;

pub use engine::{
    certain_answers, ChaseConfig, ChaseEngine, ChaseResult, ChaseRule, ChaseStats, ChaseVariant,
    Saturation,
};
pub use provenance::{ChaseGraph, DerivationRecord};
pub use termination::TerminationPolicy;
