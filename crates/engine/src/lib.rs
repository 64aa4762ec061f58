//! A Vadalog-style bottom-up reasoner (Section 7 of the paper): the
//! optimizer's switches as configuration over the chase.
//!
//! Section 7 describes three optimisations of the Vadalog system that
//! piece-wise linearity makes possible or more effective, as switches on one
//! bottom-up procedure. That procedure lives in `vadalog_chase`
//! ([`vadalog_chase::Saturation`]); this crate only decides *what* it is
//! asked to saturate and in which order:
//!
//! 1. **aggressive termination control** — [`EngineConfig::termination`] is
//!    handed to the chase as its [`vadalog_chase::TerminationPolicy`]: step,
//!    null-count and null-generation-depth bounds all apply, and
//!    [`ReasonerResult::completed`] is `false` whenever one of them cut the
//!    run short;
//! 2. **PWL-aware join ordering** — in a piece-wise linear rule the single
//!    body atom that is mutually recursive with the head is placed first
//!    ([`JoinOrdering::PwlAware`]) and the remaining atoms are ordered by
//!    how constrained they are. "First" matters because body atom 0 *drives
//!    the join*: in the first round of a saturation the chase enumerates a
//!    rule's triggers from the rows of atom 0 and probes the other atoms
//!    along a build/probe plan; in later rounds every atom is driven from
//!    just the rows its relation gained, so only that first pass depends on
//!    the order. [`JoinOrdering::AsWritten`] keeps the author's driver;
//! 3. **materialisation at strata boundaries** — with
//!    [`EngineConfig::materialize_strata`] the chase saturates one stratum's
//!    rules at a time, bottom-up (lower strata are complete before a higher
//!    one starts); without it, all rules saturate together in one global
//!    fixpoint.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;
pub mod optimizer;

pub use executor::{Reasoner, ReasonerResult, ReasonerStats};
pub use optimizer::{EngineConfig, JoinOrdering, OptimizedProgram, OptimizedRule};
