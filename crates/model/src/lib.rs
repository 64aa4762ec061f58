//! Logical model underlying the reproduction of *"The Space-Efficient Core of
//! Vadalog"* (Berger, Gottlob, Pieris, Sallinger — PODS 2019).
//!
//! This crate provides the Section 2 preliminaries of the paper as concrete,
//! reusable Rust types:
//!
//! * [`Symbol`] — interned identifiers for constants, variable names and
//!   predicate names.
//! * [`Term`] — constants, variables and labelled nulls.
//! * [`Atom`] / [`Predicate`] — relational atoms over terms.
//! * [`Database`] and [`Instance`] — finite sets of facts (respectively atoms
//!   with nulls), indexed by predicate for efficient matching.
//! * [`Substitution`] and homomorphisms between sets of atoms.
//! * Most-general unifiers ([`unify`]).
//! * [`Tgd`] — tuple-generating dependencies (existential rules).
//! * [`ConjunctiveQuery`] — CQs in the rule-based syntax of the paper.
//! * [`Program`] — a set of TGDs together with schema bookkeeping.
//! * [`parser`] — a small Vadalog-like surface syntax so that programs,
//!   databases and queries can be written as text in examples and tests.
//!
//! Everything in later crates (wardedness analysis, the chase, proof-tree
//! based query answering, the Datalog engine, …) is built on these types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atom;
pub mod budget;
pub mod database;
pub mod error;
pub mod fasthash;
pub mod homomorphism;
pub mod parallel;
pub mod parser;
pub mod program;
pub mod query;
pub mod snapshot;
pub mod substitution;
pub mod symbols;
pub mod term;
pub mod tgd;
pub mod unify;

pub use atom::{Atom, Predicate};
pub use budget::{BudgetExceeded, CancelCell, KernelBudget, QueryBudget, BUDGET_POLL_INTERVAL};
pub use database::{fuse_key, Candidates, ColSet, Database, Instance, Relation, RowId};
pub use error::ModelError;
pub use homomorphism::{
    exists_homomorphism, homomorphisms, Bindings, HomSearch, JoinPlan, JoinSpec, JoinStats,
    Matcher, PlanOptions, RowTemplate, PREMATCHED_ROW,
};
pub use parallel::{DerivationBatch, DrivenRange, DrivenRows, MergeScratch, DELTA_SHARDS};
pub use program::Program;
pub use query::ConjunctiveQuery;
pub use snapshot::{InstanceSnapshot, SnapshotCell};
pub use substitution::Substitution;
pub use symbols::Symbol;
pub use term::{NullId, PackedTerm, Term, Variable};
pub use tgd::{display_variables, AtomSpan, RulePart, Tgd};
pub use unify::{mgu_atom_with_atom, unify_all_with};
