//! Program analysis for (piece-wise linear) warded sets of TGDs.
//!
//! This crate implements the syntactic machinery of Sections 3 and 4 of
//! *"The Space-Efficient Core of Vadalog"*:
//!
//! * the **predicate graph** `pg(Σ)`, mutual recursion and strongly connected
//!   components ([`predicate_graph`]);
//! * **predicate levels** ℓΣ used by the node-width bound of Theorem 4.8
//!   ([`levels`]);
//! * **affected positions** and the harmless / harmful / dangerous variable
//!   classification ([`affected`]);
//! * the **wardedness** check of Definition 3.1 ([`wardedness`]);
//! * **piece-wise linearity** (Definition 4.1), intensional linearity and
//!   plain linear Datalog ([`pwl`]);
//! * **single-head normalisation** used throughout Section 4.2
//!   ([`normalize`]);
//! * the **linearisation** rewriting of Section 1.2 that eliminates
//!   unnecessary non-linear recursion ([`mod@linearize`]);
//! * **stratification** of a program by its recursive components
//!   ([`mod@stratify`]);
//! * a **scenario classifier** combining all of the above, used to reproduce
//!   the introduction's 55 % / 15 % / 30 % statistic ([`classify`]);
//! * the **diagnostics engine** ([`diagnostics`], [`safety`]): a multi-pass
//!   pipeline turning all of the above into structured, stable-coded
//!   findings, consumed by the service's `VALIDATE` admission gate and the
//!   `lint` example;
//! * **adornment analysis** ([`adornment`]): bound/free SIP propagation from
//!   a query binding pattern — the groundwork the magic-sets rewrite
//!   consumes;
//! * the **magic-sets rewrite** ([`magic`]): demand-driven specialisation of
//!   a program for one query binding pattern — magic guards, supplementary
//!   SIP splits and ground seed facts, emitted as an ordinary positive
//!   Datalog program the stratified evaluator runs unchanged. The demand
//!   engine in the Datalog crate caches one rewrite per binding-pattern
//!   signature ([`magic::demand_signature`]).
//!
//! # Diagnostic pass pipeline
//!
//! [`analyze`] runs, in order: safety/range
//! restriction, predicate-signature inference, wardedness, existential
//! recursion, piece-wise linearity, plan-level dry runs, and (when a query
//! is supplied) adornment. Every finding carries one of the stable codes
//! below; codes never change meaning across releases. The magic-sets
//! rewrite ([`magic::magic_rewrite`]) is not a diagnostics pass — it is the
//! adornment report's consumer, invoked per query by the demand engine and
//! by the lint CLI (which prints the rewritten program when the linted file
//! carries a query).
//!
//! # Error-code table
//!
//! | Code | Severity | Meaning |
//! |--------|----------------|---------|
//! | VLG001 | error          | program does not parse, arity conflict, or structurally invalid TGD |
//! | VLG002 | error¹         | null-generating (existential-head) rule under a Datalog-only target |
//! | VLG003 | info           | named variable occurs exactly once in its rule (typo?) |
//! | VLG004 | error          | dangerous variable with no ward (Definition 3.1) |
//! | VLG005 | warning        | more than one recursive body atom (not piece-wise linear) |
//! | VLG006 | info/warning²  | existential recursion: null-generating rule on a predicate-graph cycle |
//! | VLG007 | warning        | rule alpha-equivalent to an earlier rule |
//! | VLG008 | info           | derived predicate never read by a rule body |
//! | VLG009 | warning        | no derivation of the predicate bottoms out in the EDB |
//! | VLG010 | error¹/warning | head predicate collides with a known extensional relation |
//! | VLG011 | warning        | body joins variable-disjoint groups: unavoidable cross product |
//! | VLG012 | info           | planner finds no bound probe position in textual order |
//! | VLG013 | info           | predicate is demand-restricted under the query adornment |
//! | VLG014 | warning        | predicate reached with an all-free adornment |
//!
//! ¹ error only under [`AnalyzerOptions::require_datalog`]
//! (`diagnostics::AnalyzerOptions`), warning/tolerated otherwise.
//! ² info when the rule is warded (termination guaranteed), warning when
//! unwarded.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adornment;
pub mod affected;
pub mod classify;
pub mod diagnostics;
pub mod levels;
pub mod linearize;
pub mod magic;
pub mod normalize;
pub mod predicate_graph;
pub mod pwl;
pub mod safety;
pub mod stratify;
pub mod wardedness;

pub use adornment::{adorn, adorn_query, AdornedPredicate, AdornmentReport, BindingPattern};
pub use affected::{AffectedPositions, VariableClass, VariableClassification};
pub use classify::{classify_scenario, classify_with_diagnostics, ScenarioClass};
pub use diagnostics::{
    analyze, analyze_source, analyze_with, AnalyzerOptions, Diagnostic, DiagnosticCode,
    DiagnosticReport, PredicateRole, PredicateSignature, Severity,
};
pub use levels::PredicateLevels;
pub use linearize::{linearize, LinearizationOutcome};
pub use magic::{demand_signature, magic_rewrite, MagicFallback, MagicRewrite};
pub use normalize::{normalize_single_head, NormalizedProgram};
pub use predicate_graph::PredicateGraph;
pub use pwl::{is_intensionally_linear, is_linear_datalog, is_piecewise_linear, PwlReport};
pub use safety::check_safety;
pub use stratify::{stratify, Stratification};
pub use wardedness::{check_wardedness, is_warded, WardCandidate, WardednessReport};
