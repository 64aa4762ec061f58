//! Seeded workload generators for the reproduction experiments.
//!
//! The paper's empirical observations were made over benchmarks and
//! industrial scenarios that are not publicly available (ChaseBench and
//! iBench data-exchange scenarios, the iWarded generator, DBpedia extracts
//! and partner workloads). This crate provides synthetic stand-ins with the
//! same structural features, all driven by explicit seeds so every experiment
//! is reproducible:
//!
//! * [`graphs`] — chain, grid, random and preferential-attachment graphs for
//!   the reachability / transitive-closure workloads (experiment E1);
//! * [`iwarded`] — random warded TGD scenarios mixing directly piece-wise
//!   linear, linearisable and genuinely non-PWL recursion in configurable
//!   proportions (experiment E2);
//! * [`owl`] — OWL 2 QL-style ontologies shaped like Example 3.3, plus a
//!   DBpedia-like synthetic knowledge graph (experiments E4/E6);
//! * [`data_exchange`] — ChaseBench-style source-to-target scenarios with
//!   existential target dependencies (experiment E6);
//! * [`fkjoin`] — 2-key foreign-key join chains whose every join binds a
//!   two-column key (the composite-index workload);
//! * [`magic`] — bound-query reachability workloads (disjoint chains, so
//!   full-closure size vs per-query demand is a structural property) for
//!   the magic-sets path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data_exchange;
pub mod fkjoin;
pub mod graphs;
pub mod iwarded;
pub mod magic;
pub mod owl;

pub use data_exchange::data_exchange_scenario;
pub use fkjoin::{fk_join_scenario, FkJoinScenario};
pub use graphs::{chain_graph, grid_graph, preferential_attachment, random_graph};
pub use iwarded::{iwarded_scenario, ScenarioKind, ScenarioMix};
pub use magic::{bound_query_scenario, BoundQueryScenario, REACH_PROGRAM};
pub use owl::{owl_database, owl_program, synthetic_kg};
