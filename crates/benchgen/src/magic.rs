//! Bound-query workloads for the magic-sets (demand-driven) benchmark:
//! a reachability program over a graph built to make the full/demanded
//! asymmetry structural, plus the three query shapes run against it.
//!
//! The graph is a union of `chain_count` *disjoint* chains of `chain_len`
//! edges each. Full materialisation derives every chain's closure —
//! `chain_count · chain_len · (chain_len + 1) / 2` reachability pairs —
//! while a query bound to one chain's head can only ever demand that
//! chain's `chain_len` tuples. The separation is therefore a property of
//! the workload, not of evaluator luck, and grows linearly with
//! `chain_count`. Edge insertion order is seed-shuffled so the scenario
//! still exercises order-independence.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vadalog_model::parser::{parse_query, parse_rules};
use vadalog_model::{Atom, ConjunctiveQuery, Database, Program};

/// The linear transitive-closure program of the bound-query scenario.
pub const REACH_PROGRAM: &str = "reach(X, Y) :- edge(X, Y).\n\
                                 reach(X, Z) :- edge(X, Y), reach(Y, Z).";

/// A bound-query workload: one program, one database, and the three query
/// shapes of the magic benchmark, from free-est to most bound.
pub struct BoundQueryScenario {
    /// The reachability program (see [`REACH_PROGRAM`]).
    pub program: Program,
    /// `chain_count` disjoint chains of `chain_len` edges each.
    pub database: Database,
    /// `?(X, Y) :- reach(X, Y).` — all-free; magic must fall back.
    pub full_query: ConjunctiveQuery,
    /// `?(Y) :- reach(c, Y).` — bound source, one chain's head.
    pub bound_query: ConjunctiveQuery,
    /// `? :- reach(c, c').` — both ends bound, head to tail of one chain.
    pub point_query: ConjunctiveQuery,
    /// The bound source constant `c` (the head of chain 0).
    pub source: String,
    /// The point-query target `c'` (the tail of chain 0, so the point
    /// query demands the whole chain and answers non-empty).
    pub target: String,
    /// Tuples full materialisation must derive for `reach`.
    pub full_closure_size: usize,
    /// Answers of the bound query — also what one chain's demand costs.
    pub bound_answer_size: usize,
}

/// Generates a bound-query scenario over `chain_count` disjoint chains of
/// `chain_len` edges, with edge insertion order shuffled by `seed`.
pub fn bound_query_scenario(chain_count: usize, chain_len: usize, seed: u64) -> BoundQueryScenario {
    assert!(chain_count >= 1 && chain_len >= 1, "need a non-empty graph");
    let mut edges: Vec<(String, String)> = Vec::with_capacity(chain_count * chain_len);
    for c in 0..chain_count {
        for j in 0..chain_len {
            edges.push((format!("c{c}_n{j}"), format!("c{c}_n{}", j + 1)));
        }
    }
    // Fisher–Yates with the seeded generator: the scenario must not depend
    // on chain-major insertion order.
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.gen_range(0..i + 1));
    }
    let mut database = Database::new();
    for (a, b) in &edges {
        database
            .insert(Atom::fact("edge", &[a.as_str(), b.as_str()]))
            .expect("edge facts are ground");
    }
    let source = "c0_n0".to_string();
    let target = format!("c0_n{chain_len}");
    BoundQueryScenario {
        program: parse_rules(REACH_PROGRAM).expect("reach program parses"),
        database,
        full_query: parse_query("?(X, Y) :- reach(X, Y).").expect("full query parses"),
        bound_query: parse_query(&format!("?(Y) :- reach({source}, Y)."))
            .expect("bound query parses"),
        point_query: parse_query(&format!("? :- reach({source}, {target})."))
            .expect("point query parses"),
        source,
        target,
        full_closure_size: chain_count * chain_len * (chain_len + 1) / 2,
        bound_answer_size: chain_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog_datalog::DatalogEngine;

    #[test]
    fn scenario_sizes_match_the_evaluated_closure() {
        let scenario = bound_query_scenario(8, 10, 7);
        assert_eq!(scenario.database.len(), 80);
        let result = DatalogEngine::new(scenario.program.clone())
            .expect("reach program stratifies")
            .evaluate(&scenario.database);
        assert_eq!(
            scenario.full_query.evaluate(&result.instance).len(),
            scenario.full_closure_size,
            "8 chains x 10*11/2 pairs"
        );
        assert_eq!(
            scenario.bound_query.evaluate(&result.instance).len(),
            scenario.bound_answer_size
        );
        // The point query reaches across the whole of chain 0.
        assert_eq!(scenario.point_query.evaluate(&result.instance).len(), 1);
    }

    #[test]
    fn scenario_is_reproducible_per_seed_and_varies_across_seeds() {
        let a = bound_query_scenario(4, 6, 11);
        let b = bound_query_scenario(4, 6, 11);
        assert_eq!(
            a.database.as_instance().row_layout(),
            b.database.as_instance().row_layout()
        );
        assert_eq!(a.source, b.source);
        assert_eq!(a.target, b.target);
    }
}
