//! Composite-key ("2-key foreign-key") join-chain workloads.
//!
//! Real warded-chase workloads join on **multi-column** keys: an order line
//! references a (customer, region) pair, an RDF reification joins on
//! (subject, predicate), a data-exchange target joins on a pair of invented
//! identifiers. A single-column index can only probe one of the columns and
//! must filter the rest row by row, so its candidate lists scale with the
//! *per-column* fan-out even when the *pair* is unique. The scenario below
//! makes that gap measurable (the repository benchmark's `answer_cq`
//! workload runs it):
//!
//! * `src(A, B, V)` — the `(A, B)` pairs enumerate a `groups × (rows /
//!   groups)` grid, so every pair is unique while column `A` is shared by
//!   `rows / groups` facts and column `B` by `groups` facts: the best
//!   single-column probe still wades through `min(groups, rows / groups)`
//!   candidates, the fused pair probe through exactly one;
//! * `link(A, B, C, D)` — maps ~70% of the source pairs to a `(C, D)` pair
//!   drawn from the same kind of grid. The remaining ~30% of source pairs
//!   have **no** link: probing them misses, which is what the fingerprint
//!   filters short-circuit;
//! * `dst(C, D, W)` — resolves ~80% of the linked pairs (the rest dangle:
//!   probing them misses, which is what the fingerprint filters
//!   short-circuit), plus `rows` noise facts over a disjoint `C` pool that
//!   make `dst` the largest relation — so the greedy planner drives the
//!   chain from `link` and actually has to probe the dangling pairs.
//!
//! The canonical CQ is the chain
//! `?- src(A, B, V), link(A, B, C, D), dst(C, D, W)`: both joins bind a
//! two-column key, so a composite plan probes each fused pair exactly,
//! while a single-column plan scans the shared-`A` (resp. shared-`C`)
//! candidate lists row by row.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vadalog_model::{Atom, Database, Term};

/// A generated composite-key join scenario: the database, the canonical
/// 2-key join-chain CQ pattern over it, and the exact answer count the
/// generation bookkeeping predicts (a cheap bit-identity witness for
/// benches and tests).
#[derive(Debug, Clone)]
pub struct FkJoinScenario {
    /// The `src` / `link` / `dst` facts.
    pub database: Database,
    /// The chain CQ `src(A, B, V), link(A, B, C, D), dst(C, D, W)` — every
    /// join binds a two-column key.
    pub pattern: Vec<Atom>,
    /// Number of answers the chain CQ has: the source rows whose link and
    /// destination both exist.
    pub expected_answers: usize,
}

/// Generates a scenario with `rows` source facts over a `groups ×
/// (rows / groups)` key grid (so column `A` fans out to `rows / groups`
/// rows and column `B` to `groups`, while each `(A, B)` pair is unique).
/// Link and destination survival are drawn deterministically from `seed`.
pub fn fk_join_scenario(groups: usize, rows: usize, seed: u64) -> FkJoinScenario {
    let groups = groups.max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut database = Database::new();
    let mut expected_answers = 0usize;

    for i in 0..rows {
        let a = format!("a{}", i % groups);
        let b = format!("b{}", i / groups);
        database
            .insert(Atom::fact("src", &[&a, &b, &format!("v{i}")]))
            .expect("src facts are ground");
        // ~70% of source pairs carry a link; the rest are guaranteed probe
        // misses for the second chain atom.
        if rng.gen_bool(0.7) {
            let c = format!("c{}", i % groups);
            let d = format!("d{}", i / groups);
            database
                .insert(Atom::fact("link", &[&a, &b, &c, &d]))
                .expect("link facts are ground");
            // ~80% of linked pairs resolve; the rest dangle (third-atom
            // misses).
            if rng.gen_bool(0.8) {
                database
                    .insert(Atom::fact("dst", &[&c, &d, &format!("w{i}")]))
                    .expect("dst facts are ground");
                expected_answers += 1;
            }
        }
    }

    // Noise destinations over a *disjoint* first-key pool: they bulk the
    // relation (so the planner drives the chain from `link`, the smallest
    // relation, and really probes the dangling pairs) and they keep both
    // destination key columns heavy, without ever joining the chain.
    for i in 0..rows {
        database
            .insert(Atom::fact(
                "dst",
                &[
                    &format!("cx{}", i % groups),
                    &format!("d{}", i / groups),
                    &format!("nw{i}"),
                ],
            ))
            .expect("noise dst facts are ground");
    }

    let v = Term::variable;
    let pattern = vec![
        Atom::new("src", vec![v("A"), v("B"), v("V")]),
        Atom::new("link", vec![v("A"), v("B"), v("C"), v("D")]),
        Atom::new("dst", vec![v("C"), v("D"), v("W")]),
    ];
    FkJoinScenario {
        database,
        pattern,
        expected_answers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog_model::Predicate;

    #[test]
    fn scenario_sizes_and_shape() {
        let s = fk_join_scenario(10, 200, 7);
        let inst = s.database.as_instance();
        assert_eq!(inst.relation_size(Predicate::new("src")), 200);
        let links = inst.relation_size(Predicate::new("link"));
        assert!(
            (100..=180).contains(&links),
            "≈70% of 200 pairs link, got {links}"
        );
        assert!(
            inst.relation_size(Predicate::new("dst")) > links,
            "noise keeps dst the largest relation, so link drives the plan"
        );
        assert_eq!(inst.arity_of(Predicate::new("link")), Some(4));
        assert_eq!(s.pattern.len(), 3);
        // Key-grid fan-outs: column A shared by rows/groups facts, column B
        // by groups facts, pairs unique.
        let src = inst.relation(Predicate::new("src")).unwrap();
        assert_eq!(src.distinct_count(0), 10);
        assert_eq!(src.distinct_count(1), 20);
        assert_eq!(
            src.key_distinct_count(vadalog_model::ColSet::new(&[0, 1])),
            200
        );
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = fk_join_scenario(8, 100, 3);
        let b = fk_join_scenario(8, 100, 3);
        assert_eq!(
            a.database.as_instance().row_layout(),
            b.database.as_instance().row_layout()
        );
        assert_eq!(a.expected_answers, b.expected_answers);
    }

    #[test]
    fn expected_answers_matches_actual_enumeration() {
        let s = fk_join_scenario(5, 100, 1);
        let answers = vadalog_model::homomorphisms(
            &s.pattern,
            s.database.as_instance(),
            &vadalog_model::Substitution::new(),
            vadalog_model::HomSearch::all(),
        );
        assert_eq!(answers.len(), s.expected_answers);
        assert!(s.expected_answers > 0);
    }
}
