//! The Section 5 reduction from the unbounded tiling problem to
//! `CQAns(PWL)`.
//!
//! Given a tiling system `T` the reduction produces a database `D_T` storing
//! the system, a *fixed* set Σ of piece-wise linear TGDs (independent of `T`)
//! that generates all candidate tilings via existential row identifiers, and
//! a Boolean conjunctive query `q` asking whether some candidate tiling ends
//! with a row starting at the finish tile. `T` has a tiling iff
//! `() ∈ cert(q, D_T, Σ)`, and since Σ is *not* warded this establishes
//! Theorem 5.1: piece-wise linearity alone does not make query answering
//! decidable.

use crate::system::TilingSystem;
use vadalog_model::parser::{parse_query, parse_rules};
use vadalog_model::{Atom, ConjunctiveQuery, Database, Program};

/// The output of the reduction: `(D_T, Σ, q)`.
#[derive(Debug, Clone)]
pub struct TilingReduction {
    /// The database `D_T` storing the tiling system.
    pub database: Database,
    /// The fixed, piece-wise linear but non-warded TGD set Σ.
    pub program: Program,
    /// The Boolean query `Q ← CTiling(x, y), Finish(y)`.
    pub query: ConjunctiveQuery,
}

/// The fixed TGD set Σ of Section 5 in the surface syntax of this
/// reproduction. `_` denotes a don't-care variable, exactly as in the paper.
pub const SIGMA: &str = "\
row(Z, Z, X, X) :- tile(X).\n\
row(X, U, Y, W) :- row(_, X, Y, Z), h(Z, W).\n\
comp(X, X2) :- row(X, X, Y, Y), row(X2, X2, Y2, Y2), v(Y, Y2).\n\
comp(Y, Y2) :- row(X, Y, _, Z), row(X2, Y2, _, Z2), comp(X, X2), v(Z, Z2).\n\
ctiling(X, Y) :- row(_, X, Y, Z), start(Y), rightb(Z).\n\
ctiling(Y, Z) :- ctiling(X, _), row(_, Y, Z, W), comp(X, Y), leftb(Z), rightb(W).\n";

/// The Boolean query of the reduction.
pub const QUERY: &str = "? :- ctiling(X, Y), finish(Y).";

/// Builds the reduction `(D_T, Σ, q)` for a tiling system.
pub fn reduction(system: &TilingSystem) -> TilingReduction {
    let program = parse_rules(SIGMA).expect("Σ is well-formed");
    let query = parse_query(QUERY).expect("q is well-formed");

    let mut database = Database::new();
    let mut add = |predicate: &str, args: &[&str]| {
        database
            .insert(Atom::fact(predicate, args))
            .expect("reduction facts are ground");
    };
    for tile in &system.tiles {
        add("tile", &[tile.as_str()]);
    }
    for tile in &system.left {
        add("leftb", &[tile.as_str()]);
    }
    for tile in &system.right {
        add("rightb", &[tile.as_str()]);
    }
    for (a, b) in &system.horizontal {
        add("h", &[a.as_str(), b.as_str()]);
    }
    for (a, b) in &system.vertical {
        add("v", &[a.as_str(), b.as_str()]);
    }
    add("start", &[system.start.as_str()]);
    add("finish", &[system.finish.as_str()]);

    TilingReduction {
        database,
        program,
        query,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::has_tiling_within;
    use vadalog_analysis::classify::{classify_scenario, ScenarioClass};
    use vadalog_analysis::pwl::is_piecewise_linear;
    use vadalog_analysis::wardedness::is_warded;
    use vadalog_chase::{ChaseConfig, ChaseEngine, TerminationPolicy};

    #[test]
    fn sigma_is_piecewise_linear_but_not_warded() {
        let red = reduction(&TilingSystem::solvable_example());
        assert!(is_piecewise_linear(&red.program));
        assert!(!is_warded(&red.program));
        assert_eq!(classify_scenario(&red.program), ScenarioClass::NotWarded);
    }

    #[test]
    fn database_encodes_the_system() {
        let system = TilingSystem::solvable_example();
        let red = reduction(&system);
        assert!(red.database.contains(&Atom::fact("tile", &["a"])));
        assert!(red.database.contains(&Atom::fact("start", &["a"])));
        assert!(red.database.contains(&Atom::fact("finish", &["b"])));
        assert!(red.database.contains(&Atom::fact("h", &["a", "r"])));
        assert!(red.database.contains(&Atom::fact("v", &["a", "b"])));
        assert_eq!(
            red.database.len(),
            system.tiles.len()
                + system.left.len()
                + system.right.len()
                + system.horizontal.len()
                + system.vertical.len()
                + 2
        );
    }

    #[test]
    fn solvable_system_is_witnessed_by_a_bounded_chase() {
        let system = TilingSystem::solvable_example();
        assert!(has_tiling_within(&system, 4, 4).is_some());
        let red = reduction(&system);
        let engine = ChaseEngine::new(
            red.program.clone(),
            ChaseConfig::restricted(TerminationPolicy::MaxNullDepth(4)),
        );
        let result = engine.run(&red.database);
        assert!(result.boolean_answer(&red.query));
    }

    #[test]
    fn unsolvable_system_is_not_witnessed_within_the_same_bound() {
        let system = TilingSystem::unsolvable_example();
        assert!(has_tiling_within(&system, 5, 5).is_none());
        let red = reduction(&system);
        let engine = ChaseEngine::new(
            red.program.clone(),
            ChaseConfig::restricted(TerminationPolicy::MaxNullDepth(4)),
        );
        let result = engine.run(&red.database);
        assert!(!result.boolean_answer(&red.query));
    }
}
