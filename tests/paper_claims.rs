//! Integration tests that check the paper's individual claims end-to-end:
//! Example 3.3, the node-width bounds, Definition 4.3's side conditions,
//! Theorem 5.1's reduction, Lemma 6.7 and the Section 1.2 linearisation.

use vadalog::analysis::classify::{classify_scenario, ScenarioClass};
use vadalog::analysis::levels::PredicateLevels;
use vadalog::analysis::linearize::linearize;
use vadalog::analysis::predicate_graph::PredicateGraph;
use vadalog::analysis::pwl::{is_intensionally_linear, is_piecewise_linear};
use vadalog::analysis::wardedness::is_warded;
use vadalog::benchgen::graphs::random_graph;
use vadalog::chase::{ChaseConfig, ChaseEngine, TerminationPolicy};
use vadalog::core::{
    linear_proof_search, node_width_bound_ward, node_width_bound_ward_pwl, warded_proof_search,
    CertainAnswerEngine, SearchOptions, Strategy,
};
use vadalog::datalog::DatalogEngine;
use vadalog::model::parser::{parse, parse_query, parse_rules};
use vadalog::model::{Predicate, Symbol};
use vadalog::tiling::{has_tiling_within, reduction, TilingSystem};

fn owl_rules() -> &'static str {
    "subclassStar(X, Y) :- subclass(X, Y).\n\
     subclassStar(X, Z) :- subclassStar(X, Y), subclass(Y, Z).\n\
     type(X, Z) :- type(X, Y), subclassStar(Y, Z).\n\
     triple(X, Z, W) :- type(X, Y), restriction(Y, Z).\n\
     triple(Z, W, X) :- triple(X, Y, Z), inverse(Y, W).\n\
     type(X, W) :- triple(X, Y, Z), restriction(W, Y)."
}

#[test]
fn example_3_3_is_in_the_space_efficient_core() {
    // Section 3 / Section 4: the OWL 2 QL example is warded, uses non-linear
    // (but piece-wise linear) recursion, and has the level structure used by
    // the node-width bound.
    let program = parse_rules(owl_rules()).unwrap();
    assert!(is_warded(&program));
    assert!(is_piecewise_linear(&program));
    assert!(!is_intensionally_linear(&program));
    let graph = PredicateGraph::new(&program);
    assert!(graph.mutually_recursive(Predicate::new("type"), Predicate::new("triple")));
    let levels = PredicateLevels::compute(&program, &graph);
    assert_eq!(levels.max_level(), 3);
}

#[test]
fn theorem_4_8_node_width_bound_is_respected_in_practice() {
    let program = parse_rules(owl_rules()).unwrap();
    let db = parse(
        "subclass(student, person). subclass(person, agent).\n\
         type(alice, student). type(alice, enrolled).\n\
         restriction(enrolled, hasCourse). inverse(hasCourse, courseOf).",
    )
    .unwrap()
    .database;
    let query = parse_query("?(X, C) :- type(X, C).").unwrap();
    let bound = node_width_bound_ward_pwl(&query, &program);
    let boolean = query
        .instantiate(&[Symbol::new("alice"), Symbol::new("agent")])
        .unwrap();
    let outcome = linear_proof_search(&program, &db, &boolean, SearchOptions::default());
    assert!(outcome.is_accepted());
    assert!(outcome.stats().max_state_size <= bound);
}

#[test]
fn theorem_4_9_node_width_bound_is_respected_in_practice() {
    // The non-linear closure and same generation, linear and not
    // (Theorem 4.9 covers every warded program, piece-wise linear or not),
    // decided on every pair of their domains against the materialised truth.
    let scenarios = [
        (
            "t(X, Y) :- edge(X, Y).\n t(X, Z) :- t(X, Y), t(Y, Z).",
            "edge(a, b). edge(b, c). edge(c, d). edge(d, e).",
            "?(X, Y) :- t(X, Y).",
        ),
        (
            "sg(X, Y) :- flat(X, Y).\n sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).",
            "up(a, p). up(b, p). up(c, q). up(p, r). up(q, r). flat(r, r).\n\
             down(p, a). down(p, b). down(q, c). down(r, p). down(r, q).",
            "?(X, Y) :- sg(X, Y).",
        ),
        (
            "sg(X, Y) :- flat(X, Y).\n sg(X, Y) :- up(X, X1), sg(X1, Y1), sg(Y1, Y).",
            "up(a, p). up(b, p). up(c, q). up(p, r). up(q, r). flat(r, r). flat(p, q).",
            "?(X, Y) :- sg(X, Y).",
        ),
    ];
    for (rules, facts, query) in scenarios {
        let program = parse_rules(rules).unwrap();
        assert!(is_warded(&program));
        let db = parse(facts).unwrap().database;
        let query = parse_query(query).unwrap();
        let bound = node_width_bound_ward(&query, &program);
        let truth = DatalogEngine::new(program.clone())
            .unwrap()
            .answers(&db, &query);
        let domain = db.domain();
        for a in &domain {
            for b in &domain {
                let tuple = [*a, *b];
                let boolean = query.instantiate(&tuple).unwrap();
                let outcome =
                    warded_proof_search(&program, &db, &boolean, SearchOptions::default());
                let stats = outcome.stats();
                assert_eq!(
                    outcome.is_accepted(),
                    truth.contains(&tuple[..]),
                    "{boolean}"
                );
                assert!(stats.max_state_size <= stats.node_width_bound, "{boolean}");
                // Width deepening stops below f_WARD only on a proof; a
                // rejection is only ever made at the bound itself.
                assert!(stats.node_width_bound <= bound, "{boolean}");
                if !outcome.is_accepted() {
                    assert_eq!(stats.node_width_bound, bound, "{boolean}");
                }
            }
        }
    }
}

#[test]
fn theorem_4_9_needs_factorings_within_f_ward() {
    // The three h atoms all map onto h(c, d). One at a time, resolution
    // leaves 5 and then 7 atoms before any atom matches the database, past
    // f_WARD = 2 · max(3, 3) = 6; resolved as one chunk they leave 3. The
    // closure over t makes the program non-PWL, so the engine takes the
    // warded search.
    let program = parse_rules(
        "h(X, Y) :- a(X, W), b(W, Y), c(W).\n\
         a(X, W) :- e(X, W), e(X, X), e(W, W).\n\
         b(W, Y) :- e(W, Y), e(Y, Y), e(W, W).\n\
         c(W) :- e(W, U), e(U, U), e(W, W).\n\
         t(X, Z) :- t(X, Y), t(Y, Z).",
    )
    .unwrap();
    let db = parse("e(c, d). e(c, c). e(d, d).").unwrap().database;
    let boolean = parse_query("? :- h(Z, V1), h(Z, V2), h(Z, V3).").unwrap();
    assert_eq!(node_width_bound_ward(&boolean, &program), 6);
    let truth = DatalogEngine::new(program.clone())
        .unwrap()
        .answers(&db, &boolean);
    assert!(truth.contains(&Vec::new()));

    let outcome = warded_proof_search(&program, &db, &boolean, SearchOptions::default());
    assert!(outcome.is_accepted());
    assert!(outcome.stats().max_state_size <= 6);
    let engine = CertainAnswerEngine::with_defaults(program).unwrap();
    assert_eq!(engine.strategy(), Strategy::WardedProofSearch);
    assert!(engine.boolean_certain(&db, &boolean));
}

#[test]
fn definition_4_3_existentials_meet_no_frontier_variable() {
    // Σ = {p(X) → ∃Z r(X, Z)}, D = {p(a)}: the chase holds r(a, ν) and no
    // r(t, t), so resolving r(Y, Y) would need the null to equal a. Neither
    // the decision, nor the rewriting behind `all_answers`, nor the warded
    // search (the non-linear rule makes the program non-PWL) may do it.
    let db = parse("p(a).").unwrap().database;
    let boolean = parse_query("? :- r(Y, Y).").unwrap();
    let query = parse_query("?(A) :- p(A), r(Y, Y).").unwrap();
    for (rules, strategy) in [
        ("r(X, Z) :- p(X).", Strategy::LinearProofSearch),
        (
            "r(X, Z) :- p(X).\n t(X, Z) :- t(X, Y), t(Y, Z).",
            Strategy::WardedProofSearch,
        ),
    ] {
        let program = parse_rules(rules).unwrap();
        let chase = ChaseEngine::new(
            program.clone(),
            ChaseConfig::restricted(TerminationPolicy::Unbounded),
        )
        .run(&db);
        assert!(!chase.boolean_answer(&boolean));
        assert!(chase.instance_answers(&query).is_empty());

        let engine = CertainAnswerEngine::with_defaults(program).unwrap();
        assert_eq!(engine.strategy(), strategy);
        assert!(!engine.boolean_certain(&db, &boolean), "{rules}");
        assert!(
            engine.all_answers(&db, &query).unwrap().is_empty(),
            "{rules}"
        );
        assert!(
            !engine
                .is_certain_answer(&db, &query, &[Symbol::new("a")])
                .unwrap(),
            "{rules}"
        );
    }
}

#[test]
fn theorem_5_1_reduction_is_pwl_not_warded_and_tracks_the_solver() {
    for (system, solvable) in [
        (TilingSystem::solvable_example(), true),
        (TilingSystem::unsolvable_example(), false),
    ] {
        let red = reduction(&system);
        assert!(is_piecewise_linear(&red.program));
        assert!(!is_warded(&red.program));
        assert_eq!(classify_scenario(&red.program), ScenarioClass::NotWarded);
        assert_eq!(has_tiling_within(&system, 4, 4).is_some(), solvable);
        // The certain-answer engine refuses the unwarded program by default —
        // exactly the guardrail the undecidability result motivates.
        assert!(CertainAnswerEngine::with_defaults(red.program.clone()).is_err());
    }
}

#[test]
fn lemma_6_7_value_invention_separates_the_languages() {
    // Σ = {P(x) → ∃y R(x,y)}, D = {P(c)}: q1 is certain, q2 is not — no
    // Datalog program over the same EDB can reproduce both (program
    // expressive power separation).
    let sigma = parse_rules("r(X, Y) :- p(X).").unwrap();
    let db = parse("p(c).").unwrap().database;
    let engine = CertainAnswerEngine::with_defaults(sigma).unwrap();
    let q1 = parse_query("? :- r(X, Y).").unwrap();
    let q2 = parse_query("? :- r(X, Y), p(Y).").unwrap();
    assert!(engine.boolean_certain(&db, &q1));
    assert!(!engine.boolean_certain(&db, &q2));

    // Any Datalog program deriving an R-fact over dom(D) = {c} makes q2 true:
    // demonstrate with the natural candidate simulation R(x, x) ← P(x).
    let datalog_attempt = DatalogEngine::new(parse_rules("r(X, X) :- p(X).").unwrap()).unwrap();
    let result = datalog_attempt.evaluate(&db);
    assert!(result.holds(&q1));
    assert!(result.holds(&q2)); // …which differs from the TGD semantics above.
}

#[test]
fn section_1_2_linearisation_preserves_certain_answers() {
    let nonlinear = parse_rules("t(X, Y) :- edge(X, Y).\n t(X, Z) :- t(X, Y), t(Y, Z).").unwrap();
    assert_eq!(
        classify_scenario(&nonlinear),
        ScenarioClass::WardedLinearizable
    );
    let outcome = linearize(&nonlinear);
    assert!(outcome.changed());
    assert!(is_piecewise_linear(&outcome.program));

    let query = parse_query("?(X, Y) :- t(X, Y).").unwrap();
    for seed in 0..3u64 {
        let db = random_graph(10, 25, seed);
        let before = DatalogEngine::new(nonlinear.clone())
            .unwrap()
            .answers(&db, &query);
        let after = DatalogEngine::new(outcome.program.clone())
            .unwrap()
            .answers(&db, &query);
        assert_eq!(before, after, "seed {seed}");
    }
}

#[test]
fn introduction_statistics_shape_holds_on_a_generated_suite() {
    use vadalog::benchgen::iwarded::{iwarded_scenario, ScenarioMix};
    let mix = ScenarioMix::default();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
    let mut pwl = 0usize;
    let mut linearizable = 0usize;
    let mut other = 0usize;
    let total = 60;
    for seed in 0..total as u64 {
        let kind = mix.draw(&mut rng);
        match classify_scenario(&iwarded_scenario(kind, 4, seed)) {
            ScenarioClass::WardedPwl => pwl += 1,
            ScenarioClass::WardedLinearizable => linearizable += 1,
            _ => other += 1,
        }
    }
    // The shape of the paper's statistic: a majority is directly PWL, a small
    // slice is linearisable, and PWL + linearisable dominate the suite.
    assert!(
        pwl > total / 3,
        "directly PWL scenarios should dominate ({pwl}/{total})"
    );
    assert!(linearizable > 0);
    assert!(pwl + linearizable > other);
}
