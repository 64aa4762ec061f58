//! End-to-end integration tests: the four evaluation strategies (linear proof
//! search, Datalog rewriting, terminating chase, Vadalog-style bottom-up
//! engine) must agree on certain answers across representative scenarios.

use vadalog::benchgen::data_exchange::data_exchange_scenario;
use vadalog::benchgen::graphs::{chain_graph, random_graph};
use vadalog::benchgen::owl::{owl_database, owl_program};
use vadalog::chase::{ChaseConfig, ChaseEngine, TerminationPolicy};
use vadalog::core::{CertainAnswerEngine, Strategy};
use vadalog::datalog::DatalogEngine;
use vadalog::engine::{EngineConfig, JoinOrdering, Reasoner};
use vadalog::model::parser::{parse, parse_query, parse_rules};
use vadalog::model::{Database, Program, Symbol};

fn tc_program() -> Program {
    parse_rules("t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).").unwrap()
}

#[test]
fn all_strategies_agree_on_transitive_closure() {
    let program = tc_program();
    let db = random_graph(12, 18, 5);
    let query = parse_query("?(X, Y) :- t(X, Y).").unwrap();

    // Ground truth: semi-naive Datalog (the program is plain Datalog).
    let truth = DatalogEngine::new(program.clone())
        .unwrap()
        .answers(&db, &query);

    // Chase.
    let chase = ChaseEngine::new(
        program.clone(),
        ChaseConfig::restricted(TerminationPolicy::Unbounded),
    );
    assert_eq!(chase.certain_answers(&db, &query), truth);

    // Bottom-up engine, both join orders.
    for ordering in [JoinOrdering::PwlAware, JoinOrdering::AsWritten] {
        let reasoner = Reasoner::new(
            &program,
            EngineConfig {
                join_ordering: ordering,
                ..EngineConfig::default()
            },
        );
        assert_eq!(reasoner.answers(&db, &query), truth);
    }

    // Certain-answer engine: enumeration and per-tuple decision.
    let engine = CertainAnswerEngine::with_defaults(program).unwrap();
    assert_eq!(engine.strategy(), Strategy::LinearProofSearch);
    assert_eq!(engine.all_answers(&db, &query).unwrap(), truth);
    for tuple in truth.iter().take(5) {
        assert!(engine.is_certain_answer(&db, &query, tuple).unwrap());
    }
    // A handful of negative checks (a dense random closure may leave few or
    // no negative pairs among the sampled ones; check whatever is there).
    let dom: Vec<Symbol> = db.domain().into_iter().collect();
    let mut checked = 0;
    for a in dom.iter().take(4) {
        for b in dom.iter().take(4) {
            if checked >= 3 {
                break;
            }
            let tuple = vec![*a, *b];
            if !truth.contains(&tuple) {
                assert!(!engine.is_certain_answer(&db, &query, &tuple).unwrap());
                checked += 1;
            }
        }
    }
}

#[test]
fn existential_scenarios_agree_between_search_and_chase() {
    let program = parse_rules("r(X, Z) :- p(X).\n p(Y) :- r(X, Y).").unwrap();
    let db = parse("p(a). p(b). q(c).").unwrap().database;
    let engine = CertainAnswerEngine::with_defaults(program.clone()).unwrap();

    let q_chain = parse_query("?(A) :- r(A, Y), r(Y, W).").unwrap();
    let from_engine = engine.all_answers(&db, &q_chain).unwrap();
    let chase = ChaseEngine::new(
        program,
        ChaseConfig::restricted(TerminationPolicy::MaxNullDepth(5)),
    );
    let from_chase = chase.certain_answers(&db, &q_chain);
    assert_eq!(from_engine, from_chase);
    assert_eq!(from_engine.len(), 2);
    for tuple in &from_engine {
        assert!(engine.is_certain_answer(&db, &q_chain, tuple).unwrap());
    }
    assert!(!engine
        .is_certain_answer(&db, &q_chain, &[Symbol::new("c")])
        .unwrap());
}

#[test]
fn owl_scenario_cross_engine_agreement() {
    let program = owl_program();
    let db = owl_database(12, 4, 30, 3);
    let engine = CertainAnswerEngine::with_defaults(program.clone()).unwrap();
    let reasoner = Reasoner::new(&program, EngineConfig::default());
    let chase = ChaseEngine::new(
        program,
        ChaseConfig::restricted(TerminationPolicy::MaxNullDepth(4)),
    );

    let query = parse_query("?(X, C) :- type(X, C).").unwrap();
    let from_reasoner = reasoner.answers(&db, &query);
    let from_chase = chase.certain_answers(&db, &query);
    assert_eq!(from_reasoner, from_chase);
    assert!(!from_reasoner.is_empty());
    // Spot-check the decision procedure on a sample of answers.
    for tuple in from_reasoner.iter().take(3) {
        assert!(engine.is_certain_answer(&db, &query, tuple).unwrap());
    }
}

#[test]
fn data_exchange_scenarios_materialise_consistently() {
    let scenario = data_exchange_scenario(2, 25, 12, 9);
    let query = parse_query("?(X, Y) :- connected(X, Y).").unwrap();
    let reasoner = Reasoner::new(&scenario.program, EngineConfig::default());
    let chase = ChaseEngine::new(
        scenario.program.clone(),
        ChaseConfig::restricted(TerminationPolicy::MaxNullDepth(4)),
    );
    let a = reasoner.answers(&scenario.database, &query);
    let b = chase.certain_answers(&scenario.database, &query);
    assert_eq!(a, b);
    assert!(!a.is_empty());
}

#[test]
fn chain_reachability_decisions_match_ground_truth() {
    let program = tc_program();
    let db: Database = chain_graph(10);
    let query = parse_query("?(X, Y) :- t(X, Y).").unwrap();
    let engine = CertainAnswerEngine::with_defaults(program).unwrap();
    // n3 reaches n8, n8 does not reach n3.
    assert!(engine
        .is_certain_answer(&db, &query, &[Symbol::new("n3"), Symbol::new("n8")])
        .unwrap());
    assert!(!engine
        .is_certain_answer(&db, &query, &[Symbol::new("n8"), Symbol::new("n3")])
        .unwrap());
}
