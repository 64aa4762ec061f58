//! `answer_cq` — read-only multiway joins over frozen instances.
//!
//! One repetition counts the 3-hop path pattern `t(X,Y), t(Y,Z), t(Z,W)`
//! through `Matcher::for_each` over a materialised closure, enumerates the
//! 2-key foreign-key chain of `fk_join_scenario` the same way, and answers
//! the 2-hop and foreign-key patterns through `ConjunctiveQuery::evaluate`.
//! The same kernel as `materialise_tc`, used to probe and enumerate: no
//! inserts, composite-key indexes and fingerprint filters exercised.
//!
//! The closure's graph is dense (8 edges per node) on purpose: nearly every
//! node sits in the one strongly connected component, so the number of
//! 3-hop matches — about `nodes⁴` — barely moves from seed to seed.

use super::{
    library_end_to_end, median_us, repetitions, seconds_of, timed_setup, write_spans, SETUP_ROUNDS,
};
use crate::oracle::{Closure, Graph};
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::stats;
use std::ops::ControlFlow;
use vadalog_bench::{program, LINEAR_TC};
use vadalog_benchgen::{fk_join_scenario, random_graph, FkJoinScenario};
use vadalog_datalog::DatalogEngine;
use vadalog_model::parallel::sharded_match_count;
use vadalog_model::parser::parse_query;
use vadalog_model::{
    Atom, ConjunctiveQuery, Instance, JoinSpec, JoinStats, Matcher, Term, Variable,
};

/// Nodes of the graph whose closure the path patterns run over.
pub const NODES: usize = 88;
/// Edges of that graph.
pub const EDGES: usize = 704;
/// Key groups of the foreign-key scenario.
pub const FK_GROUPS: usize = 40;
/// Source rows of the foreign-key scenario.
pub const FK_ROWS: usize = 60_000;
/// Foreign-key chain enumerations per repetition.
pub const FK_PASSES: usize = 20;
/// Timed repetitions at the frozen eight seconds.
pub const REPETITIONS: u64 = 12;

/// Library calls one repetition makes: the 3-hop count, the foreign-key
/// passes and the two `evaluate` calls.
const CALLS: u64 = 1 + FK_PASSES as u64 + 2;

struct Rig {
    closure: Instance,
    fk: FkJoinScenario,
    three_hop: JoinSpec,
    fk_chain: JoinSpec,
    two_hop_query: ConjunctiveQuery,
    fk_query: ConjunctiveQuery,
    expected: Expected,
}

/// What the oracles say each part of a repetition must return.
struct Expected {
    three_hop_matches: u64,
    two_hop_pairs: u64,
    fk_answers: u64,
}

/// The kernel counters of one repetition's `for_each` calls.
#[derive(Default)]
struct Counters {
    three_hop: JoinStats,
    fk: JoinStats,
}

/// `t(X,Y), t(Y,Z), t(Z,W)`.
fn three_hop_pattern() -> [Atom; 3] {
    let v = Term::variable;
    [
        Atom::new("t", vec![v("X"), v("Y")]),
        Atom::new("t", vec![v("Y"), v("Z")]),
        Atom::new("t", vec![v("Z"), v("W")]),
    ]
}

fn set_up(seed: u64) -> Rig {
    let database = random_graph(NODES, EDGES, seed);
    let closure = DatalogEngine::new(program(LINEAR_TC))
        .expect("linear TC stratifies")
        .evaluate(&database)
        .instance;
    let graph = Graph::from_database(&database, &["edge"]);
    let oracle = Closure::of(&graph);
    let fk = fk_join_scenario(FK_GROUPS, FK_ROWS, seed);
    let three_hop = JoinSpec::compile(&three_hop_pattern());
    let fk_chain = JoinSpec::compile(&fk.pattern);
    let fk_query = ConjunctiveQuery::new(
        vec![Variable::new("V"), Variable::new("W")],
        fk.pattern.clone(),
    )
    .expect("V and W occur in the chain");
    let expected = Expected {
        three_hop_matches: oracle.three_hop_matches(),
        two_hop_pairs: oracle.two_hop_pairs(),
        fk_answers: fk.expected_answers as u64,
    };
    let rig = Rig {
        closure,
        fk,
        three_hop,
        fk_chain,
        two_hop_query: parse_query("?(X, Z) :- t(X, Y), t(Y, Z).").expect("2-hop query parses"),
        fk_query,
        expected,
    };
    // Warm-up: one unchecked repetition.
    repetition(&mut Outcome::default(), &mut Recorder::new(false), &rig);
    rig
}

/// Counts a compiled pattern's matches through the planned kernel.
fn count_matches(spec: &JoinSpec, target: &Instance) -> JoinStats {
    let plan = spec.plan(target, &[]);
    let mut matcher = Matcher::new(spec);
    matcher.set_plan(Some(&plan));
    matcher.for_each(target, |_| ControlFlow::Continue(()))
}

/// One checked repetition, each library call in its own span.
fn repetition(outcome: &mut Outcome, recorder: &mut Recorder, rig: &Rig) -> Counters {
    let expected = &rig.expected;
    let fk_instance = rig.fk.database.as_instance();
    let mut counters = Counters::default();
    recorder.next_op();

    counters.three_hop = recorder.span("model.join.for_each.three_hop", |_| {
        count_matches(&rig.three_hop, &rig.closure)
    });
    outcome.check(
        counters.three_hop.matches == expected.three_hop_matches,
        || {
            format!(
                "3-hop pattern matched {} times, the degree oracle says {}",
                counters.three_hop.matches, expected.three_hop_matches
            )
        },
    );

    for _ in 0..FK_PASSES {
        counters.fk = recorder.span("model.join.for_each.fk_chain", |_| {
            count_matches(&rig.fk_chain, fk_instance)
        });
        outcome.check(counters.fk.matches == expected.fk_answers, || {
            format!(
                "FK chain matched {} times, the generator expects {}",
                counters.fk.matches, expected.fk_answers
            )
        });
    }

    let two_hop = recorder.span("model.query.evaluate.two_hop", |_| {
        rig.two_hop_query.evaluate(&rig.closure).len() as u64
    });
    outcome.check(two_hop == expected.two_hop_pairs, || {
        format!(
            "2-hop query returned {two_hop} pairs, the closure oracle says {}",
            expected.two_hop_pairs
        )
    });
    let fk_answers = recorder.span("model.query.evaluate.fk_chain", |_| {
        rig.fk_query.evaluate(fk_instance).len() as u64
    });
    outcome.check(fk_answers == expected.fk_answers, || {
        format!(
            "FK query returned {fk_answers} answers, the generator expects {}",
            expected.fk_answers
        )
    });
    counters
}

fn note_sizes(outcome: &mut Outcome, rig: &Rig) {
    outcome.note(format!(
        "sizes: closure of random_graph({NODES}, {EDGES}, seed) = {} atoms, {} 3-hop matches; \
         fk_join_scenario({FK_GROUPS}, {FK_ROWS}, seed) = {} atoms, {} answers x {FK_PASSES} passes",
        rig.closure.len(),
        rig.expected.three_hop_matches,
        rig.fk.database.len(),
        rig.expected.fk_answers,
    ));
}

/// The untraced pass.
pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut outcome = Outcome::default();
    let (rig, setup_s) = timed_setup(SETUP_ROUNDS, || set_up(seed));
    note_sizes(&mut outcome, &rig);
    let mut off = Recorder::new(false);
    let walls: Vec<f64> = (0..repetitions(seconds, REPETITIONS))
        .map(|_| seconds_of(|| repetition(&mut outcome, &mut off, &rig)).1)
        .collect();
    library_end_to_end(&mut outcome, setup_s, &walls, CALLS);
    outcome
}

/// The traced pass.
pub fn trace(seed: u64, seconds: u64) -> Outcome {
    let mut outcome = Outcome::default();
    let rig = set_up(seed);
    note_sizes(&mut outcome, &rig);
    let reps = repetitions(seconds, REPETITIONS).min(3);
    let mut recorder = Recorder::new(true);
    let mut walls = [Vec::new(), Vec::new()];
    let mut counters = Counters::default();
    for _ in 0..reps {
        let mut off = Recorder::new(false);
        walls[0].push(seconds_of(|| repetition(&mut outcome, &mut off, &rig)).1);
        let (last, wall) = seconds_of(|| repetition(&mut outcome, &mut recorder, &rig));
        walls[1].push(wall);
        counters = last;
    }
    super::set_overhead_ratio(&mut outcome, &walls[1], &walls[0]);

    // Planning alone: compile the 3-hop pattern and plan it over the closure.
    let pattern = three_hop_pattern();
    for _ in 0..200 {
        recorder.next_op();
        recorder.span("model.join.plan", |_| {
            JoinSpec::compile(&pattern).plan(&rig.closure, &[])
        });
    }
    outcome.set(
        "model.join.plan_us",
        median_us(&recorder, "model.join.plan"),
    );

    let three_hop_us = median_us(&recorder, "model.join.for_each.three_hop");
    outcome.set(
        "model.join.ns_per_answer",
        three_hop_us * 1e3 / rig.expected.three_hop_matches as f64,
    );
    outcome.set(
        "model.join.probes",
        (counters.three_hop.probes + counters.fk.probes) as f64,
    );
    outcome.set(
        "model.join.composite_probes",
        (counters.three_hop.composite_probes + counters.fk.composite_probes) as f64,
    );
    outcome.set(
        "model.join.probe_misses_filtered",
        (counters.three_hop.misses_filtered + counters.fk.misses_filtered) as f64,
    );
    outcome.set(
        "model.query.evaluate_us",
        median_us(&recorder, "model.query.evaluate.two_hop"),
    );
    outcome.set(
        "model.store.index_bytes",
        (rig.closure.index_bytes() + rig.fk.database.as_instance().index_bytes()) as f64,
    );

    // The sharded kernel on the same 3-hop count: 2 threads over 1.
    let mut sharded = [Vec::new(), Vec::new()];
    for _ in 0..reps {
        for (slot, threads) in [1, 2].into_iter().enumerate() {
            recorder.next_op();
            let (stats, wall) = seconds_of(|| {
                recorder.span("model.parallel.sharded_match_count", |_| {
                    sharded_match_count(&rig.three_hop, &rig.closure, threads)
                })
            });
            outcome.check(stats.matches == rig.expected.three_hop_matches, || {
                format!(
                    "sharded 3-hop count at {threads} threads: {}",
                    stats.matches
                )
            });
            sharded[slot].push(wall);
        }
    }
    outcome.set(
        "model.parallel.match_speedup_t2",
        stats::median(&sharded[0]) / stats::median(&sharded[1]),
    );
    write_spans(&mut outcome, "answer_cq", &recorder);
    outcome
}
