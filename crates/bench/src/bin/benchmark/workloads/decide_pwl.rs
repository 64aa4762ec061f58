//! `decide_pwl` — the paper's own algorithm.
//!
//! `CertainAnswerEngine::with_defaults(LINEAR_TC)` decides Boolean `reach`
//! instances over `random_graph(2000, 6000, seed)` by linear proof-tree
//! search (half positive, half negative, chosen by the BFS oracle), the
//! Thm 6.3 rewriting enumerates the constant-free CQ `link(X,Y), link(Y,Z)`
//! over the data-exchange program through `all_answers`, and the
//! alternating search decides a few instances of the non-linear closure.
//! (The rewriting of the recursive `connected` query runs into its state
//! cap on this program, so `all_answers` would silently fall back to the
//! chase; the 2-hop `link` query is the largest one it actually rewrites.)
//! None of it touches bottom-up code except the evaluation of the rewritten
//! program.
//!
//! A decision's cost falls into three bands: a negative instance whose
//! source reaches little is rejected in about 2 ms, a positive one is
//! accepted in 5–13 ms, and a *deep* negative — the source reaches most of
//! the graph, the target has a predecessor — takes 30–40 ms to exhaust.
//! Uniformly drawn pairs put about one in twenty decisions in the deep band,
//! which parks the 95th percentile on the cliff between two bands and lets
//! it jump threefold from seed to seed. The mix is therefore stratified:
//! 50% positive, 40% shallow negative, 10% deep negative, so the median
//! falls inside the positive band and the 95th percentile inside the deep
//! one, and the total work is steady across seeds.
//!
//! The decisions are queries, so on this workload `query_p50_ms` and
//! `query_p95_ms` are their latencies (median over repetitions of the
//! per-repetition percentile).

use super::{
    library_end_to_end, median_us, repetitions, seconds_of, timed_setup, write_spans, SETUP_ROUNDS,
};
use crate::oracle::{Closure, Graph};
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::stats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vadalog_bench::{program, LINEAR_TC, NONLINEAR_TC};
use vadalog_benchgen::{chain_graph, data_exchange_scenario, random_graph};
use vadalog_core::{
    linear_proof_search, rewrite_to_pwl_datalog, CertainAnswerEngine, RewriteOptions,
    SearchOptions, SearchStats,
};
use vadalog_datalog::DatalogEngine;
use vadalog_model::parser::parse_query;
use vadalog_model::{ConjunctiveQuery, Database};

/// Nodes of the graph the linear search decides reachability over.
pub const NODES: usize = 2000;
/// Edges of that graph.
pub const EDGES: usize = 6000;
/// Boolean decisions per repetition: half positive, two fifths shallow
/// negative, one tenth deep negative.
pub const DECISIONS: usize = 240;
/// Timed repetitions at the frozen eight seconds (one takes about 2.4 s).
pub const REPETITIONS: u64 = 5;
/// Unmeasured decisions before the timed region.
const WARMUP_DECISIONS: usize = 20;
/// The data-exchange scenario the rewriting runs on: width, rows, domain.
pub const DEX: (usize, usize, usize) = (3, 6000, 1200);
/// Edges of the chain the alternating search decides over. A chain, not a
/// random graph: on graphs with cycles the search runs into its expansion cap
/// already at a dozen nodes. And a short one: it recurses once per edge and
/// overflows the default 8 MB main-thread stack at 100 edges.
pub const ALTERNATING_CHAIN: usize = 40;
/// Alternating decisions per repetition, about a millisecond each: four in
/// five positive, the rest negative with the chain's head as target. (A
/// negative whose target has a predecessor is only ever rejected by
/// exhausting the default cap of 500,000 expansions — about 2 s on any
/// chain length, and inconclusive — so none is included.)
pub const ALTERNATING_DECISIONS: usize = 10;

/// One Boolean instance and the oracle's verdict on it.
struct Decision {
    query: ConjunctiveQuery,
    expected: bool,
}

struct Rig {
    database: Database,
    engine: CertainAnswerEngine,
    warmup: Vec<Decision>,
    decisions: Vec<Decision>,
    dex_database: Database,
    dex_engine: CertainAnswerEngine,
    dex_query: ConjunctiveQuery,
    dex_pairs: u64,
    alternating_database: Database,
    alternating_engine: CertainAnswerEngine,
    alternating: Vec<Decision>,
}

fn reach_query(from: &str, to: &str) -> ConjunctiveQuery {
    parse_query(&format!("? :- t({from}, {to}).")).expect("Boolean query parses")
}

/// Draws `count` instances in the stratified mix: half positive, two fifths
/// shallow negative, one tenth deep negative (the source reaches at least
/// half the graph and the target has a predecessor). The classes come from
/// the BFS closure alone.
fn draw_decisions(
    rng: &mut StdRng,
    graph: &Graph,
    closure: &Closure,
    count: usize,
) -> Vec<Decision> {
    let in_degrees = closure.in_degrees();
    let half = graph.node_count() as u64 / 2;
    let deep = count / 10;
    let positive = count / 2;
    // [shallow negative, positive, deep negative]
    let mut wanted = [count - positive - deep, positive, deep];
    let mut decisions = Vec::with_capacity(count);
    while decisions.len() < count {
        let from = rng.gen_range(0..graph.node_count());
        let to = rng.gen_range(0..graph.node_count());
        let expected = closure.reaches(from, to);
        let class = if expected {
            1
        } else if closure.out_degree(from) >= half && in_degrees[to] >= 1 {
            2
        } else {
            0
        };
        if wanted[class] == 0 {
            continue;
        }
        wanted[class] -= 1;
        decisions.push(Decision {
            query: reach_query(&graph.names[from], &graph.names[to]),
            expected,
        });
    }
    decisions
}

fn set_up(seed: u64) -> Rig {
    let database = random_graph(NODES, EDGES, seed);
    let graph = Graph::from_database(&database, &["edge"]);
    let closure = Closure::of(&graph);
    let mut rng = StdRng::seed_from_u64(seed);
    let decisions = draw_decisions(&mut rng, &graph, &closure, DECISIONS);
    let warmup = draw_decisions(&mut rng, &graph, &closure, WARMUP_DECISIONS);

    let dex = data_exchange_scenario(DEX.0, DEX.1, DEX.2, seed);
    let dex_pairs = Graph::of_data_exchange_sources(&dex.database, DEX.0).two_step_pairs();

    // A chain n0 → … → n_len: n_i reaches n_j iff i < j, and nothing
    // reaches n0.
    let alternating = (0..ALTERNATING_DECISIONS)
        .map(|i| {
            let a = rng.gen_range(1..ALTERNATING_CHAIN);
            let b = rng.gen_range(a + 1..ALTERNATING_CHAIN + 1);
            let (from, to) = if i % 5 == 4 { (b, 0) } else { (a, b) };
            Decision {
                query: reach_query(&format!("n{from}"), &format!("n{to}")),
                expected: from < to,
            }
        })
        .collect();

    let rig = Rig {
        database,
        engine: CertainAnswerEngine::with_defaults(program(LINEAR_TC))
            .expect("linear TC is warded"),
        warmup,
        decisions,
        dex_database: dex.database,
        dex_engine: CertainAnswerEngine::with_defaults(dex.program)
            .expect("the data-exchange program is warded"),
        dex_query: parse_query("?(X, Z) :- link(X, Y), link(Y, Z).").expect("link query parses"),
        dex_pairs,
        alternating_database: chain_graph(ALTERNATING_CHAIN),
        alternating_engine: CertainAnswerEngine::with_defaults(program(NONLINEAR_TC))
            .expect("non-linear TC is warded"),
        alternating,
    };
    for decision in &rig.warmup {
        std::hint::black_box(rig.engine.boolean_certain(&rig.database, &decision.query));
    }
    rig
}

fn note_sizes(outcome: &mut Outcome, rig: &Rig) {
    outcome.note(format!(
        "sizes: {} Boolean decisions (50% positive, 40% shallow, 10% deep negative) over \
         random_graph({NODES}, {EDGES}, seed); all_answers over data_exchange_scenario{DEX:?} = {} \
         2-hop link pairs; {ALTERNATING_DECISIONS} alternating decisions over \
         chain_graph({ALTERNATING_CHAIN})",
        rig.decisions.len(),
        rig.dex_pairs,
    ));
}

/// One repetition: every decision (each timed), the rewriting-backed
/// enumeration, the alternating decisions. Returns the decision latencies
/// in milliseconds, ascending.
fn repetition(outcome: &mut Outcome, rig: &Rig) -> Vec<f64> {
    let mut latencies_ms = Vec::with_capacity(rig.decisions.len());
    for decision in &rig.decisions {
        let (verdict, wall) =
            seconds_of(|| rig.engine.boolean_certain(&rig.database, &decision.query));
        latencies_ms.push(wall * 1e3);
        outcome.check(verdict == decision.expected, || {
            format!(
                "{} decided {verdict}, BFS says {}",
                decision.query, decision.expected
            )
        });
    }
    let answers = rig
        .dex_engine
        .all_answers(&rig.dex_database, &rig.dex_query);
    let count = answers.as_ref().map_or(0, |set| set.len() as u64);
    outcome.check(count == rig.dex_pairs, || {
        format!(
            "all_answers returned {count} pairs, BFS says {}",
            rig.dex_pairs
        )
    });
    for decision in &rig.alternating {
        let verdict = rig
            .alternating_engine
            .boolean_certain(&rig.alternating_database, &decision.query);
        outcome.check(verdict == decision.expected, || {
            format!("alternating: {} decided {verdict}", decision.query)
        });
    }
    stats::sort(&mut latencies_ms);
    latencies_ms
}

/// The untraced pass.
pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut outcome = Outcome::default();
    let (rig, setup_s) = timed_setup(SETUP_ROUNDS, || set_up(seed));
    note_sizes(&mut outcome, &rig);

    let (mut walls, mut p50s, mut p95s) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..repetitions(seconds, REPETITIONS) {
        let (latencies_ms, wall) = seconds_of(|| repetition(&mut outcome, &rig));
        walls.push(wall);
        p50s.push(stats::percentile(&latencies_ms, 0.50));
        p95s.push(stats::percentile(&latencies_ms, 0.95));
    }
    let calls = (rig.decisions.len() + 1 + rig.alternating.len()) as u64;
    library_end_to_end(&mut outcome, setup_s, &walls, calls);
    outcome.set("query_p50_ms", stats::median(&p50s));
    outcome.set("query_p95_ms", stats::median(&p95s));
    outcome.note(format!(
        "query_p50_ms / query_p95_ms: median over {} repetitions of the percentile over {} \
         decisions ({} beyond p95)",
        walls.len(),
        rig.decisions.len(),
        stats::samples_beyond(rig.decisions.len(), 0.95)
    ));
    outcome
}

/// One pass over the decisions through `linear_proof_search` itself (what
/// `boolean_certain` calls for a warded, piece-wise linear program), so the
/// search statistics are visible. Returns the wall time and the summed /
/// maximal statistics.
fn search_pass(outcome: &mut Outcome, recorder: &mut Recorder, rig: &Rig) -> (f64, SearchStats) {
    let normalized = rig.engine.normalized_program();
    let mut totals = SearchStats::default();
    let (_, wall) = seconds_of(|| {
        for decision in &rig.decisions {
            recorder.next_op();
            let search = recorder.span("core.search.decide", |_| {
                linear_proof_search(
                    normalized,
                    &rig.database,
                    &decision.query,
                    SearchOptions::default(),
                )
            });
            let stats = search.stats();
            totals.states_visited += stats.states_visited;
            totals.max_state_size = totals.max_state_size.max(stats.max_state_size);
            totals.node_width_bound = totals.node_width_bound.max(stats.node_width_bound);
            outcome.check(search.is_accepted() == decision.expected, || {
                format!("{} searched to {:?}", decision.query, search.is_accepted())
            });
            // Theorem 4.8: the proof never needs a wider node than the bound.
            outcome.check(stats.max_state_size <= stats.node_width_bound, || {
                format!(
                    "{}: state of {} atoms exceeds the node-width bound {}",
                    decision.query, stats.max_state_size, stats.node_width_bound
                )
            });
        }
    });
    (wall, totals)
}

/// The traced pass.
pub fn trace(seed: u64, seconds: u64) -> Outcome {
    let mut outcome = Outcome::default();
    let rig = set_up(seed);
    note_sizes(&mut outcome, &rig);
    let mut recorder = Recorder::new(true);

    let mut walls = [Vec::new(), Vec::new()];
    let mut totals = SearchStats::default();
    for _ in 0..repetitions(seconds, REPETITIONS).min(3) {
        let (plain, _) = search_pass(&mut outcome, &mut Recorder::new(false), &rig);
        walls[0].push(plain);
        let (traced, stats) = search_pass(&mut outcome, &mut recorder, &rig);
        walls[1].push(traced);
        totals = stats;
    }
    super::set_overhead_ratio(&mut outcome, &walls[1], &walls[0]);
    outcome.set(
        "core.search.decide_us",
        median_us(&recorder, "core.search.decide"),
    );
    outcome.set("core.search.states_visited", totals.states_visited as f64);
    outcome.set("core.search.max_state_size", totals.max_state_size as f64);
    outcome.set(
        "core.search.node_width_bound",
        totals.node_width_bound as f64,
    );

    recorder.next_op();
    let rewritten = recorder.span("core.rewrite.rewrite", |_| {
        rewrite_to_pwl_datalog(
            rig.dex_engine.normalized_program(),
            &rig.dex_query,
            RewriteOptions::default(),
        )
    });
    match rewritten {
        Ok(Some(rewritten)) => {
            outcome.set("core.rewrite.rules_out", rewritten.program.len() as f64);
            let answers = recorder.span("core.rewrite.evaluate", |_| {
                DatalogEngine::new(rewritten.program.clone())
                    .map(|engine| engine.answers(&rig.dex_database, &rewritten.query))
            });
            let count = answers.map_or(0, |set| set.len() as u64);
            outcome.check(count == rig.dex_pairs, || {
                format!(
                    "rewritten program returned {count} pairs, BFS says {}",
                    rig.dex_pairs
                )
            });
        }
        other => outcome.check(false, || format!("the rewriting did not apply: {other:?}")),
    }
    outcome.set(
        "core.rewrite.rewrite_ms",
        median_us(&recorder, "core.rewrite.rewrite") / 1e3,
    );
    outcome.set(
        "core.rewrite.evaluate_s",
        median_us(&recorder, "core.rewrite.evaluate") / 1e6,
    );

    for decision in &rig.alternating {
        recorder.next_op();
        let verdict = recorder.span("core.alternating.decide", |_| {
            rig.alternating_engine
                .boolean_certain(&rig.alternating_database, &decision.query)
        });
        outcome.check(verdict == decision.expected, || {
            format!("alternating: {} decided {verdict}", decision.query)
        });
    }
    outcome.set(
        "core.alternating.decide_us",
        median_us(&recorder, "core.alternating.decide"),
    );
    write_spans(&mut outcome, "decide_pwl", &recorder);
    outcome
}
