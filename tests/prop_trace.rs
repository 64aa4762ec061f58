//! Property-based bit-identity tests for the tracing subsystem: enabling
//! `vadalog_obs` spans must never change what the engines compute. On
//! randomized programs, databases and bound queries, every answer set and
//! every `DatalogStats` counter must be byte-for-byte identical with
//! tracing off and tracing on, across 1/2/4/8 evaluation worker threads —
//! the instrumentation is purely observational, never load-bearing.
//!
//! This lives in its own integration binary on purpose: the obs switches
//! (`set_enabled`, the manual clock) are process-global, so sharing a
//! binary with other tests would race them — and the tests in this binary
//! hold [`OBS_SWITCHES`] for the same reason, since libtest runs them on
//! parallel threads.
//!
//! The build environment is offline, so instead of `proptest` these use
//! the in-tree seeded PRNG over a fixed number of deterministic cases.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};
use vadalog::datalog::{DatalogEngine, DatalogStats, DemandEngine, DemandError, IncrementalEngine};
use vadalog::model::parser::{parse_query, parse_rules};
use vadalog::model::{Atom, ConjunctiveQuery, Database, Program, QueryBudget, Symbol};
use vadalog::obs;

/// Serialises the tests of this binary: each toggles the process-global
/// tracing switch and asserts on what was (not) recorded meanwhile.
static OBS_SWITCHES: Mutex<()> = Mutex::new(());

/// Poison-tolerant: one test failing must not fail the other by poisoning.
fn obs_switches() -> MutexGuard<'static, ()> {
    OBS_SWITCHES.lock().unwrap_or_else(|p| p.into_inner())
}

fn arb_database(rng: &mut StdRng) -> Database {
    let n_edges = rng.gen_range(2..16usize);
    let mut db = Database::new();
    for _ in 0..n_edges {
        let a = rng.gen_range(0..8u32);
        let b = rng.gen_range(0..8u32);
        if a != b {
            db.insert(Atom::fact(
                "edge",
                &[format!("n{a}").as_str(), format!("n{b}").as_str()],
            ))
            .unwrap();
        }
    }
    db
}

/// A random plain-Datalog program over binary predicates `p0..p3` seeded
/// from `edge`, in the same family the cross-engine and magic property
/// suites draw from — recursion (including mutual recursion) arises
/// freely.
fn arb_program(rng: &mut StdRng) -> Program {
    let mut src = String::from("p0(X, Y) :- edge(X, Y).\n");
    for _ in 0..rng.gen_range(2..6usize) {
        let head = rng.gen_range(0..4u32);
        match rng.gen_range(0..3u32) {
            0 => {
                let a = rng.gen_range(0..4u32);
                src.push_str(&format!("p{head}(X, Y) :- p{a}(X, Y).\n"));
            }
            1 => {
                let a = rng.gen_range(0..4u32);
                let b = rng.gen_range(0..4u32);
                src.push_str(&format!("p{head}(X, Z) :- p{a}(X, Y), p{b}(Y, Z).\n"));
            }
            _ => {
                let a = rng.gen_range(0..4u32);
                src.push_str(&format!("p{head}(X, Z) :- edge(X, Y), p{a}(Y, Z).\n"));
            }
        }
    }
    parse_rules(&src).expect("generated program parses")
}

fn arb_bound_query(rng: &mut StdRng) -> ConjunctiveQuery {
    let p = rng.gen_range(0..4u32);
    let a = rng.gen_range(0..8u32);
    let source = match rng.gen_range(0..2u32) {
        0 => format!("?(Y) :- p{p}(n{a}, Y)."),
        _ => format!("?(X) :- p{p}(X, n{a})."),
    };
    parse_query(&source).expect("generated query parses")
}

/// One demand-path observation: (answers, demanded_tuples, scratch_atoms,
/// fixpoint counters from the profiled run).
type DemandObserved = (BTreeSet<Vec<Symbol>>, u64, usize, DatalogStats);

/// Everything one engine configuration computed, down to the last counter.
/// Two runs are "bit-identical" iff these compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Observed {
    /// Full materialisation: every engine counter.
    full_stats: DatalogStats,
    /// Full materialisation: the per-relation row sets.
    full_layout: Vec<(String, Vec<String>)>,
    /// Full materialisation: per-query answer sets (ground truth).
    full_answers: Vec<BTreeSet<Vec<Symbol>>>,
    /// Demand path per query: `None` on a (stable) magic fallback.
    demand: Vec<Option<DemandObserved>>,
    /// Incremental path: the full-batch ingest outcome counters and the
    /// engine stats afterwards.
    ingest: (usize, usize, usize, usize, usize),
    incremental_stats: DatalogStats,
}

/// Runs every engine (full, demand, incremental) over one generated case
/// at the given thread count, collecting all observable outputs.
fn observe(
    program: &Program,
    db: &Database,
    queries: &[ConjunctiveQuery],
    threads: usize,
) -> Observed {
    let budget = QueryBudget::unlimited();
    let full = DatalogEngine::new(program.clone())
        .unwrap()
        .with_threads(threads)
        .evaluate(db);
    let full_answers: Vec<_> = queries.iter().map(|q| q.evaluate(&full.instance)).collect();

    let demand_engine = DemandEngine::new(program.clone()).with_threads(threads);
    let demand: Vec<_> = queries
        .iter()
        .map(|query| {
            match demand_engine.answer_profiled(db.as_instance(), query, &budget) {
                Ok((answer, profile)) => Some((
                    answer.answers,
                    answer.demanded_tuples,
                    answer.scratch_atoms,
                    // Wall-clock micros in the profile legitimately vary
                    // between runs; the *counters* may not.
                    profile.stats,
                )),
                Err(DemandError::Fallback(_)) => None,
                Err(other) => panic!("unexpected demand error {other}"),
            }
        })
        .collect();

    let mut incremental = IncrementalEngine::new(program.clone())
        .unwrap()
        .with_threads(threads);
    let facts: Vec<Atom> = db.iter().collect();
    let outcome = incremental
        .ingest(&facts)
        .expect("ingest the generated EDB");

    Observed {
        full_stats: full.stats,
        full_layout: full.instance.sorted_row_layout(),
        full_answers,
        demand,
        ingest: (
            outcome.facts_inserted,
            outcome.facts_duplicate,
            outcome.derived_atoms,
            outcome.strata_skipped,
            outcome.rounds,
        ),
        incremental_stats: *incremental.stats(),
    }
}

/// The tentpole property: answers and every engine counter are
/// bit-identical with tracing disabled and enabled, across 1/2/4/8
/// threads — and tracing state is what actually varies (disabled runs
/// record nothing, enabled runs record spans).
#[test]
fn tracing_never_changes_answers_or_counters() {
    let _serial = obs_switches();
    // Deterministic timestamps; irrelevant to the compared outputs but it
    // keeps the traced runs themselves reproducible.
    obs::use_manual_clock();
    let mut rng = StdRng::seed_from_u64(61);
    for case in 0..8 {
        let db = arb_database(&mut rng);
        let program = arb_program(&mut rng);
        if db.is_empty() {
            continue;
        }
        let queries: Vec<ConjunctiveQuery> = (0..4).map(|_| arb_bound_query(&mut rng)).collect();

        obs::set_enabled(false);
        obs::drain();
        let reference = observe(&program, &db, &queries, 1);
        assert!(
            obs::drain().is_empty(),
            "case {case}: disabled tracing must record nothing"
        );

        for tracing in [false, true] {
            obs::set_enabled(tracing);
            for threads in [1usize, 2, 4, 8] {
                let run = observe(&program, &db, &queries, threads);
                assert_eq!(
                    run, reference,
                    "case {case}: tracing={tracing} threads={threads} diverged"
                );
                let records = obs::drain();
                assert_eq!(
                    !records.is_empty(),
                    tracing,
                    "case {case}: span recording must track the switch"
                );
                if tracing {
                    assert!(
                        records.iter().any(|r| r.kind == "datalog.round"),
                        "case {case}: fixpoint rounds must be instrumented"
                    );
                }
            }
        }
        obs::set_enabled(false);
    }
}

/// An ingest runs the same traced loop as a batch evaluation: one
/// `datalog.stratum` span per stratum that ran a round, one `datalog.round`
/// span per counted round, nested in that order — and recording them changes
/// neither the row layout nor any counter.
#[test]
fn ingest_emits_the_stratum_and_round_spans_it_counts() {
    let _serial = obs_switches();
    let program = parse_rules(
        "t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).\n\
         s(X, Y) :- link(X, Y).\n\
         both(X, Y) :- t(X, Y), s(X, Y).",
    )
    .unwrap();
    let batches = [
        vec![
            Atom::fact("edge", &["a", "b"]),
            Atom::fact("link", &["a", "c"]),
        ],
        vec![Atom::fact("edge", &["b", "c"])],
    ];
    let run = |tracing: bool| {
        obs::set_enabled(tracing);
        obs::drain();
        let mut live = IncrementalEngine::new(program.clone()).unwrap();
        let mut spans = Vec::new();
        for batch in &batches {
            let outcome = live.ingest(batch).unwrap();
            assert!(outcome.derived_atoms > 0);
            spans.push((outcome, obs::drain()));
        }
        obs::set_enabled(false);
        (live.instance().row_layout(), *live.stats(), spans)
    };
    let (layout_off, stats_off, spans_off) = run(false);
    let (layout_on, stats_on, spans_on) = run(true);
    assert_eq!(layout_on, layout_off);
    assert_eq!(stats_on, stats_off);
    assert!(spans_off.iter().all(|(_, records)| records.is_empty()));
    for (outcome, records) in &spans_on {
        let of_kind = |kind: &str| {
            records
                .iter()
                .filter(|r| r.kind == kind)
                .collect::<Vec<_>>()
        };
        let strata = of_kind("datalog.stratum");
        let rounds = of_kind("datalog.round");
        assert_eq!(strata.len(), outcome.strata_evaluated);
        assert_eq!(rounds.len(), outcome.rounds);
        for round in rounds {
            assert!(strata.iter().any(|s| s.span_id == round.parent));
        }
    }
    // The second batch cannot reach `s`: that stratum is skipped, unspanned.
    assert_eq!(spans_on[1].0.strata_skipped, 1);
}

/// The demand path's magic-vs-fallback decision is itself stable under
/// tracing: a query that falls back with tracing off falls back with
/// tracing on (the service surfaces the reason through EXPLAIN, so a
/// flapping decision would make EXPLAIN lie).
#[test]
fn magic_fallbacks_are_stable_under_tracing() {
    let _serial = obs_switches();
    let mut rng = StdRng::seed_from_u64(62);
    let budget = QueryBudget::unlimited();
    for _ in 0..6 {
        let db = arb_database(&mut rng);
        let program = arb_program(&mut rng);
        let demand = DemandEngine::new(program.clone());
        for _ in 0..4 {
            let query = arb_bound_query(&mut rng);
            obs::set_enabled(false);
            let off = demand.answer(db.as_instance(), &query, &budget);
            obs::set_enabled(true);
            let on = demand.answer(db.as_instance(), &query, &budget);
            obs::set_enabled(false);
            match (off, on) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.answers, b.answers, "query `{query}`");
                    assert_eq!(a.demanded_tuples, b.demanded_tuples, "query `{query}`");
                }
                (Err(DemandError::Fallback(a)), Err(DemandError::Fallback(b))) => {
                    assert_eq!(a.to_string(), b.to_string(), "query `{query}`");
                }
                (off, on) => panic!("query `{query}`: decision flapped: {off:?} vs {on:?}"),
            }
        }
    }
    obs::drain();
}
