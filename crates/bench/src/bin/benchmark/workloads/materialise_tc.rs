//! `materialise_tc` — full materialisation of linear transitive closure.
//!
//! `DatalogEngine::new(LINEAR_TC)?.evaluate(&random_graph(1500, 6000, seed))`
//! derives about 2.1 M tuples in about a second: the recursive, insert- and
//! dedup-heavy use of the join kernel and the columnar store, at each
//! engine's default thread count.

use super::{
    library_end_to_end, median_us, repetitions, seconds_of, timed_setup, write_spans, SETUP_ROUNDS,
};
use crate::oracle::{Closure, Graph};
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::stats;
use vadalog_analysis::stratify::stratify;
use vadalog_bench::{program, LINEAR_TC};
use vadalog_benchgen::random_graph;
use vadalog_datalog::{DatalogEngine, DatalogResult};
use vadalog_model::Database;

/// Nodes of the random graph.
pub const NODES: usize = 1500;
/// Edges of the random graph.
pub const EDGES: usize = 6000;
/// Timed evaluations at the frozen eight seconds.
pub const REPETITIONS: u64 = 12;

struct Rig {
    database: Database,
    engine: DatalogEngine,
    /// The warm-up evaluation's result, kept for the oracle check.
    warm: DatalogResult,
}

/// Generates the graph, builds the engine and evaluates once to warm up.
fn set_up(seed: u64) -> Rig {
    let database = random_graph(NODES, EDGES, seed);
    let engine = DatalogEngine::new(program(LINEAR_TC)).expect("linear TC stratifies");
    let warm = engine.evaluate(&database);
    Rig {
        database,
        engine,
        warm,
    }
}

/// Checks the warm-up materialisation row by row against the BFS closure
/// and returns the closure's pair count, which every later repetition's
/// `derived_atoms` must equal.
fn check_against_closure(outcome: &mut Outcome, rig: &Rig) -> u64 {
    let graph = Graph::from_database(&rig.database, &["edge"]);
    let closure = Closure::of(&graph);
    let checked = closure.check_relation(&graph, &rig.warm.instance, "t");
    outcome.check(checked.is_ok(), || {
        format!("materialise_tc: {}", checked.clone().unwrap_err())
    });
    outcome.note(format!(
        "sizes: random_graph({NODES}, {EDGES}, seed) -> {} edges, closure of {} pairs \
         (BFS oracle), {} threads",
        rig.database.len(),
        closure.pairs(),
        rig.engine.threads()
    ));
    closure.pairs()
}

/// One checked evaluation; returns its wall time in seconds.
fn evaluate_checked(outcome: &mut Outcome, engine: &DatalogEngine, rig: &Rig, pairs: u64) -> f64 {
    let (result, wall) = seconds_of(|| engine.evaluate(&rig.database));
    let derived = std::hint::black_box(&result).stats.derived_atoms as u64;
    outcome.check(derived == pairs, || {
        format!("materialise_tc derived {derived} tuples, the closure has {pairs}")
    });
    wall
}

/// The untraced pass.
pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut outcome = Outcome::default();
    let (rig, setup_s) = timed_setup(SETUP_ROUNDS, || set_up(seed));
    let pairs = check_against_closure(&mut outcome, &rig);
    let walls: Vec<f64> = (0..repetitions(seconds, REPETITIONS))
        .map(|_| evaluate_checked(&mut outcome, &rig.engine, &rig, pairs))
        .collect();
    library_end_to_end(&mut outcome, setup_s, &walls, 1);
    outcome
}

/// The traced pass: the same evaluations inside `datalog.evaluate` spans,
/// the 2-thread variant, the store and analysis micro-measurements, and the
/// two overhead ratios.
pub fn trace(seed: u64, seconds: u64) -> Outcome {
    let mut outcome = Outcome::default();
    let rig = set_up(seed);
    let pairs = check_against_closure(&mut outcome, &rig);
    let reps = repetitions(seconds, REPETITIONS).min(3);

    // The recorder's own cost: identical repetitions, recorder off then on.
    let mut walls = [Vec::new(), Vec::new()];
    let mut recorder = Recorder::new(true);
    for _ in 0..reps {
        for (slot, enabled) in [false, true].into_iter().enumerate() {
            let mut off = Recorder::new(false);
            let target = if enabled { &mut recorder } else { &mut off };
            target.next_op();
            let wall = target.span("datalog.evaluate", |_| {
                evaluate_checked(&mut outcome, &rig.engine, &rig, pairs)
            });
            walls[slot].push(wall);
        }
    }
    super::set_overhead_ratio(&mut outcome, &walls[1], &walls[0]);
    outcome.set(
        "datalog.evaluate_s",
        median_us(&recorder, "datalog.evaluate") / 1e6,
    );

    let two_threads = DatalogEngine::new(program(LINEAR_TC))
        .expect("linear TC stratifies")
        .with_threads(2);
    for _ in 0..reps {
        recorder.next_op();
        recorder.span("datalog.evaluate_t2", |_| {
            evaluate_checked(&mut outcome, &two_threads, &rig, pairs)
        });
    }
    outcome.set(
        "datalog.evaluate_t2_s",
        median_us(&recorder, "datalog.evaluate_t2") / 1e6,
    );

    let stats = &rig.warm.stats;
    outcome.set("datalog.derived_atoms", stats.derived_atoms as f64);
    outcome.set("datalog.join_probes", stats.join_probes as f64);
    outcome.set("datalog.rounds", stats.iterations as f64);
    outcome.set("datalog.rows_prededuped", stats.rows_prededuped as f64);
    outcome.set("datalog.peak_atoms", stats.peak_atoms as f64);
    outcome.set(
        "model.store.index_bytes",
        rig.warm.instance.index_bytes() as f64,
    );
    outcome.set(
        "model.store.insert_rows_per_s",
        super::insert_rows_per_s(&rig.database),
    );

    let tc = program(LINEAR_TC);
    for _ in 0..50 {
        recorder.next_op();
        recorder.span("analysis.analyze", |_| vadalog_analysis::analyze(&tc));
        recorder.span("analysis.stratify", |_| stratify(&tc));
    }
    outcome.set(
        "analysis.analyze_us",
        median_us(&recorder, "analysis.analyze"),
    );
    outcome.set(
        "analysis.stratify_us",
        median_us(&recorder, "analysis.stratify"),
    );

    match obs_overhead_in_child(seed) {
        Ok(ratio) => outcome.set("obs.enabled_overhead_ratio", ratio),
        Err(error) => outcome.check(false, || format!("obs overhead child: {error}")),
    }
    write_spans(&mut outcome, "materialise_tc", &recorder);
    outcome
}

/// Runs [`obs_overhead`] in a child process of this executable, so that
/// flipping the process-global `vadalog_obs` switch cannot leak into any
/// other measurement, and returns the ratio it prints.
fn obs_overhead_in_child(seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args(["obs-overhead", "--seed", &seed.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("exited with {}", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .and_then(|line| line.trim().parse().ok())
        .ok_or_else(|| "printed no ratio".to_string())
}

/// `materialise_tc` with `vadalog_obs` enabled over disabled: alternating
/// evaluations, median of each side. The only place the benchmark touches
/// the production tracing switch; always runs in its own process.
pub fn obs_overhead(seed: u64) -> f64 {
    const PAIRS: usize = 3;
    let rig = set_up(seed);
    let mut walls = [Vec::new(), Vec::new()];
    for pair in 0..PAIRS {
        // Position within a pair is not neutral, so the order alternates.
        let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
        for slot in order {
            vadalog_obs::set_enabled(slot == 1);
            let (result, wall) = seconds_of(|| rig.engine.evaluate(&rig.database));
            vadalog_obs::set_enabled(false);
            vadalog_obs::drain();
            assert_eq!(
                result.stats, rig.warm.stats,
                "tracing must not change a counter"
            );
            walls[slot].push(wall);
        }
    }
    stats::median(&walls[1]) / stats::median(&walls[0])
}
