//! The six workloads. Each has an untraced pass that yields the end-to-end
//! metrics and a traced pass that replays the same inputs with the span
//! recorder around every call into a layer and yields that workload's
//! per-layer metrics.

use crate::report::{self, Outcome};
use crate::spans::Recorder;
use crate::stats;
use std::time::Instant;
use vadalog_model::Database;

pub mod answer_cq;
pub mod chase_warded;
pub mod decide_pwl;
pub mod materialise_tc;
pub mod serve;

/// Set-up is performed this many times per run and the median reported, so
/// one slow page-in or scheduler hiccup does not decide `setup_s`.
pub const SETUP_ROUNDS: usize = 3;

/// One pass of a workload: `(seed, seconds)` in, metrics out.
pub type Pass = fn(u64, u64) -> Outcome;

/// The untraced and the traced pass of the named workload.
pub fn passes(workload: &str) -> (Pass, Pass) {
    match workload {
        "serve_read" => (serve::run_read, serve::trace_read),
        "serve_mixed" => (serve::run_mixed, serve::trace_mixed),
        "materialise_tc" => (materialise_tc::run, materialise_tc::trace),
        "answer_cq" => (answer_cq::run, answer_cq::trace),
        "chase_warded" => (chase_warded::run, chase_warded::trace),
        "decide_pwl" => (decide_pwl::run, decide_pwl::trace),
        other => unreachable!("{other} was checked against spec::WORKLOADS"),
    }
}

/// Timed repetitions of a library workload for a `seconds` budget, given
/// how many it makes at the frozen eight seconds; never fewer than three.
/// Repetitions are many and short rather than few and long because this
/// box's speed drifts for seconds at a time: the median of a dozen
/// repetitions spread over ten seconds sits outside a slow stretch that
/// would swallow five consecutive ones.
pub fn repetitions(seconds: u64, at_eight_seconds: u64) -> usize {
    ((seconds * at_eight_seconds).div_ceil(8) as usize).max(3)
}

/// Calls `set_up` `rounds` times ([`SETUP_ROUNDS`] in the untraced pass, once
/// in the traced one), keeps the last result and returns it with the median
/// set-up time in seconds. The previous round's result is dropped — servers
/// shut down, memory freed — before the next round's clock starts.
pub fn timed_setup<T>(rounds: usize, mut set_up: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(rounds);
    let mut kept = None;
    for _ in 0..rounds {
        drop(kept.take());
        let start = Instant::now();
        kept = Some(set_up());
        times.push(start.elapsed().as_secs_f64());
    }
    (
        kept.expect("at least one set-up round"),
        stats::median(&times),
    )
}

/// Seconds `f` takes.
pub fn seconds_of<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

/// Times `Database::insert` of the generated facts into a fresh database,
/// in rows per second (median of several rounds; the facts are cloned
/// outside the clock).
pub fn insert_rows_per_s(database: &Database) -> f64 {
    const ROUNDS: usize = 9;
    let rates: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let facts: Vec<_> = database.iter().collect();
            let rows = facts.len() as f64;
            let (fresh, wall) = seconds_of(|| {
                let mut fresh = Database::new();
                for fact in facts {
                    fresh.insert(fact).expect("generated facts are ground");
                }
                fresh
            });
            std::hint::black_box(fresh);
            rows / wall
        })
        .collect();
    stats::median(&rates)
}

/// Fills in the end-to-end metrics of a library workload from its set-up
/// time, its timed repetitions and the number of library calls one
/// repetition makes. The service-only metrics (`query_*`, `ingest_p50_ms`,
/// `recover_s`) do not apply to a library workload; the driver still wants
/// every name on every run, so they repeat `wall_s` in their own unit and a
/// regression gate on them reduces to the gate on `wall_s`.
pub fn library_end_to_end(outcome: &mut Outcome, setup_s: f64, repetitions: &[f64], calls: u64) {
    let wall_s = stats::median(repetitions);
    outcome.set("setup_s", setup_s);
    outcome.set("wall_s", wall_s);
    outcome.set("peak_rss_mb", report::peak_rss_mb());
    outcome.set("requests_per_s", calls as f64 / wall_s);
    for name in ["query_p50_ms", "query_p95_ms", "ingest_p50_ms"] {
        outcome.set(name, wall_s * 1e3);
    }
    outcome.set("recover_s", wall_s);
    outcome.note(format!(
        "wall_s is the median of {} timed repetitions: {}",
        repetitions.len(),
        repetitions
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
}

/// Median duration, in microseconds, of the spans called `name`, or `0` when
/// the workload recorded none.
pub fn median_us(recorder: &Recorder, name: &str) -> f64 {
    let durations = recorder.durations_us(name);
    if durations.is_empty() {
        0.0
    } else {
        stats::median(&durations)
    }
}

/// Writes the recorder's spans to `<scratch>/trace-<workload>.jsonl` and
/// notes where they went.
pub fn write_spans(outcome: &mut Outcome, workload: &str, recorder: &Recorder) {
    let path = report::scratch_root().join(format!("trace-{workload}.jsonl"));
    match recorder.write_jsonl(&path) {
        Ok(()) => outcome.note(format!(
            "{} spans written to {}",
            recorder.spans().len(),
            path.display()
        )),
        Err(error) => outcome.check(false, || format!("writing {}: {error}", path.display())),
    }
}

/// `trace.overhead_ratio`: the same replay with the recorder on, over the
/// recorder off.
pub fn set_overhead_ratio(outcome: &mut Outcome, traced: &[f64], plain: &[f64]) {
    outcome.set(
        "trace.overhead_ratio",
        stats::median(traced) / stats::median(plain),
    );
}
