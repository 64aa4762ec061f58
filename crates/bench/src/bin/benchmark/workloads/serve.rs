//! `serve_read` and `serve_mixed` — the service, through its socket.
//!
//! Both run against an in-process `LiveServer` on `127.0.0.1:0` with
//! `ServerConfig::default()`, preloaded with `bound_query_scenario(200, 60,
//! seed)`: 200 disjoint chains of 60 edges, 366,000 `reach` tuples, 378,000
//! atoms. The load is a closed loop from exactly two connections (the box
//! has two cores): each caller sends its next request only when the previous
//! reply has been read and checked. Every reply is checked against the
//! closed-form chain oracle; an `ERR` of any kind (including `ERR
//! overloaded`) is a failed operation and is never retried.
//!
//! * `serve_read`: both connections send a seeded mix of 80% bound-source
//!   `?(Y) :- reach(c<k>_n<j>, Y).`, 10% point `? :- reach(a, b).` and 10%
//!   bound-target `?(X) :- reach(X, c<k>_n<j>).` queries to a volatile
//!   server, default `MODE`.
//! * `serve_mixed`: a durable server (`DurabilityConfig::new(dir)`:
//!   `SyncPolicy::Always`, no snapshot cadence). Connection A sends `BATCH`
//!   requests of 4 new `edge(x<i>, c<k>_n<j>)` facts and one `SNAPSHOT`
//!   half-way; connection B loops bound-source queries until A's last ack.
//!   Then `SHUTDOWN`, join, and a timed `DurableEngine::recover`.

use super::{median_us, seconds_of, timed_setup, write_spans, SETUP_ROUNDS};
use crate::client::{Connection, Header};
use crate::oracle::{parse_chain_node, reachable_from, reaching};
use crate::report::{self, Outcome, RunDir};
use crate::spans::Recorder;
use crate::stats::{self, Pace, RoundTrip};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;
use vadalog_analysis::magic::magic_rewrite;
use vadalog_analysis::stratify::stratify;
use vadalog_benchgen::{bound_query_scenario, BoundQueryScenario};
use vadalog_datalog::{DemandEngine, IncrementalEngine};
use vadalog_model::parser::{parse_fact_list, parse_query};
use vadalog_model::{Atom, InstanceSnapshot, Program, QueryBudget};
use vadalog_service::snapshot::{read_snapshot, write_snapshot, SnapshotData};
use vadalog_service::wal::{self, Wal};
use vadalog_service::{
    parse_request, DurabilityConfig, DurableEngine, LiveServer, Request, Response, ServerConfig,
    SyncPolicy,
};

/// Disjoint chains in the served graph.
pub const CHAINS: usize = 200;
/// Edges per chain (nodes `n0 ..= n60`).
pub const CHAIN_LEN: usize = 60;
/// Client connections; never more than the box has cores.
pub const CONNECTIONS: usize = 2;
/// Unmeasured requests per connection before the timed region.
pub const WARMUP_REQUESTS: usize = 500;
/// `serve_read`: timed requests per connection per second of budget
/// (12,000 at the frozen 8 s).
pub const READS_PER_SECOND: u64 = 1500;
/// `serve_mixed`: `BATCH` requests per second of budget (1,600 at 8 s).
pub const BATCHES_PER_SECOND: u64 = 200;
/// Runs each connection's round trips are cut into; the reported rate and
/// percentiles are medians over the runs (see `stats::median_pace`).
pub const CHUNKS: usize = 8;
/// New `edge` facts per `BATCH`.
pub const FACTS_PER_BATCH: usize = 4;
/// Timed `DurableEngine::recover` calls; the median is `recover_s`.
const RECOVER_ROUNDS: usize = 21;
/// Operations the traced pass replays in process.
const REPLAY_READS: usize = 4000;
/// Distinct queries the `serve_mixed` reader cycles through.
const READER_CYCLE: usize = 4096;

// ---------------------------------------------------------------------------
// The load: what is asked, and what the chain oracle says the answer is.
// ---------------------------------------------------------------------------

/// One `reach` question over a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ask {
    /// `?(Y) :- reach(c<chain>_n<index>, Y).`
    From { chain: usize, index: usize },
    /// `?(X) :- reach(X, c<chain>_n<index>).`
    Into { chain: usize, index: usize },
    /// `? :- reach(c<chain>_n<from>, c<chain>_n<to>).`
    Point {
        chain: usize,
        from: usize,
        to: usize,
    },
}

/// What a correct reply to an [`Ask`] looks like.
#[derive(Debug, PartialEq, Eq)]
struct Expected {
    /// Payload lines.
    rows: usize,
    /// The chain every answer must lie on; `None` for a Boolean query,
    /// whose one answer is the empty tuple.
    chain: Option<usize>,
    /// The node indices the answers must cover, exactly.
    mask: u64,
}

fn node(chain: usize, index: usize) -> String {
    format!("c{chain}_n{index}")
}

impl Ask {
    fn query(&self) -> String {
        match *self {
            Ask::From { chain, index } => format!("?(Y) :- reach({}, Y).", node(chain, index)),
            Ask::Into { chain, index } => format!("?(X) :- reach(X, {}).", node(chain, index)),
            Ask::Point { chain, from, to } => {
                format!("? :- reach({}, {}).", node(chain, from), node(chain, to))
            }
        }
    }

    fn expected(&self) -> Expected {
        match *self {
            Ask::From { chain, index } => {
                let mask = reachable_from(index, CHAIN_LEN);
                Expected {
                    rows: mask.count_ones() as usize,
                    chain: Some(chain),
                    mask,
                }
            }
            Ask::Into { chain, index } => {
                let mask = reaching(index);
                Expected {
                    rows: mask.count_ones() as usize,
                    chain: Some(chain),
                    mask,
                }
            }
            Ask::Point { from, to, .. } => Expected {
                rows: usize::from(from < to),
                chain: None,
                mask: 0,
            },
        }
    }
}

/// A `QUERY` request line with the question it asks.
struct Read {
    line: String,
    ask: Ask,
}

impl Read {
    fn new(ask: Ask) -> Read {
        Read {
            line: format!("QUERY {}", ask.query()),
            ask,
        }
    }
}

/// A bound-source question about a random chain node with at least one
/// successor.
fn draw_from(rng: &mut StdRng) -> Ask {
    Ask::From {
        chain: rng.gen_range(0..CHAINS),
        index: rng.gen_range(0..CHAIN_LEN),
    }
}

/// The `serve_read` mix: 80% bound-source, 10% point, 10% bound-target.
fn draw_mix(rng: &mut StdRng, count: usize) -> Vec<Read> {
    (0..count)
        .map(|_| {
            let chain = rng.gen_range(0..CHAINS);
            Read::new(match rng.gen_range(0..10) {
                0 => Ask::Point {
                    chain,
                    from: rng.gen_range(0..CHAIN_LEN + 1),
                    to: rng.gen_range(0..CHAIN_LEN + 1),
                },
                1 => Ask::Into {
                    chain,
                    index: rng.gen_range(1..CHAIN_LEN + 1),
                },
                _ => draw_from(rng),
            })
        })
        .collect()
}

/// One `BATCH` of new sources hung onto existing chain nodes.
struct Batch {
    line: String,
    /// `(source name, chain, index)` of each fact `edge(source, c_n)`.
    facts: Vec<(String, usize, usize)>,
    /// Tuples the batch must derive: a new source reaches its target and
    /// everything after it, `61 - index` tuples per fact.
    derived: usize,
}

fn draw_batches(rng: &mut StdRng, count: usize) -> Vec<Batch> {
    (0..count)
        .map(|batch| {
            let facts: Vec<(String, usize, usize)> = (0..FACTS_PER_BATCH)
                .map(|slot| {
                    (
                        format!("x{}", batch * FACTS_PER_BATCH + slot),
                        rng.gen_range(0..CHAINS),
                        rng.gen_range(0..CHAIN_LEN + 1),
                    )
                })
                .collect();
            let body: Vec<String> = facts
                .iter()
                .map(|(source, chain, index)| format!("edge({source}, {}).", node(*chain, *index)))
                .collect();
            Batch {
                line: format!("BATCH {}", body.join(" ")),
                derived: facts
                    .iter()
                    .map(|(_, _, index)| CHAIN_LEN + 1 - index)
                    .sum(),
                facts,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// One connection's closed loop, with every reply checked.
// ---------------------------------------------------------------------------

/// What one connection saw.
struct Tally {
    /// When this connection's timed region began.
    origin: Instant,
    trips: Vec<RoundTrip>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Payload rows over all replies.
    rows: u64,
}

impl Tally {
    fn start() -> Tally {
        Tally {
            origin: Instant::now(),
            trips: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            rows: 0,
        }
    }

    fn record(
        &mut self,
        sent: Instant,
        read: Instant,
        ok: bool,
        describe: impl FnOnce() -> String,
    ) {
        self.trips.push(RoundTrip {
            sent_s: (sent - self.origin).as_secs_f64(),
            latency_ms: (read - sent).as_secs_f64() * 1e3,
        });
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 4 {
                self.failures.push(describe());
            }
        }
    }

    fn absorb_into(self, outcome: &mut Outcome) {
        outcome.absorb(self.attempted, self.failed, self.failures);
    }
}

/// Sends one query and checks its reply row by row against the oracle.
fn ask(connection: &mut Connection, read: &Read, tally: &mut Tally) {
    let expected = read.ask.expected();
    let (mut rows, mut mask, mut malformed) = (0usize, 0u64, false);
    let sent = Instant::now();
    let header = connection.request(&read.line, |line| {
        rows += 1;
        match (expected.chain, parse_chain_node(line)) {
            (Some(chain), Some((c, index))) if c == chain && index < 64 => mask |= 1 << index,
            (None, None) if line.is_empty() => {}
            _ => malformed = true,
        }
    });
    let received = Instant::now();
    tally.rows += rows as u64;
    let ok = matches!(&header, Ok(Header::Framed { count, .. }) if *count == expected.rows)
        && mask == expected.mask
        && !malformed;
    tally.record(sent, received, ok, || match header {
        Ok(header) => format!(
            "{} answered `{}` with {rows} rows (mask {mask:#x}), expected {expected:?}",
            read.line,
            header.line()
        ),
        Err(error) => format!("{}: {error}", read.line),
    });
}

/// Sends one line whose reply must be a single `OK` line starting with
/// `prefix`.
fn command(connection: &mut Connection, line: &str, prefix: &str, tally: &mut Tally) {
    let sent = Instant::now();
    let header = connection.request(line, |_| ());
    let received = Instant::now();
    let ok = matches!(&header, Ok(Header::Ok(reply)) if reply.starts_with(prefix));
    tally.record(sent, received, ok, || match header {
        Ok(header) => format!(
            "`{line:.60}` answered `{}`, expected `{prefix}…`",
            header.line()
        ),
        Err(error) => format!("`{line:.60}`: {error}"),
    });
}

// ---------------------------------------------------------------------------
// The server under test.
// ---------------------------------------------------------------------------

/// A running server with its client connections. Dropping it shuts the
/// server down (`SHUTDOWN`, then join) and removes the durable directory.
struct Rig {
    program: Program,
    connections: Vec<Connection>,
    server: Option<LiveServer>,
    /// Declared after `server`: the directory outlives the server thread.
    dir: Option<RunDir>,
}

impl Rig {
    /// Generates the scenario, materialises it, starts the server (durable
    /// in a fresh directory, or volatile), opens the connections and sends
    /// the warm-up requests.
    fn start(seed: u64, durable: bool) -> Rig {
        let scenario = bound_query_scenario(CHAINS, CHAIN_LEN, seed);
        let engine = materialise(&scenario);
        let dir = durable.then(|| RunDir::create("serve_mixed").expect("create durable directory"));
        let engine = match &dir {
            Some(dir) => DurableEngine::create(engine, DurabilityConfig::new(dir.path()))
                .expect("create durable engine"),
            None => DurableEngine::volatile(engine),
        };
        let server = LiveServer::start_with(engine, "127.0.0.1:0", ServerConfig::default())
            .expect("start server on loopback");
        let connections = (0..CONNECTIONS)
            .map(|_| Connection::open(server.addr()).expect("connect to loopback"))
            .collect();
        let mut rig = Rig {
            program: scenario.program,
            connections,
            server: Some(server),
            dir,
        };
        rig.warm_up(seed);
        rig
    }

    /// Unmeasured, unchecked-in-the-books requests on every connection:
    /// fills the demand cache for all three binding patterns and lets lazy
    /// set-up finish. A warm-up reply that is wrong still panics — the
    /// timed region must not start on a broken server.
    fn warm_up(&mut self, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0000_0000_0001);
        std::thread::scope(|scope| {
            for connection in &mut self.connections {
                let reads = draw_mix(&mut rng, WARMUP_REQUESTS);
                scope.spawn(move || {
                    let mut tally = Tally::start();
                    for read in &reads {
                        ask(connection, read, &mut tally);
                    }
                    assert_eq!(tally.failed, 0, "warm-up failed: {:?}", tally.failures);
                });
            }
        });
    }

    /// `SHUTDOWN` over the first connection, then join the server.
    fn shut_down(&mut self) {
        let Some(server) = self.server.take() else {
            return;
        };
        let said_bye = self
            .connections
            .first_mut()
            .and_then(|connection| connection.request("SHUTDOWN", |_| ()).ok())
            .is_some_and(|header| header.line() == "OK bye");
        if !said_bye {
            server.request_shutdown();
        }
        server.join();
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.shut_down();
    }
}

fn materialise(scenario: &BoundQueryScenario) -> IncrementalEngine {
    let mut engine =
        IncrementalEngine::new(scenario.program.clone()).expect("reach program is Datalog");
    engine
        .ingest_database(&scenario.database)
        .expect("generated facts are admissible");
    engine
}

/// The server's own mean handler time for a verb, in microseconds:
/// `total_micros / count` of its per-verb histogram — exact, unlike the
/// histogram's log-bucketed percentiles (up to 25% off).
fn handler_mean_us(stats: &str, verb: &str) -> f64 {
    let anchor = format!("\"{verb}\":");
    match (
        stat(stats, &anchor, "total_micros"),
        stat(stats, &anchor, "count"),
    ) {
        (Some(total), Some(count)) if count > 0.0 => total / count,
        _ => 0.0,
    }
}

/// The number following `"key":` after the first occurrence of `anchor` in
/// the `STATS` JSON line.
fn stat(stats: &str, anchor: &str, key: &str) -> Option<f64> {
    let section = &stats[stats.find(anchor)?..];
    let needle = format!("\"{key}\":");
    let value = &section[section.find(&needle)? + needle.len()..];
    let end = value
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(value.len());
    value[..end].parse().ok()
}

/// Reads the `STATS` line; transport-level sheds and failures count as
/// failed operations on top of what the clients saw.
fn read_stats(connection: &mut Connection, outcome: &mut Outcome) -> String {
    let stats = match connection.request("STATS", |_| ()) {
        Ok(Header::Ok(line)) => line,
        other => {
            outcome.check(false, || format!("STATS answered {other:?}"));
            return String::new();
        }
    };
    for key in ["queries_shed", "requests_failed"] {
        let count = stat(&stats, "\"transport\":", key);
        outcome.check(count == Some(0.0), || {
            format!("STATS transport.{key} = {count:?}")
        });
    }
    stats
}

/// `service.transport.shed` / `.failed` from the `STATS` line.
fn set_transport_counts(outcome: &mut Outcome, stats: &str) {
    for (name, key) in [
        ("service.transport.shed", "queries_shed"),
        ("service.transport.failed", "requests_failed"),
    ] {
        outcome.set(name, stat(stats, "\"transport\":", key).unwrap_or(0.0));
    }
}

/// Every round-trip latency of the given connections, ascending.
fn sorted_latencies(tallies: &[&Tally]) -> Vec<f64> {
    let mut all: Vec<f64> = tallies
        .iter()
        .flat_map(|tally| tally.trips.iter().map(|trip| trip.latency_ms))
        .collect();
    stats::sort(&mut all);
    all
}

fn note_pace(outcome: &mut Outcome, what: &str, samples: usize, connections: usize) {
    let per_run = samples / (connections * CHUNKS);
    let supported = stats::highest_supported_percentile(per_run, 10).unwrap_or(0.0);
    outcome.note(format!(
        "{what}: {samples} samples in {} runs of {per_run}; rate, p50 and p95 are medians over \
         the runs ({} samples beyond each run's p95; ten beyond supports up to p{})",
        connections * CHUNKS,
        stats::samples_beyond(per_run, 0.95),
        supported * 100.0
    ));
}

// ---------------------------------------------------------------------------
// serve_read
// ---------------------------------------------------------------------------

/// What the socket phase of `serve_read` measured.
struct ReadPhase {
    setup_s: f64,
    /// Timed requests per connection.
    per_connection: usize,
    /// The connections' median pace.
    pace: Pace,
    replies: u64,
    rows: u64,
    /// All query latencies, ascending.
    query_ms: Vec<f64>,
    stats: String,
}

fn read_phase(outcome: &mut Outcome, seed: u64, seconds: u64, setup_rounds: usize) -> ReadPhase {
    let (mut rig, setup_s) = timed_setup(setup_rounds, || Rig::start(seed, false));
    let mut rng = StdRng::seed_from_u64(seed);
    let per_connection = (READS_PER_SECOND * seconds) as usize;
    let loads: Vec<Vec<Read>> = (0..CONNECTIONS)
        .map(|_| draw_mix(&mut rng, per_connection))
        .collect();
    outcome.note(format!(
        "sizes: bound_query_scenario({CHAINS}, {CHAIN_LEN}, seed); {CONNECTIONS} connections x \
         ({WARMUP_REQUESTS} warm-up + {per_connection} timed) requests, closed loop"
    ));

    let barrier = Barrier::new(CONNECTIONS);
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = rig
            .connections
            .iter_mut()
            .zip(&loads)
            .map(|(connection, reads)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut tally = Tally::start();
                    barrier.wait();
                    for read in reads {
                        ask(connection, read, &mut tally);
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread panicked"))
            .collect()
    });

    let refs: Vec<&Tally> = tallies.iter().collect();
    let trips: Vec<&[RoundTrip]> = tallies.iter().map(|t| t.trips.as_slice()).collect();
    let phase = ReadPhase {
        setup_s,
        per_connection,
        pace: stats::median_pace(&trips, CHUNKS),
        replies: tallies.iter().map(|t| t.attempted).sum(),
        rows: tallies.iter().map(|t| t.rows).sum(),
        query_ms: sorted_latencies(&refs),
        stats: read_stats(&mut rig.connections[0], outcome),
    };
    for tally in tallies {
        tally.absorb_into(outcome);
    }
    rig.shut_down();
    phase
}

/// The untraced pass of `serve_read`.
pub fn run_read(seed: u64, seconds: u64) -> Outcome {
    let mut outcome = Outcome::default();
    let phase = read_phase(&mut outcome, seed, seconds, SETUP_ROUNDS);
    // The fixed work at the connections' median pace.
    let wall_s = phase.per_connection as f64 / phase.pace.rate_per_s;
    outcome.set("setup_s", phase.setup_s);
    outcome.set("wall_s", wall_s);
    outcome.set("peak_rss_mb", report::peak_rss_mb());
    outcome.set("requests_per_s", CONNECTIONS as f64 * phase.pace.rate_per_s);
    outcome.set("query_p50_ms", phase.pace.p50_ms);
    outcome.set("query_p95_ms", phase.pace.p95_ms);
    // No ingest and no recovery on this workload: repeat wall_s (see README).
    outcome.set("ingest_p50_ms", wall_s * 1e3);
    outcome.set("recover_s", wall_s);
    note_pace(
        &mut outcome,
        "query round trips",
        phase.query_ms.len(),
        CONNECTIONS,
    );
    outcome
}

/// Median over a few cold `magic_rewrite` calls per binding pattern.
fn magic_rewrite_us(recorder: &mut Recorder, program: &Program) -> f64 {
    let patterns = [
        Ask::From { chain: 0, index: 0 },
        Ask::Into { chain: 0, index: 1 },
        Ask::Point {
            chain: 0,
            from: 0,
            to: 1,
        },
    ];
    for _ in 0..20 {
        for pattern in &patterns {
            let query = parse_query(&pattern.query()).expect("reach query parses");
            recorder.next_op();
            recorder.span("analysis.magic.rewrite", |_| {
                magic_rewrite(program, &query).expect("bound reach queries specialise")
            });
        }
    }
    median_us(recorder, "analysis.magic.rewrite")
}

/// Per-layer numbers both serving workloads share: what the store, the
/// snapshot freeze and the program analyses cost on the served data.
fn shared_layer_metrics(
    outcome: &mut Outcome,
    recorder: &mut Recorder,
    scenario: &BoundQueryScenario,
    engine: &IncrementalEngine,
) {
    for _ in 0..5 {
        recorder.next_op();
        recorder.span("model.snapshot.freeze", |_| {
            InstanceSnapshot::freeze(engine.instance(), engine.epoch())
        });
    }
    outcome.set(
        "model.snapshot.freeze_ms",
        median_us(recorder, "model.snapshot.freeze") / 1e3,
    );
    outcome.set(
        "model.store.index_bytes",
        engine.instance().index_bytes() as f64,
    );
    outcome.set(
        "model.store.insert_rows_per_s",
        super::insert_rows_per_s(&scenario.database),
    );
    for _ in 0..50 {
        recorder.next_op();
        recorder.span("analysis.analyze", |_| {
            vadalog_analysis::analyze(&scenario.program)
        });
        recorder.span("analysis.stratify", |_| stratify(&scenario.program));
    }
    outcome.set(
        "analysis.analyze_us",
        median_us(recorder, "analysis.analyze"),
    );
    outcome.set(
        "analysis.stratify_us",
        median_us(recorder, "analysis.stratify"),
    );
    outcome.set(
        "analysis.magic.rewrite_us",
        magic_rewrite_us(recorder, &scenario.program),
    );
}

/// Replays `reads` in process, on one thread, through the public functions
/// the serving path is built from, in order: `parse_request` →
/// `IncrementalEngine::snapshot` → `DemandEngine::answer_profiled` →
/// `Response::render`. Returns the replay's wall time.
fn replay_reads(
    outcome: &mut Outcome,
    recorder: &mut Recorder,
    engine: &IncrementalEngine,
    demand: &DemandEngine,
    reads: &[Read],
) -> f64 {
    let budget = QueryBudget::unlimited();
    let (_, wall) = seconds_of(|| {
        for read in reads {
            recorder.next_op();
            let rendered = recorder.span("service.request", |recorder| {
                let request = recorder.span("service.protocol.parse_request", |_| {
                    parse_request(&read.line)
                });
                let Ok(Request::Query { query, .. }) = request else {
                    return None;
                };
                let snapshot = recorder.span("datalog.incremental.snapshot", |_| engine.snapshot());
                let answer = recorder.span("datalog.demand.answer", |recorder| {
                    let (answer, profile) = demand
                        .answer_profiled(snapshot.instance(), &query, &budget)
                        .ok()?;
                    recorder.reported_child("datalog.demand.rewrite", profile.rewrite_micros);
                    recorder.reported_child("datalog.demand.seed", profile.seed_micros);
                    let fixpoint: u64 =
                        profile.strata.iter().flatten().map(|r| r.wall_micros).sum();
                    recorder.reported_child("datalog.demand.fixpoint", fixpoint);
                    recorder.reported_child("datalog.demand.answer_eval", profile.answer_micros);
                    Some(answer)
                })?;
                let response = Response::Answers {
                    epoch: snapshot.epoch(),
                    tuples: answer.answers.into_iter().collect(),
                };
                let text = recorder.span("service.protocol.render", |_| response.render());
                Some((text, answer.demanded_tuples, answer.cache_hit))
            });
            let expected = read.ask.expected();
            let ok = rendered.as_ref().is_some_and(|(text, _, _)| {
                text.lines().count() == expected.rows + 2
                    && text.starts_with(&format!("OK answers={} ", expected.rows))
            });
            outcome.check(ok, || {
                format!("replay of {} rendered {rendered:?}", read.line)
            });
        }
    });
    wall
}

/// The traced pass of `serve_read`: the socket phase for the client-side and
/// `STATS` numbers, then the in-process replay for the per-call spans.
pub fn trace_read(seed: u64, seconds: u64) -> Outcome {
    let mut outcome = Outcome::default();
    let phase = read_phase(&mut outcome, seed, seconds, 1);
    let client_p50_us = phase.pace.p50_ms * 1e3;
    let handler_p50_us = stat(&phase.stats, "\"query\":", "p50_micros").unwrap_or(0.0);
    // Means, not medians: both sides are exact and cover the same requests
    // (the server's figure also counts the warm-up, 4% of them).
    let client_mean_us = stats::mean(&phase.query_ms) * 1e3;
    let residual_us = client_mean_us - handler_mean_us(&phase.stats, "query");
    outcome.set(
        "client.query_p99_ms",
        stats::percentile(&phase.query_ms, 0.99),
    );
    outcome.set(
        "client.rows_per_reply",
        phase.rows as f64 / phase.replies as f64,
    );
    outcome.set("service.handler.query_p50_us", handler_p50_us);
    outcome.set("service.transport.residual_us", residual_us);
    set_transport_counts(&mut outcome, &phase.stats);
    note_pace(
        &mut outcome,
        "query round trips",
        phase.query_ms.len(),
        CONNECTIONS,
    );

    let scenario = bound_query_scenario(CHAINS, CHAIN_LEN, seed);
    let engine = materialise(&scenario);
    let reads = draw_mix(&mut StdRng::seed_from_u64(seed), REPLAY_READS);
    let mut recorder = Recorder::new(true);
    // Each pass gets its own demand engine, warmed on the three patterns,
    // so both start from the same cache state.
    let warmed = || {
        let demand = DemandEngine::new(scenario.program.clone()).with_threads(engine.threads());
        replay_reads(
            &mut Outcome::default(),
            &mut Recorder::new(false),
            &engine,
            &demand,
            &reads[..reads.len().min(50)],
        );
        demand
    };
    let plain = replay_reads(
        &mut outcome,
        &mut Recorder::new(false),
        &engine,
        &warmed(),
        &reads,
    );
    let demand = warmed();
    let before = demand.stats();
    let traced = replay_reads(&mut outcome, &mut recorder, &engine, &demand, &reads);
    let after = demand.stats();
    outcome.set("trace.overhead_ratio", traced / plain);

    // The FULL-mode path and the bare parser on the same queries, as
    // siblings of the request span (they are not part of the request).
    let snapshot = engine.snapshot();
    for read in &reads {
        let text = read.ask.query();
        recorder.next_op();
        let query = recorder
            .span("model.parser.parse_query", |_| parse_query(&text))
            .expect("reach query parses");
        let answers = recorder.span("model.query.evaluate", |_| query.evaluate(&snapshot));
        outcome.check(answers.len() == read.ask.expected().rows, || {
            format!(
                "FULL-mode evaluate of {text} returned {} rows",
                answers.len()
            )
        });
    }

    let queries = (after.magic_queries - before.magic_queries) as f64;
    for (metric, span) in [
        (
            "service.protocol.parse_query_us",
            "service.protocol.parse_request",
        ),
        ("service.protocol.render_us", "service.protocol.render"),
        ("datalog.demand.answer_us", "datalog.demand.answer"),
        ("datalog.demand.rewrite_us", "datalog.demand.rewrite"),
        ("datalog.demand.seed_us", "datalog.demand.seed"),
        ("datalog.demand.fixpoint_us", "datalog.demand.fixpoint"),
        (
            "datalog.demand.answer_eval_us",
            "datalog.demand.answer_eval",
        ),
        ("model.parser.parse_query_us", "model.parser.parse_query"),
        ("model.query.evaluate_us", "model.query.evaluate"),
    ] {
        outcome.set(metric, median_us(&recorder, span));
    }
    outcome.set(
        "datalog.demand.demanded_tuples",
        (after.demanded_tuples - before.demanded_tuples) as f64 / queries,
    );
    outcome.set(
        "datalog.demand.cache_hit_share",
        100.0 * (after.magic_cache_hits - before.magic_cache_hits) as f64 / queries,
    );
    outcome.set(
        "datalog.incremental.snapshot_ms",
        median_us(&recorder, "datalog.incremental.snapshot") / 1e3,
    );
    shared_layer_metrics(&mut outcome, &mut recorder, &scenario, &engine);

    let request_us = median_us(&recorder, "service.request");
    outcome.note(format!(
        "per-operation breakdown (medians, us): parse {:.1} + snapshot {:.1} + answer {:.1} \
         [rewrite {:.1}, seed {:.1}, fixpoint {:.1}, answer_eval {:.1}, self {:.1}] + render {:.1} \
         + request self {:.1} = request {request_us:.1} in process; client p50 {client_p50_us:.1}, \
         so the in-process spans account for {:.0}% of the client-side median; transport residual \
         (client mean {client_mean_us:.1} - handler mean) {residual_us:.1}; handler p50 \
         {handler_p50_us:.0} (STATS, log-bucketed)",
        median_us(&recorder, "service.protocol.parse_request"),
        median_us(&recorder, "datalog.incremental.snapshot"),
        median_us(&recorder, "datalog.demand.answer"),
        median_us(&recorder, "datalog.demand.rewrite"),
        median_us(&recorder, "datalog.demand.seed"),
        median_us(&recorder, "datalog.demand.fixpoint"),
        median_us(&recorder, "datalog.demand.answer_eval"),
        stats::median(&recorder.self_times_us("datalog.demand.answer")),
        median_us(&recorder, "service.protocol.render"),
        stats::median(&recorder.self_times_us("service.request")),
        100.0 * request_us / client_p50_us,
    ));
    write_spans(&mut outcome, "serve_read", &recorder);
    outcome
}

// ---------------------------------------------------------------------------
// serve_mixed
// ---------------------------------------------------------------------------

/// What the socket phase of `serve_mixed` measured.
struct MixedPhase {
    setup_s: f64,
    batches: usize,
    /// Connection A's `BATCH` round trips at their median pace.
    writer: Pace,
    /// Connection B's `QUERY` round trips at their median pace.
    reader: Pace,
    reader_replies: u64,
    rows: u64,
    /// All query latencies, ascending.
    query_ms: Vec<f64>,
    /// All `BATCH` latencies, ascending.
    ingest_ms: Vec<f64>,
    recover_s: f64,
    records_replayed: u64,
    stats: String,
}

fn mixed_phase(outcome: &mut Outcome, seed: u64, seconds: u64, setup_rounds: usize) -> MixedPhase {
    let (mut rig, setup_s) = timed_setup(setup_rounds, || Rig::start(seed, true));
    let mut rng = StdRng::seed_from_u64(seed);
    let batches = draw_batches(&mut rng, (BATCHES_PER_SECOND * seconds) as usize);
    let snapshot_after = batches.len() / 2;
    // The reader cycles through this list until the writer's last ack.
    let reads: Vec<Read> = (0..READER_CYCLE)
        .map(|_| Read::new(draw_from(&mut rng)))
        .collect();
    outcome.note(format!(
        "sizes: bound_query_scenario({CHAINS}, {CHAIN_LEN}, seed), durable (SyncPolicy::Always, \
         no snapshot cadence); {} BATCH x {FACTS_PER_BATCH} facts + 1 SNAPSHOT after batch \
         {snapshot_after} on connection A, bound-source reads on connection B until A's last ack",
        batches.len()
    ));

    let barrier = Barrier::new(CONNECTIONS);
    let writer_done = AtomicBool::new(false);
    let (writer_connection, reader_connection) = {
        let (a, b) = rig.connections.split_at_mut(1);
        (&mut a[0], &mut b[0])
    };
    let (writer, commands, reader) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let (mut tally, mut commands) = (Tally::start(), Tally::start());
            barrier.wait();
            for (index, batch) in batches.iter().enumerate() {
                let ack = format!(
                    "OK inserted={FACTS_PER_BATCH} duplicate=0 derived={} ",
                    batch.derived
                );
                command(writer_connection, &batch.line, &ack, &mut tally);
                if index + 1 == snapshot_after {
                    command(
                        writer_connection,
                        "SNAPSHOT",
                        "OK snapshot epoch=",
                        &mut commands,
                    );
                }
            }
            writer_done.store(true, Ordering::SeqCst);
            (tally, commands)
        });
        let reader = scope.spawn(|| {
            let mut tally = Tally::start();
            barrier.wait();
            for read in reads.iter().cycle() {
                if writer_done.load(Ordering::SeqCst) {
                    break;
                }
                ask(reader_connection, read, &mut tally);
            }
            tally
        });
        let (writer, commands) = writer.join().expect("writer thread panicked");
        (
            writer,
            commands,
            reader.join().expect("reader thread panicked"),
        )
    });
    let writer_pace = stats::median_pace(&[&writer.trips], CHUNKS);
    let reader_pace = stats::median_pace(&[&reader.trips], CHUNKS);
    let ingest_ms = sorted_latencies(&[&writer]);
    let query_ms = sorted_latencies(&[&reader]);
    let (reader_replies, rows) = (reader.attempted, reader.rows);

    // The live server's last word on every acknowledged batch: what its
    // first new source reaches, checked against the chain oracle and kept
    // to compare with the recovered engine.
    let mut live_answers: Vec<Vec<String>> = Vec::with_capacity(batches.len());
    let mut verification = Tally::start();
    for batch in &batches {
        let (source, chain, index) = &batch.facts[0];
        let line = format!("QUERY ?(Y) :- reach({source}, Y).");
        let mut answers = Vec::new();
        let sent = Instant::now();
        let header = writer_connection.request(&line, |row| answers.push(row.to_string()));
        let mask = answers
            .iter()
            .filter_map(|row| parse_chain_node(row))
            .filter(|(c, _)| c == chain)
            .fold(0u64, |mask, (_, i)| mask | 1 << i);
        let expected = reachable_from(*index, CHAIN_LEN) | 1 << index;
        let ok =
            header.is_ok() && mask == expected && answers.len() == expected.count_ones() as usize;
        verification.record(sent, Instant::now(), ok, || {
            format!("{line} answered {header:?} with {} rows", answers.len())
        });
        live_answers.push(answers);
    }
    let stats_line = read_stats(writer_connection, outcome);
    for tally in [writer, commands, reader, verification] {
        tally.absorb_into(outcome);
    }

    // Clean stop, then recovery from what the run left on disk.
    rig.shut_down();
    let config = DurabilityConfig::new(rig.dir.as_ref().expect("durable rig").path());
    let fresh = || IncrementalEngine::new(rig.program.clone()).expect("reach program is Datalog");
    let mut recover_times = Vec::with_capacity(RECOVER_ROUNDS);
    let mut recovered = None;
    for _ in 0..RECOVER_ROUNDS {
        drop(recovered.take());
        let (result, wall) = seconds_of(|| DurableEngine::recover(fresh(), config.clone()));
        recover_times.push(wall);
        recovered = result.ok();
    }
    let mut records_replayed = 0;
    match &recovered {
        Some((durable, report)) => {
            records_replayed = report.records_replayed;
            let tail = (batches.len() - snapshot_after) as u64;
            outcome.check(
                report.records_replayed == tail && report.clean_shutdown,
                || {
                    format!(
                        "recovery replayed {report:?}, expected {tail} records after a clean stop"
                    )
                },
            );
            check_recovered(outcome, durable.engine(), &batches, &live_answers, &reads);
        }
        None => outcome.check(false, || "DurableEngine::recover failed".into()),
    }
    drop(recovered);

    MixedPhase {
        setup_s,
        batches: batches.len(),
        writer: writer_pace,
        reader: reader_pace,
        reader_replies,
        rows,
        query_ms,
        ingest_ms,
        recover_s: stats::median(&recover_times),
        records_replayed,
        stats: stats_line,
    }
}

/// The recovered engine must contain every acknowledged fact, answer the
/// per-batch queries exactly as the live server last did, and answer the
/// reader's queries as the chain oracle says.
fn check_recovered(
    outcome: &mut Outcome,
    engine: &IncrementalEngine,
    batches: &[Batch],
    live_answers: &[Vec<String>],
    reads: &[Read],
) {
    for (batch, live) in batches.iter().zip(live_answers) {
        let present = batch.facts.iter().all(|(source, chain, index)| {
            engine
                .instance()
                .contains(&Atom::fact("edge", &[source, &node(*chain, *index)]))
        });
        outcome.check(present, || {
            format!("recovered engine lacks a fact of `{:.60}`", batch.line)
        });
        let query = parse_query(&format!("?(Y) :- reach({}, Y).", batch.facts[0].0))
            .expect("reach query parses");
        let recovered: Vec<String> = engine
            .answers(&query)
            .into_iter()
            .map(|tuple| tuple[0].as_str().to_string())
            .collect();
        let mut live = live.clone();
        live.sort();
        let mut sorted = recovered;
        sorted.sort();
        outcome.check(sorted == live, || {
            format!("recovered answers for {query} differ from the live server's")
        });
    }
    for read in reads {
        let query = parse_query(&read.ask.query()).expect("reach query parses");
        let expected = read.ask.expected();
        let answers = engine.answers(&query);
        let mask = answers
            .iter()
            .filter_map(|tuple| parse_chain_node(tuple[0].as_str()))
            .fold(0u64, |mask, (_, i)| mask | 1 << i);
        outcome.check(
            answers.len() == expected.rows && mask == expected.mask,
            || {
                format!(
                    "recovered engine answers {query} with {} rows",
                    answers.len()
                )
            },
        );
    }
}

/// The untraced pass of `serve_mixed`.
pub fn run_mixed(seed: u64, seconds: u64) -> Outcome {
    let mut outcome = Outcome::default();
    let phase = mixed_phase(&mut outcome, seed, seconds, SETUP_ROUNDS);
    outcome.set("setup_s", phase.setup_s);
    // The fixed work — every batch — at the writer's median pace.
    outcome.set("wall_s", phase.batches as f64 / phase.writer.rate_per_s);
    outcome.set("peak_rss_mb", report::peak_rss_mb());
    outcome.set(
        "requests_per_s",
        phase.writer.rate_per_s + phase.reader.rate_per_s,
    );
    outcome.set("query_p50_ms", phase.reader.p50_ms);
    outcome.set("query_p95_ms", phase.reader.p95_ms);
    outcome.set("ingest_p50_ms", phase.writer.p50_ms);
    outcome.set("recover_s", phase.recover_s);
    note_pace(&mut outcome, "query round trips", phase.query_ms.len(), 1);
    note_pace(&mut outcome, "BATCH round trips", phase.ingest_ms.len(), 1);
    outcome.note(format!(
        "recover_s is the median of {RECOVER_ROUNDS} recoveries ({} WAL records replayed)",
        phase.records_replayed
    ));
    outcome
}

/// Replays `batches` in process through the public functions the write path
/// is built from: `parse_request` → `Wal::append_batch` (fsync per batch) →
/// `IncrementalEngine::ingest` → `snapshot()` (the publish clone) →
/// `Response::render`. Beside each request, outside its span, the same
/// batch goes through a never-syncing WAL and a `DurableEngine`, so the
/// fsync share and the durable wrapper's cost can be read off. Returns the
/// wall time and the last batch's outcome counters `(derived, skipped)`.
fn replay_batches(
    outcome: &mut Outcome,
    recorder: &mut Recorder,
    dir: &std::path::Path,
    mut engine: IncrementalEngine,
    batches: &[Batch],
) -> (f64, IncrementalEngine, u64, u64) {
    let mut synced = Wal::create(&dir.join("always.log"), SyncPolicy::Always).expect("create WAL");
    let mut unsynced = Wal::create(&dir.join("never.log"), SyncPolicy::Never).expect("create WAL");
    let mut durable =
        DurableEngine::create(engine.clone(), DurabilityConfig::new(dir.join("durable")))
            .expect("create durable engine");
    let (mut derived, mut skipped) = (0u64, 0u64);
    let (_, wall) = seconds_of(|| {
        for batch in batches {
            recorder.next_op();
            let ok = recorder.span("service.request", |recorder| {
                let request = recorder.span("service.protocol.parse_request", |_| {
                    parse_request(&batch.line)
                });
                let Ok(Request::Ingest { facts, .. }) = request else {
                    return false;
                };
                let appended = recorder
                    .span("service.wal.append_fsync", |_| synced.append_batch(&facts))
                    .is_ok();
                let Ok(ingested) =
                    recorder.span("datalog.incremental.ingest", |_| engine.ingest(&facts))
                else {
                    return false;
                };
                derived += ingested.derived_atoms as u64;
                skipped += ingested.strata_skipped as u64;
                recorder.span("datalog.incremental.snapshot", |_| engine.snapshot());
                let text = recorder.span("service.protocol.render", |_| {
                    Response::ingest(&ingested).render()
                });
                let appended_unsynced = recorder
                    .span("service.wal.append", |_| unsynced.append_batch(&facts))
                    .is_ok();
                let durably = recorder
                    .span("service.durable.ingest", |_| durable.ingest(&facts))
                    .is_ok();
                appended
                    && appended_unsynced
                    && durably
                    && ingested.derived_atoms == batch.derived
                    && text.starts_with("OK inserted=")
            });
            outcome.check(ok, || format!("replay of `{:.60}` failed", batch.line));
        }
    });
    let facts = (batches.len() * FACTS_PER_BATCH) as f64;
    outcome.set("service.wal.bytes_per_fact", synced.bytes() as f64 / facts);
    (wall, engine, derived, skipped)
}

/// The traced pass of `serve_mixed`.
pub fn trace_mixed(seed: u64, seconds: u64) -> Outcome {
    let mut outcome = Outcome::default();
    let phase = mixed_phase(&mut outcome, seed, seconds, 1);
    let client_p50_us = phase.writer.p50_ms * 1e3;
    let handler_p50_us = stat(&phase.stats, "\"batch\":", "p50_micros").unwrap_or(0.0);
    // Means, not medians: both sides are exact and cover the same batches.
    let client_mean_us = stats::mean(&phase.ingest_ms) * 1e3;
    let residual_us = client_mean_us - handler_mean_us(&phase.stats, "batch");
    outcome.set(
        "client.query_p99_ms",
        stats::percentile(&phase.query_ms, 0.99),
    );
    outcome.set("client.ingest_p95_ms", phase.writer.p95_ms);
    outcome.set(
        "client.ingest_p99_ms",
        stats::percentile(&phase.ingest_ms, 0.99),
    );
    outcome.set("client.reader_queries", phase.reader_replies as f64);
    outcome.set(
        "client.rows_per_reply",
        phase.rows as f64 / phase.reader_replies as f64,
    );
    outcome.set(
        "service.handler.query_p50_us",
        stat(&phase.stats, "\"query\":", "p50_micros").unwrap_or(0.0),
    );
    outcome.set("service.handler.batch_p50_us", handler_p50_us);
    outcome.set("service.transport.residual_us", residual_us);
    outcome.set(
        "service.recover.records_replayed",
        phase.records_replayed as f64,
    );
    set_transport_counts(&mut outcome, &phase.stats);
    note_pace(&mut outcome, "BATCH round trips", phase.ingest_ms.len(), 1);

    let scenario = bound_query_scenario(CHAINS, CHAIN_LEN, seed);
    let engine = materialise(&scenario);
    let batches = draw_batches(
        &mut StdRng::seed_from_u64(seed),
        (BATCHES_PER_SECOND * seconds) as usize,
    );
    let dir = RunDir::create("serve_mixed-replay").expect("create replay directory");
    let mut recorder = Recorder::new(true);
    let plain_dir = dir.path().join("plain");
    let traced_dir = dir.path().join("traced");
    std::fs::create_dir_all(&plain_dir).expect("create replay directory");
    std::fs::create_dir_all(&traced_dir).expect("create replay directory");
    let (plain, ..) = replay_batches(
        &mut outcome,
        &mut Recorder::new(false),
        &plain_dir,
        engine.clone(),
        &batches,
    );
    let (traced, grown, derived, skipped) = replay_batches(
        &mut outcome,
        &mut recorder,
        &traced_dir,
        engine.clone(),
        &batches,
    );
    outcome.set("trace.overhead_ratio", traced / plain);

    for (metric, span) in [
        (
            "service.protocol.parse_batch_us",
            "service.protocol.parse_request",
        ),
        ("service.protocol.render_us", "service.protocol.render"),
        ("service.wal.append_us", "service.wal.append"),
        ("service.durable.ingest_us", "service.durable.ingest"),
        (
            "datalog.incremental.ingest_us",
            "datalog.incremental.ingest",
        ),
    ] {
        outcome.set(metric, median_us(&recorder, span));
    }
    let append_fsync_us = median_us(&recorder, "service.wal.append_fsync");
    let append_us = median_us(&recorder, "service.wal.append");
    outcome.set("service.wal.fsync_us", append_fsync_us - append_us);
    let publish_us = median_us(&recorder, "datalog.incremental.snapshot");
    outcome.set("datalog.incremental.snapshot_ms", publish_us / 1e3);
    outcome.set(
        "datalog.incremental.derived_per_batch",
        derived as f64 / batches.len() as f64,
    );
    outcome.set("datalog.incremental.strata_skipped", skipped as f64);

    // The bare fact parser on one batch payload.
    for batch in batches.iter().take(200) {
        let payload = batch.line.trim_start_matches("BATCH ");
        recorder.next_op();
        recorder
            .span("model.parser.parse_facts", |_| parse_fact_list(payload))
            .expect("batch payload parses");
    }
    outcome.set(
        "model.parser.parse_facts_us",
        median_us(&recorder, "model.parser.parse_facts"),
    );

    // Snapshot codec and WAL scan on the state the replay left behind.
    let snapshot_path = dir.path().join("snapshot.bin");
    let data = SnapshotData {
        epoch: grown.epoch(),
        last_seq: batches.len() as u64,
        stats: *grown.stats(),
        instance: grown.instance().clone(),
    };
    for _ in 0..3 {
        recorder.next_op();
        let written = recorder.span("service.snapshot.write", |_| {
            write_snapshot(&snapshot_path, &data)
        });
        let read = recorder.span("service.snapshot.read", |_| read_snapshot(&snapshot_path));
        let atoms = read.ok().flatten().map(|data| data.instance.len());
        outcome.check(
            written.is_ok() && atoms == Some(grown.instance().len()),
            || format!("snapshot round trip: wrote {written:?}, read back {atoms:?} atoms"),
        );
        let scanned = recorder.span("service.wal.replay", |_| {
            wal::replay(&traced_dir.join("always.log"))
        });
        let records = scanned.map_or(0, |scan| scan.records.len());
        outcome.check(records == batches.len(), || {
            format!("WAL scan found {records} records of {}", batches.len())
        });
    }
    outcome.set(
        "service.snapshot.write_ms",
        median_us(&recorder, "service.snapshot.write") / 1e3,
    );
    outcome.set(
        "service.snapshot.read_ms",
        median_us(&recorder, "service.snapshot.read") / 1e3,
    );
    outcome.set(
        "service.wal.replay_ms",
        median_us(&recorder, "service.wal.replay") / 1e3,
    );
    let snapshot_bytes = std::fs::metadata(&snapshot_path).map_or(0, |meta| meta.len());
    outcome.set(
        "service.snapshot.bytes_per_atom",
        snapshot_bytes as f64 / grown.instance().len() as f64,
    );
    shared_layer_metrics(&mut outcome, &mut recorder, &scenario, &engine);

    let request_us = median_us(&recorder, "service.request");
    outcome.note(format!(
        "per-operation breakdown (medians, us): parse {:.1} + WAL append {append_us:.1} + fsync \
         {:.1} + ingest {:.1} + publish (snapshot clone) {publish_us:.1} + render {:.1} + request \
         self {:.1} = request {request_us:.1} in process; client p50 {client_p50_us:.1}, so the \
         in-process spans account for {:.0}% of the client-side median; transport residual \
         (client mean {client_mean_us:.1} - handler mean) {residual_us:.1}; handler p50 \
         {handler_p50_us:.0} (STATS, log-bucketed)",
        median_us(&recorder, "service.protocol.parse_request"),
        append_fsync_us - append_us,
        median_us(&recorder, "datalog.incremental.ingest"),
        median_us(&recorder, "service.protocol.render"),
        stats::median(&recorder.self_times_us("service.request")),
        100.0 * request_us / client_p50_us,
    ));
    write_spans(&mut outcome, "serve_mixed", &recorder);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asks_render_and_expect_the_closed_form() {
        let from = Ask::From {
            chain: 3,
            index: 58,
        };
        assert_eq!(from.query(), "?(Y) :- reach(c3_n58, Y).");
        assert_eq!(
            from.expected(),
            Expected {
                rows: 2,
                chain: Some(3),
                mask: 0b11 << 59
            }
        );
        let into = Ask::Into { chain: 0, index: 2 };
        assert_eq!(into.query(), "?(X) :- reach(X, c0_n2).");
        assert_eq!(into.expected().mask, 0b11);
        let yes = Ask::Point {
            chain: 1,
            from: 4,
            to: 9,
        };
        assert_eq!(yes.query(), "? :- reach(c1_n4, c1_n9).");
        assert_eq!(yes.expected().rows, 1);
        let no = Ask::Point {
            chain: 1,
            from: 9,
            to: 9,
        };
        assert_eq!(no.expected().rows, 0);
    }

    #[test]
    fn loads_are_reproducible_per_seed() {
        let lines = |seed: u64| -> Vec<String> {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut lines: Vec<String> =
                draw_mix(&mut rng, 50).into_iter().map(|r| r.line).collect();
            lines.extend(draw_batches(&mut rng, 5).into_iter().map(|b| b.line));
            lines
        };
        assert_eq!(lines(7), lines(7));
        assert_ne!(lines(7), lines(8));
        let batches = draw_batches(&mut StdRng::seed_from_u64(1), 3);
        assert_eq!(batches[2].facts[0].0, "x8");
        assert!(batches.iter().all(|b| b.facts.len() == FACTS_PER_BATCH));
        let (_, _, index) = batches[0].facts[0];
        assert!(batches[0].derived >= CHAIN_LEN + 1 - index);
    }

    #[test]
    fn stats_fields_are_found_under_their_section() {
        let stats = "OK {\"epoch\":3,\"transport\":{\"requests_failed\":2,\"queries_shed\":0},\
                     \"latency\":{\"query\":{\"count\":9,\"p50_micros\":640},\
                     \"batch\":{\"count\":4,\"p50_micros\":3100}}}";
        assert_eq!(stat(stats, "\"transport\":", "requests_failed"), Some(2.0));
        assert_eq!(stat(stats, "\"query\":", "p50_micros"), Some(640.0));
        assert_eq!(stat(stats, "\"batch\":", "p50_micros"), Some(3100.0));
        assert_eq!(stat(stats, "\"metrics\":", "p50_micros"), None);
    }
}
