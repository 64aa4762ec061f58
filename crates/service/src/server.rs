//! The TCP front door: protocol semantics (`handle_request`, one function
//! per verb) plus the server lifecycle around the readiness-based transport
//! in the `reactor` module. The [crate docs](crate) hold the one copy of
//! the protocol reference, the STATS/METRICS schema, and the concurrency,
//! transport, durability and robustness models.

use crate::durability::DurableEngine;
use crate::failpoints;
use crate::metrics::{self, SlowQueryLog, SlowQueryRecord, Verb, VerbLatencies};
use crate::protocol::{QueryMode, Request, Response};
use crate::reactor::{self, TransportCounters};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vadalog_analysis::{analyze_source, AnalyzerOptions};
use vadalog_datalog::{
    explain_query, DemandAnswer, DemandEngine, DemandError, DemandProfile, IncrementalEngine,
};
use vadalog_model::{
    Atom, BudgetExceeded, ConjunctiveQuery, InstanceSnapshot, Predicate, QueryBudget, Symbol,
};

/// What the server does with programs and facts that fail validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Error-severity diagnostics reject (`VALIDATE` answers
    /// `admissible=false`, facts targeting derived predicates answer
    /// `ERR`); warnings are counted but admitted. The default.
    #[default]
    FailClosed,
    /// Everything is admitted; diagnostics are still emitted and counted.
    WarnOnly,
}

/// Transport limits and query-budget defaults.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Default wall-clock budget for queries that do not pass
    /// `TIMEOUT_MS` (`None`: unlimited).
    pub default_timeout: Option<Duration>,
    /// Default answer-count cap for queries that do not pass `MAX_ROWS`
    /// (`None`: unlimited).
    pub default_max_rows: Option<usize>,
    /// Hard cap on one request line; longer lines answer `ERR` and close.
    pub max_line_bytes: usize,
    /// A started line must complete within this long of its first byte;
    /// the same deadline bounds how long a written-but-unread reply may
    /// stall before its connection is cut.
    pub line_timeout: Duration,
    /// The reactor's tick: epoll wait timeout and timer-wheel granularity
    /// — also how quickly the transport observes a shutdown request.
    pub poll_interval: Duration,
    /// What happens to candidate programs with error-severity diagnostics
    /// and to facts targeting derived predicates.
    pub admission: AdmissionPolicy,
    /// Concurrent-connection cap: accepts beyond it answer
    /// `ERR overloaded retry_ms=<hint>` and close immediately.
    pub max_connections: usize,
    /// Pending job-queue depth cap: requests arriving while this many are
    /// queued (excluding in-flight) are shed with the same structured
    /// overload error; the connection survives. `STATS` and `SHUTDOWN`
    /// are exempt.
    pub max_queue_depth: usize,
    /// Worker-pool size — the in-flight request cap. `0` picks
    /// `max(2, available parallelism)`.
    pub worker_threads: usize,
    /// The `retry_ms` hint carried by `ERR overloaded` responses.
    pub overload_retry_ms: u64,
    /// Clamp each accepted socket's kernel send buffer (`SO_SNDBUF`) to
    /// roughly this many bytes (`None`: kernel autotuning). Bounding the
    /// kernel's absorption makes the stalled-reader cutoff deterministic:
    /// a peer that stops reading backs up into the reactor's user-space
    /// write buffer quickly, where the write-stall deadline can see it.
    pub send_buffer_bytes: Option<usize>,
    /// `QUERY` / `PROFILE` requests whose handler wall time reaches this
    /// many microseconds record a profile summary into the bounded
    /// slow-query log, retrievable via `STATS SLOW=<n>` (`None`: the log
    /// is disabled). Defaults to one second.
    pub slow_query_micros: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            default_timeout: None,
            default_max_rows: None,
            max_line_bytes: 1 << 20,
            line_timeout: Duration::from_secs(30),
            poll_interval: Duration::from_millis(50),
            admission: AdmissionPolicy::FailClosed,
            max_connections: 1024,
            max_queue_depth: 128,
            worker_threads: 0,
            overload_retry_ms: 100,
            send_buffer_bytes: None,
            slow_query_micros: Some(1_000_000),
        }
    }
}

/// Version of the `STATS` JSON schema, reported as the object's first
/// field. Bumped whenever a field is removed or changes meaning; additive
/// fields do not bump it.
pub const STATS_SCHEMA_VERSION: u64 = 1;

const ENGINE_UNAVAILABLE: &str =
    "engine-unavailable (a writer panicked mid-request; queries still serve the last snapshot)";

/// The state shared between the reactor thread and the worker pool.
pub(crate) struct Shared {
    /// The live engine behind its durability layer; ingests serialise here.
    pub(crate) engine: Mutex<DurableEngine>,
    /// The snapshot queries run against, republished after every ingest.
    /// Readers hold the lock only for the `Arc` clone.
    published: RwLock<InstanceSnapshot>,
    /// Worker threads for the sharded CQ kernel.
    threads: usize,
    /// Set by `SHUTDOWN` (or programmatically); the reactor observes it
    /// and drains.
    pub(crate) shutdown: AtomicBool,
    /// Latched when the engine mutex is found poisoned.
    pub(crate) degraded: AtomicBool,
    /// Extensional relations of the serving program, precomputed at start
    /// so `VALIDATE` never takes the engine lock.
    serving_edb: BTreeSet<Predicate>,
    /// Derived predicates of the serving program — fail-closed ingest
    /// rejects facts targeting these (rules own those relations).
    serving_idb: BTreeSet<Predicate>,
    /// The serving schema's arities, for `VALIDATE` arity checks.
    serving_arities: BTreeMap<Predicate, usize>,
    /// Candidate programs rejected by the admission gate.
    pub(crate) programs_rejected: AtomicU64,
    /// Total diagnostics emitted by `VALIDATE` requests and refused ingests.
    pub(crate) diagnostics_emitted: AtomicU64,
    /// The demand-driven (magic-sets) query path, sharing nothing with the
    /// live engine: it evaluates specialised programs against the published
    /// snapshot and caches one compiled program per binding-pattern
    /// signature.
    pub(crate) demand: DemandEngine,
    /// Per-verb latency histograms (p50/p95/p99), reported by `STATS` and
    /// exposed as a Prometheus histogram family by `METRICS`. Every served
    /// request bills exactly one verb, so at quiescence the per-verb
    /// counts sum to `transport.requests_served`.
    pub(crate) latency: VerbLatencies,
    /// Bounded ring of recent slow queries (`STATS SLOW=<n>`).
    pub(crate) slow_log: SlowQueryLog,
    /// Transport-layer accounting (accepts, rejects, sheds), reported by
    /// `STATS` and maintained by the reactor.
    pub(crate) transport: TransportCounters,
    /// Interrupts the reactor's `epoll_wait` — for completions and
    /// programmatic shutdown.
    waker: Arc<epoll::Waker>,
    pub(crate) config: ServerConfig,
}

impl Shared {
    /// Clones the published snapshot handle; a poisoned `published` lock is
    /// recovered with `into_inner` — the guarded value is a plain handle
    /// assignment, which cannot be left half-done.
    fn published_snapshot(&self) -> InstanceSnapshot {
        self.published
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    /// Locks the engine, or latches `degraded` and answers the structured
    /// error when a panicked writer has poisoned the mutex.
    fn lock_engine(&self) -> Result<MutexGuard<'_, DurableEngine>, Response> {
        self.engine.lock().map_err(|_| {
            self.degraded.store(true, Ordering::SeqCst);
            Response::Error(ENGINE_UNAVAILABLE.into())
        })
    }
}

/// Serves one request against the shared state. This is the whole protocol
/// semantics; the reactor transport around it only moves lines. Workers
/// call it off the job queue — it is deliberately transport-free.
pub(crate) fn handle_request(shared: &Shared, verb: Verb, request: Request) -> Response {
    let mut span = vadalog_obs::span("service.request");
    if span.active() {
        span.kv("verb", verb.name());
    }
    dispatch(shared, verb, request).unwrap_or_else(|refusal| refusal)
}

/// One function per verb. `Err` is a reply too — the structured refusal
/// (`ERR engine-unavailable`, a tripped budget) that cut the verb short.
fn dispatch(shared: &Shared, verb: Verb, request: Request) -> Result<Response, Response> {
    Ok(match request {
        Request::Ingest { facts, .. } => ingest(shared, &facts)?,
        Request::Query {
            query,
            timeout_ms,
            max_rows,
            mode,
        }
        | Request::Profile {
            query,
            timeout_ms,
            max_rows,
            mode,
        } => match run_query(shared, verb, &query, timeout_ms, max_rows, mode)? {
            run if verb == Verb::Profile => render_profile(&run),
            run => Response::Answers {
                epoch: run.snapshot.epoch(),
                tuples: run.answers.into_iter().collect(),
            },
        },
        Request::Explain { query, mode } => explain(shared, &query, mode),
        Request::Validate { source } => validate(shared, &source),
        Request::Stats { slow: Some(n) } => slow_queries(shared, n),
        Request::Stats { slow: None } => {
            Response::Ok(metrics::stats_json(&*shared.lock_engine()?, shared))
        }
        Request::Metrics => Response::Framed {
            label: "metrics",
            info: String::new(),
            lines: metrics::exposition(&*shared.lock_engine()?, shared),
        },
        Request::Snapshot => snapshot(shared)?,
        Request::Shutdown => {
            // Normally intercepted inline by the reactor (so it cannot be
            // starved by a saturated worker pool); kept here so the
            // handler's semantics stay complete on their own.
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.waker.wake();
            Response::Ok("bye".into())
        }
    })
}

/// `FACT` / `BATCH`: one ingest, published as a fresh epoch snapshot.
fn ingest(shared: &Shared, facts: &[Atom]) -> Result<Response, Response> {
    // Fail-closed admission: ingest may only feed extensional relations —
    // the engine itself would accept a fact over a derived predicate and
    // silently mix asserted and derived tuples in a rule-owned relation.
    if shared.config.admission == AdmissionPolicy::FailClosed {
        if let Some(atom) = facts
            .iter()
            .find(|a| shared.serving_idb.contains(&a.predicate))
        {
            shared.diagnostics_emitted.fetch_add(1, Ordering::SeqCst);
            return Err(Response::Error(format!(
                "fact targets derived predicate `{}`: ingest may only feed extensional \
                 relations (VLG010)",
                atom.predicate.name()
            )));
        }
    }
    failpoints::check("server.lock").map_err(|error| Response::Error(error.to_string()))?;
    let mut engine = shared.lock_engine()?;
    // A rejected batch left the instance untouched (the engine validates
    // before applying; a durability failure rolls the log back before the
    // engine is touched) — report and keep serving.
    let outcome = engine
        .ingest(facts)
        .map_err(|error| Response::Error(error.to_string()))?;
    // Publish while still holding the engine lock: were the engine released
    // first, a concurrent ingest could publish a *newer* epoch in the gap
    // and this store would regress the served snapshot to a stale one. Lock
    // order is always engine → published, and queries take only
    // `published`, so this cannot deadlock.
    *shared
        .published
        .write()
        .unwrap_or_else(|poisoned| poisoned.into_inner()) = engine.engine().snapshot();
    Ok(Response::ingest(&outcome))
}

/// `SNAPSHOT`: persist the engine state now and truncate the WAL.
fn snapshot(shared: &Shared) -> Result<Response, Response> {
    let mut engine = shared.lock_engine()?;
    engine
        .snapshot_now()
        .map_err(|error| Response::Error(error.to_string()))?;
    Ok(Response::Ok(format!(
        "snapshot epoch={}",
        engine.engine().epoch()
    )))
}

/// Why a request must take the full path (the reason `EXPLAIN` prints), or
/// `None` when the demand path may answer it. The demand engine projects
/// only extensional relations out of the snapshot, so it is sound only
/// while derived relations hold nothing but derived rows — which
/// fail-closed admission guarantees and `WarnOnly` does not.
fn full_path_reason(shared: &Shared, mode: QueryMode) -> Option<&'static str> {
    if mode == QueryMode::Full {
        Some("mode=full requested")
    } else if shared.config.admission != AdmissionPolicy::FailClosed {
        Some("admission=warn-only (derived relations may hold asserted facts)")
    } else {
        None
    }
}

/// What the query step shared by `QUERY` and `PROFILE` produced; the verbs
/// differ only in what they render from it.
struct QueryRun {
    snapshot: InstanceSnapshot,
    answers: BTreeSet<Vec<Symbol>>,
    /// The demand path's bookkeeping (its answers moved into `answers`)
    /// and, for `PROFILE`, its phase breakdown; `None` when the full path
    /// answered.
    demand: Option<(DemandAnswer, Option<DemandProfile>)>,
    /// Wall micros of the full path's evaluation (0 on the demand path,
    /// which times its own phases).
    eval_micros: u64,
    wall_micros: u64,
}

impl QueryRun {
    /// `path=magic cache=<hit|miss>` or `path=full`.
    fn path(&self) -> &'static str {
        match &self.demand {
            Some((answer, _)) if answer.cache_hit => "path=magic cache=hit",
            Some(_) => "path=magic cache=miss",
            None => "path=full",
        }
    }

    /// The slow-log record's `key=value` summary.
    fn summary(&self) -> String {
        let demanded = match &self.demand {
            Some((answer, _)) => format!(" demanded_tuples={}", answer.demanded_tuples),
            None => String::new(),
        };
        format!("{}{demanded} answers={}", self.path(), self.answers.len())
    }
}

/// The query step: published snapshot → budget (request options over the
/// server defaults) → path choice → evaluation → slow-log. `Err` carries
/// the structured budget error. No lock is held while evaluating: either
/// path runs against the frozen snapshot, concurrently with any in-flight
/// ingest.
fn run_query(
    shared: &Shared,
    verb: Verb,
    query: &ConjunctiveQuery,
    timeout_ms: Option<u64>,
    max_rows: Option<usize>,
    mode: QueryMode,
) -> Result<QueryRun, Response> {
    let snapshot = shared.published_snapshot();
    let budget = QueryBudget {
        timeout: timeout_ms
            .map(Duration::from_millis)
            .or(shared.config.default_timeout),
        max_rows: max_rows.or(shared.config.default_max_rows),
    };
    let budget_error = |exceeded| {
        Response::Error(match exceeded {
            BudgetExceeded::Deadline => format!(
                "deadline timeout_ms={}",
                budget.timeout.map_or(0, |t| t.as_millis() as u64)
            ),
            BudgetExceeded::RowLimit => {
                format!("row-limit max_rows={}", budget.max_rows.unwrap_or(0))
            }
            BudgetExceeded::Cancelled => "cancelled".into(),
        })
    };
    let started = Instant::now();
    // A demand fallback (all-free query, EDB-only query, name collision, …)
    // silently takes the full path, while a tripped budget is final — full
    // evaluation could only be slower. The profiled demand answer is
    // bit-identical to the unprofiled one.
    let mut demand = None;
    if full_path_reason(shared, mode).is_none() {
        let base = snapshot.instance();
        let answered = if verb == Verb::Profile {
            shared
                .demand
                .answer_profiled(base, query, &budget)
                .map(|(answer, profile)| (answer, Some(profile)))
        } else {
            shared
                .demand
                .answer(base, query, &budget)
                .map(|answer| (answer, None))
        };
        match answered {
            Ok(answered) => demand = Some(answered),
            Err(DemandError::Fallback(_)) => {}
            Err(DemandError::Budget(exceeded)) => return Err(budget_error(exceeded)),
        }
    }
    let (answers, eval_micros) = match &mut demand {
        Some((answer, _)) => (std::mem::take(&mut answer.answers), 0),
        None => {
            let eval_started = Instant::now();
            let answers = if budget.is_unlimited() {
                query.evaluate_with_threads(&snapshot, shared.threads)
            } else {
                query
                    .evaluate_budgeted(&snapshot, shared.threads, &budget)
                    .map_err(budget_error)?
            };
            (answers, eval_started.elapsed().as_micros() as u64)
        }
    };
    let run = QueryRun {
        snapshot,
        answers,
        demand,
        eval_micros,
        wall_micros: started.elapsed().as_micros() as u64,
    };
    if shared
        .config
        .slow_query_micros
        .is_some_and(|threshold| run.wall_micros >= threshold)
    {
        shared.slow_log.push(SlowQueryRecord {
            wall_micros: run.wall_micros,
            verb: verb.name(),
            query: query.to_string(),
            summary: run.summary(),
        });
    }
    Ok(run)
}

/// `PROFILE`: the per-phase breakdown instead of the tuples.
fn render_profile(run: &QueryRun) -> Response {
    let (wall, answers) = (run.wall_micros, run.answers.len());
    let info = format!(
        "answers={answers} epoch={} {}",
        run.snapshot.epoch(),
        run.path()
    );
    let mut lines = Vec::new();
    match &run.demand {
        Some((answer, profile)) => {
            let profile = profile.as_ref().expect("PROFILE runs the profiled path");
            lines.push(format!(
                "phase=rewrite wall_micros={} cache={}",
                profile.rewrite_micros,
                if answer.cache_hit { "hit" } else { "miss" }
            ));
            lines.push(format!(
                "phase=seed wall_micros={} seed_facts={}",
                profile.seed_micros, profile.seed_facts
            ));
            for (stratum, rounds) in profile.strata.iter().enumerate() {
                for round in rounds {
                    lines.push(format!(
                        "phase=stratum stratum={stratum} round={} wall_micros={} \
                         delta_rows={} derived_rows={} join_probes={} rows_prededuped={}",
                        round.round,
                        round.wall_micros,
                        round.delta_rows,
                        round.derived_rows,
                        round.join_probes,
                        round.rows_prededuped
                    ));
                }
            }
            lines.push(format!(
                "phase=answer wall_micros={}",
                profile.answer_micros
            ));
            let stats = profile.stats;
            lines.push(format!(
                "totals wall_micros={wall} joins_evaluated={} join_probes={} \
                 composite_probes={} misses_filtered={} rows_prededuped={} \
                 demanded_tuples={} scratch_atoms={} answers={answers}",
                stats.joins_evaluated,
                stats.join_probes,
                stats.composite_probes,
                stats.probe_misses_filtered,
                stats.rows_prededuped,
                answer.demanded_tuples,
                answer.scratch_atoms,
            ));
        }
        None => {
            lines.push(format!("phase=answer wall_micros={}", run.eval_micros));
            lines.push(format!(
                "totals wall_micros={wall} materialised_atoms={} answers={answers}",
                run.snapshot.instance().len(),
            ));
        }
    }
    Response::Framed {
        label: "profile",
        info,
        lines,
    }
}

/// `EXPLAIN`: plan-only — nothing is evaluated and no lock is taken. The
/// demand cache is consulted (and warmed) so the decision line can report
/// hit/miss truthfully for the *next* query of this binding pattern.
fn explain(shared: &Shared, query: &ConjunctiveQuery, mode: QueryMode) -> Response {
    let snapshot = shared.published_snapshot();
    let full_reason = full_path_reason(shared, mode);
    let cache_hit = match full_reason {
        None => shared.demand.specialised(query).ok().map(|(_, hit)| hit),
        Some(_) => None,
    };
    let report = explain_query(
        shared.demand.program(),
        snapshot.instance(),
        query,
        full_reason,
        cache_hit,
    );
    Response::Framed {
        label: "explain",
        info: format!("epoch={} magic={}", snapshot.epoch(), report.magic),
        lines: report.lines,
    }
}

/// `VALIDATE`: a dry run against the serving schema — no engine lock, no
/// state change beyond the counters.
fn validate(shared: &Shared, source: &str) -> Response {
    let options = AnalyzerOptions {
        require_datalog: true,
        known_edb: shared.serving_edb.clone(),
        known_arities: shared.serving_arities.clone(),
        query: None,
    };
    let (_, report) = analyze_source(source, &options);
    shared
        .diagnostics_emitted
        .fetch_add(report.diagnostics.len() as u64, Ordering::SeqCst);
    let admissible = report.admissible() || shared.config.admission == AdmissionPolicy::WarnOnly;
    if !admissible {
        shared.programs_rejected.fetch_add(1, Ordering::SeqCst);
    }
    Response::Diagnostics {
        admissible,
        diagnostics: report.diagnostics,
    }
}

/// `STATS SLOW=<n>`: the newest `n` slow-query records.
fn slow_queries(shared: &Shared, n: usize) -> Response {
    Response::Framed {
        label: "slow",
        info: format!(
            "threshold_micros={}",
            shared
                .config
                .slow_query_micros
                .map_or_else(|| "disabled".to_string(), |t| t.to_string())
        ),
        lines: shared.slow_log.recent(n),
    }
}

/// A running live-materialisation server: one reactor thread multiplexing
/// every connection over epoll, plus its worker pool, serving the shared
/// engine.
pub struct LiveServer {
    addr: SocketAddr,
    reactor: JoinHandle<()>,
    shared: Arc<Shared>,
}

impl LiveServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// serving the given engine **without durability** and with default
    /// limits. The engine may already hold a materialisation — its current
    /// state is published as the first snapshot.
    pub fn start(engine: IncrementalEngine, addr: impl ToSocketAddrs) -> io::Result<LiveServer> {
        LiveServer::start_with(
            DurableEngine::volatile(engine),
            addr,
            ServerConfig::default(),
        )
    }

    /// Binds `addr` and serves a (possibly durable, possibly recovered)
    /// engine under the given transport limits and budget defaults.
    pub fn start_with(
        engine: DurableEngine,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<LiveServer> {
        // Defensive gate: the serving program itself must pass validation.
        // `IncrementalEngine::new` already guarantees a Datalog program, so
        // this only fires for genuinely broken hand-built programs — but a
        // fail-closed server refuses to come up serving one.
        let program = engine.engine().program();
        let serving_edb = program.extensional_predicates();
        let serving_idb = program.intensional_predicates();
        let serving_arities: BTreeMap<Predicate, usize> = program
            .schema()
            .into_iter()
            .filter_map(|p| program.arity_of(p).map(|a| (p, a)))
            .collect();
        let report = vadalog_analysis::analyze(program);
        if report.has_errors() && config.admission == AdmissionPolicy::FailClosed {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "serving program fails validation with {} error(s); first: {}",
                    report.count(vadalog_analysis::Severity::Error),
                    report
                        .diagnostics
                        .iter()
                        .find(|d| d.severity == vadalog_analysis::Severity::Error)
                        .map(|d| d.to_string())
                        .unwrap_or_default(),
                ),
            ));
        }
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let threads = engine.engine().threads();
        let published = RwLock::new(engine.engine().snapshot());
        let demand = DemandEngine::new(program.clone()).with_threads(threads);
        let waker = Arc::new(epoll::Waker::new()?);
        let shared = Arc::new(Shared {
            engine: Mutex::new(engine),
            published,
            threads,
            shutdown: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
            serving_edb,
            serving_idb,
            serving_arities,
            programs_rejected: AtomicU64::new(0),
            diagnostics_emitted: AtomicU64::new(0),
            demand,
            latency: VerbLatencies::default(),
            slow_log: SlowQueryLog::default(),
            transport: TransportCounters::default(),
            waker: Arc::clone(&waker),
            config,
        });
        let reactor = std::thread::spawn({
            let shared = Arc::clone(&shared);
            move || reactor::run(shared, listener, waker)
        });
        Ok(LiveServer {
            addr,
            reactor,
            shared,
        })
    }

    /// Recovers the state persisted in `config.dir` (snapshot + WAL tail
    /// replay, bit-identical to the uncrashed engine) into `engine` — a
    /// fresh engine over the same program — and starts serving it. Returns
    /// the running server and the [`RecoveryReport`](crate::durability::RecoveryReport)
    /// describing what was restored.
    pub fn recover(
        engine: IncrementalEngine,
        config: crate::durability::DurabilityConfig,
        addr: impl ToSocketAddrs,
        server_config: ServerConfig,
    ) -> Result<(LiveServer, crate::durability::RecoveryReport), crate::durability::ServiceError>
    {
        let (durable, report) = DurableEngine::recover(engine, config)?;
        let server = LiveServer::start_with(durable, addr, server_config)?;
        Ok((server, report))
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown programmatically — equivalent to a `SHUTDOWN`
    /// request: the listener closes, in-flight requests complete and
    /// flush, the WAL is flushed and the clean-shutdown marker appended.
    /// The eventfd waker interrupts the reactor's wait immediately.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
    }

    /// Waits for the server to stop: the reactor drains every connection,
    /// joins its worker pool, and closes the WAL cleanly.
    pub fn join(self) {
        let _ = self.reactor.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, BufWriter, Write};
    use std::net::TcpStream;
    use vadalog_model::parser::parse_rules;

    const TWO_CLOSURES: &str = "t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).\n\
                                s(X, Y) :- link(X, Y).\n s(X, Z) :- link(X, Y), s(Y, Z).";

    fn start(engine: IncrementalEngine) -> LiveServer {
        LiveServer::start(engine, "127.0.0.1:0").expect("bind loopback")
    }

    /// A minimal blocking protocol client for the tests.
    pub(crate) struct Client {
        reader: BufReader<TcpStream>,
        writer: BufWriter<TcpStream>,
    }

    impl Client {
        pub(crate) fn connect(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).expect("connect to live server");
            let reader = BufReader::new(stream.try_clone().expect("clone stream"));
            Client {
                reader,
                writer: BufWriter::new(stream),
            }
        }

        /// Sends one request line and reads the full response: one line, or
        /// — for count-framed responses — the header plus exactly as many
        /// body lines as the header's count announces plus the `END` line
        /// (framing by count, as the protocol requires). The counted
        /// headers are whitelisted: single-line acks like `OK inserted=3`
        /// must not be mistaken for frames.
        pub(crate) fn send(&mut self, line: &str) -> Vec<String> {
            self.writer
                .write_all(format!("{line}\n").as_bytes())
                .expect("write request");
            self.writer.flush().expect("flush request");
            let mut lines = vec![self.read_line()];
            let counted = [
                "answers",
                "diagnostics",
                "explain",
                "profile",
                "metrics",
                "slow",
            ]
            .iter()
            .find_map(|label| lines[0].strip_prefix(&format!("OK {label}=")));
            if let Some(rest) = counted {
                let count: usize = rest
                    .split_whitespace()
                    .next()
                    .and_then(|n| n.parse().ok())
                    .expect("body-line count in header");
                for _ in 0..count {
                    let body = self.read_line();
                    lines.push(body);
                }
                let end = self.read_line();
                assert_eq!(end, "END", "counted responses must terminate with END");
                lines.push(end);
            }
            lines
        }

        fn read_line(&mut self) -> String {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("read response");
            line.trim_end_matches('\n').to_string()
        }
    }

    fn engine() -> IncrementalEngine {
        IncrementalEngine::new(parse_rules(TWO_CLOSURES).unwrap()).unwrap()
    }

    #[test]
    fn full_protocol_round_trip_over_loopback() {
        let server = start(engine());
        let addr = server.addr();
        let mut client = Client::connect(addr);

        let batch = client.send("BATCH edge(a, b). edge(b, c). link(p, q).");
        // t-stratum: seed + 2 semi-naive rounds; s-stratum: seed + 1.
        assert_eq!(
            batch,
            vec!["OK inserted=3 duplicate=0 derived=4 strata_skipped=0 rounds=5 epoch=1"]
        );
        let fact = client.send("FACT edge(c, d).");
        assert!(fact[0].starts_with("OK inserted=1 "), "{fact:?}");
        assert!(
            fact[0].contains("strata_skipped=1"),
            "link stratum untouched: {fact:?}"
        );

        let answers = client.send("QUERY ?(X) :- t(X, d).");
        assert_eq!(answers, vec!["OK answers=3 epoch=2", "a", "b", "c", "END"]);
        let pairs = client.send("QUERY ?(X, Y) :- s(X, Y).");
        assert_eq!(pairs, vec!["OK answers=1 epoch=2", "p q", "END"]);

        let stats = client.send("STATS");
        assert!(
            stats[0].starts_with("OK {\"schema_version\":1,\"epoch\":2,"),
            "{stats:?}"
        );
        assert!(stats[0].contains("\"rounds_incremental\""), "{stats:?}");
        assert!(
            stats[0].contains("\"wal_records\":0"),
            "volatile server: {stats:?}"
        );
        assert!(stats[0].contains("\"degraded\":false"), "{stats:?}");

        // Unknown and malformed requests keep the connection alive.
        assert!(client.send("NOPE")[0].starts_with("ERR unknown command"));
        assert!(client.send("QUERY ?(X) :- ")[0].starts_with("ERR "));
        assert!(client.send("FACT edge(a b).")[0].starts_with("ERR "));
        let still = client.send("QUERY ? :- t(a, d).");
        assert_eq!(still, vec!["OK answers=1 epoch=2", "", "END"]);

        // A constant that renders exactly as the terminator keyword: the
        // count-based framing keeps the answer distinguishable from `END`.
        client.send("FACT edge(\"END\", zz).");
        let tricky = client.send("QUERY ?(X) :- edge(X, zz).");
        assert_eq!(tricky, vec!["OK answers=1 epoch=3", "END", "END"]);

        assert_eq!(client.send("SHUTDOWN"), vec!["OK bye"]);
        drop(client);
        server.join();
    }

    #[test]
    fn rejected_batches_leave_the_service_fully_usable() {
        let server = start(engine().with_row_capacity(3));
        let mut client = Client::connect(server.addr());

        client.send("BATCH edge(a, b). edge(b, c).");
        // 2 existing + 2 incoming > 3: rejected as a protocol error, not a
        // dead server — and not a half-applied batch.
        let err = client.send("BATCH edge(c, d). edge(d, e).");
        assert!(err[0].starts_with("ERR relation `edge` is full"), "{err:?}");
        let answers = client.send("QUERY ?(X, Y) :- t(X, Y).");
        assert_eq!(answers[0], "OK answers=3 epoch=1", "{answers:?}");

        // The service keeps ingesting up to the budget.
        let ok = client.send("FACT edge(c, d).");
        assert!(ok[0].starts_with("OK inserted=1 "), "{ok:?}");
        let answers = client.send("QUERY ?(X) :- t(a, X).");
        assert_eq!(answers, vec!["OK answers=3 epoch=2", "b", "c", "d", "END"]);

        client.send("SHUTDOWN");
        drop(client);
        server.join();
    }

    #[test]
    fn queries_are_served_from_epoch_snapshots_across_connections() {
        let server = start(engine());
        let addr = server.addr();
        let mut writer_conn = Client::connect(addr);
        let mut reader_conn = Client::connect(addr);

        writer_conn.send("FACT edge(a, b).");
        let before = reader_conn.send("QUERY ?(X, Y) :- t(X, Y).");
        assert_eq!(before[0], "OK answers=1 epoch=1");

        // A second connection's ingest is visible to the first reader's
        // next query, with a bumped epoch.
        writer_conn.send("FACT edge(b, c).");
        let after = reader_conn.send("QUERY ?(X, Y) :- t(X, Y).");
        assert_eq!(after[0], "OK answers=3 epoch=2");

        // Concurrent readers all see a consistent snapshot.
        let handles: Vec<std::thread::JoinHandle<String>> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr);
                    c.send("QUERY ?(X, Y) :- t(X, Y).")[0].clone()
                })
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), "OK answers=3 epoch=2");
        }

        reader_conn.send("SHUTDOWN");
        drop(reader_conn);
        drop(writer_conn);
        server.join();
    }

    #[test]
    fn query_budgets_answer_structured_errors_and_keep_serving() {
        let server = start(engine());
        let addr = server.addr();
        let mut client = Client::connect(addr);
        client.send("BATCH edge(a, b). edge(b, c). edge(c, d).");

        // A zero deadline always trips; the error names the limit.
        let timed_out = client.send("QUERY TIMEOUT_MS=0 ?(X, Y) :- t(X, Y).");
        assert_eq!(timed_out, vec!["ERR deadline timeout_ms=0"]);
        // A row cap below the answer count trips.
        let capped = client.send("QUERY MAX_ROWS=2 ?(X, Y) :- t(X, Y).");
        assert_eq!(capped, vec!["ERR row-limit max_rows=2"]);

        // The connection and the engine remain fully usable afterwards.
        let ok = client.send("QUERY MAX_ROWS=100 ?(X, Y) :- t(X, Y).");
        assert_eq!(ok[0], "OK answers=6 epoch=1");
        let unlimited = client.send("QUERY ?(X) :- t(a, X).");
        assert_eq!(
            unlimited,
            vec!["OK answers=3 epoch=1", "b", "c", "d", "END"]
        );
        let ingest = client.send("FACT edge(d, e).");
        assert!(ingest[0].starts_with("OK inserted=1 "), "{ingest:?}");

        client.send("SHUTDOWN");
        drop(client);
        server.join();
    }

    #[test]
    fn magic_queries_hit_the_specialised_program_cache() {
        let server = start(engine());
        let mut client = Client::connect(server.addr());
        client.send("BATCH edge(a, b). edge(b, c). edge(c, d). link(p, q).");

        // A bound query through the demand path answers exactly what the
        // full path answers.
        let full = client.send("QUERY MODE=FULL ?(X) :- t(a, X).");
        let magic = client.send("QUERY MODE=MAGIC ?(X) :- t(a, X).");
        assert_eq!(full, vec!["OK answers=3 epoch=1", "b", "c", "d", "END"]);
        assert_eq!(magic, full);

        // The second same-pattern query (different constant) skips the
        // rewrite + compile: one cache hit, two magic queries.
        let again = client.send("QUERY MODE=MAGIC ?(X) :- t(b, X).");
        assert_eq!(again, vec!["OK answers=2 epoch=1", "c", "d", "END"]);
        let stats = client.send("STATS");
        assert!(stats[0].contains("\"magic_queries\":2"), "{stats:?}");
        assert!(stats[0].contains("\"magic_cache_hits\":1"), "{stats:?}");
        assert!(
            !stats[0].contains("\"demanded_tuples\":0,"),
            "the magic path derived something: {stats:?}"
        );
        assert!(
            stats[0].contains("\"full_materialised_tuples\":"),
            "{stats:?}"
        );

        // AUTO takes the magic path for bound queries too…
        let auto = client.send("QUERY ?(X) :- t(c, X).");
        assert_eq!(auto, vec!["OK answers=1 epoch=1", "d", "END"]);
        // …and falls back to full evaluation when the query is all-free,
        // without disturbing the magic counters.
        let free = client.send("QUERY ?(X, Y) :- s(X, Y).");
        assert_eq!(free, vec!["OK answers=1 epoch=1", "p q", "END"]);
        let stats = client.send("STATS");
        assert!(stats[0].contains("\"magic_queries\":3"), "{stats:?}");
        assert!(stats[0].contains("\"magic_cache_hits\":2"), "{stats:?}");

        // Per-verb latency accounting saw every QUERY, the FACT-free
        // session and exactly one BATCH.
        assert!(
            stats[0].contains("\"latency\":{\"query\":{\"count\":5,"),
            "{stats:?}"
        );
        assert!(stats[0].contains("\"fact\":{\"count\":0,"), "{stats:?}");
        assert!(stats[0].contains("\"batch\":{\"count\":1,"), "{stats:?}");

        client.send("SHUTDOWN");
        drop(client);
        server.join();
    }

    #[test]
    fn durable_server_recovers_its_materialisation_after_restart() {
        let dir =
            std::env::temp_dir().join(format!("vadalog-server-recover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = crate::durability::DurabilityConfig::new(&dir);
        let durable = DurableEngine::create(engine(), config.clone()).unwrap();
        let server =
            LiveServer::start_with(durable, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.addr());
        client.send("BATCH edge(a, b). edge(b, c).");
        let stats = client.send("STATS");
        assert!(stats[0].contains("\"wal_records\":1"), "{stats:?}");
        client.send("SHUTDOWN");
        drop(client);
        server.join();

        // "Restart": a fresh engine over the same program recovers the
        // materialisation from disk instead of re-deriving from scratch.
        let (server, report) =
            LiveServer::recover(engine(), config, "127.0.0.1:0", ServerConfig::default()).unwrap();
        assert!(
            report.clean_shutdown,
            "the shutdown above flushed and marked the WAL"
        );
        let mut client = Client::connect(server.addr());
        let answers = client.send("QUERY ?(X) :- t(a, X).");
        assert_eq!(answers, vec!["OK answers=2 epoch=1", "b", "c", "END"]);
        // The SNAPSHOT verb persists on demand and truncates the log.
        assert_eq!(client.send("SNAPSHOT"), vec!["OK snapshot epoch=1"]);
        let stats = client.send("STATS");
        assert!(stats[0].contains("\"snapshots_written\":1"), "{stats:?}");
        client.send("SHUTDOWN");
        drop(client);
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_gate_rejects_bad_programs_and_keeps_serving() {
        let server = start(engine());
        let mut client = Client::connect(server.addr());
        client.send("BATCH edge(a, b). edge(b, c).");

        // A candidate writing into the serving EDB: rejected (VLG010) and
        // the rejection is visible in STATS — but nothing about the live
        // engine changed.
        let verdict = client.send("VALIDATE edge(Y, X) :- edge(X, Y).");
        assert!(verdict[0].starts_with("OK diagnostics="), "{verdict:?}");
        assert!(verdict[0].ends_with("admissible=false"), "{verdict:?}");
        assert!(
            verdict.iter().any(|l| l.starts_with("VLG010 error")),
            "EDB collision named: {verdict:?}"
        );
        assert_eq!(*verdict.last().unwrap(), "END");
        // Every reported line round-trips through the protocol parser.
        for line in &verdict[1..verdict.len() - 1] {
            let parsed = crate::protocol::parse_diagnostic_line(line).unwrap();
            assert_eq!(parsed.to_string(), *line);
        }

        // A clean candidate over the serving schema is admissible.
        let clean = client.send("VALIDATE reach(X, Y) :- edge(X, Y).");
        assert!(clean[0].ends_with("admissible=true"), "{clean:?}");

        // An arity conflict with the serving schema is an error.
        let arity = client.send("VALIDATE out(X) :- edge(X).");
        assert!(arity[0].ends_with("admissible=false"), "{arity:?}");
        assert!(
            arity.iter().any(|l| l.starts_with("VLG001 error")),
            "{arity:?}"
        );

        // The rejected programs left the engine fully serviceable.
        let ok = client.send("FACT edge(c, d).");
        assert!(ok[0].starts_with("OK inserted=1 "), "{ok:?}");
        let answers = client.send("QUERY ?(X) :- t(a, X).");
        assert_eq!(answers, vec!["OK answers=3 epoch=2", "b", "c", "d", "END"]);

        // STATS counts both rejections and every diagnostic emitted.
        let stats = client.send("STATS");
        assert!(stats[0].contains("\"programs_rejected\":2"), "{stats:?}");
        assert!(stats[0].contains("\"diagnostics_emitted\":"), "{stats:?}");
        assert!(
            !stats[0].contains("\"diagnostics_emitted\":0,"),
            "{stats:?}"
        );

        client.send("SHUTDOWN");
        drop(client);
        server.join();
    }

    #[test]
    fn fail_closed_ingest_refuses_facts_over_derived_predicates() {
        let server = start(engine());
        let mut client = Client::connect(server.addr());
        client.send("FACT edge(a, b).");

        // t is rule-owned: asserting into it would mix asserted and
        // derived tuples, so the fail-closed default refuses.
        let refused = client.send("FACT t(a, z).");
        assert!(
            refused[0].starts_with("ERR fact targets derived predicate `t`"),
            "{refused:?}"
        );
        let answers = client.send("QUERY ?(X, Y) :- t(X, Y).");
        assert_eq!(
            answers[0], "OK answers=1 epoch=1",
            "the ingest never happened: {answers:?}"
        );

        client.send("SHUTDOWN");
        drop(client);
        server.join();
    }

    #[test]
    fn warn_only_admission_admits_everything_but_still_counts() {
        let config = ServerConfig {
            admission: AdmissionPolicy::WarnOnly,
            ..ServerConfig::default()
        };
        let server =
            LiveServer::start_with(DurableEngine::volatile(engine()), "127.0.0.1:0", config)
                .unwrap();
        let mut client = Client::connect(server.addr());

        // The same EDB-collision candidate is admitted under WarnOnly…
        let verdict = client.send("VALIDATE edge(Y, X) :- edge(X, Y).");
        assert!(verdict[0].ends_with("admissible=true"), "{verdict:?}");
        // …and legacy ingest behaviour (facts into derived relations) is
        // preserved.
        client.send("FACT edge(a, b).");
        let asserted = client.send("FACT t(q, r).");
        assert!(asserted[0].starts_with("OK inserted=1 "), "{asserted:?}");

        // The asserted row lives in a derived relation, which the demand
        // path never reads: every mode answers from the materialisation.
        let full = client.send("QUERY MODE=FULL ?(Y) :- t(q, Y).");
        assert_eq!(full, vec!["OK answers=1 epoch=2", "r", "END"]);
        assert_eq!(client.send("QUERY ?(Y) :- t(q, Y)."), full);
        assert_eq!(client.send("QUERY MODE=MAGIC ?(Y) :- t(q, Y)."), full);
        let explain = client.send("EXPLAIN ?(Y) :- t(q, Y).");
        assert!(explain[0].ends_with("magic=false"), "{explain:?}");
        assert!(
            explain
                .iter()
                .any(|l| l.starts_with("decision full reason=admission=warn-only")),
            "{explain:?}"
        );

        let stats = client.send("STATS");
        assert!(stats[0].contains("\"programs_rejected\":0"), "{stats:?}");
        assert!(stats[0].contains("\"magic_queries\":0"), "{stats:?}");

        client.send("SHUTDOWN");
        drop(client);
        server.join();
    }

    /// Checks a METRICS payload against the Prometheus text exposition
    /// format: comments are `# HELP` / `# TYPE`, samples are
    /// `name[{labels}] value`, histogram buckets are cumulative and end at
    /// `+Inf` with the series count.
    fn validate_exposition(lines: &[String]) {
        let mut typed: BTreeMap<String, String> = BTreeMap::new();
        let mut bucket_last: BTreeMap<String, u64> = BTreeMap::new();
        for line in lines {
            if let Some(rest) = line.strip_prefix("# ") {
                let mut parts = rest.splitn(3, ' ');
                let keyword = parts.next().unwrap_or_default();
                let name = parts.next().unwrap_or_default();
                let trailer = parts.next().unwrap_or_default();
                assert!(
                    keyword == "HELP" || keyword == "TYPE",
                    "unknown comment keyword: {line}"
                );
                assert!(
                    !name.is_empty() && !trailer.is_empty(),
                    "bare comment: {line}"
                );
                if keyword == "TYPE" {
                    assert!(
                        trailer == "counter" || trailer == "gauge" || trailer == "histogram",
                        "unknown type: {line}"
                    );
                    typed.insert(name.to_string(), trailer.to_string());
                }
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample has a value");
            let name = series.split('{').next().unwrap();
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name: {line}"
            );
            let value: u64 = value
                .parse()
                .unwrap_or_else(|_| panic!("bad value: {line}"));
            let family = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .unwrap_or(name);
            assert!(
                typed.contains_key(family),
                "sample without a TYPE comment: {line}"
            );
            if name.ends_with("_bucket") {
                // Cumulative within one labelled series: monotone counts.
                let key = series.split(",le=").next().unwrap().to_string();
                let last = bucket_last.entry(key).or_insert(0);
                assert!(value >= *last, "bucket counts regressed: {line}");
                *last = value;
                assert!(series.contains("le=\""), "bucket without le: {line}");
            }
        }
        // Every histogram's +Inf bucket equals its _count sample.
        for line in lines {
            if let Some((series, value)) = line.rsplit_once(' ') {
                if series.contains("le=\"+Inf\"") {
                    let count_series = series
                        .replace("_bucket", "_count")
                        .split(",le=")
                        .next()
                        .unwrap()
                        .to_string()
                        + "}";
                    let count_line = lines
                        .iter()
                        .find(|l| l.starts_with(&format!("{count_series} ")))
                        .unwrap_or_else(|| panic!("no _count for {series}"));
                    assert_eq!(count_line.rsplit_once(' ').unwrap().1, value, "{series}");
                }
            }
        }
    }

    #[test]
    fn explain_profile_and_metrics_round_trip_over_loopback() {
        let server = start(engine());
        let mut client = Client::connect(server.addr());
        client.send("BATCH edge(a, b). edge(b, c). edge(c, d). link(p, q).");

        // EXPLAIN returns the plan without evaluating: the adornment, the
        // magic decision, the rewrite and the join plan with estimates.
        let explain = client.send("EXPLAIN ?(X) :- t(a, X).");
        assert!(
            explain[0].starts_with("OK explain=") && explain[0].ends_with("epoch=1 magic=true"),
            "{explain:?}"
        );
        assert!(explain.iter().any(|l| l == "adornment t^bf"), "{explain:?}");
        assert!(
            explain
                .iter()
                .any(|l| l.starts_with("decision magic seeds=1 cache=miss")),
            "{explain:?}"
        );
        assert!(
            explain.iter().any(|l| l.starts_with("rewrite ")),
            "{explain:?}"
        );
        assert!(
            explain
                .iter()
                .any(|l| l.starts_with("plan step=0 atom=t/2 ") && l.contains(" est=")),
            "{explain:?}"
        );
        // Nothing ran: no magic query was answered yet.
        let stats = client.send("STATS");
        assert!(stats[0].contains("\"magic_queries\":0"), "{stats:?}");

        // The EXPLAIN warmed the specialised-program cache.
        let again = client.send("EXPLAIN ?(X) :- t(b, X).");
        assert!(
            again
                .iter()
                .any(|l| l.starts_with("decision magic seeds=1 cache=hit")),
            "{again:?}"
        );
        let full = client.send("EXPLAIN MODE=FULL ?(X) :- t(a, X).");
        assert!(full[0].ends_with("magic=false"), "{full:?}");
        assert!(
            full.iter()
                .any(|l| l == "decision full reason=mode=full requested"),
            "{full:?}"
        );
        // EXPLAIN never evaluates, so evaluation budgets are rejected.
        let bad = client.send("EXPLAIN TIMEOUT_MS=5 ?(X) :- t(a, X).");
        assert!(
            bad[0].starts_with("ERR EXPLAIN does not evaluate"),
            "{bad:?}"
        );

        // PROFILE evaluates and returns the per-phase breakdown instead of
        // the tuples; the answer count matches what QUERY returns.
        let profile = client.send("PROFILE ?(X) :- t(a, X).");
        assert!(
            profile[0].starts_with("OK profile=")
                && profile[0].contains("answers=3 epoch=1 path=magic cache=hit"),
            "{profile:?}"
        );
        assert!(
            profile.iter().any(|l| l.starts_with("phase=rewrite ")),
            "{profile:?}"
        );
        assert!(
            profile
                .iter()
                .any(|l| l.starts_with("phase=seed ") && l.contains("seed_facts=1")),
            "{profile:?}"
        );
        assert!(
            profile.iter().any(|l| l.starts_with("phase=stratum ")),
            "{profile:?}"
        );
        let totals = profile
            .iter()
            .find(|l| l.starts_with("totals "))
            .expect("totals line");
        assert!(
            totals.contains("answers=3") && totals.contains("joins_evaluated="),
            "{totals}"
        );
        // Per-round derived rows sum to the demanded total.
        let derived_sum: u64 = profile
            .iter()
            .filter(|l| l.starts_with("phase=stratum "))
            .map(|l| field(l, "derived_rows"))
            .sum();
        assert_eq!(derived_sum, field(totals, "demanded_tuples"), "{profile:?}");

        // An all-free query takes the timed full path.
        let full_profile = client.send("PROFILE ?(X, Y) :- s(X, Y).");
        assert!(full_profile[0].contains("path=full"), "{full_profile:?}");
        assert!(
            full_profile
                .iter()
                .any(|l| l.starts_with("totals ") && l.contains("answers=1")),
            "{full_profile:?}"
        );
        // Budgets behave exactly like QUERY's.
        let timed_out = client.send("PROFILE TIMEOUT_MS=0 ?(X) :- t(a, X).");
        assert_eq!(timed_out, vec!["ERR deadline timeout_ms=0"]);

        // METRICS emits valid Prometheus text exposition.
        let metrics = client.send("METRICS");
        assert!(metrics[0].starts_with("OK metrics="), "{metrics:?}");
        let body = &metrics[1..metrics.len() - 1];
        validate_exposition(body);
        assert!(body.iter().any(|l| l == "vadalog_epoch 1"), "{metrics:?}");
        assert!(
            body.iter()
                .any(|l| l.starts_with("vadalog_request_duration_micros_count{verb=\"query\"}")),
            "{metrics:?}"
        );

        client.send("SHUTDOWN");
        drop(client);
        server.join();
    }

    /// The keys of the JSON object that opens right after `anchor`, in
    /// order (nested objects are skipped; values here are never strings).
    fn object_keys(json: &str, anchor: &str) -> Vec<String> {
        let body = &json[json.find(anchor).expect("anchor present") + anchor.len()..];
        let (mut depth, mut keys) = (0usize, Vec::new());
        for (at, c) in body.char_indices() {
            match c {
                '{' => depth += 1,
                '}' if depth == 1 => break,
                '}' => depth -= 1,
                '"' if depth == 1 && body[..at].ends_with(['{', ',']) => {
                    let key = &body[at + 1..];
                    keys.push(key[..key.find('"').expect("closing quote")].to_string());
                }
                _ => {}
            }
        }
        keys
    }

    /// Clients parse `STATS` by key and, in places, by position: the keys
    /// that existed at schema version 1 keep their names and their order.
    #[test]
    fn stats_keys_clients_parse_keep_their_names_and_order() {
        let server = start(engine());
        let mut client = Client::connect(server.addr());
        let stats = client.send("STATS").remove(0);
        let pinned = [
            "schema_version",
            "epoch",
            "atoms",
            "derived_atoms",
            "iterations",
            "rounds_incremental",
            "strata_skipped",
            "joins_evaluated",
            "join_probes",
            "index_bytes",
            "wal_records",
            "wal_bytes",
            "snapshots_written",
            "snapshot_failures",
            "programs_rejected",
            "diagnostics_emitted",
            "magic_queries",
            "magic_cache_hits",
            "demanded_tuples",
            "full_materialised_tuples",
            "slow_queries",
            "transport",
            "latency",
            "degraded",
        ];
        // New keys are additive: dropping them leaves exactly the pinned
        // list, in the pinned order.
        let mut keys = object_keys(&stats, "OK ");
        keys.retain(|key| pinned.contains(&key.as_str()));
        assert_eq!(keys, pinned, "{stats}");
        assert_eq!(
            object_keys(&stats, "\"transport\":"),
            [
                "connections_accepted",
                "connections_rejected",
                "connections_closed",
                "requests_received",
                "requests_served",
                "requests_failed",
                "queries_shed",
                "queue_depth_max",
            ],
            "{stats}"
        );
        assert_eq!(
            object_keys(&stats, "\"latency\":"),
            Verb::ALL.map(Verb::name),
            "{stats}"
        );
        client.send("SHUTDOWN");
        drop(client);
        server.join();
    }

    /// Every registered scalar is reported exactly once by `STATS`, once as
    /// a typed family by `METRICS`, and once in the crate-doc schema table
    /// — and none of the three carries a scalar the registry lacks.
    #[test]
    fn stats_metrics_and_the_schema_docs_all_render_the_registry() {
        let server = start(engine());
        let mut client = Client::connect(server.addr());
        let stats = client.send("STATS").remove(0);
        let metrics = client.send("METRICS");
        let exposition = &metrics[1..metrics.len() - 1];
        validate_exposition(exposition);
        client.send("SHUTDOWN");
        drop(client);
        server.join();

        let keys = |scalars: &[metrics::Scalar]| -> Vec<&str> {
            scalars.iter().map(|scalar| scalar.key).collect()
        };
        let objects = vec!["transport", "latency", metrics::DEGRADED.key];
        assert_eq!(
            object_keys(&stats, "OK "),
            [keys(metrics::TOP_LEVEL), objects].concat(),
            "top-level STATS keys vs registry"
        );
        assert_eq!(
            object_keys(&stats, "\"transport\":"),
            keys(metrics::TRANSPORT),
            "STATS transport keys vs registry"
        );

        let typed: Vec<String> = exposition
            .iter()
            .filter_map(|line| line.strip_prefix("# TYPE "))
            .filter(|family| !family.starts_with("vadalog_request_duration_micros "))
            .map(str::to_string)
            .collect();
        let expected: Vec<String> = metrics::scalars()
            .map(|scalar| format!("{} {}", scalar.metric_name(), scalar.kind.name()))
            .collect();
        assert_eq!(typed, expected, "METRICS families vs registry");

        let documented: Vec<&str> = include_str!("lib.rs")
            .lines()
            .skip_while(|line| !line.starts_with("//! # STATS schema"))
            .take_while(|line| !line.starts_with("//! # METRICS exposition"))
            .filter(|line| line.starts_with("//! | `") && !line.starts_with("//! | `STATS`"))
            .collect();
        let sections = [
            ("", metrics::TOP_LEVEL),
            ("transport.", metrics::TRANSPORT),
            ("", std::slice::from_ref(&metrics::DEGRADED)),
        ];
        let rows: Vec<String> = sections
            .iter()
            .flat_map(|(prefix, scalars)| {
                scalars.iter().map(move |scalar| {
                    format!(
                        "//! | `{prefix}{}` | `{}` | {} | {} |",
                        scalar.key,
                        scalar.metric_name(),
                        scalar.kind.name(),
                        scalar.help
                    )
                })
            })
            .collect();
        assert_eq!(
            documented,
            rows,
            "the lib.rs STATS schema table must be exactly:\n{}",
            rows.join("\n")
        );
    }

    /// Extracts `key=<number>` from a rendered profile line.
    fn field(line: &str, key: &str) -> u64 {
        line.split_whitespace()
            .find_map(|token| token.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("no {key} in {line}"))
            .parse()
            .unwrap()
    }

    #[test]
    fn slow_queries_land_in_the_bounded_log() {
        let config = ServerConfig {
            slow_query_micros: Some(0), // every query is "slow"
            ..ServerConfig::default()
        };
        let server =
            LiveServer::start_with(DurableEngine::volatile(engine()), "127.0.0.1:0", config)
                .unwrap();
        let mut client = Client::connect(server.addr());
        client.send("BATCH edge(a, b). edge(b, c).");

        client.send("QUERY ?(X) :- t(a, X).");
        client.send("PROFILE ?(X) :- t(b, X).");
        let slow = client.send("STATS SLOW=10");
        assert!(
            slow[0].starts_with("OK slow=2 threshold_micros=0"),
            "{slow:?}"
        );
        // Newest first; each record carries the verb, a profile summary
        // and the query text.
        assert!(
            slow[1].contains("verb=profile")
                && slow[1].contains("path=magic")
                && slow[1].ends_with("query=Q(X) :- t(b, X)."),
            "{slow:?}"
        );
        assert!(
            slow[2].contains("verb=query") && slow[2].contains("answers=2"),
            "{slow:?}"
        );
        let stats = client.send("STATS");
        assert!(stats[0].contains("\"slow_queries\":2"), "{stats:?}");
        let bad = client.send("STATS SLOW=abc");
        assert!(bad[0].starts_with("ERR bad SLOW value"), "{bad:?}");

        client.send("SHUTDOWN");
        drop(client);
        server.join();
    }

    #[test]
    fn per_verb_latency_counts_balance_the_transport_ledger() {
        let server = start(engine());
        let mut client = Client::connect(server.addr());
        client.send("BATCH edge(a, b). edge(b, c).");
        client.send("FACT edge(c, d).");
        client.send("QUERY ?(X) :- t(a, X).");
        client.send("QUERY MODE=FULL ?(X, Y) :- t(X, Y).");
        client.send("EXPLAIN ?(X) :- t(a, X).");
        client.send("PROFILE ?(X) :- t(a, X).");
        client.send("VALIDATE reach(X, Y) :- edge(X, Y).");
        client.send("STATS");
        client.send("METRICS");
        client.send("SNAPSHOT");
        client.send("STATS SLOW=5");
        assert!(client.send("NOPE")[0].starts_with("ERR "), "parse failure");
        client.send("SHUTDOWN");
        drop(client);
        let shared = Arc::clone(&server.shared);
        server.join();

        // At quiescence the books balance: every received request was
        // served, shed, or failed — and every served request billed
        // exactly one verb histogram.
        let transport = &shared.transport;
        let received = transport.requests_received.load(Ordering::Relaxed);
        let served = transport.requests_served.load(Ordering::Relaxed);
        let failed = transport.requests_failed.load(Ordering::Relaxed);
        let shed = transport.queries_shed.load(Ordering::Relaxed);
        assert_eq!(received, 13);
        assert_eq!(received, served + shed + failed);
        assert_eq!(shared.latency.total_count(), served);
        for (verb, expected) in [
            (Verb::Query, 2),
            (Verb::Fact, 1),
            (Verb::Batch, 1),
            (Verb::Explain, 1),
            (Verb::Profile, 1),
            (Verb::Validate, 1),
            (Verb::Stats, 2),
            (Verb::Metrics, 1),
            (Verb::Snapshot, 1),
            (Verb::Shutdown, 1),
        ] {
            assert_eq!(
                shared.latency.get(verb).count(),
                expected,
                "verb {}",
                verb.name()
            );
        }
    }

    #[test]
    fn programmatic_shutdown_needs_no_connection() {
        let server = start(engine());
        server.request_shutdown();
        // Joins promptly: the accept loop polls the flag, no self-connect
        // wake is involved.
        server.join();
    }
}
