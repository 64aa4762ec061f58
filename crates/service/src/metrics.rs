//! Per-verb latency accounting, the slow-query log, and the Prometheus
//! text-exposition rendering behind the `METRICS` verb.
//!
//! Every request the transport *serves* bills exactly one [`Verb`]
//! histogram, so at quiescence the per-verb counts sum to the transport's
//! `requests_served` counter — an invariant the server test-suite asserts.
//! Shed and failed requests are accounted by the transport counters
//! instead; nothing is billed twice.
//!
//! The exposition renderer emits the standard Prometheus text format
//! (`# HELP` / `# TYPE` comments, `name{labels} value` samples, histograms
//! as cumulative `_bucket{le=…}` series plus `_sum` and `_count`), one
//! sample per response line so the count-framed protocol response carries
//! it unmodified.

use crate::durability::DurableEngine;
use crate::histogram::LatencyHistogram;
use crate::protocol::Request;
use crate::server::{Shared, STATS_SCHEMA_VERSION};
use std::collections::VecDeque;
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::Mutex;

/// Which latency histogram a served request bills to — one variant per
/// protocol verb.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verb {
    Query,
    Fact,
    Batch,
    Explain,
    Profile,
    Validate,
    Stats,
    Metrics,
    Snapshot,
    Shutdown,
}

impl Verb {
    /// Every verb, in the order the STATS `latency` object reports them
    /// (`query` first — existing clients key off that prefix).
    pub(crate) const ALL: [Verb; 10] = [
        Verb::Query,
        Verb::Fact,
        Verb::Batch,
        Verb::Explain,
        Verb::Profile,
        Verb::Validate,
        Verb::Stats,
        Verb::Metrics,
        Verb::Snapshot,
        Verb::Shutdown,
    ];

    /// The verb's wire-level lowercase name (STATS key, metric label).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Verb::Query => "query",
            Verb::Fact => "fact",
            Verb::Batch => "batch",
            Verb::Explain => "explain",
            Verb::Profile => "profile",
            Verb::Validate => "validate",
            Verb::Stats => "stats",
            Verb::Metrics => "metrics",
            Verb::Snapshot => "snapshot",
            Verb::Shutdown => "shutdown",
        }
    }

    /// The verb a parsed request bills to.
    pub(crate) fn of(request: &Request) -> Verb {
        match request {
            Request::Query { .. } => Verb::Query,
            Request::Ingest { batch: false, .. } => Verb::Fact,
            Request::Ingest { batch: true, .. } => Verb::Batch,
            Request::Explain { .. } => Verb::Explain,
            Request::Profile { .. } => Verb::Profile,
            Request::Validate { .. } => Verb::Validate,
            Request::Stats { .. } => Verb::Stats,
            Request::Metrics => Verb::Metrics,
            Request::Snapshot => Verb::Snapshot,
            Request::Shutdown => Verb::Shutdown,
        }
    }
}

/// One latency histogram per protocol verb.
#[derive(Default)]
pub(crate) struct VerbLatencies {
    histograms: [LatencyHistogram; Verb::ALL.len()],
}

impl VerbLatencies {
    pub(crate) fn get(&self, verb: Verb) -> &LatencyHistogram {
        &self.histograms[verb as usize]
    }

    pub(crate) fn record(&self, verb: Verb, micros: u64) {
        self.get(verb).record(micros);
    }

    /// Sum of all per-verb observation counts — equals the transport's
    /// `requests_served` once quiescent (asserted by the server tests).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn total_count(&self) -> u64 {
        self.histograms.iter().map(|h| h.count()).sum()
    }

    /// The STATS `latency` JSON object, one sub-object per verb in
    /// [`Verb::ALL`] order.
    pub(crate) fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, verb) in Verb::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", verb.name(), self.get(*verb).render()));
        }
        out.push('}');
        out
    }
}

/// How many slow-query records the bounded ring retains; the oldest record
/// is evicted when a new one arrives at capacity.
pub(crate) const SLOW_LOG_CAPACITY: usize = 64;

/// One slow query: what ran, how long it took, and a compact profile
/// summary (the `PROFILE` totals line, not the per-round breakdown).
#[derive(Debug, Clone)]
pub(crate) struct SlowQueryRecord {
    /// End-to-end handler wall time, in microseconds.
    pub(crate) wall_micros: u64,
    /// `query` or `profile` — which verb ran it.
    pub(crate) verb: &'static str,
    /// The query's surface syntax.
    pub(crate) query: String,
    /// `key=value` profile summary (path, cache behaviour, counters).
    pub(crate) summary: String,
}

impl SlowQueryRecord {
    fn render(&self) -> String {
        format!(
            "wall_micros={} verb={} {} query={}",
            self.wall_micros, self.verb, self.summary, self.query
        )
    }
}

/// A bounded ring of recent slow queries, written by the request handler
/// whenever a query's wall time crosses
/// [`ServerConfig::slow_query_micros`](crate::server::ServerConfig::slow_query_micros)
/// and read back by `STATS SLOW=<n>`.
#[derive(Default)]
pub(crate) struct SlowQueryLog {
    ring: Mutex<VecDeque<SlowQueryRecord>>,
}

impl SlowQueryLog {
    pub(crate) fn push(&self, record: SlowQueryRecord) {
        let mut ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        if ring.len() == SLOW_LOG_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// Up to `n` most recent records, newest first, rendered one per line.
    pub(crate) fn recent(&self, n: usize) -> Vec<String> {
        let ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        ring.iter().rev().take(n).map(|r| r.render()).collect()
    }

    /// Number of records currently retained (bounded by the capacity).
    pub(crate) fn len(&self) -> usize {
        self.ring.lock().unwrap_or_else(|p| p.into_inner()).len()
    }
}

/// How `METRICS` types a scalar: monotone totals are counters (exposed
/// with a `_total` suffix), point-in-time values are gauges.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Counter,
    Gauge,
}
use Kind::{Counter, Gauge};

impl Kind {
    /// The `# TYPE` keyword.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Counter => "counter",
            Gauge => "gauge",
        }
    }
}

/// One scalar the server reports. `STATS`, `METRICS` and the schema table
/// in the crate docs are all loops over [`TOP_LEVEL`], [`TRANSPORT`] and
/// [`DEGRADED`]: adding or removing a counter is one row here (plus its
/// row in the doc table, which a test compares against these).
pub(crate) struct Scalar {
    /// The `STATS` JSON key; `METRICS` exposes it as `vadalog_<key>`
    /// (`vadalog_<key>_total` for counters).
    pub(crate) key: &'static str,
    pub(crate) kind: Kind,
    /// Reads the value; the engine is locked once per reply, so the engine
    /// numbers in one `STATS` or `METRICS` reply describe one epoch.
    pub(crate) read: Read,
    /// The `# HELP` text, and the meaning column of the doc table.
    pub(crate) help: &'static str,
}

type Read = fn(&DurableEngine, &Shared) -> u64;

const fn row(key: &'static str, kind: Kind, read: Read, help: &'static str) -> Scalar {
    Scalar {
        key,
        kind,
        read,
        help,
    }
}

impl Scalar {
    /// The scalar's `METRICS` series name.
    pub(crate) fn metric_name(&self) -> String {
        match self.kind {
            Counter => format!("vadalog_{}_total", self.key),
            Gauge => format!("vadalog_{}", self.key),
        }
    }
}

/// The top-level `STATS` scalars, in the order the object reports them.
/// Clients parse this object: keep existing keys where they are and append
/// new ones at the end.
#[rustfmt::skip] // a table: one row per scalar
pub(crate) const TOP_LEVEL: &[Scalar] = &[
    row("schema_version", Gauge, |_, _| STATS_SCHEMA_VERSION,
        "Version of the STATS JSON schema this server speaks."),
    row("epoch", Gauge, |e, _| e.engine().epoch(),
        "Snapshot epoch of the served materialisation (bumps on every applied ingest)."),
    row("atoms", Gauge, |e, _| e.engine().instance().len() as u64,
        "Atoms (EDB + IDB) in the live materialisation."),
    row("derived_atoms", Counter, |e, _| e.engine().stats().derived_atoms as u64,
        "Derived (IDB) atoms the engine has produced."),
    row("iterations", Counter, |e, _| e.engine().stats().iterations as u64,
        "Semi-naive iterations summed over all strata."),
    row("rounds_incremental", Counter, |e, _| e.engine().stats().rounds_incremental as u64,
        "Fixpoint rounds executed through the incremental ingest path."),
    row("strata_skipped", Counter, |e, _| e.engine().stats().strata_skipped as u64,
        "Strata an incremental ingest proved unaffected and skipped."),
    row("joins_evaluated", Counter, |e, _| e.engine().stats().joins_evaluated as u64,
        "Join-kernel invocations."),
    row("join_probes", Counter, |e, _| e.engine().stats().join_probes,
        "Candidate rows examined across all join-kernel invocations."),
    row("index_bytes", Gauge, |e, _| e.engine().instance().index_bytes() as u64,
        "Bytes held by the live instance's join indexes."),
    row("wal_records", Gauge, |e, _| e.wal_stats().0,
        "Records in the write-ahead log since the last snapshot."),
    row("wal_bytes", Gauge, |e, _| e.wal_stats().1,
        "Bytes in the write-ahead log since the last snapshot."),
    row("snapshots_written", Counter, |e, _| e.wal_stats().2,
        "Durable snapshots written (SNAPSHOT verb and cadence)."),
    row("snapshot_failures", Counter, |e, _| e.wal_stats().3,
        "Durable snapshot attempts that failed."),
    row("programs_rejected", Counter, |_, s| s.programs_rejected.load(SeqCst),
        "Candidate programs rejected by the admission gate."),
    row("diagnostics_emitted", Counter, |_, s| s.diagnostics_emitted.load(SeqCst),
        "Diagnostics emitted by VALIDATE requests and refused ingests."),
    row("magic_queries", Counter, |_, s| s.demand.stats().magic_queries,
        "Queries answered through the demand-driven (magic) path."),
    row("magic_cache_hits", Counter, |_, s| s.demand.stats().magic_cache_hits,
        "Magic queries whose specialised program was cached."),
    row("demanded_tuples", Counter, |_, s| s.demand.stats().demanded_tuples,
        "Tuples derived across all demand-driven evaluations."),
    row("full_materialised_tuples", Gauge, |e, _| e.engine().instance().len() as u64,
        "Size of the full materialisation the demand path avoids (equals atoms)."),
    row("slow_queries", Gauge, |_, s| s.slow_log.len() as u64,
        "Slow-query records currently retained in the bounded log."),
    row("peak_atoms", Gauge, |e, _| e.engine().stats().peak_atoms as u64,
        "Atoms (EDB + IDB) in the engine after its last evaluation, the space proxy."),
    row("composite_probes", Counter, |e, _| e.engine().stats().composite_probes,
        "Probe steps answered by a composite fused-key index."),
    row("probe_misses_filtered", Counter, |e, _| e.engine().stats().probe_misses_filtered,
        "Index probes skipped by the fingerprint filter."),
    row("rows_prededuped", Counter, |e, _| e.engine().stats().rows_prededuped,
        "Rows the workers deduplicated before the sequential merge."),
];

/// The scalars of the `STATS` `transport` object, in its key order. At
/// quiescence `requests_received` = `requests_served` + `queries_shed` +
/// `requests_failed`.
#[rustfmt::skip] // a table: one row per scalar
pub(crate) const TRANSPORT: &[Scalar] = &[
    row("connections_accepted", Counter, |_, s| s.transport.connections_accepted.load(Relaxed),
        "Connections accepted by the reactor."),
    row("connections_rejected", Counter, |_, s| s.transport.connections_rejected.load(Relaxed),
        "Connections rejected by admission control."),
    row("connections_closed", Counter, |_, s| s.transport.connections_closed.load(Relaxed),
        "Connections closed for any reason."),
    row("requests_received", Counter, |_, s| s.transport.requests_received.load(Relaxed),
        "Request lines received (including ones that failed to parse)."),
    row("requests_served", Counter, |_, s| s.transport.requests_served.load(Relaxed),
        "Requests answered by the handler."),
    row("requests_failed", Counter, |_, s| s.transport.requests_failed.load(Relaxed),
        "Requests that failed (parse errors, drops, drain rejects)."),
    row("queries_shed", Counter, |_, s| s.transport.queries_shed.load(Relaxed),
        "Requests shed by queue-depth admission control."),
    row("queue_depth_max", Gauge, |_, s| s.transport.queue_depth_max.load(Relaxed),
        "High-water mark of the job queue depth."),
];

/// The last `STATS` field — a JSON boolean there, a 0/1 gauge in `METRICS`.
#[rustfmt::skip] // laid out like the rows above
pub(crate) const DEGRADED: Scalar =
    row("degraded", Gauge, |_, s| s.degraded.load(SeqCst) as u64,
        "1 (STATS: true) once a writer panic has poisoned the engine mutex and writes fail.");

/// Every registered scalar, in `STATS` order.
pub(crate) fn scalars() -> impl Iterator<Item = &'static Scalar> {
    TOP_LEVEL
        .iter()
        .chain(TRANSPORT)
        .chain(std::iter::once(&DEGRADED))
}

/// `"key":value,…` for a run of scalars (no braces).
fn json_fields(scalars: &[Scalar], engine: &DurableEngine, shared: &Shared) -> String {
    let fields: Vec<String> = scalars
        .iter()
        .map(|scalar| format!("\"{}\":{}", scalar.key, (scalar.read)(engine, shared)))
        .collect();
    fields.join(",")
}

/// The `STATS` JSON object: the top-level scalars, then the `transport`
/// and `latency` objects, then `degraded`.
pub(crate) fn stats_json(engine: &DurableEngine, shared: &Shared) -> String {
    format!(
        "{{{},\"transport\":{{{}}},\"latency\":{},\"{}\":{}}}",
        json_fields(TOP_LEVEL, engine, shared),
        json_fields(TRANSPORT, engine, shared),
        shared.latency.render(),
        DEGRADED.key,
        (DEGRADED.read)(engine, shared) != 0,
    )
}

/// The `METRICS` payload: a `# HELP` / `# TYPE` / sample triple per
/// registered scalar, then the per-verb latency histogram family.
pub(crate) fn exposition(engine: &DurableEngine, shared: &Shared) -> Vec<String> {
    let mut lines = Vec::new();
    for scalar in scalars() {
        let name = scalar.metric_name();
        lines.push(format!("# HELP {name} {}", scalar.help));
        lines.push(format!("# TYPE {name} {}", scalar.kind.name()));
        lines.push(format!("{name} {}", (scalar.read)(engine, shared)));
    }
    latency_family(&mut lines, &shared.latency);
    lines
}

/// Appends the per-verb request-latency histogram family: cumulative
/// `_bucket{verb=…,le=…}` series (only buckets with observations, plus the
/// mandatory `+Inf`), `_sum` and `_count` per verb.
fn latency_family(lines: &mut Vec<String>, latencies: &VerbLatencies) {
    let name = "vadalog_request_duration_micros";
    lines.push(format!(
        "# HELP {name} Wall time of served requests, by verb, in microseconds."
    ));
    lines.push(format!("# TYPE {name} histogram"));
    for verb in Verb::ALL {
        let histogram = latencies.get(verb);
        let label = verb.name();
        for (upper_edge, cumulative) in histogram.cumulative_buckets() {
            lines.push(format!(
                "{name}_bucket{{verb=\"{label}\",le=\"{upper_edge}\"}} {cumulative}"
            ));
        }
        lines.push(format!(
            "{name}_bucket{{verb=\"{label}\",le=\"+Inf\"}} {}",
            histogram.count()
        ));
        lines.push(format!(
            "{name}_sum{{verb=\"{label}\"}} {}",
            histogram.total_micros()
        ));
        lines.push(format!(
            "{name}_count{{verb=\"{label}\"}} {}",
            histogram.count()
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbs_bill_distinct_histograms_and_sum_exactly() {
        let latencies = VerbLatencies::default();
        latencies.record(Verb::Query, 10);
        latencies.record(Verb::Query, 20);
        latencies.record(Verb::Snapshot, 5);
        assert_eq!(latencies.get(Verb::Query).count(), 2);
        assert_eq!(latencies.get(Verb::Snapshot).count(), 1);
        assert_eq!(latencies.get(Verb::Validate).count(), 0);
        assert_eq!(latencies.total_count(), 3);
        let json = latencies.render();
        assert!(json.starts_with("{\"query\":{\"count\":2,"), "{json}");
        assert!(json.contains("\"snapshot\":{\"count\":1,"), "{json}");
        assert!(json.contains("\"shutdown\":{\"count\":0,"), "{json}");
    }

    #[test]
    fn slow_log_is_bounded_and_newest_first() {
        let log = SlowQueryLog::default();
        for i in 0..(SLOW_LOG_CAPACITY + 5) {
            log.push(SlowQueryRecord {
                wall_micros: i as u64,
                verb: "query",
                query: format!("?(X) :- t(c{i}, X)."),
                summary: "path=full".into(),
            });
        }
        assert_eq!(log.len(), SLOW_LOG_CAPACITY);
        let recent = log.recent(2);
        assert_eq!(recent.len(), 2);
        assert!(
            recent[0].starts_with(&format!("wall_micros={} ", SLOW_LOG_CAPACITY + 4)),
            "{recent:?}"
        );
        // The oldest records were evicted.
        let all = log.recent(usize::MAX);
        assert!(all.iter().all(|l| !l.contains("query=?(X) :- t(c0, X).")));
    }

    #[test]
    fn histogram_family_emits_cumulative_monotone_buckets() {
        let latencies = VerbLatencies::default();
        for v in [1u64, 3, 100, 100, 5000] {
            latencies.record(Verb::Query, v);
        }
        let mut lines = Vec::new();
        latency_family(&mut lines, &latencies);
        let buckets: Vec<u64> = lines
            .iter()
            .filter(|l| l.contains("_bucket{verb=\"query\""))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{buckets:?}");
        assert_eq!(*buckets.last().unwrap(), 5, "+Inf bucket carries count");
        assert!(lines
            .iter()
            .any(|l| l == "vadalog_request_duration_micros_count{verb=\"query\"} 5"));
        assert!(lines
            .iter()
            .any(|l| l == "vadalog_request_duration_micros_sum{verb=\"query\"} 5204"));
    }
}
