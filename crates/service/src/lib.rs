//! The live materialisation service: a long-lived front door over an
//! incrementally maintained instance.
//!
//! The paper's system is a *service*: facts arrive continuously and
//! certain-answer queries are served against the maintained
//! materialisation. This crate provides that front door on top of
//! [`vadalog_datalog::IncrementalEngine`] (re-exported here): a
//! line-oriented TCP protocol served by [`LiveServer`], with ingestion and
//! query serving decoupled through epoch snapshots
//! ([`vadalog_model::InstanceSnapshot`]) so reads run concurrently with
//! writes.
//!
//! # Protocol reference
//!
//! One request per line; every response is one or more `\n`-terminated
//! lines. The first response token is always `OK` or `ERR`.
//!
//! | Request | Response |
//! |---|---|
//! | `FACT <fact>.` | `OK inserted=<n> duplicate=<n> derived=<n> strata_skipped=<n> rounds=<n> epoch=<e>` |
//! | `BATCH <fact>. <fact>. …` | same as `FACT` (one evaluation for the whole batch) |
//! | `QUERY [MODE=<MAGIC\|FULL\|AUTO>] [TIMEOUT_MS=<ms>] [MAX_ROWS=<n>] ?(X, …) :- body.` | `OK answers=<n> epoch=<e>`, then **exactly `n`** tuple lines (whitespace-separated constants, sorted; constants containing whitespace, quotes or control characters come back `"`-quoted with `\"`/`\\`/`\n` escapes), then `END` — or `ERR deadline timeout_ms=<ms>` / `ERR row-limit max_rows=<n>` when a budget trips |
//! | `EXPLAIN [MODE=<MAGIC\|FULL\|AUTO>] ?(X, …) :- body.` | `OK explain=<n> epoch=<e> magic=<bool>`, then **exactly `n`** plan lines, then `END`. Returns the plan *without evaluating*: the query's adornment, the magic-vs-full decision (with the fallback reason when the rewrite does not apply), and per-rule join plans — build/probe order, index kind and estimated fan-out per step. Consults (and warms) the specialised-program cache, so the header is truthful about what a subsequent `QUERY` would do. `TIMEOUT_MS`/`MAX_ROWS` are rejected — nothing runs |
//! | `PROFILE [MODE=…] [TIMEOUT_MS=<ms>] [MAX_ROWS=<n>] ?(X, …) :- body.` | `OK profile=<n> answers=<a> epoch=<e> path=<magic\|full> [cache=<hit\|miss>]`, then **exactly `n`** phase lines (`phase=rewrite`, `phase=seed`, one `phase=stratum stratum=<s> round=<r> wall_micros=… delta_rows=… derived_rows=… join_probes=… rows_prededuped=…` per fixpoint round, `phase=answer`, and a final `totals …` line), then `END`. Evaluates the query exactly like `QUERY` (same budgets, same answers) but returns the per-phase breakdown instead of the tuples |
//! | `VALIDATE <rules>` | `OK diagnostics=<n> errors=<e> warnings=<w> admissible=<bool>`, then **exactly `n`** diagnostic lines (`VLG0xx <severity> [tgd=<i>] [atom=body[j]\|head[j]] [var=<V>] [pred=<p>] :: <message>`, parseable back via [`protocol::parse_diagnostic_line`]), then `END`. The candidate is analysed against the serving schema ([`vadalog_analysis::diagnostics`]); nothing is loaded. Under the default fail-closed [`AdmissionPolicy`], error-severity findings make the verdict `admissible=false` |
//! | `STATS` | `OK` followed by one JSON object on the same line (see **STATS schema** below). Never shed under overload |
//! | `STATS SLOW=<n>` | `OK slow=<k> threshold_micros=<t\|disabled>`, then **exactly `k`** slow-query lines (newest first, `wall_micros=… verb=… <summary> query=…`), then `END`. Reads the bounded slow-query ring (capacity 64) |
//! | `METRICS` | `OK metrics=<n>`, then **exactly `n`** Prometheus text-exposition lines (`# HELP`/`# TYPE` comments and `name{labels} value` samples — see **METRICS exposition** below), then `END`. Never shed under overload |
//! | `SNAPSHOT` | `OK snapshot epoch=<e>` after durably snapshotting the instance and truncating the WAL (a no-op `OK` on a volatile server) |
//! | `SHUTDOWN` | `OK bye`; the server stops accepting connections, answers queued-but-unstarted requests `ERR shutting-down`, completes in-flight work, flushes the WAL and appends the clean-shutdown marker. Never shed under overload |
//!
//! Two structured errors come from the transport rather than the handler:
//! `ERR overloaded retry_ms=<hint>` (admission control shed the connection
//! or request — retry after the hinted backoff) and `ERR shutting-down`
//! (the request arrived during drain).
//!
//! Clients must frame query answers by the header's `answers=<n>` count —
//! read exactly `n` tuple lines, then the `END` line — rather than scanning
//! for `END`: the count makes the framing independent of tuple *content*
//! (a constant named `END` is a legal answer). Every multi-line response
//! frames the same way, by its own label: `diagnostics=<n>`, `explain=<n>`,
//! `profile=<n>`, `metrics=<n>`, `slow=<n>`.
//!
//! # STATS schema
//!
//! The `STATS` JSON object is versioned: its first field is
//! `"schema_version"` ([`STATS_SCHEMA_VERSION`], currently `1`). New fields
//! are additive and do *not* bump the version; removals or renames do.
//! Every scalar the server reports is declared once, in one registry, and
//! `STATS`, `METRICS` and the table below are renderings of it (a test
//! compares the table with the registry row by row). The object holds, in
//! order: the top-level scalars of the table; the `transport` object (the
//! `transport.*` rows — at quiescence `requests_received ==
//! requests_served + queries_shed + requests_failed`); the `latency`
//! object; and `degraded`, as a JSON boolean.
//!
//! | `STATS` key | `METRICS` series | Type | Meaning |
//! |---|---|---|---|
//! | `schema_version` | `vadalog_schema_version` | gauge | Version of the STATS JSON schema this server speaks. |
//! | `epoch` | `vadalog_epoch` | gauge | Snapshot epoch of the served materialisation (bumps on every applied ingest). |
//! | `atoms` | `vadalog_atoms` | gauge | Atoms (EDB + IDB) in the live materialisation. |
//! | `derived_atoms` | `vadalog_derived_atoms_total` | counter | Derived (IDB) atoms the engine has produced. |
//! | `iterations` | `vadalog_iterations_total` | counter | Semi-naive iterations summed over all strata. |
//! | `rounds_incremental` | `vadalog_rounds_incremental_total` | counter | Fixpoint rounds executed through the incremental ingest path. |
//! | `strata_skipped` | `vadalog_strata_skipped_total` | counter | Strata an incremental ingest proved unaffected and skipped. |
//! | `joins_evaluated` | `vadalog_joins_evaluated_total` | counter | Join-kernel invocations. |
//! | `join_probes` | `vadalog_join_probes_total` | counter | Candidate rows examined across all join-kernel invocations. |
//! | `index_bytes` | `vadalog_index_bytes` | gauge | Bytes held by the live instance's join indexes. |
//! | `wal_records` | `vadalog_wal_records` | gauge | Records in the write-ahead log since the last snapshot. |
//! | `wal_bytes` | `vadalog_wal_bytes` | gauge | Bytes in the write-ahead log since the last snapshot. |
//! | `snapshots_written` | `vadalog_snapshots_written_total` | counter | Durable snapshots written (SNAPSHOT verb and cadence). |
//! | `snapshot_failures` | `vadalog_snapshot_failures_total` | counter | Durable snapshot attempts that failed. |
//! | `programs_rejected` | `vadalog_programs_rejected_total` | counter | Candidate programs rejected by the admission gate. |
//! | `diagnostics_emitted` | `vadalog_diagnostics_emitted_total` | counter | Diagnostics emitted by VALIDATE requests and refused ingests. |
//! | `magic_queries` | `vadalog_magic_queries_total` | counter | Queries answered through the demand-driven (magic) path. |
//! | `magic_cache_hits` | `vadalog_magic_cache_hits_total` | counter | Magic queries whose specialised program was cached. |
//! | `demanded_tuples` | `vadalog_demanded_tuples_total` | counter | Tuples derived across all demand-driven evaluations. |
//! | `full_materialised_tuples` | `vadalog_full_materialised_tuples` | gauge | Size of the full materialisation the demand path avoids (equals atoms). |
//! | `slow_queries` | `vadalog_slow_queries` | gauge | Slow-query records currently retained in the bounded log. |
//! | `peak_atoms` | `vadalog_peak_atoms` | gauge | Atoms (EDB + IDB) in the engine after its last evaluation, the space proxy. |
//! | `composite_probes` | `vadalog_composite_probes_total` | counter | Probe steps answered by a composite fused-key index. |
//! | `probe_misses_filtered` | `vadalog_probe_misses_filtered_total` | counter | Index probes skipped by the fingerprint filter. |
//! | `rows_prededuped` | `vadalog_rows_prededuped_total` | counter | Rows the workers deduplicated before the sequential merge. |
//! | `transport.connections_accepted` | `vadalog_connections_accepted_total` | counter | Connections accepted by the reactor. |
//! | `transport.connections_rejected` | `vadalog_connections_rejected_total` | counter | Connections rejected by admission control. |
//! | `transport.connections_closed` | `vadalog_connections_closed_total` | counter | Connections closed for any reason. |
//! | `transport.requests_received` | `vadalog_requests_received_total` | counter | Request lines received (including ones that failed to parse). |
//! | `transport.requests_served` | `vadalog_requests_served_total` | counter | Requests answered by the handler. |
//! | `transport.requests_failed` | `vadalog_requests_failed_total` | counter | Requests that failed (parse errors, drops, drain rejects). |
//! | `transport.queries_shed` | `vadalog_queries_shed_total` | counter | Requests shed by queue-depth admission control. |
//! | `transport.queue_depth_max` | `vadalog_queue_depth_max` | gauge | High-water mark of the job queue depth. |
//! | `degraded` | `vadalog_degraded` | gauge | 1 (STATS: true) once a writer panic has poisoned the engine mutex and writes fail. |
//!
//! `latency` holds one object per verb (`query`, `fact`, `batch`,
//! `explain`, `profile`, `validate`, `stats`, `metrics`, `snapshot`,
//! `shutdown`), each `count`/`total_micros`/`max_micros`/`p50_micros`/
//! `p95_micros`/`p99_micros`. `count`/`total`/`max` are exact; percentiles
//! are log-bucketed (≤ 25% relative error). The per-verb counts sum to
//! `transport.requests_served` at quiescence.
//!
//! # METRICS exposition
//!
//! `METRICS` renders the same registry in Prometheus text format: each
//! `STATS` key becomes the series named beside it in the table above —
//! `vadalog_<key>_total` for `counter`s (monotone totals),
//! `vadalog_<key>` for `gauge`s (point-in-time values) — with its `# HELP`
//! and `# TYPE` comments. Per-verb request latency is one `histogram`
//! family, `vadalog_request_duration_micros` with a `verb` label —
//! cumulative `_bucket{le=…}` series (empty buckets elided, `+Inf`
//! mandatory) plus `_sum` and `_count` per verb. The suite's
//! exposition-format validator test parses every emitted line.
//!
//! # Tracing
//!
//! The request lifecycle is instrumented with [`vadalog_obs`] spans —
//! `service.request`, the WAL's `wal.append`/`wal.fsync`,
//! `snapshot.write`, `recovery.replay`, and the engine-side spans beneath
//! them. A `BATCH` on a durable server records, in order and nested under
//! its `service.request`: `wal.append` (the fsync of `SyncPolicy::Always` is
//! inside it; `wal.fsync` is the deferred sync of the batched policy), then
//! one `datalog.stratum` per stratum the ingest evaluated, each around one
//! `datalog.round` per fixpoint round; a demand-path `QUERY` records
//! `demand.answer` around the same stratum and round spans — every engine
//! runs the one traced fixpoint loop of `vadalog_datalog::engine`.
//! Tracing is **off by default** and near-zero-cost while disabled;
//! enabling it never changes answers or counters (bit-identity is
//! property-tested). Queries whose wall time crosses
//! [`ServerConfig::slow_query_micros`] additionally record a compact
//! profile summary into the slow-query ring served by `STATS SLOW=<n>`.
//!
//! # Demand-driven queries
//!
//! `MODE=` selects the query path. `FULL` answers from the served
//! materialisation. `MAGIC` prefers the demand-driven path
//! ([`vadalog_datalog::DemandEngine`]): the query is rewritten with magic
//! sets, the specialised program is compiled once per binding-pattern
//! signature and cached, and evaluation runs in a scratch instance layered
//! over the published snapshot — deriving only the tuples the bound
//! constants demand. `AUTO` (the default) takes the magic path whenever the
//! query has at least one bound column and the rewrite applies, and the
//! full path otherwise; `MODE=MAGIC` is a preference, not a correctness
//! switch — unspecialisable queries silently fall back. Answers are
//! identical on either path provided derived relations hold only derived
//! rows, which fail-closed admission guarantees: the demand path reads
//! only the extensional relations of the snapshot, so under
//! [`AdmissionPolicy::WarnOnly`] (where a fact may be asserted into a
//! derived relation) every query takes the full path whatever its `MODE=`.
//! `STATS` exposes the split: `magic_queries`,
//! `magic_cache_hits` and cumulative `demanded_tuples` versus
//! `full_materialised_tuples` (the size of the live materialisation).
//!
//! # Admission
//!
//! The server is **fail-closed** by default ([`AdmissionPolicy::FailClosed`]):
//! `VALIDATE` verdicts with error-severity diagnostics answer
//! `admissible=false` and bump the `programs_rejected` counter, and `FACT` /
//! `BATCH` requests targeting a *derived* predicate of the serving program
//! are refused with `ERR` — rules own those relations, and asserting into
//! them would silently mix asserted and derived tuples. Warnings are
//! admitted but counted in `diagnostics_emitted`.
//! [`AdmissionPolicy::WarnOnly`] restores the legacy permissive behaviour
//! while keeping the counters. A fail-closed server also refuses to *start*
//! over a serving program that itself fails validation.
//!
//! Facts and queries use the crate's surface syntax
//! ([`vadalog_model::parser`]): `edge(a, b).`, `?(X) :- t(a, X).` and so
//! on. Errors — parse errors, arity conflicts, dictionary overflow
//! ([`vadalog_model::ModelError::PackOverflow`]) and the per-relation row
//! budget ([`vadalog_model::ModelError::CapacityExceeded`]) — come back as
//! a single `ERR <message>` line. A rejected batch leaves the live instance
//! untouched (the engine validates before applying), so the connection and
//! the service remain fully usable afterwards.
//!
//! # Concurrency model
//!
//! * Ingests serialise on a mutex around the [`IncrementalEngine`]; each
//!   successful ingest publishes a fresh epoch snapshot.
//! * Queries clone the published snapshot handle (an `Arc` bump under a
//!   briefly-held read lock) and evaluate against the frozen instance with
//!   **no lock held** — a long query never blocks an ingest and vice versa.
//! * The transport is a **readiness-based reactor** (see below): requests
//!   are handled by a fixed worker pool, so concurrency is bounded by
//!   [`ServerConfig`], not by how many sockets are open.
//!
//! # Transport architecture
//!
//! The front door is one epoll **reactor thread** (over the offline
//! `epoll` shim crate — thin safe wrappers on `epoll(7)`/`eventfd(2)`; the
//! service crate itself forbids `unsafe`) plus a fixed **worker pool**:
//!
//! * The reactor owns the nonblocking listener and every connection's
//!   read/write buffers, reassembles request lines, and keeps per-request
//!   FIFO ordering by queueing parse errors alongside parsed requests.
//!   Requests are dispatched (at most one in flight per connection) to a
//!   bounded job queue; workers run the transport-free request handler
//!   under `catch_unwind` and post replies back through an eventfd waker.
//! * **Admission policy knobs** ([`ServerConfig`]): `max_connections`
//!   (accept-time cap), `max_queue_depth` (request-time cap),
//!   `worker_threads` (in-flight cap), `overload_retry_ms` (the backoff
//!   hint carried by `ERR overloaded`).
//! * **Degradation ladder** under rising load: (1) requests queue, up to
//!   `max_queue_depth`; (2) further requests are shed with
//!   `ERR overloaded retry_ms=<hint>` — connections survive, `STATS`,
//!   `METRICS` and `SHUTDOWN` stay exempt; (3) accepts beyond `max_connections` are
//!   rejected with the same error and closed; (4) misbehaving peers
//!   (slow-loris writers, stalled readers, over-`max_line_bytes` lines)
//!   are cut individually by the reactor's timer wheel. Shedding never
//!   corrupts state: a shed request performed no engine work at all.
//!
//! # Durability model
//!
//! A [`LiveServer`] can serve a [`DurableEngine`]
//! ([`LiveServer::start_with`]), which enforces **WAL-before-mutate**:
//! every batch is appended to a checksummed, length-prefixed write-ahead
//! log ([`wal`]) — and fsynced, under the default [`SyncPolicy::Always`] —
//! *before* the engine applies it. Snapshots ([`snapshot`]) serialise the
//! packed instance atomically (tmp + rename) and truncate the log, either
//! on a cadence ([`DurabilityConfig::snapshot_every`]) or on demand (the
//! `SNAPSHOT` verb). [`DurableEngine::recover`] restores the snapshot,
//! replays the WAL tail — skipping records the snapshot already covers and
//! dropping (not fataling on) a torn or corrupt tail — and yields a state
//! **bit-identical** to the uncrashed engine's, as enforced by the
//! fault-injection suite. Acknowledged batches are never lost; a batch
//! logged but unacknowledged at the crash may be replayed (the usual
//! at-least-once window).
//!
//! # Robustness
//!
//! Query budgets default to [`ServerConfig`]'s `default_timeout` /
//! `default_max_rows` (both unlimited unless set) and can be overridden
//! per request with `TIMEOUT_MS=` / `MAX_ROWS=`; exceeded budgets answer
//! structured `ERR deadline …` / `ERR row-limit …` lines and the kernels
//! stop cooperatively (a cancellation flag polled every
//! [`vadalog_model::BUDGET_POLL_INTERVAL`] probes). The transport caps
//! request lines at `max_line_bytes`, cuts off stalled partial lines after
//! `line_timeout` (slow-loris defence), and survives malformed, non-UTF-8
//! and half-written input — each answers a single `ERR` line or a clean
//! close, never a dead server. A handler that panics mid-write poisons the
//! engine mutex: subsequent writes answer `ERR engine-unavailable` while
//! queries keep serving the last published snapshot, and a restart
//! recovers from the WAL. Fault-injection sites ([`failpoints`], debug
//! builds only) let tests kill the durability pipeline at every seam.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod durability;
pub mod failpoints;
mod histogram;
mod metrics;
pub mod protocol;
mod reactor;
pub mod server;
pub mod snapshot;
pub mod wal;

pub use durability::{DurabilityConfig, DurableEngine, RecoveryReport, ServiceError};
pub use protocol::{parse_diagnostic_line, parse_request, Request, Response};
pub use server::{AdmissionPolicy, LiveServer, ServerConfig, STATS_SCHEMA_VERSION};
pub use vadalog_analysis::{Diagnostic, DiagnosticCode, Severity};
pub use vadalog_datalog::{IncrementalEngine, IngestOutcome};
pub use wal::SyncPolicy;
