//! The benchmark's fixed vocabulary: workload names with the reason each
//! exists, end-to-end metrics with their regression bounds, and per-layer
//! metrics. `BENCHMARK.json` at the repository root states the same tables
//! for the driver; a unit test keeps the two in step.

/// How long one run measures on the reference box, and the value
/// `BENCHMARK.json` records as `run_seconds`. Every workload's amount of
/// work is a fixed count per second of this budget (not a duration), so
/// counts repeat exactly and a faster program finishes sooner instead of
/// doing more.
pub const RUN_SECONDS: u64 = 8;

/// A workload and why it exists.
pub struct Workload {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// One sentence: what it stresses that the others do not.
    pub why: &'static str,
}

/// The six workloads, in the order `run` executes them.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "serve_read",
        why: "The read path a client sees: 2 closed-loop connections of bound reach queries over a frozen 378k-atom snapshot; works service transport/protocol and datalog::demand, bypasses wal, ingest, chase, core.",
    },
    Workload {
        name: "serve_mixed",
        why: "Writes beside reads on a durable server: BATCH through WAL fsync, IncrementalEngine::ingest and copy-on-publish, a reader alongside, then a timed recover; a read-path gain that costs ingest shows.",
    },
    Workload {
        name: "materialise_tc",
        why: "DatalogEngine::evaluate of linear TC on a 1500-node random graph (2.1M tuples): the recursive, insert- and dedup-heavy use of the join kernel and store, where model::parallel must earn its place.",
    },
    Workload {
        name: "answer_cq",
        why: "Read-only multiway joins over frozen instances (3-hop path count, 2-key FK chain, ConjunctiveQuery::evaluate): the kernel probing and enumerating with no inserts, so insert-vs-probe trade-offs show.",
    },
    Workload {
        name: "chase_warded",
        why: "Programs with existentials, which Datalog engines refuse: data exchange and OWL 2 QL through ChaseEngine and Reasoner plus a CQ; the other two fixpoint loops, where Datalog-only gains must not show.",
    },
    Workload {
        name: "decide_pwl",
        why: "The paper's own algorithm: linear proof-tree search deciding Boolean reach instances, the Thm 6.3 rewriting, alternating search; no bottom-up code, and its node width (Thm 4.8) is the paper's metric.",
    },
];

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (rates).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression; also the bound `repeat`
    /// holds the run-to-run spread to.
    pub bound: f64,
}

/// The eight end-to-end metrics. A workload measures the ones that apply to
/// it; for the others it repeats its own `wall_s` in the metric's unit (see
/// `README.md`, "Metrics that do not apply"), because the driver requires
/// every run to report every name.
///
/// Every timing bound is the contract's maximum, 25%, not the issue's
/// 10–15%: over ten-run sets taken at different hours this box's own
/// run-to-run spread was 4–9% while its host was quiet and 7–20% while it
/// was busy (a pure CPU loop then swung twofold within seconds), and a bound
/// inside the noise rejects innocent changes. Memory repeats within 0–3%,
/// except on `serve_mixed` (6–8%: how many published snapshots are alive at
/// once depends on reader/writer timing), and gets 20%. `ingest_p95_ms`, the issue's ninth metric, moved 23–35%
/// between identical runs and is per-layer (`client.ingest_p95_ms`).
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "requests_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ingest_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "recover_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A metric of a single layer, from the traced pass.
pub struct PerLayer {
    /// Metric name, prefixed by its layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// `true` for counts read from the layer's own public statistics, which
    /// must repeat exactly for a given seed.
    pub count: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        count: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        count: true,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        count: false,
    }
}

/// The per-layer metrics. A traced run reports every one of them: a
/// workload that never calls into a layer reports `0` for that layer's
/// metrics, which is the "this workload bypasses it" half of every
/// prediction.
pub const PER_LAYER: [PerLayer; 76] = [
    // client — the benchmark's own sockets.
    timed("client.query_p99_ms", "ms"),
    timed("client.ingest_p95_ms", "ms"),
    timed("client.ingest_p99_ms", "ms"),
    rate("client.reader_queries", "count"),
    count("client.rows_per_reply", "count"),
    // service
    timed("service.protocol.parse_query_us", "us"),
    timed("service.protocol.parse_batch_us", "us"),
    timed("service.protocol.render_us", "us"),
    timed("service.handler.query_p50_us", "us"),
    timed("service.handler.batch_p50_us", "us"),
    timed("service.transport.residual_us", "us"),
    timed("service.wal.append_us", "us"),
    timed("service.wal.fsync_us", "us"),
    count("service.wal.bytes_per_fact", "count"),
    timed("service.durable.ingest_us", "us"),
    timed("service.snapshot.write_ms", "ms"),
    timed("service.snapshot.read_ms", "ms"),
    count("service.snapshot.bytes_per_atom", "count"),
    timed("service.wal.replay_ms", "ms"),
    count("service.recover.records_replayed", "count"),
    count("service.transport.shed", "count"),
    count("service.transport.failed", "count"),
    // datalog
    timed("datalog.demand.answer_us", "us"),
    timed("datalog.demand.rewrite_us", "us"),
    timed("datalog.demand.seed_us", "us"),
    timed("datalog.demand.fixpoint_us", "us"),
    timed("datalog.demand.answer_eval_us", "us"),
    count("datalog.demand.demanded_tuples", "count"),
    PerLayer {
        name: "datalog.demand.cache_hit_share",
        unit: "%",
        better: Better::Higher,
        count: true,
    },
    timed("datalog.incremental.ingest_us", "us"),
    count("datalog.incremental.derived_per_batch", "count"),
    PerLayer {
        name: "datalog.incremental.strata_skipped",
        unit: "count",
        better: Better::Higher,
        count: true,
    },
    timed("datalog.incremental.snapshot_ms", "ms"),
    timed("datalog.evaluate_s", "s"),
    timed("datalog.evaluate_t2_s", "s"),
    count("datalog.derived_atoms", "count"),
    count("datalog.join_probes", "count"),
    count("datalog.rounds", "count"),
    count("datalog.rows_prededuped", "count"),
    count("datalog.peak_atoms", "count"),
    // model
    timed("model.parser.parse_query_us", "us"),
    timed("model.parser.parse_facts_us", "us"),
    rate("model.store.insert_rows_per_s", "1/s"),
    count("model.store.index_bytes", "count"),
    timed("model.snapshot.freeze_ms", "ms"),
    timed("model.join.plan_us", "us"),
    timed("model.join.ns_per_answer", "ns"),
    count("model.join.probes", "count"),
    count("model.join.composite_probes", "count"),
    count("model.join.probe_misses_filtered", "count"),
    timed("model.query.evaluate_us", "us"),
    rate("model.parallel.match_speedup_t2", "ratio"),
    // analysis
    timed("analysis.analyze_us", "us"),
    timed("analysis.stratify_us", "us"),
    timed("analysis.magic.rewrite_us", "us"),
    // chase
    timed("chase.run_s", "s"),
    count("chase.steps", "count"),
    count("chase.nulls_created", "count"),
    count("chase.peak_atoms", "count"),
    timed("chase.us_per_step", "us"),
    timed("chase.answers_ms", "ms"),
    // engine
    timed("engine.optimize_us", "us"),
    timed("engine.run_s", "s"),
    count("engine.join_probes", "count"),
    count("engine.rounds", "count"),
    count("engine.peak_atoms", "count"),
    // core
    timed("core.search.decide_us", "us"),
    count("core.search.states_visited", "count"),
    count("core.search.max_state_size", "count"),
    count("core.search.node_width_bound", "count"),
    timed("core.rewrite.rewrite_ms", "ms"),
    count("core.rewrite.rules_out", "count"),
    timed("core.rewrite.evaluate_s", "s"),
    timed("core.alternating.decide_us", "us"),
    // obs
    timed("trace.overhead_ratio", "ratio"),
    timed("obs.enabled_overhead_ratio", "ratio"),
];

/// `(name, unit)` of every end-to-end metric, in table order.
pub fn end_to_end_units() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
}

/// `(name, unit)` of every per-layer metric, in table order.
pub fn per_layer_units() -> Vec<(&'static str, &'static str)> {
    PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
}

/// The workload called `name`, if there is one.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The per-layer metric called `name`, if there is one.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// `BENCHMARK.json`, five directories up from this package.
    fn benchmark_json() -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        // As the `vadalog-bench` binary the manifest directory is
        // `crates/bench`; as the stand-alone package it is this directory.
        let root = path
            .ancestors()
            .find(|dir| dir.join("BENCHMARK.json").is_file())
            .expect("BENCHMARK.json above the manifest directory");
        std::fs::read_to_string(root.join("BENCHMARK.json")).expect("read BENCHMARK.json")
    }

    fn names_in(json: &str, section: &str) -> Vec<String> {
        let start = json.find(&format!("\"{section}\"")).expect("section") + section.len() + 2;
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section end")];
        body.split("\"name\":")
            .skip(1)
            .map(|rest| {
                let rest = &rest[rest.find('"').unwrap() + 1..];
                rest[..rest.find('"').unwrap()].to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_exactly_these_tables() {
        let json = benchmark_json();
        let workloads: Vec<_> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names_in(&json, "workloads"), workloads);
        let end_to_end: Vec<_> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(names_in(&json, "end_to_end"), end_to_end);
        let per_layer: Vec<_> = PER_LAYER.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(names_in(&json, "per_layer"), per_layer);
        assert!(json.contains(&format!("\"run_seconds\": {RUN_SECONDS}")));
        for metric in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                metric.name,
                metric.unit,
                metric.better.as_str(),
                metric.bound
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for workload in &WORKLOADS {
            assert!(json.contains(workload.why), "why of {}", workload.name);
        }
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(names.insert(name), "{name} is used twice");
            assert!(name.len() <= 64);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for workload in &WORKLOADS {
            assert!(workload.why.len() <= 200, "{} why too long", workload.name);
            assert!(!workload.why.contains('\n'));
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(PER_LAYER.len() <= 128);
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
