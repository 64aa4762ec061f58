//! Semi-naive bottom-up evaluation, driven by the packed build/probe join
//! kernel.
//!
//! Each rule body is compiled once per engine into a
//! [`vadalog_model::JoinSpec`] and, per round, into a static build/probe
//! [`vadalog_model::JoinPlan`] (shared by every worker of the round); heads
//! compile into packed [`vadalog_model::RowTemplate`]s. The per-delta-fact
//! work is a [`Matcher::prematch`] against the packed delta row plus a
//! planned, allocation-free join against the full instance — the rule body
//! is never cloned, no per-node join-order estimation runs, and no
//! intermediate `Vec<Substitution>` is materialised.
//!
//! # Round structure and parallelism
//!
//! Every round (the naive first round and each semi-naive round) evaluates
//! against a **frozen** instance: derivations are parked in columnar packed
//! [`vadalog_model::DerivationBatch`]es and merged with one batched dedup
//! insert per relation at the end of the round
//! ([`vadalog_model::parallel::merge_derivations_with`], with scratch
//! buffers reused across rounds). Freezing the round makes the work
//! embarrassingly parallel:
//!
//! * the **naive first round** is sharded by the rows of each rule's
//!   *driver atom* (body atom 0): the driver relation's rows are
//!   hash-partitioned into a fixed number of shards and each (rule, shard)
//!   task prematches the driver rows and joins the remaining body atoms —
//!   the same decomposition [`vadalog_model::parallel::sharded_match_count`]
//!   uses for CQs;
//! * **semi-naive rounds** shard each predicate's delta row range the same
//!   way, producing (rule, body position, shard) tasks.
//!
//! Tasks run on [`DatalogEngine::with_threads`] scoped workers, each driving
//! its own [`Matcher`] read-only over the shared instance. Before parking
//! its batch, every task **pre-dedups** against the frozen instance
//! ([`vadalog_model::DerivationBatch::prededup_against`]) so the sequential
//! merge only sees rows that are new this round (the dropped count is
//! reported as [`DatalogStats::rows_prededuped`]). Because the task
//! decomposition, the shared plans and the merge order depend only on the
//! data, results (row-id order included) are bit-identical for every thread
//! count; `threads = 1` runs the same tasks inline.

use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::time::Instant;
use vadalog_analysis::stratify::{stratify, Stratification};
use vadalog_model::parallel::{self, DerivationBatch};
use vadalog_model::{
    Atom, BudgetExceeded, ConjunctiveQuery, Database, Instance, JoinPlan, JoinSpec, Matcher,
    MergeScratch, ModelError, Predicate, Program, RowId, RowTemplate, Symbol, Tgd,
};

/// Counters describing an evaluation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DatalogStats {
    /// Total number of derived (IDB) atoms.
    pub derived_atoms: usize,
    /// Total number of atoms materialised (EDB + IDB) — the space proxy.
    pub peak_atoms: usize,
    /// Number of semi-naive iterations summed over all strata.
    pub iterations: usize,
    /// Number of join-kernel invocations. The counted unit is identical in
    /// both evaluation phases — one invocation of the join kernel — but the
    /// phases drive the kernel differently: the naive round invokes it once
    /// per rule (the whole instance is the driver), while semi-naive rounds
    /// invoke it once per (rule, differentiated body position, matching delta
    /// fact), the delta fact being the driver. For a driver-independent
    /// measure of join effort compare `join_probes`.
    pub joins_evaluated: usize,
    /// Candidate rows examined across all join-kernel invocations. Unlike
    /// `joins_evaluated` this unit is independent of what drives the join,
    /// so naive and semi-naive work is directly comparable.
    pub join_probes: u64,
    /// Planned probe steps answered by a composite (multi-column) fused-key
    /// index instead of a single-column index plus residual filtering (see
    /// [`vadalog_model::JoinStats::composite_probes`]).
    pub composite_probes: u64,
    /// Index probes skipped outright because the index's fingerprint filter
    /// proved the probe key absent — the common case in miss-heavy
    /// semi-naive delta rounds (see
    /// [`vadalog_model::JoinStats::misses_filtered`]). Purely observational:
    /// a filtered probe has zero candidates either way.
    pub probe_misses_filtered: u64,
    /// Rows dropped by the workers' pre-dedup against the round's frozen
    /// instance — work the sequential merge phase no longer performs. The
    /// counter makes the serial-section shrinkage observable; it never
    /// affects results (pre-dedup'd rows are exactly the duplicates the
    /// merge would have skipped).
    pub rows_prededuped: u64,
    /// Strata an incremental ingest skipped without reading any data —
    /// either proven unreachable from the batch's touched predicates by the
    /// predicate graph, or reachable but presented with no delta rows (see
    /// [`crate::IncrementalEngine`]). Always 0 for full evaluation.
    pub strata_skipped: usize,
    /// Fixpoint rounds executed through the incremental ingest path (the
    /// cross-stratum delta-seeded round of each affected stratum plus the
    /// semi-naive rounds it triggers). Always 0 for full evaluation, where
    /// rounds are counted by `iterations` alone (`iterations` covers both
    /// paths).
    pub rounds_incremental: usize,
}

/// Observational breakdown of one fixpoint round, collected by
/// `stratum_fixpoint` when the caller supplies a profile sink (the
/// service's `PROFILE` verb does; plain evaluation passes `None` and pays
/// nothing). Round 0 of a stratum is the naive round — its "delta" is the
/// full driver row set; each later round's delta is the previous round's
/// output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundProfile {
    /// Round index within the stratum (0 = naive round).
    pub round: usize,
    /// Wall-clock micros of the round (task fan-out + merge).
    pub wall_micros: u64,
    /// Rows seeding the round: driver rows for the naive round, the summed
    /// watermark delta ranges for semi-naive rounds.
    pub delta_rows: u64,
    /// Rows the round added to the instance (post-dedup).
    pub derived_rows: u64,
    /// Join-kernel candidate rows examined this round.
    pub join_probes: u64,
    /// Rows dropped by worker-side pre-dedup this round.
    pub rows_prededuped: u64,
}

/// The result of evaluating a Datalog program over a database.
#[derive(Debug, Clone)]
pub struct DatalogResult {
    /// The materialised instance (database facts plus derived facts).
    pub instance: Instance,
    /// Run statistics.
    pub stats: DatalogStats,
}

impl DatalogResult {
    /// Evaluates a conjunctive query over the materialised instance.
    pub fn answers(&self, query: &ConjunctiveQuery) -> BTreeSet<Vec<Symbol>> {
        query.evaluate(&self.instance)
    }

    /// `true` iff the Boolean query holds in the materialised instance.
    pub fn holds(&self, query: &ConjunctiveQuery) -> bool {
        query.holds_in(&self.instance)
    }
}

/// One stratum compiled for the round core: the block every engine of this
/// crate builds once per program and replays per evaluation.
#[derive(Debug, Clone)]
pub(crate) struct CompiledStratum {
    /// Indexes (into the program) of the stratum's rules.
    rule_indices: Vec<usize>,
    /// One compiled body per rule.
    pub(crate) specs: Vec<JoinSpec>,
    /// One packed head template per rule.
    pub(crate) templates: Vec<RowTemplate>,
    /// The stratum's own (head) predicates, in deterministic order.
    pub(crate) predicates: Vec<Predicate>,
    /// Distinct predicates occurring in the stratum's rule bodies, in
    /// first-occurrence order — the incremental engine's candidates for
    /// seed-round deltas.
    pub(crate) body_predicates: Vec<Predicate>,
    /// `true` iff the stratum is recursive (its predicates lie on a cycle).
    pub(crate) recursive: bool,
}

impl CompiledStratum {
    /// The stratum's rules, borrowed from the program it was compiled from.
    pub(crate) fn rules<'p>(&self, program: &'p Program) -> Vec<&'p Tgd> {
        self.rule_indices
            .iter()
            .map(|&i| &program.tgds()[i])
            .collect()
    }
}

/// Compiles every stratum of a (plain Datalog) program: rule bodies into
/// [`JoinSpec`]s, heads into packed [`RowTemplate`]s over them.
pub(crate) fn compile_strata(
    program: &Program,
    stratification: &Stratification,
) -> Vec<CompiledStratum> {
    stratification
        .strata
        .iter()
        .map(|stratum| {
            let rules: Vec<&Tgd> = stratum.rules.iter().map(|&i| &program.tgds()[i]).collect();
            let specs: Vec<JoinSpec> = rules
                .iter()
                .map(|rule| JoinSpec::compile(&rule.body))
                .collect();
            let templates = rules
                .iter()
                .zip(&specs)
                .map(|(rule, spec)| spec.row_template(&rule.head[0]))
                .collect();
            let mut body_predicates = Vec::new();
            for atom in rules.iter().flat_map(|rule| &rule.body) {
                if !body_predicates.contains(&atom.predicate) {
                    body_predicates.push(atom.predicate);
                }
            }
            CompiledStratum {
                rule_indices: stratum.rules.clone(),
                specs,
                templates,
                predicates: stratum.predicates.iter().copied().collect(),
                body_predicates,
                recursive: stratum.recursive,
            }
        })
        .collect()
}

/// One task's output: the derivations for the task's head predicate plus the
/// task-local counters, produced against the round's frozen instance and
/// merged in deterministic task order at the end of the round.
pub(crate) struct TaskOutput {
    batch: DerivationBatch,
    joins_evaluated: usize,
    join_probes: u64,
    composite_probes: u64,
    probe_misses_filtered: u64,
    rows_prededuped: u64,
}

impl TaskOutput {
    fn new(head: &Atom) -> TaskOutput {
        TaskOutput {
            batch: DerivationBatch::new(head.predicate, head.arity()),
            joins_evaluated: 0,
            join_probes: 0,
            composite_probes: 0,
            probe_misses_filtered: 0,
            rows_prededuped: 0,
        }
    }

    /// Folds one kernel run's counters and match count into the task.
    fn absorb_run(&mut self, run: vadalog_model::JoinStats) {
        self.batch.matches += run.matches;
        self.join_probes += run.probes;
        self.composite_probes += run.composite_probes;
        self.probe_misses_filtered += run.misses_filtered;
    }

    /// Worker-side pre-dedup against the round's frozen instance: the merge
    /// phase then inserts only rows that are new this round.
    fn prededup(mut self, frozen: &Instance) -> TaskOutput {
        self.rows_prededuped = self.batch.prededup_against(frozen);
        self
    }
}

/// Merges a round's task outputs into the instance (one batched dedup insert
/// per relation, in task order, through the round-reused scratch) and folds
/// the task counters into the stats.
pub(crate) fn flush_round(
    outputs: Vec<TaskOutput>,
    scratch: &mut MergeScratch,
    instance: &mut Instance,
    stats: &mut DatalogStats,
) {
    let mut batches = Vec::with_capacity(outputs.len());
    for out in outputs {
        stats.joins_evaluated += out.joins_evaluated;
        stats.join_probes += out.join_probes;
        stats.composite_probes += out.composite_probes;
        stats.probe_misses_filtered += out.probe_misses_filtered;
        stats.rows_prededuped += out.rows_prededuped;
        batches.push(out.batch);
    }
    stats.derived_atoms += parallel::merge_derivations_with(scratch, instance, batches)
        .expect("derived facts are ground and within capacity");
}

/// One delta row range of a seeded round: the rows `lo..hi` of `predicate`
/// drive every body position over that predicate. Entries of a round must
/// name distinct predicates and have `lo < hi`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DeltaRange {
    pub predicate: Predicate,
    pub lo: RowId,
    pub hi: RowId,
}

/// Runs one **seeded round** against the frozen `instance`: for every rule
/// and every body position whose predicate carries a delta range, the delta
/// rows seed that position (hash-partitioned into the fixed shard count) and
/// the remaining body atoms join along a per-(rule, position) build/probe
/// plan shared by all of the position's shards and workers. Returns the task
/// outputs, pre-deduped, in deterministic task order — the caller merges
/// them with [`flush_round`].
///
/// This is the shared round core of the batch engine's semi-naive loop
/// (deltas over the stratum's own predicates) and of the incremental
/// engine's ingest path (deltas over *any* body predicate: freshly ingested
/// EDB rows and rows lower strata derived this ingest). The task
/// decomposition depends only on the data, so results — row-id order
/// included — are bit-identical for every thread count.
pub(crate) fn seeded_round(
    rules: &[&Tgd],
    specs: &[JoinSpec],
    templates: &[RowTemplate],
    deltas: &[DeltaRange],
    instance: &Instance,
    threads: usize,
) -> Vec<TaskOutput> {
    let delta_shards: Vec<Vec<Vec<RowId>>> = deltas
        .iter()
        .map(|delta| {
            let rel = instance
                .relation(delta.predicate)
                .expect("delta relation exists");
            parallel::shard_delta_rows(rel, delta.lo, delta.hi)
        })
        .collect();
    struct DeltaTask {
        rule_index: usize,
        pos: usize,
        delta_index: usize,
        shard: usize,
        /// Index into the round's plan list (one shared plan per
        /// differentiated (rule, position), reused by all of its shards and
        /// workers).
        plan_index: usize,
    }
    let mut plans: Vec<JoinPlan> = Vec::new();
    let mut tasks: Vec<DeltaTask> = Vec::new();
    for (rule_index, rule) in rules.iter().enumerate() {
        for (pos, body_atom) in rule.body.iter().enumerate() {
            let Some(delta_index) = deltas
                .iter()
                .position(|d| d.predicate == body_atom.predicate)
            else {
                continue;
            };
            let arity = instance
                .arity_of(body_atom.predicate)
                .expect("delta relation exists");
            if arity != body_atom.arity() {
                continue;
            }
            let mut plan_index = None;
            for (shard, rows) in delta_shards[delta_index].iter().enumerate() {
                if !rows.is_empty() {
                    let plan_index = *plan_index.get_or_insert_with(|| {
                        plans.push(specs[rule_index].plan(instance, &[pos]));
                        plans.len() - 1
                    });
                    tasks.push(DeltaTask {
                        rule_index,
                        pos,
                        delta_index,
                        shard,
                        plan_index,
                    });
                }
            }
        }
    }
    parallel::run_tasks(threads, tasks.len(), |task_index| {
        let task = &tasks[task_index];
        let rule = rules[task.rule_index];
        let rel = instance
            .relation(deltas[task.delta_index].predicate)
            .expect("delta relation exists");
        let rows = &delta_shards[task.delta_index][task.shard];
        let mut out = TaskOutput::new(&rule.head[0]);
        let mut matcher = Matcher::new(&specs[task.rule_index]);
        matcher.set_plan(Some(&plans[task.plan_index]));
        // Seed the differentiated atom from each delta row of the shard and
        // join the remaining atoms against the full (frozen) instance along
        // the shared build/probe plan.
        for &row_id in rows {
            matcher.clear();
            if !matcher.prematch(task.pos, rel.row(row_id)) {
                continue;
            }
            out.joins_evaluated += 1;
            let run = matcher.for_each(instance, |bindings| {
                bindings.emit(&templates[task.rule_index], &mut out.batch.rows);
                ControlFlow::Continue(())
            });
            out.absorb_run(run);
        }
        out.prededup(instance)
    })
}

/// Runs one stratum to fixpoint against `instance`: the sharded naive first
/// round (driver-atom row ranges) followed, for recursive strata, by
/// watermark-delta semi-naive rounds until no stratum predicate grows. The
/// rules, compiled [`JoinSpec`]s and packed head [`RowTemplate`]s arrive
/// precompiled (see [`compile_strata`]): once per engine, and in the demand
/// engine once per cached binding pattern.
///
/// `deadline` is polled cooperatively at the top of every round (`None`
/// never cancels): a passed deadline stops the fixpoint with
/// [`BudgetExceeded::Deadline`] *between* rounds, leaving `instance` in a
/// sound-but-incomplete state the caller must discard. Unbudgeted callers
/// are bit-identical to the pre-extraction loop.
///
/// `profile`, when supplied, receives one [`RoundProfile`] per executed
/// round (delta sizes, probes, pre-dedup, wall micros). The sink and the
/// `datalog.round` trace spans are purely observational: they read counter
/// deltas the round produced anyway, so supplying a sink or enabling
/// tracing cannot change results or [`DatalogStats`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn stratum_fixpoint(
    rules: &[&Tgd],
    specs: &[JoinSpec],
    templates: &[RowTemplate],
    preds: &[Predicate],
    recursive: bool,
    instance: &mut Instance,
    threads: usize,
    scratch: &mut MergeScratch,
    stats: &mut DatalogStats,
    deadline: Option<Instant>,
    mut profile: Option<&mut Vec<RoundProfile>>,
) -> Result<(), BudgetExceeded> {
    let expired = |deadline: Option<Instant>| deadline.is_some_and(|d| Instant::now() >= d);
    if expired(deadline) {
        return Err(BudgetExceeded::Deadline);
    }

    let mut stratum_span = vadalog_obs::span("datalog.stratum");
    if stratum_span.active() {
        stratum_span.kv("rules", rules.len());
        stratum_span.kv("recursive", recursive);
    }
    // One closing record per round, shared by the trace span and the
    // profile sink. Timing runs only when someone is listening.
    let observing =
        |profile: &Option<&mut Vec<RoundProfile>>| profile.is_some() || vadalog_obs::enabled();
    #[allow(clippy::too_many_arguments)]
    fn close_round(
        round: usize,
        start: Option<Instant>,
        before: DatalogStats,
        after: DatalogStats,
        delta_rows: u64,
        span: &mut vadalog_obs::Span,
        profile: &mut Option<&mut Vec<RoundProfile>>,
    ) {
        let Some(start) = start else { return };
        let sample = RoundProfile {
            round,
            wall_micros: start.elapsed().as_micros() as u64,
            delta_rows,
            derived_rows: (after.derived_atoms - before.derived_atoms) as u64,
            join_probes: after.join_probes - before.join_probes,
            rows_prededuped: after.rows_prededuped - before.rows_prededuped,
        };
        if span.active() {
            span.kv("round", sample.round);
            span.kv("delta_rows", sample.delta_rows);
            span.kv("derived_rows", sample.derived_rows);
            span.kv("join_probes", sample.join_probes);
            span.kv("rows_prededuped", sample.rows_prededuped);
        }
        if let Some(sink) = profile.as_deref_mut() {
            sink.push(sample);
        }
    }

    // The delta of a round is not a separate instance: rows are
    // append-only with stable ids, so "the facts derived in round
    // i" is exactly a per-relation row-id range. Each round records
    // the relation watermarks of the stratum's predicates; the next
    // round replays the rows between the previous and the current
    // watermark. A relation missing at the `lo` sample watermarks at
    // 0, so a predicate first materialised in a later round gets the
    // full `0..hi` range — every row of it is genuinely new. Rounds
    // are evaluated against a frozen instance (derivations merge at
    // the end of the round), so `lo..hi` is exactly the previous
    // round's output and seed rows are never re-joined as delta.
    let watermark = |instance: &Instance| -> Vec<RowId> {
        preds
            .iter()
            .map(|&p| instance.relation(p).map(|r| r.row_count()).unwrap_or(0))
            .collect()
    };
    let mut lo = watermark(instance);

    // Naive first round, sharded by **driver-atom row ranges**: each
    // rule's body atom 0 is the driver; its relation's rows are
    // hash-partitioned into the fixed shard count and each
    // (rule, shard) task prematches the driver rows and joins the
    // remaining atoms with the rule's shared build/probe plan. A
    // rule whose driver relation is absent (or has the wrong arity)
    // can have no matches and contributes no tasks. The round still
    // counts one `joins_evaluated` per rule — the whole instance
    // drives each rule exactly once, however many shards execute it.
    let mut round_span = vadalog_obs::span("datalog.round");
    let round_start = observing(&profile).then(Instant::now);
    let naive_before = *stats;
    stats.joins_evaluated += rules.len();
    let naive_shards: Vec<Option<Vec<Vec<RowId>>>> = rules
        .iter()
        .map(|rule| {
            let driver = &rule.body[0];
            instance
                .relation(driver.predicate)
                .filter(|rel| rel.arity() == driver.arity())
                .map(|rel| parallel::shard_delta_rows(rel, 0, rel.row_count()))
        })
        .collect();
    let naive_plans: Vec<JoinPlan> = specs.iter().map(|spec| spec.plan(instance, &[0])).collect();
    struct NaiveTask {
        rule_index: usize,
        shard: usize,
    }
    let mut naive_tasks: Vec<NaiveTask> = Vec::new();
    for (rule_index, shards) in naive_shards.iter().enumerate() {
        if let Some(shards) = shards {
            for (shard, rows) in shards.iter().enumerate() {
                if !rows.is_empty() {
                    naive_tasks.push(NaiveTask { rule_index, shard });
                }
            }
        }
    }
    let frozen = &*instance;
    let naive = parallel::run_tasks(threads, naive_tasks.len(), |task_index| {
        let task = &naive_tasks[task_index];
        let rule = rules[task.rule_index];
        let driver = &rule.body[0];
        let rel = frozen
            .relation(driver.predicate)
            .expect("sharded driver relation exists");
        let rows = &naive_shards[task.rule_index]
            .as_ref()
            .expect("task shards exist")[task.shard];
        let mut out = TaskOutput::new(&rule.head[0]);
        let mut matcher = Matcher::new(&specs[task.rule_index]);
        matcher.set_plan(Some(&naive_plans[task.rule_index]));
        for &row_id in rows {
            out.join_probes += 1;
            matcher.clear();
            if !matcher.prematch(0, rel.row(row_id)) {
                continue;
            }
            let run = matcher.for_each(frozen, |bindings| {
                bindings.emit(&templates[task.rule_index], &mut out.batch.rows);
                ControlFlow::Continue(())
            });
            out.absorb_run(run);
        }
        out.prededup(frozen)
    });
    flush_round(naive, scratch, instance, stats);
    stats.iterations += 1;
    let naive_delta_rows = if round_start.is_some() {
        naive_shards
            .iter()
            .flatten()
            .map(|shards| shards.iter().map(|rows| rows.len() as u64).sum::<u64>())
            .sum()
    } else {
        0
    };
    close_round(
        0,
        round_start,
        naive_before,
        *stats,
        naive_delta_rows,
        &mut round_span,
        &mut profile,
    );
    drop(round_span);

    if !recursive {
        return Ok(());
    }

    // Semi-naive rounds: differentiate each rule with respect to the
    // predicates of this stratum, seeding one body atom from the
    // delta. Each predicate's delta row range is hash-partitioned
    // once per round into a fixed number of shards; the tasks of the
    // round are the non-empty (rule, body position, shard) triples,
    // a decomposition that depends only on the data so that merge
    // order — and therefore row-id assignment — is identical for
    // every thread count.
    let mut hi = watermark(instance);
    let mut round = 1usize;
    while lo.iter().zip(hi.iter()).any(|(l, h)| l < h) {
        if expired(deadline) {
            return Err(BudgetExceeded::Deadline);
        }
        let mut round_span = vadalog_obs::span("datalog.round");
        let round_start = observing(&profile).then(Instant::now);
        let before = *stats;
        stats.iterations += 1;
        let deltas: Vec<DeltaRange> = preds
            .iter()
            .enumerate()
            .filter(|&(pred_index, _)| lo[pred_index] < hi[pred_index])
            .map(|(pred_index, &predicate)| DeltaRange {
                predicate,
                lo: lo[pred_index],
                hi: hi[pred_index],
            })
            .collect();
        let outputs = seeded_round(rules, specs, templates, &deltas, instance, threads);
        flush_round(outputs, scratch, instance, stats);
        let delta_rows = deltas.iter().map(|d| (d.hi - d.lo) as u64).sum();
        close_round(
            round,
            round_start,
            before,
            *stats,
            delta_rows,
            &mut round_span,
            &mut profile,
        );
        round += 1;
        lo = hi;
        hi = watermark(instance);
    }
    Ok(())
}

/// A stratified semi-naive Datalog engine for a fixed program.
#[derive(Debug, Clone)]
pub struct DatalogEngine {
    program: Program,
    stratification: Stratification,
    strata: Vec<CompiledStratum>,
    threads: usize,
}

impl DatalogEngine {
    /// Creates an engine. Fails if the program is not plain Datalog (i.e.
    /// contains existential variables or multi-atom heads).
    pub fn new(program: Program) -> Result<DatalogEngine, ModelError> {
        if !program.is_datalog() {
            return Err(ModelError::InvalidTgd(
                "the Datalog engine requires full single-head TGDs (no existentials)".into(),
            ));
        }
        let stratification = stratify(&program);
        Ok(DatalogEngine {
            strata: compile_strata(&program, &stratification),
            program,
            stratification,
            threads: 1,
        })
    }

    /// Sets the number of evaluation worker threads (default 1 = sequential;
    /// 0 = all available parallelism). Results are bit-identical — answer
    /// sets, row-id order and counters — for every thread count.
    pub fn with_threads(mut self, threads: usize) -> DatalogEngine {
        self.threads = threads;
        self
    }

    /// The configured worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The program being evaluated.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The stratification used for evaluation.
    pub fn stratification(&self) -> &Stratification {
        &self.stratification
    }

    /// Materialises all IDB predicates over `database`.
    pub fn evaluate(&self, database: &Database) -> DatalogResult {
        let mut instance = database.as_instance().clone();
        let mut stats = DatalogStats::default();
        let mut scratch = MergeScratch::new();

        for stratum in &self.strata {
            // Workers build their own (cheap) `Matcher` per task, so nothing
            // below clones a rule body or allocates per candidate.
            stratum_fixpoint(
                &stratum.rules(&self.program),
                &stratum.specs,
                &stratum.templates,
                &stratum.predicates,
                stratum.recursive,
                &mut instance,
                self.threads,
                &mut scratch,
                &mut stats,
                None,
                None,
            )
            .expect("unbudgeted fixpoint never cancels");
        }

        stats.peak_atoms = instance.len();
        DatalogResult { instance, stats }
    }

    /// Evaluates the program and answers the query in one call. The query
    /// itself is answered through the sharded CQ kernel on the engine's
    /// configured thread count (answer sets are thread-count independent).
    pub fn answers(&self, database: &Database, query: &ConjunctiveQuery) -> BTreeSet<Vec<Symbol>> {
        query.evaluate_with_threads(&self.evaluate(database).instance, self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog_model::parser::{parse, parse_query, parse_rules};

    fn engine(rules: &str) -> DatalogEngine {
        DatalogEngine::new(parse_rules(rules).unwrap()).unwrap()
    }

    fn db(facts: &str) -> Database {
        parse(facts).unwrap().database
    }

    #[test]
    fn rejects_programs_with_existentials() {
        let p = parse_rules("r(X, Z) :- p(X).").unwrap();
        assert!(DatalogEngine::new(p).is_err());
    }

    #[test]
    fn linear_transitive_closure_over_a_chain() {
        let e = engine("t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).");
        let result = e.evaluate(&db("edge(a, b). edge(b, c). edge(c, d). edge(d, e)."));
        // Closure of a 4-edge chain has 4+3+2+1 = 10 pairs.
        assert_eq!(result.stats.derived_atoms, 10);
        let q = parse_query("?(X, Y) :- t(X, Y).").unwrap();
        assert_eq!(result.answers(&q).len(), 10);
        assert!(result.holds(&parse_query("? :- t(a, e).").unwrap()));
    }

    #[test]
    fn nonlinear_transitive_closure_matches_linear_answers() {
        let lin = engine("t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).");
        let non = engine("t(X, Y) :- edge(X, Y).\n t(X, Z) :- t(X, Y), t(Y, Z).");
        let database = db("edge(a, b). edge(b, c). edge(c, a). edge(c, d).");
        let q = parse_query("?(X, Y) :- t(X, Y).").unwrap();
        assert_eq!(lin.answers(&database, &q), non.answers(&database, &q));
    }

    #[test]
    fn mutually_recursive_predicates_are_evaluated_together() {
        let e = engine(
            "even(X) :- zero(X).\n even(Y) :- odd(X), succ(X, Y).\n odd(Y) :- even(X), succ(X, Y).",
        );
        let database = db("zero(n0). succ(n0, n1). succ(n1, n2). succ(n2, n3). succ(n3, n4).");
        let result = e.evaluate(&database);
        assert!(result.holds(&parse_query("? :- even(n0).").unwrap()));
        assert!(result.holds(&parse_query("? :- odd(n1).").unwrap()));
        assert!(result.holds(&parse_query("? :- even(n4).").unwrap()));
        assert!(!result.holds(&parse_query("? :- odd(n4).").unwrap()));
    }

    #[test]
    fn strata_are_evaluated_bottom_up() {
        let e = engine(
            "t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).\n\
             reach_pair(X, Y) :- t(X, Y), red(Y).",
        );
        let database = db("edge(a, b). edge(b, c). red(c).");
        let result = e.evaluate(&database);
        let q = parse_query("?(X) :- reach_pair(X, Y).").unwrap();
        let answers = result.answers(&q);
        assert_eq!(answers.len(), 2); // a and b reach the red node c.
    }

    #[test]
    fn repeated_head_variables_are_handled() {
        let e = engine("loop(X, X) :- node(X).\n self(X) :- loop(X, X).");
        let result = e.evaluate(&db("node(a). node(b)."));
        assert!(result.holds(&parse_query("? :- self(a).").unwrap()));
        assert_eq!(result.stats.derived_atoms, 4);
    }

    #[test]
    fn empty_database_yields_no_derivations() {
        let e = engine("t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).");
        let result = e.evaluate(&Database::new());
        assert_eq!(result.stats.derived_atoms, 0);
    }

    #[test]
    fn constants_in_queries_filter_answers() {
        let e = engine("t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).");
        let database = db("edge(a, b). edge(b, c).");
        let q = parse_query("?(Y) :- t(a, Y).").unwrap();
        let answers = e.answers(&database, &q);
        assert_eq!(answers.len(), 2);
    }

    #[test]
    fn semi_naive_does_not_rederive_known_facts() {
        // On a cycle the naive algorithm would loop forever re-deriving the
        // same facts; the semi-naive loop must converge and stop.
        let e = engine("t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).");
        let database = db("edge(a, b). edge(b, a).");
        let result = e.evaluate(&database);
        assert_eq!(result.stats.derived_atoms, 4); // t(a,b) t(b,a) t(a,a) t(b,b)
        assert!(result.stats.iterations < 10);
    }

    #[test]
    fn peak_atoms_counts_edb_plus_idb() {
        let e = engine("t(X, Y) :- edge(X, Y).");
        let result = e.evaluate(&db("edge(a, b). edge(b, c)."));
        assert_eq!(result.stats.peak_atoms, 4);
    }

    #[test]
    fn predicate_first_materialised_mid_stratum_gets_the_full_delta_range() {
        // `odd` has no relation when the stratum samples its first watermark
        // (a missing relation watermarks at 0) and is first materialised in
        // the second round. Its first delta must be exactly the new rows —
        // re-joining any earlier range would inflate `joins_evaluated`.
        let e = engine(
            "even(X) :- zero(X).\n even(Y) :- odd(X), succ(X, Y).\n odd(Y) :- even(X), succ(X, Y).",
        );
        let database = db("zero(n0). succ(n0, n1). succ(n1, n2). succ(n2, n3). succ(n3, n4).");
        let result = e.evaluate(&database);
        // even(n0), odd(n1), even(n2), odd(n3), even(n4).
        assert_eq!(result.stats.derived_atoms, 5);
        // Naive round: 3 rule invocations. Each semi-naive round seeds the
        // single new fact into the one differentiated position that accepts
        // it: rounds 2–6 contribute exactly one invocation each (the last
        // finds no successor and closes the fixpoint).
        assert_eq!(result.stats.joins_evaluated, 3 + 5);
        assert_eq!(result.stats.iterations, 6);
        assert!(result.holds(&parse_query("? :- even(n4).").unwrap()));
        assert!(!result.holds(&parse_query("? :- odd(n0).").unwrap()));
    }

    #[test]
    fn edb_seeded_idb_predicate_is_not_rejoined_as_delta() {
        // The database already holds a `t` fact. The stratum's first
        // watermark must cover it (the naive round joins it as part of the
        // full instance), so the first semi-naive delta contains only the
        // naive round's output — never the seed row again.
        let e = engine("t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).");
        let result = e.evaluate(&db("edge(b, c). t(a, b)."));
        assert_eq!(result.stats.derived_atoms, 1); // t(b, c)
                                                   // Naive: 2 invocations. Round 2: only the new t(b, c) seeds the
                                                   // recursive position (1 invocation). A drifting watermark would
                                                   // re-seed t(a, b) for a 4th invocation — and on programs with
                                                   // existing matches, re-derive its consequences out of order.
        assert_eq!(result.stats.joins_evaluated, 3);
        assert_eq!(result.stats.iterations, 2);
        let q = parse_query("?(X, Y) :- t(X, Y).").unwrap();
        assert_eq!(result.answers(&q).len(), 2);
    }

    #[test]
    fn sharded_threads_are_bit_identical_to_sequential() {
        let program = "t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).";
        let database =
            db("edge(a, b). edge(b, c). edge(c, d). edge(d, a). edge(b, e). edge(e, f).");
        let sequential = engine(program).evaluate(&database);
        for threads in [2, 4] {
            let sharded = engine(program).with_threads(threads).evaluate(&database);
            assert_eq!(sharded.stats.derived_atoms, sequential.stats.derived_atoms);
            assert_eq!(
                sharded.stats.joins_evaluated,
                sequential.stats.joins_evaluated
            );
            assert_eq!(sharded.stats.join_probes, sequential.stats.join_probes);
            assert_eq!(sharded.stats.iterations, sequential.stats.iterations);
            assert_eq!(
                sharded.stats.rows_prededuped,
                sequential.stats.rows_prededuped
            );
            assert_eq!(
                sharded.stats.composite_probes,
                sequential.stats.composite_probes
            );
            assert_eq!(
                sharded.stats.probe_misses_filtered,
                sequential.stats.probe_misses_filtered
            );
            assert_eq!(
                sharded.instance.row_layout(),
                sequential.instance.row_layout(),
                "row-id assignment must not depend on the thread count"
            );
        }
    }

    #[test]
    fn workers_prededup_rederivations_before_the_merge() {
        // On a cycle the recursive rule re-derives closure facts that are
        // already materialised: those rows must be dropped by the workers
        // (observable in the counter) without changing any result.
        let e = engine("t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).");
        let result = e.evaluate(&db("edge(a, b). edge(b, a)."));
        assert_eq!(result.stats.derived_atoms, 4);
        assert!(
            result.stats.rows_prededuped > 0,
            "a cyclic closure re-derives known facts; workers must pre-dedup them"
        );
        // An acyclic single-pass program re-derives nothing.
        let straight = engine("t(X, Y) :- edge(X, Y).").evaluate(&db("edge(a, b)."));
        assert_eq!(straight.stats.rows_prededuped, 0);
    }

    #[test]
    fn join_counters_use_one_unit_across_phases() {
        let e = engine("t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).");
        let result = e.evaluate(&db("edge(a, b). edge(b, c). edge(c, d)."));
        // Naive round: one invocation per rule (2). Semi-naive rounds: one
        // invocation per (rule, recursive position, delta fact); only the
        // second rule has a position in the recursive stratum.
        // Round 1 delta = {t(a,b), t(b,c), t(c,d)} → 3 invocations,
        // round 2 delta = {t(a,c), t(b,d)} → 2, round 3 delta = {t(a,d)} → 1.
        assert_eq!(result.stats.joins_evaluated, 2 + 3 + 2 + 1);
        assert!(result.stats.join_probes > 0);
    }
}
