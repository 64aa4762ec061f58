//! Semi-naive bottom-up evaluation, driven by the packed build/probe join
//! kernel.
//!
//! Each rule body is compiled once per engine into a
//! [`vadalog_model::JoinSpec`] and, per round, into a static build/probe
//! [`vadalog_model::JoinPlan`] (shared by every worker of the round); heads
//! compile into packed [`vadalog_model::RowTemplate`]s. The per-driven-row
//! work is a [`Matcher::prematch`] against the packed row plus a planned,
//! allocation-free join against the full instance — the rule body is never
//! cloned, no per-node join-order estimation runs, and no intermediate
//! `Vec<Substitution>` is materialised.
//!
//! # One loop
//!
//! `stratum_fixpoint` is the crate's only fixpoint loop, and every round of
//! it is the same thing. A [`DrivenRows`] schedule — the bookkeeping the chase
//! loop of `vadalog_chase` runs on too — says, per (rule, body position), how
//! many rows of the position's relation were already driven through it; a
//! round takes every position whose relation holds rows above its watermark,
//! drives those rows through the rule, merges the derivations and advances
//! the watermarks; the loop ends when no position has new rows. The crate's
//! three engines differ only in the schedule they start the loop from:
//!
//! * [`DatalogEngine::evaluate`] and [`crate::DemandEngine`] evaluate from
//!   scratch and start from [`DrivenRows::from_first_atom`] — the first round
//!   drives each rule's body atom 0 over its whole relation, every later
//!   round only the rows the previous one derived (the semi-naive delta is a
//!   row-id range: rows are append-only with stable ids);
//! * [`crate::IncrementalEngine::ingest`] resumes a fixpoint and starts from
//!   [`DrivenRows::from_watermarks`] over the engine's per-relation
//!   watermarks — the first round drives every position over the rows that
//!   arrived since the last ingest.
//!
//! A non-recursive stratum needs no special case: none of its positions
//! gains rows, so it runs one round.
//!
//! # Round structure and parallelism
//!
//! Every round evaluates against a **frozen** instance: derivations are
//! parked in columnar packed [`vadalog_model::DerivationBatch`]es and merged
//! with one batched dedup insert per relation at the end of the round
//! ([`vadalog_model::parallel::merge_derivations_with`], with scratch
//! buffers reused across rounds). Freezing the round makes the work
//! embarrassingly parallel: each driven row range is hash-partitioned into a
//! fixed number of shards, and each (rule, body position, shard) task
//! prematches its rows and joins the remaining body atoms — the same
//! decomposition [`vadalog_model::parallel::sharded_match_count`] uses for
//! CQs.
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
    BudgetExceeded, ConjunctiveQuery, Database, DrivenRange, DrivenRows, Instance, JoinPlan,
    JoinSpec, JoinStats, Matcher, MergeScratch, ModelError, Predicate, Program, RowId, RowTemplate,
    Symbol,
};

/// Counters describing an evaluation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DatalogStats {
    /// Total number of derived (IDB) atoms.
    pub derived_atoms: usize,
    /// Total number of atoms materialised (EDB + IDB) — the space proxy.
    pub peak_atoms: usize,
    /// Number of fixpoint rounds summed over all strata. A stratum with
    /// nothing to drive runs (and counts) no round.
    pub iterations: usize,
    /// Driven rows that prematched their body position — one join-kernel
    /// invocation each: the kernel joins the remaining body atoms behind
    /// every such row, in every round alike.
    pub joins_evaluated: usize,
    /// Candidate rows the join kernel examined for the body atoms behind the
    /// driven one, summed over all invocations
    /// ([`vadalog_model::JoinStats::probes`]). Driven rows themselves are
    /// not probes.
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
    /// Fixpoint rounds executed through the incremental ingest path. Always
    /// 0 for full evaluation, where rounds are counted by `iterations` alone
    /// (`iterations` covers both paths).
    pub rounds_incremental: usize,
}

/// Observational breakdown of one fixpoint round, collected by
/// `stratum_fixpoint` when the caller supplies a profile sink (the
/// service's `PROFILE` verb does; plain evaluation passes `None` and pays
/// nothing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundProfile {
    /// Round index within the stratum.
    pub round: usize,
    /// Wall-clock micros of the round (task fan-out + merge).
    pub wall_micros: u64,
    /// Rows driven this round, summed over the round's (rule, body position)
    /// ranges: body atom 0's whole relation in a from-scratch round 0, rows
    /// above the watermarks otherwise.
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

/// One stratum compiled for the fixpoint loop: the block every engine of
/// this crate builds once per program and replays per evaluation.
#[derive(Debug, Clone)]
pub(crate) struct CompiledStratum {
    /// One compiled body per rule.
    pub(crate) specs: Vec<JoinSpec>,
    /// Per rule, the head predicate and the packed head template over the
    /// rule's body spec.
    heads: Vec<(Predicate, RowTemplate)>,
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
            let (specs, heads) = stratum
                .rules
                .iter()
                .map(|&i| {
                    let rule = &program.tgds()[i];
                    let spec = JoinSpec::compile(&rule.body);
                    let head = &rule.head[0];
                    let template = spec.row_template(head);
                    (spec, (head.predicate, template))
                })
                .unzip();
            CompiledStratum { specs, heads }
        })
        .collect()
}

/// One task's output: the derivations for the task's head predicate plus the
/// task-local counters, produced against the round's frozen instance and
/// merged in deterministic task order at the end of the round.
struct TaskOutput {
    batch: DerivationBatch,
    joins_evaluated: usize,
    kernel: JoinStats,
    rows_prededuped: u64,
}

/// Runs one round against the frozen `instance`: every driven range is
/// hash-partitioned into the fixed shard count, and each non-empty (range,
/// shard) task seeds the range's body position from its rows and joins the
/// remaining body atoms along a build/probe plan shared by all of the
/// range's shards and workers. Returns the task outputs, pre-deduped, in
/// (rule, position, shard) order for [`flush_round`]. The decomposition
/// depends only on the data, so results — row-id order included — are
/// bit-identical for every thread count.
fn driven_round(
    stratum: &CompiledStratum,
    ranges: &[DrivenRange],
    instance: &Instance,
    threads: usize,
) -> Vec<TaskOutput> {
    let relation = |range: &DrivenRange| {
        stratum.specs[range.rule]
            .atom_relation(instance, range.pos)
            .expect("a driven range is non-empty, so its relation exists")
    };
    let plans: Vec<JoinPlan> = ranges
        .iter()
        .map(|range| stratum.specs[range.rule].plan(instance, &[range.pos]))
        .collect();
    let shards: Vec<Vec<Vec<RowId>>> = ranges
        .iter()
        .map(|range| parallel::shard_delta_rows(relation(range), range.lo, range.hi))
        .collect();
    let tasks: Vec<(usize, &[RowId])> = shards
        .iter()
        .enumerate()
        .flat_map(|(range_index, shards)| {
            shards
                .iter()
                .filter(|rows| !rows.is_empty())
                .map(move |rows| (range_index, rows.as_slice()))
        })
        .collect();
    parallel::run_tasks(threads, tasks.len(), |task_index| {
        let (range_index, rows) = tasks[task_index];
        let range = &ranges[range_index];
        let rel = relation(range);
        let (head, template) = &stratum.heads[range.rule];
        let mut out = TaskOutput {
            batch: DerivationBatch::new(*head, template.arity()),
            joins_evaluated: 0,
            kernel: JoinStats::default(),
            rows_prededuped: 0,
        };
        let mut matcher = Matcher::new(&stratum.specs[range.rule]);
        matcher.set_plan(Some(&plans[range_index]));
        for &row_id in rows {
            matcher.clear();
            if !matcher.prematch(range.pos, rel.row(row_id)) {
                continue;
            }
            out.joins_evaluated += 1;
            out.kernel.absorb(matcher.for_each(instance, |bindings| {
                bindings.emit(template, &mut out.batch.rows);
                ControlFlow::Continue(())
            }));
        }
        out.batch.matches = out.kernel.matches;
        // Worker-side pre-dedup: the merge phase then inserts only rows that
        // are new this round.
        out.rows_prededuped = out.batch.prededup_against(instance);
        out
    })
}

/// Merges a round's task outputs into the instance (one batched dedup insert
/// per relation, in task order, through the round-reused scratch) and folds
/// the task counters into the stats.
fn flush_round(
    outputs: Vec<TaskOutput>,
    scratch: &mut MergeScratch,
    instance: &mut Instance,
    stats: &mut DatalogStats,
) {
    let mut batches = Vec::with_capacity(outputs.len());
    for out in outputs {
        stats.joins_evaluated += out.joins_evaluated;
        stats.join_probes += out.kernel.probes;
        stats.composite_probes += out.kernel.composite_probes;
        stats.probe_misses_filtered += out.kernel.misses_filtered;
        stats.rows_prededuped += out.rows_prededuped;
        batches.push(out.batch);
    }
    stats.derived_atoms += parallel::merge_derivations_with(scratch, instance, batches)
        .expect("derived facts are ground and within capacity");
}

/// Runs one stratum to fixpoint against `instance`, starting from the
/// `driven` schedule (see the [module docs](self) for the loop and for what
/// each engine starts it from), and returns the number of rounds it ran — 0
/// when the schedule had nothing to drive. Rounds are counted in
/// [`DatalogStats::iterations`].
///
/// `deadline` is polled cooperatively before every round (`None` never
/// cancels): a passed deadline stops the fixpoint with
/// [`BudgetExceeded::Deadline`] *between* rounds, leaving `instance` in a
/// sound-but-incomplete state the caller must discard.
///
/// `profile`, when supplied, receives one [`RoundProfile`] per round. The
/// sink and the `datalog.stratum` / `datalog.round` trace spans are purely
/// observational: they read counter deltas the round produced anyway, and
/// timing runs only when someone is listening, so supplying a sink or
/// enabling tracing cannot change results or [`DatalogStats`].
pub(crate) fn stratum_fixpoint(
    stratum: &CompiledStratum,
    mut driven: DrivenRows,
    instance: &mut Instance,
    threads: usize,
    stats: &mut DatalogStats,
    deadline: Option<Instant>,
    mut profile: Option<&mut Vec<RoundProfile>>,
) -> Result<usize, BudgetExceeded> {
    let mut ranges = driven.next_round(&stratum.specs, instance);
    if ranges.is_empty() {
        // Nothing to drive: no span, no round.
        return Ok(0);
    }
    let mut stratum_span = vadalog_obs::span("datalog.stratum");
    stratum_span.kv("rules", stratum.specs.len());
    let mut scratch = MergeScratch::new();
    let mut round = 0;
    while !ranges.is_empty() {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(BudgetExceeded::Deadline);
        }
        let mut round_span = vadalog_obs::span("datalog.round");
        let start = (profile.is_some() || round_span.active()).then(Instant::now);
        let before = *stats;
        stats.iterations += 1;
        let outputs = driven_round(stratum, &ranges, instance, threads);
        flush_round(outputs, &mut scratch, instance, stats);
        if let Some(start) = start {
            let sample = RoundProfile {
                round,
                wall_micros: start.elapsed().as_micros() as u64,
                delta_rows: ranges.iter().map(|r| (r.hi - r.lo) as u64).sum(),
                derived_rows: (stats.derived_atoms - before.derived_atoms) as u64,
                join_probes: stats.join_probes - before.join_probes,
                rows_prededuped: stats.rows_prededuped - before.rows_prededuped,
            };
            round_span.kv("round", sample.round);
            round_span.kv("delta_rows", sample.delta_rows);
            round_span.kv("derived_rows", sample.derived_rows);
            round_span.kv("join_probes", sample.join_probes);
            round_span.kv("rows_prededuped", sample.rows_prededuped);
            if let Some(sink) = profile.as_deref_mut() {
                sink.push(sample);
            }
        }
        round += 1;
        ranges = driven.next_round(&stratum.specs, instance);
    }
    Ok(round)
}

/// A stratified semi-naive Datalog engine for a fixed program.
#[derive(Debug, Clone)]
pub struct DatalogEngine {
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
        Ok(DatalogEngine {
            strata: compile_strata(&program, &stratify(&program)),
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

    /// Materialises all IDB predicates over `database`.
    pub fn evaluate(&self, database: &Database) -> DatalogResult {
        let mut instance = database.as_instance().clone();
        let mut stats = DatalogStats::default();
        for stratum in &self.strata {
            let driven = DrivenRows::from_first_atom(&stratum.specs, &instance);
            stratum_fixpoint(
                stratum,
                driven,
                &mut instance,
                self.threads,
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
        // `odd` has no relation when the stratum's schedule starts (a missing
        // relation watermarks at 0) and is first materialised in the second
        // round. Its first driven range must be exactly the new rows —
        // re-joining any earlier range would inflate `joins_evaluated`.
        let e = engine(
            "even(X) :- zero(X).\n even(Y) :- odd(X), succ(X, Y).\n odd(Y) :- even(X), succ(X, Y).",
        );
        let database = db("zero(n0). succ(n0, n1). succ(n1, n2). succ(n2, n3). succ(n3, n4).");
        let result = e.evaluate(&database);
        // even(n0), odd(n1), even(n2), odd(n3), even(n4).
        assert_eq!(result.stats.derived_atoms, 5);
        // First round: body atom 0 drives each rule, and only `zero` has a
        // relation yet — its one row is the round's one invocation. Each
        // later round drives the single new fact through the one position
        // that accepts it: rounds 2–6 contribute exactly one invocation each
        // (the last finds no successor and closes the fixpoint).
        assert_eq!(result.stats.joins_evaluated, 1 + 5);
        assert_eq!(result.stats.iterations, 6);
        assert!(result.holds(&parse_query("? :- even(n4).").unwrap()));
        assert!(!result.holds(&parse_query("? :- odd(n0).").unwrap()));
    }

    #[test]
    fn edb_seeded_idb_predicate_is_not_rejoined_as_delta() {
        // The database already holds a `t` fact. The recursive position's
        // watermark must start above it (the first round joins it as part of
        // the full instance behind the driving `edge` atom), so the second
        // round drives only the first round's output — never the seed row
        // again.
        let e = engine("t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).");
        let result = e.evaluate(&db("edge(b, c). t(a, b)."));
        assert_eq!(result.stats.derived_atoms, 1, "t(b, c)");
        // First round: the one `edge` row drives body atom 0 of both rules
        // (1 + 1 invocations). Round 2: only the new t(b, c) drives the
        // recursive position (1). A watermark starting at 0 would drive
        // t(a, b) too for a 4th invocation — and on programs with existing
        // matches, re-derive its consequences out of order.
        assert_eq!(result.stats.joins_evaluated, (1 + 1) + 1);
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
        // One invocation per driven row that prematches, in every round. First
        // round: the 3 `edge` rows drive body atom 0 of both rules (3 + 3).
        // Later rounds: only the second rule has a position over `t`, driven
        // by the previous round's output — {t(a,b), t(b,c), t(c,d)} → 3,
        // {t(a,c), t(b,d)} → 2, {t(a,d)} → 1.
        assert_eq!(result.stats.joins_evaluated, (3 + 3) + 3 + 2 + 1);
        // Probes are the rows the kernel examines behind the driven one, never
        // the driven rows: none in the first round (a single-atom body; `t`
        // has no rows yet), then one per `edge` row found entering the driven
        // t(Y, _) — Y = b and Y = c in round 2, Y = b in round 3, none after.
        assert_eq!(result.stats.join_probes, 2 + 1);
    }
}
