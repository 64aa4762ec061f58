//! Sharded parallel execution over a read-only [`Instance`] snapshot — the
//! shard/merge machinery shared by every fixpoint engine.
//!
//! # Model
//!
//! All engines in this workspace alternate two phases per round:
//!
//! 1. **Match (read-only, parallel).** The round's work — the
//!    [`DrivenRange`]s its [`DrivenRows`] schedule hands out — is split into
//!    *tasks*: one per (rule, driven body position, row shard) in the Datalog
//!    engines, one per (rule, driven body position) in the chase. Workers
//!    created with [`std::thread::scope`] pull task ids from a shared atomic
//!    cursor and run the [`crate::homomorphism`] join kernel **read-only**
//!    against the shared `&Instance` (which is [`Sync`]: the lazy column
//!    indexes sit behind per-column `RwLock`s). Each task streams its
//!    derivations into a private columnar [`DerivationBatch`], so workers
//!    never contend on anything but the task cursor and cold index builds.
//! 2. **Merge (sequential, deterministic).** Task results are re-ordered by
//!    task id and flushed with one batched dedup insert per relation
//!    ([`Instance::insert_batch`]). Because the task decomposition and the
//!    merge order depend only on the data — delta rows are hash-partitioned
//!    into a *fixed* number of shards ([`DELTA_SHARDS`]), never into
//!    "one shard per thread" — the row ids assigned during the merge are
//!    **bit-identical for every thread count**, including the sequential
//!    `threads = 1` path, which runs the same tasks inline without spawning.
//!
//! # Determinism contract
//!
//! Anything that influences results must be independent of the thread count:
//! the task list, each task's output (the kernel is deterministic over a
//! frozen instance), and the merge order. Thread count only decides which
//! worker happens to execute a task. This is what lets the cross-engine
//! property tests assert bit-identical instances and counter totals between
//! `threads = 1` and `threads = N`.

use crate::atom::Predicate;
use crate::budget::{BudgetExceeded, CancelCell, KernelBudget, QueryBudget};
use crate::database::{Instance, Relation, RowId};
use crate::error::ModelError;
use crate::fasthash::FxHashMap;
use crate::homomorphism::{JoinSpec, JoinStats, Matcher};
use crate::symbols::Symbol;
use crate::term::{PackedTerm, Variable};
use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of shards a delta row range is hash-partitioned into. Fixed (and
/// deliberately *not* the thread count) so that the task decomposition — and
/// with it row-id assignment order — is identical for every thread count;
/// larger than any sane core count so work stealing can still balance skew.
pub const DELTA_SHARDS: usize = 32;

/// Resolves a requested thread count: `0` means "use all available
/// parallelism", anything else is taken literally. The result is at least 1.
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        requested
    }
}

/// Hash-partitions the delta row range `lo..hi` of `rel` into
/// [`DELTA_SHARDS`] row-id lists keyed on the row's content hash (its join
/// key). Row order inside each shard stays ascending, and the partition
/// depends only on the rows, never on the thread count.
pub fn shard_delta_rows(rel: &Relation, lo: RowId, hi: RowId) -> Vec<Vec<RowId>> {
    let mut shards: Vec<Vec<RowId>> = vec![Vec::new(); DELTA_SHARDS];
    for id in lo..hi {
        shards[rel.row_shard(id, DELTA_SHARDS)].push(id);
    }
    shards
}

/// Runs `num_tasks` tasks on up to `threads` workers (resolved through
/// [`effective_threads`]) and returns the results **in task order**.
///
/// Tasks are pulled from a shared atomic cursor, so load balances even when
/// task costs are skewed. With an effective thread count of 1 — or a single
/// task — the tasks run inline on the calling thread, with no spawn, no
/// atomics traffic and no re-sort: the sequential path is exactly "call
/// `task` in a loop".
pub fn run_tasks<R, F>(threads: usize, num_tasks: usize, task: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = effective_threads(threads).min(num_tasks.max(1));
    if threads <= 1 {
        return (0..num_tasks).map(task).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut collected: Vec<(usize, R)> = Vec::with_capacity(num_tasks);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let id = cursor.fetch_add(1, Ordering::Relaxed);
                        if id >= num_tasks {
                            break;
                        }
                        out.push((id, task(id)));
                    }
                    out
                })
            })
            .collect();
        for worker in workers {
            collected.extend(worker.join().expect("parallel worker panicked"));
        }
    });
    collected.sort_unstable_by_key(|&(id, _)| id);
    collected.into_iter().map(|(_, r)| r).collect()
}

/// One unit of a fixpoint round's work: drive rule `rule`'s body atom `pos`
/// from the rows `lo..hi` of its relation. Ranges are never empty, so the
/// relation exists and has the atom's arity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrivenRange {
    /// The rule's index among the bodies the schedule was started over.
    pub rule: usize,
    /// The driven body position.
    pub pos: usize,
    /// First row to drive.
    pub lo: RowId,
    /// One past the last row to drive.
    pub hi: RowId,
}

/// The round schedule of every bottom-up loop in the workspace (the chase's
/// and the Datalog crate's): per (rule, body position), how many rows of the
/// position's relation have already been driven through it.
///
/// A rule is *driven* from the rows of one body atom
/// ([`Matcher::prematch`]) with the rest of the body joined behind it
/// ([`JoinSpec::plan`] for that position). Rows are append-only with stable
/// ids, so "the rows a position has not seen" is a row-id range above its
/// watermark: [`DrivenRows::next_round`] hands out those ranges and advances
/// the watermarks past them, and a loop is at fixpoint when it hands out
/// none. A match is therefore found in the first round in which all its rows
/// exist — once per position whose row is new in that round — and never
/// again. Loops differ in where the watermarks start and in what they do
/// with a match, not in this bookkeeping.
#[derive(Debug, Clone)]
pub struct DrivenRows {
    driven: Vec<Vec<RowId>>,
}

impl DrivenRows {
    /// The from-scratch start: position 0 at row 0 and every other position
    /// at its relation's current size, so the first round is "body atom 0
    /// over its whole relation" — every match over `instance` binds atom 0 to
    /// exactly one row — and later rounds drive each position over only the
    /// rows its relation gained.
    pub fn from_first_atom<'s>(
        bodies: impl IntoIterator<Item = &'s JoinSpec>,
        instance: &Instance,
    ) -> DrivenRows {
        DrivenRows::start(bodies, |body, pos| match pos {
            0 => 0,
            _ => driver_rows(body, instance, pos),
        })
    }

    /// The resumed start: every position at `watermark` of its predicate —
    /// the rows below it took part in an earlier fixpoint, so the first round
    /// drives every position over the rows that arrived since.
    pub fn from_watermarks<'s>(
        bodies: impl IntoIterator<Item = &'s JoinSpec>,
        watermark: impl Fn(Predicate) -> RowId,
    ) -> DrivenRows {
        DrivenRows::start(bodies, |body, pos| watermark(body.atom_predicate(pos)))
    }

    fn start<'s>(
        bodies: impl IntoIterator<Item = &'s JoinSpec>,
        first: impl Fn(&JoinSpec, usize) -> RowId,
    ) -> DrivenRows {
        let driven = bodies
            .into_iter()
            .map(|body| (0..body.num_atoms()).map(|pos| first(body, pos)).collect())
            .collect();
        DrivenRows { driven }
    }

    /// The next round's work in (rule, position) order — one range per
    /// position whose relation in `instance` holds rows above its watermark —
    /// with the watermarks advanced past it. `bodies` are the bodies the
    /// schedule was started over, in the same order. Empty at fixpoint.
    pub fn next_round<'s>(
        &mut self,
        bodies: impl IntoIterator<Item = &'s JoinSpec>,
        instance: &Instance,
    ) -> Vec<DrivenRange> {
        let mut ranges = Vec::new();
        for (rule, (body, driven)) in bodies.into_iter().zip(&mut self.driven).enumerate() {
            for (pos, lo) in driven.iter_mut().enumerate() {
                let hi = driver_rows(body, instance, pos);
                if *lo < hi {
                    ranges.push(DrivenRange {
                        rule,
                        pos,
                        lo: *lo,
                        hi,
                    });
                    *lo = hi;
                }
            }
        }
        ranges
    }
}

/// Rows body atom `pos` can be driven from (0 when its relation is absent or
/// has another arity).
fn driver_rows(body: &JoinSpec, instance: &Instance, pos: usize) -> RowId {
    body.atom_relation(instance, pos)
        .map_or(0, Relation::row_count)
}

/// One task's derivations for a single head predicate, parked in columnar
/// **packed** form (row-major `PackedTerm` buffer) while the instance is
/// immutably shared.
#[derive(Debug, Clone)]
pub struct DerivationBatch {
    /// Head predicate of the derivations.
    pub predicate: Predicate,
    /// Arity of the head predicate (0 for propositional heads).
    pub arity: usize,
    /// Row-major derived packed rows (`rows.len()` is a multiple of `arity`;
    /// empty for 0-ary heads).
    pub rows: Vec<PackedTerm>,
    /// Number of kernel matches; for 0-ary heads this alone says whether the
    /// fact was derived.
    pub matches: u64,
}

impl DerivationBatch {
    /// An empty batch for a head predicate.
    pub fn new(predicate: Predicate, arity: usize) -> DerivationBatch {
        DerivationBatch {
            predicate,
            arity,
            rows: Vec::new(),
            matches: 0,
        }
    }

    /// Drops every row that is already present in `instance`, compacting the
    /// buffer in place, and returns how many rows were dropped.
    ///
    /// This is the **worker-side pre-dedup** that shrinks the sequential
    /// merge phase: `&Instance` is `Sync` and the dedup probe
    /// ([`crate::database::Relation::contains_packed_row`]) takes no locks,
    /// so each parallel task filters its own batch against the round's
    /// frozen instance before parking it. The merge then only re-dedups
    /// rows derived *within* the round (by this or a sibling task), never
    /// the bulk of re-derivations of old facts. Row-id assignment is
    /// unchanged: the dropped rows are exactly those the batched insert
    /// would have skipped as duplicates.
    pub fn prededup_against(&mut self, instance: &Instance) -> u64 {
        if self.arity == 0 || self.rows.is_empty() {
            return 0;
        }
        let Some(rel) = instance.relation(self.predicate) else {
            return 0;
        };
        let arity = self.arity;
        let mut write = 0;
        let mut dropped = 0u64;
        for read in (0..self.rows.len()).step_by(arity) {
            if rel.contains_packed_row(&self.rows[read..read + arity]) {
                dropped += 1;
            } else {
                self.rows.copy_within(read..read + arity, write);
                write += arity;
            }
        }
        self.rows.truncate(write);
        dropped
    }
}

/// Reusable scratch state for [`merge_derivations_with`]: the per-predicate
/// grouping map keeps its entries (and their row-buffer capacities) across
/// rounds, so a fixpoint engine's merge phase stops allocating after the
/// first round.
#[derive(Debug, Default)]
pub struct MergeScratch {
    /// Predicates touched this round, in first-seen batch order (one entry
    /// per predicate per round).
    order: Vec<Predicate>,
    /// Per-predicate accumulation buffers. Entries persist across rounds
    /// with cleared-but-capacitated row vectors; the `round` stamp marks the
    /// last round that touched an entry, so first-touch detection does not
    /// depend on the batch contents (tasks routinely park empty batches).
    merged: FxHashMap<Predicate, ScratchEntry>,
    /// Monotonic round counter for the first-touch stamps.
    round: u64,
}

#[derive(Debug)]
struct ScratchEntry {
    batch: DerivationBatch,
    round: u64,
}

impl MergeScratch {
    /// Creates empty scratch state.
    pub fn new() -> MergeScratch {
        MergeScratch::default()
    }
}

/// Merges task batches into the instance **in iteration order** with one
/// batched dedup insert per relation, returning the number of newly inserted
/// atoms. Row ids are assigned per relation in batch order, which is exactly
/// the order a sequential run would have inserted them in. The caller-owned
/// scratch buffers are reused across rounds instead of reallocated per round.
pub fn merge_derivations_with(
    scratch: &mut MergeScratch,
    instance: &mut Instance,
    batches: impl IntoIterator<Item = DerivationBatch>,
) -> Result<usize, ModelError> {
    // Group per predicate preserving first-seen order; order across
    // relations does not affect row ids (ids are per relation), order within
    // a relation is batch order.
    scratch.order.clear();
    scratch.round += 1;
    let round = scratch.round;
    for batch in batches {
        match scratch.merged.entry(batch.predicate) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                scratch.order.push(batch.predicate);
                slot.insert(ScratchEntry { batch, round });
            }
            std::collections::hash_map::Entry::Occupied(mut slot) => {
                let existing = slot.get_mut();
                debug_assert_eq!(existing.batch.arity, batch.arity);
                // First batch of this round for a retained entry: mark the
                // predicate as touched exactly once.
                if existing.round != round {
                    existing.round = round;
                    scratch.order.push(batch.predicate);
                }
                existing.batch.rows.extend_from_slice(&batch.rows);
                existing.batch.matches += batch.matches;
            }
        }
    }
    let mut inserted = 0;
    let mut failure: Option<ModelError> = None;
    for predicate in &scratch.order {
        let batch = &mut scratch
            .merged
            .get_mut(predicate)
            .expect("grouped above")
            .batch;
        if failure.is_none() {
            let result = if batch.arity == 0 {
                if batch.matches > 0 {
                    instance.insert_terms(*predicate, &[]).map(usize::from)
                } else {
                    Ok(0)
                }
            } else if !batch.rows.is_empty() {
                instance.insert_batch(*predicate, batch.arity, &batch.rows)
            } else {
                Ok(0)
            };
            match result {
                Ok(n) => inserted += n,
                Err(e) => failure = Some(e),
            }
        }
        // Reset for the next round (even after a failure, so the scratch
        // never carries stale rows), keeping the allocation.
        batch.rows.clear();
        batch.matches = 0;
    }
    match failure {
        Some(e) => Err(e),
        None => Ok(inserted),
    }
}

/// Counts the matches of a compiled pattern by sharding the rows of the
/// pattern's first atom across workers: each task prematches atom 0 with one
/// shard's rows and enumerates the remaining atoms read-only. Every full
/// match binds atom 0 to exactly one row, so the shard counts partition the
/// match set. Each prematch attempt is counted as one probe, mirroring what
/// the sequential kernel would spend enumerating the driver atom.
pub fn sharded_match_count(spec: &JoinSpec, instance: &Instance, threads: usize) -> JoinStats {
    let mut total = JoinStats::default();
    if spec.num_atoms() == 0 {
        total.matches = 1; // the empty pattern has the identity homomorphism
        return total;
    }
    let Some(rel) = spec.atom_relation(instance, 0) else {
        return total;
    };
    let shards = shard_delta_rows(rel, 0, rel.row_count());
    let plan = spec.plan(instance, &[0]);
    let results = run_tasks(threads, shards.len(), |shard| {
        let mut matcher = Matcher::new(spec);
        matcher.set_plan(Some(&plan));
        let mut stats = JoinStats::default();
        for &id in &shards[shard] {
            stats.probes += 1;
            matcher.clear();
            if !matcher.prematch(0, rel.row(id)) {
                continue;
            }
            stats.absorb(matcher.for_each(instance, |_| ControlFlow::Continue(())));
        }
        stats
    });
    for stats in results {
        total.absorb(stats);
    }
    total
}

/// Evaluates a compiled conjunctive-query pattern and collects the **answer
/// tuples** (constants bound to `output`, certain-answer semantics: tuples
/// touching a null or an unbound variable are dropped) by sharding the rows
/// of the pattern's first atom across workers, exactly like
/// [`sharded_match_count`]. Each task probes with the shared build/probe
/// plan and collects into a private set; the union is returned. Answers are
/// a set, so the result is independent of both enumeration order and thread
/// count.
pub fn sharded_query_answers(
    spec: &JoinSpec,
    output: &[Variable],
    instance: &Instance,
    threads: usize,
) -> BTreeSet<Vec<Symbol>> {
    sharded_query_answers_budgeted(spec, output, instance, threads, &QueryBudget::unlimited())
        .expect("an unlimited budget can never be exceeded")
}

/// [`sharded_query_answers`] under a [`QueryBudget`]: the same sharded
/// evaluation, but every worker carries a [`KernelBudget`] over one shared
/// [`CancelCell`], polled per driver row and (inside the kernel) every
/// [`crate::BUDGET_POLL_INTERVAL`] probes. The row cap counts tuples as
/// workers materialise them (per-worker distinct, so cross-shard duplicates
/// may count twice — the cap is a resource bound that can only trip *early*;
/// it is exact on the single-shard path). A tripped budget returns
/// `Err(reason)` — never a partial answer set passed off as complete. With
/// an unlimited budget the result is bit-identical to the unbudgeted path.
pub fn sharded_query_answers_budgeted(
    spec: &JoinSpec,
    output: &[Variable],
    instance: &Instance,
    threads: usize,
    budget: &QueryBudget,
) -> Result<BTreeSet<Vec<Symbol>>, BudgetExceeded> {
    let mut answers = BTreeSet::new();
    if spec.num_atoms() == 0 {
        // The empty pattern has the identity homomorphism; with no output
        // variables that is the single empty answer tuple.
        if output.is_empty() {
            answers.insert(Vec::new());
        }
        return Ok(answers);
    }
    let Some(rel) = spec.atom_relation(instance, 0) else {
        return Ok(answers);
    };
    // Output slots resolve once; an output variable outside the pattern can
    // never be bound, so no tuple is certain.
    let mut slots = Vec::with_capacity(output.len());
    for v in output {
        match spec.slot_of(*v) {
            Some(s) => slots.push(s),
            None => return Ok(answers),
        }
    }
    let budgeted = !budget.is_unlimited();
    let cell = CancelCell::new();
    let deadline = budget.deadline();
    let max_rows = budget.max_rows;
    let rows_collected = AtomicUsize::new(0);
    let shards = shard_delta_rows(rel, 0, rel.row_count());
    let plan = spec.plan(instance, &[0]);
    let results = run_tasks(threads, shards.len(), |shard| {
        let kernel = KernelBudget::new(&cell, deadline);
        let mut matcher = Matcher::new(spec);
        matcher.set_plan(Some(&plan));
        if budgeted {
            matcher.set_budget(Some(kernel));
        }
        let mut found: BTreeSet<Vec<Symbol>> = BTreeSet::new();
        for &id in &shards[shard] {
            if budgeted && kernel.poll() {
                break;
            }
            matcher.clear();
            if !matcher.prematch(0, rel.row(id)) {
                continue;
            }
            matcher.for_each(instance, |bindings| {
                let mut tuple = Vec::with_capacity(slots.len());
                for &s in &slots {
                    match bindings.packed_slot(s).and_then(PackedTerm::as_const) {
                        Some(c) => tuple.push(c),
                        // Null or unbound: not a certain answer.
                        None => return ControlFlow::Continue(()),
                    }
                }
                if found.insert(tuple) {
                    if let Some(cap) = max_rows {
                        if rows_collected.fetch_add(1, Ordering::Relaxed) + 1 > cap {
                            cell.cancel(BudgetExceeded::RowLimit);
                            return ControlFlow::Break(());
                        }
                    }
                }
                ControlFlow::Continue(())
            });
        }
        found
    });
    if let Some(reason) = cell.get() {
        return Err(reason);
    }
    for found in results {
        answers.extend(found);
    }
    Ok(answers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::database::Database;
    use crate::term::Term;

    fn chain_db(n: usize) -> Instance {
        let mut db = Database::new();
        for i in 0..n {
            db.insert(Atom::fact(
                "edge",
                &[format!("n{i}").as_str(), format!("n{}", i + 1).as_str()],
            ))
            .unwrap();
        }
        db.into_instance()
    }

    #[test]
    fn run_tasks_returns_results_in_task_order() {
        for threads in [1, 2, 4] {
            let results = run_tasks(threads, 100, |id| id * 3);
            assert_eq!(results, (0..100).map(|id| id * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_tasks_handles_zero_tasks() {
        assert!(run_tasks::<usize, _>(4, 0, |id| id).is_empty());
    }

    #[test]
    fn shards_partition_the_delta_range() {
        let inst = chain_db(50);
        let rel = inst.relation(Predicate::new("edge")).unwrap();
        let shards = shard_delta_rows(rel, 10, 40);
        let mut all: Vec<RowId> = shards.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (10..40).collect::<Vec<RowId>>());
        // Within a shard, row order stays ascending.
        for shard in &shards {
            assert!(shard.windows(2).all(|w| w[0] < w[1]));
        }
    }

    fn range(rule: usize, pos: usize, lo: RowId, hi: RowId) -> DrivenRange {
        DrivenRange { rule, pos, lo, hi }
    }

    /// The mutually recursive even/odd program's three bodies.
    fn even_odd_bodies() -> Vec<JoinSpec> {
        let v = Term::variable;
        [
            vec![Atom::new("zero", vec![v("X")])],
            vec![
                Atom::new("odd", vec![v("X")]),
                Atom::new("succ", vec![v("X"), v("Y")]),
            ],
            vec![
                Atom::new("even", vec![v("X")]),
                Atom::new("succ", vec![v("X"), v("Y")]),
            ],
        ]
        .iter()
        .map(|body| JoinSpec::compile(body))
        .collect()
    }

    #[test]
    fn first_atom_start_drives_atom_zero_then_only_gained_rows() {
        let bodies = even_odd_bodies();
        let mut inst = Instance::new();
        inst.insert(Atom::fact("zero", &["n0"])).unwrap();
        inst.insert(Atom::fact("succ", &["n0", "n1"])).unwrap();
        inst.insert(Atom::fact("succ", &["n1", "n2"])).unwrap();
        let mut driven = DrivenRows::from_first_atom(&bodies, &inst);
        // Round 0: atom 0 over its whole relation; `odd` and `even` are
        // absent, and `succ` (a later position) starts at its current size.
        assert_eq!(driven.next_round(&bodies, &inst), [range(0, 0, 0, 1)]);
        assert!(driven.next_round(&bodies, &inst).is_empty());
        // A relation absent at the start and created mid-loop gets its full
        // `0..hi` range — exactly once.
        inst.insert(Atom::fact("even", &["n0"])).unwrap();
        assert_eq!(driven.next_round(&bodies, &inst), [range(2, 0, 0, 1)]);
        inst.insert(Atom::fact("odd", &["n1"])).unwrap();
        inst.insert(Atom::fact("even", &["n2"])).unwrap();
        assert_eq!(
            driven.next_round(&bodies, &inst),
            [range(1, 0, 0, 1), range(2, 0, 1, 2)]
        );
        // Fixpoint: nothing gained, nothing handed out.
        assert!(driven.next_round(&bodies, &inst).is_empty());
    }

    #[test]
    fn watermark_start_drives_every_position_above_its_watermark() {
        let v = Term::variable;
        // t(X, Z) :- t(X, Y), t(Y, Z): atom 0 and a later atom share `t`.
        let bodies = vec![JoinSpec::compile(&[
            Atom::new("t", vec![v("X"), v("Y")]),
            Atom::new("t", vec![v("Y"), v("Z")]),
        ])];
        let mut inst = Instance::new();
        for (a, b) in [("a", "b"), ("b", "c"), ("c", "d")] {
            inst.insert(Atom::fact("t", &[a, b])).unwrap();
        }
        let watermark = |p: Predicate| if p == Predicate::new("t") { 2 } else { 0 };
        let mut resumed = DrivenRows::from_watermarks(&bodies, watermark);
        assert_eq!(
            resumed.next_round(&bodies, &inst),
            [range(0, 0, 2, 3), range(0, 1, 2, 3)]
        );
        assert!(resumed.next_round(&bodies, &inst).is_empty());
        // From scratch, the same body drives atom 0 over everything and the
        // later atom over nothing; both then follow the relation's growth.
        let mut scratch = DrivenRows::from_first_atom(&bodies, &inst);
        assert_eq!(scratch.next_round(&bodies, &inst), [range(0, 0, 0, 3)]);
        inst.insert(Atom::fact("t", &["a", "c"])).unwrap();
        let gained = [range(0, 0, 3, 4), range(0, 1, 3, 4)];
        assert_eq!(scratch.next_round(&bodies, &inst), gained);
        assert_eq!(resumed.next_round(&bodies, &inst), gained);
    }

    #[test]
    fn wrong_arity_relations_drive_nothing() {
        let v = Term::variable;
        let bodies = vec![JoinSpec::compile(&[
            Atom::new("edge", vec![v("X")]),
            Atom::new("edge", vec![v("X"), v("Y"), v("Z")]),
        ])];
        let inst = chain_db(4); // `edge` is binary here
        let mut scratch = DrivenRows::from_first_atom(&bodies, &inst);
        assert!(scratch.next_round(&bodies, &inst).is_empty());
        let mut resumed = DrivenRows::from_watermarks(&bodies, |_| 0);
        assert!(resumed.next_round(&bodies, &inst).is_empty());
    }

    fn pk(name: &str) -> PackedTerm {
        PackedTerm::pack(Term::constant(name)).expect("constant packs")
    }

    #[test]
    fn merge_assigns_row_ids_in_batch_order() {
        let p = Predicate::new("out");
        let rows1 = vec![pk("a"), pk("b")];
        let rows2 = vec![
            pk("a"),
            pk("b"), // duplicate of batch 1's row
            pk("c"),
            pk("d"),
        ];
        let mut inst = Instance::new();
        let inserted = merge_derivations_with(
            &mut MergeScratch::new(),
            &mut inst,
            [
                DerivationBatch {
                    predicate: p,
                    arity: 2,
                    rows: rows1,
                    matches: 1,
                },
                DerivationBatch {
                    predicate: p,
                    arity: 2,
                    rows: rows2,
                    matches: 2,
                },
            ],
        )
        .unwrap();
        assert_eq!(inserted, 2);
        let rel = inst.relation(p).unwrap();
        assert_eq!(
            rel.find_row(&[Term::constant("a"), Term::constant("b")]),
            Some(0)
        );
        assert_eq!(
            rel.find_row(&[Term::constant("c"), Term::constant("d")]),
            Some(1)
        );
    }

    #[test]
    fn merge_handles_zero_ary_heads() {
        let p = Predicate::new("goal");
        let mut inst = Instance::new();
        let inserted = merge_derivations_with(
            &mut MergeScratch::new(),
            &mut inst,
            [DerivationBatch::new(p, 0)],
        )
        .unwrap();
        assert_eq!(inserted, 0);
        let mut hit = DerivationBatch::new(p, 0);
        hit.matches = 3;
        assert_eq!(
            merge_derivations_with(&mut MergeScratch::new(), &mut inst, [hit]).unwrap(),
            1
        );
        assert_eq!(inst.len(), 1);
    }

    #[test]
    fn prededup_drops_exactly_the_frozen_rows() {
        let mut inst = Instance::new();
        inst.insert(Atom::fact("out", &["a", "b"])).unwrap();
        inst.insert(Atom::fact("out", &["c", "d"])).unwrap();
        let mut batch = DerivationBatch {
            predicate: Predicate::new("out"),
            arity: 2,
            rows: vec![
                pk("a"),
                pk("b"), // frozen duplicate → dropped
                pk("x"),
                pk("y"), // novel → kept
                pk("c"),
                pk("d"), // frozen duplicate → dropped
                pk("x"),
                pk("y"), // novel duplicate *within* the round → kept for merge
            ],
            matches: 4,
        };
        assert_eq!(batch.prededup_against(&inst), 2);
        assert_eq!(batch.rows, vec![pk("x"), pk("y"), pk("x"), pk("y")]);
        assert_eq!(
            batch.matches, 4,
            "pre-dedup never touches the match counter"
        );
        // Merging the filtered batch assigns the same ids a full merge would.
        let inserted =
            merge_derivations_with(&mut MergeScratch::new(), &mut inst, [batch]).unwrap();
        assert_eq!(inserted, 1);
        let rel = inst.relation(Predicate::new("out")).unwrap();
        assert_eq!(
            rel.find_row(&[Term::constant("x"), Term::constant("y")]),
            Some(2)
        );
    }

    #[test]
    fn prededup_of_unknown_predicate_keeps_everything() {
        let inst = Instance::new();
        let mut batch = DerivationBatch {
            predicate: Predicate::new("fresh"),
            arity: 1,
            rows: vec![pk("a")],
            matches: 1,
        };
        assert_eq!(batch.prededup_against(&inst), 0);
        assert_eq!(batch.rows.len(), 1);
    }

    #[test]
    fn merge_scratch_is_reusable_across_rounds() {
        let p = Predicate::new("out");
        let mut inst = Instance::new();
        let mut scratch = MergeScratch::new();
        let round = |rows: Vec<PackedTerm>| DerivationBatch {
            predicate: p,
            arity: 1,
            rows,
            matches: 0,
        };
        assert_eq!(
            merge_derivations_with(&mut scratch, &mut inst, [round(vec![pk("a")])]).unwrap(),
            1
        );
        // Second round reuses the retained entry; stale rows must not leak.
        assert_eq!(
            merge_derivations_with(
                &mut scratch,
                &mut inst,
                [round(vec![pk("a"), pk("b")]), round(vec![pk("c")])]
            )
            .unwrap(),
            2
        );
        // An empty round flushes nothing.
        assert_eq!(
            merge_derivations_with(&mut scratch, &mut inst, std::iter::empty()).unwrap(),
            0
        );
        assert_eq!(inst.len(), 3);
        let rel = inst.relation(p).unwrap();
        assert_eq!(rel.find_row(&[Term::constant("b")]), Some(1));
        assert_eq!(rel.find_row(&[Term::constant("c")]), Some(2));
    }

    #[test]
    fn sharded_query_answers_match_sequential_evaluation() {
        let inst = chain_db(25);
        let v = Term::variable;
        let pattern = vec![
            Atom::new("edge", vec![v("X"), v("Y")]),
            Atom::new("edge", vec![v("Y"), v("Z")]),
        ];
        let spec = JoinSpec::compile(&pattern);
        let output = [Variable::new("X"), Variable::new("Z")];
        let sequential = sharded_query_answers(&spec, &output, &inst, 1);
        assert_eq!(sequential.len(), 24); // 2-hop pairs on a 25-edge chain
        for threads in [2, 4, 8] {
            assert_eq!(
                sharded_query_answers(&spec, &output, &inst, threads),
                sequential
            );
        }
    }

    #[test]
    fn budgeted_query_answers_match_unbudgeted_under_an_unlimited_budget() {
        let inst = chain_db(25);
        let v = Term::variable;
        let pattern = vec![
            Atom::new("edge", vec![v("X"), v("Y")]),
            Atom::new("edge", vec![v("Y"), v("Z")]),
        ];
        let spec = JoinSpec::compile(&pattern);
        let output = [Variable::new("X"), Variable::new("Z")];
        let reference = sharded_query_answers(&spec, &output, &inst, 4);
        for threads in [1, 2, 4] {
            let budgeted = sharded_query_answers_budgeted(
                &spec,
                &output,
                &inst,
                threads,
                &QueryBudget::unlimited(),
            );
            assert_eq!(budgeted, Ok(reference.clone()));
            // A generous budget that never trips is equally invisible.
            let roomy = QueryBudget {
                timeout: Some(std::time::Duration::from_secs(3600)),
                max_rows: Some(1_000_000),
            };
            let under_roomy =
                sharded_query_answers_budgeted(&spec, &output, &inst, threads, &roomy);
            assert_eq!(under_roomy, Ok(reference.clone()));
        }
    }

    #[test]
    fn an_expired_deadline_cancels_instead_of_answering() {
        let inst = chain_db(25);
        let v = Term::variable;
        let pattern = vec![Atom::new("edge", vec![v("X"), v("Y")])];
        let spec = JoinSpec::compile(&pattern);
        let output = [Variable::new("X")];
        let expired = QueryBudget {
            timeout: Some(std::time::Duration::ZERO),
            max_rows: None,
        };
        for threads in [1, 4] {
            let result = sharded_query_answers_budgeted(&spec, &output, &inst, threads, &expired);
            assert_eq!(result, Err(BudgetExceeded::Deadline));
        }
    }

    #[test]
    fn a_row_cap_trips_on_large_answer_sets_and_admits_small_ones() {
        // edge × edge cross product: 40 × 40 = 1600 binding pairs, 40
        // distinct (X, Z) projections per variable — plenty to trip a cap.
        let inst = chain_db(40);
        let v = Term::variable;
        let pattern = vec![
            Atom::new("edge", vec![v("X"), v("_y")]),
            Atom::new("edge", vec![v("Z"), v("_w")]),
        ];
        let spec = JoinSpec::compile(&pattern);
        let output = [Variable::new("X"), Variable::new("Z")];
        let capped = QueryBudget {
            timeout: None,
            max_rows: Some(10),
        };
        for threads in [1, 4] {
            let result = sharded_query_answers_budgeted(&spec, &output, &inst, threads, &capped);
            assert_eq!(result, Err(BudgetExceeded::RowLimit));
        }
        // The full answer set (1600 tuples) fits under a cap of 1600 on the
        // exact single-shard path.
        let exact = QueryBudget {
            timeout: None,
            max_rows: Some(1600),
        };
        let full = sharded_query_answers_budgeted(&spec, &output, &inst, 1, &exact).unwrap();
        assert_eq!(full.len(), 1600);
    }

    #[test]
    fn sharded_match_count_agrees_with_sequential_kernel() {
        let inst = chain_db(30);
        let v = Term::variable;
        let pattern = vec![
            Atom::new("edge", vec![v("X"), v("Y")]),
            Atom::new("edge", vec![v("Y"), v("Z")]),
        ];
        let spec = JoinSpec::compile(&pattern);
        let sequential = Matcher::new(&spec).for_each(&inst, |_| ControlFlow::Continue(()));
        for threads in [1, 2, 4] {
            let sharded = sharded_match_count(&spec, &inst, threads);
            assert_eq!(sharded.matches, sequential.matches);
        }
    }

    #[test]
    fn sharded_match_count_of_missing_relation_is_zero() {
        let inst = chain_db(3);
        let pattern = vec![Atom::new("zzz", vec![Term::variable("X")])];
        let spec = JoinSpec::compile(&pattern);
        assert_eq!(sharded_match_count(&spec, &inst, 2).matches, 0);
    }
}
