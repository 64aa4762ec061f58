//! Incremental maintenance of a live materialisation.
//!
//! The Vadalog system of the paper is a *service*, not a batch job: facts
//! arrive continuously and certain-answer queries are served against a
//! maintained materialisation. An [`IncrementalEngine`] owns that live
//! [`Instance`] and keeps it at fixpoint across fact batches:
//!
//! * **Watermark deltas.** The store is append-only with stable row ids, so
//!   "everything that changed since the last ingest" is exactly, per
//!   relation, the rows past a remembered watermark — no shadow tables, no
//!   diff computation. Each successful [`IncrementalEngine::ingest`] ends by
//!   advancing every relation's watermark to its current row count.
//! * **Affected-strata pruning.** The program's stratification is evaluated
//!   bottom-up, but only for strata that the predicate graph proves
//!   *reachable* from the batch's touched predicates
//!   ([`vadalog_analysis::predicate_graph::PredicateGraph::reachable_from`]).
//!   Everything else is skipped without sampling a single watermark —
//!   observable as [`DatalogStats::strata_skipped`].
//! * **A resumed fixpoint, not a second loop.** An affected stratum runs the
//!   crate's one fixpoint loop ([`crate::engine`]) — the loop
//!   [`crate::DatalogEngine`] runs — started from the engine's watermarks
//!   ([`vadalog_model::DrivenRows::from_watermarks`]) instead of from scratch:
//!   its first round drives every rule from **every** body position whose
//!   relation carries unprocessed rows (freshly ingested EDB facts and the
//!   rows lower strata derived this ingest), later rounds from the rows the
//!   previous round derived. Deadline polling, the `datalog.stratum` /
//!   `datalog.round` trace spans and the per-round profile live in that
//!   loop, so an ingest is traced like a batch evaluation. Rounds through
//!   this path are counted by [`DatalogStats::rounds_incremental`]. The
//!   union of everything ever ingested yields the same answer sets (and the
//!   same per-relation row *sets*) as a from-scratch evaluation; row-id
//!   *order* additionally depends on arrival order, never on the thread
//!   count.
//! * **Fail-closed ingestion.** A batch is packed and admission-checked in
//!   full *before* the first row lands: arity conflicts,
//!   [`ModelError::PackOverflow`], [`ModelError::NonGroundFact`] and the
//!   (configurable) per-relation row budget
//!   ([`IncrementalEngine::with_row_capacity`],
//!   [`ModelError::CapacityExceeded`]) all reject the batch with the live
//!   instance untouched — the engine stays serviceable, nothing is half
//!   applied.
//! * **Epoch snapshots.** Readers take [`InstanceSnapshot`]s
//!   ([`IncrementalEngine::snapshot`]): immutable, `Arc`-shared views frozen
//!   at the engine's current epoch (bumped once per successful ingest).
//!   Only the first snapshot of an epoch clones the instance; queries then
//!   run with no lock held, concurrently with the next ingest.

use crate::engine::{compile_strata, stratum_fixpoint, CompiledStratum, DatalogStats};
use std::collections::{BTreeMap, BTreeSet};
use vadalog_analysis::predicate_graph::PredicateGraph;
use vadalog_analysis::stratify::{stratify, Stratification};
use vadalog_model::{
    Atom, ConjunctiveQuery, Database, DrivenRows, Instance, InstanceSnapshot, ModelError,
    PackedTerm, Predicate, Program, RowId, SnapshotCell, Symbol,
};

/// The report of one [`IncrementalEngine::ingest`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestOutcome {
    /// Batch facts that were genuinely new rows.
    pub facts_inserted: usize,
    /// Batch facts already present (dropped by the row dedup).
    pub facts_duplicate: usize,
    /// Atoms derived by re-evaluating the affected strata.
    pub derived_atoms: usize,
    /// Strata that ran at least one round.
    pub strata_evaluated: usize,
    /// Strata skipped without evaluation (graph-pruned, or reachable but
    /// with no unprocessed rows to drive).
    pub strata_skipped: usize,
    /// Fixpoint rounds executed.
    pub rounds: usize,
    /// The engine's epoch after the ingest.
    pub epoch: u64,
}

/// A long-lived engine maintaining a materialised instance under continuous
/// fact ingestion — see the [module docs](self) for the design.
#[derive(Debug)]
pub struct IncrementalEngine {
    program: Program,
    stratification: Stratification,
    graph: PredicateGraph,
    strata: Vec<CompiledStratum>,
    threads: usize,
    /// Admission bound on any single relation's row count. Defaults to the
    /// storage layer's own u32 bound; a live service can lower it to bound
    /// memory, rejecting (not half-applying) batches that would cross it.
    row_capacity: RowId,
    instance: Instance,
    /// Per-relation processed watermark: rows below it have been seen by
    /// every stratum; rows at or above it are the next ingest's delta.
    watermarks: BTreeMap<Predicate, RowId>,
    /// Cumulative statistics over all ingests.
    stats: DatalogStats,
    /// Bumped once per successful ingest that touched the instance.
    epoch: u64,
    snapshots: SnapshotCell,
}

impl Clone for IncrementalEngine {
    fn clone(&self) -> IncrementalEngine {
        IncrementalEngine {
            program: self.program.clone(),
            stratification: self.stratification.clone(),
            graph: self.graph.clone(),
            strata: self.strata.clone(),
            threads: self.threads,
            row_capacity: self.row_capacity,
            instance: self.instance.clone(),
            watermarks: self.watermarks.clone(),
            stats: self.stats,
            epoch: self.epoch,
            // Snapshot caches are per-engine; a clone starts cold.
            snapshots: SnapshotCell::new(),
        }
    }
}

impl IncrementalEngine {
    /// Creates an engine with an empty materialisation. Fails if the program
    /// is not plain Datalog (the same restriction as
    /// [`crate::DatalogEngine`]).
    pub fn new(program: Program) -> Result<IncrementalEngine, ModelError> {
        if !program.is_datalog() {
            return Err(ModelError::InvalidTgd(
                "the incremental engine requires full single-head TGDs (no existentials)".into(),
            ));
        }
        let stratification = stratify(&program);
        let graph = PredicateGraph::new(&program);
        let strata = compile_strata(&program, &stratification);
        Ok(IncrementalEngine {
            program,
            stratification,
            graph,
            strata,
            threads: 1,
            row_capacity: RowId::MAX - 1,
            instance: Instance::new(),
            watermarks: BTreeMap::new(),
            stats: DatalogStats::default(),
            epoch: 0,
            snapshots: SnapshotCell::new(),
        })
    }

    /// Creates an engine and ingests a whole database as its first batch.
    pub fn from_database(
        program: Program,
        database: &Database,
    ) -> Result<IncrementalEngine, ModelError> {
        let mut engine = IncrementalEngine::new(program)?;
        engine.ingest_database(database)?;
        Ok(engine)
    }

    /// Sets the number of evaluation worker threads (default 1 = sequential;
    /// 0 = all available parallelism). Results are bit-identical for every
    /// thread count, exactly as for [`crate::DatalogEngine::with_threads`].
    pub fn with_threads(mut self, threads: usize) -> IncrementalEngine {
        self.threads = threads;
        self
    }

    /// Sets the per-relation row budget: an ingest that could push any
    /// relation past `capacity` rows is rejected **before** touching the
    /// instance, surfacing [`ModelError::CapacityExceeded`] while the engine
    /// stays serviceable. The check is conservative (batch duplicates count
    /// against the budget). Defaults to the storage layer's u32 bound.
    pub fn with_row_capacity(mut self, capacity: RowId) -> IncrementalEngine {
        self.row_capacity = capacity;
        self
    }

    /// The configured worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The program being maintained.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The live materialised instance (database facts plus derived facts).
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Cumulative statistics over all ingests.
    pub fn stats(&self) -> &DatalogStats {
        &self.stats
    }

    /// The current epoch: 0 for a fresh engine, bumped once per successful
    /// [`IncrementalEngine::ingest`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// An immutable snapshot of the materialisation at the current epoch.
    /// The first call after an ingest clones the instance; later calls at
    /// the same epoch are reference-count bumps. Readers evaluate against
    /// the snapshot with no engine lock held.
    pub fn snapshot(&self) -> InstanceSnapshot {
        self.snapshots.acquire(&self.instance, self.epoch)
    }

    /// Restores the engine to a previously captured materialisation state:
    /// the packed `instance`, the cumulative `stats`, and the `epoch`
    /// counter. Watermarks are recomputed as every relation's full row
    /// count — valid precisely because captured states are only ever taken
    /// *between* ingests, at fixpoint, when every row of every relation has
    /// been processed by every stratum. The snapshot cache starts cold.
    ///
    /// This is the recovery hook for a durability layer: restore the
    /// snapshotted state, then re-[`IncrementalEngine::ingest`] the logged
    /// tail. The state must come from an engine over the same program;
    /// restoring anything else yields well-defined but meaningless answers.
    pub fn restore_state(&mut self, instance: Instance, stats: DatalogStats, epoch: u64) {
        self.watermarks = instance
            .relations()
            .map(|rel| (rel.predicate(), rel.row_count()))
            .collect();
        self.instance = instance;
        self.stats = stats;
        self.epoch = epoch;
        self.snapshots = SnapshotCell::new();
    }

    /// Evaluates a conjunctive query over the live materialisation through
    /// the sharded CQ kernel on the engine's thread count.
    pub fn answers(&self, query: &ConjunctiveQuery) -> BTreeSet<Vec<Symbol>> {
        query.evaluate_with_threads(&self.instance, self.threads)
    }

    /// Ingests a whole database as one batch (facts in the database's
    /// iteration order).
    pub fn ingest_database(&mut self, database: &Database) -> Result<IngestOutcome, ModelError> {
        let facts: Vec<Atom> = database.iter().collect();
        self.ingest(&facts)
    }

    /// Ingests a batch of facts and restores the materialisation's fixpoint
    /// by re-evaluating exactly the strata reachable from the touched
    /// predicates, each restarting from its per-relation watermarks.
    ///
    /// The batch is validated in full first — on any error (`ArityMismatch`,
    /// `NonGroundFact`, `PackOverflow`, `CapacityExceeded`) **no row is
    /// inserted**, the epoch does not move, and the engine remains
    /// serviceable.
    pub fn ingest(&mut self, facts: &[Atom]) -> Result<IngestOutcome, ModelError> {
        // Phase 1: pack and admission-check the whole batch before the
        // first row lands.
        let mut packed_rows: Vec<Vec<PackedTerm>> = Vec::with_capacity(facts.len());
        let mut batch_arity: BTreeMap<Predicate, usize> = BTreeMap::new();
        let mut batch_rows: BTreeMap<Predicate, usize> = BTreeMap::new();
        for fact in facts {
            let expected = self
                .instance
                .arity_of(fact.predicate)
                .or_else(|| batch_arity.get(&fact.predicate).copied());
            if let Some(expected) = expected {
                if expected != fact.arity() {
                    return Err(ModelError::ArityMismatch {
                        predicate: fact.predicate.name().to_string(),
                        expected,
                        found: fact.arity(),
                    });
                }
            }
            batch_arity.entry(fact.predicate).or_insert(fact.arity());
            *batch_rows.entry(fact.predicate).or_insert(0) += 1;
            let mut row = Vec::with_capacity(fact.arity());
            for term in &fact.terms {
                match PackedTerm::pack(*term) {
                    Some(packed) => row.push(packed),
                    None if term.is_var() => {
                        return Err(ModelError::NonGroundFact(fact.to_string()))
                    }
                    None => {
                        return Err(ModelError::PackOverflow {
                            term: term.to_string(),
                        })
                    }
                }
            }
            packed_rows.push(row);
        }
        for (&predicate, &incoming) in &batch_rows {
            let existing = self
                .instance
                .relation(predicate)
                .map(|rel| rel.row_count())
                .unwrap_or(0) as usize;
            if existing + incoming > self.row_capacity as usize {
                return Err(ModelError::CapacityExceeded {
                    predicate: predicate.name().to_string(),
                    rows: existing,
                });
            }
        }

        // Phase 2: apply the batch (row ids follow batch order per
        // relation).
        let mut outcome = IngestOutcome::default();
        let mut touched: BTreeSet<Predicate> = BTreeSet::new();
        for (fact, row) in facts.iter().zip(packed_rows.iter()) {
            if self.instance.insert_packed(fact.predicate, row)? {
                outcome.facts_inserted += 1;
                touched.insert(fact.predicate);
            } else {
                outcome.facts_duplicate += 1;
            }
        }

        // Phase 3: re-derive through the affected strata only.
        if touched.is_empty() {
            outcome.strata_skipped = self.strata.len();
            self.stats.strata_skipped += self.strata.len();
            outcome.epoch = self.epoch;
            return Ok(outcome);
        }
        let affected = self.stratification.affected_strata(&self.graph, &touched);
        let derived_before = self.stats.derived_atoms;
        for (stratum, affected) in self.strata.iter().zip(affected) {
            let rounds = if affected {
                let driven = DrivenRows::from_watermarks(&stratum.specs, |predicate| {
                    self.watermarks.get(&predicate).copied().unwrap_or(0)
                });
                stratum_fixpoint(
                    stratum,
                    driven,
                    &mut self.instance,
                    self.threads,
                    &mut self.stats,
                    None,
                    None,
                )
                .expect("unbudgeted fixpoint never cancels")
            } else {
                0
            };
            if rounds > 0 {
                outcome.strata_evaluated += 1;
                outcome.rounds += rounds;
            } else {
                outcome.strata_skipped += 1;
            }
        }
        self.stats.strata_skipped += outcome.strata_skipped;
        self.stats.rounds_incremental += outcome.rounds;
        outcome.derived_atoms = self.stats.derived_atoms - derived_before;

        // Phase 4: every row now present has been processed by every
        // stratum that can see it — advance the watermarks and publish the
        // new epoch.
        for relation in self.instance.relations() {
            self.watermarks
                .insert(relation.predicate(), relation.row_count());
        }
        self.stats.peak_atoms = self.instance.len();
        self.epoch += 1;
        outcome.epoch = self.epoch;
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DatalogEngine;
    use vadalog_model::parser::{parse, parse_fact_list, parse_query, parse_rules};
    use vadalog_model::{NullId, Term};

    const TWO_CLOSURES: &str = "t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).\n\
                                s(X, Y) :- link(X, Y).\n s(X, Z) :- link(X, Y), s(Y, Z).";

    fn engine(rules: &str) -> IncrementalEngine {
        IncrementalEngine::new(parse_rules(rules).unwrap()).unwrap()
    }

    fn facts(src: &str) -> Vec<Atom> {
        parse_fact_list(src).unwrap()
    }

    /// Per-relation row sets in a canonical (sorted) form — the layout
    /// comparison that is arrival-order independent.
    fn sorted_rows(instance: &Instance) -> Vec<(String, Vec<String>)> {
        instance.sorted_row_layout()
    }

    #[test]
    fn incremental_stream_matches_one_shot_evaluation() {
        let mut live = engine(TWO_CLOSURES);
        live.ingest(&facts("edge(a, b). link(p, q).")).unwrap();
        live.ingest(&facts("edge(b, c).")).unwrap();
        live.ingest(&facts("edge(c, d). link(q, r).")).unwrap();

        let union = parse("edge(a, b). link(p, q). edge(b, c). edge(c, d). link(q, r).")
            .unwrap()
            .database;
        let oneshot = DatalogEngine::new(parse_rules(TWO_CLOSURES).unwrap())
            .unwrap()
            .evaluate(&union);
        for query in ["?(X, Y) :- t(X, Y).", "?(X, Y) :- s(X, Y)."] {
            let q = parse_query(query).unwrap();
            assert_eq!(live.answers(&q), oneshot.answers(&q), "{query}");
        }
        assert_eq!(sorted_rows(live.instance()), sorted_rows(&oneshot.instance));
        assert_eq!(live.stats().derived_atoms, oneshot.stats.derived_atoms);
        assert_eq!(live.stats().peak_atoms, oneshot.stats.peak_atoms);
        assert_eq!(live.epoch(), 3);
    }

    #[test]
    fn restored_state_continues_bit_identically() {
        // Reference: one engine runs the whole stream uninterrupted.
        let batches = [
            "edge(a, b). link(p, q).",
            "edge(b, c).",
            "edge(c, d). link(q, r).",
            "edge(a, d).",
        ];
        let mut reference = engine(TWO_CLOSURES).with_threads(2);
        // Capture after the second batch — mid-stream, at fixpoint.
        let mut captured = None;
        for (i, batch) in batches.iter().enumerate() {
            reference.ingest(&facts(batch)).unwrap();
            if i == 1 {
                captured = Some((
                    reference.instance().clone(),
                    *reference.stats(),
                    reference.epoch(),
                ));
            }
        }

        // A fresh engine restores the captured state and replays the tail.
        let (instance, stats, epoch) = captured.unwrap();
        let mut restored = engine(TWO_CLOSURES).with_threads(2);
        restored.restore_state(instance, stats, epoch);
        assert_eq!(restored.epoch(), 2);
        for batch in &batches[2..] {
            restored.ingest(&facts(batch)).unwrap();
        }

        // Bit-identity: exact row layouts (arrival order included), all
        // counters, and the epoch.
        assert_eq!(
            restored.instance().row_layout(),
            reference.instance().row_layout()
        );
        assert_eq!(restored.stats(), reference.stats());
        assert_eq!(restored.epoch(), reference.epoch());
        let q = parse_query("?(X, Y) :- t(X, Y).").unwrap();
        assert_eq!(restored.answers(&q), reference.answers(&q));
    }

    #[test]
    fn unaffected_strata_are_provably_skipped() {
        let mut live = engine(TWO_CLOSURES);
        live.ingest(&facts("edge(a, b). edge(b, c). link(p, q). link(q, r)."))
            .unwrap();
        let skipped_before = live.stats().strata_skipped;

        // A delta touching only `edge` must skip the link/s stratum.
        let outcome = live.ingest(&facts("edge(c, d).")).unwrap();
        assert_eq!(outcome.strata_evaluated, 1);
        assert_eq!(outcome.strata_skipped, 1);
        assert!(outcome.rounds >= 1);
        assert_eq!(live.stats().strata_skipped, skipped_before + 1);
        assert!(
            live.answers(&parse_query("?(X) :- t(X, d).").unwrap())
                .len()
                == 3
        );

        // A duplicate-only batch touches nothing and skips everything.
        let outcome = live.ingest(&facts("edge(a, b).")).unwrap();
        assert_eq!(outcome.facts_inserted, 0);
        assert_eq!(outcome.facts_duplicate, 1);
        assert_eq!(outcome.strata_evaluated, 0);
        assert_eq!(outcome.strata_skipped, 2);
        assert_eq!(outcome.derived_atoms, 0);
    }

    #[test]
    fn directly_ingested_idb_facts_are_seeded() {
        // Ingesting a `t` fact must feed the recursive closure exactly like
        // the batch engine's EDB-seeded IDB handling.
        let mut live = engine("t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).");
        live.ingest(&facts("edge(b, c).")).unwrap();
        let outcome = live.ingest(&facts("t(a, b).")).unwrap();
        assert_eq!(outcome.facts_inserted, 1);
        assert_eq!(outcome.strata_evaluated, 1);
        // t(a, b) is directly ingested, nothing derives from it backwards —
        // but edge(a', ...) chains forward: here nothing new derives.
        let q = parse_query("?(X, Y) :- t(X, Y).").unwrap();
        let live_answers = live.answers(&q);
        let union = parse("edge(b, c). t(a, b).").unwrap().database;
        let oneshot = DatalogEngine::new(
            parse_rules("t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).").unwrap(),
        )
        .unwrap()
        .evaluate(&union);
        assert_eq!(live_answers, oneshot.answers(&q));
        assert_eq!(sorted_rows(live.instance()), sorted_rows(&oneshot.instance));
    }

    #[test]
    fn thread_counts_are_bit_identical() {
        let stream = [
            "edge(a, b). edge(b, c). link(p, q).",
            "edge(c, a). edge(b, e).",
            "edge(e, f). link(q, p).",
        ];
        let run = |threads: usize| {
            let mut live = engine(TWO_CLOSURES).with_threads(threads);
            for batch in stream {
                live.ingest(&facts(batch)).unwrap();
            }
            live
        };
        let sequential = run(1);
        for threads in [2, 4] {
            let sharded = run(threads);
            assert_eq!(
                sharded.instance().row_layout(),
                sequential.instance().row_layout(),
                "row-id assignment must not depend on the thread count"
            );
            let (a, b) = (sharded.stats(), sequential.stats());
            assert_eq!(a.derived_atoms, b.derived_atoms);
            assert_eq!(a.joins_evaluated, b.joins_evaluated);
            assert_eq!(a.join_probes, b.join_probes);
            assert_eq!(a.rows_prededuped, b.rows_prededuped);
            assert_eq!(a.iterations, b.iterations);
            assert_eq!(a.strata_skipped, b.strata_skipped);
            assert_eq!(a.rounds_incremental, b.rounds_incremental);
        }
    }

    #[test]
    fn pack_overflow_rejects_the_batch_without_poisoning_the_engine() {
        let mut live = engine(TWO_CLOSURES);
        live.ingest(&facts("edge(a, b). edge(b, c).")).unwrap();
        let answers_before = live.answers(&parse_query("?(X, Y) :- t(X, Y).").unwrap());
        let epoch_before = live.epoch();
        let len_before = live.instance().len();

        // A null id past the 30-bit dictionary cannot be packed; the good
        // fact in front of it must not land either.
        let bad = vec![
            Atom::fact("edge", &["c", "d"]),
            Atom::new(
                "edge",
                vec![Term::constant("x"), Term::Null(NullId(1 << 40))],
            ),
        ];
        let err = live.ingest(&bad).unwrap_err();
        assert!(matches!(err, ModelError::PackOverflow { .. }));
        assert_eq!(live.instance().len(), len_before, "no partial batch");
        assert_eq!(live.epoch(), epoch_before, "epoch does not move");
        assert_eq!(
            live.answers(&parse_query("?(X, Y) :- t(X, Y).").unwrap()),
            answers_before
        );

        // The engine stays serviceable: the next good batch lands normally
        // and derives through the closure.
        let outcome = live.ingest(&facts("edge(c, d).")).unwrap();
        assert_eq!(outcome.facts_inserted, 1);
        let q = parse_query("?(X) :- t(X, d).").unwrap();
        assert_eq!(live.answers(&q).len(), 3); // a, b and c reach d
    }

    #[test]
    fn capacity_budget_rejects_batches_before_any_row_lands() {
        let mut live = engine(TWO_CLOSURES).with_row_capacity(3);
        live.ingest(&facts("edge(a, b). edge(b, c).")).unwrap();
        let len_before = live.instance().len();

        // 2 existing + 2 incoming > 3: rejected up front.
        let err = live.ingest(&facts("edge(c, d). edge(d, e).")).unwrap_err();
        assert!(matches!(err, ModelError::CapacityExceeded { .. }));
        assert_eq!(live.instance().len(), len_before);

        // One more row fits; after that even a single row is rejected, and
        // the engine keeps serving queries throughout.
        live.ingest(&facts("edge(c, d).")).unwrap();
        let err = live.ingest(&facts("edge(d, e).")).unwrap_err();
        assert!(matches!(err, ModelError::CapacityExceeded { .. }));
        let q = parse_query("?(X) :- t(a, X).").unwrap();
        assert_eq!(live.answers(&q).len(), 3); // b, c, d

        // The budget constrains EDB relations and derived relations alike —
        // `t` already exceeded it, but only *ingests* are admission-checked.
        assert!(live.instance().relation_size(Predicate::new("t")) > 3);
    }

    #[test]
    fn arity_and_groundness_errors_reject_the_whole_batch() {
        let mut live = engine(TWO_CLOSURES);
        live.ingest(&facts("edge(a, b).")).unwrap();
        let len_before = live.instance().len();
        let err = live
            .ingest(&[
                Atom::fact("good", &["x"]),
                Atom::fact("edge", &["a", "b", "c"]),
            ])
            .unwrap_err();
        assert!(matches!(err, ModelError::ArityMismatch { .. }));
        assert_eq!(
            live.instance().len(),
            len_before,
            "the good fact must not land"
        );

        let err = live
            .ingest(&[Atom::new(
                "edge",
                vec![Term::variable("X"), Term::constant("b")],
            )])
            .unwrap_err();
        assert!(matches!(err, ModelError::NonGroundFact(_)));
        assert_eq!(live.instance().len(), len_before);

        // Arity conflicts *within* a batch are caught too.
        let err = live
            .ingest(&[
                Atom::fact("fresh", &["x"]),
                Atom::fact("fresh", &["x", "y"]),
            ])
            .unwrap_err();
        assert!(matches!(err, ModelError::ArityMismatch { .. }));
        assert_eq!(live.instance().len(), len_before);
    }

    #[test]
    fn snapshots_are_epoch_stable_while_ingestion_continues() {
        let mut live = engine(TWO_CLOSURES);
        live.ingest(&facts("edge(a, b).")).unwrap();
        let snap = live.snapshot();
        assert_eq!(snap.epoch(), 1);
        let again = live.snapshot();
        assert_eq!(again.epoch(), 1);

        live.ingest(&facts("edge(b, c).")).unwrap();
        // The old snapshot still answers against epoch 1.
        let q = parse_query("?(X, Y) :- t(X, Y).").unwrap();
        assert_eq!(q.evaluate(&snap).len(), 1);
        let fresh = live.snapshot();
        assert_eq!(fresh.epoch(), 2);
        assert_eq!(q.evaluate(&fresh).len(), 3);
    }

    #[test]
    fn rejects_programs_with_existentials() {
        let program = parse_rules("r(X, Z) :- p(X).").unwrap();
        assert!(IncrementalEngine::new(program).is_err());
    }

    #[test]
    fn from_database_seeds_like_the_batch_engine() {
        // The second case has a rule whose body atom 0 and a later atom share
        // a predicate, over a database that already holds rows of it: the two
        // engines start the same loop from different schedules (atom 0 over
        // everything vs every position over the whole first batch).
        const NONLINEAR: &str = "t(X, Y) :- edge(X, Y).\n t(X, Z) :- t(X, Y), t(Y, Z).";
        for (rules, facts, closure) in [
            (TWO_CLOSURES, "edge(a, b). edge(b, c). edge(c, d).", 6),
            // a..e is a 4-step chain once the seeded `t` rows join in.
            (NONLINEAR, "edge(a, b). edge(b, c). t(c, d). t(d, e).", 10),
        ] {
            let parsed = parse(facts).unwrap();
            let program = parse_rules(rules).unwrap();
            let live = IncrementalEngine::from_database(program.clone(), &parsed.database).unwrap();
            let oneshot = DatalogEngine::new(program)
                .unwrap()
                .evaluate(&parsed.database);
            let q = parse_query("?(X, Y) :- t(X, Y).").unwrap();
            assert_eq!(live.answers(&q).len(), closure, "{rules}");
            assert_eq!(live.answers(&q), oneshot.answers(&q), "{rules}");
            assert_eq!(sorted_rows(live.instance()), sorted_rows(&oneshot.instance));
            assert_eq!(live.stats().derived_atoms, oneshot.stats.derived_atoms);
        }
    }
}
