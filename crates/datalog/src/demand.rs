//! Demand-driven evaluation: the magic-sets query path with a
//! per-binding-pattern specialised-program cache.
//!
//! A [`DemandEngine`] wraps one base program and answers **bound** queries
//! without materialising the full model. Per query it:
//!
//! 1. computes the query's binding-pattern signature
//!    ([`vadalog_analysis::magic::demand_signature`]) and looks up — or
//!    builds and caches — the **specialised program** for that signature:
//!    the magic-sets rewrite plus its stratification plus per-stratum
//!    compiled [`vadalog_model::JoinSpec`]s and packed head templates.
//!    Rewrite and compilation happen **once per pattern**; every later
//!    query with the same shape only swaps the seed constants
//!    ([`vadalog_analysis::magic::MagicRewrite::specialise`]);
//! 2. builds a **scratch instance** by deep-copying only the extensional
//!    relations the rewritten program reads out of the caller's (frozen,
//!    typically `Arc`-shared snapshot) instance
//!    ([`vadalog_model::Instance::project`]) and inserting the ground
//!    magic seed facts — concurrent queries therefore never mutate shared
//!    state, and the served snapshot is never polluted with magic
//!    predicates;
//! 3. runs the crate's one fixpoint loop ([`crate::engine`]) over the scratch
//!    instance, stratum by stratum and from scratch
//!    ([`vadalog_model::DrivenRows::from_first_atom`]) exactly as
//!    [`crate::DatalogEngine`] does (bit-identical across thread counts),
//!    with the query deadline polled cooperatively between rounds;
//! 4. answers the renamed query over the scratch instance, charging any
//!    row limit and the remaining deadline to the final CQ evaluation.
//!
//! Queries the rewrite cannot specialise (all-free, extensional-only,
//! non-Datalog programs, name collisions) report
//! [`DemandError::Fallback`]; the caller runs its full-evaluation path —
//! answers are identical either way, which the cross-engine property suite
//! pins.

use crate::engine::{
    compile_strata, stratum_fixpoint, CompiledStratum, DatalogStats, RoundProfile,
};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use vadalog_analysis::magic::{demand_signature, magic_rewrite, MagicFallback, MagicRewrite};
use vadalog_analysis::stratify::stratify;
use vadalog_analysis::BindingPattern;
use vadalog_model::{
    BudgetExceeded, ConjunctiveQuery, DrivenRows, Instance, Predicate, Program, QueryBudget, Symbol,
};

/// Why a demand-driven evaluation did not produce an answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DemandError {
    /// The query cannot (or should not) be answered through the magic
    /// path; the caller must fall back to full evaluation.
    Fallback(MagicFallback),
    /// The query exceeded its budget on the magic path. This is a final
    /// answer, not a fallback: the full path would only take longer.
    Budget(BudgetExceeded),
}

impl std::fmt::Display for DemandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DemandError::Fallback(reason) => write!(f, "magic fallback: {reason}"),
            DemandError::Budget(reason) => write!(f, "budget exceeded: {reason}"),
        }
    }
}

/// One demand-driven answer, with the observability the service's STATS
/// surface reports.
#[derive(Debug, Clone)]
pub struct DemandAnswer {
    /// The answer tuples — identical to what full materialisation plus the
    /// original query would produce.
    pub answers: BTreeSet<Vec<Symbol>>,
    /// Tuples derived into the scratch instance (magic, supplementary and
    /// adorned facts). The headline number: how much was *demanded*,
    /// versus the full materialisation the query did not pay for.
    pub demanded_tuples: u64,
    /// Total scratch-instance size (projected base rows + seeds + derived).
    pub scratch_atoms: usize,
    /// `true` iff the specialised program came out of the cache (no
    /// rewrite, no stratification, no join compilation this query).
    pub cache_hit: bool,
}

/// Per-phase breakdown of one demand-driven answer, collected by
/// [`DemandEngine::answer_profiled`] (the service's `PROFILE` verb).
/// Purely observational: collecting it reads values the evaluation
/// produced anyway, so profiled and unprofiled answers are bit-identical.
#[derive(Debug, Clone, Default)]
pub struct DemandProfile {
    /// Wall micros spent obtaining the specialised program (near zero on a
    /// cache hit).
    pub rewrite_micros: u64,
    /// Wall micros spent projecting the base relations and inserting the
    /// magic seed facts into the scratch instance.
    pub seed_micros: u64,
    /// Number of ground magic seed facts inserted.
    pub seed_facts: usize,
    /// Per-stratum fixpoint breakdowns, one round list per stratum in
    /// evaluation order.
    pub strata: Vec<Vec<RoundProfile>>,
    /// Wall micros of the final renamed-query evaluation over the scratch
    /// instance.
    pub answer_micros: u64,
    /// The engine counters of the fixpoint over the scratch instance.
    pub stats: DatalogStats,
}

/// Cumulative counters of a [`DemandEngine`], mirrored into the service's
/// STATS line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DemandStats {
    /// Queries answered through the magic path.
    pub magic_queries: u64,
    /// Of those, queries whose specialised program was already cached.
    pub magic_cache_hits: u64,
    /// Total tuples derived across all demand-driven evaluations.
    pub demanded_tuples: u64,
}

/// A magic-sets rewrite plus everything derived from it that does not
/// depend on the query's constants: stratification, compiled join specs,
/// head templates, and the base (extensional) predicates the rewritten
/// program reads. Shared (`Arc`) between concurrent queries of one
/// binding-pattern signature.
pub struct SpecialisedProgram {
    rewrite: MagicRewrite,
    strata: Vec<CompiledStratum>,
    base_predicates: Vec<Predicate>,
    generated: BTreeSet<Predicate>,
}

impl SpecialisedProgram {
    fn compile(rewrite: MagicRewrite) -> SpecialisedProgram {
        let strata = compile_strata(&rewrite.program, &stratify(&rewrite.program));
        let generated = rewrite.generated_predicates();
        // The scratch instance copies exactly what the rewritten program
        // and query read from the base: schema minus generated predicates
        // is the extensional fringe (adorned/magic/sup predicates are all
        // generated; original IDB names no longer occur).
        let mut base_predicates: BTreeSet<Predicate> = rewrite
            .program
            .schema()
            .into_iter()
            .filter(|p| !generated.contains(p))
            .collect();
        base_predicates.extend(
            rewrite
                .query
                .atoms
                .iter()
                .map(|a| a.predicate)
                .filter(|p| !generated.contains(p)),
        );
        SpecialisedProgram {
            rewrite,
            strata,
            base_predicates: base_predicates.into_iter().collect(),
            generated,
        }
    }
}

/// The demand-driven query engine. Create one per served program and share
/// it: the cache and counters are internally synchronised, and evaluation
/// never mutates the caller's instance.
pub struct DemandEngine {
    program: Program,
    threads: usize,
    #[allow(clippy::type_complexity)]
    cache: Mutex<HashMap<Vec<(Predicate, BindingPattern)>, Arc<SpecialisedProgram>>>,
    magic_queries: AtomicU64,
    magic_cache_hits: AtomicU64,
    demanded_tuples: AtomicU64,
}

impl DemandEngine {
    /// Creates a demand engine over a base program. Programs the magic
    /// rewrite cannot handle (e.g. non-Datalog) are accepted here — every
    /// query against them reports [`DemandError::Fallback`].
    pub fn new(program: Program) -> DemandEngine {
        DemandEngine {
            program,
            threads: 1,
            cache: Mutex::new(HashMap::new()),
            magic_queries: AtomicU64::new(0),
            magic_cache_hits: AtomicU64::new(0),
            demanded_tuples: AtomicU64::new(0),
        }
    }

    /// Sets the evaluation thread count (same semantics as
    /// [`crate::DatalogEngine::with_threads`]; answers are bit-identical
    /// for every count).
    pub fn with_threads(mut self, threads: usize) -> DemandEngine {
        self.threads = threads;
        self
    }

    /// The base program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Cumulative counters (relaxed reads; exact once quiescent).
    pub fn stats(&self) -> DemandStats {
        DemandStats {
            magic_queries: self.magic_queries.load(Ordering::Relaxed),
            magic_cache_hits: self.magic_cache_hits.load(Ordering::Relaxed),
            demanded_tuples: self.demanded_tuples.load(Ordering::Relaxed),
        }
    }

    /// Number of cached specialised programs (distinct binding-pattern
    /// signatures seen so far).
    pub fn cached_patterns(&self) -> usize {
        self.cache.lock().expect("demand cache lock poisoned").len()
    }

    /// The specialised program for a query's binding-pattern signature,
    /// building and caching it on first sight. The boolean is `true` on a
    /// cache hit. Rewrite + compile run under the cache lock: a pattern is
    /// compiled exactly once even under concurrent first queries, and
    /// compilation is a few-millisecond, query-constant-independent cost.
    pub fn specialised(
        &self,
        query: &ConjunctiveQuery,
    ) -> Result<(Arc<SpecialisedProgram>, bool), MagicFallback> {
        let signature = demand_signature(&self.program, query);
        if signature.is_empty() {
            return Err(MagicFallback::NoIntensionalAtom);
        }
        let mut cache = self.cache.lock().expect("demand cache lock poisoned");
        if let Some(cached) = cache.get(&signature) {
            return Ok((Arc::clone(cached), true));
        }
        let rewrite = magic_rewrite(&self.program, query)?;
        let specialised = Arc::new(SpecialisedProgram::compile(rewrite));
        cache.insert(signature, Arc::clone(&specialised));
        Ok((specialised, false))
    }

    /// Answers `query` demand-first against `base` (a served snapshot or
    /// any materialisation-free EDB instance). See the module docs for the
    /// pipeline; `base` is never mutated.
    pub fn answer(
        &self,
        base: &Instance,
        query: &ConjunctiveQuery,
        budget: &QueryBudget,
    ) -> Result<DemandAnswer, DemandError> {
        self.answer_inner(base, query, budget, None)
    }

    /// [`DemandEngine::answer`] with a per-phase breakdown: rewrite/seed/
    /// per-stratum-round/answer wall micros plus the full fixpoint
    /// counters. The answer — tuples, demanded counts, cache behaviour —
    /// is bit-identical to the unprofiled path.
    pub fn answer_profiled(
        &self,
        base: &Instance,
        query: &ConjunctiveQuery,
        budget: &QueryBudget,
    ) -> Result<(DemandAnswer, DemandProfile), DemandError> {
        let mut profile = DemandProfile::default();
        let answer = self.answer_inner(base, query, budget, Some(&mut profile))?;
        Ok((answer, profile))
    }

    fn answer_inner(
        &self,
        base: &Instance,
        query: &ConjunctiveQuery,
        budget: &QueryBudget,
        mut profile: Option<&mut DemandProfile>,
    ) -> Result<DemandAnswer, DemandError> {
        let mut span = vadalog_obs::span("demand.answer");
        let phase_start =
            |profile: &Option<&mut DemandProfile>| profile.is_some().then(Instant::now);
        let micros = |start: Option<Instant>| start.map_or(0, |s| s.elapsed().as_micros() as u64);
        let deadline = budget.deadline();
        let started = phase_start(&profile);
        let (specialised, cache_hit) = self.specialised(query).map_err(|reason| {
            vadalog_obs::event("demand.fallback", || format!("reason={reason}"));
            DemandError::Fallback(reason)
        })?;
        if let Some(p) = profile.as_deref_mut() {
            p.rewrite_micros = micros(started);
        }
        if span.active() {
            span.kv("cache_hit", cache_hit);
        }
        // A base relation under a generated name would be read as (or
        // shadowed by) rewrite output — refuse rather than mix data.
        if let Some(&taken) = specialised
            .generated
            .iter()
            .find(|&&p| base.relation(p).is_some())
        {
            let reason = MagicFallback::NameCollision(taken.name().to_string());
            vadalog_obs::event("demand.fallback", || format!("reason={reason}"));
            return Err(DemandError::Fallback(reason));
        }
        let (seeds, renamed_query) = specialised
            .rewrite
            .specialise(query)
            .map_err(|e| DemandError::Fallback(MagicFallback::Construction(e)))?;

        self.magic_queries.fetch_add(1, Ordering::Relaxed);
        if cache_hit {
            self.magic_cache_hits.fetch_add(1, Ordering::Relaxed);
        }

        let started = phase_start(&profile);
        let seed_facts = seeds.len();
        let mut scratch = base.project(specialised.base_predicates.iter().copied());
        for seed in seeds {
            scratch
                .insert(seed)
                .map_err(|e| DemandError::Fallback(MagicFallback::Construction(e.to_string())))?;
        }
        if let Some(p) = profile.as_deref_mut() {
            p.seed_micros = micros(started);
            p.seed_facts = seed_facts;
        }

        let mut stats = DatalogStats::default();
        for stratum in &specialised.strata {
            let mut rounds = profile.is_some().then(Vec::new);
            let driven = DrivenRows::from_first_atom(&stratum.specs, &scratch);
            stratum_fixpoint(
                stratum,
                driven,
                &mut scratch,
                self.threads,
                &mut stats,
                deadline,
                rounds.as_mut(),
            )
            .map_err(DemandError::Budget)?;
            if let (Some(p), Some(rounds)) = (profile.as_deref_mut(), rounds) {
                p.strata.push(rounds);
            }
        }
        let demanded = stats.derived_atoms as u64;
        self.demanded_tuples.fetch_add(demanded, Ordering::Relaxed);
        if span.active() {
            span.kv("demanded_tuples", demanded);
            span.kv("scratch_atoms", scratch.len());
        }

        let started = phase_start(&profile);
        let answers = if budget.is_unlimited() {
            renamed_query.evaluate_with_threads(&scratch, self.threads)
        } else {
            let remaining = match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Err(DemandError::Budget(BudgetExceeded::Deadline));
                    }
                    Some(d - now)
                }
                None => None,
            };
            let residual = QueryBudget {
                timeout: remaining,
                max_rows: budget.max_rows,
            };
            renamed_query
                .evaluate_budgeted(&scratch, self.threads, &residual)
                .map_err(DemandError::Budget)?
        };
        if let Some(p) = profile {
            p.answer_micros = micros(started);
            p.stats = stats;
        }
        if span.active() {
            span.kv("answers", answers.len());
        }
        Ok(DemandAnswer {
            answers,
            demanded_tuples: demanded,
            scratch_atoms: scratch.len(),
            cache_hit,
        })
    }
}

impl std::fmt::Debug for DemandEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("DemandEngine")
            .field("rules", &self.program.len())
            .field("threads", &self.threads)
            .field("cached_patterns", &self.cached_patterns())
            .field("stats", &stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DatalogEngine;
    use std::time::Duration;
    use vadalog_model::parser::{parse, parse_query, parse_rules};

    const TC: &str = "t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).";

    fn chain_instance(n: usize) -> Instance {
        let mut facts = String::new();
        for i in 0..n {
            facts.push_str(&format!("edge(n{i}, n{}).\n", i + 1));
        }
        parse(&facts).unwrap().database.into_instance()
    }

    #[test]
    fn demand_answers_match_full_evaluation() {
        let program = parse_rules(TC).unwrap();
        let base = chain_instance(20);
        let engine = DemandEngine::new(program.clone());
        let query = parse_query("?(Y) :- t(n3, Y).").unwrap();

        let demand = engine
            .answer(&base, &query, &QueryBudget::unlimited())
            .unwrap();
        let full = DatalogEngine::new(program).unwrap();
        let mut db = vadalog_model::Database::new();
        for atom in base.iter() {
            db.insert(atom).unwrap();
        }
        let full_result = full.evaluate(&db);
        assert_eq!(demand.answers, full_result.answers(&query));
        assert_eq!(demand.answers.len(), 17); // n4..n20 reachable from n3
                                              // The chain query from n3 demands only the suffix: strictly fewer
                                              // tuples than the full closure (20·21/2 = 210 pairs).
        assert!(
            demand.demanded_tuples < full_result.stats.derived_atoms as u64,
            "demanded {} vs full {}",
            demand.demanded_tuples,
            full_result.stats.derived_atoms
        );
        assert!(!demand.cache_hit);
    }

    #[test]
    fn base_instance_is_never_mutated() {
        let program = parse_rules(TC).unwrap();
        let base = chain_instance(8);
        let before = base.sorted_row_layout();
        let engine = DemandEngine::new(program);
        let query = parse_query("?(Y) :- t(n0, Y).").unwrap();
        engine
            .answer(&base, &query, &QueryBudget::unlimited())
            .unwrap();
        assert_eq!(base.sorted_row_layout(), before);
        assert!(base.relation(Predicate::new("m__t__bf")).is_none());
    }

    #[test]
    fn same_pattern_hits_the_cache_and_stays_bit_identical() {
        let program = parse_rules(TC).unwrap();
        let base = chain_instance(12);
        let engine = DemandEngine::new(program);

        let first = engine
            .answer(
                &base,
                &parse_query("?(Y) :- t(n2, Y).").unwrap(),
                &QueryBudget::unlimited(),
            )
            .unwrap();
        assert!(!first.cache_hit);
        // Same query again: cache hit, bit-identical answers.
        let again = engine
            .answer(
                &base,
                &parse_query("?(Y) :- t(n2, Y).").unwrap(),
                &QueryBudget::unlimited(),
            )
            .unwrap();
        assert!(again.cache_hit);
        assert_eq!(again.answers, first.answers);
        assert_eq!(again.demanded_tuples, first.demanded_tuples);
        // Different constant, same pattern: still a cache hit.
        let other = engine
            .answer(
                &base,
                &parse_query("?(Y) :- t(n9, Y).").unwrap(),
                &QueryBudget::unlimited(),
            )
            .unwrap();
        assert!(other.cache_hit);
        assert_eq!(other.answers.len(), 3); // n10, n11, n12
                                            // Different pattern: a new cache entry.
        let point = engine
            .answer(
                &base,
                &parse_query("? :- t(n2, n5).").unwrap(),
                &QueryBudget::unlimited(),
            )
            .unwrap();
        assert!(!point.cache_hit);
        assert_eq!(point.answers.len(), 1); // the empty tuple: t(n2,n5) holds
        let stats = engine.stats();
        assert_eq!(stats.magic_queries, 4);
        assert_eq!(stats.magic_cache_hits, 2);
        assert_eq!(engine.cached_patterns(), 2);
    }

    #[test]
    fn unspecialisable_queries_report_fallback() {
        let program = parse_rules(TC).unwrap();
        let base = chain_instance(4);
        let engine = DemandEngine::new(program);
        let all_free = parse_query("?(X, Y) :- t(X, Y).").unwrap();
        assert!(matches!(
            engine.answer(&base, &all_free, &QueryBudget::unlimited()),
            Err(DemandError::Fallback(MagicFallback::AllFree))
        ));
        let edb_only = parse_query("?(Y) :- edge(n0, Y).").unwrap();
        assert!(matches!(
            engine.answer(&base, &edb_only, &QueryBudget::unlimited()),
            Err(DemandError::Fallback(MagicFallback::NoIntensionalAtom))
        ));
        assert_eq!(engine.stats().magic_queries, 0);
    }

    #[test]
    fn expired_deadline_cancels_the_magic_path() {
        let program = parse_rules(TC).unwrap();
        let base = chain_instance(10);
        let engine = DemandEngine::new(program);
        let query = parse_query("?(Y) :- t(n0, Y).").unwrap();
        let budget = QueryBudget {
            timeout: Some(Duration::ZERO),
            max_rows: None,
        };
        assert!(matches!(
            engine.answer(&base, &query, &budget),
            Err(DemandError::Budget(BudgetExceeded::Deadline))
        ));
    }

    #[test]
    fn row_limit_applies_to_the_answer_set() {
        let program = parse_rules(TC).unwrap();
        let base = chain_instance(10);
        let engine = DemandEngine::new(program);
        let query = parse_query("?(Y) :- t(n0, Y).").unwrap();
        let budget = QueryBudget {
            timeout: None,
            max_rows: Some(2),
        };
        assert!(matches!(
            engine.answer(&base, &query, &budget),
            Err(DemandError::Budget(BudgetExceeded::RowLimit))
        ));
        // A generous cap passes untouched.
        let roomy = QueryBudget {
            timeout: None,
            max_rows: Some(1000),
        };
        assert_eq!(
            engine.answer(&base, &query, &roomy).unwrap().answers.len(),
            10
        );
    }

    #[test]
    fn threads_are_bit_identical_on_the_demand_path() {
        let program = parse_rules(TC).unwrap();
        let mut facts = String::new();
        // A denser graph: chain + back edges + a side branch.
        for i in 0..30 {
            facts.push_str(&format!("edge(n{i}, n{}).\n", i + 1));
        }
        facts.push_str("edge(n10, n3). edge(n20, n7). edge(n5, n25).\n");
        let base = parse(&facts).unwrap().database.into_instance();
        let query = parse_query("?(Y) :- t(n3, Y).").unwrap();
        let reference = DemandEngine::new(program.clone())
            .answer(&base, &query, &QueryBudget::unlimited())
            .unwrap();
        for threads in [2usize, 4, 8] {
            let run = DemandEngine::new(program.clone())
                .with_threads(threads)
                .answer(&base, &query, &QueryBudget::unlimited())
                .unwrap();
            assert_eq!(run.answers, reference.answers, "threads={threads}");
            assert_eq!(
                run.demanded_tuples, reference.demanded_tuples,
                "threads={threads}"
            );
            assert_eq!(
                run.scratch_atoms, reference.scratch_atoms,
                "threads={threads}"
            );
        }
    }
}
