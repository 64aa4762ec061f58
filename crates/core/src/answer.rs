//! The high-level certain-answer engine.
//!
//! [`CertainAnswerEngine`] packages the full pipeline of the paper: a program
//! is normalised to single-head form, analysed for wardedness and piece-wise
//! linearity, and queries are then answered with the most appropriate
//! procedure:
//!
//! * `WARD ∩ PWL` → the space-bounded **linear proof search** of Section 4.3
//!   (the paper's headline NLogSpace algorithm);
//! * `WARD` (non-PWL) → the same search ([`crate::search`]) with
//!   **decomposition**, the deterministic form of the alternating algorithm;
//! * answer *enumeration* (rather than the decision problem) uses the
//!   Theorem 6.3 **Datalog rewriting** when it applies, and otherwise falls
//!   back to a terminating **chase** (which is complete whenever its
//!   termination policy is not the binding constraint).
//!
//! The engine never answers queries for non-warded programs — that is the
//! point of Theorem 5.1. A caller who wants a bounded chase of such a
//! program runs [`vadalog_chase::ChaseEngine`] directly.

use crate::rewrite::{rewrite_to_pwl_datalog, RewriteOptions};
use crate::search::{linear_proof_search, warded_proof_search, SearchOptions};
use std::collections::BTreeSet;
use vadalog_analysis::normalize::normalize_single_head;
use vadalog_analysis::pwl::is_piecewise_linear;
use vadalog_analysis::wardedness::is_warded;
use vadalog_chase::{ChaseConfig, ChaseEngine, TerminationPolicy};
use vadalog_datalog::DatalogEngine;
use vadalog_model::{ConjunctiveQuery, Database, ModelError, Program, Symbol};

/// Which decision procedure the engine selected for a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Linear proof search (program is warded and piece-wise linear).
    LinearProofSearch,
    /// Proof search with decomposition (warded, not piece-wise linear): the
    /// deterministic AND/OR form of the paper's alternating algorithm.
    WardedProofSearch,
}

/// Options for the certain-answer engine.
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Options for the proof search (both program classes).
    pub search: SearchOptions,
    /// Options for the Datalog rewriting used by answer enumeration.
    pub rewrite: RewriteOptions,
    /// Termination policy of the chase fallback used by answer enumeration.
    pub chase_policy: TerminationPolicy,
    /// Worker threads for answer enumeration (the rewriting's semi-naive
    /// evaluation, the chase fallback's trigger detection, and the final CQ
    /// answering all run through the sharded kernels; 1 = sequential, 0 =
    /// all available parallelism). Answers are thread-count independent.
    pub threads: usize,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            search: SearchOptions::default(),
            rewrite: RewriteOptions::default(),
            chase_policy: TerminationPolicy::MaxNullDepth(6),
            threads: 1,
        }
    }
}

/// The high-level engine: one program, many queries.
#[derive(Debug, Clone)]
pub struct CertainAnswerEngine {
    original: Program,
    normalized: Program,
    strategy: Strategy,
    options: EngineOptions,
    warded: bool,
    piecewise_linear: bool,
}

impl CertainAnswerEngine {
    /// Builds an engine for a program, choosing the strategy from the
    /// program's syntactic class. Fails for non-warded programs.
    pub fn new(
        program: Program,
        options: EngineOptions,
    ) -> Result<CertainAnswerEngine, ModelError> {
        let warded = is_warded(&program);
        let piecewise_linear = is_piecewise_linear(&program);
        let strategy = if warded && piecewise_linear {
            Strategy::LinearProofSearch
        } else if warded {
            Strategy::WardedProofSearch
        } else {
            return Err(ModelError::InvalidTgd(
                "the program is not warded: certain-answer computation is undecidable in \
                 general (Theorem 5.1)"
                    .into(),
            ));
        };
        let normalized = normalize_single_head(&program)?.program;
        Ok(CertainAnswerEngine {
            original: program,
            normalized,
            strategy,
            options,
            warded,
            piecewise_linear,
        })
    }

    /// Builds an engine with default options.
    pub fn with_defaults(program: Program) -> Result<CertainAnswerEngine, ModelError> {
        CertainAnswerEngine::new(program, EngineOptions::default())
    }

    /// The strategy the engine selected.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// `true` iff the program is warded.
    pub fn is_warded(&self) -> bool {
        self.warded
    }

    /// `true` iff the program is piece-wise linear.
    pub fn is_piecewise_linear(&self) -> bool {
        self.piecewise_linear
    }

    /// The single-head normalisation of the program actually used by the
    /// decision procedures.
    pub fn normalized_program(&self) -> &Program {
        &self.normalized
    }

    /// The original program.
    pub fn program(&self) -> &Program {
        &self.original
    }

    /// Decides whether `tuple` is a certain answer to `query` over `database`
    /// (the decision problem `CQAns` of the paper).
    pub fn is_certain_answer(
        &self,
        database: &Database,
        query: &ConjunctiveQuery,
        tuple: &[Symbol],
    ) -> Result<bool, ModelError> {
        let boolean = query.instantiate(tuple).ok_or_else(|| {
            ModelError::InvalidQuery(format!(
                "tuple arity {} does not match query arity {}",
                tuple.len(),
                query.output.len()
            ))
        })?;
        Ok(self.boolean_certain(database, &boolean))
    }

    /// Decides a Boolean query (certainly true over every model?).
    pub fn boolean_certain(&self, database: &Database, boolean_query: &ConjunctiveQuery) -> bool {
        let search = match self.strategy {
            Strategy::LinearProofSearch => linear_proof_search,
            Strategy::WardedProofSearch => warded_proof_search,
        };
        search(
            &self.normalized,
            database,
            boolean_query,
            self.options.search,
        )
        .is_accepted()
    }

    /// Enumerates the certain answers to `query` over `database`.
    ///
    /// For piece-wise linear warded programs and constant-free queries the
    /// Theorem 6.3 rewriting is used (data-independent, then evaluated with
    /// semi-naive Datalog); otherwise the engine falls back to evaluating the
    /// query over a chased instance under the configured termination policy.
    pub fn all_answers(
        &self,
        database: &Database,
        query: &ConjunctiveQuery,
    ) -> Result<BTreeSet<Vec<Symbol>>, ModelError> {
        if self.strategy == Strategy::LinearProofSearch {
            if let Ok(Some(rewritten)) =
                rewrite_to_pwl_datalog(&self.normalized, query, self.options.rewrite)
            {
                let engine =
                    DatalogEngine::new(rewritten.program)?.with_threads(self.options.threads);
                return Ok(engine.answers(database, &rewritten.query));
            }
        }
        // Fallback: chase and evaluate. Complete whenever the chase finishes
        // (or the termination policy is generous enough for the query).
        let chase = ChaseEngine::new(
            self.normalized.clone(),
            ChaseConfig::restricted(self.options.chase_policy).with_threads(self.options.threads),
        );
        Ok(chase.certain_answers(database, query))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog_model::parser::{parse, parse_query, parse_rules};

    fn engine(rules: &str) -> CertainAnswerEngine {
        CertainAnswerEngine::with_defaults(parse_rules(rules).unwrap()).unwrap()
    }

    fn db(facts: &str) -> Database {
        parse(facts).unwrap().database
    }

    #[test]
    fn strategy_selection_follows_the_program_class() {
        assert_eq!(
            engine("t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).").strategy(),
            Strategy::LinearProofSearch
        );
        assert_eq!(
            engine("t(X, Y) :- edge(X, Y).\n t(X, Z) :- t(X, Y), t(Y, Z).").strategy(),
            Strategy::WardedProofSearch
        );
        // Non-warded programs are rejected.
        let unwarded = parse_rules("r(X, Z) :- p(X).\n t(Y, X) :- r(X, Y), r(W, Y).").unwrap();
        assert!(CertainAnswerEngine::with_defaults(unwarded).is_err());
    }

    #[test]
    fn decision_and_enumeration_agree_on_reachability() {
        let e = engine("t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).");
        let database = db("edge(a, b). edge(b, c). edge(c, d).");
        let query = parse_query("?(X, Y) :- t(X, Y).").unwrap();
        let answers = e.all_answers(&database, &query).unwrap();
        assert_eq!(answers.len(), 6);
        for answer in &answers {
            assert!(e.is_certain_answer(&database, &query, answer).unwrap());
        }
        assert!(!e
            .is_certain_answer(&database, &query, &[Symbol::new("d"), Symbol::new("a")])
            .unwrap());
    }

    #[test]
    fn existential_program_answers() {
        let e = engine("r(X, Z) :- p(X).\n p(Y) :- r(X, Y).");
        let database = db("p(a). p(b).");
        // Which constants have an R-successor with its own R-successor?
        let query = parse_query("?(A) :- r(A, Y), r(Y, W).").unwrap();
        let answers = e.all_answers(&database, &query).unwrap();
        assert_eq!(answers.len(), 2);
        assert!(e
            .is_certain_answer(&database, &query, &[Symbol::new("a")])
            .unwrap());
    }

    #[test]
    fn alternating_strategy_handles_non_pwl_programs() {
        let e = engine("t(X, Y) :- edge(X, Y).\n t(X, Z) :- t(X, Y), t(Y, Z).");
        let database = db("edge(a, b). edge(b, c).");
        let query = parse_query("?(X, Y) :- t(X, Y).").unwrap();
        assert!(e
            .is_certain_answer(&database, &query, &[Symbol::new("a"), Symbol::new("c")])
            .unwrap());
        let answers = e.all_answers(&database, &query).unwrap();
        assert_eq!(answers.len(), 3);
    }

    #[test]
    fn tuple_arity_mismatch_is_reported() {
        let e = engine("t(X, Y) :- edge(X, Y).");
        let database = db("edge(a, b).");
        let query = parse_query("?(X, Y) :- t(X, Y).").unwrap();
        assert!(e
            .is_certain_answer(&database, &query, &[Symbol::new("a")])
            .is_err());
    }
}
