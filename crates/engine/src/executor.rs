//! The reasoner: a stratification-and-ordering driver over the chase.
//!
//! [`Reasoner::new`] runs the optimizer once (body ordering, stratification)
//! and compiles the ordered rules into the passes of a run: one pass per
//! stratum when [`EngineConfig::materialize_strata`] is set, one pass over
//! all rules otherwise. [`Reasoner::run`] starts a restricted
//! [`vadalog_chase::Saturation`] under [`EngineConfig::termination`] and
//! saturates each pass in turn — the fixpoint rounds, trigger detection on
//! [`EngineConfig::threads`] workers, both head actions (packed rows for
//! single-atom full heads, trigger-by-trigger satisfaction checks and null
//! invention for the rest), and every termination check are the chase
//! crate's. A pass's first round drives each rule from body atom 0 as the
//! optimizer ordered it; that is the whole effect of
//! [`crate::JoinOrdering`] on evaluation.

use crate::optimizer::{optimize, EngineConfig};
use std::collections::BTreeSet;
use vadalog_analysis::stratify::Stratum;
use vadalog_chase::{ChaseConfig, ChaseRule, Saturation};
use vadalog_model::{ConjunctiveQuery, Database, Instance, Program, Symbol};

/// Counters describing an evaluation run: the chase's own, summed over the
/// passes. `join_probes` is the metric the join-ordering ablation (E6)
/// reports.
pub use vadalog_chase::ChaseStats as ReasonerStats;

/// The result of running the reasoner.
#[derive(Debug, Clone)]
pub struct ReasonerResult {
    /// The materialised instance.
    pub instance: Instance,
    /// Run statistics.
    pub stats: ReasonerStats,
    /// `true` iff a fixpoint was reached; `false` when the termination
    /// policy stopped the run or suppressed a trigger, in which case
    /// answers over `instance` are sound but possibly incomplete.
    pub completed: bool,
}

impl ReasonerResult {
    /// Evaluates a query over the materialised instance.
    pub fn answers(&self, query: &ConjunctiveQuery) -> BTreeSet<Vec<Symbol>> {
        query.evaluate(&self.instance)
    }

    /// `true` iff the Boolean query holds in the materialised instance.
    pub fn holds(&self, query: &ConjunctiveQuery) -> bool {
        query.holds_in(&self.instance)
    }
}

/// The Vadalog-style reasoner for a fixed program and configuration.
#[derive(Debug, Clone)]
pub struct Reasoner {
    config: EngineConfig,
    /// The rule sets saturated in turn by a run.
    passes: Vec<Vec<ChaseRule>>,
}

impl Reasoner {
    /// Builds a reasoner, running the optimizer once.
    pub fn new(program: &Program, config: EngineConfig) -> Reasoner {
        let optimized = optimize(program, &config);
        // The optimizer-ordered rules of one stratum (`None`: of all strata).
        let pass = |stratum: Option<&Stratum>| -> Vec<ChaseRule> {
            optimized
                .rules
                .iter()
                .filter(|r| stratum.is_none_or(|s| s.rules.contains(&r.original_index)))
                .map(|r| ChaseRule::new(r.original_index, &r.rule))
                .collect()
        };
        let passes = if config.materialize_strata {
            let strata = &optimized.stratification.strata;
            strata.iter().map(|s| pass(Some(s))).collect()
        } else {
            vec![pass(None)]
        };
        Reasoner { config, passes }
    }

    /// Materialises the program over the database.
    pub fn run(&self, database: &Database) -> ReasonerResult {
        let mut chase = Saturation::new(
            database,
            ChaseConfig::restricted(self.config.termination).with_threads(self.config.threads),
        );
        for pass in &self.passes {
            chase.saturate(pass);
        }
        let result = chase.finish();
        ReasonerResult {
            instance: result.instance,
            stats: result.stats,
            completed: result.completed,
        }
    }

    /// Materialises and evaluates a query in one call; the query runs
    /// through the sharded CQ kernel on [`EngineConfig::threads`] workers
    /// (answer sets are thread-count independent).
    pub fn answers(&self, database: &Database, query: &ConjunctiveQuery) -> BTreeSet<Vec<Symbol>> {
        query.evaluate_with_threads(&self.run(database).instance, self.config.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::JoinOrdering;
    use vadalog_chase::{ChaseEngine, TerminationPolicy};
    use vadalog_model::parser::{parse, parse_query, parse_rules};

    fn db(facts: &str) -> Database {
        parse(facts).unwrap().database
    }

    fn chain(n: usize) -> Database {
        let mut facts = String::new();
        for i in 0..n {
            facts.push_str(&format!("edge(n{i}, n{}).\n", i + 1));
        }
        db(&facts)
    }

    #[test]
    fn transitive_closure_matches_expected_counts() {
        let program =
            parse_rules("t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).").unwrap();
        let reasoner = Reasoner::new(&program, EngineConfig::default());
        let result = reasoner.run(&chain(5));
        // Closure of a 5-edge chain: 5+4+3+2+1 = 15 pairs.
        assert_eq!(result.stats.derived_atoms, 15);
        assert!(result.holds(&parse_query("? :- t(n0, n5).").unwrap()));
    }

    #[test]
    fn join_ordering_changes_probe_counts_but_not_answers() {
        let program =
            parse_rules("t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).").unwrap();
        let database = chain(30);
        let query = parse_query("?(X, Y) :- t(X, Y).").unwrap();

        let pwl_aware = Reasoner::new(&program, EngineConfig::default());
        let naive = Reasoner::new(
            &program,
            EngineConfig {
                join_ordering: JoinOrdering::AsWritten,
                ..EngineConfig::default()
            },
        );
        let a = pwl_aware.run(&database);
        let b = naive.run(&database);
        assert_eq!(a.answers(&query), b.answers(&query));
        assert_eq!(a.stats.derived_atoms, b.stats.derived_atoms);
        // Both evaluate the same fixpoint, but the probe counts differ — the
        // point of the ablation (either direction, depending on the data).
        assert_ne!(a.stats.join_probes, b.stats.join_probes);
    }

    #[test]
    fn strata_materialisation_toggle_preserves_answers() {
        let program = parse_rules(
            "t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).\n\
             pair(X, Y) :- t(X, Y), red(Y).",
        )
        .unwrap();
        let database = db("edge(a, b). edge(b, c). red(c).");
        let query = parse_query("?(X) :- pair(X, Y).").unwrap();
        let with = Reasoner::new(&program, EngineConfig::default());
        let without = Reasoner::new(
            &program,
            EngineConfig {
                materialize_strata: false,
                ..EngineConfig::default()
            },
        );
        assert_eq!(
            with.answers(&database, &query),
            without.answers(&database, &query)
        );
    }

    #[test]
    fn existential_rules_respect_the_termination_policy() {
        let program = parse_rules("r(X, Z) :- p(X).\n p(Y) :- r(X, Y).").unwrap();
        let database = db("p(a).");
        let reasoner = Reasoner::new(
            &program,
            EngineConfig {
                termination: TerminationPolicy::MaxNullDepth(3),
                ..EngineConfig::default()
            },
        );
        let result = reasoner.run(&database);
        assert!(result.stats.nulls_created <= 4);
        assert!(result.stats.suppressed_triggers > 0);
        assert!(result.holds(&parse_query("? :- r(a, Y), r(Y, W).").unwrap()));
    }

    /// `reasoner.run(database)` on a watchdog: the step and null bounds
    /// used to be ignored here, and the program below chases forever.
    fn run_within_ten_seconds(reasoner: Reasoner, database: Database) -> ReasonerResult {
        let (done, result) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            // The receiver is gone only if the watchdog already fired.
            let _ = done.send(reasoner.run(&database));
        });
        result
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the termination policy must stop an infinite chase")
    }

    #[test]
    fn step_and_null_bounds_stop_an_infinite_chase() {
        let program = parse_rules("r(X, Z) :- p(X).\n p(Y) :- r(X, Y).").unwrap();
        let bounded = |termination| {
            let config = EngineConfig {
                termination,
                ..EngineConfig::default()
            };
            run_within_ten_seconds(Reasoner::new(&program, config), db("p(a)."))
        };
        let by_steps = bounded(TerminationPolicy::MaxSteps(10));
        assert!(!by_steps.completed);
        assert!(by_steps.stats.steps <= 10);
        let by_nulls = bounded(TerminationPolicy::MaxNulls(3));
        assert!(!by_nulls.completed);
        assert!(by_nulls.stats.nulls_created <= 3);
    }

    #[test]
    fn depth_truncation_is_visible_on_both_result_types() {
        // ROADMAP item 1's table as it stands: at the default depth 6 the
        // 6-hop query is answered and the 7-hop query silently is not — but
        // both engines at least report `completed == false`.
        let program = parse_rules("r(X, Z) :- p(X).\n p(Y) :- r(X, Y).").unwrap();
        let database = db("p(a).");
        let hops = |k: usize| {
            let atoms: Vec<String> = (0..k).map(|i| format!("r(Y{i}, Y{})", i + 1)).collect();
            parse_query(&format!("?(Y0) :- {}.", atoms.join(", "))).unwrap()
        };
        let policy = TerminationPolicy::MaxNullDepth(6);
        let config = EngineConfig::default();
        assert_eq!(config.termination, policy);
        let reasoned = Reasoner::new(&program, config).run(&database);
        let chased = ChaseEngine::new(program, ChaseConfig::restricted(policy)).run(&database);
        assert!(!reasoned.completed);
        assert!(!chased.completed);
        assert_eq!(reasoned.answers(&hops(6)).len(), 1);
        assert_eq!(chased.instance_answers(&hops(6)).len(), 1);
        assert!(reasoned.answers(&hops(7)).is_empty());
        assert!(chased.instance_answers(&hops(7)).is_empty());
    }

    #[test]
    fn owl_example_end_to_end() {
        let program = parse_rules(
            "subclassStar(X, Y) :- subclass(X, Y).\n\
             subclassStar(X, Z) :- subclassStar(X, Y), subclass(Y, Z).\n\
             type(X, Z) :- type(X, Y), subclassStar(Y, Z).\n\
             triple(X, Z, W) :- type(X, Y), restriction(Y, Z).\n\
             triple(Z, W, X) :- triple(X, Y, Z), inverse(Y, W).\n\
             type(X, W) :- triple(X, Y, Z), restriction(W, Y).",
        )
        .unwrap();
        let database = db("subclass(student, person). subclass(person, agent).\n\
             type(alice, student). type(alice, enrolled).\n\
             restriction(enrolled, hasCourse). inverse(hasCourse, courseOf).");
        let reasoner = Reasoner::new(&program, EngineConfig::default());
        let result = reasoner.run(&database);
        assert!(result.holds(&parse_query("? :- type(alice, agent).").unwrap()));
        assert!(result.holds(&parse_query("? :- triple(alice, hasCourse, C).").unwrap()));
        assert!(result.holds(&parse_query("? :- triple(C, courseOf, alice).").unwrap()));
        assert!(result.stats.nulls_created >= 1);
    }

    #[test]
    fn stats_report_rounds_and_peak_atoms() {
        let program = parse_rules("t(X, Y) :- edge(X, Y).").unwrap();
        let reasoner = Reasoner::new(&program, EngineConfig::default());
        let result = reasoner.run(&chain(3));
        assert_eq!(result.stats.peak_atoms, 6);
        assert!(result.stats.rounds >= 1);
    }
}
