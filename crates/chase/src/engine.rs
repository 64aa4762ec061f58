//! The chase: the workspace's one bottom-up loop for TGDs with existential
//! heads — restricted and oblivious variants, termination control, optional
//! provenance.
//!
//! # One loop, resumable
//!
//! [`Saturation`] is the state of a chase in progress (instance, null
//! generation depths, the oblivious chase's fired triggers, the chase graph,
//! one [`ChaseStats`], the `completed` flag) and [`Saturation::saturate`] is
//! the loop: it chases a set of [`ChaseRule`]s to fixpoint over that state.
//! [`ChaseEngine::run`] is one `saturate` over all TGDs of the program; the
//! `vadalog_engine` reasoner calls `saturate` once per stratum over its
//! optimizer-ordered rules. Nulls, steps and the termination policy are
//! accounted across calls, so a run split into strata is still one chase.
//!
//! # Round structure
//!
//! Each round separates **trigger detection** from **trigger application**.
//! What a round detects is decided by the scheduler this loop shares with the
//! Datalog crate's fixpoint, [`vadalog_model::DrivenRows`]: a rule is driven
//! from the rows of one body atom ([`Matcher::prematch`]) with the rest of the
//! body following the plan [`JoinSpec::plan`] computes for that position.
//! Every `saturate` call starts the schedule from
//! [`DrivenRows::from_first_atom`], so its first round drives body atom 0 over
//! its whole relation (the atom a caller places first is the driver — the
//! reasoner's PWL-aware ordering puts the recursive atom there) and later
//! rounds drive each position over only the rows its relation gained; a
//! trigger is detected in the first round in which all its rows exist, and
//! never again. The two loops differ in the head action only: this one
//! applies triggers sequentially (below), the Datalog one emits packed rows.
//!
//! The (rule, driven position) tasks of a round run on
//! [`ChaseConfig::threads`] scoped workers via
//! [`vadalog_model::parallel::run_tasks`]; tasks, plans and driven ranges
//! depend only on the frozen instance.
//!
//! # Trigger order, and why duplicates are harmless
//!
//! Triggers apply sequentially in (rule, driven position, driven row, plan)
//! order — null invention, the restricted chase's satisfaction check, the
//! termination policy and provenance recording all happen in this phase, so
//! results and null ids are identical for every thread count. A trigger
//! whose rows are new at two body positions is detected twice in its round.
//! For the restricted chase the second copy finds its head satisfied by the
//! first; the oblivious chase keys its fired set on the matched body rows
//! (the driven row included), which does not depend on which position drove.

use crate::provenance::{ChaseGraph, DerivationRecord};
use crate::termination::TerminationPolicy;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::ControlFlow;
use vadalog_model::parallel;
use vadalog_model::{
    Atom, ConjunctiveQuery, Database, DrivenRange, DrivenRows, Instance, JoinPlan, JoinSpec,
    Matcher, NullId, Program, RowId, Symbol, Term, Tgd, Variable,
};

/// Which chase variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChaseVariant {
    /// The standard (restricted) chase: a trigger fires only if its head is
    /// not already satisfied by an extension of the trigger homomorphism.
    #[default]
    Restricted,
    /// The oblivious chase: every trigger fires exactly once.
    Oblivious,
}

/// Configuration of a chase run.
#[derive(Debug, Clone, Copy)]
pub struct ChaseConfig {
    /// The chase variant.
    pub variant: ChaseVariant,
    /// The termination policy.
    pub policy: TerminationPolicy,
    /// Whether to record provenance (the chase graph, [`ChaseResult::graph`]).
    /// Off in every constructor: recording costs time on every chase step
    /// and only a caller that inspects the graph should opt in.
    pub record_provenance: bool,
    /// Worker threads for per-round trigger detection (1 = sequential,
    /// 0 = all available parallelism). Trigger application stays sequential,
    /// so results are identical for every thread count.
    pub threads: usize,
}

impl Default for ChaseConfig {
    fn default() -> ChaseConfig {
        ChaseConfig {
            variant: ChaseVariant::default(),
            policy: TerminationPolicy::default(),
            record_provenance: false,
            threads: 1,
        }
    }
}

impl ChaseConfig {
    /// A restricted chase with the given termination policy.
    pub fn restricted(policy: TerminationPolicy) -> ChaseConfig {
        ChaseConfig {
            variant: ChaseVariant::Restricted,
            policy,
            record_provenance: false,
            threads: 1,
        }
    }

    /// An oblivious chase with the given termination policy.
    pub fn oblivious(policy: TerminationPolicy) -> ChaseConfig {
        ChaseConfig {
            variant: ChaseVariant::Oblivious,
            policy,
            record_provenance: false,
            threads: 1,
        }
    }

    /// Sets the trigger-detection worker thread count.
    pub fn with_threads(mut self, threads: usize) -> ChaseConfig {
        self.threads = threads;
        self
    }
}

/// Counters describing a chase, summed over every [`Saturation::saturate`]
/// call on it; the peak-atom counter is the space proxy used by the E1
/// experiment and `join_probes` the metric of the join-ordering ablation
/// (E6).
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaseStats {
    /// Number of applied triggers (chase steps).
    pub steps: usize,
    /// Number of invented labelled nulls.
    pub nulls_created: usize,
    /// Atoms added to the database.
    pub derived_atoms: usize,
    /// Number of atoms in the final instance.
    pub final_atoms: usize,
    /// Peak number of atoms materialised at any point (equals `final_atoms`
    /// for the chase, but reported separately so that all engines expose the
    /// same space metric).
    pub peak_atoms: usize,
    /// Detection rounds executed.
    pub rounds: usize,
    /// Candidate rows inspected by trigger detection: driven rows plus the
    /// rows the join kernel examined for the remaining body atoms.
    pub join_probes: usize,
    /// Number of candidate triggers examined.
    pub triggers_examined: usize,
    /// Triggers suppressed by a null-depth bound.
    pub suppressed_triggers: usize,
}

/// The result of a chase run.
#[derive(Debug, Clone)]
pub struct ChaseResult {
    /// The chased instance.
    pub instance: Instance,
    /// Run statistics.
    pub stats: ChaseStats,
    /// `true` iff the chase stopped because no applicable trigger remained
    /// (as opposed to the termination policy stopping it or suppressing a
    /// trigger).
    pub completed: bool,
    /// The chase graph (empty when provenance recording is disabled).
    pub graph: ChaseGraph,
}

/// A TGD compiled for the chase loop: body join spec for trigger detection,
/// head join spec for the restricted satisfaction check, and the variable
/// plumbing between them. Body atom 0 is the rule's first-round driver.
#[derive(Debug, Clone)]
pub struct ChaseRule {
    /// The rule's index in its program (the provenance label and the
    /// oblivious chase's trigger key).
    tgd_index: usize,
    tgd: Tgd,
    body: JoinSpec,
    head: JoinSpec,
    existentials: Vec<Variable>,
}

impl ChaseRule {
    /// Compiles `tgd`, the rule at `tgd_index` of its program.
    pub fn new(tgd_index: usize, tgd: &Tgd) -> ChaseRule {
        ChaseRule {
            tgd_index,
            body: JoinSpec::compile(&tgd.body),
            head: JoinSpec::compile(&tgd.head),
            existentials: tgd.existential_variables().into_iter().collect(),
            tgd: tgd.clone(),
        }
    }

    /// The image of `atom` under a trigger given as body-slot values,
    /// extended with fresh nulls for existential variables.
    fn instantiate(&self, atom: &Atom, values: &[Term], nulls: &[(Variable, Term)]) -> Atom {
        self.body.image_with(atom, values, |v| {
            nulls.iter().find(|&&(w, _)| w == v).map(|&(_, n)| n)
        })
    }
}

/// One collected trigger: the body homomorphism as a dense slot-value tuple
/// plus, for the oblivious chase only, the matched body rows (its dedup key;
/// row ids are stable in the append-only store, so the key clones no atom).
struct Trigger {
    values: Vec<Term>,
    rows: Vec<RowId>,
}

/// A chase in progress: everything that must survive from one
/// [`Saturation::saturate`] call to the next.
#[derive(Debug)]
pub struct Saturation {
    config: ChaseConfig,
    instance: Instance,
    stats: ChaseStats,
    completed: bool,
    graph: ChaseGraph,
    /// Generation depth of every invented null (the next null id is
    /// `stats.nulls_created`).
    null_depth: HashMap<NullId, usize>,
    /// Oblivious chase: fired triggers as (rule index, body row ids).
    fired: HashSet<(usize, Vec<RowId>)>,
}

impl Saturation {
    /// Starts a chase of `database`.
    pub fn new(database: &Database, config: ChaseConfig) -> Saturation {
        Saturation {
            config,
            instance: database.as_instance().clone(),
            stats: ChaseStats::default(),
            completed: true,
            graph: ChaseGraph::new(),
            null_depth: HashMap::new(),
            fired: HashSet::new(),
        }
    }

    /// Chases `rules` to fixpoint over the current instance, or until the
    /// termination policy stops the chase (see the module docs for the round
    /// structure). The schedule is local to the call: its first round sees
    /// the whole instance.
    pub fn saturate(&mut self, rules: &[ChaseRule]) {
        let mut head_matchers: Vec<Matcher<'_>> = rules
            .iter()
            .map(|rule| {
                let mut m = Matcher::new(&rule.head);
                m.set_limit(1);
                m
            })
            .collect();
        let bodies = || rules.iter().map(|rule| &rule.body);
        let mut schedule = DrivenRows::from_first_atom(bodies(), &self.instance);
        loop {
            let tasks = schedule.next_round(bodies(), &self.instance);
            if tasks.is_empty() {
                return;
            }
            self.stats.rounds += 1;
            let detected = self.detect(rules, &tasks);
            self.stats.join_probes += detected.iter().map(|(_, probes)| probes).sum::<usize>();
            for (task, (triggers, _)) in tasks.iter().zip(detected) {
                let head_matcher = &mut head_matchers[task.rule];
                for trigger in triggers {
                    if self
                        .apply(&rules[task.rule], head_matcher, trigger)
                        .is_break()
                    {
                        return;
                    }
                }
            }
        }
    }

    /// Trigger detection: every task's triggers and probe count against the
    /// frozen instance, in task order.
    fn detect(&self, rules: &[ChaseRule], tasks: &[DrivenRange]) -> Vec<(Vec<Trigger>, usize)> {
        let instance = &self.instance;
        let keep_rows = self.config.variant == ChaseVariant::Oblivious;
        let plans: Vec<JoinPlan> = tasks
            .iter()
            .map(|task| rules[task.rule].body.plan(instance, &[task.pos]))
            .collect();
        parallel::run_tasks(self.config.threads, tasks.len(), |task_index| {
            let task = &tasks[task_index];
            let body = &rules[task.rule].body;
            let rel = body
                .atom_relation(instance, task.pos)
                .expect("a driven range is non-empty, so its relation exists");
            let mut triggers = Vec::new();
            let mut probes = (task.hi - task.lo) as usize;
            let mut matcher = Matcher::new(body);
            matcher.set_plan(Some(&plans[task_index]));
            for row_id in task.lo..task.hi {
                matcher.clear();
                if !matcher.prematch(task.pos, rel.row(row_id)) {
                    continue;
                }
                let run = matcher.for_each(instance, |bindings| {
                    let mut rows = Vec::new();
                    if keep_rows {
                        rows.extend_from_slice(bindings.matched_rows());
                        rows[task.pos] = row_id;
                    }
                    triggers.push(Trigger {
                        values: (0..body.num_slots())
                            .map(|slot| {
                                bindings
                                    .packed_slot(slot)
                                    .expect("every body variable is bound by a full match")
                                    .unpack()
                            })
                            .collect(),
                        rows,
                    });
                    ControlFlow::Continue(())
                });
                probes += run.probes as usize;
            }
            (triggers, probes)
        })
    }

    /// Trigger application: fires `trigger` unless it already fired
    /// (oblivious), its head is already satisfied (restricted) or the
    /// termination policy forbids it. `Break` means the policy stopped the
    /// whole chase. This is the only place the policy is consulted.
    fn apply(
        &mut self,
        rule: &ChaseRule,
        head_matcher: &mut Matcher<'_>,
        trigger: Trigger,
    ) -> ControlFlow<()> {
        self.stats.triggers_examined += 1;
        match self.config.variant {
            ChaseVariant::Oblivious => {
                if !self.fired.insert((rule.tgd_index, trigger.rows)) {
                    return ControlFlow::Continue(());
                }
            }
            ChaseVariant::Restricted => {
                // Skip if some extension of the trigger already satisfies
                // the head: prebind the frontier image and search for any
                // match of the head pattern.
                head_matcher.clear();
                for (slot, &value) in trigger.values.iter().enumerate() {
                    let bound = head_matcher.prebind(rule.body.var_of(slot), value);
                    debug_assert!(bound, "fresh matcher cannot conflict");
                }
                let mut satisfied = false;
                head_matcher.for_each(&self.instance, |_| {
                    satisfied = true;
                    ControlFlow::Break(())
                });
                if satisfied {
                    return ControlFlow::Continue(());
                }
            }
        }
        let policy = self.config.policy;
        if !policy.allows_step(self.stats.steps, self.stats.nulls_created) {
            self.completed = false;
            return ControlFlow::Break(());
        }
        // Generation depth of the nulls this trigger would create: one more
        // than the deepest null among the frontier images. TGDs are
        // constant- and null-free, so the nulls of the premise images are
        // exactly the nulls among the trigger's slot values.
        let new_depth = 1 + trigger
            .values
            .iter()
            .filter_map(Term::as_null)
            .map(|n| self.null_depth.get(&n).copied().unwrap_or(0))
            .max()
            .unwrap_or(0);
        if !rule.existentials.is_empty() && !policy.allows_null_depth(new_depth) {
            // Too deep: suppress this trigger (but keep chasing).
            self.completed = false;
            self.stats.suppressed_triggers += 1;
            return ControlFlow::Continue(());
        }

        // Extend the trigger with fresh nulls for the existential variables
        // and add the head images.
        let nulls: Vec<(Variable, Term)> = rule
            .existentials
            .iter()
            .map(|&z| {
                let null = NullId(self.stats.nulls_created as u64);
                self.stats.nulls_created += 1;
                self.null_depth.insert(null, new_depth);
                (z, Term::Null(null))
            })
            .collect();
        let mut conclusions = Vec::new();
        for head_atom in &rule.tgd.head {
            let atom = rule.instantiate(head_atom, &trigger.values, &nulls);
            let recorded = self.config.record_provenance.then(|| atom.clone());
            if self
                .instance
                .insert(atom)
                .expect("head image is variable-free")
            {
                self.stats.derived_atoms += 1;
                conclusions.extend(recorded);
            }
        }
        self.stats.steps += 1;
        if !conclusions.is_empty() {
            self.graph.record(DerivationRecord {
                tgd_index: rule.tgd_index,
                premises: rule
                    .tgd
                    .body
                    .iter()
                    .map(|a| rule.instantiate(a, &trigger.values, &[]))
                    .collect(),
                conclusions,
            });
        }
        ControlFlow::Continue(())
    }

    /// Ends the chase and hands out its result.
    pub fn finish(mut self) -> ChaseResult {
        self.stats.final_atoms = self.instance.len();
        self.stats.peak_atoms = self.instance.len();
        ChaseResult {
            instance: self.instance,
            stats: self.stats,
            completed: self.completed,
            graph: self.graph,
        }
    }
}

/// The chase engine. Holds the compiled program and configuration; each
/// [`ChaseEngine::run`] call chases one database.
#[derive(Debug, Clone)]
pub struct ChaseEngine {
    rules: Vec<ChaseRule>,
    config: ChaseConfig,
}

impl ChaseEngine {
    /// Creates an engine for the given program and configuration.
    pub fn new(program: Program, config: ChaseConfig) -> ChaseEngine {
        ChaseEngine {
            rules: program
                .iter()
                .map(|(index, tgd)| ChaseRule::new(index, tgd))
                .collect(),
            config,
        }
    }

    /// Runs the chase on a database: one [`Saturation::saturate`] over all
    /// TGDs of the program.
    pub fn run(&self, database: &Database) -> ChaseResult {
        let mut chase = Saturation::new(database, self.config);
        chase.saturate(&self.rules);
        chase.finish()
    }

    /// Chases the database and evaluates the query over the result, returning
    /// the certain answers (Proposition 2.1). Answers containing nulls are
    /// discarded by CQ evaluation, which runs through the sharded CQ kernel
    /// on [`ChaseConfig::threads`] workers (answer sets are thread-count
    /// independent).
    pub fn certain_answers(
        &self,
        database: &Database,
        query: &ConjunctiveQuery,
    ) -> BTreeSet<Vec<Symbol>> {
        query.evaluate_with_threads(&self.run(database).instance, self.config.threads)
    }
}

impl ChaseResult {
    /// Evaluates a query over the chased instance.
    pub fn instance_answers(&self, query: &ConjunctiveQuery) -> BTreeSet<Vec<Symbol>> {
        query.evaluate(&self.instance)
    }

    /// `true` for Boolean queries that hold in the chased instance.
    pub fn boolean_answer(&self, query: &ConjunctiveQuery) -> bool {
        query.holds_in(&self.instance)
    }
}

/// One-shot convenience function: chases `database` under `program` with the
/// given configuration and returns the certain answers to `query`.
pub fn certain_answers(
    program: &Program,
    database: &Database,
    query: &ConjunctiveQuery,
    config: ChaseConfig,
) -> BTreeSet<Vec<Symbol>> {
    ChaseEngine::new(program.clone(), config).certain_answers(database, query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog_model::parser::{parse, parse_query, parse_rules};

    fn run_chase(rules: &str, facts: &str, config: ChaseConfig) -> ChaseResult {
        let program = parse_rules(rules).unwrap();
        let db = parse(facts).unwrap().database;
        ChaseEngine::new(program, config).run(&db)
    }

    #[test]
    fn transitive_closure_terminates_and_is_complete() {
        let result = run_chase(
            "t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).",
            "edge(a, b). edge(b, c). edge(c, d).",
            ChaseConfig::restricted(TerminationPolicy::Unbounded),
        );
        assert!(result.completed);
        // 3 edges + 6 pairs of the transitive closure.
        assert_eq!(result.instance.len(), 3 + 6);
        assert!(result.instance.contains(&Atom::fact("t", &["a", "d"])));
        assert_eq!(result.stats.nulls_created, 0);
    }

    #[test]
    fn existential_rules_invent_nulls() {
        let result = run_chase(
            "r(X, Z) :- p(X).",
            "p(a). p(b).",
            ChaseConfig::restricted(TerminationPolicy::Unbounded),
        );
        assert!(result.completed);
        assert_eq!(result.stats.nulls_created, 2);
        assert_eq!(result.instance.len(), 4);
    }

    #[test]
    fn restricted_chase_does_not_refire_satisfied_heads() {
        // Once r(a, ⊥) exists the restricted chase must not create another
        // null for the same p(a).
        let result = run_chase(
            "r(X, Z) :- p(X).",
            "p(a).",
            ChaseConfig::restricted(TerminationPolicy::MaxSteps(100)),
        );
        assert!(result.completed);
        assert_eq!(result.stats.nulls_created, 1);
    }

    #[test]
    fn infinite_chase_is_cut_by_null_depth_policy() {
        // P(x) → ∃z R(x,z); R(x,y) → P(y): the restricted chase runs forever,
        // the depth bound stops it.
        let result = run_chase(
            "r(X, Z) :- p(X).\n p(Y) :- r(X, Y).",
            "p(a).",
            ChaseConfig::restricted(TerminationPolicy::MaxNullDepth(3)),
        );
        assert!(!result.completed);
        assert!(result.stats.nulls_created <= 4);
        assert!(result.instance.len() >= 4);
    }

    #[test]
    fn infinite_chase_is_cut_by_step_policy() {
        let result = run_chase(
            "r(X, Z) :- p(X).\n p(Y) :- r(X, Y).",
            "p(a).",
            ChaseConfig::restricted(TerminationPolicy::MaxSteps(10)),
        );
        assert!(!result.completed);
        assert!(result.stats.steps <= 10);
    }

    #[test]
    fn oblivious_chase_fires_triggers_once() {
        let result = run_chase(
            "t(X, Y) :- edge(X, Y).",
            "edge(a, b). edge(b, c).",
            ChaseConfig::oblivious(TerminationPolicy::Unbounded),
        );
        assert!(result.completed);
        assert_eq!(result.stats.steps, 2);
        assert_eq!(result.instance.len(), 4);
    }

    #[test]
    fn certain_answers_match_proposition_2_1() {
        let program =
            parse_rules("t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).").unwrap();
        let db = parse("edge(a, b). edge(b, c).").unwrap().database;
        let query = parse_query("?(X, Y) :- t(X, Y).").unwrap();
        let answers = certain_answers(
            &program,
            &db,
            &query,
            ChaseConfig::restricted(TerminationPolicy::Unbounded),
        );
        assert_eq!(answers.len(), 3);
        assert!(answers.contains(&vec![Symbol::new("a"), Symbol::new("c")]));
    }

    #[test]
    fn answers_never_contain_nulls() {
        let program = parse_rules("r(X, Z) :- p(X).").unwrap();
        let db = parse("p(a).").unwrap().database;
        let q_out = parse_query("?(X, Z) :- r(X, Z).").unwrap();
        let answers = certain_answers(
            &program,
            &db,
            &q_out,
            ChaseConfig::restricted(TerminationPolicy::Unbounded),
        );
        assert!(answers.is_empty());
        // The Boolean projection holds, though.
        let q_bool = parse_query("? :- r(X, Z).").unwrap();
        let engine = ChaseEngine::new(
            program,
            ChaseConfig::restricted(TerminationPolicy::Unbounded),
        );
        assert!(engine.run(&db).boolean_answer(&q_bool));
    }

    #[test]
    fn provenance_tracks_derivations() {
        let result = run_chase(
            "t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).",
            "edge(a, b). edge(b, c).",
            ChaseConfig {
                record_provenance: true,
                ..ChaseConfig::restricted(TerminationPolicy::Unbounded)
            },
        );
        let t_ac = Atom::fact("t", &["a", "c"]);
        let record = result.graph.derivation_of(&t_ac).expect("t(a,c) derived");
        assert_eq!(record.tgd_index, 1);
        assert!(result.graph.depth_of(&t_ac) >= 2);
    }

    #[test]
    fn parallel_trigger_detection_is_identical_to_sequential() {
        let rules =
            "t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).\n r(X, W) :- t(X, Y).";
        let facts = "edge(a, b). edge(b, c). edge(c, d). edge(d, b).";
        let sequential = run_chase(
            rules,
            facts,
            ChaseConfig::restricted(TerminationPolicy::MaxNullDepth(3)),
        );
        for threads in [2, 4] {
            let sharded = run_chase(
                rules,
                facts,
                ChaseConfig::restricted(TerminationPolicy::MaxNullDepth(3)).with_threads(threads),
            );
            assert_eq!(sharded.stats.steps, sequential.stats.steps);
            assert_eq!(sharded.stats.nulls_created, sequential.stats.nulls_created);
            assert_eq!(
                sharded.stats.triggers_examined,
                sequential.stats.triggers_examined
            );
            // Null invention happens in the sequential apply phase, so even
            // the invented null ids — and with them the full row layouts —
            // must coincide.
            assert_eq!(
                sharded.instance.row_layout(),
                sequential.instance.row_layout()
            );
        }
    }

    #[test]
    fn owl_example_chase_produces_expected_inferences() {
        let rules = "subclassStar(X, Y) :- subclass(X, Y).\n\
             subclassStar(X, Z) :- subclassStar(X, Y), subclass(Y, Z).\n\
             type(X, Z) :- type(X, Y), subclassStar(Y, Z).\n\
             triple(X, Z, W) :- type(X, Y), restriction(Y, Z).\n\
             triple(Z, W, X) :- triple(X, Y, Z), inverse(Y, W).\n\
             type(X, W) :- triple(X, Y, Z), restriction(W, Y).";
        let facts = "subclass(student, person). subclass(person, agent).\n\
             type(alice, student). type(alice, enrolled).\n\
             restriction(enrolled, hasCourse). inverse(hasCourse, courseOf).";
        let program = parse_rules(rules).unwrap();
        let db = parse(facts).unwrap().database;
        let engine = ChaseEngine::new(
            program,
            ChaseConfig::restricted(TerminationPolicy::MaxNullDepth(4)),
        );
        let result = engine.run(&db);
        // Subclass closure and type propagation.
        assert!(result
            .instance
            .contains(&Atom::fact("subclassStar", &["student", "agent"])));
        assert!(result
            .instance
            .contains(&Atom::fact("type", &["alice", "person"])));
        assert!(result
            .instance
            .contains(&Atom::fact("type", &["alice", "agent"])));
        // alice gets a triple for the restriction of enrolled, and the inverse
        // rule produces a reversed triple over the invented null.
        let q = parse_query("? :- triple(alice, hasCourse, C).").unwrap();
        assert!(result.boolean_answer(&q));
        let q_inv = parse_query("? :- triple(C, courseOf, alice).").unwrap();
        assert!(result.boolean_answer(&q_inv));
    }
}
