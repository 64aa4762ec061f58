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
//! never again.
//!
//! The (rule, driven position) tasks of a round run on
//! [`ChaseConfig::threads`] scoped workers via
//! [`vadalog_model::parallel::run_tasks`]; tasks, plans and driven ranges
//! depend only on the frozen instance. A task ends in one of two head
//! actions, chosen per rule:
//!
//! * **Packed rows**, the Datalog crate's head action, for a rule whose head
//!   is one atom without existential variables, under the restricted chase
//!   without provenance. The worker emits each match's head row through the
//!   rule's [`RowTemplate`] into a [`DerivationBatch`] and drops the rows the
//!   frozen instance already holds
//!   ([`DerivationBatch::prededup_against`]); no trigger is collected.
//! * **Triggers**, for every other rule (existential or multi-atom heads),
//!   under the oblivious chase (its fired set keys on body rows) and when
//!   provenance is recorded (a record names the body images). The worker
//!   collects each match as a slot-value tuple, and application runs the
//!   satisfaction check, null invention and recording per trigger.
//!
//! # Trigger order, and why the head action changes nothing
//!
//! Application is sequential in (rule, driven position) task order, and
//! within a task in (driven row, plan) order — null invention, the
//! restricted chase's satisfaction check, the termination policy and
//! provenance recording all happen in this phase, so results and null ids
//! are identical for every thread count. Tasks are never sharded, so a
//! batch's rows are in trigger order, and a batch is inserted at its task's
//! place in that sequence. A single-atom full head is satisfied exactly when
//! its row is present, so inserting a batch row by row with dedup fires
//! exactly the triggers one-by-one application would fire, in the same
//! order: the same rows get the same ids, a later existential task of the
//! round sees the same instance (so null ids do not move), and `steps` —
//! one per newly inserted row — counts the same fired triggers. The policy
//! is consulted before each new row as before each fired trigger.
//!
//! A trigger whose rows are new at two body positions is detected twice in
//! its round. For the restricted chase the second copy finds its head
//! satisfied by the first (or its row already inserted); the oblivious chase
//! keys its fired set on the matched body rows (the driven row included),
//! which does not depend on which position drove.

use crate::provenance::{ChaseGraph, DerivationRecord};
use crate::termination::TerminationPolicy;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::ControlFlow;
use vadalog_model::parallel;
use vadalog_model::{
    Atom, Bindings, ConjunctiveQuery, Database, DerivationBatch, DrivenRange, DrivenRows, Instance,
    JoinPlan, JoinSpec, JoinStats, Matcher, NullId, Predicate, Program, Relation, RowId,
    RowTemplate, Symbol, Term, Tgd, Variable,
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
    /// Number of applied triggers (chase steps). Under the packed head
    /// action a step is one newly inserted head row, which is the trigger
    /// one-by-one application would have fired for it.
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
    /// Number of candidate triggers examined: every match trigger detection
    /// found, whether its head was then found satisfied or not. Under the
    /// packed head action a task's matches count in full when its batch is
    /// applied, so a chase the policy stops inside a batch counts the rest
    /// of that batch too.
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
    /// A full single-atom head as a packed row template over the body spec
    /// (`None` for existential and multi-atom heads): the head action the
    /// restricted chase takes without provenance (see the module docs).
    full_head: Option<(Predicate, RowTemplate)>,
}

impl ChaseRule {
    /// Compiles `tgd`, the rule at `tgd_index` of its program.
    pub fn new(tgd_index: usize, tgd: &Tgd) -> ChaseRule {
        let body = JoinSpec::compile(&tgd.body);
        let existentials: Vec<Variable> = tgd.existential_variables().into_iter().collect();
        let full_head = match tgd.head.as_slice() {
            [head] if existentials.is_empty() => Some((head.predicate, body.row_template(head))),
            _ => None,
        };
        ChaseRule {
            tgd_index,
            head: JoinSpec::compile(&tgd.head),
            body,
            existentials,
            full_head,
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

/// What one detection task hands the application phase.
enum Detected {
    /// The task's triggers, applied one by one ([`Saturation::apply`]).
    Triggers(Vec<Trigger>),
    /// The head rows of a rule on the packed head action
    /// ([`Saturation::apply_rows`]).
    Rows(DerivationBatch),
}

/// Drives the rows of `task` through `matcher` against the frozen
/// `instance`, calling `on_match` with every full match and its driven row,
/// and returns the kernel's counters.
fn drive_task(
    matcher: &mut Matcher<'_>,
    instance: &Instance,
    task: &DrivenRange,
    rel: &Relation,
    mut on_match: impl FnMut(&Bindings<'_>, RowId),
) -> JoinStats {
    let mut stats = JoinStats::default();
    for row_id in task.lo..task.hi {
        matcher.clear();
        if !matcher.prematch(task.pos, rel.row(row_id)) {
            continue;
        }
        stats.absorb(matcher.for_each(instance, |bindings| {
            on_match(bindings, row_id);
            ControlFlow::Continue(())
        }));
    }
    stats
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
            for (task, (detected, _)) in tasks.iter().zip(detected) {
                let flow = match detected {
                    Detected::Rows(batch) => self.apply_rows(&batch),
                    Detected::Triggers(triggers) => {
                        let head_matcher = &mut head_matchers[task.rule];
                        triggers.into_iter().try_for_each(|trigger| {
                            self.apply(&rules[task.rule], head_matcher, trigger)
                        })
                    }
                };
                if flow.is_break() {
                    return;
                }
            }
        }
    }

    /// The packed head action's template for `rule`, if this chase takes
    /// that action for it: a full single-atom head under the restricted
    /// chase without provenance.
    fn packed_head<'r>(&self, rule: &'r ChaseRule) -> Option<&'r (Predicate, RowTemplate)> {
        let packed =
            self.config.variant == ChaseVariant::Restricted && !self.config.record_provenance;
        rule.full_head.as_ref().filter(|_| packed)
    }

    /// Trigger detection: every task's triggers (or, for a rule on the
    /// packed head action, its new head rows) and probe count against the
    /// frozen instance, in task order.
    fn detect(&self, rules: &[ChaseRule], tasks: &[DrivenRange]) -> Vec<(Detected, usize)> {
        let instance = &self.instance;
        let keep_rows = self.config.variant == ChaseVariant::Oblivious;
        let plans: Vec<JoinPlan> = tasks
            .iter()
            .map(|task| rules[task.rule].body.plan(instance, &[task.pos]))
            .collect();
        parallel::run_tasks(self.config.threads, tasks.len(), |task_index| {
            let task = &tasks[task_index];
            let rule = &rules[task.rule];
            let body = &rule.body;
            let rel = body
                .atom_relation(instance, task.pos)
                .expect("a driven range is non-empty, so its relation exists");
            let mut matcher = Matcher::new(body);
            matcher.set_plan(Some(&plans[task_index]));
            let (detected, run) = if let Some((predicate, template)) = self.packed_head(rule) {
                let mut batch = DerivationBatch::new(*predicate, template.arity());
                let run = drive_task(&mut matcher, instance, task, rel, |bindings, _| {
                    bindings.emit(template, &mut batch.rows)
                });
                batch.matches = run.matches;
                batch.prededup_against(instance);
                (Detected::Rows(batch), run)
            } else {
                let mut triggers = Vec::new();
                let run = drive_task(&mut matcher, instance, task, rel, |bindings, row_id| {
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
                });
                (Detected::Triggers(triggers), run)
            };
            (detected, (task.hi - task.lo) as usize + run.probes as usize)
        })
    }

    /// The packed head action: inserts a task's head rows (trigger order,
    /// minus the rows the frozen instance already held) where its triggers
    /// would have fired. A full single-atom head is satisfied exactly when
    /// its row is present, so the rows that are new on insert are exactly
    /// the triggers [`Saturation::apply`] would fire, one step each, and
    /// the policy is consulted before each of them as `apply` consults it.
    /// All of the task's matches count as examined, also when the policy
    /// stops the chase inside the batch.
    fn apply_rows(&mut self, batch: &DerivationBatch) -> ControlFlow<()> {
        self.stats.triggers_examined += batch.matches as usize;
        let (predicate, arity) = (batch.predicate, batch.arity);
        // A 0-ary head has one row, the empty one, once anything matched.
        let count = match arity {
            0 => usize::from(batch.matches > 0),
            _ => batch.rows.len() / arity,
        };
        for row in (0..count).map(|i| &batch.rows[i * arity..(i + 1) * arity]) {
            if !self
                .config
                .policy
                .allows_step(self.stats.steps, self.stats.nulls_created)
            {
                let satisfied = self
                    .instance
                    .relation(predicate)
                    .is_some_and(|rel| rel.contains_packed_row(row));
                if satisfied {
                    continue;
                }
                self.completed = false;
                return ControlFlow::Break(());
            }
            if self
                .instance
                .insert_packed(predicate, row)
                .expect("a derived row is ground and within capacity")
            {
                self.stats.derived_atoms += 1;
                self.stats.steps += 1;
            }
        }
        ControlFlow::Continue(())
    }

    /// Trigger application: fires `trigger` unless it already fired
    /// (oblivious), its head is already satisfied (restricted) or the
    /// termination policy forbids it. `Break` means the policy stopped the
    /// whole chase. The policy is consulted here and in
    /// [`Saturation::apply_rows`] only.
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

    const TC: &str = "t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).";

    fn chain(edges: usize) -> String {
        (0..edges)
            .map(|i| format!("edge(n{i}, n{}).\n", i + 1))
            .collect()
    }

    /// Runs `rules` restricted under `policy` twice: as configured, where a
    /// full single-atom head takes the packed head action, and with
    /// provenance on, where every trigger goes through `apply`. The two must
    /// be the same chase; the packed run is returned.
    fn assert_head_actions_agree(
        rules: &str,
        facts: &str,
        policy: TerminationPolicy,
    ) -> ChaseResult {
        let packed = run_chase(rules, facts, ChaseConfig::restricted(policy));
        let traced = run_chase(
            rules,
            facts,
            ChaseConfig {
                record_provenance: true,
                ..ChaseConfig::restricted(policy)
            },
        );
        let counters = |r: &ChaseResult| {
            let s = r.stats;
            (
                s.steps,
                s.nulls_created,
                s.derived_atoms,
                s.join_probes,
                s.rounds,
            )
        };
        assert_eq!(counters(&packed), counters(&traced), "{rules}");
        assert_eq!(packed.completed, traced.completed, "{rules}");
        if packed.completed {
            assert_eq!(
                packed.stats.triggers_examined, traced.stats.triggers_examined,
                "{rules}"
            );
        }
        assert_eq!(
            packed.instance.row_layout(),
            traced.instance.row_layout(),
            "{rules}"
        );
        packed
    }

    fn rows_of(result: &ChaseResult, predicate: &str) -> Vec<Atom> {
        result
            .instance
            .atoms_with_predicate(Predicate::new(predicate))
            .collect()
    }

    #[test]
    fn step_budget_stops_a_full_head_round_mid_batch() {
        // Round 1 derives the 20 one-hop rows, round 2 the 19 two-hop rows;
        // a budget of 30 stops the chase after 10 of the latter.
        let result = assert_head_actions_agree(TC, &chain(20), TerminationPolicy::MaxSteps(30));
        assert_eq!(result.stats.steps, 30);
        assert!(!result.completed);
        let hop = |i: usize, d: usize| Atom::fact("t", &[&format!("n{i}"), &format!("n{}", i + d)]);
        let expected: Vec<Atom> = (0..20)
            .map(|i| hop(i, 1))
            .chain((0..10).map(|i| hop(i, 2)))
            .collect();
        assert_eq!(rows_of(&result, "t"), expected);
    }

    #[test]
    fn null_budget_stops_at_the_first_new_full_head_row() {
        // The existential rule spends the whole budget in round 1; the next
        // new row of the full-head rule must then stop the chase.
        let rules = format!("r(X, Z) :- p(X).\n{TC}");
        let facts = format!("p(a). p(b).\n{}", chain(3));
        let result = assert_head_actions_agree(&rules, &facts, TerminationPolicy::MaxNulls(2));
        assert_eq!(result.stats.nulls_created, 2);
        assert_eq!(result.stats.steps, 2);
        assert!(!result.completed);
        assert!(rows_of(&result, "t").is_empty());
        // A full-head rule whose rows all exist takes no step, so it does
        // not run into the spent budget.
        let result = assert_head_actions_agree(
            "r(X, Z) :- p(X).\n t(X, Y) :- edge(X, Y).",
            "p(a). edge(a, b). t(a, b).",
            TerminationPolicy::MaxNulls(1),
        );
        assert_eq!((result.stats.steps, result.stats.nulls_created), (1, 1));
        assert!(result.completed);
    }

    #[test]
    fn full_head_rows_land_before_later_tasks_of_the_round() {
        // Both rules fire in round 1. The full-head task comes first, so
        // q(a, b) is present when the existential rule checks q(a, _), and
        // only q(c, _) needs a null, inserted after q(a, b).
        let result = assert_head_actions_agree(
            "q(X, Y) :- e(X, Y).\n q(X, Z) :- p(X).",
            "e(a, b). p(a). p(c).",
            TerminationPolicy::Unbounded,
        );
        assert_eq!((result.stats.steps, result.stats.nulls_created), (2, 1));
        assert_eq!(rows_of(&result, "q")[0], Atom::fact("q", &["a", "b"]));
    }

    #[test]
    fn zero_ary_full_head_fires_once() {
        let result = assert_head_actions_agree(
            "p() :- edge(X, Y).",
            &chain(3),
            TerminationPolicy::Unbounded,
        );
        assert!(result.completed);
        assert_eq!((result.stats.steps, result.stats.derived_atoms), (1, 1));
        assert_eq!(result.stats.triggers_examined, 3);
        assert!(result.instance.contains(&Atom::new("p", Vec::new())));
    }

    #[test]
    fn multi_atom_full_head_is_satisfied_only_by_all_its_atoms() {
        // p(x1)'s head is half present, so it fires and adds b(x1) only.
        let result = assert_head_actions_agree(
            "a(X), b(X) :- p(X).",
            "p(x1). p(x2). a(x1).",
            TerminationPolicy::Unbounded,
        );
        assert!(result.completed);
        assert_eq!((result.stats.steps, result.stats.derived_atoms), (2, 3));
        // Both heads present: nothing fires.
        let result = assert_head_actions_agree(
            "a(X), b(X) :- p(X).",
            "p(x1). a(x1). b(x1).",
            TerminationPolicy::Unbounded,
        );
        assert_eq!(result.stats.steps, 0);
    }

    #[test]
    fn oblivious_and_recorded_chases_give_the_same_answers() {
        let rules = format!("{TC}\n r(X, W) :- t(X, Y).\n s(X) :- r(X, W).");
        let facts = format!("{}edge(n5, n2).", chain(6));
        let policy = TerminationPolicy::Unbounded;
        let restricted = assert_head_actions_agree(&rules, &facts, policy);
        let oblivious = run_chase(&rules, &facts, ChaseConfig::oblivious(policy));
        assert!(restricted.completed && oblivious.completed);
        for query in ["?(X, Y) :- t(X, Y).", "?(X) :- s(X).", "? :- r(X, W)."] {
            let query = parse_query(query).unwrap();
            assert_eq!(
                oblivious.instance_answers(&query),
                restricted.instance_answers(&query),
                "{query}"
            );
        }
        // The oblivious chase fires every t trigger, satisfied or not.
        assert!(oblivious.stats.steps > restricted.stats.steps);
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
