//! The decision procedures for `CQAns(WARD ∩ PWL)` (Section 4.3,
//! Theorem 4.8) and `CQAns(WARD)` (Theorem 4.9): one proof search.
//!
//! The paper's algorithms are non-deterministic: starting from the Boolean CQ
//! `q(c̄)` they repeatedly guess a resolution, decomposition or specialization
//! step, keeping CQs of at most the node-width bound `f(q, Σ)` atoms, and
//! accept a CQ contained in the database. This module determinises them as
//! one breadth-first search over an AND/OR graph of canonical CQ states:
//!
//! * **resolution** replaces an admissible chunk by the rule's body
//!   ([`crate::resolution`]); a chunk of atoms that a proof maps onto one
//!   fact is a *factoring*, which keeps the proof within the width bound
//!   even for rules without existential variables;
//! * **specialization + decomposition** are combined into a single
//!   *match-and-drop* step — pick one atom, pick a homomorphism of that atom
//!   into the database, drop the atom and propagate the grounding to the rest
//!   of the state;
//! * **acceptance** holds when the whole remaining state maps
//!   homomorphically into the database.
//!
//! Each successor is a one-child alternative of its state. For `WARD`, proof
//! trees also branch: a successor whose atoms fall into several variable-disjoint
//! components (Definition 4.6: only variables tie atoms together) becomes an
//! AND alternative whose children are the components. For `WARD ∩ PWL`
//! nothing decomposes, so the first state popped that embeds into the
//! database proves the query. The class also fixes the bound,
//! `f_{WARD∩PWL}` or `f_{WARD}`.
//!
//! # Match-and-drop is sound and complete
//!
//! *Sound*: if `h` maps an atom `α` of `S` onto a fact of `D` and some `g`
//! maps the successor `h(S ∖ {α})` into `chase(D, Σ)`, then `g ∘ h` maps `S`
//! there. *Complete*: in a proof tree of `S`, an atom that is never resolved
//! is mapped onto a fact by the homomorphism accepting its leaf. Instantiate
//! the tree by that homomorphism on the atom's variables: it remains a proof
//! tree of the same width (the chunk unifier of an instance is an instance of
//! the chunk unifier, and the variables that became constants were shared
//! with the atom, so they could not absorb existential variables before
//! either), in which the atom is ground, in `D`, and needed by no step, so it
//! can be dropped first.
//!
//! # Extensional selection rule
//!
//! Match-and-drop is restricted by a *selection rule*: while the state
//! contains an atom over an **extensional** predicate, exactly one such atom
//! (the most constrained one) is selected, and the only successors explored
//! are its database matches. This is complete, by the classic independence-
//! of-the-selection-rule argument: an extensional atom can never be resolved
//! away (extensional predicates do not occur in rule heads), so every
//! accepting branch eventually drops it, and by the argument above that drop
//! can be made first. Without the selection rule the search explores every
//! *interleaving* of extensional drops, an exponential redundancy that the
//! canonical-state memo cannot collapse (the intermediate states genuinely
//! differ); with it, negative decisions exhaust the reachable space quickly
//! instead of enumerating drop permutations.
//!
//! # Why an empty worklist is a definitive "no"
//!
//! Each canonical state is expanded once, in FIFO order. Read the graph as
//! Horn clauses: a state is proven if it embeds into `D`, or if all children
//! of one of its alternatives are proven. The least fixpoint of these
//! clauses is the set of states with a proof tree within the width bound.
//! Proofs propagate upward as they are found, by the linear-time algorithm
//! for Horn satisfiability: every alternative counts its pending children
//! and proves its parent at zero. So when the worklist is empty the least
//! fixpoint has been reached, and a query outside it has no proof tree of
//! that width: at the full bound `f(q, Σ)`, a definitive rejection by
//! Theorems 4.8 and 4.9. Cycles need no cut and no failure is cached; a
//! state reachable from itself is just not proven unless another
//! alternative proves it. States are canonical and hold at most `f(q, Σ)`
//! atoms over finitely many constants, so the search terminates;
//! `max_states` only bounds its cost.

use crate::bounds::{node_width_bound_ward, node_width_bound_ward_pwl};
use crate::metrics::SpaceMeter;
use crate::resolution::{chunk_resolvents, CqState};
use crate::support::PositionSupport;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::ops::ControlFlow;
use vadalog_model::{
    exists_homomorphism, Atom, ConjunctiveQuery, Database, JoinSpec, Matcher, Predicate, Program,
    Substitution, Variable,
};

/// Options controlling the proof search.
#[derive(Debug, Clone, Copy)]
pub struct SearchOptions {
    /// Override for the node-width bound; `None` uses the bound of the
    /// program class, `f_{WARD∩PWL}(q, Σ)` or `f_{WARD}(q, Σ)`.
    pub node_width: Option<usize>,
    /// Hard cap on explored states, to keep combined-complexity experiments
    /// bounded. When the cap is hit the outcome is [`SearchOutcome::Inconclusive`].
    pub max_states: usize,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            node_width: None,
            max_states: 2_000_000,
        }
    }
}

/// Statistics of a proof search run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchStats {
    /// Number of distinct canonical states visited.
    pub states_visited: usize,
    /// Number of resolution successors generated.
    pub resolution_steps: usize,
    /// Number of match-and-drop successors generated.
    pub drop_steps: usize,
    /// The largest state (in atoms) ever held — the observed node-width.
    pub max_state_size: usize,
    /// The node-width bound that was enforced.
    pub node_width_bound: usize,
    /// Peak working set in atoms: the size of the single state the
    /// non-deterministic algorithm would hold, i.e. the observed node width.
    /// (The deterministic simulation additionally memoises visited states;
    /// that book-keeping is reported separately via `states_visited`.)
    pub peak_live_atoms: usize,
}

/// The outcome of a proof search.
#[derive(Debug, Clone)]
pub enum SearchOutcome {
    /// A proof tree was found: the tuple is a certain answer.
    Accepted {
        /// Search statistics.
        stats: SearchStats,
        /// Depth (number of operations from the root) of the state whose
        /// acceptance completed the proof.
        depth: usize,
    },
    /// The full (bounded) state space was explored without acceptance: the
    /// tuple is not a certain answer (within the node-width bound, which is
    /// sufficient for the program's class).
    Rejected {
        /// Search statistics.
        stats: SearchStats,
    },
    /// The state cap was hit before the search could conclude.
    Inconclusive {
        /// Search statistics.
        stats: SearchStats,
    },
}

impl SearchOutcome {
    /// `true` iff the search accepted.
    pub fn is_accepted(&self) -> bool {
        matches!(self, SearchOutcome::Accepted { .. })
    }

    /// The statistics of the run.
    pub fn stats(&self) -> &SearchStats {
        match self {
            SearchOutcome::Accepted { stats, .. }
            | SearchOutcome::Rejected { stats }
            | SearchOutcome::Inconclusive { stats } => stats,
        }
    }
}

/// Runs the linear proof search for a Boolean query (output variables already
/// instantiated — use [`ConjunctiveQuery::instantiate`]) against a single-head
/// warded, piece-wise linear program and a database.
///
/// When no explicit node-width override is given the search **iteratively
/// deepens the width**: a proof found within a smaller node-width is sound
/// (the bound only restricts which resolvents may be kept), so positive
/// instances are decided at the width their proof actually needs — usually
/// far below the worst-case `f_{WARD∩PWL}(q, Σ)` — while only a rejection at
/// the full bound is treated as definitive.
pub fn linear_proof_search(
    program: &Program,
    database: &Database,
    boolean_query: &ConjunctiveQuery,
    options: SearchOptions,
) -> SearchOutcome {
    proof_search(program, database, boolean_query, options, false)
}

/// The proof search for an arbitrary single-head warded program: as
/// [`linear_proof_search`], but a state made of several variable-disjoint
/// components is proven by proving each component, and the width bound is
/// `f_{WARD}(q, Σ)`.
pub fn warded_proof_search(
    program: &Program,
    database: &Database,
    boolean_query: &ConjunctiveQuery,
    options: SearchOptions,
) -> SearchOutcome {
    proof_search(program, database, boolean_query, options, true)
}

/// Width deepening around [`Search::run`]; `decompose` is set for `WARD`
/// and clear for `WARD ∩ PWL`.
fn proof_search(
    program: &Program,
    database: &Database,
    boolean_query: &ConjunctiveQuery,
    options: SearchOptions,
    decompose: bool,
) -> SearchOutcome {
    let class_bound = if decompose {
        node_width_bound_ward(boolean_query, program)
    } else {
        node_width_bound_ward_pwl(boolean_query, program)
    };
    let full_bound = options
        .node_width
        .unwrap_or(class_bound)
        .max(boolean_query.size());
    // Width-independent machinery, shared by every deepening iteration.
    let edb = program.extensional_predicates();
    let support = PositionSupport::compute(program, database);
    let mut width = match options.node_width {
        Some(_) => full_bound,
        None => boolean_query.size().max(2).min(full_bound),
    };
    loop {
        let search = Search {
            program,
            database,
            edb: &edb,
            support: &support,
            decompose,
            stats: SearchStats {
                node_width_bound: width,
                ..SearchStats::default()
            },
            nodes: Vec::new(),
            index: HashMap::new(),
            worklist: VecDeque::new(),
            alternatives: Vec::new(),
        };
        match search.run(boolean_query, options.max_states) {
            SearchOutcome::Rejected { .. } if width < full_bound => {
                width = (width * 2).min(full_bound);
            }
            outcome => return outcome,
        }
    }
}

/// The goal's index in [`Search::nodes`]: not a state, but the node whose one
/// alternative is the query's state, so that a query that decomposes is
/// handled like any other successor.
const GOAL: usize = 0;

/// A node of the AND/OR graph: a canonical state, or the goal.
#[derive(Default)]
struct Node {
    /// Operations from the query's state when the state was first reached.
    depth: usize,
    proven: bool,
    /// The [`Search::alternatives`] this node is a pending child of.
    watchers: Vec<usize>,
}

/// An alternative of `parent`, proving it when `pending` reaches zero.
struct Alternative {
    parent: usize,
    /// Distinct children not yet proven.
    pending: usize,
}

/// One breadth-first search at a fixed node-width bound.
struct Search<'a> {
    program: &'a Program,
    database: &'a Database,
    edb: &'a BTreeSet<Predicate>,
    support: &'a PositionSupport,
    decompose: bool,
    stats: SearchStats,
    nodes: Vec<Node>,
    index: HashMap<CqState, usize>,
    /// States discovered but not yet expanded, with their node indexes.
    worklist: VecDeque<(CqState, usize)>,
    alternatives: Vec<Alternative>,
}

impl Search<'_> {
    /// Expands states in FIFO order until the goal is proven, the worklist
    /// is empty (the least fixpoint, see the module docs) or `max_states`
    /// states have been visited.
    fn run(mut self, boolean_query: &ConjunctiveQuery, max_states: usize) -> SearchOutcome {
        let mut meter = SpaceMeter::new();
        self.nodes.push(Node::default());
        self.successor(GOAL, CqState::new(boolean_query.atoms.clone()), 0);
        while let Some((state, id)) = self.worklist.pop_front() {
            self.stats.states_visited += 1;
            self.stats.max_state_size = self.stats.max_state_size.max(state.size());
            meter.set_live(state.size());
            self.stats.peak_live_atoms = meter.peak();

            // Acceptance: the whole remaining state embeds into the database.
            if exists_homomorphism(
                state.atoms(),
                self.database.as_instance(),
                &Substitution::new(),
            ) {
                self.prove(id);
            } else if self.stats.states_visited >= max_states {
                return SearchOutcome::Inconclusive { stats: self.stats };
            } else {
                self.expand(&state, id);
            }
            if self.nodes[GOAL].proven {
                return SearchOutcome::Accepted {
                    stats: self.stats,
                    depth: self.nodes[id].depth,
                };
            }
        }
        SearchOutcome::Rejected { stats: self.stats }
    }

    /// Registers the alternatives of a state that does not embed into the
    /// database.
    fn expand(&mut self, state: &CqState, id: usize) {
        let depth = self.nodes[id].depth + 1;
        // Selection rule (see module docs): while an extensional atom is
        // present, its database matches are the only successors explored.
        if let Some(index) = self.select_extensional_atom(state) {
            self.drop_successors(state, index, id, depth);
            return;
        }

        for resolvent in chunk_resolvents(state, self.program) {
            if resolvent.size() > self.stats.node_width_bound {
                continue;
            }
            self.stats.resolution_steps += 1;
            self.successor(id, resolvent, depth);
        }

        // Match-and-drop successors for the remaining (intensional) atoms.
        for index in 0..state.size() {
            self.drop_successors(state, index, id, depth);
        }
    }

    /// Adds every match-and-drop successor of `state.atoms()[index]`: ground
    /// the atom against the database and remove it, propagating the
    /// grounding. The kernel streams each match straight into successor
    /// construction — no substitution vector is materialised.
    fn drop_successors(&mut self, state: &CqState, index: usize, parent: usize, depth: usize) {
        let database = self.database;
        let spec = JoinSpec::compile(std::slice::from_ref(&state.atoms()[index]));
        Matcher::new(&spec).for_each(database.as_instance(), |bindings| {
            self.stats.drop_steps += 1;
            let successor = state.drop_atom(index, &bindings.to_substitution());
            self.successor(parent, successor, depth);
            ControlFlow::Continue(())
        });
    }

    /// Adds the alternative "prove `state`" to `parent`, unless the state is
    /// dead. When decomposing, a state of several components is no node of
    /// its own: its only alternative would be its components, so `parent`
    /// gets that alternative directly. (Components of a live state are live:
    /// deadness is per atom.)
    fn successor(&mut self, parent: usize, state: CqState, depth: usize) {
        if self.has_dead_atom(&state) {
            return;
        }
        if !self.decompose {
            // No alternative needs recording: see `prove`.
            self.intern(state, depth);
            return;
        }
        let mut children: Vec<usize> = match variable_components(state.atoms()) {
            components if components.len() > 1 => components
                .into_iter()
                .map(|atoms| self.intern(CqState::new(atoms), depth))
                .collect(),
            _ => vec![self.intern(state, depth)],
        };
        children.sort_unstable();
        children.dedup();
        children.retain(|&child| !self.nodes[child].proven);
        if children.is_empty() {
            return self.prove(parent);
        }
        self.alternatives.push(Alternative {
            parent,
            pending: children.len(),
        });
        for child in children {
            self.nodes[child].watchers.push(self.alternatives.len() - 1);
        }
    }

    /// A state is dead if it contains an atom that can never be mapped into
    /// the chase: an atom over an *extensional* predicate with no
    /// homomorphism into the database on its own (extensional atoms can never
    /// be resolved away — their predicates never occur in rule heads), or any
    /// atom carrying a constant outside the [`PositionSupport`] of its
    /// position. Pruning such states is sound and keeps negative decisions
    /// cheap.
    fn has_dead_atom(&self, state: &CqState) -> bool {
        state.atoms().iter().any(|atom| {
            !self.support.atom_satisfiable(atom)
                || (self.edb.contains(&atom.predicate)
                    && !exists_homomorphism(
                        std::slice::from_ref(atom),
                        self.database.as_instance(),
                        &Substitution::new(),
                    ))
        })
    }

    /// Picks the extensional atom with the fewest estimated database matches,
    /// if the state contains any extensional atom (the selection rule's
    /// choice).
    fn select_extensional_atom(&self, state: &CqState) -> Option<usize> {
        let instance = self.database.as_instance();
        state
            .atoms()
            .iter()
            .enumerate()
            .filter(|(_, atom)| self.edb.contains(&atom.predicate))
            .min_by_key(|(_, atom)| match instance.relation(atom.predicate) {
                None => 0,
                Some(rel) => atom
                    .terms
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| !t.is_var())
                    .map(|(pos, t)| rel.matching_count(pos, *t))
                    .min()
                    .unwrap_or_else(|| rel.len()),
            })
            .map(|(index, _)| index)
    }

    /// The node index of `state`, adding it to the graph and the worklist
    /// when it is new.
    fn intern(&mut self, state: CqState, depth: usize) -> usize {
        match self.index.entry(state) {
            Entry::Occupied(entry) => *entry.get(),
            Entry::Vacant(entry) => {
                let id = self.nodes.len();
                self.nodes.push(Node {
                    depth,
                    ..Node::default()
                });
                self.worklist.push_back((entry.key().clone(), id));
                entry.insert(id);
                id
            }
        }
    }

    /// Marks `id` proven and propagates the proof to every alternative that
    /// waits for it, transitively. Without decomposition every alternative
    /// has one child and every node was reached from the goal, so any proof
    /// proves the goal at once; skipping the bookkeeping for that case keeps
    /// the linear search as cheap as a plain visited-set BFS.
    fn prove(&mut self, id: usize) {
        if !self.decompose {
            self.nodes[GOAL].proven = true;
            return;
        }
        let mut proven = vec![id];
        while let Some(id) = proven.pop() {
            let node = &mut self.nodes[id];
            if node.proven {
                continue;
            }
            node.proven = true;
            for alternative in std::mem::take(&mut node.watchers) {
                let alternative = &mut self.alternatives[alternative];
                alternative.pending -= 1;
                if alternative.pending == 0 {
                    proven.push(alternative.parent);
                }
            }
        }
    }
}

/// Splits a set of atoms into connected components under the
/// "shares a variable" relation.
fn variable_components(atoms: &[Atom]) -> Vec<Vec<Atom>> {
    let mut components: Vec<(BTreeSet<Variable>, Vec<Atom>)> = Vec::new();
    for atom in atoms {
        // The atom joins, and merges, every component it shares a variable with.
        let mut joined = (BTreeSet::from_iter(atom.variables()), vec![atom.clone()]);
        components.retain_mut(|(variables, atoms)| {
            let disjoint = variables.is_disjoint(&joined.0);
            if !disjoint {
                joined.0.append(variables);
                joined.1.append(atoms);
            }
            disjoint
        });
        components.push(joined);
    }
    components.into_iter().map(|(_, atoms)| atoms).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog_analysis::normalize::normalize_single_head;
    use vadalog_model::parser::{parse, parse_query, parse_rules};
    use vadalog_model::Symbol;

    type SearchFn = fn(&Program, &Database, &ConjunctiveQuery, SearchOptions) -> SearchOutcome;

    const NONLINEAR_TC: &str = "t(X, Y) :- edge(X, Y).\n t(X, Z) :- t(X, Y), t(Y, Z).";

    fn decide_with(
        search: SearchFn,
        rules: &str,
        database: &Database,
        query: &str,
        tuple: &[&str],
    ) -> SearchOutcome {
        let program = normalize_single_head(&parse_rules(rules).unwrap())
            .unwrap()
            .program;
        let q = parse_query(query).unwrap();
        let symbols: Vec<Symbol> = tuple.iter().map(|s| Symbol::new(s)).collect();
        let boolean = q.instantiate(&symbols).expect("arity matches");
        search(&program, database, &boolean, SearchOptions::default())
    }

    fn decide(rules: &str, facts: &str, query: &str, tuple: &[&str]) -> SearchOutcome {
        let database = parse(facts).unwrap().database;
        decide_with(linear_proof_search, rules, &database, query, tuple)
    }

    fn decide_warded(rules: &str, facts: &str, query: &str, tuple: &[&str]) -> SearchOutcome {
        let database = parse(facts).unwrap().database;
        decide_with(warded_proof_search, rules, &database, query, tuple)
    }

    /// The chain `n0 → n1 → … → n_len` of `edge` facts.
    fn chain(len: usize) -> Database {
        let facts: String = (0..len)
            .map(|i| format!("edge(n{i}, n{}). ", i + 1))
            .collect();
        parse(&facts).unwrap().database
    }

    #[test]
    fn reachability_accepts_reachable_pairs() {
        let rules = "t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).";
        let facts = "edge(a, b). edge(b, c). edge(c, d).";
        let query = "?(X, Y) :- t(X, Y).";
        assert!(decide(rules, facts, query, &["a", "d"]).is_accepted());
        assert!(decide(rules, facts, query, &["b", "d"]).is_accepted());
        assert!(decide(rules, facts, query, &["a", "b"]).is_accepted());
    }

    #[test]
    fn reachability_rejects_unreachable_pairs() {
        let rules = "t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).";
        let facts = "edge(a, b). edge(b, c). edge(c, d).";
        let query = "?(X, Y) :- t(X, Y).";
        assert!(!decide(rules, facts, query, &["d", "a"]).is_accepted());
        assert!(!decide(rules, facts, query, &["a", "a"]).is_accepted());
    }

    #[test]
    fn existential_heads_witness_boolean_queries() {
        // P(x) → ∃z R(x,z); query ∃x∃z R(x,z) holds, but asking for a concrete
        // second component fails (it is a null).
        let rules = "r(X, Z) :- p(X).";
        let facts = "p(a).";
        assert!(decide(rules, facts, "? :- r(X, Z).", &[]).is_accepted());
        assert!(!decide(rules, facts, "?(Z) :- r(X, Z).", &["a"]).is_accepted());
    }

    #[test]
    fn nulls_propagate_through_warded_recursion() {
        // The paper's introductory warded pair of TGDs: P(x) → ∃z R(x,z) and
        // R(x,y) → P(y). Every element reachable through R is again a P, so
        // ∃y R(y, w) for some null w derived from the null of a: the Boolean
        // query "is there an R-edge out of an R-successor of a" must hold.
        let rules = "r(X, Z) :- p(X).\n p(Y) :- r(X, Y).";
        let facts = "p(a).";
        assert!(decide(rules, facts, "? :- r(a, Y), r(Y, W).", &[]).is_accepted());
        // But no constant is R-reachable from a.
        assert!(!decide(rules, facts, "?(Y) :- r(a, Y).", &["a"]).is_accepted());
    }

    #[test]
    fn owl_example_certain_answers() {
        let rules = "subclassStar(X, Y) :- subclass(X, Y).\n\
             subclassStar(X, Z) :- subclassStar(X, Y), subclass(Y, Z).\n\
             type(X, Z) :- type(X, Y), subclassStar(Y, Z).\n\
             triple(X, Z, W) :- type(X, Y), restriction(Y, Z).\n\
             triple(Z, W, X) :- triple(X, Y, Z), inverse(Y, W).\n\
             type(X, W) :- triple(X, Y, Z), restriction(W, Y).";
        let facts = "subclass(student, person). subclass(person, agent).\n\
             type(alice, student). type(alice, enrolled).\n\
             restriction(enrolled, hasCourse). inverse(hasCourse, courseOf).";
        let query = "?(X, C) :- type(X, C).";
        assert!(decide(rules, facts, query, &["alice", "agent"]).is_accepted());
        assert!(decide(rules, facts, query, &["alice", "person"]).is_accepted());
        assert!(!decide(rules, facts, query, &["alice", "hasCourse"]).is_accepted());
        // The existential triple exists for alice.
        assert!(decide(rules, facts, "? :- triple(alice, hasCourse, C).", &[]).is_accepted());
    }

    #[test]
    fn observed_node_width_stays_within_the_bound() {
        let rules = "t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).";
        let facts = "edge(a, b). edge(b, c). edge(c, d). edge(d, e).";
        let outcome = decide(rules, facts, "?(X, Y) :- t(X, Y).", &["a", "e"]);
        let stats = outcome.stats();
        assert!(stats.max_state_size <= stats.node_width_bound);
        assert!(outcome.is_accepted());
    }

    #[test]
    fn unsatisfiable_queries_reject_quickly() {
        let rules = "t(X, Y) :- edge(X, Y).";
        let facts = "edge(a, b).";
        let outcome = decide(rules, facts, "? :- t(X, X).", &[]);
        assert!(!outcome.is_accepted());
        assert!(outcome.stats().states_visited < 100);
    }

    #[test]
    fn state_cap_yields_inconclusive() {
        let rules = "t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).";
        let facts = "edge(a, b). edge(b, a).";
        let program = normalize_single_head(&parse_rules(rules).unwrap())
            .unwrap()
            .program;
        let database = parse(facts).unwrap().database;
        // t(a, a) is derivable on the cycle but not immediately acceptable
        // (the database holds no t-facts), so the cap of one state trips
        // before the search can conclude. (An unsupported constant would be
        // pruned before any state is ever visited — see `crate::support`.)
        let q = parse_query("?(X, Y) :- t(X, Y).").unwrap();
        let boolean = q
            .instantiate(&[Symbol::new("a"), Symbol::new("a")])
            .unwrap();
        let outcome = linear_proof_search(
            &program,
            &database,
            &boolean,
            SearchOptions {
                max_states: 1,
                ..SearchOptions::default()
            },
        );
        assert!(matches!(outcome, SearchOutcome::Inconclusive { .. }));
    }

    #[test]
    fn handles_non_pwl_recursion() {
        // Non-linear transitive closure is warded but not PWL: the warded
        // search must still answer correctly.
        let facts = "edge(a, b). edge(b, c). edge(c, d).";
        let query = "?(X, Y) :- t(X, Y).";
        assert!(decide_warded(NONLINEAR_TC, facts, query, &["a", "d"]).is_accepted());
        assert!(!decide_warded(NONLINEAR_TC, facts, query, &["d", "a"]).is_accepted());
    }

    #[test]
    fn decomposition_splits_disconnected_queries() {
        let facts = "edge(a, b). edge(b, c). edge(x, y).";
        // Two independent reachability questions in one Boolean query.
        let outcome = decide_warded(NONLINEAR_TC, facts, "? :- t(a, c), t(x, y).", &[]);
        assert!(outcome.is_accepted());
        let negative = decide_warded(NONLINEAR_TC, facts, "? :- t(a, c), t(y, x).", &[]);
        assert!(!negative.is_accepted());
    }

    #[test]
    fn existentials_are_supported() {
        let rules = "r(X, Z) :- p(X).\n p(Y) :- r(X, Y).";
        let facts = "p(a).";
        assert!(decide_warded(rules, facts, "? :- r(a, Y), r(Y, W).", &[]).is_accepted());
        assert!(!decide_warded(rules, facts, "?(Y) :- r(a, Y).", &["a"]).is_accepted());
    }

    #[test]
    fn same_generation_style_program() {
        // The classic same-generation program evaluated on a small tree.
        let rules = "sg(X, Y) :- flat(X, Y).\n sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).";
        let facts = "up(a, p). up(b, p). flat(p, p). down(p, a). down(p, b).";
        let query = "?(X, Y) :- sg(X, Y).";
        assert!(decide_warded(rules, facts, query, &["a", "b"]).is_accepted());
        assert!(decide_warded(rules, facts, query, &["a", "a"]).is_accepted());
        assert!(!decide_warded(rules, facts, query, &["p", "a"]).is_accepted());
    }

    #[test]
    fn variable_components_group_by_shared_variables() {
        let atoms = vec![
            Atom::new(
                "r",
                vec![
                    vadalog_model::Term::variable("X"),
                    vadalog_model::Term::variable("Y"),
                ],
            ),
            Atom::new("s", vec![vadalog_model::Term::variable("Y")]),
            Atom::new("t", vec![vadalog_model::Term::variable("Z")]),
            Atom::new("u", vec![vadalog_model::Term::constant("c")]),
        ];
        let components = variable_components(&atoms);
        assert_eq!(components.len(), 3);
        let sizes: Vec<usize> = {
            let mut s: Vec<usize> = components.iter().map(|c| c.len()).collect();
            s.sort();
            s
        };
        assert_eq!(sizes, vec![1, 1, 2]);
    }

    #[test]
    fn atoms_that_meet_in_one_fact_are_resolved_within_f_ward() {
        // All three h atoms map onto h(c, d). Resolved one at a time they
        // leave 5 and then 7 atoms, past f_WARD = 2 · 3 = 6 before any atom
        // matches the database; resolved as one chunk they leave 3. The
        // closure makes the program non-PWL.
        let rules = "h(X, Y) :- a(X, W), b(W, Y), c(W).\n\
                     a(X, W) :- e(X, W), e(X, X), e(W, W).\n\
                     b(W, Y) :- e(W, Y), e(Y, Y), e(W, W).\n\
                     c(W) :- e(W, U), e(U, U), e(W, W).\n\
                     t(X, Z) :- t(X, Y), t(Y, Z).";
        let outcome = decide_warded(
            rules,
            "e(c, d). e(c, c). e(d, d).",
            "? :- h(Z, V1), h(Z, V2), h(Z, V3).",
            &[],
        );
        assert!(outcome.is_accepted());
        assert!(outcome.stats().node_width_bound <= 6);
    }

    #[test]
    fn warded_negatives_end_in_the_least_fixpoint_not_the_cap() {
        // n2 has a predecessor, so no dead atom cuts the search short: the
        // negative is only decided by exhausting the reachable states
        // (17 478 of them).
        let outcome = decide_with(
            warded_proof_search,
            NONLINEAR_TC,
            &chain(12),
            "? :- t(n5, n2).",
            &[],
        );
        assert!(matches!(outcome, SearchOutcome::Rejected { .. }));
        assert!(outcome.stats().states_visited < 18_000);
    }

    #[test]
    fn warded_search_runs_in_constant_stack_on_long_chains() {
        let decided = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let outcome = decide_with(
                    warded_proof_search,
                    NONLINEAR_TC,
                    &chain(100),
                    "? :- t(n3, n60).",
                    &[],
                );
                outcome.is_accepted()
            })
            .unwrap()
            .join()
            .expect("the search does not overflow a 256 KiB stack");
        assert!(decided);
    }
}
