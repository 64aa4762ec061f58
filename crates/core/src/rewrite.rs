//! Rewriting (WARD ∩ PWL, CQ) queries into piece-wise linear Datalog
//! (the constructive direction of Theorem 6.3 / Lemma 6.4).
//!
//! The paper converts every *linear proof tree* of a query `q` w.r.t. a
//! piece-wise linear warded program `Σ` into piece-wise linear Datalog rules:
//! every node of the tree becomes a fresh predicate `C[p]` standing for the
//! (canonically renamed) CQ labelling that node, with a rule deriving the
//! parent from its children; leaves become rules with database atoms in their
//! bodies. Since the canonical CQ labels are bounded by the node-width
//! polynomial, only finitely many predicates `C[p]` arise and the
//! construction terminates.
//!
//! This module runs the same state exploration as the linear proof search —
//! but *without a database*, so the result is data-independent:
//!
//! * **frozen variables** stand for the output variables of the query and for
//!   variables that later steps must treat as constants (the paper's
//!   specialization); they are represented by reserved constants `"$fN"` so
//!   that the resolution machinery treats them exactly as the IDO condition
//!   demands, and they are canonically renumbered per state so that the state
//!   space stays finite;
//! * a **resolution edge** `p →σ p'` becomes the rule `C[p](f̄_p) ← C[p'](f̄_{p'})`;
//! * a **database-split edge** (the data-independent counterpart of the
//!   match-and-drop step) peels the extensional atoms off a state, freezing
//!   the variables they share with the rest, and becomes the rule
//!   `C[p](f̄_p) ← edb-atoms, C[rest](f̄_rest)`;
//! * every state additionally gets the **terminal rule**
//!   `C[p](f̄_p) ← atoms(p)`, capturing proof branches that finish by matching
//!   the whole remaining CQ against the database.
//!
//! Every produced rule has at most one `C[·]` atom in its body, so the result
//! is intensionally linear — in particular piece-wise linear — Datalog.

use crate::bounds::node_width_bound_ward_pwl;
use crate::resolution::{chunk_resolvents, CqState};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use vadalog_model::{
    Atom, ConjunctiveQuery, ModelError, Predicate, Program, Substitution, Symbol, Term, Tgd,
    Variable,
};

/// Prefix of the reserved constants representing frozen (output) variables.
const FROZEN_PREFIX: &str = "$f";

/// Options for the rewriting.
#[derive(Debug, Clone, Copy)]
pub struct RewriteOptions {
    /// Override of the node-width bound.
    pub node_width: Option<usize>,
    /// Cap on the number of canonical states explored. If the cap is reached
    /// the rewriting fails (returns `None`) rather than produce an incomplete
    /// program.
    pub max_states: usize,
}

impl Default for RewriteOptions {
    fn default() -> Self {
        RewriteOptions {
            node_width: None,
            max_states: 100_000,
        }
    }
}

/// The result of a successful rewriting: a piece-wise linear Datalog program
/// plus the query to evaluate over it.
#[derive(Debug, Clone)]
pub struct RewrittenQuery {
    /// The generated Datalog program. Atoms over the original schema in rule
    /// bodies refer to database facts (the proof-tree leaves).
    pub program: Program,
    /// The query over the generated program whose answers equal the certain
    /// answers of the original query.
    pub query: ConjunctiveQuery,
    /// Number of canonical CQ states (generated predicates).
    pub state_count: usize,
}

/// Rewrites a (single-head, piece-wise linear, warded) program and query into
/// an equivalent piece-wise linear Datalog query. Returns `Ok(None)` when the
/// state cap is exceeded. The query must not contain constants.
pub fn rewrite_to_pwl_datalog(
    program: &Program,
    query: &ConjunctiveQuery,
    options: RewriteOptions,
) -> Result<Option<RewrittenQuery>, ModelError> {
    if query
        .atoms
        .iter()
        .any(|a| a.terms.iter().any(Term::is_const))
    {
        return Err(ModelError::InvalidQuery(
            "the Datalog rewriting requires a constant-free query (constants can be \
             encoded with a fresh unary database predicate)"
                .into(),
        ));
    }
    let bound = options
        .node_width
        .unwrap_or_else(|| node_width_bound_ward_pwl(query, program))
        .max(query.size());
    let edb: BTreeSet<Predicate> = program.extensional_predicates();

    // Freeze the output variables of the query.
    let mut freeze = Substitution::new();
    for (i, v) in query.output.iter().enumerate() {
        freeze.bind_var(*v, frozen_const(i));
    }
    let (initial, initial_map) = canonical_rewrite_state(freeze.apply_atoms(&query.atoms));

    let mut registry = StateRegistry::default();
    let mut rules: Vec<Tgd> = Vec::new();
    let mut queue: VecDeque<CqState> = VecDeque::new();
    registry.predicate_for(&initial);
    queue.push_back(initial.clone());

    while let Some(state) = queue.pop_front() {
        if registry.len() > options.max_states {
            return Ok(None);
        }
        let head = thaw_atom(&head_atom_for(&registry, &state));

        // Terminal rule: the whole remaining CQ matches the database.
        if !state.atoms().is_empty() {
            rules.push(make_rule(head.clone(), thaw_atoms(state.atoms()), None)?);
        }

        // Database-split: peel the extensional atoms off, freezing shared
        // variables, and keep resolving the intensional remainder.
        let (edb_atoms, idb_atoms): (Vec<Atom>, Vec<Atom>) = state
            .atoms()
            .iter()
            .cloned()
            .partition(|a| edb.contains(&a.predicate));
        if !edb_atoms.is_empty() && !idb_atoms.is_empty() {
            let rest_vars: BTreeSet<Variable> =
                idb_atoms.iter().flat_map(|a| a.variables()).collect();
            let shared: Vec<Variable> = edb_atoms
                .iter()
                .flat_map(|a| a.variables())
                .filter(|v| rest_vars.contains(v))
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            let first_frozen = max_frozen_index(state.atoms()).map_or(0, |i| i + 1);
            let mut freeze_shared = Substitution::new();
            for (offset, v) in shared.iter().enumerate() {
                freeze_shared.bind_var(*v, frozen_const(first_frozen + offset));
            }
            let (child, child_map) = canonical_rewrite_state(freeze_shared.apply_atoms(&idb_atoms));
            let known = registry.contains(&child);
            registry.predicate_for(&child);
            if !known {
                queue.push_back(child.clone());
            }
            let body_edb = thaw_atoms(&freeze_shared.apply_atoms(&edb_atoms));
            let body_child = child_body_atom(&registry, &child, &child_map);
            rules.push(make_rule(head.clone(), body_edb, Some(body_child))?);
        }

        // Resolution edges.
        for resolvent in chunk_resolvents(&state, program) {
            if resolvent.size() > bound {
                continue;
            }
            let (child, child_map) = canonical_rewrite_state(resolvent.atoms().to_vec());
            let known = registry.contains(&child);
            registry.predicate_for(&child);
            if !known {
                queue.push_back(child.clone());
            }
            let body_child = child_body_atom(&registry, &child, &child_map);
            rules.push(make_rule(head.clone(), Vec::new(), Some(body_child))?);
        }
    }

    let mut out = Program::new();
    for rule in rules {
        out.add(rule)?;
    }

    // The final query: C[q0](…) with the output variables placed at the
    // positions their frozen constants occupy in the initial state.
    let goal_pred_name = registry
        .name_of_state(&initial)
        .expect("initial state registered");
    let order = frozen_order(&initial);
    let inverse: BTreeMap<Symbol, Symbol> = initial_map.iter().map(|(k, v)| (*v, *k)).collect();
    let out_vars: Vec<Variable> = (0..query.output.len())
        .map(|i| Variable::new(&format!("OUT{i}")))
        .collect();
    let goal_terms: Vec<Term> = order
        .iter()
        .map(|canonical| {
            let original = inverse.get(canonical).copied().unwrap_or(*canonical);
            let idx = frozen_index(original).unwrap_or(usize::MAX);
            out_vars
                .get(idx)
                .map(|v| Term::Var(*v))
                .unwrap_or_else(|| Term::variable(&format!("EXTRA{idx}")))
        })
        .collect();
    let final_query = ConjunctiveQuery::new_unchecked(
        out_vars,
        vec![Atom::new(goal_pred_name.as_str(), goal_terms)],
    );

    Ok(Some(RewrittenQuery {
        program: out,
        query: final_query,
        state_count: registry.len(),
    }))
}

/// Registry assigning a fresh predicate name to every canonical state.
#[derive(Default)]
struct StateRegistry {
    names: HashMap<CqState, String>,
}

impl StateRegistry {
    fn contains(&self, state: &CqState) -> bool {
        self.names.contains_key(state)
    }

    fn predicate_for(&mut self, state: &CqState) -> Predicate {
        let next = self.names.len();
        let name = self
            .names
            .entry(state.clone())
            .or_insert_with(|| format!("cq_{next}"))
            .clone();
        Predicate::new(&name)
    }

    fn name_of_state(&self, state: &CqState) -> Option<String> {
        self.names.get(state).cloned()
    }

    fn len(&self) -> usize {
        self.names.len()
    }
}

/// Canonicalises a state for the rewriting: variables are renamed by
/// [`CqState::new`] and frozen constants are renumbered in order of first
/// occurrence. Returns the canonical state together with the mapping from the
/// incoming frozen names to the canonical ones.
fn canonical_rewrite_state(atoms: Vec<Atom>) -> (CqState, BTreeMap<Symbol, Symbol>) {
    let sorted = CqState::new(atoms);
    let mut map: BTreeMap<Symbol, Symbol> = BTreeMap::new();
    let mut counter = 0usize;
    for atom in sorted.atoms() {
        for t in &atom.terms {
            if let Some(c) = t.as_const() {
                if frozen_index(c).is_some() && !map.contains_key(&c) {
                    map.insert(c, Symbol::new(&format!("{FROZEN_PREFIX}{counter}")));
                    counter += 1;
                }
            }
        }
    }
    let renamed: Vec<Atom> = sorted
        .atoms()
        .iter()
        .map(|a| Atom {
            predicate: a.predicate,
            terms: a
                .terms
                .iter()
                .map(|t| match t.as_const().and_then(|c| map.get(&c)) {
                    Some(new) => Term::Const(*new),
                    None => *t,
                })
                .collect(),
        })
        .collect();
    (CqState::new(renamed), map)
}

/// The body atom referring to a child state, with the child's canonical frozen
/// constants translated back to the parent's `F<n>` variables via `map`
/// (which maps parent-side frozen names to the child's canonical ones).
fn child_body_atom(
    registry: &StateRegistry,
    child: &CqState,
    map: &BTreeMap<Symbol, Symbol>,
) -> Atom {
    let inverse: BTreeMap<Symbol, Symbol> = map.iter().map(|(k, v)| (*v, *k)).collect();
    let name = registry
        .name_of_state(child)
        .expect("child state registered before emitting a rule");
    let terms = frozen_order(child)
        .into_iter()
        .map(|canonical| {
            let parent_side = inverse.get(&canonical).copied().unwrap_or(canonical);
            Term::variable(&format!(
                "F{}",
                frozen_index(parent_side).unwrap_or(usize::MAX)
            ))
        })
        .collect();
    Atom::new(name.as_str(), terms)
}

fn frozen_const(index: usize) -> Term {
    Term::constant(&format!("{FROZEN_PREFIX}{index}"))
}

fn frozen_index(sym: Symbol) -> Option<usize> {
    sym.as_str()
        .strip_prefix(FROZEN_PREFIX)
        .and_then(|s| s.parse().ok())
}

fn is_frozen(term: &Term) -> bool {
    matches!(term, Term::Const(c) if frozen_index(*c).is_some())
}

fn max_frozen_index(atoms: &[Atom]) -> Option<usize> {
    atoms
        .iter()
        .flat_map(|a| a.terms.iter())
        .filter_map(|t| t.as_const().and_then(frozen_index))
        .max()
}

/// The frozen constants of a state, sorted by index — this fixes the argument
/// order of the state's predicate.
fn frozen_order(state: &CqState) -> Vec<Symbol> {
    let mut set: BTreeSet<Symbol> = BTreeSet::new();
    for atom in state.atoms() {
        for t in &atom.terms {
            if is_frozen(t) {
                set.insert(t.as_const().unwrap());
            }
        }
    }
    let mut v: Vec<Symbol> = set.into_iter().collect();
    v.sort_by_key(|s| frozen_index(*s).unwrap_or(usize::MAX));
    v
}

/// The head atom `C[p](f̄_p)` of a state, with frozen constants as arguments
/// (callers thaw them into variables when emitting rules).
fn head_atom_for(registry: &StateRegistry, state: &CqState) -> Atom {
    let name = registry
        .name_of_state(state)
        .expect("state must be registered before a head atom is built");
    Atom::new(
        name.as_str(),
        frozen_order(state).into_iter().map(Term::Const).collect(),
    )
}

/// Replaces every frozen constant `$fN` by the variable `FN` (so that the
/// emitted rules are legal, constant-free TGDs).
fn thaw_term(t: &Term) -> Term {
    match t {
        Term::Const(c) => match frozen_index(*c) {
            Some(i) => Term::variable(&format!("F{i}")),
            None => *t,
        },
        other => *other,
    }
}

fn thaw_atom(a: &Atom) -> Atom {
    Atom {
        predicate: a.predicate,
        terms: a.terms.iter().map(thaw_term).collect(),
    }
}

fn thaw_atoms(atoms: &[Atom]) -> Vec<Atom> {
    atoms.iter().map(thaw_atom).collect()
}

/// Builds the Datalog rule `head ← edb_body (+ recursive_atom)`.
fn make_rule(
    head: Atom,
    edb_body: Vec<Atom>,
    recursive_atom: Option<Atom>,
) -> Result<Tgd, ModelError> {
    let mut body = edb_body;
    if let Some(r) = recursive_atom {
        body.push(r);
    }
    Tgd::new(body, vec![head])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use vadalog_analysis::normalize::normalize_single_head;
    use vadalog_analysis::pwl::is_intensionally_linear;
    use vadalog_datalog::DatalogEngine;
    use vadalog_model::parser::{parse, parse_query, parse_rules};

    fn rewrite(rules: &str, query: &str) -> RewrittenQuery {
        let program = normalize_single_head(&parse_rules(rules).unwrap())
            .unwrap()
            .program;
        let q = parse_query(query).unwrap();
        rewrite_to_pwl_datalog(&program, &q, RewriteOptions::default())
            .unwrap()
            .expect("state cap not hit")
    }

    #[test]
    fn transitive_closure_rewriting_matches_direct_evaluation() {
        let rules = "t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).";
        let rewritten = rewrite(rules, "?(A, B) :- t(A, B).");
        assert!(is_intensionally_linear(&rewritten.program));
        let db = parse("edge(a, b). edge(b, c). edge(c, d).")
            .unwrap()
            .database;
        let direct = DatalogEngine::new(parse_rules(rules).unwrap())
            .unwrap()
            .answers(&db, &parse_query("?(A, B) :- t(A, B).").unwrap());
        let via_rewriting = DatalogEngine::new(rewritten.program.clone())
            .unwrap()
            .answers(&db, &rewritten.query);
        assert_eq!(direct, via_rewriting);
        assert_eq!(via_rewriting.len(), 6);
    }

    #[test]
    fn existential_programs_rewrite_to_datalog() {
        // P(x) → ∃z R(x,z); R(x,y) → P(y); query: is there an R-successor of
        // an R-successor of A? Every constant with a P fact qualifies.
        let rules = "r(X, Z) :- p(X).\n p(Y) :- r(X, Y).";
        let rewritten = rewrite(rules, "?(A) :- r(A, Y), r(Y, W).");
        assert!(rewritten.program.is_datalog());
        assert!(is_intensionally_linear(&rewritten.program));
        let db = parse("p(a). p(b).").unwrap().database;
        let answers = DatalogEngine::new(rewritten.program.clone())
            .unwrap()
            .answers(&db, &rewritten.query);
        let expected: BTreeSet<Vec<Symbol>> = [vec![Symbol::new("a")], vec![Symbol::new("b")]]
            .into_iter()
            .collect();
        assert_eq!(answers, expected);
    }

    #[test]
    fn boolean_queries_rewrite_to_zero_ary_goal() {
        let rules = "r(X, Z) :- p(X).";
        let rewritten = rewrite(rules, "? :- r(X, Z).");
        let db = parse("p(a).").unwrap().database;
        let result = DatalogEngine::new(rewritten.program.clone())
            .unwrap()
            .evaluate(&db);
        assert!(result.holds(&rewritten.query));
        let empty_db = parse("q(a).").unwrap().database;
        let empty = DatalogEngine::new(rewritten.program.clone())
            .unwrap()
            .evaluate(&empty_db);
        assert!(!empty.holds(&rewritten.query));
    }

    #[test]
    fn rewriting_is_database_independent() {
        let rules = "t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).";
        let rewritten = rewrite(rules, "?(A, B) :- t(A, B).");
        for tgd in rewritten.program.tgds() {
            for atom in tgd.body.iter().chain(tgd.head.iter()) {
                assert!(atom.terms.iter().all(|t| t.is_var()));
            }
        }
        assert!(rewritten.state_count >= 2);
    }

    #[test]
    fn subclass_closure_rewriting_agrees_with_direct_evaluation() {
        // The Datalog core of Example 3.3 (the subclass-closure part): the
        // rewriting must agree with direct semi-naive evaluation.
        let rules = "subclassStar(X, Y) :- subclass(X, Y).\n\
             subclassStar(X, Z) :- subclassStar(X, Y), subclass(Y, Z).";
        let rewritten = rewrite(rules, "?(A, B) :- subclassStar(A, B).");
        assert!(is_intensionally_linear(&rewritten.program));
        let db =
            parse("subclass(student, person). subclass(person, agent). subclass(agent, thing).")
                .unwrap()
                .database;
        let direct = DatalogEngine::new(parse_rules(rules).unwrap())
            .unwrap()
            .answers(&db, &parse_query("?(A, B) :- subclassStar(A, B).").unwrap());
        let via_rewriting = DatalogEngine::new(rewritten.program.clone())
            .unwrap()
            .answers(&db, &rewritten.query);
        assert_eq!(direct, via_rewriting);
        assert_eq!(direct.len(), 6);
    }

    #[test]
    fn queries_with_constants_are_rejected() {
        let rules = "t(X, Y) :- edge(X, Y).";
        let program = parse_rules(rules).unwrap();
        let q = parse_query("?(B) :- t(a, B).").unwrap();
        assert!(matches!(
            rewrite_to_pwl_datalog(&program, &q, RewriteOptions::default()),
            Err(ModelError::InvalidQuery(_))
        ));
    }
}
