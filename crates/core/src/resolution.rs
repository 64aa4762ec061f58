//! Chunk-based resolution (Definition 4.3) and canonical CQ states.
//!
//! The decision procedures of Section 4.3 manipulate Boolean conjunctive
//! queries whose output variables have already been instantiated with
//! constants. A [`CqState`] is such a query in *canonical form*: variables
//! are renamed `V0, V1, …` in order of first occurrence and atoms are sorted,
//! so that two states that differ only in variable names (which resolution
//! produces all the time) are recognised as equal and the search space stays
//! finite.
//!
//! # Chunks
//!
//! [`chunk_resolvents`] resolves a state `S` against every single-head TGD
//! `σ`. A chunk `S₁ ⊆ S` is unified with `σ`'s head by a most general
//! unifier γ and replaced by `γ(body(σ))`. An existential variable `x` of `σ`
//! stands for a fresh null, so the step is sound only if `x`'s *class* (the
//! terms γ sends to `γ(x)`) holds no constant or null, no frontier variable
//! of `σ` and no other existential of `σ`, and if every atom of `S` holding a
//! variable of the class is in `S₁`: outside `σ`'s head nothing knows the
//! null.
//!
//! The least admissible chunk around an atom is its *piece*, the
//! single-piece unifier of existential-rule rewriting (König, Leclère,
//! Mugnier, Thomazo, SWJ 2015); for a rule without existential variables it
//! is the atom alone. A chunk of several pieces is a *factoring*: it resolves
//! atoms that a proof maps onto one fact with one copy of the body. Pieces
//! alone would be complete without a width bound, but not within the bounds
//! of [`crate::bounds`], so every admissible chunk is resolved, as
//! Definition 4.3 allows. With `h(X, Y) :- a(X, W), b(W, Y), c(W).` and
//! rules of three extensional body atoms for `a`, `b` and `c`, the state
//! `h(Z, V1), h(Z, V2), h(Z, V3)` whose atoms all map onto one fact
//! `h(c, d)` needs the factoring of all three: resolved one piece at a time
//! it holds 5 and then 7 atoms, past `f_{WARD}` = 6, before any atom can
//! match the database.
//!
//! The chunks are enumerated depth first over the sets of head-matching
//! atoms that unify with the head together, each set grown by later atoms
//! only. Every admissible chunk is such a set, and no superset of a set that
//! does not unify does, so no chunk is missed and a set that does not unify
//! is never grown: the enumeration is exponential only in atoms that can all
//! be one fact, which the width bound keeps few.

use std::collections::{BTreeMap, BTreeSet};
use vadalog_model::{unify_all_with, Atom, Program, Substitution, Term, Tgd, Variable};

/// A Boolean conjunctive query in canonical form.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CqState {
    atoms: Vec<Atom>,
}

impl CqState {
    /// Creates a state from atoms, canonicalising variable names and atom
    /// order.
    pub fn new(atoms: Vec<Atom>) -> CqState {
        CqState {
            atoms: canonicalize(atoms),
        }
    }

    /// The atoms of the state.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Number of atoms (the node-width contribution of this state).
    pub fn size(&self) -> usize {
        self.atoms.len()
    }

    /// `true` iff the state has no atoms left (a fully resolved proof branch).
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// The distinct variables of the state.
    pub fn variables(&self) -> BTreeSet<Variable> {
        self.atoms.iter().flat_map(|a| a.variables()).collect()
    }

    /// Removes the atom at `index` and applies `subst` to the remainder,
    /// returning the canonicalised successor state. This is the
    /// "match-and-drop" step: the dropped atom has been matched against the
    /// database and the grounding it induced is propagated to the rest.
    pub fn drop_atom(&self, index: usize, subst: &Substitution) -> CqState {
        let remaining: Vec<Atom> = self
            .atoms
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != index)
            .map(|(_, a)| subst.apply_atom(a))
            .collect();
        CqState::new(remaining)
    }
}

impl std::fmt::Display for CqState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.atoms.is_empty() {
            return write!(f, "⊤");
        }
        let parts: Vec<String> = self.atoms.iter().map(|a| a.to_string()).collect();
        write!(f, "{}", parts.join(", "))
    }
}

/// Canonicalises a list of atoms: variables are renamed in order of first
/// occurrence after a name-independent sort, and the atoms are then sorted.
fn canonicalize(mut atoms: Vec<Atom>) -> Vec<Atom> {
    // Sort by a key that ignores variable identity but keeps the pattern of
    // repeated variables within each atom.
    atoms.sort_by_key(shape_key);
    // Rename variables in order of first occurrence.
    let mut mapping: BTreeMap<Variable, Variable> = BTreeMap::new();
    let mut counter = 0usize;
    let mut renamed: Vec<Atom> = atoms
        .iter()
        .map(|a| {
            let terms = a
                .terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) => {
                        let fresh = *mapping.entry(*v).or_insert_with(|| {
                            let name = format!("V{counter}");
                            counter += 1;
                            Variable::new(&name)
                        });
                        Term::Var(fresh)
                    }
                    other => *other,
                })
                .collect();
            Atom {
                predicate: a.predicate,
                terms,
            }
        })
        .collect();
    renamed.sort();
    renamed.dedup();
    renamed
}

/// A name-independent sort key: predicate, arity, and for each argument a tag
/// for constants (with the constant), nulls, or the index of the first
/// occurrence of the variable within the atom.
fn shape_key(atom: &Atom) -> (String, usize, Vec<(u8, String)>) {
    let mut first_seen: BTreeMap<Variable, usize> = BTreeMap::new();
    let args = atom
        .terms
        .iter()
        .map(|t| match t {
            Term::Const(c) => (0u8, c.as_str().to_string()),
            Term::Null(n) => (1u8, n.0.to_string()),
            Term::Var(v) => {
                let next = first_seen.len();
                let idx = *first_seen.entry(*v).or_insert(next);
                (2u8, idx.to_string())
            }
        })
        .collect();
    (atom.predicate.name().to_string(), atom.arity(), args)
}

/// The admissible chunks of `state` for the single-head TGD `tgd`, each as
/// the sorted indexes of its atoms with its unifier γ (see the module docs).
/// The TGD must already have variables disjoint from the state (use
/// [`Tgd::rename_apart`]).
fn chunks(state: &CqState, tgd: &Tgd) -> Vec<(Vec<usize>, Substitution)> {
    assert_eq!(
        tgd.head.len(),
        1,
        "chunk-based resolution requires single-head TGDs (normalise first)"
    );
    let head = &tgd.head[0];
    let atoms = state.atoms();
    let candidates: Vec<usize> = (0..atoms.len())
        .filter(|&i| atoms[i].predicate == head.predicate && atoms[i].arity() == head.arity())
        .collect();
    if candidates.is_empty() {
        return Vec::new();
    }
    let existentials = tgd.existential_variables();

    // Depth first over the sets of candidates that unify with the head,
    // each grown by later candidates only: no superset of a set that does
    // not unify does.
    let mut out: Vec<(Vec<usize>, Substitution)> = Vec::new();
    let mut stack: Vec<Vec<usize>> = candidates.iter().map(|&i| vec![i]).collect();
    while let Some(chunk) = stack.pop() {
        let chunk_atoms: Vec<Atom> = chunk.iter().map(|&i| atoms[i].clone()).collect();
        let Some(gamma) = unify_all_with(&chunk_atoms, head) else {
            continue;
        };
        let last = chunk[chunk.len() - 1];
        for &next in candidates.iter().filter(|&&i| i > last) {
            let mut grown = chunk.clone();
            grown.push(next);
            stack.push(grown);
        }
        // An existential stands for a fresh null: its class may hold no
        // constant, null, frontier variable or second existential, and no
        // atom outside the chunk may hold a variable of it.
        let image = |v: &Variable| gamma.apply_term(&Term::Var(*v));
        let images: BTreeSet<Term> = existentials.iter().map(image).collect();
        let admissible = images.is_empty()
            || images.len() == existentials.len()
                && images.iter().all(Term::is_var)
                && tgd.frontier().iter().all(|f| !images.contains(&image(f)))
                && (0..atoms.len())
                    .filter(|i| chunk.binary_search(i).is_err())
                    .all(|i| {
                        atoms[i]
                            .variables()
                            .iter()
                            .all(|v| !images.contains(&image(v)))
                    });
        if admissible {
            out.push((chunk, gamma));
        }
    }
    // In the order a binary counter over the candidates lists them: the
    // search's visit order, and so its state counts, depend on it.
    out.sort_by(|(a, _), (b, _)| a.iter().rev().cmp(b.iter().rev()));
    out
}

/// Computes all σ-resolvents of a state with respect to every TGD of the
/// (single-head) program: one per admissible chunk and TGD.
pub fn chunk_resolvents(state: &CqState, program: &Program) -> Vec<CqState> {
    let mut out = Vec::new();
    for (tgd_index, tgd) in program.iter() {
        // Rename the TGD apart from the canonical state variables (which are
        // all named `V<n>`): the suffix guarantees disjointness.
        let renamed = tgd.rename_apart(&format!("r{tgd_index}"));
        for (chunk, gamma) in chunks(state, &renamed) {
            let mut atoms: Vec<Atom> = state
                .atoms()
                .iter()
                .enumerate()
                .filter(|(i, _)| chunk.binary_search(i).is_err())
                .map(|(_, a)| gamma.apply_atom(a))
                .collect();
            atoms.extend(gamma.apply_atoms(&renamed.body));
            out.push(CqState::new(atoms));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog_model::parser::{parse_query, parse_rules};

    fn state_of(query: &str) -> CqState {
        let q = parse_query(query).unwrap();
        CqState::new(q.atoms)
    }

    #[test]
    fn canonical_form_identifies_renamed_states() {
        let a = state_of("? :- edge(X, Y), t(Y, Z).");
        let b = state_of("? :- t(B, C), edge(A, B).");
        assert_eq!(a, b);
        let c = state_of("? :- edge(X, X), t(X, Z).");
        assert_ne!(a, c);
    }

    #[test]
    fn canonical_form_deduplicates_atoms() {
        let s = state_of("? :- edge(X, Y), edge(X, Y).");
        assert_eq!(s.size(), 1);
    }

    #[test]
    fn simple_resolution_against_a_datalog_rule() {
        // Query t(a, V); rule t(X, Z) :- edge(X, Y), t(Y, Z).
        let program = parse_rules("t(X, Z) :- edge(X, Y), t(Y, Z).").unwrap();
        let state = state_of("? :- t(a, V).");
        let resolvents = chunk_resolvents(&state, &program);
        assert_eq!(resolvents.len(), 1);
        let r = &resolvents[0];
        assert_eq!(r.size(), 2);
        // The constant a must survive into the edge atom.
        assert!(r
            .atoms()
            .iter()
            .any(|a| a.predicate.name() == "edge" && a.terms[0] == Term::constant("a")));
    }

    #[test]
    fn existential_variables_must_not_unify_with_constants() {
        // Rule p(X) → ∃Z r(X, Z): the resolvent of r(a, b) is blocked because
        // Z would have to become the constant b.
        let program = parse_rules("r(X, Z) :- p(X).").unwrap();
        let state = state_of("? :- r(a, b).");
        assert!(chunk_resolvents(&state, &program).is_empty());
    }

    #[test]
    fn existential_variables_must_not_unify_with_shared_variables() {
        // The paper's own example: Q(x) ← R(x, y), S(y) cannot resolve R(x, y)
        // with P(x') → ∃y' R(x', y') because y is shared with S(y).
        let program = parse_rules("r(X, Y) :- p(X).").unwrap();
        let state = state_of("? :- r(X, Y), s(Y).");
        let resolvents = chunk_resolvents(&state, &program);
        assert!(resolvents.is_empty());
    }

    #[test]
    fn non_shared_variables_can_absorb_existentials() {
        // Q(x) ← R(x, y) resolves fine: y is not shared.
        let program = parse_rules("r(X, Y) :- p(X).").unwrap();
        let state = state_of("? :- r(X, Y).");
        let resolvents = chunk_resolvents(&state, &program);
        assert_eq!(resolvents.len(), 1);
        assert_eq!(resolvents[0].size(), 1);
        assert_eq!(resolvents[0].atoms()[0].predicate.name(), "p");
    }

    #[test]
    fn existential_variables_must_not_unify_with_frontier_variables() {
        // r(Y, Y) would need the null for Z to equal the value of X: the
        // chase of {p(a)} holds r(a, ν), never r(a, a).
        let program = parse_rules("r(X, Z) :- p(X).").unwrap();
        assert!(chunk_resolvents(&state_of("? :- r(Y, Y)."), &program).is_empty());
        // Through a second state atom the two meet all the same: the piece
        // of r(Y, W) takes r(W, U) and then needs Z = W = X. Only r(W, U)
        // resolves, alone.
        let state = state_of("? :- r(Y, W), r(W, U).");
        assert_eq!(
            chunk_resolvents(&state, &program),
            vec![state_of("? :- r(Y, W), p(W).")]
        );
    }

    #[test]
    fn two_existential_variables_must_not_unify_with_each_other() {
        // Z and W stand for two distinct nulls.
        let program = parse_rules("r(Z, W) :- p(X).").unwrap();
        assert!(chunk_resolvents(&state_of("? :- r(Y, Y)."), &program).is_empty());
        assert_eq!(
            chunk_resolvents(&state_of("? :- r(Y, U)."), &program).len(),
            1
        );
    }

    #[test]
    fn chunks_with_two_atoms_resolve_as_a_whole() {
        // The paper's example: R(x,y), S(y) resolved against
        // P(x') → ∃y' (R(x',y'), S(y')) — after single-head normalisation this
        // becomes a two-step resolution through the auxiliary predicate, so we
        // test the chunk mechanics directly on a single-head rule with a
        // repeated existential position: query r(X, Y), r(Z, Y) against
        // p(W) → ∃V r(W, V): both query atoms must be resolved together.
        let program = parse_rules("r(W, V) :- p(W).").unwrap();
        let state = state_of("? :- r(X, Y), r(Z, Y).");
        let resolvents = chunk_resolvents(&state, &program);
        // The only admissible chunk takes both atoms (the shared Y forbids
        // resolving either atom alone), unifying X with Z: both seeds grow to
        // this one piece, which is resolved once.
        assert_eq!(resolvents.len(), 1);
        assert_eq!(resolvents[0], state_of("? :- p(X)."));
    }

    #[test]
    fn full_rules_resolve_each_atom_and_their_factoring() {
        // Without existential variables each atom is a chunk of its own, and
        // two atoms that unify are also resolved together, as one fact.
        let program = parse_rules("t(X, Y) :- e(X, Y).").unwrap();
        let resolvents = chunk_resolvents(&state_of("? :- t(A, B), t(A, C)."), &program);
        let one_at_a_time = state_of("? :- e(A, B), t(A, C).");
        assert_eq!(
            resolvents,
            vec![
                one_at_a_time.clone(),
                one_at_a_time,
                state_of("? :- e(A, B).")
            ]
        );
        // Atoms that cannot be one fact are never factored.
        let apart = chunk_resolvents(&state_of("? :- t(A, b), t(A, c)."), &program);
        assert_eq!(apart.len(), 2);
    }

    #[test]
    fn candidates_past_sixteen_are_resolved() {
        // Seventeen atoms over the head's predicate, tied by one variable:
        // no two can be one fact, so each is resolved alone.
        let atoms: Vec<String> = (0..17).map(|i| format!("t(X, c{i})")).collect();
        let state = state_of(&format!("? :- {}.", atoms.join(", ")));
        let program = parse_rules("t(X, Y) :- e(X, Y).").unwrap();
        assert_eq!(chunk_resolvents(&state, &program).len(), 17);
    }

    #[test]
    fn drop_atom_applies_the_grounding_to_the_remainder() {
        let state = state_of("? :- edge(X, Y), t(Y, Z).");
        // Ground the edge atom as edge(a, b) and drop it.
        let mut subst = Substitution::new();
        // Canonical names are V0, V1, … — find the variables of the edge atom.
        let edge = state
            .atoms()
            .iter()
            .find(|a| a.predicate.name() == "edge")
            .unwrap()
            .clone();
        let index = state.atoms().iter().position(|a| *a == edge).unwrap();
        subst.bind_var(edge.terms[0].as_var().unwrap(), Term::constant("a"));
        subst.bind_var(edge.terms[1].as_var().unwrap(), Term::constant("b"));
        let next = state.drop_atom(index, &subst);
        assert_eq!(next.size(), 1);
        let t = &next.atoms()[0];
        assert_eq!(t.predicate.name(), "t");
        assert_eq!(t.terms[0], Term::constant("b"));
    }

    #[test]
    fn resolvent_count_respects_multiple_rules() {
        let program =
            parse_rules("t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).").unwrap();
        let state = state_of("? :- t(a, V).");
        let resolvents = chunk_resolvents(&state, &program);
        assert_eq!(resolvents.len(), 2);
    }
}
