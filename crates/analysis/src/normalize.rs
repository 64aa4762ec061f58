//! Single-head normal form (Section 4.2).
//!
//! The proof-tree machinery of the paper assumes TGDs with a single head
//! atom. A TGD `φ(x̄,ȳ) → ∃z̄ (h₁ ∧ … ∧ hₖ)` with `k > 1` is replaced by
//!
//! ```text
//! φ(x̄,ȳ)          → ∃z̄ auxσ(x̄', z̄)      (x̄' = head variables that are not existential)
//! auxσ(x̄', z̄)     → hᵢ                    for every i ∈ [k]
//! ```
//!
//! where `auxσ` is a fresh predicate holding every variable of the original
//! head. Certain answers over the original schema are preserved (see
//! Calì, Gottlob, Pieris 2012, cited as \[11\] in the paper).

use vadalog_model::{Atom, ModelError, Predicate, Program, Term, Tgd, Variable};

/// The outcome of normalising a program to single-head TGDs.
#[derive(Debug, Clone)]
pub struct NormalizedProgram {
    /// The rewritten program (every TGD has exactly one head atom).
    pub program: Program,
    /// The auxiliary predicates that were introduced.
    pub auxiliary_predicates: Vec<Predicate>,
}

impl NormalizedProgram {
    /// `true` iff a predicate was introduced by the normalisation.
    pub fn is_auxiliary(&self, p: Predicate) -> bool {
        self.auxiliary_predicates.contains(&p)
    }
}

/// Rewrites `program` into single-head normal form. Programs that are already
/// single-headed are returned unchanged (modulo cloning).
pub fn normalize_single_head(program: &Program) -> Result<NormalizedProgram, ModelError> {
    let mut out = Program::new();
    let mut auxiliary = Vec::new();
    for (index, tgd) in program.iter() {
        if tgd.head.len() == 1 {
            out.add(tgd.clone())?;
            continue;
        }
        // Fresh predicate capturing all head variables (frontier + existential).
        let head_vars: Vec<Variable> = tgd.head_variables();
        let aux_name = format!("aux_head_{index}");
        let aux_pred = Predicate::new(&aux_name);
        auxiliary.push(aux_pred);
        let aux_atom = Atom::new(
            aux_name.as_str(),
            head_vars.iter().map(|v| Term::Var(*v)).collect(),
        );
        out.add(Tgd::new(tgd.body.clone(), vec![aux_atom.clone()])?)?;
        for head_atom in &tgd.head {
            out.add(Tgd::new(vec![aux_atom.clone()], vec![head_atom.clone()])?)?;
        }
    }
    Ok(NormalizedProgram {
        program: out,
        auxiliary_predicates: auxiliary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pwl::is_piecewise_linear;
    use crate::wardedness::is_warded;
    use vadalog_model::parser::parse_rules;

    #[test]
    fn single_head_programs_are_unchanged() {
        let p = parse_rules("t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).").unwrap();
        let n = normalize_single_head(&p).unwrap();
        assert_eq!(n.program.len(), 2);
        assert!(n.auxiliary_predicates.is_empty());
    }

    #[test]
    fn multi_head_rules_are_split_through_an_auxiliary_predicate() {
        let p = parse_rules("r(X, Z), s(Z, W) :- p(X).").unwrap();
        let n = normalize_single_head(&p).unwrap();
        // One body→aux rule plus one aux→head rule per original head atom.
        assert_eq!(n.program.len(), 3);
        assert_eq!(n.auxiliary_predicates.len(), 1);
        assert!(n.program.tgds().iter().all(|t| t.head.len() == 1));
        // The auxiliary rule keeps the existential variables existential.
        let first = &n.program.tgds()[0];
        assert_eq!(first.existential_variables().len(), 2); // Z and W
                                                            // The projection rules are full.
        assert!(n.program.tgds()[1].is_full());
        assert!(n.program.tgds()[2].is_full());
    }

    #[test]
    fn normalisation_preserves_wardedness_and_pwl_on_typical_programs() {
        let p = parse_rules("r(X, Z), marked(X) :- p(X).\n p(Y) :- r(X, Y).").unwrap();
        let n = normalize_single_head(&p).unwrap();
        assert!(n.program.tgds().iter().all(|t| t.head.len() == 1));
        assert!(is_warded(&n.program));
        assert!(is_piecewise_linear(&n.program));
    }

    #[test]
    fn shared_frontier_variables_survive_the_split() {
        // Both head atoms mention X; the aux predicate must carry it so that
        // the two projections stay connected.
        let p = parse_rules("a(X, Z), b(X) :- e(X).").unwrap();
        let n = normalize_single_head(&p).unwrap();
        let aux = n.auxiliary_predicates[0];
        let aux_rule = &n.program.tgds()[0];
        assert_eq!(aux_rule.head[0].predicate, aux);
        assert_eq!(aux_rule.head[0].arity(), 2); // X and Z
    }
}
