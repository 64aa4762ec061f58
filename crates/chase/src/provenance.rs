//! Provenance of chase-derived atoms: the chase graph of Section 4.2.
//!
//! The chase graph `G_{D,Σ}` has the atoms of `chase(D, Σ)` as nodes and an
//! edge `(α, β)` labelled `(σ, h)` whenever β was derived by firing σ with a
//! trigger h whose image contains α. The proof of Theorems 4.8/4.9 unravels
//! this graph; here it is recorded only when
//! [`ChaseConfig::record_provenance`](crate::ChaseConfig::record_provenance)
//! asks for it, for inspection and testing. The chase itself never reads it.

use std::collections::HashMap;
use vadalog_model::Atom;

/// The record of a single chase step: which TGD fired, on which body image,
/// and which atoms it produced.
#[derive(Debug, Clone)]
pub struct DerivationRecord {
    /// Index of the TGD in the program.
    pub tgd_index: usize,
    /// The images of the body atoms under the trigger homomorphism.
    pub premises: Vec<Atom>,
    /// The atoms added by this step (head images; possibly already present
    /// atoms are not listed).
    pub conclusions: Vec<Atom>,
}

/// The chase graph: derivation records plus an index from each derived atom
/// to the record that first produced it.
#[derive(Debug, Default, Clone)]
pub struct ChaseGraph {
    records: Vec<DerivationRecord>,
    derived_by: HashMap<Atom, usize>,
}

impl ChaseGraph {
    /// Creates an empty chase graph.
    pub fn new() -> ChaseGraph {
        ChaseGraph::default()
    }

    /// Records a chase step.
    pub fn record(&mut self, record: DerivationRecord) {
        let idx = self.records.len();
        for atom in &record.conclusions {
            self.derived_by.entry(atom.clone()).or_insert(idx);
        }
        self.records.push(record);
    }

    /// All derivation records, in chase order.
    pub fn records(&self) -> &[DerivationRecord] {
        &self.records
    }

    /// The record that first derived `atom`, if it was derived (database atoms
    /// have no derivation).
    pub fn derivation_of(&self, atom: &Atom) -> Option<&DerivationRecord> {
        self.derived_by.get(atom).map(|&i| &self.records[i])
    }

    /// The direct premises of a derived atom (its parents in the chase graph);
    /// empty for database atoms.
    pub fn parents_of(&self, atom: &Atom) -> &[Atom] {
        self.derivation_of(atom)
            .map(|r| r.premises.as_slice())
            .unwrap_or(&[])
    }

    /// The *derivation depth* of an atom: 0 for database atoms, otherwise one
    /// more than the maximum depth of its premises. Uses memoisation; cycles
    /// cannot occur because every conclusion is recorded after its premises.
    pub fn depth_of(&self, atom: &Atom) -> usize {
        let mut memo: HashMap<Atom, usize> = HashMap::new();
        self.depth_rec(atom, &mut memo)
    }

    fn depth_rec(&self, atom: &Atom, memo: &mut HashMap<Atom, usize>) -> usize {
        if let Some(&d) = memo.get(atom) {
            return d;
        }
        let depth = match self.derivation_of(atom) {
            None => 0,
            Some(record) => {
                1 + record
                    .premises
                    .iter()
                    .map(|p| self.depth_rec(p, memo))
                    .max()
                    .unwrap_or(0)
            }
        };
        memo.insert(atom.clone(), depth);
        depth
    }

    /// Number of recorded chase steps.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` iff no steps were recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivations_are_indexed_by_first_producer() {
        let mut g = ChaseGraph::new();
        let a = Atom::fact("edge", &["a", "b"]);
        let t1 = Atom::fact("t", &["a", "b"]);
        g.record(DerivationRecord {
            tgd_index: 0,
            premises: vec![a.clone()],
            conclusions: vec![t1.clone()],
        });
        // A second derivation of the same atom does not override the first.
        g.record(DerivationRecord {
            tgd_index: 1,
            premises: vec![a.clone(), t1.clone()],
            conclusions: vec![t1.clone()],
        });
        assert_eq!(g.len(), 2);
        assert_eq!(g.derivation_of(&t1).unwrap().tgd_index, 0);
        assert_eq!(g.parents_of(&t1), std::slice::from_ref(&a));
        assert!(g.derivation_of(&a).is_none());
    }

    #[test]
    fn depth_counts_derivation_layers() {
        let mut g = ChaseGraph::new();
        let e = Atom::fact("edge", &["a", "b"]);
        let t1 = Atom::fact("t", &["a", "b"]);
        let t2 = Atom::fact("t", &["a", "c"]);
        g.record(DerivationRecord {
            tgd_index: 0,
            premises: vec![e.clone()],
            conclusions: vec![t1.clone()],
        });
        g.record(DerivationRecord {
            tgd_index: 1,
            premises: vec![e.clone(), t1.clone()],
            conclusions: vec![t2.clone()],
        });
        assert_eq!(g.depth_of(&e), 0);
        assert_eq!(g.depth_of(&t1), 1);
        assert_eq!(g.depth_of(&t2), 2);
    }
}
