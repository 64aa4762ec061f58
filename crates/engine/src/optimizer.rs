//! The optimizer: rule-body join ordering and engine configuration.

use vadalog_analysis::predicate_graph::PredicateGraph;
use vadalog_analysis::pwl::check_pwl;
use vadalog_analysis::stratify::{stratify, Stratification};
use vadalog_chase::TerminationPolicy;
use vadalog_model::{Program, Tgd};

/// How rule bodies are ordered before evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinOrdering {
    /// Keep the body atoms exactly as written.
    AsWritten,
    /// Place the (unique, when piece-wise linear) body atom that is mutually
    /// recursive with the head first, then order the remaining atoms by
    /// decreasing number of variables shared with earlier atoms — the
    /// Section 7 heuristic.
    #[default]
    PwlAware,
}

/// Configuration of the engine (the ablation switches of experiment E6).
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Join ordering strategy.
    pub join_ordering: JoinOrdering,
    /// Materialise intermediate results at strata boundaries (`true`) or run
    /// a single global fixpoint over all rules (`false`).
    pub materialize_strata: bool,
    /// Termination policy of the underlying chase, honoured in full.
    pub termination: TerminationPolicy,
    /// Worker threads for per-round trigger detection in the fixpoint
    /// (1 = sequential, 0 = all available parallelism). Trigger application
    /// — satisfaction checks, null invention, inserts — stays sequential,
    /// so results are identical for every thread count.
    pub threads: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            join_ordering: JoinOrdering::PwlAware,
            materialize_strata: true,
            termination: TerminationPolicy::MaxNullDepth(6),
            threads: 1,
        }
    }
}

/// A rule with its body reordered by the optimizer.
#[derive(Debug, Clone)]
pub struct OptimizedRule {
    /// Index of the rule in the original program.
    pub original_index: usize,
    /// The rule with the optimised body order.
    pub rule: Tgd,
    /// Position (in the optimised body) of the atom that is mutually
    /// recursive with the head, if the rule has exactly one such atom.
    pub recursive_atom: Option<usize>,
}

/// The optimised program: reordered rules plus the stratification.
#[derive(Debug, Clone)]
pub struct OptimizedProgram {
    /// The optimised rules, in original program order.
    pub rules: Vec<OptimizedRule>,
    /// The stratification of the program.
    pub stratification: Stratification,
}

/// Runs the optimizer over a program.
pub fn optimize(program: &Program, config: &EngineConfig) -> OptimizedProgram {
    let graph = PredicateGraph::new(program);
    let pwl = check_pwl(program, &graph);
    let stratification = stratify(program);

    let rules = program
        .iter()
        .map(|(index, tgd)| {
            let recursive_atoms = &pwl
                .per_tgd
                .iter()
                .find(|t| t.tgd_index == index)
                .expect("pwl report covers every rule")
                .recursive_body_atoms;
            match config.join_ordering {
                JoinOrdering::AsWritten => OptimizedRule {
                    original_index: index,
                    rule: tgd.clone(),
                    recursive_atom: if recursive_atoms.len() == 1 {
                        Some(recursive_atoms[0])
                    } else {
                        None
                    },
                },
                JoinOrdering::PwlAware => order_rule(index, tgd, recursive_atoms),
            }
        })
        .collect();

    OptimizedProgram {
        rules,
        stratification,
    }
}

/// Orders a rule body: the unique recursive atom (if any) first, then greedily
/// by connectivity with the already-placed atoms (so the nested-loop join
/// always has bound variables to use).
fn order_rule(index: usize, tgd: &Tgd, recursive_atoms: &[usize]) -> OptimizedRule {
    let mut remaining: Vec<usize> = (0..tgd.body.len()).collect();
    let mut order: Vec<usize> = Vec::new();

    if recursive_atoms.len() == 1 {
        order.push(recursive_atoms[0]);
        remaining.retain(|&i| i != recursive_atoms[0]);
    }

    while !remaining.is_empty() {
        let bound_vars: std::collections::BTreeSet<_> = order
            .iter()
            .flat_map(|&i| tgd.body[i].variables())
            .collect();
        // Pick the remaining atom sharing the most variables with what is
        // already placed; tie-break on fewer free variables, then on original
        // position for determinism.
        let (pos, _) = remaining
            .iter()
            .enumerate()
            .max_by_key(|(_, &i)| {
                let vars = tgd.body[i].variables();
                let shared = vars.iter().filter(|v| bound_vars.contains(v)).count();
                let free = vars.len() - shared;
                (shared, usize::MAX - free, usize::MAX - i)
            })
            .expect("remaining non-empty");
        order.push(remaining.remove(pos));
    }

    let body: Vec<_> = order.iter().map(|&i| tgd.body[i].clone()).collect();
    let recursive_atom = recursive_atoms
        .first()
        .filter(|_| recursive_atoms.len() == 1)
        .and_then(|orig| order.iter().position(|i| i == orig));
    OptimizedRule {
        original_index: index,
        rule: Tgd::new_unchecked(body, tgd.head.clone()),
        recursive_atom,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog_model::parser::parse_rules;

    #[test]
    fn pwl_aware_ordering_puts_the_recursive_atom_first() {
        let program =
            parse_rules("t(X, Z) :- edge(X, Y), t(Y, Z).\n t(X, Y) :- edge(X, Y).").unwrap();
        let optimized = optimize(&program, &EngineConfig::default());
        let rule0 = &optimized.rules[0];
        assert_eq!(rule0.rule.body[0].predicate.name(), "t");
        assert_eq!(rule0.recursive_atom, Some(0));
        // Non-recursive rules keep a sensible order and no recursive atom.
        assert_eq!(optimized.rules[1].recursive_atom, None);
    }

    #[test]
    fn as_written_ordering_is_preserved() {
        let program = parse_rules("t(X, Z) :- edge(X, Y), t(Y, Z).").unwrap();
        let config = EngineConfig {
            join_ordering: JoinOrdering::AsWritten,
            ..EngineConfig::default()
        };
        let optimized = optimize(&program, &config);
        assert_eq!(optimized.rules[0].rule.body[0].predicate.name(), "edge");
        assert_eq!(optimized.rules[0].recursive_atom, Some(1));
    }

    #[test]
    fn connectivity_greedy_order_keeps_joins_connected() {
        // Body: a(X), b(Y), c(X, Y) — after placing a(X), the most connected
        // next atom is c(X, Y), then b(Y).
        let program = parse_rules("h(X, Y) :- a(X), b(Y), c(X, Y).").unwrap();
        let optimized = optimize(&program, &EngineConfig::default());
        let names: Vec<&str> = optimized.rules[0]
            .rule
            .body
            .iter()
            .map(|a| a.predicate.name())
            .collect();
        let pos_c = names.iter().position(|&n| n == "c").unwrap();
        let pos_b = names.iter().position(|&n| n == "b").unwrap();
        assert!(pos_c < pos_b);
    }

    #[test]
    fn example_3_3_rule3_orders_type_first() {
        let program = parse_rules(
            "subclassStar(X, Y) :- subclass(X, Y).\n\
             subclassStar(X, Z) :- subclassStar(X, Y), subclass(Y, Z).\n\
             type(X, Z) :- subclassStar(Y, Z), type(X, Y).",
        )
        .unwrap();
        let optimized = optimize(&program, &EngineConfig::default());
        // Rule 3 as written has subclassStar first; the optimizer moves the
        // mutually recursive `type` atom to the front.
        assert_eq!(optimized.rules[2].rule.body[0].predicate.name(), "type");
    }
}
