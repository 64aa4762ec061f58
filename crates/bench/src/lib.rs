//! Shared helpers for the Vadalog reproduction's paper experiments.
//!
//! The experiment drivers live in `src/bin/harness.rs` (which prints the
//! tables of experiments E1–E8) and in the Criterion benches under
//! `benches/`. This library hosts the small amount of code they share:
//! canonical programs, query strings and a tiny table printer.

#![forbid(unsafe_code)]

use vadalog_model::parser::parse_rules;
use vadalog_model::Program;

/// The linear transitive-closure program used throughout the experiments.
pub const LINEAR_TC: &str = "t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).";

/// The non-linear transitive-closure program of Section 1.2.
pub const NONLINEAR_TC: &str = "t(X, Y) :- edge(X, Y).\n t(X, Z) :- t(X, Y), t(Y, Z).";

/// Parses one of the canonical programs above.
pub fn program(src: &str) -> Program {
    parse_rules(src).expect("canonical program parses")
}

/// Builds a program family with `levels` strata for the combined-complexity
/// experiment (E3): each level copies the previous one and adds a piece-wise
/// linear recursive rule.
pub fn layered_program(levels: usize) -> Program {
    let mut src = String::from("p1(X, Y) :- edge(X, Y).\np1(X, Z) :- edge(X, Y), p1(Y, Z).\n");
    for level in 2..=levels.max(1) {
        let prev = level - 1;
        src.push_str(&format!("p{level}(X, Y) :- p{prev}(X, Y).\n"));
        src.push_str(&format!(
            "p{level}(X, Z) :- p{prev}(X, Y), p{level}(Y, Z).\n"
        ));
    }
    parse_rules(&src).expect("layered program parses")
}

/// The seed repository's semi-naive evaluation loop, retained as the joins
/// benchmark baseline: rule bodies are cloned per delta fact, candidate
/// matches allocate and clone `BTreeMap`-backed substitutions, and every
/// homomorphism search materialises its full result vector — exactly the
/// allocation profile the columnar store + zero-allocation join kernel
/// replaced.
pub mod seed_reference {
    use vadalog_analysis::stratify::stratify;
    use vadalog_model::homomorphism::reference::homomorphisms_reference;
    use vadalog_model::{Atom, Database, HomSearch, Instance, Program, Substitution};

    /// Counters mirroring `DatalogStats` for the baseline run.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct SeedStats {
        /// Derived (IDB) atoms.
        pub derived_atoms: usize,
        /// Total atoms materialised.
        pub peak_atoms: usize,
    }

    /// Matches a body atom against a concrete fact, returning the induced
    /// substitution if they are compatible (the seed's `match_atom`).
    fn match_atom(pattern: &Atom, fact: &Atom) -> Option<Substitution> {
        if pattern.predicate != fact.predicate || pattern.arity() != fact.arity() {
            return None;
        }
        let mut subst = Substitution::new();
        for (p, f) in pattern.terms.iter().zip(fact.terms.iter()) {
            if p.is_var() {
                match subst.get(p) {
                    Some(existing) if existing != *f => return None,
                    Some(_) => {}
                    None => subst.bind(*p, *f),
                }
            } else if p != f {
                return None;
            }
        }
        Some(subst)
    }

    /// Stratified semi-naive materialisation with the seed's allocation
    /// profile. Produces the same instance as `DatalogEngine::evaluate`.
    pub fn evaluate(program: &Program, database: &Database) -> (Instance, SeedStats) {
        let stratification = stratify(program);
        let mut instance = database.as_instance().clone();
        let mut stats = SeedStats::default();

        for stratum in &stratification.strata {
            let rules: Vec<&_> = stratum.rules.iter().map(|&i| &program.tgds()[i]).collect();

            let mut delta = Instance::new();
            for rule in &rules {
                for h in homomorphisms_reference(
                    &rule.body,
                    &instance,
                    &Substitution::new(),
                    HomSearch::all(),
                ) {
                    let fact = h.apply_atom(&rule.head[0]);
                    if !instance.contains(&fact) {
                        delta.insert(fact.clone()).expect("derived fact is ground");
                        instance.insert(fact).expect("derived fact is ground");
                        stats.derived_atoms += 1;
                    }
                }
            }

            if !stratum.recursive {
                continue;
            }

            while !delta.is_empty() {
                let mut next_delta = Instance::new();
                for rule in &rules {
                    for (pos, body_atom) in rule.body.iter().enumerate() {
                        if !stratum.predicates.contains(&body_atom.predicate) {
                            continue;
                        }
                        for delta_fact in delta.atoms_with_predicate(body_atom.predicate) {
                            let seed = match match_atom(body_atom, &delta_fact) {
                                Some(s) => s,
                                None => continue,
                            };
                            // The seed's per-delta-fact body clone.
                            let rest: Vec<Atom> = rule
                                .body
                                .iter()
                                .enumerate()
                                .filter(|(i, _)| *i != pos)
                                .map(|(_, a)| a.clone())
                                .collect();
                            for h in
                                homomorphisms_reference(&rest, &instance, &seed, HomSearch::all())
                            {
                                let fact = h.apply_atom(&rule.head[0]);
                                if !instance.contains(&fact) {
                                    next_delta
                                        .insert(fact.clone())
                                        .expect("derived fact is ground");
                                    instance.insert(fact).expect("derived fact is ground");
                                    stats.derived_atoms += 1;
                                }
                            }
                        }
                    }
                }
                delta = next_delta;
            }
        }

        stats.peak_atoms = instance.len();
        (instance, stats)
    }
}

/// A minimal fixed-width table printer for the harness output.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (must have as many cells as the header).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let parts: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<width$}", width = w))
                .collect();
            format!("| {} |", parts.join(" | "))
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&fmt_row(&sep, &widths));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog_analysis::classify::{classify_scenario, ScenarioClass};

    #[test]
    fn canonical_programs_parse_and_classify() {
        assert_eq!(
            classify_scenario(&program(LINEAR_TC)),
            ScenarioClass::WardedPwl
        );
        assert_eq!(
            classify_scenario(&program(NONLINEAR_TC)),
            ScenarioClass::WardedLinearizable
        );
    }

    /// The oracle the `joins` bench times the kernel against must compute
    /// what the kernel computes.
    #[test]
    fn seed_reference_and_the_join_kernel_materialise_the_same_closure() {
        let tc = program(LINEAR_TC);
        let db = vadalog_benchgen::graphs::random_graph(60, 120, 42);
        let (seed_instance, seed_stats) = seed_reference::evaluate(&tc, &db);
        let kernel = vadalog_datalog::DatalogEngine::new(tc)
            .unwrap()
            .evaluate(&db);
        assert_eq!(kernel.stats.derived_atoms, seed_stats.derived_atoms);
        assert_eq!(kernel.stats.peak_atoms, seed_stats.peak_atoms);
        assert_eq!(
            kernel.instance.sorted_row_layout(),
            seed_instance.sorted_row_layout()
        );
    }

    #[test]
    fn layered_programs_grow_linearly_and_stay_pwl() {
        let p3 = layered_program(3);
        assert_eq!(p3.len(), 2 + 2 * 2);
        assert_eq!(classify_scenario(&p3), ScenarioClass::WardedPwl);
        let p6 = layered_program(6);
        assert!(p6.len() > p3.len());
    }

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["alpha".to_string(), "1".to_string()]);
        t.row(&["b".to_string(), "12345".to_string()]);
        let rendered = t.render();
        assert!(rendered.contains("| alpha | 1     |"));
        assert!(rendered.lines().count() == 4);
    }
}
