//! OWL 2 QL-style ontology scenarios (Example 3.3) and a DBpedia-like
//! synthetic knowledge graph.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vadalog_model::parser::parse_rules;
use vadalog_model::{Atom, Database, Program};

/// The fixed rule set of Example 3.3 (the fragment of the OWL 2 QL direct
/// semantics entailment regime shown in the paper). Warded and piece-wise
/// linear.
pub fn owl_program() -> Program {
    parse_rules(
        "subclassStar(X, Y) :- subclass(X, Y).\n\
         subclassStar(X, Z) :- subclassStar(X, Y), subclass(Y, Z).\n\
         type(X, Z) :- type(X, Y), subclassStar(Y, Z).\n\
         triple(X, Z, W) :- type(X, Y), restriction(Y, Z).\n\
         triple(Z, W, X) :- triple(X, Y, Z), inverse(Y, W).\n\
         type(X, W) :- triple(X, Y, Z), restriction(W, Y).",
    )
    .expect("Example 3.3 is well-formed")
}

/// Generates an ontology database for [`owl_program`]:
///
/// * a random forest-shaped class hierarchy over `classes` classes
///   (`subclass` facts);
/// * `properties` properties, each with an inverse and a restriction class;
/// * `individuals` individuals, each typed with a random class.
pub fn owl_database(classes: usize, properties: usize, individuals: usize, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let mut add = |p: &str, args: &[&str]| {
        db.insert(Atom::fact(p, args))
            .expect("generated facts are ground");
    };

    // Class hierarchy: class_i is a subclass of a random lower-numbered class.
    for i in 1..classes {
        let parent = rng.gen_range(0..i);
        add(
            "subclass",
            &[
                format!("class{i}").as_str(),
                format!("class{parent}").as_str(),
            ],
        );
    }
    // Properties, inverses and restriction classes.
    for p in 0..properties {
        add(
            "inverse",
            &[format!("prop{p}").as_str(), format!("inv_prop{p}").as_str()],
        );
        let restriction_class = format!("class{}", rng.gen_range(0..classes.max(1)));
        add(
            "restriction",
            &[restriction_class.as_str(), format!("prop{p}").as_str()],
        );
    }
    // Individuals typed with random classes.
    for i in 0..individuals {
        let class = rng.gen_range(0..classes.max(1));
        add(
            "type",
            &[format!("ind{i}").as_str(), format!("class{class}").as_str()],
        );
    }
    db
}

/// A DBpedia-like synthetic knowledge graph: entities linked by a fixed set
/// of properties stored as `edge`-style triples, plus category memberships —
/// used by the reachability-flavoured experiments on realistic degree
/// distributions.
pub fn synthetic_kg(entities: usize, links: usize, categories: usize, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let mut add = |p: &str, args: &[&str]| {
        db.insert(Atom::fact(p, args))
            .expect("generated facts are ground");
    };
    let props = ["linksTo", "locatedIn", "partOf"];
    for _ in 0..links {
        let a = rng.gen_range(0..entities);
        let b = rng.gen_range(0..entities);
        if a == b {
            continue;
        }
        let prop = props[rng.gen_range(0..props.len())];
        add(prop, &[format!("e{a}").as_str(), format!("e{b}").as_str()]);
    }
    for e in 0..entities {
        let c = rng.gen_range(0..categories.max(1));
        add(
            "category",
            &[format!("e{e}").as_str(), format!("cat{c}").as_str()],
        );
    }
    // A small category hierarchy so that recursive rules have work to do.
    for c in 1..categories {
        let parent = rng.gen_range(0..c);
        add(
            "subcategory",
            &[format!("cat{c}").as_str(), format!("cat{parent}").as_str()],
        );
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog_analysis::classify::{classify_scenario, ScenarioClass};

    #[test]
    fn the_fixed_program_is_warded_and_pwl() {
        assert_eq!(classify_scenario(&owl_program()), ScenarioClass::WardedPwl);
    }

    #[test]
    fn ontology_generation_is_reproducible_and_sized() {
        let a = owl_database(20, 5, 50, 42);
        let b = owl_database(20, 5, 50, 42);
        assert_eq!(a.len(), b.len());
        // 19 subclass + 5 inverse + 5 restriction + 50 type facts.
        assert_eq!(a.len(), 19 + 5 + 5 + 50);
    }

    #[test]
    fn ontology_databases_drive_the_rules() {
        use vadalog_chase::{ChaseConfig, ChaseEngine, TerminationPolicy};
        let db = owl_database(10, 3, 20, 1);
        let engine = ChaseEngine::new(
            owl_program(),
            ChaseConfig::restricted(TerminationPolicy::MaxNullDepth(3)),
        );
        let result = engine.run(&db);
        // Something beyond the database must be derivable.
        assert!(result.instance.len() > db.len());
    }

    #[test]
    fn synthetic_kg_has_expected_predicates() {
        let db = synthetic_kg(50, 200, 8, 9);
        let preds: std::collections::BTreeSet<String> = db
            .as_instance()
            .predicates()
            .map(|p| p.name().to_string())
            .collect();
        assert!(preds.contains("category"));
        assert!(preds.contains("subcategory"));
        assert!(preds
            .iter()
            .any(|p| p == "linksTo" || p == "locatedIn" || p == "partOf"));
    }
}
