//! The experiment harness: prints the tables of the paper experiments
//! E1–E8 (space, scenario statistics, combined complexity, rewriting,
//! tiling, ablation, expressive power, linearisation). Timings of the
//! engines and the service live in the repository benchmark
//! (`BENCHMARK.json`, `crates/bench/src/bin/benchmark/`), not here.
//!
//! Usage:
//!
//! ```text
//! cargo run -p vadalog-bench --release --bin harness            # all experiments
//! cargo run -p vadalog-bench --release --bin harness -- e1 e5   # a selection
//! cargo run -p vadalog-bench --release --bin harness -- --quick # smaller sizes
//! ```

use std::collections::BTreeMap;
use std::time::Instant;
use vadalog_analysis::classify::{classify_scenario, ScenarioClass};
use vadalog_analysis::linearize::linearize;
use vadalog_analysis::pwl::{is_intensionally_linear, is_piecewise_linear};
use vadalog_analysis::wardedness::is_warded;
use vadalog_bench::{layered_program, program, Table, LINEAR_TC, NONLINEAR_TC};
use vadalog_benchgen::data_exchange::data_exchange_scenario;
use vadalog_benchgen::graphs::{chain_graph, random_graph};
use vadalog_benchgen::iwarded::{iwarded_scenario, ScenarioMix};
use vadalog_benchgen::owl::{owl_database, owl_program};
use vadalog_chase::{ChaseConfig, ChaseEngine, TerminationPolicy};
use vadalog_core::{
    linear_proof_search, rewrite_to_pwl_datalog, CertainAnswerEngine, RewriteOptions, SearchOptions,
};
use vadalog_datalog::DatalogEngine;
use vadalog_engine::{EngineConfig, JoinOrdering, Reasoner};
use vadalog_model::parser::{parse_query, parse_rules};
use vadalog_model::{Database, Symbol};
use vadalog_tiling::{has_tiling_within, reduction, TilingSystem};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let selected: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|a| a.to_lowercase())
        .collect();
    let experiments: [(&str, &dyn Fn()); 8] = [
        ("e1", &|| e1_space(quick)),
        ("e2", &|| e2_scenario_statistics(quick)),
        ("e3", &|| e3_combined_complexity(quick)),
        ("e4", &e4_rewriting),
        ("e5", &e5_tiling),
        ("e6", &|| e6_ablation(quick)),
        ("e7", &e7_program_expressive_power),
        ("e8", &|| e8_linearization(quick)),
    ];
    if let Some(unknown) = selected
        .iter()
        .find(|name| !experiments.iter().any(|(known, _)| known == name))
    {
        eprintln!("unknown experiment `{unknown}` (expected e1 … e8)");
        std::process::exit(2);
    }

    println!("== The Space-Efficient Core of Vadalog — experiment harness ==\n");
    for (name, run) in experiments {
        if selected.is_empty() || selected.iter().any(|s| s == name) {
            run();
        }
    }
}

/// E1 — data complexity / space: the proof search keeps a constant-size
/// frontier while bottom-up evaluation materialises a growing instance.
fn e1_space(quick: bool) {
    println!("-- E1: space usage, linear proof search vs. materialisation (reachability) --");
    let sizes: &[usize] = if quick {
        &[50, 100]
    } else {
        &[50, 100, 200, 400]
    };
    let tc = program(LINEAR_TC);
    let query = parse_query("?(X, Y) :- t(X, Y).").unwrap();
    let mut table = Table::new(&[
        "|D| (edges)",
        "materialised atoms (semi-naive)",
        "proof-search node width",
        "proof-search states",
        "node-width bound",
        "positive decision (ms)",
    ]);
    for &n in sizes {
        let db = chain_graph(n);
        let datalog = DatalogEngine::new(tc.clone()).unwrap().evaluate(&db);
        let boolean = query
            .instantiate(&[Symbol::new("n0"), Symbol::new(&format!("n{n}"))])
            .unwrap();
        let start = Instant::now();
        let outcome = linear_proof_search(&tc, &db, &boolean, SearchOptions::default());
        let elapsed = start.elapsed().as_millis();
        assert!(outcome.is_accepted(), "n0 reaches n{n}");
        let stats = outcome.stats();
        table.row(&[
            n.to_string(),
            datalog.stats.peak_atoms.to_string(),
            stats.max_state_size.to_string(),
            stats.states_visited.to_string(),
            stats.node_width_bound.to_string(),
            elapsed.to_string(),
        ]);
    }
    println!("{}", table.render());
}

/// E2 — the 55 / 15 / 30 statistic of Section 1.2 over a generated suite.
fn e2_scenario_statistics(quick: bool) {
    println!("-- E2: recursion-shape statistics over an iWarded-style suite --");
    let total = if quick { 60 } else { 200 };
    let mix = ScenarioMix::default();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(2024);
    let mut counts: BTreeMap<ScenarioClass, usize> = BTreeMap::new();
    for seed in 0..total as u64 {
        let kind = mix.draw(&mut rng);
        let scenario = iwarded_scenario(kind, 6, seed);
        *counts.entry(classify_scenario(&scenario)).or_insert(0) += 1;
    }
    let mut table = Table::new(&["class", "scenarios", "fraction", "paper"]);
    let paper: &[(ScenarioClass, &str)] = &[
        (ScenarioClass::WardedPwl, "≈55%"),
        (ScenarioClass::WardedLinearizable, "≈15%"),
        (ScenarioClass::WardedNonPwl, "≈30%"),
        (ScenarioClass::NotWarded, "0% (all scenarios warded)"),
    ];
    for (class, paper_share) in paper {
        let count = counts.get(class).copied().unwrap_or(0);
        table.row(&[
            class.to_string(),
            count.to_string(),
            format!("{:.1}%", 100.0 * count as f64 / total as f64),
            paper_share.to_string(),
        ]);
    }
    println!("{}", table.render());
}

/// E3 — combined complexity: growth of the search with the program's level
/// structure on a fixed database.
fn e3_combined_complexity(quick: bool) {
    println!("-- E3: combined complexity, search work vs. program depth --");
    let levels: &[usize] = if quick { &[1, 2, 3] } else { &[1, 2, 3, 4, 5] };
    let db = chain_graph(6);
    let mut table = Table::new(&[
        "levels",
        "rules",
        "node-width bound",
        "states visited",
        "decision (ms)",
    ]);
    for &k in levels {
        let prog = layered_program(k);
        let query = parse_query(&format!("?(X, Y) :- p{k}(X, Y).")).unwrap();
        let boolean = query
            .instantiate(&[Symbol::new("n0"), Symbol::new("n6")])
            .unwrap();
        let start = Instant::now();
        let outcome = linear_proof_search(&prog, &db, &boolean, SearchOptions::default());
        let elapsed = start.elapsed().as_millis();
        assert!(outcome.is_accepted());
        table.row(&[
            k.to_string(),
            prog.len().to_string(),
            outcome.stats().node_width_bound.to_string(),
            outcome.stats().states_visited.to_string(),
            elapsed.to_string(),
        ]);
    }
    println!("{}", table.render());
}

/// E4 — Theorem 6.3: the rewriting into piece-wise linear Datalog agrees with
/// the other evaluation strategies.
fn e4_rewriting() {
    println!("-- E4: rewriting (WARD ∩ PWL, CQ) into piece-wise linear Datalog --");
    let scenarios: Vec<(&str, &str, &str, Database)> = vec![
        (
            "linear TC",
            LINEAR_TC,
            "?(A, B) :- t(A, B).",
            chain_graph(8),
        ),
        (
            "existential loop",
            "r(X, Z) :- p(X).\n p(Y) :- r(X, Y).",
            "?(A) :- r(A, Y), r(Y, W).",
            vadalog_model::parser::parse("p(a). p(b). p(c).")
                .unwrap()
                .database,
        ),
        (
            "subclass closure",
            "subclassStar(X, Y) :- subclass(X, Y).\n\
             subclassStar(X, Z) :- subclassStar(X, Y), subclass(Y, Z).",
            "?(A, B) :- subclassStar(A, B).",
            vadalog_model::parser::parse("subclass(c1, c2). subclass(c2, c3). subclass(c3, c4).")
                .unwrap()
                .database,
        ),
    ];
    let mut table = Table::new(&[
        "scenario",
        "rewriting states",
        "rewriting rules",
        "intensionally linear",
        "answers match engine",
        "answers",
    ]);
    for (name, rules, query_src, db) in scenarios {
        let prog = parse_rules(rules).unwrap();
        let query = parse_query(query_src).unwrap();
        let rewritten = rewrite_to_pwl_datalog(&prog, &query, RewriteOptions::default())
            .unwrap()
            .expect("rewriting within bounds");
        let datalog_answers = DatalogEngine::new(rewritten.program.clone())
            .unwrap()
            .answers(&db, &rewritten.query);
        let engine = CertainAnswerEngine::with_defaults(prog).unwrap();
        let mut all_match = true;
        for answer in &datalog_answers {
            if !engine.is_certain_answer(&db, &query, answer).unwrap() {
                all_match = false;
            }
        }
        table.row(&[
            name.to_string(),
            rewritten.state_count.to_string(),
            rewritten.program.len().to_string(),
            is_intensionally_linear(&rewritten.program).to_string(),
            all_match.to_string(),
            datalog_answers.len().to_string(),
        ]);
    }
    println!("{}", table.render());
}

/// E5 — Theorem 5.1: the tiling reduction is PWL but not warded; bounded
/// chase evaluation mirrors the bounded tiling solver.
fn e5_tiling() {
    println!("-- E5: the Section 5 tiling reduction (PWL without wardedness) --");
    let systems: Vec<(&str, TilingSystem)> = vec![
        ("solvable corridor", TilingSystem::solvable_example()),
        ("unsolvable corridor", TilingSystem::unsolvable_example()),
    ];
    let mut table = Table::new(&[
        "tiling system",
        "pwl",
        "warded",
        "bounded solver (4×4)",
        "bounded chase answers query",
        "chase atoms",
    ]);
    for (name, system) in systems {
        let red = reduction(&system);
        let solver = has_tiling_within(&system, 4, 4).is_some();
        let chase = ChaseEngine::new(
            red.program.clone(),
            ChaseConfig::restricted(TerminationPolicy::MaxNullDepth(4)),
        );
        let result = chase.run(&red.database);
        table.row(&[
            name.to_string(),
            is_piecewise_linear(&red.program).to_string(),
            is_warded(&red.program).to_string(),
            solver.to_string(),
            result.boolean_answer(&red.query).to_string(),
            result.instance.len().to_string(),
        ]);
    }
    println!("{}", table.render());
}

/// E6 — Section 7 ablations: join ordering and strata materialisation.
fn e6_ablation(quick: bool) {
    println!("-- E6: Section 7 ablations (join ordering, strata materialisation) --");
    let owl_db = owl_database(
        if quick { 15 } else { 40 },
        6,
        if quick { 60 } else { 200 },
        7,
    );
    let dex = data_exchange_scenario(3, if quick { 40 } else { 120 }, 25, 11);
    let scenarios: Vec<(&str, vadalog_model::Program, Database)> = vec![
        ("OWL 2 QL (Example 3.3)", owl_program(), owl_db),
        ("data exchange", dex.program, dex.database),
    ];
    let mut table = Table::new(&[
        "scenario",
        "config",
        "join probes",
        "derived atoms",
        "peak atoms",
        "rounds",
        "time (ms)",
    ]);
    for (name, prog, db) in scenarios {
        let configs: Vec<(&str, EngineConfig)> = vec![
            ("pwl-aware order, strata", EngineConfig::default()),
            (
                "as-written order, strata",
                EngineConfig {
                    join_ordering: JoinOrdering::AsWritten,
                    ..EngineConfig::default()
                },
            ),
            (
                "pwl-aware order, global fixpoint",
                EngineConfig {
                    materialize_strata: false,
                    ..EngineConfig::default()
                },
            ),
        ];
        for (label, config) in configs {
            let reasoner = Reasoner::new(&prog, config);
            let start = Instant::now();
            let result = reasoner.run(&db);
            let elapsed = start.elapsed().as_millis();
            table.row(&[
                name.to_string(),
                label.to_string(),
                result.stats.join_probes.to_string(),
                result.stats.derived_atoms.to_string(),
                result.stats.peak_atoms.to_string(),
                result.stats.rounds.to_string(),
                elapsed.to_string(),
            ]);
        }
    }
    println!("{}", table.render());
}

/// E7 — program expressive power (Lemma 6.7): value invention separates
/// warded Datalog∃ from Datalog under the program expressive power.
fn e7_program_expressive_power() {
    println!("-- E7: program expressive power (Lemma 6.7) --");
    let sigma = parse_rules("r(X, Y) :- p(X).").unwrap();
    let db = vadalog_model::parser::parse("p(c).").unwrap().database;
    let engine = CertainAnswerEngine::with_defaults(sigma).unwrap();
    let q1 = parse_query("? :- r(X, Y).").unwrap();
    let q2 = parse_query("? :- r(X, Y), p(Y).").unwrap();
    let a1 = engine.boolean_certain(&db, &q1);
    let a2 = engine.boolean_certain(&db, &q2);
    let mut table = Table::new(&["query", "certain under Σ = {P(x) → ∃y R(x,y)}", "paper"]);
    table.row(&[
        "q1 = ∃x,y R(x,y)".to_string(),
        a1.to_string(),
        "true".to_string(),
    ]);
    table.row(&[
        "q2 = ∃x,y R(x,y) ∧ P(y)".to_string(),
        a2.to_string(),
        "false".to_string(),
    ]);
    println!("{}", table.render());
    println!(
        "Any Datalog program over edb {{p}} that makes q1 true on D = {{p(c)}} can only do so\n\
         by deriving an R-fact over the active domain, which forces q2 to be true as well —\n\
         so no single Datalog program reproduces both answers (Lemma 6.7).\n"
    );
}

/// E8 — the linearisation rewriting of Section 1.2.
fn e8_linearization(quick: bool) {
    println!("-- E8: eliminating unnecessary non-linear recursion --");
    let sizes: &[usize] = if quick { &[100] } else { &[100, 300] };
    let mut table = Table::new(&[
        "|D| (edges)",
        "program",
        "pwl",
        "derived atoms",
        "joins evaluated",
        "answers",
        "time (ms)",
    ]);
    for &n in sizes {
        let db = random_graph(n / 4, n, 3);
        let query = parse_query("?(X, Y) :- t(X, Y).").unwrap();
        let nonlinear = program(NONLINEAR_TC);
        let linearized = linearize(&nonlinear).program;
        for (label, prog) in [("non-linear TC", nonlinear), ("linearised TC", linearized)] {
            let engine = DatalogEngine::new(prog.clone()).unwrap();
            let start = Instant::now();
            let result = engine.evaluate(&db);
            let elapsed = start.elapsed().as_millis();
            let answers = result.answers(&query);
            table.row(&[
                n.to_string(),
                label.to_string(),
                is_piecewise_linear(&prog).to_string(),
                result.stats.derived_atoms.to_string(),
                result.stats.joins_evaluated.to_string(),
                answers.len().to_string(),
                elapsed.to_string(),
            ]);
        }
    }
    println!("{}", table.render());
}
