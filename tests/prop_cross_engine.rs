//! Property-based integration tests: on random graph databases, all
//! evaluation strategies must agree, and the proof-tree decision procedure
//! must match the materialised ground truth pair by pair.
//!
//! The build environment is offline, so instead of `proptest` these use the
//! in-tree seeded PRNG over a fixed number of deterministic random cases.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use vadalog::analysis::wardedness::is_warded;
use vadalog::benchgen::{data_exchange_scenario, owl_database, owl_program};
use vadalog::chase::{ChaseConfig, ChaseEngine, TerminationPolicy};
use vadalog::core::{
    linear_proof_search, warded_proof_search, CertainAnswerEngine, SearchOptions, SearchOutcome,
};
use vadalog::datalog::DatalogEngine;
use vadalog::engine::{EngineConfig, JoinOrdering, Reasoner, ReasonerResult};
use vadalog::model::parser::{parse_query, parse_rules};
use vadalog::model::{Atom, ConjunctiveQuery, Database, Instance, Program, Symbol};

fn tc_program() -> Program {
    parse_rules("t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).").unwrap()
}

fn arb_database(rng: &mut StdRng) -> Database {
    let n_edges = rng.gen_range(1..14usize);
    let mut db = Database::new();
    for _ in 0..n_edges {
        let a = rng.gen_range(0..8u32);
        let b = rng.gen_range(0..8u32);
        if a != b {
            db.insert(Atom::fact(
                "edge",
                &[format!("n{a}").as_str(), format!("n{b}").as_str()],
            ))
            .unwrap();
        }
    }
    db
}

/// Every `Reasoner` configuration: {PWL-aware, as-written} body order ×
/// {per-stratum, global} fixpoint × {1, 4} detection threads, a
/// configuration's sequential run right before its 4-thread run.
fn reasoner_configs(termination: TerminationPolicy) -> Vec<EngineConfig> {
    let mut configs = Vec::new();
    for join_ordering in [JoinOrdering::PwlAware, JoinOrdering::AsWritten] {
        for materialize_strata in [true, false] {
            for threads in [1, 4] {
                configs.push(EngineConfig {
                    join_ordering,
                    materialize_strata,
                    termination,
                    threads,
                });
            }
        }
    }
    configs
}

/// One all-free query per head predicate of a program over binary relations.
fn head_queries(program: &Program) -> Vec<ConjunctiveQuery> {
    let heads: BTreeSet<String> = program
        .iter()
        .map(|(_, tgd)| tgd.head[0].predicate.name().to_string())
        .collect();
    heads
        .iter()
        .map(|p| parse_query(&format!("?(X, Y) :- {p}(X, Y).")).unwrap())
        .collect()
}

/// Chase, semi-naive Datalog and every configuration of the bottom-up
/// engine materialise the same relations: the transitive closure and random
/// Datalog programs (mutual and non-linear recursion included) on random
/// graphs, and the non-linear closure — body atom 0 and a later atom share
/// `t`, so the loops' shared round schedule starts two positions of one
/// relation at different watermarks — on a graph that already holds `t` rows.
#[test]
fn materialising_engines_agree() {
    let mut rng = StdRng::seed_from_u64(31);
    let nonlinear = parse_rules("t(X, Y) :- edge(X, Y).\n t(X, Z) :- t(X, Y), t(Y, Z).").unwrap();
    for case in 0..8 {
        let db = arb_database(&mut rng);
        let random_program = arb_program(&mut rng);
        if db.is_empty() {
            continue;
        }
        // A generator of its own, so the draws above stay what they were.
        let mut seed_rng = StdRng::seed_from_u64(case);
        let mut seeded = db.clone();
        for _ in 0..3 {
            let (a, b) = (seed_rng.gen_range(0..8u32), seed_rng.gen_range(0..8u32));
            let t = Atom::fact("t", &[format!("n{a}").as_str(), format!("n{b}").as_str()]);
            seeded.insert(t).unwrap();
        }
        for (program, db) in [
            (tc_program(), &db),
            (random_program, &db),
            (nonlinear.clone(), &seeded),
        ] {
            let datalog = DatalogEngine::new(program.clone()).unwrap().evaluate(db);
            let chase = ChaseEngine::new(
                program.clone(),
                ChaseConfig::restricted(TerminationPolicy::Unbounded),
            )
            .run(db);
            assert!(chase.completed);
            let reasoners: Vec<(EngineConfig, ReasonerResult)> =
                reasoner_configs(TerminationPolicy::Unbounded)
                    .into_iter()
                    .map(|config| (config, Reasoner::new(&program, config).run(db)))
                    .collect();
            for query in head_queries(&program) {
                let truth = datalog.answers(&query);
                assert_eq!(
                    chase.instance_answers(&query),
                    truth,
                    "case {case}: chase diverged on {query}\n{program}"
                );
                for (config, reasoner) in &reasoners {
                    assert!(reasoner.completed);
                    assert_eq!(
                        reasoner.answers(&query),
                        truth,
                        "case {case}: reasoner {config:?} diverged on {query}\n{program}"
                    );
                }
            }
        }
    }
}

/// The cross-engine checks of the benchmark's `chase_warded` workload, at
/// test size: on programs with existentials, `ChaseEngine` and every
/// `Reasoner` configuration give the same answers to the workload's 2-hop
/// CQ and invent the same number of nulls, thread counts leave row layouts
/// untouched, and the oblivious chase agrees with the restricted one on
/// null-free answers.
#[test]
fn existential_programs_agree_across_engines_configurations_and_variants() {
    let two_hop_owl = parse_query("?(X, D) :- type(X, C), subclassStar(C, D).").unwrap();
    let two_hop_dex = parse_query("?(X, Z) :- link(X, Y), connected(Y, Z).").unwrap();
    let mut scenarios = Vec::new();
    for seed in 0..3u64 {
        let dex = data_exchange_scenario(2, 30, 12, seed);
        scenarios.push((
            format!("data exchange, seed {seed}"),
            dex.program,
            dex.database,
            TerminationPolicy::Unbounded,
            &two_hop_dex,
        ));
        scenarios.push((
            format!("OWL 2 QL, seed {seed}"),
            owl_program(),
            owl_database(15, 4, 30, seed),
            TerminationPolicy::MaxNullDepth(6),
            &two_hop_owl,
        ));
    }
    for (name, program, db, policy, query) in scenarios {
        let chase_with = |config: ChaseConfig| ChaseEngine::new(program.clone(), config).run(&db);
        let chase = chase_with(ChaseConfig::restricted(policy));
        let answers = chase.instance_answers(query);
        assert!(!answers.is_empty(), "{name}: the 2-hop CQ has no answers");
        assert!(chase.stats.nulls_created > 0, "{name}: no value invention");

        let chase_par = chase_with(ChaseConfig::restricted(policy).with_threads(4));
        assert_eq!(
            row_layout(&chase_par.instance),
            row_layout(&chase.instance),
            "{name}: chase row layout depends on the thread count"
        );
        assert_eq!(
            chase_with(ChaseConfig::oblivious(policy)).instance_answers(query),
            answers,
            "{name}: oblivious and restricted chase disagree on null-free answers"
        );

        let mut sequential_layout = Vec::new();
        for config in reasoner_configs(policy) {
            let reasoner = Reasoner::new(&program, config).run(&db);
            assert_eq!(
                reasoner.answers(query),
                answers,
                "{name}: reasoner {config:?} answers diverged from the chase"
            );
            assert_eq!(
                reasoner.stats.nulls_created, chase.stats.nulls_created,
                "{name}: reasoner {config:?} null count diverged from the chase"
            );
            assert_eq!(reasoner.completed, chase.completed, "{name}: {config:?}");
            let layout = row_layout(&reasoner.instance);
            if config.threads == 1 {
                sequential_layout = layout;
            } else {
                assert_eq!(
                    layout, sequential_layout,
                    "{name}: reasoner {config:?} row layout depends on the thread count"
                );
            }
        }
    }
}

/// The proof-tree decision procedure agrees with the materialised closure,
/// for every head predicate and every pair of the 8-node domain, on the
/// transitive closure and on random Datalog programs. Their chain rules make
/// some programs non-PWL, so both program classes of the one search run. A
/// search never gives up, and on the PWL programs the warded entry (the
/// search with decomposition) agrees with the linear one.
#[test]
fn decision_procedure_matches_ground_truth() {
    let mut rng = StdRng::seed_from_u64(32);
    for case in 0..8 {
        let db = arb_database(&mut rng);
        let random_program = arb_program(&mut rng);
        for program in [tc_program(), random_program] {
            let engine = CertainAnswerEngine::with_defaults(program.clone()).unwrap();
            let pwl = engine.is_piecewise_linear();
            let datalog = DatalogEngine::new(program.clone()).unwrap();
            for query in head_queries(&program) {
                let truth = datalog.answers(&db, &query);
                for (a, b) in (0..8).flat_map(|a| (0..8).map(move |b| (a, b))) {
                    let tuple = [Symbol::new(&format!("n{a}")), Symbol::new(&format!("n{b}"))];
                    let boolean = query.instantiate(&tuple).unwrap();
                    let decide = |search: SearchFn| {
                        let outcome = search(
                            engine.normalized_program(),
                            &db,
                            &boolean,
                            SearchOptions::default(),
                        );
                        assert!(
                            !matches!(outcome, SearchOutcome::Inconclusive { .. }),
                            "case {case}: {boolean} gave up\n{program}"
                        );
                        outcome.is_accepted()
                    };
                    let decided = if pwl {
                        decide(linear_proof_search)
                    } else {
                        decide(warded_proof_search)
                    };
                    assert_eq!(
                        decided,
                        truth.contains(&tuple[..]),
                        "case {case}: {boolean} (PWL: {pwl})\n{program}"
                    );
                    assert_eq!(
                        engine.is_certain_answer(&db, &query, &tuple).unwrap(),
                        decided,
                        "case {case}: the engine routes {boolean} to another search"
                    );
                    if pwl {
                        assert_eq!(
                            decide(warded_proof_search),
                            decided,
                            "case {case}: the warded entry disagrees on {boolean}\n{program}"
                        );
                    }
                }
            }
        }
    }
}

/// The proof search agrees with the restricted chase on programs with
/// existential heads, whose chase terminates: random warded programs that
/// invent values from random Datalog relations and copy, join and close them
/// over, and the data-exchange scenario at toy size. The queries repeat a
/// variable or join through a variable that is not output, the two ways a
/// state can force a null to equal another term. Both search entries decide
/// every tuple when the program is PWL, the warded one always, except that
/// a join through the data exchange's recursive `connected` is left to the
/// warded entry: there the linear entry exhausts its state cap at width 8
/// (ROADMAP item 23).
#[test]
fn existential_decisions_match_the_restricted_chase() {
    let mut rng = StdRng::seed_from_u64(32);
    let mut scenarios = Vec::new();
    for case in 0..8 {
        let db = arb_database(&mut rng);
        let (program, heads) = arb_existential_program(&mut rng);
        let mut queries = Vec::new();
        for h in &heads {
            queries.push((format!("? :- {h}(Y, Y)."), true));
            for g in &heads {
                queries.push((format!("?(A) :- {h}(A, Y), {g}(Y, Y)."), true));
                queries.push((format!("?(A) :- {h}(A, Y), {g}(A, Y)."), true));
            }
        }
        scenarios.push((format!("case {case}"), program, db, queries));
    }
    for seed in 0..2 {
        let dex = data_exchange_scenario(2, 4, 4, seed);
        let queries = [
            ("? :- tgt_0(A, Y, Y).", true),
            ("?(A) :- tgt_0(A, B, Z), tgt_1(A, C, Z).", true),
            ("?(A, B) :- tgt_0(A, Y, Z), link(Y, B).", true),
            ("?(A) :- tgt_1(A, Y, Z), link(Y, A).", true),
            ("?(A) :- tgt_0(A, Y, Z), connected(Y, A).", false),
        ];
        let queries = queries
            .iter()
            .map(|(q, linear)| (q.to_string(), *linear))
            .collect();
        scenarios.push((
            format!("data exchange, seed {seed}"),
            dex.program,
            dex.database,
            queries,
        ));
    }
    for (name, program, db, queries) in scenarios {
        let engine = CertainAnswerEngine::with_defaults(program.clone())
            .unwrap_or_else(|e| panic!("{name}: {e}\n{program}"));
        let pwl = engine.is_piecewise_linear();
        let chase = ChaseEngine::new(
            program.clone(),
            ChaseConfig::restricted(TerminationPolicy::Unbounded),
        )
        .run(&db);
        assert!(chase.completed, "{name}: the chase did not terminate");
        let domain: Vec<Symbol> = db.domain().into_iter().collect();
        for (query, linear) in &queries {
            let query = parse_query(query).unwrap();
            let tuples: Vec<Vec<Symbol>> = match query.output.len() {
                0 => vec![vec![]],
                1 => domain.iter().map(|a| vec![*a]).collect(),
                _ => domain
                    .iter()
                    .flat_map(|a| domain.iter().map(move |b| vec![*a, *b]))
                    .collect(),
            };
            let truth = chase.instance_answers(&query);
            for tuple in tuples {
                let boolean = query.instantiate(&tuple).unwrap();
                let decide = |search: SearchFn| {
                    let outcome = search(
                        engine.normalized_program(),
                        &db,
                        &boolean,
                        SearchOptions::default(),
                    );
                    assert!(
                        !matches!(outcome, SearchOutcome::Inconclusive { .. }),
                        "{name}: {boolean} gave up\n{program}"
                    );
                    outcome.is_accepted()
                };
                let expected = truth.contains(&tuple);
                assert_eq!(
                    decide(warded_proof_search),
                    expected,
                    "{name}: {boolean} (PWL: {pwl})\n{program}"
                );
                if pwl && *linear {
                    assert_eq!(
                        decide(linear_proof_search),
                        expected,
                        "{name}: the linear entry on {boolean}\n{program}"
                    );
                }
            }
        }
    }
}

/// A random warded program with existential heads over [`arb_program`]'s
/// Datalog relations: one or two value-inventing rules `r{k}` read only
/// `p` relations, and copy, join and closure rules over `s` read the
/// invented relations, so the restricted chase invents finitely many nulls
/// and terminates. Draws that are not warded are drawn again. Returns the
/// program with the head predicates the invented values reach.
fn arb_existential_program(rng: &mut StdRng) -> (Program, Vec<String>) {
    loop {
        let mut src = arb_program(rng).to_string();
        let inventions = rng.gen_range(1..3u32);
        for k in 0..inventions {
            let a = rng.gen_range(0..4u32);
            src.push_str(&match rng.gen_range(0..3u32) {
                0 => format!("r{k}(X, Z) :- p{a}(X, Y).\n"),
                1 => format!("r{k}(Z, X) :- p{a}(Y, X).\n"),
                _ => format!("r{k}(X, Z) :- p{a}(X, X).\n"),
            });
        }
        for _ in 0..rng.gen_range(1..4u32) {
            let k = rng.gen_range(0..inventions);
            let j = rng.gen_range(0..inventions);
            let a = rng.gen_range(0..4u32);
            src.push_str(&match rng.gen_range(0..4u32) {
                0 => format!("s(X, Y) :- r{k}(X, Y).\n"),
                1 => format!("s(X, Z) :- r{k}(X, Y), p{a}(Y, Z).\n"),
                2 => format!("s(X, Z) :- r{k}(X, Y), r{j}(Z, Y).\n"),
                _ => format!("s(X, Y) :- r{k}(X, Y).\n s(X, Z) :- s(X, Y), s(Y, Z).\n"),
            });
        }
        let program = parse_rules(&src).expect("generated program parses");
        if is_warded(&program) {
            let mut heads: Vec<String> = (0..inventions).map(|k| format!("r{k}")).collect();
            heads.push("s".to_string());
            return (program, heads);
        }
    }
}

/// The signature shared by the two entries of the proof search.
type SearchFn = fn(&Program, &Database, &ConjunctiveQuery, SearchOptions) -> SearchOutcome;

/// A randomly generated *plain Datalog* program over binary predicates
/// `p0..p3` seeded from the `edge` EDB relation: every program starts with
/// `p0(X, Y) :- edge(X, Y).` and adds chain, copy and join rules between the
/// `p` predicates, so recursion (including mutual recursion) arises freely.
fn arb_program(rng: &mut StdRng) -> Program {
    let mut src = String::from("p0(X, Y) :- edge(X, Y).\n");
    let n_rules = rng.gen_range(2..7usize);
    for _ in 0..n_rules {
        let head = rng.gen_range(0..4u32);
        match rng.gen_range(0..4u32) {
            // Copy rule: pk(X, Y) :- pa(X, Y).
            0 => {
                let a = rng.gen_range(0..4u32);
                src.push_str(&format!("p{head}(X, Y) :- p{a}(X, Y).\n"));
            }
            // Chain rule: pk(X, Z) :- pa(X, Y), pb(Y, Z).
            1 => {
                let a = rng.gen_range(0..4u32);
                let b = rng.gen_range(0..4u32);
                src.push_str(&format!("p{head}(X, Z) :- p{a}(X, Y), p{b}(Y, Z).\n"));
            }
            // Intersection rule: pk(X, Y) :- pa(X, Y), pb(X, Y) — both
            // columns of the second atom are bound at once, the shape the
            // composite fused-key probes answer.
            2 => {
                let a = rng.gen_range(0..4u32);
                let b = rng.gen_range(0..4u32);
                src.push_str(&format!("p{head}(X, Y) :- p{a}(X, Y), p{b}(X, Y).\n"));
            }
            // Edge-extension rule: pk(X, Z) :- edge(X, Y), pa(Y, Z).
            _ => {
                let a = rng.gen_range(0..4u32);
                src.push_str(&format!("p{head}(X, Z) :- edge(X, Y), p{a}(Y, Z).\n"));
            }
        }
    }
    parse_rules(&src).expect("generated program parses")
}

/// The canonical per-relation row layout, for asserting bit-identical
/// materialisation across thread counts.
fn row_layout(instance: &Instance) -> Vec<(String, Vec<String>)> {
    instance.row_layout()
}

/// Sharded parallel evaluation must be **bit-identical** to sequential
/// evaluation on randomized programs: same answer sets, same per-relation
/// row-id orderings, and the same `joins_evaluated` / `join_probes` totals.
#[test]
fn sharded_datalog_is_bit_identical_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(34);
    for case in 0..10 {
        let db = arb_database(&mut rng);
        let program = arb_program(&mut rng);
        if db.is_empty() {
            continue;
        }
        let sequential = DatalogEngine::new(program.clone()).unwrap().evaluate(&db);
        for threads in [2usize, 4, 8] {
            let sharded = DatalogEngine::new(program.clone())
                .unwrap()
                .with_threads(threads)
                .evaluate(&db);
            assert_eq!(
                sharded.stats.derived_atoms, sequential.stats.derived_atoms,
                "case {case}, {threads} threads: derived atoms diverged"
            );
            assert_eq!(
                sharded.stats.joins_evaluated, sequential.stats.joins_evaluated,
                "case {case}, {threads} threads: joins_evaluated diverged"
            );
            assert_eq!(
                sharded.stats.join_probes, sequential.stats.join_probes,
                "case {case}, {threads} threads: join_probes diverged"
            );
            assert_eq!(
                sharded.stats.rows_prededuped, sequential.stats.rows_prededuped,
                "case {case}, {threads} threads: worker pre-dedup diverged"
            );
            assert_eq!(
                sharded.stats.composite_probes, sequential.stats.composite_probes,
                "case {case}, {threads} threads: composite probes diverged"
            );
            assert_eq!(
                sharded.stats.probe_misses_filtered, sequential.stats.probe_misses_filtered,
                "case {case}, {threads} threads: fingerprint skips diverged"
            );
            assert_eq!(
                row_layout(&sharded.instance),
                row_layout(&sequential.instance),
                "case {case}, {threads} threads: row-id ordering diverged"
            );
            for p in 0..4 {
                let q = parse_query(&format!("?(X, Y) :- p{p}(X, Y).")).unwrap();
                assert_eq!(sharded.answers(&q), sequential.answers(&q));
                // The sharded CQ kernel answers identically at every thread
                // count, through both the instance-level and engine-level
                // entry points.
                assert_eq!(
                    q.evaluate_with_threads(&sharded.instance, threads),
                    sequential.answers(&q),
                    "case {case}, {threads} threads: sharded CQ answers diverged"
                );
            }
        }
    }
}

/// On existential-free programs the restricted chase is Datalog: every step
/// derives one new row, the chased instance holds `DatalogEngine::evaluate`'s
/// rows relation by relation, and its row layout does not depend on the
/// thread count. These are the programs whose heads the chase applies as
/// packed row batches.
#[test]
fn restricted_chase_equals_datalog_on_existential_free_programs() {
    let mut rng = StdRng::seed_from_u64(36);
    for case in 0..12 {
        let db = arb_database(&mut rng);
        let program = arb_program(&mut rng);
        if db.is_empty() {
            continue;
        }
        let datalog = DatalogEngine::new(program.clone()).unwrap().evaluate(&db);
        let chase_with = |threads| {
            ChaseEngine::new(
                program.clone(),
                ChaseConfig::restricted(TerminationPolicy::Unbounded).with_threads(threads),
            )
            .run(&db)
        };
        let chase = chase_with(1);
        assert!(chase.completed, "case {case}\n{program}");
        assert_eq!(chase.stats.nulls_created, 0, "case {case}\n{program}");
        assert_eq!(
            chase.stats.steps, chase.stats.derived_atoms,
            "case {case}: a step without a new row\n{program}"
        );
        assert_eq!(
            chase.stats.derived_atoms, datalog.stats.derived_atoms,
            "case {case}\n{program}"
        );
        assert_eq!(
            chase.instance.sorted_row_layout(),
            datalog.instance.sorted_row_layout(),
            "case {case}: chase and Datalog materialised different rows\n{program}"
        );
        assert_eq!(
            row_layout(&chase_with(4).instance),
            row_layout(&chase.instance),
            "case {case}: chase row layout depends on the thread count\n{program}"
        );
    }
}

/// Parallel trigger detection in the chase and the bottom-up executor must
/// not change results either: both apply heads sequentially in task order,
/// so instances (row order included) and counters coincide with the
/// sequential run.
#[test]
fn parallel_chase_and_reasoner_match_sequential_runs() {
    let mut rng = StdRng::seed_from_u64(35);
    for _ in 0..6 {
        let db = arb_database(&mut rng);
        if db.is_empty() {
            continue;
        }
        let program = tc_program();

        let chase_seq = ChaseEngine::new(
            program.clone(),
            ChaseConfig::restricted(TerminationPolicy::Unbounded),
        )
        .run(&db);
        let chase_par = ChaseEngine::new(
            program.clone(),
            ChaseConfig::restricted(TerminationPolicy::Unbounded).with_threads(4),
        )
        .run(&db);
        assert_eq!(chase_par.stats.steps, chase_seq.stats.steps);
        assert_eq!(
            row_layout(&chase_par.instance),
            row_layout(&chase_seq.instance)
        );

        let reasoner_seq = Reasoner::new(&program, EngineConfig::default()).run(&db);
        let reasoner_par = Reasoner::new(
            &program,
            EngineConfig {
                threads: 4,
                ..EngineConfig::default()
            },
        )
        .run(&db);
        assert_eq!(
            reasoner_par.stats.join_probes,
            reasoner_seq.stats.join_probes
        );
        assert_eq!(
            row_layout(&reasoner_par.instance),
            row_layout(&reasoner_seq.instance)
        );
    }
}

/// Enumeration through the engine (rewriting or chase fallback) equals the
/// semi-naive ground truth.
#[test]
fn enumeration_matches_ground_truth() {
    let mut rng = StdRng::seed_from_u64(33);
    for _ in 0..8 {
        let db = arb_database(&mut rng);
        if db.is_empty() {
            continue;
        }
        let program = tc_program();
        let query = parse_query("?(X, Y) :- t(X, Y).").unwrap();
        let truth = DatalogEngine::new(program.clone())
            .unwrap()
            .answers(&db, &query);
        let engine = CertainAnswerEngine::with_defaults(program).unwrap();
        assert_eq!(engine.all_answers(&db, &query).unwrap(), truth);
    }
}
