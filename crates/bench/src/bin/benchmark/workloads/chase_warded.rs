//! `chase_warded` — programs with existentials, which the Datalog engines
//! refuse.
//!
//! One repetition runs the data-exchange scenario and the OWL 2 QL program
//! of Example 3.3, each through `ChaseEngine` (restricted, no provenance;
//! `Unbounded` for data exchange, `MaxNullDepth(6)` for OWL) and through
//! `Reasoner::new(_, EngineConfig::default())`, and answers a 2-hop CQ over
//! every result: the other two of the repository's three fixpoint loops.
//!
//! How much an OWL ontology derives depends on where its random restriction
//! classes land in its random hierarchy — chase steps differ twofold between
//! seeds — so the OWL share is spread over several independent ontologies
//! per run, which keeps the total steady from seed to seed.

use super::{
    library_end_to_end, median_us, repetitions, seconds_of, timed_setup, write_spans, SETUP_ROUNDS,
};
use crate::oracle::{Closure, Graph};
use crate::report::Outcome;
use crate::spans::Recorder;
use std::collections::BTreeSet;
use vadalog_benchgen::{data_exchange_scenario, owl_database, owl_program};
use vadalog_chase::{ChaseConfig, ChaseEngine, ChaseResult, TerminationPolicy};
use vadalog_engine::optimizer::optimize;
use vadalog_engine::{EngineConfig, Reasoner, ReasonerResult};
use vadalog_model::parser::parse_query;
use vadalog_model::{ConjunctiveQuery, Database, Program, Symbol};

/// Source relations of the data-exchange scenario.
pub const DEX_WIDTH: usize = 3;
/// Rows per source relation.
pub const DEX_ROWS: usize = 1000;
/// Constants the rows are drawn from.
pub const DEX_DOMAIN: usize = 200;
/// Independent OWL ontologies per run.
pub const OWL_ONTOLOGIES: usize = 6;
/// Classes of each ontology.
pub const OWL_CLASSES: usize = 120;
/// Properties of each ontology.
pub const OWL_PROPERTIES: usize = 12;
/// Individuals of each ontology.
pub const OWL_INDIVIDUALS: usize = 1200;

/// Timed repetitions at the frozen eight seconds (one takes about 3 s).
pub const REPETITIONS: u64 = 4;

/// Library calls one repetition makes: two runs and two CQs per scenario.
const CALLS: u64 = 4 * (1 + OWL_ONTOLOGIES as u64);

/// One scenario: program, database, the engines over it and its 2-hop CQ.
struct Scenario {
    program: Program,
    database: Database,
    chase: ChaseEngine,
    reasoner: Reasoner,
    query: ConjunctiveQuery,
}

impl Scenario {
    fn new(
        program: Program,
        database: Database,
        policy: TerminationPolicy,
        query: &str,
    ) -> Scenario {
        let config = ChaseConfig {
            record_provenance: false,
            ..ChaseConfig::restricted(policy)
        };
        Scenario {
            chase: ChaseEngine::new(program.clone(), config),
            reasoner: Reasoner::new(&program, EngineConfig::default()),
            query: parse_query(query).expect("scenario query parses"),
            program,
            database,
        }
    }
}

struct Rig {
    dex: Scenario,
    owl: Vec<Scenario>,
    dex_graph: Graph,
    /// The closure of the source links: what `connected` must hold.
    dex_closure: Closure,
}

/// What both engines made of one scenario.
struct Pair {
    chase: ChaseResult,
    reasoner: ReasonerResult,
    chase_answers: BTreeSet<Vec<Symbol>>,
    reasoner_answers: BTreeSet<Vec<Symbol>>,
}

/// What one repetition produced, kept for the oracle and cross-engine
/// checks.
struct Results {
    dex: Pair,
    owl: Vec<Pair>,
}

fn set_up(seed: u64) -> Rig {
    let dex = data_exchange_scenario(DEX_WIDTH, DEX_ROWS, DEX_DOMAIN, seed);
    let dex_graph = Graph::of_data_exchange_sources(&dex.database, DEX_WIDTH);
    let dex_closure = Closure::of(&dex_graph);
    let owl = (0..OWL_ONTOLOGIES as u64)
        .map(|i| {
            Scenario::new(
                owl_program(),
                owl_database(
                    OWL_CLASSES,
                    OWL_PROPERTIES,
                    OWL_INDIVIDUALS,
                    seed.wrapping_mul(OWL_ONTOLOGIES as u64).wrapping_add(i),
                ),
                TerminationPolicy::MaxNullDepth(6),
                "?(X, D) :- type(X, C), subclassStar(C, D).",
            )
        })
        .collect();
    let rig = Rig {
        dex: Scenario::new(
            dex.program,
            dex.database,
            TerminationPolicy::Unbounded,
            "?(X, Z) :- link(X, Y), connected(Y, Z).",
        ),
        owl,
        dex_graph,
        dex_closure,
    };
    // Warm-up: one unchecked repetition.
    repetition(&mut Recorder::new(false), &rig);
    rig
}

/// Both engines over one scenario, each library call in its own span.
fn run_pair(recorder: &mut Recorder, scenario: &Scenario, spans: [&'static str; 4]) -> Pair {
    let chase = recorder.span(spans[0], |_| scenario.chase.run(&scenario.database));
    let chase_answers = recorder.span(spans[1], |_| chase.instance_answers(&scenario.query));
    let reasoner = recorder.span(spans[2], |_| scenario.reasoner.run(&scenario.database));
    let reasoner_answers = recorder.span(spans[3], |_| reasoner.answers(&scenario.query));
    Pair {
        chase,
        reasoner,
        chase_answers,
        reasoner_answers,
    }
}

const DEX_SPANS: [&str; 4] = [
    "chase.run.data_exchange",
    "chase.answers.data_exchange",
    "engine.run.data_exchange",
    "engine.answers.data_exchange",
];
const OWL_SPANS: [&str; 4] = [
    "chase.run.owl",
    "chase.answers.owl",
    "engine.run.owl",
    "engine.answers.owl",
];

/// One repetition.
fn repetition(recorder: &mut Recorder, rig: &Rig) -> Results {
    recorder.next_op();
    Results {
        dex: run_pair(recorder, &rig.dex, DEX_SPANS),
        owl: rig
            .owl
            .iter()
            .map(|ontology| run_pair(recorder, ontology, OWL_SPANS))
            .collect(),
    }
}

/// The oracle and cross-engine checks on one repetition's results.
fn check(outcome: &mut Outcome, rig: &Rig, results: &Results) {
    let dex = &results.dex;
    outcome.check(dex.chase.completed, || {
        "the data-exchange chase did not reach a fixpoint".into()
    });
    for (engine, instance) in [
        ("chase", &dex.chase.instance),
        ("reasoner", &dex.reasoner.instance),
    ] {
        let checked = rig
            .dex_closure
            .check_relation(&rig.dex_graph, instance, "connected");
        outcome.check(checked.is_ok(), || {
            format!("data exchange, {engine}: {}", checked.clone().unwrap_err())
        });
    }
    let two_hop = rig.dex_closure.edge_then_closure_pairs(&rig.dex_graph);
    outcome.check(dex.chase_answers.len() as u64 == two_hop, || {
        format!(
            "data exchange 2-hop CQ: {} answers, the closure oracle says {two_hop}",
            dex.chase_answers.len()
        )
    });
    // Each distinct source fact invents exactly one target identifier.
    let source_facts = rig.dex.database.len();
    outcome.check(dex.chase.stats.nulls_created == source_facts, || {
        format!(
            "data exchange chase invented {} nulls for {source_facts} source facts",
            dex.chase.stats.nulls_created
        )
    });
    // ChaseEngine and Reasoner must agree on answers and null counts.
    for (scenario, pair) in std::iter::once(("data exchange", dex))
        .chain(results.owl.iter().map(|pair| ("OWL 2 QL", pair)))
    {
        outcome.check(pair.chase_answers == pair.reasoner_answers, || {
            format!(
                "{scenario}: ChaseEngine gives {} answers, Reasoner {}",
                pair.chase_answers.len(),
                pair.reasoner_answers.len()
            )
        });
        outcome.check(
            pair.chase.stats.nulls_created == pair.reasoner.stats.nulls_created,
            || {
                format!(
                    "{scenario}: ChaseEngine invented {} nulls, Reasoner {}",
                    pair.chase.stats.nulls_created, pair.reasoner.stats.nulls_created
                )
            },
        );
        outcome.check(!pair.chase_answers.is_empty(), || {
            format!("{scenario}: the 2-hop CQ has no answers")
        });
    }
}

/// Chase statistics summed over the OWL ontologies.
fn owl_totals(results: &Results) -> (usize, usize, usize) {
    results
        .owl
        .iter()
        .fold((0, 0, 0), |(steps, nulls, atoms), pair| {
            (
                steps + pair.chase.stats.steps,
                nulls + pair.chase.stats.nulls_created,
                atoms + pair.chase.stats.final_atoms,
            )
        })
}

fn note_sizes(outcome: &mut Outcome, rig: &Rig, results: &Results) {
    let (owl_steps, owl_nulls, owl_atoms) = owl_totals(results);
    outcome.note(format!(
        "sizes: data_exchange_scenario({DEX_WIDTH}, {DEX_ROWS}, {DEX_DOMAIN}, seed) = {} facts, \
         {} chase steps, {} nulls, {} atoms; {OWL_ONTOLOGIES} x owl_database({OWL_CLASSES}, \
         {OWL_PROPERTIES}, {OWL_INDIVIDUALS}, _) = {owl_steps} chase steps, {owl_nulls} nulls, \
         {owl_atoms} atoms in all",
        rig.dex.database.len(),
        results.dex.chase.stats.steps,
        results.dex.chase.stats.nulls_created,
        results.dex.chase.stats.final_atoms,
    ));
}

/// The untraced pass.
pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut outcome = Outcome::default();
    let (rig, setup_s) = timed_setup(SETUP_ROUNDS, || set_up(seed));
    let mut off = Recorder::new(false);
    let mut walls = Vec::new();
    for rep in 0..repetitions(seconds, REPETITIONS) {
        let (results, wall) = seconds_of(|| repetition(&mut off, &rig));
        walls.push(wall);
        check(&mut outcome, &rig, &results);
        if rep == 0 {
            note_sizes(&mut outcome, &rig, &results);
        }
    }
    library_end_to_end(&mut outcome, setup_s, &walls, CALLS);
    outcome
}

/// The traced pass.
pub fn trace(seed: u64, seconds: u64) -> Outcome {
    let mut outcome = Outcome::default();
    let rig = set_up(seed);
    let mut recorder = Recorder::new(true);
    let mut walls = [Vec::new(), Vec::new()];
    let mut last = None;
    for _ in 0..repetitions(seconds, REPETITIONS).min(2) {
        let mut off = Recorder::new(false);
        walls[0].push(seconds_of(|| repetition(&mut off, &rig)).1);
        let (results, wall) = seconds_of(|| repetition(&mut recorder, &rig));
        walls[1].push(wall);
        check(&mut outcome, &rig, &results);
        last = Some(results);
    }
    super::set_overhead_ratio(&mut outcome, &walls[1], &walls[0]);
    let results = last.expect("at least one traced repetition");
    note_sizes(&mut outcome, &rig, &results);

    // One data-exchange span and OWL_ONTOLOGIES OWL spans per repetition.
    let per_repetition_s = |name: &str| -> f64 {
        recorder.durations_us(name).iter().sum::<f64>() / walls[1].len() as f64 / 1e6
    };
    let chase_s = per_repetition_s("chase.run.data_exchange") + per_repetition_s("chase.run.owl");
    let (owl_steps, owl_nulls, _) = owl_totals(&results);
    let steps = results.dex.chase.stats.steps + owl_steps;
    outcome.set("chase.run_s", chase_s);
    outcome.set("chase.steps", steps as f64);
    outcome.set(
        "chase.nulls_created",
        (results.dex.chase.stats.nulls_created + owl_nulls) as f64,
    );
    outcome.set(
        "chase.peak_atoms",
        results.dex.chase.stats.peak_atoms as f64,
    );
    outcome.set("chase.us_per_step", chase_s * 1e6 / steps as f64);
    outcome.set(
        "chase.answers_ms",
        (per_repetition_s("chase.answers.data_exchange") + per_repetition_s("chase.answers.owl"))
            * 1e3,
    );
    outcome.set(
        "engine.run_s",
        per_repetition_s("engine.run.data_exchange") + per_repetition_s("engine.run.owl"),
    );
    let reasoners = || {
        std::iter::once(&results.dex)
            .chain(&results.owl)
            .map(|p| &p.reasoner.stats)
    };
    outcome.set(
        "engine.join_probes",
        reasoners().map(|s| s.join_probes).sum::<usize>() as f64,
    );
    outcome.set(
        "engine.rounds",
        reasoners().map(|s| s.rounds).sum::<usize>() as f64,
    );
    outcome.set(
        "engine.peak_atoms",
        results.dex.reasoner.stats.peak_atoms as f64,
    );

    let config = EngineConfig::default();
    for _ in 0..50 {
        recorder.next_op();
        recorder.span("engine.optimize", |_| {
            (
                optimize(&rig.dex.program, &config),
                optimize(&rig.owl[0].program, &config),
            )
        });
        recorder.span("analysis.analyze", |_| {
            (
                vadalog_analysis::analyze(&rig.dex.program),
                vadalog_analysis::analyze(&rig.owl[0].program),
            )
        });
    }
    outcome.set(
        "engine.optimize_us",
        median_us(&recorder, "engine.optimize"),
    );
    outcome.set(
        "analysis.analyze_us",
        median_us(&recorder, "analysis.analyze"),
    );
    write_spans(&mut outcome, "chase_warded", &recorder);
    outcome
}
