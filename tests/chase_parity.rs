//! Pinned chase counters: `ChaseEngine` and `Reasoner` on small instances of
//! the `chase_warded` benchmark's two scenarios must reproduce, number for
//! number, the counters and row layouts recorded below.
//!
//! The chase applies the head of an existential-free single-atom rule as a
//! packed row batch and every other head trigger by trigger; both head
//! actions must leave results, null ids and every counter exactly where the
//! trigger-by-trigger chase put them. The table was recorded with the
//! trigger-by-trigger chase, so any drift of `steps`, `nulls_created`,
//! `derived_atoms`, `triggers_examined`, `join_probes`, `rounds`,
//! `completed` or a single row id fails here.
//!
//! This file holds one test on purpose: the interner is process-wide, and a
//! sole test interns its symbols in the same order on every run.

use vadalog::benchgen::{data_exchange_scenario, owl_database, owl_program};
use vadalog::chase::{ChaseConfig, ChaseEngine, ChaseStats, TerminationPolicy};
use vadalog::engine::{EngineConfig, Reasoner};
use vadalog::model::{Database, Instance, Program};

/// What one run is pinned to: `steps`, `nulls_created`, `derived_atoms`,
/// `triggers_examined`, `join_probes`, `rounds`, `completed` and an FNV-1a
/// digest of the row layout.
type Pin = (usize, usize, usize, usize, usize, usize, bool, u64);

/// Per scenario and seed, the chase's pin and the reasoner's pin.
#[rustfmt::skip]
const EXPECTED: &[(&str, u64, Pin, Pin)] = &[
    ("data exchange", 0, (956, 175, 956, 4406, 5187, 7, true, 4210136117185065096), (956, 175, 956, 4406, 5031, 9, true, 15829456767295391496)),
    ("OWL 2 QL", 0, (290, 42, 290, 544, 1244, 7, true, 8190941493045178849), (290, 42, 290, 510, 1158, 11, true, 5731489949871471339)),
    ("data exchange", 1, (964, 176, 964, 4590, 5378, 7, true, 2205925850953924808), (964, 176, 964, 4590, 5215, 9, true, 14636530126220409052)),
    ("OWL 2 QL", 1, (250, 16, 250, 512, 1132, 6, true, 8061010550980852780), (250, 16, 250, 471, 1040, 10, true, 8617115815764119462)),
    ("data exchange", 2, (967, 176, 967, 4668, 5459, 6, true, 8705482844063523041), (967, 176, 967, 4668, 5293, 8, true, 2411907749042900023)),
    ("OWL 2 QL", 2, (245, 27, 245, 431, 1041, 6, true, 6865676896806584751), (245, 27, 245, 399, 963, 9, true, 6431514647680924019)),
];

/// FNV-1a over the row layout (relations by name, rows in row-id order): a
/// digest that is stable across processes and toolchains.
fn layout_digest(instance: &Instance) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (name, rows) in instance.row_layout() {
        feed(name.as_bytes());
        feed(&[0xff]);
        for row in rows {
            feed(row.as_bytes());
            feed(&[0xfe]);
        }
    }
    hash
}

fn pin(stats: &ChaseStats, completed: bool, instance: &Instance) -> Pin {
    (
        stats.steps,
        stats.nulls_created,
        stats.derived_atoms,
        stats.triggers_examined,
        stats.join_probes,
        stats.rounds,
        completed,
        layout_digest(instance),
    )
}

#[test]
fn chase_and_reasoner_counters_match_the_pinned_values() {
    let mut scenarios: Vec<(&str, u64, Program, Database, TerminationPolicy)> = Vec::new();
    for seed in [0, 1, 2] {
        let dex = data_exchange_scenario(3, 60, 25, seed);
        scenarios.push((
            "data exchange",
            seed,
            dex.program,
            dex.database,
            TerminationPolicy::Unbounded,
        ));
        scenarios.push((
            "OWL 2 QL",
            seed,
            owl_program(),
            owl_database(20, 4, 60, seed),
            TerminationPolicy::MaxNullDepth(6),
        ));
    }
    let mut actual = Vec::new();
    for (name, seed, program, db, policy) in &scenarios {
        let mut chase_pins = Vec::new();
        let mut reasoner_pins = Vec::new();
        for threads in [1, 4] {
            let chase = ChaseEngine::new(
                program.clone(),
                ChaseConfig::restricted(*policy).with_threads(threads),
            )
            .run(db);
            chase_pins.push(pin(&chase.stats, chase.completed, &chase.instance));
            let config = EngineConfig {
                threads,
                ..EngineConfig::default()
            };
            let reasoner = Reasoner::new(program, config).run(db);
            reasoner_pins.push(pin(&reasoner.stats, reasoner.completed, &reasoner.instance));
        }
        assert_eq!(
            chase_pins[0], chase_pins[1],
            "{name}, seed {seed}: the chase depends on the thread count"
        );
        assert_eq!(
            reasoner_pins[0], reasoner_pins[1],
            "{name}, seed {seed}: the reasoner depends on the thread count"
        );
        actual.push((*name, *seed, chase_pins[0], reasoner_pins[0]));
    }
    let table: String = actual.iter().map(|row| format!("    {row:?},\n")).collect();
    assert_eq!(
        actual, EXPECTED,
        "pinned chase counters drifted; the run gave\n{table}"
    );
}
