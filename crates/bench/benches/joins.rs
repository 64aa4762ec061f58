//! Joins — the zero-allocation join kernel versus the seed algorithm.
//!
//! Two workloads exercise the storage + join layer in isolation:
//!
//! * **transitive-closure materialisation** over a 200-node random graph
//!   (semi-naive Datalog; the kernel streams derivations, the baseline
//!   clones rule bodies and `BTreeMap` substitutions per candidate);
//! * **join-heavy CQ evaluation** (a 3-hop path query) over the
//!   materialised closure.
//!
//! The acceptance bar for the columnar-store/kernel rewrite was a ≥ 3×
//! speedup on the transitive-closure workload.

use criterion::{criterion_group, criterion_main, Criterion};
use std::ops::ControlFlow;
use vadalog_bench::{program, seed_reference, LINEAR_TC};
use vadalog_benchgen::graphs::random_graph;
use vadalog_datalog::DatalogEngine;
use vadalog_model::homomorphism::reference::homomorphisms_reference;
use vadalog_model::{Atom, HomSearch, JoinSpec, Matcher, Substitution, Term};

fn path3_pattern() -> Vec<Atom> {
    let v = Term::variable;
    vec![
        Atom::new("t", vec![v("X"), v("Y")]),
        Atom::new("t", vec![v("Y"), v("Z")]),
        Atom::new("t", vec![v("Z"), v("W")]),
    ]
}

fn joins(c: &mut Criterion) {
    let tc = program(LINEAR_TC);
    // 200 nodes, sparse enough that the seed baseline finishes in reasonable
    // time, dense enough that the closure is join-heavy.
    let db = random_graph(200, 400, 42);

    let mut group = c.benchmark_group("joins_tc_materialization_200");
    group.sample_size(10);
    let engine = DatalogEngine::new(tc.clone()).unwrap();
    group.bench_function("kernel_semi_naive", |b| {
        b.iter(|| {
            let result = engine.evaluate(&db);
            assert!(result.stats.derived_atoms > 0);
            result.stats.derived_atoms
        })
    });
    group.sample_size(3);
    group.bench_function("seed_reference_semi_naive", |b| {
        b.iter(|| {
            let (_, stats) = seed_reference::evaluate(&tc, &db);
            assert!(stats.derived_atoms > 0);
            stats.derived_atoms
        })
    });
    group.finish();

    // CQ evaluation over a materialised closure — of a sparser graph than
    // the TC workload: the baseline materialises every answer substitution,
    // and a 3-hop pattern over a dense closure has too many answers for it
    // to finish in sensible time.
    let closure = engine.evaluate(&random_graph(200, 260, 42)).instance;
    let pattern = path3_pattern();
    let mut group = c.benchmark_group("joins_cq_path3");
    group.sample_size(10);
    group.bench_function("kernel", |b| {
        let spec = JoinSpec::compile(&pattern);
        b.iter(|| {
            let mut matcher = Matcher::new(&spec);
            let mut count = 0u64;
            matcher.for_each(&closure, |_| {
                count += 1;
                ControlFlow::Continue(())
            });
            count
        })
    });
    group.sample_size(3);
    group.bench_function("seed_reference", |b| {
        b.iter(|| {
            homomorphisms_reference(&pattern, &closure, &Substitution::new(), HomSearch::all())
                .len()
        })
    });
    group.finish();
}

criterion_group!(benches, joins);
criterion_main!(benches);
