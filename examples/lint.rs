//! Static program linter: runs the multi-pass diagnostics engine over
//! Vadalog source files or over the built-in benchmark scenario suites.
//!
//! Usage:
//!
//! ```text
//! cargo run --example lint -- <file.vada> [more files ...]
//! cargo run --example lint -- --scenarios
//! ```
//!
//! File mode parses the full surface syntax (facts, rules, queries),
//! analyses the rules against the fact section's schema, and prints every
//! diagnostic as its stable one-line form (`VLG0xx <severity> ... ::
//! <message>`). Files carrying a query additionally get the exact plan
//! report the service's `EXPLAIN` verb would return for it — adornment,
//! the magic-vs-full decision (with the fallback reason when the query
//! cannot be specialised), the rewrite, and the build/probe join plan —
//! rendered by the one shared [`explain_query`] path, so the CLI and the
//! wire protocol cannot drift. Scenario mode lints the generated TC,
//! composite-key join, OWL 2 QL and data-exchange suites and fails if any
//! of them produces an error-severity finding — CI runs this as a
//! regression gate.
//!
//! The process exits non-zero iff any error-severity diagnostic was
//! emitted.

use std::collections::BTreeMap;
use std::process::ExitCode;
use vadalog::analysis::classify::classify_with_diagnostics;
use vadalog::analysis::diagnostics::{analyze_with, AnalyzerOptions, DiagnosticReport, Severity};
use vadalog::analysis::stratify::stratify;
use vadalog::benchgen;
use vadalog::datalog::explain_query;
use vadalog::model::parser;
use vadalog::model::{Instance, Predicate, Program};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: lint <file.vada> [more files ...] | lint --scenarios");
        return ExitCode::from(2);
    }
    let clean = if args[0] == "--scenarios" {
        lint_scenarios()
    } else {
        args.iter().all(|path| lint_file(path))
    };
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Lints one source file; returns `false` iff it produced errors.
fn lint_file(path: &str) -> bool {
    let source = match std::fs::read_to_string(path) {
        Ok(source) => source,
        Err(error) => {
            eprintln!("{path}: cannot read: {error}");
            return false;
        }
    };
    let parsed = match parser::parse(&source) {
        Ok(parsed) => parsed,
        Err(error) => {
            // Surface-level parse errors get the same stable code the
            // analyzer would assign.
            println!("{path}: VLG001 error :: {error}");
            return false;
        }
    };
    // The fact section is the deployment's EDB: heads colliding with it and
    // arity conflicts against it are real defects, not style.
    let instance: &Instance = parsed.database.as_instance();
    let known_arities: BTreeMap<Predicate, usize> = instance
        .predicates()
        .filter_map(|p| instance.arity_of(p).map(|a| (p, a)))
        .collect();
    let options = AnalyzerOptions {
        require_datalog: false,
        known_edb: instance.predicates().collect(),
        known_arities,
        query: parsed.queries.first().cloned(),
    };
    let report = analyze_with(&parsed.program, &options);
    print_report(path, &parsed.program, &report);
    // When the file carries a query, print the same plan report the
    // service's EXPLAIN verb returns — one shared renderer, no drift.
    // `cache_hit: None`: the CLI has no specialised-program cache.
    if let Some(query) = parsed.queries.first() {
        let explained = explain_query(&parsed.program, instance, query, None, None);
        println!(
            "  explain path={}:",
            if explained.magic { "magic" } else { "full" }
        );
        for line in &explained.lines {
            println!("    {line}");
        }
    }
    !report.has_errors()
}

/// Lints the generated benchmark suites; returns `false` iff any produced
/// an error-severity diagnostic.
fn lint_scenarios() -> bool {
    let fkjoin = benchgen::fk_join_scenario(8, 64, 7);
    let chain: Vec<String> = fkjoin.pattern.iter().map(|a| a.to_string()).collect();
    let suites: Vec<(&str, Program)> = vec![
        (
            "tc",
            parser::parse_rules(benchgen::REACH_PROGRAM).expect("TC program parses"),
        ),
        (
            // The fkjoin scenario ships a CQ, not rules; lint the rule form
            // of its canonical 2-key join chain.
            "fkjoin",
            parser::parse_rules(&format!("out(V, W) :- {}.", chain.join(", ")))
                .expect("fkjoin chain parses"),
        ),
        ("owl", benchgen::owl_program()),
        (
            "data-exchange",
            benchgen::data_exchange_scenario(3, 16, 8, 7).program,
        ),
    ];

    let mut clean = true;
    for (name, program) in &suites {
        let (class, report) = classify_with_diagnostics(program);
        println!(
            "{name}: class `{class}`, {} rules, {}, {} diagnostics ({} errors, {} warnings)",
            program.len(),
            stratify(program).summary(),
            report.diagnostics.len(),
            report.count(Severity::Error),
            report.count(Severity::Warning),
        );
        for diagnostic in &report.diagnostics {
            println!("  {diagnostic}");
        }
        if report.has_errors() {
            eprintln!("{name}: scenario suite must lint without errors");
            clean = false;
        }
    }
    clean
}

fn print_report(path: &str, program: &Program, report: &DiagnosticReport) {
    println!(
        "{path}: {} rules, {}, {} diagnostics ({} errors, {} warnings)",
        program.len(),
        stratify(program).summary(),
        report.diagnostics.len(),
        report.count(Severity::Error),
        report.count(Severity::Warning),
    );
    for diagnostic in &report.diagnostics {
        println!("  {diagnostic}");
    }
    if let Some(adornment) = &report.adornment {
        for adorned in &adornment.adorned {
            println!("  adorned: {adorned}");
        }
    }
}
