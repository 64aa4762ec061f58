//! The shared query-plan rendering behind the service's `EXPLAIN` verb and
//! the lint CLI.
//!
//! Both surfaces print the *same* lines for the same (program, instance,
//! query) triple: the query's adornment signature, the magic-vs-full
//! decision (with the [`vadalog_analysis::magic::MagicFallback`] reason when the demand path is
//! refused), the magic-sets rewrite report when it applies, and the static
//! build/probe join plan of the query atoms against the instance — join
//! order, index kinds and the planner's estimated fan-outs, straight from
//! [`vadalog_model::JoinPlan::explain`]. Keeping one renderer here means
//! plan text cannot drift between the CLI and the service.
//!
//! Nothing in this module evaluates the query or mutates the instance;
//! plan estimates come from the instance's existing index statistics.

use std::fmt::Write as _;
use vadalog_analysis::magic::{demand_signature, magic_rewrite};
use vadalog_model::{ConjunctiveQuery, Instance, JoinSpec, Program};

/// The rendered explanation of how a query would be evaluated.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// `true` iff the demand-driven (magic-sets) path would be taken.
    pub magic: bool,
    /// The report, one display line per entry (no embedded newlines).
    pub lines: Vec<String>,
}

/// Explains `query` against `program` and `instance` without evaluating.
///
/// `full_reason` carries the caller's own reason for ruling the demand path
/// out (the service passes `mode=full requested` for `MODE=FULL`) and is
/// printed as the full-evaluation decision; `None` lets the magic rewrite
/// decide and reports its fallback reason when it refuses. `cache_hit`,
/// when known (the service consults its specialised-program cache), is
/// surfaced on the decision line; pass `None` when no cache exists (the
/// lint CLI).
pub fn explain_query(
    program: &Program,
    instance: &Instance,
    query: &ConjunctiveQuery,
    full_reason: Option<&str>,
    cache_hit: Option<bool>,
) -> ExplainReport {
    let mut lines = Vec::new();
    lines.push(format!("query {query}"));

    // Adornment signature: which intensional atoms are demanded, with
    // which bound/free shape. Empty means there is nothing to demand.
    let signature = demand_signature(program, query);
    if signature.is_empty() {
        lines.push("adornment none (no intensional query atom)".to_string());
    } else {
        let mut line = String::from("adornment");
        for (predicate, pattern) in &signature {
            let _ = write!(line, " {}^{}", predicate.name(), pattern);
        }
        lines.push(line);
    }

    // The magic-vs-full decision, with the reason when magic is refused.
    let decision = match full_reason {
        Some(reason) => Err(reason.to_string()),
        None => magic_rewrite(program, query).map_err(|reason| reason.to_string()),
    };
    let magic = decision.is_ok();
    match &decision {
        Ok(rewrite) => {
            let cache = match cache_hit {
                Some(true) => " cache=hit",
                Some(false) => " cache=miss",
                None => "",
            };
            lines.push(format!(
                "decision magic seeds={}{cache}",
                rewrite.seeds.len()
            ));
            for line in rewrite.render().lines() {
                lines.push(format!("rewrite {line}"));
            }
        }
        Err(reason) => lines.push(format!("decision full reason={reason}")),
    }

    // The static build/probe plan of the query atoms against the instance
    // — what the full path (and the magic path's final answer evaluation,
    // modulo renaming) replays per shard.
    let spec = JoinSpec::compile(&query.atoms);
    let plan = spec.plan(instance, &[]);
    lines.push(format!(
        "plan atoms={} streaming={}",
        query.atoms.len(),
        plan.prefers_streaming()
    ));
    for line in plan.explain(&spec) {
        lines.push(format!("plan {line}"));
    }

    ExplainReport { magic, lines }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog_model::parser::{parse, parse_query, parse_rules};

    fn setup() -> (Program, Instance) {
        let program =
            parse_rules("t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).").unwrap();
        let instance = parse("edge(a, b). edge(b, c). edge(c, d).")
            .unwrap()
            .database
            .into_instance();
        (program, instance)
    }

    #[test]
    fn bound_query_explains_the_magic_decision() {
        let (program, instance) = setup();
        let query = parse_query("?(Y) :- t(a, Y).").unwrap();
        let report = explain_query(&program, &instance, &query, None, Some(false));
        assert!(report.magic);
        assert!(report.lines.iter().any(|l| l == "adornment t^bf"));
        assert!(report
            .lines
            .iter()
            .any(|l| l.starts_with("decision magic seeds=1 cache=miss")));
        assert!(report.lines.iter().any(|l| l.starts_with("rewrite ")));
        assert!(report
            .lines
            .iter()
            .any(|l| l.starts_with("plan step=0 atom=t/2 ")));
    }

    #[test]
    fn all_free_query_explains_the_fallback_reason() {
        let (program, instance) = setup();
        let query = parse_query("?(X, Y) :- t(X, Y).").unwrap();
        let report = explain_query(&program, &instance, &query, None, None);
        assert!(!report.magic);
        assert!(report
            .lines
            .iter()
            .any(|l| l == "decision full reason=every intensional query atom is all-free"));
        // No rewrite lines on a fallback.
        assert!(!report.lines.iter().any(|l| l.starts_with("rewrite ")));
    }

    #[test]
    fn mode_full_bypasses_magic_without_consulting_the_rewrite() {
        let (program, instance) = setup();
        let query = parse_query("?(Y) :- t(a, Y).").unwrap();
        let report = explain_query(
            &program,
            &instance,
            &query,
            Some("mode=full requested"),
            None,
        );
        assert!(!report.magic);
        assert!(report
            .lines
            .iter()
            .any(|l| l == "decision full reason=mode=full requested"));
    }

    #[test]
    fn plan_lines_expose_probe_kinds_and_estimates() {
        let (program, instance) = setup();
        // Two-atom join: the second step must probe an index on the shared
        // variable rather than scanning.
        let query = parse_query("?(X, Z) :- edge(X, Y), edge(Y, Z).").unwrap();
        let report = explain_query(&program, &instance, &query, None, None);
        let steps: Vec<&String> = report
            .lines
            .iter()
            .filter(|l| l.starts_with("plan step="))
            .collect();
        assert_eq!(steps.len(), 2);
        assert!(steps[1].contains("probe=index(col=") || steps[1].contains("probe=composite("));
        assert!(steps.iter().all(|s| s.contains(" est=")));
    }
}
