//! The line-oriented request/response protocol (see the [crate docs](crate)
//! for the reference table). Parsing and rendering are transport-free so
//! the same protocol can later sit behind an async listener — and so tests
//! can exercise it without a socket.

use vadalog_analysis::{Diagnostic, DiagnosticCode, Severity};
use vadalog_datalog::IngestOutcome;
use vadalog_model::parser::{parse_fact_list, parse_query};
use vadalog_model::{Atom, AtomSpan, ConjunctiveQuery, Predicate, Symbol, Variable};

/// How a `QUERY` should be evaluated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QueryMode {
    /// Pick the magic (demand-driven) path when the query has at least one
    /// bound intensional atom and the rewrite specialises; fall back to
    /// evaluating against the published full materialisation otherwise.
    /// The default.
    #[default]
    Auto,
    /// Demand the magic path. Still answers (correctly) through the full
    /// materialisation when the rewrite cannot specialise the query —
    /// `MODE=MAGIC` is a preference, not a correctness switch.
    Magic,
    /// Evaluate against the published full materialisation only.
    Full,
}

impl QueryMode {
    /// Parses a `MODE=` value (case-insensitive).
    pub fn parse(value: &str) -> Result<QueryMode, String> {
        match value.to_ascii_uppercase().as_str() {
            "AUTO" => Ok(QueryMode::Auto),
            "MAGIC" => Ok(QueryMode::Magic),
            "FULL" => Ok(QueryMode::Full),
            other => Err(format!(
                "bad MODE value `{other}` (expected MAGIC, FULL or AUTO)"
            )),
        }
    }
}

/// A parsed protocol request.
#[derive(Debug, Clone)]
pub enum Request {
    /// `FACT <fact>.` or `BATCH <fact>. …` — ingest the facts as one batch.
    Ingest {
        /// The facts to ingest.
        facts: Vec<Atom>,
        /// `true` for `BATCH`, `false` for `FACT` — the verbs share one
        /// ingest path but are metered separately in the per-verb latency
        /// accounting.
        batch: bool,
    },
    /// `QUERY [MODE=<MAGIC|FULL|AUTO>] [TIMEOUT_MS=<n>] [MAX_ROWS=<n>]
    /// ?(X, …) :- body.` — answer a CQ against the published snapshot,
    /// optionally forcing the evaluation mode and bounding wall-clock time
    /// and answer count (server defaults apply to unspecified limits).
    Query {
        /// The conjunctive query.
        query: ConjunctiveQuery,
        /// Per-request deadline override, in milliseconds.
        timeout_ms: Option<u64>,
        /// Per-request answer-count cap override.
        max_rows: Option<usize>,
        /// Evaluation-mode preference (`MODE=`, default `AUTO`).
        mode: QueryMode,
    },
    /// `EXPLAIN [MODE=<MAGIC|FULL|AUTO>] ?(X, …) :- body.` — return the
    /// chosen evaluation plan (adornment, magic-vs-full decision with the
    /// fallback reason, per-atom build/probe order with index kinds and
    /// estimated fan-outs) **without evaluating** the query.
    Explain {
        /// The conjunctive query to explain.
        query: ConjunctiveQuery,
        /// Evaluation-mode preference (`MODE=`, default `AUTO`).
        mode: QueryMode,
    },
    /// `PROFILE [options] ?(X, …) :- body.` — evaluate the query exactly
    /// like `QUERY` (same options) and return a per-phase breakdown
    /// instead of the tuples: wall micros per phase and per
    /// stratum/round, join counters, demanded vs materialised tuples,
    /// cache behaviour and the answer count.
    Profile {
        /// The conjunctive query.
        query: ConjunctiveQuery,
        /// Per-request deadline override, in milliseconds.
        timeout_ms: Option<u64>,
        /// Per-request answer-count cap override.
        max_rows: Option<usize>,
        /// Evaluation-mode preference (`MODE=`, default `AUTO`).
        mode: QueryMode,
    },
    /// `VALIDATE <rules>` — dry-run a candidate program through the
    /// diagnostics pipeline against the serving schema; nothing is loaded.
    Validate {
        /// The candidate program's source text.
        source: String,
    },
    /// `STATS` — report engine statistics as one JSON line — or, with
    /// `SLOW=<n>`, the most recent `n` slow-query log records instead.
    Stats {
        /// `Some(n)`: return up to `n` recent slow-query records rather
        /// than the statistics line.
        slow: Option<usize>,
    },
    /// `METRICS` — report counters, gauges and latency histograms in
    /// Prometheus text exposition format (count-framed like every
    /// multi-line response).
    Metrics,
    /// `SNAPSHOT` — persist the current engine state and truncate the WAL.
    Snapshot,
    /// `SHUTDOWN` — stop accepting connections.
    Shutdown,
}

/// Parses one request line. Errors are protocol-level strings, rendered to
/// the client as `ERR <message>`.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    let (keyword, rest) = match line.split_once(char::is_whitespace) {
        Some((keyword, rest)) => (keyword, rest.trim()),
        None => (line, ""),
    };
    match keyword.to_ascii_uppercase().as_str() {
        "FACT" | "BATCH" => {
            let facts = parse_fact_list(rest).map_err(|e| e.to_string())?;
            if facts.is_empty() {
                return Err(format!(
                    "{} requires at least one fact",
                    keyword.to_ascii_uppercase()
                ));
            }
            if keyword.eq_ignore_ascii_case("FACT") && facts.len() != 1 {
                return Err("FACT takes exactly one fact; use BATCH for several".into());
            }
            Ok(Request::Ingest {
                facts,
                batch: keyword.eq_ignore_ascii_case("BATCH"),
            })
        }
        verb @ ("QUERY" | "PROFILE" | "EXPLAIN") => {
            let (rest, timeout_ms, max_rows, mode) = parse_query_options(rest)?;
            if verb == "EXPLAIN" && (timeout_ms.is_some() || max_rows.is_some()) {
                return Err("EXPLAIN does not evaluate; TIMEOUT_MS/MAX_ROWS do not apply".into());
            }
            let query = parse_query(rest).map_err(|e| e.to_string())?;
            Ok(match verb {
                "EXPLAIN" => Request::Explain { query, mode },
                "QUERY" => Request::Query {
                    query,
                    timeout_ms,
                    max_rows,
                    mode,
                },
                _ => Request::Profile {
                    query,
                    timeout_ms,
                    max_rows,
                    mode,
                },
            })
        }
        "VALIDATE" => {
            if rest.is_empty() {
                return Err("VALIDATE requires a candidate program".into());
            }
            Ok(Request::Validate {
                source: rest.to_string(),
            })
        }
        "STATS" => {
            let slow = match rest.split_once('=') {
                None if rest.is_empty() => None,
                Some((key, value)) if key.trim().eq_ignore_ascii_case("SLOW") => Some(
                    value
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| format!("bad SLOW value `{}`", value.trim()))?,
                ),
                _ => return Err(format!("bad STATS option `{rest}` (expected SLOW=<n>)")),
            };
            Ok(Request::Stats { slow })
        }
        "METRICS" => Ok(Request::Metrics),
        "SNAPSHOT" => Ok(Request::Snapshot),
        "SHUTDOWN" => Ok(Request::Shutdown),
        "" => Err("empty command".into()),
        other => Err(format!(
            "unknown command `{other}` (expected FACT, BATCH, QUERY, EXPLAIN, PROFILE, VALIDATE, \
             STATS, METRICS, SNAPSHOT or SHUTDOWN)"
        )),
    }
}

/// Strips the optional leading `MODE=<m>` / `TIMEOUT_MS=<n>` /
/// `MAX_ROWS=<n>` options off a `QUERY` argument string. Options precede
/// the query text (the query itself contains spaces and periods, so
/// trailing options would be ambiguous); each may appear at most once, in
/// any order.
#[allow(clippy::type_complexity)]
fn parse_query_options(
    mut rest: &str,
) -> Result<(&str, Option<u64>, Option<usize>, QueryMode), String> {
    let mut timeout_ms = None;
    let mut max_rows = None;
    let mut mode: Option<QueryMode> = None;
    loop {
        let token = rest.split_whitespace().next().unwrap_or("");
        let Some((key, value)) = token.split_once('=') else {
            break;
        };
        match key.to_ascii_uppercase().as_str() {
            "TIMEOUT_MS" => {
                if timeout_ms.is_some() {
                    return Err("TIMEOUT_MS given twice".into());
                }
                let parsed: u64 = value
                    .parse()
                    .map_err(|_| format!("bad TIMEOUT_MS value `{value}`"))?;
                timeout_ms = Some(parsed);
            }
            "MAX_ROWS" => {
                if max_rows.is_some() {
                    return Err("MAX_ROWS given twice".into());
                }
                let parsed: usize = value
                    .parse()
                    .map_err(|_| format!("bad MAX_ROWS value `{value}`"))?;
                max_rows = Some(parsed);
            }
            "MODE" => {
                if mode.is_some() {
                    return Err("MODE given twice".into());
                }
                mode = Some(QueryMode::parse(value)?);
            }
            _ => break, // not an option: the query text starts here
        }
        rest = rest[token.len()..].trim_start();
    }
    Ok((rest, timeout_ms, max_rows, mode.unwrap_or_default()))
}

/// A protocol response, rendered to one or more `\n`-terminated lines.
#[derive(Debug, Clone)]
pub enum Response {
    /// A single `OK <info>` line.
    Ok(String),
    /// A query result: header line, one line per tuple, `END`.
    Answers {
        /// Epoch of the snapshot the query ran against.
        epoch: u64,
        /// The answer tuples, in any order: [`Response::render`] sorts the
        /// tuple lines as text.
        tuples: Vec<Vec<Symbol>>,
    },
    /// A validation report: header line with counts and the admission
    /// decision, one line per diagnostic, `END`.
    Diagnostics {
        /// The admission decision under the server's policy.
        admissible: bool,
        /// The findings, in pass order.
        diagnostics: Vec<Diagnostic>,
    },
    /// A generic count-framed multi-line response: `OK <label>=<n> [info]`,
    /// `n` payload lines, `END`. Used by `EXPLAIN` (`label=explain`),
    /// `PROFILE` (`profile`), `METRICS` (`metrics`) and `STATS SLOW=`
    /// (`slow`) — clients frame by the header count exactly as they do for
    /// `answers=` / `diagnostics=`.
    Framed {
        /// The header's count key (`explain`, `profile`, `metrics`,
        /// `slow`).
        label: &'static str,
        /// Extra `key=value` text appended to the header line (may be
        /// empty).
        info: String,
        /// The payload lines (rendered one per line, newline-collapsed).
        lines: Vec<String>,
    },
    /// A single `ERR <message>` line.
    Error(String),
}

impl Response {
    /// The standard ingest acknowledgement line.
    pub fn ingest(outcome: &IngestOutcome) -> Response {
        Response::Ok(format!(
            "inserted={} duplicate={} derived={} strata_skipped={} rounds={} epoch={}",
            outcome.facts_inserted,
            outcome.facts_duplicate,
            outcome.derived_atoms,
            outcome.strata_skipped,
            outcome.rounds,
            outcome.epoch,
        ))
    }

    /// Renders the response as protocol lines (each `\n`-terminated).
    pub fn render(&self) -> String {
        match self {
            Response::Ok(info) if info.is_empty() => "OK\n".to_string(),
            Response::Ok(info) => format!("OK {}\n", one_line(info)),
            Response::Error(message) => format!("ERR {}\n", one_line(message)),
            Response::Answers { epoch, tuples } => {
                // "Sorted" is a promise about what a client can see — the
                // constants' text — never about `Symbol` order, which follows
                // process-wide interning order.
                let mut lines: Vec<String> = tuples
                    .iter()
                    .map(|tuple| {
                        let cells: Vec<String> = tuple.iter().map(render_constant).collect();
                        cells.join(" ")
                    })
                    .collect();
                lines.sort_unstable();
                let mut out = format!("OK answers={} epoch={}\n", tuples.len(), epoch);
                for line in lines {
                    out.push_str(&line);
                    out.push('\n');
                }
                out.push_str("END\n");
                out
            }
            Response::Framed { label, info, lines } => {
                let mut out = format!("OK {label}={}", lines.len());
                if !info.is_empty() {
                    out.push(' ');
                    out.push_str(&one_line(info));
                }
                out.push('\n');
                for line in lines {
                    out.push_str(&one_line(line));
                    out.push('\n');
                }
                out.push_str("END\n");
                out
            }
            Response::Diagnostics {
                admissible,
                diagnostics,
            } => {
                let errors = diagnostics
                    .iter()
                    .filter(|d| d.severity == Severity::Error)
                    .count();
                let warnings = diagnostics
                    .iter()
                    .filter(|d| d.severity == Severity::Warning)
                    .count();
                let mut out = format!(
                    "OK diagnostics={} errors={errors} warnings={warnings} admissible={admissible}\n",
                    diagnostics.len(),
                );
                for diagnostic in diagnostics {
                    out.push_str(&one_line(&diagnostic.to_string()));
                    out.push('\n');
                }
                out.push_str("END\n");
                out
            }
        }
    }
}

/// Parses one rendered diagnostic line (`VLG004 error tgd=1 atom=body[0]
/// var=Y pred=t :: message`) back into a [`Diagnostic`] — the inverse of
/// its `Display`, so validation output round-trips over the wire.
pub fn parse_diagnostic_line(line: &str) -> Result<Diagnostic, String> {
    let (head, message) = line
        .split_once(" :: ")
        .ok_or_else(|| format!("diagnostic line without ` :: ` separator: `{line}`"))?;
    let mut tokens = head.split_whitespace();
    let code = tokens
        .next()
        .and_then(DiagnosticCode::parse)
        .ok_or_else(|| format!("bad diagnostic code in `{line}`"))?;
    let severity: Severity = tokens
        .next()
        .ok_or_else(|| format!("missing severity in `{line}`"))?
        .parse()?;
    let mut diagnostic = Diagnostic {
        code,
        severity,
        tgd: None,
        atom: None,
        variable: None,
        predicate: None,
        message: message.to_string(),
    };
    for token in tokens {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| format!("bad diagnostic field `{token}`"))?;
        match key {
            "tgd" => {
                diagnostic.tgd = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad tgd index `{value}`"))?,
                );
            }
            "atom" => diagnostic.atom = Some(value.parse::<AtomSpan>()?),
            "var" => diagnostic.variable = Some(Variable::new(value)),
            "pred" => diagnostic.predicate = Some(Predicate::new(value)),
            other => return Err(format!("unknown diagnostic field `{other}`")),
        }
    }
    Ok(diagnostic)
}

/// Collapses embedded newlines so a message can never be mistaken for
/// additional protocol lines.
fn one_line(message: &str) -> String {
    if message.contains('\n') {
        message.replace('\n', " ")
    } else {
        message.to_string()
    }
}

/// Renders one answer constant. Plain identifiers go out verbatim; a
/// constant that would corrupt the line framing — whitespace (the column
/// separator), quotes, backslashes, control characters, or an empty symbol
/// — is quoted with backslash escapes (`\"`, `\\`, `\n`). Clients frame by
/// the header's `answers=<n>` count, so even a tuple rendering as `END`
/// cannot be mistaken for the terminator; quoting only keeps the *columns*
/// of a tuple unambiguous.
fn render_constant(symbol: &Symbol) -> String {
    let name = symbol.to_string();
    let safe = !name.is_empty()
        && !name
            .chars()
            .any(|c| c.is_whitespace() || c.is_control() || c == '"' || c == '\\');
    if safe {
        return name;
    }
    let mut out = String::with_capacity(name.len() + 2);
    out.push('"');
    for c in name.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse_case_insensitively() {
        assert!(matches!(
            parse_request("FACT edge(a, b)."),
            Ok(Request::Ingest { facts, batch: false }) if facts.len() == 1
        ));
        assert!(matches!(
            parse_request("batch edge(a, b). edge(b, c)."),
            Ok(Request::Ingest { facts, batch: true }) if facts.len() == 2
        ));
        assert!(matches!(
            parse_request("  stats  "),
            Ok(Request::Stats { slow: None })
        ));
        assert!(matches!(parse_request("metrics"), Ok(Request::Metrics)));
        assert!(matches!(parse_request("SHUTDOWN"), Ok(Request::Shutdown)));
        let q = parse_request("QUERY ?(X) :- t(a, X).").unwrap();
        assert!(matches!(
            q,
            Request::Query {
                query,
                timeout_ms: None,
                max_rows: None,
                mode: QueryMode::Auto,
            } if query.output.len() == 1
        ));
        assert!(matches!(parse_request("SNAPSHOT"), Ok(Request::Snapshot)));
    }

    #[test]
    fn query_mode_option_parses_and_rejects_garbage() {
        let q = parse_request("QUERY MODE=MAGIC ?(X) :- t(a, X).").unwrap();
        assert!(matches!(
            q,
            Request::Query {
                mode: QueryMode::Magic,
                ..
            }
        ));
        let q = parse_request("QUERY mode=full TIMEOUT_MS=9 ?(X) :- t(a, X).").unwrap();
        assert!(matches!(
            q,
            Request::Query {
                mode: QueryMode::Full,
                timeout_ms: Some(9),
                ..
            }
        ));
        assert!(parse_request("QUERY MODE=TURBO ?(X) :- t(a, X).")
            .unwrap_err()
            .contains("bad MODE value `TURBO`"));
        assert!(parse_request("QUERY MODE=MAGIC MODE=FULL ?(X) :- t(a, X).")
            .unwrap_err()
            .contains("MODE given twice"));
    }

    #[test]
    fn query_budget_options_parse_in_any_order() {
        let q = parse_request("QUERY TIMEOUT_MS=250 MAX_ROWS=10 ?(X) :- t(a, X).").unwrap();
        assert!(matches!(
            q,
            Request::Query {
                timeout_ms: Some(250),
                max_rows: Some(10),
                ..
            }
        ));
        let q = parse_request("QUERY max_rows=7 ?(X) :- t(a, X).").unwrap();
        assert!(matches!(
            q,
            Request::Query {
                timeout_ms: None,
                max_rows: Some(7),
                ..
            }
        ));

        assert!(parse_request("QUERY TIMEOUT_MS=abc ?(X) :- t(a, X).")
            .unwrap_err()
            .contains("bad TIMEOUT_MS"));
        assert!(
            parse_request("QUERY MAX_ROWS=1 MAX_ROWS=2 ?(X) :- t(a, X).")
                .unwrap_err()
                .contains("twice")
        );
        // A query whose own text merely contains `=` is untouched: options
        // stop at the first non-option token.
        assert!(parse_request("QUERY TIMEOUT_MS=10 ?(X) :- ").is_err());
    }

    #[test]
    fn explain_and_profile_requests_parse_like_query() {
        let e = parse_request("EXPLAIN ?(X) :- t(a, X).").unwrap();
        assert!(matches!(
            e,
            Request::Explain {
                mode: QueryMode::Auto,
                ..
            }
        ));
        let e = parse_request("explain MODE=FULL ?(X) :- t(a, X).").unwrap();
        assert!(matches!(
            e,
            Request::Explain {
                mode: QueryMode::Full,
                ..
            }
        ));
        // EXPLAIN never evaluates, so evaluation budgets are rejected up
        // front rather than silently ignored.
        assert!(parse_request("EXPLAIN TIMEOUT_MS=10 ?(X) :- t(a, X).")
            .unwrap_err()
            .contains("does not evaluate"));

        let p = parse_request("PROFILE MODE=MAGIC TIMEOUT_MS=250 MAX_ROWS=10 ?(X) :- t(a, X).")
            .unwrap();
        assert!(matches!(
            p,
            Request::Profile {
                mode: QueryMode::Magic,
                timeout_ms: Some(250),
                max_rows: Some(10),
                ..
            }
        ));
        assert!(parse_request("PROFILE ?(X) :- ").is_err());
    }

    #[test]
    fn stats_slow_option_parses_and_rejects_garbage() {
        assert!(matches!(
            parse_request("STATS SLOW=5"),
            Ok(Request::Stats { slow: Some(5) })
        ));
        assert!(matches!(
            parse_request("stats slow=0"),
            Ok(Request::Stats { slow: Some(0) })
        ));
        assert!(parse_request("STATS SLOW=abc")
            .unwrap_err()
            .contains("bad SLOW value"));
        assert!(parse_request("STATS FAST=1")
            .unwrap_err()
            .contains("bad STATS option"));
    }

    #[test]
    fn framed_responses_render_with_count_based_framing() {
        let framed = Response::Framed {
            label: "explain",
            info: "epoch=3 magic=true".into(),
            lines: vec!["adornment t^bf".into(), "plan step=0".into()],
        };
        assert_eq!(
            framed.render(),
            "OK explain=2 epoch=3 magic=true\nadornment t^bf\nplan step=0\nEND\n"
        );
        // An empty payload still frames (header count 0, then END).
        let empty = Response::Framed {
            label: "slow",
            info: String::new(),
            lines: Vec::new(),
        };
        assert_eq!(empty.render(), "OK slow=0\nEND\n");
        // Embedded newlines cannot break the line protocol.
        let tricky = Response::Framed {
            label: "metrics",
            info: String::new(),
            lines: vec!["a\nb".into()],
        };
        assert_eq!(tricky.render(), "OK metrics=1\na b\nEND\n");
    }

    #[test]
    fn malformed_requests_report_useful_errors() {
        assert!(parse_request("").unwrap_err().contains("empty"));
        assert!(parse_request("NOPE x")
            .unwrap_err()
            .contains("unknown command"));
        assert!(parse_request("FACT")
            .unwrap_err()
            .contains("at least one fact"));
        assert!(parse_request("FACT edge(a, b). edge(b, c).")
            .unwrap_err()
            .contains("exactly one"));
        // Rules and variables are not facts.
        assert!(parse_request("FACT t(X, Y) :- edge(X, Y).").is_err());
        assert!(parse_request("FACT edge(X, b).").is_err());
        // Parse errors propagate with locations.
        assert!(parse_request("QUERY ?(X) :- ").is_err());
    }

    #[test]
    fn responses_render_as_terminated_lines() {
        assert_eq!(Response::Ok(String::new()).render(), "OK\n");
        assert_eq!(Response::Ok("bye".into()).render(), "OK bye\n");
        assert_eq!(
            Response::Error("parse error at 1:1: nope\nmore".into()).render(),
            "ERR parse error at 1:1: nope more\n"
        );
        let rendered = Response::Answers {
            epoch: 3,
            tuples: vec![
                vec![Symbol::new("a"), Symbol::new("b")],
                vec![Symbol::new("c"), Symbol::new("d")],
            ],
        }
        .render();
        assert_eq!(rendered, "OK answers=2 epoch=3\na b\nc d\nEND\n");
    }

    #[test]
    fn answers_are_sorted_as_text_whatever_the_interning_order() {
        // Interned in reverse lexicographic order, so `Symbol` order (interning
        // order — the order of an answer `BTreeSet`) is the reverse of the
        // text order the protocol promises.
        let names = ["order-probe-c", "order-probe-b", "order-probe-a"];
        let answers: std::collections::BTreeSet<Vec<Symbol>> = names
            .iter()
            .map(|name| vec![Symbol::new(name), Symbol::new("order-probe-c")])
            .collect();
        let in_symbol_order: Vec<String> = answers.iter().map(|t| t[0].to_string()).collect();
        assert_eq!(in_symbol_order, names, "the adversarial set-up took");
        let rendered = Response::Answers {
            epoch: 7,
            tuples: answers.into_iter().collect(),
        }
        .render();
        assert_eq!(
            rendered,
            "OK answers=3 epoch=7\n\
             order-probe-a order-probe-c\n\
             order-probe-b order-probe-c\n\
             order-probe-c order-probe-c\n\
             END\n"
        );
    }

    #[test]
    fn validate_requests_carry_the_candidate_source() {
        let parsed = parse_request("VALIDATE t(X, Y) :- edge(X, Y).").unwrap();
        assert!(matches!(
            parsed,
            Request::Validate { source } if source == "t(X, Y) :- edge(X, Y)."
        ));
        assert!(parse_request("VALIDATE")
            .unwrap_err()
            .contains("candidate program"));
        assert!(parse_request("NOPE").unwrap_err().contains("VALIDATE"));
    }

    #[test]
    fn diagnostics_render_with_count_based_framing() {
        let (_, report) = vadalog_analysis::analyze_source(
            "r(X, Z) :- p(X).\n t(Y, Y2) :- r(X, Y), r(X2, Y2).",
            &vadalog_analysis::AnalyzerOptions::default(),
        );
        let count = report.diagnostics.len();
        let errors = report.count(Severity::Error);
        let rendered = Response::Diagnostics {
            admissible: false,
            diagnostics: report.diagnostics,
        }
        .render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert!(
            lines[0].starts_with(&format!("OK diagnostics={count} errors={errors}")),
            "{rendered}"
        );
        assert!(lines[0].ends_with("admissible=false"), "{rendered}");
        assert_eq!(
            lines.len(),
            count + 2,
            "header + n diagnostics + END: {rendered}"
        );
        assert_eq!(*lines.last().unwrap(), "END");
    }

    #[test]
    fn diagnostic_lines_round_trip_through_parse() {
        let (_, report) = vadalog_analysis::analyze_source(
            "r(X, Z) :- p(X).\n t(Y, Y2) :- r(X, Y), r(X2, Y2).\n out(A, B) :- c(A), d(B).",
            &vadalog_analysis::AnalyzerOptions::default(),
        );
        assert!(!report.diagnostics.is_empty());
        for diagnostic in &report.diagnostics {
            let parsed = parse_diagnostic_line(&diagnostic.to_string()).unwrap();
            assert_eq!(&parsed, diagnostic);
        }
        assert!(parse_diagnostic_line("no separator here").is_err());
        assert!(parse_diagnostic_line("VLG999 error :: nope").is_err());
        assert!(parse_diagnostic_line("VLG001 loud :: nope").is_err());
    }

    #[test]
    fn awkward_constants_are_quoted_and_counted() {
        // Constants that would corrupt naive line framing: whitespace (the
        // column separator), quotes, and a tuple rendering exactly as the
        // terminator keyword. The header count keeps the framing sound and
        // quoting keeps the columns unambiguous.
        let rendered = Response::Answers {
            epoch: 1,
            tuples: vec![
                vec![Symbol::new("END")],
                vec![Symbol::new("x.y z"), Symbol::new("plain")],
                vec![Symbol::new("say \"hi\"")],
            ],
        }
        .render();
        // Tuple lines come back sorted as rendered text (`"` sorts before `E`).
        assert_eq!(
            rendered,
            "OK answers=3 epoch=1\n\"say \\\"hi\\\"\"\n\"x.y z\" plain\nEND\nEND\n"
        );
    }
}
