//! The multi-pass program diagnostics engine: structured, stable-coded
//! findings over a [`Program`].
//!
//! [`analyze`] (or [`analyze_with`] / [`analyze_source`]) runs a fixed
//! pipeline of static passes and returns a [`DiagnosticReport`]: a list of
//! [`Diagnostic`]s — each with a stable [`DiagnosticCode`] (`VLG0xx`), a
//! [`Severity`], the offending TGD index, an optional body/head atom span
//! ([`vadalog_model::AtomSpan`]) and variable, and a human-readable
//! explanation — plus the inferred [`PredicateSignature`]s and, when a query
//! binding pattern is supplied, the [`AdornmentReport`] the magic-sets
//! rewrite consumes.
//!
//! The pipeline, in order:
//!
//! 1. **safety** ([`crate::safety`]): structural re-validation, existential
//!    (null-generating) heads under a Datalog-only target, singleton
//!    variables.
//! 2. **signatures**: arity/role inference per predicate, duplicate rules,
//!    derived-but-never-read predicates, underivable predicates (no
//!    derivation bottoms out in the EDB), head predicates colliding with
//!    known extensional relations, arity conflicts against a known schema.
//! 3. **wardedness** ([`crate::wardedness`]): one diagnostic per dangerous
//!    variable of every unwarded TGD, naming the candidate wards that failed
//!    and why.
//! 4. **recursion/stratification** ([`mod@crate::stratify`],
//!    [`crate::predicate_graph`]): the formalism is negation-free, so every
//!    program stratifies; the analogue of a negative cycle is **existential
//!    recursion** — a null-generating rule whose head lies on a predicate-
//!    graph cycle — reported with the actual cycle path.
//! 5. **piece-wise linearity** ([`crate::pwl`]): TGDs with more than one
//!    recursive body atom.
//! 6. **plan** ([`vadalog_model::JoinSpec`] dry-runs): bodies whose join
//!    graph is disconnected (unavoidable cross products) and bodies where
//!    the static planner finds no bound probe position in textual order and
//!    falls back to streaming.
//! 7. **adornment** ([`crate::adornment`]): bound/free SIP propagation from
//!    the query's binding pattern, reporting demand-restricted predicates.
//!
//! The error-code table lives in the [crate docs](crate).

use crate::adornment::{adorn_query, AdornmentReport};
use crate::predicate_graph::PredicateGraph;
use crate::pwl::check_pwl;
use crate::safety::check_safety;
use crate::stratify::{stratify, Stratification};
use crate::wardedness::check_wardedness;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use vadalog_model::parser::parse_rules;
use vadalog_model::{
    display_variables, AtomSpan, ConjunctiveQuery, Instance, JoinSpec, Predicate, Program, Variable,
};

/// Diagnostic severity, ordered `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: a property worth knowing, never a defect.
    Info,
    /// Suspicious but admissible; logged and counted by the service.
    Warning,
    /// A defect: fail-closed admission rejects the program.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

impl std::str::FromStr for Severity {
    type Err = String;

    fn from_str(s: &str) -> Result<Severity, String> {
        match s {
            "info" => Ok(Severity::Info),
            "warning" => Ok(Severity::Warning),
            "error" => Ok(Severity::Error),
            other => Err(format!("unknown severity `{other}`")),
        }
    }
}

/// Stable diagnostic codes. The numeric code (`VLG0xx`) never changes
/// meaning across releases; new checks get new codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagnosticCode {
    /// `VLG001` — the program text does not parse, a predicate is used with
    /// conflicting arities, or a TGD is structurally invalid.
    InvalidProgram,
    /// `VLG002` — a null-generating (existential-head) rule under a
    /// Datalog-only target engine.
    NonDatalogRule,
    /// `VLG003` — a named variable occurring exactly once in its rule
    /// (potential typo; prefix with `_` to silence).
    SingletonVariable,
    /// `VLG004` — a dangerous variable with no ward (Definition 3.1).
    WardViolation,
    /// `VLG005` — a TGD with more than one recursive body atom (not
    /// piece-wise linear, Definition 4.1).
    NonPiecewiseLinear,
    /// `VLG006` — a null-generating rule whose head lies on a predicate-
    /// graph cycle (existential recursion; the negation-free analogue of a
    /// negative cycle).
    ExistentialRecursion,
    /// `VLG007` — a rule alpha-equivalent to an earlier rule.
    DuplicateRule,
    /// `VLG008` — a derived predicate no rule body reads (often the
    /// intended output, hence Info).
    UnreadPredicate,
    /// `VLG009` — a predicate with no derivation bottoming out in the EDB
    /// (every rule for it depends on itself, or an unknown body predicate
    /// under a known schema).
    UnderivablePredicate,
    /// `VLG010` — a head predicate colliding with a known extensional
    /// relation (an error under a Datalog-only/service target: rules would
    /// write into an ingest-owned relation).
    EdbCollision,
    /// `VLG011` — a body whose join graph is disconnected: an unavoidable
    /// cross product.
    CrossProduct,
    /// `VLG012` — the static planner finds no bound probe position for some
    /// atom in textual order and falls back to adaptive streaming.
    PlannerFallback,
    /// `VLG013` — a predicate every reachable adornment of which has at
    /// least one bound position: demand-restricted (magic sets can prune it).
    DemandRestricted,
    /// `VLG014` — a predicate reached with an all-free adornment: demand
    /// propagation cannot restrict it.
    UnrestrictedDemand,
}

impl DiagnosticCode {
    /// Every code, in numeric order.
    pub const ALL: [DiagnosticCode; 14] = [
        DiagnosticCode::InvalidProgram,
        DiagnosticCode::NonDatalogRule,
        DiagnosticCode::SingletonVariable,
        DiagnosticCode::WardViolation,
        DiagnosticCode::NonPiecewiseLinear,
        DiagnosticCode::ExistentialRecursion,
        DiagnosticCode::DuplicateRule,
        DiagnosticCode::UnreadPredicate,
        DiagnosticCode::UnderivablePredicate,
        DiagnosticCode::EdbCollision,
        DiagnosticCode::CrossProduct,
        DiagnosticCode::PlannerFallback,
        DiagnosticCode::DemandRestricted,
        DiagnosticCode::UnrestrictedDemand,
    ];

    /// The stable wire code, e.g. `"VLG004"`.
    pub const fn code(self) -> &'static str {
        match self {
            DiagnosticCode::InvalidProgram => "VLG001",
            DiagnosticCode::NonDatalogRule => "VLG002",
            DiagnosticCode::SingletonVariable => "VLG003",
            DiagnosticCode::WardViolation => "VLG004",
            DiagnosticCode::NonPiecewiseLinear => "VLG005",
            DiagnosticCode::ExistentialRecursion => "VLG006",
            DiagnosticCode::DuplicateRule => "VLG007",
            DiagnosticCode::UnreadPredicate => "VLG008",
            DiagnosticCode::UnderivablePredicate => "VLG009",
            DiagnosticCode::EdbCollision => "VLG010",
            DiagnosticCode::CrossProduct => "VLG011",
            DiagnosticCode::PlannerFallback => "VLG012",
            DiagnosticCode::DemandRestricted => "VLG013",
            DiagnosticCode::UnrestrictedDemand => "VLG014",
        }
    }

    /// Parses a wire code back into the enum.
    pub fn parse(code: &str) -> Option<DiagnosticCode> {
        DiagnosticCode::ALL.into_iter().find(|c| c.code() == code)
    }
}

impl fmt::Display for DiagnosticCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One structured finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: DiagnosticCode,
    /// The severity the analyzer assigned under its options.
    pub severity: Severity,
    /// Index of the offending TGD in the program, when rule-scoped.
    pub tgd: Option<usize>,
    /// The offending body/head atom, when atom-scoped.
    pub atom: Option<AtomSpan>,
    /// The offending variable, when variable-scoped.
    pub variable: Option<Variable>,
    /// The predicate the finding is about, when predicate-scoped.
    pub predicate: Option<Predicate>,
    /// Human-readable explanation (one line; variable and predicate names
    /// render through the symbol interner, never debug formatting).
    pub message: String,
}

impl Diagnostic {
    fn new(code: DiagnosticCode, severity: Severity, message: String) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            tgd: None,
            atom: None,
            variable: None,
            predicate: None,
            message,
        }
    }

    fn at_tgd(mut self, tgd: usize) -> Diagnostic {
        self.tgd = Some(tgd);
        self
    }

    fn at_atom(mut self, span: AtomSpan) -> Diagnostic {
        self.atom = Some(span);
        self
    }

    fn on_variable(mut self, v: Variable) -> Diagnostic {
        self.variable = Some(v);
        self
    }

    fn on_predicate(mut self, p: Predicate) -> Diagnostic {
        self.predicate = Some(p);
        self
    }
}

impl fmt::Display for Diagnostic {
    /// One line: `VLG004 error tgd=1 atom=body[0] var=Y pred=t :: message`.
    /// Optional spans are omitted; the service's protocol module parses this
    /// form back field-for-field.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code, self.severity)?;
        if let Some(tgd) = self.tgd {
            write!(f, " tgd={tgd}")?;
        }
        if let Some(atom) = self.atom {
            write!(f, " atom={atom}")?;
        }
        if let Some(v) = self.variable {
            write!(f, " var={}", v.name())?;
        }
        if let Some(p) = self.predicate {
            write!(f, " pred={}", p.name())?;
        }
        write!(f, " :: {}", self.message)
    }
}

/// A predicate's role in the program, as inferred by the signature pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredicateRole {
    /// Never occurs in a head: fed by the database.
    Extensional,
    /// Occurs in some head: derived by rules.
    Intensional,
}

/// The inferred signature of one schema predicate.
#[derive(Debug, Clone)]
pub struct PredicateSignature {
    /// The predicate.
    pub predicate: Predicate,
    /// Its (consistent) arity.
    pub arity: usize,
    /// Extensional or intensional.
    pub role: PredicateRole,
    /// Indexes of the rules deriving it (empty for EDB predicates).
    pub defining_rules: Vec<usize>,
    /// Indexes of the rules reading it in their body.
    pub reading_rules: Vec<usize>,
    /// Whether some derivation of it bottoms out in the EDB.
    pub derivable: bool,
}

/// Options steering severities and context-dependent passes.
#[derive(Debug, Clone, Default)]
pub struct AnalyzerOptions {
    /// The target engine evaluates plain Datalog only: null-generating
    /// rules ([`DiagnosticCode::NonDatalogRule`]) and EDB collisions
    /// ([`DiagnosticCode::EdbCollision`]) become errors instead of being
    /// tolerated/warned.
    pub require_datalog: bool,
    /// Relations known to be extensional in the deployment context (e.g.
    /// the live service's ingest-fed relations). Candidate heads colliding
    /// with these raise [`DiagnosticCode::EdbCollision`], and — when
    /// non-empty — underivability is judged against exactly this EDB.
    pub known_edb: BTreeSet<Predicate>,
    /// Known arities (e.g. the serving schema): predicates used with a
    /// different arity raise [`DiagnosticCode::InvalidProgram`].
    pub known_arities: BTreeMap<Predicate, usize>,
    /// A query whose binding pattern seeds the adornment pass.
    pub query: Option<ConjunctiveQuery>,
}

/// The analyzer's output: diagnostics plus the structures other passes and
/// future rewrites (magic sets) consume.
#[derive(Debug, Clone, Default)]
pub struct DiagnosticReport {
    /// All findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
    /// Inferred per-predicate signatures, sorted by predicate.
    pub signatures: Vec<PredicateSignature>,
    /// The adornment analysis, when a query was supplied.
    pub adornment: Option<AdornmentReport>,
}

impl DiagnosticReport {
    /// `true` iff any finding has Error severity.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Number of findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// The findings carrying a given code.
    pub fn with_code(&self, code: DiagnosticCode) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    /// `true` iff a fail-closed admission gate would accept the program.
    pub fn admissible(&self) -> bool {
        !self.has_errors()
    }
}

/// Runs the full pipeline with default options.
pub fn analyze(program: &Program) -> DiagnosticReport {
    analyze_with(program, &AnalyzerOptions::default())
}

/// Parses `source` as rules and analyzes the result; a parse or load error
/// becomes a single [`DiagnosticCode::InvalidProgram`] finding, so callers
/// (the `VALIDATE` verb, the lint CLI) always get a report.
pub fn analyze_source(
    source: &str,
    options: &AnalyzerOptions,
) -> (Option<Program>, DiagnosticReport) {
    match parse_rules(source) {
        Ok(program) => {
            let report = analyze_with(&program, options);
            (Some(program), report)
        }
        Err(error) => {
            let report = DiagnosticReport {
                diagnostics: vec![Diagnostic::new(
                    DiagnosticCode::InvalidProgram,
                    Severity::Error,
                    error.to_string(),
                )],
                signatures: Vec::new(),
                adornment: None,
            };
            (None, report)
        }
    }
}

/// Runs the full pipeline under explicit options.
pub fn analyze_with(program: &Program, options: &AnalyzerOptions) -> DiagnosticReport {
    let mut diagnostics = Vec::new();

    // Shared context, computed once.
    let graph = PredicateGraph::new(program);
    let stratification = stratify(program);

    // Pass 1: safety / range restriction.
    diagnostics.extend(check_safety(program, options));

    // Pass 2: predicate signatures.
    let signatures = signature_pass(program, options, &mut diagnostics);

    // Pass 3: wardedness.
    wardedness_pass(program, &mut diagnostics);

    // Pass 4: recursion / stratification.
    recursion_pass(program, &graph, &stratification, &mut diagnostics);

    // Pass 5: piece-wise linearity.
    pwl_pass(program, &graph, &mut diagnostics);

    // Pass 6: plan-level dry runs.
    plan_pass(program, &mut diagnostics);

    // Pass 7: adornment.
    let adornment = options.query.as_ref().map(|query| {
        let report = adorn_query(program, query);
        adornment_pass(&report, &mut diagnostics);
        report
    });

    DiagnosticReport {
        diagnostics,
        signatures,
        adornment,
    }
}

/// Alpha-equivalence key of a rule: predicates plus variables numbered by
/// first occurrence (body before head, atom order preserved). Two rules
/// with the same key are the same rule up to variable names.
type RuleKey = Vec<(Predicate, Vec<usize>)>;

fn rule_key(tgd: &vadalog_model::Tgd) -> RuleKey {
    let mut numbering: BTreeMap<Variable, usize> = BTreeMap::new();
    let mut key = Vec::with_capacity(tgd.body.len() + tgd.head.len());
    for atom in tgd.body.iter().chain(tgd.head.iter()) {
        let mut args = Vec::with_capacity(atom.terms.len());
        for term in &atom.terms {
            // TGDs are constant-free (`Tgd::validate`), so every term is a
            // variable.
            if let vadalog_model::Term::Var(v) = term {
                let next = numbering.len();
                args.push(*numbering.entry(*v).or_insert(next));
            }
        }
        key.push((atom.predicate, args));
    }
    key
}

fn signature_pass(
    program: &Program,
    options: &AnalyzerOptions,
    diagnostics: &mut Vec<Diagnostic>,
) -> Vec<PredicateSignature> {
    let idb = program.intensional_predicates();

    // Known-schema arity conflicts.
    for p in program.schema() {
        if let (Some(&known), Some(actual)) = (options.known_arities.get(&p), program.arity_of(p)) {
            if known != actual {
                diagnostics.push(
                    Diagnostic::new(
                        DiagnosticCode::InvalidProgram,
                        Severity::Error,
                        format!(
                            "predicate {} is used with arity {actual} but the serving schema \
                             declares arity {known}",
                            p.name()
                        ),
                    )
                    .on_predicate(p),
                );
            }
        }
    }

    // Duplicate rules (alpha-equivalent, same atom order).
    let mut seen: BTreeMap<RuleKey, usize> = BTreeMap::new();
    for (i, tgd) in program.iter() {
        match seen.get(&rule_key(tgd)) {
            Some(&first) => diagnostics.push(
                Diagnostic::new(
                    DiagnosticCode::DuplicateRule,
                    Severity::Warning,
                    format!("rule {i} `{tgd}` duplicates rule {first} up to variable renaming"),
                )
                .at_tgd(i),
            ),
            None => {
                seen.insert(rule_key(tgd), i);
            }
        }
    }

    // Derivability fixpoint. With a known EDB the base is exactly that set;
    // otherwise every predicate that never occurs in a head is presumed
    // extensional.
    let strict = !options.known_edb.is_empty();
    let mut derivable: BTreeSet<Predicate> = if strict {
        options.known_edb.clone()
    } else {
        program.extensional_predicates()
    };
    loop {
        let before = derivable.len();
        for (_, tgd) in program.iter() {
            if tgd.body_predicates().iter().all(|b| derivable.contains(b)) {
                derivable.extend(tgd.head_predicates());
            }
        }
        if derivable.len() == before {
            break;
        }
    }

    let mut signatures = Vec::new();
    for p in program.schema() {
        let defining_rules: Vec<usize> = program
            .iter()
            .filter(|(_, t)| t.head_predicates().contains(&p))
            .map(|(i, _)| i)
            .collect();
        let reading_rules: Vec<usize> = program
            .iter()
            .filter(|(_, t)| t.body_predicates().contains(&p))
            .map(|(i, _)| i)
            .collect();
        let is_idb = idb.contains(&p);
        let is_derivable = derivable.contains(&p);

        if is_idb && reading_rules.is_empty() {
            diagnostics.push(
                Diagnostic::new(
                    DiagnosticCode::UnreadPredicate,
                    Severity::Info,
                    format!(
                        "derived predicate {} is never read by a rule body (the intended \
                         output, or dead rules)",
                        p.name()
                    ),
                )
                .on_predicate(p),
            );
        }
        if !is_derivable {
            let message = if is_idb {
                format!(
                    "predicate {} is underivable: every rule for it depends (transitively) \
                     on itself — no derivation bottoms out in the EDB",
                    p.name()
                )
            } else {
                format!(
                    "body predicate {} is neither extensional in the known schema nor \
                     derived by any rule — atoms over it can never match",
                    p.name()
                )
            };
            diagnostics.push(
                Diagnostic::new(
                    DiagnosticCode::UnderivablePredicate,
                    Severity::Warning,
                    message,
                )
                .on_predicate(p)
                .at_tgd(
                    defining_rules
                        .first()
                        .or(reading_rules.first())
                        .copied()
                        .unwrap_or(0),
                ),
            );
        }
        if is_idb && options.known_edb.contains(&p) {
            let severity = if options.require_datalog {
                Severity::Error
            } else {
                Severity::Warning
            };
            diagnostics.push(
                Diagnostic::new(
                    DiagnosticCode::EdbCollision,
                    severity,
                    format!(
                        "head predicate {} collides with an extensional relation of the \
                         deployment: rules would write into an ingest-owned relation",
                        p.name()
                    ),
                )
                .on_predicate(p)
                .at_tgd(defining_rules.first().copied().unwrap_or(0)),
            );
        }

        signatures.push(PredicateSignature {
            predicate: p,
            arity: program.arity_of(p).unwrap_or(0),
            role: if is_idb {
                PredicateRole::Intensional
            } else {
                PredicateRole::Extensional
            },
            defining_rules,
            reading_rules,
            derivable: is_derivable,
        });
    }
    signatures
}

fn wardedness_pass(program: &Program, diagnostics: &mut Vec<Diagnostic>) {
    let report = check_wardedness(program);
    for tgd_report in &report.per_tgd {
        if tgd_report.warded {
            continue;
        }
        let tgd = &program.tgds()[tgd_report.tgd_index];
        let candidates = tgd_report
            .failed_candidates
            .iter()
            .map(|c| {
                let atom = &tgd.body[c.atom_index];
                if !c.missing.is_empty() {
                    format!("{atom} misses {}", display_variables(&c.missing))
                } else {
                    format!(
                        "{atom} shares non-harmless {} with the rest of the body",
                        display_variables(&c.blocking)
                    )
                }
            })
            .collect::<Vec<_>>()
            .join("; ");
        for &dangerous in &tgd_report.dangerous {
            diagnostics.push(
                Diagnostic::new(
                    DiagnosticCode::WardViolation,
                    Severity::Error,
                    format!(
                        "dangerous variable {} has no ward: every candidate fails \
                         ({candidates})",
                        dangerous.name()
                    ),
                )
                .at_tgd(tgd_report.tgd_index)
                .on_variable(dangerous),
            );
        }
    }
}

fn recursion_pass(
    program: &Program,
    graph: &PredicateGraph,
    stratification: &Stratification,
    diagnostics: &mut Vec<Diagnostic>,
) {
    let wardedness = check_wardedness(program);
    for (i, tgd) in program.iter() {
        if tgd.is_full() {
            continue;
        }
        for (hi, head) in tgd.head.iter().enumerate() {
            let h = head.predicate;
            let Some(feedback) = tgd
                .body_predicates()
                .into_iter()
                .find(|&b| graph.mutually_recursive(b, h))
            else {
                continue;
            };
            let cycle = graph
                .cycle_between(h, feedback)
                .map(|path| {
                    path.iter()
                        .map(|p| p.name())
                        .collect::<Vec<_>>()
                        .join(" -> ")
                })
                .unwrap_or_else(|| h.name().to_string());
            let warded = wardedness.per_tgd[i].warded;
            let (severity, verdict) = if warded {
                (Severity::Info, "termination is guaranteed by wardedness")
            } else {
                (
                    Severity::Warning,
                    "the chase may not terminate (the rule is also unwarded)",
                )
            };
            let stratum = stratification
                .stratum_of(h)
                .map(|s| format!("stratum {s}"))
                .unwrap_or_else(|| "no stratum".to_string());
            diagnostics.push(
                Diagnostic::new(
                    DiagnosticCode::ExistentialRecursion,
                    severity,
                    format!(
                        "null-generating rule feeds its own input through the cycle \
                         {cycle} ({stratum}); {verdict}",
                    ),
                )
                .at_tgd(i)
                .at_atom(AtomSpan::head(hi))
                .on_predicate(h),
            );
        }
    }
}

fn pwl_pass(program: &Program, graph: &PredicateGraph, diagnostics: &mut Vec<Diagnostic>) {
    let report = check_pwl(program, graph);
    for tgd_report in report.violations() {
        let tgd = &program.tgds()[tgd_report.tgd_index];
        let atoms = tgd_report
            .recursive_body_atoms
            .iter()
            .map(|&ai| tgd.body[ai].to_string())
            .collect::<Vec<_>>()
            .join(", ");
        diagnostics.push(
            Diagnostic::new(
                DiagnosticCode::NonPiecewiseLinear,
                Severity::Warning,
                format!(
                    "{} body atoms are mutually recursive with the head ({atoms}): the \
                     rule is not piece-wise linear, so the space bound of Theorem 4.8 \
                     does not apply",
                    tgd_report.recursive_body_atoms.len()
                ),
            )
            .at_tgd(tgd_report.tgd_index)
            .at_atom(AtomSpan::body(tgd_report.recursive_body_atoms[0])),
        );
    }
}

fn plan_pass(program: &Program, diagnostics: &mut Vec<Diagnostic>) {
    // A schema-shaped empty instance: every relation present with its
    // correct arity, so the planner's missing-relation placeholder (an
    // estimate-zero scan) cannot masquerade as a real plan choice.
    let mut dry = Instance::new();
    for p in program.schema() {
        if let Some(arity) = program.arity_of(p).filter(|&a| a > 0) {
            let _ = dry.insert_batch(p, arity, &[]);
        }
    }

    for (i, tgd) in program.iter() {
        if tgd.body.len() < 2 || tgd.body.iter().any(|a| a.arity() == 0) {
            continue;
        }

        // Structural check: connected components of the atom/shared-variable
        // graph. More than one component means an unavoidable cross product.
        let vars: Vec<BTreeSet<Variable>> = tgd
            .body
            .iter()
            .map(|a| a.variables().into_iter().collect())
            .collect();
        let mut component: Vec<usize> = (0..tgd.body.len()).collect();
        loop {
            let mut changed = false;
            for a in 0..tgd.body.len() {
                for b in a + 1..tgd.body.len() {
                    if component[a] != component[b] && !vars[a].is_disjoint(&vars[b]) {
                        let merged = component[a].min(component[b]);
                        let from = component[a].max(component[b]);
                        for c in component.iter_mut() {
                            if *c == from {
                                *c = merged;
                            }
                        }
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let roots: BTreeSet<usize> = component.iter().copied().collect();
        if roots.len() > 1 {
            let groups = roots
                .iter()
                .map(|&r| {
                    let members: Vec<String> = component
                        .iter()
                        .enumerate()
                        .filter(|(_, &c)| c == r)
                        .map(|(ai, _)| tgd.body[ai].to_string())
                        .collect();
                    format!("{{{}}}", members.join(", "))
                })
                .collect::<Vec<_>>()
                .join(" x ");
            diagnostics.push(
                Diagnostic::new(
                    DiagnosticCode::CrossProduct,
                    Severity::Warning,
                    format!(
                        "the body joins {} variable-disjoint groups ({groups}): an \
                         unavoidable cross product",
                        roots.len()
                    ),
                )
                .at_tgd(i)
                .at_atom(AtomSpan::body(0)),
            );
            continue;
        }

        // Plan-level check: with every relation empty the planner's
        // estimates all tie, so plan order degenerates to textual order —
        // `prefers_streaming` then means some atom has no bound probe
        // position when reached in textual order.
        let spec = JoinSpec::compile(&tgd.body);
        if spec.plan(&dry, &[]).prefers_streaming() {
            diagnostics.push(
                Diagnostic::new(
                    DiagnosticCode::PlannerFallback,
                    Severity::Info,
                    "the static planner finds no bound probe position for some atom in \
                     textual order and falls back to adaptive streaming; consider \
                     reordering body atoms so each shares a variable with an earlier one"
                        .to_string(),
                )
                .at_tgd(i)
                .at_atom(AtomSpan::body(0)),
            );
        }
    }
}

fn adornment_pass(report: &AdornmentReport, diagnostics: &mut Vec<Diagnostic>) {
    for p in &report.demand_restricted {
        let patterns: Vec<String> = report
            .adorned
            .iter()
            .filter(|a| a.predicate == *p)
            .map(|a| a.pattern.to_string())
            .collect();
        diagnostics.push(
            Diagnostic::new(
                DiagnosticCode::DemandRestricted,
                Severity::Info,
                format!(
                    "predicate {} is demand-restricted under the query (adornments: {}); \
                     a magic-sets rewrite can prune its materialisation",
                    p.name(),
                    patterns.join(", ")
                ),
            )
            .on_predicate(*p),
        );
    }
    for p in &report.unrestricted {
        diagnostics.push(
            Diagnostic::new(
                DiagnosticCode::UnrestrictedDemand,
                Severity::Warning,
                format!(
                    "predicate {} is reached with an all-free adornment: demand \
                     propagation cannot restrict it and the full relation will be \
                     materialised",
                    p.name()
                ),
            )
            .on_predicate(*p),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze_text(text: &str) -> DiagnosticReport {
        let (_, report) = analyze_source(text, &AnalyzerOptions::default());
        report
    }

    fn codes(report: &DiagnosticReport) -> BTreeSet<DiagnosticCode> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_tc_program_has_no_errors() {
        let report = analyze_text("t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).");
        assert!(report.admissible(), "{:?}", report.diagnostics);
        assert_eq!(report.count(Severity::Error), 0);
        // t is derived but never read outside its own recursion? It *is*
        // read (second rule body), so no UnreadPredicate either.
        assert!(!codes(&report).contains(&DiagnosticCode::UnreadPredicate));
    }

    #[test]
    fn parse_errors_become_vlg001() {
        let (program, report) = analyze_source("t(X :- edge(X).", &AnalyzerOptions::default());
        assert!(program.is_none());
        assert!(report.has_errors());
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].code, DiagnosticCode::InvalidProgram);
    }

    #[test]
    fn ward_violations_name_variables_and_candidates() {
        let report = analyze_text("r(X, Z) :- p(X).\n t(Y, Y2) :- r(X, Y), r(X2, Y2).");
        let wards = report.with_code(DiagnosticCode::WardViolation);
        assert_eq!(wards.len(), 2, "one diagnostic per dangerous variable");
        let vars: BTreeSet<&str> = wards.iter().map(|d| d.variable.unwrap().name()).collect();
        assert_eq!(vars, BTreeSet::from(["Y", "Y2"]));
        for d in &wards {
            assert_eq!(d.severity, Severity::Error);
            assert_eq!(d.tgd, Some(1));
            assert!(d.message.contains("misses"), "{}", d.message);
            assert!(
                !d.message.contains("Variable("),
                "no debug formatting: {}",
                d.message
            );
        }
    }

    #[test]
    fn existential_recursion_reports_the_cycle() {
        let report = analyze_text("r(X, Z) :- p(X).\n p(Y) :- r(X, Y).");
        let recs = report.with_code(DiagnosticCode::ExistentialRecursion);
        assert_eq!(recs.len(), 1);
        let d = recs[0];
        assert_eq!(d.severity, Severity::Info, "warded: informational");
        assert_eq!(d.tgd, Some(0));
        assert!(
            d.message.contains("r -> p -> r") || d.message.contains("r -> p"),
            "{}",
            d.message
        );
    }

    #[test]
    fn duplicate_rules_are_reported_up_to_renaming() {
        let report = analyze_text(
            "t(X, Y) :- edge(X, Y).\n t(A, B) :- edge(A, B).\n t(X, Z) :- edge(X, Y), t(Y, Z).",
        );
        let dups = report.with_code(DiagnosticCode::DuplicateRule);
        assert_eq!(dups.len(), 1);
        assert_eq!(dups[0].tgd, Some(1));
    }

    #[test]
    fn cross_products_and_planner_fallbacks_are_distinguished() {
        // Disconnected body: cross product.
        let xp = analyze_text("out(X, Y) :- a(X), b(Y).");
        assert_eq!(xp.with_code(DiagnosticCode::CrossProduct).len(), 1);
        assert!(xp.with_code(DiagnosticCode::PlannerFallback).is_empty());

        // Connected body, but textual order visits c(Y) before anything
        // binds Y: planner falls back to streaming.
        let fb = analyze_text("out(X, Y) :- a(X), c(Y), b(X, Y).");
        assert!(fb.with_code(DiagnosticCode::CrossProduct).is_empty());
        assert_eq!(fb.with_code(DiagnosticCode::PlannerFallback).len(), 1);

        // Well-ordered connected body: neither.
        let ok = analyze_text("out(X, Y) :- a(X), b(X, Y), c(Y).");
        assert!(ok.with_code(DiagnosticCode::CrossProduct).is_empty());
        assert!(ok.with_code(DiagnosticCode::PlannerFallback).is_empty());
    }

    #[test]
    fn underivable_and_unread_predicates_are_flagged() {
        let report = analyze_text("p(X) :- p(X).\n q(X) :- e(X).");
        let under = report.with_code(DiagnosticCode::UnderivablePredicate);
        assert_eq!(under.len(), 1);
        assert_eq!(under[0].predicate.unwrap().name(), "p");
        // q is derived but never read.
        let unread: BTreeSet<&str> = report
            .with_code(DiagnosticCode::UnreadPredicate)
            .iter()
            .map(|d| d.predicate.unwrap().name())
            .collect();
        assert!(unread.contains("q"));
    }

    #[test]
    fn service_options_reject_existentials_and_edb_collisions() {
        let options = AnalyzerOptions {
            require_datalog: true,
            known_edb: BTreeSet::from([Predicate::new("edge")]),
            known_arities: BTreeMap::from([(Predicate::new("edge"), 2)]),
            ..AnalyzerOptions::default()
        };
        // Existential head: error under a Datalog-only target.
        let (_, report) = analyze_source("r(X, Z) :- edge(X, Y).", &options);
        assert!(report.has_errors());
        assert_eq!(report.with_code(DiagnosticCode::NonDatalogRule).len(), 1);

        // Head writing into the serving EDB: error.
        let (_, report) = analyze_source("edge(Y, X) :- edge(X, Y).", &options);
        assert!(report.has_errors());
        assert_eq!(report.with_code(DiagnosticCode::EdbCollision).len(), 1);

        // Arity conflict with the serving schema: error.
        let (_, report) = analyze_source("t(X) :- edge(X).", &options);
        assert!(report.has_errors());
        assert!(!report.with_code(DiagnosticCode::InvalidProgram).is_empty());

        // A clean candidate is admissible.
        let (_, report) = analyze_source("t(X, Y) :- edge(X, Y).", &options);
        assert!(report.admissible(), "{:?}", report.diagnostics);
    }

    #[test]
    fn signatures_report_roles_and_rule_sets() {
        let report = analyze_text("t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).");
        let t = report
            .signatures
            .iter()
            .find(|s| s.predicate.name() == "t")
            .unwrap();
        assert!(matches!(t.role, PredicateRole::Intensional));
        assert_eq!(t.defining_rules, vec![0, 1]);
        assert_eq!(t.reading_rules, vec![1]);
        assert!(t.derivable);
        let edge = report
            .signatures
            .iter()
            .find(|s| s.predicate.name() == "edge")
            .unwrap();
        assert!(matches!(edge.role, PredicateRole::Extensional));
        assert_eq!(edge.arity, 2);
    }

    #[test]
    fn diagnostics_render_with_spans_and_interned_names() {
        let report = analyze_text("r(X, Z) :- p(X).\n t(Y, Y2) :- r(X, Y), r(X2, Y2).");
        let rendered = report.with_code(DiagnosticCode::WardViolation)[0].to_string();
        assert!(rendered.starts_with("VLG004 error tgd=1"), "{rendered}");
        assert!(rendered.contains(" :: "), "{rendered}");
        assert!(rendered.contains("var=Y"), "{rendered}");
    }
}
