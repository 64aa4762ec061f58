//! Homomorphisms from sets of atoms into instances — the join kernel.
//!
//! A homomorphism is a substitution that is the identity on constants and maps
//! every atom of the source set onto an atom of the target instance. This is
//! exactly conjunctive-query evaluation, and it is used pervasively: CQ
//! evaluation over the chase, trigger detection in the chase, the
//! "match-and-drop" step of the proof-tree search, and the leaves of chase
//! trees.
//!
//! # The zero-allocation kernel
//!
//! The hot path is [`JoinSpec`] + [`Matcher`]: a pattern is compiled once
//! into per-atom argument specs (`Rigid` term or variable `Slot`), and the
//! backtracking search binds slots in a fixed-size array with an **undo
//! trail** (bind on match, pop on backtrack). Candidate atoms are enumerated
//! as row ids borrowed from the instance's lazy column indexes
//! ([`crate::database::Relation::with_matching_rows`]). The inner per-candidate
//! loop therefore performs **no heap allocation** and never clones a
//! substitution; results are streamed to a callback as a [`Bindings`] view.
//!
//! The kernel works on **packed terms** ([`crate::term::PackedTerm`]):
//! slots, rigid arguments and candidate rows are all 4-byte u32 values, so
//! the innermost compare-and-bind loop touches a quarter of the memory the
//! enum representation would. Pattern terms are packed once at compile time
//! (a rigid term past the 30-bit dictionary compiles to the `UNMATCHABLE`
//! sentinel, which correctly matches nothing), and results unpack lazily in
//! the [`Bindings`] accessors.
//!
//! # Join paths: adaptive streaming vs. planned build/probe
//!
//! Atom selection is adaptive by default: at every search node the kernel
//! picks the *most selective* remaining atom, where an atom's cost is the
//! smallest candidate-list length over all of its already-resolved argument
//! positions (not merely the first bound position — a first-bound-position
//! probe can be arbitrarily worse than the best one).
//!
//! The adaptive search re-estimates every remaining atom at every node —
//! several index probes (each a column `RwLock` acquisition) per candidate
//! row. For the fixpoint engines, which run the *same* pattern with the
//! *same* shape of bound slots thousands of times per round, that planning
//! work is identical on every run. [`JoinSpec::plan`] therefore computes a
//! **static build/probe plan** once per (pattern, prematched-atom set,
//! frozen instance): a greedy join order in which each step probes a lazy
//! key index (the "build" side — built once, reused by every probe) at the
//! position — or, when two or more positions of an atom are rigid or bound
//! by earlier steps, the **composite column set** — estimated most
//! selective, using (memoised) distinct key counts for positions that will
//! be bound by the trail and exact index hits for rigid keys. A composite
//! step fuses its resolved values into one u64
//! ([`crate::database::fuse_key`]) and probes the composite index, so every
//! fused position is settled by the key itself instead of row-at-a-time
//! residual filtering; the miss-heavy probes of semi-naive delta rounds are
//! additionally short-circuited by the indexes' fingerprint filters
//! (observable as [`JoinStats::misses_filtered`] and
//! [`JoinStats::composite_probes`]). Execution with [`Matcher::set_plan`]
//! then skips all per-node estimation: one index probe per step per binding.
//! When the greedy planner detects a step with no bound position (a cross
//! product — the estimates cannot distinguish orders), the plan records that
//! streaming is preferable and the matcher transparently falls back to the
//! adaptive path; this is the selectivity-based choice between the two
//! kernels.
//!
//! Both paths enumerate the same match set over the same frozen instance and
//! count `probes` in the same unit (candidate rows examined); the planned
//! path additionally fixes the emission order, which is what makes row-id
//! assignment reproducible across thread counts in the sharded engines.
//!
//! The classic [`homomorphisms`] / [`exists_homomorphism`] entry points are
//! thin compatibility wrappers that compile a spec per call and materialise
//! `Substitution`s from the streamed bindings. Engines (Datalog, chase, proof
//! search) drive the kernel directly.
//!
//! A faithful port of the seed's allocation-heavy algorithm is retained in
//! [`mod@reference`] as a correctness oracle for property tests and as the
//! baseline the join benchmarks compare against.

use crate::atom::Atom;
use crate::budget::{KernelBudget, BUDGET_POLL_INTERVAL};
use crate::database::{fuse_key, ColSet, Instance, Relation, RowId};
use crate::substitution::Substitution;
use crate::term::{PackedTerm, Term, Variable};
use std::ops::ControlFlow;

/// Options for the homomorphism search.
#[derive(Clone, Copy, Debug)]
pub struct HomSearch {
    /// Stop after this many homomorphisms have been found (`usize::MAX` for
    /// all of them).
    pub limit: usize,
}

impl Default for HomSearch {
    fn default() -> Self {
        HomSearch { limit: usize::MAX }
    }
}

impl HomSearch {
    /// A search that stops after the first homomorphism.
    pub fn first() -> HomSearch {
        HomSearch { limit: 1 }
    }

    /// A search that enumerates every homomorphism.
    pub fn all() -> HomSearch {
        HomSearch::default()
    }
}

/// Counters for one kernel run.
#[derive(Clone, Copy, Debug, Default)]
pub struct JoinStats {
    /// Candidate rows examined (the unit shared by every engine's
    /// probe counter).
    pub probes: u64,
    /// Homomorphisms emitted.
    pub matches: u64,
    /// Planned probe steps answered by a composite (multi-column) key index
    /// — each one replaces a single-column probe plus row-at-a-time residual
    /// filtering of the other bound positions.
    pub composite_probes: u64,
    /// Index probes skipped entirely because the fingerprint filter proved
    /// the key absent (the dominant case in miss-heavy semi-naive delta
    /// rounds). Skipped probes have zero candidates either way, so this
    /// counter never correlates with a result change.
    pub misses_filtered: u64,
}

impl JoinStats {
    /// Folds another run's counters into this one.
    pub fn absorb(&mut self, other: JoinStats) {
        self.probes += other.probes;
        self.matches += other.matches;
        self.composite_probes += other.composite_probes;
        self.misses_filtered += other.misses_filtered;
    }
}

/// One compiled pattern argument: either a packed term that must match
/// exactly (constant, null, or seed-substituted term — `UNMATCHABLE` when
/// the term cannot be packed and therefore occurs in no instance) or a
/// variable slot.
#[derive(Clone, Copy, Debug)]
enum ArgSpec {
    Rigid(PackedTerm),
    Slot(u32),
}

#[derive(Clone, Debug)]
struct CompiledAtom {
    predicate: crate::atom::Predicate,
    args: Vec<ArgSpec>,
}

/// A pattern (conjunction of atoms) compiled for the join kernel: variables
/// are numbered into dense slots, every argument becomes an `ArgSpec`.
/// Compile once, run many times via [`Matcher`].
#[derive(Clone, Debug)]
pub struct JoinSpec {
    atoms: Vec<CompiledAtom>,
    /// Slot → variable, in order of first occurrence.
    vars: Vec<Variable>,
}

impl JoinSpec {
    /// Compiles a pattern.
    pub fn compile(atoms: &[Atom]) -> JoinSpec {
        JoinSpec::compile_seeded(atoms, &Substitution::new())
    }

    /// Compiles a pattern with a seed substitution applied on the fly:
    /// variables mapped by the seed become rigid terms (or slots for the
    /// *renamed* variable if the seed maps variable to variable), exactly as
    /// if `seed.apply_atoms(atoms)` had been compiled — without allocating
    /// the intermediate atoms.
    pub fn compile_seeded(atoms: &[Atom], seed: &Substitution) -> JoinSpec {
        let mut vars: Vec<Variable> = Vec::new();
        let mut compiled = Vec::with_capacity(atoms.len());
        for atom in atoms {
            let args = atom
                .terms
                .iter()
                .map(|t| match seed.apply_term(t) {
                    Term::Var(v) => {
                        let slot = vars.iter().position(|&w| w == v).unwrap_or_else(|| {
                            vars.push(v);
                            vars.len() - 1
                        });
                        ArgSpec::Slot(slot as u32)
                    }
                    rigid => {
                        ArgSpec::Rigid(PackedTerm::pack(rigid).unwrap_or(PackedTerm::UNMATCHABLE))
                    }
                })
                .collect();
            compiled.push(CompiledAtom {
                predicate: atom.predicate,
                args,
            });
        }
        JoinSpec {
            atoms: compiled,
            vars,
        }
    }

    /// Number of variable slots.
    pub fn num_slots(&self) -> usize {
        self.vars.len()
    }

    /// Number of pattern atoms.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// The predicate of pattern atom `i`.
    pub fn atom_predicate(&self, i: usize) -> crate::atom::Predicate {
        self.atoms[i].predicate
    }

    /// The arity of pattern atom `i`.
    pub fn atom_arity(&self, i: usize) -> usize {
        self.atoms[i].args.len()
    }

    /// The relation pattern atom `i` ranges over in `instance`: `None` when
    /// the relation is absent or has another arity (the atom then matches
    /// nothing).
    // Called from inside the engines' monomorphised per-task closures: left
    // to a cross-crate call it cost `chase_warded` 8% of its wall time.
    #[inline]
    pub fn atom_relation<'i>(&self, instance: &'i Instance, i: usize) -> Option<&'i Relation> {
        instance
            .relation(self.atom_predicate(i))
            .filter(|rel| rel.arity() == self.atom_arity(i))
    }

    /// The slot of a variable, if the variable occurs in the pattern.
    pub fn slot_of(&self, v: Variable) -> Option<usize> {
        self.vars.iter().position(|&w| w == v)
    }

    /// The variable of a slot.
    pub fn var_of(&self, slot: usize) -> Variable {
        self.vars[slot]
    }

    /// The image of `atom` where each pattern variable resolves to
    /// `values[slot]` (a dense trigger tuple as collected from a match);
    /// variables outside the pattern (e.g. a TGD head's existential
    /// variables) fall back to `extra`.
    pub fn image_with(
        &self,
        atom: &Atom,
        values: &[Term],
        extra: impl Fn(Variable) -> Option<Term>,
    ) -> Atom {
        Atom {
            predicate: atom.predicate,
            terms: atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) => self
                        .slot_of(*v)
                        .and_then(|s| values.get(s).copied())
                        .or_else(|| extra(*v))
                        .unwrap_or(*t),
                    other => *other,
                })
                .collect(),
        }
    }

    /// Compiles `atom` into a packed row template over this spec's slots:
    /// constants and nulls pack once, variables become slot references. With
    /// a template, [`Bindings::emit`] appends the atom's image to a packed
    /// row buffer with zero per-term searching — the emission path of the
    /// batched fixpoint engines.
    ///
    /// # Panics
    ///
    /// If `atom` mentions a variable that does not occur in the pattern
    /// (engines only build templates for heads whose variables are covered
    /// by the body), or a rigid term past the packed dictionary.
    pub fn row_template(&self, atom: &Atom) -> RowTemplate {
        RowTemplate {
            args: atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) => ArgSpec::Slot(
                        self.slot_of(*v)
                            .expect("row-template variable must occur in the pattern")
                            as u32,
                    ),
                    rigid => ArgSpec::Rigid(
                        PackedTerm::pack(*rigid)
                            .expect("row-template term fits the packed dictionary"),
                    ),
                })
                .collect(),
        }
    }

    /// Computes a static **build/probe join plan** for this pattern against
    /// `target` with the default options (composite keys enabled), assuming
    /// the atoms in `prematched` are already satisfied (with all their
    /// variable slots bound — the state a [`Matcher::prematch`] of those
    /// atoms produces). See [`JoinSpec::plan_with_options`].
    pub fn plan(&self, target: &Instance, prematched: &[usize]) -> JoinPlan {
        self.plan_with_options(target, prematched, PlanOptions::default())
    }

    /// Computes a static **build/probe join plan** (see [`JoinSpec::plan`])
    /// with explicit [`PlanOptions`].
    ///
    /// The greedy planner repeatedly picks the cheapest remaining atom,
    /// estimating each candidate atom by the most selective of:
    ///
    /// * an exact column-index hit count for rigid arguments,
    /// * `rows / distinct_keys(column)` (the average probe fan-out of the
    ///   lazy column index, which doubles as the build side of the hash
    ///   join) for arguments bound by earlier steps,
    /// * when ≥ 2 positions are resolvable and composite keys are enabled:
    ///   the analogous **composite** estimate over the fused key of the (up
    ///   to [`ColSet::MAX_COLS`]) individually most selective resolvable
    ///   positions — an exact fused-key hit count when they are all rigid,
    ///   `rows / distinct_keys(column set)` (memoised in the composite
    ///   index) otherwise. A strictly better composite estimate emits a
    ///   composite probe step, which covers every fused position at probe
    ///   time — no residual row-at-a-time filtering of the other bound
    ///   columns remains,
    /// * and the full relation size when nothing is bound (a scan).
    ///
    /// Estimates depend only on the frozen instance's statistics, so over a
    /// fixpoint round the plan — and with it the match emission order — is
    /// identical for every worker and every thread count.
    ///
    /// If some step other than the first has no bound position (a cross
    /// product), the plan records a preference for the adaptive streaming
    /// kernel ([`JoinPlan::prefers_streaming`]); [`Matcher::for_each`] then
    /// ignores the plan, which is the selectivity-based fallback.
    pub fn plan_with_options(
        &self,
        target: &Instance,
        prematched: &[usize],
        options: PlanOptions,
    ) -> JoinPlan {
        let mut bound = vec![false; self.vars.len()];
        let mut used = vec![false; self.atoms.len()];
        for &i in prematched {
            used[i] = true;
            for arg in &self.atoms[i].args {
                if let ArgSpec::Slot(s) = arg {
                    bound[*s as usize] = true;
                }
            }
        }
        let mut steps = Vec::with_capacity(self.atoms.len());
        let mut prefer_streaming = false;
        while let Some(_next) = used.iter().position(|u| !u) {
            let mut best: Option<(usize, usize, PlanProbe)> = None;
            for (i, atom) in self.atoms.iter().enumerate() {
                if used[i] {
                    continue;
                }
                let Some(rel) = target
                    .relation(atom.predicate)
                    .filter(|r| r.arity() == atom.args.len())
                else {
                    // Missing relation: the pattern cannot match at all (the
                    // matcher fail-fasts before consulting the plan), so any
                    // placement works; estimate zero to settle it first.
                    if best.as_ref().is_none_or(|&(_, c, _)| c > 0) {
                        best = Some((i, 0, PlanProbe::Scan));
                    }
                    continue;
                };
                let mut atom_best = (rel.len(), PlanProbe::Scan);
                // (estimate, position) of every resolvable argument, for the
                // composite bound-set scoring below.
                let mut resolvable: Vec<(usize, usize)> = Vec::new();
                for (pos, &arg) in atom.args.iter().enumerate() {
                    let est = match arg {
                        ArgSpec::Rigid(key) => Some(rel.matching_count_packed(pos, key)),
                        ArgSpec::Slot(s) if bound[s as usize] => {
                            // Average fan-out of the build side.
                            Some(rel.len().div_ceil(rel.distinct_count(pos).max(1)))
                        }
                        ArgSpec::Slot(_) => None,
                    };
                    if let Some(est) = est {
                        resolvable.push((est, pos));
                        if est < atom_best.0 || matches!(atom_best.1, PlanProbe::Scan) {
                            atom_best = (est, PlanProbe::Index { pos });
                        }
                    }
                }
                // Composite bound set: fuse the individually most selective
                // resolvable positions. Skipped when a single position is
                // already (near-)exact — a composite cannot beat estimate
                // ≤ 1, so the extra index would never pay for itself.
                if options.composite_keys && resolvable.len() >= 2 && atom_best.0 > 1 {
                    resolvable.sort_unstable();
                    let take = resolvable.len().min(ColSet::MAX_COLS);
                    let mut cols: Vec<usize> =
                        resolvable[..take].iter().map(|&(_, pos)| pos).collect();
                    cols.sort_unstable();
                    let cols = ColSet::new(&cols);
                    let rigid_key = self.fused_rigid_key(i, cols);
                    // Pre-gate before materialising the composite index,
                    // for the fan-out branch only: under column
                    // independence the fused distinct count is at most the
                    // product of the per-column ones (memoised, and
                    // already built for the single-column plan), so the
                    // optimistic estimate below lower-bounds the real
                    // average fan-out — if even it cannot beat the current
                    // best, the composite index would never be probed.
                    // An all-rigid set bypasses the gate: its estimate is
                    // an *exact* hit count, which can undercut any
                    // average-based bound (down to 0 for a pair that
                    // never co-occurs).
                    let worth_scoring = rigid_key.is_some() || {
                        let optimistic_distinct = cols
                            .iter()
                            .map(|pos| rel.distinct_count(pos))
                            .fold(1usize, |acc, d| acc.saturating_mul(d.max(1)))
                            .min(rel.len());
                        rel.len().div_ceil(optimistic_distinct.max(1)) < atom_best.0
                    };
                    if worth_scoring {
                        let est = match rigid_key {
                            // All fused positions rigid: exact hit count.
                            Some(key) => rel.key_matching_count(cols, key),
                            // Some position binds at run time: average
                            // fan-out of the composite build side
                            // (memoised distinct).
                            None => rel.len().div_ceil(rel.key_distinct_count(cols).max(1)),
                        };
                        if est < atom_best.0 {
                            atom_best = (est, PlanProbe::Composite { cols });
                        }
                    }
                }
                if best.as_ref().is_none_or(|&(_, c, _)| atom_best.0 < c) {
                    best = Some((i, atom_best.0, atom_best.1));
                }
            }
            let (atom, estimate, probe) = best.expect("some atom is open");
            if !steps.is_empty() && matches!(probe, PlanProbe::Scan) {
                let has_rigid = self.atoms[atom]
                    .args
                    .iter()
                    .any(|a| matches!(a, ArgSpec::Rigid(_)));
                if !has_rigid {
                    prefer_streaming = true;
                }
            }
            used[atom] = true;
            for arg in &self.atoms[atom].args {
                if let ArgSpec::Slot(s) = arg {
                    bound[*s as usize] = true;
                }
            }
            steps.push(PlanStep {
                atom,
                probe,
                estimate,
            });
        }
        let mut prematched = prematched.to_vec();
        prematched.sort_unstable();
        let plan = JoinPlan {
            prematched,
            steps,
            prefer_streaming,
        };
        vadalog_obs::event("model.plan", || plan.explain(self).join("; "));
        plan
    }

    /// The fused key of atom `i` over `cols` when every fused position is
    /// rigid (plan-time exact counting); `None` as soon as one position is a
    /// slot, whose value only exists at run time.
    fn fused_rigid_key(&self, i: usize, cols: ColSet) -> Option<u64> {
        let mut vals = [PackedTerm::UNMATCHABLE; ColSet::MAX_COLS];
        let mut n = 0;
        for pos in cols.iter() {
            match self.atoms[i].args[pos] {
                ArgSpec::Rigid(t) => {
                    vals[n] = t;
                    n += 1;
                }
                ArgSpec::Slot(_) => return None,
            }
        }
        Some(fuse_key(&vals[..n]))
    }
}

/// Options of [`JoinSpec::plan_with_options`].
#[derive(Clone, Copy, Debug)]
pub struct PlanOptions {
    /// Allow composite (multi-column) probe steps backed by fused-key
    /// indexes. On by default; the joins benchmark disables it to time the
    /// single-column probe path on identical data.
    pub composite_keys: bool,
}

impl Default for PlanOptions {
    fn default() -> PlanOptions {
        PlanOptions {
            composite_keys: true,
        }
    }
}

/// An atom compiled into packed slot references, for appending match images
/// to packed row buffers without re-resolving variables per match. Built by
/// [`JoinSpec::row_template`], consumed by [`Bindings::emit`].
#[derive(Clone, Debug)]
pub struct RowTemplate {
    args: Vec<ArgSpec>,
}

impl RowTemplate {
    /// Number of terms the template emits per match.
    pub fn arity(&self) -> usize {
        self.args.len()
    }
}

/// One step of a static build/probe plan.
#[derive(Clone, Copy, Debug)]
enum PlanProbe {
    /// Probe the lazy column key index at this position with the step's
    /// runtime value (a rigid term or a slot bound by an earlier step).
    Index { pos: usize },
    /// Probe the composite key index over this column set with the fused
    /// key of the step's runtime values (each position rigid or bound by an
    /// earlier step). The candidates already agree on every fused position,
    /// so no residual filtering on them survives — the remaining full-row
    /// comparison only settles positions outside the set (and the
    /// vanishingly rare 3-column fold collision).
    Composite { cols: ColSet },
    /// Enumerate the whole relation.
    Scan,
}

#[derive(Clone, Copy, Debug)]
struct PlanStep {
    atom: usize,
    probe: PlanProbe,
    /// The planner's estimated fan-out (matching rows) when this step was
    /// chosen — exact for rigid single/fused keys, an average otherwise.
    /// Purely observational: surfaced by [`JoinPlan::explain`], never read
    /// by the kernel.
    estimate: usize,
}

/// A static join order with per-atom probe positions, computed once by
/// [`JoinSpec::plan`] and replayed by [`Matcher::set_plan`] /
/// [`Matcher::for_each`] without any per-node re-estimation.
#[derive(Clone, Debug)]
pub struct JoinPlan {
    /// Atom indexes assumed prematched (sorted).
    prematched: Vec<usize>,
    steps: Vec<PlanStep>,
    prefer_streaming: bool,
}

impl JoinPlan {
    /// `true` when the planner estimated the adaptive streaming kernel to be
    /// the better path (some mid-join step would be an unbound cross-product
    /// scan). The matcher honours this automatically.
    pub fn prefers_streaming(&self) -> bool {
        self.prefer_streaming
    }

    /// Renders the plan as one line per step — the shared plan text used
    /// by the service's `EXPLAIN` verb, the lint CLI and the `model.plan`
    /// trace event, so plan descriptions cannot drift between surfaces.
    ///
    /// Each line reads
    /// `step=<k> atom=<predicate>/<arity> probe=<kind> est=<fan-out>`
    /// where `<kind>` is `scan`, `index(col=<pos>)` or
    /// `composite(cols=<pos>+<pos>…)` and `est` is the planner's estimated
    /// matching-row count when the step was chosen. When the planner
    /// recorded a preference for the adaptive streaming kernel, a final
    /// `fallback=streaming …` line says so.
    pub fn explain(&self, spec: &JoinSpec) -> Vec<String> {
        let mut lines = Vec::with_capacity(self.steps.len() + 1);
        for (k, step) in self.steps.iter().enumerate() {
            let probe = match step.probe {
                PlanProbe::Index { pos } => format!("index(col={pos})"),
                PlanProbe::Composite { cols } => {
                    let cols: Vec<String> = cols.iter().map(|c| c.to_string()).collect();
                    format!("composite(cols={})", cols.join("+"))
                }
                PlanProbe::Scan => "scan".to_string(),
            };
            lines.push(format!(
                "step={k} atom={}/{} probe={probe} est={}",
                spec.atom_predicate(step.atom),
                spec.atom_arity(step.atom),
                step.estimate,
            ));
        }
        if self.prefer_streaming {
            lines.push("fallback=streaming reason=unbound-mid-join-scan".to_string());
        }
        lines
    }

    /// `true` iff the plan was computed for exactly this prematched-atom
    /// usage state.
    fn applies_to(&self, used: &[bool]) -> bool {
        let mut expected = self.prematched.iter().copied();
        for (i, &u) in used.iter().enumerate() {
            if u && expected.next() != Some(i) {
                return false;
            }
        }
        expected.next().is_none()
    }
}

/// Row-id sentinel for pattern atoms satisfied by [`Matcher::prematch`]
/// (their "row" lives outside the target instance).
pub const PREMATCHED_ROW: RowId = RowId::MAX;

/// A streamed result: read-only view of the kernel's bind state at a match.
pub struct Bindings<'a> {
    vars: &'a [Variable],
    slots: &'a [Option<PackedTerm>],
    rows: &'a [RowId],
}

impl Bindings<'_> {
    /// The binding of a variable, if bound.
    pub fn get(&self, v: Variable) -> Option<Term> {
        let slot = self.vars.iter().position(|&w| w == v)?;
        self.slots[slot].map(PackedTerm::unpack)
    }

    /// The packed binding of a slot, if bound.
    pub fn packed_slot(&self, slot: usize) -> Option<PackedTerm> {
        self.slots[slot]
    }

    /// Appends the image of a compiled [`RowTemplate`] to a packed row
    /// buffer: rigid terms are copied, slots read directly — no variable
    /// lookup, no unpacking. This is how the batched engines park derived
    /// rows.
    ///
    /// # Panics
    ///
    /// If a template slot is unbound (templates are emitted on full matches,
    /// which bind every pattern slot).
    pub fn emit(&self, template: &RowTemplate, out: &mut Vec<PackedTerm>) {
        for arg in &template.args {
            out.push(match *arg {
                ArgSpec::Rigid(p) => p,
                ArgSpec::Slot(s) => {
                    self.slots[s as usize].expect("template slot bound by a full match")
                }
            });
        }
    }

    /// Applies the bindings to a term (variables resolve to their binding or
    /// themselves; constants and nulls are fixed).
    pub fn resolve(&self, t: &Term) -> Term {
        match t {
            Term::Var(v) => self.get(*v).unwrap_or(*t),
            other => *other,
        }
    }

    /// The image of an atom under the bindings.
    pub fn image(&self, atom: &Atom) -> Atom {
        Atom {
            predicate: atom.predicate,
            terms: atom.terms.iter().map(|t| self.resolve(t)).collect(),
        }
    }

    /// The target row id matched by each pattern atom, in pattern order
    /// ([`PREMATCHED_ROW`] for atoms satisfied via [`Matcher::prematch`]).
    pub fn matched_rows(&self) -> &[RowId] {
        self.rows
    }

    /// Materialises the bound slots as a [`Substitution`].
    pub fn to_substitution(&self) -> Substitution {
        self.substitution_extending(&Substitution::new())
    }

    /// Materialises `seed` extended with the bound slots (the contract of the
    /// classic [`homomorphisms`] entry point).
    pub fn substitution_extending(&self, seed: &Substitution) -> Substitution {
        let mut out = seed.clone();
        for (slot, binding) in self.slots.iter().enumerate() {
            if let Some(t) = binding {
                out.bind_var(self.vars[slot], t.unpack());
            }
        }
        out
    }
}

/// Reusable search state for a [`JoinSpec`]. Create once, then per run:
/// [`Matcher::clear`], optional [`Matcher::prebind`] / [`Matcher::prematch`],
/// then [`Matcher::for_each`]. All buffers are reused across runs, so a
/// matcher driven in a loop (the semi-naive delta loop, the chase trigger
/// loop) allocates nothing after its first run.
pub struct Matcher<'s> {
    spec: &'s JoinSpec,
    slots: Vec<Option<PackedTerm>>,
    trail: Vec<u32>,
    used: Vec<bool>,
    rows: Vec<RowId>,
    plan: Option<&'s JoinPlan>,
    limit: usize,
    budget: Option<KernelBudget<'s>>,
}

impl<'s> Matcher<'s> {
    /// Creates a matcher for a compiled pattern.
    pub fn new(spec: &'s JoinSpec) -> Matcher<'s> {
        Matcher {
            slots: vec![None; spec.num_slots()],
            trail: Vec::with_capacity(spec.num_slots()),
            used: vec![false; spec.num_atoms()],
            rows: vec![PREMATCHED_ROW; spec.num_atoms()],
            spec,
            plan: None,
            limit: usize::MAX,
            budget: None,
        }
    }

    /// Resets all bindings and pre-matches for the next run (the plan and
    /// the limit are run configuration and persist).
    pub fn clear(&mut self) {
        self.slots.fill(None);
        self.trail.clear();
        self.used.fill(false);
        self.rows.fill(PREMATCHED_ROW);
    }

    /// Installs a static build/probe plan (see [`JoinSpec::plan`]). The plan
    /// is used by [`Matcher::for_each`] whenever it does not prefer
    /// streaming and its prematched-atom assumption matches the matcher's
    /// state; otherwise the adaptive streaming search runs, so setting a
    /// plan never changes the match set.
    pub fn set_plan(&mut self, plan: Option<&'s JoinPlan>) -> &mut Self {
        self.plan = plan;
        self
    }

    /// Stop after `limit` matches.
    pub fn set_limit(&mut self, limit: usize) -> &mut Self {
        self.limit = limit;
        self
    }

    /// Installs a cooperative cancellation budget (see [`crate::budget`]).
    /// The kernel's candidate loops poll it every
    /// [`crate::budget::BUDGET_POLL_INTERVAL`] probes; a tripped budget
    /// stops the enumeration like a callback `Break`, and the caller reads
    /// the reason off the budget's [`crate::budget::CancelCell`]. With no
    /// budget (the default) the kernel behaves — and counts — exactly as
    /// before.
    pub fn set_budget(&mut self, budget: Option<KernelBudget<'s>>) -> &mut Self {
        self.budget = budget;
        self
    }

    /// Pre-binds a variable before the search. Returns `false` on conflict
    /// with an existing pre-binding (no state is changed in that case).
    /// Terms outside the packed dictionary bind the `UNMATCHABLE` sentinel:
    /// they occur in no instance, so the constrained slots match nothing —
    /// the search correctly yields zero results.
    pub fn prebind(&mut self, v: Variable, t: Term) -> bool {
        let packed = PackedTerm::pack(t).unwrap_or(PackedTerm::UNMATCHABLE);
        match self.spec.slot_of(v) {
            // Binding a variable the pattern never mentions constrains nothing.
            None => true,
            Some(slot) => match self.slots[slot] {
                Some(existing) => existing == packed,
                None => {
                    self.slots[slot] = Some(packed);
                    true
                }
            },
        }
    }

    /// Matches pattern atom `atom_index` against a concrete packed row
    /// (typically a delta fact addressed by row id), binding its slots and
    /// marking the atom as satisfied. Returns `false` if the row does not
    /// match (the caller should [`Matcher::clear`] before the next attempt).
    pub fn prematch(&mut self, atom_index: usize, row: &[PackedTerm]) -> bool {
        let atom = &self.spec.atoms[atom_index];
        if atom.args.len() != row.len() {
            return false;
        }
        for (arg, &val) in atom.args.iter().zip(row.iter()) {
            match *arg {
                ArgSpec::Rigid(t) => {
                    if t != val {
                        return false;
                    }
                }
                ArgSpec::Slot(s) => match self.slots[s as usize] {
                    Some(existing) => {
                        if existing != val {
                            return false;
                        }
                    }
                    None => self.slots[s as usize] = Some(val),
                },
            }
        }
        self.used[atom_index] = true;
        self.rows[atom_index] = PREMATCHED_ROW;
        true
    }

    /// Runs the search over `target`, streaming every homomorphism to `f`.
    /// Returning `ControlFlow::Break(())` from `f` stops the enumeration.
    pub fn for_each<F>(&mut self, target: &Instance, mut f: F) -> JoinStats
    where
        F: FnMut(&Bindings<'_>) -> ControlFlow<()>,
    {
        let mut stats = JoinStats::default();
        if self.limit == 0 {
            return stats;
        }
        // Fail fast if some open pattern atom has no relation (or the wrong
        // arity) in the target: the pattern cannot match at all.
        let open = self.used.iter().filter(|u| !**u).count();
        for (i, atom) in self.spec.atoms.iter().enumerate() {
            if !self.used[i]
                && target
                    .relation(atom.predicate)
                    .filter(|r| r.arity() == atom.args.len())
                    .is_none()
            {
                return stats;
            }
        }
        // A planned run replays the static build/probe order; the plan is
        // honoured only when it does not prefer streaming and was computed
        // for exactly this prematched-atom state, so a stale or unsuitable
        // plan degrades to the adaptive search instead of misbehaving.
        let planned = self
            .plan
            .filter(|p| !p.prefer_streaming && p.applies_to(&self.used));
        // A budget that is already exceeded stops the run before any probe.
        if self.budget.is_some_and(|b| b.poll()) {
            return stats;
        }
        let mut ctx = SearchCtx {
            spec: self.spec,
            target,
            slots: &mut self.slots,
            trail: &mut self.trail,
            used: &mut self.used,
            rows: &mut self.rows,
            limit: self.limit,
            emitted: 0,
            budget: self.budget,
            stats: &mut stats,
        };
        let _ = match planned {
            Some(plan) => search_planned(&mut ctx, plan, 0, &mut f),
            None => search(&mut ctx, open, &mut f),
        };
        stats
    }
}

struct SearchCtx<'a, 'b> {
    spec: &'a JoinSpec,
    target: &'b Instance,
    slots: &'a mut Vec<Option<PackedTerm>>,
    trail: &'a mut Vec<u32>,
    used: &'a mut Vec<bool>,
    rows: &'a mut Vec<RowId>,
    limit: usize,
    emitted: usize,
    budget: Option<KernelBudget<'a>>,
    stats: &'a mut JoinStats,
}

/// The cheapest way to enumerate candidates for one atom.
enum Probe {
    /// Use the column index at this position with this packed key.
    Index(usize, PackedTerm),
    /// Scan the whole relation.
    Scan,
}

impl<'b> SearchCtx<'_, 'b> {
    /// The resolved value of an argument, if rigid or already bound.
    fn resolved(&self, arg: ArgSpec) -> Option<PackedTerm> {
        match arg {
            ArgSpec::Rigid(t) => Some(t),
            ArgSpec::Slot(s) => self.slots[s as usize],
        }
    }

    /// The relation of pattern atom `i` (validated to exist, with matching
    /// arity, before the search starts; resolving it is one lookup in the
    /// Fx-hashed relation map and keeps the run allocation-free).
    fn rel_of(&self, i: usize) -> &'b Relation {
        self.target
            .relation(self.spec.atoms[i].predicate)
            .expect("unsatisfiable atoms are rejected before the search")
    }

    /// Estimates the candidate count for atom `i` and picks its best probe:
    /// the indexed position with the smallest candidate list, falling back to
    /// a full scan when no argument is resolved yet.
    fn cost_of(&self, i: usize) -> (usize, Probe) {
        let rel = self.rel_of(i);
        let mut best = (rel.len(), Probe::Scan);
        for (pos, &arg) in self.spec.atoms[i].args.iter().enumerate() {
            if let Some(key) = self.resolved(arg) {
                let count = rel.matching_count_packed(pos, key);
                if count < best.0 || matches!(best.1, Probe::Scan) {
                    best = (count, Probe::Index(pos, key));
                    if count == 0 {
                        break;
                    }
                }
            }
        }
        best
    }

    /// The probe for atom `i` when its candidate *count* is not needed (the
    /// atom is the only choice): with zero or one resolved position no index
    /// size has to be consulted at all.
    fn probe_of(&self, i: usize) -> Probe {
        let mut found: Option<Probe> = None;
        for (pos, &arg) in self.spec.atoms[i].args.iter().enumerate() {
            if let Some(key) = self.resolved(arg) {
                if found.is_some() {
                    // Several resolved positions: pick the most selective.
                    return self.cost_of(i).1;
                }
                found = Some(Probe::Index(pos, key));
            }
        }
        found.unwrap_or(Probe::Scan)
    }

    /// Picks the next atom: the unused atom with the fewest candidates.
    fn select(&self, open: usize) -> Option<(usize, Probe)> {
        if open == 1 {
            let i = self.used.iter().position(|u| !u)?;
            return Some((i, self.probe_of(i)));
        }
        let mut best: Option<(usize, usize, Probe)> = None;
        for i in 0..self.spec.atoms.len() {
            if self.used[i] {
                continue;
            }
            let (cost, probe) = self.cost_of(i);
            if best.as_ref().is_none_or(|(_, c, _)| cost < *c) {
                let zero = cost == 0;
                best = Some((i, cost, probe));
                if zero {
                    break; // dead end; fail as fast as possible
                }
            }
        }
        best.map(|(i, _, probe)| (i, probe))
    }

    /// Binds atom `i`'s slots against a packed row, pushing to the trail;
    /// returns `false` on mismatch (caller unwinds the trail).
    fn match_row(&mut self, i: usize, row: &[PackedTerm]) -> bool {
        for (arg, &val) in self.spec.atoms[i].args.iter().zip(row.iter()) {
            match *arg {
                ArgSpec::Rigid(t) => {
                    if t != val {
                        return false;
                    }
                }
                ArgSpec::Slot(s) => match self.slots[s as usize] {
                    Some(existing) => {
                        if existing != val {
                            return false;
                        }
                    }
                    None => {
                        self.slots[s as usize] = Some(val);
                        self.trail.push(s);
                    }
                },
            }
        }
        true
    }

    fn unwind(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let slot = self.trail.pop().expect("trail is non-empty above the mark");
            self.slots[slot as usize] = None;
        }
    }
}

/// The recursive kernel: zero heap allocation per candidate — candidates are
/// borrowed row-id slices, bindings go through the slot array + undo trail.
fn search<F>(ctx: &mut SearchCtx<'_, '_>, open: usize, f: &mut F) -> ControlFlow<()>
where
    F: FnMut(&Bindings<'_>) -> ControlFlow<()>,
{
    if open == 0 {
        ctx.emitted += 1;
        ctx.stats.matches += 1;
        let view = Bindings {
            vars: &ctx.spec.vars,
            slots: ctx.slots,
            rows: ctx.rows,
        };
        f(&view)?;
        if ctx.emitted >= ctx.limit {
            return ControlFlow::Break(());
        }
        return ControlFlow::Continue(());
    }
    let Some((atom, probe)) = ctx.select(open) else {
        return ControlFlow::Continue(());
    };
    let rel = ctx.rel_of(atom);
    ctx.used[atom] = true;
    let result = match probe {
        Probe::Index(pos, term) => rel.with_matching_rows(pos, term, |ids| {
            if ids.skipped_by_filter() {
                ctx.stats.misses_filtered += 1;
            }
            // Consume the CSR and overflow parts as two plain slice loops
            // (ascending overall) instead of one chained iterator, keeping
            // the per-candidate hot loop branch-free.
            try_candidates(ctx, atom, rel, ids.merged().iter().copied(), open, f)?;
            try_candidates(ctx, atom, rel, ids.appended().iter().copied(), open, f)
        }),
        Probe::Scan => {
            let ids = 0..rel.row_count();
            try_candidates(ctx, atom, rel, ids, open, f)
        }
    };
    ctx.used[atom] = false;
    result
}

fn try_candidates<F>(
    ctx: &mut SearchCtx<'_, '_>,
    atom: usize,
    rel: &Relation,
    candidates: impl Iterator<Item = RowId>,
    open: usize,
    f: &mut F,
) -> ControlFlow<()>
where
    F: FnMut(&Bindings<'_>) -> ControlFlow<()>,
{
    for id in candidates {
        ctx.stats.probes += 1;
        if ctx.stats.probes.is_multiple_of(BUDGET_POLL_INTERVAL)
            && ctx.budget.is_some_and(|b| b.poll())
        {
            return ControlFlow::Break(());
        }
        let mark = ctx.trail.len();
        if ctx.match_row(atom, rel.row(id)) {
            ctx.rows[atom] = id;
            let flow = search(ctx, open - 1, f);
            ctx.unwind(mark);
            flow?;
        } else {
            ctx.unwind(mark);
        }
    }
    ControlFlow::Continue(())
}

/// The planned build/probe kernel: replays a static [`JoinPlan`] — no
/// per-node selection or cost estimation, exactly one column-index probe (or
/// a scan, where planned) per step per binding. Candidate streaming, slot
/// binding, the undo trail and the `probes` unit are shared with the
/// adaptive path, so both enumerate the same match set.
fn search_planned<F>(
    ctx: &mut SearchCtx<'_, '_>,
    plan: &JoinPlan,
    step: usize,
    f: &mut F,
) -> ControlFlow<()>
where
    F: FnMut(&Bindings<'_>) -> ControlFlow<()>,
{
    let Some(&PlanStep { atom, probe, .. }) = plan.steps.get(step) else {
        ctx.emitted += 1;
        ctx.stats.matches += 1;
        let view = Bindings {
            vars: &ctx.spec.vars,
            slots: ctx.slots,
            rows: ctx.rows,
        };
        f(&view)?;
        if ctx.emitted >= ctx.limit {
            return ControlFlow::Break(());
        }
        return ControlFlow::Continue(());
    };
    let rel = ctx.rel_of(atom);
    ctx.used[atom] = true;
    let result = match probe {
        PlanProbe::Index { pos } => {
            let key = ctx
                .resolved(ctx.spec.atoms[atom].args[pos])
                .expect("planned probe position is rigid or bound by an earlier step");
            rel.with_matching_rows(pos, key, |ids| {
                if ids.skipped_by_filter() {
                    ctx.stats.misses_filtered += 1;
                }
                try_candidates_planned(
                    ctx,
                    plan,
                    step,
                    atom,
                    rel,
                    ids.merged().iter().copied(),
                    f,
                )?;
                try_candidates_planned(
                    ctx,
                    plan,
                    step,
                    atom,
                    rel,
                    ids.appended().iter().copied(),
                    f,
                )
            })
        }
        PlanProbe::Composite { cols } => {
            // Fuse the step's runtime values (rigid terms and slots bound by
            // earlier steps) into the composite probe key, in ascending
            // column order — the fusion order of the index itself.
            let mut vals = [PackedTerm::UNMATCHABLE; ColSet::MAX_COLS];
            let mut n = 0;
            for pos in cols.iter() {
                vals[n] = ctx
                    .resolved(ctx.spec.atoms[atom].args[pos])
                    .expect("planned composite position is rigid or bound by an earlier step");
                n += 1;
            }
            let key = fuse_key(&vals[..n]);
            ctx.stats.composite_probes += 1;
            rel.with_key_matching_rows(cols, key, |ids| {
                if ids.skipped_by_filter() {
                    ctx.stats.misses_filtered += 1;
                }
                try_candidates_planned(
                    ctx,
                    plan,
                    step,
                    atom,
                    rel,
                    ids.merged().iter().copied(),
                    f,
                )?;
                try_candidates_planned(
                    ctx,
                    plan,
                    step,
                    atom,
                    rel,
                    ids.appended().iter().copied(),
                    f,
                )
            })
        }
        PlanProbe::Scan => {
            let ids = 0..rel.row_count();
            try_candidates_planned(ctx, plan, step, atom, rel, ids, f)
        }
    };
    ctx.used[atom] = false;
    result
}

fn try_candidates_planned<F>(
    ctx: &mut SearchCtx<'_, '_>,
    plan: &JoinPlan,
    step: usize,
    atom: usize,
    rel: &Relation,
    candidates: impl Iterator<Item = RowId>,
    f: &mut F,
) -> ControlFlow<()>
where
    F: FnMut(&Bindings<'_>) -> ControlFlow<()>,
{
    for id in candidates {
        ctx.stats.probes += 1;
        if ctx.stats.probes.is_multiple_of(BUDGET_POLL_INTERVAL)
            && ctx.budget.is_some_and(|b| b.poll())
        {
            return ControlFlow::Break(());
        }
        let mark = ctx.trail.len();
        if ctx.match_row(atom, rel.row(id)) {
            ctx.rows[atom] = id;
            let flow = search_planned(ctx, plan, step + 1, f);
            ctx.unwind(mark);
            flow?;
        } else {
            ctx.unwind(mark);
        }
    }
    ControlFlow::Continue(())
}

/// Finds homomorphisms from `atoms` into `target`, extending the partial
/// substitution `seed`. Every returned substitution `h` satisfies
/// `h(atoms) ⊆ target` and agrees with `seed`.
///
/// Compatibility wrapper over the streaming kernel; engines drive
/// [`JoinSpec`] / [`Matcher`] directly and never materialise this vector.
pub fn homomorphisms(
    atoms: &[Atom],
    target: &Instance,
    seed: &Substitution,
    options: HomSearch,
) -> Vec<Substitution> {
    let mut results = Vec::new();
    if options.limit == 0 {
        return results;
    }
    let spec = JoinSpec::compile_seeded(atoms, seed);
    let mut matcher = Matcher::new(&spec);
    matcher.set_limit(options.limit);
    matcher.for_each(target, |b| {
        results.push(b.substitution_extending(seed));
        ControlFlow::Continue(())
    });
    results
}

/// `true` iff some homomorphism from `atoms` into `target` extends `seed`.
pub fn exists_homomorphism(atoms: &[Atom], target: &Instance, seed: &Substitution) -> bool {
    let spec = JoinSpec::compile_seeded(atoms, seed);
    let mut matcher = Matcher::new(&spec);
    matcher.set_limit(1);
    let mut found = false;
    matcher.for_each(target, |_| {
        found = true;
        ControlFlow::Break(())
    });
    found
}

/// The seed repository's allocation-heavy search, retained verbatim in
/// spirit: `BTreeMap`-backed substitutions cloned once per candidate, all
/// results materialised into a `Vec`, candidates probed on the *first* bound
/// argument position only. It is the correctness oracle for the kernel's
/// property tests and the baseline of the join benchmarks.
pub mod reference {
    use super::{HomSearch, Instance, Substitution};
    use crate::atom::Atom;
    use crate::term::Term;

    /// Finds homomorphisms with the seed algorithm (see module docs).
    pub fn homomorphisms_reference(
        atoms: &[Atom],
        target: &Instance,
        seed: &Substitution,
        options: HomSearch,
    ) -> Vec<Substitution> {
        let mut results = Vec::new();
        if options.limit == 0 {
            return results;
        }
        let mut remaining: Vec<&Atom> = atoms.iter().collect();
        let mut current = seed.clone();
        search(
            &mut remaining,
            target,
            &mut current,
            &mut results,
            options.limit,
        );
        results
    }

    fn search(
        remaining: &mut Vec<&Atom>,
        target: &Instance,
        current: &mut Substitution,
        results: &mut Vec<Substitution>,
        limit: usize,
    ) {
        if results.len() >= limit {
            return;
        }
        if remaining.is_empty() {
            results.push(current.clone());
            return;
        }
        // Pick the atom with the most bound (non-variable after substitution)
        // arguments: it has the fewest candidate matches.
        let (best_idx, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let bound = a
                    .terms
                    .iter()
                    .filter(|t| !current.apply_term(t).is_var())
                    .count();
                (i, bound)
            })
            .max_by_key(|&(_, bound)| bound)
            .expect("remaining is non-empty");
        let atom = remaining.swap_remove(best_idx);
        let partial = current.apply_atom(atom);

        // Use the position index on the first bound argument, otherwise scan
        // the whole relation.
        let candidates: Vec<Atom> =
            match partial.terms.iter().enumerate().find(|(_, t)| !t.is_var()) {
                Some((pos, term)) => target
                    .atoms_matching(partial.predicate, pos, *term)
                    .collect(),
                None => target.atoms_with_predicate(partial.predicate).collect(),
            };

        'candidates: for candidate in candidates {
            if candidate.arity() != partial.arity() {
                continue;
            }
            let mut extension = Substitution::new();
            for (pattern, value) in partial.terms.iter().zip(candidate.terms.iter()) {
                match pattern {
                    Term::Var(_) => match extension.get(pattern) {
                        Some(existing) if existing != *value => continue 'candidates,
                        Some(_) => {}
                        None => extension.bind(*pattern, *value),
                    },
                    // Constants and nulls must match exactly.
                    other => {
                        if other != value {
                            continue 'candidates;
                        }
                    }
                }
            }
            let saved = current.clone();
            if current.merge_compatible(&extension) {
                search(remaining, target, current, results, limit);
            }
            *current = saved;
            if results.len() >= limit {
                break;
            }
        }

        remaining.push(atom);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::database::Database;
    use crate::term::{NullId, Term, Variable};

    fn chain_db() -> Instance {
        Database::from_facts([
            ("edge", vec!["a", "b"]),
            ("edge", vec!["b", "c"]),
            ("edge", vec!["c", "d"]),
        ])
        .unwrap()
        .into_instance()
    }

    fn var(name: &str) -> Term {
        Term::variable(name)
    }

    fn packed(ts: &[Term]) -> Vec<PackedTerm> {
        ts.iter()
            .map(|&t| PackedTerm::pack(t).expect("ground term packs"))
            .collect()
    }

    #[test]
    fn single_atom_matching() {
        let db = chain_db();
        let pattern = vec![Atom::new("edge", vec![var("X"), var("Y")])];
        let hs = homomorphisms(&pattern, &db, &Substitution::new(), HomSearch::all());
        assert_eq!(hs.len(), 3);
    }

    #[test]
    fn join_via_shared_variable() {
        let db = chain_db();
        // edge(X,Y), edge(Y,Z) — two-step paths: a-b-c, b-c-d.
        let pattern = vec![
            Atom::new("edge", vec![var("X"), var("Y")]),
            Atom::new("edge", vec![var("Y"), var("Z")]),
        ];
        let hs = homomorphisms(&pattern, &db, &Substitution::new(), HomSearch::all());
        assert_eq!(hs.len(), 2);
        for h in &hs {
            let y = h.get_var(Variable::new("Y")).unwrap();
            assert!(y == Term::constant("b") || y == Term::constant("c"));
        }
    }

    #[test]
    fn seed_constrains_the_search() {
        let db = chain_db();
        let pattern = vec![Atom::new("edge", vec![var("X"), var("Y")])];
        let mut seed = Substitution::new();
        seed.bind_var(Variable::new("X"), Term::constant("b"));
        let hs = homomorphisms(&pattern, &db, &seed, HomSearch::all());
        assert_eq!(hs.len(), 1);
        assert_eq!(hs[0].get_var(Variable::new("Y")), Some(Term::constant("c")));
        // The seed's own bindings are part of the result.
        assert_eq!(hs[0].get_var(Variable::new("X")), Some(Term::constant("b")));
    }

    #[test]
    fn constants_in_patterns_must_match() {
        let db = chain_db();
        let pattern = vec![Atom::new("edge", vec![Term::constant("a"), var("Y")])];
        let hs = homomorphisms(&pattern, &db, &Substitution::new(), HomSearch::all());
        assert_eq!(hs.len(), 1);

        let no_match = vec![Atom::new("edge", vec![Term::constant("z"), var("Y")])];
        assert!(!exists_homomorphism(&no_match, &db, &Substitution::new()));
    }

    #[test]
    fn repeated_variables_require_equal_values() {
        let mut db = Database::new();
        db.insert(Atom::fact("r", &["a", "a"])).unwrap();
        db.insert(Atom::fact("r", &["a", "b"])).unwrap();
        let inst = db.into_instance();
        let pattern = vec![Atom::new("r", vec![var("X"), var("X")])];
        let hs = homomorphisms(&pattern, &inst, &Substitution::new(), HomSearch::all());
        assert_eq!(hs.len(), 1);
        assert_eq!(hs[0].get_var(Variable::new("X")), Some(Term::constant("a")));
    }

    #[test]
    fn nulls_in_target_can_be_matched_by_variables() {
        let mut inst = Instance::new();
        inst.insert(Atom::new(
            "r",
            vec![Term::constant("a"), Term::Null(NullId(5))],
        ))
        .unwrap();
        let pattern = vec![Atom::new("r", vec![var("X"), var("Y")])];
        let hs = homomorphisms(&pattern, &inst, &Substitution::new(), HomSearch::all());
        assert_eq!(hs.len(), 1);
        assert_eq!(
            hs[0].get_var(Variable::new("Y")),
            Some(Term::Null(NullId(5)))
        );
    }

    #[test]
    fn limit_short_circuits() {
        let db = chain_db();
        let pattern = vec![Atom::new("edge", vec![var("X"), var("Y")])];
        let hs = homomorphisms(&pattern, &db, &Substitution::new(), HomSearch::first());
        assert_eq!(hs.len(), 1);
    }

    #[test]
    fn empty_pattern_has_the_identity_homomorphism() {
        let db = chain_db();
        let hs = homomorphisms(&[], &db, &Substitution::new(), HomSearch::all());
        assert_eq!(hs.len(), 1);
        assert!(hs[0].is_empty());
    }

    #[test]
    fn kernel_streams_matched_row_ids() {
        let db = chain_db();
        let pattern = vec![
            Atom::new("edge", vec![var("X"), var("Y")]),
            Atom::new("edge", vec![var("Y"), var("Z")]),
        ];
        let spec = JoinSpec::compile(&pattern);
        let mut matcher = Matcher::new(&spec);
        let rel = db.relation(crate::atom::Predicate::new("edge")).unwrap();
        let mut seen = Vec::new();
        matcher.for_each(&db, |b| {
            let rows = b.matched_rows();
            assert_eq!(rows.len(), 2);
            // The matched rows really are the atoms' images.
            assert_eq!(rel.atom(rows[0]), b.image(&pattern[0]));
            assert_eq!(rel.atom(rows[1]), b.image(&pattern[1]));
            seen.push((rows[0], rows[1]));
            ControlFlow::Continue(())
        });
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn prematch_drives_semi_naive_style_joins() {
        let db = chain_db();
        let pattern = vec![
            Atom::new("edge", vec![var("X"), var("Y")]),
            Atom::new("edge", vec![var("Y"), var("Z")]),
        ];
        let spec = JoinSpec::compile(&pattern);
        let mut matcher = Matcher::new(&spec);
        // Pretend edge(b, c) arrived in the delta: seed atom 1 with it.
        assert!(matcher.prematch(1, &packed(&[Term::constant("b"), Term::constant("c")])));
        let mut images = Vec::new();
        matcher.for_each(&db, |b| {
            images.push((b.resolve(&var("X")), b.resolve(&var("Z"))));
            ControlFlow::Continue(())
        });
        assert_eq!(images, vec![(Term::constant("a"), Term::constant("c"))]);

        // A conflicting row does not match.
        matcher.clear();
        assert!(!matcher.prematch(1, &packed(&[Term::constant("b")])));
    }

    #[test]
    fn prebind_constrains_like_a_seed() {
        let db = chain_db();
        let pattern = vec![Atom::new("edge", vec![var("X"), var("Y")])];
        let spec = JoinSpec::compile(&pattern);
        let mut matcher = Matcher::new(&spec);
        assert!(matcher.prebind(Variable::new("X"), Term::constant("b")));
        let mut count = 0;
        matcher.for_each(&db, |b| {
            assert_eq!(b.resolve(&var("Y")), Term::constant("c"));
            count += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(count, 1);
        // Conflicting prebind is rejected.
        assert!(!matcher.prebind(Variable::new("X"), Term::constant("z")));
    }

    #[test]
    fn adaptive_selection_prefers_the_most_selective_position() {
        // Relation r: many rows share column 0's value, exactly one matches
        // on column 1. A first-bound-position probe would examine all rows
        // with r(c, _); the kernel must pick column 1 (one candidate).
        let mut db = Database::new();
        for i in 0..50 {
            db.insert(Atom::fact("r", &["c", &format!("v{i}")]))
                .unwrap();
        }
        let inst = db.into_instance();
        let pattern = vec![Atom::new(
            "r",
            vec![Term::constant("c"), Term::constant("v7")],
        )];
        let spec = JoinSpec::compile(&pattern);
        let mut matcher = Matcher::new(&spec);
        let stats = matcher.for_each(&inst, |_| ControlFlow::Continue(()));
        assert_eq!(stats.matches, 1);
        assert_eq!(
            stats.probes, 1,
            "most selective index position must be used"
        );
    }

    #[test]
    fn planned_and_adaptive_paths_agree() {
        let db = chain_db();
        let pattern = vec![
            Atom::new("edge", vec![var("X"), var("Y")]),
            Atom::new("edge", vec![var("Y"), var("Z")]),
        ];
        let spec = JoinSpec::compile(&pattern);
        let plan = spec.plan(&db, &[]);
        assert!(!plan.prefers_streaming(), "connected join plans fully");
        let collect = |plan: Option<&JoinPlan>| {
            let mut matcher = Matcher::new(&spec);
            matcher.set_plan(plan);
            let mut out = Vec::new();
            let stats = matcher.for_each(&db, |b| {
                out.push(b.to_substitution().to_string());
                ControlFlow::Continue(())
            });
            out.sort();
            (out, stats.matches)
        };
        let (planned, planned_matches) = collect(Some(&plan));
        let (adaptive, adaptive_matches) = collect(None);
        assert_eq!(planned, adaptive);
        assert_eq!(planned_matches, adaptive_matches);
    }

    #[test]
    fn planned_path_respects_prematch_assumptions() {
        let db = chain_db();
        let pattern = vec![
            Atom::new("edge", vec![var("X"), var("Y")]),
            Atom::new("edge", vec![var("Y"), var("Z")]),
        ];
        let spec = JoinSpec::compile(&pattern);
        // Plan assuming atom 0 is prematched (the delta-driver shape).
        let plan = spec.plan(&db, &[0]);
        let mut matcher = Matcher::new(&spec);
        matcher.set_plan(Some(&plan));
        assert!(matcher.prematch(0, &packed(&[Term::constant("a"), Term::constant("b")])));
        let mut images = Vec::new();
        matcher.for_each(&db, |b| {
            images.push((b.resolve(&var("X")), b.resolve(&var("Z"))));
            ControlFlow::Continue(())
        });
        assert_eq!(images, vec![(Term::constant("a"), Term::constant("c"))]);

        // The same matcher without the prematch: the plan no longer applies
        // and the adaptive path answers (correctly) instead.
        matcher.clear();
        let mut count = 0;
        matcher.for_each(&db, |_| {
            count += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(count, 2);
    }

    #[test]
    fn disconnected_patterns_prefer_streaming() {
        let db = chain_db();
        let pattern = vec![
            Atom::new("edge", vec![var("X"), var("Y")]),
            Atom::new("edge", vec![var("Z"), var("W")]),
        ];
        let spec = JoinSpec::compile(&pattern);
        let plan = spec.plan(&db, &[]);
        assert!(
            plan.prefers_streaming(),
            "cross product has no good static order"
        );
        // Setting the plan anyway must not change the (cartesian) match set.
        let mut matcher = Matcher::new(&spec);
        matcher.set_plan(Some(&plan));
        let stats = matcher.for_each(&db, |_| ControlFlow::Continue(()));
        assert_eq!(stats.matches, 9);
    }

    #[test]
    fn composite_plans_probe_multi_column_bound_sets_exactly() {
        // r(x, y, z) over a 10×10×3 grid: both single columns fan out to 30
        // rows, the (0, 1) pair to only 3 — the composite key index is an
        // order of magnitude more selective than any single column, so the
        // planner must emit a composite probe step for the join below.
        let mut db = Database::new();
        for x in 0..10 {
            for y in 0..10 {
                for z in 0..3 {
                    db.insert(Atom::fact(
                        "r",
                        &[&format!("x{x}"), &format!("y{y}"), &format!("z{z}")],
                    ))
                    .unwrap();
                }
            }
        }
        for i in 0..20 {
            db.insert(Atom::fact(
                "e",
                &[&format!("x{}", i % 10), &format!("y{}", (i * 3) % 10)],
            ))
            .unwrap();
        }
        let inst = db.into_instance();
        // e(X, Y) drives (the smallest relation scans first); r(X, Y, Z)
        // then has two bound positions whose fused key is the cheap probe.
        let pattern = vec![
            Atom::new("e", vec![var("X"), var("Y")]),
            Atom::new("r", vec![var("X"), var("Y"), var("Z")]),
        ];
        let spec = JoinSpec::compile(&pattern);
        let plan = spec.plan(&inst, &[]);
        let run_with = |plan: Option<&JoinPlan>| {
            let mut matcher = Matcher::new(&spec);
            matcher.set_plan(plan);
            let mut answers = Vec::new();
            let stats = matcher.for_each(&inst, |b| {
                answers.push(b.to_substitution().to_string());
                ControlFlow::Continue(())
            });
            answers.sort();
            (answers, stats)
        };
        let (composite_answers, composite_stats) = run_with(Some(&plan));
        let (adaptive_answers, adaptive_stats) = run_with(None);
        assert_eq!(composite_answers, adaptive_answers);
        assert_eq!(composite_stats.matches, adaptive_stats.matches);
        assert!(
            composite_stats.composite_probes > 0,
            "two bound columns must plan a composite probe"
        );
        // The single-column plan on the same data answers identically.
        let single = spec.plan_with_options(
            &inst,
            &[],
            PlanOptions {
                composite_keys: false,
            },
        );
        let (single_answers, single_stats) = run_with(Some(&single));
        assert_eq!(single_answers, composite_answers);
        assert_eq!(single_stats.composite_probes, 0);
        assert!(
            composite_stats.probes <= single_stats.probes,
            "composite probes must never examine more candidates"
        );
    }

    #[test]
    fn composite_plans_skip_misses_through_the_fingerprint_filter() {
        // Delta-style joins where most probes miss: edge(X, Y), probe(Y, X)
        // — only one pair exists in `probe`, so almost every composite key
        // fused from an edge row is absent and should be filtered.
        let mut db = Database::new();
        for i in 0..100 {
            db.insert(Atom::fact("edge", &[&format!("a{i}"), &format!("b{i}")]))
                .unwrap();
        }
        db.insert(Atom::fact("probe", &["b7", "a7"])).unwrap();
        // Pad `probe` with enough distinct pairs that its composite index
        // crosses the filter size gate (small tables carry no filter).
        for i in 0..2500 {
            db.insert(Atom::fact("probe", &[&format!("x{i}"), &format!("y{i}")]))
                .unwrap();
        }
        let inst = db.into_instance();
        let pattern = vec![
            Atom::new("edge", vec![var("X"), var("Y")]),
            Atom::new("probe", vec![var("Y"), var("X")]),
        ];
        let spec = JoinSpec::compile(&pattern);
        let plan = spec.plan(&inst, &[0]);
        let mut matches = 0u64;
        let mut stats = JoinStats::default();
        let rel = inst.relation(crate::atom::Predicate::new("edge")).unwrap();
        let mut matcher = Matcher::new(&spec);
        matcher.set_plan(Some(&plan));
        for row in 0..rel.row_count() {
            matcher.clear();
            assert!(matcher.prematch(0, rel.row(row)));
            stats.absorb(matcher.for_each(&inst, |_| ControlFlow::Continue(())));
        }
        matches += stats.matches;
        assert_eq!(matches, 1, "only edge(a7, b7) joins probe(b7, a7)");
        assert!(
            stats.misses_filtered > 50,
            "miss-heavy composite probes must be filter-skipped (got {})",
            stats.misses_filtered
        );
    }

    #[test]
    fn row_templates_emit_match_images() {
        let db = chain_db();
        let pattern = vec![
            Atom::new("edge", vec![var("X"), var("Y")]),
            Atom::new("edge", vec![var("Y"), var("Z")]),
        ];
        let spec = JoinSpec::compile(&pattern);
        let head = Atom::new("t", vec![var("X"), var("Z"), Term::constant("tag")]);
        let template = spec.row_template(&head);
        assert_eq!(template.arity(), 3);
        let mut rows: Vec<PackedTerm> = Vec::new();
        let mut matcher = Matcher::new(&spec);
        matcher.for_each(&db, |b| {
            b.emit(&template, &mut rows);
            ControlFlow::Continue(())
        });
        let mut unpacked: Vec<Vec<Term>> = rows
            .chunks_exact(3)
            .map(|row| row.iter().map(|p| p.unpack()).collect())
            .collect();
        unpacked.sort();
        assert_eq!(
            unpacked,
            vec![
                vec![
                    Term::constant("a"),
                    Term::constant("c"),
                    Term::constant("tag")
                ],
                vec![
                    Term::constant("b"),
                    Term::constant("d"),
                    Term::constant("tag")
                ],
            ]
        );
    }

    #[test]
    fn reference_and_kernel_agree_on_a_join() {
        let db = chain_db();
        let pattern = vec![
            Atom::new("edge", vec![var("X"), var("Y")]),
            Atom::new("edge", vec![var("Y"), var("Z")]),
        ];
        let mut kernel: Vec<String> =
            homomorphisms(&pattern, &db, &Substitution::new(), HomSearch::all())
                .iter()
                .map(|h| h.to_string())
                .collect();
        let mut naive: Vec<String> = reference::homomorphisms_reference(
            &pattern,
            &db,
            &Substitution::new(),
            HomSearch::all(),
        )
        .iter()
        .map(|h| h.to_string())
        .collect();
        kernel.sort();
        naive.sort();
        assert_eq!(kernel, naive);
    }
}
