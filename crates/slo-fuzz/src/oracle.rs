//! The differential oracle: run a program through the whole
//! analyze → plan → transform pipeline and check every semantic
//! invariant the layout transforms promise to preserve.
//!
//! For each generated program the oracle
//!
//! 1. verifies the IR and checks the printer/parser round-trip,
//! 2. executes the original on **both** VM engines (pre-decoded and
//!    structured) and demands bit-identical exits, [`ExecStats`] and
//!    profile feedback,
//! 3. derives transform plans — the real planner under several
//!    heuristics configs, plus *forced* split/dead/peel plans for every
//!    strictly-legal record — applies each with `slo-transform`, and
//!    demands the transformed program verifies and produces the same
//!    exit bits and the same leak-freedom as the original,
//! 4. does the same for field reorder and global-variable-layout
//!    variants.
//!
//! [`ExecStats`]: slo_vm::ExecStats

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use slo_analysis::ipa::aggregate;
use slo_analysis::{FactTable, IpaResult, LegalityConfig, WeightScheme};
use slo_ir::printer::print_program;
use slo_ir::verify::verify;
use slo_ir::{Instr, Program, RecordId};
use slo_transform::{
    apply_plan, decide, gvl, peelable, reorder_fields, HeuristicsConfig, RewriteError,
    TransformPlan, TypeTransform,
};
use slo_vm::{run, ExecError, ExecOutcome, Value, VmOptions};

/// A deliberate bug injected into a transformed program, used to prove
/// the oracle actually has teeth (mutation testing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Rewrite the first `fieldaddr` of a multi-field record to address
    /// the *next* field instead — the classic off-by-one a broken
    /// split/reorder rewrite would produce.
    FieldAddrOffByOne,
    /// Delete the first `store` instruction found in a defined function.
    DropStore,
}

/// Inject `m` into `p`. Returns `false` if no applicable site exists.
pub fn inject(p: &mut Program, m: Mutation) -> bool {
    for f in &mut p.funcs {
        for b in &mut f.blocks {
            for idx in 0..b.instrs.len() {
                match (m, &b.instrs[idx]) {
                    (Mutation::FieldAddrOffByOne, Instr::FieldAddr { record, field, .. }) => {
                        let nf = p.types.record(*record).fields.len() as u32;
                        if nf >= 2 {
                            let new_field = (*field + 1) % nf;
                            if let Instr::FieldAddr { field, .. } = &mut b.instrs[idx] {
                                *field = new_field;
                            }
                            return true;
                        }
                    }
                    (Mutation::DropStore, Instr::Store { .. }) => {
                        b.instrs.remove(idx);
                        return true;
                    }
                    _ => {}
                }
            }
        }
    }
    false
}

/// Oracle knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleConfig {
    /// If set, this bug is injected into every transformed/variant
    /// program before it runs; the oracle is then *expected* to report a
    /// violation (used by the mutation tests).
    pub mutation: Option<Mutation>,
}

/// Summary of one successfully-checked case.
#[derive(Debug, Clone, Default)]
pub struct CaseOutcome {
    /// Transform plans applied and differentially checked.
    pub plans_applied: usize,
    /// Plans skipped because the rewriter reported them unsupported.
    pub plans_skipped: usize,
    /// Layout variants (reorder/GVL) checked.
    pub variants_checked: usize,
    /// Record types that passed strict legality.
    pub legal_types: usize,
}

/// A semantics violation found by the oracle. `class` is stable across
/// shrinking: a candidate program only counts as "still failing" if it
/// fails with the same class.
#[derive(Debug, Clone)]
pub enum Violation {
    /// The program (or generator) produced IR the verifier rejects.
    InvalidIr {
        /// Verifier messages.
        detail: String,
    },
    /// `print → parse → print` was not a fixpoint.
    Roundtrip {
        /// What differed.
        detail: String,
    },
    /// Execution faulted (generated programs must never fault).
    ExecFailed {
        /// The execution error, and on which program variant.
        detail: String,
    },
    /// Execution hit the oracle's step limit. Kept distinct from
    /// [`Violation::ExecFailed`] so a shrink candidate that merely
    /// loops forever can never pass for a program reproducing a real
    /// fault (or vice versa).
    StepLimit {
        /// Which program variant ran away.
        label: String,
    },
    /// The two VM engines disagreed on the same program.
    EngineDivergence {
        /// Which program variant diverged (label).
        program: String,
        /// What disagreed (exit / stats / feedback).
        what: String,
    },
    /// The rewriter rejected a plan the planner itself produced.
    RewriteFailed {
        /// Plan label.
        label: String,
        /// Rewrite error text.
        detail: String,
    },
    /// A transformed program no longer verifies.
    TransformedInvalid {
        /// Plan label.
        label: String,
        /// Verifier messages.
        detail: String,
    },
    /// Transformed program exited with different bits than the original.
    ExitMismatch {
        /// Plan label.
        label: String,
        /// Original exit value.
        original: String,
        /// Transformed exit value.
        transformed: String,
    },
    /// Transformed program leaked when the original did not.
    LeakMismatch {
        /// Plan label.
        label: String,
        /// Original leaked bytes.
        original: u64,
        /// Transformed leaked bytes.
        transformed: u64,
    },
    /// A split hot loop touched more cache lines than the original
    /// (checked by the directed hot-loop family, see [`crate::hot`]).
    CacheRegression {
        /// Hot-function misses in the original.
        original: u64,
        /// Hot-function misses in the transformed program.
        transformed: u64,
    },
}

impl Violation {
    /// Stable failure class used as the shrinking predicate.
    pub fn class(&self) -> &'static str {
        match self {
            Violation::InvalidIr { .. } => "invalid-ir",
            Violation::Roundtrip { .. } => "roundtrip",
            Violation::ExecFailed { .. } => "exec-failed",
            Violation::StepLimit { .. } => "step-limit",
            Violation::EngineDivergence { .. } => "engine-divergence",
            Violation::RewriteFailed { .. } => "rewrite-failed",
            Violation::TransformedInvalid { .. } => "transformed-invalid",
            Violation::ExitMismatch { .. } => "exit-mismatch",
            Violation::LeakMismatch { .. } => "leak-mismatch",
            Violation::CacheRegression { .. } => "cache-regression",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::InvalidIr { detail } => write!(f, "invalid IR: {detail}"),
            Violation::Roundtrip { detail } => write!(f, "printer/parser round-trip: {detail}"),
            Violation::ExecFailed { detail } => write!(f, "execution faulted: {detail}"),
            Violation::StepLimit { label } => {
                write!(f, "step limit exceeded on {label} (runaway loop)")
            }
            Violation::EngineDivergence { program, what } => {
                write!(f, "engines diverge on {program}: {what}")
            }
            Violation::RewriteFailed { label, detail } => {
                write!(f, "rewrite failed for {label}: {detail}")
            }
            Violation::TransformedInvalid { label, detail } => {
                write!(f, "transformed program invalid for {label}: {detail}")
            }
            Violation::ExitMismatch {
                label,
                original,
                transformed,
            } => write!(
                f,
                "exit mismatch for {label}: original {original}, transformed {transformed}"
            ),
            Violation::LeakMismatch {
                label,
                original,
                transformed,
            } => write!(
                f,
                "leak mismatch for {label}: original leaked {original} B, transformed {transformed} B"
            ),
            Violation::CacheRegression {
                original,
                transformed,
            } => write!(
                f,
                "cache regression: hot-loop misses {transformed} > original {original}"
            ),
        }
    }
}

/// Step limit for oracle runs. Generated programs retire well under
/// 200k instructions; the tight cap exists for *shrink candidates*,
/// where deleting a loop-increment instruction creates an infinite loop
/// that must fail fast (as [`Violation::StepLimit`], a class no real
/// failure shares) instead of burning the VM's default 2·10⁹-step
/// budget.
const ORACLE_STEP_LIMIT: u64 = 400_000;

/// Profiling options with the oracle's tight step limit.
pub fn oracle_opts() -> VmOptions {
    VmOptions::builder()
        .collect_edges(true)
        .sample_dcache(true)
        .step_limit(ORACLE_STEP_LIMIT)
        .build()
}

/// Comparable key for an exit value (bit-exact, NaN-safe).
fn value_key(v: Value) -> (u8, u64) {
    match v {
        Value::Int(i) => (0, i as u64),
        Value::Float(x) => (1, x.to_bits()),
        Value::Ptr(p) => (2, p),
    }
}

fn value_str(v: Value) -> String {
    format!("{v:?}")
}

/// Run `p` on both engines with `opts`, demanding identical behavior.
/// Returns the decoded-engine outcome.
pub fn run_both(p: &Program, label: &str, opts: &VmOptions) -> Result<ExecOutcome, Violation> {
    let dec = run(p, opts);
    let mut sopts = opts.clone();
    sopts.engine = slo_vm::Engine::Structured;
    let st = run(p, &sopts);
    match (dec, st) {
        (Ok(a), Ok(b)) => {
            if value_key(a.exit) != value_key(b.exit) {
                return Err(Violation::EngineDivergence {
                    program: label.to_string(),
                    what: format!(
                        "exit: decoded {}, structured {}",
                        value_str(a.exit),
                        value_str(b.exit)
                    ),
                });
            }
            if a.stats != b.stats {
                return Err(Violation::EngineDivergence {
                    program: label.to_string(),
                    what: format!("stats: decoded {:?} vs structured {:?}", a.stats, b.stats),
                });
            }
            if a.feedback != b.feedback {
                return Err(Violation::EngineDivergence {
                    program: label.to_string(),
                    what: "profile feedback differs".to_string(),
                });
            }
            Ok(a)
        }
        (Err(ExecError::StepLimit), Err(ExecError::StepLimit)) => Err(Violation::StepLimit {
            label: label.to_string(),
        }),
        (Err(e1), Err(e2)) if e1 == e2 => Err(Violation::ExecFailed {
            detail: format!("{label}: {e1:?}"),
        }),
        (d, s) => Err(Violation::EngineDivergence {
            program: label.to_string(),
            what: format!(
                "result kinds: decoded {:?}, structured {:?}",
                d.err(),
                s.err()
            ),
        }),
    }
}

/// Stable textual key of a plan (HashMap iteration order is not).
fn plan_key(prog: &Program, plan: &TransformPlan) -> String {
    let mut parts: Vec<String> = Vec::new();
    for rid in prog.types.record_ids() {
        let t = plan.of(rid);
        if t.is_some() {
            parts.push(format!("{}:{:?}", prog.types.record(rid).name, t));
        }
    }
    parts.join(";")
}

/// Planner plans under several heuristics configs, deduplicated.
fn planner_plans(
    prog: &Program,
    ipa: &IpaResult,
    graphs: &HashMap<RecordId, slo_analysis::AffinityGraph>,
    counts: &HashMap<(RecordId, u32), slo_analysis::FieldCounts>,
) -> Vec<(String, TransformPlan)> {
    let configs = [
        ("plan-ispbo", HeuristicsConfig::ispbo()),
        ("plan-pbo", HeuristicsConfig::pbo()),
        (
            "plan-interleave",
            HeuristicsConfig::builder()
                .split_threshold(7.5)
                .prefer_interleave(true)
                .build(),
        ),
    ];
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for (label, cfg) in configs {
        let plan = decide(prog, ipa, graphs, counts, &cfg);
        if plan.num_transformed() == 0 {
            continue;
        }
        if seen.insert(plan_key(prog, &plan)) {
            out.push((label.to_string(), plan));
        }
    }
    out
}

/// Forced plans: for every strictly-legal record with at least two
/// fields, force a split (even/odd interleaving of live fields), a
/// dead-field removal when statically-dead fields exist, and a peel
/// when the record is peelable.
fn forced_plans(
    prog: &Program,
    ipa: &IpaResult,
    counts: &HashMap<(RecordId, u32), slo_analysis::FieldCounts>,
) -> Vec<(String, TransformPlan)> {
    let mut out = Vec::new();
    for rid in ipa.legal_types() {
        let rec = prog.types.record(rid);
        let nf = rec.fields.len() as u32;
        if nf < 2 {
            continue;
        }
        let name = rec.name.clone();
        let dead: Vec<u32> = (0..nf)
            .filter(|f| counts.get(&(rid, *f)).is_none_or(|c| c.reads <= 0.0))
            .collect();
        let live: Vec<u32> = (0..nf).filter(|f| !dead.contains(f)).collect();
        if !dead.is_empty() && !live.is_empty() {
            let mut plan = TransformPlan::default();
            plan.types
                .insert(rid, TypeTransform::RemoveDead { dead: dead.clone() });
            out.push((format!("forced-dead:{name}"), plan));
        }
        if live.len() >= 2 {
            let hot_order: Vec<u32> = live.iter().copied().step_by(2).collect();
            let cold: Vec<u32> = live.iter().copied().skip(1).step_by(2).collect();
            let mut plan = TransformPlan::default();
            plan.types.insert(
                rid,
                TypeTransform::Split {
                    hot_order,
                    cold,
                    dead: dead.clone(),
                },
            );
            out.push((format!("forced-split:{name}"), plan));
        }
        if peelable(prog, rid, ipa) {
            let mut plan = TransformPlan::default();
            plan.types
                .insert(rid, TypeTransform::Peel { dead: dead.clone() });
            out.push((format!("forced-peel:{name}"), plan));
            let mut plan = TransformPlan::default();
            plan.types.insert(rid, TypeTransform::Interleave { dead });
            out.push((format!("forced-interleave:{name}"), plan));
        }
    }
    out
}

/// Compare a transformed program `q` against the original's outcome.
fn check_variant(
    q: &Program,
    label: &str,
    base: &ExecOutcome,
    cfg: &OracleConfig,
) -> Result<(), Violation> {
    let mut q = q.clone();
    if let Some(m) = cfg.mutation {
        inject(&mut q, m);
    }
    let errs = verify(&q);
    if !errs.is_empty() {
        return Err(Violation::TransformedInvalid {
            label: label.to_string(),
            detail: format!("{errs:?}"),
        });
    }
    let out = run_both(&q, label, &oracle_opts())?;
    if value_key(out.exit) != value_key(base.exit) {
        return Err(Violation::ExitMismatch {
            label: label.to_string(),
            original: value_str(base.exit),
            transformed: value_str(out.exit),
        });
    }
    // Transforms may change live byte counts (split/peel add companion
    // allocations, and peeling an entirely-dead record may eliminate
    // its allocation — leaks included) but must never turn a leak-free
    // program into a leaky one.
    if base.stats.leaked_bytes == 0 && out.stats.leaked_bytes != 0 {
        return Err(Violation::LeakMismatch {
            label: label.to_string(),
            original: base.stats.leaked_bytes,
            transformed: out.stats.leaked_bytes,
        });
    }
    Ok(())
}

/// Run the full differential oracle over one program.
pub fn check_program(prog: &Program, cfg: &OracleConfig) -> Result<CaseOutcome, Violation> {
    // 1. the input itself must be valid
    let errs = verify(prog);
    if !errs.is_empty() {
        return Err(Violation::InvalidIr {
            detail: format!("{errs:?}"),
        });
    }

    // 2. printer/parser round-trip is a fixpoint
    let text1 = print_program(prog);
    let reparsed = slo_ir::parser::parse(&text1).map_err(|e| Violation::Roundtrip {
        detail: format!("reparse failed: {e:?}"),
    })?;
    let text2 = print_program(&reparsed);
    if text1 != text2 {
        return Err(Violation::Roundtrip {
            detail: "second print differs from first".to_string(),
        });
    }

    // 3. dual-engine run of the original
    let base = run_both(prog, "original", &oracle_opts())?;

    // 4. analysis + plans
    let facts = FactTable::new(prog);
    let ipa = aggregate(prog, &facts.analyze_all_units(), &LegalityConfig::default());
    let freqs = facts.block_frequencies(&WeightScheme::Ispbo);
    let (graphs, counts) = facts.affinity(&freqs);

    let mut outcome = CaseOutcome {
        legal_types: ipa.num_legal(),
        ..CaseOutcome::default()
    };

    let mut seen = BTreeSet::new();
    let mut plans: Vec<(String, TransformPlan, bool)> = Vec::new();
    for (label, plan) in planner_plans(prog, &ipa, &graphs, &counts) {
        if seen.insert(plan_key(prog, &plan)) {
            plans.push((label, plan, true));
        }
    }
    for (label, plan) in forced_plans(prog, &ipa, &counts) {
        if seen.insert(plan_key(prog, &plan)) {
            plans.push((label, plan, false));
        }
    }

    // 5. apply and differentially check every plan
    for (label, plan, from_planner) in &plans {
        match apply_plan(prog, plan) {
            Ok(q) => {
                check_variant(&q, label, &base, cfg)?;
                outcome.plans_applied += 1;
            }
            Err(RewriteError::Unsupported(_)) if !from_planner => {
                // a forced plan may hit genuine rewriter limitations
                outcome.plans_skipped += 1;
            }
            Err(e) => {
                return Err(Violation::RewriteFailed {
                    label: label.clone(),
                    detail: e.to_string(),
                });
            }
        }
    }

    // 6. layout variants: full field reversal per legal record, and GVL
    for rid in ipa.legal_types() {
        let rec = prog.types.record(rid);
        let nf = rec.fields.len() as u32;
        if nf < 2 {
            continue;
        }
        let name = rec.name.clone();
        let order: Vec<u32> = (0..nf).rev().collect();
        match reorder_fields(prog, rid, &order) {
            Ok(q) => {
                check_variant(&q, &format!("reorder:{name}"), &base, cfg)?;
                outcome.variants_checked += 1;
            }
            Err(RewriteError::Unsupported(_)) => outcome.plans_skipped += 1,
            Err(e) => {
                return Err(Violation::RewriteFailed {
                    label: format!("reorder:{name}"),
                    detail: e.to_string(),
                });
            }
        }
    }
    if prog.globals.len() >= 2 {
        match gvl(prog, &freqs) {
            Ok(q) => {
                check_variant(&q, "gvl", &base, cfg)?;
                outcome.variants_checked += 1;
            }
            Err(RewriteError::Unsupported(_)) => outcome.plans_skipped += 1,
            Err(e) => {
                return Err(Violation::RewriteFailed {
                    label: "gvl".to_string(),
                    detail: e.to_string(),
                });
            }
        }
    }

    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{gen_program, GenConfig};
    use proptest::TestRng;

    #[test]
    fn clean_cases_pass_the_oracle() {
        let gcfg = GenConfig::default();
        let ocfg = OracleConfig::default();
        let mut applied = 0usize;
        for seed in 0..24 {
            let mut rng = TestRng::from_seed(seed);
            let p = gen_program(&mut rng, &gcfg);
            let out = check_program(&p, &ocfg)
                .unwrap_or_else(|v| panic!("seed {seed}: {v}\n{}", print_program(&p)));
            applied += out.plans_applied + out.variants_checked;
        }
        assert!(applied > 0, "no transform was ever exercised");
    }

    #[test]
    fn drop_store_mutation_is_caught_somewhere() {
        let gcfg = GenConfig::default();
        let ocfg = OracleConfig {
            mutation: Some(Mutation::DropStore),
        };
        let mut caught = false;
        for seed in 0..64 {
            let mut rng = TestRng::from_seed(seed);
            let p = gen_program(&mut rng, &gcfg);
            if check_program(&p, &ocfg).is_err() {
                caught = true;
                break;
            }
        }
        assert!(caught, "DropStore mutation never caused a violation");
    }
}
