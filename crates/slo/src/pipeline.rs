//! The SYZYGY-style compilation pipeline: FE → IPA → BE.
//!
//! Mirrors the paper's phase structure (§2):
//!
//! * **FE** (per compilation unit, parallelizable): legality tests,
//!   attribute collection, affinity-group/read-write-count annotations.
//! * **IPA** (monolithic): summary aggregation, type-escape analysis,
//!   profitability analysis (affinity graphs + hotness under the chosen
//!   weighting scheme), heuristics → a [`TransformPlan`].
//! * **BE** (parallelizable): the actual rewrites.
//!
//! Each phase is timed so the §2.5 compile-time overhead experiment can
//! be regenerated.
//!
//! The FE + IPA half is exposed separately from the BE half
//! ([`analyze`] / [`apply`]) so the batch service can memoize analysis
//! results by content hash ([`analysis_cache_key`]) and re-run only the
//! rewrite per job; [`compile`] is the one-shot composition.

use crate::error::SloError;
use slo_analysis::affinity::{AffinityGraph, FieldCounts};
use slo_analysis::dcache::FieldDcache;
use slo_analysis::fingerprint::{fold_legality_config, fold_scheme};
use slo_analysis::ipa::{aggregate, IpaResult, LegalityConfig};
use slo_analysis::schemes::WeightScheme;
use slo_analysis::FactTable;
use slo_ir::{Fnv64, Program, RecordId};
use slo_transform::{apply_plan, decide, HeuristicsConfig, RewriteError, TransformPlan};
use slo_vm::{ExecOutcome, Feedback, VmOptions};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Pipeline configuration.
///
/// The unified config every front end (CLI, batch service, fuzzer,
/// bench drivers) constructs the same way — via [`PipelineConfig::builder`].
/// Plain field-struct literals over `Default` keep compiling.
#[derive(Debug, Clone, Default)]
pub struct PipelineConfig {
    /// Legality configuration (relaxation flag, SMAL threshold).
    pub legality: LegalityConfig,
    /// Heuristic knobs; `None` derives the paper's defaults from the
    /// scheme (T_s = 3% for PBO/PPBO, 7.5% otherwise).
    pub heuristics: Option<HeuristicsConfig>,
    /// Attribute d-cache samples (needs a feedback with samples).
    pub attribute_dcache: bool,
}

impl PipelineConfig {
    /// Start building a configuration.
    pub fn builder() -> PipelineConfigBuilder {
        PipelineConfigBuilder {
            cfg: PipelineConfig::default(),
        }
    }

    /// Fold every knob into a stable hasher — the config part of the
    /// analysis cache key. `None` heuristics and an explicit
    /// scheme-default config hash differently on purpose: they *are*
    /// different requests (the former tracks future default changes).
    pub fn fold_into(&self, h: &mut Fnv64) {
        use std::hash::Hasher as _;
        h.write_str("PipelineConfig");
        fold_legality_config(&self.legality, h);
        match &self.heuristics {
            None => h.write_bool(false),
            Some(hc) => {
                h.write_bool(true);
                h.write_f64(hc.split_threshold);
                h.write_u64(hc.min_split_fields as u64);
                h.write_bool(hc.enable_peel);
                h.write_bool(hc.enable_split);
                h.write_bool(hc.enable_dead_removal);
                h.write_bool(hc.prefer_interleave);
            }
        }
        h.write_bool(self.attribute_dcache);
    }
}

/// Builder for [`PipelineConfig`] (see [`PipelineConfig::builder`]).
#[derive(Debug, Clone, Default)]
pub struct PipelineConfigBuilder {
    cfg: PipelineConfig,
}

impl PipelineConfigBuilder {
    /// Replace the whole legality configuration.
    pub fn legality(mut self, legality: LegalityConfig) -> Self {
        self.cfg.legality = legality;
        self
    }

    /// Tolerate CSTT/CSTF/ATKN unconditionally (Table 1's "Relax").
    pub fn relax_cast_addr(mut self, relax: bool) -> Self {
        self.cfg.legality.relax_cast_addr = relax;
        self
    }

    /// Relax only where field-sensitive points-to sets stay precise.
    pub fn pointsto_relax(mut self, relax: bool) -> Self {
        self.cfg.legality.pointsto_relax = relax;
        self
    }

    /// SMAL threshold *A* (constant allocation counts `<= A` invalidate).
    pub fn smal_threshold(mut self, a: i64) -> Self {
        self.cfg.legality.smal_threshold = a;
        self
    }

    /// Pin the full heuristics configuration (disables the
    /// derive-from-scheme default).
    pub fn heuristics(mut self, heuristics: HeuristicsConfig) -> Self {
        self.cfg.heuristics = Some(heuristics);
        self
    }

    /// Pin the split threshold `T_s` (percent), keeping the other
    /// heuristic knobs at their current (or default) values. Like
    /// [`Self::heuristics`], this disables the derive-from-scheme
    /// default.
    pub fn split_threshold(mut self, ts: f64) -> Self {
        let mut hc = self.cfg.heuristics.unwrap_or_default();
        hc.split_threshold = ts;
        self.cfg.heuristics = Some(hc);
        self
    }

    /// Attribute d-cache samples (needs a PBO/PPBO scheme with samples).
    pub fn attribute_dcache(mut self, on: bool) -> Self {
        self.cfg.attribute_dcache = on;
        self
    }

    /// Finish.
    pub fn build(self) -> PipelineConfig {
        self.cfg
    }
}

/// Wall-clock time spent per phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// FE legality + annotation collection.
    pub fe: Duration,
    /// IPA aggregation + profitability + heuristics.
    pub ipa: Duration,
    /// BE rewriting.
    pub be: Duration,
}

/// Everything the pipeline produced.
#[derive(Debug, Clone)]
pub struct CompileResult {
    /// The transformed program.
    pub program: Program,
    /// The plan IPA handed to the BE.
    pub plan: TransformPlan,
    /// Legality verdicts.
    pub ipa: IpaResult,
    /// Affinity graphs under the chosen scheme.
    pub graphs: HashMap<RecordId, AffinityGraph>,
    /// Read/write counts.
    pub counts: HashMap<(RecordId, u32), FieldCounts>,
    /// Attributed d-cache samples, when requested and available.
    pub dcache: Option<HashMap<(RecordId, u32), FieldDcache>>,
    /// Per-phase wall-clock timings.
    pub timings: PhaseTimings,
}

/// The FE + IPA products for one (program, scheme, config) triple: the
/// unit the batch service memoizes by [`analysis_cache_key`]. Applying
/// a (possibly cached) `Analysis` to its program via [`apply`] yields
/// the same [`CompileResult`] a one-shot [`compile`] produces.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Legality verdicts (IPA aggregation).
    pub ipa: IpaResult,
    /// Affinity graphs under the chosen scheme.
    pub graphs: HashMap<RecordId, AffinityGraph>,
    /// Read/write counts.
    pub counts: HashMap<(RecordId, u32), FieldCounts>,
    /// Attributed d-cache samples, when requested and available.
    pub dcache: Option<HashMap<(RecordId, u32), FieldDcache>>,
    /// The plan IPA hands to the BE.
    pub plan: TransformPlan,
    /// FE wall-clock time (zero when replayed from cache).
    pub fe: Duration,
    /// IPA wall-clock time (zero when replayed from cache).
    pub ipa_time: Duration,
}

/// Content-hash cache key for the analysis of `prog` under `scheme` and
/// `cfg`: normalized IR (printer fixpoint) + scheme name/profile +
/// every config knob. Stable across processes and platforms.
pub fn analysis_cache_key(prog: &Program, scheme: &WeightScheme<'_>, cfg: &PipelineConfig) -> u64 {
    analysis_cache_key_of_text(&slo_ir::printer::print_program(prog), scheme, cfg)
}

/// [`analysis_cache_key`] of a program already printed to `text` by
/// [`slo_ir::printer::print_program`], for callers that need the text
/// anyway. The text is hashed length-prefixed, so the key needs it
/// whole before the first byte is folded in.
pub fn analysis_cache_key_of_text(
    text: &str,
    scheme: &WeightScheme<'_>,
    cfg: &PipelineConfig,
) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(text);
    fold_scheme(scheme, &mut h);
    cfg.fold_into(&mut h);
    h.digest()
}

/// Run the FE and IPA phases (legality, profitability, planning) over
/// `prog` under `scheme` — everything up to but excluding the rewrite.
pub fn analyze(prog: &Program, scheme: &WeightScheme<'_>, cfg: &PipelineConfig) -> Analysis {
    analyze_with(prog, scheme, cfg, &slo_obs::Recorder::disabled())
}

/// [`analyze`] with a trace recorder: one span per phase — `legality`
/// (FE: building the per-function [`FactTable`] and the legality
/// tests), then `escape` / `hotness` / `plan` (IPA), which read the same
/// table. The disabled recorder makes this identical to [`analyze`].
pub fn analyze_with(
    prog: &Program,
    scheme: &WeightScheme<'_>,
    cfg: &PipelineConfig,
    rec: &slo_obs::Recorder,
) -> Analysis {
    // --- FE: per-function facts, per-unit legality tests + attributes --
    let t0 = Instant::now();
    let (facts, summaries) = {
        let _s = rec.span("pipeline", "legality");
        let facts = FactTable::new(prog);
        let summaries = facts.analyze_all_units();
        (facts, summaries)
    };
    let fe = t0.elapsed();

    // --- IPA ----------------------------------------------------------
    let t1 = Instant::now();
    let ipa = {
        let mut s = rec.span("pipeline", "escape");
        let ipa = aggregate(prog, &summaries, &cfg.legality);
        s.arg("records", prog.types.num_records());
        ipa
    };
    // Profitability evidence: hotness under the chosen weighting
    // scheme, affinity graphs, read/write counts, d-cache attribution.
    let (graphs, counts, dcache) = {
        let mut s = rec.span("pipeline", "hotness");
        s.arg("scheme", scheme.name());
        let (graphs, counts) = facts.profitability(scheme);
        let dcache = match scheme {
            WeightScheme::Pbo(fb) | WeightScheme::Ppbo(fb) if cfg.attribute_dcache => {
                Some(facts.attribute_samples(fb))
            }
            _ => None,
        };
        (graphs, counts, dcache)
    };
    let plan = {
        let mut s = rec.span("pipeline", "plan");
        let heuristics = cfg.heuristics.unwrap_or_else(|| match scheme {
            WeightScheme::Pbo(_) | WeightScheme::Ppbo(_) => HeuristicsConfig::pbo(),
            _ => HeuristicsConfig::ispbo(),
        });
        let plan = decide(prog, &ipa, &graphs, &counts, &heuristics);
        s.arg("transformed_types", plan.num_transformed());
        plan
    };
    let ipa_time = t1.elapsed();

    Analysis {
        ipa,
        graphs,
        counts,
        dcache,
        plan,
        fe,
        ipa_time,
    }
}

/// Run the BE over `prog` using an (often cached) [`Analysis`].
///
/// # Errors
///
/// Propagates BE rewrite failures as [`SloError::Transform`]; a
/// transformed program that fails the IR verifier is reported as
/// [`SloError::Legality`].
pub fn apply(prog: &Program, analysis: &Analysis) -> Result<CompileResult, SloError> {
    apply_with(prog, analysis, &slo_obs::Recorder::disabled())
}

/// [`apply`] with a trace recorder: `transform` and `verify` spans.
///
/// # Errors
///
/// See [`apply`].
pub fn apply_with(
    prog: &Program,
    analysis: &Analysis,
    rec: &slo_obs::Recorder,
) -> Result<CompileResult, SloError> {
    let t2 = Instant::now();
    let program = {
        let mut s = rec.span("pipeline", "transform");
        let program = apply_plan(prog, &analysis.plan)?;
        s.arg("transformed_types", analysis.plan.num_transformed());
        program
    };
    {
        let mut s = rec.span("pipeline", "verify");
        let errors = slo_ir::verify::verify(&program);
        s.arg("errors", errors.len());
        if let Some(first) = errors.first() {
            return Err(SloError::Legality(format!(
                "transformed program failed verification: {first}"
            )));
        }
    }
    let be = t2.elapsed();
    Ok(CompileResult {
        program,
        plan: analysis.plan.clone(),
        ipa: analysis.ipa.clone(),
        graphs: analysis.graphs.clone(),
        counts: analysis.counts.clone(),
        dcache: analysis.dcache.clone(),
        timings: PhaseTimings {
            fe: analysis.fe,
            ipa: analysis.ipa_time,
            be,
        },
    })
}

/// Run the full pipeline over `prog` under `scheme`.
///
/// # Errors
///
/// Propagates BE rewrite failures as [`SloError::Transform`].
pub fn compile(
    prog: &Program,
    scheme: &WeightScheme<'_>,
    cfg: &PipelineConfig,
) -> Result<CompileResult, SloError> {
    apply(prog, &analyze(prog, scheme, cfg))
}

/// [`compile`] with a trace recorder: the full FE → IPA → BE pipeline
/// with one span per phase (`legality`, `escape`, `hotness`, `plan`,
/// `transform`, `verify`), all nested under a `compile` span. The
/// `parse` span is recorded by the callers that own that step (CLI,
/// service), and the `profile_run` span by [`profile_run`].
///
/// # Errors
///
/// See [`apply`].
pub fn compile_with(
    prog: &Program,
    scheme: &WeightScheme<'_>,
    cfg: &PipelineConfig,
    rec: &slo_obs::Recorder,
) -> Result<CompileResult, SloError> {
    let mut span = rec.span("pipeline", "compile");
    span.arg("scheme", scheme.name());
    apply_with(prog, &analyze_with(prog, scheme, cfg, rec), rec)
}

/// The PBO collection phase: the instrumented run of `prog` on its
/// training input (the program encodes its input; callers model
/// training vs reference inputs by building different programs). The
/// caller's `opts` bring the step limit, fault plan and trace recorder,
/// and edge counting and d-cache sampling are switched on here. The
/// run's `feedback` is the profile, and the run itself can answer
/// [`evaluate_against`] as the baseline run. It appears as a
/// `profile_run` span with the VM's own `vm.run` span nested inside.
///
/// # Errors
///
/// Propagates VM execution errors as [`SloError::Vm`] (or
/// [`SloError::Budget`] on a step-limit abort).
pub fn profile_run(prog: &Program, opts: &VmOptions) -> Result<ExecOutcome, SloError> {
    let mut span = opts.trace.span("pipeline", "profile_run");
    let opts = VmOptions {
        collect_edges: true,
        sample_dcache: true,
        ..opts.clone()
    };
    let out = slo_vm::run(prog, &opts)?;
    span.arg("instructions", out.stats.instructions);
    Ok(out)
}

/// The feedback file of a default-options [`profile_run`].
///
/// # Errors
///
/// See [`profile_run`].
pub fn collect_profile(prog: &Program) -> Result<Feedback, SloError> {
    Ok(profile_run(prog, &VmOptions::default())?.feedback)
}

/// A plain run of the untransformed program under `opts`: the baseline
/// that [`evaluate_against`] compares transformed programs with.
///
/// # Errors
///
/// See [`profile_run`].
pub fn baseline_run(prog: &Program, opts: &VmOptions) -> Result<ExecOutcome, SloError> {
    Ok(slo_vm::run(prog, opts)?)
}

/// Before/after performance comparison on the simulated machine.
#[derive(Debug, Clone, Copy)]
pub struct Evaluation {
    /// Cycles of the untransformed program.
    pub baseline_cycles: u64,
    /// Cycles of the transformed program.
    pub optimized_cycles: u64,
    /// Simulated instructions retired by the untransformed program.
    pub baseline_instructions: u64,
    /// Simulated instructions retired by the transformed program.
    pub optimized_instructions: u64,
}

impl Evaluation {
    /// Speedup in percent, the paper's Table 3 presentation
    /// (positive = faster after transformation).
    pub fn speedup_percent(&self) -> f64 {
        if self.optimized_cycles == 0 {
            return 0.0;
        }
        (self.baseline_cycles as f64 / self.optimized_cycles as f64 - 1.0) * 100.0
    }
}

/// Run both versions on the simulated machine and compare cycle counts.
///
/// Both programs execute on the pre-decoded engine by default
/// ([`slo_vm::Engine::Decoded`], the [`VmOptions`] default);
/// pass `VmOptions::default().structured()` to force the structured
/// reference interpreter. The two engines are observationally identical
/// (same exit value, cycle count, and profile), so the choice only
/// affects host wall time.
///
/// # Errors
///
/// See [`evaluate_against`].
pub fn evaluate(
    baseline: &Program,
    optimized: &Program,
    opts: &VmOptions,
) -> Result<Evaluation, SloError> {
    compare(&baseline_run(baseline, opts)?, Some(optimized), opts)
}

/// [`evaluate`] against a finished run of the baseline program (a
/// [`baseline_run`] or the instrumented [`profile_run`]), where
/// `optimized` is what `plan` made of that program. The baseline's
/// stats are taken
/// [without instrumentation](slo_vm::ExecStats::without_instrumentation),
/// which equals a plain run under `opts`. A plan that transforms
/// nothing leaves the program as it is, and the VM is deterministic,
/// so the baseline run answers for the optimized one and nothing runs.
///
/// # Errors
///
/// Propagates VM execution errors of the optimized run; a result
/// mismatch between the two programs is a [`SloError::Transform`].
pub fn evaluate_against(
    baseline: &ExecOutcome,
    plan: &TransformPlan,
    optimized: &Program,
    opts: &VmOptions,
) -> Result<Evaluation, SloError> {
    let optimized = (plan.num_transformed() > 0).then_some(optimized);
    compare(baseline, optimized, opts)
}

/// Compare `baseline` with a run of `optimized`, or with itself when
/// there is nothing to run.
fn compare(
    baseline: &ExecOutcome,
    optimized: Option<&Program>,
    opts: &VmOptions,
) -> Result<Evaluation, SloError> {
    let b = baseline.stats.without_instrumentation();
    let o = match optimized {
        None => b.clone(),
        Some(prog) => {
            let o = slo_vm::run(prog, opts)?;
            if baseline.exit != o.exit {
                return Err(SloError::Transform(RewriteError::Unsupported(format!(
                    "transformed program changed the computed result ({:?} -> {:?})",
                    baseline.exit, o.exit
                ))));
            }
            o.stats
        }
    };
    Ok(Evaluation {
        baseline_cycles: b.cycles,
        optimized_cycles: o.cycles,
        baseline_instructions: b.instructions,
        optimized_instructions: o.instructions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use slo_ir::parser::parse;
    use slo_ir::verify::assert_valid;

    // a peelable type plus an illegal one
    const SRC: &str = r#"
record elem { w: f64, t: f64 }
record bad  { x: i64 }
global P: ptr<elem>
func main() -> f64 {
bb0:
  r20 = alloc bad, 10
  r21 = cast r20 : ptr<bad> -> i64
  r0 = alloc elem, 1000
  gstore r0, P
  r1 = 0
  jump bb1
bb1:
  r2 = cmp.lt r1, 1000
  br r2, bb2, bb3
bb2:
  r3 = gload P
  r4 = indexaddr r3, elem, r1
  r5 = fieldaddr r4, elem.w
  store 1.0, r5 : f64
  r1 = add r1, 1
  jump bb1
bb3:
  r6 = gload P
  r7 = indexaddr r6, elem, 500
  r8 = fieldaddr r7, elem.w
  r9 = load r8 : f64
  ret r9
}
"#;

    #[test]
    fn end_to_end_compile() {
        let p = parse(SRC).expect("parse");
        let res = compile(&p, &WeightScheme::Ispbo, &PipelineConfig::default()).expect("compile");
        assert_valid(&res.program);
        assert_eq!(res.plan.num_transformed(), 1);
        let elem = p.types.record_by_name("elem").expect("elem");
        assert!(res.plan.of(elem).is_some());
        let bad = p.types.record_by_name("bad").expect("bad");
        assert!(!res.plan.of(bad).is_some());
    }

    #[test]
    fn evaluation_guards_semantics() {
        let p = parse(SRC).expect("parse");
        let res = compile(&p, &WeightScheme::Ispbo, &PipelineConfig::default()).expect("compile");
        let eval = evaluate(&p, &res.program, &slo_vm::VmOptions::default()).expect("evaluate");
        assert!(eval.baseline_cycles > 0);
        assert!(eval.optimized_cycles > 0);
    }

    #[test]
    fn result_mismatch_is_a_transform_error_not_a_panic() {
        let ret = |v: i64| {
            parse(&format!("func main() -> i64 {{\nbb0:\n  ret {v}\n}}\n")).expect("parse")
        };
        let err = evaluate(&ret(1), &ret(2), &slo_vm::VmOptions::default())
            .expect_err("different results must not evaluate");
        assert!(matches!(err, SloError::Transform(_)), "{err}");
    }

    #[test]
    fn profile_run_keeps_the_callers_options() {
        let p = parse(SRC).expect("parse");
        let rec = slo_obs::Recorder::enabled();
        let opts = VmOptions::builder().trace(rec.clone()).build();
        let out = profile_run(&p, &opts).expect("profile run");
        assert!(out
            .feedback
            .func("main")
            .is_some_and(|f| !f.edges.is_empty()));
        assert!(out.stats.instrument_cycles > 0, "edges were counted");
        let names: Vec<String> = rec.events().into_iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            ["vm.run", "profile_run"],
            "the VM run nests in one span"
        );

        let tight = VmOptions::builder().step_limit(10).build();
        let err = profile_run(&p, &tight).expect_err("step limit applies");
        assert!(matches!(err, SloError::Budget(_)), "{err}");
    }

    #[test]
    fn evaluation_against_a_finished_run() {
        let p = parse(SRC).expect("parse");
        let rec = slo_obs::Recorder::enabled();
        let opts = VmOptions::builder().trace(rec.clone()).build();
        let base = profile_run(&p, &VmOptions::default()).expect("profile run");
        let plain = baseline_run(&p, &VmOptions::default()).expect("baseline run");
        let runs = || rec.events().iter().filter(|e| e.name == "vm.run").count();

        // a plan that transforms nothing runs nothing
        let e = evaluate_against(&base, &TransformPlan::default(), &p, &opts).expect("evaluate");
        assert_eq!(runs(), 0);
        assert_eq!(
            e.baseline_cycles, plain.stats.cycles,
            "stats without instrumentation"
        );
        assert_eq!(e.optimized_cycles, e.baseline_cycles);
        assert_eq!(e.optimized_instructions, plain.stats.instructions);

        // a real plan runs the transformed program once
        let res = compile(&p, &WeightScheme::Ispbo, &PipelineConfig::default()).expect("compile");
        let e = evaluate_against(&base, &res.plan, &res.program, &opts).expect("evaluate");
        assert_eq!(runs(), 1);
        let direct = evaluate(&p, &res.program, &VmOptions::default()).expect("evaluate");
        assert_eq!(e.baseline_cycles, direct.baseline_cycles);
        assert_eq!(e.optimized_cycles, direct.optimized_cycles);

        // and a changed result is an error, not an evaluation
        let other = parse(&SRC.replace("ret r9", "ret 0.0")).expect("parse");
        let err = evaluate_against(&base, &res.plan, &other, &opts).expect_err("mismatch");
        assert!(matches!(err, SloError::Transform(_)), "{err}");
    }

    #[test]
    fn pbo_collection_and_use() {
        let p = parse(SRC).expect("parse");
        let fb = collect_profile(&p).expect("collect");
        assert!(fb.func("main").is_some());
        let res = compile(
            &p,
            &WeightScheme::Pbo(&fb),
            &PipelineConfig {
                attribute_dcache: true,
                ..Default::default()
            },
        )
        .expect("compile");
        assert!(res.dcache.is_some());
        assert_valid(&res.program);
    }

    #[test]
    fn deep_by_value_chain_compiles_and_runs() {
        // r0 { a: i64 }, rK { a: r(K-1), b: i64 }: any pass that
        // re-walks nested records is superlinear on this chain
        const DEPTH: usize = 10_000;
        let mut src = String::from("record r0 { a: i64 }\n");
        for k in 1..DEPTH {
            src.push_str(&format!("record r{k} {{ a: r{}, b: i64 }}\n", k - 1));
        }
        src.push_str(&format!(
            "func main() -> i64 {{\nbb0:\n  r0 = alloc r{}, 1\n  ret 0\n}}\n",
            DEPTH - 1
        ));
        let p = parse(&src).expect("parse");
        assert_valid(&p);
        let res = compile(&p, &WeightScheme::Ispbo, &PipelineConfig::default()).expect("compile");
        assert_valid(&res.program);
        let eval = evaluate(&p, &res.program, &slo_vm::VmOptions::default()).expect("evaluate");
        assert!(eval.baseline_cycles > 0);
    }

    #[test]
    fn cache_key_is_deterministic_and_text_sensitive() {
        let key = |src: &str| {
            let p = parse(src).expect("parse");
            analysis_cache_key(&p, &WeightScheme::Ispbo, &PipelineConfig::default())
        };
        assert_eq!(key(SRC), key(SRC));
        assert_eq!(key(SRC), key(&SRC.replace("  ret", "      ret")));
        assert_ne!(key(SRC), key(&SRC.replace("ret r9", "ret r8")));
        let p = parse(SRC).expect("parse");
        let text = slo_ir::printer::print_program(&p);
        for scheme in [WeightScheme::Ispbo, WeightScheme::Spbo] {
            let cfg = PipelineConfig::default();
            assert_eq!(
                analysis_cache_key_of_text(&text, &scheme, &cfg),
                analysis_cache_key(&p, &scheme, &cfg)
            );
        }
    }

    /// Keys name records in persistent stores: a change to the printer,
    /// the hash or the folded knobs that moves this value orphans every
    /// store written before it.
    #[test]
    fn cache_key_bytes_are_pinned() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/ir/hotcold.sir");
        let src = std::fs::read_to_string(path).expect("read hotcold.sir");
        let p = parse(&src).expect("parse");
        let key = analysis_cache_key(&p, &WeightScheme::Ispbo, &PipelineConfig::default());
        assert_eq!(key, 0x2fbb_892b_8122_42ec, "{key:#018x}");
    }

    #[test]
    fn timings_populated() {
        let p = parse(SRC).expect("parse");
        let res = compile(&p, &WeightScheme::Spbo, &PipelineConfig::default()).expect("compile");
        // sanity: phases took measurable (>= 0) time and the struct is
        // plumbed; no absolute expectations
        let t = res.timings;
        assert!(t.fe.as_nanos() + t.ipa.as_nanos() + t.be.as_nanos() > 0);
    }

    #[test]
    fn speedup_math() {
        let e = Evaluation {
            baseline_cycles: 1500,
            optimized_cycles: 1000,
            baseline_instructions: 0,
            optimized_instructions: 0,
        };
        assert!((e.speedup_percent() - 50.0).abs() < 1e-9);
        let e = Evaluation {
            baseline_cycles: 900,
            optimized_cycles: 1000,
            baseline_instructions: 0,
            optimized_instructions: 0,
        };
        assert!(e.speedup_percent() < 0.0);
    }
}
