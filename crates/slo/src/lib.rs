//! # slo — practical structure layout optimization and advice
//!
//! The facade crate of the reproduction of Hundt, Mannarswamy &
//! Chakrabarti, *"Practical Structure Layout Optimization and Advice"*
//! (CGO 2006): a SYZYGY-style FE → IPA → BE pipeline
//! ([`pipeline::compile`]) that runs the legality and profitability
//! analyses, decides structure splitting / peeling / dead-field-removal /
//! reordering, applies the rewrites, and can evaluate the result on the
//! simulated Itanium-flavoured machine ([`pipeline::evaluate`]).
//!
//! The member crates are re-exported for convenience:
//!
//! * [`ir`] — the compiler IR substrate,
//! * [`vm`] — interpreter, cache simulator, profiler, PMU sampler,
//! * [`analysis`] — legality, affinity/hotness, frequency schemes,
//! * [`transform`] — the planning heuristics and rewrites,
//! * [`advisor`] — the advisory reporting tool.
//!
//! # Examples
//!
//! ```
//! use slo::analysis::WeightScheme;
//! use slo::pipeline::{compile, evaluate, PipelineConfig};
//!
//! let src = r#"
//! record pt { x: f64, y: f64 }
//! global P: ptr<pt>
//! func main() -> f64 {
//! bb0:
//!   r0 = alloc pt, 256
//!   gstore r0, P
//!   r1 = 0
//!   jump bb1
//! bb1:
//!   r2 = cmp.lt r1, 256
//!   br r2, bb2, bb3
//! bb2:
//!   r3 = gload P
//!   r4 = indexaddr r3, pt, r1
//!   r5 = fieldaddr r4, pt.x
//!   store 1.0, r5 : f64
//!   r1 = add r1, 1
//!   jump bb1
//! bb3:
//!   ret 0.0
//! }
//! "#;
//! let prog = slo::ir::parser::parse(src)?;
//! let result = compile(&prog, &WeightScheme::Ispbo, &PipelineConfig::default())?;
//! let eval = evaluate(&prog, &result.program, &slo::vm::VmOptions::default())?;
//! assert!(eval.baseline_cycles > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod pipeline;
pub mod serial;

pub use error::SloError;
pub use pipeline::{
    analysis_cache_key, analysis_cache_key_of_text, analyze, analyze_with, apply, apply_with,
    baseline_run, collect_profile, compile, compile_with, evaluate, evaluate_against, profile_run,
    Analysis, CompileResult, Evaluation, PhaseTimings, PipelineConfig, PipelineConfigBuilder,
};
pub use serial::{decode_analysis, encode_analysis, SerialError, ANALYSIS_VERSION};

pub use slo_obs as obs;

pub use slo_advisor as advisor;
pub use slo_analysis as analysis;
pub use slo_ir as ir;
pub use slo_transform as transform;
pub use slo_vm as vm;
