//! # slo-analysis — the paper's compiler analyses
//!
//! Implements the analysis half of *"Practical Structure Layout
//! Optimization and Advice"* (CGO 2006) over the `slo-ir` substrate.
//! Every analysis reads the per-function facts of one [`FactTable`]
//! ([`util`]), computed once per program.
//!
//! * **Legality** ([`legality`], [`ipa`]): the FE's single-pass tests
//!   (CSTT, CSTF, ATKN, LIBC, IND, SMAL, MSET, NEST), attribute
//!   collection, and IPA aggregation with type-escape analysis plus the
//!   relaxed-analysis mode (Table 1's "Relax" column).
//! * **Profitability** ([`affinity`], [`freq`], [`ispbo`], [`schemes`]):
//!   loop-level affinity groups, affinity graphs, field hotness and
//!   read/write counts, under the full family of weighting schemes
//!   (PBO, PPBO, SPBO, ISPBO, ISPBO.NO, ISPBO.W).
//! * **D-cache attribution** ([`dcache`]): PMU samples mapped back to
//!   structure fields (DMISS / DLAT / DMISS.NO).
//! * **Correlation** ([`correlate`]): the `r` / `r'` quality metric of
//!   Table 2.
//! * **Points-to** ([`pointsto`]): a simple field-sensitive points-to
//!   analysis that justifies the relaxed legality mode (§2.2's sharper
//!   ATKN/CSTT/CSTF tests).

#![warn(missing_docs)]

pub mod affinity;
pub mod correlate;
pub mod dcache;
pub mod fingerprint;
pub mod freq;
pub mod ipa;
pub mod ispbo;
pub mod legality;
pub mod pointsto;
pub mod schemes;
pub mod util;

pub use affinity::{AffinityGraph, AffinityGraphs, Annotations, FieldCountMap, FieldCounts};
pub use correlate::{argmax, correlation, correlation_excluding};
pub use dcache::FieldDcache;
pub use fingerprint::{fold_legality_config, fold_scheme, ipa_fingerprint};
pub use freq::{from_profile, BranchProbs, FuncFreq};
pub use ipa::{analyze_program, IpaResult, LegalityConfig, TypeVerdict};
pub use ispbo::{IspboConfig, IspboResult};
pub use legality::{AllocSite, LegalitySummary, LegalityTest, TypeObservations};
pub use schemes::{block_frequencies, relative_hotness, WeightScheme};
pub use util::{FactTable, FuncFacts};
