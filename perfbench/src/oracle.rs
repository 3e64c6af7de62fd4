//! The output oracle: every outcome must have the workload's expected
//! status and Table 3's transformed-type count, and a seeded sample of
//! jobs is re-run on the structured reference engine, which must agree
//! with the decoded engine's exit value, cycles and instructions.

use crate::inputs::{Input, Rng};
use slo_ir::Program;
use slo_vm::{ExecOutcome, VmOptions};

/// What the program reported for one optimized job.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    /// Transformed record types.
    pub types: usize,
    /// Simulated cycles of the original program.
    pub baseline_cycles: u64,
    /// Simulated cycles of the transformed program.
    pub optimized_cycles: u64,
    /// Instructions of the original program, when reported.
    pub baseline_instructions: Option<u64>,
    /// Instructions of the transformed program, when reported.
    pub optimized_instructions: Option<u64>,
}

/// Check an outcome's status and type count against the input.
pub fn check_status(input: &Input, status: &str, claim: Option<&Claim>) -> Result<(), String> {
    if status != "optimized" {
        return Err(format!("{}: status {status}, expected optimized", input.id));
    }
    let claim = claim.ok_or_else(|| format!("{}: optimized without a result", input.id))?;
    match input.expected_types() {
        Some(want) if want != claim.types => Err(format!(
            "{}: {} types transformed, Table 3 says {want}",
            input.id, claim.types
        )),
        _ => Ok(()),
    }
}

/// Seeded choice of `m` distinct indices below `n`.
pub fn sample(seed: u64, n: usize, m: usize) -> Vec<usize> {
    let mut idx = Rng::new(seed, 9).permutation(n);
    idx.truncate(m);
    idx.sort_unstable();
    idx
}

fn run(p: &Program, opts: &VmOptions, what: &str) -> Result<ExecOutcome, String> {
    slo_vm::run(p, opts).map_err(|e| format!("{what}: {e}"))
}

/// Re-run both programs on both engines and compare with the claim.
pub fn check_reference(
    id: &str,
    baseline: &Program,
    transformed: &Program,
    claim: &Claim,
) -> Result<(), String> {
    let fast = VmOptions::default();
    let reference = VmOptions::default().structured();
    let mut exits = Vec::with_capacity(2);
    for (p, cycles, instrs, what) in [
        (
            baseline,
            claim.baseline_cycles,
            claim.baseline_instructions,
            "baseline",
        ),
        (
            transformed,
            claim.optimized_cycles,
            claim.optimized_instructions,
            "transformed",
        ),
    ] {
        let d = run(p, &fast, what)?;
        let s = run(p, &reference, what)?;
        if d.exit != s.exit || d.stats.cycles != s.stats.cycles {
            return Err(format!(
                "{id} {what}: engines disagree (exit {:?}/{:?}, cycles {}/{})",
                d.exit, s.exit, d.stats.cycles, s.stats.cycles
            ));
        }
        if d.stats.instructions != s.stats.instructions {
            return Err(format!(
                "{id} {what}: engines disagree on instructions ({}/{})",
                d.stats.instructions, s.stats.instructions
            ));
        }
        if s.stats.cycles != cycles || instrs.is_some_and(|i| i != s.stats.instructions) {
            return Err(format!(
                "{id} {what}: reported {cycles} cycles / {instrs:?} instructions, reference engine ran {} / {}",
                s.stats.cycles, s.stats.instructions
            ));
        }
        exits.push(d.exit);
    }
    if exits[0] != exits[1] {
        return Err(format!(
            "{id}: transformed program returns {:?}, original {:?}",
            exits[1], exits[0]
        ));
    }
    Ok(())
}
