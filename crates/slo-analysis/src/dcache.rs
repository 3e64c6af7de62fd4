//! Attribution of sampled d-cache events to structure fields — §3.1.
//!
//! The feedback file carries PMU samples keyed by instruction position.
//! After CFG matching (functions by name, blocks/instructions by id), each
//! sampled load/store is traced back to the `FieldAddr` that produced its
//! address, yielding per-field miss counts and latencies — the paper's
//! DMISS and DLAT columns and the numbers shown by the advisory tool.

use crate::util::{DefUse, FactTable};
use slo_ir::{FuncId, Instr, Operand, Program, RecordId, Reg};
use slo_vm::profile::{FuncProfile, StrideInfo};
use slo_vm::Feedback;
use std::collections::HashMap;

/// Aggregated d-cache events for one field.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FieldDcache {
    /// Estimated miss count (samples scaled by the sampling period).
    pub misses: f64,
    /// Estimated total latency cycles.
    pub total_latency: f64,
    /// Estimated sampled access count.
    pub accesses: f64,
}

impl FieldDcache {
    /// Mean latency per access (0 when never sampled).
    pub fn avg_latency(&self) -> f64 {
        if self.accesses == 0.0 {
            0.0
        } else {
            self.total_latency / self.accesses
        }
    }
}

impl FactTable<'_> {
    /// Attribute all samples in `fb` to record fields.
    ///
    /// Loads/stores whose address register cannot be traced to a unique
    /// `FieldAddr` within the same function (e.g. plain array element
    /// access) are skipped — same as real tool chains, which can only
    /// attribute what the compiler's symbolic information covers.
    pub fn attribute_samples(&self, fb: &Feedback) -> HashMap<(RecordId, u32), FieldDcache> {
        let mut out: HashMap<(RecordId, u32), FieldDcache> = HashMap::new();
        let period = fb.sample_period.max(1) as f64;
        for (field, s) in self.by_field(fb, |fp| &fp.samples) {
            let d = out.entry(field).or_default();
            d.misses += s.misses as f64 * period;
            d.total_latency += s.total_latency as f64 * period;
            d.accesses += s.samples as f64 * period;
        }
        out
    }

    /// Attribute stride records to fields (the paper's §2.4 stride
    /// information, surfaced per field by the advisory tool). When
    /// several sites touch the same field, the stride with the most
    /// evidence wins.
    pub fn attribute_strides(&self, fb: &Feedback) -> HashMap<(RecordId, u32), StrideInfo> {
        let mut out: HashMap<(RecordId, u32), StrideInfo> = HashMap::new();
        for (field, st) in self.by_field(fb, |fp| &fp.strides) {
            let e = out.entry(field).or_default();
            if st.hits > e.hits {
                *e = *st;
            }
        }
        out
    }

    /// The entries of one per-instruction table of `fb` whose
    /// instruction traces back to a field, each with that field.
    fn by_field<'a, T: 'a>(
        &'a self,
        fb: &'a Feedback,
        table: fn(&FuncProfile) -> &HashMap<(u32, u32), T>,
    ) -> impl Iterator<Item = ((RecordId, u32), &'a T)> + 'a {
        self.defined().flat_map(move |(fid, facts)| {
            let sites = fb.func(&self.prog.func(fid).name).map(table);
            sites.into_iter().flatten().filter_map(move |(&(b, i), v)| {
                Some((field_of_instr(self.prog, fid, &facts.def_use, b, i)?, v))
            })
        })
    }
}

/// Map the instruction at `(block, idx)` of `fid` to the field it
/// accesses, chasing the address register to its unique `FieldAddr` def.
fn field_of_instr(
    prog: &Program,
    fid: FuncId,
    du: &DefUse,
    block: u32,
    idx: u32,
) -> Option<(RecordId, u32)> {
    let f = prog.func(fid);
    let b = f.blocks.get(block as usize)?;
    let ins = b.instrs.get(idx as usize)?;
    let addr = match ins {
        Instr::Load { addr, .. } => *addr,
        Instr::Store { addr, .. } => *addr,
        _ => return None,
    };
    let Operand::Reg(r) = addr else { return None };
    chase_fieldaddr(prog, du, r, 0)
}

fn chase_fieldaddr(prog: &Program, du: &DefUse, r: Reg, depth: u32) -> Option<(RecordId, u32)> {
    if depth > 4 {
        return None;
    }
    let def = du.only_def(r)?;
    let ins = prog.instr(def);
    match ins {
        Instr::FieldAddr { record, field, .. } => Some((*record, *field)),
        Instr::Assign {
            src: Operand::Reg(s),
            ..
        } => chase_fieldaddr(prog, du, *s, depth + 1),
        _ => None,
    }
}

/// Relative per-field miss hotness for one record (percent of hottest),
/// parallel to the record's field list — the DMISS presentation.
pub fn relative_misses(
    prog: &Program,
    rid: RecordId,
    data: &HashMap<(RecordId, u32), FieldDcache>,
) -> Vec<f64> {
    relative_metric(prog, rid, data, |d| d.misses)
}

/// Relative per-field latency hotness (percent of hottest) — DLAT.
pub fn relative_latencies(
    prog: &Program,
    rid: RecordId,
    data: &HashMap<(RecordId, u32), FieldDcache>,
) -> Vec<f64> {
    relative_metric(prog, rid, data, |d| d.total_latency)
}

fn relative_metric(
    prog: &Program,
    rid: RecordId,
    data: &HashMap<(RecordId, u32), FieldDcache>,
    metric: impl Fn(&FieldDcache) -> f64,
) -> Vec<f64> {
    let n = prog.types.record(rid).fields.len() as u32;
    let vals: Vec<f64> = (0..n)
        .map(|f| data.get(&(rid, f)).map(&metric).unwrap_or(0.0))
        .collect();
    let max = vals.iter().cloned().fold(0.0f64, f64::max);
    if max == 0.0 {
        vals
    } else {
        vals.iter().map(|v| v / max * 100.0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slo_ir::parser::parse;
    use slo_vm::{run, VmOptions};

    // Array of two-field structs; field `a` is read every iteration,
    // field `b` only every 16th — a's miss counts must dominate.
    const SRC: &str = r#"
record cell { a: i64, b: i64, p0: i64, p1: i64, p2: i64, p3: i64, p4: i64, p5: i64 }
func main() -> i64 {
bb0:
  r0 = alloc cell, 32768
  r1 = 0
  r2 = 0
  jump bb1
bb1:
  r3 = cmp.lt r1, 32768
  br r3, bb2, bb5
bb2:
  r4 = indexaddr r0, cell, r1
  r5 = fieldaddr r4, cell.a
  r6 = load r5 : i64
  r2 = add r2, r6
  r7 = and r1, 15
  r8 = cmp.eq r7, 0
  br r8, bb3, bb4
bb3:
  r9 = fieldaddr r4, cell.b
  r10 = load r9 : i64
  r2 = add r2, r10
  jump bb4
bb4:
  r1 = add r1, 1
  jump bb1
bb5:
  ret r2
}
"#;

    fn sampled() -> (slo_ir::Program, HashMap<(RecordId, u32), FieldDcache>) {
        let p = parse(SRC).expect("parse");
        let mut opts = VmOptions::sampling_only();
        opts.sample_period = 1;
        let out = run(&p, &opts).expect("run");
        let attr = FactTable::new(&p).attribute_samples(&out.feedback);
        (p, attr)
    }

    #[test]
    fn misses_attributed_to_fields() {
        let (p, attr) = sampled();
        let cell = p.types.record_by_name("cell").expect("cell");
        let a = attr.get(&(cell, 0)).copied().unwrap_or_default();
        let b = attr.get(&(cell, 1)).copied().unwrap_or_default();
        assert!(a.misses > 20_000.0, "a.misses = {}", a.misses);
        assert!(
            a.misses > b.misses * 4.0,
            "a {} should dominate b {}",
            a.misses,
            b.misses
        );
        assert!(a.avg_latency() > 1.0);
    }

    #[test]
    fn relative_miss_vector() {
        let (p, attr) = sampled();
        let cell = p.types.record_by_name("cell").expect("cell");
        let rel = relative_misses(&p, cell, &attr);
        assert_eq!(rel.len(), 8);
        assert!((rel[0] - 100.0).abs() < 1e-9);
        assert!(rel[1] < 40.0);
        assert_eq!(rel[7], 0.0);
        let rel_lat = relative_latencies(&p, cell, &attr);
        assert!((rel_lat[0] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_period_scales_estimates() {
        let p = parse(SRC).expect("parse");
        let mut o1 = VmOptions::sampling_only();
        o1.sample_period = 1;
        let full = run(&p, &o1).expect("run");
        let mut o16 = VmOptions::sampling_only();
        o16.sample_period = 16;
        let sparse = run(&p, &o16).expect("run");
        let cell = p.types.record_by_name("cell").expect("cell");
        let a_full = FactTable::new(&p).attribute_samples(&full.feedback)[&(cell, 0)];
        let a_sparse = FactTable::new(&p)
            .attribute_samples(&sparse.feedback)
            .get(&(cell, 0))
            .copied()
            .unwrap_or_default();
        // scaled estimates should land within 2x of the full count
        assert!(
            a_sparse.misses > a_full.misses * 0.5 && a_sparse.misses < a_full.misses * 2.0,
            "sparse {} vs full {}",
            a_sparse.misses,
            a_full.misses
        );
    }

    #[test]
    fn unattributable_accesses_are_skipped() {
        let src = r#"
func main() -> i64 {
bb0:
  r0 = alloc i64, 64
  r1 = indexaddr r0, i64, 3
  r2 = load r1 : i64
  ret r2
}
"#;
        let p = parse(src).expect("parse");
        let mut opts = VmOptions::sampling_only();
        opts.sample_period = 1;
        let out = run(&p, &opts).expect("run");
        let attr = FactTable::new(&p).attribute_samples(&out.feedback);
        assert!(attr.is_empty());
    }
}
