//! FE legality analysis — the paper's §2.2.
//!
//! A single cheap pass over each compilation unit's IR determines, per
//! record type, which of the legality tests fire and which attributes hold
//! (dynamically allocated, freed, pointer/variable/array occurrences,
//! escape tuples). The tests, verbatim from the paper:
//!
//! | Test | Condition |
//! |------|-----------|
//! | CSTT | a cast *to* the type (type-unsafe use) — casts of fresh `malloc`/`calloc` results are tolerated |
//! | CSTF | a cast *from* the type |
//! | ATKN | the address of a field is taken (tolerated when it only flows into a call argument) |
//! | LIBC | the type escapes to a marked standard-library function |
//! | IND  | the type escapes to an indirect call |
//! | SMAL | a dynamic allocation with a constant element count below the threshold *A* (applied at IPA) |
//! | MSET | the type is used in a memory-streaming op (`memcpy`/`memset`) |
//! | NEST | the type is nested by value inside another type |

use crate::util::{FactTable, FuncFacts, UseRole};
use slo_ir::{FuncId, FuncKind, Instr, InstrRef, Operand, Program, RecordId, Reg};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;

/// The legality tests (plus the IPA-side escape result).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LegalityTest {
    /// Cast to the type.
    Cstt,
    /// Cast from the type.
    Cstf,
    /// Address of a field taken.
    Atkn,
    /// Escapes to a standard-library function.
    Libc,
    /// Escapes to an indirect call.
    Ind,
    /// Small constant allocation count.
    Smal,
    /// Used in memcpy/memset.
    Mset,
    /// Nested inside another type.
    Nest,
    /// Escapes outside the IPA scope (found during IPA aggregation).
    Escape,
}

impl LegalityTest {
    /// The paper's four-letter abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            LegalityTest::Cstt => "CSTT",
            LegalityTest::Cstf => "CSTF",
            LegalityTest::Atkn => "ATKN",
            LegalityTest::Libc => "LIBC",
            LegalityTest::Ind => "IND",
            LegalityTest::Smal => "SMAL",
            LegalityTest::Mset => "MSET",
            LegalityTest::Nest => "NEST",
            LegalityTest::Escape => "ESCP",
        }
    }
}

impl fmt::Display for LegalityTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// A dynamic allocation site of a record type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSite {
    /// Where the allocation happens.
    pub at: InstrRef,
    /// The element count if it is a compile-time constant.
    pub const_count: Option<i64>,
    /// Whether it is a calloc.
    pub zeroed: bool,
}

/// Everything the FE observed about one record type in one unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TypeObservations {
    /// Violations with occurrence counts.
    pub violations: BTreeMap<LegalityTest, u32>,
    /// A global variable of the record type (by value) exists.
    pub has_global_var: bool,
    /// A global pointer to the type exists.
    pub has_global_ptr: bool,
    /// A local (register) pointer to the type exists.
    pub has_local_ptr: bool,
    /// A global array of the type exists.
    pub has_static_array: bool,
    /// The type is dynamically allocated.
    pub dyn_alloc: bool,
    /// The type is freed.
    pub freed: bool,
    /// The type is reallocated.
    pub realloced: bool,
    /// All dynamic allocation sites.
    pub alloc_sites: Vec<AllocSite>,
    /// Functions (within or outside scope) the type escapes to via call
    /// arguments — the paper's `<type, function>` tuples.
    pub escapes_to: BTreeSet<FuncId>,
}

impl TypeObservations {
    /// Record one violation occurrence.
    pub fn violate(&mut self, t: LegalityTest) {
        *self.violations.entry(t).or_insert(0) += 1;
    }

    /// Merge another unit's observations into this one.
    pub fn merge(&mut self, other: &TypeObservations) {
        for (t, c) in &other.violations {
            *self.violations.entry(*t).or_insert(0) += c;
        }
        self.has_global_var |= other.has_global_var;
        self.has_global_ptr |= other.has_global_ptr;
        self.has_local_ptr |= other.has_local_ptr;
        self.has_static_array |= other.has_static_array;
        self.dyn_alloc |= other.dyn_alloc;
        self.freed |= other.freed;
        self.realloced |= other.realloced;
        self.alloc_sites.extend(other.alloc_sites.iter().copied());
        self.escapes_to.extend(other.escapes_to.iter().copied());
    }
}

/// The FE's per-unit legality summary (stored "in the IELF file").
#[derive(Debug, Clone, Default)]
pub struct LegalitySummary {
    /// Index of the compilation unit this summary describes.
    pub unit: usize,
    /// Observations per record type.
    pub types: HashMap<RecordId, TypeObservations>,
}

impl LegalitySummary {
    /// Observations for a type (default-empty if never seen in this unit).
    pub fn of(&self, r: RecordId) -> TypeObservations {
        self.types.get(&r).cloned().unwrap_or_default()
    }
}

impl FactTable<'_> {
    /// Run the FE legality pass over one compilation unit.
    pub fn analyze_unit(&self, unit: usize) -> LegalitySummary {
        let prog = self.prog;
        let mut sum = LegalitySummary {
            unit,
            ..Default::default()
        };

        // NEST is a whole-type-table property; attribute it in unit 0 only so
        // merging across units does not double count.
        if unit == 0 {
            for rid in prog.types.nested_records() {
                sum.types
                    .entry(rid)
                    .or_default()
                    .violate(LegalityTest::Nest);
            }
        }

        // Global variable / pointer / array attributes (also unit 0 only).
        if unit == 0 {
            for gid in prog.global_ids() {
                let g = prog.global(gid);
                match prog.types.get(g.ty) {
                    slo_ir::Type::Record(r) => {
                        sum.types.entry(*r).or_default().has_global_var = true;
                    }
                    slo_ir::Type::Ptr(_) => {
                        if let Some(r) = prog.types.involved_record(g.ty) {
                            sum.types.entry(r).or_default().has_global_ptr = true;
                        }
                    }
                    slo_ir::Type::Array(..) => {
                        if let Some(r) = prog.types.involved_record(g.ty) {
                            let o = sum.types.entry(r).or_default();
                            o.has_static_array = true;
                        }
                    }
                    _ => {}
                }
            }
        }

        for (fid, facts) in self.defined() {
            if prog.func(fid).unit == unit {
                analyze_function(prog, fid, facts, &mut sum);
            }
        }
        sum
    }

    /// Run the FE pass for every unit of the program.
    pub fn analyze_all_units(&self) -> Vec<LegalitySummary> {
        (0..self.prog.units.len())
            .map(|u| self.analyze_unit(u))
            .collect()
    }
}

/// [`FactTable::analyze_all_units`] of a fresh table, kept only because
/// the `perfbench` ledger's copy of the pipeline calls it (and three more
/// such wrappers) by this signature. They go when the ledger reads the
/// service's own spans instead (ROADMAP item 4).
pub fn analyze_all_units(prog: &Program) -> Vec<LegalitySummary> {
    FactTable::new(prog).analyze_all_units()
}

fn analyze_function(prog: &Program, fid: FuncId, facts: &FuncFacts, sum: &mut LegalitySummary) {
    let tys = &facts.reg_types;

    // Registers that (transitively through Assign) hold fresh allocation
    // results — casts from these are the tolerated malloc() casts.
    let mut alloc_regs: HashSet<u32> = HashSet::new();
    for (_, ins) in prog.instrs_of(fid) {
        match ins {
            Instr::Alloc { dst, .. } | Instr::Realloc { dst, .. } => {
                alloc_regs.insert(dst.0);
            }
            Instr::Assign {
                dst,
                src: Operand::Reg(s),
            } if alloc_regs.contains(&s.0) => {
                alloc_regs.insert(dst.0);
            }
            _ => {}
        }
    }

    let rec_of_reg = |r: Reg| -> Option<RecordId> {
        tys[r.0 as usize].and_then(|t| prog.types.involved_record(t))
    };
    let rec_of_op = |op: Operand| -> Option<RecordId> {
        match op {
            Operand::Reg(r) => rec_of_reg(r),
            _ => None,
        }
    };

    // local pointer attribute: any register typed ptr<record>. Registers
    // cannot hold records by value, so a record-typed register (the
    // fallback when `ptr<rec>` was never interned) is also a pointer.
    for t in tys.iter().flatten() {
        let is_ptr_like =
            prog.types.is_ptr(*t) || matches!(prog.types.get(*t), slo_ir::Type::Record(_));
        if is_ptr_like {
            if let Some(r) = prog.types.involved_record(*t) {
                sum.types.entry(r).or_default().has_local_ptr = true;
            }
        }
    }

    for (at, ins) in prog.instrs_of(fid) {
        match ins {
            Instr::Cast { src, from, to, .. } => {
                let from_rec = prog.types.involved_record(*from);
                let to_rec = prog.types.involved_record(*to);
                if from_rec == to_rec {
                    continue;
                }
                if let Some(r) = from_rec {
                    sum.types.entry(r).or_default().violate(LegalityTest::Cstf);
                }
                if let Some(r) = to_rec {
                    let tolerated = matches!(src, Operand::Reg(s) if alloc_regs.contains(&s.0));
                    let o = sum.types.entry(r).or_default();
                    if tolerated {
                        // the malloc-result cast: this *is* the dynamic
                        // allocation of the target type
                        o.dyn_alloc = true;
                    } else {
                        o.violate(LegalityTest::Cstt);
                    }
                }
            }
            Instr::FieldAddr { dst, record, .. } => {
                // ATKN: the field address escapes beyond an immediate
                // load/store (call arguments are tolerated, as in the paper).
                let escaping = facts.def_use.uses[dst.0 as usize].iter().any(|u| {
                    !matches!(
                        u.role,
                        UseRole::LoadAddr | UseRole::StoreAddr | UseRole::CallArg
                    )
                });
                if escaping {
                    sum.types
                        .entry(*record)
                        .or_default()
                        .violate(LegalityTest::Atkn);
                }
            }
            Instr::Alloc {
                elem,
                count,
                zeroed,
                ..
            } => {
                if let Some(r) = prog.types.involved_record(*elem) {
                    let o = sum.types.entry(r).or_default();
                    o.dyn_alloc = true;
                    o.alloc_sites.push(AllocSite {
                        at,
                        const_count: count.as_const_int(),
                        zeroed: *zeroed,
                    });
                }
            }
            Instr::Realloc { ptr, elem, .. } => {
                if let Some(r) = prog
                    .types
                    .involved_record(*elem)
                    .or_else(|| rec_of_op(*ptr))
                {
                    let o = sum.types.entry(r).or_default();
                    o.realloced = true;
                    o.dyn_alloc = true;
                }
            }
            Instr::Free { ptr } => {
                if let Some(r) = rec_of_op(*ptr) {
                    sum.types.entry(r).or_default().freed = true;
                }
            }
            Instr::Memcpy { dst, src, .. } => {
                for op in [dst, src] {
                    if let Some(r) = rec_of_op(*op) {
                        sum.types.entry(r).or_default().violate(LegalityTest::Mset);
                    }
                }
            }
            Instr::Memset { dst, .. } => {
                if let Some(r) = rec_of_op(*dst) {
                    sum.types.entry(r).or_default().violate(LegalityTest::Mset);
                }
            }
            Instr::Call { callee, args, .. } => {
                let cf = prog.func(*callee);
                for (i, a) in args.iter().enumerate() {
                    // prefer the declared parameter type; fall back to the
                    // inferred operand type (varargs-style declarations)
                    let rec = cf
                        .params
                        .get(i)
                        .and_then(|(_, t)| prog.types.involved_record(*t))
                        .or_else(|| rec_of_op(*a));
                    if let Some(r) = rec {
                        let o = sum.types.entry(r).or_default();
                        match cf.kind {
                            FuncKind::Libc => o.violate(LegalityTest::Libc),
                            _ => {
                                o.escapes_to.insert(*callee);
                            }
                        }
                    }
                }
            }
            Instr::CallIndirect { args, .. } => {
                for a in args {
                    if let Some(r) = rec_of_op(*a) {
                        sum.types.entry(r).or_default().violate(LegalityTest::Ind);
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slo_ir::parser::parse;

    fn summary(src: &str) -> (slo_ir::Program, LegalitySummary) {
        let p = parse(src).expect("parse");
        let s = FactTable::new(&p).analyze_unit(0);
        (p, s)
    }

    fn rid(p: &slo_ir::Program, name: &str) -> RecordId {
        p.types.record_by_name(name).expect("record exists")
    }

    #[test]
    fn clean_type_has_no_violations() {
        let (p, s) = summary(
            r#"
record node { v: i64 }
func main() -> i64 {
bb0:
  r0 = alloc node, 100
  r1 = fieldaddr r0, node.v
  store 1, r1 : i64
  r2 = load r1 : i64
  ret r2
}
"#,
        );
        let o = s.of(rid(&p, "node"));
        assert!(o.violations.is_empty());
        assert!(o.dyn_alloc);
        assert_eq!(o.alloc_sites.len(), 1);
        assert_eq!(o.alloc_sites[0].const_count, Some(100));
        assert!(o.has_local_ptr);
    }

    #[test]
    fn cstf_on_cast_from() {
        let (p, s) = summary(
            r#"
record node { v: i64 }
func main() -> i64 {
bb0:
  r0 = alloc node, 4
  r1 = cast r0 : ptr<node> -> i64
  ret r1
}
"#,
        );
        let o = s.of(rid(&p, "node"));
        assert_eq!(o.violations.get(&LegalityTest::Cstf), Some(&1));
    }

    #[test]
    fn cstt_on_cast_to_but_malloc_tolerated() {
        let (p, s) = summary(
            r#"
record node { v: i64 }
func main() -> i64 {
bb0:
  r0 = alloc u8, 800
  r1 = cast r0 : ptr<u8> -> ptr<node>
  r2 = 5
  r3 = cast r2 : i64 -> ptr<node>
  ret 0
}
"#,
        );
        let o = s.of(rid(&p, "node"));
        // first cast tolerated (fresh malloc), second one fires
        assert_eq!(o.violations.get(&LegalityTest::Cstt), Some(&1));
        assert!(
            o.dyn_alloc,
            "malloc-cast marks the type dynamically allocated"
        );
    }

    #[test]
    fn atkn_when_field_address_escapes() {
        let (p, s) = summary(
            r#"
record node { v: i64, w: i64 }
func main() -> i64 {
bb0:
  r0 = alloc node, 4
  r1 = fieldaddr r0, node.v
  r2 = add r1, 8
  r3 = load r2 : i64
  ret r3
}
"#,
        );
        let o = s.of(rid(&p, "node"));
        assert_eq!(o.violations.get(&LegalityTest::Atkn), Some(&1));
    }

    #[test]
    fn atkn_tolerated_for_call_args() {
        let (p, s) = summary(
            r#"
record node { v: i64 }
func take(ptr<i64>) -> void {
bb0:
  ret
}
func main() -> i64 {
bb0:
  r0 = alloc node, 4
  r1 = fieldaddr r0, node.v
  call take(r1)
  ret 0
}
"#,
        );
        let o = s.of(rid(&p, "node"));
        assert!(!o.violations.contains_key(&LegalityTest::Atkn));
    }

    #[test]
    fn libc_escape() {
        let (p, s) = summary(
            r#"
record node { v: i64 }
libc func fwrite(ptr<node>) -> i64
func main() -> i64 {
bb0:
  r0 = alloc node, 4
  r1 = call fwrite(r0)
  ret r1
}
"#,
        );
        let o = s.of(rid(&p, "node"));
        assert_eq!(o.violations.get(&LegalityTest::Libc), Some(&1));
    }

    #[test]
    fn ind_on_indirect_call() {
        let (p, s) = summary(
            r#"
record node { v: i64 }
func take(ptr<node>) -> void {
bb0:
  ret
}
func main() -> i64 {
bb0:
  r0 = alloc node, 4
  r1 = fnaddr take
  icall r1(r0) : (ptr<node>)
  ret 0
}
"#,
        );
        let o = s.of(rid(&p, "node"));
        assert_eq!(o.violations.get(&LegalityTest::Ind), Some(&1));
    }

    #[test]
    fn mset_on_memset_and_memcpy() {
        let (p, s) = summary(
            r#"
record node { v: i64 }
func main() -> i64 {
bb0:
  r0 = alloc node, 4
  r1 = alloc node, 4
  memset r0, 0, 32
  memcpy r1, r0, 32
  ret 0
}
"#,
        );
        let o = s.of(rid(&p, "node"));
        assert_eq!(o.violations.get(&LegalityTest::Mset), Some(&3)); // memset + 2 memcpy operands
    }

    #[test]
    fn nest_detection() {
        let (p, s) = summary(
            r#"
record inner { x: i64 }
record outer { i: inner, y: i64 }
func main() -> i64 {
bb0:
  ret 0
}
"#,
        );
        assert_eq!(
            s.of(rid(&p, "inner")).violations.get(&LegalityTest::Nest),
            Some(&1)
        );
        assert!(s.of(rid(&p, "outer")).violations.is_empty());
    }

    #[test]
    fn escape_tuples_to_defined_functions() {
        let (p, s) = summary(
            r#"
record node { v: i64 }
extern func mystery(ptr<node>) -> void
func local(ptr<node>) -> void {
bb0:
  ret
}
func main() -> i64 {
bb0:
  r0 = alloc node, 4
  call local(r0)
  call mystery(r0)
  ret 0
}
"#,
        );
        let o = s.of(rid(&p, "node"));
        let local = p.func_by_name("local").expect("local");
        let mystery = p.func_by_name("mystery").expect("mystery");
        assert!(o.escapes_to.contains(&local));
        assert!(o.escapes_to.contains(&mystery));
    }

    #[test]
    fn global_attrs() {
        let (p, s) = summary(
            r#"
record node { v: i64 }
global P: ptr<node>
global ARR: [node; 8]
global N: node
func main() -> i64 {
bb0:
  ret 0
}
"#,
        );
        let o = s.of(rid(&p, "node"));
        assert!(o.has_global_ptr);
        assert!(o.has_static_array);
        assert!(o.has_global_var);
    }

    #[test]
    fn free_and_realloc_attrs() {
        let (p, s) = summary(
            r#"
record node { v: i64 }
func main() -> i64 {
bb0:
  r0 = alloc node, 8
  r1 = realloc r0, node, 16
  free r1
  ret 0
}
"#,
        );
        let o = s.of(rid(&p, "node"));
        assert!(o.freed);
        assert!(o.realloced);
    }

    #[test]
    fn merge_observations() {
        let mut a = TypeObservations::default();
        a.violate(LegalityTest::Cstt);
        a.dyn_alloc = true;
        let mut b = TypeObservations::default();
        b.violate(LegalityTest::Cstt);
        b.violate(LegalityTest::Mset);
        b.freed = true;
        a.merge(&b);
        assert_eq!(a.violations[&LegalityTest::Cstt], 2);
        assert_eq!(a.violations[&LegalityTest::Mset], 1);
        assert!(a.dyn_alloc && a.freed);
    }

    #[test]
    fn per_unit_scoping() {
        let src = r#"
record node { v: i64 }
func f1() -> i64 {
bb0:
  r0 = alloc node, 4
  r1 = cast r0 : ptr<node> -> i64
  ret r1
}
"#;
        let mut p = parse(src).expect("parse");
        // move f1 to unit 1
        let f1 = p.func_by_name("f1").expect("f1");
        p.add_unit("second.c");
        p.func_mut(f1).unit = 1;
        let facts = FactTable::new(&p);
        let s0 = facts.analyze_unit(0);
        let s1 = facts.analyze_unit(1);
        let node = p.types.record_by_name("node").expect("node");
        assert!(s0.of(node).violations.is_empty());
        assert_eq!(s1.of(node).violations.get(&LegalityTest::Cstf), Some(&1));
    }
}
