//! Shared intra-procedural helpers: register def/use maps and a cheap
//! (flow-insensitive) register type inference.
//!
//! The FE legality pass is, per the paper, a *single* cheap pass that
//! trades accuracy for compile time. These helpers deliberately stay
//! flow-insensitive: a register gets the type of its (usually unique)
//! defining instruction, and ambiguity degrades conservatively.

use slo_ir::{FuncId, Instr, InstrRef, Operand, Program, Reg, TypeId};

/// How an instruction uses a register operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UseRole {
    /// As the address of a load.
    LoadAddr,
    /// As the address of a store.
    StoreAddr,
    /// As the *value* stored to memory.
    StoreValue,
    /// As an argument to a direct call.
    CallArg,
    /// As an argument to an indirect call.
    IndirectCallArg,
    /// As the base of a field/index address computation.
    AddrBase,
    /// Anything else (arithmetic, casts, branches, memcpy, ...).
    Other,
}

/// One use of a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Use {
    /// The using instruction.
    pub at: InstrRef,
    /// How the register is used there.
    pub role: UseRole,
}

/// Per-function register def/use information.
#[derive(Debug, Clone, Default)]
pub struct DefUse {
    /// Number of defs per register.
    pub def_counts: Vec<u32>,
    /// The last def site seen per register (meaningful when count == 1).
    pub unique_def: Vec<Option<InstrRef>>,
    /// All uses per register.
    pub uses: Vec<Vec<Use>>,
}

impl DefUse {
    /// Build def/use information for one defined function.
    pub fn build(prog: &Program, fid: FuncId) -> Self {
        let f = prog.func(fid);
        let n = f.num_regs as usize;
        let mut du = DefUse {
            def_counts: vec![0; n],
            unique_def: vec![None; n],
            uses: vec![Vec::new(); n],
        };
        // parameters count as defs
        for (r, _) in &f.params {
            du.def_counts[r.0 as usize] += 1;
        }
        for (at, ins) in prog.instrs_of(fid) {
            if let Some(Reg(d)) = ins.def() {
                du.def_counts[d as usize] += 1;
                du.unique_def[d as usize] = Some(at);
            }
            record_uses(ins, at, &mut du);
        }
        du
    }

    /// The unique defining instruction of `r`, if it has exactly one def.
    pub fn only_def(&self, r: Reg) -> Option<InstrRef> {
        if self.def_counts[r.0 as usize] == 1 {
            self.unique_def[r.0 as usize]
        } else {
            None
        }
    }
}

fn record_uses(ins: &Instr, at: InstrRef, du: &mut DefUse) {
    let mut add = |op: Operand, role: UseRole| {
        if let Operand::Reg(Reg(r)) = op {
            du.uses[r as usize].push(Use { at, role });
        }
    };
    match ins {
        Instr::Load { addr, .. } => add(*addr, UseRole::LoadAddr),
        Instr::Store { addr, value, .. } => {
            add(*addr, UseRole::StoreAddr);
            add(*value, UseRole::StoreValue);
        }
        Instr::Call { args, .. } => {
            for a in args {
                add(*a, UseRole::CallArg);
            }
        }
        Instr::CallIndirect { target, args, .. } => {
            add(*target, UseRole::Other);
            for a in args {
                add(*a, UseRole::IndirectCallArg);
            }
        }
        Instr::FieldAddr { base, .. } => add(*base, UseRole::AddrBase),
        Instr::IndexAddr { base, index, .. } => {
            add(*base, UseRole::AddrBase);
            add(*index, UseRole::Other);
        }
        Instr::StoreGlobal { value, .. } => add(*value, UseRole::StoreValue),
        other => {
            other.for_each_use(|op| add(op, UseRole::Other));
        }
    }
}

/// Infer a static type for each register of a function.
///
/// Flow-insensitive: each defining instruction proposes a type; registers
/// with multiple conflicting defs get `None`. Parameters use their
/// declared types.
pub fn reg_types(prog: &Program, fid: FuncId) -> Vec<Option<TypeId>> {
    let f = prog.func(fid);
    let n = f.num_regs as usize;
    let mut tys: Vec<Option<TypeId>> = vec![None; n];
    let mut conflicted = vec![false; n];
    let assign =
        |tys: &mut Vec<Option<TypeId>>, conflicted: &mut Vec<bool>, r: Reg, t: Option<TypeId>| {
            let i = r.0 as usize;
            match (tys[i], t) {
                (None, Some(t)) if !conflicted[i] => tys[i] = Some(t),
                (Some(old), Some(new)) if old != new => {
                    tys[i] = None;
                    conflicted[i] = true;
                }
                _ => {}
            }
        };
    for (r, t) in &f.params {
        assign(&mut tys, &mut conflicted, *r, Some(*t));
    }
    // Two passes so Assign-copies of later-defined registers resolve.
    for _ in 0..2 {
        for (_, ins) in prog.instrs_of(fid) {
            let proposed: Option<(Reg, Option<TypeId>)> = match ins {
                Instr::Cast { dst, to, .. } => Some((*dst, Some(*to))),
                Instr::Load { dst, ty, .. } => Some((*dst, Some(*ty))),
                Instr::Alloc { dst, elem, .. } | Instr::Realloc { dst, elem, .. } => {
                    Some((*dst, Some(ptr_to(prog, *elem))))
                }
                Instr::FieldAddr {
                    dst, record, field, ..
                } => prog
                    .types
                    .record(*record)
                    .fields
                    .get(*field as usize)
                    .map(|f| (*dst, Some(ptr_to(prog, f.ty)))),
                Instr::IndexAddr { dst, elem, .. } => Some((*dst, Some(ptr_to(prog, *elem)))),
                Instr::LoadGlobal { dst, global } => {
                    Some((*dst, Some(prog.globals[global.index()].ty)))
                }
                Instr::AddrOfGlobal { dst, global } => {
                    Some((*dst, Some(ptr_to(prog, prog.globals[global.index()].ty))))
                }
                Instr::Call { dst, callee, .. } => dst.map(|d| (d, Some(prog.func(*callee).ret))),
                Instr::Assign {
                    dst,
                    src: Operand::Reg(s),
                } => Some((*dst, tys[s.0 as usize])),
                _ => None,
            };
            if let Some((r, t)) = proposed {
                assign(&mut tys, &mut conflicted, r, t);
            }
        }
    }
    tys
}

// Interning requires &mut; the analyses only *read* programs, so look up
// the pointer type if it already exists: one probe of the table's intern
// map. Since all programs built by the builder/parser intern pointer
// types before use, a missing entry means "no pointer to this type exists
// in the program", and we fall back to the pointee itself, which is still
// enough for `involved_record`.
fn ptr_to(prog: &Program, pointee: TypeId) -> TypeId {
    prog.types.ptr_id(pointee).unwrap_or(pointee)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slo_ir::parser::parse;
    use slo_ir::Type;

    const SRC: &str = r#"
record node { v: i64, next: ptr<node> }
global P: ptr<node>
func main() -> i64 {
bb0:
  r0 = alloc node, 10
  r1 = fieldaddr r0, node.v
  store 1, r1 : i64
  r2 = load r1 : i64
  r3 = fieldaddr r0, node.next
  r4 = r0
  gstore r0, P
  ret r2
}
"#;

    #[test]
    fn def_use_roles() {
        let p = parse(SRC).expect("parse");
        let main = p.main().expect("main");
        let du = DefUse::build(&p, main);
        // r1 (fieldaddr) used as store addr then load addr
        let roles: Vec<UseRole> = du.uses[1].iter().map(|u| u.role).collect();
        assert_eq!(roles, vec![UseRole::StoreAddr, UseRole::LoadAddr]);
        // r0 used as fieldaddr base twice, assigned, and stored to a global
        assert!(du.uses[0].iter().any(|u| u.role == UseRole::AddrBase));
        assert!(du.uses[0].iter().any(|u| u.role == UseRole::StoreValue));
        assert_eq!(du.def_counts[0], 1);
        assert!(du.only_def(Reg(0)).is_some());
        assert!(du.only_def(Reg(4)).is_some());
    }

    #[test]
    fn reg_type_inference() {
        let p = parse(SRC).expect("parse");
        let main = p.main().expect("main");
        let tys = reg_types(&p, main);
        let node = p.types.record_by_name("node").expect("node");
        // r0: ptr<node>
        assert_eq!(
            p.types.involved_record(tys[0].expect("r0 typed")),
            Some(node)
        );
        assert!(p.types.is_ptr(tys[0].expect("r0 typed")));
        // r2: i64 scalar
        let t2 = tys[2].expect("r2 typed");
        assert!(matches!(p.types.get(t2), Type::Scalar(_)));
        // r4 copies r0's type
        assert_eq!(tys[4], tys[0]);
    }

    #[test]
    fn conflicting_defs_give_none() {
        let src = r#"
func f(i64) -> i64 {
bb0:
  r1 = cast r0 : i64 -> f64
  r1 = cast r0 : i64 -> i64
  ret r0
}
"#;
        let p = parse(src).expect("parse");
        let f = p.func_by_name("f").expect("f");
        let tys = reg_types(&p, f);
        assert_eq!(tys[1], None);
        let du = DefUse::build(&p, f);
        assert_eq!(du.def_counts[1], 2);
        assert!(du.only_def(Reg(1)).is_none());
    }

    #[test]
    fn params_are_typed() {
        let src = "record r { a: i64 }\nfunc f(ptr<r>, i64) -> i64 {\nbb0:\n  ret r1\n}\n";
        let p = parse(src).expect("parse");
        let f = p.func_by_name("f").expect("f");
        let tys = reg_types(&p, f);
        let rid = p.types.record_by_name("r").expect("r");
        assert_eq!(p.types.involved_record(tys[0].expect("typed")), Some(rid));
    }
}
