//! IR well-formedness verifier.
//!
//! The verifier checks the structural invariants the analyses and the VM
//! rely on: every type has a finite layout that fits in `u64` (no record
//! contains itself by value), bit-fields are integer scalars no wider than
//! their type, and each function's registers, targets, callees and type
//! references are in range. Every front end runs it before anything else
//! reads the program, and tests run it after every transformation to catch
//! rewriting bugs early.

use crate::instr::{FuncId, Instr, Operand, Reg};
use crate::module::Program;
use crate::types::Type;
use std::fmt;

/// One verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function in which the problem occurred (if applicable).
    pub func: Option<FuncId>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.func {
            Some(id) => write!(f, "[{}] {}", id, self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verify a whole program. Returns all problems found (empty = valid).
pub fn verify(p: &Program) -> Vec<VerifyError> {
    let mut errs = Vec::new();
    let mut push_type_err = |message: String| {
        errs.push(VerifyError {
            func: None,
            message,
        })
    };
    if let Err(e) = p.types.check_layout() {
        push_type_err(e.to_string());
    }
    for rid in p.types.record_ids() {
        let rec = p.types.record(rid);
        for f in &rec.fields {
            let Some(width) = f.bit_width else { continue };
            let ty = p.types.display(f.ty);
            match p.types.get(f.ty) {
                Type::Scalar(k) if !k.is_float() => {
                    let bits = 8 * k.size();
                    if !(1..=bits).contains(&u64::from(width)) {
                        push_type_err(format!(
                            "bit-field `{}.{}` has width {width}, outside 1..={bits} for {ty}",
                            rec.name, f.name
                        ));
                    }
                }
                _ => push_type_err(format!(
                    "bit-field `{}.{}` has type {ty}, not an integer scalar",
                    rec.name, f.name
                )),
            }
        }
    }

    for fid in p.func_ids() {
        let f = p.func(fid);
        let push = |errs: &mut Vec<VerifyError>, msg: String| {
            errs.push(VerifyError {
                func: Some(fid),
                message: msg,
            })
        };

        if !f.is_defined() {
            if !f.blocks.is_empty() {
                push(&mut errs, "external function has a body".into());
            }
            continue;
        }
        if f.blocks.is_empty() {
            push(&mut errs, "defined function has no blocks".into());
            continue;
        }

        // parameters occupy the low registers r0..rn
        if (f.params.len() as u32) > f.num_regs {
            push(
                &mut errs,
                format!(
                    "{} params do not fit in {} registers",
                    f.params.len(),
                    f.num_regs
                ),
            );
        }
        for (i, (Reg(r), _)) in f.params.iter().enumerate() {
            if *r != i as u32 {
                push(&mut errs, format!("param {i} is bound to r{r}, not r{i}"));
            }
        }
        let ret_is_void = matches!(p.types.get(f.ret), Type::Void);

        let nblocks = f.blocks.len() as u32;
        for (bi, b) in f.blocks.iter().enumerate() {
            if b.instrs.is_empty() {
                push(&mut errs, format!("bb{bi} is empty"));
                continue;
            }
            let last = b.instrs.len() - 1;
            for (ii, ins) in b.instrs.iter().enumerate() {
                if ins.is_terminator() != (ii == last) {
                    push(
                        &mut errs,
                        format!("bb{bi}:{ii}: terminator placement is wrong"),
                    );
                }
                // register ranges
                if let Some(Reg(r)) = ins.def() {
                    if r >= f.num_regs {
                        push(&mut errs, format!("bb{bi}:{ii}: def of out-of-range r{r}"));
                    }
                }
                ins.for_each_use(|u| {
                    if let Operand::Reg(Reg(r)) = u {
                        if r >= f.num_regs {
                            push(&mut errs, format!("bb{bi}:{ii}: use of out-of-range r{r}"));
                        }
                    }
                });
                // block targets
                for s in ins.successors() {
                    if s.0 >= nblocks {
                        push(&mut errs, format!("bb{bi}:{ii}: jump to missing {s}"));
                    }
                }
                // structural checks per instruction
                match ins {
                    Instr::FieldAddr { record, field, .. } => {
                        if record.0 as usize >= p.types.num_records() {
                            push(&mut errs, format!("bb{bi}:{ii}: unknown record {record}"));
                        } else if *field as usize >= p.types.record(*record).fields.len() {
                            push(
                                &mut errs,
                                format!(
                                    "bb{bi}:{ii}: field index {field} out of range for `{}`",
                                    p.types.record(*record).name
                                ),
                            );
                        }
                    }
                    Instr::Call { callee, args, .. } => {
                        if callee.index() >= p.funcs.len() {
                            push(&mut errs, format!("bb{bi}:{ii}: unknown callee {callee}"));
                        } else {
                            let cf = p.func(*callee);
                            if args.len() != cf.params.len() {
                                push(
                                    &mut errs,
                                    format!(
                                        "bb{bi}:{ii}: call of `{}` passes {} args for {} params",
                                        cf.name,
                                        args.len(),
                                        cf.params.len()
                                    ),
                                );
                            }
                        }
                    }
                    Instr::CallIndirect {
                        args, arg_types, ..
                    } => {
                        if args.len() != arg_types.len() {
                            push(
                                &mut errs,
                                format!(
                                    "bb{bi}:{ii}: icall passes {} args with {} declared types",
                                    args.len(),
                                    arg_types.len()
                                ),
                            );
                        }
                        for t in arg_types {
                            if (t.0 as usize) >= p.types.num_types() {
                                push(&mut errs, format!("bb{bi}:{ii}: unknown type {t}"));
                            }
                        }
                    }
                    Instr::Cast { from, to, .. } => {
                        for t in [from, to] {
                            if (t.0 as usize) >= p.types.num_types() {
                                push(&mut errs, format!("bb{bi}:{ii}: unknown type {t}"));
                            }
                        }
                    }
                    Instr::IndexAddr { elem, .. } if (elem.0 as usize) >= p.types.num_types() => {
                        push(&mut errs, format!("bb{bi}:{ii}: unknown type {elem}"));
                    }
                    Instr::Return { value } => {
                        if ret_is_void && value.is_some() {
                            push(
                                &mut errs,
                                format!("bb{bi}:{ii}: void function returns a value"),
                            );
                        }
                        if !ret_is_void && value.is_none() {
                            push(
                                &mut errs,
                                format!("bb{bi}:{ii}: non-void function returns no value"),
                            );
                        }
                    }
                    Instr::FuncAddr { func, .. } if func.index() >= p.funcs.len() => {
                        push(&mut errs, format!("bb{bi}:{ii}: unknown function {func}"));
                    }
                    Instr::LoadGlobal { global, .. }
                    | Instr::StoreGlobal { global, .. }
                    | Instr::AddrOfGlobal { global, .. }
                        if global.index() >= p.globals.len() =>
                    {
                        push(&mut errs, format!("bb{bi}:{ii}: unknown global {global}"));
                    }
                    Instr::Load { ty, .. } | Instr::Store { ty, .. } => {
                        if (ty.0 as usize) >= p.types.num_types() {
                            push(&mut errs, format!("bb{bi}:{ii}: unknown type {ty}"));
                        } else if matches!(p.types.get(*ty), Type::Record(_) | Type::Array(..)) {
                            push(
                                &mut errs,
                                format!(
                                    "bb{bi}:{ii}: aggregate load/store of {} (use memcpy)",
                                    p.types.display(*ty)
                                ),
                            );
                        }
                    }
                    Instr::Alloc { elem, .. } | Instr::Realloc { elem, .. }
                        if (elem.0 as usize) >= p.types.num_types() =>
                    {
                        push(&mut errs, format!("bb{bi}:{ii}: unknown type {elem}"));
                    }
                    _ => {}
                }
            }
        }
    }

    // unique names already enforced on construction; re-check cheaply.
    let mut names: Vec<&str> = p.funcs.iter().map(|f| f.name.as_str()).collect();
    names.sort_unstable();
    for w in names.windows(2) {
        if w[0] == w[1] {
            errs.push(VerifyError {
                func: None,
                message: format!("duplicate function name `{}`", w[0]),
            });
        }
    }
    let mut gnames: Vec<&str> = p.globals.iter().map(|g| g.name.as_str()).collect();
    gnames.sort_unstable();
    for w in gnames.windows(2) {
        if w[0] == w[1] {
            errs.push(VerifyError {
                func: None,
                message: format!("duplicate global name `{}`", w[0]),
            });
        }
    }

    errs
}

/// Panic with a readable message if the program is invalid. For tests.
///
/// # Panics
///
/// Panics if [`verify`] reports any error.
pub fn assert_valid(p: &Program) {
    let errs = verify(p);
    assert!(
        errs.is_empty(),
        "IR verification failed:\n{}",
        errs.iter()
            .map(|e| format!("  - {e}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::instr::{BlockId, Operand};
    use crate::module::{BasicBlock, FuncKind, Function};
    use crate::types::{Field, ScalarKind, TypeId};

    #[test]
    fn valid_program_passes() {
        let mut pb = ProgramBuilder::new();
        let i64t = pb.scalar(ScalarKind::I64);
        let f = pb.declare("main", vec![], i64t);
        pb.define(f, |fb| {
            fb.count_loop(Operand::int(3), |fb, _| {
                fb.iconst(0);
            });
            fb.ret(Some(Operand::int(0)));
        });
        let p = pb.finish();
        assert!(verify(&p).is_empty());
        assert_valid(&p);
    }

    #[test]
    fn missing_terminator_detected() {
        let mut p = Program::new();
        let void = p.types.void();
        p.add_func(Function {
            name: "f".into(),
            params: vec![],
            ret: void,
            kind: FuncKind::Defined,
            blocks: vec![BasicBlock {
                instrs: vec![Instr::Assign {
                    dst: Reg(0),
                    src: Operand::int(1),
                }],
            }],
            num_regs: 1,
            unit: 0,
        });
        let errs = verify(&p);
        assert!(errs.iter().any(|e| e.message.contains("terminator")));
    }

    #[test]
    fn out_of_range_register_detected() {
        let mut p = Program::new();
        let void = p.types.void();
        p.add_func(Function {
            name: "f".into(),
            params: vec![],
            ret: void,
            kind: FuncKind::Defined,
            blocks: vec![BasicBlock {
                instrs: vec![
                    Instr::Assign {
                        dst: Reg(5),
                        src: Operand::int(1),
                    },
                    Instr::Return { value: None },
                ],
            }],
            num_regs: 1,
            unit: 0,
        });
        let errs = verify(&p);
        assert!(errs.iter().any(|e| e.message.contains("out-of-range")));
    }

    #[test]
    fn bad_jump_target_detected() {
        let mut p = Program::new();
        let void = p.types.void();
        p.add_func(Function {
            name: "f".into(),
            params: vec![],
            ret: void,
            kind: FuncKind::Defined,
            blocks: vec![BasicBlock {
                instrs: vec![Instr::Jump { target: BlockId(9) }],
            }],
            num_regs: 0,
            unit: 0,
        });
        let errs = verify(&p);
        assert!(errs.iter().any(|e| e.message.contains("missing bb9")));
    }

    #[test]
    fn bad_field_index_detected() {
        let mut pb = ProgramBuilder::new();
        let i64t = pb.scalar(ScalarKind::I64);
        let (rid, rty) = pb.record("r", vec![Field::new("a", i64t)]);
        let f = pb.declare("f", vec![], i64t);
        pb.define(f, |fb| {
            let x = fb.alloc(rty, Operand::int(1));
            let _ = fb.field_addr(x.into(), rid, 7); // out of range
            fb.ret(Some(Operand::int(0)));
        });
        let p = pb.finish();
        let errs = verify(&p);
        assert!(errs.iter().any(|e| e.message.contains("field index 7")));
    }

    #[test]
    fn aggregate_load_detected() {
        let mut pb = ProgramBuilder::new();
        let i64t = pb.scalar(ScalarKind::I64);
        let (_, rty) = pb.record("r", vec![Field::new("a", i64t)]);
        let f = pb.declare("f", vec![], i64t);
        pb.define(f, |fb| {
            let x = fb.alloc(rty, Operand::int(1));
            let _ = fb.load(x.into(), rty); // loading a whole record
            fb.ret(Some(Operand::int(0)));
        });
        let p = pb.finish();
        let errs = verify(&p);
        assert!(errs.iter().any(|e| e.message.contains("aggregate")));
    }

    #[test]
    fn empty_block_detected() {
        let mut p = Program::new();
        let void = p.types.void();
        p.add_func(Function {
            name: "f".into(),
            params: vec![],
            ret: void,
            kind: FuncKind::Defined,
            blocks: vec![BasicBlock { instrs: vec![] }],
            num_regs: 0,
            unit: 0,
        });
        let errs = verify(&p);
        assert!(errs.iter().any(|e| e.message.contains("empty")));
    }

    #[test]
    fn call_arity_mismatch_detected() {
        let mut pb = ProgramBuilder::new();
        let i64t = pb.scalar(ScalarKind::I64);
        let callee = pb.declare("callee", vec![i64t, i64t], i64t);
        pb.define(callee, |fb| {
            let s = fb.add(fb.param(0).into(), fb.param(1).into());
            fb.ret(Some(s.into()));
        });
        let f = pb.declare("main", vec![], i64t);
        pb.define(f, |fb| {
            let v = fb.call(callee, vec![Operand::int(1)]); // one arg short
            fb.ret(Some(v.into()));
        });
        let p = pb.finish();
        let errs = verify(&p);
        assert!(errs.iter().any(|e| e.message.contains("passes 1 args")));
    }

    #[test]
    fn icall_arg_type_arity_mismatch_detected() {
        let mut pb = ProgramBuilder::new();
        let i64t = pb.scalar(ScalarKind::I64);
        let f = pb.declare("main", vec![], i64t);
        pb.define(f, |fb| {
            let t = fb.func_addr(FuncId(0));
            let v = fb.call_indirect(t.into(), vec![Operand::int(1)], vec![]);
            fb.ret(Some(v.into()));
        });
        let p = pb.finish();
        let errs = verify(&p);
        assert!(errs
            .iter()
            .any(|e| e.message.contains("1 args with 0 declared types")));
    }

    #[test]
    fn return_mismatch_detected() {
        let mut pb = ProgramBuilder::new();
        let i64t = pb.scalar(ScalarKind::I64);
        let void = pb.void();
        let f = pb.declare("f", vec![], void);
        pb.define(f, |fb| fb.ret(Some(Operand::int(1))));
        let g = pb.declare("g", vec![], i64t);
        pb.define(g, |fb| fb.ret(None));
        let p = pb.finish();
        let errs = verify(&p);
        assert!(errs
            .iter()
            .any(|e| e.message.contains("void function returns a value")));
        assert!(errs
            .iter()
            .any(|e| e.message.contains("non-void function returns no value")));
    }

    #[test]
    fn unknown_cast_type_detected() {
        let mut p = Program::new();
        let i64t = p.types.scalar(ScalarKind::I64);
        p.add_func(Function {
            name: "f".into(),
            params: vec![],
            ret: i64t,
            kind: FuncKind::Defined,
            blocks: vec![BasicBlock {
                instrs: vec![
                    Instr::Cast {
                        dst: Reg(0),
                        src: Operand::int(0),
                        from: TypeId(88),
                        to: i64t,
                    },
                    Instr::Return {
                        value: Some(Operand::int(0)),
                    },
                ],
            }],
            num_regs: 1,
            unit: 0,
        });
        let errs = verify(&p);
        assert!(errs.iter().any(|e| e.message.contains("unknown type")));
    }

    #[test]
    fn misbound_params_detected() {
        let mut p = Program::new();
        let i64t = p.types.scalar(ScalarKind::I64);
        p.add_func(Function {
            name: "f".into(),
            params: vec![(Reg(3), i64t)],
            ret: i64t,
            kind: FuncKind::Defined,
            blocks: vec![BasicBlock {
                instrs: vec![Instr::Return {
                    value: Some(Operand::int(0)),
                }],
            }],
            num_regs: 4,
            unit: 0,
        });
        let errs = verify(&p);
        assert!(errs.iter().any(|e| e.message.contains("bound to r3")));
    }

    #[test]
    fn duplicate_global_name_detected() {
        let mut p = Program::new();
        let i64t = p.types.scalar(ScalarKind::I64);
        p.globals.push(crate::module::GlobalVar {
            name: "G".into(),
            ty: i64t,
        });
        p.globals.push(crate::module::GlobalVar {
            name: "G".into(),
            ty: i64t,
        });
        let errs = verify(&p);
        assert!(errs
            .iter()
            .any(|e| e.message.contains("duplicate global name")));
    }

    #[test]
    fn unknown_type_in_load() {
        let mut p = Program::new();
        let void = p.types.void();
        p.add_func(Function {
            name: "f".into(),
            params: vec![],
            ret: void,
            kind: FuncKind::Defined,
            blocks: vec![BasicBlock {
                instrs: vec![
                    Instr::Load {
                        dst: Reg(0),
                        addr: Operand::null(),
                        ty: TypeId(99),
                    },
                    Instr::Return { value: None },
                ],
            }],
            num_regs: 1,
            unit: 0,
        });
        let errs = verify(&p);
        assert!(errs.iter().any(|e| e.message.contains("unknown type")));
    }

    fn verify_src(src: &str) -> Vec<String> {
        let p = crate::parser::parse(src).expect("parses");
        verify(&p).into_iter().map(|e| e.message).collect()
    }

    const MAIN: &str = "func main() -> i64 {\nbb0:\n  ret 0\n}\n";

    #[test]
    fn layout_errors_are_verify_errors() {
        for (types, msg) in [
            (
                "record p { x: q }\nrecord q { y: p }",
                "record `p` contains itself by value (p -> q -> p)",
            ),
            (
                "record s { a: [i64; 4611686018427387904] }",
                "size of `[i64; 4611686018427387904]` overflows u64",
            ),
        ] {
            assert_eq!(
                verify_src(&format!("{types}\n{MAIN}")),
                vec![msg.to_string()]
            );
        }
    }

    #[test]
    fn bit_field_width_and_type_checked() {
        for (field, ok) in [
            ("u32:1", true),
            ("u32:32", true),
            ("i64:64", true),
            ("u8:8", true),
            ("i64:0", false),
            ("u8:9", false),
            ("u32:33", false),
            ("f64:3", false),
            ("ptr<i64>:3", false),
        ] {
            let errs = verify_src(&format!("record s {{ a: {field} }}\n{MAIN}"));
            assert_eq!(errs.is_empty(), ok, "{field}: {errs:?}");
            if !ok {
                assert!(errs[0].contains("bit-field `s.a`"), "{errs:?}");
            }
        }
    }
}
