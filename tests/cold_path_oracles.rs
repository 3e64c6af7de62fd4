//! The cold compile path against the code it replaced.
//!
//! `slo_analysis::util::reg_types` finds a pointer type by one probe of
//! the type table's intern map, and `slo_ir::printer` pushes `&str`
//! pieces and its own digits. The modules below keep the earlier forms:
//! a register typing that scans the whole type table for `ptr<T>`, and a
//! printer written through `write!`. Both sides must agree exactly on
//! every workload family, the example IR files, fuzz-generated programs
//! and hand-written edge cases.
//!
//! The last test bounds `analyze` on a program with thousands of record
//! types: the table scan made that quadratic.

use proptest::TestRng;
use slo::analysis::util::reg_types;
use slo::analysis::WeightScheme;
use slo::pipeline::{analyze, compile, PipelineConfig};
use slo_fuzz::{gen_program, GenConfig};
use slo_ir::parser::parse;
use slo_ir::printer::{print_instr, print_program};
use slo_ir::{
    BinOp, CmpOp, Const, Field, Instr, Operand, Program, ProgramBuilder, Reg, ScalarKind, Type,
    TypeId,
};
use slo_workloads::{art, casestudy, census, kernel, mcf, moldyn, InputSet, CENSUS_SPECS};

/// Register typing with a linear scan of the type table for each
/// pointer type.
mod scan {
    use super::*;

    fn ptr_to_existing(prog: &Program, pointee: TypeId) -> TypeId {
        for i in 0..prog.types.num_types() as u32 {
            if let Type::Ptr(inner) = prog.types.get(TypeId(i)) {
                if *inner == pointee {
                    return TypeId(i);
                }
            }
        }
        pointee
    }

    pub fn reg_types(prog: &Program, fid: slo_ir::FuncId) -> Vec<Option<TypeId>> {
        let f = prog.func(fid);
        let n = f.num_regs as usize;
        let mut tys: Vec<Option<TypeId>> = vec![None; n];
        let mut conflicted = vec![false; n];
        let assign = |tys: &mut Vec<Option<TypeId>>,
                      conflicted: &mut Vec<bool>,
                      r: Reg,
                      t: Option<TypeId>| {
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
        for _ in 0..2 {
            for (_, ins) in prog.instrs_of(fid) {
                let proposed: Option<(Reg, Option<TypeId>)> = match ins {
                    Instr::Cast { dst, to, .. } => Some((*dst, Some(*to))),
                    Instr::Load { dst, ty, .. } => Some((*dst, Some(*ty))),
                    Instr::Alloc { dst, elem, .. } | Instr::Realloc { dst, elem, .. } => {
                        Some((*dst, Some(ptr_to_existing(prog, *elem))))
                    }
                    Instr::FieldAddr {
                        dst, record, field, ..
                    } => prog
                        .types
                        .record(*record)
                        .fields
                        .get(*field as usize)
                        .map(|f| (*dst, Some(ptr_to_existing(prog, f.ty)))),
                    Instr::IndexAddr { dst, elem, .. } => {
                        Some((*dst, Some(ptr_to_existing(prog, *elem))))
                    }
                    Instr::LoadGlobal { dst, global } => {
                        Some((*dst, Some(prog.globals[global.index()].ty)))
                    }
                    Instr::AddrOfGlobal { dst, global } => Some((
                        *dst,
                        Some(ptr_to_existing(prog, prog.globals[global.index()].ty)),
                    )),
                    Instr::Call { dst, callee, .. } => {
                        dst.map(|d| (d, Some(prog.func(*callee).ret)))
                    }
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
}

/// The textual IR printer written through `fmt::Write`.
mod fmt_printer {
    use slo_ir::{FuncKind, Instr, Program, Type, TypeId, TypeTable};
    use std::fmt::{self, Display, Write as _};

    struct TypeText<'a>(&'a TypeTable, TypeId);

    impl Display for TypeText<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let TypeText(t, id) = *self;
            match t.get(id) {
                Type::Void => f.write_str("void"),
                Type::Scalar(k) => f.write_str(k.name()),
                Type::Ptr(inner) => write!(f, "ptr<{}>", TypeText(t, *inner)),
                Type::Record(r) => f.write_str(&t.record(*r).name),
                Type::Array(elem, n) => write!(f, "[{}; {n}]", TypeText(t, *elem)),
                Type::FuncPtr => f.write_str("fnptr"),
            }
        }
    }

    fn ty(p: &Program, t: TypeId) -> TypeText<'_> {
        TypeText(&p.types, t)
    }

    pub fn print_program(p: &Program) -> String {
        let mut out = String::new();
        write_program(&mut out, p).expect("writing to a String cannot fail");
        out
    }

    pub fn print_instr(p: &Program, ins: &Instr) -> String {
        let mut out = String::new();
        write_instr(&mut out, p, ins).expect("writing to a String cannot fail");
        out
    }

    fn write_program(out: &mut String, p: &Program) -> fmt::Result {
        for rid in p.types.record_ids() {
            let rec = p.types.record(rid);
            write!(out, "record {} {{ ", rec.name)?;
            for (i, f) in rec.fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write!(out, "{}: {}", f.name, ty(p, f.ty))?;
                if let Some(w) = f.bit_width {
                    write!(out, ":{w}")?;
                }
            }
            out.push_str(" }\n");
        }
        if p.types.num_records() > 0 {
            out.push('\n');
        }
        for gid in p.global_ids() {
            let g = p.global(gid);
            writeln!(out, "global {}: {}", g.name, ty(p, g.ty))?;
        }
        if !p.globals.is_empty() {
            out.push('\n');
        }
        for fid in p.func_ids() {
            let f = p.func(fid);
            match f.kind {
                FuncKind::External => out.push_str("extern "),
                FuncKind::Libc => out.push_str("libc "),
                FuncKind::Defined => {}
            }
            write!(out, "func {}(", f.name)?;
            write_list(out, f.params.iter().map(|(_, t)| ty(p, *t)))?;
            write!(out, ") -> {}", ty(p, f.ret))?;
            if f.kind != FuncKind::Defined {
                out.push('\n');
                continue;
            }
            out.push_str(" {\n");
            for bid in f.block_ids() {
                writeln!(out, "{bid}:")?;
                for ins in &f.block(bid).instrs {
                    out.push_str("  ");
                    write_instr(out, p, ins)?;
                    out.push('\n');
                }
            }
            out.push_str("}\n\n");
        }
        Ok(())
    }

    fn write_list(out: &mut String, items: impl IntoIterator<Item = impl Display>) -> fmt::Result {
        for (i, x) in items.into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(out, "{x}")?;
        }
        Ok(())
    }

    fn write_instr(out: &mut String, p: &Program, ins: &Instr) -> fmt::Result {
        match ins {
            Instr::Assign { dst, src } => write!(out, "{dst} = {src}"),
            Instr::Bin { dst, op, lhs, rhs } => {
                write!(out, "{dst} = {} {lhs}, {rhs}", op.name())
            }
            Instr::Cmp { dst, op, lhs, rhs } => {
                write!(out, "{dst} = cmp.{} {lhs}, {rhs}", op.name())
            }
            Instr::Cast { dst, src, from, to } => write!(
                out,
                "{dst} = cast {src} : {} -> {}",
                ty(p, *from),
                ty(p, *to)
            ),
            Instr::FieldAddr {
                dst,
                base,
                record,
                field,
            } => {
                let rec = p.types.record(*record);
                write!(
                    out,
                    "{dst} = fieldaddr {base}, {}.{}",
                    rec.name, rec.fields[*field as usize].name
                )
            }
            Instr::IndexAddr {
                dst,
                base,
                elem,
                index,
            } => write!(out, "{dst} = indexaddr {base}, {}, {index}", ty(p, *elem)),
            Instr::Load { dst, addr, ty: t } => {
                write!(out, "{dst} = load {addr} : {}", ty(p, *t))
            }
            Instr::Store { addr, value, ty: t } => {
                write!(out, "store {value}, {addr} : {}", ty(p, *t))
            }
            Instr::LoadGlobal { dst, global } => {
                write!(out, "{dst} = gload {}", p.global(*global).name)
            }
            Instr::StoreGlobal { global, value } => {
                write!(out, "gstore {value}, {}", p.global(*global).name)
            }
            Instr::AddrOfGlobal { dst, global } => {
                write!(out, "{dst} = gaddr {}", p.global(*global).name)
            }
            Instr::Alloc {
                dst,
                elem,
                count,
                zeroed,
            } => {
                let op = if *zeroed { "zalloc" } else { "alloc" };
                write!(out, "{dst} = {op} {}, {count}", ty(p, *elem))
            }
            Instr::Free { ptr } => write!(out, "free {ptr}"),
            Instr::Realloc {
                dst,
                ptr,
                elem,
                count,
            } => write!(out, "{dst} = realloc {ptr}, {}, {count}", ty(p, *elem)),
            Instr::Memcpy { dst, src, bytes } => write!(out, "memcpy {dst}, {src}, {bytes}"),
            Instr::Memset { dst, val, bytes } => write!(out, "memset {dst}, {val}, {bytes}"),
            Instr::Call { dst, callee, args } => {
                if let Some(d) = dst {
                    write!(out, "{d} = ")?;
                }
                write!(out, "call {}(", p.func(*callee).name)?;
                write_list(out, args)?;
                out.push(')');
                Ok(())
            }
            Instr::CallIndirect {
                dst,
                target,
                args,
                arg_types,
            } => {
                if let Some(d) = dst {
                    write!(out, "{d} = ")?;
                }
                write!(out, "icall {target}(")?;
                write_list(out, args)?;
                out.push_str(") : (");
                write_list(out, arg_types.iter().map(|t| ty(p, *t)))?;
                out.push(')');
                Ok(())
            }
            Instr::FuncAddr { dst, func } => {
                write!(out, "{dst} = fnaddr {}", p.func(*func).name)
            }
            Instr::Jump { target } => write!(out, "jump {target}"),
            Instr::Branch {
                cond,
                then_bb,
                else_bb,
            } => write!(out, "br {cond}, {then_bb}, {else_bb}"),
            Instr::Return { value } => match value {
                Some(v) => write!(out, "ret {v}"),
                None => write!(out, "ret"),
            },
        }
    }
}

/// Both printers and both register typings agree on `p`, and the type
/// table's pointer lookup matches the scan for every type.
fn check(label: &str, p: &Program) {
    assert_eq!(
        print_program(p),
        fmt_printer::print_program(p),
        "{label}: printed program"
    );
    for fid in p.func_ids() {
        for (at, ins) in p.instrs_of(fid) {
            assert_eq!(
                print_instr(p, ins),
                fmt_printer::print_instr(p, ins),
                "{label}: instruction at {at}"
            );
        }
        if p.func(fid).kind == slo_ir::FuncKind::Defined {
            assert_eq!(
                reg_types(p, fid),
                scan::reg_types(p, fid),
                "{label}: register types of `{}`",
                p.func(fid).name
            );
        }
    }
    for i in 0..p.types.num_types() as u32 {
        let t = TypeId(i);
        let scanned = (0..p.types.num_types() as u32)
            .map(TypeId)
            .find(|&q| *p.types.get(q) == Type::Ptr(t));
        assert_eq!(p.types.ptr_id(t), scanned, "{label}: ptr_id({t})");
    }
}

#[test]
fn workload_families_match_the_reference() {
    let mut progs: Vec<(String, Program)> = Vec::new();
    for input in [InputSet::Training, InputSet::Reference] {
        progs.push((format!("mcf/{input:?}"), mcf::build(input)));
        progs.push((format!("art/{input:?}"), art::build(input)));
        progs.push((format!("moldyn/{input:?}"), moldyn::build(input)));
    }
    for scale in 1..=3 {
        for spec in &CENSUS_SPECS {
            progs.push((
                format!("census {} x{scale}", spec.name),
                census::generate(spec, scale),
            ));
        }
    }
    progs.push(("casestudy c++".into(), casestudy::spec2006_cpp(64, 2)));
    progs.push(("casestudy c".into(), casestudy::spec2006_c(64, 2, true)));
    progs.push(("kernel".into(), kernel::build(64, 8)));
    // The transform adds record and pointer types; the rewritten
    // programs are typed again when they are analyzed.
    let cfg = PipelineConfig::default();
    let transformed: Vec<(String, Program)> = progs
        .iter()
        .filter(|(label, _)| !label.starts_with("census"))
        .map(|(label, p)| {
            let out = compile(p, &WeightScheme::Ispbo, &cfg).expect("compile");
            (format!("{label} transformed"), out.program)
        })
        .collect();
    for (label, p) in progs.iter().chain(&transformed) {
        check(label, p);
    }
}

#[test]
fn example_ir_files_match_the_reference() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/ir");
    let mut n = 0;
    for entry in std::fs::read_dir(dir).expect("examples/ir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "sir") {
            let src = std::fs::read_to_string(&path).expect("read .sir");
            check(&path.display().to_string(), &parse(&src).expect("parse"));
            n += 1;
        }
    }
    assert!(n >= 2, "expected the example IR files, found {n}");
}

#[test]
fn fuzz_programs_match_the_reference() {
    let cfg = GenConfig::default();
    for seed in 0..500 {
        let p = gen_program(&mut TestRng::from_seed(seed), &cfg);
        check(&format!("fuzz seed {seed}"), &p);
    }
}

/// Records `node { v: i64, next: ptr<node>, flags: u32:3, arr: [i32; 4],
/// f: fnptr }` and one function touching every operand kind and
/// instruction form. With `interned`, a global of type `ptr<ptr<node>>`
/// makes that pointer type exist, so `fieldaddr` of `next` types its
/// result `ptr<ptr<node>>`; without, it falls back to `ptr<node>`.
fn hand_program(interned: bool) -> Program {
    let mut pb = ProgramBuilder::new();
    let i64t = pb.scalar(ScalarKind::I64);
    let i32t = pb.scalar(ScalarKind::I32);
    let u32t = pb.scalar(ScalarKind::U32);
    let f64t = pb.scalar(ScalarKind::F64);
    let fnp = pb.func_ptr();
    let arr = pb.array(i32t, 4);
    let (rid, rty) = pb.record_fwd("node");
    let pnode = pb.ptr(rty);
    pb.complete_record(
        rid,
        vec![
            Field::new("v", i64t),
            Field::new("next", pnode),
            Field::bitfield("flags", u32t, 3),
            Field::new("arr", arr),
            Field::new("f", fnp),
        ],
    );
    let g = pb.global("G", pnode);
    let big = pb.global("BIG", arr);
    if interned {
        let ppnode = pb.ptr(pnode);
        pb.global("PP", ppnode);
    }
    let helper = pb.declare("helper", vec![i64t, f64t], i64t);
    pb.define(helper, |fb| {
        let a = fb.param(0);
        fb.ret(Some(a.into()));
    });
    let ext = pb.external("mystery", vec![i64t], i64t);
    let main = pb.declare("main", vec![], i64t);
    pb.define(main, |fb| {
        let n = fb.alloc(rty, Operand::int(0));
        let next = fb.field_addr(n.into(), rid, 1);
        let v = fb.field_addr(n.into(), rid, 0);
        fb.store(v.into(), Operand::int(i64::MIN), i64t);
        fb.store(v.into(), Operand::int(-1), i64t);
        fb.store(v.into(), Operand::int(0), i64t);
        fb.store(v.into(), Operand::int(i64::MAX), i64t);
        fb.store(next.into(), Operand::Const(Const::Null), pnode);
        let nn = fb.load(next.into(), pnode);
        let copy = fb.fresh();
        fb.push(Instr::Assign {
            dst: copy,
            src: nn.into(),
        });
        let ga = fb.addr_of_global(g);
        let ba = fb.addr_of_global(big);
        let e = fb.index_addr(ba, i32t, Operand::int(-3));
        fb.store(e.into(), Operand::int(7), i32t);
        let gl = fb.load_global(g);
        fb.store_global(g, gl.into());
        for x in [-0.0, 0.0, 1e300, -1e-300, 0.1, f64::MIN_POSITIVE, 2.5e15] {
            let r = fb.fresh();
            fb.push(Instr::Bin {
                dst: r,
                op: BinOp::Mul,
                lhs: Operand::Const(Const::Float(x)),
                rhs: Operand::float(x),
            });
        }
        let c = fb.fresh();
        fb.push(Instr::Cmp {
            dst: c,
            op: CmpOp::Lt,
            lhs: Operand::int(-9),
            rhs: ga.into(),
        });
        let cast = fb.cast(c.into(), i64t, f64t);
        let fp = fb.func_addr(helper);
        let f = fb.field_addr(n.into(), rid, 4);
        fb.store(f.into(), fp.into(), fnp);
        let r = fb.call_indirect(
            fp.into(),
            vec![Operand::int(1), cast.into()],
            vec![i64t, f64t],
        );
        fb.push(Instr::CallIndirect {
            dst: None,
            target: fp.into(),
            args: vec![],
            arg_types: vec![],
        });
        fb.call(helper, vec![r.into(), Operand::float(-0.0)]);
        fb.call_void(ext, vec![Operand::int(42)]);
        let m = fb.calloc(i64t, Operand::int(3));
        let m2 = fb.fresh();
        fb.push(Instr::Realloc {
            dst: m2,
            ptr: m.into(),
            elem: i64t,
            count: Operand::int(6),
        });
        fb.memcpy(m2.into(), m.into(), Operand::int(24));
        fb.memset(m2.into(), Operand::int(0), Operand::int(48));
        fb.push(Instr::Free { ptr: m2.into() });
        fb.count_loop(Operand::int(1_000_000_007), |fb, i| {
            fb.add(i.into(), Operand::int(-1));
        });
        fb.ret(Some(Operand::int(0)));
    });
    let void = pb.void();
    let quit = pb.declare("quit", vec![], void);
    pb.define(quit, |fb| fb.ret(None));
    pb.finish()
}

#[test]
fn hand_cases_match_the_reference() {
    for interned in [false, true] {
        let p = hand_program(interned);
        check(&format!("hand, interned {interned}"), &p);
        let text = print_program(&p);
        for want in [
            "-9223372036854775808",
            "9223372036854775807",
            "store -1, ",
            "-0.0",
            "1e300",
            "null",
            "[i32; 4]",
            "fnptr",
            "flags: u32:3",
            "icall ",
            ") : ()",
            "zalloc i64, 3",
            "ret\n",
        ] {
            assert!(text.contains(want), "interned {interned}: `{want}` missing");
        }
        // `next`'s address is a pointer to `next`'s type only when that
        // pointer type exists in the table.
        let main = p.main().expect("main");
        let node = p.types.record_by_name("node").expect("node");
        let pnode = p
            .types
            .ptr_id(p.types.record_type_id(node).expect("node type"));
        let next_ty = reg_types(&p, main)[1].expect("r1 typed");
        if interned {
            assert_eq!(p.types.get(next_ty), &Type::Ptr(pnode.expect("ptr<node>")));
        } else {
            assert_eq!(Some(next_ty), pnode);
        }
    }
}

/// `fieldaddr`s in each function of [`many_records`].
const HOPS: usize = 8;

/// `n` record types `rN { v: i64, next: ptr<rN> }`, each walked by its own
/// function, which follows `next` [`HOPS`] times. `ptr<ptr<rN>>` does not
/// exist, so each `fieldaddr` made the old lookup scan all ~2n types.
fn many_records(n: usize) -> Program {
    let mut pb = ProgramBuilder::new();
    let i64t = pb.scalar(ScalarKind::I64);
    let main = pb.declare("main", vec![], i64t);
    let mut funcs = Vec::with_capacity(n);
    for i in 0..n {
        let (rid, rty) = pb.record_fwd(format!("r{i}"));
        let p = pb.ptr(rty);
        pb.complete_record(rid, vec![Field::new("v", i64t), Field::new("next", p)]);
        let f = pb.declare(format!("f{i}"), vec![p], p);
        pb.define(f, |fb| {
            let mut node = fb.param(0);
            for _ in 0..HOPS {
                let a = fb.field_addr(node.into(), rid, 1);
                node = fb.load(a.into(), p);
            }
            fb.ret(Some(node.into()));
        });
        funcs.push((f, rty));
    }
    pb.define(main, |fb| {
        for &(f, rty) in &funcs {
            let x = fb.alloc(rty, Operand::int(1));
            fb.call(f, vec![x.into()]);
        }
        fb.ret(Some(Operand::int(0)));
    });
    pb.finish()
}

/// In a debug test build on a 2-vCPU host, `analyze` here took
/// 0.6–0.75 s with the intern-map probe and 32 s with the table scan: the
/// bound sits above the one with room for a slow host, and more than
/// ten times below the other.
#[test]
fn analyze_is_linear_in_record_types() {
    let p = many_records(8_000);
    assert!(p.types.num_types() > 16_000);
    let t = std::time::Instant::now();
    let a = analyze(&p, &WeightScheme::Ispbo, &PipelineConfig::default());
    let took = t.elapsed();
    std::hint::black_box(a);
    assert!(
        took.as_secs_f64() < 3.0,
        "analyze on 8,000 record types took {took:?}"
    );
}
