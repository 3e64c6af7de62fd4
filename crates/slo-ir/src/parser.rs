//! Parser for the textual IR syntax emitted by [`crate::printer`].
//!
//! The grammar (informally):
//!
//! ```text
//! program  := item*
//! item     := record | global | extern | libc | func
//! record   := "record" NAME "{" field ("," field)* "}"
//! field    := NAME ":" type (":" INT)?          // optional bit width
//! global   := "global" NAME ":" type
//! extern   := "extern" sig
//! libc     := "libc" sig
//! func     := sig "{" block+ "}"
//! sig      := "func" NAME "(" (type ("," type)*)? ")" "->" type
//! block    := LABEL ":" instr+
//! type     := "void" | scalar | "fnptr" | "ptr" "<" type ">"
//!           | "[" type ";" INT "]" | NAME
//! ```
//!
//! Instruction syntax matches the printer exactly; see the module tests
//! and `printer.rs` for examples.

use crate::instr::{BinOp, BlockId, CmpOp, Const, FuncId, Instr, Operand, Reg};
use crate::module::{BasicBlock, FuncKind, Function, GlobalVar, Program};
use crate::types::{Field, RecordType, ScalarKind, TypeId};
use std::collections::HashMap;
use std::fmt;

/// A parse failure with a 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending token.
    pub line: u32,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

type PResult<T> = Result<T, ParseError>;

/// A token. Identifiers borrow from the source text, so lexing and
/// looking ahead allocate nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Int(i64),
    Float(f64),
    LBrace,
    RBrace,
    LParen,
    RParen,
    LAngle,
    RAngle,
    LBrack,
    RBrack,
    Comma,
    Colon,
    Semi,
    Arrow,
    Eq,
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int(v) => write!(f, "`{v}`"),
            Tok::Float(v) => write!(f, "`{v}`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LAngle => write!(f, "`<`"),
            Tok::RAngle => write!(f, "`>`"),
            Tok::LBrack => write!(f, "`[`"),
            Tok::RBrack => write!(f, "`]`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Colon => write!(f, "`:`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Arrow => write!(f, "`->`"),
            Tok::Eq => write!(f, "`=`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

fn lex(src: &str) -> PResult<Vec<(Tok<'_>, u32)>> {
    let mut toks = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut line = 1u32;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '{' => {
                toks.push((Tok::LBrace, line));
                i += 1;
            }
            '}' => {
                toks.push((Tok::RBrace, line));
                i += 1;
            }
            '(' => {
                toks.push((Tok::LParen, line));
                i += 1;
            }
            ')' => {
                toks.push((Tok::RParen, line));
                i += 1;
            }
            '<' => {
                toks.push((Tok::LAngle, line));
                i += 1;
            }
            '>' => {
                toks.push((Tok::RAngle, line));
                i += 1;
            }
            '[' => {
                toks.push((Tok::LBrack, line));
                i += 1;
            }
            ']' => {
                toks.push((Tok::RBrack, line));
                i += 1;
            }
            ',' => {
                toks.push((Tok::Comma, line));
                i += 1;
            }
            ':' => {
                toks.push((Tok::Colon, line));
                i += 1;
            }
            ';' => {
                toks.push((Tok::Semi, line));
                i += 1;
            }
            '=' => {
                toks.push((Tok::Eq, line));
                i += 1;
            }
            '-' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    toks.push((Tok::Arrow, line));
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit() {
                    let (tok, ni) = lex_number(src, i, line)?;
                    toks.push((tok, line));
                    i = ni;
                } else {
                    return Err(ParseError {
                        line,
                        message: "unexpected `-`".into(),
                    });
                }
            }
            c if c.is_ascii_digit() => {
                let (tok, ni) = lex_number(src, i, line)?;
                toks.push((tok, line));
                i = ni;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let ch = bytes[i] as char;
                    if ch.is_ascii_alphanumeric() || ch == '_' || ch == '.' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                toks.push((Tok::Ident(&src[start..i]), line));
            }
            other => {
                return Err(ParseError {
                    line,
                    message: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    toks.push((Tok::Eof, line));
    Ok(toks)
}

fn lex_number(src: &str, start: usize, line: u32) -> PResult<(Tok<'_>, usize)> {
    let bytes = src.as_bytes();
    let mut i = start;
    if bytes[i] == b'-' {
        i += 1;
    }
    let mut is_float = false;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    if i < bytes.len() && bytes[i] == b'.' && i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit() {
        is_float = true;
        i += 1;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
    }
    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
        let mut j = i + 1;
        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
            j += 1;
        }
        if j < bytes.len() && bytes[j].is_ascii_digit() {
            is_float = true;
            i = j;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
    }
    let text = &src[start..i];
    let tok = if is_float {
        Tok::Float(text.parse().map_err(|_| ParseError {
            line,
            message: format!("bad float literal `{text}`"),
        })?)
    } else {
        Tok::Int(text.parse().map_err(|_| ParseError {
            line,
            message: format!("bad integer literal `{text}`"),
        })?)
    };
    Ok((tok, i))
}

/// Deepest nesting of `ptr<…>` and `[…; n]` a type may have.
const MAX_TYPE_DEPTH: u32 = 256;

struct Parser<'a> {
    toks: Vec<(Tok<'a>, u32)>,
    pos: usize,
    prog: Program,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Tok<'a> {
        self.toks[self.pos].0
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].1
    }

    fn bump(&mut self) -> Tok<'a> {
        let t = self.toks[self.pos].0;
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> PResult<T> {
        Err(ParseError {
            line: self.line(),
            message: msg.into(),
        })
    }

    fn expect(&mut self, t: Tok<'_>) -> PResult<()> {
        if self.peek() == t {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {t}, found {}", self.peek()))
        }
    }

    fn ident(&mut self) -> PResult<&'a str> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => {
                self.pos -= 1;
                self.err(format!("expected identifier, found {other}"))
            }
        }
    }

    fn int(&mut self) -> PResult<i64> {
        match self.bump() {
            Tok::Int(v) => Ok(v),
            other => {
                self.pos -= 1;
                self.err(format!("expected integer, found {other}"))
            }
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if s == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    // ---- types -----------------------------------------------------------

    fn parse_type(&mut self) -> PResult<TypeId> {
        self.parse_type_at(0)
    }

    /// Parse a type nested `depth` levels inside pointer and array
    /// brackets. The bound keeps this parser and every walk over the
    /// resulting type (printing, pointee lookups) off deep stacks.
    fn parse_type_at(&mut self, depth: u32) -> PResult<TypeId> {
        if depth == MAX_TYPE_DEPTH {
            return self.err(format!("type nested deeper than {MAX_TYPE_DEPTH} levels"));
        }
        match self.bump() {
            Tok::Ident(name) => {
                if name == "void" {
                    return Ok(self.prog.types.void());
                }
                if name == "fnptr" {
                    return Ok(self.prog.types.func_ptr());
                }
                if let Some(k) = ScalarKind::from_name(name) {
                    return Ok(self.prog.types.scalar(k));
                }
                if name == "ptr" {
                    self.expect(Tok::LAngle)?;
                    let inner = self.parse_type_at(depth + 1)?;
                    self.expect(Tok::RAngle)?;
                    return Ok(self.prog.types.ptr(inner));
                }
                match self.prog.types.record_by_name(name) {
                    Some(rid) => Ok(self
                        .prog
                        .types
                        .record_type_id(rid)
                        .expect("registered record has a type id")),
                    None => self.err(format!("unknown type `{name}`")),
                }
            }
            Tok::LBrack => {
                let elem = self.parse_type_at(depth + 1)?;
                self.expect(Tok::Semi)?;
                let n = self.int()?;
                self.expect(Tok::RBrack)?;
                if n < 0 {
                    return self.err("negative array length");
                }
                Ok(self.prog.types.array(elem, n as u64))
            }
            other => {
                self.pos -= 1;
                self.err(format!("expected type, found {other}"))
            }
        }
    }

    // ---- operands ---------------------------------------------------------

    fn reg_of(name: &str) -> Option<Reg> {
        let rest = name.strip_prefix('r')?;
        if rest.is_empty() || !rest.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        rest.parse().ok().map(Reg)
    }

    fn block_of(name: &str) -> Option<u32> {
        let rest = name.strip_prefix("bb")?;
        if rest.is_empty() || !rest.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        rest.parse().ok()
    }

    fn parse_operand(&mut self) -> PResult<Operand> {
        match self.bump() {
            Tok::Int(v) => Ok(Operand::Const(Const::Int(v))),
            Tok::Float(v) => Ok(Operand::Const(Const::Float(v))),
            Tok::Ident("null") => Ok(Operand::Const(Const::Null)),
            Tok::Ident(s) => match Self::reg_of(s) {
                Some(r) => Ok(Operand::Reg(r)),
                None => {
                    self.pos -= 1;
                    self.err(format!("expected operand, found `{s}`"))
                }
            },
            other => {
                self.pos -= 1;
                self.err(format!("expected operand, found {other}"))
            }
        }
    }

    fn parse_block_ref(&mut self) -> PResult<BlockId> {
        let name = self.ident()?;
        match Self::block_of(name) {
            Some(n) => Ok(BlockId(n)),
            None => self.err(format!("expected block label, found `{name}`")),
        }
    }

    // ---- top level --------------------------------------------------------

    fn skip_balanced_braces(&mut self) -> PResult<()> {
        self.expect(Tok::LBrace)?;
        let mut depth = 1;
        loop {
            match self.bump() {
                Tok::LBrace => depth += 1,
                Tok::RBrace => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(());
                    }
                }
                Tok::Eof => return self.err("unbalanced `{`"),
                _ => {}
            }
        }
    }
}

/// Parse a textual IR program.
///
/// # Errors
///
/// Returns a [`ParseError`] with line information on the first syntax or
/// reference error.
pub fn parse(src: &str) -> PResult<Program> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        prog: Program::new(),
    };

    // Pass A: register record names (forward references).
    for pair in p.toks.windows(2) {
        if let [(Tok::Ident("record"), _), (Tok::Ident(name), line)] = *pair {
            if p.prog.types.record_by_name(name).is_some() {
                return Err(ParseError {
                    line,
                    message: format!("duplicate record `{name}`"),
                });
            }
            p.prog.types.add_record(RecordType {
                name: name.to_string(),
                fields: vec![],
            });
        }
    }

    // Pass B: records, globals, signatures; remember body spans.
    let mut bodies: Vec<(FuncId, usize)> = Vec::new(); // (func, token pos of '{')
    loop {
        match p.peek() {
            Tok::Eof => break,
            Tok::Ident("record") => {
                p.bump();
                let name = p.ident()?;
                let rid = p
                    .prog
                    .types
                    .record_by_name(name)
                    .expect("pre-registered in pass A");
                p.expect(Tok::LBrace)?;
                let mut fields = Vec::new();
                if p.peek() != Tok::RBrace {
                    loop {
                        let fname = p.ident()?;
                        p.expect(Tok::Colon)?;
                        let fty = p.parse_type()?;
                        let bw = if p.peek() == Tok::Colon {
                            p.bump();
                            let w = p.int()?;
                            match u8::try_from(w) {
                                Ok(w) => Some(w),
                                Err(_) => {
                                    return p.err(format!("bit-field width {w} out of range"))
                                }
                            }
                        } else {
                            None
                        };
                        fields.push(Field {
                            name: fname.to_string(),
                            ty: fty,
                            bit_width: bw,
                        });
                        if p.peek() == Tok::Comma {
                            p.bump();
                        } else {
                            break;
                        }
                    }
                }
                p.expect(Tok::RBrace)?;
                p.prog.types.replace_record(
                    rid,
                    RecordType {
                        name: name.to_string(),
                        fields,
                    },
                );
            }
            Tok::Ident("global") => {
                p.bump();
                let name = p.ident()?;
                p.expect(Tok::Colon)?;
                let ty = p.parse_type()?;
                if p.prog.global_by_name(name).is_some() {
                    return p.err(format!("duplicate global `{name}`"));
                }
                p.prog.add_global(GlobalVar {
                    name: name.to_string(),
                    ty,
                });
            }
            Tok::Ident(kw) if kw == "extern" || kw == "libc" || kw == "func" => {
                let kind = match kw {
                    "extern" => {
                        p.bump();
                        if !p.eat_kw("func") {
                            return p.err("expected `func` after `extern`");
                        }
                        FuncKind::External
                    }
                    "libc" => {
                        p.bump();
                        if !p.eat_kw("func") {
                            return p.err("expected `func` after `libc`");
                        }
                        FuncKind::Libc
                    }
                    _ => {
                        p.bump();
                        FuncKind::Defined
                    }
                };
                let name = p.ident()?;
                p.expect(Tok::LParen)?;
                let mut params = Vec::new();
                if p.peek() != Tok::RParen {
                    loop {
                        params.push(p.parse_type()?);
                        if p.peek() == Tok::Comma {
                            p.bump();
                        } else {
                            break;
                        }
                    }
                }
                p.expect(Tok::RParen)?;
                p.expect(Tok::Arrow)?;
                let ret = p.parse_type()?;
                if p.prog.func_by_name(name).is_some() {
                    return p.err(format!("duplicate function `{name}`"));
                }
                let param_regs: Vec<(Reg, TypeId)> = params
                    .iter()
                    .enumerate()
                    .map(|(i, t)| (Reg(i as u32), *t))
                    .collect();
                let nparams = param_regs.len() as u32;
                let fid = p.prog.add_func(Function {
                    name: name.to_string(),
                    params: param_regs,
                    ret,
                    kind,
                    blocks: vec![],
                    num_regs: nparams,
                    unit: 0,
                });
                if kind == FuncKind::Defined {
                    bodies.push((fid, p.pos));
                    p.skip_balanced_braces()?;
                }
            }
            other => return p.err(format!("expected item, found {other}")),
        }
    }

    // Pass C: function bodies.
    for (fid, brace_pos) in bodies {
        p.pos = brace_pos;
        parse_body(&mut p, fid)?;
    }

    Ok(p.prog)
}

fn parse_body(p: &mut Parser, fid: FuncId) -> PResult<()> {
    p.expect(Tok::LBrace)?;
    let mut blocks: Vec<BasicBlock> = Vec::new();
    let mut label_map: HashMap<u32, usize> = HashMap::new(); // label number -> index
    let mut max_reg: u32 = p.prog.func(fid).num_regs;
    let mut max_label_ref: Vec<(u32, u32)> = Vec::new(); // (label, line) referenced

    let mut cur: Option<usize> = None;
    loop {
        match p.peek() {
            Tok::RBrace => {
                p.bump();
                break;
            }
            Tok::Ident(s) => {
                // label?
                if let Some(n) = Parser::block_of(s) {
                    if p.toks[p.pos + 1].0 == Tok::Colon {
                        p.bump();
                        p.bump();
                        if label_map.contains_key(&n) {
                            return p.err(format!("duplicate label bb{n}"));
                        }
                        if n as usize != blocks.len() {
                            return p.err(format!(
                                "label bb{n} out of order (expected bb{})",
                                blocks.len()
                            ));
                        }
                        label_map.insert(n, blocks.len());
                        blocks.push(BasicBlock::default());
                        cur = Some(blocks.len() - 1);
                        continue;
                    }
                }
                let Some(cb) = cur else {
                    return p.err("instruction before first block label");
                };
                let line = p.line();
                let ins = parse_instr(p)?;
                if let Some(Reg(r)) = ins.def() {
                    max_reg = max_reg.max(r + 1);
                }
                ins.for_each_use(|u| {
                    if let Operand::Reg(Reg(r)) = u {
                        max_reg = max_reg.max(r + 1);
                    }
                });
                max_label_ref.extend(ins.successors().map(|s| (s.0, line)));
                blocks[cb].instrs.push(ins);
            }
            other => return p.err(format!("expected instruction or `}}`, found {other}")),
        }
    }

    for (lbl, line) in max_label_ref {
        if !label_map.contains_key(&lbl) {
            return Err(ParseError {
                line,
                message: format!("jump to undefined label bb{lbl}"),
            });
        }
    }
    if blocks.is_empty() {
        return p.err(format!(
            "function `{}` has an empty body",
            p.prog.func(fid).name
        ));
    }

    let f = p.prog.func_mut(fid);
    f.blocks = blocks;
    f.num_regs = max_reg;
    Ok(())
}

fn parse_instr(p: &mut Parser) -> PResult<Instr> {
    let first = p.ident()?;

    // Instructions with a destination: `rN = ...`
    if let Some(dst) = Parser::reg_of(first) {
        if p.peek() == Tok::Eq {
            p.bump();
            return parse_rhs(p, dst);
        }
        return p.err("expected `=` after register");
    }

    match first {
        "store" => {
            let value = p.parse_operand()?;
            p.expect(Tok::Comma)?;
            let addr = p.parse_operand()?;
            p.expect(Tok::Colon)?;
            let ty = p.parse_type()?;
            Ok(Instr::Store { addr, value, ty })
        }
        "gstore" => {
            let value = p.parse_operand()?;
            p.expect(Tok::Comma)?;
            let gname = p.ident()?;
            let global = p.prog.global_by_name(gname).ok_or_else(|| ParseError {
                line: p.line(),
                message: format!("unknown global `{gname}`"),
            })?;
            Ok(Instr::StoreGlobal { global, value })
        }
        "free" => {
            let ptr = p.parse_operand()?;
            Ok(Instr::Free { ptr })
        }
        "memcpy" => {
            let dst = p.parse_operand()?;
            p.expect(Tok::Comma)?;
            let src = p.parse_operand()?;
            p.expect(Tok::Comma)?;
            let bytes = p.parse_operand()?;
            Ok(Instr::Memcpy { dst, src, bytes })
        }
        "memset" => {
            let dst = p.parse_operand()?;
            p.expect(Tok::Comma)?;
            let val = p.parse_operand()?;
            p.expect(Tok::Comma)?;
            let bytes = p.parse_operand()?;
            Ok(Instr::Memset { dst, val, bytes })
        }
        "call" => {
            let (callee, args) = parse_call_tail(p)?;
            Ok(Instr::Call {
                dst: None,
                callee,
                args,
            })
        }
        "icall" => {
            let (target, args, arg_types) = parse_icall_tail(p)?;
            Ok(Instr::CallIndirect {
                dst: None,
                target,
                args,
                arg_types,
            })
        }
        "jump" => {
            let target = p.parse_block_ref()?;
            Ok(Instr::Jump { target })
        }
        "br" => {
            let cond = p.parse_operand()?;
            p.expect(Tok::Comma)?;
            let then_bb = p.parse_block_ref()?;
            p.expect(Tok::Comma)?;
            let else_bb = p.parse_block_ref()?;
            Ok(Instr::Branch {
                cond,
                then_bb,
                else_bb,
            })
        }
        "ret" => {
            // `ret` may be followed by an operand or by the next
            // label/instruction/`}` — look ahead.
            let value = match p.peek() {
                Tok::Int(_) | Tok::Float(_) => Some(p.parse_operand()?),
                Tok::Ident(s) => {
                    let is_operand = s == "null"
                        || (Parser::reg_of(s).is_some() && p.toks[p.pos + 1].0 != Tok::Eq);
                    if is_operand {
                        Some(p.parse_operand()?)
                    } else {
                        None
                    }
                }
                _ => None,
            };
            Ok(Instr::Return { value })
        }
        other => p.err(format!("unknown instruction `{other}`")),
    }
}

fn parse_rhs(p: &mut Parser, dst: Reg) -> PResult<Instr> {
    // plain operand (Assign) or mnemonic
    match p.peek() {
        Tok::Int(_) | Tok::Float(_) => {
            let src = p.parse_operand()?;
            Ok(Instr::Assign { dst, src })
        }
        Tok::Ident(name) => {
            if name == "null" || Parser::reg_of(name).is_some() {
                let src = p.parse_operand()?;
                return Ok(Instr::Assign { dst, src });
            }
            p.bump();
            if let Some(op) = BinOp::from_name(name) {
                let lhs = p.parse_operand()?;
                p.expect(Tok::Comma)?;
                let rhs = p.parse_operand()?;
                return Ok(Instr::Bin { dst, op, lhs, rhs });
            }
            if let Some(rest) = name.strip_prefix("cmp.") {
                let op = CmpOp::from_name(rest).ok_or_else(|| ParseError {
                    line: p.line(),
                    message: format!("unknown comparison `{rest}`"),
                })?;
                let lhs = p.parse_operand()?;
                p.expect(Tok::Comma)?;
                let rhs = p.parse_operand()?;
                return Ok(Instr::Cmp { dst, op, lhs, rhs });
            }
            match name {
                "cast" => {
                    let src = p.parse_operand()?;
                    p.expect(Tok::Colon)?;
                    let from = p.parse_type()?;
                    p.expect(Tok::Arrow)?;
                    let to = p.parse_type()?;
                    Ok(Instr::Cast { dst, src, from, to })
                }
                "fieldaddr" => {
                    let base = p.parse_operand()?;
                    p.expect(Tok::Comma)?;
                    let path = p.ident()?; // "record.field"
                    let Some((rname, fname)) = path.split_once('.') else {
                        return p.err(format!("expected record.field, found `{path}`"));
                    };
                    let rid = p
                        .prog
                        .types
                        .record_by_name(rname)
                        .ok_or_else(|| ParseError {
                            line: p.line(),
                            message: format!("unknown record `{rname}`"),
                        })?;
                    let field =
                        p.prog
                            .types
                            .record(rid)
                            .field_index(fname)
                            .ok_or_else(|| ParseError {
                                line: p.line(),
                                message: format!("unknown field `{rname}.{fname}`"),
                            })?;
                    Ok(Instr::FieldAddr {
                        dst,
                        base,
                        record: rid,
                        field: field as u32,
                    })
                }
                "indexaddr" => {
                    let base = p.parse_operand()?;
                    p.expect(Tok::Comma)?;
                    let elem = p.parse_type()?;
                    p.expect(Tok::Comma)?;
                    let index = p.parse_operand()?;
                    Ok(Instr::IndexAddr {
                        dst,
                        base,
                        elem,
                        index,
                    })
                }
                "load" => {
                    let addr = p.parse_operand()?;
                    p.expect(Tok::Colon)?;
                    let ty = p.parse_type()?;
                    Ok(Instr::Load { dst, addr, ty })
                }
                "gload" => {
                    let gname = p.ident()?;
                    let global = p.prog.global_by_name(gname).ok_or_else(|| ParseError {
                        line: p.line(),
                        message: format!("unknown global `{gname}`"),
                    })?;
                    Ok(Instr::LoadGlobal { dst, global })
                }
                "gaddr" => {
                    let gname = p.ident()?;
                    let global = p.prog.global_by_name(gname).ok_or_else(|| ParseError {
                        line: p.line(),
                        message: format!("unknown global `{gname}`"),
                    })?;
                    Ok(Instr::AddrOfGlobal { dst, global })
                }
                "alloc" | "zalloc" => {
                    let elem = p.parse_type()?;
                    p.expect(Tok::Comma)?;
                    let count = p.parse_operand()?;
                    Ok(Instr::Alloc {
                        dst,
                        elem,
                        count,
                        zeroed: name == "zalloc",
                    })
                }
                "realloc" => {
                    let ptr = p.parse_operand()?;
                    p.expect(Tok::Comma)?;
                    let elem = p.parse_type()?;
                    p.expect(Tok::Comma)?;
                    let count = p.parse_operand()?;
                    Ok(Instr::Realloc {
                        dst,
                        ptr,
                        elem,
                        count,
                    })
                }
                "call" => {
                    let (callee, args) = parse_call_tail(p)?;
                    Ok(Instr::Call {
                        dst: Some(dst),
                        callee,
                        args,
                    })
                }
                "icall" => {
                    let (target, args, arg_types) = parse_icall_tail(p)?;
                    Ok(Instr::CallIndirect {
                        dst: Some(dst),
                        target,
                        args,
                        arg_types,
                    })
                }
                "fnaddr" => {
                    let fname = p.ident()?;
                    let func = p.prog.func_by_name(fname).ok_or_else(|| ParseError {
                        line: p.line(),
                        message: format!("unknown function `{fname}`"),
                    })?;
                    Ok(Instr::FuncAddr { dst, func })
                }
                other => p.err(format!("unknown instruction `{other}`")),
            }
        }
        other => p.err(format!("expected right-hand side, found {other}")),
    }
}

fn parse_call_tail(p: &mut Parser) -> PResult<(FuncId, Vec<Operand>)> {
    let fname = p.ident()?;
    let callee = p.prog.func_by_name(fname).ok_or_else(|| ParseError {
        line: p.line(),
        message: format!("unknown function `{fname}`"),
    })?;
    p.expect(Tok::LParen)?;
    let mut args = Vec::new();
    if p.peek() != Tok::RParen {
        loop {
            args.push(p.parse_operand()?);
            if p.peek() == Tok::Comma {
                p.bump();
            } else {
                break;
            }
        }
    }
    p.expect(Tok::RParen)?;
    Ok((callee, args))
}

fn parse_icall_tail(p: &mut Parser) -> PResult<(Operand, Vec<Operand>, Vec<TypeId>)> {
    let target = p.parse_operand()?;
    p.expect(Tok::LParen)?;
    let mut args = Vec::new();
    if p.peek() != Tok::RParen {
        loop {
            args.push(p.parse_operand()?);
            if p.peek() == Tok::Comma {
                p.bump();
            } else {
                break;
            }
        }
    }
    p.expect(Tok::RParen)?;
    p.expect(Tok::Colon)?;
    p.expect(Tok::LParen)?;
    let mut tys = Vec::new();
    if p.peek() != Tok::RParen {
        loop {
            tys.push(p.parse_type()?);
            if p.peek() == Tok::Comma {
                p.bump();
            } else {
                break;
            }
        }
    }
    p.expect(Tok::RParen)?;
    Ok((target, args, tys))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_program;
    use crate::verify::assert_valid;

    const SMALL: &str = r#"
record node { v: i64, next: ptr<node>, flags: u32:3 }

global P: ptr<node>

libc func fwrite(ptr<u8>) -> i64
extern func mystery(ptr<node>) -> void

func main() -> i64 {
bb0:
  r0 = 100
  r1 = alloc node, r0
  gstore r1, P
  jump bb1
bb1:
  r2 = cmp.lt r0, 200
  br r2, bb2, bb3
bb2:
  r3 = fieldaddr r1, node.v
  store 5, r3 : i64
  r4 = load r3 : i64
  r5 = add r4, 1
  jump bb1
bb3:
  ret r0
}
"#;

    #[test]
    fn parses_small_program() {
        let p = parse(SMALL).expect("parse ok");
        assert_eq!(p.types.num_records(), 1);
        assert_eq!(p.globals.len(), 1);
        assert_eq!(p.funcs.len(), 3);
        let main = p.main().expect("main exists");
        assert_eq!(p.func(main).blocks.len(), 4);
        assert_valid(&p);
        let rid = p.types.record_by_name("node").expect("record");
        assert_eq!(p.types.record(rid).fields[2].bit_width, Some(3));
    }

    #[test]
    fn roundtrip_print_parse() {
        let p1 = parse(SMALL).expect("parse ok");
        let text1 = print_program(&p1);
        let p2 = parse(&text1).expect("reparse ok");
        let text2 = print_program(&p2);
        assert_eq!(text1, text2);
    }

    #[test]
    fn parses_forward_record_reference() {
        let src = r#"
record a { b: ptr<b> }
record b { a: ptr<a> }
"#;
        let p = parse(src).expect("parse ok");
        assert_eq!(p.types.num_records(), 2);
    }

    #[test]
    fn parses_all_instructions() {
        let src = r#"
record s { x: i64, y: f64 }
global G: i64
extern func ext(i64) -> i64
func helper(i64) -> i64 {
bb0:
  ret r0
}
func main() -> i64 {
bb0:
  r0 = 7
  r1 = 1.5
  r2 = null
  r3 = r0
  r4 = add r0, 1
  r5 = cmp.ge r4, r0
  r6 = alloc s, 16
  r7 = zalloc s, 16
  r8 = cast r6 : ptr<s> -> ptr<u8>
  r9 = fieldaddr r6, s.y
  r10 = indexaddr r6, s, 3
  r11 = load r9 : f64
  store r1, r9 : f64
  r12 = gload G
  gstore r0, G
  r13 = gaddr G
  free r7
  r14 = realloc r6, s, 32
  memcpy r6, r7, 64
  memset r6, 0, 64
  r15 = call helper(r0)
  call helper(1)
  r16 = fnaddr helper
  r17 = icall r16(r0) : (i64)
  icall r16(2) : (i64)
  r18 = call ext(r0)
  ret r18
}
"#;
        let p = parse(src).expect("parse ok");
        assert_valid(&p);
        let t1 = print_program(&p);
        let p2 = parse(&t1).expect("reparse");
        assert_eq!(t1, print_program(&p2));
    }

    #[test]
    fn void_ret_and_negative_ints() {
        let src = r#"
func f() -> void {
bb0:
  r0 = -42
  ret
}
"#;
        let p = parse(src).expect("parse ok");
        let f = p.func_by_name("f").expect("f");
        let ins = &p.func(f).blocks[0].instrs[0];
        assert_eq!(
            *ins,
            Instr::Assign {
                dst: Reg(0),
                src: Operand::int(-42)
            }
        );
    }

    #[test]
    fn error_unknown_type() {
        let err = parse("global G: banana").expect_err("should fail");
        assert!(err.message.contains("unknown type"));
    }

    #[test]
    fn type_nesting_is_bounded() {
        let nested =
            |depth: usize| format!("global G: {}i64{}", "ptr<".repeat(depth), ">".repeat(depth));
        assert!(parse(&nested(MAX_TYPE_DEPTH as usize - 1)).is_ok());
        for depth in [MAX_TYPE_DEPTH as usize, 200_000] {
            let err = parse(&nested(depth)).expect_err("too deep");
            assert!(err.message.contains("nested deeper than 256"), "{err}");
        }
        let arrays = format!("global G: {}i64{}", "[".repeat(300), "; 1]".repeat(300));
        assert!(parse(&arrays).is_err());
    }

    #[test]
    fn bit_field_width_must_fit() {
        let err = parse("record s { a: u32:300 }").expect_err("width 300");
        assert!(err.message.contains("bit-field width 300"), "{err}");
        assert!(parse("record s { a: u32:-1 }").is_err());
        let p = parse("record s { a: u32:255 }").expect("fits in the syntax");
        assert_eq!(
            p.types.record(crate::RecordId(0)).fields[0].bit_width,
            Some(255)
        );
    }

    #[test]
    fn error_unknown_function() {
        let src = "func main() -> void {\nbb0:\n  call nope()\n  ret\n}\n";
        let err = parse(src).expect_err("should fail");
        assert!(err.message.contains("unknown function"));
        assert_eq!(err.line, 3);
    }

    #[test]
    fn error_undefined_label() {
        let src = "func main() -> void {\nbb0:\n  jump bb7\n}\n";
        let err = parse(src).expect_err("should fail");
        assert!(err.message.contains("undefined label"));
    }

    #[test]
    fn error_duplicate_record() {
        let err = parse("record a { }\nrecord a { }").expect_err("should fail");
        assert!(err.message.contains("duplicate record"));
    }

    #[test]
    fn error_out_of_order_labels() {
        let src = "func main() -> void {\nbb1:\n  ret\n}\n";
        let err = parse(src).expect_err("should fail");
        assert!(err.message.contains("out of order"));
    }

    #[test]
    fn comments_are_skipped() {
        let src = "// a comment\nfunc f() -> void { // trailing\nbb0:\n  ret\n}\n";
        assert!(parse(src).is_ok());
    }

    #[test]
    fn array_types() {
        let src = "record r { data: [i32; 8] }\n";
        let p = parse(src).expect("parse ok");
        let rid = p.types.record_by_name("r").expect("r");
        assert_eq!(p.types.layout_of(rid).size, 32);
    }

    #[test]
    fn float_literals() {
        let src = "func f() -> f64 {\nbb0:\n  r0 = 2.5\n  r1 = 1e3\n  ret r0\n}\n";
        let p = parse(src).expect("parse ok");
        let f = p.func_by_name("f").expect("f");
        assert!(matches!(
            p.func(f).blocks[0].instrs[1],
            Instr::Assign {
                src: Operand::Const(Const::Float(v)),
                ..
            } if v == 1000.0
        ));
    }

    #[test]
    fn num_regs_accounts_for_params_and_uses() {
        let src = "func f(i64, i64) -> i64 {\nbb0:\n  r5 = add r0, r1\n  ret r5\n}\n";
        let p = parse(src).expect("parse ok");
        let f = p.func_by_name("f").expect("f");
        assert_eq!(p.func(f).num_regs, 6);
    }
}
