//! # slo-ir — compiler IR substrate for structure layout optimization
//!
//! A from-scratch, register-based compiler intermediate representation for
//! a C-like language, built as the substrate for the reproduction of
//! *"Practical Structure Layout Optimization and Advice"* (Hundt,
//! Mannarswamy, Chakrabarti — CGO 2006).
//!
//! The IR deliberately exposes the program constructs the paper's analyses
//! key on:
//!
//! * **record types** with C-like layout ([`types`]),
//! * explicit **field addressing** (`FieldAddr`) feeding typed loads and
//!   stores ([`instr`]),
//! * **casts**, **memory-streaming ops** (`memcpy`/`memset`), **dynamic
//!   allocation** (`alloc`/`zalloc`/`realloc`/`free`), direct, indirect
//!   and **libc-marked** calls — the triggers of the legality tests,
//! * functions grouped into **compilation units** ([`module`]) so the
//!   FE/IPA/BE phase split of the SYZYGY optimizer can be modeled
//!   faithfully.
//!
//! On top of the core data structures it provides
//! [dominators](dom::DomTree), [Havlak loop nesting](loops::LoopForest)
//! (the paper's loop recognition, after Havlak '97), a
//! [call graph](callgraph::CallGraph) with Tarjan SCCs, a
//! [builder](builder::ProgramBuilder) for ergonomic program construction,
//! a [verifier](verify::verify), and a textual format with a
//! [printer](printer::print_program) and [parser](parser::parse) that
//! round-trip.
//!
//! # Examples
//!
//! ```
//! use slo_ir::parser::parse;
//! use slo_ir::printer::print_program;
//!
//! let src = r#"
//! record pair { hot: i64, cold: i64 }
//! func main() -> i64 {
//! bb0:
//!   r0 = alloc pair, 64
//!   r1 = fieldaddr r0, pair.hot
//!   store 1, r1 : i64
//!   r2 = load r1 : i64
//!   ret r2
//! }
//! "#;
//! let program = parse(src)?;
//! assert_eq!(program.types.num_records(), 1);
//! let text = print_program(&program);
//! assert_eq!(text, print_program(&parse(&text)?));
//! # Ok::<(), slo_ir::parser::ParseError>(())
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod callgraph;
pub mod dom;
pub mod fingerprint;
pub mod instr;
pub mod loops;
pub mod module;
pub mod parser;
pub mod printer;
pub mod types;
pub mod verify;

pub use builder::{FuncBuilder, ProgramBuilder};
pub use fingerprint::{fnv1a, Fnv64};
pub use instr::{BinOp, BlockId, CmpOp, Const, FuncId, GlobalId, Instr, InstrRef, Operand, Reg};
pub use module::{BasicBlock, FuncKind, Function, GlobalVar, Program, Unit};
pub use types::{
    Field, LayoutError, RecordId, RecordLayout, RecordType, ScalarKind, Type, TypeId, TypeTable,
};
