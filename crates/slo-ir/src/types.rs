//! Type system: scalars, pointers, records (structs), arrays, and the
//! [`TypeTable`] that interns them.
//!
//! Record layout follows C-like rules: each field is aligned to its natural
//! alignment, the record size is rounded up to the maximum field alignment.
//! Bit-fields are modeled as metadata on a field (`bit_width`); storage-wise
//! they occupy their declared scalar type. This is a simplification relative
//! to C storage-unit packing, documented in `DESIGN.md`; it only affects the
//! absolute sizes of bit-field-heavy records, not the analyses, which treat
//! bit-fields purely as a heuristic constraint (never remove / reorder them
//! across alignment boundaries).

use crate::printer::digits;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Primitive scalar kinds supported by the IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScalarKind {
    /// Signed 8-bit integer.
    I8,
    /// Signed 16-bit integer.
    I16,
    /// Signed 32-bit integer.
    I32,
    /// Signed 64-bit integer.
    I64,
    /// Unsigned 8-bit integer.
    U8,
    /// Unsigned 16-bit integer.
    U16,
    /// Unsigned 32-bit integer.
    U32,
    /// Unsigned 64-bit integer.
    U64,
    /// 32-bit IEEE float.
    F32,
    /// 64-bit IEEE float.
    F64,
}

impl ScalarKind {
    /// Size of the scalar in bytes.
    pub fn size(self) -> u64 {
        match self {
            ScalarKind::I8 | ScalarKind::U8 => 1,
            ScalarKind::I16 | ScalarKind::U16 => 2,
            ScalarKind::I32 | ScalarKind::U32 | ScalarKind::F32 => 4,
            ScalarKind::I64 | ScalarKind::U64 | ScalarKind::F64 => 8,
        }
    }

    /// Natural alignment in bytes (equals size for all supported scalars).
    pub fn align(self) -> u64 {
        self.size()
    }

    /// Whether this is a floating-point kind.
    pub fn is_float(self) -> bool {
        matches!(self, ScalarKind::F32 | ScalarKind::F64)
    }

    /// Whether this is a signed integer kind.
    pub fn is_signed(self) -> bool {
        matches!(
            self,
            ScalarKind::I8 | ScalarKind::I16 | ScalarKind::I32 | ScalarKind::I64
        )
    }

    /// The textual name used by the IR parser/printer.
    pub fn name(self) -> &'static str {
        match self {
            ScalarKind::I8 => "i8",
            ScalarKind::I16 => "i16",
            ScalarKind::I32 => "i32",
            ScalarKind::I64 => "i64",
            ScalarKind::U8 => "u8",
            ScalarKind::U16 => "u16",
            ScalarKind::U32 => "u32",
            ScalarKind::U64 => "u64",
            ScalarKind::F32 => "f32",
            ScalarKind::F64 => "f64",
        }
    }

    /// Parse a scalar kind from its textual name.
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "i8" => ScalarKind::I8,
            "i16" => ScalarKind::I16,
            "i32" => ScalarKind::I32,
            "i64" => ScalarKind::I64,
            "u8" => ScalarKind::U8,
            "u16" => ScalarKind::U16,
            "u32" => ScalarKind::U32,
            "u64" => ScalarKind::U64,
            "f32" => ScalarKind::F32,
            "f64" => ScalarKind::F64,
            _ => return None,
        })
    }
}

impl fmt::Display for ScalarKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Handle to an interned [`Type`] in a [`TypeTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub u32);

/// Handle to a [`RecordType`] in a [`TypeTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId(pub u32);

impl fmt::Display for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ty{}", self.0)
    }
}

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rec{}", self.0)
    }
}

/// The structural shape of a type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// The unit/void type (function returns only).
    Void,
    /// A primitive scalar.
    Scalar(ScalarKind),
    /// A typed pointer to another type.
    Ptr(TypeId),
    /// A record (struct) type.
    Record(RecordId),
    /// A fixed-length inline array.
    Array(TypeId, u64),
    /// A function pointer; only identity matters for the analyses.
    FuncPtr,
}

/// One field of a record type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Source-level field name.
    pub name: String,
    /// Field type.
    pub ty: TypeId,
    /// `Some(width)` if this is a bit-field of `width` bits.
    pub bit_width: Option<u8>,
}

impl Field {
    /// Create a plain (non-bit-field) field.
    pub fn new(name: impl Into<String>, ty: TypeId) -> Self {
        Field {
            name: name.into(),
            ty,
            bit_width: None,
        }
    }

    /// Create a bit-field.
    pub fn bitfield(name: impl Into<String>, ty: TypeId, width: u8) -> Self {
        Field {
            name: name.into(),
            ty,
            bit_width: Some(width),
        }
    }
}

/// A record (struct) type: a named, ordered collection of fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordType {
    /// Source-level type name; unique within a [`TypeTable`].
    pub name: String,
    /// Ordered fields.
    pub fields: Vec<Field>,
}

impl RecordType {
    /// Index of the field named `name`, if present.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }
}

/// Computed memory layout for a record type.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordLayout {
    /// Total size in bytes, including tail padding.
    pub size: u64,
    /// Alignment in bytes.
    pub align: u64,
    /// Byte offset of each field, parallel to `RecordType::fields`.
    pub offsets: Vec<u64>,
}

/// Why a type table has no layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// Records that contain themselves by value, in containment order:
    /// each contains the next, and the last contains the first.
    Cycle(Vec<String>),
    /// A type (in textual form) whose size overflows `u64`.
    Overflow(String),
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::Cycle(names) => write!(
                f,
                "record `{}` contains itself by value ({} -> {})",
                names[0],
                names.join(" -> "),
                names[0]
            ),
            LayoutError::Overflow(ty) => write!(f, "size of `{ty}` overflows u64"),
        }
    }
}

impl std::error::Error for LayoutError {}

/// Size and alignment of every type (by [`TypeId`]) and the layout of
/// every record (by [`RecordId`]).
#[derive(Debug, Clone)]
struct Layouts {
    types: Vec<(u64, u64)>,
    records: Vec<RecordLayout>,
}

/// Interning table for all types of a program.
///
/// All IR entities reference types through [`TypeId`]; structural types
/// (scalars, pointers, arrays) are deduplicated, records are nominal.
///
/// Sizes, alignments and record layouts are computed together on the
/// first query after a change and answered from that table until the
/// next change. A query on a table that fails
/// [`TypeTable::check_layout`] panics; the verifier reports the failure.
#[derive(Debug, Clone, Default)]
pub struct TypeTable {
    types: Vec<Type>,
    records: Vec<RecordType>,
    interned: HashMap<Type, TypeId>,
    record_by_name: HashMap<String, RecordId>,
    /// Reset by every mutator; filled by the first layout query and
    /// shared by clones.
    layouts: OnceLock<Arc<Result<Layouts, LayoutError>>>,
}

impl TypeTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a structural type, returning its id.
    pub fn intern(&mut self, ty: Type) -> TypeId {
        if let Some(&id) = self.interned.get(&ty) {
            return id;
        }
        let id = TypeId(self.types.len() as u32);
        self.interned.insert(ty.clone(), id);
        self.types.push(ty);
        self.layouts = OnceLock::new();
        id
    }

    /// Shorthand: intern the void type.
    pub fn void(&mut self) -> TypeId {
        self.intern(Type::Void)
    }

    /// Shorthand: intern a scalar type.
    pub fn scalar(&mut self, k: ScalarKind) -> TypeId {
        self.intern(Type::Scalar(k))
    }

    /// Shorthand: intern a pointer to `to`.
    pub fn ptr(&mut self, to: TypeId) -> TypeId {
        self.intern(Type::Ptr(to))
    }

    /// Shorthand: intern an array type.
    pub fn array(&mut self, elem: TypeId, len: u64) -> TypeId {
        self.intern(Type::Array(elem, len))
    }

    /// Shorthand: intern the opaque function-pointer type.
    pub fn func_ptr(&mut self) -> TypeId {
        self.intern(Type::FuncPtr)
    }

    /// Declare a new record type. Returns both the record id and the
    /// interned `Type::Record` id.
    ///
    /// # Panics
    ///
    /// Panics if a record with the same name already exists.
    pub fn add_record(&mut self, rec: RecordType) -> (RecordId, TypeId) {
        assert!(
            !self.record_by_name.contains_key(&rec.name),
            "duplicate record type name `{}`",
            rec.name
        );
        let rid = RecordId(self.records.len() as u32);
        self.record_by_name.insert(rec.name.clone(), rid);
        self.records.push(rec);
        self.layouts = OnceLock::new();
        let tid = self.intern(Type::Record(rid));
        (rid, tid)
    }

    /// Replace the definition of an existing record (used by the BE when a
    /// transformation rewrites a type's field list in place).
    pub fn replace_record(&mut self, rid: RecordId, rec: RecordType) {
        let old_name = self.records[rid.0 as usize].name.clone();
        if old_name != rec.name {
            self.record_by_name.remove(&old_name);
            self.record_by_name.insert(rec.name.clone(), rid);
        }
        self.records[rid.0 as usize] = rec;
        self.layouts = OnceLock::new();
    }

    /// Look up a type by id.
    pub fn get(&self, id: TypeId) -> &Type {
        &self.types[id.0 as usize]
    }

    /// Look up a record by id.
    pub fn record(&self, id: RecordId) -> &RecordType {
        &self.records[id.0 as usize]
    }

    /// Look up a record by name.
    pub fn record_by_name(&self, name: &str) -> Option<RecordId> {
        self.record_by_name.get(name).copied()
    }

    /// The interned `TypeId` for `Type::Record(rid)` if it exists.
    pub fn record_type_id(&self, rid: RecordId) -> Option<TypeId> {
        self.interned.get(&Type::Record(rid)).copied()
    }

    /// The interned `TypeId` for `Type::Ptr(to)` if it exists. Every
    /// type goes through [`intern`](Self::intern), so a pointer type has
    /// at most one id.
    pub fn ptr_id(&self, to: TypeId) -> Option<TypeId> {
        self.interned.get(&Type::Ptr(to)).copied()
    }

    /// Number of record types.
    pub fn num_records(&self) -> usize {
        self.records.len()
    }

    /// Number of interned types.
    pub fn num_types(&self) -> usize {
        self.types.len()
    }

    /// Iterate over all record ids.
    pub fn record_ids(&self) -> impl Iterator<Item = RecordId> {
        (0..self.records.len() as u32).map(RecordId)
    }

    /// Size of a type in bytes. Pointers are 8 bytes (64-bit target).
    pub fn size_of(&self, id: TypeId) -> u64 {
        self.layouts().types[id.0 as usize].0
    }

    /// Alignment of a type in bytes.
    pub fn align_of(&self, id: TypeId) -> u64 {
        self.layouts().types[id.0 as usize].1
    }

    /// The C-like layout of a record.
    ///
    /// Fields are placed in declaration order at their natural alignment;
    /// total size is rounded up to the record alignment. An empty record
    /// has size 0 and alignment 1.
    ///
    /// # Examples
    ///
    /// ```
    /// use slo_ir::{Field, RecordType, ScalarKind, TypeTable};
    ///
    /// let mut t = TypeTable::new();
    /// let i32t = t.scalar(ScalarKind::I32);
    /// let i64t = t.scalar(ScalarKind::I64);
    /// let (rid, _) = t.add_record(RecordType {
    ///     name: "s".into(),
    ///     fields: vec![Field::new("a", i32t), Field::new("b", i64t)],
    /// });
    /// let layout = t.layout_of(rid);
    /// assert_eq!(layout.offsets, vec![0, 8]); // `b` aligned to 8
    /// assert_eq!(layout.size, 16);
    /// ```
    pub fn layout_of(&self, rid: RecordId) -> &RecordLayout {
        &self.layouts().records[rid.0 as usize]
    }

    /// Whether every type has a finite layout whose size fits in `u64`.
    ///
    /// # Errors
    ///
    /// A [`LayoutError`] naming the first record cycle or overflowing
    /// type found.
    pub fn check_layout(&self) -> Result<(), LayoutError> {
        self.layout_table()
            .as_ref()
            .map(|_| ())
            .map_err(Clone::clone)
    }

    fn layouts(&self) -> &Layouts {
        match self.layout_table() {
            Ok(l) => l,
            Err(e) => panic!("layout query on a type table that fails verification: {e}"),
        }
    }

    fn layout_table(&self) -> &Result<Layouts, LayoutError> {
        self.layouts
            .get_or_init(|| Arc::new(self.compute_layouts()))
    }

    /// The `i`-th type stored by value inside `id`: a record's field
    /// types in order, or an array's element type.
    fn value_child(&self, id: TypeId, i: usize) -> Option<TypeId> {
        match self.get(id) {
            Type::Record(r) => self.record(*r).fields.get(i).map(|f| f.ty),
            Type::Array(elem, _) => (i == 0).then_some(*elem),
            _ => None,
        }
    }

    /// Size and alignment of every type and the layout of every record,
    /// each computed once after everything it stores by value
    /// (a depth-first post-order with an explicit stack).
    fn compute_layouts(&self) -> Result<Layouts, LayoutError> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            New,
            Open,
            Done,
        }
        let n = self.types.len();
        let mut types = vec![(0u64, 1u64); n];
        let mut records = vec![RecordLayout::default(); self.records.len()];
        let mut mark = vec![Mark::New; n];
        // (type, index of its next by-value child to visit)
        let mut stack: Vec<(TypeId, usize)> = Vec::new();
        for root in 0..n {
            if mark[root] != Mark::New {
                continue;
            }
            mark[root] = Mark::Open;
            stack.push((TypeId(root as u32), 0));
            while let Some(top) = stack.last_mut() {
                let (id, next) = *top;
                if let Some(child) = self.value_child(id, next) {
                    top.1 += 1;
                    match mark[child.0 as usize] {
                        Mark::Done => {}
                        Mark::New => {
                            mark[child.0 as usize] = Mark::Open;
                            stack.push((child, 0));
                        }
                        Mark::Open => {
                            let from = stack.iter().position(|&(t, _)| t == child).unwrap_or(0);
                            return Err(LayoutError::Cycle(
                                stack[from..]
                                    .iter()
                                    .filter_map(|&(t, _)| match self.get(t) {
                                        Type::Record(r) => Some(self.record(*r).name.clone()),
                                        _ => None,
                                    })
                                    .collect(),
                            ));
                        }
                    }
                    continue;
                }
                stack.pop();
                mark[id.0 as usize] = Mark::Done;
                let overflow = || LayoutError::Overflow(self.display(id));
                types[id.0 as usize] = match self.get(id) {
                    Type::Void => (0, 1),
                    Type::Scalar(k) => (k.size(), k.align()),
                    Type::Ptr(_) | Type::FuncPtr => (8, 8),
                    Type::Array(elem, len) => {
                        let (es, ea) = types[elem.0 as usize];
                        (es.checked_mul(*len).ok_or_else(overflow)?, ea)
                    }
                    Type::Record(r) => {
                        let l = self.place_fields(*r, &types).ok_or_else(overflow)?;
                        let sa = (l.size, l.align);
                        records[r.0 as usize] = l;
                        sa
                    }
                };
            }
        }
        Ok(Layouts { types, records })
    }

    /// Lay out record `rid` from the `(size, align)` of its field types;
    /// `None` if an offset or the size overflows `u64`.
    fn place_fields(&self, rid: RecordId, types: &[(u64, u64)]) -> Option<RecordLayout> {
        let fields = &self.record(rid).fields;
        let mut offset = 0u64;
        let mut max_align = 1u64;
        let mut offsets = Vec::with_capacity(fields.len());
        for f in fields {
            let (fs, fa) = types[f.ty.0 as usize];
            max_align = max_align.max(fa);
            offset = round_up(offset, fa)?;
            offsets.push(offset);
            offset = offset.checked_add(fs)?;
        }
        Some(RecordLayout {
            size: round_up(offset, max_align)?,
            align: max_align,
            offsets,
        })
    }

    /// Whether record `rid` has a pointer field that points (possibly through
    /// arrays) back at `rid` itself — i.e. the type is *recursive* in the
    /// linked-data-structure sense (lists, trees).
    pub fn is_recursive(&self, rid: RecordId) -> bool {
        self.record(rid)
            .fields
            .iter()
            .any(|f| self.points_to_record(f.ty, rid))
    }

    fn points_to_record(&self, id: TypeId, rid: RecordId) -> bool {
        match self.get(id) {
            Type::Ptr(inner) => match self.get(*inner) {
                Type::Record(r) => *r == rid,
                _ => self.points_to_record(*inner, rid),
            },
            Type::Array(elem, _) => self.points_to_record(*elem, rid),
            _ => false,
        }
    }

    /// Record ids that appear *by value* inside another record or array —
    /// the paper's NEST condition.
    ///
    /// A record nested at any depth is a direct by-value field (arrays
    /// peeled) of some record, so one pass over all fields finds them all.
    pub fn nested_records(&self) -> Vec<RecordId> {
        let mut nested = vec![false; self.records.len()];
        for rec in &self.records {
            for f in &rec.fields {
                let mut ty = f.ty;
                while let Type::Array(elem, _) = self.get(ty) {
                    ty = *elem;
                }
                if let Type::Record(r) = self.get(ty) {
                    nested[r.0 as usize] = true;
                }
            }
        }
        nested
            .iter()
            .enumerate()
            .filter_map(|(i, &n)| n.then_some(RecordId(i as u32)))
            .collect()
    }

    /// Pretty-print a type.
    pub fn display(&self, id: TypeId) -> String {
        self.fmt_type(id).to_string()
    }

    /// [`display`](Self::display) without the `String`: the type's text
    /// is written straight into whatever formats it.
    pub fn fmt_type(&self, id: TypeId) -> impl fmt::Display + '_ {
        TypeText(self, id)
    }

    /// Write the textual IR spelling of a type. This is the one routine
    /// that spells types: the printer calls it on its `String`, and
    /// [`fmt_type`](Self::fmt_type) and [`display`](Self::display) go
    /// through it.
    pub(crate) fn write_type<W: fmt::Write>(&self, out: &mut W, id: TypeId) -> fmt::Result {
        match self.get(id) {
            Type::Void => out.write_str("void"),
            Type::Scalar(k) => out.write_str(k.name()),
            Type::Ptr(inner) => {
                out.write_str("ptr<")?;
                self.write_type(out, *inner)?;
                out.write_str(">")
            }
            Type::Record(r) => out.write_str(&self.record(*r).name),
            Type::Array(elem, n) => {
                out.write_str("[")?;
                self.write_type(out, *elem)?;
                out.write_str("; ")?;
                out.write_str(digits(*n, &mut [0; 20]))?;
                out.write_str("]")
            }
            Type::FuncPtr => out.write_str("fnptr"),
        }
    }

    /// Whether the type is a pointer (data or function).
    pub fn is_ptr(&self, id: TypeId) -> bool {
        matches!(self.get(id), Type::Ptr(_) | Type::FuncPtr)
    }

    /// If `id` is `ptr<record>`, the record id.
    pub fn pointee_record(&self, id: TypeId) -> Option<RecordId> {
        if let Type::Ptr(inner) = self.get(id) {
            if let Type::Record(r) = self.get(*inner) {
                return Some(*r);
            }
        }
        None
    }

    /// The record id if `id` is a record, a pointer to a record, or an
    /// array of records (any depth of array/pointer nesting).
    pub fn involved_record(&self, id: TypeId) -> Option<RecordId> {
        match self.get(id) {
            Type::Record(r) => Some(*r),
            Type::Ptr(inner) => self.involved_record(*inner),
            Type::Array(elem, _) => self.involved_record(*elem),
            _ => None,
        }
    }
}

/// Round `v` up to the next multiple of `align` (positive); `None` on
/// overflow.
fn round_up(v: u64, align: u64) -> Option<u64> {
    v.div_ceil(align).checked_mul(align)
}

/// The textual IR spelling of a type; see [`TypeTable::fmt_type`].
struct TypeText<'a>(&'a TypeTable, TypeId);

impl fmt::Display for TypeText<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.write_type(f, self.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> TypeTable {
        TypeTable::new()
    }

    #[test]
    fn scalar_sizes() {
        assert_eq!(ScalarKind::I8.size(), 1);
        assert_eq!(ScalarKind::U16.size(), 2);
        assert_eq!(ScalarKind::F32.size(), 4);
        assert_eq!(ScalarKind::F64.size(), 8);
        assert!(ScalarKind::F32.is_float());
        assert!(!ScalarKind::U64.is_float());
        assert!(ScalarKind::I32.is_signed());
        assert!(!ScalarKind::U32.is_signed());
    }

    #[test]
    fn scalar_names_roundtrip() {
        for k in [
            ScalarKind::I8,
            ScalarKind::I16,
            ScalarKind::I32,
            ScalarKind::I64,
            ScalarKind::U8,
            ScalarKind::U16,
            ScalarKind::U32,
            ScalarKind::U64,
            ScalarKind::F32,
            ScalarKind::F64,
        ] {
            assert_eq!(ScalarKind::from_name(k.name()), Some(k));
        }
        assert_eq!(ScalarKind::from_name("bogus"), None);
    }

    #[test]
    fn interning_dedups() {
        let mut t = table();
        let a = t.scalar(ScalarKind::I32);
        let b = t.scalar(ScalarKind::I32);
        assert_eq!(a, b);
        let p1 = t.ptr(a);
        let p2 = t.ptr(b);
        assert_eq!(p1, p2);
        assert_ne!(a, p1);
    }

    #[test]
    fn simple_record_layout() {
        let mut t = table();
        let i32t = t.scalar(ScalarKind::I32);
        let i64t = t.scalar(ScalarKind::I64);
        let (rid, _) = t.add_record(RecordType {
            name: "s".into(),
            fields: vec![
                Field::new("a", i32t),
                Field::new("b", i64t),
                Field::new("c", i32t),
            ],
        });
        let l = t.layout_of(rid);
        assert_eq!(l.offsets, vec![0, 8, 16]);
        assert_eq!(l.align, 8);
        assert_eq!(l.size, 24); // tail padded to 8
    }

    #[test]
    fn packed_small_fields() {
        let mut t = table();
        let i8t = t.scalar(ScalarKind::I8);
        let i16t = t.scalar(ScalarKind::I16);
        let (rid, _) = t.add_record(RecordType {
            name: "s".into(),
            fields: vec![
                Field::new("a", i8t),
                Field::new("b", i8t),
                Field::new("c", i16t),
            ],
        });
        let l = t.layout_of(rid);
        assert_eq!(l.offsets, vec![0, 1, 2]);
        assert_eq!(l.size, 4);
        assert_eq!(l.align, 2);
    }

    #[test]
    fn empty_record_layout() {
        let mut t = table();
        let (rid, _) = t.add_record(RecordType {
            name: "empty".into(),
            fields: vec![],
        });
        let l = t.layout_of(rid);
        assert_eq!(l.size, 0);
        assert_eq!(l.align, 1);
        assert!(l.offsets.is_empty());
    }

    #[test]
    fn nested_record_layout_and_detection() {
        let mut t = table();
        let i32t = t.scalar(ScalarKind::I32);
        let (inner, inner_ty) = t.add_record(RecordType {
            name: "inner".into(),
            fields: vec![Field::new("x", i32t), Field::new("y", i32t)],
        });
        let (outer, _) = t.add_record(RecordType {
            name: "outer".into(),
            fields: vec![Field::new("i", inner_ty), Field::new("z", i32t)],
        });
        let l = t.layout_of(outer);
        assert_eq!(l.offsets, vec![0, 8]);
        assert_eq!(l.size, 12);
        let nested = t.nested_records();
        assert_eq!(nested, vec![inner]);
        assert!(!t.is_recursive(outer));
    }

    #[test]
    fn recursive_detection_through_pointer() {
        let mut t = table();
        let i64t = t.scalar(ScalarKind::I64);
        // Forward-declare by creating the record first with a placeholder,
        // then fix up: simplest is two-phase via replace_record.
        let (rid, rty) = t.add_record(RecordType {
            name: "list".into(),
            fields: vec![],
        });
        let pnode = t.ptr(rty);
        t.replace_record(
            rid,
            RecordType {
                name: "list".into(),
                fields: vec![Field::new("val", i64t), Field::new("next", pnode)],
            },
        );
        assert!(t.is_recursive(rid));
        // A pointer field does not make the type "nested", nor a cycle.
        assert!(t.nested_records().is_empty());
        assert_eq!(t.layout_of(rid).size, 16);
    }

    #[test]
    fn pointer_sizes() {
        let mut t = table();
        let i8t = t.scalar(ScalarKind::I8);
        let p = t.ptr(i8t);
        assert_eq!(t.size_of(p), 8);
        assert_eq!(t.align_of(p), 8);
        let f = t.func_ptr();
        assert_eq!(t.size_of(f), 8);
    }

    #[test]
    fn array_layout() {
        let mut t = table();
        let i32t = t.scalar(ScalarKind::I32);
        let arr = t.array(i32t, 10);
        assert_eq!(t.size_of(arr), 40);
        assert_eq!(t.align_of(arr), 4);
    }

    #[test]
    fn display_types() {
        let mut t = table();
        let i32t = t.scalar(ScalarKind::I32);
        let p = t.ptr(i32t);
        let (_, rty) = t.add_record(RecordType {
            name: "node".into(),
            fields: vec![Field::new("v", i32t)],
        });
        let pr = t.ptr(rty);
        assert_eq!(t.display(p), "ptr<i32>");
        assert_eq!(t.display(pr), "ptr<node>");
        let arr = t.array(i32t, 4);
        assert_eq!(t.display(arr), "[i32; 4]");
    }

    #[test]
    fn involved_record_digs_through() {
        let mut t = table();
        let i32t = t.scalar(ScalarKind::I32);
        let (rid, rty) = t.add_record(RecordType {
            name: "r".into(),
            fields: vec![Field::new("v", i32t)],
        });
        let p = t.ptr(rty);
        let pp = t.ptr(p);
        let arr = t.array(rty, 3);
        assert_eq!(t.involved_record(pp), Some(rid));
        assert_eq!(t.involved_record(arr), Some(rid));
        assert_eq!(t.involved_record(i32t), None);
    }

    #[test]
    fn field_index_lookup() {
        let mut t = table();
        let i32t = t.scalar(ScalarKind::I32);
        let (rid, _) = t.add_record(RecordType {
            name: "r".into(),
            fields: vec![Field::new("a", i32t), Field::new("b", i32t)],
        });
        assert_eq!(t.record(rid).field_index("b"), Some(1));
        assert_eq!(t.record(rid).field_index("zz"), None);
    }

    #[test]
    fn bitfield_metadata() {
        let mut t = table();
        let u32t = t.scalar(ScalarKind::U32);
        let f = Field::bitfield("flags", u32t, 3);
        assert_eq!(f.bit_width, Some(3));
    }

    #[test]
    fn round_up_works() {
        assert_eq!(round_up(0, 8), Some(0));
        assert_eq!(round_up(1, 8), Some(8));
        assert_eq!(round_up(8, 8), Some(8));
        assert_eq!(round_up(9, 4), Some(12));
        assert_eq!(round_up(u64::MAX - 2, 8), None);
    }

    /// Declare records `names` empty, then give each the fields
    /// `f(table, type ids of all declared records)`.
    fn records(
        names: &[&str],
        f: impl Fn(&mut TypeTable, &[TypeId]) -> Vec<Vec<Field>>,
    ) -> TypeTable {
        let mut t = table();
        let mut ids = Vec::new();
        for n in names {
            ids.push(t.add_record(RecordType {
                name: (*n).into(),
                fields: vec![],
            }));
        }
        let tys: Vec<TypeId> = ids.iter().map(|&(_, ty)| ty).collect();
        for (&(rid, _), fields) in ids.iter().zip(f(&mut t, &tys)) {
            let name = t.record(rid).name.clone();
            t.replace_record(rid, RecordType { name, fields });
        }
        t
    }

    #[test]
    fn by_value_cycles_are_layout_errors() {
        let self_cycle = records(&["p"], |_, ty| vec![vec![Field::new("x", ty[0])]]);
        assert_eq!(
            self_cycle.check_layout(),
            Err(LayoutError::Cycle(vec!["p".into()]))
        );
        let two = records(&["p", "q"], |_, ty| {
            vec![vec![Field::new("x", ty[1])], vec![Field::new("y", ty[0])]]
        });
        let err = two.check_layout().unwrap_err();
        assert_eq!(err, LayoutError::Cycle(vec!["p".into(), "q".into()]));
        assert_eq!(
            err.to_string(),
            "record `p` contains itself by value (p -> q -> p)"
        );
        for len in [2, 0] {
            let through_array = records(&["p"], |t, ty| {
                vec![vec![Field::new("x", t.array(ty[0], len))]]
            });
            assert_eq!(
                through_array.check_layout(),
                Err(LayoutError::Cycle(vec!["p".into()])),
                "[p; {len}]"
            );
        }
    }

    #[test]
    fn size_overflow_is_a_layout_error() {
        let mut t = table();
        let i64t = t.scalar(ScalarKind::I64);
        t.array(i64t, 1 << 62);
        assert_eq!(
            t.check_layout(),
            Err(LayoutError::Overflow("[i64; 4611686018427387904]".into()))
        );
        let mut t = table();
        let u8t = t.scalar(ScalarKind::U8);
        let max = t.array(u8t, u64::MAX);
        assert_eq!(t.size_of(max), u64::MAX);
        // a field after it, or tail padding, overflows the record
        let i16t = t.scalar(ScalarKind::I16);
        t.add_record(RecordType {
            name: "s".into(),
            fields: vec![Field::new("a", max), Field::new("b", i16t)],
        });
        assert_eq!(t.check_layout(), Err(LayoutError::Overflow("s".into())));
    }

    #[test]
    #[should_panic(expected = "layout query on a type table that fails verification")]
    fn layout_query_on_a_cyclic_table_panics() {
        let t = records(&["p"], |_, ty| vec![vec![Field::new("x", ty[0])]]);
        let _ = t.layout_of(RecordId(0));
    }

    #[test]
    fn mutations_reset_the_layout_table() {
        let mut t = table();
        let i32t = t.scalar(ScalarKind::I32);
        let (rid, rty) = t.add_record(RecordType {
            name: "r".into(),
            fields: vec![Field::new("a", i32t)],
        });
        assert_eq!(t.layout_of(rid).size, 4);
        let snapshot = t.clone();
        let i64t = t.scalar(ScalarKind::I64);
        t.replace_record(
            rid,
            RecordType {
                name: "r".into(),
                fields: vec![Field::new("a", i32t), Field::new("b", i64t)],
            },
        );
        assert_eq!(t.layout_of(rid).size, 16);
        assert_eq!(snapshot.layout_of(rid).size, 4);
        let arr = t.array(rty, 3);
        assert_eq!(t.size_of(arr), 48);
    }

    #[test]
    fn deep_by_value_chain_lays_out_in_linear_time() {
        // r0 { a: i64 }, rK { a: r(K-1), b: i64 }: any pass that
        // re-walks nested records is superlinear on this chain
        const DEPTH: usize = 10_000;
        let mut t = table();
        let i64t = t.scalar(ScalarKind::I64);
        let mut prev = t
            .add_record(RecordType {
                name: "r0".into(),
                fields: vec![Field::new("a", i64t)],
            })
            .1;
        let mut rids = Vec::new();
        for k in 1..DEPTH {
            let (rid, rty) = t.add_record(RecordType {
                name: format!("r{k}"),
                fields: vec![Field::new("a", prev), Field::new("b", i64t)],
            });
            rids.push(rid);
            prev = rty;
        }
        assert_eq!(t.check_layout(), Ok(()));
        assert_eq!(t.size_of(prev), 8 * DEPTH as u64);
        assert_eq!(t.nested_records().len(), DEPTH - 1);
        assert_eq!(
            t.layout_of(rids[DEPTH - 2]).offsets,
            vec![0, 8 * (DEPTH as u64 - 1)]
        );
    }

    #[test]
    #[should_panic(expected = "duplicate record type name")]
    fn duplicate_record_name_panics() {
        let mut t = table();
        t.add_record(RecordType {
            name: "dup".into(),
            fields: vec![],
        });
        t.add_record(RecordType {
            name: "dup".into(),
            fields: vec![],
        });
    }
}
