//! Byte-accurate simulated heap.
//!
//! A single flat arena models the process address space. Globals are placed
//! at the bottom; dynamic allocations grow upward with 16-byte alignment
//! (matching typical `malloc`). Addresses handed to the cache simulator are
//! arena addresses, so spatial locality in the arena *is* spatial locality
//! in the cache — which is precisely the mechanism structure layout
//! optimization exploits.

use slo_ir::ScalarKind;
use std::collections::HashMap;
use std::fmt;

/// Errors raised by memory operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Access through the null pointer.
    NullDeref,
    /// Access outside any live region.
    OutOfBounds {
        /// The faulting address.
        addr: u64,
        /// The access size in bytes.
        size: u64,
    },
    /// `free`/`realloc` of a pointer that is not a live allocation base.
    InvalidFree {
        /// The faulting address.
        addr: u64,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::NullDeref => write!(f, "null pointer dereference"),
            MemError::OutOfBounds { addr, size } => {
                write!(f, "out-of-bounds access of {size} bytes at 0x{addr:x}")
            }
            MemError::InvalidFree { addr } => write!(f, "invalid free of 0x{addr:x}"),
        }
    }
}

impl std::error::Error for MemError {}

const BASE: u64 = 0x1000;
const ALIGN: u64 = 16;

/// The simulated heap / address space.
#[derive(Debug, Clone)]
pub struct Heap {
    mem: Vec<u8>,
    /// live allocations: base address -> size
    allocs: HashMap<u64, u64>,
    next: u64,
    /// lifetime counters
    total_allocated: u64,
    live_bytes: u64,
    peak_live: u64,
}

impl Default for Heap {
    fn default() -> Self {
        Self::new()
    }
}

impl Heap {
    /// Create an empty heap.
    pub fn new() -> Self {
        Heap {
            mem: Vec::new(),
            allocs: HashMap::new(),
            next: BASE,
            total_allocated: 0,
            live_bytes: 0,
            peak_live: 0,
        }
    }

    fn ensure(&mut self, end: u64) {
        let need = end as usize;
        if self.mem.len() < need {
            self.mem.resize(need.next_power_of_two().max(4096), 0);
        }
    }

    /// Allocate `size` bytes; returns the base address (16-byte aligned).
    /// Zero-size allocations return a unique non-null address.
    pub fn alloc(&mut self, size: u64) -> u64 {
        let addr = self.next;
        let eff = size.max(1);
        self.next = (addr + eff).div_ceil(ALIGN) * ALIGN;
        self.ensure(addr + eff);
        // fresh memory is zeroed (the arena starts zeroed); callers that
        // model `malloc` cost vs `calloc` cost do so in the cost model.
        self.allocs.insert(addr, eff);
        self.total_allocated += eff;
        self.live_bytes += eff;
        self.peak_live = self.peak_live.max(self.live_bytes);
        addr
    }

    /// Free an allocation.
    ///
    /// # Errors
    ///
    /// [`MemError::InvalidFree`] if `addr` is not a live allocation base;
    /// freeing null is a no-op (like C `free`).
    pub fn free(&mut self, addr: u64) -> Result<(), MemError> {
        if addr == 0 {
            return Ok(());
        }
        match self.allocs.remove(&addr) {
            Some(sz) => {
                self.live_bytes -= sz;
                Ok(())
            }
            None => Err(MemError::InvalidFree { addr }),
        }
    }

    /// Reallocate: allocates a new block, copies the overlap, frees the old.
    ///
    /// # Errors
    ///
    /// [`MemError::InvalidFree`] if `addr` is non-null and not a live base.
    pub fn realloc(&mut self, addr: u64, new_size: u64) -> Result<u64, MemError> {
        if addr == 0 {
            return Ok(self.alloc(new_size));
        }
        let old = *self
            .allocs
            .get(&addr)
            .ok_or(MemError::InvalidFree { addr })?;
        let naddr = self.alloc(new_size);
        let n = old.min(new_size) as usize;
        let (a, na) = (addr as usize, naddr as usize);
        self.mem.copy_within(a..a + n, na);
        self.free(addr)?;
        Ok(naddr)
    }

    /// Reserve a region at the bottom of the address space for globals
    /// (called once at program start, before any `alloc`).
    pub fn reserve_static(&mut self, size: u64) -> u64 {
        let addr = self.next;
        self.next = (addr + size.max(1)).div_ceil(ALIGN) * ALIGN;
        self.ensure(addr + size.max(1));
        self.allocs.insert(addr, size.max(1));
        addr
    }

    fn check(&self, addr: u64, size: u64) -> Result<(), MemError> {
        if addr == 0 {
            return Err(MemError::NullDeref);
        }
        // `checked_add`: a pointer near `u64::MAX` must not wrap past
        // the bounds test
        match addr.checked_add(size) {
            Some(end) if addr >= BASE.min(0x100) && end <= self.mem.len() as u64 => Ok(()),
            _ => Err(MemError::OutOfBounds { addr, size }),
        }
    }

    /// Read `size` bytes little-endian as an unsigned integer.
    ///
    /// # Errors
    ///
    /// Fails on null or out-of-bounds access.
    pub fn read_bytes(&self, addr: u64, size: u64) -> Result<u64, MemError> {
        self.check(addr, size)?;
        let mut v = 0u64;
        for i in 0..size {
            v |= (self.mem[(addr + i) as usize] as u64) << (8 * i);
        }
        Ok(v)
    }

    /// Write the low `size` bytes of `v` little-endian.
    ///
    /// # Errors
    ///
    /// Fails on null or out-of-bounds access.
    pub fn write_bytes(&mut self, addr: u64, size: u64, v: u64) -> Result<(), MemError> {
        self.check(addr, size)?;
        for i in 0..size {
            self.mem[(addr + i) as usize] = (v >> (8 * i)) as u8;
        }
        Ok(())
    }

    /// Read a scalar of the given kind.
    ///
    /// # Errors
    ///
    /// Fails on null or out-of-bounds access.
    pub fn read_scalar(&self, addr: u64, k: ScalarKind) -> Result<ScalarValue, MemError> {
        let raw = self.read_bytes(addr, k.size())?;
        Ok(match k {
            ScalarKind::F32 => ScalarValue::Float(f32::from_bits(raw as u32) as f64),
            ScalarKind::F64 => ScalarValue::Float(f64::from_bits(raw)),
            ScalarKind::I8 => ScalarValue::Int(raw as u8 as i8 as i64),
            ScalarKind::I16 => ScalarValue::Int(raw as u16 as i16 as i64),
            ScalarKind::I32 => ScalarValue::Int(raw as u32 as i32 as i64),
            ScalarKind::I64 => ScalarValue::Int(raw as i64),
            ScalarKind::U8 | ScalarKind::U16 | ScalarKind::U32 | ScalarKind::U64 => {
                ScalarValue::Int(raw as i64)
            }
        })
    }

    /// Write a scalar of the given kind.
    ///
    /// # Errors
    ///
    /// Fails on null or out-of-bounds access.
    pub fn write_scalar(
        &mut self,
        addr: u64,
        k: ScalarKind,
        v: ScalarValue,
    ) -> Result<(), MemError> {
        let raw = match (k, v) {
            (ScalarKind::F32, sv) => (sv.as_float() as f32).to_bits() as u64,
            (ScalarKind::F64, sv) => sv.as_float().to_bits(),
            (_, sv) => sv.as_int() as u64,
        };
        self.write_bytes(addr, k.size(), raw)
    }

    /// memcpy; regions may not overlap (workloads never need overlap).
    ///
    /// # Errors
    ///
    /// Fails on null or out-of-bounds access of either region.
    pub fn memcpy(&mut self, dst: u64, src: u64, bytes: u64) -> Result<(), MemError> {
        self.check(dst, bytes)?;
        self.check(src, bytes)?;
        let (d, s, n) = (dst as usize, src as usize, bytes as usize);
        self.mem.copy_within(s..s + n, d);
        Ok(())
    }

    /// memset.
    ///
    /// # Errors
    ///
    /// Fails on null or out-of-bounds access.
    pub fn memset(&mut self, dst: u64, val: u8, bytes: u64) -> Result<(), MemError> {
        self.check(dst, bytes)?;
        self.mem[dst as usize..(dst + bytes) as usize].fill(val);
        Ok(())
    }

    /// Total bytes ever allocated.
    pub fn total_allocated(&self) -> u64 {
        self.total_allocated
    }

    /// Peak simultaneously-live bytes.
    pub fn peak_live(&self) -> u64 {
        self.peak_live
    }

    /// Currently live bytes.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Number of live allocations.
    pub fn live_allocs(&self) -> usize {
        self.allocs.len()
    }
}

/// A scalar value crossing the heap boundary (subset of the VM value).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalarValue {
    /// Integer bits.
    Int(i64),
    /// Floating value.
    Float(f64),
}

impl ScalarValue {
    /// As integer.
    pub fn as_int(self) -> i64 {
        match self {
            ScalarValue::Int(v) => v,
            ScalarValue::Float(v) => v as i64,
        }
    }

    /// As float.
    pub fn as_float(self) -> f64 {
        match self {
            ScalarValue::Int(v) => v as f64,
            ScalarValue::Float(v) => v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_returns_aligned_nonnull() {
        let mut h = Heap::new();
        let a = h.alloc(10);
        let b = h.alloc(1);
        assert_ne!(a, 0);
        assert_eq!(a % 16, 0);
        assert_eq!(b % 16, 0);
        assert!(b > a);
        assert_eq!(h.live_allocs(), 2);
    }

    #[test]
    fn rw_roundtrip_all_scalars() {
        let mut h = Heap::new();
        let a = h.alloc(64);
        for (k, v) in [
            (ScalarKind::I8, ScalarValue::Int(-5)),
            (ScalarKind::I16, ScalarValue::Int(-300)),
            (ScalarKind::I32, ScalarValue::Int(-70000)),
            (ScalarKind::I64, ScalarValue::Int(-1 << 40)),
            (ScalarKind::U8, ScalarValue::Int(200)),
            (ScalarKind::U16, ScalarValue::Int(60000)),
            (ScalarKind::U32, ScalarValue::Int(4_000_000_000)),
            (ScalarKind::U64, ScalarValue::Int(123)),
            (ScalarKind::F32, ScalarValue::Float(1.5)),
            (ScalarKind::F64, ScalarValue::Float(-2.25)),
        ] {
            h.write_scalar(a, k, v).expect("write");
            assert_eq!(h.read_scalar(a, k).expect("read"), v, "kind {k:?}");
        }
    }

    #[test]
    fn null_deref_detected() {
        let h = Heap::new();
        assert_eq!(h.read_bytes(0, 8), Err(MemError::NullDeref));
    }

    #[test]
    fn oob_detected() {
        let mut h = Heap::new();
        let a = h.alloc(8);
        let far = (a + 1) << 30;
        assert!(matches!(
            h.read_bytes(far, 8),
            Err(MemError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn oob_near_address_space_end_does_not_wrap() {
        let mut h = Heap::new();
        let a = h.alloc(64);
        let top = u64::MAX - 3;
        assert_eq!(
            h.read_bytes(top, 8),
            Err(MemError::OutOfBounds { addr: top, size: 8 })
        );
        assert!(matches!(
            h.memcpy(a, top, 8),
            Err(MemError::OutOfBounds { .. })
        ));
        assert!(matches!(
            h.memset(top, 0, 8),
            Err(MemError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn free_and_invalid_free() {
        let mut h = Heap::new();
        let a = h.alloc(32);
        assert_eq!(h.live_bytes(), 32);
        h.free(a).expect("free ok");
        assert_eq!(h.live_bytes(), 0);
        assert_eq!(h.free(a), Err(MemError::InvalidFree { addr: a }));
        h.free(0).expect("free(null) is a no-op");
    }

    #[test]
    fn realloc_preserves_prefix() {
        let mut h = Heap::new();
        let a = h.alloc(16);
        h.write_bytes(a, 8, 0xdeadbeef).expect("write");
        let b = h.realloc(a, 64).expect("realloc");
        assert_eq!(h.read_bytes(b, 8).expect("read"), 0xdeadbeef);
        // old base freed
        assert_eq!(h.free(a), Err(MemError::InvalidFree { addr: a }));
    }

    #[test]
    fn realloc_null_allocates() {
        let mut h = Heap::new();
        let a = h.realloc(0, 8).expect("realloc(null)");
        assert_ne!(a, 0);
    }

    #[test]
    fn memcpy_memset() {
        let mut h = Heap::new();
        let a = h.alloc(32);
        let b = h.alloc(32);
        h.memset(a, 0xab, 16).expect("memset");
        h.memcpy(b, a, 16).expect("memcpy");
        assert_eq!(h.read_bytes(b, 1).expect("read"), 0xab);
        assert_eq!(h.read_bytes(b + 15, 1).expect("read"), 0xab);
        assert_eq!(h.read_bytes(b + 16, 1).expect("read"), 0);
    }

    #[test]
    fn stats_track_peak() {
        let mut h = Heap::new();
        let a = h.alloc(100);
        let _b = h.alloc(50);
        h.free(a).expect("free");
        let _c = h.alloc(10);
        assert_eq!(h.total_allocated(), 160);
        assert_eq!(h.peak_live(), 150);
        assert_eq!(h.live_bytes(), 60);
    }

    #[test]
    fn static_region_below_heap() {
        let mut h = Heap::new();
        let g = h.reserve_static(64);
        let a = h.alloc(8);
        assert!(g < a);
        h.write_bytes(g, 8, 7).expect("write global");
        assert_eq!(h.read_bytes(g, 8).expect("read"), 7);
    }

    #[test]
    fn zero_size_alloc_unique() {
        let mut h = Heap::new();
        let a = h.alloc(0);
        let b = h.alloc(0);
        assert_ne!(a, b);
        assert_ne!(a, 0);
    }
}
