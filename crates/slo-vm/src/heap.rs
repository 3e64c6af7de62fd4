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
    /// An allocation or global region that would end above
    /// [`MEMORY_LIMIT`].
    OutOfMemory {
        /// The requested size in bytes (`u64::MAX` if it overflowed).
        bytes: u64,
    },
    /// A scalar read or write wider than 8 bytes.
    ScalarTooWide {
        /// The requested access size in bytes.
        size: u64,
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
            MemError::OutOfMemory { bytes } => write!(
                f,
                "allocation of {bytes} bytes exceeds the {MEMORY_LIMIT}-byte simulated memory"
            ),
            MemError::ScalarTooWide { size } => {
                write!(f, "scalar access of {size} bytes is wider than 8")
            }
        }
    }
}

impl std::error::Error for MemError {}

const BASE: u64 = 0x1000;
const ALIGN: u64 = 16;

/// Size of the simulated address space (256 MiB). Allocations are never
/// reused, so this bounds the sum of all globals and allocations of one
/// run. The largest bundled run (Table 2's reference inputs) ends its
/// arena at 9.5 MB, well below the limit; a larger request is refused
/// rather than attempted on the host.
pub const MEMORY_LIMIT: u64 = 1 << 28;

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

    /// Claim `size` (at least 1) bytes at the top of the address space
    /// and return their base and effective size.
    fn claim(&mut self, size: u64) -> Result<(u64, u64), MemError> {
        let addr = self.next;
        let eff = size.max(1);
        let end = match addr.checked_add(eff) {
            Some(end) if end <= MEMORY_LIMIT => end,
            _ => return Err(MemError::OutOfMemory { bytes: size }),
        };
        self.next = end.div_ceil(ALIGN) * ALIGN;
        let need = end as usize;
        if self.mem.len() < need {
            let grown = need.next_power_of_two().clamp(4096, MEMORY_LIMIT as usize);
            self.mem.resize(grown, 0);
        }
        self.allocs.insert(addr, eff);
        Ok((addr, eff))
    }

    /// Allocate `size` bytes; returns the base address (16-byte aligned).
    /// Zero-size allocations return a unique non-null address.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfMemory`] if the allocation would end above
    /// [`MEMORY_LIMIT`].
    pub fn alloc(&mut self, size: u64) -> Result<u64, MemError> {
        // fresh memory is zeroed (the arena starts zeroed); callers that
        // model `malloc` cost vs `calloc` cost do so in the cost model.
        let (addr, eff) = self.claim(size)?;
        self.total_allocated += eff;
        self.live_bytes += eff;
        self.peak_live = self.peak_live.max(self.live_bytes);
        Ok(addr)
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
    /// [`MemError::InvalidFree`] if `addr` is non-null and not a live base;
    /// [`MemError::OutOfMemory`] as for [`Heap::alloc`].
    pub fn realloc(&mut self, addr: u64, new_size: u64) -> Result<u64, MemError> {
        if addr == 0 {
            return self.alloc(new_size);
        }
        let old = *self
            .allocs
            .get(&addr)
            .ok_or(MemError::InvalidFree { addr })?;
        let naddr = self.alloc(new_size)?;
        let n = old.min(new_size) as usize;
        let (a, na) = (addr as usize, naddr as usize);
        self.mem.copy_within(a..a + n, na);
        self.free(addr)?;
        Ok(naddr)
    }

    /// Reserve a region at the bottom of the address space for globals
    /// (called once at program start, before any `alloc`).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfMemory`] as for [`Heap::alloc`].
    pub fn reserve_static(&mut self, size: u64) -> Result<u64, MemError> {
        Ok(self.claim(size)?.0)
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

    /// The in-arena byte range of a scalar access of `size` bytes.
    #[inline]
    fn scalar_range(&self, addr: u64, size: u64) -> Result<std::ops::Range<usize>, MemError> {
        if size > 8 {
            return Err(MemError::ScalarTooWide { size });
        }
        self.check(addr, size)?;
        Ok(addr as usize..(addr + size) as usize)
    }

    /// Read `size` (at most 8) bytes little-endian as an unsigned
    /// integer.
    ///
    /// # Errors
    ///
    /// Fails on null or out-of-bounds access, and with
    /// [`MemError::ScalarTooWide`] if `size` exceeds 8.
    #[inline]
    pub fn read_bytes(&self, addr: u64, size: u64) -> Result<u64, MemError> {
        let bytes = &self.mem[self.scalar_range(addr, size)?];
        // the common 8-byte access is one fixed-size load
        if let Ok(word) = <[u8; 8]>::try_from(bytes) {
            return Ok(u64::from_le_bytes(word));
        }
        let mut word = [0u8; 8];
        word[..bytes.len()].copy_from_slice(bytes);
        Ok(u64::from_le_bytes(word))
    }

    /// Write the low `size` (at most 8) bytes of `v` little-endian.
    ///
    /// # Errors
    ///
    /// Fails on null or out-of-bounds access, and with
    /// [`MemError::ScalarTooWide`] if `size` exceeds 8.
    #[inline]
    pub fn write_bytes(&mut self, addr: u64, size: u64, v: u64) -> Result<(), MemError> {
        let range = self.scalar_range(addr, size)?;
        let bytes = &mut self.mem[range];
        match <&mut [u8; 8]>::try_from(&mut *bytes) {
            Ok(word) => *word = v.to_le_bytes(),
            Err(_) => bytes.copy_from_slice(&v.to_le_bytes()[..bytes.len()]),
        }
        Ok(())
    }

    /// Read a scalar of the given kind.
    ///
    /// # Errors
    ///
    /// Fails on null or out-of-bounds access.
    #[inline]
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
    #[inline]
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
        let a = h.alloc(10).expect("alloc");
        let b = h.alloc(1).expect("alloc");
        assert_ne!(a, 0);
        assert_eq!(a % 16, 0);
        assert_eq!(b % 16, 0);
        assert!(b > a);
        assert_eq!(h.live_allocs(), 2);
    }

    #[test]
    fn rw_roundtrip_all_scalars() {
        let mut h = Heap::new();
        let a = h.alloc(64).expect("alloc");
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
        let a = h.alloc(8).expect("alloc");
        let far = (a + 1) << 30;
        assert!(matches!(
            h.read_bytes(far, 8),
            Err(MemError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn oob_near_address_space_end_does_not_wrap() {
        let mut h = Heap::new();
        let a = h.alloc(64).expect("alloc");
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
    fn scalar_access_wider_than_8_bytes_is_refused() {
        let mut h = Heap::new();
        let a = h.alloc(64).expect("alloc");
        h.write_bytes(a, 8, u64::MAX).expect("write");
        h.write_bytes(a + 8, 8, 0x0102_0304_0506_0708)
            .expect("write");
        for size in [9, 16, u64::MAX] {
            assert_eq!(h.read_bytes(a, size), Err(MemError::ScalarTooWide { size }));
            assert_eq!(
                h.write_bytes(a, size, 7),
                Err(MemError::ScalarTooWide { size })
            );
        }
        // the refused write changed nothing; every width up to 8 reads
        // its own low bytes
        assert_eq!(h.read_bytes(a, 8), Ok(u64::MAX));
        for size in 0..=8u64 {
            let mask = u64::MAX.checked_shr(64 - 8 * size as u32).unwrap_or(0);
            assert_eq!(
                h.read_bytes(a + 8, size),
                Ok(0x0102_0304_0506_0708 & mask),
                "size {size}"
            );
        }
    }

    #[test]
    fn free_and_invalid_free() {
        let mut h = Heap::new();
        let a = h.alloc(32).expect("alloc");
        assert_eq!(h.live_bytes(), 32);
        h.free(a).expect("free ok");
        assert_eq!(h.live_bytes(), 0);
        assert_eq!(h.free(a), Err(MemError::InvalidFree { addr: a }));
        h.free(0).expect("free(null) is a no-op");
    }

    #[test]
    fn realloc_preserves_prefix() {
        let mut h = Heap::new();
        let a = h.alloc(16).expect("alloc");
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
        let a = h.alloc(32).expect("alloc");
        let b = h.alloc(32).expect("alloc");
        h.memset(a, 0xab, 16).expect("memset");
        h.memcpy(b, a, 16).expect("memcpy");
        assert_eq!(h.read_bytes(b, 1).expect("read"), 0xab);
        assert_eq!(h.read_bytes(b + 15, 1).expect("read"), 0xab);
        assert_eq!(h.read_bytes(b + 16, 1).expect("read"), 0);
    }

    #[test]
    fn stats_track_peak() {
        let mut h = Heap::new();
        let a = h.alloc(100).expect("alloc");
        let _b = h.alloc(50).expect("alloc");
        h.free(a).expect("free");
        let _c = h.alloc(10).expect("alloc");
        assert_eq!(h.total_allocated(), 160);
        assert_eq!(h.peak_live(), 150);
        assert_eq!(h.live_bytes(), 60);
    }

    #[test]
    fn static_region_below_heap() {
        let mut h = Heap::new();
        let g = h.reserve_static(64).expect("reserve");
        let a = h.alloc(8).expect("alloc");
        assert!(g < a);
        h.write_bytes(g, 8, 7).expect("write global");
        assert_eq!(h.read_bytes(g, 8).expect("read"), 7);
    }

    #[test]
    fn zero_size_alloc_unique() {
        let mut h = Heap::new();
        let a = h.alloc(0).expect("alloc");
        let b = h.alloc(0).expect("alloc");
        assert_ne!(a, b);
        assert_ne!(a, 0);
    }

    #[test]
    fn allocations_past_the_memory_limit_are_refused() {
        let mut h = Heap::new();
        let a = h.alloc(64).expect("alloc");
        for bytes in [MEMORY_LIMIT, 8 << 40, u64::MAX] {
            assert_eq!(h.alloc(bytes), Err(MemError::OutOfMemory { bytes }));
            assert_eq!(h.realloc(a, bytes), Err(MemError::OutOfMemory { bytes }));
        }
        assert_eq!(
            Heap::new().reserve_static(8 << 40),
            Err(MemError::OutOfMemory { bytes: 8 << 40 })
        );
        // the refusals changed nothing
        assert_eq!(h.live_allocs(), 1);
        assert_eq!(h.total_allocated(), 64);
        assert!(h.alloc(1 << 20).is_ok());
    }
}
