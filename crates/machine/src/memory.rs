//! Linear memory and function tables.
//!
//! These are the runtime storage objects that both the interpreter and
//! JIT-compiled code access. Loads and stores are bounds-checked, producing
//! the same traps in every execution tier.
//!
//! A linear memory is backed on demand, like the value stack: it keeps its
//! size and a backed prefix whose tail reads as zero. Creating or growing a
//! memory only sets the size. A data segment or a store past the prefix
//! backs it through one cold path (at least doubling, from a 4 KiB floor,
//! capped at the size, the value stack's policy); a load past the prefix
//! reads zeros through another and backs nothing. So an instance pays for the bytes its module touches, not for
//! the pages it declares, and one `memory.grow` never makes the host zero
//! gigabytes. Every bounds check is against the size; the in-bounds fast
//! path of [`LinearMemory::read_le`] / [`LinearMemory::write_le`] is one
//! compare against the prefix length.

use crate::inst::TrapCode;
use wasm::types::{Limits, MAX_PAGES, PAGE_SIZE};

/// The least a fault backs: one host page.
const BACKING_FLOOR: usize = 4096;

/// A WebAssembly linear memory.
#[derive(Debug, Clone)]
pub struct LinearMemory {
    /// The backed prefix of the memory; never longer than `size`.
    bytes: Vec<u8>,
    /// The size in bytes, a whole number of pages; `[bytes.len(), size)`
    /// reads as zero.
    size: usize,
    limits: Limits,
}

impl LinearMemory {
    /// Creates a memory with `limits.min` pages, none of them backed yet.
    pub fn new(limits: Limits) -> LinearMemory {
        LinearMemory::reusing(Vec::new(), limits)
    }

    /// Creates a memory like [`LinearMemory::new`] that keeps this one's
    /// allocation: the part of it that was backed stays backed (up to the
    /// new size) and is zeroed here, so a recycled instance's first stores
    /// land in memory that is already there.
    pub fn recycle(self, limits: Limits) -> LinearMemory {
        let mut memory = LinearMemory::reusing(self.bytes, limits);
        memory.bytes.fill(0);
        memory
    }

    /// A memory of `limits.min` pages in `bytes`' allocation, whose contents
    /// up to that size become the backed prefix.
    fn reusing(mut bytes: Vec<u8>, limits: Limits) -> LinearMemory {
        let size = limits.min.min(MAX_PAGES) as usize * PAGE_SIZE as usize;
        bytes.truncate(size);
        LinearMemory { bytes, size, limits }
    }

    /// The current size in pages.
    pub fn size_pages(&self) -> u32 {
        (self.size / PAGE_SIZE as usize) as u32
    }

    /// The current size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.size
    }

    /// Grows the memory by `delta` pages. Returns the previous size in pages,
    /// or -1 (as the Wasm semantics require) if the grow failed. Backs
    /// nothing: the new pages read as zero until they are stored to.
    pub fn grow(&mut self, delta: u32) -> i32 {
        let old_pages = self.size_pages();
        let new_pages = match old_pages.checked_add(delta) {
            Some(p) => p,
            None => return -1,
        };
        let max = self.limits.max.unwrap_or(MAX_PAGES).min(MAX_PAGES);
        if new_pages > max {
            return -1;
        }
        self.size = new_pages as usize * PAGE_SIZE as usize;
        old_pages as i32
    }

    /// Checks that an access of `width` bytes at `addr + offset` is in bounds
    /// and returns the effective address.
    pub fn check(&self, addr: u32, offset: u32, width: u32) -> Result<usize, TrapCode> {
        let effective = addr as u64 + offset as u64;
        let end = effective + width as u64;
        if end > self.size as u64 {
            return Err(TrapCode::MemoryOutOfBounds);
        }
        Ok(effective as usize)
    }

    /// Reads `width` (1, 2, 4, or 8) bytes as a little-endian unsigned value.
    pub fn load(&self, addr: u32, offset: u32, width: u32) -> Result<u64, TrapCode> {
        let at = self.check(addr, offset, width)?;
        let mut out = [0u8; 8];
        self.copy_out(at, &mut out[..width as usize]);
        Ok(u64::from_le_bytes(out))
    }

    /// Writes the low `width` (1, 2, 4, or 8) bytes of `value` little-endian.
    pub fn store(&mut self, addr: u32, offset: u32, width: u32, value: u64) -> Result<(), TrapCode> {
        let at = self.check(addr, offset, width)?;
        self.copy_in(at, &value.to_le_bytes()[..width as usize])
    }

    /// Reads the `N` bytes at `addr + offset`: [`LinearMemory::load`] at a
    /// width known when the caller is compiled, so the copy is one access.
    /// Both execution loops (`Cpu::run` and the interpreter) load this way.
    //
    // Generic, yet the hint matters: without it this and `write_le` stay
    // calls out of `Cpu::run`'s large body, and `exec-jit` lost about a fifth
    // of the op stream's gain (1.36× against 1.65× over the `MachInst` loop).
    // An access past the prefix goes through a non-generic cold call, so the
    // loops carry only the call. Its value comes back in a register: filled
    // through a pointer to `out`, the in-prefix path kept `out` on the stack
    // and `Interpreter::run` grew by another kilobyte.
    #[inline]
    pub fn read_le<const N: usize>(&self, addr: u32, offset: u32) -> Result<[u8; N], TrapCode> {
        const { assert!(N <= 8) };
        let at = addr as u64 + offset as u64;
        let mut out = [0u8; N];
        if at + N as u64 <= self.bytes.len() as u64 {
            let at = at as usize;
            out.copy_from_slice(&self.bytes[at..at + N]);
        } else {
            out.copy_from_slice(&self.read_past(at, N as u32)?.to_le_bytes()[..N]);
        }
        Ok(out)
    }

    /// Writes `bytes` at `addr + offset`: [`LinearMemory::store`] at a width
    /// known when the caller is compiled.
    #[inline]
    pub fn write_le<const N: usize>(
        &mut self,
        addr: u32,
        offset: u32,
        bytes: [u8; N],
    ) -> Result<(), TrapCode> {
        let at = addr as u64 + offset as u64;
        if at + N as u64 > self.bytes.len() as u64 {
            self.back(at + N as u64)?;
        }
        let at = at as usize;
        self.bytes[at..at + N].copy_from_slice(&bytes);
        Ok(())
    }

    /// Copies raw bytes into memory (used by data segments).
    pub fn init(&mut self, offset: u32, data: &[u8]) -> Result<(), TrapCode> {
        let at = self.check(offset, 0, data.len() as u32)?;
        if data.is_empty() {
            return Ok(());
        }
        self.copy_in(at, data)
    }

    /// A copy of the memory's contents, all [`LinearMemory::size_bytes`] of
    /// them, the unbacked tail as zeros (for tests and tools).
    pub fn bytes(&self) -> Vec<u8> {
        let mut contents = self.bytes.clone();
        contents.resize(self.size, 0);
        contents
    }

    /// Copies the in-bounds bytes at `at` into `out`, zeros past the prefix.
    fn copy_out(&self, at: usize, out: &mut [u8]) {
        let backed = self.bytes.get(at..).unwrap_or(&[]);
        let n = backed.len().min(out.len());
        out[..n].copy_from_slice(&backed[..n]);
        out[n..].fill(0);
    }

    /// Copies `data` to the in-bounds address `at`, backing it first.
    fn copy_in(&mut self, at: usize, data: &[u8]) -> Result<(), TrapCode> {
        let end = at + data.len();
        if end > self.bytes.len() {
            self.back(end as u64)?;
        }
        self.bytes[at..end].copy_from_slice(data);
        Ok(())
    }

    /// The slow half of [`LinearMemory::read_le`]: an access of `width`
    /// bytes at `at` that does not lie inside the prefix, either out of
    /// bounds or reading (some) zeros. Returns the value as
    /// [`LinearMemory::load`] does, in a register rather than through the
    /// caller's buffer.
    #[cold]
    #[inline(never)]
    fn read_past(&self, at: u64, width: u32) -> Result<u64, TrapCode> {
        if at + width as u64 > self.size as u64 {
            return Err(TrapCode::MemoryOutOfBounds);
        }
        let mut out = [0u8; 8];
        self.copy_out(at as usize, &mut out[..width as usize]);
        Ok(u64::from_le_bytes(out))
    }

    /// Backs the memory up to `end`, or traps if `end` is past its size.
    /// The prefix at least doubles, so the copies stay amortized over a
    /// module that writes its way up through memory.
    #[cold]
    #[inline(never)]
    fn back(&mut self, end: u64) -> Result<(), TrapCode> {
        if end > self.size as u64 {
            return Err(TrapCode::MemoryOutOfBounds);
        }
        let backed = (end as usize)
            .max(2 * self.bytes.len())
            .max(BACKING_FLOOR)
            .min(self.size);
        self.bytes.resize(backed, 0);
        Ok(())
    }
}

/// A function table (`funcref` elements only).
#[derive(Debug, Clone)]
pub struct Table {
    elements: Vec<Option<u32>>,
    limits: Limits,
}

impl Table {
    /// Creates a table with `limits.min` null elements.
    pub fn new(limits: Limits) -> Table {
        Table {
            elements: vec![None; limits.min as usize],
            limits,
        }
    }

    /// The declared limits.
    pub fn limits(&self) -> Limits {
        self.limits
    }

    /// Reads the element at `index`.
    pub fn get(&self, index: u32) -> Result<Option<u32>, TrapCode> {
        self.elements
            .get(index as usize)
            .copied()
            .ok_or(TrapCode::TableOutOfBounds)
    }

    /// Writes the element at `index`.
    pub fn set(&mut self, index: u32, func: Option<u32>) -> Result<(), TrapCode> {
        match self.elements.get_mut(index as usize) {
            Some(slot) => {
                *slot = func;
                Ok(())
            }
            None => Err(TrapCode::TableOutOfBounds),
        }
    }

    /// Initializes a run of elements (used by element segments).
    pub fn init(&mut self, offset: u32, funcs: &[u32]) -> Result<(), TrapCode> {
        let end = offset as usize + funcs.len();
        if end > self.elements.len() {
            return Err(TrapCode::TableOutOfBounds);
        }
        for (i, &f) in funcs.iter().enumerate() {
            self.elements[offset as usize + i] = Some(f);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_basic_load_store() {
        let mut m = LinearMemory::new(Limits::at_least(1));
        assert_eq!(m.size_pages(), 1);
        assert_eq!(m.size_bytes(), PAGE_SIZE as usize);
        m.store(16, 0, 4, 0xAABBCCDD).unwrap();
        assert_eq!(m.load(16, 0, 4).unwrap(), 0xAABBCCDD);
        assert_eq!(m.load(16, 0, 1).unwrap(), 0xDD);
        assert_eq!(m.load(12, 4, 4).unwrap(), 0xAABBCCDD);
        m.store(0, 0, 8, u64::MAX).unwrap();
        assert_eq!(m.load(0, 0, 8).unwrap(), u64::MAX);
        // The fixed-width forms read and write the same little-endian bytes.
        assert_eq!(m.read_le::<4>(12, 4), Ok(0xAABBCCDDu32.to_le_bytes()));
        m.write_le(20, 2, 0x1122u16.to_le_bytes()).unwrap();
        assert_eq!(m.load(22, 0, 2).unwrap(), 0x1122);
    }

    #[test]
    fn memory_bounds_checks() {
        let m = LinearMemory::new(Limits::at_least(1));
        let size = m.size_bytes() as u32;
        assert!(m.load(size - 4, 0, 4).is_ok());
        assert_eq!(m.load(size - 3, 0, 4), Err(TrapCode::MemoryOutOfBounds));
        assert_eq!(m.load(size, 0, 1), Err(TrapCode::MemoryOutOfBounds));
        // Offset + addr overflow must not wrap.
        assert_eq!(
            m.load(u32::MAX, u32::MAX, 8),
            Err(TrapCode::MemoryOutOfBounds)
        );
        assert_eq!(m.read_le::<4>(size - 3, 0), Err(TrapCode::MemoryOutOfBounds));
        assert_eq!(m.read_le::<8>(u32::MAX, u32::MAX), Err(TrapCode::MemoryOutOfBounds));
        let mut m = m;
        assert_eq!(m.write_le(size - 1, 1, [0u8]), Err(TrapCode::MemoryOutOfBounds));
    }

    #[test]
    fn memory_grow_respects_max() {
        let mut m = LinearMemory::new(Limits::bounded(1, 3));
        assert_eq!(m.grow(1), 1);
        assert_eq!(m.size_pages(), 2);
        assert_eq!(m.grow(2), -1, "would exceed max");
        assert_eq!(m.grow(1), 2);
        assert_eq!(m.grow(1), -1);
        assert_eq!(m.size_pages(), 3);
    }

    #[test]
    fn memory_init_data() {
        let mut m = LinearMemory::new(Limits::at_least(1));
        m.init(100, &[1, 2, 3]).unwrap();
        assert_eq!(m.load(100, 0, 1).unwrap(), 1);
        assert_eq!(m.load(102, 0, 1).unwrap(), 3);
        assert!(m.init(PAGE_SIZE - 1, &[1, 2]).is_err());
    }

    /// How many bytes of `m` are backed.
    fn backed(m: &LinearMemory) -> usize {
        m.bytes.len()
    }

    #[test]
    fn a_read_past_the_prefix_is_zero_and_backs_nothing() {
        let mut m = LinearMemory::new(Limits::at_least(2));
        assert_eq!(backed(&m), 0, "a new memory backs no page");
        assert_eq!(m.load(70_000, 0, 8), Ok(0));
        assert_eq!(m.read_le::<4>(PAGE_SIZE, 12), Ok([0; 4]));
        assert_eq!(backed(&m), 0, "reads back nothing");
        m.write_le(0, 0, [7u8]).unwrap();
        assert_eq!(backed(&m), BACKING_FLOOR);
        assert_eq!(m.read_le::<8>(PAGE_SIZE + 100, 0), Ok([0; 8]));
        assert_eq!(backed(&m), BACKING_FLOOR);
    }

    #[test]
    fn a_read_and_a_write_straddle_the_prefix_end() {
        let mut m = LinearMemory::new(Limits::at_least(1));
        m.store(0, 0, 1, 0x11).unwrap();
        let end = backed(&m) as u32;
        assert!(end > 0 && (end as usize) < m.size_bytes());
        m.store(end - 1, 0, 1, 0xAB).unwrap();
        // Three bytes inside the prefix, five past it.
        assert_eq!(m.read_le::<8>(end - 3, 0), Ok([0, 0, 0xAB, 0, 0, 0, 0, 0]));
        assert_eq!(m.load(end - 2, 0, 4), Ok(0xAB00));
        m.write_le(end - 2, 0, 0x0403_0201u32.to_le_bytes()).unwrap();
        assert!(backed(&m) >= end as usize + 2, "the write backed its tail");
        assert_eq!(m.load(end - 3, 0, 8), Ok(0x04_0302_0100));
        m.store(end - 4, 4, 8, u64::MAX).unwrap();
        assert_eq!(m.read_le::<8>(end, 0), Ok([0xFF; 8]));
    }

    #[test]
    fn grown_pages_read_zero_and_take_stores() {
        let mut m = LinearMemory::new(Limits::bounded(1, 4));
        m.store(8, 0, 4, 0xDEAD_BEEF).unwrap();
        assert_eq!(m.grow(3), 1);
        assert_eq!(m.size_bytes(), 4 * PAGE_SIZE as usize);
        assert!(backed(&m) < PAGE_SIZE as usize, "grow backs nothing");
        let last = 4 * PAGE_SIZE - 8;
        assert_eq!(m.load(last, 0, 8), Ok(0));
        assert_eq!(m.load(PAGE_SIZE, 0, 8), Ok(0));
        m.write_le(last, 0, 0x0102_0304_0506_0708u64.to_le_bytes()).unwrap();
        m.store(2 * PAGE_SIZE, 1, 2, 0xBEEF).unwrap();
        assert_eq!(backed(&m), m.size_bytes(), "backed up to the last store, capped at the size");
        assert_eq!(m.load(last, 0, 8), Ok(0x0102_0304_0506_0708));
        assert_eq!(m.load(2 * PAGE_SIZE, 1, 2), Ok(0xBEEF));
        assert_eq!(m.load(8, 0, 4), Ok(0xDEAD_BEEF), "the old prefix moved with the backing");
        assert_eq!(m.load(3 * PAGE_SIZE, 0, 8), Ok(0));
    }

    #[test]
    fn an_access_ending_at_the_size_is_in_bounds_and_one_byte_more_traps() {
        for (pages, stored) in [(1, false), (1, true), (3, false), (3, true)] {
            let mut m = LinearMemory::new(Limits::at_least(pages));
            if stored {
                m.store(0, 0, 1, 1).unwrap();
            }
            let size = m.size_bytes() as u32;
            assert_eq!(m.read_le::<8>(size - 8, 0), Ok([0; 8]));
            assert_eq!(m.read_le::<8>(size - 7, 0), Err(TrapCode::MemoryOutOfBounds));
            assert_eq!(m.read_le::<1>(size, 0), Err(TrapCode::MemoryOutOfBounds));
            assert_eq!(m.load(size - 4, 3, 1), Ok(0));
            assert_eq!(m.load(size - 4, 4, 1), Err(TrapCode::MemoryOutOfBounds));
            let before = backed(&m);
            assert_eq!(m.write_le(size - 3, 0, [1u8; 4]), Err(TrapCode::MemoryOutOfBounds));
            assert_eq!(m.store(size, 0, 1, 1), Err(TrapCode::MemoryOutOfBounds));
            assert_eq!(m.init(size - 1, &[1, 2]), Err(TrapCode::MemoryOutOfBounds));
            assert_eq!(backed(&m), before, "a trapping access backs nothing");
            m.write_le(size - 8, 0, [9u8; 8]).unwrap();
            assert_eq!(m.load(size - 1, 0, 1), Ok(9));
            assert_eq!(backed(&m), size as usize);
        }
    }

    #[test]
    fn init_past_the_prefix_backs_only_what_it_writes() {
        let mut m = LinearMemory::new(Limits::at_least(16));
        m.init(40_000, &[1, 2, 3]).unwrap();
        assert_eq!(backed(&m), 40_003.max(BACKING_FLOOR));
        assert_eq!(m.load(39_999, 0, 8), Ok(0x0302_0100));
        m.init(16 * PAGE_SIZE - 2, &[5, 6]).unwrap();
        assert_eq!(backed(&m), m.size_bytes());
        assert_eq!(m.load(16 * PAGE_SIZE - 2, 0, 2), Ok(0x0605));
        assert_eq!(m.init(16 * PAGE_SIZE, &[]), Ok(()), "an empty segment at the end fits");
    }

    #[test]
    fn contents_compare_equal_whatever_is_backed() {
        let mut m = LinearMemory::new(Limits::bounded(2, 3));
        m.store(100, 0, 4, 0x0A0B_0C0D).unwrap();
        let copy = m.clone();
        assert_eq!(copy.bytes(), m.bytes());
        assert_eq!(m.bytes().len(), m.size_bytes(), "contents run to the size");
        // Back far more of one side with zeros: still equal.
        let mut wide = m.clone();
        wide.store(2 * PAGE_SIZE - 1, 0, 1, 0).unwrap();
        assert!(backed(&wide) > backed(&m));
        assert_eq!(wide.bytes(), m.bytes());
        wide.store(2 * PAGE_SIZE - 1, 0, 1, 1).unwrap();
        assert_ne!(wide.bytes(), m.bytes(), "a byte in the tail differs");
        let mut grown = m.clone();
        grown.grow(1);
        assert_ne!(grown.bytes(), m.bytes(), "sizes differ");
        // A recycled memory is a new one in an old allocation.
        let recycled = wide.recycle(Limits::bounded(2, 3));
        assert_eq!(recycled.bytes(), LinearMemory::new(Limits::bounded(2, 3)).bytes());
        assert_eq!(backed(&recycled), 2 * PAGE_SIZE as usize, "the backing was kept");
        assert_eq!(backed(&recycled.recycle(Limits::at_least(1))), PAGE_SIZE as usize);
    }

    #[test]
    fn table_get_set_init() {
        let mut t = Table::new(Limits::bounded(4, 8));
        assert_eq!(t.get(3), Ok(None), "limits.min elements");
        assert_eq!(t.get(0).unwrap(), None);
        t.set(1, Some(7)).unwrap();
        assert_eq!(t.get(1).unwrap(), Some(7));
        assert_eq!(t.get(4), Err(TrapCode::TableOutOfBounds));
        assert_eq!(t.set(9, None), Err(TrapCode::TableOutOfBounds));
        t.init(2, &[5, 6]).unwrap();
        assert_eq!(t.get(2).unwrap(), Some(5));
        assert_eq!(t.get(3).unwrap(), Some(6));
        assert!(t.init(3, &[1, 2]).is_err());
        assert_eq!(t.limits(), Limits::bounded(4, 8));
    }
}
