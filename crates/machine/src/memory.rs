//! Linear memory and function tables.
//!
//! These are the runtime storage objects that both the interpreter and
//! JIT-compiled code access. Loads and stores are bounds-checked, producing
//! the same traps in every execution tier.

use crate::inst::TrapCode;
use wasm::types::{Limits, MAX_PAGES, PAGE_SIZE};

/// A WebAssembly linear memory.
#[derive(Debug, Clone)]
pub struct LinearMemory {
    bytes: Vec<u8>,
    limits: Limits,
}

impl LinearMemory {
    /// Creates a memory with `limits.min` pages.
    pub fn new(limits: Limits) -> LinearMemory {
        let pages = limits.min.min(MAX_PAGES);
        LinearMemory {
            bytes: vec![0; pages as usize * PAGE_SIZE as usize],
            limits,
        }
    }

    /// The current size in pages.
    pub fn size_pages(&self) -> u32 {
        (self.bytes.len() / PAGE_SIZE as usize) as u32
    }

    /// The current size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Grows the memory by `delta` pages. Returns the previous size in pages,
    /// or -1 (as the Wasm semantics require) if the grow failed.
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
        self.bytes
            .resize(new_pages as usize * PAGE_SIZE as usize, 0);
        old_pages as i32
    }

    /// Checks that an access of `width` bytes at `addr + offset` is in bounds
    /// and returns the effective address.
    pub fn check(&self, addr: u32, offset: u32, width: u32) -> Result<usize, TrapCode> {
        let effective = addr as u64 + offset as u64;
        let end = effective + width as u64;
        if end > self.bytes.len() as u64 {
            return Err(TrapCode::MemoryOutOfBounds);
        }
        Ok(effective as usize)
    }

    /// Reads `width` (1, 2, 4, or 8) bytes as a little-endian unsigned value.
    pub fn load(&self, addr: u32, offset: u32, width: u32) -> Result<u64, TrapCode> {
        let at = self.check(addr, offset, width)?;
        let mut out = [0u8; 8];
        out[..width as usize].copy_from_slice(&self.bytes[at..at + width as usize]);
        Ok(u64::from_le_bytes(out))
    }

    /// Writes the low `width` (1, 2, 4, or 8) bytes of `value` little-endian.
    pub fn store(&mut self, addr: u32, offset: u32, width: u32, value: u64) -> Result<(), TrapCode> {
        let at = self.check(addr, offset, width)?;
        let bytes = value.to_le_bytes();
        self.bytes[at..at + width as usize].copy_from_slice(&bytes[..width as usize]);
        Ok(())
    }

    /// Reads the `N` bytes at `addr + offset`: [`LinearMemory::load`] at a
    /// width known when the caller is compiled, so the copy is one access.
    /// Both execution loops (`Cpu::run` and the interpreter) load this way.
    //
    // Generic, yet the hint matters: without it this and `write_le` stay
    // calls out of `Cpu::run`'s large body, and `exec-jit` lost about a fifth
    // of the op stream's gain (1.36× against 1.65× over the `MachInst` loop).
    #[inline]
    pub fn read_le<const N: usize>(&self, addr: u32, offset: u32) -> Result<[u8; N], TrapCode> {
        let at = self.check(addr, offset, N as u32)?;
        let mut out = [0u8; N];
        out.copy_from_slice(&self.bytes[at..at + N]);
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
        let at = self.check(addr, offset, N as u32)?;
        self.bytes[at..at + N].copy_from_slice(&bytes);
        Ok(())
    }

    /// Copies raw bytes into memory (used by data segments).
    pub fn init(&mut self, offset: u32, data: &[u8]) -> Result<(), TrapCode> {
        let at = self.check(offset, 0, data.len() as u32)?;
        self.bytes[at..at + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Direct read-only access to the backing bytes (for tests and tools).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
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
