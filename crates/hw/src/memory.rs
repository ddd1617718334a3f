//! Page-granular physical memory.
//!
//! [`Memory`] stores raw bytes only; *who may touch them* is decided by
//! the [`crate::MemoryController`]. The [`crate::Machine`] composes the
//! two so every read/write is permission-checked, exactly like requests
//! flowing through the north bridge in Figure 1 of the paper.
//!
//! Pages are demand-zero: a page gets host memory on its first write, a
//! page never written reads as zeros, and [`Memory::zero_page`] gives
//! the page's host memory back. A platform's host footprint therefore
//! follows the handful of pages its PALs touch, not its installed DRAM.

use crate::error::HwError;
use crate::types::{PageIndex, PhysAddr, PAGE_SIZE};

/// Physical memory as an array of demand-zero pages.
#[derive(Clone)]
pub struct Memory {
    /// `None` until first written, and again once zeroed: reads as zeros.
    pages: Vec<Option<Box<[u8; PAGE_SIZE]>>>,
}

impl std::fmt::Debug for Memory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memory")
            .field("pages", &self.pages.len())
            .field("bytes", &(self.pages.len() * PAGE_SIZE))
            .finish()
    }
}

impl Memory {
    /// Installs `num_pages` pages, all reading as zeros. No page holds
    /// host memory until it is written.
    pub fn new(num_pages: u32) -> Self {
        Memory {
            pages: vec![None; num_pages as usize],
        }
    }

    /// Number of installed pages.
    pub fn num_pages(&self) -> u32 {
        self.pages.len() as u32
    }

    /// Number of pages holding host memory: written since installation
    /// or since they were last zeroed.
    pub fn resident_pages(&self) -> u32 {
        self.pages.iter().filter(|p| p.is_some()).count() as u32
    }

    /// Total installed bytes.
    pub fn byte_len(&self) -> u64 {
        self.pages.len() as u64 * PAGE_SIZE as u64
    }

    fn check_range(&self, addr: PhysAddr, len: usize) -> Result<(), HwError> {
        let end = addr.0.checked_add(len as u64);
        match end {
            Some(end) if end <= self.byte_len() => Ok(()),
            _ => Err(HwError::AddressOutOfRange { addr }),
        }
    }

    /// Reads `len` bytes starting at `addr` (no permission check — use
    /// [`crate::Machine::read`] for the checked path).
    ///
    /// # Errors
    ///
    /// Returns [`HwError::AddressOutOfRange`] if the range exceeds
    /// installed memory.
    pub fn read_raw(&self, addr: PhysAddr, len: usize) -> Result<Vec<u8>, HwError> {
        self.check_range(addr, len)?;
        let mut out = Vec::with_capacity(len);
        let mut cur = addr;
        let mut remaining = len;
        while remaining > 0 {
            let off = cur.page_offset();
            let take = remaining.min(PAGE_SIZE - off);
            match &self.pages[cur.page().0 as usize] {
                Some(page) => out.extend_from_slice(&page[off..off + take]),
                None => out.resize(out.len() + take, 0),
            }
            cur = cur.offset(take as u64);
            remaining -= take;
        }
        Ok(out)
    }

    /// Writes `data` starting at `addr` (no permission check — use
    /// [`crate::Machine::write`] for the checked path). A page written
    /// for the first time gets its host memory here, after the range
    /// check, so a rejected write leaves no page behind.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::AddressOutOfRange`] if the range exceeds
    /// installed memory.
    pub fn write_raw(&mut self, addr: PhysAddr, data: &[u8]) -> Result<(), HwError> {
        self.check_range(addr, data.len())?;
        let mut cur = addr;
        let mut src = data;
        while !src.is_empty() {
            let page =
                self.pages[cur.page().0 as usize].get_or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            let off = cur.page_offset();
            let take = src.len().min(PAGE_SIZE - off);
            page[off..off + take].copy_from_slice(&src[..take]);
            cur = cur.offset(take as u64);
            src = &src[take..];
        }
        Ok(())
    }

    /// Zeroes an entire page, returning its host memory. Used by `SKILL`
    /// ("erase all memory pages associated with the PAL", §5.5) and by
    /// PAL application-level state clears.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::AddressOutOfRange`] for a non-installed page.
    pub fn zero_page(&mut self, page: PageIndex) -> Result<(), HwError> {
        let idx = page.0 as usize;
        if idx >= self.pages.len() {
            return Err(HwError::AddressOutOfRange {
                addr: page.base_addr(),
            });
        }
        self.pages[idx] = None;
        Ok(())
    }

    /// Pages touched by the byte range `[addr, addr+len)`.
    pub(crate) fn pages_spanned(addr: PhysAddr, len: usize) -> impl Iterator<Item = PageIndex> {
        let first = addr.page().0;
        let last = if len == 0 {
            first
        } else {
            addr.offset(len as u64 - 1).page().0
        };
        (first..=last).map(PageIndex)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip_within_page() {
        let mut m = Memory::new(4);
        m.write_raw(PhysAddr(100), b"hello").unwrap();
        assert_eq!(m.read_raw(PhysAddr(100), 5).unwrap(), b"hello");
    }

    #[test]
    fn unwritten_pages_read_as_zeros_and_hold_no_host_memory() {
        let mut m = Memory::new(4);
        assert_eq!(m.resident_pages(), 0);
        let addr = PhysAddr(PAGE_SIZE as u64 - 3);
        m.write_raw(addr, b"abc").unwrap();
        assert_eq!(m.resident_pages(), 1);
        // Written bytes from page 0, then zeros from never-written page 1.
        assert_eq!(m.read_raw(addr, 6).unwrap(), b"abc\0\0\0");
        assert_eq!(m.resident_pages(), 1, "reads allocate nothing");
    }

    #[test]
    fn read_write_spanning_pages() {
        let mut m = Memory::new(4);
        let addr = PhysAddr(PAGE_SIZE as u64 - 2);
        m.write_raw(addr, b"abcdef").unwrap();
        assert_eq!(m.read_raw(addr, 6).unwrap(), b"abcdef");
        // The tail landed on page 1.
        assert_eq!(m.read_raw(PhysAddr(PAGE_SIZE as u64), 4).unwrap(), b"cdef");
    }

    #[test]
    fn out_of_range_rejected() {
        let mut m = Memory::new(1);
        let end = PhysAddr(PAGE_SIZE as u64);
        assert!(matches!(
            m.read_raw(end, 1),
            Err(HwError::AddressOutOfRange { .. })
        ));
        assert!(matches!(
            m.write_raw(PhysAddr(PAGE_SIZE as u64 - 1), b"ab"),
            Err(HwError::AddressOutOfRange { .. })
        ));
        // The rejected write's first byte fell on page 0, which still
        // holds no host memory: the range check comes first.
        assert_eq!(m.resident_pages(), 0);
        // Reading zero bytes at the very end is fine.
        assert_eq!(m.read_raw(end, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn overflowing_range_rejected() {
        let m = Memory::new(1);
        assert!(matches!(
            m.read_raw(PhysAddr(u64::MAX), 2),
            Err(HwError::AddressOutOfRange { .. })
        ));
    }

    #[test]
    fn zero_page_erases() {
        let mut m = Memory::new(2);
        m.write_raw(PhysAddr(PAGE_SIZE as u64 + 10), b"secret")
            .unwrap();
        assert_eq!(m.resident_pages(), 1);
        m.zero_page(PageIndex(1)).unwrap();
        assert_eq!(
            m.read_raw(PhysAddr(PAGE_SIZE as u64 + 10), 6).unwrap(),
            vec![0u8; 6]
        );
        assert_eq!(m.resident_pages(), 0, "zeroing returns the page");
        // A never-written page has nothing to erase...
        m.zero_page(PageIndex(0)).unwrap();
        assert_eq!(m.resident_pages(), 0);
        assert_eq!(
            m.read_raw(PhysAddr(0), 2 * PAGE_SIZE).unwrap(),
            vec![0u8; 2 * PAGE_SIZE]
        );
        // ...but a page past installed memory is still refused.
        assert!(m.zero_page(PageIndex(2)).is_err());
    }

    #[test]
    fn clone_copies_resident_pages_only() {
        let mut m = Memory::new(8);
        m.write_raw(PhysAddr(0), b"orig").unwrap();
        let mut c = m.clone();
        assert_eq!(c.resident_pages(), 1);
        c.write_raw(PhysAddr(0), b"copy").unwrap();
        c.write_raw(PhysAddr(3 * PAGE_SIZE as u64), b"new").unwrap();
        assert_eq!(c.resident_pages(), 2);
        // The original is untouched by writes to the clone.
        assert_eq!(m.read_raw(PhysAddr(0), 4).unwrap(), b"orig");
        assert_eq!(
            m.read_raw(PhysAddr(3 * PAGE_SIZE as u64), 3).unwrap(),
            vec![0u8; 3]
        );
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn pages_spanned_math() {
        let pages: Vec<u32> = Memory::pages_spanned(PhysAddr(0), PAGE_SIZE + 1)
            .map(|p| p.0)
            .collect();
        assert_eq!(pages, vec![0, 1]);
        let pages: Vec<u32> = Memory::pages_spanned(PhysAddr(10), 0)
            .map(|p| p.0)
            .collect();
        assert_eq!(pages, vec![0]);
        let pages: Vec<u32> = Memory::pages_spanned(PhysAddr(PAGE_SIZE as u64 - 1), 2)
            .map(|p| p.0)
            .collect();
        assert_eq!(pages, vec![0, 1]);
    }
}
