//! Fundamental newtypes shared across the hardware model.

use std::fmt;

/// Size of a physical memory page in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Identifier of a CPU core.
///
/// The paper's proposed access-control table is indexed by physical page
/// and CPU; memory requests carry the originating CPU's identity ("agent
/// ID" in Intel front-side-bus terms, §5.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CpuId(pub u16);

impl fmt::Display for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// Highest representable CPU id plus one — the [`CpuMask`] width.
pub const MAX_CPUS: u16 = 1024;

const MASK_WORDS: usize = (MAX_CPUS as usize) / 64;

/// A set of CPU cores, represented as a bitmask (up to [`MAX_CPUS`]
/// cores, so discrete-event platforms can model fleets far past
/// physical core counts).
///
/// The proposed access-control table binds pages to the CPU executing a
/// PAL (§5.2); the §6 *Multicore PALs* extension adds a `join` operation
/// that admits further CPUs, so a table entry is a set, not a single id.
///
/// # Example
///
/// ```
/// use sea_hw::{CpuId, CpuMask};
///
/// let mut mask = CpuMask::single(CpuId(0));
/// assert!(mask.contains(CpuId(0)));
/// assert!(!mask.contains(CpuId(1)));
/// mask.insert(CpuId(1));
/// mask.insert(CpuId(512));
/// assert_eq!(mask.len(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CpuMask([u64; MASK_WORDS]);

impl CpuMask {
    /// The empty set.
    pub const EMPTY: CpuMask = CpuMask([0; MASK_WORDS]);

    /// A set containing exactly `cpu`.
    ///
    /// # Panics
    ///
    /// Panics for CPU ids ≥ [`MAX_CPUS`] (the mask width).
    pub fn single(cpu: CpuId) -> Self {
        let mut m = CpuMask::EMPTY;
        m.insert(cpu);
        m
    }

    /// Whether `cpu` is in the set.
    pub fn contains(self, cpu: CpuId) -> bool {
        cpu.0 < MAX_CPUS && self.0[cpu.0 as usize / 64] & (1u64 << (cpu.0 % 64)) != 0
    }

    /// Adds `cpu` to the set.
    ///
    /// # Panics
    ///
    /// Panics for CPU ids ≥ [`MAX_CPUS`].
    pub fn insert(&mut self, cpu: CpuId) {
        assert!(
            cpu.0 < MAX_CPUS,
            "CpuMask supports CPU ids below {MAX_CPUS}"
        );
        self.0[cpu.0 as usize / 64] |= 1u64 << (cpu.0 % 64);
    }

    /// Removes `cpu` from the set.
    pub fn remove(&mut self, cpu: CpuId) {
        if cpu.0 < MAX_CPUS {
            self.0[cpu.0 as usize / 64] &= !(1u64 << (cpu.0 % 64));
        }
    }

    /// Number of CPUs in the set.
    pub fn len(self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == [0; MASK_WORDS]
    }

    /// Iterates over the member CPU ids in ascending order.
    pub fn iter(self) -> impl Iterator<Item = CpuId> {
        (0..MAX_CPUS)
            .filter(move |&i| self.0[i as usize / 64] & (1u64 << (i % 64)) != 0)
            .map(CpuId)
    }
}

impl fmt::Display for CpuMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for cpu in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{cpu}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl From<CpuId> for CpuMask {
    fn from(cpu: CpuId) -> Self {
        CpuMask::single(cpu)
    }
}

/// Identifier of a DMA-capable peripheral device (e.g. a PCI NIC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub u16);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// Index of a physical memory page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageIndex(pub u32);

impl PageIndex {
    /// The physical address of the first byte of this page.
    pub fn base_addr(self) -> PhysAddr {
        PhysAddr(self.0 as u64 * PAGE_SIZE as u64)
    }
}

impl fmt::Display for PageIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page{}", self.0)
    }
}

/// A physical memory address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// The page containing this address.
    pub fn page(self) -> PageIndex {
        PageIndex((self.0 / PAGE_SIZE as u64) as u32)
    }

    /// Byte offset within the containing page.
    pub(crate) fn page_offset(self) -> usize {
        (self.0 % PAGE_SIZE as u64) as usize
    }

    /// The address `bytes` bytes past this one.
    pub fn offset(self, bytes: u64) -> PhysAddr {
        PhysAddr(self.0 + bytes)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A contiguous, inclusive-exclusive range of physical pages.
///
/// The paper requires a PAL and its SECB to be contiguous in memory "to
/// facilitate memory isolation mechanisms" (§5.1.1); this type is the
/// allocation unit the OS hands to a PAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageRange {
    /// First page in the range.
    pub start: PageIndex,
    /// Number of pages.
    pub count: u32,
}

impl PageRange {
    /// Creates a range of `count` pages starting at `start`.
    pub fn new(start: PageIndex, count: u32) -> Self {
        PageRange { start, count }
    }

    /// Iterates over the pages in the range.
    pub fn iter(&self) -> impl Iterator<Item = PageIndex> + '_ {
        (self.start.0..self.start.0 + self.count).map(PageIndex)
    }

    /// Total size of the range in bytes.
    pub fn byte_len(&self) -> usize {
        self.count as usize * PAGE_SIZE
    }

    /// Physical address of the first byte.
    pub fn base_addr(&self) -> PhysAddr {
        self.start.base_addr()
    }

    /// Whether `page` falls inside this range.
    pub fn contains(&self, page: PageIndex) -> bool {
        page.0 >= self.start.0 && page.0 < self.start.0 + self.count
    }

    /// Whether the two ranges share any page.
    pub fn overlaps(&self, other: &PageRange) -> bool {
        self.start.0 < other.start.0 + other.count && other.start.0 < self.start.0 + self.count
    }
}

impl fmt::Display for PageRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pages[{}..{})", self.start.0, self.start.0 + self.count)
    }
}

/// The originator of a memory request, as seen by the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Requester {
    /// A CPU core (front-side-bus agent).
    Cpu(CpuId),
    /// A DMA-capable device behind the south bridge / PCI bus.
    Device(DeviceId),
}

impl fmt::Display for Requester {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Requester::Cpu(c) => write!(f, "{c}"),
            Requester::Device(d) => write!(f, "{d}"),
        }
    }
}

/// Whether a memory request reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read request.
    Read,
    /// A write request.
    Write,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_page_math() {
        let a = PhysAddr(0x3_0010);
        assert_eq!(a.page(), PageIndex(0x30));
        assert_eq!(a.page_offset(), 0x10);
        assert_eq!(PageIndex(0x30).base_addr(), PhysAddr(0x3_0000));
        assert_eq!(a.offset(0x10), PhysAddr(0x3_0020));
    }

    #[test]
    fn page_range_iteration_and_contains() {
        let r = PageRange::new(PageIndex(4), 3);
        let pages: Vec<u32> = r.iter().map(|p| p.0).collect();
        assert_eq!(pages, vec![4, 5, 6]);
        assert!(r.contains(PageIndex(4)));
        assert!(r.contains(PageIndex(6)));
        assert!(!r.contains(PageIndex(7)));
        assert!(!r.contains(PageIndex(3)));
        assert_eq!(r.byte_len(), 3 * PAGE_SIZE);
    }

    #[test]
    fn page_range_overlap() {
        let a = PageRange::new(PageIndex(0), 4);
        let b = PageRange::new(PageIndex(3), 2);
        let c = PageRange::new(PageIndex(4), 2);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&c));
    }

    #[test]
    fn cpu_mask_set_operations() {
        let mut m = CpuMask::EMPTY;
        assert!(m.is_empty());
        m.insert(CpuId(0));
        m.insert(CpuId(5));
        assert_eq!(m.len(), 2);
        assert!(m.contains(CpuId(0)));
        assert!(m.contains(CpuId(5)));
        assert!(!m.contains(CpuId(1)));
        assert!(!m.contains(CpuId(64)));
        assert!(!m.contains(CpuId(MAX_CPUS)));
        m.insert(CpuId(999));
        assert!(m.contains(CpuId(999)));
        m.remove(CpuId(999));
        m.remove(CpuId(0));
        assert!(!m.contains(CpuId(0)));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![CpuId(5)]);
        assert_eq!(CpuMask::single(CpuId(3)), CpuMask::from(CpuId(3)));
        assert_eq!(CpuMask::single(CpuId(3)).to_string(), "{cpu3}");
    }

    #[test]
    #[should_panic(expected = "below 1024")]
    fn cpu_mask_rejects_wide_ids() {
        let mut m = CpuMask::EMPTY;
        m.insert(CpuId(MAX_CPUS));
    }

    #[test]
    fn display_formats() {
        assert_eq!(CpuId(2).to_string(), "cpu2");
        assert_eq!(DeviceId(1).to_string(), "dev1");
        assert_eq!(PhysAddr(0x1000).to_string(), "0x1000");
        assert_eq!(PageRange::new(PageIndex(1), 2).to_string(), "pages[1..3)");
        assert_eq!(Requester::Cpu(CpuId(0)).to_string(), "cpu0");
        assert_eq!(Requester::Device(DeviceId(3)).to_string(), "dev3");
    }
}
