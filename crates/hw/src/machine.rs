//! The assembled machine: CPUs + memory + memory controller + LPC bus.
//!
//! [`Machine`] is the composition root of the hardware substrate. Every
//! memory access flows through [`Machine::read`] / [`Machine::write`],
//! which consult the [`MemoryController`] exactly as requests flow
//! through the north bridge in Figure 1 of the paper — this is what makes
//! the isolation experiments real rather than asserted.

use crate::controller::MemoryController;
use crate::cpu::Cpu;
use crate::error::HwError;
use crate::lpc::LpcBus;
use crate::memory::Memory;
use crate::obs::{Layer, Obs, PLATFORM_TRACK};
use crate::platform::Platform;
use crate::reset::RESET_REBOOT_COST;
use crate::time::{SimClock, SimDuration, SimTime};
use crate::trace::{Trace, TraceEvent};
use crate::types::{AccessKind, CpuId, DeviceId, PhysAddr, Requester};

/// A DMA-capable peripheral (e.g. the "DMA-capable Ethernet card with
/// access to the PCI bus" of the paper's threat model, §3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Device {
    id: DeviceId,
    name: String,
}

impl Device {
    /// The device's identifier.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// The device's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// A live hardware platform.
///
/// # Example
///
/// ```
/// use sea_hw::{Machine, Platform, CpuId, PageRange, PageIndex, Requester, PhysAddr};
///
/// let mut m = Machine::new(Platform::recommended(2));
/// let range = PageRange::new(PageIndex(8), 2);
/// m.controller_mut().protect_for_cpu(range, CpuId(0)).unwrap();
///
/// // The owning CPU can write; the other CPU is denied by the
/// // access-control table.
/// let base = range.base_addr();
/// assert!(m.write(Requester::Cpu(CpuId(0)), base, b"secret").is_ok());
/// assert!(m.read(Requester::Cpu(CpuId(1)), base, 6).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    // -- persistent half: survives a platform reset ------------------
    // The platform description and buses are the hardware itself; DRAM
    // contents are deliberately not modelled as cleared (§3.2 considers
    // memory-remanence attacks out of scope); the clock is the outside
    // observer's timeline and only ever moves forward; the trace is the
    // experimenter's log, not machine state.
    platform: Platform,
    clock: SimClock,
    memory: Memory,
    lpc: LpcBus,
    devices: Vec<Device>,
    trace: Trace,
    obs: Obs,
    // -- volatile half: rebuilt from scratch by [`Machine::reset`] ---
    volatile: VolatileState,
}

/// The half of the machine a power loss vaporises: per-CPU execution
/// state (secure-execution mode, preemption timers) and the memory
/// controller's access-control table, which the north bridge rebuilds
/// to its power-on default (every page `ALL`) at reset.
#[derive(Debug, Clone)]
struct VolatileState {
    cpus: Vec<Cpu>,
    controller: MemoryController,
}

impl VolatileState {
    fn fresh(platform: &Platform) -> Self {
        VolatileState {
            cpus: platform
                .cpu_ids()
                .map(|id| Cpu::new(id, platform.cpu_ghz))
                .collect(),
            controller: MemoryController::new(platform.mem_pages),
        }
    }
}

impl Machine {
    /// Instantiates a machine from a platform description.
    pub fn new(platform: Platform) -> Self {
        MachineBuilder::new(platform).build()
    }

    /// Starts a builder for customized construction.
    pub fn builder(platform: Platform) -> MachineBuilder {
        MachineBuilder::new(platform)
    }

    /// The platform description this machine was built from.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Advances virtual time by `d` *and* records an attributed leaf
    /// span on the observability sink. This and [`Machine::reset`] are
    /// the only calls that move the clock, and both record what they
    /// move it by, so per-layer attribution and total virtual time agree
    /// by construction.
    pub fn charge(&mut self, layer: Layer, op: &'static str, d: SimDuration) {
        self.obs.leaf(layer, op, d);
        self.clock.advance(d);
    }

    /// Installs the observability handle charges emit through. The
    /// default is the null sink.
    pub fn install_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The machine's observability handle (cheap to clone).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The CPU with identifier `id`.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::NoSuchCpu`] for an invalid identifier.
    pub fn cpu(&self, id: CpuId) -> Result<&Cpu, HwError> {
        self.volatile
            .cpus
            .get(id.0 as usize)
            .ok_or(HwError::NoSuchCpu(id))
    }

    /// Mutable access to the CPU with identifier `id`.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::NoSuchCpu`] for an invalid identifier.
    pub fn cpu_mut(&mut self, id: CpuId) -> Result<&mut Cpu, HwError> {
        self.volatile
            .cpus
            .get_mut(id.0 as usize)
            .ok_or(HwError::NoSuchCpu(id))
    }

    /// All CPUs.
    pub fn cpus(&self) -> &[Cpu] {
        &self.volatile.cpus
    }

    /// The memory controller (north bridge).
    pub fn controller(&self) -> &MemoryController {
        &self.volatile.controller
    }

    /// Mutable access to the memory controller. In real hardware only
    /// privileged instructions reach these knobs; the secure-execution
    /// protocols in `sea-core` are the intended callers.
    pub fn controller_mut(&mut self) -> &mut MemoryController {
        &mut self.volatile.controller
    }

    /// Platform reset: power is lost and restored. The volatile half —
    /// every CPU's execution state and the whole access-control table —
    /// is rebuilt to its power-on default; memory contents, the buses,
    /// and the trace persist, and the clock moves monotonically forward
    /// by [`RESET_REBOOT_COST`] (a reboot costs time, it never rewinds
    /// it). Records [`TraceEvent::PlatformReset`] at the instant of the
    /// power loss and returns the reboot cost charged.
    pub fn reset(&mut self) -> SimDuration {
        let at = self.clock.now();
        self.trace.record(at, TraceEvent::PlatformReset);
        self.volatile = VolatileState::fresh(&self.platform);
        // A reboot belongs to no session: charge it on the platform
        // track so per-session span streams stay interleaving-free.
        self.obs
            .leaf_on(PLATFORM_TRACK, Layer::Hw, "hw.reset", RESET_REBOOT_COST);
        self.clock.advance(RESET_REBOOT_COST);
        RESET_REBOOT_COST
    }

    /// Raw physical memory (unchecked path — prefer [`Machine::read`]).
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Mutable raw physical memory (unchecked path — prefer
    /// [`Machine::write`]).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.memory
    }

    /// The LPC bus.
    pub fn lpc(&self) -> &LpcBus {
        &self.lpc
    }

    /// The installed DMA-capable devices.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Permission-checked memory read on behalf of `requester`.
    ///
    /// # Errors
    ///
    /// [`HwError::AccessDenied`] if the memory controller blocks any page
    /// in the range; [`HwError::AddressOutOfRange`] past installed memory.
    pub fn read(
        &self,
        requester: Requester,
        addr: PhysAddr,
        len: usize,
    ) -> Result<Vec<u8>, HwError> {
        for page in Memory::pages_spanned(addr, len) {
            self.volatile
                .controller
                .check(requester, AccessKind::Read, page)?;
        }
        self.memory.read_raw(addr, len)
    }

    /// The hardware event trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable access to the trace — higher layers record protocol
    /// events ([`TraceEvent::Note`], secure enter/leave) here.
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// Permission-checked read that *records* denials in the trace.
    /// Functionally identical to [`Machine::read`]; this variant needs
    /// `&mut self` for the trace.
    ///
    /// # Errors
    ///
    /// As for [`Machine::read`].
    pub fn read_traced(
        &mut self,
        requester: Requester,
        addr: PhysAddr,
        len: usize,
    ) -> Result<Vec<u8>, HwError> {
        let result = self.read(requester, addr, len);
        match &result {
            Err(HwError::AccessDenied { .. }) => {
                let at = self.clock.now();
                self.trace
                    .record(at, TraceEvent::AccessDenied { requester, addr });
            }
            Ok(_) => {
                if let Requester::Device(device) = requester {
                    let at = self.clock.now();
                    self.trace
                        .record(at, TraceEvent::DmaAccess { device, addr });
                }
            }
            Err(_) => {}
        }
        result
    }

    /// Permission-checked memory write on behalf of `requester`.
    ///
    /// # Errors
    ///
    /// [`HwError::AccessDenied`] if the memory controller blocks any page
    /// in the range; [`HwError::AddressOutOfRange`] past installed memory.
    pub fn write(
        &mut self,
        requester: Requester,
        addr: PhysAddr,
        data: &[u8],
    ) -> Result<(), HwError> {
        for page in Memory::pages_spanned(addr, data.len()) {
            self.volatile
                .controller
                .check(requester, AccessKind::Write, page)?;
        }
        self.memory.write_raw(addr, data)
    }

    /// DMA read issued by device `dev` (convenience wrapper).
    ///
    /// # Errors
    ///
    /// As for [`Machine::read`].
    pub fn dma_read(&self, dev: DeviceId, addr: PhysAddr, len: usize) -> Result<Vec<u8>, HwError> {
        self.read(Requester::Device(dev), addr, len)
    }
}

/// Builder for [`Machine`] with optional customization.
#[derive(Debug)]
pub struct MachineBuilder {
    platform: Platform,
    devices: Vec<String>,
}

impl MachineBuilder {
    /// Starts building a machine for `platform`.
    pub fn new(platform: Platform) -> Self {
        MachineBuilder {
            platform,
            devices: Vec::new(),
        }
    }

    /// Adds a DMA-capable device by name (e.g. `"e1000 NIC"`).
    pub fn device(mut self, name: &str) -> Self {
        self.devices.push(name.to_owned());
        self
    }

    /// Finalizes construction.
    pub fn build(self) -> Machine {
        let devices = self
            .devices
            .into_iter()
            .enumerate()
            .map(|(i, name)| Device {
                id: DeviceId(i as u16),
                name,
            })
            .collect();
        Machine {
            memory: Memory::new(self.platform.mem_pages),
            volatile: VolatileState::fresh(&self.platform),
            lpc: LpcBus::new(self.platform.lpc_ns_per_byte),
            clock: SimClock::new(),
            devices,
            platform: self.platform,
            trace: Trace::new(),
            obs: Obs::null(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{PageIndex, PageRange};

    fn machine() -> Machine {
        Machine::builder(Platform::recommended(2).with_mem_pages(32))
            .device("test NIC")
            .build()
    }

    #[test]
    fn construction_matches_platform() {
        let m = machine();
        assert_eq!(m.cpus().len(), 2);
        assert_eq!(m.memory().num_pages(), 32);
        assert_eq!(m.controller().num_pages(), 32);
        assert_eq!(m.devices().len(), 1);
        assert_eq!(m.devices()[0].name(), "test NIC");
        assert_eq!(m.now(), SimTime::ZERO);
        // Installed DRAM costs no host memory until it is written.
        assert_eq!(m.memory().resident_pages(), 0);
        let full = Machine::new(Platform::recommended(2));
        assert_eq!(full.memory().resident_pages(), 0);
    }

    #[test]
    fn cpu_lookup() {
        let mut m = machine();
        assert!(m.cpu(CpuId(0)).is_ok());
        assert!(m.cpu(CpuId(1)).is_ok());
        assert_eq!(m.cpu(CpuId(2)), Err(HwError::NoSuchCpu(CpuId(2))));
        assert!(m.cpu_mut(CpuId(9)).is_err());
    }

    #[test]
    fn unprotected_memory_open_to_all() {
        let mut m = machine();
        m.write(Requester::Cpu(CpuId(0)), PhysAddr(0), b"data")
            .unwrap();
        assert_eq!(
            m.read(Requester::Cpu(CpuId(1)), PhysAddr(0), 4).unwrap(),
            b"data"
        );
        assert_eq!(m.dma_read(DeviceId(0), PhysAddr(0), 4).unwrap(), b"data");
    }

    #[test]
    fn protected_memory_blocks_dma_and_other_cpus() {
        let mut m = machine();
        let range = PageRange::new(PageIndex(4), 1);
        m.controller_mut().protect_for_cpu(range, CpuId(0)).unwrap();
        let base = range.base_addr();
        assert!(m.write(Requester::Cpu(CpuId(0)), base, b"x").is_ok());
        assert!(matches!(
            m.read(Requester::Cpu(CpuId(1)), base, 1),
            Err(HwError::AccessDenied { .. })
        ));
        assert!(matches!(
            m.write(Requester::Device(DeviceId(0)), base, b"evil"),
            Err(HwError::AccessDenied { .. })
        ));
    }

    #[test]
    fn cross_page_access_checks_every_page() {
        let mut m = machine();
        // Protect page 5 only; a write spanning 4..6 must fail.
        m.controller_mut()
            .protect_for_cpu(PageRange::new(PageIndex(5), 1), CpuId(0))
            .unwrap();
        let addr = PhysAddr(5 * crate::types::PAGE_SIZE as u64 - 2);
        assert!(m.write(Requester::Cpu(CpuId(1)), addr, &[0u8; 8]).is_err());
        // And the first page was not partially written (check-then-write).
        assert_eq!(
            m.read(Requester::Cpu(CpuId(1)), addr, 2).unwrap(),
            vec![0, 0]
        );
    }

    #[test]
    fn traced_reads_record_denials_and_dma() {
        let mut m = machine();
        let range = PageRange::new(PageIndex(4), 1);
        m.controller_mut().protect_for_cpu(range, CpuId(0)).unwrap();
        let base = range.base_addr();
        // Denied CPU read recorded.
        assert!(m.read_traced(Requester::Cpu(CpuId(1)), base, 4).is_err());
        // Successful DMA elsewhere recorded.
        assert!(m
            .read_traced(Requester::Device(DeviceId(0)), PhysAddr(0), 4)
            .is_ok());
        let denials = m
            .trace()
            .filtered(|e| matches!(e, crate::TraceEvent::AccessDenied { .. }))
            .count();
        let dma = m
            .trace()
            .filtered(|e| matches!(e, crate::TraceEvent::DmaAccess { .. }))
            .count();
        assert_eq!(denials, 1);
        assert_eq!(dma, 1);
    }

    #[test]
    fn clock_plumbing() {
        let mut m = machine();
        m.charge(Layer::Hw, "hw.test", SimDuration::from_ms(2));
        assert_eq!(m.now(), SimTime::from_ns(2_000_000));
        m.charge(Layer::Hw, "hw.test", SimDuration::ZERO);
        assert_eq!(m.now(), SimTime::from_ns(2_000_000));
    }

    #[test]
    fn reset_rebuilds_volatile_half_only() {
        let mut m = machine();
        // Dirty the volatile half: protect a page and park CPU 1 in a
        // distinguishable state via the preemption timer.
        let range = PageRange::new(PageIndex(4), 1);
        m.controller_mut().protect_for_cpu(range, CpuId(0)).unwrap();
        // Dirty the persistent half: memory contents and some time.
        m.write(Requester::Cpu(CpuId(0)), PhysAddr(0), b"sticky")
            .unwrap();
        m.charge(Layer::Hw, "hw.test", SimDuration::from_ms(3));
        let before = m.now();
        assert_eq!(m.memory().resident_pages(), 1);

        let cost = m.reset();

        // Volatile: the access table is back at power-on default, so
        // the previously-denied CPU can read the protected page again.
        assert!(m
            .read(Requester::Cpu(CpuId(1)), range.base_addr(), 1)
            .is_ok());
        let (_, cpus_pages, none_pages) = m.controller().state_census();
        assert_eq!((cpus_pages, none_pages), (0, 0));
        // Persistent: memory contents survive, the clock moved forward
        // by exactly the reboot cost, and the trace kept its history
        // plus the reset marker.
        assert_eq!(
            m.read(Requester::Cpu(CpuId(0)), PhysAddr(0), 6).unwrap(),
            b"sticky"
        );
        assert_eq!(m.memory().resident_pages(), 1);
        assert_eq!(m.now(), before + cost);
        assert!(m
            .trace()
            .iter()
            .any(|(at, e)| *at == before && matches!(e, TraceEvent::PlatformReset)));
    }

    #[test]
    fn machine_is_send_sync() {
        // The concurrent session engine moves whole platforms across
        // worker threads; all state must be owned data.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Machine>();
    }
}
