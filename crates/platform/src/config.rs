//! Platform description types and the standard address map.

use core::fmt;
use hmp_bus::ArbitrationPolicy;
use hmp_cache::CacheConfig;
use hmp_core::CoherenceSupport;
use hmp_cpu::{IsrConfig, LockKind, LockLayout};
use hmp_mem::{Addr, LatencyModel, MemAttr, MemoryMap, Region};

/// How shared data is kept coherent — the three alternatives the paper's
/// §4 evaluates against each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Shared data is uncached; every access is a single-word bus
    /// transaction. (First baseline.)
    CacheDisabled,
    /// Shared data is cached and the program explicitly drains every used
    /// line before leaving the critical section. (Second baseline, the
    /// "software solution".)
    SoftwareDrain,
    /// Shared data is cached and the wrappers / snoop logic keep it
    /// coherent. (The paper's proposal.)
    Proposed,
}

impl Strategy {
    /// All three strategies, in the paper's presentation order.
    pub const ALL: [Strategy; 3] = [
        Strategy::CacheDisabled,
        Strategy::SoftwareDrain,
        Strategy::Proposed,
    ];

    /// Stable snake_case key (the job wire format and JSON field value).
    pub fn key(self) -> &'static str {
        match self {
            Strategy::CacheDisabled => "cache_disabled",
            Strategy::SoftwareDrain => "software_drain",
            Strategy::Proposed => "proposed",
        }
    }

    /// Whether the shared-data window is cacheable under this strategy.
    pub fn shared_cacheable(self) -> bool {
        !matches!(self, Strategy::CacheDisabled)
    }

    /// Whether the workload generator must add explicit drain loops.
    pub fn needs_software_drain(self) -> bool {
        matches!(self, Strategy::SoftwareDrain)
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::CacheDisabled => write!(f, "cache-disabled"),
            Strategy::SoftwareDrain => write!(f, "software"),
            Strategy::Proposed => write!(f, "proposed"),
        }
    }
}

/// Whether wrappers apply the paper's coherence manipulations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WrapperMode {
    /// Policies derived from the reduction lattice (the paper's design).
    Paper,
    /// Transparent wrappers: protocols interact naively. This is the
    /// *broken* integration of Tables 2 and 3 — used to demonstrate the
    /// stale reads the paper's wrappers prevent.
    Transparent,
}

impl fmt::Display for WrapperMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WrapperMode::Paper => write!(f, "paper"),
            WrapperMode::Transparent => write!(f, "transparent"),
        }
    }
}

/// One processor of the platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuSpec {
    /// Display name ("PowerPC755", "ARM920T", …).
    pub name: String,
    /// Core cycles per bus cycle (Table 4: PowerPC755 = 2, ARM920T = 1).
    pub clock_mult: u32,
    /// Native protocol, or [`CoherenceSupport::None`] for a processor that
    /// needs the TAG-CAM snoop logic.
    pub coherence: CoherenceSupport,
    /// Data-cache geometry.
    pub cache: CacheConfig,
    /// Snoop-ISR timing (relevant only for non-coherent processors).
    pub isr: IsrConfig,
    /// TAG-CAM geometry for non-coherent processors: `None` models the
    /// idealised full-map CAM; `Some((sets, ways))` a finite CAM whose
    /// overflows force capacity drain interrupts.
    pub cam_geometry: Option<(u32, u32)>,
}

impl CpuSpec {
    /// A PowerPC755: MEI, 32 KiB 8-way data cache, 100 MHz on the 50 MHz
    /// bus.
    pub fn powerpc755() -> Self {
        CpuSpec {
            name: "PowerPC755".into(),
            clock_mult: 2,
            coherence: CoherenceSupport::Native(hmp_cache::ProtocolKind::Mei),
            cache: CacheConfig { sets: 128, ways: 8 },
            isr: IsrConfig::default(),
            cam_geometry: None,
        }
    }

    /// An ARM920T: no coherence hardware, 16 KiB 64-way CAM data cache,
    /// 50 MHz.
    pub fn arm920t() -> Self {
        CpuSpec {
            name: "ARM920T".into(),
            clock_mult: 1,
            coherence: CoherenceSupport::None,
            cache: CacheConfig { sets: 8, ways: 64 },
            isr: IsrConfig::default(),
            cam_geometry: None,
        }
    }

    /// A Write-back Enhanced Intel486: 8 KiB 4-way cache speaking the
    /// paper's "modified MESI" — write-back lines behave as MEI, only
    /// write-through lines can be Shared (SI), which the platform realises
    /// by giving write-through *regions* SI lines. The processor registers
    /// as MESI so the reduction derives the INV-pin assertion (read→write
    /// conversion) its wrapper needs on a MEI bus (paper §3).
    pub fn intel486() -> Self {
        CpuSpec {
            name: "Intel486".into(),
            clock_mult: 1,
            coherence: CoherenceSupport::Native(hmp_cache::ProtocolKind::Mesi),
            cache: CacheConfig { sets: 64, ways: 4 },
            isr: IsrConfig::default(),
            cam_geometry: None,
        }
    }

    /// A generic processor speaking the given protocol at bus speed.
    pub fn generic(name: &str, protocol: hmp_cache::ProtocolKind) -> Self {
        CpuSpec {
            name: name.into(),
            clock_mult: 1,
            coherence: CoherenceSupport::Native(protocol),
            cache: CacheConfig::default(),
            isr: IsrConfig::default(),
            cam_geometry: None,
        }
    }
}

/// The standard address map used by the workloads and presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemLayout {
    /// Base of each CPU's private window (stride
    /// [`MemLayout::PRIVATE_STRIDE`]).
    pub private_base: Addr,
    /// Base of the shared-data window.
    pub shared_base: Addr,
    /// Base of the lock-variable window.
    pub lock_base: Addr,
}

impl MemLayout {
    /// Bytes of private space per CPU.
    pub const PRIVATE_STRIDE: u32 = 0x4_0000; // 256 KiB
    /// Bytes of shared space.
    pub const SHARED_BYTES: u32 = 0x4_0000;
    /// Bytes of lock space.
    pub const LOCK_BYTES: u32 = 0x1000;

    /// Private window base for CPU `i`.
    pub fn private(&self, cpu: usize) -> Addr {
        Addr::new(self.private_base.as_u32() + (cpu as u32) * Self::PRIVATE_STRIDE)
    }
}

impl Default for MemLayout {
    fn default() -> Self {
        MemLayout {
            private_base: Addr::new(0x0000_0000),
            shared_base: Addr::new(0x0010_0000),
            lock_base: Addr::new(0x0020_0000),
        }
    }
}

/// Builds the standard [`MemoryMap`] for `cpus` processors under a given
/// strategy and lock kind.
///
/// * each CPU gets a cacheable write-back private window;
/// * the shared window is cacheable write-back under
///   [`Strategy::SoftwareDrain`] / [`Strategy::Proposed`], uncached under
///   [`Strategy::CacheDisabled`];
/// * the lock window is a device window for
///   [`LockKind::HardwareRegister`], an uncached window otherwise —
///   unless `cacheable_locks` is set, which reproduces the hardware
///   deadlock of paper Figure 4.
///
/// # Panics
///
/// Panics if the regions cannot be added (impossible for the fixed
/// layout).
pub fn layout(
    cpus: usize,
    strategy: Strategy,
    lock_kind: LockKind,
    cacheable_locks: bool,
) -> (MemLayout, MemoryMap) {
    let mut lay = MemLayout::default();
    // More than four private windows overrun the classic shared-window
    // base; relocate the shared and lock windows just above the private
    // space. Platforms of up to four masters keep the default bases.
    let private_top = (cpus as u32) * MemLayout::PRIVATE_STRIDE;
    if private_top > lay.shared_base.as_u32() {
        lay.shared_base = Addr::new(private_top);
        lay.lock_base = Addr::new(private_top + MemLayout::SHARED_BYTES);
    }
    let mut map = MemoryMap::new();
    for i in 0..cpus {
        map.add(Region::new(
            lay.private(i),
            MemLayout::PRIVATE_STRIDE,
            MemAttr::CachedWriteBack,
        ))
        .expect("private windows are disjoint");
    }
    let shared_attr = if strategy.shared_cacheable() {
        MemAttr::CachedWriteBack
    } else {
        MemAttr::Uncached
    };
    map.add(Region::new(
        lay.shared_base,
        MemLayout::SHARED_BYTES,
        shared_attr,
    ))
    .expect("shared window is disjoint");
    let lock_attr = if cacheable_locks {
        MemAttr::CachedWriteBack
    } else if lock_kind == LockKind::HardwareRegister {
        MemAttr::Device(0)
    } else {
        MemAttr::Uncached
    };
    map.add(Region::new(lay.lock_base, MemLayout::LOCK_BYTES, lock_attr))
        .expect("lock window is disjoint");
    (lay, map)
}

/// Full description of a platform instance.
#[derive(Debug, Clone)]
pub struct PlatformSpec {
    /// The processors, in bus-master order.
    pub cpus: Vec<CpuSpec>,
    /// Main-memory timing (Table 4 by default; swept for Figure 8).
    pub latency: LatencyModel,
    /// Physical memory size in bytes.
    pub memory_bytes: u32,
    /// Address-space attributes.
    pub map: MemoryMap,
    /// Lock mechanism and placement.
    pub lock: LockLayout,
    /// Paper wrappers or transparent (naive) wrappers.
    pub wrapper_mode: WrapperMode,
    /// Run the golden-memory coherence checker.
    pub check_coherence: bool,
    /// Bus arbitration policy.
    pub arbitration: ArbitrationPolicy,
    /// BOFF window: bus cycles an ARTRY'd master backs off before
    /// retrying.
    pub retry_backoff: u64,
    /// Watchdog stall window in bus cycles.
    pub watchdog_window: u64,
    /// Event-ring capacity of the metrics layer (0 = 8 × `span_capacity`);
    /// only read when `span_capacity > 0`.
    pub trace_capacity: usize,
    /// Completed-span ring capacity for the metrics layer; 0 disables
    /// span/histogram collection entirely (the zero-cost default).
    pub span_capacity: usize,
    /// Enforce the structural line invariants (single writer, no writer
    /// with sharers, single owner) live, failing the run fast on the
    /// first break. Off by default: the Transparent wrapper mode exists
    /// precisely to let those invariants break observably.
    pub check_invariants: bool,
    /// Deterministic fault-injection schedule, applied by the platform's
    /// fault engine at each spec's cycle. `None` (the default) leaves the
    /// whole injection path unallocated — a fault-free run is
    /// byte-identical with or without this field.
    pub faults: Option<hmp_sim::FaultPlan>,
    /// Retry-escalation and quarantine policy for the arbiter. Disabled
    /// by default; see [`hmp_bus::RecoveryPolicy`].
    pub recovery: hmp_bus::RecoveryPolicy,
    /// Bus segment each CPU's master port sits on. Empty (the default)
    /// puts everyone on one segment — the flat single-bus platforms.
    /// Populated by [`crate::topology::Topology::spec`].
    pub segment_map: Vec<usize>,
    /// Extra data-phase cycles a transaction pays when its data crosses
    /// the snooping bridge between segments (ignored on single-segment
    /// fabrics).
    pub bridge_latency: u64,
    /// Per-master recovery-policy overrides (index-aligned with `cpus`;
    /// `None` entries fall back to `recovery`). Empty means no overrides.
    pub recovery_overrides: Vec<Option<hmp_bus::RecoveryPolicy>>,
    /// Windowed-telemetry registry configuration. `None` (the default)
    /// leaves the whole timeseries path unallocated; a run with
    /// telemetry armed is still byte-identical on every compared field.
    pub timeseries: Option<hmp_sim::TimeSeriesSpec>,
    /// Measure the kernel's wall-time split (plan/warp/step) and surface
    /// it as [`crate::RunResult::profile`]. Off by default — the two
    /// `Instant` reads per loop iteration are cheap but not free.
    pub profile: bool,
}

impl PlatformSpec {
    /// A blank two-CPU spec with Table 4 timing; presets refine it.
    pub fn new(cpus: Vec<CpuSpec>, map: MemoryMap, lock: LockLayout) -> Self {
        PlatformSpec {
            cpus,
            latency: LatencyModel::TABLE4,
            memory_bytes: 4 << 20,
            map,
            lock,
            wrapper_mode: WrapperMode::Paper,
            check_coherence: true,
            arbitration: ArbitrationPolicy::RoundRobin,
            retry_backoff: 0,
            watchdog_window: 50_000,
            trace_capacity: 0,
            span_capacity: 0,
            check_invariants: false,
            faults: None,
            recovery: hmp_bus::RecoveryPolicy::default(),
            segment_map: Vec::new(),
            bridge_latency: 0,
            recovery_overrides: Vec::new(),
            timeseries: None,
            profile: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_properties() {
        assert!(!Strategy::CacheDisabled.shared_cacheable());
        assert!(Strategy::SoftwareDrain.shared_cacheable());
        assert!(Strategy::Proposed.shared_cacheable());
        assert!(Strategy::SoftwareDrain.needs_software_drain());
        assert!(!Strategy::Proposed.needs_software_drain());
        assert_eq!(Strategy::ALL.len(), 3);
        assert_eq!(Strategy::Proposed.to_string(), "proposed");
        assert_eq!(WrapperMode::Paper.to_string(), "paper");
        assert_eq!(WrapperMode::Transparent.to_string(), "transparent");
    }

    #[test]
    fn table4_cpu_specs() {
        let ppc = CpuSpec::powerpc755();
        assert_eq!(ppc.clock_mult, 2, "100 MHz on a 50 MHz bus");
        assert_eq!(ppc.cache.capacity_bytes(), 32 * 1024);
        let arm = CpuSpec::arm920t();
        assert_eq!(arm.clock_mult, 1);
        assert_eq!(arm.coherence, CoherenceSupport::None);
        assert_eq!(arm.cache.capacity_bytes(), 16 * 1024);
        let i486 = CpuSpec::intel486();
        assert_eq!(i486.cache.capacity_bytes(), 8 * 1024);
    }

    #[test]
    fn layout_strategy_controls_shared_attr() {
        let (lay, map) = layout(2, Strategy::Proposed, LockKind::Turn, false);
        assert_eq!(map.classify(lay.shared_base), MemAttr::CachedWriteBack);
        assert_eq!(map.classify(lay.lock_base), MemAttr::Uncached);
        assert_eq!(map.classify(lay.private(0)), MemAttr::CachedWriteBack);
        assert_eq!(map.classify(lay.private(1)), MemAttr::CachedWriteBack);

        let (lay, map) = layout(2, Strategy::CacheDisabled, LockKind::Turn, false);
        assert_eq!(map.classify(lay.shared_base), MemAttr::Uncached);
    }

    #[test]
    fn layout_lock_attrs() {
        let (lay, map) = layout(2, Strategy::Proposed, LockKind::HardwareRegister, false);
        assert_eq!(map.classify(lay.lock_base), MemAttr::Device(0));
        let (lay, map) = layout(2, Strategy::Proposed, LockKind::Bakery, false);
        assert_eq!(map.classify(lay.lock_base), MemAttr::Uncached);
        // The deadlock configuration: cacheable locks.
        let (lay, map) = layout(2, Strategy::Proposed, LockKind::Turn, true);
        assert_eq!(map.classify(lay.lock_base), MemAttr::CachedWriteBack);
    }

    #[test]
    fn private_windows_distinct() {
        let lay = MemLayout::default();
        assert_ne!(lay.private(0), lay.private(1));
        assert_eq!(
            lay.private(1).as_u32() - lay.private(0).as_u32(),
            MemLayout::PRIVATE_STRIDE
        );
    }

    #[test]
    fn spec_defaults() {
        let (_, map) = layout(2, Strategy::Proposed, LockKind::Turn, false);
        let lock = LockLayout::new(LockKind::Turn, MemLayout::default().lock_base, 2);
        let spec = PlatformSpec::new(vec![CpuSpec::powerpc755(), CpuSpec::arm920t()], map, lock);
        assert_eq!(spec.latency, LatencyModel::TABLE4);
        assert_eq!(spec.wrapper_mode, WrapperMode::Paper);
        assert!(spec.check_coherence);
        assert!(spec.faults.is_none(), "fault injection is opt-in");
        assert!(!spec.recovery.enabled(), "recovery escalation is opt-in");
        assert!(spec.memory_bytes >= MemLayout::default().lock_base.as_u32());
    }
}
