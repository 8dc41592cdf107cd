//! Edge paths of the platform: racing upgrades, write-through
//! no-allocate stores, and custom bus devices.

use hmp::bus::BusDevice;
use hmp::cache::{LineState, ProtocolKind};
use hmp::cpu::{LockKind, LockLayout, ProgramBuilder};
use hmp::mem::{Addr, MemAttr, MemoryMap, Region};
use hmp::platform::{presets, CpuSpec, MemLayout, PlatformSpec, Strategy, System};
use hmp::sim::{CpuCounter, FaultKind, FaultPlan, FaultSpec};

/// Two MESI caches both hold the line Shared and race their upgrade
/// broadcasts: the loser's line is invalidated while its upgrade waits,
/// so it must restart the store as a write miss (`upgrade_lost`). Sweep
/// the relative timing until the race actually fires, and require
/// coherence at every offset.
#[test]
fn racing_upgrades_fall_back_to_write_miss() {
    let mut race_seen = false;
    for offset in 0..24u32 {
        let (spec, lay) = presets::protocol_pair(
            ProtocolKind::Mesi,
            ProtocolKind::Mesi,
            Strategy::Proposed,
            LockKind::Turn,
        );
        let x = lay.shared_base;
        let p0 = ProgramBuilder::new()
            .read(x)
            .delay(60)
            .write(x, 0xAAA)
            .build();
        let p1 = ProgramBuilder::new()
            .delay(20)
            .read(x)
            .delay(20 + offset)
            .write(x, 0xBBB)
            .build();
        let mut sys = presets::instantiate(&spec, Strategy::Proposed, vec![p0, p1]);
        let result = sys.run(100_000);
        assert!(result.is_clean_completion(), "offset {offset}: {result}");
        if result.stats.get(0, CpuCounter::UpgradeLost)
            + result.stats.get(1, CpuCounter::UpgradeLost)
            > 0
        {
            race_seen = true;
        }
        // Whoever wrote last owns the line; the other copy is gone.
        let holders = (0..2).filter(|&i| sys.cache(i).contains(x)).count();
        assert_eq!(holders, 1, "offset {offset}");
    }
    assert!(race_seen, "some offset must lose an upgrade race");
}

/// One MESI CPU whose shared window is write-through; returns the spec
/// and the window's base.
fn write_through_spec() -> (PlatformSpec, Addr) {
    let lay = MemLayout::default();
    let mut map = MemoryMap::new();
    map.add(Region::new(
        lay.shared_base,
        MemLayout::SHARED_BYTES,
        MemAttr::CachedWriteThrough,
    ))
    .unwrap();
    map.add(Region::new(
        lay.lock_base,
        MemLayout::LOCK_BYTES,
        MemAttr::Uncached,
    ))
    .unwrap();
    let lock = LockLayout::new(LockKind::Turn, lay.lock_base, 1);
    let spec = PlatformSpec::new(vec![CpuSpec::generic("wt", ProtocolKind::Mesi)], map, lock);
    (spec, lay.shared_base)
}

/// A write miss into a write-through window does not allocate: the word
/// goes straight to memory and the cache stays empty.
#[test]
fn write_through_miss_does_not_allocate() {
    let (spec, x) = write_through_spec();
    let p = ProgramBuilder::new().write(x, 0x77).build();
    let mut sys = System::new(&spec, vec![p]);
    let result = sys.run(10_000);
    assert!(result.is_clean_completion(), "{result}");
    assert_eq!(sys.memory().read_word(x), 0x77);
    assert!(!sys.cache(0).contains(x), "no write-allocate on WT lines");
    assert_eq!(result.stats.get(0, CpuCounter::WriteNoAllocate), 1);
}

/// A state-RAM flip on a write-through line leaves it alone: the line
/// follows SI, which has no dirty state to promote it to, so the next
/// store writes through instead of hitting a state SI lacks.
#[test]
fn line_state_corrupt_spares_write_through_lines() {
    let (mut spec, x) = write_through_spec();
    spec.faults = Some(FaultPlan::from_specs(vec![FaultSpec::new(
        200,
        FaultKind::LineStateCorrupt,
        0,
        0,
    )
    .at_addr(u64::from(x.as_u32()))]));
    let p = ProgramBuilder::new()
        .read(x)
        .delay(400)
        .write(x, 0x77)
        .build();
    let mut sys = System::new(&spec, vec![p]);
    let result = sys.run(10_000);
    assert!(result.is_clean_completion(), "{result}");
    assert_eq!(result.faults_injected, 1);
    assert_eq!(sys.cache(0).line_state(x), Some(LineState::Shared));
    assert_eq!(sys.memory().read_word(x), 0x77);
}

/// A scratch bus device: reads pop an incrementing sequence, writes set
/// the next value. Exercises `System::add_device` and device routing.
#[derive(Debug)]
struct Mailbox {
    next: u32,
}

impl BusDevice for Mailbox {
    fn name(&self) -> &str {
        "mailbox"
    }
    fn read_word(&mut self, _addr: Addr) -> u32 {
        let v = self.next;
        self.next += 1;
        v
    }
    fn write_word(&mut self, _addr: Addr, value: u32) {
        self.next = value;
    }
}

#[test]
fn custom_device_round_trip() {
    let lay = MemLayout::default();
    let mut map = MemoryMap::new();
    map.add(Region::new(
        lay.lock_base,
        MemLayout::LOCK_BYTES,
        MemAttr::Uncached,
    ))
    .unwrap();
    let dev_base = Addr::new(0x0030_0000);
    map.add(Region::new(dev_base, 0x100, MemAttr::Device(0)))
        .unwrap();
    let lock = LockLayout::new(LockKind::Turn, lay.lock_base, 1);
    let spec = PlatformSpec::new(
        vec![CpuSpec::generic("host", ProtocolKind::Mesi)],
        map,
        lock,
    );
    // Seed 100, then read twice → 100, 101.
    let p = ProgramBuilder::new()
        .write(dev_base, 100)
        .read(dev_base)
        .read(dev_base)
        .build();
    let mut sys = System::new(&spec, vec![p]);
    sys.add_device(Box::new(Mailbox { next: 0 }));
    let result = sys.run(10_000);
    assert!(result.is_clean_completion(), "{result}");
    assert_eq!(result.stats.get(0, CpuCounter::UncachedRead), 2);
    assert_eq!(result.stats.get(0, CpuCounter::UncachedWrite), 1);
    // Device state advanced past the two reads.
    // (Observable indirectly: a fresh system read would yield 102 — here
    // we just confirm the program consumed both reads without stalling.)
    assert_eq!(result.cpus[0].reads, 2);
}

/// Upgrades on a single-CPU system complete trivially (no snoopers), and
/// the MSI protocol still pays the broadcast for its S→M transition.
#[test]
fn msi_upgrade_without_contention() {
    let (spec, lay) = presets::protocol_pair(
        ProtocolKind::Msi,
        ProtocolKind::Msi,
        Strategy::Proposed,
        LockKind::Turn,
    );
    let x = lay.shared_base;
    let p0 = ProgramBuilder::new().read(x).write(x, 5).build();
    let mut sys = presets::instantiate(
        &spec,
        Strategy::Proposed,
        vec![p0, ProgramBuilder::new().build()],
    );
    let result = sys.run(10_000);
    assert!(result.is_clean_completion(), "{result}");
    // MSI read-fills Shared, so the store needs an upgrade broadcast even
    // with nobody else caching the line.
    assert_eq!(result.stats.get(0, CpuCounter::WriteUpgrade), 1);
    assert_eq!(
        sys.cache(0).line_state(x),
        Some(hmp::cache::LineState::Modified)
    );
}
