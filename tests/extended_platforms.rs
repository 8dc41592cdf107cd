//! Integration coverage beyond the paper's headline platform: the
//! Intel486's write-through (SI) lines, MOESI cache-to-cache supply, the
//! PF1 dual-snoop-logic platform, and a four-processor bus.

use hmp::cache::{LineState, ProtocolKind};
use hmp::core::PlatformClass;
use hmp::cpu::{LockKind, LockLayout, ProgramBuilder};
use hmp::mem::{MemAttr, Region};
use hmp::platform::{layout, presets, CpuSpec, MemLayout, PlatformSpec, Strategy, System};
use hmp::sim::CpuCounter;

/// Intel486 + PowerPC755 with the shared window marked *write-through*:
/// the 486's lines follow the SI protocol, every store goes straight to
/// memory, and the paper's INV-pin trick (read→write conversion) kills
/// the S state whenever the MEI-reduced bus demands it.
#[test]
fn intel486_write_through_shared_window() {
    let lay = MemLayout::default();
    let mut map = hmp::mem::MemoryMap::new();
    for i in 0..2 {
        map.add(Region::new(
            lay.private(i),
            MemLayout::PRIVATE_STRIDE,
            MemAttr::CachedWriteBack,
        ))
        .unwrap();
    }
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
    let lock = LockLayout::new(LockKind::Turn, lay.lock_base, 2);
    let spec = PlatformSpec::new(vec![CpuSpec::intel486(), CpuSpec::powerpc755()], map, lock);

    let x = lay.shared_base;
    // The 486 reads (SI line fills Shared), writes through, reads back;
    // the PowerPC then reads and must see the written-through value.
    let i486 = ProgramBuilder::new()
        .read(x)
        .write(x, 0x486)
        .read(x)
        .build();
    let ppc = ProgramBuilder::new()
        .delay(200)
        .read(x)
        .write(x, 0x755)
        .build();
    let mut sys = System::new(&spec, vec![i486, ppc]);
    let result = sys.run(100_000);
    assert!(result.is_clean_completion(), "{result}");
    assert_eq!(sys.memory().read_word(x), 0x755);
    // The PowerPC's write-through... the MEI side also gets SI lines in a
    // WT region, so nobody holds a dirty copy at the end.
    assert_eq!(sys.cache(0).dirty_lines(), 0);
    assert_eq!(sys.cache(1).dirty_lines(), 0);
    assert!(
        result.stats.get(0, CpuCounter::WriteThrough) >= 1,
        "{result}"
    );
}

/// Homogeneous MOESI pair: a snooped read of a dirty line is served
/// cache-to-cache (M→O), memory stays stale until the owner drains, and
/// the checker stays happy throughout.
#[test]
fn moesi_cache_to_cache_supply() {
    let (spec, lay) = presets::protocol_pair(
        ProtocolKind::Moesi,
        ProtocolKind::Moesi,
        Strategy::Proposed,
        LockKind::Turn,
    );
    let x = lay.shared_base;
    let p0 = ProgramBuilder::new().write(x, 0xCAFE).delay(200).build();
    let p1 = ProgramBuilder::new().delay(100).read(x).build();
    let mut sys = presets::instantiate(&spec, Strategy::Proposed, vec![p0, p1]);
    let result = sys.run(100_000);
    assert!(result.is_clean_completion(), "{result}");
    assert_eq!(
        sys.cache(0).line_state(x),
        Some(LineState::Owned),
        "owner keeps responsibility after supplying"
    );
    assert_eq!(sys.cache(1).line_state(x), Some(LineState::Shared));
    assert_eq!(sys.cache(1).peek_word(x), Some(0xCAFE));
    assert_ne!(
        sys.memory().read_word(x),
        0xCAFE,
        "cache-to-cache supply must not update memory"
    );
    assert!(result.stats.get(0, CpuCounter::CacheToCache) >= 1);
}

/// The Owned line must still reach memory when it is finally evicted.
#[test]
fn owned_line_eviction_writes_back() {
    let (mut spec, lay) = presets::protocol_pair(
        ProtocolKind::Moesi,
        ProtocolKind::Moesi,
        Strategy::Proposed,
        LockKind::Turn,
    );
    spec.cpus[0].cache = hmp::cache::CacheConfig { sets: 2, ways: 1 };
    let x = lay.shared_base;
    let conflict = x.add_lines(2); // same set as x in a 2-set cache
    let p0 = ProgramBuilder::new()
        .write(x, 0xCAFE)
        .delay(200)
        .read(conflict) // evicts the Owned line
        .build();
    let p1 = ProgramBuilder::new().delay(100).read(x).build();
    let mut sys = presets::instantiate(&spec, Strategy::Proposed, vec![p0, p1]);
    let result = sys.run(100_000);
    assert!(result.is_clean_completion(), "{result}");
    assert_eq!(sys.cache(0).line_state(x), None, "owned line evicted");
    assert_eq!(sys.memory().read_word(x), 0xCAFE, "eviction drained O data");
}

/// PF1: two processors with *no* coherence hardware hand shared data back
/// and forth purely through their TAG CAMs and drain ISRs.
#[test]
fn pf1_dual_cam_handover() {
    let (spec, lay) = presets::pf1_dual(Strategy::Proposed, LockKind::Turn);
    let x = lay.shared_base;
    let p0 = ProgramBuilder::new()
        .acquire(0)
        .write(x, 0xA)
        .release(0)
        .acquire(0)
        .read(x)
        .release(0)
        .build();
    let p1 = ProgramBuilder::new()
        .acquire(0)
        .read(x)
        .write(x, 0xB)
        .release(0)
        .acquire(0)
        .read(x)
        .release(0)
        .build();
    let mut sys = presets::instantiate(&spec, Strategy::Proposed, vec![p0, p1]);
    assert_eq!(sys.platform_class(), PlatformClass::Pf1);
    let result = sys.run(500_000);
    assert!(result.is_clean_completion(), "{result}");
    // Both sides had to take drain interrupts for the handover.
    assert!(
        result.cpus[0].isr_entries + result.cpus[1].isr_entries >= 2,
        "{result}"
    );
    assert_eq!(sys.memory().read_word(x), 0xB);
}

/// Four heterogeneous processors on one bus — the paper's "can be easily
/// extended to platforms with more than two processors", one protocol of
/// each kind plus a non-coherent core behind snoop logic (PF2 overall).
#[test]
fn four_processor_mixed_platform() {
    let (lay, map) = layout(4, Strategy::Proposed, LockKind::Turn, false);
    let lock = LockLayout::new(LockKind::Turn, lay.lock_base, 4);
    let mut arm = CpuSpec::arm920t();
    arm.name = "ARM920T".into();
    let spec = PlatformSpec::new(
        vec![
            CpuSpec::generic("mei", ProtocolKind::Mei),
            CpuSpec::generic("mesi", ProtocolKind::Mesi),
            CpuSpec::generic("moesi", ProtocolKind::Moesi),
            arm,
        ],
        map,
        lock,
    );
    let shared = lay.shared_base;
    let mut programs = Vec::new();
    for cpu in 0..4u32 {
        let mut b = ProgramBuilder::new();
        for round in 0..2u32 {
            b = b.acquire(0);
            for l in 0..3 {
                let a = shared.add_lines(l);
                b = b.read(a).write(a, (cpu << 16) | (round << 8) | l);
            }
            b = b.release(0).delay(7);
        }
        programs.push(b.build());
    }
    let mut sys = System::new(&spec, programs);
    assert_eq!(sys.platform_class(), PlatformClass::Pf2);
    assert_eq!(sys.system_protocol(), Some(ProtocolKind::Mei));
    let result = sys.run(4_000_000);
    assert!(result.is_clean_completion(), "{result}");
    for (i, c) in result.cpus.iter().enumerate() {
        assert_eq!(c.lock_acquires, 2, "cpu{i}");
        assert_eq!(c.lock_releases, 2, "cpu{i}");
    }
    // The last writer in turn order is the ARM (party 3, round 1); its
    // line may legitimately still be dirty in its cache rather than in
    // memory, so check the authoritative copy.
    let authoritative = (0..4)
        .find_map(|i| {
            sys.cache(i)
                .line_state(shared)
                .filter(|s| s.is_dirty())
                .and_then(|_| sys.cache(i).peek_word(shared))
        })
        .unwrap_or_else(|| sys.memory().read_word(shared));
    assert_eq!(authoritative & 0xFF0000, 3 << 16);
}

/// On a MEI-reduced four-way bus, no two caches ever share a line; spot-
/// check at completion.
#[test]
fn four_processor_exclusivity_at_rest() {
    let (lay, map) = layout(4, Strategy::Proposed, LockKind::Turn, false);
    let lock = LockLayout::new(LockKind::Turn, lay.lock_base, 4);
    let spec = PlatformSpec::new(
        vec![
            CpuSpec::generic("a", ProtocolKind::Mei),
            CpuSpec::generic("b", ProtocolKind::Mesi),
            CpuSpec::generic("c", ProtocolKind::Moesi),
            CpuSpec::generic("d", ProtocolKind::Msi),
        ],
        map,
        lock,
    );
    let shared = lay.shared_base;
    let mut programs = Vec::new();
    for cpu in 0..4u32 {
        let mut b = ProgramBuilder::new().acquire(0);
        for l in 0..4 {
            b = b.read(shared.add_lines(l)).write(shared.add_lines(l), cpu);
        }
        programs.push(b.release(0).build());
    }
    let mut sys = System::new(&spec, programs);
    let result = sys.run(4_000_000);
    assert!(result.is_clean_completion(), "{result}");
    for l in 0..4 {
        let addr = shared.add_lines(l);
        let holders = (0..4).filter(|&i| sys.cache(i).contains(addr)).count();
        assert!(holders <= 1, "line {l} shared on a MEI bus");
    }
}
