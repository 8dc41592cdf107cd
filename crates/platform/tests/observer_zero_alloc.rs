//! Proves the null-observer hot path is allocation-free.
//!
//! The pre-refactor `System` built a `format!("cpu{i}.read_hit")` string
//! for every counter increment and collected a fresh request mask on
//! every idle bus cycle — so even with tracing disabled, each simulated
//! cycle allocated. The typed `SimEvent`/`Observer` path with
//! enum-indexed counters must do neither: with a `NullObserver`, a
//! steady-state cycle performs zero heap allocations.
//!
//! The same must hold with the metrics layer compiled in and *enabled*:
//! spans, histograms, the event ring and the retry table are all
//! preallocated at construction, so a steady-state cycle full of bus
//! traffic — grants, snoop pushes, ARTRY kills, span completions — still
//! performs zero heap allocations.
//!
//! The bar extends across runs: [`System::try_reset`] rewinds a finished
//! platform in place instead of dropping and rebuilding it, so a
//! fault-free reset plus the re-run's steady state must also stay at
//! zero allocations — that is what makes the sweep paths' cross-run
//! batching allocation-free, not just each run's inner loop.
//!
//! Measured with a counting `#[global_allocator]`; this file holds a
//! single test (all phases run sequentially inside it) so no concurrent
//! test can perturb the counter.

use hmp_cache::ProtocolKind;
use hmp_cpu::{LockKind, LockLayout, ProgramBuilder};
use hmp_platform::{layout, CpuSpec, PlatformSpec, Strategy, System};
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates verbatim to the std system allocator; the counter is
// a relaxed atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bus grants so far, from the bus's per-master counts (summing a slice
/// allocates nothing).
fn grants(sys: &System) -> u64 {
    sys.master_grants().iter().sum()
}

#[test]
fn steady_state_stepping_with_null_observer_does_not_allocate() {
    let (lay, map) = layout(2, Strategy::Proposed, LockKind::Turn, false);
    let lock = LockLayout::new(LockKind::Turn, lay.lock_base, 2);
    let mut spec = PlatformSpec::new(
        vec![
            CpuSpec::generic("P0", ProtocolKind::Mesi),
            CpuSpec::generic("P1", ProtocolKind::Mesi),
        ],
        map,
        lock,
    );
    // The checker is irrelevant here and would only add noise sources.
    spec.check_coherence = false;

    // P0 hammers one cached line: a single fill, then thousands of local
    // read hits — each of which used to format! a stats key.
    let a = lay.shared_base;
    let p0 = {
        let mut b = ProgramBuilder::new();
        for _ in 0..4_000 {
            b = b.read(a);
        }
        b.build()
    };
    let mut sys = System::new(&spec, vec![p0, hmp_cpu::Program::empty()]);

    // Warm up past the miss, the line fill, and any one-time lazy
    // initialization inside the simulator.
    for _ in 0..200 {
        sys.step();
    }
    assert!(
        sys.counters().get(0, hmp_sim::CpuCounter::ReadHit) > 0,
        "warm-up must reach the read-hit steady state"
    );

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..1_000 {
        sys.step();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state stepping with NullObserver must not allocate"
    );

    // The cycles stepped were real work, not a halted machine.
    assert!(
        sys.counters().get(0, hmp_sim::CpuCounter::ReadHit) >= 1_000,
        "the measured window must have executed read hits"
    );

    // Phase 2: metrics enabled, and a workload that keeps the bus busy.
    // Two MESI caches ping-pong ownership of one shared line, so the
    // measured window is dense with grants, snoop pushes, retries and
    // span completions — every metrics code path runs, none may allocate.
    let (lay, map) = layout(2, Strategy::Proposed, LockKind::Turn, false);
    let lock = LockLayout::new(LockKind::Turn, lay.lock_base, 2);
    let mut spec = PlatformSpec::new(
        vec![
            CpuSpec::generic("P0", ProtocolKind::Mesi),
            CpuSpec::generic("P1", ProtocolKind::Mesi),
        ],
        map,
        lock,
    );
    spec.check_coherence = false;
    spec.span_capacity = 256;
    let a = lay.shared_base;
    let pingpong = |v: u32| {
        let mut b = ProgramBuilder::new();
        for i in 0..2_000 {
            b = b.write(a, v + i);
        }
        b.build()
    };
    let mut sys = System::new(&spec, vec![pingpong(0), pingpong(10_000)]);

    for _ in 0..500 {
        sys.step();
    }
    let warm_grants = grants(&sys);
    assert!(
        warm_grants > 0,
        "warm-up must reach bus-traffic steady state"
    );

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..1_000 {
        sys.step();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state stepping with metrics enabled must not allocate"
    );

    // The window saw real coherence traffic, spans included.
    let m = sys.metrics().unwrap();
    assert!(grants(&sys) > warm_grants, "grants during the window");
    assert!(!m.spans().is_empty(), "spans completed during the run");
    assert!(m.service_time().count() > 0, "histograms recorded");

    // Phase 3: the fast-forward kernel with metrics enabled. Warping a
    // dead window and the reduced CPU-only event step are pure countdown
    // arithmetic; planning the horizon is a scan over preallocated
    // state. Same bar as stepping: zero allocations per advanced cycle.
    let (lay, map) = layout(2, Strategy::Proposed, LockKind::Turn, false);
    let lock = LockLayout::new(LockKind::Turn, lay.lock_base, 2);
    let mut spec = PlatformSpec::new(
        vec![
            CpuSpec::generic("P0", ProtocolKind::Mesi),
            CpuSpec::generic("P1", ProtocolKind::Mesi),
        ],
        map,
        lock,
    );
    spec.check_coherence = false;
    spec.span_capacity = 256;
    let a = lay.shared_base;
    let pingpong = |v: u32| {
        let mut b = ProgramBuilder::new();
        for i in 0..2_000 {
            b = b.write(a, v + i).delay(20);
        }
        b.build()
    };
    let mut sys = System::new(&spec, vec![pingpong(0), pingpong(10_000)]);
    sys.set_kernel(hmp_sim::Kernel::FastForward);

    sys.advance(2_000);
    let warm_grants = grants(&sys);
    assert!(
        warm_grants > 0,
        "warm-up must reach bus-traffic steady state"
    );

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    sys.advance(20_000);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "fast-forward advancement with metrics enabled must not allocate"
    );

    // The compute gaps make the window warp-heavy, and the bus still saw
    // real traffic: the fast path exercised both warps and event cycles.
    let m = sys.metrics().unwrap();
    assert!(grants(&sys) > warm_grants, "grants during the window");
    assert!(!m.spans().is_empty(), "spans completed during the run");

    // Phase 4: fault injection armed. The FaultPlan and every engine
    // buffer (masks, armed retries, wedge flags) are preallocated at
    // construction; firing a fault is a cursor bump plus field writes,
    // and the injected-ARTRY path reuses the ordinary retry machinery.
    // Steady-state cycles with faults firing mid-window must not
    // allocate.
    let (lay, map) = layout(2, Strategy::Proposed, LockKind::Turn, false);
    let lock = LockLayout::new(LockKind::Turn, lay.lock_base, 2);
    let mut spec = PlatformSpec::new(
        vec![
            CpuSpec::generic("P0", ProtocolKind::Mesi),
            CpuSpec::generic("P1", ProtocolKind::Mesi),
        ],
        map,
        lock,
    );
    spec.check_coherence = false;
    spec.span_capacity = 256;
    spec.recovery = hmp_bus::RecoveryPolicy {
        retry_budget: 1_000_000, // armed, but never escalates
        escalation_backoff: 64,
        quarantine_after: 0,
    };
    let mut faults = Vec::new();
    for i in 0..64u64 {
        // Benign classes spread through the measured window.
        let kind = match i % 3 {
            0 => hmp_sim::FaultKind::SpuriousRetry,
            1 => hmp_sim::FaultKind::GrantDrop,
            _ => hmp_sim::FaultKind::NfiqDelay,
        };
        faults.push(hmp_sim::FaultSpec::new(
            400 + i * 15,
            kind,
            (i % 2) as u32,
            2,
        ));
    }
    spec.faults = Some(hmp_sim::FaultPlan::from_specs(faults));
    let a = lay.shared_base;
    let pingpong = |v: u32| {
        let mut b = ProgramBuilder::new();
        for i in 0..2_000 {
            b = b.write(a, v + i);
        }
        b.build()
    };
    let mut sys = System::new(&spec, vec![pingpong(0), pingpong(10_000)]);

    for _ in 0..300 {
        sys.step();
    }
    let warm_grants = grants(&sys);
    assert!(
        warm_grants > 0,
        "warm-up must reach bus-traffic steady state"
    );

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..1_000 {
        sys.step();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state stepping with fault injection armed must not allocate"
    );

    // The window actually injected faults and kept the bus busy.
    assert!(sys.metrics().is_some(), "metrics enabled");
    assert!(grants(&sys) > warm_grants, "grants during the window");
    assert!(
        sys.faults_injected() > 0,
        "faults fired inside the measured window"
    );

    // Phase 5: a four-master two-segment fabric under FCFS arbitration.
    // The fabric additions — request timestamps, the stamp mask, the
    // per-master grant counters, segment lookups and bridge-penalty
    // arithmetic — are all preallocated vectors or pure integer math, so
    // the N-master steady state must hold the same zero-allocation bar.
    let topo = hmp_platform::Topology::uniform(ProtocolKind::Mesi, 4, 2);
    let (mut spec, lay) = topo.spec(Strategy::Proposed, LockKind::Turn, false);
    spec.check_coherence = false;
    spec.span_capacity = 256;
    spec.arbitration = hmp_bus::ArbitrationPolicy::Fcfs;
    let a = lay.shared_base;
    let pingpong = |v: u32| {
        let mut b = ProgramBuilder::new();
        for i in 0..2_000 {
            b = b.write(a, v + i);
        }
        b.build()
    };
    let mut sys = System::new(
        &spec,
        (0..4).map(|i| pingpong(i * 10_000)).collect::<Vec<_>>(),
    );

    for _ in 0..500 {
        sys.step();
    }
    let warm_grants = grants(&sys);
    assert!(
        warm_grants > 0,
        "warm-up must reach bus-traffic steady state"
    );

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..1_000 {
        sys.step();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state stepping on a 4-master bridged FCFS fabric must not allocate"
    );

    // Real fabric traffic, spread across all four masters.
    assert!(sys.metrics().is_some(), "metrics enabled");
    assert!(grants(&sys) > warm_grants, "grants during the window");
    assert!(
        sys.master_grants().iter().all(|&g| g > 0),
        "every master won grants: {:?}",
        sys.master_grants()
    );

    // Phase 6: the windowed telemetry registry armed on the same fabric.
    // Every registry structure is preallocated at construction and
    // decimation merges adjacent windows in place, so a steady state full
    // of grants, data-phase spans and window rollovers — including the
    // fast-forward kernel's bulk warp recording — must stay at zero
    // allocations. The window is deliberately tiny so the measured span
    // crosses many boundaries and several decimation merges.
    let topo = hmp_platform::Topology::uniform(ProtocolKind::Mesi, 4, 2);
    let (mut spec, lay) = topo.spec(Strategy::Proposed, LockKind::Turn, false);
    spec.check_coherence = false;
    spec.span_capacity = 256;
    spec.arbitration = hmp_bus::ArbitrationPolicy::Fcfs;
    spec.timeseries = Some(hmp_sim::TimeSeriesSpec {
        window: 64,
        capacity: 16,
    });
    let a = lay.shared_base;
    let pingpong = |v: u32| {
        let mut b = ProgramBuilder::new();
        for i in 0..2_000 {
            b = b.write(a, v + i).delay(20);
        }
        b.build()
    };
    let mut sys = System::new(
        &spec,
        (0..4).map(|i| pingpong(i * 10_000)).collect::<Vec<_>>(),
    );

    for _ in 0..500 {
        sys.step();
    }
    let warm_busy = sys
        .timeseries()
        .expect("telemetry registry armed")
        .recorded_busy();
    assert!(warm_busy > 0, "warm-up must have recorded busy cycles");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..1_000 {
        sys.step();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state stepping with the telemetry registry must not allocate"
    );

    // Fast-forward over the same machine: warps bulk-record into the
    // registry and window merges fire, still without allocating.
    sys.set_kernel(hmp_sim::Kernel::FastForward);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    sys.advance(20_000);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "fast-forward advancement with the telemetry registry must not allocate"
    );

    let reg = sys.timeseries().unwrap();
    assert!(reg.recorded_busy() > warm_busy, "traffic during the window");
    assert!(
        reg.scale() > 0,
        "the measured window must have forced at least one decimation merge"
    );

    // Phase 7: reset-don't-drop. A fault-free `try_reset` onto the same
    // platform shape rewinds every component in place — caches and their
    // occupancy filters, the TAG-CAMs, metrics, telemetry windows, the
    // event schedule — without touching the allocator, and the re-run's
    // steady state holds the same zero-allocation bar with metrics,
    // the telemetry registry AND the invariant checker all armed. This
    // is the sweep paths' cross-run batching: thousands of grid cells,
    // one construction.
    let topo = hmp_platform::Topology::uniform(ProtocolKind::Mesi, 4, 2);
    let (mut spec, lay) = topo.spec(Strategy::Proposed, LockKind::Turn, false);
    spec.check_coherence = false;
    spec.check_invariants = true;
    spec.span_capacity = 256;
    spec.arbitration = hmp_bus::ArbitrationPolicy::Fcfs;
    spec.timeseries = Some(hmp_sim::TimeSeriesSpec {
        window: 64,
        capacity: 16,
    });
    let a = lay.shared_base;
    let pingpong = |v: u32| {
        let mut b = ProgramBuilder::new();
        for i in 0..2_000 {
            b = b.write(a, v + i).delay(20);
        }
        b.build()
    };
    let programs = |base: u32| {
        (0..4)
            .map(|i| pingpong(base + i * 10_000))
            .collect::<Vec<_>>()
    };
    let mut sys = System::new(&spec, programs(0));
    sys.advance(5_000);
    let first_busy = sys
        .timeseries()
        .expect("telemetry registry armed")
        .recorded_busy();
    assert!(first_busy > 0, "first run must have recorded busy cycles");

    // Fresh programs for the second run, built outside the measured
    // window — handing them over moves preallocated buffers, it does not
    // copy them.
    let next = programs(1);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(
        sys.try_reset(&spec, next).is_ok(),
        "an identical shape must reuse the platform"
    );
    for _ in 0..1_500 {
        sys.step();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "try_reset and the re-run's steady state must not allocate"
    );

    // The reset rewound telemetry to zero and the re-run produced real
    // traffic of its own, checked by a live invariant checker.
    assert!(sys.metrics().is_some(), "metrics enabled");
    assert!(grants(&sys) > 0, "grants after the reset");
    let reg = sys.timeseries().unwrap();
    assert!(reg.recorded_busy() > 0, "busy cycles after the reset");
    assert!(
        reg.recorded_busy() < first_busy,
        "reset must rewind the registry, not accumulate across runs"
    );
    assert!(
        sys.invariant_violation().is_none(),
        "the armed invariant checker saw a coherent re-run"
    );
}
