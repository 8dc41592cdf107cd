//! Bounds what `Runner::prepare` allocates.
//!
//! The platform's memory and its golden image are paged: a fresh
//! platform maps only the zero page, and a run maps each page it writes.
//! So a cold prepare costs the platform's structures, not 2 × 4 MiB of
//! images, and the reuse arm zeroes pages it already holds instead of
//! allocating new ones. Each component makes one allocation, not one
//! per cache set, so a cold prepare also makes few allocation calls.
//!
//! Measured with a counting `#[global_allocator]` that sums requested
//! bytes (a `realloc` counts its growth) and counts calls; this file
//! holds a single test so no concurrent test can perturb the counters.

use hmp_platform::{presets, Strategy};
use hmp_workloads::{
    build_programs_for, scenario_lock_kind, MicrobenchParams, RunSpec, Runner, Scenario,
};
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicUsize, Ordering};

static BYTES: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

// SAFETY: delegates verbatim to the std system allocator; the counter is
// a relaxed atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes allocated and allocation calls made while `f` runs.
fn measure(f: impl FnOnce()) -> (usize, usize) {
    let (bytes, calls) = (BYTES.load(Ordering::Relaxed), CALLS.load(Ordering::Relaxed));
    f();
    (
        BYTES.load(Ordering::Relaxed) - bytes,
        CALLS.load(Ordering::Relaxed) - calls,
    )
}

/// A Figures 5–7 cell on PF2, as the figure binaries size it.
fn figure_cell(strategy: Strategy) -> RunSpec {
    RunSpec::new(
        Scenario::Worst,
        strategy,
        MicrobenchParams {
            lines_per_iter: 32,
            exec_time: 1,
            outer_iters: 8,
            seed: 1,
            ..Default::default()
        },
    )
}

#[test]
fn prepare_allocates_only_what_a_run_touches() {
    let mut runner = Runner::new();
    let (bytes, calls) = measure(|| {
        runner.prepare(&figure_cell(Strategy::Proposed));
    });
    assert!(
        bytes < 1 << 20,
        "a cold prepare allocated {bytes} bytes; full-size memory images are back"
    );
    assert!(
        calls <= 100,
        "a cold prepare made {calls} allocation calls; per-set storage is back"
    );

    // Run every strategy once so each page the cells write is mapped.
    // Preparing them again then allocates only the cell's platform spec
    // and programs, which the reuse arm builds afresh: resetting the
    // platform, its memory and its golden image allocates nothing.
    let cells = Strategy::ALL.map(figure_cell);
    for cell in &cells {
        assert!(runner.run(cell).is_clean_completion());
    }
    for cell in &cells {
        let (inputs, _) = measure(|| {
            let (pspec, lay) =
                presets::ppc_arm(cell.strategy, scenario_lock_kind(cell.scenario), false);
            build_programs_for(
                cell.scenario,
                cell.strategy,
                &cell.params,
                &lay,
                pspec.cpus.len(),
            );
        });
        let (bytes, _) = measure(|| {
            runner.prepare(cell);
        });
        assert!(
            bytes <= inputs,
            "the reuse arm allocated {bytes} bytes for {:?}, its spec and programs {inputs}",
            cell.strategy
        );
    }
    assert_eq!(runner.rebuilds(), 1, "every later cell reused the platform");
}
