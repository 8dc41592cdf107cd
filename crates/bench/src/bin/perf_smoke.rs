//! Simulator performance smoke test: cycles/sec under both kernels.
//!
//! Runs WCS/TCS/BCS on all four platform classes under both
//! [`Kernel::Step`](hmp_sim::Kernel::Step) and
//! [`Kernel::FastForward`](hmp_sim::Kernel::FastForward), plus the
//! explicitly event-dense cells (the dense Figure-5 burst corner and a
//! 4-master FCFS fabric), checks that every cell's two results compare equal,
//! times one full WCS grid under each kernel at both the Figure 5 burst
//! penalty (13) and the Figure 8 endpoint (96), and writes everything to
//! `BENCH_PERF.json` — into the `HMP_BENCH_JSON` directory if set, the
//! current directory otherwise. CI runs this on every push, so the JSON
//! history is the simulator's tracked cycles/sec trajectory.
//!
//! Exits nonzero if any cell's kernels disagree, any run fails to
//! complete cleanly, a kernel self-profile comes back malformed, or the
//! fast-forward kernel falls behind per-cycle stepping on an event-dense
//! cell — the regime the incremental planner exists for.

use hmp_bench::json::bench_json_dir;
use hmp_bench::perf::{
    event_dense_cells, measure_cells, measure_fig5_sweep, measure_fig8_sweep, perf_json, PerfCell,
};
use hmp_sim::export::validate_json;
use hmp_sim::KernelProfile;
use std::path::PathBuf;
use std::time::Duration;

/// A self-profile that doesn't add up is a measurement bug, not a perf
/// regression; fail fast on it.
fn validate_profile(label: &str, profile: Option<&KernelProfile>) {
    let p = profile.unwrap_or_else(|| panic!("{label}: profiled run lost its profile"));
    assert!(p.wall_ns > 0, "{label}: empty profile wall time");
    assert!(p.iterations > 0, "{label}: no loop iterations profiled");
    assert!(
        p.full_steps + p.cpu_only_steps <= p.iterations,
        "{label}: step mix exceeds iterations: {p:?}"
    );
    let phases = p.plan_ns + p.warp_ns + p.step_ns + p.cpu_only_ns;
    assert!(
        phases <= p.wall_ns,
        "{label}: phase split exceeds wall time: {p:?}"
    );
}

fn print_cell(c: &PerfCell) {
    println!(
        "{:<4} {:>12} {:>8} {:>14.0} {:>14.0} {:>8.2}x  {}",
        c.scenario.to_string(),
        c.platform,
        c.cycles,
        c.step_cps,
        c.fast_cps,
        c.speedup(),
        c.equivalent,
    );
}

fn main() {
    // Long enough per cell that short-timer jitter washes out, short
    // enough that the whole smoke run stays in CI-friendly territory.
    let min_wall = Duration::from_millis(30);

    println!("perf smoke — simulated cycles per wall-clock second");
    println!();
    println!(
        "{:<4} {:>12} {:>8} {:>14} {:>14} {:>9}  equal",
        "case", "platform", "cycles", "step c/s", "fastfwd c/s", "speedup"
    );
    let mut cells = measure_cells(min_wall);
    for c in &cells {
        print_cell(c);
    }

    println!();
    println!("event-dense cells (the ≥2× target's home turf):");
    let dense = event_dense_cells(min_wall);
    for c in &dense {
        print_cell(c);
    }
    cells.extend(dense.iter().cloned());

    println!();
    let sweeps = [measure_fig5_sweep(), measure_fig8_sweep()];
    for s in &sweeps {
        println!(
            "{} (burst {}, {} points, {} cycles): step {:.0} c/s, fast-forward {:.0} c/s, {:.2}x",
            s.slug,
            s.burst_penalty,
            s.points,
            s.total_cycles,
            s.step_cps,
            s.fast_cps,
            s.speedup(),
        );
        if let Some(p) = &s.profile {
            println!(
                "  profile: plan {}µs, warp {}µs, step {}µs, cpu-only {}µs over {} iterations",
                p.plan_ns / 1_000,
                p.warp_ns / 1_000,
                p.step_ns / 1_000,
                p.cpu_only_ns / 1_000,
                p.iterations,
            );
        }
    }

    let json = perf_json(&cells, &sweeps);
    validate_json(&json).unwrap_or_else(|e| panic!("malformed BENCH_PERF.json: {e}"));
    let dir = bench_json_dir().unwrap_or_else(|| PathBuf::from("."));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    let path = dir.join("BENCH_PERF.json");
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("\nwrote {}", path.display());

    let divergent: Vec<_> = cells.iter().filter(|c| !c.equivalent).collect();
    assert!(
        divergent.is_empty(),
        "kernel divergence on {} cell(s): {divergent:?}",
        divergent.len()
    );
    for c in &cells {
        validate_profile(c.platform, c.profile.as_ref());
    }
    for s in &sweeps {
        assert!(s.equivalent, "kernel divergence on {}", s.slug);
        validate_profile(s.slug, s.profile.as_ref());
    }
    // The event-dense gate: fast-forward exists to never be slower than
    // stepping. Allow a sliver of timer noise, nothing more.
    for c in &dense {
        assert!(
            c.fast_cps >= c.step_cps * 0.95,
            "{}: fast-forward ({:.0} c/s) regressed below the step kernel ({:.0} c/s)",
            c.platform,
            c.fast_cps,
            c.step_cps,
        );
    }
}
