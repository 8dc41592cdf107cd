//! Fabric fairness sweep.
//!
//! Runs the WCS workload on homogeneous N-master MESI fabrics across
//! every arbitration discipline and both flat and bridged (two-segment)
//! bus shapes, under both simulation kernels. Prints per-master grant
//! shares and bus utilization, and writes the full grid to
//! `BENCH_FABRIC.json` (into `HMP_BENCH_JSON` if set, the current
//! directory otherwise).
//!
//! Set `HMP_FABRIC_REDUCED=1` for the CI smoke grid (N ∈ {2, 4} only).
//! Exits nonzero if any cell's kernels disagree, if a fair discipline
//! (round-robin / FCFS) hands out grant shares far from 1/N, or if fixed
//! priority fails to starve the lowest-priority master.

use hmp_bench::fabric::{fabric_json, run_grid};
use hmp_bench::json::bench_json_dir;
use hmp_bench::sweep::default_workers;
use hmp_bus::ArbitrationPolicy;
use hmp_sim::export::validate_json;
use std::path::PathBuf;

/// Fair disciplines must keep every grant share within this distance of
/// 1/N on the symmetric workload (completion skew accounts for the
/// last-iteration tail).
const FAIR_SHARE_TOLERANCE: f64 = 0.05;

/// Per-window fairness tolerance for fair disciplines. Individual
/// telemetry windows see more jitter than the whole-run average (a
/// window boundary can split a burst), so the windowed bound is looser —
/// but it still catches transient starvation the run-level average
/// would wash out.
const WINDOW_FAIR_TOLERANCE: f64 = 0.15;

fn main() {
    let reduced = matches!(
        std::env::var("HMP_FABRIC_REDUCED").as_deref(),
        Ok(v) if !v.is_empty() && v != "0"
    );
    println!(
        "fabric sweep — arbitration fairness ({} grid)",
        if reduced { "reduced" } else { "full" }
    );
    println!();
    println!(
        "{:>7} {:>8} {:>15} {:>10} {:>9} {:>6} {:>11} {:>11}  shares",
        "masters",
        "segments",
        "arbitration",
        "outcome",
        "cycles",
        "util",
        "share-err",
        "w-share-err"
    );

    let cells = run_grid(reduced, default_workers());
    for c in &cells {
        let shares = c
            .shares()
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!(
            "{:>7} {:>8} {:>15} {:>10} {:>9} {:>6.3} {:>11.4} {:>11.4}  [{}]",
            c.masters,
            c.segments,
            c.arbitration.key(),
            c.result.outcome.key(),
            c.result.cycles_u64(),
            c.utilization(),
            c.max_share_error(),
            c.max_windowed_share_error(),
            shares,
        );
    }

    let json = fabric_json(reduced, &cells);
    validate_json(&json).unwrap_or_else(|e| panic!("malformed BENCH_FABRIC.json: {e}"));
    let dir = bench_json_dir().unwrap_or_else(|| PathBuf::from("."));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    let path = dir.join("BENCH_FABRIC.json");
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("\nwrote {}", path.display());

    let divergent: Vec<_> = cells.iter().filter(|c| !c.kernels_agree).collect();
    assert!(
        divergent.is_empty(),
        "kernel divergence on {} fabric cell(s)",
        divergent.len()
    );
    for c in &cells {
        let n = c.masters as usize;
        match c.arbitration {
            ArbitrationPolicy::RoundRobin | ArbitrationPolicy::Fcfs => {
                assert!(
                    c.result.is_clean_completion(),
                    "{}x{} {}: fair discipline did not complete: {}",
                    c.masters,
                    c.segments,
                    c.arbitration.key(),
                    c.result
                );
                assert!(
                    c.max_share_error() <= FAIR_SHARE_TOLERANCE,
                    "{}x{} {}: share error {:.4} exceeds {:.2} (shares {:?})",
                    c.masters,
                    c.segments,
                    c.arbitration.key(),
                    c.max_share_error(),
                    FAIR_SHARE_TOLERANCE,
                    c.shares(),
                );
                assert!(
                    c.busy_windows() > 0,
                    "{}x{} {}: no telemetry window cleared the grant floor",
                    c.masters,
                    c.segments,
                    c.arbitration.key(),
                );
                assert!(
                    c.max_windowed_share_error() <= WINDOW_FAIR_TOLERANCE,
                    "{}x{} {}: windowed share error {:.4} exceeds {:.2} — \
                     transient starvation inside a window",
                    c.masters,
                    c.segments,
                    c.arbitration.key(),
                    c.max_windowed_share_error(),
                    WINDOW_FAIR_TOLERANCE,
                );
            }
            ArbitrationPolicy::FixedPriority => {
                let tail = c.shares()[n - 1];
                assert!(
                    tail < 0.5 / n as f64,
                    "{}x{} fixed_priority: lowest-priority master got share \
                     {tail:.4}, expected starvation below {:.4}",
                    c.masters,
                    c.segments,
                    0.5 / n as f64,
                );
            }
        }
    }
    println!(
        "fairness checks passed: RR/FCFS within {FAIR_SHARE_TOLERANCE:.2} of 1/N \
         (every busy window within {WINDOW_FAIR_TOLERANCE:.2}), \
         fixed priority starves the tail master"
    );
}
