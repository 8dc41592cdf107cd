//! Detector-coverage chaos sweep.
//!
//! Injects every fault class on every platform pairing and strategy
//! (WCS workload, recovery policy armed), runs each cell under both
//! simulation kernels, and reports which safety net — invariant checker,
//! golden-memory checker, or watchdog — caught the damage. Writes the
//! full matrix to `BENCH_CHAOS.json` (into `HMP_BENCH_JSON` if set, the
//! current directory otherwise).
//!
//! Set `HMP_CHAOS_REDUCED=1` for the CI smoke grid (proposed strategy
//! only). Exits nonzero if any cell's kernels disagree, or if any
//! protocol-breaking fault class escapes every detector.

use hmp_bench::chaos::{chaos_json, run_grid};
use hmp_bench::json::bench_json_dir;
use hmp_bench::sweep::default_workers;
use hmp_sim::export::validate_json;
use std::path::PathBuf;

fn main() {
    let reduced = matches!(
        std::env::var("HMP_CHAOS_REDUCED").as_deref(),
        Ok(v) if !v.is_empty() && v != "0"
    );
    println!(
        "chaos sweep — detector coverage ({} grid)",
        if reduced { "reduced" } else { "full" }
    );
    println!();
    println!(
        "{:<20} {:>10} {:>15} {:>18} {:>10} {:>7}  equal",
        "fault", "platform", "strategy", "detector", "outcome", "cycles"
    );

    let (cells, rows) = run_grid(reduced, default_workers());
    for c in &cells {
        println!(
            "{:<20} {:>10} {:>15} {:>18} {:>10} {:>7}  {}",
            c.kind.key(),
            hmp_bench::chaos::platform_key(c.platform),
            c.strategy.key(),
            c.detector.key(),
            c.result.outcome.key(),
            c.result.cycles_u64(),
            c.kernels_agree,
        );
    }

    println!();
    println!("detector-coverage matrix (cells per fault class):");
    println!(
        "{:<20} {:>5} {:>9} {:>10} {:>8} {:>9} {:>11}",
        "fault", "runs", "injected", "invariant", "golden", "watchdog", "undetected"
    );
    for row in &rows {
        let c = row.coverage;
        println!(
            "{:<20} {:>5} {:>9} {:>10} {:>8} {:>9} {:>11}{}",
            row.kind.key(),
            c.runs,
            c.injected,
            c.invariant,
            c.golden,
            c.watchdog,
            c.undetected,
            if row.kind.protocol_breaking() {
                "  [protocol-breaking]"
            } else if row.kind.liveness_breaking() {
                "  [liveness-breaking]"
            } else {
                ""
            },
        );
    }

    let json = chaos_json(reduced, &cells, &rows);
    validate_json(&json).unwrap_or_else(|e| panic!("malformed BENCH_CHAOS.json: {e}"));
    let dir = bench_json_dir().unwrap_or_else(|| PathBuf::from("."));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    let path = dir.join("BENCH_CHAOS.json");
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("\nwrote {}", path.display());

    let divergent: Vec<_> = cells.iter().filter(|c| !c.kernels_agree).collect();
    assert!(
        divergent.is_empty(),
        "kernel divergence on {} chaos cell(s)",
        divergent.len()
    );
    for row in &rows {
        if row.kind.protocol_breaking() {
            assert!(
                row.coverage.detected() >= 1,
                "protocol-breaking class {} escaped every detector",
                row.kind.key()
            );
        }
        if row.kind.liveness_breaking() {
            assert!(
                row.coverage.watchdog >= 1,
                "liveness-breaking class {} never met the watchdog",
                row.kind.key()
            );
        }
    }
}
