//! Chaos-sweep grid: fault classes × platform pairings × strategies.
//!
//! Each grid cell arms one [`FaultKind`] (via a seed-reproducible
//! [`FaultDirective`]) on a WCS run with the recovery policy engaged,
//! executes it under **both** simulation kernels, checks the two
//! [`hmp_platform::RunResult`]s compare equal, and classifies which
//! detector caught the injected damage ([`hmp_platform::chaos::classify`]).
//! Rows aggregate cells per fault class into the detector-coverage matrix
//! that `chaos_sweep` prints and writes to `BENCH_CHAOS.json`.

use crate::sweep::par_map;
use hmp_bus::RecoveryPolicy;
use hmp_cache::ProtocolKind;
use hmp_platform::chaos::{Coverage, Detector};
use hmp_platform::{Kernel, RunResult, Strategy};
use hmp_sim::FaultKind;
use hmp_workloads::{run, FaultDirective, MicrobenchParams, PlatformPick, RunSpec, Scenario};
use std::fmt::Write as _;

/// Watchdog stall window for chaos runs (bus cycles) — small enough that
/// liveness faults report quickly, large enough that healthy drain waits
/// never trip it.
pub const CHAOS_WATCHDOG_WINDOW: u64 = 15_000;

/// Cycle budget per chaos run. Far above the watchdog window, so a
/// liveness fault always meets the watchdog (or the quarantine path)
/// before the budget.
pub const CHAOS_MAX_CYCLES: u64 = 400_000;

/// The recovery policy every chaos cell arms: a small retry budget, a
/// long escalation backoff (so healthy CAM-drain retry bursts never look
/// like a wedge), and quarantine well past any legitimate retry streak.
pub const CHAOS_RECOVERY: RecoveryPolicy = RecoveryPolicy {
    retry_budget: 6,
    escalation_backoff: 64,
    quarantine_after: 200,
};

/// The platform pairings the sweep covers.
pub fn chaos_platforms() -> [PlatformPick; 4] {
    [
        PlatformPick::PpcArm,
        PlatformPick::I486Ppc,
        PlatformPick::Pf1Dual,
        PlatformPick::Pair(ProtocolKind::Mesi, ProtocolKind::Moesi),
    ]
}

/// The shared-data strategies the sweep covers. The reduced (CI smoke)
/// grid keeps only the paper's proposed approach.
pub fn chaos_strategies(reduced: bool) -> &'static [Strategy] {
    if reduced {
        &[Strategy::Proposed]
    } else {
        &[Strategy::Proposed, Strategy::SoftwareDrain]
    }
}

/// Stable snake_case key for a platform pairing (JSON field value).
pub fn platform_key(platform: PlatformPick) -> &'static str {
    match platform {
        PlatformPick::PpcArm => "ppc_arm",
        PlatformPick::I486Ppc => "i486_ppc",
        PlatformPick::Pf1Dual => "pf1_dual",
        PlatformPick::Pair(..) => "mesi_moesi",
        PlatformPick::Fabric { .. } => "fabric",
    }
}

/// The WCS workload every chaos cell runs: small enough to finish fast,
/// large enough that faults land mid-traffic.
pub fn chaos_params() -> MicrobenchParams {
    MicrobenchParams {
        lines_per_iter: 4,
        exec_time: 2,
        outer_iters: 6,
        seed: 7,
        ..Default::default()
    }
}

/// The per-class fault directive: class-appropriate count, window and
/// parameter, seeded per class so the whole sweep is reproducible.
pub fn directive_for(kind: FaultKind) -> FaultDirective {
    let seed = 0xC4A0_5EED ^ ((kind.index() as u64 + 1) * 0x9E37_79B9);
    let mut d = FaultDirective::new(kind, seed, 3);
    d.addr_lines = u64::from(chaos_params().lines_per_iter);
    match kind {
        FaultKind::GrantDrop | FaultKind::GrantDelay => d.param = 40,
        FaultKind::SpuriousRetry => {
            d.count = 4;
            d.param = 3;
        }
        FaultKind::NfiqDelay => {
            d.count = 2;
            d.param = 600;
        }
        FaultKind::NfiqLost | FaultKind::WedgedMaster => d.count = 1,
        FaultKind::CamDesync => d.count = 4,
        FaultKind::SharedCorrupt => {
            d.count = 5;
            d.param = 0; // suppress SHARED: fills Exclusive next to sharers
        }
        FaultKind::LineStateCorrupt => d.count = 5,
    }
    d
}

/// Builds the full [`RunSpec`] for one chaos cell. Invariant checking is
/// armed only under [`Strategy::Proposed`]: the software-drain strategy
/// legitimately holds concurrent writable copies between drains, which
/// the structural checker would (correctly, but unhelpfully) flag.
pub fn chaos_spec(kind: FaultKind, platform: PlatformPick, strategy: Strategy) -> RunSpec {
    chaos_spec_with(directive_for(kind), platform, strategy)
}

/// [`chaos_spec`] with an explicit directive (the bridge cells pin their
/// faults on a specific master).
pub fn chaos_spec_with(
    directive: FaultDirective,
    platform: PlatformPick,
    strategy: Strategy,
) -> RunSpec {
    let mut spec = RunSpec::new(Scenario::Worst, strategy, chaos_params())
        .on(platform)
        .with_faults(directive)
        .with_recovery(CHAOS_RECOVERY)
        .with_watchdog_window(CHAOS_WATCHDOG_WINDOW);
    spec.max_cycles = CHAOS_MAX_CYCLES;
    if strategy == Strategy::Proposed {
        spec = spec.with_invariants();
    }
    spec
}

/// The fabric platform the bridge chaos cells run on: four MESI masters
/// split over two bridged segments, so master [`BRIDGE_TARGET`] sits
/// across the snooping bridge from memory.
pub const BRIDGE_PLATFORM: PlatformPick = PlatformPick::Fabric {
    protocol: ProtocolKind::Mesi,
    masters: 4,
    segments: 2,
};

/// The bridge-endpoint master (on segment 1) the bridge cells aim at.
pub const BRIDGE_TARGET: u32 = 3;

/// The two bridge-endpoint cells appended to every grid: a permanently
/// wedged master behind the bridge (expected to quarantine → Degraded)
/// and a grant blackout longer than the watchdog window (expected to
/// trip the watchdog). Neither may go undetected.
pub fn bridge_directives() -> [FaultDirective; 2] {
    let wedge = directive_for(FaultKind::WedgedMaster).aimed_at(BRIDGE_TARGET);
    let mut blackout = directive_for(FaultKind::GrantDrop).aimed_at(BRIDGE_TARGET);
    blackout.count = 1;
    blackout.param = CHAOS_WATCHDOG_WINDOW + 5_000; // outlives the watchdog window
    [wedge, blackout]
}

/// One finished grid cell.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// Injected fault class.
    pub kind: FaultKind,
    /// Platform pairing.
    pub platform: PlatformPick,
    /// Shared-data strategy.
    pub strategy: Strategy,
    /// Which detector caught the damage (or `Undetected`).
    pub detector: Detector,
    /// The run result (from the fast-forward kernel).
    pub result: RunResult,
    /// Whether the step and fast-forward kernels produced byte-identical
    /// results for this cell.
    pub kernels_agree: bool,
}

/// Runs one cell under both kernels and classifies it.
pub fn run_cell(kind: FaultKind, platform: PlatformPick, strategy: Strategy) -> ChaosCell {
    run_cell_with(directive_for(kind), platform, strategy)
}

/// [`run_cell`] with an explicit directive.
pub fn run_cell_with(
    directive: FaultDirective,
    platform: PlatformPick,
    strategy: Strategy,
) -> ChaosCell {
    let spec = chaos_spec_with(directive, platform, strategy);
    let fast = run(&spec.with_kernel(Kernel::FastForward));
    let step = run(&spec.with_kernel(Kernel::Step));
    let kernels_agree = fast == step;
    let detector = hmp_platform::chaos::classify(&fast);
    ChaosCell {
        kind: directive.kind,
        platform,
        strategy,
        detector,
        result: fast,
        kernels_agree,
    }
}

/// One detector-coverage row: a fault class with its aggregated cells.
#[derive(Debug, Clone, Copy)]
pub struct CoverageRow {
    /// The fault class.
    pub kind: FaultKind,
    /// Aggregated detector counts across the class's cells.
    pub coverage: Coverage,
}

/// Runs the whole grid (in parallel — every cell is deterministic and
/// independent) and aggregates the coverage matrix in
/// [`FaultKind::ALL`] order.
pub fn run_grid(reduced: bool, workers: usize) -> (Vec<ChaosCell>, Vec<CoverageRow>) {
    let mut points = Vec::new();
    for kind in FaultKind::ALL {
        for platform in chaos_platforms() {
            for &strategy in chaos_strategies(reduced) {
                points.push((directive_for(kind), platform, strategy));
            }
        }
    }
    // The two bridge-endpoint cells ride on every grid, reduced or not.
    for directive in bridge_directives() {
        points.push((directive, BRIDGE_PLATFORM, Strategy::Proposed));
    }
    let cells = par_map(&points, workers, |&(directive, platform, strategy)| {
        run_cell_with(directive, platform, strategy)
    });
    let mut rows: Vec<CoverageRow> = FaultKind::ALL
        .iter()
        .map(|&kind| CoverageRow {
            kind,
            coverage: Coverage::default(),
        })
        .collect();
    for cell in &cells {
        rows[cell.kind.index()].coverage.absorb(&cell.result);
    }
    (cells, rows)
}

/// Renders the sweep as the `BENCH_CHAOS.json` document.
pub fn chaos_json(reduced: bool, cells: &[ChaosCell], rows: &[CoverageRow]) -> String {
    let mut out = String::from("{");
    let _ = write!(
        out,
        concat!(
            r#""schema_version":{},"bench":"chaos_sweep","reduced":{},"scenario":"Worst","#,
            r#""watchdog_window":{},"max_cycles":{},"cells":["#
        ),
        hmp_sim::export::SCHEMA_VERSION,
        reduced,
        CHAOS_WATCHDOG_WINDOW,
        CHAOS_MAX_CYCLES,
    );
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            concat!(
                r#"{{"fault":"{}","platform":"{}","strategy":"{}","detector":"{}","#,
                r#""outcome":"{}","cycles":{},"faults_injected":{},"kernels_agree":{}}}"#
            ),
            c.kind.key(),
            platform_key(c.platform),
            c.strategy.key(),
            c.detector.key(),
            c.result.outcome.key(),
            c.result.cycles_u64(),
            c.result.faults_injected,
            c.kernels_agree,
        );
    }
    out.push_str(r#"],"coverage":["#);
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let cov = row.coverage;
        let _ = write!(
            out,
            concat!(
                r#"{{"fault":"{}","protocol_breaking":{},"liveness_breaking":{},"#,
                r#""runs":{},"injected":{},"invariant_checker":{},"golden_checker":{},"#,
                r#""watchdog":{},"undetected":{},"detected":{}}}"#
            ),
            row.kind.key(),
            row.kind.protocol_breaking(),
            row.kind.liveness_breaking(),
            cov.runs,
            cov.injected,
            cov.invariant,
            cov.golden,
            cov.watchdog,
            cov.undetected,
            cov.detected(),
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmp_platform::RunOutcome;
    use hmp_sim::export::validate_json;

    #[test]
    fn grid_axes_meet_the_coverage_floor() {
        // ≥ 6 fault classes × ≥ 4 platform pairings, even reduced.
        const { assert!(FaultKind::COUNT >= 6) };
        assert_eq!(chaos_platforms().len(), 4);
        assert_eq!(chaos_strategies(true).len(), 1);
        assert_eq!(chaos_strategies(false).len(), 2);
    }

    #[test]
    fn directives_are_reproducible_and_distinct() {
        for kind in FaultKind::ALL {
            assert_eq!(directive_for(kind), directive_for(kind));
            assert!(directive_for(kind).count >= 1);
        }
        assert_ne!(
            directive_for(FaultKind::GrantDrop).seed,
            directive_for(FaultKind::CamDesync).seed
        );
    }

    #[test]
    fn one_cell_runs_and_serializes() {
        let cell = run_cell(
            FaultKind::SpuriousRetry,
            PlatformPick::PpcArm,
            Strategy::Proposed,
        );
        assert!(cell.kernels_agree, "kernels diverged: {:?}", cell.result);
        assert!(cell.result.faults_injected >= 1);
        let row = CoverageRow {
            kind: cell.kind,
            coverage: {
                let mut c = Coverage::default();
                c.absorb(&cell.result);
                c
            },
        };
        let json = chaos_json(true, std::slice::from_ref(&cell), &[row]);
        validate_json(&json).expect("chaos JSON must parse");
        assert!(json.contains(r#""fault":"spurious_retry""#), "{json}");
        assert!(json.contains(r#""kernels_agree":true"#), "{json}");
    }

    #[test]
    fn bridge_cells_are_detected_never_silent() {
        for directive in bridge_directives() {
            let cell = run_cell_with(directive, BRIDGE_PLATFORM, Strategy::Proposed);
            assert!(
                cell.kernels_agree,
                "{}: kernels diverged: {:?}",
                directive.kind.key(),
                cell.result
            );
            assert_ne!(
                cell.detector,
                Detector::Undetected,
                "{} at the bridge endpoint escaped every detector: {:?}",
                directive.kind.key(),
                cell.result
            );
        }
    }

    #[test]
    fn keys_are_stable() {
        assert_eq!(platform_key(PlatformPick::PpcArm), "ppc_arm");
        assert_eq!(
            platform_key(PlatformPick::Pair(ProtocolKind::Mei, ProtocolKind::Msi)),
            "mesi_moesi"
        );
        assert_eq!(platform_key(BRIDGE_PLATFORM), "fabric");
        assert_eq!(Strategy::SoftwareDrain.key(), "software_drain");
        assert_eq!(RunOutcome::Completed.key(), "completed");
        assert_eq!(
            RunOutcome::Degraded {
                quarantined: 1,
                faults_absorbed: 1
            }
            .key(),
            "degraded"
        );
    }
}
