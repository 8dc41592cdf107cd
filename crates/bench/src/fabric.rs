//! Fabric fairness sweep: master count × arbitration × segmentation.
//!
//! Each grid cell runs the WCS workload on a homogeneous N-master MESI
//! fabric ([`PlatformPick::Fabric`]) under one arbitration discipline,
//! executes it under **both** simulation kernels, and records per-master
//! grant counts, grant shares, acquire-wait histograms and bus
//! utilization. The fairness story mirrors the queueing-model comparison
//! of FCFS against fixed-priority service (arXiv:1004.3560): round-robin
//! and FCFS grant shares approach 1/N under symmetric load, while fixed
//! priority starves the lowest-priority master outright.

use crate::sweep::par_map;
use hmp_bus::ArbitrationPolicy;
use hmp_cache::ProtocolKind;
use hmp_platform::{Kernel, RunResult, Strategy};
use hmp_sim::TimeSeriesSpec;
use hmp_workloads::{prepare, MicrobenchParams, PlatformPick, RunSpec, Scenario};
use std::fmt::Write as _;

/// Cycle budget per fabric run. Fixed-priority cells starve the tail
/// masters out of the turn lock and never complete; the budget bounds
/// them while leaving fair disciplines room to finish.
pub const FABRIC_MAX_CYCLES: u64 = 2_000_000;

/// Base telemetry window for fabric runs. At the 2M-cycle budget the
/// registry decimates a couple of times, landing on a few dozen windows
/// — enough resolution to see per-window grant shares without growing
/// the JSON unreasonably.
pub const FABRIC_TS_WINDOW: u64 = 8192;

/// A window must carry at least this many grants *per master* before
/// its shares count toward windowed fairness: the startup ramp and the
/// completion tail have too few grants for shares to be meaningful.
pub const FABRIC_WINDOW_MIN_GRANTS_PER_MASTER: u64 = 16;

/// Master counts the sweep covers; the reduced (CI smoke) grid keeps the
/// two-and-four-master columns.
pub fn fabric_masters(reduced: bool) -> &'static [u8] {
    if reduced {
        &[2, 4]
    } else {
        &[2, 3, 4, 6, 8]
    }
}

/// Segment counts: a flat bus and a two-segment bridged fabric.
pub const FABRIC_SEGMENTS: [u8; 2] = [1, 2];

/// The symmetric WCS workload every fabric cell runs: every master
/// contends for the same lock-guarded lines, so a fair arbiter should
/// hand out grants evenly.
pub fn fabric_params() -> MicrobenchParams {
    MicrobenchParams {
        lines_per_iter: 4,
        exec_time: 2,
        outer_iters: 4,
        seed: 11,
        ..Default::default()
    }
}

/// Builds the [`RunSpec`] for one fabric cell (spans on, so the
/// acquire-wait histogram is populated).
pub fn fabric_spec(masters: u8, segments: u8, arbitration: ArbitrationPolicy) -> RunSpec {
    let mut spec = RunSpec::new(Scenario::Worst, Strategy::Proposed, fabric_params())
        .on(PlatformPick::Fabric {
            protocol: ProtocolKind::Mesi,
            masters,
            segments,
        })
        .with_arbitration(arbitration)
        .with_spans(64)
        .with_timeseries(TimeSeriesSpec::with_window(FABRIC_TS_WINDOW));
    spec.max_cycles = FABRIC_MAX_CYCLES;
    spec
}

/// One finished fabric cell.
#[derive(Debug, Clone)]
pub struct FabricCell {
    /// Master count N.
    pub masters: u8,
    /// Bus segments (1 = flat, 2 = bridged).
    pub segments: u8,
    /// Arbitration discipline.
    pub arbitration: ArbitrationPolicy,
    /// Per-master grant counts, in master order.
    pub grants: Vec<u64>,
    /// The run result (from the fast-forward kernel).
    pub result: RunResult,
    /// Whether the two kernels produced byte-identical results *and*
    /// identical per-master grant counts.
    pub kernels_agree: bool,
}

impl FabricCell {
    /// Per-master grant shares (each master's fraction of all grants).
    pub fn shares(&self) -> Vec<f64> {
        let total: u64 = self.grants.iter().sum();
        if total == 0 {
            return vec![0.0; self.grants.len()];
        }
        self.grants
            .iter()
            .map(|&g| g as f64 / total as f64)
            .collect()
    }

    /// Largest deviation of any master's grant share from the fair 1/N.
    pub fn max_share_error(&self) -> f64 {
        let fair = 1.0 / self.grants.len() as f64;
        self.shares()
            .iter()
            .map(|s| (s - fair).abs())
            .fold(0.0, f64::max)
    }

    /// Bus utilization: fraction of elapsed cycles spent granting or
    /// moving data.
    pub fn utilization(&self) -> f64 {
        let cycles = self.result.cycles_u64();
        if cycles == 0 {
            return 0.0;
        }
        (self.result.bus.grants + self.result.bus.data_cycles) as f64 / cycles as f64
    }

    /// The grant threshold below which a window's shares are ignored.
    pub fn window_min_grants(&self) -> u64 {
        FABRIC_WINDOW_MIN_GRANTS_PER_MASTER * self.grants.len() as u64
    }

    /// Windows whose grant shares the fairness check judges: every
    /// window that cleared [`Self::window_min_grants`], minus the final
    /// busy window when there is more than one. Masters complete at
    /// different cycles, so the drain window at the end of a run is
    /// *inherently* skewed — one task's tail runs unopposed — and says
    /// nothing about arbitration fairness. With a single busy window the
    /// windowed check degenerates to the whole-run share check, which
    /// already covers the drain.
    fn judged_windows(&self) -> Vec<usize> {
        let Some(snap) = &self.result.timeseries else {
            return Vec::new();
        };
        let mut busy: Vec<usize> = (0..snap.samples())
            .filter(|&i| snap.window_grants(i) >= self.window_min_grants())
            .collect();
        if busy.len() > 1 {
            busy.pop();
        }
        busy
    }

    /// Telemetry windows the fairness check judges: every window that
    /// cleared [`Self::window_min_grants`], minus the final busy window
    /// when there is more than one.
    pub fn busy_windows(&self) -> usize {
        self.judged_windows().len()
    }

    /// *Windowed* fairness: the largest deviation of any master's grant
    /// share from the fair 1/N inside any judged window. Whole-run
    /// shares can hide transient starvation that averages out; this
    /// can't.
    pub fn max_windowed_share_error(&self) -> f64 {
        let Some(snap) = &self.result.timeseries else {
            return 0.0;
        };
        let fair = 1.0 / self.grants.len() as f64;
        let mut worst = 0.0f64;
        for i in self.judged_windows() {
            for s in snap.grant_shares(i) {
                worst = worst.max((s - fair).abs());
            }
        }
        worst
    }
}

/// Runs one cell under both kernels and compares them.
pub fn run_cell(masters: u8, segments: u8, arbitration: ArbitrationPolicy) -> FabricCell {
    let spec = fabric_spec(masters, segments, arbitration);
    let mut fast_sys = prepare(&spec.with_kernel(Kernel::FastForward));
    let fast = fast_sys.run(spec.max_cycles);
    let fast_grants = fast_sys.master_grants().to_vec();
    let mut step_sys = prepare(&spec.with_kernel(Kernel::Step));
    let step = step_sys.run(spec.max_cycles);
    let kernels_agree = fast == step && fast_grants == step_sys.master_grants();
    FabricCell {
        masters,
        segments,
        arbitration,
        grants: fast_grants,
        result: fast,
        kernels_agree,
    }
}

/// Runs the whole grid in parallel (every cell is deterministic and
/// independent), in (masters, arbitration, segments) row order.
pub fn run_grid(reduced: bool, workers: usize) -> Vec<FabricCell> {
    let mut points = Vec::new();
    for &masters in fabric_masters(reduced) {
        for arbitration in ArbitrationPolicy::ALL {
            for segments in FABRIC_SEGMENTS {
                points.push((masters, segments, arbitration));
            }
        }
    }
    par_map(&points, workers, |&(masters, segments, arbitration)| {
        run_cell(masters, segments, arbitration)
    })
}

/// Renders the sweep as the `BENCH_FABRIC.json` document.
pub fn fabric_json(reduced: bool, cells: &[FabricCell]) -> String {
    let mut out = String::from("{");
    let _ = write!(
        out,
        concat!(
            r#""schema_version":{},"bench":"fabric_sweep","reduced":{},"scenario":"Worst","#,
            r#""strategy":"proposed","max_cycles":{},"ts_window":{},"cells":["#
        ),
        hmp_sim::export::SCHEMA_VERSION,
        reduced,
        FABRIC_MAX_CYCLES,
        FABRIC_TS_WINDOW,
    );
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            concat!(
                r#"{{"masters":{},"segments":{},"arbitration":"{}","outcome":"{}","#,
                r#""cycles":{},"kernels_agree":{},"utilization":{:.6},"#,
                r#""max_share_error":{:.6},"max_windowed_share_error":{:.6},"#,
                r#""busy_windows":{},"grants":["#
            ),
            c.masters,
            c.segments,
            c.arbitration.key(),
            c.result.outcome.key(),
            c.result.cycles_u64(),
            c.kernels_agree,
            c.utilization(),
            c.max_share_error(),
            c.max_windowed_share_error(),
            c.busy_windows(),
        );
        for (j, g) in c.grants.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{g}");
        }
        out.push_str(r#"],"shares":["#);
        for (j, s) in c.shares().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{s:.6}");
        }
        out.push_str("],");
        match &c.result.timeseries {
            Some(snap) => {
                let _ = write!(
                    out,
                    r#""windows":{{"window_cycles":{},"series":["#,
                    snap.effective_window()
                );
                for i in 0..snap.samples() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        r#"{{"start":{},"grants":{},"utilization":{:.6},"shares":["#,
                        snap.window_start(i),
                        snap.window_grants(i),
                        snap.utilization(i),
                    );
                    for (j, s) in snap.grant_shares(i).iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{s:.6}");
                    }
                    out.push_str("]}");
                }
                out.push_str("]},");
            }
            None => out.push_str(r#""windows":null,"#),
        }
        if let Some(m) = &c.result.metrics {
            let h = &m.acquire_wait;
            let _ = write!(
                out,
                r#""acquire_wait":{{"count":{},"mean":{:.3},"max":{},"buckets":["#,
                h.count(),
                h.mean(),
                h.max(),
            );
            for (j, (lo, hi, n)) in h.iter_nonzero().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{lo},{hi},{n}]");
            }
            out.push_str("]}}");
        } else {
            out.push_str(r#""acquire_wait":null}"#);
        }
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
    fn grid_axes_cover_the_issue_floor() {
        assert_eq!(fabric_masters(false), &[2, 3, 4, 6, 8]);
        assert_eq!(fabric_masters(true), &[2, 4]);
        assert_eq!(ArbitrationPolicy::ALL.len(), 3);
        assert_eq!(FABRIC_SEGMENTS, [1, 2]);
    }

    #[test]
    fn share_math() {
        let cell = FabricCell {
            masters: 4,
            segments: 1,
            arbitration: ArbitrationPolicy::RoundRobin,
            grants: vec![25, 25, 25, 25],
            result: dummy_result(),
            kernels_agree: true,
        };
        assert!(cell.max_share_error() < 1e-9);
        assert_eq!(cell.shares(), vec![0.25; 4]);
        let skewed = FabricCell {
            grants: vec![97, 1, 1, 1],
            ..cell
        };
        assert!(skewed.max_share_error() > 0.7);
        assert!(skewed.shares()[3] < 0.5 / 4.0, "starved tail master");
    }

    fn dummy_result() -> RunResult {
        RunResult {
            outcome: RunOutcome::Completed,
            cycles: hmp_sim::Cycle::new(1000),
            bus: hmp_bus::BusStats::default(),
            cpus: Vec::new(),
            stats: hmp_sim::CounterBank::new(0),
            violations: Vec::new(),
            metrics: None,
            hang: None,
            invariant: None,
            faults_injected: 0,
            timeseries: None,
            profile: None,
        }
    }

    #[test]
    fn one_cell_runs_and_serializes() {
        let cell = run_cell(3, 2, ArbitrationPolicy::Fcfs);
        assert!(cell.kernels_agree, "kernels diverged: {:?}", cell.result);
        assert_eq!(cell.grants.len(), 3);
        assert!(
            cell.result.is_clean_completion(),
            "FCFS fabric should finish: {}",
            cell.result
        );
        let snap = cell
            .result
            .timeseries
            .as_ref()
            .expect("fabric cells run with telemetry armed");
        assert!(snap.samples() > 0);
        assert!(cell.busy_windows() > 0, "no window cleared the grant floor");
        assert!(
            cell.max_windowed_share_error() < 0.5,
            "windowed share error {:.4} is not a share deviation",
            cell.max_windowed_share_error()
        );
        let json = fabric_json(true, std::slice::from_ref(&cell));
        validate_json(&json).expect("fabric JSON must parse");
        assert!(json.starts_with(r#"{"schema_version":1,"#), "{json}");
        assert!(json.contains(r#""arbitration":"fcfs""#), "{json}");
        assert!(json.contains(r#""kernels_agree":true"#), "{json}");
        assert!(json.contains(r#""acquire_wait":{"#), "{json}");
        assert!(json.contains(r#""windows":{"window_cycles":"#), "{json}");
        assert!(json.contains(r#""max_windowed_share_error":"#), "{json}");
    }

    #[test]
    fn arbitration_keys_are_stable() {
        assert_eq!(ArbitrationPolicy::RoundRobin.key(), "round_robin");
        assert_eq!(ArbitrationPolicy::FixedPriority.key(), "fixed_priority");
        assert_eq!(ArbitrationPolicy::Fcfs.key(), "fcfs");
    }
}
