//! Simulation run results.

use crate::{InvariantViolation, Violation};
use core::fmt;
use hmp_bus::BusStats;
use hmp_cpu::CpuCounters;
use hmp_sim::{CounterBank, Cycle, KernelProfile, MetricsSnapshot, Span, TimeSeriesSnapshot};

/// Why the run loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every program halted and all queued bus work drained.
    Completed,
    /// The watchdog saw no forward progress for its full window — the
    /// hardware deadlock of paper Figure 4 reports this way.
    Stalled,
    /// The cycle budget ran out first.
    CycleLimit,
    /// The live invariant checker caught a broken line invariant and the
    /// run failed fast (see [`RunResult::invariant`]).
    InvariantViolation,
    /// Recovery escalation quarantined one or more wedged masters and the
    /// surviving platform ran to completion — the fault-injection
    /// alternative to hanging into [`RunOutcome::Stalled`].
    Degraded {
        /// Masters the recovery policy quarantined.
        quarantined: u32,
        /// Faults injected up to the point the run wound down.
        faults_absorbed: u64,
    },
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunOutcome::Completed => write!(f, "completed"),
            RunOutcome::Stalled => write!(f, "stalled (deadlock)"),
            RunOutcome::CycleLimit => write!(f, "cycle limit reached"),
            RunOutcome::InvariantViolation => write!(f, "invariant violation"),
            RunOutcome::Degraded {
                quarantined,
                faults_absorbed,
            } => write!(
                f,
                "degraded ({quarantined} master(s) quarantined, \
                 {faults_absorbed} fault(s) absorbed)"
            ),
        }
    }
}

/// Post-mortem context for a watchdog stall: what the bus was doing when
/// progress stopped.
///
/// Built from the span layer when the platform runs with metrics enabled;
/// without metrics only the timing fields are populated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HangReport {
    /// Bus cycle at which the watchdog tripped.
    pub stalled_at: Cycle,
    /// The watchdog window that elapsed without progress.
    pub window: Cycle,
    /// The most recently completed spans, oldest first.
    pub last_spans: Vec<Span>,
    /// Every span still open — the transactions wedging each other.
    pub open_spans: Vec<Span>,
}

impl fmt::Display for HangReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "watchdog tripped at cycle {} after {} cycles without progress",
            self.stalled_at.as_u64(),
            self.window.as_u64()
        )?;
        if !self.open_spans.is_empty() {
            writeln!(f, "open transactions:")?;
            for s in &self.open_spans {
                writeln!(f, "  {s}")?;
            }
        }
        if !self.last_spans.is_empty() {
            writeln!(f, "last completed transactions:")?;
            for s in &self.last_spans {
                writeln!(f, "  {s}")?;
            }
        }
        Ok(())
    }
}

/// Everything a finished run reports.
///
/// `PartialEq` compares every *deterministic* field — outcome, cycles,
/// bus stats, CPU counters, platform counters, violations, metrics and
/// timeseries snapshots, hang and invariant reports — which is exactly
/// what the kernel-equivalence suite pins: two kernels agree only if
/// their whole simulated results agree. The one exclusion is
/// [`RunResult::profile`]: wall-clock timing and the step/warp mix are
/// kernel- and machine-dependent by construction, so the manual
/// `PartialEq` below skips that field.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Bus cycles elapsed — the paper's *execution time* metric.
    pub cycles: Cycle,
    /// Bus activity counters.
    pub bus: BusStats,
    /// Per-CPU activity counters, in master order.
    pub cpus: Vec<CpuCounters>,
    /// Fine-grained platform counters: per-CPU hits, misses, snoop and
    /// ISR activity, and bus retries by cause.
    pub stats: CounterBank,
    /// Stale reads the checker recorded (empty when coherent or the
    /// checker was off).
    pub violations: Vec<Violation>,
    /// Spans, histograms and derived counters (when the platform ran with
    /// `span_capacity > 0`).
    pub metrics: Option<MetricsSnapshot>,
    /// Span-level context for a [`RunOutcome::Stalled`] run.
    pub hang: Option<HangReport>,
    /// The broken line invariant behind a
    /// [`RunOutcome::InvariantViolation`] run.
    pub invariant: Option<InvariantViolation>,
    /// Faults the platform's fault engine injected (0 for fault-free
    /// runs, which carry no engine at all).
    pub faults_injected: u64,
    /// Windowed telemetry series (when the platform ran with a
    /// [`hmp_sim::TimeSeriesSpec`]). Fully deterministic — both kernels
    /// must produce the identical snapshot.
    pub timeseries: Option<TimeSeriesSnapshot>,
    /// Kernel self-profile: wall-time split and step mix (when the spec
    /// armed profiling or telemetry). **Excluded** from `PartialEq`.
    pub profile: Option<KernelProfile>,
}

impl PartialEq for RunResult {
    fn eq(&self, other: &Self) -> bool {
        self.outcome == other.outcome
            && self.cycles == other.cycles
            && self.bus == other.bus
            && self.cpus == other.cpus
            && self.stats == other.stats
            && self.violations == other.violations
            && self.metrics == other.metrics
            && self.hang == other.hang
            && self.invariant == other.invariant
            && self.faults_injected == other.faults_injected
            && self.timeseries == other.timeseries
        // `profile` deliberately omitted: wall time and warp mix differ
        // across kernels and machines.
    }
}

impl RunResult {
    /// `true` if the run completed with no coherence violations.
    pub fn is_clean_completion(&self) -> bool {
        self.outcome == RunOutcome::Completed
            && self.violations.is_empty()
            && self.invariant.is_none()
    }

    /// Execution time as a plain cycle count.
    pub fn cycles_u64(&self) -> u64 {
        self.cycles.as_u64()
    }
}

impl fmt::Display for RunResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "outcome:    {}", self.outcome)?;
        writeln!(f, "cycles:     {}", self.cycles.as_u64())?;
        writeln!(
            f,
            "bus:        {} grants, {} retries, {} drains, {} data cycles",
            self.bus.grants, self.bus.retries, self.bus.drains, self.bus.data_cycles
        )?;
        for (i, c) in self.cpus.iter().enumerate() {
            writeln!(
                f,
                "cpu{i}:       {} reads, {} writes, {} maint, {} lock-ops, {} ISRs",
                c.reads, c.writes, c.maintenance, c.lock_mem_ops, c.isr_entries
            )?;
        }
        if !self.violations.is_empty() {
            writeln!(f, "VIOLATIONS: {}", self.violations.len())?;
            for v in self.violations.iter().take(5) {
                writeln!(f, "  {v}")?;
            }
        }
        if let Some(v) = &self.invariant {
            writeln!(f, "INVARIANT:  {v}")?;
        }
        if self.faults_injected > 0 {
            writeln!(f, "faults:     {} injected", self.faults_injected)?;
        }
        if let Some(h) = &self.hang {
            write!(f, "{h}")?;
        }
        if let Some(m) = &self.metrics {
            writeln!(f, "{m}")?;
        }
        if let Some(p) = &self.profile {
            if p.wall_ns > 0 {
                writeln!(
                    f,
                    "kernel:     {} — {:.1} Mcyc/s (plan {}us, warp {}us, step {}us, \
                     cpu-only {}us; {} warped, {} full, {} cpu-only)",
                    p.kernel,
                    p.cycles_per_sec / 1e6,
                    p.plan_ns / 1000,
                    p.warp_ns / 1000,
                    p.step_ns / 1000,
                    p.cpu_only_ns / 1000,
                    p.warped_cycles,
                    p.full_steps,
                    p.cpu_only_steps,
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InvariantKind;
    use hmp_cache::LineState;
    use hmp_mem::Addr;

    fn result(outcome: RunOutcome) -> RunResult {
        RunResult {
            outcome,
            cycles: Cycle::new(100),
            bus: BusStats::default(),
            cpus: vec![CpuCounters::default(); 2],
            stats: CounterBank::new(2),
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
    fn profile_is_excluded_from_equality() {
        let a = result(RunOutcome::Completed);
        let mut b = result(RunOutcome::Completed);
        b.profile = Some(KernelProfile {
            kernel: hmp_sim::Kernel::FastForward,
            wall_ns: 12345,
            ..Default::default()
        });
        assert_eq!(a, b, "profile must not take part in result equality");
        let mut c = result(RunOutcome::Completed);
        c.timeseries = Some(TimeSeriesSnapshot {
            window: 8192,
            scale: 0,
            end_cycle: 100,
            masters: 2,
            segments: 1,
            busy: vec![1],
            retries: vec![0],
            quarantines: vec![0],
            bridge_crossings: vec![0],
            completions: vec![0],
            grants: vec![vec![1], vec![0]],
            occupancy: vec![vec![1]],
        });
        assert_ne!(a, c, "timeseries is a compared field");
    }

    #[test]
    fn clean_completion() {
        assert!(result(RunOutcome::Completed).is_clean_completion());
        assert!(!result(RunOutcome::Stalled).is_clean_completion());
        assert!(!result(RunOutcome::CycleLimit).is_clean_completion());
        assert!(!result(RunOutcome::InvariantViolation).is_clean_completion());
        assert!(
            !result(RunOutcome::Degraded {
                quarantined: 1,
                faults_absorbed: 3
            })
            .is_clean_completion(),
            "a degraded survival is not a clean completion"
        );
    }

    #[test]
    fn latched_invariant_taints_completion() {
        let mut r = result(RunOutcome::Completed);
        r.invariant = Some(InvariantViolation {
            at: Cycle::new(9),
            addr: Addr::new(0x40),
            kind: InvariantKind::WriterWithSharers,
            holders: vec![(0, LineState::Exclusive), (1, LineState::Shared)],
            segments: vec![0],
        });
        assert!(!r.is_clean_completion());
        let s = r.to_string();
        assert!(s.contains("INVARIANT"), "{s}");
        assert!(s.contains("writer with live sharers"), "{s}");
    }

    #[test]
    fn outcome_display() {
        assert_eq!(RunOutcome::Completed.to_string(), "completed");
        assert!(RunOutcome::Stalled.to_string().contains("deadlock"));
        assert!(RunOutcome::CycleLimit.to_string().contains("limit"));
        assert!(RunOutcome::InvariantViolation
            .to_string()
            .contains("invariant"));
        let d = RunOutcome::Degraded {
            quarantined: 2,
            faults_absorbed: 5,
        }
        .to_string();
        assert!(d.contains("degraded"), "{d}");
        assert!(d.contains("2 master(s)"), "{d}");
        assert!(d.contains("5 fault(s)"), "{d}");
    }

    #[test]
    fn faults_injected_render_in_result() {
        let mut r = result(RunOutcome::Completed);
        assert!(!r.to_string().contains("faults:"));
        r.faults_injected = 4;
        assert!(r.to_string().contains("faults:     4 injected"));
    }

    #[test]
    fn result_display_mentions_cpus() {
        let r = result(RunOutcome::Completed);
        let s = r.to_string();
        assert!(s.contains("cpu0"));
        assert!(s.contains("cpu1"));
        assert!(s.contains("cycles:     100"));
        assert_eq!(r.cycles_u64(), 100);
    }

    #[test]
    fn hang_report_renders_spans() {
        let h = HangReport {
            stalled_at: Cycle::new(50_123),
            window: Cycle::new(50_000),
            last_spans: Vec::new(),
            open_spans: Vec::new(),
        };
        let s = h.to_string();
        assert!(s.contains("cycle 50123"), "{s}");
        assert!(s.contains("50000 cycles without progress"), "{s}");
        assert!(!s.contains("open transactions"), "{s}");
    }
}
