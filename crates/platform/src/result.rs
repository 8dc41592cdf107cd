//! Simulation run results.

use crate::{InvariantViolation, Violation};
use core::fmt;
use hmp_bus::BusStats;
use hmp_cpu::CpuCounters;
use hmp_sim::{
    CounterBank, CpuCounter, Cycle, Hist, KernelProfile, MetricsSnapshot, RetryCause, Span,
    TimeSeriesSnapshot,
};
use std::fmt::Write as _;

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

impl RunOutcome {
    /// Stable snake_case key (JSON field value).
    pub fn key(self) -> &'static str {
        match self {
            RunOutcome::Completed => "completed",
            RunOutcome::Stalled => "stalled",
            RunOutcome::CycleLimit => "cycle_limit",
            RunOutcome::InvariantViolation => "invariant_violation",
            RunOutcome::Degraded { .. } => "degraded",
        }
    }
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
    /// Spans, histograms, fills and hot retry addresses (when the
    /// platform ran with `span_capacity > 0`). Totals live in the typed
    /// counters above.
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
        let b = &self.bus;
        writeln!(
            f,
            "bus:        {} grants, {} completions ({} drains), {} retries, {} data cycles",
            b.grants, b.completions, b.drains, b.retries, b.data_cycles
        )?;
        for cause in RetryCause::ALL {
            let n = self.stats.retry(cause);
            if n > 0 {
                writeln!(f, "  retry.{}: {n}", cause.key())?;
            }
        }
        for (i, c) in self.cpus.iter().enumerate() {
            writeln!(
                f,
                "cpu{i}:       {} reads, {} writes, {} maint, {} lock-ops, {} ISRs, \
                 {} snoop hits, {} CAM hits",
                c.reads,
                c.writes,
                c.maintenance,
                c.lock_mem_ops,
                c.isr_entries,
                self.stats.get(i, CpuCounter::SnoopHit),
                self.stats.get(i, CpuCounter::CamHit),
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
        if self.faults_injected > 0 || b.quarantined > 0 {
            writeln!(
                f,
                "faults:     {} injected, {} master(s) quarantined",
                self.faults_injected, b.quarantined
            )?;
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

/// Renders a run's metrics as one JSON object, or `None` when the run
/// had metrics off. The bus, fault, retry-cause and per-CPU snoop, CAM and
/// ISR totals come from the run's typed counters; the histograms, fills,
/// hot addresses and span accounting from its [`MetricsSnapshot`].
pub fn metrics_json(r: &RunResult) -> Option<String> {
    fn hist(out: &mut String, name: &str, h: &Hist) {
        let _ = write!(
            out,
            r#""{name}":{{"count":{},"sum":{},"max":{},"buckets":["#,
            h.count(),
            h.sum(),
            h.max()
        );
        for (i, b) in h.buckets().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{b}");
        }
        out.push_str("]},");
    }
    fn list(out: &mut String, name: &str, xs: impl Iterator<Item = u64>) {
        let _ = write!(out, r#""{name}":["#);
        for (i, x) in xs.enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{x}");
        }
        out.push_str("],");
    }

    let snap = r.metrics.as_ref()?;
    let b = &r.bus;
    let cpus = 0..snap.masters;
    let mut out = String::from("{");
    let _ = write!(
        out,
        r#""masters":{},"grants":{},"completions":{},"drains_completed":{},"retries":{},"#,
        snap.masters, b.grants, b.completions, b.drains, b.retries
    );
    let _ = write!(
        out,
        r#""faults_injected":{},"masters_quarantined":{},"#,
        r.faults_injected, b.quarantined
    );
    out.push_str("\"retry_by_cause\":{");
    for (i, cause) in RetryCause::ALL.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, r#""{}":{}"#, cause.key(), r.stats.retry(cause));
    }
    out.push_str("},");
    hist(&mut out, "acquire_wait", &snap.acquire_wait);
    hist(&mut out, "service_time", &snap.service_time);
    hist(&mut out, "isr_latency", &snap.isr_latency);
    hist(&mut out, "retries_per_txn", &snap.retries_per_txn);
    let counter = |c| cpus.clone().map(move |i| r.stats.get(i, c));
    list(&mut out, "snoop_hits", counter(CpuCounter::SnoopHit));
    list(&mut out, "cam_hits", counter(CpuCounter::CamHit));
    list(
        &mut out,
        "isr_entries",
        r.cpus.iter().map(|c| c.isr_entries),
    );
    list(&mut out, "fills", snap.fills.iter().copied());
    out.push_str("\"top_retry_addrs\":[");
    for (i, &(addr, n)) in snap.top_retry_addrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, r#"{{"addr":"{addr:#x}","retries":{n}}}"#);
    }
    out.push_str("],");
    let _ = write!(
        out,
        r#""retry_addr_overflow":{},"spans_recorded":{},"spans_dropped":{},"span_orphans":{}}}"#,
        snap.retry_addr_overflow, snap.spans_recorded, snap.spans_dropped, snap.span_orphans
    );
    Some(out)
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
    fn metrics_json_is_valid() {
        let mut r = result(RunOutcome::Completed);
        assert_eq!(metrics_json(&r), None, "metrics off: no document");
        r.bus.grants = 3;
        r.bus.completions = 2;
        r.bus.drains = 1;
        r.bus.retries = 1;
        r.bus.quarantined = 1;
        r.faults_injected = 4;
        r.stats.bump_retry(RetryCause::SnoopDrain);
        r.stats.bump(1, CpuCounter::SnoopHit);
        r.cpus[1].isr_entries = 2;
        r.metrics = Some(hmp_sim::MetricsObserver::new(2, 8, 8).snapshot());
        let json = metrics_json(&r).expect("metrics on");
        hmp_sim::export::validate_json(&json).expect("metrics JSON must parse");
        for needle in [
            r#""grants":3,"completions":2,"drains_completed":1,"retries":1,"#,
            r#""faults_injected":4,"masters_quarantined":1,"#,
            r#""snoop_drain":1"#,
            r#""snoop_hits":[0,1],"cam_hits":[0,0],"isr_entries":[0,2],"fills":[0,0]"#,
            r#""isr_latency""#,
        ] {
            assert!(json.contains(needle), "{needle}: {json}");
        }
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
