//! Detector-coverage classification for chaos (fault-injection) runs.
//!
//! A chaos run injects faults from a [`hmp_sim::FaultPlan`] and then asks:
//! *which* safety net noticed the damage? The platform carries three:
//!
//! 1. the **live invariant checker** ([`crate::InvariantObserver`]) —
//!    structural line-state invariants, checked at every holder-set
//!    change;
//! 2. the **golden-memory checker** ([`crate::CoherenceChecker`]) —
//!    end-to-end value correctness, one violation per stale read;
//! 3. the **watchdog** — forward progress, reporting either a hard
//!    [`crate::RunOutcome::Stalled`] or, with a recovery policy armed, a
//!    [`crate::RunOutcome::Degraded`] survival.
//!
//! [`classify`] maps a finished [`RunResult`] onto the detector that
//! fired (with that precedence — the invariant checker fails fastest, the
//! watchdog is the last resort), or [`Detector::Undetected`] when none
//! did. [`Coverage`] accumulates classifications into one row of the
//! chaos sweep's detector-coverage matrix.

use crate::{RunOutcome, RunResult};
use core::fmt;

/// Which safety net caught a chaos run's injected damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Detector {
    /// The live structural line-invariant checker failed the run fast.
    Invariant,
    /// The golden-memory checker recorded at least one stale read.
    Golden,
    /// The forward-progress watchdog tripped — either a hard stall or a
    /// recovery-policy [`RunOutcome::Degraded`] survival.
    Watchdog,
    /// No detector fired. For a benign fault class this means the
    /// platform absorbed the fault; for a protocol-breaking class it is a
    /// coverage hole.
    Undetected,
}

impl Detector {
    /// All detectors, in classification precedence order.
    pub const ALL: [Detector; 4] = [
        Detector::Invariant,
        Detector::Golden,
        Detector::Watchdog,
        Detector::Undetected,
    ];

    /// Stable snake_case key (JSON field name in `BENCH_CHAOS.json`).
    pub fn key(self) -> &'static str {
        match self {
            Detector::Invariant => "invariant_checker",
            Detector::Golden => "golden_checker",
            Detector::Watchdog => "watchdog",
            Detector::Undetected => "undetected",
        }
    }
}

impl fmt::Display for Detector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// Classifies which detector caught a finished chaos run.
///
/// Precedence mirrors how fast each net reacts: a latched invariant
/// violation beats recorded stale reads beats a watchdog verdict. A run
/// that completed cleanly (or ran out of budget without any detector
/// firing) classifies as [`Detector::Undetected`].
pub fn classify(result: &RunResult) -> Detector {
    if result.invariant.is_some() || result.outcome == RunOutcome::InvariantViolation {
        return Detector::Invariant;
    }
    if !result.violations.is_empty() {
        return Detector::Golden;
    }
    match result.outcome {
        RunOutcome::Stalled | RunOutcome::Degraded { .. } => Detector::Watchdog,
        _ => Detector::Undetected,
    }
}

/// One row of the detector-coverage matrix: how many runs of one fault
/// class each detector caught, plus the total faults those runs injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Chaos runs accumulated into this row.
    pub runs: u32,
    /// Total faults injected across those runs.
    pub injected: u64,
    /// Runs the invariant checker caught.
    pub invariant: u32,
    /// Runs the golden-memory checker caught.
    pub golden: u32,
    /// Runs the watchdog caught (stalled or degraded).
    pub watchdog: u32,
    /// Runs no detector caught.
    pub undetected: u32,
}

impl Coverage {
    /// Folds one finished run into the row and returns its
    /// classification.
    pub fn absorb(&mut self, result: &RunResult) -> Detector {
        self.runs += 1;
        self.injected += result.faults_injected;
        let detector = classify(result);
        match detector {
            Detector::Invariant => self.invariant += 1,
            Detector::Golden => self.golden += 1,
            Detector::Watchdog => self.watchdog += 1,
            Detector::Undetected => self.undetected += 1,
        }
        detector
    }

    /// Runs caught by *any* detector.
    pub fn detected(&self) -> u32 {
        self.invariant + self.golden + self.watchdog
    }

    /// The per-detector count.
    pub fn count(&self, detector: Detector) -> u32 {
        match detector {
            Detector::Invariant => self.invariant,
            Detector::Golden => self.golden,
            Detector::Watchdog => self.watchdog,
            Detector::Undetected => self.undetected,
        }
    }
}

impl fmt::Display for Coverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} runs / {} faults: {} invariant, {} golden, {} watchdog, {} undetected",
            self.runs, self.injected, self.invariant, self.golden, self.watchdog, self.undetected
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InvariantKind, InvariantViolation, Violation};
    use hmp_bus::BusStats;
    use hmp_cache::LineState;
    use hmp_cpu::CpuCounters;
    use hmp_mem::Addr;
    use hmp_sim::{CounterBank, Cycle};

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
            faults_injected: 2,
            timeseries: None,
            profile: None,
        }
    }

    fn stale_read() -> Violation {
        Violation {
            at: Cycle::new(5),
            cpu: 0,
            addr: Addr::new(0x40),
            got: 0,
            expected: 7,
        }
    }

    #[test]
    fn classification_precedence() {
        let mut r = result(RunOutcome::Stalled);
        assert_eq!(classify(&r), Detector::Watchdog);
        r.violations.push(stale_read());
        assert_eq!(classify(&r), Detector::Golden, "golden beats watchdog");
        r.invariant = Some(InvariantViolation {
            at: Cycle::new(9),
            addr: Addr::new(0x40),
            kind: InvariantKind::MultipleWriters,
            holders: vec![(0, LineState::Modified), (1, LineState::Modified)],
            segments: vec![0],
        });
        assert_eq!(classify(&r), Detector::Invariant, "invariant beats all");
    }

    #[test]
    fn degraded_counts_as_watchdog() {
        let r = result(RunOutcome::Degraded {
            quarantined: 1,
            faults_absorbed: 2,
        });
        assert_eq!(classify(&r), Detector::Watchdog);
    }

    #[test]
    fn clean_and_budget_runs_are_undetected() {
        assert_eq!(
            classify(&result(RunOutcome::Completed)),
            Detector::Undetected
        );
        assert_eq!(
            classify(&result(RunOutcome::CycleLimit)),
            Detector::Undetected
        );
    }

    #[test]
    fn coverage_accumulates_and_counts() {
        let mut row = Coverage::default();
        assert_eq!(
            row.absorb(&result(RunOutcome::Completed)),
            Detector::Undetected
        );
        assert_eq!(row.absorb(&result(RunOutcome::Stalled)), Detector::Watchdog);
        let mut golden = result(RunOutcome::Completed);
        golden.violations.push(stale_read());
        assert_eq!(row.absorb(&golden), Detector::Golden);
        assert_eq!(row.runs, 3);
        assert_eq!(row.injected, 6);
        assert_eq!(row.detected(), 2);
        assert_eq!(row.count(Detector::Undetected), 1);
        assert_eq!(row.count(Detector::Golden), 1);
        assert_eq!(row.count(Detector::Watchdog), 1);
        assert_eq!(row.count(Detector::Invariant), 0);
        let s = row.to_string();
        assert!(s.contains("3 runs / 6 faults"), "{s}");
    }

    #[test]
    fn detector_keys_are_stable() {
        let keys: Vec<_> = Detector::ALL.iter().map(|d| d.key()).collect();
        assert_eq!(
            keys,
            [
                "invariant_checker",
                "golden_checker",
                "watchdog",
                "undetected"
            ]
        );
        assert_eq!(Detector::Golden.to_string(), "golden_checker");
    }
}
