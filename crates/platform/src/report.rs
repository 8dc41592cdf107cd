//! Post-run analysis: where did the cycles go?

use crate::RunResult;
use core::fmt;
use hmp_sim::CpuCounter;

/// A digested view of a [`RunResult`], answering the questions the
/// paper's evaluation section asks: how busy was the bus, how well did
/// the caches work, and how much of the time went to coherence actions
/// (drains, retries, interrupts).
///
/// # Examples
///
/// ```
/// use hmp_platform::{presets, Report, Strategy};
/// use hmp_cpu::{LockKind, ProgramBuilder};
///
/// let (spec, lay) = presets::ppc_arm(Strategy::Proposed, LockKind::Turn, false);
/// let p = ProgramBuilder::new().read(lay.shared_base).build();
/// let mut sys = presets::instantiate(&spec, Strategy::Proposed,
///     vec![p, ProgramBuilder::new().build()]);
/// let result = sys.run(100_000);
/// let report = Report::from_result(&result);
/// assert!(report.bus_utilisation <= 1.0);
/// println!("{report}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Execution time in bus cycles.
    pub cycles: u64,
    /// Fraction of bus cycles spent streaming data (0.0–1.0).
    pub bus_utilisation: f64,
    /// Fraction of grants that were killed by ARTRY.
    pub retry_rate: f64,
    /// Snoop-push write-backs (dirty-line handovers).
    pub drains: u64,
    /// Per-CPU digests, in master order.
    pub cpus: Vec<CpuReport>,
}

/// Per-processor digest.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuReport {
    /// Data-cache hits (reads + writes served locally).
    pub cache_hits: u64,
    /// Data-cache misses (line fills).
    pub cache_misses: u64,
    /// Hit rate over cacheable accesses (0.0–1.0; 1.0 when idle).
    pub hit_rate: f64,
    /// Upgrade broadcasts paid for Shared-line stores.
    pub upgrades: u64,
    /// Uncached/device single-word accesses.
    pub uncached_ops: u64,
    /// Lock-protocol memory operations (spins included).
    pub lock_ops: u64,
    /// Snoop-ISR invocations (non-coherent processors only).
    pub isr_entries: u64,
    /// Core cycles spent inside the snoop ISR.
    pub isr_cycles: u64,
}

impl Report {
    /// Digests a finished run.
    pub fn from_result(result: &RunResult) -> Self {
        let cycles = result.cycles.as_u64().max(1);
        let cpus = result
            .cpus
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let count = |counter| result.stats.get(i, counter);
                let hits = count(CpuCounter::ReadHit)
                    + count(CpuCounter::WriteHit)
                    + count(CpuCounter::WriteThrough)
                    + count(CpuCounter::WriteUpgrade);
                let misses = count(CpuCounter::ReadMiss) + count(CpuCounter::WriteMiss);
                let total = hits + misses;
                CpuReport {
                    cache_hits: hits,
                    cache_misses: misses,
                    hit_rate: if total == 0 {
                        1.0
                    } else {
                        hits as f64 / total as f64
                    },
                    upgrades: count(CpuCounter::WriteUpgrade),
                    uncached_ops: count(CpuCounter::UncachedRead)
                        + count(CpuCounter::UncachedWrite),
                    lock_ops: c.lock_mem_ops,
                    isr_entries: c.isr_entries,
                    isr_cycles: c.isr_cycles,
                }
            })
            .collect();
        Report {
            cycles: result.cycles.as_u64(),
            bus_utilisation: result.bus.data_cycles as f64 / cycles as f64,
            retry_rate: if result.bus.grants == 0 {
                0.0
            } else {
                result.bus.retries as f64 / result.bus.grants as f64
            },
            drains: result.bus.drains,
            cpus,
        }
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} bus cycles | bus {:.1}% busy | {:.1}% of grants retried | {} drains",
            self.cycles,
            self.bus_utilisation * 100.0,
            self.retry_rate * 100.0,
            self.drains
        )?;
        for (i, c) in self.cpus.iter().enumerate() {
            writeln!(
                f,
                "cpu{i}: {:>5} hits / {:>4} misses ({:>5.1}% hit rate), \
                 {} upgrades, {} uncached, {} lock ops, {} ISRs ({} cycles)",
                c.cache_hits,
                c.cache_misses,
                c.hit_rate * 100.0,
                c.upgrades,
                c.uncached_ops,
                c.lock_ops,
                c.isr_entries,
                c.isr_cycles
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{presets, Strategy};
    use hmp_cpu::{LockKind, ProgramBuilder};

    fn run_wcs_like() -> RunResult {
        let (spec, lay) = presets::ppc_arm(Strategy::Proposed, LockKind::Turn, false);
        let x = lay.shared_base;
        let p0 = ProgramBuilder::new()
            .acquire(0)
            .read(x)
            .write(x, 1)
            .read(x)
            .release(0)
            .build();
        let p1 = ProgramBuilder::new()
            .acquire(0)
            .read(x)
            .write(x, 2)
            .release(0)
            .build();
        let mut sys = presets::instantiate(&spec, Strategy::Proposed, vec![p0, p1]);
        sys.run(100_000)
    }

    #[test]
    fn report_digests_a_real_run() {
        let result = run_wcs_like();
        assert!(result.is_clean_completion());
        let report = Report::from_result(&result);
        assert_eq!(report.cycles, result.cycles_u64());
        assert!(report.bus_utilisation > 0.0 && report.bus_utilisation <= 1.0);
        assert!(report.retry_rate >= 0.0 && report.retry_rate < 1.0);
        assert_eq!(report.cpus.len(), 2);
        // The PPC had at least one miss (first touch) and a hit (re-read).
        assert!(report.cpus[0].cache_misses >= 1);
        assert!(report.cpus[0].cache_hits >= 1);
        assert!(report.cpus[0].hit_rate > 0.0 && report.cpus[0].hit_rate < 1.0);
        // Both spun on the turn lock.
        assert!(report.cpus[0].lock_ops >= 2);
        assert!(report.cpus[1].lock_ops >= 2);
    }

    #[test]
    fn report_display_mentions_every_cpu() {
        let report = Report::from_result(&run_wcs_like());
        let s = report.to_string();
        assert!(s.contains("cpu0"));
        assert!(s.contains("cpu1"));
        assert!(s.contains("hit rate"));
        assert!(s.contains("bus cycles"));
    }

    #[test]
    fn idle_cpu_reports_full_hit_rate() {
        let (spec, _) = presets::ppc_arm(Strategy::Proposed, LockKind::Turn, false);
        let mut sys = presets::instantiate(
            &spec,
            Strategy::Proposed,
            vec![ProgramBuilder::new().build(), ProgramBuilder::new().build()],
        );
        let result = sys.run(100);
        let report = Report::from_result(&result);
        assert_eq!(report.cpus[0].hit_rate, 1.0);
        assert_eq!(report.drains, 0);
        assert_eq!(report.retry_rate, 0.0);
    }
}
