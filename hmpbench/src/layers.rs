//! Per-layer numbers read from run results: the simulated counts of each
//! modelled component, the run digest, and the kernel's self-profile.

use crate::report::Report;
use hmp_platform::RunResult;
use hmp_sim::digest::Fnv64;
use hmp_sim::KernelProfile;

/// Simulated counts summed over a set of cells. Every field counts
/// simulated events, not host time, so the same cells give the same
/// counts on every run and every machine.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SimCounts {
    cycles: u64,
    mem_ops: u64,
    grants: u64,
    retries: u64,
    retry_cam: u64,
    retry_snoop_drain: u64,
    retry_write_buffer: u64,
    drains: u64,
    data_cycles: u64,
    read_hit: u64,
    read_miss: u64,
    write_hit: u64,
    write_miss: u64,
    snoop_hit: u64,
    victim_writeback: u64,
    cam_hit: u64,
    cache_to_cache: u64,
    isr_entries: u64,
    isr_cycles: u64,
    lock_mem_ops: u64,
    lock_acquires: u64,
    uncached_words: u64,
}

impl SimCounts {
    /// Adds one cell's result.
    pub fn add(&mut self, r: &RunResult) {
        self.cycles += r.cycles_u64();
        self.grants += r.bus.grants;
        self.retries += r.bus.retries;
        self.drains += r.bus.drains;
        self.data_cycles += r.bus.data_cycles;
        for c in &r.cpus {
            self.mem_ops += c.reads + c.writes;
            self.isr_entries += c.isr_entries;
            self.isr_cycles += c.isr_cycles;
            self.lock_mem_ops += c.lock_mem_ops;
            self.lock_acquires += c.lock_acquires;
        }
        // Keys are `bus.retry.<cause>` and `cpu<i>.<counter>`.
        for (key, v) in r.stats.iter() {
            let Some((_, counter)) = key.split_once('.') else {
                continue;
            };
            let field = match counter {
                "retry.cam" => &mut self.retry_cam,
                "retry.snoop_drain" => &mut self.retry_snoop_drain,
                "retry.wb_buffer" => &mut self.retry_write_buffer,
                "read_hit" => &mut self.read_hit,
                "read_miss" => &mut self.read_miss,
                "write_hit" => &mut self.write_hit,
                "write_miss" => &mut self.write_miss,
                "snoop_hit" => &mut self.snoop_hit,
                "victim_writeback" => &mut self.victim_writeback,
                "cam_hit" => &mut self.cam_hit,
                "cache_to_cache" => &mut self.cache_to_cache,
                "uncached_read" | "uncached_write" => &mut self.uncached_words,
                _ => continue,
            };
            *field += v;
        }
    }

    /// Pushes the simulated per-layer metrics.
    pub fn report(&self, r: &mut Report) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let sim = "simulated";
        r.push("sim.cycles", self.cycles as f64, "simulated bus cycles");
        r.push(
            "sim.mem_ops_per_cycle",
            ratio(self.mem_ops, self.cycles),
            "program loads + stores per simulated bus cycle",
        );
        r.push("bus.grants", self.grants as f64, sim);
        r.push("bus.retries", self.retries as f64, "ARTRY kills");
        r.push(
            "bus.retry_share",
            ratio(self.retries, self.grants),
            "retries / grants",
        );
        r.push(
            "bus.retry.cam",
            self.retry_cam as f64,
            "TAG-CAM hit retries",
        );
        r.push("bus.retry.snoop_drain", self.retry_snoop_drain as f64, sim);
        r.push(
            "bus.retry.write_buffer",
            self.retry_write_buffer as f64,
            sim,
        );
        r.push("bus.drains", self.drains as f64, "snoop-push write-backs");
        r.push("bus.data_cycles", self.data_cycles as f64, sim);
        r.push(
            "bus.utilization",
            ratio(self.data_cycles, self.cycles),
            "data-phase cycles / bus cycles",
        );
        r.push("cache.read_hit", self.read_hit as f64, sim);
        r.push("cache.read_miss", self.read_miss as f64, sim);
        r.push("cache.write_miss", self.write_miss as f64, sim);
        r.push(
            "cache.hit_ratio",
            ratio(
                self.read_hit + self.write_hit,
                self.read_hit + self.write_hit + self.read_miss + self.write_miss,
            ),
            "(read + write hits) / cached accesses",
        );
        r.push("cache.snoop_hit", self.snoop_hit as f64, sim);
        r.push("cache.victim_writeback", self.victim_writeback as f64, sim);
        r.push("core.cam_hit", self.cam_hit as f64, "TAG-CAM matches");
        r.push("core.cache_to_cache", self.cache_to_cache as f64, sim);
        r.push("cpu.isr_entries", self.isr_entries as f64, "snoop ISRs");
        r.push(
            "cpu.isr_cycles",
            self.isr_cycles as f64,
            "core cycles in ISRs",
        );
        r.push("cpu.lock_mem_ops", self.lock_mem_ops as f64, sim);
        r.push(
            "cpu.spin_per_acquire",
            ratio(self.lock_mem_ops, self.lock_acquires),
            "lock memory ops / acquisitions",
        );
        r.push(
            "mem.uncached_words",
            self.uncached_words as f64,
            "uncached reads + writes",
        );
    }
}

/// Folds one cell's cycles, bus stats and per-CPU counters into `h` — the
/// run digest, kept off any serialized format so a format change cannot
/// move it.
pub fn fold_digest(h: &mut Fnv64, r: &RunResult) {
    h.write_u64(r.cycles_u64());
    let b = &r.bus;
    for v in [b.grants, b.retries, b.completions, b.drains, b.data_cycles] {
        h.write_u64(v);
    }
    for c in &r.cpus {
        for v in [
            c.reads,
            c.writes,
            c.maintenance,
            c.lock_acquires,
            c.lock_releases,
            c.lock_mem_ops,
            c.isr_entries,
            c.isr_cycles,
        ] {
            h.write_u64(v);
        }
    }
}

/// Kernel self-profiles summed over a pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProfileSum {
    pub wall_ns: u64,
    pub plan_ns: u64,
    pub warp_ns: u64,
    pub step_ns: u64,
    pub cpu_only_ns: u64,
    pub iterations: u64,
    pub full_steps: u64,
    pub cpu_only_steps: u64,
    pub warped_cycles: u64,
}

impl ProfileSum {
    /// Adds one run's profile.
    pub fn add(&mut self, p: &KernelProfile) {
        self.wall_ns += p.wall_ns;
        self.plan_ns += p.plan_ns;
        self.warp_ns += p.warp_ns;
        self.step_ns += p.step_ns;
        self.cpu_only_ns += p.cpu_only_ns;
        self.iterations += p.iterations;
        self.full_steps += p.full_steps;
        self.cpu_only_steps += p.cpu_only_steps;
        self.warped_cycles += p.warped_cycles;
    }

    /// Wall time not inside one of the four timed phases: loop control,
    /// completion and watchdog checks, and the profiler's own clock reads.
    pub fn other_ns(&self) -> u64 {
        self.wall_ns
            .saturating_sub(self.plan_ns + self.warp_ns + self.step_ns + self.cpu_only_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmp_platform::Strategy;
    use hmp_workloads::{run, MicrobenchParams, RunSpec, Scenario};

    fn small(strategy: Strategy) -> RunResult {
        let params = MicrobenchParams {
            lines_per_iter: 2,
            outer_iters: 2,
            ..Default::default()
        };
        run(&RunSpec::new(Scenario::Worst, strategy, params))
    }

    #[test]
    fn counts_and_digest_repeat_exactly_and_tell_cells_apart() {
        let (a, b) = (small(Strategy::Proposed), small(Strategy::Proposed));
        let mut ca = SimCounts::default();
        let mut cb = SimCounts::default();
        ca.add(&a);
        cb.add(&b);
        assert_eq!(ca, cb);
        assert_eq!(ca.cycles, a.cycles_u64());
        assert!(ca.read_hit + ca.read_miss > 0, "{ca:?}");

        let digest = |r: &RunResult| {
            let mut h = Fnv64::new();
            fold_digest(&mut h, r);
            h.finish()
        };
        assert_eq!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&small(Strategy::SoftwareDrain)));
    }
}
