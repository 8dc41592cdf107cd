//! Daemon health counters and their Prometheus-style exposition.
//!
//! Counters are relaxed atomics (every connection thread and worker
//! bumps them); the queue-wait and service-time histograms reuse the
//! simulator's allocation-free log2-bucketed [`Hist`] behind one mutex —
//! they are touched once per executed cell, not per simulated cycle, so
//! the lock is nowhere near any hot path.

use hmp_sim::{exposition_header, Hist};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

#[derive(Default)]
struct Hists {
    /// Microseconds from job admission to a cell starting execution.
    queue_wait_us: Hist,
    /// Microseconds of simulation per executed cell.
    service_us: Hist,
}

/// Shared server health state.
#[derive(Default)]
pub struct ServerMetrics {
    jobs: AtomicU64,
    cells: AtomicU64,
    hits_memory: AtomicU64,
    hits_disk: AtomicU64,
    executed: AtomicU64,
    coalesced: AtomicU64,
    errors: AtomicU64,
    queue_depth: AtomicU64,
    hists: Mutex<Hists>,
}

impl ServerMetrics {
    /// A zeroed metrics block.
    pub fn new() -> Self {
        ServerMetrics::default()
    }

    /// Records an admitted job of `cells` cells.
    pub fn job(&self, cells: u64) {
        self.jobs.fetch_add(1, Ordering::Relaxed);
        self.cells.fetch_add(cells, Ordering::Relaxed);
    }

    /// Records a malformed request.
    pub fn error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an in-memory cache hit.
    pub fn hit_memory(&self) {
        self.hits_memory.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an on-disk cache hit.
    pub fn hit_disk(&self) {
        self.hits_disk.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a cell that coalesced onto another client's execution.
    pub fn coalesced(&self) {
        self.coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` cells entering the execution queue.
    pub fn enqueued(&self, n: u64) {
        self.queue_depth.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one executed cell leaving the queue, with its queue wait
    /// and service time in microseconds.
    pub fn executed(&self, queue_wait_us: u64, service_us: u64) {
        self.executed.fetch_add(1, Ordering::Relaxed);
        // Saturating: a shutdown race must not wrap the gauge.
        let _ = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                Some(d.saturating_sub(1))
            });
        let mut h = self.hists.lock().expect("metrics lock");
        h.queue_wait_us.record(queue_wait_us);
        h.service_us.record(service_us);
    }

    /// Cells waiting for or undergoing execution right now.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Cells served (any tier, coalesced included) so far.
    pub fn served(&self) -> u64 {
        self.hits_memory.load(Ordering::Relaxed)
            + self.hits_disk.load(Ordering::Relaxed)
            + self.executed.load(Ordering::Relaxed)
            + self.coalesced.load(Ordering::Relaxed)
    }

    /// Fraction of served cells answered without executing (cache hits +
    /// coalesced followers). 0.0 before anything is served.
    pub fn hit_ratio(&self) -> f64 {
        let served = self.served();
        if served == 0 {
            return 0.0;
        }
        let avoided = served - self.executed.load(Ordering::Relaxed);
        avoided as f64 / served as f64
    }

    /// Renders every counter, the gauge and both histograms in
    /// Prometheus-style text exposition.
    pub fn exposition(&self) -> String {
        let mut out = String::with_capacity(2048);
        let counters = [
            ("hmp_server_jobs_total", "Jobs admitted", &self.jobs),
            ("hmp_server_cells_total", "Cells requested", &self.cells),
            (
                "hmp_server_hits_memory_total",
                "Cells served from the in-memory cache",
                &self.hits_memory,
            ),
            (
                "hmp_server_hits_disk_total",
                "Cells served from the on-disk cache",
                &self.hits_disk,
            ),
            (
                "hmp_server_executed_total",
                "Cells actually simulated",
                &self.executed,
            ),
            (
                "hmp_server_coalesced_total",
                "Cells coalesced onto another client's execution",
                &self.coalesced,
            ),
            (
                "hmp_server_errors_total",
                "Malformed requests rejected",
                &self.errors,
            ),
        ];
        for (name, help, value) in counters {
            exposition_header(&mut out, name, "counter", help);
            let _ = writeln!(out, "{name} {}", value.load(Ordering::Relaxed));
        }
        exposition_header(
            &mut out,
            "hmp_server_queue_depth",
            "gauge",
            "Cells queued or executing",
        );
        let _ = writeln!(out, "hmp_server_queue_depth {}", self.queue_depth());
        exposition_header(
            &mut out,
            "hmp_server_hit_ratio",
            "gauge",
            "Fraction of cells served without executing",
        );
        let _ = writeln!(out, "hmp_server_hit_ratio {:.6}", self.hit_ratio());

        let h = self.hists.lock().expect("metrics lock");
        expo_hist(
            &mut out,
            "hmp_server_queue_wait_us",
            "Microseconds from admission to execution start",
            &h.queue_wait_us,
        );
        expo_hist(
            &mut out,
            "hmp_server_service_us",
            "Microseconds of simulation per executed cell",
            &h.service_us,
        );
        out
    }
}

fn expo_hist(out: &mut String, name: &str, help: &str, h: &Hist) {
    exposition_header(out, name, "histogram", help);
    let mut cumulative = 0u64;
    for (i, &count) in h.buckets().iter().enumerate() {
        if count == 0 {
            continue;
        }
        cumulative += count;
        let (_, hi) = Hist::bounds(i);
        let _ = writeln!(out, "{name}_bucket{{le=\"{hi}\"}} {cumulative}");
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
    let _ = writeln!(out, "{name}_sum {}", h.sum());
    let _ = writeln!(out, "{name}_count {}", h.count());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_counts_every_avoided_execution() {
        let m = ServerMetrics::new();
        assert_eq!(m.hit_ratio(), 0.0);
        m.job(4);
        m.hit_memory();
        m.hit_disk();
        m.coalesced();
        m.enqueued(1);
        m.executed(10, 2_000);
        assert_eq!(m.served(), 4);
        assert_eq!(m.hit_ratio(), 0.75);
        assert_eq!(m.queue_depth(), 0);
    }

    #[test]
    fn queue_depth_never_wraps() {
        let m = ServerMetrics::new();
        m.executed(1, 1); // dequeue without an enqueue
        assert_eq!(m.queue_depth(), 0);
    }

    #[test]
    fn exposition_is_well_formed() {
        let m = ServerMetrics::new();
        m.job(2);
        m.hit_memory();
        m.enqueued(1);
        m.executed(100, 5_000);
        let text = m.exposition();
        // Byte for byte: clients scrape this format.
        assert_eq!(text, EXPOSITION_BYTES);
        for needle in [
            "# TYPE hmp_server_jobs_total counter",
            "hmp_server_jobs_total 1",
            "hmp_server_cells_total 2",
            "hmp_server_hits_memory_total 1",
            "hmp_server_executed_total 1",
            "# TYPE hmp_server_queue_depth gauge",
            "hmp_server_queue_depth 0",
            "hmp_server_hit_ratio 0.5",
            "# TYPE hmp_server_queue_wait_us histogram",
            "hmp_server_queue_wait_us_count 1",
            "hmp_server_service_us_sum 5000",
            "le=\"+Inf\"",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // Every line is either a comment or `name[{labels}] value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split_whitespace().count() == 2,
                "malformed exposition line: {line:?}"
            );
        }
    }

    const EXPOSITION_BYTES: &str = r#"# HELP hmp_server_jobs_total Jobs admitted
# TYPE hmp_server_jobs_total counter
hmp_server_jobs_total 1
# HELP hmp_server_cells_total Cells requested
# TYPE hmp_server_cells_total counter
hmp_server_cells_total 2
# HELP hmp_server_hits_memory_total Cells served from the in-memory cache
# TYPE hmp_server_hits_memory_total counter
hmp_server_hits_memory_total 1
# HELP hmp_server_hits_disk_total Cells served from the on-disk cache
# TYPE hmp_server_hits_disk_total counter
hmp_server_hits_disk_total 0
# HELP hmp_server_executed_total Cells actually simulated
# TYPE hmp_server_executed_total counter
hmp_server_executed_total 1
# HELP hmp_server_coalesced_total Cells coalesced onto another client's execution
# TYPE hmp_server_coalesced_total counter
hmp_server_coalesced_total 0
# HELP hmp_server_errors_total Malformed requests rejected
# TYPE hmp_server_errors_total counter
hmp_server_errors_total 0
# HELP hmp_server_queue_depth Cells queued or executing
# TYPE hmp_server_queue_depth gauge
hmp_server_queue_depth 0
# HELP hmp_server_hit_ratio Fraction of cells served without executing
# TYPE hmp_server_hit_ratio gauge
hmp_server_hit_ratio 0.500000
# HELP hmp_server_queue_wait_us Microseconds from admission to execution start
# TYPE hmp_server_queue_wait_us histogram
hmp_server_queue_wait_us_bucket{le="127"} 1
hmp_server_queue_wait_us_bucket{le="+Inf"} 1
hmp_server_queue_wait_us_sum 100
hmp_server_queue_wait_us_count 1
# HELP hmp_server_service_us Microseconds of simulation per executed cell
# TYPE hmp_server_service_us histogram
hmp_server_service_us_bucket{le="8191"} 1
hmp_server_service_us_bucket{le="+Inf"} 1
hmp_server_service_us_sum 5000
hmp_server_service_us_count 1
"#;
}
