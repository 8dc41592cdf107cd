//! Metric declarations and the report printer.
//!
//! The two tables below are the benchmark's single list of metric names
//! and units; `BENCHMARK.json` declares the same lists and a test keeps
//! them equal. An untraced run prints every end-to-end metric, a traced
//! run every per-layer metric, each exactly once.

use crate::stats::{quartiles, tail};
use std::fmt::Write as _;

/// End-to-end metrics: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("cells_per_s", "1/s"),
    ("sim_mcps", "Mcycles/s"),
    ("paper_err_pp", "pp"),
    ("jobs_per_s", "1/s"),
    ("hit_p50_ms", "ms"),
    ("hit_p99_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("miss_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.prepare_us_per_cell", "us"),
    ("workloads.rebuild_share", "ratio"),
    ("sim.run_us_per_cell", "us"),
    ("sim.plan_ns", "ns"),
    ("sim.warp_ns", "ns"),
    ("sim.step_ns", "ns"),
    ("sim.cpu_only_ns", "ns"),
    ("sim.loop_other_ns", "ns"),
    ("sim.ns_per_iteration", "ns"),
    ("sim.warped_cycles", "cycles"),
    ("sim.warp_share", "ratio"),
    ("sim.iterations", "count"),
    ("sim.full_steps", "count"),
    ("sim.cpu_only_steps", "count"),
    ("sim.cycles_per_iteration", "cycles"),
    ("sim.profile_overhead", "ratio"),
    ("sim.cycles", "cycles"),
    ("sim.mem_ops_per_cycle", "1/cycle"),
    ("bus.grants", "count"),
    ("bus.retries", "count"),
    ("bus.retry_share", "ratio"),
    ("bus.retry.cam", "count"),
    ("bus.retry.snoop_drain", "count"),
    ("bus.retry.write_buffer", "count"),
    ("bus.drains", "count"),
    ("bus.data_cycles", "cycles"),
    ("bus.utilization", "ratio"),
    ("cache.read_hit", "count"),
    ("cache.read_miss", "count"),
    ("cache.write_miss", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.snoop_hit", "count"),
    ("cache.victim_writeback", "count"),
    ("core.cam_hit", "count"),
    ("core.cache_to_cache", "count"),
    ("cpu.isr_entries", "count"),
    ("cpu.isr_cycles", "cycles"),
    ("cpu.lock_mem_ops", "count"),
    ("cpu.spin_per_acquire", "ratio"),
    ("mem.uncached_words", "count"),
    ("server.accept_ms_p50", "ms"),
    ("server.exec_ms_p50", "ms"),
    ("server.reply_ms_p50", "ms"),
    ("server.queue_wait_us_p50", "us"),
    ("server.service_us_p50", "us"),
    ("server.hit_ratio", "ratio"),
    ("server.executed", "count"),
    ("server.coalesced", "count"),
    ("server.parse_us_per_req", "us"),
    ("server.digest_ns_per_spec", "ns"),
    ("server.result_json_us_per_cell", "us"),
    ("server.cache_get_ns", "ns"),
    ("server.cache_insert_ns", "ns"),
];

/// Failure reasons kept for the report; the count is always exact.
const MAX_REASONS: usize = 10;

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    how: String,
}

/// Everything one run prints.
pub struct Report {
    trace: bool,
    metrics: Vec<Metric>,
    notes: Vec<String>,
    reasons: Vec<String>,
    /// Operations attempted: cells run, jobs served, outputs compared.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
}

impl Report {
    /// An empty report for an untraced (`trace == false`) or traced run.
    pub fn new(trace: bool) -> Self {
        Report {
            trace,
            metrics: Vec::new(),
            notes: Vec::new(),
            reasons: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// The metrics this run must print.
    pub fn declared(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Records one metric; `how` says what was measured.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared for this kind of run.
    pub fn push(&mut self, name: &'static str, value: f64, how: impl Into<String>) {
        let unit = self
            .declared()
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a declared metric of this run"))
            .1;
        self.metrics.push(Metric {
            name,
            unit,
            value,
            how: how.into(),
        });
    }

    /// Records the median of `samples`, stating quartiles and count.
    pub fn push_median(&mut self, name: &'static str, samples: &[f64], how: &str) {
        let (q1, q2, q3) = quartiles(samples);
        let n = samples.len();
        self.push(
            name,
            q2,
            format!("median of {n}, q1 {q1:.6}, q3 {q3:.6}; {how}"),
        );
    }

    /// Records the tail of `samples` by the rule of [`crate::stats::tail`],
    /// or their maximum when there are too few for one.
    pub fn push_tail(&mut self, name: &'static str, samples: &[f64], how: &str) {
        match tail(samples) {
            Some(t) => self.push(
                name,
                t.value,
                format!("p{:.2} of {} samples; {how}", t.pct, t.samples),
            ),
            None => {
                let max = samples.iter().copied().fold(0.0, f64::max);
                let n = samples.len();
                self.push(
                    name,
                    max,
                    format!("max of {n} samples (too few for a tail); {how}"),
                );
            }
        }
    }

    /// Adds a line of context printed above the metric table.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts `count` failed operations.
    pub fn fail(&mut self, count: u64, why: impl Into<String>) {
        self.failed += count;
        if self.reasons.len() < MAX_REASONS {
            self.reasons.push(why.into());
        }
    }

    /// The run's whole standard output; its last line is the JSON result.
    ///
    /// # Panics
    ///
    /// Panics unless every declared metric was pushed exactly once with a
    /// finite value: a gap is a bug in the benchmark, not a measurement.
    pub fn render(&self) -> String {
        let declared = self.declared();
        for (name, _) in declared {
            let n = self.metrics.iter().filter(|m| m.name == *name).count();
            assert_eq!(n, 1, "metric {name} pushed {n} times");
        }
        let mut out = String::new();
        for line in &self.notes {
            let _ = writeln!(out, "# {line}");
        }
        let _ = writeln!(out, "{:<32} {:>18} {:<10} how", "metric", "value", "unit");
        for m in &self.metrics {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            let _ = writeln!(
                out,
                "{:<32} {:>18.6} {:<10} {}",
                m.name, m.value, m.unit, m.how
            );
        }
        let rate = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        let _ = writeln!(
            out,
            "# attempted {}, failed {} (error rate {rate})",
            self.attempted, self.failed
        );
        for why in &self.reasons {
            let _ = writeln!(out, "# FAILED: {why}");
        }
        let _ = write!(
            out,
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{"#,
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                r#""{}":{{"value":{},"unit":"{}"}}"#,
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmp_sim::export::{parse_json, JsonValue};

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn declared_in_benchmark_json(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = parse_json(&text).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(JsonValue::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn every_metric_is_well_named_and_declared_in_benchmark_json() {
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared_in_benchmark_json(key), ours, "{key}");
            for (name, _) in table {
                assert!(valid_name(name), "{name}");
            }
        }
    }

    #[test]
    fn render_prints_every_metric_and_ends_with_the_json_result() {
        let mut r = Report::new(false);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.push(name, i as f64 + 0.5, "test");
        }
        r.attempted = 4;
        r.note("header");
        let text = r.render();
        for (name, unit) in END_TO_END {
            let row = text.lines().find(|l| l.starts_with(name)).unwrap();
            assert!(row.contains(unit), "{row}");
        }
        let last = text.lines().last().unwrap();
        let doc = parse_json(last).unwrap();
        assert_eq!(doc.get("correct").and_then(JsonValue::as_bool), Some(true));
        let metrics = doc.get("metrics").and_then(JsonValue::as_obj).unwrap();
        let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(printed, declared);
        assert!(printed.iter().all(|n| valid_name(n)));
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut r = Report::new(false);
        for (name, _) in END_TO_END {
            r.push(name, 1.0, "");
        }
        r.attempted = 10;
        r.fail(2, "two cells diverged");
        let text = r.render();
        assert!(text.contains("# FAILED: two cells diverged"));
        let last = text.lines().last().unwrap();
        assert!(last.starts_with(r#"{"correct":false,"attempted":10,"failed":2,"#));
    }

    #[test]
    #[should_panic(expected = "not a declared metric")]
    fn undeclared_metrics_are_refused() {
        Report::new(false).push("sim.plan_ns", 1.0, "");
    }

    #[test]
    #[should_panic(expected = "pushed 0 times")]
    fn missing_metrics_are_refused() {
        Report::new(true).render();
    }
}
