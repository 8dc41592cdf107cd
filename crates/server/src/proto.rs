//! The wire protocol: one JSON object per line, in both directions.
//!
//! Requests (`op` selects the verb):
//!
//! | op         | payload                        | response stream                 |
//! |------------|--------------------------------|---------------------------------|
//! | `ping`     | —                              | one `pong` event                |
//! | `metrics`  | —                              | one `metrics` event             |
//! | `run`      | `"spec": {…}`                  | `accepted`, `progress`*, `cell`, `done` |
//! | `sweep`    | `"specs": [{…}, …]`            | `accepted`, `progress`*, `cell`*, `done` |
//! | `shutdown` | —                              | one `ok` event, then the daemon stops accepting |
//!
//! Specs use the canonical dialect of [`hmp_workloads::codec`]; the
//! server canonicalizes whatever spelling the client sends before
//! digesting, so key order and omitted defaults never split the cache.
//! Responses for a job always end with a `done` event; malformed
//! requests produce one `error` event and leave the connection open.

use hmp_platform::{RunOutcome, RunResult};
use hmp_sim::export::{json_escape, JsonValue};
use hmp_workloads::{codec, RunSpec};
use std::fmt::Write as _;

/// Version of the wire protocol; reported by `ping` and stamped into
/// every `accepted` event.
pub const PROTO_VERSION: u32 = 1;

/// A parsed client request.
#[derive(Debug)]
pub enum Request {
    /// Liveness + identity probe.
    Ping,
    /// Prometheus-style exposition of server health.
    Metrics,
    /// Stop accepting connections after this one.
    Shutdown,
    /// One simulation cell.
    Run(RunSpec),
    /// A grid of cells, answered in input order.
    Sweep(Vec<RunSpec>),
}

/// Parses one request line. Errors are human-readable and safe to echo
/// back to the client in an `error` event.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = hmp_sim::export::parse_json(line)?;
    let op = doc
        .get("op")
        .and_then(JsonValue::as_str)
        .ok_or("request needs an \"op\" string")?;
    match op {
        "ping" => Ok(Request::Ping),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        "run" => {
            let spec = doc.get("spec").ok_or("\"run\" needs a \"spec\" object")?;
            Ok(Request::Run(codec::spec_from_value(spec)?))
        }
        "sweep" => {
            let specs = doc
                .get("specs")
                .and_then(JsonValue::as_arr)
                .ok_or("\"sweep\" needs a \"specs\" array")?;
            if specs.is_empty() {
                return Err("\"specs\" must not be empty".into());
            }
            specs
                .iter()
                .enumerate()
                .map(|(i, s)| codec::spec_from_value(s).map_err(|e| format!("specs[{i}]: {e}")))
                .collect::<Result<Vec<_>, _>>()
                .map(Request::Sweep)
        }
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Renders the **deterministic** portion of a [`RunResult`] as canonical
/// JSON — the bytes the content-addressed cache stores and every client
/// receives.
///
/// Covers exactly the fields `RunResult::eq` compares that are cheap to
/// ship (outcome, cycles, bus stats, per-CPU counters, the nonzero
/// platform counters sorted by key, violation count, faults injected) and
/// deliberately excludes the kernel self-profile, which is wall-clock-
/// and machine-dependent by construction. Two runs of the same digest on
/// any machine render to identical bytes.
pub fn result_json(r: &RunResult) -> String {
    let mut out = String::with_capacity(512);
    let (quarantined, absorbed) = match r.outcome {
        RunOutcome::Degraded {
            quarantined,
            faults_absorbed,
        } => (quarantined, faults_absorbed),
        _ => (0, 0),
    };
    let _ = write!(
        out,
        concat!(
            r#"{{"outcome":"{}","cycles":{},"quarantined":{},"faults_absorbed":{},"#,
            r#""bus":{{"grants":{},"retries":{},"completions":{},"drains":{},"data_cycles":{}}},"#,
            r#""cpus":["#
        ),
        r.outcome.key(),
        r.cycles_u64(),
        quarantined,
        absorbed,
        r.bus.grants,
        r.bus.retries,
        r.bus.completions,
        r.bus.drains,
        r.bus.data_cycles,
    );
    for (i, c) in r.cpus.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            concat!(
                r#"{{"reads":{},"writes":{},"maintenance":{},"lock_acquires":{},"#,
                r#""lock_releases":{},"lock_mem_ops":{},"isr_entries":{},"isr_cycles":{}}}"#
            ),
            c.reads,
            c.writes,
            c.maintenance,
            c.lock_acquires,
            c.lock_releases,
            c.lock_mem_ops,
            c.isr_entries,
            c.isr_cycles,
        );
    }
    out.push_str("],\"stats\":{");
    // Byte order (`cpu10` before `cpu2`) is part of the cached bytes.
    let mut stats: Vec<(String, u64)> = r.stats.iter().collect();
    stats.sort_unstable();
    for (i, (key, value)) in stats.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", json_escape(key), value);
    }
    let _ = write!(
        out,
        r#"}},"violations":{},"faults_injected":{}}}"#,
        r.violations.len(),
        r.faults_injected,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmp_cache::ProtocolKind;
    use hmp_platform::Strategy;
    use hmp_sim::export::validate_json;
    use hmp_workloads::{MicrobenchParams, PlatformPick, RunSpec, Runner, Scenario};

    fn small_spec() -> RunSpec {
        RunSpec::new(
            Scenario::Worst,
            Strategy::Proposed,
            MicrobenchParams {
                lines_per_iter: 2,
                exec_time: 1,
                outer_iters: 2,
                seed: 3,
                ..Default::default()
            },
        )
    }

    #[test]
    fn requests_parse_and_reject_with_context() {
        assert!(matches!(
            parse_request(r#"{"op":"ping"}"#),
            Ok(Request::Ping)
        ));
        assert!(matches!(
            parse_request(r#"{"op":"metrics"}"#),
            Ok(Request::Metrics)
        ));
        assert!(matches!(
            parse_request(r#"{"op":"shutdown"}"#),
            Ok(Request::Shutdown)
        ));
        let run =
            parse_request(r#"{"op":"run","spec":{"scenario":"worst","strategy":"proposed"}}"#)
                .unwrap();
        assert!(matches!(run, Request::Run(s) if s.scenario == Scenario::Worst));
        let sweep = parse_request(
            r#"{"op":"sweep","specs":[{"scenario":"worst","strategy":"proposed"},
                                      {"scenario":"best","strategy":"proposed"}]}"#,
        )
        .unwrap();
        assert!(matches!(sweep, Request::Sweep(v) if v.len() == 2));

        for (line, needle) in [
            ("totally not json", "bad literal"),
            (r#"{"verb":"ping"}"#, "op"),
            (r#"{"op":"dance"}"#, "unknown op"),
            (r#"{"op":"run"}"#, "spec"),
            (r#"{"op":"sweep","specs":[]}"#, "empty"),
            (
                r#"{"op":"sweep","specs":[{"scenario":"worst"}]}"#,
                "specs[0]",
            ),
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err:?} lacks {needle:?}");
        }
    }

    #[test]
    fn result_json_is_valid_deterministic_and_profile_free() {
        let spec = small_spec().with_profile();
        let mut runner = Runner::new();
        let a = result_json(&runner.run(&spec));
        validate_json(&a).unwrap_or_else(|e| panic!("{e}\n{a}"));
        // Same digest, different runner, different wall time — same bytes.
        let b = result_json(&Runner::new().run(&spec));
        assert_eq!(a, b, "result JSON must be byte-deterministic");
        assert!(a.contains(r#""outcome":"completed""#), "{a}");
        assert!(a.contains(r#""stats":{"#), "{a}");
        assert!(!a.contains("wall_ns"), "profile leaked into cached bytes");
    }

    #[test]
    fn degraded_outcomes_carry_their_fields() {
        let mut r = Runner::new().run(&small_spec());
        r.outcome = RunOutcome::Degraded {
            quarantined: 2,
            faults_absorbed: 5,
        };
        let json = result_json(&r);
        validate_json(&json).unwrap();
        assert!(json.contains(r#""outcome":"degraded""#), "{json}");
        assert!(json.contains(r#""quarantined":2"#), "{json}");
        assert!(json.contains(r#""faults_absorbed":5"#), "{json}");
    }

    /// Served and cached bytes for two cells. Any change here invalidates
    /// every on-disk cache entry, so it must come with a `SIM_EPOCH` or
    /// `SCHEMA_VERSION` bump.
    const PF2_PROPOSED_BYTES: &str = concat!(
        r#"{"outcome":"completed","cycles":528,"quarantined":0,"faults_absorbed":0,"#,
        r#""bus":{"grants":60,"retries":18,"completions":42,"drains":4,"data_cycles":350},"#,
        r#""cpus":[{"reads":32,"writes":32,"maintenance":0,"lock_acquires":2,"lock_releases":2,"#,
        r#""lock_mem_ops":15,"isr_entries":0,"isr_cycles":0},{"reads":32,"writes":32,"#,
        r#""maintenance":0,"lock_acquires":2,"lock_releases":2,"lock_mem_ops":13,"#,
        r#""isr_entries":2,"isr_cycles":48}],"stats":{"bus.retry.cam":14,"#,
        r#""bus.retry.snoop_drain":4,"cpu0.read_hit":28,"cpu0.read_miss":4,"#,
        r#""cpu0.snoop_drain":4,"cpu0.snoop_hit":4,"cpu0.uncached_read":13,"#,
        r#""cpu0.uncached_write":2,"cpu0.write_hit":32,"cpu1.cam_hit":14,"cpu1.flush_dirty":2,"#,
        r#""cpu1.isr_drain_dirty":2,"cpu1.read_hit":28,"cpu1.read_miss":4,"#,
        r#""cpu1.uncached_read":11,"cpu1.uncached_write":2,"cpu1.write_hit":32},"violations":0,"#,
        r#""faults_injected":0}"#,
    );

    const FABRIC_12_BYTES: &str = concat!(
        r#"{"outcome":"completed","cycles":14618,"quarantined":0,"faults_absorbed":0,"#,
        r#""bus":{"grants":1564,"retries":46,"completions":1518,"drains":46,"#,
        r#""data_cycles":12950},"cpus":[{"reads":32,"writes":32,"maintenance":0,"#,
        r#""lock_acquires":2,"lock_releases":2,"lock_mem_ops":79,"isr_entries":0,"#,
        r#""isr_cycles":0},{"reads":32,"writes":32,"maintenance":0,"lock_acquires":2,"#,
        r#""lock_releases":2,"lock_mem_ops":82,"isr_entries":0,"isr_cycles":0},{"reads":32,"#,
        r#""writes":32,"maintenance":0,"lock_acquires":2,"lock_releases":2,"lock_mem_ops":89,"#,
        r#""isr_entries":0,"isr_cycles":0},{"reads":32,"writes":32,"maintenance":0,"#,
        r#""lock_acquires":2,"lock_releases":2,"lock_mem_ops":96,"isr_entries":0,"#,
        r#""isr_cycles":0},{"reads":32,"writes":32,"maintenance":0,"lock_acquires":2,"#,
        r#""lock_releases":2,"lock_mem_ops":103,"isr_entries":0,"isr_cycles":0},{"reads":32,"#,
        r#""writes":32,"maintenance":0,"lock_acquires":2,"lock_releases":2,"lock_mem_ops":110,"#,
        r#""isr_entries":0,"isr_cycles":0},{"reads":32,"writes":32,"maintenance":0,"#,
        r#""lock_acquires":2,"lock_releases":2,"lock_mem_ops":117,"isr_entries":0,"#,
        r#""isr_cycles":0},{"reads":32,"writes":32,"maintenance":0,"lock_acquires":2,"#,
        r#""lock_releases":2,"lock_mem_ops":124,"isr_entries":0,"isr_cycles":0},{"reads":32,"#,
        r#""writes":32,"maintenance":0,"lock_acquires":2,"lock_releases":2,"lock_mem_ops":131,"#,
        r#""isr_entries":0,"isr_cycles":0},{"reads":32,"writes":32,"maintenance":0,"#,
        r#""lock_acquires":2,"lock_releases":2,"lock_mem_ops":140,"isr_entries":0,"#,
        r#""isr_cycles":0},{"reads":32,"writes":32,"maintenance":0,"lock_acquires":2,"#,
        r#""lock_releases":2,"lock_mem_ops":149,"isr_entries":0,"isr_cycles":0},{"reads":32,"#,
        r#""writes":32,"maintenance":0,"lock_acquires":2,"lock_releases":2,"lock_mem_ops":158,"#,
        r#""isr_entries":0,"isr_cycles":0}],"stats":{"bus.retry.snoop_drain":46,"#,
        r#""cpu0.read_hit":28,"cpu0.read_miss":4,"cpu0.snoop_drain":4,"cpu0.snoop_hit":12,"#,
        r#""cpu0.uncached_read":77,"cpu0.uncached_write":2,"cpu0.write_hit":30,"#,
        r#""cpu0.write_upgrade":2,"cpu1.read_hit":28,"cpu1.read_miss":4,"cpu1.snoop_drain":4,"#,
        r#""cpu1.snoop_hit":12,"cpu1.uncached_read":80,"cpu1.uncached_write":2,"#,
        r#""cpu1.write_hit":28,"cpu1.write_upgrade":4,"cpu10.read_hit":28,"cpu10.read_miss":4,"#,
        r#""cpu10.snoop_drain":4,"cpu10.snoop_hit":12,"cpu10.uncached_read":147,"#,
        r#""cpu10.uncached_write":2,"cpu10.write_hit":28,"cpu10.write_upgrade":4,"#,
        r#""cpu11.read_hit":28,"cpu11.read_miss":4,"cpu11.snoop_drain":2,"cpu11.snoop_hit":6,"#,
        r#""cpu11.uncached_read":156,"cpu11.uncached_write":2,"cpu11.write_hit":28,"#,
        r#""cpu11.write_upgrade":4,"cpu2.read_hit":28,"cpu2.read_miss":4,"cpu2.snoop_drain":4,"#,
        r#""cpu2.snoop_hit":12,"cpu2.uncached_read":87,"cpu2.uncached_write":2,"#,
        r#""cpu2.write_hit":28,"cpu2.write_upgrade":4,"cpu3.read_hit":28,"cpu3.read_miss":4,"#,
        r#""cpu3.snoop_drain":4,"cpu3.snoop_hit":12,"cpu3.uncached_read":94,"#,
        r#""cpu3.uncached_write":2,"cpu3.write_hit":28,"cpu3.write_upgrade":4,"#,
        r#""cpu4.read_hit":28,"cpu4.read_miss":4,"cpu4.snoop_drain":4,"cpu4.snoop_hit":12,"#,
        r#""cpu4.uncached_read":101,"cpu4.uncached_write":2,"cpu4.write_hit":28,"#,
        r#""cpu4.write_upgrade":4,"cpu5.read_hit":28,"cpu5.read_miss":4,"cpu5.snoop_drain":4,"#,
        r#""cpu5.snoop_hit":12,"cpu5.uncached_read":108,"cpu5.uncached_write":2,"#,
        r#""cpu5.write_hit":28,"cpu5.write_upgrade":4,"cpu6.read_hit":28,"cpu6.read_miss":4,"#,
        r#""cpu6.snoop_drain":4,"cpu6.snoop_hit":12,"cpu6.uncached_read":115,"#,
        r#""cpu6.uncached_write":2,"cpu6.write_hit":28,"cpu6.write_upgrade":4,"#,
        r#""cpu7.read_hit":28,"cpu7.read_miss":4,"cpu7.snoop_drain":4,"cpu7.snoop_hit":12,"#,
        r#""cpu7.uncached_read":122,"cpu7.uncached_write":2,"cpu7.write_hit":28,"#,
        r#""cpu7.write_upgrade":4,"cpu8.read_hit":28,"cpu8.read_miss":4,"cpu8.snoop_drain":4,"#,
        r#""cpu8.snoop_hit":12,"cpu8.uncached_read":129,"cpu8.uncached_write":2,"#,
        r#""cpu8.write_hit":28,"cpu8.write_upgrade":4,"cpu9.read_hit":28,"cpu9.read_miss":4,"#,
        r#""cpu9.snoop_drain":4,"cpu9.snoop_hit":12,"cpu9.uncached_read":138,"#,
        r#""cpu9.uncached_write":2,"cpu9.write_hit":28,"cpu9.write_upgrade":4},"violations":0,"#,
        r#""faults_injected":0}"#,
    );

    #[test]
    fn result_json_bytes_are_pinned() {
        let pf2 = small_spec();
        let fabric = pf2.on(PlatformPick::Fabric {
            protocol: ProtocolKind::Mesi,
            masters: 12,
            segments: 2,
        });
        let mut runner = Runner::new();
        assert_eq!(result_json(&runner.run(&pf2)), PF2_PROPOSED_BYTES);
        // Two-digit CPU indices sort by bytes: `cpu10` before `cpu2`.
        assert_eq!(result_json(&runner.run(&fabric)), FABRIC_12_BYTES);
    }
}
