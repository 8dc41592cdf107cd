//! Canonical JSON serialization of [`RunSpec`] — the wire format of the
//! `hmp-server` job protocol and the input of its content-addressed run
//! cache.
//!
//! [`spec_to_json`] renders a spec with a **fixed key order and fixed
//! formatting**, so equal specs always serialize to equal bytes;
//! [`spec_from_json`] accepts the same document with keys in any order
//! and optional fields omitted (they take the [`RunSpec::new`] defaults).
//! The pair is a fixed point: `serialize → parse → serialize` reproduces
//! the canonical bytes exactly, which is what lets the server digest a
//! client-supplied spec by canonicalizing it first — two clients spelling
//! the same job differently still land on the same cache key.
//!
//! The JSON is hand-rolled on top of [`hmp_sim::export`]'s value parser;
//! the workspace builds against an offline registry, so there is no
//! serde.

use crate::{FaultDirective, MicrobenchParams, PlatformPick, RunSpec, Scenario};
use hmp_bus::{ArbitrationPolicy, RecoveryPolicy};
use hmp_cache::ProtocolKind;
use hmp_platform::{Kernel, Strategy};
use hmp_sim::export::{parse_json, JsonValue};
use hmp_sim::{FaultKind, TimeSeriesSpec};
use std::fmt::Write as _;

/// Renders `spec` as canonical JSON: every field, fixed key order, no
/// whitespace. Equal specs produce byte-equal strings.
pub fn spec_to_json(spec: &RunSpec) -> String {
    let mut out = String::with_capacity(512);
    out.push('{');
    let _ = write!(
        out,
        r#""scenario":"{}","strategy":"{}","#,
        spec.scenario.key(),
        spec.strategy.key()
    );
    let p = &spec.params;
    let _ = write!(
        out,
        concat!(
            r#""params":{{"lines_per_iter":{},"exec_time":{},"outer_iters":{},"#,
            r#""words_per_line":{},"overhead_per_word":{},"seed":{}}},"#
        ),
        p.lines_per_iter, p.exec_time, p.outer_iters, p.words_per_line, p.overhead_per_word, p.seed
    );
    out.push_str("\"platform\":");
    platform_json(&mut out, spec.platform);
    let _ = write!(
        out,
        concat!(
            r#","burst_penalty":{},"cacheable_locks":{},"max_cycles":{},"#,
            r#""span_capacity":{},"check_invariants":{},"kernel":"{}","#
        ),
        spec.burst_penalty,
        spec.cacheable_locks,
        spec.max_cycles,
        spec.span_capacity,
        spec.check_invariants,
        spec.kernel.key(),
    );
    out.push_str("\"faults\":");
    match &spec.faults {
        Some(f) => {
            let _ = write!(
                out,
                concat!(
                    r#"{{"kind":"{}","seed":{},"count":{},"from":{},"to":{},"#,
                    r#""addr_lines":{},"param":{},"target":"#
                ),
                f.kind.key(),
                f.seed,
                f.count,
                f.from,
                f.to,
                f.addr_lines,
                f.param,
            );
            match f.target {
                Some(t) => {
                    let _ = write!(out, "{t}");
                }
                None => out.push_str("null"),
            }
            out.push('}');
        }
        None => out.push_str("null"),
    }
    let _ = write!(
        out,
        concat!(
            r#","arbitration":"{}","recovery":{{"retry_budget":{},"#,
            r#""escalation_backoff":{},"quarantine_after":{}}},"watchdog_window":{},"#
        ),
        spec.arbitration.key(),
        spec.recovery.retry_budget,
        spec.recovery.escalation_backoff,
        spec.recovery.quarantine_after,
        spec.watchdog_window,
    );
    out.push_str("\"timeseries\":");
    match &spec.timeseries {
        Some(ts) => {
            let _ = write!(
                out,
                r#"{{"window":{},"capacity":{}}}"#,
                ts.window, ts.capacity
            );
        }
        None => out.push_str("null"),
    }
    let _ = write!(out, r#","profile":{}}}"#, spec.profile);
    out
}

fn platform_json(out: &mut String, platform: PlatformPick) {
    match platform {
        PlatformPick::PpcArm => out.push_str(r#"{"kind":"ppc_arm"}"#),
        PlatformPick::I486Ppc => out.push_str(r#"{"kind":"i486_ppc"}"#),
        PlatformPick::Pf1Dual => out.push_str(r#"{"kind":"pf1_dual"}"#),
        PlatformPick::Pair(a, b) => {
            let _ = write!(
                out,
                r#"{{"kind":"pair","a":"{}","b":"{}"}}"#,
                a.key(),
                b.key()
            );
        }
        PlatformPick::Fabric {
            protocol,
            masters,
            segments,
        } => {
            let _ = write!(
                out,
                r#"{{"kind":"fabric","protocol":"{}","masters":{},"segments":{}}}"#,
                protocol.key(),
                masters,
                segments
            );
        }
    }
}

/// Parses a spec from its JSON text (any key order, optional fields
/// defaulted). The inverse of [`spec_to_json`].
pub fn spec_from_json(text: &str) -> Result<RunSpec, String> {
    spec_from_value(&parse_json(text)?)
}

/// Parses a spec from an already-parsed [`JsonValue`] object.
pub fn spec_from_value(doc: &JsonValue) -> Result<RunSpec, String> {
    let obj = doc
        .as_obj()
        .ok_or_else(|| format!("spec must be an object, got {}", doc.kind()))?;
    let _ = obj;
    let scenario = match doc.get("scenario") {
        Some(v) => key_field(v, "scenario", &Scenario::ALL, Scenario::key)?,
        None => return Err("spec is missing \"scenario\"".into()),
    };
    let strategy = match doc.get("strategy") {
        Some(v) => key_field(v, "strategy", &Strategy::ALL, Strategy::key)?,
        None => return Err("spec is missing \"strategy\"".into()),
    };
    let mut params = MicrobenchParams::default();
    if let Some(pv) = doc.get("params") {
        if pv.as_obj().is_none() {
            return Err(format!("\"params\" must be an object, got {}", pv.kind()));
        }
        params.lines_per_iter = num_or(pv, "lines_per_iter", params.lines_per_iter as u64)? as u32;
        params.exec_time = num_or(pv, "exec_time", params.exec_time as u64)? as u32;
        params.outer_iters = num_or(pv, "outer_iters", params.outer_iters as u64)? as u32;
        params.words_per_line = num_or(pv, "words_per_line", params.words_per_line as u64)? as u32;
        params.overhead_per_word =
            num_or(pv, "overhead_per_word", params.overhead_per_word as u64)? as u32;
        params.seed = num_or(pv, "seed", params.seed)?;
    }

    let mut spec = RunSpec::new(scenario, strategy, params);
    if let Some(pv) = doc.get("platform") {
        spec.platform = platform_from(pv)?;
    }
    spec.burst_penalty = num_or(doc, "burst_penalty", spec.burst_penalty)?;
    spec.cacheable_locks = bool_or(doc, "cacheable_locks", spec.cacheable_locks)?;
    spec.max_cycles = num_or(doc, "max_cycles", spec.max_cycles)?;
    spec.span_capacity = num_or(doc, "span_capacity", spec.span_capacity as u64)? as usize;
    spec.check_invariants = bool_or(doc, "check_invariants", spec.check_invariants)?;
    if let Some(v) = doc.get("kernel") {
        spec.kernel = key_field(v, "kernel", &Kernel::ALL, Kernel::key)?;
    }
    if let Some(v) = doc.get("faults") {
        spec.faults = faults_from(v)?;
    }
    if let Some(v) = doc.get("arbitration") {
        spec.arbitration = key_field(
            v,
            "arbitration",
            &ArbitrationPolicy::ALL,
            ArbitrationPolicy::key,
        )?;
    }
    if let Some(v) = doc.get("recovery") {
        if v.as_obj().is_none() {
            return Err(format!("\"recovery\" must be an object, got {}", v.kind()));
        }
        spec.recovery = RecoveryPolicy {
            retry_budget: num_or(v, "retry_budget", 0)? as u32,
            escalation_backoff: num_or(v, "escalation_backoff", 0)?,
            quarantine_after: num_or(v, "quarantine_after", 0)? as u32,
        };
    }
    spec.watchdog_window = num_or(doc, "watchdog_window", spec.watchdog_window)?;
    if let Some(v) = doc.get("timeseries") {
        spec.timeseries = match v {
            JsonValue::Null => None,
            _ => Some(TimeSeriesSpec {
                window: num_or(v, "window", TimeSeriesSpec::default().window)?,
                capacity: num_or(v, "capacity", TimeSeriesSpec::default().capacity as u64)?
                    as usize,
            }),
        };
    }
    spec.profile = bool_or(doc, "profile", spec.profile)?;

    // Reject specs the workload generator would panic on — a wire
    // protocol reports bad input, it does not abort the daemon.
    if spec.params.lines_per_iter < 1 || spec.params.lines_per_iter > 32 {
        return Err(format!(
            "params.lines_per_iter {} outside 1..=32",
            spec.params.lines_per_iter
        ));
    }
    if spec.params.exec_time < 1 || spec.params.outer_iters < 1 {
        return Err("params.exec_time and params.outer_iters must be >= 1".into());
    }
    if !(1..=8).contains(&spec.params.words_per_line) {
        return Err(format!(
            "params.words_per_line {} outside 1..=8",
            spec.params.words_per_line
        ));
    }
    if spec.max_cycles == 0 {
        return Err("max_cycles must be >= 1".into());
    }
    Ok(spec)
}

fn platform_from(v: &JsonValue) -> Result<PlatformPick, String> {
    let kind = v
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or("platform needs a \"kind\" string")?;
    let proto = |s| parse_key("protocol", &ProtocolKind::ALL, ProtocolKind::key, s);
    match kind {
        "ppc_arm" => Ok(PlatformPick::PpcArm),
        "i486_ppc" => Ok(PlatformPick::I486Ppc),
        "pf1_dual" => Ok(PlatformPick::Pf1Dual),
        "pair" => {
            let a = v
                .get("a")
                .and_then(JsonValue::as_str)
                .ok_or("pair platform needs \"a\"")?;
            let b = v
                .get("b")
                .and_then(JsonValue::as_str)
                .ok_or("pair platform needs \"b\"")?;
            Ok(PlatformPick::Pair(proto(a)?, proto(b)?))
        }
        "fabric" => {
            let protocol = v
                .get("protocol")
                .and_then(JsonValue::as_str)
                .ok_or("fabric platform needs \"protocol\"")?;
            let masters = num_or(v, "masters", 0)?;
            let segments = num_or(v, "segments", 1)?;
            if !(2..=255).contains(&masters) {
                return Err(format!("fabric masters {masters} outside 2..=255"));
            }
            if !(1..=255).contains(&segments) || segments > masters {
                return Err(format!(
                    "fabric segments {segments} outside 1..=masters ({masters})"
                ));
            }
            Ok(PlatformPick::Fabric {
                protocol: proto(protocol)?,
                masters: masters as u8,
                segments: segments as u8,
            })
        }
        other => Err(format!("unknown platform kind {other:?}")),
    }
}

fn faults_from(v: &JsonValue) -> Result<Option<FaultDirective>, String> {
    if matches!(v, JsonValue::Null) {
        return Ok(None);
    }
    let kind = v
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or("faults needs a \"kind\" string")?;
    let mut f = FaultDirective::new(
        parse_key("fault kind", &FaultKind::ALL, FaultKind::key, kind)?,
        0,
        1,
    );
    f.seed = num_or(v, "seed", f.seed)?;
    f.count = num_or(v, "count", f.count as u64)? as u32;
    f.from = num_or(v, "from", f.from)?;
    f.to = num_or(v, "to", f.to)?;
    f.addr_lines = num_or(v, "addr_lines", f.addr_lines)?;
    f.param = num_or(v, "param", f.param)?;
    f.target = match v.get("target") {
        None | Some(JsonValue::Null) => None,
        Some(t) => Some(
            t.as_f64()
                .ok_or_else(|| format!("faults.target must be a number, got {}", t.kind()))?
                as u32,
        ),
    };
    Ok(Some(f))
}

fn req_str<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    v.as_str()
        .ok_or_else(|| format!("\"{key}\" must be a string, got {}", v.kind()))
}

/// Parses string field `key`'s value `v` as one of `all`.
fn key_field<T: Copy>(
    v: &JsonValue,
    key: &str,
    all: &[T],
    key_of: fn(T) -> &'static str,
) -> Result<T, String> {
    parse_key(key, all, key_of, req_str(v, key)?)
}

fn num_or(doc: &JsonValue, key: &str, default: u64) -> Result<u64, String> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => {
            let n = v
                .as_f64()
                .ok_or_else(|| format!("\"{key}\" must be a number, got {}", v.kind()))?;
            if n < 0.0 || n.fract() != 0.0 || n > u64::MAX as f64 {
                return Err(format!("\"{key}\" must be a non-negative integer, got {n}"));
            }
            Ok(n as u64)
        }
    }
}

fn bool_or(doc: &JsonValue, key: &str, default: bool) -> Result<bool, String> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| format!("\"{key}\" must be a boolean, got {}", v.kind())),
    }
}

/// Looks `s` up among `all` by wire key: the one parse path for every
/// wire enum. The error names the field, e.g. `unknown scenario "worse"`.
pub fn parse_key<T: Copy>(
    what: &str,
    all: &[T],
    key: fn(T) -> &'static str,
    s: &str,
) -> Result<T, String> {
    all.iter()
        .copied()
        .find(|&v| key(v) == s)
        .ok_or_else(|| format!("unknown {what} {s:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmp_sim::export::validate_json;

    fn sample_specs() -> Vec<RunSpec> {
        let base = RunSpec::new(
            Scenario::Worst,
            Strategy::Proposed,
            MicrobenchParams::default(),
        );
        vec![
            base,
            RunSpec::new(
                Scenario::Typical,
                Strategy::SoftwareDrain,
                MicrobenchParams {
                    lines_per_iter: 4,
                    exec_time: 2,
                    outer_iters: 3,
                    words_per_line: 4,
                    overhead_per_word: 1,
                    seed: 99,
                },
            )
            .on(PlatformPick::Pair(ProtocolKind::Mei, ProtocolKind::Moesi))
            .with_burst_penalty(96)
            .with_kernel(Kernel::Step),
            base.on(PlatformPick::Fabric {
                protocol: ProtocolKind::Mesi,
                masters: 6,
                segments: 2,
            })
            .with_arbitration(ArbitrationPolicy::Fcfs)
            .with_faults(FaultDirective::new(FaultKind::GrantDrop, 7, 3).aimed_at(2))
            .with_recovery(RecoveryPolicy {
                retry_budget: 8,
                escalation_backoff: 32,
                quarantine_after: 64,
            })
            .with_timeseries(TimeSeriesSpec {
                window: 1024,
                capacity: 32,
            })
            .with_spans(128)
            .with_invariants(),
        ]
    }

    #[test]
    fn canonical_serialization_is_a_fixed_point() {
        for spec in sample_specs() {
            let canon = spec_to_json(&spec);
            validate_json(&canon).unwrap_or_else(|e| panic!("{e}\n{canon}"));
            let parsed = spec_from_json(&canon).expect("canonical JSON must parse back");
            let again = spec_to_json(&parsed);
            assert_eq!(canon, again, "serialize → parse → serialize must not drift");
        }
    }

    #[test]
    fn parsing_is_key_order_insensitive_and_defaults_optionals() {
        let minimal = r#"{"strategy":"proposed","scenario":"worst"}"#;
        let spec = spec_from_json(minimal).unwrap();
        assert_eq!(spec.scenario, Scenario::Worst);
        assert_eq!(spec.strategy, Strategy::Proposed);
        assert_eq!(spec.params, MicrobenchParams::default());
        assert_eq!(spec.platform, PlatformPick::PpcArm);
        assert_eq!(spec.burst_penalty, 13);
        assert_eq!(spec.kernel, Kernel::FastForward);
        // Canonicalizing the shuffled minimal form equals canonicalizing
        // the explicit default spec: same job, same cache key.
        let explicit = RunSpec::new(
            Scenario::Worst,
            Strategy::Proposed,
            MicrobenchParams::default(),
        );
        assert_eq!(spec_to_json(&spec), spec_to_json(&explicit));
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        let cases = [
            (r#"{"strategy":"proposed"}"#, "scenario"),
            (r#"{"scenario":"worst"}"#, "strategy"),
            (r#"{"scenario":"worse","strategy":"proposed"}"#, "scenario"),
            (
                r#"{"scenario":"worst","strategy":"proposed","params":{"lines_per_iter":0}}"#,
                "lines_per_iter",
            ),
            (
                r#"{"scenario":"worst","strategy":"proposed","params":{"lines_per_iter":40}}"#,
                "lines_per_iter",
            ),
            (
                r#"{"scenario":"worst","strategy":"proposed","burst_penalty":-3}"#,
                "burst_penalty",
            ),
            (
                r#"{"scenario":"worst","strategy":"proposed","max_cycles":0}"#,
                "max_cycles",
            ),
            (
                r#"{"scenario":"worst","strategy":"proposed","kernel":"warp"}"#,
                "kernel",
            ),
            (
                r#"{"scenario":"worst","strategy":"proposed","platform":{"kind":"fabric","protocol":"mesi","masters":1}}"#,
                "masters",
            ),
            (
                r#"{"scenario":"worst","strategy":"proposed","platform":{"kind":"quantum"}}"#,
                "platform",
            ),
            (r#"[1,2,3]"#, "object"),
        ];
        for (text, needle) in cases {
            let err = spec_from_json(text).expect_err(text);
            assert!(
                err.contains(needle),
                "{text}: error {err:?} lacks {needle:?}"
            );
        }
    }

    #[test]
    fn every_enum_key_roundtrips() {
        fn roundtrip<T: Copy + PartialEq + std::fmt::Debug>(all: &[T], key: fn(T) -> &'static str) {
            for &v in all {
                assert_eq!(parse_key("value", all, key, key(v)), Ok(v), "{}", key(v));
            }
        }
        roundtrip(&Scenario::ALL, Scenario::key);
        roundtrip(&Strategy::ALL, Strategy::key);
        roundtrip(&ProtocolKind::ALL, ProtocolKind::key);
        roundtrip(&ArbitrationPolicy::ALL, ArbitrationPolicy::key);
        roundtrip(&Kernel::ALL, Kernel::key);
        roundtrip(&FaultKind::ALL, FaultKind::key);
    }

    #[test]
    fn semantic_changes_change_the_canonical_bytes() {
        let base = RunSpec::new(
            Scenario::Worst,
            Strategy::Proposed,
            MicrobenchParams::default(),
        );
        let canon = spec_to_json(&base);
        let mut seed_changed = base;
        seed_changed.params.seed = 2;
        assert_ne!(canon, spec_to_json(&seed_changed));
        assert_ne!(canon, spec_to_json(&base.with_burst_penalty(14)));
        assert_ne!(canon, spec_to_json(&base.with_kernel(Kernel::Step)));
        assert_ne!(canon, spec_to_json(&base.on(PlatformPick::Pf1Dual)));
    }
}
