//! Chrome/Perfetto trace-event JSON export.
//!
//! [`chrome_trace`] renders completed [`Span`]s and the raw event ring
//! into the [Trace Event Format] consumed by `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev): one track per CPU (its
//! transaction spans and ISR activity), one per snoop port, and one for
//! the bus arbiter. Timestamps are bus cycles reported as microseconds —
//! at the paper's 50 MHz ASB one "µs" on screen is 50 bus cycles, but
//! relative durations (the thing a timeline is for) are exact.
//!
//! The JSON is hand-rolled: the workspace builds against an offline
//! registry, so there is no serde. [`parse_json`] reads it back, and
//! [`validate_json`] wraps it as the syntax check used by the smoke
//! tests and the `hmp-trace` CLI.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::event::{SimEvent, TracedEvent};
use crate::span::Span;
use crate::timeseries::{KernelProfile, TimeSeriesSnapshot};
use std::fmt::Write as _;

/// Schema version stamped into every machine-readable JSON document the
/// workspace emits (`BENCH_*.json`, timeseries exports). Consumers —
/// the CI validators and the `bench_compare` regression gate — reject
/// unversioned documents, so bump this when a document's shape changes
/// incompatibly.
pub const SCHEMA_VERSION: u32 = 1;

/// Escapes a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Thread id of the bus-arbiter track.
const TID_BUS: u64 = 0;

fn tid_cpu(i: usize) -> u64 {
    1 + i as u64
}

fn tid_snoop(i: usize, masters: usize) -> u64 {
    1 + masters as u64 + i as u64
}

fn push_event(out: &mut String, body: &str) {
    if !out.ends_with('[') {
        out.push(',');
    }
    out.push_str("\n  {");
    out.push_str(body);
    out.push('}');
}

fn meta_thread(out: &mut String, tid: u64, name: &str, sort: u64) {
    push_event(
        out,
        &format!(
            r#""name":"thread_name","ph":"M","pid":0,"tid":{tid},"args":{{"name":"{}"}}"#,
            json_escape(name)
        ),
    );
    push_event(
        out,
        &format!(
            r#""name":"thread_sort_index","ph":"M","pid":0,"tid":{tid},"args":{{"sort_index":{sort}}}"#
        ),
    );
}

/// Renders spans and raw events as Chrome trace-event JSON.
///
/// `cpu_names` labels the per-CPU tracks (index order); masters beyond
/// `cpu_names.len()` get a generic label. Incomplete spans are skipped —
/// every emitted `"X"` (complete) event corresponds to one completed bus
/// transaction.
pub fn chrome_trace<'a, S, E>(spans: S, events: E, cpu_names: &[String]) -> String
where
    S: IntoIterator<Item = &'a Span>,
    E: IntoIterator<Item = &'a TracedEvent>,
{
    chrome_trace_with_series(spans, events, cpu_names, None)
}

/// [`chrome_trace`] plus windowed-telemetry counter tracks.
///
/// When `series` is present, each windowed series from the
/// [`TimeSeriesSnapshot`] is rendered as a Perfetto counter track
/// (`"ph":"C"`): bus utilization, per-master grants, per-segment busy
/// cycles, retries and completions, one sample per window at the
/// window's starting cycle. Perfetto draws these as stacked area charts
/// above the span tracks, so a utilization collapse lines up visually
/// with the transactions that caused it.
pub fn chrome_trace_with_series<'a, S, E>(
    spans: S,
    events: E,
    cpu_names: &[String],
    series: Option<&TimeSeriesSnapshot>,
) -> String
where
    S: IntoIterator<Item = &'a Span>,
    E: IntoIterator<Item = &'a TracedEvent>,
{
    let masters = cpu_names.len();
    let mut out = String::from("{\"traceEvents\":[");

    meta_thread(&mut out, TID_BUS, "bus arbiter", 0);
    for (i, name) in cpu_names.iter().enumerate() {
        meta_thread(
            &mut out,
            tid_cpu(i),
            &format!("cpu{i} {name}"),
            1 + i as u64,
        );
        meta_thread(
            &mut out,
            tid_snoop(i, masters),
            &format!("snoop{i} {name}"),
            1 + (masters + i) as u64,
        );
    }

    for span in spans {
        let Some(dur) = span.service_time() else {
            continue;
        };
        let cat = if span.is_drain { "drain" } else { "txn" };
        let wait = span.acquire_wait().unwrap_or(0);
        push_event(
            &mut out,
            &format!(
                concat!(
                    r#""name":"{op} {addr:#x}","cat":"{cat}","ph":"X","ts":{ts},"dur":{dur},"#,
                    r#""pid":0,"tid":{tid},"args":{{"addr":"{addr:#x}","retries":{retries},"#,
                    r#""acquire_wait":{wait},"snoop_hits":{snoops},"cam_conflicts":{cams}}}"#
                ),
                op = span.op,
                addr = span.addr,
                cat = cat,
                ts = span.requested_at.as_u64(),
                dur = dur.max(1),
                tid = tid_cpu(span.master),
                retries = span.retries,
                wait = wait,
                snoops = span.snoop_hits,
                cams = span.cam_conflicts,
            ),
        );
    }

    // ISR activity is paired at export time from the raw event ring.
    let mut open_isr: Vec<Option<(u64, u64)>> = vec![None; masters.max(1)];
    for te in events {
        let ts = te.at.as_u64();
        match te.event {
            SimEvent::BusGrant { .. } | SimEvent::BusRetry { .. } => {
                push_event(
                    &mut out,
                    &format!(
                        r#""name":"{}","cat":"bus","ph":"i","s":"t","ts":{ts},"pid":0,"tid":{TID_BUS}"#,
                        json_escape(&te.event.to_string()),
                    ),
                );
            }
            SimEvent::SnoopHit { owner, .. }
            | SimEvent::CamHit { owner, .. }
            | SimEvent::CacheFill { owner, .. } => {
                if owner < masters {
                    push_event(
                        &mut out,
                        &format!(
                            r#""name":"{}","cat":"snoop","ph":"i","s":"t","ts":{ts},"pid":0,"tid":{}"#,
                            json_escape(&te.event.to_string()),
                            tid_snoop(owner, masters),
                        ),
                    );
                }
            }
            SimEvent::IsrEnter { cpu, line } => {
                if let Some(slot) = open_isr.get_mut(cpu) {
                    *slot = Some((ts, line));
                }
            }
            SimEvent::IsrExit { cpu, .. } => {
                if let Some((enter, line)) = open_isr.get_mut(cpu).and_then(|s| s.take()) {
                    push_event(
                        &mut out,
                        &format!(
                            concat!(
                                r#""name":"ISR drain {line:#x}","cat":"isr","ph":"X","ts":{ts},"#,
                                r#""dur":{dur},"pid":0,"tid":{tid}"#
                            ),
                            line = line,
                            ts = enter,
                            dur = (ts - enter).max(1),
                            tid = tid_cpu(cpu),
                        ),
                    );
                }
            }
            SimEvent::FaultInjected { .. } | SimEvent::MasterQuarantined { .. } => {
                // Chaos markers land on the bus-arbiter track so the
                // injected fault is visible next to its fallout.
                push_event(
                    &mut out,
                    &format!(
                        r#""name":"{}","cat":"fault","ph":"i","s":"g","ts":{ts},"pid":0,"tid":{TID_BUS}"#,
                        json_escape(&te.event.to_string()),
                    ),
                );
            }
            SimEvent::BusRequest { .. } | SimEvent::BusComplete { .. } => {}
        }
    }

    if let Some(snap) = series {
        counter_tracks(&mut out, snap);
    }

    out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":\"hmp-trace\",\"clock\":\"bus-cycles\"}}");
    out
}

/// Emits one `"ph":"C"` counter event per window per telemetry series.
fn counter_tracks(out: &mut String, snap: &TimeSeriesSnapshot) {
    fn counter(out: &mut String, name: &str, ts: u64, args: &str) {
        push_event(
            out,
            &format!(
                r#""name":"{name}","cat":"telemetry","ph":"C","ts":{ts},"pid":0,"args":{{{args}}}"#
            ),
        );
    }
    for i in 0..snap.samples() {
        let ts = snap.window_start(i);
        counter(
            out,
            "bus utilization %",
            ts,
            &format!(r#""busy":{:.3}"#, 100.0 * snap.utilization(i)),
        );
        let mut grants = String::new();
        for (m, g) in snap.grants.iter().enumerate() {
            if m > 0 {
                grants.push(',');
            }
            let _ = write!(grants, r#""m{m}":{}"#, g[i]);
        }
        counter(out, "grants/window", ts, &grants);
        if snap.segments > 1 {
            let mut occ = String::new();
            for (s, o) in snap.occupancy.iter().enumerate() {
                if s > 0 {
                    occ.push(',');
                }
                let _ = write!(occ, r#""seg{s}":{}"#, o[i]);
            }
            counter(out, "segment busy cycles/window", ts, &occ);
        }
        counter(
            out,
            "retries/window",
            ts,
            &format!(r#""retries":{}"#, snap.retries[i]),
        );
        counter(
            out,
            "completions/window",
            ts,
            &format!(r#""completions":{}"#, snap.completions[i]),
        );
    }
}

/// Renders a [`TimeSeriesSnapshot`] (and optional [`KernelProfile`]) as
/// one JSON document: run-level metadata, one object per window with
/// every deterministic series, and — when present — the kernel
/// self-profile including the per-window warp/cpu-only/full mix.
pub fn timeseries_json(snap: &TimeSeriesSnapshot, profile: Option<&KernelProfile>) -> String {
    fn u64_list(out: &mut String, name: &str, xs: &[u64]) {
        let _ = write!(out, r#""{name}":["#);
        for (i, x) in xs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{x}");
        }
        out.push(']');
    }

    let mut out = String::from("{");
    let _ = write!(
        out,
        concat!(
            r#""schema_version":{},"window_cycles":{},"base_window":{},"scale":{},"#,
            r#""end_cycle":{},"masters":{},"segments":{},"windows":["#
        ),
        SCHEMA_VERSION,
        snap.effective_window(),
        snap.window,
        snap.scale,
        snap.end_cycle,
        snap.masters,
        snap.segments,
    );
    for i in 0..snap.samples() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            concat!(
                r#"{{"start":{},"width":{},"busy":{},"utilization":{:.6},"#,
                r#""retries":{},"quarantines":{},"bridge_crossings":{},"completions":{},"#
            ),
            snap.window_start(i),
            snap.window_width(i),
            snap.busy[i],
            snap.utilization(i),
            snap.retries[i],
            snap.quarantines[i],
            snap.bridge_crossings[i],
            snap.completions[i],
        );
        let grants: Vec<u64> = snap.grants.iter().map(|g| g[i]).collect();
        u64_list(&mut out, "grants", &grants);
        out.push(',');
        let occ: Vec<u64> = snap.occupancy.iter().map(|o| o[i]).collect();
        u64_list(&mut out, "segment_busy", &occ);
        out.push('}');
    }
    out.push_str("],");
    match profile {
        Some(p) => {
            let _ = write!(
                out,
                concat!(
                    r#""profile":{{"kernel":"{}","wall_ns":{},"plan_ns":{},"warp_ns":{},"#,
                    r#""step_ns":{},"cpu_only_ns":{},"iterations":{},"full_steps":{},"#,
                    r#""cpu_only_steps":{},"warped_cycles":{},"cycles_per_sec":{:.3},"#
                ),
                p.kernel.key(),
                p.wall_ns,
                p.plan_ns,
                p.warp_ns,
                p.step_ns,
                p.cpu_only_ns,
                p.iterations,
                p.full_steps,
                p.cpu_only_steps,
                p.warped_cycles,
                p.cycles_per_sec,
            );
            match &p.mix {
                Some(mix) => {
                    out.push_str(r#""mix":{"#);
                    u64_list(&mut out, "warped", &mix.warped);
                    out.push(',');
                    u64_list(&mut out, "cpu_only", &mix.cpu_only);
                    out.push(',');
                    u64_list(&mut out, "full", &mix.full);
                    out.push('}');
                }
                None => out.push_str(r#""mix":null"#),
            }
            out.push('}');
        }
        None => out.push_str(r#""profile":null"#),
    }
    out.push('}');
    out
}

/// Checks that `s` is one complete, well-formed JSON document, as
/// [`parse_json`] reads it. Returns the document's length in bytes
/// without trailing whitespace.
pub fn validate_json(s: &str) -> Result<usize, String> {
    parse_json(s)?;
    Ok(s.trim_end_matches(|c: char| c.is_ascii_whitespace()).len())
}

/// A parsed JSON value. Object keys keep insertion order (`Vec` of
/// pairs, not a map) — the documents this workspace emits are small and
/// ordered, and the `bench_compare` gate wants deterministic walks.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`; the workspace's counters fit).
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source key order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup; `None` on non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(xs) => Some(xs),
            _ => None,
        }
    }

    /// The member list, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// One-word JSON type name, for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "bool",
            JsonValue::Num(_) => "number",
            JsonValue::Str(_) => "string",
            JsonValue::Arr(_) => "array",
            JsonValue::Obj(_) => "object",
        }
    }
}

/// Parses one complete JSON document into a [`JsonValue`] tree.
///
/// Numbers must parse as `f64`, string escapes must be valid and nesting
/// is capped at 256. Consumers — chiefly the `bench_compare` regression
/// gate — walk and diff the tree without an external JSON dependency.
pub fn parse_json(s: &str) -> Result<JsonValue, String> {
    struct P<'a> {
        b: &'a [u8],
        i: usize,
        depth: usize,
    }
    impl P<'_> {
        fn err(&self, msg: &str) -> String {
            format!("{msg} at byte {}", self.i)
        }
        fn ws(&mut self) {
            while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }
        fn peek(&self) -> Option<u8> {
            self.b.get(self.i).copied()
        }
        fn eat(&mut self, c: u8, what: &str) -> Result<(), String> {
            if self.peek() == Some(c) {
                self.i += 1;
                Ok(())
            } else {
                Err(self.err(what))
            }
        }
        fn value(&mut self) -> Result<JsonValue, String> {
            self.depth += 1;
            if self.depth > 256 {
                return Err(self.err("nesting too deep"));
            }
            self.ws();
            let r = match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => self.string().map(JsonValue::Str),
                Some(b't') => self.literal("true").map(|_| JsonValue::Bool(true)),
                Some(b'f') => self.literal("false").map(|_| JsonValue::Bool(false)),
                Some(b'n') => self.literal("null").map(|_| JsonValue::Null),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                _ => Err(self.err("expected a JSON value")),
            };
            self.depth -= 1;
            r
        }
        fn literal(&mut self, lit: &str) -> Result<(), String> {
            if self.b[self.i..].starts_with(lit.as_bytes()) {
                self.i += lit.len();
                Ok(())
            } else {
                Err(self.err("bad literal"))
            }
        }
        fn number(&mut self) -> Result<JsonValue, String> {
            let start = self.i;
            while let Some(c) = self.peek() {
                if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                    self.i += 1;
                } else {
                    break;
                }
            }
            let text =
                std::str::from_utf8(&self.b[start..self.i]).map_err(|_| self.err("bad utf8"))?;
            text.parse::<f64>()
                .map(JsonValue::Num)
                .map_err(|_| self.err("expected a number"))
        }
        fn string(&mut self) -> Result<String, String> {
            self.eat(b'"', "expected '\"'")?;
            let mut out = String::new();
            loop {
                let Some(c) = self.peek() else {
                    return Err(self.err("unterminated string"));
                };
                self.i += 1;
                match c {
                    b'"' => return Ok(out),
                    b'\\' => {
                        let Some(esc) = self.peek() else {
                            return Err(self.err("unterminated escape"));
                        };
                        self.i += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'u' => {
                                if self.i + 4 > self.b.len() {
                                    return Err(self.err("truncated \\u escape"));
                                }
                                let hex = std::str::from_utf8(&self.b[self.i..self.i + 4])
                                    .map_err(|_| self.err("bad \\u escape"))?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| self.err("bad \\u escape"))?;
                                self.i += 4;
                                // Surrogate pairs are not decoded — the
                                // workspace never emits them; map to the
                                // replacement character instead of failing.
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                            _ => return Err(self.err("unknown escape")),
                        }
                    }
                    _ => {
                        // Collect the raw UTF-8 run up to the next quote
                        // or backslash.
                        let start = self.i - 1;
                        while let Some(c) = self.peek() {
                            if c == b'"' || c == b'\\' {
                                break;
                            }
                            self.i += 1;
                        }
                        let run = std::str::from_utf8(&self.b[start..self.i])
                            .map_err(|_| self.err("bad utf8 in string"))?;
                        out.push_str(run);
                    }
                }
            }
        }
        fn object(&mut self) -> Result<JsonValue, String> {
            self.eat(b'{', "expected '{'")?;
            self.ws();
            let mut members = Vec::new();
            if self.peek() == Some(b'}') {
                self.i += 1;
                return Ok(JsonValue::Obj(members));
            }
            loop {
                self.ws();
                let key = self.string()?;
                self.ws();
                self.eat(b':', "expected ':'")?;
                let value = self.value()?;
                members.push((key, value));
                self.ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b'}') => {
                        self.i += 1;
                        return Ok(JsonValue::Obj(members));
                    }
                    _ => return Err(self.err("expected ',' or '}'")),
                }
            }
        }
        fn array(&mut self) -> Result<JsonValue, String> {
            self.eat(b'[', "expected '['")?;
            self.ws();
            let mut items = Vec::new();
            if self.peek() == Some(b']') {
                self.i += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(self.value()?);
                self.ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b']') => {
                        self.i += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(self.err("expected ',' or ']'")),
                }
            }
        }
    }
    let mut p = P {
        b: s.as_bytes(),
        i: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != s.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{BusOpKind, Observer, TraceObserver};
    use crate::Cycle;

    fn names() -> Vec<String> {
        vec!["PowerPC755".to_string(), "ARM920T".to_string()]
    }

    fn sample_ring() -> TraceObserver {
        let mut t = TraceObserver::new(64);
        t.on_event(
            Cycle::new(2),
            SimEvent::BusGrant {
                master: 0,
                op: BusOpKind::ReadLine,
                addr: 0x40,
                is_retry: false,
                is_drain: false,
            },
        );
        t.on_event(
            Cycle::new(3),
            SimEvent::SnoopHit {
                owner: 1,
                addr: 0x40,
                action: crate::event::SnoopActionKind::Writeback,
                asserts_shared: false,
            },
        );
        t.on_event(Cycle::new(5), SimEvent::IsrEnter { cpu: 1, line: 0x40 });
        t.on_event(Cycle::new(9), SimEvent::IsrExit { cpu: 1, line: 0x40 });
        t
    }

    #[test]
    fn chrome_trace_is_valid_json_with_tracks_and_spans() {
        let mut spans = crate::span::SpanTracker::new(2, 8);
        spans.on_event(
            Cycle::new(1),
            SimEvent::BusRequest {
                master: 0,
                op: BusOpKind::ReadLine,
                addr: 0x40,
                is_drain: false,
            },
        );
        spans.on_event(
            Cycle::new(2),
            SimEvent::BusGrant {
                master: 0,
                op: BusOpKind::ReadLine,
                addr: 0x40,
                is_retry: false,
                is_drain: false,
            },
        );
        spans.on_event(
            Cycle::new(15),
            SimEvent::BusComplete {
                master: 0,
                op: BusOpKind::ReadLine,
                addr: 0x40,
                is_drain: false,
            },
        );
        let ring = sample_ring();
        let json = chrome_trace(spans.iter(), ring.iter(), &names());
        let consumed = validate_json(&json).expect("exporter output must parse");
        assert!(consumed > 2, "non-empty");
        assert!(json.contains(r#""name":"thread_name""#), "{json}");
        assert!(json.contains("cpu0 PowerPC755"), "{json}");
        assert!(json.contains("snoop1 ARM920T"), "{json}");
        assert!(json.contains(r#""ph":"X""#), "{json}");
        assert!(json.contains(r#""name":"ReadLine 0x40""#), "{json}");
        assert!(json.contains(r#""name":"ISR drain 0x40""#), "{json}");
        assert!(json.contains(r#""retries":0"#), "{json}");
    }

    #[test]
    fn incomplete_spans_are_skipped() {
        let mut spans = crate::span::SpanTracker::new(1, 8);
        spans.on_event(
            Cycle::new(1),
            SimEvent::BusRequest {
                master: 0,
                op: BusOpKind::ReadLine,
                addr: 0x40,
                is_drain: false,
            },
        );
        let open = spans.open_spans();
        let json = chrome_trace(open.iter(), std::iter::empty(), &names());
        validate_json(&json).unwrap();
        assert!(!json.contains(r#""ph":"X""#), "{json}");
    }

    #[test]
    fn json_escape_covers_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }

    fn sample_snapshot() -> TimeSeriesSnapshot {
        let mut r = crate::timeseries::MetricsRegistry::new(
            2,
            2,
            &[0, 1],
            crate::timeseries::TimeSeriesSpec {
                window: 10,
                capacity: 8,
            },
        );
        r.record_busy_span(2, 12, Some(1));
        r.record_bridge_crossing(Cycle::new(15));
        r.snapshot(Cycle::new(25))
    }

    #[test]
    fn timeseries_json_roundtrips_through_the_parser() {
        let snap = sample_snapshot();
        let profile = KernelProfile {
            kernel: crate::Kernel::FastForward,
            wall_ns: 1_000_000,
            warped_cycles: 10,
            cycles_per_sec: 25_000_000.0,
            ..Default::default()
        };
        let json = timeseries_json(&snap, Some(&profile));
        validate_json(&json).expect("timeseries JSON must parse");
        let doc = parse_json(&json).unwrap();
        assert_eq!(
            doc.get("schema_version").and_then(JsonValue::as_f64),
            Some(SCHEMA_VERSION as f64)
        );
        assert_eq!(
            doc.get("window_cycles").and_then(JsonValue::as_f64),
            Some(10.0)
        );
        let windows = doc.get("windows").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(windows.len(), 3);
        let w0 = &windows[0];
        assert_eq!(w0.get("busy").and_then(JsonValue::as_f64), Some(8.0));
        assert_eq!(
            w0.get("grants").and_then(JsonValue::as_arr).map(<[_]>::len),
            Some(2)
        );
        let prof = doc.get("profile").unwrap();
        assert_eq!(
            prof.get("kernel").and_then(JsonValue::as_str),
            Some("fast_forward")
        );
        assert_eq!(
            prof.get("warped_cycles").and_then(JsonValue::as_f64),
            Some(10.0)
        );
        assert_eq!(prof.get("mix"), Some(&JsonValue::Null));

        let bare = timeseries_json(&snap, None);
        validate_json(&bare).unwrap();
        assert_eq!(
            parse_json(&bare).unwrap().get("profile"),
            Some(&JsonValue::Null)
        );
    }

    #[test]
    fn counter_tracks_ride_along_in_the_chrome_trace() {
        let snap = sample_snapshot();
        let json = chrome_trace_with_series(
            std::iter::empty(),
            sample_ring().iter(),
            &names(),
            Some(&snap),
        );
        validate_json(&json).expect("trace with counters must parse");
        assert!(json.contains(r#""ph":"C""#), "{json}");
        assert!(json.contains(r#""name":"bus utilization %""#), "{json}");
        assert!(json.contains(r#""name":"grants/window""#), "{json}");
        assert!(
            json.contains(r#""name":"segment busy cycles/window""#),
            "{json}"
        );
        // Without a snapshot the trace stays counter-free.
        let plain = chrome_trace(std::iter::empty(), sample_ring().iter(), &names());
        assert!(!plain.contains(r#""ph":"C""#));
    }

    #[test]
    fn parser_builds_values_and_decodes_escapes() {
        let doc = parse_json(r#"{"a":[1,2.5,-3],"b":"x\"yA\n","c":null,"d":true}"#).unwrap();
        assert_eq!(doc.kind(), "object");
        let a = doc.get("a").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2].as_f64(), Some(-3.0));
        assert_eq!(doc.get("b").and_then(JsonValue::as_str), Some("x\"yA\n"));
        assert_eq!(doc.get("c"), Some(&JsonValue::Null));
        assert_eq!(doc.get("d").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(doc.as_obj().map(<[_]>::len), Some(4));
        assert_eq!(
            parse_json(r#""\u0041\t""#).unwrap(),
            JsonValue::Str("A\t".to_string())
        );
        assert!(parse_json("{").is_err());
        assert!(parse_json(r#"{"a":1,}"#).is_err());
        assert!(parse_json("[] junk").is_err());
    }

    #[test]
    fn validator_accepts_and_rejects() {
        assert!(validate_json(r#"{"a":[1,2.5,-3],"b":"x\"y","c":null,"d":true}"#).is_ok());
        assert!(validate_json("  [ ]  ").is_ok());
        assert!(validate_json("").is_err());
        assert!(validate_json("{").is_err());
        assert!(validate_json(r#"{"a":1,}"#).is_err());
        assert!(validate_json(r#"{"a" 1}"#).is_err());
        assert!(validate_json("[1 2]").is_err());
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_json("{} extra").is_err());
    }
}
