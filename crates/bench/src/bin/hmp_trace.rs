//! `hmp-trace` — run one microbenchmark with the full observability stack
//! and export its timeline and metrics.
//!
//! ```text
//! cargo run -p hmp-bench --release --bin hmp-trace -- \
//!     --scenario wcs --strategy proposed --lines 32 \
//!     --trace-out trace.json --metrics-out metrics.json
//! ```
//!
//! Writes a Chrome/Perfetto trace-event file (open it at
//! <https://ui.perfetto.dev> or `chrome://tracing`) and a metrics snapshot
//! (latency histograms, retry causes, hot addresses) as JSON, then prints
//! the run summary. Argument parsing is hand-rolled — the workspace builds
//! against an offline registry, so there is no clap.
//!
//! Exit status: 0 for a clean completion, 1 for any other outcome
//! (deadlock, invariant violation, cycle limit), 2 for a usage error.

use hmp_bus::ArbitrationPolicy;
use hmp_cache::ProtocolKind;
use hmp_platform::{metrics_json, Strategy};
use hmp_sim::export::{chrome_trace_with_series, timeseries_json, validate_json};
use hmp_sim::{exposition, TimeSeriesSpec};
use hmp_workloads::{prepare, MicrobenchParams, PlatformPick, RunSpec, Scenario};

const USAGE: &str = "\
hmp-trace — run one microbenchmark and export Perfetto trace + metrics JSON

USAGE:
  hmp-trace [OPTIONS]

OPTIONS:
  --scenario <wcs|bcs|tcs>                  workload scenario      [default: wcs]
  --strategy <disabled|software|proposed>   shared-data strategy   [default: proposed]
  --platform <ppc-arm|i486-ppc|pf1|fabric<N>x<S>>
                       hardware platform (fabric4x2 = 4 MESI
                       masters over 2 bus segments)                [default: ppc-arm]
  --arbitration <rr|fp|fcfs>                bus arbitration        [default: rr]
  --lines <N>          accessed cache lines per iteration          [default: 8]
  --exec <N>           exec_time workload parameter                [default: 1]
  --iters <N>          critical-section entries per task           [default: 8]
  --seed <N>           workload RNG seed                           [default: 1]
  --spans <N>          completed-span ring capacity                [default: 4096]
  --burst-penalty <N>  burst miss penalty in bus cycles            [default: 13]
  --max-cycles <N>     simulation cycle budget                     [default: 50000000]
  --invariants         enforce line invariants live (fail fast)
  --trace-out <FILE>   Chrome trace-event output                   [default: hmp_trace.json]
  --metrics-out <FILE> metrics snapshot output                     [default: hmp_metrics.json]
  --timeseries-out <FILE>   windowed telemetry JSON (arms the registry)
  --exposition-out <FILE>   Prometheus-style text exposition (arms the registry)
  --ts-window <N>      telemetry window width in bus cycles        [default: 8192]
  --profile            record the kernel self-profile (wall-time split)
  -h, --help           print this help

With the telemetry registry armed (either output flag), the Chrome
trace also carries per-window counter tracks: bus utilization, grants
per master, per-segment busy cycles, retries and completions.
";

struct Cli {
    scenario: Scenario,
    strategy: Strategy,
    platform: PlatformPick,
    arbitration: ArbitrationPolicy,
    lines: u32,
    exec: u32,
    iters: u32,
    seed: u64,
    spans: usize,
    burst_penalty: u64,
    max_cycles: u64,
    invariants: bool,
    trace_out: String,
    metrics_out: String,
    timeseries_out: Option<String>,
    exposition_out: Option<String>,
    ts_window: u64,
    profile: bool,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            scenario: Scenario::Worst,
            strategy: Strategy::Proposed,
            platform: PlatformPick::PpcArm,
            arbitration: ArbitrationPolicy::RoundRobin,
            lines: 8,
            exec: 1,
            iters: 8,
            seed: 1,
            spans: 4096,
            burst_penalty: 13,
            max_cycles: 50_000_000,
            invariants: false,
            trace_out: "hmp_trace.json".to_string(),
            metrics_out: "hmp_metrics.json".to_string(),
            timeseries_out: None,
            exposition_out: None,
            ts_window: 8192,
            profile: false,
        }
    }
}

/// Parses `fabric<N>x<S>` (e.g. `fabric4x2`) into a homogeneous MESI
/// fabric pick; a bare `fabric<N>` means one flat segment.
fn parse_fabric(s: &str) -> Result<PlatformPick, String> {
    let body = &s["fabric".len()..];
    let (n, segs) = match body.split_once('x') {
        Some((n, s)) => (n, s),
        None => (body, "1"),
    };
    let masters: u8 = n
        .parse()
        .map_err(|_| format!("--platform: bad fabric master count in {s:?}"))?;
    let segments: u8 = segs
        .parse()
        .map_err(|_| format!("--platform: bad fabric segment count in {s:?}"))?;
    if masters < 2 || segments == 0 || segments > masters {
        return Err(format!(
            "--platform: fabric needs 2+ masters and 1..=N segments, got {s:?}"
        ));
    }
    Ok(PlatformPick::Fabric {
        protocol: ProtocolKind::Mesi,
        masters,
        segments,
    })
}

fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
    fn num<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
        let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("{flag}: bad value {v:?}"))
    }
    let mut cli = Cli::default();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scenario" => {
                cli.scenario = match args.next().as_deref() {
                    Some("wcs") | Some("worst") => Scenario::Worst,
                    Some("bcs") | Some("best") => Scenario::Best,
                    Some("tcs") | Some("typical") => Scenario::Typical,
                    other => {
                        return Err(format!("--scenario: expected wcs|bcs|tcs, got {other:?}"))
                    }
                }
            }
            "--strategy" => {
                cli.strategy = match args.next().as_deref() {
                    Some("disabled") => Strategy::CacheDisabled,
                    Some("software") => Strategy::SoftwareDrain,
                    Some("proposed") => Strategy::Proposed,
                    other => {
                        return Err(format!(
                            "--strategy: expected disabled|software|proposed, got {other:?}"
                        ))
                    }
                }
            }
            "--platform" => {
                cli.platform = match args.next().as_deref() {
                    Some("ppc-arm") => PlatformPick::PpcArm,
                    Some("i486-ppc") => PlatformPick::I486Ppc,
                    Some("pf1") => PlatformPick::Pf1Dual,
                    Some(f) if f.starts_with("fabric") => parse_fabric(f)?,
                    other => {
                        return Err(format!(
                            "--platform: expected ppc-arm|i486-ppc|pf1|fabric<N>x<S>, \
                             got {other:?}"
                        ))
                    }
                }
            }
            "--arbitration" => {
                cli.arbitration = match args.next().as_deref() {
                    Some("rr") => ArbitrationPolicy::RoundRobin,
                    Some("fp") => ArbitrationPolicy::FixedPriority,
                    Some("fcfs") => ArbitrationPolicy::Fcfs,
                    other => {
                        return Err(format!("--arbitration: expected rr|fp|fcfs, got {other:?}"))
                    }
                }
            }
            "--lines" => cli.lines = num(&arg, args.next())?,
            "--exec" => cli.exec = num(&arg, args.next())?,
            "--iters" => cli.iters = num(&arg, args.next())?,
            "--seed" => cli.seed = num(&arg, args.next())?,
            "--spans" => cli.spans = num(&arg, args.next())?,
            "--burst-penalty" => cli.burst_penalty = num(&arg, args.next())?,
            "--max-cycles" => cli.max_cycles = num(&arg, args.next())?,
            "--invariants" => cli.invariants = true,
            "--trace-out" => cli.trace_out = num(&arg, args.next())?,
            "--metrics-out" => cli.metrics_out = num(&arg, args.next())?,
            "--timeseries-out" => cli.timeseries_out = Some(num(&arg, args.next())?),
            "--exposition-out" => cli.exposition_out = Some(num(&arg, args.next())?),
            "--ts-window" => cli.ts_window = num(&arg, args.next())?,
            "--profile" => cli.profile = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.spans == 0 {
        return Err("--spans must be at least 1 (the exporters need the span ring)".into());
    }
    if cli.ts_window == 0 {
        return Err("--ts-window must be at least 1 cycle".into());
    }
    Ok(cli)
}

fn main() {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return;
        }
        Err(msg) => {
            eprintln!("hmp-trace: {msg}\n\n{USAGE}");
            std::process::exit(2);
        }
    };

    let params = MicrobenchParams {
        lines_per_iter: cli.lines,
        exec_time: cli.exec,
        outer_iters: cli.iters,
        seed: cli.seed,
        ..Default::default()
    };
    let mut spec = RunSpec::new(cli.scenario, cli.strategy, params)
        .on(cli.platform)
        .with_arbitration(cli.arbitration)
        .with_burst_penalty(cli.burst_penalty)
        .with_spans(cli.spans);
    if cli.invariants {
        spec = spec.with_invariants();
    }
    let telemetry = cli.timeseries_out.is_some() || cli.exposition_out.is_some();
    if telemetry {
        spec = spec.with_timeseries(TimeSeriesSpec::with_window(cli.ts_window));
    }
    if cli.profile {
        spec = spec.with_profile();
    }
    spec.max_cycles = cli.max_cycles;

    let mut sys = prepare(&spec);
    let result = sys.run(spec.max_cycles);
    let metrics = sys.metrics().expect("span capacity > 0 enables metrics");

    let trace = chrome_trace_with_series(
        metrics.spans().iter(),
        metrics.events().iter(),
        sys.cpu_names(),
        result.timeseries.as_ref(),
    );
    validate_json(&trace).expect("exporter produced invalid trace JSON");
    std::fs::write(&cli.trace_out, &trace)
        .unwrap_or_else(|e| panic!("write {}: {e}", cli.trace_out));

    let mjson = metrics_json(&result).expect("span capacity > 0 enables metrics");
    validate_json(&mjson).expect("exporter produced invalid metrics JSON");
    std::fs::write(&cli.metrics_out, &mjson)
        .unwrap_or_else(|e| panic!("write {}: {e}", cli.metrics_out));

    if let Some(path) = &cli.timeseries_out {
        let snap = result.timeseries.as_ref().expect("registry was armed");
        let tsjson = timeseries_json(snap, result.profile.as_ref());
        validate_json(&tsjson).expect("exporter produced invalid timeseries JSON");
        std::fs::write(path, &tsjson).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!(
            "timeseries: {path} ({} bytes, {} windows)",
            tsjson.len(),
            snap.samples()
        );
    }
    if let Some(path) = &cli.exposition_out {
        let snap = result.timeseries.as_ref().expect("registry was armed");
        let text = exposition(snap, result.profile.as_ref());
        std::fs::write(path, &text).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("exposition: {path} ({} bytes)", text.len());
    }

    println!(
        "{} / {} on {:?}: lines={} exec={} iters={} seed={}",
        cli.scenario, cli.strategy, cli.platform, cli.lines, cli.exec, cli.iters, cli.seed
    );
    println!("{result}");
    println!("trace:   {} ({} bytes)", cli.trace_out, trace.len());
    println!("metrics: {} ({} bytes)", cli.metrics_out, mjson.len());

    if !result.is_clean_completion() {
        std::process::exit(1);
    }
}
