//! `hmp-server-bench` — load generator for the job daemon.
//!
//! Replays a figure grid against a running daemon (or a self-hosted
//! in-process one) from K concurrent connections, twice: a **cold** pass
//! that executes every cell and a **warm** pass served entirely from the
//! content-addressed cache. A third phase has all K clients submit one
//! identical fresh cell concurrently, pinning single-flight coalescing:
//! exactly one execution, byte-identical bytes for everyone.
//!
//! Writes `BENCH_SERVER.json` (schema-versioned; wall-clock fields use
//! the `_ns`/`_cps` suffixes and the `speedup` key that `bench_compare`
//! ignores, so the committed baseline gates only deterministic fields).
//! Exits nonzero when warm throughput is below 20× cold, the second
//! pass hit ratio is below 0.5, results differ between clients, or the
//! coalesce phase executed more than once.

use hmp_platform::Strategy;
use hmp_sim::export::{parse_json, validate_json, JsonValue, SCHEMA_VERSION};
use hmp_workloads::{codec, parse_key, MicrobenchParams, RunSpec, Scenario};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "\
hmp-server-bench — cold/warm load generator for hmp-server

USAGE:
    hmp-server-bench [OPTIONS]

OPTIONS:
    --addr HOST:PORT    Daemon to drive (default: self-host one in-process)
    --clients K         Concurrent connections per pass (default 2)
    --grid full|reduced Grid size: 54 cells or 6 cells (default reduced)
    --scenario NAME     worst | typical | best (default worst)
    --out FILE          Where to write BENCH_SERVER.json
                        (default: $HMP_BENCH_JSON dir or current directory)
    -h, --help          Print this help
";

struct Args {
    addr: Option<String>,
    clients: usize,
    full_grid: bool,
    scenario: Scenario,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        addr: None,
        clients: 2,
        full_grid: false,
        scenario: Scenario::Worst,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--addr" => parsed.addr = Some(value("--addr")?),
            "--clients" => {
                parsed.clients = value("--clients")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--clients needs a positive integer")?;
            }
            "--grid" => {
                parsed.full_grid = match value("--grid")?.as_str() {
                    "full" => true,
                    "reduced" => false,
                    other => return Err(format!("unknown grid {other:?}")),
                };
            }
            "--scenario" => {
                parsed.scenario = parse_key(
                    "scenario",
                    &Scenario::ALL,
                    Scenario::key,
                    &value("--scenario")?,
                )?;
            }
            "--out" => parsed.out = Some(value("--out")?),
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn grid_specs(scenario: Scenario, full: bool) -> Vec<RunSpec> {
    let (lines, execs): (&[u32], &[u32]) = if full {
        (&MicrobenchParams::LINE_SWEEP, &MicrobenchParams::EXEC_SWEEP)
    } else {
        (&[4, 16], &[1])
    };
    // Enough outer iterations that a cell costs milliseconds to execute:
    // the cold/warm ratio should measure simulation avoided by the
    // cache, not connection and JSON overhead shared by both passes.
    let outer_iters = if full { 8 } else { 64 };
    let mut specs = Vec::new();
    for &exec_time in execs {
        for &lines_per_iter in lines {
            for strategy in Strategy::ALL {
                specs.push(RunSpec::new(
                    scenario,
                    strategy,
                    MicrobenchParams {
                        lines_per_iter,
                        exec_time,
                        outer_iters,
                        seed: 1,
                        ..Default::default()
                    },
                ));
            }
        }
    }
    specs
}

/// What one client saw for one job.
struct JobReport {
    /// Raw result JSON per cell, in input order.
    results: Vec<String>,
    executed: u64,
    hits: u64,
    coalesced: u64,
}

fn connect(addr: &str) -> TcpStream {
    // The daemon may still be starting (CI launches it in the
    // background); retry briefly before giving up.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return s,
            Err(e) => {
                if Instant::now() >= deadline {
                    panic!("cannot connect to {addr}: {e}");
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

fn submit_sweep(addr: &str, specs: &[RunSpec]) -> JobReport {
    let stream = connect(addr);
    let mut writer = BufWriter::new(stream.try_clone().expect("clone stream"));
    let mut reader = BufReader::new(stream);

    let mut request = String::from(r#"{"op":"sweep","specs":["#);
    for (i, spec) in specs.iter().enumerate() {
        if i > 0 {
            request.push(',');
        }
        request.push_str(&codec::spec_to_json(spec));
    }
    request.push_str("]}\n");
    writer.write_all(request.as_bytes()).expect("send job");
    writer.flush().expect("send job");

    let mut report = JobReport {
        results: Vec::new(),
        executed: 0,
        hits: 0,
        coalesced: 0,
    };
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).expect("read event") == 0 {
            panic!("server closed the connection before `done`");
        }
        let doc = parse_json(&line).unwrap_or_else(|e| panic!("bad event {line:?}: {e}"));
        match doc.get("event").and_then(JsonValue::as_str) {
            Some("accepted") | Some("progress") => {}
            Some("cell") => {
                // The raw result bytes are the trailing field; split them
                // off unparsed so byte-identity checks compare exactly
                // what the server sent.
                let at = line.find(r#""result":"#).expect("cell event has a result") + 9;
                let result = line[at..].trim_end().trim_end_matches('}');
                report.results.push(format!("{result}}}"));
            }
            Some("done") => {
                let count = |key: &str| {
                    doc.get(key)
                        .and_then(JsonValue::as_f64)
                        .unwrap_or_else(|| panic!("done event missing {key}: {line}"))
                        as u64
                };
                report.executed = count("executed");
                report.hits = count("hits");
                report.coalesced = count("coalesced");
                return report;
            }
            Some("error") => panic!("server error: {line}"),
            other => panic!("unexpected event {other:?}: {line}"),
        }
    }
}

/// Runs one pass: K concurrent clients all submitting `specs`. Returns
/// the per-client reports and the pass wall time.
fn run_pass(addr: &str, clients: usize, specs: &[RunSpec]) -> (Vec<JobReport>, Duration) {
    let started = Instant::now();
    let reports = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| scope.spawn(|| submit_sweep(addr, specs)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    (reports, started.elapsed())
}

fn assert_byte_identical(label: &str, reports: &[JobReport]) {
    let first = &reports[0].results;
    for (i, r) in reports.iter().enumerate().skip(1) {
        assert_eq!(
            &r.results, first,
            "{label}: client {i} received different bytes than client 0"
        );
    }
}

fn shutdown(addr: &str) {
    let stream = connect(addr);
    let mut writer = BufWriter::new(stream.try_clone().expect("clone stream"));
    let mut reader = BufReader::new(stream);
    writer
        .write_all(b"{\"op\":\"shutdown\"}\n")
        .and_then(|_| writer.flush())
        .expect("send shutdown");
    let mut line = String::new();
    let _ = reader.read_line(&mut line);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hmp-server-bench: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Without --addr, self-host a daemon in-process (memory-only cache):
    // the local path for regenerating the committed baseline.
    let mut self_hosted = None;
    let addr = match &args.addr {
        Some(a) => a.clone(),
        None => {
            let config = hmp_server::ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                ..Default::default()
            };
            let server = match hmp_server::Server::bind(&config) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("hmp-server-bench: cannot self-host: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let addr = server.local_addr().to_string();
            self_hosted = Some(std::thread::spawn(move || server.serve()));
            addr
        }
    };

    let specs = grid_specs(args.scenario, args.full_grid);
    let cells = specs.len() as u64;
    let clients = args.clients as u64;
    println!(
        "server bench — {} cells × {} clients against {addr}",
        cells, clients
    );

    let (cold, cold_wall) = run_pass(&addr, args.clients, &specs);
    assert_byte_identical("cold pass", &cold);
    let cold_executed: u64 = cold.iter().map(|r| r.executed).sum();
    let cold_served = clients * cells;
    // Single-flight + cache: every unique cell executes exactly once no
    // matter how many clients race, the rest are hits or coalesced.
    assert_eq!(
        cold_executed, cells,
        "cold pass must execute each unique cell exactly once"
    );
    let cold_shared = cold_served - cold_executed;

    let (warm, warm_wall) = run_pass(&addr, args.clients, &specs);
    assert_byte_identical("warm pass", &warm);
    assert_byte_identical(
        "cold vs warm",
        &[
            JobReport {
                results: cold[0].results.clone(),
                executed: 0,
                hits: 0,
                coalesced: 0,
            },
            JobReport {
                results: warm[0].results.clone(),
                executed: 0,
                hits: 0,
                coalesced: 0,
            },
        ],
    );
    let warm_executed: u64 = warm.iter().map(|r| r.executed).sum();
    let warm_hits: u64 = warm.iter().map(|r| r.hits + r.coalesced).sum();
    assert_eq!(warm_executed, 0, "warm pass must be fully cached");
    let warm_hit_ratio = warm_hits as f64 / (clients * cells) as f64;

    // Coalesce phase: every client submits the same single fresh cell
    // (a seed outside the grid) at once — one execution total.
    let mut fresh = specs[specs.len() - 1];
    fresh.params.seed = 424_242;
    let coalesce_specs = [fresh];
    let (coal, _) = run_pass(&addr, args.clients, &coalesce_specs);
    assert_byte_identical("coalesce phase", &coal);
    let coal_executed: u64 = coal.iter().map(|r| r.executed).sum();
    assert_eq!(
        coal_executed, 1,
        "identical concurrent jobs must coalesce onto one execution"
    );

    let cold_cps = cold_served as f64 / cold_wall.as_secs_f64();
    let warm_cps = (clients * cells) as f64 / warm_wall.as_secs_f64();
    let speedup = warm_cps / cold_cps;
    println!(
        "cold: {} served / {} executed in {:?} ({cold_cps:.0} cells/s)",
        cold_served, cold_executed, cold_wall
    );
    println!(
        "warm: {} served / {} executed in {:?} ({warm_cps:.0} cells/s, {speedup:.1}x)",
        clients * cells,
        warm_executed,
        warm_wall
    );
    println!(
        "coalesce: {} clients, {} execution(s)",
        clients, coal_executed
    );

    let mut json = String::with_capacity(1024);
    let _ = write!(
        json,
        concat!(
            r#"{{"schema_version":{},"figure":"server","scenario":"{:?}","clients":{},"#,
            r#""grid":{{"cells":{},"unique":{}}},"#,
            r#""cold":{{"served":{},"executed":{},"shared":{},"wall_ns":{},"cells_cps":{:.3}}},"#,
            r#""warm":{{"served":{},"executed":{},"hits":{},"hit_ratio":{:.6},"wall_ns":{},"cells_cps":{:.3}}},"#,
            r#""coalesce":{{"clients":{},"executed":{},"byte_identical":true}},"#,
            r#""speedup":{:.3},"byte_identical":true}}"#
        ),
        SCHEMA_VERSION,
        args.scenario,
        clients,
        cells,
        cells,
        cold_served,
        cold_executed,
        cold_shared,
        cold_wall.as_nanos(),
        cold_cps,
        clients * cells,
        warm_executed,
        warm_hits,
        warm_hit_ratio,
        warm_wall.as_nanos(),
        warm_cps,
        clients,
        coal_executed,
        speedup,
    );
    validate_json(&json).unwrap_or_else(|e| panic!("malformed BENCH_SERVER.json: {e}"));
    let path = match &args.out {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            let dir = hmp_bench::json::bench_json_dir().unwrap_or_else(|| ".".into());
            std::fs::create_dir_all(&dir)
                .unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
            dir.join("BENCH_SERVER.json")
        }
    };
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());

    if self_hosted.is_some() {
        shutdown(&addr);
    }
    if let Some(handle) = self_hosted {
        handle.join().expect("server thread").expect("server exit");
    }

    // The gates: these are the acceptance criteria, enforced at exit.
    assert!(
        warm_hit_ratio >= 0.5,
        "second-pass hit ratio {warm_hit_ratio:.2} below 0.5"
    );
    assert!(
        speedup >= 20.0,
        "warm throughput only {speedup:.1}x cold (need >= 20x)"
    );
    ExitCode::SUCCESS
}
