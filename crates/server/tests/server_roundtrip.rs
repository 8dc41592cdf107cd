//! End-to-end daemon tests over real TCP: protocol round-trips, cache
//! tiers (memory within a daemon, disk across a restart), single-flight
//! coalescing of concurrent identical jobs, and byte-identical results
//! for every client.

use hmp_platform::Strategy;
use hmp_server::{Server, ServerConfig};
use hmp_sim::export::{parse_json, JsonValue};
use hmp_workloads::{codec, MicrobenchParams, RunSpec, Scenario};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn start(cache_dir: Option<PathBuf>) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        cache_dir,
        cache_cap: 64,
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.serve());
    (addr, handle)
}

fn stop(addr: &str, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    let reply = roundtrip(addr, &[r#"{"op":"shutdown"}"#.to_string()]);
    assert!(reply[0].contains(r#""event":"ok""#), "{reply:?}");
    handle.join().expect("server thread").expect("serve");
}

/// Sends each line, collecting every response line until the expected
/// terminal event for that request arrives.
fn roundtrip(addr: &str, requests: &[String]) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
    let mut reader = BufReader::new(stream);
    let mut replies = Vec::new();
    for request in requests {
        writer.write_all(request.as_bytes()).expect("send");
        writer.write_all(b"\n").expect("send");
        writer.flush().expect("send");
        loop {
            let mut line = String::new();
            assert!(
                reader.read_line(&mut line).expect("recv") > 0,
                "connection closed mid-request"
            );
            let done = {
                let doc = parse_json(&line).unwrap_or_else(|e| panic!("bad event {line:?}: {e}"));
                matches!(
                    doc.get("event").and_then(JsonValue::as_str),
                    Some("done") | Some("pong") | Some("metrics") | Some("ok") | Some("error")
                )
            };
            replies.push(line.trim_end().to_string());
            if done {
                break;
            }
        }
    }
    replies
}

fn spec(seed: u64) -> RunSpec {
    RunSpec::new(
        Scenario::Worst,
        Strategy::Proposed,
        MicrobenchParams {
            lines_per_iter: 2,
            exec_time: 1,
            outer_iters: 2,
            seed,
            ..Default::default()
        },
    )
}

fn run_request(spec: &RunSpec) -> String {
    format!(r#"{{"op":"run","spec":{}}}"#, codec::spec_to_json(spec))
}

fn field_u64(line: &str, key: &str) -> u64 {
    parse_json(line)
        .unwrap()
        .get(key)
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("no {key} in {line}")) as u64
}

fn field_str(line: &str, key: &str) -> String {
    parse_json(line)
        .unwrap()
        .get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        .to_string()
}

#[test]
fn ping_metrics_and_errors_roundtrip() {
    let (addr, handle) = start(None);
    let replies = roundtrip(
        &addr,
        &[
            r#"{"op":"ping"}"#.to_string(),
            "garbage![".to_string(),
            r#"{"op":"run","spec":{"scenario":"nope","strategy":"proposed"}}"#.to_string(),
            r#"{"op":"metrics"}"#.to_string(),
        ],
    );
    assert!(replies[0].contains(r#""event":"pong""#), "{replies:?}");
    assert!(replies[0].contains("fingerprint"), "{replies:?}");
    assert!(replies[1].contains(r#""event":"error""#), "{replies:?}");
    assert!(replies[2].contains(r#""event":"error""#), "{replies:?}");
    assert!(replies[2].contains("scenario"), "{replies:?}");
    assert!(
        replies[3].contains("hmp_server_errors_total 2"),
        "{replies:?}"
    );
    stop(&addr, handle);
}

#[test]
fn run_executes_then_hits_memory_with_identical_bytes() {
    let (addr, handle) = start(None);
    let request = run_request(&spec(1));

    let first = roundtrip(&addr, std::slice::from_ref(&request));
    let cell1 = first
        .iter()
        .find(|l| l.contains(r#""event":"cell""#))
        .unwrap();
    assert_eq!(field_str(cell1, "source"), "executed");
    let done1 = first.last().unwrap();
    assert_eq!(field_u64(done1, "executed"), 1);
    assert_eq!(field_u64(done1, "hits"), 0);

    // Same job from a new connection: pure memory hit, same bytes.
    let second = roundtrip(&addr, &[request]);
    let cell2 = second
        .iter()
        .find(|l| l.contains(r#""event":"cell""#))
        .unwrap();
    assert_eq!(field_str(cell2, "source"), "memory");
    assert_eq!(field_u64(second.last().unwrap(), "hits"), 1);
    let result = |l: &str| l[l.find(r#""result":"#).unwrap()..].to_string();
    assert_eq!(
        result(cell1),
        result(cell2),
        "cache must serve identical bytes"
    );

    // A semantically different job (new seed) misses.
    let third = roundtrip(&addr, &[run_request(&spec(2))]);
    assert_eq!(field_u64(third.last().unwrap(), "executed"), 1);
    stop(&addr, handle);
}

#[test]
fn repeated_jobs_on_one_connection_do_not_stall() {
    let (addr, handle) = start(None);
    let request = run_request(&spec(3));
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
    let mut reader = BufReader::new(stream);
    let mut times = Vec::new();
    for _ in 0..10 {
        let started = Instant::now();
        writer.write_all(request.as_bytes()).expect("send");
        writer.write_all(b"\n").expect("send");
        writer.flush().expect("send");
        let mut line = String::new();
        while !line.contains(r#""event":"done""#) {
            line.clear();
            assert!(reader.read_line(&mut line).expect("recv") > 0, "closed");
        }
        times.push(started.elapsed());
    }
    // The first job executes; the rest are memory hits whose replies
    // must not wait out the client's delayed ACK.
    let slowest = times[1..].iter().max().unwrap();
    assert!(
        *slowest < Duration::from_millis(20),
        "a repeated job took {slowest:?}: {times:?}"
    );
    drop((writer, reader));
    stop(&addr, handle);
}

#[test]
fn sweep_streams_progress_and_dedupes_repeats() {
    let (addr, handle) = start(None);
    let request = format!(
        r#"{{"op":"sweep","specs":[{},{},{}]}}"#,
        codec::spec_to_json(&spec(5)),
        codec::spec_to_json(&spec(6)),
        codec::spec_to_json(&spec(5)), // repeat of the first cell
    );
    let replies = roundtrip(&addr, &[request]);
    assert!(replies[0].contains(r#""event":"accepted""#), "{replies:?}");
    assert!(replies[0].contains(r#""cells":3"#), "{replies:?}");
    let progress = replies
        .iter()
        .filter(|l| l.contains(r#""event":"progress""#))
        .count();
    assert_eq!(progress, 2, "one progress event per unique execution");
    let cells: Vec<&String> = replies
        .iter()
        .filter(|l| l.contains(r#""event":"cell""#))
        .collect();
    assert_eq!(cells.len(), 3);
    // Cells come back in input order with the repeat served from memory.
    assert_eq!(field_u64(cells[0], "index"), 0);
    assert_eq!(field_u64(cells[2], "index"), 2);
    assert_eq!(field_str(cells[0], "digest"), field_str(cells[2], "digest"));
    assert_eq!(field_str(cells[2], "source"), "memory");
    let done = replies.last().unwrap();
    assert_eq!(field_u64(done, "unique"), 2);
    assert_eq!(field_u64(done, "executed"), 2);
    assert_eq!(field_u64(done, "hits"), 1);
    stop(&addr, handle);
}

#[test]
fn concurrent_identical_jobs_execute_once_with_identical_bytes() {
    let (addr, handle) = start(None);
    // A heavier cell so all clients overlap while it runs.
    let heavy = RunSpec::new(
        Scenario::Worst,
        Strategy::SoftwareDrain,
        MicrobenchParams {
            lines_per_iter: 16,
            exec_time: 2,
            outer_iters: 8,
            seed: 77,
            ..Default::default()
        },
    );
    let request = run_request(&heavy);
    const CLIENTS: usize = 4;
    let replies: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| scope.spawn(|| roundtrip(&addr, std::slice::from_ref(&request))))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let executed: u64 = replies
        .iter()
        .map(|r| field_u64(r.last().unwrap(), "executed"))
        .sum();
    assert_eq!(
        executed, 1,
        "N identical concurrent jobs must trigger exactly one execution"
    );
    let results: Vec<String> = replies
        .iter()
        .map(|r| {
            let cell = r.iter().find(|l| l.contains(r#""event":"cell""#)).unwrap();
            cell[cell.find(r#""result":"#).unwrap()..].to_string()
        })
        .collect();
    assert!(
        results.windows(2).all(|w| w[0] == w[1]),
        "every client must receive byte-identical result JSON"
    );
    stop(&addr, handle);
}

#[test]
fn disk_tier_survives_a_daemon_restart() {
    let dir = std::env::temp_dir().join(format!("hmp_server_restart_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let request = run_request(&spec(9));

    let (addr, handle) = start(Some(dir.clone()));
    let first = roundtrip(&addr, std::slice::from_ref(&request));
    assert_eq!(field_u64(first.last().unwrap(), "executed"), 1);
    let cell1 = first
        .iter()
        .find(|l| l.contains(r#""event":"cell""#))
        .unwrap();
    stop(&addr, handle);

    // A fresh daemon over the same directory serves the job from disk.
    let (addr, handle) = start(Some(dir.clone()));
    let second = roundtrip(&addr, &[request]);
    let cell2 = second
        .iter()
        .find(|l| l.contains(r#""event":"cell""#))
        .unwrap();
    assert_eq!(field_str(cell2, "source"), "disk");
    assert_eq!(field_u64(second.last().unwrap(), "executed"), 0);
    let result = |l: &str| l[l.find(r#""result":"#).unwrap()..].to_string();
    assert_eq!(
        result(cell1),
        result(cell2),
        "the disk tier must serve the exact bytes the first daemon computed"
    );
    stop(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}
