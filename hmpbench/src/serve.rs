//! The serving side: a self-hosted `hmp_server::Server`, a protocol
//! client that timestamps every streamed event, scraping of the `metrics`
//! op, and the server's per-layer metrics.

use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use hmp_platform::RunResult;
use hmp_server::{parse_request, result_json, spec_digest, RunCache, Server, ServerConfig};
use hmp_sim::export::{parse_json, JsonValue};
use hmp_workloads::RunSpec;
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest wait for the next event of a reply before it counts as stalled.
const STALL: Duration = Duration::from_secs(60);

/// Timing repetitions of each direct layer call; the median is reported.
const DIRECT_REPS: usize = 7;

/// Passes over the inputs inside one timing repetition.
const DIRECT_LOOPS: usize = 20;

/// A daemon served from a thread of this process.
pub struct Hosted {
    /// Where it listens.
    pub addr: SocketAddr,
    thread: JoinHandle<io::Result<()>>,
}

impl Hosted {
    /// Binds a daemon with `workers` execution workers and the default
    /// memory cache (no disk tier) on a free loopback port, and starts
    /// serving.
    pub fn start(workers: usize) -> io::Result<Hosted> {
        let server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            cache_dir: None,
            ..ServerConfig::default()
        })?;
        let addr = server.local_addr();
        let thread = std::thread::spawn(move || server.serve());
        Ok(Hosted { addr, thread })
    }

    /// Sends `shutdown` and waits for the accept loop to end.
    pub fn stop(self) -> io::Result<()> {
        let ok = Client::connect(self.addr)?.call(r#"{"op":"shutdown"}"#)?;
        if !ok.starts_with(r#"{"event":"ok""#) {
            return Err(io::Error::other(format!("shutdown answered {ok}")));
        }
        self.thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

/// Set-up time of a fresh daemon in seconds: `Server::bind` until the
/// first `pong` arrives. The daemon is stopped again afterwards.
pub fn setup_s(workers: usize) -> io::Result<f64> {
    let start = Instant::now();
    let hosted = Hosted::start(workers)?;
    let pong = Client::connect(hosted.addr)?.call(r#"{"op":"ping"}"#)?;
    let elapsed = start.elapsed().as_secs_f64();
    hosted.stop()?;
    if !pong.starts_with(r#"{"event":"pong""#) {
        return Err(io::Error::other(format!("ping answered {pong}")));
    }
    Ok(elapsed)
}

/// What one job's event stream looked like from the client.
#[derive(Debug)]
pub struct Reply {
    /// When the request line was written.
    pub sent: Instant,
    /// When `accepted` arrived.
    pub accepted: Option<Instant>,
    /// When the last `progress` arrived (only jobs that executed cells).
    pub last_progress: Option<Instant>,
    /// When `done` arrived.
    pub done: Option<Instant>,
    /// The raw result bytes of each `cell` event, in order.
    pub results: Vec<String>,
    /// Cells the server simulated for this job, from `done`.
    pub executed: u64,
    /// Why the reply is unusable: an `error` event, a stall, a short or
    /// malformed stream.
    pub error: Option<String>,
}

impl Reply {
    /// Send to `done`, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.done
            .map_or(0.0, |d| ms(d.saturating_duration_since(self.sent)))
    }

    /// A job the server answered without simulating anything.
    pub fn hit(&self) -> bool {
        self.executed == 0
    }

    /// When the reply stream started answering cells.
    fn reply_from(&self) -> Option<Instant> {
        self.last_progress.or(self.accepted)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `true` when served result bytes describe a clean completion.
pub fn is_clean(result: &str) -> bool {
    result.starts_with(r#"{"outcome":"completed","#) && result.contains(r#","violations":0,"#)
}

/// The `cycles` field of served result bytes.
pub fn cycles_of(result: &str) -> Option<u64> {
    let at = result.find(r#""cycles":"#)? + 9;
    let digits = &result[at..];
    let end = digits.find(|c: char| !c.is_ascii_digit())?;
    digits[..end].parse().ok()
}

/// One connection to the daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(STALL))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    fn send(&mut self, request: &str) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(request.len() + 1);
        bytes.extend_from_slice(request.as_bytes());
        bytes.push(b'\n');
        self.writer.write_all(&bytes)
    }

    /// Reads one event line into `self.line`; `false` at end of stream.
    fn read_event(&mut self) -> io::Result<bool> {
        self.line.clear();
        Ok(self.reader.read_line(&mut self.line)? > 0)
    }

    /// Sends a one-event request (`ping`, `metrics`, `shutdown`) and
    /// returns its answer.
    pub fn call(&mut self, request: &str) -> io::Result<String> {
        self.send(request)?;
        if !self.read_event()? {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end().to_string())
    }

    /// The daemon's Prometheus exposition, from the `metrics` op.
    pub fn exposition(&mut self) -> io::Result<String> {
        let event = self.call(r#"{"op":"metrics"}"#)?;
        parse_json(&event)
            .ok()
            .and_then(|doc| doc.get("exposition")?.as_str().map(str::to_string))
            .ok_or_else(|| io::Error::other(format!("bad metrics event {event}")))
    }

    /// Submits a `run` or `sweep` job of `cells` cells and timestamps its
    /// event stream until `done`.
    pub fn submit(&mut self, request: &str, cells: usize) -> Reply {
        let mut reply = Reply {
            sent: Instant::now(),
            accepted: None,
            last_progress: None,
            done: None,
            results: Vec::with_capacity(cells),
            executed: 0,
            error: None,
        };
        if let Err(e) = self.send(request) {
            reply.error = Some(format!("send failed: {e}"));
            return reply;
        }
        loop {
            match self.read_event() {
                Ok(true) => {}
                Ok(false) => {
                    reply.error = Some("connection closed before done".into());
                    return reply;
                }
                Err(e) => {
                    reply.error = Some(format!("stalled or broken reply: {e}"));
                    return reply;
                }
            }
            let now = Instant::now();
            let line = self.line.trim_end();
            if line.starts_with(r#"{"event":"cell","#) {
                // The result bytes are the last field; keep them unparsed
                // so byte-identity checks compare exactly what was sent.
                match line.find(r#""result":"#) {
                    Some(at) if line.ends_with('}') => {
                        reply.results.push(line[at + 9..line.len() - 1].to_string());
                    }
                    _ => {
                        reply.error = Some(format!("malformed cell event {line}"));
                        return reply;
                    }
                }
            } else if line.starts_with(r#"{"event":"progress","#) {
                reply.last_progress = Some(now);
            } else if line.starts_with(r#"{"event":"accepted","#) {
                reply.accepted = Some(now);
            } else if line.starts_with(r#"{"event":"done","#) {
                reply.done = Some(now);
                let executed = parse_json(line)
                    .ok()
                    .and_then(|doc| doc.get("executed").and_then(JsonValue::as_f64));
                match executed {
                    Some(n) => reply.executed = n as u64,
                    None => reply.error = Some(format!("malformed done event {line}")),
                }
                if reply.results.len() != cells || reply.accepted.is_none() {
                    reply.error = Some(format!(
                        "short reply: {} of {cells} cells",
                        reply.results.len()
                    ));
                }
                return reply;
            } else {
                reply.error = Some(format!("unexpected event {line}"));
                return reply;
            }
        }
    }
}

/// Records a job's span and its accept / execute / reply stage spans.
pub fn span_job(tracer: &mut Tracer, id: u64, reply: &Reply) {
    let Some(done) = reply.done else {
        return;
    };
    let job = tracer.record("server.job", reply.sent, done, None, id);
    if let Some(accepted) = reply.accepted {
        tracer.record("server.accept", reply.sent, accepted, job, id);
        if let Some(progress) = reply.last_progress {
            tracer.record("server.exec", accepted, progress, job, id);
        }
    }
    if let Some(from) = reply.reply_from() {
        tracer.record("server.reply", from, done, job, id);
    }
}

/// The value of an unlabelled exposition sample.
pub fn prom_value(expo: &str, name: &str) -> Option<f64> {
    expo.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

/// The `q` quantile of a log2-bucketed exposition histogram, interpolated
/// linearly inside its bucket (bucket `le=hi` spans `(hi + 1) / 2 ..= hi`).
pub fn prom_quantile(expo: &str, name: &str, q: f64) -> Option<f64> {
    let prefix = format!("{name}_bucket{{le=\"");
    let buckets: Vec<(f64, f64)> = expo
        .lines()
        .filter_map(|l| {
            let (le, count) = l.strip_prefix(&prefix)?.split_once("\"} ")?;
            Some((le.parse().ok()?, count.trim().parse().ok()?))
        })
        .collect();
    let total = buckets.last()?.1;
    let target = q * total;
    let mut below = 0.0;
    for (hi, cumulative) in buckets {
        if cumulative >= target && cumulative > 0.0 {
            let lo = if hi == 0.0 { 0.0 } else { (hi + 1.0) / 2.0 };
            let frac = (target - below) / (cumulative - below);
            return Some(lo + frac * (hi - lo));
        }
        below = cumulative;
    }
    None
}

/// The server stage metrics from client timestamps, and the daemon's own
/// counters and histograms from its exposition.
pub fn stage_layers(report: &mut Report, replies: &[Reply], expo: &str) {
    let ok: Vec<&Reply> = replies.iter().filter(|r| r.error.is_none()).collect();
    let accept: Vec<f64> = ok
        .iter()
        .filter_map(|r| Some(ms(r.accepted?.saturating_duration_since(r.sent))))
        .collect();
    let exec: Vec<f64> = ok
        .iter()
        .filter(|r| !r.hit())
        .filter_map(|r| Some(ms(r.last_progress?.saturating_duration_since(r.accepted?))))
        .collect();
    let reply: Vec<f64> = ok
        .iter()
        .filter_map(|r| Some(ms(r.done?.saturating_duration_since(r.reply_from()?))))
        .collect();
    report.push_median(
        "server.accept_ms_p50",
        &accept,
        "host: send -> accepted (read, parse, digest), all jobs",
    );
    report.push_median(
        "server.exec_ms_p50",
        &exec,
        "host: accepted -> last progress, jobs that executed",
    );
    report.push_median(
        "server.reply_ms_p50",
        &reply,
        "host: last progress or accepted -> done (cell streaming), all jobs",
    );
    let scraped = |name: &str| prom_value(expo, name).unwrap_or(0.0);
    report.push(
        "server.queue_wait_us_p50",
        prom_quantile(expo, "hmp_server_queue_wait_us", 0.5).unwrap_or(0.0),
        "host: daemon histogram, admission -> execution start",
    );
    report.push(
        "server.service_us_p50",
        prom_quantile(expo, "hmp_server_service_us", 0.5).unwrap_or(0.0),
        "host: daemon histogram, simulation per executed cell",
    );
    report.push(
        "server.hit_ratio",
        scraped("hmp_server_hit_ratio"),
        "daemon: cells served without executing",
    );
    report.push(
        "server.executed",
        scraped("hmp_server_executed_total"),
        "daemon: cells simulated",
    );
    report.push(
        "server.coalesced",
        scraped("hmp_server_coalesced_total"),
        "daemon: cells that joined another client's execution",
    );
}

/// Nanoseconds per call of `body` over `items`, one sample per timing
/// repetition.
fn ns_per_call<T>(items: &[T], mut body: impl FnMut(&T)) -> Vec<f64> {
    (0..DIRECT_REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..DIRECT_LOOPS {
                items.iter().for_each(&mut body);
            }
            t.elapsed().as_nanos() as f64 / (DIRECT_LOOPS * items.len().max(1)) as f64
        })
        .collect()
}

/// Host time per call of each serving-layer function, timed directly on
/// the workload's own requests and results.
pub fn direct_layers(report: &mut Report, requests: &[String], results: &[(RunSpec, RunResult)]) {
    let parse = ns_per_call(requests, |r| {
        let _ = black_box(parse_request(black_box(r)));
    });
    let digest = ns_per_call(results, |(spec, _)| {
        black_box(spec_digest(black_box(spec)));
    });
    let render = ns_per_call(results, |(_, r)| {
        black_box(result_json(black_box(r)));
    });
    let entries: Vec<(u64, Arc<String>)> = results
        .iter()
        .map(|(spec, r)| (spec_digest(spec), Arc::new(result_json(r))))
        .collect();
    let (mut insert, mut get) = (Vec::new(), Vec::new());
    for _ in 0..DIRECT_REPS {
        let mut cache = RunCache::new(None, 0).expect("a memory-only cache opens");
        let t = Instant::now();
        for (digest, json) in &entries {
            cache.insert(*digest, json.clone());
        }
        insert.push(t.elapsed().as_nanos() as f64 / entries.len() as f64);
        let t = Instant::now();
        for _ in 0..DIRECT_LOOPS {
            for (digest, _) in &entries {
                black_box(cache.get(black_box(*digest)));
            }
        }
        get.push(t.elapsed().as_nanos() as f64 / (DIRECT_LOOPS * entries.len()) as f64);
    }
    let n = |what: &str, k: usize| format!("host: {k} {what}, median of {DIRECT_REPS} repetitions");
    report.push(
        "server.parse_us_per_req",
        median(&parse) / 1e3,
        n("parse_request calls", requests.len()),
    );
    report.push(
        "server.digest_ns_per_spec",
        median(&digest),
        n("spec_digest calls", results.len()),
    );
    report.push(
        "server.result_json_us_per_cell",
        median(&render) / 1e3,
        n("result_json calls", results.len()),
    );
    report.push(
        "server.cache_get_ns",
        median(&get),
        n("RunCache::get hits", entries.len()),
    );
    report.push(
        "server.cache_insert_ns",
        median(&insert),
        n("RunCache::insert calls into an empty cache", entries.len()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmp_server::ServerMetrics;

    #[test]
    fn exposition_scraping_reads_counters_and_interpolates_quantiles() {
        let m = ServerMetrics::new();
        m.job(3);
        m.hit_memory();
        m.enqueued(2);
        m.executed(100, 3_000);
        m.executed(120, 5_000);
        let expo = m.exposition();
        assert_eq!(prom_value(&expo, "hmp_server_executed_total"), Some(2.0));
        assert_eq!(prom_value(&expo, "hmp_server_jobs_total"), Some(1.0));
        // Both waits fall in the 64..=127 bucket; their median lies in it.
        let q = prom_quantile(&expo, "hmp_server_queue_wait_us", 0.5).unwrap();
        assert!((64.0..=127.0).contains(&q), "{q}");
        let s = prom_quantile(&expo, "hmp_server_service_us", 0.5).unwrap();
        assert!((2048.0..=4095.0).contains(&s), "{s}");
        assert_eq!(prom_quantile(&expo, "no_such_histogram", 0.5), None);
    }

    #[test]
    fn served_bytes_are_read_without_parsing() {
        let clean = r#"{"outcome":"completed","cycles":4242,"quarantined":0,"violations":0,"faults_injected":0}"#;
        assert!(is_clean(clean));
        assert_eq!(cycles_of(clean), Some(4242));
        assert!(!is_clean(&clean.replace("completed", "stalled")));
        assert!(!is_clean(
            &clean.replace(r#""violations":0"#, r#""violations":3"#)
        ));
    }

    #[test]
    fn a_hosted_daemon_answers_jobs_and_stops() {
        let hosted = Hosted::start(1).unwrap();
        let mut client = Client::connect(hosted.addr).unwrap();
        let params = hmp_workloads::MicrobenchParams {
            lines_per_iter: 2,
            outer_iters: 2,
            ..Default::default()
        };
        let spec = RunSpec::new(
            hmp_workloads::Scenario::Worst,
            hmp_platform::Strategy::Proposed,
            params,
        );
        let request = crate::jobs::sweep_request(&[spec]);
        let cold = client.submit(&request, 1);
        let warm = client.submit(&request, 1);
        assert_eq!(cold.error, None);
        assert_eq!((cold.hit(), warm.hit()), (false, true));
        assert_eq!(cold.results, warm.results);
        assert!(is_clean(&cold.results[0]));
        let broken = client.submit(r#"{"op":"sweep","specs":[]}"#, 1);
        assert!(broken.error.unwrap().contains("unexpected event"));
        let expo = client.exposition().unwrap();
        assert_eq!(prom_value(&expo, "hmp_server_executed_total"), Some(1.0));
        drop(client);
        hosted.stop().unwrap();
        assert!(setup_s(1).unwrap() > 0.0);
    }
}
