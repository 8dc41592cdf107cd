//! The daemon: TCP accept loop, per-connection protocol handling,
//! single-flight coalescing, and the sharded execution pool.
//!
//! Each connection gets a thread (jobs are few and heavy; the expensive
//! resource is the worker pool, not connection handlers). Job handling:
//!
//! 1. canonicalize + digest every spec ([`crate::digest`]);
//! 2. resolve each unique digest under one registry lock — cache hit,
//!    follower of an in-flight execution, or leader of a new one;
//! 3. shard leader cells across [`par_map_with`] workers, each carrying
//!    a reset-don't-drop [`Runner`], streaming a `progress` event per
//!    completed cell;
//! 4. answer every input cell in order with the cached bytes.
//!
//! The registry lock makes hit-or-lead atomic: between N concurrent
//! clients submitting an identical job, exactly one becomes leader per
//! cell and everyone receives the same `Arc<String>` bytes.

use crate::cache::{CacheTier, RunCache};
use crate::digest::{code_fingerprint, job_digest, spec_digest};
use crate::metrics::ServerMetrics;
use crate::proto::{parse_request, result_json, Request, PROTO_VERSION};
use crate::run_cell;
use hmp_bench::sweep::{default_workers, par_map_with};
use hmp_sim::digest::hex16;
use hmp_sim::export::json_escape;
use hmp_workloads::{RunSpec, Runner};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

/// Daemon configuration; see the `hmp-server` binary for the CLI.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7077` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads for cache-miss execution.
    pub workers: usize,
    /// On-disk cache directory; `None` disables the disk tier.
    pub cache_dir: Option<PathBuf>,
    /// In-memory cache entry cap (0 = unbounded).
    pub cache_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7077".to_string(),
            workers: default_workers(),
            cache_dir: None,
            cache_cap: 1024,
        }
    }
}

enum FlightState {
    Pending,
    Done(Arc<String>),
    /// The leader died before publishing; followers must not wait forever.
    Abandoned,
}

/// One in-flight execution that followers block on.
struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Arc<Flight> {
        Arc::new(Flight {
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        })
    }

    fn publish(&self, state: FlightState) {
        *self.state.lock().expect("flight lock") = state;
        self.cv.notify_all();
    }

    fn wait(&self) -> Option<Arc<String>> {
        let mut state = self.state.lock().expect("flight lock");
        loop {
            match &*state {
                FlightState::Pending => state = self.cv.wait(state).expect("flight lock"),
                FlightState::Done(json) => return Some(json.clone()),
                FlightState::Abandoned => return None,
            }
        }
    }
}

/// Cache and single-flight table behind one lock, so "hit, follow, or
/// lead" is a single atomic decision per digest.
struct Registry {
    cache: RunCache,
    flights: HashMap<u64, Arc<Flight>>,
}

struct Shared {
    registry: Mutex<Registry>,
    metrics: ServerMetrics,
    workers: usize,
    stop: AtomicBool,
    addr: SocketAddr,
}

/// A bound daemon, ready to [`serve`](Server::serve).
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and opens the cache. Fails with a plain
    /// [`io::Error`] on an unusable address or cache directory.
    pub fn bind(config: &ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let cache = RunCache::new(config.cache_dir.clone(), config.cache_cap)?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                registry: Mutex::new(Registry {
                    cache,
                    flights: HashMap::new(),
                }),
                metrics: ServerMetrics::new(),
                workers: config.workers.max(1),
                stop: AtomicBool::new(false),
                addr,
            }),
        })
    }

    /// The actually bound address (resolves `:0` to the picked port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Server health counters.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// Accepts connections until a client sends `shutdown`. Each
    /// connection is handled on its own thread; this call only returns
    /// after shutdown (or a fatal accept error).
    pub fn serve(&self) -> io::Result<()> {
        for conn in self.listener.incoming() {
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = conn?;
            let shared = self.shared.clone();
            std::thread::spawn(move || {
                // A dropped connection mid-job is the client's problem,
                // not the daemon's: errors end this handler only.
                let _ = handle_connection(&shared, stream);
            });
        }
        Ok(())
    }
}

fn write_event(w: &mut impl Write, line: &str) -> io::Result<()> {
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) -> io::Result<()> {
    // Each event is flushed on its own. With Nagle's algorithm on, the
    // second event of a reply waits for the client's delayed ACK, which
    // stalls each job after the first on a persistent connection by
    // ~40 ms.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(()); // EOF: client done
        }
        if line.trim().is_empty() {
            continue;
        }
        match parse_request(&line) {
            Err(e) => {
                shared.metrics.error();
                write_event(
                    &mut writer,
                    &format!(r#"{{"event":"error","message":"{}"}}"#, json_escape(&e)),
                )?;
            }
            Ok(Request::Ping) => write_event(
                &mut writer,
                &format!(
                    r#"{{"event":"pong","proto":{PROTO_VERSION},"fingerprint":"{}"}}"#,
                    json_escape(&code_fingerprint())
                ),
            )?,
            Ok(Request::Metrics) => write_event(
                &mut writer,
                &format!(
                    r#"{{"event":"metrics","exposition":"{}"}}"#,
                    json_escape(&shared.metrics.exposition())
                ),
            )?,
            Ok(Request::Shutdown) => {
                shared.stop.store(true, Ordering::SeqCst);
                write_event(&mut writer, r#"{"event":"ok"}"#)?;
                // Wake the accept loop so it observes the stop flag.
                let _ = TcpStream::connect(shared.addr);
                return Ok(());
            }
            Ok(Request::Run(spec)) => run_job(shared, &mut writer, &[spec])?,
            Ok(Request::Sweep(specs)) => run_job(shared, &mut writer, &specs)?,
        }
    }
}

/// How one unique digest was resolved for this job.
enum Resolution {
    /// Served from cache.
    Ready(Arc<String>, CacheTier),
    /// Another client is executing it; wait on its flight.
    Follow(Arc<Flight>),
    /// This job executes it (index into `to_run`).
    Lead(usize),
}

fn source_name(r: &Resolution) -> &'static str {
    match r {
        Resolution::Ready(_, CacheTier::Memory) => "memory",
        Resolution::Ready(_, CacheTier::Disk) => "disk",
        Resolution::Follow(_) => "coalesced",
        Resolution::Lead(_) => "executed",
    }
}

fn run_job(shared: &Arc<Shared>, writer: &mut impl Write, specs: &[RunSpec]) -> io::Result<()> {
    shared.metrics.job(specs.len() as u64);
    let digests: Vec<u64> = specs.iter().map(spec_digest).collect();
    let job = hex16(job_digest(&digests));
    write_event(
        writer,
        &format!(
            r#"{{"event":"accepted","job":"{job}","cells":{},"proto":{PROTO_VERSION}}}"#,
            specs.len()
        ),
    )?;

    // Resolve each unique digest exactly once, atomically per digest:
    // cache hit, follower of an in-flight execution, or new leader.
    let mut resolution: HashMap<u64, Resolution> = HashMap::new();
    let mut to_run: Vec<(u64, Arc<Flight>, RunSpec)> = Vec::new();
    for (spec, &digest) in specs.iter().zip(&digests) {
        if resolution.contains_key(&digest) {
            continue;
        }
        let mut reg = shared.registry.lock().expect("registry lock");
        let r = if let Some((json, tier)) = reg.cache.get(digest) {
            match tier {
                CacheTier::Memory => shared.metrics.hit_memory(),
                CacheTier::Disk => shared.metrics.hit_disk(),
            }
            Resolution::Ready(json, tier)
        } else if let Some(flight) = reg.flights.get(&digest) {
            shared.metrics.coalesced();
            Resolution::Follow(flight.clone())
        } else {
            let flight = Flight::new();
            reg.flights.insert(digest, flight.clone());
            to_run.push((digest, flight, *spec));
            Resolution::Lead(to_run.len() - 1)
        };
        resolution.insert(digest, r);
    }

    // Shard the leader cells across the worker pool, streaming one
    // progress event per completed cell while the pool runs.
    let mut executed: Vec<(u64, Arc<String>)> = Vec::new();
    if !to_run.is_empty() {
        shared.metrics.enqueued(to_run.len() as u64);
        let admitted = Instant::now();
        let (tx, rx) = mpsc::channel::<()>();
        let pool = std::thread::scope(|scope| {
            let to_run = &to_run;
            let handle = scope.spawn(move || {
                // The sender lives (wrapped for `Sync`) inside this
                // thread, so every sender is gone once the pool returns —
                // even on a worker panic — and the drain loop below can
                // never block forever.
                let tx = Mutex::new(tx);
                par_map_with(
                    to_run,
                    shared.workers,
                    || (Runner::new(), tx.lock().expect("sender lock").clone()),
                    |(runner, tx), (digest, flight, spec)| {
                        let queue_wait = admitted.elapsed().as_micros() as u64;
                        let started = Instant::now();
                        let result = run_cell(runner, spec);
                        let service = started.elapsed().as_micros() as u64;
                        let json = Arc::new(result_json(&result));
                        {
                            let mut reg = shared.registry.lock().expect("registry lock");
                            reg.cache.insert(*digest, json.clone());
                            reg.flights.remove(digest);
                        }
                        flight.publish(FlightState::Done(json.clone()));
                        shared.metrics.executed(queue_wait, service);
                        let _ = tx.send(());
                        (*digest, json)
                    },
                )
            });
            let total = to_run.len();
            let mut done = 0usize;
            let mut io_result = Ok(());
            while done < total {
                match rx.recv() {
                    Ok(()) => {
                        done += 1;
                        if io_result.is_ok() {
                            // Keep draining on a write failure so the pool
                            // finishes and flights publish either way.
                            io_result = write_event(
                                writer,
                                &format!(r#"{{"event":"progress","done":{done},"total":{total}}}"#),
                            );
                        }
                    }
                    Err(_) => break, // pool died; join below reports it
                }
            }
            (handle.join(), io_result)
        });
        match pool {
            (Ok(results), io_result) => {
                io_result?;
                executed = results;
            }
            (Err(_), _) => {
                // A worker panicked mid-pool. Wake every follower before
                // reporting, or they would wait forever.
                let mut reg = shared.registry.lock().expect("registry lock");
                for (digest, flight, _) in &to_run {
                    reg.flights.remove(digest);
                    flight.publish(FlightState::Abandoned);
                }
                drop(reg);
                write_event(
                    writer,
                    r#"{"event":"error","message":"worker pool panicked"}"#,
                )?;
                return Err(io::Error::other("worker pool panicked"));
            }
        }
    }
    let executed: HashMap<u64, Arc<String>> = executed.into_iter().collect();

    // Answer every input cell in order. Repeated digests within one job
    // resolve once; the repeats are memory hits on the shared bytes.
    let mut counts: HashMap<&'static str, u64> = HashMap::new();
    let mut first_seen: HashMap<u64, ()> = HashMap::new();
    for (index, &digest) in digests.iter().enumerate() {
        let r = &resolution[&digest];
        let source = if first_seen.insert(digest, ()).is_none() {
            source_name(r)
        } else {
            shared.metrics.hit_memory();
            "memory"
        };
        *counts.entry(source).or_insert(0) += 1;
        let json: Arc<String> = match r {
            Resolution::Ready(json, _) => json.clone(),
            Resolution::Lead(i) => executed
                .get(&digest)
                .unwrap_or_else(|| panic!("leader cell {i} missing its result"))
                .clone(),
            Resolution::Follow(flight) => match flight.wait() {
                Some(json) => json,
                None => {
                    write_event(
                        writer,
                        r#"{"event":"error","message":"coalesced execution was abandoned"}"#,
                    )?;
                    return Ok(());
                }
            },
        };
        write_event(
            writer,
            &format!(
                r#"{{"event":"cell","index":{index},"digest":"{}","source":"{source}","result":{json}}}"#,
                hex16(digest)
            ),
        )?;
    }
    write_event(
        writer,
        &format!(
            concat!(
                r#"{{"event":"done","job":"{}","cells":{},"unique":{},"executed":{},"#,
                r#""hits":{},"coalesced":{}}}"#
            ),
            job,
            specs.len(),
            resolution.len(),
            counts.get("executed").copied().unwrap_or(0),
            counts.get("memory").copied().unwrap_or(0) + counts.get("disk").copied().unwrap_or(0),
            counts.get("coalesced").copied().unwrap_or(0),
        ),
    )
}
