//! `server_mix`: closed-loop traffic against an `hmp_server::Server`
//! self-hosted in this process, with a memory-only cache.
//!
//! One client sends its next job only after the previous one's `done`, as
//! a sweep client does, drawing from the seeded [`JobStream`]. Each job
//! goes over a fresh connection, as `hmp-server-bench` sends it. Repeats
//! are cache hits and measure pure serving overhead; fresh jobs miss,
//! execute, and rebuild the workers' runners whenever the platform shape
//! changes. One client, not several: on a host with two cores, a second
//! client's miss keeps both cores busy while a hit waits for a time slice,
//! and the hit tail then measures the scheduler instead of the server.
//! Between jobs, while the daemon is idle, the client times the
//! host-speed reference (see `hostspeed`), and every host time is
//! normalised by it.

use crate::hostspeed::{normalised_samples, HostSpeed};
use crate::jobs::{Job, JobStream, REPEAT};
use crate::offline::{self, Grid, Row};
use crate::report::Report;
use crate::serve::{self, cycles_of, is_clean, Client, Hosted, Reply};
use crate::stats::median;
use crate::trace::Tracer;
use hmp_server::result_json;
use hmp_sim::digest::Fnv64;
use hmp_sim::SplitMix64;
use hmp_workloads::{RunSpec, Runner};
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Host time between two host-speed probes; each probe takes about a
/// hundredth of a second.
const PROBE_EVERY: Duration = Duration::from_millis(250);

/// Fresh daemons set up per run; the median is reported. Each takes
/// about a tenth of a millisecond, so hundreds of them steady the median
/// cheaply.
const SETUP_REPS: usize = 301;

/// Served cells re-run offline after the timed window.
const REPLAY_SAMPLE: usize = 16;

/// The traced run's simulator layers replay the fresh cells of this many
/// leading jobs of the stream, so their counts repeat exactly.
const REPLAY_JOBS: usize = 40;

/// Groups of consecutively completed jobs that give throughput samples.
const GROUPS: usize = 10;

/// Jobs whose specs and result bytes are kept for the offline re-run;
/// later jobs keep only a digest, so memory does not grow with run length.
const KEEP_JOBS: usize = 400;

/// One job as sent and answered.
struct Logged {
    id: usize,
    /// When the client began the job, before connecting.
    began: Instant,
    /// The host-speed interval the job ran in.
    interval: usize,
    repeat_of: Option<usize>,
    cells: usize,
    /// FNV-1a of every served result byte, in order.
    bytes: u64,
    clean: bool,
    /// Simulated cycles summed over the served cells.
    cycles: u64,
    /// Specs of a kept job; empty otherwise.
    specs: Vec<RunSpec>,
    /// The reply; its result bytes are kept only for kept jobs.
    reply: Reply,
}

impl Logged {
    fn new(job: Job, began: Instant, interval: usize, mut reply: Reply) -> Logged {
        let mut bytes = Fnv64::new();
        for r in &reply.results {
            bytes.write(r.as_bytes());
            bytes.write(&[0]);
        }
        let cells = reply.results.len();
        let clean = reply.results.iter().all(|r| is_clean(r));
        let cycles = reply.results.iter().filter_map(|r| cycles_of(r)).sum();
        let keep = job.id < KEEP_JOBS;
        if !keep {
            reply.results = Vec::new();
        }
        Logged {
            id: job.id,
            began,
            interval,
            repeat_of: job.repeat_of,
            cells,
            bytes: bytes.finish(),
            clean,
            cycles,
            specs: if keep { job.specs } else { Vec::new() },
            reply,
        }
    }
}

/// Drives the closed loop for `window` and returns every answered job,
/// with the host's speed around it timed by `host`.
fn closed_loop(
    addr: SocketAddr,
    seed: u64,
    window: Duration,
    tracer: &mut Tracer,
    host: &mut HostSpeed,
) -> io::Result<Vec<Logged>> {
    let mut stream = JobStream::new(seed);
    let deadline = Instant::now() + window;
    let mut next_probe = Instant::now() + PROBE_EVERY;
    let mut logs = Vec::new();
    while Instant::now() < deadline {
        let job = stream.next_job();
        let began = Instant::now();
        // One connection per job, as hmp-server-bench's sweep client
        // does; see README.md for why a persistent connection would
        // measure a TCP timer.
        let reply = Client::connect(addr)?.submit(&job.request, job.specs.len());
        serve::span_job(tracer, job.id as u64, &reply);
        logs.push(Logged::new(job, began, host.open_interval(), reply));
        if Instant::now() >= next_probe {
            host.probe();
            next_probe = Instant::now() + PROBE_EVERY;
        }
    }
    host.probe();
    Ok(logs)
}

/// Counts every job and its failures: an error event, a stalled or short
/// reply, an unclean cell, or a repeat whose bytes differ from the
/// original's.
fn check_replies(report: &mut Report, logs: &[Logged]) {
    let originals: HashMap<usize, u64> = logs
        .iter()
        .filter(|l| l.repeat_of.is_none() && l.reply.error.is_none())
        .map(|l| (l.id, l.bytes))
        .collect();
    for l in logs {
        report.attempted += 1;
        let id = l.id;
        if let Some(e) = &l.reply.error {
            report.fail(1, format!("job {id}: {e}"));
        } else if !l.clean {
            report.fail(
                1,
                format!("job {id}: a served cell did not complete cleanly"),
            );
        } else if let Some(&bytes) = l.repeat_of.and_then(|o| originals.get(&o)) {
            if bytes != l.bytes {
                report.fail(
                    1,
                    format!("job {id}: served bytes differ from its original"),
                );
            }
        }
    }
}

/// Re-runs a seeded sample of served fresh cells offline and compares
/// `result_json` with the served bytes.
fn replay_sample(report: &mut Report, logs: &[Logged], seed: u64) {
    let served: Vec<(&RunSpec, &String)> = logs
        .iter()
        .filter(|l| l.repeat_of.is_none() && l.reply.error.is_none())
        .flat_map(|l| l.specs.iter().zip(&l.reply.results))
        .collect();
    let mut rng = SplitMix64::new(seed ^ 0x7265_706c_6179);
    let mut runner = Runner::new();
    for _ in 0..REPLAY_SAMPLE.min(served.len()) {
        let (spec, bytes) = served[rng.gen_range(served.len() as u64) as usize];
        report.attempted += 1;
        if result_json(&runner.run(spec)) != *bytes {
            report.fail(1, "an offline re-run differs from the served bytes");
        }
    }
}

/// Throughput samples: answered jobs in order, cut into [`GROUPS`]
/// groups of equal count; each sample is the group's summed `weight` over
/// the group's normalised client time, from beginning each job to its
/// `done`.
fn group_rates(jobs: &[Timed], weight: fn(&Logged) -> f64) -> Vec<f64> {
    let size = (jobs.len() / GROUPS).max(1);
    jobs.chunks(size)
        .filter(|group| group.len() == size)
        .map(|group| {
            let work: f64 = group.iter().map(|j| weight(j.log)).sum();
            let seconds: f64 = group.iter().map(|j| j.wall_s * j.speed).sum();
            work / seconds.max(1e-9)
        })
        .collect()
}

/// An answered job with the host's speed around it.
struct Timed<'a> {
    log: &'a Logged,
    /// From beginning the job to its `done`, in host seconds.
    wall_s: f64,
    speed: f64,
}

/// The untraced run: every end-to-end metric of `server_mix`.
pub fn measure(seed: u64, seconds: f64, report: &mut Report, workers: usize) -> io::Result<()> {
    let setups = normalised_samples(SETUP_REPS, || serve::setup_s(workers))?;
    let hosted = Hosted::start(workers)?;
    let mut host = HostSpeed::new();
    let logs = closed_loop(
        hosted.addr,
        seed,
        Duration::from_secs_f64(seconds),
        &mut Tracer::new(Instant::now(), false),
        &mut host,
    )?;
    let expo = Client::connect(hosted.addr)?.exposition()?;
    hosted.stop()?;
    check_replies(report, &logs);
    replay_sample(report, &logs, seed);

    // Every host time below is normalised by the host's speed around its
    // job (see `hostspeed`): a rate is divided by it, a latency scaled.
    let speeds = host.speeds();
    let ok: Vec<Timed> = logs
        .iter()
        .filter(|l| l.reply.error.is_none())
        .filter_map(|l| {
            Some(Timed {
                log: l,
                wall_s: l
                    .reply
                    .done?
                    .saturating_duration_since(l.began)
                    .as_secs_f64(),
                speed: speeds[l.interval],
            })
        })
        .collect();
    report.push_median(
        "cells_per_s",
        &group_rates(&ok, |l| l.cells as f64),
        &format!(
            "host, normalised: cells delivered per second of client time, {GROUPS} groups of jobs"
        ),
    );
    // The daemon sums service time over every executed cell; scale it by
    // the miss jobs' mean speed, weighted by their duration.
    let misses = || ok.iter().filter(|j| !j.log.reply.hit());
    let executed_cycles: u64 = misses().map(|j| j.log.cycles).sum();
    let miss_s: f64 = misses().map(|j| j.wall_s).sum();
    let miss_speed = misses().map(|j| j.wall_s * j.speed).sum::<f64>() / miss_s.max(1e-9);
    let service_us = serve::prom_value(&expo, "hmp_server_service_us_sum").unwrap_or(0.0);
    report.push(
        "sim_mcps",
        executed_cycles as f64 / (service_us * miss_speed),
        "simulated bus cycles of executed cells / the daemon's summed service seconds, normalised",
    );
    match logs.iter().find(|l| l.id == 0 && l.reply.error.is_none()) {
        Some(reference) => {
            let cycles = |i: usize| cycles_of(&reference.reply.results[i]).unwrap_or(0) as f64;
            let sim_pct = offline::speedup_pct(cycles(1), cycles(2));
            offline::push_accuracy(
                report,
                "Figure 6, BCS @ 32 lines, exec_time 1, from served bytes",
                sim_pct,
                38.22,
            );
        }
        None => {
            report.fail(1, "the reference job was not answered");
            report.push("paper_err_pp", 0.0, "reference job missing");
        }
    }
    report.push_median(
        "jobs_per_s",
        &group_rates(&ok, |_| 1.0),
        &format!(
            "host, normalised: jobs completed per second of client time, {GROUPS} groups of jobs"
        ),
    );
    let latencies = |hit: bool, speed: fn(&Timed) -> f64| {
        ok.iter()
            .filter(|j| j.log.reply.hit() == hit)
            .map(|j| j.log.reply.latency_ms() * speed(j))
            .collect::<Vec<f64>>()
    };
    let (hits, misses) = (latencies(true, |j| j.speed), latencies(false, |j| j.speed));
    let hit = "host, normalised: request line sent -> done, jobs with executed == 0";
    let miss = "host, normalised: request line sent -> done, jobs that executed cells";
    report.push_median("hit_p50_ms", &hits, hit);
    report.push_tail("hit_p99_ms", &hits, hit);
    report.push_median("miss_p50_ms", &misses, miss);
    report.push_tail("miss_p99_ms", &misses, miss);
    report.push_median(
        "setup_s",
        &setups,
        "host, normalised: Server::bind until the first pong, fresh daemon",
    );
    report.note(format!(
        "closed loop, 1 client, a connection per job, {workers} workers, memory cache; \
         repeat probability {:.2}, measured hit share {:.4} over {} jobs",
        REPEAT.0 as f64 / REPEAT.1 as f64,
        hits.len() as f64 / ok.len().max(1) as f64,
        ok.len()
    ));
    let raw = |hit: bool| median(&latencies(hit, |_| 1.0));
    report.note(format!(
        "host speed vs the reference host: median {:.3} over {} intervals; unnormalised \
         medians: hit_p50_ms {:.4}, miss_p50_ms {:.4}",
        median(&speeds),
        speeds.len(),
        raw(true),
        raw(false),
    ));
    Ok(())
}

/// The traced run: serving stages over a closed-loop window, then the
/// simulator layers from replaying the stream's leading fresh cells.
pub fn trace(
    seed: u64,
    seconds: f64,
    report: &mut Report,
    tracer: &mut Tracer,
    workers: usize,
) -> io::Result<()> {
    let hosted = Hosted::start(workers)?;
    let logs = closed_loop(
        hosted.addr,
        seed,
        Duration::from_secs_f64(seconds / 2.0),
        tracer,
        &mut HostSpeed::new(),
    )?;
    let expo = Client::connect(hosted.addr)?.exposition()?;
    hosted.stop()?;
    check_replies(report, &logs);
    let replies: Vec<Reply> = logs.into_iter().map(|l| l.reply).collect();
    serve::stage_layers(report, &replies, &expo);

    let mut stream = JobStream::new(seed);
    let leading: Vec<Job> = (0..REPLAY_JOBS).map(|_| stream.next_job()).collect();
    let grid = Grid {
        rows: leading
            .iter()
            .filter(|j| j.repeat_of.is_none())
            .flat_map(|j| j.specs.iter())
            .map(|spec| Row {
                label: format!("{:?} {}", spec.platform, spec.scenario),
                specs: vec![*spec],
            })
            .collect(),
        reference: None,
        pinned: None,
    };
    let results = offline::trace_grid(&grid, seconds / 2.0, report, tracer);
    let requests: Vec<String> = leading.into_iter().map(|j| j.request).collect();
    serve::direct_layers(report, &requests, &results);
    report.note(format!(
        "simulator layers replay the {} fresh cells of the stream's first {REPLAY_JOBS} jobs",
        grid.rows.len()
    ));
    Ok(())
}
