//! The offline workloads: paper figure grids run serially through one
//! reset-don't-drop `Runner` with the fast-forward kernel, the way a user
//! regenerates the figures without the server.

use crate::hostspeed::HostSpeed;
use crate::jobs::sweep_request;
use crate::layers::{fold_digest, ProfileSum, SimCounts};
use crate::report::Report;
use crate::serve::{direct_layers, span_job, stage_layers, Client, Hosted};
use crate::stats::median;
use crate::trace::Tracer;
use hmp_bench::figure_params;
use hmp_platform::{RunResult, Strategy};
use hmp_server::result_json;
use hmp_sim::digest::Fnv64;
use hmp_workloads::{MicrobenchParams, PlatformPick, RunSpec, Runner, Scenario};
use std::io;
use std::time::{Duration, Instant};

/// The default workload seed; the pinned digests hold at this seed.
pub const DEFAULT_SEED: u64 = 1;

/// Run digest of one `figures` pass at the default seed.
const FIGURES_DIGEST: u64 = 0xa011_9e9e_91a3_735f;

/// Run digest of one `miss_penalty` pass at the default seed.
const MISS_PENALTY_DIGEST: u64 = 0x74c9_51e5_fd94_59ab;

/// Cold set-ups measured per run; the median is reported. Each takes
/// about a millisecond, so hundreds of them steady the median cheaply.
pub const SETUP_REPS: usize = 301;

/// Timed passes a run makes at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// One grid point: the cells a server `sweep` job at that point carries.
pub struct Row {
    /// Human label, e.g. `BCS lines=32 exec=1`.
    pub label: String,
    /// The cells, in order.
    pub specs: Vec<RunSpec>,
}

/// A paper reference point: the proposed approach's speedup over the
/// software solution in one row.
pub struct Reference {
    /// Row holding the point.
    pub row: usize,
    /// Where the paper states it.
    pub what: &'static str,
    /// The paper's speedup, in percent.
    pub paper_pct: f64,
}

/// A workload's cells, grouped into rows.
pub struct Grid {
    /// Rows in run order.
    pub rows: Vec<Row>,
    /// The accuracy reference, when the grid holds one.
    pub reference: Option<Reference>,
    /// The digest a pass must reproduce, when pinned for this seed.
    pub pinned: Option<u64>,
}

impl Grid {
    fn cells(&self) -> impl Iterator<Item = &RunSpec> {
        self.rows.iter().flat_map(|r| &r.specs)
    }
}

/// `figures`: Figures 5–7 in full — WCS, TCS and BCS × every line count
/// × every exec_time × the three strategies on PF2, burst penalty 13.
pub fn figures(seed: u64) -> Grid {
    let mut rows = Vec::new();
    for scenario in Scenario::ALL {
        for exec in MicrobenchParams::EXEC_SWEEP {
            for lines in MicrobenchParams::LINE_SWEEP {
                let mut params = figure_params(lines, exec);
                params.seed = seed;
                rows.push(Row {
                    label: format!("{scenario} lines={lines} exec={exec}"),
                    specs: Strategy::ALL
                        .iter()
                        .map(|&s| RunSpec::new(scenario, s, params))
                        .collect(),
                });
            }
        }
    }
    grid(
        rows,
        "BCS lines=32 exec=1",
        "Figure 6, BCS @ 32 lines, exec_time 1",
        38.22,
        (seed == DEFAULT_SEED).then_some(FIGURES_DIGEST),
    )
}

/// `miss_penalty`: the long-penalty end of Figure 8 — WCS, TCS and BCS ×
/// 1 and 32 lines × penalties 48 and 96 × software and proposed, on PF2
/// and PF3.
pub fn miss_penalty(seed: u64) -> Grid {
    let mut rows = Vec::new();
    for (name, platform) in [
        ("PF2", PlatformPick::PpcArm),
        ("PF3", PlatformPick::I486Ppc),
    ] {
        for scenario in Scenario::ALL {
            for lines in [1, 32] {
                for penalty in [48, 96] {
                    let mut params = figure_params(lines, 1);
                    params.seed = seed;
                    rows.push(Row {
                        label: format!("{name} {scenario} lines={lines} penalty={penalty}"),
                        specs: [Strategy::SoftwareDrain, Strategy::Proposed]
                            .iter()
                            .map(|&s| {
                                RunSpec::new(scenario, s, params)
                                    .on(platform)
                                    .with_burst_penalty(penalty)
                            })
                            .collect(),
                    });
                }
            }
        }
    }
    grid(
        rows,
        "PF2 BCS lines=32 penalty=96",
        "Figure 8, PF2 BCS @ 32 lines, 96-cycle penalty",
        76.0,
        (seed == DEFAULT_SEED).then_some(MISS_PENALTY_DIGEST),
    )
}

fn grid(
    rows: Vec<Row>,
    label: &str,
    what: &'static str,
    paper_pct: f64,
    pinned: Option<u64>,
) -> Grid {
    let row = rows
        .iter()
        .position(|r| r.label == label)
        .expect("the reference point is in the grid");
    Grid {
        rows,
        reference: Some(Reference {
            row,
            what,
            paper_pct,
        }),
        pinned,
    }
}

/// What one pass over a grid measured.
#[derive(Default)]
pub struct Pass {
    prepare_ns: u64,
    run_ns: u64,
    row_ns: u64,
    cycles: u64,
    cells: u64,
    rebuilds: u64,
    unclean: u64,
    digest: u64,
    /// `Runner::prepare` latencies in ms, reuse path.
    reuse_ms: Vec<f64>,
    /// `Runner::prepare` latencies in ms, rebuild path.
    rebuild_ms: Vec<f64>,
    cell_cycles: Vec<u64>,
    counts: SimCounts,
    profile: ProfileSum,
    results: Vec<(RunSpec, RunResult)>,
}

impl Pass {
    /// Simulated bus cycles per host microsecond inside `System::run`,
    /// which is millions of cycles per host second.
    fn sim_mcps(&self) -> f64 {
        self.cycles as f64 / self.run_ns as f64 * 1e3
    }
}

/// Runs every cell of `grid` once through `runner`. `profile` arms the
/// kernel self-profile; `keep` keeps every result.
pub fn run_pass(
    grid: &Grid,
    runner: &mut Runner,
    profile: bool,
    keep: bool,
    tracer: &mut Tracer,
    pass_id: u64,
) -> Pass {
    let mut p = Pass::default();
    let mut digest = Fnv64::new();
    let pass_span = tracer.open("pass", None, pass_id);
    for (ri, row) in grid.rows.iter().enumerate() {
        let row_start = Instant::now();
        let row_span = tracer.open("workloads.row", pass_span, ri as u64);
        for spec in &row.specs {
            let spec = if profile { spec.with_profile() } else { *spec };
            let rebuilds = runner.rebuilds();
            let t0 = Instant::now();
            let sys = runner.prepare(&spec);
            let t1 = Instant::now();
            let result = sys.run(spec.max_cycles);
            let t2 = Instant::now();
            tracer.record("workloads.prepare", t0, t1, row_span, p.cells);
            tracer.record("sim.run", t1, t2, row_span, p.cells);
            let prepare = t1 - t0;
            if runner.rebuilds() > rebuilds {
                p.rebuilds += 1;
                p.rebuild_ms.push(prepare.as_secs_f64() * 1e3);
            } else {
                p.reuse_ms.push(prepare.as_secs_f64() * 1e3);
            }
            p.prepare_ns += prepare.as_nanos() as u64;
            p.run_ns += (t2 - t1).as_nanos() as u64;
            p.cycles += result.cycles_u64();
            p.cells += 1;
            p.unclean += u64::from(!result.is_clean_completion());
            p.cell_cycles.push(result.cycles_u64());
            fold_digest(&mut digest, &result);
            p.counts.add(&result);
            if let Some(prof) = &result.profile {
                p.profile.add(prof);
            }
            if keep {
                p.results.push((spec, result));
            }
        }
        tracer.close(row_span);
        p.row_ns += row_start.elapsed().as_nanos() as u64;
    }
    tracer.close(pass_span);
    p.digest = digest.finish();
    p
}

/// Counts a pass's cells and its failures: unclean cells, and every cell
/// of a pass whose digest differs from `expected`.
fn check(report: &mut Report, pass: &Pass, expected: u64) {
    report.attempted += pass.cells;
    if pass.unclean > 0 {
        report.fail(
            pass.unclean,
            format!("{} cells did not complete cleanly", pass.unclean),
        );
    }
    if pass.digest != expected {
        report.fail(
            pass.cells,
            format!("pass digest {:016x}, expected {expected:016x}", pass.digest),
        );
    }
}

/// Runs the untimed first pass and checks it against the pinned digest.
fn warm_up(grid: &Grid, runner: &mut Runner, report: &mut Report) -> Pass {
    let warm = run_pass(
        grid,
        runner,
        false,
        false,
        &mut Tracer::new(Instant::now(), false),
        0,
    );
    check(report, &warm, grid.pinned.unwrap_or(warm.digest));
    warm
}

/// The cells at which a `Runner` walking the grid builds a platform from
/// scratch: the first cell and every platform shape change. Consecutive
/// ones differ in shape, so a fresh `Runner` rebuilds on each of them.
fn shape_changes(grid: &Grid) -> Vec<RunSpec> {
    let mut runner = Runner::new();
    let mut builds = Vec::new();
    for spec in grid.cells() {
        let rebuilds = runner.rebuilds();
        runner.prepare(spec);
        if runner.rebuilds() > rebuilds {
            builds.push(*spec);
        }
    }
    builds
}

/// Seconds a fresh `Runner` spends building every platform shape of the
/// grid, in grid order.
fn cold_setup_s(builds: &[RunSpec]) -> f64 {
    let mut runner = Runner::new();
    let t = Instant::now();
    for spec in builds {
        runner.prepare(spec);
    }
    let elapsed = t.elapsed().as_secs_f64();
    assert_eq!(
        runner.rebuilds() as usize,
        builds.len(),
        "every set-up cell builds"
    );
    elapsed
}

/// The untraced run: every end-to-end metric of an offline workload.
pub fn measure(grid: &Grid, seconds: f64, report: &mut Report) {
    let builds = shape_changes(grid);
    // Raw host time: a cold `Runner::prepare` allocates and fills fresh
    // platforms, and did not slow in the host's slow phases, so scaling it
    // by the reference's speed would add the phases instead of removing
    // them.
    let setups: Vec<f64> = (0..SETUP_REPS).map(|_| cold_setup_s(&builds)).collect();
    let mut runner = Runner::new();
    let warm = warm_up(grid, &mut runner, report);
    let mut off = Tracer::new(Instant::now(), false);
    let mut host = HostSpeed::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || Instant::now() < deadline {
        let p = run_pass(
            grid,
            &mut runner,
            false,
            false,
            &mut off,
            passes.len() as u64 + 1,
        );
        host.probe();
        check(report, &p, warm.digest);
        passes.push(p);
    }

    // Every host time below is normalised by the host's speed around its
    // pass (see `hostspeed`): a rate is divided by it, a latency scaled.
    let speeds = host.speeds();
    let per_pass = |f: &dyn Fn(&Pass) -> f64| {
        passes
            .iter()
            .zip(&speeds)
            .map(|(p, s)| f(p) / s)
            .collect::<Vec<f64>>()
    };
    let raw = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<f64>>());
    let cells_per_s = |p: &Pass| p.cells as f64 / ((p.prepare_ns + p.run_ns) as f64 / 1e9);
    let rows = grid.rows.len() as f64;
    let jobs_per_s = |p: &Pass| rows / (p.row_ns as f64 / 1e9);
    report.push_median(
        "cells_per_s",
        &per_pass(&cells_per_s),
        "host, normalised: cells / (Runner::prepare + System::run) seconds, per pass",
    );
    report.push_median(
        "sim_mcps",
        &per_pass(&Pass::sim_mcps),
        "simulated bus cycles / normalised host second inside System::run, per pass",
    );
    report.push_median(
        "jobs_per_s",
        &per_pass(&jobs_per_s),
        "host, normalised: grid rows (one sweep job's cells each) / second, per pass",
    );
    let reuse: Vec<f64> = passes
        .iter()
        .zip(&speeds)
        .flat_map(|(p, s)| p.reuse_ms.iter().map(move |ms| ms * s))
        .collect();
    // A pass rebuilds only a few platforms, one per shape change, and
    // their build times differ by shape; a median over single rebuilds
    // would jump between those shapes, so each pass contributes its mean.
    let rebuild: Vec<f64> = passes
        .iter()
        .zip(&speeds)
        .map(|(p, s)| s * p.rebuild_ms.iter().sum::<f64>() / p.rebuild_ms.len().max(1) as f64)
        .collect();
    report.note(format!(
        "host speed vs the reference host: median {:.3} over {} passes; unnormalised medians: \
         cells_per_s {:.2}, sim_mcps {:.3}, jobs_per_s {:.2}",
        median(&speeds),
        passes.len(),
        raw(&cells_per_s),
        raw(&Pass::sim_mcps),
        raw(&jobs_per_s),
    ));
    let hit = "host, normalised: each Runner::prepare that reset the platform in place";
    let miss = "host, normalised: Runner::prepare that rebuilt the platform, mean per pass";
    report.push_median("hit_p50_ms", &reuse, hit);
    report.push_tail("hit_p99_ms", &reuse, hit);
    report.push_median("miss_p50_ms", &rebuild, miss);
    report.push_tail("miss_p99_ms", &rebuild, miss);
    report.push_median(
        "setup_s",
        &setups,
        "host: cold Runner::prepare of each platform shape, fresh Runner",
    );
    accuracy(grid, &warm, report);
    report.note(format!(
        "{} timed passes of {} cells in {} rows; {} platform rebuilds per pass",
        passes.len(),
        warm.cells,
        grid.rows.len(),
        passes[0].rebuilds
    ));
}

/// Pushes `paper_err_pp` and prints the simulated speedup beside the
/// paper's.
fn accuracy(grid: &Grid, pass: &Pass, report: &mut Report) {
    let reference = grid
        .reference
        .as_ref()
        .expect("offline grids hold a reference");
    let offset: usize = grid.rows[..reference.row]
        .iter()
        .map(|r| r.specs.len())
        .sum();
    let specs = &grid.rows[reference.row].specs;
    let cycles = |strategy| {
        let i = specs
            .iter()
            .position(|s| s.strategy == strategy)
            .expect("the reference row runs both strategies");
        pass.cell_cycles[offset + i] as f64
    };
    let sim_pct = speedup_pct(cycles(Strategy::SoftwareDrain), cycles(Strategy::Proposed));
    push_accuracy(report, reference.what, sim_pct, reference.paper_pct);
}

/// The proposed approach's speedup over the software solution, in percent.
pub fn speedup_pct(software: f64, proposed: f64) -> f64 {
    (software - proposed) / software * 100.0
}

/// Pushes `paper_err_pp` for one reference point and states both values.
pub fn push_accuracy(report: &mut Report, what: &str, sim_pct: f64, paper_pct: f64) {
    report.note(format!(
        "accuracy: {what}: simulated speedup {sim_pct:.2} % vs paper {paper_pct:.2} % \
         (EXPERIMENTS.md records these references; the model is otherwise unvalidated \
         against hardware)"
    ));
    report.push(
        "paper_err_pp",
        (sim_pct - paper_pct).abs(),
        format!("simulated: |{sim_pct:.2} - {paper_pct:.2}| speedup points, {what}"),
    );
}

/// The traced run's simulator layers: alternates profiled passes (spans
/// recorded) with plain ones until `seconds` pass, and pushes every
/// `workloads.*`, `sim.*` and simulated-count metric. Returns the first
/// profiled pass's results.
pub fn trace_grid(
    grid: &Grid,
    seconds: f64,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Vec<(RunSpec, RunResult)> {
    let mut runner = Runner::new();
    let warm = warm_up(grid, &mut runner, report);
    let mut off = Tracer::new(Instant::now(), false);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut traced, mut plain): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    while traced.len() < MIN_PASSES || Instant::now() < deadline {
        // Alternate, so a slow spell on the machine lands on both sides
        // of the profile-overhead ratio.
        let id = 2 * traced.len() as u64 + 1;
        let t = run_pass(grid, &mut runner, true, traced.is_empty(), tracer, id);
        check(report, &t, warm.digest);
        traced.push(t);
        let u = run_pass(grid, &mut runner, false, false, &mut off, id + 1);
        check(report, &u, warm.digest);
        plain.push(u);
    }

    let per_cell = |f: &dyn Fn(&Pass) -> u64| {
        traced
            .iter()
            .map(|p| f(p) as f64 / p.cells as f64)
            .collect::<Vec<f64>>()
    };
    let first = &traced[0];
    let prof = first.profile;
    let cycles = first.cycles;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let us = |v: Vec<f64>| v.into_iter().map(|x| x / 1e3).collect::<Vec<f64>>();
    report.push_median(
        "workloads.prepare_us_per_cell",
        &us(per_cell(&|p| p.prepare_ns)),
        "host: Runner::prepare per cell, per profiled pass",
    );
    report.push(
        "workloads.rebuild_share",
        ratio(first.rebuilds, first.cells),
        "rebuilds / (reuses + rebuilds) over one pass",
    );
    report.push_median(
        "sim.run_us_per_cell",
        &us(per_cell(&|p| p.run_ns)),
        "host: System::run per cell, profiled passes",
    );
    let phase = "host: KernelProfile ns per cell, per profiled pass";
    report.push_median("sim.plan_ns", &per_cell(&|p| p.profile.plan_ns), phase);
    report.push_median("sim.warp_ns", &per_cell(&|p| p.profile.warp_ns), phase);
    report.push_median("sim.step_ns", &per_cell(&|p| p.profile.step_ns), phase);
    report.push_median(
        "sim.cpu_only_ns",
        &per_cell(&|p| p.profile.cpu_only_ns),
        phase,
    );
    report.push_median(
        "sim.loop_other_ns",
        &per_cell(&|p| p.profile.other_ns()),
        "host: wall minus the four phases, ns per cell",
    );
    report.push_median(
        "sim.ns_per_iteration",
        &traced
            .iter()
            .map(|p| ratio(p.profile.wall_ns, p.profile.iterations))
            .collect::<Vec<f64>>(),
        "host: kernel wall ns / loop iteration",
    );
    report.push(
        "sim.warped_cycles",
        prof.warped_cycles as f64,
        "simulated, one pass",
    );
    report.push(
        "sim.warp_share",
        ratio(prof.warped_cycles, cycles),
        "warped cycles / simulated cycles",
    );
    report.push(
        "sim.iterations",
        prof.iterations as f64,
        "kernel loop iterations, one pass",
    );
    report.push("sim.full_steps", prof.full_steps as f64, "one pass");
    report.push("sim.cpu_only_steps", prof.cpu_only_steps as f64, "one pass");
    report.push(
        "sim.cycles_per_iteration",
        ratio(cycles, prof.iterations),
        "simulated cycles / loop iteration",
    );
    let plain_mcps = median(&plain.iter().map(Pass::sim_mcps).collect::<Vec<f64>>());
    let traced_mcps = median(&traced.iter().map(Pass::sim_mcps).collect::<Vec<f64>>());
    report.push(
        "sim.profile_overhead",
        plain_mcps / traced_mcps,
        format!(
            "untraced / traced sim_mcps, {plain_mcps:.2} / {traced_mcps:.2}, {} interleaved pass pairs",
            traced.len()
        ),
    );
    first.counts.report(report);
    report.note(format!(
        "phase split of one profiled pass (host ns): plan {} warp {} step {} cpu-only {} other {} of {} wall",
        prof.plan_ns,
        prof.warp_ns,
        prof.step_ns,
        prof.cpu_only_ns,
        prof.other_ns(),
        prof.wall_ns
    ));
    traced.swap_remove(0).results
}

/// The traced run of an offline workload: simulator layers from
/// [`trace_grid`], then the serving layers from submitting every row as a
/// `sweep` job to a self-hosted daemon, cold and then warm. Every served
/// cell must match the offline result bytes.
pub fn trace(
    grid: &Grid,
    seconds: f64,
    report: &mut Report,
    tracer: &mut Tracer,
    workers: usize,
) -> io::Result<()> {
    let results = trace_grid(grid, seconds, report, tracer);
    let expected: Vec<String> = results.iter().map(|(_, r)| result_json(r)).collect();
    let requests: Vec<String> = grid.rows.iter().map(|r| sweep_request(&r.specs)).collect();
    let hosted = Hosted::start(workers)?;
    let mut replies = Vec::new();
    for _ in 0..2 {
        let mut offset = 0;
        for (i, (row, request)) in grid.rows.iter().zip(&requests).enumerate() {
            let reply = Client::connect(hosted.addr)?.submit(request, row.specs.len());
            span_job(tracer, i as u64, &reply);
            report.attempted += 1;
            let cells = offset..offset + row.specs.len();
            offset = cells.end;
            if let Some(e) = &reply.error {
                report.fail(1, format!("served {}: {e}", row.label));
            } else if reply.results[..] != expected[cells] {
                report.fail(
                    1,
                    format!("served {} differs from the offline bytes", row.label),
                );
            }
            replies.push(reply);
        }
    }
    let expo = Client::connect(hosted.addr)?.exposition()?;
    hosted.stop()?;
    stage_layers(report, &replies, &expo);
    direct_layers(report, &requests, &results);
    Ok(())
}
