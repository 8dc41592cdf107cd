//! `hmpbench` — the repository's benchmark.
//!
//! Three workloads drive the workspace crates through their public APIs:
//! `figures` and `miss_penalty` run paper grids offline through one
//! `Runner`; `server_mix` sends closed-loop jobs to a self-hosted
//! `hmp-server`. An untraced run (`--trace 0`) prints every end-to-end
//! metric; a traced run (`--trace 1`), always in its own process, prints
//! the per-layer metrics and writes its spans to `.bench_out/`. The last
//! line of standard output is the JSON result. See `README.md` beside
//! this crate for what each number means.

mod hostspeed;
mod jobs;
mod layers;
mod offline;
mod report;
mod serve;
mod server_mix;
mod stats;
mod trace;

use report::Report;
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

const USAGE: &str = "\
usage: hmpbench --workload figures|miss_penalty|server_mix
                [--seed N] [--seconds S] [--trace 0|1]

  --seed N      workload seed (default 1; pinned digests hold at 1)
  --seconds S   measured window per run (default 40)
  --trace 0|1   0: end-to-end metrics; 1: per-layer metrics and spans
";

/// Where a traced run writes its spans, relative to the working directory.
const SPAN_DIR: &str = ".bench_out";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Figures,
    MissPenalty,
    ServerMix,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Figures => "figures",
            Workload::MissPenalty => "miss_penalty",
            Workload::ServerMix => "server_mix",
        }
    }
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: Workload::Figures,
        seed: offline::DEFAULT_SEED,
        seconds: 40.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "figures" => Workload::Figures,
                    "miss_penalty" => Workload::MissPenalty,
                    "server_mix" => Workload::ServerMix,
                    other => return Err(format!("unknown workload {other:?}")),
                });
            }
            "--seed" => {
                parsed.seed = value
                    .parse()
                    .map_err(|_| format!("--seed needs an integer, got {value:?}"))?;
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("--seconds needs 0 < S <= 600, got {value:?}"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace needs 0 or 1, got {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run(args: &Args, report: &mut Report, tracer: &mut Tracer) -> std::io::Result<()> {
    let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    report.note(format!(
        "hmpbench workload={} seed={} seconds={} trace={} nproc={workers}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    report.note(
        "host time is wall-clock time on this machine; simulated time is bus cycles \
         of the modelled platform",
    );
    let grid = match args.workload {
        Workload::Figures => Some(offline::figures(args.seed)),
        Workload::MissPenalty => Some(offline::miss_penalty(args.seed)),
        Workload::ServerMix => None,
    };
    match (grid, args.trace) {
        (Some(grid), false) => offline::measure(&grid, args.seconds, report),
        (Some(grid), true) => offline::trace(&grid, args.seconds, report, tracer, workers)?,
        (None, false) => server_mix::measure(args.seed, args.seconds, report, workers)?,
        (None, true) => server_mix::trace(args.seed, args.seconds, report, tracer, workers)?,
    }
    if args.trace {
        std::fs::create_dir_all(SPAN_DIR)?;
        let path = format!(
            "{SPAN_DIR}/spans-{}-seed{}.json",
            args.workload.name(),
            args.seed
        );
        std::fs::write(&path, tracer.to_json(args.workload.name(), args.seed))?;
        report.note(format!("{} spans written to {path}", tracer.len()));
    } else {
        report.push(
            "peak_rss_mb",
            peak_rss_mb(),
            "host: VmHWM of this process at the end of the workload",
        );
    }
    Ok(())
}

/// Limits glibc's malloc to one arena for the whole process. By default
/// glibc opens up to eight arenas per core as threads come and go, and
/// each keeps the memory its threads freed. The daemon starts threads
/// for every connection and job, so which of them race into a new arena
/// decided `server_mix`'s peak resident set: 42–74 MB across runs of the
/// same code. With one arena it reads the program's own memory, about
/// 29 MB.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    /// glibc's `M_ARENA_MAX` parameter.
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` takes two integers and only sets an allocator
    // parameter; it runs before this process starts any other thread.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn main() -> ExitCode {
    single_malloc_arena();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hmpbench: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::new(args.trace);
    let mut tracer = Tracer::new(Instant::now(), args.trace);
    if let Err(e) = run(&args, &mut report, &mut tracer) {
        eprintln!("hmpbench: {}: {e}", args.workload.name());
        return ExitCode::FAILURE;
    }
    print!("{}", report.render());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn arguments_parse_and_reject_with_context() {
        let a = parse("--workload server_mix --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::ServerMix,
                seed: 7,
                seconds: 12.0,
                trace: true
            }
        );
        assert_eq!(
            parse("--workload figures").unwrap().seed,
            offline::DEFAULT_SEED
        );
        for (line, needle) in [
            ("", "required"),
            ("--workload nope", "unknown workload"),
            ("--workload figures --trace 2", "0 or 1"),
            ("--workload figures --seconds 0", "seconds"),
            ("--workload figures --seed", "needs a value"),
            ("--workload figures --fast 1", "unknown argument"),
        ] {
            let err = parse(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
    }
}
