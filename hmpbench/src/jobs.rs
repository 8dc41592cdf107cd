//! The seeded job stream of the `server_mix` workload.
//!
//! Each draw either repeats one of the last [`REPEAT_WINDOW`] fresh jobs
//! byte for byte (probability [`REPEAT`]) or is fresh: a spec no earlier
//! job used, so it misses the server's cache. The first job is always the Figure 6 reference sweep,
//! so the accuracy check can read it from served bytes. Fresh jobs draw
//! their platform, scenario, line count and exec_time from a shuffled
//! deck of every combination, alternate between sweeps and runs, and
//! runs cycle the strategies: the seed then changes the order and the
//! TCS block picks of the work, not its overall mix.

use hmp_bench::figure_params;
use hmp_bus::ArbitrationPolicy;
use hmp_cache::ProtocolKind;
use hmp_platform::Strategy;
use hmp_server::spec_digest;
use hmp_sim::SplitMix64;
use hmp_workloads::{spec_to_json, MicrobenchParams, PlatformPick, RunSpec, Scenario};
use std::collections::{HashSet, VecDeque};

/// Chance that a draw repeats an earlier job, as numerator / denominator.
///
/// The value follows the repository's own server load test:
/// `hmp-server-bench` replays a grid cold and then warm, so half of the
/// jobs it sends are repeats, and its second pass must reach a hit ratio
/// of at least 0.5. No recorded production traffic backs this mix.
pub const REPEAT: (u64, u64) = (1, 2);

/// Repeats pick among this many most recent fresh jobs. Their cells fit
/// the daemon's default 1024-entry memory cache, so a repeat hits however
/// long the run lasts.
pub const REPEAT_WINDOW: usize = 256;

/// Platforms fresh jobs run on. The fabric runs FCFS arbitration.
pub const PLATFORMS: [PlatformPick; 5] = [
    PlatformPick::PpcArm,
    PlatformPick::I486Ppc,
    PlatformPick::Pf1Dual,
    PlatformPick::Pair(ProtocolKind::Mesi, ProtocolKind::Moesi),
    PlatformPick::Fabric {
        protocol: ProtocolKind::Mesi,
        masters: 4,
        segments: 1,
    },
];

/// One request of the stream.
#[derive(Debug, Clone)]
pub struct Job {
    /// Position in the stream.
    pub id: usize,
    /// The cells the job asks for, in order.
    pub specs: Vec<RunSpec>,
    /// The request line, without its newline.
    pub request: String,
    /// The earlier job this one repeats, if it is a repeat.
    pub repeat_of: Option<usize>,
}

/// A deterministic, endless job stream.
pub struct JobStream {
    rng: SplitMix64,
    issued: usize,
    fresh_count: usize,
    recent: VecDeque<Job>,
    seen: HashSet<u64>,
    /// Shuffled (platform, scenario, lines, exec_time) points still to draw.
    deck: Vec<(usize, usize, u32, u32)>,
}

impl JobStream {
    /// The stream of workload seed `seed`.
    pub fn new(seed: u64) -> Self {
        JobStream {
            rng: SplitMix64::new(seed ^ 0x6a6f_6273_7472_6561),
            issued: 0,
            fresh_count: 0,
            recent: VecDeque::new(),
            seen: HashSet::new(),
            deck: Vec::new(),
        }
    }

    /// Draws the next job.
    pub fn next_job(&mut self) -> Job {
        let id = self.issued;
        self.issued += 1;
        if self.fresh_count > 0 && self.rng.gen_bool_ratio(REPEAT.0, REPEAT.1) {
            let earlier = &self.recent[self.rng.gen_range(self.recent.len() as u64) as usize];
            return Job {
                id,
                repeat_of: Some(earlier.id),
                ..earlier.clone()
            };
        }
        let specs = if self.fresh_count == 0 {
            reference_specs()
        } else {
            self.fresh_specs()
        };
        self.seen.extend(specs.iter().map(spec_digest));
        let request = match specs.as_slice() {
            [one] => format!(r#"{{"op":"run","spec":{}}}"#, spec_to_json(one)),
            many => sweep_request(many),
        };
        let job = Job {
            id,
            specs,
            request,
            repeat_of: None,
        };
        self.fresh_count += 1;
        if self.recent.len() == REPEAT_WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(job.clone());
        job
    }

    fn fresh_specs(&mut self) -> Vec<RunSpec> {
        if self.deck.is_empty() {
            for platform in 0..PLATFORMS.len() {
                for scenario in 0..Scenario::ALL.len() {
                    for exec in MicrobenchParams::EXEC_SWEEP {
                        for lines in MicrobenchParams::LINE_SWEEP {
                            self.deck.push((platform, scenario, lines, exec));
                        }
                    }
                }
            }
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.gen_range(i as u64 + 1) as usize;
                self.deck.swap(i, j);
            }
        }
        let (platform, scenario, lines, exec) = self.deck.pop().expect("deck just refilled");
        let platform = PLATFORMS[platform];
        // Fresh jobs alternate sweep and run; runs cycle the strategies.
        let k = self.fresh_count;
        let run_strategy = (k % 2 == 1).then(|| Strategy::ALL[(k / 2) % Strategy::ALL.len()]);
        loop {
            let mut params = figure_params(lines, exec);
            params.seed = u64::from(self.rng.next_u32());
            let mut base =
                RunSpec::new(Scenario::ALL[scenario], Strategy::Proposed, params).on(platform);
            if matches!(platform, PlatformPick::Fabric { .. }) {
                base = base.with_arbitration(ArbitrationPolicy::Fcfs);
            }
            let specs: Vec<RunSpec> = match run_strategy {
                Some(strategy) => vec![RunSpec { strategy, ..base }],
                None => Strategy::ALL
                    .iter()
                    .map(|&strategy| RunSpec { strategy, ..base })
                    .collect(),
            };
            if specs.iter().all(|s| !self.seen.contains(&spec_digest(s))) {
                return specs;
            }
        }
    }
}

/// The Figure 6 reference point — BCS, 32 lines, exec_time 1 on PF2 —
/// as a sweep of the three strategies.
pub fn reference_specs() -> Vec<RunSpec> {
    let params = figure_params(32, 1);
    Strategy::ALL
        .iter()
        .map(|&s| RunSpec::new(Scenario::Best, s, params))
        .collect()
}

/// A `sweep` request line for `specs`.
pub fn sweep_request(specs: &[RunSpec]) -> String {
    let mut out = String::from(r#"{"op":"sweep","specs":["#);
    for (i, spec) in specs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&spec_to_json(spec));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw(seed: u64, n: usize) -> Vec<Job> {
        let mut stream = JobStream::new(seed);
        (0..n).map(|_| stream.next_job()).collect()
    }

    fn requests(jobs: &[Job]) -> Vec<&str> {
        jobs.iter().map(|j| j.request.as_str()).collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_jobs() {
        let a = draw(7, 300);
        assert_eq!(requests(&a), requests(&draw(7, 300)));
        assert_ne!(requests(&a), requests(&draw(8, 300)));
        let first: Vec<String> = a[0].specs.iter().map(spec_to_json).collect();
        let reference: Vec<String> = reference_specs().iter().map(spec_to_json).collect();
        assert_eq!(
            first, reference,
            "every stream opens with the reference sweep"
        );
    }

    #[test]
    fn the_stated_repeat_probability_holds_and_fresh_jobs_are_fresh() {
        let jobs = draw(3, 4000);
        let repeats = jobs.iter().filter(|j| j.repeat_of.is_some()).count();
        let share = repeats as f64 / (jobs.len() - 1) as f64;
        let stated = REPEAT.0 as f64 / REPEAT.1 as f64;
        assert!((share - stated).abs() < 0.03, "repeat share {share}");

        let mut seen = HashSet::new();
        let mut platforms = HashSet::new();
        for job in &jobs {
            match job.repeat_of {
                Some(earlier) => {
                    let fresh_since = jobs[earlier..job.id]
                        .iter()
                        .filter(|j| j.repeat_of.is_none())
                        .count();
                    assert!(
                        fresh_since <= REPEAT_WINDOW,
                        "job {} repeats too far back",
                        job.id
                    );
                    assert_eq!(job.request, jobs[earlier].request);
                }
                None => {
                    for spec in &job.specs {
                        assert!(
                            seen.insert(spec_digest(spec)),
                            "job {} is not fresh",
                            job.id
                        );
                        platforms.insert(format!("{:?}", spec.platform));
                    }
                }
            }
        }
        assert_eq!(platforms.len(), PLATFORMS.len());
        for job in jobs.iter().take(50) {
            assert!(
                hmp_server::parse_request(&job.request).is_ok(),
                "{}",
                job.request
            );
        }
    }
}
