//! One-call microbenchmark execution.

use crate::{build_programs_for, scenario_lock_kind, MicrobenchParams, Scenario};
use hmp_bus::{ArbitrationPolicy, RecoveryPolicy};
use hmp_cache::ProtocolKind;
use hmp_mem::LatencyModel;
use hmp_platform::{
    presets, Kernel, MemLayout, PlatformSpec, RunResult, Strategy, System, Topology,
};
use hmp_sim::{FaultKind, FaultPlan, TimeSeriesSpec};

/// Which hardware platform to run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlatformPick {
    /// PowerPC755 + ARM920T (PF2) — the paper's measured platform.
    PpcArm,
    /// Intel486 + PowerPC755 (PF3) — the paper's other case study.
    I486Ppc,
    /// Two non-coherent processors behind TAG CAMs (PF1).
    Pf1Dual,
    /// Two generic processors with the given protocols (PF3).
    Pair(ProtocolKind, ProtocolKind),
    /// An N-master homogeneous fabric ([`Topology::uniform`]): `masters`
    /// generic processors speaking `protocol`, split contiguously over
    /// `segments` bridged bus segments.
    Fabric {
        /// Protocol every master speaks.
        protocol: ProtocolKind,
        /// Number of masters (≥ 2 — the workloads need a peer).
        masters: u8,
        /// Number of bus segments (1 = flat bus, no bridge).
        segments: u8,
    },
}

/// A seed-reproducible fault batch, sampled into a concrete
/// [`FaultPlan`] when the platform is prepared (so [`RunSpec`] stays
/// `Copy`). Addresses are drawn from the prepared layout's shared window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultDirective {
    /// Fault class to inject.
    pub kind: FaultKind,
    /// Sampling seed — same seed, same concrete plan.
    pub seed: u64,
    /// Number of faults to sample.
    pub count: u32,
    /// Earliest fire cycle (inclusive).
    pub from: u64,
    /// Latest fire cycle (exclusive).
    pub to: u64,
    /// Shared-window lines addresses are drawn from.
    pub addr_lines: u64,
    /// Class-specific knob (blackout/delay length, armed retry count,
    /// forced SHARED value).
    pub param: u64,
    /// Pin every sampled fault on one bus master instead of spreading
    /// targets pseudo-randomly — used by the bridge chaos cells to aim
    /// at a specific bridge endpoint.
    pub target: Option<u32>,
}

impl FaultDirective {
    /// A directive with a workable mid-run window for `count` faults of
    /// `kind`.
    pub fn new(kind: FaultKind, seed: u64, count: u32) -> Self {
        FaultDirective {
            kind,
            seed,
            count,
            from: 200,
            to: 4_000,
            addr_lines: 8,
            param: 50,
            target: None,
        }
    }

    /// Same directive with every fault pinned on one master.
    #[must_use]
    pub fn aimed_at(mut self, target: u32) -> Self {
        self.target = Some(target);
        self
    }

    /// Samples the concrete plan for a platform with `masters` masters
    /// and its shared window at `addr_base`.
    pub fn sample(&self, masters: u32, addr_base: u64) -> FaultPlan {
        let mut plan = FaultPlan::sample(
            self.seed,
            self.kind,
            self.count,
            self.from,
            self.to,
            masters,
            addr_base,
            self.addr_lines,
            self.param,
        );
        if let Some(target) = self.target {
            plan.retarget(target);
        }
        plan
    }
}

/// Everything one simulation run needs.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// Which microbenchmark.
    pub scenario: Scenario,
    /// Which shared-data strategy.
    pub strategy: Strategy,
    /// Workload knobs.
    pub params: MicrobenchParams,
    /// Hardware platform (default: the paper's PowerPC755 + ARM920T).
    pub platform: PlatformPick,
    /// Burst miss penalty in bus cycles (Table 4 default 13; Figure 8
    /// sweeps 13 → 96).
    pub burst_penalty: u64,
    /// Whether lock variables are cacheable — `true` reproduces the
    /// hardware deadlock of paper Figure 4.
    pub cacheable_locks: bool,
    /// Simulation cycle budget.
    pub max_cycles: u64,
    /// Completed-span ring capacity for the metrics layer (0 = off).
    pub span_capacity: usize,
    /// Enforce line invariants live, failing the run fast on a break.
    pub check_invariants: bool,
    /// How the run loop advances time. [`Kernel::FastForward`] (the
    /// default) skips provably-dead cycles; [`Kernel::Step`] executes
    /// every cycle. Results are byte-identical either way.
    pub kernel: Kernel,
    /// Seed-reproducible fault injection (`None` = fault-free).
    pub faults: Option<FaultDirective>,
    /// Bus arbitration discipline (default round-robin, the paper's ASB).
    pub arbitration: ArbitrationPolicy,
    /// Arbiter retry-escalation / quarantine policy.
    pub recovery: RecoveryPolicy,
    /// Watchdog stall window override in bus cycles (0 keeps the
    /// platform default).
    pub watchdog_window: u64,
    /// Windowed-telemetry registry configuration (`None` = off).
    pub timeseries: Option<TimeSeriesSpec>,
    /// Measure the kernel's wall-time split into the result's profile.
    pub profile: bool,
}

impl RunSpec {
    /// A spec with the paper's defaults for everything but the triple that
    /// identifies a data point.
    pub fn new(scenario: Scenario, strategy: Strategy, params: MicrobenchParams) -> Self {
        RunSpec {
            scenario,
            strategy,
            params,
            platform: PlatformPick::PpcArm,
            burst_penalty: 13,
            cacheable_locks: false,
            max_cycles: 50_000_000,
            span_capacity: 0,
            check_invariants: false,
            kernel: Kernel::FastForward,
            faults: None,
            arbitration: ArbitrationPolicy::RoundRobin,
            recovery: RecoveryPolicy::default(),
            watchdog_window: 0,
            timeseries: None,
            profile: false,
        }
    }

    /// Same spec on a different platform.
    #[must_use]
    pub fn on(mut self, platform: PlatformPick) -> Self {
        self.platform = platform;
        self
    }

    /// Same spec with a different burst miss penalty.
    #[must_use]
    pub fn with_burst_penalty(mut self, cycles: u64) -> Self {
        self.burst_penalty = cycles;
        self
    }

    /// Same spec with the metrics layer keeping `capacity` spans.
    #[must_use]
    pub fn with_spans(mut self, capacity: usize) -> Self {
        self.span_capacity = capacity;
        self
    }

    /// Same spec with live invariant checking on.
    #[must_use]
    pub fn with_invariants(mut self) -> Self {
        self.check_invariants = true;
        self
    }

    /// Same spec under a different simulation kernel.
    #[must_use]
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Same spec with a fault directive armed.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultDirective) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Same spec under a different bus arbitration discipline.
    #[must_use]
    pub fn with_arbitration(mut self, arbitration: ArbitrationPolicy) -> Self {
        self.arbitration = arbitration;
        self
    }

    /// Same spec with a recovery policy armed.
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Same spec with a reduced watchdog window (chaos runs shrink it so
    /// liveness faults report in bounded time).
    #[must_use]
    pub fn with_watchdog_window(mut self, cycles: u64) -> Self {
        self.watchdog_window = cycles;
        self
    }

    /// Same spec with the windowed-telemetry registry armed.
    #[must_use]
    pub fn with_timeseries(mut self, ts: TimeSeriesSpec) -> Self {
        self.timeseries = Some(ts);
        self
    }

    /// Same spec with kernel wall-time self-profiling on.
    #[must_use]
    pub fn with_profile(mut self) -> Self {
        self.profile = true;
        self
    }
}

/// Resolves `spec` into the concrete [`PlatformSpec`] and memory layout
/// that [`prepare`] (and [`Runner::prepare`]) instantiate.
fn platform_spec(spec: &RunSpec) -> (PlatformSpec, MemLayout) {
    let lock_kind = scenario_lock_kind(spec.scenario);
    let (mut pspec, lay) = match spec.platform {
        PlatformPick::PpcArm => presets::ppc_arm(spec.strategy, lock_kind, spec.cacheable_locks),
        PlatformPick::I486Ppc => presets::i486_ppc(spec.strategy, lock_kind),
        PlatformPick::Pf1Dual => presets::pf1_dual(spec.strategy, lock_kind),
        PlatformPick::Pair(a, b) => presets::protocol_pair(a, b, spec.strategy, lock_kind),
        PlatformPick::Fabric {
            protocol,
            masters,
            segments,
        } => Topology::uniform(protocol, masters as usize, segments as usize).spec(
            spec.strategy,
            lock_kind,
            spec.cacheable_locks,
        ),
    };
    pspec.arbitration = spec.arbitration;
    pspec.latency = LatencyModel::scaled_to_burst(spec.burst_penalty);
    pspec.span_capacity = spec.span_capacity;
    pspec.check_invariants = spec.check_invariants;
    pspec.recovery = spec.recovery;
    pspec.timeseries = spec.timeseries;
    pspec.profile = spec.profile;
    if spec.watchdog_window > 0 {
        pspec.watchdog_window = spec.watchdog_window;
    }
    if let Some(directive) = &spec.faults {
        pspec.faults =
            Some(directive.sample(pspec.cpus.len() as u32, u64::from(lay.shared_base.as_u32())));
    }
    (pspec, lay)
}

/// Builds the platform and programs for `spec` without running — useful
/// for tests that want to inspect intermediate state. This is a fresh
/// [`Runner`]'s first [`Runner::prepare`], which always builds.
pub fn prepare(spec: &RunSpec) -> System {
    let mut runner = Runner::new();
    runner.prepare(spec);
    runner
        .sys
        .expect("a fresh runner builds on its first prepare")
}

/// Runs one microbenchmark to completion and returns its result.
///
/// This is the primitive every figure-regeneration binary is built on:
/// the paper's data points are ratios of the `cycles` field between
/// strategies.
pub fn run(spec: &RunSpec) -> RunResult {
    prepare(spec).run(spec.max_cycles)
}

/// Reset-don't-drop run batching: a [`Runner`] keeps one [`System`] alive
/// across calls and rebuilds it in place via [`System::try_reset`]
/// whenever the next spec has the same platform shape, so a sweep over
/// thousands of cells pays the constructor's allocations once per
/// platform instead of once per cell. Results are byte-identical to the
/// one-shot [`run`] path — `kernel_equivalence.rs` pins that.
///
/// # Examples
///
/// ```
/// use hmp_workloads::{MicrobenchParams, Runner, RunSpec, Scenario};
/// use hmp_platform::Strategy;
///
/// let mut runner = Runner::new();
/// let params = MicrobenchParams { outer_iters: 2, ..Default::default() };
/// for strategy in Strategy::ALL {
///     let r = runner.run(&RunSpec::new(Scenario::Worst, strategy, params));
///     assert!(r.is_clean_completion());
/// }
/// assert!(runner.reuses() >= Strategy::ALL.len() as u64 - 1);
/// ```
#[derive(Default)]
pub struct Runner {
    sys: Option<System>,
    reuses: u64,
    rebuilds: u64,
}

impl Runner {
    /// A runner with no platform built yet.
    pub fn new() -> Self {
        Runner::default()
    }

    /// How many runs reused the live platform's allocations.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// How many runs had to construct a platform from scratch (the first
    /// run, and any platform-shape change).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Builds or resets the platform for `spec` and returns it ready to
    /// run — the reuse-path analogue of [`prepare`].
    pub fn prepare(&mut self, spec: &RunSpec) -> &mut System {
        let (pspec, lay) = platform_spec(spec);
        let programs = build_programs_for(
            spec.scenario,
            spec.strategy,
            &spec.params,
            &lay,
            pspec.cpus.len(),
        );
        let refused = match &mut self.sys {
            Some(sys) => sys.try_reset(&pspec, programs).err(),
            None => Some(programs),
        };
        match refused {
            None => self.reuses += 1,
            // Shape changed (or first run): build the platform around the
            // programs handed back. Rare by design; the steady state is
            // the reuse arm. The old platform goes first, so a rebuild
            // never holds two and the new one reuses the freed memory.
            Some(programs) => {
                self.sys = None;
                self.sys = Some(System::new(&pspec, programs));
                self.rebuilds += 1;
            }
        }
        let sys = self.sys.as_mut().expect("platform just built or reset");
        sys.set_snoop_logic_enabled(spec.strategy == Strategy::Proposed);
        sys.set_kernel(spec.kernel);
        sys
    }

    /// Runs one microbenchmark on the reused platform and returns its
    /// result — the reuse-path analogue of [`run`].
    pub fn run(&mut self, spec: &RunSpec) -> RunResult {
        let max_cycles = spec.max_cycles;
        self.prepare(spec).run(max_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MicrobenchParams {
        MicrobenchParams {
            lines_per_iter: 2,
            exec_time: 1,
            outer_iters: 2,
            seed: 3,
            ..Default::default()
        }
    }

    #[test]
    fn runner_reuse_is_byte_identical_to_one_shot() {
        let mut runner = Runner::new();
        for scenario in [Scenario::Worst, Scenario::Best] {
            for strategy in Strategy::ALL {
                let spec = RunSpec::new(scenario, strategy, small());
                let one_shot = run(&spec);
                let reused = runner.run(&spec);
                assert_eq!(one_shot, reused, "{scenario}/{strategy}");
            }
        }
        // Within a scenario every strategy flip reuses the live platform
        // (the map attribute change is not a shape change); the scenario
        // switch changes the lock layout and forces one rebuild.
        assert_eq!(runner.rebuilds(), 2);
        assert_eq!(runner.reuses(), 2 * (Strategy::ALL.len() as u64) - 2);
    }

    #[test]
    fn reuse_after_a_page_heavy_cell_is_byte_identical() {
        // TCS over 32 lines writes memory the small cell after it never
        // touches; the reset must leave none of it behind.
        let heavy = MicrobenchParams {
            lines_per_iter: 32,
            ..small()
        };
        let mut runner = Runner::new();
        runner.run(
            &RunSpec::new(Scenario::Typical, Strategy::Proposed, heavy).on(PlatformPick::I486Ppc),
        );
        let spec = RunSpec::new(Scenario::Typical, Strategy::SoftwareDrain, small())
            .on(PlatformPick::I486Ppc);
        let fresh = prepare(&spec);
        let reused = runner.prepare(&spec);
        assert!(reused.checker().is_some(), "the coherence checker is on");
        // `assert!`, not `assert_eq!`: a failure would print both images.
        assert!(
            reused.memory() == fresh.memory(),
            "reset memory reads as fresh"
        );
        assert_eq!(runner.run(&spec), run(&spec));
        assert_eq!(runner.rebuilds(), 1, "every cell after the first reused");
    }

    #[test]
    fn wcs_all_strategies_complete_cleanly() {
        for strategy in Strategy::ALL {
            let r = run(&RunSpec::new(Scenario::Worst, strategy, small()));
            assert!(r.is_clean_completion(), "{strategy}: {r}");
        }
    }

    #[test]
    fn bcs_all_strategies_complete_cleanly() {
        for strategy in Strategy::ALL {
            let r = run(&RunSpec::new(Scenario::Best, strategy, small()));
            assert!(r.is_clean_completion(), "{strategy}: {r}");
        }
    }

    #[test]
    fn tcs_all_strategies_complete_cleanly() {
        for strategy in Strategy::ALL {
            let r = run(&RunSpec::new(Scenario::Typical, strategy, small()));
            assert!(r.is_clean_completion(), "{strategy}: {r}");
        }
    }

    #[test]
    fn proposed_beats_cache_disabled_in_wcs() {
        let mut p = small();
        p.lines_per_iter = 8;
        p.exec_time = 4;
        p.outer_iters = 4;
        let disabled = run(&RunSpec::new(Scenario::Worst, Strategy::CacheDisabled, p));
        let proposed = run(&RunSpec::new(Scenario::Worst, Strategy::Proposed, p));
        assert!(
            proposed.cycles_u64() < disabled.cycles_u64(),
            "proposed {} vs disabled {}",
            proposed.cycles_u64(),
            disabled.cycles_u64()
        );
    }

    #[test]
    fn proposed_beats_software_in_bcs() {
        let mut p = small();
        p.lines_per_iter = 16;
        p.outer_iters = 4;
        let software = run(&RunSpec::new(Scenario::Best, Strategy::SoftwareDrain, p));
        let proposed = run(&RunSpec::new(Scenario::Best, Strategy::Proposed, p));
        assert!(
            proposed.cycles_u64() < software.cycles_u64(),
            "proposed {} vs software {}",
            proposed.cycles_u64(),
            software.cycles_u64()
        );
    }

    #[test]
    fn i486_platform_runs_wcs() {
        let r =
            run(&RunSpec::new(Scenario::Worst, Strategy::Proposed, small())
                .on(PlatformPick::I486Ppc));
        assert!(r.is_clean_completion(), "{r}");
    }

    #[test]
    fn pf1_platform_runs_wcs() {
        let r =
            run(&RunSpec::new(Scenario::Worst, Strategy::Proposed, small())
                .on(PlatformPick::Pf1Dual));
        assert!(r.is_clean_completion(), "{r}");
    }

    #[test]
    fn generic_pairs_run_wcs() {
        use ProtocolKind::*;
        for (a, b) in [(Mei, Mesi), (Msi, Moesi), (Mesi, Moesi), (Moesi, Moesi)] {
            let r = run(&RunSpec::new(Scenario::Worst, Strategy::Proposed, small())
                .on(PlatformPick::Pair(a, b)));
            assert!(r.is_clean_completion(), "{a}+{b}: {r}");
        }
    }

    #[test]
    fn fabric_platforms_run_wcs() {
        for (masters, segments) in [(3u8, 1u8), (4, 2), (6, 2)] {
            let r = run(
                &RunSpec::new(Scenario::Worst, Strategy::Proposed, small()).on(
                    PlatformPick::Fabric {
                        protocol: ProtocolKind::Mesi,
                        masters,
                        segments,
                    },
                ),
            );
            assert!(r.is_clean_completion(), "{masters}x{segments}: {r}");
        }
    }

    #[test]
    fn fabric_kernels_agree_under_every_arbitration() {
        let pick = PlatformPick::Fabric {
            protocol: ProtocolKind::Mesi,
            masters: 4,
            segments: 2,
        };
        for arb in [
            ArbitrationPolicy::RoundRobin,
            ArbitrationPolicy::FixedPriority,
            ArbitrationPolicy::Fcfs,
        ] {
            let mut spec = RunSpec::new(Scenario::Worst, Strategy::Proposed, small())
                .on(pick)
                .with_arbitration(arb);
            if arb == ArbitrationPolicy::FixedPriority {
                // Fixed priority starves the low-priority masters out of
                // the turn lock entirely — the run never completes, which
                // is itself the behaviour the fairness sweep measures.
                // Cap it and compare the truncated trajectories.
                spec.max_cycles = 100_000;
            }
            let step = run(&spec.with_kernel(Kernel::Step));
            let ff = run(&spec.with_kernel(Kernel::FastForward));
            if arb != ArbitrationPolicy::FixedPriority {
                assert!(step.is_clean_completion(), "{arb:?}: {step}");
            }
            assert_eq!(step, ff, "{arb:?}: kernels diverged");
        }
    }

    #[test]
    fn bridge_latency_costs_cycles() {
        let base = RunSpec::new(Scenario::Worst, Strategy::Proposed, small());
        let flat = run(&base.on(PlatformPick::Fabric {
            protocol: ProtocolKind::Mesi,
            masters: 4,
            segments: 1,
        }));
        let bridged = run(&base.on(PlatformPick::Fabric {
            protocol: ProtocolKind::Mesi,
            masters: 4,
            segments: 2,
        }));
        assert!(
            bridged.cycles_u64() > flat.cycles_u64(),
            "bridge crossings should cost data cycles: flat {} vs bridged {}",
            flat.cycles_u64(),
            bridged.cycles_u64()
        );
    }

    #[test]
    fn burst_penalty_slows_execution() {
        let fast = run(&RunSpec::new(Scenario::Worst, Strategy::Proposed, small()));
        let slow =
            run(&RunSpec::new(Scenario::Worst, Strategy::Proposed, small()).with_burst_penalty(96));
        assert!(slow.cycles_u64() > fast.cycles_u64());
    }
}
