//! Step vs fast-forward kernel equivalence.
//!
//! The fast-forward kernel may only skip cycles on which provably nothing
//! happens; every grant, snoop, retry, countdown expiry, interrupt
//! delivery and watchdog poll must land on exactly the cycle the
//! per-cycle step kernel would produce. These tests pin that property at
//! the strongest available granularity: the **entire** [`RunResult`] —
//! outcome, cycle count, bus stats, per-CPU counters, platform counters,
//! metrics histograms and span-derived reports — must compare equal
//! between the two kernels, across every preset scenario, strategy and
//! platform pairing, including the pathological runs (the Figure 4
//! hardware deadlock and the seeded Table 2 invariant violation).

use hmp_bus::ArbitrationPolicy;
use hmp_cache::ProtocolKind;
use hmp_cpu::{LockKind, LockLayout, ProgramBuilder};
use hmp_platform::{
    layout, presets, CpuSpec, Kernel, PlatformSpec, RunOutcome, RunResult, Strategy, System,
    Topology, TopologyMaster, WrapperMode,
};
use hmp_sim::export::timeseries_json;
use hmp_sim::{FaultKind, TimeSeriesSpec};
use hmp_workloads::{
    build_programs_for, run, scenario_lock_kind, MicrobenchParams, PlatformPick, RunSpec, Scenario,
};

fn params() -> MicrobenchParams {
    MicrobenchParams {
        lines_per_iter: 8,
        exec_time: 2,
        outer_iters: 3,
        seed: 7,
        ..Default::default()
    }
}

/// Runs `spec` under both kernels and asserts the full results agree,
/// returning the (shared) result for additional outcome assertions.
fn kernels_agree(spec: RunSpec, label: &str) -> RunResult {
    let step = run(&spec.with_kernel(Kernel::Step));
    let fast = run(&spec.with_kernel(Kernel::FastForward));
    assert_eq!(step, fast, "kernel divergence on {label}");
    step
}

#[test]
fn every_preset_and_strategy_agrees() {
    for scenario in [Scenario::Worst, Scenario::Typical, Scenario::Best] {
        for strategy in Strategy::ALL {
            // Metrics + invariants on, so the comparison covers the
            // MetricsSnapshot histograms and the invariant observer too.
            let spec = RunSpec::new(scenario, strategy, params())
                .with_spans(256)
                .with_invariants();
            let r = kernels_agree(spec, &format!("{scenario:?}/{strategy}"));
            assert!(r.is_clean_completion(), "{scenario:?}/{strategy}: {r}");
            assert!(r.metrics.is_some(), "metrics snapshot compared");
        }
    }
}

#[test]
fn every_platform_class_agrees() {
    let picks = [
        ("ppc_arm", PlatformPick::PpcArm),
        ("i486_ppc", PlatformPick::I486Ppc),
        ("pf1_dual", PlatformPick::Pf1Dual),
        (
            "mesi_moesi",
            PlatformPick::Pair(ProtocolKind::Mesi, ProtocolKind::Moesi),
        ),
    ];
    for (name, pick) in picks {
        let spec = RunSpec::new(Scenario::Worst, Strategy::Proposed, params())
            .on(pick)
            .with_spans(256);
        let r = kernels_agree(spec, name);
        assert!(r.is_clean_completion(), "{name}: {r}");
    }
}

#[test]
fn five_protocol_pairings_agree() {
    use ProtocolKind::{Mei, Mesi, Moesi, Msi};
    for (a, b) in [
        (Mei, Mesi),
        (Msi, Mesi),
        (Msi, Moesi),
        (Mesi, Moesi),
        (Moesi, Moesi),
    ] {
        let spec = RunSpec::new(Scenario::Worst, Strategy::Proposed, params())
            .on(PlatformPick::Pair(a, b))
            .with_spans(256)
            .with_invariants();
        let r = kernels_agree(spec, &format!("{a}+{b}"));
        assert!(r.is_clean_completion(), "{a}+{b}: {r}");
    }
}

/// Runs a hand-built topology's WCS workload under one kernel and
/// returns the full result plus the per-master grant counts.
fn run_topology(
    topo: &Topology,
    arbitration: ArbitrationPolicy,
    kernel: Kernel,
) -> (RunResult, Vec<u64>) {
    let lock_kind = scenario_lock_kind(Scenario::Worst);
    let (mut pspec, lay) = topo.spec(Strategy::Proposed, lock_kind, false);
    pspec.arbitration = arbitration;
    pspec.span_capacity = 256;
    pspec.check_invariants = true;
    // Windowed telemetry takes part in the compared result, so the
    // fast-forward kernel's bulk warp recording is pinned to the step
    // kernel's per-cycle recording, window for window.
    pspec.timeseries = Some(hmp_sim::TimeSeriesSpec {
        window: 256,
        capacity: 8,
    });
    let programs = build_programs_for(
        Scenario::Worst,
        Strategy::Proposed,
        &params(),
        &lay,
        pspec.cpus.len(),
    );
    let mut sys = presets::instantiate(&pspec, Strategy::Proposed, programs);
    sys.set_kernel(kernel);
    let result = sys.run(2_000_000);
    (result, sys.master_grants().to_vec())
}

/// Both kernels over a topology: full results and grant counts must
/// match; returns the shared result.
fn topology_kernels_agree(
    topo: &Topology,
    arbitration: ArbitrationPolicy,
    label: &str,
) -> RunResult {
    let (step, step_grants) = run_topology(topo, arbitration, Kernel::Step);
    let (fast, fast_grants) = run_topology(topo, arbitration, Kernel::FastForward);
    assert_eq!(step, fast, "kernel divergence on {label}");
    assert_eq!(step_grants, fast_grants, "grant divergence on {label}");
    step
}

#[test]
fn three_master_mixed_clock_topology_agrees() {
    // Three coherent masters with different protocols *and* different
    // core:bus clock ratios on a flat bus — the multi-rate event horizon
    // must line up exactly between kernels.
    let mut topo = Topology::single_segment(vec![
        CpuSpec::generic("fast-mesi", ProtocolKind::Mesi),
        CpuSpec::generic("bus-moesi", ProtocolKind::Moesi),
        CpuSpec::generic("turbo-msi", ProtocolKind::Msi),
    ]);
    topo.masters[0].cpu.clock_mult = 2;
    topo.masters[2].cpu.clock_mult = 3;
    let r = topology_kernels_agree(&topo, ArbitrationPolicy::RoundRobin, "3-master mixed-clock");
    assert!(r.is_clean_completion(), "{r}");
    assert!(r.metrics.is_some(), "metrics snapshot compared");
}

#[test]
fn four_master_bridged_fcfs_topology_agrees() {
    // Four masters over two bridged segments under FCFS arbitration, with
    // mixed protocols and clock ratios: bridge data-phase penalties and
    // request timestamps are both kernel-neutral.
    let mut topo = Topology {
        masters: vec![
            TopologyMaster::new(CpuSpec::generic("m0-moesi", ProtocolKind::Moesi)),
            TopologyMaster::new(CpuSpec::generic("m1-mesi", ProtocolKind::Mesi)),
            TopologyMaster::new(CpuSpec::generic("m2-mesi", ProtocolKind::Mesi)).on_segment(1),
            TopologyMaster::new(CpuSpec::generic("m3-msi", ProtocolKind::Msi)).on_segment(1),
        ],
        segments: 2,
        bridge_latency: Topology::DEFAULT_BRIDGE_LATENCY,
    };
    topo.masters[1].cpu.clock_mult = 2;
    topo.masters[3].cpu.clock_mult = 3;
    let r = topology_kernels_agree(&topo, ArbitrationPolicy::Fcfs, "4-master bridged FCFS");
    assert!(r.is_clean_completion(), "{r}");
}

#[test]
fn n_master_fabrics_agree_across_the_planner_size_threshold() {
    // Fabrics wider than every preset — 6, 9 and 12 masters — pin that
    // equivalence does not depend on the node count the planner scans.
    // Grant counts and the windowed telemetry series are compared
    // alongside the full result.
    for (masters, segments, arbitration) in [
        (6, 2, ArbitrationPolicy::RoundRobin),
        (9, 3, ArbitrationPolicy::Fcfs),
        (12, 2, ArbitrationPolicy::Fcfs),
    ] {
        let topo = Topology::uniform(ProtocolKind::Mesi, masters, segments);
        let label = format!("{masters}-master/{segments}-segment fabric");
        let r = topology_kernels_agree(&topo, arbitration, &label);
        assert!(r.is_clean_completion(), "{label}: {r}");
        let ts = r.timeseries.as_ref().expect("telemetry registry armed");
        assert!(ts.samples() > 1, "{label}: run spans several windows");
        assert_eq!(
            ts.total(&ts.busy),
            r.bus.grants + r.bus.data_cycles,
            "{label}: busy series reconciles with bus stats"
        );
    }
}

/// Runs a prepared spec under one kernel, returning the full result plus
/// the per-master grant counts (which [`RunResult`] does not carry).
fn run_with_grants(spec: &RunSpec, kernel: Kernel) -> (RunResult, Vec<u64>) {
    let mut sys = hmp_workloads::prepare(&spec.with_kernel(kernel));
    let result = sys.run(spec.max_cycles);
    (result, sys.master_grants().to_vec())
}

#[test]
fn protocol_breaking_chaos_on_a_bridged_fabric_agrees() {
    // The three protocol-breaking fault classes — a desynchronized TAG
    // CAM, a suppressed SHARED response and a corrupted line state — all
    // mutate coherence metadata mid-run. On a bridged 4-master fabric
    // with telemetry armed, the injected runs must stay byte-identical
    // between kernels: same grants per master, same windowed series, same
    // (usually incoherent) outcome at the same cycle.
    use hmp_sim::FaultKind;
    let fabric = PlatformPick::Fabric {
        protocol: ProtocolKind::Mesi,
        masters: 4,
        segments: 2,
    };
    for kind in [
        FaultKind::CamDesync,
        FaultKind::SharedCorrupt,
        FaultKind::LineStateCorrupt,
    ] {
        assert!(kind.protocol_breaking(), "{kind} must break the protocol");
        let spec = hmp_bench::chaos::chaos_spec(kind, fabric, Strategy::Proposed)
            .with_spans(256)
            .with_timeseries(hmp_sim::TimeSeriesSpec {
                window: 256,
                capacity: 8,
            });
        let (step, step_grants) = run_with_grants(&spec, Kernel::Step);
        let (fast, fast_grants) = run_with_grants(&spec, Kernel::FastForward);
        assert_eq!(step, fast, "kernel divergence on {kind} fabric chaos");
        assert_eq!(step_grants, fast_grants, "grant divergence on {kind}");
        assert!(step.faults_injected >= 1, "{kind}: no fault fired");
        let ts = step.timeseries.as_ref().expect("telemetry registry armed");
        assert_eq!(
            Some(ts),
            fast.timeseries.as_ref(),
            "windowed series must be kernel-neutral under {kind}"
        );
    }
}

#[test]
fn runner_reuse_preserves_equivalence_on_a_fabric() {
    // The reset-don't-drop Runner feeds the sweeps; a reused platform
    // must produce the same kernels-agree results as fresh construction,
    // including across a kernel flip on the same reused machine.
    let fabric = PlatformPick::Fabric {
        protocol: ProtocolKind::Mesi,
        masters: 4,
        segments: 2,
    };
    let spec = RunSpec::new(Scenario::Worst, Strategy::Proposed, params())
        .on(fabric)
        .with_spans(256);
    let mut runner = hmp_workloads::Runner::new();
    let step_fresh = run(&spec.with_kernel(Kernel::Step));
    let step_reused = runner.run(&spec.with_kernel(Kernel::Step));
    let fast_reused = runner.run(&spec.with_kernel(Kernel::FastForward));
    assert_eq!(step_fresh, step_reused, "reuse changed the step result");
    assert_eq!(
        step_reused, fast_reused,
        "kernel divergence on the reused fabric"
    );
    assert!(
        runner.reuses() >= 1,
        "the second run must have reset, not rebuilt"
    );
}

#[test]
fn figure4_deadlock_stalls_at_the_same_cycle() {
    // Cacheable lock variables on the PF2 platform reproduce the paper's
    // Figure 4 hardware deadlock; the watchdog must trip at the identical
    // cycle under both kernels, with identical hang reports.
    let mut spec = RunSpec::new(Scenario::Worst, Strategy::Proposed, params()).with_spans(256);
    spec.cacheable_locks = true;
    spec.max_cycles = 400_000;
    let r = kernels_agree(spec, "figure-4 deadlock");
    assert_eq!(
        r.outcome,
        RunOutcome::Stalled,
        "cacheable locks must reproduce the hardware deadlock: {r}"
    );
    let hang = r.hang.expect("stalled runs carry a hang report");
    assert!(
        !hang.open_spans.is_empty(),
        "the wedged transactions are visible in the hang report"
    );
}

#[test]
fn seeded_table2_invariant_violation_agrees() {
    // Transparent wrappers on a MEI+MESI pairing break coherence (the
    // paper's Table 2 stale read); with live invariant checking the run
    // dies fast — at the same cycle, with the same latched violation,
    // under both kernels.
    let build = |kernel: Kernel| {
        let (lay, map) = layout(2, Strategy::Proposed, LockKind::Turn, false);
        let lock = LockLayout::new(LockKind::Turn, lay.lock_base, 2);
        let mut spec = PlatformSpec::new(
            vec![
                CpuSpec::generic("mesi", ProtocolKind::Mesi),
                CpuSpec::generic("mei", ProtocolKind::Mei),
            ],
            map,
            lock,
        );
        spec.wrapper_mode = WrapperMode::Transparent;
        spec.check_invariants = true;
        spec.span_capacity = 64;
        let a = lay.shared_base;
        let p0 = ProgramBuilder::new().read(a).delay(200).read(a).build();
        let p1 = ProgramBuilder::new().delay(60).read(a).write(a, 77).build();
        let mut sys = System::new(&spec, vec![p0, p1]);
        sys.set_kernel(kernel);
        sys
    };
    let step = build(Kernel::Step).run(10_000);
    let fast = build(Kernel::FastForward).run(10_000);
    assert_eq!(step, fast, "kernel divergence on the Table 2 run");
    assert_eq!(step.outcome, RunOutcome::InvariantViolation, "{step}");
    assert!(step.invariant.is_some());
}

#[test]
fn faulted_runs_agree_for_every_fault_class() {
    // Faults are kernel events, not wall-cycle side effects: a fault plan
    // caps the fast-forward horizon at every fire cycle, so an injected
    // run must stay byte-identical between kernels for every class —
    // including the ones that end degraded, stalled or incoherent.
    use hmp_sim::FaultKind;
    for kind in FaultKind::ALL {
        let spec = hmp_bench::chaos::chaos_spec(kind, PlatformPick::PpcArm, Strategy::Proposed);
        let r = kernels_agree(spec, kind.key());
        assert!(r.faults_injected >= 1, "{}: no fault fired", kind.key());
    }
}

#[test]
fn degraded_recovery_run_agrees_with_metrics_armed() {
    // A wedged master under the recovery policy: quarantine, watchdog
    // rebaseline and the Degraded outcome must land on identical cycles,
    // and the span/histogram snapshots must compare equal too.
    use hmp_sim::FaultKind;
    let spec = hmp_bench::chaos::chaos_spec(
        FaultKind::WedgedMaster,
        PlatformPick::PpcArm,
        Strategy::Proposed,
    )
    .with_spans(256);
    let r = kernels_agree(spec, "wedged master recovery");
    assert!(
        matches!(r.outcome, RunOutcome::Degraded { quarantined, .. } if quarantined >= 1),
        "{r}"
    );
    assert!(!r.is_clean_completion());
    assert!(r.metrics.is_some(), "metrics snapshot compared");
}

#[test]
fn fault_free_chaos_spec_matches_plain_spec() {
    // Arming a recovery policy whose escalation stages never engage must
    // not perturb a healthy run: zero behavioral tax until a fault
    // actually pushes a master over a threshold.
    let plain = RunSpec::new(Scenario::Worst, Strategy::Proposed, params());
    let armed = plain.with_recovery(hmp_bus::RecoveryPolicy {
        retry_budget: 1_000_000,
        escalation_backoff: 64,
        quarantine_after: 1_000_000,
    });
    let a = kernels_agree(plain, "plain WCS");
    let b = kernels_agree(armed, "recovery-armed WCS");
    assert_eq!(a, b, "an unescalated recovery policy must be free");
}

#[test]
fn telemetry_armed_runs_agree_and_the_mix_is_excluded() {
    // The deterministic windowed series take part in result equality;
    // the kernel self-profile (wall times and the warp/cpu-only/full
    // mix) is kernel-dependent by construction and must not.
    let spec = RunSpec::new(Scenario::Worst, Strategy::Proposed, params())
        .with_spans(256)
        .with_timeseries(hmp_sim::TimeSeriesSpec {
            window: 256,
            capacity: 8,
        })
        .with_profile();
    let step = run(&spec.with_kernel(Kernel::Step));
    let fast = run(&spec.with_kernel(Kernel::FastForward));
    assert_eq!(step, fast, "telemetry-armed kernel divergence");

    let s = step.timeseries.as_ref().expect("registry armed");
    let f = fast.timeseries.as_ref().expect("registry armed");
    assert_eq!(s, f, "windowed series must be kernel-neutral");
    assert!(s.samples() > 1, "the run spans several windows");
    assert_eq!(
        s.total(&s.busy),
        step.bus.grants + step.bus.data_cycles,
        "busy series reconciles with bus stats"
    );

    let sp = step.profile.as_ref().expect("profiling armed");
    let fp = fast.profile.as_ref().expect("profiling armed");
    assert_eq!(sp.kernel, Kernel::Step);
    assert_eq!(fp.kernel, Kernel::FastForward);
    assert!(fp.warped_cycles > 0, "WCS has warpable gaps: {fp:?}");

    // The mixes differ by construction — which is exactly why they live
    // outside the compared snapshot.
    let smix = sp.mix.as_ref().expect("mix rides with the registry");
    let fmix = fp.mix.as_ref().expect("mix rides with the registry");
    let total = |xs: &[u64]| xs.iter().sum::<u64>();
    assert_eq!(total(&smix.warped), 0, "the step kernel never warps");
    assert_eq!(total(&smix.full), step.cycles_u64());
    assert_eq!(total(&fmix.warped), fp.warped_cycles);
    assert_eq!(
        total(&fmix.warped) + total(&fmix.cpu_only) + total(&fmix.full),
        fast.cycles_u64(),
        "every advanced cycle lands in exactly one mix bucket"
    );
}

#[test]
fn cycle_limit_runs_agree() {
    // A budget that expires mid-flight: the fast-forward kernel must not
    // warp past the limit, and the truncated results must still match.
    let mut spec = RunSpec::new(Scenario::Worst, Strategy::Proposed, params()).with_spans(64);
    spec.max_cycles = 1_000;
    let r = kernels_agree(spec, "cycle-limit truncation");
    assert_eq!(r.outcome, RunOutcome::CycleLimit);
    assert_eq!(r.cycles_u64(), 1_000);
}

/// Telemetry for the CPU-local window cases: narrow windows, so the
/// series record the kernel's bulk warps at fine grain.
const WINDOW_SERIES: TimeSeriesSpec = TimeSeriesSpec {
    window: 64,
    capacity: 16,
};

/// Asserts a step and a fast-forward result of one run agree: the whole
/// [`RunResult`], and the telemetry snapshot byte for byte. The
/// fast-forward profile must show at least one CPU-local window that
/// spanned two or more event cycles, or the case tests nothing.
fn windows_agree(step: &RunResult, fast: &RunResult, label: &str) {
    assert_eq!(step, fast, "kernel divergence on {label}");
    assert_eq!(
        series_bytes(step),
        series_bytes(fast),
        "telemetry bytes diverge on {label}"
    );
    let p = fast.profile.as_ref().expect("profile armed");
    assert!(
        p.full_steps + p.cpu_only_steps > p.iterations,
        "{label}: no CPU-local window ran two event cycles: {p:?}"
    );
}

/// The run's telemetry snapshot as exported JSON.
fn series_bytes(r: &RunResult) -> String {
    timeseries_json(r.timeseries.as_ref().expect("telemetry armed"), None)
}

/// [`windows_agree`] over a workload spec, with telemetry and the
/// profile armed.
fn spec_windows_agree(spec: RunSpec, label: &str) -> RunResult {
    let spec = spec.with_timeseries(WINDOW_SERIES).with_profile();
    let step = run(&spec.with_kernel(Kernel::Step));
    let fast = run(&spec.with_kernel(Kernel::FastForward));
    windows_agree(&step, &fast, label);
    step
}

#[test]
fn table2_stale_reads_inside_a_window_agree() {
    // The Table 2 pairing with transparent wrappers, invariants off and
    // the golden checker on. Once both lines are filled the bus goes
    // quiet: the MEI core's silent E->M write hit and the MESI core's
    // stream of read hits on its stale S copy fall into CPU-local
    // windows. The checker flags exactly the reads that follow the
    // write, so the violation list pins the per-cycle order of the two
    // cores inside a window.
    const REPS: u32 = 24;
    let build = |kernel: Kernel| {
        let (lay, map) = layout(2, Strategy::Proposed, LockKind::Turn, false);
        let lock = LockLayout::new(LockKind::Turn, lay.lock_base, 2);
        let mut spec = PlatformSpec::new(
            vec![
                CpuSpec::generic("mesi", ProtocolKind::Mesi),
                CpuSpec::generic("mei", ProtocolKind::Mei),
            ],
            map,
            lock,
        );
        spec.wrapper_mode = WrapperMode::Transparent;
        spec.check_invariants = false;
        spec.timeseries = Some(WINDOW_SERIES);
        spec.profile = true;
        let a = lay.shared_base;
        let p0 = ProgramBuilder::new()
            .read(a)
            .delay(50)
            .repeat(REPS, |b| b.read(a))
            .build();
        let p1 = ProgramBuilder::new()
            .delay(60)
            .read(a)
            .delay(8)
            .write(a, 77)
            .build();
        let mut sys = System::new(&spec, vec![p0, p1]);
        sys.set_kernel(kernel);
        sys
    };
    let step = build(Kernel::Step).run(10_000);
    let fast = build(Kernel::FastForward).run(10_000);
    windows_agree(&step, &fast, "Table 2 stale reads");
    assert_eq!(step.outcome, RunOutcome::Completed, "{step}");
    assert!(
        !step.violations.is_empty() && step.violations.len() < REPS as usize,
        "the read hits must straddle the write: {step}"
    );
}

#[test]
fn mixed_clock_pf2_windows_agree() {
    // PF2 pairs a PowerPC at twice the bus clock with an ARM at the bus
    // clock. In the best case both cores hit their own lines, so one
    // window ticks both of them on many of its cycles.
    for scenario in [Scenario::Best, Scenario::Typical, Scenario::Worst] {
        let spec = RunSpec::new(scenario, Strategy::Proposed, params())
            .on(PlatformPick::PpcArm)
            .with_spans(256)
            .with_invariants();
        let r = spec_windows_agree(spec, &format!("PF2 {scenario:?}"));
        assert!(r.is_clean_completion(), "{scenario:?}: {r}");
    }
}

#[test]
fn faults_fired_on_a_window_cycle_agree() {
    // A fault can fire on the first cycle of a CPU-local window. A
    // delayed and a lost nFIQ mask an interrupt there (the delayed line
    // unmasks on a later CPU-local event); a dropped or delayed grant
    // rewrites the arbiter's countdown after the dead cycles before it.
    let platforms = [
        PlatformPick::PpcArm,
        PlatformPick::I486Ppc,
        PlatformPick::Pair(ProtocolKind::Mesi, ProtocolKind::Moesi),
    ];
    for kind in [
        FaultKind::NfiqDelay,
        FaultKind::NfiqLost,
        FaultKind::GrantDrop,
        FaultKind::GrantDelay,
    ] {
        for platform in platforms {
            let spec = hmp_bench::chaos::chaos_spec(kind, platform, Strategy::Proposed);
            let label = format!("{} on {platform:?}", kind.key());
            let r = spec_windows_agree(spec.with_spans(256), &label);
            assert!(r.faults_injected >= 1, "{label}: no fault fired");
        }
    }
}

#[test]
fn advance_targets_split_windows_and_agree() {
    // `System::advance` ends a window at its target. Driving a run in
    // steps of 1, 7 and 64 cycles must land every kernel on the result
    // one uninterrupted step-kernel run gives.
    let spec = RunSpec::new(Scenario::Typical, Strategy::Proposed, params())
        .on(PlatformPick::PpcArm)
        .with_spans(256)
        .with_timeseries(WINDOW_SERIES)
        .with_profile();
    let whole = run(&spec.with_kernel(Kernel::Step));
    assert!(whole.is_clean_completion(), "{whole}");
    for stride in [1, 7, 64] {
        for kernel in [Kernel::Step, Kernel::FastForward] {
            let mut sys = hmp_workloads::prepare(&spec.with_kernel(kernel));
            while !sys.finished() {
                assert!(
                    sys.now().as_u64() < spec.max_cycles,
                    "stride {stride} never finished"
                );
                sys.advance(stride);
            }
            let r = sys.run(spec.max_cycles);
            assert_eq!(whole, r, "{kernel:?} advanced by {stride} diverges");
            assert_eq!(
                series_bytes(&whole),
                series_bytes(&r),
                "{kernel:?} by {stride}: telemetry bytes"
            );
        }
    }
}
