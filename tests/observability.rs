//! End-to-end tests of the observability stack: live invariant checking
//! across the paper's platforms, span lifecycle coverage, and the
//! watchdog's span-annotated hang report on the Figure 4 deadlock.

use hmp::bus::ArbitrationPolicy;
use hmp::cache::ProtocolKind;
use hmp::cpu::{LockKind, LockLayout, ProgramBuilder};
use hmp::platform::{
    layout, presets, CpuSpec, InvariantKind, PlatformSpec, RunOutcome, Strategy, System,
    WrapperMode,
};
use hmp::workloads::{run, MicrobenchParams, PlatformPick, RunSpec, Scenario};

fn small() -> MicrobenchParams {
    MicrobenchParams {
        lines_per_iter: 4,
        exec_time: 1,
        outer_iters: 2,
        seed: 3,
        ..Default::default()
    }
}

/// Every preset platform, scenario and strategy satisfies the structural
/// line invariants on every completed transaction — the wrappers exist
/// precisely to make this hold on heterogeneous pairings.
#[test]
fn invariants_hold_across_presets_and_strategies() {
    for scenario in [Scenario::Worst, Scenario::Best, Scenario::Typical] {
        for strategy in Strategy::ALL {
            let r = run(&RunSpec::new(scenario, strategy, small())
                .with_spans(64)
                .with_invariants());
            assert!(r.is_clean_completion(), "{scenario}/{strategy}: {r}");
            assert!(r.invariant.is_none(), "{scenario}/{strategy}");
        }
    }
    use ProtocolKind::*;
    let platforms = [
        PlatformPick::I486Ppc,
        PlatformPick::Pf1Dual,
        PlatformPick::Pair(Mei, Mesi),
        PlatformPick::Pair(Msi, Moesi),
        PlatformPick::Pair(Moesi, Moesi),
    ];
    for platform in platforms {
        let r = run(&RunSpec::new(Scenario::Worst, Strategy::Proposed, small())
            .on(platform)
            .with_spans(64)
            .with_invariants());
        assert!(r.is_clean_completion(), "{platform:?}: {r}");
    }
}

/// The Table 2 seeded violation: transparent (no-op) wrappers let a MEI
/// cache take exclusive ownership while the MESI cache still holds the
/// line Shared. The golden-memory checker only notices when the stale
/// value is *read*, at the end of the program; the live invariant checker
/// must kill the run at the protocol break itself.
#[test]
fn transparent_wrapper_violation_fails_fast() {
    let build = |check: bool| {
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
        spec.check_invariants = check;
        spec.span_capacity = 64;
        let a = lay.shared_base;
        let p0 = ProgramBuilder::new().read(a).delay(200).read(a).build();
        let p1 = ProgramBuilder::new().delay(60).read(a).write(a, 77).build();
        (System::new(&spec, vec![p0, p1]), a)
    };

    // Unchecked: the run completes and only the end-of-run checker
    // reports the stale read.
    let (mut unchecked, _) = build(false);
    let full = unchecked.run(10_000);
    assert_eq!(full.outcome, RunOutcome::Completed);
    assert!(!full.violations.is_empty(), "{full}");

    // Checked: the same run dies at the break, long before completion.
    let (mut checked, a) = build(true);
    let r = checked.run(10_000);
    assert_eq!(r.outcome, RunOutcome::InvariantViolation, "{r}");
    assert!(!r.is_clean_completion());
    let v = r
        .invariant
        .as_ref()
        .expect("violation must be latched in the result");
    assert_eq!(v.kind, InvariantKind::WriterWithSharers, "{v}");
    assert_eq!(v.addr, a.line_base(), "{v}");
    assert!(
        r.cycles_u64() < full.cycles_u64(),
        "fail-fast must beat the end-of-run checker ({} vs {})",
        r.cycles_u64(),
        full.cycles_u64()
    );
    let txt = r.to_string();
    assert!(txt.contains("invariant violation"), "{txt}");
    assert!(txt.contains("writer with live sharers"), "{txt}");
}

/// Span lifecycle over a full run: every bus transaction produced exactly
/// one completed span, nothing stays open after completion, and the
/// histograms saw every one of them.
#[test]
fn spans_cover_every_transaction() {
    let spec = RunSpec::new(Scenario::Worst, Strategy::Proposed, small()).with_spans(4096);
    let mut sys = hmp::workloads::prepare(&spec);
    let r = sys.run(spec.max_cycles);
    assert!(r.is_clean_completion(), "{r}");
    let snap = r.metrics.as_ref().expect("metrics enabled");
    assert!(r.bus.completions > 0);
    assert_eq!(snap.span_orphans, 0);
    assert_eq!(snap.spans_recorded, r.bus.completions);
    assert_eq!(snap.service_time.count(), r.bus.completions);
    let m = sys.metrics().unwrap();
    assert!(
        m.spans().open_spans().is_empty(),
        "no transaction may stay open after a clean completion"
    );
}

/// The Figure 4 hardware deadlock, with spans on: the watchdog's hang
/// report names the wedged transaction (an open span that kept absorbing
/// retries) instead of leaving a bare "stalled" outcome.
#[test]
fn hang_report_names_the_wedged_transaction() {
    let stall = (0..200).find_map(|arm_delay| {
        let (mut spec, lay) = presets::ppc_arm(Strategy::Proposed, LockKind::Bakery, true);
        spec.watchdog_window = 10_000;
        spec.arbitration = ArbitrationPolicy::FixedPriority;
        spec.retry_backoff = 4;
        spec.span_capacity = 256;
        let x = lay.shared_base;
        let mut arm = ProgramBuilder::new();
        for l in 0..4 {
            arm = arm.read(x.add_lines(l)).write(x.add_lines(l), 0xA0 + l);
        }
        let arm = arm.delay(arm_delay).acquire(0).delay(50).release(0).build();
        let mut ppc = ProgramBuilder::new().delay(200).acquire(0);
        for l in 0..4 {
            ppc = ppc.read(x.add_lines(l)).delay(16);
        }
        let ppc = ppc.release(0).build();
        let mut sys = presets::instantiate(&spec, Strategy::Proposed, vec![ppc, arm]);
        let r = sys.run(500_000);
        (r.outcome == RunOutcome::Stalled).then_some(r)
    });
    let r = stall.expect("some interleaving must reproduce the Figure 4 deadlock");
    let hang = r.hang.as_ref().expect("stall must carry a hang report");
    assert!(hang.stalled_at.as_u64() > 0);
    assert!(
        !hang.open_spans.is_empty(),
        "the wedged transaction must be visible as an open span: {r}"
    );
    assert!(
        hang.open_spans.iter().any(|s| s.retries > 0),
        "the livelocked request kept absorbing retries: {r}"
    );
    let txt = r.to_string();
    assert!(txt.contains("watchdog tripped"), "{txt}");
    assert!(txt.contains("open transactions"), "{txt}");
}
