//! Deadlock-space probe: Figure 4 under nFIQ-delay faults.
//!
//! The paper's Figure 4 shows the hardware deadlock of cacheable lock
//! variables on the PF2 platform: a master retrying a snooped transaction
//! and the processor that must service the snoop interrupt block each
//! other forever. The mitigations are uncached lock variables (the turn
//! and Bakery locks of §4) or the hardware lock register.
//!
//! This probe widens Figure 4 into a small deadlock *space*: each lock
//! configuration runs the WCS workload with the ARM's nFIQ delivery
//! delayed by an injected fault (0 / 2 000 / 20 000 bus cycles). The
//! cacheable-lock configuration deadlocks at every delay; both
//! mitigations absorb even the 20 000-cycle delay and complete cleanly —
//! delayed interrupt service stretches the drain window but never closes
//! the cycle that the cacheable lock closes.

use hmp_cpu::LockKind;
use hmp_platform::{presets, RunOutcome, RunResult, Strategy};
use hmp_sim::{FaultKind, FaultPlan, FaultSpec, RetryCause};
use hmp_workloads::{build_programs, MicrobenchParams, Scenario};

/// nFIQ-delay fault magnitudes the probe sweeps (bus cycles; 0 = no
/// fault).
const DELAYS: [u64; 3] = [0, 2_000, 20_000];

fn probe(lock_kind: LockKind, cacheable_locks: bool, nfiq_delay: u64) -> RunResult {
    let (mut spec, lay) = presets::ppc_arm(Strategy::Proposed, lock_kind, cacheable_locks);
    spec.watchdog_window = 10_000;
    if nfiq_delay > 0 {
        // Mask the ARM's (node 1) interrupt line mid-run.
        spec.faults = Some(FaultPlan::from_specs(vec![FaultSpec::new(
            150,
            FaultKind::NfiqDelay,
            1,
            nfiq_delay,
        )]));
    }
    let params = MicrobenchParams {
        lines_per_iter: 4,
        exec_time: 2,
        outer_iters: 4,
        seed: 7,
        ..Default::default()
    };
    let programs = build_programs(Scenario::Worst, Strategy::Proposed, &params, &lay);
    let mut sys = presets::instantiate(&spec, Strategy::Proposed, programs);
    sys.run(400_000)
}

#[test]
fn cacheable_lock_deadlocks_at_every_nfiq_delay() {
    for delay in DELAYS {
        let r = probe(LockKind::Turn, true, delay);
        assert_eq!(
            r.outcome,
            RunOutcome::Stalled,
            "cacheable turn lock, nfiq delay {delay}: {r}"
        );
        assert!(r.hang.is_some(), "stalls carry a hang report");
    }
}

#[test]
fn uncached_bakery_lock_survives_every_nfiq_delay() {
    for delay in DELAYS {
        let r = probe(LockKind::Bakery, false, delay);
        assert!(
            r.is_clean_completion(),
            "bakery lock, nfiq delay {delay}: {r}"
        );
        assert_eq!(r.faults_injected, u64::from(delay > 0));
    }
}

#[test]
fn hardware_lock_register_survives_every_nfiq_delay() {
    for delay in DELAYS {
        let r = probe(LockKind::HardwareRegister, false, delay);
        assert!(
            r.is_clean_completion(),
            "hardware lock, nfiq delay {delay}: {r}"
        );
        assert_eq!(r.faults_injected, u64::from(delay > 0));
    }
}

#[test]
fn delayed_interrupts_stretch_but_do_not_break_the_drain_window() {
    // The mitigation's cost is visible: a delayed nFIQ lengthens the run
    // (the PowerPC retries on the TAG CAM until the ARM finally drains),
    // but the CAM retry path keeps coherence intact throughout.
    let clean = probe(LockKind::Bakery, false, 0);
    let delayed = probe(LockKind::Bakery, false, 20_000);
    assert!(
        delayed.cycles_u64() > clean.cycles_u64(),
        "delay must cost cycles: {} vs {}",
        delayed.cycles_u64(),
        clean.cycles_u64()
    );
    assert!(delayed.stats.retry(RetryCause::CamHit) >= clean.stats.retry(RetryCause::CamHit));
}
