//! The platform-side fault engine: applies a [`FaultPlan`] to the running
//! system, one component boundary at a time.
//!
//! The schedule itself ([`hmp_sim::FaultPlan`]) is plain data; this module
//! owns the *mechanics* — what each [`FaultKind`] does to the arbiter, the
//! snoop logic, the wrapper or the cache when its cycle comes up. Faults
//! are **arm state**: firing one mutates component state (a grant
//! blackout counter, an nFIQ mask, an armed ARTRY kill) and the ordinary
//! cycle loop then plays the consequence out. That is what keeps the two
//! kernels equivalent — the fast-forward planner treats every fire cycle
//! as an event and steps it, so both kernels observe each fault at the
//! same cycle with the same component state.
//!
//! Everything here is gated behind `System::faults`
//! (`Option<Box<FaultEngine>>`): a fault-free run never allocates the
//! engine and pays one pointer-null check per cycle, keeping its
//! [`crate::RunResult`] byte-identical to a build without this module.

use crate::system::System;
use hmp_mem::Addr;
use hmp_sim::{FaultKind, FaultPlan, Observer, SimEvent};

/// Preallocated per-component fault state, armed by fired [`FaultPlan`]
/// entries and consumed by the cycle loop.
///
/// All vectors are sized at construction (one slot per node/master), so a
/// run with faults armed stays allocation-free in steady state.
pub(crate) struct FaultEngine {
    /// The remaining schedule, consumed in cycle order.
    pub(crate) plan: FaultPlan,
    /// Per node: bus cycle until which the nFIQ line is suppressed
    /// (exclusive); `u64::MAX` models a permanently lost interrupt.
    pub(crate) nfiq_mask_until: Vec<u64>,
    /// Per node: forced SHARED-signal override, consumed by that node's
    /// next line fill (a corrupted/suppressed shared signal at the
    /// wrapper boundary).
    pub(crate) shared_force: Vec<Option<bool>>,
    /// Per master: armed spurious ARTRY kills, consumed one per grant.
    spurious_retries: Vec<u32>,
    /// Per master: wedged in permanent retry — every non-drain grant is
    /// killed until the recovery policy quarantines it.
    wedged: Vec<bool>,
    /// Faults fired so far.
    pub(crate) fired: u64,
}

impl FaultEngine {
    /// Builds an engine for `masters` nodes with every slot idle.
    pub(crate) fn new(plan: FaultPlan, masters: usize) -> Self {
        FaultEngine {
            plan,
            nfiq_mask_until: vec![0; masters],
            shared_force: vec![None; masters],
            spurious_retries: vec![0; masters],
            wedged: vec![false; masters],
            fired: 0,
        }
    }

    /// Whether `node`'s nFIQ line is suppressed at bus cycle `now`.
    pub(crate) fn nfiq_masked(&self, node: usize, now: u64) -> bool {
        now < self.nfiq_mask_until[node]
    }
}

impl System {
    /// Fires every fault due at the current cycle, mutating the matching
    /// component boundary. Called once per *stepped* cycle, right after
    /// the clock tick, by both kernels.
    pub(crate) fn fire_faults(&mut self) {
        let now = self.run.now.as_u64();
        match &self.run.faults {
            Some(e) if e.plan.next_fire_at().is_some_and(|t| t <= now) => {}
            _ => return,
        }
        // Faults rewrite component state, the bus's countdowns included,
        // so the bus first catches up on the cycles it has not warped.
        self.sync_bus();
        let mut engine = self.run.faults.take().expect("checked above");
        while let Some(spec) = engine.plan.pop_due(now) {
            engine.fired += 1;
            let target = (spec.target as usize).min(self.nodes.len() - 1);
            self.obs.on_event(
                self.run.now,
                SimEvent::FaultInjected {
                    kind: spec.kind,
                    target,
                    addr: spec.addr.unwrap_or(0),
                },
            );
            match spec.kind {
                // Arbiter boundary: the grant line goes dead for a window
                // (a dropped grant is just a short delay).
                FaultKind::GrantDrop | FaultKind::GrantDelay => {
                    self.bus.block_grants(spec.param.max(1));
                }
                // Arbiter boundary: the next `param` non-drain grants of
                // the target master are killed with a spurious ARTRY.
                FaultKind::SpuriousRetry => {
                    let n = spec.param.clamp(1, u64::from(u32::MAX)) as u32;
                    engine.spurious_retries[target] =
                        engine.spurious_retries[target].saturating_add(n);
                }
                // Wrapper/interrupt boundary: the nFIQ line is suppressed.
                FaultKind::NfiqDelay => {
                    let until = now.saturating_add(spec.param.max(1));
                    let slot = &mut engine.nfiq_mask_until[target];
                    *slot = (*slot).max(until);
                }
                FaultKind::NfiqLost => engine.nfiq_mask_until[target] = u64::MAX,
                // Snoop-logic boundary: the TAG CAM silently forgets one
                // line it was protecting.
                FaultKind::CamDesync => {
                    if let (Some(addr), Some(cam)) = (spec.addr, self.nodes[target].cam.as_mut()) {
                        cam.desync_forget(Addr::new(addr as u32));
                    }
                }
                // Wrapper boundary: the target's next line fill sees a
                // forced SHARED signal instead of the snooped one.
                FaultKind::SharedCorrupt => {
                    engine.shared_force[target] = Some(spec.param != 0);
                }
                // Arbiter boundary: every future non-drain grant is
                // killed — a master wedged in permanent retry.
                FaultKind::WedgedMaster => engine.wedged[target] = true,
                // Cache boundary: one line's state bits flip.
                FaultKind::LineStateCorrupt => {
                    if let Some(addr) = spec.addr {
                        let a = Addr::new(addr as u32);
                        if self.nodes[target].cache.corrupt_line_state(a).is_some() {
                            self.check_line_invariants(a);
                        }
                    }
                }
            }
        }
        self.run.faults = Some(engine);
        // Fired faults mutate arbitrary component state (nFIQ masks, CAM
        // contents, cache lines); re-derive every node's event horizon.
        self.sched.mark_all_dirty();
        self.run.bus_sched_dirty = true;
    }

    /// Whether an armed fault kills this granted transaction with a
    /// spurious ARTRY (consuming one armed kill, unless the master is
    /// wedged — a wedged master retries forever). Drains are exempt so no
    /// dirty data is ever lost to an injected retry.
    pub(crate) fn fault_kills_grant(&mut self, master: usize, is_drain: bool) -> bool {
        let Some(engine) = &mut self.run.faults else {
            return false;
        };
        if is_drain {
            return false;
        }
        if engine.wedged[master] {
            return true;
        }
        if engine.spurious_retries[master] > 0 {
            engine.spurious_retries[master] -= 1;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use crate::{layout, CpuSpec, PlatformSpec, RunOutcome, RunResult, Strategy, System};
    use hmp_bus::RecoveryPolicy;
    use hmp_cache::ProtocolKind;
    use hmp_cpu::{LockKind, LockLayout, Program, ProgramBuilder};
    use hmp_sim::{FaultKind, FaultPlan, FaultSpec, Kernel, RetryCause};

    fn two_mesi_spec() -> (PlatformSpec, crate::MemLayout) {
        let (lay, map) = layout(2, Strategy::Proposed, LockKind::Turn, false);
        let lock = LockLayout::new(LockKind::Turn, lay.lock_base, 2);
        let spec = PlatformSpec::new(
            vec![
                CpuSpec::generic("P0", ProtocolKind::Mesi),
                CpuSpec::generic("P1", ProtocolKind::Mesi),
            ],
            map,
            lock,
        );
        (spec, lay)
    }

    fn ppc_arm_spec() -> (PlatformSpec, crate::MemLayout) {
        let (lay, map) = layout(2, Strategy::Proposed, LockKind::Turn, false);
        let lock = LockLayout::new(LockKind::Turn, lay.lock_base, 2);
        let spec = PlatformSpec::new(vec![CpuSpec::powerpc755(), CpuSpec::arm920t()], map, lock);
        (spec, lay)
    }

    /// Runs the spec under both kernels, asserts the whole results agree,
    /// and returns one of them.
    fn run_both(spec: &PlatformSpec, programs: Vec<Program>, max: u64) -> RunResult {
        let mut ff = System::new(spec, programs.clone());
        ff.set_kernel(Kernel::FastForward);
        let ff_result = ff.run(max);
        let mut step = System::new(spec, programs);
        step.set_kernel(Kernel::Step);
        let step_result = step.run(max);
        assert_eq!(ff_result, step_result, "kernels diverged under faults");
        ff_result
    }

    #[test]
    fn spurious_retries_absorbed_and_counted() {
        let (mut spec, lay) = two_mesi_spec();
        let a = lay.shared_base;
        spec.faults = Some(FaultPlan::from_specs(vec![FaultSpec::new(
            1,
            FaultKind::SpuriousRetry,
            0,
            2,
        )]));
        let p0 = ProgramBuilder::new().read(a).build();
        let p1 = ProgramBuilder::new().delay(80).read(a).build();
        let r = run_both(&spec, vec![p0, p1], 50_000);
        assert_eq!(r.outcome, RunOutcome::Completed, "{r}");
        assert!(r.violations.is_empty(), "{r}");
        assert_eq!(r.faults_injected, 1);
        assert_eq!(r.stats.retry(RetryCause::Injected), 2, "{r}");
    }

    #[test]
    fn grant_blackout_delays_but_absorbs() {
        let (spec, lay) = two_mesi_spec();
        let a = lay.shared_base;
        let mk = || {
            (
                ProgramBuilder::new().read(a).build(),
                ProgramBuilder::new().delay(40).read(a).build(),
            )
        };
        let (p0, p1) = mk();
        let clean = run_both(&spec, vec![p0, p1], 50_000);
        let mut faulty_spec = spec.clone();
        faulty_spec.faults = Some(FaultPlan::from_specs(vec![FaultSpec::new(
            1,
            FaultKind::GrantDrop,
            0,
            64,
        )]));
        let (p0, p1) = mk();
        let faulty = run_both(&faulty_spec, vec![p0, p1], 50_000);
        assert_eq!(faulty.outcome, RunOutcome::Completed, "{faulty}");
        assert!(faulty.violations.is_empty());
        assert!(
            faulty.cycles_u64() > clean.cycles_u64() + 32,
            "blackout must cost bus time: {} vs {}",
            faulty.cycles_u64(),
            clean.cycles_u64()
        );
    }

    #[test]
    fn wedged_master_is_quarantined_into_degraded() {
        let (mut spec, lay) = two_mesi_spec();
        let a = lay.shared_base;
        spec.faults = Some(FaultPlan::from_specs(vec![FaultSpec::new(
            1,
            FaultKind::WedgedMaster,
            0,
            0,
        )]));
        spec.recovery = RecoveryPolicy {
            retry_budget: 3,
            escalation_backoff: 16,
            quarantine_after: 6,
        };
        let p0 = ProgramBuilder::new().read(a).build();
        let p1 = ProgramBuilder::new().delay(30).read(a.add_lines(1)).build();
        let r = run_both(&spec, vec![p0, p1], 200_000);
        assert_eq!(
            r.outcome,
            RunOutcome::Degraded {
                quarantined: 1,
                faults_absorbed: 1
            },
            "{r}"
        );
        assert!(!r.is_clean_completion());
        assert!(r.stats.retry(RetryCause::Injected) >= 6, "{r}");
        // The healthy CPU finished its read despite the wedged peer.
        assert_eq!(r.cpus[1].reads, 1);
    }

    #[test]
    fn nfiq_lost_stalls_without_recovery_and_degrades_with_it() {
        let (mut spec, lay) = ppc_arm_spec();
        spec.watchdog_window = 2_000;
        let a = lay.shared_base;
        // ARM (node 1) dirties the line; the lost nFIQ means its drain ISR
        // never runs, so the PowerPC's read retries on the CAM forever.
        let arm = ProgramBuilder::new().write(a, 123).build();
        let ppc = ProgramBuilder::new().delay(300).read(a).build();
        spec.faults = Some(FaultPlan::from_specs(vec![FaultSpec::new(
            150,
            FaultKind::NfiqLost,
            1,
            0,
        )]));
        let stalled = run_both(&spec, vec![ppc.clone(), arm.clone()], 200_000);
        assert_eq!(stalled.outcome, RunOutcome::Stalled, "{stalled}");
        assert!(stalled.hang.is_some());

        spec.recovery = RecoveryPolicy {
            retry_budget: 4,
            escalation_backoff: 8,
            quarantine_after: 12,
        };
        let degraded = run_both(&spec, vec![ppc, arm], 200_000);
        assert!(
            matches!(
                degraded.outcome,
                RunOutcome::Degraded { quarantined: 1, .. }
            ),
            "{degraded}"
        );
    }

    #[test]
    fn nfiq_delay_is_absorbed() {
        let (mut spec, lay) = ppc_arm_spec();
        let a = lay.shared_base;
        let arm = ProgramBuilder::new().write(a, 9).build();
        let ppc = ProgramBuilder::new().delay(300).read(a).build();
        spec.faults = Some(FaultPlan::from_specs(vec![FaultSpec::new(
            150,
            FaultKind::NfiqDelay,
            1,
            800,
        )]));
        let r = run_both(&spec, vec![ppc, arm], 200_000);
        assert!(r.is_clean_completion(), "delayed nFIQ must recover: {r}");
        assert_eq!(r.faults_injected, 1);
        assert!(r.stats.retry(RetryCause::CamHit) >= 1, "{r}");
    }

    #[test]
    fn cam_desync_escapes_to_golden_checker() {
        let (mut spec, lay) = ppc_arm_spec();
        let a = lay.shared_base;
        let arm = ProgramBuilder::new().write(a, 77).build();
        let ppc = ProgramBuilder::new().delay(400).read(a).build();
        spec.faults = Some(FaultPlan::from_specs(vec![FaultSpec::new(
            200,
            FaultKind::CamDesync,
            1,
            0,
        )
        .at_addr(u64::from(a.as_u32()))]));
        let r = run_both(&spec, vec![ppc, arm], 200_000);
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert!(
            !r.violations.is_empty(),
            "forgotten CAM entry must yield a stale read: {r}"
        );
        assert_eq!(r.violations[0].expected, 77);
    }

    #[test]
    fn shared_corrupt_trips_invariant_checker() {
        let (mut spec, lay) = two_mesi_spec();
        spec.check_invariants = true;
        let a = lay.shared_base;
        // P0 fills first; P1's later fill sees a corrupted (suppressed)
        // SHARED signal and installs Exclusive next to P0's Shared copy.
        let p0 = ProgramBuilder::new().read(a).build();
        let p1 = ProgramBuilder::new().delay(60).read(a).build();
        spec.faults = Some(FaultPlan::from_specs(vec![FaultSpec::new(
            1,
            FaultKind::SharedCorrupt,
            1,
            0,
        )]));
        let r = run_both(&spec, vec![p0, p1], 50_000);
        assert_eq!(r.outcome, RunOutcome::InvariantViolation, "{r}");
        assert!(r.invariant.is_some());
    }

    #[test]
    fn line_state_corrupt_escapes_to_golden_checker() {
        let (mut spec, lay) = two_mesi_spec();
        spec.check_invariants = true;
        let a = lay.shared_base;
        // P0 dirties the line (Modified); the corruption silently demotes
        // it to Shared, so P1's read fills stale data from memory.
        let p0 = ProgramBuilder::new().write(a, 7).build();
        let p1 = ProgramBuilder::new().delay(200).read(a).build();
        spec.faults = Some(FaultPlan::from_specs(vec![FaultSpec::new(
            100,
            FaultKind::LineStateCorrupt,
            0,
            0,
        )
        .at_addr(u64::from(a.as_u32()))]));
        let r = run_both(&spec, vec![p0, p1], 50_000);
        assert!(
            !r.violations.is_empty(),
            "lost dirty state must yield a stale read: {r}"
        );
        assert_eq!(r.violations[0].expected, 7);
    }

    #[test]
    fn unfired_plan_leaves_result_byte_identical() {
        let (spec, lay) = two_mesi_spec();
        let a = lay.shared_base;
        let mk = || {
            (
                ProgramBuilder::new().read(a).write(a, 3).build(),
                ProgramBuilder::new().delay(70).read(a).build(),
            )
        };
        let (p0, p1) = mk();
        let baseline = run_both(&spec, vec![p0, p1], 50_000);
        let mut armed = spec.clone();
        // Scheduled far past the run's end: the engine exists but never
        // fires, and the result must not change in any field.
        armed.faults = Some(FaultPlan::from_specs(vec![FaultSpec::new(
            1_000_000_000,
            FaultKind::GrantDrop,
            0,
            10,
        )]));
        let (p0, p1) = mk();
        let with_engine = run_both(&armed, vec![p0, p1], 50_000);
        assert_eq!(baseline, with_engine);
    }
}
