//! The bus FSM: grant → address/snoop → data → completion.

use crate::{Arbiter, ArbitrationPolicy, BusOp, MasterId};
use hmp_mem::{Addr, LINE_WORDS};
use hmp_sim::{Cycle, Observer, SimEvent};
use std::collections::VecDeque;

/// The bus pipeline state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusPhase {
    /// No transaction in flight; arbitration may run.
    Idle,
    /// A transaction has been granted and is being snooped; the platform
    /// must call [`Bus::resolve`] in the same cycle.
    Address,
    /// The data phase is streaming; `remaining` cycles left.
    Data {
        /// Bus cycles until the transaction completes.
        remaining: u64,
    },
}

/// A transaction that just entered the address phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrantedTxn {
    /// The master driving the transaction.
    pub master: MasterId,
    /// The operation on the wire (what the memory controller sees — the
    /// wrappers translate it per-snooper, never here).
    pub op: BusOp,
    /// Target address.
    pub addr: Addr,
    /// `true` if this is a snoop-push write-back rather than a CPU
    /// transaction.
    pub is_drain: bool,
    /// `true` if this transaction was previously killed by ARTRY.
    pub is_retry: bool,
}

/// The platform's verdict on an address phase, fed to [`Bus::resolve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddressOutcome {
    /// Snooping raised no objection; stream data for `data_cycles` cycles
    /// (0 completes the transaction at the end of the address cycle, used
    /// for upgrade broadcasts).
    Proceed {
        /// Length of the data phase in bus cycles.
        data_cycles: u64,
        /// Value of the bus shared signal sampled by the requester.
        shared: bool,
        /// Line supplied cache-to-cache (MOESI), bypassing memory.
        supplied: Option<[u32; LINE_WORDS as usize]>,
    },
    /// ARTRY: the transaction is killed; the master re-arbitrates later.
    Retry,
}

/// A transaction that completed its data phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedTxn {
    /// The master that drove the transaction.
    pub master: MasterId,
    /// The operation performed.
    pub op: BusOp,
    /// Target address.
    pub addr: Addr,
    /// `true` if this was a snoop-push write-back.
    pub is_drain: bool,
    /// Shared-signal value sampled during the address phase.
    pub shared: bool,
    /// Line supplied cache-to-cache instead of from memory.
    pub supplied: Option<[u32; LINE_WORDS as usize]>,
}

/// Arbiter-level retry escalation: timeout → back-off → quarantine.
///
/// The paper's §3 failure mode is a master wedged in permanent retry.
/// A recovery policy bounds how long the arbiter tolerates that: after
/// `retry_budget` *consecutive* ARTRY kills of one master's CPU
/// transaction the arbiter escalates its BOFF window to
/// `escalation_backoff`, and after `quarantine_after` consecutive kills
/// it quarantines the master outright — its CPU transactions are
/// excluded from arbitration while its drains (dirty-data push-outs)
/// keep flowing, so quarantine never loses data. The default policy is
/// fully disabled; a fault-free run with a disabled policy is
/// byte-identical to a build without this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryPolicy {
    /// Consecutive ARTRYs of one master before its BOFF escalates
    /// (0 disables escalation).
    pub retry_budget: u32,
    /// BOFF window applied once the budget is exceeded.
    pub escalation_backoff: u64,
    /// Consecutive ARTRYs before the master is quarantined
    /// (0 disables quarantine).
    pub quarantine_after: u32,
}

impl RecoveryPolicy {
    /// `true` when any escalation stage is armed.
    pub fn enabled(&self) -> bool {
        self.retry_budget > 0 || self.quarantine_after > 0
    }
}

/// Aggregate bus activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Transactions granted (address phases started): the sum of
    /// [`Bus::master_grants`].
    pub grants: u64,
    /// Transactions killed by ARTRY.
    pub retries: u64,
    /// Transactions completed.
    pub completions: u64,
    /// Completed snoop-push write-backs.
    pub drains: u64,
    /// Total data-phase cycles streamed.
    pub data_cycles: u64,
    /// Masters quarantined by the recovery policy.
    pub quarantined: u64,
}

#[derive(Debug, Clone, Default)]
struct MasterPort {
    /// Remaining BOFF cycles: after an ARTRY the master deasserts BREQ
    /// for the configured back-off window before retrying.
    backoff: u64,
    /// The master's single outstanding CPU transaction, if not yet granted.
    fresh: Option<(BusOp, Addr)>,
    /// A transaction killed by ARTRY, waiting to retry. `bool` records
    /// whether it was a drain.
    retrying: Option<(BusOp, Addr, bool)>,
    /// Snoop-push write-backs queued behind the CPU transaction. These
    /// double as the master's *write-back buffers*: the platform must ARTRY
    /// any remote access to a line held here.
    drains: VecDeque<([u32; LINE_WORDS as usize], Addr)>,
    /// Cycle the port last transitioned from idle to requesting — the
    /// FCFS queue position. Refreshed on an ARTRY kill (the retry is a
    /// *new* request and queues behind younger first-timers).
    stamp: u64,
}

impl MasterPort {
    fn wants_bus(&self) -> bool {
        self.retrying.is_some() || !self.drains.is_empty() || self.fresh.is_some()
    }
}

#[derive(Debug, Clone)]
struct Active {
    txn: GrantedTxn,
    shared: bool,
    supplied: Option<[u32; LINE_WORDS as usize]>,
}

/// The shared system bus.
///
/// Drive it one bus cycle at a time:
///
/// 1. if [`Bus::phase`] is [`BusPhase::Idle`], call [`Bus::try_grant`];
///    a granted transaction is *in its address phase* — snoop it and call
///    [`Bus::resolve`] within the same cycle;
/// 2. if the phase is [`BusPhase::Data`], call [`Bus::advance_data`] once
///    per cycle until it yields the [`CompletedTxn`].
///
/// Per-master ordering (retry → drains → fresh) is chosen to match the
/// PowerPC755 behaviour the paper describes: a master granted the bus
/// retries its killed transaction *"instead of draining out the lock
/// variables"* — the root cause of the hardware deadlock of Figure 4.
#[derive(Debug, Clone)]
pub struct Bus {
    arbiter: Arbiter,
    ports: Vec<MasterPort>,
    phase: BusPhase,
    active: Option<Active>,
    stats: BusStats,
    retry_backoff: u64,
    /// Reused arbitration request mask — rebuilding it per cycle would
    /// allocate on the hot path.
    req_mask: Vec<bool>,
    /// Reused FCFS stamp vector, filled alongside `req_mask`.
    stamp_mask: Vec<u64>,
    /// Grants per master (including drain grants and re-grants after
    /// ARTRY) — the numerator of the fairness studies' grant shares.
    /// The only grant count: [`Bus::stats`] sums it.
    grants_per_master: Vec<u64>,
    /// Segment each master port is attached to. Single-segment fabrics
    /// map every master to segment 0.
    segment_map: Vec<usize>,
    /// Number of bus segments in the fabric (≥ 1).
    segments: usize,
    /// Extra data-phase cycles a transaction pays when its data crosses
    /// the snooping bridge between segments.
    bridge_latency: u64,
    /// Maintained count of queued (not yet granted) drains across all
    /// ports — kept at transition points so [`Bus::queued_drains`] is
    /// O(1) instead of a per-cycle port scan.
    queued_drain_count: usize,
    /// Injected grant blackout: while positive, arbitration is
    /// suppressed (a dropped/delayed BG line). Runs down one per cycle.
    grant_block: u64,
    /// Retry-escalation policy (disabled by default).
    recovery: RecoveryPolicy,
    /// Per-master recovery overrides; `None` falls back to `recovery`.
    recovery_overrides: Vec<Option<RecoveryPolicy>>,
    /// Consecutive ARTRY kills per master, reset when a CPU transaction
    /// of that master proceeds.
    consecutive_retries: Vec<u32>,
    /// Masters whose CPU transactions are excluded from arbitration.
    quarantined: Vec<bool>,
}

impl Bus {
    /// Creates a bus with `masters` master ports.
    ///
    /// # Panics
    ///
    /// Panics if `masters` is zero.
    pub fn new(masters: usize) -> Self {
        Bus {
            arbiter: Arbiter::new(masters),
            ports: (0..masters).map(|_| MasterPort::default()).collect(),
            phase: BusPhase::Idle,
            active: None,
            stats: BusStats::default(),
            retry_backoff: 0,
            req_mask: vec![false; masters],
            stamp_mask: vec![0; masters],
            grants_per_master: vec![0; masters],
            segment_map: vec![0; masters],
            segments: 1,
            bridge_latency: 0,
            queued_drain_count: 0,
            grant_block: 0,
            recovery: RecoveryPolicy::default(),
            recovery_overrides: vec![None; masters],
            consecutive_retries: vec![0; masters],
            quarantined: vec![false; masters],
        }
    }

    /// Switches the arbitration policy (resets the rotation pointer).
    pub fn set_arbitration(&mut self, policy: ArbitrationPolicy) {
        self.arbiter = Arbiter::with_policy(self.ports.len(), policy);
    }

    /// Cross-run reset: returns every port, the arbiter rotation, the
    /// active transaction and all counters to their power-on state while
    /// keeping every allocation (drain queues, masks, per-master vectors)
    /// and the fabric topology (segments, bridge latency). Configuration
    /// installed through the setters — arbitration, BOFF window, recovery
    /// policy and per-master overrides — is preserved; callers that want
    /// different knobs for the next run re-apply them afterwards.
    pub fn reset(&mut self) {
        self.arbiter.reset();
        for p in &mut self.ports {
            p.backoff = 0;
            p.fresh = None;
            p.retrying = None;
            p.drains.clear();
            p.stamp = 0;
        }
        self.phase = BusPhase::Idle;
        self.active = None;
        self.stats = BusStats::default();
        self.req_mask.fill(false);
        self.stamp_mask.fill(0);
        self.grants_per_master.fill(0);
        self.queued_drain_count = 0;
        self.grant_block = 0;
        self.consecutive_retries.fill(0);
        self.quarantined.fill(false);
    }

    /// Sets the BOFF window: a master whose transaction was killed by
    /// ARTRY deasserts its request for this many bus cycles before
    /// retrying. Zero (the default) retries immediately.
    pub fn set_retry_backoff(&mut self, cycles: u64) {
        self.retry_backoff = cycles;
    }

    /// Advances per-cycle bus state (BOFF countdowns, injected grant
    /// blackouts). Call once at the top of every bus cycle.
    pub fn begin_cycle(&mut self) {
        for p in &mut self.ports {
            p.backoff = p.backoff.saturating_sub(1);
        }
        self.grant_block = self.grant_block.saturating_sub(1);
    }

    /// Sets the retry-escalation policy.
    pub fn set_recovery(&mut self, policy: RecoveryPolicy) {
        self.recovery = policy;
    }

    /// The active retry-escalation policy.
    pub fn recovery(&self) -> RecoveryPolicy {
        self.recovery
    }

    /// Overrides the retry-escalation policy for one master. Masters
    /// without an override use the bus-wide [`Bus::set_recovery`] policy.
    pub fn set_master_recovery(&mut self, master: MasterId, policy: RecoveryPolicy) {
        self.recovery_overrides[master.index()] = Some(policy);
    }

    /// The retry-escalation policy governing `master` (its override, or
    /// the bus-wide default).
    pub fn recovery_for(&self, master: MasterId) -> RecoveryPolicy {
        self.recovery_overrides[master.index()].unwrap_or(self.recovery)
    }

    /// `true` when any master (via override or the bus-wide default) has
    /// an armed recovery policy.
    pub fn recovery_armed(&self) -> bool {
        self.recovery.enabled()
            || self
                .recovery_overrides
                .iter()
                .flatten()
                .any(|p| p.enabled())
    }

    /// Partitions the masters over bus segments joined by the snooping
    /// bridge. `segment_map[i]` is master *i*'s home segment; `segments`
    /// is the fabric's segment count; `bridge_latency` is the extra
    /// data-phase cost of a transaction whose data crosses the bridge.
    ///
    /// The bridge forwards every address phase combinationally, so the
    /// fabric remains **one arbitration domain** — one transaction in
    /// flight fabric-wide, every cache snooping every address. Only data
    /// movement pays the crossing penalty (see [`Bus::bridge_penalty`]).
    /// A single-segment fabric (the default) never pays it, which keeps
    /// the flat-bus configurations byte-identical to the pre-fabric bus.
    ///
    /// # Panics
    ///
    /// Panics if `segment_map` is not one entry per master, `segments`
    /// is zero, or any entry names a segment out of range.
    pub fn set_segments(&mut self, segment_map: &[usize], segments: usize, bridge_latency: u64) {
        assert_eq!(
            segment_map.len(),
            self.ports.len(),
            "segment map width mismatch"
        );
        assert!(segments >= 1, "a fabric needs at least one segment");
        assert!(
            segment_map.iter().all(|&s| s < segments),
            "segment index out of range"
        );
        self.segment_map.copy_from_slice(segment_map);
        self.segments = segments;
        self.bridge_latency = bridge_latency;
    }

    /// Number of bus segments in the fabric.
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// The segment `master` is attached to.
    pub fn segment_of(&self, master: MasterId) -> usize {
        self.segment_map[master.index()]
    }

    /// Configured bridge crossing latency in bus cycles.
    pub fn bridge_latency(&self) -> u64 {
        self.bridge_latency
    }

    /// Extra data-phase cycles `master`'s transaction pays for its data
    /// source: `supplier` is the cache-to-cache supplier's master index,
    /// or `None` when memory (homed on segment 0, alongside the lock
    /// register and other slaves) serves the data. Zero on a
    /// single-segment fabric or when source and requester share a
    /// segment.
    pub fn bridge_penalty(&self, master: MasterId, supplier: Option<usize>) -> u64 {
        if self.crosses_bridge(master, supplier) {
            self.bridge_latency
        } else {
            0
        }
    }

    /// `true` when `master`'s data source sits across the bridge —
    /// i.e. [`Bus::bridge_penalty`] would apply (even if the configured
    /// latency is zero). Telemetry counts these crossings per window.
    pub fn crosses_bridge(&self, master: MasterId, supplier: Option<usize>) -> bool {
        if self.segments <= 1 {
            return false;
        }
        let home = self.segment_map[master.index()];
        let source = supplier.map_or(0, |s| self.segment_map[s]);
        home != source
    }

    /// Grants per master so far (drains and retry re-grants included).
    pub fn master_grants(&self) -> &[u64] {
        &self.grants_per_master
    }

    /// The master whose granted transaction currently owns the bus
    /// (`None` outside an active transaction). Telemetry uses this to
    /// attribute data-phase cycles to the driving master's segment.
    pub fn active_master(&self) -> Option<MasterId> {
        self.active.as_ref().map(|a| a.txn.master)
    }

    /// Suppresses arbitration for the next `cycles` bus cycles (an
    /// injected dropped/delayed grant line). Extends, never shortens, an
    /// active blackout.
    pub fn block_grants(&mut self, cycles: u64) {
        self.grant_block = self.grant_block.max(cycles);
    }

    /// Remaining injected grant-blackout cycles.
    pub fn grant_block_remaining(&self) -> u64 {
        self.grant_block
    }

    /// Quarantines `master`: its CPU transactions are excluded from
    /// arbitration from now on; its drains still flow. Returns `true`
    /// if the master was not already quarantined.
    pub fn quarantine(&mut self, master: MasterId) -> bool {
        !std::mem::replace(&mut self.quarantined[master.index()], true)
    }

    /// `true` if `master` is quarantined.
    pub fn is_quarantined(&self, master: MasterId) -> bool {
        self.quarantined[master.index()]
    }

    /// Number of quarantined masters.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.iter().filter(|&&q| q).count()
    }

    /// Consecutive ARTRY kills of `master`'s CPU transaction since it
    /// last proceeded.
    pub fn consecutive_retries(&self, master: MasterId) -> u32 {
        self.consecutive_retries[master.index()]
    }

    /// What `master` can currently offer arbitration: everything when
    /// healthy, drains only when quarantined.
    fn wants_bus_effective(&self, i: usize) -> bool {
        let p = &self.ports[i];
        if self.quarantined[i] {
            p.retrying.as_ref().is_some_and(|&(_, _, d)| d) || !p.drains.is_empty()
        } else {
            p.wants_bus()
        }
    }

    /// Number of master ports.
    pub fn masters(&self) -> usize {
        self.ports.len()
    }

    /// Current pipeline phase.
    pub fn phase(&self) -> BusPhase {
        self.phase
    }

    /// Activity counters so far. Grants and quarantines are derived
    /// from the per-master state here, so each is counted once.
    pub fn stats(&self) -> BusStats {
        BusStats {
            grants: self.grants_per_master.iter().sum(),
            quarantined: self.quarantined_count() as u64,
            ..self.stats
        }
    }

    /// Submits a master's (single) CPU transaction, reported to `obs` as
    /// [`SimEvent::BusRequest`] (the open of its lifecycle span).
    ///
    /// # Panics
    ///
    /// Panics if the master already has an outstanding CPU transaction —
    /// the modelled cores are blocking and never pipeline bus requests.
    pub fn submit(
        &mut self,
        master: MasterId,
        op: BusOp,
        addr: Addr,
        now: Cycle,
        obs: &mut impl Observer,
    ) {
        let port = &mut self.ports[master.index()];
        assert!(
            port.fresh.is_none() && port.retrying.as_ref().is_none_or(|&(_, _, d)| d),
            "{master} already has an outstanding CPU transaction"
        );
        if !port.wants_bus() {
            port.stamp = now.as_u64();
        }
        port.fresh = Some((op, addr));
        obs.on_event(
            now,
            SimEvent::BusRequest {
                master: master.index(),
                op: op.kind(),
                addr: u64::from(addr.as_u32()),
                is_drain: false,
            },
        );
    }

    /// Queues a snoop-push write-back on `master`'s port, reported to
    /// `obs` as a drain [`SimEvent::BusRequest`].
    pub fn submit_drain(
        &mut self,
        master: MasterId,
        data: [u32; LINE_WORDS as usize],
        addr: Addr,
        now: Cycle,
        obs: &mut impl Observer,
    ) {
        let line = addr.line_base();
        let port = &mut self.ports[master.index()];
        if !port.wants_bus() {
            port.stamp = now.as_u64();
        }
        port.drains.push_back((data, line));
        self.queued_drain_count += 1;
        obs.on_event(
            now,
            SimEvent::BusRequest {
                master: master.index(),
                op: hmp_sim::BusOpKind::WriteLine,
                addr: u64::from(line.as_u32()),
                is_drain: true,
            },
        );
    }

    /// `true` if the master has a CPU transaction in flight (fresh, retrying
    /// or currently on the bus).
    pub fn cpu_txn_outstanding(&self, master: MasterId) -> bool {
        let port = &self.ports[master.index()];
        port.fresh.is_some()
            || port.retrying.as_ref().is_some_and(|&(_, _, d)| !d)
            || self
                .active
                .as_ref()
                .is_some_and(|a| a.txn.master == master && !a.txn.is_drain)
    }

    /// `true` if any master holds a write-back buffer for `addr`'s line —
    /// a queued snoop-push drain, a retried drain, **or** a flush/ISR
    /// write-back still waiting as a CPU transaction. Remote accesses to
    /// such a line must be ARTRY'd until the buffer empties, exactly as
    /// real snooping hardware checks its write-back buffers: the line has
    /// already left the cache, so memory is the only copy and it is stale
    /// until the write-back lands.
    pub fn drain_pending_to(&self, addr: Addr) -> bool {
        let line = addr.line_base();
        let wb = |op: &BusOp, a: Addr| matches!(op, BusOp::WriteLine(_)) && a.line_base() == line;
        self.ports.iter().any(|p| {
            p.drains.iter().any(|&(_, a)| a == line)
                || p.retrying.as_ref().is_some_and(|(op, a, _)| wb(op, *a))
                || p.fresh.as_ref().is_some_and(|(op, a)| wb(op, *a))
        })
    }

    /// Number of queued (not yet granted) drains across all masters.
    pub fn queued_drains(&self) -> usize {
        debug_assert_eq!(
            self.queued_drain_count,
            self.ports.iter().map(|p| p.drains.len()).sum::<usize>()
                + self
                    .ports
                    .iter()
                    .filter(|p| p.retrying.as_ref().is_some_and(|&(_, _, d)| d))
                    .count(),
            "maintained drain counter diverged from the port scan"
        );
        self.queued_drain_count
    }

    /// Bus cycles until the bus's next self-generated event, or `None`
    /// when the bus is quiescent (idle with no backing-off requester) —
    /// the earliest cycle on which a data phase can complete or a new
    /// grant can happen. The request set cannot change between steps
    /// (submissions only happen inside a step), so a fast-forward kernel
    /// may skip strictly fewer cycles than this.
    pub fn next_event(&self) -> Option<u64> {
        match self.phase {
            BusPhase::Data { remaining } => Some(remaining),
            BusPhase::Address => Some(1), // resolves within its own cycle
            // During an injected grant blackout this is conservative (the
            // true next grant is later), which only costs the fast-forward
            // kernel extra event steps — never a missed event.
            BusPhase::Idle => (0..self.ports.len())
                .filter(|&i| self.wants_bus_effective(i))
                // A requester with no BOFF left is grantable on the next
                // cycle; otherwise it re-requests once its window elapses.
                .map(|i| self.ports[i].backoff.max(1))
                .min(),
        }
    }

    /// Bulk-advances the bus by `cycles` event-free cycles: streams the
    /// data phase and runs down BOFF windows exactly as that many
    /// [`Bus::begin_cycle`] + [`Bus::advance_data`] cycles would have,
    /// without completing anything.
    ///
    /// The caller must guarantee `cycles` is strictly less than the last
    /// [`Bus::next_event`] answer (debug-asserted).
    pub fn warp(&mut self, cycles: u64) {
        if let BusPhase::Data { remaining } = &mut self.phase {
            debug_assert!(cycles < *remaining, "warp across a data-phase completion");
            *remaining -= cycles;
            self.stats.data_cycles += cycles;
        } else {
            debug_assert!(
                !(0..self.ports.len())
                    .any(|i| self.wants_bus_effective(i) && self.ports[i].backoff.max(1) <= cycles),
                "warp across a grant opportunity"
            );
        }
        for p in &mut self.ports {
            p.backoff = p.backoff.saturating_sub(cycles);
        }
        self.grant_block = self.grant_block.saturating_sub(cycles);
    }

    /// Runs arbitration if the bus is idle. On a grant, the returned
    /// transaction is in its address phase and **must** be resolved with
    /// [`Bus::resolve`] in the same cycle.
    ///
    /// A grant is reported to `obs` as [`SimEvent::BusGrant`], timestamped
    /// `now` — a typed event, so a null observer costs nothing.
    pub fn try_grant(&mut self, now: Cycle, obs: &mut impl Observer) -> Option<GrantedTxn> {
        if self.phase != BusPhase::Idle {
            return None;
        }
        if self.grant_block > 0 {
            return None;
        }
        for i in 0..self.ports.len() {
            self.req_mask[i] = self.ports[i].backoff == 0 && self.wants_bus_effective(i);
            self.stamp_mask[i] = self.ports[i].stamp;
        }
        let master = self
            .arbiter
            .grant_stamped(&self.req_mask, &self.stamp_mask)?;
        self.grants_per_master[master.index()] += 1;
        let quarantined = self.quarantined[master.index()];
        let port = &mut self.ports[master.index()];
        // A quarantined master's non-drain retry stays parked; only its
        // drains are eligible.
        let take_retrying = port
            .retrying
            .as_ref()
            .is_some_and(|&(_, _, d)| d || !quarantined);
        let txn = if take_retrying {
            let (op, addr, was_drain) = port.retrying.take().expect("checked above");
            if was_drain {
                self.queued_drain_count -= 1;
            }
            GrantedTxn {
                master,
                op,
                addr,
                is_drain: was_drain,
                is_retry: true,
            }
        } else if let Some((data, addr)) = port.drains.pop_front() {
            self.queued_drain_count -= 1;
            GrantedTxn {
                master,
                op: BusOp::WriteLine(data),
                addr,
                is_drain: true,
                is_retry: false,
            }
        } else {
            let (op, addr) = port.fresh.take().expect("wants_bus implies work");
            GrantedTxn {
                master,
                op,
                addr,
                is_drain: false,
                is_retry: false,
            }
        };
        self.phase = BusPhase::Address;
        self.active = Some(Active {
            txn,
            shared: false,
            supplied: None,
        });
        obs.on_event(
            now,
            SimEvent::BusGrant {
                master: txn.master.index(),
                op: txn.op.kind(),
                addr: u64::from(txn.addr.as_u32()),
                is_retry: txn.is_retry,
                is_drain: txn.is_drain,
            },
        );
        Some(txn)
    }

    fn emit_complete(now: Cycle, obs: &mut impl Observer, done: &CompletedTxn) {
        obs.on_event(
            now,
            SimEvent::BusComplete {
                master: done.master.index(),
                op: done.op.kind(),
                addr: u64::from(done.addr.as_u32()),
                is_drain: done.is_drain,
            },
        );
    }

    /// Applies the snoop verdict to the transaction in its address phase.
    ///
    /// Returns the completed transaction immediately when the data phase is
    /// empty (upgrade broadcasts); completions are reported to `obs` as
    /// [`SimEvent::BusComplete`] (the close of the lifecycle span).
    ///
    /// # Panics
    ///
    /// Panics if no transaction is in its address phase.
    pub fn resolve(
        &mut self,
        outcome: AddressOutcome,
        now: Cycle,
        obs: &mut impl Observer,
    ) -> Option<CompletedTxn> {
        assert_eq!(
            self.phase,
            BusPhase::Address,
            "resolve() outside the address phase"
        );
        let active = self.active.take().expect("address phase has a txn");
        match outcome {
            AddressOutcome::Retry => {
                self.stats.retries += 1;
                let t = active.txn;
                let mut backoff = self.retry_backoff;
                // Escalation counts only CPU transactions: a drain retried
                // behind a busy line is normal protocol traffic.
                let recovery = self.recovery_for(t.master);
                if !t.is_drain && recovery.enabled() {
                    let n = &mut self.consecutive_retries[t.master.index()];
                    *n = n.saturating_add(1);
                    if recovery.retry_budget > 0 && *n >= recovery.retry_budget {
                        backoff = backoff.max(recovery.escalation_backoff);
                    }
                }
                let port = &mut self.ports[t.master.index()];
                port.backoff = backoff;
                // The retry is a fresh BREQ as far as FCFS is concerned.
                port.stamp = now.as_u64();
                if t.is_drain {
                    let BusOp::WriteLine(data) = t.op else {
                        unreachable!("drains are always line writes");
                    };
                    // Keep write-back ordering: a retried drain re-enters at
                    // the *front* of the queue.
                    let _ = data;
                    port.retrying = Some((t.op, t.addr, true));
                    self.queued_drain_count += 1;
                } else {
                    port.retrying = Some((t.op, t.addr, false));
                }
                self.phase = BusPhase::Idle;
                None
            }
            AddressOutcome::Proceed {
                data_cycles,
                shared,
                supplied,
            } => {
                if !active.txn.is_drain {
                    self.consecutive_retries[active.txn.master.index()] = 0;
                }
                if data_cycles == 0 {
                    self.phase = BusPhase::Idle;
                    self.stats.completions += 1;
                    if active.txn.is_drain {
                        self.stats.drains += 1;
                    }
                    let done = CompletedTxn {
                        master: active.txn.master,
                        op: active.txn.op,
                        addr: active.txn.addr,
                        is_drain: active.txn.is_drain,
                        shared,
                        supplied,
                    };
                    Self::emit_complete(now, obs, &done);
                    Some(done)
                } else {
                    self.phase = BusPhase::Data {
                        remaining: data_cycles,
                    };
                    self.active = Some(Active {
                        shared,
                        supplied,
                        ..active
                    });
                    None
                }
            }
        }
    }

    /// Advances an in-flight data phase by one cycle, yielding the
    /// completed transaction when it finishes (reported to `obs` as
    /// [`SimEvent::BusComplete`]).
    ///
    /// # Panics
    ///
    /// Panics if no data phase is in flight.
    pub fn advance_data(&mut self, now: Cycle, obs: &mut impl Observer) -> Option<CompletedTxn> {
        let BusPhase::Data { remaining } = self.phase else {
            panic!("advance_data() outside the data phase");
        };
        self.stats.data_cycles += 1;
        let remaining = remaining - 1;
        if remaining > 0 {
            self.phase = BusPhase::Data { remaining };
            return None;
        }
        self.phase = BusPhase::Idle;
        let active = self.active.take().expect("data phase has a txn");
        self.stats.completions += 1;
        if active.txn.is_drain {
            self.stats.drains += 1;
        }
        let done = CompletedTxn {
            master: active.txn.master,
            op: active.txn.op,
            addr: active.txn.addr,
            is_drain: active.txn.is_drain,
            shared: active.shared,
            supplied: active.supplied,
        };
        Self::emit_complete(now, obs, &done);
        Some(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmp_sim::NullObserver;

    fn proceed(cycles: u64) -> AddressOutcome {
        AddressOutcome::Proceed {
            data_cycles: cycles,
            shared: false,
            supplied: None,
        }
    }

    #[test]
    fn grant_address_data_complete() {
        let mut bus = Bus::new(2);
        bus.submit(
            MasterId(0),
            BusOp::ReadLine,
            Addr::new(0x40),
            Cycle::ZERO,
            &mut NullObserver,
        );
        let g = bus
            .try_grant(Cycle::ZERO, &mut NullObserver)
            .expect("grant");
        assert_eq!(g.master, MasterId(0));
        assert_eq!(g.op, BusOp::ReadLine);
        assert!(!g.is_retry && !g.is_drain);
        assert_eq!(bus.phase(), BusPhase::Address);
        assert!(bus
            .resolve(proceed(3), Cycle::ZERO, &mut NullObserver)
            .is_none());
        assert!(bus.advance_data(Cycle::ZERO, &mut NullObserver).is_none());
        assert!(bus.advance_data(Cycle::ZERO, &mut NullObserver).is_none());
        let done = bus
            .advance_data(Cycle::ZERO, &mut NullObserver)
            .expect("complete");
        assert_eq!(done.master, MasterId(0));
        assert_eq!(bus.phase(), BusPhase::Idle);
        let s = bus.stats();
        assert_eq!((s.grants, s.completions, s.retries), (1, 1, 0));
        assert_eq!(s.data_cycles, 3);
    }

    #[test]
    fn zero_cycle_op_completes_in_address_phase() {
        let mut bus = Bus::new(1);
        bus.submit(
            MasterId(0),
            BusOp::Upgrade,
            Addr::new(0x40),
            Cycle::ZERO,
            &mut NullObserver,
        );
        bus.try_grant(Cycle::ZERO, &mut NullObserver).unwrap();
        let done = bus
            .resolve(proceed(0), Cycle::ZERO, &mut NullObserver)
            .expect("immediate completion");
        assert_eq!(done.op, BusOp::Upgrade);
        assert_eq!(bus.phase(), BusPhase::Idle);
    }

    #[test]
    fn retry_requeues_and_marks_retry() {
        let mut bus = Bus::new(2);
        bus.submit(
            MasterId(0),
            BusOp::ReadLine,
            Addr::new(0x40),
            Cycle::ZERO,
            &mut NullObserver,
        );
        bus.try_grant(Cycle::ZERO, &mut NullObserver).unwrap();
        assert!(bus
            .resolve(AddressOutcome::Retry, Cycle::ZERO, &mut NullObserver)
            .is_none());
        assert!(bus.cpu_txn_outstanding(MasterId(0)));
        let g = bus
            .try_grant(Cycle::ZERO, &mut NullObserver)
            .expect("retry granted");
        assert!(g.is_retry);
        assert_eq!(g.master, MasterId(0));
        assert_eq!(bus.stats().retries, 1);
    }

    #[test]
    fn drain_beats_fresh_but_loses_to_retry() {
        let mut bus = Bus::new(1);
        bus.submit(
            MasterId(0),
            BusOp::ReadLine,
            Addr::new(0x80),
            Cycle::ZERO,
            &mut NullObserver,
        );
        bus.submit_drain(
            MasterId(0),
            [7; 8],
            Addr::new(0x40),
            Cycle::ZERO,
            &mut NullObserver,
        );
        // Drain is sent before the fresh CPU transaction.
        let g = bus.try_grant(Cycle::ZERO, &mut NullObserver).unwrap();
        assert!(g.is_drain);
        assert_eq!(g.addr, Addr::new(0x40));
        assert!(bus
            .resolve(AddressOutcome::Retry, Cycle::ZERO, &mut NullObserver)
            .is_none());
        // The retried drain still precedes the fresh transaction...
        let g = bus.try_grant(Cycle::ZERO, &mut NullObserver).unwrap();
        assert!(g.is_drain && g.is_retry);
        bus.resolve(AddressOutcome::Retry, Cycle::ZERO, &mut NullObserver);
        // ...and a retried CPU transaction would precede the drain — the
        // paper's deadlock ordering — which we exercise below.
        let mut bus2 = Bus::new(1);
        bus2.submit(
            MasterId(0),
            BusOp::ReadLine,
            Addr::new(0x80),
            Cycle::ZERO,
            &mut NullObserver,
        );
        bus2.try_grant(Cycle::ZERO, &mut NullObserver).unwrap();
        bus2.resolve(AddressOutcome::Retry, Cycle::ZERO, &mut NullObserver);
        bus2.submit_drain(
            MasterId(0),
            [1; 8],
            Addr::new(0x40),
            Cycle::ZERO,
            &mut NullObserver,
        );
        let g = bus2.try_grant(Cycle::ZERO, &mut NullObserver).unwrap();
        assert!(g.is_retry && !g.is_drain, "retry outranks the queued drain");
    }

    #[test]
    fn round_robin_between_masters() {
        let mut bus = Bus::new(2);
        bus.submit(
            MasterId(0),
            BusOp::ReadWord,
            Addr::new(0x0),
            Cycle::ZERO,
            &mut NullObserver,
        );
        bus.submit(
            MasterId(1),
            BusOp::ReadWord,
            Addr::new(0x4),
            Cycle::ZERO,
            &mut NullObserver,
        );
        let g = bus.try_grant(Cycle::ZERO, &mut NullObserver).unwrap();
        assert_eq!(g.master, MasterId(0));
        bus.resolve(proceed(1), Cycle::ZERO, &mut NullObserver);
        bus.advance_data(Cycle::ZERO, &mut NullObserver).unwrap();
        let g = bus.try_grant(Cycle::ZERO, &mut NullObserver).unwrap();
        assert_eq!(g.master, MasterId(1));
    }

    #[test]
    fn no_grant_while_busy() {
        let mut bus = Bus::new(2);
        bus.submit(
            MasterId(0),
            BusOp::ReadLine,
            Addr::new(0x0),
            Cycle::ZERO,
            &mut NullObserver,
        );
        bus.submit(
            MasterId(1),
            BusOp::ReadLine,
            Addr::new(0x40),
            Cycle::ZERO,
            &mut NullObserver,
        );
        bus.try_grant(Cycle::ZERO, &mut NullObserver).unwrap();
        bus.resolve(proceed(5), Cycle::ZERO, &mut NullObserver);
        assert!(
            bus.try_grant(Cycle::ZERO, &mut NullObserver).is_none(),
            "bus is streaming data"
        );
    }

    #[test]
    fn drain_pending_to_checks_buffers() {
        let mut bus = Bus::new(2);
        bus.submit_drain(
            MasterId(1),
            [0; 8],
            Addr::new(0x44),
            Cycle::ZERO,
            &mut NullObserver,
        );
        assert!(bus.drain_pending_to(Addr::new(0x40)));
        assert!(bus.drain_pending_to(Addr::new(0x5C)));
        assert!(!bus.drain_pending_to(Addr::new(0x60)));
        assert_eq!(bus.queued_drains(), 1);
    }

    #[test]
    fn retried_drain_still_blocks_its_line() {
        let mut bus = Bus::new(1);
        bus.submit_drain(
            MasterId(0),
            [0; 8],
            Addr::new(0x40),
            Cycle::ZERO,
            &mut NullObserver,
        );
        bus.try_grant(Cycle::ZERO, &mut NullObserver).unwrap();
        bus.resolve(AddressOutcome::Retry, Cycle::ZERO, &mut NullObserver);
        assert!(bus.drain_pending_to(Addr::new(0x40)));
        assert_eq!(bus.queued_drains(), 1);
    }

    #[test]
    #[should_panic(expected = "outstanding CPU transaction")]
    fn double_submit_panics() {
        let mut bus = Bus::new(1);
        bus.submit(
            MasterId(0),
            BusOp::ReadWord,
            Addr::new(0x0),
            Cycle::ZERO,
            &mut NullObserver,
        );
        bus.submit(
            MasterId(0),
            BusOp::ReadWord,
            Addr::new(0x4),
            Cycle::ZERO,
            &mut NullObserver,
        );
    }

    #[test]
    fn completion_reports_shared_and_supplied() {
        let mut bus = Bus::new(1);
        bus.submit(
            MasterId(0),
            BusOp::ReadLine,
            Addr::new(0x40),
            Cycle::ZERO,
            &mut NullObserver,
        );
        bus.try_grant(Cycle::ZERO, &mut NullObserver).unwrap();
        bus.resolve(
            AddressOutcome::Proceed {
                data_cycles: 2,
                shared: true,
                supplied: Some([9; 8]),
            },
            Cycle::ZERO,
            &mut NullObserver,
        );
        bus.advance_data(Cycle::ZERO, &mut NullObserver);
        let done = bus.advance_data(Cycle::ZERO, &mut NullObserver).unwrap();
        assert!(done.shared);
        assert_eq!(done.supplied, Some([9; 8]));
    }

    #[test]
    fn drain_completion_counted() {
        let mut bus = Bus::new(1);
        bus.submit_drain(
            MasterId(0),
            [3; 8],
            Addr::new(0x40),
            Cycle::ZERO,
            &mut NullObserver,
        );
        let g = bus.try_grant(Cycle::ZERO, &mut NullObserver).unwrap();
        assert_eq!(g.op, BusOp::WriteLine([3; 8]));
        bus.resolve(proceed(1), Cycle::ZERO, &mut NullObserver);
        let done = bus.advance_data(Cycle::ZERO, &mut NullObserver).unwrap();
        assert!(done.is_drain);
        assert_eq!(bus.stats().drains, 1);
        assert_eq!(bus.queued_drains(), 0);
        assert!(!bus.drain_pending_to(Addr::new(0x40)));
    }

    #[test]
    fn next_event_during_data_phase_and_idle() {
        let mut bus = Bus::new(2);
        assert_eq!(bus.next_event(), None, "quiescent bus has no events");
        bus.submit(
            MasterId(0),
            BusOp::ReadLine,
            Addr::new(0x40),
            Cycle::ZERO,
            &mut NullObserver,
        );
        assert_eq!(bus.next_event(), Some(1), "requester grantable next cycle");
        bus.try_grant(Cycle::ZERO, &mut NullObserver).unwrap();
        bus.resolve(proceed(13), Cycle::ZERO, &mut NullObserver);
        assert_eq!(bus.next_event(), Some(13));
        bus.advance_data(Cycle::ZERO, &mut NullObserver);
        assert_eq!(bus.next_event(), Some(12));
    }

    #[test]
    fn next_event_respects_backoff_windows() {
        let mut bus = Bus::new(2);
        bus.set_retry_backoff(8);
        bus.submit(
            MasterId(0),
            BusOp::ReadLine,
            Addr::new(0x40),
            Cycle::ZERO,
            &mut NullObserver,
        );
        bus.try_grant(Cycle::ZERO, &mut NullObserver).unwrap();
        bus.resolve(AddressOutcome::Retry, Cycle::ZERO, &mut NullObserver);
        // The killed master sits out its BOFF window before re-requesting.
        assert_eq!(bus.next_event(), Some(8));
        bus.begin_cycle();
        assert_eq!(bus.next_event(), Some(7));
        // A second, unbackedoff requester pulls the event in.
        bus.submit(
            MasterId(1),
            BusOp::ReadWord,
            Addr::new(0x4),
            Cycle::ZERO,
            &mut NullObserver,
        );
        assert_eq!(bus.next_event(), Some(1));
    }

    #[test]
    fn warp_matches_repeated_cycles() {
        // Two identical buses mid-burst: warping one by k must equal k
        // begin_cycle + advance_data cycles on the other (no completion).
        let mk = || {
            let mut bus = Bus::new(2);
            bus.set_retry_backoff(20);
            bus.submit(
                MasterId(1),
                BusOp::ReadWord,
                Addr::new(0x4),
                Cycle::ZERO,
                &mut NullObserver,
            );
            bus.try_grant(Cycle::ZERO, &mut NullObserver).unwrap();
            bus.resolve(AddressOutcome::Retry, Cycle::ZERO, &mut NullObserver);
            bus.submit(
                MasterId(0),
                BusOp::ReadLine,
                Addr::new(0x40),
                Cycle::ZERO,
                &mut NullObserver,
            );
            bus.try_grant(Cycle::ZERO, &mut NullObserver).unwrap();
            bus.resolve(proceed(13), Cycle::ZERO, &mut NullObserver);
            bus
        };
        let mut warped = mk();
        let mut stepped = mk();
        warped.warp(9);
        for _ in 0..9 {
            stepped.begin_cycle();
            assert!(stepped
                .advance_data(Cycle::ZERO, &mut NullObserver)
                .is_none());
        }
        assert_eq!(warped.phase(), stepped.phase());
        assert_eq!(warped.stats(), stepped.stats());
        assert_eq!(warped.next_event(), stepped.next_event());
        // Both complete on the same further cycle, and the retrying
        // master's BOFF window ran down identically.
        for bus in [&mut warped, &mut stepped] {
            bus.begin_cycle();
            for _ in 0..3 {
                assert!(bus.advance_data(Cycle::ZERO, &mut NullObserver).is_none());
                bus.begin_cycle();
            }
            assert!(bus.advance_data(Cycle::ZERO, &mut NullObserver).is_some());
        }
        assert_eq!(warped.next_event(), stepped.next_event());
    }

    #[test]
    fn grant_blackout_suppresses_then_releases() {
        let mut bus = Bus::new(1);
        bus.submit(
            MasterId(0),
            BusOp::ReadLine,
            Addr::new(0x40),
            Cycle::ZERO,
            &mut NullObserver,
        );
        bus.block_grants(2);
        assert!(bus.try_grant(Cycle::ZERO, &mut NullObserver).is_none());
        bus.begin_cycle();
        assert!(bus.try_grant(Cycle::ZERO, &mut NullObserver).is_none());
        bus.begin_cycle();
        assert_eq!(bus.grant_block_remaining(), 0);
        assert!(bus.try_grant(Cycle::ZERO, &mut NullObserver).is_some());
    }

    #[test]
    fn escalation_raises_backoff_after_budget() {
        let mut bus = Bus::new(1);
        bus.set_recovery(RecoveryPolicy {
            retry_budget: 2,
            escalation_backoff: 50,
            quarantine_after: 0,
        });
        bus.submit(
            MasterId(0),
            BusOp::ReadLine,
            Addr::new(0x40),
            Cycle::ZERO,
            &mut NullObserver,
        );
        // First kill: under budget, no escalated BOFF.
        bus.try_grant(Cycle::ZERO, &mut NullObserver).unwrap();
        bus.resolve(AddressOutcome::Retry, Cycle::ZERO, &mut NullObserver);
        assert_eq!(bus.consecutive_retries(MasterId(0)), 1);
        assert_eq!(bus.next_event(), Some(1), "no BOFF yet");
        // Second kill reaches the budget: 50-cycle BOFF.
        bus.try_grant(Cycle::ZERO, &mut NullObserver).unwrap();
        bus.resolve(AddressOutcome::Retry, Cycle::ZERO, &mut NullObserver);
        assert_eq!(bus.next_event(), Some(50), "escalated BOFF armed");
        for _ in 0..50 {
            bus.begin_cycle();
        }
        // A proceed resets the consecutive counter.
        bus.try_grant(Cycle::ZERO, &mut NullObserver).unwrap();
        bus.resolve(proceed(0), Cycle::ZERO, &mut NullObserver);
        assert_eq!(bus.consecutive_retries(MasterId(0)), 0);
    }

    #[test]
    fn quarantine_starves_cpu_txns_but_drains_flow() {
        let mut bus = Bus::new(1);
        bus.submit(
            MasterId(0),
            BusOp::ReadLine,
            Addr::new(0x80),
            Cycle::ZERO,
            &mut NullObserver,
        );
        bus.try_grant(Cycle::ZERO, &mut NullObserver).unwrap();
        bus.resolve(AddressOutcome::Retry, Cycle::ZERO, &mut NullObserver);
        bus.submit_drain(
            MasterId(0),
            [5; 8],
            Addr::new(0x40),
            Cycle::ZERO,
            &mut NullObserver,
        );
        assert!(bus.quarantine(MasterId(0)), "newly quarantined");
        assert!(!bus.quarantine(MasterId(0)), "already quarantined");
        assert!(bus.is_quarantined(MasterId(0)));
        assert_eq!(bus.quarantined_count(), 1);
        // The parked retry is skipped; the drain is granted instead.
        let g = bus.try_grant(Cycle::ZERO, &mut NullObserver).unwrap();
        assert!(g.is_drain);
        bus.resolve(proceed(1), Cycle::ZERO, &mut NullObserver);
        bus.advance_data(Cycle::ZERO, &mut NullObserver).unwrap();
        // Nothing grantable remains, and the bus reports quiescence even
        // though the parked CPU retry still exists.
        assert!(bus.try_grant(Cycle::ZERO, &mut NullObserver).is_none());
        assert_eq!(bus.next_event(), None);
        assert!(bus.cpu_txn_outstanding(MasterId(0)), "txn parked, not lost");
    }

    #[test]
    fn fcfs_on_the_bus_grants_in_arrival_order() {
        let mut bus = Bus::new(3);
        bus.set_arbitration(ArbitrationPolicy::Fcfs);
        // Master 2 asks first (cycle 1), then 0 (cycle 3), then 1 (cycle 4).
        bus.submit(
            MasterId(2),
            BusOp::ReadWord,
            Addr::new(0x8),
            Cycle::new(1),
            &mut NullObserver,
        );
        bus.submit(
            MasterId(0),
            BusOp::ReadWord,
            Addr::new(0x0),
            Cycle::new(3),
            &mut NullObserver,
        );
        bus.submit(
            MasterId(1),
            BusOp::ReadWord,
            Addr::new(0x4),
            Cycle::new(4),
            &mut NullObserver,
        );
        let mut order = Vec::new();
        for now in 5..8 {
            let g = bus.try_grant(Cycle::new(now), &mut NullObserver).unwrap();
            order.push(g.master.index());
            bus.resolve(proceed(0), Cycle::new(now), &mut NullObserver);
        }
        assert_eq!(order, vec![2, 0, 1], "oldest outstanding request first");
    }

    #[test]
    fn fcfs_retry_requeues_at_the_back() {
        let mut bus = Bus::new(2);
        bus.set_arbitration(ArbitrationPolicy::Fcfs);
        bus.submit(
            MasterId(1),
            BusOp::ReadLine,
            Addr::new(0x40),
            Cycle::new(1),
            &mut NullObserver,
        );
        bus.submit(
            MasterId(0),
            BusOp::ReadLine,
            Addr::new(0x80),
            Cycle::new(2),
            &mut NullObserver,
        );
        // Master 1 wins (older) but is ARTRY-killed at cycle 5: its retry
        // is a fresh request stamped 5 and now queues behind master 0.
        let g = bus.try_grant(Cycle::new(5), &mut NullObserver).unwrap();
        assert_eq!(g.master, MasterId(1));
        bus.resolve(AddressOutcome::Retry, Cycle::new(5), &mut NullObserver);
        let g = bus.try_grant(Cycle::new(6), &mut NullObserver).unwrap();
        assert_eq!(g.master, MasterId(0), "killed master lost its queue slot");
    }

    #[test]
    fn per_master_grant_counts_accumulate() {
        let mut bus = Bus::new(2);
        for _ in 0..3 {
            bus.submit(
                MasterId(0),
                BusOp::ReadWord,
                Addr::new(0x0),
                Cycle::ZERO,
                &mut NullObserver,
            );
            bus.try_grant(Cycle::ZERO, &mut NullObserver).unwrap();
            bus.resolve(proceed(0), Cycle::ZERO, &mut NullObserver);
        }
        bus.submit(
            MasterId(1),
            BusOp::ReadWord,
            Addr::new(0x4),
            Cycle::ZERO,
            &mut NullObserver,
        );
        bus.try_grant(Cycle::ZERO, &mut NullObserver).unwrap();
        bus.resolve(proceed(0), Cycle::ZERO, &mut NullObserver);
        assert_eq!(bus.master_grants(), &[3, 1]);
        assert_eq!(bus.stats().grants, 4, "aggregate stays in sync");
    }

    #[test]
    fn bridge_penalty_applies_only_across_segments() {
        let mut bus = Bus::new(4);
        assert_eq!(bus.segments(), 1);
        assert_eq!(bus.bridge_penalty(MasterId(3), None), 0, "flat bus is free");
        bus.set_segments(&[0, 0, 1, 1], 2, 6);
        assert_eq!(bus.segments(), 2);
        assert_eq!(bus.segment_of(MasterId(1)), 0);
        assert_eq!(bus.segment_of(MasterId(2)), 1);
        assert_eq!(bus.bridge_latency(), 6);
        // Memory is homed on segment 0: remote masters pay the crossing.
        assert_eq!(bus.bridge_penalty(MasterId(0), None), 0);
        assert_eq!(bus.bridge_penalty(MasterId(2), None), 6);
        // Cache-to-cache within a segment is free; across it pays.
        assert_eq!(bus.bridge_penalty(MasterId(2), Some(3)), 0);
        assert_eq!(bus.bridge_penalty(MasterId(2), Some(0)), 6);
        assert_eq!(bus.bridge_penalty(MasterId(0), Some(1)), 0);
        assert_eq!(bus.bridge_penalty(MasterId(0), Some(3)), 6);
    }

    #[test]
    #[should_panic(expected = "segment index out of range")]
    fn bad_segment_map_panics() {
        Bus::new(2).set_segments(&[0, 2], 2, 4);
    }

    #[test]
    fn per_master_recovery_override_escalates_independently() {
        let mut bus = Bus::new(2);
        // No bus-wide policy; master 1 alone gets a tight budget.
        bus.set_master_recovery(
            MasterId(1),
            RecoveryPolicy {
                retry_budget: 1,
                escalation_backoff: 40,
                quarantine_after: 0,
            },
        );
        assert!(!bus.recovery().enabled());
        assert!(bus.recovery_for(MasterId(1)).enabled());
        assert!(bus.recovery_armed());
        // Master 0 retries without escalation.
        bus.submit(
            MasterId(0),
            BusOp::ReadLine,
            Addr::new(0x40),
            Cycle::ZERO,
            &mut NullObserver,
        );
        bus.try_grant(Cycle::ZERO, &mut NullObserver).unwrap();
        bus.resolve(AddressOutcome::Retry, Cycle::ZERO, &mut NullObserver);
        assert_eq!(bus.consecutive_retries(MasterId(0)), 0, "not tracked");
        assert_eq!(bus.next_event(), Some(1), "no BOFF for master 0");
        bus.try_grant(Cycle::ZERO, &mut NullObserver).unwrap();
        bus.resolve(proceed(0), Cycle::ZERO, &mut NullObserver);
        // Master 1's first kill already escalates its BOFF.
        bus.submit(
            MasterId(1),
            BusOp::ReadLine,
            Addr::new(0x80),
            Cycle::ZERO,
            &mut NullObserver,
        );
        bus.try_grant(Cycle::ZERO, &mut NullObserver).unwrap();
        bus.resolve(AddressOutcome::Retry, Cycle::ZERO, &mut NullObserver);
        assert_eq!(bus.consecutive_retries(MasterId(1)), 1);
        assert_eq!(bus.next_event(), Some(40), "override BOFF armed");
    }

    #[test]
    #[should_panic(expected = "outside the address phase")]
    fn resolve_when_idle_panics() {
        Bus::new(1).resolve(AddressOutcome::Retry, Cycle::ZERO, &mut NullObserver);
    }

    #[test]
    #[should_panic(expected = "outside the data phase")]
    fn advance_when_idle_panics() {
        Bus::new(1).advance_data(Cycle::ZERO, &mut NullObserver);
    }
}
