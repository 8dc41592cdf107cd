//! The coherence pipeline: typed address-phase and completion-phase
//! decisions.
//!
//! The paper's contribution is the *address/snoop-phase semantics* — what
//! each remote agent does when it observes a transaction, and how those
//! per-agent reactions combine into the bus's verdict. This module keeps
//! that logic in one layer, as data:
//!
//! 1. [`snoop_node`] asks one remote node (wrapper + cache, or TAG-CAM)
//!    for its [`SnoopVerdict`] on an address phase — the §2.1–2.3 wrapper
//!    cases and the §3 CAM case, one node at a time;
//! 2. [`AddressPhase`] folds the verdicts into the bus-level
//!    [`AddressOutcome`] (proceed with data-phase length, SHARED and
//!    cache-to-cache supply — or ARTRY, with queued snoop-push drains);
//! 3. [`completion_action`] maps a completed bus transaction back to the
//!    typed [`CompletionAction`] the platform must apply for the pending
//!    CPU request.
//!
//! The effectful halves — submitting drains, touching memory, waking CPUs
//! — stay in the `System` methods at the bottom of this file, which
//! consume the typed layer. Every decision in between is a plain function
//! over plain values, unit-testable without a bus or a clock.

use crate::system::System;
use hmp_bus::{AddressOutcome, BusOp, CompletedTxn, GrantedTxn, MasterId};
use hmp_cache::{Access, DataCache, ReadProbe, SnoopAction, WriteProbe};
use hmp_core::{SnoopLogic, Wrapper};
use hmp_cpu::{MemRequest, MemResult, ReqKind};
use hmp_mem::{Addr, MemAttr, LINE_WORDS};
use hmp_sim::{CounterBank, CpuCounter, Cycle, Observer, RetryCause, SimEvent};

/// One cache line of data, as moved by drains and supplies.
pub type LineData = [u32; LINE_WORDS as usize];

/// What one remote node does when it observes an address phase.
///
/// This is the typed form of the paper's per-agent snoop reactions: a
/// wrapped cache replies through its snoop port (§2), a non-coherent
/// processor's TAG-CAM objects until its drain ISR has run (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnoopVerdict {
    /// The node holds nothing relevant (or its snoop port is not wired).
    Miss,
    /// A clean copy reacted with at most a state change; `shared` is the
    /// node's SHARED-signal contribution.
    Hit {
        /// Whether the node asserts the bus SHARED signal.
        shared: bool,
    },
    /// The node holds the line dirty and pushes it to memory first: the
    /// observed transaction is killed (ARTRY) and `data` is queued as a
    /// snoop-push drain on the node's master port.
    Drain {
        /// The dirty line being pushed.
        data: LineData,
    },
    /// The node supplies its dirty line cache-to-cache (MOESI): the
    /// transaction proceeds, memory is bypassed.
    Supply {
        /// The supplied line.
        data: LineData,
        /// Whether the node also asserts SHARED.
        shared: bool,
    },
    /// The node's TAG-CAM matched: ARTRY until the drain ISR empties the
    /// non-coherent processor's cache line.
    CamConflict,
}

/// Asks one remote node for its verdict on an address phase.
///
/// Exactly one of the two snoop paths applies per node: a coherent
/// processor snoops through its wrapper-translated cache port; a
/// non-coherent processor is represented by its TAG-CAM (when the
/// platform's snoop logic is enabled at all — the baselines run without
/// it).
#[allow(clippy::too_many_arguments)]
pub fn snoop_node(
    wrapper: Option<&mut Wrapper>,
    cache: &mut DataCache,
    cam: Option<&mut SnoopLogic>,
    snoop_logic_enabled: bool,
    op: &BusOp,
    addr: Addr,
    at: Cycle,
    obs: &mut impl Observer,
) -> SnoopVerdict {
    if let Some(wrapper) = wrapper {
        let sop = wrapper.translate_snoop(op);
        match cache.snoop(addr, sop, at, obs) {
            None => SnoopVerdict::Miss,
            Some(reply) => match reply.action {
                SnoopAction::None => SnoopVerdict::Hit {
                    shared: reply.asserts_shared,
                },
                SnoopAction::WritebackLine => SnoopVerdict::Drain {
                    data: reply.data.expect("writeback carries data"),
                },
                SnoopAction::SupplyLine => SnoopVerdict::Supply {
                    data: reply.data.expect("supply carries data"),
                    shared: reply.asserts_shared,
                },
            },
        }
    } else if snoop_logic_enabled {
        match cam {
            Some(cam) => {
                if cam.check_remote(addr, at, obs) {
                    SnoopVerdict::CamConflict
                } else {
                    SnoopVerdict::Miss
                }
            }
            None => SnoopVerdict::Miss,
        }
    } else {
        SnoopVerdict::Miss
    }
}

/// Folds per-node [`SnoopVerdict`]s into the bus-level verdict for one
/// address phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AddressPhase {
    shared: bool,
    supplied: Option<LineData>,
    retry: Option<RetryCause>,
    drains: Vec<(usize, LineData)>,
}

impl AddressPhase {
    /// Starts folding a fresh address phase.
    pub fn new() -> Self {
        AddressPhase::default()
    }

    /// Clears the fold for reuse, keeping the drain list's capacity — the
    /// cycle loop folds one address phase per grant, and reusing the
    /// buffer keeps the steady state allocation-free.
    pub fn reset(&mut self) {
        self.shared = false;
        self.supplied = None;
        self.retry = None;
        self.drains.clear();
    }

    /// Absorbs `node`'s verdict, bumping the matching activity counters.
    pub fn absorb(&mut self, node: usize, verdict: SnoopVerdict, counters: &mut CounterBank) {
        match verdict {
            SnoopVerdict::Miss => {}
            SnoopVerdict::Hit { shared } => {
                counters.bump(node, CpuCounter::SnoopHit);
                self.shared |= shared;
            }
            SnoopVerdict::Drain { data } => {
                counters.bump(node, CpuCounter::SnoopHit);
                counters.bump(node, CpuCounter::SnoopDrain);
                counters.bump_retry(RetryCause::SnoopDrain);
                self.drains.push((node, data));
                self.retry.get_or_insert(RetryCause::SnoopDrain);
            }
            SnoopVerdict::Supply { data, shared } => {
                counters.bump(node, CpuCounter::SnoopHit);
                counters.bump(node, CpuCounter::CacheToCache);
                self.supplied = Some(data);
                self.shared |= shared;
            }
            SnoopVerdict::CamConflict => {
                counters.bump(node, CpuCounter::CamHit);
                counters.bump_retry(RetryCause::CamHit);
                self.retry.get_or_insert(RetryCause::CamHit);
            }
        }
    }

    /// Why the phase must be killed, if any verdict demanded ARTRY.
    pub fn retry_cause(&self) -> Option<RetryCause> {
        self.retry
    }

    /// Snoop-push drains to queue, in node order.
    pub fn drains(&self) -> &[(usize, LineData)] {
        &self.drains
    }

    /// The folded bus verdict. Data-phase length depends on where the
    /// data comes from: a cache-to-cache supply streams a word per bus
    /// cycle, memory costs its configured word / line-fill latency, and
    /// upgrade broadcasts carry no data at all.
    pub fn outcome(&self, op: &BusOp, word_latency: u64, line_fill_latency: u64) -> AddressOutcome {
        if self.retry.is_some() {
            return AddressOutcome::Retry;
        }
        let data_cycles = match op {
            BusOp::ReadLine | BusOp::ReadLineExcl | BusOp::WriteLine(_) => {
                if self.supplied.is_some() {
                    u64::from(LINE_WORDS)
                } else {
                    line_fill_latency
                }
            }
            BusOp::ReadWord | BusOp::WriteWord(_) => word_latency,
            BusOp::Upgrade => 0,
        };
        AddressOutcome::Proceed {
            data_cycles,
            shared: self.shared,
            supplied: self.supplied,
        }
    }
}

/// Why a CPU transaction is on the bus — what to do when it completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PendingKind {
    /// Single-word bus operation (uncached, device, write-through store,
    /// no-allocate store).
    Word {
        /// Memory attribute of the target, deciding memory vs. device.
        attr: MemAttr,
    },
    /// Line fill in flight.
    Fill {
        /// Whether the fill services a read or a write.
        access: Access,
        /// The store value, for write fills.
        value: Option<u32>,
        /// Whether the line fills in write-through mode.
        wt: bool,
    },
    /// Upgrade broadcast in flight.
    Upgrade {
        /// The store value to commit on completion.
        value: u32,
    },
    /// Flush write-back in flight.
    FlushWb,
}

/// A CPU's outstanding bus transaction: the originating request plus what
/// kind of completion it awaits.
#[derive(Debug, Clone, Copy)]
pub struct Pending {
    /// The memory request that caused the transaction.
    pub req: MemRequest,
    /// What to do when the bus completes it.
    pub kind: PendingKind,
}

/// The typed completion verdict: what the platform must do when a CPU's
/// bus transaction finishes its data phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionAction {
    /// Deliver a single word from memory or a device.
    WordRead {
        /// Memory attribute of the target.
        attr: MemAttr,
    },
    /// Commit a single word to memory or a device.
    WordWrite {
        /// Memory attribute of the target.
        attr: MemAttr,
        /// The word to commit.
        value: u32,
    },
    /// Install the filled line and complete the read or write it services.
    LineFill {
        /// Whether the fill services a read or a write.
        access: Access,
        /// The store value, for write fills.
        value: Option<u32>,
        /// Whether the line fills in write-through mode.
        wt: bool,
    },
    /// Commit the store the upgrade broadcast was for (or restart it as a
    /// write miss if the line was snoop-invalidated while waiting).
    UpgradeFinish {
        /// The store value.
        value: u32,
    },
    /// Land a flushed dirty line in memory.
    FlushWriteback {
        /// The flushed line.
        data: LineData,
        /// Whether the ARM drain ISR issued the flush (acks the CAM).
        from_isr: bool,
    },
}

/// Maps a completed transaction and its pending record to the typed
/// completion verdict.
///
/// # Panics
///
/// Panics if the completed operation does not match the pending kind —
/// the modelled cores are blocking, so a mismatch is a platform bug.
pub fn completion_action(op: &BusOp, pending: &Pending) -> CompletionAction {
    match (op, pending.kind) {
        (BusOp::ReadWord, PendingKind::Word { attr }) => CompletionAction::WordRead { attr },
        (&BusOp::WriteWord(value), PendingKind::Word { attr }) => {
            CompletionAction::WordWrite { attr, value }
        }
        (BusOp::ReadLine | BusOp::ReadLineExcl, PendingKind::Fill { access, value, wt }) => {
            CompletionAction::LineFill { access, value, wt }
        }
        (BusOp::Upgrade, PendingKind::Upgrade { value }) => {
            CompletionAction::UpgradeFinish { value }
        }
        (&BusOp::WriteLine(data), PendingKind::FlushWb) => CompletionAction::FlushWriteback {
            data,
            from_isr: pending.req.from_isr,
        },
        (op, kind) => unreachable!("mismatched completion: {op} vs {kind:?}"),
    }
}

// ---------------------------------------------------------------------
// The effectful half: `System` methods consuming the typed layer.
// ---------------------------------------------------------------------

impl System {
    /// Snoops an address phase across all remote nodes and folds the
    /// verdicts into the bus's [`AddressOutcome`], queueing any snoop-push
    /// drains.
    pub(crate) fn snoop_and_decide(&mut self, txn: &GrantedTxn) -> AddressOutcome {
        let addr = txn.addr;
        // Write-buffer interlock (CPU transactions only; drains *are* the
        // buffers being emptied).
        if !txn.is_drain && self.bus.drain_pending_to(addr) {
            self.counters.bump_retry(RetryCause::WriteBuffer);
            self.emit_retry(txn, RetryCause::WriteBuffer);
            return AddressOutcome::Retry;
        }

        let mut phase = std::mem::take(&mut self.phase_scratch);
        phase.reset();
        let mut supplier: Option<usize> = None;
        for j in 0..self.nodes.len() {
            if j == txn.master.index() {
                continue;
            }
            let node = &mut self.nodes[j];
            // Occupancy pre-filter: a coherent node whose cache provably
            // lacks the line, or a CAM node whose TAG CAM provably holds
            // no tag for it, cannot react — skip the snoop dispatch. The
            // filters never report a false negative, so this is the same
            // Miss verdict without the port round-trip.
            let may_react = if node.wrapper.is_some() {
                node.cache.may_hold(addr)
            } else {
                self.run.snoop_logic_enabled && node.cam.as_ref().is_some_and(|c| c.may_match(addr))
            };
            if !may_react {
                continue;
            }
            let verdict = snoop_node(
                node.wrapper.as_mut(),
                &mut node.cache,
                node.cam.as_mut(),
                self.run.snoop_logic_enabled,
                &txn.op,
                addr,
                self.run.now,
                &mut self.obs,
            );
            if matches!(verdict, SnoopVerdict::Supply { .. }) {
                supplier = Some(j);
            }
            if verdict == SnoopVerdict::CamConflict {
                // The CAM queued (or re-confirmed) a pending line: node
                // `j`'s nFIQ delivery horizon may have moved.
                self.sched.mark_dirty(j);
            }
            phase.absorb(j, verdict, &mut self.counters);
        }
        for &(j, data) in phase.drains() {
            self.bus
                .submit_drain(MasterId(j), data, addr, self.run.now, &mut self.obs);
        }
        let mut outcome = if let Some(cause) = phase.retry_cause() {
            self.emit_retry(txn, cause);
            AddressOutcome::Retry
        } else {
            phase.outcome(
                &txn.op,
                self.mem.word_latency().as_u64(),
                self.mem.line_fill_latency().as_u64(),
            )
        };
        // Data that crosses the snooping bridge (requester and its data
        // source on different segments) pays the bridge's store-and-forward
        // latency in extra data-phase cycles; address forwarding itself is
        // combinational, and upgrades move no data.
        if let AddressOutcome::Proceed { data_cycles, .. } = &mut outcome {
            if *data_cycles > 0 && self.bus.crosses_bridge(txn.master, supplier) {
                *data_cycles += self.bus.bridge_latency();
                if let Some(ts) = &mut self.obs.series {
                    ts.record_bridge_crossing(self.run.now);
                }
            }
        }
        self.phase_scratch = phase;
        outcome
    }

    /// Classifies `addr`'s holder set against the structural line
    /// invariants (no-op when the spec left checking disabled).
    pub(crate) fn check_line_invariants(&mut self, addr: Addr) {
        let Some(inv) = &mut self.invariants else {
            return;
        };
        inv.check_line(
            self.run.now,
            addr,
            self.nodes.iter().enumerate().filter_map(|(i, n)| {
                // Same occupancy pre-filter as the snoop loop: `may_hold`
                // returning false guarantees `line_state` is `None`.
                if !n.cache.may_hold(addr) {
                    return None;
                }
                n.cache.line_state(addr).map(|s| (i, s))
            }),
        );
    }

    pub(crate) fn emit_retry(&mut self, txn: &GrantedTxn, cause: RetryCause) {
        self.obs.on_event(
            self.run.now,
            SimEvent::BusRetry {
                master: txn.master.index(),
                addr: u64::from(txn.addr.as_u32()),
                cause,
            },
        );
    }

    /// Applies a completed bus transaction: drains land in memory
    /// directly; CPU transactions are classified by [`completion_action`]
    /// and executed.
    pub(crate) fn complete_txn(&mut self, done: CompletedTxn) {
        let m = done.master.index();
        // Completions wake the master's CPU (or ack its CAM's pending
        // line); its event horizon must be re-derived at the next plan.
        self.sched.mark_dirty(m);
        if done.is_drain {
            let BusOp::WriteLine(data) = done.op else {
                unreachable!("drains are line writes");
            };
            self.mem.write_line(done.addr, &data);
            if let Some(cam) = &mut self.nodes[m].cam {
                cam.observe_local_writeback(done.addr);
            }
            self.check_line_invariants(done.addr);
            return;
        }

        let pending = self.nodes[m]
            .pending
            .take()
            .expect("completed CPU transaction has a pending record");
        match completion_action(&done.op, &pending) {
            CompletionAction::WordRead { attr } => {
                let value = match attr {
                    MemAttr::Device(id) => self.devices[id as usize].read_word(done.addr),
                    _ => {
                        let v = self.mem.read_word(done.addr);
                        if let Some(c) = &mut self.checker {
                            c.on_read(self.run.now, m, done.addr, v);
                        }
                        v
                    }
                };
                self.counters.bump(m, CpuCounter::UncachedRead);
                self.nodes[m].cpu.complete_mem(MemResult::Value(value));
            }
            CompletionAction::WordWrite { attr, value } => {
                match attr {
                    MemAttr::Device(id) => self.devices[id as usize].write_word(done.addr, value),
                    _ => {
                        self.mem.write_word(done.addr, value);
                        if let Some(c) = &mut self.checker {
                            c.on_write(done.addr, value);
                        }
                    }
                }
                self.counters.bump(m, CpuCounter::UncachedWrite);
                self.nodes[m].cpu.complete_mem(MemResult::Done);
            }
            CompletionAction::LineFill { access, value, wt } => {
                let line = done.addr.line_base();
                let data = done.supplied.unwrap_or_else(|| self.mem.read_line(line));
                let mut gated_shared = match &mut self.nodes[m].wrapper {
                    Some(w) => w.gate_shared(done.shared),
                    None => false,
                };
                // An armed SHARED-signal corruption overrides whatever the
                // wrapper translated, once.
                if let Some(engine) = &mut self.run.faults {
                    if let Some(forced) = engine.shared_force[m].take() {
                        gated_shared = forced;
                    }
                }
                self.nodes[m].cache.fill(
                    line,
                    data,
                    access,
                    gated_shared,
                    wt,
                    self.run.now,
                    &mut self.obs,
                );
                if let Some(cam) = &mut self.nodes[m].cam {
                    cam.observe_local_fill(line);
                }
                match access {
                    Access::Read => {
                        let v = data[done.addr.word_offset_in_line() as usize];
                        if let Some(c) = &mut self.checker {
                            c.on_read(self.run.now, m, done.addr, v);
                        }
                        self.nodes[m].cpu.complete_mem(MemResult::Value(v));
                    }
                    Access::Write => {
                        let v = value.expect("write fills carry the store value");
                        self.nodes[m].cache.commit_write(done.addr, v);
                        if let Some(c) = &mut self.checker {
                            c.on_write(done.addr, v);
                        }
                        self.nodes[m].cpu.complete_mem(MemResult::Done);
                    }
                }
            }
            CompletionAction::UpgradeFinish { value } => {
                if self.nodes[m].cache.complete_upgrade(done.addr, value) {
                    if let Some(c) = &mut self.checker {
                        c.on_write(done.addr, value);
                    }
                    self.nodes[m].cpu.complete_mem(MemResult::Done);
                } else {
                    // The line was snoop-invalidated while the upgrade
                    // waited: restart the store as a write miss.
                    self.counters.bump(m, CpuCounter::UpgradeLost);
                    self.dispatch_write_miss(m, pending.req, value, false);
                }
            }
            CompletionAction::FlushWriteback { data, from_isr } => {
                self.mem.write_line(done.addr, &data);
                if let Some(cam) = &mut self.nodes[m].cam {
                    cam.observe_local_writeback(done.addr);
                    if from_isr {
                        cam.ack(done.addr);
                        self.counters.bump(m, CpuCounter::IsrDrainDirty);
                    }
                }
                self.counters.bump(m, CpuCounter::FlushDirty);
                self.nodes[m].cpu.complete_maintenance();
            }
        }
        self.check_line_invariants(done.addr);
    }

    fn evict_victim(&mut self, i: usize, victim: Option<hmp_cache::EvictedLine>) {
        if let Some(v) = victim {
            if v.dirty {
                self.sync_bus();
                self.run.bus_sched_dirty = true;
                self.bus
                    .submit_drain(MasterId(i), v.data, v.addr, self.run.now, &mut self.obs);
                self.counters.bump(i, CpuCounter::VictimWriteback);
            } else {
                self.counters.bump(i, CpuCounter::VictimClean);
                // A clean eviction is invisible on the bus, so a TAG CAM
                // keeps a stale (conservative) entry — see SnoopLogic docs.
            }
        }
    }

    /// Submits node `i`'s transaction. A submission is the one change to
    /// the bus's event horizon a CPU tick can make, so it marks that
    /// horizon for a rescan; hits and clean maintenance leave it alone.
    /// The bus first catches up on its deferred warp: those cycles
    /// passed before the request, when no grant was possible. The victim
    /// write-back in [`System::evict_victim`] does the same.
    fn submit(&mut self, i: usize, op: BusOp, addr: Addr) {
        self.sync_bus();
        self.run.bus_sched_dirty = true;
        self.bus
            .submit(MasterId(i), op, addr, self.run.now, &mut self.obs);
    }

    fn dispatch_write_miss(&mut self, i: usize, req: MemRequest, value: u32, wt: bool) {
        let probe = self.nodes[i].cache.probe_write(req.addr, value, wt);
        match probe {
            WriteProbe::Miss { victim } => {
                self.evict_victim(i, victim);
                self.submit(i, BusOp::ReadLineExcl, req.addr);
                self.nodes[i].pending = Some(Pending {
                    req,
                    kind: PendingKind::Fill {
                        access: Access::Write,
                        value: Some(value),
                        wt,
                    },
                });
            }
            other => unreachable!("restarted write miss cannot {other:?}"),
        }
    }

    /// Services a CPU's issued memory request: local cache work completes
    /// immediately; anything needing the bus submits a transaction and
    /// parks a [`Pending`] record.
    pub(crate) fn handle_request(&mut self, i: usize, req: MemRequest) {
        let attr = self.map.classify(req.addr);
        match req.kind {
            ReqKind::Read => match attr {
                MemAttr::CachedWriteBack | MemAttr::CachedWriteThrough => {
                    let wt = attr == MemAttr::CachedWriteThrough;
                    match self.nodes[i].cache.probe_read(req.addr) {
                        ReadProbe::Hit(v) => {
                            self.counters.bump(i, CpuCounter::ReadHit);
                            if let Some(c) = &mut self.checker {
                                c.on_read(self.run.now, i, req.addr, v);
                            }
                            self.nodes[i].cpu.complete_mem(MemResult::Value(v));
                        }
                        ReadProbe::Miss { victim } => {
                            self.counters.bump(i, CpuCounter::ReadMiss);
                            self.evict_victim(i, victim);
                            self.submit(i, BusOp::ReadLine, req.addr);
                            self.nodes[i].pending = Some(Pending {
                                req,
                                kind: PendingKind::Fill {
                                    access: Access::Read,
                                    value: None,
                                    wt,
                                },
                            });
                        }
                    }
                }
                MemAttr::Uncached | MemAttr::Device(_) => {
                    self.submit(i, BusOp::ReadWord, req.addr);
                    self.nodes[i].pending = Some(Pending {
                        req,
                        kind: PendingKind::Word { attr },
                    });
                }
            },
            ReqKind::Write(value) => match attr {
                MemAttr::CachedWriteBack | MemAttr::CachedWriteThrough => {
                    let wt = attr == MemAttr::CachedWriteThrough;
                    match self.nodes[i].cache.probe_write(req.addr, value, wt) {
                        WriteProbe::Hit => {
                            self.counters.bump(i, CpuCounter::WriteHit);
                            if let Some(c) = &mut self.checker {
                                c.on_write(req.addr, value);
                            }
                            self.nodes[i].cpu.complete_mem(MemResult::Done);
                            // A MEI-style silent E→M upgrade is invisible
                            // on the bus — this is the one holder-set
                            // change no bus completion covers.
                            self.check_line_invariants(req.addr);
                        }
                        WriteProbe::HitNeedsUpgrade => {
                            self.counters.bump(i, CpuCounter::WriteUpgrade);
                            self.submit(i, BusOp::Upgrade, req.addr);
                            self.nodes[i].pending = Some(Pending {
                                req,
                                kind: PendingKind::Upgrade { value },
                            });
                        }
                        WriteProbe::HitWriteThrough => {
                            // Locally stored; the word must also reach
                            // memory. Golden commit happens at bus
                            // completion — remote access is interlocked on
                            // the pending word write until then.
                            self.counters.bump(i, CpuCounter::WriteThrough);
                            self.submit(i, BusOp::WriteWord(value), req.addr);
                            self.nodes[i].pending = Some(Pending {
                                req,
                                kind: PendingKind::Word { attr },
                            });
                        }
                        WriteProbe::Miss { victim } => {
                            self.counters.bump(i, CpuCounter::WriteMiss);
                            self.evict_victim(i, victim);
                            self.submit(i, BusOp::ReadLineExcl, req.addr);
                            self.nodes[i].pending = Some(Pending {
                                req,
                                kind: PendingKind::Fill {
                                    access: Access::Write,
                                    value: Some(value),
                                    wt,
                                },
                            });
                        }
                        WriteProbe::MissNoAllocate => {
                            self.counters.bump(i, CpuCounter::WriteNoAllocate);
                            self.submit(i, BusOp::WriteWord(value), req.addr);
                            self.nodes[i].pending = Some(Pending {
                                req,
                                kind: PendingKind::Word { attr },
                            });
                        }
                    }
                }
                MemAttr::Uncached | MemAttr::Device(_) => {
                    self.submit(i, BusOp::WriteWord(value), req.addr);
                    self.nodes[i].pending = Some(Pending {
                        req,
                        kind: PendingKind::Word { attr },
                    });
                }
            },
            ReqKind::Flush => {
                match self.nodes[i].cache.flush_line(req.addr) {
                    Some((true, data)) => {
                        self.submit(i, BusOp::WriteLine(data), req.addr.line_base());
                        self.nodes[i].pending = Some(Pending {
                            req,
                            kind: PendingKind::FlushWb,
                        });
                    }
                    Some((false, _)) | None => {
                        // Clean or absent: no bus work.
                        self.counters.bump(i, CpuCounter::FlushClean);
                        if req.from_isr {
                            if let Some(cam) = &mut self.nodes[i].cam {
                                cam.ack(req.addr);
                            }
                            self.counters.bump(i, CpuCounter::IsrDrainClean);
                        }
                        self.nodes[i].cpu.complete_maintenance();
                    }
                }
            }
            ReqKind::Invalidate => {
                self.nodes[i].cache.invalidate_line(req.addr);
                self.counters.bump(i, CpuCounter::Invalidate);
                if req.from_isr {
                    if let Some(cam) = &mut self.nodes[i].cam {
                        cam.ack(req.addr);
                    }
                }
                self.nodes[i].cpu.complete_maintenance();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmp_sim::NullObserver;

    #[test]
    fn address_phase_folds_shared_and_supply() {
        let mut counters = CounterBank::new(3);
        let mut phase = AddressPhase::new();
        phase.absorb(1, SnoopVerdict::Hit { shared: true }, &mut counters);
        phase.absorb(
            2,
            SnoopVerdict::Supply {
                data: [7; 8],
                shared: false,
            },
            &mut counters,
        );
        assert_eq!(phase.retry_cause(), None);
        let out = phase.outcome(&BusOp::ReadLine, 2, 13);
        assert_eq!(
            out,
            AddressOutcome::Proceed {
                data_cycles: u64::from(LINE_WORDS),
                shared: true,
                supplied: Some([7; 8]),
            }
        );
        assert_eq!(counters.get(1, CpuCounter::SnoopHit), 1);
        assert_eq!(counters.get(2, CpuCounter::CacheToCache), 1);
    }

    #[test]
    fn drain_wins_over_proceed_and_queues_data() {
        let mut counters = CounterBank::new(2);
        let mut phase = AddressPhase::new();
        phase.absorb(1, SnoopVerdict::Drain { data: [9; 8] }, &mut counters);
        assert_eq!(phase.retry_cause(), Some(RetryCause::SnoopDrain));
        assert_eq!(phase.drains(), &[(1, [9; 8])]);
        assert_eq!(
            phase.outcome(&BusOp::ReadLine, 2, 13),
            AddressOutcome::Retry
        );
        assert_eq!(counters.retry(RetryCause::SnoopDrain), 1);
        assert_eq!(counters.get(1, CpuCounter::SnoopDrain), 1);
    }

    #[test]
    fn first_retry_cause_sticks() {
        let mut counters = CounterBank::new(3);
        let mut phase = AddressPhase::new();
        phase.absorb(1, SnoopVerdict::CamConflict, &mut counters);
        phase.absorb(2, SnoopVerdict::Drain { data: [0; 8] }, &mut counters);
        assert_eq!(phase.retry_cause(), Some(RetryCause::CamHit));
        assert_eq!(counters.retry(RetryCause::CamHit), 1);
        assert_eq!(counters.retry(RetryCause::SnoopDrain), 1);
    }

    #[test]
    fn data_cycles_by_op_class() {
        let phase = AddressPhase::new();
        let p = |op: &BusOp| phase.outcome(op, 2, 13);
        assert_eq!(
            p(&BusOp::ReadLine),
            AddressOutcome::Proceed {
                data_cycles: 13,
                shared: false,
                supplied: None
            }
        );
        assert_eq!(
            p(&BusOp::ReadWord),
            AddressOutcome::Proceed {
                data_cycles: 2,
                shared: false,
                supplied: None
            }
        );
        assert_eq!(
            p(&BusOp::Upgrade),
            AddressOutcome::Proceed {
                data_cycles: 0,
                shared: false,
                supplied: None
            }
        );
    }

    #[test]
    fn completion_action_classifies_every_pair() {
        let req = MemRequest {
            kind: ReqKind::Read,
            addr: Addr::new(0x40),
            from_isr: false,
        };
        let p = |kind| Pending { req, kind };
        assert_eq!(
            completion_action(
                &BusOp::ReadWord,
                &p(PendingKind::Word {
                    attr: MemAttr::Uncached
                })
            ),
            CompletionAction::WordRead {
                attr: MemAttr::Uncached
            }
        );
        assert_eq!(
            completion_action(
                &BusOp::WriteWord(5),
                &p(PendingKind::Word {
                    attr: MemAttr::Uncached
                })
            ),
            CompletionAction::WordWrite {
                attr: MemAttr::Uncached,
                value: 5
            }
        );
        assert_eq!(
            completion_action(
                &BusOp::ReadLineExcl,
                &p(PendingKind::Fill {
                    access: Access::Write,
                    value: Some(3),
                    wt: false
                })
            ),
            CompletionAction::LineFill {
                access: Access::Write,
                value: Some(3),
                wt: false
            }
        );
        assert_eq!(
            completion_action(&BusOp::Upgrade, &p(PendingKind::Upgrade { value: 9 })),
            CompletionAction::UpgradeFinish { value: 9 }
        );
        assert_eq!(
            completion_action(&BusOp::WriteLine([1; 8]), &p(PendingKind::FlushWb)),
            CompletionAction::FlushWriteback {
                data: [1; 8],
                from_isr: false
            }
        );
    }

    #[test]
    #[should_panic(expected = "mismatched completion")]
    fn completion_action_rejects_mismatch() {
        let req = MemRequest {
            kind: ReqKind::Read,
            addr: Addr::new(0x40),
            from_isr: false,
        };
        completion_action(
            &BusOp::ReadWord,
            &Pending {
                req,
                kind: PendingKind::FlushWb,
            },
        );
    }

    #[test]
    fn snoop_node_without_wrapper_or_enabled_cam_misses() {
        let mut cache = DataCache::new(
            hmp_cache::CacheConfig { sets: 4, ways: 1 },
            hmp_cache::ProtocolKind::Mei,
        );
        let mut cam = SnoopLogic::new();
        cam.observe_local_fill(Addr::new(0x40));
        // Snoop logic disabled: CAM never consulted.
        let v = snoop_node(
            None,
            &mut cache,
            Some(&mut cam),
            false,
            &BusOp::ReadLine,
            Addr::new(0x40),
            Cycle::ZERO,
            &mut NullObserver,
        );
        assert_eq!(v, SnoopVerdict::Miss);
        // Enabled: conflict.
        let v = snoop_node(
            None,
            &mut cache,
            Some(&mut cam),
            true,
            &BusOp::ReadLine,
            Addr::new(0x40),
            Cycle::ZERO,
            &mut NullObserver,
        );
        assert_eq!(v, SnoopVerdict::CamConflict);
    }
}
