//! The assembled platform and its cycle loop.

use crate::coherence::{AddressPhase, Pending};
use crate::faults::FaultEngine;
use crate::invariant::{InvariantObserver, InvariantViolation};
use crate::{CoherenceChecker, HangReport, PlatformSpec, RunOutcome, RunResult, WrapperMode};
use hmp_bus::{AddressOutcome, Bus, BusDevice, BusPhase, LockRegister, MasterId};
use hmp_cache::{DataCache, ProtocolKind};
use hmp_core::{
    classify_platform, reduce, CoherenceSupport, PlatformClass, SnoopLogic, Wrapper, WrapperPolicy,
};
use hmp_cpu::{Cpu, CpuAction, CpuConfig, LockKind, Program};
use hmp_mem::{Addr, Memory, MemoryController, MemoryMap};
use hmp_sim::{
    ClockDomain, CounterBank, Cycle, EventSchedule, Kernel, KernelProfile, MetricsObserver,
    MetricsRegistry, Observer, RetryCause, SimEvent, Watchdog, WatchdogVerdict, NO_EVENT,
};
use std::time::Instant;

/// The platform's event sink: fans every [`SimEvent`] out to the optional
/// metrics layers.
///
/// Every `&mut self.obs` in the cycle loop hits this type, which is itself
/// an [`Observer`]. With both layers disabled (the default) an event costs
/// two `None` checks.
pub(crate) struct SystemSink {
    pub(crate) metrics: Option<Box<MetricsObserver>>,
    /// Windowed time-series registry, armed by `PlatformSpec::timeseries`.
    /// Grant/retry/completion/quarantine events arrive through the fan-out
    /// below; data-phase busy spans, bridge crossings and the kernel mix
    /// are recorded by direct calls from the cycle loop (the bus emits no
    /// per-data-cycle events — that is the point of the warp kernel).
    pub(crate) series: Option<Box<MetricsRegistry>>,
}

impl Observer for SystemSink {
    #[inline]
    fn on_event(&mut self, at: Cycle, event: SimEvent) {
        if let Some(m) = &mut self.metrics {
            m.on_event(at, event);
        }
        if let Some(s) = &mut self.series {
            s.on_event(at, event);
        }
    }
}

/// Wall-time and step-mix accumulators for the kernel self-profile.
/// Plain counters (always present, trivially small) so the profiled run
/// loop can bump them while `self` methods are borrowed.
#[derive(Default)]
struct ProfCounters {
    plan_ns: u64,
    warp_ns: u64,
    step_ns: u64,
    cpu_only_ns: u64,
    iterations: u64,
    full_steps: u64,
    cpu_only_steps: u64,
    warped_cycles: u64,
}

pub(crate) struct Node {
    pub(crate) cpu: Cpu,
    pub(crate) cache: DataCache,
    pub(crate) wrapper: Option<Wrapper>,
    pub(crate) cam: Option<SnoopLogic>,
    pub(crate) pending: Option<Pending>,
    /// Core cycles per bus cycle, hoisted out of the per-cycle CPU loop
    /// (the clock ratio is fixed at construction).
    mult: u32,
    /// Last observed `cpu.is_halted()`, for the incremental halt counter.
    was_halted: bool,
}

/// Everything a run mutates outside the components' own storage.
///
/// [`RunState::start`] is its only constructor, and both
/// [`System::new`] and [`System::try_reset`] call it, so a fresh build
/// and a reset begin every run from the same values.
pub(crate) struct RunState {
    /// Current bus time.
    pub(crate) now: Cycle,
    kernel: Kernel,
    pub(crate) snoop_logic_enabled: bool,
    /// Number of nodes whose CPU is currently halted, maintained at the
    /// transition points in [`System::step_cpus`] so [`System::finished`]
    /// needs no per-cycle node scan.
    halted_cpus: usize,
    /// Total instructions committed across all CPUs, bumped in
    /// [`System::tick_node`] so the watchdog poll needs no per-iteration
    /// node scan (commits only happen inside ticks, never warps).
    progress: u64,
    /// Cached absolute cycle of the bus's next self-generated event
    /// ([`NO_EVENT`] = quiescent). The bus's event horizon is invariant
    /// under warps and CPU-only ticks — it moves only inside a full step,
    /// on a new submission, or when a fault/quarantine rewrites bus state
    /// — so [`System::plan`] rescans the ports only when this is dirty.
    bus_next_abs: u64,
    /// Whether `bus_next_abs` must be recomputed at the next plan.
    pub(crate) bus_sched_dirty: bool,
    /// Bus cycles the kernel has advanced past without warping the bus
    /// yet; [`System::sync_bus`] applies them. Zero between iterations.
    bus_lag: u64,
    /// Whether [`System::run`] measures the kernel's wall-time split.
    profile: bool,
    /// Self-profile accumulators (only written on the profiled path).
    prof: ProfCounters,
    watchdog: Watchdog,
    /// Fault engine, boxed behind an `Option` exactly like the metrics
    /// layer: a fault-free run carries one null pointer and no behavior.
    pub(crate) faults: Option<Box<FaultEngine>>,
    /// Whether the spec armed any recovery escalation stage, hoisted so
    /// the run loop's degraded-completion check is one branch when off.
    recovery_armed: bool,
}

impl RunState {
    /// Applies `spec`'s run settings (arbitration, BOFF window, recovery
    /// policy) to `bus` and returns the state a run of `spec` starts
    /// from: time zero, the default kernel, the snoop logic enabled, and
    /// a fresh watchdog and fault engine.
    fn start(spec: &PlatformSpec, bus: &mut Bus, masters: usize) -> Self {
        bus.set_arbitration(spec.arbitration);
        bus.set_retry_backoff(spec.retry_backoff);
        bus.set_recovery(spec.recovery);
        RunState {
            now: Cycle::ZERO,
            kernel: Kernel::default(),
            snoop_logic_enabled: true,
            halted_cpus: 0,
            progress: 0,
            bus_next_abs: NO_EVENT,
            bus_sched_dirty: true,
            bus_lag: 0,
            profile: spec.profile,
            prof: ProfCounters::default(),
            watchdog: Watchdog::new(Cycle::new(spec.watchdog_window)),
            faults: spec
                .faults
                .as_ref()
                .filter(|p| !p.specs().is_empty())
                .map(|p| Box::new(FaultEngine::new(p.clone(), masters))),
            recovery_armed: bus.recovery_armed(),
        }
    }
}

/// The running platform: CPUs, wrappers, snoop logic, bus, memory,
/// checker.
///
/// Construct with [`System::new`] (or a preset from [`crate::presets`]),
/// then either [`System::run`] to completion or [`System::step`] one bus
/// cycle at a time for fine-grained tests.
///
/// Components emit typed [`hmp_sim::SimEvent`]s into the platform's
/// sink, which feeds the metrics layers the spec arms (`span_capacity`,
/// `timeseries`) and costs nothing when none is. The coherence decision
/// logic itself — snoop verdicts, address-phase folding, completion
/// actions — lives in [`crate::coherence`]; this type owns the state and
/// the clock.
pub struct System {
    pub(crate) nodes: Vec<Node>,
    pub(crate) bus: Bus,
    pub(crate) mem: MemoryController,
    pub(crate) map: MemoryMap,
    pub(crate) devices: Vec<Box<dyn BusDevice>>,
    pub(crate) checker: Option<CoherenceChecker>,
    pub(crate) counters: CounterBank,
    pub(crate) obs: SystemSink,
    pub(crate) invariants: Option<InvariantObserver>,
    /// Reusable address-phase fold; keeping it (and its drain-list
    /// capacity) across grants keeps steady-state snooping alloc-free.
    pub(crate) phase_scratch: AddressPhase,
    cpu_names: Vec<String>,
    class: PlatformClass,
    system_protocol: Option<ProtocolKind>,
    /// Incremental event schedule for the fast-forward planner: one
    /// absolute next-event cycle per node, re-evaluated only for nodes
    /// marked dirty at a state-transition point. [`System::plan`] drains
    /// the dirty set instead of rescanning every node each iteration.
    pub(crate) sched: EventSchedule,
    /// The construction spec, kept for [`System::try_reset`]'s shape
    /// check (a reset must not change any allocation-bearing dimension).
    spec: PlatformSpec,
    pub(crate) run: RunState,
}

impl System {
    /// Builds a platform from its spec, loading one program per CPU.
    ///
    /// A [`LockRegister`] device is attached automatically when the spec's
    /// lock kind is [`LockKind::HardwareRegister`].
    ///
    /// # Panics
    ///
    /// Panics if the program count does not match the CPU count, or if the
    /// spec mixes protocols the reduction lattice rejects.
    pub fn new(spec: &PlatformSpec, programs: Vec<Program>) -> Self {
        assert_eq!(programs.len(), spec.cpus.len(), "one program per processor");
        let support: Vec<CoherenceSupport> = spec.cpus.iter().map(|c| c.coherence).collect();
        let class = classify_platform(&support);
        let native: Vec<ProtocolKind> = support.iter().filter_map(|s| s.protocol()).collect();
        // The bridge forwards every address phase, so wrappers integrate
        // at the fabric-wide meet, which equals the flat reduction (the
        // lattice is a chain).
        let system_protocol = if native.is_empty() {
            None
        } else {
            Some(reduce(&native).expect("native protocols reduce"))
        };
        let segment_map: Vec<usize> = if spec.segment_map.is_empty() {
            vec![0; spec.cpus.len()]
        } else {
            assert_eq!(
                spec.segment_map.len(),
                spec.cpus.len(),
                "one segment entry per CPU"
            );
            spec.segment_map.clone()
        };
        let segments = segment_map.iter().max().map_or(1, |&m| m + 1);

        let mut nodes = Vec::with_capacity(spec.cpus.len());
        for (i, (cs, program)) in spec.cpus.iter().zip(programs).enumerate() {
            let (cache_protocol, wrapper, cam) = match cs.coherence {
                CoherenceSupport::Native(own) => {
                    let wrapper = match spec.wrapper_mode {
                        WrapperMode::Paper => Wrapper::for_system(
                            own,
                            system_protocol.expect("native CPU implies protocols"),
                        ),
                        WrapperMode::Transparent => Wrapper::new(own, WrapperPolicy::TRANSPARENT),
                    };
                    (own, Some(wrapper), None)
                }
                // A non-coherent processor still has a write-back cache;
                // MEI models it exactly (fills E, silent E→M, no snooping —
                // and indeed its snoop port is never wired up).
                CoherenceSupport::None => {
                    let cam = match cs.cam_geometry {
                        Some((sets, ways)) => SnoopLogic::with_geometry(sets, ways),
                        None => SnoopLogic::new(),
                    };
                    (ProtocolKind::Mei, None, Some(cam))
                }
            };
            let cpu = Cpu::new(
                i,
                CpuConfig {
                    clock: ClockDomain::new(cs.clock_mult),
                    isr: cs.isr,
                    lock_layout: spec.lock,
                    lock_party: i as u32,
                },
                program,
            );
            nodes.push(Node {
                cpu,
                cache: DataCache::new(cs.cache, cache_protocol).with_owner(i),
                wrapper,
                cam: cam.map(|c| c.with_owner(i)),
                pending: None,
                mult: cs.clock_mult,
                was_halted: false,
            });
        }

        let mut devices: Vec<Box<dyn BusDevice>> = Vec::new();
        if spec.lock.kind == LockKind::HardwareRegister {
            devices.push(Box::new(LockRegister::new(16)));
        }

        let cpu_count = nodes.len();
        let mut bus = Bus::new(cpu_count);
        if segments > 1 {
            bus.set_segments(&segment_map, segments, spec.bridge_latency);
        }
        if !spec.recovery_overrides.is_empty() {
            assert_eq!(
                spec.recovery_overrides.len(),
                cpu_count,
                "one recovery-override slot per CPU"
            );
            for (i, policy) in spec.recovery_overrides.iter().enumerate() {
                if let Some(p) = policy {
                    bus.set_master_recovery(MasterId(i), *p);
                }
            }
        }
        let metrics = (spec.span_capacity > 0).then(|| {
            let event_capacity = if spec.trace_capacity > 0 {
                spec.trace_capacity
            } else {
                spec.span_capacity.saturating_mul(8)
            };
            Box::new(MetricsObserver::new(
                cpu_count,
                spec.span_capacity,
                event_capacity,
            ))
        });
        let series = spec.timeseries.map(|ts| {
            let map: Vec<u8> = segment_map.iter().map(|&s| s as u8).collect();
            Box::new(MetricsRegistry::new(cpu_count, segments, &map, ts))
        });
        let run = RunState::start(spec, &mut bus, cpu_count);
        System {
            bus,
            nodes,
            mem: MemoryController::new(Memory::new(spec.memory_bytes), spec.latency),
            map: spec.map.clone(),
            devices,
            checker: spec
                .check_coherence
                .then(|| CoherenceChecker::new(spec.memory_bytes, 64)),
            counters: CounterBank::new(cpu_count),
            obs: SystemSink { metrics, series },
            invariants: spec.check_invariants.then(|| {
                let mut inv = InvariantObserver::new();
                if segments > 1 {
                    inv.set_segment_map(&segment_map);
                }
                inv
            }),
            phase_scratch: AddressPhase::new(),
            cpu_names: spec.cpus.iter().map(|c| c.name.clone()).collect(),
            class,
            system_protocol,
            sched: EventSchedule::new(cpu_count),
            spec: spec.clone(),
            run,
        }
    }

    /// Reset-don't-drop: rebuilds this platform for a fresh run of
    /// `spec`, reusing every allocation the constructor made — nodes,
    /// caches, CAM storage, the bus's drain queues and masks, the memory
    /// and golden images, metrics and timeseries rings, phase scratch and
    /// the event schedule. Returns `Err(programs)`, handing the programs
    /// back and leaving the platform untouched, when `spec` differs from
    /// the built one in *shape*: processor roster,
    /// memory size, lock layout, wrapper mode, fabric topology, or which
    /// observability layers are armed. Everything that doesn't change an
    /// allocation — memory timing, the address map's attributes,
    /// arbitration, BOFF window, watchdog window, recovery policy, fault
    /// schedule, and the profile flag — may differ freely and is applied
    /// in place.
    ///
    /// On success the platform is byte-identical to a fresh
    /// `System::new(spec, programs)`: the components return to their
    /// construction state, and the per-run state — including the kernel
    /// selection and the snoop-logic gate — comes from the same
    /// `RunState::start` the constructor calls. Re-apply
    /// [`System::set_kernel`] / [`System::set_snoop_logic_enabled`] as the
    /// constructor's callers do.
    ///
    /// The memory and golden images are paged: a reset zeroes only the
    /// pages earlier runs wrote and keeps them mapped, so it costs what
    /// the runs touched, not the memory size. A run maps each page on its
    /// first write; a rerun that writes the same pages allocates nothing.
    ///
    /// A fault schedule is the one exception to "no allocation": arming
    /// one rebuilds the boxed fault engine, exactly as construction would.
    /// Fault-free resets — the entire perf-sweep path — allocate nothing.
    ///
    /// # Panics
    ///
    /// Panics if the program count does not match the CPU count.
    pub fn try_reset(
        &mut self,
        spec: &PlatformSpec,
        programs: Vec<Program>,
    ) -> Result<(), Vec<Program>> {
        assert_eq!(programs.len(), spec.cpus.len(), "one program per processor");
        let built = &self.spec;
        let same_shape = built.cpus == spec.cpus
            && built.memory_bytes == spec.memory_bytes
            && built.lock == spec.lock
            && built.wrapper_mode == spec.wrapper_mode
            && built.check_coherence == spec.check_coherence
            && built.check_invariants == spec.check_invariants
            && built.trace_capacity == spec.trace_capacity
            && built.span_capacity == spec.span_capacity
            && built.timeseries == spec.timeseries
            && built.segment_map == spec.segment_map
            && built.bridge_latency == spec.bridge_latency
            && built.recovery_overrides == spec.recovery_overrides;
        if !same_shape {
            return Err(programs);
        }
        // Shape matched: record the run-to-run scalars so a later reset
        // compares against what is actually in force.
        self.spec.latency = spec.latency;
        self.spec.arbitration = spec.arbitration;
        self.spec.retry_backoff = spec.retry_backoff;
        self.spec.watchdog_window = spec.watchdog_window;
        self.spec.recovery = spec.recovery;
        self.spec.profile = spec.profile;
        self.spec.faults.clone_from(&spec.faults);
        // The address map may differ in *attributes* (a strategy flip
        // turns the shared window uncached) but never in region count for
        // a same-roster platform; `clone_from` reuses the region buffer.
        self.spec.map.clone_from(&spec.map);
        self.map.clone_from(&spec.map);

        for (node, program) in self.nodes.iter_mut().zip(programs) {
            node.cpu.reset(program);
            node.cache.clear();
            if let Some(w) = &mut node.wrapper {
                w.reset();
            }
            if let Some(cam) = &mut node.cam {
                cam.clear();
            }
            node.pending = None;
            node.was_halted = false;
        }
        // `Bus::reset` keeps the recovery overrides, which the shape
        // check holds equal.
        self.bus.reset();
        self.mem.reset(spec.latency);
        for device in &mut self.devices {
            device.reset();
        }
        if let Some(checker) = &mut self.checker {
            checker.reset();
        }
        self.counters.reset();
        if let Some(metrics) = &mut self.obs.metrics {
            metrics.reset();
        }
        if let Some(series) = &mut self.obs.series {
            series.reset();
        }
        if let Some(inv) = &mut self.invariants {
            inv.reset();
        }
        self.phase_scratch.reset();
        self.sched.reset();
        self.run = RunState::start(spec, &mut self.bus, self.nodes.len());
        Ok(())
    }

    /// Disables the TAG-CAM snoop logic (used by the cache-disabled and
    /// software-drain baselines, which exist precisely to avoid needing
    /// that hardware).
    pub fn set_snoop_logic_enabled(&mut self, enabled: bool) {
        self.run.snoop_logic_enabled = enabled;
        // Pending-nFIQ visibility feeds every node's event horizon.
        self.sched.mark_all_dirty();
        self.run.bus_sched_dirty = true;
    }

    /// Selects how [`System::run`] and [`System::advance`] move time
    /// forward. The default [`Kernel::FastForward`] skips provably-dead
    /// cycles; [`Kernel::Step`] executes every cycle (the reference the
    /// fast-forward kernel is validated against).
    pub fn set_kernel(&mut self, kernel: Kernel) {
        self.run.kernel = kernel;
        self.sched.mark_all_dirty();
        self.run.bus_sched_dirty = true;
    }

    /// The configured simulation kernel.
    pub fn kernel(&self) -> Kernel {
        self.run.kernel
    }

    /// Attaches an extra bus device; its index must match the
    /// [`hmp_mem::MemAttr::Device`] ids in the memory map.
    pub fn add_device(&mut self, device: Box<dyn BusDevice>) -> u32 {
        self.devices.push(device);
        (self.devices.len() - 1) as u32
    }

    /// Current bus time.
    pub fn now(&self) -> Cycle {
        self.run.now
    }

    /// The Table 1 platform class.
    pub fn platform_class(&self) -> PlatformClass {
        self.class
    }

    /// The reduced system protocol, if any processor is coherent.
    pub fn system_protocol(&self) -> Option<ProtocolKind> {
        self.system_protocol
    }

    /// Grants per master so far (drains and retry re-grants included) —
    /// the numerator of the fairness sweeps' grant shares.
    pub fn master_grants(&self) -> &[u64] {
        self.bus.master_grants()
    }

    /// Faults the fault engine has injected so far (0 for a fault-free
    /// run, which carries no engine).
    pub fn faults_injected(&self) -> u64 {
        self.run.faults.as_ref().map_or(0, |e| e.fired)
    }

    /// A CPU, by master index.
    pub fn cpu(&self, i: usize) -> &Cpu {
        &self.nodes[i].cpu
    }

    /// A data cache, by master index.
    pub fn cache(&self, i: usize) -> &DataCache {
        &self.nodes[i].cache
    }

    /// A wrapper, by master index (None for non-coherent processors).
    pub fn wrapper(&self, i: usize) -> Option<&Wrapper> {
        self.nodes[i].wrapper.as_ref()
    }

    /// The snoop logic, by master index (None for coherent processors).
    pub fn snoop_logic(&self, i: usize) -> Option<&SnoopLogic> {
        self.nodes[i].cam.as_ref()
    }

    /// The backing memory (for fixtures and assertions).
    pub fn memory(&self) -> &Memory {
        self.mem.memory()
    }

    /// Mutable backing memory (test fixtures). Also updates the golden
    /// image so the checker treats the poked values as committed.
    pub fn poke_word(&mut self, addr: Addr, value: u32) {
        self.mem.write_word(addr, value);
        if let Some(c) = &mut self.checker {
            c.on_write(addr, value);
        }
    }

    /// The raw enum-indexed counter bank.
    pub fn counters(&self) -> &CounterBank {
        &self.counters
    }

    /// Processor names from the spec, in master-index order (labels the
    /// per-CPU tracks of an exported trace).
    pub fn cpu_names(&self) -> &[String] {
        &self.cpu_names
    }

    /// The metrics layer (spans, histograms, fills, the event ring), when
    /// the spec enabled it with `span_capacity > 0`.
    pub fn metrics(&self) -> Option<&MetricsObserver> {
        self.obs.metrics.as_deref()
    }

    /// The first live invariant violation, if checking is enabled and a
    /// line invariant has broken.
    pub fn invariant_violation(&self) -> Option<&InvariantViolation> {
        self.invariants.as_ref().and_then(|i| i.violation())
    }

    /// The coherence checker, if enabled.
    pub fn checker(&self) -> Option<&CoherenceChecker> {
        self.checker.as_ref()
    }

    /// `true` once every program halted and all bus work drained.
    ///
    /// The halt and drain conditions read maintained counters (kept at
    /// their transition points), so the common "not finished" answer is
    /// O(1); only a platform that looks finished pays the CAM scan.
    pub fn finished(&self) -> bool {
        self.run.halted_cpus == self.nodes.len()
            && self.bus.phase() == BusPhase::Idle
            && self.bus.queued_drains() == 0
            && self
                .nodes
                .iter()
                .all(|n| n.cam.as_ref().is_none_or(|c| !c.nfiq()))
    }

    /// Advances the platform by one bus cycle.
    pub fn step(&mut self) {
        // A full step can grant, retry, complete, or submit — all of
        // which move the bus's event horizon.
        self.run.bus_sched_dirty = true;
        self.sync_bus();
        self.run.now.tick();
        if let Some(ts) = &mut self.obs.series {
            ts.record_full_step(self.run.now);
        }
        self.fire_faults();
        self.step_bus();
        self.step_cpus();
    }

    /// The fast-forward kernel's next move: how many provably-dead bus
    /// cycles to warp, and what kind of step the following (event) cycle
    /// needs.
    ///
    /// The horizon is the earliest cycle on which *anything* can happen:
    /// a grant opportunity or data-phase completion on the bus, a CPU
    /// countdown expiry or instruction boundary, a pending-nFIQ delivery,
    /// a fault fire cycle, the watchdog deadline or `limit`. Everything
    /// strictly before it is warped. The event cycle itself needs the
    /// full [`System::step`] only when the *bus* can act; a cycle whose
    /// only events are CPU-local opens a [`System::cpu_window`], which
    /// runs that cycle and every CPU-local event cycle after it that
    /// falls before the next global event.
    fn plan(&mut self, limit: u64) -> (u64, bool) {
        let now = self.run.now.as_u64();
        let bus_abs = self.bus_event_abs();
        let node_min = self.node_event_min();
        let event = self.global_event_abs(limit).min(bus_abs).min(node_min);
        // Fabrics wider than 64 CPUs (none modelled) conservatively
        // full-step every event cycle.
        let full = bus_abs == event || self.nodes.len() > 64;
        ((event - now).saturating_sub(1), full)
    }

    /// Absolute cycle of the first non-bus global event: the next fault
    /// fire cycle, the watchdog deadline or `limit` (the cycle budget or
    /// the [`System::advance`] target), whichever comes first. None of
    /// them moves earlier while CPUs tick locally.
    fn global_event_abs(&self, limit: u64) -> u64 {
        let now = self.run.now.as_u64();
        let deadline = self
            .run
            .watchdog
            .deadline()
            .map_or(NO_EVENT, |d| d.as_u64());
        // A fault fire cycle is an event: the stepped cycle must land on
        // it so `fire_faults` runs there in both kernels. An overdue
        // fault fires on the next cycle.
        let fault = self.run.faults.as_ref().and_then(|e| e.plan.next_fire_at());
        let fault = fault.map_or(NO_EVENT, |at| at.max(now + 1));
        limit.min(deadline).max(now).min(fault)
    }

    /// Absolute cycle of the bus's next event ([`NO_EVENT`] when it is
    /// quiescent). The ports are rescanned only when a step, a
    /// submission, or a fault actually moved the horizon; in absolute
    /// cycles it is invariant under warps and CPU-local ticks.
    fn bus_event_abs(&mut self) -> u64 {
        if self.run.bus_sched_dirty {
            self.sync_bus();
            let now = self.run.now.as_u64();
            self.run.bus_next_abs = self.bus.next_event().map_or(NO_EVENT, |d| now + d);
            self.run.bus_sched_dirty = false;
        }
        let abs = self.run.bus_next_abs;
        debug_assert!(abs > self.run.now.as_u64(), "bus events lie ahead");
        abs
    }

    /// Absolute cycle of the earliest CPU-local event ([`NO_EVENT`] when
    /// no node has one). Only the nodes whose event inputs changed since
    /// the last plan (marked dirty at their state-transition points) are
    /// re-evaluated; everyone else's absolute event cycle is invariant
    /// under warps and non-event ticks, so the recorded answer stands.
    fn node_event_min(&mut self) -> u64 {
        let now = self.run.now.as_u64();
        while let Some(i) = self.sched.pop_dirty() {
            let abs = self.node_event_abs(i, now);
            self.sched.record(i, abs);
        }
        let min = self.sched.earliest();
        debug_assert!(min > now, "node events are strictly in the future");
        min
    }

    /// Absolute bus cycle of node `i`'s next CPU-local event, or
    /// [`NO_EVENT`] when it has none: a countdown expiry, an instruction
    /// boundary, a pending-nFIQ delivery, or the unmask cycle of a
    /// fault-masked interrupt.
    fn node_event_abs(&self, i: usize, now: u64) -> u64 {
        let node = &self.nodes[i];
        let cam_pending = self.run.snoop_logic_enabled
            && node
                .cam
                .as_ref()
                .is_some_and(|c| c.next_pending().is_some());
        // An injected nFIQ mask hides the pending interrupt from the
        // CPU; the unmask cycle (if finite) becomes the node's event
        // instead — the first tick that can see the line again.
        let mask_until = self.run.faults.as_ref().map_or(0, |e| e.nfiq_mask_until[i]);
        let masked = now < mask_until;
        let nfiq_pending = cam_pending && !masked;
        let mut node_delta = node.cpu.core_cycles_to_event(nfiq_pending).map(|core| {
            // Core→bus cycle conversion; the multiplier is 1 or 2 on
            // every modelled platform, so avoid a hardware divide.
            match node.mult {
                1 => core,
                2 => (core + 1) >> 1,
                m => core.div_ceil(u64::from(m)),
            }
        });
        if cam_pending && masked && mask_until != u64::MAX {
            let unmask = mask_until - now;
            node_delta = Some(node_delta.map_or(unmask, |d| d.min(unmask)));
        }
        match node_delta {
            // The event lands on a future tick; a zero delta (already
            // due) still needs the next stepped cycle to deliver it.
            Some(d) => now + d.max(1),
            None => NO_EVENT,
        }
    }

    /// Bulk-advances the clock and every component's countdowns by
    /// `cycles` event-free bus cycles. Caller must have established via
    /// [`System::plan`] that no event falls in the window. The bus's
    /// share waits in `bus_lag` for the next [`System::sync_bus`].
    fn warp(&mut self, cycles: u64) {
        if let Some(ts) = &mut self.obs.series {
            // The warped window covers cycles now+1 ..= now+cycles — the
            // same stamps the step kernel's per-cycle hooks would use. A
            // bus mid-data-phase streams one busy cycle on each of them
            // (`Bus::warp` bulk-credits `data_cycles` identically).
            let busy = matches!(self.bus.phase(), BusPhase::Data { .. });
            let master = self.bus.active_master().map(MasterId::index);
            ts.record_warp(self.run.now.as_u64() + 1, cycles, busy, master);
        }
        if self.run.profile {
            self.run.prof.warped_cycles += cycles;
        }
        self.run.now += Cycle::new(cycles);
        self.run.bus_lag += cycles;
        for node in &mut self.nodes {
            node.cpu.warp(cycles * u64::from(node.mult));
        }
    }

    /// A CPU-local window: executes the planned event cycle, on which
    /// only CPU-local events occur, and then every later CPU-local event
    /// cycle up to the next global event, warping the dead cycles
    /// between them.
    ///
    /// Each event cycle runs exactly as [`System::step`] would run it,
    /// minus the bus, which cannot act: [`System::step_cpus`] ticks the
    /// CPUs whose event is due in index order and bulk-advances the rest.
    /// Cycles run in order, so golden-checker reads and writes, invariant
    /// checks, ISR events and telemetry land in the step kernel's order.
    ///
    /// The window ends before the first cycle on which the bus, a fault,
    /// the watchdog or `limit` is due; the fixed horizons are read once,
    /// and the bus horizon is re-read only after a tick submitted a
    /// transaction. It also ends after any cycle on which
    /// [`System::run`] would act: the last CPU halted, an invariant
    /// broke, a degraded platform finished, or (with `watch`) the
    /// watchdog tripped. With `watch` the window polls the watchdog after
    /// every cycle, as the run loop polls after every stepped cycle, so
    /// its progress stamps are the step kernel's.
    fn cpu_window(&mut self, limit: u64, watch: bool) {
        let mut global = None;
        loop {
            self.run.now.tick();
            if let Some(ts) = &mut self.obs.series {
                ts.record_cpu_only_step(self.run.now);
                if matches!(self.bus.phase(), BusPhase::Data { .. }) {
                    let master = self.bus.active_master().map(MasterId::index);
                    ts.record_busy_span(self.run.now.as_u64(), 1, master);
                }
            }
            if global.is_none() {
                // Only the first cycle can be a fire cycle: every later
                // one falls before the next fault (`global`).
                self.fire_faults();
            }
            self.run.bus_lag += 1;
            self.step_cpus();
            if self.run.profile {
                self.run.prof.cpu_only_steps += 1;
            }
            if self.run.halted_cpus == self.nodes.len()
                || self.invariant_violation().is_some()
                || (self.run.recovery_armed && self.degraded_finished())
                || (watch
                    && self.run.watchdog.poll(self.run.now, self.run.progress)
                        == WatchdogVerdict::Stalled)
            {
                break;
            }
            let stop = *global.get_or_insert_with(|| self.global_event_abs(limit));
            let next = self.node_event_min();
            if next >= stop.min(self.bus_event_abs()) {
                break;
            }
            let skip = next - self.run.now.as_u64() - 1;
            if skip > 0 {
                self.warp(skip);
            }
        }
        self.sync_bus();
    }

    /// Warps the bus through the cycles [`System::warp`] and
    /// [`System::cpu_window`] deferred. Warps compose, so the bus catches
    /// up once, when something next reads its countdowns or adds a
    /// requester to it: a step, a horizon rescan or a submission.
    pub(crate) fn sync_bus(&mut self) {
        if self.run.bus_lag > 0 {
            self.bus.warp(self.run.bus_lag);
            self.run.bus_lag = 0;
        }
    }

    /// One fast-forward iteration against `limit`: warp the dead window,
    /// then execute the event cycle with the cheapest step that preserves
    /// per-cycle semantics — a full step, or a CPU-local window. With the
    /// kernel self-profile armed it also attributes wall time to the
    /// plan / warp / step / CPU-only phases and counts the step mix.
    fn ff_iteration(&mut self, limit: u64, watch: bool) {
        let mut lap = self.run.profile.then(Instant::now);
        let (skip, full) = self.plan(limit);
        self.lap(&mut lap, |p| &mut p.plan_ns);
        if skip > 0 {
            self.warp(skip);
            self.lap(&mut lap, |p| &mut p.warp_ns);
        }
        if full {
            self.step();
            self.lap(&mut lap, |p| &mut p.step_ns);
        } else {
            self.cpu_window(limit, watch);
            self.lap(&mut lap, |p| &mut p.cpu_only_ns);
        }
        if self.run.profile {
            let prof = &mut self.run.prof;
            prof.iterations += 1;
            prof.full_steps += u64::from(full);
        }
    }

    /// Adds the wall time since `lap` to the profile phase `slot` picks
    /// and restarts the lap; a no-op when the profile is off (`None`).
    fn lap(&mut self, lap: &mut Option<Instant>, slot: fn(&mut ProfCounters) -> &mut u64) {
        if let Some(start) = lap {
            let now = Instant::now();
            *slot(&mut self.run.prof) += (now - *start).as_nanos() as u64;
            *start = now;
        }
    }

    /// Advances up to `cycles` bus cycles with the configured kernel,
    /// stopping early once the platform is [`System::finished`]. Unlike
    /// [`System::run`] it neither polls the watchdog nor builds a
    /// [`RunResult`], so steady-state advancement stays allocation-free.
    pub fn advance(&mut self, cycles: u64) {
        let target = self.run.now.as_u64().saturating_add(cycles);
        while !self.finished() && self.run.now.as_u64() < target {
            match self.run.kernel {
                Kernel::FastForward => self.ff_iteration(target, false),
                Kernel::Step => self.step(),
            }
        }
    }

    /// Runs until completion, watchdog stall, invariant break, or
    /// `max_cycles`.
    ///
    /// With the default [`Kernel::FastForward`] each loop iteration
    /// computes the earliest next event across all components, warps to
    /// one cycle before it, and executes the event cycle. When the bus
    /// can act that is the ordinary [`System::step`]; when the cycle's
    /// only events are CPU-local it opens a CPU-local window, which also
    /// runs every later CPU-local event cycle up to the next bus, fault,
    /// watchdog or budget event. The results are identical to
    /// [`Kernel::Step`], cycle for cycle and counter for counter. Forward
    /// progress and the invariant/watchdog checks happen only on stepped
    /// cycles (inside a window, after each one); warped cycles are
    /// provably event-free, so those polls would be no-ops.
    pub fn run(&mut self, max_cycles: u64) -> RunResult {
        let wall_start = self.run.profile.then(Instant::now);
        let outcome = loop {
            if self.finished() {
                break RunOutcome::Completed;
            }
            if self.run.recovery_armed && self.degraded_finished() {
                break RunOutcome::Degraded {
                    quarantined: self.bus.quarantined_count() as u32,
                    faults_absorbed: self.run.faults.as_ref().map_or(0, |e| e.fired),
                };
            }
            if self.run.now.as_u64() >= max_cycles {
                // A run that exhausts its budget after quarantining a
                // master is a degraded survival, not an opaque timeout:
                // spinning survivors (e.g. a lock waiter whose peer was
                // quarantined mid-critical-section) keep the watchdog fed
                // forever, so this is where that livelock surfaces.
                if self.bus.quarantined_count() > 0 {
                    break RunOutcome::Degraded {
                        quarantined: self.bus.quarantined_count() as u32,
                        faults_absorbed: self.run.faults.as_ref().map_or(0, |e| e.fired),
                    };
                }
                break RunOutcome::CycleLimit;
            }
            match self.run.kernel {
                Kernel::FastForward => self.ff_iteration(max_cycles, true),
                Kernel::Step => {
                    let mut lap = self.run.profile.then(Instant::now);
                    self.step();
                    self.lap(&mut lap, |p| &mut p.step_ns);
                    if self.run.profile {
                        self.run.prof.full_steps += 1;
                        self.run.prof.iterations += 1;
                    }
                }
            }
            if self.invariant_violation().is_some() {
                break RunOutcome::InvariantViolation;
            }
            if self.run.watchdog.poll(self.run.now, self.run.progress) == WatchdogVerdict::Stalled
                && !self.escalate_stall()
            {
                break RunOutcome::Stalled;
            }
        };
        let hang = (outcome == RunOutcome::Stalled).then(|| {
            let (last_spans, open_spans) = self
                .obs
                .metrics
                .as_ref()
                .map(|m| (m.spans().recent(8), m.spans().open_spans()))
                .unwrap_or_default();
            HangReport {
                stalled_at: self.run.now,
                window: self.run.watchdog.window(),
                last_spans,
                open_spans,
            }
        });
        let timeseries = self.obs.series.as_mut().map(|s| s.snapshot(self.run.now));
        let profile = (self.run.profile || self.obs.series.is_some()).then(|| {
            let wall_ns = wall_start.map_or(0, |t| t.elapsed().as_nanos() as u64);
            KernelProfile {
                kernel: self.run.kernel,
                wall_ns,
                plan_ns: self.run.prof.plan_ns,
                warp_ns: self.run.prof.warp_ns,
                step_ns: self.run.prof.step_ns,
                cpu_only_ns: self.run.prof.cpu_only_ns,
                iterations: self.run.prof.iterations,
                full_steps: self.run.prof.full_steps,
                cpu_only_steps: self.run.prof.cpu_only_steps,
                warped_cycles: self.run.prof.warped_cycles,
                cycles_per_sec: if wall_ns > 0 {
                    self.run.now.as_u64() as f64 / (wall_ns as f64 / 1e9)
                } else {
                    0.0
                },
                mix: self
                    .obs
                    .series
                    .as_mut()
                    .map(|s| s.snapshot_mix(self.run.now)),
            }
        });
        RunResult {
            outcome,
            cycles: self.run.now,
            bus: self.bus.stats(),
            cpus: self.nodes.iter().map(|n| n.cpu.counters()).collect(),
            stats: self.counters.clone(),
            violations: self
                .checker
                .as_ref()
                .map(|c| c.violations().to_vec())
                .unwrap_or_default(),
            metrics: self.obs.metrics.as_ref().map(|m| m.snapshot()),
            hang,
            invariant: self
                .invariants
                .as_ref()
                .and_then(|i| i.violation())
                .cloned(),
            faults_injected: self.faults_injected(),
            timeseries,
            profile,
        }
    }

    /// The timeseries registry, when the spec armed it.
    pub fn timeseries(&self) -> Option<&MetricsRegistry> {
        self.obs.series.as_deref()
    }

    /// `true` once the *surviving* platform has finished: at least one
    /// master is quarantined, every healthy CPU has halted, and no bus
    /// work remains that a healthy master could still move. A pending
    /// nFIQ on a masked (fault-suppressed) line does not block degraded
    /// completion — that unserviced drain is precisely the damage the
    /// golden checker then reports.
    fn degraded_finished(&self) -> bool {
        if self.bus.quarantined_count() == 0
            || self.bus.phase() != BusPhase::Idle
            || self.bus.queued_drains() != 0
        {
            return false;
        }
        let now = self.run.now.as_u64();
        self.nodes.iter().enumerate().all(|(i, n)| {
            self.bus.is_quarantined(MasterId(i))
                || (n.cpu.is_halted()
                    && n.cam.as_ref().is_none_or(|c| {
                        !c.nfiq()
                            || self
                                .run
                                .faults
                                .as_ref()
                                .is_some_and(|e| e.nfiq_masked(i, now))
                    }))
        })
    }

    /// Watchdog escalation: instead of giving up on a stall, quarantine
    /// every master wedged on an outstanding transaction and grant the
    /// survivors a fresh window. Returns `false` (stall stands) when the
    /// recovery policy is disarmed or nothing was left to quarantine.
    fn escalate_stall(&mut self) -> bool {
        let mut any = false;
        for i in 0..self.nodes.len() {
            // Each master is judged by its own policy (override or the
            // bus-wide default); a master without quarantine armed rides
            // out the stall.
            if self.bus.recovery_for(MasterId(i)).quarantine_after == 0 {
                continue;
            }
            if self.nodes[i].pending.is_some() && self.bus.quarantine(MasterId(i)) {
                any = true;
                self.obs
                    .on_event(self.run.now, SimEvent::MasterQuarantined { master: i });
            }
        }
        if any {
            self.run.watchdog.rebaseline(self.run.now);
            // Quarantines kill outstanding transactions; every node's
            // event horizon may have moved.
            self.sched.mark_all_dirty();
            self.run.bus_sched_dirty = true;
        }
        any
    }

    /// Retry-budget escalation: once a master's consecutive ARTRY count
    /// crosses the policy's quarantine threshold, park it for good.
    fn maybe_quarantine(&mut self, master: MasterId) {
        let policy = self.bus.recovery_for(master);
        if policy.quarantine_after == 0
            || self.bus.consecutive_retries(master) < policy.quarantine_after
        {
            return;
        }
        if self.bus.quarantine(master) {
            self.sched.mark_all_dirty();
            self.run.bus_sched_dirty = true;
            self.obs.on_event(
                self.run.now,
                SimEvent::MasterQuarantined {
                    master: master.index(),
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Bus side
    // ------------------------------------------------------------------

    fn step_bus(&mut self) {
        self.bus.begin_cycle();
        match self.bus.phase() {
            BusPhase::Idle => {
                if let Some(txn) = self.bus.try_grant(self.run.now, &mut self.obs) {
                    let outcome = if self.fault_kills_grant(txn.master.index(), txn.is_drain) {
                        self.counters.bump_retry(RetryCause::Injected);
                        self.emit_retry(&txn, RetryCause::Injected);
                        AddressOutcome::Retry
                    } else {
                        self.snoop_and_decide(&txn)
                    };
                    let retried = outcome == AddressOutcome::Retry;
                    if let Some(done) = self.bus.resolve(outcome, self.run.now, &mut self.obs) {
                        self.complete_txn(done);
                    }
                    if retried && self.run.recovery_armed && !txn.is_drain {
                        self.maybe_quarantine(txn.master);
                    }
                }
            }
            BusPhase::Data { .. } => {
                if let Some(ts) = &mut self.obs.series {
                    // Capture the driving master before `advance_data` —
                    // a completing phase clears the active transaction.
                    let master = self.bus.active_master().map(MasterId::index);
                    ts.record_busy_span(self.run.now.as_u64(), 1, master);
                }
                if let Some(done) = self.bus.advance_data(self.run.now, &mut self.obs) {
                    self.complete_txn(done);
                }
            }
            BusPhase::Address => unreachable!("address phases resolve within their grant cycle"),
        }
    }

    // ------------------------------------------------------------------
    // CPU side
    // ------------------------------------------------------------------

    fn step_cpus(&mut self) {
        // A node is ticked when its recorded event is due or its state
        // changed since the last plan (dirty); anyone else provably does
        // nothing this cycle, so a one-cycle warp is byte-identical and
        // skips the per-tick dispatch. Under [`Kernel::Step`] the planner
        // never runs, every node stays dirty, and this degenerates to
        // ticking everyone — the reference behavior.
        let now = self.run.now.as_u64();
        for i in 0..self.nodes.len() {
            if self.sched.is_dirty(i) || self.sched.next_of(i) <= now {
                self.sched.mark_dirty(i);
                self.tick_node(i);
            } else {
                let node = &mut self.nodes[i];
                node.cpu.warp(u64::from(node.mult));
            }
        }
    }

    /// Ticks one CPU its `clock_mult` core cycles for the current bus
    /// cycle — the per-node body of [`System::step_cpus`], shared with
    /// [`System::cpu_window`].
    fn tick_node(&mut self, i: usize) {
        let masked = self
            .run
            .faults
            .as_ref()
            .is_some_and(|e| e.nfiq_masked(i, self.run.now.as_u64()));
        let nfiq = if self.run.snoop_logic_enabled && !masked {
            self.nodes[i].cam.as_ref().and_then(|c| c.next_pending())
        } else {
            None
        };
        self.nodes[i].cpu.set_nfiq_line(nfiq);
        let mult = self.nodes[i].mult;
        let committed_before = self.nodes[i].cpu.committed();
        for _ in 0..mult {
            match self.nodes[i].cpu.tick(self.run.now, &mut self.obs) {
                CpuAction::Idle | CpuAction::Halted => {}
                CpuAction::Issue(req) => self.handle_request(i, req),
            }
        }
        self.run.progress += self.nodes[i].cpu.committed() - committed_before;
        // Halt transitions happen only inside `Cpu::tick` (program end,
        // ISR entry on a halted core, ISR exit restoring a halted
        // core), so this is the one place the counter needs updating.
        let node = &mut self.nodes[i];
        let halted = node.cpu.is_halted();
        if halted != node.was_halted {
            node.was_halted = halted;
            if halted {
                self.run.halted_cpus += 1;
            } else {
                self.run.halted_cpus -= 1;
            }
        }
    }
}

impl core::fmt::Debug for System {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("System")
            .field("cpus", &self.nodes.len())
            .field("now", &self.run.now)
            .field("class", &self.class)
            .field("system_protocol", &self.system_protocol)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{layout, CpuSpec, PlatformSpec, Strategy};
    use hmp_cache::LineState;
    use hmp_cpu::{LockLayout, ProgramBuilder};
    use hmp_sim::CpuCounter;

    fn two_mesi_spec(strategy: Strategy) -> (PlatformSpec, crate::MemLayout) {
        let (lay, map) = layout(2, strategy, LockKind::Turn, false);
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

    #[test]
    fn single_read_miss_fills_exclusive() {
        let (spec, lay) = two_mesi_spec(Strategy::Proposed);
        let a = lay.shared_base;
        let p0 = ProgramBuilder::new().read(a).build();
        let mut sys = System::new(&spec, vec![p0, hmp_cpu::Program::empty()]);
        sys.poke_word(a, 42);
        let result = sys.run(10_000);
        assert_eq!(result.outcome, RunOutcome::Completed);
        assert!(result.is_clean_completion());
        assert_eq!(sys.cache(0).line_state(a), Some(LineState::Exclusive));
        assert_eq!(sys.cache(0).peek_word(a), Some(42));
        // Timing: ~1 cycle issue + 1 grant + 13-cycle burst.
        assert!(result.cycles_u64() >= 14, "got {}", result.cycles_u64());
        assert!(result.cycles_u64() <= 20, "got {}", result.cycles_u64());
        assert_eq!(result.bus.grants, 1);
    }

    #[test]
    fn read_sharing_between_two_mesi_cpus() {
        let (spec, lay) = two_mesi_spec(Strategy::Proposed);
        let a = lay.shared_base;
        // P0 reads first; P1 reads later (delay keeps ordering).
        let p0 = ProgramBuilder::new().read(a).build();
        let p1 = ProgramBuilder::new().delay(60).read(a).build();
        let mut sys = System::new(&spec, vec![p0, p1]);
        let result = sys.run(10_000);
        assert!(result.is_clean_completion());
        // Homogeneous MESI platform: both end Shared.
        assert_eq!(sys.cache(0).line_state(a), Some(LineState::Shared));
        assert_eq!(sys.cache(1).line_state(a), Some(LineState::Shared));
    }

    #[test]
    fn write_read_transfer_through_drain() {
        let (spec, lay) = two_mesi_spec(Strategy::Proposed);
        let a = lay.shared_base;
        let p0 = ProgramBuilder::new().write(a, 7).build();
        let p1 = ProgramBuilder::new().delay(80).read(a).build();
        let mut sys = System::new(&spec, vec![p0, p1]);
        let result = sys.run(10_000);
        assert!(result.is_clean_completion(), "{result}");
        // P0's dirty line was drained by P1's read snoop.
        assert_eq!(sys.cache(0).line_state(a), Some(LineState::Shared));
        assert_eq!(sys.cache(1).line_state(a), Some(LineState::Shared));
        assert_eq!(sys.cache(1).peek_word(a), Some(7));
        assert_eq!(sys.memory().read_word(a), 7, "drain reached memory");
        assert!(result.bus.retries >= 1, "ARTRY path exercised");
        assert!(result.bus.drains >= 1);
    }

    #[test]
    fn upgrade_invalidates_remote_shared_copy() {
        let (spec, lay) = two_mesi_spec(Strategy::Proposed);
        let a = lay.shared_base;
        let p0 = ProgramBuilder::new().read(a).delay(100).write(a, 5).build();
        let p1 = ProgramBuilder::new().delay(40).read(a).build();
        let mut sys = System::new(&spec, vec![p0, p1]);
        let result = sys.run(10_000);
        assert!(result.is_clean_completion(), "{result}");
        assert_eq!(sys.cache(0).line_state(a), Some(LineState::Modified));
        assert_eq!(sys.cache(1).line_state(a), None, "upgrade invalidated P1");
        assert!(result.stats.get(0, CpuCounter::WriteUpgrade) >= 1);
    }

    #[test]
    fn uncached_shared_data_round_trip() {
        let (spec, lay) = two_mesi_spec(Strategy::CacheDisabled);
        let a = lay.shared_base;
        let p0 = ProgramBuilder::new().write(a, 9).build();
        let p1 = ProgramBuilder::new().delay(40).read(a).build();
        let mut sys = System::new(&spec, vec![p0, p1]);
        let result = sys.run(10_000);
        assert!(result.is_clean_completion(), "{result}");
        assert_eq!(sys.memory().read_word(a), 9);
        assert!(!sys.cache(0).contains(a), "shared data must not be cached");
        assert!(!sys.cache(1).contains(a));
        assert!(result.stats.get(0, CpuCounter::UncachedWrite) >= 1);
        assert!(result.stats.get(1, CpuCounter::UncachedRead) >= 1);
    }

    #[test]
    fn turn_lock_alternates_critical_sections() {
        let (spec, lay) = two_mesi_spec(Strategy::Proposed);
        let a = lay.shared_base;
        // Both increment-ish: each writes its id then reads. Lock keeps
        // them alternating; checker keeps them honest.
        let p0 = ProgramBuilder::new()
            .repeat(3, |b| b.acquire(0).read(a).write(a, 1).release(0))
            .build();
        let p1 = ProgramBuilder::new()
            .repeat(3, |b| b.acquire(0).read(a).write(a, 2).release(0))
            .build();
        let mut sys = System::new(&spec, vec![p0, p1]);
        let result = sys.run(200_000);
        assert!(result.is_clean_completion(), "{result}");
        assert_eq!(result.cpus[0].lock_acquires, 3);
        assert_eq!(result.cpus[1].lock_acquires, 3);
        assert_eq!(result.cpus[0].lock_releases, 3);
    }

    #[test]
    fn hardware_lock_register_device() {
        let (lay, map) = layout(2, Strategy::Proposed, LockKind::HardwareRegister, false);
        let lock = LockLayout::new(LockKind::HardwareRegister, lay.lock_base, 2);
        let spec = PlatformSpec::new(
            vec![
                CpuSpec::generic("P0", ProtocolKind::Mesi),
                CpuSpec::generic("P1", ProtocolKind::Mesi),
            ],
            map,
            lock,
        );
        let a = lay.shared_base;
        let p0 = ProgramBuilder::new()
            .repeat(2, |b| b.acquire(0).write(a, 1).release(0))
            .build();
        let p1 = ProgramBuilder::new()
            .repeat(2, |b| b.acquire(0).write(a, 2).release(0))
            .build();
        let mut sys = System::new(&spec, vec![p0, p1]);
        let result = sys.run(100_000);
        assert!(result.is_clean_completion(), "{result}");
        assert_eq!(
            result.cpus[0].lock_acquires + result.cpus[1].lock_acquires,
            4
        );
    }

    #[test]
    fn mei_mesi_reduces_and_stays_coherent() {
        let (lay, map) = layout(2, Strategy::Proposed, LockKind::Turn, false);
        let lock = LockLayout::new(LockKind::Turn, lay.lock_base, 2);
        let spec = PlatformSpec::new(
            vec![
                CpuSpec::generic("mesi", ProtocolKind::Mesi),
                CpuSpec::generic("mei", ProtocolKind::Mei),
            ],
            map,
            lock,
        );
        let a = lay.shared_base;
        // The Table 2 sequence: P0 reads, P1 reads, P1 writes, P0 reads.
        let p0 = ProgramBuilder::new().read(a).delay(200).read(a).build();
        let p1 = ProgramBuilder::new().delay(60).read(a).write(a, 77).build();
        let mut sys = System::new(&spec, vec![p0, p1]);
        assert_eq!(sys.system_protocol(), Some(ProtocolKind::Mei));
        let result = sys.run(10_000);
        assert!(
            result.is_clean_completion(),
            "wrappers must prevent the Table 2 stale read: {result}"
        );
        // The final read must see 77.
        assert_eq!(sys.cache(0).peek_word(a), Some(77));
    }

    #[test]
    fn transparent_wrappers_reproduce_table2_stale_read() {
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
        let a = lay.shared_base;
        let p0 = ProgramBuilder::new().read(a).delay(200).read(a).build();
        let p1 = ProgramBuilder::new().delay(60).read(a).write(a, 77).build();
        let mut sys = System::new(&spec, vec![p0, p1]);
        let result = sys.run(10_000);
        assert_eq!(result.outcome, RunOutcome::Completed);
        assert!(
            !result.violations.is_empty(),
            "naive MEI+MESI integration must produce the stale read"
        );
        let v = result.violations[0];
        assert_eq!(v.cpu, 0);
        assert_eq!(v.expected, 77);
    }

    #[test]
    fn pf2_cam_interrupt_drains_arm_line() {
        let (lay, map) = layout(2, Strategy::Proposed, LockKind::Turn, false);
        let lock = LockLayout::new(LockKind::Turn, lay.lock_base, 2);
        let spec = PlatformSpec::new(vec![CpuSpec::powerpc755(), CpuSpec::arm920t()], map, lock);
        let a = lay.shared_base;
        // ARM dirties the line, then idles; PowerPC reads it later.
        let arm = ProgramBuilder::new().write(a, 123).build();
        let ppc = ProgramBuilder::new().delay(200).read(a).build();
        let mut sys = System::new(&spec, vec![ppc, arm]);
        assert_eq!(sys.platform_class().to_string(), "PF2");
        let result = sys.run(100_000);
        assert!(result.is_clean_completion(), "{result}");
        assert_eq!(sys.cache(0).peek_word(a), Some(123), "PPC sees ARM's write");
        assert!(result.cpus[1].isr_entries >= 1, "ARM took the nFIQ");
        assert!(result.stats.retry(RetryCause::CamHit) >= 1);
        assert_eq!(sys.memory().read_word(a), 123, "ISR drained to memory");
    }

    #[test]
    fn victim_writeback_preserves_data() {
        // A tiny cache forces evictions: 2 sets × 1 way.
        let (lay, map) = layout(1, Strategy::Proposed, LockKind::Turn, false);
        let lock = LockLayout::new(LockKind::Turn, lay.lock_base, 1);
        let mut spec =
            PlatformSpec::new(vec![CpuSpec::generic("P0", ProtocolKind::Mesi)], map, lock);
        spec.cpus[0].cache = hmp_cache::CacheConfig { sets: 2, ways: 1 };
        let a = lay.shared_base;
        let b = a.add_lines(2); // same set, different tag
        let p = ProgramBuilder::new()
            .write(a, 1)
            .write(b, 2) // evicts dirty `a`
            .read(a) // refetches from memory
            .build();
        let mut sys = System::new(&spec, vec![p]);
        let result = sys.run(10_000);
        assert!(result.is_clean_completion(), "{result}");
        assert_eq!(sys.memory().read_word(a), 1);
        assert!(result.stats.get(0, CpuCounter::VictimWriteback) >= 1);
    }

    #[test]
    fn finished_and_debug() {
        let (spec, _) = two_mesi_spec(Strategy::Proposed);
        let mut sys = System::new(&spec, vec![hmp_cpu::Program::empty(); 2]);
        assert!(!format!("{sys:?}").is_empty());
        let r = sys.run(100);
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert!(sys.finished());
    }
}
