//! Typed hot-path instrumentation: [`SimEvent`], [`Observer`] and the
//! built-in observers.
//!
//! The simulator's inner loops (bus arbitration, snoop ports, TAG-CAM
//! lookups, ISR entry) emit [`SimEvent`]s to an [`Observer`] passed down
//! from the platform. Events are plain `Copy` values with domain-neutral
//! payloads — no strings are built at the emission site, so the
//! [`NullObserver`] compiles to a genuine no-op (no allocation, no
//! formatting) and the [`TraceObserver`] stores events as-is and renders
//! them lazily, only when displayed.

use crate::Cycle;
use std::collections::VecDeque;
use std::fmt;

/// The kind of operation on the bus, without its data payload.
///
/// A domain-neutral mirror of `hmp-bus`'s `BusOp` (the kernel crate cannot
/// depend on the bus crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusOpKind {
    /// Burst read of a whole line.
    ReadLine,
    /// Burst read with intent to modify (RWITM).
    ReadLineExcl,
    /// Burst write of a whole line (write-back / drain).
    WriteLine,
    /// Single-word read.
    ReadWord,
    /// Single-word write.
    WriteWord,
    /// Invalidate broadcast.
    Upgrade,
}

impl fmt::Display for BusOpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BusOpKind::ReadLine => "ReadLine",
            BusOpKind::ReadLineExcl => "ReadLineExcl",
            BusOpKind::WriteLine => "WriteLine",
            BusOpKind::ReadWord => "ReadWord",
            BusOpKind::WriteWord => "WriteWord",
            BusOpKind::Upgrade => "Upgrade",
        };
        f.write_str(s)
    }
}

/// What a snooping cache did in response to a snooped operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnoopActionKind {
    /// State transition only (possibly asserting SHARED).
    StateOnly,
    /// Dirty line pushed to memory; the snooped transaction is killed.
    Writeback,
    /// Dirty line supplied cache-to-cache (MOESI-style).
    Supply,
}

impl fmt::Display for SnoopActionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SnoopActionKind::StateOnly => "state-only",
            SnoopActionKind::Writeback => "writeback",
            SnoopActionKind::Supply => "supply",
        };
        f.write_str(s)
    }
}

/// Why an address phase was killed with ARTRY.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryCause {
    /// The line sits in some master's write-back buffer.
    WriteBuffer,
    /// A snooping cache is pushing its dirty copy first.
    SnoopDrain,
    /// A TAG-CAM hit on a non-coherent processor awaiting its drain ISR.
    CamHit,
    /// An injected fault (spurious retry or wedged master) killed the
    /// phase; no snoop demanded it.
    Injected,
}

impl RetryCause {
    /// Number of causes (array-index bound for counter banks).
    pub const COUNT: usize = 4;

    /// All causes, in array-index order.
    pub const ALL: [RetryCause; RetryCause::COUNT] = [
        RetryCause::WriteBuffer,
        RetryCause::SnoopDrain,
        RetryCause::CamHit,
        RetryCause::Injected,
    ];

    /// The report key suffix (`bus.retry.<key>`).
    pub fn key(self) -> &'static str {
        match self {
            RetryCause::WriteBuffer => "wb_buffer",
            RetryCause::SnoopDrain => "snoop_drain",
            RetryCause::CamHit => "cam",
            RetryCause::Injected => "injected",
        }
    }

    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// One typed hot-path event.
///
/// Addresses are raw `u64`s and masters/CPUs are plain indices so that the
/// kernel crate stays free of domain types; observers that want pretty
/// output render lazily from these payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// A master queued a transaction on its bus port (emitted by
    /// `hmp-bus`). This opens a transaction lifecycle span: the gap to
    /// the first [`SimEvent::BusGrant`] is the bus-acquire wait.
    BusRequest {
        /// Index of the requesting master.
        master: usize,
        /// Operation to be driven.
        op: BusOpKind,
        /// Target address.
        addr: u64,
        /// `true` for a queued snoop-push / victim write-back.
        is_drain: bool,
    },
    /// The bus granted a transaction (emitted by `hmp-bus`).
    BusGrant {
        /// Index of the granted master.
        master: usize,
        /// Operation on the wire.
        op: BusOpKind,
        /// Target address.
        addr: u64,
        /// `true` if this transaction was previously killed by ARTRY.
        is_retry: bool,
        /// `true` for a snoop-push write-back.
        is_drain: bool,
    },
    /// An address phase was killed with ARTRY (emitted by the platform,
    /// which is the only layer that knows the cause).
    BusRetry {
        /// Index of the master whose transaction was killed.
        master: usize,
        /// Target address.
        addr: u64,
        /// Why the phase retried.
        cause: RetryCause,
    },
    /// A snooping cache replied to a snooped operation (emitted by
    /// `hmp-cache`).
    SnoopHit {
        /// Index of the snooping cache's owner.
        owner: usize,
        /// Snooped address.
        addr: u64,
        /// What the cache did.
        action: SnoopActionKind,
        /// Whether the cache asserted the SHARED signal.
        asserts_shared: bool,
    },
    /// A TAG-CAM matched a remote master's address (emitted by
    /// `hmp-core`); the transaction is killed until the ISR drains.
    CamHit {
        /// Index of the CAM's owner.
        owner: usize,
        /// Matched address.
        addr: u64,
    },
    /// A transaction finished its data phase (emitted by `hmp-bus`).
    /// Closes the lifecycle span opened by [`SimEvent::BusRequest`].
    BusComplete {
        /// Index of the master whose transaction completed.
        master: usize,
        /// Operation that completed.
        op: BusOpKind,
        /// Target address.
        addr: u64,
        /// `true` for a snoop-push / victim write-back.
        is_drain: bool,
    },
    /// A non-coherent CPU entered its snoop-drain ISR (emitted by
    /// `hmp-cpu`).
    IsrEnter {
        /// Index of the CPU.
        cpu: usize,
        /// Line the nFIQ asked it to drain.
        line: u64,
    },
    /// A non-coherent CPU finished its snoop-drain ISR (emitted by
    /// `hmp-cpu`). The gap from [`SimEvent::IsrEnter`] is the ISR drain
    /// latency.
    IsrExit {
        /// Index of the CPU.
        cpu: usize,
        /// Line that was drained.
        line: u64,
    },
    /// A cache line was filled from the bus (emitted by `hmp-cache`).
    CacheFill {
        /// Index of the cache's owner.
        owner: usize,
        /// Line base address.
        addr: u64,
        /// `true` if the SHARED signal forced a shared install.
        shared: bool,
    },
    /// A scheduled fault fired (emitted by the platform's injector).
    FaultInjected {
        /// Fired fault class.
        kind: crate::fault::FaultKind,
        /// Target component index.
        target: usize,
        /// Address scope (0 when the class is not address-scoped).
        addr: u64,
    },
    /// The recovery policy quarantined a master: its CPU-initiated
    /// transactions are excluded from arbitration from here on (drains
    /// still flow, so no dirty data is lost).
    MasterQuarantined {
        /// Index of the quarantined master.
        master: usize,
    },
}

impl fmt::Display for SimEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SimEvent::BusRequest {
                master,
                op,
                addr,
                is_drain,
            } => write!(
                f,
                "request cpu{master} {op} {addr:#x}{}",
                if is_drain { " (drain)" } else { "" },
            ),
            SimEvent::BusGrant {
                master,
                op,
                addr,
                is_retry,
                is_drain,
            } => write!(
                f,
                "grant cpu{master} {op} {addr:#x}{}{}",
                if is_drain { " (drain)" } else { "" },
                if is_retry { " (retry)" } else { "" },
            ),
            SimEvent::BusRetry {
                master,
                addr,
                cause,
            } => write!(f, "ARTRY cpu{master} {addr:#x} ({})", cause.key()),
            SimEvent::SnoopHit {
                owner,
                addr,
                action,
                asserts_shared,
            } => write!(
                f,
                "cpu{owner} snoop hit {addr:#x} {action}{}",
                if asserts_shared { " +shared" } else { "" },
            ),
            SimEvent::CamHit { owner, addr } => {
                write!(f, "cpu{owner} cam hit {addr:#x}")
            }
            SimEvent::BusComplete {
                master,
                op,
                addr,
                is_drain,
            } => write!(
                f,
                "complete cpu{master} {op} {addr:#x}{}",
                if is_drain { " (drain)" } else { "" },
            ),
            SimEvent::IsrEnter { cpu, line } => {
                write!(f, "cpu{cpu} isr enter drain {line:#x}")
            }
            SimEvent::IsrExit { cpu, line } => {
                write!(f, "cpu{cpu} isr exit drain {line:#x}")
            }
            SimEvent::CacheFill {
                owner,
                addr,
                shared,
            } => write!(
                f,
                "cpu{owner} fill {addr:#x}{}",
                if shared { " (shared)" } else { "" },
            ),
            SimEvent::FaultInjected { kind, target, addr } => {
                write!(f, "FAULT {kind} target={target} addr={addr:#x}")
            }
            SimEvent::MasterQuarantined { master } => {
                write!(f, "cpu{master} quarantined by recovery policy")
            }
        }
    }
}

/// A sink for [`SimEvent`]s.
///
/// Passed by `&mut` reference down the hot path; the platform is generic
/// over the observer type, so with [`NullObserver`] the calls inline away
/// entirely.
pub trait Observer {
    /// Called at each instrumented point with the bus-clock time.
    fn on_event(&mut self, at: Cycle, event: SimEvent);
}

/// The zero-cost default observer: discards every event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl Observer for NullObserver {
    #[inline(always)]
    fn on_event(&mut self, _at: Cycle, _event: SimEvent) {}
}

/// A timestamped event held by a [`TraceObserver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracedEvent {
    /// Bus-clock time of the event.
    pub at: Cycle,
    /// The event itself, unrendered.
    pub event: SimEvent,
}

impl fmt::Display for TracedEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>8}] {}", self.at.as_u64(), self.event)
    }
}

/// A bounded ring of typed events, rendered lazily.
///
/// Recording stores the `Copy` event only — all formatting happens in
/// [`fmt::Display`], after the simulation, so tracing costs no per-event
/// allocation on the hot path. (The stringly-typed `TraceBuffer` this
/// replaced is gone; this ring is the single tracing substrate.)
#[derive(Debug, Clone, Default)]
pub struct TraceObserver {
    capacity: usize,
    events: VecDeque<TracedEvent>,
    dropped: u64,
}

impl TraceObserver {
    /// Creates an observer keeping the most recent `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceObserver {
            capacity,
            events: VecDeque::with_capacity(capacity.min(4096)),
            dropped: 0,
        }
    }

    /// Number of events currently stored.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates stored events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TracedEvent> {
        self.events.iter()
    }

    /// Drops all stored events, keeping capacity.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Reinitializes for a fresh run: clears the ring and the dropped
    /// counter, keeping capacity.
    pub fn reset(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }
}

impl Observer for TraceObserver {
    fn on_event(&mut self, at: Cycle, event: SimEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TracedEvent { at, event });
    }
}

impl fmt::Display for TraceObserver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.events {
            writeln!(f, "{e}")?;
        }
        if self.dropped > 0 {
            writeln!(f, "({} earlier events dropped)", self.dropped)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_discards() {
        let mut o = NullObserver;
        o.on_event(
            Cycle::new(1),
            SimEvent::CamHit {
                owner: 1,
                addr: 0x40,
            },
        );
        // Nothing observable; the call merely must compile and not panic.
    }

    #[test]
    fn trace_observer_stores_and_evicts() {
        let mut t = TraceObserver::new(2);
        for i in 0..3 {
            t.on_event(
                Cycle::new(i),
                SimEvent::BusGrant {
                    master: 0,
                    op: BusOpKind::ReadLine,
                    addr: 0x40 * i,
                    is_retry: false,
                    is_drain: false,
                },
            );
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.iter().next().unwrap().at, Cycle::new(1));
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn zero_capacity_trace_records_nothing() {
        let mut t = TraceObserver::new(0);
        t.on_event(Cycle::new(1), SimEvent::CamHit { owner: 0, addr: 0 });
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn rendering_is_lazy_and_complete() {
        let mut t = TraceObserver::new(8);
        t.on_event(
            Cycle::new(3),
            SimEvent::BusGrant {
                master: 1,
                op: BusOpKind::ReadLineExcl,
                addr: 0x80,
                is_retry: true,
                is_drain: false,
            },
        );
        t.on_event(
            Cycle::new(4),
            SimEvent::BusRetry {
                master: 1,
                addr: 0x80,
                cause: RetryCause::SnoopDrain,
            },
        );
        t.on_event(
            Cycle::new(5),
            SimEvent::SnoopHit {
                owner: 0,
                addr: 0x80,
                action: SnoopActionKind::Writeback,
                asserts_shared: true,
            },
        );
        t.on_event(Cycle::new(6), SimEvent::IsrEnter { cpu: 1, line: 0xc0 });
        let s = t.to_string();
        assert!(s.contains("grant cpu1 ReadLineExcl 0x80 (retry)"));
        assert!(s.contains("ARTRY cpu1 0x80 (snoop_drain)"));
        assert!(s.contains("cpu0 snoop hit 0x80 writeback +shared"));
        assert!(s.contains("cpu1 isr enter drain 0xc0"));
    }

    #[test]
    fn event_kind_displays() {
        assert_eq!(BusOpKind::WriteWord.to_string(), "WriteWord");
        assert_eq!(SnoopActionKind::Supply.to_string(), "supply");
        assert_eq!(RetryCause::CamHit.key(), "cam");
        let e = SimEvent::CamHit {
            owner: 2,
            addr: 0x140,
        };
        assert_eq!(e.to_string(), "cpu2 cam hit 0x140");
    }
}
