//! The all-in-one metrics observer: spans + histograms + event ring.
//!
//! [`MetricsObserver`] composes a [`SpanTracker`], the log2 [`Hist`]ograms
//! the paper's evaluation needs (bus-acquire wait, transaction service
//! time, ISR drain latency, retries per transaction), per-CPU line
//! fills, a fixed-capacity retry-hot-address table and an optional
//! [`TraceObserver`] event ring for timeline export. Everything is
//! preallocated at construction; the steady state allocates nothing.
//! [`MetricsObserver::snapshot`] renders it all into an owned
//! [`MetricsSnapshot`] at end of run.
//!
//! The observer counts nothing the platform already counts: bus grants,
//! retries, completions and drains, retry causes, snoop and TAG-CAM hits,
//! ISR entries, faults and quarantines live in the run's typed counters
//! (`BusStats`, [`crate::CounterBank`], the CPU counters).

use crate::event::{Observer, SimEvent, TraceObserver};
use crate::hist::Hist;
use crate::span::SpanTracker;
use crate::Cycle;
use std::fmt;

/// Slots in the retry-hot-address table (open addressing).
const RETRY_TABLE_SLOTS: usize = 1024;
/// Probe limit before an insert is counted as overflow.
const RETRY_TABLE_PROBES: usize = 16;

/// Fixed-capacity open-addressing map from address → retry count.
///
/// Emptiness is encoded as `count == 0`, so no slot metadata is needed;
/// inserts that cannot find a slot within the probe limit are counted in
/// `overflow` rather than growing the table.
#[derive(Debug, Clone)]
struct RetryTable {
    slots: Box<[(u64, u64)]>,
    overflow: u64,
}

impl RetryTable {
    fn new() -> Self {
        RetryTable {
            slots: vec![(0, 0); RETRY_TABLE_SLOTS].into_boxed_slice(),
            overflow: 0,
        }
    }

    fn bump(&mut self, addr: u64) {
        let mask = self.slots.len() - 1;
        let mut i = (addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        for _ in 0..RETRY_TABLE_PROBES {
            let slot = &mut self.slots[i];
            if slot.1 == 0 {
                *slot = (addr, 1);
                return;
            }
            if slot.0 == addr {
                slot.1 += 1;
                return;
            }
            i = (i + 1) & mask;
        }
        self.overflow += 1;
    }

    /// The `n` hottest addresses, most retried first (allocates).
    fn top(&self, n: usize) -> Vec<(u64, u64)> {
        let mut rows: Vec<(u64, u64)> = self.slots.iter().copied().filter(|s| s.1 > 0).collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows.truncate(n);
        rows
    }
}

/// An [`Observer`] that derives spans, histograms and counters from the
/// event stream.
#[derive(Debug, Clone)]
pub struct MetricsObserver {
    spans: SpanTracker,
    events: TraceObserver,
    acquire_wait: Hist,
    service_time: Hist,
    isr_latency: Hist,
    retries_per_txn: Hist,
    fills: Vec<u64>,
    open_isr: Vec<Option<Cycle>>,
    retry_addrs: RetryTable,
}

impl MetricsObserver {
    /// A metrics observer for `masters` bus masters keeping
    /// `span_capacity` completed spans and `event_capacity` raw events.
    pub fn new(masters: usize, span_capacity: usize, event_capacity: usize) -> Self {
        MetricsObserver {
            spans: SpanTracker::new(masters, span_capacity),
            events: TraceObserver::new(event_capacity),
            acquire_wait: Hist::new(),
            service_time: Hist::new(),
            isr_latency: Hist::new(),
            retries_per_txn: Hist::new(),
            fills: vec![0; masters],
            open_isr: vec![None; masters],
            retry_addrs: RetryTable::new(),
        }
    }

    /// Zeroes every accumulator in place — spans, event ring, histograms,
    /// per-master fills and the retry-address table — keeping all their
    /// storage for allocation-free reuse across runs.
    pub fn reset(&mut self) {
        self.spans.reset();
        self.events.reset();
        self.acquire_wait.reset();
        self.service_time.reset();
        self.isr_latency.reset();
        self.retries_per_txn.reset();
        self.fills.fill(0);
        self.open_isr.fill(None);
        self.retry_addrs.slots.fill((0, 0));
        self.retry_addrs.overflow = 0;
    }

    /// The underlying span tracker.
    pub fn spans(&self) -> &SpanTracker {
        &self.spans
    }

    /// The raw event ring (for timeline export).
    pub fn events(&self) -> &TraceObserver {
        &self.events
    }

    /// The transaction service-time histogram.
    pub fn service_time(&self) -> &Hist {
        &self.service_time
    }

    /// The bus-acquire wait histogram.
    pub fn acquire_wait(&self) -> &Hist {
        &self.acquire_wait
    }

    /// The ISR drain-latency histogram.
    pub fn isr_latency(&self) -> &Hist {
        &self.isr_latency
    }

    /// Renders everything into an owned snapshot (allocates; end-of-run).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            masters: self.fills.len(),
            acquire_wait: self.acquire_wait.clone(),
            service_time: self.service_time.clone(),
            isr_latency: self.isr_latency.clone(),
            retries_per_txn: self.retries_per_txn.clone(),
            fills: self.fills.clone(),
            top_retry_addrs: self.retry_addrs.top(8),
            retry_addr_overflow: self.retry_addrs.overflow,
            spans_recorded: self.spans.len() as u64 + self.spans.dropped(),
            spans_dropped: self.spans.dropped(),
            span_orphans: self.spans.orphans(),
        }
    }
}

impl Observer for MetricsObserver {
    fn on_event(&mut self, at: Cycle, event: SimEvent) {
        self.events.on_event(at, event);
        match event {
            SimEvent::BusRetry { addr, .. } => self.retry_addrs.bump(addr),
            SimEvent::CacheFill { owner, .. } => {
                if let Some(c) = self.fills.get_mut(owner) {
                    *c += 1;
                }
            }
            SimEvent::IsrEnter { cpu, .. } => {
                if let Some(slot) = self.open_isr.get_mut(cpu) {
                    *slot = Some(at);
                }
            }
            SimEvent::IsrExit { cpu, .. } => {
                if let Some(enter) = self.open_isr.get_mut(cpu).and_then(|s| s.take()) {
                    self.isr_latency.record(at.saturating_since(enter).as_u64());
                }
            }
            SimEvent::BusRequest { .. }
            | SimEvent::BusGrant { .. }
            | SimEvent::BusComplete { .. }
            | SimEvent::SnoopHit { .. }
            | SimEvent::CamHit { .. }
            | SimEvent::FaultInjected { .. }
            | SimEvent::MasterQuarantined { .. } => {}
        }
        if let Some(closed) = self.spans.track(at, event) {
            if let Some(w) = closed.acquire_wait() {
                self.acquire_wait.record(w);
            }
            if let Some(s) = closed.service_time() {
                self.service_time.record(s);
            }
            self.retries_per_txn.record(u64::from(closed.retries));
        }
    }
}

/// An owned end-of-run rendering of a [`MetricsObserver`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Number of bus masters observed.
    pub masters: usize,
    /// Bus-acquire wait (request → first grant), cycles.
    pub acquire_wait: Hist,
    /// Transaction service time (request → completion), cycles.
    pub service_time: Hist,
    /// ISR drain latency (IsrEnter → IsrExit), cycles.
    pub isr_latency: Hist,
    /// ARTRY kills absorbed per completed transaction.
    pub retries_per_txn: Hist,
    /// Cache-line fills per CPU.
    pub fills: Vec<u64>,
    /// The hottest retried addresses as `(addr, retries)`, hottest first.
    pub top_retry_addrs: Vec<(u64, u64)>,
    /// Retry-address inserts dropped because the table was full.
    pub retry_addr_overflow: u64,
    /// Spans completed over the whole run (stored + evicted).
    pub spans_recorded: u64,
    /// Completed spans evicted from the ring.
    pub spans_dropped: u64,
    /// Events that could not be matched to an open span.
    pub span_orphans: u64,
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "service time: {}", self.service_time)?;
        writeln!(f, "acquire wait: {}", self.acquire_wait)?;
        if !self.isr_latency.is_empty() {
            writeln!(f, "isr drain latency: {}", self.isr_latency)?;
        }
        writeln!(f, "retries/txn: {}", self.retries_per_txn)?;
        for (i, fl) in self.fills.iter().enumerate() {
            writeln!(f, "cpu{i}: fills={fl}")?;
        }
        if !self.top_retry_addrs.is_empty() {
            writeln!(f, "hot retry addresses:")?;
            for &(addr, n) in &self.top_retry_addrs {
                writeln!(f, "  {addr:#x}: {n}")?;
            }
        }
        write!(
            f,
            "spans: {} recorded ({} dropped, {} orphan events)",
            self.spans_recorded, self.spans_dropped, self.span_orphans
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{BusOpKind, RetryCause, SnoopActionKind};

    fn drive(m: &mut MetricsObserver) {
        // One CPU read with a retry and a snoop hit, then a drain, then an
        // ISR enter/exit pair.
        let ev = |m: &mut MetricsObserver, at: u64, e: SimEvent| m.on_event(Cycle::new(at), e);
        ev(
            m,
            1,
            SimEvent::BusRequest {
                master: 0,
                op: BusOpKind::ReadLine,
                addr: 0x40,
                is_drain: false,
            },
        );
        ev(
            m,
            2,
            SimEvent::BusGrant {
                master: 0,
                op: BusOpKind::ReadLine,
                addr: 0x40,
                is_retry: false,
                is_drain: false,
            },
        );
        ev(
            m,
            2,
            SimEvent::SnoopHit {
                owner: 1,
                addr: 0x40,
                action: SnoopActionKind::Writeback,
                asserts_shared: false,
            },
        );
        ev(
            m,
            2,
            SimEvent::BusRetry {
                master: 0,
                addr: 0x40,
                cause: RetryCause::SnoopDrain,
            },
        );
        ev(
            m,
            3,
            SimEvent::BusRequest {
                master: 1,
                op: BusOpKind::WriteLine,
                addr: 0x40,
                is_drain: true,
            },
        );
        ev(
            m,
            4,
            SimEvent::BusGrant {
                master: 1,
                op: BusOpKind::WriteLine,
                addr: 0x40,
                is_retry: false,
                is_drain: true,
            },
        );
        ev(
            m,
            6,
            SimEvent::BusComplete {
                master: 1,
                op: BusOpKind::WriteLine,
                addr: 0x40,
                is_drain: true,
            },
        );
        ev(
            m,
            7,
            SimEvent::BusGrant {
                master: 0,
                op: BusOpKind::ReadLine,
                addr: 0x40,
                is_retry: true,
                is_drain: false,
            },
        );
        ev(
            m,
            12,
            SimEvent::BusComplete {
                master: 0,
                op: BusOpKind::ReadLine,
                addr: 0x40,
                is_drain: false,
            },
        );
        ev(m, 13, SimEvent::IsrEnter { cpu: 1, line: 0x40 });
        ev(m, 20, SimEvent::IsrExit { cpu: 1, line: 0x40 });
        ev(
            m,
            21,
            SimEvent::CacheFill {
                owner: 0,
                addr: 0x40,
                shared: false,
            },
        );
        ev(
            m,
            22,
            SimEvent::CamHit {
                owner: 1,
                addr: 0x80,
            },
        );
    }

    #[test]
    fn derives_counts_and_histograms() {
        let mut m = MetricsObserver::new(2, 16, 32);
        drive(&mut m);
        assert_eq!(m.service_time().count(), 2);
        assert_eq!(m.acquire_wait().count(), 2);
        assert_eq!(m.isr_latency().count(), 1);
        assert_eq!(m.isr_latency().sum(), 7);
        assert_eq!(m.spans().len(), 2);
        assert_eq!(m.events().len(), 13);
    }

    #[test]
    fn snapshot_renders_everything() {
        let mut m = MetricsObserver::new(2, 16, 32);
        drive(&mut m);
        let s = m.snapshot();
        assert_eq!(s.masters, 2);
        assert_eq!(s.fills, vec![1, 0]);
        assert_eq!(s.top_retry_addrs, vec![(0x40, 1)]);
        assert_eq!(s.spans_recorded, 2);
        assert_eq!(s.span_orphans, 0);
        // Service-time sum reconciles with the two spans (11 + 3 cycles).
        assert_eq!(s.service_time.sum(), 14);
        let txt = s.to_string();
        assert!(txt.contains("service time"), "{txt}");
        assert!(txt.contains("hot retry addresses"), "{txt}");
        assert!(txt.contains("cpu0: fills=1"), "{txt}");
    }

    #[test]
    fn retry_table_accumulates_and_ranks() {
        let mut t = RetryTable::new();
        for _ in 0..5 {
            t.bump(0x100);
        }
        for _ in 0..2 {
            t.bump(0x200);
        }
        t.bump(0x300);
        assert_eq!(t.top(2), vec![(0x100, 5), (0x200, 2)]);
        assert_eq!(t.overflow, 0);
    }

    #[test]
    fn retry_table_handles_collision_chains() {
        let mut t = RetryTable::new();
        // Far more distinct addresses than the probe limit: some overflow,
        // none lost silently.
        for i in 0..(RETRY_TABLE_SLOTS as u64 * 2) {
            t.bump(i * 0x40);
        }
        let stored: u64 = t.slots.iter().map(|s| s.1).sum();
        assert_eq!(stored + t.overflow, RETRY_TABLE_SLOTS as u64 * 2);
        assert!(t.overflow > 0);
    }

    #[test]
    fn out_of_range_indices_are_ignored() {
        let mut m = MetricsObserver::new(1, 4, 4);
        m.on_event(
            Cycle::new(1),
            SimEvent::CacheFill {
                owner: 9,
                addr: 0x40,
                shared: false,
            },
        );
        m.on_event(Cycle::new(2), SimEvent::IsrExit { cpu: 9, line: 0 });
        let s = m.snapshot();
        assert_eq!(s.fills, vec![0]);
        assert_eq!(s.isr_latency.count(), 0);
    }
}
