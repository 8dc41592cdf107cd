//! # hmp-sim — simulation kernel for the hmp heterogeneous-coherence simulator
//!
//! This crate holds the domain-neutral plumbing every other `hmp` crate
//! builds on:
//!
//! * [`Cycle`] / [`CoreCycle`] — newtypes for bus-clock and core-clock time,
//!   plus [`ClockDomain`] to relate the two (the reproduced platform runs a
//!   100 MHz PowerPC755 and a 50 MHz ARM920T on a 50 MHz ASB bus).
//! * [`SplitMix64`] — a tiny, deterministic, seedable RNG used for every
//!   randomized decision in the simulator (typical-case workload block
//!   picks, interrupt-response jitter). No global or wall-clock entropy is
//!   ever used, so every run is bit-reproducible.
//! * [`SimEvent`] / [`Observer`] — typed hot-path instrumentation: the bus,
//!   caches, snoop logic and CPUs emit `Copy` events; [`NullObserver`]
//!   compiles to a no-op and [`TraceObserver`] stores events unrendered.
//! * [`CounterBank`] — enum-indexed activity counters ([`CpuCounter`],
//!   [`RetryCause`]) whose dotted report keys are built only on demand.
//! * [`Span`] / [`SpanTracker`] — per-transaction lifecycle spans stitched
//!   from the event stream (request → grant → retries → completion).
//! * [`Hist`] — allocation-free log2-bucketed latency histograms.
//! * [`MetricsObserver`] / [`MetricsSnapshot`] — the all-in-one metrics
//!   sink: spans, histograms, per-CPU fills, hot retry addresses. Bus,
//!   retry, snoop, ISR and fault totals live in the typed counters.
//! * [`MetricsRegistry`] / [`TimeSeriesSnapshot`] — streaming windowed
//!   time series (utilization, grant share, occupancy, retries) with
//!   decimation-by-merging so memory stays O(capacity) over arbitrarily
//!   long runs, plus [`KernelProfile`] wall-time self-profiling and a
//!   Prometheus-style text [`exposition`].
//! * [`EventSchedule`] — per-node absolute next-event times with dirty
//!   tracking and a linear earliest-event scan: the incremental planner
//!   core of the fast-forward kernel.
//! * [`export`] — Chrome/Perfetto trace-event JSON rendering of a run.
//! * [`Watchdog`] — forward-progress detection, used to turn the paper's
//!   *hardware deadlock* (Figure 4) into a reportable simulation outcome
//!   instead of a hang.
//! * [`FaultPlan`] / [`FaultSpec`] / [`FaultKind`] — deterministic,
//!   seed-reproducible fault schedules for the chaos harness; the
//!   platform layer injects each class at the component boundary it
//!   models.
//!
//! # Examples
//!
//! ```
//! use hmp_sim::{ClockDomain, Cycle, SplitMix64};
//!
//! let ppc = ClockDomain::new(2); // 100 MHz core on a 50 MHz bus
//! assert_eq!(ppc.core_cycles_per_bus_cycle(), 2);
//!
//! let mut rng = SplitMix64::new(42);
//! let a = rng.next_u64();
//! let b = SplitMix64::new(42).next_u64();
//! assert_eq!(a, b); // fully deterministic
//! # let _ = Cycle::ZERO;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod counters;
pub mod digest;
mod event;
pub mod export;
mod fault;
mod hist;
mod kernel;
mod metrics;
mod rng;
mod schedule;
mod span;
mod timeseries;
mod watchdog;

pub use clock::{ClockDomain, CoreCycle, Cycle};
pub use counters::{CounterBank, CpuCounter};
pub use digest::{Fnv64, SIM_EPOCH};
pub use event::{
    BusOpKind, NullObserver, Observer, RetryCause, SimEvent, SnoopActionKind, TraceObserver,
    TracedEvent,
};
pub use fault::{FaultKind, FaultPlan, FaultSpec};
pub use hist::{Hist, BUCKETS as HIST_BUCKETS};
pub use kernel::Kernel;
pub use metrics::{MetricsObserver, MetricsSnapshot};
pub use rng::SplitMix64;
pub use schedule::{EventSchedule, NO_EVENT};
pub use span::{Span, SpanTracker};
pub use timeseries::{
    exposition, exposition_header, KernelMix, KernelProfile, MetricsRegistry, TimeSeriesSnapshot,
    TimeSeriesSpec,
};
pub use watchdog::{Watchdog, WatchdogVerdict};
