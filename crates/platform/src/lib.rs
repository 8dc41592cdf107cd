//! # hmp-platform — system assembly and the cycle loop
//!
//! This crate wires everything together into the paper's evaluation
//! platform: CPUs (`hmp-cpu`) behind wrappers (`hmp-core`) on a shared bus
//! (`hmp-bus`) with snooping caches (`hmp-cache`), TAG-CAM snoop logic for
//! non-coherent processors, a latency-modelled memory (`hmp-mem`), and an
//! optional golden-memory [`CoherenceChecker`] that turns stale reads into
//! reportable violations.
//!
//! * [`PlatformSpec`] / [`CpuSpec`] describe the hardware; [`layout`]
//!   provides the standard address map (private windows, shared window,
//!   lock window) with the shared window cacheable or uncached depending
//!   on the evaluated [`Strategy`];
//! * [`System`] owns all state and steps the platform one **bus cycle** at
//!   a time (each CPU ticks `clock_mult` core cycles per bus cycle);
//! * [`System::run`] drives the simulation to completion, to a watchdog
//!   stall (the hardware deadlock of paper Figure 4 reports as
//!   [`RunOutcome::Stalled`]), or to a cycle budget;
//! * [`presets`] builds the paper's named platforms: PowerPC755 + ARM920T
//!   (PF2, Figure 3), Intel486 + PowerPC755 (PF3, Figure 2), and generic
//!   protocol pairings for all of §2's combinations.
//!
//! # Examples
//!
//! See `examples/quickstart.rs` at the workspace root for an end-to-end
//! run; the unit tests of [`System`] exercise single transactions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
mod checker;
pub mod coherence;
mod config;
mod faults;
mod invariant;
pub mod presets;
mod report;
mod result;
mod system;
pub mod topology;

pub use checker::{CoherenceChecker, Violation};
pub use coherence::{AddressPhase, CompletionAction, LineData, Pending, PendingKind, SnoopVerdict};
pub use config::{layout, CpuSpec, MemLayout, PlatformSpec, Strategy, WrapperMode};
pub use invariant::{classify, InvariantKind, InvariantObserver, InvariantViolation};
pub use report::{CpuReport, Report};
pub use result::{metrics_json, HangReport, RunOutcome, RunResult};
pub use system::System;
pub use topology::{Topology, TopologyMaster};

pub use hmp_sim::Kernel;
