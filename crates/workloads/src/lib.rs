//! # hmp-workloads — the paper's microbenchmarks
//!
//! Section 4 of the paper evaluates its coherence scheme with three
//! lock-protected microbenchmarks, each run under three shared-data
//! strategies (cache disabled / software drain / proposed):
//!
//! * **WCS** (worst case) — both tasks repeatedly enter the critical
//!   section and read-modify the *same* `lines_per_iter` cache lines,
//!   acquiring the lock strictly alternately;
//! * **TCS** (typical case) — each task randomly picks one of **10**
//!   shared blocks per iteration and works on that block's lines;
//! * **BCS** (best case) — only the ARM-side task enters the critical
//!   section; the other processor never touches the shared data, so all
//!   coherence work (the software solution's drain loop in particular) is
//!   pure overhead.
//!
//! [`build_programs`] generates the per-CPU [`hmp_cpu::Program`]s for a
//! scenario/strategy pair; [`RunSpec`] + [`run`] wrap program generation,
//! platform instantiation (PowerPC755 + ARM920T by default, per the
//! paper) and simulation into one call, which is what the figure
//! regeneration binaries in `hmp-bench` use.
//!
//! # Examples
//!
//! ```
//! use hmp_platform::Strategy;
//! use hmp_workloads::{run, MicrobenchParams, RunSpec, Scenario};
//!
//! let mut params = MicrobenchParams::default();
//! params.lines_per_iter = 2;
//! params.outer_iters = 2;
//! let result = run(&RunSpec::new(Scenario::Worst, Strategy::Proposed, params));
//! assert!(result.is_clean_completion());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod generate;
mod params;
mod runner;

pub use codec::{parse_key, spec_from_json, spec_from_value, spec_to_json};
pub use generate::{build_programs, build_programs_for, scenario_lock_kind};
pub use params::{MicrobenchParams, Scenario};
pub use runner::{prepare, run, FaultDirective, PlatformPick, RunSpec, Runner};

pub use hmp_platform::Kernel;
