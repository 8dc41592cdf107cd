//! # hmp-cache — set-associative caches and the coherence-protocol zoo
//!
//! The paper integrates processors whose cache controllers speak different
//! invalidation-based protocols:
//!
//! * **MEI** — PowerPC755 (no Shared state at all);
//! * **MSI** — the classic three-state protocol (no Exclusive state, and no
//!   shared-signal output, which is what breaks the naive MSI+MESI
//!   integration in the paper's Table 3);
//! * **MESI** — Intel Pentium-class; the Write-back Enhanced Intel486's
//!   "modified MESI" is MEI for write-back lines plus [`ProtocolKind::Si`]
//!   for write-through lines (paper §3);
//! * **MOESI** — UltraSPARC/AMD64 style, the only protocol family assumed
//!   to do cache-to-cache supply (paper §2);
//! * **SI** — the degenerate write-through protocol.
//!
//! This crate gives each protocol as one [`Protocol`] transition table:
//! its states and its fill, write-hit and snoop cells, as paper §2 defines
//! them. It also provides [`DataCache`], a set-associative,
//! write-back/write-through cache that stores real data so stale reads are
//! observable. Its lines live in one set-major slot array, and replacement
//! is true LRU: each line carries a recency stamp from a per-cache clock,
//! renewed by its fill and every processor-side hit, and a full set evicts
//! its smallest stamp. The cache is a *passive* state container: it never talks to
//! a bus itself. The platform crate orchestrates probe → bus transaction →
//! fill, and the wrapper (in `hmp-core`) decides what each snoop port
//! actually observes.
//!
//! # Examples
//!
//! ```
//! use hmp_cache::{Access, LineState, ProtocolKind};
//!
//! let mesi = ProtocolKind::Mesi.protocol();
//! // A read miss with the shared signal deasserted fills Exclusive...
//! assert_eq!(mesi.fill_state(Access::Read, false), LineState::Exclusive);
//! // ...and with it asserted fills Shared. The paper's wrappers exploit
//! // exactly this pair of behaviours.
//! assert_eq!(mesi.fill_state(Access::Read, true), LineState::Shared);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod event;
mod protocol;
mod state;

pub use cache::{CacheConfig, DataCache, EvictedLine, ReadProbe, WriteProbe};
pub use event::{Access, SnoopAction, SnoopOp, SnoopReply, WriteHitOutcome};
pub use protocol::{Protocol, ProtocolKind, SnoopTransition};
pub use state::LineState;
