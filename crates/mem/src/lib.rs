//! # hmp-mem — memory subsystem for the hmp simulator
//!
//! Models the main-memory side of the reproduced platform:
//!
//! * [`Addr`] — byte addresses with word/line alignment helpers. The
//!   platform is word-oriented (32-bit words, 8-word / 32-byte cache lines,
//!   matching the paper's "burst (8 words)" in Table 4).
//! * [`Memory`] — a paged, word-addressed physical memory that stores real
//!   data values. Storing data (rather than only modelling timing) is what
//!   lets the test suite *detect stale reads* — the exact failure the
//!   paper's Tables 2 and 3 illustrate.
//! * [`MemoryMap`] — classifies addresses into cacheable write-back,
//!   cacheable write-through, uncached, and device windows. The paper's
//!   evaluation hinges on this: lock variables are always placed in an
//!   uncached window, and the *cache-disabled* baseline puts the shared
//!   data there too.
//! * [`LatencyModel`] / [`MemoryController`] — Table 4 timing: 6 bus cycles
//!   for a single word, 6 + 1·(n−1) for an n-word burst (13 cycles for the
//!   8-word line fill), sweepable for the Figure 8 miss-penalty experiment.
//!
//! # Examples
//!
//! ```
//! use hmp_mem::{Addr, LatencyModel, Memory};
//!
//! let mut mem = Memory::new(64 * 1024);
//! mem.write_word(Addr::new(0x100), 0xDEAD_BEEF);
//! assert_eq!(mem.read_word(Addr::new(0x100)), 0xDEAD_BEEF);
//!
//! let lat = LatencyModel::default(); // Table 4 defaults
//! assert_eq!(lat.burst(8).as_u64(), 13);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod controller;
mod map;
mod memory;

pub use addr::{Addr, LINE_BYTES, LINE_WORDS, WORD_BYTES};
pub use controller::{LatencyModel, MemoryController};
pub use map::{MapError, MemAttr, MemoryMap, Region};
pub use memory::Memory;
