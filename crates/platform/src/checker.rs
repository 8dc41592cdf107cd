//! Golden-memory coherence checking.

use hmp_mem::{Addr, Memory};
use hmp_sim::Cycle;

/// One detected stale read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// Bus time of the offending read.
    pub at: Cycle,
    /// The reading CPU.
    pub cpu: usize,
    /// The word read.
    pub addr: Addr,
    /// The globally last-committed value.
    pub expected: u32,
    /// What the CPU actually observed.
    pub got: u32,
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "[{}] cpu{} read {} = {:#x}, expected {:#x} (stale)",
            self.at.as_u64(),
            self.cpu,
            self.addr,
            self.got,
            self.expected
        )
    }
}

/// A golden memory image updated at every committed write and compared at
/// every committed read.
///
/// On a single shared bus with blocking caches the platform is
/// sequentially consistent *when coherence holds*, so "every read returns
/// the most recently committed write" is exactly the property the paper's
/// wrappers exist to restore. Running the naive (transparent-wrapper)
/// integration of paper Tables 2 and 3 under this checker reports the
/// stale reads those tables illustrate; running the wrapped platform
/// reports none — that contrast is the core correctness test of this
/// reproduction.
///
/// The image is a paged [`Memory`], so it holds and resets only the pages
/// a run writes.
#[derive(Debug, Clone)]
pub struct CoherenceChecker {
    golden: Memory,
    violations: Vec<Violation>,
    checked_reads: u64,
    stale_reads: u64,
    max_recorded: usize,
}

impl CoherenceChecker {
    /// Creates a checker for a memory of `size_bytes`, keeping at most
    /// `max_recorded` violation records; [`CoherenceChecker::stale_reads`]
    /// keeps counting past that.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is not a multiple of the line size.
    pub fn new(size_bytes: u32, max_recorded: usize) -> Self {
        CoherenceChecker {
            golden: Memory::new(size_bytes),
            violations: Vec::new(),
            checked_reads: 0,
            stale_reads: 0,
            max_recorded,
        }
    }

    /// Cross-run reset: zeroes the golden image's written pages and
    /// forgets recorded violations, reusing both allocations.
    pub fn reset(&mut self) {
        self.golden.reset();
        self.violations.clear();
        self.checked_reads = 0;
        self.stale_reads = 0;
    }

    /// Records a committed write of `value` to `addr`.
    pub fn on_write(&mut self, addr: Addr, value: u32) {
        self.golden.write_word(addr, value);
    }

    /// Checks a committed read; records a violation if stale.
    pub fn on_read(&mut self, at: Cycle, cpu: usize, addr: Addr, got: u32) {
        self.checked_reads += 1;
        let expected = self.golden.read_word(addr);
        if expected != got {
            self.stale_reads += 1;
            if self.violations.len() < self.max_recorded {
                self.violations.push(Violation {
                    at,
                    cpu,
                    addr,
                    expected,
                    got,
                });
            }
        }
    }

    /// The current golden value of a word.
    pub fn golden(&self, addr: Addr) -> u32 {
        self.golden.read_word(addr)
    }

    /// Recorded violations (bounded by the construction limit).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Total reads checked.
    pub fn checked_reads(&self) -> u64 {
        self.checked_reads
    }

    /// Total stale reads detected, including those past the record cap.
    pub fn stale_reads(&self) -> u64 {
        self.stale_reads
    }

    /// Returns `true` if no stale read was recorded.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_sequence() {
        let mut c = CoherenceChecker::new(256, 16);
        c.on_write(Addr::new(0x10), 7);
        c.on_read(Cycle::new(1), 0, Addr::new(0x10), 7);
        c.on_read(Cycle::new(2), 1, Addr::new(0x14), 0);
        assert!(c.is_clean());
        assert_eq!(c.checked_reads(), 2);
        assert_eq!(c.golden(Addr::new(0x10)), 7);
    }

    #[test]
    fn stale_read_detected() {
        let mut c = CoherenceChecker::new(256, 16);
        c.on_write(Addr::new(0x10), 7);
        c.on_write(Addr::new(0x10), 8);
        c.on_read(Cycle::new(5), 1, Addr::new(0x10), 7);
        assert!(!c.is_clean());
        let v = c.violations()[0];
        assert_eq!(v.cpu, 1);
        assert_eq!(v.expected, 8);
        assert_eq!(v.got, 7);
        assert_eq!(v.at, Cycle::new(5));
        assert!(v.to_string().contains("stale"));
    }

    #[test]
    fn recording_is_bounded() {
        let mut c = CoherenceChecker::new(256, 2);
        c.on_write(Addr::new(0), 1);
        for i in 0..10 {
            c.on_read(Cycle::new(i), 0, Addr::new(0), 99);
        }
        assert_eq!(c.violations().len(), 2);
        assert_eq!(c.checked_reads(), 10);
        assert_eq!(c.stale_reads(), 10);
        c.reset();
        assert_eq!(c.stale_reads(), 0);
    }
}
