//! Microbenchmark parameters.

use core::fmt;

/// The three evaluation scenarios of paper §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// WCS: both tasks hammer the same blocks, alternating the lock.
    Worst,
    /// TCS: each task picks randomly among 10 shared blocks.
    Typical,
    /// BCS: only the second (ARM-side) task uses the critical section.
    Best,
}

impl Scenario {
    /// All scenarios in the paper's figure order (5, 7, 6).
    pub const ALL: [Scenario; 3] = [Scenario::Worst, Scenario::Typical, Scenario::Best];

    /// Stable snake_case key (the job wire format and CLI value).
    pub fn key(self) -> &'static str {
        match self {
            Scenario::Worst => "worst",
            Scenario::Typical => "typical",
            Scenario::Best => "best",
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scenario::Worst => write!(f, "WCS"),
            Scenario::Typical => write!(f, "TCS"),
            Scenario::Best => write!(f, "BCS"),
        }
    }
}

/// Knobs of the paper's microbenchmarks.
///
/// The paper sweeps `lines_per_iter` over {1, 2, 4, 8, 16, 32} (the
/// x-axis of Figures 5–7) and `exec_time` over {1, 2, 4}; `outer_iters`
/// fixes the amount of work so execution-time *ratios* are meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MicrobenchParams {
    /// Cache lines accessed (read + modified) per critical-section
    /// iteration — "# of accessed cache lines per iteration".
    pub lines_per_iter: u32,
    /// Times the line set is re-read/re-modified inside one critical
    /// section — the paper's `exec_time`.
    pub exec_time: u32,
    /// Critical-section entries per task.
    pub outer_iters: u32,
    /// Words touched (read + written) per accessed line. The paper's
    /// tasks "access a number of cache lines and modify them", i.e. whole
    /// lines — 8 words. Reducing this thins the per-line work.
    pub words_per_line: u32,
    /// Core cycles of loop/address-arithmetic overhead modelled after
    /// each word's read-modify-write (the instructions a real task would
    /// spend besides the loads/stores themselves).
    pub overhead_per_word: u32,
    /// Seed for the TCS block picks.
    pub seed: u64,
}

impl MicrobenchParams {
    /// The paper's x-axis sweep for Figures 5–7.
    pub const LINE_SWEEP: [u32; 6] = [1, 2, 4, 8, 16, 32];
    /// The paper's exec_time values.
    pub const EXEC_SWEEP: [u32; 3] = [1, 2, 4];
    /// Number of shared blocks the TCS picks from (paper: "among 10
    /// blocks").
    pub const TCS_BLOCKS: u32 = 10;

    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero or `lines_per_iter` exceeds a block
    /// (32 lines).
    pub fn validate(&self) {
        assert!(self.lines_per_iter >= 1, "need at least one line");
        assert!(self.lines_per_iter <= 32, "a shared block holds 32 lines");
        assert!(self.exec_time >= 1, "exec_time starts at 1");
        assert!(self.outer_iters >= 1, "need at least one iteration");
        assert!(
            (1..=8).contains(&self.words_per_line),
            "a line holds 1..=8 words"
        );
    }
}

impl Default for MicrobenchParams {
    /// 8 lines, exec_time 1, 6 critical sections per task, whole-line
    /// accesses with 2 cycles of loop overhead per word, seed 1.
    fn default() -> Self {
        MicrobenchParams {
            lines_per_iter: 8,
            exec_time: 1,
            outer_iters: 6,
            words_per_line: 8,
            overhead_per_word: 2,
            seed: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(Scenario::Worst.to_string(), "WCS");
        assert_eq!(Scenario::Typical.to_string(), "TCS");
        assert_eq!(Scenario::Best.to_string(), "BCS");
        assert_eq!(Scenario::ALL.len(), 3);
    }

    #[test]
    fn default_is_valid() {
        MicrobenchParams::default().validate();
    }

    #[test]
    fn sweeps_match_paper() {
        assert_eq!(MicrobenchParams::LINE_SWEEP, [1, 2, 4, 8, 16, 32]);
        assert_eq!(MicrobenchParams::EXEC_SWEEP, [1, 2, 4]);
        assert_eq!(MicrobenchParams::TCS_BLOCKS, 10);
    }

    #[test]
    #[should_panic(expected = "32 lines")]
    fn too_many_lines_rejected() {
        let p = MicrobenchParams {
            lines_per_iter: 33,
            ..Default::default()
        };
        p.validate();
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn zero_lines_rejected() {
        let p = MicrobenchParams {
            lines_per_iter: 0,
            ..Default::default()
        };
        p.validate();
    }
}
