//! Simulation-kernel selection.
//!
//! The platform's cycle loop can advance time two ways. The *step* kernel
//! executes every bus cycle, including cycles where every component is
//! merely counting down a known delay (a data phase streaming, a core
//! burning `Delay` cycles, an ISR prologue). The *fast-forward* kernel
//! asks each component for its next event time, bulk-advances the clock
//! and all countdowns to one cycle before the earliest event, and then
//! single-steps that cycle through the ordinary step path — so every
//! grant, snoop, retry and observer event still happens at its true
//! cycle, and the two kernels produce byte-identical results.

/// How the platform's run loop advances simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Kernel {
    /// Execute every bus cycle, one at a time. The reference kernel: the
    /// fast-forward kernel is validated against it.
    Step,
    /// Skip provably-dead cycles between events in O(components), falling
    /// back to single-stepping on any cycle where arbitration, snooping,
    /// a retry, an interrupt delivery or a countdown expiry can occur.
    #[default]
    FastForward,
}

impl Kernel {
    /// Both kernels, reference first.
    pub const ALL: [Kernel; 2] = [Kernel::Step, Kernel::FastForward];

    /// Stable snake_case key (the job wire format and JSON field value).
    pub fn key(self) -> &'static str {
        match self {
            Kernel::Step => "step",
            Kernel::FastForward => "fast_forward",
        }
    }
}

impl core::fmt::Display for Kernel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Kernel::Step => write!(f, "step"),
            Kernel::FastForward => write!(f, "fast-forward"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fast_forward() {
        assert_eq!(Kernel::default(), Kernel::FastForward);
    }

    #[test]
    fn display_names() {
        assert_eq!(Kernel::Step.to_string(), "step");
        assert_eq!(Kernel::FastForward.to_string(), "fast-forward");
    }
}
