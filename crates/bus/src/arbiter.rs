//! Bus arbitration policies.

use crate::MasterId;

/// How the arbiter picks among requesting masters.
///
/// AMBA ASB arbiters are commonly **fixed-priority** (lowest master index
/// wins), which is what the paper's Figure 2/3 platform implies — and
/// which, combined with retry back-off (BOFF), is what makes the paper's
/// Figure 4 hardware deadlock reachable. **Round-robin** is the fairer
/// default for performance studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ArbitrationPolicy {
    /// Rotate priority after each grant (fair).
    #[default]
    RoundRobin,
    /// Master 0 always beats master 1, and so on.
    FixedPriority,
    /// First-come-first-served: oldest outstanding request wins, ties
    /// broken by master index. This is the "FCFS service discipline" of
    /// arXiv:1004.3560, whose analytical model predicts near-equal grant
    /// shares under symmetric load — the fairness baseline the
    /// `fabric_sweep` benchmark compares against.
    Fcfs,
}

impl ArbitrationPolicy {
    /// Every discipline the arbiter supports.
    pub const ALL: [ArbitrationPolicy; 3] = [
        ArbitrationPolicy::RoundRobin,
        ArbitrationPolicy::FixedPriority,
        ArbitrationPolicy::Fcfs,
    ];

    /// Stable snake_case key (the job wire format and JSON field value).
    pub fn key(self) -> &'static str {
        match self {
            ArbitrationPolicy::RoundRobin => "round_robin",
            ArbitrationPolicy::FixedPriority => "fixed_priority",
            ArbitrationPolicy::Fcfs => "fcfs",
        }
    }
}

/// A fair round-robin arbiter over a fixed set of masters.
///
/// The AMBA ASB leaves the arbitration algorithm to the implementation;
/// round-robin is the usual choice and the one that makes the paper's
/// snoop-push sequencing work: after a master's transaction is killed by
/// ARTRY, the *other* master (which queued the drain write-back) wins the
/// next grant, pushes the dirty line, and only then does the first master's
/// retry succeed.
///
/// # Examples
///
/// ```
/// use hmp_bus::{Arbiter, MasterId};
/// let mut arb = Arbiter::new(2);
/// assert_eq!(arb.grant(&[true, true]), Some(MasterId(0)));
/// assert_eq!(arb.grant(&[true, true]), Some(MasterId(1)));
/// assert_eq!(arb.grant(&[true, true]), Some(MasterId(0)));
/// assert_eq!(arb.grant(&[false, false]), None);
/// ```
#[derive(Debug, Clone)]
pub struct Arbiter {
    masters: usize,
    policy: ArbitrationPolicy,
    /// Index of the master that was granted most recently.
    last: usize,
}

impl Arbiter {
    /// Creates a round-robin arbiter for `masters` bus masters.
    ///
    /// # Panics
    ///
    /// Panics if `masters` is zero.
    pub fn new(masters: usize) -> Self {
        Arbiter::with_policy(masters, ArbitrationPolicy::RoundRobin)
    }

    /// Creates an arbiter with an explicit policy.
    ///
    /// # Panics
    ///
    /// Panics if `masters` is zero.
    pub fn with_policy(masters: usize, policy: ArbitrationPolicy) -> Self {
        assert!(masters > 0, "a bus needs at least one master");
        Arbiter {
            masters,
            policy,
            last: masters - 1, // so master 0 wins the first round
        }
    }

    /// Number of masters attached.
    pub fn masters(&self) -> usize {
        self.masters
    }

    /// Cross-run reset: restores the grant rotation to its power-on
    /// position (master 0 wins the first round). The policy stays.
    pub fn reset(&mut self) {
        self.last = self.masters - 1;
    }

    /// The active policy.
    pub fn policy(&self) -> ArbitrationPolicy {
        self.policy
    }

    /// Grants the bus to the next requesting master after the previous
    /// grantee, if any is requesting. `requesting[i]` is master *i*'s BREQ.
    ///
    /// # Panics
    ///
    /// Panics if `requesting.len()` differs from the master count.
    pub fn grant(&mut self, requesting: &[bool]) -> Option<MasterId> {
        self.grant_stamped(requesting, &[])
    }

    /// [`Arbiter::grant`] with per-master request timestamps for the
    /// [`ArbitrationPolicy::Fcfs`] queue discipline: `stamps[i]` is the
    /// cycle master *i* raised its (still outstanding) BREQ. Round-robin
    /// and fixed-priority ignore the stamps, so callers without timestamp
    /// tracking may pass `&[]`.
    ///
    /// # Panics
    ///
    /// Panics if `requesting.len()` differs from the master count, or if
    /// the policy is FCFS and `stamps` is not the same width.
    pub fn grant_stamped(&mut self, requesting: &[bool], stamps: &[u64]) -> Option<MasterId> {
        assert_eq!(requesting.len(), self.masters, "BREQ vector width mismatch");
        match self.policy {
            ArbitrationPolicy::RoundRobin => {
                for off in 1..=self.masters {
                    let idx = (self.last + off) % self.masters;
                    if requesting[idx] {
                        self.last = idx;
                        return Some(MasterId(idx));
                    }
                }
                None
            }
            ArbitrationPolicy::FixedPriority => {
                let idx = requesting.iter().position(|&r| r)?;
                self.last = idx;
                Some(MasterId(idx))
            }
            ArbitrationPolicy::Fcfs => {
                assert_eq!(
                    stamps.len(),
                    self.masters,
                    "FCFS stamp vector width mismatch"
                );
                let idx = requesting
                    .iter()
                    .enumerate()
                    .filter(|&(_, &r)| r)
                    .min_by_key(|&(i, _)| (stamps[i], i))?
                    .0;
                self.last = idx;
                Some(MasterId(idx))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_alternates() {
        let mut arb = Arbiter::new(3);
        assert_eq!(arb.grant(&[true, true, true]), Some(MasterId(0)));
        assert_eq!(arb.grant(&[true, true, true]), Some(MasterId(1)));
        assert_eq!(arb.grant(&[true, true, true]), Some(MasterId(2)));
        assert_eq!(arb.grant(&[true, true, true]), Some(MasterId(0)));
    }

    #[test]
    fn skips_idle_masters() {
        let mut arb = Arbiter::new(3);
        assert_eq!(arb.grant(&[false, true, false]), Some(MasterId(1)));
        assert_eq!(arb.grant(&[true, false, false]), Some(MasterId(0)));
        // Pointer sits at 0; with all requesting, 1 is next.
        assert_eq!(arb.grant(&[true, true, true]), Some(MasterId(1)));
    }

    #[test]
    fn no_requests_no_grant() {
        let mut arb = Arbiter::new(2);
        assert_eq!(arb.grant(&[false, false]), None);
        // A no-grant round must not move the pointer.
        assert_eq!(arb.grant(&[true, true]), Some(MasterId(0)));
    }

    #[test]
    fn same_master_can_hold_the_bus_alone() {
        let mut arb = Arbiter::new(2);
        assert_eq!(arb.grant(&[true, false]), Some(MasterId(0)));
        assert_eq!(arb.grant(&[true, false]), Some(MasterId(0)));
    }

    #[test]
    #[should_panic(expected = "at least one master")]
    fn zero_masters_panics() {
        let _ = Arbiter::new(0);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_width_panics() {
        Arbiter::new(2).grant(&[true]);
    }

    #[test]
    fn masters_accessor() {
        let arb = Arbiter::new(4);
        assert_eq!(arb.masters(), 4);
        assert_eq!(arb.policy(), ArbitrationPolicy::RoundRobin);
    }

    #[test]
    fn fixed_priority_always_favors_lowest_index() {
        let mut arb = Arbiter::with_policy(3, ArbitrationPolicy::FixedPriority);
        assert_eq!(arb.grant(&[true, true, true]), Some(MasterId(0)));
        assert_eq!(arb.grant(&[true, true, true]), Some(MasterId(0)));
        assert_eq!(arb.grant(&[false, true, true]), Some(MasterId(1)));
        assert_eq!(arb.grant(&[false, false, true]), Some(MasterId(2)));
        assert_eq!(arb.grant(&[false, false, false]), None);
    }

    #[test]
    fn policy_default_is_round_robin() {
        assert_eq!(ArbitrationPolicy::default(), ArbitrationPolicy::RoundRobin);
    }

    #[test]
    fn fcfs_simultaneous_requests_grant_in_index_order() {
        let mut arb = Arbiter::with_policy(3, ArbitrationPolicy::Fcfs);
        // All three raised BREQ at cycle 10: ties break by index.
        assert_eq!(
            arb.grant_stamped(&[true, true, true], &[10, 10, 10]),
            Some(MasterId(0))
        );
        assert_eq!(
            arb.grant_stamped(&[false, true, true], &[10, 10, 10]),
            Some(MasterId(1))
        );
        assert_eq!(
            arb.grant_stamped(&[false, false, true], &[10, 10, 10]),
            Some(MasterId(2))
        );
    }

    #[test]
    fn fcfs_staggered_requests_grant_oldest_first() {
        let mut arb = Arbiter::with_policy(3, ArbitrationPolicy::Fcfs);
        // Master 2 asked at cycle 5, master 0 at 7, master 1 at 9.
        assert_eq!(
            arb.grant_stamped(&[true, true, true], &[7, 9, 5]),
            Some(MasterId(2))
        );
        assert_eq!(
            arb.grant_stamped(&[true, true, false], &[7, 9, 5]),
            Some(MasterId(0))
        );
        // Master 2 re-requests later (cycle 20) — it now queues behind 1.
        assert_eq!(
            arb.grant_stamped(&[false, true, true], &[7, 9, 20]),
            Some(MasterId(1))
        );
        assert_eq!(
            arb.grant_stamped(&[false, false, true], &[7, 9, 20]),
            Some(MasterId(2))
        );
    }

    #[test]
    fn fcfs_no_requests_no_grant() {
        let mut arb = Arbiter::with_policy(2, ArbitrationPolicy::Fcfs);
        assert_eq!(arb.grant_stamped(&[false, false], &[0, 0]), None);
    }

    #[test]
    #[should_panic(expected = "stamp vector width mismatch")]
    fn fcfs_missing_stamps_panics() {
        let mut arb = Arbiter::with_policy(2, ArbitrationPolicy::Fcfs);
        let _ = arb.grant(&[true, true]);
    }

    #[test]
    fn non_fcfs_policies_ignore_stamps() {
        let mut arb = Arbiter::new(2);
        // Stamps favour master 1, but round-robin still rotates from 0.
        assert_eq!(
            arb.grant_stamped(&[true, true], &[100, 1]),
            Some(MasterId(0))
        );
        let mut fp = Arbiter::with_policy(2, ArbitrationPolicy::FixedPriority);
        assert_eq!(
            fp.grant_stamped(&[true, true], &[100, 1]),
            Some(MasterId(0))
        );
    }
}
