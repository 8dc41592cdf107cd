//! Incremental next-event scheduling for the fast-forward kernel.
//!
//! The original planner recomputed every node's next event each
//! iteration, which becomes the wall on event-dense workloads. An
//! [`EventSchedule`] keeps one *absolute* next-event time per node plus a
//! dirty set of nodes whose state changed since they were last planned:
//! a plan iteration recomputes only the dirty nodes, because absolute
//! event times are invariant under pure-countdown ticks and warps (they
//! change only at the state transitions that mark a node dirty).
//!
//! "Earliest" is a linear scan over the dense `next` array. Every kernel
//! iteration already walks all nodes to warp or step them, so a scan of
//! one `u64` per node costs no more than the iteration it plans.

/// Sentinel absolute time for "this node has no pending event".
pub const NO_EVENT: u64 = u64::MAX;

/// Per-node next-event times with dirty tracking and an earliest-event
/// query. See the module docs for the invariants.
#[derive(Debug, Clone)]
pub struct EventSchedule {
    /// Absolute next-event bus cycle per node ([`NO_EVENT`] = none).
    /// Only meaningful while the node's dirty bit is clear.
    next: Vec<u64>,
    /// Dirty bitmask, one bit per node, packed into words.
    dirty: Vec<u64>,
    len: usize,
}

impl EventSchedule {
    /// A schedule for `len` nodes, all initially dirty.
    pub fn new(len: usize) -> Self {
        let words = len.div_ceil(64).max(1);
        let mut s = EventSchedule {
            next: vec![NO_EVENT; len],
            dirty: vec![0; words],
            len,
        };
        s.mark_all_dirty();
        s
    }

    /// Number of nodes tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the schedule tracks no nodes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reinitializes in place for reuse across runs: everything dirty,
    /// all event times cleared. Keeps every allocation.
    pub fn reset(&mut self) {
        self.next.fill(NO_EVENT);
        self.mark_all_dirty();
    }

    /// Marks node `i` as needing recomputation before the next plan.
    #[inline]
    pub fn mark_dirty(&mut self, i: usize) {
        self.dirty[i >> 6] |= 1 << (i & 63);
    }

    /// Marks every node dirty (used at construction, reset, kernel or
    /// configuration changes, and fault fire cycles).
    pub fn mark_all_dirty(&mut self) {
        if self.len == 0 {
            return;
        }
        let (full_words, tail) = (self.len >> 6, self.len & 63);
        for w in &mut self.dirty[..full_words] {
            *w = u64::MAX;
        }
        if tail != 0 {
            self.dirty[full_words] = (1u64 << tail) - 1;
        }
    }

    /// Whether node `i` is marked dirty.
    #[inline]
    pub fn is_dirty(&self, i: usize) -> bool {
        self.dirty[i >> 6] & (1 << (i & 63)) != 0
    }

    /// Pops one dirty node index, clearing its bit; `None` when the set
    /// is empty. Callers drain this before querying
    /// [`EventSchedule::earliest`], recording a fresh time for each
    /// popped node.
    #[inline]
    pub fn pop_dirty(&mut self) -> Option<usize> {
        for (w, word) in self.dirty.iter_mut().enumerate() {
            if *word != 0 {
                let b = word.trailing_zeros() as usize;
                *word &= *word - 1;
                return Some((w << 6) | b);
            }
        }
        None
    }

    /// The recorded absolute event time of node `i` ([`NO_EVENT`] if
    /// none). Only meaningful while the node is not dirty.
    #[inline]
    pub fn next_of(&self, i: usize) -> u64 {
        self.next[i]
    }

    /// Records node `i`'s freshly computed absolute event time.
    #[inline]
    pub fn record(&mut self, i: usize, abs: u64) {
        self.next[i] = abs;
    }

    /// The earliest recorded event time across all nodes ([`NO_EVENT`] if
    /// none). Requires the dirty set to be drained first.
    #[inline]
    pub fn earliest(&self) -> u64 {
        self.next.iter().copied().min().unwrap_or(NO_EVENT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(s: &mut EventSchedule) -> Vec<usize> {
        let mut v = Vec::new();
        while let Some(i) = s.pop_dirty() {
            v.push(i);
        }
        v
    }

    #[test]
    fn new_schedule_is_all_dirty() {
        let mut s = EventSchedule::new(3);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(s.is_dirty(0) && s.is_dirty(1) && s.is_dirty(2));
        assert_eq!(drain(&mut s), vec![0, 1, 2]);
        assert_eq!(s.pop_dirty(), None);
        assert_eq!(s.earliest(), NO_EVENT);
    }

    #[test]
    fn record_and_earliest_linear() {
        let mut s = EventSchedule::new(4);
        drain(&mut s);
        s.record(0, 100);
        s.record(1, 40);
        s.record(2, NO_EVENT);
        s.record(3, 60);
        assert_eq!(s.earliest(), 40);
        assert_eq!(s.next_of(1), 40);
        s.record(1, 200);
        assert_eq!(s.earliest(), 60);
    }

    #[test]
    fn twelve_nodes_rerecord_and_retract() {
        let n = 12;
        let mut s = EventSchedule::new(n);
        drain(&mut s);
        for i in 0..n {
            s.record(i, 100 + i as u64);
        }
        assert_eq!(s.earliest(), 100);
        // Re-record node 0 later: the earliest moves to the next node.
        s.record(0, 500);
        assert_eq!(s.earliest(), 101);
        // Retract node 1 entirely.
        s.record(1, NO_EVENT);
        assert_eq!(s.earliest(), 102);
        s.mark_dirty(2);
        assert!(s.is_dirty(2));
        assert_eq!(s.pop_dirty(), Some(2));
        s.record(2, 600);
        assert_eq!(s.earliest(), 103);
    }

    #[test]
    fn mark_all_dirty_covers_word_boundaries() {
        for n in [1, 63, 64, 65, 130] {
            let mut s = EventSchedule::new(n);
            let drained = drain(&mut s);
            assert_eq!(drained.len(), n, "n={n}");
            assert_eq!(drained, (0..n).collect::<Vec<_>>());
            s.mark_dirty(n - 1);
            assert!(s.is_dirty(n - 1));
            assert_eq!(drain(&mut s), vec![n - 1]);
        }
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut s = EventSchedule::new(12);
        drain(&mut s);
        for i in 0..12 {
            s.record(i, 10 + i as u64);
        }
        assert_eq!(s.earliest(), 10);
        s.reset();
        assert!((0..12).all(|i| s.is_dirty(i)));
        assert_eq!(drain(&mut s).len(), 12);
        assert_eq!(s.earliest(), NO_EVENT);
    }
}
