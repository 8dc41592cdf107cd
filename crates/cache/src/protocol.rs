//! The five coherence protocols as transition tables, and the registry
//! that hands them out.

use crate::event::{Access, SnoopAction, SnoopOp, WriteHitOutcome};
use crate::state::LineState;
use core::fmt;
use LineState::{Exclusive as E, Invalid as I, Modified as M, Owned as O, Shared as S};
use SnoopAction::{None as Quiet, SupplyLine as Supply, WritebackLine as Writeback};
use WriteHitOutcome::{Local, NeedsUpgrade, WriteThrough};

/// One cell of a protocol's snoop table.
///
/// Unlike [`crate::SnoopReply`] (which a [`crate::DataCache`] returns with
/// data attached), this is the pure FSM answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SnoopTransition {
    /// The state the line moves to.
    pub next: LineState,
    /// Required data movement.
    pub action: SnoopAction,
    /// Whether the controller drives the bus shared signal.
    pub asserts_shared: bool,
}

/// An invalidation-based cache-coherence protocol, as a transition table.
///
/// Paper §2 defines each protocol by its states and by the three stimulus
/// classes of a bus snooping controller; the table has one lookup each:
///
/// * [`fill_state`](Protocol::fill_state) — what state a miss fill lands
///   in, given the sampled *shared* signal;
/// * [`write_hit`](Protocol::write_hit) — what a local store to a valid
///   line requires;
/// * [`snoop`](Protocol::snoop) — how a valid line reacts to an observed
///   (possibly wrapper-translated) bus operation.
///
/// Rows are indexed by the [`LineState`] and [`SnoopOp`] discriminants. An
/// empty cell is a state the protocol never holds, or a miss it does not
/// allocate on; looking one up is a simulator bug and panics naming the
/// protocol and the state. Invalid lines leave the cache, so the Invalid
/// rows are empty too. One `static` table per protocol is reachable
/// through [`ProtocolKind::protocol`].
#[derive(Debug)]
pub struct Protocol {
    kind: ProtocolKind,
    states: &'static [LineState],
    /// Fill state per miss: read unshared, read shared, write.
    fill: [Option<LineState>; 3],
    write_hit: [Option<WriteHitOutcome>; 5],
    /// Per state, the cell per [`SnoopOp`]: read, write, upgrade.
    snoop: [[Option<SnoopTransition>; 3]; 5],
}

impl Protocol {
    /// Which protocol this is.
    pub fn kind(&self) -> ProtocolKind {
        self.kind
    }

    /// The states this protocol can ever place a line in (always includes
    /// `Invalid`).
    pub fn states(&self) -> &'static [LineState] {
        self.states
    }

    /// State in which a miss fill completes. `shared_signal` is the value
    /// sampled on the bus shared line during the fill.
    ///
    /// # Panics
    ///
    /// Panics on a write miss under SI, which does not write-allocate.
    #[inline]
    pub fn fill_state(&self, access: Access, shared_signal: bool) -> LineState {
        let miss = match access {
            Access::Read => usize::from(shared_signal),
            Access::Write => 2,
        };
        self.fill[miss]
            .unwrap_or_else(|| panic!("{} lines do not allocate on a {access} miss", self.kind))
    }

    /// Reaction to a processor write hitting a line in state `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is not a valid state of this protocol.
    #[inline]
    pub fn write_hit(&self, state: LineState) -> WriteHitOutcome {
        self.write_hit[state as usize]
            .unwrap_or_else(|| panic!("{} write hit in impossible state {state}", self.kind))
    }

    /// Reaction of a line in state `state` to an observed bus operation.
    ///
    /// # Panics
    ///
    /// Panics if `state` is not a valid state of this protocol.
    #[inline]
    pub fn snoop(&self, state: LineState, op: SnoopOp) -> SnoopTransition {
        self.snoop[state as usize][op as usize]
            .unwrap_or_else(|| panic!("{} snoop in impossible state {state}", self.kind))
    }
}

/// A snoop cell.
const fn t(next: LineState, action: SnoopAction, asserts_shared: bool) -> SnoopTransition {
    SnoopTransition {
        next,
        action,
        asserts_shared,
    }
}

/// Places each `(state, outcome)` pair in its state's row.
const fn write_hits(cells: &[(LineState, WriteHitOutcome)]) -> [Option<WriteHitOutcome>; 5] {
    let mut rows = [None; 5];
    let mut i = 0;
    while i < cells.len() {
        rows[cells[i].0 as usize] = Some(cells[i].1);
        i += 1;
    }
    rows
}

/// Places each `(state, [read, write, upgrade])` row in its state's slot.
const fn snoops(cells: &[(LineState, [SnoopTransition; 3])]) -> [[Option<SnoopTransition>; 3]; 5] {
    let mut rows = [[None; 3]; 5];
    let mut i = 0;
    while i < cells.len() {
        let [read, write, upgrade] = cells[i].1;
        rows[cells[i].0 as usize] = [Some(read), Some(write), Some(upgrade)];
        i += 1;
    }
    rows
}

/// Invalidate a clean line, moving no data.
const DROP: SnoopTransition = t(I, Quiet, false);
/// Drain a dirty line to memory, then invalidate it.
const DRAIN: SnoopTransition = t(I, Writeback, false);

/// MEI, the PowerPC755's protocol, has no notion of sharing: any snoop
/// hit gives the line away, since a snooped read of an E line has no S to
/// retreat to, and a hit on an M line raises ARTRY so it drains to memory
/// first (paper §3). Its controller has no shared-signal output and
/// ignores the shared signal on fills.
static MEI: Protocol = Protocol {
    kind: ProtocolKind::Mei,
    states: &[M, E, I],
    fill: [Some(E), Some(E), Some(M)],
    write_hit: write_hits(&[(E, Local(M)), (M, Local(M))]),
    snoop: snoops(&[(E, [DROP; 3]), (M, [DRAIN; 3])]),
};

/// MSI has no E, so every read miss fills S and every first store to an
/// S line costs an upgrade. For the paper's Table 3, its controller has
/// **no shared-signal output**: when it holds a line in S and a MESI
/// master reads it, the MESI side fills E, stores silently, and leaves
/// the MSI copy stale. The paper's fix forces the signal in the wrapper.
static MSI: Protocol = Protocol {
    kind: ProtocolKind::Msi,
    states: &[M, S, I],
    fill: [Some(S), Some(S), Some(M)],
    write_hit: write_hits(&[(S, NeedsUpgrade(M)), (M, Local(M))]),
    snoop: snoops(&[
        (S, [t(S, Quiet, false), DROP, DROP]),
        // An upgrade cannot legally hit M, but a misintegrated platform
        // (the very bug the paper fixes) can produce one: drain rather
        // than corrupt data.
        (M, [t(S, Writeback, false), DRAIN, DRAIN]),
    ]),
};

/// MESI holds the three routes into S that paper §2.1.2 enumerates and a
/// wrapper must close to integrate with MEI: `I → S` on a read fill with
/// the shared signal asserted, and `E → S` and `M → S` (after draining)
/// on a snooped read. Deasserting the shared signal kills the first;
/// converting snooped reads to writes kills the other two.
static MESI: Protocol = Protocol {
    kind: ProtocolKind::Mesi,
    states: &[M, E, S, I],
    fill: [Some(E), Some(S), Some(M)],
    write_hit: write_hits(&[(S, NeedsUpgrade(M)), (E, Local(M)), (M, Local(M))]),
    snoop: snoops(&[
        (S, [t(S, Quiet, true), DROP, DROP]),
        (E, [t(S, Quiet, true), DROP, DROP]),
        (M, [t(S, Writeback, true), DRAIN, DRAIN]),
    ]),
};

/// MOESI is the only protocol the paper (§2) assumes to supply data
/// cache-to-cache: a snooped read of a dirty line moves it to O and the
/// owner supplies the data without updating memory. A wrapper must
/// therefore suppress `M → O` (read→write conversion) beside processors
/// that cannot accept supplied data. An upgrade means some sharer writes,
/// and every copy it invalidates equals the upgrader's, so even an O
/// copy drops without a writeback: the new M owner carries the data.
static MOESI: Protocol = Protocol {
    kind: ProtocolKind::Moesi,
    states: &[M, O, E, S, I],
    fill: [Some(E), Some(S), Some(M)],
    write_hit: write_hits(&[
        (S, NeedsUpgrade(M)),
        (O, NeedsUpgrade(M)),
        (E, Local(M)),
        (M, Local(M)),
    ]),
    snoop: snoops(&[
        (S, [t(S, Quiet, true), DROP, DROP]),
        (E, [t(S, Quiet, true), DROP, DROP]),
        (O, [t(O, Supply, true), DRAIN, DROP]),
        (M, [t(O, Supply, true), DRAIN, DROP]),
    ]),
};

/// SI governs the Write-back Enhanced Intel486's write-through lines, the
/// only ones that "can have the S state" (paper §3). Writes always go to
/// memory, write misses do not allocate, and a snooped write, or a
/// snooped read with the INV pin asserted (which the wrapper models as a
/// converted write), invalidates the line.
static SI: Protocol = Protocol {
    kind: ProtocolKind::Si,
    states: &[S, I],
    fill: [Some(S), Some(S), None],
    write_hit: write_hits(&[(S, WriteThrough(S))]),
    snoop: snoops(&[(S, [t(S, Quiet, true), DROP, DROP])]),
};

/// Identifies one of the five modelled protocols.
///
/// # Examples
///
/// ```
/// use hmp_cache::{LineState, ProtocolKind, SnoopAction, SnoopOp};
/// let moesi = ProtocolKind::Moesi.protocol();
/// let t = moesi.snoop(LineState::Modified, SnoopOp::Read);
/// assert_eq!((t.next, t.action), (LineState::Owned, SnoopAction::SupplyLine));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProtocolKind {
    /// Modified / Exclusive / Invalid (PowerPC755).
    Mei,
    /// Modified / Shared / Invalid.
    Msi,
    /// Modified / Exclusive / Shared / Invalid (Pentium class; also the
    /// write-back half of the Intel486).
    Mesi,
    /// Modified / Owned / Exclusive / Shared / Invalid (UltraSPARC, AMD64).
    Moesi,
    /// Shared / Invalid — write-through lines (Intel486 write-through half).
    Si,
}

impl ProtocolKind {
    /// All five protocol kinds, for exhaustive tests and sweeps.
    pub const ALL: [ProtocolKind; 5] = [
        ProtocolKind::Mei,
        ProtocolKind::Msi,
        ProtocolKind::Mesi,
        ProtocolKind::Moesi,
        ProtocolKind::Si,
    ];

    /// The write-back protocols a whole processor can be configured with
    /// (SI only ever governs individual write-through lines).
    pub const WRITE_BACK: [ProtocolKind; 4] = [
        ProtocolKind::Mei,
        ProtocolKind::Msi,
        ProtocolKind::Mesi,
        ProtocolKind::Moesi,
    ];

    /// Returns the transition table for this kind.
    #[inline]
    pub fn protocol(self) -> &'static Protocol {
        match self {
            ProtocolKind::Mei => &MEI,
            ProtocolKind::Msi => &MSI,
            ProtocolKind::Mesi => &MESI,
            ProtocolKind::Moesi => &MOESI,
            ProtocolKind::Si => &SI,
        }
    }

    /// Returns `true` if this protocol ever uses the given state.
    pub fn has_state(self, state: LineState) -> bool {
        self.protocol().states.contains(&state)
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProtocolKind::Mei => "MEI",
            ProtocolKind::Msi => "MSI",
            ProtocolKind::Mesi => "MESI",
            ProtocolKind::Moesi => "MOESI",
            ProtocolKind::Si => "SI",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ProtocolKind::{Mei, Mesi, Moesi, Msi, Si};
    use SnoopOp::{Read, Upgrade, Write};

    const STATES: [LineState; 5] = [I, S, E, O, M];
    const OPS: [SnoopOp; 3] = [Read, Write, Upgrade];

    /// Asserts that every cell in `states × ops` of `kind`'s snoop table
    /// is `(next, action, asserts_shared)`.
    fn snoops_to(
        kind: ProtocolKind,
        states: &[LineState],
        ops: &[SnoopOp],
        want: (LineState, SnoopAction, bool),
    ) {
        for &s in states {
            for &op in ops {
                let got = kind.protocol().snoop(s, op);
                let got = (got.next, got.action, got.asserts_shared);
                assert_eq!(got, want, "{kind} {s} on {op}");
            }
        }
    }

    /// Every snoop cell of a valid state of `kind`.
    fn cells(kind: ProtocolKind) -> impl Iterator<Item = SnoopTransition> {
        let p = kind.protocol();
        p.states
            .iter()
            .filter(|s| s.is_valid())
            .flat_map(move |&s| OPS.map(|op| p.snoop(s, op)))
    }

    #[test]
    fn registry_round_trip() {
        for kind in ProtocolKind::ALL {
            assert_eq!(kind.protocol().kind(), kind);
        }
    }

    #[test]
    fn state_sets_match_names() {
        assert_eq!(Mei.protocol().states(), &[M, E, I]);
        assert_eq!(Msi.protocol().states(), &[M, S, I]);
        assert_eq!(Mesi.protocol().states(), &[M, E, S, I]);
        assert_eq!(Moesi.protocol().states(), &[M, O, E, S, I]);
        assert_eq!(Si.protocol().states(), &[S, I]);
    }

    #[test]
    fn every_protocol_has_invalid() {
        for kind in ProtocolKind::ALL {
            assert!(kind.has_state(I), "{kind} missing I");
        }
    }

    /// No table transition leaves its own states: a state a table lists
    /// has every write-hit and snoop cell defined (Invalid none, since
    /// invalid lines leave the cache), a state it does not list has none,
    /// and every fill, write hit and snoop lands in a listed state. So
    /// the lookups' panics are unreachable from a table transition.
    #[test]
    fn tables_are_closed() {
        for kind in ProtocolKind::ALL {
            let p = kind.protocol();
            for s in STATES {
                let held = s.is_valid() && p.states.contains(&s);
                assert_eq!(p.write_hit[s as usize].is_some(), held, "{kind} {s}");
                for op in OPS {
                    let cell = p.snoop[s as usize][op as usize];
                    assert_eq!(cell.is_some(), held, "{kind} {s} on {op}");
                    if let Some(t) = cell {
                        assert!(p.states.contains(&t.next), "{kind} {s} on {op}");
                    }
                }
                if let Some(Local(next) | NeedsUpgrade(next) | WriteThrough(next)) =
                    p.write_hit[s as usize]
                {
                    assert!(next.is_valid() && p.states.contains(&next), "{kind} {s}");
                }
            }
            for next in p.fill.into_iter().flatten() {
                assert!(next.is_valid() && p.states.contains(&next), "{kind} fill");
            }
        }
    }

    #[test]
    fn fills() {
        // MEI and MSI ignore the shared signal; MESI and MOESI obey it.
        for (kind, unshared, shared) in [
            (Mei, E, E),
            (Msi, S, S),
            (Mesi, E, S),
            (Moesi, E, S),
            (Si, S, S),
        ] {
            assert_eq!(kind.protocol().fill_state(Access::Read, false), unshared);
            assert_eq!(kind.protocol().fill_state(Access::Read, true), shared);
        }
    }

    #[test]
    fn only_si_skips_write_allocate() {
        for kind in ProtocolKind::WRITE_BACK {
            for shared in [false, true] {
                assert_eq!(kind.protocol().fill_state(Access::Write, shared), M);
            }
        }
        assert_eq!(Si.protocol().fill[2], None);
    }

    #[test]
    #[should_panic(expected = "SI lines do not allocate on a write miss")]
    fn si_write_fill_is_a_bug() {
        let _ = Si.protocol().fill_state(Access::Write, false);
    }

    #[test]
    fn write_hits() {
        for (kind, s, outcome) in [
            // MEI's write hits are silent.
            (Mei, E, Local(M)),
            (Mei, M, Local(M)),
            (Msi, S, NeedsUpgrade(M)),
            (Msi, M, Local(M)),
            (Mesi, S, NeedsUpgrade(M)),
            (Mesi, E, Local(M)),
            (Mesi, M, Local(M)),
            (Moesi, S, NeedsUpgrade(M)),
            (Moesi, O, NeedsUpgrade(M)),
            (Moesi, E, Local(M)),
            (Moesi, M, Local(M)),
            // SI's writes go through.
            (Si, S, WriteThrough(S)),
        ] {
            assert_eq!(kind.protocol().write_hit(s), outcome, "{kind} {s}");
        }
    }

    #[test]
    #[should_panic(expected = "MEI write hit in impossible state S")]
    fn mei_write_hit_in_shared_is_a_bug() {
        let _ = Mei.protocol().write_hit(S);
    }

    #[test]
    #[should_panic(expected = "MSI write hit in impossible state E")]
    fn msi_write_hit_in_exclusive_is_a_bug() {
        let _ = Msi.protocol().write_hit(E);
    }

    #[test]
    fn mei_snoops() {
        // Every snoop takes the line away, draining a dirty one.
        snoops_to(Mei, &[E], &OPS, (I, Quiet, false));
        snoops_to(Mei, &[M], &OPS, (I, Writeback, false));
    }

    #[test]
    fn msi_snoops() {
        // A snooped read keeps S silently: MSI has no shared-signal output.
        snoops_to(Msi, &[S], &[Read], (S, Quiet, false));
        snoops_to(Msi, &[S], &[Write, Upgrade], (I, Quiet, false));
        snoops_to(Msi, &[M], &[Read], (S, Writeback, false));
        snoops_to(Msi, &[M], &[Write, Upgrade], (I, Writeback, false));
    }

    #[test]
    fn mesi_snoops() {
        // Routes 2 (E → S) and 3 (M → S, draining first) into S; route 1
        // is the shared read fill in `fills`.
        snoops_to(Mesi, &[E, S], &[Read], (S, Quiet, true));
        snoops_to(Mesi, &[M], &[Read], (S, Writeback, true));
        snoops_to(Mesi, &[S, E], &[Write, Upgrade], (I, Quiet, false));
        snoops_to(Mesi, &[M], &[Write, Upgrade], (I, Writeback, false));
    }

    #[test]
    #[should_panic(expected = "MESI snoop in impossible state O")]
    fn mesi_snoop_owned_is_a_bug() {
        let _ = Mesi.protocol().snoop(O, Read);
    }

    #[test]
    fn moesi_snoops() {
        // M → O supplies the data, and O keeps supplying on further reads.
        snoops_to(Moesi, &[M, O], &[Read], (O, Supply, true));
        snoops_to(Moesi, &[E, S], &[Read], (S, Quiet, true));
        snoops_to(Moesi, &[M, O], &[Write], (I, Writeback, false));
        snoops_to(Moesi, &[E, S], &[Write], (I, Quiet, false));
        // An upgrade invalidates without a writeback, even from O.
        snoops_to(Moesi, &[O, S, E, M], &[Upgrade], (I, Quiet, false));
    }

    #[test]
    fn si_snoops() {
        snoops_to(Si, &[S], &[Read], (S, Quiet, true));
        snoops_to(Si, &[S], &[Write, Upgrade], (I, Quiet, false));
    }

    #[test]
    #[should_panic(expected = "SI snoop in impossible state M")]
    fn si_snoop_modified_is_a_bug() {
        let _ = Si.protocol().snoop(M, Read);
    }

    #[test]
    fn only_moesi_supplies_cache_to_cache() {
        for kind in ProtocolKind::ALL {
            let supplies = cells(kind).any(|t| t.action == Supply);
            assert_eq!(supplies, kind == Moesi, "{kind}");
        }
    }

    #[test]
    fn shared_signal_drivers() {
        // MEI and MSI controllers cannot drive the shared wire (paper §2.2).
        for kind in ProtocolKind::ALL {
            let drives = cells(kind).any(|t| t.asserts_shared);
            assert_eq!(drives, !matches!(kind, Mei | Msi), "{kind}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Mei.to_string(), "MEI");
        assert_eq!(Moesi.to_string(), "MOESI");
    }
}
