//! The set-associative data cache.

use crate::event::{Access, SnoopAction, SnoopOp, SnoopReply, WriteHitOutcome};
use crate::lru::LruOrder;
use crate::protocol::{Protocol, ProtocolKind};
use crate::state::LineState;
use hmp_mem::{Addr, LINE_BYTES, LINE_WORDS};
use hmp_sim::{Cycle, Observer, SimEvent, SnoopActionKind};

/// Geometry of a data cache. Line size is fixed at the platform's 32
/// bytes; sets and ways are configurable.
///
/// The default (128 sets × 4 ways = 16 KiB) approximates the ARM920T's
/// 16 KiB data cache; the PowerPC755's 32 KiB / 8-way cache is
/// `CacheConfig { sets: 128, ways: 8 }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Number of sets (must be a power of two).
    pub sets: u32,
    /// Associativity.
    pub ways: u32,
}

impl CacheConfig {
    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u32 {
        self.sets * self.ways * LINE_BYTES
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { sets: 128, ways: 4 }
    }
}

/// A line evicted to make room for a fill. If `dirty`, the platform must
/// write it back to memory before (or while) the fill proceeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictedLine {
    /// Line-aligned base address of the victim.
    pub addr: Addr,
    /// Whether the data is newer than memory.
    pub dirty: bool,
    /// The line contents.
    pub data: [u32; LINE_WORDS as usize],
}

/// Outcome of a processor-side read probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadProbe {
    /// The word was found; no bus traffic needed.
    Hit(u32),
    /// Line absent: the platform must fetch it (line fill for cacheable
    /// regions). A victim may have been evicted to free the way.
    Miss {
        /// Evicted line, if the set was full.
        victim: Option<EvictedLine>,
    },
}

/// Outcome of a processor-side write probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteProbe {
    /// The write committed locally (line was M or E).
    Hit,
    /// The line is present but shared: an upgrade (invalidate) broadcast
    /// must complete on the bus, then [`DataCache::complete_upgrade`].
    HitNeedsUpgrade,
    /// Write-through line: the word was written locally and must also be
    /// written to memory as a single-word bus write.
    HitWriteThrough,
    /// Write-allocate miss: fetch the line with write intent, then
    /// [`DataCache::commit_write`]. A victim may have been evicted.
    Miss {
        /// Evicted line, if the set was full.
        victim: Option<EvictedLine>,
    },
    /// No-write-allocate miss (write-through regions): the word goes to
    /// memory as a single-word bus write; the cache is untouched.
    MissNoAllocate,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Line {
    tag: u32,
    state: LineState,
    data: [u32; LINE_WORDS as usize],
    /// Write-through lines follow the SI protocol regardless of the
    /// cache's main protocol (Intel486 behaviour, paper §3).
    write_through: bool,
}

#[derive(Debug, Clone)]
struct CacheSet {
    ways: Vec<Option<Line>>,
    lru: LruOrder,
}

/// A snooping, set-associative, LRU data cache with real data storage.
///
/// The cache is a passive state container. Methods fall into three groups:
///
/// * **processor side** — [`probe_read`](DataCache::probe_read),
///   [`probe_write`](DataCache::probe_write), completed by
///   [`fill`](DataCache::fill), [`commit_write`](DataCache::commit_write)
///   and [`complete_upgrade`](DataCache::complete_upgrade) once the bus has
///   done its part;
/// * **snoop side** — [`snoop`](DataCache::snoop), fed by the wrapper with
///   the (possibly translated) bus operation;
/// * **maintenance** — [`flush_line`](DataCache::flush_line) /
///   [`invalidate_line`](DataCache::invalidate_line), used by the software
///   solution's explicit drain loop and by the ARM920T's snoop ISR.
///
/// # Examples
///
/// ```
/// use hmp_cache::{Access, CacheConfig, DataCache, ProtocolKind, ReadProbe, LineState};
/// use hmp_mem::Addr;
/// use hmp_sim::{Cycle, NullObserver};
///
/// let mut c = DataCache::new(CacheConfig::default(), ProtocolKind::Mesi);
/// let a = Addr::new(0x100);
/// assert!(matches!(c.probe_read(a, false), ReadProbe::Miss { victim: None }));
/// c.fill(a, [7; 8], Access::Read, false, false, Cycle::ZERO, &mut NullObserver);
/// assert_eq!(c.line_state(a), Some(LineState::Exclusive));
/// assert!(matches!(c.probe_read(a, false), ReadProbe::Hit(7)));
/// ```
#[derive(Debug, Clone)]
pub struct DataCache {
    config: CacheConfig,
    protocol: ProtocolKind,
    sets: Vec<CacheSet>,
    /// Index of the owning processor, carried in emitted [`SimEvent`]s.
    owner: usize,
    /// Per-bucket valid-line counts for the occupancy filter
    /// ([`DataCache::may_hold`]): maintained at the only insert point
    /// ([`DataCache::fill`]) and every removal point, so a zero count is
    /// a *guarantee* of absence for all lines hashing to that bucket.
    occupancy: [u32; FILTER_BUCKETS],
    /// Summary mask over `occupancy`: bit `b` set iff `occupancy[b] > 0`.
    occupied: u64,
}

/// Bucket count of the cache occupancy filter (one summary-mask bit each).
const FILTER_BUCKETS: usize = 64;

impl DataCache {
    /// Creates an empty cache with the given geometry and (write-back)
    /// protocol.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, if `ways` is zero, or if the
    /// protocol is [`ProtocolKind::Si`] (SI governs individual
    /// write-through *lines*, not whole caches).
    pub fn new(config: CacheConfig, protocol: ProtocolKind) -> Self {
        assert!(
            config.sets.is_power_of_two(),
            "set count must be a power of two"
        );
        assert!(config.ways > 0, "associativity must be positive");
        assert!(
            protocol != ProtocolKind::Si,
            "SI is a per-line policy, not a cache protocol"
        );
        let sets = (0..config.sets)
            .map(|_| CacheSet {
                ways: (0..config.ways).map(|_| None).collect(),
                lru: LruOrder::new(config.ways),
            })
            .collect();
        DataCache {
            config,
            protocol,
            sets,
            owner: 0,
            occupancy: [0; FILTER_BUCKETS],
            occupied: 0,
        }
    }

    /// Empties the cache in place — every line invalid, LRU orders back
    /// to construction state, occupancy filter zeroed — reusing all
    /// storage. Dirty data is dropped without write-back: this is a
    /// cross-run reset, not a coherence operation.
    pub fn clear(&mut self) {
        for set in &mut self.sets {
            for way in &mut set.ways {
                *way = None;
            }
            set.lru.reset();
        }
        self.occupancy = [0; FILTER_BUCKETS];
        self.occupied = 0;
    }

    /// Tags the cache with its owning processor's index; the tag only
    /// labels emitted [`SimEvent`]s.
    #[must_use]
    pub fn with_owner(mut self, owner: usize) -> Self {
        self.owner = owner;
        self
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// The write-back protocol this cache speaks.
    pub fn protocol(&self) -> ProtocolKind {
        self.protocol
    }

    fn set_index(&self, addr: Addr) -> usize {
        ((addr.line_base().as_u32() / LINE_BYTES) % self.config.sets) as usize
    }

    fn tag(&self, addr: Addr) -> u32 {
        addr.line_base().as_u32() / LINE_BYTES / self.config.sets
    }

    fn line_proto(&self, write_through: bool) -> &'static Protocol {
        if write_through {
            ProtocolKind::Si.protocol()
        } else {
            self.protocol.protocol()
        }
    }

    /// The occupancy-filter bucket a line hashes to.
    fn filter_bucket(addr: Addr) -> usize {
        (((addr.line_base().as_u32() / LINE_BYTES).wrapping_mul(0x9E37_79B9)) >> 26) as usize
    }

    fn filter_add(&mut self, addr: Addr) {
        let b = Self::filter_bucket(addr);
        self.occupancy[b] += 1;
        self.occupied |= 1 << b;
    }

    fn filter_remove(&mut self, addr: Addr) {
        let b = Self::filter_bucket(addr);
        debug_assert!(self.occupancy[b] > 0, "filter underflow at {addr}");
        self.occupancy[b] -= 1;
        if self.occupancy[b] == 0 {
            self.occupied &= !(1 << b);
        }
    }

    /// O(1) absence filter for the snoop fast path: `false` *guarantees*
    /// the cache does not hold the line containing `addr` (no tag lookup
    /// needed); `true` means it might (hash-bucket occupancy, so false
    /// positives occur, never false negatives).
    #[inline]
    pub fn may_hold(&self, addr: Addr) -> bool {
        self.occupied & (1 << Self::filter_bucket(addr)) != 0
    }

    fn find_way(&self, addr: Addr) -> Option<u32> {
        let tag = self.tag(addr);
        let set = &self.sets[self.set_index(addr)];
        set.ways
            .iter()
            .enumerate()
            .find_map(|(i, l)| l.as_ref().filter(|l| l.tag == tag).map(|_| i as u32))
    }

    /// Evicts to guarantee a free way in `addr`'s set; returns the victim
    /// if a valid line had to leave.
    fn make_room(&mut self, addr: Addr) -> Option<EvictedLine> {
        let si = self.set_index(addr);
        let sets_count = self.config.sets;
        let set = &mut self.sets[si];
        if set.ways.iter().any(|w| w.is_none()) {
            return None;
        }
        let victim_way = set.lru.victim();
        let line = set.ways[victim_way as usize]
            .take()
            .expect("victim way is occupied when the set is full");
        let base = (line.tag * sets_count + si as u32) * LINE_BYTES;
        self.filter_remove(Addr::new(base));
        Some(EvictedLine {
            addr: Addr::new(base),
            dirty: line.state.is_dirty(),
            data: line.data,
        })
    }

    /// Processor-side read. `write_through` gives the region's line policy
    /// in case the access misses and a later [`fill`](DataCache::fill)
    /// allocates.
    pub fn probe_read(&mut self, addr: Addr, write_through: bool) -> ReadProbe {
        let _ = write_through; // policy only matters at fill time
        if let Some(way) = self.find_way(addr) {
            let si = self.set_index(addr);
            let set = &mut self.sets[si];
            set.lru.touch(way);
            let line = set.ways[way as usize].as_ref().expect("found way");
            return ReadProbe::Hit(line.data[addr.word_offset_in_line() as usize]);
        }
        ReadProbe::Miss {
            victim: self.make_room(addr),
        }
    }

    /// Processor-side write of `value` to the word at `addr`.
    pub fn probe_write(&mut self, addr: Addr, value: u32, write_through: bool) -> WriteProbe {
        if let Some(way) = self.find_way(addr) {
            let si = self.set_index(addr);
            let wt = self.sets[si].ways[way as usize]
                .as_ref()
                .expect("found way")
                .write_through;
            let state = self.sets[si].ways[way as usize]
                .as_ref()
                .expect("found way")
                .state;
            match self.line_proto(wt).write_hit(state) {
                WriteHitOutcome::Local(next) => {
                    let set = &mut self.sets[si];
                    set.lru.touch(way);
                    let line = set.ways[way as usize].as_mut().expect("found way");
                    line.data[addr.word_offset_in_line() as usize] = value;
                    line.state = next;
                    WriteProbe::Hit
                }
                WriteHitOutcome::NeedsUpgrade(_) => WriteProbe::HitNeedsUpgrade,
                WriteHitOutcome::WriteThrough(next) => {
                    let set = &mut self.sets[si];
                    set.lru.touch(way);
                    let line = set.ways[way as usize].as_mut().expect("found way");
                    line.data[addr.word_offset_in_line() as usize] = value;
                    line.state = next;
                    WriteProbe::HitWriteThrough
                }
            }
        } else if write_through {
            WriteProbe::MissNoAllocate
        } else {
            WriteProbe::Miss {
                victim: self.make_room(addr),
            }
        }
    }

    /// Installs a line after the bus fetched it. `access` and
    /// `shared_signal` determine the fill state through the line's
    /// protocol; `write_through` selects SI line policy. The install is
    /// reported to `obs` as [`SimEvent::CacheFill`].
    ///
    /// # Panics
    ///
    /// Panics if the line is already present or no way is free (the probe
    /// that reported the miss guarantees a free way).
    #[allow(clippy::too_many_arguments)]
    pub fn fill(
        &mut self,
        addr: Addr,
        data: [u32; LINE_WORDS as usize],
        access: Access,
        shared_signal: bool,
        write_through: bool,
        at: Cycle,
        obs: &mut impl Observer,
    ) {
        assert!(
            self.find_way(addr).is_none(),
            "fill of already-present line {addr}"
        );
        let state = self
            .line_proto(write_through)
            .fill_state(access, shared_signal);
        let tag = self.tag(addr);
        let si = self.set_index(addr);
        let set = &mut self.sets[si];
        let way = set
            .ways
            .iter()
            .position(|w| w.is_none())
            .expect("a free way must exist at fill time") as u32;
        set.ways[way as usize] = Some(Line {
            tag,
            state,
            data,
            write_through,
        });
        set.lru.touch(way);
        self.filter_add(addr);
        obs.on_event(
            at,
            SimEvent::CacheFill {
                owner: self.owner,
                addr: u64::from(addr.line_base().as_u32()),
                shared: shared_signal,
            },
        );
    }

    /// Writes the word of a line that was just filled with write intent.
    ///
    /// # Panics
    ///
    /// Panics if the line is absent.
    pub fn commit_write(&mut self, addr: Addr, value: u32) {
        let way = self.find_way(addr).expect("commit_write on absent line");
        let si = self.set_index(addr);
        let line = self.sets[si].ways[way as usize]
            .as_mut()
            .expect("found way");
        line.data[addr.word_offset_in_line() as usize] = value;
    }

    /// Finishes a [`WriteProbe::HitNeedsUpgrade`] after the upgrade
    /// broadcast completed on the bus.
    ///
    /// Returns `false` if the line was snoop-invalidated while the upgrade
    /// was waiting for the bus — the caller must restart the store as a
    /// write miss.
    pub fn complete_upgrade(&mut self, addr: Addr, value: u32) -> bool {
        let Some(way) = self.find_way(addr) else {
            return false;
        };
        let si = self.set_index(addr);
        let wt = self.sets[si].ways[way as usize]
            .as_ref()
            .expect("found way")
            .write_through;
        let state = self.sets[si].ways[way as usize]
            .as_ref()
            .expect("found way")
            .state;
        match self.line_proto(wt).write_hit(state) {
            WriteHitOutcome::NeedsUpgrade(next) => {
                let set = &mut self.sets[si];
                set.lru.touch(way);
                let line = set.ways[way as usize].as_mut().expect("found way");
                line.state = next;
                line.data[addr.word_offset_in_line() as usize] = value;
                true
            }
            // The line state changed (e.g. someone drained us to a state
            // that can now take the write silently) — commit directly.
            WriteHitOutcome::Local(next) | WriteHitOutcome::WriteThrough(next) => {
                let set = &mut self.sets[si];
                set.lru.touch(way);
                let line = set.ways[way as usize].as_mut().expect("found way");
                line.state = next;
                line.data[addr.word_offset_in_line() as usize] = value;
                true
            }
        }
    }

    /// Presents a (wrapper-translated) bus operation to the snoop port.
    ///
    /// Returns `None` if the cache does not hold the line. Otherwise the
    /// state transition is applied immediately and the reply carries any
    /// data the platform must move (write-back or cache-to-cache supply).
    /// Lines whose next state is Invalid are removed.
    pub fn snoop(
        &mut self,
        addr: Addr,
        op: SnoopOp,
        at: Cycle,
        obs: &mut impl Observer,
    ) -> Option<SnoopReply> {
        let way = self.find_way(addr)?;
        let si = self.set_index(addr);
        let (old_state, wt, data) = {
            let line = self.sets[si].ways[way as usize]
                .as_ref()
                .expect("found way");
            (line.state, line.write_through, line.data)
        };
        let t = self.line_proto(wt).snoop(old_state, op);
        let set = &mut self.sets[si];
        if t.next == LineState::Invalid {
            set.ways[way as usize] = None;
            self.filter_remove(addr);
        } else {
            set.ways[way as usize].as_mut().expect("found way").state = t.next;
        }
        let carries_data = !matches!(t.action, SnoopAction::None);
        obs.on_event(
            at,
            SimEvent::SnoopHit {
                owner: self.owner,
                addr: u64::from(addr.as_u32()),
                action: match t.action {
                    SnoopAction::None => SnoopActionKind::StateOnly,
                    SnoopAction::WritebackLine => SnoopActionKind::Writeback,
                    SnoopAction::SupplyLine => SnoopActionKind::Supply,
                },
                asserts_shared: t.asserts_shared,
            },
        );
        Some(SnoopReply {
            old_state,
            new_state: t.next,
            action: t.action,
            asserts_shared: t.asserts_shared,
            data: carries_data.then_some(data),
        })
    }

    /// Drains a line: removes it and returns `(was_dirty, data)` so the
    /// caller can write dirty data back. Returns `None` if absent.
    ///
    /// This is the PowerPC `dcbf`-style operation the software solution and
    /// the ARM920T's snoop ISR use.
    pub fn flush_line(&mut self, addr: Addr) -> Option<(bool, [u32; LINE_WORDS as usize])> {
        let way = self.find_way(addr)?;
        let si = self.set_index(addr);
        let line = self.sets[si].ways[way as usize].take().expect("found way");
        self.filter_remove(addr);
        Some((line.state.is_dirty(), line.data))
    }

    /// Invalidates a line without returning data.
    ///
    /// # Panics
    ///
    /// Panics if the line is dirty — silently dropping dirty data is a
    /// coherence bug; use [`flush_line`](DataCache::flush_line).
    pub fn invalidate_line(&mut self, addr: Addr) {
        if let Some(way) = self.find_way(addr) {
            let si = self.set_index(addr);
            let line = self.sets[si].ways[way as usize].take().expect("found way");
            assert!(
                !line.state.is_dirty(),
                "invalidate_line would drop dirty data at {addr}"
            );
            self.filter_remove(addr);
        }
    }

    /// Fault injection: flips the state bit of the line containing
    /// `addr`, returning `(before, after)` if the line was present.
    ///
    /// The flip models single-event upsets in the state RAM: a clean
    /// line (`Shared`/`Exclusive`) is promoted to `Modified` (the cache
    /// now claims ownership it never acquired — a protocol break other
    /// caches cannot see), and a dirty line (`Modified`/`Owned`) decays
    /// to `Shared` (its dirty bit is lost, so the write-back never
    /// happens). Deterministic: the same state always flips the same way.
    ///
    /// The target must be a state the line's own protocol holds: MEI has
    /// no Shared, so its dirty lines decay to `Exclusive` (equally clean,
    /// equally wrong), and a write-through (SI) line has no dirty state,
    /// so it is left alone and the flip returns `None`, as for an absent
    /// line.
    pub fn corrupt_line_state(&mut self, addr: Addr) -> Option<(LineState, LineState)> {
        let way = self.find_way(addr)?;
        let si = self.set_index(addr);
        let line = self.sets[si].ways[way as usize]
            .as_ref()
            .expect("found way");
        let (before, states) = (line.state, self.line_proto(line.write_through).states());
        let after = match before {
            LineState::Shared | LineState::Exclusive => LineState::Modified,
            LineState::Modified | LineState::Owned if states.contains(&LineState::Shared) => {
                LineState::Shared
            }
            LineState::Modified | LineState::Owned => LineState::Exclusive,
            LineState::Invalid => return None,
        };
        if !states.contains(&after) {
            return None;
        }
        self.sets[si].ways[way as usize]
            .as_mut()
            .expect("found way")
            .state = after;
        Some((before, after))
    }

    /// Coherence state of the line containing `addr`, if present.
    pub fn line_state(&self, addr: Addr) -> Option<LineState> {
        self.find_way(addr).map(|way| {
            self.sets[self.set_index(addr)].ways[way as usize]
                .as_ref()
                .expect("found way")
                .state
        })
    }

    /// Returns `true` if the line containing `addr` is present.
    pub fn contains(&self, addr: Addr) -> bool {
        self.find_way(addr).is_some()
    }

    /// Reads a word without touching LRU or state — for checkers and tests.
    pub fn peek_word(&self, addr: Addr) -> Option<u32> {
        self.find_way(addr).map(|way| {
            self.sets[self.set_index(addr)].ways[way as usize]
                .as_ref()
                .expect("found way")
                .data[addr.word_offset_in_line() as usize]
        })
    }

    /// Iterates `(line_base, state)` over all valid lines.
    pub fn iter_lines(&self) -> impl Iterator<Item = (Addr, LineState)> + '_ {
        let sets_count = self.config.sets;
        self.sets.iter().enumerate().flat_map(move |(si, set)| {
            set.ways.iter().filter_map(move |l| {
                l.as_ref().map(|l| {
                    let base = (l.tag * sets_count + si as u32) * LINE_BYTES;
                    (Addr::new(base), l.state)
                })
            })
        })
    }

    /// Number of valid lines currently held.
    pub fn valid_lines(&self) -> usize {
        self.iter_lines().count()
    }

    /// Number of dirty (M or O) lines currently held.
    pub fn dirty_lines(&self) -> usize {
        self.iter_lines().filter(|(_, s)| s.is_dirty()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmp_sim::NullObserver;

    fn cache(kind: ProtocolKind) -> DataCache {
        DataCache::new(CacheConfig { sets: 4, ways: 2 }, kind)
    }

    fn filled_line(v: u32) -> [u32; 8] {
        [v; 8]
    }

    #[test]
    fn corrupt_line_state_flips_deterministically() {
        let mut c = cache(ProtocolKind::Mesi);
        let a = Addr::new(0x40);
        assert_eq!(c.corrupt_line_state(a), None, "absent line: no flip");
        c.fill(
            a,
            filled_line(5),
            Access::Read,
            true,
            false,
            Cycle::ZERO,
            &mut NullObserver,
        );
        assert_eq!(c.line_state(a), Some(LineState::Shared));
        assert_eq!(
            c.corrupt_line_state(a),
            Some((LineState::Shared, LineState::Modified)),
            "clean line promotes to a phantom Modified"
        );
        assert_eq!(c.line_state(a), Some(LineState::Modified));
        assert_eq!(
            c.corrupt_line_state(a),
            Some((LineState::Modified, LineState::Shared)),
            "dirty line loses its dirty bit"
        );
        // A write-through line follows SI, which has no dirty state.
        let wt = Addr::new(0x80);
        c.fill(
            wt,
            filled_line(6),
            Access::Read,
            false,
            true,
            Cycle::ZERO,
            &mut NullObserver,
        );
        assert_eq!(c.corrupt_line_state(wt), None, "SI line: no flip");
        assert_eq!(c.line_state(wt), Some(LineState::Shared));
    }

    #[test]
    fn read_miss_then_hit() {
        let mut c = cache(ProtocolKind::Mesi);
        let a = Addr::new(0x40);
        assert_eq!(c.probe_read(a, false), ReadProbe::Miss { victim: None });
        c.fill(
            a,
            filled_line(5),
            Access::Read,
            false,
            false,
            Cycle::ZERO,
            &mut NullObserver,
        );
        assert_eq!(c.line_state(a), Some(LineState::Exclusive));
        assert_eq!(c.probe_read(a.add_words(3), false), ReadProbe::Hit(5));
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn write_allocate_flow() {
        let mut c = cache(ProtocolKind::Mesi);
        let a = Addr::new(0x80);
        assert_eq!(
            c.probe_write(a, 9, false),
            WriteProbe::Miss { victim: None }
        );
        c.fill(
            a,
            filled_line(0),
            Access::Write,
            false,
            false,
            Cycle::ZERO,
            &mut NullObserver,
        );
        c.commit_write(a, 9);
        assert_eq!(c.line_state(a), Some(LineState::Modified));
        assert_eq!(c.peek_word(a), Some(9));
        assert_eq!(c.peek_word(a.add_words(1)), Some(0));
        assert_eq!(c.dirty_lines(), 1);
    }

    #[test]
    fn write_hit_on_exclusive_is_silent() {
        let mut c = cache(ProtocolKind::Mesi);
        let a = Addr::new(0x40);
        c.fill(
            a,
            filled_line(1),
            Access::Read,
            false,
            false,
            Cycle::ZERO,
            &mut NullObserver,
        );
        assert_eq!(c.probe_write(a, 2, false), WriteProbe::Hit);
        assert_eq!(c.line_state(a), Some(LineState::Modified));
        assert_eq!(c.peek_word(a), Some(2));
    }

    #[test]
    fn write_hit_on_shared_needs_upgrade() {
        let mut c = cache(ProtocolKind::Mesi);
        let a = Addr::new(0x40);
        c.fill(
            a,
            filled_line(1),
            Access::Read,
            true,
            false,
            Cycle::ZERO,
            &mut NullObserver,
        );
        assert_eq!(c.line_state(a), Some(LineState::Shared));
        assert_eq!(c.probe_write(a, 2, false), WriteProbe::HitNeedsUpgrade);
        // Value must NOT be committed before the upgrade completes.
        assert_eq!(c.peek_word(a), Some(1));
        assert!(c.complete_upgrade(a, 2));
        assert_eq!(c.line_state(a), Some(LineState::Modified));
        assert_eq!(c.peek_word(a), Some(2));
    }

    #[test]
    fn complete_upgrade_after_snoop_invalidate_fails() {
        let mut c = cache(ProtocolKind::Mesi);
        let a = Addr::new(0x40);
        c.fill(
            a,
            filled_line(1),
            Access::Read,
            true,
            false,
            Cycle::ZERO,
            &mut NullObserver,
        );
        assert_eq!(c.probe_write(a, 2, false), WriteProbe::HitNeedsUpgrade);
        // A remote upgrade sneaks in first.
        let reply = c
            .snoop(a, SnoopOp::Upgrade, Cycle::ZERO, &mut NullObserver)
            .expect("line present");
        assert_eq!(reply.new_state, LineState::Invalid);
        assert!(!c.complete_upgrade(a, 2), "line was lost");
        assert!(!c.contains(a));
    }

    #[test]
    fn write_through_line_flow() {
        let mut c = cache(ProtocolKind::Mesi);
        let a = Addr::new(0xC0);
        // Read-allocate a write-through line: SI protocol → Shared.
        c.fill(
            a,
            filled_line(3),
            Access::Read,
            false,
            true,
            Cycle::ZERO,
            &mut NullObserver,
        );
        assert_eq!(c.line_state(a), Some(LineState::Shared));
        // Write hits store locally and demand a bus word-write.
        assert_eq!(c.probe_write(a, 4, true), WriteProbe::HitWriteThrough);
        assert_eq!(c.peek_word(a), Some(4));
        assert_eq!(c.line_state(a), Some(LineState::Shared));
        // Write misses in write-through space do not allocate.
        assert_eq!(
            c.probe_write(Addr::new(0x100), 1, true),
            WriteProbe::MissNoAllocate
        );
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn eviction_prefers_free_way_then_lru() {
        let mut c = cache(ProtocolKind::Mesi); // 4 sets × 2 ways
                                               // Three different tags mapping to set 0 (stride = sets × 32 = 128).
        let a = Addr::new(0x000);
        let b = Addr::new(0x080);
        let d = Addr::new(0x100);
        c.fill(
            a,
            filled_line(1),
            Access::Read,
            false,
            false,
            Cycle::ZERO,
            &mut NullObserver,
        );
        assert_eq!(c.probe_read(b, false), ReadProbe::Miss { victim: None });
        c.fill(
            b,
            filled_line(2),
            Access::Read,
            false,
            false,
            Cycle::ZERO,
            &mut NullObserver,
        );
        // Touch `a` so `b` becomes LRU.
        assert!(matches!(c.probe_read(a, false), ReadProbe::Hit(_)));
        let ReadProbe::Miss { victim } = c.probe_read(d, false) else {
            panic!("expected miss");
        };
        let victim = victim.expect("set was full");
        assert_eq!(victim.addr, b);
        assert!(!victim.dirty);
        assert_eq!(victim.data, filled_line(2));
        assert!(!c.contains(b));
        c.fill(
            d,
            filled_line(3),
            Access::Read,
            false,
            false,
            Cycle::ZERO,
            &mut NullObserver,
        );
        assert!(c.contains(a) && c.contains(d));
    }

    #[test]
    fn dirty_victim_reports_dirty() {
        let mut c = cache(ProtocolKind::Mei);
        let a = Addr::new(0x000);
        let b = Addr::new(0x080);
        let d = Addr::new(0x100);
        c.fill(
            a,
            filled_line(1),
            Access::Write,
            false,
            false,
            Cycle::ZERO,
            &mut NullObserver,
        );
        c.commit_write(a, 42);
        c.fill(
            b,
            filled_line(2),
            Access::Read,
            false,
            false,
            Cycle::ZERO,
            &mut NullObserver,
        );
        // `a` is LRU? No: LRU is `a` touched first then `b` — victim is `a`.
        let WriteProbe::Miss { victim } = c.probe_write(d, 9, false) else {
            panic!("expected write miss");
        };
        let victim = victim.expect("set full");
        assert_eq!(victim.addr, a);
        assert!(victim.dirty);
        assert_eq!(victim.data[0], 42);
    }

    #[test]
    fn snoop_read_on_modified_mesi() {
        let mut c = cache(ProtocolKind::Mesi);
        let a = Addr::new(0x40);
        c.fill(
            a,
            filled_line(0),
            Access::Write,
            false,
            false,
            Cycle::ZERO,
            &mut NullObserver,
        );
        c.commit_write(a, 7);
        let r = c
            .snoop(a, SnoopOp::Read, Cycle::ZERO, &mut NullObserver)
            .expect("present");
        assert_eq!(r.old_state, LineState::Modified);
        assert_eq!(r.new_state, LineState::Shared);
        assert_eq!(r.action, SnoopAction::WritebackLine);
        assert!(r.asserts_shared);
        assert_eq!(r.data.expect("carries data")[0], 7);
        assert_eq!(c.line_state(a), Some(LineState::Shared));
    }

    #[test]
    fn snoop_write_removes_line() {
        let mut c = cache(ProtocolKind::Mesi);
        let a = Addr::new(0x40);
        c.fill(
            a,
            filled_line(1),
            Access::Read,
            false,
            false,
            Cycle::ZERO,
            &mut NullObserver,
        );
        let r = c
            .snoop(a, SnoopOp::Write, Cycle::ZERO, &mut NullObserver)
            .expect("present");
        assert_eq!(r.new_state, LineState::Invalid);
        assert!(!c.contains(a));
        assert_eq!(
            c.snoop(a, SnoopOp::Write, Cycle::ZERO, &mut NullObserver),
            None,
            "second snoop misses"
        );
    }

    #[test]
    fn snoop_absent_line_is_none() {
        let mut c = cache(ProtocolKind::Msi);
        assert_eq!(
            c.snoop(
                Addr::new(0x40),
                SnoopOp::Read,
                Cycle::ZERO,
                &mut NullObserver
            ),
            None
        );
    }

    #[test]
    fn flush_line_returns_dirty_data() {
        let mut c = cache(ProtocolKind::Mei);
        let a = Addr::new(0x40);
        c.fill(
            a,
            filled_line(0),
            Access::Write,
            false,
            false,
            Cycle::ZERO,
            &mut NullObserver,
        );
        c.commit_write(a, 5);
        let (dirty, data) = c.flush_line(a).expect("present");
        assert!(dirty);
        assert_eq!(data[0], 5);
        assert!(!c.contains(a));
        assert_eq!(c.flush_line(a), None);
    }

    #[test]
    fn invalidate_clean_line() {
        let mut c = cache(ProtocolKind::Mesi);
        let a = Addr::new(0x40);
        c.fill(
            a,
            filled_line(1),
            Access::Read,
            false,
            false,
            Cycle::ZERO,
            &mut NullObserver,
        );
        c.invalidate_line(a);
        assert!(!c.contains(a));
        c.invalidate_line(a); // absent → no-op
    }

    #[test]
    #[should_panic(expected = "drop dirty data")]
    fn invalidate_dirty_line_panics() {
        let mut c = cache(ProtocolKind::Mesi);
        let a = Addr::new(0x40);
        c.fill(
            a,
            filled_line(1),
            Access::Write,
            false,
            false,
            Cycle::ZERO,
            &mut NullObserver,
        );
        c.invalidate_line(a);
    }

    #[test]
    #[should_panic(expected = "already-present")]
    fn double_fill_panics() {
        let mut c = cache(ProtocolKind::Mesi);
        let a = Addr::new(0x40);
        c.fill(
            a,
            filled_line(1),
            Access::Read,
            false,
            false,
            Cycle::ZERO,
            &mut NullObserver,
        );
        c.fill(
            a,
            filled_line(2),
            Access::Read,
            false,
            false,
            Cycle::ZERO,
            &mut NullObserver,
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = DataCache::new(CacheConfig { sets: 3, ways: 2 }, ProtocolKind::Mesi);
    }

    #[test]
    #[should_panic(expected = "per-line policy")]
    fn si_cache_protocol_panics() {
        let _ = DataCache::new(CacheConfig::default(), ProtocolKind::Si);
    }

    #[test]
    fn iter_lines_reconstructs_addresses() {
        let mut c = cache(ProtocolKind::Mesi);
        for (i, base) in [0x000u32, 0x040, 0x080, 0x1C0].iter().enumerate() {
            c.fill(
                Addr::new(*base),
                filled_line(i as u32),
                Access::Read,
                false,
                false,
                Cycle::ZERO,
                &mut NullObserver,
            );
        }
        let mut lines: Vec<u32> = c.iter_lines().map(|(a, _)| a.as_u32()).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![0x000, 0x040, 0x080, 0x1C0]);
        assert_eq!(c.config().capacity_bytes(), 4 * 2 * 32);
        assert_eq!(c.protocol(), ProtocolKind::Mesi);
    }

    #[test]
    fn msi_read_fill_is_shared_and_write_needs_upgrade() {
        let mut c = cache(ProtocolKind::Msi);
        let a = Addr::new(0x40);
        c.fill(
            a,
            filled_line(1),
            Access::Read,
            false,
            false,
            Cycle::ZERO,
            &mut NullObserver,
        );
        assert_eq!(c.line_state(a), Some(LineState::Shared));
        assert_eq!(c.probe_write(a, 2, false), WriteProbe::HitNeedsUpgrade);
    }

    /// `may_hold` must never report a false negative: every resident line
    /// is claimed by the filter.
    fn assert_filter_covers(c: &DataCache) {
        for (base, _) in c.iter_lines() {
            assert!(c.may_hold(base), "filter lost resident line {base}");
        }
    }

    #[test]
    fn filter_tracks_fills_and_evictions() {
        let mut c = cache(ProtocolKind::Mesi);
        let a = Addr::new(0x40);
        assert!(!c.may_hold(a), "empty cache claims nothing");
        // Fill three lines mapping to the same set (sets=4, so stride 0x80).
        for i in 0..3u32 {
            let addr = Addr::new(0x40 + i * 0x80);
            // probe_read on a miss evicts to guarantee a free way.
            let _ = c.probe_read(addr, false);
            c.fill(
                addr,
                filled_line(i),
                Access::Read,
                false,
                false,
                Cycle::ZERO,
                &mut NullObserver,
            );
            assert!(c.may_hold(addr));
            assert_filter_covers(&c);
        }
        // Only two ways: the first line was evicted and its filter count
        // dropped, so unless its bucket collides it is no longer claimed.
        assert_eq!(c.valid_lines(), 2);
        assert_filter_covers(&c);
    }

    #[test]
    fn filter_clears_on_snoop_invalidate_flush_and_invalidate() {
        let mut c = cache(ProtocolKind::Mesi);
        let a = Addr::new(0x40);
        let b = Addr::new(0x80);
        let d = Addr::new(0xC0);
        for (addr, v) in [(a, 1), (b, 2), (d, 3)] {
            c.fill(
                addr,
                filled_line(v),
                Access::Read,
                false,
                false,
                Cycle::ZERO,
                &mut NullObserver,
            );
        }
        assert_filter_covers(&c);
        // Snoop-to-Invalid removes `a` from the filter.
        let reply = c.snoop(a, SnoopOp::Write, Cycle::ZERO, &mut NullObserver);
        assert!(reply.is_some());
        assert!(!c.contains(a));
        assert!(!c.may_hold(a), "snoop invalidate must release the filter");
        // flush_line removes `b`.
        assert!(c.flush_line(b).is_some());
        assert!(!c.may_hold(b), "flush must release the filter");
        // invalidate_line removes `d` (clean, so no dirty-drop panic).
        c.invalidate_line(d);
        assert!(!c.may_hold(d), "invalidate must release the filter");
        assert_eq!(c.valid_lines(), 0);
    }

    #[test]
    fn filter_survives_corruption_and_clear() {
        let mut c = cache(ProtocolKind::Mesi);
        let a = Addr::new(0x40);
        c.fill(
            a,
            filled_line(7),
            Access::Read,
            false,
            false,
            Cycle::ZERO,
            &mut NullObserver,
        );
        // corrupt_line_state flips state but preserves presence.
        assert!(c.corrupt_line_state(a).is_some());
        assert!(c.may_hold(a));
        assert_filter_covers(&c);
        c.clear();
        assert_eq!(c.valid_lines(), 0);
        assert!(!c.may_hold(a), "clear must empty the filter");
    }

    #[test]
    fn filter_counts_collisions_without_false_negatives() {
        // Two addresses in different sets may share a filter bucket; the
        // counted filter must keep claiming the survivor after one leaves.
        let mut c = DataCache::new(CacheConfig { sets: 8, ways: 2 }, ProtocolKind::Mesi);
        let addrs: Vec<Addr> = (0..16u32).map(|i| Addr::new(i * 0x20)).collect();
        for (i, &addr) in addrs.iter().enumerate() {
            let _ = c.probe_read(addr, false);
            c.fill(
                addr,
                filled_line(i as u32),
                Access::Read,
                false,
                false,
                Cycle::ZERO,
                &mut NullObserver,
            );
            assert_filter_covers(&c);
        }
        // Flush everything still resident; the filter must end empty-handed
        // for every flushed line while never dropping a resident one.
        let resident: Vec<Addr> = c.iter_lines().map(|(base, _)| base).collect();
        for addr in resident {
            assert!(c.flush_line(addr).is_some());
            assert_filter_covers(&c);
        }
        assert_eq!(c.valid_lines(), 0);
    }
}
