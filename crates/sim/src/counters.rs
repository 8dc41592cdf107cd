//! Enum-indexed platform counters.
//!
//! A [`CounterBank`] counts with plain array indexing; the dotted string
//! keys (`cpu0.read_hit`, `bus.retry.cam`) are only built when a report
//! asks for them, via [`CounterBank::iter`].

use crate::event::RetryCause;

/// A per-CPU activity counter.
///
/// Each variant is reported under one `cpu{i}.<key>` key; see
/// [`CpuCounter::key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuCounter {
    /// Cached read serviced locally.
    ReadHit,
    /// Cached read that missed and went to the bus.
    ReadMiss,
    /// Cached write serviced locally.
    WriteHit,
    /// Write hit on a Shared line that broadcast an upgrade.
    WriteUpgrade,
    /// Write hit on a write-through line (word also sent to memory).
    WriteThrough,
    /// Cached write that missed and fetched the line RWITM.
    WriteMiss,
    /// Write miss on a no-allocate (write-through) region.
    WriteNoAllocate,
    /// Uncached or device read word.
    UncachedRead,
    /// Uncached or device write word.
    UncachedWrite,
    /// Snoop port matched a remote operation.
    SnoopHit,
    /// Snoop hit that pushed a dirty line to memory.
    SnoopDrain,
    /// Snoop hit that supplied the line cache-to-cache.
    CacheToCache,
    /// TAG-CAM matched a remote operation.
    CamHit,
    /// Flush wrote a dirty line back.
    FlushDirty,
    /// Flush found the line clean or absent.
    FlushClean,
    /// Explicit invalidate.
    Invalidate,
    /// ISR drain that wrote a dirty line back.
    IsrDrainDirty,
    /// ISR drain that found the line clean or absent.
    IsrDrainClean,
    /// Dirty victim written back on eviction.
    VictimWriteback,
    /// Clean victim dropped on eviction.
    VictimClean,
    /// Upgrade completed after the line was snoop-invalidated away.
    UpgradeLost,
}

impl CpuCounter {
    /// Number of counters (array-index bound).
    pub const COUNT: usize = 21;

    /// All counters, in array-index order.
    pub const ALL: [CpuCounter; CpuCounter::COUNT] = [
        CpuCounter::ReadHit,
        CpuCounter::ReadMiss,
        CpuCounter::WriteHit,
        CpuCounter::WriteUpgrade,
        CpuCounter::WriteThrough,
        CpuCounter::WriteMiss,
        CpuCounter::WriteNoAllocate,
        CpuCounter::UncachedRead,
        CpuCounter::UncachedWrite,
        CpuCounter::SnoopHit,
        CpuCounter::SnoopDrain,
        CpuCounter::CacheToCache,
        CpuCounter::CamHit,
        CpuCounter::FlushDirty,
        CpuCounter::FlushClean,
        CpuCounter::Invalidate,
        CpuCounter::IsrDrainDirty,
        CpuCounter::IsrDrainClean,
        CpuCounter::VictimWriteback,
        CpuCounter::VictimClean,
        CpuCounter::UpgradeLost,
    ];

    /// The report key suffix (`cpu{i}.<key>`).
    pub fn key(self) -> &'static str {
        match self {
            CpuCounter::ReadHit => "read_hit",
            CpuCounter::ReadMiss => "read_miss",
            CpuCounter::WriteHit => "write_hit",
            CpuCounter::WriteUpgrade => "write_upgrade",
            CpuCounter::WriteThrough => "write_through",
            CpuCounter::WriteMiss => "write_miss",
            CpuCounter::WriteNoAllocate => "write_no_allocate",
            CpuCounter::UncachedRead => "uncached_read",
            CpuCounter::UncachedWrite => "uncached_write",
            CpuCounter::SnoopHit => "snoop_hit",
            CpuCounter::SnoopDrain => "snoop_drain",
            CpuCounter::CacheToCache => "cache_to_cache",
            CpuCounter::CamHit => "cam_hit",
            CpuCounter::FlushDirty => "flush_dirty",
            CpuCounter::FlushClean => "flush_clean",
            CpuCounter::Invalidate => "invalidate",
            CpuCounter::IsrDrainDirty => "isr_drain_dirty",
            CpuCounter::IsrDrainClean => "isr_drain_clean",
            CpuCounter::VictimWriteback => "victim_writeback",
            CpuCounter::VictimClean => "victim_clean",
            CpuCounter::UpgradeLost => "upgrade_lost",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Enum-indexed counter arrays for one platform: per-CPU activity plus
/// bus-retry causes.
///
/// Incrementing is a bounds-checked array add — no hashing, no string
/// building. Untouched counters stay at zero and are omitted from
/// [`CounterBank::iter`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterBank {
    retries: [u64; RetryCause::COUNT],
    cpus: Vec<[u64; CpuCounter::COUNT]>,
}

impl CounterBank {
    /// Creates a zeroed bank for `cpus` processors.
    pub fn new(cpus: usize) -> Self {
        CounterBank {
            retries: [0; RetryCause::COUNT],
            cpus: vec![[0; CpuCounter::COUNT]; cpus],
        }
    }

    /// Increments a per-CPU counter.
    #[inline]
    pub fn bump(&mut self, cpu: usize, counter: CpuCounter) {
        self.cpus[cpu][counter.index()] += 1;
    }

    /// Increments a bus-retry cause counter.
    #[inline]
    pub fn bump_retry(&mut self, cause: RetryCause) {
        self.retries[cause.index()] += 1;
    }

    /// Current value of a per-CPU counter.
    pub fn get(&self, cpu: usize, counter: CpuCounter) -> u64 {
        self.cpus[cpu][counter.index()]
    }

    /// Current value of a bus-retry cause counter.
    pub fn retry(&self, cause: RetryCause) -> u64 {
        self.retries[cause.index()]
    }

    /// Number of processors covered.
    pub fn cpus(&self) -> usize {
        self.cpus.len()
    }

    /// Zeroes every counter in place (allocation-free run reuse).
    pub fn reset(&mut self) {
        self.retries = [0; RetryCause::COUNT];
        for bank in &mut self.cpus {
            *bank = [0; CpuCounter::COUNT];
        }
    }

    /// Iterates `(key, value)` pairs, skipping zero-valued counters.
    /// Pairs come out grouped bus-then-CPU, not sorted by key: sort them
    /// where the order is part of an output format.
    pub fn iter(&self) -> impl Iterator<Item = (String, u64)> + '_ {
        let retries = RetryCause::ALL
            .iter()
            .map(move |&c| (format!("bus.retry.{}", c.key()), self.retry(c)));
        let cpus = self.cpus.iter().enumerate().flat_map(|(i, bank)| {
            CpuCounter::ALL
                .iter()
                .map(move |&c| (format!("cpu{i}.{}", c.key()), bank[c.index()]))
        });
        retries.chain(cpus).filter(|&(_, v)| v > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_get() {
        let mut b = CounterBank::new(2);
        b.bump(0, CpuCounter::ReadHit);
        b.bump(0, CpuCounter::ReadHit);
        b.bump(1, CpuCounter::CamHit);
        b.bump_retry(RetryCause::CamHit);
        assert_eq!(b.get(0, CpuCounter::ReadHit), 2);
        assert_eq!(b.get(1, CpuCounter::ReadHit), 0);
        assert_eq!(b.get(1, CpuCounter::CamHit), 1);
        assert_eq!(b.retry(RetryCause::CamHit), 1);
        assert_eq!(b.retry(RetryCause::SnoopDrain), 0);
        assert_eq!(b.cpus(), 2);
    }

    #[test]
    fn iter_names_nonzero_counters_only() {
        let mut b = CounterBank::new(2);
        b.bump(0, CpuCounter::WriteUpgrade);
        b.bump(1, CpuCounter::SnoopDrain);
        b.bump_retry(RetryCause::SnoopDrain);
        let pairs: Vec<(String, u64)> = b.iter().collect();
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "bus.retry.snoop_drain",
                "cpu0.write_upgrade",
                "cpu1.snoop_drain"
            ]
        );
        assert!(pairs.iter().all(|&(_, v)| v == 1));
    }

    #[test]
    fn empty_bank_iterates_nothing() {
        assert_eq!(CounterBank::new(3).iter().count(), 0);
    }

    #[test]
    fn every_counter_has_a_distinct_key() {
        let keys: std::collections::BTreeSet<&str> =
            CpuCounter::ALL.iter().map(|c| c.key()).collect();
        assert_eq!(keys.len(), CpuCounter::COUNT);
        let rkeys: std::collections::BTreeSet<&str> =
            RetryCause::ALL.iter().map(|c| c.key()).collect();
        assert_eq!(rkeys.len(), RetryCause::COUNT);
    }

    #[test]
    fn all_is_in_index_order() {
        for (i, c) in CpuCounter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, c) in RetryCause::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
