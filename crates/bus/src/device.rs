//! Bus slaves (memory-mapped devices).

use core::fmt;
use hmp_mem::Addr;

/// A single-word-access bus slave.
///
/// Devices live in [`hmp_mem::MemAttr::Device`] windows; the platform
/// routes completed single-word bus transactions to them instead of the
/// memory controller. Device accesses take the bus's single-word latency.
///
/// Devices are `Send` so a platform can move to another thread.
pub trait BusDevice: fmt::Debug + Send {
    /// Human-readable device name for traces.
    fn name(&self) -> &str;

    /// Services a single-word read. `addr` is the full physical address;
    /// the device decodes its own offset.
    fn read_word(&mut self, addr: Addr) -> u32;

    /// Services a single-word write.
    fn write_word(&mut self, addr: Addr, value: u32);

    /// Cross-run reset: returns the device to its power-on state without
    /// reallocating. The default is a no-op for stateless devices.
    fn reset(&mut self) {}
}

/// The paper's hardware lock register (§3, second deadlock solution,
/// after Akgul & Mooney's SoC Lock Cache).
///
/// Semantics are *test-and-set on read*:
///
/// * a **read** returns the current value and atomically sets the bit —
///   `0` means the reader acquired the lock, `1` means it is held;
/// * a **write** (any value) clears the bit, releasing the lock.
///
/// Because the lock state never enters any data cache, spinning on it
/// cannot trigger snoop activity, which is precisely how it avoids the
/// hardware deadlock. The paper's register holds a single lock ("the
/// system can have only one lock"); this model exposes one lock per word
/// offset as a straightforward generalisation, with offset 0 reproducing
/// the paper's device.
///
/// # Examples
///
/// ```
/// use hmp_bus::{BusDevice, LockRegister};
/// use hmp_mem::Addr;
///
/// let mut lock = LockRegister::new(1);
/// assert_eq!(lock.read_word(Addr::new(0x0)), 0); // acquired
/// assert_eq!(lock.read_word(Addr::new(0x0)), 1); // held
/// lock.write_word(Addr::new(0x0), 0);            // release
/// assert_eq!(lock.read_word(Addr::new(0x0)), 0); // acquired again
/// ```
#[derive(Debug, Clone)]
pub struct LockRegister {
    bits: Vec<bool>,
    acquisitions: u64,
    contended_reads: u64,
}

impl LockRegister {
    /// Creates a register bank with `locks` independent 1-bit locks.
    ///
    /// # Panics
    ///
    /// Panics if `locks` is zero.
    pub fn new(locks: usize) -> Self {
        assert!(locks > 0, "a lock register needs at least one lock");
        LockRegister {
            bits: vec![false; locks],
            acquisitions: 0,
            contended_reads: 0,
        }
    }

    /// Number of locks in the bank.
    pub fn locks(&self) -> usize {
        self.bits.len()
    }

    /// Successful acquisitions so far.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions
    }

    /// Reads that found the lock held (spin iterations).
    pub fn contended_reads(&self) -> u64 {
        self.contended_reads
    }

    /// Whether lock `index` is currently held.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn is_held(&self, index: usize) -> bool {
        self.bits[index]
    }

    fn index(&self, addr: Addr) -> usize {
        addr.word_index() % self.bits.len()
    }
}

impl BusDevice for LockRegister {
    fn name(&self) -> &str {
        "lock-register"
    }

    fn read_word(&mut self, addr: Addr) -> u32 {
        let i = self.index(addr);
        if self.bits[i] {
            self.contended_reads += 1;
            1
        } else {
            self.bits[i] = true;
            self.acquisitions += 1;
            0
        }
    }

    fn write_word(&mut self, addr: Addr, _value: u32) {
        let i = self.index(addr);
        self.bits[i] = false;
    }

    fn reset(&mut self) {
        self.bits.fill(false);
        self.acquisitions = 0;
        self.contended_reads = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_and_set_semantics() {
        let mut lock = LockRegister::new(1);
        assert!(!lock.is_held(0));
        assert_eq!(lock.read_word(Addr::new(0)), 0);
        assert!(lock.is_held(0));
        assert_eq!(lock.read_word(Addr::new(0)), 1);
        assert_eq!(lock.read_word(Addr::new(0)), 1);
        lock.write_word(Addr::new(0), 123);
        assert!(!lock.is_held(0));
        assert_eq!(lock.acquisitions(), 1);
        assert_eq!(lock.contended_reads(), 2);
    }

    #[test]
    fn independent_locks_by_word_offset() {
        let mut lock = LockRegister::new(2);
        assert_eq!(lock.read_word(Addr::new(0)), 0);
        assert_eq!(lock.read_word(Addr::new(4)), 0, "second lock independent");
        assert_eq!(lock.read_word(Addr::new(0)), 1);
        lock.write_word(Addr::new(0), 0);
        assert_eq!(lock.read_word(Addr::new(0)), 0);
        assert!(lock.is_held(1));
        assert_eq!(lock.locks(), 2);
    }

    #[test]
    fn address_wraps_by_modulo() {
        let mut lock = LockRegister::new(1);
        // Any word offset decodes to lock 0 in a single-lock bank.
        assert_eq!(lock.read_word(Addr::new(0x100)), 0);
        assert_eq!(lock.read_word(Addr::new(0x0)), 1);
    }

    #[test]
    #[should_panic(expected = "at least one lock")]
    fn zero_locks_panics() {
        let _ = LockRegister::new(0);
    }

    #[test]
    fn device_name() {
        assert_eq!(LockRegister::new(1).name(), "lock-register");
    }
}
