//! Paged physical memory with real data storage.

use crate::{Addr, LINE_WORDS};

/// Words per page: 4 KiB pages.
const PAGE_WORDS: usize = 1024;
const PAGE_SHIFT: u32 = PAGE_WORDS.trailing_zeros();
const _: () = assert!(
    PAGE_WORDS.is_power_of_two() && PAGE_WORDS.is_multiple_of(LINE_WORDS as usize),
    "a cache line never straddles a page"
);

/// A word-addressed physical memory that stores every page a run writes
/// and shares one zero page among the rest.
///
/// The simulator stores *actual data values*, not just timing state. That is
/// deliberate: the correctness property the paper's wrappers exist to
/// protect is "no processor ever reads a stale value", and the test suite
/// checks it by comparing every committed read against a golden memory
/// image (itself a `Memory`). Tables 2 and 3 of the paper are reproduced as
/// data-value divergence, not just as state-machine traces.
///
/// The words live in 4 KiB pages appended to one arena. A page table maps
/// each page to its arena offset; every page not yet written maps to the
/// zero page at offset 0, so a read is two loads and no branch, and a
/// platform whose runs touch a few KiB holds a few KiB. [`Memory::reset`]
/// zeroes only the pages that were ever written and keeps them mapped, so
/// a rerun that touches the same pages allocates nothing.
///
/// # Examples
///
/// ```
/// use hmp_mem::{Addr, Memory};
/// let mut mem = Memory::new(4096);
/// mem.write_word(Addr::new(8), 7);
/// assert_eq!(mem.read_word(Addr::new(8)), 7);
/// assert_eq!(mem.read_word(Addr::new(12)), 0); // zero-initialised
/// ```
#[derive(Debug, Clone)]
pub struct Memory {
    /// Arena offset of each page; 0 is the shared zero page.
    pages: Vec<u32>,
    /// Page storage. The first page is the zero page and is never written.
    arena: Vec<u32>,
    /// Size in words. The last page may reach past it; reads never do.
    words: usize,
}

impl Memory {
    /// Creates a zero-initialised memory of `size_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is not a multiple of the line size.
    pub fn new(size_bytes: u32) -> Self {
        assert!(
            size_bytes.is_multiple_of(crate::LINE_BYTES),
            "memory size must be a whole number of cache lines"
        );
        let words = (size_bytes / crate::WORD_BYTES) as usize;
        Memory {
            pages: vec![0; words.div_ceil(PAGE_WORDS)],
            arena: vec![0; PAGE_WORDS],
            words,
        }
    }

    /// Zeroes every written page in place for a cross-run reset. The
    /// pages stay mapped, so this allocates nothing and costs only the
    /// pages ever written.
    pub fn reset(&mut self) {
        self.arena[PAGE_WORDS..].fill(0);
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> u32 {
        (self.words as u32) * crate::WORD_BYTES
    }

    /// Returns `true` if `addr`'s word lies inside this memory.
    pub fn contains(&self, addr: Addr) -> bool {
        addr.word_index() < self.words
    }

    /// Arena offset of word `i`, which may lie in the zero page.
    fn offset(&self, i: usize) -> usize {
        assert!(i < self.words, "word {i} is outside memory");
        self.pages[i >> PAGE_SHIFT] as usize + (i & (PAGE_WORDS - 1))
    }

    /// Arena offset of word `i`, mapping its page on first write.
    fn offset_mut(&mut self, i: usize) -> usize {
        assert!(i < self.words, "word {i} is outside memory");
        let page = i >> PAGE_SHIFT;
        let base = match self.pages[page] {
            0 => self.map_page(page),
            base => base as usize,
        };
        base + (i & (PAGE_WORDS - 1))
    }

    #[cold]
    fn map_page(&mut self, page: usize) -> usize {
        let base = self.arena.len();
        self.arena.resize(base + PAGE_WORDS, 0);
        // The arena holds at most one page more than the memory, whose
        // word count fits a `u32`.
        self.pages[page] = base as u32;
        base
    }

    /// Reads the word containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn read_word(&self, addr: Addr) -> u32 {
        self.arena[self.offset(addr.word_index())]
    }

    /// Writes the word containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn write_word(&mut self, addr: Addr, value: u32) {
        let at = self.offset_mut(addr.word_index());
        self.arena[at] = value;
    }

    /// Reads the whole cache line containing `addr` (aligned down).
    ///
    /// # Panics
    ///
    /// Panics if the line is out of range.
    pub fn read_line(&self, addr: Addr) -> [u32; LINE_WORDS as usize] {
        let at = self.offset(addr.line_base().word_index());
        let mut out = [0u32; LINE_WORDS as usize];
        out.copy_from_slice(&self.arena[at..at + LINE_WORDS as usize]);
        out
    }

    /// Writes a whole cache line at the line containing `addr` (aligned
    /// down). This is the write-back (drain) path.
    ///
    /// # Panics
    ///
    /// Panics if the line is out of range.
    pub fn write_line(&mut self, addr: Addr, data: &[u32; LINE_WORDS as usize]) {
        let at = self.offset_mut(addr.line_base().word_index());
        self.arena[at..at + LINE_WORDS as usize].copy_from_slice(data);
    }

    /// Fills every word with `value` — handy for test fixtures.
    pub fn fill(&mut self, value: u32) {
        for page in 0..self.pages.len() {
            if self.pages[page] == 0 {
                self.map_page(page);
            }
        }
        self.arena[PAGE_WORDS..].fill(value);
    }

    /// The words of the page starting at word `i`, clipped to the memory.
    fn page(&self, i: usize) -> &[u32] {
        let at = self.offset(i);
        &self.arena[at..at + PAGE_WORDS.min(self.words - i)]
    }
}

/// Equal when the contents are: which pages are mapped does not matter.
impl PartialEq for Memory {
    fn eq(&self, other: &Self) -> bool {
        self.words == other.words
            && (0..self.words)
                .step_by(PAGE_WORDS)
                .all(|i| self.page(i) == other.page(i))
    }
}

impl Eq for Memory {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialised() {
        let mem = Memory::new(1024);
        assert_eq!(mem.size_bytes(), 1024);
        assert_eq!(mem.read_word(Addr::new(0)), 0);
        assert_eq!(mem.read_word(Addr::new(1020)), 0);
    }

    #[test]
    fn word_round_trip() {
        let mut mem = Memory::new(1024);
        mem.write_word(Addr::new(100), 42); // unaligned byte addr → same word
        assert_eq!(mem.read_word(Addr::new(100)), 42);
        assert_eq!(mem.read_word(Addr::new(103)), 42);
        assert_eq!(mem.read_word(Addr::new(104)), 0);
    }

    #[test]
    fn line_round_trip() {
        let mut mem = Memory::new(1024);
        let line: [u32; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
        mem.write_line(Addr::new(0x40), &line);
        assert_eq!(mem.read_line(Addr::new(0x44)), line); // any addr in line
        assert_eq!(mem.read_word(Addr::new(0x40)), 1);
        assert_eq!(mem.read_word(Addr::new(0x5C)), 8);
    }

    #[test]
    fn contains_bounds() {
        let mem = Memory::new(64);
        assert!(mem.contains(Addr::new(60)));
        assert!(!mem.contains(Addr::new(64)));
    }

    #[test]
    #[should_panic]
    fn out_of_range_read_panics() {
        Memory::new(64).read_word(Addr::new(64));
    }

    #[test]
    #[should_panic]
    fn out_of_range_write_panics() {
        Memory::new(64).write_word(Addr::new(64), 1);
    }

    #[test]
    #[should_panic]
    fn out_of_range_line_read_panics() {
        Memory::new(64).read_line(Addr::new(64));
    }

    #[test]
    fn unwritten_words_read_zero() {
        let mut mem = Memory::new(3 * 4096);
        mem.write_word(Addr::new(4096 + 8), 5);
        assert_eq!(mem.arena.len(), 2 * PAGE_WORDS, "one page mapped");
        for a in [0, 4096 + 4, 4096 + 12, 2 * 4096, 3 * 4096 - 4] {
            assert_eq!(mem.read_word(Addr::new(a)), 0, "{a:#x}");
        }
        assert_eq!(mem.read_line(Addr::new(2 * 4096)), [0; 8]);
    }

    #[test]
    fn lines_at_page_edges_round_trip() {
        let mut mem = Memory::new(2 * 4096);
        let line: [u32; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
        mem.write_line(Addr::new(4096 - 32), &line);
        mem.write_line(Addr::new(4096), &line);
        assert_eq!(mem.read_line(Addr::new(4096 - 32)), line);
        assert_eq!(mem.read_line(Addr::new(4096)), line);
        assert_eq!(mem.read_word(Addr::new(4096 - 36)), 0);
        assert_eq!(mem.read_word(Addr::new(4096 + 32)), 0);
    }

    #[test]
    fn reset_zeroes_written_words_and_rewriting_allocates_nothing() {
        let mut mem = Memory::new(4 * 4096);
        let touch = |mem: &mut Memory, v: u32| {
            mem.write_word(Addr::new(0x10), v);
            mem.write_line(Addr::new(3 * 4096 + 64), &[v; 8]);
        };
        touch(&mut mem, 7);
        let (ptr, len) = (mem.arena.as_ptr(), mem.arena.len());
        mem.reset();
        assert_eq!(mem.read_word(Addr::new(0x10)), 0);
        assert_eq!(mem.read_line(Addr::new(3 * 4096 + 64)), [0; 8]);
        touch(&mut mem, 9);
        assert_eq!(mem.read_word(Addr::new(0x10)), 9);
        assert_eq!(
            (mem.arena.as_ptr(), mem.arena.len()),
            (ptr, len),
            "a rerun on the same pages reuses them"
        );
    }

    #[test]
    fn equality_compares_contents_not_mapping() {
        let fresh = Memory::new(2 * 4096);
        let mut mem = fresh.clone();
        mem.write_word(Addr::new(4096), 3);
        assert_ne!(mem, fresh);
        mem.reset();
        assert_eq!(mem, fresh, "written then reset equals fresh");
        mem.write_word(Addr::new(8), 1);
        let mut other = fresh.clone();
        other.write_word(Addr::new(8), 1);
        other.write_word(Addr::new(4096 + 8), 0);
        assert_eq!(mem, other, "a page of zeros equals the zero page");
        assert_ne!(Memory::new(64), Memory::new(128));
    }

    #[test]
    #[should_panic(expected = "whole number of cache lines")]
    fn ragged_size_panics() {
        let _ = Memory::new(100);
    }

    #[test]
    fn fill_sets_everything() {
        let mut mem = Memory::new(64);
        mem.fill(0xAB);
        assert_eq!(mem.read_word(Addr::new(0)), 0xAB);
        assert_eq!(mem.read_word(Addr::new(60)), 0xAB);
        let mut small = Memory::new(64);
        for a in (0..64).step_by(4) {
            small.write_word(Addr::new(a), 0xAB);
        }
        assert_eq!(mem, small, "fill stops at the memory's end");
        mem.fill(0);
        assert_eq!(mem, Memory::new(64));
    }
}
