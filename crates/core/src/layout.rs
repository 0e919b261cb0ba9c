//! Virtual-address-space bookkeeping for trampoline placement.
//!
//! Instruction punning constrains where a trampoline may live: the punned
//! `rel32`'s high bytes are fixed by successor-instruction bytes, leaving a
//! window of `256^f` candidate addresses (§2.1.3). The allocator must find
//! free space *inside that window* amongst the binary's own segments, guard
//! regions and previously placed trampolines.
//!
//! The model reserves:
//!
//! * the null/low guard (`0 .. 0x10000`) — jumps that pun to near-zero
//!   offsets are invalid, exactly the failing case in the paper's §2.1.3
//!   example;
//! * everything at and above the 47-bit userspace ceiling — "negative"
//!   punned offsets from a low (non-PIE) text segment wrap below zero and
//!   are likewise invalid;
//! * every `PT_LOAD` segment of the input binary (plus a guard page), which
//!   is how large `.bss` programs (gamess, zeusmp) starve the allocator —
//!   the paper's limitation **L1**.

use crate::error::{Error, Result};
use e9elf::PAGE_SIZE;
use std::collections::BTreeMap;

/// Lowest usable address (null-page guard).
pub const MIN_ADDR: u64 = 0x10000;
/// One past the highest usable address (47-bit userspace, minus a guard).
pub const MAX_ADDR: u64 = 0x7FFF_FFFF_E000;

/// Bytes per block for a granularity of `m` pages (`M * PAGE_SIZE`, with
/// `m == 0` read as 1). Every block computation starts from this value.
///
/// # Errors
///
/// [`Error::InvalidGranularity`] when the product overflows or exceeds
/// the usable address space.
pub fn block_size(m: u64) -> Result<u64> {
    m.max(1)
        .checked_mul(PAGE_SIZE)
        .filter(|&bs| bs <= MAX_ADDR)
        .ok_or(Error::InvalidGranularity(m))
}

/// An inclusive-exclusive interval of candidate target addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First candidate address.
    pub lo: u64,
    /// One past the last candidate address.
    pub hi: u64,
}

impl Window {
    /// The full usable address space.
    pub fn all() -> Window {
        Window {
            lo: MIN_ADDR,
            hi: MAX_ADDR,
        }
    }

    /// Construct from possibly-out-of-range signed bounds, clamping to the
    /// usable space. Returns `None` if the clamped window is empty.
    pub fn from_i128(lo: i128, hi: i128) -> Option<Window> {
        let lo = lo.max(MIN_ADDR as i128);
        let hi = hi.min(MAX_ADDR as i128);
        if lo >= hi {
            None
        } else {
            Some(Window {
                lo: lo as u64,
                hi: hi as u64,
            })
        }
    }

    /// Intersection of two windows, if non-empty.
    pub fn intersect(self, other: Window) -> Option<Window> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo >= hi {
            None
        } else {
            Some(Window { lo, hi })
        }
    }

    /// Window size in bytes.
    pub fn len(&self) -> u64 {
        self.hi - self.lo
    }

    /// Whether the window is empty (never true for a constructed window).
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }
}

/// First-fit interval allocator over the userspace address range.
///
/// Occupied intervals are kept coalesced in a `BTreeMap` keyed by start
/// address. Free space is the complement.
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    /// start → end of occupied intervals (disjoint, non-adjacent).
    occupied: BTreeMap<u64, u64>,
}

impl AddressSpace {
    /// Empty address space (only the implicit guards are excluded, via
    /// [`Window`] clamping).
    pub fn new() -> AddressSpace {
        AddressSpace::default()
    }

    /// Mark `[start, end)` occupied (idempotent; merges with neighbours).
    pub fn reserve(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        let mut new_start = start;
        let mut new_end = end;
        // Absorb any overlapping or adjacent intervals.
        let overlapping: Vec<u64> = self
            .occupied
            .range(..=end)
            .rev()
            .take_while(|(_, &e)| e >= new_start)
            .filter(|(&s, &e)| e >= start && s <= end)
            .map(|(&s, _)| s)
            .collect();
        for s in overlapping {
            let e = self.occupied.remove(&s).unwrap();
            new_start = new_start.min(s);
            new_end = new_end.max(e);
        }
        self.occupied.insert(new_start, new_end);
    }

    /// Release `[start, end)` (used to roll back tentative tactic steps).
    pub fn free(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        // Collect intervals intersecting [start, end).
        let affected: Vec<(u64, u64)> = self
            .occupied
            .range(..end)
            .rev()
            .take_while(|(_, &e)| e > start)
            .map(|(&s, &e)| (s, e))
            .collect();
        for (s, e) in affected {
            self.occupied.remove(&s);
            if s < start {
                self.occupied.insert(s, start);
            }
            if e > end {
                self.occupied.insert(end, e);
            }
        }
    }

    /// Is `[start, end)` entirely free?
    pub fn is_free(&self, start: u64, end: u64) -> bool {
        if start >= end {
            return true;
        }
        // Any interval beginning before `end` that extends past `start`
        // overlaps.
        self.occupied
            .range(..end)
            .next_back()
            .is_none_or(|(_, &e)| e <= start)
    }

    /// Allocate `size` bytes with the given `align`, lowest-address-first,
    /// such that the allocation **starts** inside `window`. The body may
    /// extend past `window.hi` (the window constrains the jump target — the
    /// trampoline's first byte — not its extent).
    pub fn alloc_in(&mut self, window: Window, size: u64, align: u64) -> Option<u64> {
        if size == 0 {
            return None;
        }
        let align = align.max(1);
        // Checked rounding: a window or reservation hugging `u64::MAX`
        // must exhaust the search, not wrap (or panic the debug build).
        let mut cursor = window.lo.checked_next_multiple_of(align)?;
        // `[cursor, cursor + size)` if it starts inside the window and
        // ends below the ceiling. The cursor only grows, so once this
        // fails every later cursor fails too.
        let span = |cursor: u64| {
            let end = cursor.checked_add(size)?;
            (cursor < window.hi && end <= MAX_ADDR).then_some(end)
        };
        // One ordered walk from the interval that may contain the cursor:
        // every interval the walk passes lies wholly below the cursor, so
        // the first one starting at or past the candidate's end proves
        // the candidate free.
        let from = self
            .occupied
            .range(..=cursor)
            .next_back()
            .map_or(cursor, |(&s, _)| s);
        for (&s, &e) in self.occupied.range(from..) {
            if e <= cursor {
                continue;
            }
            if s >= span(cursor)? {
                break;
            }
            // Conflict: skip past it.
            cursor = e.checked_next_multiple_of(align)?;
        }
        let end = span(cursor)?;
        self.reserve(cursor, end);
        Some(cursor)
    }

    /// Like [`AddressSpace::alloc_in`], but highest-address-first —
    /// scatters trampolines toward window tops instead of packing them low
    /// (an ablation knob for the fragmentation experiments).
    pub fn alloc_in_high(&mut self, window: Window, size: u64, align: u64) -> Option<u64> {
        if size == 0 || window.is_empty() {
            return None;
        }
        let align = align.max(1);
        // Highest aligned start strictly inside the window (`hi >= 1`
        // because the window is non-empty).
        let mut cursor = (window.hi - 1) / align * align;
        loop {
            if cursor < window.lo {
                return None;
            }
            let end = cursor.checked_add(size)?;
            if end > MAX_ADDR {
                // Step below the ceiling; `size` larger than the whole
                // space exhausts the search rather than wrapping.
                cursor = MAX_ADDR.checked_sub(size)? / align * align;
                continue;
            }
            match self.occupied.range(..end).next_back().map(|(&s, &e)| (s, e)) {
                Some((s, e)) if e > cursor => {
                    // Conflict: jump below the conflicting interval.
                    let next = s.checked_sub(size)?;
                    let next = next / align * align;
                    if next >= cursor {
                        return None;
                    }
                    cursor = next;
                }
                _ => {
                    self.reserve(cursor, end);
                    return Some(cursor);
                }
            }
        }
    }

    /// Allocate exactly at `addr` (the `f = 0` pun case: a single valid
    /// trampoline location, as in the paper's Figure 1 T1(b)).
    pub fn alloc_at(&mut self, addr: u64, size: u64) -> bool {
        // Checked end arithmetic: `addr + size` near `u64::MAX` must
        // report "does not fit", not wrap (or panic the debug build).
        let Some(end) = addr.checked_add(size) else {
            return false;
        };
        if addr < MIN_ADDR || end > MAX_ADDR || !self.is_free(addr, end) {
            return false;
        }
        self.reserve(addr, end);
        true
    }

    /// Total occupied bytes (diagnostics).
    pub fn occupied_bytes(&self) -> u64 {
        self.occupied.iter().map(|(s, e)| e - s).sum()
    }

    /// Number of disjoint occupied intervals (diagnostics).
    pub fn fragment_count(&self) -> usize {
        self.occupied.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_clamps_negative() {
        // A non-PIE punned jump whose MSB is set targets "negative"
        // addresses — the §2.1.3 invalid case.
        assert_eq!(Window::from_i128(-0x8000_0000, -0x1000), None);
        let w = Window::from_i128(-0x1000, 0x20000).unwrap();
        assert_eq!(w.lo, MIN_ADDR);
    }

    #[test]
    fn window_clamps_kernel() {
        let w = Window::from_i128(0x7FFF_FFFF_0000, 0x9000_0000_0000).unwrap();
        assert_eq!(w.hi, MAX_ADDR);
    }

    #[test]
    fn reserve_and_query() {
        let mut a = AddressSpace::new();
        a.reserve(0x1000, 0x2000);
        assert!(!a.is_free(0x1800, 0x1900));
        assert!(a.is_free(0x2000, 0x3000));
        assert!(!a.is_free(0x0FFF, 0x1001));
    }

    #[test]
    fn reserve_merges() {
        let mut a = AddressSpace::new();
        a.reserve(0x1000, 0x2000);
        a.reserve(0x2000, 0x3000);
        a.reserve(0x1800, 0x2800);
        assert_eq!(a.fragment_count(), 1);
        assert_eq!(a.occupied_bytes(), 0x2000);
    }

    #[test]
    fn free_splits() {
        let mut a = AddressSpace::new();
        a.reserve(0x1000, 0x4000);
        a.free(0x2000, 0x3000);
        assert!(a.is_free(0x2000, 0x3000));
        assert!(!a.is_free(0x1FFF, 0x2000));
        assert!(!a.is_free(0x3000, 0x3001));
        assert_eq!(a.fragment_count(), 2);
    }

    #[test]
    fn alloc_first_fit_low() {
        let mut a = AddressSpace::new();
        let w = Window {
            lo: 0x10000,
            hi: 0x20000,
        };
        let x = a.alloc_in(w, 0x100, 1).unwrap();
        assert_eq!(x, 0x10000);
        let y = a.alloc_in(w, 0x100, 1).unwrap();
        assert_eq!(y, 0x10100);
    }

    #[test]
    fn alloc_skips_reservations() {
        let mut a = AddressSpace::new();
        a.reserve(0x10000, 0x18000);
        let w = Window {
            lo: 0x10000,
            hi: 0x20000,
        };
        let x = a.alloc_in(w, 0x100, 1).unwrap();
        assert_eq!(x, 0x18000);
    }

    #[test]
    fn alloc_respects_alignment() {
        let mut a = AddressSpace::new();
        a.reserve(0x10000, 0x10001);
        let w = Window {
            lo: 0x10000,
            hi: 0x20000,
        };
        let x = a.alloc_in(w, 0x10, 0x1000).unwrap();
        assert_eq!(x, 0x11000);
    }

    #[test]
    fn alloc_fails_when_window_full() {
        let mut a = AddressSpace::new();
        a.reserve(0x10000, 0x20000);
        let w = Window {
            lo: 0x10000,
            hi: 0x20000,
        };
        assert_eq!(a.alloc_in(w, 1, 1), None);
    }

    #[test]
    fn alloc_exact_address() {
        let mut a = AddressSpace::new();
        assert!(a.alloc_at(0x30000, 0x20));
        assert!(!a.alloc_at(0x30010, 0x20)); // collides
        assert!(!a.alloc_at(0x1000, 8)); // below guard
    }

    #[test]
    fn rollback_via_free() {
        let mut a = AddressSpace::new();
        let w = Window::all();
        let x = a.alloc_in(w, 64, 1).unwrap();
        a.free(x, x + 64);
        let y = a.alloc_in(w, 64, 1).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn alloc_high_takes_window_top() {
        let mut a = AddressSpace::new();
        let w = Window {
            lo: 0x10000,
            hi: 0x20000,
        };
        let x = a.alloc_in_high(w, 0x100, 1).unwrap();
        assert_eq!(x, 0x1FFFF); // start inside the window, body beyond
        let y = a.alloc_in_high(w, 0x100, 1).unwrap();
        assert!(y < x);
        assert!(a.is_free(0x10000, 0x1000)); // bottom untouched
    }

    #[test]
    fn alloc_high_skips_reservations() {
        let mut a = AddressSpace::new();
        a.reserve(0x18000, 0x20100);
        let w = Window {
            lo: 0x10000,
            hi: 0x20000,
        };
        let x = a.alloc_in_high(w, 0x100, 1).unwrap();
        assert_eq!(x, 0x18000 - 0x100);
    }

    #[test]
    fn alloc_high_exhausts_cleanly() {
        let mut a = AddressSpace::new();
        a.reserve(0x10000, 0x21000);
        let w = Window {
            lo: 0x10000,
            hi: 0x20000,
        };
        assert_eq!(a.alloc_in_high(w, 0x100, 1), None);
    }

    #[test]
    fn alloc_at_near_u64_max_does_not_overflow() {
        // Regression: `addr + size` used to wrap (panic in debug builds).
        let mut a = AddressSpace::new();
        assert!(!a.alloc_at(u64::MAX - 4, 16));
        assert!(!a.alloc_at(u64::MAX, 1));
    }

    #[test]
    fn alloc_in_high_oversized_request_does_not_underflow() {
        // Regression: `MAX_ADDR - size` used to wrap when size exceeded
        // the whole usable space (panic in debug builds).
        let mut a = AddressSpace::new();
        let w = Window {
            lo: MIN_ADDR,
            hi: u64::MAX,
        };
        assert_eq!(a.alloc_in_high(w, MAX_ADDR + 1, 1), None);
    }

    #[test]
    fn block_size_is_checked() {
        assert_eq!(block_size(0), Ok(PAGE_SIZE));
        assert_eq!(block_size(16), Ok(16 * PAGE_SIZE));
        assert_eq!(block_size(1 << 34), Ok(1 << 46));
        // 2^35 pages exceeds the address space; 2^52 wraps to 0.
        for m in [1u64 << 35, 1 << 52, u64::MAX] {
            assert_eq!(block_size(m), Err(Error::InvalidGranularity(m)));
        }
    }

    #[test]
    fn alloc_in_high_empty_window() {
        // Regression: `window.hi - 1` used to underflow for `hi == 0`.
        let mut a = AddressSpace::new();
        assert_eq!(a.alloc_in_high(Window { lo: 0, hi: 0 }, 1, 1), None);
    }

    #[test]
    fn alloc_tail_of_window() {
        let mut a = AddressSpace::new();
        a.reserve(0x10000, 0x1FF00);
        let w = Window {
            lo: 0x10000,
            hi: 0x20000,
        };
        let x = a.alloc_in(w, 0x100, 1).unwrap();
        assert_eq!(x, 0x1FF00);
        // Window now exactly full.
        assert_eq!(a.alloc_in(w, 1, 1), None);
    }

    /// The stepping first-fit `alloc_in` the single walk replaced: one
    /// fresh tree descent per conflicting interval. Kept as the oracle.
    fn alloc_in_stepping(
        a: &mut AddressSpace,
        window: Window,
        size: u64,
        align: u64,
    ) -> Option<u64> {
        if size == 0 {
            return None;
        }
        let align = align.max(1);
        let mut cursor = window.lo.checked_next_multiple_of(align)?;
        while cursor < window.hi {
            let end = cursor.checked_add(size)?;
            if end > MAX_ADDR {
                return None;
            }
            match a.occupied.range(..end).next_back().map(|(&s, &e)| (s, e)) {
                Some((_, e)) if e > cursor => {
                    cursor = e.checked_next_multiple_of(align)?;
                }
                _ => {
                    a.reserve(cursor, end);
                    return Some(cursor);
                }
            }
        }
        None
    }

    /// SplitMix64: enough randomness for the equivalence sweep.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[(self.next() % xs.len() as u64) as usize]
        }

        /// An address within a few pages of `base`, either side.
        fn near(&mut self, base: u64) -> u64 {
            let off = self.next() % 0x4000;
            if self.next().is_multiple_of(2) {
                base.saturating_add(off)
            } else {
                base.saturating_sub(off)
            }
        }
    }

    #[test]
    fn single_walk_alloc_matches_the_stepping_oracle() {
        const SIZES: [u64; 6] = [0, 1, 7, 64, 0x100, u64::MAX / 2];
        const ALIGNS: [u64; 5] = [0, 1, 16, 4096, 1 << 40];
        let bases = [MIN_ADDR, 0x40_0000, 1 << 40, MAX_ADDR, u64::MAX];
        let mut rng = Mix(0xE9);
        let mut placed = 0;
        for history in 0..2000 {
            // A random reserve/free history clustered around one base.
            let base = rng.pick(&bases);
            let mut space = AddressSpace::new();
            for _ in 0..rng.next() % 48 {
                let s = rng.near(base);
                let len = if rng.next().is_multiple_of(8) {
                    rng.next() >> (rng.next() % 64)
                } else {
                    1 + rng.next() % 0x300
                };
                let e = s.saturating_add(len);
                if rng.next().is_multiple_of(4) {
                    space.free(s, e);
                } else {
                    space.reserve(s, e);
                }
            }
            for case in 0..64 {
                let lo = rng.near(base);
                let hi = match rng.next() % 4 {
                    0 => u64::MAX,
                    1 => MAX_ADDR,
                    _ => lo.saturating_add(rng.next() % 0x8000),
                };
                let window = Window { lo, hi };
                let size = rng.pick(&SIZES);
                let align = rng.pick(&ALIGNS);
                let mut walk = space.clone();
                let mut oracle = space.clone();
                let got = walk.alloc_in(window, size, align);
                let want = alloc_in_stepping(&mut oracle, window, size, align);
                placed += usize::from(want.is_some());
                assert_eq!(
                    got, want,
                    "history {history} case {case}: {window:?} size {size:#x} align {align:#x}"
                );
                assert_eq!(
                    walk.occupied, oracle.occupied,
                    "history {history} case {case}"
                );
                // Keep the successful allocation so later cases see a
                // fuller space.
                space = walk;
            }
        }
        // Both outcomes are well represented, not just failures.
        assert!(placed > 20_000, "only {placed} of 128k cases placed");
    }
}
