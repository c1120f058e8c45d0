//! Packed truth tables: one bit per point of the system.
//!
//! The checker's previous representation was `Vec<bool>` — one byte per
//! point, every connective a per-point loop. [`BitTable`] packs points into
//! `u64` words so that boolean connectives are word-wide (64 points per
//! instruction) and the `K_p`/temporal clauses become range scans over
//! masked words.
//!
//! # Layout
//!
//! Bits are **dense**: runs are packed back to back, run `ri`'s tick `m`
//! at global bit `bit_off[ri] + m`, which lives in word `bit / 64` at bit
//! position `bit % 64` (LSB first). The only padding is the tail of the
//! last word, so a table of `P` points is `⌈P / 64⌉` words whatever the
//! run lengths — at horizon 24 a run fills 25 bits, where a word per run
//! would leave 39 of its 64 unused.
//!
//! Runs share words, so the temporal operators (`✷`, `✸`) walk the runs
//! in one sequential pass, each run's result one range fill over global
//! bits.
//!
//! Padding bits are **don't-care**: operations never read them (range
//! scans stay inside runs) and `not_inplace` may flip them. Equality,
//! counting, and extraction mask them off.
//!
//! # Buffer reuse
//!
//! A dropped table hands its word buffer to a per-thread spare list, and a
//! new table of the same length takes one from there before asking the
//! allocator. A second checker over the same system, on the same thread,
//! then builds every table in pages that are already resident. Without the
//! list, the allocator may give a checker's freed buffers back to the OS
//! (glibc trims its heap, or unmaps large chunks), and the next checker's
//! first write to each page faults. The list holds buffers of one length
//! only (a table of another length drops them), and at most 64 MiB.

use ktudc_model::{System, Time};
use std::cell::RefCell;
use std::ops::RangeInclusive;
use std::sync::Arc;

/// The most bytes of spare word buffers one thread keeps.
const SPARE_CAP_BYTES: usize = 64 << 20;

/// A thread's spare word buffers, all `words` long.
#[derive(Default)]
struct Spares {
    words: usize,
    buffers: Vec<Vec<u64>>,
}

thread_local! {
    static SPARES: RefCell<Spares> = RefCell::new(Spares::default());
}

/// A spare buffer of `len` words, if this thread holds one.
fn take_spare(len: usize) -> Option<Vec<u64>> {
    SPARES
        .try_with(|s| {
            let mut s = s.borrow_mut();
            if s.words == len {
                s.buffers.pop()
            } else {
                None
            }
        })
        .ok()
        .flatten()
}

/// `len` words set to `fill`, from a spare buffer when there is one.
fn words_filled(len: usize, fill: u64) -> Vec<u64> {
    match take_spare(len) {
        Some(mut words) => {
            words.fill(fill);
            words
        }
        None => vec![fill; len],
    }
}

/// Keeps `words` for the next table of its length, within the cap; a
/// buffer of another length than the ones held replaces them.
fn give_spare(words: Vec<u64>) {
    if words.is_empty() {
        return;
    }
    // During thread teardown the list is gone and the buffer is freed.
    let _ = SPARES.try_with(|s| {
        let mut s = s.borrow_mut();
        if s.words != words.len() {
            s.buffers.clear();
            s.words = words.len();
        }
        if (s.buffers.len() + 1) * s.words * 8 <= SPARE_CAP_BYTES {
            s.buffers.push(words);
        }
    });
}

/// Bytes of spare buffers this thread holds.
#[cfg(test)]
pub(crate) fn spare_bytes() -> usize {
    SPARES.with(|s| {
        let s = s.borrow();
        s.buffers.len() * s.words * 8
    })
}

/// The bit layout of a system's points: the first bit of each run. Shared
/// (via `Arc`) by every table of one checker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Layout {
    /// First bit of each run, plus a final entry = total points.
    bit_off: Vec<usize>,
}

impl Layout {
    /// Builds a layout from per-run point counts.
    #[must_use]
    pub fn from_counts(run_points: Vec<usize>) -> Self {
        let mut bit_off = Vec::with_capacity(run_points.len() + 1);
        let mut bits = 0usize;
        bit_off.push(bits);
        for c in run_points {
            bits += c;
            bit_off.push(bits);
        }
        Layout { bit_off }
    }

    /// The layout of `system`'s points.
    #[must_use]
    pub fn for_system<M>(system: &System<M>) -> Self {
        Self::from_counts(
            system
                .runs()
                .iter()
                .map(|r| r.horizon() as usize + 1)
                .collect(),
        )
    }

    /// Number of runs.
    #[must_use]
    pub fn run_count(&self) -> usize {
        self.bit_off.len() - 1
    }

    /// Points in run `ri`.
    #[must_use]
    pub fn run_points(&self, ri: usize) -> usize {
        self.bit_off[ri + 1] - self.bit_off[ri]
    }

    /// Total points across runs (padding excluded).
    #[must_use]
    pub fn point_count(&self) -> usize {
        *self.bit_off.last().expect("bit_off is never empty")
    }

    /// Total words of a table with this layout.
    #[must_use]
    pub fn word_count(&self) -> usize {
        self.point_count().div_ceil(64)
    }

    /// The global bit of point `(run, m)`.
    #[must_use]
    pub fn bit(&self, run: usize, m: Time) -> usize {
        debug_assert!((m as usize) < self.run_points(run));
        self.bit_off[run] + m as usize
    }

    /// The point `(run, m)` of a global bit — the run is found by binary
    /// search over the run offsets.
    #[must_use]
    pub fn point(&self, bit: usize) -> (usize, Time) {
        let run = self.bit_off[1..].partition_point(|&end| end <= bit);
        (run, (bit - self.bit_off[run]) as Time)
    }

    /// Mask of valid bits in the last word (`u64::MAX` when the points
    /// fill it exactly).
    fn last_word_mask(&self) -> u64 {
        match self.point_count() % 64 {
            0 => u64::MAX,
            rem => (1u64 << rem) - 1,
        }
    }
}

/// A truth table over all points of a system, packed one bit per point.
#[derive(Debug)]
pub struct BitTable {
    layout: Arc<Layout>,
    words: Vec<u64>,
}

impl Clone for BitTable {
    fn clone(&self) -> Self {
        let words = match take_spare(self.words.len()) {
            Some(mut words) => {
                words.copy_from_slice(&self.words);
                words
            }
            None => self.words.clone(),
        };
        BitTable {
            layout: Arc::clone(&self.layout),
            words,
        }
    }
}

impl Drop for BitTable {
    fn drop(&mut self) {
        give_spare(std::mem::take(&mut self.words));
    }
}

impl BitTable {
    /// All-false table.
    #[must_use]
    pub fn zeros(layout: Arc<Layout>) -> Self {
        Self::filled(layout, false)
    }

    /// All-true (or all-false) table.
    #[must_use]
    pub fn filled(layout: Arc<Layout>, value: bool) -> Self {
        let fill = if value { u64::MAX } else { 0 };
        let words = words_filled(layout.word_count(), fill);
        BitTable { layout, words }
    }

    /// The table's layout.
    #[must_use]
    pub fn layout(&self) -> &Arc<Layout> {
        &self.layout
    }

    /// Bytes of backing storage (for memory accounting).
    #[must_use]
    pub fn byte_size(&self) -> usize {
        self.words.len() * 8
    }

    /// The bit at point `(run, m)`.
    #[must_use]
    pub fn get(&self, run: usize, m: Time) -> bool {
        let bit = self.layout.bit(run, m);
        (self.words[bit / 64] >> (bit % 64)) & 1 == 1
    }

    /// Sets ticks `from ..= to` of `run` to `value`, word-wise.
    ///
    /// # Panics
    ///
    /// Panics (in debug) if the range exceeds the run.
    pub fn fill_range(&mut self, run: usize, from: Time, to: Time, value: bool) {
        debug_assert!(from <= to);
        let (lo, hi) = (self.layout.bit(run, from), self.layout.bit(run, to));
        fill_bits(&mut self.words, lo, hi, value);
    }

    /// Sets global bits `from ..= to`.
    pub(crate) fn set_bits(&mut self, from: usize, to: usize) {
        fill_bits(&mut self.words, from, to, true);
    }

    /// Whether every global bit `from ..= to` is set.
    pub(crate) fn all_ones_bits(&self, from: usize, to: usize) -> bool {
        let words = &self.words;
        let (fw, tw) = (from / 64, to / 64);
        let head = u64::MAX << (from % 64);
        let tail = u64::MAX >> (63 - to % 64);
        if fw == tw {
            let mask = head & tail;
            return words[fw] & mask == mask;
        }
        words[fw] & head == head
            && words[tw] & tail == tail
            && words[fw + 1..tw].iter().all(|&w| w == u64::MAX)
    }

    /// Word-wise negation (padding bits flip too — they are don't-care).
    pub fn not_inplace(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
    }

    /// Word-wise conjunction with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the layouts differ.
    pub fn and_inplace(&mut self, other: &BitTable) {
        assert!(self.layout == other.layout, "layout mismatch");
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Word-wise disjunction with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the layouts differ.
    pub fn or_inplace(&mut self, other: &BitTable) {
        assert!(self.layout == other.layout, "layout mismatch");
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `✷` (always): `out[m] = self[m] ∧ self[m+1] ∧ … ∧ self[horizon]`,
    /// per run. A run's result is one range fill: everything strictly after
    /// its last zero bit.
    #[must_use]
    pub fn always(&self) -> BitTable {
        self.per_run_fill(|lo, hi| match last_bit(&self.words, lo, hi, false) {
            None => Some(lo..=hi),
            Some(z) if z < hi => Some(z + 1..=hi),
            Some(_) => None,
        })
    }

    /// `✸` (eventually): `out[m] = self[m] ∨ … ∨ self[horizon]`, per run —
    /// everything up to the run's last one bit.
    #[must_use]
    pub fn eventually(&self) -> BitTable {
        self.per_run_fill(|lo, hi| last_bit(&self.words, lo, hi, true).map(|o| lo..=o))
    }

    /// A table that is true on the bits `fill(lo, hi)` names for each run
    /// spanning global bits `lo ..= hi`, and false elsewhere.
    fn per_run_fill<F>(&self, fill: F) -> BitTable
    where
        F: Fn(usize, usize) -> Option<RangeInclusive<usize>>,
    {
        let mut out = BitTable::zeros(Arc::clone(&self.layout));
        for bounds in self.layout.bit_off.windows(2) {
            if bounds[0] < bounds[1] {
                if let Some(range) = fill(bounds[0], bounds[1] - 1) {
                    fill_bits(&mut out.words, *range.start(), *range.end(), true);
                }
            }
        }
        out
    }

    /// The earliest point (run-major, then tick) whose bit is clear, or
    /// `None` if every point is set. Scans word-wise, so an all-ones table
    /// costs one pass over the words, not one branch per point.
    #[must_use]
    pub fn first_zero(&self) -> Option<(usize, Time)> {
        let last = self.words.len().checked_sub(1)?;
        self.words.iter().enumerate().find_map(|(wi, &w)| {
            let valid = if wi == last {
                self.layout.last_word_mask()
            } else {
                u64::MAX
            };
            let zeros = !w & valid;
            (zeros != 0).then(|| self.layout.point(wi * 64 + zeros.trailing_zeros() as usize))
        })
    }

    /// Number of set bits (padding excluded).
    #[must_use]
    pub fn count_ones(&self) -> usize {
        let Some((&last, body)) = self.words.split_last() else {
            return 0;
        };
        let body: usize = body.iter().map(|w| w.count_ones() as usize).sum();
        body + (last & self.layout.last_word_mask()).count_ones() as usize
    }

    /// Unpacks to one `bool` per point, in `(run, m)` order — the reference
    /// checker's representation, for differential comparison.
    #[must_use]
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.layout.point_count())
            .map(|bit| (self.words[bit / 64] >> (bit % 64)) & 1 == 1)
            .collect()
    }

    /// Packs one `bool` per point, in `(run, m)` order.
    ///
    /// # Panics
    ///
    /// Panics if `bools` has the wrong length for the layout.
    #[must_use]
    pub fn from_bools(layout: Arc<Layout>, bools: &[bool]) -> Self {
        assert_eq!(bools.len(), layout.point_count(), "length mismatch");
        let mut t = BitTable::zeros(layout);
        for (bit, _) in bools.iter().enumerate().filter(|(_, &b)| b) {
            t.words[bit / 64] |= 1 << (bit % 64);
        }
        t
    }
}

impl PartialEq for BitTable {
    /// Equality over valid bits only (padding ignored).
    fn eq(&self, other: &Self) -> bool {
        if self.layout != other.layout {
            return false;
        }
        let Some(((&a, a_body), (&b, b_body))) =
            self.words.split_last().zip(other.words.split_last())
        else {
            return true;
        };
        a_body == b_body && (a ^ b) & self.layout.last_word_mask() == 0
    }
}

impl Eq for BitTable {}

/// Sets or clears bits `from ..= to` of a word slice.
fn fill_bits(words: &mut [u64], from: usize, to: usize, value: bool) {
    let (fw, tw) = (from / 64, to / 64);
    let head = u64::MAX << (from % 64);
    let tail = u64::MAX >> (63 - to % 64);
    if fw == tw {
        let mask = head & tail;
        if value {
            words[fw] |= mask;
        } else {
            words[fw] &= !mask;
        }
        return;
    }
    if value {
        words[fw] |= head;
        words[fw + 1..tw].fill(u64::MAX);
        words[tw] |= tail;
    } else {
        words[fw] &= !head;
        words[fw + 1..tw].fill(0);
        words[tw] &= !tail;
    }
}

/// The highest bit in `lo ..= hi` equal to `value`, if any.
fn last_bit(words: &[u64], lo: usize, hi: usize, value: bool) -> Option<usize> {
    let (lw, hw) = (lo / 64, hi / 64);
    (lw..=hw).rev().find_map(|wi| {
        let mut valid = u64::MAX;
        if wi == hw {
            valid &= u64::MAX >> (63 - hi % 64);
        }
        if wi == lw {
            valid &= u64::MAX << (lo % 64);
        }
        let w = if value { words[wi] } else { !words[wi] };
        let hits = w & valid;
        (hits != 0).then(|| wi * 64 + 63 - hits.leading_zeros() as usize)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(counts: &[usize]) -> Arc<Layout> {
        Arc::new(Layout::from_counts(counts.to_vec()))
    }

    #[test]
    fn layout_is_dense() {
        let l = layout(&[5, 64, 65, 1]);
        assert_eq!(l.bit(1, 0), 5);
        assert_eq!(l.bit(2, 64), 5 + 64 + 64);
        assert_eq!(l.bit(3, 0), 5 + 64 + 65);
        assert_eq!(l.point_count(), 5 + 64 + 65 + 1);
        assert_eq!(l.word_count(), 3);
        assert_eq!(l.point(0), (0, 0));
        assert_eq!(l.point(4), (0, 4));
        assert_eq!(l.point(5), (1, 0));
        assert_eq!(l.point(69), (2, 0));
        assert_eq!(l.point(134), (3, 0));
        // Empty runs own no bits: the search skips them.
        let e = layout(&[2, 0, 0, 3]);
        assert_eq!(e.point(2), (3, 0));
        assert_eq!(e.point(1), (0, 1));
    }

    #[test]
    fn get_set_roundtrip_across_word_boundaries() {
        let l = layout(&[130, 7]);
        let mut t = BitTable::zeros(Arc::clone(&l));
        t.fill_range(0, 62, 66, true);
        t.fill_range(1, 0, 6, true);
        t.fill_range(1, 2, 3, false);
        for m in 0..130u64 {
            assert_eq!(t.get(0, m), (62..=66).contains(&m), "bit {m}");
        }
        for m in 0..7u64 {
            assert_eq!(t.get(1, m), !(2..=3).contains(&m));
        }
        assert_eq!(t.count_ones(), 5 + 5);
    }

    #[test]
    fn boolean_ops_match_scalar() {
        let l = layout(&[100, 3]);
        let bools_a: Vec<bool> = (0..103).map(|i| i % 3 == 0).collect();
        let bools_b: Vec<bool> = (0..103).map(|i| i % 2 == 0).collect();
        let a = BitTable::from_bools(Arc::clone(&l), &bools_a);
        let b = BitTable::from_bools(Arc::clone(&l), &bools_b);

        let mut and = a.clone();
        and.and_inplace(&b);
        let mut or = a.clone();
        or.or_inplace(&b);
        let mut not = a.clone();
        not.not_inplace();

        for i in 0..103 {
            let (ri, m) = if i < 100 { (0, i) } else { (1, i - 100) };
            assert_eq!(and.get(ri, m as Time), bools_a[i] && bools_b[i]);
            assert_eq!(or.get(ri, m as Time), bools_a[i] || bools_b[i]);
            assert_eq!(not.get(ri, m as Time), !bools_a[i]);
        }
        // Double negation restores equality (padding is ignored by ==).
        not.not_inplace();
        assert_eq!(not, a);
    }

    /// `✷`/`✸` against a per-point scalar evaluation, over runs of odd
    /// lengths that straddle words.
    #[test]
    fn temporal_ops_match_scalar() {
        let mut counts = vec![70, 70, 5, 1, 63, 129];
        while counts.iter().sum::<usize>() < 4096 {
            counts.push(1 + (counts.len() * 37) % 97);
        }
        let l = layout(&counts);
        let total = l.point_count();
        let bools: Vec<bool> = (0..total)
            .map(|i| (i * 2_654_435_761) % 7 != 0 && i % 97 != 3)
            .collect();
        let t = BitTable::from_bools(Arc::clone(&l), &bools);
        let always = t.always();
        let eventually = t.eventually();

        let mut offset = 0;
        for (ri, &points) in counts.iter().enumerate() {
            for m in 0..points {
                let scalar_always = (m..points).all(|k| bools[offset + k]);
                let scalar_event = (m..points).any(|k| bools[offset + k]);
                assert_eq!(
                    always.get(ri, m as Time),
                    scalar_always,
                    "always r{ri} m{m}"
                );
                assert_eq!(
                    eventually.get(ri, m as Time),
                    scalar_event,
                    "eventually r{ri} m{m}"
                );
            }
            offset += points;
        }
    }

    #[test]
    fn all_ones_ranges() {
        let l = layout(&[3, 200]);
        let mut t = BitTable::zeros(Arc::clone(&l));
        t.fill_range(1, 50, 180, true);
        assert!(t.all_ones_bits(53, 183));
        assert!(t.all_ones_bits(67, 131));
        assert!(!t.all_ones_bits(52, 63));
        assert!(!t.all_ones_bits(173, 184));
        assert!(t.all_ones_bits(73, 73));
    }

    #[test]
    fn first_zero_maps_back_to_its_point() {
        let l = layout(&[30, 50, 70]);
        let mut t = BitTable::filled(Arc::clone(&l), true);
        assert_eq!(t.first_zero(), None);
        t.fill_range(2, 41, 41, false);
        assert_eq!(t.first_zero(), Some((2, 41)));
        t.fill_range(1, 40, 45, false);
        assert_eq!(t.first_zero(), Some((1, 40)));
        let z = BitTable::zeros(l);
        assert_eq!(z.first_zero(), Some((0, 0)));
    }

    #[test]
    fn bools_roundtrip() {
        let l = layout(&[66, 1, 64]);
        let bools: Vec<bool> = (0..131).map(|i| (i * 7) % 5 < 2).collect();
        let t = BitTable::from_bools(Arc::clone(&l), &bools);
        assert_eq!(t.to_bools(), bools);
        assert_eq!(t.count_ones(), bools.iter().filter(|&&b| b).count());
    }

    #[test]
    fn spares_start_empty_and_stay_bounded() {
        std::thread::spawn(|| {
            assert_eq!(
                spare_bytes(),
                0,
                "a thread that built no table holds spares"
            );
            // 1 MiB tables, one more than the cap holds.
            let l = layout(&[8 << 20]);
            let tables: Vec<BitTable> = (0..=SPARE_CAP_BYTES >> 20)
                .map(|_| BitTable::zeros(Arc::clone(&l)))
                .collect();
            drop(tables);
            assert_eq!(spare_bytes(), SPARE_CAP_BYTES);
            // A reused buffer is refilled, and a clone gets its own copy.
            let ones = BitTable::filled(Arc::clone(&l), true);
            assert_eq!(ones.count_ones(), 8 << 20);
            let copy = ones.clone();
            assert_eq!(copy, ones);
            drop((ones, copy));
            // A table of another length releases the spares it cannot use.
            drop(BitTable::zeros(layout(&[64])));
            assert_eq!(spare_bytes(), 8);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn filled_tables() {
        let l = layout(&[3, 65]);
        let t = BitTable::filled(Arc::clone(&l), true);
        assert_eq!(t.count_ones(), 68);
        assert!(t.all_ones_bits(0, 67));
        let mut ones = t.clone();
        ones.not_inplace();
        ones.not_inplace();
        assert_eq!(ones, t);
        let z = BitTable::zeros(l);
        assert_eq!(z.count_ones(), 0);
        assert_ne!(z, t);
    }
}
