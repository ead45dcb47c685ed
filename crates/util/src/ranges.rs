//! A compact, ordered set of `u64` values stored as disjoint inclusive
//! ranges.
//!
//! Used for two protocol jobs:
//!
//! * tracking received packet numbers per path so ACK frames can report up
//!   to 256 ranges (the mechanism the paper credits for QUIC's loss
//!   resilience versus TCP's 2–3 SACK blocks), and
//! * tracking which byte ranges of a stream have been received.

use std::fmt;
use std::ops::RangeInclusive;

/// An ordered set of `u64`s stored as disjoint, non-adjacent inclusive
/// ranges, kept sorted ascending.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct RangeSet {
    /// Sorted, disjoint, non-adjacent `(start, end)` inclusive pairs.
    ranges: Vec<(u64, u64)>,
}

impl RangeSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        RangeSet { ranges: Vec::new() }
    }

    /// True if the set contains no values.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Number of disjoint ranges (not elements).
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// Total number of elements across all ranges.
    pub fn element_count(&self) -> u64 {
        self.ranges.iter().map(|&(s, e)| e - s + 1).sum()
    }

    /// Smallest contained value, if any.
    pub fn min(&self) -> Option<u64> {
        self.ranges.first().map(|&(s, _)| s)
    }

    /// Largest contained value, if any.
    pub fn max(&self) -> Option<u64> {
        self.ranges.last().map(|&(_, e)| e)
    }

    /// True if `value` is in the set.
    pub fn contains(&self, value: u64) -> bool {
        self.ranges
            .binary_search_by(|&(s, e)| {
                if value < s {
                    std::cmp::Ordering::Greater
                } else if value > e {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Inserts a single value. Returns true if it was not already present.
    pub fn insert(&mut self, value: u64) -> bool {
        self.insert_range(value, value)
    }

    /// Inserts the inclusive range `[start, end]`. Returns true if any new
    /// value was added.
    pub fn insert_range(&mut self, start: u64, end: u64) -> bool {
        assert!(start <= end, "insert_range requires start <= end");
        // Find the insertion window: all existing ranges that overlap or are
        // adjacent to [start, end] get merged.
        let lo = self
            .ranges
            .partition_point(|&(_, e)| e.checked_add(1).is_some_and(|e1| e1 < start));
        let hi = self
            .ranges
            .partition_point(|&(s, _)| s <= end.saturating_add(1));
        if lo >= hi {
            // No overlap: plain insertion.
            self.ranges.insert(lo, (start, end));
            return true;
        }
        let merged_start = self.ranges[lo].0.min(start);
        let merged_end = self.ranges[hi - 1].1.max(end);
        let covered: u64 = self.ranges[lo..hi].iter().map(|&(s, e)| e - s + 1).sum();
        self.ranges.drain(lo..hi);
        self.ranges.insert(lo, (merged_start, merged_end));
        // New values were added unless the merged span already covered
        // exactly [start, end] plus what it had.
        merged_end - merged_start + 1 > covered
    }

    /// Removes all values strictly below `bound`.
    ///
    /// Used to forget acknowledged packet-number ranges that the peer has
    /// confirmed it no longer needs reported.
    pub fn remove_below(&mut self, bound: u64) {
        self.ranges.retain_mut(|range| {
            if range.1 < bound {
                false
            } else {
                if range.0 < bound {
                    range.0 = bound;
                }
                true
            }
        });
    }

    /// Removes the inclusive range `[start, end]` from the set.
    pub fn remove_range(&mut self, start: u64, end: u64) {
        assert!(start <= end);
        let mut result = Vec::with_capacity(self.ranges.len() + 1);
        for &(s, e) in &self.ranges {
            if e < start || s > end {
                result.push((s, e));
                continue;
            }
            if s < start {
                result.push((s, start - 1));
            }
            if e > end {
                result.push((end + 1, e));
            }
        }
        self.ranges = result;
    }

    /// Iterates over the disjoint ranges in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = RangeInclusive<u64>> + '_ {
        self.ranges.iter().map(|&(s, e)| s..=e)
    }

    /// Iterates over the disjoint ranges in descending order (the order ACK
    /// frames are encoded in: largest acknowledged first).
    pub fn iter_descending(&self) -> impl Iterator<Item = RangeInclusive<u64>> + '_ {
        self.ranges.iter().rev().map(|&(s, e)| s..=e)
    }

    /// Iterates over every element (use only in tests / small sets).
    pub fn elements(&self) -> impl Iterator<Item = u64> + '_ {
        self.ranges.iter().flat_map(|&(s, e)| s..=e)
    }
}

impl fmt::Debug for RangeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut list = f.debug_list();
        for &(s, e) in &self.ranges {
            if s == e {
                list.entry(&s);
            } else {
                list.entry(&format_args!("{s}..={e}"));
            }
        }
        list.finish()
    }
}

impl FromIterator<u64> for RangeSet {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        let mut set = RangeSet::new();
        for v in iter {
            set.insert(v);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{self, check, CASES};
    use crate::DetRng;
    use std::collections::BTreeSet;

    #[test]
    fn insert_merges_adjacent() {
        let mut s = RangeSet::new();
        assert!(s.insert(5));
        assert!(s.insert(7));
        assert_eq!(s.range_count(), 2);
        assert!(s.insert(6));
        assert_eq!(s.range_count(), 1);
        assert_eq!(s.min(), Some(5));
        assert_eq!(s.max(), Some(7));
    }

    #[test]
    fn duplicate_insert_returns_false() {
        let mut s = RangeSet::new();
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert_range(1, 5));
        assert!(!s.insert_range(2, 4));
    }

    #[test]
    fn insert_range_spanning_multiple() {
        let mut s = RangeSet::new();
        s.insert_range(0, 2);
        s.insert_range(10, 12);
        s.insert_range(20, 22);
        assert!(s.insert_range(1, 21));
        assert_eq!(s.range_count(), 1);
        assert_eq!((s.min(), s.max()), (Some(0), Some(22)));
        assert_eq!(s.element_count(), 23);
    }

    #[test]
    fn contains_checks_boundaries() {
        let mut s = RangeSet::new();
        s.insert_range(10, 20);
        assert!(!s.contains(9));
        assert!(s.contains(10));
        assert!(s.contains(20));
        assert!(!s.contains(21));
    }

    #[test]
    fn remove_below_trims_and_drops() {
        let mut s = RangeSet::new();
        s.insert_range(0, 5);
        s.insert_range(10, 15);
        s.remove_below(12);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![12..=15]);
    }

    #[test]
    fn remove_range_splits() {
        let mut s = RangeSet::new();
        s.insert_range(0, 10);
        s.remove_range(3, 6);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0..=2, 7..=10]);
    }

    #[test]
    fn descending_iteration_order() {
        let mut s = RangeSet::new();
        s.insert_range(1, 2);
        s.insert_range(9, 9);
        s.insert_range(4, 6);
        let desc: Vec<_> = s.iter_descending().collect();
        assert_eq!(desc, vec![9..=9, 4..=6, 1..=2]);
    }

    #[test]
    fn prop_matches_btreeset() {
        let gen = |rng: &mut DetRng| {
            check::vec(rng, 1..200, |rng| {
                (rng.next_below(200), rng.next_below(20), rng.bool(0.5))
            })
        };
        check(0x5A9E_0001, CASES, gen, |ops| {
            let mut set = RangeSet::new();
            let mut model: BTreeSet<u64> = BTreeSet::new();
            for (start, span, remove) in ops {
                let end = start + span;
                if remove {
                    set.remove_range(start, end);
                    for v in start..=end {
                        model.remove(&v);
                    }
                } else {
                    set.insert_range(start, end);
                    for v in start..=end {
                        model.insert(v);
                    }
                }
                // Invariants: sorted, disjoint, non-adjacent.
                let ranges: Vec<_> = set.iter().collect();
                for w in ranges.windows(2) {
                    assert!(*w[0].end() + 1 < *w[1].start());
                }
                assert_eq!(set.element_count(), model.len() as u64);
            }
            let elems: Vec<u64> = set.elements().collect();
            let model_elems: Vec<u64> = model.iter().copied().collect();
            assert_eq!(elems, model_elems);
        });
    }

    #[test]
    fn prop_insert_returns_whether_new() {
        let gen = |rng: &mut DetRng| check::vec(rng, 1..100, |rng| rng.next_below(100));
        check(0x5A9E_0002, CASES, gen, |values| {
            let mut set = RangeSet::new();
            let mut model = BTreeSet::new();
            for v in values {
                assert_eq!(set.insert(v), model.insert(v));
            }
        });
    }
}
