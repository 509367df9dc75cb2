//! A layer-bucketed, strip-major spatial index over flat geometry.
//!
//! Every flat-geometry consumer in this workspace — the design-rule
//! checker, the visibility scanline of paper §6.4.1, and the leaf
//! compactor's cross-interface constraints — asks the same two questions
//! of the same box soup: *which boxes come near this box?* and *is this
//! gap completely covered by material?* [`GeomIndex`] answers both from
//! one structure built once in O(n log n).
//!
//! **Strips.** Each label's bucket cuts the axis *across* the sweep into
//! strips of one height `h`, taken from the data with no knob:
//!
//! ```text
//! h = max(⌈mean across extent⌉, ⌈across span / bucket len⌉)
//! ```
//!
//! A box is registered in every strip its half-open across range
//! `[lo, hi)` touches (a zero-extent box in the one strip holding its
//! edge). The second term caps the strip count at the bucket length.
//! Because `h` is at least the mean extent, a box of typical height
//! lands in one or two strips; a skewed mix of many thin boxes on strip
//! edges and a few very tall boxes could exceed two, so the build doubles
//! `h` until the entries fit: **the index never holds more than 2n
//! entries**. Inside a strip the entries keep the dense
//! struct-of-arrays columns sorted by `(lo along, input index)`, with a
//! running maximum of high edges so backward scans stop as soon as no
//! earlier box can reach the query window.
//!
//! **Queries.** Every query visits only the strips its across window
//! overlaps, and within each strip only the along window (binary search,
//! then the prefix-maximum early exit). A box spanning several query
//! strips is reported once, from the first strip both it and the query
//! touch — `max(first query strip, first strip of the box)` — so no
//! deduplicating sort is needed. Results come strip by strip in
//! ascending across order; callers needing a total order sort them.
//!
//! **Cost.** A DRC query costs its binary searches plus its true
//! neighbours. The visibility scan walks the rest of each strip it
//! overlaps: on a lattice of n boxes a strip holds O(√n) of them, and
//! the scan emits every facing candidate in its row before the
//! hidden-edge oracle filters them. That √n factor lives in the emitted
//! candidates, not the index; a frontier emitter (Doenhardt & Lengauer)
//! is what removes it.
//!
//! The index is generic over the label type so this crate stays free of
//! layer definitions; `rsg-layout` instantiates it as `GeomIndex<Layer>`.

use crate::{Axis, Rect};
use std::ops::Range;

/// One per-label bucket, cut into strips across the sweep axis.
///
/// Strip `s` covers across coordinates `[base + s·height, base +
/// (s+1)·height)`, the first and last strips extending to ±∞. Its
/// entries are `starts[s]..starts[s + 1]` in the columns, which mirror
/// all four box coordinates (struct-of-arrays) so scans touch only
/// sequential `i64` data instead of chasing `(label, Rect)` pairs
/// through the item table.
#[derive(Debug, Clone)]
struct Bucket<L> {
    label: L,
    /// The least `lo_across` in the bucket: strip 0 starts here.
    base: i64,
    /// Strip height across the axis (at least 1).
    height: i64,
    /// Entry offsets per strip (`strips + 1` values).
    starts: Vec<usize>,
    /// Item indices (into [`GeomIndex::items`]), per strip sorted by
    /// `(lo_along, index)`.
    order: Vec<u32>,
    /// `lo_along` of each entry (binary-search key within a strip).
    lo: Vec<i64>,
    /// `hi_along` of each entry.
    hi: Vec<i64>,
    /// `lo_across` of each entry.
    across_lo: Vec<i64>,
    /// `hi_across` of each entry.
    across_hi: Vec<i64>,
    /// Running maximum of `hi` from the start of the entry's strip.
    prefix_max_hi: Vec<i64>,
    /// The largest `lo_along` in the bucket.
    max_lo: i64,
}

impl<L> Bucket<L> {
    fn empty(label: L) -> Bucket<L> {
        Bucket {
            label,
            base: 0,
            height: 1,
            starts: Vec::new(),
            order: Vec::new(),
            lo: Vec::new(),
            hi: Vec::new(),
            across_lo: Vec::new(),
            across_hi: Vec::new(),
            prefix_max_hi: Vec::new(),
            max_lo: i64::MIN,
        }
    }

    fn strips(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// The strip holding across coordinate `c` (clamped to the ends).
    fn strip_of(&self, c: i64) -> usize {
        let last = self.strips().saturating_sub(1);
        match c.checked_sub(self.base) {
            Some(d) if d <= 0 => 0,
            Some(d) => usize::try_from(d / self.height).map_or(last, |s| s.min(last)),
            None => last, // c is far above base
        }
    }

    /// The low across edge of strip `s` (saturating past the top).
    fn strip_lo(&self, s: usize) -> i64 {
        let lo = i128::from(self.base) + s as i128 * i128::from(self.height);
        i64::try_from(lo).unwrap_or(i64::MAX)
    }

    /// The strips a box with across range `[lo, hi)` is registered in.
    fn strips_of_box(&self, lo: i64, hi: i64) -> (usize, usize) {
        let first = self.strip_of(lo);
        if hi <= lo || hi - 1 < self.strip_lo(first + 1) {
            // Zero extent, or ends in its first strip: the common case,
            // answered without a second division.
            (first, first)
        } else {
            (first, self.strip_of(hi - 1))
        }
    }

    /// The entry range of every strip the open across window `(c0, c1)`
    /// can touch, each with the least `across_lo` an entry needs to be
    /// reported from that strip: a box overlapping the window appears in
    /// every strip it touches, and is reported only from the first one
    /// the window touches too.
    ///
    /// Inverted or empty windows (`c1 <= c0`) still select the strip of
    /// `c0`, where every box strictly containing `[c1, c0]` lives.
    fn strips_in(&self, c0: i64, c1: i64) -> impl Iterator<Item = (Range<usize>, i64)> + '_ {
        let first = self.strip_of(c0);
        let last = self.strip_of(c1.saturating_sub(1).max(c0));
        (first..=last).map(move |s| {
            let min_lo = if s == first {
                i64::MIN
            } else {
                self.strip_lo(s)
            };
            (self.starts[s]..self.starts[s + 1], min_lo)
        })
    }

    /// Refills the strips from the bucket's members (listed in `order`,
    /// ascending) with the strip height derived from `stats`, reusing
    /// the columns' capacity. `spans` (each member's first and last
    /// strip) and `keys` (each entry's `(lo_along, item)`) are scratch.
    fn fill(
        &mut self,
        items: &[(L, Rect)],
        axis: Axis,
        stats: AcrossStats,
        spans: &mut Vec<(u32, u32)>,
        keys: &mut Vec<(i64, u32)>,
    ) {
        let n = self.order.len();
        let len = (n as i128).max(1);
        let span = (i128::from(stats.top) - i128::from(stats.base)).max(0);
        let mut height = ((stats.total + len - 1) / len)
            .max((span + len - 1) / len)
            .max(1);
        let mut entries;
        loop {
            let h = i64::try_from(height).unwrap_or(i64::MAX);
            let strips = usize::try_from((span + i128::from(h) - 1) / i128::from(h))
                .unwrap_or(n)
                .clamp(1, n.max(1));
            self.base = stats.base;
            self.height = h;
            self.starts.clear();
            self.starts.resize(strips + 1, 0);
            spans.clear();
            entries = 0;
            for &k in &self.order {
                let r = items[k as usize].1;
                let (s0, s1) = self.strips_of_box(r.lo_across(axis), r.hi_across(axis));
                entries += s1 - s0 + 1;
                spans.push((s0 as u32, s1 as u32));
            }
            // Holds once one strip is left (then every box has one entry).
            if entries <= 2 * n || strips == 1 {
                break;
            }
            height *= 2;
        }
        // Counting sort of the entries into strips. `starts[s]` first
        // counts strip s's entries and then holds its end offset; placing
        // the members back to front walks each end down to the strip's
        // start, leaving every strip in input order.
        for &(s0, s1) in spans.iter() {
            for s in s0..=s1 {
                self.starts[s as usize] += 1;
            }
        }
        let mut end = 0;
        for c in self.starts.iter_mut() {
            end += *c;
            *c = end;
        }
        keys.clear();
        keys.resize(entries, (0, 0));
        self.max_lo = i64::MIN;
        for (&k, &(s0, s1)) in self.order.iter().zip(spans.iter()).rev() {
            let lo = items[k as usize].1.lo_along(axis);
            self.max_lo = self.max_lo.max(lo);
            for s in s0 as usize..=s1 as usize {
                self.starts[s] -= 1;
                keys[self.starts[s]] = (lo, k);
            }
        }
        // Sorting strip by strip keeps each sort small and in cache; a
        // strip whose input order is already along order (a lattice row)
        // costs one pass.
        for s in 0..self.strips() {
            keys[self.starts[s]..self.starts[s + 1]].sort_unstable();
        }
        self.order.clear();
        self.order.reserve_exact(entries);
        for col in [
            &mut self.lo,
            &mut self.hi,
            &mut self.across_lo,
            &mut self.across_hi,
            &mut self.prefix_max_hi,
        ] {
            col.clear();
            col.reserve_exact(entries);
        }
        for s in 0..self.strips() {
            let mut max_hi = i64::MIN;
            for &(lo, k) in &keys[self.starts[s]..self.starts[s + 1]] {
                let r = items[k as usize].1;
                max_hi = max_hi.max(r.hi_along(axis));
                self.order.push(k);
                self.lo.push(lo);
                self.hi.push(r.hi_along(axis));
                self.across_lo.push(r.lo_across(axis));
                self.across_hi.push(r.hi_across(axis));
                self.prefix_max_hi.push(max_hi);
            }
        }
    }
}

/// The across extent of one bucket's boxes, gathered while grouping.
#[derive(Debug, Clone, Copy)]
struct AcrossStats {
    /// Least `lo_across`.
    base: i64,
    /// Greatest `hi_across`.
    top: i64,
    /// Sum of across extents.
    total: i128,
}

impl AcrossStats {
    const EMPTY: AcrossStats = AcrossStats {
        base: i64::MAX,
        top: i64::MIN,
        total: 0,
    };

    fn add(&mut self, lo: i64, hi: i64) {
        self.base = self.base.min(lo);
        self.top = self.top.max(hi);
        self.total += i128::from(hi) - i128::from(lo);
    }
}

/// A strip-major spatial index over labelled rectangles.
///
/// Built once from a flat `(label, rect)` list; all queries are phrased
/// relative to the build [`Axis`] (*along* = the sweep direction,
/// *across* = the frozen perpendicular direction).
///
/// # Example
///
/// ```
/// use rsg_geom::{Axis, GeomIndex, Rect};
///
/// let items = vec![
///     ('a', Rect::from_coords(0, 0, 4, 10)),
///     ('a', Rect::from_coords(20, 0, 24, 10)),
///     ('a', Rect::from_coords(20, 40, 24, 50)),
///     ('b', Rect::from_coords(50, 0, 54, 10)),
/// ];
/// let index = GeomIndex::build(&items, Axis::X);
/// // Boxes of label 'a' within L∞ distance 18 of [22, 23] × [0, 10]:
/// let near: Vec<usize> = index.neighbors_within('a', (22, 23), (0, 10), 18).collect();
/// assert_eq!(near, vec![1, 0]); // descending low edge, both in range
/// assert!(index.neighbors_within('b', (22, 23), (0, 10), 18).next().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct GeomIndex<L> {
    axis: Axis,
    items: Vec<(L, Rect)>,
    /// Buckets sorted by label for binary search.
    buckets: Vec<Bucket<L>>,
}

impl<L: Copy + Ord> GeomIndex<L> {
    /// Builds the index from a flat item list along `axis`.
    ///
    /// Items keep their input positions: every query yields indices into
    /// the original slice (also available as [`GeomIndex::items`]).
    pub fn build(items: &[(L, Rect)], axis: Axis) -> GeomIndex<L> {
        GeomIndex::build_from_vec(items.to_vec(), axis)
    }

    /// [`GeomIndex::build`] taking ownership — spares the copy when the
    /// caller's vector would be dropped anyway (as in flattening).
    pub fn build_from_vec(items: Vec<(L, Rect)>, axis: Axis) -> GeomIndex<L> {
        let mut index = GeomIndex {
            axis,
            items: Vec::new(),
            buckets: Vec::new(),
        };
        let _ = index.rebuild_from_vec(items, axis);
        index
    }

    /// Rebuilds this index in place from a fresh item list along `axis`,
    /// recycling the bucket columns (capacity is kept, contents are
    /// replaced). Returns the previous item vector — still holding its
    /// stale contents — so a sweep arena can clear and refill it for the
    /// next rebuild instead of reallocating.
    pub fn rebuild_from_vec(&mut self, items: Vec<(L, Rect)>, axis: Axis) -> Vec<(L, Rect)> {
        self.axis = axis;
        let old = std::mem::replace(&mut self.items, items);
        let items = &self.items;
        let mut shells = std::mem::take(&mut self.buckets);
        let mut labels: Vec<L> = items.iter().map(|&(l, _)| l).collect();
        labels.sort_unstable();
        labels.dedup();
        let mut buckets: Vec<Bucket<L>> = labels
            .into_iter()
            .map(|label| match shells.pop() {
                Some(mut shell) => {
                    shell.label = label;
                    shell.order.clear();
                    shell
                }
                None => Bucket::empty(label),
            })
            .collect();
        // `order` first collects each bucket's members.
        let mut stats = vec![AcrossStats::EMPTY; buckets.len()];
        for (k, &(label, r)) in items.iter().enumerate() {
            // The bucket list was deduped from these same items, so the
            // search succeeds; the Err arm keeps the loop total (and the
            // bucket list sorted) without a panic path.
            let b = match buckets.binary_search_by(|b| b.label.cmp(&label)) {
                Ok(b) => b,
                Err(i) => {
                    buckets.insert(i, Bucket::empty(label));
                    stats.insert(i, AcrossStats::EMPTY);
                    i
                }
            };
            buckets[b].order.push(k as u32);
            stats[b].add(r.lo_across(axis), r.hi_across(axis));
        }
        let (mut spans, mut keys) = (Vec::new(), Vec::new());
        for (bucket, &stats) in buckets.iter_mut().zip(&stats) {
            bucket.fill(items, axis, stats, &mut spans, &mut keys);
        }
        self.buckets = buckets;
        old
    }

    /// The sweep axis the index was built along.
    pub fn axis(&self) -> Axis {
        self.axis
    }

    /// The indexed items, in their original input order.
    pub fn items(&self) -> &[(L, Rect)] {
        &self.items
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when the index holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The distinct labels present, in ascending order.
    pub fn labels(&self) -> impl Iterator<Item = L> + '_ {
        self.buckets.iter().map(|b| b.label)
    }

    /// The largest low edge along the axis among boxes on `label`
    /// (`None` for absent labels) — the natural cap for coverage
    /// profiles queried against that label's boxes.
    pub fn max_lo(&self, label: L) -> Option<i64> {
        self.bucket(label).map(|b| b.max_lo)
    }

    fn bucket(&self, label: L) -> Option<&Bucket<L>> {
        self.buckets
            .binary_search_by(|b| b.label.cmp(&label))
            .ok()
            .map(|k| &self.buckets[k])
    }

    /// Item indices on `label` within L∞ distance `d` of the rectangle
    /// `along × across` (closed: a box exactly `d` away is included).
    ///
    /// Strip by strip in ascending across order; within a strip, in
    /// descending `(low edge, index)` order. Each item appears once, in
    /// the first strip it shares with the window.
    ///
    /// This is the DRC window query: per strip, a binary search finds
    /// the last box starting at or before `along.1 + d`, then the scan
    /// walks backwards and stops as soon as the strip's prefix maximum
    /// proves no earlier box can still reach `along.0 - d`.
    pub fn neighbors_within(
        &self,
        label: L,
        along: (i64, i64),
        across: (i64, i64),
        d: i64,
    ) -> impl Iterator<Item = usize> + '_ {
        let max_lo = along.1.saturating_add(d);
        let min_hi = along.0.saturating_sub(d);
        // The closed window [across.0 - d, across.1 + d] as an open one.
        let c0 = across.0.saturating_sub(d).saturating_sub(1);
        let c1 = across.1.saturating_add(d).saturating_add(1);
        self.bucket(label).into_iter().flat_map(move |b| {
            b.strips_in(c0, c1).flat_map(move |(range, min_across_lo)| {
                let end = range.start + b.lo[range.clone()].partition_point(|&lo| lo <= max_lo);
                (range.start..end)
                    .rev()
                    .take_while(move |&p| b.prefix_max_hi[p] >= min_hi)
                    .filter(move |&p| {
                        b.hi[p] >= min_hi
                            && b.across_lo[p] < c1
                            && b.across_hi[p] > c0
                            && b.across_lo[p] >= min_across_lo
                    })
                    .map(move |p| b.order[p] as usize)
            })
        })
    }

    /// Item indices on `label` whose low edge along the axis lies in
    /// `[from, until]` and whose across span strictly overlaps `across`
    /// widened by `slack` on both sides.
    ///
    /// Strip by strip in ascending across order; within a strip, in
    /// ascending `(low edge, index)` order. Each item appears once, in
    /// the first strip it shares with the window.
    ///
    /// This is the constraint generator's candidate walk: for a low box
    /// ending at `from`, every spacing partner on `label` lies in this
    /// sequence, so the generator touches only the strips its across
    /// range overlaps instead of filtering the whole box soup per pair.
    pub fn ordered_after(
        &self,
        label: L,
        from: i64,
        until: i64,
        across: (i64, i64),
        slack: i64,
    ) -> impl Iterator<Item = usize> + '_ {
        let (c0, c1) = (
            across.0.saturating_sub(slack),
            across.1.saturating_add(slack),
        );
        self.bucket(label).into_iter().flat_map(move |b| {
            b.strips_in(c0, c1).flat_map(move |(range, min_across_lo)| {
                let start = range.start + b.lo[range.clone()].partition_point(|&lo| lo < from);
                (start..range.end)
                    .take_while(move |&p| b.lo[p] <= until)
                    .filter(move |&p| {
                        b.across_lo[p] < c1
                            && b.across_hi[p] > c0
                            && b.across_lo[p] >= min_across_lo
                    })
                    .map(move |p| b.order[p] as usize)
            })
        })
    }

    /// `true` when the region `along × across` is completely covered by
    /// the union of boxes on the given labels, counting only
    /// positive-area contributions. Empty regions are trivially covered.
    ///
    /// This is the hidden-edge condition of paper Fig 6.4 phrased as a
    /// query: the constraint generator asks it for the gap between two
    /// facing edges.
    pub fn interval_coverage(&self, labels: &[L], along: (i64, i64), across: (i64, i64)) -> bool {
        if along.0 >= along.1 || across.0 >= across.1 {
            return true;
        }
        self.coverage_profile(labels, along.0, along.1, across)
            .min_reach(across)
            >= along.1
    }

    /// Builds the coverage reach profile for material on `labels`
    /// starting at along-coordinate `start`, capped at `until`, over the
    /// across-axis window `across`.
    ///
    /// The profile answers, for every across position `y` in the window,
    /// how far contiguous material coverage extends from `start` — the
    /// building block that lets a visibility scan answer *many* gap
    /// queries sharing one left edge from a single O(window) pass
    /// instead of rescanning all boxes per candidate pair.
    pub fn coverage_profile(
        &self,
        labels: &[L],
        start: i64,
        until: i64,
        across: (i64, i64),
    ) -> CoverageProfile {
        // Candidates: boxes on the labels intersecting the along window
        // [start, until] with positive across overlap of the window.
        // The scan reads only the strips the window overlaps.
        let mut cand: Vec<BoxSpan> = Vec::new();
        let mut seen_labels: Vec<L> = Vec::new();
        for &label in labels {
            if seen_labels.contains(&label) {
                continue; // identical labels would double-count a bucket
            }
            seen_labels.push(label);
            let Some(b) = self.bucket(label) else {
                continue;
            };
            for (range, min_across_lo) in b.strips_in(across.0, across.1) {
                let mut pos = range.start + b.lo[range.clone()].partition_point(|&lo| lo <= until);
                while pos > range.start {
                    pos -= 1;
                    if b.prefix_max_hi[pos] < start {
                        break; // nothing earlier can reach the window
                    }
                    if b.hi[pos] > start
                        && b.across_lo[pos] < across.1
                        && b.across_hi[pos] > across.0
                        && b.across_lo[pos] >= min_across_lo
                    {
                        cand.push(BoxSpan {
                            lo: b.lo[pos],
                            hi: b.hi[pos],
                            across_lo: b.across_lo[pos],
                            across_hi: b.across_hi[pos],
                        });
                    }
                }
            }
        }
        CoverageProfile::build(start, until, across, &cand)
    }
}

/// A box reduced to its four axis-relative edges — what coverage
/// profiling needs, already resolved against the index's sweep axis.
#[derive(Debug, Clone, Copy)]
struct BoxSpan {
    lo: i64,
    hi: i64,
    across_lo: i64,
    across_hi: i64,
}

/// Piecewise-constant coverage reach over an across-axis window: for
/// each elementary across strip, the furthest along-coordinate `f` such
/// that `[start, f]` is contiguously covered by candidate material at
/// every across position of the strip.
///
/// Produced by [`GeomIndex::coverage_profile`]; queried with
/// [`CoverageProfile::min_reach`].
#[derive(Debug, Clone)]
pub struct CoverageProfile {
    start: i64,
    /// Across-axis strip boundaries spanning the build window
    /// (`cuts.len() == reach.len() + 1`).
    cuts: Vec<i64>,
    /// Coverage reach on the open strip `(cuts[k], cuts[k+1])`.
    reach: Vec<i64>,
}

impl CoverageProfile {
    fn build(start: i64, until: i64, window: (i64, i64), cand: &[BoxSpan]) -> Self {
        let mut cuts: Vec<i64> = cand
            .iter()
            .flat_map(|r| [r.across_lo, r.across_hi])
            .filter(|&c| c > window.0 && c < window.1)
            .collect();
        cuts.push(window.0);
        cuts.push(window.1);
        cuts.sort_unstable();
        cuts.dedup();
        let mut reach = Vec::with_capacity(cuts.len() - 1);
        let mut ivs: Vec<(i64, i64)> = Vec::new();
        for w in cuts.windows(2) {
            let (s0, s1) = (w[0], w[1]);
            // Along intervals of boxes spanning this whole strip, merged
            // contiguously from `start` (capped at `until`: material past
            // the cap cannot change any answer at or below it).
            ivs.clear();
            ivs.extend(
                cand.iter()
                    .filter(|r| r.across_lo <= s0 && r.across_hi >= s1)
                    .map(|r| (r.lo, r.hi)),
            );
            ivs.sort_unstable();
            let mut f = start;
            for &(lo, hi) in ivs.iter() {
                if lo > f {
                    break; // gap: coverage cannot continue
                }
                f = f.max(hi);
                if f >= until {
                    f = until;
                    break;
                }
            }
            reach.push(f);
        }
        CoverageProfile { start, cuts, reach }
    }

    /// The along-coordinate coverage starts from.
    pub fn start(&self) -> i64 {
        self.start
    }

    /// Minimum coverage reach over all strips with positive overlap of
    /// the open across interval `(across.0, across.1)`.
    ///
    /// Returns `i64::MAX` for empty query intervals (no strip to fail).
    pub fn min_reach(&self, across: (i64, i64)) -> i64 {
        if across.0 >= across.1 {
            return i64::MAX;
        }
        let mut min = i64::MAX;
        for (k, w) in self.cuts.windows(2).enumerate() {
            if w[0] >= across.1 {
                break;
            }
            if w[1] > across.0 {
                min = min.min(self.reach[k]);
            }
        }
        // Across positions outside the build window have no material.
        if across.0 < self.cuts[0] || across.1 > self.cuts[self.cuts.len() - 1] {
            min = min.min(self.start);
        }
        min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items() -> Vec<(char, Rect)> {
        vec![
            ('p', Rect::from_coords(0, 0, 4, 10)),
            ('p', Rect::from_coords(4, 0, 20, 10)),
            ('p', Rect::from_coords(20, 0, 24, 10)),
            ('m', Rect::from_coords(6, 20, 10, 40)),
        ]
    }

    #[test]
    fn build_and_basic_queries() {
        let idx = GeomIndex::build(&items(), Axis::X);
        assert_eq!(idx.len(), 4);
        assert!(!idx.is_empty());
        assert_eq!(idx.axis(), Axis::X);
        assert_eq!(idx.labels().collect::<Vec<_>>(), vec!['m', 'p']);
        assert_eq!(idx.items()[3].0, 'm');
    }

    #[test]
    fn neighbors_window_and_early_exit() {
        let idx = GeomIndex::build(&items(), Axis::X);
        // Window [20, 24] at d = 0 touches boxes 1 and 2 (closed).
        let mut near: Vec<usize> = idx.neighbors_within('p', (20, 24), (0, 10), 0).collect();
        near.sort_unstable();
        assert_eq!(near, vec![1, 2]);
        // d = 16 also reaches box 0 (hi = 4 ≥ 20 − 16).
        let mut near: Vec<usize> = idx.neighbors_within('p', (20, 24), (0, 10), 16).collect();
        near.sort_unstable();
        assert_eq!(near, vec![0, 1, 2]);
        // Unknown label: empty.
        assert!(idx
            .neighbors_within('z', (0, 100), (0, 100), 50)
            .next()
            .is_none());
        // Far window: empty.
        assert!(idx
            .neighbors_within('p', (200, 210), (0, 10), 3)
            .next()
            .is_none());
        // The across window is widened by d too: 'm' sits 10 above y = 10.
        assert!(idx
            .neighbors_within('m', (6, 10), (0, 10), 9)
            .next()
            .is_none());
        let near: Vec<usize> = idx.neighbors_within('m', (6, 10), (0, 10), 10).collect();
        assert_eq!(near, vec![3]);
    }

    #[test]
    fn neighbors_skip_short_boxes_but_keep_scanning() {
        // A long box starts before a short one; the short one misses the
        // window but the long one (earlier lo, later hi) must be found.
        let items = vec![
            ('p', Rect::from_coords(0, 0, 100, 4)),
            ('p', Rect::from_coords(10, 0, 12, 4)),
        ];
        let idx = GeomIndex::build(&items, Axis::X);
        let near: Vec<usize> = idx.neighbors_within('p', (90, 95), (0, 4), 0).collect();
        assert_eq!(near, vec![0]);
    }

    #[test]
    fn coverage_full_and_gapped() {
        let idx = GeomIndex::build(&items(), Axis::X);
        // The three 'p' boxes tile [0, 24] over y ∈ [0, 10].
        assert!(idx.interval_coverage(&['p'], (4, 20), (0, 10)));
        assert!(idx.interval_coverage(&['p'], (0, 24), (2, 8)));
        // Beyond the tiling: uncovered.
        assert!(!idx.interval_coverage(&['p'], (4, 25), (0, 10)));
        // Across range outside the material: uncovered.
        assert!(!idx.interval_coverage(&['p'], (4, 20), (0, 11)));
        // 'm' material is elsewhere entirely.
        assert!(!idx.interval_coverage(&['m'], (4, 20), (0, 10)));
        // Degenerate regions are trivially covered.
        assert!(idx.interval_coverage(&['p'], (4, 4), (0, 10)));
        assert!(idx.interval_coverage(&['p'], (4, 20), (10, 10)));
    }

    #[test]
    fn coverage_requires_contiguity_from_start() {
        // Material exists further right but a gap at the start breaks
        // contiguous coverage.
        let items = vec![
            ('p', Rect::from_coords(10, 0, 20, 10)), // starts past 4
        ];
        let idx = GeomIndex::build(&items, Axis::X);
        assert!(!idx.interval_coverage(&['p'], (4, 20), (0, 10)));
    }

    #[test]
    fn coverage_combines_labels_and_partial_strips() {
        // Two layers each cover half the across range of the gap.
        let items = vec![
            ('a', Rect::from_coords(10, 0, 20, 5)),
            ('b', Rect::from_coords(10, 5, 20, 10)),
        ];
        let idx = GeomIndex::build(&items, Axis::X);
        assert!(idx.interval_coverage(&['a', 'b'], (10, 20), (0, 10)));
        assert!(!idx.interval_coverage(&['a'], (10, 20), (0, 10)));
        // Duplicate labels do not double-count.
        assert!(idx.interval_coverage(&['a', 'a', 'b'], (10, 20), (0, 10)));
    }

    #[test]
    fn profile_reach_and_min() {
        let idx = GeomIndex::build(&items(), Axis::X);
        let p = idx.coverage_profile(&['p'], 4, 24, (0, 10));
        assert_eq!(p.start(), 4);
        assert_eq!(p.min_reach((0, 10)), 24);
        // Querying outside the build window sees no material.
        assert_eq!(p.min_reach((0, 12)), 4);
        // Empty query interval: vacuous.
        assert_eq!(p.min_reach((5, 5)), i64::MAX);
    }

    #[test]
    fn ordered_after_walks_candidates_in_lo_order() {
        let idx = GeomIndex::build(&items(), Axis::X);
        // Partners of a box ending at x = 4 over y ∈ (0, 10).
        let after: Vec<usize> = idx.ordered_after('p', 4, i64::MAX, (0, 10), 0).collect();
        assert_eq!(after, vec![1, 2]);
        // Strict across overlap: the 'm' box sits at y ∈ [20, 40].
        assert!(idx
            .ordered_after('m', 0, i64::MAX, (0, 10), 0)
            .next()
            .is_none());
        // …but a slack window can reach it.
        let near: Vec<usize> = idx.ordered_after('m', 0, i64::MAX, (0, 10), 12).collect();
        assert_eq!(near, vec![3]);
        // Unknown label: empty.
        assert!(idx
            .ordered_after('z', 0, i64::MAX, (0, 10), 0)
            .next()
            .is_none());
    }

    #[test]
    fn rebuild_reuses_storage_and_matches_cold_build() {
        let mut idx = GeomIndex::build(&items(), Axis::X);
        let next = vec![
            ('q', Rect::from_coords(0, 0, 5, 5)),
            ('p', Rect::from_coords(10, 0, 15, 5)),
        ];
        let mut old = idx.rebuild_from_vec(next.clone(), Axis::Y);
        assert_eq!(old.len(), 4, "previous items returned for recycling");
        old.clear();
        let cold = GeomIndex::build(&next, Axis::Y);
        assert_eq!(idx.axis(), Axis::Y);
        assert_eq!(idx.items(), cold.items());
        assert_eq!(
            idx.labels().collect::<Vec<_>>(),
            cold.labels().collect::<Vec<_>>()
        );
        for label in ['p', 'q'] {
            let a: Vec<usize> = idx.ordered_after(label, 0, i64::MAX, (0, 5), 0).collect();
            let b: Vec<usize> = cold.ordered_after(label, 0, i64::MAX, (0, 5), 0).collect();
            assert_eq!(a, b, "{label}");
        }
    }

    #[test]
    fn y_axis_index() {
        let items = vec![
            ('p', Rect::from_coords(0, 0, 10, 4)),
            ('p', Rect::from_coords(0, 4, 10, 20)),
        ];
        let idx = GeomIndex::build(&items, Axis::Y);
        let near: Vec<usize> = idx.neighbors_within('p', (0, 4), (0, 10), 0).collect();
        assert_eq!(near.len(), 2);
        assert!(idx.interval_coverage(&['p'], (0, 20), (2, 8)));
        assert!(!idx.interval_coverage(&['p'], (0, 21), (2, 8)));
    }

    /// Strip entries over all buckets.
    fn entries<L>(idx: &GeomIndex<L>) -> usize {
        idx.buckets.iter().map(|b| b.order.len()).sum()
    }

    #[test]
    fn skewed_extents_double_the_strip_height_to_stay_within_2n() {
        // Mean extent 10, but 99 boxes of extent 2 each straddle a strip
        // edge and one box is tall: the first height would need 2.8n
        // entries, so the build doubles it.
        let mut items: Vec<(char, Rect)> = (0..99)
            .map(|k| ('p', Rect::from_coords(0, 10 * k + 9, 4, 10 * k + 11)))
            .collect();
        items.push(('p', Rect::from_coords(0, 0, 4, 802)));
        let idx = GeomIndex::build(&items, Axis::X);
        assert!(entries(&idx) <= 2 * items.len(), "{}", entries(&idx));
        assert!(idx.bucket('p').is_some_and(|b| b.height > 10));
        let near: Vec<usize> = idx.neighbors_within('p', (0, 4), (500, 500), 0).collect();
        assert_eq!(near, vec![99, 49]);
    }

    mod differential {
        //! Every query against a brute-force filter over `items()`,
        //! including the documented order.

        use super::super::*;
        use super::entries;
        use proptest::prelude::*;

        const BUDGET: i64 = crate::MAX_COORD;

        /// Raw draws, shaped per scenario by [`shape`].
        type Raw = (u8, i64, i64, i64, i64);

        /// Scenario 0: dense small boxes (zero extents included);
        /// 1: plus one tall box per label spanning every strip; 2: every
        /// box in one strip; 3: sparse coordinates at the ±2³⁰ budget.
        fn shape(scenario: u8, raw: &[Raw]) -> Vec<(u8, Rect)> {
            let scale = |v: i64| if scenario == 3 { v << 24 } else { v };
            let mut items: Vec<(u8, Rect)> = raw
                .iter()
                .map(|&(label, x, y, w, h)| {
                    let (x, y) = (scale(x), scale(y));
                    let (w, h) = (scale(w).min(BUDGET - x), scale(h).min(BUDGET - y));
                    let r = if scenario == 2 {
                        Rect::from_coords(x, 5, x + w, 15)
                    } else {
                        Rect::from_coords(x, y, x + w, y + h)
                    };
                    (label, r)
                })
                .collect();
            if scenario == 1 {
                for label in 0..3 {
                    let r = Rect::from_coords(-3, -80, 3, 80);
                    items.push((label, r));
                }
            }
            if scenario == 3 {
                items.push((0, Rect::from_coords(-BUDGET, -BUDGET, BUDGET, -BUDGET)));
                items.push((1, Rect::from_coords(BUDGET, -BUDGET, BUDGET, BUDGET)));
            }
            items
        }

        /// The strip a query starting at across `c0` reports box `k` from.
        fn report_strip(idx: &GeomIndex<u8>, label: u8, c0: i64, k: usize) -> usize {
            let b = idx.bucket(label).expect("bucket of a listed item");
            let r = idx.items()[k].1;
            b.strip_of(c0).max(b.strip_of(r.lo_across(idx.axis())))
        }

        fn check(idx: &GeomIndex<u8>, queries: &[(u8, i64, i64, i64, i64, i64)], scale: i64) {
            let axis = idx.axis();
            let items = idx.items();
            assert!(entries(idx) >= items.len());
            assert!(entries(idx) <= 2 * items.len(), "{} > 2n", entries(idx));
            for label in 0..4u8 {
                let brute = items
                    .iter()
                    .filter(|(l, _)| *l == label)
                    .map(|(_, r)| r.lo_along(axis))
                    .max();
                assert_eq!(idx.max_lo(label), brute);
            }
            for &(label, a, len, c, width, d) in queries {
                let along = (a * scale, (a + len) * scale);
                let across = (c * scale, (c + width) * scale);
                let d = d * scale;
                let on = |k: &usize| items[*k].0 == label;
                let span = |k: usize| {
                    let r = items[k].1;
                    (
                        r.lo_along(axis),
                        r.hi_along(axis),
                        r.lo_across(axis),
                        r.hi_across(axis),
                    )
                };

                // neighbors_within: closed L∞ distance d.
                let mut want: Vec<usize> = (0..items.len())
                    .filter(on)
                    .filter(|&k| {
                        let (lo, hi, alo, ahi) = span(k);
                        lo <= along.1 + d
                            && hi >= along.0 - d
                            && alo <= across.1 + d
                            && ahi >= across.0 - d
                    })
                    .collect();
                let c0 = across.0 - d - 1;
                want.sort_by_key(|&k| {
                    let s = report_strip(idx, label, c0, k);
                    (s, std::cmp::Reverse((span(k).0, k)))
                });
                let got: Vec<usize> = idx.neighbors_within(label, along, across, d).collect();
                assert_eq!(
                    got, want,
                    "neighbors_within {label} {along:?} {across:?} {d}"
                );

                // ordered_after: lo in [from, until], strict overlap of
                // the across window widened by the slack.
                let (from, until, slack) = (along.0, along.1, d);
                let mut want: Vec<usize> = (0..items.len())
                    .filter(on)
                    .filter(|&k| {
                        let (lo, _, alo, ahi) = span(k);
                        (from..=until).contains(&lo)
                            && alo < across.1 + slack
                            && ahi > across.0 - slack
                    })
                    .collect();
                let c0 = across.0 - slack;
                want.sort_by_key(|&k| (report_strip(idx, label, c0, k), span(k).0, k));
                let got: Vec<usize> = idx
                    .ordered_after(label, from, until, across, slack)
                    .collect();
                assert_eq!(
                    got, want,
                    "ordered_after {label} {along:?} {across:?} {slack}"
                );

                // coverage_profile: the profile of the brute-force
                // candidate set, and interval_coverage on top of it.
                let labels = [label, (label + 1) % 4, label];
                let (start, cap) = along;
                let cand: Vec<BoxSpan> = (0..items.len())
                    .filter(|&k| labels.contains(&items[k].0))
                    .map(span)
                    .filter(|&(lo, hi, alo, ahi)| {
                        lo <= cap && hi > start && alo < across.1 && ahi > across.0
                    })
                    .map(|(lo, hi, across_lo, across_hi)| BoxSpan {
                        lo,
                        hi,
                        across_lo,
                        across_hi,
                    })
                    .collect();
                let want = CoverageProfile::build(start, cap, across, &cand);
                let got = idx.coverage_profile(&labels, start, cap, across);
                assert_eq!((got.cuts, got.reach), (want.cuts, want.reach));
                assert_eq!(
                    idx.interval_coverage(&labels, along, across),
                    covered(items, &labels, along, across, axis),
                    "interval_coverage {labels:?} {along:?} {across:?}"
                );
            }
        }

        /// Is `along × across` covered by the union of positive-area
        /// boxes on `labels`? Checked cell by cell of the grid all box
        /// edges cut the region into.
        fn covered(
            items: &[(u8, Rect)],
            labels: &[u8],
            along: (i64, i64),
            across: (i64, i64),
            axis: Axis,
        ) -> bool {
            if along.0 >= along.1 || across.0 >= across.1 {
                return true;
            }
            let boxes: Vec<Rect> = items
                .iter()
                .filter(|(l, r)| labels.contains(l) && r.area() > 0)
                .map(|&(_, r)| r)
                .collect();
            let cuts = |lo: i64, hi: i64, edges: &dyn Fn(&Rect) -> [i64; 2]| {
                let mut c: Vec<i64> = boxes
                    .iter()
                    .flat_map(edges)
                    .filter(|&v| v > lo && v < hi)
                    .chain([lo, hi])
                    .collect();
                c.sort_unstable();
                c.dedup();
                c
            };
            let xs = cuts(along.0, along.1, &|r| [r.lo_along(axis), r.hi_along(axis)]);
            let ys = cuts(across.0, across.1, &|r| {
                [r.lo_across(axis), r.hi_across(axis)]
            });
            xs.windows(2).all(|x| {
                ys.windows(2).all(|y| {
                    boxes.iter().any(|r| {
                        r.lo_along(axis) <= x[0]
                            && r.hi_along(axis) >= x[1]
                            && r.lo_across(axis) <= y[0]
                            && r.hi_across(axis) >= y[1]
                    })
                })
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn index_queries_match_brute_force(
                scenario in 0u8..4,
                raw in proptest::collection::vec((0u8..3, -60i64..60, -60i64..60, 0i64..16, 0i64..16), 1..60),
                queries in proptest::collection::vec((0u8..4, -70i64..70, -4i64..30, -70i64..70, -4i64..30, 0i64..12), 1..12),
            ) {
                let items = shape(scenario, &raw);
                let scale = if scenario == 3 { 1 << 24 } else { 1 };
                let mut idx = GeomIndex::build(&items, Axis::X);
                check(&idx, &queries, scale);
                // A rebuild on recycled storage along the other axis
                // answers like a cold build.
                let _ = idx.rebuild_from_vec(items.clone(), Axis::Y);
                check(&idx, &queries, scale);
            }
        }
    }
}
