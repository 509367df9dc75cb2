//! A flat design-rule checker.
//!
//! The RSG itself never checks rules — "each cell can be made design rule
//! correct" by construction (paper §2.3) — but the compaction chapter
//! needs an independent referee: compacted layouts must re-check clean.
//! This checker verifies minimum widths and pairwise spacings on a flat
//! box list, with the same connected-material exemption the constraint
//! generator uses (touching same-layer boxes are one electrical net).
//!
//! [`check`] runs as a sweep over a [`GeomIndex`]: each box only visits
//! neighbours within its rule distance on both axes — the index walks
//! only the across strips and the along window the rule reaches —
//! costing O(n log n + k) where k is the number of near pairs, instead
//! of the all-pairs double loop, which survives as [`check_pairwise`]
//! (the reference the equivalence proptests and the `drc` bench compare
//! against). Both produce the identical violation list, in the
//! identical order.

use crate::{DesignRules, FlatLayout, Layer};
use rsg_geom::par::{par_ranges, Parallelism};
use rsg_geom::{GeomIndex, Rect};
use std::fmt;

/// One design-rule violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// A box is narrower than the layer's minimum width (either axis).
    Width {
        /// Index of the box in the checked list.
        index: usize,
        /// The offending layer.
        layer: Layer,
        /// Measured width (the smaller dimension).
        actual: i64,
        /// Required minimum.
        required: i64,
    },
    /// Two boxes of interacting layers are closer than the minimum
    /// spacing (and are not connected material).
    Spacing {
        /// Index of the first box.
        a: usize,
        /// Index of the second box.
        b: usize,
        /// Measured separation (0 for overlapping different layers).
        actual: i64,
        /// Required minimum.
        required: i64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Width {
                index,
                layer,
                actual,
                required,
            } => {
                write!(f, "box #{index} on {layer}: width {actual} < {required}")
            }
            Violation::Spacing {
                a,
                b,
                actual,
                required,
            } => {
                write!(f, "boxes #{a}/#{b}: spacing {actual} < {required}")
            }
        }
    }
}

/// Checks a flat box list against the rules; returns all violations.
///
/// Spacing is measured as the L∞ gap between rectangles; boxes of the
/// same layer that touch or overlap are connected and exempt from their
/// layer's self-spacing rule. Zero-area boxes are ignored.
///
/// Builds a [`GeomIndex`] and sweeps it; when a prebuilt index already
/// exists (a [`FlatLayout`]), use [`check_flat`] to skip the build.
pub fn check(boxes: &[(Layer, Rect)], rules: &DesignRules) -> Vec<Violation> {
    sweep(
        &GeomIndex::build(boxes, rsg_geom::Axis::X),
        rules,
        Parallelism::Serial,
    )
}

/// [`check`] against a [`FlatLayout`], reusing its prebuilt index.
pub fn check_flat(flat: &FlatLayout, rules: &DesignRules) -> Vec<Violation> {
    sweep(flat.index(), rules, Parallelism::Serial)
}

/// [`check_flat`] with the spacing sweep fanned across worker threads.
/// The violation list is **bit-identical** to [`check_flat`] at any
/// thread count.
pub fn check_flat_par(flat: &FlatLayout, rules: &DesignRules, par: Parallelism) -> Vec<Violation> {
    sweep(flat.index(), rules, par)
}

/// The sweep checker proper: every box queries the index for neighbours
/// on each interacting layer within L∞ distance of the rule; any pair
/// violating does so within that window, because the spacing gap is the
/// L∞ gap, so the query filter is exact.
///
/// Widths are a single cheap pass and stay serial; the spacing scan —
/// the dominant cost — runs over contiguous ranges of box indices
/// through [`par_ranges`], each range producing its violation block
/// against the shared read-only index. Blocks join in range order, so
/// the output order (by `a`, then `b`) matches the serial sweep and the
/// pairwise referee exactly.
fn sweep(index: &GeomIndex<Layer>, rules: &DesignRules, par: Parallelism) -> Vec<Violation> {
    let boxes = index.items();
    let mut out = Vec::new();
    for (i, &(layer, rect)) in boxes.iter().enumerate() {
        if rect.area() == 0 {
            continue;
        }
        let min_w = rules.min_width(layer);
        let actual = rect.width().min(rect.height());
        if min_w > 0 && actual < min_w {
            out.push(Violation::Width {
                index: i,
                layer,
                actual,
                required: min_w,
            });
        }
    }
    let labels: Vec<Layer> = index.labels().collect();
    par_ranges(boxes.len(), par.threads(), &mut out, |range, out| {
        spacing_sweep(index, rules, &labels, range, out);
    });
    out
}

/// The spacing half of the sweep for boxes `i` in `range`, appended to
/// `out` in the serial order (by `i`, then partner index).
fn spacing_sweep(
    index: &GeomIndex<Layer>,
    rules: &DesignRules,
    labels: &[Layer],
    range: std::ops::Range<usize>,
    out: &mut Vec<Violation>,
) {
    let boxes = index.items();
    let axis = index.axis();
    let mut near: Vec<Violation> = Vec::new();
    for i in range {
        let (la, ra) = boxes[i];
        if ra.area() == 0 {
            continue;
        }
        near.clear();
        for &lb in labels {
            let Some(required) = rules.min_spacing(la, lb) else {
                continue;
            };
            let along = (ra.lo_along(axis), ra.hi_along(axis));
            let across = (ra.lo_across(axis), ra.hi_across(axis));
            for j in index.neighbors_within(lb, along, across, required) {
                if j <= i {
                    continue; // each unordered pair reported once, as (i, j<i ... j>i)
                }
                let rb = boxes[j].1;
                if rb.area() == 0 {
                    continue;
                }
                if la == lb && ra.intersect(rb).is_some() {
                    continue; // connected material
                }
                let gap = rect_gap(ra, rb);
                if gap < required {
                    near.push(Violation::Spacing {
                        a: i,
                        b: j,
                        actual: gap,
                        required,
                    });
                }
            }
        }
        // Window queries return neighbours layer by layer and strip by
        // strip; re-sort so the output order matches the pairwise
        // reference exactly. Only spacing violations reach `near`.
        near.sort_by_key(|v| match v {
            Violation::Spacing { b, .. } => *b,
            Violation::Width { .. } => usize::MAX, // widths never reach `near`
        });
        out.append(&mut near);
    }
}

/// The all-pairs reference checker the sweep replaced. Same output as
/// [`check`], quadratic cost — kept as the independent referee for the
/// equivalence proptests and the `drc/{pairwise,sweep}` benchmark pair.
pub fn check_pairwise(boxes: &[(Layer, Rect)], rules: &DesignRules) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, &(layer, rect)) in boxes.iter().enumerate() {
        if rect.area() == 0 {
            continue;
        }
        let min_w = rules.min_width(layer);
        let actual = rect.width().min(rect.height());
        if min_w > 0 && actual < min_w {
            out.push(Violation::Width {
                index: i,
                layer,
                actual,
                required: min_w,
            });
        }
    }
    for (i, &(la, ra)) in boxes.iter().enumerate() {
        if ra.area() == 0 {
            continue;
        }
        for (j, &(lb, rb)) in boxes.iter().enumerate().skip(i + 1) {
            if rb.area() == 0 {
                continue;
            }
            let Some(required) = rules.min_spacing(la, lb) else {
                continue;
            };
            if la == lb && ra.intersect(rb).is_some() {
                continue; // connected material
            }
            let gap = rect_gap(ra, rb);
            if gap < required {
                out.push(Violation::Spacing {
                    a: i,
                    b: j,
                    actual: gap,
                    required,
                });
            }
        }
    }
    out
}

/// L∞ separation between two rectangles (0 if they touch or overlap).
fn rect_gap(a: Rect, b: Rect) -> i64 {
    let dx = (b.lo().x - a.hi().x).max(a.lo().x - b.hi().x).max(0);
    let dy = (b.lo().y - a.hi().y).max(a.lo().y - b.hi().y).max(0);
    dx.max(dy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Technology;

    fn rules() -> DesignRules {
        Technology::mead_conway(2).rules.clone()
    }

    #[test]
    fn clean_layout_passes() {
        let boxes = vec![
            (Layer::Poly, Rect::from_coords(0, 0, 4, 20)),
            (Layer::Poly, Rect::from_coords(8, 0, 12, 20)), // 2λ = 4 away
            (Layer::Metal1, Rect::from_coords(0, 30, 20, 36)),
        ];
        assert!(check(&boxes, &rules()).is_empty());
    }

    #[test]
    fn width_violation() {
        let boxes = vec![(Layer::Metal1, Rect::from_coords(0, 0, 4, 40))]; // needs 6
        let v = check(&boxes, &rules());
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            Violation::Width {
                actual: 4,
                required: 6,
                ..
            }
        ));
        assert!(v[0].to_string().contains("width 4 < 6"));
    }

    #[test]
    fn spacing_violation_diagonal_and_lateral() {
        let boxes = vec![
            (Layer::Poly, Rect::from_coords(0, 0, 4, 20)),
            (Layer::Poly, Rect::from_coords(6, 0, 10, 20)), // gap 2 < 4
        ];
        let v = check(&boxes, &rules());
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            Violation::Spacing {
                actual: 2,
                required: 4,
                ..
            }
        ));
        // Diagonal: L∞ gap 3 < 4.
        let diag = vec![
            (Layer::Poly, Rect::from_coords(0, 0, 4, 4)),
            (Layer::Poly, Rect::from_coords(7, 7, 11, 11)),
        ];
        assert_eq!(check(&diag, &rules()).len(), 1);
    }

    #[test]
    fn connected_material_exempt() {
        let boxes = vec![
            (Layer::Diffusion, Rect::from_coords(0, 0, 10, 4)),
            (Layer::Diffusion, Rect::from_coords(10, 0, 20, 4)), // abuts
        ];
        assert!(check(&boxes, &rules()).is_empty());
    }

    #[test]
    fn cross_layer_overlap_violates() {
        // Poly over diffusion closer than 1λ — a gate is poly *crossing*
        // diffusion; mere proximity of unrelated shapes violates.
        let boxes = vec![
            (Layer::Poly, Rect::from_coords(0, 0, 4, 20)),
            (Layer::Diffusion, Rect::from_coords(5, 0, 20, 8)), // gap 1 < 2
        ];
        let v = check(&boxes, &rules());
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn zero_area_ignored() {
        let boxes = vec![
            (Layer::Poly, Rect::from_coords(0, 0, 0, 20)),
            (Layer::Poly, Rect::from_coords(1, 0, 5, 20)),
        ];
        assert!(check(&boxes, &rules()).is_empty());
    }
}
