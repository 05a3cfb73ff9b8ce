//! The Onion curve (Xu, Tirthapura et al., arXiv:1801.07399).
//!
//! The curve peels the `n × n` grid like an onion: it walks the
//! outermost square ring counter-clockwise (up the left edge, right
//! along the top, down the right edge, left along the bottom), then
//! recurses into the `(n-2) × (n-2)` interior. Every ring is one
//! contiguous index run, which gives near-optimal clustering for range
//! queries that touch the domain boundary — the regime where recursive
//! curves (Hilbert, Z-order) fragment worst.
//!
//! Unlike the quadtree curves, aligned `2^k × 2^k` blocks are *not*
//! contiguous in onion index space, so rectangle decomposition walks
//! rings instead of blocks: each ring intersecting the query rectangle
//! contributes up to four clipped edge intervals, sorted and merged by
//! the shared covering tail and budget-coalesced exactly like the
//! Hilbert covering.

use crate::curve::{Curve, CurveFamily};
use crate::grid::{cell_of_uniform, cell_rect_uniform, cell_span_uniform, validate_grid};
use crate::ranges::{finish_covering, RangeBudget};
use crate::CoveringScratch;
use sts_geo::{GeoPoint, GeoRect};

/// An onion curve laid over a uniform `2^order × 2^order` grid on a
/// lon/lat extent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OnionCurve {
    extent: GeoRect,
    order: u32,
}

impl OnionCurve {
    /// Onion curve over `extent` at `order` bits per axis.
    pub fn new(extent: GeoRect, order: u32) -> Self {
        validate_grid(&extent, order);
        OnionCurve { extent, order }
    }

    fn side(&self) -> u64 {
        1 << self.order
    }
}

/// Onion index of cell `(x, y)` on an `n × n` grid.
///
/// The cell's ring is `k = min(x, y, n-1-x, n-1-y)`; rings 0..k-1
/// contribute `n² - m²` indices (with `m = n - 2k` the ring's side),
/// and the position within ring k counts counter-clockwise from the
/// ring's bottom-left corner.
pub fn onion_xy2d(n: u64, x: u64, y: u64) -> u64 {
    debug_assert!(x < n && y < n);
    let k = x.min(y).min(n - 1 - x).min(n - 1 - y);
    let lo = k;
    let hi = n - 1 - k;
    let e = hi - lo; // ring side minus one
    let m = e + 1;
    let base = n * n - m * m;
    let (u, v) = (x - lo, y - lo);
    let pos = if u == 0 {
        v // left edge, upward
    } else if v == e {
        e + u // top edge, rightward
    } else if u == e {
        2 * e + (e - v) // right edge, downward
    } else {
        3 * e + (e - u) // bottom edge, leftward
    };
    base + pos
}

/// Inverse of [`onion_xy2d`].
pub fn onion_d2xy(n: u64, d: u64) -> (u64, u64) {
    debug_assert!(d < n * n);
    // `d` lies on the ring of side `m`: the smallest even m with
    // (m-2)² < n² - d ≤ m².
    let t = n * n - d;
    let mut c = isqrt(t);
    if c * c < t {
        c += 1;
    }
    let m = c + (c % 2);
    let k = (n - m) / 2;
    let lo = k;
    let hi = n - 1 - k;
    let e = hi - lo;
    let pos = d - (n * n - m * m);
    if pos <= e {
        (lo, lo + pos)
    } else if pos <= 2 * e {
        (lo + (pos - e), hi)
    } else if pos <= 3 * e {
        (hi, hi - (pos - 2 * e))
    } else {
        (hi - (pos - 3 * e), lo)
    }
}

/// Integer square root (floor), exact for any `u64` the grid can emit.
fn isqrt(t: u64) -> u64 {
    let mut s = (t as f64).sqrt() as u64;
    while s.checked_mul(s).is_none_or(|sq| sq > t) {
        s -= 1;
    }
    while (s + 1) * (s + 1) <= t {
        s += 1;
    }
    s
}

impl Curve for OnionCurve {
    fn family(&self) -> CurveFamily {
        CurveFamily::Onion
    }

    fn order(&self) -> u32 {
        self.order
    }

    fn extent(&self) -> &GeoRect {
        &self.extent
    }

    fn cell_of(&self, p: GeoPoint) -> (u64, u64) {
        cell_of_uniform(&self.extent, self.order, p)
    }

    fn index_of_cell(&self, x: u64, y: u64) -> u64 {
        onion_xy2d(self.side(), x, y)
    }

    fn cell_of_index(&self, d: u64) -> (u64, u64) {
        onion_d2xy(self.side(), d)
    }

    fn cell_rect(&self, x: u64, y: u64) -> GeoRect {
        cell_rect_uniform(&self.extent, self.order, x, y)
    }

    fn cell_span(&self, rect: &GeoRect) -> Option<(u64, u64, u64, u64)> {
        cell_span_uniform(&self.extent, self.order, rect)
    }

    /// Ring-walk decomposition: for every ring intersecting the query
    /// span, clip the four ring edges against the span and emit the
    /// surviving index intervals. Each ring is contiguous, so a span
    /// hugging the boundary collapses to very few ranges.
    fn decompose_cells_into(
        &self,
        (x0, x1, y0, y1): (u64, u64, u64, u64),
        budget: RangeBudget,
        scratch: &mut CoveringScratch,
        out: &mut Vec<(u64, u64)>,
    ) {
        let n = self.side();
        scratch.blocks.clear();
        // Ring k intersects the span iff the span is neither strictly
        // inside ring k's interior (k < kmin) nor strictly outside its
        // square (k > kmax).
        let kmin = x0.min(y0).min(n - 1 - x1).min(n - 1 - y1);
        let kmax = x1.min(y1).min(n - 1 - x0).min(n - 1 - y0).min(n / 2 - 1);
        for k in kmin..=kmax {
            let lo = k;
            let hi = n - 1 - k;
            let e = hi - lo;
            let m = e + 1;
            let base = n * n - m * m;
            // Left edge: x = lo, y ∈ [lo, hi], pos = y - lo.
            if (x0..=x1).contains(&lo) {
                let (ys, ye) = (lo.max(y0), hi.min(y1));
                if ys <= ye {
                    scratch.blocks.push((base + (ys - lo), base + (ye - lo)));
                }
            }
            // Top edge: y = hi, x ∈ [lo+1, hi], pos = e + (x - lo).
            if (y0..=y1).contains(&hi) {
                let (xs, xe) = ((lo + 1).max(x0), hi.min(x1));
                if xs <= xe {
                    scratch
                        .blocks
                        .push((base + e + (xs - lo), base + e + (xe - lo)));
                }
            }
            // Right edge: x = hi, y ∈ [lo, hi-1], pos = 2e + (hi - y).
            if (x0..=x1).contains(&hi) {
                let (ys, ye) = (lo.max(y0), (hi - 1).min(y1));
                if ys <= ye {
                    scratch
                        .blocks
                        .push((base + 2 * e + (hi - ye), base + 2 * e + (hi - ys)));
                }
            }
            // Bottom edge: y = lo, x ∈ [lo+1, hi-1], pos = 3e + (hi - x).
            if (y0..=y1).contains(&lo) && e >= 2 {
                let (xs, xe) = ((lo + 1).max(x0), (hi - 1).min(x1));
                if xs <= xe {
                    scratch
                        .blocks
                        .push((base + 3 * e + (hi - xe), base + 3 * e + (hi - xs)));
                }
            }
        }
        finish_covering(scratch, budget, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sts_geo::WORLD;

    #[test]
    fn bijective_on_small_grids() {
        for order in 1..=5u32 {
            let n = 1u64 << order;
            let mut seen = vec![false; (n * n) as usize];
            for x in 0..n {
                for y in 0..n {
                    let d = onion_xy2d(n, x, y);
                    assert!(d < n * n, "index {d} out of range");
                    assert!(!seen[d as usize], "index {d} hit twice");
                    seen[d as usize] = true;
                    assert_eq!(onion_d2xy(n, d), (x, y), "inverse broke at d={d}");
                }
            }
        }
    }

    #[test]
    fn walk_is_a_hamiltonian_path() {
        // Consecutive indices are 4-adjacent cells — including the hop
        // from each ring's last cell onto the next ring's first.
        let n = 32u64;
        for d in 0..(n * n - 1) {
            let (x0, y0) = onion_d2xy(n, d);
            let (x1, y1) = onion_d2xy(n, d + 1);
            let dist = x0.abs_diff(x1) + y0.abs_diff(y1);
            assert_eq!(dist, 1, "jump at d={d}: ({x0},{y0}) -> ({x1},{y1})");
        }
    }

    #[test]
    fn boundary_query_is_one_range() {
        // A full row along the bottom boundary lies in the outer ring's
        // bottom+corners: at most 3 ranges; the full outer ring is 1.
        let c = OnionCurve::new(WORLD, 6);
        let ranges = c.decompose_rect(&WORLD, RangeBudget::UNLIMITED);
        assert_eq!(ranges, vec![(0, 64 * 64 - 1)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_exact_cover(x0 in 0u64..32, w in 0u64..32, y0 in 0u64..32, hgt in 0u64..32) {
            let c = OnionCurve::new(WORLD, 5);
            let x1 = (x0 + w).min(31);
            let y1 = (y0 + hgt).min(31);
            let mut out = Vec::new();
            c.decompose_cells_into(
                (x0, x1, y0, y1),
                RangeBudget::UNLIMITED,
                &mut CoveringScratch::new(),
                &mut out,
            );
            let mut covered = 0u64;
            for &(lo, hi) in &out {
                for d in lo..=hi {
                    let (x, y) = c.cell_of_index(d);
                    prop_assert!(
                        (x0..=x1).contains(&x) && (y0..=y1).contains(&y),
                        "index {} -> ({},{}) outside query", d, x, y
                    );
                    covered += 1;
                }
            }
            prop_assert_eq!(covered, (x1 - x0 + 1) * (y1 - y0 + 1), "cover incomplete");
            for w in out.windows(2) {
                prop_assert!(w[0].1 + 1 < w[1].0, "unmerged neighbours {:?}", w);
            }
        }
    }
}
