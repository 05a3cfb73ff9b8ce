//! Clustering/locality metrics for space-filling curves.
//!
//! Moon, Jagadish, Faloutsos & Saltz (ref. \[14\] of the paper) analyse the Hilbert curve's
//! clustering: the expected number of contiguous curve segments
//! ("clusters") needed to cover a query region. These metrics quantify
//! the paper's curve choice empirically (the tests below, and the
//! `curve_explorer` example).

use crate::grid::CurveGrid;
use crate::ranges::RangeBudget;
use sts_geo::GeoRect;

/// Number of contiguous 1D segments ("clusters", Moon et al.'s metric)
/// the curve needs to cover `rect` exactly.
pub fn clusters_for_rect(grid: &CurveGrid, rect: &GeoRect) -> usize {
    grid.decompose_rect(rect, RangeBudget::UNLIMITED).len()
}

/// Average absolute 1D index difference between horizontally and
/// vertically adjacent cells, sampled pseudo-randomly (deterministic in
/// `seed`). Lower means better locality preservation.
pub fn mean_neighbour_gap(grid: &CurveGrid, samples: usize, seed: u64) -> f64 {
    let n = grid.cells_per_axis();
    if n < 2 || samples == 0 {
        return 0.0;
    }
    let mut state = seed | 1;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut total = 0f64;
    let mut count = 0usize;
    for _ in 0..samples {
        let x = next() % (n - 1);
        let y = next() % (n - 1);
        let d = grid.index_of_cell(x, y);
        let right = grid.index_of_cell(x + 1, y);
        let up = grid.index_of_cell(x, y + 1);
        total += d.abs_diff(right) as f64 + d.abs_diff(up) as f64;
        count += 2;
    }
    total / count as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CurveGrid, CurveKind};

    fn unit(kind: CurveKind) -> CurveGrid {
        CurveGrid::new(GeoRect::new(0.0, 0.0, 1.0, 1.0), 9, kind)
    }

    #[test]
    fn hilbert_clusters_less_than_zorder_on_average() {
        // Moon et al.'s result holds on random rectangles *on average*
        // (individual shapes — e.g. thin horizontal strips — can favour
        // Z-order's x-major layout).
        let h = unit(CurveKind::Hilbert);
        let z = unit(CurveKind::ZOrder);
        let mut state = 99u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut v = state;
            v = (v ^ (v >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            v ^ (v >> 31)
        };
        let (mut hc, mut zc) = (0usize, 0usize);
        for _ in 0..40 {
            let w = 0.02 + (next() % 100) as f64 / 1_000.0;
            let hgt = 0.02 + (next() % 100) as f64 / 1_000.0;
            let x = (next() % 800) as f64 / 1_000.0;
            let y = (next() % 800) as f64 / 1_000.0;
            let rect = GeoRect::new(x, y, x + w, y + hgt);
            hc += clusters_for_rect(&h, &rect);
            zc += clusters_for_rect(&z, &rect);
        }
        assert!(hc < zc, "hilbert {hc} vs zorder {zc}");
    }

    #[test]
    fn neighbour_gap_is_positive_and_finite() {
        let g = unit(CurveKind::Hilbert);
        let gap = mean_neighbour_gap(&g, 1_000, 3);
        assert!(gap > 0.0 && gap.is_finite());
    }

    #[test]
    fn clusters_count_square_query() {
        let g = unit(CurveKind::Hilbert);
        let quarter = GeoRect::new(0.0, 0.0, 0.4999, 0.4999);
        // An aligned quadrant is exactly one cluster.
        assert_eq!(clusters_for_rect(&g, &quarter), 1);
        let sliver = GeoRect::new(0.0, 0.5, 1.0, 0.505);
        assert!(clusters_for_rect(&g, &sliver) > 10);
    }

    #[test]
    fn deterministic_in_seed() {
        let g = unit(CurveKind::Hilbert);
        assert_eq!(
            mean_neighbour_gap(&g, 500, 42).to_bits(),
            mean_neighbour_gap(&g, 500, 42).to_bits()
        );
    }
}
