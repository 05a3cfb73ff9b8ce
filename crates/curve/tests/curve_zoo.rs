//! Per-curve property suite: every [`CurveKind`] must be a cell↔index
//! bijection whose rectangle decomposition covers exactly the query —
//! the contract the store's differential oracles build on.

use proptest::prelude::*;
use sts_curve::{CoveringScratch, CurveGrid, CurveKind, RangeBudget};
use sts_geo::{GeoPoint, GeoRect, WORLD};

/// A deterministic skewed point sample: a dense Athens cluster plus a
/// sparse world background.
fn sample_points() -> Vec<GeoPoint> {
    let mut pts = Vec::new();
    let mut s = 0x5137_2021u64;
    let mut next = || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    for i in 0..2000 {
        if i % 8 == 0 {
            pts.push(GeoPoint::new(next() * 360.0 - 180.0, next() * 180.0 - 90.0));
        } else {
            pts.push(GeoPoint::new(23.5 + next(), 37.5 + next()));
        }
    }
    pts
}

fn zoo(order: u32) -> Vec<CurveGrid> {
    CurveKind::ALL
        .iter()
        .map(|&kind| CurveGrid::new(WORLD, order, kind))
        .collect()
}

#[test]
fn index_cell_bijectivity_exhaustive_small_order() {
    for curve in zoo(4) {
        let n = curve.cells_per_axis();
        let mut seen = vec![false; (n * n) as usize];
        for x in 0..n {
            for y in 0..n {
                let d = curve.index_of_cell(x, y);
                assert!(
                    d < curve.total_cells(),
                    "{:?}: index out of range",
                    curve.kind()
                );
                assert!(!seen[d as usize], "{:?}: index {d} hit twice", curve.kind());
                seen[d as usize] = true;
                assert_eq!(
                    curve.cell_of_index(d),
                    (x, y),
                    "{:?}: inverse broke at ({x},{y})",
                    curve.kind()
                );
            }
        }
    }
}

#[test]
fn point_lookup_lands_in_cell_rect() {
    for curve in zoo(8) {
        for p in sample_points().iter().step_by(37) {
            let (x, y) = curve.cell_of(*p);
            assert!(
                curve.cell_rect(x, y).contains(*p),
                "{:?}: {p:?} outside its cell rect",
                curve.kind()
            );
        }
    }
}

/// The rectangle from the centre of cell `(x0, y0)` to the centre of
/// cell `(x1, y1)`: its cell span is exactly `[x0..=x1] × [y0..=y1]`.
fn span_rect(curve: &CurveGrid, (x0, x1, y0, y1): (u64, u64, u64, u64)) -> GeoRect {
    let (lo, hi) = (
        curve.cell_rect(x0, y0).center(),
        curve.cell_rect(x1, y1).center(),
    );
    GeoRect::new(lo.lon, lo.lat, hi.lon, hi.lat)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random cells round-trip through index space on both curves.
    #[test]
    fn prop_bijectivity_random_cells(x in 0u64..8192, y in 0u64..8192) {
        for curve in zoo(13) {
            let d = curve.index_of_cell(x, y);
            prop_assert!(d < curve.total_cells());
            prop_assert_eq!(curve.cell_of_index(d), (x, y), "curve {:?}", curve.kind());
        }
    }

    /// The unlimited-budget decomposition covers exactly the query
    /// span: every covered index maps into the span, the total count
    /// matches, and ranges are sorted with real gaps.
    #[test]
    fn prop_decomposition_is_exact(x0 in 0u64..64, w in 0u64..64, y0 in 0u64..64, h in 0u64..64) {
        let x1 = (x0 + w).min(63);
        let y1 = (y0 + h).min(63);
        for curve in zoo(6) {
            let mut out = Vec::new();
            curve.decompose_rect_into(
                &span_rect(&curve, (x0, x1, y0, y1)),
                RangeBudget::UNLIMITED,
                &mut CoveringScratch::new(),
                &mut out,
            );
            let mut covered = 0u64;
            for &(lo, hi) in &out {
                for d in lo..=hi {
                    let (x, y) = curve.cell_of_index(d);
                    prop_assert!(
                        (x0..=x1).contains(&x) && (y0..=y1).contains(&y),
                        "{:?}: index {} -> ({},{}) outside query",
                        curve.kind(), d, x, y
                    );
                    covered += 1;
                }
            }
            prop_assert_eq!(
                covered,
                (x1 - x0 + 1) * (y1 - y0 + 1),
                "{:?}: cover incomplete", curve.kind()
            );
            for w in out.windows(2) {
                prop_assert!(w[0].1 + 1 < w[1].0, "{:?}: unmerged {:?}", curve.kind(), w);
            }
        }
    }

    /// A binding budget only widens the covering (superset, never
    /// split), and respects the range cap — on both curves.
    #[test]
    fn prop_budget_is_unsplit_superset(
        x0 in 0u64..64, w in 0u64..64, y0 in 0u64..64, h in 0u64..64,
        budget in 1usize..16,
    ) {
        let x1 = (x0 + w).min(63);
        let y1 = (y0 + h).min(63);
        for curve in zoo(6) {
            let mut exact = Vec::new();
            let mut capped = Vec::new();
            let mut scratch = CoveringScratch::new();
            let rect = span_rect(&curve, (x0, x1, y0, y1));
            curve.decompose_rect_into(&rect, RangeBudget::UNLIMITED, &mut scratch, &mut exact);
            curve.decompose_rect_into(&rect, RangeBudget::new(budget), &mut scratch, &mut capped);
            prop_assert!(capped.len() <= budget);
            for &(lo, hi) in &exact {
                let n = capped.iter().filter(|&&(blo, bhi)| blo <= lo && hi <= bhi).count();
                prop_assert_eq!(n, 1, "{:?}: exact range ({},{}) split or lost", curve.kind(), lo, hi);
            }
        }
    }

    /// Geometry→index consistency: a random point's index always falls
    /// inside the decomposition of any rectangle containing the point.
    #[test]
    fn prop_point_in_rect_is_in_covering(
        lon in -170.0f64..170.0, lat in -80.0f64..80.0,
        dlon in 0.1f64..20.0, dlat in 0.1f64..20.0,
    ) {
        let p = GeoPoint::new(lon, lat);
        let rect = GeoRect::new(lon - dlon, lat - dlat, (lon + dlon).min(180.0), (lat + dlat).min(90.0));
        for curve in zoo(8) {
            let d = curve.index_of(p);
            let ranges = curve.decompose_rect(&rect, RangeBudget::default());
            prop_assert!(
                ranges.iter().any(|&(lo, hi)| (lo..=hi).contains(&d)),
                "{:?}: point index {} not covered by {:?}",
                curve.kind(), d, ranges
            );
        }
    }
}

/// FNV-1a over every `(lo, hi)` of the coverings of 1,000 seeded
/// rectangles, for one curve under one budget.
fn covering_hash(curve: &CurveGrid, budget: RangeBudget) -> u64 {
    let mut s = 0x00C0_FFEE_5EED_u64;
    let mut next = || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut scratch = CoveringScratch::new();
    let mut out = Vec::new();
    for i in 0..1000 {
        // City- to country-sized boxes, three in four inside a dense
        // cluster around Athens.
        let (lon, lat) = if i % 4 == 0 {
            (next() * 340.0 - 170.0, next() * 160.0 - 80.0)
        } else {
            (22.0 + next() * 3.0, 36.5 + next() * 3.0)
        };
        let (w, hgt) = (0.02 + next().powi(3) * 12.0, 0.02 + next().powi(3) * 8.0);
        let rect = GeoRect::new(lon, lat, (lon + w).min(180.0), (lat + hgt).min(90.0));
        out.clear();
        curve.decompose_rect_into(&rect, budget, &mut scratch, &mut out);
        mix(out.len() as u64);
        for &(lo, hi) in &out {
            mix(lo);
            mix(hi);
        }
    }
    h
}

/// Golden coverings, recorded from the PR-4 interval-treap pipeline
/// before it was replaced by sort + one merge pass: the two must agree
/// byte for byte, on both curves and under every budget regime
/// (bridge-everything, binding, default, unlimited).
#[test]
fn coverings_match_the_recorded_golden_hashes() {
    const GOLDEN: [[u64; 4]; 2] = [
        [
            0xc8def68b8d3bef14,
            0x439d89ae6d5e82f3,
            0x65f457c3565e7019,
            0x530fefd94a28efda,
        ],
        [
            0xc86b08511aa241f2,
            0x25d405b198be238f,
            0x926c93480bfcc96b,
            0x13f1a61b753b4e31,
        ],
    ];
    let budgets = [
        RangeBudget::new(1),
        RangeBudget::new(16),
        RangeBudget::new(64),
        RangeBudget::UNLIMITED,
    ];
    let got: Vec<Vec<u64>> = zoo(13)
        .iter()
        .map(|curve| budgets.iter().map(|b| covering_hash(curve, *b)).collect())
        .collect();
    assert_eq!(got, GOLDEN, "rows {:?}, got {got:#x?}", CurveKind::ALL);
}
