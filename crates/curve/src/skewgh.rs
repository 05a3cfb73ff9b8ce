//! Entropy-maximizing skew-adaptive GeoHash (after Arnold 2015).
//!
//! Classic GeoHash halves each axis at the midpoint, so under skewed
//! data most cells are empty while a few hold almost everything — the
//! index-entropy of the cell histogram is far below its `2·order`-bit
//! maximum. This variant fits the per-axis bucket boundaries to the
//! *quantiles of a data sample* (blended with the uniform grid for
//! robustness), equalizing expected cell occupancy and thereby pushing
//! the cell-histogram entropy toward its maximum — a direct
//! generalization of the paper's `hil*` trick of spending the bit
//! budget on the data MBR.
//!
//! The cell *topology* stays bit-interleaved Z-order, so the aligned
//! quadtree-block decomposition remains exact (block contiguity is a
//! property of the bit interleaving on cell coordinates, independent of
//! where the cell boundaries sit geographically) and codes render as
//! GeoHash base32 via [`sts_encoding::curve_cell_code`].

use crate::curve::{fnv1a, Curve, CurveFamily};
use crate::grid::validate_grid;
use crate::ranges::{decompose_blocks_into, RangeBudget};
use crate::zorder;
use crate::{CoveringScratch, CurveKind};
use sts_geo::{GeoPoint, GeoRect};

/// Weight of the sample quantiles in the boundary blend; the remaining
/// `1 - ALPHA` comes from the uniform grid, which keeps boundaries
/// strictly monotone even for degenerate samples (all points equal) and
/// bounds the resolution distortion an unrepresentative sample can
/// cause to `1 / (1 - ALPHA)`. The floor is deliberately tiny: a dense
/// cluster inside a world extent needs two orders of magnitude of
/// boundary compression before cell occupancy equalizes.
const ALPHA: f64 = 0.99;

/// Cap on sample points consulted per axis; quantile fitting is
/// O(n log n) in the sample and the blend saturates well before this.
const MAX_SAMPLE: usize = 65_536;

/// A skew-adaptive GeoHash grid: Z-order topology over data-fitted,
/// per-axis bucket boundaries.
#[derive(Clone, Debug, PartialEq)]
pub struct SkewGeoHash {
    extent: GeoRect,
    order: u32,
    /// `2^order + 1` strictly increasing lon boundaries spanning the
    /// extent; cell `x` covers `[lon_bounds[x], lon_bounds[x+1])`.
    lon_bounds: Vec<f64>,
    lat_bounds: Vec<f64>,
    boundary_hash: u64,
}

impl SkewGeoHash {
    /// Fit bucket boundaries to `sample` over `extent` at `order` bits
    /// per axis. Deterministic: the same sample (in any order) yields
    /// the same grid. An empty sample yields the uniform grid.
    pub fn fit(extent: GeoRect, order: u32, sample: &[GeoPoint]) -> Self {
        validate_grid(&extent, order);
        let mut lons: Vec<f64> = Vec::with_capacity(sample.len().min(MAX_SAMPLE));
        let mut lats: Vec<f64> = Vec::with_capacity(sample.len().min(MAX_SAMPLE));
        let stride = sample.len().div_ceil(MAX_SAMPLE).max(1);
        for p in sample.iter().step_by(stride) {
            lons.push(p.lon.clamp(extent.min_lon, extent.max_lon));
            lats.push(p.lat.clamp(extent.min_lat, extent.max_lat));
        }
        let lon_bounds = fit_axis(extent.min_lon, extent.max_lon, order, &mut lons);
        let lat_bounds = fit_axis(extent.min_lat, extent.max_lat, order, &mut lats);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in lon_bounds.iter().chain(&lat_bounds) {
            h = fnv1a(h, b.to_bits());
        }
        SkewGeoHash {
            extent,
            order,
            lon_bounds,
            lat_bounds,
            boundary_hash: h,
        }
    }

    /// The fitted lon boundaries (`2^order + 1` values).
    pub fn lon_bounds(&self) -> &[f64] {
        &self.lon_bounds
    }

    /// The fitted lat boundaries (`2^order + 1` values).
    pub fn lat_bounds(&self) -> &[f64] {
        &self.lat_bounds
    }

    /// GeoHash-style base32 code of the cell containing `p` (stable
    /// label for dashboards and explain output).
    pub fn cell_code(&self, p: GeoPoint) -> String {
        sts_encoding::curve_cell_code(self.index_of(p), self.order)
    }
}

/// Blend sample quantiles with the uniform grid into `2^order + 1`
/// strictly increasing axis boundaries pinned to `[min, max]`.
fn fit_axis(min: f64, max: f64, order: u32, vals: &mut [f64]) -> Vec<f64> {
    let n = 1usize << order;
    vals.sort_by(f64::total_cmp);
    let span = max - min;
    let mut bounds = Vec::with_capacity(n + 1);
    for i in 0..=n {
        let f = i as f64 / n as f64;
        let uniform = min + span * f;
        let b = if vals.is_empty() || i == 0 || i == n {
            uniform
        } else {
            ALPHA * quantile(vals, f) + (1.0 - ALPHA) * uniform
        };
        bounds.push(b);
    }
    // Strict monotonicity holds analytically (the uniform component
    // contributes a positive step, the quantile component is
    // non-decreasing); guard against pathological fp collapse anyway.
    for i in 1..bounds.len() {
        if bounds[i] <= bounds[i - 1] {
            bounds[i] = bounds[i - 1] + span * f64::EPSILON;
        }
    }
    bounds
}

/// Linear-interpolated quantile of a sorted, non-empty slice.
fn quantile(sorted: &[f64], f: f64) -> f64 {
    let pos = f * (sorted.len() - 1) as f64;
    let i = pos.floor() as usize;
    let frac = pos - i as f64;
    if i + 1 < sorted.len() {
        sorted[i] * (1.0 - frac) + sorted[i + 1] * frac
    } else {
        sorted[i]
    }
}

/// Cell of `v` on a boundary axis: `partition_point` over the interior
/// boundaries, which clamps out-of-extent values to the border cells.
fn axis_cell(bounds: &[f64], v: f64) -> u64 {
    let n = bounds.len() - 1;
    bounds[1..n].partition_point(|&b| b <= v) as u64
}

impl Curve for SkewGeoHash {
    fn family(&self) -> CurveFamily {
        CurveFamily::SkewGeoHash
    }

    fn order(&self) -> u32 {
        self.order
    }

    fn extent(&self) -> &GeoRect {
        &self.extent
    }

    fn cell_of(&self, p: GeoPoint) -> (u64, u64) {
        (
            axis_cell(&self.lon_bounds, p.lon),
            axis_cell(&self.lat_bounds, p.lat),
        )
    }

    fn index_of_cell(&self, x: u64, y: u64) -> u64 {
        zorder::xy2z(self.order, x, y)
    }

    fn cell_of_index(&self, d: u64) -> (u64, u64) {
        zorder::z2xy(self.order, d)
    }

    fn cell_rect(&self, x: u64, y: u64) -> GeoRect {
        GeoRect::new(
            self.lon_bounds[x as usize],
            self.lat_bounds[y as usize],
            self.lon_bounds[x as usize + 1],
            self.lat_bounds[y as usize + 1],
        )
    }

    fn cell_span(&self, rect: &GeoRect) -> Option<(u64, u64, u64, u64)> {
        if !rect.intersects(&self.extent) {
            return None;
        }
        let x0 = axis_cell(&self.lon_bounds, rect.min_lon);
        let x1 = axis_cell(&self.lon_bounds, rect.max_lon);
        let y0 = axis_cell(&self.lat_bounds, rect.min_lat);
        let y1 = axis_cell(&self.lat_bounds, rect.max_lat);
        Some((x0, x1, y0, y1))
    }

    fn decompose_cells_into(
        &self,
        span: (u64, u64, u64, u64),
        budget: RangeBudget,
        scratch: &mut CoveringScratch,
        out: &mut Vec<(u64, u64)>,
    ) {
        decompose_blocks_into(self.order, CurveKind::ZOrder, span, budget, scratch, out);
    }

    /// Includes the fitted boundaries: refitting on a different sample
    /// yields a different fingerprint, invalidating any cached plans.
    fn fingerprint(&self) -> u64 {
        let e = self.extent();
        let mut h = fnv1a(0xcbf2_9ce4_8422_2325, self.family() as u64);
        h = fnv1a(h, u64::from(self.order));
        for v in [e.min_lon, e.min_lat, e.max_lon, e.max_lat] {
            h = fnv1a(h, v.to_bits());
        }
        fnv1a(h, self.boundary_hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_geo::WORLD;

    /// A deterministic skewed sample: a dense cluster near Athens plus a
    /// sparse world-wide background.
    fn skewed_sample() -> Vec<GeoPoint> {
        let mut pts = Vec::new();
        let mut s = 0x51372021u64;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..4000 {
            if i % 10 == 0 {
                pts.push(GeoPoint::new(next() * 360.0 - 180.0, next() * 180.0 - 90.0));
            } else {
                pts.push(GeoPoint::new(23.7 + next() * 0.5, 37.9 + next() * 0.4));
            }
        }
        pts
    }

    #[test]
    fn empty_sample_degrades_to_uniform_grid() {
        let g = SkewGeoHash::fit(WORLD, 4, &[]);
        for (i, b) in g.lon_bounds().iter().enumerate() {
            let expect = -180.0 + 360.0 * i as f64 / 16.0;
            assert!((b - expect).abs() < 1e-9, "bound {i}: {b} vs {expect}");
        }
    }

    #[test]
    fn fit_is_deterministic_and_order_independent() {
        let sample = skewed_sample();
        let a = SkewGeoHash::fit(WORLD, 8, &sample);
        let b = SkewGeoHash::fit(WORLD, 8, &sample);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut reversed = sample.clone();
        reversed.reverse();
        // Same multiset of points → same sorted axis values → same grid.
        let c = SkewGeoHash::fit(WORLD, 8, &reversed);
        assert_eq!(a.lon_bounds(), c.lon_bounds());
        assert_eq!(a.lat_bounds(), c.lat_bounds());
        // A different sample moves the boundaries (and the fingerprint).
        let d = SkewGeoHash::fit(WORLD, 8, &sample[..40]);
        assert_ne!(a.lon_bounds(), d.lon_bounds());
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn boundaries_are_strictly_monotone_and_pinned() {
        let sample = vec![GeoPoint::new(23.7, 37.9); 1000]; // worst case: all equal
        for s in [&skewed_sample()[..], &sample] {
            let g = SkewGeoHash::fit(WORLD, 8, s);
            for bounds in [g.lon_bounds(), g.lat_bounds()] {
                assert_eq!(bounds.len(), 257);
                assert!(bounds.windows(2).all(|w| w[0] < w[1]), "not monotone");
            }
            assert_eq!(g.lon_bounds()[0], -180.0);
            assert_eq!(*g.lon_bounds().last().unwrap(), 180.0);
            assert_eq!(g.lat_bounds()[0], -90.0);
            assert_eq!(*g.lat_bounds().last().unwrap(), 90.0);
        }
    }

    #[test]
    fn fitted_grid_has_higher_cell_entropy_than_uniform() {
        let sample = skewed_sample();
        let skew = SkewGeoHash::fit(WORLD, 5, &sample);
        let uniform = SkewGeoHash::fit(WORLD, 5, &[]);
        let entropy = |g: &SkewGeoHash| {
            let mut counts = vec![0u64; g.total_cells() as usize];
            for p in &sample {
                counts[g.index_of(*p) as usize] += 1;
            }
            let n = sample.len() as f64;
            -counts
                .iter()
                .filter(|&&c| c > 0)
                .map(|&c| {
                    let f = c as f64 / n;
                    f * f.log2()
                })
                .sum::<f64>()
        };
        let (hs, hu) = (entropy(&skew), entropy(&uniform));
        assert!(hs > hu + 1.0, "skew-fit entropy {hs} vs uniform {hu}");
    }

    #[test]
    fn cell_lookup_agrees_with_boundaries_and_clamps() {
        let g = SkewGeoHash::fit(WORLD, 6, &skewed_sample());
        let p = GeoPoint::new(23.8, 38.0);
        let (x, y) = g.cell_of(p);
        assert!(g.cell_rect(x, y).contains(p));
        assert_eq!(g.cell_of(GeoPoint::new(-200.0, -95.0)), (0, 0));
        assert_eq!(g.cell_of(GeoPoint::new(200.0, 95.0)), (63, 63));
        let code = g.cell_code(p);
        assert_eq!(code.len(), 3); // 12 bits → 3 chars
    }
}
