//! ST-Hash — the related-work baseline of §2.2 (ref. \[10\], Guan et al. 2017),
//! implemented so the paper's critique can be measured.
//!
//! ST-Hash extends GeoHashes "in a way that time is also incorporated in
//! a string representation of a one-dimensional value" with the coarse
//! time component as the **prefix**. We encode it numerically: a day
//! index in the high bits, the 26-bit GeoHash cell in the low bits.
//!
//! The paper's critique (§2.2): *"queries with high spatial selectivity
//! but low temporal selectivity cannot exploit the encoding"* — a
//! spatially tiny query spanning `D` days needs `D` separate interval
//! families (one per day prefix), whereas the Hilbert layout needs one
//! decomposition regardless of the time span. The `sthash_baseline`
//! integration test quantifies exactly that.

use crate::query::StQuery;
use crate::{DATE_FIELD, LOCATION_FIELD};
use std::time::{Duration, Instant};
use sts_document::DateTime;
use sts_geo::{cells_to_ranges, cover_rect, GeoHash, GeoPoint};
use sts_query::Filter;

/// Document field carrying the ST-Hash value.
pub const STHASH_FIELD: &str = "stHash";

/// Bits reserved for the spatial (GeoHash) component.
pub const SPACE_BITS: u32 = 26;

/// The ST-Hash of a position/time pair: `day_index << 26 | geohash`.
pub fn sthash_of(p: GeoPoint, t: DateTime) -> i64 {
    let day = t.millis().div_euclid(86_400_000);
    let cell = GeoHash::encode(p, SPACE_BITS).bits() as i64;
    (day << SPACE_BITS) | cell
}

/// Decompose a spatio-temporal query into ST-Hash intervals: the cross
/// product of day prefixes × spatial cell ranges, capped at
/// `max_intervals` by merging (which, past one day boundary, swallows
/// the *entire* globe of intervening days — the structural weakness).
pub fn sthash_intervals(query: &StQuery, max_intervals: usize) -> Vec<(i64, i64)> {
    let cells = cover_rect(&query.rect, SPACE_BITS, 20);
    let space_ranges = cells_to_ranges(&cells, SPACE_BITS);
    let d0 = query.t0.millis().div_euclid(86_400_000);
    let d1 = query.t1.millis().div_euclid(86_400_000);
    let mut out = Vec::new();
    for day in d0..=d1 {
        let base = day << SPACE_BITS;
        for &(lo, hi) in &space_ranges {
            out.push((base | lo as i64, base | hi as i64));
        }
    }
    // Merge down to the cap, bridging smallest gaps first (same policy
    // as the Hilbert budget, so the comparison is apples-to-apples).
    while out.len() > max_intervals.max(1) {
        let mut best = 0usize;
        let mut best_gap = i64::MAX;
        for i in 0..out.len() - 1 {
            let gap = out[i + 1].0 - out[i].1;
            if gap < best_gap {
                best_gap = gap;
                best = i;
            }
        }
        let merged = (out[best].0, out[best + 1].1);
        out[best] = merged;
        out.remove(best + 1);
    }
    out
}

/// Build the store filter for an ST-Hash deployment.
pub fn build_filter(query: &StQuery, max_intervals: usize) -> (Filter, Duration, usize) {
    let start = Instant::now();
    let intervals = sthash_intervals(query, max_intervals);
    let elapsed = start.elapsed();
    let n = intervals.len();
    let mut branches: Vec<Filter> = intervals
        .iter()
        .map(|&(lo, hi)| {
            Filter::And(vec![
                Filter::gte(STHASH_FIELD, lo),
                Filter::lte(STHASH_FIELD, hi),
            ])
        })
        .collect();
    if branches.is_empty() {
        branches.push(Filter::eq(STHASH_FIELD, -1i64));
    }
    let filter = Filter::And(vec![
        Filter::GeoWithin {
            path: LOCATION_FIELD.into(),
            rect: query.rect,
        },
        Filter::gte(DATE_FIELD, query.t0),
        Filter::lte(DATE_FIELD, query.t1),
        Filter::Or(branches),
    ]);
    (filter, elapsed, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_geo::GeoRect;

    fn q(days: i64) -> StQuery {
        StQuery {
            rect: GeoRect::new(23.757495, 37.987295, 23.766958, 37.992997),
            t0: DateTime::from_ymd_hms(2018, 10, 1, 0, 0, 0),
            t1: DateTime::from_ymd_hms(2018, 10, 1, 0, 0, 0).plus_millis(days * 86_400_000),
        }
    }

    #[test]
    fn encoding_orders_time_before_space() {
        let athens = GeoPoint::new(23.7275, 37.9838);
        let patras = GeoPoint::new(21.7346, 38.2466);
        let t1 = DateTime::from_ymd_hms(2018, 7, 1, 12, 0, 0);
        let t2 = DateTime::from_ymd_hms(2018, 7, 2, 0, 0, 0);
        // Different days dominate any spatial difference.
        assert!(sthash_of(patras, t1) < sthash_of(athens, t2));
        // Same day: ordered by cell.
        let same_day = sthash_of(athens, t1) >> SPACE_BITS;
        assert_eq!(sthash_of(patras, t1) >> SPACE_BITS, same_day);
    }

    #[test]
    fn interval_count_scales_with_days() {
        let one = sthash_intervals(&q(1), usize::MAX);
        let week = sthash_intervals(&q(7), usize::MAX);
        let month = sthash_intervals(&q(30), usize::MAX);
        // The paper's critique, visible: D days ⇒ ~D× the intervals for
        // the same tiny rectangle.
        assert!(
            week.len() >= 7 * one.len() / 2,
            "{} vs {}",
            week.len(),
            one.len()
        );
        assert!(month.len() >= 25 * one.len() / 2);
    }

    #[test]
    fn capped_intervals_still_cover() {
        let exact = sthash_intervals(&q(30), usize::MAX);
        let capped = sthash_intervals(&q(30), 16);
        assert!(capped.len() <= 16);
        for &(lo, hi) in &exact {
            assert!(
                capped.iter().any(|&(clo, chi)| clo <= lo && hi <= chi),
                "lost ({lo},{hi})"
            );
        }
    }

    #[test]
    fn filter_carries_interval_or() {
        let (f, _, n) = build_filter(&q(2), 64);
        assert!(n >= 2);
        let shape = sts_query::QueryShape::analyze(&f);
        let (path, ivs) = shape.int_intervals.expect("sthash intervals");
        assert_eq!(path, STHASH_FIELD);
        assert_eq!(ivs.len(), n);
    }
}
