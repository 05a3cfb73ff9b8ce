//! Query-shape generators. Every list is a pure function of the seed.

use crate::util::{Fnv, SplitMix64};
use sts_core::StQuery;
use sts_document::DateTime;
use sts_geo::GeoRect;

const DAY_MS: i64 = 86_400_000;
/// Days the generated fixes span (`FleetConfig::span_days`).
const SPAN_DAYS: u64 = 153;

/// Five of the fleet generator's urban hotspots (Athens, Thessaloniki,
/// Patras, Heraklion, Larissa): where the data is dense enough for a
/// small rectangle to return something.
const HOTSPOTS: [(f64, f64); 5] = [
    (23.7275, 37.9838),
    (22.9446, 40.6401),
    (21.7346, 38.2466),
    (25.1442, 35.3387),
    (22.4191, 39.6390),
];

/// First fix timestamp of the generated data (2018-07-01).
fn data_start_ms() -> i64 {
    DateTime::from_ymd_hms(2018, 7, 1, 0, 0, 0).millis()
}

fn query(rect: GeoRect, t0_ms: i64, days: f64) -> StQuery {
    StQuery {
        rect,
        t0: DateTime::from_millis(t0_ms),
        t1: DateTime::from_millis(t0_ms + (days * DAY_MS as f64) as i64),
    }
}

/// Position `i` of a list split into its strata: the digits of `i` in
/// the mixed radix `radices`, least significant first.
///
/// Every list below cycles through hotspot, window length and size
/// class this way and draws only the jitter inside a class at random.
/// The result count of a shape spans two orders of magnitude between
/// classes (Athens holds 7× the fixes of Larissa, a 30-day window 30×
/// those of one day), so a list drawn class-by-class at random would
/// make every latency metric move with the seed's luck of the draw.
fn strata<const N: usize>(mut i: usize, radices: [usize; N]) -> [usize; N] {
    radices.map(|r| {
        let digit = i % r;
        i /= r;
        digit
    })
}

/// A `w × h` degree rectangle whose lower-left corner lies within
/// ±0.05° of hotspot `h`'s centre.
fn near_hotspot(rng: &mut SplitMix64, h: usize, w: f64, ht: f64) -> GeoRect {
    let (clon, clat) = HOTSPOTS[h];
    let lon = clon + rng.range(-0.05, 0.05);
    let lat = clat + rng.range(-0.05, 0.05);
    GeoRect::new(lon, lat, lon + w, lat + ht)
}

/// A square near hotspot `h` whose side lies in class `class` of
/// `classes` equal slices of `lo..hi` degrees.
fn square(
    rng: &mut SplitMix64,
    h: usize,
    lo: f64,
    hi: f64,
    class: usize,
    classes: usize,
) -> GeoRect {
    let step = (hi - lo) / classes as f64;
    let side = lo + step * (class as f64 + rng.unit());
    near_hotspot(rng, h, side, side)
}

fn start_ms(rng: &mut SplitMix64, window_days: u64) -> i64 {
    data_start_ms() + rng.below(SPAN_DAYS - window_days) as i64 * DAY_MS
}

/// Where the `k`-th small square of a hotspot sits: its lower-left
/// corner within ±0.05° of the centre, at point `k` of the R2
/// low-discrepancy sequence, moved by the seed by at most ±0.002°.
///
/// A city's fixes crowd into a core a few hundredths of a degree wide,
/// so which of a few hundred randomly placed squares land on it is one
/// seed's luck: on the same data the 99th percentile of their result
/// counts read 54, 61, 62 and 80 on four seeds, and `query_p99_us`
/// followed it. With the placement fixed the squares cover every city
/// the same way on every seed.
fn placed(rng: &mut SplitMix64, h: usize, k: usize, side: f64) -> GeoRect {
    const R2: (f64, f64) = (0.754_877_666_246_692_7, 0.569_840_290_998_053_2);
    let (clon, clat) = HOTSPOTS[h];
    let at = |step: f64| (0.5 + step * k as f64).fract() * 0.1 - 0.05;
    let lon = clon + at(R2.0) + rng.range(-0.002, 0.002);
    let lat = clat + at(R2.1) + rng.range(-0.002, 0.002);
    GeoRect::new(lon, lat, lon + side, lat + side)
}

/// Side of a small square (0.02–0.04°) in size class `class` of four.
fn small_side(rng: &mut SplitMix64, class: usize) -> f64 {
    0.02 + 0.005 * (class as f64 + rng.unit())
}

/// `selective-planwarm`: `n` small squares around the hotspot centres,
/// each with the length in days (1/2/3) of the windows asked of it — a
/// handful of results from two or three shards.
pub fn selective_rects(seed: u64, n: usize) -> Vec<(GeoRect, u64)> {
    let mut rng = SplitMix64::new(seed ^ 0x5E1E_C71F);
    (0..n)
        .map(|i| {
            let [h, d, class] = strata(i, [HOTSPOTS.len(), 3, 4]);
            let side = small_side(&mut rng, class);
            (placed(&mut rng, h, i / HOTSPOTS.len(), side), 1 + d as u64)
        })
        .collect()
}

/// One pass over `rects`: each square over a freshly drawn window of
/// its length. The plan-cache key of the Hilbert approaches ignores
/// time, so every pass after the first is all plan hits, while the
/// tail of a run's latencies rests on every pass's draws and not on
/// the one window a square got at the start.
pub fn selective_pass(rng: &mut SplitMix64, rects: &[(GeoRect, u64)]) -> Vec<StQuery> {
    rects
        .iter()
        .map(|&(rect, days)| query(rect, start_ms(rng, days), days as f64))
        .collect()
}

/// `ingest-beside-reads`: `n` fixed small squares (0.02–0.04°) a
/// dashboard keeps polling for recent data — cheap reads, so commits
/// stay the larger share of the busy time. The plan-cache key of the
/// Hilbert approaches ignores time, so a repeated rectangle is a plan
/// hit whose cached route goes stale whenever a chunk splits or moves.
pub fn watched_rects(seed: u64, n: usize) -> Vec<GeoRect> {
    let mut rng = SplitMix64::new(seed ^ 0x3A7C_4ED5);
    (0..n)
        .map(|i| {
            let [h, class] = strata(i, [HOTSPOTS.len(), 4]);
            let side = small_side(&mut rng, class);
            placed(&mut rng, h, i / HOTSPOTS.len(), side)
        })
        .collect()
}

/// `rect` over the `days` before `newest_ms`.
pub fn recent(rect: GeoRect, newest_ms: i64, days: i64) -> StQuery {
    query(rect, newest_ms - days * DAY_MS, days as f64)
}

/// A city-sized square (0.02–0.08°, four size classes) over a week.
fn city_week(rng: &mut SplitMix64, h: usize, class: usize) -> StQuery {
    let rect = square(rng, h, 0.02, 0.08, class, 4);
    query(rect, start_ms(rng, 7), 7.0)
}

/// `scan-cold`: 70 % city-sized × 7 days, 30 % region-sized
/// (0.30–0.50° × 0.25–0.40°) × 1/7/30 days. The medians sit in the city
/// mode, the tail in the 30-day region mode.
pub fn scan_mix(seed: u64, n: usize) -> Vec<StQuery> {
    let mut rng = SplitMix64::new(seed ^ 0x5CA9_C01D);
    (0..n)
        .map(|i| {
            let [kind, h, class] = strata(i, [10, HOTSPOTS.len(), 12]);
            if kind < 7 {
                city_week(&mut rng, h, class % 4)
            } else {
                let size = (class % 4) as f64;
                let w = 0.30 + 0.05 * (size + rng.unit());
                let ht = 0.25 + 0.0375 * (size + rng.unit());
                let rect = near_hotspot(&mut rng, h, w, ht);
                let days = [1, 7, 30][class % 3];
                query(rect, start_ms(&mut rng, days), days as f64)
            }
        })
        .collect()
}

/// `repeat-shapes-mixed`: city-sized squares × 7 days. Rank `r` of the
/// Zipf draw is shape `r`, so the hottest ranks are the same classes
/// on every seed.
pub fn city_weeks(seed: u64, n: usize) -> Vec<StQuery> {
    let mut rng = SplitMix64::new(seed ^ 0x2E9E_A7ED);
    (0..n)
        .map(|i| {
            let [h, class] = strata(i, [HOTSPOTS.len(), 4]);
            city_week(&mut rng, h, class)
        })
        .collect()
}

/// Zipf(s = 1) over ranks `0..k`: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(k: usize) -> Zipf {
        assert!(k > 0, "Zipf needs at least one rank");
        let mut acc = 0.0;
        let cdf = (0..k)
            .map(|r| {
                acc += 1.0 / (r + 1) as f64;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit() * self.cdf[self.cdf.len() - 1];
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// FNV-1a over a query list's exact bits.
pub fn fingerprint(queries: &[StQuery]) -> u64 {
    let mut fnv = Fnv::default();
    for q in queries {
        for v in [
            q.rect.min_lon,
            q.rect.min_lat,
            q.rect.max_lon,
            q.rect.max_lat,
        ] {
            fnv.f64(v);
        }
        fnv.u64(q.t0.millis() as u64);
        fnv.u64(q.t1.millis() as u64);
    }
    fnv.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_lists_are_deterministic_in_seed() {
        let selective = |seed, n| {
            let mut rng = SplitMix64::new(seed);
            selective_pass(&mut rng, &selective_rects(seed, n))
        };
        let lists: [&dyn Fn(u64, usize) -> Vec<StQuery>; 3] = [&selective, &scan_mix, &city_weeks];
        for gen in lists {
            let a = gen(42, 64);
            assert_eq!(a, gen(42, 64));
            assert_ne!(a, gen(43, 64));
            assert_eq!(fingerprint(&a), fingerprint(&gen(42, 64)));
            assert!(a.iter().all(|q| q.t1 > q.t0 && q.rect.is_valid()));
        }
    }

    #[test]
    fn scan_mix_has_both_modes_in_fixed_shares() {
        let qs = scan_mix(1, 1200);
        let regions = qs.iter().filter(|q| q.rect.lon_span() > 0.2).count();
        assert_eq!(regions, 360);
        let month = qs
            .iter()
            .filter(|q| q.t1.millis() - q.t0.millis() == 30 * DAY_MS)
            .count();
        assert_eq!(month, 120);
    }

    #[test]
    fn strata_are_mixed_radix_digits() {
        assert_eq!(strata(0, [5, 3, 4]), [0, 0, 0]);
        assert_eq!(strata(7, [5, 3, 4]), [2, 1, 0]);
        assert_eq!(strata(59, [5, 3, 4]), [4, 2, 3]);
        assert_eq!(strata(60, [5, 3, 4]), [0, 0, 0]);
        // Every hotspot gets the same share of a list, and a square
        // sits within 0.002° of where it sits on any other seed.
        let (a, b) = (selective_rects(3, 500), selective_rects(4, 500));
        for (lon, _) in HOTSPOTS {
            let near = a
                .iter()
                .filter(|(r, _)| (r.min_lon - lon).abs() <= 0.052)
                .count();
            assert_eq!(near, 100);
        }
        for ((ra, da), (rb, db)) in a.iter().zip(&b) {
            assert_eq!(da, db);
            assert!((ra.min_lon - rb.min_lon).abs() <= 0.004);
            assert!((ra.min_lat - rb.min_lat).abs() <= 0.004);
        }
        assert_ne!(a, b);
    }

    #[test]
    fn zipf_is_skewed_and_deterministic() {
        let z = Zipf::new(32);
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..4096).map(|_| z.draw(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7));
        assert_ne!(a, draw(8));
        assert!(a.iter().all(|&r| r < 32));
        let hot = a.iter().filter(|&&r| r == 0).count();
        let cold = a.iter().filter(|&&r| r == 31).count();
        assert!(hot > 6 * cold.max(1), "hot {hot} vs cold {cold}");
    }
}
