//! The full-scan oracle. With one client the set of committed records
//! at the moment a query is issued is a known prefix of the time-ordered
//! corpus, so the expected answer is a scan of that prefix.

use crate::data::Point;
use crate::util::mix64;
use sts_core::StQuery;
use sts_document::{Document, Value};
use sts_index::geo_point_of;

/// What a result set is compared by: how many documents, and an
/// order-independent checksum of their identities.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Answer {
    pub count: u64,
    pub checksum: u64,
}

impl Answer {
    fn add(&mut self, lon: f64, lat: f64, millis: i64) {
        self.count += 1;
        self.checksum = self.checksum.wrapping_add(identity(lon, lat, millis));
    }
}

/// A record's identity: a mix of its exact position and timestamp bits.
/// `_id` cannot serve (ObjectIds differ between processes) and the
/// generator's sequence number is not stored in the document.
fn identity(lon: f64, lat: f64, millis: i64) -> u64 {
    mix64(lon.to_bits() ^ mix64(lat.to_bits() ^ mix64(millis as u64)))
}

fn inside(q: &StQuery, p: &Point) -> bool {
    p.lon >= q.rect.min_lon
        && p.lon <= q.rect.max_lon
        && p.lat >= q.rect.min_lat
        && p.lat <= q.rect.max_lat
        && p.millis >= q.t0.millis()
        && p.millis <= q.t1.millis()
}

/// Expected answer of `q` over `committed`, a time-ordered prefix of
/// the corpus: binary search the time window, scan it.
pub fn expected(committed: &[Point], q: &StQuery) -> Answer {
    let lo = committed.partition_point(|p| p.millis < q.t0.millis());
    let hi = committed.partition_point(|p| p.millis <= q.t1.millis());
    let mut a = Answer::default();
    for p in &committed[lo..hi] {
        if inside(q, p) {
            a.add(p.lon, p.lat, p.millis);
        }
    }
    a
}

/// Fold newly committed points into per-shape expected answers (the
/// `repeat-shapes-mixed` write path: shapes × batch, not a full rescan).
pub fn extend(answers: &mut [Answer], shapes: &[StQuery], batch: &[Point]) {
    for (a, q) in answers.iter_mut().zip(shapes) {
        for p in batch {
            if inside(q, p) {
                a.add(p.lon, p.lat, p.millis);
            }
        }
    }
}

/// The answer the program returned. `None` when a document lacks a
/// readable `location` or `date` — that is a failed operation too.
pub fn observed(docs: &[Document]) -> Option<Answer> {
    let mut a = Answer::default();
    for d in docs {
        let p = geo_point_of(d, "location")?;
        let t = d.get("date").and_then(Value::as_datetime)?;
        a.add(p.lon, p.lat, t.millis());
    }
    Some(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_document::DateTime;
    use sts_geo::GeoRect;

    fn pts() -> Vec<Point> {
        (0..100)
            .map(|i| Point {
                lon: 20.0 + f64::from(i) * 0.1,
                lat: 35.0 + f64::from(i % 10) * 0.1,
                millis: i64::from(i) * 1000,
            })
            .collect()
    }

    fn q(lon0: f64, lon1: f64, t0: i64, t1: i64) -> StQuery {
        StQuery {
            rect: GeoRect::new(lon0, 34.0, lon1, 37.0),
            t0: DateTime::from_millis(t0),
            t1: DateTime::from_millis(t1),
        }
    }

    #[test]
    fn expected_is_inclusive_on_every_edge() {
        let p = pts();
        // lon 21.0..=22.0 is i in 10..=20; time 12_000..=18_000 is 12..=18.
        let a = expected(&p, &q(21.0, 22.0, 12_000, 18_000));
        assert_eq!(a.count, 7);
        // The prefix bounds what is visible.
        let a = expected(&p[..15], &q(21.0, 22.0, 12_000, 18_000));
        assert_eq!(a.count, 3);
        assert_eq!(expected(&p, &q(50.0, 51.0, 0, 100_000)).count, 0);
    }

    #[test]
    fn extend_equals_rescan() {
        let p = pts();
        let shapes = vec![q(20.0, 25.0, 0, 100_000), q(26.0, 29.0, 50_000, 90_000)];
        let mut inc: Vec<Answer> = shapes.iter().map(|s| expected(&p[..40], s)).collect();
        extend(&mut inc, &shapes, &p[40..]);
        let full: Vec<Answer> = shapes.iter().map(|s| expected(&p, s)).collect();
        assert_eq!(inc, full);
    }

    #[test]
    fn checksum_ignores_order_and_detects_substitution() {
        let mut a = Answer::default();
        a.add(1.0, 2.0, 3);
        a.add(4.0, 5.0, 6);
        let mut b = Answer::default();
        b.add(4.0, 5.0, 6);
        b.add(1.0, 2.0, 3);
        assert_eq!(a, b);
        let mut c = Answer::default();
        c.add(1.0, 2.0, 3);
        c.add(4.0, 5.0, 7);
        assert_eq!(a.count, c.count);
        assert_ne!(a.checksum, c.checksum);
    }
}
