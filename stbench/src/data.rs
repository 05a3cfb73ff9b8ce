//! The data set: `sts_workload::fleet::generate` at a fixed scale, kept
//! as encoded documents plus a compact `(lon, lat, millis)` array for
//! the oracle.
//!
//! Why encoded bytes and not `Record`s or `Document`s: a generated
//! record holds 71 heap-allocated payload values (~7 KB in memory), a
//! decoded document ~10 KB, its encoding 1.2 KB. On the sandbox this
//! benchmark was sized on, touching memory past ~1.2 GB of resident set
//! costs ~25 µs per page (pages the host has not backed yet), which
//! would put several seconds of host page-fault time — and its noise —
//! inside `setup_s`. Holding the corpus encoded keeps the harness under
//! 0.1 GB so that the resident set is the program's own.

use crate::util::Fnv;
use std::time::Instant;
use sts_document::{decode_document, encode_document, Document};
use sts_geo::GeoPoint;
use sts_workload::fleet::{self, FleetConfig};

/// Fraction of the paper's R₁ record count (15,210,901) the benchmark
/// generates: 76,000 records (500 vehicles × 152 fixes), 75 fields each.
pub const SCALE: f64 = 0.005;
/// Seed of the data set, the same on every run: `--seed` draws the
/// operations. The fleet generator deals its 500 vehicles to the cities
/// at random, so another data seed is another density map — the result
/// sizes at the 99th percentile of one `scan-cold` query list read
/// 2,612 on one data seed and 2,190–2,324 on three others, against
/// 2,573–2,656 on four query seeds over one data set — and every
/// latency metric would carry that difference between runs.
pub const DATA_SEED: u64 = 0x5137_2021;
/// `--smoke` scale: 7,500 records.
pub const SMOKE_SCALE: f64 = 0.0005;
/// Documents decoded per `bulk_load` call while setting a store up.
pub const LOAD_CHUNK: usize = 2048;

/// One generated fix, as the oracle sees it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Point {
    pub lon: f64,
    pub lat: f64,
    pub millis: i64,
}

/// The generated data set, time-ordered.
pub struct Corpus {
    /// Oracle view, same order as `encoded`.
    pub points: Vec<Point>,
    /// `encode_document(record.to_document())` per record.
    pub encoded: Vec<Vec<u8>>,
    /// Stride sample of at most 2048 positions (curve fitting input).
    pub sample: Vec<GeoPoint>,
    /// FNV-1a over every generated value except `_id` (ObjectIds carry a
    /// per-process random part).
    pub fingerprint: u64,
    /// Chunk split threshold: 64 MB × scale, as the repository's other
    /// harnesses size it.
    pub max_chunk_bytes: u64,
    /// Harness time spent generating and encoding.
    pub gen_s: f64,
}

impl Corpus {
    pub fn generate(seed: u64, scale: f64) -> Corpus {
        let started = Instant::now();
        let records = fleet::generate(&FleetConfig {
            records: (sts_workload::PAPER_R_RECORDS as f64 * scale) as u64,
            vehicles: 500,
            seed,
            ..Default::default()
        });
        let stride = (records.len() / 2048).max(1);
        let sample = records
            .iter()
            .step_by(stride)
            .map(|r| GeoPoint::new(r.lon, r.lat))
            .collect();
        let mut fnv = Fnv::default();
        let mut value_bytes = Vec::new();
        let mut points = Vec::with_capacity(records.len());
        let mut encoded = Vec::with_capacity(records.len());
        // Consume the records so each one's payload is freed as soon as
        // it is encoded.
        for r in records {
            fnv.u64(r.id);
            fnv.u64(u64::from(r.vehicle));
            fnv.f64(r.lon);
            fnv.f64(r.lat);
            fnv.u64(r.date.millis() as u64);
            for (k, v) in &r.payload {
                fnv.bytes(k.as_bytes());
                value_bytes.clear();
                sts_encoding::encode_value_into(v, &mut value_bytes);
                fnv.bytes(&value_bytes);
            }
            points.push(Point {
                lon: r.lon,
                lat: r.lat,
                millis: r.date.millis(),
            });
            encoded.push(encode_document(&r.to_document()));
        }
        debug_assert!(points.windows(2).all(|w| w[0].millis <= w[1].millis));
        Corpus {
            points,
            encoded,
            sample,
            fingerprint: fnv.finish(),
            max_chunk_bytes: ((64.0 * 1024.0 * 1024.0 * scale) as u64).max(64 * 1024),
            gen_s: started.elapsed().as_secs_f64(),
        }
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Decode records `range` into fresh documents. Harness time: the
    /// callers keep it outside every timed call.
    pub fn documents(&self, range: std::ops::Range<usize>) -> Vec<Document> {
        self.encoded[range]
            .iter()
            .map(|b| decode_document(b).expect("corpus bytes were produced by encode_document"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_in_seed_and_time_ordered() {
        let a = Corpus::generate(11, 0.0002);
        let b = Corpus::generate(11, 0.0002);
        let c = Corpus::generate(12, 0.0002);
        // 3,042 asked for; the generator emits whole per-vehicle shares.
        assert_eq!(a.len(), 3000);
        assert_eq!(a.points, b.points);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_ne!(a.fingerprint, c.fingerprint);
        assert!(a.points.windows(2).all(|w| w[0].millis <= w[1].millis));
        assert!(a.sample.len() <= 2048 * 2);
        let docs = a.documents(0..3);
        assert_eq!(docs.len(), 3);
        assert_eq!(docs[0].len(), 75, "the paper's 75-value schema");
    }
}
