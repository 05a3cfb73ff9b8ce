//! A single index: B+tree + spec + maintenance.

use crate::bounds::ScanRange;
use crate::extract::extract_key_values;
use crate::spec::IndexSpec;
use std::ops::{Bound, ControlFlow};
use sts_btree::{BTree, KeyBound, SizeReport};
use sts_document::{Document, Value};
use sts_encoding::{decode_value, encode_value_into, encoded_len, KeyReader, KeyWriter};

/// Reusable buffers for index scans.
///
/// Scans decode key values for the visitor and build seek targets on
/// every jump; with a scratch threaded in from the executor those
/// buffers are reused across queries instead of reallocated per scan —
/// part of the hot path's zero-allocation contract.
#[derive(Default)]
pub struct ScanScratch {
    /// Decoded per-field key values handed to the scan closure.
    values: Vec<Value>,
    /// Seek-target key under construction (skip-scan jumps).
    seek_key: Vec<u8>,
    /// The skip-scan's trailing window, encoded once per scan.
    t_lo: Vec<u8>,
    t_hi: Vec<u8>,
}

impl ScanScratch {
    /// Empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Borrow an owned key bound for the batch cursor.
fn as_ref_bound(b: &KeyBound) -> Bound<&[u8]> {
    match b {
        Bound::Included(k) => Bound::Included(k.as_slice()),
        Bound::Excluded(k) => Bound::Excluded(k.as_slice()),
        Bound::Unbounded => Bound::Unbounded,
    }
}

/// Statistics of one or more index scans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Index entries touched (MongoDB `totalKeysExamined`).
    pub keys_examined: u64,
    /// Distinct B+tree descents (one per scan range).
    pub seeks: u64,
}

impl ScanStats {
    /// Accumulate.
    pub fn merge(&mut self, other: ScanStats) {
        self.keys_examined += other.keys_examined;
        self.seeks += other.seeks;
    }
}

/// One secondary index of a collection.
pub struct Index {
    spec: IndexSpec,
    tree: BTree,
}

impl Index {
    /// Create an empty index.
    pub fn new(spec: IndexSpec) -> Self {
        Index {
            spec,
            tree: BTree::new(),
        }
    }

    /// The spec.
    pub fn spec(&self) -> &IndexSpec {
        &self.spec
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Key bytes for a document, or `None` when extraction fails
    /// (malformed geo field).
    fn key_of(&self, doc: &Document, record_id: u64) -> Option<Vec<u8>> {
        let values = extract_key_values(&self.spec, doc)?;
        let mut w = KeyWriter::new();
        for v in &values {
            w.push(v);
        }
        w.push_raw_u64(record_id);
        Some(w.finish())
    }

    /// Index a document. Returns `false` when the document cannot be
    /// indexed (2dsphere extraction failed).
    pub fn insert_doc(&mut self, doc: &Document, record_id: u64) -> bool {
        match self.key_of(doc, record_id) {
            Some(k) => {
                self.tree.insert(&k, record_id);
                true
            }
            None => false,
        }
    }

    /// Remove a document's entry.
    pub fn remove_doc(&mut self, doc: &Document, record_id: u64) -> bool {
        match self.key_of(doc, record_id) {
            Some(k) => self.tree.remove(&k).is_some(),
            None => false,
        }
    }

    /// Scan the given ranges; for each entry, decode the per-field key
    /// values and call `f(values, record_id)`. Returns scan statistics.
    ///
    /// Decoding lets the executor apply *index-level filters* on trailing
    /// compound fields (MongoDB's `indexFilterSet`/bounds behaviour):
    /// non-matching keys still count as examined but avoid a document
    /// fetch.
    pub fn scan_ranges<F: FnMut(&[Value], u64) -> ControlFlow<()>>(
        &self,
        ranges: &[ScanRange],
        f: F,
    ) -> ScanStats {
        self.scan_ranges_with(&mut ScanScratch::new(), ranges, f)
    }

    /// [`scan_ranges`](Self::scan_ranges) with caller-owned scratch
    /// buffers, serving the whole (sorted) batch of ranges through one
    /// [`BatchCursor`](sts_btree::BatchCursor): the descent path is
    /// reused across ranges sharing a node prefix, and the cursor
    /// resumes forward instead of re-descending from the root.
    pub fn scan_ranges_with<F: FnMut(&[Value], u64) -> ControlFlow<()>>(
        &self,
        scratch: &mut ScanScratch,
        ranges: &[ScanRange],
        mut f: F,
    ) -> ScanStats {
        let nfields = self.spec.fields.len();
        let mut cur = self.tree.batch_cursor();
        'ranges: for range in ranges {
            cur.seek(as_ref_bound(&range.lower));
            let upper = as_ref_bound(&range.upper);
            while let Some((key, rid)) = cur.next(upper) {
                scratch.values.clear();
                let mut r = KeyReader::new(key);
                for _ in 0..nfields {
                    scratch
                        .values
                        .push(r.next_value().expect("index key corrupt"));
                }
                if f(&scratch.values, rid).is_break() {
                    break 'ranges;
                }
            }
        }
        ScanStats {
            keys_examined: cur.keys_examined(),
            seeks: cur.seeks(),
        }
    }

    /// Skip-scan over a two-field compound index: scan `leading` while
    /// constraining the *second* field to `[t_lo, t_hi]` (inclusive).
    ///
    /// Mirrors MongoDB's `IndexBoundsChecker`: within the leading
    /// interval the cursor *seeks* — a key whose trailing value is below
    /// the interval jumps to `(v0, t_lo)`, one above jumps past all of
    /// `v0` — instead of examining every key. This is what makes the
    /// `(hilbertIndex, date)` compound index efficient for wide Hilbert
    /// ranges with narrow time windows, and it's why the paper's `hil`
    /// method examines orders of magnitude fewer keys (Fig. 13b).
    pub fn skip_scan_2d<F: FnMut(&[Value], u64) -> ControlFlow<()>>(
        &self,
        leading: &ScanRange,
        t_lo: &Value,
        t_hi: &Value,
        f: F,
    ) -> ScanStats {
        self.skip_scan_2d_with(&mut ScanScratch::new(), leading, t_lo, t_hi, f)
    }

    /// [`skip_scan_2d`](Self::skip_scan_2d) with caller-owned scratch.
    ///
    /// The window is encoded once and every examined key is judged on
    /// its *bytes*: the memcomparable encoding is what the tree sorts
    /// by, so comparing the trailing field's encoded slice against the
    /// encoded bounds is the canonical comparison. Values are decoded
    /// only for keys handed to `f`. Both jumps are
    /// [`seek_forward`](sts_btree::BatchCursor::seek_forward)s on one
    /// batch cursor, the target built in the reusable scratch key.
    pub fn skip_scan_2d_with<F: FnMut(&[Value], u64) -> ControlFlow<()>>(
        &self,
        scratch: &mut ScanScratch,
        leading: &ScanRange,
        t_lo: &Value,
        t_hi: &Value,
        mut f: F,
    ) -> ScanStats {
        let ScanScratch {
            values,
            seek_key,
            t_lo: lo,
            t_hi: hi,
        } = scratch;
        lo.clear();
        encode_value_into(t_lo, lo);
        hi.clear();
        encode_value_into(t_hi, hi);

        let mut cur = self.tree.batch_cursor();
        cur.seek(as_ref_bound(&leading.lower));
        let upper = as_ref_bound(&leading.upper);
        while let Some((key, rid)) = cur.next(upper) {
            let (v0, rest) = key.split_at(encoded_len(key).expect("index key corrupt"));
            let v1 = &rest[..encoded_len(rest).expect("index key corrupt")];
            // Below the window: jump forward to (v0, t_lo). Above it:
            // jump past every remaining entry with this v0.
            let jump_to: Option<&[u8]> = if v1 < lo.as_slice() {
                Some(lo)
            } else if v1 > hi.as_slice() {
                Some(&crate::bounds::EXCLUSIVE_TAIL)
            } else {
                None
            };
            if let Some(tail) = jump_to {
                seek_key.clear();
                seek_key.extend_from_slice(v0);
                seek_key.extend_from_slice(tail);
                cur.seek_forward(seek_key);
                continue;
            }
            values.clear();
            for field in [v0, v1] {
                values.push(decode_value(field, &mut 0).expect("index key corrupt"));
            }
            if f(values, rid).is_break() {
                break;
            }
        }
        ScanStats {
            keys_examined: cur.keys_examined(),
            seeks: cur.seeks(),
        }
    }

    /// Estimate entry count across the given ranges (planner support).
    pub fn estimate_ranges(&self, ranges: &[ScanRange]) -> u64 {
        ranges
            .iter()
            .map(|r| self.tree.estimate_range(&r.lower, &r.upper))
            .sum()
    }

    /// Size accounting for Fig. 14.
    pub fn size_report(&self) -> SizeReport {
        self.tree.size_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::IndexField;
    use sts_document::{doc, DateTime};

    fn point_doc(lon: f64, lat: f64, ms: i64) -> Document {
        doc! {
            "location" => doc! {
                "type" => "Point",
                "coordinates" => vec![Value::from(lon), Value::from(lat)],
            },
            "date" => DateTime::from_millis(ms),
            "hilbertIndex" => (lon * 100.0) as i64,
        }
    }

    fn hil_index() -> Index {
        Index::new(IndexSpec::new(
            "hil",
            vec![IndexField::asc("hilbertIndex"), IndexField::asc("date")],
        ))
    }

    #[test]
    fn insert_scan_remove() {
        let mut idx = hil_index();
        let docs: Vec<Document> = (0..10)
            .map(|i| point_doc(23.0 + f64::from(i) * 0.01, 37.9, i64::from(i) * 100))
            .collect();
        for (rid, d) in docs.iter().enumerate() {
            assert!(idx.insert_doc(d, rid as u64));
        }
        assert_eq!(idx.len(), 10);
        let mut seen = Vec::new();
        let stats = idx.scan_ranges(&[ScanRange::whole()], |vals, rid| {
            assert_eq!(vals.len(), 2);
            seen.push(rid);
            ControlFlow::Continue(())
        });
        assert_eq!(seen.len(), 10);
        assert_eq!(stats.keys_examined, 10);
        assert_eq!(stats.seeks, 1);
        assert!(idx.remove_doc(&docs[3], 3));
        assert_eq!(idx.len(), 9);
        assert!(!idx.remove_doc(&docs[3], 3));
    }

    #[test]
    fn duplicate_key_values_coexist() {
        let mut idx = hil_index();
        let d = point_doc(23.0, 37.9, 500);
        assert!(idx.insert_doc(&d, 1));
        assert!(idx.insert_doc(&d, 2));
        assert_eq!(idx.len(), 2, "record-id suffix disambiguates duplicates");
    }

    #[test]
    fn geo_index_rejects_bad_documents() {
        let mut idx = Index::new(IndexSpec::new(
            "st",
            vec![IndexField::geo("location"), IndexField::asc("date")],
        ));
        let bad = doc! {"date" => DateTime::from_millis(0)};
        assert!(!idx.insert_doc(&bad, 0));
        assert!(idx.is_empty());
    }

    #[test]
    fn scan_decodes_values_for_index_filters() {
        let mut idx = hil_index();
        for (rid, ms) in [(0u64, 100i64), (1, 200), (2, 300)] {
            idx.insert_doc(&point_doc(23.0, 37.9, ms), rid);
        }
        // Scan all hilbert values; filter date at index level.
        let mut matched = Vec::new();
        let stats = idx.scan_ranges(&[ScanRange::whole()], |vals, rid| {
            let dt = vals[1].as_datetime().unwrap();
            if dt.millis() >= 200 {
                matched.push(rid);
            }
            ControlFlow::Continue(())
        });
        assert_eq!(stats.keys_examined, 3);
        assert_eq!(matched, vec![1, 2]);
    }

    #[test]
    fn skip_scan_examines_far_fewer_keys() {
        // 100 hilbert cells × 100 timestamps; query a wide hilbert range
        // with a narrow time window.
        let mut idx = hil_index();
        let mut rid = 0u64;
        for h in 0..100i64 {
            for t in 0..100i64 {
                let mut d = point_doc(23.0, 37.9, t * 10);
                d.set("hilbertIndex", h);
                idx.insert_doc(&d, rid);
                rid += 1;
            }
        }
        let leading = ScanRange::with_prefix(
            &[],
            Some((&Value::Int64(10), true)),
            Some((&Value::Int64(89), true)),
        );
        let (t_lo, t_hi) = (
            Value::DateTime(DateTime::from_millis(200)),
            Value::DateTime(DateTime::from_millis(290)),
        );
        let mut hits = 0u64;
        let stats = idx.skip_scan_2d(&leading, &t_lo, &t_hi, |vals, _| {
            let h = vals[0].as_f64().unwrap() as i64;
            let t = vals[1].as_datetime().unwrap().millis();
            assert!((10..=89).contains(&h));
            assert!((200..=290).contains(&t));
            hits += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(hits, 80 * 10);
        // Sequential would examine 80 × 100 = 8,000 keys; skip-scan stays
        // near matches + seek overhead.
        assert!(
            stats.keys_examined < 2_000,
            "keys {} seeks {}",
            stats.keys_examined,
            stats.seeks
        );
        assert!(stats.seeks >= 80, "one seek per leading value at least");
    }

    #[test]
    fn skip_scan_empty_interval_returns_nothing() {
        let mut idx = hil_index();
        for i in 0..50u64 {
            idx.insert_doc(&point_doc(23.0, 37.9, i as i64), i);
        }
        let stats = idx.skip_scan_2d(
            &ScanRange::whole(),
            &Value::DateTime(DateTime::from_millis(1_000)),
            &Value::DateTime(DateTime::from_millis(500)),
            |_, _| -> ControlFlow<()> { panic!("no matches expected") },
        );
        assert!(stats.keys_examined <= 100);
    }

    #[test]
    fn estimate_ranges_tracks_size() {
        let mut idx = hil_index();
        for i in 0..5_000u64 {
            idx.insert_doc(&point_doc(23.0 + (i % 50) as f64 * 0.01, 37.9, i as i64), i);
        }
        let est = idx.estimate_ranges(&[ScanRange::whole()]);
        assert!(est > 2_500 && est <= 5_000, "{est}");
    }
}
