//! Per-shard index management.

use crate::index::Index;
use crate::spec::IndexSpec;
use sts_btree::SizeReport;
use sts_document::Document;

/// All indexes of one shard's collection slice, maintained together.
///
/// MongoDB always maintains the `_id` index plus the shard-key index
/// plus any user indexes (§A.3 counts exactly these when comparing
/// memory footprints).
#[derive(Default)]
pub struct IndexManager {
    indexes: Vec<Index>,
}

impl IndexManager {
    /// No indexes yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an index. Panics on duplicate names (caller bug).
    pub fn create_index(&mut self, spec: IndexSpec) {
        assert!(
            self.get(&spec.name).is_none(),
            "duplicate index name {:?}",
            spec.name
        );
        self.indexes.push(Index::new(spec));
    }

    /// Look up by name.
    pub fn get(&self, name: &str) -> Option<&Index> {
        self.indexes.iter().find(|i| i.spec().name == name)
    }

    /// Iterate all indexes.
    pub fn iter(&self) -> impl Iterator<Item = &Index> {
        self.indexes.iter()
    }

    /// Number of indexes.
    pub fn len(&self) -> usize {
        self.indexes.len()
    }

    /// True when no indexes exist.
    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }

    /// Every index's [`key_prefix`](Index::key_prefix) for `doc`, in
    /// index order — extracted once, both to validate a write before it
    /// is stored and to index it after — or the spec of the first index
    /// that cannot hold the document.
    pub fn key_prefixes(&self, doc: &Document) -> Result<Vec<Vec<u8>>, &IndexSpec> {
        self.indexes
            .iter()
            .map(|i| i.key_prefix(doc).ok_or(i.spec()))
            .collect()
    }

    /// Index record `record_id` everywhere under the prefixes
    /// [`key_prefixes`](Self::key_prefixes) took from its document.
    pub fn insert_prefixes(&mut self, prefixes: Vec<Vec<u8>>, record_id: u64) {
        debug_assert_eq!(prefixes.len(), self.indexes.len());
        for (index, prefix) in self.indexes.iter_mut().zip(prefixes) {
            index.insert_prefix(prefix, record_id);
        }
    }

    /// Remove a document everywhere.
    pub fn remove_doc(&mut self, doc: &Document, record_id: u64) {
        for i in &mut self.indexes {
            i.remove_doc(doc, record_id);
        }
    }

    /// Per-index size reports: `(name, report)` (Fig. 14's breakdown).
    pub fn size_reports(&self) -> Vec<(String, SizeReport)> {
        self.indexes
            .iter()
            .map(|i| (i.spec().name.clone(), i.size_report()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{IndexField, IndexSpec};
    use sts_document::{doc, DateTime, Value};

    fn mgr() -> IndexManager {
        let mut m = IndexManager::new();
        m.create_index(IndexSpec::single("_id"));
        m.create_index(IndexSpec::new(
            "st",
            vec![IndexField::asc("hilbertIndex"), IndexField::asc("date")],
        ));
        m
    }

    fn d(i: i64) -> Document {
        let mut d = doc! {
            "hilbertIndex" => i,
            "date" => DateTime::from_millis(i * 1_000),
            "v" => Value::from(i as f64),
        };
        d.ensure_id(i as u32);
        d
    }

    #[test]
    fn maintains_all_indexes() {
        let mut m = mgr();
        // Keep the exact documents around: `_id` generation is unique per
        // call, and removal must present the same document that was
        // indexed (as the store layer does).
        let (da, db) = (d(1), d(2));
        for (doc, rid) in [(&da, 0), (&db, 1)] {
            let prefixes = m.key_prefixes(doc).unwrap();
            m.insert_prefixes(prefixes, rid);
        }
        assert_eq!(m.get("_id").unwrap().len(), 2);
        assert_eq!(m.get("st").unwrap().len(), 2);
        m.remove_doc(&da, 0);
        assert_eq!(m.get("_id").unwrap().len(), 1);
        assert_eq!(m.get("st").unwrap().len(), 1);
    }

    #[test]
    fn size_reports_cover_all_indexes() {
        let mut m = mgr();
        for i in 0..100 {
            let prefixes = m.key_prefixes(&d(i)).unwrap();
            m.insert_prefixes(prefixes, i as u64);
        }
        let reports = m.size_reports();
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|(_, r)| r.entries == 100));
    }

    #[test]
    fn key_prefixes_name_the_rejecting_index() {
        let mut m = mgr();
        m.create_index(IndexSpec::new("geo", vec![IndexField::geo("location")]));
        let err = m.key_prefixes(&d(1)).unwrap_err();
        assert_eq!(err.name, "geo");
    }

    #[test]
    #[should_panic(expected = "duplicate index name")]
    fn rejects_duplicate_names() {
        let mut m = mgr();
        m.create_index(IndexSpec::single("_id"));
    }
}
