//! A shard: one `mongod` holding a slice of the collection.

use crate::shardkey::ShardKey;
use std::ops::Bound;
use sts_btree::SizeReport;
use sts_document::Document;
use sts_encoding::encoded_len;
use sts_index::{IndexSpec, ScanRange};
use sts_query::LocalCollection;
use sts_storage::CollectionStats;

/// One cluster node's data.
pub struct Shard {
    id: usize,
    collection: LocalCollection,
}

impl Shard {
    /// Fresh shard with the given index definitions.
    pub fn new(id: usize, index_specs: &[IndexSpec]) -> Self {
        let mut collection = LocalCollection::new();
        for spec in index_specs {
            collection.create_index(spec.clone());
        }
        Shard { id, collection }
    }

    /// Shard id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The shard-local collection (read access for query execution).
    pub fn collection(&self) -> &LocalCollection {
        &self.collection
    }

    /// Mutable collection access (deletes, migrations).
    pub fn collection_mut(&mut self) -> &mut LocalCollection {
        &mut self.collection
    }

    /// Insert a document.
    pub fn insert(&mut self, doc: &Document) -> Result<(), String> {
        self.collection.insert(doc).map(|_| ())
    }

    /// Insert a document carrying an explicit insert-epoch stamp — the
    /// recipient side of a chunk migration uses this so staged records
    /// stay staged (invisible) after crossing shards.
    pub fn insert_at_epoch(&mut self, doc: &Document, epoch: u64) -> Result<u64, String> {
        self.collection.insert_at_epoch(doc, epoch)
    }

    /// Live document count.
    pub fn len(&self) -> usize {
        self.collection.len()
    }

    /// True when the shard holds nothing.
    pub fn is_empty(&self) -> bool {
        self.collection.is_empty()
    }

    /// Storage statistics.
    pub fn stats(&self) -> CollectionStats {
        self.collection.stats()
    }

    /// Per-index size reports.
    pub fn index_sizes(&self) -> Vec<(String, SizeReport)> {
        self.collection.indexes().size_reports()
    }

    /// Visit the raw entry keys and record ids of the shard-key index
    /// named `index_name` whose shard key lies in `[min, max)`, in key
    /// order.
    fn scan_key_range(
        &self,
        index_name: &str,
        min: &[u8],
        max: Option<&[u8]>,
        f: impl FnMut(&[u8], u64),
    ) {
        let Some(index) = self.collection.indexes().get(index_name) else {
            return;
        };
        let range = ScanRange {
            lower: if min.is_empty() {
                Bound::Unbounded
            } else {
                Bound::Included(min.to_vec())
            },
            upper: match max {
                None => Bound::Unbounded,
                Some(m) => Bound::Excluded(m.to_vec()),
            },
        };
        index.scan_raw(&range, f);
    }

    /// Record ids of documents whose shard key lies in `[min, max)`,
    /// found through the shard-key index named `index_name`.
    pub fn record_ids_in_key_range(
        &self,
        index_name: &str,
        min: &[u8],
        max: Option<&[u8]>,
    ) -> Vec<u64> {
        let mut rids = Vec::new();
        self.scan_key_range(index_name, min, max, |_, rid| rids.push(rid));
        rids
    }

    /// Sorted shard-key byte strings of every document in `[min, max)` —
    /// split-point discovery walks these to find the median.
    ///
    /// They are read off the shard-key index's own entries, no document
    /// fetched: that index starts with the shard key's fields, so the
    /// first `shard_key.fields.len()` encoded values of an entry are the
    /// bytes [`ShardKey::key_bytes`] gives its document.
    pub fn shard_keys_in_range(
        &self,
        shard_key: &ShardKey,
        index_name: &str,
        min: &[u8],
        max: Option<&[u8]>,
    ) -> Vec<Vec<u8>> {
        let fields = shard_key.fields.len();
        let mut keys = Vec::new();
        self.scan_key_range(index_name, min, max, |key, _| {
            let mut len = 0;
            for _ in 0..fields {
                len += encoded_len(&key[len..]).expect("index key corrupt");
            }
            keys.push(key[..len].to_vec());
        });
        keys
    }

    /// Non-destructive read of every record in the key range with its
    /// record id and insert-epoch stamp — the copy phase of a two-phase
    /// chunk migration. The donor keeps everything until the commit
    /// phase deletes by these record ids.
    pub fn records_in_key_range(
        &self,
        index_name: &str,
        min: &[u8],
        max: Option<&[u8]>,
    ) -> Vec<(u64, Document, u64)> {
        self.record_ids_in_key_range(index_name, min, max)
            .into_iter()
            .filter_map(|rid| {
                let doc = self.collection.get(rid)?;
                let epoch = self.collection.epoch_of(rid)?;
                Some((rid, doc, epoch))
            })
            .collect()
    }

    /// Remove and return every document in the key range (the donor side
    /// of a chunk migration).
    pub fn extract_range(
        &mut self,
        index_name: &str,
        min: &[u8],
        max: Option<&[u8]>,
    ) -> Vec<Document> {
        let rids = self.record_ids_in_key_range(index_name, min, max);
        rids.into_iter()
            .filter_map(|rid| self.collection.remove(rid))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_document::{doc, DateTime};
    use sts_index::IndexField;

    fn specs() -> Vec<IndexSpec> {
        vec![
            IndexSpec::single("_id"),
            IndexSpec::new(
                "hilbertIndex_1_date_1",
                vec![IndexField::asc("hilbertIndex"), IndexField::asc("date")],
            ),
        ]
    }

    fn d(h: i64, t: i64) -> Document {
        let mut d = doc! {"hilbertIndex" => h, "date" => DateTime::from_millis(t)};
        d.ensure_id(0);
        d
    }

    #[test]
    fn key_range_extraction() {
        let sk = ShardKey::range(&["hilbertIndex", "date"]);
        let mut s = Shard::new(3, &specs());
        for h in 0..10 {
            s.insert(&d(h, h * 100)).unwrap();
        }
        assert_eq!(s.id(), 3);
        assert_eq!(s.len(), 10);

        let lo = sk.encode_prefix(&[sts_document::Value::Int64(3)]);
        let hi = sk.encode_prefix(&[sts_document::Value::Int64(7)]);
        let rids = s.record_ids_in_key_range("hilbertIndex_1_date_1", &lo, Some(&hi));
        assert_eq!(rids.len(), 4); // h = 3,4,5,6

        let keys = s.shard_keys_in_range(&sk, "hilbertIndex_1_date_1", &lo, Some(&hi));
        assert_eq!(keys.len(), 4);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "sorted by key");
        // Read off the index, the keys are the ones the documents give.
        let from_docs: Vec<Vec<u8>> = rids
            .iter()
            .map(|&rid| sk.key_bytes(&s.collection().get(rid).unwrap()))
            .collect();
        assert_eq!(keys, from_docs);

        let moved = s.extract_range("hilbertIndex_1_date_1", &lo, Some(&hi));
        assert_eq!(moved.len(), 4);
        assert_eq!(s.len(), 6);
        // Unbounded extraction empties the shard.
        let rest = s.extract_range("hilbertIndex_1_date_1", &[], None);
        assert_eq!(rest.len(), 6);
        assert!(s.is_empty());
    }
}
