//! Collection-level storage: serialized documents for size accounting,
//! the caller's documents for fetches.

use crate::heap::{RecordHeap, RecordId};
use crate::snappy_lite;
use crate::BLOCK_SIZE;
use sts_document::{encode_document, Document};

/// One shard's slice of a collection: serialized documents in a record
/// heap, sized like a WiredTiger table.
///
/// Alongside the serialized heap the store keeps a document cache, one
/// slot per record id — the analogue of WiredTiger's in-memory page
/// images. A write encodes its document once, into the heap, and caches
/// a copy-on-write clone of the caller's own document; nothing is ever
/// decoded on the write path. [`get`](CollectionStore::get) serves
/// another clone (a reference-count bump), which is what makes the
/// executor's fetch stage allocation-free. The cached document equals a
/// decode of the stored bytes because a `Document` never holds a
/// duplicate field name and its writers reject names the encoding
/// cannot store ([`sts_document::check_encodable`]). Size accounting
/// ([`stats`](CollectionStore::stats)) measures the serialized heap
/// only, so Table 6 numbers are unaffected.
///
/// For live ingestion every record also carries an **insert epoch** —
/// a generation stamp assigned at write time. Bulk-loaded records are
/// stamped epoch 0 and are always visible; records staged by a batched
/// concurrent ingest get the batch's (not-yet-committed) epoch and stay
/// invisible to [`get_visible`](CollectionStore::get_visible) readers
/// until the owning collection publishes that epoch. Because the stamp
/// lives on the record it survives chunk migrations: a staged document
/// copied to another shard is still staged there.
#[derive(Default)]
pub struct CollectionStore {
    heap: RecordHeap,
    docs: Vec<Option<Document>>,
    epochs: Vec<u64>,
}

/// Size statistics for a collection store (Table 6's `dataSize` /
/// `storageSize` distinction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CollectionStats {
    /// Live documents.
    pub documents: u64,
    /// Sum of serialized document sizes (MongoDB's `dataSize`).
    pub data_bytes: u64,
    /// Snappy-lite-compressed block footprint (`storageSize`).
    pub storage_bytes: u64,
}

impl CollectionStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Serialize and store a document at epoch 0 (always visible).
    pub fn insert(&mut self, doc: &Document) -> RecordId {
        self.insert_at(doc, 0)
    }

    /// Serialize and store a document stamped with `epoch`. Records with
    /// an epoch above a reader's snapshot are invisible to
    /// [`get_visible`](Self::get_visible) and the `*_visible` iterators.
    ///
    /// The caller must have checked `doc` with
    /// [`check_encodable`](sts_document::check_encodable); the cache then
    /// holds a clone of `doc` that equals a decode of the stored bytes.
    pub fn insert_at(&mut self, doc: &Document, epoch: u64) -> RecordId {
        debug_assert!(sts_document::check_encodable(doc).is_ok());
        let id = self.heap.insert(encode_document(doc));
        debug_assert_eq!(id as usize, self.docs.len());
        self.docs.push(Some(doc.clone()));
        self.epochs.push(epoch);
        id
    }

    /// Fetch a document: a copy-on-write clone of the cached one.
    pub fn get(&self, id: RecordId) -> Option<Document> {
        self.docs.get(id as usize)?.clone()
    }

    /// Fetch a document only if its insert epoch is within `snapshot`
    /// (i.e. `epoch <= snapshot`). Staged records read as absent — the
    /// same answer a tombstone gives — so a scan that raced a batch
    /// simply never sees the uncommitted documents. Borrowed: a reader
    /// clones only what it keeps.
    pub fn get_visible(&self, id: RecordId, snapshot: u64) -> Option<&Document> {
        if *self.epochs.get(id as usize)? > snapshot {
            return None;
        }
        self.docs.get(id as usize)?.as_ref()
    }

    /// The insert epoch a live record was stamped with.
    pub fn epoch_of(&self, id: RecordId) -> Option<u64> {
        self.docs.get(id as usize)?.as_ref()?;
        self.epochs.get(id as usize).copied()
    }

    /// Raw serialized bytes of a document (cheaper than decoding when
    /// only shipping it elsewhere, e.g. a chunk migration).
    pub fn get_raw(&self, id: RecordId) -> Option<&[u8]> {
        self.heap.get(id)
    }

    /// Remove a document, returning it.
    pub fn remove(&mut self, id: RecordId) -> Option<Document> {
        self.heap.remove(id)?;
        self.docs.get_mut(id as usize)?.take()
    }

    /// Live document count.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Iterate live `(id, document)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RecordId, Document)> + '_ {
        self.docs
            .iter()
            .enumerate()
            .filter_map(|(id, d)| Some((id as RecordId, d.clone()?)))
    }

    /// Iterate live `(id, document)` pairs visible at `snapshot`.
    pub fn iter_visible(&self, snapshot: u64) -> impl Iterator<Item = (RecordId, Document)> + '_ {
        self.docs
            .iter()
            .zip(self.epochs.iter())
            .enumerate()
            .filter_map(move |(id, (d, &epoch))| {
                if epoch > snapshot {
                    return None;
                }
                Some((id as RecordId, d.clone()?))
            })
    }

    /// Live document count visible at `snapshot`.
    pub fn visible_len(&self, snapshot: u64) -> usize {
        self.docs
            .iter()
            .zip(self.epochs.iter())
            .filter(|(d, &epoch)| d.is_some() && epoch <= snapshot)
            .count()
    }

    /// Compute size statistics: documents are packed into
    /// [`BLOCK_SIZE`] blocks in record order and each block is
    /// compressed independently, like WiredTiger's block manager.
    pub fn stats(&self) -> CollectionStats {
        let mut storage = 0u64;
        let mut block = Vec::with_capacity(BLOCK_SIZE * 2);
        for (_, bytes) in self.heap.iter() {
            block.extend_from_slice(bytes);
            if block.len() >= BLOCK_SIZE {
                storage += snappy_lite::compressed_size(&block) as u64;
                block.clear();
            }
        }
        if !block.is_empty() {
            storage += snappy_lite::compressed_size(&block) as u64;
        }
        CollectionStats {
            documents: self.heap.len() as u64,
            data_bytes: self.heap.live_bytes(),
            storage_bytes: storage,
        }
    }
}

impl CollectionStats {
    /// Accumulate stats across shards.
    pub fn merge(&mut self, other: &CollectionStats) {
        self.documents += other.documents;
        self.data_bytes += other.data_bytes;
        self.storage_bytes += other.storage_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_document::{doc, DateTime, Value};

    fn sample(i: i64) -> Document {
        let mut d = doc! {
            "location" => doc! {
                "type" => "Point",
                "coordinates" => vec![
                    Value::from(23.7 + i as f64 * 1e-4),
                    Value::from(37.9 + i as f64 * 1e-4),
                ],
            },
            "date" => DateTime::from_millis(1_538_000_000_000 + i * 30_000),
            "vehicleId" => format!("veh-{}", i % 50),
        };
        d.ensure_id(1_538_000_000 + (i / 1000) as u32);
        d
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut c = CollectionStore::new();
        let d = sample(1);
        let id = c.insert(&d);
        assert_eq!(c.get(id).unwrap(), d);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn remove_returns_document() {
        let mut c = CollectionStore::new();
        let d = sample(2);
        let id = c.insert(&d);
        assert_eq!(c.remove(id).unwrap(), d);
        assert!(c.get(id).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn cached_fetch_matches_cold_decode() {
        let mut c = CollectionStore::new();
        let d = sample(7);
        let id = c.insert(&d);
        // The cached document must equal a decode of the raw bytes —
        // byte-for-byte the same view a cacheless store would serve.
        let cold = sts_document::decode_document(c.get_raw(id).unwrap()).unwrap();
        assert_eq!(c.get(id).unwrap(), cold);
        // Mutating a fetched copy never leaks back into the cache.
        let mut fetched = c.get(id).unwrap();
        fetched.set("vehicleId", "hacked");
        assert_eq!(c.get(id).unwrap(), cold);
        // Tombstoned slots serve nothing.
        c.remove(id);
        assert!(c.get(id).is_none());
        assert!(c.iter().next().is_none());
    }

    #[test]
    fn caller_mutation_after_insert_does_not_reach_the_store() {
        let mut c = CollectionStore::new();
        let mut d = sample(8);
        let kept = d.clone();
        let id = c.insert(&d);
        d.set("vehicleId", "rewritten");
        d.remove("date");
        assert_eq!(c.get(id).unwrap(), kept);
        let cold = sts_document::decode_document(c.get_raw(id).unwrap()).unwrap();
        assert_eq!(cold, kept);
    }

    #[test]
    fn staged_records_invisible_until_snapshot_advances() {
        let mut c = CollectionStore::new();
        let base = c.insert(&sample(0));
        let staged = c.insert_at(&sample(1), 3);
        assert_eq!(c.epoch_of(base), Some(0));
        assert_eq!(c.epoch_of(staged), Some(3));
        // Plain `get` is snapshot-blind (used by migrations/debug).
        assert!(c.get(staged).is_some());
        // Snapshot 2 sees only the bulk-loaded record.
        assert!(c.get_visible(base, 2).is_some());
        assert!(c.get_visible(staged, 2).is_none());
        assert_eq!(c.visible_len(2), 1);
        assert_eq!(c.iter_visible(2).count(), 1);
        // Snapshot 3 (epoch committed) sees both.
        assert!(c.get_visible(staged, 3).is_some());
        assert_eq!(c.visible_len(3), 2);
        assert_eq!(c.iter_visible(3).count(), 2);
    }

    #[test]
    fn epoch_of_respects_tombstones() {
        let mut c = CollectionStore::new();
        let id = c.insert_at(&sample(4), 7);
        c.remove(id);
        assert_eq!(c.epoch_of(id), None);
        assert!(c.get_visible(id, u64::MAX).is_none());
        assert_eq!(c.visible_len(u64::MAX), 0);
    }

    #[test]
    fn stats_compress_structured_documents() {
        let mut c = CollectionStore::new();
        for i in 0..2_000 {
            c.insert(&sample(i));
        }
        let s = c.stats();
        assert_eq!(s.documents, 2_000);
        assert!(s.data_bytes > 0);
        assert!(
            s.storage_bytes < s.data_bytes,
            "compression must help on shared-field documents: {s:?}"
        );
    }

    #[test]
    fn stats_merge() {
        let mut c = CollectionStore::new();
        c.insert(&sample(0));
        let s = c.stats();
        let mut total = CollectionStats::default();
        total.merge(&s);
        total.merge(&s);
        assert_eq!(total.documents, 2);
        assert_eq!(total.data_bytes, 2 * s.data_bytes);
    }

    #[test]
    fn extra_field_grows_data_size() {
        let mut with = CollectionStore::new();
        let mut without = CollectionStore::new();
        for i in 0..100 {
            let mut d = sample(i);
            without.insert(&d);
            d.set("hilbertIndex", 59_207_919i64 + i);
            with.insert(&d);
        }
        // Table 6's effect: the hil collections are marginally larger.
        assert!(with.stats().data_bytes > without.stats().data_bytes);
    }
}
