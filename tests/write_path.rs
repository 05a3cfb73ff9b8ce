//! The write path's contract: a write stores the caller's document, as
//! bytes for size accounting and as the document fetches serve, and the
//! two never disagree — after an insert, after a staged insert and after
//! a chunk migration. Documents the encoding cannot store are refused
//! with an `Err`, and a batch holding one is rolled back whole.

use proptest::prelude::*;
use std::collections::BTreeMap;
use sts::cluster::{Cluster, ClusterConfig, ShardKey};
use sts::core::{Approach, StStore, StoreConfig};
use sts::document::{decode_document, DateTime, Document, ObjectId, Value};
use sts::workload::fleet::{generate, FleetConfig};
use sts::workload::Record;

// ------------------------------------------------- arbitrary documents

/// Arbitrary scalar values (finite doubles: NaN is never `==` itself).
fn scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i32>().prop_map(Value::Int32),
        any::<i64>().prop_map(Value::Int64),
        prop_oneof![
            any::<f64>().prop_filter("finite", |x| x.is_finite()),
            Just(0.0),
            Just(-0.0)
        ]
        .prop_map(Value::Double),
        "[a-zA-Z0-9 _.-]{0,24}".prop_map(Value::from),
        any::<i64>().prop_map(|ms| Value::DateTime(DateTime::from_millis(ms))),
        any::<[u8; 12]>().prop_map(|b| Value::ObjectId(ObjectId::from_bytes(b))),
    ]
}

/// Arbitrary value trees up to depth 3.
fn value_tree() -> impl Strategy<Value = Value> {
    scalar().prop_recursive(3, 24, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..5).prop_map(Value::Array),
            proptest::collection::vec(("[a-z]{1,8}", inner), 0..5).prop_map(|fields| {
                let mut d = Document::new();
                for (k, v) in fields {
                    d.set(k, v);
                }
                Value::Document(d)
            }),
        ]
    })
}

fn document() -> impl Strategy<Value = Document> {
    proptest::collection::vec(("[a-zA-Z][a-zA-Z0-9_]{0,11}", value_tree()), 0..10).prop_map(
        |fields| {
            let mut d = Document::new();
            for (k, v) in fields {
                d.set(k, v);
            }
            d
        },
    )
}

/// Every live record of the cluster by `_id`: its cached document and
/// insert epoch, after checking that the cached document equals a
/// decode of the record's stored bytes.
fn records(c: &Cluster) -> BTreeMap<ObjectId, (Document, u64)> {
    let mut out = BTreeMap::new();
    for shard in c.shards() {
        let coll = shard.collection();
        for (rid, doc) in coll.iter() {
            let stored = decode_document(coll.get_raw(rid).expect("live record has bytes"))
                .expect("stored bytes decode");
            assert_eq!(stored, doc);
            let epoch = coll.epoch_of(rid).expect("live record has an epoch");
            out.insert(doc.object_id().expect("`_id` stamped"), (doc, epoch));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The cached document is the caller's document and equals a decode
    /// of the stored bytes — after a plain insert, after a staged one,
    /// and again after the chunk holding them moves shards. Mutating the
    /// caller's handles afterwards reaches none of it.
    #[test]
    fn cached_document_equals_stored_bytes_through_migration(
        docs in proptest::collection::vec(document(), 2..16),
        staged_from in 0usize..16,
    ) {
        let mut c = Cluster::new(
            ClusterConfig {
                num_shards: 2,
                max_chunk_bytes: u64::MAX,
                ..Default::default()
            },
            ShardKey::range(&["k"]),
            vec![],
        );
        let mut docs = docs;
        for (i, d) in docs.iter_mut().enumerate() {
            d.set("k", i as i64);
            d.ensure_id(i as u32);
        }
        for (i, d) in docs.iter().enumerate() {
            if i < staged_from {
                c.insert(d).unwrap();
            } else {
                c.stage(d).unwrap();
            }
        }
        let staged_epoch = c.snapshot_epoch() + 1;
        let before = records(&c);
        prop_assert_eq!(before.len(), docs.len());
        for (i, d) in docs.iter().enumerate() {
            let (cached, epoch) = &before[&d.object_id().unwrap()];
            prop_assert_eq!(cached, d);
            prop_assert_eq!(*epoch, if i < staged_from { 0 } else { staged_epoch });
        }

        // The caller keeps writing to its own handles.
        let kept = docs.clone();
        for d in &mut docs {
            d.set("k", -1i64);
            d.set("extra", "written after insert");
        }
        prop_assert_eq!(&records(&c), &before);

        // Split the single chunk, then move each half to the other shard.
        c.split_chunk(0);
        prop_assert_eq!(c.chunk_map().len(), 2);
        for cidx in 0..2 {
            let dst = 1 - c.chunk_map().chunks()[cidx].shard;
            prop_assert!(c.migrate_chunk(cidx, dst));
        }
        prop_assert!(c.migration_stats().docs_moved >= kept.len() as u64);
        prop_assert_eq!(&records(&c), &before);
    }
}

// ---------------------------------------------------- hostile writes

fn loaded_store() -> (StStore, Vec<Document>) {
    let records = generate(&FleetConfig {
        records: 600,
        vehicles: 12,
        extra_fields: 3,
        ..Default::default()
    });
    let docs: Vec<Document> = records.iter().map(Record::to_document).collect();
    let mut store = StStore::new(StoreConfig {
        approach: Approach::Hil,
        num_shards: 3,
        max_chunk_bytes: 16 * 1024,
        ..Default::default()
    });
    store.bulk_load(docs[..400].iter().cloned()).unwrap();
    (store, docs[400..].to_vec())
}

/// Documents with a NUL byte in a field name: at the top level, in a
/// nested document, and in a document inside an array.
fn hostile(base: &Document) -> Vec<Document> {
    let mut top = base.clone();
    top.set("bad\0name", 1i32);
    let mut nested = base.clone();
    nested.set("meta", Value::Document(sts::document::doc! {"a\0" => 1i32}));
    let mut in_array = base.clone();
    in_array.set(
        "tags",
        vec![
            Value::from(1i32),
            Value::Document(sts::document::doc! {"\0" => "x"}),
        ],
    );
    vec![top, nested, in_array]
}

/// The cluster's bookkeeping that a refused write must leave untouched.
fn footprint(store: &StStore) -> (u64, u64, u64, u64, usize) {
    let c = store.cluster();
    let chunk_docs = c.chunk_map().chunks().iter().map(|ch| ch.docs).sum();
    let chunk_bytes = c.chunk_map().chunks().iter().map(|ch| ch.bytes).sum();
    let visible = c
        .shards()
        .iter()
        .map(|s| s.collection().visible_len())
        .sum();
    (
        c.doc_count(),
        c.snapshot_epoch(),
        chunk_docs,
        chunk_bytes,
        visible,
    )
}

#[test]
fn nul_in_a_field_name_is_an_error_not_a_panic() {
    let (mut store, fresh) = loaded_store();
    let before = footprint(&store);
    for bad in hostile(&fresh[0]) {
        let err = store.insert(bad).unwrap_err();
        assert!(err.contains("NUL"), "{err}");
    }
    assert_eq!(footprint(&store), before);
    // The store still takes well-formed writes.
    store.insert(fresh[0].clone()).unwrap();
    assert_eq!(store.cluster().doc_count(), before.0 + 1);
}

#[test]
fn a_hostile_document_rolls_its_batch_back_whole() {
    let (mut store, fresh) = loaded_store();
    let before = footprint(&store);
    for bad in hostile(&fresh[0]) {
        // Good documents on either side of the hostile one: the ones
        // staged before it must be removed again.
        let mut batch: Vec<Document> = fresh[..80].to_vec();
        batch.insert(40, bad);
        let err = store.insert_batch(batch).unwrap_err();
        assert!(err.contains("NUL"), "{err}");
        assert_eq!(footprint(&store), before, "nothing staged survives");
    }
    let n = store.insert_batch(fresh[..80].to_vec()).unwrap();
    assert_eq!(n, 80);
    let after = footprint(&store);
    assert_eq!(after.0, before.0 + 80);
    assert_eq!(after.1, before.1 + 1, "one commit");
    assert_eq!(after.4, before.4 + 80, "the whole batch is visible");
}
