//! Interleaved ingest + query on one collection and on the full
//! store: a staged batch is invisible in full until its commit and
//! visible in full after — never a torn prefix — and the decoded-doc
//! cache (PR 4) stays coherent across the stage/commit boundary.

mod support;

use sts::core::{Approach, StQuery};
use sts::document::{doc, DateTime, Document, Value};
use sts::geo::GeoRect;
use sts::index::{IndexField, IndexSpec};
use sts::query::{Filter, LocalCollection};
use support::oracle::{result_id_set, Oracle};
use support::store_for;

fn fix(id: u32, lon: f64, lat: f64, ms: i64) -> Document {
    let mut d = doc! {
        "location" => doc! {
            "type" => "Point",
            "coordinates" => vec![Value::from(lon), Value::from(lat)],
        },
        "date" => DateTime::from_millis(ms),
    };
    d.ensure_id(id);
    d
}

fn mbr() -> GeoRect {
    GeoRect::new(20.0, 35.0, 28.0, 41.5)
}

fn everything() -> StQuery {
    StQuery {
        rect: mbr(),
        t0: DateTime::from_millis(0),
        t1: DateTime::from_millis(10_000_000),
    }
}

/// Corpus of `n` fixes spread across the MBR and timeline.
fn corpus(n: usize, id_base: u32) -> Vec<Document> {
    (0..n)
        .map(|i| {
            let f = i as f64 / n as f64;
            fix(
                id_base + i as u32,
                20.5 + 7.0 * f,
                35.5 + 5.5 * ((i * 37 % n) as f64 / n as f64),
                (i as i64 * 9_973) % 8_000_000,
            )
        })
        .collect()
}

// ------------------------------------------------- LocalCollection

/// The core atomicity property on a single collection: every query
/// between stage and commit sees *none* of the batch; every query
/// after commit sees *all* of it. Both the executor path (`find`) and
/// the visibility-aware full scan agree at each point.
#[test]
fn staged_batch_is_all_or_nothing_on_one_collection() {
    let mut coll = LocalCollection::new();
    coll.create_index(IndexSpec::single("_id"));
    coll.create_index(IndexSpec::new("date_1", vec![IndexField::asc("date")]));

    let base = corpus(40, 0);
    for d in &base {
        coll.insert(d).unwrap();
    }
    let batch = corpus(25, 1_000);

    let all = Filter::gte("date", DateTime::from_millis(0));
    let (docs, _) = coll.find(&all);
    assert_eq!(docs.len(), 40);

    // Stage the batch one document at a time: after *each* stage the
    // reader still sees exactly the base corpus — a torn batch would
    // surface here as a partial prefix.
    for (i, d) in batch.iter().enumerate() {
        coll.stage(d).unwrap();
        let (docs, _) = coll.find(&all);
        assert_eq!(
            docs.len(),
            40,
            "staged doc {i} leaked into query results before commit"
        );
        assert_eq!(coll.find_collscan(&all).len(), 40);
        assert_eq!(coll.visible_len(), 40);
        assert_eq!(coll.len(), 40 + i + 1, "staged docs are stored");
    }

    // One commit flips the whole batch visible at once.
    coll.commit_batch();
    let (docs, _) = coll.find(&all);
    assert_eq!(docs.len(), 65, "commit publishes the entire batch");
    assert_eq!(coll.find_collscan(&all).len(), 65);
    assert_eq!(coll.visible_len(), 65);

    // And the published set is exactly base ∪ batch by `_id`.
    let got = result_id_set(&docs);
    let want: std::collections::BTreeSet<_> = base
        .iter()
        .chain(&batch)
        .map(|d| d.object_id().unwrap())
        .collect();
    assert_eq!(got, want);
}

/// The decoded-document cache serves reads both below and above the
/// snapshot correctly: `get` (snapshot-blind) and `get_visible` agree
/// before and after the commit, and repeated reads — which hit the
/// cache — never change their answer mid-batch.
#[test]
fn decoded_cache_stays_coherent_across_commit() {
    let mut coll = LocalCollection::new();
    coll.create_index(IndexSpec::single("_id"));

    let d0 = fix(1, 21.0, 36.0, 1_000);
    let rid0 = coll.insert(&d0).unwrap();
    let d1 = fix(2, 22.0, 37.0, 2_000);
    let rid1 = coll.stage(&d1).unwrap();

    let snap = coll.snapshot();
    for _ in 0..3 {
        // Repeated (cached) reads: stable answers while staged.
        assert_eq!(coll.get(rid0).as_ref(), Some(&d0));
        assert_eq!(coll.get_visible(rid0, snap), Some(&d0));
        assert_eq!(
            coll.get(rid1).as_ref(),
            Some(&d1),
            "snapshot-blind read serves the staged record"
        );
        assert_eq!(
            coll.get_visible(rid1, snap),
            None,
            "snapshot read must not serve the staged record"
        );
    }
    assert_eq!(coll.epoch_of(rid0), Some(0));
    assert_eq!(coll.epoch_of(rid1), Some(snap + 1));

    coll.commit_batch();
    let snap = coll.snapshot();
    for _ in 0..3 {
        assert_eq!(
            coll.get_visible(rid1, snap),
            Some(&d1),
            "the same cached record flips visible after commit"
        );
    }
    // A reader pinned to the old snapshot still excludes the batch —
    // the visibility decision is per-read, not baked into the cache.
    assert_eq!(coll.get_visible(rid1, snap - 1), None);
    assert_eq!(coll.get_visible(rid0, snap - 1), Some(&d0));
}

/// Two batches staged back-to-back without an intervening commit form
/// one visibility unit: a single commit publishes both.
#[test]
fn consecutive_stages_merge_into_one_visibility_unit() {
    let mut coll = LocalCollection::new();
    coll.create_index(IndexSpec::single("_id"));
    let a = fix(1, 21.0, 36.0, 1_000);
    let b = fix(2, 22.0, 37.0, 2_000);
    let ra = coll.stage(&a).unwrap();
    let rb = coll.stage(&b).unwrap();
    assert_eq!(coll.epoch_of(ra), coll.epoch_of(rb));
    assert_eq!(coll.visible_len(), 0);
    coll.commit_batch();
    assert_eq!(coll.visible_len(), 2);
}

// ------------------------------------------------------- full store

/// The store-level version, across every approach: interleave staged
/// batches with spatio-temporal queries and check each query matches
/// the oracle over exactly the committed corpus — full invisibility
/// before each commit, full visibility after.
#[test]
fn interleaved_ingest_and_queries_match_the_oracle_per_approach() {
    let base = corpus(120, 0);
    let batches: Vec<Vec<Document>> = (0..3).map(|b| corpus(30, 10_000 + 100 * b)).collect();
    let probes = [
        everything(),
        StQuery {
            rect: GeoRect::new(21.0, 35.5, 26.5, 40.0),
            t0: DateTime::from_millis(500_000),
            t1: DateTime::from_millis(6_500_000),
        },
    ];

    for approach in Approach::ALL {
        let mut store = store_for(approach, &base, mbr(), 4);
        let mut committed = base.clone();
        for batch in &batches {
            // Stage the whole batch, then query: nothing of it shows.
            for d in batch {
                store.stage(d.clone()).unwrap();
            }
            let oracle = Oracle::new(committed.clone());
            for q in &probes {
                let (docs, _) = store.st_query(q);
                assert_eq!(
                    result_id_set(&docs),
                    oracle.id_set(q),
                    "{approach}: staged batch visible before commit"
                );
            }

            store.commit_batch();
            committed.extend(batch.iter().cloned());
            let oracle = Oracle::new(committed.clone());
            for q in &probes {
                let (docs, _) = store.st_query(q);
                assert_eq!(
                    result_id_set(&docs),
                    oracle.id_set(q),
                    "{approach}: committed batch not fully visible"
                );
            }
        }
        assert_eq!(store.doc_count(), committed.len() as u64);
    }
}

/// `insert_batch` is equivalent to stage-all + commit: the batch
/// becomes visible atomically and the count matches.
#[test]
fn insert_batch_publishes_atomically() {
    let base = corpus(60, 0);
    let batch = corpus(40, 5_000);
    let mut store = store_for(Approach::HilStar, &base, mbr(), 4);
    let n = store.insert_batch(batch.iter().cloned()).unwrap();
    assert_eq!(n, 40);
    let oracle = Oracle::new(base.iter().chain(&batch).cloned().collect());
    let q = everything();
    let (docs, _) = store.st_query(&q);
    assert_eq!(result_id_set(&docs), oracle.id_set(&q));
}
