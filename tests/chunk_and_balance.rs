//! Chunking and balancing invariants at the store level: chunk counters,
//! jumbo handling, and stability of results under heavy rebalancing.

use proptest::prelude::*;
use sts::cluster::{Cluster, ClusterConfig, ShardKey};
use sts::core::{Approach, StQuery, StStore, StoreConfig};
use sts::document::{doc, encoded_size, DateTime, Document, Value};
use sts::geo::GeoRect;
use sts::index::{IndexField, IndexSpec};
use sts::workload::fleet::{generate, FleetConfig};
use sts::workload::Record;

fn point_doc(i: u32, lon: f64, lat: f64, ms: i64, h: i64) -> Document {
    let mut d = doc! {
        "location" => doc! {
            "type" => "Point",
            "coordinates" => vec![Value::from(lon), Value::from(lat)],
        },
        "date" => DateTime::from_millis(ms),
        "hilbertIndex" => h,
    };
    d.ensure_id(i);
    d
}

#[test]
fn chunk_map_covers_key_space_without_gaps() {
    let mut c = Cluster::new(
        ClusterConfig {
            num_shards: 5,
            max_chunk_bytes: 8 * 1024,
            ..Default::default()
        },
        ShardKey::range(&["hilbertIndex", "date"]),
        vec![],
    );
    for i in 0..3_000u32 {
        c.insert(&point_doc(
            i,
            20.0,
            35.0,
            i64::from(i) * 997,
            i64::from(i % 97),
        ))
        .unwrap();
    }
    let chunks = c.chunk_map().chunks();
    assert!(chunks.len() > 10);
    // First chunk starts at -inf, last ends at +inf, and the boundaries
    // tile exactly.
    assert!(chunks[0].min.is_empty());
    assert!(chunks.last().unwrap().max.is_none());
    for w in chunks.windows(2) {
        assert_eq!(w[0].max.as_ref(), Some(&w[1].min), "gap or overlap");
    }
    // Counters roughly track the data (split halving is an estimate,
    // totals must be exact).
    let total_docs: u64 = chunks.iter().map(|c| c.docs).sum();
    assert_eq!(total_docs, 3_000);
}

#[test]
fn smaller_chunks_mean_more_even_distribution() {
    // §3.3: "the configuration of small-sized chunks leads to a more
    // even distribution of data".
    let records = generate(&FleetConfig {
        records: 6_000,
        vehicles: 30,
        extra_fields: 4,
        ..Default::default()
    });
    let spread = |max_chunk: u64| -> f64 {
        let mut store = StStore::new(StoreConfig {
            approach: Approach::Hil,
            num_shards: 6,
            max_chunk_bytes: max_chunk,
            ..Default::default()
        });
        store
            .bulk_load(records.iter().map(Record::to_document))
            .unwrap();
        let per = store.cluster().docs_per_shard();
        let max = *per.iter().max().unwrap() as f64;
        let min = *per.iter().min().unwrap() as f64;
        max / min.max(1.0)
    };
    let small = spread(16 * 1024);
    let large = spread(2 * 1024 * 1024);
    assert!(
        small <= large,
        "small chunks should balance at least as evenly: {small} vs {large}"
    );
    assert!(small < 2.5, "small-chunk imbalance ratio: {small}");
}

#[test]
fn query_results_stable_across_chunk_granularities() {
    let records = generate(&FleetConfig {
        records: 5_000,
        vehicles: 25,
        extra_fields: 4,
        ..Default::default()
    });
    let q = StQuery {
        rect: GeoRect::new(22.5, 37.0, 24.5, 39.0),
        t0: DateTime::from_ymd_hms(2018, 8, 1, 0, 0, 0),
        t1: DateTime::from_ymd_hms(2018, 10, 1, 0, 0, 0),
    };
    let mut counts = Vec::new();
    for max_chunk in [8 * 1024u64, 64 * 1024, 1024 * 1024] {
        let mut store = StStore::new(StoreConfig {
            approach: Approach::Hil,
            num_shards: 4,
            max_chunk_bytes: max_chunk,
            ..Default::default()
        });
        store
            .bulk_load(records.iter().map(Record::to_document))
            .unwrap();
        counts.push(store.st_query(&q).0.len());
    }
    assert!(counts[0] > 0);
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
}

#[test]
fn jumbo_chunk_keeps_accepting_writes() {
    let mut c = Cluster::new(
        ClusterConfig {
            num_shards: 2,
            max_chunk_bytes: 2 * 1024,
            ..Default::default()
        },
        ShardKey::range(&["hilbertIndex"]),
        vec![],
    );
    // One hot key value — the chunk goes jumbo but must keep working.
    for i in 0..1_000u32 {
        c.insert(&point_doc(i, 23.7, 37.9, i64::from(i), 42))
            .unwrap();
    }
    assert!(c.chunk_map().chunks().iter().any(|ch| ch.jumbo));
    assert_eq!(c.doc_count(), 1_000);
    let f = sts::query::Filter::eq("hilbertIndex", 42i64);
    let (docs, _) = c.query(&f);
    assert_eq!(docs.len(), 1_000);
}

// ------------------------------------------------ split-point parity
//
// Split-point discovery reads each entry's shard key off the shard-key
// index. The rule it replaced fetched every document of the chunk and
// re-encoded its shard key; it is kept here as the oracle, and the two
// must pick byte-identical split keys.

/// The document walk: every record of chunk `cidx` fetched through the
/// shard-key index, its shard key re-encoded from the document.
fn document_walk_keys(c: &Cluster, cidx: usize) -> Vec<Vec<u8>> {
    let chunk = &c.chunk_map().chunks()[cidx];
    let shard = &c.shards()[chunk.shard];
    shard
        .record_ids_in_key_range(c.shard_key_index(), &chunk.min, chunk.max.as_deref())
        .into_iter()
        .filter_map(|rid| shard.collection().get(rid))
        .map(|d| c.shard_key().key_bytes(&d))
        .collect()
}

/// The split rule over sorted keys: the median, advanced to the first
/// key above the lowest when it collides with it; `None` = jumbo.
fn median_rule(keys: &[Vec<u8>], min: &[u8]) -> Option<Vec<u8>> {
    if keys.len() < 2 {
        return None;
    }
    let mut split = keys[keys.len() / 2].clone();
    if split == keys[0] {
        split = keys.iter().find(|k| **k > split)?.clone();
    }
    (split.as_slice() > min).then_some(split)
}

/// The three ways a shard-key index backs a shard key: auto-created
/// with exactly its fields, a compound index it is a strict prefix of,
/// and an auto-created hashed index.
fn parity_clusters() -> Vec<Cluster> {
    let config = || ClusterConfig {
        num_shards: 2,
        max_chunk_bytes: u64::MAX,
        ..Default::default()
    };
    vec![
        Cluster::new(config(), ShardKey::range(&["hilbertIndex", "date"]), vec![]),
        Cluster::new(
            config(),
            ShardKey::range(&["hilbertIndex"]),
            vec![IndexSpec::new(
                "hilbertIndex_1_date_1",
                vec![IndexField::asc("hilbertIndex"), IndexField::asc("date")],
            )],
        ),
        Cluster::new(config(), ShardKey::hashed("hilbertIndex"), vec![]),
    ]
}

/// Load `(hilbertIndex, date)` pairs into each parity cluster, then
/// split every chunk until all are jumbo (or six rounds pass), checking
/// each split key — or jumbo verdict — against the document walk.
fn assert_split_parity(contents: &[(i64, i64)]) {
    for mut c in parity_clusters() {
        for (i, &(h, t)) in contents.iter().enumerate() {
            c.insert(&point_doc(i as u32, 23.7, 37.9, t, h)).unwrap();
        }
        for _round in 0..6 {
            let mut split_any = false;
            for cidx in (0..c.chunk_map().len()).rev() {
                if c.chunk_map().chunks()[cidx].jumbo {
                    continue;
                }
                let min = c.chunk_map().chunks()[cidx].min.clone();
                let expected = median_rule(&document_walk_keys(&c, cidx), &min);
                let before = c.chunk_map().len();
                c.split_chunk(cidx);
                let chunks = c.chunk_map().chunks();
                match expected {
                    Some(key) => {
                        assert_eq!(chunks.len(), before + 1, "{contents:?}");
                        assert_eq!(chunks[cidx + 1].min, key, "{contents:?}");
                        split_any = true;
                    }
                    None => {
                        assert_eq!(chunks.len(), before, "{contents:?}");
                        assert!(chunks[cidx].jumbo, "{contents:?}");
                    }
                }
            }
            if !split_any {
                break;
            }
        }
    }
}

#[test]
fn split_key_matches_the_document_walk_on_edge_chunks() {
    assert_split_parity(&[]);
    assert_split_parity(&[(1, 1)]);
    // Two-key chunks: equal keys are jumbo, distinct keys split.
    assert_split_parity(&[(1, 1), (1, 1)]);
    assert_split_parity(&[(2, 0), (1, 1)]);
    assert_split_parity(&[(1, 0), (1, 1)]);
    // All keys equal: jumbo at once.
    assert_split_parity(&[(3, 2); 12]);
    // The median collides with the lowest key and must advance.
    assert_split_parity(&[(0, 0), (0, 0), (0, 0), (0, 0), (5, 1)]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random chunk contents over a tiny key domain, so duplicate shard
    /// keys are the rule rather than the exception.
    #[test]
    fn split_key_matches_the_document_walk(
        contents in proptest::collection::vec((0i64..4, 0i64..3), 0..40),
    ) {
        assert_split_parity(&contents);
    }
}

/// A seeded bulk load splits exactly where the document walk would, so
/// it ends with the chunk map — boundaries and shard per chunk — the
/// old rule produced: before every insert that overflows its chunk, the
/// oracle's split key is computed over the chunk's documents plus the
/// new one, and the insert must split there (or mark the chunk jumbo).
/// Migrations see the same boundaries, so they move the same chunks.
#[test]
fn seeded_bulk_load_splits_where_the_document_walk_does() {
    let max_chunk_bytes = 4 * 1024;
    let mut c = Cluster::new(
        ClusterConfig {
            num_shards: 4,
            max_chunk_bytes,
            ..Default::default()
        },
        ShardKey::range(&["hilbertIndex", "date"]),
        vec![],
    );
    let mut state = 0x5EED_0030_u64;
    let mut next = |n: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % n
    };
    let (mut splits, mut jumbos) = (0, 0);
    for i in 0..3_000u32 {
        // One hot shard key every few writes, and timestamps that repeat.
        let (h, t) = if next(4) == 0 {
            (7, 0)
        } else {
            (next(300) as i64, i64::from(i / 3) * 1_000)
        };
        let doc = point_doc(i, 23.7, 37.9, t, h);
        let key = c.shard_key().key_bytes(&doc);
        let cidx = c.chunk_map().route(&key);
        let chunk = c.chunk_map().chunks()[cidx].clone();
        let overflows = chunk.bytes + encoded_size(&doc) as u64 > max_chunk_bytes;
        let expected = (overflows && !chunk.jumbo).then(|| {
            let mut keys = document_walk_keys(&c, cidx);
            keys.push(key.clone());
            keys.sort();
            median_rule(&keys, &chunk.min)
        });
        let mut mins: Vec<Vec<u8>> = c
            .chunk_map()
            .chunks()
            .iter()
            .map(|ch| ch.min.clone())
            .collect();
        c.insert(&doc).unwrap();
        let after: Vec<Vec<u8>> = c
            .chunk_map()
            .chunks()
            .iter()
            .map(|ch| ch.min.clone())
            .collect();
        match expected {
            Some(Some(split)) => {
                mins.insert(cidx + 1, split);
                splits += 1;
            }
            Some(None) => {
                assert!(c.chunk_map().chunks()[cidx].jumbo, "insert {i}");
                jumbos += 1;
            }
            None => {}
        }
        assert_eq!(
            after, mins,
            "insert {i}: boundaries diverged from the document walk"
        );
    }
    assert!(splits > 20, "the load must exercise splits: {splits}");
    assert!(jumbos > 0, "the hot key must go jumbo: {jumbos}");
    assert_eq!(c.doc_count(), 3_000);
}
