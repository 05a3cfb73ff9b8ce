//! Property suite for the routing table: under *any* sequence of
//! splits, reassignments and boundary insertions, a [`ChunkMap`] must
//! keep covering the whole key space exactly once, and routing must
//! stay deterministic and consistent with chunk ownership. These are
//! the invariants the live balancer (PR 7) leans on when it splits
//! and migrates chunks between a batch's stage and commit.

mod support;

use proptest::prelude::*;
use sts::cluster::ChunkMap;

/// A short encoded shard key. Non-empty: the empty key is the map's
/// −∞ sentinel (only ever a chunk `min`, never a data key).
fn key() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 1..4)
}

/// One mutation of the routing table.
#[derive(Clone, Debug)]
enum MapOp {
    /// Split the chunk containing `key` at `key` (the only split the
    /// balancer ever issues: a key routed to its own chunk).
    SplitAt(Vec<u8>),
    /// Split chunk `sel % len` at `key` — deliberately *not* routed,
    /// so out-of-range splits exercise the `Result` path.
    SplitRaw(usize, Vec<u8>),
    /// Reassign chunk `sel % len` to shard `shard % NUM_SHARDS` (a
    /// migration's routing-table flip).
    Assign(usize, usize),
    /// Ensure boundaries exist at the given keys.
    Boundaries(Vec<Vec<u8>>),
}

fn map_op() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        key().prop_map(MapOp::SplitAt),
        (any::<usize>(), key()).prop_map(|(s, k)| MapOp::SplitRaw(s, k)),
        (any::<usize>(), any::<usize>()).prop_map(|(s, d)| MapOp::Assign(s, d)),
        proptest::collection::vec(key(), 1..4).prop_map(MapOp::Boundaries),
    ]
}

const NUM_SHARDS: usize = 5;

/// The full structural invariant: total coverage with no gaps and no
/// overlap, strictly increasing boundaries, valid shard ownership,
/// and `route`/`contains` agreement on every chunk boundary.
fn assert_invariants(m: &ChunkMap) {
    let chunks = m.chunks();
    assert!(!chunks.is_empty(), "a chunk map always covers the space");
    assert!(
        chunks[0].min.is_empty(),
        "first chunk must start at -infinity"
    );
    assert_eq!(
        chunks.last().unwrap().max,
        None,
        "last chunk must end at +infinity"
    );
    for w in chunks.windows(2) {
        // Contiguity: each chunk's max is exactly the next chunk's
        // min — together with the endpoints above this is both "no
        // gaps" and "no overlap".
        assert_eq!(
            w[0].max.as_ref(),
            Some(&w[1].min),
            "adjacent chunks must share their boundary"
        );
        assert!(
            w[0].min < w[1].min,
            "chunk mins must be strictly increasing"
        );
    }
    for c in chunks {
        assert!(c.shard < NUM_SHARDS, "chunk assigned to unknown shard");
    }
    assert_eq!(
        m.counts_per_shard(NUM_SHARDS).iter().sum::<usize>(),
        m.len(),
        "every chunk is counted on exactly one shard"
    );
    // Routing agrees with containment exactly at and around every
    // boundary (the off-by-one hot spots).
    for c in chunks {
        let idx = m.route(&c.min);
        assert!(
            chunks[idx].contains(&c.min),
            "routed chunk must contain the key"
        );
        assert_eq!(
            &chunks[idx].min, &c.min,
            "a chunk's min must route to that chunk"
        );
        if let Some(max) = &c.max {
            let idx = m.route(max);
            assert!(chunks[idx].contains(max));
            assert!(
                &chunks[idx].min == max,
                "an exclusive max must route to the *next* chunk"
            );
        }
    }
}

/// A cluster sharded on `(k, date)` holding `n_docs` documents at
/// `k = 0, 1, 2, …`, split as it filled.
fn live_cluster(n_docs: usize) -> sts::cluster::Cluster {
    use sts::cluster::{Cluster, ClusterConfig, ShardKey};
    use sts::document::{doc, DateTime};

    let mut cluster = Cluster::new(
        ClusterConfig {
            num_shards: NUM_SHARDS,
            max_chunk_bytes: 4 * 1024,
            ..Default::default()
        },
        ShardKey::range(&["k", "date"]),
        vec![],
    );
    for i in 0..n_docs {
        let mut d = doc! {
            "k" => i as i64,
            "date" => DateTime::from_millis(i as i64 * 1_000),
        };
        d.ensure_id(i as u32);
        cluster.insert(&d).unwrap();
    }
    cluster
}

/// The `$or` on `k` admitting exactly `ivs`; with no interval, one
/// branch whose own bounds are empty.
fn or_on_k(ivs: &[(i64, i64)]) -> sts::query::Filter {
    use sts::query::Filter;
    let branch = |lo: i64, hi: i64| Filter::And(vec![Filter::gte("k", lo), Filter::lte("k", hi)]);
    if ivs.is_empty() {
        return Filter::Or(vec![branch(7, 5)]);
    }
    Filter::Or(ivs.iter().map(|&(lo, hi)| branch(lo, hi)).collect())
}

/// The routing decision by definition: the shards owning the union of
/// [`ChunkMap::overlapping`] over the filter's analyzed intervals, each
/// `[encode(lo), encode(hi) ++ 0xFF)`.
fn route_by_definition(m: &ChunkMap, filter: &sts::query::Filter) -> Vec<usize> {
    use sts::document::Value;
    use sts::encoding::encode_value;
    let shape = sts::query::QueryShape::analyze(filter);
    let (_, ivs) = shape.int_intervals.expect("an `$or` of intervals on k");
    let mut touched = std::collections::BTreeSet::new();
    for (lo, hi) in ivs {
        let mut upper = encode_value(&Value::Int64(hi));
        upper.push(0xFF);
        touched.extend(m.overlapping(&encode_value(&Value::Int64(lo)), Some(&upper)));
    }
    let shards: std::collections::BTreeSet<usize> =
        touched.iter().map(|&i| m.chunks()[i].shard).collect();
    shards.into_iter().collect()
}

fn apply(m: &mut ChunkMap, op: &MapOp) {
    match op {
        MapOp::SplitAt(k) => {
            let idx = m.route(k);
            let result = m.split(idx, k.clone());
            // A routed split fails only when the key equals the
            // chunk's min (a no-op split) — never for any other key.
            assert_eq!(result.is_err(), m.chunks()[idx].min == *k);
        }
        MapOp::SplitRaw(sel, k) => {
            let idx = sel % m.len();
            let before = m.chunks().to_vec();
            let (min, max) = (before[idx].min.clone(), before[idx].max.clone());
            let inside = *k > min && max.as_ref().is_none_or(|mx| k < mx);
            match m.split(idx, k.clone()) {
                Ok(()) => assert!(inside, "split accepted an out-of-range key"),
                Err(e) => {
                    assert!(!inside, "split rejected an in-range key");
                    assert_eq!(e.split_key, *k);
                    assert_eq!(e.min, min);
                    assert_eq!(e.max, max);
                    assert_eq!(m.chunks(), &before[..], "rejected split must not mutate");
                }
            }
        }
        MapOp::Assign(sel, shard) => {
            let idx = sel % m.len();
            m.assign(idx, shard % NUM_SHARDS);
        }
        MapOp::Boundaries(keys) => {
            m.split_at_boundaries(keys);
            for k in keys {
                let idx = m.route(k);
                assert_eq!(
                    m.chunks()[idx].min,
                    *k,
                    "split_at_boundaries must leave a boundary at every key"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any op sequence preserves the structural invariants after
    /// every single step.
    #[test]
    fn random_sequences_preserve_coverage(
        ops in proptest::collection::vec(map_op(), 1..40),
        probes in proptest::collection::vec(key(), 6..9),
    ) {
        let mut m = ChunkMap::new_single(0);
        assert_invariants(&m);
        for op in &ops {
            apply(&mut m, op);
            assert_invariants(&m);
        }
        // Routing determinism: the same key routes identically on
        // repeat calls and on a structural clone of the map.
        let clone = m.clone();
        for k in &probes {
            let a = m.route(k);
            prop_assert_eq!(a, m.route(k));
            prop_assert_eq!(a, clone.route(k));
            prop_assert!(m.chunks()[a].contains(k));
            // Exactly one chunk contains the key (non-overlap, seen
            // through the `contains` lens).
            let holders = m.chunks().iter().filter(|c| c.contains(k)).count();
            prop_assert_eq!(holders, 1);
        }
    }

    /// `split_at_boundaries` is idempotent under arbitrary boundary
    /// sets — re-applying never changes the map.
    #[test]
    fn boundary_splitting_is_idempotent(
        boundaries in proptest::collection::vec(key(), 1..10),
    ) {
        let mut m = ChunkMap::new_single(0);
        m.split_at_boundaries(&boundaries);
        let after_once = m.chunks().to_vec();
        m.split_at_boundaries(&boundaries);
        prop_assert_eq!(m.chunks(), &after_once[..]);
        assert_invariants(&m);
    }

    /// Chunk doc/byte counters are conserved across splits and
    /// migrations on a live cluster: splits redistribute a parent's
    /// counters over its halves without changing the totals, and a
    /// migration's routing flip never touches them.
    #[test]
    fn cluster_splits_and_migrations_conserve_chunk_counters(
        n_docs in 40usize..120,
        actions in proptest::collection::vec((any::<usize>(), any::<usize>(), any::<bool>()), 1..12),
    ) {
        let mut cluster = live_cluster(n_docs);
        let docs_total: u64 = cluster.chunk_map().chunks().iter().map(|c| c.docs).sum();
        let bytes_total: u64 = cluster.chunk_map().chunks().iter().map(|c| c.bytes).sum();
        prop_assert_eq!(docs_total, n_docs as u64, "counters track every insert");

        for (sel, dst, do_split) in &actions {
            let cidx = sel % cluster.chunk_map().len();
            if *do_split {
                cluster.split_chunk(cidx);
            } else {
                cluster.migrate_chunk(cidx, dst % NUM_SHARDS);
            }
            let m = cluster.chunk_map();
            prop_assert_eq!(m.chunks().iter().map(|c| c.docs).sum::<u64>(), docs_total);
            prop_assert_eq!(m.chunks().iter().map(|c| c.bytes).sum::<u64>(), bytes_total);
            // The physical documents moved with the routing flips.
            prop_assert_eq!(cluster.doc_count(), n_docs as u64);
        }
    }

    /// Routing an `$or` of intervals on the leading shard-key field, on
    /// a map that random splits and migrations reshaped, targets exactly
    /// the shards owning the chunks that the intervals overlap one by
    /// one — for random interval lists and for the edge cases of the
    /// forward walk.
    #[test]
    fn route_plan_equals_the_union_of_per_interval_overlaps(
        n_docs in 300usize..900,
        actions in proptest::collection::vec((any::<usize>(), any::<usize>(), any::<bool>()), 0..12),
        spans in proptest::collection::vec((-20i64..920, 0i64..60), 0..12),
    ) {
        let mut cluster = live_cluster(n_docs);
        for (sel, dst, do_split) in &actions {
            let cidx = sel % cluster.chunk_map().len();
            if *do_split {
                cluster.split_chunk(cidx);
            } else {
                cluster.migrate_chunk(cidx, dst % NUM_SHARDS);
            }
        }
        prop_assert!(cluster.chunk_map().len() > 2, "the walk needs chunks to cross");
        let last = n_docs as i64 - 1;
        let random: Vec<(i64, i64)> = spans.iter().map(|&(lo, len)| (lo, lo + len)).collect();
        let cases: [&[(i64, i64)]; 7] = [
            &random,
            &[],                                       // every branch empty
            &[(-1, -1)],                               // the impossible clause
            &[(-90, -50), (-40, -30)],                 // before the first split
            &[(last + 10, last + 20), (last + 40, last + 90)], // past the last
            &[(3, 5), (7, 8), (10, 10)],               // adjacent, sharing a chunk
            &[(-1_000, last + 1_000)],                 // spanning every chunk
        ];
        let m = cluster.chunk_map();
        for ivs in cases {
            let filter = or_on_k(ivs);
            let plan = cluster.route_plan(&filter);
            prop_assert!(!plan.broadcast);
            let targets = route_by_definition(m, &filter);
            prop_assert_eq!(&plan.targets, &targets, "targets for {:?}", ivs);
        }
    }
}
