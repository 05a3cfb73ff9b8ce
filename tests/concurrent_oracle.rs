//! The concurrent differential oracle: deterministic schedules of
//! {stage, commit, query, split, migrate, fault} replayed against the
//! full-scan reference.
//!
//! Every schedule in the 64-seed matrix contains concurrent ingest
//! (queries racing a staged batch), at least one live split and one
//! two-phase migration, and armed failpoints — and must hold exact
//! result parity plus zero lost/duplicated records after every single
//! step ([`support::schedule::replay`]). Failing schedules are
//! delta-debugged down to minimal op sequences and dumped as JSON
//! under `target/ingest-chaos/` (the CI `ingest-chaos` job uploads
//! them as artifacts).

mod support;

use proptest::prelude::*;
use std::collections::HashSet;
use sts::cluster::{FailPoint, FailPointMode};
use sts::core::Approach;
use sts::curve::CurveKind;
use support::schedule::{replay, replay_or_explain, shrink, ScheduleCase, ScheduleOp};

/// The acceptance matrix: 64 seeded schedules, each proven to have
/// actually exercised concurrent ingest, live rebalancing and fault
/// injection — not just to have passed vacuously.
#[test]
fn sixty_four_seeded_schedules_match_the_oracle() {
    let mut total_commits = 0u64;
    let mut total_aborts = 0u64;
    let mut total_retries = 0u64;
    let mut total_cache_hits = 0u64;
    let mut total_cache_stale = 0u64;
    let mut curve_combos: HashSet<(Approach, CurveKind)> = HashSet::new();
    for seed in 0..64u64 {
        let case = ScheduleCase::generate(seed);
        if case.approach.uses_hilbert() {
            curve_combos.insert((case.approach, case.curve));
        }
        let report = replay_or_explain(&case);
        assert!(report.ingested > 0, "seed {seed}: no documents ingested");
        assert!(
            report.inflight_queries >= 1,
            "seed {seed}: no query raced a staged batch (not concurrent)"
        );
        assert!(
            report.splits >= 1,
            "seed {seed}: no live chunk split happened"
        );
        assert!(
            report.migrations_committed + report.migrations_aborted >= 1,
            "seed {seed}: no two-phase migration executed"
        );
        assert!(
            report.fault_recoveries >= 1,
            "seed {seed}: armed faults never fired"
        );
        assert!(
            report.cached_queries >= 2,
            "seed {seed}: schedule never exercised the result cache"
        );
        assert!(
            report.cache_hits >= report.cached_queries as u64,
            "seed {seed}: every CachedQuery's second run must hit"
        );
        total_commits += report.migrations_committed;
        total_aborts += report.migrations_aborted;
        total_retries += report.migration_retries;
        total_cache_hits += report.cache_hits;
        total_cache_stale += report.cache_stale;
    }
    // Across the matrix the fault mix must have produced both
    // outcomes of the two-phase protocol: commits *and* rollbacks,
    // plus mid-transfer retries. A matrix where migrations only ever
    // succeed isn't testing the rollback path at all.
    assert!(total_commits > 0, "no migration ever committed");
    assert!(total_aborts > 0, "no migration ever rolled back");
    assert!(
        total_retries > 0,
        "no migration ever retried a transient fault"
    );
    // The result cache must have both served pages and detected stale
    // entries across the matrix — a matrix where nothing ever goes
    // stale isn't testing the epoch/write-generation invalidation.
    assert!(total_cache_hits > 0, "the result cache never served a hit");
    assert!(
        total_cache_stale > 0,
        "no cached page was ever invalidated by a commit"
    );
    // Non-vacuity for the curves: both curve-based approaches must
    // have run under both curves in the matrix. The seeds stride four
    // approaches × two curves, so each pair replays eight times across
    // the 64 seeds.
    for approach in [Approach::Hil, Approach::HilStar] {
        for kind in CurveKind::ALL {
            assert!(
                curve_combos.contains(&(approach, kind)),
                "the seed matrix never ran {approach} on {kind:?}"
            );
        }
    }
}

/// Satellite: a migration that loses its shard to a transient
/// failpoint mid-transfer retries and completes — with per-record
/// parity and exact counts preserved throughout.
#[test]
fn migration_retries_transient_fault_and_completes() {
    let case = ScheduleCase::generate(7);
    let mut store = store_with(&case);
    let before = snapshot_ids(&store);
    let count_before = store.doc_count();

    // Find a chunk with documents and fault its *donor* shard: the
    // migration draws against the source.
    let cidx = fullest_chunk(&store);
    let src = store.cluster().chunk_map().chunks()[cidx].shard;
    let dst = (src + 1) % NUM_SHARDS;
    store.arm_failpoint(
        "drop-shard-once",
        FailPoint::transient(src).with_mode(FailPointMode::Times(1)),
    );

    let stats0 = store.cluster().migration_stats();
    assert!(
        store.migrate_chunk(cidx, dst),
        "one transient fault is within the retry budget"
    );
    let stats = store.cluster().migration_stats();
    assert_eq!(stats.chunks_moved, stats0.chunks_moved + 1);
    assert_eq!(stats.migration_retries, stats0.migration_retries + 1);
    assert_eq!(stats.migrations_aborted, stats0.migrations_aborted);
    assert_eq!(store.cluster().chunk_map().chunks()[cidx].shard, dst);

    // Zero lost, zero duplicated: the exact same record set exists.
    assert_eq!(store.doc_count(), count_before);
    assert_eq!(snapshot_ids(&store), before);
}

/// Satellite: a migration whose transfer keeps failing (always-on
/// transient exhausts the retry budget) rolls back completely — the
/// chunk stays on its donor and every record survives exactly once.
#[test]
fn migration_exhausting_retries_rolls_back() {
    let case = ScheduleCase::generate(11);
    let mut store = store_with(&case);
    let before = snapshot_ids(&store);

    let cidx = fullest_chunk(&store);
    let src = store.cluster().chunk_map().chunks()[cidx].shard;
    let dst = (src + 1) % NUM_SHARDS;
    store.arm_failpoint("drop-shard-always", FailPoint::transient(src));

    let stats0 = store.cluster().migration_stats();
    assert!(!store.migrate_chunk(cidx, dst), "must abort, not commit");
    let stats = store.cluster().migration_stats();
    assert_eq!(stats.chunks_moved, stats0.chunks_moved, "nothing moved");
    assert_eq!(stats.migrations_aborted, stats0.migrations_aborted + 1);
    assert_eq!(
        stats.migration_retries,
        stats0.migration_retries + u64::from(store.cluster().recovery_policy().max_retries),
        "every retry in the budget was spent before giving up"
    );
    assert_eq!(
        store.cluster().chunk_map().chunks()[cidx].shard,
        src,
        "aborted migration leaves ownership on the donor"
    );
    assert_eq!(snapshot_ids(&store), before, "rollback is exact");

    // A hard failure aborts immediately — no retries can help a dead
    // node.
    store.disarm_all_failpoints();
    store.arm_failpoint("node-down", FailPoint::hard_failure(src));
    let stats0 = store.cluster().migration_stats();
    assert!(!store.migrate_chunk(cidx, dst));
    let stats = store.cluster().migration_stats();
    assert_eq!(stats.migrations_aborted, stats0.migrations_aborted + 1);
    assert_eq!(stats.migration_retries, stats0.migration_retries);
    assert_eq!(snapshot_ids(&store), before);

    // Once the fault clears, the same migration completes.
    store.disarm_all_failpoints();
    assert!(store.migrate_chunk(cidx, dst));
    assert_eq!(store.cluster().chunk_map().chunks()[cidx].shard, dst);
    assert_eq!(snapshot_ids(&store), before);
}

/// The shrinker really minimizes: plant a known-bad schedule (a query
/// expecting committed visibility that a doctored case breaks) and
/// check the delta-debugger strips the irrelevant prefix.
#[test]
fn shrinker_reduces_failing_schedules() {
    // Build a case whose replay fails deterministically: claim a
    // document was ingested that never will be, by pointing a Stage
    // op past the corpus (replay clamps the range to empty, so the
    // reference and the store agree) — instead, break parity by
    // duplicating a Stage range: the second stage inserts the same
    // `_id`s again, which the conservation check reports as
    // duplicates.
    let mut case = ScheduleCase::generate(3);
    case.ops = vec![
        ScheduleOp::Query { qidx: 1 },
        ScheduleOp::Split { sel: 9 },
        ScheduleOp::Stage { lo: 0, hi: 8 },
        ScheduleOp::Commit,
        ScheduleOp::Stage { lo: 0, hi: 8 }, // duplicate _ids
        ScheduleOp::Query { qidx: 0 },
    ];
    assert!(replay(&case).is_err(), "the planted schedule must fail");
    let minimal = shrink(&case);
    assert!(replay(&minimal).is_err(), "shrinking preserves failure");
    assert!(
        minimal.ops.len() <= 3,
        "shrinker should strip the irrelevant ops, kept {:?}",
        minimal.ops
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized seeds and op-window mutations on top of the fixed
    /// matrix: drop a random window of ops from a generated schedule
    /// and replay. Any op subset must still hold parity and
    /// conservation (the replay derives its expectations from the ops
    /// actually present, so every sub-schedule is self-consistent).
    #[test]
    fn mutated_schedules_still_match_the_oracle(
        seed in 0u64..10_000,
        cut_at in any::<proptest::sample::Index>(),
        cut_len in 0usize..6,
    ) {
        let mut case = ScheduleCase::generate(seed);
        let at = cut_at.index(case.ops.len());
        let end = (at + cut_len).min(case.ops.len());
        case.ops.drain(at..end);
        if case.ops.is_empty() {
            case.ops.push(ScheduleOp::Query { qidx: 0 });
        }
        // Mutated schedules lose the generator's structural
        // guarantees (a cut can remove the forced split), so only the
        // correctness invariants are asserted here — that is the
        // point: no interleaving may break them.
        replay_or_explain(&case);
    }
}

// ------------------------------------------------------------ helpers

const NUM_SHARDS: usize = 4;

/// Deploy the case's base corpus on its approach (no schedule ops).
fn store_with(case: &ScheduleCase) -> sts::core::StStore {
    let mut store = sts::core::StStore::new(sts::core::StoreConfig {
        approach: case.approach,
        num_shards: NUM_SHARDS,
        max_chunk_bytes: 24 * 1024,
        data_mbr: sts::geo::GeoRect::new(20.0, 35.0, 28.0, 41.5),
        curve: case.curve,
        ..Default::default()
    });
    store.bulk_load(case.base.iter().cloned()).unwrap();
    store
}

/// The chunk holding the most documents (always migratable).
fn fullest_chunk(store: &sts::core::StStore) -> usize {
    let chunks = store.cluster().chunk_map().chunks();
    (0..chunks.len()).max_by_key(|&i| chunks[i].docs).unwrap()
}

/// Every physical record's `_id` across all shards, with duplicate
/// detection (sorted, so comparable before/after a migration).
fn snapshot_ids(store: &sts::core::StStore) -> Vec<sts::document::ObjectId> {
    let mut ids: Vec<_> = store
        .cluster()
        .shards()
        .iter()
        .flat_map(|s| {
            s.collection()
                .iter()
                .map(|(_, d)| d.object_id().expect("records carry an _id"))
                .collect::<Vec<_>>()
        })
        .collect();
    ids.sort();
    let n = ids.len();
    ids.dedup();
    assert_eq!(ids.len(), n, "a record exists on two shards at once");
    ids
}
