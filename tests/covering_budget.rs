//! Differential testing of the covering-range budget.
//!
//! The budget coalescer (`sts-curve`'s interval-tree + gap bridging)
//! only ever *widens* ranges, so it can add false positives but never
//! drop a matching document. Executor-level contract: for any budget —
//! from the pathological 1 up to UNLIMITED — a Hilbert store returns
//! exactly the full-scan oracle's result set, and exactly the same set
//! as the UNLIMITED store.

mod support;

use std::collections::BTreeSet;
use sts::core::{Approach, StQuery, StoreConfig};
use sts::curve::RangeBudget;
use sts::document::{doc, DateTime, Document, ObjectId, Value};
use sts::geo::GeoRect;
use support::oracle::{result_id_set, Oracle};

fn data_mbr() -> GeoRect {
    GeoRect::new(20.0, 35.0, 28.0, 41.5)
}

/// Deterministic pseudo-random corpus (SplitMix64 over the seed).
fn corpus(n: usize, seed: u64) -> Vec<Document> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let unit = |v: u64| v as f64 / u64::MAX as f64;
    (0..n)
        .map(|i| {
            let lon = 20.0 + unit(next()) * 8.0;
            let lat = 35.0 + unit(next()) * 6.5;
            let ms = (next() % 8_000_000) as i64;
            let mut d = doc! {
                "location" => doc! {
                    "type" => "Point",
                    "coordinates" => vec![Value::from(lon), Value::from(lat)],
                },
                "date" => DateTime::from_millis(ms),
            };
            d.ensure_id(i as u32);
            d
        })
        .collect()
}

fn queries() -> Vec<StQuery> {
    // Mixed sizes: tiny boxes (few cells, budget irrelevant), mid boxes
    // (budget binds on the fitted curve), the whole MBR, a degenerate
    // line, and a rect disjoint from the data.
    vec![
        StQuery {
            rect: GeoRect::new(23.0, 37.0, 23.4, 37.3),
            t0: DateTime::from_millis(0),
            t1: DateTime::from_millis(8_000_000),
        },
        StQuery {
            rect: GeoRect::new(21.0, 36.0, 26.0, 40.0),
            t0: DateTime::from_millis(1_000_000),
            t1: DateTime::from_millis(6_000_000),
        },
        StQuery {
            rect: data_mbr(),
            t0: DateTime::from_millis(0),
            t1: DateTime::from_millis(8_000_000),
        },
        StQuery {
            rect: GeoRect::new(24.0, 35.0, 24.0, 41.5),
            t0: DateTime::from_millis(0),
            t1: DateTime::from_millis(8_000_000),
        },
        StQuery {
            rect: GeoRect::new(60.0, 50.0, 61.0, 51.0),
            t0: DateTime::from_millis(0),
            t1: DateTime::from_millis(8_000_000),
        },
    ]
}

fn budgeted_store(
    approach: Approach,
    docs: &[Document],
    budget: RangeBudget,
) -> sts::core::StStore {
    let mut store = sts::core::StStore::new(StoreConfig {
        approach,
        num_shards: 5,
        max_chunk_bytes: 24 * 1024,
        data_mbr: data_mbr(),
        range_budget: budget,
        ..Default::default()
    });
    store.bulk_load(docs.iter().cloned()).unwrap();
    store
}

#[test]
fn every_budget_matches_the_unlimited_covering_and_the_oracle() {
    let docs = corpus(900, 0x5137_2021);
    let oracle = Oracle::new(docs.clone());
    for approach in [Approach::Hil, Approach::HilStar] {
        let unlimited = budgeted_store(approach, &docs, RangeBudget::UNLIMITED);
        for q in &queries() {
            let truth = oracle.id_set(q);
            let (udocs, _) = unlimited.st_query(q);
            assert_eq!(result_id_set(&udocs), truth, "{approach:?} UNLIMITED");
        }
        for max_ranges in [1usize, 2, 7, 16, 64] {
            let store = budgeted_store(approach, &docs, RangeBudget::new(max_ranges));
            for q in &queries() {
                let truth = oracle.id_set(q);
                let (bdocs, report) = store.st_query(q);
                let ids: BTreeSet<ObjectId> = result_id_set(&bdocs);
                assert_eq!(
                    ids, truth,
                    "{approach:?} budget {max_ranges}: result drift vs oracle"
                );
                assert!(
                    report.hilbert_ranges <= max_ranges,
                    "{approach:?} budget {max_ranges}: covering used {} ranges",
                    report.hilbert_ranges
                );
            }
        }
    }
}

/// Live-store budget swaps (`set_range_budget`, the mechanism the
/// budget ablation below uses) preserve results too — tightening or
/// loosening the budget on a loaded store never changes what a query
/// returns.
#[test]
fn set_range_budget_preserves_results_on_a_live_store() {
    let docs = corpus(600, 0x000D_ECAF);
    let oracle = Oracle::new(docs.clone());
    let mut store = budgeted_store(Approach::HilStar, &docs, RangeBudget::default());
    for q in &queries() {
        let baseline = oracle.id_set(q);
        for max_ranges in [1usize, 16, 128] {
            store.set_range_budget(RangeBudget::new(max_ranges));
            let (bdocs, _) = store.st_query(q);
            assert_eq!(result_id_set(&bdocs), baseline, "budget {max_ranges}");
        }
        store.set_range_budget(RangeBudget::UNLIMITED);
        let (udocs, _) = store.st_query(q);
        assert_eq!(result_id_set(&udocs), baseline, "UNLIMITED");
    }
}

/// The counter half of the range-budget ablation: on a `hil*` store a
/// looser budget never yields fewer covering ranges over the query set
/// (16 → 128 must actually bind, or the sweep proves nothing), and the
/// results are the oracle's at every budget.
#[test]
fn hil_star_covering_ranges_grow_with_the_budget() {
    let docs = corpus(900, 0x5137_2021);
    let oracle = Oracle::new(docs.clone());
    let mut store = budgeted_store(Approach::HilStar, &docs, RangeBudget::default());
    let mut totals = Vec::new();
    for max_ranges in [16usize, 32, 64, 128] {
        store.set_range_budget(RangeBudget::new(max_ranges));
        let mut ranges = 0;
        for q in &queries() {
            let (bdocs, report) = store.st_query(q);
            assert_eq!(
                result_id_set(&bdocs),
                oracle.id_set(q),
                "budget {max_ranges}"
            );
            ranges += report.hilbert_ranges;
        }
        totals.push(ranges);
    }
    assert!(
        totals.windows(2).all(|w| w[0] <= w[1]) && totals[0] < totals[3],
        "covering ranges across budgets 16/32/64/128: {totals:?}"
    );
}
