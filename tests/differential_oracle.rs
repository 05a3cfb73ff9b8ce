//! Differential testing: every approach (`bslST`, `bslTS`, `hil`,
//! `hil*`) must return exactly the full-scan oracle's result set on
//! random spatio-temporal workloads — and the curve-based approaches
//! must do so on both curves (Hilbert and Z-order).

mod support;

use proptest::prelude::*;
use sts::core::{Approach, StQuery};
use sts::curve::CurveKind;
use sts::document::{doc, DateTime, Document, Value};
use sts::geo::GeoRect;
use support::oracle::{result_id_set, Oracle};
use support::{store_for, store_for_curve};

/// Spatial box the random corpus lives in (roughly the paper's R MBR).
const LON_MIN: f64 = 20.0;
const LON_MAX: f64 = 28.0;
const LAT_MIN: f64 = 35.0;
const LAT_MAX: f64 = 41.5;
/// Temporal span of the random corpus, in millis.
const SPAN_MS: i64 = 8_000_000;

fn data_mbr() -> GeoRect {
    GeoRect::new(LON_MIN, LAT_MIN, LON_MAX, LAT_MAX)
}

/// One random fix: (lon, lat, timestamp millis).
fn point() -> impl Strategy<Value = (f64, f64, i64)> {
    (LON_MIN..LON_MAX, LAT_MIN..LAT_MAX, 0..SPAN_MS)
}

/// A random spatio-temporal range query (possibly empty, possibly
/// degenerate — the engines must agree with the oracle regardless).
fn query() -> impl Strategy<Value = StQuery> {
    (
        LON_MIN..LON_MAX,
        LON_MIN..LON_MAX,
        LAT_MIN..LAT_MAX,
        LAT_MIN..LAT_MAX,
        0..SPAN_MS,
        0..SPAN_MS,
    )
        .prop_map(|(lon_a, lon_b, lat_a, lat_b, t_a, t_b)| StQuery {
            rect: GeoRect::new(
                lon_a.min(lon_b),
                lat_a.min(lat_b),
                lon_a.max(lon_b),
                lat_a.max(lat_b),
            ),
            t0: DateTime::from_millis(t_a.min(t_b)),
            t1: DateTime::from_millis(t_a.max(t_b)),
        })
}

/// Materialize the corpus: GeoJSON point + date + unique `_id` per fix.
fn corpus(points: &[(f64, f64, i64)]) -> Vec<Document> {
    points
        .iter()
        .enumerate()
        .map(|(i, &(lon, lat, ms))| {
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

fn assert_matches_oracle_in(oracle: &Oracle, queries: &[StQuery], mbr: GeoRect) {
    for approach in Approach::ALL {
        let store = store_for(approach, oracle.docs(), mbr, 4);
        for q in queries {
            let (docs, report) = store.st_query(q);
            assert_eq!(
                result_id_set(&docs),
                oracle.id_set(q),
                "{approach} disagrees with the oracle on {q:?}"
            );
            assert_eq!(report.cluster.n_returned(), oracle.count(q));
            // No failpoints armed: the report must be complete and
            // recovery-free.
            assert!(!report.cluster.partial);
            assert!(report.cluster.fault_free());
        }
    }
}

fn assert_matches_oracle(oracle: &Oracle, queries: &[StQuery]) {
    assert_matches_oracle_in(oracle, queries, data_mbr());
}

/// The curve sweep: both curve-based approaches on both curves must
/// return exactly the oracle's result set.
fn assert_curve_zoo_matches_oracle_in(oracle: &Oracle, queries: &[StQuery], mbr: GeoRect) {
    for approach in [Approach::Hil, Approach::HilStar] {
        for kind in CurveKind::ALL {
            let store = store_for_curve(approach, kind, oracle.docs(), mbr, 4);
            for q in queries {
                let (docs, report) = store.st_query(q);
                assert_eq!(
                    result_id_set(&docs),
                    oracle.id_set(q),
                    "{approach}/{kind:?} disagrees with the oracle on {q:?}"
                );
                assert_eq!(report.cluster.n_returned(), oracle.count(q));
                assert!(report.hilbert_ranges > 0 || oracle.count(q) == 0);
                assert!(!report.cluster.partial);
                assert!(report.cluster.fault_free());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Uniform random corpus, fully random query boxes.
    #[test]
    fn random_workloads_match_the_oracle(
        points in proptest::collection::vec(point(), 120..240),
        queries in proptest::collection::vec(query(), 1..5),
    ) {
        let oracle = Oracle::new(corpus(&points));
        assert_matches_oracle(&oracle, &queries);
    }

    /// Queries centred on actual data points, so result sets are
    /// productive (a pure-random box often matches nothing).
    #[test]
    fn productive_workloads_match_the_oracle(
        points in proptest::collection::vec(point(), 120..220),
        centers in proptest::collection::vec(
            (any::<proptest::sample::Index>(), 0.02..1.2f64, 10_000..3_000_000i64),
            1..4,
        ),
    ) {
        let oracle = Oracle::new(corpus(&points));
        let queries: Vec<StQuery> = centers
            .iter()
            .map(|(idx, half_deg, half_ms)| {
                let (lon, lat, ms) = points[idx.index(points.len())];
                StQuery {
                    rect: GeoRect::new(
                        lon - half_deg,
                        lat - half_deg,
                        lon + half_deg,
                        lat + half_deg,
                    ),
                    t0: DateTime::from_millis((ms - half_ms).max(0)),
                    t1: DateTime::from_millis((ms + half_ms).min(SPAN_MS)),
                }
            })
            .collect();
        // Every query is productive by construction: it contains the
        // point it was centred on.
        for q in &queries {
            assert!(oracle.count(q) >= 1);
        }
        assert_matches_oracle(&oracle, &queries);
    }

    /// Duplicate positions and timestamps (heavy skew) don't break
    /// set-equality with the oracle.
    #[test]
    fn skewed_duplicates_match_the_oracle(
        base in proptest::collection::vec(point(), 10..30),
        copies in 2..6usize,
        queries in proptest::collection::vec(query(), 1..4),
    ) {
        let mut points = Vec::new();
        for _ in 0..copies {
            points.extend(base.iter().copied());
        }
        let oracle = Oracle::new(corpus(&points));
        assert_matches_oracle(&oracle, &queries);
    }

    /// Both curves are exact on random corpora and
    /// random query boxes (the full-scan differential oracle applied
    /// per-curve, acceptance criterion of the curve-zoo refactor).
    #[test]
    fn curve_zoo_matches_the_oracle(
        points in proptest::collection::vec(point(), 100..180),
        queries in proptest::collection::vec(query(), 1..4),
    ) {
        let oracle = Oracle::new(corpus(&points));
        assert_curve_zoo_matches_oracle_in(&oracle, &queries, data_mbr());
    }
}

/// The paper's own workload, differentially checked on the fleet
/// generator's output (complements the random cases above).
#[test]
fn paper_workload_matches_the_oracle() {
    use sts::workload::fleet::{generate, FleetConfig};
    use sts::workload::queries::full_workload;
    use sts::workload::{Record, R_MBR};

    let records = generate(&FleetConfig {
        records: 4_000,
        vehicles: 25,
        extra_fields: 4,
        ..Default::default()
    });
    let docs: Vec<Document> = records.iter().map(Record::to_document).collect();
    let oracle = Oracle::new(docs);
    let start = DateTime::from_ymd_hms(2018, 7, 1, 0, 0, 0);
    let queries: Vec<StQuery> = full_workload(start)
        .into_iter()
        .map(|(_, _, q)| q)
        .collect();
    assert_matches_oracle_in(&oracle, &queries, R_MBR);
    // And the same fleet workload holds on both curves.
    assert_curve_zoo_matches_oracle_in(&oracle, &queries, R_MBR);
}
