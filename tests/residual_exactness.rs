//! Shards check only each plan's *residual* on fetched documents — the
//! filter minus what the index bounds already proved. Whole-stack
//! proof that nothing provable-looking is dropped wrongly: on every
//! approach × curve family, `find` through router, planner and
//! executor returns exactly what a collection scan of every shard with
//! the **whole** filter returns — on data whose `date` is sometimes
//! off-type or absent, and on filter shapes that must drop nothing.

mod support;

use proptest::prelude::*;
use sts::core::{Approach, StQuery, StStore};
use sts::curve::CurveFamily;
use sts::document::{doc, DateTime, Document, ObjectId, Value};
use sts::geo::{GeoPoint, GeoPolygon, GeoRect};
use sts::query::{CmpOp, Filter};
use support::store_for_curve;

const MBR: GeoRect = GeoRect {
    min_lon: 20.0,
    min_lat: 35.0,
    max_lon: 28.0,
    max_lat: 41.5,
};
const SPAN_MS: i64 = 8_000_000;

/// One fix: position, and a `date` that is a datetime five times in
/// six — otherwise a string, a null, a fractional double, an integer,
/// or missing.
fn fix() -> impl Strategy<Value = (f64, f64, Option<Value>)> {
    let date = || (0..SPAN_MS).prop_map(|ms| Some(Value::DateTime(DateTime::from_millis(ms))));
    (
        MBR.min_lon..MBR.max_lon,
        MBR.min_lat..MBR.max_lat,
        prop_oneof![
            date(),
            date(),
            date(),
            date(),
            date(),
            prop_oneof![
                Just(None),
                Just(Some(Value::Null)),
                Just(Some(Value::from("2018-07-01"))),
                (0..SPAN_MS).prop_map(|ms| Some(Value::Double(ms as f64 + 0.5))),
                (0..SPAN_MS).prop_map(|ms| Some(Value::Int64(ms))),
            ],
        ],
    )
}

fn corpus(fixes: &[(f64, f64, Option<Value>)]) -> Vec<Document> {
    fixes
        .iter()
        .enumerate()
        .map(|(i, (lon, lat, date))| {
            let mut d = doc! {
                "location" => doc! {
                    "type" => "Point",
                    "coordinates" => vec![Value::from(*lon), Value::from(*lat)],
                },
                "tag" => (i % 3) as i64,
            };
            if let Some(date) = date {
                d.set("date", date.clone());
            }
            d.ensure_id(i as u32);
            d
        })
        .collect()
}

/// A query centred on a stored fix, so most result sets are non-empty.
fn query_around(
    (lon, lat, date): &(f64, f64, Option<Value>),
    half_deg: f64,
    half_ms: i64,
) -> StQuery {
    let ms = match date {
        Some(Value::DateTime(t)) => t.millis(),
        _ => SPAN_MS / 2,
    };
    StQuery {
        rect: GeoRect::new(
            lon - half_deg,
            lat - half_deg,
            lon + half_deg,
            lat + half_deg,
        ),
        t0: DateTime::from_millis(ms - half_ms),
        t1: DateTime::from_millis(ms + half_ms),
    }
}

/// The store's own filter for `q`, plus the shapes whose extra or
/// altered conjuncts no index bound proves.
fn filter_variants(store: &StStore, q: &StQuery) -> Vec<(&'static str, Filter)> {
    let base = store.filter_for(q);
    let Filter::And(clauses) = &base else {
        panic!("store filters are conjunctions: {base:?}");
    };
    let with = |extra: Filter| {
        let mut c = clauses.clone();
        c.push(extra);
        Filter::And(c)
    };
    let strict = Filter::And(
        clauses
            .iter()
            .map(|c| match c {
                Filter::Cmp { path, op, value } => Filter::Cmp {
                    path: path.clone(),
                    op: match op {
                        CmpOp::Gte => CmpOp::Gt,
                        CmpOp::Lte => CmpOp::Lt,
                        other => *other,
                    },
                    value: value.clone(),
                },
                other => other.clone(),
            })
            .collect(),
    );
    let r = &q.rect;
    let polygon = Filter::And(
        clauses
            .iter()
            .map(|c| match c {
                Filter::GeoWithin { path, .. } => Filter::GeoWithinPolygon {
                    path: path.clone(),
                    polygon: GeoPolygon::new(vec![
                        GeoPoint::new(r.min_lon, r.min_lat),
                        GeoPoint::new(r.max_lon, r.min_lat),
                        GeoPoint::new((r.min_lon + r.max_lon) / 2.0, r.max_lat),
                    ])
                    .expect("a triangle"),
                },
                other => other.clone(),
            })
            .collect(),
    );
    // Every interval branch of the curve `$or` gets a second, looser
    // upper bound after its own: the branch is their intersection.
    let repeated = Filter::And(
        clauses
            .iter()
            .map(|c| match c {
                Filter::Or(branches) => Filter::Or(
                    branches
                        .iter()
                        .map(|b| match b {
                            Filter::And(parts) => {
                                let looser = parts.iter().filter_map(|p| match p {
                                    Filter::Cmp {
                                        path,
                                        op: CmpOp::Lte,
                                        value,
                                    } => Some(Filter::lte(path, value.as_i64()? + 1_000)),
                                    _ => None,
                                });
                                Filter::And(parts.iter().cloned().chain(looser).collect())
                            }
                            other => other.clone(),
                        })
                        .collect(),
                ),
                other => other.clone(),
            })
            .collect(),
    );
    let tags = Filter::Or(vec![Filter::eq("tag", 0i64), Filter::eq("tag", 2i64)]);
    vec![
        ("as built", base.clone()),
        ("strict bounds", strict),
        ("polygon", polygon),
        ("second $or", with(tags)),
        ("extra predicate", with(Filter::gte("tag", 1i64))),
        ("off-bracket bound", with(Filter::gte("date", 0i64))),
        ("repeated bounds in a branch", repeated),
    ]
}

fn sorted_ids(docs: impl IntoIterator<Item = Document>) -> Vec<ObjectId> {
    let mut ids: Vec<_> = docs
        .into_iter()
        .map(|d| d.object_id().expect("corpus ids"))
        .collect();
    ids.sort();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn find_equals_collscan_with_the_whole_filter_on_every_approach_and_curve(
        fixes in proptest::collection::vec(fix(), 150..260),
        centers in proptest::collection::vec(
            (any::<proptest::sample::Index>(), 0.05..1.5f64, 10_000..3_000_000i64),
            2..4,
        ),
    ) {
        let docs = corpus(&fixes);
        let mut productive = 0;
        for approach in Approach::ALL {
            // The baselines have no curve; one family covers them.
            let families = if approach.uses_hilbert() { &CurveFamily::ALL[..] } else { &CurveFamily::ALL[..1] };
            for &family in families {
                let store = store_for_curve(approach, family, &docs, MBR, 4);
                for (idx, half_deg, half_ms) in &centers {
                    let q = query_around(&fixes[idx.index(fixes.len())], *half_deg, *half_ms);
                    for (shape, filter) in filter_variants(&store, &q) {
                        let truth = sorted_ids(
                            store
                                .cluster()
                                .shards()
                                .iter()
                                .flat_map(|s| s.collection().find_collscan(&filter)),
                        );
                        productive += truth.len();
                        let (found, report) = store.find(&filter);
                        prop_assert!(!report.partial);
                        prop_assert_eq!(
                            sorted_ids(found), truth,
                            "{}/{} {}: {:?}", approach, family, shape, filter
                        );
                    }
                }
            }
        }
        prop_assert!(productive > 0, "every result set was empty");
    }
}
