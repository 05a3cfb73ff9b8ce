//! Planner behaviour: candidate generation rules and multi-planner
//! trial ranking — the machinery behind Table 7.

use sts_document::{doc, DateTime, Document, Value};
use sts_geo::GeoRect;
use sts_index::{IndexField, IndexSpec};
use sts_query::{Filter, IndexAccess, LocalCollection, Planner};

fn point_doc(i: u32, lon: f64, lat: f64, ms: i64) -> Document {
    let mut d = doc! {
        "location" => doc! {
            "type" => "Point",
            "coordinates" => vec![Value::from(lon), Value::from(lat)],
        },
        "date" => DateTime::from_millis(ms),
        "hilbertIndex" => (lon * 1000.0) as i64,
    };
    d.ensure_id(i);
    d
}

/// A bslST-shaped collection: `_id`, compound (geo, date), single date.
fn bsl_st_collection(n: u32) -> LocalCollection {
    let mut c = LocalCollection::new();
    c.create_index(IndexSpec::single("_id"));
    c.create_index(IndexSpec::new(
        "location_2dsphere_date_1",
        vec![IndexField::geo("location"), IndexField::asc("date")],
    ));
    c.create_index(IndexSpec::single("date"));
    for i in 0..n {
        let lon = 20.0 + (i % 100) as f64 * 0.08;
        let lat = 35.0 + ((i / 100) % 60) as f64 * 0.1;
        c.insert(&point_doc(i, lon, lat, i64::from(i) * 10_000))
            .unwrap();
    }
    c
}

fn st_filter(rect: GeoRect, t0: i64, t1: i64) -> Filter {
    Filter::And(vec![
        Filter::GeoWithin {
            path: "location".into(),
            rect,
        },
        Filter::gte("date", DateTime::from_millis(t0)),
        Filter::lte("date", DateTime::from_millis(t1)),
    ])
}

#[test]
fn candidates_follow_leading_field_rule() {
    let c = bsl_st_collection(2_000);
    let planner = Planner::default();
    // Spatio-temporal query: compound (geo leads) + date index qualify;
    // _id does not (§3.1: no predicate on the leading field).
    let f = st_filter(GeoRect::new(21.0, 36.0, 23.0, 38.0), 0, 5_000_000);
    let plans = planner.candidates(&c, &f);
    let names: Vec<&str> = plans.iter().map(|p| p.index_name.as_str()).collect();
    assert!(names.contains(&"location_2dsphere_date_1"), "{names:?}");
    assert!(names.contains(&"date"), "{names:?}");
    assert!(!names.contains(&"_id"), "{names:?}");

    // Temporal-only query: the 2dsphere compound is unusable.
    let f = Filter::And(vec![
        Filter::gte("date", DateTime::from_millis(0)),
        Filter::lte("date", DateTime::from_millis(1_000)),
    ]);
    let names: Vec<String> = planner
        .candidates(&c, &f)
        .into_iter()
        .map(|p| p.index_name)
        .collect();
    assert_eq!(names, vec!["date"]);
}

#[test]
fn geo_leading_plans_are_sequential_with_date_key_filter() {
    // The 2dsphere stage must not seek on trailing date bounds (the
    // paper's baselines pay this); date becomes an index-level filter.
    let c = bsl_st_collection(500);
    let f = st_filter(GeoRect::new(21.0, 36.0, 22.0, 37.0), 0, 1_000_000);
    let plans = Planner::default().candidates(&c, &f);
    let geo_plan = plans
        .iter()
        .find(|p| p.index_name == "location_2dsphere_date_1")
        .unwrap();
    assert!(matches!(geo_plan.access, IndexAccess::Sequential));
    assert_eq!(geo_plan.key_filters.len(), 1, "date as index-level filter");
    assert!(!geo_plan.ranges.is_empty());
}

#[test]
fn hilbert_compound_gets_skip_scan() {
    let mut c = LocalCollection::new();
    c.create_index(IndexSpec::single("_id"));
    c.create_index(IndexSpec::new(
        "hilbertIndex_1_date_1",
        vec![IndexField::asc("hilbertIndex"), IndexField::asc("date")],
    ));
    for i in 0..500 {
        c.insert(&point_doc(
            i,
            20.0 + (i % 50) as f64 * 0.1,
            36.0,
            i64::from(i) * 1_000,
        ))
        .unwrap();
    }
    let f = Filter::And(vec![
        Filter::gte("date", DateTime::from_millis(100_000)),
        Filter::lte("date", DateTime::from_millis(200_000)),
        Filter::Or(vec![Filter::And(vec![
            Filter::gte("hilbertIndex", 20_500i64),
            Filter::lte("hilbertIndex", 21_500i64),
        ])]),
    ]);
    let plans = Planner::default().candidates(&c, &f);
    let hil = plans
        .iter()
        .find(|p| p.index_name == "hilbertIndex_1_date_1")
        .unwrap();
    assert!(
        matches!(hil.access, IndexAccess::SkipScan { .. }),
        "plain Asc compounds do interval intersection"
    );
    assert!(hil.key_filters.is_empty(), "skip-scan subsumes the filter");
}

#[test]
fn trial_ranking_prefers_selective_plan_for_small_queries() {
    let c = bsl_st_collection(5_000);
    // Tiny rectangle, wide time window: the compound examines few keys;
    // the date index would fetch everything in the window.
    let f = st_filter(GeoRect::new(21.0, 36.0, 21.1, 36.1), 0, 50_000_000);
    let plan = Planner::default().choose(&c, &f);
    assert_eq!(plan.index_name, "location_2dsphere_date_1");
}

#[test]
fn trial_ranking_can_prefer_date_index_for_big_queries() {
    let c = bsl_st_collection(5_000);
    // Huge rectangle (most of the space), narrow time window: scanning
    // the date index examines far fewer keys than the coarse spatial
    // covering — the Table 7 "○" cases.
    let f = st_filter(GeoRect::new(19.0, 34.0, 29.0, 42.0), 0, 500_000);
    let plan = Planner::default().choose(&c, &f);
    assert_eq!(plan.index_name, "date");
}

#[test]
fn unusable_everything_falls_back() {
    let c = bsl_st_collection(100);
    let f = Filter::gte("speedKmh", 10.0);
    let plan = Planner::default().choose(&c, &f);
    assert!(plan.is_fallback);
    assert_eq!(plan.index_name, "_id");
}

#[test]
fn geo_scan_cell_budget_controls_range_count() {
    let c = bsl_st_collection(500);
    let f = st_filter(GeoRect::new(19.7, 35.0, 28.0, 41.5), 0, 1_000_000);
    let coarse = Planner {
        geo_scan_cells: 8,
        ..Default::default()
    };
    let fine = Planner {
        geo_scan_cells: 128,
        ..Default::default()
    };
    let pc = coarse
        .candidates(&c, &f)
        .into_iter()
        .find(|p| p.index_name.contains("location"))
        .unwrap();
    let pf = fine
        .candidates(&c, &f)
        .into_iter()
        .find(|p| p.index_name.contains("location"))
        .unwrap();
    assert!(pc.ranges.len() <= pf.ranges.len());
    assert!(pf.ranges.len() > 4);
}

// ------------------------------------------------------------------
// Residuals: what a plan's bounds prove is dropped from the per-document
// check, everything else is kept, and results stay exact.

use proptest::prelude::*;
use sts_geo::{GeoPoint, GeoPolygon};
use sts_query::{execute_plan, CmpOp};

/// The three local index layouts behind the four approaches (`hil` and
/// `hil*` differ only in the curve's extent, not in the indexes).
fn approach_collections() -> [(&'static str, LocalCollection); 3] {
    let with = |specs: Vec<IndexSpec>| {
        let mut c = LocalCollection::new();
        c.create_index(IndexSpec::single("_id"));
        specs.into_iter().for_each(|s| c.create_index(s));
        c
    };
    [
        (
            "bslST",
            with(vec![
                IndexSpec::new(
                    "location_2dsphere_date_1",
                    vec![IndexField::geo("location"), IndexField::asc("date")],
                ),
                IndexSpec::single("date"),
            ]),
        ),
        (
            "bslTS",
            with(vec![
                IndexSpec::new(
                    "date_1_location_2dsphere",
                    vec![IndexField::asc("date"), IndexField::geo("location")],
                ),
                IndexSpec::single("date"),
            ]),
        ),
        (
            "hil/hil*",
            with(vec![IndexSpec::new(
                "hilbertIndex_1_date_1",
                vec![IndexField::asc("hilbertIndex"), IndexField::asc("date")],
            )]),
        ),
    ]
}

fn geo(rect: GeoRect) -> Filter {
    Filter::GeoWithin {
        path: "location".into(),
        rect,
    }
}

fn cmp(path: &str, op: CmpOp, value: impl Into<Value>) -> Filter {
    Filter::Cmp {
        path: path.into(),
        op,
        value: value.into(),
    }
}

fn dt(ms: i64) -> DateTime {
    DateTime::from_millis(ms)
}

/// `$or` of `[lo, hi]` interval branches on `hilbertIndex`.
fn hilbert_or(intervals: &[(i64, i64)]) -> Filter {
    Filter::Or(
        intervals
            .iter()
            .map(|&(lo, hi)| {
                Filter::And(vec![
                    Filter::gte("hilbertIndex", lo),
                    Filter::lte("hilbertIndex", hi),
                ])
            })
            .collect(),
    )
}

/// The residual of the (single) candidate plan on `index`.
fn residual_on(c: &LocalCollection, index: &str, f: &Filter) -> Filter {
    Planner::default()
        .candidates(c, f)
        .into_iter()
        .find(|p| p.index_name == index)
        .unwrap_or_else(|| panic!("no plan on {index}"))
        .residual
        .as_deref()
        .expect("index plans carry a residual")
        .clone()
}

#[test]
fn each_approach_drops_what_its_bounds_prove_and_keeps_the_geo_within() {
    let rect = GeoRect::new(21.0, 36.0, 23.0, 38.0);
    let window = [Filter::gte("date", dt(0)), Filter::lte("date", dt(9_000))];
    let st = Filter::And(vec![geo(rect), window[0].clone(), window[1].clone()]);
    let hil = Filter::And(vec![
        geo(rect),
        window[0].clone(),
        window[1].clone(),
        hilbert_or(&[(3, 9), (20, 20)]),
    ]);
    let [(_, bsl_st), (_, bsl_ts), (_, hilbert)] = approach_collections();
    // bslST: GeoHash cells only narrow the scan (kept); the date window
    // is an interval key filter on the compound, the B+tree bounds on
    // the single-field index (dropped either way).
    assert_eq!(
        residual_on(&bsl_st, "location_2dsphere_date_1", &st),
        geo(rect)
    );
    assert_eq!(residual_on(&bsl_st, "date", &st), geo(rect));
    // bslTS: the date window is the leading bounds; the trailing
    // GeoHash key filter is a superset.
    assert_eq!(
        residual_on(&bsl_ts, "date_1_location_2dsphere", &st),
        geo(rect)
    );
    // hil / hil*: the `$or` is the B+tree bounds, the window the
    // skip-scan; one rectangle test is left.
    assert_eq!(
        residual_on(&hilbert, "hilbertIndex_1_date_1", &hil),
        geo(rect)
    );
    // No index constraint at all: the fallback checks the whole filter.
    let off_index = Filter::gte("speedKmh", 10.0);
    assert_eq!(
        Planner::default().choose(&hilbert, &off_index).residual,
        None
    );
}

#[test]
fn lossy_or_unabsorbed_conjuncts_are_never_dropped() {
    let [_, _, (_, c)] = approach_collections();
    let rect = GeoRect::new(21.0, 36.0, 23.0, 38.0);
    let or = hilbert_or(&[(3, 9)]);
    let on = |f: &Filter| residual_on(&c, "hilbertIndex_1_date_1", f);
    let and = Filter::And;

    // Strict comparisons widen the bounds: both stay, the `$or` goes.
    let strict = [
        cmp("date", CmpOp::Gt, dt(0)),
        cmp("date", CmpOp::Lt, dt(9_000)),
    ];
    let f = and(vec![strict[0].clone(), strict[1].clone(), or.clone()]);
    assert_eq!(on(&f), and(strict.to_vec()));
    // One strict, one inclusive: only the inclusive one is proven.
    let f = and(vec![
        strict[0].clone(),
        Filter::lte("date", dt(9_000)),
        or.clone(),
    ]);
    assert_eq!(on(&f), strict[0]);

    // A polygon is planned through its bounding box.
    let polygon = Filter::GeoWithinPolygon {
        path: "location".into(),
        polygon: GeoPolygon::new(vec![
            GeoPoint::new(21.0, 36.0),
            GeoPoint::new(23.0, 36.0),
            GeoPoint::new(22.0, 38.0),
        ])
        .unwrap(),
    };
    assert_eq!(on(&and(vec![polygon.clone(), or.clone()])), polygon);

    // A second `$or` is not absorbed; an extra field predicate neither.
    let second = hilbert_or(&[(5, 30)]);
    let speed = Filter::gte("speedKmh", 10.0);
    let f = and(vec![geo(rect), or.clone(), second.clone(), speed.clone()]);
    assert_eq!(on(&f), and(vec![geo(rect), second, speed]));

    // Two `$in`s on the path are unioned into the bounds but the filter
    // intersects them: neither is proven.
    let ins = |vs: &[i64]| Filter::In {
        path: "hilbertIndex".into(),
        values: vs.iter().map(|&v| Value::Int64(v)).collect(),
    };
    let f = and(vec![ins(&[1, 3]), ins(&[3, 5])]);
    assert_eq!(on(&f), f);
    // Neighbouring integers merge into one scan range, which admits the
    // fractional doubles between them; the `$in` does not.
    assert_eq!(on(&ins(&[5, 6])), ins(&[5, 6]));
    assert_eq!(on(&ins(&[5, 7])), and(vec![]));

    // A half-open window is neither a skip-scan nor a key filter.
    let f = and(vec![Filter::gte("date", dt(0)), or.clone()]);
    assert_eq!(on(&f), Filter::gte("date", dt(0)));
    // A window whose ends sit in different type brackets, or in the
    // null bracket (where missing fields are indexed), proves nothing
    // under MongoDB's type bracketing.
    let mixed = [Filter::gte("date", 0i64), Filter::lte("date", dt(9_000))];
    let f = and(vec![mixed[0].clone(), mixed[1].clone(), or.clone()]);
    assert_eq!(on(&f), and(mixed.to_vec()));
    let nulls = [
        Filter::gte("date", Value::Null),
        Filter::lte("date", Value::Null),
    ];
    let f = and(vec![nulls[0].clone(), nulls[1].clone(), or.clone()]);
    assert_eq!(on(&f), and(nulls.to_vec()));
    // A bound from another bracket than the window's is kept even when
    // a tighter same-bracket bound exists.
    let f = and(vec![
        Filter::gte("date", 5i64),
        Filter::gte("date", dt(0)),
        Filter::lte("date", dt(9_000)),
        or,
    ]);
    assert_eq!(on(&f), Filter::gte("date", 5i64));
}

/// Repeated bounds inside one `$or` branch intersect, as the filter's
/// own `$and` does: the B+tree bounds are then the only check of the
/// dropped `$or`, so absorbing it any looser returns wrong rows.
#[test]
fn repeated_bounds_in_an_or_branch_are_absorbed_exactly() {
    let [_, _, (_, mut c)] = approach_collections();
    for h in 0..20i64 {
        let mut d = doc! { "hilbertIndex" => h, "date" => dt(h) };
        d.ensure_id(h as u32);
        c.insert(&d).unwrap();
    }
    let branch = |parts| Filter::Or(vec![Filter::And(parts)]);
    let h = |op, x: i64| cmp("hilbertIndex", op, x);
    let cells = |f: &Filter| -> Vec<i64> {
        let (docs, _) = c.find(f);
        assert_eq!(sorted_ids(&docs), sorted_ids(&c.find_collscan(f)), "{f:?}");
        let mut cells: Vec<i64> = docs
            .iter()
            .map(|d| d.get("hilbertIndex").unwrap().as_i64().unwrap())
            .collect();
        cells.sort_unstable();
        cells
    };

    // The looser bound comes last: last-one-wins would scan [3, 10].
    let f = branch(vec![h(CmpOp::Gte, 5), h(CmpOp::Gte, 3), h(CmpOp::Lte, 10)]);
    assert_eq!(
        residual_on(&c, "hilbertIndex_1_date_1", &f),
        Filter::And(vec![])
    );
    assert_eq!(cells(&f), (5..=10).collect::<Vec<_>>());
    let f = branch(vec![h(CmpOp::Gte, 2), h(CmpOp::Lte, 6), h(CmpOp::Lte, 9)]);
    assert_eq!(cells(&f), (2..=6).collect::<Vec<_>>());
    let f = branch(vec![h(CmpOp::Gte, 4), h(CmpOp::Eq, 6), h(CmpOp::Lte, 9)]);
    assert_eq!(cells(&f), vec![6]);

    // `h >= 7 && h == 5` admits nothing; overwriting made it `h == 5`.
    // A lone empty branch leaves no interval: the plan scans nothing.
    let empty = vec![h(CmpOp::Gte, 7), h(CmpOp::Eq, 5)];
    let f = branch(empty.clone());
    let plan = Planner::default().choose(&c, &f);
    assert!(!plan.is_fallback && plan.ranges.is_empty());
    assert_eq!(cells(&f), Vec::<i64>::new());
    // Beside a populated branch it contributes no scan range.
    let f = Filter::Or(vec![Filter::And(empty), h(CmpOp::Eq, 9)]);
    assert_eq!(
        residual_on(&c, "hilbertIndex_1_date_1", &f),
        Filter::And(vec![])
    );
    assert_eq!(cells(&f), vec![9]);
}

/// Small value domains, so stored values land exactly on bounds and
/// in the gaps between neighbouring integers.
const DATES: std::ops::Range<i64> = 0..12;
const CELLS: std::ops::Range<i64> = 0..24;

/// What a `date` or `hilbertIndex` field may hold instead of its
/// expected type: nothing, a null, a string, a fractional double,
/// another integer.
fn off_type() -> impl Strategy<Value = Option<Value>> {
    prop_oneof![
        Just(None),
        Just(Some(Value::Null)),
        "[a-b]{0,1}".prop_map(|s| Some(Value::from(s))),
        (0i64..48).prop_map(|x| Some(Value::Double(x as f64 / 2.0))),
        CELLS.prop_map(|x| Some(Value::Double(x as f64 + 0.5))),
        CELLS.prop_map(|x| Some(Value::Int64(x))),
    ]
}

/// `(lon, lat, date, hilbertIndex)`: two documents in three carry a
/// datetime / an integer, so windows stay populated while every
/// off-type value shows up.
fn random_doc() -> impl Strategy<Value = (f64, f64, Option<Value>, Option<Value>)> {
    let date = || DATES.prop_map(|ms| Some(Value::DateTime(dt(ms))));
    let hilbert = || CELLS.prop_map(|x| Some(Value::Int64(x)));
    (
        20.0f64..24.0,
        35.0f64..39.0,
        prop_oneof![date(), date(), off_type()],
        prop_oneof![hilbert(), hilbert(), off_type()],
    )
}

/// A bound on `date`: a datetime, or now and then a number or a null.
fn date_bound() -> impl Strategy<Value = Value> {
    let date = || DATES.prop_map(|ms| Value::DateTime(dt(ms)));
    prop_oneof![
        date(),
        date(),
        date(),
        DATES.prop_map(Value::Int64),
        Just(Value::Null),
    ]
}

/// A conjunct the bounds cannot prove, or can prove only in part: a
/// second `$or`, a top-level `$in` (unioned into the bounds though the
/// filter intersects it), a predicate on the leading field, a third —
/// possibly off-bracket, possibly strict — comparison on `date`.
fn extra_conjunct() -> impl Strategy<Value = Filter> {
    let date_cmp = || {
        (date_bound(), 0usize..5).prop_map(|(v, op)| {
            let ops = [CmpOp::Gte, CmpOp::Gte, CmpOp::Lte, CmpOp::Gt, CmpOp::Eq];
            cmp("date", ops[op], v)
        })
    };
    prop_oneof![
        prop::collection::vec((CELLS, 0i64..12), 1..3).prop_map(|ivs| {
            let ivs: Vec<(i64, i64)> = ivs.iter().map(|&(lo, w)| (lo, lo + w)).collect();
            hilbert_or(&ivs)
        }),
        prop::collection::vec(CELLS, 1..8).prop_map(|vs| Filter::In {
            path: "hilbertIndex".into(),
            values: vs.into_iter().map(Value::Int64).collect(),
        }),
        CELLS.prop_map(|x| Filter::lte("hilbertIndex", x)),
        date_cmp(),
        date_cmp(),
    ]
}

fn random_filter() -> impl Strategy<Value = Filter> {
    (
        (
            19.0f64..22.0,
            34.0f64..37.0,
            1.0f64..5.0,
            1.0f64..5.0,
            0u8..4,
        ),
        (date_bound(), date_bound(), 0u8..12),
        prop::collection::vec((CELLS, 0i64..6, 0u8..8), 1..4),
        prop::collection::vec(CELLS, 0..4),
        prop::collection::vec(extra_conjunct(), 0..3),
    )
        .prop_map(|(space, (t_a, t_b, strictness), ivs, singles, extra)| {
            let (lon, lat, w, h, shape) = space;
            let mut clauses = vec![if shape == 0 {
                Filter::GeoWithinPolygon {
                    path: "location".into(),
                    polygon: GeoPolygon::new(vec![
                        GeoPoint::new(lon, lat),
                        GeoPoint::new(lon + w, lat),
                        GeoPoint::new(lon + w / 2.0, lat + h),
                    ])
                    .unwrap(),
                }
            } else {
                geo(GeoRect::new(lon, lat, lon + w, lat + h))
            }];
            // Mostly a proper inclusive window. `strictness` 1..=3 makes
            // the lower / upper / both bounds strict, 4 leaves the
            // window half-open, 5 inverts it, 6..=8 pin it to one value.
            let (t_lo, t_hi) = match (strictness, t_a.canonical_cmp(&t_b)) {
                (6..=8, _) => (t_a.clone(), t_a),
                (5, std::cmp::Ordering::Less) => (t_b, t_a),
                (0..=4 | 9.., std::cmp::Ordering::Greater) => (t_b, t_a),
                _ => (t_a, t_b),
            };
            let strict = |on: bool, strict_op, op| if on { strict_op } else { op };
            let lo_op = strict(matches!(strictness, 1 | 3), CmpOp::Gt, CmpOp::Gte);
            let hi_op = strict(matches!(strictness, 2 | 3), CmpOp::Lt, CmpOp::Lte);
            clauses.push(cmp("date", lo_op, t_lo));
            if strictness != 4 {
                clauses.push(cmp("date", hi_op, t_hi));
            }
            // Half the branches are a plain `[lo, hi]`; the others
            // repeat an operator — the looser bound last — or add an
            // `$eq` that pins or empties the branch.
            let mut branches: Vec<Filter> = ivs
                .iter()
                .map(|&(lo, w, repeat)| {
                    let h = |op, x: i64| cmp("hilbertIndex", op, x);
                    let mut parts = vec![h(CmpOp::Gte, lo), h(CmpOp::Lte, lo + w)];
                    match repeat {
                        4 => parts.insert(0, h(CmpOp::Gte, lo + 2)),
                        5 => parts.push(h(CmpOp::Lte, lo + w + 3)),
                        6 => parts.insert(1, h(CmpOp::Eq, lo + 1)),
                        7 => parts.insert(0, h(CmpOp::Eq, lo - 1)),
                        _ => {}
                    }
                    Filter::And(parts)
                })
                .collect();
            if !singles.is_empty() {
                branches.push(Filter::In {
                    path: "hilbertIndex".into(),
                    values: singles.into_iter().map(Value::Int64).collect(),
                });
            }
            clauses.push(Filter::Or(branches));
            clauses.extend(extra);
            Filter::And(clauses)
        })
}

fn sorted_ids(docs: &[Document]) -> Vec<sts_document::ObjectId> {
    let mut ids: Vec<_> = docs.iter().map(|d| d.object_id().unwrap()).collect();
    ids.sort();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every candidate plan of every approach's index layout — not only
    /// the trial winner — returns exactly what a collection scan with
    /// the *whole* filter returns, on data whose `date`/`hilbertIndex`
    /// may be off-type or absent and on filters mixing provable and
    /// unprovable conjuncts.
    #[test]
    fn prop_every_plan_equals_collscan_with_the_whole_filter(
        docs in prop::collection::vec(random_doc(), 1..300),
        filters in prop::collection::vec(random_filter(), 1..8),
    ) {
        for (name, mut c) in approach_collections() {
            for (i, (lon, lat, date, hilbert)) in docs.iter().enumerate() {
                let mut d = doc! {
                    "location" => doc! {
                        "type" => "Point",
                        "coordinates" => vec![Value::from(*lon), Value::from(*lat)],
                    },
                };
                if let Some(v) = date {
                    d.set("date", v.clone());
                }
                if let Some(v) = hilbert {
                    d.set("hilbertIndex", v.clone());
                }
                d.ensure_id(i as u32);
                c.insert(&d).unwrap();
            }
            for f in &filters {
                let truth = sorted_ids(&c.find_collscan(f));
                prop_assert_eq!(sorted_ids(&c.find(f).0), truth.clone(), "{} find {:?}", name, f);
                for plan in Planner::default().candidates(&c, f) {
                    let (got, _) = execute_plan(&c, f, &plan, None, true);
                    prop_assert_eq!(
                        sorted_ids(&got), truth.clone(),
                        "{} plan {} residual {:?} filter {:?}", name, plan.describe(), plan.residual, f
                    );
                }
            }
        }
    }
}
