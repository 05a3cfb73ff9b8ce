//! The byte-level skip-scan against a model that walks the decoded,
//! sorted entry list with `canonical_cmp`: same `(values, rid)`
//! sequence, same `keys_examined`, same `seeks`.

use proptest::prelude::*;
use std::cmp::Ordering;
use std::ops::ControlFlow;
use sts_document::{doc, DateTime, Value};
use sts_index::{Index, IndexField, IndexSpec, ScanRange, ScanStats};

type Entry = (Vec<Value>, u64);

fn index_of(rows: &[(i64, Option<Value>)]) -> Index {
    let mut idx = Index::new(IndexSpec::new(
        "h_t",
        vec![IndexField::asc("h"), IndexField::asc("t")],
    ));
    for (rid, (h, t)) in rows.iter().enumerate() {
        let mut d = doc! {"h" => *h};
        if let Some(t) = t {
            d.set("t", t.clone());
        }
        assert!(idx.insert_doc(&d, rid as u64));
    }
    idx
}

/// Every entry in key order, decoded — what `scan_ranges` plus an
/// in-closure window check starts from.
fn sorted_entries(idx: &Index) -> Vec<Entry> {
    let mut out = Vec::new();
    idx.scan_ranges(&[ScanRange::whole()], |vals, rid| {
        out.push((vals.to_vec(), rid));
        ControlFlow::Continue(())
    });
    out
}

fn lt(a: &Value, b: &Value) -> bool {
    a.canonical_cmp(b) == Ordering::Less
}

/// MongoDB's bounds checker over the sorted entries: examine a key,
/// emit it when its trailing value is inside the window, otherwise
/// reposition (one seek) at `(h, t_lo)` or past `h`. The key that ends
/// the leading range is examined too; the end of the tree is not a key.
fn model(
    entries: &[Entry],
    (h_lo, h_hi): (&Value, &Value),
    (t_lo, t_hi): (&Value, &Value),
) -> (Vec<Entry>, ScanStats) {
    let mut hits = Vec::new();
    let mut stats = ScanStats {
        keys_examined: 0,
        seeks: 1,
    };
    let mut pos = entries.partition_point(|(v, _)| lt(&v[0], h_lo));
    while let Some((vals, rid)) = entries.get(pos) {
        stats.keys_examined += 1;
        if lt(h_hi, &vals[0]) {
            break;
        }
        let ahead = &entries[pos + 1..];
        if lt(&vals[1], t_lo) {
            stats.seeks += 1;
            pos += 1 + ahead.partition_point(|(v, _)| !lt(&vals[0], &v[0]) && lt(&v[1], t_lo));
        } else if lt(t_hi, &vals[1]) {
            stats.seeks += 1;
            pos += 1 + ahead.partition_point(|(v, _)| !lt(&vals[0], &v[0]));
        } else {
            hits.push((vals.clone(), *rid));
            pos += 1;
        }
    }
    (hits, stats)
}

fn assert_parity(idx: &Index, entries: &[Entry], h: (i64, i64), t: (&Value, &Value)) {
    let (h_lo, h_hi) = (Value::Int64(h.0), Value::Int64(h.1));
    let leading = ScanRange::with_prefix(&[], Some((&h_lo, true)), Some((&h_hi, true)));
    let mut got = Vec::new();
    let stats = idx.skip_scan_2d(&leading, t.0, t.1, |vals, rid| {
        got.push((vals.to_vec(), rid));
        ControlFlow::Continue(())
    });
    let (want, want_stats) = model(entries, (&h_lo, &h_hi), t);
    assert_eq!(got, want, "h {h:?} t {t:?}");
    assert_eq!(stats, want_stats, "h {h:?} t {t:?}");
}

/// Trailing values across the type brackets a window must keep apart:
/// null, integers, fractional doubles, strings, datetimes, and absent.
fn trailing() -> impl Strategy<Value = Option<Value>> {
    prop_oneof![
        (0i64..40).prop_map(|ms| Some(Value::DateTime(DateTime::from_millis(ms)))),
        (0i64..40).prop_map(|ms| Some(Value::DateTime(DateTime::from_millis(ms)))),
        (0i64..40).prop_map(|x| Some(Value::Int64(x))),
        (0i64..80).prop_map(|x| Some(Value::Double(x as f64 / 2.0))),
        "[a-c]{0,2}".prop_map(|s| Some(Value::from(s))),
        Just(Some(Value::Null)),
        Just(None),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random trees with few distinct leading values (long duplicate
    /// runs) and mixed-type trailing values, under random windows —
    /// inverted and cross-type ones included.
    #[test]
    fn prop_skip_scan_matches_the_model(
        rows in prop::collection::vec((0i64..12, trailing()), 0..400),
        windows in prop::collection::vec((0i64..12, 0i64..12, trailing(), trailing()), 1..8),
    ) {
        let idx = index_of(&rows);
        let entries = sorted_entries(&idx);
        for (h_a, h_b, t_a, t_b) in &windows {
            let t_a = t_a.clone().unwrap_or(Value::Null);
            let t_b = t_b.clone().unwrap_or(Value::Null);
            assert_parity(&idx, &entries, (*h_a.min(h_b), *h_a.max(h_b)), (&t_a, &t_b));
            // The same bounds the other way round: an empty window
            // unless they are equal.
            assert_parity(&idx, &entries, (*h_a.min(h_b), *h_a.max(h_b)), (&t_b, &t_a));
        }
    }
}

/// Sweep the end of the window, and the end of the leading range, over
/// every stored value of a tree several leaves deep: whatever the leaf
/// layout, some of these end on a leaf's last entry and some begin on
/// a leaf's first.
#[test]
fn windows_ending_on_every_entry_including_leaf_boundaries() {
    let rows: Vec<(i64, Option<Value>)> = (0..6i64)
        .flat_map(|h| {
            (0..70i64).map(move |ms| (h, Some(Value::DateTime(DateTime::from_millis(ms)))))
        })
        .collect();
    let idx = index_of(&rows);
    let entries = sorted_entries(&idx);
    let dt = |ms: i64| Value::DateTime(DateTime::from_millis(ms));
    for end in 0..70 {
        assert_parity(&idx, &entries, (0, 5), (&dt(end / 2), &dt(end)));
        assert_parity(&idx, &entries, (1, 4), (&dt(end), &dt(end)));
    }
    for h_hi in 0..6 {
        assert_parity(&idx, &entries, (0, h_hi), (&dt(0), &dt(69)));
        assert_parity(&idx, &entries, (h_hi, h_hi), (&dt(69), &dt(0)));
    }
}
