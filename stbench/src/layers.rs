//! The traced run's layer probe: replays a sampled operation step by
//! step through each crate's public functions, one span per call.
//!
//! Per sampled query (the workload has just issued it through the
//! facade, so every step below sees the same CPU-cache state):
//! `curve.decompose` | `geo.cover` → `core.plan` → `cluster.route` →
//! `cluster.exec` → `cluster.shard_serial` → per target shard
//! {`query.plan`, `query.execute`, `index.scan`, `storage.fetch`} →
//! `core.facade`. Per write batch: `curve.index_of`, `document.encode`,
//! `document.decode`, `storage.insert`, `index.insert` on stand-alone
//! structures, then the workload's own `insert_batch`.

use crate::trace::Tracer;
use std::hint::black_box;
use std::ops::{Bound, ControlFlow};
use std::time::{Duration, Instant};
use sts_btree::BTree;
use sts_cluster::QueryExecOptions;
use sts_core::{StQuery, StStore};
use sts_curve::CoveringScratch;
use sts_document::{decode_document, encode_document, Document};
use sts_encoding::KeyWriter;
use sts_geo::{cells_to_ranges, cover_rect, GeoPoint};
use sts_index::{extract_key_values, geo_point_of, Index, ScanRange, ScanScratch};
use sts_query::{execute_plan, IndexAccess, LocalCollection, QueryPlan};
use sts_storage::CollectionStore;

/// Sampled plans kept for the stand-alone B+tree scan.
const MAX_KEPT_PLANS: usize = 512;

/// Counts the spans cannot carry.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeCounts {
    pub queries: u64,
    pub ranges: u64,
    pub merge: Duration,
    pub docs_fetched: u64,
    pub write_docs: u64,
    pub points_indexed: u64,
}

pub struct LayerProbe {
    pub tracer: Tracer,
    pub counts: ProbeCounts,
    /// Sample every `every`-th timed query.
    pub every: u64,
    /// Shard whose plans are kept for the B+tree scan (the largest one
    /// after preload).
    pub btree_shard: usize,
    pub kept_plans: Vec<Vec<ScanRange>>,
    covering: CoveringScratch,
    ranges: Vec<(u64, u64)>,
    scan: ScanScratch,
    rids: Vec<u64>,
    /// Stand-alone copies of the store's indexes, fed by write batches.
    indexes: Vec<Index>,
    next_rid: u64,
}

/// The index a shard's plans scan: the first one with two or more
/// fields (`(hilbertIndex, date)` or `(date, location 2dsphere)`).
fn compound_index(coll: &LocalCollection) -> &Index {
    coll.indexes()
        .iter()
        .find(|i| i.spec().fields.len() >= 2)
        .expect("every approach keeps a compound index")
}

fn as_ref_bound(b: &sts_btree::KeyBound) -> Bound<&[u8]> {
    match b {
        Bound::Included(k) => Bound::Included(k),
        Bound::Excluded(k) => Bound::Excluded(k),
        Bound::Unbounded => Bound::Unbounded,
    }
}

impl LayerProbe {
    pub fn new(store: &StStore, every: u64) -> LayerProbe {
        let shards = store.cluster().shards();
        let btree_shard = (0..shards.len())
            .max_by_key(|&i| shards[i].len())
            .expect("a store has shards");
        LayerProbe {
            tracer: Tracer::default(),
            counts: ProbeCounts::default(),
            every,
            btree_shard,
            kept_plans: Vec::new(),
            covering: CoveringScratch::new(),
            ranges: Vec::new(),
            scan: ScanScratch::new(),
            rids: Vec::new(),
            indexes: shards[0]
                .collection()
                .indexes()
                .iter()
                .map(|i| Index::new(i.spec().clone()))
                .collect(),
            next_rid: 0,
        }
    }

    /// Step one query through the layers.
    pub fn query(&mut self, store: &StStore, q: &StQuery, op: u32) {
        let LayerProbe {
            tracer,
            counts,
            covering,
            ranges,
            scan,
            rids,
            kept_plans,
            btree_shard,
            ..
        } = self;
        let planner = store.config().planner;
        let cluster = store.cluster();
        counts.queries += 1;
        tracer.span("op.query", op, |tr| {
            match store.curve() {
                Some(curve) => {
                    ranges.clear();
                    tr.leaf("curve.decompose", op, || {
                        curve.decompose_rect_into(
                            &q.rect,
                            store.config().range_budget,
                            covering,
                            ranges,
                        )
                    });
                    counts.ranges += ranges.len() as u64;
                }
                None => {
                    let bits = store.config().geo_bits;
                    tr.leaf("geo.cover", op, || {
                        let cells = cover_rect(&q.rect, bits, planner.geo_scan_cells);
                        black_box(cells_to_ranges(&cells, bits));
                    });
                }
            }
            let filter = tr.leaf("core.plan", op, || store.filter_for(q));
            let route = tr.leaf("cluster.route", op, || cluster.route_plan(&filter));
            let (docs, report) = tr.leaf("cluster.exec", op, || {
                cluster.query_exec(
                    &filter,
                    QueryExecOptions {
                        route: Some(&route),
                        recovery: None,
                    },
                )
            });
            counts.merge += report.merge;
            drop(docs);
            tr.span("cluster.shard_serial", op, |tr| {
                for &sid in &route.targets {
                    let coll = cluster.shards()[sid].collection();
                    tr.leaf("shard.find", op, || {
                        black_box(coll.find_with_planner(&planner, &filter));
                    });
                }
            });
            tr.span("shard.steps", op, |tr| {
                for &sid in &route.targets {
                    let coll = cluster.shards()[sid].collection();
                    let plan = tr.leaf("query.plan", op, || planner.choose(coll, &filter));
                    tr.leaf("query.execute", op, || {
                        black_box(execute_plan(coll, &filter, &plan, None, true));
                    });
                    rids.clear();
                    tr.leaf("index.scan", op, || scan_only(coll, &plan, scan, rids));
                    let snapshot = coll.snapshot();
                    tr.leaf("storage.fetch", op, || {
                        for &rid in rids.iter() {
                            black_box(coll.get_visible(rid, snapshot));
                        }
                    });
                    counts.docs_fetched += rids.len() as u64;
                    if sid == *btree_shard && kept_plans.len() < MAX_KEPT_PLANS {
                        kept_plans.push(plan.ranges);
                    }
                }
            });
            tr.leaf("core.facade", op, || {
                black_box(store.st_query(q));
            });
        });
    }

    /// Step one write batch through stand-alone copies of the write
    /// path's layers. `docs` are the batch as the workload will hand it
    /// to `insert_batch` (not yet augmented).
    pub fn write(&mut self, store: &StStore, docs: &[Document], op: u32) {
        let LayerProbe {
            tracer,
            counts,
            indexes,
            next_rid,
            ..
        } = self;
        let points: Vec<GeoPoint> = docs
            .iter()
            .map(|d| geo_point_of(d, sts_core::LOCATION_FIELD).expect("generated point"))
            .collect();
        counts.write_docs += docs.len() as u64;
        tracer.span("op.write_probe", op, |tr| {
            let mut augmented = docs.to_vec();
            if let Some(curve) = store.curve() {
                let cells: Vec<u64> = tr.leaf("curve.index_of", op, || {
                    points.iter().map(|&p| curve.index_of(p)).collect()
                });
                counts.points_indexed += cells.len() as u64;
                for (d, c) in augmented.iter_mut().zip(cells) {
                    d.set(sts_core::HILBERT_FIELD, c as i64);
                }
            }
            let bytes: Vec<Vec<u8>> = tr.leaf("document.encode", op, || {
                augmented.iter().map(encode_document).collect()
            });
            tr.leaf("document.decode", op, || {
                for b in &bytes {
                    black_box(decode_document(b).expect("just encoded"));
                }
            });
            // A fresh store per batch: a persistent one would hold a
            // second decoded copy of everything ingested.
            let mut heap = CollectionStore::new();
            tr.leaf("storage.insert", op, || {
                for d in &augmented {
                    black_box(heap.insert_at(d, 0));
                }
            });
            drop(heap);
            tr.leaf("index.insert", op, || {
                for d in &augmented {
                    for index in indexes.iter_mut() {
                        black_box(index.insert_doc(d, *next_rid));
                    }
                    *next_rid += 1;
                }
            });
        });
    }
}

/// The index half of `execute_plan`: walk the plan's ranges, apply its
/// key filters, collect the record ids a fetch would follow — and fetch
/// nothing.
fn scan_only(
    coll: &LocalCollection,
    plan: &QueryPlan,
    scan: &mut ScanScratch,
    rids: &mut Vec<u64>,
) {
    let Some(index) = coll.indexes().get(&plan.index_name) else {
        return;
    };
    let mut visit = |values: &[sts_document::Value], rid: u64| {
        if plan.key_filters.iter().all(|kf| kf.matches(values)) {
            rids.push(rid);
        }
        ControlFlow::Continue(())
    };
    match &plan.access {
        IndexAccess::Sequential => {
            index.scan_ranges_with(scan, &plan.ranges, &mut visit);
        }
        IndexAccess::SkipScan { t_lo, t_hi } => {
            for r in &plan.ranges {
                index.skip_scan_2d_with(scan, r, t_lo, t_hi, &mut visit);
            }
        }
    }
}

/// Stand-alone B+tree numbers, taken once when the run ends.
#[derive(Clone, Copy, Debug, Default)]
pub struct BtreeBench {
    pub key_encode_ns: f64,
    pub insert_ns_per_key: f64,
    pub depth: u64,
    pub leaf_nodes: u64,
    /// `None` when no sampled plan touched the shard.
    pub seek_ns: Option<f64>,
    pub scan_ns_per_key: Option<f64>,
}

/// Load a fresh `BTree` with shard `sid`'s compound-index keys in
/// arrival order, then replay the kept plans' ranges on it: one pass of
/// seeks alone, one of seeks plus `next` until each upper bound.
pub fn btree_bench(store: &StStore, sid: usize, plans: &[Vec<ScanRange>]) -> BtreeBench {
    let coll = store.cluster().shards()[sid].collection();
    let spec = compound_index(coll).spec().clone();
    let values: Vec<(u64, Vec<sts_document::Value>)> = coll
        .iter()
        .map(|(rid, d)| {
            (
                rid,
                extract_key_values(&spec, &d).expect("indexed document"),
            )
        })
        .collect();
    let started = Instant::now();
    let keys: Vec<Vec<u8>> = values
        .iter()
        .map(|(rid, vs)| {
            let mut w = KeyWriter::new();
            for v in vs {
                w.push(v);
            }
            w.push_raw_u64(*rid);
            w.finish()
        })
        .collect();
    let encode = started.elapsed();
    let mut tree = BTree::new();
    let started = Instant::now();
    for (key, (rid, _)) in keys.iter().zip(&values) {
        tree.insert(key, *rid);
    }
    let insert = started.elapsed();
    let n = keys.len().max(1) as f64;
    let mut out = BtreeBench {
        key_encode_ns: encode.as_nanos() as f64 / n,
        insert_ns_per_key: insert.as_nanos() as f64 / n,
        depth: tree.depth() as u64,
        leaf_nodes: tree.size_report().leaf_nodes,
        seek_ns: None,
        scan_ns_per_key: None,
    };
    // Enough passes that the timed section is milliseconds, not
    // microseconds.
    const PASSES: u32 = 8;
    let started = Instant::now();
    let mut seeks = 0u64;
    for _ in 0..PASSES {
        let mut cur = tree.batch_cursor();
        for range in plans.iter().flatten() {
            cur.seek(as_ref_bound(&range.lower));
        }
        seeks += black_box(cur.seeks());
    }
    let seek_time = started.elapsed();
    let started = Instant::now();
    let mut examined = 0u64;
    for _ in 0..PASSES {
        let mut cur = tree.batch_cursor();
        for range in plans.iter().flatten() {
            cur.seek(as_ref_bound(&range.lower));
            let upper = as_ref_bound(&range.upper);
            while let Some(entry) = cur.next(upper) {
                black_box(entry);
            }
        }
        examined += cur.keys_examined();
    }
    let scan_time = started.elapsed();
    if seeks > 0 {
        out.seek_ns = Some(seek_time.as_nanos() as f64 / seeks as f64);
    }
    if examined > 0 {
        out.scan_ns_per_key =
            Some(scan_time.saturating_sub(seek_time).as_nanos() as f64 / examined as f64);
    }
    out
}
