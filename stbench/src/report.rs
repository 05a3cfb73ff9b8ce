//! Metric definitions and everything printed or written about a run.

use crate::layers::{btree_bench, BtreeBench};
use crate::stats::{median, percentile};
use crate::trace::Total;
use crate::workloads::Outcome;
use serde::Json;
use std::collections::BTreeMap;

/// Which way a metric gets better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

use Better::{Higher, Lower};

/// What a caller of the store sees. Same names on every workload;
/// `BENCHMARK.json` repeats this table (a unit test holds them equal).
/// Bounds are derived from measured run-to-run spread (README,
/// "Bounds").
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("query_p50_us", "us", Lower, 0.25),
    e2e("query_p99_us", "us", Lower, 0.25),
    e2e("queries_per_s", "1/s", Higher, 0.25),
    e2e("write_docs_per_s", "1/s", Higher, 0.25),
    e2e("store_bytes_per_doc", "B", Lower, 0.02),
];

/// Single-layer metrics of the traced run. A metric that does not apply
/// to a workload (no curve, cache off) is printed as `n/a` and carried
/// as 0 in the result line.
pub const PER_LAYER: [MetricDef; 54] = [
    layer("curve.decompose_us", "us", Lower),
    layer("curve.ranges_per_query", "count", Lower),
    layer("curve.index_of_ns", "ns", Lower),
    layer("geo.cover_us", "us", Lower),
    layer("core.plan_us", "us", Lower),
    layer("core.facade_us", "us", Lower),
    layer("core.unattributed_us", "us", Lower),
    layer("core.unattributed_pct", "%", Lower),
    layer("core.result_hit_us", "us", Lower),
    layer("core.result_hit_ratio", "ratio", Higher),
    layer("core.result_stales", "count", Lower),
    layer("core.result_evictions", "count", Lower),
    layer("core.plan_hit_ratio", "ratio", Higher),
    layer("core.route_refresh_share", "ratio", Lower),
    layer("core.insert_busy_pct", "%", Lower),
    layer("cluster.route_us", "us", Lower),
    layer("cluster.exec_us", "us", Lower),
    layer("cluster.shard_serial_us", "us", Lower),
    layer("cluster.fanout_overhead_us", "us", Lower),
    layer("cluster.nodes_per_query", "count", Lower),
    layer("cluster.inline_share", "ratio", Higher),
    layer("cluster.merge_us", "us", Lower),
    layer("cluster.ingest_residual_us_per_doc", "us", Lower),
    layer("cluster.splits", "count", Lower),
    layer("cluster.migrations", "count", Lower),
    layer("cluster.commit_p50_ms", "ms", Lower),
    layer("cluster.commit_p90_ms", "ms", Lower),
    layer("query.plan_us", "us", Lower),
    layer("query.execute_us", "us", Lower),
    layer("query.filter_self_us", "us", Lower),
    layer("query.docs_per_result", "ratio", Lower),
    layer("index.scan_us", "us", Lower),
    layer("index.keys_per_result", "ratio", Lower),
    layer("index.seeks_per_query", "count", Lower),
    layer("index.insert_ns_per_doc", "ns", Lower),
    layer("index.bytes_per_doc", "B", Lower),
    layer("btree.scan_ns_per_key", "ns", Lower),
    layer("btree.seek_ns", "ns", Lower),
    layer("btree.insert_ns_per_key", "ns", Lower),
    layer("btree.depth", "count", Lower),
    layer("btree.leaf_nodes", "count", Lower),
    layer("encoding.key_encode_ns", "ns", Lower),
    layer("storage.fetch_ns_per_doc", "ns", Lower),
    layer("storage.insert_ns_per_doc", "ns", Lower),
    layer("storage.bytes_per_doc", "B", Lower),
    layer("storage.compress_ratio", "ratio", Lower),
    layer("document.encode_ns", "ns", Lower),
    layer("document.decode_ns", "ns", Lower),
    layer("harness.gen_s", "s", Lower),
    layer("harness.oracle_s", "s", Lower),
    layer("trace.facade_shift_pct", "%", Lower),
    layer("trace.sampled_queries", "count", Higher),
    layer("trace.spans", "count", Higher),
    layer("mem.peak_rss_mb", "MB", Lower),
];

/// Metric values by name; `None` = does not apply / too few samples.
pub type Values = Vec<(&'static str, Option<f64>)>;

fn sorted_f64(ns: impl Iterator<Item = u64>, per: f64) -> Vec<f64> {
    let mut v: Vec<f64> = ns.map(|x| x as f64 / per).collect();
    v.sort_by(f64::total_cmp);
    v
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// Consecutive blocks of `len` samples in issue order; the last block
/// absorbs the remainder, and fewer than two blocks' worth of samples
/// form a single block.
fn blocks(samples: &[u64], len: usize) -> Vec<&[u64]> {
    let n = (samples.len() / len).max(1);
    (0..n)
        .map(|i| {
            let end = if i + 1 == n {
                samples.len()
            } else {
                (i + 1) * len
            };
            &samples[i * len..end]
        })
        .collect()
}

/// Median over blocks of a per-block statistic; `None` if any block
/// has none (too few samples for the percentile).
fn block_median(samples: &[u64], len: usize, stat: impl Fn(&[u64]) -> Option<f64>) -> Option<f64> {
    let per_block: Option<Vec<f64>> = blocks(samples, len).into_iter().map(stat).collect();
    median(&per_block?)
}

/// The end-to-end values of a run.
///
/// Query latency and throughput are taken per block of consecutive
/// timed queries (`Outcome::block_len`: 1024, or one ingest pass) and
/// reported as the median over blocks: on a shared
/// two-core sandbox a stall of the host lands in a few blocks, and the
/// median over blocks does not move with how many such stalls a run
/// happened to catch, where a percentile over the whole window does.
pub fn end_to_end(o: &Outcome) -> Values {
    let block_percentile = |p: f64| {
        block_median(&o.query_ns, o.block_len, |b| {
            percentile(&sorted_f64(b.iter().copied(), 1e3), p)
        })
    };
    // Every write call into a measured store: its `bulk_load` preload
    // and each `insert_batch` after it.
    let commit_s = o.commits.iter().map(|c| c.0).sum::<u64>() as f64 / 1e9;
    let commit_docs: u64 = o.commits.iter().map(|c| u64::from(c.1)).sum();
    let size = sizes(o);
    vec![
        ("setup_s", median(&o.setup_s)),
        ("query_p50_us", block_percentile(0.5)),
        ("query_p99_us", block_percentile(0.99)),
        (
            "queries_per_s",
            block_median(&o.query_ns, o.block_len, |b| {
                ratio(b.len() as f64 * 1e9, b.iter().sum::<u64>() as f64)
            }),
        ),
        (
            "write_docs_per_s",
            ratio(
                o.measured_preload_docs as f64 + commit_docs as f64,
                o.measured_setup_s + commit_s,
            ),
        ),
        (
            "store_bytes_per_doc",
            ratio(size.storage + size.index, size.docs),
        ),
    ]
}

/// Bytes the store holds at the end of the run.
struct Sizes {
    /// Compressed collection blocks (`storageSize`).
    storage: f64,
    /// Serialized documents (`dataSize`).
    data: f64,
    /// Prefix-compressed leaf plus internal bytes of every index.
    index: f64,
    docs: f64,
}

fn sizes(o: &Outcome) -> Sizes {
    let stats = o.store.collection_stats();
    Sizes {
        storage: stats.storage_bytes as f64,
        data: stats.data_bytes as f64,
        index: o
            .store
            .index_sizes()
            .iter()
            .map(|(_, r)| r.total_compressed() as f64)
            .sum(),
        docs: o.store.doc_count() as f64,
    }
}

/// Share of the busy time spent inside `insert_batch`, in percent.
fn insert_busy_pct(o: &Outcome) -> Option<f64> {
    let query_ns: u64 = o.query_ns.iter().sum();
    let commit_ns: u64 = o.commits.iter().map(|c| c.0).sum();
    ratio(100.0 * commit_ns as f64, (commit_ns + query_ns) as f64)
}

fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Per-layer values of a traced run (`o.probe` is `Some`).
pub fn per_layer(o: &Outcome) -> Values {
    let probe = o.probe.as_ref().expect("per-layer metrics need --trace 1");
    let totals = probe.tracer.totals();
    let pc = probe.counts;
    let c = &o.counts;
    let total = |name: &str| totals.get(name).copied().unwrap_or(Total::default());
    // Mean microseconds per sampled query; `None` if never recorded.
    let per_query = |name: &str| {
        let t = total(name);
        (t.count > 0 && pc.queries > 0).then(|| t.total_ns as f64 / 1e3 / pc.queries as f64)
    };
    let per_n = |name: &str, n: u64| {
        let t = total(name);
        (t.count > 0 && n > 0).then(|| t.total_ns as f64 / n as f64)
    };
    let bench: BtreeBench = btree_bench(&o.store, probe.btree_shard, &probe.kept_plans);

    let facade = per_query("core.facade");
    let plan = per_query("core.plan");
    let route = per_query("cluster.route");
    let exec = per_query("cluster.exec");
    let serial = per_query("shard.find");
    let execute = per_query("query.execute");
    let scan = per_query("index.scan");
    let fetch = per_query("storage.fetch");
    let unattributed = match (facade, plan, route, exec) {
        (Some(f), Some(p), Some(r), Some(e)) => Some(f - (p + r + e)),
        _ => None,
    };
    let index_of = per_n("curve.index_of", pc.points_indexed);
    let index_insert = per_n("index.insert", pc.write_docs);
    let storage_insert = per_n("storage.insert", pc.write_docs);
    let residual = per_n("core.insert_batch", pc.write_docs).map(|wall| {
        (wall
            - index_of.unwrap_or(0.0)
            - index_insert.unwrap_or(0.0)
            - storage_insert.unwrap_or(0.0))
            / 1e3
    });
    let commits = sorted_f64(o.commits.iter().map(|c| c.0), 1e6);
    let size = sizes(o);
    let result_lookups = c.result_hits + c.result_misses + c.result_stales;
    let cache_on = result_lookups > 0;
    let facade_ns = total("core.facade").total_ns as f64;

    vec![
        ("curve.decompose_us", per_query("curve.decompose")),
        (
            "curve.ranges_per_query",
            store_has_curve(o).then(|| pc.ranges as f64 / pc.queries.max(1) as f64),
        ),
        ("curve.index_of_ns", index_of),
        ("geo.cover_us", per_query("geo.cover")),
        ("core.plan_us", plan),
        ("core.facade_us", facade),
        ("core.unattributed_us", unattributed),
        (
            "core.unattributed_pct",
            unattributed.zip(facade).map(|(u, f)| 100.0 * u / f),
        ),
        (
            "core.result_hit_us",
            ratio(c.result_hit_ns as f64 / 1e3, c.result_hits as f64),
        ),
        (
            "core.result_hit_ratio",
            ratio(c.result_hits as f64, result_lookups as f64),
        ),
        (
            "core.result_stales",
            cache_on.then_some(c.result_stales as f64),
        ),
        (
            "core.result_evictions",
            cache_on.then_some(c.result_evictions as f64),
        ),
        (
            "core.plan_hit_ratio",
            ratio(c.plan_hits as f64, c.plan_lookups as f64),
        ),
        (
            "core.route_refresh_share",
            ratio(c.route_refreshed as f64, c.plan_lookups as f64),
        ),
        ("core.insert_busy_pct", insert_busy_pct(o)),
        ("cluster.route_us", route),
        ("cluster.exec_us", exec),
        ("cluster.shard_serial_us", serial),
        (
            "cluster.fanout_overhead_us",
            exec.zip(serial).map(|(e, s)| e - s),
        ),
        (
            "cluster.nodes_per_query",
            ratio(c.nodes as f64, c.executed as f64),
        ),
        (
            "cluster.inline_share",
            ratio(c.inline_runs as f64, c.executed as f64),
        ),
        (
            "cluster.merge_us",
            ratio(pc.merge.as_nanos() as f64 / 1e3, pc.queries as f64),
        ),
        ("cluster.ingest_residual_us_per_doc", residual),
        ("cluster.splits", Some(c.splits as f64)),
        ("cluster.migrations", Some(c.migrations as f64)),
        ("cluster.commit_p50_ms", percentile(&commits, 0.5)),
        ("cluster.commit_p90_ms", percentile(&commits, 0.9)),
        ("query.plan_us", per_query("query.plan")),
        ("query.execute_us", execute),
        (
            "query.filter_self_us",
            match (execute, scan, fetch) {
                (Some(e), Some(s), Some(f)) => Some(e - s - f),
                _ => None,
            },
        ),
        (
            "query.docs_per_result",
            ratio(c.docs_examined as f64, c.returned as f64),
        ),
        ("index.scan_us", scan),
        (
            "index.keys_per_result",
            ratio(c.keys_examined as f64, c.returned as f64),
        ),
        (
            "index.seeks_per_query",
            ratio(c.seeks as f64, c.executed as f64),
        ),
        ("index.insert_ns_per_doc", index_insert),
        ("index.bytes_per_doc", ratio(size.index, size.docs)),
        ("btree.scan_ns_per_key", bench.scan_ns_per_key),
        ("btree.seek_ns", bench.seek_ns),
        ("btree.insert_ns_per_key", Some(bench.insert_ns_per_key)),
        ("btree.depth", Some(bench.depth as f64)),
        ("btree.leaf_nodes", Some(bench.leaf_nodes as f64)),
        ("encoding.key_encode_ns", Some(bench.key_encode_ns)),
        (
            "storage.fetch_ns_per_doc",
            per_n("storage.fetch", pc.docs_fetched),
        ),
        ("storage.insert_ns_per_doc", storage_insert),
        ("storage.bytes_per_doc", ratio(size.storage, size.docs)),
        ("storage.compress_ratio", ratio(size.storage, size.data)),
        (
            "document.encode_ns",
            per_n("document.encode", pc.write_docs),
        ),
        (
            "document.decode_ns",
            per_n("document.decode", pc.write_docs),
        ),
        ("harness.gen_s", Some(o.gen_s)),
        ("harness.oracle_s", Some(o.oracle_s)),
        (
            "trace.facade_shift_pct",
            ratio(
                100.0 * (facade_ns - c.sampled_own_ns as f64),
                c.sampled_own_ns as f64,
            ),
        ),
        ("trace.sampled_queries", Some(pc.queries as f64)),
        ("trace.spans", Some(probe.tracer.spans().len() as f64)),
        ("mem.peak_rss_mb", peak_rss_mb()),
    ]
}

fn store_has_curve(o: &Outcome) -> bool {
    o.store.curve().is_some()
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
        .map_or("", |d| d.unit)
}

/// `{name: {"value": v, "unit": u}}`. A value that does not apply is
/// carried as 0 so the key set is the same on every workload.
pub fn metrics_json(values: &Values) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|(name, v)| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Float(v.unwrap_or(0.0))),
                        ("unit".into(), Json::Str(unit_of(name).into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(o: &Outcome, values: &Values) -> String {
    let json = Json::Obj(vec![
        ("correct".into(), Json::Bool(o.failed == 0)),
        ("attempted".into(), Json::UInt(o.attempted)),
        ("failed".into(), Json::UInt(o.failed)),
        ("metrics".into(), metrics_json(values)),
    ]);
    serde_json::to_string(&json).expect("the shim's serializer is infallible")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The human-readable block printed before the result line.
pub fn describe(o: &Outcome, seconds: f64, values: &Values) -> String {
    let mut s = format!(
        "workload {}  seed {}  seconds {}  nproc {}\n\
         records {}  preloaded {}  committed {}  timed queries {}  commits {}\n\
         fingerprint.data {:016x}  fingerprint.ops {:016x}  results_total {}\n\
         attempted {}  failed {}  failed_share {}\n",
        o.workload,
        o.seed,
        seconds,
        nproc(),
        o.records,
        o.preloaded,
        o.committed,
        o.query_ns.len(),
        o.commits.len(),
        o.data_fingerprint,
        o.ops_fingerprint,
        o.results_total,
        o.attempted,
        o.failed,
        o.failed as f64 / o.attempted.max(1) as f64,
    );
    for (name, v) in values {
        let shown = v.map_or_else(|| "n/a".to_string(), |x| format!("{x:.4}"));
        s.push_str(&format!("{name:<36} {shown:>16} {}\n", unit_of(name)));
    }
    // Informational row: context, not gated.
    s.push_str(&format!(
        "info: insert_busy_pct {:.2}  peak_rss_mb {:.1}  gen_s {:.3}  oracle_s {:.3}\n",
        insert_busy_pct(o).unwrap_or(0.0),
        peak_rss_mb().unwrap_or(0.0),
        o.gen_s,
        o.oracle_s,
    ));
    s
}

/// The `--json` document of one run.
pub fn run_json(o: &Outcome, seconds: f64, trace: bool, values: &Values) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str("stbench-run/1".into())),
        ("workload".into(), Json::Str(o.workload.into())),
        ("seed".into(), Json::UInt(o.seed)),
        ("seconds".into(), Json::Float(seconds)),
        ("trace".into(), Json::Bool(trace)),
        ("nproc".into(), Json::UInt(nproc() as u64)),
        ("records".into(), Json::UInt(o.records as u64)),
        ("preloaded".into(), Json::UInt(o.preloaded as u64)),
        ("committed".into(), Json::UInt(o.committed as u64)),
        ("timed_queries".into(), Json::UInt(o.query_ns.len() as u64)),
        ("commits".into(), Json::UInt(o.commits.len() as u64)),
        (
            "data_fingerprint".into(),
            Json::Str(format!("{:016x}", o.data_fingerprint)),
        ),
        (
            "ops_fingerprint".into(),
            Json::Str(format!("{:016x}", o.ops_fingerprint)),
        ),
        ("results_total".into(), Json::UInt(o.results_total)),
        ("correct".into(), Json::Bool(o.failed == 0)),
        ("attempted".into(), Json::UInt(o.attempted)),
        ("failed".into(), Json::UInt(o.failed)),
        ("metrics".into(), metrics_json(values)),
    ])
}

/// Medians per workload × metric, read back from a `--repeat` set file.
pub type SetMedians = BTreeMap<String, BTreeMap<String, f64>>;

pub fn set_medians(set: &Json) -> Result<SetMedians, String> {
    let workloads = set
        .get("workloads")
        .and_then(Json::as_object)
        .ok_or("not a stbench set file: no `workloads` object")?;
    let mut out = SetMedians::new();
    for (w, metrics) in workloads {
        let metrics = metrics
            .as_object()
            .ok_or_else(|| format!("workload `{w}` is not an object"))?;
        let row = out.entry(w.clone()).or_default();
        for (m, cell) in metrics {
            let med = cell
                .get("median")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{w}/{m}: no numeric `median`"))?;
            row.insert(m.clone(), med);
        }
    }
    Ok(out)
}

/// Compare two sets: per workload × end-to-end metric print both
/// medians, how much worse `b` is than `a` (as a share of `a`, signed
/// so that positive is worse) and the bound. Returns the table and
/// whether every pair is within its bound.
pub fn compare(a: &SetMedians, b: &SetMedians) -> (String, bool) {
    let mut table = format!(
        "{:<22} {:<20} {:>14} {:>14} {:>9} {:>7}\n",
        "workload", "metric", "a", "b", "worse_%", "bound_%"
    );
    let mut ok = true;
    for (w, row_a) in a {
        for def in &END_TO_END {
            let (Some(&va), Some(&vb)) =
                (row_a.get(def.name), b.get(w).and_then(|r| r.get(def.name)))
            else {
                table.push_str(&format!("{w:<22} {:<20} missing on one side\n", def.name));
                ok = false;
                continue;
            };
            let worse = match def.better {
                Better::Lower => (vb - va) / va.abs(),
                Better::Higher => (va - vb) / va.abs(),
            };
            let within = worse <= def.bound;
            ok &= within;
            table.push_str(&format!(
                "{w:<22} {:<20} {va:>14.4} {vb:>14.4} {:>9.2} {:>7.1}{}\n",
                def.name,
                100.0 * worse,
                100.0 * def.bound,
                if within { "" } else { "  OUTSIDE" }
            ));
        }
    }
    (table, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(defs: &[MetricDef]) -> Vec<&str> {
        defs.iter().map(|d| d.name).collect()
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all = names(&END_TO_END);
        all.extend(names(&PER_LAYER));
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "a metric name is used once");
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
    }

    /// `BENCHMARK.json` is the contract the driver reads; this table is
    /// what the binary prints. They must not drift apart.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let text = include_str!("../../BENCHMARK.json");
        let json = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            json.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("`{key}` array"))
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (
                        s("name"),
                        s("unit"),
                        s("better"),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let want = |defs: &[MetricDef], bounded: bool| -> Vec<_> {
            defs.iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        d.better.name().to_string(),
                        bounded.then_some(d.bound),
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), want(&END_TO_END, true));
        assert_eq!(listed("per_layer"), want(&PER_LAYER, false));
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let ours: Vec<String> = crate::workloads::WORKLOADS
            .iter()
            .map(|(n, _)| n.to_string())
            .collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            json.get("run_seconds").and_then(Json::as_f64),
            Some(crate::workloads::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn blocks_partition_the_samples_in_order() {
        let v: Vec<u64> = (0..3000).collect();
        let b = blocks(&v, 1024);
        assert_eq!(b.len(), 2);
        assert_eq!((b[0].len(), b[1].len()), (1024, 1976));
        assert_eq!(b[1][0], 1024);
        assert_eq!(blocks(&v[..2047], 1024).len(), 1);
        assert_eq!(blocks(&v[..10], 1024).len(), 1);
        assert_eq!(blocks(&v, 1000).len(), 3);
        assert!(blocks(&[], 1024).iter().all(|b| b.is_empty()));
        // One stalled block moves a whole-window p99 but not the median
        // over blocks.
        let mut ns = vec![100_000u64; 5 * 1024];
        ns[2048..3072].fill(900_000);
        let p99 = |s: &[u64]| {
            block_median(s, 1024, |b| {
                percentile(&sorted_f64(b.iter().copied(), 1e3), 0.99)
            })
        };
        assert_eq!(p99(&ns), Some(100.0));
        assert_eq!(
            percentile(&sorted_f64(ns.iter().copied(), 1e3), 0.99),
            Some(900.0)
        );
        // Too few samples for a p99 anywhere: no value.
        assert_eq!(p99(&ns[..500]), None);
    }

    #[test]
    fn compare_flags_only_what_is_outside_its_bound() {
        let set = |p50: f64, qps: f64| -> SetMedians {
            let mut row = BTreeMap::new();
            for d in &END_TO_END {
                row.insert(d.name.to_string(), 100.0);
            }
            row.insert("query_p50_us".into(), p50);
            row.insert("queries_per_s".into(), qps);
            BTreeMap::from([("w".to_string(), row)])
        };
        let base = set(100.0, 100.0);
        // 20 % slower median and 20 % fewer queries: inside 25 %.
        assert!(compare(&base, &set(120.0, 80.0)).1);
        // Faster is never a regression, however large.
        assert!(compare(&base, &set(10.0, 1000.0)).1);
        let (table, ok) = compare(&base, &set(130.0, 100.0));
        assert!(!ok && table.contains("OUTSIDE"), "{table}");
        assert!(!compare(&base, &set(100.0, 70.0)).1, "higher-is-better");
        let mut missing = base.clone();
        missing.get_mut("w").unwrap().remove("setup_s");
        assert!(!compare(&base, &missing).1);
    }

    #[test]
    fn set_file_round_trips_through_the_json_shim() {
        let text = r#"{"schema":"stbench-set/1","workloads":{"w":{"query_p50_us":
            {"median":12.5,"q1":12.0,"q3":13.0,"values":[12.0,12.5,13.0]}}}}"#;
        let parsed = serde_json::from_str(text).unwrap();
        let again = serde_json::from_str(&serde_json::to_string(&parsed).unwrap()).unwrap();
        assert_eq!(parsed, again);
        let med = set_medians(&again).unwrap();
        assert_eq!(med["w"]["query_p50_us"], 12.5);
        assert!(set_medians(&Json::Null).is_err());
    }
}
