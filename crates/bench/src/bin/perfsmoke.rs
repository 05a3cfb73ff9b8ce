//! Machine-readable perf smoke test: a small fixed-seed workload run
//! across all four paper approaches, emitting schema-versioned JSON
//! that CI diffs against a committed baseline (`bench-diff`).
//!
//! Per approach we report latency percentiles (p50/p95/p99 from an
//! HDR-style histogram of per-query cluster latency), throughput over
//! the query window alone (build time is measured separately and never
//! pollutes it), and the paper's work counters (keys/docs examined,
//! nodes touched).
//!
//! ```text
//! cargo run -p sts-bench --release --bin perfsmoke -- \
//!     --scale 0.002 --queries 40 --json results/BENCH_baseline.json
//! ```
//!
//! Defaults write `results/BENCH_<date>.json`.
//!
//! With `--curve-matrix` the binary instead scores every
//! (approach × curve family) cell of the zoo on the clustered
//! hot-window workload — covering-range counts, keys examined,
//! queries-routed Gini and latency percentiles — emitting
//! schema-versioned `sts-curvematrix/1` JSON and exiting non-zero if
//! any cell's result count disagrees with the in-binary full scan.
//!
//! With `--router` it instead runs the repeated-shape Zipf workload
//! against the full router tier (plan + result caches, admission
//! control): per (approach × curve) cell it reports cold/warm
//! latency percentiles, hit ratio, executor helper-task counts and the
//! overload-drill shed counts as schema-versioned `sts-router/1`
//! JSON, exiting non-zero when exactness, the ≥ 0.9 warm hit ratio or
//! the ≥ 5× hil/hil* warm speedup gate fails.

use serde::Serialize;
use std::time::{Duration, Instant};
use sts_bench::{
    build_store, clustered_query_batch, dataset_records, save_json_to, small_query_batch,
    utc_date_string, zipf_sequence, Dataset, HarnessConfig,
};
use sts_core::{AdmissionConfig, Approach, RouterConfig};
use sts_curve::CurveFamily;
use sts_obs::Histogram;

/// Bump when the report layout changes incompatibly.
const SCHEMA: &str = "sts-bench/1";

#[derive(Serialize)]
struct BenchReport {
    schema: String,
    generated_at: String,
    scale: f64,
    shards: usize,
    seed: u64,
    queries: usize,
    records: u64,
    approaches: Vec<ApproachRow>,
}

#[derive(Serialize)]
struct ApproachRow {
    approach: String,
    /// Curve family the approach ran on (`"none"` for the baselines,
    /// which have no curve). bench-diff keys rows on (approach, curve).
    curve: String,
    /// Latency percentiles of per-query cluster latency (slowest shard
    /// bounds each query), in microseconds.
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    mean_us: f64,
    max_us: f64,
    /// Queries per second over the measured query window.
    throughput_qps: f64,
    /// Store construction (bulk load), kept apart from the query window.
    build_ms: f64,
    /// §5.1 work counters, aggregated over the whole batch.
    max_keys_examined: u64,
    max_docs_examined: u64,
    total_keys_examined: u64,
    total_docs_examined: u64,
    mean_nodes: f64,
    /// Total matching documents across the batch (a correctness anchor:
    /// this must never drift between runs at the same seed).
    results: u64,
    /// Hilbert decomposition totals (zero for the baselines).
    covering_us_total: f64,
    covering_ranges_total: usize,
    /// Router warm path: the same batch re-run with the result-page
    /// cache enabled, after one priming pass. Latency is end-to-end
    /// wall per query (min over `--runs`), since a cache hit never
    /// touches a shard. bench-diff gates `warm_p50_us` with its own
    /// (wider) tolerance — absolute values are lookup-scale.
    warm_p50_us: f64,
    warm_p95_us: f64,
    /// Result-cache hit ratio over the measured warm window (priming
    /// excluded). Informational in bench-diff; `perfsmoke --router`
    /// gates it.
    cache_hit_ratio: f64,
    /// Range-budget ablation (Hilbert methods only): the same batch
    /// re-run at budgets 16/32/64/128 against the already-loaded store,
    /// showing the seeks-vs-false-positives trade-off the default
    /// budget sits on. Empty for the baselines.
    budget_ablation: Vec<AblationRow>,
}

/// One ablation point: the workload at one covering-range budget.
#[derive(Clone, Serialize)]
struct AblationRow {
    budget: u64,
    p50_us: f64,
    covering_ranges_total: usize,
    total_keys_examined: u64,
    /// Correctness anchor: identical across budgets at a fixed seed.
    results: u64,
}

/// Budgets ablated per Hilbert approach (the default is 64).
const ABLATION_BUDGETS: [usize; 4] = [16, 32, 64, 128];

/// Standalone ablation artifact (`--ablation-json`), the CI upload.
#[derive(Serialize)]
struct AblationReport {
    schema: String,
    generated_at: String,
    scale: f64,
    seed: u64,
    queries: usize,
    approaches: Vec<AblationApproach>,
}

#[derive(Serialize)]
struct AblationApproach {
    approach: String,
    rows: Vec<AblationRow>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, rest) = HarnessConfig::from_args(&args);
    let mut n_queries = 120usize;
    let mut json_path: Option<String> = None;
    let mut ablation_path: Option<String> = None;
    let mut curve_matrix = false;
    let mut router = false;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut grab = |name: &str| -> Option<String> {
            if a == name {
                it.next().cloned()
            } else {
                a.strip_prefix(&format!("{name}=")).map(str::to_string)
            }
        };
        if let Some(v) = grab("--queries") {
            n_queries = v.parse().expect("--queries takes an integer");
        } else if let Some(v) = grab("--json") {
            json_path = Some(v);
        } else if let Some(v) = grab("--ablation-json") {
            ablation_path = Some(v);
        } else if a == "--curve-matrix" {
            curve_matrix = true;
        } else if a == "--router" {
            router = true;
        } else {
            eprintln!("perfsmoke: unknown argument {a}");
            std::process::exit(2);
        }
    }
    if curve_matrix {
        let path = json_path.unwrap_or_else(|| "results/CURVE_matrix.json".to_string());
        std::process::exit(run_matrix(&cfg, n_queries, &path));
    }
    if router {
        let path = json_path.unwrap_or_else(|| "results/ROUTER_smoke.json".to_string());
        std::process::exit(run_router(&cfg, n_queries, &path));
    }
    let path = json_path.unwrap_or_else(|| format!("results/BENCH_{}.json", utc_date_string()));
    eprintln!(
        "# perfsmoke: scale={} shards={} seed={:#x} queries={n_queries} -> {path}",
        cfg.scale, cfg.num_shards, cfg.seed
    );

    let records = dataset_records(Dataset::R, &cfg, 1);
    let queries = small_query_batch(n_queries, cfg.seed);
    let mut approaches = Vec::new();
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>10} {:>9} {:>10} {:>10} {:>8}",
        "approach",
        "p50(us)",
        "p95(us)",
        "p99(us)",
        "mean(us)",
        "qps",
        "maxKeys",
        "maxDocs",
        "results"
    );
    for approach in Approach::ALL {
        approaches.push(run_approach(approach, &records, &queries, &cfg));
    }

    let report = BenchReport {
        schema: SCHEMA.to_string(),
        generated_at: utc_date_string(),
        scale: cfg.scale,
        shards: cfg.num_shards,
        seed: cfg.seed,
        queries: n_queries,
        records: records.len() as u64,
        approaches,
    };
    if let Err(e) = save_json_to(std::path::Path::new(&path), &report) {
        eprintln!("perfsmoke: cannot write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("# wrote {path}");

    if let Some(apath) = ablation_path {
        let ablation = AblationReport {
            schema: "sts-bench-ablation/1".to_string(),
            generated_at: utc_date_string(),
            scale: cfg.scale,
            seed: cfg.seed,
            queries: n_queries,
            approaches: report
                .approaches
                .iter()
                .filter(|a| !a.budget_ablation.is_empty())
                .map(|a| AblationApproach {
                    approach: a.approach.clone(),
                    rows: a.budget_ablation.clone(),
                })
                .collect(),
        };
        if let Err(e) = save_json_to(std::path::Path::new(&apath), &ablation) {
            eprintln!("perfsmoke: cannot write {apath}: {e}");
            std::process::exit(1);
        }
        eprintln!("# wrote {apath}");
    }
}

/// The curve label a report row carries: the configured family for the
/// curve-based approaches, `"none"` for the baselines (which have no
/// curve at all).
fn curve_label(approach: Approach, curve: CurveFamily) -> String {
    if approach.uses_hilbert() {
        curve.name().to_string()
    } else {
        "none".to_string()
    }
}

// ------------------------------------------------------- curve matrix

/// Bump when the matrix layout changes incompatibly.
const MATRIX_SCHEMA: &str = "sts-curvematrix/1";

#[derive(Serialize)]
struct MatrixReport {
    schema: String,
    generated_at: String,
    scale: f64,
    shards: usize,
    seed: u64,
    queries: usize,
    records: u64,
    /// Which workload the matrix scored (always the clustered
    /// hot-window batch — the regime that separates the curves).
    workload: String,
    cells: Vec<MatrixCell>,
}

/// One (approach × curve) cell of the clustering-quality matrix.
#[derive(Serialize)]
struct MatrixCell {
    approach: String,
    curve: String,
    p50_us: f64,
    p95_us: f64,
    /// Covering ranges the decomposition produced over the batch — the
    /// paper's clustering-quality proxy (fewer ranges = better
    /// locality at equal budget).
    covering_ranges_total: usize,
    /// Index keys examined across all shards — false-positive work.
    total_keys_examined: u64,
    /// Gini of queries routed per shard — load dispersion under the
    /// hot temporal window (lower = more even).
    queries_routed_gini: f64,
    results: u64,
    /// Every query's result count matched the in-binary full scan.
    exact: bool,
}

/// Score every (approach × curve) cell on the clustered hot-window
/// workload and write the `sts-curvematrix/1` artifact. Returns the
/// process exit code: non-zero when any cell's result count disagrees
/// with the full scan (the CI correctness gate).
fn run_matrix(cfg: &HarnessConfig, n_queries: usize, path: &str) -> i32 {
    eprintln!(
        "# perfsmoke --curve-matrix: scale={} shards={} seed={:#x} queries={n_queries} -> {path}",
        cfg.scale, cfg.num_shards, cfg.seed
    );
    let records = dataset_records(Dataset::R, cfg, 1);
    let queries = clustered_query_batch(n_queries, cfg.seed);
    // Ground truth by brute force over the raw records — independent of
    // every index, curve and routing layer under test.
    let expected: Vec<u64> = queries
        .iter()
        .map(|q| {
            records
                .iter()
                .filter(|r| q.matches(r.lon, r.lat, r.date))
                .count() as u64
        })
        .collect();

    let mut cells = Vec::new();
    println!(
        "{:<8} {:<8} {:>10} {:>10} {:>8} {:>12} {:>8} {:>9} {:>6}",
        "approach",
        "curve",
        "p50(us)",
        "p95(us)",
        "ranges",
        "totalKeys",
        "gini(q)",
        "results",
        "exact"
    );
    for approach in Approach::ALL {
        let families: &[CurveFamily] = if approach.uses_hilbert() {
            &CurveFamily::ALL
        } else {
            // The baselines have no curve: one cell each, for scale
            // reference against the curve-based rows.
            &[CurveFamily::Hilbert]
        };
        for &family in families {
            let mut run_cfg = *cfg;
            run_cfg.curve = family;
            cells.push(run_matrix_cell(
                approach, family, &records, &queries, &expected, &run_cfg,
            ));
        }
    }

    let all_exact = cells.iter().all(|c| c.exact);
    let report = MatrixReport {
        schema: MATRIX_SCHEMA.to_string(),
        generated_at: utc_date_string(),
        scale: cfg.scale,
        shards: cfg.num_shards,
        seed: cfg.seed,
        queries: n_queries,
        records: records.len() as u64,
        workload: "clustered hot-window".to_string(),
        cells,
    };
    if let Err(e) = save_json_to(std::path::Path::new(path), &report) {
        eprintln!("perfsmoke: cannot write {path}: {e}");
        return 1;
    }
    eprintln!("# wrote {path}");
    if !all_exact {
        eprintln!("perfsmoke: result-count drift against the full scan — see the `exact` column");
        return 1;
    }
    0
}

fn run_matrix_cell(
    approach: Approach,
    family: CurveFamily,
    records: &[sts_workload::Record],
    queries: &[sts_core::StQuery],
    expected: &[u64],
    cfg: &HarnessConfig,
) -> MatrixCell {
    let mut store = build_store(approach, Dataset::R, records, cfg, false);
    store.set_metrics_registry(std::sync::Arc::new(sts_obs::Registry::new()));
    for q in queries {
        let _ = store.st_query(q);
    }
    let latency = Histogram::new();
    let mut ranges = 0usize;
    let mut keys = 0u64;
    let mut results = 0u64;
    let mut exact = true;
    let runs = cfg.measured_runs.max(1);
    for (q, &want) in queries.iter().zip(expected) {
        let mut best = None;
        let mut report = None;
        for _ in 0..runs {
            let (_, r) = store.st_query(q);
            let lat = r.cluster_latency();
            best = Some(best.map_or(lat, |b: std::time::Duration| b.min(lat)));
            report = Some(r);
        }
        let (best, report) = (best.expect("runs >= 1"), report.expect("runs >= 1"));
        latency.record(best);
        ranges += report.hilbert_ranges;
        keys += report.cluster.total_keys_examined();
        results += report.cluster.n_returned();
        exact &= report.cluster.n_returned() == want && !report.cluster.partial;
    }
    // Gini over the whole run (warm-up included): the batch repeats
    // identically, so per-shard routing counts scale uniformly and the
    // Gini coefficient is unaffected.
    let gini = store.health_snapshot().queries_skew().gini;
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    let snap = latency.snapshot();
    let cell = MatrixCell {
        approach: approach.name().to_string(),
        curve: curve_label(approach, family),
        p50_us: us(snap.p50),
        p95_us: us(snap.p95),
        covering_ranges_total: ranges,
        total_keys_examined: keys,
        queries_routed_gini: gini,
        results,
        exact,
    };
    println!(
        "{:<8} {:<8} {:>10.1} {:>10.1} {:>8} {:>12} {:>8.3} {:>9} {:>6}",
        cell.approach,
        cell.curve,
        cell.p50_us,
        cell.p95_us,
        cell.covering_ranges_total,
        cell.total_keys_examined,
        cell.queries_routed_gini,
        cell.results,
        cell.exact
    );
    cell
}

// ------------------------------------------------------- router smoke

/// Bump when the router report layout changes incompatibly.
const ROUTER_SCHEMA: &str = "sts-router/1";

/// Distinct query shapes the Zipf draw repeats over.
const ROUTER_SHAPES: usize = 32;

#[derive(Serialize)]
struct RouterSmokeReport {
    schema: String,
    generated_at: String,
    scale: f64,
    shards: usize,
    seed: u64,
    /// Distinct query shapes in the pool.
    shapes: usize,
    /// Zipf(s=1) draws over the pool (the measured warm window).
    queries: usize,
    records: u64,
    workload: String,
    cells: Vec<RouterCell>,
    /// The load-shedding drill: one tenant with a tiny frozen token
    /// bucket hammers the store; the excess must shed, other tenants
    /// must keep flowing.
    overload: OverloadSummary,
}

/// One (approach × curve) cell of the repeated-shape workload.
#[derive(Serialize)]
struct RouterCell {
    approach: String,
    curve: String,
    /// First execution of each shape (plan + result miss), end-to-end
    /// wall in microseconds.
    cold_p50_us: f64,
    cold_p95_us: f64,
    /// Steady-state Zipf window with the result cache primed.
    warm_p50_us: f64,
    warm_p95_us: f64,
    /// cold_p50 / warm_p50 — the headline cache win.
    speedup_p50: f64,
    /// Result-cache hit ratio over the warm window (gate: ≥ 0.9).
    hit_ratio: f64,
    plan_cache_hits: u64,
    result_cache_hits: u64,
    result_cache_misses: u64,
    executor_tasks: u64,
    executor_helper_tasks: u64,
    /// Matching documents across the warm window (exactness anchor).
    results: u64,
    /// Every execution's result count matched the in-binary full scan.
    exact: bool,
}

#[derive(Serialize)]
struct OverloadSummary {
    attempted: u64,
    admitted: u64,
    sheds: u64,
    other_tenant_admitted: bool,
}

/// Score every (approach × curve) cell on the repeated-shape Zipf
/// workload with the full router tier enabled, then run the overload
/// drill. Returns the process exit code: non-zero when any cell is
/// inexact, any cell's warm hit ratio is below 0.9, or a curve-based
/// cell's warm p50 is not at least 5× faster than cold (the CI
/// `router-perf` gates).
fn run_router(cfg: &HarnessConfig, n_queries: usize, path: &str) -> i32 {
    eprintln!(
        "# perfsmoke --router: scale={} shards={} seed={:#x} shapes={ROUTER_SHAPES} \
         queries={n_queries} -> {path}",
        cfg.scale, cfg.num_shards, cfg.seed
    );
    let records = dataset_records(Dataset::R, cfg, 1);
    let shapes = small_query_batch(ROUTER_SHAPES, cfg.seed);
    let seq = zipf_sequence(n_queries, ROUTER_SHAPES, cfg.seed);
    let expected: Vec<u64> = shapes
        .iter()
        .map(|q| {
            records
                .iter()
                .filter(|r| q.matches(r.lon, r.lat, r.date))
                .count() as u64
        })
        .collect();

    let mut cells = Vec::new();
    println!(
        "{:<8} {:<8} {:>10} {:>10} {:>10} {:>9} {:>8} {:>12} {:>9} {:>6}",
        "approach",
        "curve",
        "cold50(us)",
        "warm50(us)",
        "warm95(us)",
        "speedup",
        "hitrate",
        "helper_tasks",
        "results",
        "exact"
    );
    for approach in Approach::ALL {
        let families: &[CurveFamily] = if approach.uses_hilbert() {
            &CurveFamily::ALL
        } else {
            &[CurveFamily::Hilbert]
        };
        for &family in families {
            let mut run_cfg = *cfg;
            run_cfg.curve = family;
            cells.push(run_router_cell(
                approach, family, &records, &shapes, &seq, &expected, &run_cfg,
            ));
        }
    }

    let overload = run_overload_drill(&records, cfg);

    let mut failures = Vec::new();
    for c in &cells {
        let name = format!("{}/{}", c.approach, c.curve);
        if !c.exact {
            failures.push(format!("{name}: result-count drift against the full scan"));
        }
        if c.hit_ratio < 0.9 {
            failures.push(format!("{name}: warm hit ratio {:.3} < 0.9", c.hit_ratio));
        }
        // The 5× warm-path gate applies to the curve-based approaches —
        // the production hot path this tier exists for. The baselines'
        // cold queries are single-shard date lookups that can already
        // be lookup-scale, so a ratio gate there measures noise.
        if matches!(c.approach.as_str(), "hil" | "hil*") && c.speedup_p50 < 5.0 {
            failures.push(format!(
                "{name}: warm p50 only {:.1}× faster than cold (< 5×)",
                c.speedup_p50
            ));
        }
    }
    if overload.sheds == 0 || overload.admitted == 0 || !overload.other_tenant_admitted {
        failures.push(format!(
            "overload drill: admitted={} sheds={} other_tenant_admitted={} \
             (need all three non-degenerate)",
            overload.admitted, overload.sheds, overload.other_tenant_admitted
        ));
    }

    let report = RouterSmokeReport {
        schema: ROUTER_SCHEMA.to_string(),
        generated_at: utc_date_string(),
        scale: cfg.scale,
        shards: cfg.num_shards,
        seed: cfg.seed,
        shapes: ROUTER_SHAPES,
        queries: n_queries,
        records: records.len() as u64,
        workload: "zipf(s=1) repeated-shape over hotspot rectangles".to_string(),
        cells,
        overload,
    };
    if let Err(e) = save_json_to(std::path::Path::new(path), &report) {
        eprintln!("perfsmoke: cannot write {path}: {e}");
        return 1;
    }
    eprintln!("# wrote {path}");
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("perfsmoke --router GATE FAIL: {f}");
        }
        return 1;
    }
    0
}

fn run_router_cell(
    approach: Approach,
    family: CurveFamily,
    records: &[sts_workload::Record],
    shapes: &[sts_core::StQuery],
    seq: &[usize],
    expected: &[u64],
    cfg: &HarnessConfig,
) -> RouterCell {
    let mut store = build_store(approach, Dataset::R, records, cfg, false);
    store.set_metrics_registry(std::sync::Arc::new(sts_obs::Registry::new()));
    store.set_router_config(RouterConfig {
        result_cache_entries: 1024,
        result_cache_max_docs: 1 << 20,
        ..RouterConfig::default()
    });

    // Cold window: the first execution of every shape pays the full
    // plan + execute + fill cost. End-to-end wall, since that is what
    // the warm path is compared against.
    let cold = Histogram::new();
    let mut exact = true;
    for (q, &want) in shapes.iter().zip(expected) {
        let (docs, r) = store.st_query(q);
        cold.record(r.cluster.wall);
        exact &= docs.len() as u64 == want && !r.cluster.partial;
    }

    // Warm window: the Zipf draw over the primed shapes.
    let c0 = store.result_cache_counters();
    let warm = Histogram::new();
    let mut results = 0u64;
    for &idx in seq {
        let (docs, r) = store.st_query(&shapes[idx]);
        warm.record(r.cluster.wall);
        results += docs.len() as u64;
        exact &= docs.len() as u64 == expected[idx] && !r.cluster.partial;
    }
    let c1 = store.result_cache_counters();
    let served = c1.hits - c0.hits;
    let total = served + (c1.misses - c0.misses) + (c1.stale - c0.stale);
    let hit_ratio = if total == 0 {
        0.0
    } else {
        served as f64 / total as f64
    };

    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let (cold_snap, warm_snap) = (cold.snapshot(), warm.snapshot());
    let exec = store.executor_stats();
    let cell = RouterCell {
        approach: approach.name().to_string(),
        curve: curve_label(approach, family),
        cold_p50_us: us(cold_snap.p50),
        cold_p95_us: us(cold_snap.p95),
        warm_p50_us: us(warm_snap.p50),
        warm_p95_us: us(warm_snap.p95),
        speedup_p50: us(cold_snap.p50) / us(warm_snap.p50).max(1e-9),
        hit_ratio,
        plan_cache_hits: store.plan_cache_counters().hits,
        result_cache_hits: served,
        result_cache_misses: c1.misses - c0.misses,
        executor_tasks: exec.tasks,
        executor_helper_tasks: exec.helper_tasks,
        results,
        exact,
    };
    println!(
        "{:<8} {:<8} {:>10.1} {:>10.1} {:>10.1} {:>8.1}x {:>8.3} {:>12} {:>9} {:>6}",
        cell.approach,
        cell.curve,
        cell.cold_p50_us,
        cell.warm_p50_us,
        cell.warm_p95_us,
        cell.speedup_p50,
        cell.hit_ratio,
        cell.executor_helper_tasks,
        cell.results,
        cell.exact
    );
    cell
}

/// The shed drill: one tenant with a frozen 8-token bucket fires 24
/// admitted queries — 8 must flow, 16 must shed — while a second
/// tenant's own bucket keeps it unaffected.
fn run_overload_drill(records: &[sts_workload::Record], cfg: &HarnessConfig) -> OverloadSummary {
    let mut store = build_store(Approach::Hil, Dataset::R, records, cfg, false);
    store.set_metrics_registry(std::sync::Arc::new(sts_obs::Registry::new()));
    store.set_router_config(RouterConfig {
        admission: AdmissionConfig {
            enabled: true,
            tenant_burst: 8.0,
            tenant_rate_per_sec: 0.0,
            ..AdmissionConfig::default()
        },
        ..RouterConfig::default()
    });
    let q = &small_query_batch(1, cfg.seed)[0];
    let attempted = 24u64;
    let mut admitted = 0u64;
    for _ in 0..attempted {
        if store.st_query_admitted("overload-tenant", q).is_ok() {
            admitted += 1;
        }
    }
    let other_tenant_admitted = store.st_query_admitted("background-tenant", q).is_ok();
    let summary = OverloadSummary {
        attempted,
        admitted,
        sheds: store.shed_count(),
        other_tenant_admitted,
    };
    println!(
        "overload  {:>3}/{} admitted, {} shed, other tenant admitted: {}",
        summary.admitted, summary.attempted, summary.sheds, summary.other_tenant_admitted
    );
    summary
}

fn run_approach(
    approach: Approach,
    records: &[sts_workload::Record],
    queries: &[sts_core::StQuery],
    cfg: &HarnessConfig,
) -> ApproachRow {
    let build_start = Instant::now();
    let mut store = build_store(approach, Dataset::R, records, cfg, false);
    let build_ms = build_start.elapsed().as_secs_f64() * 1_000.0;

    // Private metrics registry per approach: without this, every
    // approach's shard/router metrics land in the process-wide global
    // registry and bleed into whichever approach is inspected next.
    store.set_metrics_registry(std::sync::Arc::new(sts_obs::Registry::new()));

    // Warm-up pass over the full batch: pages in every index the
    // planner may pick and absorbs one-time process costs (thread-pool
    // spin-up hits whichever approach runs first), so the measured
    // window sees steady-state behaviour (paper §5.1 discards warm-up
    // runs the same way).
    for q in queries {
        let _ = store.st_query(q);
    }

    let latency = Histogram::new();
    let mut max_keys = 0u64;
    let mut max_docs = 0u64;
    let mut total_keys = 0u64;
    let mut total_docs = 0u64;
    let mut nodes_total = 0usize;
    let mut results = 0u64;
    let mut covering_us = 0.0f64;
    let mut covering_ranges = 0usize;
    let runs = cfg.measured_runs.max(1);
    let mut executions = 0usize;
    let query_start = Instant::now();
    for q in queries {
        // Per-query latency is the minimum over `--runs` repetitions —
        // the noise-robust estimator: scheduler interference only ever
        // adds time, so the min is the best view of the true cost. Work
        // counters are deterministic and taken from the last run.
        let mut best = None;
        let mut report = None;
        for _ in 0..runs {
            let (_, r) = store.st_query(q);
            let lat = r.cluster_latency();
            best = Some(best.map_or(lat, |b: std::time::Duration| b.min(lat)));
            report = Some(r);
            executions += 1;
        }
        let (best, report) = (best.expect("runs >= 1"), report.expect("runs >= 1"));
        latency.record(best);
        max_keys = max_keys.max(report.cluster.max_keys_examined());
        max_docs = max_docs.max(report.cluster.max_docs_examined());
        total_keys += report.cluster.total_keys_examined();
        total_docs += report
            .cluster
            .per_shard
            .iter()
            .map(|s| s.stats.docs_examined)
            .sum::<u64>();
        nodes_total += report.cluster.nodes();
        results += report.cluster.n_returned();
        covering_us += report.hilbert_time.as_secs_f64() * 1e6;
        covering_ranges += report.hilbert_ranges;
    }
    let query_secs = query_start.elapsed().as_secs_f64();
    let snap = latency.snapshot();
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;

    // Range-budget ablation: replay the batch at each budget against
    // the already-loaded store (set_range_budget swaps the covering
    // budget without rebuilding). One pass per budget — the counters
    // are deterministic, and p50 is noise-robust enough for a
    // trade-off curve.
    let budget_ablation = if approach.uses_hilbert() {
        ABLATION_BUDGETS
            .iter()
            .map(|&b| {
                store.set_range_budget(sts_curve::RangeBudget::new(b));
                let lat = Histogram::new();
                let mut cov = 0usize;
                let mut keys = 0u64;
                let mut res = 0u64;
                for q in queries {
                    let (_, r) = store.st_query(q);
                    lat.record(r.cluster_latency());
                    cov += r.hilbert_ranges;
                    keys += r.cluster.total_keys_examined();
                    res += r.cluster.n_returned();
                }
                AblationRow {
                    budget: b as u64,
                    p50_us: us(lat.snapshot().p50),
                    covering_ranges_total: cov,
                    total_keys_examined: keys,
                    results: res,
                }
            })
            .collect()
    } else {
        Vec::new()
    };

    // Warm path: re-run the batch against the result-page cache. This
    // comes after the ablation so cached pages can never leak into the
    // budget sweep, and restores the default budget first so the warm
    // plans match the cold window's. One priming pass fills the cache
    // (all misses); the measured pass is the steady-state hit path.
    store.set_range_budget(sts_curve::RangeBudget::default());
    store.set_router_config(RouterConfig {
        result_cache_entries: 4096,
        result_cache_max_docs: 1 << 20,
        ..RouterConfig::default()
    });
    for q in queries {
        let _ = store.st_query(q);
    }
    let c0 = store.result_cache_counters();
    let warm = Histogram::new();
    for q in queries {
        let mut best = None;
        for _ in 0..runs {
            let (_, r) = store.st_query(q);
            let wall = r.cluster.wall;
            best = Some(best.map_or(wall, |b: Duration| b.min(wall)));
        }
        warm.record(best.expect("runs >= 1"));
    }
    let c1 = store.result_cache_counters();
    let warm_served = c1.hits - c0.hits;
    let warm_total = warm_served + (c1.misses - c0.misses) + (c1.stale - c0.stale);
    let warm_snap = warm.snapshot();

    let row = ApproachRow {
        approach: approach.name().to_string(),
        curve: curve_label(approach, cfg.curve),
        p50_us: us(snap.p50),
        p95_us: us(snap.p95),
        p99_us: us(snap.p99),
        mean_us: us(snap.mean),
        max_us: us(snap.max),
        throughput_qps: executions as f64 / query_secs.max(1e-9),
        build_ms,
        max_keys_examined: max_keys,
        max_docs_examined: max_docs,
        total_keys_examined: total_keys,
        total_docs_examined: total_docs,
        mean_nodes: nodes_total as f64 / queries.len().max(1) as f64,
        results,
        covering_us_total: covering_us,
        covering_ranges_total: covering_ranges,
        warm_p50_us: us(warm_snap.p50),
        warm_p95_us: us(warm_snap.p95),
        cache_hit_ratio: if warm_total == 0 {
            0.0
        } else {
            warm_served as f64 / warm_total as f64
        },
        budget_ablation,
    };
    println!(
        "{:<8} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>9.1} {:>10} {:>10} {:>8}",
        row.approach,
        row.p50_us,
        row.p95_us,
        row.p99_us,
        row.mean_us,
        row.throughput_qps,
        row.max_keys_examined,
        row.max_docs_examined,
        row.results
    );
    row
}
