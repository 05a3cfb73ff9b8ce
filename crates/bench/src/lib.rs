//! Shared harness: dataset construction, store deployment, workload
//! execution and table rendering for the reproduction binaries.
//!
//! Binaries:
//! * `tables`  — regenerates Tables 2–8,
//! * `figures` — regenerates Figures 5–14,
//!
//! both accepting `--scale` (fraction of the paper's data volume,
//! default 0.01), `--shards` (default 12) and `--seed`. Results print as
//! aligned text and are archived as JSON under `results/`.

pub mod obsreport;

use serde::Serialize;
use std::time::Duration;
use sts_core::{Approach, StQuery, StStore, StoreConfig};
use sts_document::DateTime;
use sts_geo::GeoRect;
use sts_workload::fleet::{self, FleetConfig};
use sts_workload::queries::{paper_query, QuerySize};
use sts_workload::synth::{self, SynthConfig};
use sts_workload::Record;

/// Which data set an experiment runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dataset {
    /// Fleet-trajectory set (stand-in for the paper's proprietary R).
    R,
    /// Uniform synthetic set S.
    S,
}

impl Dataset {
    /// Paper label.
    pub fn label(self) -> &'static str {
        match self {
            Dataset::R => "R",
            Dataset::S => "S",
        }
    }
}

/// Harness-wide knobs.
#[derive(Clone, Copy, Debug)]
pub struct HarnessConfig {
    /// Fraction of the paper's record counts (1.0 = full 15.2M R set).
    pub scale: f64,
    /// Shards in the simulated cluster.
    pub num_shards: usize,
    /// Seed for data generation.
    pub seed: u64,
    /// Query repetitions measured (paper: 30 runs, last 10 averaged).
    pub warmup_runs: usize,
    /// Measured repetitions after warm-up.
    pub measured_runs: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            scale: sts_workload::DEFAULT_SCALE,
            num_shards: 12,
            seed: 0x5137_2021,
            warmup_runs: 2,
            measured_runs: 5,
        }
    }
}

impl HarnessConfig {
    /// Chunk size scaled with data volume so per-shard chunk counts
    /// match the paper's regime (64 MB at full scale).
    pub fn max_chunk_bytes(&self) -> u64 {
        ((64.0 * 1024.0 * 1024.0 * self.scale) as u64).max(64 * 1024)
    }

    /// Record count for the R set at this scale (×`factor` for §5.4).
    pub fn r_records(&self, factor: u32) -> u64 {
        ((sts_workload::PAPER_R_RECORDS as f64 * self.scale) as u64) * u64::from(factor)
    }

    /// Record count for the S set at this scale.
    pub fn s_records(&self) -> u64 {
        2 * self.r_records(1)
    }

    /// Parse `--scale`, `--shards`, `--seed`, `--runs` style CLI args;
    /// returns leftover (unconsumed) args.
    pub fn from_args(args: &[String]) -> (HarnessConfig, Vec<String>) {
        let mut cfg = HarnessConfig::default();
        let mut rest = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut grab = |name: &str| -> Option<String> {
                if a == name {
                    it.next().cloned()
                } else {
                    a.strip_prefix(&format!("{name}=")).map(str::to_string)
                }
            };
            if let Some(v) = grab("--scale") {
                cfg.scale = v.parse().expect("--scale takes a float");
            } else if let Some(v) = grab("--shards") {
                cfg.num_shards = v.parse().expect("--shards takes an integer");
            } else if let Some(v) = grab("--seed") {
                cfg.seed = v.parse().expect("--seed takes an integer");
            } else if let Some(v) = grab("--runs") {
                cfg.measured_runs = v.parse().expect("--runs takes an integer");
            } else {
                rest.push(a.clone());
            }
        }
        (cfg, rest)
    }
}

/// Generate a data set's records.
pub fn dataset_records(dataset: Dataset, cfg: &HarnessConfig, scale_factor: u32) -> Vec<Record> {
    match dataset {
        Dataset::R => fleet::generate(&FleetConfig {
            records: cfg.r_records(scale_factor),
            vehicles: 500 * scale_factor,
            seed: cfg.seed,
            ..Default::default()
        }),
        Dataset::S => synth::generate(&SynthConfig {
            records: cfg.s_records(),
            seed: cfg.seed ^ 0x5EED_0002,
            ..Default::default()
        }),
    }
}

/// Dataset start timestamp (both sets start 2018-07-01).
pub fn dataset_start() -> DateTime {
    DateTime::from_ymd_hms(2018, 7, 1, 0, 0, 0)
}

/// The data MBR `hil*` fits its curve to, per data set (§5.1).
pub fn dataset_mbr(dataset: Dataset) -> sts_geo::GeoRect {
    match dataset {
        Dataset::R => sts_workload::R_MBR,
        Dataset::S => sts_workload::S_MBR,
    }
}

/// Deploy a store for `approach` on `dataset` and load `records`
/// (optionally applying §4.2.4 zones afterwards).
pub fn build_store(
    approach: Approach,
    dataset: Dataset,
    records: &[Record],
    cfg: &HarnessConfig,
    zones: bool,
) -> StStore {
    let mut store = StStore::new(StoreConfig {
        approach,
        num_shards: cfg.num_shards,
        max_chunk_bytes: cfg.max_chunk_bytes(),
        data_mbr: dataset_mbr(dataset),
        ..Default::default()
    });
    store
        .bulk_load(records.iter().map(Record::to_document))
        .expect("generated records are always loadable");
    if zones {
        store.apply_zones();
    }
    store
}

/// One measured cell of a figure: a (approach, query) execution.
#[derive(Clone, Debug, Serialize)]
pub struct Measurement {
    /// Approach name (`bslST`…).
    pub approach: String,
    /// Query label (`Qs1`, `Qb4`, …).
    pub query: String,
    /// Max keys examined on any node (panel a).
    pub keys: u64,
    /// Max documents examined on any node (panel b).
    pub docs: u64,
    /// Nodes accessed (panel c).
    pub nodes: usize,
    /// Execution time in ms — the slowest shard, i.e. cluster latency
    /// (panel d; shards run concurrently on the paper's testbed).
    pub time_ms: f64,
    /// Matching documents.
    pub results: u64,
    /// Hilbert decomposition time in µs (Table 8; 0 for baselines).
    pub hilbert_us: f64,
    /// Hilbert ranges produced.
    pub hilbert_ranges: usize,
    /// Indexes used per shard, deduplicated (Table 7).
    pub indexes_used: Vec<String>,
}

/// Run one query `warmup + measured` times; averages over the measured
/// runs (the paper's §5.1 methodology, scaled down via `HarnessConfig`).
pub fn measure(store: &StStore, label: &str, query: &StQuery, cfg: &HarnessConfig) -> Measurement {
    for _ in 0..cfg.warmup_runs {
        let _ = store.st_query(query);
    }
    let mut time = Duration::ZERO;
    let mut hilbert = Duration::ZERO;
    let mut last = None;
    let runs = cfg.measured_runs.max(1);
    for _ in 0..runs {
        let (_, report) = store.st_query(query);
        time += report.cluster.max_shard_time();
        hilbert += report.hilbert_time;
        last = Some(report);
    }
    let report = last.unwrap();
    let mut indexes: Vec<String> = report
        .cluster
        .indexes_used()
        .into_iter()
        .map(|(_, name)| name)
        .collect();
    indexes.sort();
    indexes.dedup();
    Measurement {
        approach: store.approach().name().to_string(),
        query: label.to_string(),
        keys: report.cluster.max_keys_examined(),
        docs: report.cluster.max_docs_examined(),
        nodes: report.cluster.nodes(),
        time_ms: time.as_secs_f64() * 1_000.0 / runs as f64,
        results: report.cluster.n_returned(),
        hilbert_us: hilbert.as_secs_f64() * 1e6 / runs as f64,
        hilbert_ranges: report.hilbert_ranges,
        indexes_used: indexes,
    }
}

/// Run the four Q₁..Q₄ queries of one size class.
pub fn run_query_ladder(store: &StStore, size: QuerySize, cfg: &HarnessConfig) -> Vec<Measurement> {
    (1..=4)
        .map(|n| {
            let q = paper_query(size, n, dataset_start());
            measure(store, &format!("{}{n}", size.label()), &q, cfg)
        })
        .collect()
}

/// Render measurements as an aligned text table.
pub fn render_table(title: &str, rows: &[Measurement]) -> String {
    let mut s = String::new();
    s.push_str(&format!("\n== {title} ==\n"));
    s.push_str(&format!(
        "{:<8} {:<6} {:>12} {:>12} {:>6} {:>10} {:>10}\n",
        "approach", "query", "maxKeys", "maxDocs", "nodes", "time(ms)", "results"
    ));
    for m in rows {
        s.push_str(&format!(
            "{:<8} {:<6} {:>12} {:>12} {:>6} {:>10.3} {:>10}\n",
            m.approach, m.query, m.keys, m.docs, m.nodes, m.time_ms, m.results
        ));
    }
    s
}

/// Archive measurements as JSON under `results/`.
pub fn save_json(name: &str, value: &impl Serialize) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(json) = serde_json::to_string_pretty(value) {
        let _ = std::fs::write(path, json);
    }
}

/// Write JSON to an explicit path, creating parent directories.
pub fn save_json_to(path: &std::path::Path, value: &impl Serialize) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let json =
        serde_json::to_string_pretty(value).map_err(|e| std::io::Error::other(e.to_string()))?;
    std::fs::write(path, json + "\n")
}

/// The R set's urban hotspot centers the query batches sample around.
const HOTSPOT_CENTERS: [(f64, f64); 5] = [
    (23.7275, 37.9838),
    (22.9446, 40.6401),
    (21.7346, 38.2466),
    (25.1442, 35.3387),
    (22.4191, 39.6390),
];

/// A SplitMix64 draw stream (the workload generators' PRNG).
fn splitmix64_stream(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// City-sized rectangles around the R set's urban hotspots with
/// week-long windows — a plausible concurrent dispatcher workload.
/// Deterministic in `seed` (SplitMix64); `obs-report`'s default batch.
pub fn small_query_batch(n: usize, seed: u64) -> Vec<StQuery> {
    let mut next = splitmix64_stream(seed);
    (0..n)
        .map(|_| {
            let (clon, clat) = HOTSPOT_CENTERS[(next() % HOTSPOT_CENTERS.len() as u64) as usize];
            let dx = (next() % 1_000) as f64 / 10_000.0 - 0.05;
            let dy = (next() % 1_000) as f64 / 10_000.0 - 0.05;
            let w = 0.02 + (next() % 600) as f64 / 10_000.0;
            let start_day = (next() % 140) as i64;
            let t0 = dataset_start().plus_millis(start_day * 86_400_000);
            StQuery {
                rect: GeoRect::new(clon + dx, clat + dy, clon + dx + w, clat + dy + w),
                t0,
                t1: DateTime::from_millis(t0.millis() + 7 * 86_400_000),
            }
        })
        .collect()
}

/// A *temporally clustered* workload: the same spatially varied
/// hotspot rectangles as [`small_query_batch`], but every query asks
/// about the same hot three-day window. This is the regime that
/// exposes the baselines' load skew: sharding by `date` routes every
/// query to whichever shards own those three days, while Hilbert
/// sharding spreads the spatially varied queries across the cluster
/// (§4.2's locality claim — `obs-report` quantifies it).
pub fn clustered_query_batch(n: usize, seed: u64) -> Vec<StQuery> {
    let mut next = splitmix64_stream(seed);
    let t0 = dataset_start().plus_millis(90 * 86_400_000);
    let t1 = DateTime::from_millis(t0.millis() + 3 * 86_400_000);
    (0..n)
        .map(|_| {
            let (clon, clat) = HOTSPOT_CENTERS[(next() % HOTSPOT_CENTERS.len() as u64) as usize];
            let dx = (next() % 1_000) as f64 / 10_000.0 - 0.05;
            let dy = (next() % 1_000) as f64 / 10_000.0 - 0.05;
            let w = 0.02 + (next() % 600) as f64 / 10_000.0;
            StQuery {
                rect: GeoRect::new(clon + dx, clat + dy, clon + dx + w, clat + dy + w),
                t0,
                t1,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_core::Approach;
    use sts_workload::queries::QuerySize;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn cli_parsing() {
        let (cfg, rest) =
            HarnessConfig::from_args(&args(&["--scale", "0.5", "--shards=6", "--fig", "13"]));
        assert_eq!(cfg.scale, 0.5);
        assert_eq!(cfg.num_shards, 6);
        assert_eq!(rest, args(&["--fig", "13"]));
    }

    #[test]
    fn chunk_size_scales_with_data() {
        let full = HarnessConfig {
            scale: 1.0,
            ..Default::default()
        };
        assert_eq!(full.max_chunk_bytes(), 64 * 1024 * 1024);
        let tiny = HarnessConfig {
            scale: 1e-6,
            ..Default::default()
        };
        assert_eq!(tiny.max_chunk_bytes(), 64 * 1024, "floor applies");
    }

    #[test]
    fn record_counts_follow_paper_ratios() {
        let cfg = HarnessConfig {
            scale: 0.01,
            ..Default::default()
        };
        assert_eq!(cfg.s_records(), 2 * cfg.r_records(1));
        assert_eq!(cfg.r_records(4), 4 * cfg.r_records(1));
    }

    #[test]
    fn query_batch_is_deterministic() {
        let a = small_query_batch(16, 42);
        let b = small_query_batch(16, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        let c = small_query_batch(16, 43);
        assert_ne!(a, c, "seed changes the batch");
        assert!(a.iter().all(|q| q.t1 > q.t0));
    }

    #[test]
    fn measure_small_store_smoke() {
        let cfg = HarnessConfig {
            scale: 0.0005,
            num_shards: 3,
            warmup_runs: 1,
            measured_runs: 2,
            ..Default::default()
        };
        let records = dataset_records(Dataset::R, &cfg, 1);
        assert!(!records.is_empty());
        let store = build_store(Approach::Hil, Dataset::R, &records, &cfg, false);
        let ladder = run_query_ladder(&store, QuerySize::Big, &cfg);
        assert_eq!(ladder.len(), 4);
        assert!(ladder.iter().all(|m| m.nodes >= 1));
        // Q4's month window subsumes more data than Q1's hour.
        assert!(ladder[3].results >= ladder[0].results);
        let table = render_table("smoke", &ladder);
        assert!(table.contains("hil") && table.contains("Qb1"));
    }
}
