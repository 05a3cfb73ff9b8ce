//! The paper's findings (§5.2–5.3, Figs. 5–12 and 14) as orderings of
//! work counters.
//!
//! One small fixed data set — exactly what `figures --scale 0.0005
//! --shards 12` loads: 7,500 R and 15,210 S records — runs the paper's
//! eight queries (Qs1–4, Qb1–4) on every approach unzoned, and on the
//! three approaches §5.3 zones (bslST, bslTS, hil; the paper drops hil*
//! there). Every assertion compares nodes touched, maximum keys or
//! documents examined per node, covering ranges, index bytes or result
//! sets — counters that are the same on any machine — so a change that
//! breaks the paper's shape fails here, whatever the host's speed.
//!
//! Two orderings an earlier plan expected are false on this tree at
//! every scale tried and are deliberately not asserted: hil* ≤ hil on
//! keys for small queries, and hil < bslST on keys for big queries.
//! EXPERIMENTS.md "Orderings that changed" has their numbers.

use std::sync::OnceLock;
use sts::core::Approach;
use sts::document::Document;
use sts::index::geo_point_of;
use sts::workload::queries::{full_workload, QuerySize};
use sts_bench::{build_store, dataset_records, dataset_start, Dataset, HarnessConfig};

/// The counters one query produced on one store.
struct Row {
    size: QuerySize,
    n: usize,
    nodes: usize,
    keys: u64,
    docs: u64,
    ranges: usize,
    /// The results as sorted [`Fix`]es; a duplicate shows as a length
    /// change.
    results: Vec<Fix>,
}

/// A result's identity that survives loading: `_id`s are stamped per
/// load, so two stores of the same records disagree on them.
type Fix = (i64, u64, u64);

fn fix(date_ms: i64, lon: f64, lat: f64) -> Fix {
    (date_ms, lon.to_bits(), lat.to_bits())
}

fn fix_of(d: &Document) -> Fix {
    let p = geo_point_of(d, "location").expect("results carry a location");
    let date = d.get("date").and_then(|v| v.as_datetime());
    fix(date.expect("results carry a date").millis(), p.lon, p.lat)
}

/// One loaded store's eight rows and its total index size.
struct Run {
    dataset: Dataset,
    zones: bool,
    approach: Approach,
    rows: Vec<Row>,
    index_bytes: u64,
}

impl Run {
    fn row(&self, size: QuerySize, n: usize) -> &Row {
        self.rows
            .iter()
            .find(|r| r.size == size && r.n == n)
            .expect("every run answers the full workload")
    }

    fn ladder(&self, size: QuerySize) -> impl Iterator<Item = &Row> {
        self.rows.iter().filter(move |r| r.size == size)
    }

    fn label(&self) -> String {
        let mode = if self.zones { "zones" } else { "default" };
        format!("{} {} {}", self.dataset.label(), mode, self.approach.name())
    }
}

/// The data set: `figures --scale 0.0005 --shards 12`.
fn harness() -> HarnessConfig {
    HarnessConfig {
        scale: 0.0005,
        num_shards: 12,
        ..Default::default()
    }
}

/// All 14 runs, loaded and queried once per test binary.
fn runs() -> &'static [Run] {
    static RUNS: OnceLock<Vec<Run>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let cfg = harness();
        let mut runs = Vec::new();
        for dataset in [Dataset::R, Dataset::S] {
            let records = dataset_records(dataset, &cfg, 1);
            for zones in [false, true] {
                let approaches: &[Approach] = if zones {
                    &[Approach::BslST, Approach::BslTS, Approach::Hil]
                } else {
                    &Approach::ALL
                };
                for &approach in approaches {
                    let store = build_store(approach, dataset, &records, &cfg, zones);
                    let rows = full_workload(dataset_start())
                        .into_iter()
                        .map(|(size, n, q)| {
                            let (docs, report) = store.st_query(&q);
                            assert!(!report.cluster.partial, "no faults are armed");
                            let mut results: Vec<Fix> = docs.iter().map(fix_of).collect();
                            results.sort();
                            Row {
                                size,
                                n,
                                nodes: report.cluster.nodes(),
                                keys: report.cluster.max_keys_examined(),
                                docs: report.cluster.max_docs_examined(),
                                ranges: report.hilbert_ranges,
                                results,
                            }
                        })
                        .collect();
                    let index_bytes = store
                        .index_sizes()
                        .iter()
                        .map(|(_, size)| size.total_compressed())
                        .sum();
                    runs.push(Run {
                        dataset,
                        zones,
                        approach,
                        rows,
                        index_bytes,
                    });
                }
            }
        }
        runs
    })
}

fn run(dataset: Dataset, zones: bool, approach: Approach) -> &'static Run {
    runs()
        .iter()
        .find(|r| r.dataset == dataset && r.zones == zones && r.approach == approach)
        .expect("the run set covers this configuration")
}

const SIZES: [QuerySize; 2] = [QuerySize::Small, QuerySize::Big];

/// Figs. 5–8 panel (c): the baselines shard on `date`, so a longer
/// window reaches more shards. Nodes never drop from Q1 to Q4, and Q4
/// (a month) touches strictly more than Q1 (an hour).
#[test]
fn baseline_node_counts_grow_with_the_time_window() {
    for dataset in [Dataset::R, Dataset::S] {
        for approach in [Approach::BslST, Approach::BslTS] {
            let run = run(dataset, false, approach);
            for size in SIZES {
                let nodes: Vec<usize> = run.ladder(size).map(|r| r.nodes).collect();
                assert!(
                    nodes.windows(2).all(|w| w[0] <= w[1]) && nodes[3] > nodes[0],
                    "{} {}: nodes {nodes:?}",
                    run.label(),
                    size.label()
                );
            }
        }
    }
}

/// Figs. 5–12 panel (c): hil and hil* shard on the curve value, so the
/// nodes a query touches depend on its rectangle alone — identical for
/// Q1–Q4 of one size, zoned or not.
#[test]
fn curve_node_counts_stay_flat_across_the_time_window() {
    for run in runs().iter().filter(|r| r.approach.uses_hilbert()) {
        for size in SIZES {
            let nodes: Vec<usize> = run.ladder(size).map(|r| r.nodes).collect();
            assert!(
                nodes.iter().all(|&n| n == nodes[0]),
                "{} {}: nodes {nodes:?}",
                run.label(),
                size.label()
            );
        }
    }
}

/// Fig. 8 panel (a): on the dense S set the big rectangle spans so
/// many fine hil* cells that hil examines no more keys on any node.
#[test]
fn hil_examines_no_more_keys_than_hil_star_on_big_s_queries() {
    let hil = run(Dataset::S, false, Approach::Hil);
    let star = run(Dataset::S, false, Approach::HilStar);
    for n in 1..=4 {
        let (h, s) = (hil.row(QuerySize::Big, n), star.row(QuerySize::Big, n));
        assert!(h.keys <= s.keys, "Qb{n}: hil {} > hil* {}", h.keys, s.keys);
    }
}

/// Fig. 14: hil's single compound index plus `_id` is the smallest
/// total in every panel (R/S × default/zones).
#[test]
fn hil_has_the_smallest_total_index_in_every_fig14_panel() {
    for dataset in [Dataset::R, Dataset::S] {
        for zones in [false, true] {
            let hil = run(dataset, zones, Approach::Hil);
            for other in runs()
                .iter()
                .filter(|r| r.dataset == dataset && r.zones == zones)
                .filter(|r| r.approach != Approach::Hil)
            {
                assert!(
                    hil.index_bytes < other.index_bytes,
                    "{}: {} B is not below {}: {} B",
                    hil.label(),
                    hil.index_bytes,
                    other.label(),
                    other.index_bytes
                );
            }
        }
    }
}

/// §5.3: zones move chunks, never documents out of a result. Every run
/// on a data set — any approach, zoned or not — returns the same set
/// for each query, and that set is the full scan's.
#[test]
fn zones_never_change_results() {
    for dataset in [Dataset::R, Dataset::S] {
        let records = dataset_records(dataset, &harness(), 1);
        for (size, n, q) in full_workload(dataset_start()) {
            let mut scanned: Vec<Fix> = records
                .iter()
                .filter(|r| q.matches(r.lon, r.lat, r.date))
                .map(|r| fix(r.date.millis(), r.lon, r.lat))
                .collect();
            scanned.sort();
            for run in runs().iter().filter(|r| r.dataset == dataset) {
                assert!(
                    run.row(size, n).results == scanned,
                    "{} {}{n}: {} results, the full scan has {}",
                    run.label(),
                    size.label(),
                    run.row(size, n).results.len(),
                    scanned.len()
                );
            }
        }
    }
}

/// Figs. 9–12 vs 5–8: zones place hil's chunks by region, so a zoned
/// hil store never touches more nodes than the unzoned one.
#[test]
fn zones_never_add_nodes_to_hil() {
    for dataset in [Dataset::R, Dataset::S] {
        let (plain, zoned) = (
            run(dataset, false, Approach::Hil),
            run(dataset, true, Approach::Hil),
        );
        for (p, z) in plain.rows.iter().zip(&zoned.rows) {
            assert!(
                z.nodes <= p.nodes,
                "{} {}{}: zoned {} > default {}",
                dataset.label(),
                p.size.label(),
                p.n,
                z.nodes,
                p.nodes
            );
        }
    }
}

/// Table 8's order on a counter instead of µs: hil*'s finer curve
/// needs at least as many covering ranges as hil for every query, and
/// the big rectangle at least as many as the small one.
#[test]
fn hil_star_covers_with_at_least_as_many_ranges_as_hil() {
    for dataset in [Dataset::R, Dataset::S] {
        let hil = run(dataset, false, Approach::Hil);
        let star = run(dataset, false, Approach::HilStar);
        for run in [hil, star] {
            for n in 1..=4 {
                let (s, b) = (run.row(QuerySize::Small, n), run.row(QuerySize::Big, n));
                assert!(
                    s.ranges <= b.ranges,
                    "{} Q{n}: small {} > big {}",
                    run.label(),
                    s.ranges,
                    b.ranges
                );
            }
        }
        for (h, s) in hil.rows.iter().zip(&star.rows) {
            assert!(
                h.ranges <= s.ranges,
                "{} {}{}: hil {} > hil* {}",
                dataset.label(),
                h.size.label(),
                h.n,
                h.ranges,
                s.ranges
            );
        }
    }
}

/// Panels (a) and (b) together: a document is only examined after an
/// index key led to it, so on every query the busiest node's documents
/// never outnumber the busiest node's keys.
#[test]
fn docs_examined_never_exceed_keys_examined() {
    for run in runs() {
        for r in &run.rows {
            assert!(
                r.docs <= r.keys,
                "{} {}{}: {} docs > {} keys",
                run.label(),
                r.size.label(),
                r.n,
                r.docs,
                r.keys
            );
        }
    }
}
