//! The four workloads and the closed loop that drives them.
//!
//! Load model, all workloads: one client thread, closed loop, no think
//! time — the store is an in-process library and its callers block on
//! the reply. The store keeps its shipped defaults (12 shards, executor
//! workers = available cores, live balancer on); a workload sets only
//! the approach and the router-cache sizes its cache state names.
//!
//! `selective-planwarm` and `scan-cold` only read inside their window.
//! A leg of `insert_batch` commits before or after it was tried and
//! dropped: after a bulk load of a Hilbert-sharded store the chunks fill
//! up in step, so 40–55 % of a short leg's commits carry a split and a
//! migration (7–35 ms against 2.3 ms), and which side of one half a
//! seed's data lands on moved the leg's median commit by 3× and its
//! throughput by 2×. Their write cost is their set-up's `bulk_load`.

use crate::data::{Corpus, DATA_SEED, LOAD_CHUNK, SCALE, SMOKE_SCALE};
use crate::layers::LayerProbe;
use crate::oracle::{self, Answer};
use crate::shapes::{self, Zipf};
use crate::util::{Fnv, SplitMix64};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use sts_cluster::BalancerEventKind;
use sts_core::{Approach, CacheOutcome, QueryReport, RouterConfig};
use sts_core::{StQuery, StStore, StoreConfig};

pub const DEFAULT_SEED: u64 = 0x5137_2021;
pub const DEFAULT_SECONDS: f64 = 15.0;

/// Name and one-line rationale of each workload, in running order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "selective-planwarm",
        "hil store, plan cache warm, 512 small squares cycled over fresh 1-3 day windows: dispatch-dominated, scans are tiny",
    ),
    (
        "scan-cold",
        "hil* store, both router caches off, distinct city/region queries: covering, index scan and fetch dominate",
    ),
    (
        "repeat-shapes-mixed",
        "bslTS store, result cache of 256 pages under Zipf over 1024 shapes with a write every 2000 queries: hits, evictions, stales, broadcast misses",
    ),
    (
        "ingest-beside-reads",
        "hil* store growing tenfold by 100-document commits with 2 queries on 64 watched rectangles after each: insert, split and migrate beside reads",
    ),
];

/// Documents per `insert_batch` commit.
const BATCH_DOCS: usize = 100;
/// `selective-planwarm`: fixed squares, cycled with fresh windows.
const SELECTIVE_SHAPES: usize = 512;
/// `scan-cold`: distinct queries generated (cycled only if a run
/// outlasts them), untimed warm-up taken from their head, block size
/// between deadline checks.
const SCAN_POOL: usize = 8192;
const SCAN_WARMUP: usize = 200;
const SCAN_BLOCK: usize = 50;
/// `repeat-shapes-mixed`: shapes, result-cache pages, untimed draws,
/// queries between writes.
const REPEAT_SHAPES: usize = 1024;
const REPEAT_CACHE_PAGES: usize = 256;
const REPEAT_WARMUP: usize = 5000;
const REPEAT_QUERIES_PER_WRITE: usize = 2000;
/// How far the popularity ranking shifts along the shape list at every
/// write (coprime with the list's strata period of 20).
const REPEAT_DRIFT: usize = 17;
/// Draws folded into the `repeat-shapes-mixed` op fingerprint.
const REPEAT_FINGERPRINT_DRAWS: usize = 4096;
/// `ingest-beside-reads`: queries after each commit, share of the
/// corpus preloaded.
const INGEST_QUERIES_PER_COMMIT: usize = 2;
const INGEST_PRELOAD_SHARE: f64 = 0.1;
const INGEST_WINDOW_DAYS: i64 = 2;
const INGEST_WATCHED_RECTS: usize = 64;
/// Timed queries per block of the latency medians: the smallest round
/// size whose nearest-rank p99 still has ten samples beyond it.
/// `ingest-beside-reads` takes one pass as a block instead.
pub const QUERY_BLOCK: usize = 1024;
/// Every how many timed queries the traced run steps one through the
/// layers (a stepped query costs about six plain ones).
const PROBE_EVERY: u64 = 16;
/// Set-ups per run: at least `SETUP_REPS_MIN`, then more until they add
/// up to `SETUP_BUDGET_S` or reach `SETUP_REPS_MAX`; `setup_s` is their
/// median. A 0.2 s set-up needs more repeats than a 2 s one to read
/// steadily.
const SETUP_REPS_MIN: usize = 3;
const SETUP_REPS_MAX: usize = 9;
const SETUP_BUDGET_S: f64 = 1.8;

#[derive(Clone, Debug)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small corpus, one set-up, short windows: for CI and unit tests.
    pub smoke: bool,
    /// Corrupt the first expectation (the negative test: the run must
    /// then fail).
    pub corrupt_oracle: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
            corrupt_oracle: false,
        }
    }
}

/// Counts read from reports and counters over the timed window.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// Timed queries.
    pub queries: u64,
    /// Timed queries the cluster executed (not served from a page).
    pub executed: u64,
    pub result_hits: u64,
    pub result_hit_ns: u64,
    pub result_misses: u64,
    pub result_stales: u64,
    pub plan_hits: u64,
    pub plan_lookups: u64,
    pub route_refreshed: u64,
    pub nodes: u64,
    pub inline_runs: u64,
    pub keys_examined: u64,
    pub docs_examined: u64,
    pub returned: u64,
    pub seeks: u64,
    /// Pages the result cache evicted during the window.
    pub result_evictions: u64,
    pub splits: u64,
    pub migrations: u64,
    /// Own-call wall of the queries the probe then stepped.
    pub sampled_own_ns: u64,
}

/// Everything one run measured.
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub records: usize,
    pub preloaded: usize,
    pub committed: usize,
    pub data_fingerprint: u64,
    pub ops_fingerprint: u64,
    /// Sum of expected result counts over the workload's fixed query
    /// list (one pass).
    pub results_total: u64,
    /// Every set-up of the run.
    pub setup_s: Vec<f64>,
    /// Documents preloaded into, and set-up seconds of, the stores the
    /// timed windows ran on (the last set-up; on `ingest-beside-reads`
    /// one per pass).
    pub measured_preload_docs: u64,
    pub measured_setup_s: f64,
    /// Wall of every timed query, in issue order.
    pub query_ns: Vec<u64>,
    /// Timed queries per block of the latency medians.
    pub block_len: usize,
    /// `(wall ns, documents)` per `insert_batch`.
    pub commits: Vec<(u64, u32)>,
    pub attempted: u64,
    pub failed: u64,
    pub counts: Counts,
    pub gen_s: f64,
    pub oracle_s: f64,
    pub probe: Option<LayerProbe>,
    pub store: StStore,
}

struct Run<'c> {
    corpus: &'c Corpus,
    store: StStore,
    committed: usize,
    query_ns: Vec<u64>,
    commits: Vec<(u64, u32)>,
    attempted: u64,
    failed: u64,
    counts: Counts,
    probe: Option<LayerProbe>,
    oracle: Duration,
    corrupt_next: bool,
    ops: u32,
    /// Counter readings when the timed window opened.
    evictions_before: u64,
    events_before: u64,
    migrations_before: u64,
}

impl Run<'_> {
    /// Open a timed window on the current store: note the counters the
    /// window's deltas are taken against.
    fn open_window(&mut self) {
        self.evictions_before = self.store.result_cache_counters().evictions;
        self.events_before = self.store.cluster().balancer_event_count();
        self.migrations_before = self.store.cluster().migration_stats().chunks_moved;
    }

    /// Close the window: fold the counter deltas into the counts and
    /// check that the store holds exactly what was committed.
    fn close_window(&mut self) {
        self.attempted += 1;
        if self.store.doc_count() != self.committed as u64 {
            self.failed += 1;
        }
        self.counts.result_evictions +=
            self.store.result_cache_counters().evictions - self.evictions_before;
        for e in self
            .store
            .cluster()
            .balancer_events_since(self.events_before)
        {
            self.counts.splits += u64::from(e.kind == BalancerEventKind::Split);
        }
        self.counts.migrations +=
            self.store.cluster().migration_stats().chunks_moved - self.migrations_before;
    }

    /// Issue one query through the facade, check it, and (timed) record
    /// its wall and what its report says the layers did.
    fn query(&mut self, q: &StQuery, mut expect: Answer, timed: bool) {
        self.attempted += 1;
        self.ops += 1;
        let inline_before = self.store.executor_stats().inline_runs;
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| self.store.st_query(q)));
        let wall = started.elapsed();
        let checking = Instant::now();
        if self.corrupt_next {
            expect.count += 1;
            self.corrupt_next = false;
        }
        let ok = match &result {
            Ok((docs, _)) => oracle::observed(docs) == Some(expect),
            Err(_) => false,
        };
        self.oracle += checking.elapsed();
        if !ok {
            self.failed += 1;
        }
        if !timed {
            return;
        }
        let wall_ns = wall.as_nanos() as u64;
        self.query_ns.push(wall_ns);
        if let Ok((_, report)) = &result {
            let inline = self.store.executor_stats().inline_runs > inline_before;
            self.counts.observe(report, wall_ns, inline);
        }
        drop(result);
        if let Some(probe) = &mut self.probe {
            if self.counts.queries.is_multiple_of(probe.every) {
                self.counts.sampled_own_ns += wall_ns;
                probe.query(&self.store, q, self.ops);
            }
        }
    }

    /// Commit the next `n` corpus records as one `insert_batch`; does
    /// nothing once the corpus is used up.
    fn commit(&mut self, n: usize) {
        let end = (self.committed + n).min(self.corpus.len());
        if end == self.committed {
            return;
        }
        let docs = self.corpus.documents(self.committed..end);
        self.ops += 1;
        if let Some(probe) = &mut self.probe {
            probe.write(&self.store, &docs, self.ops);
        }
        self.attempted += 1;
        let n_docs = docs.len() as u64;
        let (store, op) = (&mut self.store, self.ops);
        let started = Instant::now();
        let result = match &mut self.probe {
            Some(probe) => probe.tracer.leaf("core.insert_batch", op, || {
                catch_unwind(AssertUnwindSafe(|| store.insert_batch(docs)))
            }),
            None => catch_unwind(AssertUnwindSafe(|| store.insert_batch(docs))),
        };
        let wall = started.elapsed();
        if !matches!(result, Ok(Ok(k)) if k == n_docs) {
            self.failed += 1;
        }
        self.commits.push((wall.as_nanos() as u64, n_docs as u32));
        self.committed = end;
    }

    fn expected(&mut self, q: &StQuery) -> Answer {
        let started = Instant::now();
        let a = oracle::expected(&self.corpus.points[..self.committed], q);
        self.oracle += started.elapsed();
        a
    }
}

impl Counts {
    fn observe(&mut self, report: &QueryReport, wall_ns: u64, inline: bool) {
        self.queries += 1;
        if report.router.result_cache == CacheOutcome::Hit {
            self.result_hits += 1;
            self.result_hit_ns += wall_ns;
            return;
        }
        self.executed += 1;
        self.inline_runs += u64::from(inline);
        self.result_misses += u64::from(report.router.result_cache == CacheOutcome::Miss);
        self.result_stales += u64::from(report.router.result_cache == CacheOutcome::Stale);
        match report.router.plan_cache {
            CacheOutcome::Hit => {
                self.plan_hits += 1;
                self.plan_lookups += 1;
                self.route_refreshed += u64::from(!report.router.route_reused);
            }
            CacheOutcome::Miss | CacheOutcome::Stale => self.plan_lookups += 1,
            CacheOutcome::Bypass => {}
        }
        self.nodes += report.cluster.nodes() as u64;
        for s in &report.cluster.per_shard {
            self.keys_examined += s.stats.keys_examined;
            self.docs_examined += s.stats.docs_examined;
            self.returned += s.stats.n_returned;
            self.seeks += s.stats.seeks;
        }
    }
}

/// `StStore::new`, timed.
fn new_store(corpus: &Corpus, approach: Approach, router: RouterConfig) -> (StStore, Duration) {
    let config = StoreConfig {
        approach,
        max_chunk_bytes: corpus.max_chunk_bytes,
        data_mbr: sts_workload::R_MBR,
        curve_sample: corpus.sample.clone(),
        router,
        ..Default::default()
    };
    let started = Instant::now();
    let store = StStore::new(config);
    (store, started.elapsed())
}

/// `bulk_load` the first `n` records; the time inside the calls.
/// Decoding the corpus into documents happens between them.
fn load_prefix(store: &mut StStore, corpus: &Corpus, n: usize) -> Duration {
    let mut busy = Duration::ZERO;
    let mut at = 0;
    while at < n {
        let end = (at + LOAD_CHUNK).min(n);
        let docs = corpus.documents(at..end);
        let started = Instant::now();
        store
            .bulk_load(docs)
            .expect("generated records are always loadable");
        busy += started.elapsed();
        at = end;
    }
    busy
}

/// `StStore::new` through the last preload `bulk_load` returning.
fn set_up(corpus: &Corpus, approach: Approach, router: RouterConfig, n: usize) -> (StStore, f64) {
    let (mut store, created) = new_store(corpus, approach, router);
    let loaded = load_prefix(&mut store, corpus, n);
    (store, (created + loaded).as_secs_f64())
}

fn ops_fingerprint(queries: &[StQuery], extra: &[u64]) -> u64 {
    let mut fnv = Fnv::default();
    fnv.u64(shapes::fingerprint(queries));
    for &x in extra {
        fnv.u64(x);
    }
    fnv.finish()
}

/// Run one workload. `Err` is a usage error (unknown name).
pub fn run(name: &str, opts: &Options) -> Result<Outcome, String> {
    let (workload, _) = WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let corpus = Corpus::generate(DATA_SEED, if opts.smoke { SMOKE_SCALE } else { SCALE });
    let total = corpus.len();
    let shrink = if opts.smoke { 10 } else { 1 };
    let (approach, router, preload) = match *workload {
        "selective-planwarm" => (Approach::Hil, RouterConfig::default(), total),
        "scan-cold" => (
            Approach::HilStar,
            RouterConfig {
                plan_cache_entries: 0,
                result_cache_entries: 0,
                ..Default::default()
            },
            total,
        ),
        "repeat-shapes-mixed" => (
            Approach::BslTS,
            RouterConfig {
                result_cache_entries: REPEAT_CACHE_PAGES,
                ..Default::default()
            },
            total / 2,
        ),
        _ => (
            Approach::HilStar,
            RouterConfig::default(),
            (total as f64 * INGEST_PRELOAD_SHARE) as usize,
        ),
    };

    let (reps_min, reps_max) = if opts.smoke {
        (1, 1)
    } else {
        (SETUP_REPS_MIN, SETUP_REPS_MAX)
    };
    let mut setup_s = Vec::new();
    let mut store = None;
    while setup_s.len() < reps_min
        || (setup_s.len() < reps_max && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // Drop the previous store first so its memory is reused rather
        // than doubled.
        drop(store.take());
        let (s, secs) = set_up(&corpus, approach, router, preload);
        setup_s.push(secs);
        store = Some(s);
    }
    let store = store.expect("at least one set-up");
    let every = if opts.smoke { 4 } else { PROBE_EVERY };
    let probe = opts.trace.then(|| LayerProbe::new(&store, every));
    let mut run = Run {
        corpus: &corpus,
        store,
        committed: preload,
        query_ns: Vec::new(),
        commits: Vec::new(),
        attempted: 0,
        failed: 0,
        counts: Counts::default(),
        probe,
        oracle: Duration::ZERO,
        corrupt_next: opts.corrupt_oracle,
        ops: 0,
        evictions_before: 0,
        events_before: 0,
        migrations_before: 0,
    };
    let window = Duration::from_secs_f64(opts.seconds);
    // Set-up time and preloads of the stores the timed windows ran on.
    let mut measured_setup_s = *setup_s.last().expect("at least one set-up");
    let mut measured_preloads = 1;
    let mut block_len = QUERY_BLOCK;

    let (ops_fingerprint, results_total) = match *workload {
        "selective-planwarm" => {
            let rects = shapes::selective_rects(opts.seed, SELECTIVE_SHAPES / shrink);
            let mut rng = SplitMix64::new(opts.seed ^ 0x0005_E1EC);
            // One untimed pass fills the plan cache.
            let first = shapes::selective_pass(&mut rng, &rects);
            let mut results_total = 0;
            for q in &first {
                let a = run.expected(q);
                results_total += a.count;
                run.query(q, a, false);
            }
            run.open_window();
            let deadline = Instant::now() + window;
            loop {
                let pass = shapes::selective_pass(&mut rng, &rects);
                let answers: Vec<Answer> = pass.iter().map(|q| run.expected(q)).collect();
                for (q, a) in pass.iter().zip(&answers) {
                    run.query(q, *a, true);
                }
                if Instant::now() >= deadline {
                    break;
                }
            }
            run.close_window();
            (ops_fingerprint(&first, &[]), results_total)
        }
        "scan-cold" => {
            let pool = shapes::scan_mix(opts.seed, SCAN_POOL / shrink);
            let answers: Vec<Answer> = pool.iter().map(|q| run.expected(q)).collect();
            let warmup = SCAN_WARMUP / shrink;
            for (q, a) in pool.iter().zip(&answers).take(warmup) {
                run.query(q, *a, false);
            }
            run.open_window();
            let deadline = Instant::now() + window;
            let mut next = warmup;
            loop {
                for _ in 0..SCAN_BLOCK {
                    run.query(&pool[next % pool.len()], answers[next % pool.len()], true);
                    next += 1;
                }
                if Instant::now() >= deadline {
                    break;
                }
            }
            run.close_window();
            (
                ops_fingerprint(&pool, &[]),
                answers.iter().map(|a| a.count).sum(),
            )
        }
        "repeat-shapes-mixed" => {
            let list = shapes::city_weeks(opts.seed, REPEAT_SHAPES / shrink);
            let mut answers: Vec<Answer> = list.iter().map(|q| run.expected(q)).collect();
            let results_total = answers.iter().map(|a| a.count).sum();
            let zipf = Zipf::new(list.len());
            let mut rng = SplitMix64::new(opts.seed ^ 0x21F0_CAFE);
            let head: Vec<u64> = {
                let mut peek = rng.clone();
                (0..REPEAT_FINGERPRINT_DRAWS)
                    .map(|_| zipf.draw(&mut peek) as u64)
                    .collect()
            };
            for _ in 0..REPEAT_WARMUP / shrink {
                let i = zipf.draw(&mut rng);
                run.query(&list[i], answers[i], false);
            }
            run.open_window();
            let deadline = Instant::now() + window;
            // Which shape holds rank 0. It moves on at every write: the
            // write stales every cached page anyway, and a run's medians
            // then rest on some sixty hot sets instead of on the result
            // sizes of one seed's three hottest shapes (which moved the
            // hit-path p50 by 19 % between seeds).
            let mut hottest = 0;
            loop {
                for _ in 0..REPEAT_QUERIES_PER_WRITE / shrink {
                    let i = (zipf.draw(&mut rng) + hottest) % list.len();
                    run.query(&list[i], answers[i], true);
                }
                hottest += REPEAT_DRIFT;
                let before = run.committed;
                run.commit(BATCH_DOCS);
                let started = Instant::now();
                oracle::extend(&mut answers, &list, &corpus.points[before..run.committed]);
                run.oracle += started.elapsed();
                if Instant::now() >= deadline {
                    break;
                }
            }
            run.close_window();
            (ops_fingerprint(&list, &head), results_total)
        }
        _ => {
            // One pass ingests the whole corpus (about 4 s here), so a
            // run makes as many passes as the window has room for, each
            // on a fresh store and with freshly drawn queries, and every
            // pass is one block of the latency medians. Queries after
            // commit `i` ask about the days just before the newest
            // committed fix.
            let mut rng = SplitMix64::new(opts.seed ^ 0x1A6E_57ED);
            let watched = shapes::watched_rects(opts.seed, INGEST_WATCHED_RECTS);
            let batches = (total - preload).div_ceil(BATCH_DOCS);
            let mut first_pass = None;
            let started = Instant::now();
            loop {
                let drawing = Instant::now();
                let blocks: Vec<Vec<(StQuery, Answer)>> = (0..batches)
                    .map(|i| {
                        let visible = &corpus.points[..(preload + (i + 1) * BATCH_DOCS).min(total)];
                        let newest = visible[visible.len() - 1].millis;
                        (0..INGEST_QUERIES_PER_COMMIT)
                            .map(|_| {
                                let rect = watched[rng.below(watched.len() as u64) as usize];
                                let q = shapes::recent(rect, newest, INGEST_WINDOW_DAYS);
                                (q, oracle::expected(visible, &q))
                            })
                            .collect()
                    })
                    .collect();
                run.oracle += drawing.elapsed();
                first_pass.get_or_insert_with(|| {
                    let flat: Vec<StQuery> = blocks.iter().flatten().map(|(q, _)| *q).collect();
                    let results_total = blocks.iter().flatten().map(|(_, a)| a.count).sum();
                    (ops_fingerprint(&flat, &[]), results_total)
                });
                run.open_window();
                for block in &blocks {
                    run.commit(BATCH_DOCS);
                    for (q, a) in block {
                        run.query(q, *a, true);
                    }
                }
                run.close_window();
                if started.elapsed() >= window {
                    break;
                }
                // The full store goes before the next one is loaded, so
                // that its memory is reused rather than doubled.
                let (fresh, created) = new_store(&corpus, approach, router);
                run.store = fresh;
                let secs = (created + load_prefix(&mut run.store, &corpus, preload)).as_secs_f64();
                setup_s.push(secs);
                measured_setup_s += secs;
                measured_preloads += 1;
                run.committed = preload;
            }
            block_len = batches * INGEST_QUERIES_PER_COMMIT;
            first_pass.expect("at least one pass")
        }
    };

    Ok(Outcome {
        workload,
        seed: opts.seed,
        records: total,
        preloaded: preload,
        committed: run.committed,
        data_fingerprint: corpus.fingerprint,
        ops_fingerprint,
        results_total,
        setup_s,
        measured_preload_docs: measured_preloads * preload as u64,
        measured_setup_s,
        query_ns: run.query_ns,
        block_len,
        commits: run.commits,
        attempted: run.attempted,
        failed: run.failed,
        counts: run.counts,
        gen_s: corpus.gen_s,
        oracle_s: run.oracle.as_secs_f64(),
        probe: run.probe,
        store: run.store,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report;
    use serde::Json;

    fn smoke(trace: bool) -> Options {
        Options {
            seed: 9,
            seconds: 0.5,
            trace,
            smoke: true,
            corrupt_oracle: false,
        }
    }

    #[test]
    fn smoke_runs_every_workload_against_the_oracle() {
        for (name, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
            let o = run(name, &smoke(false)).unwrap();
            assert_eq!(o.failed, 0, "{name}");
            assert!(o.attempted > 20, "{name}: {} ops", o.attempted);
            assert!(!o.query_ns.is_empty(), "{name}");
            let writes = matches!(name, "repeat-shapes-mixed" | "ingest-beside-reads");
            assert_eq!(!o.commits.is_empty(), writes, "{name}");
            assert_eq!(o.store.doc_count(), o.committed as u64, "{name}");
            assert!(o.results_total > 0, "{name}: shapes must find something");
            let values = report::end_to_end(&o);
            for (metric, v) in &values {
                // A smoke window is too short for a p99; all else is there.
                if *metric != "query_p99_us" {
                    assert!(v.is_some_and(|x| x > 0.0), "{name}/{metric}: {v:?}");
                }
            }
            // The result line round-trips through the JSON shim with
            // exactly the contract's keys.
            let line = report::result_line(&o, &values);
            let json = serde_json::from_str(&line).unwrap();
            let keys: Vec<&str> = json
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(json.get("attempted").unwrap().as_u64(), Some(o.attempted));
            let metrics = json.get("metrics").unwrap().as_object().unwrap();
            assert_eq!(metrics.len(), report::END_TO_END.len());
            assert_eq!(
                metrics[0].1.get("unit").and_then(Json::as_str),
                Some("s"),
                "setup_s leads"
            );
        }
    }

    #[test]
    fn a_wrong_expectation_fails_the_run() {
        for (name, _) in WORKLOADS {
            let o = run(
                name,
                &Options {
                    corrupt_oracle: true,
                    ..smoke(false)
                },
            )
            .unwrap();
            assert_eq!(o.failed, 1, "{name}: exactly the corrupted query fails");
            let line = report::result_line(&o, &report::end_to_end(&o));
            assert!(line.starts_with("{\"correct\":false,"), "{line}");
        }
        assert!(run("no-such-workload", &smoke(false)).is_err());
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = run("scan-cold", &smoke(false)).unwrap();
        let b = run("scan-cold", &smoke(false)).unwrap();
        let c = run(
            "scan-cold",
            &Options {
                seed: 10,
                ..smoke(false)
            },
        )
        .unwrap();
        assert_eq!(
            (a.data_fingerprint, a.ops_fingerprint, a.results_total),
            (b.data_fingerprint, b.ops_fingerprint, b.results_total)
        );
        // The seed draws the operations; the data set is the same.
        assert_eq!(a.data_fingerprint, c.data_fingerprint);
        assert_ne!(a.ops_fingerprint, c.ops_fingerprint);
    }

    #[test]
    fn traced_smoke_fills_the_layers_and_self_times_partition_the_roots() {
        for (name, _) in WORKLOADS {
            let o = run(name, &smoke(true)).unwrap();
            assert_eq!(o.failed, 0, "{name}");
            let probe = o.probe.as_ref().expect("traced run keeps its probe");
            assert!(probe.counts.queries > 0, "{name}");
            assert_eq!(probe.counts.write_docs > 0, !o.commits.is_empty(), "{name}");
            let totals = probe.tracer.totals();
            let self_sum: u64 = totals.values().map(|t| t.self_ns).sum();
            assert_eq!(self_sum, probe.tracer.root_ns(), "{name}");
            let values = report::per_layer(&o);
            assert_eq!(values.len(), report::PER_LAYER.len());
            for ((got, _), def) in values.iter().zip(&report::PER_LAYER) {
                assert_eq!(*got, def.name, "value order follows the table");
            }
            let get = |m: &str| values.iter().find(|(n, _)| *n == m).unwrap().1;
            for m in ["core.facade_us", "cluster.exec_us", "index.scan_us"] {
                assert!(get(m).is_some_and(|x| x > 0.0), "{name}/{m}");
            }
            let curved = name != "repeat-shapes-mixed";
            assert_eq!(get("curve.decompose_us").is_some(), curved, "{name}");
            assert_eq!(get("geo.cover_us").is_some(), !curved, "{name}");
            assert_eq!(get("core.result_hit_ratio").is_some(), !curved, "{name}");
        }
    }

    /// The oracle against a 2,000-record store of each approach the
    /// workloads deploy.
    #[test]
    fn oracle_matches_a_small_store_of_each_approach() {
        let corpus = Corpus::generate(5, 2000.5 / sts_workload::PAPER_R_RECORDS as f64);
        assert_eq!(corpus.len(), 2000);
        let queries = shapes::scan_mix(5, 60);
        for approach in [Approach::Hil, Approach::HilStar, Approach::BslTS] {
            let (mut store, _) = set_up(&corpus, approach, RouterConfig::default(), 1500);
            let mut found = 0;
            for committed in [1500, 2000] {
                for q in &queries {
                    let want = oracle::expected(&corpus.points[..committed], q);
                    let (docs, _) = store.st_query(q);
                    assert_eq!(oracle::observed(&docs), Some(want), "{approach} {q:?}");
                    found += want.count;
                }
                if committed == 1500 {
                    store.insert_batch(corpus.documents(1500..2000)).unwrap();
                }
            }
            assert!(found > 0, "{approach}: the shapes must hit data");
        }
    }
}
