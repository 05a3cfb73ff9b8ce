//! Schedule-driven concurrent differential oracle.
//!
//! A [`ScheduleCase`] is a deterministic interleaving of the five
//! operations a live deployment races: **stage** (ingest a batch
//! without committing), **commit** (publish the batch and run the
//! live balancer), **query**, **split**, **migrate**, plus failpoint
//! arming. [`replay`] executes the interleaving single-threaded
//! against a real [`StStore`] while maintaining the reference state —
//! which documents are committed vs. still staged — and checks after
//! *every* step:
//!
//! * **exact result parity**: each query's `_id` set equals the
//!   full-scan oracle's over the committed corpus (staged documents
//!   are invisible until their commit, visible in full after it);
//! * **conservation**: the union of all shards' physical records is
//!   exactly the staged+committed corpus — zero lost and zero
//!   duplicated records, no matter how many migrations rolled back
//!   mid-transfer under injected faults;
//! * **snapshot accounting**: the cluster-wide visible count equals
//!   the committed corpus size.
//!
//! The crate's proptest shim has no shrinking, so [`shrink`] is a
//! hand-rolled delta-debugging pass: it greedily removes op windows
//! while the replay still fails, producing a minimal repro that
//! [`dump_failure`] writes as JSON under `target/ingest-chaos/` (CI
//! uploads the directory as an artifact on failure). Replays are pure
//! functions of the schedule — faults, balancing and routing are all
//! seed-deterministic — so a dumped schedule reproduces exactly.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use sts::cluster::{FailPoint, FailPointMode};
use sts::core::{Approach, CacheOutcome, QueryReport, RouterConfig, StQuery, StStore, StoreConfig};
use sts::curve::CurveKind;
use sts::document::{doc, DateTime, Document, Value};
use sts::geo::GeoRect;

use super::oracle::Oracle;

/// Spatial box the corpus lives in (as in the differential-oracle
/// tests: roughly the paper's R MBR).
const LON_MIN: f64 = 20.0;
const LON_MAX: f64 = 28.0;
const LAT_MIN: f64 = 35.0;
const LAT_MAX: f64 = 41.5;
/// Temporal span of the corpus, in millis.
const SPAN_MS: i64 = 8_000_000;
/// Shards in every schedule deployment.
const NUM_SHARDS: usize = 4;
/// Chunk split threshold — small, so schedules actually split.
const MAX_CHUNK_BYTES: u64 = 24 * 1024;
/// Documents bulk-loaded before the schedule starts (epoch 0).
const BASE_DOCS: usize = 140;
/// Documents the schedule ingests in batches.
const INCOMING_DOCS: usize = 96;

/// One step of a deterministic interleaving.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleOp {
    /// Stage `incoming[lo..hi]` into the in-flight batch: stored and
    /// indexed, but invisible until the next `Commit`.
    Stage { lo: usize, hi: usize },
    /// Publish the in-flight batch (one atomic epoch store) and run
    /// the live balancer.
    Commit,
    /// Run `queries[qidx % len]` and demand exact oracle parity.
    Query { qidx: usize },
    /// Run `queries[qidx % len]` **twice back to back** through the
    /// router's result-page cache, demanding exact oracle parity on
    /// both runs and a cache hit on the second — the first run either
    /// fills a fresh entry or detects a stale one (data moved since an
    /// earlier `CachedQuery` of the same shape) and refills it. Proves
    /// the epoch/write-generation stamping never serves a torn or
    /// stale page across commit/split/migrate interleavings.
    CachedQuery { qidx: usize },
    /// Split a chunk: `sel` picks it (mod live chunk count), falling
    /// back to the fullest chunk when the pick has too few docs to
    /// split.
    Split { sel: u64 },
    /// Two-phase-migrate a chunk (`sel`, as in `Split`) to the shard
    /// `dst_off` slots after its current owner — never a self-move,
    /// so the fault-aware transfer protocol always executes.
    Migrate { sel: u64, dst_off: u64 },
    /// Arm a failpoint on the shard owning the chunk `sel` picks (as
    /// in `Split`), so the fault lands where data lives. `times == 0`
    /// means always-on. Primary-only, so hedged reads keep every
    /// query answerable while migrations feel the fault.
    ArmFault {
        sel: u64,
        kind: FaultSpec,
        times: u32,
    },
    /// Disarm every failpoint.
    Disarm,
}

/// Injected fault kinds the schedules draw from. All are recoverable
/// for queries under the default policy (retries + hedged reads);
/// migrations retry transients and abort on hard failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSpec {
    /// Retryable error.
    Transient,
    /// Node down (primary only).
    Hard,
    /// 10 s injected latency — over the shard timeout, so it behaves
    /// as a timeout for queries and as plain slowness for transfers.
    Latency,
}

impl FaultSpec {
    fn name(self) -> &'static str {
        match self {
            FaultSpec::Transient => "transient",
            FaultSpec::Hard => "hard",
            FaultSpec::Latency => "latency",
        }
    }
}

/// A fully materialized test case: the corpus and queries are derived
/// from `seed`, so `(seed, ops)` reproduces the run exactly.
#[derive(Clone, Debug)]
pub struct ScheduleCase {
    pub seed: u64,
    pub approach: Approach,
    /// Curve the deployment runs on (only consulted by the curve-based
    /// approaches). Seeds stride through both curves so a 64-seed
    /// matrix covers every approach×curve combination.
    pub curve: CurveKind,
    /// Bulk-loaded before the schedule runs (always visible).
    pub base: Vec<Document>,
    /// Ingested by `Stage` ops, batch by batch.
    pub incoming: Vec<Document>,
    /// Query pool; index 0 is the full-extent query.
    pub queries: Vec<StQuery>,
    pub ops: Vec<ScheduleOp>,
}

/// What a successful replay observed — the acceptance evidence that a
/// schedule really exercised live ingestion.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayReport {
    /// Queries executed in total.
    pub queries_run: usize,
    /// Queries executed while a staged batch was in flight (the
    /// "concurrent ingest" condition).
    pub inflight_queries: usize,
    /// Documents ingested through the staged path.
    pub ingested: usize,
    /// Chunk splits performed during the schedule.
    pub splits: usize,
    /// Two-phase migrations that committed.
    pub migrations_committed: u64,
    /// Two-phase migrations rolled back for good.
    pub migrations_aborted: u64,
    /// Mid-transfer retries after transient faults.
    pub migration_retries: u64,
    /// Query-side fault recoveries observed (retries + hedges +
    /// timeouts) plus migration-side retries/aborts — evidence the
    /// armed faults actually fired.
    pub fault_recoveries: u64,
    /// `CachedQuery` ops executed (each runs its query twice).
    pub cached_queries: usize,
    /// Result-page cache hits served during the replay.
    pub cache_hits: u64,
    /// Cache entries invalidated by their epoch/write-generation stamp
    /// (data moved between fills) — the staleness-detection evidence.
    pub cache_stale: u64,
}

/// A failed replay: which op broke which invariant.
#[derive(Clone, Debug)]
pub struct ReplayError {
    /// Index into `ops` of the offending step.
    pub op_index: usize,
    pub message: String,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op #{}: {}", self.op_index, self.message)
    }
}

// ---------------------------------------------------------------- rng

/// SplitMix64 — the same generator the fault injector hashes with, so
/// schedule generation needs no external RNG crate.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

// ---------------------------------------------------------- generator

fn point_doc(rng: &mut Rng, id: u32) -> Document {
    let lon = LON_MIN + rng.unit() * (LON_MAX - LON_MIN);
    let lat = LAT_MIN + rng.unit() * (LAT_MAX - LAT_MIN);
    let ms = rng.below(SPAN_MS as u64) as i64;
    let mut d = doc! {
        "location" => doc! {
            "type" => "Point",
            "coordinates" => vec![Value::from(lon), Value::from(lat)],
        },
        "date" => DateTime::from_millis(ms),
    };
    d.ensure_id(id);
    d
}

/// The query every schedule ends on: the whole corpus extent, so the
/// final parity check proves every committed document is visible.
fn full_extent_query() -> StQuery {
    StQuery {
        rect: GeoRect::new(LON_MIN, LAT_MIN, LON_MAX, LAT_MAX),
        t0: DateTime::from_millis(0),
        t1: DateTime::from_millis(SPAN_MS),
    }
}

fn random_query(rng: &mut Rng, anchors: &[Document]) -> StQuery {
    // Half the pool is anchored on an actual document so result sets
    // stay productive; the rest are free boxes (possibly empty).
    if rng.below(2) == 0 {
        let d = &anchors[rng.below(anchors.len() as u64) as usize];
        let p = sts::index::geo_point_of(d, "location").expect("corpus docs carry a location");
        let ms = d
            .get("date")
            .and_then(|v| v.as_datetime())
            .expect("corpus docs carry a date")
            .millis();
        let half_deg = 0.05 + rng.unit() * 1.5;
        let half_ms = 20_000 + rng.below(2_500_000) as i64;
        StQuery {
            rect: GeoRect::new(
                p.lon - half_deg,
                p.lat - half_deg,
                p.lon + half_deg,
                p.lat + half_deg,
            ),
            t0: DateTime::from_millis((ms - half_ms).max(0)),
            t1: DateTime::from_millis((ms + half_ms).min(SPAN_MS)),
        }
    } else {
        let (a, b) = (
            LON_MIN + rng.unit() * (LON_MAX - LON_MIN),
            LON_MIN + rng.unit() * (LON_MAX - LON_MIN),
        );
        let (c, d) = (
            LAT_MIN + rng.unit() * (LAT_MAX - LAT_MIN),
            LAT_MIN + rng.unit() * (LAT_MAX - LAT_MIN),
        );
        let (t_a, t_b) = (
            rng.below(SPAN_MS as u64) as i64,
            rng.below(SPAN_MS as u64) as i64,
        );
        StQuery {
            rect: GeoRect::new(a.min(b), c.min(d), a.max(b), c.max(d)),
            t0: DateTime::from_millis(t_a.min(t_b)),
            t1: DateTime::from_millis(t_a.max(t_b)),
        }
    }
}

fn fault_spec(rng: &mut Rng) -> FaultSpec {
    match rng.below(3) {
        0 => FaultSpec::Transient,
        1 => FaultSpec::Hard,
        _ => FaultSpec::Latency,
    }
}

impl ScheduleCase {
    /// Deterministically generate one case from a seed. Every case is
    /// guaranteed by construction to contain concurrent ingest
    /// (queries between a `Stage` and its `Commit`), at least one
    /// forced split and one forced migration, and at least one armed
    /// failpoint that fires before the schedule ends.
    pub fn generate(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x5C4E_D01E_u64.rotate_left(7));
        let approach = Approach::ALL[(seed as usize) % Approach::ALL.len()];
        // The curve strides four times slower than the approach, so
        // seeds 0..8 already span every (approach, curve) pair — four
        // approaches × two curves — and 64 seeds visit each pair eight
        // times.
        let curve = CurveKind::ALL[((seed / 4) as usize) % CurveKind::ALL.len()];
        let base: Vec<Document> = (0..BASE_DOCS)
            .map(|i| point_doc(&mut rng, i as u32))
            .collect();
        let incoming: Vec<Document> = (0..INCOMING_DOCS)
            .map(|i| point_doc(&mut rng, 10_000 + i as u32))
            .collect();
        let mut queries = vec![full_extent_query()];
        for _ in 0..5 {
            queries.push(random_query(&mut rng, &base));
        }

        let mut ops = Vec::new();
        // Arm a fault up front so ingest-time balancing and the early
        // queries run under it. Times(1..=2) keeps it bounded.
        ops.push(ScheduleOp::ArmFault {
            sel: rng.next(),
            kind: fault_spec(&mut rng),
            times: 1 + rng.below(2) as u32,
        });

        // Partition the incoming corpus into 3–4 contiguous batches.
        let n_batches = 3 + rng.below(2) as usize;
        let per = INCOMING_DOCS / n_batches;
        for b in 0..n_batches {
            let lo = b * per;
            let hi = if b + 1 == n_batches {
                INCOMING_DOCS
            } else {
                lo + per
            };
            ops.push(ScheduleOp::Stage { lo, hi });
            // The concurrent-ingest condition: a query races the
            // staged (uncommitted) batch in every schedule.
            ops.push(ScheduleOp::Query {
                qidx: 1 + rng.below(5) as usize,
            });
            if rng.below(3) == 0 {
                // Sometimes split or migrate *while the batch is still
                // staged* — epoch stamps must survive the move.
                if rng.below(2) == 0 {
                    ops.push(ScheduleOp::Split { sel: rng.next() });
                } else {
                    ops.push(ScheduleOp::Migrate {
                        sel: rng.next(),
                        dst_off: rng.next(),
                    });
                }
            }
            ops.push(ScheduleOp::Commit);
            if b == 0 {
                // Forced live split + migration right after the first
                // commit — every schedule rebalances under load.
                ops.push(ScheduleOp::Split { sel: rng.next() });
                ops.push(ScheduleOp::Migrate {
                    sel: rng.next(),
                    dst_off: rng.next(),
                });
                // Fill the result cache with the full-extent page right
                // after the first commit; later batches invalidate it
                // (writes/epoch move), so the final `CachedQuery {0}`
                // is guaranteed to observe a stale entry and refill.
                ops.push(ScheduleOp::CachedQuery { qidx: 0 });
            }
            if b == 1 {
                // A second fault profile mid-schedule; always-on every
                // third seed so migrations must roll back.
                ops.push(ScheduleOp::ArmFault {
                    sel: rng.next(),
                    kind: fault_spec(&mut rng),
                    times: if rng.below(3) == 0 {
                        0
                    } else {
                        1 + rng.below(2) as u32
                    },
                });
                // The full-extent query visits every shard that owns a
                // chunk, the faulted one among them, and the commit
                // before it made its cached page stale: the fault just
                // armed fires here.
                ops.push(ScheduleOp::Query { qidx: 0 });
            }
            if rng.below(2) == 0 {
                ops.push(ScheduleOp::Query {
                    qidx: rng.below(6) as usize,
                });
            }
            // Every batch exercises the result cache at some point of
            // the commit/split/migrate interleaving.
            ops.push(ScheduleOp::CachedQuery {
                qidx: rng.below(6) as usize,
            });
        }
        // A final migration attempt under whatever faults are still
        // armed, then the full-extent parity check.
        ops.push(ScheduleOp::Migrate {
            sel: rng.next(),
            dst_off: rng.next(),
        });
        ops.push(ScheduleOp::Query { qidx: 0 });
        // The guaranteed-stale re-read: qidx 0 was cached after the
        // first commit and at least two more batches committed since.
        ops.push(ScheduleOp::CachedQuery { qidx: 0 });

        ScheduleCase {
            seed,
            approach,
            curve,
            base,
            incoming,
            queries,
            ops,
        }
    }
}

// ------------------------------------------------------------- replay

fn data_mbr() -> GeoRect {
    GeoRect::new(LON_MIN, LAT_MIN, LON_MAX, LAT_MAX)
}

/// Pick the chunk a `Split`/`Migrate` op targets: the selector's
/// chunk if it holds at least two documents, else the fullest chunk
/// (so forced balancer ops never degenerate into no-ops on empty
/// slivers).
fn pick_chunk(store: &StStore, sel: u64) -> usize {
    let chunks = store.cluster().chunk_map().chunks();
    let cidx = (sel as usize) % chunks.len();
    if chunks[cidx].docs >= 2 {
        return cidx;
    }
    (0..chunks.len())
        .max_by_key(|&i| chunks[i].docs)
        .unwrap_or(cidx)
}

fn id_of(d: &Document) -> Result<sts::document::ObjectId, String> {
    d.object_id().ok_or_else(|| "document without _id".into())
}

/// Run one query and check it against the oracle: complete (never
/// partial under recovery), duplicate-free, exact `_id` parity with
/// the committed corpus, and an exact report count.
fn checked_query(
    store: &StStore,
    q: &StQuery,
    oracle: &Oracle,
    label: &str,
) -> Result<(Vec<Document>, QueryReport), String> {
    let (docs, qr) = store.st_query(q);
    if qr.cluster.partial {
        return Err(format!("{label} returned a partial result under recovery"));
    }
    let mut got = BTreeSet::new();
    for d in &docs {
        let id = id_of(d)?;
        if !got.insert(id) {
            return Err(format!("{label} returned {id:?} twice"));
        }
    }
    let want = oracle.id_set(q);
    if got != want {
        let missing: Vec<_> = want.difference(&got).collect();
        let extra: Vec<_> = got.difference(&want).collect();
        return Err(format!(
            "{label} parity broken ({} got vs {} expected): \
             missing {missing:?}, extra {extra:?}",
            got.len(),
            want.len()
        ));
    }
    if qr.cluster.n_returned() != oracle.count(q) {
        return Err(format!(
            "{label} report counts {} docs, oracle {}",
            qr.cluster.n_returned(),
            oracle.count(q)
        ));
    }
    Ok((docs, qr))
}

/// The conservation invariant: the union of every shard's physical
/// records is exactly `committed ∪ staged` — nothing lost, nothing
/// duplicated — and the visible count equals the committed corpus.
fn check_conservation(
    store: &StStore,
    committed: &[Document],
    staged: &[Document],
) -> Result<(), String> {
    let mut seen: BTreeMap<sts::document::ObjectId, usize> = BTreeMap::new();
    for shard in store.cluster().shards() {
        for (_, d) in shard.collection().iter() {
            *seen.entry(id_of(&d)?).or_insert(0) += 1;
        }
    }
    if let Some((id, n)) = seen.iter().find(|(_, n)| **n > 1) {
        return Err(format!("record {id:?} exists {n} times across shards"));
    }
    let expected: BTreeSet<_> = committed
        .iter()
        .chain(staged)
        .map(id_of)
        .collect::<Result<_, _>>()?;
    let physical: BTreeSet<_> = seen.into_keys().collect();
    let lost: Vec<_> = expected.difference(&physical).collect();
    if !lost.is_empty() {
        return Err(format!("{} records lost: {lost:?}", lost.len()));
    }
    let alien: Vec<_> = physical.difference(&expected).collect();
    if !alien.is_empty() {
        return Err(format!("{} phantom records: {alien:?}", alien.len()));
    }
    let visible: usize = store
        .cluster()
        .shards()
        .iter()
        .map(|s| s.collection().visible_len())
        .sum();
    if visible != committed.len() {
        return Err(format!(
            "{} records visible at the committed snapshot, expected {} \
             (staged batch leaked or committed records hidden)",
            visible,
            committed.len()
        ));
    }
    Ok(())
}

/// Replay the schedule against a real store, checking every invariant
/// after every step. Pure function of the case: the fault injector,
/// balancer and router are all deterministic.
pub fn replay(case: &ScheduleCase) -> Result<ReplayReport, ReplayError> {
    let err = |i: usize, m: String| ReplayError {
        op_index: i,
        message: m,
    };
    let mut store = StStore::new(StoreConfig {
        approach: case.approach,
        num_shards: NUM_SHARDS,
        max_chunk_bytes: MAX_CHUNK_BYTES,
        data_mbr: data_mbr(),
        curve: case.curve,
        // The result-page cache is ON for schedule replays — the whole
        // point of `CachedQuery` is proving its epoch/write-generation
        // invalidation against the oracle.
        router: RouterConfig {
            result_cache_entries: 256,
            ..RouterConfig::default()
        },
        ..Default::default()
    });
    store
        .bulk_load(case.base.iter().cloned())
        .map_err(|e| err(0, format!("bulk load failed: {e}")))?;
    let chunks0 = store.cluster().chunk_map().len();
    let stats0 = store.cluster().migration_stats();

    let mut committed: Vec<Document> = case.base.clone();
    let mut staged: Vec<Document> = Vec::new();
    let mut report = ReplayReport::default();

    for (i, op) in case.ops.iter().enumerate() {
        match op {
            ScheduleOp::Stage { lo, hi } => {
                let lo = (*lo).min(case.incoming.len());
                let hi = (*hi).min(case.incoming.len());
                for d in &case.incoming[lo..hi] {
                    store
                        .stage(d.clone())
                        .map_err(|e| err(i, format!("stage failed: {e}")))?;
                    staged.push(d.clone());
                    report.ingested += 1;
                }
            }
            ScheduleOp::Commit => {
                store.commit_batch();
                committed.append(&mut staged);
            }
            ScheduleOp::Query { qidx } => {
                let q = &case.queries[qidx % case.queries.len()];
                let oracle = Oracle::new(committed.clone());
                let (_, qr) = checked_query(&store, q, &oracle, &format!("query {qidx}"))
                    .map_err(|m| err(i, m))?;
                report.queries_run += 1;
                if !staged.is_empty() {
                    report.inflight_queries += 1;
                }
                report.fault_recoveries += u64::from(qr.cluster.total_retries())
                    + u64::from(qr.cluster.total_hedges())
                    + u64::from(qr.cluster.total_timeouts());
            }
            ScheduleOp::CachedQuery { qidx } => {
                let q = &case.queries[qidx % case.queries.len()];
                let oracle = Oracle::new(committed.clone());
                let label = format!("cached query {qidx}");
                // First run: fills a fresh entry, or detects+refills a
                // stale one. Either way exact parity is demanded — a
                // stale page served here would break it.
                let (docs1, qr1) = checked_query(&store, q, &oracle, &format!("{label} (fill)"))
                    .map_err(|m| err(i, m))?;
                // The first run may be a miss (fresh shape), a stale
                // refill (data moved since an earlier fill) or even a
                // hit (same shape re-run with nothing changed) — but
                // never a bypass: the cache is on for every replay.
                if qr1.router.result_cache == CacheOutcome::Bypass {
                    return Err(err(i, format!("{label}: result cache bypassed")));
                }
                // Second run, back to back: nothing changed, so the
                // page MUST come from the cache and match exactly.
                let (docs2, qr2) = checked_query(&store, q, &oracle, &format!("{label} (hit)"))
                    .map_err(|m| err(i, m))?;
                if qr2.router.result_cache != CacheOutcome::Hit {
                    return Err(err(
                        i,
                        format!(
                            "{label}: second back-to-back run was {:?}, expected a cache hit",
                            qr2.router.result_cache
                        ),
                    ));
                }
                let ids1: Vec<_> = docs1.iter().map(id_of).collect::<Result<_, _>>().unwrap();
                let ids2: Vec<_> = docs2.iter().map(id_of).collect::<Result<_, _>>().unwrap();
                if ids1 != ids2 {
                    return Err(err(i, format!("{label}: cached page diverged from fill")));
                }
                report.queries_run += 2;
                report.cached_queries += 1;
                if !staged.is_empty() {
                    report.inflight_queries += 2;
                }
                report.fault_recoveries += u64::from(qr1.cluster.total_retries())
                    + u64::from(qr1.cluster.total_hedges())
                    + u64::from(qr1.cluster.total_timeouts());
            }
            ScheduleOp::Split { sel } => {
                store.split_chunk(pick_chunk(&store, *sel));
            }
            ScheduleOp::Migrate { sel, dst_off } => {
                let cidx = pick_chunk(&store, *sel);
                let src = store.cluster().chunk_map().chunks()[cidx].shard;
                let dst = (src + 1 + (*dst_off as usize) % (NUM_SHARDS - 1)) % NUM_SHARDS;
                store.migrate_chunk(cidx, dst);
            }
            ScheduleOp::ArmFault { sel, kind, times } => {
                let shard = store.cluster().chunk_map().chunks()[pick_chunk(&store, *sel)].shard;
                let point = match kind {
                    FaultSpec::Transient => FailPoint::transient(shard),
                    FaultSpec::Hard => FailPoint::hard_failure(shard),
                    FaultSpec::Latency => FailPoint::latency(shard, Duration::from_secs(10)),
                };
                let point = match times {
                    0 => point,
                    n => point.with_mode(FailPointMode::Times(*n)),
                };
                store.arm_failpoint(format!("sched-{i}"), point);
            }
            ScheduleOp::Disarm => store.disarm_all_failpoints(),
        }
        check_conservation(&store, &committed, &staged).map_err(|m| err(i, m))?;
    }

    let stats = store.cluster().migration_stats();
    report.splits = store.cluster().chunk_map().len() - chunks0;
    report.migrations_committed = stats.chunks_moved - stats0.chunks_moved;
    report.migrations_aborted = stats.migrations_aborted - stats0.migrations_aborted;
    report.migration_retries = stats.migration_retries - stats0.migration_retries;
    report.fault_recoveries += report.migration_retries + report.migrations_aborted;
    let cache = store.result_cache_counters();
    report.cache_hits = cache.hits;
    report.cache_stale = cache.stale;
    Ok(report)
}

// ----------------------------------------------------------- shrinker

/// Greedy delta-debugging: remove windows of ops (halving the window
/// each pass) while the replay still fails. The proptest shim cannot
/// shrink, so failing schedules are minimized here before dumping.
pub fn shrink(case: &ScheduleCase) -> ScheduleCase {
    let mut best = case.clone();
    if replay(&best).is_ok() {
        return best;
    }
    let mut window = (best.ops.len() / 2).max(1);
    loop {
        let mut removed_any = false;
        let mut i = 0;
        while i < best.ops.len() {
            let mut candidate = best.clone();
            let end = (i + window).min(candidate.ops.len());
            candidate.ops.drain(i..end);
            if !candidate.ops.is_empty() && replay(&candidate).is_err() {
                best = candidate;
                removed_any = true;
                // Re-test the same index: new ops slid into the window.
            } else {
                i += window;
            }
        }
        if window == 1 && !removed_any {
            return best;
        }
        window = (window / 2).max(1);
    }
}

// ------------------------------------------------------------ dumping

fn op_json(op: &ScheduleOp) -> String {
    match op {
        ScheduleOp::Stage { lo, hi } => format!(r#"{{"op":"stage","lo":{lo},"hi":{hi}}}"#),
        ScheduleOp::Commit => r#"{"op":"commit"}"#.to_string(),
        ScheduleOp::Query { qidx } => format!(r#"{{"op":"query","qidx":{qidx}}}"#),
        ScheduleOp::CachedQuery { qidx } => {
            format!(r#"{{"op":"cached_query","qidx":{qidx}}}"#)
        }
        ScheduleOp::Split { sel } => format!(r#"{{"op":"split","sel":{sel}}}"#),
        ScheduleOp::Migrate { sel, dst_off } => {
            format!(r#"{{"op":"migrate","sel":{sel},"dst_off":{dst_off}}}"#)
        }
        ScheduleOp::ArmFault { sel, kind, times } => format!(
            r#"{{"op":"arm_fault","sel":{sel},"kind":"{}","times":{times}}}"#,
            kind.name()
        ),
        ScheduleOp::Disarm => r#"{"op":"disarm"}"#.to_string(),
    }
}

/// Write the (ideally shrunk) failing schedule as JSON under
/// `target/ingest-chaos/`, returning the path. The corpus and query
/// pool regenerate deterministically from the seed, so seed + ops
/// reproduce the failure exactly.
pub fn dump_failure(case: &ScheduleCase, error: &ReplayError) -> PathBuf {
    let dir = PathBuf::from("target/ingest-chaos");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("schedule-seed{}.json", case.seed));
    let mut body = String::new();
    let _ = write!(
        body,
        r#"{{"seed":{},"approach":"{}","curve":"{:?}","failed_op":{},"error":{:?},"ops":["#,
        case.seed, case.approach, case.curve, error.op_index, error.message
    );
    for (i, op) in case.ops.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&op_json(op));
    }
    body.push_str("]}\n");
    let _ = std::fs::write(&path, body);
    path
}

/// Replay, and on failure shrink + dump + panic with the repro path —
/// the single entry point the matrix tests call per seed.
pub fn replay_or_explain(case: &ScheduleCase) -> ReplayReport {
    match replay(case) {
        Ok(report) => report,
        Err(e) => {
            let minimal = shrink(case);
            let error = replay(&minimal).err().unwrap_or(e.clone());
            let path = dump_failure(&minimal, &error);
            panic!(
                "schedule seed {} ({} on {:?}) failed: {e}\n\
                 shrunk to {} ops (from {}), failing with: {error}\n\
                 repro dumped to {}",
                case.seed,
                case.approach,
                case.curve,
                minimal.ops.len(),
                case.ops.len(),
                path.display()
            );
        }
    }
}
