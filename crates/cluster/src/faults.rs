//! Deterministic fault injection for the router — MongoDB-style
//! failpoints (`configureFailPoint`).
//!
//! A [`FailPoint`] describes a fault (latency, transient error, hard
//! failure), which shard it afflicts, and a firing [`FailPointMode`].
//! The [`FaultInjector`] holds the armed points and answers one
//! question per shard attempt: *does this attempt fault, and how?*
//!
//! # Determinism
//!
//! Every probabilistic decision is a **pure function** of
//! `(injector seed, query id, shard, attempt, replica, point name)` —
//! hashed through SplitMix64, never drawn from a shared RNG stream —
//! so outcomes are identical across runs regardless of how the shard
//! executor's workers interleave shards. `Times(n)` counters are kept
//! **per (failpoint, shard)**; within one query a shard's attempts are
//! sequential, so those counters are race-free too. No wall clock is
//! consulted anywhere: injected latency is virtual time, accounted in
//! the recovery records (see [`crate::retry`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// What an armed failpoint does to one shard attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Delay the attempt by this much *virtual* time. If it exceeds the
    /// recovery policy's per-shard timeout the attempt times out.
    Latency(Duration),
    /// The attempt fails with a retryable error (network reset,
    /// not-primary, interrupted-due-to-step-down...).
    TransientError,
    /// The node is down: no attempt against it can ever answer. Only a
    /// hedge to its replica can serve the read.
    HardFailure,
}

/// When an armed failpoint fires — mirrors MongoDB's failpoint modes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FailPointMode {
    /// Armed but inert.
    Off,
    /// Fires on the first `n` matching attempts **per shard**, then
    /// stays quiet (the per-shard scope keeps broadcasts deterministic).
    Times(u32),
    /// Fires on every matching attempt.
    AlwaysOn,
    /// Fires with this probability, decided by a deterministic hash of
    /// the attempt coordinates (not a shared RNG).
    Random {
        /// Probability in `[0, 1]`.
        probability: f64,
    },
}

/// One armed fault: kind + scope + firing mode.
#[derive(Clone, Debug, PartialEq)]
pub struct FailPoint {
    /// Afflicted shard, or `None` for every shard.
    pub shard: Option<usize>,
    /// The injected fault.
    pub kind: FaultKind,
    /// When it fires.
    pub mode: FailPointMode,
    /// Whether hedged (replica) attempts are afflicted too. Defaults to
    /// `false`: the replica is healthy, so hedging can succeed.
    pub on_replica: bool,
}

impl FailPoint {
    /// An always-on latency fault on one shard.
    pub fn latency(shard: usize, delay: Duration) -> Self {
        FailPoint {
            shard: Some(shard),
            kind: FaultKind::Latency(delay),
            mode: FailPointMode::AlwaysOn,
            on_replica: false,
        }
    }

    /// An always-on transient-error fault on one shard.
    pub fn transient(shard: usize) -> Self {
        FailPoint {
            shard: Some(shard),
            kind: FaultKind::TransientError,
            mode: FailPointMode::AlwaysOn,
            on_replica: false,
        }
    }

    /// A hard failure of one shard's primary.
    pub fn hard_failure(shard: usize) -> Self {
        FailPoint {
            shard: Some(shard),
            kind: FaultKind::HardFailure,
            mode: FailPointMode::AlwaysOn,
            on_replica: false,
        }
    }

    /// Replace the firing mode.
    pub fn with_mode(mut self, mode: FailPointMode) -> Self {
        self.mode = mode;
        self
    }

    /// Afflict every shard instead of one.
    pub fn on_all_shards(mut self) -> Self {
        self.shard = None;
        self
    }

    /// Afflict hedged (replica) attempts too.
    pub fn on_replica_too(mut self) -> Self {
        self.on_replica = true;
        self
    }
}

/// Coordinates of one shard attempt, the sole input (besides the seed)
/// to every firing decision.
#[derive(Clone, Copy, Debug)]
pub struct AttemptCtx {
    /// Router-assigned query sequence number.
    pub query_id: u64,
    /// Target shard.
    pub shard: usize,
    /// 0-based attempt index *on this node* (primary and replica count
    /// separately).
    pub attempt: u32,
    /// Whether this is a hedged read against the replica.
    pub replica: bool,
}

struct ArmedPoint {
    name: String,
    point: FailPoint,
    /// `Times(n)` bookkeeping: how often this point fired per shard.
    fired: HashMap<usize, u32>,
}

/// The registry of armed failpoints; lives inside the cluster router.
///
/// Arming and disarming take `&self` (interior mutability) — like
/// `configureFailPoint` against a live server — so tests can inject
/// faults through the read-only store facade.
pub struct FaultInjector {
    seed: u64,
    queries: AtomicU64,
    armed: Mutex<Vec<ArmedPoint>>,
}

impl FaultInjector {
    /// An injector with nothing armed.
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            seed,
            queries: AtomicU64::new(0),
            armed: Mutex::new(Vec::new()),
        }
    }

    /// The determinism seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Assign the next query id (called once per routed query).
    pub fn begin_query(&self) -> u64 {
        self.queries.fetch_add(1, Ordering::Relaxed)
    }

    /// Arm (or re-arm, resetting its counters) a named failpoint.
    pub fn arm(&self, name: impl Into<String>, point: FailPoint) {
        let name = name.into();
        let mut armed = self.armed.lock().unwrap();
        armed.retain(|p| p.name != name);
        armed.push(ArmedPoint {
            name,
            point,
            fired: HashMap::new(),
        });
    }

    /// Disarm one failpoint; `true` if it was armed.
    pub fn disarm(&self, name: &str) -> bool {
        let mut armed = self.armed.lock().unwrap();
        let before = armed.len();
        armed.retain(|p| p.name != name);
        armed.len() != before
    }

    /// Disarm everything.
    pub fn disarm_all(&self) {
        self.armed.lock().unwrap().clear();
    }

    /// Names of currently armed failpoints, in arming order.
    pub fn armed(&self) -> Vec<String> {
        self.armed
            .lock()
            .unwrap()
            .iter()
            .map(|p| p.name.clone())
            .collect()
    }

    /// Fast path: is any failpoint armed?
    pub fn is_active(&self) -> bool {
        !self.armed.lock().unwrap().is_empty()
    }

    /// Decide whether `ctx` faults. The first armed point (in arming
    /// order) that matches and fires wins.
    pub fn draw(&self, ctx: &AttemptCtx) -> Option<FaultKind> {
        let mut armed = self.armed.lock().unwrap();
        if armed.is_empty() {
            return None;
        }
        for p in armed.iter_mut() {
            if p.point.shard.is_some_and(|s| s != ctx.shard) {
                continue;
            }
            if ctx.replica && !p.point.on_replica {
                continue;
            }
            let fires = match p.point.mode {
                FailPointMode::Off => false,
                FailPointMode::AlwaysOn => true,
                FailPointMode::Times(n) => {
                    let count = p.fired.entry(ctx.shard).or_insert(0);
                    if *count < n {
                        *count += 1;
                        true
                    } else {
                        false
                    }
                }
                FailPointMode::Random { probability } => {
                    let h = mix(
                        self.seed,
                        &[
                            fnv1a(&p.name),
                            ctx.query_id,
                            ctx.shard as u64,
                            u64::from(ctx.attempt),
                            u64::from(ctx.replica),
                        ],
                    );
                    unit_f64(h) < probability
                }
            };
            if fires {
                return Some(p.point.kind);
            }
        }
        None
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("seed", &self.seed)
            .field("armed", &self.armed())
            .finish()
    }
}

/// SplitMix64 finalizer — a strong 64-bit mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fold the parts into the seed, one SplitMix64 round each.
fn mix(seed: u64, parts: &[u64]) -> u64 {
    let mut h = splitmix64(seed);
    for &p in parts {
        h = splitmix64(h ^ p);
    }
    h
}

/// FNV-1a over the name, so draws don't depend on arming order.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Map a hash to `[0, 1)` using its top 53 bits.
fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(shard: usize, attempt: u32) -> AttemptCtx {
        AttemptCtx {
            query_id: 7,
            shard,
            attempt,
            replica: false,
        }
    }

    #[test]
    fn nothing_armed_never_faults() {
        let inj = FaultInjector::new(1);
        assert!(!inj.is_active());
        assert_eq!(inj.draw(&ctx(0, 0)), None);
    }

    #[test]
    fn shard_scope_is_respected() {
        let inj = FaultInjector::new(1);
        inj.arm("t", FailPoint::transient(3));
        assert_eq!(inj.draw(&ctx(3, 0)), Some(FaultKind::TransientError));
        assert_eq!(inj.draw(&ctx(2, 0)), None);
    }

    #[test]
    fn replica_attempts_skip_primary_only_points() {
        let inj = FaultInjector::new(1);
        inj.arm("down", FailPoint::hard_failure(0));
        let mut c = ctx(0, 0);
        assert_eq!(inj.draw(&c), Some(FaultKind::HardFailure));
        c.replica = true;
        assert_eq!(inj.draw(&c), None);

        inj.arm("down", FailPoint::hard_failure(0).on_replica_too());
        assert_eq!(inj.draw(&c), Some(FaultKind::HardFailure));
    }

    #[test]
    fn times_mode_counts_per_shard() {
        let inj = FaultInjector::new(1);
        inj.arm(
            "t2",
            FailPoint::transient(0)
                .on_all_shards()
                .with_mode(FailPointMode::Times(2)),
        );
        for shard in 0..3 {
            assert!(inj.draw(&ctx(shard, 0)).is_some());
            assert!(inj.draw(&ctx(shard, 1)).is_some());
            assert!(inj.draw(&ctx(shard, 2)).is_none(), "shard {shard} third");
        }
    }

    #[test]
    fn rearming_resets_times_counters() {
        let inj = FaultInjector::new(1);
        let p = FailPoint::transient(0).with_mode(FailPointMode::Times(1));
        inj.arm("t", p.clone());
        assert!(inj.draw(&ctx(0, 0)).is_some());
        assert!(inj.draw(&ctx(0, 1)).is_none());
        inj.arm("t", p);
        assert!(inj.draw(&ctx(0, 0)).is_some());
    }

    #[test]
    fn random_mode_is_deterministic_and_plausible() {
        let draws = |seed: u64| -> Vec<bool> {
            let inj = FaultInjector::new(seed);
            inj.arm(
                "r",
                FailPoint::transient(0).with_mode(FailPointMode::Random { probability: 0.3 }),
            );
            (0..2_000)
                .map(|q| {
                    inj.draw(&AttemptCtx {
                        query_id: q,
                        shard: 0,
                        attempt: 0,
                        replica: false,
                    })
                    .is_some()
                })
                .collect()
        };
        let a = draws(42);
        assert_eq!(a, draws(42), "same seed, same outcomes");
        assert_ne!(a, draws(43), "different seed, different outcomes");
        let rate = a.iter().filter(|&&b| b).count() as f64 / a.len() as f64;
        assert!((0.25..0.35).contains(&rate), "rate {rate}");
    }

    #[test]
    fn off_mode_is_inert_and_disarm_works() {
        let inj = FaultInjector::new(1);
        inj.arm("off", FailPoint::transient(0).with_mode(FailPointMode::Off));
        assert_eq!(inj.draw(&ctx(0, 0)), None);
        assert!(inj.disarm("off"));
        assert!(!inj.disarm("off"));
        inj.arm("a", FailPoint::transient(0));
        inj.arm("b", FailPoint::transient(1));
        assert_eq!(inj.armed(), vec!["a".to_string(), "b".to_string()]);
        inj.disarm_all();
        assert!(!inj.is_active());
    }

    #[test]
    fn first_armed_matching_point_wins() {
        let inj = FaultInjector::new(1);
        inj.arm("slow", FailPoint::latency(0, Duration::from_millis(5)));
        inj.arm("down", FailPoint::hard_failure(0));
        assert_eq!(
            inj.draw(&ctx(0, 0)),
            Some(FaultKind::Latency(Duration::from_millis(5)))
        );
    }

    #[test]
    fn query_ids_are_sequential() {
        let inj = FaultInjector::new(1);
        assert_eq!(inj.begin_query(), 0);
        assert_eq!(inj.begin_query(), 1);
    }
}
