//! Work-stealing shard executor: the router's fan-out engine.
//!
//! An explicit, tunable executor owned by each cluster, so per-shard
//! concurrency is an observable knob instead of ambient process state:
//!
//! * every target shard gets its **own FIFO queue** of tasks (one task
//!   per shard for a plain scatter, several for batched descents);
//! * a queue whose depth exceeds [`ExecutorConfig::queue_depth`] spills
//!   the excess into a shared **overflow injector** (counted, never
//!   dropped);
//! * **workers** are pinned to queues round-robin (`queue % workers`);
//!   each drains its own queues first, then **steals** from the others,
//!   then drains the overflow injector — so one slow shard never idles
//!   the rest of the fleet;
//! * a single-task (or single-worker) fan-out runs **inline** on the
//!   caller thread: no spawn cost on the paths caching has already
//!   collapsed to sub-queue work.
//!
//! Tasks are claimed with one `fetch_add` per queue cursor, so each
//! task executes exactly once regardless of which worker wins it.
//! Steal and overflow counts are recorded both in the executor's
//! cumulative [`ExecutorStats`] and in the metrics registry the caller
//! passes per execution — the registry a store scoped via
//! `set_metrics_registry`, which is what keeps worker-thread metrics
//! attributed to the owning deployment even for stolen work.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use sts_obs::Registry;

/// Tunables for the shard executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecutorConfig {
    /// Worker threads per fan-out. `0` = one per available core,
    /// always capped by the number of tasks.
    pub workers: usize,
    /// Per-shard queue capacity; tasks beyond it go to the shared
    /// overflow injector (minimum 1).
    pub queue_depth: usize,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            workers: 0,
            queue_depth: 64,
        }
    }
}

/// Cumulative executor observables (mirrored as `executor.*` metrics).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Tasks executed, over all fan-outs.
    pub tasks: u64,
    /// Tasks a worker claimed from a queue it does not own.
    pub steals: u64,
    /// Tasks that spilled past a full per-shard queue into the shared
    /// overflow injector.
    pub overflows: u64,
    /// Fan-outs that ran inline on the caller thread (single task or
    /// single worker).
    pub inline_runs: u64,
}

/// One per-shard task queue: the task indices bound for that shard and
/// an atomic claim cursor.
struct ShardQueue {
    tasks: Vec<usize>,
    cursor: AtomicUsize,
}

impl ShardQueue {
    fn claim(&self) -> Option<usize> {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        self.tasks.get(i).copied()
    }
}

/// The work-stealing shard executor. Owned by a `Cluster`; stateless
/// between fan-outs apart from its cumulative counters.
pub struct ShardExecutor {
    config: ExecutorConfig,
    tasks: AtomicU64,
    steals: AtomicU64,
    overflows: AtomicU64,
    inline_runs: AtomicU64,
}

impl ShardExecutor {
    /// Build an executor with the given tunables.
    pub fn new(config: ExecutorConfig) -> Self {
        ShardExecutor {
            config,
            tasks: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            overflows: AtomicU64::new(0),
            inline_runs: AtomicU64::new(0),
        }
    }

    /// The active tunables.
    pub fn config(&self) -> ExecutorConfig {
        self.config
    }

    /// Replace the tunables (takes effect on the next fan-out).
    pub fn set_config(&mut self, config: ExecutorConfig) {
        self.config = config;
    }

    /// Cumulative counters since construction.
    pub fn stats(&self) -> ExecutorStats {
        ExecutorStats {
            tasks: self.tasks.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            overflows: self.overflows.load(Ordering::Relaxed),
            inline_runs: self.inline_runs.load(Ordering::Relaxed),
        }
    }

    /// Execute every task, shard-queued and work-stolen, and return
    /// `(task index, result)` pairs in unspecified order.
    ///
    /// `shard_of` assigns each task to its queue; `work` runs on
    /// whichever worker claims the task. Metrics land in `obs` — the
    /// caller's scoped registry — regardless of which thread executed.
    pub fn execute<T: Sync, R: Send>(
        &self,
        obs: &Registry,
        tasks: &[T],
        shard_of: impl Fn(&T) -> usize,
        work: impl Fn(&T) -> R + Sync,
    ) -> Vec<(usize, R)> {
        if tasks.is_empty() {
            return Vec::new();
        }
        let depth = self.config.queue_depth.max(1);
        // Build per-shard queues in first-appearance order; spill past
        // `queue_depth` into the overflow injector.
        let mut queues: Vec<(usize, ShardQueue)> = Vec::new();
        let mut overflow_tasks: Vec<usize> = Vec::new();
        for (idx, t) in tasks.iter().enumerate() {
            let shard = shard_of(t);
            let q = match queues.iter_mut().find(|(s, _)| *s == shard) {
                Some((_, q)) => q,
                None => {
                    queues.push((
                        shard,
                        ShardQueue {
                            tasks: Vec::new(),
                            cursor: AtomicUsize::new(0),
                        },
                    ));
                    &mut queues.last_mut().unwrap().1
                }
            };
            if q.tasks.len() < depth {
                q.tasks.push(idx);
            } else {
                overflow_tasks.push(idx);
            }
        }
        let overflow = ShardQueue {
            tasks: overflow_tasks,
            cursor: AtomicUsize::new(0),
        };
        let n = tasks.len();
        self.tasks.fetch_add(n as u64, Ordering::Relaxed);
        obs.counter("executor.tasks").add(n as u64);
        if !overflow.tasks.is_empty() {
            let spilled = overflow.tasks.len() as u64;
            self.overflows.fetch_add(spilled, Ordering::Relaxed);
            obs.counter("executor.overflows").add(spilled);
        }
        let workers = self.worker_count(n);
        obs.gauge("executor.workers").set(workers as i64);
        if workers <= 1 || n == 1 {
            // Inline fast path: no spawn cost for what one thread will
            // execute serially anyway.
            self.inline_runs.fetch_add(1, Ordering::Relaxed);
            obs.counter("executor.inline").inc();
            let mut out = Vec::with_capacity(n);
            for (_, q) in &queues {
                while let Some(idx) = q.claim() {
                    out.push((idx, work(&tasks[idx])));
                }
            }
            while let Some(idx) = overflow.claim() {
                out.push((idx, work(&tasks[idx])));
            }
            return out;
        }
        let queues = &queues;
        let overflow = &overflow;
        let tasks_ref = tasks;
        let work = &work;
        let steals = AtomicU64::new(0);
        let steals_ref = &steals;
        let mut out: Vec<(usize, R)> = Vec::with_capacity(n);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for w in 0..workers {
                handles.push(scope.spawn(move || {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    // Own queues first (queue index mod workers).
                    for (qi, (_, q)) in queues.iter().enumerate() {
                        if qi % workers != w {
                            continue;
                        }
                        while let Some(idx) = q.claim() {
                            local.push((idx, work(&tasks_ref[idx])));
                        }
                    }
                    // Steal from everyone else's queues, round-robin
                    // from the next queue over.
                    let nq = queues.len();
                    for off in 0..nq {
                        let qi = (w + 1 + off) % nq;
                        if qi % workers == w {
                            continue;
                        }
                        let (_, q) = &queues[qi];
                        while let Some(idx) = q.claim() {
                            steals_ref.fetch_add(1, Ordering::Relaxed);
                            local.push((idx, work(&tasks_ref[idx])));
                        }
                    }
                    // Shared overflow injector last; draining it is not
                    // a steal (nobody owns it).
                    while let Some(idx) = overflow.claim() {
                        local.push((idx, work(&tasks_ref[idx])));
                    }
                    local
                }));
            }
            for h in handles {
                out.extend(h.join().expect("executor worker panicked"));
            }
        });
        let stolen = steals.load(Ordering::Relaxed);
        if stolen > 0 {
            self.steals.fetch_add(stolen, Ordering::Relaxed);
            obs.counter("executor.steals").add(stolen);
        }
        out
    }

    /// Effective worker count for a fan-out of `n` tasks.
    fn worker_count(&self, n: usize) -> usize {
        let configured = if self.config.workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.config.workers
        };
        configured.clamp(1, n)
    }
}

impl Default for ShardExecutor {
    fn default() -> Self {
        ShardExecutor::new(ExecutorConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn exec(workers: usize, depth: usize) -> ShardExecutor {
        ShardExecutor::new(ExecutorConfig {
            workers,
            queue_depth: depth,
        })
    }

    #[test]
    fn runs_every_task_exactly_once() {
        let e = exec(4, 64);
        let obs = Registry::new();
        let tasks: Vec<usize> = (0..37).collect();
        let mut got: Vec<(usize, usize)> = e.execute(&obs, &tasks, |&t| t % 5, |&t| t * 2);
        got.sort_unstable();
        assert_eq!(got.len(), 37);
        for (i, (idx, val)) in got.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*val, i * 2);
        }
        assert_eq!(e.stats().tasks, 37);
        assert_eq!(obs.counter("executor.tasks").get(), 37);
    }

    #[test]
    fn single_task_runs_inline() {
        let e = exec(8, 64);
        let obs = Registry::new();
        let caller = std::thread::current().id();
        let got = e.execute(
            &obs,
            &[42usize],
            |_| 0,
            |&t| {
                assert_eq!(std::thread::current().id(), caller);
                t + 1
            },
        );
        assert_eq!(got, vec![(0, 43)]);
        assert_eq!(e.stats().inline_runs, 1);
        assert_eq!(obs.counter("executor.inline").get(), 1);
    }

    #[test]
    fn blocked_owner_gets_its_queue_stolen() {
        // Two workers, four shard queues. Worker 0 owns queues 0 and 2;
        // its first task sleeps, so worker 1 must steal queue 2's task
        // to finish the fan-out.
        let e = exec(2, 64);
        let obs = Registry::new();
        let tasks: Vec<usize> = vec![0, 1, 2, 3]; // task i -> shard i
        let got = e.execute(
            &obs,
            &tasks,
            |&t| t,
            |&t| {
                if t == 0 {
                    std::thread::sleep(Duration::from_millis(40));
                }
                t
            },
        );
        assert_eq!(got.len(), 4);
        assert!(
            e.stats().steals >= 1,
            "worker 1 should have stolen the blocked owner's queue"
        );
        assert_eq!(obs.counter("executor.steals").get(), e.stats().steals);
    }

    #[test]
    fn queue_depth_spills_to_overflow_and_still_completes() {
        let e = exec(3, 2);
        let obs = Registry::new();
        // 10 tasks for one shard with depth 2: 8 spill to overflow.
        let tasks: Vec<usize> = (0..10).collect();
        let done = Arc::new(AtomicU64::new(0));
        let d = done.clone();
        let got = e.execute(
            &obs,
            &tasks,
            |_| 7,
            move |&t| {
                d.fetch_add(1, Ordering::Relaxed);
                t
            },
        );
        assert_eq!(got.len(), 10);
        assert_eq!(done.load(Ordering::Relaxed), 10);
        assert_eq!(e.stats().overflows, 8);
        assert_eq!(obs.counter("executor.overflows").get(), 8);
    }

    #[test]
    fn worker_count_caps_to_tasks_and_floor_one() {
        let auto = exec(0, 8);
        assert_eq!(auto.worker_count(1), 1);
        assert!(auto.worker_count(64) >= 1);
        let fixed = exec(6, 8);
        assert_eq!(fixed.worker_count(3), 3);
        assert_eq!(fixed.worker_count(100), 6);
    }

    #[test]
    fn metrics_land_in_the_registry_passed_per_call() {
        // The attribution contract: two deployments sharing one
        // executor-shaped world never bleed counters, because every
        // fan-out records into the registry it was handed — including
        // for stolen work.
        let e = exec(2, 64);
        let a = Registry::new();
        let b = Registry::new();
        let tasks: Vec<usize> = vec![0, 1, 2, 3];
        let slow = |&t: &usize| {
            if t == 0 {
                std::thread::sleep(Duration::from_millis(30));
            }
            t
        };
        e.execute(&a, &tasks, |&t| t, slow);
        assert!(a.counter("executor.tasks").get() == 4);
        assert_eq!(b.counter("executor.tasks").get(), 0);
        e.execute(&b, &tasks, |&t| t, slow);
        assert_eq!(a.counter("executor.tasks").get(), 4);
        assert_eq!(b.counter("executor.tasks").get(), 4);
        // Steals recorded during a's fan-out never landed in b.
        assert_eq!(
            a.counter("executor.steals").get() + b.counter("executor.steals").get(),
            e.stats().steals
        );
    }
}
