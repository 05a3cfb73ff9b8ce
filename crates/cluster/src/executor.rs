//! Parked shard workers: the router's fan-out engine (DESIGN.md, same title).
//!
//! `workers − 1` helper threads, spawned by the first fan-out that needs
//! them, park on a condvar between fan-outs and are joined on drop. A
//! fan-out publishes one job — a claim cursor over the task slice — wakes
//! the helpers it can use, and the caller then drains the same cursor
//! itself, waiting only for tasks a helper actually claimed — never for a
//! helper busy with another caller's job, which joins in if it frees up
//! first. One task or one worker runs inline. Metrics land in the
//! registry passed per execution.

use crate::report::Dispatch;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle, Thread};
use sts_obs::Registry;

/// Tunables for the shard executor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecutorConfig {
    /// Threads per fan-out, caller included, capped by the task count; `0` = one per core.
    pub workers: usize,
}

/// Cumulative executor observables (mirrored as `executor.*` metrics).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Tasks executed, over all fan-outs.
    pub tasks: u64,
    /// Fan-outs run inline on the caller (single task or single worker).
    pub inline_runs: u64,
    /// Tasks that ran on a helper instead of the caller's thread.
    pub helper_tasks: u64,
}

/// The borrowed half of a job: runs task `i`, catching its panic, and
/// stores the outcome. It never unwinds.
type Run<'a> = &'a (dyn Fn(usize) + Sync + 'a);

/// The `'static` half of a job, shared with the helpers: the claim
/// cursor, the completion count, and a thin pointer to the caller's
/// [`Run`] — the cast to `*const ()` is what erases its lifetime.
struct Job {
    cursor: AtomicUsize,
    finished: AtomicUsize,
    n: usize,
    run: *const (),
    caller: Thread,
}

// SAFETY: every field but `run` is `Send + Sync` by itself. `run` points
// at a `Run`, a shared reference to a `Sync` closure, so reading and
// calling it from another thread is sound while the closure is live —
// and `Job::drain` reads it only then (see the block there).
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    fn new(n: usize, run: *const ()) -> Job {
        Job {
            cursor: AtomicUsize::new(1), // task 0 stays with the caller
            finished: AtomicUsize::new(0),
            n,
            run,
            caller: thread::current(),
        }
    }

    /// Run `own` (the caller's task 0), then claim and run tasks until the
    /// cursor is exhausted; returns how many this thread ran.
    fn drain(&self, own: Option<usize>) -> usize {
        // Relaxed: a claim publishes nothing; the job itself reached this
        // thread through the inbox mutex.
        let claim = || Some(self.cursor.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < self.n);
        let (mut next, mut ran) = (own.or_else(claim), 0);
        while let Some(i) = next {
            // SAFETY: `run` was cast from a `&Run` in `execute`, which
            // returns only once `finished == n`. Task `i < n` is this
            // thread's — claimed here, or kept back by `execute` for its
            // own thread — and not yet counted finished, so `finished < n`:
            // `execute`'s frame is live and the pointee with it. A helper
            // that wakes to an exhausted cursor gets no claim and never
            // reaches this line.
            let run: Run<'_> = unsafe { *self.run.cast::<Run<'_>>() };
            run(i);
            ran += 1;
            // Release: pairs with the Acquire load in `execute`, putting
            // this thread's last use of `run` before `execute`'s return.
            self.finished.fetch_add(1, Ordering::Release);
            next = claim();
        }
        ran
    }
}

#[derive(Default)]
struct Inbox {
    tickets: Vec<Arc<Job>>, // one per helper a job is handed to
    helpers: Vec<JoinHandle<()>>,
    shutdown: bool,
}

#[derive(Default)]
struct Pool {
    inbox: Mutex<Inbox>,
    wake: Condvar,
}

impl Pool {
    /// Nothing panics holding the inbox, so a poisoned guard is still good.
    fn lock(&self) -> MutexGuard<'_, Inbox> {
        self.inbox.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hand `job` to up to `want` helpers not yet promised another job,
    /// spawning those the pool lacks. Returns how many tickets went out.
    fn publish(self: &Arc<Self>, job: &Arc<Job>, want: usize) -> usize {
        let mut inbox = self.lock();
        while inbox.helpers.len() < want {
            let pool = Arc::clone(self);
            let name = "sts-shard-worker".to_string();
            match thread::Builder::new().name(name).spawn(move || pool.help()) {
                Ok(helper) => inbox.helpers.push(helper),
                Err(_) => break, // the caller drains what nobody helps with
            }
        }
        let woken = want.min(inbox.helpers.len() - inbox.tickets.len());
        inbox.tickets.extend((0..woken).map(|_| Arc::clone(job)));
        drop(inbox);
        (0..woken).for_each(|_| self.wake.notify_one());
        woken
    }

    /// A helper's life: take a ticket, drain its job, park again.
    fn help(&self) {
        let mut inbox = self.lock();
        while !inbox.shutdown {
            if let Some(job) = inbox.tickets.pop() {
                drop(inbox);
                if job.drain(None) > 0 {
                    job.caller.unpark();
                }
                inbox = self.lock();
            } else {
                let parked = self.wake.wait(inbox);
                inbox = parked.unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// The shard executor a `Cluster` owns: parked helpers and counters.
pub struct ShardExecutor {
    /// `ExecutorConfig::workers` with `0` resolved to the core count.
    workers: usize,
    pool: Arc<Pool>,
    tasks: AtomicU64,
    inline_runs: AtomicU64,
    helper_tasks: AtomicU64,
}

impl ShardExecutor {
    /// Build an executor with the given tunables.
    pub fn new(config: ExecutorConfig) -> Self {
        let mut executor = ShardExecutor {
            workers: 1,
            pool: Arc::default(),
            tasks: AtomicU64::new(0),
            inline_runs: AtomicU64::new(0),
            helper_tasks: AtomicU64::new(0),
        };
        executor.set_config(config);
        executor
    }

    /// Replace the tunables (takes effect on the next fan-out). The one
    /// place `workers: 0` asks the OS for the core count.
    pub fn set_config(&mut self, config: ExecutorConfig) {
        self.workers = match config.workers {
            0 => thread::available_parallelism().map_or(1, usize::from),
            fixed => fixed,
        };
    }

    /// Cumulative counters since construction.
    pub fn stats(&self) -> ExecutorStats {
        ExecutorStats {
            tasks: self.tasks.load(Ordering::Relaxed),
            inline_runs: self.inline_runs.load(Ordering::Relaxed),
            helper_tasks: self.helper_tasks.load(Ordering::Relaxed),
        }
    }

    /// Run `work` on every task — on the caller's thread or a helper's —
    /// and return the results in task order. Metrics land in `obs`; a panic
    /// in `work` resumes on the caller once every task has finished.
    pub fn execute<T: Sync, R: Send>(
        &self,
        obs: &Registry,
        tasks: &[T],
        work: impl Fn(&T) -> R + Sync,
    ) -> (Vec<R>, Dispatch) {
        let n = tasks.len();
        if n == 0 {
            return Default::default();
        }
        self.tasks.fetch_add(n as u64, Ordering::Relaxed);
        obs.counter("executor.tasks").add(n as u64);
        let workers = self.worker_count(n);
        if workers == 1 {
            self.inline_runs.fetch_add(1, Ordering::Relaxed);
            obs.counter("executor.inline").inc();
            return (tasks.iter().map(work).collect(), Dispatch::default());
        }
        let slots: Vec<_> = (0..n).map(|_| Mutex::new(None)).collect();
        let run = |i: usize| {
            let outcome = catch_unwind(AssertUnwindSafe(|| work(&tasks[i])));
            *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
        };
        let run: Run<'_> = &run;
        let job = Arc::new(Job::new(n, (&raw const run).cast()));
        let helpers_woken = self.pool.publish(&job, workers - 1);
        let helper_tasks = n - job.drain(Some(0));
        // Every task is claimed by now; one not yet finished is running
        // on a helper, which unparks this thread when its drain ends.
        while job.finished.load(Ordering::Acquire) < n {
            thread::park();
        }
        let ran = helper_tasks as u64;
        self.helper_tasks.fetch_add(ran, Ordering::Relaxed);
        obs.counter("executor.helper_tasks").add(ran);
        let dispatch = Dispatch {
            helpers_woken: u8::try_from(helpers_woken).unwrap_or(u8::MAX),
            helper_tasks: u16::try_from(helper_tasks).unwrap_or(u16::MAX),
        };
        let results = slots.into_iter().map(|slot| {
            let outcome = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
            let outcome = outcome.expect("finished == n: every task stored its outcome");
            outcome.unwrap_or_else(|panic| resume_unwind(panic))
        });
        (results.collect(), dispatch)
    }

    /// Effective worker count for a fan-out of `n` tasks.
    fn worker_count(&self, n: usize) -> usize {
        self.workers.clamp(1, n)
    }
}

impl Drop for ShardExecutor {
    fn drop(&mut self) {
        let mut inbox = self.pool.lock();
        inbox.shutdown = true;
        let helpers = std::mem::take(&mut inbox.helpers);
        drop(inbox);
        self.pool.wake.notify_all();
        // Task panics are caught inside the job: a join has nothing to report.
        helpers.into_iter().for_each(|helper| drop(helper.join()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{atomic::AtomicBool, atomic::Ordering::Relaxed, Barrier};

    fn exec(workers: usize) -> ShardExecutor {
        ShardExecutor::new(ExecutorConfig { workers })
    }

    #[test]
    fn every_task_runs_once_in_task_order_and_drop_joins_the_helpers() {
        let caller = thread::current().id();
        for workers in [1, 2, 4, 8] {
            let (e, obs) = (exec(workers), Registry::new());
            for n in [1usize, 2, 37].repeat(50) {
                // Tasks and tallies are borrowed, non-`'static` stack data.
                let tasks: Vec<String> = (0..n).map(|i| i.to_string()).collect();
                let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let (got, d) = e.execute(&obs, &tasks, |t| {
                    assert!(n.min(workers) > 1 || thread::current().id() == caller);
                    let i: usize = t.parse().unwrap();
                    runs[i].fetch_add(1, Relaxed);
                    i * 2
                });
                assert_eq!(got, (0..n).map(|i| i * 2).collect::<Vec<_>>());
                assert!(runs.iter().all(|r| r.load(Relaxed) == 1));
                let (woken, helped) = (d.helpers_woken as usize, d.helper_tasks as usize);
                assert!(helped < n && woken < workers.min(n) && (woken > 0 || helped == 0));
            }
            let inline = if workers == 1 { 150 } else { 50 };
            let stats = e.stats();
            assert_eq!((stats.tasks, stats.inline_runs), (50 * 40, inline));
            assert_eq!(obs.counter("executor.tasks").get(), 50 * 40);
            assert_eq!(obs.counter("executor.inline").get(), inline);
            let on_helpers = obs.counter("executor.helper_tasks").get();
            assert_eq!(on_helpers, stats.helper_tasks);
            // Each helper thread owns one strong reference until it exits.
            let pool = Arc::downgrade(&e.pool);
            assert_eq!(pool.strong_count(), workers);
            drop(e);
            assert_eq!(pool.strong_count(), 0, "drop joined every helper");
        }
    }

    #[test]
    fn a_late_helper_on_an_exhausted_cursor_never_reads_the_closure() {
        // What a helper holds when it wakes after `execute` returned: a
        // cursor with nothing left to claim and a `run` that dangles.
        let job = Job::new(0, std::ptr::null());
        assert_eq!((job.drain(None), job.finished.load(Relaxed)), (0, 0));
    }

    #[test]
    fn the_caller_finishes_the_rest_then_waits_for_the_claimed_task() {
        let (e, obs) = (exec(2), Registry::new());
        let caller = thread::current().id();
        // Tasks 0 and 1 meet at a barrier, so they run on two threads; the
        // helper's then blocks until the other five tasks are done.
        let both_claimed = Barrier::new(2);
        let (done, released) = (AtomicUsize::new(0), AtomicBool::new(false));
        let tasks: Vec<usize> = (0..6).collect();
        let (got, d) = e.execute(&obs, &tasks, |&t| {
            if t < 2 {
                both_claimed.wait();
                let on_helper = thread::current().id() != caller;
                while on_helper && done.load(Ordering::Acquire) < 5 {
                    thread::yield_now();
                }
                released.fetch_or(on_helper, Relaxed);
            }
            done.fetch_add(1, Ordering::Release);
            t
        });
        assert!(released.load(Relaxed), "returned before the helper's task");
        assert_eq!((got, d.helpers_woken, d.helper_tasks), (tasks, 1, 1));
    }

    #[test]
    fn a_task_panic_reaches_the_caller_and_the_pool_survives_it() {
        let (e, obs) = (exec(4), Registry::new());
        let (made, token) = (AtomicUsize::new(0), Arc::new(()));
        let tasks: Vec<usize> = (0..16).collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            e.execute(&obs, &tasks, |&t| {
                assert!(t != 5, "task five fails");
                made.fetch_add(1, Relaxed);
                Arc::clone(&token)
            })
        }));
        let message = outcome.expect_err("the panic must propagate");
        assert_eq!(*message.downcast::<&str>().unwrap(), "task five fails");
        // The other tasks still ran, and no result they made is left alive.
        assert_eq!((made.load(Relaxed), Arc::strong_count(&token)), (15, 1));
        assert_eq!(e.execute(&obs, &tasks, |&t| t * 3).0[15], 45);
    }

    #[test]
    fn concurrent_callers_share_one_executor() {
        let (e, obs) = (exec(3), Registry::new());
        let hammer = |base: usize| {
            let tasks: Vec<usize> = (base..base + 9).collect();
            let want: Vec<usize> = tasks.iter().map(|t| t * 7).collect();
            (0..500).for_each(|_| assert_eq!(e.execute(&obs, &tasks, |&t| t * 7).0, want));
        };
        thread::scope(|s| {
            s.spawn(|| hammer(1));
            s.spawn(|| hammer(1000));
        });
        assert_eq!(e.stats().tasks, 2 * 500 * 9);
    }

    #[test]
    fn worker_count_caps_to_tasks_and_floor_one() {
        let mut auto = exec(0);
        assert!(auto.workers >= 1, "`0` resolves at `new`, not per query");
        assert_eq!(auto.worker_count(1), 1);
        assert!(auto.worker_count(64) >= 1);
        auto.set_config(ExecutorConfig { workers: 6 });
        assert_eq!((auto.worker_count(3), auto.worker_count(100)), (3, 6));
        auto.set_config(ExecutorConfig { workers: 0 });
        assert_eq!(auto.workers, exec(0).workers, "`set_config` re-resolves");
    }

    #[test]
    fn metrics_land_in_the_registry_passed_per_call() {
        // Every fan-out records into the registry it was handed.
        let (e, a, b) = (exec(2), Registry::new(), Registry::new());
        let tasks: Vec<usize> = vec![0, 1, 2, 3];
        e.execute(&a, &tasks, |&t| t);
        assert_eq!(a.counter("executor.tasks").get(), 4);
        assert_eq!(b.counter("executor.tasks").get(), 0);
        e.execute(&b, &tasks, |&t| t);
        assert_eq!(a.counter("executor.tasks").get(), 4);
        assert_eq!(b.counter("executor.tasks").get(), 4);
        let on_helpers = |r: &Registry| r.counter("executor.helper_tasks").get();
        assert_eq!(on_helpers(&a) + on_helpers(&b), e.stats().helper_tasks);
    }
}
