//! A work-stealing thread pool with rayon-shaped entry points.
//!
//! Architecture (one of the course's TBB talking points, rebuilt):
//! a global injector queue feeds per-worker local deques; idle workers
//! steal from the injector first, then from siblings, then park on a
//! condition variable. `join` uses a *claimable* second closure so the
//! caller can run it inline when no worker got to it first — the
//! fork/join construction that makes nested parallelism deadlock-free.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Duration;

use crossbeam::deque::{Injector, Steal, Stealer, Worker as LocalQueue};
use parking_lot::{Condvar, Mutex};

use crate::sync::ManualResetEvent;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Inner {
    injector: Injector<Job>,
    stealers: Vec<Stealer<Job>>,
    sleep_lock: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    threads: usize,
}

impl Inner {
    fn push(&self, job: Job) {
        self.injector.push(job);
        let _g = self.sleep_lock.lock();
        self.wake.notify_one();
    }

    /// Steal one job from anywhere (injector first, then siblings).
    fn find_job(&self, local: Option<&LocalQueue<Job>>) -> Option<Job> {
        if let Some(local) = local {
            if let Some(job) = local.pop() {
                return Some(job);
            }
        }
        loop {
            match local
                .map(|l| self.injector.steal_batch_and_pop(l))
                .unwrap_or_else(|| self.injector.steal())
            {
                Steal::Success(job) => return Some(job),
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
        for stealer in &self.stealers {
            loop {
                match stealer.steal() {
                    Steal::Success(job) => return Some(job),
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
        None
    }
}

/// A fixed-size work-stealing thread pool.
///
/// Dropping the pool signals shutdown; queued jobs may be abandoned, so
/// always [`TaskHandle::join`] work you need the result of.
pub struct ThreadPool {
    inner: Arc<Inner>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Create a pool with `threads` workers (panics on zero).
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "thread pool needs at least one thread");
        let locals: Vec<LocalQueue<Job>> = (0..threads).map(|_| LocalQueue::new_fifo()).collect();
        let stealers = locals.iter().map(|l| l.stealer()).collect();
        let inner = Arc::new(Inner {
            injector: Injector::new(),
            stealers,
            sleep_lock: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            threads,
        });
        let handles = locals
            .into_iter()
            .enumerate()
            .map(|(i, local)| {
                let inner = inner.clone();
                thread::Builder::new()
                    .name(format!("soc-worker-{i}"))
                    .spawn(move || worker_loop(inner, local))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool { inner, handles }
    }

    /// A pool sized to the host's available parallelism.
    pub fn new_default() -> Self {
        let n = thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        ThreadPool::new(n)
    }

    /// A lazily created process-wide pool for callers that do not manage
    /// their own.
    pub fn global() -> &'static ThreadPool {
        static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
        GLOBAL.get_or_init(ThreadPool::new_default)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Submit a job, returning a handle to its result. Panics inside the
    /// job are captured and re-raised by [`TaskHandle::join`].
    pub fn spawn<T, F>(&self, f: F) -> TaskHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let state =
            Arc::new(TaskState { result: Mutex::new(None), done: ManualResetEvent::new(false) });
        let s2 = state.clone();
        self.inner.push(Box::new(move || {
            let out = catch_unwind(AssertUnwindSafe(f));
            *s2.result.lock() = Some(out);
            s2.done.set();
        }));
        TaskHandle { state }
    }

    /// Submit a fire-and-forget job (panics are swallowed after being
    /// printed by the worker's catch).
    pub fn spawn_detached<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.inner.push(Box::new(f));
    }

    /// Run two closures in parallel and return both results. `a` runs on
    /// the calling thread; `b` is offered to the pool but *reclaimed* and
    /// run inline when no worker picked it up — so `join` can never
    /// deadlock, even when every worker is busy or the pool is this
    /// thread's own.
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        struct ClaimState<B, RB> {
            // The pending closure; whoever takes it runs it.
            b: Mutex<Option<B>>,
            result: Mutex<Option<thread::Result<RB>>>,
            done: ManualResetEvent,
        }
        let state: Arc<ClaimState<B, RB>> = Arc::new(ClaimState {
            b: Mutex::new(Some(b)),
            result: Mutex::new(None),
            done: ManualResetEvent::new(false),
        });

        // SAFETY: `b` and its captures only need to live until this stack
        // frame returns. If a worker claims `b`, we block on `done` below
        // before returning. If *we* claim `b`, the slot the queued job
        // later observes is `None` — the job then only touches the
        // heap-allocated Arc state, never borrowed data.
        let job: Box<dyn FnOnce() + Send> = {
            let state = state.clone();
            Box::new(move || {
                let claimed = state.b.lock().take();
                if let Some(b) = claimed {
                    let out = catch_unwind(AssertUnwindSafe(b));
                    *state.result.lock() = Some(out);
                }
                state.done.set();
            })
        };
        let job: Job = unsafe { std::mem::transmute(job) };
        self.inner.push(job);

        let ra = a();

        let reclaimed = state.b.lock().take();
        let rb = if let Some(b) = reclaimed {
            // No worker got to `b` yet: run it inline. The queued job will
            // find the slot empty and just signal.
            b()
        } else {
            // A worker owns `b`; help the pool while waiting for it.
            self.help_until(&state.done);
            match state.result.lock().take() {
                Some(Ok(rb)) => rb,
                Some(Err(payload)) => resume_unwind(payload),
                None => unreachable!("done signalled without a result"),
            }
        };
        (ra, rb)
    }

    /// While waiting for `event`, execute other queued jobs so a blocked
    /// caller never starves the pool (lets nested `join`/`scope` make
    /// progress even on a single worker).
    fn help_until(&self, event: &ManualResetEvent) {
        loop {
            if event.is_set() {
                return;
            }
            if let Some(job) = self.inner.find_job(None) {
                job();
            } else if event.wait_timeout(Duration::from_millis(1)) {
                return;
            }
        }
    }

    /// Structured fork/join: spawn borrowed tasks inside `f`; all of them
    /// complete before `scope` returns. The first panicking task's
    /// payload is re-raised here after the others finish.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
    {
        let scope = Scope {
            pool: self,
            pending: AtomicUsize::new(1),
            done: Arc::new(ManualResetEvent::new(false)),
            panic: Mutex::new(None),
            _env: std::marker::PhantomData,
        };
        let out = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Drop the scope's own "task".
        scope.complete_one();
        self.help_until(&scope.done);
        if let Some(payload) = scope.panic.lock().take() {
            resume_unwind(payload);
        }
        match out {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        {
            let _g = self.inner.sleep_lock.lock();
            self.inner.wake.notify_all();
        }
        // The last owner of a pool can be one of its own detached jobs
        // (e.g. a structure holding the pool whose final Arc lives in a
        // job). Joining the current thread panics, so detach our own
        // handle — this worker exits by itself once the running job
        // returns and it observes `shutdown`.
        let me = thread::current().id();
        for h in self.handles.drain(..) {
            if h.thread().id() == me {
                drop(h);
            } else {
                let _ = h.join();
            }
        }
    }
}

fn worker_loop(inner: Arc<Inner>, local: LocalQueue<Job>) {
    loop {
        if let Some(job) = inner.find_job(Some(&local)) {
            // A panicking job must not kill the worker; handles capture
            // payloads themselves, detached jobs get reported here.
            if catch_unwind(AssertUnwindSafe(job)).is_err() {
                eprintln!("soc-parallel: detached job panicked");
            }
            continue;
        }
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        let mut g = inner.sleep_lock.lock();
        // Re-check under the lock to avoid sleeping through a push.
        if inner.shutdown.load(Ordering::Acquire) || !inner.injector.is_empty() {
            continue;
        }
        inner.wake.wait_for(&mut g, Duration::from_millis(10));
    }
}

struct TaskState<T> {
    result: Mutex<Option<thread::Result<T>>>,
    done: ManualResetEvent,
}

/// Handle to a spawned task's result.
pub struct TaskHandle<T> {
    state: Arc<TaskState<T>>,
}

impl<T> TaskHandle<T> {
    /// Block until the task finishes; re-raises the task's panic.
    pub fn join(self) -> T {
        self.state.done.wait();
        match self.state.result.lock().take() {
            Some(Ok(v)) => v,
            Some(Err(payload)) => resume_unwind(payload),
            None => unreachable!("task signalled done without a result"),
        }
    }

    /// Has the task finished (successfully or not)?
    pub fn is_done(&self) -> bool {
        self.state.done.is_set()
    }

    /// Wait with a timeout; `Ok` with the value, or `Err(self)` so the
    /// caller can retry.
    pub fn join_timeout(self, timeout: Duration) -> Result<T, TaskHandle<T>> {
        if self.state.done.wait_timeout(timeout) {
            Ok(self.join())
        } else {
            Err(self)
        }
    }
}

/// Scope for structured borrowed tasks; see [`ThreadPool::scope`].
pub struct Scope<'scope, 'env: 'scope> {
    pool: &'scope ThreadPool,
    pending: AtomicUsize,
    /// Shared with the task that finishes last: `scope()` may return and
    /// free the `Scope` as soon as the flag is set, while `set` is still
    /// draining the event's waiter list.
    done: Arc<ManualResetEvent>,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    _env: std::marker::PhantomData<&'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn a task that may borrow from `'env`. The scope guarantees it
    /// completes (or its panic is re-raised) before `scope()` returns.
    pub fn spawn<F>(&'scope self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.pending.fetch_add(1, Ordering::AcqRel);
        // SAFETY: `scope()` blocks until `pending` reaches zero, so the
        // borrows inside `f` (bounded by 'scope/'env) outlive the task.
        let this: &'scope Scope<'scope, 'env> = self;
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                let mut slot = this.panic.lock();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            this.complete_one();
        });
        let job: Job = unsafe { std::mem::transmute(job) };
        self.pool.inner.push(job);
    }

    fn complete_one(&self) {
        let done = self.done.clone();
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            done.set();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scope_outlives_its_last_task_signal() {
        // The last task signals `done` and may still be inside `set` when
        // the scope sees the flag and returns; the scope's frame is then
        // reused by the next call while that `set` finishes.
        let pool = ThreadPool::new(3);
        for round in 0..20_000u64 {
            let hits = AtomicU64::new(0);
            pool.scope(|s| {
                for _ in 0..3 {
                    s.spawn(|| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(hits.load(Ordering::Relaxed), 3, "round {round}");
        }
    }

    #[test]
    fn spawn_returns_result() {
        let pool = ThreadPool::new(2);
        let h = pool.spawn(|| 6 * 7);
        assert_eq!(h.join(), 42);
    }

    #[test]
    fn spawn_many_tasks() {
        let pool = ThreadPool::new(4);
        let handles: Vec<_> = (0..100).map(|i| pool.spawn(move || i * i)).collect();
        let sum: u64 = handles.into_iter().map(|h| h.join()).sum();
        assert_eq!(sum, (0..100u64).map(|i| i * i).sum());
    }

    #[test]
    fn join_runs_both_sides() {
        let pool = ThreadPool::new(2);
        let (a, b) = pool.join(|| "left".to_string(), || 99);
        assert_eq!(a, "left");
        assert_eq!(b, 99);
    }

    #[test]
    fn nested_join_does_not_deadlock_on_one_thread() {
        let pool = ThreadPool::new(1);
        fn fib(pool: &ThreadPool, n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = pool.join(|| fib(pool, n - 1), || fib(pool, n - 2));
            a + b
        }
        assert_eq!(fib(&pool, 12), 144);
    }

    #[test]
    fn join_propagates_right_panic() {
        let pool = ThreadPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.join(|| 1, || -> i32 { panic!("right side failed") })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn spawn_panic_propagates_on_join() {
        let pool = ThreadPool::new(2);
        let h = pool.spawn(|| -> u8 { panic!("task died") });
        assert!(catch_unwind(AssertUnwindSafe(|| h.join())).is_err());
        // Pool still works afterwards.
        assert_eq!(pool.spawn(|| 5).join(), 5);
    }

    #[test]
    fn scope_tasks_borrow_environment() {
        let pool = ThreadPool::new(3);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..10 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn scope_waits_for_nested_spawns() {
        let pool = ThreadPool::new(2);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            s.spawn(|| {
                counter.fetch_add(1, Ordering::Relaxed);
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn scope_propagates_task_panic() {
        let pool = ThreadPool::new(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("scoped task failed"));
            });
        }));
        assert!(r.is_err());
    }

    #[test]
    fn join_timeout_returns_handle() {
        let pool = ThreadPool::new(1);
        let gate = Arc::new(ManualResetEvent::new(false));
        let g2 = gate.clone();
        let h = pool.spawn(move || g2.wait());
        let h = h.join_timeout(Duration::from_millis(10)).unwrap_err();
        gate.set();
        h.join();
    }

    #[test]
    fn global_pool_is_usable() {
        assert_eq!(ThreadPool::global().spawn(|| 3).join(), 3);
    }

    #[test]
    fn drop_shuts_down_workers() {
        let pool = ThreadPool::new(2);
        pool.spawn(|| 1).join();
        drop(pool); // must not hang
    }

    #[test]
    fn pool_can_be_dropped_from_its_own_worker() {
        // A detached job holding the last reference to its own pool:
        // the drop then runs *on a worker*, which must detach itself
        // rather than self-join.
        let pool = Arc::new(ThreadPool::new(2));
        let done = Arc::new(ManualResetEvent::new(false));
        let p2 = pool.clone();
        let d2 = done.clone();
        pool.spawn_detached(move || {
            std::thread::sleep(Duration::from_millis(20));
            drop(p2);
            d2.set();
        });
        drop(pool);
        assert!(done.wait_timeout(Duration::from_secs(5)), "self-drop wedged the worker");
    }
}
