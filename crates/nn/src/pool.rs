//! A persistent worker pool for job-level fan-out.
//!
//! The pool runs jobs, not kernels: the folds of a cross-validation run
//! (`mga_core::cv::run_folds`) and the replicas of a data-parallel
//! training epoch. Every numeric kernel (matmul, gather/scatter) runs on
//! its calling thread. A single process-wide set of workers stays alive
//! and takes chunked fork-join jobs over borrowed data, so no job pays
//! thread creation.
//!
//! Sizing: `std::thread::available_parallelism`, overridable with the
//! `MGA_THREADS` environment variable (read once, at first use).
//! `MGA_THREADS=1` disables the workers entirely — every job then runs
//! its chunks in order on the calling thread.
//!
//! Determinism: chunk *scheduling* is racy, but every job hands each
//! chunk its own output (a fold's result slot, a replica and its
//! gradient shard), and no chunk's arithmetic depends on which thread
//! runs it, so results are bitwise identical regardless of thread count.
//! `tests/parallel_parity.rs` and `crates/core/tests/dp_parity.rs` hold
//! this invariant down.
//!
//! Nesting: jobs may submit jobs (a fold's training epochs fan out their
//! replicas). The calling thread always participates in draining its own
//! job's chunks, so a fully busy pool degrades to sequential execution
//! instead of deadlocking.
//!
//! Observability: pooled dispatches open an `mga_obs` span
//! (`pool.dispatch`); every call feeds the `pool.jobs`, `pool.chunks` and
//! `pool.task_panics` counters and the `pool.job_chunks` histogram in the
//! metrics registry, and workers feed `pool.queue_wait_us`.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// One fork-join job: `count` chunks drained via an atomic cursor.
struct Job {
    /// Borrow of the caller's closure; valid until `remaining` hits zero,
    /// which `parallel_for` blocks on before returning.
    task: TaskPtr,
    next: AtomicUsize,
    count: usize,
    remaining: AtomicUsize,
    poisoned: AtomicBool,
    /// Chunks whose task body panicked.
    panics: AtomicU64,
    /// First panic observed: (chunk index, rendered payload). Later
    /// panics keep their count in `panics` but only the first is
    /// reported, matching how a sequential loop would have died.
    panic_info: Mutex<Option<(usize, String)>>,
    done: Mutex<bool>,
    cv: Condvar,
    /// Submission time, for the queue-wait histogram.
    created: Instant,
}

/// Render a panic payload for the report; panics almost always carry a
/// `&str` or `String` message.
fn payload_to_string(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is a `Sync` closure, so it may be called from any
// thread, and `parallel_for` keeps it alive until the last chunk has run.
unsafe impl Send for TaskPtr {}
// SAFETY: shared access only ever calls the `Sync` closure (see `Send`).
unsafe impl Sync for TaskPtr {}

impl Job {
    /// Drain chunks until the cursor runs out. Called by workers and by
    /// the submitting thread alike.
    fn run_chunks(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.count {
                return;
            }
            // Fast-cancel: once any chunk has panicked the job's output
            // is unusable, so the rest of the cursor drains without
            // running task bodies (each still decrements `remaining` so
            // the submitter's wait completes).
            if !self.poisoned.load(Ordering::Relaxed) {
                // SAFETY: chunk `i` has not decremented `remaining` yet,
                // and `parallel_for` blocks until `remaining` reaches
                // zero, so the closure behind `task` is still alive.
                let task = unsafe { &*self.task.0 };
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
                    if mga_obs::fault::armed() {
                        if let Some(shot) = mga_obs::fault::fire(mga_obs::fault::Site::Pool) {
                            panic!("injected pool fault ({:?})", shot.kind);
                        }
                    }
                    task(i)
                })) {
                    self.poisoned.store(true, Ordering::Relaxed);
                    self.panics.fetch_add(1, Ordering::Relaxed);
                    let mut first = self.panic_info.lock().unwrap();
                    if first.is_none() {
                        *first = Some((i, payload_to_string(payload)));
                    }
                }
            }
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                *self.done.lock().unwrap() = true;
                self.cv.notify_all();
            }
        }
    }
}

struct Pool {
    senders: Vec<Sender<Arc<Job>>>,
    /// Total usable compute threads (workers + the calling thread).
    threads: usize,
    /// Registry handles, resolved once so the hot path pays one atomic
    /// add per update.
    m_jobs: &'static mga_obs::metrics::Counter,
    m_chunks: &'static mga_obs::metrics::Counter,
    m_task_panics: &'static mga_obs::metrics::Counter,
    m_job_chunks: &'static mga_obs::metrics::Histogram,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn configured_threads() -> usize {
    if let Ok(v) = std::env::var("MGA_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
        mga_obs::warn!("MGA_THREADS={v:?} is not a positive integer; using the default");
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let threads = configured_threads();
        let workers = threads.saturating_sub(1);
        let queue_wait = mga_obs::metrics::histogram(
            "pool.queue_wait_us",
            &[1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0],
        );
        let mut senders = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = channel::<Arc<Job>>();
            std::thread::Builder::new()
                .name(format!("mga-pool-{w}"))
                .spawn(move || {
                    // Exits when the Sender side is dropped (process end).
                    for job in rx.iter() {
                        queue_wait.observe(job.created.elapsed().as_secs_f64() * 1e6);
                        job.run_chunks();
                    }
                })
                .expect("failed to spawn mga pool worker");
            senders.push(tx);
        }
        Pool {
            senders,
            threads: workers + 1,
            m_jobs: mga_obs::metrics::counter("pool.jobs"),
            m_chunks: mga_obs::metrics::counter("pool.chunks"),
            m_task_panics: mga_obs::metrics::counter("pool.task_panics"),
            m_job_chunks: mga_obs::metrics::histogram(
                "pool.job_chunks",
                &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
            ),
        }
    })
}

/// Number of compute threads jobs may fan out across (≥ 1, includes
/// the calling thread).
pub fn num_threads() -> usize {
    pool().threads
}

thread_local! {
    /// When set, `parallel_for` on this thread runs its chunks inline
    /// instead of dispatching — see [`inline_scope`].
    static FORCE_INLINE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// True when the current thread is inside an [`inline_scope`].
pub fn inline_forced() -> bool {
    FORCE_INLINE.with(|c| c.get())
}

/// Run `f` with every `parallel_for` on this thread forced onto the
/// inline (sequential) path.
///
/// A caller that wants a whole region on one thread, such as a benchmark
/// timing training epochs without the pool's scheduling, wraps it in
/// `inline_scope`. The flag is per-thread and restored on exit
/// (including panic unwinds), so sibling threads and code after the
/// scope still dispatch normally.
/// Inline chunks keep the exact same fault-injection site and panic
/// reporting as dispatched ones, and every job's chunks compute the same
/// bits wherever they run, so forcing inline never changes results —
/// only scheduling.
pub fn inline_scope<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCE_INLINE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(FORCE_INLINE.with(|c| c.replace(true)));
    f()
}

/// Run `task(0) … task(count-1)` across the pool, blocking until all
/// chunks complete. The calling thread participates, so this is safe to
/// call from inside another `parallel_for` task.
///
/// `task` must be safe to call concurrently for distinct indices
/// (chunks must write disjoint data).
pub fn parallel_for(count: usize, task: impl Fn(usize) + Sync) {
    if count == 0 {
        return;
    }
    let p = pool();
    p.m_jobs.inc();
    p.m_chunks.add(count as u64);
    p.m_job_chunks.observe(count as f64);
    if p.senders.is_empty() || count == 1 || inline_forced() {
        for i in 0..count {
            // Same fault-injection site and panic reporting as the
            // dispatched path, so single-threaded runs exercise the
            // identical failure surface.
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
                if mga_obs::fault::armed() {
                    if let Some(shot) = mga_obs::fault::fire(mga_obs::fault::Site::Pool) {
                        panic!("injected pool fault ({:?})", shot.kind);
                    }
                }
                task(i)
            })) {
                p.m_task_panics.inc();
                let msg = payload_to_string(payload);
                mga_obs::error!("parallel_for: inline chunk {i} of {count} panicked: {msg}");
                panic!(
                    "parallel_for: task for chunk {i}/{count} panicked (1 chunk(s) total): {msg}"
                );
            }
        }
        return;
    }
    mga_obs::span!("pool.dispatch");
    let task_ref: &(dyn Fn(usize) + Sync) = &task;
    // SAFETY: erasing the borrow's lifetime lets workers hold the
    // closure. It outlives every call through it: this function blocks
    // below until `remaining` reaches zero, each chunk decrements it only
    // after its call returns, and a worker that arrives later finds the
    // cursor exhausted and never calls it.
    let task_static: &'static (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task_ref)
    };
    let job = Arc::new(Job {
        task: TaskPtr(task_static as *const (dyn Fn(usize) + Sync)),
        next: AtomicUsize::new(0),
        count,
        remaining: AtomicUsize::new(count),
        poisoned: AtomicBool::new(false),
        panics: AtomicU64::new(0),
        panic_info: Mutex::new(None),
        done: Mutex::new(false),
        cv: Condvar::new(),
        created: Instant::now(),
    });
    // The caller takes one chunk itself, so at most `count - 1` workers
    // can ever claim work — waking the rest just costs a futile wakeup
    // and an extra Arc round-trip on small jobs.
    for tx in p.senders.iter().take(count.saturating_sub(1)) {
        // A send can only fail if a worker died mid-process; losing its
        // help is acceptable, losing the job is not — the caller drains.
        let _ = tx.send(job.clone());
    }
    job.run_chunks();
    let mut done = job.done.lock().unwrap();
    while !*done {
        done = job.cv.wait(done).unwrap();
    }
    drop(done);
    if job.poisoned.load(Ordering::Relaxed) {
        let n = job.panics.load(Ordering::Relaxed);
        p.m_task_panics.add(n);
        let first = job.panic_info.lock().unwrap().take();
        let (chunk, msg) =
            first.unwrap_or_else(|| (usize::MAX, "<panic payload lost>".to_string()));
        mga_obs::error!(
            "parallel_for: {n} of {} chunks panicked; first at chunk {chunk}: {msg}",
            job.count
        );
        panic!(
            "parallel_for: task for chunk {chunk}/{} panicked ({n} chunk(s) total): {msg}",
            job.count
        );
    }
}

/// Run `task(i, &mut items[i])` for every element across the pool,
/// blocking until all complete: a [`parallel_for`] whose chunk `i` owns
/// element `i`. Panics are reported as `parallel_for` reports them.
pub fn parallel_for_mut<T: Send>(items: &mut [T], task: impl Fn(usize, &mut T) + Sync) {
    let len = items.len();
    // `AtomicPtr` only carries the base pointer to the chunks (it is
    // `Sync` where `*mut T` is not); nothing stores to it.
    let base = AtomicPtr::new(items.as_mut_ptr());
    parallel_for(len, |i| {
        // SAFETY: `i < len`, so the element is in bounds, and
        // `parallel_for` runs each index at most once, so no other chunk
        // holds a reference to it. `items` stays mutably borrowed until
        // every chunk has returned, and `T: Send` lets the `&mut T` reach
        // a worker thread.
        let item = unsafe { &mut *base.load(Ordering::Relaxed).add(i) };
        task(i, item);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_index_exactly_once() {
        let n = 1000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn nested_jobs_complete() {
        let total = AtomicUsize::new(0);
        parallel_for(8, |_| {
            parallel_for(16, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * 16);
    }

    #[test]
    fn zero_and_one_chunks_run_inline() {
        parallel_for(0, |_| panic!("must not run"));
        let ran = AtomicUsize::new(0);
        parallel_for(1, |i| {
            assert_eq!(i, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn panicking_task_propagates_without_deadlock() {
        let panics = mga_obs::metrics::counter("pool.task_panics");
        let before = panics.get();
        let result = std::panic::catch_unwind(|| {
            parallel_for(64, |i| {
                if i == 13 {
                    panic!("boom");
                }
            });
        });
        let err = result.expect_err("panic in a chunk must surface");
        // Pooled and inline runs both name the failing chunk and carry
        // the payload.
        let msg = payload_to_string(err);
        assert!(
            msg.contains("chunk 13/64") && msg.contains("boom"),
            "panic report must name the chunk and payload: {msg}"
        );
        assert!(panics.get() > before, "pool.task_panics must count");
        // The pool must still be usable afterwards.
        let n = AtomicUsize::new(0);
        parallel_for(32, |_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn parallel_for_mut_hands_each_index_its_own_element() {
        let mut items: Vec<(usize, u32)> = vec![(usize::MAX, 0); 37];
        parallel_for_mut(&mut items, |i, item| {
            item.0 = i;
            item.1 += 1;
        });
        for (i, &item) in items.iter().enumerate() {
            assert_eq!(item, (i, 1), "element {i} not visited once by chunk {i}");
        }

        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            parallel_for_mut(&mut items, |i, _| {
                if i == 5 {
                    panic!("bad element");
                }
            });
        }));
        let msg = payload_to_string(result.expect_err("panic in a chunk must surface"));
        assert!(
            msg.contains("chunk 5/37") && msg.contains("bad element"),
            "panic report must name the chunk and payload: {msg}"
        );

        // The pool must still be usable afterwards.
        parallel_for_mut(&mut items, |_, item| item.1 += 1);
        assert!(items.iter().all(|&(_, visits)| visits == 2));
    }

    /// The nested-parallelism bound: an outer job whose chunks enter
    /// `inline_scope` must complete all inner work sequentially on the
    /// owning thread, while threads outside the scope are unaffected.
    #[test]
    fn inline_scope_bounds_nested_parallelism() {
        let total = AtomicUsize::new(0);
        parallel_for(8, |_| {
            let outer = std::thread::current().id();
            let on_outer_thread = || std::thread::current().id() == outer;
            inline_scope(|| {
                assert!(inline_forced());
                parallel_for(16, |_| {
                    assert!(on_outer_thread(), "inner chunk left its thread");
                    total.fetch_add(1, Ordering::Relaxed);
                });
                // Deeper nesting stays inline too.
                parallel_for(4, |_| {
                    assert!(inline_forced() && on_outer_thread());
                });
            });
            assert!(!inline_forced(), "flag restored after the scope");
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * 16);
    }

    #[test]
    fn inline_scope_restores_flag_on_panic() {
        let result = std::panic::catch_unwind(|| {
            inline_scope(|| panic!("boom"));
        });
        assert!(result.is_err());
        assert!(!inline_forced(), "unwind must restore the flag");
        assert_eq!(inline_scope(|| 7), 7);
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn stats_are_consistent_with_submitted_work() {
        let jobs = mga_obs::metrics::counter("pool.jobs");
        let chunks = mga_obs::metrics::counter("pool.chunks");
        let (jobs0, chunks0) = (jobs.get(), chunks.get());
        let n = 64u64;
        parallel_for(n as usize, |_| {
            std::hint::black_box(0u64);
        });
        // The counters are process-global and other tests run
        // concurrently, so only lower bounds are assertable.
        assert!(jobs.get() - jobs0 >= 1);
        assert!(chunks.get() - chunks0 >= n);
    }
}
