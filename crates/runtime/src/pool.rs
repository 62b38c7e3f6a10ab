//! The thread pool and deterministic row partitioning.
//!
//! ## Execution model
//!
//! A parallel region ([`Pool::run`]) publishes one job — a `Fn(usize)`
//! over chunk indices `0..n_chunks` — to all workers. Chunks live in a
//! single shared counter ("work-stealing-lite": there is one queue, and
//! idle workers steal from it by bumping the counter), so a worker that
//! finishes early keeps claiming chunks while slower ones are busy. The
//! calling thread claims chunks too, then blocks until every chunk has
//! *completed* (not merely been claimed). That completion barrier is what
//! makes the borrowed-closure lifetime erasure sound: the job pointer
//! never outlives `run`.
//!
//! ## Determinism
//!
//! Scheduling order is nondeterministic, but [`chunk_bounds`] assigns
//! each chunk a fixed contiguous range, and kernels built on
//! [`parallel_rows`] compute each output row entirely within one chunk
//! using the serial code's inner loops. Floating-point reduction order
//! per output element is therefore independent of thread count and
//! scheduling — results are bitwise identical to the serial path.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Type-erased pointer to the current job's task closure.
///
/// Lifetime is erased from the caller's borrow; soundness is argued in
/// the module docs (the completion barrier in [`Pool::run`]).
#[derive(Clone, Copy)]
struct RawTask(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: the pointee is `Sync` (shared calls from many threads are
// fine) and the pointer is only dereferenced while the originating
// `run` call is blocked, keeping the borrow alive.
unsafe impl Send for RawTask {}

struct JobState {
    /// Monotonic job id; workers use it to detect fresh work.
    seq: u64,
    /// Total chunks of the current job.
    n_chunks: usize,
    /// Next chunk index to claim.
    next: usize,
    /// Chunks fully executed.
    completed: usize,
    /// The active task, if a job is in flight.
    task: Option<RawTask>,
    /// Set once by [`Pool`]'s `Drop`; workers exit when they see it.
    /// It lives under the same lock workers hold between checking it and
    /// waiting on `work_cv`, so the wake-up that follows the store
    /// cannot fall between the two.
    shutdown: bool,
}

struct Shared {
    /// Serialises job submission: [`Pool::run`] holds this for its whole
    /// duration, so two threads sharing one pool cannot overwrite each
    /// other's [`JobState`] (which would lose chunks or hang the first
    /// caller). Workers never take this lock.
    job: Mutex<()>,
    state: Mutex<JobState>,
    /// Workers wait here for a new job.
    work_cv: Condvar,
    /// The caller waits here for job completion.
    done_cv: Condvar,
}

/// A persistent pool of `threads - 1` workers; the thread calling
/// [`Pool::run`] acts as the final worker.
///
/// A pool with `threads <= 1` spawns nothing and runs everything inline
/// on the caller — the guaranteed serial degradation path for
/// `MG_NUM_THREADS=1`.
pub struct Pool {
    threads: usize,
    shared: Option<Arc<Shared>>,
    handles: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Create a pool with the given parallelism degree (total threads,
    /// including the caller of [`Pool::run`]).
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        if threads == 1 {
            return Pool {
                threads,
                shared: None,
                handles: Vec::new(),
            };
        }
        let shared = Arc::new(Shared {
            job: Mutex::new(()),
            state: Mutex::new(JobState {
                seq: 0,
                n_chunks: 0,
                next: 0,
                completed: 0,
                task: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (0..threads - 1)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mg-runtime-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("mg-runtime: failed to spawn worker thread")
            })
            .collect();
        Pool {
            threads,
            shared: Some(shared),
            handles,
        }
    }

    /// The pool's parallelism degree.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True if [`Pool::run`] may execute tasks on more than one thread.
    #[inline]
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }

    /// Execute `task(chunk)` for every `chunk in 0..n_chunks`, using all
    /// pool threads plus the calling thread. Returns after **all**
    /// chunks have completed.
    ///
    /// Chunks must be independent: the task may not call back into the
    /// same pool (parallel regions do not nest; kernels built on this
    /// never invoke other kernels inside a task).
    ///
    /// `run` may be called from several threads concurrently — jobs are
    /// serialised internally, so later callers block until earlier jobs
    /// complete rather than corrupting them.
    pub fn run(&self, n_chunks: usize, task: &(dyn Fn(usize) + Sync)) {
        let Some(shared) = &self.shared else {
            for chunk in 0..n_chunks {
                task(chunk);
            }
            return;
        };
        if n_chunks <= 1 {
            if n_chunks == 1 {
                task(0);
            }
            return;
        }

        // One job at a time: held until the completion barrier passes. A
        // poisoned guard only means a previous job's task panicked on its
        // calling thread; the () payload carries no state, so recover.
        let _job = match shared.job.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };

        // SAFETY: erase the borrow lifetime; `run` does not return until
        // `completed == n_chunks`, so no worker touches the pointer after
        // the borrow ends.
        let raw: RawTask = unsafe {
            RawTask(std::mem::transmute::<
                *const (dyn Fn(usize) + Sync),
                *const (dyn Fn(usize) + Sync + 'static),
            >(task as *const (dyn Fn(usize) + Sync)))
        };

        let mut st = shared.state.lock().expect("mg-runtime: poisoned pool lock");
        st.seq += 1;
        st.n_chunks = n_chunks;
        st.next = 0;
        st.completed = 0;
        st.task = Some(raw);
        shared.work_cv.notify_all();

        // The caller participates in chunk claiming.
        loop {
            if st.next >= st.n_chunks {
                break;
            }
            let chunk = st.next;
            st.next += 1;
            drop(st);
            task(chunk);
            st = shared.state.lock().expect("mg-runtime: poisoned pool lock");
            st.completed += 1;
        }
        // Completion barrier: wait until in-flight chunks on workers end.
        while st.completed < st.n_chunks {
            st = shared
                .done_cv
                .wait(st)
                .expect("mg-runtime: poisoned pool lock");
        }
        st.task = None;
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.shutdown = true;
            shared.work_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen_seq = 0u64;
    let mut st = shared.state.lock().expect("mg-runtime: poisoned pool lock");
    loop {
        // Wait for a job newer than the last one we served.
        while !(st.task.is_some() && st.seq != seen_seq) {
            if st.shutdown {
                return;
            }
            st = shared
                .work_cv
                .wait(st)
                .expect("mg-runtime: poisoned pool lock");
        }
        let seq = st.seq;
        seen_seq = seq;
        // Claim chunks until the job is exhausted or replaced.
        loop {
            if st.seq != seq || st.task.is_none() || st.next >= st.n_chunks {
                break;
            }
            let chunk = st.next;
            st.next += 1;
            let task = st.task.expect("task present while claiming");
            drop(st);
            // SAFETY: see RawTask — the publishing `run` call is blocked
            // until `completed == n_chunks`, keeping the closure alive.
            unsafe { (*task.0)(chunk) };
            st = shared.state.lock().expect("mg-runtime: poisoned pool lock");
            if st.seq == seq {
                st.completed += 1;
                if st.completed == st.n_chunks {
                    shared.done_cv.notify_all();
                }
            }
        }
    }
}

/// Deterministic bounds of chunk `i` when `rows` rows are split into
/// `chunks` contiguous ranges: sizes differ by at most one, earlier
/// chunks take the remainder. Pure function of `(rows, chunks, i)`.
#[inline]
pub fn chunk_bounds(rows: usize, chunks: usize, i: usize) -> Range<usize> {
    debug_assert!(i < chunks);
    let base = rows / chunks;
    let rem = rows % chunks;
    let start = i * base + i.min(rem);
    let end = start + base + usize::from(i < rem);
    start..end
}

/// Split `rows` into contiguous ranges and run `body` on each, in
/// parallel over `pool`. `min_rows` bounds how small a chunk may get so
/// tiny matrices don't pay scheduling overhead.
///
/// Each row index is passed to exactly one invocation of `body`, and the
/// union of all ranges is `0..rows` — callers may write disjoint row
/// ranges of a shared output buffer (see [`SendPtr`]).
pub fn parallel_rows_in(
    pool: &Pool,
    rows: usize,
    min_rows: usize,
    body: &(dyn Fn(Range<usize>) + Sync),
) {
    if rows == 0 {
        return;
    }
    // Oversubscribe 4x threads so fast threads steal remaining chunks
    // from slow ones, capped so chunks never go below min_rows.
    let max_chunks = (rows / min_rows.max(1)).max(1);
    let chunks = (pool.threads() * 4).min(max_chunks);
    if !pool.is_parallel() || chunks <= 1 {
        body(0..rows);
        return;
    }
    pool.run(chunks, &|i| body(chunk_bounds(rows, chunks, i)));
}

/// [`parallel_rows_in`] on the ambient pool ([`current_threads`]
/// resolution order: `with_pool` override, then the global pool).
///
/// The override stack's `RefCell` borrow is resolved *before* the kernel
/// body runs: `body` executes on the calling thread too, and may itself
/// call [`with_pool`] (which needs a mutable borrow) — holding the borrow
/// across the parallel region would panic on that re-entry.
pub fn parallel_rows(rows: usize, min_rows: usize, body: &(dyn Fn(Range<usize>) + Sync)) {
    let over: Option<Arc<Pool>> = OVERRIDE.with(|ov| ov.borrow().last().cloned());
    match over {
        Some(pool) => parallel_rows_in(&pool, rows, min_rows, body),
        None => parallel_rows_in(global(), rows, min_rows, body),
    }
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// The process-wide pool. Sized by `MG_NUM_THREADS` if set, else
/// [`std::thread::available_parallelism`]; created on first use.
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| {
        let available = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let threads =
            crate::parse_threads(std::env::var("MG_NUM_THREADS").ok().as_deref(), available);
        Pool::new(threads)
    })
}

thread_local! {
    static OVERRIDE: RefCell<Vec<Arc<Pool>>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with `pool` as the ambient pool on this thread (nestable;
/// restored on exit). Lets tests and benchmarks sweep thread counts
/// without touching the environment.
pub fn with_pool<R>(pool: Arc<Pool>, f: impl FnOnce() -> R) -> R {
    OVERRIDE.with(|ov| ov.borrow_mut().push(pool));
    // Pop even on unwind so a panicking test doesn't poison the thread.
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            OVERRIDE.with(|ov| {
                ov.borrow_mut().pop();
            });
        }
    }
    let _guard = Guard;
    f()
}

/// Parallelism degree of the ambient pool.
pub fn current_threads() -> usize {
    OVERRIDE.with(|ov| match ov.borrow().last() {
        Some(p) => p.threads(),
        None => global().threads(),
    })
}

/// A raw mutable pointer that may cross threads. Used by kernels to let
/// parallel chunks write *disjoint* regions of one output buffer; the
/// caller is responsible for disjointness (which [`parallel_rows_in`]
/// guarantees for row-partitioned writes).
#[derive(Clone, Copy)]
pub struct SendPtr<T>(*mut T);

// SAFETY: the pointer itself is plain data; dereferencing it is what
// requires care, and every dereference site is `unsafe` with a
// disjointness argument.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Wrap a raw pointer.
    pub fn new(ptr: *mut T) -> Self {
        SendPtr(ptr)
    }

    /// The wrapped pointer.
    ///
    /// # Safety
    /// The caller must ensure all concurrent accesses through copies of
    /// this pointer target disjoint memory.
    #[inline]
    pub unsafe fn get(self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn chunk_bounds_partition_exactly() {
        for rows in [0usize, 1, 2, 7, 64, 1000] {
            for chunks in 1..=9usize {
                if rows == 0 {
                    continue;
                }
                let mut covered = vec![false; rows];
                let mut prev_end = 0;
                for i in 0..chunks {
                    let r = chunk_bounds(rows, chunks, i);
                    assert_eq!(r.start, prev_end, "contiguous at chunk {i}");
                    prev_end = r.end;
                    for j in r {
                        assert!(!covered[j], "row {j} covered twice");
                        covered[j] = true;
                    }
                }
                assert_eq!(prev_end, rows);
                assert!(covered.iter().all(|&c| c));
            }
        }
    }

    #[test]
    fn serial_pool_runs_inline() {
        let pool = Pool::new(1);
        assert!(!pool.is_parallel());
        let hits = AtomicUsize::new(0);
        pool.run(5, &|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn parallel_pool_executes_every_chunk_once() {
        let pool = Pool::new(4);
        let flags: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        pool.run(64, &|i| {
            flags[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(flags.iter().all(|f| f.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn pool_is_reusable_across_jobs() {
        let pool = Pool::new(3);
        for round in 1..=10usize {
            let sum = AtomicUsize::new(0);
            pool.run(round * 3, &|i| {
                sum.fetch_add(i + 1, Ordering::SeqCst);
            });
            let n = round * 3;
            assert_eq!(sum.load(Ordering::SeqCst), n * (n + 1) / 2);
        }
    }

    #[test]
    fn parallel_rows_covers_all_rows_disjointly() {
        let pool = Pool::new(4);
        let mut out = vec![0u8; 997];
        let ptr = SendPtr::new(out.as_mut_ptr());
        parallel_rows_in(&pool, 997, 8, &|range| {
            for i in range {
                // SAFETY: ranges from parallel_rows_in are disjoint.
                unsafe { *ptr.get().add(i) += 1 };
            }
        });
        assert!(out.iter().all(|&v| v == 1));
    }

    #[test]
    fn with_pool_overrides_and_restores() {
        let outer = current_threads();
        with_pool(Arc::new(Pool::new(7)), || {
            assert_eq!(current_threads(), 7);
            with_pool(Arc::new(Pool::new(2)), || {
                assert_eq!(current_threads(), 2);
            });
            assert_eq!(current_threads(), 7);
        });
        assert_eq!(current_threads(), outer);
    }

    #[test]
    fn borrowed_state_is_visible_to_tasks() {
        // The lifetime-erasure path: tasks read a stack-local slice and
        // write a stack-local output through SendPtr.
        let pool = Pool::new(4);
        let input: Vec<usize> = (0..1000).collect();
        let mut output = vec![0usize; 1000];
        let out = SendPtr::new(output.as_mut_ptr());
        parallel_rows_in(&pool, input.len(), 1, &|range| {
            for i in range {
                // SAFETY: row ranges are disjoint.
                unsafe { *out.get().add(i) = input[i] * 2 };
            }
        });
        assert!(output.iter().enumerate().all(|(i, &v)| v == 2 * i));
    }

    #[test]
    fn with_pool_inside_a_task_body_does_not_panic() {
        // Regression: parallel_rows used to hold the override stack's
        // RefCell borrow across the kernel body, so any with_pool call
        // from a task on the calling thread double-borrowed and panicked.
        let pool = Arc::new(Pool::new(2));
        with_pool(pool, || {
            parallel_rows(8, 1, &|_range| {
                with_pool(Arc::new(Pool::new(1)), || {
                    assert_eq!(current_threads(), 1);
                });
            });
        });
    }

    #[test]
    fn concurrent_run_callers_are_serialised() {
        // Two threads hammering one pool: without job serialisation the
        // second caller's JobState reset loses the first job's chunks.
        let pool = Arc::new(Pool::new(3));
        std::thread::scope(|s| {
            for seed in 0..2usize {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for round in 0..200usize {
                        let n = 2 + (round + seed * 7) % 13;
                        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                        pool.run(n, &|c| {
                            hits[c].fetch_add(1, Ordering::SeqCst);
                        });
                        for (c, h) in hits.iter().enumerate() {
                            assert_eq!(
                                h.load(Ordering::SeqCst),
                                1,
                                "chunk {c} of round {round} (caller {seed})"
                            );
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn dropping_fresh_pools_never_hangs() {
        // Regression: `Drop` used to publish shutdown and notify without
        // the state lock, so a worker between its shutdown check and its
        // wait missed the wake-up and `join` hung. Freshly spawned
        // workers are the likeliest to sit in that window. The window is
        // narrow: with the old `Drop` one run of this loop hangs about
        // once in forty.
        for i in 0..500 {
            let pool = Pool::new(2 + i % 3);
            if i % 4 == 3 {
                pool.run(4, &|_| {});
            }
            drop(pool);
        }
    }

    #[test]
    fn dropping_a_pool_joins_workers() {
        for _ in 0..20 {
            let pool = Pool::new(3);
            pool.run(8, &|_| {});
            drop(pool); // must not hang or leak
        }
    }
}
