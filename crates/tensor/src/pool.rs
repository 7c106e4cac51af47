//! Persistent worker pool shared by all compute kernels.
//!
//! The previous design spawned OS threads per GEMM call via
//! `std::thread::scope`, paying thread creation cost (tens of microseconds)
//! on every op. This pool spawns its workers once, on first use, and
//! broadcasts jobs to them through a `Mutex`/`Condvar` pair; work inside a
//! job is claimed chunk-by-chunk from an atomic counter so uneven chunks
//! load-balance automatically.
//!
//! Sizing: `MBSSL_THREADS` (if set, ≥1) overrides
//! `std::thread::available_parallelism()`. A size of 1 disables the pool —
//! every `run` executes inline on the caller.
//!
//! Nesting: jobs executed by a pool thread (or by the caller while it
//! participates in a job) run nested `run` calls inline on the current
//! thread. Outer-level parallelism (e.g. parallel evaluation) therefore
//! subsumes kernel-level parallelism without deadlock or oversubscription.
//!
//! Determinism: the pool only distributes *which thread* computes a chunk;
//! every chunk's arithmetic is identical to the sequential code, and no
//! kernel in this crate reduces across chunks in claim order, so results are
//! bit-identical for any pool size.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use mbssl_telemetry as telemetry;

/// Occupancy counters (always on — one relaxed add per job, negligible
/// next to a broadcast): jobs that went through the broadcast path, jobs
/// that ran inline instead (pool of one, single chunk, nesting, contended
/// submission), and total chunks distributed by broadcast jobs. Published
/// to telemetry flushes as `pool.*` gauges via [`telemetry_collector`].
static JOBS_PARALLEL: AtomicU64 = AtomicU64::new(0);
static JOBS_INLINE: AtomicU64 = AtomicU64::new(0);
static CHUNKS_DISTRIBUTED: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the pool occupancy counters: `(jobs broadcast, jobs run
/// inline, chunks distributed)`, cumulative since process start. The same
/// numbers the `pool.*` telemetry gauges publish, exposed directly so the
/// run ledger can record them without a telemetry drain.
pub fn stats() -> (u64, u64, u64) {
    (
        JOBS_PARALLEL.load(Ordering::Relaxed),
        JOBS_INLINE.load(Ordering::Relaxed),
        CHUNKS_DISTRIBUTED.load(Ordering::Relaxed),
    )
}

/// Gauge snapshot of the pool occupancy counters for `mbssl-telemetry`.
fn telemetry_collector() -> Vec<(&'static str, u64)> {
    vec![
        ("pool.jobs", JOBS_PARALLEL.load(Ordering::Relaxed)),
        ("pool.jobs_inline", JOBS_INLINE.load(Ordering::Relaxed)),
        ("pool.chunks", CHUNKS_DISTRIBUTED.load(Ordering::Relaxed)),
        ("pool.threads", global().size as u64),
    ]
}

thread_local! {
    /// True while the current thread is executing chunks of a pool job.
    static IN_POOL_JOB: Cell<bool> = const { Cell::new(false) };
}

/// A broadcast job: type-erased closure plus its chunk count.
#[derive(Clone, Copy)]
struct Job {
    f: &'static (dyn Fn(usize) + Sync),
    chunks: usize,
}

struct State {
    /// Bumped once per job; workers block until it moves past what they saw.
    epoch: u64,
    job: Option<Job>,
    /// Workers that have not yet finished the current job.
    active: usize,
}

struct Inner {
    state: Mutex<State>,
    job_ready: Condvar,
    job_done: Condvar,
    next_chunk: AtomicUsize,
    panicked: AtomicBool,
}

/// The persistent worker pool: spawned once, jobs broadcast to all workers
/// (see module docs). Use the process-wide instance via [`global`] /
/// [`parallel_for`] rather than constructing one per call site.
pub struct ThreadPool {
    inner: Arc<Inner>,
    /// Total workers including the submitting caller.
    size: usize,
    /// Serializes job submission; a contended caller falls back to inline.
    submit: Mutex<()>,
}

fn configured_size() -> usize {
    if let Ok(v) = std::env::var("MBSSL_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The process-wide pool, created on first use.
pub fn global() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| {
        telemetry::register_collector(telemetry_collector);
        ThreadPool::new(configured_size())
    })
}

/// Number of threads (callers + workers) the global pool uses.
pub fn threads() -> usize {
    global().size
}

/// Runs `f(i)` for every `i in 0..chunks`, distributing chunks across the
/// global pool. Blocks until all chunks are done. See [`ThreadPool::run`].
pub fn parallel_for(chunks: usize, f: impl Fn(usize) + Sync) {
    global().run(chunks, &f);
}

/// Splits `data` into consecutive chunks of `chunk_len` elements (the last
/// may be shorter) and runs `f(chunk_index, chunk)` for each across the
/// global pool.
pub fn parallel_chunks_mut<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    if data.is_empty() || chunk_len == 0 {
        return;
    }
    let total = data.len();
    let chunks = total.div_ceil(chunk_len);
    // Chunks are disjoint [i*chunk_len, i*chunk_len+len) windows, so handing
    // each claimed index its own slice view of `data` cannot alias.
    let base = SendPtr(data.as_mut_ptr());
    parallel_for(chunks, move |i| {
        // Bind the wrapper itself: edition-2021 disjoint capture would
        // otherwise capture the bare `*mut T` field, which is not `Sync`.
        let base = base;
        let start = i * chunk_len;
        let len = chunk_len.min(total - start);
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.0.add(start), len) };
        f(i, chunk);
    });
}

struct SendPtr<T>(*mut T);
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: the pointer is only used to carve disjoint subslices, one per
// chunk index, so no two threads alias; `T: Send` lets each chunk's
// elements be mutated on another thread.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl ThreadPool {
    fn new(size: usize) -> ThreadPool {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                active: 0,
            }),
            job_ready: Condvar::new(),
            job_done: Condvar::new(),
            next_chunk: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
        });
        // The caller participates in every job, so spawn size-1 workers.
        for _ in 1..size {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("mbssl-pool".into())
                .spawn(move || worker_loop(&inner))
                .expect("failed to spawn pool worker");
        }
        ThreadPool {
            inner,
            size,
            submit: Mutex::new(()),
        }
    }

    /// Total threads participating in jobs (workers + the submitting
    /// caller).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Runs `f(i)` for every `i in 0..chunks` across the pool, blocking
    /// until all chunks complete. Falls back to an inline sequential loop
    /// when the pool has one thread, when called from inside another pool
    /// job (nesting), or when another thread is mid-submission.
    pub fn run(&self, chunks: usize, f: &(dyn Fn(usize) + Sync)) {
        if chunks == 0 {
            return;
        }
        if self.size <= 1 || chunks == 1 || IN_POOL_JOB.with(|c| c.get()) {
            JOBS_INLINE.fetch_add(1, Ordering::Relaxed);
            for i in 0..chunks {
                f(i);
            }
            return;
        }
        let Ok(_guard) = self.submit.try_lock() else {
            JOBS_INLINE.fetch_add(1, Ordering::Relaxed);
            for i in 0..chunks {
                f(i);
            }
            return;
        };
        JOBS_PARALLEL.fetch_add(1, Ordering::Relaxed);
        CHUNKS_DISTRIBUTED.fetch_add(chunks as u64, Ordering::Relaxed);
        let _sp = telemetry::span("pool.job");

        // Safety: workers only dereference the job closure between the
        // broadcast below and the `active == 0` handshake at the end of this
        // function, during which the caller's frame (and thus `f`'s
        // borrows) is pinned.
        let f_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };

        self.inner.panicked.store(false, Ordering::Relaxed);
        self.inner.next_chunk.store(0, Ordering::Relaxed);
        {
            let mut st = self.inner.state.lock().unwrap();
            st.epoch += 1;
            st.job = Some(Job {
                f: f_static,
                chunks,
            });
            st.active = self.size - 1;
            self.inner.job_ready.notify_all();
        }

        // The caller claims chunks alongside the workers.
        IN_POOL_JOB.with(|c| c.set(true));
        run_chunks(&self.inner, f_static, chunks);
        IN_POOL_JOB.with(|c| c.set(false));

        let mut st = self.inner.state.lock().unwrap();
        while st.active > 0 {
            st = self.inner.job_done.wait(st).unwrap();
        }
        st.job = None;
        drop(st);

        if self.inner.panicked.load(Ordering::Relaxed) {
            panic!("mbssl-pool: a worker panicked while executing a parallel job");
        }
    }
}

/// Claims and executes chunks until the job's counter is exhausted.
fn run_chunks(inner: &Inner, f: &(dyn Fn(usize) + Sync), chunks: usize) {
    loop {
        let i = inner.next_chunk.fetch_add(1, Ordering::Relaxed);
        if i >= chunks {
            break;
        }
        if catch_unwind(AssertUnwindSafe(|| f(i))).is_err() {
            inner.panicked.store(true, Ordering::Relaxed);
        }
    }
}

fn worker_loop(inner: &Inner) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = inner.state.lock().unwrap();
            while st.epoch == seen_epoch || st.job.is_none() {
                st = inner.job_ready.wait(st).unwrap();
            }
            seen_epoch = st.epoch;
            st.job.unwrap()
        };
        IN_POOL_JOB.with(|c| c.set(true));
        run_chunks(inner, job.f, job.chunks);
        IN_POOL_JOB.with(|c| c.set(false));
        let mut st = inner.state.lock().unwrap();
        st.active -= 1;
        if st.active == 0 {
            inner.job_done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn covers_every_chunk_exactly_once() {
        let hits: Vec<AtomicU64> = (0..257).map(|_| AtomicU64::new(0)).collect();
        parallel_for(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn chunked_writes_fill_buffer() {
        let mut data = vec![0.0f32; 10_007];
        parallel_chunks_mut(&mut data, 97, |ci, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (ci * 97 + j) as f32;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as f32);
        }
    }

    #[test]
    fn chunked_writes_take_any_send_element() {
        let mut ids = vec![0u32; 1_001];
        parallel_chunks_mut(&mut ids, 64, |ci, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (ci * 64 + j) as u32;
            }
        });
        assert!(ids.iter().enumerate().all(|(i, &v)| v == i as u32));
    }

    #[test]
    fn nested_runs_execute_inline() {
        let count = AtomicUsize::new(0);
        parallel_for(8, |_| {
            // Nested job: must run inline without deadlocking the pool.
            parallel_for(4, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn sequential_results_match_parallel() {
        let n = 4096;
        let mut par = vec![0.0f32; n];
        parallel_chunks_mut(&mut par, 61, |ci, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                let i = ci * 61 + j;
                *v = (i as f32).sin() * 0.5 + (i as f32).cos();
            }
        });
        let seq: Vec<f32> = (0..n)
            .map(|i| (i as f32).sin() * 0.5 + (i as f32).cos())
            .collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn back_to_back_jobs_reuse_workers() {
        for round in 0..50 {
            let total = AtomicUsize::new(0);
            parallel_for(round % 7 + 2, |i| {
                total.fetch_add(i + 1, Ordering::Relaxed);
            });
            let chunks = round % 7 + 2;
            assert_eq!(total.load(Ordering::Relaxed), chunks * (chunks + 1) / 2);
        }
    }
}
