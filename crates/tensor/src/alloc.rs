//! Buffer-recycling allocator for `f32` tensor storage.
//!
//! A training step builds and tears down thousands of short-lived `Vec<f32>`
//! buffers — op outputs, gradients, GEMM pack panels. Sizes repeat exactly
//! from step to step, so instead of round-tripping every buffer through the
//! system allocator (for the large ones: `mmap`/`munmap` plus a page fault
//! per 4 KiB on first touch, every single step), freed buffers park on
//! size-classed free lists and are handed back out on the next request.
//!
//! Design:
//! - **Size classes**: capacities are rounded up to powers of two between
//!   `MIN_CLASS_LOG2` and `MAX_CLASS_LOG2` elements. Requests outside that
//!   range bypass recycling entirely.
//! - **Thread-local fast path**: each thread keeps a small per-class stack
//!   (`LOCAL_CAP` buffers); take/put are plain `RefCell` pushes/pops.
//! - **Shared overflow**: when a local stack is full or empty, buffers
//!   overflow to / refill from a global per-class `Mutex<Vec<_>>` (capped at
//!   `SHARED_CAP`), so producer/consumer thread pairs (e.g. the batch
//!   prefetcher and the training thread) still recycle across threads.
//!
//! Handing out recycled storage never changes values: [`zeroed`] returns all
//! zeros exactly like `vec![0.0; n]`, and [`copy_of`]/[`buffer`] only expose
//! elements the caller writes. Counters ([`stats`]) track hits, misses, and
//! bytes reused so benches can report the hit rate.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};

/// Smallest recycled capacity, in elements (2^6 = 64 floats = 256 B).
/// Smaller requests are cheap enough for the system allocator.
const MIN_CLASS_LOG2: u32 = 6;
/// Largest recycled capacity, in elements (2^26 = 64 Mi floats = 256 MiB).
const MAX_CLASS_LOG2: u32 = 26;
const NUM_CLASSES: usize = (MAX_CLASS_LOG2 - MIN_CLASS_LOG2 + 1) as usize;

/// Per-thread, per-class buffer stack depth.
const LOCAL_CAP: usize = 16;
/// Global overflow list depth per class.
const SHARED_CAP: usize = 64;

/// Recycling counters, readable via [`stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Requests served from a free list.
    pub hits: u64,
    /// Requests that fell through to the system allocator.
    pub misses: u64,
    /// Buffers accepted back onto a free list.
    pub recycled: u64,
    /// Bytes of storage handed out from free lists (capacity-based).
    pub bytes_reused: u64,
}

impl AllocStats {
    /// Hit rate in percent over all class-eligible requests.
    pub fn hit_rate_pct(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 * 100.0 / total as f64
        }
    }
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static RECYCLED: AtomicU64 = AtomicU64::new(0);
static BYTES_REUSED: AtomicU64 = AtomicU64::new(0);

/// Publishes the recycling counters to every telemetry flush. Registers
/// once per process, on the first [`buffer`] request; after that the check
/// is one atomic load.
fn register_telemetry() {
    static REGISTERED: Once = Once::new();
    REGISTERED.call_once(|| mbssl_telemetry::register_collector(telemetry_collector));
}

/// Gauge snapshot of [`stats`] for `mbssl-telemetry` (labels `alloc.*`),
/// bridging the allocator's always-on counters into traces.
fn telemetry_collector() -> Vec<(&'static str, u64)> {
    let s = stats();
    vec![
        ("alloc.hits", s.hits),
        ("alloc.misses", s.misses),
        ("alloc.recycled", s.recycled),
        ("alloc.bytes_reused", s.bytes_reused),
    ]
}

/// Snapshot of the recycling counters.
pub fn stats() -> AllocStats {
    AllocStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        recycled: RECYCLED.load(Ordering::Relaxed),
        bytes_reused: BYTES_REUSED.load(Ordering::Relaxed),
    }
}

/// Resets the recycling counters (free lists are left intact).
pub fn reset_stats() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    RECYCLED.store(0, Ordering::Relaxed);
    BYTES_REUSED.store(0, Ordering::Relaxed);
}

/// Size-class index for a request of `n` elements, or `None` when the
/// request should bypass recycling.
#[inline]
fn class_of(n: usize) -> Option<usize> {
    if n == 0 || n > (1usize << MAX_CLASS_LOG2) {
        return None;
    }
    let log2 = n.next_power_of_two().trailing_zeros().max(MIN_CLASS_LOG2);
    Some((log2 - MIN_CLASS_LOG2) as usize)
}

/// Exact capacity of a size class.
#[inline]
fn class_capacity(class: usize) -> usize {
    1usize << (class as u32 + MIN_CLASS_LOG2)
}

thread_local! {
    static LOCAL: RefCell<Vec<Vec<Vec<f32>>>> =
        RefCell::new((0..NUM_CLASSES).map(|_| Vec::new()).collect());
}

fn shared() -> &'static Vec<Mutex<Vec<Vec<f32>>>> {
    static SHARED: OnceLock<Vec<Mutex<Vec<Vec<f32>>>>> = OnceLock::new();
    SHARED.get_or_init(|| (0..NUM_CLASSES).map(|_| Mutex::new(Vec::new())).collect())
}

/// Pops a buffer of class `class` from the local stack, refilling from the
/// shared overflow on a local miss.
fn pop_class(class: usize) -> Option<Vec<f32>> {
    let local = LOCAL.with(|l| l.borrow_mut()[class].pop());
    if local.is_some() {
        return local;
    }
    shared()[class].lock().ok().and_then(|mut list| list.pop())
}

/// An empty `Vec<f32>` with capacity at least `n`, recycled when possible.
///
/// The returned vector has `len() == 0`; the caller fills it (`resize`,
/// `extend`, `extend_from_slice`). Capacity is the request's size class, so
/// a later [`recycle`] returns it to the same class.
pub fn buffer(n: usize) -> Vec<f32> {
    register_telemetry();
    let Some(class) = class_of(n) else {
        MISSES.fetch_add(1, Ordering::Relaxed);
        return Vec::with_capacity(n);
    };
    if let Some(mut v) = pop_class(class) {
        HITS.fetch_add(1, Ordering::Relaxed);
        BYTES_REUSED.fetch_add((v.capacity() * 4) as u64, Ordering::Relaxed);
        v.clear();
        return v;
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    Vec::with_capacity(class_capacity(class))
}

/// `vec![0.0; n]`, but recycled: length `n`, every element `0.0`.
pub fn zeroed(n: usize) -> Vec<f32> {
    let mut v = buffer(n);
    v.resize(n, 0.0);
    v
}

/// `vec![value; n]`, but recycled.
pub fn filled(n: usize, value: f32) -> Vec<f32> {
    let mut v = buffer(n);
    v.resize(n, value);
    v
}

/// `src.to_vec()`, but recycled.
pub fn copy_of(src: &[f32]) -> Vec<f32> {
    let mut v = buffer(src.len());
    v.extend_from_slice(src);
    v
}

/// Returns a buffer to its size-class free list. Buffers whose capacity is
/// not an exact class size are simply dropped.
pub fn recycle(v: Vec<f32>) {
    let cap = v.capacity();
    let Some(class) = class_of(cap) else { return };
    if class_capacity(class) != cap {
        // Not one of ours (e.g. a caller-built Vec with odd capacity):
        // parking it would shrink the class's effective capacity.
        return;
    }
    let overflow = LOCAL.with(|l| {
        let mut local = l.borrow_mut();
        if local[class].len() < LOCAL_CAP {
            local[class].push(v);
            None
        } else {
            Some(v)
        }
    });
    if let Some(v) = overflow {
        if let Ok(mut list) = shared()[class].lock() {
            if list.len() < SHARED_CAP {
                list.push(v);
            } else {
                return; // both lists full: drop
            }
        } else {
            return;
        }
    }
    RECYCLED.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_matches_vec_macro() {
        for n in [1usize, 63, 64, 65, 1000, 4096] {
            assert_eq!(zeroed(n), vec![0.0f32; n]);
        }
    }

    #[test]
    fn copy_of_matches_to_vec() {
        let src: Vec<f32> = (0..300).map(|i| i as f32 * 0.5 - 3.0).collect();
        assert_eq!(copy_of(&src), src);
    }

    #[test]
    fn filled_matches_vec_macro() {
        assert_eq!(filled(130, 2.5), vec![2.5f32; 130]);
    }

    #[test]
    fn recycled_buffer_comes_back_zeroed() {
        // Dirty a buffer, recycle it, and check the next request of the
        // same class sees only zeros.
        let mut v = zeroed(1000);
        for x in v.iter_mut() {
            *x = f32::NAN;
        }
        recycle(v);
        let v2 = zeroed(900); // same 1024-element class
        assert!(v2.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn class_rounding() {
        assert_eq!(class_of(0), None);
        assert_eq!(class_of(1), Some(0));
        assert_eq!(class_of(64), Some(0));
        assert_eq!(class_of(65), Some(1));
        assert_eq!(class_of(1 << 26), Some(NUM_CLASSES - 1));
        assert_eq!(class_of((1 << 26) + 1), None);
    }

    #[test]
    fn stats_track_hits() {
        let before = stats();
        let v = zeroed(5000);
        recycle(v);
        let _v2 = zeroed(5000);
        let after = stats();
        assert!(after.recycled > before.recycled);
        assert!(after.hits > before.hits);
    }

    #[test]
    fn oversized_requests_bypass() {
        // Requests above MAX_CLASS never panic and still produce valid
        // buffers; they just skip the free lists.
        let n = (1usize << 26) + 7;
        let v = buffer(n);
        assert!(v.capacity() >= n);
        recycle(v); // dropped, not parked
    }
}
