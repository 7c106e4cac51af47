//! Allocation-regression guard: once the free lists are warm, a training
//! step must stop hitting the system allocator for its tensor buffers.
//!
//! A counting `#[global_allocator]` wraps `System` and tracks bytes
//! requested. The test runs a fixed small MLP train step a few times to
//! warm the recycling pools, then asserts the steady-state per-step byte
//! traffic stays under a budget far below the model's activation footprint
//! (which is what every step would allocate without recycling).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Tests in this binary serialize so the global byte counter only sees one
/// test's traffic at a time.
static SERIAL: Mutex<()> = Mutex::new(());

use rand::rngs::StdRng;
use rand::SeedableRng;

use mbssl_tensor::nn::{Linear, Module, ParamMap};
use mbssl_tensor::optim::{Adam, Optimizer};
use mbssl_tensor::alloc;

struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn bytes_now() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

#[test]
fn warm_train_step_stays_under_allocation_budget() {
    let _guard = SERIAL.lock().unwrap();

    const BATCH: usize = 64;
    const DIM: usize = 128;
    const WARMUP: usize = 4;
    const MEASURED: usize = 8;
    // One forward activation alone is BATCH*DIM floats = 32 KiB; a step
    // builds dozens of activation/gradient buffers of that size (~2 MiB of
    // f32 traffic without recycling). The budget tolerates bookkeeping
    // allocations (graph nodes, boxed closures, the topo-sort set) but not
    // unrecycled tensor buffers.
    const BUDGET_PER_STEP: u64 = 384 * 1024;

    let mut rng = StdRng::seed_from_u64(5);
    let l1 = Linear::new(DIM, DIM, &mut rng);
    let l2 = Linear::new(DIM, DIM, &mut rng);
    let l3 = Linear::new(DIM, 1, &mut rng);
    let mut params = ParamMap::new();
    l1.collect_params("l1", &mut params);
    l2.collect_params("l2", &mut params);
    l3.collect_params("l3", &mut params);
    let mut opt = Adam::new(params.tensors(), 1e-3);

    let x = mbssl_tensor::init::normal([BATCH, DIM], 0.0, 1.0, &mut rng);
    let labels: Vec<f32> = (0..BATCH).map(|i| (i % 2) as f32).collect();

    let mut step = || {
        opt.zero_grad();
        let h = l2.forward(&l1.forward(&x).gelu()).relu();
        let logits = l3.forward(&h).flatten();
        logits.bce_with_logits(&labels).backward();
        opt.step();
    };

    for _ in 0..WARMUP {
        step();
    }

    let before = bytes_now();
    for _ in 0..MEASURED {
        step();
    }
    let per_step = (bytes_now() - before) / MEASURED as u64;

    assert!(
        per_step <= BUDGET_PER_STEP,
        "warm train step allocates {per_step} B/step (budget {BUDGET_PER_STEP} B); \
         tensor buffers are leaking past the recycling allocator"
    );

    // Sanity: the recycler actually served requests during the run.
    let stats = alloc::stats();
    assert!(stats.hits > 0, "allocator reported no hits: {stats:?}");
}

/// Recycling must not change values: a tiny training problem, whose
/// buffers are recycled from step to step, stays finite and converges
/// (recycling hands out zeroed/overwritten storage only).
#[test]
fn recycled_buffers_do_not_change_math() {
    let _guard = SERIAL.lock().unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    let lin = Linear::new(8, 1, &mut rng);
    let mut params = ParamMap::new();
    lin.collect_params("l", &mut params);
    let mut opt = Adam::new(params.tensors(), 0.05);
    let x = mbssl_tensor::init::normal([16, 8], 0.0, 1.0, &mut rng);
    let labels: Vec<f32> = (0..16).map(|i| (i % 2) as f32).collect();

    let mut losses = Vec::new();
    for _ in 0..30 {
        opt.zero_grad();
        let loss = lin.forward(&x).flatten().bce_with_logits(&labels);
        losses.push(loss.item());
        loss.backward();
        opt.step();
    }
    // Strictly decreasing overall and finite throughout: recycled storage
    // never injected stale values.
    assert!(losses.iter().all(|l| l.is_finite()));
    assert!(losses.last().unwrap() < losses.first().unwrap());
}
