//! Regression test for the per-batch-clone bug: the seed shim cloned
//! items into one `Vec` per batch, so a parallel stage over N items
//! cost O(N) allocator traffic. The pool-based executors must stay
//! O(blocks).

// A counting `GlobalAlloc` is the only way to observe allocator traffic;
// it delegates every call to `System` unchanged.
#![allow(unsafe_code)]

use rayon::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn counted<R>(f: impl FnOnce() -> R) -> (R, usize) {
    ALLOC_CALLS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let r = f();
    COUNTING.store(false, Ordering::SeqCst);
    (r, ALLOC_CALLS.load(Ordering::SeqCst))
}

#[test]
fn par_stages_allocate_per_block_not_per_element() {
    // Force real workers even on a 1-CPU runner, and warm the pool +
    // thread-spawn machinery before counting.
    let _ = rayon::init_with_threads(4);
    const N: usize = 1_000_000;
    const CHUNK: usize = 4096;
    let mut v = vec![0.0f32; N];
    v.par_chunks_mut(CHUNK).for_each(|c| c[0] = 1.0);

    // par_chunks_mut over 1M f32: O(N/CHUNK) chunk handles, not O(N).
    let ((), allocs) = counted(|| {
        v.par_chunks_mut(CHUNK).enumerate().for_each(|(i, c)| {
            for x in c.iter_mut() {
                *x = i as f32;
            }
        });
    });
    let blocks = N.div_ceil(CHUNK); // 245
    assert!(
        allocs <= 4 * blocks,
        "par_chunks_mut allocated {allocs} times for {blocks} chunks (per-element cloning?)"
    );
    for (i, x) in v.iter().enumerate() {
        assert_eq!(*x, (i / CHUNK) as f32);
    }

    // fold over 1M f32 must not clone its batches into Vecs: one handle
    // per element is unavoidable for the eager `par_iter` adapter (a
    // single buffer), but the per-batch Vec churn of the seed shim must
    // be gone.
    let add = |a: f32, b: f32| a + b;
    let (s, allocs) = counted(|| {
        v.par_iter()
            .fold(|| 0.0f32, |a, &x| a + x)
            .reduce(|| 0.0, add)
    });
    let batch = N.div_ceil(rayon::current_num_threads());
    let expected = v
        .chunks(batch)
        .map(|c| c.iter().fold(0.0f32, |a, &x| a + x))
        .fold(0.0, add);
    assert_eq!(s.to_bits(), expected.to_bits());
    assert!(
        allocs <= 64,
        "fold allocated {allocs} times (per-batch Vec cloning?)"
    );

    // fold/reduce over an already-materialised slice view: O(batches).
    let (m, allocs) = counted(|| {
        v.par_chunks(CHUNK)
            .map(|c| c.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b)))
            .reduce(|| f32::NEG_INFINITY, f32::max)
    });
    assert_eq!(m, (blocks - 1) as f32);
    assert!(
        allocs <= 4 * blocks,
        "fold/reduce allocated {allocs} times for {blocks} chunks"
    );
}
