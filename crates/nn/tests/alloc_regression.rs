//! Regression test for the per-call `dW` temporary: `Dense::backward`
//! used to form `dW` in a fresh `in·out` buffer on every call and then
//! add it into the gradient, 6.3 MB for a `Dense(2048→768)`. Right after
//! `zero_grad` it now forms `dW` in the accumulator itself, so a warm
//! backward allocates only its `dx` and a few pool handles.

// A counting `GlobalAlloc` is the only way to observe allocator traffic;
// it delegates every call to `System` unchanged.
#![allow(unsafe_code)]

use nn::{Dense, Layer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use tensor::Rng;

struct CountingAlloc;

static ALLOC_BYTES: AtomicUsize = AtomicUsize::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

fn count(layout: Layout) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOC_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments to `System` unchanged, so
// the caller's guarantees for `GlobalAlloc` are exactly `System`'s.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes requested from the allocator while `f` runs, on any thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize) {
    ALLOC_BYTES.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let r = f();
    COUNTING.store(false, Ordering::SeqCst);
    (r, ALLOC_BYTES.load(Ordering::SeqCst))
}

#[test]
fn dense_backward_after_zero_grad_forms_dw_without_a_temporary() {
    let _ = rayon::init_with_threads(2);
    let (k, n, batch) = (2048, 768, 4);
    let mut rng = Rng::seed(1);
    let mut layer = Dense::new(k, n, &mut rng);
    let x = rng.normal_tensor(&[batch, k], 1.0);
    let g = rng.normal_tensor(&[batch, n], 1.0);
    // Warm the grow-only input cache and the pool's pack panels.
    let _ = layer.forward(&x, true);
    let _ = layer.backward(&g);

    let _ = layer.forward(&x, true);
    layer.params_mut().into_iter().for_each(|p| p.zero_grad());
    let (dx, bytes) = counted(|| layer.backward(&g));
    assert_eq!(dx.shape(), &[batch, k]);
    let temporary = k * n * 4;
    assert!(
        bytes < temporary / 8,
        "backward after zero_grad allocated {bytes} B; the dW temporary is {temporary} B"
    );

    // Without a `zero_grad` between, the product is formed apart and
    // added, so this backward is allowed its temporary. That it shows
    // here also proves the counter sees this layer's buffers.
    let _ = layer.forward(&x, true);
    let (_, bytes) = counted(|| layer.backward(&g));
    assert!(
        bytes >= temporary,
        "{bytes} B: the counter missed the temporary"
    );
}
