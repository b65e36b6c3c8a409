//! Lazy mini-batch assembly and the bounded prefetch ring.
//!
//! [`BatchStream`] replaces the eager [`Dataset::batches`] Vec on the
//! training hot path: it draws the epoch permutation up front (the same
//! single [`Rng`] consumption as the eager path, so checkpointed RNG
//! positions are unchanged) and then assembles one mini-batch at a time
//! into slab-backed buffers (`rayon::join` runs the x- and y-gathers on
//! two pool lanes; their outputs are disjoint, so order cannot matter).
//! The assembled bits are identical to the eager path by construction —
//! same permutation, same gather order, same shapes — which the tests
//! below pin down. [`Dataset::batches`] survives as a thin `collect()`
//! over the stream for tests; the trainer never materialises an epoch.
//!
//! [`with_prefetch`] runs the stream on a producer thread behind a
//! bounded depth-`k` ring (one `msa-sync` mutex, two condvars; both
//! notifies fire under the lock). Under `--cfg msa_check` the msa-race
//! checker explores this very function
//! (`crates/msa-race/tests/real_primitives.rs`); a flag kept outside
//! the lock with an unlocked notify is the lost-wakeup shape its
//! litmus harnesses find. The consumer hands finished batches back with
//! [`PrefetchConsumer::recycle`], so the ring circulates at most
//! `depth + 2` slab pairs (`depth` queued, one in flight, one held by
//! the consumer). The pool is seeded to exactly that bound, capped by
//! the epoch's batch count, before the producer starts, so the warm-up
//! allocation count is deterministic and steady-state epochs allocate
//! nothing ([`SlabPool::allocs`] is the proof counter the `experiments
//! pipeline` contract asserts on).
//!
//! Ownership: the ring owns the producer thread for exactly the scope
//! of the consumer closure (`msa_sync::thread::scope`); on early exit (e.g.
//! a fault-injected training abort) the scope sets a stop flag under
//! the lock, wakes the producer, and joins it before returning, so no
//! batch assembly ever outlives the dataset borrow.

use crate::Dataset;
use msa_sync::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::PoisonError;
use tensor::{Rng, Tensor};

/// Default prefetch depth: double buffering (assemble one batch ahead
/// while the previous one computes, plus one in flight).
pub const DEFAULT_PREFETCH_DEPTH: usize = 2;

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn cv_wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

/// Reusable batch-buffer pairs plus the allocation counter that proves
/// steady-state epochs allocate nothing.
///
/// Slabs are always allocated at full-batch capacity, so a slab
/// recycled from a ragged final batch still fits the next epoch's full
/// batches without growing.
#[derive(Debug, Default)]
pub struct SlabPool {
    free: Vec<(Vec<f32>, Vec<f32>)>,
    allocs: u64,
}

impl SlabPool {
    /// An empty pool (first use allocates, later epochs reuse).
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh slab allocations so far — constant across epochs once the
    /// ring is warm.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Takes a slab pair, allocating at the given full-batch capacities
    /// only when the pool is empty.
    pub fn take(&mut self, x_cap: usize, y_cap: usize) -> (Vec<f32>, Vec<f32>) {
        match self.free.pop() {
            Some(pair) => pair,
            None => {
                self.allocs += 1;
                (Vec::with_capacity(x_cap), Vec::with_capacity(y_cap))
            }
        }
    }

    /// Parks a slab pair for reuse.
    pub fn put(&mut self, pair: (Vec<f32>, Vec<f32>)) {
        self.free.push(pair);
    }

    /// Hands a consumed batch's tensors back as slabs (the buffers are
    /// reused as-is; the next fill clears them).
    pub fn recycle(&mut self, batch: (Tensor, Tensor)) {
        self.put((batch.0.into_vec(), batch.1.into_vec()));
    }
}

/// Lazily assembles the mini-batches of one epoch, in the same shuffled
/// order — and with the same tensor bits — as the eager
/// [`Dataset::batches`] path.
#[derive(Debug)]
pub struct BatchStream<'a> {
    ds: &'a Dataset,
    perm: Vec<usize>,
    batch_size: usize,
    item_shape: Vec<usize>,
    y_shape: Vec<usize>,
    item_len: usize,
    y_item: usize,
    next: usize,
}

impl<'a> BatchStream<'a> {
    /// Draws the epoch permutation (the stream's only RNG consumption,
    /// identical to the eager path) and prepares lazy assembly.
    pub fn new(ds: &'a Dataset, batch_size: usize, rng: &mut Rng) -> Self {
        assert!(batch_size > 0);
        let perm = rng.permutation(ds.len());
        let item_shape = ds.x.shape()[1..].to_vec();
        let item_len = item_shape.iter().product();
        let y_shape = ds.y.shape()[1..].to_vec();
        let y_item = y_shape.iter().product::<usize>().max(1);
        BatchStream {
            ds,
            perm,
            batch_size,
            item_shape,
            y_shape,
            item_len,
            y_item,
            next: 0,
        }
    }

    /// Total number of batches this epoch will yield.
    pub fn num_batches(&self) -> usize {
        self.perm.len().div_ceil(self.batch_size)
    }

    /// Batches not yet yielded.
    pub fn remaining(&self) -> usize {
        self.num_batches() - self.next
    }

    /// Full-batch slab capacity for `x` (ragged final batches use less).
    pub fn x_capacity(&self) -> usize {
        self.batch_size * self.item_len
    }

    /// Full-batch slab capacity for `y`.
    pub fn y_capacity(&self) -> usize {
        self.batch_size * self.y_item
    }

    /// Gathers the next batch into the given slabs; returns the `(x, y)`
    /// tensor shapes, or `None` when the epoch is exhausted. The gather
    /// kernel runs the `x` and `y` copies on parallel pool lanes — the
    /// outputs are disjoint, so the result is deterministic.
    pub fn fill_next(
        &mut self,
        bx: &mut Vec<f32>,
        by: &mut Vec<f32>,
    ) -> Option<(Vec<usize>, Vec<usize>)> {
        let start = self.next * self.batch_size;
        if start >= self.perm.len() {
            return None;
        }
        let end = (start + self.batch_size).min(self.perm.len());
        let idxs = &self.perm[start..end];
        self.next += 1;
        bx.clear();
        by.clear();
        let (xd, yd) = (self.ds.x.data(), self.ds.y.data());
        let (item_len, y_item) = (self.item_len, self.y_item);
        rayon::join(
            || {
                for &i in idxs {
                    bx.extend_from_slice(&xd[i * item_len..(i + 1) * item_len]);
                }
            },
            || {
                for &i in idxs {
                    by.extend_from_slice(&yd[i * y_item..(i + 1) * y_item]);
                }
            },
        );
        let mut bx_shape = vec![idxs.len()];
        bx_shape.extend_from_slice(&self.item_shape);
        let mut by_shape = vec![idxs.len()];
        by_shape.extend_from_slice(&self.y_shape);
        Some((bx_shape, by_shape))
    }

    /// Assembles the next batch into freshly allocated buffers — the
    /// depth-0 path, reproducing the eager path's per-batch allocation
    /// behavior (and bits) without the epoch-wide materialization spike.
    pub fn next_batch(&mut self) -> Option<(Tensor, Tensor)> {
        let start = self.next * self.batch_size;
        if start >= self.perm.len() {
            return None;
        }
        let rows = (start + self.batch_size).min(self.perm.len()) - start;
        let mut bx = Vec::with_capacity(rows * self.item_len);
        let mut by = Vec::with_capacity(rows * self.y_item);
        let (sx, sy) = self.fill_next(&mut bx, &mut by)?;
        Some((Tensor::from_vec(bx, &sx), Tensor::from_vec(by, &sy)))
    }

    /// Assembles the next batch into slabs drawn from `pool` — the
    /// zero-steady-state-allocation path the prefetch ring uses.
    pub fn next_batch_pooled(&mut self, pool: &mut SlabPool) -> Option<(Tensor, Tensor)> {
        if self.next * self.batch_size >= self.perm.len() {
            return None;
        }
        let (mut bx, mut by) = pool.take(self.x_capacity(), self.y_capacity());
        let (sx, sy) = self.fill_next(&mut bx, &mut by)?;
        Some((Tensor::from_vec(bx, &sx), Tensor::from_vec(by, &sy)))
    }
}

/// A uniform pull interface over the inline stream and the prefetch
/// ring, so the training loop is written once for both.
pub trait BatchSource {
    /// Next assembled batch, or `None` when the epoch is exhausted.
    fn next_batch(&mut self) -> Option<(Tensor, Tensor)>;
    /// Hands a finished batch's buffers back for reuse (a no-op for
    /// sources that do not recycle).
    fn recycle(&mut self, batch: (Tensor, Tensor));
}

impl BatchSource for BatchStream<'_> {
    fn next_batch(&mut self) -> Option<(Tensor, Tensor)> {
        BatchStream::next_batch(self)
    }

    fn recycle(&mut self, _batch: (Tensor, Tensor)) {}
}

/// Shared state of the prefetch ring. All flags live *inside* the
/// mutex: `done`/`stop` are checked under the same lock the condvars
/// wait on, and every notify fires while the lock is held — the
/// lost-wakeup discipline the checker explores under `--cfg msa_check`.
struct RingState {
    queue: VecDeque<(Tensor, Tensor)>,
    free: Vec<(Vec<f32>, Vec<f32>)>,
    allocs: u64,
    done: bool,
    stop: bool,
}

struct Ring {
    state: Mutex<RingState>,
    not_empty: Condvar,
    not_full: Condvar,
}

/// Consumer handle inside [`with_prefetch`]: pops batches assembled
/// ahead by the producer thread and recycles their slabs.
pub struct PrefetchConsumer<'r> {
    ring: &'r Ring,
}

impl std::fmt::Debug for PrefetchConsumer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrefetchConsumer").finish()
    }
}

impl PrefetchConsumer<'_> {
    fn next(&mut self) -> Option<(Tensor, Tensor)> {
        let mut st = lock(&self.ring.state);
        loop {
            if let Some(batch) = st.queue.pop_front() {
                self.ring.not_full.notify_one();
                return Some(batch);
            }
            if st.done {
                return None;
            }
            st = cv_wait(&self.ring.not_empty, st);
        }
    }

    fn put_back(&mut self, batch: (Tensor, Tensor)) {
        let mut st = lock(&self.ring.state);
        st.free.push((batch.0.into_vec(), batch.1.into_vec()));
    }
}

impl BatchSource for PrefetchConsumer<'_> {
    fn next_batch(&mut self) -> Option<(Tensor, Tensor)> {
        self.next()
    }

    fn recycle(&mut self, batch: (Tensor, Tensor)) {
        self.put_back(batch);
    }
}

/// Runs `f` with a [`PrefetchConsumer`] fed by a producer thread that
/// assembles up to `depth` batches ahead of the consumer.
///
/// The producer claims a slab (recycled when available, fresh
/// otherwise), assembles outside the lock, and blocks while `depth`
/// batches are already queued — so at most `depth` assembled batches
/// plus one in flight exist at any moment, matching the priced
/// stage-pipeline model in `distrib`. Slabs the epoch leaves in the
/// ring (including batches assembled past an early consumer exit) are
/// drained back into `pool`, keeping later epochs allocation-free.
pub fn with_prefetch<R>(
    stream: &mut BatchStream<'_>,
    depth: usize,
    pool: &mut SlabPool,
    f: impl FnOnce(&mut PrefetchConsumer<'_>) -> R,
) -> R {
    let depth = depth.max(1);
    let (x_cap, y_cap) = (stream.x_capacity(), stream.y_capacity());
    // Top the slab pool up to the ring's circulation bound (`depth`
    // queued + 1 in flight + 1 held by the consumer) before spawning the
    // producer: the warm-up allocation count is then deterministic, and
    // a recycling consumer makes every later epoch exactly zero-alloc.
    let target = (depth + 2).min(stream.remaining().max(1));
    while pool.free.len() < target {
        pool.allocs += 1;
        // lint: allow(alloc-in-kernel) -- one-time warm-up: fills the pool to its steady-state bound before the first step
        pool.free.push((Vec::with_capacity(x_cap), Vec::with_capacity(y_cap)));
    }
    let ring = Ring {
        state: Mutex::new(RingState {
            queue: VecDeque::with_capacity(depth),
            free: std::mem::take(&mut pool.free),
            allocs: 0,
            done: false,
            stop: false,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    };

    let result = msa_sync::thread::scope(|s| {
        let producer = s.spawn(|| loop {
            let (mut bx, mut by) = {
                let mut st = lock(&ring.state);
                while st.queue.len() >= depth && !st.stop {
                    st = cv_wait(&ring.not_full, st);
                }
                if st.stop {
                    return;
                }
                match st.free.pop() {
                    Some(pair) => pair,
                    None => {
                        st.allocs += 1;
                        // lint: allow(alloc-in-kernel) -- growth fallback when the consumer holds slabs back; counted so tests prove it never fires steady-state
                        (Vec::with_capacity(x_cap), Vec::with_capacity(y_cap))
                    }
                }
            };
            match stream.fill_next(&mut bx, &mut by) {
                Some((sx, sy)) => {
                    let batch = (Tensor::from_vec(bx, &sx), Tensor::from_vec(by, &sy));
                    let mut st = lock(&ring.state);
                    st.queue.push_back(batch);
                    ring.not_empty.notify_one();
                }
                None => {
                    let mut st = lock(&ring.state);
                    st.free.push((bx, by));
                    st.done = true;
                    ring.not_empty.notify_all();
                    return;
                }
            }
        });

        let mut consumer = PrefetchConsumer { ring: &ring };
        let out = f(&mut consumer);

        {
            let mut st = lock(&ring.state);
            st.stop = true;
            ring.not_full.notify_all();
        }
        // lint: allow(unwrap) -- a producer panic is a real bug; surface it
        producer.join().expect("prefetch producer panicked");
        out
    });

    let mut st = lock(&ring.state);
    pool.allocs += st.allocs;
    for batch in st.queue.drain(..) {
        pool.put((batch.0.into_vec(), batch.1.into_vec()));
    }
    pool.free.append(&mut st.free);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize, dim: usize) -> Dataset {
        Dataset {
            x: Tensor::from_vec((0..n * dim).map(|v| v as f32).collect(), &[n, dim]),
            y: Tensor::from_vec((0..n).map(|v| v as f32).collect(), &[n]),
        }
    }

    fn eager(ds: &Dataset, batch: usize, seed: u64) -> Vec<(Tensor, Tensor)> {
        let mut rng = Rng::seed(seed);
        ds.batches(batch, &mut rng)
    }

    #[test]
    fn stream_is_bit_identical_to_eager_batches() {
        let ds = toy(13, 4);
        let want = eager(&ds, 5, 7);
        let mut rng = Rng::seed(7);
        let mut stream = BatchStream::new(&ds, 5, &mut rng);
        assert_eq!(stream.num_batches(), want.len());
        for (wx, wy) in &want {
            let (gx, gy) = stream.next_batch().expect("stream yields every batch");
            assert_eq!(gx.shape(), wx.shape());
            assert_eq!(gy.shape(), wy.shape());
            assert_eq!(gx.data(), wx.data());
            assert_eq!(gy.data(), wy.data());
        }
        assert!(stream.next_batch().is_none());
    }

    #[test]
    fn stream_consumes_rng_exactly_like_eager() {
        let ds = toy(10, 3);
        let mut r1 = Rng::seed(3);
        let mut r2 = Rng::seed(3);
        let _ = ds.batches(4, &mut r1);
        let _ = BatchStream::new(&ds, 4, &mut r2);
        assert_eq!(r1.word_pos(), r2.word_pos());
    }

    #[test]
    fn pooled_assembly_matches_and_reuses_slabs() {
        let ds = toy(12, 6);
        let want = eager(&ds, 4, 11);
        let mut rng = Rng::seed(11);
        let mut stream = BatchStream::new(&ds, 4, &mut rng);
        let mut pool = SlabPool::new();
        for (wx, wy) in &want {
            let got = stream
                .next_batch_pooled(&mut pool)
                .expect("pooled stream yields every batch");
            assert_eq!(got.0.data(), wx.data());
            assert_eq!(got.1.data(), wy.data());
            pool.recycle(got);
        }
        // One slab pair circulated the whole epoch.
        assert_eq!(pool.allocs(), 1);
        // A second epoch allocates nothing.
        let mut rng = Rng::seed(12);
        let mut stream = BatchStream::new(&ds, 4, &mut rng);
        while let Some(b) = stream.next_batch_pooled(&mut pool) {
            pool.recycle(b);
        }
        assert_eq!(pool.allocs(), 1);
    }

    #[test]
    fn prefetch_yields_the_same_batches_in_order() {
        let ds = toy(17, 5);
        let want = eager(&ds, 4, 21);
        for depth in [1usize, 2, 4] {
            let mut rng = Rng::seed(21);
            let mut stream = BatchStream::new(&ds, 4, &mut rng);
            let mut pool = SlabPool::new();
            let got: Vec<(Vec<f32>, Vec<f32>)> =
                with_prefetch(&mut stream, depth, &mut pool, |src| {
                    let mut out = Vec::new();
                    while let Some((bx, by)) = src.next_batch() {
                        out.push((bx.data().to_vec(), by.data().to_vec()));
                        src.recycle((bx, by));
                    }
                    out
                });
            assert_eq!(got.len(), want.len(), "depth {depth}");
            for ((gx, gy), (wx, wy)) in got.iter().zip(&want) {
                assert_eq!(gx.as_slice(), wx.data());
                assert_eq!(gy.as_slice(), wy.data());
            }
        }
    }

    #[test]
    fn prefetch_steady_state_allocates_nothing() {
        let ds = toy(24, 8);
        let mut pool = SlabPool::new();
        let drain = |pool: &mut SlabPool, seed: u64| {
            let mut rng = Rng::seed(seed);
            let mut stream = BatchStream::new(&ds, 6, &mut rng);
            with_prefetch(&mut stream, 2, pool, |src| {
                while let Some(b) = src.next_batch() {
                    src.recycle(b);
                }
            });
        };
        drain(&mut pool, 1);
        let warm = pool.allocs();
        // The ring pre-seeds exactly depth + 2 pairs (queued + in flight
        // + consumer-held) and never exceeds them.
        assert_eq!(warm, 4, "warm-up seeds depth + 2 slab pairs");
        for seed in 2..6 {
            drain(&mut pool, seed);
        }
        assert_eq!(pool.allocs(), warm, "steady-state epochs must not allocate");
    }

    #[test]
    fn prefetch_early_exit_joins_and_drains() {
        let ds = toy(30, 4);
        let mut pool = SlabPool::new();
        let mut rng = Rng::seed(5);
        let mut stream = BatchStream::new(&ds, 3, &mut rng);
        // Consume only two batches, then bail (the fault-abort shape).
        let got = with_prefetch(&mut stream, 2, &mut pool, |src| {
            let a = src.next_batch().expect("first batch");
            src.recycle(a);
            src.next_batch().expect("second batch").0.data()[0]
        });
        let want = eager(&ds, 3, 5);
        assert_eq!(got, want[1].0.data()[0]);
        // Whatever the producer assembled ahead was drained back: the
        // next take reuses a parked slab instead of allocating.
        let allocs = pool.allocs();
        let _ = pool.take(0, 0);
        assert_eq!(pool.allocs(), allocs);
    }

    #[test]
    fn wrapper_batches_delegates_to_stream() {
        // `Dataset::batches` is now a thin collect() over BatchStream;
        // its output must keep covering every item exactly once.
        let ds = toy(9, 2);
        let mut rng = Rng::seed(2);
        let batches = ds.batches(4, &mut rng);
        assert_eq!(batches.len(), 3);
        let mut labels: Vec<f32> = batches
            .iter()
            .flat_map(|(_, y)| y.data().to_vec())
            .collect();
        labels.sort_by(f32::total_cmp);
        assert_eq!(labels, (0..9).map(|v| v as f32).collect::<Vec<_>>());
    }
}
