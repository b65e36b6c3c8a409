//! Offline stand-in for the subset of `rayon` this workspace uses.
//!
//! The build container cannot reach a crates.io registry, so this crate
//! re-implements the parallel-iterator surface the workspace consumes
//! (`par_iter`, `into_par_iter`, `par_chunks[_mut]`, `map`, `filter`,
//! `zip`, `fold`/`reduce`, `for_each`, `sum`, `collect`, `join`, …) on
//! top of a persistent thread pool (see `pool`).
//!
//! Unlike the seed shim there is no per-stage thread spawn and no
//! per-batch item cloning: workers are spawned once and parked on a
//! condvar, a stage splits into blocks claimed through an atomic index
//! (work stealing by index splitting), and terminal operations move
//! elements straight out of the input buffer into per-slot results (see
//! `batch`). The semantics rayon guarantees are preserved —
//! order-preserving results, `Sync` closures, per-batch `fold`
//! accumulators with the batch partition `⌈n/threads⌉`, and the
//! fixed-256-block machine-independent `sum` tree.
//!
//! Pool controls (this shim's extension surface, used by tests/benches):
//! [`init_with_threads`] pins the pool size before first use,
//! [`serial_scope`] runs a closure with every parallel stage inlined
//! (the "pool-off" switch determinism tests compare against),
//! [`current_num_threads`] reports the partition width, and
//! `MSA_POOL_THREADS` overrides `available_parallelism` (0/1 disables
//! the pool). Inside [`serial_scope`] stages run in block order, but
//! batch partitioning still uses [`current_num_threads`], so pool-off
//! results are bit-identical to pool-on: that is what the kernels'
//! bit-exactness tests compare, and why a report that records
//! checksums pins the width first.

mod batch;
mod pool;

pub use pool::{current_num_threads, init_with_threads, join, serial_scope};

pub mod prelude {
    pub use crate::{
        IntoParallelIterator, ParallelIterator, ParallelRefIterator, ParallelRefMutIterator,
        ParallelSlice, ParallelSliceMut,
    };
}

/// Seed-compatible batch partition: `⌈n/threads⌉` elements per batch,
/// every batch full-size except the last. A pure function of
/// `(n, current_num_threads())`, so accumulator structure is identical
/// pool-on and pool-off.
fn fold_batch(n: usize) -> usize {
    let threads = pool::current_num_threads().min(n.max(1)).max(1);
    n.div_ceil(threads)
}

/// An eager, order-preserving "parallel iterator": adapters that run
/// user closures execute them across the pool, then hand back the
/// materialised results.
pub struct Par<T> {
    items: Vec<T>,
}

/// The adapter surface. Named to mirror rayon's `ParallelIterator` so
/// call sites and bounds read identically.
impl<T: Send> Par<T> {
    pub fn map<R, F>(self, f: F) -> Par<R>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        Par {
            items: batch::consume_map(self.items, f),
        }
    }

    pub fn flat_map<R, I, F>(self, f: F) -> Par<R>
    where
        R: Send,
        I: IntoIterator<Item = R>,
        F: Fn(T) -> I + Sync,
        I::IntoIter: Send,
        I: Send,
    {
        let chunk = fold_batch(self.items.len());
        let nested: Vec<Vec<R>> = batch::consume_chunks(self.items, chunk, |it| {
            it.flat_map(&f).collect()
        });
        Par {
            items: nested.into_iter().flatten().collect(),
        }
    }

    pub fn filter<P>(self, pred: P) -> Par<T>
    where
        P: Fn(&T) -> bool + Sync,
    {
        let chunk = fold_batch(self.items.len());
        let kept: Vec<Vec<T>> =
            batch::consume_chunks(self.items, chunk, |it| it.filter(|x| pred(x)).collect());
        Par {
            items: kept.into_iter().flatten().collect(),
        }
    }

    pub fn filter_map<R, F>(self, f: F) -> Par<R>
    where
        R: Send,
        F: Fn(T) -> Option<R> + Sync,
    {
        let chunk = fold_batch(self.items.len());
        let kept: Vec<Vec<R>> =
            batch::consume_chunks(self.items, chunk, |it| it.filter_map(&f).collect());
        Par {
            items: kept.into_iter().flatten().collect(),
        }
    }

    pub fn zip<U: Send>(self, other: Par<U>) -> Par<(T, U)> {
        Par {
            items: self.items.into_iter().zip(other.items).collect(),
        }
    }

    pub fn enumerate(self) -> Par<(usize, T)> {
        Par {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        batch::consume_map(self.items, f);
    }

    /// Rayon-style fold: each batch folds into its own accumulator seeded
    /// by `identity`; the result is a parallel iterator over the per-batch
    /// accumulators (combine them with [`Par::reduce`]). Batches are the
    /// contiguous `⌈n/threads⌉` partition regardless of which worker runs
    /// them, so the accumulator structure is deterministic.
    pub fn fold<A, ID, F>(self, identity: ID, fold_op: F) -> Par<A>
    where
        A: Send,
        ID: Fn() -> A + Sync,
        F: Fn(A, T) -> A + Sync,
    {
        let n = self.items.len();
        if n <= 1 || pool::current_num_threads() <= 1 {
            return Par {
                items: vec![self.items.into_iter().fold(identity(), fold_op)],
            };
        }
        let chunk = fold_batch(n);
        Par {
            items: batch::consume_chunks(self.items, chunk, |it| it.fold(identity(), &fold_op)),
        }
    }

    /// Rayon-style reduce: combines all items with `op`, seeding each
    /// batch with `identity`.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> T
    where
        ID: Fn() -> T + Sync,
        OP: Fn(T, T) -> T + Sync,
    {
        self.fold(&identity, &op)
            .items
            .into_iter()
            .fold(identity(), &op)
    }

    pub fn count(self) -> usize {
        self.items.len()
    }

    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<T> + std::iter::Sum<S> + Send,
    {
        // Rayon sums by splitting and reducing partial sums, which keeps
        // f32 error small; a single sequential fold loses low bits once
        // the running total dwarfs the addends. Match the tree numerics
        // with fixed-size blocks so the result is also machine-independent
        // (and identical to the seed shim bit for bit): per-256-block
        // partials in block order, then an in-order sum of the partials.
        const BLOCK: usize = 256;
        let partials: Vec<S> = batch::consume_chunks(self.items, BLOCK, |it| it.sum());
        partials.into_iter().sum()
    }

    pub fn collect<C>(self) -> C
    where
        C: FromIterator<T>,
    {
        self.items.into_iter().collect()
    }

    pub fn max_by<F>(self, cmp: F) -> Option<T>
    where
        F: Fn(&T, &T) -> std::cmp::Ordering,
    {
        self.items.into_iter().max_by(cmp)
    }

    pub fn min_by<F>(self, cmp: F) -> Option<T>
    where
        F: Fn(&T, &T) -> std::cmp::Ordering,
    {
        self.items.into_iter().min_by(cmp)
    }
}

impl<'a, T: Sync + Clone + Send + 'a> Par<&'a T> {
    pub fn cloned(self) -> Par<T> {
        Par {
            items: self.items.into_iter().cloned().collect(),
        }
    }
}

/// Marker alias so `where`-clauses written against rayon still read
/// naturally; every `Par` is already a "parallel iterator".
pub trait ParallelIterator {}
impl<T> ParallelIterator for Par<T> {}

/// `collection.into_par_iter()` for anything iterable.
pub trait IntoParallelIterator {
    type Item;
    fn into_par_iter(self) -> Par<Self::Item>;
}

impl<C: IntoIterator> IntoParallelIterator for C {
    type Item = C::Item;
    fn into_par_iter(self) -> Par<C::Item> {
        Par {
            items: self.into_iter().collect(),
        }
    }
}

/// `slice.par_iter()`.
pub trait ParallelRefIterator<T> {
    fn par_iter(&self) -> Par<&T>;
}

impl<T: Sync> ParallelRefIterator<T> for [T] {
    fn par_iter(&self) -> Par<&T> {
        Par {
            items: self.iter().collect(),
        }
    }
}

/// `slice.par_iter_mut()`.
pub trait ParallelRefMutIterator<T> {
    fn par_iter_mut(&mut self) -> Par<&mut T>;
}

impl<T: Send> ParallelRefMutIterator<T> for [T] {
    fn par_iter_mut(&mut self) -> Par<&mut T> {
        Par {
            items: self.iter_mut().collect(),
        }
    }
}

/// `slice.par_chunks(n)`.
pub trait ParallelSlice<T> {
    fn par_chunks(&self, chunk_size: usize) -> Par<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> Par<&[T]> {
        Par {
            items: self.chunks(chunk_size).collect(),
        }
    }
}

/// `slice.par_chunks_mut(n)` and `par_sort_by`.
pub trait ParallelSliceMut<T> {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> Par<&mut [T]>;
    fn par_sort_by<F>(&mut self, cmp: F)
    where
        F: Fn(&T, &T) -> std::cmp::Ordering;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> Par<&mut [T]> {
        Par {
            items: self.chunks_mut(chunk_size).collect(),
        }
    }

    fn par_sort_by<F>(&mut self, cmp: F)
    where
        F: Fn(&T, &T) -> std::cmp::Ordering,
    {
        // Sequential fallback: sorting is never a hot path in this
        // workspace (used once to globally order shuffled keys).
        self.sort_by(cmp);
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    /// Force a real multi-worker pool regardless of host core count (the
    /// CI container may expose a single CPU). First caller wins; every
    /// test asks for the same size so ordering doesn't matter.
    fn pool4() {
        let _ = crate::init_with_threads(4);
    }

    #[test]
    fn map_preserves_order() {
        pool4();
        let v: Vec<u64> = (0..10_000).collect();
        let out: Vec<u64> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(out, (0..10_000).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn into_par_iter_on_range_and_vec() {
        pool4();
        let a: Vec<usize> = (0usize..100).into_par_iter().map(|i| i + 1).collect();
        assert_eq!(a[0], 1);
        assert_eq!(a[99], 100);
        let s: usize = vec![1usize, 2, 3].into_par_iter().sum();
        assert_eq!(s, 6);
    }

    #[test]
    fn fold_then_reduce_matches_serial() {
        pool4();
        let v: Vec<u64> = (1..=1000).collect();
        let total = v
            .par_iter()
            .fold(|| 0u64, |acc, &x| acc + x)
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(total, 500_500);
    }

    #[test]
    fn reduce_with_identity() {
        pool4();
        let v = [3.0f32, -1.0, 7.5, 2.0];
        let m = v.par_iter().cloned().reduce(|| f32::NEG_INFINITY, f32::max);
        assert_eq!(m, 7.5);
    }

    #[test]
    fn chunks_mut_parallel_write() {
        pool4();
        let mut v = vec![0u32; 64];
        v.par_chunks_mut(8).enumerate().for_each(|(i, c)| {
            for x in c.iter_mut() {
                *x = i as u32;
            }
        });
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, (i / 8) as u32);
        }
    }

    #[test]
    fn filter_zip_count() {
        pool4();
        let a = [1, 2, 3, 4, 5, 6];
        let b = [1, 0, 3, 0, 5, 0];
        let n = a
            .par_iter()
            .zip(b.par_iter())
            .filter(|(x, y)| x == y)
            .count();
        assert_eq!(n, 3);
    }

    #[test]
    fn panics_propagate() {
        pool4();
        let caught = std::panic::catch_unwind(|| {
            let v: Vec<usize> = (0..100).collect();
            v.par_iter().for_each(|&x| {
                if x == 57 {
                    panic!("boom");
                }
            });
        });
        assert!(caught.is_err());
    }

    #[test]
    fn pool_survives_panic_and_keeps_working() {
        pool4();
        for round in 0..3 {
            let caught = std::panic::catch_unwind(|| {
                (0..64usize).into_par_iter().for_each(|x| {
                    if x == 13 {
                        panic!("boom {round}");
                    }
                });
            });
            assert!(caught.is_err());
            let s: usize = (0..100usize).into_par_iter().sum();
            assert_eq!(s, 4950);
        }
    }

    #[test]
    fn join_runs_both_and_propagates_panics() {
        pool4();
        let (a, b) = crate::join(|| 2 + 2, || "ok".len());
        assert_eq!((a, b), (4, 2));
        // Recursive splitting.
        fn par_sum(v: &[u64]) -> u64 {
            if v.len() <= 8 {
                return v.iter().sum();
            }
            let (lo, hi) = v.split_at(v.len() / 2);
            let (a, b) = crate::join(|| par_sum(lo), || par_sum(hi));
            a + b
        }
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(par_sum(&v), 500_500);
        let caught = std::panic::catch_unwind(|| {
            crate::join(|| 1, || panic!("right branch"));
        });
        assert!(caught.is_err());
    }

    #[test]
    fn serial_scope_matches_pool_results() {
        pool4();
        let v: Vec<f32> = (0..100_000).map(|i| (i % 97) as f32 * 0.25).collect();
        let on: f32 = v.par_iter().sum();
        let off: f32 = crate::serial_scope(|| v.par_iter().sum());
        assert_eq!(on.to_bits(), off.to_bits());
        let mapped_on: Vec<f32> = v.par_iter().map(|&x| x * 3.0 + 1.0).collect();
        let mapped_off: Vec<f32> =
            crate::serial_scope(|| v.par_iter().map(|&x| x * 3.0 + 1.0).collect());
        assert_eq!(mapped_on, mapped_off);
    }

    #[test]
    fn nested_parallelism_runs_inline_without_deadlock() {
        pool4();
        let outer: Vec<usize> = (0..16usize)
            .into_par_iter()
            .map(|i| {
                let inner: usize = (0..100usize).into_par_iter().map(|j| i + j).sum();
                inner
            })
            .collect();
        for (i, s) in outer.iter().enumerate() {
            assert_eq!(*s, 100 * i + 4950);
        }
    }

    #[test]
    fn sum_tree_is_block_structured() {
        pool4();
        // 1e7 as f32 swallows +0.25 increments under sequential
        // accumulation; the 256-block tree must not.
        let v = vec![0.25f32; 100_000];
        let s: f32 = v.par_iter().cloned().sum();
        assert_eq!(s, 25_000.0);
    }

    #[test]
    fn empty_and_single_item_edge_cases() {
        pool4();
        let empty: Vec<u32> = Vec::new();
        let s: u32 = empty.par_iter().cloned().sum();
        assert_eq!(s, 0);
        let one = [41u32];
        let out: Vec<u32> = one.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![42]);
        let folded = one
            .par_iter()
            .fold(|| 0u32, |a, &x| a + x)
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(folded, 41);
    }

    #[test]
    fn drops_are_balanced() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        pool4();
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        struct D(#[allow(dead_code)] usize);
        impl D {
            fn new(i: usize) -> D {
                LIVE.fetch_add(1, Ordering::SeqCst);
                D(i)
            }
        }
        impl Drop for D {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let items: Vec<D> = (0..1000).map(D::new).collect();
        assert_eq!(LIVE.load(Ordering::SeqCst), 1000);
        // map consumes and produces owned values...
        let mapped: Vec<D> = items.into_par_iter().map(|d| D::new(d.0 + 1)).collect();
        assert_eq!(LIVE.load(Ordering::SeqCst), 1000);
        // ...filter drops the rejected half...
        let kept: Vec<D> = mapped.into_par_iter().filter(|d| d.0 % 2 == 0).collect();
        assert_eq!(LIVE.load(Ordering::SeqCst), 500);
        // ...and for_each consumes everything.
        kept.into_par_iter().for_each(drop);
        assert_eq!(LIVE.load(Ordering::SeqCst), 0);
    }
}
