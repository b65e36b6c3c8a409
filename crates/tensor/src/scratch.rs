//! Caller-owned scratch arenas for kernel workspaces.
//!
//! The conv/matmul hot path needs per-step workspaces (im2col column
//! matrices, packed weight panels, per-sample gradient staging). The
//! seed allocated fresh `Vec`s/`Tensor`s for these every step; an
//! [`Arena`] instead owns one growable `f32` buffer that callers carve
//! into disjoint slices per step via [`Arena::frame`]. After warm-up the
//! buffer is large enough and a step performs zero heap allocation — a
//! property callers can *assert* through [`Arena::grows`], which counts
//! capacity growth events.
//!
//! Ownership rules (documented contract, enforced by borrows):
//! * An arena belongs to exactly one logical execution stream (one
//!   layer × one sample slot). Parallel samples each use their own arena.
//! * A [`Frame`] mutably borrows the arena: one live frame at a time;
//!   slices taken from it live only as long as the frame.
//! * [`Frame::take`] returns zero-filled slices — callers may rely on
//!   fresh-scratch semantics (im2col padding, gemm accumulators).
//! * The *layer* owns its arenas (one per parallel sample lane); a kernel
//!   only ever borrows a [`Frame`] and allocates nothing in its loops.
//!   After warm-up `grows()` is constant across steps: `experiments
//!   kernels` records that as `grows_stable`, and `msa-lint`'s
//!   `alloc-in-kernel` rule enforces it statically for
//!   `tensor/src/{matmul,conv}.rs` and `nn/src/conv.rs`.

/// A reusable `f32` workspace buffer with an allocation-growth counter.
/// A clone copies the buffer and the counter.
#[derive(Debug, Default, Clone)]
pub struct Arena {
    buf: Vec<f32>,
    grows: u64,
}

impl Arena {
    /// An empty arena; the first frame counts as one growth.
    pub fn new() -> Arena {
        Arena::default()
    }

    /// Pre-sized arena: frames within `capacity` never grow.
    pub fn with_capacity(capacity: usize) -> Arena {
        Arena {
            buf: vec![0.0; capacity],
            grows: 0,
        }
    }

    /// Number of times a frame required the buffer to grow. A steady
    /// state of repeated identical steps must keep this constant — the
    /// "no per-step allocation" assertion used by tests and benches.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Current capacity in `f32` elements.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Read access to the first `len` floats — whatever the most recent
    /// frame's slices left there. Used by callers that persist a
    /// workspace across a forward/backward pair (e.g. im2col column
    /// caches) instead of re-deriving it.
    pub fn filled(&self, len: usize) -> &[f32] {
        &self.buf[..len]
    }

    /// Opens a frame holding `len` scratch floats, growing the buffer if
    /// needed (counted in [`Arena::grows`]). The frame's slices are
    /// zero-filled on [`Frame::take`].
    pub fn frame(&mut self, len: usize) -> Frame<'_> {
        if self.buf.len() < len {
            self.grows += 1;
            self.buf.resize(len, 0.0);
        }
        Frame {
            rest: &mut self.buf[..len],
        }
    }
}

/// One step's workspace: hands out disjoint zero-filled slices carved
/// off the front of the arena buffer.
#[derive(Debug)]
pub struct Frame<'a> {
    rest: &'a mut [f32],
}

impl<'a> Frame<'a> {
    /// Takes the next `len` floats, zero-filled. Panics if the frame was
    /// opened too small — sizing is the caller's contract, and a panic
    /// here means a workspace-size bug, not a recoverable condition.
    pub fn take(&mut self, len: usize) -> &'a mut [f32] {
        assert!(
            len <= self.rest.len(),
            "scratch frame exhausted: requested {len}, remaining {}",
            self.rest.len()
        );
        let (head, tail) = std::mem::take(&mut self.rest).split_at_mut(len);
        self.rest = tail;
        head.fill(0.0);
        head
    }

    /// Remaining floats in this frame.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_reuse_without_growth() {
        let mut a = Arena::new();
        for _ in 0..10 {
            let mut f = a.frame(1000);
            let x = f.take(400);
            let y = f.take(600);
            x[0] = 1.0;
            y[599] = 2.0;
        }
        assert_eq!(a.grows(), 1, "only the warm-up frame may grow");
        assert!(a.capacity() >= 1000);
    }

    #[test]
    fn take_zero_fills_previous_contents() {
        let mut a = Arena::new();
        {
            let mut f = a.frame(8);
            let s = f.take(8);
            s.fill(7.0);
        }
        let mut f = a.frame(8);
        assert!(f.take(8).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn growth_is_counted_per_enlargement() {
        let mut a = Arena::with_capacity(16);
        let _ = a.frame(8);
        let _ = a.frame(16);
        assert_eq!(a.grows(), 0);
        let _ = a.frame(17);
        assert_eq!(a.grows(), 1);
        let _ = a.frame(17);
        assert_eq!(a.grows(), 1);
    }

    #[test]
    #[should_panic(expected = "scratch frame exhausted")]
    fn overdrawn_frame_panics() {
        let mut a = Arena::new();
        let mut f = a.frame(4);
        let _ = f.take(3);
        let _ = f.take(2);
    }

    #[test]
    fn disjoint_slices() {
        let mut a = Arena::new();
        let mut f = a.frame(10);
        let x = f.take(5);
        let y = f.take(5);
        x.fill(1.0);
        y.fill(2.0);
        assert!(x.iter().all(|&v| v == 1.0));
        assert!(y.iter().all(|&v| v == 2.0));
    }
}
