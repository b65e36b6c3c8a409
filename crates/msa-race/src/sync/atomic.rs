//! Instrumented atomics. Values live in real `std` atomics (accessed
//! `SeqCst` while the scheduler serializes, so the value semantics are
//! sequentially consistent); the *requested* ordering drives the
//! happens-before edges the race detector sees:
//!
//! * acquiring load/RMW: joins the location's release-sequence clock,
//! * releasing store: replaces the clock with the writer's,
//! * relaxed store: **clears** it (breaks the release sequence),
//! * releasing RMW: accumulates into it (continues the sequence),
//! * relaxed load/RMW: no edge (RMWs leave the sequence intact).
//!
//! `SeqCst` is modeled as `AcqRel`/`Acquire`/`Release`: its extra total
//! order is not tracked, which only makes the checker *stricter* about
//! code that silently relies on it.

use super::ObjId;
use crate::sched;

pub use std::sync::atomic::Ordering;

macro_rules! instrumented_atomic {
    ($(#[$doc:meta])* $name:ident, $std:ty, $prim:ty) => {
        $(#[$doc])*
        pub struct $name {
            obj: ObjId,
            label: Option<&'static str>,
            value: $std,
        }

        impl $name {
            pub const fn new(value: $prim) -> Self {
                $name {
                    obj: ObjId::new(),
                    label: None,
                    value: <$std>::new(value),
                }
            }

            /// Like `new` with a label used in traces and reports.
            pub const fn named(value: $prim, label: &'static str) -> Self {
                $name {
                    obj: ObjId::new(),
                    label: Some(label),
                    value: <$std>::new(value),
                }
            }

            // The u64 widening is a no-op for AtomicU64 itself.
            #[allow(clippy::unnecessary_cast)]
            pub fn load(&self, ord: Ordering) -> $prim {
                if let Some(ctx) = sched::current() {
                    let v = ctx.sched.atomic_load(
                        ctx.tid,
                        self.obj.get(),
                        self.label,
                        ord,
                        || self.value.load(Ordering::SeqCst) as u64,
                    );
                    v as $prim
                } else {
                    self.value.load(ord)
                }
            }

            #[allow(clippy::unnecessary_cast)]
            pub fn store(&self, value: $prim, ord: Ordering) {
                if let Some(ctx) = sched::current() {
                    ctx.sched.atomic_store(
                        ctx.tid,
                        self.obj.get(),
                        self.label,
                        ord,
                        || {
                            self.value.store(value, Ordering::SeqCst);
                            value as u64
                        },
                    );
                } else {
                    self.value.store(value, ord);
                }
            }

            pub fn swap(&self, value: $prim, ord: Ordering) -> $prim {
                self.rmw(ord, move |_| value)
            }

            pub fn fetch_add(&self, value: $prim, ord: Ordering) -> $prim {
                self.rmw(ord, move |old| old.wrapping_add(value))
            }

            pub fn fetch_sub(&self, value: $prim, ord: Ordering) -> $prim {
                self.rmw(ord, move |old| old.wrapping_sub(value))
            }

            pub fn fetch_max(&self, value: $prim, ord: Ordering) -> $prim {
                self.rmw(ord, move |old| old.max(value))
            }

            /// Shared RMW plumbing: inside a model the scheduler holds
            /// the token, so a load+store pair is atomic.
            #[allow(clippy::unnecessary_cast)]
            fn rmw(&self, ord: Ordering, f: impl Fn($prim) -> $prim) -> $prim {
                if let Some(ctx) = sched::current() {
                    let mut old: $prim = 0;
                    ctx.sched.atomic_rmw(
                        ctx.tid,
                        self.obj.get(),
                        self.label,
                        ord,
                        || {
                            let o = self.value.load(Ordering::SeqCst);
                            let n = f(o);
                            self.value.store(n, Ordering::SeqCst);
                            old = o;
                            (o as u64, n as u64)
                        },
                    );
                    old
                } else {
                    // Fall back to a real compare-exchange loop so the
                    // uninstrumented path is genuinely atomic.
                    let mut cur = self.value.load(Ordering::Relaxed);
                    loop {
                        match self.value.compare_exchange_weak(
                            cur,
                            f(cur),
                            ord,
                            Ordering::Relaxed,
                        ) {
                            Ok(v) => return v,
                            Err(v) => cur = v,
                        }
                    }
                }
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new(0)
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_tuple(stringify!($name))
                    .field(&self.value)
                    .finish()
            }
        }
    };
}

instrumented_atomic!(
    /// Instrumented `AtomicUsize`.
    AtomicUsize,
    std::sync::atomic::AtomicUsize,
    usize
);
instrumented_atomic!(
    /// Instrumented `AtomicU64`.
    AtomicU64,
    std::sync::atomic::AtomicU64,
    u64
);
instrumented_atomic!(
    /// Instrumented `AtomicU8`.
    AtomicU8,
    std::sync::atomic::AtomicU8,
    u8
);

/// Instrumented `AtomicBool`.
pub struct AtomicBool {
    obj: ObjId,
    label: Option<&'static str>,
    value: std::sync::atomic::AtomicBool,
}

impl AtomicBool {
    pub const fn new(value: bool) -> Self {
        AtomicBool {
            obj: ObjId::new(),
            label: None,
            value: std::sync::atomic::AtomicBool::new(value),
        }
    }

    /// Like `new` with a label used in traces and reports.
    pub const fn named(value: bool, label: &'static str) -> Self {
        AtomicBool {
            obj: ObjId::new(),
            label: Some(label),
            value: std::sync::atomic::AtomicBool::new(value),
        }
    }

    pub fn load(&self, ord: Ordering) -> bool {
        if let Some(ctx) = sched::current() {
            ctx.sched.atomic_load(ctx.tid, self.obj.get(), self.label, ord, || {
                u64::from(self.value.load(Ordering::SeqCst))
            }) != 0
        } else {
            self.value.load(ord)
        }
    }

    pub fn store(&self, value: bool, ord: Ordering) {
        if let Some(ctx) = sched::current() {
            ctx.sched.atomic_store(ctx.tid, self.obj.get(), self.label, ord, || {
                self.value.store(value, Ordering::SeqCst);
                u64::from(value)
            });
        } else {
            self.value.store(value, ord);
        }
    }

    pub fn swap(&self, value: bool, ord: Ordering) -> bool {
        if let Some(ctx) = sched::current() {
            let mut old = false;
            ctx.sched.atomic_rmw(ctx.tid, self.obj.get(), self.label, ord, || {
                let o = self.value.load(Ordering::SeqCst);
                self.value.store(value, Ordering::SeqCst);
                old = o;
                (u64::from(o), u64::from(value))
            });
            old
        } else {
            self.value.swap(value, ord)
        }
    }
}

impl Default for AtomicBool {
    fn default() -> Self {
        Self::new(false)
    }
}

impl std::fmt::Debug for AtomicBool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("AtomicBool").field(&self.value).finish()
    }
}
