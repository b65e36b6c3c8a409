//! # msa-obs — deterministic observability for the MSA stack
//!
//! The paper's evidence is *measured* behaviour: Horovod-timeline style
//! breakdowns of compute vs. allreduce time, scaling-efficiency tables,
//! module-utilization arguments. This crate is the measuring instrument
//! for the reproduction — and because the reproduction's headline
//! guarantee is bit-exact determinism (see `tests/checkpoint_resume.rs`),
//! the instrument itself must be deterministic: **two identical runs must
//! produce bit-identical metric snapshots.**
//!
//! That constraint drives every design decision here:
//!
//! * **No wall clocks.** Durations come from the analytic cost models
//!   ([`msa_core::SimTime`]) via a [`VirtualClock`], never from
//!   `Instant::now()`.
//! * **Integer time.** [`SimTime`] is an integer picosecond count, and
//!   time accumulators store that count as a `u64`. Integer addition is
//!   exact and commutative, so per-phase totals equal the wall total
//!   *exactly* and merge order cannot matter.
//! * **Order-independent aggregation.** Counters add, times add,
//!   histograms bucket-add and keep min/max — all commutative. The only
//!   last-write-wins metric is the gauge, which callers must set from
//!   deterministic state.
//! * **Stable serialization.** [`MetricsRegistry::snapshot`] returns
//!   entries sorted by canonical key; [`Snapshot::to_json`] writes them
//!   through the workspace's one JSON writer, [`json::Obj`] (sorted keys,
//!   shortest-roundtrip f64, explicit bit patterns), so byte equality of
//!   two snapshot files is a meaningful determinism check.
//!
//! ## Metric naming
//!
//! A metric key is `name{label=value,...}` with labels sorted by label
//! name — see [`key`]. Names are dot-separated, lowest-frequency prefix
//! first: `net.comm.bytes_sent`, `phase.allreduce.time`,
//! `trainer.epoch.mean_loss`, `sched.module.utilization`.
//!
//! ## Who records
//!
//! * `msa-net`: each `ThreadComm` endpoint's `CommStats` counts wire
//!   traffic per collective (`net.comm.{msgs,bytes}_{sent,recv}{op=…}`)
//!   and prices each receive on its α–β link (`net.comm.wait{op=…}`),
//!   checked against `CollectiveAlgo` in `tests/observability.rs`.
//! * `distrib::Trainer::recorder(reg)`: `trainer.phase.*{rank=…,run=…}`,
//!   which partition the modeled wall exactly, and the merged comm stats.
//! * `ScheduleReport::record_into` (makespan, waits, energy,
//!   `sched.module.*`) and `StagingPlan::record_into` (staging time, WAN
//!   bytes per strategy).
//! * Fault paths too: a rank killed by a `FaultPlan` records its partial
//!   phase totals before unwinding, so faulted+resumed runs sum to the
//!   uninterrupted totals and snapshot bit-identically.
//!
//! `experiments obs` pins all of them in the committed `BENCH_pr3.json`;
//! msa-lint's `print` rule keeps ad-hoc `println!` telemetry out of
//! library code.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Mutex;

pub mod json;

pub use msa_core::SimTime;

use json::Obj;

/// The span in integer picoseconds: [`SimTime::as_ps`], kept under
/// its old name for the host-clock benchmark's adapter.
pub fn simtime_to_ps(t: SimTime) -> u64 {
    t.as_ps()
}

/// Builds a canonical metric key: `name{k1=v1,k2=v2}`, labels sorted by
/// label name. With no labels the key is just `name`.
///
/// Canonical keys make registry order (and therefore snapshot bytes)
/// independent of the order call sites happen to list their labels.
pub fn key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<&(&str, &str)> = labels.iter().collect();
    sorted.sort_by_key(|(k, _)| *k);
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out.push('}');
    out
}

/// Sink for measurements, implemented by [`MetricsRegistry`].
/// Object-safe, so instrumented code can hold a `&dyn Recorder`.
///
/// All methods take `&self`; implementations must be thread-safe
/// (`Send + Sync`) because ranks record concurrently.
pub trait Recorder: Send + Sync {
    /// Adds `delta` to the counter at `key`.
    fn add(&self, key: &str, delta: u64);
    /// Sets the gauge at `key` (last write wins).
    fn gauge(&self, key: &str, value: f64);
    /// Adds `ps` picoseconds to the time accumulator at `key`.
    fn time_ps(&self, key: &str, ps: u64);
    /// Observes one value in the fixed-bucket histogram at `key`.
    fn observe(&self, key: &str, value: f64);
}

/// Number of histogram buckets: decades from ≤1e-12 up to >1e12.
///
/// Bucket `i < 25` holds values `v ≤ 10^(i-12)`; bucket 25 is overflow.
pub const HIST_BUCKETS: usize = 26;

/// Bucket upper bounds as decimal literals: each parses to the f64
/// nearest the exact decade, identically on every platform (unlike a
/// `*= 10.0` loop or `powi`, which drift).
const BUCKET_BOUNDS: [f64; HIST_BUCKETS - 1] = [
    1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2,
    1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12,
];

fn bucket_index(value: f64) -> usize {
    // Explicit comparisons (not log10) so the mapping is exact at the
    // boundaries.
    for (i, bound) in BUCKET_BOUNDS.iter().enumerate() {
        if value <= *bound {
            return i;
        }
    }
    HIST_BUCKETS - 1
}

/// Upper bound of histogram bucket `i` (`f64::INFINITY` for overflow).
pub fn bucket_upper_bound(i: usize) -> f64 {
    if i >= HIST_BUCKETS - 1 {
        f64::INFINITY
    } else {
        BUCKET_BOUNDS[i]
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Hist {
    count: u64,
    min_bits: u64,
    max_bits: u64,
    buckets: [u64; HIST_BUCKETS],
}

impl Hist {
    fn new() -> Self {
        Hist {
            count: 0,
            min_bits: f64::INFINITY.to_bits(),
            max_bits: f64::NEG_INFINITY.to_bits(),
            buckets: [0; HIST_BUCKETS],
        }
    }

    fn observe(&mut self, value: f64) {
        assert!(value.is_finite(), "histograms take finite values, got {value}");
        self.count += 1;
        if value < f64::from_bits(self.min_bits) {
            self.min_bits = value.to_bits();
        }
        if value > f64::from_bits(self.max_bits) {
            self.max_bits = value.to_bits();
        }
        self.buckets[bucket_index(value)] += 1;
    }
}

/// One aggregated metric. Variants mirror the [`Recorder`] methods.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Metric {
    Counter(u64),
    /// Gauge value as an f64 bit pattern (bit-stable equality).
    Gauge(u64),
    TimePs(u64),
    // Boxed: the bucket array is an order of magnitude bigger than the
    // scalar variants (clippy::large_enum_variant).
    Histogram(Box<Hist>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::TimePs(_) => "time",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// Thread-safe, deterministic metric store.
///
/// Keys map to metrics in a `BTreeMap`, so iteration (and the snapshot)
/// is ordered by key regardless of insertion order. All aggregation is
/// commutative except gauges (documented last-write-wins).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        match self.inner.lock() {
            Ok(g) => g,
            // A panicking recorder thread must not wedge the registry;
            // the map itself is always in a consistent state.
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn update(&self, key: &str, fresh: Metric, merge: impl FnOnce(&mut Metric)) {
        let mut map = self.lock();
        match map.get_mut(key) {
            Some(existing) => {
                assert_eq!(
                    existing.kind(),
                    fresh.kind(),
                    "metric {key:?} recorded as both {} and {}",
                    existing.kind(),
                    fresh.kind()
                );
                merge(existing);
            }
            None => {
                map.insert(key.to_string(), fresh);
            }
        }
    }

    /// Number of distinct metric keys.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Takes a stable, ordered snapshot of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.lock();
        Snapshot {
            entries: map
                .iter()
                .map(|(k, m)| SnapshotEntry {
                    key: k.clone(),
                    value: match m {
                        Metric::Counter(n) => MetricValue::Counter(*n),
                        Metric::Gauge(bits) => MetricValue::Gauge(*bits),
                        Metric::TimePs(ps) => MetricValue::TimePs(*ps),
                        Metric::Histogram(h) => MetricValue::Histogram {
                            count: h.count,
                            min_bits: h.min_bits,
                            max_bits: h.max_bits,
                            buckets: h
                                .buckets
                                .iter()
                                .enumerate()
                                .filter(|(_, n)| **n > 0)
                                .map(|(i, n)| (i as u8, *n))
                                .collect(),
                        },
                    },
                })
                .collect(),
        }
    }

    /// Merges a snapshot into this registry: counters and times add,
    /// histograms bucket-add, gauges overwrite.
    ///
    /// This is how per-rank registries fold into a run-level one — the
    /// engine merges in rank order, and because every additive operation
    /// is commutative the result is identical for any order anyway.
    pub fn merge_snapshot(&self, snap: &Snapshot) {
        for entry in &snap.entries {
            match &entry.value {
                MetricValue::Counter(n) => self.add(&entry.key, *n),
                MetricValue::Gauge(bits) => self.gauge(&entry.key, f64::from_bits(*bits)),
                MetricValue::TimePs(ps) => self.time_ps(&entry.key, *ps),
                MetricValue::Histogram {
                    count,
                    min_bits,
                    max_bits,
                    buckets,
                } => {
                    let mut h = Hist::new();
                    h.count = *count;
                    h.min_bits = *min_bits;
                    h.max_bits = *max_bits;
                    for (i, n) in buckets {
                        h.buckets[*i as usize] = *n;
                    }
                    self.update(&entry.key, Metric::Histogram(Box::new(h.clone())), |m| {
                        if let Metric::Histogram(dst) = m {
                            dst.count += h.count;
                            if f64::from_bits(h.min_bits) < f64::from_bits(dst.min_bits) {
                                dst.min_bits = h.min_bits;
                            }
                            if f64::from_bits(h.max_bits) > f64::from_bits(dst.max_bits) {
                                dst.max_bits = h.max_bits;
                            }
                            for (a, b) in dst.buckets.iter_mut().zip(&h.buckets) {
                                *a += b;
                            }
                        }
                    });
                }
            }
        }
    }
}

impl Recorder for MetricsRegistry {
    fn add(&self, key: &str, delta: u64) {
        self.update(key, Metric::Counter(delta), |m| {
            if let Metric::Counter(n) = m {
                *n += delta;
            }
        });
    }

    fn gauge(&self, key: &str, value: f64) {
        assert!(value.is_finite(), "gauge {key:?} must be finite, got {value}");
        self.update(key, Metric::Gauge(value.to_bits()), |m| {
            if let Metric::Gauge(bits) = m {
                *bits = value.to_bits();
            }
        });
    }

    fn time_ps(&self, key: &str, ps: u64) {
        self.update(key, Metric::TimePs(ps), |m| {
            if let Metric::TimePs(total) = m {
                *total += ps;
            }
        });
    }

    fn observe(&self, key: &str, value: f64) {
        let mut fresh = Hist::new();
        fresh.observe(value);
        self.update(key, Metric::Histogram(Box::new(fresh)), |m| {
            if let Metric::Histogram(h) = m {
                h.observe(value);
            }
        });
    }
}

/// The exported value of one metric, bit-stable (`Eq`-comparable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotone event count.
    Counter(u64),
    /// Gauge, as the f64 bit pattern of its last value.
    Gauge(u64),
    /// Accumulated time in integer picoseconds.
    TimePs(u64),
    /// Fixed-bucket histogram; `buckets` lists only non-empty buckets as
    /// `(bucket_index, count)`.
    Histogram {
        /// Total observations.
        count: u64,
        /// Smallest observed value (f64 bits; +inf bits when empty).
        min_bits: u64,
        /// Largest observed value (f64 bits; -inf bits when empty).
        max_bits: u64,
        /// Non-empty buckets as `(index, count)`, ascending index.
        buckets: Vec<(u8, u64)>,
    },
}

impl MetricValue {
    /// Counter value, if this is a counter.
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            MetricValue::Counter(n) => Some(*n),
            _ => None,
        }
    }

    /// Accumulated picoseconds, if this is a time metric.
    pub fn as_time_ps(&self) -> Option<u64> {
        match self {
            MetricValue::TimePs(ps) => Some(*ps),
            _ => None,
        }
    }

    /// Estimated `q`-quantile (`0.0 ≤ q ≤ 1.0`) of a histogram.
    ///
    /// Selects the bucket containing the `q·count`-th observation and
    /// interpolates linearly inside it, with the bucket's range clamped
    /// to the observed `[min, max]` — so a histogram whose observations
    /// all share one bucket of width zero after clamping (e.g. a single
    /// value) returns that value exactly, `quantile(0.0)` is exactly
    /// `min` and `quantile(1.0)` is exactly `max`. Closed form at bucket
    /// boundaries: when `q·count` lands on the last observation of a
    /// bucket, the result is that bucket's (clamped) upper bound.
    ///
    /// The estimate is deterministic — it reads only the bucket counts
    /// and min/max, which are bit-stable — and `None` for non-histograms
    /// and for empty histograms.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let MetricValue::Histogram {
            count,
            min_bits,
            max_bits,
            buckets,
        } = self
        else {
            return None;
        };
        if *count == 0 {
            return None;
        }
        assert!((0.0..=1.0).contains(&q), "quantile wants q in [0,1], got {q}");
        let min = f64::from_bits(*min_bits);
        let max = f64::from_bits(*max_bits);
        let target = q * (*count as f64);
        let mut before = 0u64;
        for (i, n) in buckets {
            let after = before + n;
            if after as f64 >= target {
                let i = *i as usize;
                // Bucket range, clamped to what was actually observed
                // (bucket 0 has no finite lower bound; the overflow
                // bucket has no finite upper bound).
                let lo = if i == 0 {
                    min
                } else {
                    bucket_upper_bound(i - 1).max(min)
                };
                let hi = bucket_upper_bound(i).min(max).max(lo);
                let frac = ((target - before as f64) / *n as f64).clamp(0.0, 1.0);
                return Some(lo + (hi - lo) * frac);
            }
            before = after;
        }
        Some(max)
    }
}

/// One `(key, value)` pair of a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEntry {
    /// Canonical metric key (see [`key`]).
    pub key: String,
    /// Bit-stable value.
    pub value: MetricValue,
}

/// A stable, ordered export of a [`MetricsRegistry`].
///
/// Entries are sorted by key; equality is bitwise. Two identical runs
/// must produce `Snapshot`s for which `a == b` *and*
/// `a.to_json() == b.to_json()` byte-for-byte — that is the determinism
/// contract CI enforces.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// All metrics, ascending by key.
    pub entries: Vec<SnapshotEntry>,
}

impl Snapshot {
    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no metrics were recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a metric by exact canonical key.
    pub fn get(&self, key: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|e| e.key.as_str().cmp(key))
            .ok()
            .map(|i| &self.entries[i].value)
    }

    /// Estimated `q`-quantile of the histogram at `key` — the SLO-math
    /// entry point (`snapshot.quantile("serve.latency{…}", 0.99)`). See
    /// [`MetricValue::quantile`]; `None` when the key is missing, not a
    /// histogram, or empty.
    pub fn quantile(&self, key: &str, q: f64) -> Option<f64> {
        self.get(key).and_then(|v| v.quantile(q))
    }

    /// Sum of `TimePs` values over all keys starting with `prefix`.
    pub fn time_ps_with_prefix(&self, prefix: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.key.starts_with(prefix))
            .filter_map(|e| e.value.as_time_ps())
            .sum()
    }

    /// Canonical JSON encoding, one [`json::Obj`] row per entry: entries
    /// key-sorted, integers exact, every float shortest-roundtrip (a
    /// gauge beside its bit pattern).
    pub fn to_json(&self) -> String {
        let rows = self.entries.iter().map(|e| {
            let row = Obj::new().text("key", &e.key);
            match &e.value {
                MetricValue::Counter(n) => row.text("type", "counter").field("value", n),
                MetricValue::Gauge(bits) => row
                    .text("type", "gauge")
                    .field("value", f64::from_bits(*bits))
                    .hash("bits", *bits),
                MetricValue::TimePs(ps) => row
                    .text("type", "time")
                    .field("ps", ps)
                    .field("secs", SimTime::from_ps(*ps).as_secs()),
                MetricValue::Histogram {
                    count,
                    min_bits,
                    max_bits,
                    buckets,
                } => {
                    let mut row = row.text("type", "histogram").field("count", count);
                    if *count > 0 {
                        row = row
                            .field("min", f64::from_bits(*min_bits))
                            .field("max", f64::from_bits(*max_bits));
                    }
                    let buckets: Vec<String> =
                        buckets.iter().map(|(i, n)| format!("[{i},{n}]")).collect();
                    row.field("buckets", format_args!("[{}]", buckets.join(",")))
                }
            }
        });
        let doc = Obj::new().text("format", "msa-obs-v1");
        format!("{}\n", doc.rows("metrics", rows).doc())
    }

    /// The canonical JSON as bytes (what CI diffs between runs).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_json().into_bytes()
    }

    /// A snapshot containing only the entries whose key satisfies
    /// `keep`, in the same (sorted) order.
    ///
    /// This is the bit-identicality comparator's scalpel: when a perf
    /// feature is *expected* to move a known set of modeled-time keys
    /// (and nothing else), compare `filtered` snapshots that exclude
    /// exactly those keys byte-for-byte, and assert the excluded keys
    /// moved in the promised direction separately.
    pub fn filtered(&self, mut keep: impl FnMut(&str) -> bool) -> Snapshot {
        Snapshot {
            entries: self
                .entries
                .iter()
                .filter(|e| keep(&e.key))
                .cloned()
                .collect(),
        }
    }
}

/// A rank-local virtual clock: the sum of the model-priced [`SimTime`]
/// spans it has advanced by. Integer picoseconds, so the order of the
/// spans cannot change the total. Deliberately `!Sync` (one clock per
/// rank/thread).
#[derive(Debug, Default)]
pub struct VirtualClock {
    now: Cell<SimTime>,
}

impl VirtualClock {
    /// A clock at virtual time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances by a model-priced span; returns the span in picoseconds.
    pub fn advance(&self, dt: SimTime) -> u64 {
        self.now.set(self.now.get() + dt);
        dt.as_ps()
    }

    /// Current virtual time in picoseconds.
    pub fn now_ps(&self) -> u64 {
        self.now.get().as_ps()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_canonical() {
        assert_eq!(key("a.b", &[]), "a.b");
        assert_eq!(
            key("net.bytes", &[("rank", "3"), ("op", "ring")]),
            "net.bytes{op=ring,rank=3}"
        );
        // Label order at the call site must not matter.
        assert_eq!(
            key("x", &[("b", "2"), ("a", "1")]),
            key("x", &[("a", "1"), ("b", "2")])
        );
    }

    #[test]
    fn counters_and_times_accumulate() {
        let reg = MetricsRegistry::new();
        reg.add("c", 2);
        reg.add("c", 3);
        reg.time_ps("t", 1_500_000);
        reg.time_ps("t", 2_500_000);
        // A virtual clock sums model-priced spans in exact picoseconds.
        let clock = VirtualClock::new();
        for (phase, us) in [("compute", 250.0), ("compute", 250.0), ("allreduce", 100.0)] {
            let ps = clock.advance(SimTime::from_micros(us));
            reg.time_ps(&format!("phase.{phase}.time"), ps);
            reg.add(&format!("phase.{phase}.calls"), 1);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.get("c"), Some(&MetricValue::Counter(5)));
        assert_eq!(snap.get("t").and_then(MetricValue::as_time_ps), Some(4_000_000));
        let compute = snap
            .get("phase.compute.time")
            .and_then(MetricValue::as_time_ps);
        assert_eq!(compute, Some(500_000_000));
        assert_eq!(clock.now(), SimTime::from_micros(600.0));
        // Phase times partition the clock exactly; the `.calls` counters
        // under the same prefix are not times and add nothing.
        assert_eq!(snap.time_ps_with_prefix("phase."), clock.now_ps());
    }

    #[test]
    fn gauges_last_write_wins() {
        let reg = MetricsRegistry::new();
        reg.gauge("g", 1.5);
        reg.gauge("g", -2.25);
        assert_eq!(
            reg.snapshot().get("g"),
            Some(&MetricValue::Gauge((-2.25f64).to_bits()))
        );
    }

    #[test]
    fn snapshot_is_sorted_and_insertion_order_free() {
        let a = MetricsRegistry::new();
        a.add("z", 1);
        a.add("a", 1);
        a.add("m", 1);
        let b = MetricsRegistry::new();
        b.add("m", 1);
        b.add("z", 1);
        b.add("a", 1);
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.snapshot().to_bytes(), b.snapshot().to_bytes());
        let snap = a.snapshot();
        let mut sorted = snap.entries.clone();
        sorted.sort_by(|x, y| x.key.cmp(&y.key));
        assert_eq!(snap.entries, sorted);
    }

    #[test]
    fn filtered_keeps_matching_entries_in_order() {
        let reg = MetricsRegistry::new();
        reg.add("trainer.steps{rank=0}", 4);
        reg.time_ps("trainer.sim_wall{rank=0}", 99);
        reg.time_ps("trainer.phase.stage.time{rank=0}", 7);
        let snap = reg.snapshot();
        let kept = snap.filtered(|k| !k.starts_with("trainer.sim_wall"));
        assert_eq!(kept.len(), 2);
        assert!(kept.get("trainer.sim_wall{rank=0}").is_none());
        assert_eq!(kept.get("trainer.steps{rank=0}"), snap.get("trainer.steps{rank=0}"));
        // Still canonical: filtering commutes with serialization order.
        let mut sorted = kept.entries.clone();
        sorted.sort_by(|x, y| x.key.cmp(&y.key));
        assert_eq!(kept.entries, sorted);
        // Keep-everything is the identity, bytes included.
        assert_eq!(snap.filtered(|_| true).to_bytes(), snap.to_bytes());
    }

    #[test]
    fn histogram_buckets_min_max() {
        let reg = MetricsRegistry::new();
        for v in [1e-13, 0.5, 1.0, 3.0, 1e13] {
            reg.observe("h", v);
        }
        let snap = reg.snapshot();
        let Some(MetricValue::Histogram {
            count,
            min_bits,
            max_bits,
            buckets,
        }) = snap.get("h")
        else {
            panic!("expected histogram");
        };
        assert_eq!(*count, 5);
        assert_eq!(f64::from_bits(*min_bits), 1e-13);
        assert_eq!(f64::from_bits(*max_bits), 1e13);
        // 1e-13 → bucket 0 (≤1e-12); 0.5, 1.0 → bucket 12 (≤1e0);
        // 3.0 → bucket 13 (≤1e1); 1e13 → overflow bucket 25.
        assert_eq!(buckets.as_slice(), &[(0, 1), (12, 2), (13, 1), (25, 1)]);
        assert!(bucket_upper_bound(25).is_infinite());
        assert_eq!(bucket_upper_bound(12), 1.0);
    }

    #[test]
    fn quantile_is_exact_at_bucket_boundaries() {
        // Two observations sitting exactly on decade bounds: 1.0 fills
        // bucket 12 (≤1e0), 10.0 fills bucket 13 (≤1e1). The median
        // target q·count = 1 lands on the last observation of bucket 12,
        // so the closed form is that bucket's upper bound exactly.
        let reg = MetricsRegistry::new();
        reg.observe("h", 1.0);
        reg.observe("h", 10.0);
        let snap = reg.snapshot();
        assert_eq!(snap.quantile("h", 0.5), Some(1.0));
        // q=0 is exactly min, q=1 exactly max (clamped bucket ends).
        assert_eq!(snap.quantile("h", 0.0), Some(1.0));
        assert_eq!(snap.quantile("h", 1.0), Some(10.0));

        // A boundary landing exactly on a cumulative count: buckets
        // {12: 2 obs, 13: 2 obs}, q=0.5 ⇒ target 2 ⇒ frac 1 in bucket 12
        // ⇒ its upper bound 1e0.
        let reg = MetricsRegistry::new();
        for v in [0.5, 1.0, 3.0, 10.0] {
            reg.observe("h", v);
        }
        assert_eq!(reg.snapshot().quantile("h", 0.5), Some(1.0));
        assert_eq!(reg.snapshot().quantile("h", 1.0), Some(10.0));
    }

    #[test]
    fn quantile_interpolates_within_a_clamped_bucket() {
        // 10 observations, all in bucket 13 (1e0, 1e1]: the bucket range
        // clamps to the observed [2.0, 10.0], so q=0.25 ⇒ target 2.5 ⇒
        // frac 0.25 ⇒ 2 + 0.25·(10−2) = 4.0 in closed form.
        let reg = MetricsRegistry::new();
        reg.observe("h", 2.0);
        reg.observe("h", 10.0);
        for _ in 0..8 {
            reg.observe("h", 5.0);
        }
        assert_eq!(reg.snapshot().quantile("h", 0.25), Some(4.0));
        // A single value collapses the band: every quantile is exact.
        let reg = MetricsRegistry::new();
        reg.observe("one", 3.5);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(reg.snapshot().quantile("one", q), Some(3.5));
        }
    }

    #[test]
    fn quantile_clamps_the_overflow_bucket_and_rejects_non_histograms() {
        // Overflow bucket (25) has an infinite upper bound; the observed
        // max keeps the estimate finite.
        let reg = MetricsRegistry::new();
        reg.observe("h", 2e13);
        reg.observe("h", 5e13);
        assert_eq!(reg.snapshot().quantile("h", 1.0), Some(5e13));
        assert_eq!(reg.snapshot().quantile("h", 0.99).map(f64::is_finite), Some(true));
        // Non-histograms and missing keys answer None.
        reg.add("c", 1);
        assert_eq!(reg.snapshot().quantile("c", 0.5), None);
        assert_eq!(reg.snapshot().quantile("absent", 0.5), None);
    }

    #[test]
    fn merge_is_additive_and_deterministic() {
        let run = || {
            let local_a = MetricsRegistry::new();
            local_a.add("steps", 4);
            local_a.time_ps("wait", 100);
            local_a.observe("h", 2.0);
            let local_b = MetricsRegistry::new();
            local_b.add("steps", 6);
            local_b.time_ps("wait", 50);
            local_b.observe("h", 0.5);
            (local_a, local_b)
        };

        let (a, b) = run();
        let fwd = MetricsRegistry::new();
        fwd.merge_snapshot(&a.snapshot());
        fwd.merge_snapshot(&b.snapshot());

        let (a, b) = run();
        let rev = MetricsRegistry::new();
        rev.merge_snapshot(&b.snapshot());
        rev.merge_snapshot(&a.snapshot());

        assert_eq!(fwd.snapshot().to_bytes(), rev.snapshot().to_bytes());
        assert_eq!(fwd.snapshot().get("steps"), Some(&MetricValue::Counter(10)));
        assert_eq!(
            fwd.snapshot().get("wait").and_then(MetricValue::as_time_ps),
            Some(150)
        );
    }

    #[test]
    #[should_panic(expected = "recorded as both")]
    fn type_confusion_is_a_bug() {
        let reg = MetricsRegistry::new();
        reg.add("x", 1);
        reg.gauge("x", 1.0);
    }

    #[test]
    fn group_api_chains() {
        let row = Obj::new().field("a", 1).field("b", 2.5);
        let doc = Obj::new()
            .field("n", 3)
            .text("name", "gru")
            .rows("rows", [row, Obj::new().text("c", "x")])
            .rows("none", [])
            .field("nested", Obj::new().field("d", true))
            .doc();
        let want = r#"{
  "n": 3,
  "name": "gru",
  "rows": [
    {"a": 1, "b": 2.5},
    {"c": "x"}
  ],
  "none": [
  ],
  "nested": {"d": true}
}"#;
        assert_eq!(doc, want);
    }

    #[test]
    fn json_is_stable_and_escaped() {
        assert_eq!(
            MetricsRegistry::new().snapshot().to_json(),
            "{\n  \"format\": \"msa-obs-v1\",\n  \"metrics\": [\n  ]\n}\n"
        );
        let reg = MetricsRegistry::new();
        reg.add("c", 3);
        reg.gauge("g", 0.1);
        reg.time_ps("t", 1_500_000);
        for v in [0.5, 3.0, 3.0] {
            reg.observe("h", v);
        }
        reg.add("q\"b\\s\nn\u{1}x", 1);
        // A histogram with no observations, as only a merge can make one.
        let empty = Metric::Histogram(Box::new(Hist::new()));
        reg.lock().insert("e".into(), empty);
        let want = r#"{
  "format": "msa-obs-v1",
  "metrics": [
    {"key": "c", "type": "counter", "value": 3},
    {"key": "e", "type": "histogram", "count": 0, "buckets": []},
    {"key": "g", "type": "gauge", "value": 0.1, "bits": "3fb999999999999a"},
    {"key": "h", "type": "histogram", "count": 3, "min": 0.5, "max": 3, "buckets": [[12,1],[13,2]]},
    {"key": "q\"b\\s\nn\u0001x", "type": "counter", "value": 1},
    {"key": "t", "type": "time", "ps": 1500000, "secs": 0.0000015}
  ]
}
"#;
        assert_eq!(reg.snapshot().to_json(), want);
    }

    #[test]
    fn simtime_ps_roundtrip() {
        for us in [0.0, 0.5, 1.0, 123.456, 1e9] {
            let t = SimTime::from_micros(us);
            assert_eq!(SimTime::from_ps(t.as_ps()), t);
            assert!((t.as_secs() - us * 1e-6).abs() < 1e-12);
        }
        assert_eq!(SimTime::from_micros(1.0).as_ps(), 1_000_000);
    }
}
