//! The metrics registry: named counters, gauges, and log-scale histograms.
//!
//! Design constraints (they shape everything here):
//!
//! * **Lock-cheap hot path.** A handle ([`Counter`], [`Gauge`],
//!   [`Histogram`]) is an `Arc` around atomics; recording is a handful of
//!   relaxed atomic ops with no lock. The registry's map is only locked on
//!   handle creation and snapshotting — both cold paths.
//! * **Deterministic export.** Metrics are kept in a `BTreeMap`, so
//!   snapshots enumerate series in name order regardless of creation
//!   order. Metric *values* recorded from simulations are pure functions
//!   of the simulation's own state, so instrumented runs export
//!   identically across repeats.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// A monotonically-increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Creates a free-standing counter (not registered anywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge holding an `f64`.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Self(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// Creates a free-standing gauge (not registered anywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Geometric histogram bucket layout: `HIST_BUCKETS` buckets spanning
/// `[HIST_MIN, HIST_MAX]` with a constant ratio (~3.9% relative error at
/// 480 buckets over ten decades — ample for p50/p95/p99 reporting).
pub const HIST_BUCKETS: usize = 480;
/// Smallest representable histogram value.
pub const HIST_MIN: f64 = 1e-3;
/// Largest representable histogram value.
pub const HIST_MAX: f64 = 1e7;

#[derive(Debug)]
struct HistogramCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Σ values, as f64 bits updated by CAS (observations are sparse
    /// enough that contention is negligible).
    sum_bits: AtomicU64,
    max_bits: AtomicU64,
}

/// A lock-free log-scale histogram for latency-like positive values.
///
/// Quantiles are approximate (one geometric bucket of error); mean and
/// count are exact.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Default for Histogram {
    fn default() -> Self {
        Self(Arc::new(HistogramCore {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            max_bits: AtomicU64::new(0f64.to_bits()),
        }))
    }
}

fn bucket_of(v: f64) -> usize {
    let clamped = v.clamp(HIST_MIN, HIST_MAX);
    let frac = (clamped / HIST_MIN).ln() / (HIST_MAX / HIST_MIN).ln();
    ((frac * (HIST_BUCKETS - 1) as f64).round() as usize).min(HIST_BUCKETS - 1)
}

fn bucket_value(idx: usize) -> f64 {
    let frac = idx as f64 / (HIST_BUCKETS - 1) as f64;
    HIST_MIN * (HIST_MAX / HIST_MIN).powf(frac)
}

impl Histogram {
    /// Creates a free-standing histogram (not registered anywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation; non-finite and negative values are
    /// ignored.
    pub fn record(&self, v: f64) {
        self.record_n(v, 1);
    }

    /// Records `n` observations of the same value `v` with one update per
    /// atomic, so a batch that attributes an equal share to each of its
    /// items costs what a single observation does. Equivalent to `n`
    /// calls of [`Self::record`] (the sum up to float rounding); `n == 0`,
    /// non-finite and negative values are ignored.
    pub fn record_n(&self, v: f64, n: u64) {
        if n == 0 || !v.is_finite() || v < 0.0 {
            return;
        }
        let core = &self.0;
        core.buckets[bucket_of(v)].fetch_add(n, Ordering::Relaxed);
        core.count.fetch_add(n, Ordering::Relaxed);
        let add = v * n as f64;
        let mut cur = core.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + add).to_bits();
            match core.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        let mut cur = core.max_bits.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match core.max_bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Mean of observations; 0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed)) / n as f64
        }
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        f64::from_bits(self.0.max_bits.load(Ordering::Relaxed))
    }

    /// The `q`-quantile; 0 when empty.
    ///
    /// Clamped to [`Self::max`]: a log bucket's representative value is
    /// its upper bound, which can exceed the largest observation (e.g.
    /// p95 = 4.09 reported against max = 4.03), and quantiles above the
    /// true maximum are nonsense. The clamp also guarantees
    /// `quantile(a) ≤ quantile(b) ≤ max()` for `a ≤ b`.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * n as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, b) in self.0.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_value(i).min(self.max());
            }
        }
        bucket_value(HIST_BUCKETS - 1).min(self.max())
    }
}

/// One registered metric.
#[derive(Debug, Clone)]
pub enum Metric {
    /// A [`Counter`].
    Counter(Counter),
    /// A [`Gauge`].
    Gauge(Gauge),
    /// A [`Histogram`].
    Histogram(Histogram),
}

/// The name-to-metric registry.
///
/// `counter`/`gauge`/`histogram` get-or-create: repeated calls with the
/// same name return handles to the same underlying metric, so independent
/// subsystems can share a series without coordinating.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or creates the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics.write();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Gets or creates the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.metrics.write();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Gets or creates the histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.metrics.write();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Name-ordered clones of every registered metric (handles share the
    /// underlying values; cloning is cheap).
    pub fn metrics(&self) -> Vec<(String, Metric)> {
        self.metrics
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.metrics.read().len()
    }

    /// Whether no series are registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("ops");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("ops").get(), 5, "same series by name");
        let g = r.gauge("level");
        g.set(3.25);
        assert_eq!(r.gauge("level").get(), 3.25);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn histogram_quantiles_and_mean() {
        let h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1.0);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 - 500.0).abs() / 500.0 < 0.06, "p50 {p50}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.06, "p99 {p99}");
        assert_eq!(h.max(), 1000.0);
    }

    #[test]
    fn histogram_ignores_garbage() {
        let h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(-1.0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn quantiles_never_exceed_observed_max() {
        // The BENCH_obs regression: log-bucket upper bounds put p95 above
        // the true maximum (p95 4.0897 > max 4.029 for cache_op_latency_us).
        let h = Histogram::new();
        for _ in 0..95 {
            h.record(1.0);
        }
        for _ in 0..5 {
            h.record(4.029);
        }
        assert!(h.quantile(0.95) <= h.max());
        assert!(h.quantile(0.99) <= h.max());
        assert_eq!(h.max(), 4.029);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 64, ..Default::default() })]

        /// Quantiles are monotone in q and bounded by the observed max
        /// for arbitrary inputs: p50 ≤ p95 ≤ p99 ≤ max.
        #[test]
        fn quantile_monotone_and_bounded(
            values in proptest::collection::vec(0.0f64..1e8, 1..200),
        ) {
            use proptest::prelude::*;
            let h = Histogram::new();
            let mut true_max = 0.0f64;
            for &v in &values {
                h.record(v);
                true_max = true_max.max(v);
            }
            let p50 = h.quantile(0.5);
            let p95 = h.quantile(0.95);
            let p99 = h.quantile(0.99);
            let max = h.max();
            prop_assert_eq!(max, true_max);
            prop_assert!(p50 <= p95, "p50 {} > p95 {}", p50, p95);
            prop_assert!(p95 <= p99, "p95 {} > p99 {}", p95, p99);
            prop_assert!(p99 <= max, "p99 {} > max {}", p99, max);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 64, ..Default::default() })]

        /// `record_n(v, n)` is `n` calls of `record(v)`: identical count,
        /// quantiles and max, the sum equal up to float rounding.
        #[test]
        fn record_n_matches_repeated_record(
            batches in proptest::collection::vec((0.0f64..1e8, 0u64..50), 0..40),
        ) {
            use proptest::prelude::*;
            let batched = Histogram::new();
            let single = Histogram::new();
            for &(v, n) in &batches {
                batched.record_n(v, n);
                for _ in 0..n {
                    single.record(v);
                }
            }
            prop_assert_eq!(batched.count(), single.count());
            prop_assert_eq!(batched.max(), single.max());
            for q in [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
                prop_assert_eq!(batched.quantile(q), single.quantile(q));
            }
            let tol = 1e-9 * single.sum().max(1.0);
            prop_assert!(
                (batched.sum() - single.sum()).abs() <= tol,
                "sum {} vs {}", batched.sum(), single.sum()
            );
        }
    }

    #[test]
    fn record_n_ignores_empty_and_garbage() {
        let h = Histogram::new();
        h.record_n(5.0, 0);
        h.record_n(f64::NAN, 3);
        h.record_n(f64::INFINITY, 3);
        h.record_n(f64::NEG_INFINITY, 3);
        h.record_n(-1.0, 3);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.max(), 0.0);
        h.record_n(2.5, 4);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 10.0);
        assert_eq!(h.max(), 2.5);
    }

    #[test]
    fn metrics_enumerate_in_name_order() {
        let r = Registry::new();
        r.counter("zz");
        r.gauge("aa");
        r.histogram("mm");
        let names: Vec<String> = r.metrics().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["aa", "mm", "zz"]);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn concurrent_recording_is_exact_for_counters() {
        let r = std::sync::Arc::new(Registry::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || {
                    let c = r.counter("hits");
                    let h = r.histogram("lat");
                    for i in 0..1000 {
                        c.inc();
                        h.record(1.0 + i as f64);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.counter("hits").get(), 4000);
        assert_eq!(r.histogram("lat").count(), 4000);
    }
}
