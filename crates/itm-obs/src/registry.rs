//! The metric registry: sharded name→handle maps plus the enable gate.
//!
//! Registration (first lookup of a name) takes a shard mutex; every
//! subsequent operation goes through a cheap cloned handle that touches
//! only atomics. Sixteen shards keep concurrent registration from
//! different subsystems off a single lock.

use crate::histogram::{Histogram, HistogramInner};
use crate::report::MetricsReport;
use crate::span::{SpanGuard, SpanStats};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const N_SHARDS: usize = 16;

#[derive(Default)]
struct Shard {
    counters: Mutex<HashMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<HashMap<String, Arc<HistogramInner>>>,
    spans: Mutex<HashMap<String, Arc<SpanStats>>>,
}

/// A monotonic counter handle. Cloning is cheap (two `Arc`s); all clones
/// address the same series.
#[derive(Clone)]
pub struct Counter {
    value: Arc<AtomicU64>,
    enabled: Arc<AtomicBool>,
}

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A registry of counters, histograms, and span timings.
///
/// [`crate::global`] returns the process-wide instance; tests may build
/// private ones so their assertions are immune to concurrent global use.
pub struct Registry {
    enabled: Arc<AtomicBool>,
    shards: Vec<Shard>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// A registry with collection enabled.
    pub fn new() -> Registry {
        Registry::with_enabled(true)
    }

    /// A registry with collection disabled (the global default).
    pub fn new_disabled() -> Registry {
        Registry::with_enabled(false)
    }

    fn with_enabled(on: bool) -> Registry {
        Registry {
            enabled: Arc::new(AtomicBool::new(on)),
            shards: (0..N_SHARDS).map(|_| Shard::default()).collect(),
        }
    }

    /// Turn collection on or off. Handles already handed out observe the
    /// change immediately (they share the flag).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether collection is on.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn shard(&self, name: &str) -> &Shard {
        &self.shards[fnv1a(name) as usize % N_SHARDS]
    }

    /// Fetch-or-register a counter.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.shard(name).counters.lock();
        let value = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .clone();
        Counter {
            value,
            enabled: self.enabled.clone(),
        }
    }

    /// Fetch-or-register a labeled counter, keyed by its canonical
    /// `name{k1="v1",…}` form (labels sorted by key).
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.counter(&canonical_name(name, labels))
    }

    /// Fetch-or-register a histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.shard(name).histograms.lock();
        let inner = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(HistogramInner::new()))
            .clone();
        Histogram::new(inner, self.enabled.clone())
    }

    /// Open a scoped span timer; see [`SpanGuard`].
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        SpanGuard::enter(self, name)
    }

    pub(crate) fn record_span(&self, path: &str, elapsed_ns: u64) {
        let stats = {
            let mut map = self.shard(path).spans.lock();
            map.entry(path.to_string())
                .or_insert_with(|| Arc::new(SpanStats::new()))
                .clone()
        };
        stats.record(elapsed_ns);
    }

    /// Freeze every series into a deterministically-ordered report.
    pub fn snapshot(&self) -> MetricsReport {
        let mut report = MetricsReport::default();
        for shard in &self.shards {
            for (name, v) in shard.counters.lock().iter() {
                report
                    .counters
                    .insert(name.clone(), v.load(Ordering::Relaxed));
            }
            for (name, h) in shard.histograms.lock().iter() {
                report.histograms.insert(name.clone(), h.snapshot());
            }
            for (name, s) in shard.spans.lock().iter() {
                report.spans.insert(name.clone(), s.snapshot());
            }
        }
        report
    }

    /// Zero every series in place. Handles stay valid and keep counting.
    pub fn reset(&self) {
        for shard in &self.shards {
            for v in shard.counters.lock().values() {
                v.store(0, Ordering::Relaxed);
            }
            for h in shard.histograms.lock().values() {
                h.reset();
            }
            for s in shard.spans.lock().values() {
                s.reset();
            }
        }
    }
}

/// Render `name{k1="v1",k2="v2"}` with labels sorted by key. Idempotent
/// for a given label set, so it is safe to use as a series identity.
pub fn canonical_name(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort_unstable();
    let mut out = String::with_capacity(name.len() + 16 * sorted.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out.push('}');
    out
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_count_and_share_series() {
        let r = Registry::new();
        let a = r.counter("x.y");
        let b = r.counter("x.y");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(r.snapshot().counters["x.y"], 5);
    }

    #[test]
    fn disabled_registry_drops_increments() {
        let r = Registry::new_disabled();
        let c = r.counter("quiet");
        c.inc();
        assert_eq!(c.get(), 0);
        r.set_enabled(true);
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn labels_are_canonicalized() {
        assert_eq!(
            canonical_name("dns.queries", &[("technique", "cache_probe")]),
            "dns.queries{technique=\"cache_probe\"}"
        );
        // Order-insensitive.
        let r = Registry::new();
        let a = r.counter_with("m", &[("b", "2"), ("a", "1")]);
        let b = r.counter_with("m", &[("a", "1"), ("b", "2")]);
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(r.snapshot().counters["m{a=\"1\",b=\"2\"}"], 1);
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let r = Registry::new();
        let c = r.counter("z");
        c.add(7);
        r.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(c.get(), 1);
    }
}
