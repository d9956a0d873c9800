//! Lightweight, dependency-minimal instrumentation for the traffic-map
//! pipeline.
//!
//! Three primitives, one registry:
//!
//! * **Counters** — monotonic, optionally labeled
//!   (`dns.queries{technique="cache_probe"}`). One relaxed atomic add on
//!   the hot path.
//! * **Histograms** — fixed log₂ buckets (65 of them, covering all of
//!   `u64`), for value distributions like per-AS probe fan-out.
//! * **Span timers** — scoped RAII guards that nest: a span opened while
//!   another is live on the same thread records under the joined path
//!   (`substrate.build/topology.generate`).
//!
//! The process-global registry ([`global`]) starts **disabled**: every
//! `inc`/`record` is a single relaxed load and a branch, and span guards
//! never read the clock, so instrumented library code costs (nearly)
//! nothing unless a driver opts in with [`set_enabled`]. Tests construct
//! their own [`Registry`] instances and are unaffected by the global
//! toggle's state.
//!
//! [`snapshot`] freezes everything into a [`MetricsReport`] whose JSON
//! rendering is deterministically ordered (all maps are `BTreeMap`s), so
//! two runs of the same deterministic pipeline produce byte-identical
//! counter sections.
//!
//! A fourth primitive lives alongside the registry: the **trace log**
//! ([`trace`]) — a bounded, lock-sharded ring of typed causal events
//! (probes, cache hits, certificate matches, probe failures) with
//! RNG-seeded virtual timestamps. It exports as Chrome trace-format JSON
//! ([`chrome_trace`]) for Perfetto timelines. Like the registry it is
//! process-global, **disabled** by default, and gated by a single relaxed
//! atomic load per emission. See DESIGN.md §7.
//!
//! Naming convention: `subsystem.metric` in lower snake-case segments,
//! labels in `{key="value"}` suffix form, sorted by key. See
//! DESIGN.md § Observability.

pub mod alloc;
pub mod chrome;
mod histogram;
pub mod quality;
mod registry;
mod report;
pub mod resource;
mod span;
pub mod trace;

pub use chrome::chrome_trace;
pub use histogram::{Histogram, HistogramSnapshot};
pub use quality::{QualityReport, TechniqueAudit, TechniqueScore, Verdict};
pub use registry::{Counter, Registry};
pub use report::MetricsReport;
pub use resource::ResourceReport;
pub use span::{SpanGuard, SpanSnapshot};

use std::sync::OnceLock;

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry. Created lazily, **disabled** by default.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new_disabled)
}

/// Turn global metric collection on or off.
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

/// Whether the global registry is currently collecting.
pub fn enabled() -> bool {
    global().enabled()
}

/// Fetch-or-register a counter on the global registry.
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// Fetch-or-register a labeled counter on the global registry.
///
/// The canonical name is `name{k1="v1",k2="v2"}` with labels sorted by
/// key, so the same label set always maps to the same series.
pub fn counter_with(name: &str, labels: &[(&str, &str)]) -> Counter {
    global().counter_with(name, labels)
}

/// Fetch-or-register a histogram on the global registry.
pub fn histogram(name: &str) -> Histogram {
    global().histogram(name)
}

/// Open a scoped span timer on the global registry. Time is recorded when
/// the returned guard drops; nested spans record under joined paths.
pub fn span(name: &str) -> SpanGuard<'static> {
    global().span(name)
}

/// Snapshot the global registry. When allocation tracking
/// ([`alloc::set_enabled`]) is on, the report additionally carries a
/// [`ResourceReport`] (peak RSS, tracked bytes, per-phase attribution);
/// otherwise `resources` stays `None` and the JSON rendering is unchanged
/// from pre-profiler builds.
pub fn snapshot() -> MetricsReport {
    // Freeze the resource accounting before the registry snapshot: the
    // snapshot itself allocates (bucket vectors whose sizes depend on
    // which timing buckets are occupied), and those run-dependent bytes
    // must not leak into totals that reproduce exactly.
    let resources = if alloc::enabled() {
        Some(ResourceReport::collect())
    } else {
        None
    };
    let mut report = global().snapshot();
    report.resources = resources;
    report
}

/// Zero every metric in the global registry (handles stay valid).
pub fn reset() {
    global().reset()
}

/// A cached global-counter handle for a fixed call site.
///
/// Expands to a `&'static Counter`: the registry lookup happens once per
/// call site, after which each use is a single atomic add.
///
/// ```
/// itm_obs::counter!("dns.cache.hit").inc();
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
        CELL.get_or_init(|| $crate::counter($name))
    }};
    ($name:expr, $($k:expr => $v:expr),+ $(,)?) => {{
        static CELL: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
        CELL.get_or_init(|| $crate::counter_with($name, &[$(($k, $v)),+]))
    }};
}

/// A cached global-histogram handle for a fixed call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
        CELL.get_or_init(|| $crate::histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_starts_disabled_and_toggles() {
        // Don't assert the current state (other tests may toggle it);
        // assert the toggle round-trips.
        let was = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(was);
    }

    #[test]
    fn macro_handles_are_cached() {
        let a = counter!("test.macro.cached") as *const Counter;
        let b = counter!("test.macro.cached") as *const Counter;
        // Two distinct call sites → two statics, but each resolves to the
        // same underlying series.
        let ca = counter!("test.macro.series");
        let cb = counter("test.macro.series");
        let r = global();
        let was = r.enabled();
        r.set_enabled(true);
        ca.inc();
        assert_eq!(cb.get(), ca.get());
        r.set_enabled(was);
        let _ = (a, b);
    }
}
