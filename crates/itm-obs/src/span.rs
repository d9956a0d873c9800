//! Scoped RAII span timers with thread-local nesting.
//!
//! `registry.span("topology.generate")` opened while
//! `registry.span("substrate.build")` is live on the same thread records
//! its elapsed time under `substrate.build/topology.generate`. The path
//! stack is thread-local; spans on different threads do not nest into
//! each other. When the registry is disabled, entering a span is a single
//! relaxed load and the guard is inert (no clock read, no allocation).
//!
//! When the global [`crate::trace`] log is enabled, entering and dropping
//! a span also emits `SpanBegin`/`SpanEnd` trace events carrying the
//! nested path, from which [`crate::chrome_trace`] synthesizes timeline
//! duration events with deterministic virtual timestamps.

use crate::registry::Registry;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Separator joining nested span names into a path.
const PATH_SEP: char = '/';

thread_local! {
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Live RAII guard for one span. Records on drop.
pub struct SpanGuard<'a> {
    active: Option<Active<'a>>,
}

struct Active<'a> {
    registry: &'a Registry,
    /// Full nested path of this span.
    path: String,
    /// Stack depth this span pushed at (for drop-order robustness).
    depth: usize,
    start: Instant,
    /// Allocation-attribution scope for the same path, held while the
    /// span is live so the span annotations double as memory phases.
    /// `None` when allocation tracking is off (or the phase table is
    /// full).
    _phase: Option<crate::alloc::PhaseGuard>,
}

impl<'a> SpanGuard<'a> {
    pub(crate) fn enter(registry: &'a Registry, name: &str) -> SpanGuard<'a> {
        if !registry.enabled() {
            return SpanGuard { active: None };
        }
        let (path, depth) = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = match stack.last() {
                Some(parent) => format!("{parent}{PATH_SEP}{name}"),
                None => name.to_string(),
            };
            stack.push(path.clone());
            (path, stack.len())
        });
        // Mirror the span into the global trace log (when tracing is on)
        // so the Chrome exporter can synthesize duration events with
        // deterministic virtual timestamps.
        crate::trace::emit(
            crate::trace::Technique::Span,
            crate::trace::EventKind::SpanBegin,
            crate::trace::Subjects::none(),
            &path,
        );
        // When the tracking allocator is collecting, make this span the
        // current thread's allocation phase: every span path becomes a
        // row in ResourceReport.phases with zero extra call sites.
        let phase = if crate::alloc::enabled() {
            crate::alloc::register_phase(&path).map(crate::alloc::enter_phase)
        } else {
            None
        };
        SpanGuard {
            active: Some(Active {
                registry,
                path,
                depth,
                // itm-lint: allow(D001): span timing is observability-only wall time and never feeds the map
                start: Instant::now(),
                _phase: phase,
            }),
        }
    }

    /// The full nested path this span records under (`None` when the
    /// registry was disabled at entry).
    pub fn path(&self) -> Option<&str> {
        self.active.as_ref().map(|a| a.path.as_str())
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let elapsed = active.start.elapsed().as_nanos() as u64;
        crate::trace::emit(
            crate::trace::Technique::Span,
            crate::trace::EventKind::SpanEnd,
            crate::trace::Subjects::none(),
            &active.path,
        );
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Truncate rather than pop: if an inner guard leaked past an
            // outer one (mem::forget, async misuse), recover the stack.
            stack.truncate(active.depth.saturating_sub(1));
        });
        active.registry.record_span(&active.path, elapsed);
    }
}

/// Aggregated timings for one span path.
pub(crate) struct SpanStats {
    count: AtomicU64,
    total_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl SpanStats {
    pub(crate) fn new() -> SpanStats {
        SpanStats {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }

    pub(crate) fn record(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    pub(crate) fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.min_ns.store(u64::MAX, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> SpanSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        SpanSnapshot {
            count,
            total_ns: self.total_ns.load(Ordering::Relaxed),
            min_ns: if count == 0 {
                0
            } else {
                self.min_ns.load(Ordering::Relaxed)
            },
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// Frozen timings for one span path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Completed entries of this span.
    pub count: u64,
    /// Total time inside the span, nanoseconds.
    pub total_ns: u64,
    /// Fastest entry (0 when never entered).
    pub min_ns: u64,
    /// Slowest entry.
    pub max_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_into_paths() {
        let r = Registry::new();
        {
            let outer = r.span("build");
            assert_eq!(outer.path(), Some("build"));
            let inner = r.span("topology");
            assert_eq!(inner.path(), Some("build/topology"));
        }
        let snap = r.snapshot();
        assert_eq!(snap.spans["build"].count, 1);
        assert_eq!(snap.spans["build/topology"].count, 1);
        assert!(snap.spans["build"].total_ns >= snap.spans["build/topology"].total_ns);
    }

    #[test]
    fn disabled_spans_are_inert() {
        let r = Registry::new_disabled();
        {
            let g = r.span("quiet");
            assert_eq!(g.path(), None);
        }
        assert!(r.snapshot().spans.is_empty());
    }

    #[test]
    fn sequential_spans_do_not_nest() {
        let r = Registry::new();
        drop(r.span("a"));
        drop(r.span("b"));
        let snap = r.snapshot();
        assert!(snap.spans.contains_key("a"));
        assert!(snap.spans.contains_key("b"));
        assert!(!snap.spans.contains_key("a/b"));
    }

    #[test]
    fn repeated_entries_aggregate() {
        let r = Registry::new();
        for _ in 0..3 {
            drop(r.span("loop"));
        }
        let s = r.snapshot().spans["loop"];
        assert_eq!(s.count, 3);
        assert!(s.min_ns <= s.max_ns);
        assert!(s.total_ns >= s.max_ns);
    }
}
