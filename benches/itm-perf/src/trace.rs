//! Spans and per-layer observations, recorded by the benchmark itself
//! around each public call it makes into the library.
//!
//! A span carries its name, start, end, the span open on the same thread
//! when it began (its parent) and the workload id. Spans stay in memory and
//! are written as a Chrome trace when the run ends. Every span also files
//! its duration as an observation `<name>_s`; per-layer metrics are the
//! medians of their observations. An inert tracer (the untraced pass) reads
//! no clock and records nothing.

use serde_json::{json, Value};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    tid: u64,
}

/// Every update of the logs is a single push or store, so a log a
/// panicking thread held is still whole and is used as it stands.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The span recorder of one pass.
pub struct Tracer {
    on: bool,
    workload: u32,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
    obs: Mutex<BTreeMap<String, Vec<f64>>>,
}

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

impl Tracer {
    /// A recorder for workload number `workload`; `on == false` gives the
    /// inert recorder of an untraced pass.
    pub fn new(on: bool, workload: u32) -> Tracer {
        Tracer {
            on,
            workload,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
            obs: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether this pass records.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Open a span; it closes when the guard drops.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard { open: None };
        }
        let start = Instant::now();
        let parent = OPEN.with(|o| o.borrow().last().copied());
        let idx = {
            let mut spans = lock(&self.spans);
            spans.push(Span {
                name: name.to_string(),
                start_us: (start - self.t0).as_secs_f64() * 1e6,
                end_us: f64::NAN,
                parent,
                tid: TID.with(|t| *t),
            });
            spans.len() - 1
        };
        OPEN.with(|o| o.borrow_mut().push(idx));
        SpanGuard {
            open: Some((self, idx, start)),
        }
    }

    /// Run `f` inside span `name`.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name);
        f()
    }

    /// File one observation of per-layer metric `name`.
    pub fn observe(&self, name: &str, value: f64) {
        if self.on {
            lock(&self.obs)
                .entry(name.to_string())
                .or_default()
                .push(value);
        }
    }

    /// Whether metric `name` has at least one observation.
    pub fn has(&self, name: &str) -> bool {
        lock(&self.obs).contains_key(name)
    }

    /// The observations of `name` so far.
    pub fn observations(&self, name: &str) -> Vec<f64> {
        lock(&self.obs).get(name).cloned().unwrap_or_default()
    }

    /// Median of every metric's observations.
    pub fn medians(&self) -> BTreeMap<String, f64> {
        lock(&self.obs)
            .iter()
            .map(|(k, v)| (k.clone(), crate::stats::median(v)))
            .collect()
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn chrome_trace(&self) -> Value {
        let spans = lock(&self.spans);
        let events: Vec<Value> = spans
            .iter()
            .map(|s| {
                let parent = s.parent.map(|p| spans[p].name.as_str()).unwrap_or("");
                json!({
                    "name": s.name.as_str(),
                    "ph": "X",
                    "ts": s.start_us,
                    "dur": s.end_us - s.start_us,
                    "pid": u64::from(self.workload),
                    "tid": s.tid,
                    "args": { "parent": parent },
                })
            })
            .collect();
        json!({ "traceEvents": events })
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    open: Option<(&'a Tracer, usize, Instant)>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some((tracer, idx, start)) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        OPEN.with(|o| {
            o.borrow_mut().pop();
        });
        let name = {
            let mut spans = lock(&tracer.spans);
            spans[idx].end_us = (end - tracer.t0).as_secs_f64() * 1e6;
            format!("{}_s", spans[idx].name)
        };
        tracer.observe(&name, (end - start).as_secs_f64());
    }
}
