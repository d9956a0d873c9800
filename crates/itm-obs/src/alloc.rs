//! Instrumented global-allocator wrapper with per-phase attribution.
//!
//! [`TrackingAlloc`] wraps the system allocator and, when tracking is
//! enabled, maintains deterministic byte/count accounting: a process-wide
//! current/peak/total plus a fixed table of **phase** slots. The phase a
//! thread is currently in is a thread-local set by [`PhaseGuard`]s —
//! [`crate::SpanGuard`] installs one automatically, so the existing span
//! annotations (`map.build/cache_probe.run`, …) double as allocation
//! attribution with no extra call sites.
//!
//! Three properties the rest of the workspace depends on:
//!
//! * **Zero behavioral footprint.** The wrapper forwards every call to
//!   `std::alloc::System` unchanged; whether tracking is on or off, every
//!   caller gets the same pointers, so enabling profiling cannot change
//!   any program output (the byte-identity contract all `itm-obs` layers
//!   share).
//! * **Disabled cost is one relaxed load.** The hot path is
//!   `ENABLED.load(Relaxed)` and a branch; no counters are touched.
//! * **No allocation inside the allocator.** The record path uses only
//!   atomics and a const-initialized `Cell` thread-local (no `Drop`, no
//!   lazy init), so it cannot recurse. Phase *registration* (which
//!   allocates a name) happens in [`register_phase`], always outside the
//!   allocator.
//!
//! Determinism: totals (`total_bytes`, `allocs`, `deallocs`) are sums
//! over the set of allocations performed, so they are reproducible for a
//! deterministic workload at any thread count. `current`/`peak` depend on
//! the *interleaving* of allocations, so they are reproducible only on a
//! single thread — `repro --bench-record` therefore defaults to
//! `--threads 1` (see DESIGN.md §11).

// This module is the single place in the workspace allowed to touch the
// raw allocator interface (lint rule D005 — the allocator equivalent of
// D004's executor allowlist).
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maximum number of distinct phases the fixed attribution table holds.
/// Registration past the cap falls back to unattributed (global-only)
/// accounting rather than failing.
pub const PHASE_CAP: usize = 64;

static ENABLED: AtomicBool = AtomicBool::new(false);

// Process-wide accounting.
static CURRENT: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static TOTAL: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);

/// One phase slot's accounting. `current` is signed: a phase may free
/// memory another phase allocated (merge steps routinely do), so its net
/// can dip below zero; snapshots clamp at 0.
struct PhaseSlot {
    current: AtomicI64,
    peak: AtomicI64,
    total: AtomicU64,
    allocs: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const PHASE_SLOT_INIT: PhaseSlot = PhaseSlot {
    current: AtomicI64::new(0),
    peak: AtomicI64::new(0),
    total: AtomicU64::new(0),
    allocs: AtomicU64::new(0),
};

static PHASES: [PhaseSlot; PHASE_CAP] = [PHASE_SLOT_INIT; PHASE_CAP];

/// Number of registered phases (indexes `0..N_PHASES` of [`PHASES`] are
/// live).
static N_PHASES: AtomicUsize = AtomicUsize::new(0);

/// Registered phase names, index-aligned with [`PHASES`]. Only touched by
/// [`register_phase`] / [`snapshot`] / [`reset`] — never from inside the
/// allocator.
static PHASE_NAMES: Mutex<Vec<String>> = Mutex::new(Vec::new());

thread_local! {
    /// The phase the current thread attributes allocations to, as
    /// `slot index + 1` (0 = unattributed). Const-initialized `Cell` with
    /// no destructor: reading it from inside the allocator cannot
    /// allocate or recurse.
    static CURRENT_PHASE: Cell<usize> = const { Cell::new(0) };
}

/// Turn allocation tracking on or off. Off is the default; when off the
/// allocator's overhead is a single relaxed load per call.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether allocation tracking is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Register (or look up) a phase by name, returning its slot index.
/// Returns `None` once [`PHASE_CAP`] distinct names exist — allocations
/// then stay unattributed rather than misattributed. Never call from
/// inside the allocator (it allocates).
pub fn register_phase(name: &str) -> Option<usize> {
    let mut names = PHASE_NAMES
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(i) = names.iter().position(|n| n == name) {
        return Some(i);
    }
    if names.len() >= PHASE_CAP {
        return None;
    }
    names.push(name.to_string());
    let i = names.len() - 1;
    N_PHASES.store(names.len(), Ordering::Release);
    Some(i)
}

/// RAII guard making `phase` the current thread's attribution target.
/// Restores the previous phase on drop, so guards nest like spans.
pub struct PhaseGuard {
    prev: usize,
}

/// Enter a phase slot on this thread (see [`register_phase`]).
pub fn enter_phase(slot: usize) -> PhaseGuard {
    let prev = CURRENT_PHASE.with(|c| c.replace(slot + 1));
    PhaseGuard { prev }
}

/// The slot index of this thread's current phase, if any — used by the
/// shard executor to propagate the caller's phase onto worker threads.
pub fn current_phase() -> Option<usize> {
    let raw = CURRENT_PHASE.with(Cell::get);
    (raw > 0).then(|| raw - 1)
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        CURRENT_PHASE.with(|c| c.set(self.prev));
    }
}

/// Record one allocation of `size` bytes. Atomics only; never allocates.
#[inline]
fn on_alloc(size: usize) {
    let size = size as u64;
    TOTAL.fetch_add(size, Ordering::Relaxed);
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let cur = CURRENT.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    PEAK.fetch_max(cur, Ordering::Relaxed);
    let phase = CURRENT_PHASE.with(Cell::get);
    if phase > 0 {
        let slot = &PHASES[phase - 1];
        slot.total.fetch_add(size, Ordering::Relaxed);
        slot.allocs.fetch_add(1, Ordering::Relaxed);
        let cur = slot.current.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
        slot.peak.fetch_max(cur, Ordering::Relaxed);
    }
}

/// Record one deallocation of `size` bytes. Atomics only; never allocates.
#[inline]
fn on_dealloc(size: usize) {
    DEALLOCS.fetch_add(1, Ordering::Relaxed);
    CURRENT.fetch_sub(size as i64, Ordering::Relaxed);
    let phase = CURRENT_PHASE.with(Cell::get);
    if phase > 0 {
        PHASES[phase - 1]
            .current
            .fetch_sub(size as i64, Ordering::Relaxed);
    }
}

/// The instrumented allocator. Install as the program's global allocator
/// to activate tracking support:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: itm_obs::alloc::TrackingAlloc = itm_obs::alloc::TrackingAlloc::new();
/// ```
///
/// Tracking still starts **disabled**; flip it with
/// [`set_enabled`]. Binaries that never install the wrapper simply report
/// zero tracked bytes.
pub struct TrackingAlloc;

impl TrackingAlloc {
    /// The wrapper (const, so it can initialize a `static`).
    pub const fn new() -> TrackingAlloc {
        TrackingAlloc
    }
}

impl Default for TrackingAlloc {
    fn default() -> Self {
        TrackingAlloc::new()
    }
}

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged; the accounting on the side touches only atomics and a
// const-init thread-local, so it cannot allocate, unwind, or alias the
// returned memory.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && ENABLED.load(Ordering::Relaxed) {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && ENABLED.load(Ordering::Relaxed) {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if ENABLED.load(Ordering::Relaxed) {
            on_dealloc(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && ENABLED.load(Ordering::Relaxed) {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// A buffer of `len` zero bytes, or `None` when the allocator cannot
/// supply that many (where `vec![0u8; len]` would abort the process).
///
/// The bytes come from `alloc_zeroed`, so a large buffer is fresh
/// zeroed memory that no pass writes: its pages stay untouched until
/// the caller first writes them, and advice such as
/// `itm_types::snap::advise_huge_pages` still applies to every one.
pub fn try_zeroed_bytes(len: usize) -> Option<Vec<u8>> {
    if len == 0 {
        return Some(Vec::new());
    }
    let layout = Layout::array::<u8>(len).ok()?;
    // SAFETY: `layout` has a non-zero size, as `alloc_zeroed` requires.
    let ptr = unsafe { std::alloc::alloc_zeroed(layout) };
    if ptr.is_null() {
        return None;
    }
    // SAFETY: `ptr` was just allocated by the global allocator with
    // `layout`, the layout of a `Vec<u8>` of capacity `len` (size `len`,
    // alignment 1), and all `len` bytes are initialized (zeroed); the Vec
    // takes sole ownership and frees it with the same layout.
    Some(unsafe { Vec::from_raw_parts(ptr, len, len) })
}

/// Frozen process-wide allocation accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Bytes currently live (allocated minus freed since the last reset;
    /// clamped at 0 if frees of pre-reset memory outnumber allocations).
    pub current_bytes: u64,
    /// High-water mark of `current_bytes`.
    pub peak_bytes: u64,
    /// Total bytes ever allocated (monotone).
    pub total_bytes: u64,
    /// Allocation calls.
    pub allocs: u64,
    /// Deallocation calls.
    pub deallocs: u64,
}

/// Frozen accounting for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseAllocStats {
    /// Net live bytes attributed to the phase (clamped at 0: a phase may
    /// free memory another phase allocated).
    pub current_bytes: u64,
    /// High-water mark of the phase's net live bytes.
    pub peak_bytes: u64,
    /// Total bytes the phase allocated.
    pub total_bytes: u64,
    /// Allocation calls made while the phase was current.
    pub allocs: u64,
}

/// Snapshot the process-wide counters.
pub fn stats() -> AllocStats {
    AllocStats {
        current_bytes: CURRENT.load(Ordering::Relaxed).max(0) as u64,
        peak_bytes: PEAK.load(Ordering::Relaxed).max(0) as u64,
        total_bytes: TOTAL.load(Ordering::Relaxed),
        allocs: ALLOCS.load(Ordering::Relaxed),
        deallocs: DEALLOCS.load(Ordering::Relaxed),
    }
}

/// Snapshot every registered phase as `(name, stats)`, in registration
/// order.
pub fn phase_stats() -> Vec<(String, PhaseAllocStats)> {
    let names = PHASE_NAMES
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let slot = &PHASES[i];
            (
                name.clone(),
                PhaseAllocStats {
                    current_bytes: slot.current.load(Ordering::Relaxed).max(0) as u64,
                    peak_bytes: slot.peak.load(Ordering::Relaxed).max(0) as u64,
                    total_bytes: slot.total.load(Ordering::Relaxed),
                    allocs: slot.allocs.load(Ordering::Relaxed),
                },
            )
        })
        .collect()
}

/// Zero every counter and forget all phase registrations. Call between
/// measurement windows (e.g. once per `--bench-record` size) so each
/// window's numbers stand alone.
pub fn reset() {
    // Take the registration lock for the whole reset so a concurrent
    // `register_phase` cannot interleave with the slot zeroing.
    let mut names = PHASE_NAMES
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    CURRENT.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    TOTAL.store(0, Ordering::Relaxed);
    ALLOCS.store(0, Ordering::Relaxed);
    DEALLOCS.store(0, Ordering::Relaxed);
    for slot in &PHASES {
        slot.current.store(0, Ordering::Relaxed);
        slot.peak.store(0, Ordering::Relaxed);
        slot.total.store(0, Ordering::Relaxed);
        slot.allocs.store(0, Ordering::Relaxed);
    }
    names.clear();
    N_PHASES.store(0, Ordering::Release);
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests run without the wrapper installed (unit tests share the
    // harness allocator), so they drive the accounting entry points
    // directly; `itm-obs/tests/alloc_tracking.rs` covers the installed
    // path end to end.

    /// The counters and phase table are process-wide and every test here
    /// calls `reset()`, so the tests take turns: each holds this guard for
    /// its whole body. A failed test poisons the lock; the next one
    /// recovers it, because the state it guards is reset anyway.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn zeroed_bytes_are_zero_and_refuse_what_cannot_be_allocated() {
        assert_eq!(try_zeroed_bytes(0), Some(Vec::new()));
        for len in [1, 4095, 1 << 20] {
            let bytes = try_zeroed_bytes(len).unwrap();
            assert_eq!((bytes.len(), bytes.capacity()), (len, len));
            assert!(bytes.iter().all(|&b| b == 0));
        }
        // No layout exists past isize::MAX bytes, and no allocator has
        // isize::MAX of them.
        assert_eq!(try_zeroed_bytes(usize::MAX), None);
        assert_eq!(try_zeroed_bytes(isize::MAX as usize), None);
        assert_eq!(try_zeroed_bytes(isize::MAX as usize + 1), None);
    }

    #[test]
    fn phase_guards_nest_and_restore() {
        let _serial = serial();
        reset();
        let a = register_phase("alpha").unwrap();
        let b = register_phase("beta").unwrap();
        assert_eq!(register_phase("alpha"), Some(a));
        {
            let _ga = enter_phase(a);
            assert_eq!(current_phase(), Some(a));
            {
                let _gb = enter_phase(b);
                assert_eq!(current_phase(), Some(b));
            }
            assert_eq!(current_phase(), Some(a));
        }
        assert_eq!(current_phase(), None);
    }

    #[test]
    fn accounting_attributes_to_current_phase() {
        let _serial = serial();
        reset();
        let p = register_phase("campaign").unwrap();
        {
            let _g = enter_phase(p);
            on_alloc(1000);
            on_alloc(24);
            on_dealloc(24);
        }
        on_alloc(7); // unattributed
        let s = stats();
        assert_eq!(s.total_bytes, 1031);
        assert_eq!(s.allocs, 3);
        assert_eq!(s.deallocs, 1);
        assert_eq!(s.current_bytes, 1007);
        assert!(s.peak_bytes >= 1024);
        let phases = phase_stats();
        assert_eq!(phases.len(), 1);
        let (name, ps) = &phases[0];
        assert_eq!(name, "campaign");
        assert_eq!(ps.total_bytes, 1024);
        assert_eq!(ps.allocs, 2);
        assert_eq!(ps.current_bytes, 1000);
        assert_eq!(ps.peak_bytes, 1024);
        reset();
        assert_eq!(stats(), AllocStats::default());
        assert!(phase_stats().is_empty());
    }

    #[test]
    fn cross_phase_frees_clamp_at_zero() {
        let _serial = serial();
        reset();
        let p = register_phase("freer").unwrap();
        {
            let _g = enter_phase(p);
            on_dealloc(512); // frees memory some other phase allocated
        }
        let (_, ps) = &phase_stats()[0];
        assert_eq!(ps.current_bytes, 0, "net must clamp, not wrap");
        reset();
    }

    #[test]
    fn registration_caps_and_falls_back() {
        let _serial = serial();
        reset();
        for i in 0..PHASE_CAP {
            assert!(register_phase(&format!("p{i}")).is_some());
        }
        assert_eq!(register_phase("one-too-many"), None);
        // Existing names still resolve at the cap.
        assert_eq!(register_phase("p0"), Some(0));
        reset();
    }
}
