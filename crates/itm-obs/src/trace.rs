//! Causal event tracing: a lock-sharded, bounded ring buffer of typed
//! pipeline events.
//!
//! Where counters answer "how many probes did we send", the trace log
//! answers "*which* probe saw what, and when". Every event carries:
//!
//! * a [`TraceId`] naming the measurement campaign it belongs to and an
//!   optional parent [`EventId`] (the campaign root), forming a causality
//!   chain;
//! * the emitting [`Technique`] and typed [`EventKind`];
//! * RNG-seeded **virtual timestamps** — monotone in emission order,
//!   jittered from the run seed, never read from a wall clock — so traces
//!   from the same seed are byte-identical across machines and runs;
//! * the [`Subjects`] (prefix, service, AS, front-end address, PoP) the
//!   event is about, as raw ids, keeping this crate dependency-free.
//!
//! The log is **zero-cost when disabled**: emission starts with a single
//! relaxed atomic load (the same gate as [`crate::Counter::add`]) and
//! returns before touching any argument. When enabled it is **bounded**:
//! events are distributed round-robin over `N_SHARDS` mutex-guarded rings
//! of `capacity / N_SHARDS` slots each, evicting oldest-first and counting
//! evictions in `dropped_events`. Because sharding is by global sequence
//! number (not by thread), distribution over shards is exactly even: no
//! event is ever dropped while fewer than `capacity` events have been
//! emitted, and past that point `dropped_events` is exactly
//! `emitted - capacity`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of independently locked rings. Matches the metrics registry's
/// shard count; emission contends on `seq mod N_SHARDS`, so concurrent
/// emitters rarely collide.
const N_SHARDS: usize = 16;

/// Default total ring capacity (events). At ~112 bytes/event this bounds
/// an enabled trace to ~60 MB; the shards grow on demand, so a disabled
/// log holds none of it. A small-substrate map build emits ≈277k events
/// (seed 42: 276,851), about half of this, so small-run traces are
/// complete (nothing dropped).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 19;

/// SplitMix64 finalizer (local copy; this crate stays dependency-free).
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Identifier of one measurement campaign (a top-level causal chain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// Identifier of one event: its global emission sequence number, unique
/// and monotone within a run of the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u64);

/// The measurement technique (or pipeline stage) that emitted an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum Technique {
    CacheProbe,
    RootCrawl,
    EcsMapping,
    IpidProbe,
    TlsScan,
    SniScan,
    CloudProbe,
    Routing,
    Dns,
    Resolvers,
    MapAssembly,
    Span,
    Other,
}

impl Technique {
    /// Stable lower-snake name used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            Technique::CacheProbe => "cache_probe",
            Technique::RootCrawl => "root_crawl",
            Technique::EcsMapping => "ecs_mapping",
            Technique::IpidProbe => "ipid_probe",
            Technique::TlsScan => "tls_scan",
            Technique::SniScan => "sni_scan",
            Technique::CloudProbe => "cloud_probe",
            Technique::Routing => "routing",
            Technique::Dns => "dns",
            Technique::Resolvers => "resolvers",
            Technique::MapAssembly => "map_assembly",
            Technique::Span => "span",
            Technique::Other => "other",
        }
    }
}

/// What happened. One variant per observable pipeline fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum EventKind {
    /// Root of a causal chain; all events emitted inside the campaign's
    /// scope carry this event as their parent.
    CampaignStarted,
    /// A probe left a vantage point (generic).
    ProbeSent,
    /// An open-resolver cache probe observed a cached answer.
    CacheHit,
    /// An open-resolver cache probe observed a cold cache.
    CacheMiss,
    /// An ECS query returned an answer scoped to the client /24.
    EcsScopedAnswer,
    /// The authoritative DNS answered a redirection query.
    AuthAnswer,
    /// A recursive resolver was assigned to an AS during substrate build.
    ResolverAssigned,
    /// A TLS handshake returned a certificate tied to an organisation.
    CertMatched,
    /// An SNI-directed handshake confirmed a domain is served at an
    /// address.
    SniMatched,
    /// An off-net (ISP-hosted) cache of a hypergiant was identified.
    OffnetDetected,
    /// A best-path routing tree was resolved for a destination.
    RouteResolved,
    /// A cloud-vantage traceroute revealed an inter-AS link.
    LinkDiscovered,
    /// A root-DNS log line was attributed to an AS.
    LogLineAttributed,
    /// An IPID side-channel sample was taken from a router.
    IpidSampled,
    /// Per-AS activity signals were fused into one estimate.
    ActivityFused,
    /// A probe exhausted its retries; the campaign recorded a gap
    /// instead of an observation (deterministic fault injection).
    ProbeFailed,
    /// A faulted probe was retried after a virtual-time backoff and
    /// eventually succeeded (degraded observation).
    ProbeRetried,
    /// A [`crate::SpanGuard`] opened (timeline duration start).
    SpanBegin,
    /// A [`crate::SpanGuard`] closed (timeline duration end).
    SpanEnd,
}

impl EventKind {
    /// Stable name used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::CampaignStarted => "CampaignStarted",
            EventKind::ProbeSent => "ProbeSent",
            EventKind::CacheHit => "CacheHit",
            EventKind::CacheMiss => "CacheMiss",
            EventKind::EcsScopedAnswer => "EcsScopedAnswer",
            EventKind::AuthAnswer => "AuthAnswer",
            EventKind::ResolverAssigned => "ResolverAssigned",
            EventKind::CertMatched => "CertMatched",
            EventKind::SniMatched => "SniMatched",
            EventKind::OffnetDetected => "OffnetDetected",
            EventKind::RouteResolved => "RouteResolved",
            EventKind::LinkDiscovered => "LinkDiscovered",
            EventKind::IpidSampled => "IpidSampled",
            EventKind::LogLineAttributed => "LogLineAttributed",
            EventKind::ActivityFused => "ActivityFused",
            EventKind::ProbeFailed => "ProbeFailed",
            EventKind::ProbeRetried => "ProbeRetried",
            EventKind::SpanBegin => "SpanBegin",
            EventKind::SpanEnd => "SpanEnd",
        }
    }
}

/// The entity ids an event is about, as raw integers (the typed-id crates
/// sit above this one; callers pass `id.raw()`). All fields optional.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Subjects {
    /// A `/24` prefix (`PrefixId::raw()`).
    pub prefix: Option<u32>,
    /// A service (`ServiceId::raw()`).
    pub service: Option<u32>,
    /// An AS (`Asn::raw()`).
    pub asn: Option<u32>,
    /// A front-end / endpoint address (`Ipv4Addr.0`).
    pub addr: Option<u32>,
    /// A platform PoP (`PopId::raw()`).
    pub pop: Option<u32>,
}

impl Subjects {
    /// No subjects.
    pub fn none() -> Subjects {
        Subjects::default()
    }

    /// Set the prefix subject.
    pub fn prefix(mut self, raw: u32) -> Subjects {
        self.prefix = Some(raw);
        self
    }

    /// Set the service subject.
    pub fn service(mut self, raw: u32) -> Subjects {
        self.service = Some(raw);
        self
    }

    /// Set the AS subject.
    pub fn asn(mut self, raw: u32) -> Subjects {
        self.asn = Some(raw);
        self
    }

    /// Set the address subject.
    pub fn addr(mut self, raw: u32) -> Subjects {
        self.addr = Some(raw);
        self
    }

    /// Set the PoP subject.
    pub fn pop(mut self, raw: u32) -> Subjects {
        self.pop = Some(raw);
        self
    }
}

/// Render a raw address subject as a dotted quad.
pub(crate) fn fmt_addr(raw: u32) -> String {
    format!(
        "{}.{}.{}.{}",
        raw >> 24,
        (raw >> 16) & 0xFF,
        (raw >> 8) & 0xFF,
        raw & 0xFF
    )
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Unique, monotone event id (global sequence number).
    pub id: EventId,
    /// The campaign (causal chain) this event belongs to.
    pub trace: TraceId,
    /// The campaign-root event this event descends from, if any.
    pub parent: Option<EventId>,
    /// Emitting technique.
    pub technique: Technique,
    /// What happened.
    pub kind: EventKind,
    /// Virtual timestamp, microseconds. Monotone in `id`, jittered from
    /// the run seed, never from a wall clock.
    pub vt_us: u64,
    /// Small dense id of the emitting thread (0 for the first emitter).
    pub tid: u32,
    /// The entities the event is about.
    pub subjects: Subjects,
    /// Free-form detail (domain probed, issuer matched, …). Empty when
    /// none.
    pub detail: String,
}

/// Frozen contents of a [`TraceLog`].
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Surviving records, ascending by [`EventId`].
    pub records: Vec<TraceRecord>,
    /// Events evicted because the ring was full.
    pub dropped_events: u64,
    /// Total ring capacity at snapshot time.
    pub capacity: usize,
}

thread_local! {
    /// Campaign context stack: (trace, root event) pairs pushed by
    /// [`CampaignScope`]s live on this thread. Shared across logs — in
    /// practice exactly one log is active per thread.
    static CTX: RefCell<Vec<(TraceId, EventId)>> = const { RefCell::new(Vec::new()) };
    /// This thread's dense trace tid.
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Deferred-emission buffer: while `Some`, [`emit`] on this thread
    /// stores pending events here instead of sequencing them into the
    /// global log. Installed by [`capture_begin`] on executor worker
    /// threads; drained by [`capture_take`].
    static CAPTURE: RefCell<Option<Vec<PendingEvent>>> = const { RefCell::new(None) };
}

static NEXT_TID: AtomicU32 = AtomicU32::new(0);

/// One emission deferred by a capture scope: everything [`emit`] was
/// called with, minus the sequence number it has not been assigned yet.
#[derive(Debug, Clone)]
struct PendingEvent {
    technique: Technique,
    kind: EventKind,
    subjects: Subjects,
    detail: String,
}

/// Events deferred on a worker thread between [`capture_begin`] and
/// [`capture_take`], waiting to be [`replay`]ed. Opaque: the only useful
/// thing to do with one is hand it back in a deterministic order.
#[derive(Debug, Default)]
pub struct CapturedEvents {
    events: Vec<PendingEvent>,
}

impl CapturedEvents {
    /// Number of deferred events held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were captured.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Begin deferring this thread's [`emit`] calls into a capture buffer.
///
/// This is the executor's half of the deterministic-parallel-trace
/// protocol (`ParallelExecutor::map`): each worker captures the events
/// its shard job emits, and the calling thread [`replay`]s the buffers in
/// shard-index order after the barrier. Sequence numbers — and therefore
/// virtual timestamps, trace ids, and campaign parents — are assigned at
/// replay, on the replaying thread, so the resulting trace is
/// byte-identical to a single-threaded run of the same shards.
///
/// Scoped to the calling thread; replaces any buffer already installed.
/// Campaign scopes must not be opened while a capture is active (their
/// root event would need a sequence number before its children); shard
/// jobs in this workspace never open campaigns — campaigns wrap the
/// `map` call on the coordinating thread.
pub fn capture_begin() {
    CAPTURE.with(|c| *c.borrow_mut() = Some(Vec::new()));
}

/// Stop capturing on this thread and take the deferred events.
pub fn capture_take() -> CapturedEvents {
    CapturedEvents {
        events: CAPTURE.with(|c| c.borrow_mut().take()).unwrap_or_default(),
    }
}

/// Sequence previously captured events into the global log, in order, as
/// if they had been emitted on the calling thread — they inherit its
/// campaign scope (so a worker's `ProbeFailed` gets the campaign root as
/// parent) and its trace tid.
pub fn replay(captured: CapturedEvents) {
    let l = log();
    for e in captured.events {
        l.emit(e.technique, e.kind, e.subjects, &e.detail);
    }
}

/// RAII guard for one campaign scope: while alive, events emitted on this
/// thread carry the campaign's [`TraceId`] and root [`EventId`] as parent.
#[must_use = "the campaign scope ends when this guard drops"]
pub struct CampaignScope {
    pushed: bool,
}

impl Drop for CampaignScope {
    fn drop(&mut self) {
        if self.pushed {
            CTX.with(|c| {
                c.borrow_mut().pop();
            });
        }
    }
}

/// The lock-sharded, bounded event log.
pub struct TraceLog {
    enabled: AtomicBool,
    seq: AtomicU64,
    dropped: AtomicU64,
    vt_seed: AtomicU64,
    cap_per_shard: AtomicUsize,
    shards: Vec<Mutex<VecDeque<TraceRecord>>>,
}

impl TraceLog {
    /// A new, **enabled** log with the given total capacity (rounded up
    /// to a multiple of the shard count, minimum one slot per shard).
    pub fn new(capacity: usize) -> TraceLog {
        let log = TraceLog::new_disabled(capacity);
        log.set_enabled(true);
        log
    }

    /// A new, **disabled** log (the global default state).
    pub fn new_disabled(capacity: usize) -> TraceLog {
        TraceLog {
            enabled: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            vt_seed: AtomicU64::new(0),
            cap_per_shard: AtomicUsize::new(capacity.div_ceil(N_SHARDS).max(1)),
            shards: (0..N_SHARDS).map(|_| Mutex::new(VecDeque::new())).collect(),
        }
    }

    /// Turn collection on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether the log is collecting.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Seed the virtual clock (call once per run, before emission, with
    /// the run's master seed so timestamps are derivable from it).
    pub fn set_seed(&self, seed: u64) {
        self.vt_seed.store(seed, Ordering::Relaxed);
    }

    /// Change total ring capacity; trims existing shards if shrinking.
    pub fn set_capacity(&self, capacity: usize) {
        let per = capacity.div_ceil(N_SHARDS).max(1);
        self.cap_per_shard.store(per, Ordering::Relaxed);
        for shard in &self.shards {
            let mut ring = shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            while ring.len() > per {
                ring.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Current total ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap_per_shard.load(Ordering::Relaxed) * N_SHARDS
    }

    /// Events evicted so far.
    pub fn dropped_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events emitted so far (including any later evicted).
    pub fn emitted(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Record one event. When the log is disabled this is a single
    /// relaxed load; nothing else is touched. Returns the new event's id
    /// when recorded.
    #[inline]
    pub fn emit(
        &self,
        technique: Technique,
        kind: EventKind,
        subjects: Subjects,
        detail: &str,
    ) -> Option<EventId> {
        if !self.enabled.load(Ordering::Relaxed) {
            return None;
        }
        Some(self.push(technique, kind, subjects, detail, false))
    }

    /// Open a campaign: emits a [`EventKind::CampaignStarted`] root event
    /// and makes it the parent of every event emitted on this thread
    /// while the returned scope lives. Nested campaigns chain (the inner
    /// root's parent is the outer root). Inert when disabled.
    pub fn campaign(&self, technique: Technique, detail: &str) -> CampaignScope {
        if !self.enabled.load(Ordering::Relaxed) {
            return CampaignScope { pushed: false };
        }
        self.push(
            technique,
            EventKind::CampaignStarted,
            Subjects::none(),
            detail,
            true,
        );
        CampaignScope { pushed: true }
    }

    /// Internal: allocate a sequence number, stamp, and store. When
    /// `open_campaign` is set, also push the new event onto the context
    /// stack as a campaign root.
    fn push(
        &self,
        technique: Technique,
        kind: EventKind,
        subjects: Subjects,
        detail: &str,
        open_campaign: bool,
    ) -> EventId {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let seed = self.vt_seed.load(Ordering::Relaxed);
        // Virtual clock: 8 ticks per event plus seed-derived sub-tick
        // jitter. Strictly monotone in seq; a different master seed
        // shifts every timestamp, which is exactly the "RNG-seeded, no
        // wall clock" property the determinism argument needs.
        let vt_us = seq * 8 + (mix64(seed ^ seq) & 7);
        let id = EventId(seq);
        let (trace, parent) = CTX.with(|c| match c.borrow().last() {
            Some(&(trace, root)) => (trace, Some(root)),
            // Standalone event (or campaign root at top level): it heads
            // its own chain, with a seed-derived trace id.
            None => (TraceId(mix64(seed ^ mix64(seq))), None),
        });
        if open_campaign {
            // The root heads a fresh chain at top level, or continues the
            // enclosing campaign's chain when nested.
            CTX.with(|c| c.borrow_mut().push((trace, id)));
        }
        let tid = TID.with(|t| *t);
        let rec = TraceRecord {
            id,
            trace,
            parent,
            technique,
            kind,
            vt_us,
            tid,
            subjects,
            detail: detail.to_string(),
        };
        let cap = self.cap_per_shard.load(Ordering::Relaxed);
        let mut ring = self.shards[seq as usize % N_SHARDS]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // A thread can be descheduled between claiming `seq` and taking
        // the shard lock, arriving here after records with later ids.
        // Keep the ring sorted by id so eviction always removes the true
        // oldest survivor (the "newest `capacity` events win" guarantee
        // the concurrency tests assert).
        if ring.len() >= cap {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            if ring.front().is_some_and(|f| rec.id < f.id) {
                // The straggler itself is the oldest: it is the eviction.
                return id;
            }
            ring.pop_front();
        }
        match ring.back() {
            // Hot path: ids arrive in order.
            Some(b) if rec.id < b.id => {
                let pos = ring.partition_point(|r| r.id < rec.id);
                ring.insert(pos, rec);
            }
            _ => ring.push_back(rec),
        }
        id
    }

    /// Freeze the surviving records, ascending by event id.
    pub fn snapshot(&self) -> TraceSnapshot {
        let mut records = Vec::new();
        for shard in &self.shards {
            let ring = shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            records.extend(ring.iter().cloned());
        }
        records.sort_by_key(|r| r.id);
        TraceSnapshot {
            records,
            dropped_events: self.dropped.load(Ordering::Relaxed),
            capacity: self.capacity(),
        }
    }

    /// Discard all records and restart the sequence (and virtual clock)
    /// from zero. Enabled/seed/capacity settings persist.
    pub fn reset(&self) {
        for shard in &self.shards {
            shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .clear();
        }
        self.seq.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
    }
}

static GLOBAL_TRACE: OnceLock<TraceLog> = OnceLock::new();

/// The process-global trace log. Created lazily, **disabled** by default.
pub fn log() -> &'static TraceLog {
    GLOBAL_TRACE.get_or_init(|| TraceLog::new_disabled(DEFAULT_TRACE_CAPACITY))
}

/// Enable/disable the global trace log.
pub fn set_enabled(on: bool) {
    log().set_enabled(on);
}

/// Whether the global trace log is collecting.
#[inline]
pub fn enabled() -> bool {
    log().enabled()
}

/// Seed the global virtual clock from the run's master seed.
pub fn set_seed(seed: u64) {
    log().set_seed(seed);
}

/// Change the global ring capacity.
pub fn set_capacity(capacity: usize) {
    log().set_capacity(capacity);
}

/// Emit one event to the global log (single relaxed load when disabled).
///
/// While a capture scope ([`capture_begin`]) is active on this thread the
/// event is deferred instead of sequenced, and `None` is returned — no
/// caller in this workspace consumes the id, and deferred events receive
/// theirs at [`replay`].
#[inline]
pub fn emit(
    technique: Technique,
    kind: EventKind,
    subjects: Subjects,
    detail: &str,
) -> Option<EventId> {
    let l = log();
    if !l.enabled() {
        return None;
    }
    let deferred = CAPTURE.with(|c| {
        if let Some(buf) = c.borrow_mut().as_mut() {
            buf.push(PendingEvent {
                technique,
                kind,
                subjects,
                detail: detail.to_string(),
            });
            true
        } else {
            false
        }
    });
    if deferred {
        return None;
    }
    l.emit(technique, kind, subjects, detail)
}

/// Open a campaign scope on the global log.
pub fn campaign(technique: Technique, detail: &str) -> CampaignScope {
    log().campaign(technique, detail)
}

/// Snapshot the global log.
pub fn snapshot() -> TraceSnapshot {
    log().snapshot()
}

/// Clear the global log and restart its virtual clock.
pub fn reset() {
    log().reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let log = TraceLog::new_disabled(64);
        assert_eq!(
            log.emit(
                Technique::CacheProbe,
                EventKind::CacheHit,
                Subjects::none(),
                ""
            ),
            None
        );
        let _scope = log.campaign(Technique::CacheProbe, "c");
        assert!(log.snapshot().records.is_empty());
        assert_eq!(log.emitted(), 0);
    }

    #[test]
    fn events_inherit_campaign_causality() {
        let log = TraceLog::new(64);
        let root_trace;
        {
            let _c = log.campaign(Technique::TlsScan, "scan");
            log.emit(
                Technique::TlsScan,
                EventKind::CertMatched,
                Subjects::none().addr(0x0A000001),
                "issuer",
            );
            let snap = log.snapshot();
            root_trace = snap.records[0].trace;
        }
        // After the scope closes, emission is standalone again.
        log.emit(Technique::Other, EventKind::ProbeSent, Subjects::none(), "");
        let snap = log.snapshot();
        assert_eq!(snap.records.len(), 3);
        let root = &snap.records[0];
        let child = &snap.records[1];
        let loner = &snap.records[2];
        assert_eq!(root.kind, EventKind::CampaignStarted);
        assert_eq!(root.parent, None);
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(child.trace, root_trace);
        assert_eq!(loner.parent, None);
        assert_ne!(loner.trace, root_trace);
    }

    #[test]
    fn nested_campaigns_chain() {
        let log = TraceLog::new(64);
        let _outer = log.campaign(Technique::MapAssembly, "outer");
        let _inner = log.campaign(Technique::CacheProbe, "inner");
        log.emit(
            Technique::CacheProbe,
            EventKind::CacheHit,
            Subjects::none(),
            "",
        );
        let snap = log.snapshot();
        assert_eq!(snap.records[1].parent, Some(snap.records[0].id));
        assert_eq!(snap.records[2].parent, Some(snap.records[1].id));
        // One chain: the inner campaign inherits the outer trace id.
        assert_eq!(snap.records[2].trace, snap.records[0].trace);
    }

    #[test]
    fn virtual_time_is_monotone_and_seed_dependent() {
        let log = TraceLog::new(256);
        log.set_seed(7);
        for _ in 0..50 {
            log.emit(Technique::Other, EventKind::ProbeSent, Subjects::none(), "");
        }
        let a = log.snapshot();
        for w in a.records.windows(2) {
            assert!(w[0].vt_us < w[1].vt_us, "vt not strictly monotone");
        }
        log.reset();
        log.set_seed(8);
        for _ in 0..50 {
            log.emit(Technique::Other, EventKind::ProbeSent, Subjects::none(), "");
        }
        let b = log.snapshot();
        let ts_a: Vec<u64> = a.records.iter().map(|r| r.vt_us).collect();
        let ts_b: Vec<u64> = b.records.iter().map(|r| r.vt_us).collect();
        assert_ne!(ts_a, ts_b, "seed must perturb the virtual clock");
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let log = TraceLog::new(N_SHARDS); // one slot per shard
        for i in 0..100u64 {
            log.emit(
                Technique::Other,
                EventKind::ProbeSent,
                Subjects::none(),
                &i.to_string(),
            );
        }
        let snap = log.snapshot();
        assert_eq!(snap.records.len(), N_SHARDS);
        assert_eq!(snap.dropped_events, 100 - N_SHARDS as u64);
        // Survivors are exactly the newest `capacity` events.
        for r in &snap.records {
            assert!(r.id.0 >= 100 - N_SHARDS as u64);
        }
    }

    #[test]
    fn shrinking_capacity_trims() {
        let log = TraceLog::new(64);
        for _ in 0..64 {
            log.emit(Technique::Other, EventKind::ProbeSent, Subjects::none(), "");
        }
        assert_eq!(log.dropped_events(), 0);
        log.set_capacity(N_SHARDS);
        let snap = log.snapshot();
        assert_eq!(snap.records.len(), N_SHARDS);
        assert_eq!(snap.dropped_events, 64 - N_SHARDS as u64);
    }

    #[test]
    fn reset_restarts_sequence() {
        let log = TraceLog::new(64);
        log.emit(Technique::Other, EventKind::ProbeSent, Subjects::none(), "");
        log.reset();
        log.emit(Technique::Other, EventKind::ProbeSent, Subjects::none(), "");
        let snap = log.snapshot();
        assert_eq!(snap.records.len(), 1);
        assert_eq!(snap.records[0].id, EventId(0));
    }

    #[test]
    fn addr_subject_renders_dotted() {
        assert_eq!(fmt_addr(0x0A01FE63), "10.1.254.99");
    }
}
