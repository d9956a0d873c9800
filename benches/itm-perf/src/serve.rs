//! The serving workloads: closed-loop clients over one shared snapshot.
//!
//! The callers are in-process and each waits for its answer, so the loop
//! is closed: a client sends its next request only when the previous one
//! returned. `itm-serve` has no queue, so an open loop would time the
//! request generator rather than the program.
//!
//! Requests come from a ring generated from the run seed before any timer
//! starts. Each ring slot holds its kind, its key and the answer the
//! in-memory map gives for it, folded to 32 bits; every answer served is
//! checked against it, so a wrong answer is one failed request.

use crate::trace::Tracer;
use crate::Pass;
use itm_core::TrafficMap;
use itm_measure::Substrate;
use itm_serve::Snapshot;
use itm_topology::NeighborKind;
use itm_types::snap::rel;
use itm_types::{Asn, Ipv4Addr, PrefixId, SeedDomain, ServiceId};
use rand::Rng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Client threads: the host's two cores.
pub const CLIENTS: usize = 2;
/// Requests between two deadline checks of one client.
const CHUNK: usize = 1 << 13;
/// Requests timed together for the end-to-end latency sample: one clock
/// read costs 20–35 ns, as much as a cached point lookup, so a request's
/// latency is read as its group's time over `GROUP`.
pub const GROUP: usize = 16;
/// Traced passes time every `SAMPLE_EVERY`-th point lookup on its own.
const SAMPLE_EVERY: usize = 8;

/// Which key distribution the clients draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Keys by demand: service ∝ its traffic, prefix ∝ its traffic, route
    /// walks from an AS ∝ its traffic. The hot set stays in cache.
    Zipf,
    /// The `repro --bench-query` mix: half live cells, half uniform over
    /// the id space; uniform route walks; reverse lookups of live front
    /// ends. Every lookup misses cache.
    Uniform,
}

const POINT: u32 = 0;
const ROUTE: u32 = 1;
const REVERSE: u32 = 2;
const KIND_NAMES: [&str; 3] = ["point", "route", "reverse"];

/// One request and its expected answer.
#[derive(Debug, Clone, Copy)]
pub struct Req {
    kind: u32,
    a: u32,
    b: u32,
    expect: u32,
}

/// The request ring of one run.
pub struct Ring {
    reqs: Vec<Req>,
}

/// Fold an answer to 32 bits: rotate-xor per word, about as cheap as a
/// caller reading the words, then one multiply to spread the bits. Kept
/// odd so a present answer never folds to the 0 that stands for "absent".
fn fold(words: impl IntoIterator<Item = u32>) -> u32 {
    let h = words
        .into_iter()
        .fold(0x811c_9dc5_u32, |h, w| h.rotate_left(5) ^ w);
    h.wrapping_mul(0x9e37_79b1) | 1
}

fn rel_code(kind: NeighborKind) -> u32 {
    u32::from(match kind {
        NeighborKind::Customer => rel::CUSTOMER,
        NeighborKind::Provider => rel::PROVIDER,
        NeighborKind::Peer => rel::PEER,
    })
}

/// Cumulative weights, for drawing an index in proportion to its weight.
struct Cdf(Vec<f64>);

impl Cdf {
    fn new(weights: impl Iterator<Item = f64>) -> Cdf {
        let mut acc = 0.0;
        Cdf(weights
            .map(|w| {
                acc += w.max(0.0);
                acc
            })
            .collect())
    }

    fn draw(&self, rng: &mut impl Rng) -> u32 {
        let total = self.0.last().copied().unwrap_or(0.0);
        let x = rng.gen::<f64>() * total;
        self.0.partition_point(|&c| c <= x).min(self.0.len() - 1) as u32
    }
}

impl Ring {
    /// Draw `len` requests of `mix` from `seed`, one in `route_every` a
    /// route walk and one in `reverse_every` a reverse lookup, and fill in
    /// the expected answers from the in-memory map.
    pub fn generate(
        s: &Substrate,
        map: &TrafficMap,
        snap: &Snapshot,
        mix: Mix,
        len: usize,
        (route_every, reverse_every): (u32, Option<u32>),
        seed: u64,
    ) -> Ring {
        let mut rng = SeedDomain::new(seed).rng(match mix {
            Mix::Zipf => "itm-perf.zipf",
            Mix::Uniform => "itm-perf.uniform",
        });
        let n_services = s.catalog.services.len() as u32;
        let n_prefixes = s.topo.prefixes.len() as u32;
        let n_ases = map.route_view.n_ases() as u32;
        let n_cells = snap.n_cells();
        let (services, prefixes, ases) = match mix {
            Mix::Zipf => (
                Some(Cdf::new(
                    (0..n_services).map(|i| s.traffic.service_total(ServiceId(i)).raw()),
                )),
                Some(Cdf::new(
                    (0..n_prefixes).map(|i| s.traffic.prefix_total(PrefixId(i)).raw()),
                )),
                Some(Cdf::new(
                    (0..n_ases).map(|i| s.traffic.as_total(Asn(i)).raw()),
                )),
            ),
            Mix::Uniform => (None, None, None),
        };
        let live_cell = |rng: &mut rand::rngs::StdRng| {
            snap.cell(rng.gen_range(0..n_cells))
                .expect("cell index in range")
        };
        let mut reqs = Vec::with_capacity(len);
        for k in 0..len {
            let kind = if reverse_every.is_some_and(|n| rng.gen_range(0..n) == 0) {
                REVERSE
            } else if rng.gen_range(0..route_every) == 0 {
                ROUTE
            } else {
                POINT
            };
            let (a, b) = match (kind, mix) {
                (REVERSE, _) => (live_cell(&mut rng).2 .0, 0),
                (ROUTE, Mix::Zipf) => (ases.as_ref().map_or(0, |c| c.draw(&mut rng)), 0),
                (ROUTE, Mix::Uniform) => (rng.gen_range(0..n_ases), 0),
                (_, Mix::Zipf) => (
                    services.as_ref().map_or(0, |c| c.draw(&mut rng)),
                    prefixes.as_ref().map_or(0, |c| c.draw(&mut rng)),
                ),
                (_, Mix::Uniform) if k % 2 == 0 => {
                    let (svc, pfx, _) = live_cell(&mut rng);
                    (svc.raw(), pfx.raw())
                }
                (_, Mix::Uniform) => (rng.gen_range(0..n_services), rng.gen_range(0..n_prefixes)),
            };
            reqs.push(Req {
                kind,
                a,
                b,
                expect: 0,
            });
        }
        let mut ring = Ring { reqs };
        ring.fill_expected(s, map);
        ring
    }

    /// Expected answers from the in-memory map: points from
    /// `CellMap::get` and the owner of the answer's prefix, route walks
    /// from the route view, reverse lookups from one pass over the cells.
    fn fill_expected(&mut self, s: &Substrate, map: &TrafficMap) {
        let owner = |addr: Ipv4Addr| {
            s.topo
                .prefixes
                .lookup(addr)
                .map_or(u32::MAX, |r| r.owner.raw())
        };
        let mut reverse: BTreeMap<u32, Vec<u32>> = self
            .reqs
            .iter()
            .filter(|r| r.kind == REVERSE)
            .map(|r| (r.a, Vec::new()))
            .collect();
        for c in map.user_mapping.mapping.iter() {
            if let Some(rows) = reverse.get_mut(&c.addr.0) {
                rows.extend([c.service.raw(), c.prefix.raw()]);
            }
        }
        for r in &mut self.reqs {
            r.expect = match r.kind {
                POINT => map
                    .user_mapping
                    .mapping
                    .get(ServiceId(r.a), PrefixId(r.b))
                    .map_or(0, |addr| fold([addr.0, owner(addr)])),
                ROUTE => fold(
                    map.route_view
                        .neighbors(Asn(r.a))
                        .iter()
                        .flat_map(|&(n, k)| [n.raw(), rel_code(k)]),
                ),
                _ => fold(reverse[&r.a].iter().copied()),
            };
        }
    }

    /// Corrupt the expected answer of slot `i` (tests the checker).
    #[cfg(test)]
    pub fn corrupt(&mut self, i: usize) {
        self.reqs[i].expect ^= 2;
    }

    /// Number of requests in the ring.
    pub fn len(&self) -> usize {
        self.reqs.len()
    }
}

/// Serve one request; returns the folded answer and the rows a reverse
/// lookup returned.
#[inline]
fn serve(snap: &Snapshot, r: &Req) -> (u32, usize) {
    match r.kind {
        POINT => (
            snap.point(ServiceId(r.a), PrefixId(r.b)).map_or(0, |ans| {
                fold([ans.addr.0, ans.front_as.map_or(u32::MAX, |a| a.raw())])
            }),
            0,
        ),
        ROUTE => (
            fold(
                snap.neighbors(Asn(r.a))
                    .flat_map(|(n, k)| [n.raw(), u32::from(k)]),
            ),
            0,
        ),
        _ => {
            let rows = snap.reverse(Ipv4Addr(r.a));
            (
                fold(rows.iter().flat_map(|&(svc, p)| [svc.raw(), p.raw()])),
                rows.len(),
            )
        }
    }
}

/// What one client saw.
#[derive(Default)]
struct Client {
    done: u64,
    failed: u64,
    points: u64,
    point_hits: u64,
    reverse_rows: u64,
    reverses: u64,
    /// Time of each group of `GROUP` consecutive requests (ns).
    groups: Vec<u32>,
    /// Per-kind latencies (ns), traced passes only: route walks and
    /// reverse lookups every time, points on every `SAMPLE_EVERY`-th slot.
    by_kind: [Vec<u32>; 3],
}

fn ns(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// One client: walk the ring chunk by chunk from chunk `start`, for
/// `chunks` chunks or until `until` passes.
fn client(
    ring: &Ring,
    snap: &Snapshot,
    start: usize,
    (chunks, until): (Option<usize>, Option<Instant>),
    traced: bool,
) -> Client {
    let n_chunks = (ring.len() / CHUNK).max(1);
    let mut c = Client {
        groups: Vec::with_capacity(1 << 20),
        ..Client::default()
    };
    for lap in 0.. {
        if chunks.is_some_and(|n| lap >= n) || until.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let base = ((start + lap) % n_chunks) * CHUNK;
        let end = (base + CHUNK).min(ring.len());
        for group in (base..end).step_by(GROUP) {
            let t = Instant::now();
            for i in group..(group + GROUP).min(end) {
                let r = &ring.reqs[i];
                let (got, rows) = if traced && (r.kind != POINT || i % SAMPLE_EVERY == 0) {
                    let t = Instant::now();
                    let out = serve(snap, r);
                    c.by_kind[r.kind as usize].push(ns(t.elapsed()));
                    out
                } else {
                    serve(snap, r)
                };
                c.done += 1;
                c.failed += u64::from(got != r.expect);
                match r.kind {
                    POINT => {
                        c.points += 1;
                        c.point_hits += u64::from(got != 0);
                    }
                    REVERSE => {
                        c.reverses += 1;
                        c.reverse_rows += rows as u64;
                    }
                    _ => {}
                }
            }
            c.groups.push(ns(t.elapsed()));
        }
    }
    c
}

/// Run `CLIENTS` closed-loop clients over `snap`, each from its own
/// offset into the ring, for `seconds` or, with `None`, for one lap of the
/// ring between them. Traced passes file the per-kind latency metrics that
/// `tracer` does not have yet.
pub fn run_clients(ring: &Ring, snap: &Snapshot, seconds: Option<f64>, tracer: &Tracer) -> Pass {
    let traced = tracer.on();
    let n_chunks = (ring.len() / CHUNK).max(1);
    let t0 = Instant::now();
    let until = seconds.map(|s| t0 + Duration::from_secs_f64(s));
    let clients: Vec<(Client, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let start = t * n_chunks / CLIENTS;
                let share = (t + 1) * n_chunks / CLIENTS - start;
                let bound = (seconds.is_none().then_some(share), until);
                scope.spawn(move || {
                    let c = client(ring, snap, start, bound, traced);
                    (c, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = clients
        .iter()
        .map(|(_, end)| (*end - t0).as_secs_f64())
        .fold(0.0, f64::max);
    let mut pass = Pass::default();
    let mut by_kind: [Vec<u32>; 3] = Default::default();
    let (mut points, mut hits, mut reverses, mut rows) = (0u64, 0u64, 0u64, 0u64);
    let mut done_per_client = Vec::new();
    for (c, _) in clients {
        pass.attempted += c.done;
        pass.failed += c.failed;
        pass.op_ns.extend(c.groups);
        for (all, mine) in by_kind.iter_mut().zip(c.by_kind) {
            all.extend(mine);
        }
        points += c.points;
        hits += c.point_hits;
        reverses += c.reverses;
        rows += c.reverse_rows;
        done_per_client.push(c.done as f64);
    }
    pass.ops = pass.attempted;
    pass.wall_s = wall;
    if traced {
        file_serve_layers(
            tracer,
            &mut by_kind,
            (points, hits, reverses, rows),
            &done_per_client,
        );
    }
    pass
}

/// File the per-kind serving metrics this tracer lacks.
fn file_serve_layers(
    tracer: &Tracer,
    by_kind: &mut [Vec<u32>; 3],
    (points, hits, reverses, rows): (u64, u64, u64, u64),
    done_per_client: &[f64],
) {
    use crate::stats::grouped_quantile as q;
    for (kind, lat) in KIND_NAMES.iter().zip(by_kind.iter_mut()) {
        lat.sort_unstable();
        if lat.is_empty() || tracer.has(&format!("serve.{kind}_p99_ns")) {
            continue;
        }
        let tail: &[_] = if *kind == "point" {
            &[(0.999, "p999")]
        } else {
            &[]
        };
        for &(p, label) in [(0.5, "p50"), (0.99, "p99")].iter().chain(tail) {
            tracer.observe(&format!("serve.{kind}_{label}_ns"), q(lat, p));
        }
    }
    if reverses > 0 && !tracer.has("serve.reverse_rows_mean") {
        tracer.observe("serve.reverse_rows_mean", rows as f64 / reverses as f64);
    }
    if points > 0 && !tracer.has("serve.point_hit_ratio") {
        tracer.observe("serve.point_hit_ratio", hits as f64 / points as f64);
    }
    if !tracer.has("serve.thread_skew") {
        let mean = done_per_client.iter().sum::<f64>() / done_per_client.len() as f64;
        let max = done_per_client.iter().copied().fold(0.0, f64::max);
        tracer.observe("serve.thread_skew", max / mean);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{world, Size};
    use itm_core::{MapConfig, ParallelExecutor};

    #[test]
    fn a_wrong_expected_answer_is_one_failed_request() {
        let s = world(Size::Small).expect("world");
        let map = TrafficMap::build_with(&s, &MapConfig::default(), &ParallelExecutor::new(2))
            .expect("map");
        let snap = Snapshot::from_bytes(itm_core::snapshot_bytes(&s, &map)).expect("snapshot");
        let tracer = Tracer::new(false, 0);
        for mix in [Mix::Zipf, Mix::Uniform] {
            let mut ring = Ring::generate(&s, &map, &snap, mix, 1 << 14, (64, Some(512)), 7);
            let clean = run_clients(&ring, &snap, None, &tracer);
            assert_eq!(clean.failed, 0, "{mix:?}: clean ring has failures");
            assert_eq!(clean.attempted, ring.len() as u64);
            ring.corrupt(77);
            let bad = run_clients(&ring, &snap, None, &tracer);
            assert_eq!(bad.failed, 1, "{mix:?}");
        }
    }
}
