//! Structural diff between two map snapshots (`repro --diff A B`).
//!
//! A continuously updated map is only trustworthy if its evolution is
//! inspectable: when epoch `k+1`'s snapshot differs from epoch `k`'s, an
//! operator needs to see *which* ⟨service, prefix⟩ cells moved to a new
//! front-end, which appeared or vanished, which route edges changed — and
//! which measurement techniques back each side of every delta.
//!
//! [`MapDiff::compute`] walks both snapshots' sorted columns in lockstep
//! (no decoding into owned structures beyond the delta lists themselves)
//! and reports:
//!
//! * [`CellDelta`] — a mapping cell added, removed, re-pointed to a
//!   different replica, or re-evidenced (same replica, different claim
//!   bits), with both sides' claim bitmaps as provenance;
//! * [`RouteDelta`] — a directed adjacency entry added, removed, or
//!   re-classified.
//!
//! Deltas come out in ⟨service, prefix⟩ / ⟨AS, neighbor⟩ order — the
//! snapshots' own canonical orders — so a serialized diff is byte-stable.
//!
//! Two snapshots are only comparable over the same universe: equal
//! service/prefix/AS counts, identical domain tables, identical prefix
//! tables. Anything else is an [`DiffError::Incompatible`], which the CLI
//! maps to exit 2 (version mismatches are caught earlier, at open, by the
//! snapshot header check).

use crate::Snapshot;
use itm_types::snap::claim;
use itm_types::{Asn, Ipv4Addr, PrefixId, ServiceId};
use std::collections::BTreeMap;

/// Why two snapshots cannot be diffed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffError {
    /// The snapshots describe different universes.
    Incompatible {
        /// Which table disagrees.
        what: &'static str,
    },
}

impl std::fmt::Display for DiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffError::Incompatible { what } => {
                write!(f, "snapshots are not comparable: {what} differ")
            }
        }
    }
}

impl std::error::Error for DiffError {}

/// One mapping-cell difference between snapshot A and snapshot B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellDelta {
    /// The service the cell belongs to.
    pub service: ServiceId,
    /// The client prefix of the cell.
    pub prefix: PrefixId,
    /// A's serving replica (`None` = the cell did not exist in A).
    pub old_addr: Option<Ipv4Addr>,
    /// B's serving replica (`None` = the cell no longer exists in B).
    pub new_addr: Option<Ipv4Addr>,
    /// A's technique claim bitmap (0 when absent in A).
    pub old_bits: u8,
    /// B's technique claim bitmap (0 when absent in B).
    pub new_bits: u8,
}

impl CellDelta {
    /// `added`, `removed`, `moved` (replica changed) or `re-evidenced`
    /// (same replica, different claims).
    pub fn kind(&self) -> &'static str {
        match (self.old_addr, self.new_addr) {
            (None, Some(_)) => "added",
            (Some(_), None) => "removed",
            (Some(a), Some(b)) if a != b => "moved",
            _ => "re-evidenced",
        }
    }

    /// Technique names backing A's side of the cell.
    pub fn old_techniques(&self) -> Vec<&'static str> {
        claim::names(self.old_bits)
    }

    /// Technique names backing B's side of the cell.
    pub fn new_techniques(&self) -> Vec<&'static str> {
        claim::names(self.new_bits)
    }
}

/// One directed route-adjacency difference between A and B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDelta {
    /// Source AS of the directed edge.
    pub from: Asn,
    /// Neighbor AS of the directed edge.
    pub to: Asn,
    /// A's relationship code (`None` = edge absent in A); see
    /// [`itm_types::snap::rel`].
    pub old_kind: Option<u8>,
    /// B's relationship code (`None` = edge absent in B).
    pub new_kind: Option<u8>,
}

impl RouteDelta {
    /// `added`, `removed` or `re-classified`.
    pub fn kind(&self) -> &'static str {
        match (self.old_kind, self.new_kind) {
            (None, Some(_)) => "added",
            (Some(_), None) => "removed",
            _ => "re-classified",
        }
    }
}

/// The full structural difference between two snapshots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MapDiff {
    /// Cell deltas, in ⟨service, prefix⟩ order.
    pub cells: Vec<CellDelta>,
    /// Directed route deltas, in ⟨from, to⟩ order.
    pub routes: Vec<RouteDelta>,
}

impl MapDiff {
    /// Diff snapshot `a` against snapshot `b` (A = before, B = after).
    ///
    /// Fails when the snapshots describe different universes (counts,
    /// domain table, or prefix table disagree) — a diff across universes
    /// would attribute renumbering as churn.
    pub fn compute(a: &Snapshot, b: &Snapshot) -> Result<MapDiff, DiffError> {
        let incompatible = |what| Err(DiffError::Incompatible { what });
        if a.n_services() != b.n_services() {
            return incompatible("service counts");
        }
        if a.n_prefixes() != b.n_prefixes() {
            return incompatible("prefix counts");
        }
        if a.n_ases() != b.n_ases() {
            return incompatible("AS counts");
        }
        for sid in 0..a.n_services() {
            if a.domain_of(ServiceId(sid as u32)) != b.domain_of(ServiceId(sid as u32)) {
                return incompatible("domain tables");
            }
        }
        for p in 0..a.n_prefixes() {
            let p = PrefixId(p as u32);
            if a.prefix_net(p) != b.prefix_net(p) || a.prefix_owner(p) != b.prefix_owner(p) {
                return incompatible("prefix tables");
            }
        }

        let mut diff = MapDiff::default();
        for sid in 0..a.n_services() {
            let service = ServiceId(sid as u32);
            let cells =
                |s| claimed_cells(s, service).map(|(prefix, addr, bits)| (prefix, (addr, bits)));
            merge_join(cells(a), cells(b), |prefix, old, new| {
                diff.cells.push(CellDelta {
                    service,
                    prefix,
                    old_addr: old.map(|(addr, _)| addr),
                    new_addr: new.map(|(addr, _)| addr),
                    old_bits: old.map_or(0, |(_, bits)| bits),
                    new_bits: new.map_or(0, |(_, bits)| bits),
                })
            });
        }
        for asn in 0..a.n_ases() {
            let from = Asn(asn as u32);
            merge_join(
                a.neighbors(from),
                b.neighbors(from),
                |to, old_kind, new_kind| {
                    diff.routes.push(RouteDelta {
                        from,
                        to,
                        old_kind,
                        new_kind,
                    })
                },
            );
        }
        Ok(diff)
    }

    /// True when the snapshots were structurally identical.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty() && self.routes.is_empty()
    }

    /// Count of cell deltas with the given [`CellDelta::kind`].
    pub fn n_cells_of_kind(&self, kind: &str) -> usize {
        self.cells.iter().filter(|d| d.kind() == kind).count()
    }

    /// Reconstruct B's full cell grid from A plus this diff
    /// (verification helper: the round-trip test asserts it equals B's
    /// decoded cells exactly).
    pub fn apply_cells(&self, a: &Snapshot) -> Vec<(ServiceId, PrefixId, Ipv4Addr, u8)> {
        let mut grid: BTreeMap<(u32, u32), (Ipv4Addr, u8)> = decode_cells(a)
            .into_iter()
            .map(|(svc, p, addr, bits)| ((svc.raw(), p.raw()), (addr, bits)))
            .collect();
        for d in &self.cells {
            let key = (d.service.raw(), d.prefix.raw());
            match d.new_addr {
                Some(addr) => {
                    grid.insert(key, (addr, d.new_bits));
                }
                None => {
                    grid.remove(&key);
                }
            }
        }
        grid.into_iter()
            .map(|((s, p), (addr, bits))| (ServiceId(s), PrefixId(p), addr, bits))
            .collect()
    }

    /// Reconstruct B's directed adjacency from A plus this diff (the
    /// route half of the round-trip check).
    pub fn apply_routes(&self, a: &Snapshot) -> Vec<(Asn, Asn, u8)> {
        let mut adj: BTreeMap<(u32, u32), u8> = BTreeMap::new();
        for asn in 0..a.n_ases() {
            let from = Asn(asn as u32);
            for (to, kind) in a.neighbors(from) {
                adj.insert((from.raw(), to.raw()), kind);
            }
        }
        for d in &self.routes {
            let key = (d.from.raw(), d.to.raw());
            match d.new_kind {
                Some(kind) => {
                    adj.insert(key, kind);
                }
                None => {
                    adj.remove(&key);
                }
            }
        }
        adj.into_iter()
            .map(|((f, t), kind)| (Asn(f), Asn(t), kind))
            .collect()
    }
}

/// Decode a snapshot's full cell grid in canonical order (the comparison
/// target for [`MapDiff::apply_cells`]).
pub fn decode_cells(s: &Snapshot) -> Vec<(ServiceId, PrefixId, Ipv4Addr, u8)> {
    let mut out = Vec::with_capacity(s.n_cells());
    for sid in 0..s.n_services() {
        let svc = ServiceId(sid as u32);
        out.extend(claimed_cells(s, svc).map(|(p, addr, bits)| (svc, p, addr, bits)));
    }
    out
}

/// One service's cells with their claim bits, in prefix order, read by
/// index from the cell columns (no per-cell search).
fn claimed_cells(
    s: &Snapshot,
    service: ServiceId,
) -> impl Iterator<Item = (PrefixId, Ipv4Addr, u8)> + '_ {
    s.cell_run(service).map(|i| s.cell_at(i))
}

/// Merge-join two runs in strictly ascending key order, calling
/// `delta(key, in_a, in_b)` for every key whose value differs between
/// the runs (`None` on the side that lacks the key).
fn merge_join<K: Ord + Copy, V: PartialEq + Copy>(
    a: impl Iterator<Item = (K, V)>,
    b: impl Iterator<Item = (K, V)>,
    mut delta: impl FnMut(K, Option<V>, Option<V>),
) {
    use std::cmp::Ordering::{Greater, Less};
    let (mut a, mut b) = (a.peekable(), b.peekable());
    loop {
        let order = match (a.peek(), b.peek()) {
            (None, None) => return,
            (Some(_), None) => Less,
            (None, Some(_)) => Greater,
            (Some((ka, _)), Some((kb, _))) => ka.cmp(kb),
        };
        let in_a = if order == Greater { None } else { a.next() };
        let in_b = if order == Less { None } else { b.next() };
        let ((Some((key, _)), _) | (None, Some((key, _)))) = (in_a, in_b) else {
            return;
        };
        let (va, vb) = (in_a.map(|(_, v)| v), in_b.map(|(_, v)| v));
        if va != vb {
            delta(key, va, vb);
        }
    }
}

/// Decode a snapshot's full directed adjacency in canonical order (the
/// comparison target for [`MapDiff::apply_routes`]).
pub fn decode_routes(s: &Snapshot) -> Vec<(Asn, Asn, u8)> {
    let mut out = Vec::with_capacity(s.n_route_entries());
    for asn in 0..s.n_ases() {
        let from = Asn(asn as u32);
        for (to, kind) in s.neighbors(from) {
            out.push((from, to, kind));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::fixture;
    use crate::tests::Col::{U32, U64, U8};
    use itm_types::snap::{claim, rel, section};

    /// Snapshot A: the `tiny()` universe of the crate tests — 2 services,
    /// 3 prefixes, 4 cells, 2 fronts, a 3-AS triangle.
    fn snap_a() -> Snapshot {
        let bytes = fixture(&[
            (section::META, U64(&[42, 3, 3, 2, 4, 4, 2])),
            (section::DOM_OFF, U32(&[0, 10, 20])),
            (section::DOM_BYTES, U8(b"a.example\0b.example\0")),
            (section::DOM_SORTED, U32(&[0, 1])),
            (
                section::PFX_BASE,
                U32(&[0x0A000100, 0x0A000000, 0x0A000200]),
            ),
            (section::PFX_OWNER, U32(&[1, 0, 2])),
            (section::PFX_SORTED, U32(&[1, 0, 2])),
            (section::CELL_SVC_OFF, U64(&[0, 2, 4])),
            (section::CELL_PREFIX, U32(&[0, 1, 1, 2])),
            (
                section::CELL_ADDR,
                U32(&[0x0A000001, 0x0A000201, 0x0A000001, 0x0A000201]),
            ),
            (
                section::CELL_BITS,
                U8(&[
                    claim::ECS,
                    claim::CATALOG_PRIOR,
                    claim::ECS | claim::ANYCAST,
                    0,
                ]),
            ),
            (section::CELL_REV, U32(&[0, 2, 1, 3])),
            (section::FRONT_ADDR, U32(&[0x0A000001, 0x0A000201])),
            (section::FRONT_OWNER, U32(&[1, u32::MAX])),
            (section::ROUTE_OFF, U64(&[0, 1, 3, 4])),
            (section::ROUTE_NBR, U32(&[1, 0, 2, 1])),
            (
                section::ROUTE_KIND,
                U8(&[rel::PROVIDER, rel::CUSTOMER, rel::PEER, rel::PEER]),
            ),
        ]);
        Snapshot::from_bytes(bytes).expect("snap_a is well-formed")
    }

    /// Snapshot B: the same universe one epoch later. Service 0's prefix 1
    /// moved replicas, prefix 2 appeared; service 1's prefix 1 vanished
    /// and prefix 2 gained a claim; AS0–AS2 peered up and AS1–AS2 turned
    /// into a provider relationship.
    fn snap_b() -> Snapshot {
        let bytes = fixture(&[
            (section::META, U64(&[42, 3, 3, 2, 4, 6, 2])),
            (section::DOM_OFF, U32(&[0, 10, 20])),
            (section::DOM_BYTES, U8(b"a.example\0b.example\0")),
            (section::DOM_SORTED, U32(&[0, 1])),
            (
                section::PFX_BASE,
                U32(&[0x0A000100, 0x0A000000, 0x0A000200]),
            ),
            (section::PFX_OWNER, U32(&[1, 0, 2])),
            (section::PFX_SORTED, U32(&[1, 0, 2])),
            (section::CELL_SVC_OFF, U64(&[0, 3, 4])),
            (section::CELL_PREFIX, U32(&[0, 1, 2, 2])),
            (
                section::CELL_ADDR,
                U32(&[0x0A000001, 0x0A000001, 0x0A000201, 0x0A000201]),
            ),
            (
                section::CELL_BITS,
                U8(&[claim::ECS, claim::ECS, claim::ECS, claim::CATALOG_PRIOR]),
            ),
            (section::CELL_REV, U32(&[0, 1, 2, 3])),
            (section::FRONT_ADDR, U32(&[0x0A000001, 0x0A000201])),
            (section::FRONT_OWNER, U32(&[1, u32::MAX])),
            (section::ROUTE_OFF, U64(&[0, 2, 4, 6])),
            (section::ROUTE_NBR, U32(&[1, 2, 0, 2, 0, 1])),
            (
                section::ROUTE_KIND,
                U8(&[
                    rel::PROVIDER,
                    rel::PEER,
                    rel::CUSTOMER,
                    rel::PROVIDER,
                    rel::PEER,
                    rel::CUSTOMER,
                ]),
            ),
        ]);
        Snapshot::from_bytes(bytes).expect("snap_b is well-formed")
    }

    /// The diff as first written, kept as the reference: a merge walk
    /// over `cells_of` that reads both sides' claim bits with `point()`,
    /// two binary searches per shared cell.
    fn point_reference(a: &Snapshot, b: &Snapshot) -> MapDiff {
        let mut diff = MapDiff::default();
        for sid in 0..a.n_services() {
            let svc = ServiceId(sid as u32);
            let bits = |s: &Snapshot, p| s.point(svc, p).map_or(0, |ans| ans.claim_bits);
            let cell = |p, old: Option<Ipv4Addr>, new: Option<Ipv4Addr>| CellDelta {
                service: svc,
                prefix: p,
                old_addr: old,
                new_addr: new,
                old_bits: old.map_or(0, |_| bits(a, p)),
                new_bits: new.map_or(0, |_| bits(b, p)),
            };
            let mut ia = a.cells_of(svc).peekable();
            let mut ib = b.cells_of(svc).peekable();
            loop {
                let delta = match (ia.peek().copied(), ib.peek().copied()) {
                    (None, None) => break,
                    (Some((p, old)), None) => {
                        ia.next();
                        cell(p, Some(old), None)
                    }
                    (None, Some((q, new))) => {
                        ib.next();
                        cell(q, None, Some(new))
                    }
                    (Some((p, old)), Some((q, new))) => {
                        if p < q {
                            ia.next();
                            cell(p, Some(old), None)
                        } else if q < p {
                            ib.next();
                            cell(q, None, Some(new))
                        } else {
                            ia.next();
                            ib.next();
                            if old == new && bits(a, p) == bits(b, p) {
                                continue;
                            }
                            cell(p, Some(old), Some(new))
                        }
                    }
                };
                diff.cells.push(delta);
            }
        }
        for asn in 0..a.n_ases() {
            let from = Asn(asn as u32);
            let route = |to, old_kind, new_kind| RouteDelta {
                from,
                to,
                old_kind,
                new_kind,
            };
            let mut ia = a.neighbors(from).peekable();
            let mut ib = b.neighbors(from).peekable();
            loop {
                let delta = match (ia.peek().copied(), ib.peek().copied()) {
                    (None, None) => break,
                    (Some((n, kind)), None) => {
                        ia.next();
                        route(n, Some(kind), None)
                    }
                    (None, Some((m, kind))) => {
                        ib.next();
                        route(m, None, Some(kind))
                    }
                    (Some((n, old)), Some((m, new))) => {
                        if n < m {
                            ia.next();
                            route(n, Some(old), None)
                        } else if m < n {
                            ib.next();
                            route(m, None, Some(new))
                        } else {
                            ia.next();
                            ib.next();
                            if old == new {
                                continue;
                            }
                            route(n, Some(old), Some(new))
                        }
                    }
                };
                diff.routes.push(delta);
            }
        }
        diff
    }

    /// A small-world snapshot before and after three epochs of `plan`.
    fn small_world_epochs(plan: &itm_types::EpochPlan) -> (Snapshot, Snapshot) {
        use itm_core::{apply_epoch, snapshot_bytes, MapConfig, TrafficMap};
        use itm_measure::{Substrate, SubstrateConfig};
        let mut s = Substrate::build(SubstrateConfig::small(), 42).expect("small world");
        let snap = |s: &Substrate| {
            let map = TrafficMap::build(s, &MapConfig::default()).expect("map build");
            Snapshot::from_bytes(snapshot_bytes(s, &map)).expect("fresh snapshot")
        };
        let before = snap(&s);
        for epoch in 1..=3 {
            apply_epoch(&mut s, plan, epoch);
        }
        (before, snap(&s))
    }

    #[test]
    fn the_index_walk_equals_the_point_reference() {
        let check = |a: &Snapshot, b: &Snapshot| {
            for (x, y) in [(a, b), (b, a), (a, a)] {
                let d = MapDiff::compute(x, y).expect("compatible");
                assert_eq!(d, point_reference(x, y));
                assert_eq!(d.apply_cells(x), decode_cells(y));
                assert_eq!(d.apply_routes(x), decode_routes(y));
            }
        };
        check(&snap_a(), &snap_b());
        for plan in [itm_types::EpochPlan::light(), itm_types::EpochPlan::heavy()] {
            let (before, after) = small_world_epochs(&plan);
            let d = MapDiff::compute(&before, &after).expect("compatible");
            assert!(!d.cells.is_empty() && !d.routes.is_empty(), "{plan:?}");
            check(&before, &after);
        }
    }

    #[test]
    fn self_diff_is_empty() {
        let a = snap_a();
        let d = MapDiff::compute(&a, &a).expect("compatible");
        assert!(d.is_empty());
        assert_eq!(d.apply_cells(&a), decode_cells(&a));
        assert_eq!(d.apply_routes(&a), decode_routes(&a));
    }

    #[test]
    fn diff_reports_every_kind_in_canonical_order() {
        let (a, b) = (snap_a(), snap_b());
        let d = MapDiff::compute(&a, &b).expect("compatible");

        let kinds: Vec<(u32, u32, &str)> = d
            .cells
            .iter()
            .map(|c| (c.service.raw(), c.prefix.raw(), c.kind()))
            .collect();
        assert_eq!(
            kinds,
            vec![
                (0, 1, "moved"),
                (0, 2, "added"),
                (1, 1, "removed"),
                (1, 2, "re-evidenced"),
            ]
        );
        assert_eq!(d.n_cells_of_kind("moved"), 1);
        assert_eq!(d.n_cells_of_kind("added"), 1);

        // Provenance travels with each delta.
        let moved = &d.cells[0];
        assert_eq!(moved.old_techniques(), vec!["catalog_prior"]);
        assert_eq!(moved.new_techniques(), vec!["ecs"]);
        let removed = &d.cells[2];
        assert_eq!(removed.old_techniques(), vec!["ecs", "anycast"]);
        assert!(removed.new_techniques().is_empty());

        let routes: Vec<(u32, u32, &str)> = d
            .routes
            .iter()
            .map(|r| (r.from.raw(), r.to.raw(), r.kind()))
            .collect();
        assert_eq!(
            routes,
            vec![
                (0, 2, "added"),
                (1, 2, "re-classified"),
                (2, 0, "added"),
                (2, 1, "re-classified"),
            ]
        );
    }

    #[test]
    fn applying_the_diff_to_a_reconstructs_b() {
        let (a, b) = (snap_a(), snap_b());
        let d = MapDiff::compute(&a, &b).expect("compatible");
        assert_eq!(d.apply_cells(&a), decode_cells(&b));
        assert_eq!(d.apply_routes(&a), decode_routes(&b));
        // And the reverse diff reconstructs A from B.
        let rev = MapDiff::compute(&b, &a).expect("compatible");
        assert_eq!(rev.apply_cells(&b), decode_cells(&a));
        assert_eq!(rev.apply_routes(&b), decode_routes(&a));
    }

    #[test]
    fn different_universes_are_rejected() {
        let a = snap_a();
        // Same shape, different domain table.
        let bytes = fixture(&[
            (section::META, U64(&[42, 3, 3, 2, 4, 4, 2])),
            (section::DOM_OFF, U32(&[0, 10, 20])),
            (section::DOM_BYTES, U8(b"a.example\0c.example\0")),
            (section::DOM_SORTED, U32(&[0, 1])),
            (
                section::PFX_BASE,
                U32(&[0x0A000100, 0x0A000000, 0x0A000200]),
            ),
            (section::PFX_OWNER, U32(&[1, 0, 2])),
            (section::PFX_SORTED, U32(&[1, 0, 2])),
            (section::CELL_SVC_OFF, U64(&[0, 2, 4])),
            (section::CELL_PREFIX, U32(&[0, 1, 1, 2])),
            (
                section::CELL_ADDR,
                U32(&[0x0A000001, 0x0A000201, 0x0A000001, 0x0A000201]),
            ),
            (section::CELL_BITS, U8(&[0, 0, 0, 0])),
            (section::CELL_REV, U32(&[0, 2, 1, 3])),
            (section::FRONT_ADDR, U32(&[0x0A000001, 0x0A000201])),
            (section::FRONT_OWNER, U32(&[1, u32::MAX])),
            (section::ROUTE_OFF, U64(&[0, 1, 3, 4])),
            (section::ROUTE_NBR, U32(&[1, 0, 2, 1])),
            (
                section::ROUTE_KIND,
                U8(&[rel::PROVIDER, rel::CUSTOMER, rel::PEER, rel::PEER]),
            ),
        ]);
        let c = Snapshot::from_bytes(bytes).expect("well-formed");
        let err = MapDiff::compute(&a, &c).expect_err("must reject");
        assert_eq!(
            err,
            DiffError::Incompatible {
                what: "domain tables"
            }
        );
        assert!(err.to_string().contains("not comparable"));
    }
}
