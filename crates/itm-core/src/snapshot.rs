//! The snapshot writer: serialize an assembled [`TrafficMap`] into the
//! sectioned binary format of [`itm_types::snap`].
//!
//! Everything written is a pure function of `(substrate, map)` — cell
//! columns come from the already-sorted [`CellMap`] iteration, claim bits
//! from [`MapClaims`] (recorded at build time or rebuilt here, identical
//! either way), adjacency from the route view's sorted neighbor lists —
//! so the bytes are identical at any `--threads` and across runs with the
//! same seed. The front-end table and reverse index are derived by a
//! deterministic counting sort, in time linear in the number of cells.
//!
//! [`CellMap`]: itm_types::CellMap
//! [`MapClaims`]: crate::audit::MapClaims

use crate::audit::{bits, MapClaims};
use crate::map::TrafficMap;
use itm_measure::Substrate;
use itm_topology::NeighborKind;
use itm_types::snap::{rel, section, SnapWriter};
use itm_types::{Asn, DomainTable, ItmError, Result};

/// Map a topology relationship onto its on-disk code.
fn rel_code(kind: NeighborKind) -> u8 {
    match kind {
        NeighborKind::Customer => rel::CUSTOMER,
        NeighborKind::Provider => rel::PROVIDER,
        NeighborKind::Peer => rel::PEER,
    }
}

/// The front-end table and the reverse index.
///
/// The table is every distinct serving address the map knows, ascending:
/// the footprint addresses plus any cell address outside them. The
/// reverse index lists cell indices ordered by `(serving address, index)`.
/// Both come out in time linear in the number of cells: a binary search
/// gives each cell its slot in the table (a few thousand entries), and a
/// stable counting sort over the slots yields the index order.
fn front_table_and_rev(cell_addr: &[u32], mut front_addr: Vec<u32>) -> (Vec<u32>, Vec<u32>) {
    // Neighbouring cells mostly share a front-end (four in five on a
    // default-topology world), so the table is searched once per run of
    // equal addresses, not once per cell.
    let runs = || cell_addr.chunk_by(|a, b| a == b);
    front_addr.sort_unstable();
    front_addr.dedup();
    let (mut slots, extra) = run_slots(runs(), &front_addr);
    if !extra.is_empty() {
        // Cell addresses no footprint mentions (no default world has
        // any) join the table, which moves the slots: search again.
        front_addr.extend(extra);
        front_addr.sort_unstable();
        front_addr.dedup();
        slots = run_slots(runs(), &front_addr).0;
    }

    // Counting sort: `start[k]` is where slot k's cells begin in the
    // index. A run is consecutive cell indices with one slot, so its
    // cells land side by side.
    let mut start = vec![0u32; front_addr.len() + 1];
    for (run, &k) in runs().zip(&slots) {
        start[k as usize + 1] += run.len() as u32;
    }
    for k in 1..start.len() {
        start[k] += start[k - 1];
    }
    let mut cell_rev = vec![0u32; cell_addr.len()];
    let mut first = 0u32;
    for (run, &k) in runs().zip(&slots) {
        let at = &mut start[k as usize];
        let len = run.len() as u32;
        for (dst, i) in cell_rev[*at as usize..(*at + len) as usize]
            .iter_mut()
            .zip(first..)
        {
            *dst = i;
        }
        *at += len;
        first += len;
    }
    (front_addr, cell_rev)
}

/// Each run's slot in the sorted `front` table, plus the run addresses
/// the table lacks (their slot reads 0).
fn run_slots<'a>(runs: impl Iterator<Item = &'a [u32]>, front: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let mut slots = Vec::new();
    let mut missing = Vec::new();
    for &a in runs.filter_map(<[u32]>::first) {
        let k = match front.binary_search(&a) {
            Ok(k) => k as u32,
            Err(_) => {
                missing.push(a);
                0
            }
        };
        slots.push(k);
    }
    (slots, missing)
}

/// Serialize the map into snapshot bytes (see DESIGN.md §14).
///
/// The claim column reuses the map's recorded [`MapClaims`] when
/// `record_claims` was on and rebuilds them otherwise; both paths produce
/// the same bytes because claim recording is itself a pure function of
/// `(substrate, map)`.
pub fn snapshot_bytes(s: &Substrate, map: &TrafficMap) -> Vec<u8> {
    let _span = itm_obs::span("map.snapshot");

    // ---- Domain table: catalogue order, exactly as the map build interns.
    let domains = DomainTable::from_names(s.catalog.services.iter().map(|x| &x.domain));
    let n_services = domains.len();
    let mut dom_off: Vec<u32> = Vec::with_capacity(n_services + 1);
    let mut dom_bytes: Vec<u8> = Vec::new();
    dom_off.push(0);
    for (_, name) in domains.iter() {
        dom_bytes.extend_from_slice(name.as_bytes());
        dom_bytes.push(0); // NUL terminator keeps names greppable in hexdumps
        dom_off.push(dom_bytes.len() as u32);
    }
    let mut dom_sorted: Vec<u32> = (0..n_services as u32).collect();
    dom_sorted.sort_by(|&a, &b| {
        domains
            .name(itm_types::DomainId(a))
            .cmp(domains.name(itm_types::DomainId(b)))
            .then(a.cmp(&b))
    });

    // ---- Prefix columns, in prefix-id order.
    let n_prefixes = s.topo.prefixes.len();
    let mut pfx_base: Vec<u32> = Vec::with_capacity(n_prefixes);
    let mut pfx_owner: Vec<u32> = Vec::with_capacity(n_prefixes);
    for r in s.topo.prefixes.iter() {
        pfx_base.push(r.net.network().0);
        pfx_owner.push(r.owner.raw());
    }
    let mut pfx_sorted: Vec<u32> = (0..n_prefixes as u32).collect();
    pfx_sorted.sort_by_key(|&i| (pfx_base[i as usize], i));

    // ---- Cell columns: CellMap iteration is already (service, prefix)
    // sorted, so the service-major runs fall out of a single pass.
    let cells = &map.user_mapping.mapping;
    let n_cells = cells.len();
    let mut cell_svc_off: Vec<u64> = vec![0; n_services + 1];
    let mut cell_prefix: Vec<u32> = Vec::with_capacity(n_cells);
    let mut cell_addr: Vec<u32> = Vec::with_capacity(n_cells);
    for c in cells.iter() {
        if let Some(slot) = cell_svc_off.get_mut(c.service.index() + 1) {
            *slot += 1;
        }
        cell_prefix.push(c.prefix.raw());
        cell_addr.push(c.addr.0);
    }
    for i in 1..cell_svc_off.len() {
        cell_svc_off[i] += cell_svc_off[i - 1];
    }

    // Claim bitmaps, aligned with the cell columns. The recorded table is
    // in the same iteration order, so it maps through directly.
    let mut cell_bits = match &map.claims {
        Some(c) => c.cell_bits.clone(),
        None => MapClaims::record(s, map).cell_bits,
    };
    cell_bits.resize(n_cells, bits::ECS | bits::CATALOG_PRIOR);

    // ---- Front-end table and reverse index.
    let footprint_addrs: Vec<u32> = map
        .user_mapping
        .footprint
        .values()
        .chain(map.sni_footprints.values())
        .flatten()
        .map(|a| a.0)
        .collect();
    let (front_addr, cell_rev) = front_table_and_rev(&cell_addr, footprint_addrs);
    let front_owner: Vec<u32> = front_addr
        .iter()
        .map(|&a| {
            s.topo
                .prefixes
                .lookup(itm_types::Ipv4Addr(a))
                .map(|r| r.owner.raw())
                .unwrap_or(u32::MAX)
        })
        .collect();

    // ---- Route adjacency: the view's neighbor lists are sorted by ASN.
    let n_ases = map.route_view.n_ases();
    let mut route_off: Vec<u64> = Vec::with_capacity(n_ases + 1);
    let mut route_nbr: Vec<u32> = Vec::new();
    let mut route_kind: Vec<u8> = Vec::new();
    route_off.push(0);
    for a in 0..n_ases as u32 {
        for &(nbr, kind) in map.route_view.neighbors(Asn(a)) {
            route_nbr.push(nbr.raw());
            route_kind.push(rel_code(kind));
        }
        route_off.push(route_nbr.len() as u64);
    }

    // ---- Assemble, sections in id order.
    let meta = [
        s.seed,
        n_ases as u64,
        n_prefixes as u64,
        n_services as u64,
        n_cells as u64,
        route_nbr.len() as u64,
        front_addr.len() as u64,
    ];
    let mut w = SnapWriter::new();
    w.section_u64(section::META, &meta);
    w.section_u32(section::DOM_OFF, &dom_off);
    w.section_u8(section::DOM_BYTES, &dom_bytes);
    w.section_u32(section::DOM_SORTED, &dom_sorted);
    w.section_u32(section::PFX_BASE, &pfx_base);
    w.section_u32(section::PFX_OWNER, &pfx_owner);
    w.section_u32(section::PFX_SORTED, &pfx_sorted);
    w.section_u64(section::CELL_SVC_OFF, &cell_svc_off);
    w.section_u32(section::CELL_PREFIX, &cell_prefix);
    w.section_u32(section::CELL_ADDR, &cell_addr);
    w.section_u8(section::CELL_BITS, &cell_bits);
    w.section_u32(section::CELL_REV, &cell_rev);
    w.section_u32(section::FRONT_ADDR, &front_addr);
    w.section_u32(section::FRONT_OWNER, &front_owner);
    w.section_u64(section::ROUTE_OFF, &route_off);
    w.section_u32(section::ROUTE_NBR, &route_nbr);
    w.section_u8(section::ROUTE_KIND, &route_kind);
    w.finish()
}

/// Serialize the map and write it to `path`, returning the byte length.
pub fn write_snapshot(s: &Substrate, map: &TrafficMap, path: &str) -> Result<u64> {
    let bytes = snapshot_bytes(s, map);
    std::fs::write(path, &bytes)
        .map_err(|e| ItmError::config("snapshot_path", format!("cannot write {path}: {e}")))?;
    Ok(bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::MapConfig;
    use itm_measure::SubstrateConfig;
    use itm_types::snap;
    use std::collections::BTreeSet;

    #[test]
    fn snapshot_parses_and_counts_match_the_map() {
        let s = Substrate::build(SubstrateConfig::small(), 139).unwrap();
        let m = TrafficMap::build(&s, &MapConfig::default()).unwrap();
        let bytes = snapshot_bytes(&s, &m);
        let dir = snap::parse_dir(&bytes).unwrap();
        assert_eq!(dir.len(), 17);
        let meta = dir.iter().find(|e| e.id == snap::section::META).unwrap();
        let at = |k: usize| snap::read_u64(&bytes, meta.offset as usize + k * 8).unwrap();
        assert_eq!(at(0), s.seed);
        assert_eq!(at(1), m.route_view.n_ases() as u64);
        assert_eq!(at(2), s.topo.prefixes.len() as u64);
        assert_eq!(at(3), s.catalog.len() as u64);
        assert_eq!(at(4), m.user_mapping.mapping.len() as u64);
        assert_eq!(at(5), m.route_view.n_edges_directed() as u64);
    }

    #[test]
    fn recorded_and_rebuilt_claims_write_identical_bytes() {
        let s = Substrate::build(SubstrateConfig::small(), 139).unwrap();
        let plain = TrafficMap::build(&s, &MapConfig::default()).unwrap();
        let cfg = MapConfig {
            record_claims: true,
            ..MapConfig::default()
        };
        let recorded = TrafficMap::build(&s, &cfg).unwrap();
        assert_eq!(snapshot_bytes(&s, &plain), snapshot_bytes(&s, &recorded));
    }

    /// The front table and reverse index as first written: a `BTreeSet`
    /// of every address and a comparison sort by `(address, index)`.
    fn front_table_and_rev_oracle(cell_addr: &[u32], footprint: &[u32]) -> (Vec<u32>, Vec<u32>) {
        let fronts: BTreeSet<u32> = cell_addr.iter().chain(footprint).copied().collect();
        let mut rev: Vec<u32> = (0..cell_addr.len() as u32).collect();
        rev.sort_by_key(|&i| (cell_addr[i as usize], i));
        (fronts.into_iter().collect(), rev)
    }

    fn assert_matches_oracle(cell_addr: &[u32], footprint: &[u32]) {
        assert_eq!(
            front_table_and_rev(cell_addr, footprint.to_vec()),
            front_table_and_rev_oracle(cell_addr, footprint),
            "cells {cell_addr:?}, footprint {footprint:?}"
        );
    }

    #[test]
    fn front_table_and_rev_match_the_sorting_oracle() {
        // Empty map.
        assert_matches_oracle(&[], &[]);
        assert_matches_oracle(&[], &[7, 3, 7]);
        // A single front-end serving every cell.
        assert_matches_oracle(&[42; 5], &[42]);
        // Cell addresses no footprint mentions (the "extra" branch),
        // below, between and above the footprint, repeated.
        assert_matches_oracle(&[9, 1, 30, 9, 20, 1], &[20, 10, 10]);
        assert_matches_oracle(&[5, 5], &[]);
        // A real map.
        let s = Substrate::build(SubstrateConfig::small(), 139).unwrap();
        let m = TrafficMap::build(&s, &MapConfig::default()).unwrap();
        let cells: Vec<u32> = m.user_mapping.mapping.iter().map(|c| c.addr.0).collect();
        let footprint: Vec<u32> = m
            .user_mapping
            .footprint
            .values()
            .chain(m.sni_footprints.values())
            .flatten()
            .map(|a| a.0)
            .collect();
        assert_matches_oracle(&cells, &footprint);
    }

    #[test]
    fn wire_claim_bits_match_audit_bits() {
        // The on-disk constants are frozen copies of the audit's; if the
        // audit encoding ever moves, the snapshot writer must translate.
        assert_eq!(snap::claim::CACHE_PROBE, bits::CACHE_PROBE);
        assert_eq!(snap::claim::ROOT_CRAWL, bits::ROOT_CRAWL);
        assert_eq!(snap::claim::ECS, bits::ECS);
        assert_eq!(snap::claim::ANYCAST, bits::ANYCAST);
        assert_eq!(snap::claim::TLS_NEAREST, bits::TLS_NEAREST);
        assert_eq!(snap::claim::CATALOG_PRIOR, bits::CATALOG_PRIOR);
    }
}
