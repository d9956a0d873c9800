//! The snapshot writer: serialize an assembled [`TrafficMap`] into the
//! sectioned binary format of [`itm_types::snap`].
//!
//! Everything written is a pure function of `(substrate, map)` — cell
//! columns come from the already-sorted [`CellMap`] iteration, claim bits
//! from [`MapClaims`] (recorded at build time or rebuilt here, identical
//! either way), adjacency from the route view's sorted neighbor lists —
//! so the bytes are identical at any `--threads` and across runs with the
//! same seed. The file is laid out first and every column is encoded
//! straight into it, so the writer holds about one file's worth of
//! memory. The front-end table and reverse index come from a list of
//! runs of equal serving addresses and a deterministic counting sort, in
//! time linear in the number of cells.
//!
//! [`CellMap`]: itm_types::CellMap
//! [`MapClaims`]: crate::audit::MapClaims

use crate::audit::{bits, MapClaims};
use crate::map::TrafficMap;
use itm_measure::Substrate;
use itm_topology::NeighborKind;
use itm_types::snap::{rel, section, SnapWriter, META_FIELDS};
use itm_types::{Asn, DomainTable, ItmError, PrefixId, Result};

/// Map a topology relationship onto its on-disk code.
fn rel_code(kind: NeighborKind) -> u8 {
    match kind {
        NeighborKind::Customer => rel::CUSTOMER,
        NeighborKind::Provider => rel::PROVIDER,
        NeighborKind::Peer => rel::PEER,
    }
}

/// Runs of equal serving addresses in cell order, as `(address, length)`.
///
/// Neighbouring cells mostly share a front-end (four in five on a
/// default-topology world), so the front table is searched, and the
/// reverse index placed, once per run rather than once per cell.
fn address_runs(addrs: impl Iterator<Item = u32>) -> Vec<(u32, u32)> {
    let mut runs: Vec<(u32, u32)> = Vec::new();
    for addr in addrs {
        match runs.last_mut() {
            Some((a, len)) if *a == addr => *len += 1,
            _ => runs.push((addr, 1)),
        }
    }
    runs
}

/// The front-end table and each run's slot in it.
///
/// The table is every distinct serving address the map knows, ascending:
/// the footprint addresses plus any run address outside them. A binary
/// search over the table (a few thousand entries) gives each run its slot.
fn front_table(runs: &[(u32, u32)], mut front_addr: Vec<u32>) -> (Vec<u32>, Vec<u32>) {
    front_addr.sort_unstable();
    front_addr.dedup();
    let (mut slots, extra) = run_slots(runs, &front_addr);
    if !extra.is_empty() {
        // Cell addresses no footprint mentions (no default world has
        // any) join the table, which moves the slots: search again.
        front_addr.extend(extra);
        front_addr.sort_unstable();
        front_addr.dedup();
        slots = run_slots(runs, &front_addr).0;
    }
    (front_addr, slots)
}

/// Each run's slot in the sorted `front` table, plus the run addresses
/// the table lacks (their slot reads 0).
fn run_slots(runs: &[(u32, u32)], front: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let mut missing = Vec::new();
    let slots = runs
        .iter()
        .map(|&(a, _)| match front.binary_search(&a) {
            Ok(k) => k as u32,
            Err(_) => {
                missing.push(a);
                0
            }
        })
        .collect();
    (slots, missing)
}

/// Write the reverse index into `rev`, the `CELL_REV` payload: cell
/// indices ordered by `(serving address, index)`, little-endian `u32`s.
///
/// A stable counting sort over the run slots: `start[k]` is where slot
/// k's cells begin in the index. A run is consecutive cell indices with
/// one slot, so its cells land side by side.
fn write_reverse_index(runs: &[(u32, u32)], slots: &[u32], n_fronts: usize, rev: &mut [u8]) {
    let mut start = vec![0u32; n_fronts + 1];
    for (&(_, len), &k) in runs.iter().zip(slots) {
        start[k as usize + 1] += len;
    }
    for k in 1..start.len() {
        start[k] += start[k - 1];
    }
    let mut first = 0u32;
    for (&(_, len), &k) in runs.iter().zip(slots) {
        let at = &mut start[k as usize];
        let dst = &mut rev[*at as usize * 4..(*at + len) as usize * 4];
        for (d, i) in dst.chunks_exact_mut(4).zip(first..) {
            d.copy_from_slice(&i.to_le_bytes());
        }
        *at += len;
        first += len;
    }
}

/// Serialize the map into snapshot bytes (see DESIGN.md §14).
///
/// Layout first: every section's length is known before any byte is
/// written, so the file is allocated once and each column is encoded
/// straight into its payload. Besides the file, the writer holds only
/// per-run, per-prefix and per-service tables, and the claim bits.
///
/// The claim column reuses the map's recorded [`MapClaims`] when
/// `record_claims` was on and rebuilds them otherwise; both paths produce
/// the same bytes because claim recording is itself a pure function of
/// `(substrate, map)`.
pub fn snapshot_bytes(s: &Substrate, map: &TrafficMap) -> Vec<u8> {
    let _span = itm_obs::span("map.snapshot");

    // Claim bitmaps, aligned with the cell columns. The recorded table is
    // in the same iteration order, so it maps through directly.
    let rebuilt;
    let cell_bits: &[u8] = match &map.claims {
        Some(c) => &c.cell_bits,
        None => {
            rebuilt = MapClaims::record(s, map).cell_bits;
            &rebuilt
        }
    };

    let columns = itm_obs::span("snapshot.columns");
    // ---- Domain table: catalogue order, exactly as the map build interns.
    let domains = DomainTable::from_names(s.catalog.services.iter().map(|x| &x.domain));
    let n_services = domains.len();
    let mut dom_sorted: Vec<u32> = (0..n_services as u32).collect();
    dom_sorted.sort_by(|&a, &b| {
        domains
            .name(itm_types::DomainId(a))
            .cmp(domains.name(itm_types::DomainId(b)))
            .then(a.cmp(&b))
    });
    // Each name is followed by a NUL, which keeps names greppable in
    // hexdumps.
    let name_lens = || domains.iter().map(|(_, name)| name.len() as u32 + 1);
    let dom_len = name_lens().sum::<u32>() as usize;

    // ---- Prefix sort index, in prefix-id order.
    let prefixes = &s.topo.prefixes;
    let n_prefixes = prefixes.len();
    let mut pfx_sorted: Vec<u32> = (0..n_prefixes as u32).collect();
    pfx_sorted.sort_by_key(|&i| (prefixes.get(PrefixId(i)).net.network().0, i));

    // ---- Cells: CellMap iteration is already (service, prefix) sorted,
    // so the service-major runs fall out of a single pass.
    let cells = &map.user_mapping.mapping;
    let n_cells = cells.len();
    let mut cell_svc_off: Vec<u64> = vec![0; n_services + 1];
    for c in cells.iter() {
        if let Some(slot) = cell_svc_off.get_mut(c.service.index() + 1) {
            *slot += 1;
        }
    }
    for i in 1..cell_svc_off.len() {
        cell_svc_off[i] += cell_svc_off[i - 1];
    }

    // ---- Front-end table from the address runs.
    let runs = address_runs(cells.iter().map(|c| c.addr.0));
    let footprint_addrs: Vec<u32> = map
        .user_mapping
        .footprint
        .values()
        .chain(map.sni_footprints.values())
        .flatten()
        .map(|a| a.0)
        .collect();
    let (front_addr, slots) = front_table(&runs, footprint_addrs);
    let n_fronts = front_addr.len();

    // ---- Route adjacency: the view's neighbor lists are sorted by ASN.
    let view = &map.route_view;
    let n_ases = view.n_ases();
    let adjacency = || (0..n_ases as u32).flat_map(|a| view.neighbors(Asn(a)));
    let n_route = adjacency().count();

    // ---- Lay out the file, sections in id order, then fill each one.
    let mut w = SnapWriter::new(&[
        (section::META, 8, META_FIELDS),
        (section::DOM_OFF, 4, n_services + 1),
        (section::DOM_BYTES, 1, dom_len),
        (section::DOM_SORTED, 4, n_services),
        (section::PFX_BASE, 4, n_prefixes),
        (section::PFX_OWNER, 4, n_prefixes),
        (section::PFX_SORTED, 4, n_prefixes),
        (section::CELL_SVC_OFF, 8, n_services + 1),
        (section::CELL_PREFIX, 4, n_cells),
        (section::CELL_ADDR, 4, n_cells),
        (section::CELL_BITS, 1, n_cells),
        (section::CELL_REV, 4, n_cells),
        (section::FRONT_ADDR, 4, n_fronts),
        (section::FRONT_OWNER, 4, n_fronts),
        (section::ROUTE_OFF, 8, n_ases + 1),
        (section::ROUTE_NBR, 4, n_route),
        (section::ROUTE_KIND, 1, n_route),
    ]);
    w.put_u64(
        section::META,
        [
            s.seed,
            n_ases as u64,
            n_prefixes as u64,
            n_services as u64,
            n_cells as u64,
            n_route as u64,
            n_fronts as u64,
        ],
    );
    w.put_u32(
        section::DOM_OFF,
        std::iter::once(0).chain(name_lens().scan(0, |end, len| {
            *end += len;
            Some(*end)
        })),
    );
    w.put_u8(
        section::DOM_BYTES,
        domains
            .iter()
            .flat_map(|(_, name)| name.bytes().chain(std::iter::once(0))),
    );
    w.put_u32(section::DOM_SORTED, dom_sorted);
    w.put_u32(
        section::PFX_BASE,
        prefixes.iter().map(|r| r.net.network().0),
    );
    w.put_u32(section::PFX_OWNER, prefixes.iter().map(|r| r.owner.raw()));
    w.put_u32(section::PFX_SORTED, pfx_sorted);
    w.put_u64(section::CELL_SVC_OFF, cell_svc_off);
    w.put_u32(section::CELL_PREFIX, cells.iter().map(|c| c.prefix.raw()));
    w.put_u32(section::CELL_ADDR, cells.iter().map(|c| c.addr.0));
    // A short claim table (none is) leaves its tail cells with the
    // defaults every cell has: an ECS measurement and the catalogue prior.
    let bits = w.payload_mut(section::CELL_BITS);
    let known = cell_bits.len().min(n_cells);
    bits[..known].copy_from_slice(&cell_bits[..known]);
    bits[known..].fill(bits::ECS | bits::CATALOG_PRIOR);
    w.put_u32(
        section::FRONT_OWNER,
        front_addr.iter().map(|&a| {
            prefixes
                .lookup(itm_types::Ipv4Addr(a))
                .map(|r| r.owner.raw())
                .unwrap_or(u32::MAX)
        }),
    );
    w.put_u32(section::FRONT_ADDR, front_addr);
    w.put_u64(
        section::ROUTE_OFF,
        std::iter::once(0).chain((0..n_ases as u32).scan(0, |end, a| {
            *end += view.neighbors(Asn(a)).len() as u64;
            Some(*end)
        })),
    );
    w.put_u32(section::ROUTE_NBR, adjacency().map(|(nbr, _)| nbr.raw()));
    w.put_u8(
        section::ROUTE_KIND,
        adjacency().map(|&(_, kind)| rel_code(kind)),
    );
    drop(columns);

    {
        let _span = itm_obs::span("snapshot.reverse_index");
        write_reverse_index(&runs, &slots, n_fronts, w.payload_mut(section::CELL_REV));
    }
    let _span = itm_obs::span("snapshot.checksum");
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

    /// The front table and reverse index as `snapshot_bytes` derives
    /// them: from the address runs, the index decoded back from its
    /// payload bytes.
    fn front_table_and_rev(cell_addr: &[u32], footprint: Vec<u32>) -> (Vec<u32>, Vec<u32>) {
        let runs = address_runs(cell_addr.iter().copied());
        let (front, slots) = front_table(&runs, footprint);
        let mut rev = vec![0u8; cell_addr.len() * 4];
        write_reverse_index(&runs, &slots, front.len(), &mut rev);
        let rev = rev
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        (front, rev)
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
