//! The snapshot writer: serialize an assembled [`TrafficMap`] into the
//! sectioned binary format of [`itm_types::snap`].
//!
//! Everything written is a pure function of `(substrate, map)` — cell
//! columns come from the [`CellMap`]'s sorted segments, claim bits from
//! [`MapClaims`] (recorded at build time or derived here from its tables,
//! identical either way), adjacency from the route view's sorted neighbor
//! lists — so the bytes are identical at any `--threads` and across runs
//! with the same seed. The file is laid out first and every column is
//! encoded straight into it, so the writer holds about one file's worth
//! of memory. The cells are read once; the reverse index comes from the
//! runs of equal serving addresses found in that pass and a
//! deterministic counting sort, in time linear in the number of cells.
//!
//! [`CellMap`]: itm_types::CellMap
//! [`MapClaims`]: crate::audit::MapClaims

use crate::audit::{bits, CellClaims, MapClaims};
use crate::map::TrafficMap;
use itm_measure::Substrate;
use itm_topology::NeighborKind;
use itm_types::snap::{rel, section, SnapWriter, META_FIELDS};
use itm_types::{Asn, CellMap, DomainTable, ItmError, PrefixId, Result};

/// Map a topology relationship onto its on-disk code.
fn rel_code(kind: NeighborKind) -> u8 {
    match kind {
        NeighborKind::Customer => rel::CUSTOMER,
        NeighborKind::Provider => rel::PROVIDER,
        NeighborKind::Peer => rel::PEER,
    }
}

/// A small direct-mapped memo in front of the front table's binary
/// search. A service's runs cycle through a handful of front-ends, so
/// 99.1% of the medium world's runs find their address here.
struct SlotMemo {
    entries: [(u32, u32); SlotMemo::SIZE],
}

impl SlotMemo {
    const SIZE: usize = 256;
    /// Slot value of an empty entry (no table has 2³² entries).
    const EMPTY: u32 = u32::MAX;

    fn new() -> SlotMemo {
        SlotMemo {
            entries: [(0, SlotMemo::EMPTY); SlotMemo::SIZE],
        }
    }

    /// The entry `addr` is memoized in (Fibonacci hashing).
    fn entry(addr: u32) -> usize {
        (addr.wrapping_mul(0x9E37_79B9) >> 24) as usize
    }

    /// `addr`'s slot in the sorted `front` table, or `None` when the
    /// table lacks it.
    fn slot(&mut self, front: &[u32], addr: u32) -> Option<u32> {
        let e = &mut self.entries[SlotMemo::entry(addr)];
        if e.0 == addr && e.1 != SlotMemo::EMPTY {
            return Some(e.1);
        }
        let k = front.binary_search(&addr).ok()? as u32;
        *e = (addr, k);
        Some(k)
    }
}

/// Runs of consecutive cells with one serving address, in cell order.
///
/// Neighbouring cells mostly share a front-end (about 1.0 M runs over
/// 5.5 M cells on the medium world), so the front table is searched,
/// and the reverse index placed, once per run rather than once per cell.
#[derive(Debug, Default)]
struct AddressRuns {
    /// First cell of each run, then the cell count: `n_runs + 1` entries.
    start: Vec<u32>,
    /// Each run's slot in the front table.
    slot: Vec<u32>,
}

/// Finds the address runs of a cell sequence, one cell at a time, and
/// each run's slot in the front table.
struct RunFinder<'f> {
    front: &'f [u32],
    memo: SlotMemo,
    runs: AddressRuns,
    /// Run addresses the front table lacks.
    missing: Vec<u32>,
    last: Option<u32>,
    next: u32,
}

impl<'f> RunFinder<'f> {
    fn new(front: &'f [u32]) -> RunFinder<'f> {
        RunFinder {
            front,
            memo: SlotMemo::new(),
            runs: AddressRuns::default(),
            missing: Vec::new(),
            last: None,
            next: 0,
        }
    }

    /// The next cell is served from `addr`.
    #[inline]
    fn cell(&mut self, addr: u32) {
        if self.last != Some(addr) {
            self.last = Some(addr);
            self.runs.start.push(self.next);
            let slot = self.memo.slot(self.front, addr).unwrap_or_else(|| {
                self.missing.push(addr);
                0
            });
            self.runs.slot.push(slot);
        }
        self.next += 1;
    }

    /// The runs, or the run addresses the front table lacks.
    fn finish(mut self) -> Result<AddressRuns, Vec<u32>> {
        self.runs.start.push(self.next);
        if self.missing.is_empty() {
            Ok(self.runs)
        } else {
            Err(self.missing)
        }
    }
}

/// The cell columns of a file: `CELL_PREFIX`, `CELL_ADDR` and
/// `CELL_BITS` payloads.
struct CellColumns<'w> {
    prefix: &'w mut [u8],
    addr: &'w mut [u8],
    bits: &'w mut [u8],
}

/// Encode the cell columns of `cells` in one pass over its segments, and
/// find the address runs on the way. With `claims`, the claim bits are
/// derived in the same pass; without, the bits column is left alone.
///
/// `front` is the sorted front table the file will carry. When a run's
/// address is missing from it, the columns are still written but the
/// missing addresses are returned instead of the runs: the table, and so
/// the file's layout, must grow first.
fn encode_cells(
    cells: &CellMap,
    front: &[u32],
    claims: Option<&CellClaims<'_>>,
    cols: CellColumns<'_>,
) -> Result<AddressRuns, Vec<u32>> {
    let mut runs = RunFinder::new(front);
    let mut prefixes = cols.prefix.chunks_exact_mut(4);
    let mut addrs = cols.addr.chunks_exact_mut(4);
    let mut bits = cols.bits.iter_mut();
    for seg in cells.segments() {
        // The segment leads each zip, so no slot of a column is skipped
        // at a segment's end.
        let columns = seg.iter().zip(&mut prefixes).zip(&mut addrs);
        let svc = claims
            .zip(seg.first())
            .map(|(d, c)| (d, d.service(c.service)));
        match svc {
            Some((derive, svc)) => {
                for (((c, p), a), b) in columns.zip(&mut bits) {
                    p.copy_from_slice(&c.prefix.raw().to_le_bytes());
                    a.copy_from_slice(&c.addr.0.to_le_bytes());
                    *b = derive.bits(&svc, c.prefix);
                    runs.cell(c.addr.0);
                }
            }
            None => {
                for ((c, p), a) in columns {
                    p.copy_from_slice(&c.prefix.raw().to_le_bytes());
                    a.copy_from_slice(&c.addr.0.to_le_bytes());
                    runs.cell(c.addr.0);
                }
            }
        }
    }
    runs.finish()
}

/// Write the reverse index into `rev`, the `CELL_REV` payload: cell
/// indices ordered by `(serving address, index)`, little-endian `u32`s.
///
/// A stable counting sort of the runs by slot orders them by address,
/// runs of one address in cell order; the index is then written front to
/// back, each run's cells side by side.
fn write_reverse_index(runs: &AddressRuns, n_fronts: usize, rev: &mut [u8]) {
    let mut at = vec![0u32; n_fronts + 1];
    for &k in &runs.slot {
        at[k as usize + 1] += 1;
    }
    for k in 1..at.len() {
        at[k] += at[k - 1];
    }
    let mut order = vec![0u32; runs.slot.len()];
    for (r, &k) in runs.slot.iter().enumerate() {
        order[at[k as usize] as usize] = r as u32;
        at[k as usize] += 1;
    }
    let mut dst = rev.chunks_exact_mut(4);
    for r in order {
        let cells = runs.start[r as usize]..runs.start[r as usize + 1];
        for (i, d) in cells.zip(&mut dst) {
            d.copy_from_slice(&i.to_le_bytes());
        }
    }
}

/// Serialize the map into snapshot bytes (see DESIGN.md §14).
///
/// Layout first: every section's length is known before any byte is
/// written, so the file is allocated once and each column is encoded
/// straight into its payload. The layout needs the front-end table,
/// every distinct serving address the map knows: the footprint
/// addresses, which hold every cell address of a measured map. A cell
/// address outside them (no default world has any) joins the table and
/// the file is laid out and written again. Besides the file, the writer
/// holds only per-run, per-prefix and per-service tables.
///
/// The claim column copies the map's recorded [`MapClaims`] when
/// `record_claims` was on and derives it from the claim tables
/// otherwise; both paths produce the same bytes because claim recording
/// is itself a pure function of `(substrate, map)`.
pub fn snapshot_bytes(s: &Substrate, map: &TrafficMap) -> Vec<u8> {
    let _span = itm_obs::span("map.snapshot");
    let rebuilt;
    let claims = match &map.claims {
        Some(recorded) => recorded,
        None => {
            let _span = itm_obs::span("map.claims");
            rebuilt = MapClaims::tables(s, map);
            &rebuilt
        }
    };
    let footprint = map
        .user_mapping
        .footprint
        .values()
        .chain(map.sni_footprints.values())
        .flatten()
        .map(|a| a.0);
    let mut front = Vec::new();
    grow_front(&mut front, footprint.collect());
    loop {
        match encode(s, map, claims, &front) {
            Ok(bytes) => return bytes,
            Err(extra) => grow_front(&mut front, extra),
        }
    }
}

/// Add addresses to the sorted front table: the footprints', then any
/// `encode_cells` found missing.
fn grow_front(front: &mut Vec<u32>, extra: Vec<u32>) {
    front.extend(extra);
    front.sort_unstable();
    front.dedup();
}

/// [`snapshot_bytes`] with a given front table: the file, or the cell
/// addresses the table lacks. `claims` are the map's recorded claims, or
/// the claim tables when it recorded none.
fn encode(
    s: &Substrate,
    map: &TrafficMap,
    claims: &MapClaims,
    front_addr: &[u32],
) -> Result<Vec<u8>, Vec<u32>> {
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

    // ---- Cells: each segment holds one service's cells, and segments
    // ascend by (service, prefix), so the service offsets add up the
    // segment lengths.
    let cells = &map.user_mapping.mapping;
    let n_cells = cells.len();
    let mut cell_svc_off: Vec<u64> = vec![0; n_services + 1];
    for seg in cells.segments() {
        let slot = seg
            .first()
            .and_then(|c| cell_svc_off.get_mut(c.service.index() + 1));
        if let Some(slot) = slot {
            *slot += seg.len() as u64;
        }
    }
    for i in 1..cell_svc_off.len() {
        cell_svc_off[i] += cell_svc_off[i - 1];
    }
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
    // The claim bits are copied from the recorded claims, or derived
    // from the claim tables in the cell pass.
    let derive = map.claims.is_none().then(|| CellClaims::new(claims, s));
    let [prefix, addr, bits] =
        w.payloads_mut([section::CELL_PREFIX, section::CELL_ADDR, section::CELL_BITS]);
    if map.claims.is_some() {
        // A short claim table (none is) leaves its tail cells with the
        // defaults every cell has: an ECS measurement and the catalogue
        // prior.
        let known = claims.cell_bits.len().min(n_cells);
        bits[..known].copy_from_slice(&claims.cell_bits[..known]);
        bits[known..].fill(bits::ECS | bits::CATALOG_PRIOR);
    }
    let cols = CellColumns { prefix, addr, bits };
    let runs = encode_cells(cells, front_addr, derive.as_ref(), cols)?;
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
    w.put_u32(
        section::FRONT_OWNER,
        front_addr.iter().map(|&a| {
            prefixes
                .lookup(itm_types::Ipv4Addr(a))
                .map(|r| r.owner.raw())
                .unwrap_or(u32::MAX)
        }),
    );
    w.put_u32(section::FRONT_ADDR, front_addr.iter().copied());
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
        write_reverse_index(&runs, n_fronts, w.payload_mut(section::CELL_REV));
    }
    let _span = itm_obs::span("snapshot.checksum");
    Ok(w.finish())
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
    use itm_types::{snap, Cell, Ipv4Addr, ServiceId};
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
    /// them: the cells, `per_segment` to a service, encoded segment by
    /// segment against the footprint's table, which grows by any address
    /// it lacks; then the run-ordered index, decoded back from its
    /// payload bytes. The encoded address column must read back as the
    /// cells' addresses.
    fn front_table_and_rev(
        cell_addr: &[u32],
        footprint: Vec<u32>,
        per_segment: usize,
    ) -> (Vec<u32>, Vec<u32>) {
        let mut cells = CellMap::new();
        for (k, chunk) in cell_addr.chunks(per_segment.max(1)).enumerate() {
            let first = k * per_segment.max(1);
            let seg = chunk
                .iter()
                .zip(first as u32..)
                .map(|(&addr, prefix)| Cell {
                    service: ServiceId(k as u32),
                    prefix: PrefixId(prefix),
                    addr: Ipv4Addr(addr),
                });
            cells.push_segment(seg.collect());
        }
        let mut front = Vec::new();
        grow_front(&mut front, footprint);
        let mut prefix_col = vec![0u8; cell_addr.len() * 4];
        let mut addr_col = vec![0u8; cell_addr.len() * 4];
        let mut bits_col = vec![0u8; cell_addr.len()];
        let runs = loop {
            let cols = CellColumns {
                prefix: &mut prefix_col,
                addr: &mut addr_col,
                bits: &mut bits_col,
            };
            match encode_cells(&cells, &front, None, cols) {
                Ok(runs) => break runs,
                Err(extra) => grow_front(&mut front, extra),
            }
        };
        assert!(bits_col.iter().all(|&b| b == 0), "no claims, no bits");
        let decode = |col: &[u8]| -> Vec<u32> {
            col.chunks_exact(4)
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .collect()
        };
        assert_eq!(decode(&addr_col), cell_addr);
        let prefixes: Vec<u32> = (0..cell_addr.len() as u32).collect();
        assert_eq!(decode(&prefix_col), prefixes);
        let mut rev = vec![0u8; cell_addr.len() * 4];
        write_reverse_index(&runs, front.len(), &mut rev);
        (front, decode(&rev))
    }

    fn assert_matches_oracle(cell_addr: &[u32], footprint: &[u32]) {
        for per_segment in [1, 2, 3, cell_addr.len().max(1)] {
            assert_eq!(
                front_table_and_rev(cell_addr, footprint.to_vec(), per_segment),
                front_table_and_rev_oracle(cell_addr, footprint),
                "cells {cell_addr:?}, footprint {footprint:?}, {per_segment} per segment"
            );
        }
    }

    #[test]
    fn front_table_and_rev_match_the_sorting_oracle() {
        // Empty map.
        assert_matches_oracle(&[], &[]);
        assert_matches_oracle(&[], &[7, 3, 7]);
        // A single front-end serving every cell: one run across segments.
        assert_matches_oracle(&[42; 5], &[42]);
        // Runs of one address that recur after other addresses, so the
        // counting sort must keep same-slot runs in cell order.
        assert_matches_oracle(&[4, 4, 2, 2, 2, 4, 9, 2, 4, 4], &[2, 4, 9]);
        // Cell addresses no footprint mentions (the table grows and the
        // cells are encoded again), below, between and above the
        // footprint, repeated.
        assert_matches_oracle(&[9, 1, 30, 9, 20, 1], &[20, 10, 10]);
        assert_matches_oracle(&[5, 5], &[]);
        // Addresses that share a memo entry, so each evicts the other.
        let shared: Vec<u32> = (1..)
            .filter(|&a| SlotMemo::entry(a) == SlotMemo::entry(1))
            .take(6)
            .collect();
        let cells: Vec<u32> = [0, 1, 0, 2, 5, 1, 3, 0, 4]
            .iter()
            .map(|&k| shared[k])
            .collect();
        assert_matches_oracle(&cells, &shared);
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
        assert_eq!(
            front_table_and_rev(&cells, footprint.clone(), 997),
            front_table_and_rev_oracle(&cells, &footprint)
        );
    }

    #[test]
    fn table_derived_claim_bits_match_the_per_cell_claims() {
        let s = Substrate::build(SubstrateConfig::small(), 139).unwrap();
        let m = TrafficMap::build(&s, &MapConfig::default()).unwrap();
        let claims = MapClaims::record(&s, &m);
        let cells = &m.user_mapping.mapping;
        assert_eq!(claims.cell_bits.len(), cells.len());
        let mut seen = 0u8;
        for (c, &got) in cells.iter().zip(&claims.cell_bits) {
            let rec = s.topo.prefixes.get(c.prefix);
            let mut want = bits::ECS | bits::CATALOG_PRIOR;
            if claims.cache_claim(c.prefix) {
                want |= bits::CACHE_PROBE;
            }
            if claims.root_claim(rec.owner) {
                want |= bits::ROOT_CRAWL;
            }
            if claims.anycast_claim(c.service, rec.owner).is_some() {
                want |= bits::ANYCAST;
            }
            if claims.tls_claim(c.service, rec.city).is_some() {
                want |= bits::TLS_NEAREST;
            }
            assert_eq!(got, want, "{:?} × {:?}", c.service, c.prefix);
            seen |= got;
        }
        // Both paths of the derivation ran: prefix bits alone, and a
        // service with a TLS-nearest table.
        assert_ne!(seen & bits::CACHE_PROBE, 0);
        assert_ne!(seen & bits::TLS_NEAREST, 0);
        // The writer's cell pass derives the same bits from the tables.
        let tables = MapClaims::tables(&s, &m);
        let derive = CellClaims::new(&tables, &s);
        let mut cols = [vec![0u8; cells.len() * 4], vec![0u8; cells.len() * 4]];
        let [prefix, addr] = &mut cols;
        let mut from_tables = vec![0u8; cells.len()];
        let cols = CellColumns {
            prefix,
            addr,
            bits: &mut from_tables,
        };
        let front: Vec<u32> = cells.iter().map(|c| c.addr.0).collect();
        let mut front = front;
        grow_front(&mut front, Vec::new());
        assert!(encode_cells(cells, &front, Some(&derive), cols).is_ok());
        assert_eq!(from_tables, claims.cell_bits);
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
