//! Snapshot round-trip: every query the serving layer answers off the
//! bytes must agree with the in-memory [`TrafficMap`] the bytes were
//! serialized from, the bytes must be identical at any thread count, a
//! format-v1 file must still open and answer alike, and any corruption
//! of either version must be rejected at open.

use itm_core::{snapshot_bytes, MapConfig, ParallelExecutor, TrafficMap};
use itm_measure::{Substrate, SubstrateConfig};
use itm_serve::Snapshot;
use itm_types::snap::{self, section, SnapError, SnapWriter};
use itm_types::{Asn, Ipv4Addr, PrefixId, ServiceId};
use proptest::prelude::*;

fn small_world(seed: u64) -> (Substrate, TrafficMap) {
    let s = Substrate::build(SubstrateConfig::small(), seed).unwrap();
    let m = TrafficMap::build(&s, &MapConfig::default()).unwrap();
    (s, m)
}

/// One small snapshot, built once and shared by every proptest case —
/// rebuilding the map per case would dominate the suite's runtime.
fn good_bytes() -> &'static [u8] {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(|| {
        let (s, m) = small_world(7);
        snapshot_bytes(&s, &m)
    })
}

/// `bytes` with its header's version and checksum fields overwritten.
fn restamped(bytes: &[u8], version: u32, checksum: fn(&[u8]) -> u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[8..12].copy_from_slice(&version.to_le_bytes());
    let sum = checksum(&out);
    out[16..24].copy_from_slice(&sum.to_le_bytes());
    out
}

/// The shared small snapshot as a format-v1 file would carry it: version
/// 1 and the FNV-1a 64 checksum, every other byte unchanged.
fn v1_bytes() -> &'static [u8] {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(|| restamped(good_bytes(), snap::V1, snap::checksum_v1))
}

#[test]
fn a_v1_file_answers_every_query_like_the_v2_file() {
    assert_eq!(&good_bytes()[8..12], &snap::VERSION.to_le_bytes());
    let v2 = Snapshot::from_bytes(good_bytes().to_vec()).unwrap();
    let v1 = Snapshot::from_bytes(v1_bytes().to_vec()).unwrap();
    assert_eq!(v1.n_cells(), v2.n_cells());
    assert_eq!(v1.n_ases(), v2.n_ases());

    let mut addrs = std::collections::BTreeSet::new();
    for i in 0..v2.n_cells() {
        let (svc, pfx, addr) = v2.cell(i).unwrap();
        assert_eq!(v1.cell(i), Some((svc, pfx, addr)));
        assert_eq!(v1.point(svc, pfx), v2.point(svc, pfx));
        addrs.insert(addr);
    }
    for sv in 0..v2.n_services() as u32 {
        for pf in (0..v2.n_prefixes() as u32).step_by(7) {
            let (svc, pfx) = (ServiceId(sv), PrefixId(pf));
            assert_eq!(v1.point(svc, pfx), v2.point(svc, pfx));
        }
    }
    for addr in addrs {
        assert_eq!(v1.reverse(addr), v2.reverse(addr), "reverse({addr})");
    }
    for a in 0..v2.n_ases() as u32 {
        assert!(v1.neighbors(Asn(a)).eq(v2.neighbors(Asn(a))), "AS{a}");
    }
}

#[test]
fn each_version_is_checked_with_its_own_checksum() {
    for (version, checksum) in [
        (snap::VERSION, snap::checksum_v1 as fn(&[u8]) -> u64),
        (snap::V1, snap::checksum),
    ] {
        let err = open_error(restamped(good_bytes(), version, checksum));
        assert!(
            matches!(err, Some(SnapError::ChecksumMismatch { .. })),
            "v{version}: {err:?}"
        );
    }
}

#[test]
fn unknown_versions_are_rejected() {
    for version in [0, 3] {
        assert_eq!(
            open_error(restamped(good_bytes(), version, snap::checksum)),
            Some(SnapError::BadVersion { found: version })
        );
    }
}

#[test]
fn every_point_query_agrees_with_the_in_memory_map() {
    let (s, m) = small_world(42);
    let snap = Snapshot::from_bytes(snapshot_bytes(&s, &m)).unwrap();
    let cells = &m.user_mapping.mapping;
    assert_eq!(snap.n_cells(), cells.len());

    // Every in-memory cell answers identically off the bytes.
    for c in cells.iter() {
        let ans = snap
            .point(c.service, c.prefix)
            .unwrap_or_else(|| panic!("cell {:?}×{:?} missing", c.service, c.prefix));
        assert_eq!(ans.addr, c.addr);
    }

    // Every (service, prefix) pair, present or absent, answers
    // identically.
    let mut checked = 0;
    for sv in 0..s.catalog.len() as u32 {
        for pf in 0..s.topo.prefixes.len() as u32 {
            let service = ServiceId(sv);
            let prefix = PrefixId(pf);
            let mem = cells.get(service, prefix);
            let served = snap.point(service, prefix).map(|a| a.addr);
            assert_eq!(mem, served, "disagreement at svc{sv} pfx{pf}");
            checked += 1;
        }
    }
    assert!(checked > 1000, "sweep too small to mean anything");
}

#[test]
fn reverse_lookup_agrees_with_a_scan_of_the_in_memory_map() {
    let (s, m) = small_world(42);
    let snap = Snapshot::from_bytes(snapshot_bytes(&s, &m)).unwrap();
    let cells = &m.user_mapping.mapping;

    // Collect the expected reverse image of every 13th cell's address.
    let probe_addrs: Vec<Ipv4Addr> = cells
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 13 == 0)
        .map(|(_, c)| c.addr)
        .collect();
    for addr in probe_addrs {
        let mut expect: Vec<(ServiceId, PrefixId)> = cells
            .iter()
            .filter(|c| c.addr == addr)
            .map(|c| (c.service, c.prefix))
            .collect();
        expect.sort();
        let mut got = snap.reverse(addr);
        got.sort();
        assert_eq!(expect, got, "reverse({addr}) disagrees");
    }
    assert!(snap.reverse(Ipv4Addr(0xFFFF_FFFF)).is_empty());
}

#[test]
fn route_queries_agree_with_the_route_view() {
    let (s, m) = small_world(42);
    let snap = Snapshot::from_bytes(snapshot_bytes(&s, &m)).unwrap();
    assert_eq!(snap.n_ases(), m.route_view.n_ases());
    for a in 0..m.route_view.n_ases() as u32 {
        let mem: Vec<(Asn, u8)> = m
            .route_view
            .neighbors(Asn(a))
            .iter()
            .map(|&(nbr, kind)| {
                let code = match kind {
                    itm_topology::NeighborKind::Customer => itm_types::snap::rel::CUSTOMER,
                    itm_topology::NeighborKind::Provider => itm_types::snap::rel::PROVIDER,
                    itm_topology::NeighborKind::Peer => itm_types::snap::rel::PEER,
                };
                (nbr, code)
            })
            .collect();
        let served: Vec<(Asn, u8)> = snap.neighbors(Asn(a)).collect();
        assert_eq!(mem, served, "adjacency of AS{a} disagrees");
        for (nbr, code) in mem {
            assert_eq!(snap.edge(Asn(a), nbr), Some(code));
        }
    }
}

#[test]
fn domain_and_prefix_tables_agree_with_the_substrate() {
    let (s, m) = small_world(42);
    let snap = Snapshot::from_bytes(snapshot_bytes(&s, &m)).unwrap();
    assert_eq!(snap.n_services(), s.catalog.len());
    for svc in &s.catalog.services {
        assert_eq!(snap.domain_of(svc.id), Some(svc.domain.as_str()));
        assert_eq!(snap.service_named(&svc.domain), Some(svc.id));
    }
    assert_eq!(snap.n_prefixes(), s.topo.prefixes.len());
    for rec in s.topo.prefixes.iter() {
        assert_eq!(snap.prefix_net(rec.id), Some(rec.net));
        assert_eq!(snap.prefix_owner(rec.id), Some(rec.owner));
        assert_eq!(snap.find_prefix(rec.net), Some(rec.id));
        assert_eq!(snap.prefix_of_addr(rec.net.network()), Some(rec.id));
    }
}

#[test]
fn snapshot_bytes_are_identical_across_thread_counts() {
    let s = Substrate::build(SubstrateConfig::small(), 42).unwrap();
    let one = {
        let exec = ParallelExecutor::new(1);
        let m = TrafficMap::build_with(&s, &MapConfig::default(), &exec).unwrap();
        snapshot_bytes(&s, &m)
    };
    let three = {
        let exec = ParallelExecutor::new(3);
        let m = TrafficMap::build_with(&s, &MapConfig::default(), &exec).unwrap();
        snapshot_bytes(&s, &m)
    };
    assert_eq!(one, three, "snapshot bytes depend on the thread count");
}

/// `bytes` with one section's payload edited, rewritten through the
/// snapshot writer so the checksum is valid and only the content checks
/// of `Snapshot::from_bytes` can reject it.
fn with_section_edited(bytes: &[u8], id: u32, edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
    let dir = snap::parse_dir(bytes).unwrap();
    let layout: Vec<(u32, usize, usize)> = dir
        .iter()
        .map(|e| {
            let width = e.len.checked_div(e.count).unwrap_or(1);
            (e.id, width as usize, e.count as usize)
        })
        .collect();
    let mut w = SnapWriter::new(&layout);
    for e in &dir {
        let payload = &bytes[e.offset as usize..(e.offset + e.len) as usize];
        w.payload_mut(e.id).copy_from_slice(payload);
    }
    edit(w.payload_mut(id));
    w.finish()
}

fn open_error(bytes: Vec<u8>) -> Option<SnapError> {
    Snapshot::from_bytes(bytes).err()
}

#[test]
fn a_cell_prefix_out_of_range_is_rejected() {
    let good = good_bytes();
    let n_prefixes = Snapshot::from_bytes(good.to_vec()).unwrap().n_prefixes() as u32;
    // The last cell holds the largest prefix of its service's run, so
    // raising it past the table keeps the run ascending.
    let bad = with_section_edited(good, section::CELL_PREFIX, |p| {
        let n = p.len();
        p[n - 4..].copy_from_slice(&n_prefixes.to_le_bytes());
    });
    assert_eq!(
        open_error(bad),
        Some(SnapError::Malformed {
            what: "cell prefix out of range"
        })
    );
}

#[test]
fn cell_prefixes_out_of_order_are_rejected() {
    // Swap the first service's first two cells.
    let bad = with_section_edited(good_bytes(), section::CELL_PREFIX, |p| {
        let (a, b) = p.split_at_mut(4);
        a.swap_with_slice(&mut b[..4]);
    });
    assert_eq!(
        open_error(bad),
        Some(SnapError::Malformed {
            what: "cell prefixes not ascending within a service"
        })
    );
}

#[test]
fn a_domain_sort_index_that_is_no_permutation_is_rejected() {
    let good = good_bytes();
    assert!(Snapshot::from_bytes(good.to_vec()).is_ok());
    // The first service twice: names stay nondecreasing, one is missing.
    let bad = with_section_edited(good, section::DOM_SORTED, |p| p.copy_within(0..4, 4));
    assert_eq!(
        open_error(bad),
        Some(SnapError::Malformed {
            what: "domain sort index repeats a service"
        })
    );
}

#[test]
fn a_domain_sort_index_out_of_name_order_is_rejected() {
    let good = good_bytes();
    assert!(Snapshot::from_bytes(good.to_vec()).is_ok());
    // Swap the first two entries: still a permutation, no longer sorted,
    // so `service_named` would binary-search past a name.
    let bad = with_section_edited(good, section::DOM_SORTED, |p| {
        let (a, b) = p.split_at_mut(4);
        a.swap_with_slice(&mut b[..4]);
    });
    assert_eq!(
        open_error(bad),
        Some(SnapError::Malformed {
            what: "domain sort index not sorted by name"
        })
    );
}

/// The little-endian `u32` column of section `id` in `bytes`.
fn column(bytes: &[u8], id: u32) -> Vec<u32> {
    let dir = snap::parse_dir(bytes).unwrap();
    let e = dir.iter().find(|e| e.id == id).unwrap();
    bytes[e.offset as usize..(e.offset + e.len) as usize]
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect()
}

#[test]
fn a_prefix_sort_index_that_is_no_permutation_is_rejected() {
    let good = good_bytes();
    // The first entry twice: bases stay nondecreasing, one prefix is
    // missing, so `find_prefix` would never reach it.
    let bad = with_section_edited(good, section::PFX_SORTED, |p| p.copy_within(0..4, 4));
    assert_eq!(
        open_error(bad),
        Some(SnapError::Malformed {
            what: "prefix sort index repeats a prefix"
        })
    );
}

#[test]
fn a_prefix_sort_index_out_of_id_order_within_a_base_is_rejected() {
    let good = good_bytes();
    let sorted = column(good, section::PFX_SORTED);
    // Give the first two prefixes in base order one base, then swap
    // them: the index is still sorted by base, but not by (base, id).
    let (a, b) = (sorted[0] as usize, sorted[1] as usize);
    let shared = with_section_edited(good, section::PFX_BASE, |p| {
        p.copy_within(b * 4..b * 4 + 4, a * 4)
    });
    assert!(Snapshot::from_bytes(shared.clone()).is_ok());
    let bad = with_section_edited(&shared, section::PFX_SORTED, |p| {
        let (x, y) = p[..8].split_at_mut(4);
        x.swap_with_slice(y);
    });
    assert_eq!(
        open_error(bad),
        Some(SnapError::Malformed {
            what: "prefix sort index not in id order within a base"
        })
    );
}

/// The index of the first of two neighbouring reverse-index entries
/// that point at cells of one address.
fn same_address_neighbours(bytes: &[u8]) -> usize {
    let rev = column(bytes, section::CELL_REV);
    let addrs = column(bytes, section::CELL_ADDR);
    rev.windows(2)
        .position(|w| addrs[w[0] as usize] == addrs[w[1] as usize])
        .expect("an address serves two cells")
}

#[test]
fn a_cell_reverse_index_that_is_no_permutation_is_rejected() {
    let good = good_bytes();
    // Repeating the first of two neighbours of one address run keeps
    // the index sorted by address but drops a cell from `reverse`.
    let k = same_address_neighbours(good);
    let bad = with_section_edited(good, section::CELL_REV, |p| {
        p.copy_within(k * 4..k * 4 + 4, k * 4 + 4)
    });
    assert_eq!(
        open_error(bad),
        Some(SnapError::Malformed {
            what: "cell reverse index repeats a cell"
        })
    );
}

#[test]
fn a_cell_reverse_index_out_of_cell_order_within_an_address_is_rejected() {
    let good = good_bytes();
    // Swapping two neighbours of one address run keeps a permutation
    // sorted by address, but not by (address, index).
    let k = same_address_neighbours(good);
    let bad = with_section_edited(good, section::CELL_REV, |p| {
        let (a, b) = p[k * 4..k * 4 + 8].split_at_mut(4);
        a.swap_with_slice(b);
    });
    assert_eq!(
        open_error(bad),
        Some(SnapError::Malformed {
            what: "cell reverse index not in cell order within an address"
        })
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flipping any byte anywhere in the file makes it unopenable — the
    /// whole-file checksum turns silent corruption into a hard error, in
    /// a v2 file and in a v1 file alike.
    #[test]
    fn any_corrupted_byte_is_rejected_at_open(pos in any::<u32>(), flip in 1u8..=255) {
        for good in [good_bytes(), v1_bytes()] {
            let mut bad = good.to_vec();
            let i = pos as usize % bad.len();
            bad[i] ^= flip;
            prop_assert!(
                Snapshot::from_bytes(bad).is_err(),
                "corruption at byte {} (xor {:#04x}) went undetected", i, flip
            );
        }
    }

    /// Truncation at any length is rejected too.
    #[test]
    fn any_truncation_is_rejected_at_open(cut in any::<u32>()) {
        let good = good_bytes();
        let len = cut as usize % good.len();
        prop_assert!(Snapshot::from_bytes(good[..len].to_vec()).is_err());
    }
}

// ---- Open equivalence: one typed error, however the open runs.
//
// Every mutant below breaks one content invariant of the shared small
// snapshot (or two, for a double fault) and is rewritten with a valid
// checksum, so only the content checks can reject it. Those checks run
// as executor shards, the reverse-index check cut into equal pieces; an
// open must still report the error the checks' serial order reaches
// first, whether it reads a file or takes bytes, at any worker count.

/// One broken content invariant.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// The last domain name loses its NUL terminator.
    DomainNul,
    /// The domain sort index lists its first service twice.
    DomainRepeat,
    /// The prefix sort index lists its first prefix twice.
    PrefixRepeat,
    /// The first service's first two cells swap.
    CellOrder,
    /// The last cell's prefix is past the prefix table.
    CellRange,
    /// Reverse-index entry `p` points past the cells.
    ReverseRange(usize),
    /// Reverse-index entry `p` repeats entry `p − 1`.
    ReverseRepeat(usize),
    /// Reverse-index entries `p − 1` and `p` swap.
    ReverseSwap(usize),
    /// The second front address repeats the first.
    FrontRepeat,
    /// The first route entry has an unknown relationship code.
    RouteKind,
}

/// What the mutants need to know of the shared small snapshot.
struct Shape {
    n_cells: usize,
    n_prefixes: u32,
    rev: Vec<u32>,
    addrs: Vec<u32>,
}

fn shape() -> &'static Shape {
    static SHAPE: std::sync::OnceLock<Shape> = std::sync::OnceLock::new();
    SHAPE.get_or_init(|| {
        let good = good_bytes();
        let snap = Snapshot::from_bytes(good.to_vec()).unwrap();
        Shape {
            n_cells: snap.n_cells(),
            n_prefixes: snap.n_prefixes() as u32,
            rev: column(good, section::CELL_REV),
            addrs: column(good, section::CELL_ADDR),
        }
    })
}

impl Fault {
    /// Where the serial checks meet the fault: the check's rank in
    /// `Snapshot::from_bytes`'s order, then the entry within it.
    fn order(self) -> (u8, usize) {
        match self {
            Fault::DomainNul | Fault::DomainRepeat => (0, 0),
            Fault::PrefixRepeat => (1, 0),
            Fault::CellOrder | Fault::CellRange => (2, 0),
            Fault::ReverseRange(p) | Fault::ReverseRepeat(p) | Fault::ReverseSwap(p) => (3, p),
            Fault::FrontRepeat => (4, 0),
            Fault::RouteKind => (5, 0),
        }
    }

    /// The error the open reports for this fault alone.
    fn error(self) -> SnapError {
        let what = match self {
            Fault::DomainNul => "domain name missing NUL terminator",
            Fault::DomainRepeat => "domain sort index repeats a service",
            Fault::PrefixRepeat => "prefix sort index repeats a prefix",
            Fault::CellOrder => "cell prefixes not ascending within a service",
            Fault::CellRange => "cell prefix out of range",
            Fault::ReverseRange(_) => "cell reverse index out of range",
            Fault::ReverseRepeat(_) => "cell reverse index repeats a cell",
            Fault::ReverseSwap(p) => {
                let s = shape();
                let key = |i: usize| s.addrs[s.rev[i] as usize];
                if key(p - 1) < key(p) {
                    "cell reverse index not sorted by address"
                } else {
                    "cell reverse index not in cell order within an address"
                }
            }
            Fault::FrontRepeat => "front addresses not strictly ascending",
            Fault::RouteKind => "unknown route relationship code",
        };
        SnapError::Malformed { what }
    }

    /// `bytes` with this fault written in and the checksum made valid.
    fn apply(self, bytes: &[u8]) -> Vec<u8> {
        let s = shape();
        let put =
            |p: &mut [u8], i: usize, v: u32| p[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        match self {
            Fault::DomainNul => with_section_edited(bytes, section::DOM_BYTES, |p| {
                let n = p.len();
                p[n - 1] = b'x';
            }),
            Fault::DomainRepeat => {
                with_section_edited(bytes, section::DOM_SORTED, |p| p.copy_within(0..4, 4))
            }
            Fault::PrefixRepeat => {
                with_section_edited(bytes, section::PFX_SORTED, |p| p.copy_within(0..4, 4))
            }
            Fault::CellOrder => with_section_edited(bytes, section::CELL_PREFIX, |p| {
                let (a, b) = p.split_at_mut(4);
                a.swap_with_slice(&mut b[..4]);
            }),
            Fault::CellRange => with_section_edited(bytes, section::CELL_PREFIX, |p| {
                put(p, s.n_cells - 1, s.n_prefixes)
            }),
            Fault::ReverseRange(i) => {
                with_section_edited(bytes, section::CELL_REV, |p| put(p, i, s.n_cells as u32))
            }
            Fault::ReverseRepeat(i) => with_section_edited(bytes, section::CELL_REV, |p| {
                p.copy_within((i - 1) * 4..i * 4, i * 4)
            }),
            Fault::ReverseSwap(i) => with_section_edited(bytes, section::CELL_REV, |p| {
                let (a, b) = p[(i - 1) * 4..(i + 1) * 4].split_at_mut(4);
                a.swap_with_slice(b);
            }),
            Fault::FrontRepeat => {
                with_section_edited(bytes, section::FRONT_ADDR, |p| p.copy_within(0..4, 4))
            }
            Fault::RouteKind => with_section_edited(bytes, section::ROUTE_KIND, |p| p[0] = 9),
        }
    }
}

/// The error of every way to open `bytes`: from bytes on the machine's
/// cores, on the sequential executor and on three workers, and from a
/// file the same ways. Panics unless all agree.
fn open_every_way(bytes: &[u8], tag: &str) -> Option<SnapError> {
    static FILES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let k = FILES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("open-eq-{}-{k}.snap", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    let file = path.to_str().unwrap();
    let seq = ParallelExecutor::sequential();
    let three = ParallelExecutor::new(3);
    let errors = [
        Snapshot::from_bytes(bytes.to_vec()).err(),
        Snapshot::from_bytes_with(bytes.to_vec(), &seq).err(),
        Snapshot::from_bytes_with(bytes.to_vec(), &three).err(),
        Snapshot::open(file).err(),
        Snapshot::open_with(file, &seq).err(),
        Snapshot::open_with(file, &three).err(),
    ];
    std::fs::remove_file(&path).unwrap();
    for e in &errors[1..] {
        assert_eq!(e, &errors[0], "{tag}: the ways to open disagree");
    }
    errors[0].clone()
}

/// `faults` written into the shared small snapshot, as a v2 file and as
/// a v1 file, must fail every way to open with the error of the fault
/// the serial checks meet first.
fn assert_first_fault_reported(faults: &[Fault]) {
    let mut bytes = good_bytes().to_vec();
    for f in faults {
        bytes = f.apply(&bytes);
    }
    let first = faults.iter().min_by_key(|f| f.order()).unwrap();
    let v1 = restamped(&bytes, snap::V1, snap::checksum_v1);
    for (version, file) in [(snap::VERSION, bytes), (snap::V1, v1)] {
        let tag = format!("v{version} {faults:?}");
        assert_eq!(open_every_way(&file, &tag), Some(first.error()), "{tag}");
    }
}

/// Reverse-index positions next to the cuts of the reverse check into
/// any power-of-two number of equal pieces up to 16 (the open uses 8):
/// `n·k/16` for k = 1..15, since `n·k/m` is one of them for every such
/// `m`.
fn reverse_cuts() -> Vec<usize> {
    let n = shape().n_cells;
    (1..16).map(|k| n * k / 16).filter(|&c| c >= 2).collect()
}

#[test]
fn open_equivalence_on_every_single_fault() {
    assert!(open_every_way(good_bytes(), "good").is_none());
    assert!(open_every_way(v1_bytes(), "good v1").is_none());
    let mut faults = vec![
        Fault::DomainNul,
        Fault::DomainRepeat,
        Fault::PrefixRepeat,
        Fault::CellOrder,
        Fault::CellRange,
        Fault::ReverseRange(0),
        Fault::ReverseRepeat(1),
        Fault::ReverseSwap(shape().n_cells - 1),
        Fault::FrontRepeat,
        Fault::RouteKind,
    ];
    // Both sides of every cut: the last entry of the piece before it,
    // the first entry of the piece after it, and a swap across it.
    for c in reverse_cuts() {
        faults.extend([
            Fault::ReverseRange(c - 1),
            Fault::ReverseRepeat(c),
            Fault::ReverseSwap(c),
        ]);
    }
    for f in faults {
        assert_first_fault_reported(&[f]);
    }
}

#[test]
fn open_equivalence_reports_the_first_of_two_faults() {
    let cuts = reverse_cuts();
    let (early, late) = (cuts[0], cuts[cuts.len() - 1]);
    let pairs = [
        // Across shards: the head against the reverse index and the
        // tail, the reverse index against the tail.
        [Fault::DomainRepeat, Fault::ReverseRange(late)],
        [Fault::CellRange, Fault::RouteKind],
        [Fault::PrefixRepeat, Fault::FrontRepeat],
        [Fault::ReverseSwap(late), Fault::FrontRepeat],
        // Across checks inside one shard.
        [Fault::DomainNul, Fault::CellOrder],
        [Fault::FrontRepeat, Fault::RouteKind],
        // Two pieces of the reverse index: the earlier wins, whichever
        // piece a worker finishes first.
        [Fault::ReverseRange(late), Fault::ReverseRepeat(early)],
        [Fault::ReverseRepeat(late - 1), Fault::ReverseSwap(early)],
    ];
    for pair in pairs {
        assert_first_fault_reported(&pair);
    }
}

#[test]
fn open_equivalence_puts_the_checksum_before_every_content_check() {
    for f in [
        Fault::DomainNul,
        Fault::ReverseSwap(reverse_cuts()[0]),
        Fault::RouteKind,
    ] {
        let mut bad = f.apply(good_bytes());
        bad[16] ^= 1;
        let stored = u64::from_le_bytes(bad[16..24].try_into().unwrap());
        let want = SnapError::ChecksumMismatch {
            stored,
            computed: snap::checksum(&bad),
        };
        assert_eq!(open_every_way(&bad, &format!("{f:?}")), Some(want));
    }
    // A directory fault too: the checksum still comes first.
    let mut bad = good_bytes().to_vec();
    bad[snap::HEADER_SIZE..snap::HEADER_SIZE + 4].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        open_every_way(&bad, "directory"),
        Some(SnapError::ChecksumMismatch { .. })
    ));
}

/// A fault drawn from `kind` and `at`: reverse-index faults at any entry
/// from 1 on, the rest where they always sit.
fn drawn_fault(kind: u8, at: u32) -> Fault {
    let n = shape().n_cells;
    let p = 1 + at as usize % (n - 1);
    match kind % 10 {
        0 => Fault::DomainNul,
        1 => Fault::DomainRepeat,
        2 => Fault::PrefixRepeat,
        3 => Fault::CellOrder,
        4 => Fault::CellRange,
        5 => Fault::ReverseRange(p),
        6 => Fault::ReverseRepeat(p),
        7 => Fault::ReverseSwap(p),
        8 => Fault::FrontRepeat,
        _ => Fault::RouteKind,
    }
}

proptest! {
    /// Any one fault, or two the serial checks can tell apart (different
    /// checks, or reverse-index entries two or more apart), gives every
    /// way to open the error of the fault met first.
    #[test]
    fn open_equivalence_on_drawn_faults(
        a in (any::<u8>(), any::<u32>()),
        b in (any::<bool>(), any::<u8>(), any::<u32>()),
    ) {
        let first = drawn_fault(a.0, a.1);
        let mut faults = vec![first];
        if b.0 {
            let second = drawn_fault(b.1, b.2);
            let ((ra, pa), (rb, pb)) = (first.order(), second.order());
            if ra != rb || (ra == 3 && pa.abs_diff(pb) >= 2) {
                faults.push(second);
            }
        }
        assert_first_fault_reported(&faults);
    }
}
