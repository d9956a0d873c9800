//! # itm-serve — zero-copy queries over a map snapshot
//!
//! The paper's end goal is "a continuously updated map of the Internet"
//! that researchers and operators *query*, not a one-shot batch artifact.
//! This crate is that serving layer: it opens the snapshot file written by
//! `repro --snapshot` (format: [`itm_types::snap`], DESIGN.md §14) and
//! answers the map's three question families directly off the file bytes —
//!
//! * **point**: which replica serves prefix X for service Y, and which
//!   techniques back that claim ([`Snapshot::point`]);
//! * **reverse**: which ⟨service, prefix⟩ cells a front-end address serves
//!   ([`Snapshot::reverse`]);
//! * **route**: an AS's adjacency and the relationship on a specific edge
//!   ([`Snapshot::neighbors`], [`Snapshot::edge`]);
//! * **diff**: the structural delta between two snapshots of the same
//!   universe — cells added/removed/moved, route edges changed, each with
//!   technique provenance ([`MapDiff`], the `repro --diff` backend).
//!
//! Every query is offset arithmetic plus a search over the loaded bytes
//! (interpolation for a point lookup's prefix run, binary search
//! elsewhere): nothing is deserialized into owned structures, so the
//! resident set is the file itself.
//! The sections are 8-byte aligned and little-endian precisely so this
//! works equally well over a memory mapping; with the workspace offline
//! (no mmap crate), [`Snapshot::open`] reads the file into a `Vec<u8>` and
//! the query paths are byte-offset-based either way. That buffer is
//! allocated fallibly with no zeroing pass and advised for transparent
//! huge pages before the read touches it, so on Linux the kernel faults
//! it in 2 MiB at a time: reading a 198 MB snapshot takes under a
//! thousand minor faults rather than ≈48k. A mapping is not used: the
//! file could change under it after validation.
//!
//! Validation happens once, at open: the whole-file checksum (XXH64 in a
//! v2 file, FNV-1a 64 in a v1 file; any single corrupted byte is a hard
//! error), presence and element sizes of all
//! sections, monotonicity of every offset array, sortedness of every
//! binary-searched column, that every sort index is a permutation, and
//! UTF-8 of the domain table. After that, the
//! query methods never panic and never re-validate.
//!
//! An open uses two cores through `itm_core::ParallelExecutor`. The
//! calling thread reads the file a chunk at a time while a worker
//! checksums each chunk that has landed ([`ParallelExecutor::join`]);
//! then the content checks run as a fixed list of executor shards, the
//! reverse-index check cut into equal pieces. [`Snapshot::from_bytes`]
//! has no read to overlap, so its checksum runs as one more shard. The
//! shards' errors are combined in the checks' serial order, so an input
//! gets the same [`SnapError`] at any worker count.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod diff;

pub use diff::{decode_cells, decode_routes, CellDelta, DiffError, MapDiff, RouteDelta};

use itm_core::ParallelExecutor;
use itm_types::snap::{self, claim, section, SectionEntry, SnapError};
use itm_types::{Asn, Ipv4Addr, Ipv4Net, PrefixId, ServiceId};

/// Locate a section by id in a parsed directory.
fn find(dir: &[SectionEntry], id: u32) -> Option<&SectionEntry> {
    dir.iter().find(|e| e.id == id)
}

/// Located section: byte offset + element count, validated at open.
#[derive(Debug, Clone, Copy)]
struct Sec {
    off: usize,
    count: usize,
}

/// Width in bytes of one element of a section.
fn elem_size(id: u32) -> usize {
    match id {
        section::META | section::CELL_SVC_OFF | section::ROUTE_OFF => 8,
        section::DOM_BYTES | section::CELL_BITS | section::ROUTE_KIND => 1,
        _ => 4,
    }
}

/// Why a sort index failed [`sort_index_order`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OrderFault {
    /// An entry points past the keyed column.
    OutOfRange,
    /// Keys descend.
    KeyOrder,
    /// An entry equals the one before it.
    Repeat,
    /// Entries of one key descend.
    IndexOrder,
}

/// Check that `index`, a `u32` column, lists indices into `keys`, a
/// `u32` column of the same length, strictly ascending by `(key,
/// index)` — the order the writer produces. That also makes it a
/// permutation: equal indices have equal keys, so a repeated index would
/// have to sit in the run of its key, where indices strictly ascend; and
/// as many distinct in-range entries as keys are every index once. No
/// seen-set is needed, so the check reads each entry and its key once
/// and keeps nothing.
fn sort_index_order(index: &[u8], keys: &[u8]) -> Result<(), OrderFault> {
    let le = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    // The smallest (key, index) pair, packed into a u64, that the next
    // entry may hold.
    let mut floor = 0u64;
    for entry in index.chunks_exact(4) {
        let i = le(entry);
        let at = i as usize * 4;
        let key = keys.get(at..at + 4).ok_or(OrderFault::OutOfRange)?;
        let pair = (u64::from(le(key)) << 32) | u64::from(i);
        if pair < floor {
            let prev = floor - 1;
            return Err(if pair >> 32 < prev >> 32 {
                OrderFault::KeyOrder
            } else if pair == prev {
                OrderFault::Repeat
            } else {
                OrderFault::IndexOrder
            });
        }
        // An index below the column length is below u32::MAX, so the
        // pair never saturates here.
        floor = pair.saturating_add(1);
    }
    Ok(())
}

/// First index in `[lo, hi)` whose key (per `key(i)`) is ≥ `target`.
#[inline]
fn lower_bound(mut lo: usize, mut hi: usize, target: u32, key: impl Fn(usize) -> u32) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if key(mid) < target {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Windows of at most this many keys go straight to [`lower_bound`]:
/// 16 `u32` keys are one or two cache lines.
const NARROW: usize = 16;
/// Interpolation rounds before [`point_search`] bisects what is left.
const ROUNDS: usize = 3;
/// Gallop steps a round takes on from its guess: 1, 2, 4 and 8 places.
const GALLOP: usize = 4;

/// [`lower_bound`] by interpolation, for runs whose keys ascend roughly
/// evenly, as a service's prefix ids do.
///
/// It reads the run's two endpoint keys, then, for up to [`ROUNDS`]
/// rounds, guesses where `target` sits by linear interpolation between
/// the two nearest keys it knows on either side, probes the guess, and
/// gallops on from it in steps of 1, 2, 4 and 8 places until a key
/// crosses `target`. Every probe moves one side of the window, which
/// always holds the answer: the key just below it is `< target` and the
/// key at its top is `≥ target`. A window of at most [`NARROW`] keys, or
/// whatever is left after the last round, is bisected by
/// [`lower_bound`]. So on a run of `n` keys it makes at most
/// `⌈log2(n + 1)⌉ + 2 + ROUNDS·(1 + GALLOP)` = `⌈log2(n + 1)⌉ + 17`
/// probes (the endpoints, each round's guess and gallop, the bisection),
/// and on evenly spread keys a few. Only the keys' order is relied on,
/// not their spacing, so the answer is [`lower_bound`]'s on any
/// non-descending run.
fn point_search(lo: usize, hi: usize, target: u32, key: impl Fn(usize) -> u32) -> usize {
    if hi.saturating_sub(lo) <= NARROW {
        return lower_bound(lo, hi, target, key);
    }
    let (mut a, mut b) = (lo, hi - 1);
    let (mut ka, mut kb) = (key(a), key(b));
    if target <= ka {
        return lo;
    }
    if target > kb {
        return hi;
    }
    // From here on ka = key(a) < target ≤ kb = key(b), so the answer is
    // in (a, b] and kb − ka ≥ 1.
    for _ in 0..ROUNDS {
        if b - a <= NARROW {
            break;
        }
        // The guess's offset from a, in (0, b − a) after the clamp. The
        // product saturates rather than wraps on a window of 2^32 keys or
        // more (which a strictly ascending u32 run cannot have).
        let span = (b - a) as u64;
        let off = u64::from(target - ka).saturating_mul(span) / u64::from(kb - ka);
        let g = a + off.clamp(1, span - 1) as usize;
        let kg = key(g);
        if kg < target {
            (a, ka) = (g, kg);
            let mut step = 1;
            for _ in 0..GALLOP {
                if step >= b - a {
                    break;
                }
                let kp = key(a + step);
                if kp >= target {
                    (b, kb) = (a + step, kp);
                    break;
                }
                (a, ka) = (a + step, kp);
                step *= 2;
            }
        } else {
            (b, kb) = (g, kg);
            let mut step = 1;
            for _ in 0..GALLOP {
                if step >= b - a {
                    break;
                }
                let kp = key(b - step);
                if kp < target {
                    (a, ka) = (b - step, kp);
                    break;
                }
                (b, kb) = (b - step, kp);
                step *= 2;
            }
        }
    }
    lower_bound(a + 1, b, target, key)
}

/// The answer to a point lookup: the serving replica for one
/// ⟨service, prefix⟩ mapping cell, with provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointAnswer {
    /// The front-end address the map asserts serves this cell.
    pub addr: Ipv4Addr,
    /// The AS hosting that front-end, when the address resolves to a
    /// routed prefix.
    pub front_as: Option<Asn>,
    /// Technique claim bitmap for the cell (see [`itm_types::snap::claim`]).
    pub claim_bits: u8,
}

impl PointAnswer {
    /// Names of the measurement techniques backing this cell, in bit order.
    pub fn techniques(&self) -> Vec<&'static str> {
        claim::names(self.claim_bits)
    }
}

/// An opened, validated map snapshot. All queries are zero-copy reads
/// against the underlying bytes.
#[derive(Debug)]
pub struct Snapshot {
    bytes: Vec<u8>,
    meta: [u64; snap::META_FIELDS],
    dom_off: Sec,
    dom_bytes: Sec,
    dom_sorted: Sec,
    pfx_base: Sec,
    pfx_owner: Sec,
    pfx_sorted: Sec,
    cell_svc_off: Sec,
    cell_prefix: Sec,
    cell_addr: Sec,
    cell_bits: Sec,
    cell_rev: Sec,
    front_addr: Sec,
    front_owner: Sec,
    route_off: Sec,
    route_nbr: Sec,
    route_kind: Sec,
}

/// All sections a v1 or v2 snapshot must carry, in id order.
const REQUIRED: [u32; 17] = [
    section::META,
    section::DOM_OFF,
    section::DOM_BYTES,
    section::DOM_SORTED,
    section::PFX_BASE,
    section::PFX_OWNER,
    section::PFX_SORTED,
    section::CELL_SVC_OFF,
    section::CELL_PREFIX,
    section::CELL_ADDR,
    section::CELL_BITS,
    section::CELL_REV,
    section::FRONT_ADDR,
    section::FRONT_OWNER,
    section::ROUTE_OFF,
    section::ROUTE_NBR,
    section::ROUTE_KIND,
];

/// Bytes the open reads per call. The checksum worker hashes each chunk
/// while the next one is read, so a chunk is still in cache when it is
/// hashed.
const READ_CHUNK: usize = 1 << 20;

/// Pieces the reverse-index check is cut into. The reverse index is the
/// costliest content check, about twice the rest together at default
/// size, so eight equal pieces let two workers finish together behind
/// the other shards (and behind the checksum, in `from_bytes`).
const REVERSE_PIECES: usize = 8;

/// Read the snapshot file at `path` into a buffer of exactly its
/// length, computing its checksum on a second core of `exec` while it
/// is read ([`read_into`]).
///
/// Only a regular file is read: a device or a FIFO is refused before it
/// is opened. The buffer is allocated fallibly and zeroed by the
/// allocator, not by a pass over it, and advised for huge pages before
/// the read touches it. A file that changes size meanwhile is read only
/// to the length its metadata reported, or comes back as short as what
/// was read, which fails the header's `file_len` check. Every failure is
/// [`SnapError::Io`].
fn read_summed(path: &str, exec: &ParallelExecutor) -> Result<(Vec<u8>, Option<u64>), SnapError> {
    let io = |e: &dyn std::fmt::Display| SnapError::Io {
        detail: format!("{path}: {e}"),
    };
    let meta = std::fs::metadata(path).map_err(|e| io(&e))?;
    if !meta.is_file() {
        return Err(io(&"not a regular file"));
    }
    let len = usize::try_from(meta.len()).map_err(|e| io(&e))?;
    let file = std::fs::File::open(path).map_err(|e| io(&e))?;
    let mut bytes = itm_obs::alloc::try_zeroed_bytes(len)
        .ok_or_else(|| io(&format!("cannot allocate {len} bytes")))?;
    snap::advise_huge_pages(&mut bytes);
    read_into(file, bytes, exec).map_err(|e| io(&e))
}

/// Fill `bytes` from `source`, [`READ_CHUNK`] bytes at a time on the
/// calling thread, while a worker ([`ParallelExecutor::join`]) feeds
/// each filled chunk to the [`snap::Checksum`] of the version the first
/// chunk names. Returns the bytes, cut to what `source` held if it ran
/// out first, and their checksum: `None` when they name no version this
/// reader speaks.
fn read_into(
    mut source: impl std::io::Read,
    mut bytes: Vec<u8>,
    exec: &ParallelExecutor,
) -> std::io::Result<(Vec<u8>, Option<u64>)> {
    let (filled, chunks) = std::sync::mpsc::channel::<&[u8]>();
    let buf = &mut bytes[..];
    let (read, sum) = exec.join(
        move || -> std::io::Result<usize> {
            let mut total = 0;
            for chunk in buf.chunks_mut(READ_CHUNK) {
                let mut n = 0;
                while n < chunk.len() {
                    match source.read(&mut chunk[n..]) {
                        Ok(0) => break,
                        Ok(k) => n += k,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
                total += n;
                let full = n == chunk.len();
                // The hasher hangs up early only on a version it does not
                // speak, and then nothing needs these bytes.
                let _ = filled.send(&chunk[..n]);
                if !full {
                    break;
                }
            }
            Ok(total)
        },
        move || {
            let first = chunks.recv().ok()?;
            let mut sum = snap::Checksum::new(snap::read_u32(first, 8)?)?;
            sum.update(first);
            chunks.iter().for_each(|chunk| sum.update(chunk));
            Some(sum.finish())
        },
    );
    bytes.truncate(read?);
    Ok((bytes, sum))
}

/// The sections of a snapshot whose header passed, located: the META
/// fields and every required section, in [`REQUIRED`] order.
type Layout = ([u64; snap::META_FIELDS], [Sec; REQUIRED.len()]);

/// Parse the directory of `bytes` and locate every required section:
/// present, with the right element size, and with the counts META
/// gives.
fn locate(bytes: &[u8]) -> Result<Layout, SnapError> {
    let dir = snap::parse_entries(bytes)?;
    let mut secs = [Sec { off: 0, count: 0 }; REQUIRED.len()];
    for (k, id) in REQUIRED.iter().enumerate() {
        let e = find(&dir, *id).ok_or(SnapError::MissingSection { id: *id })?;
        let size = elem_size(*id) as u64;
        if e.len != e.count.saturating_mul(size) {
            return Err(SnapError::BadSection {
                id: *id,
                reason: "length disagrees with element count",
            });
        }
        secs[k] = Sec {
            off: e.offset as usize,
            count: e.count as usize,
        };
    }
    let [meta_sec, dom_off, _, dom_sorted, pfx_base, pfx_owner, pfx_sorted, cell_svc_off, cell_prefix, cell_addr, cell_bits, cell_rev, front_addr, front_owner, route_off, route_nbr, route_kind] =
        secs;

    if meta_sec.count != snap::META_FIELDS {
        return Err(SnapError::BadSection {
            id: section::META,
            reason: "wrong field count",
        });
    }
    let mut meta = [0u64; snap::META_FIELDS];
    for (k, m) in meta.iter_mut().enumerate() {
        *m = snap::read_u64(bytes, meta_sec.off + k * 8).unwrap_or(0);
    }
    let [_seed, n_ases, n_prefixes, n_services, n_cells, n_route_entries, n_fronts] = meta;

    let want = [
        (dom_off, n_services + 1, "domain offsets"),
        (dom_sorted, n_services, "domain sort index"),
        (pfx_base, n_prefixes, "prefix bases"),
        (pfx_owner, n_prefixes, "prefix owners"),
        (pfx_sorted, n_prefixes, "prefix sort index"),
        (cell_svc_off, n_services + 1, "cell service offsets"),
        (cell_prefix, n_cells, "cell prefixes"),
        (cell_addr, n_cells, "cell addresses"),
        (cell_bits, n_cells, "cell claim bits"),
        (cell_rev, n_cells, "cell reverse index"),
        (front_addr, n_fronts, "front addresses"),
        (front_owner, n_fronts, "front owners"),
        (route_off, n_ases + 1, "route offsets"),
        (route_nbr, n_route_entries, "route neighbors"),
        (route_kind, n_route_entries, "route kinds"),
    ];
    for (sec, expect, what) in want {
        if sec.count as u64 != expect {
            return Err(SnapError::Malformed { what });
        }
    }
    Ok((meta, secs))
}

/// One shard of the content checks. Run in list order, the shards are
/// the checks in the order [`Snapshot::from_bytes`] documents.
#[derive(Debug, Clone, Copy)]
enum Check {
    /// The domain table, the prefix sort index, then the cell runs.
    Head,
    /// Reverse-index entries `from..to`, each against the entry before
    /// it.
    Reverse { from: usize, to: usize },
    /// The front-end table, then the route adjacency.
    Tail,
}

impl Snapshot {
    /// Read and validate a snapshot file on the machine's cores:
    /// [`Snapshot::open_with`] on [`ParallelExecutor::available`].
    pub fn open(path: &str) -> Result<Snapshot, SnapError> {
        Snapshot::open_with(path, &ParallelExecutor::available())
    }

    /// Read and validate a snapshot file on `exec`. The calling thread
    /// reads the file (a regular file only) in chunks into a huge-page
    /// advised buffer of exactly its length, while a worker checksums
    /// each chunk that has landed; the content checks then run as `exec`
    /// shards. The snapshot, or the error, is the same at any thread
    /// count and the same as [`Snapshot::from_bytes`] gives for the
    /// file's bytes.
    pub fn open_with(path: &str, exec: &ParallelExecutor) -> Result<Snapshot, SnapError> {
        let (bytes, sum) = read_summed(path, exec)?;
        Snapshot::validate(bytes, sum, exec)
    }

    /// Validate snapshot bytes and take ownership of them, on the
    /// machine's cores: [`Snapshot::from_bytes_with`] on
    /// [`ParallelExecutor::available`].
    ///
    /// Checks, beyond the header/checksum validation of
    /// [`snap::parse_dir`]: every required section is present with the
    /// right element size; section counts agree with the META counts;
    /// every offset array is monotone with the right endpoints; every
    /// binary-searched column is sorted; the domain table is NUL-delimited
    /// valid UTF-8; the domain sort index, the prefix sort index and the
    /// cell reverse index are permutations; and every cross-section index
    /// is in range.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Snapshot, SnapError> {
        Snapshot::from_bytes_with(bytes, &ParallelExecutor::available())
    }

    /// [`Snapshot::from_bytes`] on `exec`: the checksum runs as one more
    /// shard beside the content checks. When several checks fail, the
    /// error is the one the checks' documented order reaches first, at
    /// any thread count.
    pub fn from_bytes_with(bytes: Vec<u8>, exec: &ParallelExecutor) -> Result<Snapshot, SnapError> {
        Snapshot::validate(bytes, None, exec)
    }

    /// Check the header, compare `sum` (the checksum already taken for
    /// the header's version, if any), locate the sections, and run the
    /// content checks as `exec` shards, with the checksum as one more
    /// shard when `sum` is `None`. Every check runs to the end, but the
    /// error returned is the first in the serial order: header,
    /// checksum, directory and layout, then the [`Check`]s in list order.
    fn validate(
        bytes: Vec<u8>,
        sum: Option<u64>,
        exec: &ParallelExecutor,
    ) -> Result<Snapshot, SnapError> {
        let version = snap::check_header(&bytes)?;
        if let Some(sum) = sum {
            snap::check_checksum(&bytes, sum)?;
        }
        let (meta, secs) = match locate(&bytes) {
            Ok(layout) => layout,
            Err(e) => {
                if sum.is_none() {
                    snap::verify_checksum(&bytes, version)?;
                }
                return Err(e);
            }
        };
        let [_, dom_off, dom_bytes, dom_sorted, pfx_base, pfx_owner, pfx_sorted, cell_svc_off, cell_prefix, cell_addr, cell_bits, cell_rev, front_addr, front_owner, route_off, route_nbr, route_kind] =
            secs;
        let s = Snapshot {
            bytes,
            meta,
            dom_off,
            dom_bytes,
            dom_sorted,
            pfx_base,
            pfx_owner,
            pfx_sorted,
            cell_svc_off,
            cell_prefix,
            cell_addr,
            cell_bits,
            cell_rev,
            front_addr,
            front_owner,
            route_off,
            route_nbr,
            route_kind,
        };
        let checks = s.checks();
        let summing = usize::from(sum.is_none());
        exec.map(summing + checks.len(), &|k| match k.checked_sub(summing) {
            None => snap::verify_checksum(&s.bytes, version),
            Some(j) => s.check(checks[j]),
        })
        .into_iter()
        .collect::<Result<(), SnapError>>()?;
        Ok(s)
    }

    /// The content checks as shards: [`Check::Head`], the reverse index
    /// cut into [`REVERSE_PIECES`] equal pieces, then [`Check::Tail`].
    fn checks(&self) -> [Check; REVERSE_PIECES + 2] {
        let n = self.cell_rev.count;
        std::array::from_fn(|k| match k {
            0 => Check::Head,
            k if k <= REVERSE_PIECES => Check::Reverse {
                from: n * (k - 1) / REVERSE_PIECES,
                to: n * k / REVERSE_PIECES,
            },
            _ => Check::Tail,
        })
    }

    /// Run one shard of the content checks.
    fn check(&self, check: Check) -> Result<(), SnapError> {
        match check {
            Check::Head => {
                self.check_domains()?;
                self.check_prefixes()?;
                self.check_cells()
            }
            Check::Reverse { from, to } => self.check_reverse(from, to),
            Check::Tail => {
                self.check_fronts()?;
                self.check_routes()
            }
        }
    }

    /// Domain table: monotone offsets ending exactly at the byte pool,
    /// each name NUL-terminated, the whole pool valid UTF-8; the domain
    /// sort index a permutation of the services ordering their names
    /// nondecreasing (the name-lookup invariant).
    fn check_domains(&self) -> Result<(), SnapError> {
        let malformed = |what| Err(SnapError::Malformed { what });
        if self.u32_in(self.dom_off, 0) != 0 {
            return malformed("domain offsets do not start at 0");
        }
        for sid in 0..self.n_services() {
            let a = self.u32_in(self.dom_off, sid) as usize;
            let b = self.u32_in(self.dom_off, sid + 1) as usize;
            if b <= a || b > self.dom_bytes.count {
                return malformed("domain offsets not monotone");
            }
            if self.u8_in(self.dom_bytes, b - 1) != 0 {
                return malformed("domain name missing NUL terminator");
            }
        }
        if self.u32_in(self.dom_off, self.n_services()) as usize != self.dom_bytes.count {
            return malformed("domain offsets do not cover the byte pool");
        }
        if std::str::from_utf8(self.payload(self.dom_bytes, 1)).is_err() {
            return malformed("domain table is not UTF-8");
        }
        let mut seen = vec![false; self.n_services()];
        let mut prev_name = "";
        for k in 0..self.dom_sorted.count {
            let sid = self.u32_in(self.dom_sorted, k);
            match seen.get_mut(sid as usize) {
                None => return malformed("domain sort index out of range"),
                Some(true) => return malformed("domain sort index repeats a service"),
                Some(slot) => *slot = true,
            }
            let name = self.domain_of(ServiceId(sid)).unwrap_or("");
            if name < prev_name {
                return malformed("domain sort index not sorted by name");
            }
            prev_name = name;
        }
        Ok(())
    }

    /// Prefix columns: the sort index lists every prefix once, ordered
    /// by (base, id) (the prefix-lookup invariant).
    fn check_prefixes(&self) -> Result<(), SnapError> {
        let order = sort_index_order(
            self.payload(self.pfx_sorted, 4),
            self.payload(self.pfx_base, 4),
        );
        order.map_err(|fault| SnapError::Malformed {
            what: match fault {
                OrderFault::OutOfRange => "prefix sort index out of range",
                OrderFault::KeyOrder => "prefix sort index not sorted by base",
                OrderFault::Repeat => "prefix sort index repeats a prefix",
                OrderFault::IndexOrder => "prefix sort index not in id order within a base",
            },
        })
    }

    /// Cell columns: service runs partition the cells; prefixes are in
    /// range and strictly ascending within each run (the point-lookup
    /// invariant).
    fn check_cells(&self) -> Result<(), SnapError> {
        let malformed = |what| Err(SnapError::Malformed { what });
        if self.u64_in(self.cell_svc_off, 0) != 0
            || self.u64_in(self.cell_svc_off, self.n_services()) != self.n_cells() as u64
        {
            return malformed("cell service offsets have wrong endpoints");
        }
        let n_prefixes = self.n_prefixes() as u64;
        for sid in 0..self.n_services() {
            let a = self.u64_in(self.cell_svc_off, sid) as usize;
            let b = self.u64_in(self.cell_svc_off, sid + 1) as usize;
            if b < a || b > self.n_cells() {
                return malformed("cell service offsets not monotone");
            }
            let off = self.cell_prefix.off;
            let run = self.bytes.get(off + a * 4..off + b * 4).unwrap_or(&[]);
            // The smallest prefix the next cell of the run may hold.
            let mut floor = 0u64;
            for c in run.chunks_exact(4) {
                let prefix = u64::from(u32::from_le_bytes([c[0], c[1], c[2], c[3]]));
                if prefix >= n_prefixes {
                    return malformed("cell prefix out of range");
                }
                if prefix < floor {
                    return malformed("cell prefixes not ascending within a service");
                }
                floor = prefix + 1;
            }
        }
        Ok(())
    }

    /// Reverse index, entries `from..to`: every cell once, ordered by
    /// (serving address, index) (the reverse-lookup invariant). Whether
    /// entry `i` is at fault depends only on entries `i − 1` and `i`, so
    /// a piece that starts one entry early finds the fault the whole
    /// scan would find first in it, and the first piece with a fault
    /// has the whole scan's.
    fn check_reverse(&self, from: usize, to: usize) -> Result<(), SnapError> {
        let index = self.payload(self.cell_rev, 4);
        let piece = index.get(from.saturating_sub(1) * 4..to * 4).unwrap_or(&[]);
        let order = sort_index_order(piece, self.payload(self.cell_addr, 4));
        order.map_err(|fault| SnapError::Malformed {
            what: match fault {
                OrderFault::OutOfRange => "cell reverse index out of range",
                OrderFault::KeyOrder => "cell reverse index not sorted by address",
                OrderFault::Repeat => "cell reverse index repeats a cell",
                OrderFault::IndexOrder => "cell reverse index not in cell order within an address",
            },
        })
    }

    /// Front-end table: strictly ascending addresses.
    fn check_fronts(&self) -> Result<(), SnapError> {
        for k in 1..self.front_addr.count {
            if self.u32_in(self.front_addr, k) <= self.u32_in(self.front_addr, k - 1) {
                return Err(SnapError::Malformed {
                    what: "front addresses not strictly ascending",
                });
            }
        }
        Ok(())
    }

    /// Route adjacency: offsets partition the entries; neighbor runs are
    /// strictly ascending ASNs in range, each with a known relationship.
    fn check_routes(&self) -> Result<(), SnapError> {
        let malformed = |what| Err(SnapError::Malformed { what });
        if self.u64_in(self.route_off, 0) != 0
            || self.u64_in(self.route_off, self.n_ases()) != self.n_route_entries() as u64
        {
            return malformed("route offsets have wrong endpoints");
        }
        for a in 0..self.n_ases() {
            let lo = self.u64_in(self.route_off, a) as usize;
            let hi = self.u64_in(self.route_off, a + 1) as usize;
            if hi < lo || hi > self.n_route_entries() {
                return malformed("route offsets not monotone");
            }
            for i in lo..hi {
                let nbr = self.u32_in(self.route_nbr, i);
                if nbr as usize >= self.n_ases() {
                    return malformed("route neighbor out of range");
                }
                if i > lo && nbr <= self.u32_in(self.route_nbr, i - 1) {
                    return malformed("route neighbors not ascending within an AS");
                }
                if snap::rel::name(self.u8_in(self.route_kind, i)).is_none() {
                    return malformed("unknown route relationship code");
                }
            }
        }
        Ok(())
    }

    // ---- Raw column accessors. Offsets were bounds-checked at open, so
    // the `unwrap_or` defaults are unreachable for in-range indices.

    /// The payload bytes of a section of `width`-byte elements.
    fn payload(&self, s: Sec, width: usize) -> &[u8] {
        self.bytes
            .get(s.off..s.off + s.count * width)
            .unwrap_or(&[])
    }

    #[inline]
    fn u32_in(&self, s: Sec, i: usize) -> u32 {
        snap::read_u32(&self.bytes, s.off + i * 4).unwrap_or(0)
    }

    #[inline]
    fn u64_in(&self, s: Sec, i: usize) -> u64 {
        snap::read_u64(&self.bytes, s.off + i * 8).unwrap_or(0)
    }

    #[inline]
    fn u8_in(&self, s: Sec, i: usize) -> u8 {
        self.bytes.get(s.off + i).copied().unwrap_or(0)
    }

    // ---- Metadata.

    /// The substrate master seed the snapshot was built from.
    pub fn seed(&self) -> u64 {
        self.meta[0]
    }

    /// Number of ASes in the route view.
    pub fn n_ases(&self) -> usize {
        self.meta[1] as usize
    }

    /// Number of /24 prefixes in the topology.
    pub fn n_prefixes(&self) -> usize {
        self.meta[2] as usize
    }

    /// Number of services in the catalogue.
    pub fn n_services(&self) -> usize {
        self.meta[3] as usize
    }

    /// Number of ⟨service, prefix⟩ mapping cells.
    pub fn n_cells(&self) -> usize {
        self.meta[4] as usize
    }

    /// Number of directed route adjacency entries.
    pub fn n_route_entries(&self) -> usize {
        self.meta[5] as usize
    }

    /// Number of distinct front-end addresses.
    pub fn n_fronts(&self) -> usize {
        self.meta[6] as usize
    }

    /// Total size of the snapshot in bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    // ---- Domain / service lookups.

    /// The domain name of a service, if the id is in range.
    pub fn domain_of(&self, service: ServiceId) -> Option<&str> {
        let s = service.index();
        if s >= self.n_services() {
            return None;
        }
        let a = self.u32_in(self.dom_off, s) as usize;
        let b = self.u32_in(self.dom_off, s + 1) as usize;
        // b - 1 drops the NUL terminator; validated non-empty at open.
        let name = self
            .bytes
            .get(self.dom_bytes.off + a..self.dom_bytes.off + b - 1)?;
        std::str::from_utf8(name).ok()
    }

    /// Find a service by exact domain name (binary search on the sorted
    /// domain index).
    pub fn service_named(&self, name: &str) -> Option<ServiceId> {
        let (mut lo, mut hi) = (0usize, self.n_services());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let sid = ServiceId(self.u32_in(self.dom_sorted, mid));
            if self.domain_of(sid).unwrap_or("") < name {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let sid =
            ServiceId(self.u32_in(self.dom_sorted, lo.min(self.n_services().saturating_sub(1))));
        if lo < self.n_services() && self.domain_of(sid) == Some(name) {
            Some(sid)
        } else {
            None
        }
    }

    // ---- Prefix lookups.

    /// The /24 network of a prefix id.
    pub fn prefix_net(&self, prefix: PrefixId) -> Option<Ipv4Net> {
        if prefix.index() >= self.n_prefixes() {
            return None;
        }
        Ipv4Net::new(Ipv4Addr(self.u32_in(self.pfx_base, prefix.index())), 24).ok()
    }

    /// The owner ASN of a prefix id.
    pub fn prefix_owner(&self, prefix: PrefixId) -> Option<Asn> {
        if prefix.index() >= self.n_prefixes() {
            return None;
        }
        Some(Asn(self.u32_in(self.pfx_owner, prefix.index())))
    }

    /// Find the prefix id whose /24 contains `addr`.
    pub fn prefix_of_addr(&self, addr: Ipv4Addr) -> Option<PrefixId> {
        self.find_base(addr.0 & !0xFF)
    }

    /// Find a prefix id by its network (the /24 base address).
    pub fn find_prefix(&self, net: Ipv4Net) -> Option<PrefixId> {
        self.find_base(net.network().0)
    }

    fn find_base(&self, base: u32) -> Option<PrefixId> {
        let k = lower_bound(0, self.n_prefixes(), base, |k| {
            self.u32_in(self.pfx_base, self.u32_in(self.pfx_sorted, k) as usize)
        });
        if k >= self.n_prefixes() {
            return None;
        }
        let id = self.u32_in(self.pfx_sorted, k);
        if self.u32_in(self.pfx_base, id as usize) == base {
            Some(PrefixId(id))
        } else {
            None
        }
    }

    // ---- The three query families.

    /// Point lookup: which replica serves `prefix` for `service`, and on
    /// what measurement evidence.
    ///
    /// One interpolation search over the service's prefix run
    /// (`point_search`): a handful of byte probes near where the prefix
    /// should sit, never more than `⌈log2(n + 1)⌉ + 17` on a run of `n`
    /// cells, and no allocation.
    pub fn point(&self, service: ServiceId, prefix: PrefixId) -> Option<PointAnswer> {
        let std::ops::Range { start: lo, end: hi } = self.cell_run(service);
        let i = point_search(lo, hi, prefix.raw(), |i| self.u32_in(self.cell_prefix, i));
        if i >= hi || self.u32_in(self.cell_prefix, i) != prefix.raw() {
            return None;
        }
        let addr = Ipv4Addr(self.u32_in(self.cell_addr, i));
        Some(PointAnswer {
            addr,
            front_as: self.front_as_of(addr),
            claim_bits: self.u8_in(self.cell_bits, i),
        })
    }

    /// All ⟨prefix, replica⟩ cells of one service, in ascending prefix
    /// order.
    pub fn cells_of(&self, service: ServiceId) -> CellsIter<'_> {
        let run = self.cell_run(service);
        CellsIter {
            snap: self,
            i: run.start,
            hi: run.end,
        }
    }

    /// The global cell indices of one service's run (empty for an unknown
    /// service).
    pub(crate) fn cell_run(&self, service: ServiceId) -> std::ops::Range<usize> {
        let s = service.index();
        if s >= self.n_services() {
            return 0..0;
        }
        self.u64_in(self.cell_svc_off, s) as usize..self.u64_in(self.cell_svc_off, s + 1) as usize
    }

    /// The ⟨prefix, replica, claim bits⟩ of global cell index `i`, read
    /// straight from the three cell columns (`i` must be below
    /// [`n_cells`](Self::n_cells)).
    pub(crate) fn cell_at(&self, i: usize) -> (PrefixId, Ipv4Addr, u8) {
        (
            PrefixId(self.u32_in(self.cell_prefix, i)),
            Ipv4Addr(self.u32_in(self.cell_addr, i)),
            self.u8_in(self.cell_bits, i),
        )
    }

    /// Reverse lookup: every ⟨service, prefix⟩ cell served by front-end
    /// address `addr`.
    ///
    /// Binary search over the reverse index for the address run, then one
    /// offset-partition search per hit to recover the service id.
    pub fn reverse(&self, addr: Ipv4Addr) -> Vec<(ServiceId, PrefixId)> {
        let key = |k: usize| self.u32_in(self.cell_addr, self.u32_in(self.cell_rev, k) as usize);
        let n = self.n_cells();
        let lo = lower_bound(0, n, addr.0, key);
        let hi = lower_bound(lo, n, addr.0.saturating_add(1), key);
        let hi = if addr.0 == u32::MAX { n } else { hi };
        let mut out = Vec::with_capacity(hi - lo);
        for k in lo..hi {
            let i = self.u32_in(self.cell_rev, k) as usize;
            if self.u32_in(self.cell_addr, i) != addr.0 {
                continue; // only reachable for addr == u32::MAX over-scan
            }
            out.push((
                self.service_of_cell(i),
                PrefixId(self.u32_in(self.cell_prefix, i)),
            ));
        }
        out
    }

    /// The service owning global cell index `i` (partition search over the
    /// service offset array).
    fn service_of_cell(&self, i: usize) -> ServiceId {
        let (mut lo, mut hi) = (0usize, self.n_services());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.u64_in(self.cell_svc_off, mid + 1) <= i as u64 {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        ServiceId(lo as u32)
    }

    /// The ⟨service, prefix, replica⟩ triple at global cell index `i`
    /// (cells are ordered by ⟨service, prefix⟩). Lets callers sample the
    /// cell population without walking a service run.
    pub fn cell(&self, i: usize) -> Option<(ServiceId, PrefixId, Ipv4Addr)> {
        if i >= self.n_cells() {
            return None;
        }
        Some((
            self.service_of_cell(i),
            PrefixId(self.u32_in(self.cell_prefix, i)),
            Ipv4Addr(self.u32_in(self.cell_addr, i)),
        ))
    }

    /// The AS hosting a front-end address, when known.
    pub fn front_as_of(&self, addr: Ipv4Addr) -> Option<Asn> {
        let k = lower_bound(0, self.n_fronts(), addr.0, |k| {
            self.u32_in(self.front_addr, k)
        });
        if k >= self.n_fronts() || self.u32_in(self.front_addr, k) != addr.0 {
            return None;
        }
        match self.u32_in(self.front_owner, k) {
            u32::MAX => None,
            owner => Some(Asn(owner)),
        }
    }

    /// Route lookup: the directed adjacency of `asn` as ⟨neighbor,
    /// relationship code⟩ pairs, ascending by neighbor (see
    /// [`itm_types::snap::rel`] for codes).
    pub fn neighbors(&self, asn: Asn) -> RouteIter<'_> {
        let a = asn.index();
        let (lo, hi) = if a < self.n_ases() {
            (
                self.u64_in(self.route_off, a) as usize,
                self.u64_in(self.route_off, a + 1) as usize,
            )
        } else {
            (0, 0)
        };
        RouteIter {
            snap: self,
            i: lo,
            hi,
        }
    }

    /// The relationship code on the directed edge `a → b`, if adjacent.
    pub fn edge(&self, a: Asn, b: Asn) -> Option<u8> {
        if a.index() >= self.n_ases() {
            return None;
        }
        let lo = self.u64_in(self.route_off, a.index()) as usize;
        let hi = self.u64_in(self.route_off, a.index() + 1) as usize;
        let i = lower_bound(lo, hi, b.raw(), |i| self.u32_in(self.route_nbr, i));
        if i < hi && self.u32_in(self.route_nbr, i) == b.raw() {
            Some(self.u8_in(self.route_kind, i))
        } else {
            None
        }
    }
}

/// Iterator over one service's mapping cells (see [`Snapshot::cells_of`]).
#[derive(Debug)]
pub struct CellsIter<'a> {
    snap: &'a Snapshot,
    i: usize,
    hi: usize,
}

impl Iterator for CellsIter<'_> {
    type Item = (PrefixId, Ipv4Addr);

    fn next(&mut self) -> Option<Self::Item> {
        if self.i >= self.hi {
            return None;
        }
        let (prefix, addr, _) = self.snap.cell_at(self.i);
        self.i += 1;
        Some((prefix, addr))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.hi - self.i;
        (n, Some(n))
    }
}

impl ExactSizeIterator for CellsIter<'_> {}

/// Iterator over one AS's adjacency entries (see [`Snapshot::neighbors`]).
#[derive(Debug)]
pub struct RouteIter<'a> {
    snap: &'a Snapshot,
    i: usize,
    hi: usize,
}

impl Iterator for RouteIter<'_> {
    type Item = (Asn, u8);

    fn next(&mut self) -> Option<Self::Item> {
        if self.i >= self.hi {
            return None;
        }
        let i = self.i;
        self.i += 1;
        Some((
            Asn(self.snap.u32_in(self.snap.route_nbr, i)),
            self.snap.u8_in(self.snap.route_kind, i),
        ))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.hi - self.i;
        (n, Some(n))
    }
}

impl ExactSizeIterator for RouteIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use itm_types::snap::SnapWriter;
    use Col::{U32, U64, U8};

    /// One column of a hand-built fixture.
    pub(crate) enum Col<'a> {
        U8(&'a [u8]),
        U32(&'a [u32]),
        U64(&'a [u64]),
    }

    /// Write `columns`, in order, as a snapshot file.
    pub(crate) fn fixture(columns: &[(u32, Col)]) -> Vec<u8> {
        let layout: Vec<(u32, usize, usize)> = columns
            .iter()
            .map(|(id, col)| match col {
                U8(v) => (*id, 1, v.len()),
                U32(v) => (*id, 4, v.len()),
                U64(v) => (*id, 8, v.len()),
            })
            .collect();
        let mut w = SnapWriter::new(&layout);
        for (id, col) in columns {
            match col {
                U8(v) => w.put_u8(*id, v.iter().copied()),
                U32(v) => w.put_u32(*id, v.iter().copied()),
                U64(v) => w.put_u64(*id, v.iter().copied()),
            }
        }
        w.finish()
    }

    /// Hand-assemble a tiny but fully consistent snapshot:
    /// 2 services ("a.example", "b.example"), 3 prefixes, 4 cells,
    /// 2 front-ends, 3 ASes with a triangle of relationships.
    fn tiny() -> Vec<u8> {
        fixture(&[
            // seed, n_ases, n_prefixes, n_services, n_cells, n_route, n_fronts
            (section::META, U64(&[42, 3, 3, 2, 4, 4, 2])),
            (section::DOM_OFF, U32(&[0, 10, 20])),
            (section::DOM_BYTES, U8(b"a.example\0b.example\0")),
            (section::DOM_SORTED, U32(&[0, 1])),
            // Prefixes 10.0.0.0/24 (AS0), 10.0.1.0/24 (AS1), 10.0.2.0/24
            // (AS2), stored out of base order to exercise the sort index.
            (
                section::PFX_BASE,
                U32(&[0x0A000100, 0x0A000000, 0x0A000200]),
            ),
            (section::PFX_OWNER, U32(&[1, 0, 2])),
            (section::PFX_SORTED, U32(&[1, 0, 2])),
            // Service 0 maps prefixes {0, 1}; service 1 maps {1, 2}.
            (section::CELL_SVC_OFF, U64(&[0, 2, 4])),
            (section::CELL_PREFIX, U32(&[0, 1, 1, 2])),
            // Front 0x0A000001 serves cells 0 and 2; 0x0A000201 serves 1
            // and 3.
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
            // AS0 ↔ AS1 (0's provider is 1), AS1 ↔ AS2 peers.
            (section::ROUTE_OFF, U64(&[0, 1, 3, 4])),
            (section::ROUTE_NBR, U32(&[1, 0, 2, 1])),
            (
                section::ROUTE_KIND,
                U8(&[
                    snap::rel::PROVIDER,
                    snap::rel::CUSTOMER,
                    snap::rel::PEER,
                    snap::rel::PEER,
                ]),
            ),
        ])
    }

    #[test]
    fn opens_and_reports_meta() {
        let s = Snapshot::from_bytes(tiny()).unwrap();
        assert_eq!(s.seed(), 42);
        assert_eq!(s.n_services(), 2);
        assert_eq!(s.n_cells(), 4);
        assert_eq!(s.n_fronts(), 2);
    }

    #[test]
    fn point_lookup_hits_and_misses() {
        let s = Snapshot::from_bytes(tiny()).unwrap();
        let hit = s.point(ServiceId(0), PrefixId(1)).unwrap();
        assert_eq!(hit.addr, Ipv4Addr(0x0A000201));
        assert_eq!(hit.front_as, None); // front owner is the unknown sentinel
        assert_eq!(hit.claim_bits, claim::CATALOG_PRIOR);
        assert_eq!(hit.techniques(), vec!["catalog_prior"]);
        let hit = s.point(ServiceId(1), PrefixId(1)).unwrap();
        assert_eq!(hit.front_as, Some(Asn(1)));
        assert_eq!(hit.techniques(), vec!["ecs", "anycast"]);
        assert!(s.point(ServiceId(0), PrefixId(2)).is_none());
        assert!(s.point(ServiceId(9), PrefixId(0)).is_none());
    }

    #[test]
    fn reverse_lookup_finds_all_cells_of_a_front() {
        let s = Snapshot::from_bytes(tiny()).unwrap();
        assert_eq!(
            s.reverse(Ipv4Addr(0x0A000001)),
            vec![(ServiceId(0), PrefixId(0)), (ServiceId(1), PrefixId(1))]
        );
        assert_eq!(
            s.reverse(Ipv4Addr(0x0A000201)),
            vec![(ServiceId(0), PrefixId(1)), (ServiceId(1), PrefixId(2))]
        );
        assert!(s.reverse(Ipv4Addr(0x01020304)).is_empty());
    }

    #[test]
    fn route_lookup_and_edges() {
        let s = Snapshot::from_bytes(tiny()).unwrap();
        let nbrs: Vec<_> = s.neighbors(Asn(1)).collect();
        assert_eq!(
            nbrs,
            vec![(Asn(0), snap::rel::CUSTOMER), (Asn(2), snap::rel::PEER)]
        );
        assert_eq!(s.edge(Asn(0), Asn(1)), Some(snap::rel::PROVIDER));
        assert_eq!(s.edge(Asn(0), Asn(2)), None);
        assert_eq!(s.neighbors(Asn(9)).count(), 0);
    }

    #[test]
    fn name_and_prefix_resolution() {
        let s = Snapshot::from_bytes(tiny()).unwrap();
        assert_eq!(s.domain_of(ServiceId(1)), Some("b.example"));
        assert_eq!(s.service_named("a.example"), Some(ServiceId(0)));
        assert_eq!(s.service_named("zzz"), None);
        assert_eq!(
            s.find_prefix("10.0.1.0/24".parse().unwrap()),
            Some(PrefixId(0))
        );
        assert_eq!(s.prefix_of_addr(Ipv4Addr(0x0A000042)), Some(PrefixId(1)));
        assert_eq!(s.prefix_of_addr(Ipv4Addr(0x7F000001)), None);
        assert_eq!(s.prefix_owner(PrefixId(2)), Some(Asn(2)));
        assert_eq!(
            s.prefix_net(PrefixId(1)).map(|n| n.to_string()),
            Some("10.0.0.0/24".into())
        );
    }

    #[test]
    fn cells_of_iterates_one_service_run() {
        let s = Snapshot::from_bytes(tiny()).unwrap();
        let cells: Vec<_> = s.cells_of(ServiceId(1)).collect();
        assert_eq!(
            cells,
            vec![
                (PrefixId(1), Ipv4Addr(0x0A000001)),
                (PrefixId(2), Ipv4Addr(0x0A000201)),
            ]
        );
        assert_eq!(s.cells_of(ServiceId(7)).count(), 0);
        assert_eq!(
            s.cell(2),
            Some((ServiceId(1), PrefixId(1), Ipv4Addr(0x0A000001)))
        );
        assert_eq!(s.cell(9), None);
    }

    #[test]
    fn missing_section_is_rejected() {
        let bytes = fixture(&[(section::META, U64(&[0; snap::META_FIELDS]))]);
        assert!(matches!(
            Snapshot::from_bytes(bytes),
            Err(SnapError::MissingSection { .. })
        ));
    }

    #[test]
    fn inconsistent_counts_are_rejected() {
        // Same sections as tiny() but META claims 5 cells.
        let good = tiny();
        let dir = snap::parse_dir(&good).unwrap();
        let mut columns = vec![(section::META, U64(&[42, 3, 3, 2, 5, 4, 2]))];
        for e in dir.iter().skip(1) {
            let payload = &good[e.offset as usize..(e.offset + e.len) as usize];
            columns.push((e.id, U8(payload))); // byte-count mismatch vs u32 counts
        }
        assert!(Snapshot::from_bytes(fixture(&columns)).is_err());
    }

    #[test]
    fn corrupted_byte_is_rejected() {
        let good = tiny();
        let mut bad = good.clone();
        bad[good.len() / 2] ^= 0xFF;
        assert!(Snapshot::from_bytes(bad).is_err());
    }

    /// `/dev/zero` never ends: reading it to EOF would exhaust memory.
    /// The open refuses it before reading a byte.
    #[cfg(target_os = "linux")]
    #[test]
    fn an_endless_device_is_refused_promptly() {
        let t = std::time::Instant::now();
        let err = Snapshot::open("/dev/zero").map(|_| ()).unwrap_err();
        assert_eq!(
            err,
            SnapError::Io {
                detail: "/dev/zero: not a regular file".into()
            }
        );
        assert!(t.elapsed() < std::time::Duration::from_secs(5));
    }

    // ---- The reader: chunks read on the calling thread, hashed beside.

    /// Byte `i` of a pattern that shifts from one 4 KiB page to the
    /// next and from one 1 MiB block to the next, so a misplaced page
    /// or chunk shows.
    fn pattern(i: usize) -> u8 {
        (i ^ (i >> 12) ^ (i >> 20)).wrapping_mul(31) as u8
    }

    /// `len` pattern bytes whose header names `version`.
    fn versioned(len: usize, version: u32) -> Vec<u8> {
        let mut bytes: Vec<u8> = (0..len).map(pattern).collect();
        if len >= 12 {
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
        }
        bytes
    }

    /// The reader's bytes and checksum, from `source` into a zeroed
    /// buffer of `len` bytes.
    fn read_from(source: &[u8], len: usize, threads: usize) -> (Vec<u8>, Option<u64>) {
        let buf = itm_obs::alloc::try_zeroed_bytes(len).unwrap();
        read_into(source, buf, &ParallelExecutor::new(threads)).unwrap()
    }

    #[test]
    fn read_returns_exactly_the_file_bytes_and_their_checksum() {
        let dir = std::env::temp_dir().join(format!("snap-read-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Lengths on both sides of a chunk; the larger ones leave a
        // 2 MiB-aligned interior to advise.
        let lengths = [
            0,
            1,
            11,
            12,
            31,
            32,
            READ_CHUNK - 1,
            READ_CHUNK,
            READ_CHUNK + 1,
            4 * READ_CHUNK + 17,
            9 * READ_CHUNK,
        ];
        for len in lengths {
            for (version, sum) in [
                (snap::VERSION, Some(snap::checksum as fn(&[u8]) -> u64)),
                (snap::V1, Some(snap::checksum_v1)),
                (9, None),
            ] {
                let want = versioned(len, version);
                let path = dir.join(format!("len-{len}-v{version}"));
                std::fs::write(&path, &want).unwrap();
                let path = path.to_str().unwrap();
                for threads in [1, 2] {
                    let (bytes, got) = read_summed(path, &ParallelExecutor::new(threads)).unwrap();
                    assert_eq!(bytes, want, "length {len}, v{version}, {threads} threads");
                    let want_sum = sum.filter(|_| len >= 12).map(|f| f(&want));
                    assert_eq!(got, want_sum, "length {len}, v{version}, {threads} threads");
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_refuses_what_is_not_a_regular_file() {
        let exec = ParallelExecutor::new(2);
        let dir = std::env::temp_dir();
        let err = read_summed(dir.to_str().unwrap(), &exec).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("snapshot I/O error: {}: not a regular file", dir.display())
        );
        let missing = dir.join(format!("snap-read-missing-{}", std::process::id()));
        assert!(matches!(
            read_summed(missing.to_str().unwrap(), &exec),
            Err(SnapError::Io { .. })
        ));
    }

    #[test]
    fn a_file_that_shrinks_mid_read_fails_its_length_check() {
        // The metadata said `len` bytes; the source ends earlier, inside
        // the third chunk.
        let good = tiny();
        let len = 3 * READ_CHUNK;
        let mut source = good.clone();
        source.resize(2 * READ_CHUNK + 5, 0);
        for threads in [1, 2] {
            let (bytes, sum) = read_from(&source, len, threads);
            assert_eq!(bytes, source);
            assert_eq!(sum, Some(snap::checksum(&source)));
            assert_eq!(
                Snapshot::validate(bytes, sum, &ParallelExecutor::new(threads)).err(),
                Some(SnapError::LengthMismatch {
                    header: good.len() as u64,
                    actual: source.len(),
                })
            );
        }
    }

    /// A source that fails after handing over `ok` bytes.
    struct Failing {
        ok: usize,
    }

    impl std::io::Read for Failing {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.ok == 0 {
                return Err(std::io::Error::other("disk gone"));
            }
            let n = buf.len().min(self.ok);
            buf[..n]
                .iter_mut()
                .enumerate()
                .for_each(|(i, b)| *b = pattern(i));
            self.ok -= n;
            Ok(n)
        }
    }

    #[test]
    fn a_read_error_ends_the_read_and_its_hasher() {
        for threads in [1, 2] {
            for ok in [0, 7, READ_CHUNK, 2 * READ_CHUNK + 3] {
                let buf = itm_obs::alloc::try_zeroed_bytes(4 * READ_CHUNK).unwrap();
                let err =
                    read_into(Failing { ok }, buf, &ParallelExecutor::new(threads)).unwrap_err();
                assert_eq!(err.to_string(), "disk gone");
            }
        }
    }

    // ---- The point-search kernel against its oracle, `lower_bound`.

    /// The most probes `point_search` makes beyond the final bisection:
    /// the two endpoints, then per round the guess and its gallop.
    const EXTRA_PROBES: usize = 2 + ROUNDS * (1 + GALLOP);

    /// A strictly ascending run of keys of one shape, from `gaps` (each
    /// in `1..=1000`), its length `gaps.len() + 1` unless the shape fixes
    /// it: 0 dense, 1 sparse, 2 one far outlier below, 3 one far outlier
    /// above, 4 exponential gaps, 5 a narrow cluster between sparse
    /// tails, 6 a one- or two-key run, 7 keys at 0 and `u32::MAX − 1`.
    /// Keys beyond `u32::MAX − 1` are dropped.
    fn shaped_run(shape: u8, gaps: &[u32], base: u32) -> Vec<u32> {
        let top = u64::from(u32::MAX - 1);
        let n = gaps.len();
        let gap = |i: usize, g: u32| -> u64 {
            let g = u64::from(g);
            match shape {
                0 | 2 | 3 => 1,
                4 => 1 << (g % 32),
                5 if i < n / 3 || i >= 2 * n / 3 => g << 12,
                5 => 1,
                _ => g,
            }
        };
        let start = match shape {
            2 => 1 << 31,
            4 | 7 => 0,
            _ => u64::from(base) % (1 << 31),
        };
        let mut keys = vec![start];
        for (i, &g) in gaps.iter().enumerate() {
            let next = keys[keys.len() - 1] + gap(i, g);
            if next > top {
                break;
            }
            keys.push(next);
        }
        match shape {
            2 => keys.insert(0, 0),
            3 | 7 if keys[keys.len() - 1] < top => keys.push(top),
            6 => keys.truncate(1 + (base as usize & 1)),
            _ => {}
        }
        keys.into_iter().map(|k| k as u32).collect()
    }

    /// Every target worth asking of `keys`: 0, `u32::MAX`, and each key
    /// with its two neighbours (below, on, between and above the run).
    fn targets_of(keys: &[u32]) -> Vec<u32> {
        let mut t = vec![0, u32::MAX];
        for &k in keys {
            t.extend([k.saturating_sub(1), k, k.saturating_add(1)]);
        }
        t
    }

    /// The bisection's probe count on `n` keys, `⌈log2(n + 1)⌉`.
    fn bisection_probes(n: usize) -> usize {
        (usize::BITS - n.leading_zeros()) as usize
    }

    /// Run `point_search` and `lower_bound` over `keys` placed at global
    /// index `lo`, for every target; the probe count of `point_search` is
    /// checked against its bound.
    fn agrees_with_lower_bound(keys: &[u32], lo: usize) -> Result<(), String> {
        let hi = lo + keys.len();
        let probes = std::cell::Cell::new(0usize);
        let key = |i: usize| {
            probes.set(probes.get() + 1);
            keys[i - lo]
        };
        let bound = bisection_probes(keys.len()) + EXTRA_PROBES;
        for target in targets_of(keys) {
            let want = lower_bound(lo, hi, target, |i| keys[i - lo]);
            probes.set(0);
            let got = point_search(lo, hi, target, key);
            if got != want {
                return Err(format!(
                    "target {target} on {} keys: {got} ≠ {want}",
                    keys.len()
                ));
            }
            if probes.get() > bound {
                return Err(format!(
                    "target {target} on {} keys: {} probes > {bound}",
                    keys.len(),
                    probes.get()
                ));
            }
        }
        Ok(())
    }

    proptest::proptest! {
        /// On every run shape and every target the kernel answers like
        /// the bisection, in at most `⌈log2(n + 1)⌉ + EXTRA_PROBES`
        /// probes (within `2·⌈log2 n⌉ + 18` for every `n ≥ 1`).
        #[test]
        fn point_search_equals_lower_bound_on_every_run_shape(
            shape in 0u8..8,
            gaps in proptest::collection::vec(1u32..=1000, 0..3000),
            base in proptest::prelude::any::<u32>(),
            lo in 0usize..1000,
        ) {
            let keys = shaped_run(shape, &gaps, base);
            proptest::prop_assert!(keys.windows(2).all(|w| w[0] < w[1]));
            agrees_with_lower_bound(&keys, lo)?;
        }

        /// Only order is relied on: with repeated keys, and runs whose
        /// endpoint keys are equal, the answer is still the bisection's.
        #[test]
        fn point_search_equals_lower_bound_on_runs_with_repeats(
            steps in proptest::collection::vec(0u32..=2, 0..3000),
            base in 0u32..1000,
        ) {
            let keys: Vec<u32> = std::iter::once(base)
                .chain(steps.iter().scan(base, |k, &s| {
                    *k += s;
                    Some(*k)
                }))
                .collect();
            agrees_with_lower_bound(&keys, 0)?;
        }
    }

    #[test]
    fn point_search_on_edge_runs() {
        let outlier: Vec<u32> = (0..40).chain([u32::MAX - 1]).collect();
        let runs: [&[u32]; 6] = [
            &[],
            &[0],
            &[u32::MAX - 1],
            &[0, u32::MAX - 1],
            &[7; 40],
            &outlier,
        ];
        for keys in runs {
            agrees_with_lower_bound(keys, 3).unwrap();
        }
    }

    /// On a dense run the first guess is the answer: two endpoints, the
    /// guess, and one gallop step to see the key below it.
    #[test]
    fn point_search_hits_a_dense_run_in_four_probes() {
        let keys: Vec<u32> = (1000..101_000).collect();
        let probes = std::cell::Cell::new(0usize);
        for (i, &k) in keys.iter().enumerate() {
            probes.set(0);
            let at = point_search(0, keys.len(), k, |j| {
                probes.set(probes.get() + 1);
                keys[j]
            });
            assert_eq!(at, i);
            assert!(probes.get() <= 4, "key {k}: {} probes", probes.get());
        }
    }

    /// Windows of any length, up to the whole index space: the guess's
    /// product saturates instead of wrapping, and no index overflows.
    #[test]
    fn point_search_on_windows_of_any_length() {
        for (lo, hi) in [
            (0, usize::MAX),
            (usize::MAX / 2, usize::MAX),
            (1 << 40, (1 << 40) + (1 << 33)),
            (5, 5),
            (9, 4),
        ] {
            for shift in [0u32, 20, 33, 63] {
                let key = |i: usize| ((i - lo) >> shift).min(u32::MAX as usize) as u32;
                for target in [0, 1, 2, 1 << 20, u32::MAX - 1, u32::MAX] {
                    assert_eq!(
                        point_search(lo, hi, target, key),
                        lower_bound(lo, hi, target, key),
                        "[{lo}, {hi}) >> {shift}, target {target}"
                    );
                }
            }
        }
    }
}
