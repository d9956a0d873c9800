//! The map snapshot wire format: sectioned, checksummed, mmap-friendly.
//!
//! A snapshot is the serving-layer artifact of the paper's end goal — "a
//! continuously updated map of the Internet" that others can *query*, not
//! a one-shot batch output. The format is a single binary file laid out so
//! a reader can answer point/reverse/route lookups with offset arithmetic
//! and binary search directly over the file bytes, without deserializing
//! anything into owned structures:
//!
//! * every integer is **little-endian** and fixed-width;
//! * every section starts on an **8-byte boundary** (zero-padded), so the
//!   file can be memory-mapped and each section viewed as a typed column;
//! * columns are **sorted** (cells by `(service, prefix)`, front-ends by
//!   address, adjacency by neighbor ASN), so lookups are binary searches;
//! * a **whole-file checksum** (XXH64 with the checksum field zeroed)
//!   makes any single corrupted byte a hard open-time error.
//!
//! Layout (see DESIGN.md §14 for the full specification):
//!
//! ```text
//! offset  0  magic    [u8; 8]  = "ITMSNAP\0"
//! offset  8  version  u32      = 2
//! offset 12  n_sections u32
//! offset 16  checksum u64      (XXH64, seed 0, over the file, bytes 16..24 zeroed)
//! offset 24  file_len u64
//! offset 32  directory: n_sections × 32-byte entries
//!            { id u32, reserved u32 = 0, offset u64, len u64, count u64 }
//! then       section payloads, each 8-byte aligned, zero-padded between
//! ```
//!
//! `len` is the payload byte length *excluding* padding; `count` is the
//! element count (`len / elem_size` for fixed-width columns). Versioning
//! rule: any layout or semantic change bumps [`VERSION`]; readers reject
//! files whose version they do not understand, never guess.
//!
//! Version 1 differs from version 2 only in its checksum, FNV-1a 64 over
//! the same bytes: one dependent multiply per byte, where XXH64 runs four
//! independent lanes. The writer always writes [`VERSION`]; [`parse_dir`]
//! still opens v1 files, checking each with its own version's checksum.
//!
//! This module owns only the *encoding*: constants, the writer that
//! assembles header + directory + payloads, the header and directory
//! parsers, and the checksum, which a reader can also take a chunk at a
//! time ([`Checksum`]) while the file is still arriving. What goes
//! *into* the sections is the snapshot writer's business (`itm-core`);
//! how the file is read and queried is the reader's (`itm-serve`).

use std::fmt;

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"ITMSNAP\0";

/// Current snapshot schema version, the one the writer stamps. Bump on
/// any layout or semantic change.
pub const VERSION: u32 = 2;

/// The first schema version, still read: identical to [`VERSION`] but
/// for its checksum ([`checksum_v1`]).
pub const V1: u32 = 1;

/// Byte size of one directory entry.
pub const DIR_ENTRY_SIZE: usize = 32;

/// Byte size of the fixed header preceding the directory.
pub const HEADER_SIZE: usize = 32;

/// Section ids. Ids are stable across versions; new sections take new ids.
pub mod section {
    /// `u64 × 7`: seed, n_ases, n_prefixes, n_services, n_cells,
    /// n_route_entries, n_fronts.
    pub const META: u32 = 1;
    /// `u32[n_services + 1]`: byte offsets into [`DOM_BYTES`] delimiting
    /// each service's domain name (entry `s` to `s + 1`).
    pub const DOM_OFF: u32 = 2;
    /// UTF-8 concatenation of all domain names, in service-id order.
    pub const DOM_BYTES: u32 = 3;
    /// `u32[n_services]`: permutation of service ids ordering domains
    /// lexicographically (the binary-search index for name lookup).
    pub const DOM_SORTED: u32 = 4;
    /// `u32[n_prefixes]`: base address of each /24, in prefix-id order.
    pub const PFX_BASE: u32 = 5;
    /// `u32[n_prefixes]`: owner ASN of each prefix, in prefix-id order.
    pub const PFX_OWNER: u32 = 6;
    /// `u32[n_prefixes]`: permutation of prefix ids ordering bases
    /// ascending (the binary-search index for net → id lookup).
    pub const PFX_SORTED: u32 = 7;
    /// `u64[n_services + 1]`: cell-index offsets delimiting each
    /// service's run in the cell columns (entry `s` to `s + 1`).
    pub const CELL_SVC_OFF: u32 = 8;
    /// `u32[n_cells]`: the prefix id of each mapping cell, grouped by
    /// service (via [`CELL_SVC_OFF`]) and ascending within a service.
    pub const CELL_PREFIX: u32 = 9;
    /// `u32[n_cells]`: the serving front-end address of each cell.
    pub const CELL_ADDR: u32 = 10;
    /// `u8[n_cells]`: the per-cell technique claim bitmap (see
    /// [`claim`]), aligned with the cell columns.
    pub const CELL_BITS: u32 = 11;
    /// `u32[n_cells]`: permutation of global cell indices ordered by
    /// `(serving address, cell index)` — the reverse-lookup index.
    pub const CELL_REV: u32 = 12;
    /// `u32[n_fronts]`: every distinct serving address the map knows
    /// (mapping cells ∪ SNI/ECS footprints), strictly ascending.
    pub const FRONT_ADDR: u32 = 13;
    /// `u32[n_fronts]`: host ASN per front address; `u32::MAX` when the
    /// address resolves to no routed prefix.
    pub const FRONT_OWNER: u32 = 14;
    /// `u64[n_ases + 1]`: adjacency offsets delimiting each AS's run in
    /// the route columns (entry `a` to `a + 1`).
    pub const ROUTE_OFF: u32 = 15;
    /// `u32[n_route_entries]`: neighbor ASN per directed adjacency entry,
    /// ascending within each AS's run.
    pub const ROUTE_NBR: u32 = 16;
    /// `u8[n_route_entries]`: relationship code per adjacency entry (see
    /// [`rel`]), aligned with [`ROUTE_NBR`].
    pub const ROUTE_KIND: u32 = 17;
}

/// Number of `u64` fields in the [`section::META`] payload.
pub const META_FIELDS: usize = 7;

/// On-disk relationship codes for route adjacency entries.
///
/// These encode `NeighborKind` without making the format depend on the
/// topology crate; the writer maps the enum to codes, readers map back.
pub mod rel {
    /// The neighbor is our customer (it pays us).
    pub const CUSTOMER: u8 = 0;
    /// The neighbor is our provider (we pay it).
    pub const PROVIDER: u8 = 1;
    /// Settlement-free peer.
    pub const PEER: u8 = 2;

    /// Human-readable name of a relationship code.
    pub fn name(code: u8) -> Option<&'static str> {
        match code {
            CUSTOMER => Some("customer"),
            PROVIDER => Some("provider"),
            PEER => Some("peer"),
            _ => None,
        }
    }
}

/// On-disk per-cell claim bits: which techniques back a mapping cell.
///
/// These duplicate `itm_core::audit::bits` *by value* — they are the wire
/// format, frozen under [`VERSION`], while the audit constants are free to
/// evolve with the audit. A round-trip test pins the two in sync.
pub mod claim {
    /// Cache probing found users in the cell's prefix.
    pub const CACHE_PROBE: u8 = 1 << 0;
    /// The root crawl saw queries from the cell's AS.
    pub const ROOT_CRAWL: u8 = 1 << 1;
    /// The ECS campaign measured the cell directly.
    pub const ECS: u8 = 1 << 2;
    /// A catchment assigns the cell's AS to a serving site.
    pub const ANYCAST: u8 = 1 << 3;
    /// An SNI-confirmed front-end exists for the cell's service.
    pub const TLS_NEAREST: u8 = 1 << 4;
    /// The catalogue prior always speaks.
    pub const CATALOG_PRIOR: u8 = 1 << 5;

    /// Technique names for the bits set in `bits`, in bit order.
    pub fn names(bits: u8) -> Vec<&'static str> {
        const TABLE: [(u8, &str); 6] = [
            (CACHE_PROBE, "cache_probe"),
            (ROOT_CRAWL, "root_crawl"),
            (ECS, "ecs"),
            (ANYCAST, "anycast"),
            (TLS_NEAREST, "tls_nearest"),
            (CATALOG_PRIOR, "catalog_prior"),
        ];
        TABLE
            .iter()
            .filter(|(b, _)| bits & b != 0)
            .map(|&(_, n)| n)
            .collect()
    }
}

/// Whole-file checksum of a v2 file: XXH64 (seed 0) over `bytes` with
/// the checksum field (bytes 16..24) treated as zero, so the stored value
/// can live inside the region it covers.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut sum = Checksum::xxh64();
    sum.update(bytes);
    sum.finish()
}

/// Whole-file checksum of a v1 file: FNV-1a 64 over `bytes` with the
/// checksum field (bytes 16..24) treated as zero. Kept only to read v1
/// files.
pub fn checksum_v1(bytes: &[u8]) -> u64 {
    let mut sum = Checksum::fnv1a();
    sum.update(bytes);
    sum.finish()
}

/// The header's checksum field, which every checksum reads as zero.
const SUM_FIELD: std::ops::Range<usize> = 16..24;

/// A whole-file checksum taken a chunk at a time, so that a reader can
/// hash each chunk of a file as it lands. [`Checksum::new`] picks the
/// version's algorithm; [`Checksum::update`] takes the file's bytes in
/// order, cut anywhere, and counts bytes 16..24 (the checksum field) as
/// zero wherever the cuts fall; [`Checksum::finish`] then returns what
/// [`checksum`] (v2) or [`checksum_v1`] (v1) returns over the same bytes
/// in one piece. Those two are this state fed once.
#[derive(Debug, Clone)]
pub struct Checksum {
    /// Bytes taken so far.
    len: u64,
    algo: Algo,
}

#[derive(Debug, Clone)]
enum Algo {
    /// FNV-1a 64: the running hash.
    Fnv1a(u64),
    /// XXH64: the four lane accumulators, and the `len % 32` bytes of
    /// the stripe not yet hashed at the front of `stripe`.
    Xxh64 { lanes: [u64; 4], stripe: [u8; 32] },
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

impl Checksum {
    /// The checksum of a file of schema `version`: XXH64 for
    /// [`VERSION`], FNV-1a 64 for [`V1`], none for a version this reader
    /// does not speak.
    pub fn new(version: u32) -> Option<Checksum> {
        match version {
            V1 => Some(Checksum::fnv1a()),
            VERSION => Some(Checksum::xxh64()),
            _ => None,
        }
    }

    fn fnv1a() -> Checksum {
        Checksum {
            len: 0,
            algo: Algo::Fnv1a(FNV_OFFSET),
        }
    }

    fn xxh64() -> Checksum {
        Checksum {
            len: 0,
            algo: Algo::Xxh64 {
                lanes: [
                    PRIME64_1.wrapping_add(PRIME64_2),
                    PRIME64_2,
                    0,
                    0u64.wrapping_sub(PRIME64_1),
                ],
                stripe: [0; 32],
            },
        }
    }

    /// Take the next `bytes` of the file.
    pub fn update(&mut self, bytes: &[u8]) {
        if self.len >= SUM_FIELD.end as u64 {
            return self.absorb(bytes);
        }
        // The part of the chunk before the field's end, patched on the
        // stack: at most 24 bytes.
        let at = self.len as usize;
        let (head, rest) = bytes.split_at(bytes.len().min(SUM_FIELD.end - at));
        let mut patched = [0u8; SUM_FIELD.end];
        patched[..head.len()].copy_from_slice(head);
        patched[SUM_FIELD.start.saturating_sub(at).min(head.len())..head.len()].fill(0);
        self.absorb(&patched[..head.len()]);
        self.absorb(rest);
    }

    /// Hash `bytes` as they are.
    fn absorb(&mut self, mut bytes: &[u8]) {
        let buffered = (self.len % 32) as usize;
        self.len += bytes.len() as u64;
        match &mut self.algo {
            Algo::Fnv1a(h) => {
                let mut x = *h;
                for &b in bytes {
                    x = (x ^ u64::from(b)).wrapping_mul(FNV_PRIME);
                }
                *h = x;
            }
            Algo::Xxh64 { lanes, stripe } => {
                if buffered > 0 {
                    let take = (32 - buffered).min(bytes.len());
                    stripe[buffered..buffered + take].copy_from_slice(&bytes[..take]);
                    bytes = &bytes[take..];
                    if buffered + take < 32 {
                        return;
                    }
                    xxh_stripes(lanes, stripe);
                }
                let whole = bytes.len() & !31;
                xxh_stripes(lanes, &bytes[..whole]);
                stripe[..bytes.len() - whole].copy_from_slice(&bytes[whole..]);
            }
        }
    }

    /// The checksum of every byte taken so far.
    pub fn finish(&self) -> u64 {
        let (lanes, stripe) = match &self.algo {
            Algo::Fnv1a(h) => return *h,
            Algo::Xxh64 { lanes, stripe } => (lanes, stripe),
        };
        let mut h = if self.len >= 32 {
            let mut h = lanes[0]
                .rotate_left(1)
                .wrapping_add(lanes[1].rotate_left(7))
                .wrapping_add(lanes[2].rotate_left(12))
                .wrapping_add(lanes[3].rotate_left(18));
            for &acc in lanes {
                h = (h ^ xxh_round(0, acc))
                    .wrapping_mul(PRIME64_1)
                    .wrapping_add(PRIME64_4);
            }
            h
        } else {
            PRIME64_5
        };
        h = h.wrapping_add(self.len);
        let mut words = stripe[..(self.len % 32) as usize].chunks_exact(8);
        for w in &mut words {
            h = (h ^ xxh_round(0, le64(w)))
                .rotate_left(27)
                .wrapping_mul(PRIME64_1)
                .wrapping_add(PRIME64_4);
        }
        let mut tail = words.remainder();
        if tail.len() >= 4 {
            let w = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]) as u64;
            h = (h ^ w.wrapping_mul(PRIME64_1))
                .rotate_left(23)
                .wrapping_mul(PRIME64_2)
                .wrapping_add(PRIME64_3);
            tail = &tail[4..];
        }
        for &b in tail {
            h = (h ^ (b as u64).wrapping_mul(PRIME64_5))
                .rotate_left(11)
                .wrapping_mul(PRIME64_1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(PRIME64_2);
        h ^= h >> 29;
        h = h.wrapping_mul(PRIME64_3);
        h ^ (h >> 32)
    }
}

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline(always)]
fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

#[inline(always)]
fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

/// Run the XXH64 lanes over every whole 32-byte stripe of `bytes`.
#[inline]
fn xxh_stripes(lanes: &mut [u64; 4], bytes: &[u8]) {
    let mut v = *lanes;
    for stripe in bytes.chunks_exact(32) {
        v[0] = xxh_round(v[0], le64(&stripe[0..]));
        v[1] = xxh_round(v[1], le64(&stripe[8..]));
        v[2] = xxh_round(v[2], le64(&stripe[16..]));
        v[3] = xxh_round(v[3], le64(&stripe[24..]));
    }
    *lanes = v;
}

/// Standard XXH64 with seed 0 of the concatenation `head ++ rest`, with
/// no byte patched.
#[cfg(test)]
fn xxh64(head: &[u8], rest: &[u8]) -> u64 {
    let mut sum = Checksum::xxh64();
    sum.absorb(head);
    sum.absorb(rest);
    sum.finish()
}

/// One parsed directory entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionEntry {
    /// Section id (see [`section`]).
    pub id: u32,
    /// Byte offset of the payload from the start of the file.
    pub offset: u64,
    /// Payload byte length, excluding alignment padding.
    pub len: u64,
    /// Element count (`len / elem_size` for fixed-width columns).
    pub count: u64,
}

/// Errors from parsing or validating a snapshot file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The file is shorter than the fixed header.
    TooShort {
        /// Actual byte length.
        len: usize,
    },
    /// The magic bytes do not match [`MAGIC`].
    BadMagic,
    /// The schema version is not one this reader understands.
    BadVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The header's `file_len` disagrees with the actual byte count.
    LengthMismatch {
        /// Length recorded in the header.
        header: u64,
        /// Actual byte length.
        actual: usize,
    },
    /// The stored checksum does not match the recomputed one.
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum recomputed over the file bytes.
        computed: u64,
    },
    /// A directory entry is malformed (out of bounds, misaligned,
    /// duplicated, or its length is inconsistent with its count).
    BadSection {
        /// The offending section id.
        id: u32,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// A required section is absent from the directory.
    MissingSection {
        /// The absent section id.
        id: u32,
    },
    /// Section contents failed semantic validation (non-monotone offset
    /// array, invalid UTF-8 in the domain table, …).
    Malformed {
        /// What failed to validate.
        what: &'static str,
    },
    /// An I/O error while reading the snapshot file (carried as text so
    /// this type stays plain data).
    Io {
        /// The rendered I/O error.
        detail: String,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::TooShort { len } => {
                write!(f, "snapshot too short: {len} bytes < {HEADER_SIZE} header")
            }
            SnapError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (reader speaks {V1} and {VERSION})"
                )
            }
            SnapError::LengthMismatch { header, actual } => {
                write!(
                    f,
                    "snapshot length mismatch: header says {header}, file is {actual}"
                )
            }
            SnapError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x} \
                 (file corrupted or truncated)"
            ),
            SnapError::BadSection { id, reason } => {
                write!(f, "snapshot section {id} is malformed: {reason}")
            }
            SnapError::MissingSection { id } => {
                write!(f, "snapshot is missing required section {id}")
            }
            SnapError::Malformed { what } => write!(f, "snapshot failed validation: {what}"),
            SnapError::Io { detail } => write!(f, "snapshot I/O error: {detail}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Read a little-endian `u32` at `off`, if in bounds.
#[inline]
pub fn read_u32(bytes: &[u8], off: usize) -> Option<u32> {
    let s = bytes.get(off..off.checked_add(4)?)?;
    Some(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
}

/// Read a little-endian `u64` at `off`, if in bounds.
#[inline]
pub fn read_u64(bytes: &[u8], off: usize) -> Option<u64> {
    let s = bytes.get(off..off.checked_add(8)?)?;
    Some(u64::from_le_bytes([
        s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
    ]))
}

/// Round `n` up to the next multiple of 8 (the payload alignment).
fn align8(n: usize) -> usize {
    (n + 7) & !7
}

/// Assembles a snapshot layout-first: [`SnapWriter::new`] takes every
/// section's `(id, element width, element count)`, allocates the whole
/// file once and writes the header and directory; each column is then
/// encoded straight into its 8-byte-aligned payload, in any order, and
/// [`SnapWriter::finish`] stamps the checksum. No section is ever held
/// twice. Declaring sections in a fixed order makes the output a pure
/// function of the section contents — byte-identical across runs, thread
/// counts, and machines.
///
/// Writing an undeclared section, encoding a column at a width other
/// than its declared one, or with more or fewer values than its declared
/// count panics: the layout and the columns disagree, a bug in the
/// caller.
#[derive(Debug)]
pub struct SnapWriter {
    out: Vec<u8>,
    /// Per declared section: id, element width, payload byte range.
    sections: Vec<(u32, usize, std::ops::Range<usize>)>,
}

impl SnapWriter {
    /// Lay out a file holding `layout`'s sections, in that order, with
    /// every payload zeroed. Ids must be distinct.
    pub fn new(layout: &[(u32, usize, usize)]) -> SnapWriter {
        let n = layout.len();
        let mut cursor = align8(HEADER_SIZE + n * DIR_ENTRY_SIZE);
        let mut sections = Vec::with_capacity(n);
        for &(id, width, count) in layout {
            let len = width * count;
            sections.push((id, width, cursor..cursor + len));
            cursor = align8(cursor + len);
        }
        // Zeroed allocation: its pages stay untouched until written, so
        // the advice still applies to every one of them.
        let mut out = vec![0u8; cursor];
        advise_huge_pages(&mut out);
        out[..8].copy_from_slice(&MAGIC);
        out[8..12].copy_from_slice(&VERSION.to_le_bytes());
        out[12..16].copy_from_slice(&(n as u32).to_le_bytes());
        // bytes 16..24 (checksum) stay zero until `finish`.
        out[24..32].copy_from_slice(&(cursor as u64).to_le_bytes());
        for (k, (&(id, _, count), (_, _, at))) in layout.iter().zip(&sections).enumerate() {
            let e = HEADER_SIZE + k * DIR_ENTRY_SIZE;
            out[e..e + 4].copy_from_slice(&id.to_le_bytes());
            // e+4..e+8: reserved, zero.
            out[e + 8..e + 16].copy_from_slice(&(at.start as u64).to_le_bytes());
            out[e + 16..e + 24].copy_from_slice(&(at.len() as u64).to_le_bytes());
            out[e + 24..e + 32].copy_from_slice(&(count as u64).to_le_bytes());
        }
        SnapWriter { out, sections }
    }

    /// The payload of section `id`, to be filled in place.
    pub fn payload_mut(&mut self, id: u32) -> &mut [u8] {
        self.payload_of(id, None)
    }

    /// The payloads of `N` distinct sections at once, in `ids` order, so
    /// that one pass can fill several columns.
    pub fn payloads_mut<const N: usize>(&mut self, ids: [u32; N]) -> [&mut [u8]; N] {
        let ranges = ids.map(|id| {
            let declared = self.sections.iter().find(|s| s.0 == id);
            assert!(declared.is_some(), "section {id} was not declared");
            declared.map(|s| s.2.clone()).unwrap_or_default()
        });
        let mut order: [usize; N] = std::array::from_fn(|k| k);
        // An empty payload may start where the next one does: it goes first.
        order.sort_by_key(|&k| (ranges[k].start, ranges[k].end));
        let mut out: [&mut [u8]; N] = std::array::from_fn(|_| Default::default());
        let mut rest = &mut self.out[..];
        let mut base = 0;
        for k in order {
            let at = &ranges[k];
            assert!(at.start >= base, "section {} requested twice", ids[k]);
            let (_, tail) = std::mem::take(&mut rest).split_at_mut(at.start - base);
            let (payload, tail) = tail.split_at_mut(at.len());
            out[k] = payload;
            rest = tail;
            base = at.end;
        }
        out
    }

    fn payload_of(&mut self, id: u32, width: Option<usize>) -> &mut [u8] {
        let declared = self.sections.iter().find(|s| s.0 == id).cloned();
        assert!(declared.is_some(), "section {id} was not declared");
        let (_, w, at) = declared.unwrap_or_default();
        assert!(
            width.is_none_or(|x| x == w),
            "section {id} was declared {w} bytes wide"
        );
        &mut self.out[at]
    }

    /// Encode `values` into section `id`, one `W`-byte element each. The
    /// values must fill the declared count exactly.
    fn put<const W: usize>(&mut self, id: u32, values: impl IntoIterator<Item = [u8; W]>) {
        let mut values = values.into_iter();
        let payload = self.payload_of(id, Some(W));
        let mut filled = 0;
        for (dst, v) in payload.chunks_exact_mut(W).zip(&mut values) {
            dst.copy_from_slice(&v);
            filled += W;
        }
        assert!(
            filled == payload.len(),
            "section {id}: fewer values than declared"
        );
        assert!(
            values.next().is_none(),
            "section {id}: more values than declared"
        );
    }

    /// Encode a byte column into section `id`.
    pub fn put_u8(&mut self, id: u32, values: impl IntoIterator<Item = u8>) {
        self.put(id, values.into_iter().map(|v| [v]));
    }

    /// Encode a `u32` column into section `id`, little-endian.
    pub fn put_u32(&mut self, id: u32, values: impl IntoIterator<Item = u32>) {
        self.put(id, values.into_iter().map(u32::to_le_bytes));
    }

    /// Encode a `u64` column into section `id`, little-endian.
    pub fn put_u64(&mut self, id: u32, values: impl IntoIterator<Item = u64>) {
        self.put(id, values.into_iter().map(u64::to_le_bytes));
    }

    /// Stamp the checksum and hand over the file bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = checksum(&self.out);
        self.out[16..24].copy_from_slice(&sum.to_le_bytes());
        self.out
    }
}

/// Ask the kernel to back the 2 MiB-aligned interior of `buf`'s
/// allocation with transparent huge pages, so that first touch faults
/// 2 MiB at a time instead of 4 KiB. Call it before any byte of the
/// allocation is written. The advice is a hint: its result is ignored,
/// and it changes no byte.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub fn advise_huge_pages(buf: &mut Vec<u8>) {
    const HUGE_PAGE: usize = 2 << 20;
    const MADV_HUGEPAGE: i32 = 14;
    extern "C" {
        fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: i32) -> i32;
    }
    let start = buf.as_mut_ptr() as usize;
    let (Some(lo), Some(end)) = (
        start.checked_next_multiple_of(HUGE_PAGE),
        start.checked_add(buf.capacity()),
    ) else {
        return;
    };
    let hi = end & !(HUGE_PAGE - 1);
    if lo >= hi {
        return;
    }
    // SAFETY: `lo..hi` lies inside `buf`'s live allocation (`start` to
    // `start + capacity`), and `MADV_HUGEPAGE` changes only how the kernel
    // backs those pages, never their contents.
    unsafe {
        madvise(
            buf.as_mut_ptr().wrapping_add(lo - start).cast(),
            hi - lo,
            MADV_HUGEPAGE,
        );
    }
}

/// Huge-page advice is Linux-only; elsewhere the buffer is left as it is.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub fn advise_huge_pages(_buf: &mut Vec<u8>) {}

/// Parse and validate the header and directory of a snapshot.
///
/// Checks, in order: the header ([`check_header`]), the checksum
/// ([`verify_checksum`]), then each directory entry
/// ([`parse_entries`]). A checksum mismatch is a hard error — a
/// corrupted snapshot must never answer queries.
pub fn parse_dir(bytes: &[u8]) -> Result<Vec<SectionEntry>, SnapError> {
    let version = check_header(bytes)?;
    verify_checksum(bytes, version)?;
    parse_entries(bytes)
}

/// Check the fixed header and return the file's schema version.
///
/// Checks, in order: length, magic, version ([`V1`] or [`VERSION`]),
/// and that `file_len` is the byte count.
pub fn check_header(bytes: &[u8]) -> Result<u32, SnapError> {
    if bytes.len() < HEADER_SIZE {
        return Err(SnapError::TooShort { len: bytes.len() });
    }
    if bytes[..8] != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = read_u32(bytes, 8).unwrap_or(0);
    if version != V1 && version != VERSION {
        return Err(SnapError::BadVersion { found: version });
    }
    let file_len = read_u64(bytes, 24).unwrap_or(0);
    if file_len != bytes.len() as u64 {
        return Err(SnapError::LengthMismatch {
            header: file_len,
            actual: bytes.len(),
        });
    }
    Ok(version)
}

/// Compare the stored checksum with `computed`, the [`Checksum`] of
/// `bytes` for the header's version.
pub fn check_checksum(bytes: &[u8], computed: u64) -> Result<(), SnapError> {
    let stored = read_u64(bytes, 16).unwrap_or(0);
    if stored != computed {
        return Err(SnapError::ChecksumMismatch { stored, computed });
    }
    Ok(())
}

/// Compute the [`Checksum`] of `bytes` for schema `version` and compare
/// it with the stored one ([`check_checksum`]).
pub fn verify_checksum(bytes: &[u8], version: u32) -> Result<(), SnapError> {
    let mut sum = Checksum::new(version).ok_or(SnapError::BadVersion { found: version })?;
    sum.update(bytes);
    check_checksum(bytes, sum.finish())
}

/// Parse the directory of a file whose header passed [`check_header`]:
/// each entry in bounds, 8-byte aligned, its id not seen before.
pub fn parse_entries(bytes: &[u8]) -> Result<Vec<SectionEntry>, SnapError> {
    let n = read_u32(bytes, 12).unwrap_or(0) as usize;
    let dir_end = HEADER_SIZE.saturating_add(n.saturating_mul(DIR_ENTRY_SIZE));
    if dir_end > bytes.len() {
        return Err(SnapError::Malformed {
            what: "directory extends past end of file",
        });
    }
    let mut entries = Vec::with_capacity(n);
    let mut seen: Vec<u32> = Vec::with_capacity(n);
    for k in 0..n {
        let e = HEADER_SIZE + k * DIR_ENTRY_SIZE;
        let id = read_u32(bytes, e).unwrap_or(0);
        let offset = read_u64(bytes, e + 8).unwrap_or(0);
        let len = read_u64(bytes, e + 16).unwrap_or(0);
        let count = read_u64(bytes, e + 24).unwrap_or(0);
        if seen.contains(&id) {
            return Err(SnapError::BadSection {
                id,
                reason: "duplicate section id",
            });
        }
        seen.push(id);
        if !offset.is_multiple_of(8) {
            return Err(SnapError::BadSection {
                id,
                reason: "payload offset not 8-byte aligned",
            });
        }
        let end = offset.saturating_add(len);
        if offset < dir_end as u64 || end > bytes.len() as u64 {
            return Err(SnapError::BadSection {
                id,
                reason: "payload out of bounds",
            });
        }
        entries.push(SectionEntry {
            id,
            offset,
            len,
            count,
        });
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    fn tiny() -> Vec<u8> {
        let mut w = SnapWriter::new(&[
            (section::META, 8, META_FIELDS),
            (section::PFX_BASE, 4, 3),
            (section::CELL_BITS, 1, 5),
        ]);
        w.put_u64(section::META, [7, 1, 2, 3, 4, 5, 6]);
        w.put_u32(section::PFX_BASE, [10, 20, 30]);
        w.put_u8(section::CELL_BITS, [1, 2, 3, 4, 5]);
        w.finish()
    }

    /// The writer as first built: every section copied into its own
    /// `Vec`, then every section copied again into the file buffer.
    fn two_copy_oracle(sections: &[(u32, u64, Vec<u8>)]) -> Vec<u8> {
        let n = sections.len();
        let dir_end = HEADER_SIZE + n * DIR_ENTRY_SIZE;
        let mut offsets = Vec::with_capacity(n);
        let mut cursor = (dir_end + 7) & !7;
        for (_, _, bytes) in sections {
            offsets.push(cursor);
            cursor = (cursor + bytes.len() + 7) & !7;
        }
        let file_len = cursor;
        let mut out = vec![0u8; file_len];
        out[..8].copy_from_slice(&MAGIC);
        out[8..12].copy_from_slice(&VERSION.to_le_bytes());
        out[12..16].copy_from_slice(&(n as u32).to_le_bytes());
        out[24..32].copy_from_slice(&(file_len as u64).to_le_bytes());
        for (k, (id, count, bytes)) in sections.iter().enumerate() {
            let e = HEADER_SIZE + k * DIR_ENTRY_SIZE;
            out[e..e + 4].copy_from_slice(&id.to_le_bytes());
            out[e + 8..e + 16].copy_from_slice(&(offsets[k] as u64).to_le_bytes());
            out[e + 16..e + 24].copy_from_slice(&(bytes.len() as u64).to_le_bytes());
            out[e + 24..e + 32].copy_from_slice(&count.to_le_bytes());
            out[offsets[k]..offsets[k] + bytes.len()].copy_from_slice(bytes);
        }
        let sum = checksum(&out);
        out[16..24].copy_from_slice(&sum.to_le_bytes());
        out
    }

    proptest! {
        #[test]
        fn layout_first_writer_matches_the_two_copy_oracle(
            specs in proptest::collection::vec((0usize..3, 0usize..=100, any::<u64>()), 0..=20)
        ) {
            // Section k has id k + 1, a width of 1, 4 or 8 bytes, and
            // values drawn from a per-section LCG stream.
            let columns: Vec<(u32, usize, Vec<u64>)> = specs
                .iter()
                .enumerate()
                .map(|(k, &(w, count, seed))| {
                    let mut x = seed;
                    let values = (0..count)
                        .map(|_| {
                            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                            x
                        })
                        .collect();
                    (k as u32 + 1, [1, 4, 8][w], values)
                })
                .collect();
            let layout: Vec<(u32, usize, usize)> = columns
                .iter()
                .map(|(id, width, v)| (*id, *width, v.len()))
                .collect();
            let mut w = SnapWriter::new(&layout);
            let mut oracle = Vec::new();
            for (id, width, values) in &columns {
                let it = values.iter().copied();
                let bytes: Vec<u8> = match width {
                    1 => {
                        w.put_u8(*id, it.map(|v| v as u8));
                        values.iter().map(|&v| v as u8).collect()
                    }
                    4 => {
                        w.put_u32(*id, it.map(|v| v as u32));
                        values.iter().flat_map(|&v| (v as u32).to_le_bytes()).collect()
                    }
                    _ => {
                        w.put_u64(*id, it);
                        values.iter().flat_map(|&v| v.to_le_bytes()).collect()
                    }
                };
                oracle.push((*id, values.len() as u64, bytes));
            }
            let bytes = w.finish();
            prop_assert_eq!(&bytes, &two_copy_oracle(&oracle));
            let dir = parse_dir(&bytes).unwrap();
            prop_assert_eq!(dir.len(), layout.len());
            for (e, &(id, width, count)) in dir.iter().zip(&layout) {
                prop_assert_eq!(
                    (e.id, e.len, e.count),
                    (id, (width * count) as u64, count as u64)
                );
            }
        }
    }

    #[test]
    fn payloads_fill_in_any_order_and_in_place() {
        let mut w = SnapWriter::new(&[(section::PFX_BASE, 4, 2), (section::CELL_BITS, 1, 3)]);
        w.payload_mut(section::CELL_BITS)
            .copy_from_slice(&[9, 8, 7]);
        w.put_u32(section::PFX_BASE, [1, 2]);
        let bytes = w.finish();
        let dir = parse_dir(&bytes).unwrap();
        assert_eq!(read_u32(&bytes, dir[0].offset as usize + 4), Some(2));
        assert_eq!(bytes[dir[1].offset as usize + 2], 7);
    }

    #[test]
    fn several_payloads_borrow_at_once() {
        // An empty section shares its offset with the next one.
        let mut w = SnapWriter::new(&[
            (section::PFX_BASE, 4, 2),
            (section::CELL_PREFIX, 4, 0),
            (section::CELL_BITS, 1, 3),
        ]);
        let [bits, empty, base] =
            w.payloads_mut([section::CELL_BITS, section::CELL_PREFIX, section::PFX_BASE]);
        assert_eq!((bits.len(), empty.len(), base.len()), (3, 0, 8));
        bits.copy_from_slice(&[9, 8, 7]);
        base[4..].copy_from_slice(&2u32.to_le_bytes());
        let bytes = w.finish();
        let dir = parse_dir(&bytes).unwrap();
        assert_eq!(read_u32(&bytes, dir[0].offset as usize + 4), Some(2));
        assert_eq!(bytes[dir[2].offset as usize + 2], 7);
    }

    #[test]
    #[should_panic(expected = "requested twice")]
    fn a_payload_borrowed_twice_panics() {
        let mut w = SnapWriter::new(&[(section::PFX_BASE, 4, 2)]);
        w.payloads_mut([section::PFX_BASE, section::PFX_BASE]);
    }

    #[test]
    #[should_panic(expected = "fewer values than declared")]
    fn a_short_column_panics() {
        SnapWriter::new(&[(section::PFX_BASE, 4, 2)]).put_u32(section::PFX_BASE, [1]);
    }

    #[test]
    #[should_panic(expected = "more values than declared")]
    fn a_long_column_panics() {
        SnapWriter::new(&[(section::PFX_BASE, 4, 2)]).put_u32(section::PFX_BASE, [1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "declared 4 bytes wide")]
    fn a_column_of_the_wrong_width_panics() {
        SnapWriter::new(&[(section::PFX_BASE, 4, 2)]).put_u64(section::PFX_BASE, [1, 2]);
    }

    #[test]
    fn round_trip_header_and_directory() {
        let bytes = tiny();
        assert_eq!(bytes.len() % 8, 0);
        let dir = parse_dir(&bytes).unwrap();
        assert_eq!(dir.len(), 3);
        assert_eq!(dir[0].id, section::META);
        assert_eq!(dir[0].count, META_FIELDS as u64);
        assert_eq!(dir[0].len, (META_FIELDS * 8) as u64);
        assert_eq!(dir[1].count, 3);
        assert_eq!(dir[2].count, 5);
        // Payloads decode back.
        assert_eq!(read_u64(&bytes, dir[0].offset as usize), Some(7));
        assert_eq!(read_u32(&bytes, dir[1].offset as usize + 4), Some(20));
        assert_eq!(bytes[dir[2].offset as usize + 4], 5);
        // Every payload is 8-byte aligned.
        for e in &dir {
            assert_eq!(e.offset % 8, 0);
        }
    }

    #[test]
    fn writer_is_deterministic() {
        assert_eq!(tiny(), tiny());
    }

    #[test]
    fn any_single_byte_corruption_is_rejected() {
        let good = tiny();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x5A;
            assert!(
                parse_dir(&bad).is_err(),
                "corruption at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let good = tiny();
        for cut in [0, 8, HEADER_SIZE - 1, HEADER_SIZE, good.len() - 1] {
            assert!(parse_dir(&good[..cut]).is_err(), "truncation to {cut}");
        }
    }

    #[test]
    fn foreign_version_is_rejected_even_with_valid_checksum() {
        let mut bytes = tiny();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let sum = checksum(&bytes);
        bytes[16..24].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(parse_dir(&bytes), Err(SnapError::BadVersion { found: 99 }));
    }

    #[test]
    fn xxh64_matches_the_reference_answers() {
        // Shorter than 16 bytes, so the zeroed field does not apply.
        assert_eq!(checksum(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(checksum(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(checksum(b"abc"), 0x44BC_2CF5_AD77_0999);
    }

    #[test]
    fn xxh64_stripes_match_the_zstd_frame_checksum() {
        // A zstd frame stores the low 32 bits of the content's XXH64
        // (seed 0): `printf %s "$s" | zstd --check | tail -c 4`. 47 bytes
        // are one stripe, then an 8-, a 4- and three 1-byte tail steps;
        // 100 bytes are three stripes and a 4-byte step.
        let text: Vec<u8> = (0..100u8).map(|i| b'a' + i % 26).collect();
        assert_eq!(xxh64(&text[..32], &text[32..47]) as u32, 0x8390_46cb);
        assert_eq!(xxh64(&text[..32], &text[32..]) as u32, 0x2bb5_3c71);
    }

    #[test]
    fn fnv1a_v1_checksum_is_unchanged() {
        assert_eq!(checksum_v1(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum_v1(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    proptest! {
        /// Lengths 0–100 cross the 32-byte stripe boundary. The checksum
        /// field never counts; every other byte always does.
        #[test]
        fn checksums_cover_every_byte_but_their_own_field(
            bytes in proptest::collection::vec(any::<u8>(), 0..=100),
            at in any::<u32>(),
            flip in 1u8..=255,
        ) {
            prop_assume!(!bytes.is_empty());
            let i = at as usize % bytes.len();
            let mut moved = bytes.clone();
            moved[i] ^= flip;
            for sum in [checksum, checksum_v1] {
                if (16..24).contains(&i) {
                    prop_assert_eq!(sum(&moved), sum(&bytes), "byte {} counted", i);
                } else {
                    prop_assert!(sum(&moved) != sum(&bytes), "byte {} ignored", i);
                }
            }
        }
    }

    /// The checksums as first written: the file with its checksum field
    /// zeroed, hashed in one piece, FNV-1a byte by byte for v1.
    fn patched_oracle(version: u32, bytes: &[u8]) -> u64 {
        let mut patched = bytes.to_vec();
        let field = SUM_FIELD.start.min(patched.len())..SUM_FIELD.end.min(patched.len());
        patched[field].fill(0);
        if version == V1 {
            patched.iter().fold(FNV_OFFSET, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
            })
        } else {
            xxh64(&patched, &[])
        }
    }

    proptest! {
        /// Lengths 0–300 span nine stripes. The bytes are fed in two
        /// chunks cut at every index (inside the first stripe, inside
        /// the checksum field, after both), in chunks of every width from
        /// 1 to 40, and in three chunks cut at two drawn indices; each
        /// way, for both versions, the result is the one-shot checksum.
        #[test]
        fn chunked_checksums_equal_the_one_shot_checksums(
            bytes in proptest::collection::vec(any::<u8>(), 0..=300),
            cuts in (any::<u16>(), any::<u16>()),
        ) {
            let n = bytes.len();
            for (version, one_shot) in [(V1, checksum_v1 as fn(&[u8]) -> u64), (VERSION, checksum)] {
                let whole = one_shot(&bytes);
                prop_assert_eq!(whole, patched_oracle(version, &bytes));
                let fed = |chunks: &mut dyn Iterator<Item = &[u8]>| {
                    let mut sum = Checksum::new(version).unwrap();
                    chunks.for_each(|c| sum.update(c));
                    sum.finish()
                };
                for cut in 0..=n {
                    let (a, b) = bytes.split_at(cut);
                    prop_assert_eq!(fed(&mut [a, b].into_iter()), whole, "v{} cut at {}", version, cut);
                }
                for width in 1..=40 {
                    prop_assert_eq!(fed(&mut bytes.chunks(width)), whole, "v{} width {}", version, width);
                }
                let (mut a, mut b) = (cuts.0 as usize % (n + 1), cuts.1 as usize % (n + 1));
                if a > b {
                    std::mem::swap(&mut a, &mut b);
                }
                let three = [&bytes[..a], &bytes[a..b], &bytes[b..]];
                prop_assert_eq!(fed(&mut three.into_iter()), whole, "v{} cuts {} {}", version, a, b);
            }
        }
    }

    #[test]
    fn only_the_two_known_versions_have_a_checksum() {
        assert!(Checksum::new(V1).is_some());
        assert!(Checksum::new(VERSION).is_some());
        for version in [0, 3, u32::MAX] {
            assert!(Checksum::new(version).is_none());
        }
    }

    #[test]
    fn bad_version_names_every_version_the_reader_speaks() {
        let msg = SnapError::BadVersion { found: 3 }.to_string();
        assert_eq!(
            msg,
            "unsupported snapshot version 3 (reader speaks 1 and 2)"
        );
    }

    #[test]
    fn claim_names_and_rel_names() {
        assert_eq!(claim::names(0), Vec::<&str>::new());
        assert_eq!(
            claim::names(claim::ECS | claim::CATALOG_PRIOR),
            vec!["ecs", "catalog_prior"]
        );
        assert_eq!(rel::name(rel::PEER), Some("peer"));
        assert_eq!(rel::name(9), None);
    }

    /// Byte `i` of a pattern that shifts from one 4 KiB page to the
    /// next and from one 1 MiB block to the next, so a misplaced page
    /// shows.
    fn pattern(i: usize) -> u8 {
        (i ^ (i >> 12) ^ (i >> 20)).wrapping_mul(31) as u8
    }

    #[test]
    fn a_multi_mib_section_round_trips() {
        const LEN: usize = (5 << 20) + 3;
        let mut w = SnapWriter::new(&[
            (section::META, 8, META_FIELDS),
            (section::CELL_BITS, 1, LEN),
        ]);
        w.put_u64(section::META, [1, 2, 3, 4, 5, 6, 7]);
        w.put_u8(section::CELL_BITS, (0..LEN).map(pattern));
        let bytes = w.finish();
        let dir = parse_dir(&bytes).unwrap();
        assert_eq!((dir[1].id, dir[1].len), (section::CELL_BITS, LEN as u64));
        let at = dir[1].offset as usize;
        assert!(bytes[at..at + LEN]
            .iter()
            .enumerate()
            .all(|(i, &b)| b == pattern(i)));
        assert_eq!(read_u64(&bytes, dir[0].offset as usize + 48), Some(7));
    }

    #[test]
    fn empty_file_and_bad_magic() {
        assert!(matches!(parse_dir(&[]), Err(SnapError::TooShort { .. })));
        let mut bytes = tiny();
        bytes[0] = b'X';
        assert!(parse_dir(&bytes).is_err());
    }
}
