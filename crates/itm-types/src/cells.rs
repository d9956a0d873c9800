//! Columnar map cells: the paper's `(service, prefix) → front-end` grid
//! stored as sorted segments instead of a pointer-heavy tree.
//!
//! The user-mapping phase dominated the build's tracked peak (97% of
//! ~419 MB on the default size) because every measured cell lived in a
//! `BTreeMap<(ServiceId, PrefixId), Ipv4Addr>` node. A [`CellMap`] packs
//! the same information into 12 bytes per cell, sorted by `(service,
//! prefix)`, with binary-search point lookups and iterator access to a
//! service's cells.
//!
//! The map is *segmented* — a sequence of individually sorted `Vec<Cell>`
//! segments whose concatenation is the full ascending cell sequence — so
//! that merging shard outputs is a zero-copy gather: campaign shards
//! sweep contiguous prefix slices and emit one chunk per (shard,
//! service), and for a fixed service the shard order *is* the prefix
//! order. [`CellMap::merge_shards`] therefore just moves segment handles
//! into service-major position; it never compares, copies, or allocates
//! cell storage, and the merge's transient memory is the size of one
//! `Vec` header table rather than a second copy of the grid. No sort on
//! the merge path, which is exactly what lint rule M003 enforces.

use crate::ids::{PrefixId, ServiceId};
use crate::net::Ipv4Addr;
use serde::{Deserialize, Serialize};

/// One measured cell of the traffic map: `service` reaches clients in
/// `prefix` from the front-end at `addr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cell {
    /// The popular service this cell belongs to.
    pub service: ServiceId,
    /// The client /24 being served.
    pub prefix: PrefixId,
    /// The front-end address answering for this `(service, prefix)` pair.
    pub addr: Ipv4Addr,
}

impl Cell {
    /// The sort key: cells order by `(service, prefix)`.
    #[inline]
    fn key(&self) -> (ServiceId, PrefixId) {
        (self.service, self.prefix)
    }
}

/// A segmented, `(service, prefix)`-sorted collection of map [`Cell`]s.
///
/// Invariants: segments are non-empty, each holds cells of a single
/// service, and the concatenated cell sequence is strictly ascending by
/// `(service, prefix)` — one front-end per cell. `firsts[i]` caches
/// `segs[i][0]`'s key for the segment-level binary search.
///
/// Note: `PartialEq` compares the segmentation, not just the logical
/// cell sequence. Every constructor is deterministic, so equal inputs
/// produce equal representations; compare [`CellMap::iter`] streams to
/// ignore segmentation.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellMap {
    segs: Vec<Vec<Cell>>,
    firsts: Vec<(ServiceId, PrefixId)>,
    total: usize,
}

impl CellMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// The key of the last cell, if any.
    fn last_key(&self) -> Option<(ServiceId, PrefixId)> {
        self.segs.last().and_then(|s| s.last()).map(Cell::key)
    }

    /// Append a cell; `cell` must sort strictly after the current last cell.
    ///
    /// Shard bodies satisfy this for free: they walk services in ascending
    /// catalogue order and each service's prefix slice in ascending order.
    /// A service change starts a new segment, which keeps segments
    /// single-service and makes shard outputs directly gatherable by
    /// [`CellMap::merge_shards`].
    pub fn push(&mut self, cell: Cell) {
        debug_assert!(
            self.last_key().is_none_or(|l| l < cell.key()),
            "CellMap::push out of order: {:?} after {:?}",
            cell.key(),
            self.last_key()
        );
        match self.segs.last_mut() {
            Some(seg) if seg.last().is_some_and(|l| l.service == cell.service) => {
                seg.push(cell);
            }
            _ => {
                self.firsts.push(cell.key());
                self.segs.push(vec![cell]);
            }
        }
        self.total += 1;
    }

    /// Append a whole segment: cells of one service, strictly ascending
    /// by prefix, sorting after the current last cell. The segment is
    /// kept as it is, capacity included, so a caller that sized it
    /// exactly adds no slack to the map; an empty one adds nothing.
    pub fn push_segment(&mut self, seg: Vec<Cell>) {
        let Some(first) = seg.first() else { return };
        debug_assert!(
            self.last_key().is_none_or(|l| l < first.key())
                && seg
                    .windows(2)
                    .all(|w| w[0].service == w[1].service && w[0].key() < w[1].key()),
            "CellMap::push_segment out of order at {:?}",
            first.key()
        );
        self.firsts.push(first.key());
        self.total += seg.len();
        self.segs.push(seg);
    }

    /// The segments, in order: their concatenation is [`CellMap::iter`],
    /// and each holds cells of one service.
    pub fn segments(&self) -> impl Iterator<Item = &[Cell]> {
        self.segs.iter().map(Vec::as_slice)
    }

    /// Zero-copy merge of per-shard maps into one.
    ///
    /// `parts` must come from shards sweeping contiguous, ascending
    /// prefix slices, in shard order — then for every service the parts'
    /// segments concatenate in prefix order, and the gather below (walk
    /// services ascending, take each part's matching segments in part
    /// order) reproduces the globally sorted sequence by *moving* segment
    /// handles. No cell is compared, copied, or reallocated, so merging
    /// adds nothing to the tracked peak beyond the handle table.
    pub fn merge_shards(parts: Vec<CellMap>) -> CellMap {
        let mut out = CellMap::new();
        let mut streams: Vec<_> = parts
            .into_iter()
            .map(|p| p.firsts.into_iter().zip(p.segs).peekable())
            .collect();
        loop {
            let mut next_svc: Option<ServiceId> = None;
            for st in &mut streams {
                if let Some(&((svc, _), _)) = st.peek() {
                    next_svc = Some(next_svc.map_or(svc, |m| m.min(svc)));
                }
            }
            let Some(svc) = next_svc else { break };
            for st in &mut streams {
                while matches!(st.peek(), Some(&((s, _), _)) if s == svc) {
                    let Some((first, seg)) = st.next() else { break };
                    debug_assert!(
                        out.last_key().is_none_or(|l| l < first),
                        "merge_shards parts out of shard order at {first:?}"
                    );
                    out.total += seg.len();
                    out.firsts.push(first);
                    out.segs.push(seg);
                }
            }
        }
        out
    }

    /// Merge arbitrary sorted runs into one map (k-way, by key).
    ///
    /// Runs must each be `(service, prefix)`-ascending (debug-asserted);
    /// keys duplicated across runs keep the earliest run's cell. Unlike
    /// [`CellMap::merge_shards`] this copies cells, so prefer the gather
    /// when the inputs are shard outputs.
    pub fn from_sorted_runs(runs: Vec<Vec<Cell>>) -> Self {
        let merged = merge_sorted_runs_by(runs, |a, b| a.key() < b.key());
        let mut out = CellMap::new();
        for cell in merged {
            if out.last_key() == Some(cell.key()) {
                continue;
            }
            out.push(cell);
        }
        out
    }

    /// Position of the first cell with key `>= key`, as (segment, index);
    /// `(segs.len(), 0)` when every cell is smaller.
    fn lower_bound(&self, key: (ServiceId, PrefixId)) -> (usize, usize) {
        let si = self.firsts.partition_point(|f| *f < key);
        if si == 0 {
            return (0, 0);
        }
        // The target may still fall inside the previous segment.
        let s = si - 1;
        let i = self.segs[s].partition_point(|c| c.key() < key);
        if i == self.segs[s].len() {
            (si, 0)
        } else {
            (s, i)
        }
    }

    /// The front-end serving `prefix` for `service`, if measured.
    pub fn get(&self, service: ServiceId, prefix: PrefixId) -> Option<Ipv4Addr> {
        let (s, i) = self.lower_bound((service, prefix));
        let c = self.segs.get(s)?.get(i)?;
        (c.key() == (service, prefix)).then_some(c.addr)
    }

    /// Number of measured cells.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the map has no cells.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Iterate all cells in `(service, prefix)` order.
    pub fn iter(&self) -> impl Iterator<Item = &Cell> {
        self.segs.iter().flatten()
    }

    /// Iterate `service`'s cells, ascending by prefix id.
    pub fn cells_of(&self, service: ServiceId) -> impl Iterator<Item = &Cell> {
        let (s, i) = self.lower_bound((service, PrefixId(0)));
        self.segs
            .get(s..)
            .unwrap_or(&[])
            .iter()
            .enumerate()
            .flat_map(move |(k, seg)| seg.get(if k == 0 { i } else { 0 }..).unwrap_or(&[]))
            .take_while(move |c| c.service == service)
    }

    /// Splice a freshly re-measured subset into a retained map.
    ///
    /// `self` is the previous epoch's full map, `fresh` a map measured
    /// over only the services in `dirty`. The result carries `fresh`'s
    /// segments for dirty services and `self`'s for everything else — a
    /// segment-handle move in the [`CellMap::merge_shards`] style, so the
    /// incremental epoch path never copies the retained grid. A dirty
    /// service absent from `fresh` simply vanishes (its cells were
    /// invalidated and the re-measurement produced none).
    ///
    /// The spliced map's *segmentation* generally differs from a
    /// from-scratch build's (retained segments keep their old shard
    /// boundaries), but the logical cell sequence — what
    /// [`CellMap::iter`] yields and what snapshots serialize — is
    /// identical, which is the equivalence the epoch engine asserts.
    pub fn splice_services(
        self,
        fresh: CellMap,
        dirty: &std::collections::BTreeSet<ServiceId>,
    ) -> CellMap {
        let mut out = CellMap::new();
        let mut old = self.firsts.into_iter().zip(self.segs).peekable();
        let mut new = fresh.firsts.into_iter().zip(fresh.segs).peekable();
        loop {
            // Retained segments of dirty services are replaced wholesale.
            while matches!(old.peek(), Some(&((s, _), _)) if dirty.contains(&s)) {
                old.next();
            }
            let next_old = old.peek().map(|&((s, _), _)| s);
            let next_new = new.peek().map(|&((s, _), _)| s);
            let svc = match (next_old, next_new) {
                (None, None) => break,
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (Some(a), Some(b)) => a.min(b),
            };
            let src = if dirty.contains(&svc) {
                &mut new
            } else {
                &mut old
            };
            while matches!(src.peek(), Some(&((s, _), _)) if s == svc) {
                let Some((first, seg)) = src.next() else {
                    break;
                };
                debug_assert!(
                    out.last_key().is_none_or(|l| l < first),
                    "splice_services inputs out of order at {first:?}"
                );
                out.total += seg.len();
                out.firsts.push(first);
                out.segs.push(seg);
            }
            // A fresh segment for a clean service would violate the
            // contract; drop it rather than corrupt the ordering.
            while matches!(new.peek(), Some(&((s, _), _)) if s == svc) {
                debug_assert!(
                    false,
                    "splice_services: fresh cells for clean service {svc:?}"
                );
                new.next();
            }
        }
        out
    }

    /// Consume the map, flattening into the raw sorted cell vector.
    pub fn into_cells(self) -> Vec<Cell> {
        let mut out = Vec::with_capacity(self.total);
        for seg in self.segs {
            out.extend(seg);
        }
        out
    }
}

/// K-way merge of individually sorted runs under a strict `less` ordering.
///
/// Stable across runs: on equal keys the earlier run's element comes first,
/// so the output is a deterministic function of the run order. Runs are
/// consumed front-to-back with a linear scan over the run heads — the
/// workspace merges at most [`crate::rng::DEFAULT_SHARDS`]-ish runs, where
/// a heap would cost more than it saves.
pub fn merge_sorted_runs_by<T>(runs: Vec<Vec<T>>, mut less: impl FnMut(&T, &T) -> bool) -> Vec<T> {
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut heads: Vec<(T, std::vec::IntoIter<T>)> = runs
        .into_iter()
        .filter_map(|r| {
            let mut it = r.into_iter();
            it.next().map(|h| (h, it))
        })
        .collect();
    let mut out = Vec::with_capacity(total);
    while !heads.is_empty() {
        // Pick the run whose head is smallest; the earliest run wins ties.
        let mut best = 0;
        for i in 1..heads.len() {
            if less(&heads[i].0, &heads[best].0) {
                best = i;
            }
        }
        match heads[best].1.next() {
            Some(next) => out.push(std::mem::replace(&mut heads[best].0, next)),
            None => {
                let (last, _) = heads.remove(best);
                out.push(last);
            }
        }
    }
    out
}

/// K-way merge of sorted runs of an [`Ord`] type.
///
/// The merge-path replacement for `extend`-then-`sort`: shards sort their
/// own output (cheap, parallel, and off the merge path), and the merge is a
/// linear pass.
pub fn merge_sorted_runs<T: Ord>(runs: Vec<Vec<T>>) -> Vec<T> {
    merge_sorted_runs_by(runs, |a, b| a < b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(s: u32, p: u32, a: u32) -> Cell {
        Cell {
            service: ServiceId(s),
            prefix: PrefixId(p),
            addr: Ipv4Addr(a),
        }
    }

    #[test]
    fn push_get_and_len() {
        let mut m = CellMap::new();
        assert!(m.is_empty());
        m.push(cell(0, 1, 10));
        m.push(cell(0, 5, 11));
        m.push(cell(2, 0, 12));
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(ServiceId(0), PrefixId(5)), Some(Ipv4Addr(11)));
        assert_eq!(m.get(ServiceId(0), PrefixId(2)), None);
        assert_eq!(m.get(ServiceId(1), PrefixId(0)), None);
        assert_eq!(m.get(ServiceId(2), PrefixId(0)), Some(Ipv4Addr(12)));
        assert_eq!(m.get(ServiceId(9), PrefixId(9)), None);
    }

    #[test]
    fn push_segment_matches_push() {
        let mut pushed = CellMap::new();
        let mut segments = CellMap::new();
        let segs = [
            vec![cell(0, 1, 10), cell(0, 5, 11)],
            vec![],
            vec![cell(2, 0, 12)],
        ];
        for seg in &segs {
            for &c in seg {
                pushed.push(c);
            }
            segments.push_segment(seg.clone());
        }
        assert_eq!(segments, pushed);
        let got: Vec<&[Cell]> = segments.segments().collect();
        assert_eq!(got, vec![&segs[0][..], &segs[2][..]]);
    }

    #[test]
    fn from_sorted_runs_matches_btreemap_semantics() {
        use std::collections::BTreeMap;
        // Interleaved runs, NOT prefix-sliced — the generic merge path.
        let runs = vec![
            vec![cell(0, 0, 1), cell(0, 1, 2), cell(1, 0, 3)],
            vec![cell(0, 4, 4), cell(1, 5, 5)],
            vec![cell(0, 2, 6), cell(2, 9, 7)],
        ];
        let m = CellMap::from_sorted_runs(runs.clone());
        let mut tree: BTreeMap<(ServiceId, PrefixId), Ipv4Addr> = BTreeMap::new();
        for r in &runs {
            for c in r {
                tree.entry((c.service, c.prefix)).or_insert(c.addr);
            }
        }
        let flat: Vec<Cell> = tree
            .iter()
            .map(|(&(service, prefix), &addr)| Cell {
                service,
                prefix,
                addr,
            })
            .collect();
        assert_eq!(m.iter().copied().collect::<Vec<_>>(), flat);
        assert_eq!(m.into_cells(), flat);
    }

    #[test]
    fn merge_shards_gathers_prefix_sliced_parts() {
        // Three shards over prefix slices [0..10), [10..20), [20..30),
        // each seeing services 0 and 2 — the campaign shape.
        let mut parts = Vec::new();
        for (k, base) in [0u32, 10, 20].iter().enumerate() {
            let mut p = CellMap::new();
            p.push(cell(0, base + 1, 100 + k as u32));
            p.push(cell(0, base + 3, 200 + k as u32));
            p.push(cell(2, base + 2, 300 + k as u32));
            parts.push(p);
        }
        let m = CellMap::merge_shards(parts);
        assert_eq!(m.len(), 9);
        let keys: Vec<(u32, u32)> = m
            .iter()
            .map(|c| (c.service.raw(), c.prefix.raw()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "gather must be globally sorted");
        assert_eq!(m.get(ServiceId(2), PrefixId(12)), Some(Ipv4Addr(301)));
        assert_eq!(m.get(ServiceId(1), PrefixId(12)), None);
    }

    #[test]
    fn merge_shards_handles_empty_and_skewed_parts() {
        let mut a = CellMap::new();
        a.push(cell(1, 0, 7));
        let parts = vec![CellMap::new(), a, CellMap::new()];
        let m = CellMap::merge_shards(parts);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(ServiceId(1), PrefixId(0)), Some(Ipv4Addr(7)));
    }

    #[test]
    fn duplicate_keys_keep_the_earliest_run() {
        let runs = vec![vec![cell(0, 0, 1)], vec![cell(0, 0, 2), cell(0, 1, 3)]];
        let m = CellMap::from_sorted_runs(runs);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(ServiceId(0), PrefixId(0)), Some(Ipv4Addr(1)));
    }

    #[test]
    fn cells_of_spans_segments() {
        // Service 1's cells land in two segments (two shards).
        let mut p0 = CellMap::new();
        p0.push(cell(0, 0, 1));
        p0.push(cell(1, 0, 2));
        let mut p1 = CellMap::new();
        p1.push(cell(1, 7, 3));
        p1.push(cell(3, 12, 4));
        let m = CellMap::merge_shards(vec![p0, p1]);
        let ones: Vec<u32> = m.cells_of(ServiceId(1)).map(|c| c.prefix.raw()).collect();
        assert_eq!(ones, vec![0, 7]);
        assert_eq!(m.cells_of(ServiceId(2)).count(), 0);
        assert_eq!(
            m.cells_of(ServiceId(3)).next().map(|c| c.addr),
            Some(Ipv4Addr(4))
        );
        assert_eq!(m.cells_of(ServiceId(9)).count(), 0);
    }

    #[test]
    fn splice_replaces_dirty_services_and_retains_clean() {
        use std::collections::BTreeSet;
        // Previous-epoch map: services 0, 1, 3 across two shards.
        let mut p0 = CellMap::new();
        p0.push(cell(0, 0, 1));
        p0.push(cell(1, 2, 2));
        let mut p1 = CellMap::new();
        p1.push(cell(1, 11, 3));
        p1.push(cell(3, 10, 4));
        let prev = CellMap::merge_shards(vec![p0, p1]);

        // Fresh subset build: service 1 re-measured (one cell moved).
        let mut fresh = CellMap::new();
        fresh.push(cell(1, 2, 20));
        fresh.push(cell(1, 12, 30));
        let dirty: BTreeSet<ServiceId> = [ServiceId(1)].into();

        let spliced = prev.splice_services(fresh, &dirty);
        assert_eq!(spliced.len(), 4);
        assert_eq!(spliced.get(ServiceId(0), PrefixId(0)), Some(Ipv4Addr(1)));
        assert_eq!(spliced.get(ServiceId(1), PrefixId(2)), Some(Ipv4Addr(20)));
        assert_eq!(spliced.get(ServiceId(1), PrefixId(11)), None);
        assert_eq!(spliced.get(ServiceId(1), PrefixId(12)), Some(Ipv4Addr(30)));
        assert_eq!(spliced.get(ServiceId(3), PrefixId(10)), Some(Ipv4Addr(4)));
        let keys: Vec<_> = spliced.iter().map(Cell::key).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "splice must stay globally sorted");
    }

    #[test]
    fn splice_handles_vanishing_and_new_services() {
        use std::collections::BTreeSet;
        let mut prev = CellMap::new();
        prev.push(cell(0, 0, 1));
        prev.push(cell(2, 0, 2));
        // Service 2 re-measured to nothing; service 4 newly measured.
        let mut fresh = CellMap::new();
        fresh.push(cell(4, 5, 9));
        let dirty: BTreeSet<ServiceId> = [ServiceId(2), ServiceId(4)].into();
        let spliced = prev.splice_services(fresh, &dirty);
        assert_eq!(spliced.len(), 2);
        assert_eq!(spliced.get(ServiceId(2), PrefixId(0)), None);
        assert_eq!(spliced.get(ServiceId(4), PrefixId(5)), Some(Ipv4Addr(9)));
        // Empty dirty set: splice is the identity on the retained map.
        let mut prev2 = CellMap::new();
        prev2.push(cell(0, 0, 1));
        let id = prev2
            .clone()
            .splice_services(CellMap::new(), &BTreeSet::new());
        assert_eq!(id, prev2);
    }

    #[test]
    fn merge_sorted_runs_is_stable_and_complete() {
        let merged = merge_sorted_runs(vec![vec![1, 4, 7], vec![2, 4, 8], vec![], vec![0, 9]]);
        assert_eq!(merged, vec![0, 1, 2, 4, 4, 7, 8, 9]);
    }

    #[test]
    fn merge_of_empty_and_single_runs() {
        assert_eq!(merge_sorted_runs::<u32>(vec![]), Vec::<u32>::new());
        assert_eq!(merge_sorted_runs(vec![vec![3, 5]]), vec![3, 5]);
    }
}
