//! Graph views: the adjacency structure route computation runs over.
//!
//! Route prediction in the paper fails precisely because the *view* is
//! incomplete ("available vantage points cannot uncover most peering links
//! for large content providers", §3.3.1). Separating the view from the
//! algorithm lets the same BGP code run over ground truth, over a
//! collector-visible subset, or over a recommender-augmented topology.

use itm_topology::{AsRel, Link, NeighborKind, Topology};
use itm_types::Asn;

/// A (possibly partial) AS-level graph with relationship labels.
///
/// Stored flat (compressed sparse rows): AS `i`'s neighbors occupy
/// `offsets[i]..offsets[i + 1]` of both `adjacency` and `by_kind`.
#[derive(Debug, Clone)]
pub struct GraphView {
    /// Row starts, `n_ases + 1` of them.
    offsets: Vec<u32>,
    /// (neighbor, our relationship to it) per row, sorted by ASN.
    adjacency: Vec<(Asn, NeighborKind)>,
    /// The same rows split by kind: providers, then peers, then
    /// customers, each in `adjacency` order (ascending ASN).
    by_kind: Vec<Asn>,
    /// Per row, where its peers and its customers start in `by_kind`.
    kind_starts: Vec<[u32; 2]>,
}

impl GraphView {
    /// Number of AS slots (dense ASNs).
    pub fn n_ases(&self) -> usize {
        self.kind_starts.len()
    }

    fn row(&self, asn: Asn) -> std::ops::Range<usize> {
        self.offsets[asn.index()] as usize..self.offsets[asn.index() + 1] as usize
    }

    /// Neighbors of `asn` with perspective-relative relationships.
    pub fn neighbors(&self, asn: Asn) -> &[(Asn, NeighborKind)] {
        &self.adjacency[self.row(asn)]
    }

    /// The providers of `asn`, ascending.
    pub fn providers(&self, asn: Asn) -> &[Asn] {
        &self.by_kind[self.row(asn).start..self.kind_starts[asn.index()][0] as usize]
    }

    /// The peers of `asn`, ascending.
    pub fn peers(&self, asn: Asn) -> &[Asn] {
        let [peers, customers] = self.kind_starts[asn.index()];
        &self.by_kind[peers as usize..customers as usize]
    }

    /// The customers of `asn`, ascending.
    pub fn customers(&self, asn: Asn) -> &[Asn] {
        &self.by_kind[self.kind_starts[asn.index()][1] as usize..self.row(asn).end]
    }

    /// The complete ground-truth view of a topology.
    ///
    /// Links the epoch engine has flapped down are excluded: the ground
    /// truth of a flapped epoch *is* the smaller graph. On a freshly
    /// generated topology the down-set is empty and this is the identity
    /// adjacency copy it always was.
    pub fn full(topo: &Topology) -> GraphView {
        // Flag the downed links by id: one lookup per downed link rather
        // than a set probe per adjacency entry.
        let mut down = vec![false; topo.links.len()];
        for &(a, b) in topo.links_down() {
            let nbs = topo.neighbors(a);
            if let Ok(at) = nbs.binary_search_by_key(&b, |nb| nb.asn) {
                down[nbs[at].link.index()] = true;
            }
        }
        let down = &down;
        let rows = topo.ases.iter().map(|a| {
            topo.neighbors(a.asn)
                .iter()
                .filter(|n| !down[n.link.index()])
                .map(|n| (n.asn, n.kind))
        });
        Self::from_rows(topo.n_ases(), rows)
    }

    /// A view over an explicit link list (e.g. only publicly visible
    /// links). `n_ases` must cover every ASN referenced.
    pub fn from_links<'a>(n_ases: usize, links: impl IntoIterator<Item = &'a Link>) -> GraphView {
        Self::from_directed(n_ases, links.into_iter().flat_map(directed).collect())
    }

    /// A copy of this view with extra links added (used to test
    /// recommender-completed topologies, E10).
    pub fn with_extra_links<'a>(&self, links: impl IntoIterator<Item = &'a Link>) -> GraphView {
        let own = (0..self.n_ases()).flat_map(|i| {
            let u = Asn(i as u32);
            self.neighbors(u).iter().map(move |&(v, kind)| (u, v, kind))
        });
        Self::from_directed(
            self.n_ases(),
            own.chain(links.into_iter().flat_map(directed)).collect(),
        )
    }

    /// The view of directed entries `(from, to, kind)`: each row keeps its
    /// entries in list order, stably sorted by neighbor ASN, with repeated
    /// entries collapsed.
    ///
    /// A counting pass buckets the entries by row, in list order, and
    /// each row is then stably sorted on its own: the same rows as one
    /// stable sort of the whole list by `(from, to)`, without comparing
    /// entries of different rows. Every `from` must be below `n_ases`.
    fn from_directed(n_ases: usize, entries: Vec<(Asn, Asn, NeighborKind)>) -> GraphView {
        let mut starts = vec![0u32; n_ases + 1];
        for &(u, _, _) in &entries {
            starts[u.index() + 1] += 1;
        }
        for i in 0..n_ases {
            starts[i + 1] += starts[i];
        }
        let mut fill = starts.clone();
        let mut rows = vec![(Asn(0), NeighborKind::Peer); entries.len()];
        for (u, v, kind) in entries {
            let at = &mut fill[u.index()];
            rows[*at as usize] = (v, kind);
            *at += 1;
        }
        for w in starts.windows(2) {
            rows[w[0] as usize..w[1] as usize].sort_by_key(|&(v, _)| v);
        }
        let rows = starts.windows(2).map(|w| {
            let row = &rows[w[0] as usize..w[1] as usize];
            row.iter()
                .enumerate()
                .filter(move |&(j, e)| j == 0 || row[j - 1] != *e)
                .map(|(_, &e)| e)
        });
        Self::from_rows(n_ases, rows)
    }

    /// Lay out `n_ases` rows, each already sorted by neighbor ASN.
    fn from_rows<R>(n_ases: usize, rows: impl Iterator<Item = R>) -> GraphView
    where
        R: Iterator<Item = (Asn, NeighborKind)>,
    {
        let mut offsets = Vec::with_capacity(n_ases + 1);
        let mut adjacency = Vec::new();
        offsets.push(0);
        for row in rows {
            adjacency.extend(row);
            offsets.push(adjacency.len() as u32);
        }
        let mut by_kind = Vec::with_capacity(adjacency.len());
        let mut kind_starts = Vec::with_capacity(n_ases);
        for w in offsets.windows(2) {
            let row = &adjacency[w[0] as usize..w[1] as usize];
            let of_kind = |kind| {
                row.iter()
                    .filter(move |&&(_, x)| x == kind)
                    .map(|&(v, _)| v)
            };
            by_kind.extend(of_kind(NeighborKind::Provider));
            let peers = by_kind.len() as u32;
            by_kind.extend(of_kind(NeighborKind::Peer));
            let customers = by_kind.len() as u32;
            by_kind.extend(of_kind(NeighborKind::Customer));
            kind_starts.push([peers, customers]);
        }
        GraphView {
            offsets,
            adjacency,
            by_kind,
            kind_starts,
        }
    }

    /// Total number of directed adjacency entries (2× the link count).
    pub fn n_edges_directed(&self) -> usize {
        self.adjacency.len()
    }

    /// Whether an (undirected) adjacency exists between `x` and `y`.
    pub fn has_edge(&self, x: Asn, y: Asn) -> bool {
        self.neighbors(x)
            .binary_search_by_key(&y, |(a, _)| *a)
            .is_ok()
    }
}

/// Both directed entries `(from, to, kind)` of a link.
fn directed(l: &Link) -> [(Asn, Asn, NeighborKind); 2] {
    match l.rel {
        AsRel::CustomerToProvider => [
            (l.a, l.b, NeighborKind::Provider),
            (l.b, l.a, NeighborKind::Customer),
        ],
        AsRel::PeerToPeer => [
            (l.a, l.b, NeighborKind::Peer),
            (l.b, l.a, NeighborKind::Peer),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itm_topology::{generate, LinkClass, TopologyConfig};
    use proptest::prelude::*;

    type Entry = (Asn, Asn, NeighborKind);

    /// The rows `from_directed` built with one global sort: every entry
    /// stably sorted by `(from, to)`, consecutive repeats collapsed.
    fn global_sort_rows(n: usize, mut entries: Vec<Entry>) -> Vec<Vec<(Asn, NeighborKind)>> {
        entries.sort_by_key(|&(u, v, _)| (u, v));
        entries.dedup();
        (0..n)
            .map(|i| {
                let row = entries.iter().filter(|&&(u, _, _)| u.index() == i);
                row.map(|&(_, v, kind)| (v, kind)).collect()
            })
            .collect()
    }

    fn assert_rows(view: &GraphView, want: &[Vec<(Asn, NeighborKind)>]) -> Result<(), String> {
        prop_assert_eq!(view.n_ases(), want.len());
        prop_assert_eq!(
            view.n_edges_directed(),
            want.iter().map(Vec::len).sum::<usize>()
        );
        for (i, row) in want.iter().enumerate() {
            let u = Asn(i as u32);
            prop_assert_eq!(view.neighbors(u), &row[..], "row {}", i);
            let of = |kind| -> Vec<Asn> {
                row.iter()
                    .filter(|&&(_, k)| k == kind)
                    .map(|&(v, _)| v)
                    .collect()
            };
            prop_assert_eq!(view.providers(u), &of(NeighborKind::Provider)[..]);
            prop_assert_eq!(view.peers(u), &of(NeighborKind::Peer)[..]);
            prop_assert_eq!(view.customers(u), &of(NeighborKind::Customer)[..]);
        }
        Ok(())
    }

    const KINDS: [NeighborKind; 3] = [
        NeighborKind::Provider,
        NeighborKind::Peer,
        NeighborKind::Customer,
    ];

    /// Directed entries over `n` rows with few distinct neighbors, so
    /// rows repeat entries, hold one neighbor under several kinds, or
    /// stay empty.
    fn arb_entries() -> impl Strategy<Value = (usize, Vec<Entry>)> {
        (1usize..12).prop_flat_map(|n| {
            let entry = (0..n as u32, 0u32..5, 0usize..3);
            proptest::collection::vec(entry, 0..40).prop_map(move |raw| {
                let entries = raw
                    .into_iter()
                    .map(|(u, v, k)| (Asn(u), Asn(v), KINDS[k]))
                    .collect();
                (n.max(5), entries)
            })
        })
    }

    /// Links over `n` ASes, either relationship, repeats allowed.
    fn links_of(n: usize, raw: &[(u32, u32, bool)]) -> Vec<Link> {
        raw.iter()
            .map(|&(a, b, peer)| {
                let (a, b) = (Asn(a % n as u32), Asn(b % n as u32));
                if peer {
                    Link::peering(a, b, LinkClass::Transit)
                } else {
                    Link::transit(a, b)
                }
            })
            .collect()
    }

    proptest! {
        #[test]
        fn from_directed_equals_the_global_sort((n, entries) in arb_entries()) {
            let want = global_sort_rows(n, entries.clone());
            assert_rows(&GraphView::from_directed(n, entries), &want)?;
        }

        #[test]
        fn with_extra_links_equals_the_global_sort(
            n in 2usize..10,
            base in proptest::collection::vec((0u32..10, 0u32..10, any::<bool>()), 0..20),
            reuse in proptest::collection::vec(any::<usize>(), 0..6),
            fresh in proptest::collection::vec((0u32..10, 0u32..10, any::<bool>()), 0..6),
        ) {
            let base = links_of(n, &base);
            let view = GraphView::from_links(n, &base);
            assert_rows(&view, &global_sort_rows(n, base.iter().flat_map(directed).collect()))?;
            // Extra links that repeat base links, then arbitrary ones.
            let mut extra: Vec<Link> = reuse
                .iter()
                .filter(|_| !base.is_empty())
                .map(|&k| base[k % base.len()])
                .collect();
            extra.extend(links_of(n, &fresh));
            let own = (0..n).flat_map(|i| {
                let u = Asn(i as u32);
                view.neighbors(u).iter().map(move |&(v, kind)| (u, v, kind))
            });
            let entries: Vec<Entry> = own.chain(extra.iter().flat_map(directed)).collect();
            assert_rows(&view.with_extra_links(&extra), &global_sort_rows(n, entries))?;
        }
    }

    #[test]
    fn full_view_matches_topology() {
        let t = generate(&TopologyConfig::small(), 1).unwrap();
        let v = GraphView::full(&t);
        assert_eq!(v.n_ases(), t.n_ases());
        assert_eq!(v.n_edges_directed(), 2 * t.links.len());
        for l in &t.links {
            assert!(v.has_edge(l.a, l.b));
            assert!(v.has_edge(l.b, l.a));
        }
    }

    #[test]
    fn from_links_builds_symmetric_adjacency() {
        let links = vec![
            Link::transit(Asn(1), Asn(0)),
            Link::peering(Asn(1), Asn(2), LinkClass::Transit),
        ];
        let v = GraphView::from_links(3, &links);
        assert_eq!(v.neighbors(Asn(0)), &[(Asn(1), NeighborKind::Customer)]);
        assert_eq!(
            v.neighbors(Asn(1)),
            &[
                (Asn(0), NeighborKind::Provider),
                (Asn(2), NeighborKind::Peer)
            ]
        );
        assert_eq!(v.neighbors(Asn(2)), &[(Asn(1), NeighborKind::Peer)]);
        assert!(!v.has_edge(Asn(0), Asn(2)));
    }

    #[test]
    fn with_extra_links_augments() {
        let base = GraphView::from_links(3, &[Link::transit(Asn(1), Asn(0))]);
        let aug = base.with_extra_links(&[Link::peering(Asn(0), Asn(2), LinkClass::Transit)]);
        assert!(aug.has_edge(Asn(0), Asn(2)));
        assert!(!base.has_edge(Asn(0), Asn(2)));
        // Duplicates collapse.
        let dup = aug.with_extra_links(&[Link::peering(Asn(0), Asn(2), LinkClass::Transit)]);
        assert_eq!(dup.neighbors(Asn(2)).len(), 1);
    }
}
