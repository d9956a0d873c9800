//! Route collectors and the publicly visible topology.
//!
//! Public BGP data comes from collectors (RouteViews/RIPE RIS) peered with
//! a *biased* set of feeder networks — mostly transit providers, almost
//! never eyeballs or hypergiant PNI partners. A link is publicly visible
//! only if it appears on some feeder's best path. Since peering links are
//! only exported to customers, a hypergiant↔eyeball PNI is visible only if
//! a collector feeds from the eyeball (or its customer cone) — which is
//! rare. This is the mechanism behind §1's "more than 90% of the IXP's
//! peerings were not visible in public topologies" \[4\] and §3.3.1's
//! "available vantage points cannot uncover most peering links" — and it
//! falls out of the export rules rather than being hard-coded.

use crate::bgp::{RouteKind, ScopedTree, UpwardClosure};
use crate::view::GraphView;
use itm_topology::{AsClass, Link, LinkClass, LinkId, NeighborKind, Topology};
use itm_types::rng::SeedDomain;
use itm_types::Asn;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashSet};

/// A set of collector feeder ASes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CollectorSet {
    /// ASes providing full feeds to public collectors.
    pub feeders: Vec<Asn>,
}

impl CollectorSet {
    /// The default public-collector model: all tier-1s feed, a fraction of
    /// transits feed, and a small number of stubs/eyeballs feed (the
    /// occasional university/research network that peers with RIS).
    pub fn typical(topo: &Topology, seeds: &SeedDomain) -> CollectorSet {
        let mut rng = seeds.rng("collectors");
        let mut feeders = Vec::new();
        for a in &topo.ases {
            let p = match a.class {
                AsClass::Tier1 => 1.0,
                AsClass::Transit => 0.25,
                AsClass::Eyeball => 0.02,
                AsClass::Stub => 0.01,
                // Content networks do not feed public collectors.
                AsClass::Hypergiant | AsClass::Cloud => 0.0,
            };
            if p > 0.0 && rng.gen_bool(p) {
                feeders.push(a.asn);
            }
        }
        CollectorSet { feeders }
    }

    /// A collector set with exactly `n` feeders drawn from the typical
    /// distribution (for the D3 ablation sweep), or every AS when `n`
    /// exceeds the AS count.
    pub fn with_count(topo: &Topology, seeds: &SeedDomain, n: usize) -> CollectorSet {
        let n = n.min(topo.n_ases());
        let base = Self::typical(topo, seeds);
        let mut feeders = base.feeders;
        let mut rng = seeds.rng("collectors-truncate");
        // Deterministic shuffle, then truncate/extend.
        for i in (1..feeders.len()).rev() {
            feeders.swap(i, rng.gen_range(0..=i));
        }
        while feeders.len() < n {
            let cand = Asn(rng.gen_range(0..topo.n_ases() as u32));
            if !feeders.contains(&cand) {
                feeders.push(cand);
            }
        }
        feeders.truncate(n);
        feeders.sort_unstable();
        CollectorSet { feeders }
    }

    /// Compute the set of links visible from these feeders.
    ///
    /// For every destination AS, every feeder's best path is walked and its
    /// links marked visible. Cost: one routing tree per destination,
    /// resolved only where the feeders' paths can go (a [`ScopedTree`]).
    pub fn visible_links(&self, topo: &Topology, view: &GraphView) -> HashSet<(Asn, Asn)> {
        let key = |x: Asn, y: Asn| Some(if x <= y { (x, y) } else { (y, x) });
        let scope = UpwardClosure::of(view, &self.feeders);
        self.destination_links(view, &scope, 0..topo.n_ases(), key)
            .into_iter()
            .flatten()
            .collect()
    }

    /// The archived RIB: every feeder's best AS path to every destination
    /// — the raw material public archives actually contain, and what
    /// relationship inference ([`crate::relationships`]) consumes.
    pub fn archived_paths(&self, topo: &Topology, view: &GraphView) -> Vec<Vec<Asn>> {
        let scope = UpwardClosure::of(view, &self.feeders);
        map_trees(view, &scope, 0..topo.n_ases(), |tree| {
            self.feeders
                .iter()
                .filter_map(|&f| tree.path(f))
                .filter(|p| p.len() >= 2)
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Build the *public view*: the ground-truth graph restricted to
    /// visible links (relationship labels assumed correctly inferred, the
    /// optimistic case for the prediction experiment).
    ///
    /// The sequential form of [`CollectorSet::public_view_with`], with no
    /// previous report.
    pub fn public_view(&self, topo: &Topology) -> (GraphView, VisibilityReport) {
        let full = GraphView::full(topo);
        self.public_view_with(topo, &full, None, |n, job| (0..n).map(job).collect())
    }

    /// [`CollectorSet::public_view`] over `full`, which must be
    /// [`GraphView::full`] of `topo`, reusing the per-destination feeder
    /// links of a previous report where a link flap cannot have changed
    /// them.
    ///
    /// `prev` pairs that report with the [`flapped_cones`] of `topo`
    /// since the down-set it was computed under
    /// ([`VisibilityReport::links_down`]). Only the destinations the mask
    /// marks are recomputed — the *cone rule*: a destination outside
    /// every flapped cone gets the same tree, and so the same feeder
    /// paths. Every destination is recomputed when there is no `prev`
    /// (the caller passes none when [`flapped_cones`] is `None`) or when
    /// the report's feeders differ from these.
    ///
    /// The recomputed destinations split into shards of a fixed size (so
    /// the full pass's shard count depends on the AS count alone);
    /// `run_shards(n, job)` must return `job(0..n)` in index order, which
    /// keeps the trees' trace events in destination order. `prev` must
    /// come from this topology, under any flap state; the result then
    /// equals a fresh `public_view` of `topo`.
    pub fn public_view_with<R>(
        &self,
        topo: &Topology,
        full: &GraphView,
        prev: Option<(&VisibilityReport, &[bool])>,
        run_shards: R,
    ) -> (GraphView, VisibilityReport)
    where
        R: FnOnce(usize, &(dyn Fn(usize) -> Vec<Vec<LinkId>> + Sync)) -> Vec<Vec<Vec<LinkId>>>,
    {
        let n = topo.n_ases();
        let reused = prev.filter(|(p, reach)| {
            p.feeders == self.feeders && p.per_dst.len() == n && reach.len() == n
        });
        let (dsts, mut per_dst): (Vec<usize>, _) = match reused {
            Some((p, reach)) => ((0..n).filter(|&d| reach[d]).collect(), p.per_dst.clone()),
            None => ((0..n).collect(), vec![Vec::new(); n]),
        };
        let scope = UpwardClosure::of(full, &self.feeders);
        let parts = run_shards(dsts.len().div_ceil(DESTS_PER_SHARD), &|k| {
            let chunk = &dsts[k * DESTS_PER_SHARD..dsts.len().min((k + 1) * DESTS_PER_SHARD)];
            self.destination_links(full, &scope, chunk.iter().copied(), |x, y| {
                let nbs = topo.neighbors(x);
                let at = nbs.binary_search_by_key(&y, |nb| nb.asn).ok()?;
                Some(nbs[at].link)
            })
        });
        for (&d, links) in dsts.iter().zip(parts.into_iter().flatten()) {
            per_dst[d] = links;
        }
        itm_obs::counter!("routing.visibility.destinations_recomputed").add(dsts.len() as u64);

        let mut visible = vec![false; topo.links.len()];
        for id in per_dst.iter().flatten() {
            if let Some(v) = visible.get_mut(id.index()) {
                *v = true;
            }
        }
        let vis_links = topo.links.iter().zip(&visible).filter(|(_, &v)| v);
        let vis_links: Vec<&Link> = vis_links.map(|(l, _)| l).collect();
        let mut report = VisibilityReport::build(topo, &visible);
        report.per_dst = per_dst;
        report.feeders = self.feeders.clone();
        report.links_down = Some(topo.links_down().clone());
        (GraphView::from_links(n, vis_links), report)
    }

    /// For each destination in `dsts`, in order, the sorted keys of the
    /// links its feeder paths cross (`key` names an edge; see
    /// [`feeder_edges`]). `scope` is the feeders' upward closure in
    /// `view`.
    fn destination_links<K: Ord>(
        &self,
        view: &GraphView,
        scope: &UpwardClosure,
        dsts: impl IntoIterator<Item = usize>,
        key: impl Fn(Asn, Asn) -> Option<K>,
    ) -> Vec<Vec<K>> {
        let mut reached = vec![u32::MAX; view.n_ases()];
        map_trees(view, scope, dsts, |tree| {
            feeder_edges(tree, &self.feeders, &mut reached, &key)
        })
    }
}

/// Per AS, whether it lies in `cone(a) ∪ cone(b)` of a link `(a, b)`
/// whose down-state differs between `before` and `topo`'s current
/// down-set (the cones are walked in `view`, along provider→customer
/// edges, endpoints included); `None` when such a link is not a peering
/// link.
///
/// The *cone rule*: [`crate::RoutingTree::compute_multi`] reads a peer
/// edge only in its phase 2, and only from an AS holding an origin or
/// customer route, i.e. an AS whose customer cone holds one of the
/// origins. A tree none of whose origins is marked is therefore the same
/// whether the flapped peer links are up or down: the public view keeps
/// the feeder paths of every unmarked destination, and the map keeps the
/// catchments of every anycast deployment with no marked origin. A
/// transit flap changes the cones themselves, hence `None`.
pub fn flapped_cones(
    topo: &Topology,
    view: &GraphView,
    before: &BTreeSet<(Asn, Asn)>,
) -> Option<Vec<bool>> {
    let mut reached = vec![false; topo.n_ases()];
    let mut stack: Vec<Asn> = Vec::new();
    for &(a, b) in before.symmetric_difference(topo.links_down()) {
        let peering = topo
            .neighbors(a)
            .iter()
            .any(|nb| nb.asn == b && nb.kind == NeighborKind::Peer);
        if !peering {
            return None;
        }
        stack.extend([a, b]);
        while let Some(u) = stack.pop() {
            if std::mem::replace(&mut reached[u.index()], true) {
                continue;
            }
            stack.extend(view.customers(u));
        }
    }
    Some(reached)
}

/// Destinations per shard of [`CollectorSet::public_view_with`].
const DESTS_PER_SHARD: usize = 64;

/// `f` of the routing tree of each destination in `dsts`, in order,
/// resolved on `scope` (the feeders' upward closure in `view`) and the
/// destination's ancestors, which hold every AS a feeder's path crosses.
/// One tree's storage serves every destination.
fn map_trees<T>(
    view: &GraphView,
    scope: &UpwardClosure,
    dsts: impl IntoIterator<Item = usize>,
    mut f: impl FnMut(&ScopedTree) -> T,
) -> Vec<T> {
    let mut tree = ScopedTree::new(view, scope);
    dsts.into_iter()
        .map(|d| {
            tree.compute(Asn(d as u32));
            f(&tree)
        })
        .collect()
}

/// The sorted keys of the links on the feeders' best paths in `tree`;
/// `key(u, next)` names the edge from `u` to its next hop (`None` skips
/// it).
///
/// Each feeder's walk toward the origin stops at the first AS already
/// reached for this destination: the rest of that path is recorded. So
/// every AS contributes its one next-hop edge at most once and the keys
/// come out distinct. `reached` is a stamp array (an AS is reached when
/// its entry equals the destination), reusable across destinations
/// without clearing.
fn feeder_edges<K: Ord>(
    tree: &ScopedTree,
    feeders: &[Asn],
    reached: &mut [u32],
    key: impl Fn(Asn, Asn) -> Option<K>,
) -> Vec<K> {
    let stamp = tree.dst().raw();
    let mut keys = Vec::new();
    for &f in feeders {
        let mut cur = f;
        while reached[cur.index()] != stamp {
            reached[cur.index()] = stamp;
            // A feeder's path never leaves the resolved ASes.
            let route = tree.route(cur);
            debug_assert!(route.is_some(), "{cur} is outside the scoped tree");
            let Some(e) = route.flatten() else { break };
            if e.kind == RouteKind::Origin {
                break;
            }
            keys.extend(key(cur, e.next));
            cur = e.next;
        }
    }
    keys.sort_unstable();
    keys
}

/// Per-link-class visibility statistics (E12).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VisibilityReport {
    /// (class label, total links, visible links).
    pub by_class: Vec<(String, usize, usize)>,
    /// Total ground-truth links.
    pub total: usize,
    /// Total visible links.
    pub visible: usize,
    /// Per destination AS, the sorted ids of the links its feeder paths
    /// cross; the visible set is their union (empty when deserialized).
    #[serde(skip)]
    per_dst: Vec<Vec<LinkId>>,
    /// The feeders the lists were computed from.
    #[serde(skip)]
    feeders: Vec<Asn>,
    /// The links that were flapped down when they were computed.
    #[serde(skip)]
    links_down: Option<BTreeSet<(Asn, Asn)>>,
}

impl VisibilityReport {
    /// Statistics over `topo`'s links, `visible` flagging each by index.
    fn build(topo: &Topology, visible: &[bool]) -> VisibilityReport {
        type LinkPred = fn(&Link) -> bool;
        let classes: [(&str, LinkPred); 4] = [
            ("transit", |l| matches!(l.class, LinkClass::Transit)),
            ("public-peering", |l| {
                matches!(l.class, LinkClass::PublicPeering(_))
            }),
            ("private-peering", |l| {
                matches!(l.class, LinkClass::PrivatePeering(_))
            }),
            ("all-peering", |l| l.is_peering()),
        ];
        let mut by_class = Vec::new();
        for (label, pred) in classes {
            let total = topo.links.iter().filter(|l| pred(l)).count();
            let vis = topo
                .links
                .iter()
                .zip(visible)
                .filter(|&(l, &v)| v && pred(l))
                .count();
            by_class.push((label.to_string(), total, vis));
        }
        VisibilityReport {
            by_class,
            total: topo.links.len(),
            visible: visible.iter().filter(|&&v| v).count(),
            per_dst: Vec::new(),
            feeders: Vec::new(),
            links_down: None,
        }
    }

    /// The sorted ids of the links on the feeders' best paths toward
    /// `dst`; `None` for a deserialized report, which keeps no
    /// per-destination lists, or for an AS outside the topology.
    pub fn feeder_links(&self, dst: Asn) -> Option<&[LinkId]> {
        self.per_dst.get(dst.index()).map(Vec::as_slice)
    }

    /// The link down-set of the world the report was computed in, to
    /// pass to [`flapped_cones`]; `None` for a deserialized report, which
    /// does not keep it.
    pub fn links_down(&self) -> Option<&BTreeSet<(Asn, Asn)>> {
        self.links_down.as_ref()
    }

    /// Fraction of links of a class that are invisible.
    pub fn invisible_fraction(&self, class_label: &str) -> Option<f64> {
        self.by_class
            .iter()
            .find(|(l, _, _)| l == class_label)
            .map(|(_, total, vis)| {
                if *total == 0 {
                    0.0
                } else {
                    1.0 - *vis as f64 / *total as f64
                }
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoutingTree;
    use itm_topology::{generate, TopologyConfig};

    fn setup() -> Topology {
        generate(&TopologyConfig::small(), 5).unwrap()
    }

    #[test]
    fn typical_feeders_are_transit_biased() {
        let t = setup();
        let c = CollectorSet::typical(&t, &SeedDomain::new(1));
        assert!(!c.feeders.is_empty());
        let transit_or_t1 = c
            .feeders
            .iter()
            .filter(|&&f| matches!(t.as_info(f).class, AsClass::Tier1 | AsClass::Transit))
            .count();
        assert!(
            transit_or_t1 * 2 > c.feeders.len(),
            "feeders not transit-biased"
        );
        // No content feeders ever.
        assert!(c.feeders.iter().all(|&f| !t.as_info(f).class.is_content()));
    }

    #[test]
    fn visibility_misses_most_private_peering() {
        let t = setup();
        let c = CollectorSet::typical(&t, &SeedDomain::new(1));
        let (_, report) = c.public_view(&t);
        // Transit links are nearly all visible (they're on paths up to the
        // tier-1 feeders).
        let transit_invisible = report.invisible_fraction("transit").unwrap();
        assert!(
            transit_invisible < 0.30,
            "transit invisible {transit_invisible}"
        );
        // Peering is mostly invisible — the paper's 90% claim, shape-wise.
        let peering_invisible = report.invisible_fraction("all-peering").unwrap();
        assert!(
            peering_invisible > 0.5,
            "peering invisible only {peering_invisible}"
        );
        assert!(peering_invisible > transit_invisible);
    }

    #[test]
    fn with_count_is_exact_and_deterministic() {
        let t = setup();
        let a = CollectorSet::with_count(&t, &SeedDomain::new(2), 10);
        let b = CollectorSet::with_count(&t, &SeedDomain::new(2), 10);
        assert_eq!(a.feeders, b.feeders);
        assert_eq!(a.feeders.len(), 10);
    }

    #[test]
    fn with_count_beyond_the_as_count_takes_every_as() {
        let t = setup();
        let c = CollectorSet::with_count(&t, &SeedDomain::new(2), t.n_ases() + 5);
        let every: Vec<Asn> = (0..t.n_ases() as u32).map(Asn).collect();
        assert_eq!(c.feeders, every);
    }

    #[test]
    fn more_feeders_see_more() {
        let t = setup();
        let view = GraphView::full(&t);
        let small = CollectorSet::with_count(&t, &SeedDomain::new(3), 3);
        let big = CollectorSet::with_count(&t, &SeedDomain::new(3), 40);
        let vs = small.visible_links(&t, &view);
        let vb = big.visible_links(&t, &view);
        assert!(vb.len() > vs.len(), "{} !> {}", vb.len(), vs.len());
    }

    #[test]
    fn visible_links_are_real_links() {
        let t = setup();
        let view = GraphView::full(&t);
        let c = CollectorSet::with_count(&t, &SeedDomain::new(4), 8);
        for (a, b) in c.visible_links(&t, &view) {
            assert!(t.has_link(a, b), "phantom link {a}–{b}");
        }
    }

    #[test]
    fn visible_links_match_the_walk_of_every_full_path() {
        let t = setup();
        let view = GraphView::full(&t);
        let c = CollectorSet::typical(&t, &SeedDomain::new(1));
        let mut want: HashSet<(Asn, Asn)> = HashSet::new();
        for dst in 0..t.n_ases() {
            let tree = RoutingTree::compute(&view, Asn(dst as u32));
            for &f in &c.feeders {
                for w in tree.path(f).unwrap_or_default().windows(2) {
                    want.insert((w[0].min(w[1]), w[0].max(w[1])));
                }
            }
        }
        assert_eq!(c.visible_links(&t, &view), want);
        let (_, report) = c.public_view(&t);
        assert_eq!(report.per_dst.len(), t.n_ases());
        let keys: usize = report.per_dst.iter().map(Vec::len).sum();
        assert!(keys >= want.len(), "{keys} keys for {} links", want.len());
    }
}
