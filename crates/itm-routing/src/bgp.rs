//! Valley-free BGP route computation (Gao–Rexford model).
//!
//! For a destination AS `d`, every other AS selects its best route under
//! the standard policy preferences:
//!
//! 1. **Local preference**: routes learned from customers over routes
//!    learned from peers over routes learned from providers.
//! 2. **Shortest AS path** among equally preferred routes.
//! 3. **Deterministic tiebreak**: lowest next-hop ASN (standing in for
//!    lowest-router-id, which real BGP uses after MED/IGP steps we do not
//!    model).
//!
//! Export rules (which make paths valley-free): routes learned from
//! customers are exported to everyone; routes learned from peers or
//! providers are exported only to customers.
//!
//! The computation is the classic three-phase BFS (as used by the route
//! simulation literature the paper leans on \[35, 42\]):
//! phase 1 floods customer routes "up" provider edges, phase 2 crosses a
//! single peer edge, phase 3 floods "down" customer edges.

use crate::view::GraphView;
use itm_topology::NeighborKind;
use itm_types::Asn;
use serde::{Deserialize, Serialize};

/// How an AS learned its best route toward the destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RouteKind {
    /// The AS *is* the destination (or originates it).
    Origin,
    /// Learned from a customer (most preferred).
    Customer,
    /// Learned from a peer.
    Peer,
    /// Learned from a provider (least preferred).
    Provider,
}

impl RouteKind {
    /// Preference rank: lower is better.
    fn rank(self) -> u8 {
        match self {
            RouteKind::Origin => 0,
            RouteKind::Customer => 1,
            RouteKind::Peer => 2,
            RouteKind::Provider => 3,
        }
    }
}

/// One AS's best route toward the tree's destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteEntry {
    /// How the route was learned.
    pub kind: RouteKind,
    /// AS-path length in hops (0 at the origin).
    pub len: u32,
    /// The neighbor the route points at (self at the origin).
    pub next: Asn,
}

/// Best routes from every AS toward one destination.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoutingTree {
    /// The destination AS.
    pub dst: Asn,
    entries: Vec<Option<RouteEntry>>,
}

impl RoutingTree {
    /// Compute the routing tree for destination `dst` over `view`.
    pub fn compute(view: &GraphView, dst: Asn) -> RoutingTree {
        Self::compute_multi(view, &[dst], dst)
    }

    /// Compute a tree for a *set* of origin ASes announcing the same
    /// destination (anycast). `label` names the tree (purely descriptive).
    ///
    /// Each client's best route leads to whichever origin wins under the
    /// policy preferences — exactly how an anycast prefix behaves.
    pub fn compute_multi(view: &GraphView, origins: &[Asn], label: Asn) -> RoutingTree {
        let n = view.n_ases();
        let mut entries: Vec<Option<RouteEntry>> = vec![None; n];

        // Better-route test implementing (pref, len, next-ASN) order.
        let better = |cur: &Option<RouteEntry>, cand: RouteEntry| -> bool {
            match cur {
                None => true,
                Some(c) => (cand.kind.rank(), cand.len, cand.next) < (c.kind.rank(), c.len, c.next),
            }
        };

        // ---- Phase 1: customer routes, flooding up provider edges. ----
        // Level-synchronous BFS so the (len, next) tiebreak is exact.
        let mut frontier: Vec<Asn> = Vec::new();
        for &o in origins {
            let e = RouteEntry {
                kind: RouteKind::Origin,
                len: 0,
                next: o,
            };
            if better(&entries[o.index()], e) {
                entries[o.index()] = Some(e);
                frontier.push(o);
            }
        }
        let mut level = 0u32;
        // Membership flags avoid O(frontier²) duplicate checks.
        let mut pending = vec![false; n];
        while !frontier.is_empty() {
            level += 1;
            let mut next_frontier: Vec<Asn> = Vec::new();
            // Iterate the frontier in ASN order for deterministic tiebreaks.
            frontier.sort_unstable();
            for &u in &frontier {
                for &(v, kind) in view.neighbors(u) {
                    // u exports its (customer/origin) route to its provider v;
                    // from v's perspective the route is learned from a customer.
                    if kind != NeighborKind::Provider {
                        continue;
                    }
                    let cand = RouteEntry {
                        kind: RouteKind::Customer,
                        len: level,
                        next: u,
                    };
                    let cur = &entries[v.index()];
                    // Only assign if v has nothing better (earlier level or
                    // lower next-hop ASN at this level).
                    let assignable = match cur {
                        None => true,
                        Some(c) => {
                            (cand.kind.rank(), cand.len, cand.next) < (c.kind.rank(), c.len, c.next)
                        }
                    };
                    if assignable {
                        entries[v.index()] = Some(cand);
                        if !pending[v.index()] {
                            pending[v.index()] = true;
                            next_frontier.push(v);
                        }
                    }
                }
            }
            for &v in &next_frontier {
                pending[v.index()] = false;
            }
            frontier = next_frontier;
        }

        // ---- Phase 2: peer routes (one peer edge crossing). ----
        // Exporters: ASes holding Origin/Customer routes.
        let exporters: Vec<(Asn, u32)> = (0..n)
            .filter_map(|i| {
                entries[i].and_then(|e| {
                    matches!(e.kind, RouteKind::Origin | RouteKind::Customer)
                        .then_some((Asn(i as u32), e.len))
                })
            })
            .collect();
        for &(u, ulen) in &exporters {
            for &(v, kind) in view.neighbors(u) {
                if kind != NeighborKind::Peer {
                    continue;
                }
                let cand = RouteEntry {
                    kind: RouteKind::Peer,
                    len: ulen + 1,
                    next: u,
                };
                if better(&entries[v.index()], cand) {
                    entries[v.index()] = Some(cand);
                }
            }
        }

        // ---- Phase 3: provider routes, flooding down customer edges. ----
        // Multi-source shortest-path over customer edges, sources = every
        // AS that currently holds a route, keyed by current route length.
        // Bucketed BFS by length keeps it O(V+E).
        let max_len_cap = (n as u32) + 2;
        let mut buckets: Vec<Vec<Asn>> = vec![Vec::new(); (max_len_cap + 1) as usize];
        for (i, entry) in entries.iter().enumerate() {
            if let Some(e) = entry {
                buckets[e.len as usize].push(Asn(i as u32));
            }
        }
        let mut l = 0usize;
        while (l as u32) < max_len_cap {
            if buckets[l].is_empty() {
                l += 1;
                continue;
            }
            let mut us = std::mem::take(&mut buckets[l]);
            us.sort_unstable();
            for u in us {
                // u may have been improved since it was bucketed; only
                // export its *current* route if the length still matches.
                let Some(e) = entries[u.index()] else {
                    continue;
                };
                if e.len as usize != l {
                    continue;
                }
                for &(v, kind) in view.neighbors(u) {
                    // u exports any route to its customers.
                    if kind != NeighborKind::Customer {
                        continue;
                    }
                    let cand = RouteEntry {
                        kind: RouteKind::Provider,
                        len: e.len + 1,
                        next: u,
                    };
                    if better(&entries[v.index()], cand) {
                        entries[v.index()] = Some(cand);
                        buckets[(e.len + 1) as usize].push(v);
                    }
                }
            }
        }

        itm_obs::counter!("routing.trees_computed").inc();
        if itm_obs::enabled() {
            itm_obs::histogram!("routing.tree_reachable")
                .record(entries.iter().flatten().count() as u64);
        }
        if itm_obs::trace::enabled() {
            itm_obs::trace::emit(
                itm_obs::trace::Technique::Routing,
                itm_obs::trace::EventKind::RouteResolved,
                itm_obs::trace::Subjects::none().asn(label.raw()),
                &format!(
                    "{} origins, {} reachable",
                    origins.len(),
                    entries.iter().flatten().count()
                ),
            );
        }

        RoutingTree {
            dst: label,
            entries,
        }
    }

    /// The best route at `asn`, if the destination is reachable.
    pub fn route(&self, asn: Asn) -> Option<RouteEntry> {
        self.entries[asn.index()]
    }

    /// The AS path from `src` to the destination, inclusive of both ends.
    /// `None` if unreachable.
    pub fn path(&self, src: Asn) -> Option<Vec<Asn>> {
        let mut path = vec![src];
        let mut cur = src;
        loop {
            let e = self.entries[cur.index()]?;
            if e.kind == RouteKind::Origin {
                return Some(path);
            }
            cur = e.next;
            // Cycle guard: paths can never exceed the AS count.
            if path.len() > self.entries.len() {
                return None;
            }
            path.push(cur);
        }
    }

    /// AS-path length in hops from `src` (0 when `src` is the origin).
    pub fn path_len(&self, src: Asn) -> Option<u32> {
        self.entries[src.index()].map(|e| e.len)
    }

    /// The origin AS `src`'s traffic ultimately reaches (for anycast trees
    /// this identifies the winning origin): the last AS of
    /// [`RoutingTree::path`], found without building the path.
    pub fn origin_reached(&self, src: Asn) -> Option<Asn> {
        let mut cur = src;
        // The same cycle guard as `path`: no path is longer than the AS
        // count.
        for _ in 0..=self.entries.len() {
            let e = self.entries[cur.index()]?;
            if e.kind == RouteKind::Origin {
                return Some(cur);
            }
            cur = e.next;
        }
        None
    }

    /// Number of ASes with a route.
    pub fn reachable_count(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itm_topology::{Link, LinkClass};

    /// Toy topology:
    /// ```text
    ///        0 (tier1) ---- 1 (tier1)     0–1 peer
    ///       /  \              \
    ///      2    3              4          2,3 buy from 0; 4 buys from 1
    ///      |     \            /
    ///      5      6 ---------             5 buys from 2; 6 buys from 3 and 4
    ///      6 –p– 5  (peer link between 5 and 6)
    /// ```
    fn toy() -> GraphView {
        let links = vec![
            Link::peering(Asn(0), Asn(1), LinkClass::Transit),
            Link::transit(Asn(2), Asn(0)),
            Link::transit(Asn(3), Asn(0)),
            Link::transit(Asn(4), Asn(1)),
            Link::transit(Asn(5), Asn(2)),
            Link::transit(Asn(6), Asn(3)),
            Link::transit(Asn(6), Asn(4)),
            Link::peering(Asn(5), Asn(6), LinkClass::Transit),
        ];
        GraphView::from_links(7, &links)
    }

    #[test]
    fn origin_has_zero_length() {
        let t = RoutingTree::compute(&toy(), Asn(5));
        let e = t.route(Asn(5)).unwrap();
        assert_eq!(e.kind, RouteKind::Origin);
        assert_eq!(e.len, 0);
        assert_eq!(t.path(Asn(5)).unwrap(), vec![Asn(5)]);
    }

    #[test]
    fn prefers_peer_over_provider() {
        // From 6 to 5: via peer link 6–5 (len 1, Peer) vs via providers
        // 6-3-0-2-5 (len 4, Provider). Peer must win.
        let t = RoutingTree::compute(&toy(), Asn(5));
        let e = t.route(Asn(6)).unwrap();
        assert_eq!(e.kind, RouteKind::Peer);
        assert_eq!(t.path(Asn(6)).unwrap(), vec![Asn(6), Asn(5)]);
    }

    #[test]
    fn customer_routes_propagate_up() {
        let t = RoutingTree::compute(&toy(), Asn(5));
        // 2 hears from customer 5; 0 hears from customer 2.
        assert_eq!(t.route(Asn(2)).unwrap().kind, RouteKind::Customer);
        assert_eq!(t.route(Asn(0)).unwrap().kind, RouteKind::Customer);
        assert_eq!(t.path(Asn(0)).unwrap(), vec![Asn(0), Asn(2), Asn(5)]);
    }

    #[test]
    fn provider_routes_flood_down() {
        let t = RoutingTree::compute(&toy(), Asn(5));
        // 3 only reaches 5 via its provider 0.
        let e = t.route(Asn(3)).unwrap();
        assert_eq!(e.kind, RouteKind::Provider);
        assert_eq!(
            t.path(Asn(3)).unwrap(),
            vec![Asn(3), Asn(0), Asn(2), Asn(5)]
        );
        // 4 goes up to 1, across the tier-1 peering, down through 0.
        assert_eq!(
            t.path(Asn(4)).unwrap(),
            vec![Asn(4), Asn(1), Asn(0), Asn(2), Asn(5)]
        );
    }

    #[test]
    fn no_valley_paths() {
        // Destination 4: 5 must NOT route 5→6→4 (that would transit peer
        // 6's provider route — a valley). Correct: 5→2→0→1→4.
        let t = RoutingTree::compute(&toy(), Asn(4));
        assert_eq!(
            t.path(Asn(5)).unwrap(),
            vec![Asn(5), Asn(2), Asn(0), Asn(1), Asn(4)]
        );
    }

    #[test]
    fn peer_routes_are_not_reexported_to_peers() {
        // Destination 6: 5 has a peer route (5–6). 5's provider 2 must not
        // use 2→5→6 (customer 5 exporting a peer-learned route violates
        // export rules); 2 reaches 6 via 0→3→6.
        let t = RoutingTree::compute(&toy(), Asn(6));
        let p = t.path(Asn(2)).unwrap();
        assert_eq!(p, vec![Asn(2), Asn(0), Asn(3), Asn(6)]);
    }

    #[test]
    fn all_reachable_in_connected_graph() {
        for dst in 0..7 {
            let t = RoutingTree::compute(&toy(), Asn(dst));
            assert_eq!(t.reachable_count(), 7, "dst {dst}");
            for src in 0..7 {
                let p = t.path(Asn(src)).unwrap();
                assert_eq!(*p.first().unwrap(), Asn(src));
                assert_eq!(*p.last().unwrap(), Asn(dst));
                assert_eq!(p.len() as u32 - 1, t.path_len(Asn(src)).unwrap());
            }
        }
    }

    #[test]
    fn unreachable_when_view_is_cut() {
        // Remove the tier-1 peering: 4 can no longer reach 5.
        let links = vec![
            Link::transit(Asn(2), Asn(0)),
            Link::transit(Asn(5), Asn(2)),
            Link::transit(Asn(4), Asn(1)),
        ];
        let v = GraphView::from_links(6, &links);
        let t = RoutingTree::compute(&v, Asn(5));
        assert!(t.route(Asn(4)).is_none());
        assert!(t.path(Asn(4)).is_none());
        assert!(t.path_len(Asn(4)).is_none());
        assert_eq!(t.reachable_count(), 3); // 5, 2, 0
    }

    #[test]
    fn anycast_multi_origin_picks_nearest_by_policy() {
        // Origins 5 and 4. Client 6 peers with 5 (1 hop, Peer) and buys
        // from 4 (1 hop, Provider... wait, 4 is 6's provider). 6's route to
        // origin-set: customer route? 6 has no customers. Peer route via 5
        // wins over provider route via 4 (pref order).
        let t = RoutingTree::compute_multi(&toy(), &[Asn(5), Asn(4)], Asn(5));
        assert_eq!(t.origin_reached(Asn(6)), Some(Asn(5)));
        // 1 reaches origin 4 through its customer — customer beats peer.
        assert_eq!(t.origin_reached(Asn(1)), Some(Asn(4)));
        // 2 reaches 5 via its customer chain.
        assert_eq!(t.origin_reached(Asn(2)), Some(Asn(5)));
    }

    #[test]
    fn deterministic_tiebreak_lowest_next_asn() {
        // Diamond: 3 buys from 1 and 2; both buy from 0. Destination 0:
        // 3 has two provider routes of equal length; must pick next=1.
        let links = vec![
            Link::transit(Asn(1), Asn(0)),
            Link::transit(Asn(2), Asn(0)),
            Link::transit(Asn(3), Asn(1)),
            Link::transit(Asn(3), Asn(2)),
        ];
        let v = GraphView::from_links(4, &links);
        let t = RoutingTree::compute(&v, Asn(0));
        assert_eq!(t.route(Asn(3)).unwrap().next, Asn(1));
        // And the same diamond upward: destination 3, AS 0 hears customer
        // routes from both 1 and 2 at equal length; picks 1.
        let t2 = RoutingTree::compute(&v, Asn(3));
        assert_eq!(t2.route(Asn(0)).unwrap().next, Asn(1));
    }
}
