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
//! single peer edge, phase 3 floods "down" customer edges. Each phase
//! walks only the one kind of neighbor it needs ([`GraphView::providers`],
//! [`GraphView::peers`], [`GraphView::customers`]).
//!
//! ## Why visiting order does not matter
//!
//! A route is stored packed as `(rank << 62) | (len << 32) | next`, so the
//! preference order `(rank, len, next)` is integer order, and every
//! assignment in the three phases is a strict-minimum update: the entry
//! becomes the candidate only if the candidate is smaller. The minimum of
//! a set does not depend on the order its members are offered in, so a
//! phase's result is order-free as long as the *set* of candidates each AS
//! is offered is. That holds for each phase:
//!
//! - **Phase 1** is level-synchronous. Level `l` offers `(Customer, l, u)`
//!   from every frontier AS `u` to its providers; the candidate depends
//!   on `l` and `u` alone. The next frontier is the set of ASes whose
//!   entry fell during the level, which is the set whose minimum offer
//!   beat their entry, whatever the order.
//! - **Phase 2** offers `(Peer, len + 1, u)` from every AS `u` holding an
//!   origin or customer route. It never overwrites such an exporter (a
//!   peer route ranks below both), and what it writes ranks as a peer
//!   route, so the exporters and their lengths are fixed before the phase
//!   starts.
//! - **Phase 3** is a unit-weight Dijkstra over customer edges, bucketed
//!   by length. Draining bucket `l` offers only length-`l + 1`
//!   candidates, which cannot beat any entry of length `≤ l`, so bucket
//!   `l`'s entries are final before it is drained and each AS in it
//!   offers one fixed candidate.
//!
//! So no frontier or bucket needs sorting.
//!
//! ## Scoped trees
//!
//! The public view walks only its feeders' best paths, which never leave
//! the feeders' upward closure and the destination's ancestors. The one
//! kernel behind [`RoutingTree`] takes an optional [`UpwardClosure`] and
//! then runs phase 3 over that closure alone; a [`ScopedTree`] holds the
//! result and hands out only the entries it resolved exactly.

use crate::view::GraphView;
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

/// The packed entry of an AS without a route: above every packed route,
/// since route lengths stay below `2^30 - 1` and ASNs below `u32::MAX`.
const UNREACHABLE: u64 = u64::MAX;

/// Packs a route so that integer order is preference order: the rank
/// (the [`RouteKind`] in declaration order, lower is better) in the top
/// two bits, then the 30-bit length, then the next hop.
fn pack(kind: RouteKind, len: u32, next: Asn) -> u64 {
    ((kind as u64) << 62) | (u64::from(len) << 32) | u64::from(next.raw())
}

/// The route length of a packed entry.
fn len_of(e: u64) -> u32 {
    ((e >> 32) & 0x3FFF_FFFF) as u32
}

fn unpack(e: u64) -> Option<RouteEntry> {
    let kind = match e >> 62 {
        0 => RouteKind::Origin,
        1 => RouteKind::Customer,
        2 => RouteKind::Peer,
        _ if e == UNREACHABLE => return None,
        _ => RouteKind::Provider,
    };
    Some(RouteEntry {
        kind,
        len: len_of(e),
        next: Asn(e as u32),
    })
}

/// The buffers one route computation needs, reused across trees.
#[derive(Debug, Default)]
struct TreeScratch {
    frontier: Vec<Asn>,
    next_frontier: Vec<Asn>,
    /// Membership flags of `next_frontier`; all false between levels.
    pending: Vec<bool>,
    /// Every AS phase 1 gave an origin or customer route, i.e. the
    /// destination's ancestors: phase 2's exporters.
    ancestors: Vec<Asn>,
    /// Phase 3's length buckets, grown on demand; empty between trees.
    buckets: Vec<Vec<Asn>>,
}

impl TreeScratch {
    fn bucket(&mut self, len: u32) -> &mut Vec<Asn> {
        let l = len as usize;
        if self.buckets.len() <= l {
            self.buckets.resize_with(l + 1, Vec::new);
        }
        &mut self.buckets[l]
    }
}

/// Best routes from every AS toward one destination.
#[derive(Debug, Clone)]
pub struct RoutingTree {
    /// The destination AS.
    pub dst: Asn,
    /// Packed route per AS (see [`pack`]), [`UNREACHABLE`] without one.
    entries: Vec<u64>,
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
        let mut tree = RoutingTree::empty();
        tree.recompute(view, origins, label, None, &mut TreeScratch::default());
        tree
    }

    /// A tree with no entries, to be filled by [`RoutingTree::recompute`].
    fn empty() -> RoutingTree {
        RoutingTree {
            dst: Asn(0),
            entries: Vec::new(),
        }
    }

    /// The route kernel: [`RoutingTree::compute_multi`] into this tree's
    /// storage, with `scratch`'s buffers. With `scope`, phase 3 runs only
    /// over its members and their member customers, so the entries are
    /// exact on the scope and on the origins' ancestors only (see
    /// [`ScopedTree`]); with `None`, every entry is.
    fn recompute(
        &mut self,
        view: &GraphView,
        origins: &[Asn],
        label: Asn,
        scope: Option<&UpwardClosure>,
        scratch: &mut TreeScratch,
    ) {
        let n = view.n_ases();
        debug_assert!(n < 1 << 30, "route lengths must fit 30 bits");
        self.dst = label;
        let entries = &mut self.entries;
        entries.clear();
        entries.resize(n, UNREACHABLE);
        scratch.pending.resize(n, false);

        // ---- Phase 1: customer routes, flooding up provider edges. ----
        // Level-synchronous BFS so the (len, next) tiebreak is exact.
        let TreeScratch {
            frontier,
            next_frontier,
            pending,
            ancestors,
            ..
        } = scratch;
        frontier.clear();
        ancestors.clear();
        for &o in origins {
            let e = pack(RouteKind::Origin, 0, o);
            if e < entries[o.index()] {
                entries[o.index()] = e;
                frontier.push(o);
            }
        }
        // An AS joins a frontier once: its first level gives it the
        // shortest customer route, and no later candidate beats that.
        ancestors.extend_from_slice(frontier);
        let mut level = 0u32;
        while !frontier.is_empty() {
            level += 1;
            next_frontier.clear();
            for &u in frontier.iter() {
                // u exports its (customer/origin) route to its providers;
                // from theirs the route is learned from a customer.
                let cand = pack(RouteKind::Customer, level, u);
                for &v in view.providers(u) {
                    if cand < entries[v.index()] {
                        entries[v.index()] = cand;
                        if !std::mem::replace(&mut pending[v.index()], true) {
                            next_frontier.push(v);
                        }
                    }
                }
            }
            for &v in next_frontier.iter() {
                pending[v.index()] = false;
            }
            ancestors.extend_from_slice(next_frontier);
            std::mem::swap(frontier, next_frontier);
        }

        // ---- Phase 2: peer routes (one peer edge crossing). ----
        // Exporters: ASes holding Origin/Customer routes.
        for &u in ancestors.iter() {
            let cand = pack(RouteKind::Peer, len_of(entries[u.index()]) + 1, u);
            for &v in view.peers(u) {
                if cand < entries[v.index()] {
                    entries[v.index()] = cand;
                }
            }
        }

        // ---- Phase 3: provider routes, flooding down customer edges. ----
        // Multi-source shortest-path over customer edges, sources = every
        // AS in scope that currently holds a route, keyed by current
        // route length. Bucketed BFS by length keeps it O(V+E).
        match scope {
            None => {
                for (i, &e) in entries.iter().enumerate() {
                    if e != UNREACHABLE {
                        scratch.bucket(len_of(e)).push(Asn(i as u32));
                    }
                }
            }
            Some(c) => {
                for &u in &c.members {
                    let e = entries[u.index()];
                    if e != UNREACHABLE {
                        scratch.bucket(len_of(e)).push(u);
                    }
                }
            }
        }
        let mut l = 0;
        while l < scratch.buckets.len() {
            let mut us = std::mem::take(&mut scratch.buckets[l]);
            for &u in &us {
                // u may have been improved since it was bucketed; only
                // export its *current* route if the length still matches.
                if len_of(entries[u.index()]) as usize != l {
                    continue;
                }
                let cand = pack(RouteKind::Provider, l as u32 + 1, u);
                let customers = match scope {
                    None => view.customers(u),
                    Some(c) => c.member_customers(u),
                };
                for &v in customers {
                    if cand < entries[v.index()] {
                        entries[v.index()] = cand;
                        scratch.bucket(l as u32 + 1).push(v);
                    }
                }
            }
            us.clear();
            scratch.buckets[l] = us;
            l += 1;
        }

        itm_obs::counter!("routing.trees_computed").inc();
        if scope.is_none() && itm_obs::enabled() {
            itm_obs::histogram!("routing.tree_reachable").record(self.reachable_count() as u64);
        }
        if itm_obs::trace::enabled() {
            let detail = match scope {
                None => format!(
                    "{} origins, {} reachable",
                    origins.len(),
                    self.reachable_count()
                ),
                Some(c) => format!(
                    "{} origins, resolved on {} ancestors and a {}-AS upward closure",
                    origins.len(),
                    scratch.ancestors.len(),
                    c.len()
                ),
            };
            itm_obs::trace::emit(
                itm_obs::trace::Technique::Routing,
                itm_obs::trace::EventKind::RouteResolved,
                itm_obs::trace::Subjects::none().asn(label.raw()),
                &detail,
            );
        }
    }

    /// The best route at `asn`, if the destination is reachable.
    pub fn route(&self, asn: Asn) -> Option<RouteEntry> {
        unpack(self.entries[asn.index()])
    }

    /// The AS path from `src` to the destination, inclusive of both ends.
    /// `None` if unreachable.
    pub fn path(&self, src: Asn) -> Option<Vec<Asn>> {
        let mut path = vec![src];
        let mut cur = src;
        loop {
            let e = self.route(cur)?;
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
        self.route(src).map(|e| e.len)
    }

    /// The origin AS `src`'s traffic ultimately reaches (for anycast trees
    /// this identifies the winning origin): the last AS of
    /// [`RoutingTree::path`], found without building the path.
    pub fn origin_reached(&self, src: Asn) -> Option<Asn> {
        let mut cur = src;
        // The same cycle guard as `path`: no path is longer than the AS
        // count.
        for _ in 0..=self.entries.len() {
            let e = self.route(cur)?;
            if e.kind == RouteKind::Origin {
                return Some(cur);
            }
            cur = e.next;
        }
        None
    }

    /// Number of ASes with a route.
    pub fn reachable_count(&self) -> usize {
        self.entries.iter().filter(|&&e| e != UNREACHABLE).count()
    }
}

/// An upward-closed set of ASes in a view: some seed ASes and every AS
/// above one along customer→provider edges, so every provider of a
/// member is a member. The scope of a [`ScopedTree`].
#[derive(Debug, Clone)]
pub struct UpwardClosure {
    /// Per AS, its index in `members`, or `u32::MAX` outside the set.
    slot: Vec<u32>,
    /// The members, ascending.
    members: Vec<Asn>,
    /// Member `k`'s member customers are `customers[starts[k]..starts[k + 1]]`.
    starts: Vec<u32>,
    /// Each member's customers that are members, ascending.
    customers: Vec<Asn>,
}

impl UpwardClosure {
    /// The upward closure of `seeds` in `view`.
    pub fn of(view: &GraphView, seeds: &[Asn]) -> UpwardClosure {
        let n = view.n_ases();
        let mut inside = vec![false; n];
        let mut stack = seeds.to_vec();
        while let Some(u) = stack.pop() {
            if !std::mem::replace(&mut inside[u.index()], true) {
                stack.extend_from_slice(view.providers(u));
            }
        }
        let members: Vec<Asn> = (0..n)
            .filter(|&i| inside[i])
            .map(|i| Asn(i as u32))
            .collect();
        let mut slot = vec![u32::MAX; n];
        let mut starts = vec![0];
        let mut customers = Vec::new();
        for (k, &m) in members.iter().enumerate() {
            slot[m.index()] = k as u32;
            customers.extend(view.customers(m).iter().filter(|c| inside[c.index()]));
            starts.push(customers.len() as u32);
        }
        UpwardClosure {
            slot,
            members,
            starts,
            customers,
        }
    }

    /// Whether `asn` is a member.
    pub fn contains(&self, asn: Asn) -> bool {
        self.slot.get(asn.index()).is_some_and(|&k| k != u32::MAX)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The customers of member `u` that are members.
    fn member_customers(&self, u: Asn) -> &[Asn] {
        let k = self.slot[u.index()] as usize;
        &self.customers[self.starts[k] as usize..self.starts[k + 1] as usize]
    }
}

/// Best routes toward one destination `d`, resolved exactly only where a
/// walk from an [`UpwardClosure`] `C` can go: on `C` and on `A(d)`, the
/// ASes holding an origin or customer route (`d` and its ancestors).
///
/// A best path from a member of `C` climbs provider edges, crosses at
/// most one peer edge and then descends customer edges. The climb stays
/// in `C`, which is upward closed; the AS after the peer edge and every
/// AS on the descent hold a customer or origin route, so lie in `A(d)`.
/// The kernel runs phases 1 and 2 in full, which gives every route in
/// `A(d)` and every peer route, and phase 3 only over `C` and the
/// customer edges between members. Phase 3 reaches a member only from
/// its providers, all members too, so each member's entry is the one
/// [`RoutingTree::compute`] gives it. Entries outside `C ∪ A(d)` are not
/// resolved, and [`ScopedTree::route`] does not hand them out.
///
/// One tree's storage and buffers serve every destination it is
/// computed for.
#[derive(Debug)]
pub struct ScopedTree<'a> {
    view: &'a GraphView,
    scope: &'a UpwardClosure,
    tree: RoutingTree,
    scratch: TreeScratch,
}

impl<'a> ScopedTree<'a> {
    /// A tree over `view` scoped to `scope`, which must be an upward
    /// closure in `view` ([`UpwardClosure::of`]); no destination is
    /// computed yet.
    pub fn new(view: &'a GraphView, scope: &'a UpwardClosure) -> ScopedTree<'a> {
        debug_assert_eq!(scope.slot.len(), view.n_ases(), "scope of another view");
        ScopedTree {
            view,
            scope,
            tree: RoutingTree::empty(),
            scratch: TreeScratch::default(),
        }
    }

    /// Resolve the routes toward `dst`, replacing the previous ones.
    pub fn compute(&mut self, dst: Asn) {
        self.tree
            .recompute(self.view, &[dst], dst, Some(self.scope), &mut self.scratch);
    }

    /// The destination of the last [`ScopedTree::compute`].
    pub fn dst(&self) -> Asn {
        self.tree.dst
    }

    /// The best route at `asn` if it lies in the scope or among the
    /// destination's ancestors (`Some(None)` when it has no route), and
    /// `None` outside both, where the entry is not resolved.
    pub fn route(&self, asn: Asn) -> Option<Option<RouteEntry>> {
        let e = *self.tree.entries.get(asn.index())?;
        let ancestor = e >> 62 <= RouteKind::Customer as u64;
        (ancestor || self.scope.contains(asn)).then(|| unpack(e))
    }

    /// The AS path from `src` to the destination, as
    /// [`RoutingTree::path`] gives it; `None` when unreachable or when
    /// `src` is outside the resolved ASes.
    pub fn path(&self, src: Asn) -> Option<Vec<Asn>> {
        self.route(src)??;
        self.tree.path(src)
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
