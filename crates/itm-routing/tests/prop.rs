//! Property-based tests for route computation: the Gao–Rexford invariants
//! must hold on *every* topology the generator can produce, and on random
//! synthetic graphs. The route kernel is checked entry by entry against a
//! sorting reference, and the cone rule behind incremental public views
//! and retained anycast catchments gets its own properties; both honour
//! `PROPTEST_CASES`. So does the feeder-closure rule behind the public
//! view's scoped trees: a scoped tree equals the full tree on the
//! feeders' upward closure and the destination's ancestors, and the
//! public view, the visible links and the archived paths equal walks of
//! full trees — on flapped small topologies and on random graphs with
//! multi-homed ASes and provider cycles, for empty, single-stub, random
//! and all-AS feeder sets.

use itm_routing::{
    flapped_cones, AnycastDeployment, Catchments, CollectorSet, GraphView, RouteEntry, RouteKind,
    RoutingTree, ScopedTree, UpwardClosure, VisibilityReport,
};
use itm_topology::{
    generate, AsRel, Link, LinkClass, LinkId, NeighborKind, Topology, TopologyConfig,
};
use itm_types::rng::SeedDomain;
use itm_types::Asn;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet};
use std::sync::OnceLock;

/// Build a random small connected policy graph: node 0 is the root
/// provider; every node i>0 buys transit from some j<i; extra peer links
/// sprinkle on top.
fn arb_graph() -> impl Strategy<Value = (usize, Vec<Link>)> {
    (3usize..24).prop_flat_map(|n| {
        let providers: Vec<BoxedStrategy<u32>> = (1..n).map(|i| (0..i as u32).boxed()).collect();
        let peers = proptest::collection::vec((0..n as u32, 0..n as u32), 0..n);
        (providers, peers).prop_map(move |(prov, peers)| (n, policy_links(&prov, &peers)))
    })
}

/// AS `i + 1` buys transit from `providers[i]`, and each distinct
/// non-self pair of `peers` not already linked peers.
fn policy_links(providers: &[u32], peers: &[(u32, u32)]) -> Vec<Link> {
    let mut links: Vec<Link> = providers
        .iter()
        .enumerate()
        .map(|(i, &p)| Link::transit(Asn(i as u32 + 1), Asn(p)))
        .collect();
    for &(a, b) in peers {
        let link = Link::peering(Asn(a.min(b)), Asn(a.max(b)), LinkClass::Transit);
        if a != b && !links.iter().any(|l| l.key() == link.key()) {
            links.push(link);
        }
    }
    links
}

/// Check that a path is valley-free and matches the view's relationships:
/// once the path goes "down" (provider→customer) or crosses a peer link,
/// it may never go "up" or cross another peer link again.
fn assert_valley_free(view: &GraphView, path: &[Asn]) {
    let mut descended = false;
    let mut peered = false;
    for w in path.windows(2) {
        let kind = view
            .neighbors(w[0])
            .iter()
            .find(|(n, _)| *n == w[1])
            .map(|(_, k)| *k)
            .expect("path uses real links");
        match kind {
            // w[0] -> its provider: going up.
            NeighborKind::Provider => {
                assert!(!descended && !peered, "valley in path {path:?}");
            }
            NeighborKind::Peer => {
                assert!(!descended && !peered, "second lateral move in {path:?}");
                peered = true;
            }
            NeighborKind::Customer => {
                descended = true;
            }
        }
    }
}

proptest! {
    #[test]
    fn routes_are_valley_free_on_random_graphs((n, links) in arb_graph()) {
        let view = GraphView::from_links(n, &links);
        for dst in 0..n {
            let tree = RoutingTree::compute(&view, Asn(dst as u32));
            for src in 0..n {
                if let Some(path) = tree.path(Asn(src as u32)) {
                    prop_assert_eq!(*path.first().unwrap(), Asn(src as u32));
                    prop_assert_eq!(*path.last().unwrap(), Asn(dst as u32));
                    // Loop-free.
                    let mut sorted: Vec<Asn> = path.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    prop_assert_eq!(sorted.len(), path.len());
                    assert_valley_free(&view, &path);
                }
            }
        }
    }

    #[test]
    fn everyone_reaches_everyone_via_transit_root((n, links) in arb_graph()) {
        // The transit skeleton alone makes the graph connected (node 0 is
        // an ancestor of everyone), so all destinations are reachable.
        let view = GraphView::from_links(n, &links);
        for dst in 0..n {
            let tree = RoutingTree::compute(&view, Asn(dst as u32));
            prop_assert_eq!(tree.reachable_count(), n, "dst {}", dst);
        }
    }

    #[test]
    fn route_lengths_are_consistent((n, links) in arb_graph()) {
        let view = GraphView::from_links(n, &links);
        for dst in 0..n.min(6) {
            let tree = RoutingTree::compute(&view, Asn(dst as u32));
            for src in 0..n {
                if let Some(path) = tree.path(Asn(src as u32)) {
                    prop_assert_eq!(
                        path.len() as u32 - 1,
                        tree.path_len(Asn(src as u32)).unwrap()
                    );
                }
            }
        }
    }

    #[test]
    fn preference_order_holds((n, links) in arb_graph()) {
        // If an AS has a customer route available (a customer of it holds
        // a route), it must never select a provider route *longer or
        // equal*… stronger: selected kind must be the best available kind.
        let view = GraphView::from_links(n, &links);
        for dst in 0..n.min(5) {
            let tree = RoutingTree::compute(&view, Asn(dst as u32));
            for src in 0..n {
                let Some(e) = tree.route(Asn(src as u32)) else { continue };
                if e.kind == RouteKind::Origin {
                    continue;
                }
                // Any neighbor relationship that would give a better kind?
                for &(nb, kind) in view.neighbors(Asn(src as u32)) {
                    let nb_route = tree.route(nb);
                    let Some(nb_e) = nb_route else { continue };
                    // A customer neighbor holding an exportable
                    // (customer/origin) route implies src could have a
                    // Customer-kind route; selection must then be Customer.
                    if kind == NeighborKind::Customer
                        && matches!(nb_e.kind, RouteKind::Origin | RouteKind::Customer)
                    {
                        // nb's route must not itself pass through src.
                        let nb_path = tree.path(nb).unwrap();
                        if !nb_path.contains(&Asn(src as u32)) {
                            prop_assert_eq!(
                                e.kind, RouteKind::Customer,
                                "src {} picked {:?} despite customer route via {}",
                                src, e.kind, nb
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn generated_topologies_route_valley_free() {
    // The generator's real output, not just synthetic graphs.
    let topo = generate(&TopologyConfig::small(), 77).unwrap();
    let view = GraphView::full(&topo);
    for &hg in &topo.hypergiants() {
        let tree = RoutingTree::compute(&view, hg);
        assert_eq!(tree.reachable_count(), topo.n_ases());
        for i in (0..topo.n_ases()).step_by(7) {
            if let Some(path) = tree.path(Asn(i as u32)) {
                assert_valley_free(&view, &path);
            }
        }
    }
}

/// Membership flags of `x`'s customer cone in `view`: `x` and every AS
/// below it along provider→customer edges.
fn cone(view: &GraphView, x: Asn) -> Vec<bool> {
    let mut member = vec![false; view.n_ases()];
    let mut stack = vec![x];
    while let Some(u) = stack.pop() {
        if !std::mem::replace(&mut member[u.index()], true) {
            for &(c, kind) in view.neighbors(u) {
                if kind == NeighborKind::Customer {
                    stack.push(c);
                }
            }
        }
    }
    member
}

/// Small generated Internets, built once for the whole test binary.
fn small_topologies() -> &'static [Topology] {
    static TOPOS: OnceLock<Vec<Topology>> = OnceLock::new();
    TOPOS.get_or_init(|| {
        (0..3)
            .map(|seed| generate(&TopologyConfig::small(), seed).unwrap())
            .collect()
    })
}

/// Run `n` shards last-first, as a worker pool may finish them, and
/// return the results in shard order.
fn shards_last_first<T>(n: usize, job: &(dyn Fn(usize) -> T + Sync)) -> Vec<T> {
    let mut done: Vec<T> = (0..n).rev().map(job).collect();
    done.reverse();
    done
}

/// A previous report with the [`flapped_cones`] of `topo` since it was
/// computed, or `None` where the public view must take the full pass.
fn with_reach<'a>(
    topo: &Topology,
    full: &GraphView,
    prev: Option<&'a VisibilityReport>,
) -> Option<(&'a VisibilityReport, Vec<bool>)> {
    let prev = prev?;
    Some((prev, flapped_cones(topo, full, prev.links_down()?)?))
}

/// [`with_reach`]'s result as `public_view_with` takes it.
fn as_prev<'a>(
    r: &'a Option<(&'a VisibilityReport, Vec<bool>)>,
) -> Option<(&'a VisibilityReport, &'a [bool])> {
    r.as_ref().map(|(p, reach)| (*p, &reach[..]))
}

fn assert_same_view(
    n: usize,
    (got_view, got): &(GraphView, VisibilityReport),
    (want_view, want): &(GraphView, VisibilityReport),
) -> Result<(), String> {
    for i in 0..n {
        let asn = Asn(i as u32);
        prop_assert_eq!(
            got_view.neighbors(asn),
            want_view.neighbors(asn),
            "AS {}",
            i
        );
    }
    prop_assert_eq!(&got.by_class, &want.by_class);
    prop_assert_eq!(got.total, want.total);
    prop_assert_eq!(got.visible, want.visible);
    Ok(())
}

proptest! {
    #[test]
    fn a_peer_link_only_reaches_destinations_in_its_cones(
        (n, links) in arb_graph(),
        pick in any::<usize>(),
    ) {
        let peers: Vec<usize> = (0..links.len())
            .filter(|&i| links[i].rel == AsRel::PeerToPeer)
            .collect();
        prop_assume!(!peers.is_empty());
        let k = peers[pick % peers.len()];
        let with = GraphView::from_links(n, &links);
        let without = GraphView::from_links(
            n,
            links.iter().enumerate().filter(|&(i, _)| i != k).map(|(_, l)| l),
        );
        let (ca, cb) = (cone(&with, links[k].a), cone(&with, links[k].b));
        for dst in (0..n).filter(|&d| !ca[d] && !cb[d]) {
            let up = RoutingTree::compute(&with, Asn(dst as u32));
            let down = RoutingTree::compute(&without, Asn(dst as u32));
            for x in 0..n {
                let x = Asn(x as u32);
                prop_assert_eq!(up.route(x), down.route(x), "dst {} at {}", dst, x);
            }
        }
    }

    #[test]
    fn incremental_public_view_equals_a_fresh_one(
        topo_at in 0usize..3,
        steps in proptest::collection::vec(
            proptest::collection::vec(any::<usize>(), 1..5),
            1..5,
        ),
        transit_pick in any::<usize>(),
    ) {
        let mut topo = small_topologies()[topo_at].clone();
        let collectors = CollectorSet::typical(&topo, &SeedDomain::new(topo_at as u64));
        let peering: Vec<(Asn, Asn)> =
            topo.links.iter().filter(|l| l.is_peering()).map(|l| l.key()).collect();
        // Transit links a feeder buys: a flap there changes the feeder's
        // paths to destinations far outside the link's cones.
        let transit: Vec<(Asn, Asn)> = topo
            .links
            .iter()
            .filter(|l| l.rel == AsRel::CustomerToProvider && collectors.feeders.contains(&l.a))
            .map(|l| l.key())
            .collect();
        prop_assume!(!transit.is_empty());
        // One step also toggles a transit link, which forces the full pass.
        let transit_step = transit_pick % steps.len();
        let (mut prev_seq, mut prev_rev): (Option<VisibilityReport>, Option<VisibilityReport>) =
            (None, None);
        for (i, flaps) in steps.iter().enumerate() {
            for &f in flaps {
                topo.toggle_link_down(peering[f % peering.len()]);
            }
            if i == transit_step {
                topo.toggle_link_down(transit[transit_pick % transit.len()]);
            }
            let want = collectors.public_view(&topo);
            let full = GraphView::full(&topo);
            let reach_seq = with_reach(&topo, &full, prev_seq.as_ref());
            let seq = collectors.public_view_with(&topo, &full, as_prev(&reach_seq), |n, job| {
                (0..n).map(job).collect()
            });
            let reach_rev = with_reach(&topo, &full, prev_rev.as_ref());
            let rev =
                collectors.public_view_with(&topo, &full, as_prev(&reach_rev), shards_last_first);
            assert_same_view(topo.n_ases(), &seq, &want)?;
            assert_same_view(topo.n_ases(), &rev, &want)?;
            prev_seq = Some(seq.1);
            prev_rev = Some(rev.1);
        }
    }
}

/// The route computation as it stood before the packed kernel: one
/// `Option<RouteEntry>` per AS, every neighbor list filtered by kind, and
/// each frontier and length bucket sorted before it is visited. Kept as
/// the oracle the kernel must match entry by entry.
fn reference_tree(view: &GraphView, origins: &[Asn]) -> Vec<Option<RouteEntry>> {
    let rank = |k: RouteKind| match k {
        RouteKind::Origin => 0u8,
        RouteKind::Customer => 1,
        RouteKind::Peer => 2,
        RouteKind::Provider => 3,
    };
    let n = view.n_ases();
    let mut entries: Vec<Option<RouteEntry>> = vec![None; n];
    let better = |cur: &Option<RouteEntry>, cand: RouteEntry| -> bool {
        match cur {
            None => true,
            Some(c) => (rank(cand.kind), cand.len, cand.next) < (rank(c.kind), c.len, c.next),
        }
    };

    // Phase 1: customer routes, flooding up provider edges.
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
    let mut pending = vec![false; n];
    while !frontier.is_empty() {
        level += 1;
        let mut next_frontier: Vec<Asn> = Vec::new();
        frontier.sort_unstable();
        for &u in &frontier {
            for &(v, kind) in view.neighbors(u) {
                if kind != NeighborKind::Provider {
                    continue;
                }
                let cand = RouteEntry {
                    kind: RouteKind::Customer,
                    len: level,
                    next: u,
                };
                if better(&entries[v.index()], cand) {
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

    // Phase 2: peer routes (one peer edge crossing).
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

    // Phase 3: provider routes, flooding down customer edges.
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
            let Some(e) = entries[u.index()] else {
                continue;
            };
            if e.len as usize != l {
                continue;
            }
            for &(v, kind) in view.neighbors(u) {
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
    entries
}

/// Every entry of the kernel's tree for `origins` equals the reference's.
fn assert_matches_reference(view: &GraphView, origins: &[Asn]) -> Result<(), String> {
    let want = reference_tree(view, origins);
    let got = RoutingTree::compute_multi(view, origins, origins[0]);
    for (i, want) in want.iter().enumerate() {
        prop_assert_eq!(
            got.route(Asn(i as u32)),
            *want,
            "origins {:?} at AS {}",
            origins,
            i
        );
    }
    prop_assert_eq!(got.reachable_count(), want.iter().flatten().count());
    Ok(())
}

/// The kind-split slices of every AS equal its neighbor list filtered by
/// kind, in the same order.
fn assert_kind_split(view: &GraphView) -> Result<(), String> {
    for i in 0..view.n_ases() {
        let u = Asn(i as u32);
        let of = |kind| -> Vec<Asn> {
            view.neighbors(u)
                .iter()
                .filter(|&&(_, k)| k == kind)
                .map(|&(v, _)| v)
                .collect()
        };
        prop_assert_eq!(
            view.providers(u),
            &of(NeighborKind::Provider)[..],
            "AS {}",
            i
        );
        prop_assert_eq!(view.peers(u), &of(NeighborKind::Peer)[..], "AS {}", i);
        prop_assert_eq!(
            view.customers(u),
            &of(NeighborKind::Customer)[..],
            "AS {}",
            i
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn kernel_matches_the_sorting_reference_on_random_graphs(
        (n, links) in arb_graph(),
        picks in proptest::collection::vec(any::<usize>(), 1..4),
        extra in proptest::collection::vec((any::<usize>(), any::<usize>()), 0..3),
    ) {
        let view = GraphView::from_links(n, &links);
        // Extra links may repeat or contradict existing ones.
        let extra: Vec<Link> = extra
            .iter()
            .map(|&(a, b)| Link::transit(Asn((a % n) as u32), Asn((b % n) as u32)))
            .filter(|l| l.a != l.b)
            .collect();
        for view in [view.clone(), view.with_extra_links(&extra)] {
            assert_kind_split(&view)?;
            let origins: Vec<Asn> = picks.iter().map(|&p| Asn((p % n) as u32)).collect();
            assert_matches_reference(&view, &origins)?;
            for dst in 0..n {
                assert_matches_reference(&view, &[Asn(dst as u32)])?;
            }
        }
    }

    #[test]
    fn kernel_matches_the_sorting_reference_on_flapped_topologies(
        topo_at in 0usize..3,
        flaps in proptest::collection::vec(any::<usize>(), 0..12),
        picks in proptest::collection::vec(any::<usize>(), 1..4),
    ) {
        let mut topo = small_topologies()[topo_at].clone();
        for &f in &flaps {
            let key = topo.links[f % topo.links.len()].key();
            topo.toggle_link_down(key);
        }
        let view = GraphView::full(&topo);
        assert_kind_split(&view)?;
        let n = topo.n_ases();
        let origins: Vec<Asn> = picks.iter().map(|&p| Asn((p % n) as u32)).collect();
        assert_matches_reference(&view, &origins)?;
        for &p in &picks {
            assert_matches_reference(&view, &[Asn((p.rotate_left(17) % n) as u32)])?;
        }
    }
}

/// A random policy graph over the ASes of a small generated Internet
/// (their classes and cities kept, every link replaced): AS `i > 0` buys
/// transit from some `j < i`, and random peer links sprinkle on top.
fn arb_world() -> impl Strategy<Value = Topology> {
    (0usize..3).prop_flat_map(|at| {
        let n = small_topologies()[at].n_ases();
        let providers: Vec<BoxedStrategy<u32>> = (1..n).map(|i| (0..i as u32).boxed()).collect();
        let peers = proptest::collection::vec((0..n as u32, 0..n as u32), 0..2 * n);
        (providers, peers).prop_map(move |(prov, peers)| {
            let base = &small_topologies()[at];
            Topology::from_parts(
                base.config.clone(),
                base.seed,
                base.world.clone(),
                base.ases.clone(),
                policy_links(&prov, &peers),
                base.facilities.clone(),
                base.ixps.clone(),
                base.prefixes.clone(),
                base.offnets.clone(),
            )
        })
    })
}

/// Flap the peering links `history` picks, then the ones `step` picks,
/// and check the cone rule for anycast across `step`: every deployment
/// none of whose origins lies in a flapped cone has the same multi-origin
/// tree, entry for entry, and the same catchments before and after.
/// `sites` picks site ASes among the unmarked ASes (so every such
/// deployment is checked) and `free` among all ASes.
fn check_untouched_deployments(
    mut topo: Topology,
    history: &[usize],
    step: &[usize],
    sites: &[Vec<(usize, usize)>],
    free: &[Vec<(usize, usize)>],
) -> Result<(), String> {
    let peering: Vec<(Asn, Asn)> = topo
        .links
        .iter()
        .filter(|l| l.is_peering())
        .map(|l| l.key())
        .collect();
    prop_assume!(!peering.is_empty());
    for &f in history {
        topo.toggle_link_down(peering[f % peering.len()]);
    }
    let before = topo.clone();
    for &f in step {
        topo.toggle_link_down(peering[f % peering.len()]);
    }
    let (view_before, view_after) = (GraphView::full(&before), GraphView::full(&topo));
    let reach = flapped_cones(&topo, &view_after, before.links_down());
    let reach = reach.ok_or("a peering flap fell back to the full pass")?;
    let unmarked: Vec<Asn> = (0..topo.n_ases())
        .filter(|&i| !reach[i])
        .map(|i| Asn(i as u32))
        .collect();
    let n_cities = topo.world.cities.len();
    let picked = sites.iter().filter(|_| !unmarked.is_empty()).map(|d| {
        d.iter()
            .map(|&(a, c)| (unmarked[a % unmarked.len()], (c % n_cities) as u32))
            .collect::<Vec<_>>()
    });
    let drawn = free.iter().map(|d| {
        d.iter()
            .map(|&(a, c)| (Asn((a % topo.n_ases()) as u32), (c % n_cities) as u32))
            .collect::<Vec<_>>()
    });
    for sites in picked.chain(drawn) {
        let dep = AnycastDeployment::new(&topo, &sites, 0.3);
        let origins = dep.origin_ases();
        if origins.iter().any(|o| reach[o.index()]) {
            continue;
        }
        let up = RoutingTree::compute_multi(&view_before, &origins, origins[0]);
        let down = RoutingTree::compute_multi(&view_after, &origins, origins[0]);
        let seeds = SeedDomain::new(origins[0].raw() as u64);
        let kept = Catchments::compute(&before, &view_before, &dep, &seeds);
        let fresh = Catchments::compute(&topo, &view_after, &dep, &seeds);
        for x in 0..topo.n_ases() {
            let x = Asn(x as u32);
            prop_assert_eq!(
                up.route(x),
                down.route(x),
                "origins {:?} at {}",
                &origins,
                x
            );
            prop_assert_eq!(
                kept.site_of(x),
                fresh.site_of(x),
                "origins {:?} at {}",
                &origins,
                x
            );
        }
    }
    Ok(())
}

/// Up to three deployments of one to four (AS pick, city pick) sites.
fn arb_deployments() -> impl Strategy<Value = Vec<Vec<(usize, usize)>>> {
    proptest::collection::vec(
        proptest::collection::vec((any::<usize>(), any::<usize>()), 1..5),
        0..4,
    )
}

proptest! {
    #[test]
    fn catchments_outside_the_flapped_cones_survive_on_small_topologies(
        topo_at in 0usize..3,
        history in proptest::collection::vec(any::<usize>(), 0..6),
        step in proptest::collection::vec(any::<usize>(), 1..5),
        sites in arb_deployments(),
        free in arb_deployments(),
    ) {
        let topo = small_topologies()[topo_at].clone();
        check_untouched_deployments(topo, &history, &step, &sites, &free)?;
    }

    #[test]
    fn catchments_outside_the_flapped_cones_survive_on_random_graphs(
        topo in arb_world(),
        history in proptest::collection::vec(any::<usize>(), 0..6),
        step in proptest::collection::vec(any::<usize>(), 1..5),
        sites in arb_deployments(),
        free in arb_deployments(),
    ) {
        check_untouched_deployments(topo, &history, &step, &sites, &free)?;
    }
}

/// A random policy graph over the ASes of a small generated Internet that
/// [`arb_world`]'s trees cannot produce: AS `i > 0` buys transit from some
/// `j < i` and `extra` adds transit edges between any two ASes, so ASes
/// are multi-homed and an edge up to a descendant closes a provider
/// cycle; random peer links sprinkle on top. Each pair of ASes is linked
/// at most once.
fn arb_tangled_world() -> impl Strategy<Value = Topology> {
    (0usize..3).prop_flat_map(|at| {
        let n = small_topologies()[at].n_ases();
        let providers: Vec<BoxedStrategy<u32>> = (1..n).map(|i| (0..i as u32).boxed()).collect();
        let extra = proptest::collection::vec((0..n as u32, 0..n as u32), 0..n);
        let peers = proptest::collection::vec((0..n as u32, 0..n as u32), 0..2 * n);
        (providers, extra, peers).prop_map(move |(prov, extra, peers)| {
            let mut linked = BTreeSet::new();
            let mut links = Vec::new();
            let edges = prov
                .iter()
                .enumerate()
                .map(|(i, &p)| (i as u32 + 1, p, false))
                .chain(extra.iter().map(|&(c, p)| (c, p, false)))
                .chain(peers.iter().map(|&(a, b)| (a, b, true)));
            for (a, b, peer) in edges {
                if a == b || !linked.insert((a.min(b), a.max(b))) {
                    continue;
                }
                links.push(if peer {
                    Link::peering(Asn(a.min(b)), Asn(a.max(b)), LinkClass::Transit)
                } else {
                    Link::transit(Asn(a), Asn(b))
                });
            }
            let base = &small_topologies()[at];
            Topology::from_parts(
                base.config.clone(),
                base.seed,
                base.world.clone(),
                base.ases.clone(),
                links,
                base.facilities.clone(),
                base.ixps.clone(),
                base.prefixes.clone(),
                base.offnets.clone(),
            )
        })
    })
}

/// A feeder set of kind `kind % 4`: none, one stub (an AS without
/// customers, picked by `pick`; none when there is no stub), every AS, or
/// the ASes `picks` draws. Ascending, as collector sets are.
fn feeder_set(view: &GraphView, kind: usize, pick: usize, picks: &[usize]) -> Vec<Asn> {
    let n = view.n_ases();
    let every = (0..n as u32).map(Asn);
    let mut feeders: Vec<Asn> = match kind % 4 {
        0 => Vec::new(),
        1 => {
            let stubs: Vec<Asn> = every.filter(|&a| view.customers(a).is_empty()).collect();
            stubs
                .get(pick % stubs.len().max(1))
                .copied()
                .into_iter()
                .collect()
        }
        2 => every.collect(),
        _ => picks.iter().map(|&p| Asn((p % n) as u32)).collect(),
    };
    feeders.sort_unstable();
    feeders.dedup();
    feeders
}

/// Membership flags of the ASes above any of `seeds` in `view`, seeds
/// included, by a plain walk up provider edges.
fn above(view: &GraphView, seeds: &[Asn]) -> Vec<bool> {
    let mut member = vec![false; view.n_ases()];
    let mut stack = seeds.to_vec();
    while let Some(u) = stack.pop() {
        if !std::mem::replace(&mut member[u.index()], true) {
            for &(p, kind) in view.neighbors(u) {
                if kind == NeighborKind::Provider {
                    stack.push(p);
                }
            }
        }
    }
    member
}

/// The id of the topology link between `a` and `b`.
fn link_id(topo: &Topology, a: Asn, b: Asn) -> LinkId {
    let nb = topo.neighbors(a).iter().find(|nb| nb.asn == b);
    nb.expect("a path uses real links").link
}

/// Check the feeder-closure rule on `topo`'s current view for `feeders`:
/// for every destination the scoped tree equals the full tree on the
/// feeders' upward closure `C` and the destination's ancestors `A(d)`
/// (the ASes the full tree gives an origin or customer route) and hands
/// out nothing else; and the public view's per-destination links (fresh
/// and sharded last-first), the visible links and the archived paths
/// equal the walks of every feeder's path in full trees.
fn check_feeder_scope(topo: &Topology, feeders: Vec<Asn>) -> Result<(), String> {
    let n = topo.n_ases();
    let view = GraphView::full(topo);
    let closure = UpwardClosure::of(&view, &feeders);
    let c = above(&view, &feeders);
    prop_assert_eq!(closure.len(), c.iter().filter(|&&m| m).count());
    prop_assert_eq!(closure.is_empty(), !c.contains(&true));
    let mut scoped = ScopedTree::new(&view, &closure);
    let mut want_links = Vec::new();
    let mut want_pairs = HashSet::new();
    let mut want_paths = Vec::new();
    for d in 0..n {
        let dst = Asn(d as u32);
        let full = RoutingTree::compute(&view, dst);
        scoped.compute(dst);
        prop_assert_eq!(scoped.dst(), dst);
        for (x, &in_c) in c.iter().enumerate() {
            let asn = Asn(x as u32);
            prop_assert_eq!(closure.contains(asn), in_c, "AS {}", x);
            let route = full.route(asn);
            let ancestor =
                route.is_some_and(|e| matches!(e.kind, RouteKind::Origin | RouteKind::Customer));
            let want = (in_c || ancestor).then_some(route);
            prop_assert_eq!(scoped.route(asn), want, "dst {} at AS {}", d, x);
        }
        let mut ids = Vec::new();
        for &f in &feeders {
            let path = full.path(f);
            prop_assert_eq!(scoped.path(f), path.clone(), "dst {} from feeder {}", d, f);
            let path = path.unwrap_or_default();
            for w in path.windows(2) {
                ids.push(link_id(topo, w[0], w[1]));
                want_pairs.insert((w[0].min(w[1]), w[0].max(w[1])));
            }
            if path.len() >= 2 {
                want_paths.push(path);
            }
        }
        ids.sort_unstable();
        ids.dedup();
        want_links.push(ids);
    }
    let collectors = CollectorSet { feeders };
    let fresh = collectors.public_view(topo);
    let sharded = collectors.public_view_with(topo, &view, None, shards_last_first);
    for (d, want) in want_links.iter().enumerate() {
        let dst = Asn(d as u32);
        prop_assert_eq!(fresh.1.feeder_links(dst), Some(&want[..]), "dst {}", d);
        prop_assert_eq!(sharded.1.feeder_links(dst), Some(&want[..]), "dst {}", d);
    }
    let visible: BTreeSet<LinkId> = want_links.iter().flatten().copied().collect();
    prop_assert_eq!(fresh.1.visible, visible.len());
    prop_assert_eq!(collectors.visible_links(topo, &view), want_pairs);
    prop_assert_eq!(collectors.archived_paths(topo, &view), want_paths);
    Ok(())
}

/// Feeder-set strategy inputs: the kind, a stub pick and random picks.
fn arb_feeders() -> impl Strategy<Value = (usize, usize, Vec<usize>)> {
    (
        0usize..4,
        any::<usize>(),
        proptest::collection::vec(any::<usize>(), 1..12),
    )
}

proptest! {
    #[test]
    fn scoped_trees_and_feeder_walks_hold_on_flapped_small_topologies(
        topo_at in 0usize..3,
        peer_flaps in proptest::collection::vec(any::<usize>(), 0..8),
        transit_flaps in proptest::collection::vec(any::<usize>(), 0..3),
        (kind, pick, picks) in arb_feeders(),
    ) {
        let mut topo = small_topologies()[topo_at].clone();
        let (peering, transit): (Vec<&Link>, Vec<&Link>) =
            topo.links.iter().partition(|l| l.is_peering());
        let keys = |links: &[&Link], picks: &[usize]| -> Vec<(Asn, Asn)> {
            picks.iter().map(|&f| links[f % links.len()].key()).collect()
        };
        let flaps = [keys(&peering, &peer_flaps), keys(&transit, &transit_flaps)].concat();
        for key in flaps {
            topo.toggle_link_down(key);
        }
        let feeders = feeder_set(&GraphView::full(&topo), kind, pick, &picks);
        check_feeder_scope(&topo, feeders)?;
    }

    #[test]
    fn scoped_trees_and_feeder_walks_hold_on_tangled_graphs(
        topo in arb_tangled_world(),
        (kind, pick, picks) in arb_feeders(),
    ) {
        let feeders = feeder_set(&GraphView::full(&topo), kind, pick, &picks);
        check_feeder_scope(&topo, feeders)?;
    }
}
