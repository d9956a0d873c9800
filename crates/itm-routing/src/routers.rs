//! Routers, interface addresses, and traceroute expansion.
//!
//! The AS-level substrate gets an IP-level veneer: one router per
//! (AS, city) point of presence, each with an interface address drawn from
//! the AS's infrastructure space. Traceroutes expand an AS path into router
//! hops with geography-derived RTTs. This is what the IP ID probing (E11)
//! pings, and what path-measurement campaigns "see".

use crate::bgp::RoutingTree;
use itm_topology::{PrefixKind, Topology};
use itm_types::{Asn, Ipv4Addr, RouterId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Speed of light in fibre, km per millisecond (≈ 2/3 c).
const FIBRE_KM_PER_MS: f64 = 200.0;

/// The router registry for a topology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RouterMap {
    /// (asn, city, interface address) per router, indexed by RouterId.
    routers: Vec<RouterRecord>,
    /// (asn, city) -> RouterId
    by_pop: BTreeMap<(Asn, u32), RouterId>,
}

/// One router.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RouterRecord {
    /// Dense id.
    pub id: RouterId,
    /// Owning AS.
    pub asn: Asn,
    /// City (world index).
    pub city: u32,
    /// Interface address answering pings.
    pub addr: Ipv4Addr,
}

impl RouterMap {
    /// Build one router per (AS, city) PoP. Interface addresses come from
    /// the AS's infrastructure prefixes; ASes without one (stubs) use the
    /// first address of their first prefix.
    pub fn build(topo: &Topology) -> RouterMap {
        let mut routers = Vec::new();
        let mut by_pop = BTreeMap::new();
        for a in &topo.ases {
            // Address pool: infra prefixes first, else anything it owns.
            let owned = topo.prefixes.owned_by(a.asn);
            let infra: Vec<_> = owned
                .iter()
                .filter(|&&p| topo.prefixes.get(p).kind == PrefixKind::Infrastructure)
                .collect();
            let pool: Vec<_> = if infra.is_empty() {
                owned.iter().collect()
            } else {
                infra
            };
            for (i, &city) in a.cities.iter().enumerate() {
                let id = RouterId(routers.len() as u32);
                // Hash-free deterministic address: i-th host of the
                // (i mod pool)-th pool prefix. Offset by 1 to skip .0.
                let addr = if pool.is_empty() {
                    // Pathological config (AS with zero prefixes): park the
                    // router in unrouted space; pings will simply miss.
                    Ipv4Addr::new(127, 0, (a.asn.raw() >> 8) as u8, a.asn.raw() as u8)
                } else {
                    let p = topo.prefixes.get(*pool[i % pool.len()]);
                    p.net.addr((i / pool.len()) as u32 + 1)
                };
                routers.push(RouterRecord {
                    id,
                    asn: a.asn,
                    city,
                    addr,
                });
                by_pop.insert((a.asn, city), id);
            }
        }
        RouterMap { routers, by_pop }
    }

    /// Number of routers.
    pub fn len(&self) -> usize {
        self.routers.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.routers.is_empty()
    }

    /// Record by id.
    pub fn get(&self, id: RouterId) -> &RouterRecord {
        &self.routers[id.index()]
    }

    /// All routers.
    pub fn iter(&self) -> impl Iterator<Item = &RouterRecord> {
        self.routers.iter()
    }

    /// The router of an (AS, city) PoP.
    fn at_pop(&self, asn: Asn, city: u32) -> Option<RouterId> {
        self.by_pop.get(&(asn, city)).copied()
    }

    /// The AS's router nearest to a given city (geodesically), `None` for
    /// an AS with no cities (rejected by topology invariants, but the map
    /// never panics on a hand-built one).
    pub fn nearest_router_of(&self, topo: &Topology, asn: Asn, city: u32) -> Option<RouterId> {
        let target = topo.city_location(city);
        let a = topo.as_info(asn);
        let best_city = a
            .cities
            .iter()
            .min_by(|&&x, &&y| {
                topo.city_location(x)
                    .distance_km(target)
                    .total_cmp(&topo.city_location(y).distance_km(target))
            })
            .copied()?;
        self.at_pop(asn, best_city)
    }
}

/// One traceroute hop.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Hop {
    /// The AS the hop belongs to.
    pub asn: Asn,
    /// The responding router.
    pub router: RouterId,
    /// Its interface address.
    pub addr: Ipv4Addr,
    /// Cumulative RTT from the source, in milliseconds.
    pub rtt_ms: f64,
}

/// A measured forward path.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Traceroute {
    /// Source AS.
    pub src: Asn,
    /// Destination AS.
    pub dst: Asn,
    /// Hops, source-side first. The source's own router is hop 0.
    pub hops: Vec<Hop>,
}

impl Traceroute {
    /// Expand the BGP path from `src` in `tree` into router-level hops.
    ///
    /// Each AS on the path contributes the router nearest (in its own
    /// footprint) to the previous hop's city — a crude but standard model
    /// of early-exit/hot-potato intradomain routing. RTT accumulates
    /// 2×(distance / fibre speed) plus a 0.3 ms per-hop processing fee.
    pub fn run(
        topo: &Topology,
        routers: &RouterMap,
        tree: &RoutingTree,
        src: Asn,
    ) -> Option<Traceroute> {
        let path = tree.path(src)?;
        let mut hops = Vec::with_capacity(path.len());
        let mut cur_city = topo.as_info(src).cities[0];
        let mut rtt = 0.0f64;
        let mut prev_loc = topo.city_location(cur_city);
        for &asn in &path {
            let rid = routers.nearest_router_of(topo, asn, cur_city)?;
            let rec = routers.get(rid);
            let loc = topo.city_location(rec.city);
            rtt += 2.0 * prev_loc.distance_km(loc) / FIBRE_KM_PER_MS + 0.3;
            hops.push(Hop {
                asn,
                router: rid,
                addr: rec.addr,
                rtt_ms: rtt,
            });
            cur_city = rec.city;
            prev_loc = loc;
        }
        Some(Traceroute {
            src,
            dst: tree.dst,
            hops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::GraphView;
    use itm_topology::{generate, TopologyConfig};

    fn setup() -> (Topology, RouterMap) {
        let t = generate(&TopologyConfig::small(), 9).unwrap();
        let r = RouterMap::build(&t);
        (t, r)
    }

    #[test]
    fn one_router_per_pop() {
        let (t, r) = setup();
        let pops: usize = t.ases.iter().map(|a| a.cities.len()).sum();
        assert_eq!(r.len(), pops);
        for a in &t.ases {
            for &c in &a.cities {
                let id = r.at_pop(a.asn, c).expect("router per pop");
                let rec = r.get(id);
                assert_eq!(rec.asn, a.asn);
                assert_eq!(rec.city, c);
            }
        }
    }

    #[test]
    fn router_addresses_live_in_owner_prefixes() {
        let (t, r) = setup();
        // Addresses live inside the owner's prefixes (when it has any).
        for rec in r.iter() {
            if let Some(p) = t.prefixes.lookup(rec.addr) {
                assert_eq!(p.owner, rec.asn);
            }
        }
    }

    #[test]
    fn traceroute_follows_bgp_path() {
        let (t, r) = setup();
        let view = GraphView::full(&t);
        let dst = t.hypergiants()[0];
        let tree = RoutingTree::compute(&view, dst);
        let src = Asn((t.n_ases() - 1) as u32);
        let tr = Traceroute::run(&t, &r, &tree, src).unwrap();
        let as_path: Vec<Asn> = tr.hops.iter().map(|h| h.asn).collect();
        assert_eq!(as_path, tree.path(src).unwrap());
        assert_eq!(tr.hops.first().unwrap().asn, src);
        assert_eq!(tr.hops.last().unwrap().asn, dst);
        // RTTs are cumulative and positive.
        let mut last = 0.0;
        for h in &tr.hops {
            assert!(h.rtt_ms > last - 1e-9);
            last = h.rtt_ms;
        }
        assert!(last > 0.0);
    }

    #[test]
    fn nearest_router_is_in_as_footprint() {
        let (t, r) = setup();
        let hg = t.hypergiants()[0];
        let some_city = t.ases[0].cities[0];
        let rid = r.nearest_router_of(&t, hg, some_city).expect("hg has PoPs");
        assert_eq!(r.get(rid).asn, hg);
        assert!(t.as_info(hg).cities.contains(&r.get(rid).city));
    }
}
