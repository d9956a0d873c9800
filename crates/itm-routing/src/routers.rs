//! Routers and their interface addresses.
//!
//! The AS-level substrate gets an IP-level veneer: one router per
//! (AS, city) point of presence, each with an interface address drawn from
//! the AS's infrastructure space. This is what the IP ID probing (E11)
//! pings.

use itm_topology::{PrefixKind, Topology};
use itm_types::{Asn, Ipv4Addr, RouterId};
use serde::{Deserialize, Serialize};

/// The router registry for a topology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RouterMap {
    /// (asn, city, interface address) per router, indexed by RouterId.
    routers: Vec<RouterRecord>,
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
            }
        }
        RouterMap { routers }
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
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // Routers are numbered densely, AS by AS and city by city.
        let pop_order = t
            .ases
            .iter()
            .flat_map(|a| a.cities.iter().map(|&c| (a.asn, c)));
        for (k, (rec, (asn, city))) in r.iter().zip(pop_order).enumerate() {
            assert_eq!(rec.id, RouterId(k as u32));
            assert_eq!(r.get(rec.id).id, rec.id);
            assert_eq!((rec.asn, rec.city), (asn, city));
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
}
