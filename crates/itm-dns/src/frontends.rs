//! Serving endpoints and the redirection policy.
//!
//! Every service has a set of places it can serve a client from: the
//! owner's on-net PoPs (hosting prefixes in its cities), plus — for
//! hypergiants — off-net caches inside eyeball networks \[25\]. The
//! *redirection policy* implemented here is the ground truth behind §3.2's
//! "mapping from users to hosts": a client whose AS hosts an off-net of
//! the service's operator is served from that off-net; everyone else goes
//! to the geographically nearest on-net PoP. Anycast services expose a
//! single VIP and leave site selection to BGP (computed elsewhere via
//! catchments).
//!
//! Selection is O(1): per-service off-net host maps and per-city
//! nearest-PoP tables are precomputed at build time, because the
//! measurement campaigns call `select` hundreds of millions of times.

use itm_topology::{PrefixKind, Topology};
use itm_traffic::{DeliveryMode, ServiceCatalog, ServiceOwner};
use itm_types::{Asn, Ipv4Addr, ServiceId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One place a service can be served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Endpoint {
    /// The address clients connect to.
    pub addr: Ipv4Addr,
    /// AS the address lives in (owner for on-net, host for off-net).
    pub asn: Asn,
    /// City of the serving site.
    pub city: u32,
    /// `Some(host)` when the endpoint is an off-net cache inside `host`.
    pub offnet_host: Option<Asn>,
}

/// Per-service selection tables.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ServiceFrontends {
    endpoints: Vec<Endpoint>,
    /// client AS -> endpoint index of its in-AS off-net.
    offnet_by_host: BTreeMap<Asn, u32>,
    /// city -> index of nearest on-net endpoint.
    nearest_onnet_by_city: Vec<u32>,
    /// Anycast VIP, if the service is anycast.
    vip: Option<Ipv4Addr>,
}

/// All endpoints of all services, plus anycast VIPs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrontendDirectory {
    per_service: Vec<ServiceFrontends>,
}

impl FrontendDirectory {
    /// Build endpoints and selection tables for a catalogue.
    ///
    /// On-net endpoints: one per hosting prefix of the serving AS, at host
    /// offset 10 within the /24. Off-net endpoints (hypergiants only): one
    /// per deployment, at offset 10 of the off-net /24. Anycast VIPs:
    /// offsets 100.. of the serving AS's hosting prefixes.
    pub fn build(topo: &Topology, catalog: &ServiceCatalog) -> FrontendDirectory {
        let n_cities = topo.world.cities.len();
        let mut per_service = Vec::with_capacity(catalog.len());
        for s in &catalog.services {
            let serving = s.owner.serving_as();
            let mut endpoints = Vec::new();
            for &p in topo.prefixes.owned_by(serving) {
                let r = topo.prefixes.get(p);
                if r.kind == PrefixKind::Hosting {
                    endpoints.push(Endpoint {
                        addr: r.net.addr(10),
                        asn: serving,
                        city: r.city,
                        offnet_host: None,
                    });
                }
            }
            let mut offnet_by_host = BTreeMap::new();
            if let ServiceOwner::Hypergiant(hg) = s.owner {
                for d in topo.offnets.of_hypergiant(hg) {
                    let r = topo.prefixes.get(d.prefix);
                    offnet_by_host.insert(d.host, endpoints.len() as u32);
                    endpoints.push(Endpoint {
                        addr: r.net.addr(10),
                        asn: hg,
                        city: d.city,
                        offnet_host: Some(d.host),
                    });
                }
            }
            assert!(
                !endpoints.is_empty(),
                "service {} has no serving endpoints",
                s.domain
            );

            // Nearest on-net endpoint per city (fall back to nearest of
            // any kind if a service were all-off-net).
            let onnet: Vec<(usize, &Endpoint)> = {
                let on: Vec<(usize, &Endpoint)> = endpoints
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.offnet_host.is_none())
                    .collect();
                if on.is_empty() {
                    endpoints.iter().enumerate().collect()
                } else {
                    on
                }
            };
            let mut nearest_onnet_by_city = Vec::with_capacity(n_cities);
            for city in 0..n_cities as u32 {
                let best = onnet
                    .iter()
                    .min_by(|(_, a), (_, b)| {
                        topo.city_km(a.city, city)
                            .total_cmp(&topo.city_km(b.city, city))
                            .then(a.addr.cmp(&b.addr))
                    })
                    .map(|(i, _)| *i as u32)
                    // `endpoints` is asserted non-empty above and `onnet`
                    // falls back to the full set, so endpoint 0 is an
                    // unreachable fallback, not a behaviour change.
                    .unwrap_or(0);
                nearest_onnet_by_city.push(best);
            }

            let vip = if s.mode == DeliveryMode::Anycast {
                let hosting: Vec<_> = topo
                    .prefixes
                    .owned_by(serving)
                    .iter()
                    .filter(|&&p| topo.prefixes.get(p).kind == PrefixKind::Hosting)
                    .collect();
                let k = s.id.index() % hosting.len();
                let off = 100 + (s.id.index() / hosting.len()) as u32;
                Some(topo.prefixes.get(*hosting[k]).net.addr(off.min(250)))
            } else {
                None
            };

            per_service.push(ServiceFrontends {
                endpoints,
                offnet_by_host,
                nearest_onnet_by_city,
                vip,
            });
        }
        FrontendDirectory { per_service }
    }

    /// Candidate endpoints for a service.
    pub fn endpoints(&self, s: ServiceId) -> &[Endpoint] {
        &self.per_service[s.index()].endpoints
    }

    /// The anycast VIP (only for anycast-mode services).
    pub fn vip(&self, s: ServiceId) -> Option<Ipv4Addr> {
        self.per_service[s.index()].vip
    }

    /// The redirection policy: the endpoint a client in `client_as`,
    /// located in `client_city`, is directed to.
    ///
    /// 1. An off-net inside the client's own AS wins (serving from inside
    ///    the access network is why off-nets exist).
    /// 2. Otherwise the geodesically nearest on-net PoP (ties broken by
    ///    address for determinism).
    #[inline]
    pub fn select(
        &self,
        _topo: &Topology,
        s: ServiceId,
        client_as: Asn,
        client_city: u32,
    ) -> &Endpoint {
        let sf = &self.per_service[s.index()];
        if let Some(&i) = sf.offnet_by_host.get(&client_as) {
            return &sf.endpoints[i as usize];
        }
        &sf.endpoints[sf.nearest_onnet_by_city[client_city as usize] as usize]
    }

    /// Re-home a service: rotate every city's nearest-endpoint choice
    /// `shift` positions through the service's on-net endpoint list — the
    /// epoch engine's model of an operator remapping cities onto
    /// different front-ends (capacity moves, maintenance drains). The
    /// endpoint *set* is unchanged, so TLS certificates, off-net
    /// preference, and anycast VIPs are unaffected; only the
    /// nearest-on-net selection table moves. A no-op for services with a
    /// single on-net endpoint (`shift` wraps onto the same index).
    pub fn rehome_service(&mut self, s: ServiceId, shift: u32) {
        let sf = &mut self.per_service[s.index()];
        let onnet: Vec<u32> = {
            let on: Vec<u32> = sf
                .endpoints
                .iter()
                .enumerate()
                .filter(|(_, e)| e.offnet_host.is_none())
                .map(|(i, _)| i as u32)
                .collect();
            if on.is_empty() {
                (0..sf.endpoints.len() as u32).collect()
            } else {
                on
            }
        };
        for slot in &mut sf.nearest_onnet_by_city {
            // Rotate within the on-net list; entries already pointing
            // outside it (impossible by construction) are left alone.
            if let Some(pos) = onnet.iter().position(|&i| i == *slot) {
                *slot = onnet[(pos + shift as usize) % onnet.len()];
            }
        }
    }

    /// Nearest on-net endpoint to a city (used when the resolver hides the
    /// client: non-ECS answers are computed from the resolver PoP's city).
    #[inline]
    pub fn select_by_city(&self, _topo: &Topology, s: ServiceId, city: u32) -> &Endpoint {
        let sf = &self.per_service[s.index()];
        &sf.endpoints[sf.nearest_onnet_by_city[city as usize] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itm_topology::{generate, TopologyConfig};
    use itm_traffic::ServiceCatalogConfig;
    use itm_types::SeedDomain;

    fn setup() -> (Topology, ServiceCatalog, FrontendDirectory) {
        let t = generate(&TopologyConfig::small(), 31).unwrap();
        let c = ServiceCatalog::generate(&ServiceCatalogConfig::small(), &t, &SeedDomain::new(31));
        let f = FrontendDirectory::build(&t, &c);
        (t, c, f)
    }

    #[test]
    fn every_service_has_endpoints() {
        let (t, c, f) = setup();
        for s in &c.services {
            let eps = f.endpoints(s.id);
            assert!(!eps.is_empty());
            for e in eps {
                let r = t.prefixes.lookup(e.addr).expect("routed address");
                match e.offnet_host {
                    None => assert_eq!(r.owner, e.asn),
                    Some(host) => {
                        assert_eq!(r.owner, host);
                        assert_eq!(r.kind, PrefixKind::OffnetCache);
                    }
                }
            }
        }
    }

    #[test]
    fn vips_only_for_anycast() {
        let (_, c, f) = setup();
        for s in &c.services {
            assert_eq!(
                f.vip(s.id).is_some(),
                s.mode == DeliveryMode::Anycast,
                "{}",
                s.domain
            );
        }
    }

    #[test]
    fn offnet_preferred_for_hosted_clients() {
        let (t, c, f) = setup();
        let (svc, host) = c
            .services
            .iter()
            .find_map(|s| match s.owner {
                ServiceOwner::Hypergiant(hg) => {
                    t.offnets.of_hypergiant(hg).next().map(|d| (s, d.host))
                }
                _ => None,
            })
            .expect("some hypergiant service with off-nets");
        let city = t.as_info(host).cities[0];
        let e = f.select(&t, svc.id, host, city);
        assert_eq!(e.offnet_host, Some(host));
    }

    #[test]
    fn non_hosted_clients_get_nearest_onnet() {
        let (t, c, f) = setup();
        let svc = &c.services[0];
        let stub = t
            .ases
            .iter()
            .find(|a| a.class == itm_topology::AsClass::Stub)
            .unwrap();
        let e = f.select(&t, svc.id, stub.asn, stub.cities[0]);
        assert_eq!(e.offnet_host, None);
        let loc = t.city_location(stub.cities[0]);
        for other in f
            .endpoints(svc.id)
            .iter()
            .filter(|x| x.offnet_host.is_none())
        {
            assert!(
                t.city_location(e.city).distance_km(loc)
                    <= t.city_location(other.city).distance_km(loc) + 1e-9
            );
        }
    }

    #[test]
    fn select_matches_select_by_city_for_unhosted() {
        let (t, c, f) = setup();
        let svc = &c.services[0];
        let stub = t
            .ases
            .iter()
            .find(|a| a.class == itm_topology::AsClass::Stub)
            .unwrap();
        assert_eq!(
            f.select(&t, svc.id, stub.asn, stub.cities[0]),
            f.select_by_city(&t, svc.id, stub.cities[0])
        );
    }

    #[test]
    fn select_is_deterministic() {
        let (t, c, f) = setup();
        let svc = &c.services[1];
        let a = t.ases[40].asn;
        let city = t.ases[40].cities[0];
        assert_eq!(f.select(&t, svc.id, a, city), f.select(&t, svc.id, a, city));
    }
}
