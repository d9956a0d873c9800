//! Anycast deployments and catchment computation.
//!
//! §3.2.3: "Recent work demonstrates that anycast routing is extremely
//! efficient for large services, with 80% of clients directed within 500 km
//! of their closest serving site" \[38\]; §2.1 contrasts "only 31% of routes
//! go to the closest site" with "60% of users are mapped to the optimal
//! site". Both experiments need catchments: which serving site each client
//! AS's BGP-chosen path lands on.
//!
//! Model: an anycast deployment is a set of sites, each a (host AS, city)
//! pair (on-net PoPs, or off-net cache locations). BGP picks the *AS* that
//! wins for each client (via [`RoutingTree::compute_multi`] over the origin
//! AS set); within the winning AS, the client is mapped to that AS's
//! geographically closest site to the client, with a configurable
//! imprecision probability standing in for hot-potato/IGP artifacts.

use crate::bgp::RoutingTree;
use crate::view::GraphView;
use itm_topology::Topology;
use itm_types::rng::SeedDomain;
use itm_types::{Asn, GeoPoint, PopId};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One serving site of an anycast deployment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnycastSite {
    /// Site id, dense within the deployment.
    pub id: PopId,
    /// AS announcing the anycast prefix at this site.
    pub asn: Asn,
    /// City (world city index) of the site.
    pub city: u32,
    /// Site location (redundant with `city`; [`Catchments::compute`]
    /// reads the topology's city distances instead).
    pub location: GeoPoint,
}

/// A set of sites announcing one anycast prefix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnycastDeployment {
    /// All sites.
    pub sites: Vec<AnycastSite>,
    /// Probability that intra-AS site selection deviates from nearest
    /// (hot-potato imprecision). 0 = always nearest within the winning AS.
    pub intra_as_noise: f64,
}

impl AnycastDeployment {
    /// Build a deployment from (asn, city) pairs.
    pub fn new(topo: &Topology, sites: &[(Asn, u32)], intra_as_noise: f64) -> AnycastDeployment {
        let sites = sites
            .iter()
            .enumerate()
            .map(|(i, &(asn, city))| AnycastSite {
                id: PopId(i as u32),
                asn,
                city,
                location: topo.city_location(city),
            })
            .collect();
        AnycastDeployment {
            sites,
            intra_as_noise,
        }
    }

    /// The distinct origin ASes of the deployment, sorted.
    pub fn origin_ases(&self) -> Vec<Asn> {
        let mut v: Vec<Asn> = self.sites.iter().map(|s| s.asn).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The site geographically closest to `from` (lowest id wins ties).
    pub fn closest_site(&self, from: GeoPoint) -> Option<&AnycastSite> {
        self.sites.iter().min_by(|a, b| {
            a.location
                .distance_km(from)
                .total_cmp(&b.location.distance_km(from))
                .then(a.id.cmp(&b.id))
        })
    }
}

/// Computed catchments: which site every client AS reaches.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Catchments {
    /// site id per AS (dense ASN index); `None` = anycast unreachable.
    assignment: Vec<Option<PopId>>,
}

impl Catchments {
    /// Compute catchments for `deployment` over the full topology.
    ///
    /// Deterministic given the topology seed; the `intra_as_noise` draws
    /// come from the `"anycast"` stream of `seeds`. A deployment with no
    /// sites reaches no client.
    pub fn compute(
        topo: &Topology,
        view: &GraphView,
        deployment: &AnycastDeployment,
        seeds: &SeedDomain,
    ) -> Catchments {
        let origins = deployment.origin_ases();
        let mut assignment = vec![None; topo.n_ases()];
        let Some(&label) = origins.first() else {
            return Catchments { assignment };
        };
        let tree = RoutingTree::compute_multi(view, &origins, label);
        let mut rng = seeds.rng("anycast");

        // Sites of each origin AS (indexed like `origins`), in site order:
        // the order the noisy draw indexes.
        let mut sites_of: Vec<Vec<&AnycastSite>> = vec![Vec::new(); origins.len()];
        for site in &deployment.sites {
            if let Ok(o) = origins.binary_search(&site.asn) {
                sites_of[o].push(site);
            }
        }
        // Nearest site per (origin, client's primary city), filled on
        // first use: clients sharing a city and a winner share the answer.
        let n_cities = topo.world.cities.len();
        let mut nearest: Vec<Option<PopId>> = vec![None; origins.len() * n_cities];

        for (i, slot) in assignment.iter_mut().enumerate() {
            let client = Asn(i as u32);
            let Some(winner) = tree.origin_reached(client) else {
                continue;
            };
            // Sites inside the winning AS.
            let Ok(o) = origins.binary_search(&winner) else {
                continue;
            };
            let in_as = &sites_of[o];
            debug_assert!(!in_as.is_empty());
            *slot = if in_as.len() > 1 && rng.gen_bool(deployment.intra_as_noise) {
                // Hot-potato artifact: a uniformly random site of the AS.
                Some(in_as[rng.gen_range(0..in_as.len())].id)
            } else {
                let Some(&city) = topo.as_info(client).cities.first() else {
                    continue;
                };
                let memo = &mut nearest[o * n_cities + city as usize];
                if memo.is_none() {
                    *memo = in_as
                        .iter()
                        .min_by(|a, b| {
                            topo.city_km(a.city, city)
                                .total_cmp(&topo.city_km(b.city, city))
                                .then(a.id.cmp(&b.id))
                        })
                        .map(|site| site.id);
                }
                *memo
            };
        }
        Catchments { assignment }
    }

    /// The site a client AS lands on.
    pub fn site_of(&self, client: Asn) -> Option<PopId> {
        self.assignment[client.index()]
    }

    /// Iterate (client, site) pairs for reachable clients.
    pub fn iter(&self) -> impl Iterator<Item = (Asn, PopId)> + '_ {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|site| (Asn(i as u32), site)))
    }

    /// Number of clients with a catchment.
    pub fn covered(&self) -> usize {
        self.assignment.iter().filter(|s| s.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itm_topology::{generate, AsClass, TopologyConfig};

    fn setup() -> (Topology, GraphView) {
        let t = generate(&TopologyConfig::small(), 11).unwrap();
        let v = GraphView::full(&t);
        (t, v)
    }

    /// Deployment across the first hypergiant's cities.
    fn hg_deployment(t: &Topology, noise: f64) -> AnycastDeployment {
        let hg = t.hypergiants()[0];
        let cities = &t.as_info(hg).cities;
        let sites: Vec<(Asn, u32)> = cities.iter().take(6).map(|&c| (hg, c)).collect();
        AnycastDeployment::new(t, &sites, noise)
    }

    #[test]
    fn catchments_cover_connected_internet() {
        let (t, v) = setup();
        let d = hg_deployment(&t, 0.0);
        let c = Catchments::compute(&t, &v, &d, &SeedDomain::new(1));
        assert_eq!(c.covered(), t.n_ases());
    }

    #[test]
    fn zero_noise_is_deterministic_and_nearest_within_as() {
        let (t, v) = setup();
        let d = hg_deployment(&t, 0.0);
        let c1 = Catchments::compute(&t, &v, &d, &SeedDomain::new(1));
        let c2 = Catchments::compute(&t, &v, &d, &SeedDomain::new(2));
        for i in 0..t.n_ases() {
            assert_eq!(c1.site_of(Asn(i as u32)), c2.site_of(Asn(i as u32)));
        }
        // Single-AS deployment: site chosen must be the nearest site of
        // that AS to the client.
        for (client, site) in c1.iter() {
            let loc = t.as_location(client);
            let chosen = &d.sites[site.index()];
            for s in &d.sites {
                assert!(
                    chosen.location.distance_km(loc) <= s.location.distance_km(loc) + 1e-9,
                    "client {client} got non-nearest site"
                );
            }
        }
    }

    #[test]
    fn noise_perturbs_some_assignments() {
        let (t, v) = setup();
        let d0 = hg_deployment(&t, 0.0);
        let d1 = hg_deployment(&t, 0.9);
        let c0 = Catchments::compute(&t, &v, &d0, &SeedDomain::new(3));
        let c1 = Catchments::compute(&t, &v, &d1, &SeedDomain::new(3));
        let moved = (0..t.n_ases())
            .filter(|&i| c0.site_of(Asn(i as u32)) != c1.site_of(Asn(i as u32)))
            .count();
        assert!(moved > 0, "noise had no effect");
    }

    #[test]
    fn multi_as_deployment_splits_catchment() {
        let (t, v) = setup();
        // Sites in two different hypergiants — catchment must split.
        let hgs = t.hypergiants();
        let c0 = t.as_info(hgs[0]).cities[0];
        let c1 = t.as_info(hgs[1]).cities[0];
        let d = AnycastDeployment::new(&t, &[(hgs[0], c0), (hgs[1], c1)], 0.0);
        let c = Catchments::compute(&t, &v, &d, &SeedDomain::new(4));
        let mut seen = std::collections::HashSet::new();
        for (_, site) in c.iter() {
            seen.insert(site);
        }
        assert_eq!(seen.len(), 2, "one origin captured everything");
    }

    #[test]
    fn a_deployment_without_sites_reaches_no_client() {
        let (t, v) = setup();
        let d = AnycastDeployment::new(&t, &[], 0.0);
        let c = Catchments::compute(&t, &v, &d, &SeedDomain::new(1));
        assert_eq!(c.covered(), 0);
        assert_eq!(assignments(&c), vec![None; t.n_ases()]);
    }

    #[test]
    fn closest_site_helper() {
        let (t, _) = setup();
        let d = hg_deployment(&t, 0.0);
        let some_eyeball = t.ases_of_class(AsClass::Eyeball).next().unwrap().asn;
        let loc = t.as_location(some_eyeball);
        let c = d.closest_site(loc).unwrap();
        for s in &d.sites {
            assert!(c.location.distance_km(loc) <= s.location.distance_km(loc) + 1e-9);
        }
    }

    /// The per-client loop `Catchments::compute` replaced: a path per
    /// client, a site filter per client, a distance scan per client.
    fn oracle(
        topo: &Topology,
        view: &GraphView,
        deployment: &AnycastDeployment,
        seeds: &SeedDomain,
    ) -> Vec<Option<PopId>> {
        let origins = deployment.origin_ases();
        let tree = RoutingTree::compute_multi(view, &origins, origins[0]);
        let mut rng = seeds.rng("anycast");
        let mut assignment = vec![None; topo.n_ases()];
        for (i, slot) in assignment.iter_mut().enumerate() {
            let client = Asn(i as u32);
            let Some(&winner) = tree.path(client).as_deref().and_then(<[Asn]>::last) else {
                continue;
            };
            let in_as: Vec<&AnycastSite> = deployment
                .sites
                .iter()
                .filter(|s| s.asn == winner)
                .collect();
            let client_loc = topo.as_location(client);
            let chosen = if in_as.len() > 1 && rng.gen_bool(deployment.intra_as_noise) {
                Some(&in_as[rng.gen_range(0..in_as.len())])
            } else {
                in_as.iter().min_by(|a, b| {
                    a.location
                        .distance_km(client_loc)
                        .total_cmp(&b.location.distance_km(client_loc))
                        .then(a.id.cmp(&b.id))
                })
            };
            *slot = chosen.map(|site| site.id);
        }
        assignment
    }

    fn assignments(c: &Catchments) -> Vec<Option<PopId>> {
        c.assignment.clone()
    }

    #[test]
    fn compute_matches_the_per_client_oracle() {
        let (t, v) = setup();
        let hgs = t.hypergiants();
        // Multi-AS deployments: every city of two hypergiants plus an
        // off-net-style site in an eyeball AS.
        let eyeball = t.ases_of_class(AsClass::Eyeball).next().unwrap();
        let mut sites: Vec<(Asn, u32)> = Vec::new();
        for &hg in &hgs[..2] {
            sites.extend(t.as_info(hg).cities.iter().map(|&c| (hg, c)));
        }
        sites.push((eyeball.asn, eyeball.cities[0]));
        for noise in [0.0, 0.15, 1.0] {
            for seed in 0..3 {
                let d = AnycastDeployment::new(&t, &sites, noise);
                let seeds = SeedDomain::new(seed);
                let got = Catchments::compute(&t, &v, &d, &seeds);
                assert_eq!(
                    assignments(&got),
                    oracle(&t, &v, &d, &seeds),
                    "noise {noise}, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn equidistant_sites_in_one_as_break_ties_by_id() {
        let (t, v) = setup();
        let hg = t.hypergiants()[0];
        let city = t.as_info(hg).cities[0];
        let location = t.city_location(city);
        // Two sites of one AS in the same place, the higher id listed
        // first: every client is equidistant and must get the lower id.
        let site = |id| AnycastSite {
            id: PopId(id),
            asn: hg,
            city,
            location,
        };
        let d = AnycastDeployment {
            sites: vec![site(1), site(0)],
            intra_as_noise: 0.0,
        };
        let seeds = SeedDomain::new(5);
        let got = Catchments::compute(&t, &v, &d, &seeds);
        assert_eq!(assignments(&got), oracle(&t, &v, &d, &seeds));
        assert!(got.iter().all(|(_, site)| site == PopId(0)));
        assert_eq!(got.covered(), t.n_ases());
    }
}
