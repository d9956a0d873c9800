//! The popular-service catalogue.
//!
//! §2 scopes the map to popular services: "With a small number of cloud and
//! content providers responsible for 90% of Internet traffic, focusing on
//! popular services provides most of the utility". Each service here has an
//! owner (a hypergiant running its own platform, or a tenant hosted on a
//! cloud), Zipf popularity, a delivery mode (§3.2.3 distinguishes DNS
//! redirection, anycast, and per-client custom URLs), and DNS/ECS metadata
//! that the measurement techniques key on.

use itm_topology::Topology;
use itm_types::rng::{weighted_choice, zipf_weights, SeedDomain};
use itm_types::{Asn, ServiceId};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Who operates a service's serving infrastructure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServiceOwner {
    /// A hypergiant's own property (search, social, video…).
    Hypergiant(Asn),
    /// A third-party tenant hosted on a public cloud.
    CloudTenant {
        /// The cloud AS hosting the tenant.
        cloud: Asn,
    },
}

impl ServiceOwner {
    /// The AS whose infrastructure serves the service.
    pub fn serving_as(self) -> Asn {
        match self {
            ServiceOwner::Hypergiant(a) => a,
            ServiceOwner::CloudTenant { cloud } => cloud,
        }
    }
}

/// How clients are directed to a serving site (§3.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeliveryMode {
    /// Authoritative DNS returns a nearby unicast front-end.
    DnsRedirection,
    /// One anycast prefix; BGP picks the site.
    Anycast,
    /// DNS/anycast bootstrap, then per-client custom URLs for the payload
    /// (typical of video-on-demand; §3.2.3 argues these flows land on
    /// near-optimal sites).
    CustomUrl,
}

/// One popular service.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Service {
    /// Dense id; also the popularity rank (0 = most popular).
    pub id: ServiceId,
    /// DNS name clients resolve.
    pub domain: String,
    /// Operator.
    pub owner: ServiceOwner,
    /// Fraction of total user-facing traffic (Zipf; sums to 1).
    pub traffic_share: f64,
    /// Client-direction mechanism.
    pub mode: DeliveryMode,
    /// Whether the service's authoritative DNS honours EDNS0 Client
    /// Subnet. Gates cache probing (§3.1.2) and user→host mapping (§3.2).
    pub ecs_support: bool,
    /// DNS record TTL in seconds — the granularity limit of cache probing
    /// ("caches hide the number of queries within a TTL", §3.1.3).
    pub ttl_secs: u32,
}

/// Zipf exponent of traffic shares (≈1.0 matches measured skew).
const POPULARITY_EXPONENT: f64 = 1.0;
/// Fraction of services operated by hypergiants (the rest are cloud
/// tenants). Hypergiants are favoured at the top of the ranking.
const HYPERGIANT_SHARE: f64 = 0.45;
/// Probability that a top-20 service supports ECS (§3.2.3 reports 15/20).
const TOP_ECS_RATE: f64 = 0.75;
/// Probability that a tail service supports ECS.
const TAIL_ECS_RATE: f64 = 0.45;

/// Configuration for catalogue generation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceCatalogConfig {
    /// Number of services to generate.
    pub n_services: usize,
}

impl Default for ServiceCatalogConfig {
    fn default() -> Self {
        ServiceCatalogConfig { n_services: 200 }
    }
}

impl ServiceCatalogConfig {
    /// A small catalogue for unit tests.
    pub fn small() -> Self {
        ServiceCatalogConfig { n_services: 30 }
    }
}

/// The generated catalogue.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceCatalog {
    /// Services in rank order (index = id = popularity rank).
    pub services: Vec<Service>,
}

impl ServiceCatalog {
    /// Generate a catalogue bound to a topology's hypergiants and clouds.
    pub fn generate(
        cfg: &ServiceCatalogConfig,
        topo: &Topology,
        seeds: &SeedDomain,
    ) -> ServiceCatalog {
        let seeds = seeds.child("services");
        let mut rng = seeds.rng("catalog");
        let hypergiants = topo.hypergiants();
        let clouds = topo.clouds();
        assert!(!hypergiants.is_empty(), "catalogue needs hypergiants");
        let shares = zipf_weights(cfg.n_services, POPULARITY_EXPONENT);

        // Hypergiant size factors weight which hypergiant owns a property.
        let hg_weights: Vec<f64> = hypergiants
            .iter()
            .map(|&h| topo.as_info(h).size_factor)
            .collect();
        let cloud_weights: Vec<f64> = clouds
            .iter()
            .map(|&c| topo.as_info(c).size_factor)
            .collect();

        let mut services = Vec::with_capacity(cfg.n_services);
        for (rank, &share) in shares.iter().enumerate() {
            // Top of the ranking skews hypergiant: P(hg | rank) decays from
            // ~0.95 toward `HYPERGIANT_SHARE`.
            let p_hg = HYPERGIANT_SHARE + (0.95 - HYPERGIANT_SHARE) / (1.0 + rank as f64 / 8.0);
            // `weighted_choice` is None only for an all-zero weight table;
            // size factors are strictly positive, and the first entry is a
            // deterministic fallback rather than a panic.
            let owner = if rng.gen_bool(p_hg.clamp(0.0, 1.0)) {
                ServiceOwner::Hypergiant(
                    hypergiants[weighted_choice(&mut rng, &hg_weights).unwrap_or(0)],
                )
            } else if clouds.is_empty() {
                ServiceOwner::Hypergiant(hypergiants[0])
            } else {
                ServiceOwner::CloudTenant {
                    cloud: clouds[weighted_choice(&mut rng, &cloud_weights).unwrap_or(0)],
                }
            };
            // Delivery mode: video-scale top properties use custom URLs;
            // a minority of services are anycast-fronted; the rest use
            // classic DNS redirection.
            let mode = if rank < cfg.n_services / 10 && rng.gen_bool(0.35) {
                DeliveryMode::CustomUrl
            } else if rng.gen_bool(if rank < 20 { 0.10 } else { 0.22 }) {
                DeliveryMode::Anycast
            } else {
                DeliveryMode::DnsRedirection
            };
            // ECS adoption skews toward the heaviest properties (§3.2.3:
            // the supporters among the top 20 carry 91% of its traffic).
            let ecs_rate = if rank < 8 {
                0.92f64.max(TOP_ECS_RATE)
            } else if rank < 20 {
                TOP_ECS_RATE
            } else {
                TAIL_ECS_RATE
            };
            // Anycast services answer identically everywhere; ECS is moot
            // but some still echo it. Custom-URL bootstrap DNS usually
            // supports ECS (they care about proximity).
            let ecs_support = match mode {
                DeliveryMode::Anycast => rng.gen_bool(0.2),
                _ => rng.gen_bool(ecs_rate),
            };
            services.push(Service {
                id: ServiceId(rank as u32),
                domain: format!("svc{rank}.example"),
                owner,
                traffic_share: share,
                mode,
                ecs_support,
                ttl_secs: [30u32, 60, 120, 300][rng.gen_range(0..4)],
            });
        }
        ServiceCatalog { services }
    }

    /// Number of services.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// Whether the catalogue is empty.
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }

    /// Service by id.
    pub fn get(&self, id: ServiceId) -> &Service {
        &self.services[id.index()]
    }

    /// Look up a service by DNS name.
    pub fn by_domain(&self, domain: &str) -> Option<&Service> {
        self.services.iter().find(|s| s.domain == domain)
    }

    /// Services operated by one provider AS (owned or hosted).
    pub fn served_by(&self, asn: Asn) -> impl Iterator<Item = &Service> {
        self.services
            .iter()
            .filter(move |s| s.owner.serving_as() == asn)
    }

    /// The top `k` services by share.
    pub fn top(&self, k: usize) -> &[Service] {
        &self.services[..k.min(self.services.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itm_topology::{generate, AsClass, TopologyConfig};

    fn setup() -> (Topology, ServiceCatalog) {
        let t = generate(&TopologyConfig::small(), 3).unwrap();
        let c = ServiceCatalog::generate(&ServiceCatalogConfig::small(), &t, &SeedDomain::new(3));
        (t, c)
    }

    #[test]
    fn shares_sum_to_one_and_decay() {
        let (_, c) = setup();
        let sum: f64 = c.services.iter().map(|s| s.traffic_share).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        for w in c.services.windows(2) {
            assert!(w[0].traffic_share > w[1].traffic_share);
        }
    }

    #[test]
    fn owners_are_content_ases() {
        let (t, c) = setup();
        for s in &c.services {
            assert!(t.as_info(s.owner.serving_as()).class.is_content());
        }
    }

    #[test]
    fn top_ranks_skew_hypergiant() {
        let (_, c) = setup();
        let top_hg = c
            .top(10)
            .iter()
            .filter(|s| matches!(s.owner, ServiceOwner::Hypergiant(_)))
            .count();
        assert!(top_hg >= 6, "only {top_hg}/10 top services are hypergiant");
    }

    #[test]
    fn generation_is_deterministic() {
        let t = generate(&TopologyConfig::small(), 3).unwrap();
        let a = ServiceCatalog::generate(&ServiceCatalogConfig::small(), &t, &SeedDomain::new(5));
        let b = ServiceCatalog::generate(&ServiceCatalogConfig::small(), &t, &SeedDomain::new(5));
        for (x, y) in a.services.iter().zip(&b.services) {
            assert_eq!(x.domain, y.domain);
            assert_eq!(x.owner, y.owner);
            assert_eq!(x.mode, y.mode);
            assert_eq!(x.ecs_support, y.ecs_support);
        }
    }

    #[test]
    fn lookup_and_rollups() {
        let (t, c) = setup();
        assert!(c.by_domain("svc0.example").is_some());
        assert!(c.by_domain("nonexistent.example").is_none());
        // Every service is hosted by a hypergiant or a cloud.
        let total: f64 = t
            .ases
            .iter()
            .filter(|a| matches!(a.class, AsClass::Hypergiant | AsClass::Cloud))
            .flat_map(|a| c.served_by(a.asn))
            .map(|s| s.traffic_share)
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ttls_are_from_the_menu() {
        let (_, c) = setup();
        for s in &c.services {
            assert!([30, 60, 120, 300].contains(&s.ttl_secs));
        }
    }
}
