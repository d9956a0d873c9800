//! One-stop construction of a complete synthetic Internet.
//!
//! [`Substrate`] owns every ground-truth system a measurement campaign
//! runs against: topology, users, services, traffic, resolvers,
//! front-ends, the APNIC-like estimator, the Chromium model, routers, and
//! the TLS host registry. Building one is a single call; everything is
//! derived deterministically from `(config, seed)`.

use itm_dns::chromium::ChromiumConfig;
use itm_dns::{
    AuthoritativeDns, ChromiumModel, FrontendDirectory, OpenResolver, OpenResolverConfig,
    ResolverAssignment, ResolverConfig,
};
use itm_obs::exec::ParallelExecutor;
use itm_routing::{GraphView, RouterMap};
use itm_tls::TlsHostRegistry;
use itm_topology::{Topology, TopologyConfig};
use itm_traffic::apnic::ApnicConfig;
use itm_traffic::{
    ApnicEstimates, ServiceCatalog, ServiceCatalogConfig, TrafficConfig, TrafficModel, UserModel,
};
use itm_types::{Asn, Result, SeedDomain};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Configuration for the whole substrate.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SubstrateConfig {
    /// Topology generation parameters.
    pub topology: TopologyConfig,
    /// Service catalogue parameters.
    pub services: ServiceCatalogConfig,
    /// Traffic model parameters.
    pub traffic: TrafficConfig,
    /// Resolver ecosystem parameters.
    pub resolvers: ResolverConfig,
    /// APNIC-estimator parameters.
    pub apnic: ApnicConfig,
    /// Chromium-model parameters.
    pub chromium: ChromiumConfig,
    /// Open-resolver deployment parameters.
    pub open_resolver: OpenResolverConfig,
}

impl SubstrateConfig {
    /// A small configuration for tests (≈120 ASes, 30 services).
    pub fn small() -> SubstrateConfig {
        SubstrateConfig {
            topology: TopologyConfig::small(),
            services: ServiceCatalogConfig::small(),
            open_resolver: OpenResolverConfig {
                n_pops: 6,
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

/// A complete synthetic Internet with ground truth.
pub struct Substrate {
    /// The configuration used.
    pub config: SubstrateConfig,
    /// The master seed used.
    pub seed: u64,
    /// AS-level topology, geography, prefixes, off-nets.
    pub topo: Topology,
    /// Per-prefix user populations.
    pub users: UserModel,
    /// The popular-service catalogue.
    pub catalog: ServiceCatalog,
    /// The ground-truth traffic matrix.
    pub traffic: TrafficModel,
    /// Resolver ecosystem.
    pub resolvers: ResolverAssignment,
    /// Serving endpoints + redirection policy.
    pub frontends: FrontendDirectory,
    /// APNIC-like population estimates (public data stand-in).
    pub apnic: ApnicEstimates,
    /// Browser/probe workload model.
    pub chromium: ChromiumModel,
    /// Router-level veneer.
    pub routers: RouterMap,
    /// TLS behaviour of all serving addresses.
    pub tls: TlsHostRegistry,
    /// The seed domain everything was derived from.
    pub seeds: SeedDomain,
    /// Cloud vantage ASes currently unavailable (epoch VM churn). Empty
    /// on a freshly built substrate; the cloud-probe campaign skips VMs
    /// in down ASes.
    pub vm_down: BTreeSet<Asn>,
}

impl Substrate {
    /// Build everything from a config and master seed.
    pub fn build(config: SubstrateConfig, seed: u64) -> Result<Substrate> {
        let _span = itm_obs::span("substrate.build");
        let seeds = SeedDomain::new(seed);
        // itm_topology::generate opens its own "topology.generate" span,
        // which nests under this one.
        let topo = itm_topology::generate(&config.topology, seed)?;
        let users = {
            let _s = itm_obs::span("users.generate");
            UserModel::generate(&topo, &seeds)
        };
        let catalog = {
            let _s = itm_obs::span("catalog.generate");
            ServiceCatalog::generate(&config.services, &topo, &seeds)
        };
        let traffic = {
            let _s = itm_obs::span("traffic.build");
            TrafficModel::build(
                &topo,
                &users,
                &catalog,
                config.traffic.clone(),
                &seeds,
                &ParallelExecutor::available(),
            )
        };
        let resolvers = {
            let _s = itm_obs::span("resolvers.build");
            ResolverAssignment::build(&topo, &config.resolvers, &seeds)
        };
        let frontends = {
            let _s = itm_obs::span("frontends.build");
            FrontendDirectory::build(&topo, &catalog)
        };
        let apnic = {
            let _s = itm_obs::span("apnic.generate");
            ApnicEstimates::generate(&topo, &users, &config.apnic, &seeds)
        };
        let chromium = {
            let _s = itm_obs::span("chromium.build");
            ChromiumModel::build(&topo, &users, config.chromium.clone(), &seeds)
        };
        let routers = {
            let _s = itm_obs::span("routers.build");
            RouterMap::build(&topo)
        };
        let tls = {
            let _s = itm_obs::span("tls_registry.build");
            TlsHostRegistry::build(&topo, &catalog, &frontends)
        };
        Ok(Substrate {
            config,
            seed,
            topo,
            users,
            catalog,
            traffic,
            resolvers,
            frontends,
            apnic,
            chromium,
            routers,
            tls,
            seeds,
            vm_down: BTreeSet::new(),
        })
    }

    /// The authoritative-DNS façade (cheap to construct; borrows self).
    pub fn authoritative(&self) -> AuthoritativeDns<'_> {
        AuthoritativeDns::new(&self.topo, &self.catalog, &self.frontends)
    }

    /// Deploy the open resolver (borrows self).
    ///
    /// Fails only on a degenerate topology with no cities, which
    /// [`Substrate::build`] already rejects.
    pub fn open_resolver(&self) -> Result<OpenResolver<'_>> {
        OpenResolver::deploy(
            &self.topo,
            &self.users,
            &self.catalog,
            &self.traffic,
            &self.resolvers,
            self.authoritative(),
            self.config.open_resolver.clone(),
            &self.seeds,
        )
    }

    /// The full ground-truth routing view.
    pub fn full_view(&self) -> GraphView {
        GraphView::full(&self.topo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_is_internally_consistent() {
        let s = Substrate::build(SubstrateConfig::small(), 101).unwrap();
        assert_eq!(s.topo.check_invariants(), Ok(()));
        assert!(s.users.total() > 0.0);
        assert!(!s.catalog.is_empty());
        assert!(s.traffic.grand_total().raw() > 0.0);
        assert!(!s.routers.is_empty());
        assert!(!s.tls.is_empty());
        let or = s.open_resolver().expect("open resolver");
        assert!(!or.pops().is_empty());
    }

    #[test]
    fn same_seed_same_world() {
        let a = Substrate::build(SubstrateConfig::small(), 7).unwrap();
        let b = Substrate::build(SubstrateConfig::small(), 7).unwrap();
        assert_eq!(a.users.total(), b.users.total());
        assert_eq!(a.topo.links.len(), b.topo.links.len());
        assert_eq!(a.traffic.grand_total().raw(), b.traffic.grand_total().raw());
    }
}
