//! Root DNS servers and their query logs.
//!
//! Chromium's no-TLD probes miss every cache and arrive at the roots from
//! the egress addresses of recursive resolvers. §3.1.3 lists the
//! technique's real-world constraints, all modelled here: logs capture
//! "the address of the recursive resolver (rather than of the client)";
//! "the measurements happen only once a year" (a DITL-style collection
//! window); and "more and more root operators anonymize the data in ways
//! that limit coverage" — per-root policies below decide whether a root
//! contributes usable entries.

use crate::chromium::ChromiumModel;
use crate::opendns::OpenResolver;
use crate::resolvers::ResolverAssignment;
use itm_topology::Topology;
use itm_types::rng::{lognormal, SeedDomain};
use itm_types::{Ipv4Addr, SimDuration};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// What a root operator does with its query logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnonymizationPolicy {
    /// Full source addresses shared with researchers (e.g. ISI, UMD).
    Open,
    /// Source addresses zeroed: counts exist but cannot be attributed.
    Anonymized,
    /// Logs not shared at all.
    Closed,
}

/// One root server ("letter").
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RootServer {
    /// Letter index (0 = "A").
    pub letter: u8,
    /// Log-sharing policy.
    pub policy: AnonymizationPolicy,
}

/// The set of root servers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RootServerSet {
    /// All roots.
    pub roots: Vec<RootServer>,
}

impl RootServerSet {
    /// A 13-letter root system with the given number of open-log and
    /// anonymized operators (the rest closed).
    pub fn new(n_open: usize, n_anonymized: usize) -> RootServerSet {
        assert!(n_open + n_anonymized <= 13, "only 13 letters exist");
        let mut roots = Vec::with_capacity(13);
        for i in 0..13u8 {
            let policy = if (i as usize) < n_open {
                AnonymizationPolicy::Open
            } else if (i as usize) < n_open + n_anonymized {
                AnonymizationPolicy::Anonymized
            } else {
                AnonymizationPolicy::Closed
            };
            roots.push(RootServer { letter: i, policy });
        }
        RootServerSet { roots }
    }

    /// The historical default: a couple of research-operated roots share
    /// full logs, several anonymize, the rest are closed.
    pub fn typical() -> RootServerSet {
        RootServerSet::new(3, 4)
    }

    /// Fraction of root queries that land in *usable* (open) logs,
    /// assuming resolvers spread queries evenly across letters.
    pub fn usable_fraction(&self) -> f64 {
        let open = self
            .roots
            .iter()
            .filter(|r| r.policy == AnonymizationPolicy::Open)
            .count();
        open as f64 / self.roots.len() as f64
    }
}

/// One aggregated log line: a resolver egress address and its Chromium
/// probe count over the collection window.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RootLogEntry {
    /// Source address (a recursive resolver's egress).
    pub src: Ipv4Addr,
    /// Chromium-probe queries attributed to that source in open logs.
    pub queries: f64,
}

/// A DITL-style collection of root query logs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RootLogs {
    /// Usable entries (from open-log roots only), sorted by address.
    pub entries: Vec<RootLogEntry>,
    /// The collection window.
    pub window: SimDuration,
    /// Fraction of total root traffic the usable logs represent.
    pub usable_fraction: f64,
}

impl RootLogs {
    /// Simulate a collection: expected Chromium probes per resolver over
    /// the window, times the open-log fraction, times small log-normal
    /// collection noise.
    pub fn collect(
        topo: &Topology,
        resolvers: &ResolverAssignment,
        chromium: &ChromiumModel,
        open_resolver: &OpenResolver<'_>,
        roots: &RootServerSet,
        window: SimDuration,
        seeds: &SeedDomain,
    ) -> RootLogs {
        let seeds = seeds.child("rootlogs");
        let usable = roots.usable_fraction();
        let mut counts: HashMap<u32, f64> = HashMap::new();

        for r in topo.prefixes.iter() {
            let probes = chromium.probes_over(r.id, window);
            if probes <= 0.0 {
                continue;
            }
            // Split between the ISP resolver and the open resolver. A
            // forwarder resolver never queries the roots itself — its
            // share also egresses from the open resolver's addresses.
            let isp_share = resolvers.isp_share(r.id);
            let mut via_open = resolvers.open_share(r.id);
            if isp_share > 0.0 {
                match resolvers.resolver_of(r.owner) {
                    Some(res) if !res.forwards_to_open => {
                        *counts.entry(res.addr.0).or_insert(0.0) += probes * isp_share;
                    }
                    _ => via_open += isp_share,
                }
            }
            if via_open > 0.0 {
                let egress = open_resolver.pop_egress_addr(open_resolver.pop_of(r.id));
                *counts.entry(egress.0).or_insert(0.0) += probes * via_open;
            }
        }

        let mut entries: Vec<RootLogEntry> = counts
            .into_iter()
            .map(|(addr, total)| {
                let mut rng = seeds.rng_indexed("noise", addr as u64);
                RootLogEntry {
                    src: Ipv4Addr(addr),
                    queries: total * usable * lognormal(&mut rng, 0.0, 0.05),
                }
            })
            .filter(|e| e.queries >= 1.0) // sub-query expectations never log
            .collect();
        entries.sort_by_key(|e| e.src);

        RootLogs {
            entries,
            window,
            usable_fraction: usable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authoritative::AuthoritativeDns;
    use crate::frontends::FrontendDirectory;
    use crate::opendns::OpenResolverConfig;
    use crate::resolvers::ResolverConfig;
    use itm_obs::exec::ParallelExecutor;
    use itm_topology::{generate, TopologyConfig};
    use itm_traffic::{ServiceCatalog, ServiceCatalogConfig, TrafficModel, UserModel};

    fn total_queries(logs: &RootLogs) -> f64 {
        logs.entries.iter().map(|e| e.queries).sum()
    }

    #[test]
    fn policy_partitions_and_usable_fraction() {
        let r = RootServerSet::new(3, 4);
        assert_eq!(r.roots.len(), 13);
        assert_eq!(
            r.roots
                .iter()
                .filter(|x| x.policy == AnonymizationPolicy::Open)
                .count(),
            3
        );
        assert!((r.usable_fraction() - 3.0 / 13.0).abs() < 1e-12);
        assert_eq!(RootServerSet::new(0, 0).usable_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "13 letters")]
    fn too_many_roots_panics() {
        RootServerSet::new(10, 5);
    }

    #[test]
    fn collection_attributes_probes_to_resolvers() {
        let seeds = SeedDomain::new(53);
        let topo = generate(&TopologyConfig::small(), 53).unwrap();
        let users = UserModel::generate(&topo, &seeds);
        let catalog = ServiceCatalog::generate(&ServiceCatalogConfig::small(), &topo, &seeds);
        let traffic = TrafficModel::build(
            &topo,
            &users,
            &catalog,
            &seeds,
            &ParallelExecutor::sequential(),
        );
        let resolvers = ResolverAssignment::build(&topo, &ResolverConfig::default(), &seeds);
        let frontends = FrontendDirectory::build(&topo, &catalog);
        let auth = AuthoritativeDns::new(&topo, &catalog, &frontends);
        let open = OpenResolver::deploy(
            &topo,
            &users,
            &catalog,
            &traffic,
            &resolvers,
            auth,
            OpenResolverConfig::default(),
            &seeds,
        )
        .expect("deploy open resolver");
        let chromium = ChromiumModel::build(&topo, &users, &seeds);
        let roots = RootServerSet::typical();
        let logs = RootLogs::collect(
            &topo,
            &resolvers,
            &chromium,
            &open,
            &roots,
            SimDuration::days(2),
            &seeds,
        );
        assert!(!logs.entries.is_empty());
        assert!(total_queries(&logs) > 0.0);
        // Entries are sorted and deduplicated by address.
        for w in logs.entries.windows(2) {
            assert!(w[0].src < w[1].src);
        }
        // A longer window yields more queries.
        let logs7 = RootLogs::collect(
            &topo,
            &resolvers,
            &chromium,
            &open,
            &roots,
            SimDuration::days(14),
            &seeds,
        );
        assert!(total_queries(&logs7) > total_queries(&logs));
        // Zero open roots -> unusable collection.
        let closed = RootServerSet::new(0, 13);
        let none = RootLogs::collect(
            &topo,
            &resolvers,
            &chromium,
            &open,
            &closed,
            SimDuration::days(2),
            &seeds,
        );
        assert_eq!(total_queries(&none), 0.0);
    }
}
