//! Off-net detection from scan output — the \[25\] classifier.
//!
//! "Seven years in the life of hypergiants' off-nets" identifies off-net
//! caches by finding addresses that present a hypergiant's certificates
//! while sitting inside *another* organization's address space. The same
//! two-stage logic runs here:
//!
//! 1. **Ownership match**: an observation whose certificate was issued by
//!    a hypergiant's private CA is hypergiant infrastructure.
//! 2. **Location split**: if the address's routed prefix belongs to the
//!    hypergiant itself it is on-net; if it belongs to someone else, it is
//!    an off-net inside that AS.

use crate::scanner::TlsScan;
use crate::TlsHostRegistry;
use itm_topology::Topology;
use itm_types::{Asn, Ipv4Addr};
use serde::{Deserialize, Serialize};

/// One detected off-net deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OffnetFinding {
    /// The hypergiant operating the server.
    pub hypergiant: Asn,
    /// The AS hosting it.
    pub host: Asn,
    /// The observed server address.
    pub addr: Ipv4Addr,
    /// City of the hosting prefix (from the public-ish geolocation of the
    /// prefix; the substrate's prefix table stands in for that).
    pub city: u32,
}

/// Classify a TLS sweep into on-net and off-net hypergiant infrastructure.
///
/// Returns `(onnet, offnet)` findings. The scan itself carries no
/// ownership labels — classification uses only the certificate issuer and
/// the routed-prefix origin, both of which real campaigns have.
pub fn detect_offnets(
    topo: &Topology,
    registry: &TlsHostRegistry,
    scan: &TlsScan,
) -> (Vec<OffnetFinding>, Vec<OffnetFinding>) {
    let mut onnet = Vec::new();
    let mut offnet = Vec::new();
    for obs in &scan.observations {
        let Some(hg) = registry.issuer_hypergiant(&obs.cert) else {
            continue; // public-CA cert: not hypergiant infrastructure
        };
        let Some(rec) = topo.prefixes.lookup(obs.addr) else {
            continue; // unrouted responder (cannot happen in-substrate)
        };
        let finding = OffnetFinding {
            hypergiant: hg,
            host: rec.owner,
            addr: obs.addr,
            city: rec.city,
        };
        if rec.owner == hg {
            onnet.push(finding);
        } else {
            if itm_obs::trace::enabled() {
                itm_obs::trace::emit(
                    itm_obs::trace::Technique::TlsScan,
                    itm_obs::trace::EventKind::OffnetDetected,
                    itm_obs::trace::Subjects::none()
                        .asn(rec.owner.raw())
                        .addr(obs.addr.0)
                        .prefix(rec.id.raw()),
                    &format!("hypergiant {hg}"),
                );
            }
            offnet.push(finding);
        }
    }
    (onnet, offnet)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::{ScanConfig, TlsScan};
    use itm_dns::FrontendDirectory;
    use itm_topology::{generate, TopologyConfig};
    use itm_traffic::{ServiceCatalog, ServiceCatalogConfig};
    use itm_types::SeedDomain;

    fn run() -> (Topology, Vec<OffnetFinding>, Vec<OffnetFinding>) {
        let topo = generate(&TopologyConfig::small(), 71).unwrap();
        let catalog =
            ServiceCatalog::generate(&ServiceCatalogConfig::small(), &topo, &SeedDomain::new(71));
        let frontends = FrontendDirectory::build(&topo, &catalog);
        let registry = TlsHostRegistry::build(&topo, &catalog, &frontends);
        let scan = TlsScan::run(
            &topo,
            &registry,
            &ScanConfig {
                response_rate: 1.0,
                ..Default::default()
            },
            &SeedDomain::new(71),
        );
        let (on, off) = detect_offnets(&topo, &registry, &scan);
        (topo, on, off)
    }

    #[test]
    fn detections_match_ground_truth() {
        let (topo, _, off) = run();
        // Every off-net finding corresponds to a real deployment.
        for f in &off {
            assert!(
                topo.offnets.find(f.hypergiant, f.host).is_some(),
                "phantom off-net {f:?}"
            );
        }
        // And detection covers the deployments of hypergiants that appear
        // in the scan (response_rate = 1, so all servers answered).
        let detected: std::collections::HashSet<(Asn, Asn)> =
            off.iter().map(|f| (f.hypergiant, f.host)).collect();
        let mut missed = 0;
        let mut total = 0;
        for d in topo.offnets.iter() {
            // Only deployments whose hypergiant actually serves catalogue
            // services have TLS hosts.
            if detected.iter().any(|(hg, _)| *hg == d.hypergiant) {
                total += 1;
                if !detected.contains(&(d.hypergiant, d.host)) {
                    missed += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            (missed as f64) < total as f64 * 0.05,
            "missed {missed}/{total}"
        );
    }

    #[test]
    fn onnet_findings_are_in_hypergiant_space() {
        let (topo, on, _) = run();
        assert!(!on.is_empty());
        for f in &on {
            assert_eq!(f.host, f.hypergiant);
            let rec = topo.prefixes.lookup(f.addr).unwrap();
            assert_eq!(rec.owner, f.hypergiant);
        }
    }
}
