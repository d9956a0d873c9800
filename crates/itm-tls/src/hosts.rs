//! Ground-truth TLS behaviour of serving addresses.
//!
//! Built from the frontend directory: every endpoint address gets a host
//! profile describing how it answers a TLS handshake.
//!
//! * **Hypergiant infrastructure** (on-net PoPs *and* off-net caches):
//!   presents the hypergiant's infrastructure certificate — SAN covering
//!   all its properties, issued by its private CA — to any handshake,
//!   SNI or not. This uniformity is precisely why TLS scans can map
//!   hypergiant footprints including caches hiding inside eyeball
//!   networks \[25\].
//! * **Cloud front-ends**: multi-tenant; present a tenant's certificate
//!   only when the handshake carries that tenant's SNI, else a default
//!   cloud certificate. This is why plain scans miss cloud-hosted services
//!   and §3.2.2 proposes *SNI* scans.

use crate::certs::Certificate;
use itm_dns::FrontendDirectory;
use itm_topology::Topology;
use itm_traffic::{ServiceCatalog, ServiceOwner};
use itm_types::{Asn, Ipv4Addr, ServiceId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How one serving address behaves.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum HostProfile {
    /// Hypergiant on-net or off-net server.
    HypergiantInfra {
        /// The operating hypergiant.
        hg: Asn,
        /// `Some(host)` if this is an off-net cache inside `host`.
        offnet_host: Option<Asn>,
    },
    /// A cloud load-balancer fronting tenant services.
    CloudFrontend {
        /// The cloud AS.
        cloud: Asn,
        /// Tenants reachable at this address (SNI-selected).
        tenants: Vec<ServiceId>,
    },
}

/// All TLS-speaking addresses of the Internet, with their behaviour.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TlsHostRegistry {
    hosts: BTreeMap<u32, HostProfile>,
    /// Cached per-hypergiant infra certificates.
    hg_certs: BTreeMap<Asn, Certificate>,
    /// Cached per-tenant certificates.
    tenant_certs: BTreeMap<ServiceId, Certificate>,
    /// Default cloud certs.
    cloud_certs: BTreeMap<Asn, Certificate>,
}

impl TlsHostRegistry {
    /// Build the registry from the frontend directory.
    pub fn build(
        topo: &Topology,
        catalog: &ServiceCatalog,
        frontends: &FrontendDirectory,
    ) -> TlsHostRegistry {
        let mut hosts: BTreeMap<u32, HostProfile> = BTreeMap::new();
        let mut hg_certs = BTreeMap::new();
        let mut tenant_certs = BTreeMap::new();
        let mut cloud_certs = BTreeMap::new();

        for s in &catalog.services {
            match s.owner {
                ServiceOwner::Hypergiant(hg) => {
                    // Infra cert: SAN accumulates every property of hg.
                    let cert = hg_certs.entry(hg).or_insert_with(|| Certificate {
                        subject: format!("*.hg{}.example", hg.raw()),
                        san: Vec::new(),
                        issuer: Certificate::hypergiant_issuer(hg.raw()),
                        serial: 0x1000_0000 + hg.raw() as u64,
                    });
                    cert.san.push(s.domain.clone());
                    for e in frontends.endpoints(s.id) {
                        hosts
                            .entry(e.addr.0)
                            .or_insert(HostProfile::HypergiantInfra {
                                hg,
                                offnet_host: e.offnet_host,
                            });
                    }
                    if let Some(vip) = frontends.vip(s.id) {
                        hosts.entry(vip.0).or_insert(HostProfile::HypergiantInfra {
                            hg,
                            offnet_host: None,
                        });
                    }
                }
                ServiceOwner::CloudTenant { cloud } => {
                    cloud_certs.entry(cloud).or_insert_with(|| Certificate {
                        subject: format!("default.cloud{}.example", cloud.raw()),
                        san: vec![format!("default.cloud{}.example", cloud.raw())],
                        issuer: Certificate::public_issuer(),
                        serial: 0x2000_0000 + cloud.raw() as u64,
                    });
                    tenant_certs.insert(
                        s.id,
                        Certificate {
                            subject: s.domain.clone(),
                            san: vec![s.domain.clone()],
                            issuer: Certificate::public_issuer(),
                            serial: 0x3000_0000 + s.id.raw() as u64,
                        },
                    );
                    for e in frontends.endpoints(s.id) {
                        match hosts.entry(e.addr.0).or_insert(HostProfile::CloudFrontend {
                            cloud,
                            tenants: Vec::new(),
                        }) {
                            HostProfile::CloudFrontend { tenants, .. } => {
                                if !tenants.contains(&s.id) {
                                    tenants.push(s.id);
                                }
                            }
                            // Address already claimed by hypergiant infra
                            // (shared hosting space edge case): leave it.
                            HostProfile::HypergiantInfra { .. } => {}
                        }
                    }
                    if let Some(vip) = frontends.vip(s.id) {
                        match hosts.entry(vip.0).or_insert(HostProfile::CloudFrontend {
                            cloud,
                            tenants: Vec::new(),
                        }) {
                            HostProfile::CloudFrontend { tenants, .. } => {
                                if !tenants.contains(&s.id) {
                                    tenants.push(s.id);
                                }
                            }
                            HostProfile::HypergiantInfra { .. } => {}
                        }
                    }
                }
            }
        }
        let _ = topo;
        TlsHostRegistry {
            hosts,
            hg_certs,
            tenant_certs,
            cloud_certs,
        }
    }

    /// Number of TLS-speaking addresses.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// The profile at an address, if TLS answers there.
    pub fn profile(&self, addr: Ipv4Addr) -> Option<&HostProfile> {
        self.hosts.get(&addr.0)
    }

    /// Perform a handshake: what certificate does `addr` present for an
    /// optional SNI? `None` = nothing listens there.
    pub fn handshake(&self, addr: Ipv4Addr, sni: Option<&str>) -> Option<&Certificate> {
        match self.hosts.get(&addr.0)? {
            HostProfile::HypergiantInfra { hg, .. } => self.hg_certs.get(hg),
            HostProfile::CloudFrontend { cloud, tenants } => {
                if let Some(name) = sni {
                    for t in tenants {
                        let cert = self.tenant_certs.get(t)?;
                        if cert.covers(name) {
                            return Some(cert);
                        }
                    }
                }
                self.cloud_certs.get(cloud)
            }
        }
    }

    /// The hypergiant whose private CA issued `cert`, if any — the
    /// fingerprint-matching step of \[25\].
    pub fn issuer_hypergiant(&self, cert: &Certificate) -> Option<Asn> {
        self.hg_certs
            .iter()
            .find(|(_, c)| c.issuer == cert.issuer)
            .map(|(hg, _)| *hg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itm_dns::FrontendDirectory;
    use itm_topology::{generate, TopologyConfig};
    use itm_traffic::ServiceCatalogConfig;
    use itm_types::SeedDomain;

    fn setup() -> (Topology, ServiceCatalog, FrontendDirectory, TlsHostRegistry) {
        let t = generate(&TopologyConfig::small(), 61).unwrap();
        let c = ServiceCatalog::generate(&ServiceCatalogConfig::small(), &t, &SeedDomain::new(61));
        let f = FrontendDirectory::build(&t, &c);
        let reg = TlsHostRegistry::build(&t, &c, &f);
        (t, c, f, reg)
    }

    #[test]
    fn every_endpoint_speaks_tls() {
        let (_, c, f, reg) = setup();
        for s in &c.services {
            for e in f.endpoints(s.id) {
                assert!(reg.profile(e.addr).is_some(), "{} silent", e.addr);
            }
        }
    }

    #[test]
    fn hypergiant_cert_regardless_of_sni() {
        let (_, c, f, reg) = setup();
        let s = c
            .services
            .iter()
            .find(|s| matches!(s.owner, ServiceOwner::Hypergiant(_)))
            .unwrap();
        let e = f.endpoints(s.id)[0];
        let no_sni = reg.handshake(e.addr, None).unwrap();
        let with_sni = reg.handshake(e.addr, Some(&s.domain)).unwrap();
        assert_eq!(no_sni, with_sni);
        assert!(no_sni.covers(&s.domain));
        let ServiceOwner::Hypergiant(hg) = s.owner else {
            unreachable!()
        };
        assert_eq!(reg.issuer_hypergiant(no_sni), Some(hg));
    }

    #[test]
    fn cloud_requires_sni_for_tenant_cert() {
        let (_, c, f, reg) = setup();
        let Some(s) = c
            .services
            .iter()
            .find(|s| matches!(s.owner, ServiceOwner::CloudTenant { .. }))
        else {
            return; // tiny catalogues may lack cloud tenants
        };
        let e = f
            .endpoints(s.id)
            .iter()
            .find(|e| matches!(reg.profile(e.addr), Some(HostProfile::CloudFrontend { .. })))
            .copied();
        let Some(e) = e else { return };
        let default = reg.handshake(e.addr, None).unwrap();
        assert!(!default.covers(&s.domain), "tenant cert leaked without SNI");
        let tenant = reg.handshake(e.addr, Some(&s.domain)).unwrap();
        assert!(tenant.covers(&s.domain));
        assert!(reg.issuer_hypergiant(tenant).is_none());
    }

    #[test]
    fn silent_addresses_return_none() {
        let (_, _, _, reg) = setup();
        assert!(reg
            .handshake("203.0.113.1".parse().unwrap(), None)
            .is_none());
    }

    #[test]
    fn offnet_addresses_present_hypergiant_infra() {
        let (t, _, _, reg) = setup();
        let mut checked = 0;
        for d in t.offnets.iter() {
            let addr = t.prefixes.get(d.prefix).net.addr(10);
            match reg.profile(addr) {
                Some(HostProfile::HypergiantInfra { hg, offnet_host }) => {
                    assert_eq!(*hg, d.hypergiant);
                    assert_eq!(*offnet_host, Some(d.host));
                    checked += 1;
                }
                other => panic!("off-net {addr} has profile {other:?}"),
            }
        }
        assert!(checked > 0);
    }
}
