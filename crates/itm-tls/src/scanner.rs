//! Internet-wide TLS and SNI scanning.
//!
//! The scanner does what zgrab-style campaigns do: sweep the routed
//! address plan attempting handshakes, recording any certificate
//! presented. It has no ground-truth hit list — it tries a set of host
//! offsets inside every routed /24 (serving hosts cluster at conventional
//! offsets in the substrate, as real infra clusters in practice), and a
//! coverage knob models hosts lost to filtering and transient failures.

use crate::certs::Certificate;
use crate::hosts::TlsHostRegistry;
use itm_topology::Topology;
use itm_types::rng::{shard_bounds, stable_hash, SeedDomain, DEFAULT_SHARDS};
use itm_types::{
    merge_sorted_runs_by, DomainId, DomainTable, FaultInjector, FaultPlan, FaultStats, Ipv4Addr,
    ProbeFate,
};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Bytes-equivalent cost of one TLS handshake attempt (client hello +
/// server response; the order of magnitude real zgrab campaigns budget).
const HANDSHAKE_BYTES: u64 = 3_000;

/// Scan parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScanConfig {
    /// Host offsets probed inside each routed /24.
    pub offsets: Vec<u32>,
    /// Probability a listening host actually answers the scanner
    /// (firewalls, rate limits, flaps).
    pub response_rate: f64,
}

impl Default for ScanConfig {
    fn default() -> Self {
        ScanConfig {
            // Offsets cover the substrate's serving conventions (10 for
            // front-ends, 100.. for VIPs, 8/9 for resolver egress) plus a
            // few that hit nothing — the scanner does not know which.
            offsets: vec![1, 8, 9, 10, 53, 100, 101, 102, 240],
            response_rate: 0.97,
        }
    }
}

/// One scan hit: an address that completed a handshake.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScanObservation {
    /// The responding address.
    pub addr: Ipv4Addr,
    /// The presented certificate.
    pub cert: Certificate,
}

/// Results of a full (no-SNI) TLS sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TlsScan {
    /// All hits, in address order.
    pub observations: Vec<ScanObservation>,
    /// How many addresses were attempted.
    pub attempted: usize,
    /// Fault accounting (`observed + degraded + lost == attempted`).
    pub fault_stats: FaultStats,
}

impl TlsScan {
    /// Run the sweep over every routed /24 of the topology.
    pub fn run(
        topo: &Topology,
        registry: &TlsHostRegistry,
        cfg: &ScanConfig,
        seeds: &SeedDomain,
    ) -> TlsScan {
        let faults = FaultInjector::new(FaultPlan::off(), seeds, "tls-scan");
        Self::run_with_faults(topo, registry, cfg, seeds, &faults, |n, job| {
            (0..n).map(job).collect()
        })
    }

    /// How many shards the sweep splits into (a property of the prefix
    /// table, never of the machine running it).
    pub fn shard_count(topo: &Topology) -> usize {
        topo.prefixes.len().clamp(1, DEFAULT_SHARDS)
    }

    /// Run the sweep with a caller-supplied shard runner under fault
    /// injection.
    ///
    /// Each shard sweeps a contiguous prefix slice with its own RNG
    /// stream derived via [`SeedDomain::shard`], so the response-rate
    /// coin flips never depend on how many threads execute the shards.
    /// Probe fates are keyed by `(address, offset)`, so a faulted sweep
    /// is equally thread-count independent; lost handshakes are recorded
    /// in the fault accounting instead of erroring.
    pub fn run_with_faults<R>(
        topo: &Topology,
        registry: &TlsHostRegistry,
        cfg: &ScanConfig,
        seeds: &SeedDomain,
        faults: &FaultInjector,
        run_shards: R,
    ) -> TlsScan
    where
        R: FnOnce(usize, &(dyn Fn(usize) -> TlsScanShard + Sync)) -> Vec<TlsScanShard>,
    {
        let _span = itm_obs::span("tls_scan.run");
        let _campaign = itm_obs::trace::campaign(
            itm_obs::trace::Technique::TlsScan,
            "internet-wide TLS sweep",
        );
        let n_shards = Self::shard_count(topo);
        let parts = run_shards(n_shards, &|shard| {
            Self::sweep_shard(topo, registry, cfg, seeds, faults, shard, n_shards)
        });
        let mut runs = Vec::with_capacity(parts.len());
        let mut attempted = 0;
        let mut fault_stats = FaultStats::default();
        for part in parts {
            runs.push(part.observations);
            attempted += part.attempted;
            fault_stats.merge(&part.stats);
        }
        // Shards hand back address-sorted runs, so the merge is a linear
        // k-way pass — no sort on the merge path.
        let mut observations = merge_sorted_runs_by(runs, |a, b| a.addr < b.addr);
        observations.dedup_by_key(|o| o.addr);
        if itm_obs::trace::enabled() {
            for o in &observations {
                itm_obs::trace::emit(
                    itm_obs::trace::Technique::TlsScan,
                    itm_obs::trace::EventKind::CertMatched,
                    itm_obs::trace::Subjects::none().addr(o.addr.0),
                    &o.cert.subject,
                );
            }
        }
        itm_obs::counter!("probe.connects", "technique" => "tls_scan").add(attempted as u64);
        itm_obs::counter!("probe.hosts", "technique" => "tls_scan").add(observations.len() as u64);
        itm_obs::counter!("probe.bytes", "technique" => "tls_scan")
            .add(attempted as u64 * HANDSHAKE_BYTES);
        TlsScan {
            observations,
            attempted,
            fault_stats,
        }
    }

    /// Sweep one shard's slice of the prefix table.
    fn sweep_shard(
        topo: &Topology,
        registry: &TlsHostRegistry,
        cfg: &ScanConfig,
        seeds: &SeedDomain,
        faults: &FaultInjector,
        shard: usize,
        n_shards: usize,
    ) -> TlsScanShard {
        let (lo, hi) = shard_bounds(topo.prefixes.len(), shard, n_shards);
        let mut rng = seeds.shard("tls-scan", shard as u64).rng("sweep");
        let mut part = TlsScanShard {
            observations: Vec::new(),
            attempted: 0,
            stats: FaultStats::default(),
        };
        let faults_on = !faults.is_off();
        for r in topo.prefixes.iter().skip(lo).take(hi - lo) {
            for &off in &cfg.offsets {
                part.attempted += 1;
                let addr = r.net.addr(off);
                if faults_on {
                    let fate = faults.fate(addr.0 as u64, off as u64, 0);
                    part.stats.record(fate);
                    if !fate.succeeded() {
                        if itm_obs::trace::enabled() {
                            itm_obs::trace::emit(
                                itm_obs::trace::Technique::TlsScan,
                                itm_obs::trace::EventKind::ProbeFailed,
                                itm_obs::trace::Subjects::none()
                                    .prefix(r.id.raw())
                                    .addr(addr.0),
                                "handshake lost, retries exhausted",
                            );
                        }
                        continue;
                    }
                    if itm_obs::trace::enabled() {
                        if let ProbeFate::Degraded { retries } = fate {
                            itm_obs::trace::emit(
                                itm_obs::trace::Technique::TlsScan,
                                itm_obs::trace::EventKind::ProbeRetried,
                                itm_obs::trace::Subjects::none()
                                    .prefix(r.id.raw())
                                    .addr(addr.0),
                                &format!(
                                    "retries={retries} backoff={}s",
                                    faults.total_backoff_secs(addr.0 as u64, retries)
                                ),
                            );
                        }
                    }
                } else {
                    part.stats.record(ProbeFate::Observed);
                }
                if let Some(cert) = registry.handshake(addr, None) {
                    if rng.gen_bool(cfg.response_rate.clamp(0.0, 1.0)) {
                        part.observations.push(ScanObservation {
                            addr,
                            // itm-lint: allow(M001): one owned certificate per observed hit (bounded by the registry, ~hosts not ~probes); sharing would thread lifetimes through every consumer
                            cert: cert.clone(),
                        });
                    }
                }
            }
        }
        // Keep each shard's run address-sorted so the merge never sorts.
        // Offsets ascend within a /24, but prefix *networks* are not
        // guaranteed address-ordered across the table slice.
        part.observations.sort_by_key(|o| o.addr);
        part
    }
}

/// One shard's partial sweep output (disjoint prefix slice).
#[derive(Debug, Clone)]
pub struct TlsScanShard {
    observations: Vec<ScanObservation>,
    attempted: usize,
    stats: FaultStats,
}

/// Results of an SNI scan: for each target domain, the addresses that
/// presented a valid certificate for it.
///
/// Domains are carried as [`DomainId`]s interned in the caller's
/// [`DomainTable`]; the scan never owns a domain string, so the per-domain
/// key cost is four bytes regardless of name length or shard count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SniScan {
    /// Interned domain id -> responding addresses (sorted).
    pub footprint: BTreeMap<DomainId, Vec<Ipv4Addr>>,
    /// How many (address, domain) handshakes were attempted.
    pub attempted: usize,
    /// Fault accounting (`observed + degraded + lost == attempted`).
    pub fault_stats: FaultStats,
}

impl SniScan {
    /// Handshake every candidate address with each domain as SNI.
    ///
    /// `candidates` is typically the hit list from a prior [`TlsScan`]
    /// (scanning the full plan times every domain would be prohibitively
    /// loud, exactly as in practice).
    pub fn run(
        registry: &TlsHostRegistry,
        candidates: &[Ipv4Addr],
        domains: &DomainTable,
        cfg: &ScanConfig,
        seeds: &SeedDomain,
    ) -> SniScan {
        let faults = FaultInjector::new(FaultPlan::off(), seeds, "sni-scan");
        Self::run_with_faults(
            registry,
            candidates,
            domains,
            cfg,
            seeds,
            &faults,
            |n, job| (0..n).map(job).collect(),
        )
    }

    /// How many shards the scan splits into (a property of the domain
    /// table, never of the machine running it).
    pub fn shard_count(domains: &DomainTable) -> usize {
        domains.len().clamp(1, DEFAULT_SHARDS)
    }

    /// Run the scan with a caller-supplied shard runner under fault
    /// injection. Shards cover disjoint domain-id slices, each with its
    /// own [`SeedDomain::shard`] RNG stream; the footprint merge is a
    /// union of disjoint keys. Fates are keyed by `(address,
    /// stable_hash(domain name))` — the *name*, not the id, so faulted
    /// scans are byte-identical across interning-table layouts.
    #[allow(clippy::too_many_arguments)]
    pub fn run_with_faults<R>(
        registry: &TlsHostRegistry,
        candidates: &[Ipv4Addr],
        domains: &DomainTable,
        cfg: &ScanConfig,
        seeds: &SeedDomain,
        faults: &FaultInjector,
        run_shards: R,
    ) -> SniScan
    where
        R: FnOnce(usize, &(dyn Fn(usize) -> SniScanShard + Sync)) -> Vec<SniScanShard>,
    {
        let _span = itm_obs::span("sni_scan.run");
        let _campaign =
            itm_obs::trace::campaign(itm_obs::trace::Technique::SniScan, "SNI-directed TLS scan");
        let n_shards = Self::shard_count(domains);
        let parts = run_shards(n_shards, &|shard| {
            Self::scan_shard(
                registry, candidates, domains, cfg, seeds, faults, shard, n_shards,
            )
        });
        let mut footprint: BTreeMap<DomainId, Vec<Ipv4Addr>> = BTreeMap::new();
        let mut attempted = 0;
        let mut fault_stats = FaultStats::default();
        for part in parts {
            footprint.extend(part.footprint);
            attempted += part.attempted;
            fault_stats.merge(&part.stats);
        }
        itm_obs::counter!("probe.connects", "technique" => "sni_scan").add(attempted as u64);
        itm_obs::counter!("probe.bytes", "technique" => "sni_scan")
            .add(attempted as u64 * HANDSHAKE_BYTES);
        SniScan {
            footprint,
            attempted,
            fault_stats,
        }
    }

    /// Scan one shard's slice of the domain table against all candidates.
    #[allow(clippy::too_many_arguments)]
    fn scan_shard(
        registry: &TlsHostRegistry,
        candidates: &[Ipv4Addr],
        domains: &DomainTable,
        cfg: &ScanConfig,
        seeds: &SeedDomain,
        faults: &FaultInjector,
        shard: usize,
        n_shards: usize,
    ) -> SniScanShard {
        let (lo, hi) = shard_bounds(domains.len(), shard, n_shards);
        let mut rng = seeds.shard("sni-scan", shard as u64).rng("sweep");
        let mut part = SniScanShard {
            footprint: BTreeMap::new(),
            attempted: 0,
            stats: FaultStats::default(),
        };
        let faults_on = !faults.is_off();
        for raw in lo..hi {
            let id = DomainId(raw as u32);
            let domain = domains.name(id);
            let domain_key = stable_hash(domain);
            let mut hits = Vec::new();
            for &addr in candidates {
                part.attempted += 1;
                if faults_on {
                    let fate = faults.fate(addr.0 as u64, domain_key, 1);
                    part.stats.record(fate);
                    if !fate.succeeded() {
                        if itm_obs::trace::enabled() {
                            itm_obs::trace::emit(
                                itm_obs::trace::Technique::SniScan,
                                itm_obs::trace::EventKind::ProbeFailed,
                                itm_obs::trace::Subjects::none().addr(addr.0),
                                &format!("{domain}: handshake lost, retries exhausted"),
                            );
                        }
                        continue;
                    }
                } else {
                    part.stats.record(ProbeFate::Observed);
                }
                if let Some(cert) = registry.handshake(addr, Some(domain)) {
                    if cert.covers(domain) && rng.gen_bool(cfg.response_rate.clamp(0.0, 1.0)) {
                        hits.push(addr);
                    }
                }
            }
            hits.sort_unstable();
            if itm_obs::trace::enabled() {
                for &addr in &hits {
                    itm_obs::trace::emit(
                        itm_obs::trace::Technique::SniScan,
                        itm_obs::trace::EventKind::SniMatched,
                        itm_obs::trace::Subjects::none().addr(addr.0),
                        domain,
                    );
                }
            }
            part.footprint.insert(id, hits);
        }
        part
    }

    /// Addresses serving an interned domain.
    pub fn addresses_of_id(&self, id: DomainId) -> &[Ipv4Addr] {
        self.footprint.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Addresses serving a domain, resolved by name through the same
    /// table the scan ran against. Unknown names have empty footprints.
    pub fn addresses_of(&self, domains: &DomainTable, domain: &str) -> &[Ipv4Addr] {
        domains
            .id(domain)
            .map(|id| self.addresses_of_id(id))
            .unwrap_or(&[])
    }
}

/// One shard's partial scan output (disjoint domain-id slice).
#[derive(Debug, Clone)]
pub struct SniScanShard {
    footprint: BTreeMap<DomainId, Vec<Ipv4Addr>>,
    attempted: usize,
    stats: FaultStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use itm_dns::FrontendDirectory;
    use itm_topology::{generate, TopologyConfig};
    use itm_traffic::{ServiceCatalog, ServiceCatalogConfig, ServiceOwner};

    struct Fixture {
        topo: Topology,
        catalog: ServiceCatalog,
        registry: TlsHostRegistry,
    }

    fn fixture() -> Fixture {
        let topo = generate(&TopologyConfig::small(), 67).unwrap();
        let catalog =
            ServiceCatalog::generate(&ServiceCatalogConfig::small(), &topo, &SeedDomain::new(67));
        let frontends = FrontendDirectory::build(&topo, &catalog);
        let registry = TlsHostRegistry::build(&topo, &catalog, &frontends);
        Fixture {
            topo,
            catalog,
            registry,
        }
    }

    #[test]
    fn full_sweep_finds_most_hypergiant_infra() {
        let f = fixture();
        let scan = TlsScan::run(
            &f.topo,
            &f.registry,
            &ScanConfig::default(),
            &SeedDomain::new(1),
        );
        assert!(scan.attempted > 0);
        assert!(!scan.observations.is_empty());
        // With response_rate 0.97 and covering offsets, we should see at
        // least 90% of registered TLS hosts.
        let total = f.registry.len();
        let frac = scan.observations.len() as f64 / total as f64;
        assert!(frac > 0.85, "saw {frac:.2} of hosts");
    }

    #[test]
    fn deterministic_scan() {
        let f = fixture();
        let a = TlsScan::run(
            &f.topo,
            &f.registry,
            &ScanConfig::default(),
            &SeedDomain::new(2),
        );
        let b = TlsScan::run(
            &f.topo,
            &f.registry,
            &ScanConfig::default(),
            &SeedDomain::new(2),
        );
        assert_eq!(a.observations.len(), b.observations.len());
        for (x, y) in a.observations.iter().zip(&b.observations) {
            assert_eq!(x.addr, y.addr);
        }
    }

    #[test]
    fn zero_response_rate_sees_nothing() {
        let f = fixture();
        let cfg = ScanConfig {
            response_rate: 0.0,
            ..Default::default()
        };
        let scan = TlsScan::run(&f.topo, &f.registry, &cfg, &SeedDomain::new(3));
        assert!(scan.observations.is_empty());
    }

    #[test]
    fn sni_scan_recovers_cloud_tenants() {
        let f = fixture();
        let scan = TlsScan::run(
            &f.topo,
            &f.registry,
            &ScanConfig::default(),
            &SeedDomain::new(4),
        );
        let candidates: Vec<Ipv4Addr> = scan.observations.iter().map(|o| o.addr).collect();
        let domains =
            itm_types::DomainTable::from_names(f.catalog.services.iter().map(|s| &s.domain));
        let sni = SniScan::run(
            &f.registry,
            &candidates,
            &domains,
            &ScanConfig::default(),
            &SeedDomain::new(4),
        );
        // Every cloud tenant should have a non-empty footprint.
        for s in &f.catalog.services {
            if matches!(s.owner, ServiceOwner::CloudTenant { .. }) {
                assert!(
                    !sni.addresses_of(&domains, &s.domain).is_empty(),
                    "{} footprint empty",
                    s.domain
                );
            }
        }
        assert!(sni.attempted >= candidates.len());
        assert!(sni.addresses_of(&domains, "unknown.example").is_empty());
    }
}
