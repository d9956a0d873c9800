//! Topology discovery from cloud vantage points (§3.3.2, E9 support).
//!
//! "Measuring out from cloud VMs uncovers most peering links between the
//! cloud and users \[7\], and Reverse Traceroute can measure reverse paths
//! \[36\]." The campaign launches VMs in every cloud AS, measures paths in
//! both directions to every network, and reports the discovered links —
//! the augmentation that makes public-view path prediction usable for
//! cloud destinations.

use crate::substrate::Substrate;
use itm_routing::{GraphView, VantagePoints};
use itm_topology::{Link, LinkId};
use itm_types::{Asn, FaultInjector, FaultPlan, FaultStats, SeedDomain};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Output of the cloud probing campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CloudProbeResult {
    /// Links discovered (canonical endpoint order).
    pub links: BTreeSet<(Asn, Asn)>,
    /// The vantage points used (post-churn: VMs that survived).
    pub vantage: VantagePoints,
    /// Per-VM fate accounting: a churned VM contributes no links and
    /// counts as lost; `observed + degraded + lost` equals the VMs
    /// launched.
    pub fault_stats: FaultStats,
}

impl CloudProbeResult {
    /// Run the campaign over the ground-truth view (the measurements see
    /// real paths; only their *vantage* is limited).
    pub fn run(s: &Substrate, view: &GraphView, seeds: &SeedDomain) -> CloudProbeResult {
        let faults = FaultInjector::new(FaultPlan::off(), seeds, "cloud_probe");
        Self::run_with_faults(s, view, seeds, &faults, |n, job| (0..n).map(job).collect())
    }

    /// Run with a caller-supplied shard runner (see
    /// `CacheProbeCampaign::run_with_faults`) under a fault plan. One
    /// shard per cloud VM: each VM's routing tree is independent, and the
    /// merged link set is a union of sorted sets, so the result is
    /// schedule-independent. Cloud VMs churn away mid-campaign (quota
    /// reclaims, maintenance) and contribute no links at all. Churn is
    /// keyed by the VM's AS number, so the surviving set — and hence the
    /// shard layout — is identical across runs and thread counts.
    pub fn run_with_faults<R>(
        s: &Substrate,
        view: &GraphView,
        seeds: &SeedDomain,
        faults: &FaultInjector,
        run_shards: R,
    ) -> CloudProbeResult
    where
        R: FnOnce(
            usize,
            &(dyn Fn(usize) -> BTreeSet<(Asn, Asn)> + Sync),
        ) -> Vec<BTreeSet<(Asn, Asn)>>,
    {
        let _span = itm_obs::span("cloud_probe.run");
        let _campaign = itm_obs::trace::campaign(
            itm_obs::trace::Technique::CloudProbe,
            "cloud vantage-point traceroutes",
        );
        // Vantage selection draws from one RNG stream — stays sequential.
        let mut vantage = VantagePoints::typical(&s.topo, seeds);
        // Epoch VM churn: ASes whose VMs are administratively down this
        // epoch never launch (distinct from fault churn, which models
        // mid-campaign reclaims of launched VMs and counts as lost).
        if !s.vm_down.is_empty() {
            vantage.cloud_vms.retain(|vm| !s.vm_down.contains(vm));
        }
        let vms_launched = vantage.cloud_vms.len();
        vantage.apply_churn(faults);
        let fault_stats = FaultStats {
            observed: vantage.cloud_vms.len() as u64,
            lost: (vms_launched - vantage.cloud_vms.len()) as u64,
            ..FaultStats::default()
        };
        let n_shards = vantage.cloud_vms.len().max(1);
        let parts = run_shards(n_shards, &|shard| match vantage.cloud_vms.get(shard) {
            Some(&vm) => VantagePoints::links_from_cloud(view, vm),
            None => BTreeSet::new(),
        });
        let mut links: BTreeSet<(Asn, Asn)> = BTreeSet::new();
        for part in parts {
            links.extend(part);
        }
        if itm_obs::trace::enabled() {
            // BTreeSet iteration is already sorted, so the trace stream
            // is byte-stable across runs without an explicit sort.
            for &(a, b) in links.iter() {
                itm_obs::trace::emit(
                    itm_obs::trace::Technique::CloudProbe,
                    itm_obs::trace::EventKind::LinkDiscovered,
                    itm_obs::trace::Subjects::none().asn(a.raw()),
                    &format!("{a} -- {b}"),
                );
            }
        }
        itm_obs::counter!("probe.hosts", "technique" => "cloud_probe")
            .add(vantage.cloud_vms.len() as u64);
        // Each VM traceroutes toward every AS (forward + reverse pass).
        itm_obs::counter!("probe.traceroutes", "technique" => "cloud_probe")
            .add((vantage.cloud_vms.len() * s.topo.n_ases()) as u64);
        itm_obs::counter!("probe.links_discovered", "technique" => "cloud_probe")
            .add(links.len() as u64);
        CloudProbeResult {
            links,
            vantage,
            fault_stats,
        }
    }

    /// The discovered links as `Link` values (relationships taken from
    /// ground truth — campaigns infer them with standard algorithms; we
    /// grant perfect inference, the optimistic case).
    ///
    /// In link-table order: each discovered key is looked up in its low
    /// endpoint's ASN-sorted neighbor list, and the link ids are sorted.
    pub fn as_links(&self, s: &Substrate) -> Vec<Link> {
        let mut ids: Vec<LinkId> = self
            .links
            .iter()
            .filter_map(|&(a, b)| {
                let nbs = s.topo.neighbors(a);
                let at = nbs.binary_search_by_key(&b, |nb| nb.asn).ok()?;
                Some(nbs[at].link)
            })
            .collect();
        ids.sort_unstable();
        ids.iter().map(|id| s.topo.links[id.index()]).collect()
    }

    /// The discovered link set in normalized `Link::key()` form — the
    /// cloud-probe technique's claim table for the route-plane quality
    /// audit.
    pub fn claimed_links(&self) -> &BTreeSet<(Asn, Asn)> {
        &self.links
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::SubstrateConfig;

    #[test]
    fn discovers_most_cloud_peering() {
        let s = Substrate::build(SubstrateConfig::small(), 137).unwrap();
        let view = s.full_view();
        let r = CloudProbeResult::run(&s, &view, &SeedDomain::new(137));
        assert!(!r.links.is_empty());
        // Most of the clouds' own peering links are discovered.
        let clouds: BTreeSet<Asn> = s.topo.clouds().into_iter().collect();
        let relevant: Vec<&Link> = s
            .topo
            .links
            .iter()
            .filter(|l| l.is_peering() && (clouds.contains(&l.a) || clouds.contains(&l.b)))
            .collect();
        assert!(!relevant.is_empty());
        let found = relevant
            .iter()
            .filter(|l| r.links.contains(&l.key()))
            .count();
        let recall = found as f64 / relevant.len() as f64;
        assert!(recall > 0.5, "recall {recall:.3}");
        // All discovered links are real.
        for &(a, b) in &r.links {
            assert!(s.topo.has_link(a, b));
        }
        // as_links round-trips the set.
        assert_eq!(r.as_links(&s).len(), r.links.len());
    }

    /// The filter `as_links` replaced: every topology link, in table
    /// order, whose key was discovered.
    fn filtered(r: &CloudProbeResult, s: &Substrate) -> Vec<Link> {
        let discovered = |l: &&Link| r.links.contains(&l.key());
        s.topo.links.iter().filter(discovered).copied().collect()
    }

    #[test]
    fn as_links_equals_the_link_table_filter() {
        let s = Substrate::build(SubstrateConfig::small(), 137).unwrap();
        let mut r = CloudProbeResult::run(&s, &s.full_view(), &SeedDomain::new(137));
        assert_eq!(r.as_links(&s), filtered(&r, &s));
        // Every link, plus keys that name no link (a non-adjacent pair,
        // one past the last AS): those are skipped.
        let n = s.topo.n_ases() as u32;
        r.links = s.topo.links.iter().map(|l| l.key()).collect();
        let absent = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (Asn(a), Asn(b))))
            .find(|&(a, b)| !s.topo.has_link(a, b))
            .expect("a non-adjacent pair");
        r.links.insert(absent);
        r.links.insert((Asn(0), Asn(n)));
        let all = r.as_links(&s);
        assert_eq!(all, filtered(&r, &s));
        assert_eq!(all.len(), s.topo.links.len());
        r.links.clear();
        assert!(r.as_links(&s).is_empty());
    }
}
