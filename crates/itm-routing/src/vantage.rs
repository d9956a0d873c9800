//! Vantage-point sets: the limited viewpoints real campaigns have.
//!
//! §3.3.1 tries to "predict paths from RIPE Atlas probes to root DNS
//! servers"; §3.3.2 notes "measuring out from cloud VMs uncovers most
//! peering links between the cloud and users" \[7\] and that Reverse
//! Traceroute can measure reverse paths \[36\]. Both vantage classes are
//! modelled here: Atlas-like probes sit in a skewed sample of edge
//! networks; cloud VMs sit inside cloud ASes and can probe outward.

use crate::bgp::RoutingTree;
use crate::view::GraphView;
use itm_topology::{AsClass, Topology};
use itm_types::rng::SeedDomain;
use itm_types::{Asn, FaultInjector};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A set of measurement vantage points.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VantagePoints {
    /// ASes hosting Atlas-like probes.
    pub probes: Vec<Asn>,
    /// Cloud ASes where VMs can be launched.
    pub cloud_vms: Vec<Asn>,
}

impl VantagePoints {
    /// A typical deployment: probes in a biased sample of eyeballs/stubs
    /// (researcher-adjacent networks are overrepresented; coverage is far
    /// from uniform — the paper's criticism of crowdsourced platforms),
    /// and VMs in every cloud.
    pub fn typical(topo: &Topology, seeds: &SeedDomain) -> VantagePoints {
        let mut rng = seeds.rng("vantage");
        let mut probes = Vec::new();
        for a in &topo.ases {
            let p = match a.class {
                AsClass::Eyeball => 0.25,
                AsClass::Stub => 0.08,
                AsClass::Transit => 0.05,
                _ => 0.0,
            };
            if p > 0.0 && rng.gen_bool(p) {
                probes.push(a.asn);
            }
        }
        VantagePoints {
            probes,
            cloud_vms: topo.clouds(),
        }
    }

    /// Remove vantage points that churn away mid-campaign under the given
    /// fault plan — probes go offline, VMs get reclaimed (the norm on
    /// Atlas-style platforms). Draws are keyed by the vantage AS number,
    /// so the churned set is identical across runs and thread counts.
    /// Returns `(kept, churned)` counts.
    pub fn apply_churn(&mut self, faults: &FaultInjector) -> (usize, usize) {
        if faults.is_off() {
            return (self.probes.len() + self.cloud_vms.len(), 0);
        }
        let before = self.probes.len() + self.cloud_vms.len();
        let drop_vantage = |asn: &Asn| {
            let churned = faults.churned(asn.raw() as u64);
            if churned {
                itm_obs::counter!("faults.vantage.churned").inc();
                itm_obs::trace::emit(
                    itm_obs::trace::Technique::Routing,
                    itm_obs::trace::EventKind::ProbeFailed,
                    itm_obs::trace::Subjects::none().asn(asn.raw()),
                    "vantage point churned mid-campaign",
                );
            }
            !churned
        };
        self.probes.retain(drop_vantage);
        self.cloud_vms.retain(drop_vantage);
        let kept = self.probes.len() + self.cloud_vms.len();
        (kept, before - kept)
    }

    /// Links discovered by measuring out from one cloud VM: every link on
    /// a best path between the cloud and any AS, in either direction
    /// (forward probing plus Reverse-Traceroute-style reverse paths
    /// \[36\]) — the §3.3.2 observation that cloud vantage points recover
    /// cloud–edge peering that collectors miss.
    ///
    /// Forward: cloud -> everyone. One tree per destination would be O(V) trees; instead
    /// exploit symmetry of the link *set*: paths toward the cloud (one
    /// tree per cloud) cover reverse paths, and forward paths cloud->dst
    /// traverse the same link set. Each VM's tree is independent of every
    /// other VM's, which is what lets the campaign shard per VM.
    pub fn links_from_cloud(view: &GraphView, cloud: Asn) -> BTreeSet<(Asn, Asn)> {
        let mut found = BTreeSet::new();
        let tree = RoutingTree::compute(view, cloud);
        for i in 0..view.n_ases() {
            if let Some(path) = tree.path(Asn(i as u32)) {
                for w in path.windows(2) {
                    let key = if w[0] <= w[1] {
                        (w[0], w[1])
                    } else {
                        (w[1], w[0])
                    };
                    found.insert(key);
                }
            }
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itm_topology::{generate, TopologyConfig};

    fn setup() -> (Topology, GraphView) {
        let t = generate(&TopologyConfig::small(), 21).unwrap();
        let v = GraphView::full(&t);
        (t, v)
    }

    #[test]
    fn typical_has_probes_and_vms() {
        let (t, _) = setup();
        let vp = VantagePoints::typical(&t, &SeedDomain::new(1));
        assert!(!vp.probes.is_empty());
        assert_eq!(vp.cloud_vms.len(), TopologyConfig::small().n_cloud);
        for &p in &vp.probes {
            assert!(!t.as_info(p).class.is_content());
        }
    }

    #[test]
    fn cloud_vms_discover_cloud_peering() {
        let (t, v) = setup();
        let vp = VantagePoints::typical(&t, &SeedDomain::new(1));
        let found: BTreeSet<(Asn, Asn)> = vp
            .cloud_vms
            .iter()
            .flat_map(|&c| VantagePoints::links_from_cloud(&v, c))
            .collect();
        assert!(!found.is_empty());
        // Every discovered link is real.
        for &(a, b) in &found {
            assert!(t.has_link(a, b));
        }
        // A healthy share of the clouds' own peering links gets found.
        let clouds: BTreeSet<Asn> = vp.cloud_vms.iter().copied().collect();
        let cloud_peerings: Vec<_> = t
            .links
            .iter()
            .filter(|l| l.is_peering() && (clouds.contains(&l.a) || clouds.contains(&l.b)))
            .collect();
        let covered = cloud_peerings
            .iter()
            .filter(|l| found.contains(&l.key()))
            .count();
        assert!(
            covered * 2 >= cloud_peerings.len(),
            "cloud VMs found {covered}/{}",
            cloud_peerings.len()
        );
    }
}
