//! Hypergiant off-net deployments.
//!
//! "The largest providers serve traffic from CDN caches in thousands of
//! networks around the world" (§1, citing \[25\]). An off-net deployment is a
//! cache cluster operated by a hypergiant but hosted inside another AS's
//! address space, serving that AS's (and sometimes its customers') users.
//! Off-nets are why traceroute-through-IXP traffic estimation fails (§1:
//! "the approach does not apply to … traffic … that flows from caches")
//! and are a primary target of the TLS-scan technique (§3.2.2, Figure 1b).

use itm_types::{Asn, PrefixId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One hypergiant cache cluster hosted inside a foreign AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OffnetDeployment {
    /// The hypergiant operating the servers.
    pub hypergiant: Asn,
    /// The AS hosting the cluster.
    pub host: Asn,
    /// The /24 (of kind [`crate::PrefixKind::OffnetCache`]) the cluster
    /// lives in, owned by `host`.
    pub prefix: PrefixId,
    /// City (world city index) of the cluster.
    pub city: u32,
}

/// All off-net deployments, with lookup indices.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OffnetTable {
    deployments: Vec<OffnetDeployment>,
    by_hypergiant: BTreeMap<Asn, Vec<usize>>,
    by_host: BTreeMap<Asn, Vec<usize>>,
}

impl OffnetTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a deployment.
    pub fn push(&mut self, d: OffnetDeployment) {
        let i = self.deployments.len();
        self.by_hypergiant.entry(d.hypergiant).or_default().push(i);
        self.by_host.entry(d.host).or_default().push(i);
        self.deployments.push(d);
    }

    /// All deployments.
    pub fn iter(&self) -> impl Iterator<Item = &OffnetDeployment> {
        self.deployments.iter()
    }

    /// Number of deployments.
    pub fn len(&self) -> usize {
        self.deployments.len()
    }

    /// Whether there are no deployments.
    pub fn is_empty(&self) -> bool {
        self.deployments.is_empty()
    }

    /// Deployments operated by a hypergiant.
    pub fn of_hypergiant(&self, hg: Asn) -> impl Iterator<Item = &OffnetDeployment> {
        self.by_hypergiant
            .get(&hg)
            .into_iter()
            .flatten()
            .map(move |&i| &self.deployments[i])
    }

    /// The deployment of `hg` inside `host`, if any.
    pub fn find(&self, hg: Asn, host: Asn) -> Option<&OffnetDeployment> {
        self.of_hypergiant(hg).find(|d| d.host == host)
    }

    /// Number of distinct host ASes carrying at least one off-net.
    pub fn distinct_hosts(&self) -> usize {
        self.by_host.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dep(hg: u32, host: u32, pfx: u32) -> OffnetDeployment {
        OffnetDeployment {
            hypergiant: Asn(hg),
            host: Asn(host),
            prefix: PrefixId(pfx),
            city: 0,
        }
    }

    #[test]
    fn indices_work() {
        let mut t = OffnetTable::new();
        t.push(dep(1, 10, 100));
        t.push(dep(1, 11, 101));
        t.push(dep(2, 10, 102));
        assert_eq!(t.len(), 3);
        assert_eq!(t.of_hypergiant(Asn(1)).count(), 2);
        assert_eq!(t.find(Asn(2), Asn(10)).unwrap().prefix, PrefixId(102));
        assert!(t.find(Asn(2), Asn(11)).is_none());
        assert_eq!(t.distinct_hosts(), 2);
    }

    #[test]
    fn empty_table() {
        let t = OffnetTable::new();
        assert!(t.is_empty());
        assert_eq!(t.of_hypergiant(Asn(1)).count(), 0);
    }
}
