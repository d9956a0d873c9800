//! Serializable map exports.
//!
//! A downstream user of the traffic map — the researcher who wants to
//! weight a CDF, the operator assessing an outage — needs the map as
//! *data*, not as a live borrow of the substrate. [`MapSummary`] is the
//! portable form: every component in plain serde types, with enough
//! provenance (seed, config scale) to regenerate the full map.

use crate::map::TrafficMap;
use itm_measure::Substrate;
use itm_types::{FaultStats, Ipv4Net};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The portable form of a built traffic map.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MapSummary {
    /// Provenance: master seed of the substrate.
    pub seed: u64,
    /// Provenance: AS count of the substrate.
    pub n_ases: usize,
    /// Component 1: /24s identified as hosting users.
    pub user_prefixes: Vec<Ipv4Net>,
    /// Component 1: fused relative activity per AS (max-normalized).
    pub activity: BTreeMap<u32, f64>,
    /// Component 2: per-service serving-address counts.
    pub service_footprint_sizes: BTreeMap<u32, usize>,
    /// Component 2: off-net deployments found (hypergiant ASN, host ASN).
    pub offnets: Vec<(u32, u32)>,
    /// Component 2: number of measurable user→host mapping cells.
    pub mapping_cells: usize,
    /// Component 3: directed edge count of the route view.
    pub route_edges: usize,
    /// Visibility: fraction of peering invisible to collectors.
    pub invisible_peering: f64,
    /// Per-technique fault accounting (`observed + degraded + lost`
    /// equals the probes issued per technique). Empty for clean builds —
    /// and omitted from the JSON entirely, so clean summaries stay
    /// byte-identical to pre-fault-injection output.
    pub faults: BTreeMap<String, FaultStats>,
}

// The offline serde shim has no derive-driven data model, so the one type
// this workspace actually exports as JSON spells out its field mapping.
// Map-valued fields serialize with sorted keys so the output is a pure
// function of the map's content, independent of hash iteration order.
impl serde_json::Serialize for MapSummary {
    fn to_json_value(&self) -> serde_json::Value {
        use serde_json::{Map, Value};
        let sorted_obj = |m: &BTreeMap<u32, f64>| -> Value {
            let mut keys: Vec<u32> = m.keys().copied().collect();
            keys.sort_unstable();
            Value::Object(
                keys.iter()
                    .map(|k| (k.to_string(), Value::from(m[k])))
                    .collect::<Map>(),
            )
        };
        let mut sizes: Vec<(u32, usize)> = self
            .service_footprint_sizes
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect();
        sizes.sort_unstable();
        let mut out = serde_json::json!({
            "seed": (self.seed),
            "n_ases": (self.n_ases),
            "user_prefixes": (Value::Array(
                self.user_prefixes.iter().map(|p| Value::from(p.to_string())).collect(),
            )),
            "activity": (sorted_obj(&self.activity)),
            "service_footprint_sizes": (Value::Object(
                sizes.iter().map(|(k, v)| (k.to_string(), Value::from(*v))).collect::<Map>(),
            )),
            "offnets": (Value::Array(
                self.offnets
                    .iter()
                    .map(|(hg, host)| Value::Array(vec![Value::from(*hg), Value::from(*host)]))
                    .collect(),
            )),
            "mapping_cells": (self.mapping_cells),
            "route_edges": (self.route_edges),
            "invisible_peering": (self.invisible_peering),
        });
        // Present only for fault-injected builds: clean summaries must
        // stay byte-identical to output that predates the fault model.
        if !self.faults.is_empty() {
            let techniques: Map = self
                .faults
                .iter()
                .map(|(name, st)| {
                    (
                        name.clone(),
                        serde_json::json!({
                            "observed": (st.observed),
                            "degraded": (st.degraded),
                            "lost": (st.lost),
                            "retries": (st.retries),
                        }),
                    )
                })
                .collect();
            if let Value::Object(ref mut m) = out {
                m.insert("faults".to_string(), Value::Object(techniques));
            }
        }
        out
    }
}

impl serde_json::Deserialize for MapSummary {
    fn from_json_value(v: &serde_json::Value) -> Result<MapSummary, serde_json::Error> {
        use serde_json::{Error, Value};
        let field = |name: &str| -> Result<&Value, Error> {
            v.get(name)
                .ok_or_else(|| Error::new(format!("MapSummary: missing field `{name}`")))
        };
        let num_map = |name: &str| -> Result<BTreeMap<u32, f64>, Error> {
            match field(name)? {
                Value::Object(m) => m
                    .iter()
                    .map(|(k, val)| {
                        let key: u32 = k
                            .parse()
                            .map_err(|_| Error::new(format!("{name}: bad key {k:?}")))?;
                        let x = val
                            .as_f64()
                            .ok_or_else(|| Error::new(format!("{name}: non-numeric value")))?;
                        Ok((key, x))
                    })
                    .collect(),
                _ => Err(Error::new(format!("{name}: expected object"))),
            }
        };
        let user_prefixes = match field("user_prefixes")? {
            Value::Array(items) => items
                .iter()
                .map(|p| {
                    p.as_str()
                        .and_then(|s| s.parse::<Ipv4Net>().ok())
                        .ok_or_else(|| Error::new("user_prefixes: bad prefix"))
                })
                .collect::<Result<Vec<Ipv4Net>, Error>>()?,
            _ => return Err(Error::new("user_prefixes: expected array")),
        };
        let offnets = match field("offnets")? {
            Value::Array(items) => items
                .iter()
                .map(|pair| match pair.as_array().map(Vec::as_slice) {
                    Some([a, b]) => match (a.as_u64(), b.as_u64()) {
                        (Some(hg), Some(host)) => Ok((hg as u32, host as u32)),
                        _ => Err(Error::new("offnets: non-integer ASN")),
                    },
                    _ => Err(Error::new("offnets: expected [hg, host] pair")),
                })
                .collect::<Result<Vec<(u32, u32)>, Error>>()?,
            _ => return Err(Error::new("offnets: expected array")),
        };
        let uint = |name: &str| -> Result<u64, Error> {
            field(name)?
                .as_u64()
                .ok_or_else(|| Error::new(format!("{name}: expected integer")))
        };
        // Optional: absent in clean summaries and in files written before
        // the fault model existed.
        let mut faults: BTreeMap<String, FaultStats> = BTreeMap::new();
        if let Some(Value::Object(m)) = v.get("faults") {
            for (name, st) in m.iter() {
                let count = |key: &str| -> Result<u64, Error> {
                    st.get(key)
                        .and_then(Value::as_u64)
                        .ok_or_else(|| Error::new(format!("faults.{name}.{key}: expected integer")))
                };
                faults.insert(
                    name.clone(),
                    FaultStats {
                        observed: count("observed")?,
                        degraded: count("degraded")?,
                        lost: count("lost")?,
                        retries: count("retries")?,
                    },
                );
            }
        }
        Ok(MapSummary {
            seed: uint("seed")?,
            n_ases: uint("n_ases")? as usize,
            user_prefixes,
            activity: num_map("activity")?,
            service_footprint_sizes: num_map("service_footprint_sizes")?
                .into_iter()
                .map(|(k, v)| (k, v as usize))
                .collect(),
            offnets,
            mapping_cells: uint("mapping_cells")? as usize,
            route_edges: uint("route_edges")? as usize,
            invisible_peering: field("invisible_peering")?
                .as_f64()
                .ok_or_else(|| Error::new("invisible_peering: expected number"))?,
            faults,
        })
    }
}

impl MapSummary {
    /// Extract the portable summary from a built map.
    pub fn extract(s: &Substrate, map: &TrafficMap) -> MapSummary {
        let mut user_prefixes: Vec<Ipv4Net> = map
            .user_prefixes
            .iter()
            .map(|&p| s.topo.prefixes.get(p).net)
            .collect();
        user_prefixes.sort();
        let activity = map
            .activity
            .iter()
            .map(|(a, e)| (a.raw(), e.fused))
            .collect();
        let service_footprint_sizes = map
            .sni_footprints
            .iter()
            .map(|(svc, addrs)| (svc.raw(), addrs.len()))
            .collect();
        let mut offnets: Vec<(u32, u32)> = map
            .offnet_servers
            .iter()
            .map(|f| (f.hypergiant.raw(), f.host.raw()))
            .collect();
        offnets.sort_unstable();
        offnets.dedup();
        MapSummary {
            seed: s.seed,
            n_ases: s.topo.n_ases(),
            user_prefixes,
            activity,
            service_footprint_sizes,
            offnets,
            mapping_cells: map.user_mapping.mapping.len(),
            route_edges: map.route_view.n_edges_directed(),
            invisible_peering: map
                .visibility
                .invisible_fraction("all-peering")
                .unwrap_or(0.0),
            faults: map.fault_report.clone(),
        }
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<MapSummary, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::MapConfig;
    use itm_measure::SubstrateConfig;

    fn build() -> (Substrate, TrafficMap) {
        let s = Substrate::build(SubstrateConfig::small(), 197).unwrap();
        let m = TrafficMap::build(&s, &MapConfig::default()).expect("map build");
        (s, m)
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let (s, m) = build();
        let summary = MapSummary::extract(&s, &m);
        let json = summary.to_json().expect("serializable");
        let back = MapSummary::from_json(&json).unwrap();
        assert_eq!(back.seed, summary.seed);
        assert_eq!(back.user_prefixes, summary.user_prefixes);
        assert_eq!(back.mapping_cells, summary.mapping_cells);
        assert_eq!(back.offnets, summary.offnets);
        assert_eq!(back.route_edges, summary.route_edges);
        assert_eq!(back.activity.len(), summary.activity.len());
    }

    #[test]
    fn summary_is_consistent_with_map() {
        let (s, m) = build();
        let summary = MapSummary::extract(&s, &m);
        assert_eq!(summary.user_prefixes.len(), m.user_prefixes.len());
        assert_eq!(summary.n_ases, s.topo.n_ases());
        assert!(summary.invisible_peering > 0.5);
        // Weights exist for active eyeballs.
        let (asn, est) = m.activity.iter().next().unwrap();
        assert_eq!(summary.activity.get(&asn.raw()), Some(&est.fused));
    }

    #[test]
    fn prefixes_are_sorted_and_unique() {
        let (s, m) = build();
        let summary = MapSummary::extract(&s, &m);
        for w in summary.user_prefixes.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
