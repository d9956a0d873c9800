//! Path-prediction experiments (§3.3, E9).
//!
//! "When we tried to predict paths from RIPE Atlas probes to root DNS
//! servers, more than half could not be predicted due to missing links."
//!
//! The experiment predicts paths from vantage ASes to destination ASes on
//! three topology views — public (collector-visible), public + cloud-VM
//! measurements, and public + recommender-predicted links — and scores
//! each against the true paths. Failure modes are separated: *unreachable*
//! (missing links make the destination unroutable from the vantage) vs
//! *wrong* (a path is predicted but differs from the truth).

use itm_measure::Substrate;
use itm_routing::{GraphView, RoutingTree, VantagePoints};
use itm_types::Asn;
use serde::{Deserialize, Serialize};

/// Prediction scores on one view.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PredictionReport {
    /// (vantage, destination) pairs evaluated.
    pub pairs: usize,
    /// Pairs with no predicted route at all (missing-link failures).
    pub unreachable: usize,
    /// Pairs predicted exactly right (same AS path).
    pub exact: usize,
    /// Pairs predicted with the right next hop from the vantage.
    pub first_hop_correct: usize,
    /// Mean |predicted length − true length| over reachable pairs.
    pub mean_length_error: f64,
}

impl PredictionReport {
    /// Fraction predicted exactly.
    pub fn exact_fraction(&self) -> f64 {
        if self.pairs == 0 {
            0.0
        } else {
            self.exact as f64 / self.pairs as f64
        }
    }
}

/// The full E9 experiment.
#[derive(Debug, Clone)]
pub struct PredictionExperiment {
    /// Vantage ASes (Atlas-probe hosts).
    pub vantages: Vec<Asn>,
    /// Destination ASes (root-server-operator stand-ins: content and
    /// infrastructure ASes).
    pub destinations: Vec<Asn>,
}

impl PredictionExperiment {
    /// Vantages from the typical probe deployment; destinations are the
    /// hypergiants and clouds (the networks popular services live in).
    pub fn typical(s: &Substrate, vantage: &VantagePoints) -> PredictionExperiment {
        let mut destinations = s.topo.hypergiants();
        destinations.extend(s.topo.clouds());
        PredictionExperiment {
            vantages: vantage.probes.clone(),
            destinations,
        }
    }

    /// Score predictions made on `view` against truth computed on `truth`.
    pub fn evaluate(&self, truth: &GraphView, view: &GraphView) -> PredictionReport {
        let mut pairs = 0;
        let mut unreachable = 0;
        let mut exact = 0;
        let mut first_hop = 0;
        let mut len_err_sum = 0.0;
        let mut len_err_n = 0usize;

        for &dst in &self.destinations {
            let true_tree = RoutingTree::compute(truth, dst);
            let pred_tree = RoutingTree::compute(view, dst);
            for &v in &self.vantages {
                let Some(true_path) = true_tree.path(v) else {
                    continue; // skip pairs unreachable even in truth
                };
                pairs += 1;
                match pred_tree.path(v) {
                    None => unreachable += 1,
                    Some(pred_path) => {
                        if pred_path == true_path {
                            exact += 1;
                        }
                        if pred_path.len() > 1
                            && true_path.len() > 1
                            && pred_path[1] == true_path[1]
                        {
                            first_hop += 1;
                        }
                        len_err_sum += ((pred_path.len() as f64) - (true_path.len() as f64)).abs();
                        len_err_n += 1;
                    }
                }
            }
        }

        PredictionReport {
            pairs,
            unreachable,
            exact,
            first_hop_correct: first_hop,
            mean_length_error: if len_err_n > 0 {
                len_err_sum / len_err_n as f64
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itm_measure::{CloudProbeResult, SubstrateConfig};
    use itm_routing::CollectorSet;
    use itm_types::SeedDomain;

    #[test]
    fn public_view_is_much_worse_than_truth() {
        let s = Substrate::build(SubstrateConfig::small(), 157).unwrap();
        let truth = s.full_view();
        let vantage = VantagePoints::typical(&s.topo, &s.seeds);
        let exp = PredictionExperiment::typical(&s, &vantage);

        // Perfect view predicts perfectly.
        let perfect = exp.evaluate(&truth, &truth);
        assert!(perfect.pairs > 0);
        assert_eq!(perfect.unreachable, 0);
        assert_eq!(perfect.exact, perfect.pairs);
        assert_eq!(perfect.mean_length_error, 0.0);

        // Public view: a large share of paths is wrong or longer — the
        // §3.3.1 failure. (Destinations stay reachable through transit,
        // so the signature is wrong/longer paths rather than no path.)
        let collectors = CollectorSet::typical(&s.topo, &s.seeds);
        let (public, _) = collectors.public_view(&s.topo);
        let pub_report = exp.evaluate(&truth, &public);
        assert!(
            pub_report.exact_fraction() < 0.5,
            "public view too good: {:.3}",
            pub_report.exact_fraction()
        );
        assert!(pub_report.mean_length_error > perfect.mean_length_error);

        // Cloud augmentation helps for cloud destinations.
        let cloud = CloudProbeResult::run(&s, &truth, &SeedDomain::new(157));
        let augmented = public.with_extra_links(cloud.as_links(&s).iter());
        let aug_report = exp.evaluate(&truth, &augmented);
        assert!(
            aug_report.exact_fraction() >= pub_report.exact_fraction(),
            "augmentation hurt: {:.3} vs {:.3}",
            aug_report.exact_fraction(),
            pub_report.exact_fraction()
        );
    }
}
