//! The D1–D5 design-choice ablations called out in DESIGN.md §4.

use crate::{pct, ExperimentResult};
use itm_core::recommend::RecommenderWeights;
use itm_core::{ParallelExecutor, PeeringRecommender, RecommendationEval};
use itm_measure::{CacheProbeCampaign, RootCrawler, Substrate, SubstrateConfig};
use itm_routing::CollectorSet;
use itm_types::Asn;
use std::collections::BTreeSet;

/// D1 — ECS scope granularity: per-prefix (ECS) vs resolver-wide caches.
///
/// Table 1's "Prefix vs AS" precision axis: with ECS, cache probing sees
/// individual /24s; without, one cache entry covers an entire PoP and the
/// per-prefix signal disappears. We compare discovery precision using only
/// ECS domains against only non-ECS domains.
pub fn ab_ecs_scope(s: &Substrate) -> ExperimentResult {
    let resolver = s.open_resolver().expect("open resolver");

    // ECS campaign (the default picks ECS-supporting domains).
    let ecs_result = CacheProbeCampaign::default().run(s, &resolver);
    let ecs_fdr = ecs_result.false_discovery_rate(s);
    let ecs_cov =
        s.traffic
            .provider_coverage(&s.topo, &s.users, &s.catalog, &ecs_result.discovered, None);

    // Non-ECS probing: every prefix behind a PoP reports hit/miss
    // identically, so "discoveries" include userless prefixes behind busy
    // PoPs — precision collapses.
    let non_ecs_domains: Vec<String> = s
        .catalog
        .services
        .iter()
        .filter(|svc| !svc.ecs_support)
        .take(10)
        .map(|svc| svc.domain.clone())
        .collect();
    let mut discovered = BTreeSet::new();
    for rec in s.topo.prefixes.iter() {
        for d in &non_ecs_domains {
            for round in 0..8u64 {
                let t = itm_types::SimTime(round * 10_800);
                if matches!(resolver.probe(rec.net, d, t), itm_dns::ProbeResult::Hit(_)) {
                    discovered.insert(rec.id);
                }
            }
        }
    }
    let non_fdr = if discovered.is_empty() {
        0.0
    } else {
        discovered
            .iter()
            .filter(|&&p| s.users.users_of(p) <= 0.0)
            .count() as f64
            / discovered.len() as f64
    };
    let non_cov = s
        .traffic
        .provider_coverage(&s.topo, &s.users, &s.catalog, &discovered, None);

    ExperimentResult {
        id: "ab_ecs_scope",
        title: "D1: per-prefix (ECS) vs resolver-wide cache scope".into(),
        csv_header: "scope,discovered,false_discovery_rate,traffic_coverage".into(),
        csv_rows: vec![
            format!(
                "ecs_prefix,{},{ecs_fdr:.4},{ecs_cov:.4}",
                ecs_result.discovered.len()
            ),
            format!("pop_wide,{},{non_fdr:.4},{non_cov:.4}", discovered.len()),
        ],
        headline: vec![
            ("ECS false-discovery rate".into(), pct(ecs_fdr)),
            ("PoP-wide false-discovery rate".into(), pct(non_fdr)),
            (
                "precision collapse without ECS".into(),
                format!(
                    "{:.0}x more false positives",
                    (non_fdr / ecs_fdr.max(1e-6)).max(1.0)
                ),
            ),
        ],
    }
}

/// D2 — resolver co-location assumption: sweep the fraction of ASes whose
/// resolver sits elsewhere and watch root-log attribution degrade. The
/// swept worlds are built on `exec`.
pub fn ab_resolver_assumption(
    base_cfg: &SubstrateConfig,
    seed: u64,
    exec: &ParallelExecutor,
) -> ExperimentResult {
    let mut rows = Vec::new();
    let mut headline = Vec::new();
    for frac in [0.0, 0.2, 0.4, 0.6, 0.8] {
        let mut cfg = base_cfg.clone();
        cfg.resolvers.offnet_resolver_fraction = frac;
        let s = Substrate::build_with(cfg, seed, exec).expect("valid config");
        let resolver = s.open_resolver().expect("open resolver");
        let result = RootCrawler::default().run(&s, &resolver);
        let ases: BTreeSet<Asn> = result.client_ases(&s).into_iter().collect();
        let cov = s
            .traffic
            .provider_coverage_as(&s.topo, &s.users, &s.catalog, &ases, None);
        rows.push(format!("{frac:.1},{},{cov:.4}", ases.len()));
        // itm-lint: allow(F001): exact grid values taken from the sweep iterator, never computed
        if frac == 0.0 || frac == 0.8 {
            headline.push((format!("coverage at offnet={frac:.1}"), pct(cov)));
        }
    }
    ExperimentResult {
        id: "ab_resolver_assumption",
        title: "D2: root-log coverage vs resolver co-location violations".into(),
        csv_header: "offnet_resolver_fraction,client_ases,traffic_coverage".into(),
        csv_rows: rows,
        headline,
    }
}

/// D3 — collector placement: invisible-link fraction vs feeder count.
pub fn ab_collectors(s: &Substrate) -> ExperimentResult {
    let view = s.full_view();
    let mut rows = Vec::new();
    let mut first = None;
    let mut last = None;
    for n in [2usize, 5, 10, 20, 40, 80] {
        let n = n.min(s.topo.n_ases());
        let set = CollectorSet::with_count(&s.topo, &s.seeds, n);
        let visible = set.visible_links(&s.topo, &view);
        let peering_total = s.topo.links.iter().filter(|l| l.is_peering()).count();
        let peering_vis = s
            .topo
            .links
            .iter()
            .filter(|l| l.is_peering() && visible.contains(&l.key()))
            .count();
        let inv = 1.0 - peering_vis as f64 / peering_total.max(1) as f64;
        rows.push(format!("{n},{},{inv:.4}", visible.len()));
        if first.is_none() {
            first = Some(inv);
        }
        last = Some(inv);
    }
    ExperimentResult {
        id: "ab_collectors",
        title: "D3: peering invisibility vs collector count".into(),
        csv_header: "feeders,visible_links,invisible_peering_fraction".into(),
        csv_rows: rows,
        headline: vec![
            (
                "invisible peering, 2 feeders".into(),
                pct(first.unwrap_or(0.0)),
            ),
            (
                "invisible peering, 80 feeders".into(),
                pct(last.unwrap_or(0.0)),
            ),
        ],
    }
}

/// D4 — recommender feature ablation: drop each feature and re-score.
pub fn ab_recommend_features(s: &Substrate) -> ExperimentResult {
    let collectors = CollectorSet::typical(&s.topo, &s.seeds);
    let (public, _) = collectors.public_view(&s.topo);

    let variants: Vec<(&str, RecommenderWeights)> = vec![
        ("full", RecommenderWeights::default()),
        (
            "no_collaborative",
            RecommenderWeights {
                collaborative: 0.0,
                ..Default::default()
            },
        ),
        (
            "no_policy",
            RecommenderWeights {
                policy: 0.0,
                ..Default::default()
            },
        ),
        (
            "no_type_prior",
            RecommenderWeights {
                type_prior: 0.0,
                ..Default::default()
            },
        ),
        (
            "no_cone",
            RecommenderWeights {
                cone: 0.0,
                ..Default::default()
            },
        ),
        (
            "no_activity",
            RecommenderWeights {
                activity: 0.0,
                ..Default::default()
            },
        ),
        (
            "no_colocation",
            RecommenderWeights {
                colocation: 0.0,
                ..Default::default()
            },
        ),
    ];

    let mut rows = Vec::new();
    let mut headline = Vec::new();
    for (name, w) in variants {
        let rec = PeeringRecommender::new(s, &public, w);
        let eval = RecommendationEval::evaluate(
            s,
            &rec.recommend().expect("finite recommendation scores"),
        );
        let p_top = eval.top_precision();
        let (k, p_k, r_k) = eval.at_k.last().copied().unwrap_or((0, 0.0, 0.0));
        rows.push(format!("{name},{p_top:.4},{k},{p_k:.4},{r_k:.4}"));
        if name == "full" || name == "no_collaborative" {
            headline.push((format!("precision@top [{name}]"), format!("{p_top:.3}")));
        }
    }
    ExperimentResult {
        id: "ab_recommend_features",
        title: "D4: recommender feature ablation".into(),
        csv_header: "variant,precision_top,k,precision_at_k,recall_at_k".into(),
        csv_rows: rows,
        headline,
    }
}

/// D5 — probe budget: coverage vs probing rounds per day.
pub fn ab_probe_budget(s: &Substrate) -> ExperimentResult {
    let resolver = s.open_resolver().expect("open resolver");
    let mut rows = Vec::new();
    let mut headline = Vec::new();
    for rounds in [1u32, 2, 4, 8, 16, 32] {
        let campaign = CacheProbeCampaign {
            rounds_per_day: rounds,
            ..Default::default()
        };
        let result = campaign.run(s, &resolver);
        let cov =
            s.traffic
                .provider_coverage(&s.topo, &s.users, &s.catalog, &result.discovered, None);
        let probes = result.probes_per_prefix as u64 * s.topo.prefixes.len() as u64;
        rows.push(format!(
            "{rounds},{probes},{},{cov:.4}",
            result.discovered.len()
        ));
        if rounds == 1 || rounds == 32 {
            headline.push((format!("coverage at {rounds} rounds/day"), pct(cov)));
        }
    }
    ExperimentResult {
        id: "ab_probe_budget",
        title: "D5: cache-probe budget vs coverage".into(),
        csv_header: "rounds_per_day,total_probes,discovered,traffic_coverage".into(),
        csv_rows: rows,
        headline,
    }
}
