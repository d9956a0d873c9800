//! Truth-conditioned map-quality scoring: the data model.
//!
//! The map is assembled from several partial measurement views — the
//! "five blind men" problem: each technique sees a slice of the truth,
//! and where the slices overlap they may disagree. Because the synthetic
//! substrate knows the ground truth, every technique's view can be scored
//! exactly. This module holds the *scoring machinery* in substrate-free
//! form (raw `u32` subject ids, the same interning convention as the
//! trace [`crate::trace::Subjects`]):
//! the sweep that enumerates cells and computes claims lives in
//! `itm-core::audit`, which owns the ground truth.
//!
//! Three kinds of aggregate:
//!
//! * [`TechniqueScore`] / [`TechniqueAudit`] — per-technique verdict
//!   accounting. Every cell of a technique's universe receives exactly
//!   one [`Verdict`]: **asserted** (claimed, and the claim matches the
//!   truth), **contradicted** (claimed, and the claim is wrong), or
//!   **silent** (no claim), so `asserted + contradicted + silent ==
//!   cells` always holds. Precision, recall and coverage derive from the
//!   three counters. Audits carry marginal breakdowns by service class
//!   and by prefix population tier.
//! * [`DisagreementIndex`] — the per-cell disagreement index: for every
//!   cell, how many techniques claimed a replica assignment, how many
//!   distinct answers they gave, and which technique dissents from the
//!   plurality.
//! * [`PairwiseAgreement`] — for every technique pair, over the cells
//!   both claimed, how often they named the same replica.
//!
//! The two per-cell tallies name techniques by their index in a fixed
//! name table, so observing a cell allocates nothing; names appear only
//! when a report is rendered. All outputs are emitted in sorted key
//! order, so a [`QualityReport`]'s JSON is a pure function of its
//! content — byte-identical across runs and thread counts.

use serde_json::Value;
use std::collections::BTreeMap;

/// Schema version stamped on [`QualityReport`] JSON.
pub const QUALITY_SCHEMA_VERSION: u64 = 1;

/// The outcome of scoring one technique on one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The technique claimed this cell and the claim matches the truth.
    Asserted,
    /// The technique claimed this cell and the claim is wrong.
    Contradicted,
    /// The technique made no claim about this cell.
    Silent,
}

/// Verdict counters for one technique over one cell population.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TechniqueScore {
    /// Cells scored (the technique's universe, or one breakdown slice).
    pub cells: u64,
    /// Claimed and correct.
    pub asserted: u64,
    /// Claimed and wrong.
    pub contradicted: u64,
    /// Not claimed.
    pub silent: u64,
    /// Cells where the ground truth holds the property the technique
    /// measures (the recall denominator): all cells for replica
    /// techniques, truly-populated cells for presence techniques, true
    /// links for route techniques.
    pub truth_cells: u64,
}

impl TechniqueScore {
    /// Count one cell's verdict. `truth_relevant` marks cells that enter
    /// the recall denominator.
    pub fn record(&mut self, verdict: Verdict, truth_relevant: bool) {
        self.cells += 1;
        if truth_relevant {
            self.truth_cells += 1;
        }
        match verdict {
            Verdict::Asserted => self.asserted += 1,
            Verdict::Contradicted => self.contradicted += 1,
            Verdict::Silent => self.silent += 1,
        }
    }

    /// `asserted / (asserted + contradicted)`; 0 when nothing was claimed.
    pub fn precision(&self) -> f64 {
        ratio(self.asserted, self.asserted + self.contradicted)
    }

    /// `asserted / truth_cells`; 0 when the truth holds nothing.
    pub fn recall(&self) -> f64 {
        ratio(self.asserted, self.truth_cells)
    }

    /// `(asserted + contradicted) / cells`: how much of the universe the
    /// technique speaks about at all.
    pub fn coverage(&self) -> f64 {
        ratio(self.asserted + self.contradicted, self.cells)
    }

    /// The accounting invariant every score must satisfy.
    pub fn is_consistent(&self) -> bool {
        self.asserted + self.contradicted + self.silent == self.cells
    }

    fn to_json_value(self) -> Value {
        serde_json::json!({
            "cells": (self.cells),
            "asserted": (self.asserted),
            "contradicted": (self.contradicted),
            "silent": (self.silent),
            "truth_cells": (self.truth_cells),
            "precision": (self.precision()),
            "recall": (self.recall()),
            "coverage": (self.coverage()),
        })
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One marginal breakdown of a technique's audit: a score per slice
/// (service class, population tier), indexed like a fixed name table, so
/// recording a cell is an index, not a name lookup.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    /// Slice names, indexed like `scores`.
    names: &'static [&'static str],
    scores: Vec<TechniqueScore>,
}

impl Breakdown {
    /// An empty breakdown over the slices `names`.
    fn new(names: &'static [&'static str]) -> Breakdown {
        Breakdown {
            names,
            scores: vec![TechniqueScore::default(); names.len()],
        }
    }

    /// Count one cell in slice `slice` (an index into the name table).
    fn record(&mut self, slice: usize, verdict: Verdict, truth_relevant: bool) {
        self.scores[slice].record(verdict, truth_relevant);
    }

    /// The slices that counted at least one cell, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &TechniqueScore)> {
        let mut slices: Vec<_> = self
            .names
            .iter()
            .zip(&self.scores)
            .filter(|(_, s)| s.cells > 0)
            .map(|(&name, s)| (name, s))
            .collect();
        slices.sort_unstable_by_key(|&(name, _)| name);
        slices.into_iter()
    }

    /// The scores of the slices that counted at least one cell, in name
    /// order.
    pub fn values(&self) -> impl Iterator<Item = &TechniqueScore> {
        self.iter().map(|(_, s)| s)
    }

    /// Whether no slice has counted a cell.
    pub fn is_empty(&self) -> bool {
        self.scores.iter().all(|s| s.cells == 0)
    }

    fn to_json_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(name, s)| (name.to_string(), s.to_json_value()))
                .collect(),
        )
    }
}

/// One technique's full audit: overall score plus marginal breakdowns.
#[derive(Debug, Clone, Default)]
pub struct TechniqueAudit {
    /// Which plane the technique measures (`replica`, `presence`,
    /// `routes`). Informational; drives no logic here.
    pub plane: String,
    /// Verdicts over the whole universe.
    pub overall: TechniqueScore,
    /// Marginal breakdown by service class (empty for route techniques).
    pub by_service_class: Breakdown,
    /// Marginal breakdown by prefix population tier (empty for route
    /// techniques).
    pub by_population_tier: Breakdown,
}

impl TechniqueAudit {
    /// A fresh audit for one plane, broken down over the service classes
    /// `classes` and the population tiers `tiers` (either may be empty).
    pub fn new(
        plane: &str,
        classes: &'static [&'static str],
        tiers: &'static [&'static str],
    ) -> TechniqueAudit {
        TechniqueAudit {
            plane: plane.to_string(),
            overall: TechniqueScore::default(),
            by_service_class: Breakdown::new(classes),
            by_population_tier: Breakdown::new(tiers),
        }
    }

    /// Count one cell, attributing it to a service class and a population
    /// tier (indices into the audit's name tables) when the plane has
    /// them.
    pub fn record(
        &mut self,
        class: Option<usize>,
        tier: Option<usize>,
        verdict: Verdict,
        truth_relevant: bool,
    ) {
        self.overall.record(verdict, truth_relevant);
        if let Some(class) = class {
            self.by_service_class.record(class, verdict, truth_relevant);
        }
        if let Some(tier) = tier {
            self.by_population_tier
                .record(tier, verdict, truth_relevant);
        }
    }

    fn to_json_value(&self) -> Value {
        let mut v = self.overall.to_json_value();
        if let Value::Object(ref mut obj) = v {
            obj.insert("plane".into(), Value::from(self.plane.as_str()));
            obj.insert(
                "by_service_class".into(),
                self.by_service_class.to_json_value(),
            );
            obj.insert(
                "by_population_tier".into(),
                self.by_population_tier.to_json_value(),
            );
        }
        v
    }
}

/// One technique's claim on a cell: the technique's index in the tally's
/// name table, and the claimed subject id.
pub type Claim = (usize, u32);

/// Per-cell disagreement accounting over the independent replica
/// estimators.
///
/// For each cell, callers pass the list of [`Claim`]s. The index records
/// how many techniques spoke, how many distinct answers they gave, and —
/// for cells with two or more claimants — which techniques dissent from
/// the plurality answer (ties broken toward the smallest subject id, for
/// determinism).
#[derive(Debug, Clone, Default)]
pub struct DisagreementIndex {
    /// Technique names, indexed like [`Claim`]s.
    names: &'static [&'static str],
    /// Cells with at least one claim.
    pub cells_claimed: u64,
    /// Cells with ≥2 claimants, all naming the same replica.
    pub unanimous: u64,
    /// Cells with ≥2 claimants naming ≥2 distinct replicas.
    pub split: u64,
    /// Histogram keyed `(claimants, distinct answers)` → cell count.
    pub histogram: BTreeMap<(u8, u8), u64>,
    /// Per technique (indexed like `names`), the cells where its claim
    /// differs from the plurality answer.
    dissent: Vec<u64>,
}

impl DisagreementIndex {
    /// An empty index over the techniques `names` lists.
    pub fn new(names: &'static [&'static str]) -> DisagreementIndex {
        DisagreementIndex {
            names,
            dissent: vec![0; names.len()],
            ..DisagreementIndex::default()
        }
    }

    /// Record one cell's claims; each technique index must be below the
    /// name table's length. Cells with no claims are not recorded (they
    /// carry no agreement signal).
    pub fn observe(&mut self, claims: &[Claim]) {
        if claims.is_empty() {
            return;
        }
        self.cells_claimed += 1;
        let plurality = plurality_of(claims);
        // A subject is counted at its first claim.
        let distinct = (0..claims.len())
            .filter(|&i| claims[..i].iter().all(|&(_, b)| b != claims[i].1))
            .count();
        let claimants = claims.len().min(u8::MAX as usize) as u8;
        let n_distinct = distinct.min(u8::MAX as usize) as u8;
        *self.histogram.entry((claimants, n_distinct)).or_default() += 1;
        if claims.len() >= 2 {
            if n_distinct == 1 {
                self.unanimous += 1;
            } else {
                self.split += 1;
            }
        }
        for &(t, asn) in claims {
            if asn != plurality {
                self.dissent[t] += 1;
            }
        }
    }

    fn to_json_value(&self) -> Value {
        let histogram: Vec<Value> = self
            .histogram
            .iter()
            .map(|(&(claimants, distinct), &cells)| {
                serde_json::json!({
                    "claimants": (u64::from(claimants)),
                    "distinct": (u64::from(distinct)),
                    "cells": (cells),
                })
            })
            .collect();
        serde_json::json!({
            "cells_claimed": (self.cells_claimed),
            "unanimous": (self.unanimous),
            "split": (self.split),
            "histogram": (Value::Array(histogram)),
            "dissent": (Value::Object(
                self.dissent()
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Value::from(v)))
                    .collect(),
            )),
        })
    }

    /// Per technique that dissented at least once, by name, the cells
    /// where its claim differs from the plurality answer.
    pub fn dissent(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (&name, &d) in self.names.iter().zip(&self.dissent) {
            if d > 0 {
                *out.entry(name).or_default() += d;
            }
        }
        out
    }
}

/// The plurality answer of a non-empty claim list: the most-voted
/// subject id, ties broken toward the smallest id.
fn plurality_of(claims: &[Claim]) -> u32 {
    let votes = |a: u32| claims.iter().filter(|&&(_, b)| b == a).count();
    let mut best = (0usize, 0u32); // (votes, subject)
    for &(_, a) in claims {
        let n = votes(a);
        if n > best.0 || (n == best.0 && a < best.1) {
            best = (n, a);
        }
    }
    best.1
}

/// Pairwise technique agreement over jointly-claimed cells.
#[derive(Debug, Clone, Default)]
pub struct PairwiseAgreement {
    /// Technique names, indexed like [`Claim`]s.
    names: &'static [&'static str],
    /// `(both claimed, agreed)` of technique indices `i ≤ j` at
    /// `i * names.len() + j`.
    counts: Vec<(u64, u64)>,
}

impl PairwiseAgreement {
    /// An empty tally over the techniques `names` lists.
    pub fn new(names: &'static [&'static str]) -> PairwiseAgreement {
        PairwiseAgreement {
            names,
            counts: vec![(0, 0); names.len() * names.len()],
        }
    }

    /// Record one cell's claims (same shape as
    /// [`DisagreementIndex::observe`]).
    pub fn observe(&mut self, claims: &[Claim]) {
        let n = self.names.len();
        for (i, &(ta, aa)) in claims.iter().enumerate() {
            for &(tb, ab) in &claims[i + 1..] {
                let slot = &mut self.counts[ta.min(tb) * n + ta.max(tb)];
                slot.0 += 1;
                if aa == ab {
                    slot.1 += 1;
                }
            }
        }
    }

    /// `(both claimed, agreed)` per jointly-claimed technique pair,
    /// keyed by the two names in ascending order.
    pub fn pairs(&self) -> BTreeMap<(&'static str, &'static str), (u64, u64)> {
        let n = self.names.len();
        let mut out: BTreeMap<_, (u64, u64)> = BTreeMap::new();
        for (k, &(both, agree)) in self.counts.iter().enumerate() {
            if both == 0 {
                continue;
            }
            let (a, b) = (self.names[k / n], self.names[k % n]);
            let slot = out.entry((a.min(b), a.max(b))).or_default();
            slot.0 += both;
            slot.1 += agree;
        }
        out
    }

    fn to_json_value(&self) -> Value {
        let rows: Vec<Value> = self
            .pairs()
            .iter()
            .map(|((a, b), &(both, agree))| {
                serde_json::json!({
                    "a": (*a),
                    "b": (*b),
                    "both_claimed": (both),
                    "agreed": (agree),
                    "rate": (ratio(agree, both)),
                })
            })
            .collect();
        Value::Array(rows)
    }
}

/// The complete quality report: everything `repro --audit` writes to
/// `results/map_quality.json` (minus the optional `faults` section, which
/// the caller attaches exactly as it does for the map summary).
#[derive(Debug, Clone, Default)]
pub struct QualityReport {
    /// Substrate master seed (provenance).
    pub seed: u64,
    /// Services in the audited cell universe.
    pub services: u64,
    /// Prefixes in the audited cell universe.
    pub prefixes: u64,
    /// Total cells (`services × prefixes`).
    pub cells: u64,
    /// Population-tier thresholds used for the tier breakdown: user
    /// counts at the 50th and 90th percentile of populated prefixes.
    pub tier_p50: f64,
    /// See [`QualityReport::tier_p50`].
    pub tier_p90: f64,
    /// Per-technique audits, keyed by technique name.
    pub techniques: BTreeMap<String, TechniqueAudit>,
    /// The per-cell disagreement index over independent replica
    /// estimators.
    pub disagreement: DisagreementIndex,
    /// Pairwise agreement over replica estimators (including the fused
    /// map view).
    pub pairwise: PairwiseAgreement,
}

impl QualityReport {
    /// Whether every technique satisfies the accounting invariant
    /// `asserted + contradicted + silent == cells`, overall and in every
    /// breakdown slice.
    pub fn is_consistent(&self) -> bool {
        self.techniques.values().all(|t| {
            t.overall.is_consistent()
                && t.by_service_class.values().all(|s| s.is_consistent())
                && t.by_population_tier.values().all(|s| s.is_consistent())
        })
    }

    /// Deterministic JSON rendering (sorted keys throughout).
    pub fn to_json_value(&self) -> Value {
        serde_json::json!({
            "schema_version": (QUALITY_SCHEMA_VERSION),
            "seed": (self.seed),
            "universe": (serde_json::json!({
                "services": (self.services),
                "prefixes": (self.prefixes),
                "cells": (self.cells),
            })),
            "population_tier_thresholds": (serde_json::json!({
                "p50_users": (self.tier_p50),
                "p90_users": (self.tier_p90),
            })),
            "techniques": (Value::Object(
                self.techniques
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_json_value()))
                    .collect(),
            )),
            "disagreement": (self.disagreement.to_json_value()),
            "pairwise_agreement": (self.pairwise.to_json_value()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_accounting_invariant() {
        let mut s = TechniqueScore::default();
        s.record(Verdict::Asserted, true);
        s.record(Verdict::Contradicted, true);
        s.record(Verdict::Silent, true);
        s.record(Verdict::Silent, false);
        assert!(s.is_consistent());
        assert_eq!(s.cells, 4);
        assert_eq!(s.truth_cells, 3);
        assert!((s.precision() - 0.5).abs() < 1e-12);
        assert!((s.recall() - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.coverage() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_score_has_zero_rates() {
        let s = TechniqueScore::default();
        assert!(s.is_consistent());
        assert_eq!(s.precision(), 0.0);
        assert_eq!(s.recall(), 0.0);
        assert_eq!(s.coverage(), 0.0);
    }

    // Slice name tables, deliberately not in name order.
    const CLASSES: [&str; 2] = ["ecs_dns", "anycast"];
    const ECS_DNS: usize = 0;
    const ANYCAST_CLASS: usize = 1;
    const TIERS: [&str; 3] = ["t3_high", "t2_mid", "t1_low"];
    const T3: usize = 0;
    const T1: usize = 2;

    #[test]
    fn audit_breakdowns_sum_to_overall() {
        let mut a = TechniqueAudit::new("replica", &CLASSES, &TIERS);
        a.record(Some(ECS_DNS), Some(T3), Verdict::Asserted, true);
        a.record(Some(ECS_DNS), Some(T1), Verdict::Silent, true);
        a.record(Some(ANYCAST_CLASS), Some(T3), Verdict::Contradicted, true);
        assert_eq!(a.overall.cells, 3);
        let class_sum: u64 = a.by_service_class.values().map(|s| s.cells).sum();
        let tier_sum: u64 = a.by_population_tier.values().map(|s| s.cells).sum();
        assert_eq!(class_sum, 3);
        assert_eq!(tier_sum, 3);
        // Only slices that counted a cell are listed, in name order,
        // whatever order the name table has.
        let classes: Vec<_> = a.by_service_class.iter().collect();
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0].0, "anycast");
        assert_eq!((classes[1].0, classes[1].1.asserted), ("ecs_dns", 1));
        let tiers: Vec<_> = a.by_population_tier.iter().collect();
        assert_eq!(tiers.len(), 2, "t2_mid counted nothing");
        assert_eq!(tiers[0].0, "t1_low");
        assert_eq!((tiers[1].0, tiers[1].1.contradicted), ("t3_high", 1));
        let json = serde_json::to_string(&a.to_json_value()).unwrap();
        let at = |k: &str| json.find(k).unwrap();
        assert!(at("\"anycast\"") < at("\"ecs_dns\""), "{json}");
        assert!(at("\"t1_low\"") < at("\"t3_high\""), "{json}");
    }

    const NAMES: [&str; 4] = ["ecs", "anycast", "tls_nearest", "catalog_prior"];
    const ECS: usize = 0;
    const ANYCAST: usize = 1;
    const TLS: usize = 2;
    const PRIOR: usize = 3;

    #[test]
    fn disagreement_counts_split_and_dissent() {
        let mut d = DisagreementIndex::new(&NAMES);
        // Unanimous pair.
        d.observe(&[(ECS, 17), (ANYCAST, 17)]);
        // Split 2-1: plurality is 17, tls dissents.
        d.observe(&[(ECS, 17), (PRIOR, 17), (TLS, 23)]);
        // Single claimant: counted, but neither unanimous nor split.
        d.observe(&[(ECS, 5)]);
        // No claims: ignored.
        d.observe(&[]);
        assert_eq!(d.cells_claimed, 3);
        assert_eq!(d.unanimous, 1);
        assert_eq!(d.split, 1);
        assert_eq!(d.histogram[&(2, 1)], 1);
        assert_eq!(d.histogram[&(3, 2)], 1);
        assert_eq!(d.histogram[&(1, 1)], 1);
        assert_eq!(d.dissent(), BTreeMap::from([("tls_nearest", 1)]));
        let json = d.to_json_value();
        let dissent = serde_json::to_string(json.get("dissent").unwrap()).unwrap();
        assert_eq!(dissent, r#"{"tls_nearest":1}"#);
    }

    #[test]
    fn plurality_tie_breaks_toward_smallest_subject() {
        let mut d = DisagreementIndex::new(&["a", "b"]);
        d.observe(&[(0, 9), (1, 3)]);
        // 1-1 tie → plurality 3, so "a" (claiming 9) dissents.
        assert_eq!(d.dissent(), BTreeMap::from([("a", 1)]));
        // A tie listed the other way round breaks the same way.
        d.observe(&[(1, 3), (0, 9), (1, 9), (0, 3)]);
        assert_eq!(d.dissent(), BTreeMap::from([("a", 2), ("b", 1)]));
    }

    #[test]
    fn pairwise_agreement_is_order_independent() {
        let mut p = PairwiseAgreement::new(&NAMES);
        p.observe(&[(ECS, 17), (ANYCAST, 17), (TLS, 23)]);
        p.observe(&[(ANYCAST, 4), (ECS, 4)]);
        let pairs = p.pairs();
        assert_eq!(pairs[&("anycast", "ecs")], (2, 2));
        assert_eq!(pairs[&("ecs", "tls_nearest")], (1, 0));
        assert_eq!(pairs.len(), 3, "{pairs:?}");
        let rows = p.to_json_value();
        let names: Vec<(&str, &str)> = rows
            .as_array()
            .unwrap()
            .iter()
            .map(|r| {
                let name = |k| r.get(k).and_then(Value::as_str).unwrap();
                (name("a"), name("b"))
            })
            .collect();
        assert_eq!(
            names,
            [
                ("anycast", "ecs"),
                ("anycast", "tls_nearest"),
                ("ecs", "tls_nearest")
            ]
        );
    }

    #[test]
    fn report_json_is_deterministic_and_consistent() {
        let mut r = QualityReport {
            seed: 42,
            services: 2,
            prefixes: 3,
            cells: 6,
            ..QualityReport::default()
        };
        let mut t = TechniqueAudit::new("replica", &CLASSES, &TIERS);
        for _ in 0..6 {
            t.record(Some(ECS_DNS), Some(T1), Verdict::Asserted, true);
        }
        r.techniques.insert("ecs".into(), t);
        assert!(r.is_consistent());
        let a = serde_json::to_string_pretty(&r.to_json_value()).unwrap();
        let b = serde_json::to_string_pretty(&r.to_json_value()).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("\"schema_version\""), "{a}");
        assert!(a.contains("\"pairwise_agreement\""), "{a}");
    }

    #[test]
    fn inconsistent_score_is_detected() {
        let mut r = QualityReport::default();
        let mut t = TechniqueAudit::new("presence", &[], &TIERS);
        t.overall.cells = 5; // counters left at zero: broken accounting
        r.techniques.insert("cache_probe".into(), t);
        assert!(!r.is_consistent());
    }
}
