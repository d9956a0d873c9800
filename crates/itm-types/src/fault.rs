//! Deterministic fault injection for measurement campaigns.
//!
//! Real measurement infrastructure is flaky: cache probes time out, open
//! resolvers refuse queries, vantage points churn mid-campaign. A
//! [`FaultPlan`] describes per-campaign loss/timeout/refusal/churn rates;
//! a [`FaultInjector`] turns the plan into *deterministic* per-probe
//! outcomes. Every draw is a pure function of `(seed, entity keys)` — never
//! of emission order or thread scheduling — so a faulted run is
//! byte-reproducible at any `--threads N`, and the all-zero plan performs
//! no draws at all, leaving fault-free output bit-identical to a build
//! without the fault layer.
//!
//! Retries follow a bounded, monotone virtual-time backoff schedule
//! (`min(cap, base·2^k + jitter)` with seeded jitter in `[0, base)`). When
//! retries exhaust, the probe is recorded as [`ProbeFate::Lost`] and the
//! campaign records the gap instead of erroring; [`FaultStats`] maintains
//! the accounting invariant `observed + degraded + lost = issued`.

use crate::error::{ItmError, Result};
use crate::rng::{mix64, SeedDomain};

/// Domain-separation tag for churn draws so a vantage point's churn draw
/// can never alias a probe-fate draw keyed by the same entity id.
const CHURN_TAG: u64 = 0x6368_7572_6e5f_7631; // "churn_v1"

/// Domain-separation tag for backoff jitter draws.
const JITTER_TAG: u64 = 0x6a69_7474_6572_5f31; // "jitter_1"

/// Per-attempt key stride mixed into retry draws so attempt `k` and
/// attempt `k+1` of one probe see independent fault draws.
const ATTEMPT_TAG: u64 = 0x6174_7465_6d70_745f; // "attempt_"

/// Hard ceiling on [`FaultPlan::max_retries`]; keeps backoff arithmetic in
/// shift range and bounds worst-case virtual campaign duration.
pub const MAX_RETRIES_CEILING: u32 = 16;

/// How a single probe attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// The probe (or its answer) was silently dropped.
    Loss,
    /// The probe timed out waiting for an answer.
    Timeout,
    /// The target actively refused the query.
    Refusal,
}

impl FaultKind {
    /// Stable lower-case name for traces and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultKind::Loss => "loss",
            FaultKind::Timeout => "timeout",
            FaultKind::Refusal => "refusal",
        }
    }
}

/// Final outcome of one probe after bounded retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeFate {
    /// Succeeded on the first attempt.
    Observed,
    /// Succeeded after one or more retries.
    Degraded {
        /// Number of failed attempts before the success.
        retries: u32,
    },
    /// All attempts failed; the campaign records a gap, not an error.
    Lost,
}

impl ProbeFate {
    /// Whether the probe ultimately produced an observation.
    pub fn succeeded(&self) -> bool {
        !matches!(self, ProbeFate::Lost)
    }

    /// Combine the fates of two hops of one logical query (e.g. the
    /// resolver hop and the authoritative hop): lost anywhere is lost,
    /// otherwise retries add.
    pub fn combine(self, other: ProbeFate) -> ProbeFate {
        match (self, other) {
            (ProbeFate::Lost, _) | (_, ProbeFate::Lost) => ProbeFate::Lost,
            (ProbeFate::Observed, ProbeFate::Observed) => ProbeFate::Observed,
            (a, b) => ProbeFate::Degraded {
                retries: a.retries() + b.retries(),
            },
        }
    }

    /// Retries spent before the final outcome (0 for observed and lost —
    /// a lost probe's attempts are accounted through the plan, not here).
    pub fn retries(&self) -> u32 {
        match self {
            ProbeFate::Degraded { retries } => *retries,
            _ => 0,
        }
    }
}

/// Per-technique fault accounting.
///
/// Invariant: `observed + degraded + lost` equals the number of probes
/// issued by the technique; [`FaultStats::record`] maintains it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Probes that succeeded on the first attempt.
    pub observed: u64,
    /// Probes that succeeded only after retrying.
    pub degraded: u64,
    /// Probes whose retries exhausted; recorded as gaps.
    pub lost: u64,
    /// Total retry attempts across all probes.
    pub retries: u64,
}

impl FaultStats {
    /// Account for one probe's fate.
    pub fn record(&mut self, fate: ProbeFate) {
        match fate {
            ProbeFate::Observed => self.observed += 1,
            ProbeFate::Degraded { retries } => {
                self.degraded += 1;
                self.retries += retries as u64;
            }
            ProbeFate::Lost => self.lost += 1,
        }
    }

    /// Fold another shard's accounting into this one.
    pub fn merge(&mut self, other: &FaultStats) {
        self.observed += other.observed;
        self.degraded += other.degraded;
        self.lost += other.lost;
        self.retries += other.retries;
    }

    /// Total probes accounted for (`observed + degraded + lost`).
    pub fn issued(&self) -> u64 {
        self.observed + self.degraded + self.lost
    }

    /// True when no probe was ever faulted or retried.
    pub fn is_clean(&self) -> bool {
        self.degraded == 0 && self.lost == 0 && self.retries == 0
    }
}

/// Per-campaign fault rates and retry policy.
///
/// Rates are probabilities in `[0, 1]`; `loss + timeout + refusal` is the
/// per-attempt failure probability and must not exceed 1. `churn` applies
/// to long-lived entities (vantage points, resolvers) rather than single
/// probes. Backoff delays are virtual seconds — they advance accounting,
/// not wall clocks.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Per-attempt probability a probe is silently dropped.
    pub loss: f64,
    /// Per-attempt probability a probe times out.
    pub timeout: f64,
    /// Per-attempt probability the target refuses the query.
    pub refusal: f64,
    /// Probability a long-lived vantage point churns away mid-campaign.
    pub churn: f64,
    /// Maximum retry attempts after the initial one (≤ 16).
    pub max_retries: u32,
    /// Base backoff delay in virtual seconds (attempt `k` waits
    /// `min(cap, base·2^k + jitter)` with jitter in `[0, base)`).
    pub backoff_base_secs: u64,
    /// Ceiling on any single backoff delay, in virtual seconds.
    pub backoff_cap_secs: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::off()
    }
}

impl FaultPlan {
    /// The all-zero plan: no faults, no retries, zero draws performed.
    pub fn off() -> FaultPlan {
        FaultPlan {
            loss: 0.0,
            timeout: 0.0,
            refusal: 0.0,
            churn: 0.0,
            max_retries: 0,
            backoff_base_secs: 0,
            backoff_cap_secs: 0,
        }
    }

    /// Mild degradation: the background flakiness any real campaign sees.
    pub fn light() -> FaultPlan {
        FaultPlan {
            loss: 0.02,
            timeout: 0.01,
            refusal: 0.005,
            churn: 0.02,
            max_retries: 2,
            backoff_base_secs: 1,
            backoff_cap_secs: 30,
        }
    }

    /// Heavy degradation: a bad week on the measurement platform.
    pub fn heavy() -> FaultPlan {
        FaultPlan {
            loss: 0.15,
            timeout: 0.08,
            refusal: 0.05,
            churn: 0.15,
            max_retries: 3,
            backoff_base_secs: 2,
            backoff_cap_secs: 120,
        }
    }

    /// Look up a named profile (`off`, `light`, `heavy`).
    pub fn profile(name: &str) -> Option<FaultPlan> {
        match name {
            "off" => Some(FaultPlan::off()),
            "light" => Some(FaultPlan::light()),
            "heavy" => Some(FaultPlan::heavy()),
            _ => None,
        }
    }

    /// Per-attempt failure probability (`loss + timeout + refusal`).
    pub fn failure_rate(&self) -> f64 {
        self.loss + self.timeout + self.refusal
    }

    /// True when the plan can never fault a probe; injectors short-circuit
    /// on this so the off plan performs zero draws.
    pub fn is_off(&self) -> bool {
        self.failure_rate() <= 0.0 && self.churn <= 0.0
    }

    /// Check every documented constraint, returning the first violation.
    pub fn validate(&self) -> Result<()> {
        for (name, v) in [
            ("loss", self.loss),
            ("timeout", self.timeout),
            ("refusal", self.refusal),
            ("churn", self.churn),
        ] {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(ItmError::config(
                    "faults",
                    format!("rate {name} must be in [0, 1], got {v}"),
                ));
            }
        }
        if self.failure_rate() > 1.0 {
            return Err(ItmError::config(
                "faults",
                format!(
                    "loss + timeout + refusal must not exceed 1, got {}",
                    self.failure_rate()
                ),
            ));
        }
        if self.max_retries > MAX_RETRIES_CEILING {
            return Err(ItmError::config(
                "faults",
                format!(
                    "max_retries must be <= {MAX_RETRIES_CEILING}, got {}",
                    self.max_retries
                ),
            ));
        }
        if self.backoff_cap_secs < self.backoff_base_secs {
            return Err(ItmError::config(
                "faults",
                format!(
                    "backoff_cap_secs ({}) must be >= backoff_base_secs ({})",
                    self.backoff_cap_secs, self.backoff_base_secs
                ),
            ));
        }
        Ok(())
    }
}

/// Turns a [`FaultPlan`] into deterministic per-probe outcomes.
///
/// Draws are keyed by stable entity identifiers (prefix ids, service ids,
/// round numbers, addresses) supplied by the caller — never by iteration
/// or emission order — so two shards, two runs, or two thread counts that
/// probe the same entity see the same fate.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    seed: u64,
}

impl FaultInjector {
    /// Build an injector for `campaign`, deriving its seed from the
    /// `"faults"` child domain so fault draws can never perturb any
    /// pre-existing RNG stream.
    pub fn new(plan: FaultPlan, seeds: &SeedDomain, campaign: &str) -> FaultInjector {
        FaultInjector {
            seed: seeds.child("faults").seed(campaign),
            plan,
        }
    }

    /// The plan this injector applies.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// True when this injector can never fault anything.
    pub fn is_off(&self) -> bool {
        self.plan.is_off()
    }

    /// Uniform draw in `[0, 1)` keyed by three entity identifiers.
    fn draw(&self, a: u64, b: u64, c: u64) -> f64 {
        let k = mix64(self.seed ^ mix64(a) ^ mix64(b.rotate_left(17)) ^ mix64(c.rotate_left(34)));
        (k >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The fault (if any) striking attempt `attempt` of the probe keyed by
    /// `(a, b, c)`. Classification thresholds stack loss, then timeout,
    /// then refusal, so a single uniform draw decides both *whether* and
    /// *how* the attempt fails.
    pub fn attempt_fault(&self, a: u64, b: u64, c: u64, attempt: u32) -> Option<FaultKind> {
        if self.plan.failure_rate() <= 0.0 {
            return None;
        }
        let key = mix64(c ^ ATTEMPT_TAG.wrapping_mul(attempt as u64 + 1));
        let u = self.draw(a, b, key);
        if u < self.plan.loss {
            Some(FaultKind::Loss)
        } else if u < self.plan.loss + self.plan.timeout {
            Some(FaultKind::Timeout)
        } else if u < self.plan.failure_rate() {
            Some(FaultKind::Refusal)
        } else {
            None
        }
    }

    /// Run the bounded-retry loop for the probe keyed by `(a, b, c)`.
    ///
    /// The off plan short-circuits to [`ProbeFate::Observed`] without
    /// performing a single draw, which is what keeps `--faults off`
    /// byte-identical to a build with no fault layer at all.
    pub fn fate(&self, a: u64, b: u64, c: u64) -> ProbeFate {
        if self.plan.failure_rate() <= 0.0 {
            return ProbeFate::Observed;
        }
        for attempt in 0..=self.plan.max_retries {
            if self.attempt_fault(a, b, c, attempt).is_none() {
                return if attempt == 0 {
                    ProbeFate::Observed
                } else {
                    ProbeFate::Degraded { retries: attempt }
                };
            }
        }
        ProbeFate::Lost
    }

    /// The fault that struck the *first* attempt of a probe, for trace
    /// detail on degraded and lost probes. `None` means the first attempt
    /// succeeded.
    pub fn first_fault(&self, a: u64, b: u64, c: u64) -> Option<FaultKind> {
        self.attempt_fault(a, b, c, 0)
    }

    /// Like [`FaultInjector::fate`] but only refusals strike — the model
    /// for authoritative servers, which either answer or refuse (loss and
    /// timeouts live on the resolver hop). Shares the plan's retry policy.
    pub fn refusal_fate(&self, a: u64, b: u64, c: u64) -> ProbeFate {
        if self.plan.refusal <= 0.0 {
            return ProbeFate::Observed;
        }
        for attempt in 0..=self.plan.max_retries {
            if self.attempt_fault(a, b, c, attempt) != Some(FaultKind::Refusal) {
                return if attempt == 0 {
                    ProbeFate::Observed
                } else {
                    ProbeFate::Degraded { retries: attempt }
                };
            }
        }
        ProbeFate::Lost
    }

    /// Whether a long-lived entity (vantage point, resolver) churns away
    /// for the whole campaign. One draw per entity, domain-separated from
    /// probe fates.
    pub fn churned(&self, entity: u64) -> bool {
        if self.plan.churn <= 0.0 {
            return false;
        }
        self.draw(entity, CHURN_TAG, 0) < self.plan.churn
    }

    /// Virtual-time backoff delay (seconds) before retry `attempt` of the
    /// probe keyed by `entity`: `min(cap, base·2^attempt + jitter)` with
    /// seeded jitter in `[0, base)`. The schedule is bounded by the cap
    /// and monotone nondecreasing in `attempt` (strictly increasing below
    /// the cap, since `base·2^(k+1) > base·2^k + base > base·2^k + j_k`).
    pub fn backoff_secs(&self, entity: u64, attempt: u32) -> u64 {
        let base = self.plan.backoff_base_secs;
        if base == 0 {
            return 0;
        }
        // `checked_shl` only refuses shifts of 64 or more; the bits a
        // smaller shift pushes out of a large base would wrap the delay
        // below the previous attempt's, so multiply and saturate instead.
        let exp = base.saturating_mul(1 << attempt.min(MAX_RETRIES_CEILING));
        let jitter = mix64(self.seed ^ mix64(entity ^ JITTER_TAG) ^ mix64(attempt as u64)) % base;
        exp.saturating_add(jitter).min(self.plan.backoff_cap_secs)
    }

    /// Total virtual seconds spent backing off across `retries` retries of
    /// the probe keyed by `entity`.
    pub fn total_backoff_secs(&self, entity: u64, retries: u32) -> u64 {
        (0..retries.min(MAX_RETRIES_CEILING))
            .map(|k| self.backoff_secs(entity, k))
            .fold(0u64, u64::saturating_add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injector(plan: FaultPlan) -> FaultInjector {
        FaultInjector::new(plan, &SeedDomain::new(42), "test")
    }

    #[test]
    fn off_plan_never_faults() {
        let inj = injector(FaultPlan::off());
        assert!(inj.is_off());
        for k in 0..1000u64 {
            assert_eq!(inj.fate(k, k ^ 7, k ^ 13), ProbeFate::Observed);
            assert!(!inj.churned(k));
        }
    }

    #[test]
    fn profiles_validate_and_are_distinct() {
        for name in ["off", "light", "heavy"] {
            let plan = FaultPlan::profile(name).expect("known profile");
            plan.validate().expect("profile is valid");
        }
        assert!(FaultPlan::profile("medium").is_none());
        assert!(FaultPlan::light().failure_rate() < FaultPlan::heavy().failure_rate());
        assert!(FaultPlan::off().is_off());
        assert!(!FaultPlan::light().is_off());
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let mut p = FaultPlan::light();
        p.loss = 1.5;
        assert!(p.validate().is_err());
        let mut p = FaultPlan::light();
        p.loss = 0.6;
        p.timeout = 0.6;
        assert!(p.validate().is_err());
        let mut p = FaultPlan::light();
        p.max_retries = 99;
        assert!(p.validate().is_err());
        let mut p = FaultPlan::light();
        p.backoff_cap_secs = 0;
        assert!(p.validate().is_err());
        let mut p = FaultPlan::light();
        p.churn = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn fates_are_deterministic_and_entity_keyed() {
        let a = injector(FaultPlan::heavy());
        let b = injector(FaultPlan::heavy());
        for k in 0..500u64 {
            assert_eq!(a.fate(k, 3, 9), b.fate(k, 3, 9));
            assert_eq!(a.churned(k), b.churned(k));
        }
        // Different campaigns draw from different streams.
        let other = FaultInjector::new(FaultPlan::heavy(), &SeedDomain::new(42), "other");
        let diverges = (0..500u64).any(|k| a.fate(k, 3, 9) != other.fate(k, 3, 9));
        assert!(diverges, "campaign streams should be independent");
    }

    #[test]
    fn heavy_plan_loses_and_degrades_some_probes() {
        let inj = injector(FaultPlan::heavy());
        let mut stats = FaultStats::default();
        for k in 0..5000u64 {
            stats.record(inj.fate(k, 1, 2));
        }
        assert_eq!(stats.issued(), 5000);
        assert!(stats.observed > 0);
        assert!(stats.degraded > 0);
        assert!(stats.lost > 0);
        // Failure rate ~0.28: lost needs 4 consecutive failures (~0.6%).
        assert!(stats.lost < 500, "lost {} of 5000", stats.lost);
    }

    #[test]
    fn combine_is_lost_dominant_and_adds_retries() {
        use ProbeFate::*;
        assert_eq!(Observed.combine(Observed), Observed);
        assert_eq!(Observed.combine(Lost), Lost);
        assert_eq!(Lost.combine(Degraded { retries: 2 }), Lost);
        assert_eq!(
            Degraded { retries: 1 }.combine(Degraded { retries: 2 }),
            Degraded { retries: 3 }
        );
        assert_eq!(
            Observed.combine(Degraded { retries: 2 }),
            Degraded { retries: 2 }
        );
    }

    #[test]
    fn refusal_fate_only_counts_refusals() {
        // A plan with zero refusal never faults the authoritative hop,
        // whatever its loss rate.
        let mut plan = FaultPlan::heavy();
        plan.refusal = 0.0;
        let inj = injector(plan);
        for k in 0..500u64 {
            assert_eq!(inj.refusal_fate(k, 1, 2), ProbeFate::Observed);
        }
        // A refusal-heavy plan loses some and degrades some.
        let mut plan = FaultPlan::heavy();
        plan.refusal = 0.4;
        let inj = injector(plan);
        let mut stats = FaultStats::default();
        for k in 0..2000u64 {
            stats.record(inj.refusal_fate(k, 1, 2));
        }
        assert!(stats.degraded > 0);
        assert!(stats.lost > 0);
        assert!(stats.observed > stats.lost);
    }

    #[test]
    fn stats_merge_preserves_totals() {
        let inj = injector(FaultPlan::heavy());
        let mut whole = FaultStats::default();
        let mut left = FaultStats::default();
        let mut right = FaultStats::default();
        for k in 0..2000u64 {
            let fate = inj.fate(k, 0, 0);
            whole.record(fate);
            if k < 1000 {
                left.record(fate)
            } else {
                right.record(fate)
            }
        }
        left.merge(&right);
        assert_eq!(left, whole);
        assert!(!whole.is_clean());
        assert!(FaultStats::default().is_clean());
    }

    #[test]
    fn backoff_is_bounded_monotone_and_capped() {
        let inj = injector(FaultPlan::heavy());
        for entity in 0..200u64 {
            let mut prev = 0u64;
            for k in 0..=MAX_RETRIES_CEILING {
                let d = inj.backoff_secs(entity, k);
                assert!(d <= inj.plan().backoff_cap_secs);
                assert!(d >= prev, "entity {entity} attempt {k}: {d} < {prev}");
                prev = d;
            }
            assert_eq!(inj.backoff_secs(entity, MAX_RETRIES_CEILING), 120);
        }
        // Zero base: all delays zero.
        let mut plan = FaultPlan::heavy();
        plan.backoff_base_secs = 0;
        plan.backoff_cap_secs = 0;
        let z = injector(plan);
        assert_eq!(z.backoff_secs(7, 3), 0);
        assert_eq!(z.total_backoff_secs(7, 8), 0);
    }

    #[test]
    fn backoff_saturates_instead_of_wrapping_for_huge_bases() {
        // `validate` accepts any base up to the cap, so a plan file can
        // ask for a base whose doublings overflow a u64.
        for base in [1u64 << 60, u64::MAX / 3, u64::MAX] {
            let mut plan = FaultPlan::heavy();
            plan.max_retries = MAX_RETRIES_CEILING;
            plan.backoff_base_secs = base;
            plan.backoff_cap_secs = u64::MAX;
            plan.validate().expect("a huge base below the cap is valid");
            let inj = injector(plan);
            let mut prev = 0u64;
            for k in 0..=MAX_RETRIES_CEILING {
                let d = inj.backoff_secs(5, k);
                assert!(d >= prev, "base {base} attempt {k}: {d} < {prev}");
                prev = d;
            }
            assert_eq!(prev, u64::MAX);
            assert_eq!(inj.total_backoff_secs(5, MAX_RETRIES_CEILING), u64::MAX);
        }
    }

    /// `validate` refuses `p` with an `InvalidConfig` whose reason names
    /// `field`.
    fn assert_rejects(p: &FaultPlan, field: &str) {
        match p.validate() {
            Err(ItmError::InvalidConfig {
                field: "faults",
                reason,
            }) => assert!(reason.contains(field), "{reason:?} does not name {field}"),
            other => panic!("{p:?}: expected InvalidConfig naming {field}, got {other:?}"),
        }
    }

    #[test]
    fn validate_rejects_every_hostile_input_naming_the_field() {
        let hostile_rates = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.1,
            -f64::MIN_POSITIVE,
            1.0 + f64::EPSILON,
            2.0,
            f64::MAX,
        ];
        for plan in [FaultPlan::off(), FaultPlan::heavy()] {
            for field in ["loss", "timeout", "refusal", "churn"] {
                for v in hostile_rates {
                    let mut p = plan.clone();
                    *match field {
                        "loss" => &mut p.loss,
                        "timeout" => &mut p.timeout,
                        "refusal" => &mut p.refusal,
                        _ => &mut p.churn,
                    } = v;
                    assert_rejects(&p, field);
                }
            }
        }
        for retries in [MAX_RETRIES_CEILING + 1, u32::MAX] {
            let mut p = FaultPlan::light();
            p.max_retries = retries;
            assert_rejects(&p, "max_retries");
        }
        for (base, cap) in [(10, 9), (1, 0), (u64::MAX, u64::MAX - 1)] {
            let mut p = FaultPlan::light();
            p.backoff_base_secs = base;
            p.backoff_cap_secs = cap;
            assert_rejects(&p, "backoff_cap_secs");
        }
        // The boundaries themselves are valid.
        let mut p = FaultPlan::off();
        p.churn = 1.0;
        p.max_retries = MAX_RETRIES_CEILING;
        p.backoff_base_secs = 7;
        p.backoff_cap_secs = 7;
        p.validate().expect("boundary values are valid");
        p.loss = 1.0;
        p.validate().expect("a certain loss is valid");
    }

    #[test]
    fn total_backoff_sums_the_schedule() {
        let inj = injector(FaultPlan::light());
        let by_hand: u64 = (0..3).map(|k| inj.backoff_secs(11, k)).sum();
        assert_eq!(inj.total_backoff_secs(11, 3), by_hand);
        assert_eq!(inj.total_backoff_secs(11, 0), 0);
    }
}
