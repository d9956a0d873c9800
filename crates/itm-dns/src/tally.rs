//! Caller-held tallies of the DNS counters.
//!
//! The kernels ([`crate::OpenResolver::probe_hoisted`],
//! [`crate::AuthoritativeDns::resolve_record`] and their fault-injected
//! forms) count into a [`DnsTally`] instead of the global registry, so a
//! campaign shard touches no shared atomics per probe. A campaign merges
//! its shards' tallies in shard order and flushes once — the way
//! `FaultStats` is merged — so every counter total is the same as if each
//! probe had bumped the registry itself. The string wrappers flush a
//! tally of their own after every call.

/// Counts of the `dns.cache.*` and `dns.auth.queries` series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DnsTally {
    /// `dns.cache.lookups{scope="ecs"}`: probes of a client-scoped entry.
    pub cache_lookups_ecs: u64,
    /// `dns.cache.lookups{scope="pop"}`: probes of a PoP-wide entry.
    pub cache_lookups_pop: u64,
    /// `dns.cache.hit`.
    pub cache_hit: u64,
    /// `dns.cache.miss` (including probes for unrouted prefixes).
    pub cache_miss: u64,
    /// `dns.cache.nxdomain`.
    pub cache_nxdomain: u64,
    /// `dns.auth.queries{ecs="true"}`.
    pub auth_queries_ecs: u64,
    /// `dns.auth.queries{ecs="false"}`.
    pub auth_queries_plain: u64,
}

impl DnsTally {
    /// Add another tally into this one.
    pub fn merge(&mut self, other: &DnsTally) {
        self.cache_lookups_ecs += other.cache_lookups_ecs;
        self.cache_lookups_pop += other.cache_lookups_pop;
        self.cache_hit += other.cache_hit;
        self.cache_miss += other.cache_miss;
        self.cache_nxdomain += other.cache_nxdomain;
        self.auth_queries_ecs += other.auth_queries_ecs;
        self.auth_queries_plain += other.auth_queries_plain;
    }

    /// Add the tally to the global counters. A zero count registers
    /// nothing, so the metrics report names exactly the series a
    /// per-probe bump would have.
    pub fn flush(&self) {
        if self.cache_lookups_ecs > 0 {
            itm_obs::counter!("dns.cache.lookups", "scope" => "ecs").add(self.cache_lookups_ecs);
        }
        if self.cache_lookups_pop > 0 {
            itm_obs::counter!("dns.cache.lookups", "scope" => "pop").add(self.cache_lookups_pop);
        }
        if self.cache_hit > 0 {
            itm_obs::counter!("dns.cache.hit").add(self.cache_hit);
        }
        if self.cache_miss > 0 {
            itm_obs::counter!("dns.cache.miss").add(self.cache_miss);
        }
        if self.cache_nxdomain > 0 {
            itm_obs::counter!("dns.cache.nxdomain").add(self.cache_nxdomain);
        }
        if self.auth_queries_ecs > 0 {
            itm_obs::counter!("dns.auth.queries", "ecs" => "true").add(self.auth_queries_ecs);
        }
        if self.auth_queries_plain > 0 {
            itm_obs::counter!("dns.auth.queries", "ecs" => "false").add(self.auth_queries_plain);
        }
    }
}
