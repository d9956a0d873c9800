//! The ground-truth traffic matrix.
//!
//! Demand between user prefix `p` and service `s` factors as
//!
//! ```text
//! demand(p, s) = users(p) · intensity(p) · per_user_rate
//!                · share(s) · affinity(p, s)
//! ```
//!
//! where `affinity` is deterministic log-normal noise keyed on `(p, s)` —
//! so the full matrix (millions of cells) is computable on demand with no
//! storage, yet every cell is stable across queries and runs. Diurnal
//! modulation multiplies in the activity curve at the prefix's longitude
//! (traffic peaks follow the sun; §3.1.3's IP ID diurnality and the cache
//! hit-rate signal both derive from this).
//!
//! The matrix answers the scoring questions the paper poses:
//! "prefixes identified … responsible for 95% of Microsoft CDN traffic"
//! becomes [`TrafficModel::provider_coverage`] over a candidate prefix set.

use crate::services::{Service, ServiceCatalog};
use crate::users::UserModel;
use itm_obs::exec::ParallelExecutor;
use itm_topology::Topology;
use itm_types::{Asn, Bps, DiurnalCurve, PrefixId, SeedDomain, ServiceId, SimTime};
use std::collections::BTreeSet;

/// Mean busy-hour traffic per user, in kbps (downstream).
const PER_USER_KBPS: f64 = 150.0;
/// σ of the per-(prefix, service) affinity noise.
const AFFINITY_SIGMA: f64 = 0.4;

/// The assembled ground-truth traffic model.
#[derive(Debug, Clone)]
pub struct TrafficModel {
    /// The diurnal shape applied to all user prefixes; the epoch engine
    /// shifts its phase.
    diurnal: DiurnalCurve,
    /// Cached mean of the diurnal curve over a day (used on every
    /// time-modulated query; recomputing it is 1,440 trig calls).
    diurnal_mean: f64,
    /// Cached per-prefix daily-mean total demand (bps).
    prefix_total: Vec<f64>,
    /// Cached per-service totals (bps).
    service_total: Vec<f64>,
    /// Cached per-AS totals (bps, by prefix owner).
    as_total: Vec<f64>,
    /// Solar offset per prefix (from its anchor city), for diurnal math.
    solar_offset: Vec<f64>,
    /// Seed for affinity noise.
    affinity_seed: u64,
    n_services: usize,
}

impl TrafficModel {
    /// Build the model (O(prefixes × services) once, to cache totals).
    ///
    /// The demand cells are computed in `exec` shards, a block of
    /// prefixes each, and folded into the totals in prefix order, so
    /// every total is bit-identical at any thread count.
    pub fn build(
        topo: &Topology,
        users: &UserModel,
        catalog: &ServiceCatalog,
        seeds: &SeedDomain,
        exec: &ParallelExecutor,
    ) -> TrafficModel {
        let affinity_seed = seeds.child("traffic").seed("affinity");
        let n_p = topo.prefixes.len();
        let n_s = catalog.len();
        let mut solar_offset = vec![0.0; n_p];
        let mut sources = Vec::new();
        for r in topo.prefixes.iter() {
            solar_offset[r.id.index()] = topo.city_location(r.city).solar_offset_hours();
            let base = users.users_of(r.id) * users.intensity_of(r.id) * PER_USER_KBPS * 1e3;
            if base <= 0.0 {
                continue;
            }
            sources.push(Source {
                p: r.id,
                owner: r.owner.index(),
                base,
            });
        }
        let services: Vec<(ServiceId, f64)> = catalog
            .services
            .iter()
            .map(|s| (s.id, s.traffic_share))
            .collect();
        let affinity = Affinity {
            seed: affinity_seed,
            sigma: AFFINITY_SIGMA,
        };
        let Totals {
            prefix: prefix_total,
            service: service_total,
            by_as: as_total,
        } = totals(
            &sources,
            &services,
            [n_p, n_s, topo.n_ases()],
            affinity,
            Blocks::for_catalog(n_s),
            exec,
        );

        let diurnal = DiurnalCurve::default();
        TrafficModel {
            diurnal_mean: diurnal.daily_mean(),
            diurnal,
            prefix_total,
            service_total,
            as_total,
            solar_offset,
            affinity_seed,
            n_services: n_s,
        }
    }

    /// Shift the diurnal activity peak by `hours` (mod 24) — the epoch
    /// engine's phase-drift hook (seasonal daylight shifts, population
    /// behaviour changes). Daily-mean demand is phase-free, so cached
    /// totals stay valid; only the cached curve mean is recomputed (the
    /// mean is phase-invariant for the analytic curve, but recomputing
    /// keeps the cache definitionally correct if the curve shape changes).
    pub fn shift_diurnal_phase(&mut self, hours: f64) {
        self.diurnal.peak_hour = (self.diurnal.peak_hour + hours).rem_euclid(24.0);
        self.diurnal_mean = self.diurnal.daily_mean();
    }

    /// Daily-mean demand between a prefix and a service.
    pub fn demand(
        &self,
        topo: &Topology,
        users: &UserModel,
        catalog: &ServiceCatalog,
        p: PrefixId,
        s: ServiceId,
    ) -> Bps {
        let _ = topo;
        let svc = catalog.get(s);
        let base = users.users_of(p) * users.intensity_of(p) * PER_USER_KBPS * 1e3;
        Bps(base * svc.traffic_share * affinity(self.affinity_seed, p, s, AFFINITY_SIGMA))
    }

    /// Diurnal multiplier for a prefix at time `t` (mean 1.0 over a day).
    pub fn diurnal_multiplier(&self, p: PrefixId, t: SimTime) -> f64 {
        self.diurnal.at(t, self.solar_offset[p.index()]) / self.diurnal_mean
    }

    /// Diurnal multiplier for an arbitrary solar offset (mean 1.0 over a
    /// day) — for locations that are not prefixes (e.g. resolver PoPs).
    pub fn diurnal_multiplier_at(&self, solar_offset_hours: f64, t: SimTime) -> f64 {
        self.diurnal.at(t, solar_offset_hours) / self.diurnal_mean
    }

    /// Daily-mean total demand originated by a prefix, over all services.
    pub fn prefix_total(&self, p: PrefixId) -> Bps {
        Bps(self.prefix_total[p.index()])
    }

    /// Daily-mean total demand of one service.
    pub fn service_total(&self, s: ServiceId) -> Bps {
        Bps(self.service_total[s.index()])
    }

    /// Daily-mean demand of all prefixes owned by an AS.
    pub fn as_total(&self, asn: Asn) -> Bps {
        Bps(self.as_total[asn.index()])
    }

    /// Total Internet user-facing traffic.
    pub fn grand_total(&self) -> Bps {
        Bps(self.prefix_total.iter().sum())
    }

    /// Traffic share served by each provider AS (E13's rollup).
    pub fn provider_totals(&self, catalog: &ServiceCatalog) -> Vec<(Asn, Bps)> {
        use std::collections::HashMap;
        let mut acc: HashMap<Asn, f64> = HashMap::new();
        for s in &catalog.services {
            *acc.entry(s.owner.serving_as()).or_insert(0.0) += self.service_total[s.id.index()];
        }
        let mut v: Vec<(Asn, Bps)> = acc.into_iter().map(|(a, x)| (a, Bps(x))).collect();
        v.sort_by(|a, b| b.1 .0.total_cmp(&a.1 .0).then(a.0.cmp(&b.0)));
        v
    }

    /// The fraction of a provider's traffic that originates from a given
    /// set of client prefixes — the paper's coverage metric ("prefixes
    /// responsible for 95% of Microsoft CDN traffic", §3.1.2). `provider`
    /// restricts to services served by that AS; `None` scores against all
    /// traffic.
    pub fn provider_coverage(
        &self,
        topo: &Topology,
        users: &UserModel,
        catalog: &ServiceCatalog,
        prefixes: &BTreeSet<PrefixId>,
        provider: Option<Asn>,
    ) -> f64 {
        // All-services coverage reduces to the cached per-prefix totals
        // (the demand cells sum to them by construction).
        let services: Vec<&Service> = match provider {
            Some(a) => catalog.served_by(a).collect(),
            None => Vec::new(),
        };
        if provider.is_some() && services.is_empty() {
            return 0.0;
        }
        let mut covered = 0.0;
        let mut total = 0.0;
        for r in topo.prefixes.iter() {
            let u = users.users_of(r.id);
            if u <= 0.0 {
                continue;
            }
            let d = if provider.is_none() {
                self.prefix_total[r.id.index()]
            } else {
                let mut d = 0.0;
                for s in &services {
                    d += self.demand(topo, users, catalog, r.id, s.id).raw();
                }
                d
            };
            total += d;
            if prefixes.contains(&r.id) {
                covered += d;
            }
        }
        if total > 0.0 {
            covered / total
        } else {
            0.0
        }
    }

    /// Same coverage metric at AS granularity (for the root-log technique,
    /// which only resolves ASes — §3.1.2 approach 2).
    pub fn provider_coverage_as(
        &self,
        topo: &Topology,
        users: &UserModel,
        catalog: &ServiceCatalog,
        ases: &BTreeSet<Asn>,
        provider: Option<Asn>,
    ) -> f64 {
        let all: BTreeSet<PrefixId> = topo
            .prefixes
            .iter()
            .filter(|r| ases.contains(&r.owner))
            .map(|r| r.id)
            .collect();
        self.provider_coverage(topo, users, catalog, &all, provider)
    }

    /// Number of services in the bound catalogue.
    pub fn n_services(&self) -> usize {
        self.n_services
    }
}

/// Deterministic log-normal affinity noise keyed on (seed, prefix, service).
fn affinity(seed: u64, p: PrefixId, s: ServiceId, sigma: f64) -> f64 {
    // SplitMix hash to two uniforms, then Box–Muller.
    use itm_types::rng::mix64 as mix;
    let k = mix(seed ^ mix(((p.raw() as u64) << 32) | s.raw() as u64));
    let u1 = ((k >> 11) as f64 / (1u64 << 53) as f64).max(f64::EPSILON);
    let u2 = (mix(k) >> 11) as f64 / (1u64 << 53) as f64;
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    // Mean-one log-normal: exp(σz − σ²/2).
    (sigma * z - sigma * sigma / 2.0).exp()
}

/// Demand cells one shard computes: 81 prefixes' rows at the default
/// catalog of 200 services, 128 KiB of `f64`s.
const SHARD_CELLS: usize = 1 << 14;

/// Shards per executor batch. A batch's rows are folded before the next
/// batch starts, so at most 4 MiB of cells are alive at once.
const BATCH_SHARDS: usize = 32;

/// A prefix: its id, its owner's index and its base rate
/// (`users · intensity · per_user_rate`, bps). `build` shards only the
/// prefixes with demand.
#[derive(Debug, Clone, Copy)]
struct Source {
    p: PrefixId,
    owner: usize,
    base: f64,
}

/// The affinity noise's seed and σ.
#[derive(Debug, Clone, Copy)]
struct Affinity {
    seed: u64,
    sigma: f64,
}

/// How the prefixes are cut into shards and batches. It depends on the
/// input alone, never on the machine.
#[derive(Debug, Clone, Copy)]
struct Blocks {
    /// Prefixes per shard.
    per_shard: usize,
    /// Shards per executor batch.
    per_batch: usize,
}

impl Blocks {
    /// The blocks for a catalog of `n_services`: [`SHARD_CELLS`] cells a
    /// shard, [`BATCH_SHARDS`] shards a batch.
    fn for_catalog(n_services: usize) -> Blocks {
        Blocks {
            per_shard: (SHARD_CELLS / n_services.max(1)).max(1),
            per_batch: BATCH_SHARDS,
        }
    }
}

/// One shard's rows: `cells[i · n_s + j]` is the demand of the shard's
/// `i`-th prefix on service `j`, and `p_total[i]` the sum of that row in
/// catalog order.
struct Rows {
    cells: Vec<f64>,
    p_total: Vec<f64>,
}

/// The demand rows of `sources`, in prefix and catalog order.
fn rows(sources: &[Source], services: &[(ServiceId, f64)], aff: Affinity) -> Rows {
    let mut cells = Vec::with_capacity(sources.len() * services.len());
    let mut p_total = Vec::with_capacity(sources.len());
    for src in sources {
        let mut sum = 0.0;
        for &(s, share) in services {
            let d = src.base * share * affinity(aff.seed, src.p, s, aff.sigma);
            sum += d;
            cells.push(d);
        }
        p_total.push(sum);
    }
    Rows { cells, p_total }
}

/// The matrix's per-prefix, per-service and per-AS totals.
struct Totals {
    prefix: Vec<f64>,
    service: Vec<f64>,
    by_as: Vec<f64>,
}

/// Sum the demand matrix of `sources` × `services` into totals sized
/// `[prefixes, services, ases]`.
///
/// Shards compute their rows in parallel; this thread folds them in
/// shard order, and within a shard prefix by prefix and service by
/// service. So each `service[s]` and `by_as[a]` adds its terms in prefix
/// order, one at a time, exactly as a serial loop over the matrix does.
/// Floating-point addition is not associative: summing a shard's partial
/// totals and then adding the partials would round differently.
fn totals(
    sources: &[Source],
    services: &[(ServiceId, f64)],
    [n_p, n_s, n_as]: [usize; 3],
    aff: Affinity,
    blocks: Blocks,
    exec: &ParallelExecutor,
) -> Totals {
    let mut t = Totals {
        prefix: vec![0.0; n_p],
        service: vec![0.0; n_s],
        by_as: vec![0.0; n_as],
    };
    let width = services.len();
    for batch in sources.chunks(blocks.per_shard * blocks.per_batch) {
        let shards: Vec<&[Source]> = batch.chunks(blocks.per_shard).collect();
        let done = exec.map(shards.len(), &|k| rows(shards[k], services, aff));
        for (shard, out) in shards.iter().zip(&done) {
            for (i, (src, &p_total)) in shard.iter().zip(&out.p_total).enumerate() {
                let row = &out.cells[i * width..(i + 1) * width];
                for (&(s, _), &d) in services.iter().zip(row) {
                    t.service[s.index()] += d;
                }
                t.prefix[src.p.index()] = p_total;
                t.by_as[src.owner] += p_total;
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::services::ServiceCatalogConfig;
    use itm_topology::{generate, TopologyConfig};
    use itm_types::SimDuration;

    fn setup() -> (Topology, UserModel, ServiceCatalog, TrafficModel) {
        let t = generate(&TopologyConfig::small(), 23).unwrap();
        let seeds = SeedDomain::new(23);
        let u = UserModel::generate(&t, &seeds);
        let c = ServiceCatalog::generate(&ServiceCatalogConfig::small(), &t, &seeds);
        let m = TrafficModel::build(&t, &u, &c, &seeds, &ParallelExecutor::sequential());
        (t, u, c, m)
    }

    /// The serial loop the totals were first computed with: prefix by
    /// prefix, service by service, skipping prefixes without demand. It
    /// is the oracle the sharded totals must equal bit for bit.
    /// `prefixes` lists every prefix in order, with or without demand.
    fn serial_totals(
        prefixes: &[Source],
        services: &[(ServiceId, f64)],
        [n_p, n_s, n_as]: [usize; 3],
        aff: Affinity,
    ) -> Totals {
        let mut prefix_total = vec![0.0; n_p];
        let mut service_total = vec![0.0; n_s];
        let mut as_total = vec![0.0; n_as];
        for &Source { p, owner, base } in prefixes {
            if base <= 0.0 {
                continue;
            }
            let mut p_total = 0.0;
            for &(s, share) in services {
                let d = base * share * affinity(aff.seed, p, s, aff.sigma);
                p_total += d;
                service_total[s.index()] += d;
            }
            prefix_total[p.index()] = p_total;
            as_total[owner] += p_total;
        }
        Totals {
            prefix: prefix_total,
            service: service_total,
            by_as: as_total,
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every total of `got` has the bits of the oracle's.
    fn same_bits(got: &Totals, want: &Totals) -> Result<(), String> {
        proptest::prop_assert_eq!(bits(&got.prefix), bits(&want.prefix));
        proptest::prop_assert_eq!(bits(&got.service), bits(&want.service));
        proptest::prop_assert_eq!(bits(&got.by_as), bits(&want.by_as));
        Ok(())
    }

    /// Sources of the sharded path: the prefixes the oracle does not skip.
    fn sources_of(prefixes: &[Source]) -> Vec<Source> {
        prefixes
            .iter()
            .filter(|src| src.base > 0.0)
            .copied()
            .collect()
    }

    /// A world's matrix inputs, as `TrafficModel::build` derives them.
    fn world_inputs(
        t: &Topology,
        u: &UserModel,
        c: &ServiceCatalog,
    ) -> (Vec<Source>, Vec<(ServiceId, f64)>) {
        let prefixes = t
            .prefixes
            .iter()
            .map(|r| {
                let base = u.users_of(r.id) * u.intensity_of(r.id) * PER_USER_KBPS * 1e3;
                Source {
                    p: r.id,
                    owner: r.owner.index(),
                    base,
                }
            })
            .collect();
        let services = c.services.iter().map(|s| (s.id, s.traffic_share)).collect();
        (prefixes, services)
    }

    proptest::proptest! {
        /// On drawn matrices whose prefix count sweeps across the shard
        /// and batch edges of a drawn geometry, with prefixes without
        /// demand at those edges, the sharded totals at 1, 2 and 8
        /// threads equal the serial loop's bit for bit.
        #[test]
        fn sharded_totals_equal_the_serial_loop_on_drawn_matrices(
            n_s in 0usize..12,
            per_shard in 1usize..6,
            per_batch in 1usize..5,
            n_batches in 0usize..4,
            delta in 0usize..3,
            n_as in 1usize..6,
            zeros in 0u8..4,
            key in proptest::prelude::any::<u64>(),
            sigma in 0.0f64..1.5,
        ) {
            use itm_types::rng::mix64;
            let unit = |k: u64| (mix64(key ^ k) >> 11) as f64 / (1u64 << 53) as f64;
            // One prefix either side of a whole number of batches.
            let n_p = (n_batches * per_shard * per_batch + delta).saturating_sub(1);
            // The first or the last index of a shard-sized block.
            let edge = |i: usize| (i + 1) % per_shard < 2;
            let prefixes: Vec<Source> = (0..n_p)
                .map(|i| {
                    let zero = match zeros {
                        0 => false,
                        1 => edge(i) || i + 1 == n_p,
                        2 => unit(3 * i as u64) < 0.3,
                        _ => true,
                    };
                    let base = if zero { 0.0 } else { 1e6 * unit(3 * i as u64 + 1) };
                    let owner = (mix64(key ^ (3 * i as u64 + 2)) % n_as as u64) as usize;
                    Source { p: PrefixId(i as u32), owner, base }
                })
                .collect();
            let services: Vec<(ServiceId, f64)> = (0..n_s)
                .map(|j| (ServiceId(j as u32), unit(!(j as u64))))
                .collect();
            let sizes = [n_p, n_s, n_as];
            let aff = Affinity { seed: key, sigma };
            let want = serial_totals(&prefixes, &services, sizes, aff);
            let sources = sources_of(&prefixes);
            let blocks = Blocks { per_shard, per_batch };
            for threads in [1, 2, 8] {
                let exec = ParallelExecutor::new(threads);
                same_bits(&totals(&sources, &services, sizes, aff, blocks, &exec), &want)?;
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(
            proptest::prelude::ProptestConfig::default().cases.div_ceil(16)
        ))]
        /// On drawn small worlds, `build` at 1, 2 and 8 threads, and the
        /// sharded totals cut into drawn small blocks, equal the serial
        /// loop bit for bit, the grand total included. A world costs far
        /// more than a drawn matrix, so this runs a sixteenth of the cases.
        #[test]
        fn build_equals_the_serial_loop_on_drawn_small_worlds(
            seed in proptest::prelude::any::<u64>(),
            per_shard in 1usize..40,
            per_batch in 1usize..6,
        ) {
            let t = generate(&TopologyConfig::small(), seed).unwrap();
            let seeds = SeedDomain::new(seed);
            let u = UserModel::generate(&t, &seeds);
            let c = ServiceCatalog::generate(&ServiceCatalogConfig::small(), &t, &seeds);
            let (prefixes, services) = world_inputs(&t, &u, &c);
            let sizes = [t.prefixes.len(), c.len(), t.n_ases()];
            let aff = Affinity {
                seed: seeds.child("traffic").seed("affinity"),
                sigma: AFFINITY_SIGMA,
            };
            let want = serial_totals(&prefixes, &services, sizes, aff);
            let grand: f64 = want.prefix.iter().sum();
            for threads in [1, 2, 8] {
                let exec = ParallelExecutor::new(threads);
                let m = TrafficModel::build(&t, &u, &c, &seeds, &exec);
                let got = Totals {
                    prefix: (0..sizes[0]).map(|i| m.prefix_total(PrefixId(i as u32)).raw()).collect(),
                    service: (0..sizes[1]).map(|i| m.service_total(ServiceId(i as u32)).raw()).collect(),
                    by_as: (0..sizes[2]).map(|i| m.as_total(Asn(i as u32)).raw()).collect(),
                };
                same_bits(&got, &want)?;
                proptest::prop_assert_eq!(m.grand_total().raw().to_bits(), grand.to_bits());
                let blocks = Blocks { per_shard, per_batch };
                let sharded = totals(&sources_of(&prefixes), &services, sizes, aff, blocks, &exec);
                same_bits(&sharded, &want)?;
            }
        }
    }

    #[test]
    fn totals_are_consistent() {
        let (t, _, c, m) = setup();
        let by_prefix: f64 = t.prefixes.iter().map(|r| m.prefix_total(r.id).raw()).sum();
        let by_service: f64 = c.services.iter().map(|s| m.service_total(s.id).raw()).sum();
        let by_as: f64 = t.ases.iter().map(|a| m.as_total(a.asn).raw()).sum();
        assert!((by_prefix - by_service).abs() / by_prefix < 1e-9);
        assert!((by_prefix - by_as).abs() / by_prefix < 1e-9);
        assert!((m.grand_total().raw() - by_prefix).abs() / by_prefix < 1e-9);
    }

    #[test]
    fn demand_cells_sum_to_prefix_total() {
        let (t, u, c, m) = setup();
        let p = u.user_prefixes(&t).next().unwrap();
        let sum: f64 = c
            .services
            .iter()
            .map(|s| m.demand(&t, &u, &c, p, s.id).raw())
            .sum();
        assert!((sum - m.prefix_total(p).raw()).abs() / sum < 1e-9);
    }

    #[test]
    fn demand_is_deterministic() {
        let (t, u, c, m) = setup();
        let p = u.user_prefixes(&t).next().unwrap();
        let s = c.services[0].id;
        assert_eq!(
            m.demand(&t, &u, &c, p, s).raw(),
            m.demand(&t, &u, &c, p, s).raw()
        );
    }

    #[test]
    fn diurnal_demand_averages_to_mean() {
        let (t, u, c, m) = setup();
        let p = u.user_prefixes(&t).next().unwrap();
        let s = c.services[0].id;
        let mean = m.demand(&t, &u, &c, p, s).raw();
        let mut acc = 0.0;
        let mut t0 = SimTime::ZERO;
        let n = 24 * 12;
        for _ in 0..n {
            acc += (m.demand(&t, &u, &c, p, s) * m.diurnal_multiplier(p, t0)).raw();
            t0 += SimDuration::mins(5);
        }
        let avg = acc / n as f64;
        assert!((avg / mean - 1.0).abs() < 0.01, "avg {avg} vs mean {mean}");
    }

    #[test]
    fn full_prefix_set_covers_everything() {
        let (t, u, c, m) = setup();
        let all: BTreeSet<PrefixId> = u.user_prefixes(&t).collect();
        let cov = m.provider_coverage(&t, &u, &c, &all, None);
        assert!((cov - 1.0).abs() < 1e-9);
        let hg = t.hypergiants()[0];
        let cov_hg = m.provider_coverage(&t, &u, &c, &all, Some(hg));
        assert!((cov_hg - 1.0).abs() < 1e-9);
        let none: BTreeSet<PrefixId> = BTreeSet::new();
        assert_eq!(m.provider_coverage(&t, &u, &c, &none, None), 0.0);
    }

    #[test]
    fn as_coverage_matches_prefix_coverage() {
        let (t, u, c, m) = setup();
        // Coverage by all eyeball+stub ASes == coverage by all user prefixes.
        let ases: BTreeSet<Asn> = t.ases.iter().map(|a| a.asn).collect();
        let cov = m.provider_coverage_as(&t, &u, &c, &ases, None);
        assert!((cov - 1.0).abs() < 1e-9);
    }

    #[test]
    fn provider_totals_are_skewed() {
        let (t, _, c, m) = setup();
        let totals = m.provider_totals(&c);
        assert!(!totals.is_empty());
        let grand: f64 = totals.iter().map(|(_, b)| b.raw()).sum();
        // Top provider carries a large share — consolidation.
        assert!(totals[0].1.raw() / grand > 0.15);
        // All providers are content ASes.
        for (a, _) in &totals {
            assert!(t.as_info(*a).class.is_content());
        }
    }

    #[test]
    fn affinity_noise_is_mean_one_ish() {
        let mut acc = 0.0;
        let n = 20_000;
        for i in 0..n {
            acc += affinity(99, PrefixId(i), ServiceId(7), 0.4);
        }
        let mean = acc / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }
}
