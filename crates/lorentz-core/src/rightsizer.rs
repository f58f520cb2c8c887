//! Stage 1: capacity rightsizing (§3.2, Eq. 1–9).
//!
//! Given the binned usage signal `w[n]` of an existing workload, its
//! user-selected capacity `c⁰`, and a catalog of candidate capacities `C`,
//! the rightsizer selects the capacity whose slack is closest to the target
//! `s*` subject to a throttling bound — and, when the observation is
//! *censored* (the workload was already throttling at `c⁰`, so its true
//! demand is unobservable), forces a scale-up to at least `2^K · c⁰`
//! instead (Eq. 8).

use crate::config::RightsizerConfig;
use lorentz_telemetry::columns::{kernels, TraceView};
use lorentz_telemetry::{TraceColumns, UsageTrace};
use lorentz_types::{Capacity, LorentzError, SkuCatalog};
use serde::{Deserialize, Serialize};

/// How a user-selected capacity compares to the rightsized one — the
/// classification behind Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProvisioningVerdict {
    /// User capacity is larger than the rightsized capacity.
    OverProvisioned,
    /// User capacity equals the rightsized capacity.
    WellProvisioned,
    /// User capacity is smaller than the rightsized capacity.
    UnderProvisioned,
}

/// The result of rightsizing one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RightsizeOutcome {
    /// The selected rightsized capacity `ĉ⁰` (a catalog entry).
    pub capacity: Capacity,
    /// Index of the chosen SKU within the catalog.
    pub sku_index: usize,
    /// Whether the censored branch of Eq. 9 was taken (the workload was
    /// throttled at its user-selected capacity).
    pub censored: bool,
    /// Throttling probability at the user-selected capacity.
    pub throttling_at_user: f64,
    /// Per-dimension mean slack ratio at the chosen capacity.
    pub slack_at_chosen: Vec<f64>,
    /// How the user's choice compares to the rightsized one.
    pub verdict: ProvisioningVerdict,
}

/// The Stage-1 rightsizer.
///
/// ```
/// use lorentz_core::{Rightsizer, RightsizerConfig};
/// use lorentz_telemetry::{RegularSeries, UsageTrace};
/// use lorentz_types::{Capacity, ServerOffering, SkuCatalog};
///
/// let rightsizer = Rightsizer::new(&RightsizerConfig::default())?;
/// let catalog = SkuCatalog::azure_postgres(ServerOffering::GeneralPurpose);
///
/// // A steady 2-vCore workload the user over-provisioned at 16 vCores:
/// let telemetry = UsageTrace::single(RegularSeries::new(300.0, vec![2.0; 24])?);
/// let outcome = rightsizer.rightsize(&telemetry, &Capacity::scalar(16.0), &catalog)?;
///
/// // At the 50% slack target the best fit is 4 vCores.
/// assert_eq!(outcome.capacity.primary(), 4.0);
/// assert!(!outcome.censored);
/// # Ok::<(), lorentz_types::LorentzError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rightsizer {
    config: RightsizerConfig,
}

impl Rightsizer {
    /// Creates a rightsizer.
    ///
    /// # Errors
    /// Returns [`LorentzError::InvalidConfig`] for invalid configs.
    pub fn new(config: &RightsizerConfig) -> Result<Self, LorentzError> {
        config.validate()?;
        Ok(Self {
            config: config.clone(),
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &RightsizerConfig {
        &self.config
    }

    /// Throttling probability `T_w(c)` (Eq. 3–4): the fraction of bins in
    /// which *any* dimension exceeds `η_r · c_r`.
    ///
    /// # Errors
    /// Returns a dimension mismatch if `c` has the wrong arity.
    pub fn throttling(&self, trace: &UsageTrace, c: &Capacity) -> Result<f64, LorentzError> {
        c.check_space(trace.space())?;
        let bins = trace.bins();
        let dims = trace.dims();
        let mut throttled = 0usize;
        for n in 0..bins {
            let hit = (0..dims)
                .any(|r| trace.resource(r).values()[n] > self.config.eta_for(r) * c.get(r));
            if hit {
                throttled += 1;
            }
        }
        Ok(throttled as f64 / bins as f64)
    }

    /// Mean slack ratio vector `S_w(c)` (Eq. 5–6): per dimension, the mean
    /// of `(c_r − w_r[n]) / c_r` over time. Entries can be negative when the
    /// workload exceeds `c` (only possible for candidates below the observed
    /// peak).
    ///
    /// # Errors
    /// Returns a dimension mismatch if `c` has the wrong arity.
    pub fn slack_ratio(&self, trace: &UsageTrace, c: &Capacity) -> Result<Vec<f64>, LorentzError> {
        c.check_space(trace.space())?;
        (0..trace.dims())
            .map(|r| kernels::checked_slack_ratio(trace.resource(r).values(), c.get(r)))
            .collect()
    }

    /// Mean *absolute* slack `S_w(c) · c` per dimension — the business
    /// metric of Figure 9 ("minimizing the global resource volume
    /// provisioned").
    ///
    /// # Errors
    /// Returns a dimension mismatch if `c` has the wrong arity.
    pub fn absolute_slack(
        &self,
        trace: &UsageTrace,
        c: &Capacity,
    ) -> Result<Vec<f64>, LorentzError> {
        Ok(self
            .slack_ratio(trace, c)?
            .iter()
            .enumerate()
            .map(|(r, s)| s * c.get(r))
            .collect())
    }

    /// The complete rightsizing optimizer (Eq. 9) for one trace: packs it
    /// into a one-trace [`TraceColumns`] and runs
    /// [`Self::rightsize_columns`] with a fresh scratch.
    ///
    /// Uncensored branch: among candidates with `T_w(c) ≤ τ`, pick the one
    /// whose slack is closest to the target. Censored branch (the workload
    /// throttles at `c⁰`): among candidates with `c ≥ 2^K · c⁰`, pick the
    /// slack-closest; if the ladder tops out below `2^K · c⁰`, the largest
    /// SKU is selected (the paper leaves this boundary case unspecified; we
    /// saturate rather than fail).
    ///
    /// # Errors
    /// Returns [`LorentzError`] on arity mismatches, or
    /// [`LorentzError::Infeasible`] if the uncensored branch has no
    /// candidate meeting the throttling bound (possible when `c⁰` is not in
    /// the catalog).
    pub fn rightsize(
        &self,
        trace: &UsageTrace,
        user_capacity: &Capacity,
        catalog: &SkuCatalog,
    ) -> Result<RightsizeOutcome, LorentzError> {
        let columns = TraceColumns::from_traces(std::slice::from_ref(trace));
        self.rightsize_columns(
            columns.trace(0),
            user_capacity,
            catalog,
            &mut Stage1Scratch::default(),
        )
    }

    /// Eq. 9 over a [`TraceView`] into a [`TraceColumns`] fleet — the one
    /// Stage-1 optimizer; [`Self::rightsize`] wraps it for a single trace.
    ///
    /// * Throttling counts are **integers** (bins above `η_r · c_r`).
    ///   Single-dimension traces get every candidate's count — and the user
    ///   capacity's — from one histogram pass
    ///   ([`kernels::count_above_many`]) instead of one scan per SKU;
    ///   multi-dimension traces union a reusable mask.
    /// * Slack ratios are **order-sensitive sums**, folded in bin order
    ///   ([`kernels::checked_slack_ratio`], the same fold
    ///   [`Self::slack_ratio`] uses) and only for feasible candidates. The
    ///   winner's vector is kept in scratch rather than recomputed.
    /// * Candidates are scored in catalog order; the first strictly best
    ///   objective wins ties.
    ///
    /// `scratch` is reused across calls; one per worker thread.
    ///
    /// # Errors
    /// Same contract as [`Self::rightsize`].
    pub fn rightsize_columns(
        &self,
        trace: TraceView<'_>,
        user_capacity: &Capacity,
        catalog: &SkuCatalog,
        scratch: &mut Stage1Scratch,
    ) -> Result<RightsizeOutcome, LorentzError> {
        user_capacity.check_space(trace.space())?;
        let bins = trace.bins();
        let dims = trace.dims();
        if bins == 0 {
            return Err(LorentzError::InvalidTelemetry(
                "empty trace: cannot rightsize over zero bins".into(),
            ));
        }

        // Single-dimension fast path: every candidate's throttling count —
        // plus the user capacity's — comes out of ONE histogram pass over
        // the column (`count_above_many`) instead of one full scan per
        // candidate. Wrong-arity candidates get an `∞` placeholder (count 0)
        // that is never read: the candidate loop's `check_space` errors out
        // first.
        let single = dims == 1;
        if single {
            let eta0 = self.config.eta_for(0);
            scratch.thresholds.clear();
            scratch.thresholds.extend(catalog.skus().iter().map(|sku| {
                let c = &sku.capacity;
                if c.len() == 1 {
                    eta0 * c.get(0)
                } else {
                    f64::INFINITY
                }
            }));
            scratch.thresholds.push(eta0 * user_capacity.get(0));
            let (thresholds, counts) = (&scratch.thresholds, &mut scratch.counts);
            kernels::count_above_many(trace.dim(0), thresholds, &mut scratch.multi, counts);
        }

        let throttled = if single {
            scratch.counts[catalog.len()]
        } else {
            self.masked_throttled_count(&trace, user_capacity, scratch)
        };
        let throttling_at_user = throttled as f64 / bins as f64;
        let censored = throttling_at_user > self.config.tau;

        let mut best: Option<(usize, f64)> = None;
        for (i, sku) in catalog.skus().iter().enumerate() {
            let c = &sku.capacity;
            c.check_space(trace.space())?;
            let feasible = if censored {
                // Eq. 8: c_r >= 2^K c⁰_r for every dimension.
                let factor = f64::from(2u32.pow(self.config.k));
                (0..c.len()).all(|r| c.get(r) >= factor * user_capacity.get(r))
            } else {
                // Eq. 7: T_w(c) <= τ.
                let count = if single {
                    scratch.counts[i]
                } else {
                    self.masked_throttled_count(&trace, c, scratch)
                };
                count as f64 / bins as f64 <= self.config.tau
            };
            if !feasible {
                continue;
            }
            // Lazy slack: only feasible candidates pay the per-dimension
            // pass, folded in bin order.
            scratch.cand_slack.clear();
            for r in 0..dims {
                scratch
                    .cand_slack
                    .push(kernels::checked_slack_ratio(trace.dim(r), c.get(r))?);
            }
            let objective: f64 = scratch
                .cand_slack
                .iter()
                .enumerate()
                .map(|(r, s)| (s - self.config.slack_target_for(r)).abs())
                .sum();
            if best.is_none_or(|(_, b)| objective < b) {
                best = Some((i, objective));
                // Keep the winner's slack vector: `slack_at_chosen` is this
                // very value.
                std::mem::swap(&mut scratch.best_slack, &mut scratch.cand_slack);
            }
        }

        let sku_index = match best {
            Some((i, _)) => i,
            None if censored => catalog.len() - 1, // saturate at the top
            None => {
                return Err(LorentzError::Infeasible(format!(
                    "no catalog candidate meets throttling bound τ={}",
                    self.config.tau
                )))
            }
        };

        let capacity = catalog.get(sku_index).capacity.clone();
        let slack_at_chosen: Vec<f64> = if best.is_some() {
            scratch.best_slack.clone()
        } else {
            // Censored saturate: the top SKU was never a feasible candidate,
            // so its slack has not been computed yet.
            (0..dims)
                .map(|r| kernels::checked_slack_ratio(trace.dim(r), capacity.get(r)))
                .collect::<Result<_, _>>()?
        };
        let verdict = verdict(user_capacity, &capacity);
        Ok(RightsizeOutcome {
            capacity,
            sku_index,
            censored,
            throttling_at_user,
            slack_at_chosen,
            verdict,
        })
    }

    /// Throttled-bin count of Eq. 3–4 for multi-dimensional traces: a
    /// reusable any-dim mask union.
    fn masked_throttled_count(
        &self,
        trace: &TraceView<'_>,
        c: &Capacity,
        scratch: &mut Stage1Scratch,
    ) -> usize {
        let bins = trace.bins();
        scratch.mask.clear();
        scratch.mask.resize(bins, false);
        for r in 0..trace.dims() {
            kernels::or_above(
                trace.dim(r),
                self.config.eta_for(r) * c.get(r),
                &mut scratch.mask,
            );
        }
        scratch.mask.iter().filter(|&&m| m).count()
    }
}

/// Reusable buffers for [`Rightsizer::rightsize_columns`]: one per Stage-1
/// worker thread, reused across every trace and candidate the worker sizes.
#[derive(Debug, Default)]
pub struct Stage1Scratch {
    /// Throttling thresholds `η·c` per catalog candidate (+ the user's).
    thresholds: Vec<f64>,
    /// Histogram state for [`kernels::count_above_many`].
    multi: kernels::MultiCountScratch,
    /// Throttled-bin counts, indexed like `thresholds`.
    counts: Vec<usize>,
    /// Any-dimension throttling union for multi-dimension traces.
    mask: Vec<bool>,
    /// Per-dimension slack of the candidate currently being scored.
    cand_slack: Vec<f64>,
    /// Per-dimension slack of the best candidate so far.
    best_slack: Vec<f64>,
}

/// Classifies a user capacity against the rightsized capacity (primary
/// dimension).
fn verdict(user: &Capacity, rightsized: &Capacity) -> ProvisioningVerdict {
    let u = user.primary();
    let r = rightsized.primary();
    if (u - r).abs() < 1e-9 {
        ProvisioningVerdict::WellProvisioned
    } else if u > r {
        ProvisioningVerdict::OverProvisioned
    } else {
        ProvisioningVerdict::UnderProvisioned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lorentz_telemetry::RegularSeries;
    use lorentz_types::ServerOffering;

    fn sizer() -> Rightsizer {
        Rightsizer::new(&RightsizerConfig::default()).unwrap()
    }

    fn trace(values: &[f64]) -> UsageTrace {
        UsageTrace::single(RegularSeries::new(300.0, values.to_vec()).unwrap())
    }

    fn catalog() -> SkuCatalog {
        SkuCatalog::azure_postgres(ServerOffering::GeneralPurpose) // 2..128
    }

    #[test]
    fn throttling_counts_bins_above_eta() {
        let s = sizer();
        let t = trace(&[1.0, 1.9, 2.0, 0.5]);
        // c=2, η=0.95 -> threshold 1.9; bins 1.9 (not >) and 2.0 (>): 1 of 4.
        let thr = s.throttling(&t, &Capacity::scalar(2.0)).unwrap();
        assert!((thr - 0.25).abs() < 1e-12);
        // Large capacity: no throttling.
        assert_eq!(s.throttling(&t, &Capacity::scalar(8.0)).unwrap(), 0.0);
    }

    #[test]
    fn multi_dimension_throttling_is_any_dimension() {
        let cfg = RightsizerConfig {
            eta: vec![0.95, 0.95],
            slack_target: vec![0.5, 0.5],
            ..RightsizerConfig::default()
        };
        let s = Rightsizer::new(&cfg).unwrap();
        let t = UsageTrace::new(
            lorentz_types::ResourceSpace::vcores_memory(),
            vec![
                RegularSeries::new(300.0, vec![1.0, 1.0]).unwrap(),
                RegularSeries::new(300.0, vec![1.0, 7.9]).unwrap(),
            ],
        )
        .unwrap();
        // CPU never throttles at 4 but memory bin 1 exceeds 0.95*8=7.6.
        let thr = s
            .throttling(&t, &Capacity::new(vec![4.0, 8.0]).unwrap())
            .unwrap();
        assert!((thr - 0.5).abs() < 1e-12);
    }

    #[test]
    fn slack_matches_eq_5_6() {
        let s = sizer();
        let t = trace(&[1.0, 3.0]);
        let slack = s.slack_ratio(&t, &Capacity::scalar(4.0)).unwrap();
        // ((4-1)/4 + (4-3)/4)/2 = (0.75 + 0.25)/2 = 0.5
        assert!((slack[0] - 0.5).abs() < 1e-12);
        let abs = s.absolute_slack(&t, &Capacity::scalar(4.0)).unwrap();
        assert!((abs[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn slack_can_be_negative_for_undersized_candidates() {
        let s = sizer();
        let t = trace(&[4.0, 4.0]);
        let slack = s.slack_ratio(&t, &Capacity::scalar(2.0)).unwrap();
        assert!(slack[0] < 0.0);
    }

    #[test]
    fn uncensored_workload_picks_slack_target() {
        let s = sizer();
        // Steady 2.0 usage, user chose 16 (over-provisioned, no throttling).
        let t = trace(&[2.0; 20]);
        let out = s
            .rightsize(&t, &Capacity::scalar(16.0), &catalog())
            .unwrap();
        assert!(!out.censored);
        // Slack target 0.5 -> ideal capacity 4 (slack (4-2)/4 = 0.5 exactly).
        assert_eq!(out.capacity.primary(), 4.0);
        assert_eq!(out.verdict, ProvisioningVerdict::OverProvisioned);
        assert_eq!(out.throttling_at_user, 0.0);
        assert!((out.slack_at_chosen[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn throttling_constraint_overrides_slack_preference() {
        let s = sizer();
        // Usage mostly 1.0 but spikes to 3.9 in one bin: capacity 4 would
        // throttle (3.9 > 0.95*4=3.8), so 8 is the smallest feasible...
        // but slack at 8 vs target: |(1-mean/8)-0.5|; candidates 8..128 all
        // feasible; 8 wins on slack distance. Capacity 2/4 are infeasible.
        let mut vals = vec![1.0; 19];
        vals.push(3.9);
        let t = trace(&vals);
        let out = s
            .rightsize(&t, &Capacity::scalar(16.0), &catalog())
            .unwrap();
        assert_eq!(out.capacity.primary(), 8.0);
        assert_eq!(s.throttling(&t, &out.capacity).unwrap(), 0.0);
    }

    #[test]
    fn censored_workload_scales_up_by_2_to_the_k() {
        let s = sizer();
        // Usage pinned at the user capacity 4 -> throttled, censored.
        let t = trace(&[4.0; 10]);
        let out = s.rightsize(&t, &Capacity::scalar(4.0), &catalog()).unwrap();
        assert!(out.censored);
        assert!(out.throttling_at_user > 0.0);
        // K=1: candidates >= 8; slack distance favors the smallest.
        assert_eq!(out.capacity.primary(), 8.0);
        assert_eq!(out.verdict, ProvisioningVerdict::UnderProvisioned);
    }

    #[test]
    fn censored_branch_saturates_at_catalog_top() {
        let s = sizer();
        let t = trace(&[128.0; 10]);
        let out = s
            .rightsize(&t, &Capacity::scalar(128.0), &catalog())
            .unwrap();
        assert!(out.censored);
        assert_eq!(out.capacity.primary(), 128.0);
        assert_eq!(out.verdict, ProvisioningVerdict::WellProvisioned);
    }

    #[test]
    fn k_zero_keeps_censored_workloads_at_least_at_user_capacity() {
        let cfg = RightsizerConfig {
            k: 0,
            ..RightsizerConfig::default()
        };
        let s = Rightsizer::new(&cfg).unwrap();
        let t = trace(&[4.0; 10]);
        let out = s.rightsize(&t, &Capacity::scalar(4.0), &catalog()).unwrap();
        // 2^0 = 1: candidates >= 4; slack distance: at 4 slack=0 dist 0.5,
        // at 8 slack=0.5 dist 0 -> picks 8 anyway via slack target.
        assert_eq!(out.capacity.primary(), 8.0);
    }

    #[test]
    fn idle_workload_rightsized_to_minimum() {
        let s = sizer();
        let t = trace(&[0.05; 50]);
        let out = s
            .rightsize(&t, &Capacity::scalar(32.0), &catalog())
            .unwrap();
        assert_eq!(out.capacity.primary(), 2.0);
    }

    #[test]
    fn well_provisioned_user_matches_rightsizer() {
        let s = sizer();
        let t = trace(&[2.0; 20]);
        let out = s.rightsize(&t, &Capacity::scalar(4.0), &catalog()).unwrap();
        assert_eq!(out.verdict, ProvisioningVerdict::WellProvisioned);
    }

    #[test]
    fn nonzero_tau_tolerates_rare_spikes() {
        let cfg = RightsizerConfig {
            tau: 0.1,
            ..RightsizerConfig::default()
        };
        let s = Rightsizer::new(&cfg).unwrap();
        // One spike bin in 20 (5% of time): within τ=10%.
        let mut vals = vec![1.0; 19];
        vals.push(3.9);
        let t = trace(&vals);
        let out = s
            .rightsize(&t, &Capacity::scalar(16.0), &catalog())
            .unwrap();
        // Capacity 2 throttles 5% of bins <= τ=10% and its mean slack
        // (0.4275) is closest to the 0.5 target, so relaxing τ unlocks a
        // smaller SKU than the τ=0 answer (8).
        assert_eq!(out.capacity.primary(), 2.0);
        let strict = sizer()
            .rightsize(&t, &Capacity::scalar(16.0), &catalog())
            .unwrap();
        assert_eq!(strict.capacity.primary(), 8.0);
    }

    #[test]
    fn slack_ratio_single_sample_trace_is_valid() {
        let s = sizer();
        let t = trace(&[1.0]);
        let slack = s.slack_ratio(&t, &Capacity::scalar(4.0)).unwrap();
        assert_eq!(slack, vec![0.75]);
        let out = s.rightsize(&t, &Capacity::scalar(4.0), &catalog()).unwrap();
        assert_eq!(out.capacity.primary(), 2.0);
    }

    #[test]
    fn rightsize_rejects_mismatched_arity() {
        let s = sizer();
        let t = trace(&[1.0]);
        let two_dim = Capacity::new(vec![2.0, 8.0]).unwrap();
        assert!(s.rightsize(&t, &two_dim, &catalog()).is_err());
        assert!(s.throttling(&t, &two_dim).is_err());
        assert!(s.slack_ratio(&t, &two_dim).is_err());
    }
}
