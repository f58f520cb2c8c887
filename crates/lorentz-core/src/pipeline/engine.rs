//! The unified serving surface: one [`RecommendEngine`] trait in front of
//! the live-model and prediction-store paths.
//!
//! A caller picks the source once — a [`LiveModel`] for Stage-2 inference
//! or a [`StoreOnly`] engine over any [`StoreProbe`] (the deployment's own
//! [`PredictionStore`] or a pinned [`ShardedStoreSnapshot`]) — then serves
//! through [`RecommendEngine::recommend_one`] /
//! [`RecommendEngine::recommend_many`] uniformly. Each engine has one
//! constructor.
//!
//! Both engines take an optional live
//! [`LambdaSnapshot`](crate::personalizer::LambdaSnapshot): with one, the
//! Stage-3 adjustment reads λ from that published snapshot instead of the
//! deployment's frozen batch personalizer, which is how online feedback
//! shifts recommendations mid-serve without a model reload.

use super::{ModelKind, RecommendRequest, TrainedLorentz};
use crate::explain::{Explanation, Recommendation};
use crate::obs;
use crate::personalizer::LambdaSnapshot;
use crate::store::{PredictionStore, ShardedStoreSnapshot};
use lorentz_types::{FeatureId, LorentzError, ProfileVector, ServerOffering, ValueId};

/// A probe-able prediction source: anything that answers the
/// most-granular-first level walk a [`StoreOnly`] engine performs. The two
/// implementors — the flat [`PredictionStore`] and a pinned
/// [`ShardedStoreSnapshot`] — answer identically for identical contents
/// (the shard-equivalence proptest pins this), so the engine is generic
/// over the probe and monomorphizes to the same code either way.
pub trait StoreProbe {
    /// Probes `levels` most granular first, falling back to the
    /// per-offering default.
    ///
    /// # Errors
    /// [`LorentzError::NotFound`] if no key matches and no default exists
    /// for the offering.
    fn probe(
        &self,
        offering: ServerOffering,
        levels: &[(FeatureId, ValueId)],
    ) -> Result<(f64, Explanation), LorentzError>;
}

impl StoreProbe for PredictionStore {
    fn probe(
        &self,
        offering: ServerOffering,
        levels: &[(FeatureId, ValueId)],
    ) -> Result<(f64, Explanation), LorentzError> {
        self.lookup(offering, levels)
    }
}

impl StoreProbe for ShardedStoreSnapshot {
    fn probe(
        &self,
        offering: ServerOffering,
        levels: &[(FeatureId, ValueId)],
    ) -> Result<(f64, Explanation), LorentzError> {
        self.lookup(offering, levels)
    }
}

/// A serving engine: one recommendation source behind a uniform single /
/// batched interface. Implementations must keep the two entry points
/// equivalent — `recommend_many` is positionally identical to calling
/// `recommend_one` per request, differing only in amortization (scratch
/// reuse, batched metrics).
pub trait RecommendEngine {
    /// Serves one request.
    ///
    /// # Errors
    /// Returns [`LorentzError`] for unknown offerings, malformed profiles,
    /// or a source-specific failure (untrained model, empty store).
    fn recommend_one(&self, request: &RecommendRequest<'_>)
        -> Result<Recommendation, LorentzError>;

    /// Serves a batch of requests; results are positionally aligned with
    /// `requests` and identical to serving each through
    /// [`RecommendEngine::recommend_one`].
    fn recommend_many(
        &self,
        requests: &[RecommendRequest<'_>],
    ) -> Vec<Result<Recommendation, LorentzError>>;
}

/// Serves through a live Stage-2 model (hierarchical or target-encoding),
/// then applies the Stage-3 λ adjustment. Records the
/// `serve.recommend*` spans and counters.
#[derive(Debug, Clone, Copy)]
pub struct LiveModel<'a> {
    deployment: &'a TrainedLorentz,
    kind: ModelKind,
    lambdas: Option<&'a LambdaSnapshot>,
}

impl<'a> LiveModel<'a> {
    /// An engine over `deployment`'s live `kind` model. With `lambdas`, the
    /// Stage-3 adjustment reads λ from that published snapshot instead of
    /// the deployment's batch personalizer.
    pub fn new(
        deployment: &'a TrainedLorentz,
        kind: ModelKind,
        lambdas: Option<&'a LambdaSnapshot>,
    ) -> Self {
        Self {
            deployment,
            kind,
            lambdas,
        }
    }

    /// Which Stage-2 model this engine serves through.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }
}

impl RecommendEngine for LiveModel<'_> {
    /// Serves a recommendation through the live Stage-2 model. Records one
    /// `serve.recommend.span_ns` observation plus request/error counters.
    fn recommend_one(
        &self,
        request: &RecommendRequest<'_>,
    ) -> Result<Recommendation, LorentzError> {
        let _span = obs::RECOMMEND_SPAN_NS.span();
        obs::RECOMMEND_REQUESTS.inc();
        let result = self
            .deployment
            .profiles
            .encode_row(&request.profile)
            .and_then(|x| {
                self.deployment
                    .recommend_encoded(&x, request, self.kind, self.lambdas)
            });
        if result.is_err() {
            obs::RECOMMEND_ERRORS.inc();
        }
        result
    }

    /// Serves a batch, interning each profile once into a reused scratch
    /// vector. Metrics are amortized: one `serve.recommend_batch.span_ns`
    /// observation and one counter update per batch, nothing per item.
    fn recommend_many(
        &self,
        requests: &[RecommendRequest<'_>],
    ) -> Vec<Result<Recommendation, LorentzError>> {
        let _span = obs::RECOMMEND_BATCH_SPAN_NS.span();
        let mut scratch = ProfileVector::new(Vec::new());
        let results: Vec<Result<Recommendation, LorentzError>> = requests
            .iter()
            .map(|request| {
                self.deployment
                    .profiles
                    .encode_row_into(&request.profile, &mut scratch)?;
                self.deployment
                    .recommend_encoded(&scratch, request, self.kind, self.lambdas)
            })
            .collect();
        obs::RECOMMEND_BATCHES.inc();
        obs::RECOMMEND_REQUESTS.add(results.len() as u64);
        obs::RECOMMEND_ERRORS.add(results.iter().filter(|r| r.is_err()).count() as u64);
        results
    }
}

/// Serves from a precomputed prediction store (the low-latency §4 path),
/// falling back most-granular-first along the learned hierarchy, then
/// applies the λ adjustment. Probes use packed integer keys — no string is
/// built per lookup. Records the `serve.store*` spans and counters.
/// Generic over the [`StoreProbe`] source: the deployment's own
/// [`PredictionStore`] (the default) or the serving engine's pinned
/// [`ShardedStoreSnapshot`].
#[derive(Debug)]
pub struct StoreOnly<'a, S: StoreProbe = PredictionStore> {
    deployment: &'a TrainedLorentz,
    store: &'a S,
    lambdas: Option<&'a LambdaSnapshot>,
}

impl<S: StoreProbe> Clone for StoreOnly<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S: StoreProbe> Copy for StoreOnly<'_, S> {}

impl<'a, S: StoreProbe> StoreOnly<'a, S> {
    /// An engine over `store` — e.g. [`TrainedLorentz::store`] or a
    /// hot-swapped sharded snapshot — still using `deployment`'s schema,
    /// hierarchy chain, and personalizer to interpret requests. With
    /// `lambdas`, the Stage-3 adjustment reads λ from that published
    /// snapshot instead of the deployment's batch personalizer.
    pub fn new(
        deployment: &'a TrainedLorentz,
        store: &'a S,
        lambdas: Option<&'a LambdaSnapshot>,
    ) -> Self {
        Self {
            deployment,
            store,
            lambdas,
        }
    }
}

impl<S: StoreProbe> StoreOnly<'_, S> {
    /// The store-serving core: probe levels into `levels`, look up,
    /// personalize. Every lookup outcome lands in one of the
    /// `store.lookup.{hits,defaults,misses}` counters.
    fn recommend_with_levels(
        &self,
        request: &RecommendRequest<'_>,
        levels: &mut Vec<(FeatureId, ValueId)>,
    ) -> Result<Recommendation, LorentzError> {
        self.deployment.store_levels(request, levels)?;
        let lookup = self.store.probe(request.offering, levels);
        match &lookup {
            Ok((_, Explanation::StoreLookup { key: Some(_), .. })) => obs::STORE_HITS.inc(),
            Ok(_) => obs::STORE_DEFAULTS.inc(),
            Err(_) => obs::STORE_MISSES.inc(),
        }
        let (stage2_capacity, explanation) = lookup?;
        self.deployment
            .personalize(stage2_capacity, explanation, request, self.lambdas)
    }
}

impl<S: StoreProbe> RecommendEngine for StoreOnly<'_, S> {
    /// Serves one request from the store. Records one
    /// `serve.store.span_ns` observation plus request/error counters.
    fn recommend_one(
        &self,
        request: &RecommendRequest<'_>,
    ) -> Result<Recommendation, LorentzError> {
        let _span = obs::STORE_SERVE_SPAN_NS.span();
        obs::STORE_SERVE_REQUESTS.inc();
        let mut levels = Vec::new();
        let result = self.recommend_with_levels(request, &mut levels);
        if result.is_err() {
            obs::STORE_SERVE_ERRORS.inc();
        }
        result
    }

    /// Serves a batch from the store, reusing one probe-level buffer across
    /// the batch. Span and request/error counters are recorded once per
    /// batch.
    fn recommend_many(
        &self,
        requests: &[RecommendRequest<'_>],
    ) -> Vec<Result<Recommendation, LorentzError>> {
        let _span = obs::STORE_SERVE_BATCH_SPAN_NS.span();
        let mut levels = Vec::new();
        let results: Vec<Result<Recommendation, LorentzError>> = requests
            .iter()
            .map(|request| self.recommend_with_levels(request, &mut levels))
            .collect();
        obs::STORE_SERVE_BATCHES.inc();
        obs::STORE_SERVE_REQUESTS.add(results.len() as u64);
        obs::STORE_SERVE_ERRORS.add(results.iter().filter(|r| r.is_err()).count() as u64);
        results
    }
}
