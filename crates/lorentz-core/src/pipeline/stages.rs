//! The batch-training stages of Fig. 8 (A→C).
//!
//! Each stage is a free function over [`TrainContext`]; the orchestration
//! in [`LorentzPipeline::train`](crate::pipeline::LorentzPipeline::train)
//! chains them. Stage 2 trains the per-offering models on scoped threads —
//! offerings are independent (stratified training, §2.1), so the only
//! coordination point is joining the workers, and results are collected in
//! job order to keep training fully deterministic.

use super::context::TrainContext;
use super::OfferingModels;
use crate::obs;
use crate::personalizer::Personalizer;
use crate::provisioner::{HierarchicalProvisioner, TargetEncodingProvisioner};
use crate::rightsizer::{RightsizeOutcome, Stage1Scratch};
use crate::store::{PredictionStore, PublishBatch};
use lorentz_telemetry::TraceColumns;
use lorentz_types::{LorentzError, ServerOffering, StoreKey};
use std::collections::BTreeMap;

/// Stage 1: rightsize every fleet record, producing per-record outcomes and
/// the Stage-2 training labels (rightsized primary capacities).
///
/// Records are split into contiguous chunks, one scoped worker (with its
/// own reusable [`Stage1Scratch`]) per chunk, and chunk results are
/// concatenated in chunk order, so the output is byte-identical at *any*
/// thread cap (`0` = one worker per available core). Each worker packs one
/// trace at a time into its reused one-trace [`TraceColumns`] for
/// [`Rightsizer::rightsize_columns`](crate::Rightsizer::rightsize_columns):
/// packing the whole fleet up front costs a full extra pass over memory,
/// while a one-trace copy stays in cache.
pub(super) fn rightsize_fleet(
    ctx: &TrainContext<'_>,
    max_threads: usize,
) -> Result<(Vec<RightsizeOutcome>, Vec<f64>), LorentzError> {
    let _span = obs::STAGE1_SPAN_NS.span();
    let fleet = ctx.fleet;
    let n = fleet.len();
    let threads = if max_threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        max_threads
    }
    .min(n)
    .max(1);
    let chunk = n.div_ceil(threads);

    let results: Vec<Result<Vec<RightsizeOutcome>, LorentzError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                scope.spawn(move || {
                    let lo = w * chunk;
                    let hi = ((w + 1) * chunk).min(n);
                    let mut scratch = Stage1Scratch::default();
                    let mut one = TraceColumns::from_traces(&[]);
                    let mut out = Vec::with_capacity(hi.saturating_sub(lo));
                    for i in lo..hi {
                        let catalog = ctx.catalog(fleet.offerings()[i])?;
                        one.pack_one(&fleet.traces()[i]);
                        out.push(ctx.rightsizer.rightsize_columns(
                            one.trace(0),
                            &fleet.user_capacities()[i],
                            catalog,
                            &mut scratch,
                        )?);
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stage-1 worker panicked"))
            .collect()
    });

    let mut outcomes = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for result in results {
        for outcome in result? {
            labels.push(outcome.capacity.primary());
            outcomes.push(outcome);
        }
    }
    obs::STAGE1_RECORDS.add(outcomes.len() as u64);
    Ok((outcomes, labels))
}

/// What one Stage-2 worker produces for its offering.
struct OfferingArtifacts {
    offering: ServerOffering,
    models: OfferingModels,
    entries: Vec<(StoreKey, f64)>,
    default: f64,
}

/// Trains one offering's models and exports its store entries.
fn train_offering(
    ctx: &TrainContext<'_>,
    offering: ServerOffering,
    rows: &[usize],
    labels: &[f64],
) -> Result<OfferingArtifacts, LorentzError> {
    let _span = obs::STAGE2_OFFERING_SPAN_NS.span();
    let catalog = ctx.catalog(offering)?;
    let sub_table = ctx.fleet.profiles().subset(rows);
    let sub_labels: Vec<f64> = rows.iter().map(|&r| labels[r]).collect();
    let hierarchical =
        HierarchicalProvisioner::fit(&sub_table, &sub_labels, catalog, ctx.config.hierarchical)?;
    let target_encoding = TargetEncodingProvisioner::fit(
        &sub_table,
        &sub_labels,
        catalog,
        ctx.config.target_encoding,
    )?;
    let (typed_entries, default) = hierarchical.export_store_entries();
    let entries = typed_entries
        .into_iter()
        .map(|(f, v, c)| (StoreKey::new(offering, f, v), c))
        .collect();
    Ok(OfferingArtifacts {
        offering,
        models: OfferingModels {
            hierarchical,
            target_encoding,
        },
        entries,
        default,
    })
}

/// Stage 2: per-offering stratified models (§2.1), trained concurrently —
/// scoped threads over the offerings with training rows — plus the publish
/// batch for Fig. 8 step C. `max_threads` caps how many workers run at
/// once (0 = one thread per offering); whatever the cap, worker results
/// are joined in job order, so the output is identical to a sequential run.
pub(super) fn train_offerings(
    ctx: &TrainContext<'_>,
    labels: &[f64],
    max_threads: usize,
) -> Result<(BTreeMap<ServerOffering, OfferingModels>, PublishBatch), LorentzError> {
    let _span = obs::STAGE2_SPAN_NS.span();
    let jobs: Vec<(ServerOffering, Vec<usize>)> = ctx
        .catalogs
        .keys()
        .map(|&offering| (offering, ctx.fleet.rows_for_offering(offering)))
        .filter(|(_, rows)| !rows.is_empty())
        .collect();
    let wave = if max_threads == 0 {
        jobs.len().max(1)
    } else {
        max_threads
    };

    let mut results: Vec<Result<OfferingArtifacts, LorentzError>> = Vec::with_capacity(jobs.len());
    for chunk in jobs.chunks(wave) {
        results.extend(std::thread::scope(|scope| {
            let handles: Vec<_> = chunk
                .iter()
                .map(|(offering, rows)| {
                    scope.spawn(move || train_offering(ctx, *offering, rows, labels))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("stage-2 worker panicked"))
                .collect::<Vec<_>>()
        }));
    }

    let mut models = BTreeMap::new();
    let mut batch = PublishBatch::default();
    for result in results {
        let artifacts = result?;
        batch.entries.extend(artifacts.entries);
        batch.defaults.push((artifacts.offering, artifacts.default));
        models.insert(artifacts.offering, artifacts.models);
    }
    if models.is_empty() {
        return Err(LorentzError::Model(
            "no offering had any training rows".into(),
        ));
    }
    obs::STAGE2_OFFERINGS.add(models.len() as u64);
    Ok((models, batch))
}

/// Publishes the precomputed predictions (Fig. 8 step C).
pub(super) fn publish_store(batch: PublishBatch) -> Result<PredictionStore, LorentzError> {
    let _span = obs::PUBLISH_SPAN_NS.span();
    let mut store = PredictionStore::new();
    store.publish(batch)?;
    obs::PUBLISH_ENTRIES.add(store.len() as u64);
    Ok(store)
}

/// Stage 3: a fresh personalization profile per observed customer path
/// (λ = 0).
pub(super) fn init_personalizer(ctx: &TrainContext<'_>) -> Result<Personalizer, LorentzError> {
    let _span = obs::PERSONALIZER_INIT_SPAN_NS.span();
    let mut personalizer = Personalizer::new(ctx.config.personalizer)?;
    for &path in ctx.fleet.paths() {
        personalizer.register(path);
    }
    obs::PERSONALIZER_PROFILES.add(personalizer.profiles() as u64);
    Ok(personalizer)
}
