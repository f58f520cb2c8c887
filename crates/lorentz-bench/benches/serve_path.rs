//! Serving-path kernels: prediction-store lookups and the single vs
//! batched recommend entry points (Fig. 8 step D, the online half).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lorentz_bench::bench_fleet;
use lorentz_core::store::PublishBatch;
use lorentz_core::{
    LiveModel, LorentzConfig, LorentzPipeline, ModelKind, RecommendEngine, RecommendRequest,
    ShardedPredictionStore, StoreOnly, TrainedLorentz,
};
use lorentz_types::{FeatureId, ResourcePath, ServerOffering, StoreKey, ValueId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const BATCH: usize = 256;

/// An owned request (profile strings decoded back out of the fleet's
/// vocabularies) so the borrowed `RecommendRequest`s can be rebuilt cheaply.
struct OwnedRequest {
    profile: Vec<Option<String>>,
    offering: ServerOffering,
    path: ResourcePath,
}

fn serving_fixture() -> (TrainedLorentz, Vec<OwnedRequest>) {
    let synth = bench_fleet(300);
    let table = synth.fleet.profiles();
    let requests: Vec<OwnedRequest> = (0..BATCH)
        .map(|i| {
            let row = i % table.rows();
            let x = table.row(row);
            let profile = table
                .schema()
                .feature_ids()
                .map(|f| x.get(f).map(|id| table.vocab(f).value(id).to_owned()))
                .collect();
            OwnedRequest {
                profile,
                offering: synth.fleet.offerings()[row],
                path: synth.fleet.paths()[row],
            }
        })
        .collect();
    let trained = LorentzPipeline::new(LorentzConfig::paper_defaults())
        .unwrap()
        .train(&synth.fleet)
        .unwrap();
    (trained, requests)
}

fn borrow<'a>(owned: &'a [OwnedRequest]) -> Vec<RecommendRequest<'a>> {
    owned
        .iter()
        .map(|r| RecommendRequest {
            profile: r.profile.iter().map(|v| v.as_deref()).collect(),
            offering: r.offering,
            path: r.path,
        })
        .collect()
}

fn bench_store_lookup(c: &mut Criterion) {
    let (trained, _) = serving_fixture();
    let store = trained.store();
    // A fully-specified level stack: fine-to-coarse ids 0..n. Misses on the
    // fine levels and falls through — the worst-case probe count.
    let levels: Vec<(FeatureId, ValueId)> = (0..trained.profiles().schema().len())
        .map(|i| (FeatureId(i), ValueId(0)))
        .collect();
    c.bench_function("serve/store_lookup_packed", |b| {
        b.iter(|| {
            store
                .lookup(
                    black_box(ServerOffering::GeneralPurpose),
                    black_box(&levels),
                )
                .unwrap()
        })
    });
}

fn bench_recommend(c: &mut Criterion) {
    let (trained, owned) = serving_fixture();
    let requests = borrow(&owned);
    c.bench_function("serve/recommend_single_x256", |b| {
        b.iter(|| {
            for r in &requests {
                let _ = black_box(trained.recommend(black_box(r), ModelKind::Hierarchical));
            }
        })
    });
    c.bench_function("serve/recommend_batch_256", |b| {
        let engine = LiveModel::new(&trained, ModelKind::Hierarchical, None);
        b.iter(|| engine.recommend_many(black_box(&requests)))
    });
}

fn bench_recommend_store_path(c: &mut Criterion) {
    let (trained, owned) = serving_fixture();
    let requests = borrow(&owned);
    let engine = StoreOnly::new(&trained, trained.store(), None);
    c.bench_function("serve/store_single_x256", |b| {
        b.iter(|| {
            for r in &requests {
                let _ = black_box(engine.recommend_one(black_box(r)));
            }
        })
    });
    c.bench_function("serve/store_batch_256", |b| {
        b.iter(|| engine.recommend_many(black_box(&requests)))
    });
}

/// The hot-swap read path on a one-shard store: snapshot capture (`Arc`
/// clone) + packed probe, both on a quiet store and while a publisher
/// republishes continuously — the latter demonstrates that reads proceed
/// during concurrent publish instead of waiting for writers to drain.
fn bench_hot_swap_snapshot(c: &mut Criterion) {
    let n_keys = 8usize;
    let batch = PublishBatch {
        entries: (0..n_keys)
            .map(|i| {
                (
                    StoreKey::new(ServerOffering::GeneralPurpose, FeatureId(i), ValueId(0)),
                    4.0,
                )
            })
            .collect(),
        defaults: vec![(ServerOffering::GeneralPurpose, 2.0)],
    };
    let levels: Vec<(FeatureId, ValueId)> =
        (0..n_keys).map(|i| (FeatureId(i), ValueId(0))).collect();
    let shared = Arc::new(ShardedPredictionStore::new(1).unwrap());
    shared.publish(batch.clone()).unwrap();
    c.bench_function("serve/one_shard_snapshot_lookup", |b| {
        b.iter(|| {
            shared
                .snapshot()
                .lookup(
                    black_box(ServerOffering::GeneralPurpose),
                    black_box(&levels),
                )
                .unwrap()
        })
    });
    let stop = Arc::new(AtomicBool::new(false));
    let publisher = {
        let shared = Arc::clone(&shared);
        let stop = Arc::clone(&stop);
        let batch = batch.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                shared.publish(batch.clone()).unwrap();
            }
        })
    };
    c.bench_function("serve/snapshot_lookup_during_publish", |b| {
        b.iter(|| {
            shared
                .snapshot()
                .lookup(
                    black_box(ServerOffering::GeneralPurpose),
                    black_box(&levels),
                )
                .unwrap()
        })
    });
    stop.store(true, Ordering::Relaxed);
    publisher.join().unwrap();
}

/// The sharded read path: snapshot capture + routed probe against an
/// 8-shard store, quiet and while a publisher hot-swaps ONE shard in a
/// loop — readers on the untouched shards should not notice (per-shard
/// `Arc` slots, no global lock).
fn bench_sharded_lookup(c: &mut Criterion) {
    let n_keys = 8usize;
    let entries: Vec<(StoreKey, f64)> = (0..n_keys)
        .map(|i| {
            (
                StoreKey::new(ServerOffering::GeneralPurpose, FeatureId(i), ValueId(0)),
                4.0,
            )
        })
        .collect();
    let batch = PublishBatch {
        entries: entries.clone(),
        defaults: vec![(ServerOffering::GeneralPurpose, 2.0)],
    };
    let levels: Vec<(FeatureId, ValueId)> =
        (0..n_keys).map(|i| (FeatureId(i), ValueId(0))).collect();
    let sharded = Arc::new(ShardedPredictionStore::new(8).unwrap());
    sharded.publish(batch).unwrap();
    c.bench_function("serve/sharded_snapshot_lookup", |b| {
        b.iter(|| {
            sharded
                .snapshot()
                .lookup(
                    black_box(ServerOffering::GeneralPurpose),
                    black_box(&levels),
                )
                .unwrap()
        })
    });
    // Republish one key's shard continuously; the probe sweeps all levels,
    // so most probes hit shards the publisher never touches.
    let hot_key = entries[0].0;
    let hot_shard = sharded.shard_of_packed(hot_key.pack());
    let stop = Arc::new(AtomicBool::new(false));
    let publisher = {
        let sharded = Arc::clone(&sharded);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let batch = PublishBatch {
                entries: vec![(hot_key, 4.0)],
                defaults: Vec::new(),
            };
            while !stop.load(Ordering::Relaxed) {
                sharded.publish_shard(hot_shard, batch.clone()).unwrap();
            }
        })
    };
    c.bench_function("serve/sharded_lookup_during_shard_publish", |b| {
        b.iter(|| {
            sharded
                .snapshot()
                .lookup(
                    black_box(ServerOffering::GeneralPurpose),
                    black_box(&levels),
                )
                .unwrap()
        })
    });
    stop.store(true, Ordering::Relaxed);
    publisher.join().unwrap();
}

criterion_group!(
    benches,
    bench_store_lookup,
    bench_recommend,
    bench_recommend_store_path,
    bench_hot_swap_snapshot,
    bench_sharded_lookup
);
criterion_main!(benches);
