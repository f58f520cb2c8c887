//! Stage-3 kernels: Algorithm-1 signal propagation across customer
//! profiles of varying size (up to the 10k-profile fan-out), the Eq. 14
//! adjustment, and λ-snapshot lookups racing a live publisher — the
//! machinery behind Figures 13 and 14 and the online feedback path. The
//! λ-store kernels run on a one-shard [`ShardedLambdaStore`], the
//! follower's configuration. `BENCH_stage3.json` at the repo root pins the
//! baseline numbers.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use lorentz_core::{Personalizer, PersonalizerConfig, SatisfactionSignal, ShardedLambdaStore};
use lorentz_types::{
    CustomerId, ResourceGroupId, ResourcePath, ServerOffering, SkuCatalog, SubscriptionId,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn build_personalizer(subs: u32, rgs_per_sub: u32) -> Personalizer {
    let mut p = Personalizer::new(PersonalizerConfig::default()).unwrap();
    for s in 0..subs {
        for r in 0..rgs_per_sub {
            p.register(ResourcePath::new(
                CustomerId(1),
                SubscriptionId(s),
                ResourceGroupId(s * rgs_per_sub + r),
            ));
        }
    }
    p
}

/// A fleet where the signaling customer is small (9 profiles) and the
/// rest of the table is filler: isolates publish cost from Algorithm-1
/// fan-out, so any scaling left is the publish itself.
fn build_fleet_personalizer(filler_customers: u32, rgs_per_customer: u32) -> Personalizer {
    let mut p = build_personalizer(3, 3);
    for cust in 0..filler_customers {
        for r in 0..rgs_per_customer {
            p.register(ResourcePath::new(
                CustomerId(1000 + cust),
                SubscriptionId(0),
                ResourceGroupId(r),
            ));
        }
    }
    p
}

fn bench_apply_signal(c: &mut Criterion) {
    let mut group = c.benchmark_group("stage3/apply_signal");
    for (subs, rgs) in [(3u32, 3u32), (10, 10), (50, 20), (100, 100)] {
        let profiles = subs * rgs;
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{profiles}_rgs")),
            &(subs, rgs),
            |b, &(subs, rgs)| {
                let mut p = build_personalizer(subs, rgs);
                let signal = SatisfactionSignal::new(
                    ResourcePath::new(CustomerId(1), SubscriptionId(0), ResourceGroupId(0)),
                    ServerOffering::GeneralPurpose,
                    1.0,
                )
                .unwrap();
                b.iter(|| p.apply_signal(black_box(&signal)));
            },
        );
    }
    group.finish();
}

/// Apply-then-publish for one small signal against ever-larger resident
/// tables. Under the old full-flatten publisher this scaled with total
/// profile count; the epoch/delta publisher keeps it flat (O(keys the
/// signal touched), here 9).
fn bench_signal_publish(c: &mut Criterion) {
    let mut group = c.benchmark_group("stage3/signal_publish");
    for (fillers, rgs) in [(0u32, 0u32), (100, 10), (100, 100)] {
        let total = 9 + fillers * rgs;
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{total}_profiles")),
            &(fillers, rgs),
            |b, &(fillers, rgs)| {
                let store =
                    ShardedLambdaStore::new(build_fleet_personalizer(fillers, rgs), 1).unwrap();
                let path = ResourcePath::new(CustomerId(1), SubscriptionId(0), ResourceGroupId(0));
                let signal =
                    SatisfactionSignal::new(path, ServerOffering::GeneralPurpose, 1.0).unwrap();
                b.iter(|| {
                    store.apply_signal(black_box(&signal));
                    store.publish_delta_for(&path);
                });
            },
        );
    }
    group.finish();
}

fn bench_adjust(c: &mut Criterion) {
    let mut p = build_personalizer(3, 3);
    let path = ResourcePath::new(CustomerId(1), SubscriptionId(0), ResourceGroupId(0));
    p.set_lambda(path, ServerOffering::GeneralPurpose, 1.3);
    let catalog = SkuCatalog::azure_postgres(ServerOffering::GeneralPurpose);
    c.bench_function("stage3/lambda_adjust", |b| {
        b.iter(|| {
            p.adjust(
                black_box(4.0),
                black_box(&path),
                ServerOffering::GeneralPurpose,
                &catalog,
            )
        })
    });
}

fn bench_lambda_lookup(c: &mut Criterion) {
    let store = Arc::new(ShardedLambdaStore::new(build_personalizer(100, 100), 1).unwrap());
    let hot = ResourcePath::new(CustomerId(1), SubscriptionId(0), ResourceGroupId(0));
    c.bench_function("stage3/lambda_snapshot_lookup", |b| {
        b.iter(|| {
            store
                .snapshot_for(black_box(&hot))
                .lambda(black_box(&hot), ServerOffering::GeneralPurpose)
        })
    });

    // The serving-path scenario: readers pin snapshots while the λ-writer
    // keeps applying signals and republishing the 10k-profile table.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        let signal = SatisfactionSignal::new(hot, ServerOffering::GeneralPurpose, 1.0).unwrap();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                store.apply_signal(&signal);
                store.publish_delta_for(&hot);
            }
        })
    };
    c.bench_function("stage3/lambda_lookup_during_publish", |b| {
        b.iter(|| {
            store
                .snapshot_for(black_box(&hot))
                .lambda(black_box(&hot), ServerOffering::GeneralPurpose)
        })
    });
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
}

criterion_group!(
    benches,
    bench_apply_signal,
    bench_signal_publish,
    bench_adjust,
    bench_lambda_lookup
);
criterion_main!(benches);
