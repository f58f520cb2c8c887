//! Training-path benchmarks behind the pinned `BENCH_train.json` baseline:
//! Stage-1 rightsizing at fleet scale, HALO hierarchy learning, the TE+GBT
//! fit, and end-to-end `train()`.
//!
//! The default sweep runs at 100k traces; set `LORENTZ_TRAIN_BENCH_1M=1` to
//! also run the (memory-hungry, minutes-long) 1M-trace Stage-1 sweep.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use lorentz_bench::train_fixture;
use lorentz_core::fleet::FleetDataset;
use lorentz_core::pipeline::LorentzPipeline;
use lorentz_core::{LorentzConfig, Rightsizer, RightsizerConfig, Stage1Scratch};
use lorentz_hierarchy::{learn_hierarchy, HierarchyConfig};
use lorentz_ml::TargetEncoder;
use lorentz_telemetry::TraceColumns;
use lorentz_types::{ServerOffering, SkuCatalog};

/// One day of 5-minute bins — the paper's Stage-1 granularity.
const BINS: usize = 288;
/// The default benchmark scale.
const SCALE: usize = 100_000;

fn quick_config() -> LorentzConfig {
    // Same reduced ensemble as the train_determinism golden: big enough to
    // exercise every stage, small enough to keep e2e iterations in seconds.
    let mut config = LorentzConfig::paper_defaults();
    config.target_encoding.boosting.n_trees = 15;
    config.hierarchical.min_bucket = 3;
    config
}

/// Sequential per-trace Stage-1 through the public one-trace entry point:
/// `Rightsizer::rightsize` packs each trace and runs the columnar optimizer
/// with fresh buffers. The fleet sweep below differs only in reusing one
/// pack buffer and one scratch per worker. The name is kept so the pinned
/// pre-columnar `train/stage1_row` median stays comparable.
fn stage1_row(c: &mut Criterion) {
    let mut group = c.benchmark_group("train/stage1_row");
    group.sample_size(10);
    let fleet = train_fixture(SCALE, BINS);
    let sizer = Rightsizer::new(&RightsizerConfig::default()).unwrap();
    let catalogs: Vec<SkuCatalog> = ServerOffering::ALL
        .iter()
        .map(|&o| SkuCatalog::azure_postgres(o))
        .collect();
    group.bench_with_input(BenchmarkId::from_parameter(SCALE), &fleet, |b, fleet| {
        b.iter(|| {
            let mut labels = Vec::with_capacity(fleet.len());
            for i in 0..fleet.len() {
                let catalog = &catalogs[fleet.offerings()[i] as usize];
                let outcome = sizer
                    .rightsize(&fleet.traces()[i], &fleet.user_capacities()[i], catalog)
                    .unwrap();
                labels.push(outcome.capacity.primary());
            }
            black_box(labels)
        })
    });
    group.finish();
}

/// One Stage-1 sweep, per-trace packing included — the same work
/// [`LorentzPipeline::train`] performs for Stage 1 at the given thread
/// count (`0` = one worker per core).
fn columnar_sweep(
    fleet: &FleetDataset,
    sizer: &Rightsizer,
    catalogs: &[SkuCatalog],
    max_threads: usize,
) -> Vec<f64> {
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
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                scope.spawn(move || {
                    let lo = w * chunk;
                    let hi = ((w + 1) * chunk).min(n);
                    let mut scratch = Stage1Scratch::default();
                    let mut one = TraceColumns::from_traces(&[]);
                    (lo..hi)
                        .map(|i| {
                            let catalog = &catalogs[fleet.offerings()[i] as usize];
                            one.pack_one(&fleet.traces()[i]);
                            sizer
                                .rightsize_columns(
                                    one.trace(0),
                                    &fleet.user_capacities()[i],
                                    catalog,
                                    &mut scratch,
                                )
                                .unwrap()
                                .capacity
                                .primary()
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("bench worker panicked"))
            .collect()
    })
}

/// Columnar Stage-1 on a single worker: the algorithmic (sorted fast path +
/// batched candidate sweep) speedup, isolated from parallelism.
fn stage1_columnar(c: &mut Criterion) {
    let mut group = c.benchmark_group("train/stage1_columnar");
    group.sample_size(10);
    let fleet = train_fixture(SCALE, BINS);
    let sizer = Rightsizer::new(&RightsizerConfig::default()).unwrap();
    let catalogs: Vec<SkuCatalog> = ServerOffering::ALL
        .iter()
        .map(|&o| SkuCatalog::azure_postgres(o))
        .collect();
    group.bench_with_input(BenchmarkId::from_parameter(SCALE), &fleet, |b, fleet| {
        b.iter(|| black_box(columnar_sweep(fleet, &sizer, &catalogs, 1)))
    });
    group.finish();
}

/// The full Stage-1 sweep as `train()` runs it: columnar + one worker per
/// core. This is the "after" row paired against `train/stage1_row`.
fn stage1_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("train/stage1_parallel");
    group.sample_size(10);
    let fleet = train_fixture(SCALE, BINS);
    let sizer = Rightsizer::new(&RightsizerConfig::default()).unwrap();
    let catalogs: Vec<SkuCatalog> = ServerOffering::ALL
        .iter()
        .map(|&o| SkuCatalog::azure_postgres(o))
        .collect();
    group.bench_with_input(BenchmarkId::from_parameter(SCALE), &fleet, |b, fleet| {
        b.iter(|| black_box(columnar_sweep(fleet, &sizer, &catalogs, 0)))
    });
    group.finish();
}

fn hierarchy(c: &mut Criterion) {
    let mut group = c.benchmark_group("train/hierarchy");
    group.sample_size(10);
    let fleet = train_fixture(SCALE, 2);
    let cfg = HierarchyConfig::default();
    group.bench_with_input(
        BenchmarkId::from_parameter(SCALE),
        fleet.profiles(),
        |b, table| b.iter(|| learn_hierarchy(black_box(table), &cfg).unwrap()),
    );
    group.finish();
}

fn te_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("train/te_fit");
    group.sample_size(10);
    let fleet = train_fixture(SCALE, 2);
    let labels: Vec<f64> = fleet
        .user_capacities()
        .iter()
        .map(|c| c.primary())
        .collect();
    let te = lorentz_core::provisioner::TargetEncodingConfig::default();
    group.bench_with_input(
        BenchmarkId::from_parameter(SCALE),
        fleet.profiles(),
        |b, table| {
            b.iter(|| {
                TargetEncoder::fit(
                    black_box(table),
                    &labels,
                    te.statistic,
                    te.missing,
                    te.smoothing,
                )
                .unwrap()
            })
        },
    );
    group.finish();
}

fn te_gbt_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("train/te_gbt_fit");
    group.sample_size(10);
    let fleet = train_fixture(SCALE, 2);
    let labels: Vec<f64> = fleet
        .user_capacities()
        .iter()
        .map(|c| c.primary())
        .collect();
    let catalog = SkuCatalog::azure_postgres(ServerOffering::GeneralPurpose);
    let mut te = lorentz_core::provisioner::TargetEncodingConfig::default();
    te.boosting.n_trees = 15;
    group.bench_with_input(
        BenchmarkId::from_parameter(SCALE),
        fleet.profiles(),
        |b, table| {
            b.iter(|| {
                lorentz_core::provisioner::TargetEncodingProvisioner::fit(
                    black_box(table),
                    &labels,
                    &catalog,
                    te,
                )
                .unwrap()
            })
        },
    );
    group.finish();
}

fn e2e_train(c: &mut Criterion) {
    let mut group = c.benchmark_group("train/e2e");
    group.sample_size(10);
    let fleet = train_fixture(SCALE, BINS);
    group.bench_with_input(BenchmarkId::from_parameter(SCALE), &fleet, |b, fleet| {
        b.iter(|| {
            LorentzPipeline::new(quick_config())
                .unwrap()
                .train(black_box(fleet))
                .unwrap()
        })
    });
    group.finish();
}

/// Opt-in 1M-trace Stage-1 sweep (shorter traces to bound memory).
fn stage1_row_1m(c: &mut Criterion) {
    if std::env::var("LORENTZ_TRAIN_BENCH_1M").is_err() {
        return;
    }
    let mut group = c.benchmark_group("train/stage1_row");
    group.sample_size(10);
    let fleet = train_fixture(1_000_000, 48);
    let sizer = Rightsizer::new(&RightsizerConfig::default()).unwrap();
    let catalogs: Vec<SkuCatalog> = ServerOffering::ALL
        .iter()
        .map(|&o| SkuCatalog::azure_postgres(o))
        .collect();
    group.bench_with_input(
        BenchmarkId::from_parameter(1_000_000),
        &fleet,
        |b, fleet| {
            b.iter(|| {
                let mut labels = Vec::with_capacity(fleet.len());
                for i in 0..fleet.len() {
                    let catalog = &catalogs[fleet.offerings()[i] as usize];
                    let outcome = sizer
                        .rightsize(&fleet.traces()[i], &fleet.user_capacities()[i], catalog)
                        .unwrap();
                    labels.push(outcome.capacity.primary());
                }
                black_box(labels)
            })
        },
    );
    group.finish();
}

/// Opt-in 1M-trace columnar parallel sweep, paired with `stage1_row_1m`.
fn stage1_columnar_1m(c: &mut Criterion) {
    if std::env::var("LORENTZ_TRAIN_BENCH_1M").is_err() {
        return;
    }
    let mut group = c.benchmark_group("train/stage1_parallel");
    group.sample_size(10);
    let fleet = train_fixture(1_000_000, 48);
    let sizer = Rightsizer::new(&RightsizerConfig::default()).unwrap();
    let catalogs: Vec<SkuCatalog> = ServerOffering::ALL
        .iter()
        .map(|&o| SkuCatalog::azure_postgres(o))
        .collect();
    group.bench_with_input(
        BenchmarkId::from_parameter(1_000_000),
        &fleet,
        |b, fleet| b.iter(|| black_box(columnar_sweep(fleet, &sizer, &catalogs, 0))),
    );
    group.finish();
}

criterion_group!(
    benches,
    stage1_row,
    stage1_row_1m,
    stage1_columnar,
    stage1_parallel,
    stage1_columnar_1m,
    hierarchy,
    te_fit,
    te_gbt_fit,
    e2e_train
);
criterion_main!(benches);
