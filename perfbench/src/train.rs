//! Training: the timed `train_with_threads` + `to_json` call, the
//! per-stage replay behind the `train`-layer metrics, and the held-out
//! accuracy check.

use crate::gen::{self, ServerRow};
use crate::spans::Tracer;
use lorentz_core::fleet::FleetDataset;
use lorentz_core::{
    HierarchicalProvisioner, LorentzConfig, LorentzPipeline, ModelKind, RecommendRequest,
    Rightsizer, Stage1Scratch, TargetEncodingProvisioner, TrainedLorentz,
};
use lorentz_hierarchy::learn_hierarchy;
use lorentz_ml::TargetEncoder;
use lorentz_telemetry::TraceColumns;
use lorentz_types::{ServerOffering, SkuCatalog};
use std::time::{Duration, Instant};

/// The configuration `lorentz train` uses when given no flags.
pub fn config() -> LorentzConfig {
    let mut config = LorentzConfig::paper_defaults();
    config.target_encoding.boosting.n_trees = 100;
    config.hierarchical.min_bucket = 10;
    config
}

/// One timed training: `train_with_threads` at `threads` for both stage
/// pools, then `to_json` — what `lorentz train` does between loading the
/// fleet and writing the file.
pub fn train_timed(fleet: &FleetDataset, threads: usize) -> (TrainedLorentz, String, Duration) {
    let started = Instant::now();
    let trained = LorentzPipeline::new(config())
        .and_then(|p| p.train_with_threads(fleet, threads, threads))
        .expect("generated fleet trains");
    let json = trained.to_json().expect("deployment serializes");
    (trained, json, started.elapsed())
}

/// Replays the training stages through each layer's public call, one span
/// per call, in the pipeline's order and at its thread counts: the packed
/// columns, the Stage-1 sweep over `threads` chunked workers, then the
/// per-offering Stage-2 fits in waves of `threads` scoped workers. The hierarchy
/// learner and the target encoder run inside those fits; they are timed
/// again on their own afterwards (`hierarchy.learn`, `ml.te_fit`) so their
/// share of the fits shows. Returns the stage spans' total (ms) that
/// `train.unattributed_ms` subtracts from `train_s`: pack + sweep +
/// Stage-2 wall + save.
pub fn replay_stages(
    fleet: &FleetDataset,
    trained: &TrainedLorentz,
    threads: usize,
    tracer: &mut Tracer,
) -> f64 {
    let config = config();
    let catalogs: Vec<SkuCatalog> = ServerOffering::ALL
        .iter()
        .map(|&o| SkuCatalog::azure_postgres(o))
        .collect();
    let sizer = Rightsizer::new(&config.rightsizer).expect("default rightsizer");
    let n = fleet.len();
    let columns = tracer.time("telemetry.pack", None, None, || {
        TraceColumns::from_traces(fleet.traces())
    });
    let chunk = n.div_ceil(threads.max(1));
    let labels: Vec<f64> = tracer.time("rightsizer.sweep", None, None, || {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads.max(1))
                .map(|w| {
                    let (columns, sizer, catalogs) = (&columns, &sizer, &catalogs);
                    scope.spawn(move || {
                        let mut scratch = Stage1Scratch::default();
                        (w * chunk..((w + 1) * chunk).min(n))
                            .map(|i| {
                                let catalog = &catalogs[fleet.offerings()[i] as usize];
                                sizer
                                    .rightsize_columns(
                                        columns.trace(i),
                                        &fleet.user_capacities()[i],
                                        catalog,
                                        &mut scratch,
                                    )
                                    .expect("generated trace rightsizes")
                                    .capacity
                                    .primary()
                            })
                            .collect::<Vec<f64>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        })
    });
    drop(columns);
    let jobs: Vec<(ServerOffering, Vec<usize>)> = ServerOffering::ALL
        .iter()
        .map(|&o| (o, fleet.rows_for_offering(o)))
        .filter(|(_, rows)| !rows.is_empty())
        .collect();
    let tables: Vec<_> = jobs
        .iter()
        .map(|(_, rows)| {
            let table = fleet.profiles().subset(rows);
            let sub_labels: Vec<f64> = rows.iter().map(|&r| labels[r]).collect();
            (table, sub_labels)
        })
        .collect();
    // Stage 2 as the pipeline runs it: offerings in waves of `threads`
    // concurrent workers, each fitting both models.
    let stage2_start = tracer.now();
    let mut worker_spans: Vec<Tracer> = Vec::new();
    let work: Vec<_> = jobs.iter().zip(&tables).collect();
    for wave in work.chunks(threads.max(1)) {
        worker_spans.extend(std::thread::scope(|scope| {
            let handles: Vec<_> = wave
                .iter()
                .map(|((offering, _), (table, sub_labels))| {
                    let mut local = Tracer::new(tracer.epoch());
                    let (config, catalog) = (&config, &catalogs[*offering as usize]);
                    scope.spawn(move || {
                        local.time("provisioner.hier_fit", None, None, || {
                            HierarchicalProvisioner::fit(
                                table,
                                sub_labels,
                                catalog,
                                config.hierarchical,
                            )
                            .expect("hierarchical fit")
                        });
                        local.time("provisioner.te_fit", None, None, || {
                            TargetEncodingProvisioner::fit(
                                table,
                                sub_labels,
                                catalog,
                                config.target_encoding,
                            )
                            .expect("target-encoding fit")
                        });
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fit worker panicked"))
                .collect::<Vec<_>>()
        }));
    }
    let stage2_end = tracer.now();
    let stage2 = tracer.record("train.stage2", stage2_start, stage2_end, None, None);
    for local in worker_spans {
        let base = tracer.len();
        tracer.absorb(local);
        tracer.reparent(base, stage2);
    }
    let te = config.target_encoding;
    for (table, sub_labels) in &tables {
        tracer.time("hierarchy.learn", None, None, || {
            learn_hierarchy(table, &config.hierarchical.hierarchy).expect("hierarchy learns")
        });
        let log2 = lorentz_ml::transform::xi_slice(sub_labels).expect("positive labels");
        tracer.time("ml.te_fit", None, None, || {
            TargetEncoder::fit_with_threads(
                table,
                &log2,
                te.statistic,
                te.missing,
                te.smoothing,
                threads,
            )
            .expect("target encoder fits")
        });
    }
    tracer.time("model.save", None, None, || {
        trained.to_json().expect("serializes")
    });
    [
        "telemetry.pack",
        "rightsizer.sweep",
        "train.stage2",
        "model.save",
    ]
    .iter()
    .map(|name| tracer.total(name))
    .sum::<f64>()
        / 1e6
}

/// Held-out accuracy: RMSE in log2 space of the hierarchical Stage-2
/// capacity against the Stage-1 rightsized capacity of each held-out row.
pub fn holdout_log2_rmse(trained: &TrainedLorentz, holdout: &[ServerRow]) -> f64 {
    let mut sum = 0.0;
    for row in holdout {
        let catalog = trained.catalog(row.offering).expect("catalog");
        let rightsized = trained
            .rightsizer()
            .rightsize(&gen::trace(row), &row.user_capacity, catalog)
            .expect("held-out trace rightsizes")
            .capacity
            .primary();
        let request = RecommendRequest {
            profile: row.profile.iter().map(|v| v.as_deref()).collect(),
            offering: row.offering,
            path: row.path,
        };
        let stage2 = trained
            .recommend(&request, ModelKind::Hierarchical)
            .expect("held-out row recommends")
            .stage2_capacity;
        sum += (stage2 / rightsized).log2().powi(2);
    }
    (sum / holdout.len() as f64).sqrt()
}

/// Traces in the train workload, matching `BENCH_train.json`'s
/// `train/e2e/100000`.
const TRAIN_SERVERS: usize = 100_000;
/// 16,384 resource groups → 1,024 customers in the 100k fleet.
const TRAIN_LEAVES: u64 = 16_384;
/// Rounds run while the run's time lasts, but at least this many, so the
/// medians rest on several calls even on a slow host.
const MIN_ROUNDS: usize = 3;
/// Fleet ingests per round; `setup_s` is the median over all of them.
const INGESTS_PER_ROUND: usize = 3;

/// `train_100k`: ingest, train, save, and score a 100k-trace fleet
/// in-process. Rounds of fleet ingests and one timed training each run
/// until `seconds` have passed, so a slow stretch of the shared host
/// weighs a little on every metric rather than fully on one.
///
/// The workload serves no requests, yet every end-to-end metric is
/// reported on every workload, so the request-shaped ones are taken from
/// the training call with each trace as one request: `p50_us` is the
/// median over calls of wall time per trace, `sat_qps` traces trained per
/// second (median over calls), `cpu_us_per_req` the process's CPU over
/// the calls per trace trained.
pub fn run_train(
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: &std::path::Path,
    out: &mut crate::report::Outcome,
) -> Result<(), String> {
    use crate::report::Unit;
    use crate::stats::median;
    let threads = crate::host::nproc();
    let (rows, holdout) = gen::split_holdout(gen::servers(seed, TRAIN_SERVERS, TRAIN_LEAVES));
    let traces = rows.len() as f64;
    let pid = std::process::id();
    let cpu_now = || crate::host::cpu_seconds(pid).map_err(|e| e.to_string());

    let started = Instant::now();
    let mut fleet = None;
    let mut model: Option<(TrainedLorentz, String)> = None;
    let (mut ingests, mut train_s, mut cpu) = (Vec::new(), Vec::new(), 0.0);
    while train_s.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        for _ in 0..INGESTS_PER_ROUND {
            drop(fleet.take());
            let (f, took) = gen::ingest(&rows);
            ingests.push(took.as_secs_f64());
            fleet = Some(f);
        }
        let fleet = fleet.as_ref().expect("ingested");
        let cpu_before = cpu_now()?;
        let (trained, json, took) = train_timed(fleet, threads);
        cpu += cpu_now()? - cpu_before;
        train_s.push(took.as_secs_f64());
        model.get_or_insert((trained, json));
    }
    let fleet = fleet.expect("at least one round");
    let calls = train_s.len();
    out.metric("setup_s", median(&ingests), Unit::S, Some(ingests.len()));
    out.metric("train_s", median(&train_s), Unit::S, Some(calls));
    out.metric(
        "p50_us",
        median(&train_s) * 1e6 / traces,
        Unit::Us,
        Some(calls),
    );
    let rates: Vec<f64> = train_s.iter().map(|s| traces / s).collect();
    out.metric("sat_qps", median(&rates), Unit::PerS, Some(calls));
    out.metric(
        "cpu_us_per_req",
        cpu * 1e6 / (traces * calls as f64),
        Unit::Us,
        Some(calls),
    );
    let (trained, json) = model.expect("at least one round");
    let (_, single, _) = train_timed(&fleet, 1);
    out.attempted += (ingests.len() + calls + 1) as u64;
    if single != json {
        out.fail(
            1,
            "to_json differs between 1 and nproc training threads".to_owned(),
        );
    }
    drop((single, json));
    out.metric(
        "holdout_log2_rmse",
        holdout_log2_rmse(&trained, &holdout),
        Unit::Log2,
        Some(holdout.len()),
    );
    out.metric(
        "rss_mb",
        crate::host::peak_rss_mib(pid).map_err(|e| e.to_string())?,
        Unit::MiB,
        None,
    );

    if trace {
        let mut tracer = Tracer::new(Instant::now());
        crate::serve::trace_train_workload(
            seed,
            &rows,
            &fleet,
            &trained,
            median(&ingests),
            median(&train_s),
            threads,
            dir,
            &mut tracer,
            out,
        )?;
        tracer
            .write_jsonl(&dir.join("spans.jsonl"))
            .map_err(|e| format!("write spans: {e}"))?;
    }
    Ok(())
}
