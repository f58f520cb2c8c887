//! `lorentz-perfbench` — the repository's benchmark for the serving and
//! training paths.
//!
//! ```text
//! lorentz-perfbench --workload serve_hier|serve_te_feedback|train_100k
//!     --seed N --seconds S --trace 0|1 --lorentz PATH/TO/lorentz
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics instead, timed by spans
//! the benchmark records around each layer's public call. Every metric is
//! printed on its own line with unit, direction and sample count; the last
//! stdout line is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`). Scratch files (the served model, WALs, span dumps) go
//! under `.perfbench/` in the working directory. `perfbench/run.py` builds
//! the server and this binary and is the entry point `BENCHMARK.json`
//! names.

mod gen;
mod host;
mod load;
mod oracle;
mod replay;
mod report;
mod serve;
mod spans;
mod stats;
mod train;

use std::path::PathBuf;

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "p50_us",
    "sat_qps",
    "cpu_us_per_req",
    "rss_mb",
    "train_s",
    "holdout_log2_rmse",
];

/// The per-layer metrics every workload reports with `--trace 1`.
pub const PER_LAYER: &[&str] = &[
    "p99_us",
    "wire.parse_ns.p50",
    "wire.parse_ns.p99",
    "wire.encode_ns.p50",
    "wire.encode_ns.p99",
    "wire.req_bytes",
    "wire.resp_bytes",
    "engine.submit_ns.p50",
    "engine.submit_ns.p99",
    "engine.answer_us.p50",
    "engine.answer_us.p99",
    "engine.wait_us.p50",
    "engine.wait_us.p99",
    "engine.degraded_frac",
    "engine.rejected_frac",
    "server.engine_e2e_us.p50",
    "server.engine_e2e_us.p99",
    "net.unattributed_us",
    "recommend.hier_ns.p50",
    "recommend.hier_ns.p99",
    "recommend.te_ns.p50",
    "recommend.te_ns.p99",
    "personalizer.snapshot_ns.p50",
    "personalizer.snapshot_ns.p99",
    "personalizer.apply_publish_us.p50",
    "personalizer.apply_publish_us.p99",
    "personalizer.delta_keys",
    "personalizer.nondefault_lambda_frac",
    "wal.append_us.p50",
    "wal.append_us.p99",
    "model.load_s",
    "model.bytes",
    "loadgen.lag_p99_us",
    "fleet.ingest_ms",
    "telemetry.pack_ms",
    "rightsizer.sweep_ms",
    "hierarchy.learn_ms",
    "provisioner.hier_fit_ms",
    "ml.te_fit_ms",
    "provisioner.te_fit_ms",
    "model.save_ms",
    "train.unattributed_ms",
    "trace.overhead_p50_us",
    "trace.spans",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    lorentz: PathBuf,
}

fn usage(why: &str) -> ! {
    eprintln!(
        "error: {why}\nusage: lorentz-perfbench --workload serve_hier|serve_te_feedback|train_100k \
         --seed N --seconds S --trace 0|1 --lorentz PATH"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut lorentz) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--seed is a whole number")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--seconds is a number")),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace is 0 or 1"),
                });
            }
            "--lorentz" => lorentz = Some(PathBuf::from(value)),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or(10.0_f64).max(1.0),
        trace: trace.unwrap_or(false),
        lorentz: lorentz.unwrap_or_else(|| usage("--lorentz is required")),
    }
}

fn main() {
    let args = parse_args();
    let dir = PathBuf::from(".perfbench").join(format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let mut out = report::Outcome::default();
    let ran = match args.workload.as_str() {
        "serve_hier" => serve::run(
            &serve::SERVE_HIER,
            args.seed,
            args.seconds,
            args.trace,
            &args.lorentz,
            &dir,
            &mut out,
        ),
        "serve_te_feedback" => serve::run(
            &serve::SERVE_TE_FEEDBACK,
            args.seed,
            args.seconds,
            args.trace,
            &args.lorentz,
            &dir,
            &mut out,
        ),
        "train_100k" => train::run_train(args.seed, args.seconds, args.trace, &dir, &mut out),
        other => usage(&format!("unknown workload {other}")),
    };
    // Keep only the small artifacts a reader may want: spans and the
    // server's metrics snapshot.
    if let Ok(entries) = std::fs::read_dir(&dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            if name != "spans.jsonl" && name != "server-metrics.json" {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
    if let Err(e) = ran {
        eprintln!("error: {} failed: {e}", args.workload);
        std::process::exit(1);
    }
    for problem in &out.problems {
        eprintln!("check failed: {problem}");
    }
    println!("{}", host::stamp());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in out.lines() {
        println!("{line}");
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", out.json(names));
}
