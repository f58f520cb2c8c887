//! The serving workloads: the real `lorentz serve --listen` process under
//! an open-loop and a closed-loop TCP load, observed from outside.

use crate::gen::{self, Frame, StreamShape, Template};
use crate::host;
use crate::load::{self, Reply};
use crate::oracle::{self, Expected};
use crate::replay;
use crate::report::{Outcome, Unit};
use crate::spans::Tracer;
use crate::stats::{median, percentile_of, windowed};
use crate::train;
use lorentz_core::{ModelKind, TrainedLorentz};
use lorentz_serve::ServeConfig;
use serde::Value;
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Size of the served model's JSON. `lorentz serve` parses the model with
/// the vendored JSON reader, whose string scan re-validates the rest of
/// the buffer per character, so load time grows roughly with the square
/// of the file size (a 2,000-server, 1 MB model takes over 8 s to start).
/// The model is therefore sized by bytes rather than by servers (see
/// [`served_model`]): at a fixed server count its size swung by a quarter
/// from seed to seed, and its load time by half. At this size a start
/// takes about 0.45 s on a 2-core host.
const MODEL_BYTES: usize = 220_000;
/// The served model's training fleet starts at this many servers and
/// grows by [`SIZE_STEP`] per step.
const MIN_SERVED: usize = 128;
const SIZE_STEP: usize = 8;
/// The most servers the served model may be trained on.
const MAX_SERVED: usize = 1024;
/// Resource groups the serve workloads' profiles spread over: 2 customers,
/// so each (customer, offering) pair holds far more than `min_bucket`
/// (10) of the served model's 300–460 training servers and its held-out
/// error is steady across seeds. Over 128 resource groups (8 customers)
/// most pairs held about 8 servers, and the error swung from 0.46 to 0.81
/// with the seed.
const SERVE_LEAVES: u64 = 32;
/// Servers of the same seed's fleet, after the served model's, that score
/// it (`holdout_log2_rmse`). A log2 error is nearly always a whole SKU
/// step, so the figure is the root of the share of rows a step off;
/// 5,000 rows pin that share to about ±1%.
const HOLDOUT_ROWS: usize = 5_000;
/// Distinct request profiles drawn from the training vocabulary.
const TEMPLATES: usize = 2048;
/// Closed-loop frames cycled by the saturation phase.
const POOL: usize = 32_768;
/// Frames in flight per connection in the closed loop.
const WINDOW: usize = 8;

/// One serving workload.
pub struct ServeWorkload {
    pub kind: ModelKind,
    pub wal: bool,
    pub shards: usize,
    pub shape: StreamShape,
    /// The open-loop rate (frames/s), pinned near half the saturation
    /// throughput measured at the seed commit on the reference host.
    pub rate: f64,
}

pub const SERVE_HIER: ServeWorkload = ServeWorkload {
    kind: ModelKind::Hierarchical,
    wal: false,
    shards: 8,
    shape: StreamShape {
        feedback_frac: 0.005,
        missing_frac: 0.05,
        unseen_frac: 0.05,
        hot_customers: 0,
        hot_read_frac: 0.0,
    },
    rate: 5000.0,
};

pub const SERVE_TE_FEEDBACK: ServeWorkload = ServeWorkload {
    kind: ModelKind::TargetEncoding,
    wal: true,
    shards: 8,
    shape: StreamShape {
        feedback_frac: 0.2,
        missing_frac: 0.05,
        unseen_frac: 0.05,
        hot_customers: 300,
        hot_read_frac: 0.5,
    },
    rate: 8000.0,
};

impl ServeWorkload {
    fn kind_flag(&self) -> &'static str {
        match self.kind {
            ModelKind::Hierarchical => "hierarchical",
            ModelKind::TargetEncoding => "target-encoding",
        }
    }

    fn engine_config(&self) -> ServeConfig {
        ServeConfig {
            kind: self.kind,
            shards: self.shards,
            ..ServeConfig::default()
        }
    }
}

/// A running `lorentz serve --listen` child. Dropping it kills the
/// process if it is still alive and reaps it.
struct Server {
    child: Child,
    addr: String,
    setup: Duration,
    stdout: Option<std::thread::JoinHandle<String>>,
    stderr: Option<std::thread::JoinHandle<String>>,
}

impl Server {
    /// Spawns the server and waits for its `listening on` line; `setup`
    /// is spawn → that line, which includes the model load.
    fn start(bin: &Path, args: &[String]) -> Result<Self, String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stderr.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("server exited before listening".to_owned());
            }
            if let Some(rest) = line.strip_prefix("listening on ") {
                break rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_owned();
            }
        };
        let setup = started.elapsed();
        let mut stdout = child.stdout.take().expect("piped stdout");
        Ok(Self {
            child,
            addr,
            setup,
            stdout: Some(std::thread::spawn(move || {
                let mut text = String::new();
                let _ = stdout.read_to_string(&mut text);
                text
            })),
            stderr: Some(std::thread::spawn(move || {
                let mut text = String::new();
                let _ = stderr.read_to_string(&mut text);
                text
            })),
        })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends the drain frame, waits for the process to exit, and returns
    /// its stdout (the `--json` report).
    fn drain(mut self) -> Result<String, String> {
        let ack = load::control(&self.addr, b"{\"op\": \"drain\"}")
            .map_err(|e| format!("drain frame failed: {e}"))?;
        if !String::from_utf8_lossy(&ack).contains("drain") {
            return Err(format!(
                "unexpected drain reply {}",
                String::from_utf8_lossy(&ack)
            ));
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("server did not exit after drain".to_owned()),
            }
        };
        let stdout = self
            .stdout
            .take()
            .expect("stdout reader")
            .join()
            .unwrap_or_default();
        let stderr = self
            .stderr
            .take()
            .expect("stderr reader")
            .join()
            .unwrap_or_default();
        if !status.success() {
            return Err(format!("server exited with {status}: {stderr}"));
        }
        Ok(stdout)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        for handle in [self.stdout.take(), self.stderr.take()]
            .into_iter()
            .flatten()
        {
            let _ = handle.join();
        }
    }
}

/// Reply bookkeeping across phases.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub acks: u64,
    pub requests_sent: u64,
    pub problems: Vec<String>,
}

impl Tally {
    fn fail(&mut self, n: u64, why: impl FnOnce() -> String) {
        if n == 0 {
            return;
        }
        self.failed += n;
        if self.problems.len() < 10 {
            self.problems.push(why());
        }
    }
}

/// Everything the oracle needs to judge a reply.
pub struct Judge<'a> {
    pub frames: &'a [Frame],
    pub expected: &'a [Expected],
    /// Customers that get feedback anywhere in the run (their λ moves, so
    /// only their Stage-2 capacity is checked).
    pub fed_back: &'a HashSet<u32>,
}

/// Classifies one connection's replies against the frames it sent
/// (`sent` = frame indices in send order, repeats allowed). Request
/// replies carry the frame index as id; feedback acks carry no id and
/// arrive in send order, so the k-th ack answers the k-th feedback frame.
/// Returns per-reply `(frame index, arrival ns)` for latency accounting.
pub fn classify(
    judge: &Judge<'_>,
    sent: &[usize],
    replies: &[Reply],
    tally: &mut Tally,
) -> Vec<(usize, u64)> {
    let mut feedback_slots = sent
        .iter()
        .copied()
        .filter(|&i| matches!(judge.frames[i], Frame::Feedback { .. }));
    tally.requests_sent += (sent.len()
        - sent
            .iter()
            .filter(|&&i| matches!(judge.frames[i], Frame::Feedback { .. }))
            .count()) as u64;
    let mut timed = Vec::with_capacity(replies.len());
    for reply in replies {
        let text = String::from_utf8_lossy(&reply.bytes);
        let Ok(value) = serde_json::parse(&text) else {
            tally.fail(1, || format!("unparseable reply {text}"));
            continue;
        };
        let id = value.get_field("id").and_then(|v| match v {
            Value::UInt(u) => Some(*u as usize),
            Value::Int(i) => usize::try_from(*i).ok(),
            _ => None,
        });
        if let Some(ack) = value.get_field("ack") {
            let Some(i) = feedback_slots.next() else {
                tally.fail(1, || "ack without a feedback frame".to_owned());
                continue;
            };
            if ack.as_str() == Some("feedback") {
                tally.acks += 1;
                timed.push((i, reply.at_ns));
            } else {
                tally.fail(1, || format!("unexpected ack {text}"));
            }
        } else if let (Some(ok), Some(i)) = (value.get_field("ok"), id) {
            let Some(Frame::Request { template, path }) = judge.frames.get(i) else {
                tally.fail(1, || format!("answer for unknown frame {i}"));
                continue;
            };
            let full = !judge.fed_back.contains(&path.customer.0);
            match oracle::check(&judge.expected[*template], ok, full) {
                Ok(()) => timed.push((i, reply.at_ns)),
                Err(why) => tally.fail(1, || format!("frame {i}: {why}")),
            }
        } else {
            if id.is_none() {
                // An id-less error answers the next feedback frame.
                let _ = feedback_slots.next();
            }
            tally.fail(1, || format!("error reply {text}"));
        }
    }
    tally.attempted += sent.len() as u64;
    tally.fail(sent.len().saturating_sub(replies.len()) as u64, || {
        format!(
            "{} frames unanswered",
            sent.len().saturating_sub(replies.len())
        )
    });
    timed
}

/// The server's `--json` ledger must close against what the client saw.
pub fn check_ledger(report: &Value, tally: &mut Tally) {
    let field = |name: &str| {
        report.get_field(name).and_then(|v| match v {
            Value::UInt(u) => Some(*u),
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        })
    };
    let get = |name: &str| field(name).unwrap_or(u64::MAX);
    let checks = [
        (
            "submitted = accepted + rejected",
            get("submitted"),
            get("accepted").wrapping_add(get("rejected")),
        ),
        ("accepted = answered", get("accepted"), get("answered")),
        (
            "submitted = requests sent",
            get("submitted"),
            tally.requests_sent,
        ),
        ("rejected = 0", get("rejected"), 0),
        (
            "feedback_applied = acks",
            get("feedback_applied"),
            tally.acks,
        ),
        ("frame_errors = 0", get("frame_errors"), 0),
        ("dropped_responses = 0", get("dropped_responses"), 0),
    ];
    for (what, left, right) in checks {
        if left != right {
            tally.fail(left.abs_diff(right).clamp(1, 1 << 32), || {
                format!("ledger: {what} does not hold ({left} vs {right})")
            });
        }
    }
}

fn payloads(frames: &[Frame], templates: &[Template]) -> Vec<Vec<u8>> {
    frames
        .iter()
        .enumerate()
        .map(|(i, f)| f.payload(i as u64, templates))
        .collect()
}

fn fed_back(frames: &[&[Frame]]) -> HashSet<u32> {
    frames
        .iter()
        .flat_map(|f| f.iter())
        .filter_map(|f| match f {
            Frame::Feedback { path, .. } => Some(path.customer.0),
            Frame::Request { .. } => None,
        })
        .collect()
}

/// Trains the served model on the shortest prefix of `rows`, from
/// [`MIN_SERVED`] servers grown [`SIZE_STEP`] at a time, whose JSON
/// reaches [`MODEL_BYTES`]. Returns the prefix, the model and its JSON.
fn served_model(
    rows: &[gen::ServerRow],
    threads: usize,
) -> Result<(&[gen::ServerRow], TrainedLorentz, String), String> {
    for n in (MIN_SERVED..=rows.len().min(MAX_SERVED)).step_by(SIZE_STEP) {
        let (fleet, _) = gen::ingest(&rows[..n]);
        let (trained, json, _) = train::train_timed(&fleet, threads);
        if json.len() >= MODEL_BYTES {
            return Ok((&rows[..n], trained, json));
        }
    }
    Err(format!(
        "no prefix of {} servers makes a {MODEL_BYTES}-byte model",
        rows.len().min(MAX_SERVED)
    ))
}

/// Rounds of an untraced run. Each trains the served model
/// [`TRAINS_PER_ROUND`] times and starts [`STARTS_PER_ROUND`] fresh
/// servers (all timed), then sends open-loop and closed-loop slices to
/// the last of them; `setup_s` and `train_s` are medians over all starts
/// and trainings.
const ROUNDS: usize = 8;
/// Server starts per round. Only the last one takes load; the others are
/// drained as soon as they listen.
const STARTS_PER_ROUND: usize = 3;
/// Trainings of the served model per round (about 10 ms each on a
/// 2-core host).
const TRAINS_PER_ROUND: usize = 4;
/// Length of the slices whose median completion rate is `sat_qps`.
const SAT_SLICE_S: f64 = 0.3;

/// Latencies (ns, from due time, in schedule order) of the recommendation
/// requests among frames `range` of the open-loop stream, and the send
/// lag of every frame; every reply is classified. Feedback acks are
/// checked and counted but not timed: their latency is the λ write path's,
/// and requests queued behind a feedback frame already carry it.
#[allow(clippy::too_many_arguments)]
fn open_phase(
    addr: &str,
    payloads: &[Vec<u8>],
    due: &[u64],
    range: std::ops::Range<usize>,
    conns: usize,
    judge: &Judge<'_>,
    tally: &mut Tally,
    spans: Option<&mut Tracer>,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let first = range.start;
    let slice_due: Vec<u64> = due[range.clone()].iter().map(|d| d - due[first]).collect();
    let run = load::open_loop(
        addr,
        &payloads[range],
        &slice_due,
        conns,
        spans.as_ref().map(|t| t.epoch()),
    )
    .map_err(|e| format!("open loop: {e}"))?;
    let mut by_frame = Vec::with_capacity(slice_due.len());
    for (sent, replies, _) in &run.conns {
        let global: Vec<usize> = sent.iter().map(|i| i + first).collect();
        for (i, at) in classify(judge, &global, replies, tally) {
            if matches!(judge.frames[i], Frame::Request { .. }) {
                by_frame.push((i, at.saturating_sub(slice_due[i - first]) as f64));
            }
        }
    }
    by_frame.sort_unstable_by_key(|(i, _)| *i);
    let latencies = by_frame.into_iter().map(|(_, l)| l).collect();
    let lag: Vec<f64> = run
        .sent_ns
        .iter()
        .zip(&slice_due)
        .filter_map(|(sent, due)| sent.map(|s| s.saturating_sub(*due) as f64))
        .collect();
    if let Some(tracer) = spans {
        for (_, _, conn_spans) in run.conns {
            tracer.absorb(conn_spans);
        }
    }
    Ok((latencies, lag))
}

/// Runs a serving workload. `trace` selects the per-layer run.
pub fn run(
    w: &ServeWorkload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin: &Path,
    dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let threads = host::nproc();
    let conns = threads;
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);

    // The served model, trained on a prefix of the seed's fleet
    // (`train_s` times this call) and saved where the server loads it,
    // then scored on HOLDOUT_ROWS servers past any prefix it may use.
    let mut rows = gen::servers(seed, MAX_SERVED + HOLDOUT_ROWS, SERVE_LEAVES);
    let holdout = rows.split_off(MAX_SERVED);
    let (rows, trained, model_json) = served_model(&rows, threads)?;
    let (fleet, ingest) = gen::ingest(rows);
    let mut train_s = Vec::new();
    out.metric(
        "holdout_log2_rmse",
        train::holdout_log2_rmse(&trained, &holdout),
        Unit::Log2,
        Some(holdout.len()),
    );
    drop(holdout);
    let model_path = dir.join("model.json");
    std::fs::write(&model_path, &model_json).map_err(|e| format!("write model: {e}"))?;

    let shape = &w.shape;
    let templates = gen::templates(seed, rows, TEMPLATES, shape);
    let expected = oracle::expected_answers(&trained, &templates, w.kind)?;
    let pool_frames = gen::frames(seed ^ 0x5A7, POOL, templates.len(), shape);
    let open_secs = 0.7 * seconds;
    let sat_secs = 0.3 * seconds;
    let n_open = (w.rate * open_secs) as usize;
    let open_frames = gen::frames(seed, n_open, templates.len(), shape);
    let due: Vec<u64> = (0..n_open as u64)
        .map(|i| (i as f64 * 1e9 / w.rate) as u64)
        .collect();
    let fed = fed_back(&[&pool_frames, &open_frames]);
    let pool_payloads = payloads(&pool_frames, &templates);
    let open_payloads = payloads(&open_frames, &templates);

    let wal_path = dir.join("feedback.wal");
    let metrics_path = dir.join("server-metrics.json");
    let mut args = vec![
        "serve".to_owned(),
        "--listen".to_owned(),
        "127.0.0.1:0".to_owned(),
        "--json".to_owned(),
        "--shards".to_owned(),
        w.shards.to_string(),
        "--kind".to_owned(),
        w.kind_flag().to_owned(),
        "--model".to_owned(),
        model_path.display().to_string(),
        "--metrics-out".to_owned(),
        metrics_path.display().to_string(),
    ];
    if w.wal {
        args.extend(["--feedback-wal".to_owned(), wal_path.display().to_string()]);
    }

    // Rounds, each on a fresh server (and a fresh WAL): a timed start, an
    // open-loop slice of the stream at the pinned rate, then (untraced
    // runs) a closed-loop slice, then the drain and the ledger check. Interleaving spreads
    // every metric over the whole run, so a slow stretch of the shared
    // host weighs a little on all of them rather than fully on one. The
    // open loop uses half the connections: each needs a writer and a
    // reader thread, and the generator keeps to nproc threads.
    let pool_judge = Judge {
        frames: &pool_frames,
        expected: &expected,
        fed_back: &fed,
    };
    let open_judge = Judge {
        frames: &open_frames,
        expected: &expected,
        fed_back: &fed,
    };
    let open_conns = (conns / 2).max(1);
    let rounds = if trace { 1 } else { ROUNDS };
    let per_round = n_open.div_ceil(rounds);
    let (mut setups, mut rss) = (Vec::new(), Vec::new());
    let (mut latencies, mut lag) = (Vec::new(), Vec::new());
    let (mut cpu, mut answered) = (0.0, 0u64);
    let (mut sat_rates, mut sat_completed) = (Vec::new(), 0u64);
    let mut traced_p50 = None;
    for round in 0..rounds {
        for _ in 0..TRAINS_PER_ROUND {
            train_s.push(train::train_timed(&fleet, threads).2.as_secs_f64());
        }
        let mut tally = Tally::default();
        for _ in 1..STARTS_PER_ROUND {
            let _ = std::fs::remove_file(&wal_path);
            let idle = Server::start(bin, &args)?;
            setups.push(idle.setup.as_secs_f64());
            let report = serde_json::parse(&idle.drain()?)
                .map_err(|e| format!("server --json report: {e}"))?;
            check_ledger(&report, &mut tally);
        }
        let _ = std::fs::remove_file(&wal_path);
        let server = Server::start(bin, &args)?;
        setups.push(server.setup.as_secs_f64());
        let cpu_now = || host::cpu_seconds(server.pid()).map_err(|e| e.to_string());
        let range = round * per_round..((round + 1) * per_round).min(n_open);
        let cpu_before = cpu_now()?;
        let (l, g) = open_phase(
            &server.addr,
            &open_payloads,
            &due,
            range,
            open_conns,
            &open_judge,
            &mut tally,
            None,
        )?;
        cpu += cpu_now()? - cpu_before;
        answered += tally.attempted - tally.failed;
        latencies.extend(l);
        lag.extend(g);
        if trace {
            let mut client = Tracer::new(epoch);
            let (traced, _) = open_phase(
                &server.addr,
                &open_payloads,
                &due,
                0..n_open,
                open_conns,
                &open_judge,
                &mut tally,
                Some(&mut client),
            )?;
            traced_p50 = windowed(&traced, 50.0);
            tracer.absorb(client);
        } else {
            let measure = sat_secs / rounds as f64;
            let sat = load::closed_loop(
                &server.addr,
                &pool_payloads,
                conns,
                WINDOW,
                Duration::from_millis(100),
                Duration::from_secs_f64(measure),
            )
            .map_err(|e| format!("closed loop: {e}"))?;
            for (sent, replies) in &sat.conns {
                classify(&pool_judge, sent, replies, &mut tally);
            }
            sat_rates.extend(sat.slice_rates((measure / SAT_SLICE_S).ceil() as usize));
            sat_completed += sat.completed;
        }
        rss.push(host::peak_rss_mib(server.pid()).map_err(|e| e.to_string())?);
        let report = server.drain()?;
        let report =
            serde_json::parse(&report).map_err(|e| format!("server --json report: {e}"))?;
        check_ledger(&report, &mut tally);
        out.absorb_tally(tally);
    }
    out.metric("setup_s", median(&setups), Unit::S, Some(setups.len()));
    out.metric("train_s", median(&train_s), Unit::S, Some(train_s.len()));
    let p50 = windowed(&latencies, 50.0);
    let p99 = windowed(&latencies, 99.0);
    out.require_metric("p50_us", p50.map(|v| v / 1e3), Unit::Us, latencies.len());
    out.require_metric("p99_us", p99.map(|v| v / 1e3), Unit::Us, latencies.len());
    let lag_p99 = windowed(&lag, 99.0);
    if let Some(Err(why)) = lag_p99.zip(p99).map(|(lag, p99)| load::check_lag(lag, p99)) {
        out.fail(1, why);
    }
    out.metric(
        "cpu_us_per_req",
        cpu * 1e6 / answered.max(1) as f64,
        Unit::Us,
        Some(answered as usize),
    );
    if !trace {
        out.metric(
            "sat_qps",
            median(&sat_rates),
            Unit::PerS,
            Some(sat_completed as usize),
        );
    }
    out.metric("rss_mb", median(&rss), Unit::MiB, Some(rss.len()));

    if trace {
        let loaded = tracer
            .time("model.load", None, None, || {
                TrainedLorentz::from_json(&model_json)
            })
            .map_err(|e| format!("model reload: {e}"))?;
        let metrics =
            std::fs::read_to_string(&metrics_path).map_err(|e| format!("metrics snapshot: {e}"))?;
        let metrics = serde_json::parse(&metrics).map_err(|e| format!("metrics snapshot: {e}"))?;
        let hist = |q: &str| {
            metrics
                .get_field("histograms")
                .and_then(|h| h.get_field("engine.e2e.span_ns"))
                .and_then(|h| h.get_field(q))
                .and_then(|v| match v {
                    Value::UInt(u) => Some(*u as f64),
                    Value::Int(i) => Some(*i as f64),
                    _ => None,
                })
                .ok_or_else(|| format!("no engine.e2e.span_ns {q} in the metrics snapshot"))
        };
        let layers = LayerInputs {
            deployment: Arc::new(loaded),
            kind: w.kind,
            config: w.engine_config(),
            wal: w.wal,
            frames: &open_frames,
            payloads: &open_payloads,
            due: &due,
            templates: &templates,
            model_bytes: model_json.len(),
            client_p50_ns: p50,
            server_e2e_ns: Some((hist("p50")?, hist("p99")?)),
            lag_ns: Some(lag),
        };
        trace_layers(
            &layers,
            &fleet,
            &trained,
            ingest.as_secs_f64(),
            median(&train_s),
            threads,
            dir,
            &mut tracer,
            out,
        )?;
        let overhead = traced_p50.zip(p50).map(|(t, u)| (t - u) / 1e3);
        out.require_metric("trace.overhead_p50_us", overhead, Unit::Us, latencies.len());
        tracer
            .write_jsonl(&dir.join("spans.jsonl"))
            .map_err(|e| format!("write spans: {e}"))?;
    } else {
        out.require_metric(
            "loadgen.lag_p99_us",
            lag_p99.map(|v| v / 1e3),
            Unit::Us,
            n_open,
        );
    }
    Ok(())
}

/// Inputs of the per-layer attribution shared by every workload.
pub struct LayerInputs<'a> {
    pub deployment: Arc<TrainedLorentz>,
    pub kind: ModelKind,
    pub config: ServeConfig,
    pub wal: bool,
    pub frames: &'a [Frame],
    pub payloads: &'a [Vec<u8>],
    pub due: &'a [u64],
    pub templates: &'a [Template],
    pub model_bytes: usize,
    /// The TCP client's p50 (ns) the serving layers are subtracted from;
    /// `None` uses the engine replay's own due → encoded latency, whose
    /// p99 then also stands in for the client's `p99_us`.
    pub client_p50_ns: Option<f64>,
    /// The server's own `engine.e2e.span_ns` p50/p99 (power-of-two
    /// bucket upper bounds); `None` reads the in-process engine's.
    pub server_e2e_ns: Option<(f64, f64)>,
    /// Schedule lag (ns) of the TCP sends; `None` uses the engine
    /// replay's.
    pub lag_ns: Option<Vec<f64>>,
}

/// Runs both in-process replays and the training-stage replay and
/// reports every per-layer metric. Returns the training stage spans'
/// total (ms) that `train.unattributed_ms` subtracts from `train_s`.
#[allow(clippy::too_many_arguments)]
pub fn trace_layers(
    inputs: &LayerInputs<'_>,
    fleet: &lorentz_core::fleet::FleetDataset,
    trained: &TrainedLorentz,
    ingest_s: f64,
    train_s: f64,
    threads: usize,
    dir: &Path,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<f64, String> {
    let replay_wal: PathBuf = dir.join("replay-engine.wal");
    let _ = std::fs::remove_file(&replay_wal);
    let engine = replay::replay_engine(
        &inputs.deployment,
        inputs.config,
        inputs.wal.then_some(replay_wal.as_path()),
        inputs.payloads,
        inputs.due,
        tracer,
    );
    let layer_wal = dir.join("replay-layers.wal");
    let _ = std::fs::remove_file(&layer_wal);
    let layers = replay::replay_layers(
        &inputs.deployment,
        inputs.kind,
        inputs.config.shards,
        inputs.frames,
        inputs.templates,
        &layer_wal,
        1010,
        tracer,
    );
    let pct = |name: &str, values: &[f64], scale: f64, unit: Unit, out: &mut Outcome| {
        for (suffix, p) in [("p50", 50.0), ("p99", 99.0)] {
            let metric = format!("{name}.{suffix}");
            out.require_metric(
                &metric,
                percentile_of(values, p).map(|v| v / scale),
                unit,
                values.len(),
            );
        }
    };
    pct(
        "wire.parse_ns",
        &tracer.durations("wire.parse"),
        1.0,
        Unit::Ns,
        out,
    );
    pct(
        "wire.encode_ns",
        &tracer.durations("wire.encode"),
        1.0,
        Unit::Ns,
        out,
    );
    out.metric(
        "wire.req_bytes",
        mean(&engine.req_bytes),
        Unit::Bytes,
        Some(engine.req_bytes.len()),
    );
    out.metric(
        "wire.resp_bytes",
        mean(&engine.resp_bytes),
        Unit::Bytes,
        Some(engine.resp_bytes.len()),
    );
    pct(
        "engine.submit_ns",
        &tracer.durations("engine.submit"),
        1.0,
        Unit::Ns,
        out,
    );
    let answers: Vec<f64> = engine.answer_ns.iter().flatten().copied().collect();
    pct("engine.answer_us", &answers, 1e3, Unit::Us, out);
    let waits: Vec<f64> = engine
        .answer_ns
        .iter()
        .zip(&layers.recommend_ns)
        .filter_map(|(a, r)| Some(a.as_ref()? - r.as_ref()?))
        .collect();
    pct("engine.wait_us", &waits, 1e3, Unit::Us, out);
    let submitted = engine.stats.submitted.max(1) as f64;
    out.metric(
        "engine.degraded_frac",
        engine.stats.degraded as f64 / submitted,
        Unit::Ratio,
        None,
    );
    out.metric(
        "engine.rejected_frac",
        engine.stats.rejected as f64 / submitted,
        Unit::Ratio,
        None,
    );
    let server_e2e = inputs.server_e2e_ns.unwrap_or_else(|| {
        let snapshot = lorentz_core::obs::snapshot();
        let h = snapshot.histograms.get("engine.e2e.span_ns");
        h.map_or((0.0, 0.0), |h| (h.p50 as f64, h.p99 as f64))
    });
    out.metric(
        "server.engine_e2e_us.p50",
        server_e2e.0 / 1e3,
        Unit::Us,
        None,
    );
    out.metric(
        "server.engine_e2e_us.p99",
        server_e2e.1 / 1e3,
        Unit::Us,
        None,
    );
    let p50 = |name: &str| percentile_of(&tracer.durations(name), 50.0);
    let answer_p50 = percentile_of(&answers, 50.0);
    let e2e: Vec<f64> = engine.e2e_ns.iter().flatten().copied().collect();
    let client_p50 = inputs.client_p50_ns.or_else(|| percentile_of(&e2e, 50.0));
    if inputs.client_p50_ns.is_none() {
        out.require_metric(
            "p99_us",
            percentile_of(&e2e, 99.0).map(|v| v / 1e3),
            Unit::Us,
            e2e.len(),
        );
    }
    let unattributed =
        (|| Some(client_p50? - p50("wire.parse")? - answer_p50? - p50("wire.encode")?))();
    out.require_metric(
        "net.unattributed_us",
        unattributed.map(|v| v / 1e3),
        Unit::Us,
        answers.len(),
    );
    pct(
        "recommend.hier_ns",
        &tracer.durations("recommend.hier"),
        1.0,
        Unit::Ns,
        out,
    );
    pct(
        "recommend.te_ns",
        &tracer.durations("recommend.te"),
        1.0,
        Unit::Ns,
        out,
    );
    pct(
        "personalizer.snapshot_ns",
        &tracer.durations("personalizer.snapshot"),
        1.0,
        Unit::Ns,
        out,
    );
    pct(
        "personalizer.apply_publish_us",
        &tracer.durations("personalizer.apply_publish"),
        1e3,
        Unit::Us,
        out,
    );
    out.metric(
        "personalizer.delta_keys",
        layers.delta_keys,
        Unit::Count,
        None,
    );
    out.metric(
        "personalizer.nondefault_lambda_frac",
        layers.nondefault_lambda_frac,
        Unit::Ratio,
        None,
    );
    pct(
        "wal.append_us",
        &tracer.durations("wal.append"),
        1e3,
        Unit::Us,
        out,
    );
    out.metric(
        "model.load_s",
        tracer.total("model.load") / 1e9,
        Unit::S,
        None,
    );
    out.metric("model.bytes", inputs.model_bytes as f64, Unit::Bytes, None);
    let lag = inputs.lag_ns.as_ref().unwrap_or(&engine.lag_ns);
    out.require_metric(
        "loadgen.lag_p99_us",
        windowed(lag, 99.0).map(|v| v / 1e3),
        Unit::Us,
        lag.len(),
    );

    // Training layers, on the workload's own training fleet.
    let tracked_ms = train::replay_stages(fleet, trained, threads, tracer);
    out.metric("fleet.ingest_ms", ingest_s * 1e3, Unit::Ms, None);
    for (metric, span) in [
        ("telemetry.pack_ms", "telemetry.pack"),
        ("rightsizer.sweep_ms", "rightsizer.sweep"),
        ("hierarchy.learn_ms", "hierarchy.learn"),
        ("provisioner.hier_fit_ms", "provisioner.hier_fit"),
        ("ml.te_fit_ms", "ml.te_fit"),
        ("provisioner.te_fit_ms", "provisioner.te_fit"),
        ("model.save_ms", "model.save"),
    ] {
        out.metric(metric, tracer.total(span) / 1e6, Unit::Ms, None);
    }
    out.metric(
        "train.unattributed_ms",
        train_s * 1e3 - tracked_ms,
        Unit::Ms,
        None,
    );
    out.metric("trace.spans", tracer.len() as f64, Unit::Count, None);
    Ok(tracked_ms)
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The train workload's traced run: the stage replay on its 100k fleet,
/// and — so the serving layers read on every workload — the in-process
/// serving replays against a serve-sized model ([`served_model`]) trained
/// on a prefix of the same fleet, fed `serve_te_feedback`'s
/// stream (target encoding, WAL on, 20% Zipf feedback) at its rate for
/// two seconds. That puts GBT inference and the λ write path, which
/// `serve_hier` barely runs, into the per-layer figures.
///
/// `trace.overhead_p50_us` here is per trace, like the workload's
/// `p50_us`: the traced stage replay's wall time minus the untraced
/// training call's (`train_s`), which is the spans' cost plus whatever
/// pipeline orchestration the replay leaves out.
#[allow(clippy::too_many_arguments)]
pub fn trace_train_workload(
    seed: u64,
    rows: &[gen::ServerRow],
    fleet: &lorentz_core::fleet::FleetDataset,
    trained: &TrainedLorentz,
    ingest_s: f64,
    train_s: f64,
    threads: usize,
    dir: &Path,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let (slice, _, json) = served_model(rows, threads)?;
    let loaded = tracer
        .time("model.load", None, None, || {
            TrainedLorentz::from_json(&json)
        })
        .map_err(|e| format!("model reload: {e}"))?;
    let w = &SERVE_TE_FEEDBACK;
    let templates = gen::templates(seed, slice, TEMPLATES, &w.shape);
    let n = (w.rate * 2.0) as usize;
    let frames = gen::frames(seed, n, templates.len(), &w.shape);
    let due: Vec<u64> = (0..n as u64)
        .map(|i| (i as f64 * 1e9 / w.rate) as u64)
        .collect();
    let inputs = LayerInputs {
        deployment: Arc::new(loaded),
        kind: w.kind,
        config: w.engine_config(),
        wal: w.wal,
        frames: &frames,
        payloads: &payloads(&frames, &templates),
        due: &due,
        templates: &templates,
        model_bytes: json.len(),
        client_p50_ns: None,
        server_e2e_ns: None,
        lag_ns: None,
    };
    let tracked_ms = trace_layers(
        &inputs, fleet, trained, ingest_s, train_s, threads, dir, tracer, out,
    )?;
    out.metric(
        "trace.overhead_p50_us",
        (tracked_ms / 1e3 - train_s) * 1e6 / fleet.len() as f64,
        Unit::Us,
        None,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lorentz_types::{CustomerId, ResourceGroupId, ResourcePath, SubscriptionId};

    fn tiny() -> (TrainedLorentz, Vec<Template>) {
        let rows = gen::servers(5, 300, 128);
        let (fleet, _) = gen::ingest(&rows);
        let mut config = lorentz_core::LorentzConfig::paper_defaults();
        config.target_encoding.boosting.n_trees = 5;
        let trained = lorentz_core::LorentzPipeline::new(config)
            .unwrap()
            .train(&fleet)
            .unwrap();
        (trained, gen::templates(5, &rows, 8, &SERVE_HIER.shape))
    }

    fn path(c: u32) -> ResourcePath {
        ResourcePath::new(CustomerId(c), SubscriptionId(c), ResourceGroupId(c))
    }

    fn reply(text: &str) -> Reply {
        Reply {
            at_ns: 1_000,
            bytes: text.as_bytes().to_vec(),
        }
    }

    /// The answer the server would send for frame `id`, optionally with
    /// its SKU name swapped.
    fn answer(expected: &Expected, id: usize, sku: Option<&str>) -> String {
        let mut json = expected.json.clone();
        if let Some(name) = sku {
            let at = json.find("\"name\":\"").expect("sku name") + 8;
            let end = at + json[at..].find('"').unwrap();
            json.replace_range(at..end, name);
        }
        format!("{{\"id\":{id},\"ok\":{json},\"degraded\":false,\"latency_ns\":5}}")
    }

    #[test]
    fn an_injected_wrong_sku_fails_the_run() {
        let (trained, templates) = tiny();
        let expected =
            oracle::expected_answers(&trained, &templates, ModelKind::Hierarchical).unwrap();
        let frames = vec![
            Frame::Request {
                template: 0,
                path: path(1),
            },
            Frame::Request {
                template: 1,
                path: path(2),
            },
            Frame::Feedback {
                path: path(3),
                offering: templates[0].offering,
                gamma: -0.3,
            },
        ];
        let fed = fed_back(&[&frames]);
        let judge = Judge {
            frames: &frames,
            expected: &expected,
            fed_back: &fed,
        };
        let good = [
            reply(&answer(&expected[0], 0, None)),
            reply(&answer(&expected[1], 1, None)),
            reply("{\"ack\":\"feedback\"}"),
        ];
        let mut tally = Tally::default();
        let timed = classify(&judge, &[0, 1, 2], &good, &mut tally);
        assert_eq!(
            (tally.failed, tally.acks, timed.len()),
            (0, 1, 3),
            "{:?}",
            tally.problems
        );

        let bad = [
            reply(&answer(&expected[0], 0, Some("GP_Gen5_999"))),
            reply(&answer(&expected[1], 1, None)),
            reply("{\"ack\":\"feedback\"}"),
        ];
        let mut tally = Tally::default();
        classify(&judge, &[0, 1, 2], &bad, &mut tally);
        assert_eq!(tally.failed, 1);
        let mut out = Outcome::default();
        out.absorb_tally(tally);
        assert!(out.json(&[]).starts_with("{\"correct\": false"));
    }

    #[test]
    fn unanswered_frames_and_an_open_ledger_fail() {
        let (trained, templates) = tiny();
        let expected =
            oracle::expected_answers(&trained, &templates, ModelKind::Hierarchical).unwrap();
        let frames = vec![
            Frame::Request {
                template: 0,
                path: path(1)
            };
            2
        ];
        let fed = HashSet::new();
        let judge = Judge {
            frames: &frames,
            expected: &expected,
            fed_back: &fed,
        };
        let mut tally = Tally::default();
        classify(
            &judge,
            &[0, 1],
            &[reply(&answer(&expected[0], 0, None))],
            &mut tally,
        );
        assert_eq!(tally.failed, 1, "one frame unanswered");

        let mut tally = Tally {
            requests_sent: 2,
            ..Tally::default()
        };
        let report = serde_json::parse(
            r#"{"submitted": 2, "accepted": 2, "answered": 1, "rejected": 0,
                "feedback_applied": 0, "frame_errors": 0, "dropped_responses": 0}"#,
        )
        .unwrap();
        check_ledger(&report, &mut tally);
        assert_eq!(tally.failed, 1, "accepted != answered");
    }
}
