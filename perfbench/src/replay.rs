//! The traced run's in-process serving pipeline, built from the serving
//! layers' public calls.
//!
//! [`replay_engine`] sends the workload's frame stream through
//! `wire::parse_client_frame` → `ServingEngine::submit` → the engine's
//! response channel → `wire::encode_response` on the same schedule the TCP
//! phase used, timing each call. [`replay_layers`] then walks the same
//! frames through the calls a worker and the λ writer make —
//! `ShardedLambdaStore::snapshot_for`, `live_engine_with_lambdas(..)
//! .recommend_one`, `apply_signal` + `publish_delta_for`,
//! `SignalWal::append_frame` — one at a time, so each has its own number.

use crate::gen::{Frame, Template};
use crate::host::tight_timer_slack;
use crate::spans::Tracer;
use lorentz_core::personalizer::frame_record;
use lorentz_core::{
    ModelKind, RecommendEngine, RecommendRequest, ShardedLambdaStore, SignalWal, TrainedLorentz,
    WalRecord,
};
use lorentz_serve::wire::{self, ClientFrame};
use lorentz_serve::{EngineStats, ServeConfig, ServingEngine};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the engine replay measured, per frame where it applies.
pub struct EngineReplay {
    /// submit → response on the engine channel (ns), per request frame.
    pub answer_ns: Vec<Option<f64>>,
    /// due → response encoded (ns), per frame.
    pub e2e_ns: Vec<Option<f64>>,
    /// How late each frame was handed to the parser (ns).
    pub lag_ns: Vec<f64>,
    pub req_bytes: Vec<f64>,
    pub resp_bytes: Vec<f64>,
    pub stats: EngineStats,
}

/// Replays `payloads` (frame `i` due at `due_ns[i]`) through an in-process
/// engine configured like the server. Spans: `wire.parse`,
/// `engine.submit`, `engine.answer` (submit → channel), `wire.encode`.
pub fn replay_engine(
    deployment: &Arc<TrainedLorentz>,
    config: ServeConfig,
    wal: Option<&Path>,
    payloads: &[Vec<u8>],
    due_ns: &[u64],
    tracer: &mut Tracer,
) -> EngineReplay {
    let (engine, responses) = match wal {
        Some(path) => ServingEngine::start_with_wal(Arc::clone(deployment), config, path),
        None => ServingEngine::start(Arc::clone(deployment), config),
    }
    .expect("in-process engine starts");
    let n = payloads.len();
    // Each slot is stored (Release) before its request is submitted and
    // loaded (Acquire) by the collector after the engine answers it.
    let submitted_ns: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
    let schema = deployment.profiles().schema().clone();
    let start = Instant::now() + Duration::from_millis(5);
    let start_ns = start.duration_since(tracer.epoch()).as_nanos() as u64;
    let mut collector_spans = Tracer::new(tracer.epoch());
    let collector = {
        let submitted_ns = Arc::clone(&submitted_ns);
        std::thread::spawn(move || {
            let mut answers = Vec::new();
            for response in responses {
                let at = collector_spans.now();
                let id = response.id as usize;
                let submitted = submitted_ns[id].load(Ordering::Acquire);
                collector_spans.record("engine.answer", submitted, at, None, Some(id as u64));
                let bytes = collector_spans.time("wire.encode", None, Some(id as u64), || {
                    wire::encode_response(id as u64, &response)
                });
                answers.push((id, at - submitted, collector_spans.now(), bytes.len()));
            }
            (answers, collector_spans)
        })
    };
    tight_timer_slack();
    let mut lag_ns = Vec::with_capacity(n);
    let mut e2e_ns = vec![None; n];
    let mut resp_bytes = Vec::with_capacity(n);
    for (i, payload) in payloads.iter().enumerate() {
        let due = start + Duration::from_nanos(due_ns[i]);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        lag_ns.push(tracer.now().saturating_sub(start_ns + due_ns[i]) as f64);
        let frame = tracer
            .time("wire.parse", None, Some(i as u64), || {
                wire::parse_client_frame(payload, &schema)
            })
            .expect("generated frames parse");
        match frame {
            ClientFrame::Request(mut request) => {
                request.id = i as u64;
                submitted_ns[i].store(tracer.now(), Ordering::Release);
                let _ = tracer.time("engine.submit", None, Some(i as u64), || {
                    engine.submit(request)
                });
            }
            ClientFrame::Feedback(signal) => {
                if engine.submit_feedback(signal).is_ok() {
                    engine.flush_feedback();
                }
                let ack = tracer.time("wire.encode", None, Some(i as u64), || {
                    wire::encode_ack("ack", serde::Value::Str("feedback".to_owned()))
                });
                e2e_ns[i] = Some(tracer.now().saturating_sub(start_ns + due_ns[i]) as f64);
                resp_bytes.push(ack.len() as f64);
            }
            ClientFrame::Ping | ClientFrame::Drain => {}
        }
    }
    let stats = engine.drain();
    let (answers, spans) = collector.join().expect("collector panicked");
    tracer.absorb(spans);
    let mut answer_ns = vec![None; n];
    for (id, answer, encoded_at, bytes) in answers {
        answer_ns[id] = Some(answer as f64);
        e2e_ns[id] = Some(encoded_at.saturating_sub(start_ns + due_ns[id]) as f64);
        resp_bytes.push(bytes as f64);
    }
    EngineReplay {
        answer_ns,
        e2e_ns,
        lag_ns,
        req_bytes: payloads.iter().map(|p| p.len() as f64).collect(),
        resp_bytes,
        stats,
    }
}

/// What the layer replay measured.
pub struct LayerReplay {
    /// `recommend_one` time (ns) of the served kind, per request frame.
    pub recommend_ns: Vec<Option<f64>>,
    /// Requests answered with λ ≠ 0, over requests.
    pub nondefault_lambda_frac: f64,
    /// Mean λ-delta size (keys) per published signal.
    pub delta_keys: f64,
}

/// Walks `frames` through the worker and λ-writer calls one at a time.
/// Feedback frames are cycled until at least `min_feedback` signals were
/// applied, so the λ-path tails rest on enough samples even when feedback
/// is rare. Spans: `personalizer.snapshot`, `recommend.hier`,
/// `recommend.te`, `personalizer.apply_publish`, `wal.append`.
#[allow(clippy::too_many_arguments)]
pub fn replay_layers(
    deployment: &TrainedLorentz,
    kind: ModelKind,
    shards: usize,
    frames: &[Frame],
    templates: &[Template],
    wal_path: &Path,
    min_feedback: usize,
    tracer: &mut Tracer,
) -> LayerReplay {
    let lambdas =
        ShardedLambdaStore::new(deployment.personalizer().clone(), shards).expect("λ store builds");
    let (wal, _) = SignalWal::open(wal_path).expect("scratch WAL opens");
    let mut writer = LambdaWriter {
        lambdas: &lambdas,
        wal,
        signals: 0,
        keys: 0,
    };
    let mut recommend_ns = vec![None; frames.len()];
    let (mut requests, mut nondefault) = (0usize, 0usize);
    for (i, frame) in frames.iter().enumerate() {
        match frame {
            Frame::Request { template, path } => {
                let t = &templates[*template];
                let request = RecommendRequest {
                    profile: t.profile.iter().map(|v| v.as_deref()).collect(),
                    offering: t.offering,
                    path: *path,
                };
                let snapshot = tracer.time("personalizer.snapshot", None, Some(i as u64), || {
                    lambdas.snapshot_for(path)
                });
                for (k, name) in [
                    (ModelKind::Hierarchical, "recommend.hier"),
                    (ModelKind::TargetEncoding, "recommend.te"),
                ] {
                    let start = tracer.now();
                    let rec = deployment
                        .live_engine_with_lambdas(k, &snapshot)
                        .recommend_one(&request)
                        .expect("generated request recommends");
                    let end = tracer.now();
                    tracer.record(name, start, end, None, Some(i as u64));
                    if k == kind {
                        recommend_ns[i] = Some((end - start) as f64);
                        requests += 1;
                        nondefault += usize::from(rec.lambda != 0.0);
                    }
                }
            }
            Frame::Feedback { .. } => writer.apply(tracer, i, frame),
        }
    }
    let feedback: Vec<(usize, &Frame)> = frames
        .iter()
        .enumerate()
        .filter(|(_, f)| matches!(f, Frame::Feedback { .. }))
        .collect();
    let mut k = 0;
    while writer.signals < min_feedback && !feedback.is_empty() {
        let (i, frame) = feedback[k % feedback.len()];
        writer.apply(tracer, i, frame);
        k += 1;
    }
    LayerReplay {
        recommend_ns,
        nondefault_lambda_frac: nondefault as f64 / requests.max(1) as f64,
        delta_keys: writer.keys as f64 / writer.signals.max(1) as f64,
    }
}

/// The λ writer's calls, as the engine's feedback thread makes them.
struct LambdaWriter<'a> {
    lambdas: &'a ShardedLambdaStore,
    wal: SignalWal,
    signals: usize,
    keys: usize,
}

impl LambdaWriter<'_> {
    fn apply(&mut self, tracer: &mut Tracer, i: usize, frame: &Frame) {
        let Frame::Feedback {
            path,
            offering,
            gamma,
        } = frame
        else {
            return;
        };
        let signal = lorentz_core::SatisfactionSignal::new(*path, *offering, *gamma)
            .expect("generated signal is valid");
        let lambdas = self.lambdas;
        let delta = tracer.time("personalizer.apply_publish", None, Some(i as u64), || {
            lambdas.apply_signal(&signal);
            lambdas.publish_delta_for(&signal.path)
        });
        self.keys += delta.entries.len();
        self.signals += 1;
        let record = frame_record(&WalRecord { signal, delta }).expect("record frames");
        let wal = &mut self.wal;
        tracer
            .time("wal.append", None, Some(i as u64), || {
                wal.append_frame(&record)
            })
            .expect("scratch WAL appends");
    }
}
