//! Golden test of the deterministic metric fields: after a seeded train +
//! serve sequence, every count-valued metric is exactly reproducible, so the
//! counter map of the `--metrics-out` snapshot is byte-stable across runs.
//!
//! Metrics are process-wide statics, so everything lives in ONE test
//! function — parallel test threads in the same binary would race the
//! counters otherwise.

use lorentz::core::{
    LiveModel, LorentzConfig, LorentzPipeline, ModelKind, RecommendEngine, RecommendRequest,
    StoreOnly, TrainedLorentz,
};
use lorentz::simdata::fleet::FleetConfig;
use lorentz::types::{CustomerId, ResourceGroupId, ResourcePath, ServerOffering, SubscriptionId};
use std::collections::BTreeMap;

fn quick_config() -> LorentzConfig {
    let mut config = LorentzConfig::paper_defaults();
    config.target_encoding.boosting.n_trees = 10;
    config
}

/// One seeded train + serve pass; returns the trained pipeline.
fn run_scenario() -> TrainedLorentz {
    let fleet = FleetConfig {
        n_servers: 120,
        seed: 77,
        ..FleetConfig::default()
    }
    .generate()
    .unwrap()
    .fleet;
    let trained = LorentzPipeline::new(quick_config())
        .unwrap()
        .train(&fleet)
        .unwrap();

    // Serve a fixed request mix: one in-vocabulary profile, one unseen
    // profile (store default fallback), one malformed profile (error).
    let good: Vec<Option<String>> = trained
        .profiles()
        .schema()
        .feature_ids()
        .map(|f| {
            let vocab = trained.profiles().vocab(f);
            (!vocab.is_empty()).then(|| vocab.value(0).to_owned())
        })
        .collect();
    let unseen: Vec<Option<String>> = good.iter().map(|_| None).collect();
    fn request<'a>(profile: &'a [Option<String>], i: u32) -> RecommendRequest<'a> {
        RecommendRequest {
            profile: profile.iter().map(|v| v.as_deref()).collect(),
            offering: ServerOffering::GeneralPurpose,
            path: ResourcePath::new(CustomerId(0), SubscriptionId(0), ResourceGroupId(i)),
        }
    }

    let _ = trained.recommend(&request(&good, 0), ModelKind::Hierarchical);
    let store = StoreOnly::new(&trained, trained.store(), None);
    let _ = store.recommend_one(&request(&good, 1));
    let _ = store.recommend_one(&request(&unseen, 2));
    let bad = vec![Some("wrong-arity")];
    let _ = trained.recommend(
        &RecommendRequest {
            profile: bad,
            offering: ServerOffering::Burstable,
            path: ResourcePath::new(CustomerId(0), SubscriptionId(0), ResourceGroupId(3)),
        },
        ModelKind::TargetEncoding,
    );
    let batch = vec![request(&good, 4), request(&unseen, 5)];
    let _ = LiveModel::new(&trained, ModelKind::Hierarchical, None).recommend_many(&batch);
    let _ = store.recommend_many(&batch);
    trained
}

fn counters_json(counters: &BTreeMap<String, u64>) -> String {
    serde_json::to_string(counters).unwrap()
}

#[test]
fn deterministic_counters_are_byte_stable_and_pinned() {
    lorentz::core::obs::reset();
    let trained = run_scenario();
    let first = lorentz::core::obs::snapshot();

    // Pin the structurally-determined counts. Training covers all three
    // offerings; the serve mix above is 4 live-model requests (one failing)
    // and 4 store-path requests.
    let c = |name: &str| {
        first
            .counter(name)
            .unwrap_or_else(|| panic!("counter '{name}' missing from snapshot"))
    };
    assert_eq!(c("train.stage1.records"), 120);
    assert_eq!(
        c("train.stage2.offerings"),
        ServerOffering::ALL.len() as u64
    );
    assert_eq!(c("train.publish.entries"), trained.store().len() as u64);
    assert_eq!(c("store.publishes"), 1);
    assert_eq!(c("serve.recommend.requests"), 4);
    assert_eq!(c("serve.recommend.errors"), 1);
    assert_eq!(c("serve.recommend_batch.batches"), 1);
    assert_eq!(c("serve.store.requests"), 4);
    assert_eq!(c("serve.store.errors"), 0);
    assert_eq!(c("serve.store_batch.batches"), 1);
    assert_eq!(
        c("store.lookup.hits") + c("store.lookup.defaults") + c("store.lookup.misses"),
        4,
        "every store-path request resolves to exactly one lookup outcome"
    );
    assert!(c("store.lookup.defaults") >= 2, "unseen profiles fall back");

    // Span histograms carry wall-clock time and are NOT golden; their
    // *counts* are. Each train stage span fires exactly once.
    for span in [
        "train.stage1.span_ns",
        "train.stage2.span_ns",
        "train.publish.span_ns",
        "train.personalizer.span_ns",
    ] {
        let h = first
            .histogram(span)
            .unwrap_or_else(|| panic!("histogram '{span}' missing from snapshot"));
        assert_eq!(h.count, 1, "{span} must record exactly one span");
    }

    // Byte-stability: rerunning the identical scenario reproduces the
    // counter map exactly — the golden half of the `--metrics-out` payload.
    lorentz::core::obs::reset();
    let _trained = run_scenario();
    let second = lorentz::core::obs::snapshot();
    assert_eq!(
        counters_json(&first.counters),
        counters_json(&second.counters),
        "deterministic counter fields must be byte-identical across runs"
    );

    // And the full snapshot serializes with sorted keys (BTreeMap-backed),
    // so the golden comparison above is order-independent by construction.
    let json = serde_json::to_string_pretty(&second).unwrap();
    let hits = json.find("store.lookup.hits").unwrap();
    let misses = json.find("store.lookup.misses").unwrap();
    assert!(hits < misses, "snapshot keys must serialize sorted");
}
