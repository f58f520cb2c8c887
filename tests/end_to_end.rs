//! Cross-crate integration: the full Lorentz lifecycle from synthetic
//! fleet to personalized recommendations.

use lorentz::core::{
    evaluate, LorentzConfig, LorentzPipeline, ModelKind, RecommendEngine, RecommendRequest,
    Rightsizer, SatisfactionSignal, StoreOnly,
};
use lorentz::simdata::fleet::FleetConfig;
use lorentz::simdata::upscale::{upscale_fleet, UpscaleConfig};
use lorentz::types::{
    Capacity, CustomerId, FeatureId, ResourceGroupId, ResourcePath, ServerOffering, SkuCatalog,
    SubscriptionId,
};

fn quick_config() -> LorentzConfig {
    let mut c = LorentzConfig::paper_defaults();
    c.hierarchical.min_bucket = 5;
    c.target_encoding.boosting.n_trees = 30;
    c
}

fn quick_fleet(seed: u64) -> lorentz::simdata::fleet::SyntheticFleet {
    FleetConfig {
        n_servers: 400,
        seed,
        base_demand: 1.2,
        sampling: lorentz::telemetry::generators::SamplingConfig {
            duration_secs: 6.0 * 3600.0,
            mean_interval_secs: 60.0,
            jitter_frac: 0.2,
        },
        ..FleetConfig::default()
    }
    .generate()
    .expect("fleet generation succeeds")
}

#[test]
fn full_pipeline_trains_and_recommends() {
    let synth = quick_fleet(1);
    let trained = LorentzPipeline::new(quick_config())
        .unwrap()
        .train(&synth.fleet)
        .unwrap();

    // Stage 1 produced catalog-valid labels for every server.
    assert_eq!(trained.labels().len(), synth.fleet.len());
    for (i, outcome) in trained.outcomes().iter().enumerate() {
        let cat = SkuCatalog::azure_postgres(synth.fleet.offerings()[i]);
        assert!(cat.index_of(&outcome.capacity).is_some());
    }

    // Stage 2: every training row can be served by both models, and every
    // recommendation is a valid SKU of the right offering.
    for row in (0..synth.fleet.len()).step_by(37) {
        let offering = synth.fleet.offerings()[row];
        let cat = SkuCatalog::azure_postgres(offering);
        for kind in [ModelKind::Hierarchical, ModelKind::TargetEncoding] {
            let Ok(model) = trained.provisioner(offering, kind) else {
                continue;
            };
            let (sku, _) = model.recommend(&synth.fleet.profiles().row(row)).unwrap();
            assert!(cat.index_of(&sku.capacity).is_some(), "row {row} {kind:?}");
        }
    }

    // Store agreement: the precomputed store serves the same capacities as
    // the live hierarchical model for profile-only requests.
    let schema = synth.fleet.profiles().schema();
    let mut checked = 0;
    for row in (0..synth.fleet.len()).step_by(53) {
        let offering = synth.fleet.offerings()[row];
        if trained
            .provisioner(offering, ModelKind::Hierarchical)
            .is_err()
        {
            continue;
        }
        let strings: Vec<Option<String>> = (0..schema.len())
            .map(|f| {
                synth
                    .fleet
                    .profiles()
                    .value_str(row, FeatureId(f))
                    .map(str::to_owned)
            })
            .collect();
        let req = RecommendRequest {
            profile: strings.iter().map(|v| v.as_deref()).collect(),
            offering,
            path: synth.fleet.paths()[row],
        };
        let live = trained.recommend(&req, ModelKind::Hierarchical).unwrap();
        let stored = StoreOnly::new(&trained, trained.store(), None)
            .recommend_one(&req)
            .unwrap();
        assert_eq!(
            live.sku.capacity, stored.sku.capacity,
            "row {row}: live vs store disagree"
        );
        checked += 1;
    }
    assert!(checked > 3, "store agreement checked on {checked} rows");
}

#[test]
fn rightsizing_never_throttles_observed_telemetry() {
    let synth = quick_fleet(2);
    let config = quick_config();
    let trained = LorentzPipeline::new(config.clone())
        .unwrap()
        .train(&synth.fleet)
        .unwrap();
    let rightsizer = Rightsizer::new(&config.rightsizer).unwrap();
    let capacities: Vec<Capacity> = trained
        .outcomes()
        .iter()
        .map(|o| o.capacity.clone())
        .collect();
    let st = evaluate::slack_throttle(&rightsizer, synth.fleet.traces(), &capacities, 0.0).unwrap();
    assert_eq!(
        st.throttling_ratio, 0.0,
        "Eq. 9 guarantees zero observed throttling at tau = 0"
    );
}

#[test]
fn upscaling_then_training_shifts_labels_upward() {
    let mut synth = quick_fleet(3);
    let before = LorentzPipeline::new(quick_config())
        .unwrap()
        .train(&synth.fleet)
        .unwrap();
    let mean_before: f64 = before.labels().iter().sum::<f64>() / before.labels().len() as f64;

    upscale_fleet(&mut synth, &UpscaleConfig::default()).unwrap();
    let after = LorentzPipeline::new(quick_config())
        .unwrap()
        .train(&synth.fleet)
        .unwrap();
    let mean_after: f64 = after.labels().iter().sum::<f64>() / after.labels().len() as f64;
    assert!(
        mean_after > mean_before,
        "upscaled labels {mean_after} should exceed original {mean_before}"
    );
}

#[test]
fn personalization_signals_move_recommendations_monotonically() {
    let synth = quick_fleet(4);
    let mut trained = LorentzPipeline::new(quick_config())
        .unwrap()
        .train(&synth.fleet)
        .unwrap();
    let path = ResourcePath::new(CustomerId(900), SubscriptionId(1), ResourceGroupId(1));
    let schema_len = synth.fleet.profiles().schema().len();
    let req = RecommendRequest {
        profile: vec![None; schema_len],
        offering: ServerOffering::GeneralPurpose,
        path,
    };
    let mut last = trained
        .recommend(&req, ModelKind::Hierarchical)
        .unwrap()
        .sku
        .capacity
        .primary();
    let base = last;
    for _ in 0..8 {
        trained.apply_signal(
            &SatisfactionSignal::new(path, ServerOffering::GeneralPurpose, 1.0).unwrap(),
        );
        let now = trained
            .recommend(&req, ModelKind::Hierarchical)
            .unwrap()
            .sku
            .capacity
            .primary();
        assert!(
            now >= last,
            "recommendations must not shrink under +1 signals"
        );
        last = now;
    }
    assert!(
        last > base,
        "eight +1 signals must raise the recommendation"
    );

    // Stage-2 output itself is untouched by personalization.
    let rec = trained.recommend(&req, ModelKind::Hierarchical).unwrap();
    assert!(rec.lambda > 0.0);
    assert_eq!(rec.stage2_capacity, base);
}

#[test]
fn offerings_are_stratified_models() {
    let synth = quick_fleet(5);
    let trained = LorentzPipeline::new(quick_config())
        .unwrap()
        .train(&synth.fleet)
        .unwrap();
    // A Burstable recommendation only ever uses the Burstable ladder.
    let schema_len = synth.fleet.profiles().schema().len();
    let req = RecommendRequest {
        profile: vec![None; schema_len],
        offering: ServerOffering::Burstable,
        path: ResourcePath::new(CustomerId(1), SubscriptionId(1), ResourceGroupId(1)),
    };
    if let Ok(rec) = trained.recommend(&req, ModelKind::Hierarchical) {
        let cat = SkuCatalog::azure_postgres(ServerOffering::Burstable);
        assert!(cat.index_of(&rec.sku.capacity).is_some());
    }
}
