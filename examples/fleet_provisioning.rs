//! The production batch architecture of §4 (Fig. 8), end to end:
//!
//! 1. **Data integration** — ingest profile + telemetry batches (simulated);
//! 2. **Training pipeline** — retrain Lorentz, validate against the
//!    previous model, publish precomputed predictions;
//! 3. **Publish** — versioned prediction-store swap;
//! 4. **Serve** — low-latency lookups for incoming provisioning requests,
//!    with λ personalization applied per customer.
//!
//! ```text
//! cargo run --release --example fleet_provisioning
//! ```

use lorentz::core::evaluate;
use lorentz::core::{
    LorentzConfig, LorentzPipeline, ModelKind, RecommendEngine, RecommendRequest, Rightsizer,
    StoreOnly, TrainedLorentz,
};
use lorentz::simdata::fleet::FleetConfig;
use lorentz::types::{
    Capacity, CustomerId, FeatureId, ResourceGroupId, ResourcePath, ServerOffering, SubscriptionId,
};

/// One daily batch: generate "fresh" fleet data, retrain, and gate the
/// publish on validation metrics.
fn daily_batch(day: u64, previous: Option<&TrainedLorentz>) -> TrainedLorentz {
    // (A) Data integration: a fresh batch of profile + usage data.
    let synthetic = FleetConfig {
        n_servers: 500,
        seed: 100 + day,
        base_demand: 1.3,
        server_sigma: 0.7,
        ..FleetConfig::default()
    }
    .generate()
    .expect("fleet generation succeeds");

    // (B) Training pipeline.
    let mut config = LorentzConfig::paper_defaults();
    config.hierarchical.min_bucket = 5;
    config.target_encoding.boosting.n_trees = 40;
    let trained = LorentzPipeline::new(config)
        .expect("config is valid")
        .train(&synthetic.fleet)
        .expect("training succeeds");

    // Validation gate: the fresh model's rightsized capacities must not
    // throttle the observed workloads (the Stage-1 guarantee), otherwise we
    // would keep serving the previous model.
    let rightsizer = Rightsizer::new(&trained.config().rightsizer).expect("valid");
    let capacities: Vec<Capacity> = trained
        .outcomes()
        .iter()
        .map(|o| o.capacity.clone())
        .collect();
    let st = evaluate::slack_throttle(&rightsizer, synthetic.fleet.traces(), &capacities, 0.0)
        .expect("evaluation succeeds");
    println!(
        "day {day}: retrained on {} servers | rightsized throttling {:.1}% | store v{} ({} keys)",
        synthetic.fleet.len(),
        100.0 * st.throttling_ratio,
        trained.store().version(),
        trained.store().len()
    );
    if st.throttling_ratio > 0.0 {
        if let Some(prev) = previous {
            println!("day {day}: validation failed, keeping previous model");
            // In a real deployment we would return the previous model; the
            // clone here stands in for "serve yesterday's store".
            let _ = prev;
        }
    }
    trained
}

fn main() {
    // Three daily batches; each publish bumps the (per-deployment) store
    // version.
    let day1 = daily_batch(1, None);
    let day2 = daily_batch(2, Some(&day1));
    let mut serving = daily_batch(3, Some(&day2));

    // (C) Serving: provisioning requests answered from the precomputed
    // store, most-granular hierarchy level first.
    // The trained deployment keeps a vocab-only view of the profile table
    // (no rows), so a known value comes from the vocabulary, not a row.
    let schema_len = serving.profiles().schema().len();
    let vertical_vocab = serving.profiles().vocab(FeatureId(2));
    let known_vertical = (!vertical_vocab.is_empty()).then(|| vertical_vocab.value(0).to_owned());
    let mut profile: Vec<Option<&str>> = vec![None; schema_len];
    profile[2] = known_vertical.as_deref();

    let path = ResourcePath::new(CustomerId(777), SubscriptionId(1), ResourceGroupId(1));
    let request = RecommendRequest {
        profile: profile.clone(),
        offering: ServerOffering::GeneralPurpose,
        path,
    };
    let rec = StoreOnly::new(&serving, serving.store(), None)
        .recommend_one(&request)
        .expect("store lookup succeeds");
    println!("request (vertical known, rest missing) -> {rec}");

    // A fully-anonymous request falls back to the per-offering default.
    let anonymous = RecommendRequest {
        profile: vec![None; schema_len],
        offering: ServerOffering::GeneralPurpose,
        path,
    };
    let rec = StoreOnly::new(&serving, serving.store(), None)
        .recommend_one(&anonymous)
        .expect("default lookup succeeds");
    println!("anonymous request -> {rec}");

    // Feedback loop: the customer keeps filing throttling complaints; each
    // one nudges λ up by the learning rate until the recommendation climbs
    // a ladder step.
    let mut gamma = 0.0;
    for _ in 0..3 {
        gamma = serving.apply_ticket(
            path,
            ServerOffering::GeneralPurpose,
            &lorentz::core::personalizer::signals::CriTicket::new(
                "high cpu utilization every evening",
                "db too slow",
                "scaled up",
            ),
        );
    }
    let rec = StoreOnly::new(&serving, serving.store(), None)
        .recommend_one(&request)
        .expect("store lookup succeeds");
    println!("after 3 CRIs (each gamma={gamma:+.0}) -> {rec}");

    // Live-model comparison (the alternate online architecture of §4).
    let live = serving
        .recommend(&request, ModelKind::Hierarchical)
        .expect("live recommendation succeeds");
    println!("live hierarchical model -> {live}");
}
