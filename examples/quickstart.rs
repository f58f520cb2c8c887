//! Quickstart: train Lorentz on a synthetic fleet and recommend SKUs for
//! new databases.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use lorentz::core::{
    LorentzConfig, LorentzPipeline, ModelKind, RecommendEngine, RecommendRequest, StoreOnly,
};
use lorentz::simdata::fleet::FleetConfig;
use lorentz::types::{CustomerId, ResourceGroupId, ResourcePath, ServerOffering, SubscriptionId};

fn main() {
    // 1. A fleet of "existing" databases: profiles, user-selected SKUs, and
    //    telemetry censored at those SKUs — what a cloud operator actually
    //    has on hand. In production this comes from the billing and
    //    telemetry stores; here a simulator builds it.
    let synthetic = FleetConfig {
        n_servers: 600,
        seed: 7,
        base_demand: 1.3,
        server_sigma: 0.7,
        ..FleetConfig::default()
    }
    .generate()
    .expect("fleet generation succeeds");
    println!(
        "fleet: {} servers, {} profile features",
        synthetic.fleet.len(),
        synthetic.fleet.profiles().schema().len()
    );

    // 2. Train the three-stage pipeline with the paper's Table-2 defaults:
    //    Stage 1 rightsizes every existing workload, Stage 2 fits both
    //    provisioners per server offering, Stage 3 initializes the
    //    personalization profiles.
    let mut config = LorentzConfig::paper_defaults();
    config.hierarchical.min_bucket = 5; // small fleet, small buckets
    let trained = LorentzPipeline::new(config)
        .expect("config is valid")
        .train(&synthetic.fleet)
        .expect("training succeeds");
    println!(
        "trained: {} rightsized labels, prediction store v{} with {} keys",
        trained.labels().len(),
        trained.store().version(),
        trained.store().len()
    );

    // 3. Recommend a capacity for a brand-new database. Only profile data
    //    is available — no telemetry exists yet.
    let schema = synthetic.fleet.profiles().schema();
    println!("schema: {:?}", schema.names());
    // Reuse an existing vertical so the recommender has neighbors; the
    // customer itself is new.
    let reference = synthetic.fleet.profiles().row(0);
    let reference_strings: Vec<Option<String>> = (0..schema.len())
        .map(|f| {
            synthetic
                .fleet
                .profiles()
                .value_str(0, lorentz::types::FeatureId(f))
                .map(str::to_owned)
        })
        .collect();
    let mut profile: Vec<Option<&str>> = reference_strings.iter().map(|v| v.as_deref()).collect();
    profile[4] = Some("brand-new-customer"); // CloudCustomerGuid
    profile[5] = Some("new-subscription");
    profile[6] = Some("new-rg");
    let _ = reference;

    let request = RecommendRequest {
        profile,
        offering: ServerOffering::GeneralPurpose,
        path: ResourcePath::new(CustomerId(9001), SubscriptionId(1), ResourceGroupId(1)),
    };

    for kind in [ModelKind::Hierarchical, ModelKind::TargetEncoding] {
        match trained.recommend(&request, kind) {
            Ok(rec) => println!("{kind:?} -> {rec}"),
            Err(e) => println!("{kind:?} failed: {e}"),
        }
    }

    // 4. The same request served from the precomputed prediction store
    //    (the paper's low-latency production path).
    let stored = StoreOnly::new(&trained, trained.store(), None)
        .recommend_one(&request)
        .expect("store lookup succeeds");
    println!("store -> {stored}");
}
