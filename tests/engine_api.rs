//! The serving API's one-constructor-per-engine contract. [`LiveModel`]
//! and [`StoreOnly`] each take an optional published λ snapshot; without
//! one they must answer exactly what the paper's sequential Stage 2+3
//! path ([`TrainedLorentz::recommend`]) answers, and with one they must
//! follow that snapshot's λ — and nothing published after it.

use lorentz::core::{
    LiveModel, LorentzConfig, LorentzPipeline, ModelKind, RecommendEngine, RecommendRequest,
    Recommendation, SatisfactionSignal, ShardedLambdaStore, ShardedPredictionStore, StoreOnly,
    TrainedLorentz,
};
use lorentz::simdata::fleet::FleetConfig;
use lorentz::types::{
    CustomerId, FeatureId, LorentzError, ResourceGroupId, ResourcePath, ServerOffering,
    SubscriptionId,
};
use std::sync::OnceLock;

const KINDS: [ModelKind; 2] = [ModelKind::Hierarchical, ModelKind::TargetEncoding];

/// A trained deployment plus a sample of its training rows as raw request
/// parts: profile strings, offering and path.
struct Fixture {
    trained: TrainedLorentz,
    rows: Vec<(Vec<Option<String>>, ServerOffering, ResourcePath)>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let fleet = FleetConfig {
            n_servers: 160,
            seed: 20240612,
            ..FleetConfig::default()
        }
        .generate()
        .unwrap()
        .fleet;
        let mut config = LorentzConfig::paper_defaults();
        config.hierarchical.min_bucket = 5;
        config.target_encoding.boosting.n_trees = 10;
        let trained = LorentzPipeline::new(config).unwrap().train(&fleet).unwrap();
        let schema_len = fleet.profiles().schema().len();
        let rows = (0..fleet.len())
            .step_by(9)
            .map(|row| {
                let profile = (0..schema_len)
                    .map(|f| {
                        fleet
                            .profiles()
                            .value_str(row, FeatureId(f))
                            .map(str::to_owned)
                    })
                    .collect();
                (profile, fleet.offerings()[row], fleet.paths()[row])
            })
            .collect();
        Fixture { trained, rows }
    })
}

/// Requests for every sampled row, plus an all-missing profile and one
/// whose values were never seen in training, on every offering.
fn requests(fx: &Fixture) -> Vec<RecommendRequest<'_>> {
    let schema_len = fx.trained.profiles().schema().len();
    let mut out: Vec<RecommendRequest<'_>> = fx
        .rows
        .iter()
        .map(|(profile, offering, path)| RecommendRequest {
            profile: profile.iter().map(|v| v.as_deref()).collect(),
            offering: *offering,
            path: *path,
        })
        .collect();
    for &offering in ServerOffering::ALL.iter() {
        let path = ResourcePath::new(CustomerId(9999), SubscriptionId(1), ResourceGroupId(1));
        out.push(RecommendRequest {
            profile: vec![None; schema_len],
            offering,
            path,
        });
        out.push(RecommendRequest {
            profile: vec![Some("never-seen-in-training"); schema_len],
            offering,
            path,
        });
    }
    out
}

/// `Result` rendering that pins the recommendation and the error message
/// alike (`LorentzError` is not `PartialEq`).
fn render(result: &Result<Recommendation, LorentzError>) -> String {
    format!("{result:?}")
}

/// A one-shard λ store seeded from the deployment's batch personalizer.
fn lambda_store(trained: &TrainedLorentz) -> ShardedLambdaStore {
    ShardedLambdaStore::new(trained.personalizer().clone(), 1).unwrap()
}

/// Publishes `n` signals of strength `gamma` for `path` on every offering.
fn push_feedback(store: &ShardedLambdaStore, path: ResourcePath, gamma: f64, n: usize) {
    for _ in 0..n {
        for &offering in ServerOffering::ALL.iter() {
            store.apply_signal(&SatisfactionSignal::new(path, offering, gamma).unwrap());
        }
        store.publish_delta_for(&path);
    }
}

#[test]
fn live_model_without_lambdas_is_the_sequential_path() {
    let fx = fixture();
    for kind in KINDS {
        let engine = LiveModel::new(&fx.trained, kind, None);
        assert_eq!(engine.kind(), kind);
        for request in requests(fx) {
            assert_eq!(
                render(&engine.recommend_one(&request)),
                render(&fx.trained.recommend(&request, kind)),
                "{kind:?}"
            );
        }
    }
}

#[test]
fn a_fresh_lambda_snapshot_answers_like_the_batch_personalizer() {
    let fx = fixture();
    let lambdas = lambda_store(&fx.trained);
    for kind in KINDS {
        for request in requests(fx) {
            let snapshot = lambdas.snapshot_for(&request.path);
            let engine = fx.trained.live_engine_with_lambdas(kind, &snapshot);
            assert_eq!(
                render(&engine.recommend_one(&request)),
                render(&fx.trained.recommend(&request, kind)),
                "{kind:?}"
            );
        }
    }
}

#[test]
fn live_engine_with_lambdas_is_live_model_new_with_a_snapshot() {
    let fx = fixture();
    let lambdas = lambda_store(&fx.trained);
    for request in requests(fx).iter().take(12) {
        push_feedback(&lambdas, request.path, 1.0, 1);
    }
    for kind in KINDS {
        for request in requests(fx) {
            let snapshot = lambdas.snapshot_for(&request.path);
            assert_eq!(
                render(
                    &fx.trained
                        .live_engine_with_lambdas(kind, &snapshot)
                        .recommend_one(&request)
                ),
                render(&LiveModel::new(&fx.trained, kind, Some(&snapshot)).recommend_one(&request)),
            );
        }
    }
}

#[test]
fn store_only_without_lambdas_matches_the_hierarchical_live_model_capacity() {
    let fx = fixture();
    let engine = StoreOnly::new(&fx.trained, fx.trained.store(), None);
    let mut checked = 0;
    for request in requests(fx) {
        let Ok(live) = fx.trained.recommend(&request, ModelKind::Hierarchical) else {
            continue;
        };
        let stored = engine.recommend_one(&request).unwrap();
        assert_eq!(stored.sku.capacity, live.sku.capacity);
        checked += 1;
    }
    assert!(checked > 10, "only {checked} requests compared");
}

#[test]
fn store_only_over_a_sharded_snapshot_matches_the_flat_store() {
    let fx = fixture();
    let flat = StoreOnly::new(&fx.trained, fx.trained.store(), None);
    for shards in [1, 4, 16] {
        let sharded = ShardedPredictionStore::from_store(fx.trained.store(), shards).unwrap();
        let snapshot = sharded.snapshot();
        let engine = StoreOnly::new(&fx.trained, &snapshot, None);
        for request in requests(fx) {
            assert_eq!(
                render(&engine.recommend_one(&request)),
                render(&flat.recommend_one(&request)),
                "{shards} shards"
            );
        }
    }
}

#[test]
fn live_recommend_many_is_positional_recommend_one() {
    let fx = fixture();
    let mut batch = requests(fx);
    // An error in the middle of a batch stays in its slot.
    batch.insert(
        3,
        RecommendRequest {
            profile: vec![None],
            offering: ServerOffering::GeneralPurpose,
            path: ResourcePath::new(CustomerId(1), SubscriptionId(1), ResourceGroupId(1)),
        },
    );
    let lambdas = lambda_store(&fx.trained);
    push_feedback(&lambdas, batch[0].path, -1.0, 2);
    let snapshot = lambdas.snapshot_for(&batch[0].path);
    for kind in KINDS {
        for engine in [
            LiveModel::new(&fx.trained, kind, None),
            LiveModel::new(&fx.trained, kind, Some(&snapshot)),
        ] {
            let many = engine.recommend_many(&batch);
            assert_eq!(many.len(), batch.len());
            assert!(many[3].is_err());
            for (request, result) in batch.iter().zip(&many) {
                assert_eq!(render(result), render(&engine.recommend_one(request)));
            }
        }
    }
}

#[test]
fn store_recommend_many_is_positional_recommend_one() {
    let fx = fixture();
    let batch = requests(fx);
    let lambdas = lambda_store(&fx.trained);
    push_feedback(&lambdas, batch[1].path, 1.0, 3);
    let snapshot = lambdas.snapshot_for(&batch[1].path);
    for engine in [
        StoreOnly::new(&fx.trained, fx.trained.store(), None),
        StoreOnly::new(&fx.trained, fx.trained.store(), Some(&snapshot)),
    ] {
        let many = engine.recommend_many(&batch);
        assert_eq!(many.len(), batch.len());
        for (request, result) in batch.iter().zip(&many) {
            assert_eq!(render(result), render(&engine.recommend_one(request)));
        }
    }
}

#[test]
fn wrong_arity_profiles_are_typed_errors() {
    let fx = fixture();
    let schema_len = fx.trained.profiles().schema().len();
    let path = ResourcePath::new(CustomerId(1), SubscriptionId(1), ResourceGroupId(1));
    for len in [0, 1, schema_len + 1] {
        let request = RecommendRequest {
            profile: vec![None; len],
            offering: ServerOffering::GeneralPurpose,
            path,
        };
        let store_err = StoreOnly::new(&fx.trained, fx.trained.store(), None)
            .recommend_one(&request)
            .unwrap_err();
        assert!(
            matches!(store_err, LorentzError::InvalidProfile(_)),
            "{store_err:?}"
        );
        for kind in KINDS {
            let live_err = LiveModel::new(&fx.trained, kind, None)
                .recommend_one(&request)
                .unwrap_err();
            assert!(
                matches!(live_err, LorentzError::InvalidProfile(_)),
                "{kind:?} {len}: {live_err:?}"
            );
        }
    }
}

#[test]
fn positive_feedback_never_lowers_a_recommendation() {
    let fx = fixture();
    let lambdas = lambda_store(&fx.trained);
    let batch = requests(fx);
    for request in &batch {
        push_feedback(&lambdas, request.path, 1.0, 3);
    }
    let mut raised = 0;
    for request in &batch {
        let snapshot = lambdas.snapshot_for(&request.path);
        for kind in KINDS {
            let Ok(base) = fx.trained.recommend(request, kind) else {
                continue;
            };
            let tuned = LiveModel::new(&fx.trained, kind, Some(&snapshot))
                .recommend_one(request)
                .unwrap();
            assert!(tuned.sku.capacity.primary() >= base.sku.capacity.primary());
            raised += usize::from(tuned.sku.capacity.primary() > base.sku.capacity.primary());
        }
        let base = StoreOnly::new(&fx.trained, fx.trained.store(), None).recommend_one(request);
        let tuned =
            StoreOnly::new(&fx.trained, fx.trained.store(), Some(&snapshot)).recommend_one(request);
        if let (Ok(base), Ok(tuned)) = (base, tuned) {
            assert!(tuned.sku.capacity.primary() >= base.sku.capacity.primary());
        }
    }
    assert!(raised > 0, "three +1 signals moved no recommendation");
}

#[test]
fn negative_feedback_never_raises_a_recommendation() {
    let fx = fixture();
    let lambdas = lambda_store(&fx.trained);
    let batch = requests(fx);
    for request in &batch {
        push_feedback(&lambdas, request.path, -1.0, 3);
    }
    let mut lowered = 0;
    for request in &batch {
        let snapshot = lambdas.snapshot_for(&request.path);
        for kind in KINDS {
            let Ok(base) = fx.trained.recommend(request, kind) else {
                continue;
            };
            let tuned = LiveModel::new(&fx.trained, kind, Some(&snapshot))
                .recommend_one(request)
                .unwrap();
            assert!(tuned.sku.capacity.primary() <= base.sku.capacity.primary());
            lowered += usize::from(tuned.sku.capacity.primary() < base.sku.capacity.primary());
        }
    }
    assert!(lowered > 0, "three -1 signals moved no recommendation");
}

#[test]
fn an_engine_keeps_the_snapshot_it_was_built_with() {
    let fx = fixture();
    let lambdas = lambda_store(&fx.trained);
    let batch = requests(fx);
    let path = batch[0].path;
    let pinned = lambdas.snapshot_for(&path);
    let engine = LiveModel::new(&fx.trained, ModelKind::Hierarchical, Some(&pinned));
    let before: Vec<String> = batch
        .iter()
        .map(|r| render(&engine.recommend_one(r)))
        .collect();
    // Later publishes move λ for the same path but not the pinned epoch.
    push_feedback(&lambdas, path, 1.0, 4);
    assert!(lambdas.snapshot_for(&path).version() > pinned.version());
    let after: Vec<String> = batch
        .iter()
        .map(|r| render(&engine.recommend_one(r)))
        .collect();
    assert_eq!(before, after);
}

#[test]
fn a_reloaded_model_serves_identically() {
    let fx = fixture();
    let json = fx.trained.to_json().unwrap();
    let reloaded = TrainedLorentz::from_json(&json).unwrap();
    assert_eq!(reloaded.to_json().unwrap(), json);
    for request in requests(fx) {
        for kind in KINDS {
            assert_eq!(
                render(&reloaded.recommend(&request, kind)),
                render(&fx.trained.recommend(&request, kind))
            );
        }
        assert_eq!(
            render(&StoreOnly::new(&reloaded, reloaded.store(), None).recommend_one(&request)),
            render(&StoreOnly::new(&fx.trained, fx.trained.store(), None).recommend_one(&request))
        );
    }
}

#[test]
fn a_malformed_model_is_a_typed_error() {
    for json in ["", "{}", "[]", "{\"config\": 1}", "not json"] {
        let err = TrainedLorentz::from_json(json).unwrap_err();
        assert!(matches!(err, LorentzError::Model(_)), "{json:?}: {err:?}");
    }
    // Every strict prefix of a real model fails cleanly too.
    let json = fixture().trained.to_json().unwrap();
    for cut in (0..json.len()).step_by(json.len() / 97 + 1) {
        assert!(
            TrainedLorentz::from_json(&json[..cut]).is_err(),
            "prefix {cut}"
        );
    }
}
