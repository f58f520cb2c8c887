//! Property-based tests of the typed-key serving engine: packed store-key
//! round trips and batched-vs-single recommend equivalence on random fleets.

use lorentz::core::{
    LiveModel, LorentzConfig, LorentzPipeline, ModelKind, RecommendEngine, RecommendRequest,
    StoreOnly, TrainedLorentz,
};
use lorentz::simdata::fleet::FleetConfig;
use lorentz::types::{
    CustomerId, FeatureId, ResourceGroupId, ResourcePath, ServerOffering, StoreKey, SubscriptionId,
    ValueId,
};
use proptest::prelude::*;

fn offering() -> impl Strategy<Value = ServerOffering> {
    (0u64..ServerOffering::ALL.len() as u64)
        .prop_map(|c| ServerOffering::from_code(c as u8).unwrap())
}

/// The live-model engine over `trained`'s batch personalizer.
fn live(trained: &TrainedLorentz, kind: ModelKind) -> LiveModel<'_> {
    LiveModel::new(trained, kind, None)
}

/// The engine over `trained`'s own prediction store.
fn store(trained: &TrainedLorentz) -> StoreOnly<'_> {
    StoreOnly::new(trained, trained.store(), None)
}

proptest! {
    /// `unpack(pack(k)) == k` over the full packed layout: every offering
    /// code, the whole 16-bit feature range, and arbitrary value ids.
    #[test]
    fn storekey_pack_roundtrips(
        o in offering(),
        feature in 0u64..=u16::MAX as u64,
        value in any::<u32>(),
    ) {
        let key = StoreKey::new(o, FeatureId(feature as usize), ValueId(value));
        let packed = key.pack();
        prop_assert_eq!(StoreKey::unpack(packed), Some(key));
        // The string form (the JSON snapshot encoding) round-trips too.
        prop_assert_eq!(key.to_string().parse::<StoreKey>().unwrap(), key);
    }

    /// Corrupted packings — non-zero top byte or an unknown offering code —
    /// never unpack into a key.
    #[test]
    fn storekey_rejects_corrupt_packings(
        top in 1u64..=u8::MAX as u64,
        code in ServerOffering::ALL.len() as u64..=u8::MAX as u64,
        low in any::<u64>(),
    ) {
        prop_assert_eq!(StoreKey::unpack((top << 56) | (low >> 8)), None);
        prop_assert_eq!(StoreKey::unpack((code << 48) | (low >> 16)), None);
    }
}

/// A random request mix: values sampled from the trained model's own
/// vocabularies (guaranteed store hits), values the model never saw,
/// missing tags, and one wrong-arity profile.
fn request_profiles(seed: u64, table: &lorentz::types::ProfileTable) -> Vec<Vec<Option<String>>> {
    let mut rng = proptest::TestRng::new(seed);
    let mut profiles = Vec::new();
    for _ in 0..12 {
        let profile = table
            .schema()
            .feature_ids()
            .map(|f| {
                let vocab = table.vocab(f);
                match rng.below(4) {
                    0 => None,
                    1 => Some(format!("unseen-{}", rng.below(1000))),
                    _ if !vocab.is_empty() => {
                        Some(vocab.value(rng.below(vocab.len() as u64) as u32).to_owned())
                    }
                    _ => None,
                }
            })
            .collect();
        profiles.push(profile);
    }
    profiles.push(vec![Some("wrong-arity".to_owned())]); // encode must fail
    profiles
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    /// `recommend_batch` (and the store-backed variant) is positionally
    /// identical to issuing each request through the single-request entry
    /// points, across random fleets and malformed inputs.
    #[test]
    fn batched_serving_equals_single_serving(seed in 1u64..1_000) {
        let fleet = FleetConfig {
            n_servers: 60 + (seed as usize % 40),
            seed,
            ..FleetConfig::default()
        }
        .generate()
        .unwrap()
        .fleet;
        let trained = LorentzPipeline::new(LorentzConfig::paper_defaults())
            .unwrap()
            .train(&fleet)
            .unwrap();

        let profiles = request_profiles(seed ^ 0xabcd, trained.profiles());
        let requests: Vec<RecommendRequest<'_>> = profiles
            .iter()
            .enumerate()
            .map(|(i, p)| RecommendRequest {
                profile: p.iter().map(|v| v.as_deref()).collect(),
                offering: ServerOffering::ALL[i % ServerOffering::ALL.len()],
                path: ResourcePath::new(
                    CustomerId(i as u32 % 5),
                    SubscriptionId(i as u32 % 3),
                    ResourceGroupId(i as u32),
                ),
            })
            .collect();

        for kind in [ModelKind::Hierarchical, ModelKind::TargetEncoding] {
            let batched = live(&trained, kind).recommend_many(&requests);
            prop_assert_eq!(batched.len(), requests.len());
            for (r, b) in requests.iter().zip(&batched) {
                match (trained.recommend(r, kind), b) {
                    (Ok(single), Ok(batch)) => prop_assert_eq!(&single, batch),
                    (Err(_), Err(_)) => {}
                    (s, b) => prop_assert!(false, "single={s:?} batch={b:?}"),
                }
            }
        }
        let batched = store(&trained).recommend_many(&requests);
        prop_assert_eq!(batched.len(), requests.len());
        for (r, b) in requests.iter().zip(&batched) {
            match (store(&trained).recommend_one(r), b) {
                (Ok(single), Ok(batch)) => prop_assert_eq!(&single, batch),
                (Err(_), Err(_)) => {}
                (s, b) => prop_assert!(false, "single={s:?} batch={b:?}"),
            }
        }
    }
}

/// A small trained pipeline plus one profile drawn from its own vocabulary,
/// shared by the batch edge-case tests below.
fn tiny_trained() -> (TrainedLorentz, Vec<Option<String>>) {
    let fleet = FleetConfig {
        n_servers: 80,
        seed: 424242,
        ..FleetConfig::default()
    }
    .generate()
    .unwrap()
    .fleet;
    let trained = LorentzPipeline::new(LorentzConfig::paper_defaults())
        .unwrap()
        .train(&fleet)
        .unwrap();
    let profile = trained
        .profiles()
        .schema()
        .feature_ids()
        .map(|f| {
            let vocab = trained.profiles().vocab(f);
            (!vocab.is_empty()).then(|| vocab.value(0).to_owned())
        })
        .collect();
    (trained, profile)
}

fn request_at<'a>(profile: &'a [Option<String>], i: u32) -> RecommendRequest<'a> {
    RecommendRequest {
        profile: profile.iter().map(|v| v.as_deref()).collect(),
        offering: ServerOffering::GeneralPurpose,
        path: ResourcePath::new(CustomerId(1), SubscriptionId(1), ResourceGroupId(i)),
    }
}

#[test]
fn empty_batch_serves_zero_results() {
    let (trained, _) = tiny_trained();
    let requests: Vec<RecommendRequest<'_>> = Vec::new();
    for kind in [ModelKind::Hierarchical, ModelKind::TargetEncoding] {
        assert!(live(&trained, kind).recommend_many(&requests).is_empty());
    }
    assert!(store(&trained).recommend_many(&requests).is_empty());
}

#[test]
fn single_element_batch_equals_single_request() {
    let (trained, profile) = tiny_trained();
    let requests = vec![request_at(&profile, 0)];
    for kind in [ModelKind::Hierarchical, ModelKind::TargetEncoding] {
        let batched = live(&trained, kind).recommend_many(&requests);
        assert_eq!(batched.len(), 1);
        assert_eq!(
            batched[0].as_ref().unwrap(),
            &trained.recommend(&requests[0], kind).unwrap()
        );
    }
    let batched = store(&trained).recommend_many(&requests);
    assert_eq!(batched.len(), 1);
    assert_eq!(
        batched[0].as_ref().unwrap(),
        &store(&trained).recommend_one(&requests[0]).unwrap()
    );
}

#[test]
fn duplicate_profile_batch_repeats_the_single_answer() {
    // A batch of N identical requests must return the single-request answer
    // N times — batching must not share or mutate state across positions.
    let (trained, profile) = tiny_trained();
    let requests: Vec<RecommendRequest<'_>> = (0..8).map(|_| request_at(&profile, 3)).collect();
    for kind in [ModelKind::Hierarchical, ModelKind::TargetEncoding] {
        let single = trained.recommend(&requests[0], kind).unwrap();
        let batched = live(&trained, kind).recommend_many(&requests);
        assert_eq!(batched.len(), requests.len());
        for b in &batched {
            assert_eq!(b.as_ref().unwrap(), &single);
        }
    }
    let single = store(&trained).recommend_one(&requests[0]).unwrap();
    for b in &store(&trained).recommend_many(&requests) {
        assert_eq!(b.as_ref().unwrap(), &single);
    }
}
