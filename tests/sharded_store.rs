//! Property-based concurrency tests for the sharded serving state: shard
//! routing totality/stability, sharded ≡ unsharded lookup equivalence for
//! arbitrary key sets, torn-read freedom under racing per-shard publishes,
//! and N-shard ≡ one-shard λ equivalence under random signal streams.

use lorentz::core::store::PublishBatch;
use lorentz::core::{
    Personalizer, PersonalizerConfig, PredictionStore, SatisfactionSignal, ShardedLambdaStore,
    ShardedPredictionStore,
};
use lorentz::types::{
    CustomerId, FeatureId, ResourceGroupId, ResourcePath, ServerOffering, ShardRouter, StoreKey,
    SubscriptionId, ValueId,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn offering() -> impl Strategy<Value = ServerOffering> {
    (0u64..ServerOffering::ALL.len() as u64)
        .prop_map(|c| ServerOffering::from_code(c as u8).unwrap())
}

fn store_key() -> impl Strategy<Value = StoreKey> {
    (offering(), 0u64..=u16::MAX as u64, any::<u32>())
        .prop_map(|(o, f, v)| StoreKey::new(o, FeatureId(f as usize), ValueId(v)))
}

/// Power-of-two shard counts across the supported range (including the
/// 1-shard degenerate case and a deliberately large count).
fn shard_count() -> impl Strategy<Value = usize> {
    (0u32..=10).prop_map(|log2| 1usize << log2)
}

proptest! {
    /// Routing is total and stable: every packed key maps to exactly one
    /// in-range shard, the mapping is a pure function of (key, count), and
    /// the u128 path routing obeys the same contract.
    #[test]
    fn shard_routing_is_total_and_stable(
        shards in shard_count(),
        keys in collection::vec(any::<u64>(), 1..64),
        path_key_halves in collection::vec((any::<u64>(), any::<u64>()), 1..64),
    ) {
        let router = ShardRouter::new(shards).unwrap();
        prop_assert_eq!(router.shards(), shards);
        for &key in &keys {
            let shard = router.route_u64(key);
            prop_assert!(shard < shards, "key {key} routed out of range: {shard}");
            // Stable: the same key re-routes identically, on this router
            // and on a freshly built router of the same count.
            prop_assert_eq!(router.route_u64(key), shard);
            prop_assert_eq!(ShardRouter::new(shards).unwrap().route_u64(key), shard);
        }
        for &(hi, lo) in &path_key_halves {
            let key = (u128::from(hi) << 64) | u128::from(lo);
            let shard = router.route_u128(key);
            prop_assert!(shard < shards, "path key {key} routed out of range: {shard}");
            prop_assert_eq!(router.route_u128(key), shard);
        }
    }

    /// Sharded lookup ≡ unsharded lookup for arbitrary key sets: same
    /// capacity, same explanation, same error, across every shard count —
    /// probing present keys, absent keys, and the default fallback.
    #[test]
    fn sharded_lookup_matches_unsharded_for_arbitrary_key_sets(
        shards in shard_count(),
        entries in collection::vec((store_key(), 0.1f64..100.0), 1..48),
        default_capacity in (any::<bool>(), 0.1f64..100.0).prop_map(|(some, c)| some.then_some(c)),
        probe_offering in offering(),
        absent in store_key(),
    ) {
        // Dedup: PublishBatch accepts duplicate keys (last wins) but the
        // comparison is cleaner over a deterministic set.
        let mut unique: HashMap<u64, (StoreKey, f64)> = HashMap::new();
        for (key, capacity) in entries {
            unique.insert(key.pack(), (key, capacity));
        }
        let entries: Vec<(StoreKey, f64)> = unique.into_values().collect();
        let batch = PublishBatch {
            entries: entries.clone(),
            defaults: default_capacity
                .map(|c| vec![(probe_offering, c)])
                .unwrap_or_default(),
        };
        let mut flat = PredictionStore::new();
        flat.publish(batch.clone()).unwrap();
        let sharded = ShardedPredictionStore::new(shards).unwrap();
        sharded.publish(batch).unwrap();
        prop_assert_eq!(sharded.len(), flat.len());
        // Probe every published key at its own level, an absent key, and
        // a multi-level stack that falls through to the default.
        // `LorentzError` is not `PartialEq`; the debug rendering pins the
        // full result — capacity, explanation, and error message alike.
        let snapshot = sharded.snapshot();
        for (key, _) in &entries {
            let (offering, feature, value) = (key.offering, key.feature, key.value);
            let levels = [(feature, value)];
            prop_assert_eq!(
                format!("{:?}", snapshot.lookup(offering, &levels)),
                format!("{:?}", flat.lookup(offering, &levels))
            );
        }
        let absent_levels = [(absent.feature, absent.value)];
        prop_assert_eq!(
            format!("{:?}", snapshot.lookup(absent.offering, &absent_levels)),
            format!("{:?}", flat.lookup(absent.offering, &absent_levels))
        );
        prop_assert_eq!(
            format!("{:?}", snapshot.lookup(probe_offering, &[])),
            format!("{:?}", flat.lookup(probe_offering, &[]))
        );
    }
}

/// A batch that fills `shard` of an N-shard store with uniform capacity
/// `c`: every key from the pool that routes to `shard`.
fn shard_batch(pool: &[StoreKey], router: &ShardRouter, shard: usize, c: f64) -> PublishBatch {
    PublishBatch {
        entries: pool
            .iter()
            .filter(|k| router.route_u64(k.pack()) == shard)
            .map(|&k| (k, c))
            .collect(),
        defaults: Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A cross-shard `lookup_batch` racing a stream of per-shard publishes
    /// never observes a torn shard: the hot shard's keys always carry ONE
    /// publish's uniform value, the untouched shards never move off their
    /// seed value, and the store version stays monotone.
    #[test]
    fn per_shard_publish_never_tears_cross_shard_batches(
        n_publishes in 1usize..24,
        hot_shard in 0usize..8,
    ) {
        let shards = 8usize;
        let router = ShardRouter::new(shards).unwrap();
        // Enough keys that every shard owns a few.
        let pool: Vec<StoreKey> = (0..64)
            .map(|i| StoreKey::new(ServerOffering::GeneralPurpose, FeatureId(i), ValueId(i as u32)))
            .collect();
        let store = Arc::new(ShardedPredictionStore::new(shards).unwrap());
        store
            .publish(PublishBatch {
                entries: pool.iter().map(|&k| (k, 1.0)).collect(),
                defaults: Vec::new(),
            })
            .unwrap();
        let done = Arc::new(AtomicBool::new(false));
        let publisher = {
            let store = Arc::clone(&store);
            let done = Arc::clone(&done);
            let pool = pool.clone();
            std::thread::spawn(move || {
                for round in 0..n_publishes {
                    store
                        .publish_shard(
                            hot_shard,
                            shard_batch(&pool, &router, hot_shard, 2.0 + round as f64),
                        )
                        .unwrap();
                }
                done.store(true, Ordering::Release);
            })
        };
        let levels: Vec<[(FeatureId, ValueId); 1]> = pool
            .iter()
            .map(|k| [(k.feature, k.value)])
            .collect();
        let requests: Vec<(ServerOffering, &[(FeatureId, ValueId)])> = levels
            .iter()
            .map(|l| (ServerOffering::GeneralPurpose, &l[..]))
            .collect();
        let mut out = Vec::new();
        let mut last_version = 0u64;
        let mut rounds = 0usize;
        while rounds < 2 || !done.load(Ordering::Acquire) {
            rounds += 1;
            let version = store.version();
            prop_assert!(version >= last_version, "version went backwards");
            last_version = version;
            out.clear();
            store.lookup_batch(&requests, &mut out);
            let mut hot_value: Option<f64> = None;
            for (key, result) in pool.iter().zip(&out) {
                let (capacity, _) = result.as_ref().expect("every pool key is resident");
                if router.route_u64(key.pack()) == hot_shard {
                    // All hot-shard keys in one pinned batch agree: a torn
                    // read would mix uniform values from two publishes.
                    // A torn read would mix uniform values from two
                    // publishes inside one pinned batch.
                    let expected = *hot_value.get_or_insert(*capacity);
                    prop_assert_eq!(*capacity, expected);
                } else {
                    // Untouched shards never move off their seed value.
                    prop_assert_eq!(*capacity, 1.0);
                }
            }
        }
        publisher.join().unwrap();
        prop_assert_eq!(store.version(), 1 + n_publishes as u64);
    }

    /// N-shard λ serving ≡ one-shard λ serving under an arbitrary signal
    /// stream: after each publish, every affected customer reads the same
    /// λ through `snapshot_for` at any shard count, and both stores mint
    /// the same global epochs.
    #[test]
    fn sharded_lambdas_match_one_shard_under_random_signals(
        signals in collection::vec((0u32..24, -1.0f64..=1.0), 1..16),
        shards in shard_count(),
    ) {
        let mut personalizer = Personalizer::new(PersonalizerConfig::default()).unwrap();
        for customer in 0..24 {
            for rg in 0..3 {
                personalizer.register(ResourcePath::new(
                    CustomerId(customer),
                    SubscriptionId(0),
                    ResourceGroupId(rg),
                ));
            }
        }
        let one = ShardedLambdaStore::new(personalizer.clone(), 1).unwrap();
        let sharded = ShardedLambdaStore::new(personalizer, shards).unwrap();
        for (customer, gamma) in signals {
            let path =
                ResourcePath::new(CustomerId(customer), SubscriptionId(0), ResourceGroupId(0));
            let signal =
                SatisfactionSignal::new(path, ServerOffering::GeneralPurpose, gamma).unwrap();
            one.apply_signal(&signal);
            sharded.apply_signal(&signal);
            prop_assert_eq!(
                one.publish_delta_for(&path),
                sharded.publish_delta_for(&path)
            );
            for rg in 0..3 {
                let probe =
                    ResourcePath::new(CustomerId(customer), SubscriptionId(0), ResourceGroupId(rg));
                prop_assert_eq!(
                    sharded
                        .snapshot_for(&probe)
                        .lambda(&probe, ServerOffering::GeneralPurpose),
                    one.snapshot_for(&probe).lambda(&probe, ServerOffering::GeneralPurpose)
                );
            }
        }
    }
}
