//! The follower side of λ replication: [`ShardedLambdaStore::apply_delta`]
//! and the epoch bookkeeping around it. A follower replays the leader's
//! epoch-stamped deltas into its own store; these tests pin the replay
//! contract — stale epochs are typed errors that change nothing, gaps and
//! empty deltas are legal, entries land in their customers' shards, and
//! any leader/follower shard-count pairing converges bit for bit.

use lorentz::core::{Personalizer, PersonalizerConfig, SatisfactionSignal, ShardedLambdaStore};
use lorentz::types::{
    CustomerId, DeltaCorruption, LambdaDelta, LorentzError, ResourceGroupId, ResourcePath,
    ServerOffering, SubscriptionId,
};
use proptest::prelude::*;

const GP: ServerOffering = ServerOffering::GeneralPurpose;

fn path(customer: u32, rg: u32) -> ResourcePath {
    ResourcePath::new(CustomerId(customer), SubscriptionId(0), ResourceGroupId(rg))
}

/// A personalizer with `customers` customers of two resource groups each.
fn personalizer(customers: u32) -> Personalizer {
    let mut p = Personalizer::new(PersonalizerConfig::default()).unwrap();
    for customer in 0..customers {
        for rg in 0..2 {
            p.register(path(customer, rg));
        }
    }
    p
}

fn store(shards: usize) -> ShardedLambdaStore {
    ShardedLambdaStore::new(personalizer(16), shards).unwrap()
}

/// Applies one signal on `leader` and returns the delta it publishes.
fn signal_delta(leader: &ShardedLambdaStore, customer: u32, gamma: f64) -> LambdaDelta {
    let p = path(customer, 0);
    leader.apply_signal(&SatisfactionSignal::new(p, GP, gamma).unwrap());
    leader.publish_delta_for(&p)
}

fn lambda(store: &ShardedLambdaStore, p: &ResourcePath) -> f64 {
    store.snapshot_for(p).lambda(p, GP)
}

#[test]
fn redelivered_epoch_is_rejected_and_changes_nothing() {
    let leader = store(1);
    let follower = store(1);
    let delta = signal_delta(&leader, 3, 1.0);
    assert_eq!(follower.apply_delta(&delta), Ok(delta.epoch));
    let before = lambda(&follower, &path(3, 0));

    // The same record again (a re-delivered frame) is refused as stale.
    let err = follower.apply_delta(&delta).unwrap_err();
    assert_eq!(
        err,
        DeltaCorruption::EpochRegression {
            current: delta.epoch,
            got: delta.epoch,
        }
    );
    assert_eq!(follower.version(), delta.epoch);
    assert_eq!(lambda(&follower, &path(3, 0)), before);
}

#[test]
fn older_epoch_is_rejected_after_a_newer_one() {
    let leader = store(1);
    let follower = store(1);
    let first = signal_delta(&leader, 1, 1.0);
    let second = signal_delta(&leader, 2, -1.0);
    follower.apply_delta(&second).unwrap();
    let err = follower.apply_delta(&first).unwrap_err();
    assert_eq!(
        err,
        DeltaCorruption::EpochRegression {
            current: second.epoch,
            got: first.epoch,
        }
    );
    // The skipped record's customer never saw its λ change.
    assert_eq!(lambda(&follower, &path(1, 0)), 0.0);
}

#[test]
fn rejected_delta_converts_to_a_typed_lorentz_error() {
    let follower = store(1);
    let err: LorentzError = follower
        .apply_delta(&LambdaDelta::new(1, Vec::new()))
        .unwrap_err()
        .into();
    assert!(matches!(
        err,
        LorentzError::Delta(DeltaCorruption::EpochRegression { current: 1, got: 1 })
    ));
}

#[test]
fn empty_delta_still_advances_the_epoch() {
    for shards in [1, 4] {
        let follower = store(shards);
        assert_eq!(
            follower.apply_delta(&LambdaDelta::new(7, Vec::new())),
            Ok(7)
        );
        assert_eq!(follower.version(), 7);
        // Shard 0 always publishes, so the bump is visible to readers.
        assert_eq!(follower.snapshot_shard(0).unwrap().version(), 7);
        // The next stale copy of that epoch is refused.
        assert!(follower
            .apply_delta(&LambdaDelta::new(7, Vec::new()))
            .is_err());
    }
}

#[test]
fn epoch_gaps_are_tolerated() {
    let leader = store(1);
    let follower = store(1);
    let deltas: Vec<LambdaDelta> = (0..4).map(|c| signal_delta(&leader, c, 0.5)).collect();
    // Skipping epochs in between is legal as long as they advance.
    follower.apply_delta(&deltas[0]).unwrap();
    follower.apply_delta(&deltas[3]).unwrap();
    assert_eq!(follower.version(), deltas[3].epoch);
    assert_eq!(lambda(&follower, &path(3, 0)), lambda(&leader, &path(3, 0)));
    assert_eq!(lambda(&follower, &path(1, 0)), 0.0);
}

#[test]
fn entries_land_in_their_customers_shards() {
    let leader = store(1);
    for customer in 0..16 {
        let p = path(customer, 0);
        leader.apply_signal(&SatisfactionSignal::new(p, GP, 1.0).unwrap());
    }
    // One bulk publish on the one-shard leader: every customer in one delta.
    let delta = leader.publish_delta_for(&path(0, 0));
    assert_eq!(
        delta.entries.len(),
        32,
        "both resource groups of 16 customers"
    );

    let follower = store(8);
    follower.apply_delta(&delta).unwrap();
    for customer in 0..16 {
        for rg in 0..2 {
            let p = path(customer, rg);
            let shard = follower.snapshot_shard(follower.shard_of(&p)).unwrap();
            assert_eq!(shard.version(), delta.epoch, "owning shard publishes");
            assert_eq!(shard.lambda(&p, GP), lambda(&leader, &p));
        }
    }
}

#[test]
fn shards_without_entries_keep_their_epoch() {
    let leader = store(1);
    let follower = store(8);
    let touched = path(5, 0);
    let delta = signal_delta(&leader, 5, 1.0);
    follower.apply_delta(&delta).unwrap();
    let owner = follower.shard_of(&touched);
    for shard in 0..follower.shards() {
        let version = follower.snapshot_shard(shard).unwrap().version();
        if shard == owner || shard == 0 {
            assert_eq!(version, delta.epoch, "shard {shard}");
        } else {
            assert_eq!(version, 1, "shard {shard} must not swap");
        }
    }
}

#[test]
fn packed_delta_replays_like_the_original() {
    let leader = store(2);
    let via_struct = store(1);
    let via_bytes = store(1);
    for (customer, gamma) in [(4, 1.0), (9, -0.5), (4, 0.25)] {
        let delta = signal_delta(&leader, customer, gamma);
        let unpacked = LambdaDelta::unpack(&delta.pack()).unwrap();
        assert_eq!(unpacked, delta);
        via_struct.apply_delta(&delta).unwrap();
        via_bytes.apply_delta(&unpacked).unwrap();
    }
    for customer in 0..16 {
        let p = path(customer, 0);
        assert_eq!(
            lambda(&via_bytes, &p).to_bits(),
            lambda(&via_struct, &p).to_bits()
        );
    }
}

#[test]
fn restore_epoch_continues_the_numbering() {
    let store = store(4);
    assert_eq!(store.restore_epoch(40), 40);
    for shard in 0..4 {
        assert_eq!(store.snapshot_shard(shard).unwrap().version(), 40);
    }
    let delta = signal_delta(&store, 2, 1.0);
    assert_eq!(delta.epoch, 41);
    assert_eq!(store.version(), 41);
}

#[test]
fn restore_epoch_never_rewinds() {
    let store = store(1);
    for customer in 0..4 {
        signal_delta(&store, customer, 1.0);
    }
    assert_eq!(store.version(), 5);
    assert_eq!(store.restore_epoch(2), 5);
    assert_eq!(store.version(), 5);
    assert_eq!(signal_delta(&store, 0, 1.0).epoch, 6);
}

#[test]
fn bulk_publish_mints_one_epoch_per_shard() {
    let store = store(4);
    assert_eq!(store.publish(), 5);
    assert_eq!(store.version(), 5);
    // Each shard published at its own minted epoch: all distinct.
    let mut epochs: Vec<u64> = (0..4)
        .map(|s| store.snapshot_shard(s).unwrap().version())
        .collect();
    epochs.sort_unstable();
    assert_eq!(epochs, vec![2, 3, 4, 5]);
}

#[test]
fn out_of_range_shard_index_is_a_typed_error() {
    let store = store(4);
    assert!(store.snapshot_shard(3).is_ok());
    let err = store.snapshot_shard(4).unwrap_err();
    assert!(matches!(err, LorentzError::InvalidConfig(_)), "{err:?}");
    assert!(err.to_string().contains("out of range"), "{err}");
}

#[test]
fn shard_counts_must_be_powers_of_two() {
    for bad in [0, 3, 6, 12] {
        let err = ShardedLambdaStore::new(personalizer(2), bad).unwrap_err();
        assert!(
            matches!(err, LorentzError::InvalidConfig(_)),
            "{bad}: {err:?}"
        );
    }
    for good in [1, 2, 8, 64] {
        assert_eq!(
            ShardedLambdaStore::new(personalizer(2), good)
                .unwrap()
                .shards(),
            good
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A follower of any shard count that replays every delta of a leader
    /// of any shard count ends at the leader's epoch with the leader's λ
    /// for every registered path, bit for bit.
    #[test]
    fn follower_replay_converges_for_any_shard_counts(
        signals in collection::vec((0u32..16, -1.0f64..=1.0), 1..24),
        leader_log2 in 0u32..4,
        follower_log2 in 0u32..4,
    ) {
        let leader = store(1 << leader_log2);
        let follower = store(1 << follower_log2);
        for (customer, gamma) in signals {
            let delta = signal_delta(&leader, customer, gamma);
            prop_assert_eq!(follower.apply_delta(&delta), Ok(delta.epoch));
        }
        prop_assert_eq!(follower.version(), leader.version());
        for customer in 0..16 {
            for rg in 0..2 {
                let p = path(customer, rg);
                prop_assert_eq!(lambda(&follower, &p).to_bits(), lambda(&leader, &p).to_bits());
            }
        }
    }

    /// A published delta only carries paths of the shard that published
    /// it, whatever else is pending on other shards.
    #[test]
    fn a_delta_only_carries_its_owning_shard(
        signals in collection::vec((0u32..16, -1.0f64..=1.0), 1..16),
        probe in 0u32..16,
    ) {
        let store = store(4);
        for &(customer, gamma) in &signals {
            store.apply_signal(&SatisfactionSignal::new(path(customer, 1), GP, gamma).unwrap());
        }
        let owner = store.shard_of(&path(probe, 0));
        let delta = store.publish_delta_for(&path(probe, 0));
        for (key, _) in &delta.entries {
            prop_assert_eq!(store.shard_of(&key.path()), owner);
        }
    }
}
