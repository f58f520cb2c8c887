//! The sharded prediction store: N per-shard atomic-Arc snapshot slots
//! behind one multiply-fold router — the concurrent serving store.
//!
//! Each shard is an immutable `Arc<PredictionStore>` in a mutex-guarded
//! slot: readers take the lock only long enough to clone the `Arc` (a
//! refcount bump, no data copy) and probe lock-free; publishers build the
//! next snapshot off to the side and swap the pointer, so readers never
//! wait on a publisher — the in-process analogue of the §4 online store's
//! copy-then-switch deployment. [`ShardedPredictionStore`] splits the
//! packed-`u64` key space across N power-of-two shards selected by a
//! [`ShardRouter`](lorentz_types::ShardRouter) multiply-fold of the packed
//! key — the same discipline the λ-tables hash with — so:
//!
//! * a **full publish** validates once, splits the batch by routed shard,
//!   and swaps each shard's `Arc` in turn (no global reader lock, ever);
//! * a **per-shard publish** ([`ShardedPredictionStore::publish_shard`])
//!   touches exactly one slot — readers of the other N−1 shards never
//!   observe so much as a pointer swap;
//! * a **lookup** probes each hierarchy level in the one shard that could
//!   hold it, preserving the most-granular-first fallback semantics of
//!   [`PredictionStore::lookup`] bit for bit (the shard-equivalence
//!   proptest pins `N shards ≡ 1 shard` for arbitrary key sets);
//! * a **batched lookup** pins all N shard snapshots once (N refcount
//!   bumps), so a whole batch reads a frozen per-shard world while
//!   publishers keep swapping.
//!
//! Per-offering defaults are replicated into every shard on a full
//! publish and *served from shard 0*, which therefore owns them across
//! per-shard publishes.

use super::{PredictionStore, PublishBatch};
use crate::explain::Explanation;
use crate::obs;
use lorentz_types::{FeatureId, LorentzError, ServerOffering, ShardRouter, StoreKey, ValueId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A [`PredictionStore`] split across N power-of-two shards, each behind
/// its own atomic-Arc snapshot slot. See the module docs for the routing
/// and publish contracts.
#[derive(Debug)]
pub struct ShardedPredictionStore {
    router: ShardRouter,
    /// One hot-swap slot per shard; readers clone the `Arc` out (refcount
    /// bump) and probe lock-free.
    shards: Box<[parking_lot::Mutex<Arc<PredictionStore>>]>,
    /// Serializes publishers so the global version stays monotone; readers
    /// never take it.
    publish_lock: parking_lot::Mutex<()>,
    /// The version stamped on the most recent publish (0 = nothing
    /// published yet).
    version: AtomicU64,
}

impl ShardedPredictionStore {
    /// An empty sharded store at version 0.
    ///
    /// # Errors
    /// [`LorentzError::InvalidConfig`] unless `shards` is a power of two
    /// (see [`ShardRouter::new`]).
    pub fn new(shards: usize) -> Result<Self, LorentzError> {
        let router = ShardRouter::new(shards)?;
        let slots = (0..router.shards())
            .map(|_| parking_lot::Mutex::new(Arc::new(PredictionStore::new())))
            .collect();
        Ok(Self {
            router,
            shards: slots,
            publish_lock: parking_lot::Mutex::new(()),
            version: AtomicU64::new(0),
        })
    }

    /// Splits an existing store across `shards` shards, preserving its
    /// version and replicating its per-offering defaults into every shard.
    ///
    /// # Errors
    /// [`LorentzError::InvalidConfig`] for an invalid shard count.
    pub fn from_store(store: &PredictionStore, shards: usize) -> Result<Self, LorentzError> {
        let router = ShardRouter::new(shards)?;
        let mut maps: Vec<HashMap<u64, f64>> = vec![HashMap::new(); router.shards()];
        for (&packed, &capacity) in &store.entries {
            maps[router.route_u64(packed)].insert(packed, capacity);
        }
        let slots = maps
            .into_iter()
            .map(|entries| {
                parking_lot::Mutex::new(Arc::new(PredictionStore {
                    version: store.version,
                    entries,
                    defaults: store.defaults,
                }))
            })
            .collect();
        Ok(Self {
            router,
            shards: slots,
            publish_lock: parking_lot::Mutex::new(()),
            version: AtomicU64::new(store.version),
        })
    }

    /// How many shards the key space is split across.
    pub fn shards(&self) -> usize {
        self.router.shards()
    }

    /// The shard a packed [`StoreKey`] routes to — total and stable, a
    /// pure function of the packed key and the shard count.
    pub fn shard_of_packed(&self, packed: u64) -> usize {
        self.router.route_u64(packed)
    }

    /// Atomically replaces the whole store: the batch is validated once,
    /// split by routed shard, and each shard's snapshot is swapped in
    /// turn. Readers never take a global lock — a concurrent batched
    /// lookup pins whatever per-shard snapshots were current when it
    /// started; each individual shard is torn-read-free.
    ///
    /// # Errors
    /// [`LorentzError::InvalidConfig`] for invalid capacities; no shard is
    /// touched.
    pub fn publish(&self, batch: PublishBatch) -> Result<u64, LorentzError> {
        // Validate and build off to the side (one staged store carries the
        // validated entries and the parsed defaults array).
        let mut staged = PredictionStore::new();
        staged.publish(batch)?;
        let mut maps: Vec<HashMap<u64, f64>> = vec![HashMap::new(); self.router.shards()];
        for (&packed, &capacity) in &staged.entries {
            maps[self.router.route_u64(packed)].insert(packed, capacity);
        }
        let _publish = self.publish_lock.lock();
        let version = self.version.load(Ordering::Relaxed) + 1;
        for (slot, entries) in self.shards.iter().zip(maps) {
            *slot.lock() = Arc::new(PredictionStore {
                version,
                entries,
                defaults: staged.defaults,
            });
        }
        self.version.store(version, Ordering::Relaxed);
        Ok(version)
    }

    /// Replaces the contents of one shard only — the hot-swap path a
    /// shard-local re-publish takes. Every batch entry must route to
    /// `shard` (a misrouted key would make lookups miss it); defaults in
    /// the batch become that shard's defaults, but only shard 0's defaults
    /// are ever served.
    ///
    /// # Errors
    /// [`LorentzError::InvalidConfig`] for an out-of-range shard index, a
    /// misrouted key, or invalid capacities; no shard is touched.
    pub fn publish_shard(&self, shard: usize, batch: PublishBatch) -> Result<u64, LorentzError> {
        if shard >= self.router.shards() {
            return Err(LorentzError::InvalidConfig(format!(
                "shard {shard} out of range (store has {} shards)",
                self.router.shards()
            )));
        }
        for (key, _) in &batch.entries {
            let routed = self.router.route_u64(key.pack());
            if routed != shard {
                return Err(LorentzError::InvalidConfig(format!(
                    "key {key} routes to shard {routed}, not {shard}"
                )));
            }
        }
        let mut staged = PredictionStore::new();
        staged.publish(batch)?;
        let _publish = self.publish_lock.lock();
        let version = self.version.load(Ordering::Relaxed) + 1;
        staged.version = version;
        *self.shards[shard].lock() = Arc::new(staged);
        self.version.store(version, Ordering::Relaxed);
        Ok(version)
    }

    /// Pins every shard's current snapshot (N refcount bumps, no data
    /// copy). The returned view is immutable: publishes swap in new
    /// snapshots and never touch one already handed out.
    pub fn snapshot(&self) -> ShardedStoreSnapshot {
        ShardedStoreSnapshot {
            shards: self.shards.iter().map(|slot| slot.lock().clone()).collect(),
            router: self.router,
        }
    }

    /// Serves a lookup against the current per-shard snapshots, counting
    /// the outcome into the `store.lookup.{hits,defaults,misses}`
    /// counters.
    ///
    /// # Errors
    /// See [`PredictionStore::lookup`].
    pub fn lookup(
        &self,
        offering: ServerOffering,
        levels: &[(FeatureId, ValueId)],
    ) -> Result<(f64, Explanation), LorentzError> {
        let result = self.snapshot().lookup(offering, levels);
        match &result {
            Ok((_, Explanation::StoreLookup { key: Some(_), .. })) => obs::STORE_HITS.inc(),
            Ok(_) => obs::STORE_DEFAULTS.inc(),
            Err(_) => obs::STORE_MISSES.inc(),
        }
        result
    }

    /// Serves many lookups against one pinned set of shard snapshots,
    /// appending one result per request to `out`. Metrics are amortized
    /// with the batch: one `store.lookup_batch.span_ns` observation and one
    /// update per outcome counter, tallied from the appended results.
    pub fn lookup_batch(
        &self,
        requests: &[(ServerOffering, &[(FeatureId, ValueId)])],
        out: &mut Vec<Result<(f64, Explanation), LorentzError>>,
    ) {
        let span = obs::STORE_BATCH_SPAN_NS.span();
        let start = out.len();
        {
            let snapshot = self.snapshot();
            out.extend(
                requests
                    .iter()
                    .map(|&(offering, levels)| snapshot.lookup(offering, levels)),
            );
        }
        drop(span);
        let (mut hits, mut defaults, mut misses) = (0u64, 0u64, 0u64);
        for result in &out[start..] {
            match result {
                Ok((_, Explanation::StoreLookup { key: Some(_), .. })) => hits += 1,
                Ok(_) => defaults += 1,
                Err(_) => misses += 1,
            }
        }
        obs::STORE_BATCH_REQUESTS.add(requests.len() as u64);
        obs::STORE_HITS.add(hits);
        obs::STORE_DEFAULTS.add(defaults);
        obs::STORE_MISSES.add(misses);
    }

    /// The version stamped on the most recent publish (full or per-shard).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Relaxed)
    }

    /// Stored keys across every shard.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|slot| slot.lock().len()).sum()
    }

    /// Whether no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|slot| slot.lock().is_empty())
    }

    /// Keys resident in one shard (diagnostics and balance tests).
    ///
    /// # Errors
    /// [`LorentzError::InvalidConfig`] for an out-of-range shard index.
    pub fn shard_len(&self, shard: usize) -> Result<usize, LorentzError> {
        self.shards
            .get(shard)
            .map(|slot| slot.lock().len())
            .ok_or_else(|| {
                LorentzError::InvalidConfig(format!(
                    "shard {shard} out of range (store has {} shards)",
                    self.router.shards()
                ))
            })
    }
}

/// One pinned set of per-shard snapshots: the immutable view a batched
/// lookup (or one degraded-path request) probes. Cloning is N refcount
/// bumps.
#[derive(Debug, Clone)]
pub struct ShardedStoreSnapshot {
    shards: Box<[Arc<PredictionStore>]>,
    router: ShardRouter,
}

impl ShardedStoreSnapshot {
    /// Looks up the prediction for a request, preserving
    /// [`PredictionStore::lookup`] semantics exactly: levels are probed
    /// most granular first (each in the one shard its packed key routes
    /// to), then shard 0's per-offering default answers.
    ///
    /// # Errors
    /// [`LorentzError::NotFound`] if no key matches and no default exists
    /// for the offering.
    pub fn lookup(
        &self,
        offering: ServerOffering,
        levels: &[(FeatureId, ValueId)],
    ) -> Result<(f64, Explanation), LorentzError> {
        for &(feature, value) in levels {
            let key = StoreKey::new(offering, feature, value);
            let packed = key.pack();
            if let Some(&c) = self.shards[self.router.route_u64(packed)]
                .entries
                .get(&packed)
            {
                return Ok((
                    c,
                    Explanation::StoreLookup {
                        key: Some(key),
                        offering,
                    },
                ));
            }
        }
        match self.shards[0].defaults[usize::from(offering.code())] {
            Some(c) => Ok((
                c,
                Explanation::StoreLookup {
                    key: None,
                    offering,
                },
            )),
            None => Err(LorentzError::NotFound(format!(
                "no prediction and no default for offering {offering}"
            ))),
        }
    }

    /// The newest store version visible across the pinned shards.
    pub fn version(&self) -> u64 {
        self.shards.iter().map(|s| s.version()).max().unwrap_or(0)
    }

    /// How many shards this snapshot pins.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Stored keys across the pinned shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Whether the pinned snapshots hold no entries.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VERTICAL: FeatureId = FeatureId(0);
    const CUSTOMER: FeatureId = FeatureId(1);

    fn key(feature: FeatureId, value: u32) -> StoreKey {
        StoreKey::new(ServerOffering::GeneralPurpose, feature, ValueId(value))
    }

    fn batch(n: usize) -> PublishBatch {
        PublishBatch {
            entries: (0..n)
                .map(|i| (key(CUSTOMER, i as u32), 1.0 + i as f64))
                .collect(),
            defaults: vec![(ServerOffering::GeneralPurpose, 2.0)],
        }
    }

    #[test]
    fn rejects_non_power_of_two_shard_counts() {
        assert!(ShardedPredictionStore::new(3).is_err());
        assert!(ShardedPredictionStore::new(0).is_err());
        assert_eq!(ShardedPredictionStore::new(8).unwrap().shards(), 8);
    }

    #[test]
    fn sharded_lookup_matches_unsharded_for_every_key() {
        let mut flat = PredictionStore::new();
        flat.publish(batch(64)).unwrap();
        let sharded = ShardedPredictionStore::from_store(&flat, 8).unwrap();
        assert_eq!(sharded.len(), flat.len());
        assert_eq!(sharded.version(), flat.version());
        let snapshot = sharded.snapshot();
        for i in 0..64u32 {
            let levels = [(CUSTOMER, ValueId(i)), (VERTICAL, ValueId(0))];
            let flat_answer = flat
                .lookup(ServerOffering::GeneralPurpose, &levels)
                .unwrap();
            let sharded_answer = snapshot
                .lookup(ServerOffering::GeneralPurpose, &levels)
                .unwrap();
            assert_eq!(flat_answer.0, sharded_answer.0);
        }
        // Misses and defaults agree too.
        let miss = [(VERTICAL, ValueId(999))];
        assert_eq!(
            flat.lookup(ServerOffering::GeneralPurpose, &miss)
                .unwrap()
                .0,
            snapshot
                .lookup(ServerOffering::GeneralPurpose, &miss)
                .unwrap()
                .0,
        );
        assert!(flat.lookup(ServerOffering::Burstable, &miss).is_err());
        assert!(snapshot.lookup(ServerOffering::Burstable, &miss).is_err());
    }

    #[test]
    fn full_publish_bumps_one_version_across_all_shards() {
        let store = ShardedPredictionStore::new(4).unwrap();
        assert_eq!(store.publish(batch(16)).unwrap(), 1);
        assert_eq!(store.publish(batch(16)).unwrap(), 2);
        assert_eq!(store.version(), 2);
        assert_eq!(store.snapshot().version(), 2);
        assert_eq!(store.len(), 16);
    }

    #[test]
    fn publish_shard_touches_only_its_slot() {
        let store = ShardedPredictionStore::new(4).unwrap();
        store.publish(batch(32)).unwrap();
        let before = store.snapshot();
        // Re-publish one shard with only the keys that route to it.
        let target = store.shard_of_packed(key(CUSTOMER, 0).pack());
        let entries: Vec<(StoreKey, f64)> = (0..32u32)
            .map(|i| (key(CUSTOMER, i), 100.0))
            .filter(|(k, _)| store.shard_of_packed(k.pack()) == target)
            .collect();
        let replaced = entries.len();
        assert!(replaced > 0, "fixture keys all missed shard {target}");
        store
            .publish_shard(
                target,
                PublishBatch {
                    entries,
                    defaults: vec![],
                },
            )
            .unwrap();
        let after = store.snapshot();
        for shard in 0..4 {
            let was = &before.shards[shard];
            let now = &after.shards[shard];
            if shard == target {
                assert!(!Arc::ptr_eq(was, now), "published shard must swap");
                assert_eq!(now.len(), replaced);
            } else {
                assert!(Arc::ptr_eq(was, now), "untouched shard {shard} swapped");
            }
        }
    }

    #[test]
    fn publish_shard_rejects_misrouted_keys() {
        let store = ShardedPredictionStore::new(4).unwrap();
        // Find a key and a shard it does NOT route to.
        let k = key(CUSTOMER, 7);
        let wrong = (store.shard_of_packed(k.pack()) + 1) % 4;
        let err = store
            .publish_shard(
                wrong,
                PublishBatch {
                    entries: vec![(k, 1.0)],
                    defaults: vec![],
                },
            )
            .unwrap_err();
        assert!(err.to_string().contains("routes to shard"));
        assert!(store.publish_shard(9, PublishBatch::default()).is_err());
    }

    #[test]
    fn single_shard_degenerates_to_the_flat_store() {
        let store = ShardedPredictionStore::new(1).unwrap();
        store.publish(batch(8)).unwrap();
        let mut out = Vec::new();
        let levels = [(CUSTOMER, ValueId(3))];
        store.lookup_batch(&[(ServerOffering::GeneralPurpose, &levels[..])], &mut out);
        assert_eq!(out[0].as_ref().unwrap().0, 4.0);
        assert_eq!(
            store
                .lookup(ServerOffering::GeneralPurpose, &levels)
                .unwrap()
                .0,
            4.0
        );
    }

    /// Two distinct keys that route to the same shard of an `n`-shard store.
    fn same_shard_pair(store: &ShardedPredictionStore) -> (StoreKey, StoreKey) {
        let first = key(CUSTOMER, 0);
        let shard = store.shard_of_packed(first.pack());
        let second = (1..)
            .map(|i| key(CUSTOMER, i))
            .find(|k| store.shard_of_packed(k.pack()) == shard)
            .expect("some key shares the shard");
        (first, second)
    }

    #[test]
    fn concurrent_publish_never_tears_a_shard() {
        for shards in [1, 4] {
            let store = ShardedPredictionStore::new(shards).unwrap();
            let (a, b) = same_shard_pair(&store);
            let world = |capacity: f64| PublishBatch {
                entries: vec![(a, capacity), (b, capacity)],
                defaults: vec![(ServerOffering::GeneralPurpose, capacity)],
            };
            store.publish(world(8.0)).unwrap();
            let (levels_a, levels_b) = ([(a.feature, a.value)], [(b.feature, b.value)]);
            std::thread::scope(|scope| {
                // Publisher: alternate between two consistent worlds.
                let publisher = scope.spawn(|| {
                    for i in 0..50u64 {
                        let cap = if i % 2 == 0 { 4.0 } else { 64.0 };
                        store.publish(world(cap)).unwrap();
                    }
                });
                // Readers: two keys of one shard always agree within one
                // batch (the batch pins that shard's snapshot once), and the
                // pinned version never goes backwards.
                for _ in 0..4 {
                    scope.spawn(|| {
                        let mut last_version = 0;
                        for _ in 0..200 {
                            let mut results = Vec::new();
                            store.lookup_batch(
                                &[
                                    (ServerOffering::GeneralPurpose, &levels_a[..]),
                                    (ServerOffering::GeneralPurpose, &levels_b[..]),
                                ],
                                &mut results,
                            );
                            let (x, _) = results[0].as_ref().unwrap();
                            let (y, _) = results[1].as_ref().unwrap();
                            assert_eq!(x, y, "torn read at {shards} shards");
                            let version = store.snapshot().version();
                            assert!(version >= last_version, "version went backwards");
                            last_version = version;
                        }
                    });
                }
                publisher.join().unwrap();
            });
            assert_eq!(store.version(), 51);
            assert_eq!(store.len(), 2);
        }
    }

    #[test]
    fn snapshots_are_immutable_arcs_surviving_publish() {
        for shards in [1, 4] {
            let store = ShardedPredictionStore::new(shards).unwrap();
            store.publish(batch(8)).unwrap();
            let levels = [(CUSTOMER, ValueId(3))];
            let before = store.snapshot();
            let v_before = before.version();
            store.publish(PublishBatch::default()).unwrap();
            // The held snapshot is untouched by the publish: same version,
            // and its entries still answer.
            assert_eq!(before.version(), v_before);
            let (c, _) = before
                .lookup(ServerOffering::GeneralPurpose, &levels)
                .unwrap();
            assert_eq!(c, 4.0);
            // A fresh snapshot sees the new world and shares no shard
            // allocation with the old one.
            let after = store.snapshot();
            assert_eq!(after.version(), v_before + 1);
            assert!(after
                .lookup(ServerOffering::GeneralPurpose, &levels)
                .is_err());
            for (was, now) in before.shards.iter().zip(after.shards.iter()) {
                assert!(!Arc::ptr_eq(was, now));
            }
            // Without an intervening publish, snapshotting is a pure
            // refcount bump on the same allocations.
            let again = store.snapshot();
            for (now, same) in after.shards.iter().zip(again.shards.iter()) {
                assert!(Arc::ptr_eq(now, same));
            }
        }
    }

    #[test]
    fn versions_are_monotone() {
        for shards in [1, 4] {
            let store = ShardedPredictionStore::new(shards).unwrap();
            let v1 = store.publish(PublishBatch::default()).unwrap();
            let v2 = store.publish(PublishBatch::default()).unwrap();
            assert!(v2 > v1);
            let (a, _) = same_shard_pair(&store);
            let shard = store.shard_of_packed(a.pack());
            let v3 = store
                .publish_shard(
                    shard,
                    PublishBatch {
                        entries: vec![(a, 1.0)],
                        defaults: vec![],
                    },
                )
                .unwrap();
            assert!(v3 > v2);
            assert_eq!(store.version(), v3);
            assert_eq!(store.snapshot().version(), v3);
            assert_eq!(store.len(), 1);
            store.publish(PublishBatch::default()).unwrap();
            assert!(store.is_empty());
        }
    }
}
