//! The online prediction store (§4, Fig. 8 step C).
//!
//! Production Lorentz precomputes one SKU recommendation per
//! `[hierarchy level, feature value, server offering]` key in a daily batch
//! and copies them to a low-latency store with data versioning. At inference
//! the store returns the prediction for the *most granular* hierarchy level
//! present in the request whose value is stored; if nothing matches, a
//! per-offering default is returned.
//!
//! Keys are typed and packed: a [`StoreKey`] (offering, [`FeatureId`],
//! interned [`ValueId`]) indexes the entry map through its `u64` packed
//! form, so the serving path never allocates or compares strings. The JSON
//! snapshot keeps a string-keyed map (`"offering|feature|value"` → capacity)
//! via manual serde impls, preserving a readable persisted format.

pub mod durability;
pub mod sharded;

pub use durability::{atomic_write, DurableStore, RecoveredStore, StoreError};
pub use sharded::{ShardedPredictionStore, ShardedStoreSnapshot};

use crate::explain::Explanation;
use crate::obs;
use lorentz_types::{FeatureId, LorentzError, ServerOffering, StoreKey, ValueId};
use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;

/// A versioned, in-process stand-in for the paper's authenticated online
/// prediction store. Each [`publish`](PredictionStore::publish) replaces the
/// whole entry set atomically and bumps the version, mirroring the
/// ETL-copy-then-switch deployment. A trained deployment owns one; the
/// serving tier splits it across the hot-swapped shards of a
/// [`ShardedPredictionStore`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PredictionStore {
    version: u64,
    /// Packed [`StoreKey`] → recommended primary capacity.
    entries: HashMap<u64, f64>,
    /// Fallback capacity per offering code when no key matches.
    defaults: [Option<f64>; ServerOffering::ALL.len()],
}

/// A batch of predictions to publish.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PublishBatch {
    /// `(key, capacity)` pairs.
    pub entries: Vec<(StoreKey, f64)>,
    /// Per-offering default capacities.
    pub defaults: Vec<(ServerOffering, f64)>,
}

impl PredictionStore {
    /// Creates an empty store at version 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current data version (0 = nothing published yet).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Atomically replaces the store contents and bumps the version.
    ///
    /// # Errors
    /// Returns [`LorentzError::InvalidConfig`] if any capacity is
    /// non-positive or non-finite.
    pub fn publish(&mut self, batch: PublishBatch) -> Result<u64, LorentzError> {
        for (_, c) in &batch.entries {
            if !c.is_finite() || *c <= 0.0 {
                return Err(LorentzError::InvalidConfig(format!(
                    "store capacities must be positive, got {c}"
                )));
            }
        }
        for (_, c) in &batch.defaults {
            if !c.is_finite() || *c <= 0.0 {
                return Err(LorentzError::InvalidConfig(format!(
                    "store defaults must be positive, got {c}"
                )));
            }
        }
        self.entries = batch
            .entries
            .into_iter()
            .map(|(k, c)| (k.pack(), c))
            .collect();
        self.defaults = [None; ServerOffering::ALL.len()];
        for (o, c) in batch.defaults {
            self.defaults[usize::from(o.code())] = Some(c);
        }
        self.version += 1;
        obs::STORE_PUBLISHES.inc();
        Ok(self.version)
    }

    /// Looks up the prediction for a request.
    ///
    /// `levels` is the request's `(feature, interned value)` pairs ordered
    /// **most granular first**; the first stored key wins. Returns the
    /// capacity and an [`Explanation::StoreLookup`] describing the match.
    /// The probe is pure integer hashing — no allocation, no string
    /// comparison.
    ///
    /// # Errors
    /// Returns [`LorentzError::NotFound`] if no key matches and no default
    /// exists for the offering.
    pub fn lookup(
        &self,
        offering: ServerOffering,
        levels: &[(FeatureId, ValueId)],
    ) -> Result<(f64, Explanation), LorentzError> {
        for &(feature, value) in levels {
            let key = StoreKey::new(offering, feature, value);
            if let Some(&c) = self.entries.get(&key.pack()) {
                return Ok((
                    c,
                    Explanation::StoreLookup {
                        key: Some(key),
                        offering,
                    },
                ));
            }
        }
        match self.defaults[usize::from(offering.code())] {
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
}

// Snapshot compatibility shim: persisted stores keep the string-keyed JSON
// shape (`entries` as an object keyed by the canonical `StoreKey` display
// form, `defaults` keyed by offering name) while the in-memory form stays
// packed.
impl Serialize for PredictionStore {
    fn to_value(&self) -> Value {
        let mut entries: Vec<(String, Value)> = self
            .entries
            .iter()
            .map(|(&packed, &c)| {
                let key = StoreKey::unpack(packed).expect("store only holds packed StoreKeys");
                (key.to_string(), Value::Float(c))
            })
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let defaults: Vec<(String, Value)> = ServerOffering::ALL
            .iter()
            .filter_map(|&o| {
                self.defaults[usize::from(o.code())].map(|c| (o.name().to_owned(), Value::Float(c)))
            })
            .collect();
        Value::Map(vec![
            ("version".into(), Value::UInt(self.version)),
            ("entries".into(), Value::Map(entries)),
            ("defaults".into(), Value::Map(defaults)),
        ])
    }
}

impl Deserialize for PredictionStore {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            v.get_field(name)
                .ok_or_else(|| serde::Error::custom(format!("store snapshot missing '{name}'")))
        };
        let version = u64::from_value(field("version")?)?;
        let mut entries = HashMap::new();
        for (k, c) in field("entries")?
            .as_map()
            .ok_or_else(|| serde::Error::custom("store entries must be a map"))?
        {
            let key: StoreKey = k
                .parse()
                .map_err(|e| serde::Error::custom(format!("{e}")))?;
            entries.insert(key.pack(), f64::from_value(c)?);
        }
        let mut defaults = [None; ServerOffering::ALL.len()];
        for (k, c) in field("defaults")?
            .as_map()
            .ok_or_else(|| serde::Error::custom("store defaults must be a map"))?
        {
            let offering: ServerOffering = k
                .parse()
                .map_err(|e: LorentzError| serde::Error::custom(format!("{e}")))?;
            defaults[usize::from(offering.code())] = Some(f64::from_value(c)?);
        }
        Ok(Self {
            version,
            entries,
            defaults,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // In the tests feature 0 plays the coarse "VerticalName" level and
    // feature 1 the fine "CloudCustomerGuid" level; value ids are
    // per-feature interned ids.
    const VERTICAL: FeatureId = FeatureId(0);
    const CUSTOMER: FeatureId = FeatureId(1);
    const INSURANCE: ValueId = ValueId(0);
    const ACME: ValueId = ValueId(0);
    const UNKNOWN: ValueId = ValueId(99);

    fn key(offering: ServerOffering, feature: FeatureId, value: ValueId) -> StoreKey {
        StoreKey::new(offering, feature, value)
    }

    fn store() -> PredictionStore {
        let mut s = PredictionStore::new();
        s.publish(PublishBatch {
            entries: vec![
                (
                    key(ServerOffering::GeneralPurpose, VERTICAL, INSURANCE),
                    8.0,
                ),
                (key(ServerOffering::GeneralPurpose, CUSTOMER, ACME), 16.0),
            ],
            defaults: vec![(ServerOffering::GeneralPurpose, 2.0)],
        })
        .unwrap();
        s
    }

    #[test]
    fn most_granular_match_wins() {
        let s = store();
        let (c, expl) = s
            .lookup(
                ServerOffering::GeneralPurpose,
                &[(CUSTOMER, ACME), (VERTICAL, INSURANCE)],
            )
            .unwrap();
        assert_eq!(c, 16.0);
        match expl {
            Explanation::StoreLookup { key: Some(k), .. } => {
                assert_eq!(k.feature, CUSTOMER);
                assert_eq!(k.value, ACME);
            }
            other => panic!("expected a store hit, got {other:?}"),
        }
    }

    #[test]
    fn falls_through_to_coarser_levels() {
        let s = store();
        let (c, _) = s
            .lookup(
                ServerOffering::GeneralPurpose,
                &[(CUSTOMER, UNKNOWN), (VERTICAL, INSURANCE)],
            )
            .unwrap();
        assert_eq!(c, 8.0);
    }

    #[test]
    fn default_when_nothing_matches() {
        let s = store();
        let (c, expl) = s
            .lookup(ServerOffering::GeneralPurpose, &[(VERTICAL, UNKNOWN)])
            .unwrap();
        assert_eq!(c, 2.0);
        assert!(matches!(expl, Explanation::StoreLookup { key: None, .. }));
        assert!(expl.to_string().contains("default"));
    }

    #[test]
    fn missing_offering_errors() {
        let s = store();
        assert!(s
            .lookup(ServerOffering::Burstable, &[(VERTICAL, INSURANCE)])
            .is_err());
    }

    #[test]
    fn offerings_are_isolated() {
        let mut s = store();
        s.publish(PublishBatch {
            entries: vec![(key(ServerOffering::Burstable, VERTICAL, INSURANCE), 1.0)],
            defaults: vec![(ServerOffering::Burstable, 1.0)],
        })
        .unwrap();
        // After republish, the GeneralPurpose entries are gone (atomic swap).
        assert!(s
            .lookup(ServerOffering::GeneralPurpose, &[(VERTICAL, INSURANCE)])
            .is_err());
        let (c, _) = s
            .lookup(ServerOffering::Burstable, &[(VERTICAL, INSURANCE)])
            .unwrap();
        assert_eq!(c, 1.0);
    }

    #[test]
    fn publish_bumps_version_and_validates() {
        let mut s = PredictionStore::new();
        assert_eq!(s.version(), 0);
        s.publish(PublishBatch::default()).unwrap();
        assert_eq!(s.version(), 1);
        let bad = PublishBatch {
            entries: vec![(key(ServerOffering::Burstable, VERTICAL, ACME), -1.0)],
            defaults: vec![],
        };
        assert!(s.publish(bad).is_err());
        assert_eq!(s.version(), 1, "failed publish must not bump version");
    }

    #[test]
    fn store_serde_round_trip_keeps_string_keys() {
        let s = store();
        let json = serde_json::to_string(&s).unwrap();
        // The snapshot is string-keyed even though the store is packed.
        assert!(json.contains("\"general_purpose|0|0\""), "{json}");
        assert!(json.contains("\"defaults\""));
        let back: PredictionStore = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn malformed_snapshots_are_rejected() {
        assert!(serde_json::from_str::<PredictionStore>("{\"version\": 1}").is_err());
        let bad_key = "{\"version\":1,\"entries\":{\"nope|0|0\":4.0},\"defaults\":{}}";
        assert!(serde_json::from_str::<PredictionStore>(bad_key).is_err());
        let bad_offering = "{\"version\":1,\"entries\":{},\"defaults\":{\"huge\":4.0}}";
        assert!(serde_json::from_str::<PredictionStore>(bad_offering).is_err());
    }
}
