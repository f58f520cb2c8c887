//! The answer oracle: what the sequential in-process pipeline says each
//! request must get.
//!
//! Stage 2's capacity does not depend on λ, so every answer's
//! `stage2_capacity` must equal [`TrainedLorentz::recommend`] on the same
//! profile. Customers that never received feedback still sit at λ = 0, so
//! for them the whole answer (SKU, λ, explanation) must match byte for
//! byte.

use crate::gen::Template;
use lorentz_core::{ModelKind, RecommendRequest, TrainedLorentz};
use lorentz_types::{CustomerId, ResourceGroupId, ResourcePath, SubscriptionId};
use serde::{Serialize, Value};

/// The in-process answer for one request template.
pub struct Expected {
    pub stage2_capacity: f64,
    /// The full answer, serialized exactly as the wire encodes it.
    pub json: String,
}

/// A path no training row and no feedback frame uses, so λ there is 0.
fn neutral_path() -> ResourcePath {
    ResourcePath::new(
        CustomerId(u32::MAX),
        SubscriptionId(u32::MAX),
        ResourceGroupId(u32::MAX),
    )
}

/// Answers every template through the sequential pipeline.
///
/// # Errors
/// A template the pipeline itself refuses (the generator only draws
/// servable profiles, so this is a benchmark bug).
pub fn expected_answers(
    deployment: &TrainedLorentz,
    templates: &[Template],
    kind: ModelKind,
) -> Result<Vec<Expected>, String> {
    templates
        .iter()
        .map(|t| {
            let request = RecommendRequest {
                profile: t.profile.iter().map(|v| v.as_deref()).collect(),
                offering: t.offering,
                path: neutral_path(),
            };
            let rec = deployment
                .recommend(&request, kind)
                .map_err(|e| format!("in-process recommend failed: {e}"))?;
            Ok(Expected {
                stage2_capacity: rec.stage2_capacity,
                json: serde_json::to_string(&rec.to_value()).map_err(|e| e.to_string())?,
            })
        })
        .collect()
}

/// Checks one served `ok` answer against the oracle; `full` also demands
/// the whole answer match (customers without feedback).
pub fn check(expected: &Expected, ok: &Value, full: bool) -> Result<(), String> {
    let served = ok
        .get_field("stage2_capacity")
        .and_then(|v| match v {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            _ => None,
        })
        .ok_or("answer has no numeric stage2_capacity")?;
    if served != expected.stage2_capacity {
        return Err(format!(
            "stage2_capacity {served} != in-process {}",
            expected.stage2_capacity
        ));
    }
    if full {
        let json = serde_json::to_string(ok).map_err(|e| e.to_string())?;
        if json != expected.json {
            return Err(format!("answer {json} != in-process {}", expected.json));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn tiny_model() -> (TrainedLorentz, Vec<Template>) {
        let rows = gen::servers(3, 300, 256);
        let (fleet, _) = gen::ingest(&rows);
        let mut config = lorentz_core::LorentzConfig::paper_defaults();
        config.target_encoding.boosting.n_trees = 5;
        let trained = lorentz_core::LorentzPipeline::new(config)
            .unwrap()
            .train(&fleet)
            .unwrap();
        let shape = gen::StreamShape {
            feedback_frac: 0.0,
            missing_frac: 0.1,
            unseen_frac: 0.1,
            hot_customers: 0,
            hot_read_frac: 0.0,
        };
        let templates = gen::templates(3, &rows, 32, &shape);
        (trained, templates)
    }

    #[test]
    fn the_served_answer_passes_and_an_injected_wrong_sku_fails() {
        let (trained, templates) = tiny_model();
        let expected = expected_answers(&trained, &templates, ModelKind::Hierarchical).unwrap();
        for e in &expected {
            let ok = serde_json::parse(&e.json).unwrap();
            check(e, &ok, true).unwrap();
        }
        // Swap in a different SKU name: stage 2 still matches, the full
        // answer must not.
        let e = &expected[0];
        let ok = serde_json::parse(&e.json).unwrap();
        let Value::Map(mut fields) = ok else {
            panic!("answer is an object")
        };
        for (name, value) in &mut fields {
            if name == "sku" {
                let Value::Map(sku) = value else {
                    panic!("sku is an object")
                };
                for (field, v) in sku.iter_mut() {
                    if field == "name" {
                        *v = Value::Str("GP_Gen5_999".to_owned());
                    }
                }
            }
        }
        let wrong = Value::Map(fields);
        assert!(
            check(e, &wrong, false).is_ok(),
            "stage-2 check ignores the SKU"
        );
        assert!(
            check(e, &wrong, true).is_err(),
            "full check catches the SKU"
        );
    }

    #[test]
    fn a_wrong_stage2_capacity_fails_even_without_the_full_check() {
        let (trained, templates) = tiny_model();
        let expected = expected_answers(&trained, &templates, ModelKind::TargetEncoding).unwrap();
        let e = &expected[0];
        let Value::Map(mut fields) = serde_json::parse(&e.json).unwrap() else {
            panic!()
        };
        for (name, value) in &mut fields {
            if name == "stage2_capacity" {
                *value = Value::Float(e.stage2_capacity * 2.0);
            }
        }
        assert!(check(e, &Value::Map(fields), false).is_err());
    }
}
