//! The JSON text layer every model file, store generation, WAL record and
//! wire frame goes through: writing then reading any value tree gives it
//! back, multi-megabyte documents parse, invalid text is rejected,
//! and a trained deployment survives `to_json → from_json → to_json`
//! byte for byte.

use lorentz::core::{LorentzConfig, LorentzPipeline, TrainedLorentz};
use lorentz::simdata::fleet::FleetConfig;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Value;

/// String pieces chosen to stress the reader's run scan: multi-byte UTF-8,
/// every character the writer escapes, raw control characters, the
/// delimiters themselves and plain ASCII runs.
const PIECES: [&str; 16] = [
    "",
    "a",
    "plain ascii run",
    "é",
    "€uro",
    "😀",
    "日本語",
    "\"",
    "\\",
    "\n",
    "\r",
    "\t",
    "\u{1}",
    "\u{8}\u{c}",
    "\u{1f}\u{7f}",
    "/",
];

fn random_string(rng: &mut SmallRng) -> String {
    let pieces = rng.gen_range(0..6);
    (0..pieces)
        .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
        .collect()
}

/// A random value tree the writer can represent exactly. Non-negative
/// signed integers are left out (they read back as `UInt`), and so are
/// integral floats within 64-bit integer range (they read back as
/// integers); both are the text format's conventions, not reader faults.
fn random_value(rng: &mut SmallRng, depth: usize) -> Value {
    let kinds = if depth == 0 { 6 } else { 8 };
    match rng.gen_range(0..kinds) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Int(-rng.gen_range(1..i64::MAX)),
        3 => Value::UInt(rng.gen::<u64>() >> rng.gen_range(0..64)),
        4 => {
            let f = rng.gen_range(-1e6f64..1e6) * 10f64.powi(rng.gen_range(-30..30));
            let integer = f.fract() == 0.0 && f.abs() < 2f64.powi(64);
            Value::Float(if integer { 0.25 } else { f })
        }
        5 => Value::Str(random_string(rng)),
        6 => Value::Seq(
            (0..rng.gen_range(0..5))
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Map(
            (0..rng.gen_range(0..5))
                .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `parse(to_string(v)) == v`, compact and pretty, for any tree.
    #[test]
    fn written_values_read_back_unchanged(seed in any::<u64>()) {
        let value = random_value(&mut SmallRng::seed_from_u64(seed), 4);
        let compact = serde_json::to_string(&value).unwrap();
        prop_assert_eq!(serde_json::parse(&compact).unwrap(), value.clone());
        let pretty = serde_json::to_string_pretty(&value).unwrap();
        prop_assert_eq!(serde_json::parse(&pretty).unwrap(), value);
    }
}

#[test]
fn every_escape_decodes() {
    let text = r#""\"\\\/\b\f\n\r\tAé€\u0000x""#;
    assert_eq!(
        serde_json::parse(text).unwrap(),
        Value::Str("\"\\/\u{8}\u{c}\n\r\tAé€\u{0}x".into())
    );
    // Lone surrogates have no char; they read as the replacement char.
    assert_eq!(
        serde_json::parse(r#""\ud800""#).unwrap(),
        Value::Str("\u{fffd}".into())
    );
}

#[test]
fn a_four_mebibyte_string_parses() {
    let chunk = "abc€😀\"\\\n\u{1}";
    let big: String = chunk.repeat((4 << 20) / chunk.len());
    let text = serde_json::to_string(&Value::Str(big.clone())).unwrap();
    assert!(text.len() > 4 << 20);
    assert_eq!(serde_json::parse(&text).unwrap(), Value::Str(big));
}

#[test]
fn two_hundred_thousand_short_strings_parse() {
    let items: Vec<Value> = (0..200_000).map(|i| Value::Str(format!("k{i}"))).collect();
    let text = serde_json::to_string(&Value::Seq(items.clone())).unwrap();
    assert_eq!(serde_json::parse(&text).unwrap(), Value::Seq(items));
}

#[test]
fn unicode_escapes_need_four_hex_digits() {
    for text in [
        r#""\u+041""#,
        r#""\u-041""#,
        r#""\u 041""#,
        r#""\u00g1""#,
        r#""\u12""#,
        r#""\u""#,
    ] {
        assert!(serde_json::parse(text).is_err(), "{text} must be rejected");
    }
}

#[test]
fn numbers_start_with_a_digit_or_minus() {
    for text in ["+1", "+1.5", ".5", "-.5", "-+1", "-", "+"] {
        assert!(serde_json::parse(text).is_err(), "{text} must be rejected");
    }
    assert_eq!(serde_json::parse("-0").unwrap(), Value::Int(0));
    assert_eq!(serde_json::parse("1e+2").unwrap(), Value::Float(100.0));
    assert_eq!(serde_json::parse("-1.5E-1").unwrap(), Value::Float(-0.15));
}

#[test]
fn integers_past_sixty_four_bits_read_as_floats() {
    // The writer prints an integral float in full, with no exponent.
    let big = Value::Float(1e20);
    let text = serde_json::to_string(&big).unwrap();
    assert_eq!(text, "100000000000000000000");
    assert_eq!(serde_json::parse(&text).unwrap(), big);
    assert_eq!(
        serde_json::parse("-100000000000000000000").unwrap(),
        Value::Float(-1e20)
    );
}

#[test]
fn nesting_is_capped_at_128_levels() {
    let nested = |open: &str, close: &str, depth: usize| open.repeat(depth) + &close.repeat(depth);
    assert!(serde_json::parse(&nested("[", "]", 128)).is_ok());
    let objects = "{\"k\":".repeat(127) + "{}" + &"}".repeat(127);
    assert!(serde_json::parse(&objects).is_ok());
    for deep in [
        nested("[", "]", 129),
        "{\"k\":".repeat(128) + "{}" + &"}".repeat(128),
        "[".repeat(100_000),
    ] {
        let err = serde_json::parse(&deep).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
    }
}

#[test]
fn a_trained_deployment_round_trips_byte_for_byte() {
    let fleet = FleetConfig {
        n_servers: 120,
        seed: 20240807,
        ..FleetConfig::default()
    }
    .generate()
    .unwrap()
    .fleet;
    let mut config = LorentzConfig::paper_defaults();
    config.target_encoding.boosting.n_trees = 15;
    config.hierarchical.min_bucket = 3;
    let trained = LorentzPipeline::new(config).unwrap().train(&fleet).unwrap();
    let json = trained.to_json().unwrap();
    let reloaded = TrainedLorentz::from_json(&json).unwrap();
    assert_eq!(reloaded.to_json().unwrap(), json);
}
