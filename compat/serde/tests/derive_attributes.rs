//! The derive's two field attributes, `#[serde(default)]` and
//! `#[serde(skip_serializing_if = "path")]`, against hand-built value
//! trees.

use serde::{Deserialize, Serialize, Value};

fn is_zero(n: &u32) -> bool {
    *n == 0
}

/// Skippable fields at the front, in the middle and at the end, with
/// doc comments before, between and after the attributes.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Row {
    /// Always written.
    id: u64,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    phi: Option<f64>,
    /// Documented before the attribute
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    /// and after it.
    suspected: bool,
    name: String,
    #[serde(default)]
    #[serde(skip_serializing_if = "is_zero")]
    count: u32,
    /// Defaulted when missing, but always written.
    #[serde(default)]
    flushes: u64,
}

const BARE: Row = Row {
    id: 7,
    phi: None,
    suspected: false,
    name: String::new(),
    count: 0,
    flushes: 0,
};

/// An object with `id` and `name` of [`BARE`] and then `rest`, in order.
fn obj(rest: &[(&str, Value)]) -> Value {
    let mut fields = vec![
        ("id".to_string(), Value::UInt(7)),
        ("name".to_string(), Value::Str(String::new())),
    ];
    fields.extend(rest.iter().map(|(k, v)| ((*k).to_string(), v.clone())));
    Value::Object(fields)
}

#[test]
fn skipped_fields_are_omitted_and_the_rest_keep_declaration_order() {
    let bare = obj(&[("flushes", Value::UInt(0))]);
    assert_eq!(BARE.to_value(), bare);
    assert_eq!(Row::from_value(&bare).unwrap(), BARE);

    let full = Row {
        phi: Some(0.5),
        suspected: true,
        count: 3,
        flushes: 9,
        ..BARE
    };
    let Value::Object(fields) = full.to_value() else {
        panic!("a struct encodes as an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["id", "phi", "suspected", "name", "count", "flushes"]);
    assert_eq!(Row::from_value(&Value::Object(fields)).unwrap(), full);

    // Skipping the middle field keeps the fields on both sides in place.
    let middle = Row {
        phi: Some(0.5),
        count: 3,
        ..BARE
    };
    let Value::Object(fields) = middle.to_value() else {
        panic!("a struct encodes as an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["id", "phi", "name", "count", "flushes"]);
}

#[test]
fn missing_defaulted_keys_decode_as_their_default() {
    assert_eq!(Row::from_value(&obj(&[])).unwrap(), BARE);
    // `null` into a defaulted `Option` is `None`, as without `default`.
    assert_eq!(
        Row::from_value(&obj(&[("phi", Value::Null)])).unwrap(),
        BARE
    );

    // A key without `default` is still required.
    let err =
        Row::from_value(&Value::Object(vec![("id".to_string(), Value::UInt(7))])).unwrap_err();
    assert!(err.0.contains("missing field Row.name"), "{err}");
}

#[test]
fn a_present_defaulted_key_decodes_strictly() {
    for (key, value) in [
        ("suspected", Value::Str("yes".to_string())),
        ("count", Value::Int(-1)),
        ("flushes", Value::Null),
        ("phi", Value::Str("0.5".to_string())),
    ] {
        assert!(Row::from_value(&obj(&[(key, value)])).is_err(), "{key}");
    }
}
