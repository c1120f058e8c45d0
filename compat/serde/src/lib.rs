//! Offline stand-in for `serde`.
//!
//! The build environment cannot fetch crates.io, so this crate supplies the
//! interface ktudc relies on: `#[derive(Serialize, Deserialize)]` plus the
//! [`Serialize`]/[`Deserialize`] traits, implemented over an owned JSON-like
//! [`Value`] tree (the `serde_json` stand-in prints and parses that tree).
//!
//! The data model follows serde's JSON conventions so derived encodings look
//! like upstream serde_json output: structs are objects, newtype structs are
//! transparent, unit enum variants are strings, and data-carrying variants
//! are single-key objects (externally tagged).
//!
//! The fields of a derived named struct take upstream's `default` and
//! `skip_serializing_if` (see `serde_derive`):
//!
//! ```
//! #[derive(serde::Serialize, serde::Deserialize)]
//! struct Row {
//!     #[serde(default, skip_serializing_if = "Option::is_none")]
//!     phi: Option<f64>,
//! }
//! ```
//!
//! Any other option stops the build, and so does an option anywhere but
//! on a named struct's field:
//!
//! ```compile_fail
//! #[derive(serde::Serialize)]
//! struct Row {
//!     #[serde(rename = "p")]
//!     phi: Option<f64>,
//! }
//! ```
//!
//! ```compile_fail
//! #[derive(serde::Serialize)]
//! #[serde(default)]
//! struct Row {
//!     phi: Option<f64>,
//! }
//! ```
//!
//! ```compile_fail
//! #[derive(serde::Serialize)]
//! enum Kind {
//!     #[serde(default)]
//!     Ping,
//! }
//! ```
//!
//! ```compile_fail
//! #[derive(serde::Serialize)]
//! struct Phi(#[serde(default)] f64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// An owned JSON-like value tree: the intermediate representation between
/// typed data and text.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    UInt(u128),
    /// A negative integer.
    Int(i128),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved (serde_json's default map
    /// behavior for structs).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Deserialization failure: the value tree did not have the expected shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeError(pub String);

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Mismatch helper used by generated code.
pub fn de_err<T>(expected: &str, got: &Value) -> Result<T, DeError> {
    Err(DeError(format!("expected {expected}, got {got:?}")))
}

/// Types that can serialize themselves into a [`Value`].
pub trait Serialize {
    /// Converts `self` into a value tree.
    fn to_value(&self) -> Value;
}

/// Types that can reconstruct themselves from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a value tree.
    ///
    /// # Errors
    ///
    /// Returns [`DeError`] if the tree does not encode a `Self`.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::UInt(u128::from(*self)) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::UInt(u) => <$t>::try_from(*u)
                        .map_err(|_| DeError(format!("{u} out of range for {}", stringify!($t)))),
                    other => de_err(stringify!($t), other),
                }
            }
        }
    )*};
}

impl_uint!(u8, u16, u32, u64, u128);

impl Serialize for usize {
    fn to_value(&self) -> Value {
        Value::UInt(*self as u128)
    }
}

impl Deserialize for usize {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::UInt(u) => {
                usize::try_from(*u).map_err(|_| DeError(format!("{u} out of range for usize")))
            }
            other => de_err("usize", other),
        }
    }
}

macro_rules! impl_sint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                #[allow(clippy::cast_lossless)]
                let n = *self as i128;
                if n >= 0 { Value::UInt(n as u128) } else { Value::Int(n) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n: i128 = match v {
                    Value::UInt(u) => i128::try_from(*u)
                        .map_err(|_| DeError(format!("{u} out of range")))?,
                    Value::Int(i) => *i,
                    other => return de_err(stringify!($t), other),
                };
                <$t>::try_from(n).map_err(|_| DeError(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_sint!(i8, i16, i32, i64, i128, isize);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => de_err("bool", other),
        }
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Float(f) => Ok(*f),
            Value::UInt(u) => Ok(*u as f64),
            Value::Int(i) => Ok(*i as f64),
            other => de_err("f64", other),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => de_err("string", other),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

/// `&'static str` deserialization leaks the parsed string. Only tests
/// round-trip `Run<&str>`; library code should prefer owned payloads.
impl Deserialize for &'static str {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(Box::leak(s.clone().into_boxed_str())),
            other => de_err("string", other),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => de_err("array", other),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(t) => t.to_value(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Box::new)
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) if items.len() == 2 => {
                Ok((A::from_value(&items[0])?, B::from_value(&items[1])?))
            }
            other => de_err("2-tuple", other),
        }
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Array(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) if items.len() == 3 => Ok((
                A::from_value(&items[0])?,
                B::from_value(&items[1])?,
                C::from_value(&items[2])?,
            )),
            other => de_err("3-tuple", other),
        }
    }
}

impl<K: Serialize + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        // Non-string keys get the serde_json "array of pairs" treatment.
        Value::Array(
            self.iter()
                .map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrips() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(&(-3i64).to_value()).unwrap(), -3);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
        let v: Vec<u8> = vec![1, 2, 3];
        assert_eq!(Vec::<u8>::from_value(&v.to_value()).unwrap(), v);
        assert_eq!(Option::<u8>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(
            <(u8, String)>::from_value(&(7u8, "x".to_string()).to_value()).unwrap(),
            (7, "x".to_string())
        );
    }

    #[test]
    fn shape_mismatch_errors() {
        assert!(u8::from_value(&Value::Str("no".into())).is_err());
        assert!(u8::from_value(&Value::UInt(300)).is_err());
        assert!(Vec::<u8>::from_value(&Value::Bool(true)).is_err());
    }
}
