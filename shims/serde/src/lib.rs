//! Offline shim for the `serde` crate.
//!
//! The build environment has no network access, so the real `serde`
//! cannot be fetched. This shim provides the surface the workspace
//! needs for machine-readable results export: a JSON [`Value`] tree,
//! a [`Serialize`] trait producing it, impls for the std types the
//! telemetry and config layers use, and a `#[derive(Serialize)]`
//! macro (from the sibling `serde_derive` shim) for structs with named
//! fields and fieldless enums.
//!
//! It is intentionally *not* the real serde data model: there is no
//! `Serializer` abstraction, no `Deserialize`, and no zero-copy
//! machinery — every serialization goes through an owned [`Value`].
//! That trade keeps the shim ~300 lines while letting call sites read
//! idiomatically (`serde_json::to_string_pretty(&stats)`).

// Let the `serde::` paths in derive-generated code resolve even inside
// this crate's own tests.
extern crate self as serde;

use std::collections::BTreeMap;

pub use serde_derive::Serialize;

/// An owned JSON document tree (the shim's equivalent of
/// `serde_json::Value`, re-exported there).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Non-negative integer (serialized without a decimal point).
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Floating-point number (serialized with a decimal point).
    F64(f64),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object. A `BTreeMap` keeps key order deterministic.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on objects (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// Mutable member lookup on objects (`None` for other variants).
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        match self {
            Value::Object(map) => map.get_mut(key),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(v) => Some(v),
            Value::I64(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(v) => Some(v as f64),
            Value::I64(v) => Some(v as f64),
            Value::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an object map, if it is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }
}

/// Types that can render themselves as a JSON [`Value`].
pub trait Serialize {
    /// Builds the JSON tree for `self`.
    fn to_value(&self) -> Value;
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

macro_rules! impl_serialize_unsigned {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
    )*};
}

macro_rules! impl_serialize_signed {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_value(&self) -> Value {
                let v = *self as i64;
                if v >= 0 { Value::U64(v as u64) } else { Value::I64(v) }
            }
        }
    )*};
}

impl_serialize_unsigned!(u8, u16, u32, u64, usize);
impl_serialize_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

// Mirrors serde's impl for the std map (any hasher); `Value::Object`
// orders the keys, so the output does not depend on iteration order.
#[allow(clippy::disallowed_types)]
impl<V: Serialize, S> Serialize for std::collections::HashMap<String, V, S> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_map_to_expected_variants() {
        assert_eq!(5u32.to_value(), Value::U64(5));
        assert_eq!((-3i64).to_value(), Value::I64(-3));
        assert_eq!(3i64.to_value(), Value::U64(3));
        assert_eq!(1.5f64.to_value(), Value::F64(1.5));
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!("x".to_value(), Value::String("x".into()));
        assert_eq!(None::<u64>.to_value(), Value::Null);
    }

    #[test]
    fn collections_nest() {
        let v = vec![1u64, 2, 3].to_value();
        assert_eq!(v.as_array().unwrap().len(), 3);
        let mut map = BTreeMap::new();
        map.insert("k".to_owned(), 7u64);
        assert_eq!(map.to_value().get("k").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn derive_handles_structs_and_enums() {
        #[derive(Serialize)]
        struct Point {
            x: u64,
            y: f64,
        }

        #[derive(Serialize)]
        enum Kind {
            Alpha,
            Beta,
        }

        let p = Point { x: 4, y: 0.5 }.to_value();
        assert_eq!(p.get("x").unwrap().as_u64(), Some(4));
        assert_eq!(p.get("y").unwrap().as_f64(), Some(0.5));
        assert_eq!(Kind::Alpha.to_value().as_str(), Some("Alpha"));
        assert_eq!(Kind::Beta.to_value().as_str(), Some("Beta"));
    }
}
