//! Offline stand-in for `serde`.
//!
//! Real serde abstracts over data formats; the only format this workspace
//! uses is JSON (via the sibling `serde_json` shim), so the traits here
//! convert directly to and from an in-memory JSON [`value::Value`] tree.
//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` come from the
//! `serde_derive` shim and target these traits.

// Let the derive macros' `::serde::` paths resolve inside this crate's own
// tests too.
extern crate self as serde;

pub use serde_derive::{Deserialize, Serialize};

pub mod value {
    /// An in-memory JSON document.
    #[derive(Clone, Debug)]
    pub enum Value {
        Null,
        Bool(bool),
        /// An integer, exact over the whole `i64` and `u64` ranges (an
        /// `f64` would round a `u64` seed above 2^53).
        Int(i128),
        /// Any other number.
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        /// Insertion-ordered key/value pairs.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// The number this value holds, integer or not, as an `f64`.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Int(i) => Some(*i as f64),
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }
    }

    /// Numbers compare by value, so `Int(1) == Num(1.0)`: JSON text does
    /// not say which of the two `1` was.
    impl PartialEq for Value {
        fn eq(&self, other: &Value) -> bool {
            match (self, other) {
                (Value::Null, Value::Null) => true,
                (Value::Bool(a), Value::Bool(b)) => a == b,
                (Value::Int(a), Value::Int(b)) => a == b,
                (Value::Num(a), Value::Num(b)) => a == b,
                (Value::Int(i), Value::Num(n)) | (Value::Num(n), Value::Int(i)) => {
                    super::integral(*n) == Some(*i)
                }
                (Value::Str(a), Value::Str(b)) => a == b,
                (Value::Arr(a), Value::Arr(b)) => a == b,
                (Value::Obj(a), Value::Obj(b)) => a == b,
                _ => false,
            }
        }
    }
}

/// `n` as an integer when it is one exactly (finite, no fraction, inside
/// the `i128` range).
fn integral(n: f64) -> Option<i128> {
    // 2^127: every integral f64 below it converts to i128 exactly.
    (n.fract() == 0.0 && n.abs() < 1.7014118346046923e38).then_some(n as i128)
}

use value::Value;

/// Conversion into a JSON value tree.
pub trait Serialize {
    fn to_value(&self) -> Value;
}

/// Conversion from a JSON value tree.
pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, String>;
}

// A `Value` round-trips as itself, so callers can deserialize arbitrary
// JSON (e.g. telemetry trace records) without declaring a schema type.
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, String> {
        Ok(v.clone())
    }
}

// ----------------------------------------------------------------------
// Serialize impls for std types
// ----------------------------------------------------------------------

macro_rules! serialize_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i128)
            }
        }
    )*};
}

serialize_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! serialize_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
    )*};
}

serialize_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
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

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Arr(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Arr(vec![self.0.to_value(), self.1.to_value(), self.2.to_value()])
    }
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_value())).collect())
    }
}

impl<V: Serialize, S> Serialize for std::collections::HashMap<String, V, S> {
    fn to_value(&self) -> Value {
        // Sort keys so output is deterministic.
        let mut entries: Vec<(String, Value)> =
            self.iter().map(|(k, v)| (k.clone(), v.to_value())).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Obj(entries)
    }
}

// ----------------------------------------------------------------------
// Deserialize impls for std types
// ----------------------------------------------------------------------

/// An integer type takes an integer, or a number written with a fraction
/// or exponent whose value is integral (`16.0`, `1e3`), inside its range;
/// anything else (`16.5`, `-1` for a `u32`, `2^64` for a `u64`) is an
/// error, never a rounding or wrapping cast.
macro_rules! deserialize_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, String> {
                let i = match v {
                    Value::Int(i) => *i,
                    Value::Num(n) => integral(*n)
                        .ok_or_else(|| format!("expected integer, found {n}"))?,
                    _ => return Err(format!("expected integer, found {v:?}")),
                };
                <$t>::try_from(i)
                    .map_err(|_| format!("{i} is out of range for {}", stringify!($t)))
            }
        }
    )*};
}

deserialize_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! deserialize_float {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, String> {
                v.as_f64()
                    .map(|n| n as $t)
                    .ok_or_else(|| format!("expected number, found {v:?}"))
            }
        }
    )*};
}

deserialize_float!(f32, f64);

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, String> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(format!("expected bool, found {v:?}")),
        }
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, String> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(format!("expected string, found {v:?}")),
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, String> {
        match v {
            Value::Arr(items) => items.iter().map(T::from_value).collect(),
            _ => Err(format!("expected array, found {v:?}")),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, String> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, String> {
        match v {
            Value::Arr(items) if items.len() == 2 => {
                Ok((A::from_value(&items[0])?, B::from_value(&items[1])?))
            }
            _ => Err(format!("expected 2-element array, found {v:?}")),
        }
    }
}

impl<V: Deserialize> Deserialize for std::collections::BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, String> {
        match v {
            Value::Obj(entries) => entries
                .iter()
                .map(|(k, val)| Ok((k.clone(), V::from_value(val)?)))
                .collect(),
            _ => Err(format!("expected object, found {v:?}")),
        }
    }
}

impl<V: Deserialize> Deserialize for std::collections::HashMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, String> {
        match v {
            Value::Obj(entries) => entries
                .iter()
                .map(|(k, val)| Ok((k.clone(), V::from_value(val)?)))
                .collect(),
            _ => Err(format!("expected object, found {v:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize, Deserialize, Debug, PartialEq)]
    struct Point {
        x: f64,
        name: String,
        tags: Vec<u32>,
        extra: Option<bool>,
    }

    #[derive(Serialize, Deserialize, Debug, PartialEq)]
    enum Kind {
        Plain,
        Tagged(usize),
        Pair(u32, u32),
    }

    #[test]
    fn struct_roundtrip() {
        let p = Point {
            x: 1.5,
            name: "a\"b".into(),
            tags: vec![1, 2, 3],
            extra: None,
        };
        let v = p.to_value();
        let back = Point::from_value(&v).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn enum_roundtrip() {
        for k in [Kind::Plain, Kind::Tagged(7), Kind::Pair(1, 2)] {
            let v = k.to_value();
            let back = Kind::from_value(&v).unwrap();
            assert_eq!(k, back);
        }
    }

    #[test]
    fn integers_are_exact_over_u64_and_i64() {
        for n in [0, 1, 9_007_199_254_740_993, u64::MAX] {
            assert_eq!(u64::from_value(&n.to_value()), Ok(n));
        }
        for n in [i64::MIN, -9_007_199_254_740_993, -1] {
            assert_eq!(i64::from_value(&n.to_value()), Ok(n));
        }
    }

    #[test]
    fn fractional_or_out_of_range_integers_are_errors() {
        assert!(usize::from_value(&Value::Num(16.5)).is_err());
        assert!(u32::from_value(&Value::Num(f64::NAN)).is_err());
        assert!(u32::from_value(&Value::Int(-1)).is_err());
        assert!(u8::from_value(&Value::Int(256)).is_err());
        assert!(u64::from_value(&Value::Int(u64::MAX as i128 + 1)).is_err());
        assert!(i64::from_value(&Value::Num(1e300)).is_err());
        // An integral value written as a float is still that integer.
        assert_eq!(usize::from_value(&Value::Num(16.0)), Ok(16));
        assert_eq!(f32::from_value(&Value::Int(3)), Ok(3.0));
    }

    #[test]
    fn missing_field_is_an_error() {
        let v = Value::Obj(vec![("x".into(), Value::Num(1.0))]);
        assert!(Point::from_value(&v).is_err());
    }
}
