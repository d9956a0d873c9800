//! Offline stand-in for the subset of `serde_json` this workspace uses.
//!
//! Provides a [`Value`] tree with *insertion-ordered* objects (so callers
//! control key order and output is deterministic), a strict-enough JSON
//! parser, pretty/compact printers, the [`json!`] macro, and the
//! [`Serialize`]/[`Deserialize`] traits the `serde` facade crate re-exports.
//!
//! Unlike real serde there is no derive-driven data model: types that need
//! JSON round-trips implement the two trait methods by hand against
//! [`Value`]. That keeps the whole stack auditable and dependency-free,
//! which matters in this offline build environment.

mod de;
mod ser;
mod value;

pub use de::from_str;
pub use ser::{to_string, to_string_pretty};
pub use value::{Map, Number, Value};

use std::fmt;

/// Error type for parse and convert failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Construct an error with a caller-supplied message. Public because
    /// hand-written `Deserialize` impls report their own field errors.
    pub fn new(msg: impl Into<String>) -> Error {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.msg)
    }
}

impl std::error::Error for Error {}

/// Serialize into a [`Value`] tree. Implement by hand for exported types.
pub trait Serialize {
    fn to_json_value(&self) -> Value;
}

/// Deserialize from a [`Value`] tree. Implement by hand for imported types.
pub trait Deserialize: Sized {
    fn from_json_value(v: &Value) -> Result<Self, Error>;
}

impl Serialize for Value {
    fn to_json_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

macro_rules! impl_serialize_prims {
    ($($t:ty => $variant:expr),* $(,)?) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value {
                let conv: fn(&$t) -> Value = $variant;
                conv(self)
            }
        }
    )*};
}

impl_serialize_prims! {
    bool => |b| Value::Bool(*b),
    u8 => |n| Value::from(*n as u64),
    u16 => |n| Value::from(*n as u64),
    u32 => |n| Value::from(*n as u64),
    u64 => |n| Value::from(*n),
    usize => |n| Value::from(*n as u64),
    i32 => |n| Value::from(*n as i64),
    i64 => |n| Value::from(*n),
    f64 => |n| Value::from(*n),
    String => |s| Value::String(s.clone()),
}

impl Serialize for &str {
    fn to_json_value(&self) -> Value {
        Value::String((*self).to_string())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(|v| v.to_json_value()).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json_value(&self) -> Value {
        match self {
            Some(v) => v.to_json_value(),
            None => Value::Null,
        }
    }
}

macro_rules! impl_deserialize_uint {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_json_value(v: &Value) -> Result<Self, Error> {
                v.as_u64()
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| Error::new(concat!("expected ", stringify!($t))))
            }
        }
    )*};
}

impl_deserialize_uint!(u8, u16, u32, u64, usize);

impl Deserialize for f64 {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::new("expected number"))
    }
}

impl Deserialize for bool {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| Error::new("expected bool"))
    }
}

impl Deserialize for String {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::new("expected string"))
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_json_value).collect(),
            _ => Err(Error::new("expected array")),
        }
    }
}

/// Build a [`Value`] with JSON-literal syntax.
///
/// Object keys keep their written order, so `json!` output is reproducible.
/// Values may be arbitrary expressions (anything with `Into<Value>`),
/// nested `{...}` objects, or `[...]` arrays, as with real serde_json.
#[macro_export]
macro_rules! json {
    ($($tt:tt)+) => {
        $crate::json_internal!($($tt)+)
    };
}

/// Token-munching implementation detail of [`json!`]; follows serde_json's
/// well-known `json_internal!` structure so arbitrary expressions can
/// appear in value position.
#[doc(hidden)]
#[macro_export]
macro_rules! json_internal {
    //////////// array munching ////////////
    (@array [$($elems:expr,)*]) => {
        vec![$($elems,)*]
    };
    (@array [$($elems:expr),*]) => {
        vec![$($elems),*]
    };
    (@array [$($elems:expr,)*] null $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(null)] $($rest)*)
    };
    (@array [$($elems:expr,)*] true $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(true)] $($rest)*)
    };
    (@array [$($elems:expr,)*] false $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(false)] $($rest)*)
    };
    (@array [$($elems:expr,)*] [$($array:tt)*] $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!([$($array)*])] $($rest)*)
    };
    (@array [$($elems:expr,)*] {$($map:tt)*} $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!({$($map)*})] $($rest)*)
    };
    (@array [$($elems:expr,)*] $next:expr, $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($next),] $($rest)*)
    };
    (@array [$($elems:expr,)*] $last:expr) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($last)])
    };
    (@array [$($elems:expr),*] , $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)*] $($rest)*)
    };

    //////////// object munching ////////////
    // Finished.
    (@object $object:ident () () ()) => {};
    // Insert the current entry, trailing comma present.
    (@object $object:ident [$($key:tt)+] ($value:expr) , $($rest:tt)*) => {
        $object.insert(($($key)+).to_string(), $value);
        $crate::json_internal!(@object $object () ($($rest)*) ($($rest)*));
    };
    // Insert the last entry, no trailing comma.
    (@object $object:ident [$($key:tt)+] ($value:expr)) => {
        $object.insert(($($key)+).to_string(), $value);
    };
    // Value for the current key is `null`/`true`/`false`/array/object/expr.
    (@object $object:ident ($($key:tt)+) (: null $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(null)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: true $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(true)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: false $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(false)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: [$($array:tt)*] $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!([$($array)*])) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: {$($map:tt)*} $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!({$($map)*})) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr , $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)) , $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)));
    };
    // Munch one token into the current key.
    (@object $object:ident ($($key:tt)*) ($tt:tt $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object ($($key)* $tt) ($($rest)*) ($($rest)*));
    };

    //////////// entry points ////////////
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([]) => { $crate::Value::Array(vec![]) };
    ([ $($tt:tt)+ ]) => {
        $crate::Value::Array($crate::json_internal!(@array [] $($tt)+))
    };
    ({}) => { $crate::Value::Object($crate::Map::new()) };
    ({ $($tt:tt)+ }) => {
        $crate::Value::Object({
            let mut object = $crate::Map::new();
            $crate::json_internal!(@object object () ($($tt)+) ($($tt)+));
            object
        })
    };
    ($other:expr) => { $crate::Value::from($other) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_value() {
        let v = json!({
            "name": "itm",
            "count": 3,
            "ratio": 0.5,
            "flags": [true, false, null],
            "nested": {"a": 1, "b": "two"},
        });
        let text = to_string_pretty(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn object_preserves_insertion_order() {
        let v = json!({"z": 1, "a": 2, "m": 3});
        let text = to_string(&v).unwrap();
        assert_eq!(text, r#"{"z":1,"a":2,"m":3}"#);
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Value::String("line\nquote\"backslash\\tab\tunicode\u{1F30D}".into());
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(from_str::<Value>("{\"a\": }").is_err());
        assert!(from_str::<Value>("[1, 2,]").is_err());
        assert!(from_str::<Value>("nul").is_err());
        assert!(from_str::<Value>("{} trailing").is_err());
    }

    #[test]
    fn nesting_is_capped_at_the_depth_limit() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let deepest = nested(open, close, de::MAX_DEPTH);
            assert!(
                from_str::<Value>(&deepest).is_ok(),
                "{open} x {}",
                de::MAX_DEPTH
            );
            let over = nested(open, close, de::MAX_DEPTH + 1);
            let err = from_str::<Value>(&over).unwrap_err();
            assert!(err.to_string().contains("recursion limit"), "{err}");
            // Far past the limit: an error, never a stack overflow.
            let hostile = open.repeat(100_000);
            let err = from_str::<Value>(&hostile).unwrap_err();
            assert!(err.to_string().contains("recursion limit"), "{err}");
        }
    }

    #[test]
    fn numbers_round_trip() {
        for text in ["0", "-7", "18446744073709551615", "0.125", "-2.5e3"] {
            let v: Value = from_str(text).unwrap();
            let back: Value = from_str(&to_string(&v).unwrap()).unwrap();
            assert_eq!(v, back, "{text}");
        }
    }
}
