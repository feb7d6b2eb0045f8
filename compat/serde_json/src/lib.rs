//! Offline shim for the `serde_json` crate.
//!
//! Implements the self-contained subset this workspace uses — no serde data
//! model, just a JSON [`Value`] tree with:
//!
//! * the [`json!`] macro (objects, arrays, literals, interpolated expressions),
//! * [`from_str`] — a strict JSON parser (trailing whitespace allowed),
//! * [`to_string`] / [`to_string_pretty`] — compact and 2-space-indented
//!   serializers matching serde_json's output shape,
//! * indexing (`value["key"]`, `value[0]`), `as_*` accessors, and the mixed
//!   comparisons (`value == 3`) the tests rely on.
//!
//! Numbers are stored as `u64`/`i64`/`f64` variants like the real crate, and
//! non-finite floats serialize to `null` (serde_json's behaviour).
//!
//! There is one grammar, in the pull [`Tokenizer`] (the `token` module):
//! a strict pass over a `&str` that yields [`Event`]s and reports errors
//! with their byte offsets.  [`from_str`] builds its [`Value`] from those
//! events, and a typed decoder (the server's `Request::decode`) reads them
//! straight into its own types, so a document is validated once and needs
//! no tree.  The tokenizer is the one API this shim has that the real crate
//! does not.  The recursive-descent parser `from_str` used before it lives
//! on in this crate's tests as the oracle: on the server's request corpus,
//! every short number spelling, generated documents and byte mutations of
//! them, `from_str` must give the same `Value`, or the same error message
//! at the same offset.

use std::fmt;

mod de;
#[cfg(test)]
mod oracle;
mod ser;
mod token;
mod value;

pub use de::{from_str, Error};
pub use ser::{to_string, to_string_pretty, Serialize};
pub use token::{Event, JsonNumber, JsonStr, Tokenizer};
pub use value::{Map, Number, Value};

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&ser::to_string(self).map_err(|_| fmt::Error)?)
    }
}

/// Converts a serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(value.to_json_value())
}

/// Builds a [`Value`] from JSON-like syntax with interpolated expressions.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([ $($tt:tt)* ]) => { $crate::Value::Array($crate::json_array_internal!([] $($tt)*)) };
    ({ $($tt:tt)* }) => { $crate::Value::Object($crate::json_object_internal!($($tt)*)) };
    ($other:expr) => { $crate::Serialize::to_json_value(&$other) };
}

/// Internal helper of [`json!`] for array bodies.  Not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! json_array_internal {
    // Finished: emit the collected elements.
    ([ $($elem:expr),* ]) => { vec![ $($elem),* ] };
    // Next element is a single token or a bracketed object/array literal.
    ([ $($elem:expr),* ] $next:tt $(, $($rest:tt)*)?) => {
        $crate::json_array_internal!([ $($elem,)* $crate::json!($next) ] $($($rest)*)?)
    };
    // Next element is a multi-token expression (e.g. `a.b`, `f(x)`, `1 + 2`).
    ([ $($elem:expr),* ] $next:expr $(, $($rest:tt)*)?) => {
        $crate::json_array_internal!([ $($elem,)* $crate::json!($next) ] $($($rest)*)?)
    };
}

/// Internal helper of [`json!`] for object bodies.  Not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! json_object_internal {
    (@entries $map:ident) => {};
    // Value is a single token or a bracketed object/array literal.
    (@entries $map:ident $key:literal : $value:tt $(, $($rest:tt)*)?) => {
        $map.insert($key.to_string(), $crate::json!($value));
        $crate::json_object_internal!(@entries $map $($($rest)*)?);
    };
    // Value is a multi-token expression.
    (@entries $map:ident $key:literal : $value:expr $(, $($rest:tt)*)?) => {
        $map.insert($key.to_string(), $crate::json!($value));
        $crate::json_object_internal!(@entries $map $($($rest)*)?);
    };
    ($($tt:tt)*) => {{
        let mut map = $crate::Map::new();
        $crate::json_object_internal!(@entries map $($tt)*);
        map
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macro_builds_nested_values() {
        let xs = vec![1u32, 2, 3];
        let name = "ada";
        let v = json!({
            "n": 3,
            "name": name,
            "xs": xs,
            "nested": { "ok": true, "pi": 3.25 },
            "list": [1, "two", null],
        });
        assert_eq!(v["n"], 3);
        assert_eq!(v["name"], "ada");
        assert_eq!(v["xs"].as_array().unwrap().len(), 3);
        assert!(v["nested"]["ok"].as_bool().unwrap());
        assert_eq!(v["nested"]["pi"].as_f64(), Some(3.25));
        assert_eq!(v["list"][1], "two");
        assert!(v["list"][2].is_null());
        assert!(v["missing"].is_null());
    }

    #[test]
    fn round_trip_through_text() {
        let v = json!({
            "size": 4usize,
            "score": -1.5,
            "label": "a \"quoted\"\nstring",
            "flags": [true, false],
        });
        let text = to_string_pretty(&v).unwrap();
        assert!(text.starts_with("{\n"));
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
        let compact: Value = from_str(&to_string(&v).unwrap()).unwrap();
        assert_eq!(compact, v);
    }

    #[test]
    fn parser_accepts_standard_json() {
        let v: Value =
            from_str(r#"{"a": [1, 2.5, -3, 1e2], "b": {"c": null}, "d": "xAy"} "#).unwrap();
        assert_eq!(v["a"][0].as_u64(), Some(1));
        assert_eq!(v["a"][1].as_f64(), Some(2.5));
        assert_eq!(v["a"][2].as_i64(), Some(-3));
        assert_eq!(v["a"][3].as_f64(), Some(100.0));
        assert!(v["b"]["c"].is_null());
        assert_eq!(v["d"].as_str(), Some("xAy"));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("{\"a\" 1}").is_err());
        assert!(from_str::<Value>("12 34").is_err());
        assert!(from_str::<Value>("nul").is_err());
    }

    #[test]
    fn index_mut_inserts_into_objects() {
        let mut v = json!({ "a": 1 });
        v["b"] = json!("x");
        assert_eq!(v["b"], "x");
        let mut fresh = Value::Null;
        fresh["k"] = json!(2);
        assert_eq!(fresh["k"], 2);
    }

    #[test]
    fn non_finite_floats_serialize_to_null() {
        let v = json!(f64::INFINITY);
        assert!(v.is_null());
        let v = json!(f64::NAN);
        assert!(v.is_null());
    }

    #[test]
    fn map_preserves_insertion_order() {
        let mut m = Map::new();
        m.insert("z".to_string(), json!(1));
        m.insert("a".to_string(), json!(2));
        let keys: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["z", "a"]);
        let text = to_string(&m).unwrap();
        assert_eq!(text, r#"{"z":1,"a":2}"#);
    }
}
