//! # soc-json — JSON for the REST side of the stack
//!
//! The paper's CSE446 projects include *"RESTful service development,
//! Web applications consuming RESTful services"*; REST payloads in this
//! workspace are JSON. This crate is a small, complete JSON
//! implementation: a [`Value`] model, a strict RFC 8259 parser, compact
//! and pretty serializers, and JSON Pointer (RFC 6901) lookup.
//!
//! ```
//! use soc_json::{json, Value};
//!
//! let v = json!({ "service": "echo", "cost": 0, "tags": ["rest", "demo"] });
//! assert_eq!(v.pointer("/tags/1").and_then(Value::as_str), Some("demo"));
//! let text = v.to_string();
//! assert_eq!(Value::parse(&text).unwrap(), v);
//! ```

pub mod borrow;
pub mod parse;
pub mod pointer;
pub mod scan;
pub mod ser;
pub mod value;

pub use borrow::ValueRef;
pub use parse::{canonical, items_raw, members_raw, parse_ref, JsonError, JsonResult};
pub use value::{Number, Value};

/// Build a [`Value`] with JSON-like syntax. Supports objects, arrays,
/// literals, and interpolating expressions that implement
/// `Into<Value>`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([ $( $elem:tt ),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::json!($elem) ),* ])
    };
    ({ $( $key:tt : $val:tt ),* $(,)? }) => {
        $crate::Value::Object(vec![
            $( ($key.to_string(), $crate::json!($val)) ),*
        ])
    };
    ($other:expr) => { $crate::Value::from($other) };
}

#[cfg(test)]
mod macro_tests {
    use crate::Value;

    #[test]
    fn literals() {
        assert_eq!(json!(null), Value::Null);
        assert_eq!(json!(true), Value::Bool(true));
        assert_eq!(json!(2.5), Value::from(2.5));
        assert_eq!(json!("hi"), Value::from("hi"));
    }

    #[test]
    fn nested_structures() {
        let v = json!({ "a": [1, 2, { "b": null }], "c": false });
        assert_eq!(v.pointer("/a/2/b"), Some(&Value::Null));
        assert_eq!(v.get("c"), Some(&Value::Bool(false)));
    }

    #[test]
    fn interpolation() {
        let name = format!("svc-{}", 9);
        let v = json!({ "name": name, "n": (4 + 3) });
        assert_eq!(v.get("name").and_then(Value::as_str), Some("svc-9"));
        assert_eq!(v.get("n").and_then(Value::as_i64), Some(7));
    }
}
