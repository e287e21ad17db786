//! Path-tracked decoding from the serde [`Value`] tree.
//!
//! The vendored serde derive ignores unknown fields and reports errors
//! without location, which is the opposite of what a config front-end
//! needs. Scenario types therefore decode through [`Obj`]: every field
//! read records the dotted key path it descended through, unknown keys are
//! rejected by [`Obj::finish`], and every error names the offending path
//! (`serve.arrivals.rate.qps`) so a misspelled key in a 60-line TOML file
//! is a one-line diagnosis. What each field decodes to is the field's
//! [`Node`] type (see [`crate::table`]).

use serde::Value;

use crate::error::ScenarioError;
use crate::table::Node;

/// Builds a [`ScenarioError::Parse`] at `path`.
pub(crate) fn parse_err(path: &str, why: impl Into<String>) -> ScenarioError {
    ScenarioError::Parse { path: path.to_string(), why: why.into() }
}

/// Builds a [`ScenarioError::Validate`] at `path`.
pub(crate) fn validate_err(path: &str, why: impl Into<String>) -> ScenarioError {
    ScenarioError::Validate { path: path.to_string(), why: why.into() }
}

/// The standard "expected X, found Y" parse error.
pub(crate) fn expected(path: &str, what: &str, found: &Value) -> ScenarioError {
    parse_err(path, format!("expected {what}, found {}", found.type_name()))
}

/// Joins a parent path and a key into `parent.key` (or `key` at the root).
pub(crate) fn join(parent: &str, key: &str) -> String {
    if parent.is_empty() {
        key.to_string()
    } else {
        format!("{parent}.{key}")
    }
}

/// Joins a parent path and an index into `parent[i]`.
pub(crate) fn join_index(parent: &str, index: usize) -> String {
    format!("{parent}[{index}]")
}

/// A view over one object in the tree that tracks which keys the schema
/// claimed, so [`finish`](Obj::finish) can reject the rest by name.
pub(crate) struct Obj<'v> {
    path: String,
    fields: &'v [(String, Value)],
    claimed: Vec<bool>,
}

impl<'v> Obj<'v> {
    /// Wraps `v`, which must be an object, rooted at `path`.
    pub(crate) fn new(v: &'v Value, path: &str) -> Result<Self, ScenarioError> {
        match v {
            Value::Object(fields) => {
                Ok(Obj { path: path.to_string(), fields, claimed: vec![false; fields.len()] })
            }
            other => Err(expected(path, "a table", other)),
        }
    }

    /// The dotted path of this object.
    pub(crate) fn path(&self) -> &str {
        &self.path
    }

    /// Decodes field `key` as a `T`; when the key is absent (JSON `null`
    /// counts as absent), `absent` gets the field's path instead.
    pub(crate) fn get<T: Node>(
        &mut self,
        key: &str,
        absent: impl FnOnce(&str) -> Result<T, ScenarioError>,
    ) -> Result<T, ScenarioError> {
        let path = join(&self.path, key);
        let found = self.fields.iter().position(|(k, _)| k == key);
        match found {
            Some(i) => {
                self.claimed[i] = true;
                match &self.fields[i].1 {
                    Value::Null => absent(&path),
                    v => T::decode(v, &path),
                }
            }
            None => absent(&path),
        }
    }

    /// Decodes field `key` as a `T` ([`Node::take`]: an absent key is
    /// [`Node::missing`]).
    pub(crate) fn field<T: Node>(&mut self, key: &str) -> Result<T, ScenarioError> {
        T::take(self, key)
    }

    /// Rejects any key the schema did not claim.
    ///
    /// # Errors
    ///
    /// Returns a parse error naming the first unknown key's full path.
    pub(crate) fn finish(self) -> Result<(), ScenarioError> {
        match self.claimed.iter().position(|c| !c) {
            Some(i) => Err(parse_err(&join(&self.path, &self.fields[i].0), "unknown key")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RateSpec;

    fn tree() -> Value {
        Value::Object(vec![
            ("name".to_string(), Value::Str("x".to_string())),
            ("seed".to_string(), Value::U64(7)),
            ("rate".to_string(), Value::F64(1.5)),
            ("on".to_string(), Value::Bool(true)),
            ("items".to_string(), Value::Array(vec![Value::U64(1), Value::U64(2)])),
        ])
    }

    #[test]
    fn getters_and_finish_accept_a_fully_claimed_object() {
        let v = tree();
        let mut o = Obj::new(&v, "root").expect("object");
        assert_eq!(o.field::<String>("name").expect("name"), "x");
        assert_eq!(o.field::<u64>("seed").expect("seed"), 7);
        assert!((o.field::<f64>("rate").expect("rate") - 1.5).abs() < 1e-12);
        assert!(o.field::<bool>("on").expect("on"));
        assert_eq!(o.field::<Vec<usize>>("items").expect("items"), vec![1, 2]);
        o.finish().expect("all keys claimed");
    }

    #[test]
    fn unknown_keys_are_named_with_their_full_path() {
        let v = tree();
        let mut o = Obj::new(&v, "serve").expect("object");
        let _ = o.field::<String>("name");
        let err = o.finish().expect_err("unclaimed keys");
        assert_eq!(err.key_path(), Some("serve.seed"));
    }

    #[test]
    fn missing_and_mistyped_keys_are_named() {
        let v = tree();
        let mut o = Obj::new(&v, "").expect("object");
        let missing = o.field::<f64>("qps").expect_err("missing");
        assert_eq!(missing.key_path(), Some("qps"));
        let mistyped = o.field::<u64>("name").expect_err("mistyped");
        assert_eq!(mistyped.key_path(), Some("name"));
        let items = o.field::<Vec<String>>("items").expect_err("mistyped element");
        assert_eq!(items.key_path(), Some("items[0]"));
        let negative = Obj::new(&Value::Object(vec![("n".to_string(), Value::I64(-2))]), "w")
            .and_then(|mut o| o.field::<u64>("n"))
            .expect_err("negative");
        assert_eq!(negative.key_path(), Some("w.n"));
    }

    #[test]
    fn tag_lists_the_allowed_kinds() {
        let v = Value::Object(vec![("kind".to_string(), Value::Str("qp".to_string()))]);
        let err = RateSpec::decode(&v, "serve.arrivals.rate").expect_err("unknown tag");
        assert_eq!(err.key_path(), Some("serve.arrivals.rate.kind"));
        match err {
            ScenarioError::Parse { why, .. } => {
                assert!(why.contains("qps, capacity_frac, pool_capacity_frac"), "{why}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }
}
