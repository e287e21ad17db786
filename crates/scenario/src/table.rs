//! Field tables: every schema type is written once, as a table of rows.
//!
//! [`table!`] declares a struct and [`tagged!`] a `kind`-tagged enum. A
//! row carries everything about one field — doc comment, name, type, an
//! optional default (`adaptive: bool = true`) and an optional field check
//! (`qps: f64 => pos("arrival rate")`) — and the macro generates the type,
//! its path-tracked decode (unknown keys and tags are errors), the
//! per-field checks and the recursion into child types. There is no
//! encode: scenarios are only ever read. Checks that span fields are a
//! hand-written `check = hook;` clause after the table; they run after
//! every row.
//!
//! Both macros sit on [`Node`], implemented for the leaf types (`f64`,
//! `u64`, `usize`, `u32`, `bool`, `String`), `Option<T>`, `Vec<T>` and
//! every table type (through [`Body`]).

use serde::Value;

use crate::decode::{expected, join, join_index, parse_err, validate_err, Obj};
use crate::error::ScenarioError;
use crate::schema::Names;

/// The result of a check.
pub(crate) type Check = Result<(), ScenarioError>;

/// Anything a row can hold.
pub(crate) trait Node: Sized {
    /// What the row's field check sees: the value itself, or what an
    /// `Option` holds.
    type Item: ?Sized;

    /// Decodes the value found at `path`.
    fn decode(v: &Value, path: &str) -> Result<Self, ScenarioError>;

    /// The value of an absent key at `path`: an error unless optional.
    fn missing(path: &str) -> Result<Self, ScenarioError> {
        Err(parse_err(path, "missing required key"))
    }

    /// Runs the rows of a table type (leaves have none).
    fn validate(&self, _path: &str) -> Check {
        Ok(())
    }

    /// The value a field check sees; `None` (an absent option) skips it.
    fn item(&self) -> Option<&Self::Item>;

    /// Reads row `key` of `o`. Flat types read `o`'s own fields instead.
    fn take(o: &mut Obj<'_>, key: &str) -> Result<Self, ScenarioError> {
        o.get(key, Self::missing)
    }

    /// Checks row `key` of the object at `parent`.
    fn check_at(&self, parent: &str, key: &str) -> Check {
        self.validate(&join(parent, key))
    }
}

macro_rules! leaf {
    ($($ty:ty, $item:ty: |$v:ident, $path:ident| $decode:expr;)*) => {$(
        impl Node for $ty {
            type Item = $item;
            fn decode($v: &Value, $path: &str) -> Result<Self, ScenarioError> {
                $decode
            }
            fn item(&self) -> Option<&$item> {
                Some(self)
            }
        }
    )*};
}

leaf! {
    bool, bool: |v, path| match v {
        Value::Bool(b) => Ok(*b),
        other => Err(expected(path, "a boolean", other)),
    };
    String, str: |v, path| match v {
        Value::Str(s) => Ok(s.clone()),
        other => Err(expected(path, "a string", other)),
    };
    // Numbers widen to `f64`.
    f64, f64: |v, path| match v {
        Value::F64(x) => Ok(*x),
        Value::U64(n) => Ok(*n as f64),
        Value::I64(n) => Ok(*n as f64),
        other => Err(expected(path, "a number", other)),
    };
    u64, u64: |v, path| match v {
        Value::U64(n) => Ok(*n),
        Value::I64(n) => u64::try_from(*n)
            .map_err(|_| parse_err(path, format!("expected a non-negative integer, found {n}"))),
        other => Err(expected(path, "an integer", other)),
    };
    usize, usize: |v, path| narrow(u64::decode(v, path)?, path);
    u32, u32: |v, path| narrow(u64::decode(v, path)?, path);
}

fn narrow<T: TryFrom<u64>>(n: u64, path: &str) -> Result<T, ScenarioError> {
    T::try_from(n).map_err(|_| parse_err(path, format!("{n} is out of range")))
}

impl<T: Node> Node for Option<T> {
    type Item = T::Item;

    fn decode(v: &Value, path: &str) -> Result<Self, ScenarioError> {
        T::decode(v, path).map(Some)
    }

    fn missing(_path: &str) -> Result<Self, ScenarioError> {
        Ok(None)
    }

    fn validate(&self, path: &str) -> Check {
        self.as_ref().map_or(Ok(()), |x| x.validate(path))
    }

    fn item(&self) -> Option<&T::Item> {
        self.as_ref().and_then(Node::item)
    }
}

impl<T: Node> Node for Vec<T> {
    type Item = [T];

    fn decode(v: &Value, path: &str) -> Result<Self, ScenarioError> {
        match v {
            Value::Array(items) => {
                items.iter().enumerate().map(|(i, x)| T::decode(x, &join_index(path, i))).collect()
            }
            other => Err(expected(path, "an array", other)),
        }
    }

    fn validate(&self, path: &str) -> Check {
        self.iter().enumerate().try_for_each(|(i, x)| x.validate(&join_index(path, i)))
    }

    fn item(&self) -> Option<&[T]> {
        Some(self)
    }
}

/// A type stored as the fields of one object: a table struct, a tagged
/// enum, or the hand-written `TimeSpec`.
pub(crate) trait Body: Sized {
    /// Whether the fields sit in the parent's object instead of under a
    /// key of their own.
    const FLAT: bool = false;

    /// Reads the fields from `o` (the caller rejects unknown keys).
    fn read(o: &mut Obj<'_>) -> Result<Self, ScenarioError>;

    /// Runs every row's check and recursion, then the type's own hook, for
    /// the object at `path`.
    fn check(&self, path: &str) -> Check;
}

/// Decodes a [`Body`] that sits under a key of its own.
pub(crate) fn decode_body<T: Body>(v: &Value, path: &str) -> Result<T, ScenarioError> {
    let mut o = Obj::new(v, path)?;
    let out = T::read(&mut o)?;
    o.finish()?;
    Ok(out)
}

/// The [`Node`] impl of a [`Body`] type.
macro_rules! body_node {
    ($T:ty) => {
        impl $crate::table::Node for $T {
            type Item = Self;

            fn decode(v: &serde::Value, path: &str) -> Result<Self, $crate::ScenarioError> {
                $crate::table::decode_body(v, path)
            }

            fn validate(&self, path: &str) -> $crate::table::Check {
                $crate::table::Body::check(self, path)
            }

            fn item(&self) -> Option<&Self> {
                Some(self)
            }

            fn take(
                o: &mut $crate::decode::Obj<'_>,
                key: &str,
            ) -> Result<Self, $crate::ScenarioError> {
                if <Self as $crate::table::Body>::FLAT {
                    $crate::table::Body::read(o)
                } else {
                    o.get(key, Self::missing)
                }
            }

            fn check_at(&self, parent: &str, key: &str) -> $crate::table::Check {
                if <Self as $crate::table::Body>::FLAT {
                    $crate::table::Body::check(self, parent)
                } else {
                    $crate::table::Body::check(self, &$crate::decode::join(parent, key))
                }
            }
        }
    };
}

/// Reads one row: `T::take`, or the row's default when the key is absent.
macro_rules! read_row {
    ($o:ident, $f:ident: $ty:ty) => {
        <$ty as $crate::table::Node>::take($o, stringify!($f))?
    };
    ($o:ident, $f:ident: $ty:ty = $default:expr) => {
        $o.get(stringify!($f), |_| Ok(<$ty>::from($default)))?
    };
}

/// Checks one row: its field check (if any), then the recursion into it.
macro_rules! check_row {
    ($x:expr, $path:ident, $f:ident) => {
        $crate::table::Node::check_at($x, $path, stringify!($f))?
    };
    ($x:expr, $path:ident, $f:ident, $check:expr) => {
        if let Some(item) = $crate::table::Node::item($x) {
            ($check)(item, &$crate::decode::join($path, stringify!($f)))?;
        }
        $crate::table::Node::check_at($x, $path, stringify!($f))?
    };
}

/// Declares a schema struct from its field table.
macro_rules! table {
    (
        $(#[$meta:meta])*
        pub struct $T:ident {
            $($(#[$fmeta:meta])* $f:ident: $ty:ty $(= $default:expr)? $(=> $check:expr)?,)*
        }
        $(check = $hook:expr;)?
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $T {
            $($(#[$fmeta])* pub $f: $ty,)*
        }

        impl $crate::table::Body for $T {
            fn read(o: &mut $crate::decode::Obj<'_>) -> Result<Self, $crate::ScenarioError> {
                Ok($T { $($f: $crate::table::read_row!(o, $f: $ty $(= $default)?),)* })
            }

            fn check(&self, path: &str) -> $crate::table::Check {
                $($crate::table::check_row!(&self.$f, path, $f $(, $check)?);)*
                $(($hook)(self, path)?;)?
                Ok(())
            }
        }

        $crate::table::body_node!($T);
    };
}

/// Declares a `kind`-tagged schema enum from one field table per variant.
/// `flat = true;` stores the variant's fields in the parent's object.
macro_rules! tagged {
    (
        $(#[$meta:meta])*
        pub enum $T:ident {
            $($(#[$vmeta:meta])* $V:ident = $tag:literal $({
                $($(#[$fmeta:meta])* $f:ident: $ty:ty $(= $default:expr)? $(=> $check:expr)?,)*
            })?,)*
        }
        $(check = $hook:expr;)?
        $(flat = $flat:expr;)?
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub enum $T {
            $($(#[$vmeta])* $V $({ $($(#[$fmeta])* $f: $ty,)* })?,)*
        }

        impl $crate::table::Body for $T {
            $(const FLAT: bool = $flat;)?

            fn read(o: &mut $crate::decode::Obj<'_>) -> Result<Self, $crate::ScenarioError> {
                let tag: String = o.field("kind")?;
                $(if tag == $tag {
                    return Ok($T::$V $({ $($f: $crate::table::read_row!(o, $f: $ty $(= $default)?),)* })?);
                })*
                Err($crate::decode::parse_err(
                    &$crate::decode::join(o.path(), "kind"),
                    format!("unknown kind `{tag}`; expected one of {}", [$($tag),*].join(", ")),
                ))
            }

            fn check(&self, path: &str) -> $crate::table::Check {
                match self {
                    $($T::$V $({ $($f),* })? => {
                        $($($crate::table::check_row!($f, path, $f $(, $check)?);)*)?
                    })*
                }
                $(($hook)(self, path)?;)?
                Ok(())
            }
        }

        $crate::table::body_node!($T);
    };
}

pub(crate) use {body_node, check_row, read_row, table, tagged};

// --- field checks --------------------------------------------------------

fn require_finite(x: f64, path: &str, what: &str) -> Check {
    if x.is_finite() {
        Ok(())
    } else {
        Err(validate_err(path, format!("{what} must be finite, got {x}")))
    }
}

/// A finite float.
pub(crate) fn finite(what: &'static str) -> impl Fn(&f64, &str) -> Check {
    move |x, path| require_finite(*x, path, what)
}

/// A finite, positive float.
pub(crate) fn pos(what: &'static str) -> impl Fn(&f64, &str) -> Check {
    move |x, path| {
        require_finite(*x, path, what)?;
        if *x > 0.0 {
            Ok(())
        } else {
            Err(validate_err(path, format!("{what} must be positive, got {x}")))
        }
    }
}

/// A finite float for which `ok` holds; `rule` spells `ok` in the error.
pub(crate) fn within(
    what: &'static str,
    rule: &'static str,
    ok: fn(f64) -> bool,
) -> impl Fn(&f64, &str) -> Check {
    move |x, path| {
        require_finite(*x, path, what)?;
        if ok(*x) {
            Ok(())
        } else {
            Err(validate_err(path, format!("must be {rule}, got {x}")))
        }
    }
}

/// A finite float `>= 0`.
pub(crate) fn non_neg(what: &'static str) -> impl Fn(&f64, &str) -> Check {
    within(what, ">= 0", |x| x >= 0.0)
}

/// A positive bound, `inf` included.
pub(crate) fn pos_or_inf(x: &f64, path: &str) -> Check {
    if x.is_nan() || *x <= 0.0 {
        Err(validate_err(path, format!("must be positive (inf allowed), got {x}")))
    } else {
        Ok(())
    }
}

/// A count of at least one.
pub(crate) fn at_least_1(n: &usize, path: &str) -> Check {
    if *n == 0 {
        Err(validate_err(path, "must be at least 1"))
    } else {
        Ok(())
    }
}

/// A non-empty name.
pub(crate) fn non_empty(s: &str, path: &str) -> Check {
    if s.is_empty() {
        Err(validate_err(path, "must not be empty"))
    } else {
        Ok(())
    }
}

/// One of a few fixed words.
pub(crate) fn one_of(words: &'static [&'static str]) -> impl Fn(&str, &str) -> Check {
    move |s, path| {
        if words.contains(&s) {
            Ok(())
        } else {
            let words: Vec<String> = words.iter().map(|w| format!("`{w}`")).collect();
            Err(validate_err(path, format!("must be {}, got `{s}`", words.join(" or "))))
        }
    }
}

/// A name from a [`Names`] set; the error lists the set.
pub(crate) fn known<T>(what: &'static str, names: Names<T>) -> impl Fn(&str, &str) -> Check {
    move |s, path| {
        if names.iter().any(|(n, _)| *n == s) {
            Ok(())
        } else {
            let all: Vec<&str> = names.iter().map(|(n, _)| *n).collect();
            Err(validate_err(
                path,
                format!("unknown {what} `{s}`; expected one of {}", all.join(", ")),
            ))
        }
    }
}

/// A non-empty list.
pub(crate) fn declares<T>(what: &'static str) -> impl Fn(&[T], &str) -> Check {
    move |items, path| {
        if items.is_empty() {
            Err(validate_err(path, format!("must declare at least one {what}")))
        } else {
            Ok(())
        }
    }
}
