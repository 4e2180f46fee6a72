//! The workspace's one JSON: value model, grammar, escaper, writer, and
//! the typed field codec every text format here is built on.
//!
//! The lint `--json` report, the `BENCH_*.json` documents, node
//! checkpoints, the distributed service's wire frames and the JSONL event
//! trace all go through this module. It supports the JSON subset those
//! schemas use: objects, arrays, strings with `\uXXXX` escapes, finite
//! numbers in RFC 8259's grammar, booleans, and `null`.
//!
//! Input is untrusted (a frame arrives over a socket, a checkpoint over a
//! process boundary), so three limits are part of the contract, and they
//! hold alike for a tree ([`parse`]) and for text read straight into a
//! type ([`Reader`]) — the two share one scan:
//!
//! * **Nesting depth.** The scan recurses once per nested array or
//!   object and refuses a document deeper than [`MAX_DEPTH`] with an
//!   `Err`, so no input can exhaust the stack.
//! * **Integers.** Numbers are `f64`. An integer is read back only when
//!   it is non-negative and below 2^53: at and above that ceiling a
//!   double no longer tells neighbouring integers apart, so such a value
//!   is an `Err`, never a silently different number. No emitter here
//!   produces one (full-entropy 64-bit words travel as hex strings).
//! * **Narrowing.** A decoded number reaches a `u8`/`u16`/`u32`/`usize`
//!   only through [`FromJson`], which range-checks; out of range is an
//!   `Err`, never a wrap.
//!
//! A type's text form is stated once, as a [`ToJson`]/[`FromJson`] pair.
//! A decode is written against [`Value`], whose typed accessors
//! ([`Value::field`], [`Value::opt_field`], [`Value::array`],
//! [`Value::member`]) name the key in their errors, and it reads either
//! source: a tree node, or a value of text a [`Reader`] scanned, where a
//! frame decodes with no tree and a string without escapes is borrowed.
//! Both sources answer alike — a repeated key yields its last value — so
//! one statement decodes the same value, or refuses with the same error,
//! from either. The pairs for the `twobit-types` wire types live beside
//! this module in `codec.rs`; every other crate implements them for its
//! own types.
//!
//! The encode half is an *emission*: [`ToJson::emit`] says what the value
//! is made of to a [`Sink`], and there are two sinks. [`ToJson::json`]
//! collects the emission into a [`Json`] tree (checkpoints and documents,
//! which are kept, merged and read back); [`Text`] writes it straight
//! into a `String` (wire frames, timeline lines and trace events, which
//! are written once and never looked at again). [`Text`] writes members
//! as the statement lists them and the tree sorts them, so for a
//! statement in sorted-key order — every frame and timeline statement —
//! both produce the same canonical text, and which sink a caller picks is
//! a question of cost, never of format.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON value.
///
/// Objects preserve no insertion order (they are sorted by key), which is
/// fine for the bench schema: all lookups are by name, and sorted keys
/// make emitted documents canonical and diff-friendly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any finite number. Integers below 2^53 round-trip exactly.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, sorted by key.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object; `None` for absent keys or non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// [`field::<u64>`](Value::field).
    ///
    /// # Errors
    ///
    /// Returns a message naming `key` when absent or not an integer.
    pub fn req_u64(&self, key: &str) -> Result<u64, String> {
        Value::field(self, key)
    }

    /// [`field::<f64>`](Value::field).
    ///
    /// # Errors
    ///
    /// Returns a message naming `key` when absent or not a number.
    pub fn req_f64(&self, key: &str) -> Result<f64, String> {
        Value::field(self, key)
    }

    /// A required string member, borrowed.
    ///
    /// # Errors
    ///
    /// Returns a message naming `key` when absent or not a string.
    pub fn req_str(&self, key: &str) -> Result<&str, String> {
        Value::member(self, key)?
            .as_str()
            .ok_or_else(|| format!("field {key:?}: not a string"))
    }

    /// Renders compact canonical JSON (sorted object keys, no spaces).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders indented JSON (two spaces per level), for the checked-in
    /// baseline file where humans read diffs.
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * level), " ".repeat(w * (level + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, level + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, level + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

/// Integers at or above 2^53 are not exact in a double.
const EXACT_INTEGERS: f64 = 9_007_199_254_740_992.0;

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// deepest document the workspace writes (a `restore` frame carrying a
/// memory node's checkpoint with held envelopes) nests eight levels.
pub const MAX_DEPTH: usize = 64;

/// Where a [`ToJson`] statement goes: one call per scalar, a closure per
/// array or object. Inside [`object`](Self::object) every value is
/// preceded by its [`key`](Self::key) (or written with
/// [`member`](Self::member)); inside [`array`](Self::array) values follow
/// one another.
pub trait Sink: Sized {
    /// `null`.
    fn null(&mut self);
    /// `true` / `false`.
    fn bool(&mut self, b: bool);
    /// An unsigned integer (exact below 2^53, like every number here).
    fn uint(&mut self, n: u64);
    /// A string.
    fn str(&mut self, s: &str);
    /// A string holding `d`'s `Display` form, without building it first.
    fn display(&mut self, d: impl fmt::Display);
    /// A value that already is a tree (a checkpoint inside a frame).
    fn tree(&mut self, j: &Json);
    /// An array of the values `items` emits.
    fn array(&mut self, items: impl FnOnce(&mut Self));
    /// An object of the members `members` emits (a repeated key keeps
    /// its last value).
    fn object(&mut self, members: impl FnOnce(&mut Self));
    /// The key of the member whose value is emitted next.
    fn key(&mut self, key: &'static str);

    /// One member of an object.
    fn member<T: ToJson + ?Sized>(&mut self, key: &'static str, value: &T) {
        self.key(key);
        value.emit(self);
    }
}

/// A type with one JSON form, stated once as an emission into a [`Sink`].
pub trait ToJson {
    /// States this value's form to `out`.
    fn emit<S: Sink>(&self, out: &mut S);

    /// This value as a JSON value. The method is `json`, not `to_json`:
    /// [`Json::to_json`] is the *text* writer.
    fn json(&self) -> Json {
        let mut tree = Tree::default();
        self.emit(&mut tree);
        tree.values.pop().expect("a statement emits one value")
    }
}

/// The sink behind [`ToJson::json`]: the values emitted at one nesting
/// level, and the keys that preceded them when the level is an object.
#[derive(Default)]
struct Tree {
    keys: Vec<&'static str>,
    values: Vec<Json>,
}

impl Sink for Tree {
    fn null(&mut self) {
        self.values.push(Json::Null);
    }

    fn bool(&mut self, b: bool) {
        self.values.push(Json::Bool(b));
    }

    fn uint(&mut self, n: u64) {
        self.values.push(num_u64(n));
    }

    fn str(&mut self, s: &str) {
        self.values.push(Json::Str(s.to_string()));
    }

    fn display(&mut self, d: impl fmt::Display) {
        self.values.push(Json::Str(d.to_string()));
    }

    fn tree(&mut self, j: &Json) {
        self.values.push(j.clone());
    }

    fn array(&mut self, items: impl FnOnce(&mut Self)) {
        let mut inner = Tree::default();
        items(&mut inner);
        self.values.push(Json::Arr(inner.values));
    }

    fn object(&mut self, members: impl FnOnce(&mut Self)) {
        let mut inner = Tree::default();
        members(&mut inner);
        self.values
            .push(obj(inner.keys.into_iter().zip(inner.values)));
    }

    fn key(&mut self, key: &'static str) {
        self.keys.push(key);
    }
}

/// The sink that writes text: compact JSON, appended to one `String`
/// with no tree and no temporary in between.
///
/// It writes each object's members in the order the statement lists
/// them. A statement that lists them in sorted-key order — every frame
/// and every driver timeline line does, and `codec_properties.rs` checks
/// that they still do — is written exactly as `value.json().to_json()`
/// writes it: the canonical text. The JSONL trace event, whose member
/// order is older than the canonical one, keeps its own.
#[derive(Debug, Default)]
pub struct Text {
    out: String,
    /// Whether the next value or key is preceded by a comma.
    comma: bool,
}

impl Text {
    /// A writer with nothing written yet.
    #[must_use]
    pub fn new() -> Text {
        Text::default()
    }

    /// Writes `value` and lends the text until the next write. A writer
    /// that is used again allocates nothing for a line; the caller keeps
    /// a line by copying it out at its exact length.
    pub fn write<T: ToJson + ?Sized>(&mut self, value: &T) -> &str {
        if self.out.capacity() == 0 {
            // A frame or a line is one or two hundred bytes.
            self.out.reserve(128);
        }
        self.out.clear();
        self.comma = false;
        value.emit(self);
        &self.out
    }

    fn value(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }
}

impl Sink for Text {
    fn null(&mut self) {
        self.value();
        self.out.push_str("null");
    }

    fn bool(&mut self, b: bool) {
        self.value();
        self.out.push_str(if b { "true" } else { "false" });
    }

    fn uint(&mut self, n: u64) {
        self.value();
        // A double holds every integer up to 2^53, so the tree writes
        // those digits too; above, it writes what the double rounded
        // `n` to, and so does this.
        if n <= 1 << 53 {
            write_u64(&mut self.out, n);
        } else {
            write_number(&mut self.out, n as f64);
        }
    }

    fn str(&mut self, s: &str) {
        self.value();
        write_string(&mut self.out, s);
    }

    fn display(&mut self, d: impl fmt::Display) {
        self.value();
        self.out.push('"');
        let _ = write!(Escaped(&mut self.out), "{d}");
        self.out.push('"');
    }

    fn tree(&mut self, j: &Json) {
        self.value();
        j.write(&mut self.out, None, 0);
    }

    fn array(&mut self, items: impl FnOnce(&mut Self)) {
        self.value();
        self.out.push('[');
        self.comma = false;
        items(self);
        self.out.push(']');
        self.comma = true;
    }

    fn object(&mut self, members: impl FnOnce(&mut Self)) {
        self.value();
        self.out.push('{');
        self.comma = false;
        members(self);
        self.out.push('}');
        self.comma = true;
    }

    fn key(&mut self, key: &'static str) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = false;
        debug_assert!(
            key.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\'),
            "key {key:?} needs escaping"
        );
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
    }
}

/// A type decodable from its JSON form, with every number range-checked.
///
/// The decode is stated once, against [`Value`], so the same statement
/// reads a tree ([`FromJson::from_json`]) and scanned text
/// ([`Reader::read`]).
pub trait FromJson: Sized {
    /// Decodes `v`.
    ///
    /// # Errors
    ///
    /// Returns a message when `v` has the wrong shape or a value does not
    /// fit the type.
    fn decode<'a, V: Value<'a>>(v: V) -> Result<Self, String>;

    /// Decodes a tree.
    ///
    /// # Errors
    ///
    /// As [`decode`](Self::decode).
    fn from_json(j: &Json) -> Result<Self, String> {
        Self::decode(j)
    }
}

/// A JSON value a [`FromJson`] statement reads: a tree node (`&Json`) or
/// a value of a scanned document ([`Scanned`]). Both answer every
/// question alike — a repeated key yields its last value, a string its
/// unescaped text — so a statement decodes the same value from either.
pub trait Value<'a>: Copy {
    /// The elements of an array, in order.
    type Items: ExactSizeIterator<Item = Self>;

    /// The member named `key` (the last one, if repeated); `None` for an
    /// absent key or a non-object.
    fn get(self, key: &str) -> Option<Self>;
    /// The number, if this is one.
    fn as_f64(self) -> Option<f64>;
    /// The boolean, if this is one.
    fn as_bool(self) -> Option<bool>;
    /// The string, if this is one: borrowed unless it had escapes.
    fn as_str(self) -> Option<Cow<'a, str>>;
    /// Whether this is `null`.
    fn is_null(self) -> bool;
    /// The elements, or an error if this is not an array.
    ///
    /// # Errors
    ///
    /// Returns a message when `self` is not an array.
    fn items(self) -> Result<Self::Items, String>;
    /// This value as a tree (a checkpoint carried in a frame).
    fn tree(self) -> Json;

    /// The number as an unsigned integer: refused when negative,
    /// fractional, or at or above 2^53, where a double may already stand
    /// for a different integer than the text did.
    fn as_u64(self) -> Option<u64> {
        let exact = |n: &f64| *n >= 0.0 && n.fract() == 0.0 && *n < EXACT_INTEGERS;
        self.as_f64().filter(exact).map(|n| n as u64)
    }

    /// A required member, undecoded.
    ///
    /// # Errors
    ///
    /// Returns a message naming `key` when it is absent (or `self` is not
    /// an object).
    fn member(self, key: &str) -> Result<Self, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    /// A required member, decoded and range-checked as `T`.
    ///
    /// # Errors
    ///
    /// Returns a message naming `key` when it is absent or is not a `T`.
    fn field<T: FromJson>(self, key: &str) -> Result<T, String> {
        T::decode(self.member(key)?).map_err(|e| format!("field {key:?}: {e}"))
    }

    /// A member that may be absent (`None`), decoded as `T` when present.
    /// A member that is always written but may be `null` is
    /// `field::<Option<T>>` instead.
    ///
    /// # Errors
    ///
    /// Returns a message naming `key` when it is present but not a `T`.
    fn opt_field<T: FromJson>(self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| T::decode(v).map_err(|e| format!("field {key:?}: {e}")))
            .transpose()
    }

    /// The elements of a required array member, undecoded (for arrays of
    /// entry objects; an array of one type is `field::<Vec<T>>`).
    ///
    /// # Errors
    ///
    /// Returns a message naming `key` when it is absent or not an array.
    fn array(self, key: &str) -> Result<Self::Items, String> {
        self.member(key)?
            .items()
            .map_err(|e| format!("field {key:?}: {e}"))
    }

    /// A required string member.
    ///
    /// # Errors
    ///
    /// Returns a message naming `key` when absent or not a string.
    fn req_str(self, key: &str) -> Result<Cow<'a, str>, String> {
        self.member(key)?
            .as_str()
            .ok_or_else(|| format!("field {key:?}: not a string"))
    }
}

impl<'a> Value<'a> for &'a Json {
    type Items = std::slice::Iter<'a, Json>;

    fn get(self, key: &str) -> Option<Self> {
        Json::get(self, key)
    }

    fn as_f64(self) -> Option<f64> {
        Json::as_f64(self)
    }

    fn as_bool(self) -> Option<bool> {
        Json::as_bool(self)
    }

    fn as_str(self) -> Option<Cow<'a, str>> {
        Json::as_str(self).map(Cow::Borrowed)
    }

    fn is_null(self) -> bool {
        matches!(self, Json::Null)
    }

    fn items(self) -> Result<Self::Items, String> {
        let items = self.as_array().map(<[Json]>::iter);
        items.ok_or_else(|| "not an array".to_string())
    }

    fn tree(self) -> Json {
        self.clone()
    }
}

macro_rules! unsigned_codec {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn emit<S: Sink>(&self, out: &mut S) {
                out.uint(*self as u64);
            }
        }

        impl FromJson for $t {
            fn decode<'a, V: Value<'a>>(j: V) -> Result<Self, String> {
                let n = j.as_u64().ok_or_else(|| {
                    format!("not an unsigned integer below 2^53: {}", j.tree().to_json())
                })?;
                <$t>::try_from(n).map_err(|_| format!("{n} does not fit {}", stringify!($t)))
            }
        }
    )*};
}

unsigned_codec!(u8, u16, u32, u64, usize);

impl FromJson for f64 {
    fn decode<'a, V: Value<'a>>(j: V) -> Result<Self, String> {
        j.as_f64().ok_or_else(|| "not a number".to_string())
    }
}

impl ToJson for bool {
    fn emit<S: Sink>(&self, out: &mut S) {
        out.bool(*self);
    }
}

impl FromJson for bool {
    fn decode<'a, V: Value<'a>>(j: V) -> Result<Self, String> {
        j.as_bool().ok_or_else(|| "not a boolean".to_string())
    }
}

impl ToJson for str {
    fn emit<S: Sink>(&self, out: &mut S) {
        out.str(self);
    }
}

impl ToJson for String {
    fn emit<S: Sink>(&self, out: &mut S) {
        out.str(self);
    }
}

impl FromJson for String {
    fn decode<'a, V: Value<'a>>(j: V) -> Result<Self, String> {
        j.as_str()
            .map(Cow::into_owned)
            .ok_or_else(|| "not a string".to_string())
    }
}

/// A tree is its own form.
impl ToJson for Json {
    fn emit<S: Sink>(&self, out: &mut S) {
        out.tree(self);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn emit<S: Sink>(&self, out: &mut S) {
        (**self).emit(out);
    }
}

/// `None` is `null`.
impl<T: ToJson> ToJson for Option<T> {
    fn emit<S: Sink>(&self, out: &mut S) {
        match self {
            Some(v) => v.emit(out),
            None => out.null(),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn decode<'a, V: Value<'a>>(j: V) -> Result<Self, String> {
        if j.is_null() {
            Ok(None)
        } else {
            T::decode(j).map(Some)
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn emit<S: Sink>(&self, out: &mut S) {
        out.array(|a| self.iter().for_each(|v| v.emit(a)));
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn emit<S: Sink>(&self, out: &mut S) {
        self.as_slice().emit(out);
    }
}

/// Allocated once, at the array's length.
impl<T: FromJson> FromJson for Vec<T> {
    fn decode<'a, V: Value<'a>>(j: V) -> Result<Self, String> {
        let items = j.items()?;
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            out.push(T::decode(item)?);
        }
        Ok(out)
    }
}

/// Collecting values makes an array.
impl FromIterator<Json> for Json {
    fn from_iter<I: IntoIterator<Item = Json>>(iter: I) -> Self {
        Json::Arr(iter.into_iter().collect())
    }
}

/// States a struct's JSON form once, as an object keyed by its field
/// names, and derives both directions from it.
#[macro_export]
macro_rules! json_struct {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn emit<S: $crate::json::Sink>(&self, out: &mut S) {
                out.object(|o| {
                    $(o.member(stringify!($field), &self.$field);)*
                });
            }
        }

        impl $crate::json::FromJson for $ty {
            fn decode<'a, V: $crate::json::Value<'a>>(j: V) -> Result<Self, String> {
                Ok(Self { $($field: j.field(stringify!($field))?),* })
            }
        }
    };
}

/// States a fieldless enum's JSON form once, as one string per variant,
/// and derives both directions from it.
#[macro_export]
macro_rules! json_enum {
    ($ty:ident { $($variant:ident => $name:literal),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn emit<S: $crate::json::Sink>(&self, out: &mut S) {
                out.str(match self {
                    $($ty::$variant => $name),*
                });
            }
        }

        impl $crate::json::FromJson for $ty {
            fn decode<'a, V: $crate::json::Value<'a>>(j: V) -> Result<Self, String> {
                match j.as_str().as_deref() {
                    $(Some($name) => Ok($ty::$variant),)*
                    _ => Err(format!("not one of {:?}: {}", [$($name),*], j.tree().to_json())),
                }
            }
        }
    };
}

/// Builds an object from `(key, value)` pairs (later duplicates win).
pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// `value` as text, members in statement order: for a statement in
/// sorted-key order, what `value.json().to_json()` writes, without the
/// tree.
pub fn to_text<T: ToJson + ?Sized>(value: &T) -> String {
    Text::new().write(value).to_owned()
}

/// A number from an unsigned integer (exact below 2^53).
#[must_use]
pub fn num_u64(n: u64) -> Json {
    Json::Num(n as f64)
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; the schema never produces them, but a
        // defensive null beats an unparsable document.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= EXACT_INTEGERS {
        if n < 0.0 {
            out.push('-');
        }
        write_u64(out, n.abs() as u64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Appends `n` in decimal — what nearly every number written here is,
/// so it does not go through `fmt`. The digits go over as `char`s: a
/// `str` of them would be checked for UTF-8 first.
fn write_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// Appends `s` as a quoted JSON string — the workspace's one escaper.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let _ = Escaped(out).write_str(s);
    out.push('"');
}

/// Escapes what is written through it into the string it wraps.
struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        // Runs of plain bytes go over whole; only `"`, `\` and the
        // control characters (all one byte long) are rewritten.
        let mut plain = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            self.0.push_str(&s[plain..i]);
            plain = i + 1;
            if escape.is_empty() {
                let _ = write!(self.0, "\\u{b:04x}");
            } else {
                self.0.push_str(escape);
            }
        }
        self.0.push_str(&s[plain..]);
        Ok(())
    }
}

/// Parses one JSON document (trailing whitespace allowed, nothing else)
/// into a tree: the [`Reader`]'s scan, then the tree of what it indexed.
///
/// # Errors
///
/// Returns a human-readable message with a byte offset on malformed
/// input, including a document nested deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    Reader::default().with(text, |root| root.tree())
}

/// Reads JSON documents straight from their text: one pass validates a
/// document against the grammar and indexes its values into a token
/// tape, and a [`FromJson`] statement then reads the tape through
/// [`Scanned`] — no tree, and no string copied unless it has escapes.
/// The tape is kept from one document to the next, so a reader that is
/// used again allocates nothing for a document no larger than one it
/// has read.
///
/// The scan is the grammar's one statement: [`parse`] builds its tree
/// from it, so a document is accepted or refused alike on both paths,
/// with the same message.
#[derive(Debug, Default)]
pub struct Reader {
    tape: Vec<Token>,
}

impl Reader {
    /// Decodes `text`'s one document as a `T`.
    ///
    /// # Errors
    ///
    /// As [`parse`] for malformed text, as [`FromJson::decode`] for a
    /// document that is not a `T`.
    pub fn read<T: FromJson>(&mut self, text: &str) -> Result<T, String> {
        self.with(text, |root| T::decode(root))?
    }

    /// Scans `text`'s one document and hands its root value to `f`.
    fn with<R>(&mut self, text: &str, f: impl FnOnce(Scanned<'_>) -> R) -> Result<R, String> {
        self.tape.clear();
        let tape = &mut self.tape;
        let mut scan = Scan { text, pos: 0, tape };
        scan.skip_ws();
        scan.value(0)?;
        scan.skip_ws();
        if scan.pos != text.len() {
            return scan.fail("trailing garbage");
        }
        let tape = &self.tape;
        let doc = Doc { text, tape };
        Ok(f(Scanned { doc: &doc, at: 0 }))
    }
}

/// One value on the tape, in document order: a container's elements (an
/// object's as key, value, key, value, …) follow its own token.
#[derive(Debug, Clone, Copy)]
enum Token {
    Null,
    Bool(bool),
    Num(f64),
    /// The bytes between the quotes, and whether they hold an escape.
    Str(usize, usize, bool),
    /// The number of elements, and the tape index just past the last.
    Arr(usize, usize),
    /// The number of members, and the tape index just past the last.
    Obj(usize, usize),
}

/// The scan of one document: recursive descent, once per nested array or
/// object and never deeper than [`MAX_DEPTH`]. `depth` is how many arrays
/// and objects are open around the value being scanned.
struct Scan<'a> {
    text: &'a str,
    pos: usize,
    tape: &'a mut Vec<Token>,
}

impl Scan<'_> {
    fn fail<T>(&self, what: impl fmt::Display) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Steps over `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let next = self.peek() == Some(b);
        self.pos += usize::from(next);
        next
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Steps over a run of decimal digits and says how long it was.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn value(&mut self, depth: usize) -> Result<(), String> {
        let (word, token) = match self.peek() {
            Some(open @ (b'{' | b'[')) => return self.container(open, depth),
            Some(b'"') => return self.string(),
            Some(b'-' | b'0'..=b'9') => return self.number(),
            Some(b't') => ("true", Token::Bool(true)),
            Some(b'f') => ("false", Token::Bool(false)),
            Some(b'n') => ("null", Token::Null),
            Some(b) => return self.fail(format_args!("unexpected character {:?}", char::from(b))),
            None => return Err("unexpected end of input".to_string()),
        };
        if !self.text[self.pos..].starts_with(word) {
            return self.fail("invalid literal");
        }
        self.pos += word.len();
        self.tape.push(token);
        Ok(())
    }

    /// An object (`open` is `{`) or an array.
    fn container(&mut self, open: u8, depth: usize) -> Result<(), String> {
        if depth == MAX_DEPTH {
            return self.fail(format_args!("nested deeper than {MAX_DEPTH} levels"));
        }
        self.pos += 1;
        let container: fn(usize, usize) -> Token =
            if open == b'{' { Token::Obj } else { Token::Arr };
        let at = self.tape.len();
        self.tape.push(Token::Null);
        // `}` and `]` are two past their openers.
        let close = open + 2;
        let mut len = 0;
        self.skip_ws();
        while !self.eat(close) {
            if len > 0 && !self.eat(b',') {
                return self.fail(format_args!("expected ',' or '{}'", char::from(close)));
            }
            self.skip_ws();
            if open == b'{' {
                self.string()?;
                self.skip_ws();
                if !self.eat(b':') {
                    return self.fail("expected ':'");
                }
                self.skip_ws();
            }
            self.value(depth + 1)?;
            len += 1;
            self.skip_ws();
        }
        self.tape[at] = container(len, self.tape.len());
        Ok(())
    }

    /// A string: its escapes are checked here and decoded by [`unescape`]
    /// when the string is read.
    fn string(&mut self) -> Result<(), String> {
        if !self.eat(b'"') {
            return self.fail("expected '\"'");
        }
        let (start, mut escaped, bytes) = (self.pos, false, self.text.as_bytes());
        loop {
            match bytes.get(self.pos) {
                Some(b'"') => break,
                Some(b'\\') => {
                    escaped = true;
                    self.pos += 2;
                    match bytes.get(self.pos - 1) {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {}
                        Some(b'u') => match bytes.get(self.pos..self.pos + 4) {
                            Some(hex) if hex.iter().all(u8::is_ascii_hexdigit) => self.pos += 4,
                            Some(_) => return self.fail("bad \\u escape"),
                            None => return self.fail("truncated \\u escape"),
                        },
                        Some(&b) => {
                            return self.fail(format_args!("unknown escape \\{}", char::from(b)))
                        }
                        None => return Err("unterminated escape".to_string()),
                    }
                }
                Some(&b) if b >= 0x20 => self.pos += 1,
                _ => return self.fail("unterminated string"),
            }
        }
        self.tape.push(Token::Str(start, self.pos, escaped));
        self.pos += 1;
        Ok(())
    }

    /// A number in RFC 8259's grammar: `-? (0 | [1-9][0-9]*)
    /// (.[0-9]+)? ([eE][+-]?[0-9]+)?`.
    fn number(&mut self) -> Result<(), String> {
        let start = self.pos;
        self.eat(b'-');
        let int = self.pos;
        // One digit, or more that do not start with `0`.
        let mut valid =
            self.digits() > 0 && (self.pos == int + 1 || !self.text[int..].starts_with('0'));
        if self.eat(b'.') {
            valid &= self.digits() > 0;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            valid &= self.digits() > 0;
        }
        let text = &self.text[start..self.pos];
        if !valid {
            return Err(format!("invalid number {text:?} at byte {start}"));
        }
        let n: f64 = text.parse().unwrap_or(f64::NAN);
        if !n.is_finite() {
            return Err(format!("non-finite number {text:?} at byte {start}"));
        }
        self.tape.push(Token::Num(n));
        Ok(())
    }
}

/// The text of a string whose escapes the scan checked — the one string
/// decoder. `\uXXXX` is four hex digits, and a run of them is UTF-16: a
/// high surrogate followed by a low one is one character, and a
/// surrogate on its own is U+FFFD.
fn unescape(raw: &str) -> String {
    let b = raw.as_bytes();
    let mut out = String::with_capacity(raw.len());
    let (mut i, mut plain) = (0, 0);
    while i < b.len() {
        if b[i] != b'\\' {
            i += 1;
            continue;
        }
        out.push_str(&raw[plain..i]);
        if b[i + 1] == b'u' {
            let units = std::iter::from_fn(|| {
                let hex = raw[i..].strip_prefix("\\u")?.get(..4)?;
                i += 6;
                u16::from_str_radix(hex, 16).ok()
            });
            out.extend(char::decode_utf16(units).map(|c| c.unwrap_or('\u{fffd}')));
        } else {
            out.push(match b[i + 1] {
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                other => char::from(other),
            });
            i += 2;
        }
        plain = i;
    }
    out.push_str(&raw[plain..]);
    out
}

/// A scanned document: its text and its tape.
struct Doc<'a> {
    text: &'a str,
    tape: &'a [Token],
}

/// A value of a document a [`Reader`] scanned: where it lies on the
/// tape. Copying one is copying two words.
#[derive(Clone, Copy)]
pub struct Scanned<'a> {
    doc: &'a Doc<'a>,
    at: usize,
}

impl<'a> Scanned<'a> {
    fn token(self) -> Token {
        self.doc.tape[self.at]
    }

    /// The tape index just past this value.
    fn skip(self) -> usize {
        match self.token() {
            Token::Arr(_, next) | Token::Obj(_, next) => next,
            _ => self.at + 1,
        }
    }

    /// The `len` values that follow one another from `at`.
    fn run(self, at: usize, len: usize) -> Elements<'a> {
        Elements {
            next: Scanned { at, ..self },
            left: len,
        }
    }
}

/// The elements of a scanned array.
pub struct Elements<'a> {
    next: Scanned<'a>,
    left: usize,
}

impl<'a> Iterator for Elements<'a> {
    type Item = Scanned<'a>;

    fn next(&mut self) -> Option<Scanned<'a>> {
        self.left = self.left.checked_sub(1)?;
        let item = self.next;
        self.next.at = item.skip();
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Elements<'_> {}

impl<'a> Value<'a> for Scanned<'a> {
    type Items = Elements<'a>;

    fn get(self, key: &str) -> Option<Self> {
        let Token::Obj(len, _) = self.token() else {
            return None;
        };
        let text = self.doc.text.as_bytes();
        let (mut at, mut found) = (self.at + 1, None);
        for _ in 0..len {
            let value = Scanned { at: at + 1, ..self };
            let named = match self.doc.tape[at] {
                Token::Str(start, end, false) => text.get(start..end) == Some(key.as_bytes()),
                _ => Scanned { at, ..self }.as_str().as_deref() == Some(key),
            };
            if named {
                found = Some(value);
            }
            at = value.skip();
        }
        found
    }

    fn as_f64(self) -> Option<f64> {
        match self.token() {
            Token::Num(n) => Some(n),
            _ => None,
        }
    }

    fn as_bool(self) -> Option<bool> {
        match self.token() {
            Token::Bool(b) => Some(b),
            _ => None,
        }
    }

    fn as_str(self) -> Option<Cow<'a, str>> {
        match self.token() {
            Token::Str(start, end, false) => Some(Cow::Borrowed(&self.doc.text[start..end])),
            Token::Str(start, end, true) => Some(Cow::Owned(unescape(&self.doc.text[start..end]))),
            _ => None,
        }
    }

    fn is_null(self) -> bool {
        matches!(self.token(), Token::Null)
    }

    fn items(self) -> Result<Elements<'a>, String> {
        match self.token() {
            Token::Arr(len, _) => Ok(self.run(self.at + 1, len)),
            _ => Err("not an array".to_string()),
        }
    }

    fn tree(self) -> Json {
        match self.token() {
            Token::Null => Json::Null,
            Token::Bool(b) => Json::Bool(b),
            Token::Num(n) => Json::Num(n),
            Token::Str(..) => Json::Str(self.as_str().map(Cow::into_owned).unwrap_or_default()),
            Token::Arr(len, _) => self.run(self.at + 1, len).map(Scanned::tree).collect(),
            // Keys and values in turn; a repeated key keeps its last
            // value, as `get` reads it.
            Token::Obj(len, _) => {
                let (mut map, mut values) = (BTreeMap::new(), self.run(self.at + 1, 2 * len));
                while let (Some(k), Some(v)) = (values.next(), values.next()) {
                    map.insert(k.as_str().unwrap_or_default().into_owned(), v.tree());
                }
                Json::Obj(map)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "\"hi\""] {
            let v = parse(text).unwrap();
            assert_eq!(v.to_json(), text, "{text}");
        }
        // Every form of RFC 8259's number grammar is accepted.
        for text in ["-0", "1e3", "1.5E-2", "0.25e+1", "-9007199254740993"] {
            let n: f64 = text.parse().unwrap();
            assert_eq!(parse(text).unwrap().as_f64(), Some(n), "{text}");
        }
    }

    #[test]
    fn nested_document_roundtrips() {
        let doc = obj([
            ("schema", Json::Str("twobit-bench/v1".into())),
            (
                "cases",
                Json::Arr(vec![obj([
                    ("label", Json::Str("two-bit/low".into())),
                    ("refs", num_u64(8_000)),
                    ("rate", Json::Num(123_456.75)),
                    ("ok", Json::Bool(true)),
                ])]),
            ),
        ]);
        let text = doc.to_json();
        assert_eq!(parse(&text).unwrap(), doc);
        let pretty = doc.to_json_pretty();
        assert_eq!(parse(&pretty).unwrap(), doc);
        assert!(pretty.contains("\n  \"cases\""), "{pretty}");
    }

    #[test]
    fn large_counts_roundtrip_exactly() {
        let n = (1u64 << 53) - 1;
        let v = parse(&num_u64(n).to_json()).unwrap();
        assert_eq!(v.as_u64(), Some(n));
        // 2^53 + 1 reads as the double 2^53: refused, not rounded.
        assert_eq!(parse("9007199254740992").unwrap().as_u64(), None);
        assert_eq!(parse("9007199254740993").unwrap().as_u64(), None);
        // Fractional and negative values refuse as_u64.
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "line\nquote\"tab\tback\\slash \u{1}";
        let mut out = String::new();
        write_string(&mut out, s);
        assert_eq!(parse(&out).unwrap().as_str(), Some(s));
        assert_eq!(parse(r#""Aé""#).unwrap().as_str(), Some("Aé"));
        // An escaped surrogate pair is one character; a surrogate on its
        // own, or a high one before a non-surrogate, is U+FFFD.
        for (text, want) in [
            (r#""\ud83d\ude00""#, "\u{1f600}"),
            (r#""x\uD83D\uDE00y""#, "x\u{1f600}y"),
            (r#""\ud83d""#, "\u{fffd}"),
            (r#""\ude00\ud83d""#, "\u{fffd}\u{fffd}"),
            (r#""\ud83d\u0041""#, "\u{fffd}A"),
            (r#""\ud83d\n""#, "\u{fffd}\n"),
        ] {
            assert_eq!(parse(text).unwrap().as_str(), Some(want), "{text}");
            let mut reader = Reader::default();
            assert_eq!(reader.read::<String>(text).unwrap(), want, "{text}");
        }
    }

    #[test]
    fn json_escaping_handles_specials() {
        let mut out = String::new();
        write_string(&mut out, "a\"b\\c\nd");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\"");
    }

    /// A statement that lists members out of order, repeats a key, nests
    /// disordered objects in arrays and in members, and uses every scalar.
    struct Disordered(u64);

    impl ToJson for Disordered {
        fn emit<S: Sink>(&self, out: &mut S) {
            out.object(|o| {
                o.member("t", "tag \"quoted\"\n");
                o.member("n", &self.0);
                o.key("who");
                o.display(format_args!("C{}\t\\", self.0));
                o.member("n", &self.0.wrapping_add(1));
                o.key("inner");
                o.object(|i| {
                    i.member("z", &true);
                    i.member("a", &None::<u64>);
                    i.member("m", &[3u8, 2, 1][..]);
                });
                o.key("list");
                o.array(|l| {
                    l.object(|e| {
                        e.member("b", &1u8);
                        e.member("a", &2u8);
                    });
                    l.object(|_| {});
                    l.array(|_| {});
                    l.tree(&obj([("y", num_u64(1)), ("x", Json::Num(-0.5))]));
                });
                o.member("a", &self.0);
            });
        }
    }

    /// [`Disordered`]'s members, each once and in sorted-key order.
    struct Ordered(u64);

    impl ToJson for Ordered {
        fn emit<S: Sink>(&self, out: &mut S) {
            out.object(|o| {
                o.member("a", &self.0);
                o.key("inner");
                o.object(|i| {
                    i.member("a", &None::<u64>);
                    i.member("m", &[3u8, 2, 1][..]);
                    i.member("z", &true);
                });
                o.key("list");
                o.array(|l| {
                    l.object(|e| {
                        e.member("a", &2u8);
                        e.member("b", &1u8);
                    });
                    l.object(|_| {});
                    l.array(|_| {});
                    l.tree(&obj([("y", num_u64(1)), ("x", Json::Num(-0.5))]));
                });
                o.member("n", &self.0.wrapping_add(1));
                o.member("t", "tag \"quoted\"\n");
                o.key("who");
                o.display(format_args!("C{}\t\\", self.0));
            });
        }
    }

    #[test]
    fn both_sinks_write_the_same_canonical_text() {
        let mut text = Text::new();
        for n in [0, 7, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX] {
            let value = Ordered(n);
            let tree = value.json();
            // The tree sorts what the statement lists out of order.
            assert_eq!(Disordered(n).json(), tree, "{n}");
            assert_eq!(to_text(&value), tree.to_json(), "{n}");
            // A writer that is used again starts clean.
            assert_eq!(text.write(&value), tree.to_json(), "{n}");
            if n < 1 << 53 {
                assert_eq!(parse(&to_text(&value)).unwrap(), tree, "{n}");
            }
        }
        assert_eq!(
            to_text(&Ordered(7)),
            "{\"a\":7,\"inner\":{\"a\":null,\"m\":[3,2,1],\"z\":true},\
             \"list\":[{\"a\":2,\"b\":1},{},[],{\"x\":-0.5,\"y\":1}],\"n\":8,\
             \"t\":\"tag \\\"quoted\\\"\\n\",\"who\":\"C7\\t\\\\\"}"
        );
    }

    #[test]
    fn as_stated_keeps_the_statement_order() {
        let mut text = Text::new();
        assert_eq!(
            text.write(&Disordered(7)),
            "{\"t\":\"tag \\\"quoted\\\"\\n\",\"n\":7,\"who\":\"C7\\t\\\\\",\"n\":8,\
             \"inner\":{\"z\":true,\"a\":null,\"m\":[3,2,1]},\
             \"list\":[{\"b\":1,\"a\":2},{},[],{\"x\":-0.5,\"y\":1}],\"a\":7}"
        );
        // The same members, so the same tree: a repeated key's last
        // value wins on the way back, as in the tree.
        assert_eq!(
            parse(&to_text(&Disordered(7))).unwrap(),
            Disordered(7).json()
        );
        assert_eq!(text.write("x"), "\"x\"");
    }

    #[test]
    fn accessors_navigate() {
        let doc = parse(r#"{"a": {"b": [1, 2, {"c": "x"}]}}"#).unwrap();
        let arr: Vec<&Json> = doc.get("a").unwrap().array("b").unwrap().collect();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[2].get("c").unwrap().as_str(), Some("x"));
        assert!(doc.get("missing").is_none());
        assert!(doc.req_u64("nope").is_err());
        assert!(doc.get("a").unwrap().req_str("b").is_err());
    }

    #[test]
    fn malformed_inputs_error_with_position() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"unterminated",
            "{\"a\" 1}",
            "tru",
            "1.2.3",
            "[] []",
            "nan",
            // `\u` takes exactly four hex digits, and no sign.
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u004""#,
            r#""\u00g1""#,
            // RFC 8259's number grammar.
            "01",
            "-01",
            "1.",
            "1.e3",
            "-",
            "1e",
            "1e+",
            ".5",
            "+1",
            "1E400",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        for (bad, error) in [
            ("[1, 01]", "invalid number \"01\" at byte 4"),
            ("[1e999]", "non-finite number \"1e999\" at byte 1"),
            (r#""\x""#, "unknown escape \\x at byte 3"),
            (r#""\u00"#, "truncated \\u escape at byte 3"),
            (r#""\u00g1""#, "bad \\u escape at byte 3"),
        ] {
            assert_eq!(parse(bad).unwrap_err(), error, "{bad:?}");
        }
    }
}
