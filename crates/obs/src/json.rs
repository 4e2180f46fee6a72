//! The workspace's one JSON: value model, parser, escaper, writer, and
//! the typed field codec every text format here is built on.
//!
//! The lint `--json` report, the `BENCH_*.json` documents, node
//! checkpoints, the distributed service's wire frames and the JSONL event
//! trace all go through this module. It supports the JSON subset those
//! schemas use: objects, arrays, strings with `\uXXXX` escapes, finite
//! numbers, booleans, and `null`.
//!
//! Input is untrusted (a frame arrives over a socket, a checkpoint over a
//! process boundary), so three limits are part of the contract:
//!
//! * **Nesting depth.** [`parse`] recurses once per nested array or
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
//! A type's text form is stated once, as a [`ToJson`]/[`FromJson`] pair,
//! and decoders fetch members with the typed accessors [`Json::field`],
//! [`Json::opt_field`], [`Json::array`] and [`Json::member`], whose
//! errors name the key. The pairs for the `twobit-types` wire types live
//! beside this module in `codec.rs`; every other crate implements them
//! for its own types.
//!
//! The encode half is an *emission*: [`ToJson::emit`] says what the value
//! is made of to a [`Sink`], and there are two sinks. [`ToJson::json`]
//! collects the emission into a [`Json`] tree (checkpoints and documents,
//! which are kept, merged and read back); [`Text`] writes it straight
//! into a `String` (wire frames, timeline lines and trace events, which
//! are written once and never looked at again). Both produce the same
//! canonical text — [`Text`] puts an object's members in sorted-key order
//! itself, whatever order they were stated in — so which sink a caller
//! picks is a question of cost, never of format.

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

    /// The numeric value as an unsigned integer (rejects negatives,
    /// fractional values, and anything at or above 2^53, where a double
    /// may already stand for a different integer than the text did).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < EXACT_INTEGERS => Some(*n as u64),
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

    /// A required member of an object, undecoded.
    ///
    /// # Errors
    ///
    /// Returns a message naming `key` when it is absent (or `self` is not
    /// an object).
    pub fn member(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    /// A required member, decoded and range-checked as `T`.
    ///
    /// # Errors
    ///
    /// Returns a message naming `key` when it is absent or is not a `T`.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, String> {
        T::from_json(self.member(key)?).map_err(|e| format!("field {key:?}: {e}"))
    }

    /// A member that may be absent (`None`), decoded as `T` when present.
    /// A member that is always written but may be `null` is
    /// `field::<Option<T>>` instead.
    ///
    /// # Errors
    ///
    /// Returns a message naming `key` when it is present but not a `T`.
    pub fn opt_field<T: FromJson>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| T::from_json(v).map_err(|e| format!("field {key:?}: {e}")))
            .transpose()
    }

    /// The elements of a required array member, undecoded (for arrays of
    /// entry objects; an array of one type is `field::<Vec<T>>`).
    ///
    /// # Errors
    ///
    /// Returns a message naming `key` when it is absent or not an array.
    pub fn array(&self, key: &str) -> Result<&[Json], String> {
        self.member(key)?
            .items()
            .map_err(|e| format!("field {key:?}: {e}"))
    }

    /// The elements, or an error if this is not an array.
    ///
    /// # Errors
    ///
    /// Returns a message when `self` is not an array.
    pub fn items(&self) -> Result<&[Json], String> {
        self.as_array().ok_or_else(|| "not an array".to_string())
    }

    /// [`field::<u64>`](Self::field).
    ///
    /// # Errors
    ///
    /// Returns a message naming `key` when absent or not an integer.
    pub fn req_u64(&self, key: &str) -> Result<u64, String> {
        self.field(key)
    }

    /// [`field::<f64>`](Self::field).
    ///
    /// # Errors
    ///
    /// Returns a message naming `key` when absent or not a number.
    pub fn req_f64(&self, key: &str) -> Result<f64, String> {
        self.field(key)
    }

    /// A required string member, borrowed.
    ///
    /// # Errors
    ///
    /// Returns a message naming `key` when absent or not a string.
    pub fn req_str(&self, key: &str) -> Result<&str, String> {
        self.member(key)?
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
/// [`Text::canonical`] writes exactly what `value.json().to_json()`
/// writes: it notes where each member of an open object starts and, when
/// the object closes with its keys out of order, moves the members into
/// sorted-key order (a statement that lists them sorted pays nothing).
/// [`Text::as_stated`] keeps the statement's order, for the one format
/// whose member order is older than the canonical one — the JSONL trace
/// event.
#[derive(Debug, Default)]
pub struct Text {
    out: String,
    /// Whether the next value or key is preceded by a comma.
    comma: bool,
    as_stated: bool,
    /// The members of every object still open, innermost last.
    members: Vec<Member>,
    /// Holds an object's members while they are put in order.
    scratch: String,
}

impl Text {
    /// A writer of canonical text (sorted keys).
    #[must_use]
    pub fn canonical() -> Text {
        Text::default()
    }

    /// A writer that keeps each statement's member order.
    #[must_use]
    pub fn as_stated() -> Text {
        Text {
            as_stated: true,
            ..Text::default()
        }
    }

    /// Writes `value` and lends the text until the next write. A writer
    /// that is used again allocates nothing for a line; the caller keeps
    /// a line by copying it out at its exact length.
    pub fn write<T: ToJson + ?Sized>(&mut self, value: &T) -> &str {
        if self.out.capacity() == 0 {
            // A frame or a line is one or two hundred bytes, nested a
            // handful of objects deep.
            self.out.reserve(128);
            if !self.as_stated {
                self.members.reserve(16);
            }
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

    /// The member being written ends here.
    fn end_member(&mut self) {
        if let Some(m) = self.members.last_mut() {
            m.end = self.out.len();
        }
    }

    /// Puts the members noted since `first` in sorted-key order, the
    /// last of equal keys winning, as a `BTreeMap` would.
    fn sort_members(&mut self, first: usize) {
        let members = &mut self.members[first..];
        if members.windows(2).all(|w| w[0].key < w[1].key) {
            return;
        }
        let body = members[0].start;
        self.scratch.clear();
        self.scratch.push_str(&self.out[body..]);
        self.out.truncate(body);
        members.sort_by_key(|m| m.key);
        for (i, m) in members.iter().enumerate() {
            if members.get(i + 1).is_some_and(|next| next.key == m.key) {
                continue;
            }
            if self.out.len() > body {
                self.out.push(',');
            }
            self.out
                .push_str(&self.scratch[m.start - body..m.end - body]);
        }
    }
}

/// Where one member of an open object — `"key":value`, without its
/// comma — lies in [`Text`]'s output.
#[derive(Debug)]
struct Member {
    key: &'static str,
    start: usize,
    end: usize,
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
        // Through the double, as the tree goes: the two sinks agree on
        // every `u64`, including the ones a double cannot hold.
        write_number(&mut self.out, n as f64);
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
        let first = self.members.len();
        members(self);
        if self.members.len() > first {
            self.end_member();
            self.sort_members(first);
            self.members.truncate(first);
        }
        self.out.push('}');
        self.comma = true;
    }

    fn key(&mut self, key: &'static str) {
        if self.comma {
            self.end_member();
            self.out.push(',');
        }
        self.comma = false;
        if !self.as_stated {
            let start = self.out.len();
            self.members.push(Member { key, start, end: 0 });
        }
        write_string(&mut self.out, key);
        self.out.push(':');
    }
}

/// A type decodable from its JSON form, with every number range-checked.
pub trait FromJson: Sized {
    /// Decodes `j`.
    ///
    /// # Errors
    ///
    /// Returns a message when `j` has the wrong shape or a value does not
    /// fit the type.
    fn from_json(j: &Json) -> Result<Self, String>;
}

macro_rules! unsigned_codec {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn emit<S: Sink>(&self, out: &mut S) {
                out.uint(*self as u64);
            }
        }

        impl FromJson for $t {
            fn from_json(j: &Json) -> Result<Self, String> {
                let n = j
                    .as_u64()
                    .ok_or_else(|| format!("not an unsigned integer below 2^53: {}", j.to_json()))?;
                <$t>::try_from(n).map_err(|_| format!("{n} does not fit {}", stringify!($t)))
            }
        }
    )*};
}

unsigned_codec!(u8, u16, u32, u64, usize);

impl FromJson for f64 {
    fn from_json(j: &Json) -> Result<Self, String> {
        j.as_f64().ok_or_else(|| "not a number".to_string())
    }
}

impl ToJson for bool {
    fn emit<S: Sink>(&self, out: &mut S) {
        out.bool(*self);
    }
}

impl FromJson for bool {
    fn from_json(j: &Json) -> Result<Self, String> {
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
    fn from_json(j: &Json) -> Result<Self, String> {
        j.as_str()
            .map(str::to_string)
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
    fn from_json(j: &Json) -> Result<Self, String> {
        match j {
            Json::Null => Ok(None),
            v => T::from_json(v).map(Some),
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

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(j: &Json) -> Result<Self, String> {
        j.items()?.iter().map(T::from_json).collect()
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
            fn from_json(j: &$crate::json::Json) -> Result<Self, String> {
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
            fn from_json(j: &$crate::json::Json) -> Result<Self, String> {
                match j.as_str() {
                    $(Some($name) => Ok($ty::$variant),)*
                    _ => Err(format!("not one of {:?}: {}", [$($name),*], j.to_json())),
                }
            }
        }
    };
}

/// Builds an object from `(key, value)` pairs (later duplicates win).
pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// `value` as canonical text: what `value.json().to_json()` writes,
/// without the tree.
pub fn to_text<T: ToJson + ?Sized>(value: &T) -> String {
    Text::canonical().write(value).to_owned()
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
/// so it does not go through `fmt`.
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
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
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

/// Parses one JSON document (trailing whitespace allowed, nothing else).
///
/// # Errors
///
/// Returns a human-readable message with a byte offset on malformed
/// input, including a document nested deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nested deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!(
                "unexpected character {:?} at byte {}",
                char::from(b),
                self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 near byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| {
                                    format!("truncated \\u escape at byte {}", self.pos)
                                })?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by the bench
                            // schema; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(format!(
                                "unknown escape \\{} at byte {}",
                                char::from(other),
                                self.pos
                            ))
                        }
                    }
                }
                _ => return Err(format!("unterminated string at byte {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        let n: f64 = text
            .parse()
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))?;
        if !n.is_finite() {
            return Err(format!("non-finite number {text:?} at byte {start}"));
        }
        Ok(Json::Num(n))
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

    #[test]
    fn both_sinks_write_the_same_canonical_text() {
        let mut text = Text::canonical();
        for n in [0, 7, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX] {
            let value = Disordered(n);
            let tree = value.json();
            assert_eq!(to_text(&value), tree.to_json(), "{n}");
            // A writer that is used again starts clean.
            assert_eq!(text.write(&value), tree.to_json(), "{n}");
            if n < 1 << 53 {
                assert_eq!(parse(&to_text(&value)).unwrap(), tree, "{n}");
            }
        }
        assert_eq!(
            to_text(&Disordered(7)),
            "{\"a\":7,\"inner\":{\"a\":null,\"m\":[3,2,1],\"z\":true},\
             \"list\":[{\"a\":2,\"b\":1},{},[],{\"x\":-0.5,\"y\":1}],\"n\":8,\
             \"t\":\"tag \\\"quoted\\\"\\n\",\"who\":\"C7\\t\\\\\"}"
        );
    }

    #[test]
    fn as_stated_keeps_the_statement_order() {
        let mut text = Text::as_stated();
        assert_eq!(
            text.write(&Disordered(7)),
            "{\"t\":\"tag \\\"quoted\\\"\\n\",\"n\":7,\"who\":\"C7\\t\\\\\",\"n\":8,\
             \"inner\":{\"z\":true,\"a\":null,\"m\":[3,2,1]},\
             \"list\":[{\"b\":1,\"a\":2},{},[],{\"x\":-0.5,\"y\":1}],\"a\":7}"
        );
        assert_eq!(text.write("x"), "\"x\"");
    }

    #[test]
    fn accessors_navigate() {
        let doc = parse(r#"{"a": {"b": [1, 2, {"c": "x"}]}}"#).unwrap();
        let arr = doc.get("a").unwrap().get("b").unwrap().as_array().unwrap();
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
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }
}
