//! Minimal in-tree replacement for the `serde` crate.
//!
//! The workspace builds offline, so instead of serde's visitor-based
//! data model this shim streams. [`Serialize::write_json`] and
//! [`Serialize::write_binary`] append a type's compact JSON or binary
//! encoding straight to a byte buffer. [`Deserialize::read_from`]
//! decodes a type from an event-driven [`Reader`]
//! ([`json::JsonReader`] or [`binary::BinReader`]). These three
//! methods are the whole data model: every type has one encoder per
//! codec and one decoder, and nothing builds an intermediate tree.
//!
//! The derive macros (re-exported from `serde_derive`) generate the
//! three methods for plain structs and enums, honouring
//! `#[serde(default)]` and `#[serde(skip)]`. The [`json`] and
//! [`binary`] modules hold each codec's grammar (escaping, number
//! formatting, tags, varints), which the derive and the built-in impls
//! share.
//!
//! [`Value`] is a plain JSON document type for callers that want a
//! schema-free tree (pretty printing, inspecting a result line). It
//! implements both traits like any other type.
//!
//! Wire limits: both readers cap container nesting at [`MAX_DEPTH`], so
//! adversarial input fails with a parse error instead of exhausting the
//! decoder's stack. Integers decode only when the number is whole and
//! inside the target type's range.
//!
//! Maps serialize as arrays of `[key, value]` pairs regardless of key type,
//! which keeps the encoding self-consistent for non-string keys (the real
//! serde_json would reject those). `HashMap` pairs are sorted by the key's
//! compact JSON bytes, so the encoding is deterministic.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::Hash;

pub mod binary;
pub mod json;

pub use serde_derive::{Deserialize, Serialize};

/// Hard cap on container nesting for both wire readers, so adversarial
/// `[[[[…` input (JSON or binary) cannot overflow the decoder's stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON document as a tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Any JSON number (f64 is exact for every integer the workspace stores).
    Num(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Arr(Vec<Value>),
    /// JSON object with insertion order preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The numeric contents, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Deserialization failure: what was expected, where.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError(pub String);

impl DeError {
    /// An "expected X while deserializing Y" error.
    pub fn expected(what: &str, ty: &str) -> Self {
        DeError(format!("expected {what} while deserializing {ty}"))
    }

    /// A missing-field error.
    pub fn missing(field: &str, ty: &str) -> Self {
        DeError(format!("missing field `{field}` while deserializing {ty}"))
    }

    /// A free-form error.
    pub fn custom(msg: impl Into<String>) -> Self {
        DeError(msg.into())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// What kind of value sits next in a [`Reader`]'s input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Peek {
    /// A `null`.
    Null,
    /// A boolean.
    Bool,
    /// A number (for JSON: any token that is not one of the others —
    /// `read_f64` settles whether it actually parses).
    Num,
    /// A string.
    Str,
    /// An array.
    Arr,
    /// An object.
    Obj,
}

/// An event-driven decoder over a borrowed input slice — the common
/// interface [`Deserialize::read_from`] is written against, implemented
/// by [`json::JsonReader`] and [`binary::BinReader`].
///
/// Containers are symmetric state machines: `begin_array` then
/// `array_next` until it returns `false`; `begin_object` then
/// `object_key` until it returns `None`. Strings borrow from the input
/// (`'de`) whenever the encoding allows.
pub trait Reader<'de> {
    /// Classifies the next value without consuming it.
    ///
    /// # Errors
    ///
    /// Fails on exhausted input (or, for binary, an unknown tag).
    fn peek(&mut self) -> Result<Peek, DeError>;

    /// Consumes a `null`.
    ///
    /// # Errors
    ///
    /// Fails if the next value is not `null`.
    fn read_null(&mut self) -> Result<(), DeError>;

    /// Consumes a boolean.
    ///
    /// # Errors
    ///
    /// Fails if the next value is not a boolean.
    fn read_bool(&mut self) -> Result<bool, DeError>;

    /// Consumes a number.
    ///
    /// # Errors
    ///
    /// Fails if the next value is not a number.
    fn read_f64(&mut self) -> Result<f64, DeError>;

    /// Consumes a string, borrowing from the input when possible.
    ///
    /// # Errors
    ///
    /// Fails if the next value is not a (well-formed) string.
    fn read_str(&mut self) -> Result<Cow<'de, str>, DeError>;

    /// Opens an array.
    ///
    /// # Errors
    ///
    /// Fails if the next value is not an array, or the nesting depth
    /// exceeds [`MAX_DEPTH`].
    fn begin_array(&mut self) -> Result<(), DeError>;

    /// `true` if another element follows (read it next); `false` closes
    /// the array.
    ///
    /// # Errors
    ///
    /// Fails on malformed input (e.g. a missing `,`).
    fn array_next(&mut self) -> Result<bool, DeError>;

    /// Opens an object.
    ///
    /// # Errors
    ///
    /// Fails if the next value is not an object, or the nesting depth
    /// exceeds [`MAX_DEPTH`].
    fn begin_object(&mut self) -> Result<(), DeError>;

    /// The next entry's key (read its value next), or `None` closing
    /// the object.
    ///
    /// # Errors
    ///
    /// Fails on malformed input.
    fn object_key(&mut self) -> Result<Option<Cow<'de, str>>, DeError>;

    /// Consumes and discards one whole value (any shape) — how struct
    /// decoding skips unknown fields. Depth-capped like everything
    /// else.
    ///
    /// # Errors
    ///
    /// Propagates any parse failure inside the skipped value.
    fn skip_value(&mut self) -> Result<(), DeError>
    where
        Self: Sized,
    {
        match self.peek()? {
            Peek::Null => self.read_null(),
            Peek::Bool => self.read_bool().map(drop),
            Peek::Num => self.read_f64().map(drop),
            Peek::Str => self.read_str().map(drop),
            Peek::Arr => {
                self.begin_array()?;
                while self.array_next()? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Peek::Obj => {
                self.begin_object()?;
                while self.object_key()?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
        }
    }
}

/// Streams `self` into a byte buffer, in either wire encoding.
pub trait Serialize {
    /// Appends the compact JSON encoding of `self` to `out`.
    fn write_json(&self, out: &mut Vec<u8>);

    /// Appends the compact binary encoding of `self` to `out`.
    fn write_binary(&self, out: &mut Vec<u8>);
}

/// Decodes `Self` from a streaming [`Reader`].
pub trait Deserialize: Sized {
    /// Parses `Self` out of `reader`, event by event.
    ///
    /// # Errors
    ///
    /// Propagates reader parse failures and shape mismatches.
    fn read_from<'de, R: Reader<'de>>(reader: &mut R) -> Result<Self, DeError>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, out: &mut Vec<u8>) {
        (**self).write_json(out);
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        (**self).write_binary(out);
    }
}

impl Serialize for Value {
    fn write_json(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.extend_from_slice(b"null"),
            Value::Bool(b) => b.write_json(out),
            Value::Num(n) => json::write_f64(*n, out),
            Value::Str(s) => json::write_escaped(s, out),
            Value::Arr(items) => items.write_json(out),
            Value::Obj(entries) => {
                out.push(b'{');
                for (i, (key, item)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    json::write_escaped(key, out);
                    out.push(b':');
                    item.write_json(out);
                }
                out.push(b'}');
            }
        }
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => binary::write_null(out),
            Value::Bool(b) => binary::write_bool(*b, out),
            Value::Num(n) => binary::write_f64(*n, out),
            Value::Str(s) => binary::write_str(s, out),
            Value::Arr(items) => items.write_binary(out),
            Value::Obj(entries) => {
                binary::write_obj(entries.len(), out);
                for (key, item) in entries {
                    binary::write_key(key, out);
                    item.write_binary(out);
                }
            }
        }
    }
}

impl Deserialize for Value {
    fn read_from<'de, R: Reader<'de>>(reader: &mut R) -> Result<Self, DeError> {
        Ok(match reader.peek()? {
            Peek::Null => {
                reader.read_null()?;
                Value::Null
            }
            Peek::Bool => Value::Bool(reader.read_bool()?),
            Peek::Num => Value::Num(reader.read_f64()?),
            Peek::Str => Value::Str(reader.read_str()?.into_owned()),
            Peek::Arr => Value::Arr(Vec::read_from(reader)?),
            Peek::Obj => {
                reader.begin_object()?;
                let mut entries = Vec::new();
                while let Some(key) = reader.object_key()? {
                    let key = key.into_owned();
                    entries.push((key, Value::read_from(reader)?));
                }
                Value::Obj(entries)
            }
        })
    }
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut Vec<u8>) {
                json::write_f64(*self as f64, out);
            }

            fn write_binary(&self, out: &mut Vec<u8>) {
                binary::write_f64(*self as f64, out);
            }
        }
        impl Deserialize for $t {
            fn read_from<'de, R: Reader<'de>>(reader: &mut R) -> Result<Self, DeError> {
                let n = reader.read_f64()?;
                if n.fract() != 0.0 {
                    return Err(DeError::expected("integer", stringify!($t)));
                }
                // `MAX as f64 + 1.0` is exact for every width up to 32
                // bits and rounds to 2^64 / 2^63 for the 64-bit types,
                // which is still the first integer past their range.
                if !(<$t>::MIN as f64..<$t>::MAX as f64 + 1.0).contains(&n) {
                    return Err(DeError::custom(format!(
                        "{n} is out of range for {}",
                        stringify!($t)
                    )));
                }
                Ok(n as $t)
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn write_json(&self, out: &mut Vec<u8>) {
        json::write_f64(*self, out);
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        binary::write_f64(*self, out);
    }
}

impl Deserialize for f64 {
    fn read_from<'de, R: Reader<'de>>(reader: &mut R) -> Result<Self, DeError> {
        match reader.peek()? {
            Peek::Num => reader.read_f64(),
            // NaN/inf arrive as null / string markers from the JSON
            // encoding.
            Peek::Null => {
                reader.read_null()?;
                Ok(f64::NAN)
            }
            Peek::Str => match reader.read_str()?.as_ref() {
                "NaN" => Ok(f64::NAN),
                "inf" => Ok(f64::INFINITY),
                "-inf" => Ok(f64::NEG_INFINITY),
                _ => Err(DeError::expected("number", "f64")),
            },
            _ => Err(DeError::expected("number", "f64")),
        }
    }
}

impl Serialize for f32 {
    fn write_json(&self, out: &mut Vec<u8>) {
        json::write_f64(f64::from(*self), out);
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        binary::write_f64(f64::from(*self), out);
    }
}

impl Deserialize for f32 {
    fn read_from<'de, R: Reader<'de>>(reader: &mut R) -> Result<Self, DeError> {
        f64::read_from(reader).map(|n| n as f32)
    }
}

impl Serialize for bool {
    fn write_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(if *self { b"true" } else { b"false" });
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        binary::write_bool(*self, out);
    }
}

impl Deserialize for bool {
    fn read_from<'de, R: Reader<'de>>(reader: &mut R) -> Result<Self, DeError> {
        reader.read_bool()
    }
}

impl Serialize for String {
    fn write_json(&self, out: &mut Vec<u8>) {
        json::write_escaped(self, out);
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        binary::write_str(self, out);
    }
}

impl Deserialize for String {
    fn read_from<'de, R: Reader<'de>>(reader: &mut R) -> Result<Self, DeError> {
        Ok(reader.read_str()?.into_owned())
    }
}

impl Serialize for str {
    fn write_json(&self, out: &mut Vec<u8>) {
        json::write_escaped(self, out);
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        binary::write_str(self, out);
    }
}

impl Serialize for char {
    fn write_json(&self, out: &mut Vec<u8>) {
        json::write_escaped(self.encode_utf8(&mut [0u8; 4]), out);
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        binary::write_str(self.encode_utf8(&mut [0u8; 4]), out);
    }
}

impl Deserialize for char {
    fn read_from<'de, R: Reader<'de>>(reader: &mut R) -> Result<Self, DeError> {
        let s = reader.read_str()?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError::expected("single-character string", "char")),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, out: &mut Vec<u8>) {
        match self {
            None => out.extend_from_slice(b"null"),
            Some(v) => v.write_json(out),
        }
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        match self {
            None => binary::write_null(out),
            Some(v) => v.write_binary(out),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn read_from<'de, R: Reader<'de>>(reader: &mut R) -> Result<Self, DeError> {
        if reader.peek()? == Peek::Null {
            reader.read_null()?;
            Ok(None)
        } else {
            T::read_from(reader).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut Vec<u8>) {
        self.as_slice().write_json(out);
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        self.as_slice().write_binary(out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn read_from<'de, R: Reader<'de>>(reader: &mut R) -> Result<Self, DeError> {
        reader.begin_array()?;
        let mut items = Vec::new();
        while reader.array_next()? {
            items.push(T::read_from(reader)?);
        }
        Ok(items)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut Vec<u8>) {
        out.push(b'[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            item.write_json(out);
        }
        out.push(b']');
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        binary::write_arr(self.len(), out);
        for item in self {
            item.write_binary(out);
        }
    }
}

macro_rules! impl_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn write_json(&self, out: &mut Vec<u8>) {
                out.push(b'[');
                let mut first = true;
                $(
                    if !::std::mem::replace(&mut first, false) {
                        out.push(b',');
                    }
                    self.$n.write_json(out);
                )+
                out.push(b']');
            }

            fn write_binary(&self, out: &mut Vec<u8>) {
                binary::write_arr([$( stringify!($n) ),+].len(), out);
                $( self.$n.write_binary(out); )+
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn read_from<'de, R: Reader<'de>>(reader: &mut R) -> Result<Self, DeError> {
                reader.begin_array()?;
                let expected = [$( stringify!($n) ),+].len();
                let short = || DeError::custom(format!(
                    "tuple length mismatch: expected {expected}"
                ));
                let out = ($(
                    {
                        let _ = $n;
                        if !reader.array_next()? {
                            return Err(short());
                        }
                        $t::read_from(reader)?
                    },
                )+);
                if reader.array_next()? {
                    return Err(short());
                }
                Ok(out)
            }
        }
    )*};
}

impl_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn write_json(&self, out: &mut Vec<u8>) {
        write_pairs_json(self.iter(), out);
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        write_pairs_binary(self.len(), self.iter(), out);
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn read_from<'de, R: Reader<'de>>(reader: &mut R) -> Result<Self, DeError> {
        read_pairs(reader, BTreeMap::new(), |map, k, v| {
            map.insert(k, v);
        })
    }
}

impl<K: Serialize, V: Serialize> Serialize for HashMap<K, V> {
    fn write_json(&self, out: &mut Vec<u8>) {
        write_pairs_json(sorted_hash_pairs(self).into_iter(), out);
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        write_pairs_binary(self.len(), sorted_hash_pairs(self).into_iter(), out);
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn read_from<'de, R: Reader<'de>>(reader: &mut R) -> Result<Self, DeError> {
        read_pairs(reader, HashMap::new(), |map, k, v| {
            map.insert(k, v);
        })
    }
}

/// A `HashMap`'s pairs in a deterministic order: sorted by the key's
/// compact JSON bytes (numeric text order for integer keys, code-point
/// order for string keys without escapes).
fn sorted_hash_pairs<K: Serialize, V>(map: &HashMap<K, V>) -> Vec<(&K, &V)> {
    let mut pairs: Vec<(Vec<u8>, (&K, &V))> = map
        .iter()
        .map(|(k, v)| {
            let mut key = Vec::new();
            k.write_json(&mut key);
            (key, (k, v))
        })
        .collect();
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    pairs.into_iter().map(|(_, kv)| kv).collect()
}

/// Streams a map's `[[k, v], ...]` pair-array JSON encoding.
fn write_pairs_json<'m, K: Serialize + 'm, V: Serialize + 'm>(
    pairs: impl Iterator<Item = (&'m K, &'m V)>,
    out: &mut Vec<u8>,
) {
    out.push(b'[');
    for (i, (k, v)) in pairs.enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.push(b'[');
        k.write_json(out);
        out.push(b',');
        v.write_json(out);
        out.push(b']');
    }
    out.push(b']');
}

/// Streams a map's `[[k, v], ...]` pair-array binary encoding.
fn write_pairs_binary<'m, K: Serialize + 'm, V: Serialize + 'm>(
    len: usize,
    pairs: impl Iterator<Item = (&'m K, &'m V)>,
    out: &mut Vec<u8>,
) {
    binary::write_arr(len, out);
    for (k, v) in pairs {
        binary::write_arr(2, out);
        k.write_binary(out);
        v.write_binary(out);
    }
}

/// Streams a map's pair-array decoding into `map` via `insert`.
fn read_pairs<'de, R: Reader<'de>, K: Deserialize, V: Deserialize, M>(
    reader: &mut R,
    mut map: M,
    insert: impl Fn(&mut M, K, V),
) -> Result<M, DeError> {
    let pair_error = || DeError::expected("[key, value] pair", "map");
    reader.begin_array()?;
    while reader.array_next()? {
        reader.begin_array()?;
        if !reader.array_next()? {
            return Err(pair_error());
        }
        let k = K::read_from(reader)?;
        if !reader.array_next()? {
            return Err(pair_error());
        }
        let v = V::read_from(reader)?;
        if reader.array_next()? {
            return Err(pair_error());
        }
        insert(&mut map, k, v);
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json<T: Serialize + ?Sized>(v: &T) -> String {
        let mut out = Vec::new();
        v.write_json(&mut out);
        String::from_utf8(out).unwrap()
    }

    fn json_read<T: Deserialize>(text: &str) -> Result<T, DeError> {
        let mut reader = json::JsonReader::new(text);
        let v = T::read_from(&mut reader)?;
        reader.expect_end()?;
        Ok(v)
    }

    fn binary_read<T: Deserialize>(bytes: &[u8]) -> Result<T, DeError> {
        let mut reader = binary::BinReader::new(bytes);
        let v = T::read_from(&mut reader)?;
        reader.expect_end()?;
        Ok(v)
    }

    /// Every built-in impl decodes what it encodes, in both codecs.
    #[test]
    fn primitives_roundtrip() {
        fn check<T: Serialize + Deserialize + PartialEq + fmt::Debug>(v: T) {
            assert_eq!(json_read::<T>(&json(&v)).as_ref(), Ok(&v));
            let mut bytes = Vec::new();
            v.write_binary(&mut bytes);
            assert_eq!(binary_read::<T>(&bytes).as_ref(), Ok(&v));
        }
        check(42u32);
        check(-7i64);
        check(1.5f64);
        check(f64::INFINITY);
        check(true);
        check('π');
        check("a\"b\\c\n".to_string());
        check(Option::<u8>::None);
        check(Some(3u8));
        check(Vec::<u8>::new());
        check(vec![1u8, 2, 3]);
        check((1u8, "two".to_string(), 3.0f64));
        let mut bt = BTreeMap::new();
        bt.insert("k".to_string(), vec![1u32]);
        check(bt);
        let mut hm = HashMap::new();
        hm.insert("b".to_string(), 2u32);
        hm.insert("a".to_string(), 1u32);
        check(hm);
        check(Value::Obj(vec![
            ("a".into(), Value::Arr(vec![Value::Num(1.0), Value::Null])),
            ("b".into(), Value::Bool(false)),
        ]));
    }

    /// Every built-in impl must emit the same bytes from its streaming
    /// writer as the `Value` document decoded from its binary encoding
    /// writes back, both codecs.
    #[test]
    fn streaming_writers_match_the_value_path() {
        fn check<T: Serialize>(v: &T) {
            let mut bs = Vec::new();
            v.write_binary(&mut bs);
            let value = binary_read::<Value>(&bs).unwrap();
            let mut bv = Vec::new();
            value.write_binary(&mut bv);
            assert_eq!(bs, bv);
            assert_eq!(json(v), json(&value));
        }
        check(&42u32);
        check(&-7i64);
        check(&1.5f64);
        check(&f64::NAN);
        check(&true);
        check(&'π');
        check(&"a\"b\\c\n".to_string());
        check(&Option::<u8>::None);
        check(&Some(3u8));
        check(&Vec::<u8>::new());
        check(&vec![1u8, 2, 3]);
        check(&(1u8, "two".to_string(), 3.0f64));
        let mut bt = BTreeMap::new();
        bt.insert("k".to_string(), vec![1u32]);
        check(&bt);
        let mut hm = HashMap::new();
        hm.insert("b".to_string(), 2u32);
        hm.insert("a".to_string(), 1u32);
        check(&hm);
    }

    #[test]
    fn maps_encode_as_pairs() {
        let mut bt = BTreeMap::new();
        bt.insert(2u32, "b".to_string());
        bt.insert(1u32, "a".to_string());
        assert_eq!(json(&bt), r#"[[1,"a"],[2,"b"]]"#);
        // HashMap pairs sort by the key's JSON text: `"a"` < `"ab"` <
        // `"b"`, and `10` < `9` (text order, not numeric).
        let hm: HashMap<String, u8> = [("b", 1), ("ab", 2), ("a", 3)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        assert_eq!(json(&hm), r#"[["a",3],["ab",2],["b",1]]"#);
        let hm: HashMap<u32, u8> = [(9, 0), (10, 1), (1, 2)].into_iter().collect();
        assert_eq!(json(&hm), "[[1,2],[10,1],[9,0]]");
    }

    /// The readers' leniencies and shape checks.
    #[test]
    fn readers_accept_markers_and_reject_bad_shapes() {
        assert_eq!(json_read::<u32>("42"), Ok(42));
        assert!(json_read::<u32>("1.5").is_err());
        assert!(json_read::<f64>("null").unwrap().is_nan());
        assert_eq!(json_read::<f64>("\"inf\""), Ok(f64::INFINITY));
        assert_eq!(json_read::<Option<bool>>("null"), Ok(None));
        assert_eq!(
            json_read::<(u8, String)>("[3,\"x\"]"),
            Ok((3, "x".to_string()))
        );
        assert!(json_read::<(u8, u8)>("[1]").is_err());
        assert!(json_read::<(u8, u8)>("[1,2,3]").is_err());
        let m: HashMap<String, u32> = json_read("[[\"a\",1],[\"b\",2]]").unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m["b"], 2);
    }

    /// Integers decode only inside the target type's range, from either
    /// codec — never clamped by the `as` cast.
    #[test]
    fn out_of_range_integers_are_rejected() {
        fn check<T: Deserialize + PartialEq + fmt::Debug>(text: &str, expect: Option<T>) {
            let mut bytes = Vec::new();
            binary::write_f64(text.parse().unwrap(), &mut bytes);
            for result in [json_read::<T>(text), binary_read::<T>(&bytes)] {
                match &expect {
                    Some(v) => assert_eq!(result.as_ref(), Ok(v), "{text}"),
                    None => assert!(result.unwrap_err().0.contains("out of range"), "{text}"),
                }
            }
        }
        check::<usize>("-1", None);
        check::<u64>("18446744073709551616", None);
        // The largest double below 2^64 still fits a u64.
        check::<u64>("18446744073709549568", Some(18_446_744_073_709_549_568));
        check::<u8>("256", None);
        check::<u8>("300", None);
        check::<u8>("255", Some(255));
        check::<u8>("0", Some(0));
        check::<i8>("-129", None);
        check::<i8>("-128", Some(-128));
        check::<i32>("2147483648", None);
        check::<i32>("2147483647", Some(i32::MAX));
        check::<i64>("9223372036854775808", None);
        check::<i64>("-9223372036854775808", Some(i64::MIN));
        assert!(json_read::<u32>("\"inf\"").is_err());
    }
}
