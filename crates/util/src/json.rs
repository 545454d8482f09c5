//! A minimal JSON document model: value tree, writer, parser, and the
//! [`crate::json!`] macro.
//!
//! Deliberately small — the workspace writes result artifacts and reads
//! back two files (`leaderboard.json`, `meta.json`). Object keys keep
//! insertion order so output is deterministic and diffs are stable.
//! Non-finite floats serialize as `null`, matching `serde_json`'s default.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|n| n as usize)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Pretty serialization with 2-space indentation (the layout
    /// `serde_json::to_string_pretty` produced for the same data).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
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
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

/// Compact serialization; `Json::to_string()` comes from the blanket
/// `ToString` impl.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 2f64.powi(53) {
        // Integral values print without a trailing ".0" — `{}` on f64
        // already does this, but make the intent explicit.
        let _ = write!(out, "{}", n as i64);
    } else {
        // `{}` prints the shortest string that round-trips to the same f64.
        let _ = write!(out, "{n}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Conversion into a [`Json`] value — the workspace's stand-in for
/// `serde::Serialize`.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

macro_rules! impl_tojson_num {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
    )*};
}
impl_tojson_num!(f32, f64, i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

/// Build [`Json`] values with JSON-ish syntax, mirroring `serde_json::json!`:
///
/// ```
/// use benchtemp_util::json;
/// let v = json!({ "name": "wiki", "n": 3, "tags": ["a", "b"], "extra": null });
/// assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
/// ```
#[macro_export]
macro_rules! json {
    (null) => { $crate::json::Json::Null };
    (true) => { $crate::json::Json::Bool(true) };
    (false) => { $crate::json::Json::Bool(false) };
    ([ $($tt:tt)* ]) => { $crate::json::Json::Arr($crate::json_arr!([] () $($tt)*)) };
    ({ $($tt:tt)* }) => { $crate::json::Json::Obj($crate::json_obj!([] () $($tt)*)) };
    ($other:expr) => { $crate::json::ToJson::to_json(&$other) };
}

/// Internal: accumulate array elements (`json!` helper, not for direct use).
///
/// State shape: `[done exprs,] (value tokens munched so far) remaining…`.
/// Value tokens are munched one token tree at a time until a top-level
/// comma; parens/brackets/braces arrive as whole token trees, so commas
/// inside them never split an element.
#[macro_export]
#[doc(hidden)]
macro_rules! json_arr {
    // Done.
    ([ $($done:expr,)* ] ()) => { vec![ $($done,)* ] };
    // Element is a bare JSON structure: recurse wholesale.
    ([ $($done:expr,)* ] () null, $($rest:tt)*) => { $crate::json_arr!([ $($done,)* $crate::json!(null), ] () $($rest)*) };
    ([ $($done:expr,)* ] () null) => { vec![ $($done,)* $crate::json!(null) ] };
    ([ $($done:expr,)* ] () [ $($inner:tt)* ], $($rest:tt)*) => { $crate::json_arr!([ $($done,)* $crate::json!([ $($inner)* ]), ] () $($rest)*) };
    ([ $($done:expr,)* ] () [ $($inner:tt)* ]) => { vec![ $($done,)* $crate::json!([ $($inner)* ]) ] };
    ([ $($done:expr,)* ] () { $($inner:tt)* }, $($rest:tt)*) => { $crate::json_arr!([ $($done,)* $crate::json!({ $($inner)* }), ] () $($rest)*) };
    ([ $($done:expr,)* ] () { $($inner:tt)* }) => { vec![ $($done,)* $crate::json!({ $($inner)* }) ] };
    // Munch expression tokens until the next top-level comma.
    ([ $($done:expr,)* ] ( $($val:tt)+ ) , $($rest:tt)*) => { $crate::json_arr!([ $($done,)* $crate::json_val!($($val)+), ] () $($rest)*) };
    ([ $($done:expr,)* ] ( $($val:tt)* ) $next:tt $($rest:tt)*) => { $crate::json_arr!([ $($done,)* ] ( $($val)* $next ) $($rest)*) };
    ([ $($done:expr,)* ] ( $($val:tt)+ )) => { vec![ $($done,)* $crate::json_val!($($val)+) ] };
}

/// Internal: accumulate object entries (`json!` helper, not for direct use).
/// Same munching scheme as `json_arr`, with `key : structure` entries
/// intercepted before munching starts so brace/bracket values become nested
/// `json!` calls rather than (invalid) Rust block expressions.
#[macro_export]
#[doc(hidden)]
macro_rules! json_obj {
    // Done.
    ([ $($done:expr,)* ] ()) => { vec![ $($done,)* ] };
    // `key: <structure>` followed by a comma or the end.
    ([ $($done:expr,)* ] () $key:tt : null, $($rest:tt)*) => { $crate::json_obj!([ $($done,)* ($key.to_string(), $crate::json!(null)), ] () $($rest)*) };
    ([ $($done:expr,)* ] () $key:tt : null) => { vec![ $($done,)* ($key.to_string(), $crate::json!(null)) ] };
    ([ $($done:expr,)* ] () $key:tt : [ $($inner:tt)* ], $($rest:tt)*) => { $crate::json_obj!([ $($done,)* ($key.to_string(), $crate::json!([ $($inner)* ])), ] () $($rest)*) };
    ([ $($done:expr,)* ] () $key:tt : [ $($inner:tt)* ]) => { vec![ $($done,)* ($key.to_string(), $crate::json!([ $($inner)* ])) ] };
    ([ $($done:expr,)* ] () $key:tt : { $($inner:tt)* }, $($rest:tt)*) => { $crate::json_obj!([ $($done,)* ($key.to_string(), $crate::json!({ $($inner)* })), ] () $($rest)*) };
    ([ $($done:expr,)* ] () $key:tt : { $($inner:tt)* }) => { vec![ $($done,)* ($key.to_string(), $crate::json!({ $($inner)* })) ] };
    // `key: expr` — munch tokens until the next top-level comma.
    ([ $($done:expr,)* ] ( $($val:tt)+ ) , $($rest:tt)*) => { $crate::json_obj!([ $($done,)* $crate::json_entry!($($val)+), ] () $($rest)*) };
    ([ $($done:expr,)* ] ( $($val:tt)* ) $next:tt $($rest:tt)*) => { $crate::json_obj!([ $($done,)* ] ( $($val)* $next ) $($rest)*) };
    ([ $($done:expr,)* ] ( $($val:tt)+ )) => { vec![ $($done,)* $crate::json_entry!($($val)+) ] };
}

/// Internal: turn munched `key : value-tokens` into one object entry.
#[macro_export]
#[doc(hidden)]
macro_rules! json_entry {
    ($key:tt : $val:expr) => {
        ($key.to_string(), $crate::json::ToJson::to_json(&$val))
    };
}

/// Internal: turn munched value tokens into a `Json` value.
#[macro_export]
#[doc(hidden)]
macro_rules! json_val {
    ($val:expr) => {
        $crate::json::ToJson::to_json(&$val)
    };
}

/// Parse error with byte offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters after document"));
    }
    Ok(value)
}

fn err(offset: usize, message: impl Into<String>) -> JsonError {
    JsonError {
        offset,
        message: message.into(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(err(*pos, format!("expected `{lit}`")))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => expect(bytes, pos, "null").map(|_| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|_| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(err(*pos, "expected `,` or `]` in array")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(err(*pos, "expected `:` after object key"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(err(*pos, "expected `,` or `}` in object")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(err(*pos, "expected string"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| err(*pos, "invalid \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "invalid \\u escape"))?;
                        // Surrogate pairs are not needed for our artifacts;
                        // map unpaired surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Advance one UTF-8 scalar at a time.
                let rest = &bytes[*pos..];
                let s = std::str::from_utf8(rest).map_err(|_| err(*pos, "invalid utf-8"))?;
                let c = s.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err(start, "bad number"))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err(start, format!("bad number `{text}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_nested_document() {
        let v = json!({
            "name": "wikipedia",
            "bipartite": true,
            "num_nodes": 9227,
            "auc": 0.9625,
            "label": null,
            "runs": [
                { "seed": 0, "ap": 0.97 },
                { "seed": 1, "ap": 0.955 },
            ],
        });
        for text in [v.to_string(), v.to_string_pretty()] {
            assert_eq!(parse(&text).unwrap(), v, "failed on {text}");
        }
    }

    #[test]
    fn macro_accepts_arbitrary_expressions() {
        let xs = [1usize, 2, 3];
        let name = String::from("x");
        let v = json!({
            "sum": xs.iter().sum::<usize>(),
            "halves": xs.iter().map(|&x| x as f64 / 2.0).collect::<Vec<_>>(),
            "name": name,
            "pair": (1 + 1),
        });
        assert_eq!(v.get("sum").unwrap().as_u64(), Some(6));
        assert_eq!(v.get("pair").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("halves").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn writer_escapes_and_formats() {
        let v = json!({ "s": "a\"b\\c\nd", "i": 42, "f": 0.5, "neg": -3 });
        let text = v.to_string();
        assert_eq!(text, r#"{"s":"a\"b\\c\nd","i":42,"f":0.5,"neg":-3}"#);
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(json!(f64::NAN).to_string(), "null");
        assert_eq!(json!(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn integral_floats_print_without_fraction() {
        assert_eq!(json!(5.0f64).to_string(), "5");
        assert_eq!(json!(5.25f64).to_string(), "5.25");
    }

    #[test]
    fn f64_round_trips_through_text() {
        for x in [0.1, 1.0 / 3.0, 0.9625431, 1e-12, 12345.6789] {
            let text = Json::Num(x).to_string();
            assert_eq!(parse(&text).unwrap().as_f64().unwrap(), x, "{text}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("123 456").is_err());
        assert!(parse("nulla").is_err());
    }

    #[test]
    fn pretty_layout_is_stable() {
        let v = json!({ "a": [1, 2], "b": {} });
        assert_eq!(
            v.to_string_pretty(),
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {}\n}"
        );
    }

    #[test]
    fn accessors_enforce_types() {
        let v = json!({ "n": 3, "f": 2.5, "s": "x", "b": true });
        assert_eq!(v.get("n").unwrap().as_usize(), Some(3));
        assert_eq!(v.get("f").unwrap().as_u64(), None);
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert!(v.get("missing").is_none());
    }
}
