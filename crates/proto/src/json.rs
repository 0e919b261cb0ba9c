//! Hand-rolled JSON value type, parser and canonical serializer.
//!
//! The protocol layer ([`crate::msg`]) needs exactly three things from a
//! JSON implementation, none of which require a registry dependency:
//!
//! 1. a **canonical serializer** — no whitespace, insertion-ordered object
//!    members, a fixed escape policy — so that `serialize ∘ parse` is the
//!    identity on canonical text and protocol messages can be compared
//!    byte-for-byte (the determinism gate relies on this);
//! 2. a **robust parser** — truncation, bad escapes, bad numbers, depth
//!    bombs and trailing garbage are all [`JsonError`]s, never panics;
//! 3. **u64-exact integers** — trampoline and site addresses use the full
//!    64-bit range, so numbers are kept as `i128` internally instead of
//!    being squeezed through `f64`.
//!
//! Floats are accepted by the parser (the grammar is full JSON) but the
//! protocol itself only ever emits integers, strings, booleans and nulls.

use std::fmt;

/// Maximum nesting depth the parser accepts before reporting
/// [`JsonError::TooDeep`] — bounds stack use against `[[[[…` bombs.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Object members keep insertion order so that the
/// serializer is deterministic and `serialize(parse(s)) == s` for canonical
/// input `s`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer. `i128` covers the full `u64` and `i64` ranges losslessly.
    Int(i128),
    /// A non-integer number. Finite by construction (the parser rejects
    /// overflowing literals).
    Float(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup (first match) on an object; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v.as_slice()),
            _ => None,
        }
    }

    /// Canonical serialization: minimal whitespace-free text.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(f) => {
                if f.is_finite() {
                    // Rust's shortest-roundtrip Display; re-parsing yields
                    // the same f64.
                    let s = f.to_string();
                    out.push_str(&s);
                    // `1.0f64.to_string()` is "1": keep it a float literal
                    // so the value re-parses into the Float variant.
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// The canonical escape policy: `"` `\` and ASCII control characters only;
/// everything else (including non-ASCII UTF-8) passes through verbatim.
fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure, with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Input ended inside a value.
    Truncated,
    /// An unexpected byte at `offset`.
    Unexpected(usize, u8),
    /// A malformed `\` escape at `offset`.
    BadEscape(usize),
    /// A malformed or non-finite number literal at `offset`.
    BadNumber(usize),
    /// A malformed `\uXXXX` (or unpaired surrogate) at `offset`.
    BadUnicode(usize),
    /// Nesting exceeded [`MAX_DEPTH`].
    TooDeep,
    /// Valid value followed by more non-whitespace input at `offset`.
    TrailingGarbage(usize),
    /// Input is not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Truncated => write!(f, "truncated JSON input"),
            JsonError::Unexpected(o, b) => {
                write!(f, "unexpected byte {b:#04x} at offset {o}")
            }
            JsonError::BadEscape(o) => write!(f, "bad escape at offset {o}"),
            JsonError::BadNumber(o) => write!(f, "bad number at offset {o}"),
            JsonError::BadUnicode(o) => write!(f, "bad \\u escape at offset {o}"),
            JsonError::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH}"),
            JsonError::TrailingGarbage(o) => {
                write!(f, "trailing garbage at offset {o}")
            }
            JsonError::BadUtf8 => write!(f, "input is not valid UTF-8"),
        }
    }
}

impl std::error::Error for JsonError {}

/// Parse one complete JSON value from `input`; the whole slice must be
/// consumed (bar surrounding ASCII whitespace).
///
/// # Errors
///
/// Any malformation is a [`JsonError`]; the parser never panics, whatever
/// the input.
pub fn parse(input: &[u8]) -> Result<Json, JsonError> {
    // Validate UTF-8 once up front so string slicing below is safe.
    let text = std::str::from_utf8(input).map_err(|_| JsonError::BadUtf8)?;
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError::TrailingGarbage(p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        match self.peek() {
            Some(got) if got == b => {
                self.pos += 1;
                Ok(())
            }
            Some(got) => Err(JsonError::Unexpected(self.pos, got)),
            None => Err(JsonError::Truncated),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        let end = self.pos + word.len();
        if end > self.bytes.len() {
            return Err(JsonError::Truncated);
        }
        if &self.bytes[self.pos..end] != word.as_bytes() {
            return Err(JsonError::Unexpected(self.pos, self.bytes[self.pos]));
        }
        self.pos = end;
        Ok(v)
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::TooDeep);
        }
        match self.peek() {
            None => Err(JsonError::Truncated),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(JsonError::Unexpected(self.pos, b)),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                Some(b) => return Err(JsonError::Unexpected(self.pos, b)),
                None => return Err(JsonError::Truncated),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                Some(b) => return Err(JsonError::Unexpected(self.pos, b)),
                None => return Err(JsonError::Truncated),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(JsonError::Truncated),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        None => return Err(JsonError::Truncated),
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape(start)?;
                            out.push(c);
                            continue; // pos already advanced
                        }
                        Some(_) => return Err(JsonError::BadEscape(start)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    // Raw control characters are invalid inside strings.
                    return Err(JsonError::Unexpected(self.pos, b));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input was validated).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().ok_or(JsonError::Truncated)?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Parse the 4 hex digits after `\u` (and a low surrogate pair if
    /// needed); `self.pos` is on the first hex digit.
    fn unicode_escape(&mut self, start: usize) -> Result<char, JsonError> {
        let hi = self.hex4(start)?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require `\uXXXX` low surrogate.
            if self.peek() != Some(b'\\') {
                return Err(JsonError::BadUnicode(start));
            }
            self.pos += 1;
            if self.peek() != Some(b'u') {
                return Err(JsonError::BadUnicode(start));
            }
            self.pos += 1;
            let lo = self.hex4(start)?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(JsonError::BadUnicode(start));
            }
            let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            char::from_u32(c).ok_or(JsonError::BadUnicode(start))
        } else if (0xDC00..0xE000).contains(&hi) {
            Err(JsonError::BadUnicode(start)) // unpaired low surrogate
        } else {
            char::from_u32(hi).ok_or(JsonError::BadUnicode(start))
        }
    }

    fn hex4(&mut self, start: usize) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(JsonError::Truncated);
        }
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.bytes[self.pos];
            let d = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                b'A'..=b'F' => b - b'A' + 10,
                _ => return Err(JsonError::BadUnicode(start)),
            };
            v = (v << 4) | d as u32;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: JSON forbids leading zeros.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            Some(_) | None => return Err(JsonError::BadNumber(start)),
        }
        if matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(JsonError::BadNumber(start)); // leading zero
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(JsonError::BadNumber(start));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(JsonError::BadNumber(start));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = unsafe { std::str::from_utf8_unchecked(&self.bytes[start..self.pos]) };
        if is_float {
            let f: f64 = text.parse().map_err(|_| JsonError::BadNumber(start))?;
            if !f.is_finite() {
                return Err(JsonError::BadNumber(start)); // 1e999 etc.
            }
            Ok(Json::Float(f))
        } else {
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|_| JsonError::BadNumber(start))
        }
    }
}

/// Convenience: build an object from `(key, value)` pairs.
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(s: &str) {
        let v = parse(s.as_bytes()).unwrap();
        assert_eq!(v.serialize(), s, "canonical text must round-trip");
    }

    #[test]
    fn canonical_roundtrips() {
        roundtrip("null");
        roundtrip("true");
        roundtrip("[1,2,3]");
        roundtrip(r#"{"a":1,"b":[false,"x"],"c":{}}"#);
        roundtrip(r#""line\nbreak\t\"quoted\" \\""#);
        roundtrip("18446744073709551615"); // u64::MAX survives exactly
        roundtrip("-9223372036854775808");
        roundtrip("1.5");
    }

    #[test]
    fn whitespace_and_unicode_parse() {
        let v = parse(b" { \"k\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.serialize(), r#"{"k":[1,2]}"#);
        let v = parse("\"héllo\"".as_bytes()).unwrap();
        assert_eq!(v, Json::Str("héllo".into()));
        // Surrogate pair: 😀 U+1F600.
        let v = parse(br#""\ud83d\ude00""#).unwrap();
        assert_eq!(v, Json::Str("😀".into()));
    }

    #[test]
    fn object_key_order_is_preserved() {
        let v = parse(br#"{"z":1,"a":2}"#).unwrap();
        assert_eq!(v.serialize(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn u64_addresses_survive() {
        let addr = u64::MAX - 7;
        let v = parse(addr.to_string().as_bytes()).unwrap();
        assert_eq!(v.as_u64(), Some(addr));
    }

    #[test]
    fn truncation_is_an_error() {
        let full = r#"{"method":"patch","params":{"addr":4198400}}"#;
        for cut in 0..full.len() {
            assert!(
                parse(&full.as_bytes()[..cut]).is_err(),
                "prefix of length {cut} unexpectedly parsed"
            );
        }
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for bad in [
            &b"{"[..],
            b"[1,",
            b"\"ab",
            b"\"\\x\"",
            b"\"\\u12\"",
            b"\"\\ud800\"",      // unpaired high surrogate
            b"\"\\ude00\"",      // unpaired low surrogate
            b"01",               // leading zero
            b"1.",               // missing fraction digits
            b"1e",               // missing exponent digits
            b"1e999",            // non-finite
            b"nul",
            b"[1] x",            // trailing garbage
            b"{\"a\" 1}",        // missing colon
            b"\xff\xfe",         // invalid UTF-8
            b"\"raw\x01ctl\"",   // raw control char in string
        ] {
            assert!(parse(bad).is_err(), "{bad:?} unexpectedly parsed");
        }
    }

    #[test]
    fn depth_bomb_is_bounded() {
        let bomb = "[".repeat(100_000);
        assert_eq!(parse(bomb.as_bytes()), Err(JsonError::TooDeep));
        let nested_ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(nested_ok.as_bytes()).is_ok());
    }

    #[test]
    fn float_forms() {
        assert_eq!(parse(b"2.5e3").unwrap(), Json::Float(2500.0));
        assert_eq!(parse(b"-0.125").unwrap(), Json::Float(-0.125));
        // Floats that print integral keep a float marker.
        assert_eq!(Json::Float(1.0).serialize(), "1.0");
        assert_eq!(Json::Float(f64::NAN).serialize(), "null");
    }
}
