//! A minimal JSON value: builder, serializer, and parser.
//!
//! The workspace has no serde, so the artifact codecs build [`Json`]
//! values by hand and read them back with [`Json::parse`] and the typed
//! `*_at` accessors. Only what the telemetry reports
//! need is implemented; numbers are `f64` (integral values are printed
//! without a fractional part).

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (integral values round-trip exactly up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn object<K: Into<String>>(pairs: Vec<(K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a count: a number that is finite, non-negative,
    /// integral and at most 2^53 (the largest range `f64` holds exactly).
    /// `-1`, `2.7` and `1e300` are not counts.
    pub fn as_u64(&self) -> Option<u64> {
        const MAX_EXACT: f64 = 9_007_199_254_740_992.0;
        match self {
            Json::Num(n) if (0.0..=MAX_EXACT).contains(n) && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value under `key` as `T`: what the typed `*_at` accessors
    /// share. A missing key and a value of the wrong shape are both an
    /// `Err` naming the key, never a default.
    fn field<'a, T>(
        &'a self,
        key: &str,
        want: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        let value = self
            .get(key)
            .ok_or_else(|| format!("missing field {key:?}"))?;
        read(value).ok_or_else(|| format!("field {key:?} is not {want}"))
    }

    /// The count under `key` (see [`Json::as_u64`]).
    pub fn u64_at(&self, key: &str) -> Result<u64, String> {
        self.field(key, "an integer in 0..=2^53", Json::as_u64)
    }

    /// The count under `key`, as a `usize`.
    pub fn usize_at(&self, key: &str) -> Result<usize, String> {
        self.field(key, "an integer in 0..=2^53", |v| {
            v.as_u64().and_then(|n| usize::try_from(n).ok())
        })
    }

    /// The finite number under `key`.
    pub fn f64_at(&self, key: &str) -> Result<f64, String> {
        self.field(key, "a finite number", |v| {
            v.as_f64().filter(|n| n.is_finite())
        })
    }

    /// The string under `key`.
    pub fn str_at(&self, key: &str) -> Result<&str, String> {
        self.field(key, "a string", Json::as_str)
    }

    /// The array under `key`.
    pub fn array_at(&self, key: &str) -> Result<&[Json], String> {
        self.field(key, "an array", Json::as_array)
    }

    /// Checks the document's `"schema"` tag against the one a decoder
    /// understands.
    pub fn expect_schema(&self, want: &str) -> Result<(), String> {
        match self.str_at("schema")? {
            tag if tag == want => Ok(()),
            tag => Err(format!("unsupported schema {tag:?} (want {want:?})")),
        }
    }

    /// Parses a JSON document. Arrays and objects may nest at most 128
    /// deep; a deeper document is an `Err`, not a stack overflow.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing data at byte {}", parser.pos));
        }
        Ok(value)
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if !n.is_finite() {
                    out.push_str("null");
                } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    out.push_str(&format!("{:.0}", n));
                } else {
                    out.push_str(&format!("{}", n));
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level and its input is external bytes; every
/// `petaxct-*` schema nests under ten deep.
const MAX_NESTING: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
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
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_NESTING {
                    return Err(format!(
                        "nesting deeper than {MAX_NESTING} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".to_string());
                    };
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
                            if self.pos + 4 > self.bytes.len() {
                                return Err("truncated \\u escape".to_string());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                _ => {
                    // Re-decode from the byte position to keep UTF-8 intact.
                    let start = self.pos - 1;
                    let rest = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    // xct-allow(no-panic): infallible — rest re-decoded from a non-empty valid-UTF-8 suffix
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        // xct-allow(no-panic): infallible — the scanned range is all ASCII number bytes
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        // `1e999` parses to infinity, which JSON cannot express (the
        // writer would turn it into `null`): out of range is an error.
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {}", start))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect_byte(b'[')?;
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

    fn object(&mut self) -> Result<Json, String> {
        self.expect_byte(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_report_shaped_document() {
        let doc = Json::object(vec![
            ("schema", Json::from("petaxct-run-v1")),
            ("wall_seconds", Json::from(1.5)),
            (
                "phases",
                Json::from(vec![Json::object(vec![
                    ("phase", Json::from("spmm.forward")),
                    ("count", Json::from(12u64)),
                ])]),
            ),
            ("note", Json::from("line\nbreak \"quoted\"")),
            ("enabled", Json::from(true)),
            ("nothing", Json::Null),
        ]);
        let text = doc.to_string();
        let back = Json::parse(&text).expect("round trip parses");
        assert_eq!(back, doc);
        assert_eq!(back.get("schema").unwrap().as_str(), Some("petaxct-run-v1"));
        assert_eq!(back.get("wall_seconds").unwrap().as_f64(), Some(1.5));
        let phases = back.get("phases").unwrap().as_array().unwrap();
        assert_eq!(phases[0].get("count").unwrap().as_f64(), Some(12.0));
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::from(42u64).to_string(), "42");
        assert_eq!(Json::from(0.125).to_string(), "0.125");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let back = Json::parse(" { \"a\" : [ 1 , -2.5e1 ] , \"b\" : \"x\\u0041\" } ").unwrap();
        assert_eq!(
            back.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(-25.0)
        );
        assert_eq!(back.get("b").unwrap().as_str(), Some("xA"));
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let hostile = "[".repeat(100_000);
        let err = Json::parse(&hostile).unwrap_err();
        assert!(err.starts_with("nesting deeper than 128"), "{err}");
        let hostile = "{\"a\":".repeat(100_000);
        assert!(Json::parse(&hostile).is_err());

        let nested = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        let mut at_cap = &Json::parse(&nested(MAX_NESTING)).expect("a document at the cap parses");
        let mut levels = 0;
        while let Some(inner) = at_cap.as_array() {
            levels += 1;
            match inner.first() {
                Some(next) => at_cap = next,
                None => break,
            }
        }
        assert_eq!(levels, MAX_NESTING);
        assert!(Json::parse(&nested(MAX_NESTING + 1)).is_err());
    }

    #[test]
    fn typed_accessors_reject_what_is_not_a_count_and_name_the_key() {
        let text = r#"{"schema":"s-v1","n":12,"big":9007199254740992,"neg":-1,"frac":2.5,
            "huge":1e300,"over":9007199254740994,"name":"x","list":[1]}"#;
        let doc = Json::parse(text).unwrap();
        assert_eq!((doc.u64_at("n"), doc.usize_at("n")), (Ok(12), Ok(12)));
        assert_eq!(doc.u64_at("big"), Ok(1 << 53));
        assert_eq!(doc.f64_at("frac"), Ok(2.5));
        assert_eq!(doc.str_at("name"), Ok("x"));
        assert_eq!(doc.array_at("list").map(<[Json]>::len), Ok(1));
        for key in ["neg", "frac", "huge", "over", "name", "list", "absent"] {
            let err = doc.u64_at(key).unwrap_err();
            assert!(err.contains(&format!("{key:?}")), "{err}");
            assert!(doc.usize_at(key).is_err());
        }
        let nan = Json::object(vec![("x", Json::Num(f64::NAN))]);
        assert!(nan.f64_at("x").unwrap_err().contains("\"x\""));
        assert!(doc.f64_at("name").is_err() && doc.str_at("n").is_err());
        assert!(doc.array_at("n").is_err());
        assert_eq!(doc.expect_schema("s-v1"), Ok(()));
        let err = doc.expect_schema("s-v2").unwrap_err();
        assert!(err.contains("s-v1") && err.contains("s-v2"), "{err}");
        assert!(Json::Null.expect_schema("s-v1").is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("true false").is_err());
        assert!(Json::parse("1e999").unwrap_err().contains("bad number"));
    }
}
