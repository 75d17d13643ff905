//! The workspace's one JSON codec: a byte-stable writer and the
//! matching parser.
//!
//! Every report and trace the workspace emits is written through
//! [`Json`], so this module alone knows the format: separators,
//! nesting, string escaping, float encoding and the versioned
//! `schema_version`/`kind` preamble. Output is byte-stable: members
//! appear in call order, strings escape a fixed set, and floats use
//! Rust's shortest round-trip `Display` (`null` for non-finite values,
//! which JSON cannot hold). [`JsonValue`] reads any of these documents
//! back, for star-check's repro loader and the schema tests.
//!
//! # Schema history
//!
//! [`SCHEMA_VERSION`] is bumped on any breaking change to a document's
//! shape:
//!
//! * schema 1 was the unversioned faultsim report of the original
//!   fault-injection change (no `schema_version`/`kind` fields);
//! * schema 2 added both fields and the `run-report` serialization;
//! * schema 3 nested the device counters under `"nvm"`, split
//!   `energy_pj` into an `"energy"` read/write breakdown, added the
//!   `"wear"` summary, and introduced the `"trace"` document kind
//!   (star-trace timelines);
//! * schema 4 added the `"prof"` write-provenance object (per-cause and
//!   per-bank write/energy matrices, line-wear and stall/WPQ-depth
//!   histograms, windowed write-rate series) to `run-report`, and the
//!   `"bench-baseline"` document kind emitted by `star-bench baseline`;
//! * schema 5 added the `"serve"` document kind (star-serve service
//!   grids: per-scheme/per-tenant latency quantiles, goodput, downtime
//!   spans and unavailability);
//! * schema 6 added the `"shard"` document kind (star-shard: lane-keyed
//!   sharded runs with per-shard report sections, an epoch-tagged
//!   persist log and cross-shard merged totals), a second star-serve
//!   kind for its then-separate sharded backend, and widened the
//!   faultsim explore report's `"workload"` from a fixed registry label
//!   to a free-form string;
//! * schema 7 added the `"perf-profile"` document kind (star-scope: the
//!   host wall-clock span profile, with a scrubbed mode that zeroes
//!   host-measured fields so structure can be golden-pinned) and the
//!   optional `"perf_profile"` summary section of `bench-baseline`,
//!   which only `star-bench profile` writes. Within schema 7,
//!   star-serve's sharded kind was retired: a multi-lane grid is a
//!   `"serve"` document whose cells also name each tenant's `"lane"`
//!   and end with a `"lanes"` array, while a single-store cell's bytes
//!   are unchanged.

use std::fmt::Write as _;

/// Version of the JSON report schema this build emits.
pub const SCHEMA_VERSION: u32 = 7;

/// A byte-stable JSON writer building one object into one `String`.
///
/// Members are written in call order. Inside an object each member
/// names its key; inside an array an element passes the key `""`.
/// Nested objects and arrays are written by closures, so a section of
/// a document is a function taking `&mut Json`.
///
/// ```
/// use star_trace::Json;
///
/// let mut j = Json::doc("demo");
/// j.u64("ops", 3).f64("ipc", f64::NAN).arr("pairs", |j| {
///     j.str("", "a\"b");
/// });
/// assert_eq!(
///     j.finish(),
///     r#"{"schema_version":7,"kind":"demo","ops":3,"ipc":null,"pairs":["a\"b"]}"#
/// );
/// ```
#[derive(Debug)]
pub struct Json {
    out: String,
    first: bool,
    in_arr: bool,
}

impl Json {
    /// Opens a versioned document: its first members are
    /// `"schema_version"` ([`SCHEMA_VERSION`]) and `"kind"`.
    pub fn doc(kind: &str) -> Json {
        let mut j = Json::object();
        j.u64("schema_version", u64::from(SCHEMA_VERSION))
            .str("kind", kind);
        j
    }

    /// Opens a plain object.
    pub fn object() -> Json {
        Json {
            out: String::from("{"),
            first: true,
            in_arr: false,
        }
    }

    /// Closes the object and returns its bytes.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }

    /// Writes the separator and, inside an object, the key.
    fn key(&mut self, key: &str) {
        if self.first {
            self.first = false;
        } else {
            self.out.push(',');
        }
        if self.in_arr {
            debug_assert!(key.is_empty(), "array elements take the key \"\"");
        } else {
            escape(&mut self.out, key);
            self.out.push(':');
        }
    }

    /// An unsigned integer.
    pub fn u64(&mut self, key: &str, v: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{v}");
        self
    }

    /// A float: shortest round-trip `Display`, `null` when non-finite.
    pub fn f64(&mut self, key: &str, v: f64) -> &mut Self {
        self.key(key);
        if v.is_finite() {
            let _ = write!(self.out, "{v}");
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// An escaped string.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.key(key);
        escape(&mut self.out, v);
        self
    }

    /// `true` or `false`.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.key(key);
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// An already-encoded JSON value, copied verbatim: `null`, or a
    /// whole document another [`Json`] finished.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key);
        self.out.push_str(json);
        self
    }

    /// A nested object whose members `f` writes.
    pub fn obj(&mut self, key: &str, f: impl FnOnce(&mut Json)) -> &mut Self {
        self.nest(key, ('{', '}'), false, f)
    }

    /// A nested array whose elements `f` writes (each with key `""`).
    pub fn arr(&mut self, key: &str, f: impl FnOnce(&mut Json)) -> &mut Self {
        self.nest(key, ('[', ']'), true, f)
    }

    /// An array of two-element integer arrays: `[[a,b],…]`, the shape of
    /// every histogram and level/count list.
    pub fn pairs(&mut self, key: &str, pairs: impl IntoIterator<Item = (u64, u64)>) -> &mut Self {
        self.arr(key, |j| {
            for (a, b) in pairs {
                j.arr("", |j| {
                    j.u64("", a).u64("", b);
                });
            }
        })
    }

    fn nest(
        &mut self,
        key: &str,
        (open, close): (char, char),
        in_arr: bool,
        f: impl FnOnce(&mut Json),
    ) -> &mut Self {
        self.key(key);
        self.out.push(open);
        let outer = std::mem::replace(&mut self.in_arr, in_arr);
        self.first = true;
        f(self);
        self.first = false;
        self.in_arr = outer;
        self.out.push(close);
        self
    }
}

/// Appends `s` as a quoted JSON string. Reports only hold ASCII labels
/// and our own detail messages, but every control character is escaped
/// anyway.
fn escape(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[start..i]);
        match short {
            Some(esc) => out.push_str(esc),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`; all our integers fit exactly
    /// well past any counter this simulator produces in practice).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, members in document order.
    Obj(Vec<(String, JsonValue)>),
}

/// A parse failure: what was wrong and the byte offset it was found at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Human-readable description of the problem.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl core::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonParseError {}

impl JsonValue {
    /// Parses `input` as one standard JSON document (trailing whitespace
    /// allowed, trailing garbage rejected), keeping object members in
    /// document order.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error with its byte offset.
    pub fn parse(input: &str) -> Result<JsonValue, JsonParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Object member lookup (`None` for non-objects and absent keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is a whole non-negative
    /// number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            message: message.to_string(),
            at: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.digits();
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits();
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            self.digits();
        }
        let text = core::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| core::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("malformed \\u escape"))?;
                            // Surrogates never appear in our own output;
                            // map them to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let rest = core::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// The members of an array (`close` = `]`) or object (`}`) after its
    /// opening bracket, each read by `item`.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonParseError>,
    ) -> Result<(), JsonParseError> {
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err(&format!("expected `,` or `{}`", close as char))),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.items(b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(JsonValue::Arr(items))
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.items(b'}', |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            members.push((key, p.value()?));
            Ok(())
        })?;
        Ok(JsonValue::Obj(members))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(s: &str) -> String {
        let mut j = Json::object();
        j.str("", s);
        j.finish()
    }

    #[test]
    fn separators_in_empty_and_nested_containers() {
        assert_eq!(Json::object().finish(), "{}");
        let mut j = Json::object();
        j.obj("a", |_| {})
            .arr("b", |_| {})
            .obj("c", |j| {
                j.u64("x", 1).arr("y", |j| {
                    j.u64("", 2).obj("", |j| {
                        j.bool("z", true);
                    });
                    j.arr("", |_| {});
                });
            })
            .pairs("p", [(1, 2), (3, 4)])
            .pairs("q", []);
        assert_eq!(
            j.finish(),
            r#"{"a":{},"b":[],"c":{"x":1,"y":[2,{"z":true},[]]},"p":[[1,2],[3,4]],"q":[]}"#
        );
    }

    #[test]
    fn keys_and_values_are_escaped() {
        let mut j = Json::object();
        j.str("k\"\\\n", "a\"b\\c\nd\r\t\u{1}é");
        assert_eq!(
            j.finish(),
            "{\"k\\\"\\\\\\n\":\"a\\\"b\\\\c\\nd\\r\\t\\u0001é\"}"
        );
        assert_eq!(encoded("plain"), "{\"\":\"plain\"}");
    }

    #[test]
    fn floats_are_shortest_or_null() {
        let mut j = Json::object();
        j.f64("a", 1.5)
            .f64("b", 0.0)
            .f64("c", 1e21)
            .f64("d", f64::INFINITY)
            .f64("e", f64::NEG_INFINITY)
            .f64("f", f64::NAN);
        assert_eq!(
            j.finish(),
            r#"{"a":1.5,"b":0,"c":1000000000000000000000,"d":null,"e":null,"f":null}"#
        );
    }

    #[test]
    fn documents_lead_with_the_preamble() {
        let mut j = Json::doc("demo");
        j.raw("r", "null");
        assert_eq!(
            j.finish(),
            format!("{{\"schema_version\":{SCHEMA_VERSION},\"kind\":\"demo\",\"r\":null}}")
        );
    }

    #[test]
    fn written_documents_parse_to_the_expected_tree() {
        let mut inner = Json::doc("inner");
        inner.u64("n", 5);
        let mut j = Json::doc("outer");
        j.str("s", "q\"\n\u{2}")
            .f64("f", -2.5)
            .f64("nan", f64::NAN)
            .bool("t", false)
            .raw("nested", &inner.finish())
            .arr("xs", |j| {
                j.u64("", 0).str("", "w");
            })
            .pairs("h", [(64, 1)]);
        let text = j.finish();
        let num = |n: f64| JsonValue::Num(n);
        let doc = |kind: &str, rest: Vec<(String, JsonValue)>| {
            let mut members = vec![
                ("schema_version".to_string(), num(f64::from(SCHEMA_VERSION))),
                ("kind".to_string(), JsonValue::Str(kind.into())),
            ];
            members.extend(rest);
            JsonValue::Obj(members)
        };
        let want = doc(
            "outer",
            vec![
                ("s".into(), JsonValue::Str("q\"\n\u{2}".into())),
                ("f".into(), num(-2.5)),
                ("nan".into(), JsonValue::Null),
                ("t".into(), JsonValue::Bool(false)),
                ("nested".into(), doc("inner", vec![("n".into(), num(5.0))])),
                (
                    "xs".into(),
                    JsonValue::Arr(vec![num(0.0), JsonValue::Str("w".into())]),
                ),
                (
                    "h".into(),
                    JsonValue::Arr(vec![JsonValue::Arr(vec![num(64.0), num(1.0)])]),
                ),
            ],
        );
        assert_eq!(JsonValue::parse(&text), Ok(want));
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse(" -2.5e1 ").unwrap(), JsonValue::Num(-25.0));
        assert_eq!(
            JsonValue::parse("\"a\\nb\\u0041\"").unwrap(),
            JsonValue::Str("a\nbA".into())
        );
    }

    #[test]
    fn parses_nested_structures_in_order() {
        let v = JsonValue::parse(r#"{"b":[1,2,{"x":null}],"a":{"k":"v"}}"#).unwrap();
        let JsonValue::Obj(members) = &v else {
            panic!("object")
        };
        assert_eq!(members[0].0, "b");
        assert_eq!(members[1].0, "a");
        assert_eq!(v.get("b").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().get("k").unwrap().as_str(), Some("v"));
    }

    #[test]
    fn integer_accessors() {
        let v = JsonValue::parse("{\"n\":12345,\"f\":1.5,\"neg\":-3}").unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(12345));
        assert_eq!(v.get("f").unwrap().as_u64(), None);
        assert_eq!(v.get("neg").unwrap().as_u64(), None);
        assert_eq!(v.get("f").unwrap().as_f64(), Some(1.5));
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "1 2",
            "nul",
            "\"open",
            "[1 2]",
            "{\"a\" 1}",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn roundtrips_emitted_strings() {
        let s = "a\"b\\c\nd\t\u{1}";
        let parsed = JsonValue::parse(&encoded(s)).unwrap();
        assert_eq!(parsed.get("").and_then(JsonValue::as_str), Some(s));
    }
}
