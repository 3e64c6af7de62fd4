//! The workspace's one JSON value ([`Json`]), parser, pretty printer and
//! scalar writers ([`write_str`], [`write_num`]), used for Chrome traces,
//! the service's wire replies and metrics, and `BENCH_vm.json`.
//!
//! The parser reads untrusted input (`slo trace-check`, wire replies,
//! `BENCH_vm.json`), so it ends in a value or an `Err` on every input: nesting
//! is bounded by `MAX_DEPTH`, not by the stack, and scans are linear.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The deepest array/object nesting [`Json::parse`] accepts; the
/// documents the workspace reads nest at most four levels.
const MAX_DEPTH: usize = 32;

/// A JSON value. Objects use a `BTreeMap`, so printing is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits in `u64`, kept exact; the parser
    /// reads every such literal as `U64`.
    U64(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Obj(BTreeMap::new())
    }

    /// Insert into an object (panics if `self` is not an object).
    pub fn set(&mut self, key: &str, value: Json) {
        let Json::Obj(m) = self else {
            panic!("Json::set on a non-object")
        };
        m.insert(key.to_string(), value);
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        let Json::Obj(m) = self else { return None };
        m.get(key)
    }

    /// Fetch a key from an object, replacing an absent or non-object value
    /// with an empty object (panics if `self` is not an object).
    pub fn entry_object(&mut self, key: &str) -> &mut Json {
        let Json::Obj(m) = self else {
            panic!("Json::entry_object on a non-object")
        };
        let e = m.entry(key.to_string()).or_insert_with(Json::object);
        if !matches!(e, Json::Obj(_)) {
            *e = Json::object();
        }
        e
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        let Json::U64(n) = self else { return None };
        Some(*n)
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        let Json::Bool(b) = self else { return None };
        Some(*b)
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        let Json::Str(s) = self else { return None };
        Some(s)
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        let Json::Arr(a) = self else { return None };
        Some(a)
    }

    /// Pretty-print with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out + "\n"
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        let close = "  ".repeat(indent);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => out.push_str(&n.to_string()),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Obj(m) if m.is_empty() => out.push_str("{}"),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    let _ = write!(out, "{}{pad}", if i == 0 { "\n" } else { ",\n" });
                    v.write_pretty(out, indent + 1);
                }
                let _ = write!(out, "\n{close}]");
            }
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    let _ = write!(out, "{}{pad}", if i == 0 { "\n" } else { ",\n" });
                    write_str(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                let _ = write!(out, "\n{close}}}");
            }
        }
    }

    /// Parse a JSON document.
    ///
    /// # Errors
    ///
    /// A message with the byte offset of the first malformed token.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { src: text, pos: 0 };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// Append `s` as a quoted JSON string: quotes, backslashes and control
/// characters are escaped, everything else is copied verbatim.
pub fn write_str(out: &mut String, s: &str) {
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

/// Append a number as the shortest text that reads back the same `f64`
/// (no exponent, no fraction on whole numbers); non-finite ones as `null`.
pub fn write_num(out: &mut String, n: f64) {
    if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null");
    }
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skip whitespace, then consume `b`.
    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() != Some(b) {
            return Err(format!("expected `{}` at byte {}", b as char, self.pos));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        let at = self.pos;
        let literal = |p: &mut Self, word: &str, v: Json| {
            if p.src[p.pos..].starts_with(word) {
                p.pos += word.len();
                Ok(v)
            } else {
                Err(format!("invalid literal at byte {}", p.pos))
            }
        };
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(format!("too deep at byte {at}")),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                while self.more(b']', items.is_empty())? {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                self.pos += 1;
                let mut m = BTreeMap::new();
                while self.more(b'}', m.is_empty())? {
                    let key = self.string()?;
                    self.expect(b':')?;
                    m.insert(key, self.value(depth + 1)?);
                }
                Ok(Json::Obj(m))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => literal(self, "true", Json::Bool(true)),
            Some(b'f') => literal(self, "false", Json::Bool(false)),
            Some(b'n') => literal(self, "null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(format!("unexpected character at byte {at}")),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Whether another element follows inside an array or object,
    /// consuming the comma before it, or `close` after the last one.
    fn more(&mut self, close: u8, first: bool) -> Result<bool, String> {
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(false);
        }
        if !first {
            self.expect(b',')?;
        }
        Ok(true)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let len = self.src[start..].find(|c: char| !"0123456789+-.eE".contains(c));
        self.pos = len.map_or(self.src.len(), |len| start + len);
        let text = &self.src[start..self.pos];
        let int = text.parse().map(Json::U64);
        let num = int.or_else(|_| text.parse().map(Json::Num));
        num.map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }

    /// A quoted string. Runs between escapes are copied whole, so the
    /// scan touches each byte once.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.src[self.pos..];
            let run = rest.find(['"', '\\']).ok_or("unterminated string")?;
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(out);
            }
            let at = self.pos;
            self.pos += 1;
            out.push(match self.src.as_bytes().get(at) {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    let code = self
                        .src
                        .get(self.pos..self.pos + 4)
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
                    self.pos += 4;
                    // Lone surrogates have no `char`; our writers never
                    // emit them, so keep the document rather than reject it.
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                _ => return Err(format!("bad escape at byte {at}")),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v =
            Json::parse(r#" {"a":[1,2.5,-3e2],"b":{"c":"x\ny\u00e9","d":true,"e":null},"f":""} "#)
                .unwrap();
        let a = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(a, [Json::U64(1), Json::Num(2.5), Json::Num(-300.0)]);
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\nyé")
        );
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Bool(true)));
        assert_eq!(v.get("f").unwrap().as_str(), Some(""));
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,2,]",
            "[1,]",
            "{} trailing",
            "\"unterminated",
            "tru",
            "-",
            "\"\\x\"",
            "\"\\u12\"",
            "{1:2}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(1_000_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("too deep"), "{err}");
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let over = format!(
            "{}{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn numbers_print_exactly() {
        let mut o = Json::object();
        o.set("n", Json::Num(12345.0));
        o.set("max", Json::U64(u64::MAX));
        o.set("nan", Json::Num(f64::NAN));
        let text = o.pretty();
        assert!(text.contains("\"n\": 12345,\n") && text.contains("\"nan\": null\n"));
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("max"), Some(&Json::U64(u64::MAX)));
    }

    #[test]
    fn entry_object_replaces_non_objects() {
        let mut o = Json::object();
        o.set("tables", Json::U64(1));
        o.entry_object("tables").set("t1", Json::Bool(true));
        assert_eq!(
            o.get("tables").and_then(|t| t.get("t1")),
            Some(&Json::Bool(true))
        );
    }
}
