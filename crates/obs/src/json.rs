//! A minimal JSON value, parser, and string escaper.
//!
//! The repo deliberately carries no external dependencies, so the trace
//! schema is read and written by hand. The parser covers exactly the
//! JSON this crate (and the stats emitters) produce: objects, arrays,
//! strings with `\`-escapes, integers, floats, booleans, null. Integers
//! are kept exact (`u64`/`i64`) rather than routed through `f64`,
//! because communicator gids are full-width 64-bit hashes.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Non-negative integer (exact).
    UInt(u64),
    /// Negative integer (exact).
    Int(i64),
    /// Any number written with a fraction or exponent.
    Float(f64),
    /// String (unescaped).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// Value as `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::UInt(u) => i64::try_from(*u).ok(),
            _ => None,
        }
    }

    /// Value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Value as a slice of items, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Escape `s` for embedding in a JSON string literal (quotes excluded).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Parse a complete JSON document. Trailing whitespace is allowed;
/// trailing garbage is an error.
pub fn parse(s: &str) -> Result<Json, String> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let v = parse_value(b, pos)?;
        fields.push((key, v));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        let v = parse_value(b, pos)?;
        items.push(v);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let cp = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Advance one UTF-8 scalar (input is a &str, so this is safe).
                let rest = &b[*pos..];
                let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                let c = s.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    if text.is_empty() || text == "-" {
        return Err(format!("invalid number at byte {start}"));
    }
    if float {
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    } else if let Some(stripped) = text.strip_prefix('-') {
        stripped
            .parse::<i64>()
            .map(|v| Json::Int(-v))
            .map_err(|e| format!("bad number {text:?}: {e}"))
    } else {
        text.parse::<u64>()
            .map(Json::UInt)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse(r#"{"a":1,"b":-2,"c":1.5,"d":"x\ny","e":[true,false,null],"f":{}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_i64(), Some(-2));
        assert_eq!(v.get("c"), Some(&Json::Float(1.5)));
        assert_eq!(v.get("d").unwrap().as_str(), Some("x\ny"));
        assert_eq!(
            v.get("e"),
            Some(&Json::Arr(vec![
                Json::Bool(true),
                Json::Bool(false),
                Json::Null
            ]))
        );
        assert_eq!(v.get("f"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn full_width_u64_is_exact() {
        let v = parse(&format!("{{\"gid\":{}}}", u64::MAX)).unwrap();
        assert_eq!(v.get("gid").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn escape_round_trip() {
        let s = "a\"b\\c\nd\te\u{1}";
        let parsed = parse(&format!("\"{}\"", escape(s))).unwrap();
        assert_eq!(parsed.as_str(), Some(s));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{} x").is_err());
        assert!(parse("nope").is_err());
    }
}
