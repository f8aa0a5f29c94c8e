//! Chrome trace-event JSON export (Perfetto / `chrome://tracing`
//! loadable) plus a hand-rolled JSON parser used by tests and the CI
//! example to validate exported traces without external dependencies.

use crate::{Event, EventKind, Value};
use std::fmt::Write as _;

/// Serializes events in the Chrome trace-event format:
/// `{"traceEvents":[…],"displayTimeUnit":"ms"}`. Wall-timed stage spans
/// become complete (`"ph":"X"`) events; everything else becomes a
/// thread-scoped instant (`"ph":"i"`). Lanes map to `tid`, the logical
/// payload rides along in `args` so the UI shows ids, rounds, and values.
pub fn to_chrome_json(events: &[Event]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let name = display_name(ev);
        let (ph, ts, dur) = match ev.wall {
            Some(w) if w.dur_micros > 0 => ("X", w.start_micros, Some(w.dur_micros)),
            Some(w) => ("i", w.start_micros, None),
            None => ("i", 0, None),
        };
        let _ = write!(out, "{{\"name\":\"");
        escape_into(&mut out, &name);
        let _ = write!(out, "\",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":1,\"tid\":{}", ev.lane);
        if let Some(d) = dur {
            let _ = write!(out, ",\"dur\":{d}");
        }
        if ph == "i" {
            // Thread-scoped instant marker.
            out.push_str(",\"s\":\"t\"");
        }
        let _ = write!(out, ",\"args\":{{\"id\":{},\"round\":{},\"seq\":{}", ev.id.0, ev.round, ev.seq);
        if let Some(p) = ev.parent {
            let _ = write!(out, ",\"parent\":{}", p.0);
        }
        for (k, v) in &ev.payload {
            let _ = write!(out, ",\"");
            escape_into(&mut out, k);
            out.push_str("\":");
            match v {
                Value::Int(n) => {
                    let _ = write!(out, "{n}");
                }
                Value::Uint(n) => {
                    let _ = write!(out, "{n}");
                }
                Value::Float(n) if n.is_finite() => {
                    let _ = write!(out, "{n}");
                }
                Value::Float(_) => out.push_str("null"),
                Value::Text(s) => {
                    out.push('"');
                    escape_into(&mut out, s);
                    out.push('"');
                }
                Value::Flag(b) => {
                    let _ = write!(out, "{b}");
                }
            }
        }
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Stage spans are named after their stage; other events after their kind.
fn display_name(ev: &Event) -> String {
    if ev.kind == EventKind::StageSpan {
        if let Some((_, Value::Text(s))) = ev.payload.iter().find(|(k, _)| *k == "stage") {
            return s.clone();
        }
    }
    format!("{:?}", ev.kind)
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A parsed JSON value (minimal, owned). Numbers are `f64`, object keys
/// keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
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

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Strict recursive-descent JSON parser: rejects trailing garbage,
/// unterminated strings, and malformed escapes. Exists so CI can prove
/// an exported Chrome trace *parses* without pulling in a JSON crate.
pub fn parse_json(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
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

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>().map(Json::Num).map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                        // Surrogates are replaced, not paired — exported
                        // traces never contain them.
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err("bad escape".into()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so boundaries
                // are valid).
                let s = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = s.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
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
        items.push(parse_value(b, pos)?);
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
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected string key at byte {pos}", pos = *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(b, pos)?;
        fields.push((key, value));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventDraft, EventKind, Tracer};

    #[test]
    fn export_round_trips_through_the_parser() {
        let t = Tracer::enabled();
        t.begin_round(0);
        t.record(EventDraft::new(EventKind::TemplateCreated).uint("template", 7).text(
            "body",
            "SELECT \"x\\y\"\nFROM t",
        ));
        {
            let _g = t.stage("clusterer.update", &qb_obs::Histogram::default());
        }
        let json = t.view().to_chrome_json();
        let parsed = parse_json(&json).expect("exported trace must parse");
        let events = parsed.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 3);
        // The stage span exports as a complete event with a duration.
        let span = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("clusterer.update"))
            .unwrap();
        assert_eq!(span.get("ph").and_then(Json::as_str), Some("X"));
        assert!(span.get("dur").and_then(Json::as_f64).is_some());
        // Instants carry their logical clock in args.
        let tpl = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("TemplateCreated"))
            .unwrap();
        assert_eq!(tpl.get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(tpl.get("args").and_then(|a| a.get("template")).and_then(Json::as_f64), Some(7.0));
    }

    #[test]
    fn parser_accepts_standard_json() {
        let v = parse_json(r#" {"a": [1, -2.5e2, "sA", true, null], "b": {}} "#).unwrap();
        let a = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-250.0));
        assert_eq!(a[2].as_str(), Some("sA"));
        assert_eq!(a[3], Json::Bool(true));
        assert_eq!(a[4], Json::Null);
        assert_eq!(v.get("b"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in ["{", "[1,]", "\"abc", "{\"a\" 1}", "12 34", "tru", "{\"a\":}"] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
    }
}
