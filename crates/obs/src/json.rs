//! A tiny hand-rolled JSON emitter *and* reader (this workspace has no
//! serde), used to dump metrics snapshots in a `metrics.json`-able shape
//! and to validate the emitted documents (`stats json` schema test,
//! Chrome-trace well-formedness check) without external dependencies.

use crate::histogram::HistogramSnapshot;
use crate::registry::MetricsSnapshot;
use crate::window::WindowSnapshot;

/// Escapes a string for inclusion in a JSON document (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    json_string_into(s, &mut out);
    out
}

/// Appends `s` to `out` as a quoted JSON string.
///
/// Runs of bytes that need no escape are copied whole, found eight bytes
/// at a time (the same scan as `lotusx_xml`'s escapers): a word without
/// a control byte, quote or backslash is skipped in one step. Every
/// escaped byte is ASCII, so every run boundary is a char boundary.
pub fn json_string_into(s: &str, out: &mut String) {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = LO << 7;
    // High bit set in the first byte of `w` equal to `b` (bits above it
    // may be spurious, which only costs a re-check).
    let eq = |w: u64, b: u8| {
        let v = w ^ (LO * u64::from(b));
        v.wrapping_sub(LO) & !v & HI
    };
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let bytes = s.as_bytes();
    let mut run = 0;
    let mut i = 0;
    while i < bytes.len() {
        if let Some(word) = bytes.get(i..i + 8) {
            let w = u64::from_le_bytes(word.try_into().expect("eight bytes"));
            let mask = (w.wrapping_sub(LO * 0x20) & !w & HI) | eq(w, b'"') | eq(w, b'\\');
            if mask == 0 {
                i += 8;
                continue;
            }
            i += (mask.trailing_zeros() / 8) as usize;
        }
        let b = bytes[i];
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => {
                i += 1;
                continue;
            }
        };
        out.push_str(&s[run..i]);
        if escaped.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(escaped);
        }
        i += 1;
        run = i;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Formats an `f64` so the output is always a finite JSON number.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0".to_string()
    }
}

fn window_json(w: &WindowSnapshot) -> String {
    let mut out = format!(
        "{{\"window_secs\":{},\"queries\":{},\"qps\":{},\"cache_hits\":{},\"cache_misses\":{},\"hit_ratio\":{},\"truncated\":{},\"truncation_rate\":{},\"stages\":{{",
        w.window_secs,
        w.queries,
        json_f64(w.qps),
        w.cache_hits,
        w.cache_misses,
        json_f64(w.hit_ratio),
        w.truncated,
        json_f64(w.truncation_rate)
    );
    for (i, (name, h)) in w.stages.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{}", json_string(name), histogram_json(h)));
    }
    out.push_str("}}");
    out
}

fn histogram_json(h: &HistogramSnapshot) -> String {
    format!(
        "{{\"count\":{},\"sum_ns\":{},\"mean_ns\":{},\"max_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{}}}",
        h.count,
        h.sum_ns,
        h.mean_ns(),
        h.max_ns,
        h.p50_ns,
        h.p95_ns,
        h.p99_ns
    )
}

impl MetricsSnapshot {
    /// Renders the snapshot as a pretty-printed JSON object with
    /// `stages`, `counters`, `histograms`, `slow_queries`, `windows`
    /// (1s/10s/60s rolling aggregates), `exemplars` (worst-K sampled
    /// profiles) and `trace` (ring accounting) sections.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"stages\": {\n");
        for (i, (name, h)) in self.stages.iter().enumerate() {
            out.push_str(&format!(
                "    {}: {}{}\n",
                json_string(name),
                histogram_json(h),
                if i + 1 == self.stages.len() { "" } else { "," }
            ));
        }
        out.push_str("  },\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            out.push_str(&format!(
                "\n    {}: {}{}",
                json_string(name),
                v,
                if i + 1 == self.counters.len() {
                    "\n  "
                } else {
                    ","
                }
            ));
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            out.push_str(&format!(
                "\n    {}: {}{}",
                json_string(name),
                histogram_json(h),
                if i + 1 == self.histograms.len() {
                    "\n  "
                } else {
                    ","
                }
            ));
        }
        out.push_str("},\n  \"slow_queries\": [");
        for (i, q) in self.slow_queries.iter().enumerate() {
            out.push_str(&format!(
                "\n    {{\"query\":{},\"total_ns\":{},\"seq\":{}}}{}",
                json_string(&q.query),
                q.total_ns,
                q.seq,
                if i + 1 == self.slow_queries.len() {
                    "\n  "
                } else {
                    ","
                }
            ));
        }
        out.push_str("],\n  \"windows\": {");
        for (i, w) in self.windows.iter().enumerate() {
            out.push_str(&format!(
                "\n    {}: {}{}",
                json_string(&format!("{}s", w.window_secs)),
                window_json(w),
                if i + 1 == self.windows.len() {
                    "\n  "
                } else {
                    ","
                }
            ));
        }
        out.push_str("},\n  \"exemplars\": [");
        for (i, e) in self.exemplars.iter().enumerate() {
            out.push_str(&format!(
                "\n    {{\"stage\":{},\"query\":{},\"total_ns\":{},\"seq\":{}}}{}",
                json_string(&e.stage),
                json_string(&e.profile.query),
                e.total_ns,
                e.seq,
                if i + 1 == self.exemplars.len() {
                    "\n  "
                } else {
                    ","
                }
            ));
        }
        out.push_str(&format!(
            "],\n  \"trace\": {{\"produced\":{},\"dropped\":{},\"exported\":{}}}\n}}\n",
            self.trace.produced, self.trace.dropped, self.trace.exported
        ));
        out
    }
}

/// A parsed JSON value (the reader half of this module).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, as insertion-ordered key/value pairs.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (trailing whitespace allowed).
pub fn parse_json(input: &str) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(JsonValue::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = Vec::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| "invalid UTF-8".to_string());
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'b') => out.push(0x08),
                    Some(b'f') => out.push(0x0c),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        // Surrogate pairs are not needed for our own
                        // documents; map them to the replacement char.
                        let c = char::from_u32(hex).unwrap_or('\u{fffd}');
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&b) => {
                out.push(b);
                *pos += 1;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(pairs));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Metrics, Stage};

    /// The original char-by-char escaper: the oracle the run-copying
    /// one must match byte for byte.
    fn json_string_oracle(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
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
        out
    }

    #[test]
    fn run_copying_json_string_matches_the_char_loop_oracle() {
        // Every control character, the escaped specials, ASCII, and 2-,
        // 3- and 4-byte UTF-8, drawn into seeded random strings.
        let mut pool: Vec<char> = (0u8..0x20).map(char::from).collect();
        pool.extend([
            '"', '\\', '/', ' ', 'a', '\u{7f}', 'é', '\u{7ff}', '€', '語', '😀',
        ]);
        let mut state: u64 = 0x5EED;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut inputs: Vec<String> = (0..2000)
            .map(|_| {
                let len = (next() % 40) as usize;
                (0..len)
                    .map(|_| pool[(next() % pool.len() as u64) as usize])
                    .collect()
            })
            .collect();
        inputs.push(String::new());
        inputs.push(pool.iter().collect());
        for input in &inputs {
            let want = json_string_oracle(input);
            assert_eq!(json_string(input), want, "{input:?}");
            let mut appended = "[".to_string();
            json_string_into(input, &mut appended);
            assert_eq!(appended, format!("[{want}"));
            // The escaped form parses back to the input.
            assert_eq!(parse_json(&want).unwrap().as_str(), Some(input.as_str()));
        }
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("line\nbreak\t"), "\"line\\nbreak\\t\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn snapshot_renders_valid_looking_json() {
        let m = Metrics::new();
        m.record_stage(Stage::Total, 1_000);
        m.incr("queries", 2);
        m.record_named("deadline_overshoot", 7_000);
        m.slow_queries().set_threshold_ns(1);
        m.slow_queries().record("//a[\"x\"]", 500_000);
        let json = m.snapshot().to_json();
        assert!(json.contains("\"total\": {\"count\":1"));
        assert!(json.contains("\"queries\": 2"));
        assert!(json.contains("\"deadline_overshoot\": {\"count\":1"));
        assert!(json.contains("\\\"x\\\""));
        // Balanced braces/brackets — a cheap structural sanity check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_snapshot_still_renders() {
        let json = Metrics::new().snapshot().to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"histograms\": {}"));
        assert!(json.contains("\"slow_queries\": []"));
        assert!(json.contains("\"windows\""));
        assert!(json.contains("\"exemplars\": []"));
        assert!(json.contains("\"trace\""));
    }

    #[test]
    fn parser_handles_scalars_arrays_objects() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json("-12.5e2").unwrap(), JsonValue::Num(-1250.0));
        assert_eq!(
            parse_json("\"a\\n\\\"b\\u0041\"").unwrap(),
            JsonValue::Str("a\n\"bA".to_string())
        );
        let v = parse_json("{\"xs\":[1,2,3],\"ok\":false}").unwrap();
        let xs = v.get("xs").unwrap().as_arr().unwrap();
        assert_eq!(xs.len(), 3);
        assert_eq!(xs[2].as_f64(), Some(3.0));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert!(v.get("missing").is_none());
        assert_eq!(v.as_obj().unwrap().len(), 2);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse_json("").is_err());
        assert!(parse_json("{\"a\":1").is_err());
        assert!(parse_json("[1,2,]").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("\"unterminated").is_err());
        assert!(parse_json("nul").is_err());
    }

    #[test]
    fn snapshot_json_roundtrips_through_the_parser() {
        let m = Metrics::new();
        m.record_stage(Stage::Total, 2_000_000);
        m.incr("queries", 1);
        m.incr("cache_miss", 1);
        let doc = parse_json(&m.snapshot().to_json()).expect("self-emitted JSON parses");
        let windows = doc.get("windows").expect("windows section");
        for w in ["1s", "10s", "60s"] {
            let win = windows.get(w).unwrap_or_else(|| panic!("{w} window"));
            let p99 = win
                .get("stages")
                .and_then(|s| s.get("total"))
                .and_then(|t| t.get("p99_ns"))
                .and_then(|v| v.as_f64())
                .unwrap();
            assert!(p99.is_finite());
        }
        let trace = doc.get("trace").expect("trace section");
        assert!(trace.get("dropped").unwrap().as_f64().is_some());
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("queries"))
                .and_then(|v| v.as_f64()),
            Some(1.0)
        );
    }
}
