//! Escaping and unescaping of character data and attribute values.

use crate::error::{Error, Result, TextPos};

/// Appends `text` to `out`, escaping the characters that are not allowed in
/// XML character data (`&`, `<`, `>`).
pub fn escape_text_into(text: &str, out: &mut String) {
    escape_runs_into(
        text,
        out,
        |w| eq_bytes(w, b'&') | eq_bytes(w, b'<') | eq_bytes(w, b'>'),
        |b| match b {
            b'&' => Some("&amp;"),
            b'<' => Some("&lt;"),
            b'>' => Some("&gt;"),
            _ => None,
        },
    );
}

/// Appends `value` to `out`, escaping the characters that are not allowed in
/// a double-quoted attribute value.
pub fn escape_attr_into(value: &str, out: &mut String) {
    escape_runs_into(
        value,
        out,
        |w| {
            eq_bytes(w, b'&')
                | eq_bytes(w, b'<')
                | eq_bytes(w, b'>')
                | eq_bytes(w, b'"')
                | below_bytes(w, 0x20)
        },
        |b| match b {
            b'&' => Some("&amp;"),
            b'<' => Some("&lt;"),
            b'>' => Some("&gt;"),
            b'"' => Some("&quot;"),
            b'\n' => Some("&#10;"),
            b'\t' => Some("&#9;"),
            _ => None,
        },
    );
}

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = LO << 7;

/// Marks the bytes of the little-endian word `w` equal to `b`: the lowest
/// set high bit is the first such byte (bits above it may be spurious).
#[inline]
fn eq_bytes(w: u64, b: u8) -> u64 {
    let v = w ^ (LO * u64::from(b));
    v.wrapping_sub(LO) & !v & HI
}

/// Marks the bytes of `w` below `n` (`n <= 0x80`), with the same
/// lowest-bit guarantee as [`eq_bytes`].
#[inline]
fn below_bytes(w: u64, n: u8) -> u64 {
    w.wrapping_sub(LO * u64::from(n)) & !w & HI
}

/// Appends `text` to `out` with every byte that `replace` maps replaced
/// by its escape, copying the runs between them whole.
///
/// The scan reads eight bytes at a time: `candidates` marks (at least) the
/// first byte of a word that `replace` might map, so words without one
/// are skipped whole and a marked byte is checked by `replace` itself.
/// `replace` maps only ASCII bytes, which never occur inside a
/// multi-byte UTF-8 sequence, so every run boundary is a char boundary.
#[inline]
fn escape_runs_into(
    text: &str,
    out: &mut String,
    candidates: impl Fn(u64) -> u64,
    replace: impl Fn(u8) -> Option<&'static str>,
) {
    let bytes = text.as_bytes();
    let mut run = 0;
    let mut i = 0;
    while i < bytes.len() {
        if let Some(word) = bytes.get(i..i + 8) {
            let mask = candidates(u64::from_le_bytes(word.try_into().expect("eight bytes")));
            if mask == 0 {
                i += 8;
                continue;
            }
            i += (mask.trailing_zeros() / 8) as usize;
        }
        if let Some(escaped) = replace(bytes[i]) {
            out.push_str(&text[run..i]);
            out.push_str(escaped);
            run = i + 1;
        }
        i += 1;
    }
    out.push_str(&text[run..]);
}

/// Escapes character data, returning a new string.
pub fn escape_text(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    escape_text_into(text, &mut out);
    out
}

/// Escapes an attribute value, returning a new string.
pub fn escape_attr(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    escape_attr_into(value, &mut out);
    out
}

/// Resolves one entity or character reference.
///
/// `body` is the text between `&` and `;`. `full_text` and `offset` locate
/// the reference for error reporting.
pub fn resolve_entity(body: &str, full_text: &str, offset: usize) -> Result<char> {
    match body {
        "amp" => return Ok('&'),
        "lt" => return Ok('<'),
        "gt" => return Ok('>'),
        "quot" => return Ok('"'),
        "apos" => return Ok('\''),
        _ => {}
    }
    if let Some(num) = body.strip_prefix('#') {
        let code = if let Some(hex) = num.strip_prefix('x').or_else(|| num.strip_prefix('X')) {
            u32::from_str_radix(hex, 16)
        } else {
            num.parse::<u32>()
        };
        return code
            .ok()
            .and_then(char::from_u32)
            .filter(|c| is_xml_char(*c))
            .ok_or(Error::InvalidCharRef {
                pos: TextPos::from_offset(full_text, offset),
            });
    }
    Err(Error::UnknownEntity {
        name: body.to_string(),
        pos: TextPos::from_offset(full_text, offset),
    })
}

/// Unescapes a string that may contain entity and character references.
///
/// Returns a borrowed-equivalent owned string only when needed; callers on
/// the hot path should check [`needs_unescaping`] first.
pub fn unescape(text: &str, full_text: &str, base_offset: usize) -> Result<String> {
    let mut out = String::with_capacity(text.len());
    let bytes = text.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] == b'&' {
            let rest = &text[i + 1..];
            let semi = rest.find(';').ok_or(Error::UnexpectedEof {
                expected: "entity reference",
            })?;
            let body = &rest[..semi];
            out.push(resolve_entity(body, full_text, base_offset + i)?);
            i += 1 + semi + 1;
        } else {
            // Copy the longest run without references in one go.
            let start = i;
            while i < bytes.len() && bytes[i] != b'&' {
                i += 1;
            }
            out.push_str(&text[start..i]);
        }
    }
    Ok(out)
}

/// Returns true if `text` contains an entity or character reference.
pub fn needs_unescaping(text: &str) -> bool {
    text.as_bytes().contains(&b'&')
}

/// Returns true if `c` is a character allowed in XML 1.0 documents.
pub fn is_xml_char(c: char) -> bool {
    matches!(c,
        '\u{9}' | '\u{A}' | '\u{D}'
        | '\u{20}'..='\u{D7FF}'
        | '\u{E000}'..='\u{FFFD}'
        | '\u{10000}'..='\u{10FFFF}')
}

/// Returns true if `c` may start an XML name.
pub fn is_name_start_char(c: char) -> bool {
    matches!(c,
        ':' | '_' | 'A'..='Z' | 'a'..='z'
        | '\u{C0}'..='\u{D6}' | '\u{D8}'..='\u{F6}' | '\u{F8}'..='\u{2FF}'
        | '\u{370}'..='\u{37D}' | '\u{37F}'..='\u{1FFF}'
        | '\u{200C}'..='\u{200D}' | '\u{2070}'..='\u{218F}'
        | '\u{2C00}'..='\u{2FEF}' | '\u{3001}'..='\u{D7FF}'
        | '\u{F900}'..='\u{FDCF}' | '\u{FDF0}'..='\u{FFFD}'
        | '\u{10000}'..='\u{EFFFF}')
}

/// Returns true if `c` may continue an XML name.
pub fn is_name_char(c: char) -> bool {
    is_name_start_char(c)
        || matches!(c,
            '-' | '.' | '0'..='9' | '\u{B7}'
            | '\u{300}'..='\u{36F}' | '\u{203F}'..='\u{2040}')
}

/// Returns true if `c` is XML whitespace.
pub fn is_xml_whitespace(c: char) -> bool {
    matches!(c, ' ' | '\t' | '\r' | '\n')
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The original char-by-char escapers: the oracles the run-copying
    /// versions must match byte for byte.
    fn escape_text_oracle(text: &str, out: &mut String) {
        for ch in text.chars() {
            match ch {
                '&' => out.push_str("&amp;"),
                '<' => out.push_str("&lt;"),
                '>' => out.push_str("&gt;"),
                _ => out.push(ch),
            }
        }
    }

    fn escape_attr_oracle(value: &str, out: &mut String) {
        for ch in value.chars() {
            match ch {
                '&' => out.push_str("&amp;"),
                '<' => out.push_str("&lt;"),
                '>' => out.push_str("&gt;"),
                '"' => out.push_str("&quot;"),
                '\n' => out.push_str("&#10;"),
                '\t' => out.push_str("&#9;"),
                _ => out.push(ch),
            }
        }
    }

    /// Seeded random strings drawing on every escaped character, control
    /// characters, plain ASCII and 2-, 3- and 4-byte UTF-8.
    pub(crate) fn random_strings(seed: u64, count: usize) -> Vec<String> {
        const POOL: &[char] = &[
            '&',
            '<',
            '>',
            '"',
            '\'',
            '\\',
            '\n',
            '\r',
            '\t',
            '\0',
            '\u{1}',
            '\u{1f}',
            ' ',
            'a',
            'Z',
            '0',
            ';',
            '\u{7f}',
            '\u{80}',
            'é',
            'ß',
            '\u{7ff}',
            '\u{800}',
            '€',
            '語',
            '\u{fffd}',
            '\u{10000}',
            '😀',
            '\u{10ffff}',
        ];
        let mut rng = lotusx_datagen::rng::XorShiftRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let len = rng.gen_range(0..40usize);
                (0..len)
                    .map(|_| POOL[rng.gen_range(0..POOL.len())])
                    .collect()
            })
            .collect()
    }

    #[test]
    fn run_copying_escapes_match_the_char_loop_oracles() {
        let mut inputs = random_strings(0x5EED, 2000);
        inputs.push(String::new());
        inputs.push("&<>\"\n\t".repeat(3));
        inputs.push("plain text without specials".to_string());
        for input in &inputs {
            // Appending to a non-empty buffer must leave its prefix alone.
            let (mut got, mut want) = ("prefix".to_string(), "prefix".to_string());
            escape_text_into(input, &mut got);
            escape_text_oracle(input, &mut want);
            assert_eq!(got, want, "text {input:?}");
            let (mut got, mut want) = (String::new(), String::new());
            escape_attr_into(input, &mut got);
            escape_attr_oracle(input, &mut want);
            assert_eq!(got, want, "attr {input:?}");
        }
    }

    #[test]
    fn escape_text_escapes_markup_characters() {
        assert_eq!(escape_text("a < b & c > d"), "a &lt; b &amp; c &gt; d");
        assert_eq!(escape_text("plain"), "plain");
    }

    #[test]
    fn escape_attr_escapes_quotes_and_whitespace_controls() {
        assert_eq!(escape_attr("say \"hi\"\n"), "say &quot;hi&quot;&#10;");
    }

    #[test]
    fn unescape_resolves_predefined_entities() {
        let s = "a &lt; b &amp;&amp; c &gt; d &quot;q&quot; &apos;a&apos;";
        assert_eq!(unescape(s, s, 0).unwrap(), "a < b && c > d \"q\" 'a'");
    }

    #[test]
    fn unescape_resolves_numeric_references() {
        let s = "&#65;&#x42;&#X43;";
        assert_eq!(unescape(s, s, 0).unwrap(), "ABC");
    }

    #[test]
    fn unescape_rejects_unknown_entities() {
        let s = "&nbsp;";
        match unescape(s, s, 0) {
            Err(Error::UnknownEntity { name, .. }) => assert_eq!(name, "nbsp"),
            other => panic!("expected UnknownEntity, got {other:?}"),
        }
    }

    #[test]
    fn unescape_rejects_invalid_char_refs() {
        for s in ["&#0;", "&#xD800;", "&#x110000;", "&#notanumber;"] {
            assert!(
                matches!(unescape(s, s, 0), Err(Error::InvalidCharRef { .. })),
                "{s}"
            );
        }
    }

    #[test]
    fn unescape_rejects_unterminated_reference() {
        let s = "&amp";
        assert!(matches!(
            unescape(s, s, 0),
            Err(Error::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn roundtrip_escape_unescape_is_identity() {
        let original = "x < \"y\" & z > 'w'";
        let escaped = escape_text(original);
        assert_eq!(unescape(&escaped, &escaped, 0).unwrap(), original);
    }

    #[test]
    fn needs_unescaping_detects_ampersand_only() {
        assert!(needs_unescaping("&amp;"));
        assert!(!needs_unescaping("plain < text"));
    }

    #[test]
    fn name_char_classification_matches_spec_basics() {
        assert!(is_name_start_char('a'));
        assert!(is_name_start_char('_'));
        assert!(!is_name_start_char('-'));
        assert!(!is_name_start_char('1'));
        assert!(is_name_char('-'));
        assert!(is_name_char('1'));
        assert!(is_name_char('.'));
        assert!(!is_name_char(' '));
    }
}
