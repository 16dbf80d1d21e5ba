//! Hand-rolled JSON rendering for telemetry output.
//!
//! The workspace builds offline against vendored dependency stubs, and the
//! `serde` stub is marker-traits only — so machine-readable output like the
//! METRICS frame and the benchmark's result files is produced by this
//! small, dependency-free builder instead. Object keys keep insertion
//! order, strings are escaped per RFC 8259, and non-finite floats degrade
//! to `null` (JSON has no NaN).

use std::fmt::Write as _;

/// A JSON value with ordered object keys.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integer number (u64 is the native telemetry unit).
    UInt(u64),
    /// Floating-point number; non-finite renders as `null`.
    Float(f64),
    /// String, escaped on render.
    Str(String),
    /// Array of values.
    Array(Vec<JsonValue>),
    /// Object with keys in insertion order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Convenience constructor for an empty object.
    pub fn object() -> JsonValue {
        JsonValue::Object(Vec::new())
    }

    /// Appends `key: value` to an object (panics if `self` is not one).
    pub fn push(&mut self, key: &str, value: JsonValue) -> &mut Self {
        match self {
            JsonValue::Object(fields) => fields.push((key.to_string(), value)),
            _ => panic!("JsonValue::push on a non-object"),
        }
        self
    }

    /// Renders to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, false);
        out
    }

    /// Renders to a pretty-printed JSON string (two-space indent).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, true);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize, pretty: bool) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::Float(v) => {
                if v.is_finite() {
                    // `{:?}` for finite f64 always yields a valid JSON
                    // number (a decimal point or exponent is included).
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1, pretty);
                    item.write(out, indent + 1, pretty);
                }
                newline_indent(out, indent, pretty);
                out.push(']');
            }
            JsonValue::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1, pretty);
                    write_escaped(out, key);
                    out.push(':');
                    if pretty {
                        out.push(' ');
                    }
                    value.write(out, indent + 1, pretty);
                }
                newline_indent(out, indent, pretty);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: usize, pretty: bool) {
    if pretty {
        out.push('\n');
        for _ in 0..indent {
            out.push_str("  ");
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            // RFC 8259 only *requires* escaping below 0x20, but span paths
            // and flight-recorder payloads can carry arbitrary peer-derived
            // bytes: DEL (a control character) and U+2028/U+2029 (legal in
            // JSON, line terminators in JavaScript — they break naive
            // embedding and some log pipelines) are escaped too, so every
            // emitted string is plain one-line ASCII-safe-ish text.
            c if (c as u32) < 0x20 || c == '\u{7f}' || c == '\u{2028}' || c == '\u{2029}' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(JsonValue::Null.render(), "null");
        assert_eq!(JsonValue::Bool(true).render(), "true");
        assert_eq!(JsonValue::UInt(42).render(), "42");
        assert_eq!(JsonValue::Float(1.5).render(), "1.5");
        assert_eq!(JsonValue::Float(3.0).render(), "3.0");
        assert_eq!(JsonValue::Float(f64::NAN).render(), "null");
        assert_eq!(JsonValue::Float(f64::INFINITY).render(), "null");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(
            JsonValue::Str("a\"b\\c\nd\u{1}".to_string()).render(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn hostile_strings_escape_to_single_line_json() {
        // Every C0 control character must come out escaped, never raw.
        let all_controls: String = (0u8..0x20).map(|b| b as char).collect();
        let rendered = JsonValue::Str(all_controls).render();
        assert!(!rendered.chars().any(|c| (c as u32) < 0x20));
        assert!(rendered.contains("\\u0000"));
        assert!(rendered.contains("\\u0007"));
        assert!(rendered.contains("\\u001f"));
        assert!(rendered.contains("\\n") && rendered.contains("\\r") && rendered.contains("\\t"));

        // DEL and the JavaScript line terminators are escaped too.
        assert_eq!(
            JsonValue::Str("a\u{7f}b\u{2028}c\u{2029}d".to_string()).render(),
            "\"a\\u007fb\\u2028c\\u2029d\""
        );

        // Quote/backslash bombs stay balanced: unescaped-quote count must
        // be exactly the two delimiters.
        let bomb = r#""""\\\"\" end"#;
        let rendered = JsonValue::Str(bomb.to_string()).render();
        let bytes = rendered.as_bytes();
        let unescaped_quotes = bytes
            .iter()
            .enumerate()
            .filter(|&(i, &b)| b == b'"' && (i == 0 || bytes[i - 1] != b'\\'))
            .count();
        assert_eq!(unescaped_quotes, 2, "rendered: {rendered}");

        // Multi-byte text passes through untouched.
        assert_eq!(
            JsonValue::Str("héllo ✓ 日本".to_string()).render(),
            "\"héllo ✓ 日本\""
        );
    }

    #[test]
    fn hostile_object_keys_escape_like_values() {
        let mut obj = JsonValue::object();
        obj.push("bad\"key\nwith\u{1}ctrl", JsonValue::UInt(1));
        assert_eq!(obj.render(), "{\"bad\\\"key\\nwith\\u0001ctrl\":1}");
    }

    #[test]
    fn objects_keep_insertion_order() {
        let mut obj = JsonValue::object();
        obj.push("z", JsonValue::UInt(1))
            .push("a", JsonValue::UInt(2));
        assert_eq!(obj.render(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(JsonValue::Array(vec![]).render(), "[]");
        assert_eq!(JsonValue::object().render(), "{}");
        assert_eq!(JsonValue::Array(vec![]).render_pretty(), "[]\n");
    }
}
