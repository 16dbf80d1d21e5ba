//! A small JSON reader into [`JsonValue`] (the workspace's renderer has no
//! parser, and `compare` must read back the files `run` wrote), plus the
//! accessors the reports need.

use max_telemetry::report::JsonValue;

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.fail("trailing characters"));
    }
    Ok(value)
}

/// Member `key` of an object.
pub fn get<'a>(value: &'a JsonValue, key: &str) -> Option<&'a JsonValue> {
    match value {
        JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A number as `f64`, whichever way it was written.
pub fn as_f64(value: &JsonValue) -> Option<f64> {
    match value {
        JsonValue::UInt(v) => Some(*v as f64),
        JsonValue::Float(v) => Some(*v),
        _ => None,
    }
}

/// A string.
pub fn as_str(value: &JsonValue) -> Option<&str> {
    match value {
        JsonValue::Str(s) => Some(s),
        _ => None,
    }
}

/// An array's items.
pub fn as_array(value: &JsonValue) -> Option<&[JsonValue]> {
    match value {
        JsonValue::Array(items) => Some(items),
        _ => None,
    }
}

/// An object's members in file order.
pub fn as_object(value: &JsonValue) -> Option<&[(String, JsonValue)]> {
    match value {
        JsonValue::Object(fields) => Some(fields),
        _ => None,
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn fail(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(literal.as_bytes());
        if hit {
            self.pos += literal.len();
        }
        hit
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.fail("unexpected end")),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(_) if self.eat("null") => Ok(JsonValue::Null),
            Some(_) if self.eat("true") => Ok(JsonValue::Bool(true)),
            Some(_) if self.eat("false") => Ok(JsonValue::Bool(false)),
            Some(_) => self.number(),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.pos += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat("}") {
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(self.fail("expected a key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(":") {
                return Err(self.fail("expected ':'"));
            }
            fields.push((key, self.value()?));
            self.skip_ws();
            if self.eat("}") {
                return Ok(JsonValue::Object(fields));
            }
            if !self.eat(",") {
                return Err(self.fail("expected ',' or '}'"));
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat("]") {
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat("]") {
                return Ok(JsonValue::Array(items));
            }
            if !self.eat(",") {
                return Err(self.fail("expected ',' or ']'"));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.fail("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.fail("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.fail("bad \\u escape"))?;
                            self.pos += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(self.fail("unknown escape")),
                    }
                }
                _ => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|_| self.fail("string is not UTF-8"))
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        if let Ok(v) = text.parse::<u64>() {
            return Ok(JsonValue::UInt(v));
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| self.fail("expected a value"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_what_the_renderer_writes() {
        let mut inner = JsonValue::object();
        inner
            .push("value", JsonValue::Float(1.2034))
            .push("unit", JsonValue::Str("ms \"q\"\n".to_string()));
        let mut doc = JsonValue::object();
        doc.push("correct", JsonValue::Bool(true))
            .push("attempted", JsonValue::UInt(1000))
            .push("none", JsonValue::Null)
            .push(
                "list",
                JsonValue::Array(vec![JsonValue::Float(-0.5), inner]),
            );
        assert_eq!(parse(&doc.render()), Ok(doc.clone()));
        assert_eq!(parse(&doc.render_pretty()), Ok(doc));
    }

    #[test]
    fn accessors_and_malformed_input() {
        let doc = parse(r#"{"a": {"b": [1, 2.5e0, "xA"]}}"#).unwrap();
        let list = as_array(get(get(&doc, "a").unwrap(), "b").unwrap()).unwrap();
        assert_eq!(as_f64(&list[0]), Some(1.0));
        assert_eq!(as_f64(&list[1]), Some(2.5));
        assert_eq!(as_str(&list[2]), Some("xA"));
        assert!(get(&doc, "missing").is_none());
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "\"open", "nul", "1 2"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
