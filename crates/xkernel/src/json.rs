//! The workspace's one JSON writer. The report tools (`xbench xload`,
//! `xbench xprof`, `xcheck`'s summary lines) emit through it, so "brackets
//! balance, commas separate, strings are escaped" holds by construction
//! instead of being re-checked by a substring validator beside each emitter:
//! a container is a closure ([`JsonWriter::object`], [`JsonWriter::array`]),
//! so one that is opened is closed. The workspace carries no JSON dependency,
//! and nothing in it reads JSON back.

use std::fmt::{Display, Write as _};

/// Builds one JSON document into a `String`.
#[derive(Default)]
pub struct JsonWriter {
    out: String,
    pretty: bool,
    depth: usize,
    /// The open container already holds an element.
    comma: bool,
    /// A key was just written: the next element is its value.
    after_key: bool,
}

impl JsonWriter {
    /// A writer with no whitespace between tokens: a one-line record.
    pub fn compact() -> JsonWriter {
        JsonWriter::default()
    }

    /// A writer for files people read: one element a line, two-space indent,
    /// `": "` after a key, a newline at the end.
    pub fn pretty() -> JsonWriter {
        JsonWriter {
            pretty: true,
            ..JsonWriter::default()
        }
    }

    /// The document.
    pub fn finish(mut self) -> String {
        assert!(!self.after_key, "JsonWriter: a key without a value");
        if self.pretty {
            self.out.push('\n');
        }
        self.out
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n("  ", self.depth));
        }
    }

    /// What precedes an element: nothing after its key, else the comma and
    /// the line break.
    fn element(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        if self.comma {
            self.out.push(',');
        }
        if self.depth > 0 {
            self.newline();
        }
        self.comma = true;
    }

    fn nest(&mut self, open: char, close: char, fill: impl FnOnce(&mut JsonWriter)) {
        self.element();
        self.out.push(open);
        self.depth += 1;
        self.comma = false;
        fill(self);
        assert!(!self.after_key, "JsonWriter: a key without a value");
        self.depth -= 1;
        if self.comma {
            self.newline();
        }
        self.out.push(close);
        self.comma = true;
    }

    /// `{ … }`; `fill` writes [`key`](Self::key)–value pairs.
    pub fn object(&mut self, fill: impl FnOnce(&mut JsonWriter)) {
        self.nest('{', '}', fill);
    }

    /// `[ … ]`; `fill` writes the elements.
    pub fn array(&mut self, fill: impl FnOnce(&mut JsonWriter)) {
        self.nest('[', ']', fill);
    }

    /// An object member's name; the next element written is its value.
    pub fn key(&mut self, name: &str) -> &mut JsonWriter {
        self.string(name);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.after_key = true;
        self
    }

    /// A string, escaped.
    pub fn string(&mut self, s: &str) {
        self.element();
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' | '\\' => self.out.extend(['\\', c]),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    fn scalar(&mut self, v: impl Display) {
        self.element();
        let _ = write!(self.out, "{v}");
    }

    /// An unsigned integer.
    pub fn u64(&mut self, v: u64) {
        self.scalar(v);
    }

    /// `true` or `false`.
    pub fn bool(&mut self, v: bool) {
        self.scalar(v);
    }

    /// A number; JSON has no NaN or infinity, so those are `null`.
    pub fn f64(&mut self, v: f64) {
        if v.is_finite() {
            self.scalar(v);
        } else {
            self.scalar("null");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A strict recursive-descent reader, here only so the writer's output is
    /// judged by a grammar and not by counting brackets. Returns the strings
    /// it decoded, in order.
    struct Reader<'a> {
        s: &'a [u8],
        at: usize,
        strings: Vec<String>,
    }

    impl Reader<'_> {
        fn ws(&mut self) {
            while self.at < self.s.len() && b" \n".contains(&self.s[self.at]) {
                self.at += 1;
            }
        }
        fn eat(&mut self, b: u8) -> bool {
            self.ws();
            let hit = self.s.get(self.at) == Some(&b);
            self.at += usize::from(hit);
            hit
        }
        fn value(&mut self) {
            self.ws();
            match self.s[self.at] {
                b'{' | b'[' => {
                    let object = self.s[self.at] == b'{';
                    let close = if object { b'}' } else { b']' };
                    self.at += 1;
                    if self.eat(close) {
                        return;
                    }
                    loop {
                        if object {
                            self.ws();
                            self.string();
                            assert!(self.eat(b':'), "no colon at {}", self.at);
                        }
                        self.value();
                        if self.eat(close) {
                            return;
                        }
                        assert!(self.eat(b','), "no comma at {}", self.at);
                    }
                }
                b'"' => self.string(),
                _ => {
                    let rest = &self.s[self.at..];
                    let n = rest
                        .iter()
                        .position(|b| b",}] \n".contains(b))
                        .unwrap_or(rest.len());
                    let word = std::str::from_utf8(&rest[..n]).unwrap();
                    assert!(
                        ["true", "false", "null"].contains(&word) || word.parse::<f64>().is_ok(),
                        "bad scalar {word:?}"
                    );
                    self.at += n;
                }
            }
        }
        fn string(&mut self) {
            assert_eq!(self.s[self.at], b'"', "no string at {}", self.at);
            let text = std::str::from_utf8(&self.s[self.at + 1..]).unwrap();
            let mut out = String::new();
            let mut chars = text.char_indices();
            while let Some((i, c)) = chars.next() {
                match c {
                    '"' => {
                        self.at += i + 2;
                        self.strings.push(out);
                        return;
                    }
                    '\\' => match chars.next().unwrap().1 {
                        'u' => {
                            let hex: String = chars.by_ref().take(4).map(|(_, c)| c).collect();
                            out.push(
                                char::from_u32(u32::from_str_radix(&hex, 16).unwrap()).unwrap(),
                            );
                        }
                        c @ ('"' | '\\') => out.push(c),
                        c => panic!("bad escape \\{c}"),
                    },
                    c => {
                        assert!(c as u32 >= 0x20, "raw control character in a string");
                        out.push(c);
                    }
                }
            }
            panic!("unterminated string");
        }
    }

    fn read(doc: &str) -> Vec<String> {
        let mut r = Reader {
            s: doc.as_bytes(),
            at: 0,
            strings: Vec::new(),
        };
        r.value();
        r.ws();
        assert_eq!(r.at, doc.len(), "trailing bytes in {doc:?}");
        r.strings
    }

    const HOSTILE: &str = "a \"quoted\" \\ name }],{[ with\nnewline, \u{1} and µ";

    fn sample(mut w: JsonWriter) -> String {
        w.object(|w| {
            w.key("schema").string("t/1");
            w.key(HOSTILE).string(HOSTILE);
            w.key("empty").array(|_| {});
            w.key("none").object(|_| {});
            w.key("rows").array(|w| {
                for i in 0..3 {
                    w.object(|w| {
                        w.key("n").u64(i);
                        w.key("ok").bool(i != 1);
                        w.key("x").f64(i as f64 / 4.0);
                    });
                }
                w.f64(f64::NAN);
            });
        });
        w.finish()
    }

    #[test]
    fn both_layouts_parse_and_strings_round_trip() {
        for doc in [sample(JsonWriter::compact()), sample(JsonWriter::pretty())] {
            let strings = read(&doc);
            assert_eq!(strings.iter().filter(|s| *s == HOSTILE).count(), 2, "{doc}");
        }
    }

    #[test]
    fn the_compact_layout_has_no_whitespace_and_the_pretty_one_a_line_per_element() {
        let mut w = JsonWriter::compact();
        w.object(|w| {
            w.key("a").u64(1);
            w.key("b").array(|w| {
                w.bool(true);
                w.string("x");
            });
        });
        assert_eq!(w.finish(), r#"{"a":1,"b":[true,"x"]}"#);
        let mut w = JsonWriter::pretty();
        w.object(|w| {
            w.key("a").u64(1);
            w.key("b").array(|w| w.bool(true));
            w.key("c").array(|_| {});
        });
        assert_eq!(
            w.finish(),
            "{\n  \"a\": 1,\n  \"b\": [\n    true\n  ],\n  \"c\": []\n}\n"
        );
    }

    #[test]
    #[should_panic(expected = "a key without a value")]
    fn a_key_without_a_value_is_refused() {
        let mut w = JsonWriter::compact();
        w.object(|w| {
            w.key("dangling");
        });
    }
}
