//! A JSON value and its writer — all the benchmark needs to print its
//! result line, `BENCHMARK.json` and the trace file.

use std::fmt;

/// A JSON value. Objects keep insertion order, so output is reproducible.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Counts, written without a fraction.
    Int(u64),
    /// Measurements, written with the shortest digits that read back to the
    /// same `f64` (never rounded for show).
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl Json {
    /// An object from `(key, value)` pairs, in the order given.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Multi-line form, two spaces per level, for files people read.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0)).expect("writing to a String");
        out.push('\n');
        out
    }

    /// `indent` is the current depth for the multi-line form, `None` for
    /// the single-line form.
    fn write(&self, out: &mut impl fmt::Write, indent: Option<usize>) -> fmt::Result {
        let (open_sep, sep, close_sep, inner) = match indent {
            Some(d) => (
                format!("\n{}", "  ".repeat(d + 1)),
                format!(",\n{}", "  ".repeat(d + 1)),
                format!("\n{}", "  ".repeat(d)),
                Some(d + 1),
            ),
            None => (String::new(), ", ".to_string(), String::new(), None),
        };
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => write!(out, "{b}"),
            Json::Int(n) => write!(out, "{n}"),
            Json::Num(x) => {
                assert!(x.is_finite(), "JSON has no spelling for {x}");
                // `{:?}` keeps a trailing ".0" on whole numbers, so a
                // measurement never reads as a count.
                write!(out, "{x:?}")
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) if items.is_empty() => out.write_str("[]"),
            Json::Obj(pairs) if pairs.is_empty() => out.write_str("{}"),
            Json::Arr(items) => {
                out.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    out.write_str(if i == 0 { &open_sep } else { &sep })?;
                    v.write(out, inner)?;
                }
                write!(out, "{close_sep}]")
            }
            Json::Obj(pairs) => {
                out.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.write_str(if i == 0 { &open_sep } else { &sep })?;
                    write_str(out, k)?;
                    out.write_str(": ")?;
                    v.write(out, inner)?;
                }
                write!(out, "{close_sep}}}")
            }
        }
    }
}

/// The single-line form.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, None)
    }
}

fn write_str(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_line_form_is_exact() {
        let v = Json::obj([
            ("correct", Json::from(true)),
            ("attempted", Json::from(1000u64)),
            (
                "metrics",
                Json::obj([(
                    "setup_s",
                    Json::obj([("value", Json::from(0.8127)), ("unit", Json::from("s"))]),
                )]),
            ),
            ("none", Json::Null),
            ("empty", Json::Arr(vec![])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"correct": true, "attempted": 1000, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}}, "none": null, "empty": []}"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        let v = Json::from("a\"b\\c\nd\te\u{1}µ");
        assert_eq!(v.to_string(), "\"a\\\"b\\\\c\\nd\\te\\u0001µ\"");
    }

    #[test]
    fn numbers_keep_every_digit_and_read_back_to_the_same_bits() {
        for x in [0.1 + 0.2, 1.0 / 3.0, 123456.789012345, 5e-324, 1e21, 2.0] {
            let text = Json::from(x).to_string();
            let back: f64 = text.parse().expect("a number");
            assert_eq!(back.to_bits(), x.to_bits(), "{x} was written as {text}");
        }
        assert_eq!(Json::from(2.0).to_string(), "2.0");
        assert_eq!(Json::from(7u64).to_string(), "7");
    }

    #[test]
    fn pretty_form_indents_and_ends_with_a_newline() {
        let v = Json::obj([
            ("a", Json::Arr(vec![Json::from(1u64), Json::from(2u64)])),
            ("b", Json::obj([("c", Json::from("d"))])),
        ]);
        assert_eq!(
            v.pretty(),
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {\n    \"c\": \"d\"\n  }\n}\n"
        );
    }
}
