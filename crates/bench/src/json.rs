//! A dependency-free JSON writer for bench artifacts.
//!
//! The bench crate publishes machine-readable results (e.g.
//! `BENCH_scenario.json`, uploaded as a CI artifact) without pulling
//! a serialization dependency into the workspace: [`Json`] is a tiny
//! value tree with a spec-compliant `Display`. Writing is all this
//! module does — the artifacts are consumed by external tooling, so no
//! parser lives here.

use std::fmt;

/// A JSON value. Build it with the `From` impls and
/// [`Json::obj`]/[`Json::arr`], render it with `to_string()`/`{}`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` — also what non-finite floats render as.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, rendered without a fraction.
    U64(u64),
    /// A double. JSON has no NaN/Infinity, so non-finite values render
    /// as `null`.
    F64(f64),
    /// A string, escaped per RFC 8259 on render.
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved (no sorting, no
    /// dedup — callers pass each key once).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Builds an array by converting each item.
    pub fn arr(items: impl IntoIterator<Item = impl Into<Json>>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
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

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::U64(n) => write!(f, "{n}"),
            Json::F64(x) if !x.is_finite() => f.write_str("null"),
            Json::F64(x) => write!(f, "{x}"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    f.write_str(":")?;
                    write!(f, "{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars_and_containers() {
        let v = Json::obj([
            ("name", Json::from("interleave")),
            ("ok", Json::from(true)),
            ("count", Json::from(42u64)),
            ("rate", Json::from(1.5)),
            ("shards", Json::arr([1usize, 2, 4])),
            ("none", Json::Null),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"name":"interleave","ok":true,"count":42,"rate":1.5,"shards":[1,2,4],"none":null}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let v = Json::from("a\"b\\c\nd\te\u{1}");
        assert_eq!(v.to_string(), r#""a\"b\\c\nd\te\u0001""#);
    }

    /// Torture the escaper with everything that could leak out of a
    /// trace path or parse-error message into a report: every C0
    /// control character, the RFC 8259 two-character escapes, DEL,
    /// quotes-in-quotes, Windows-style path backslashes, and
    /// multi-byte UTF-8. The output must parse back (spot-checked
    /// against the exact expected encoding) and contain no raw control
    /// bytes or unescaped quotes.
    #[test]
    fn escapes_the_torture_string() {
        let mut torture = String::new();
        for c in 0u8..0x20 {
            torture.push(c as char);
        }
        torture.push_str("\"\\C:\\traces\\x.mbt\u{7f}héllo📦 t.mbt:3:7: bad `\"` token");
        let rendered = Json::from(torture.as_str()).to_string();
        // The interior must have no raw control characters and no
        // unescaped quote (every interior `"` is preceded by `\`).
        let interior = &rendered[1..rendered.len() - 1];
        assert!(interior.chars().all(|c| (c as u32) >= 0x20));
        let bytes = interior.as_bytes();
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'"' {
                assert_eq!(bytes[i - 1], b'\\', "unescaped quote at {i}: {rendered}");
            }
        }
        // Exact encodings for each class of character.
        assert!(rendered.contains(r"\u0000"));
        assert!(rendered.contains(r"\u0008"));
        assert!(rendered.contains(r"\t"));
        assert!(rendered.contains(r"\n"));
        assert!(rendered.contains(r"\r"));
        assert!(rendered.contains(r"\u001f"));
        assert!(rendered.contains(r#"\"\\C:\\traces\\x.mbt"#));
        // DEL and non-ASCII pass through verbatim: RFC 8259 only
        // requires escaping `"`, `\`, and U+0000..U+001F.
        assert!(rendered.contains("\u{7f}héllo📦"));
        assert!(rendered.contains(r#"bad `\"` token"#));
        // No double-escaping: `\\` appears once per input backslash
        // (one before 'C', two path separators) and nowhere else.
        assert_eq!(rendered.matches(r"\\").count(), 3);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::from(f64::NAN).to_string(), "null");
        assert_eq!(Json::from(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::from(0.0).to_string(), "0");
    }

    #[test]
    fn preserves_object_order() {
        let v = Json::obj([("z", Json::from(1u64)), ("a", Json::from(2u64))]);
        assert_eq!(v.to_string(), r#"{"z":1,"a":2}"#);
    }
}
