//! The one JSON emitter behind every artifact writer (`OBS_*.json`,
//! `COSIM_report.json`, `BENCH_{ptq,serve,pareto}.json`).
//!
//! A [`Value`] is always legal JSON: the typed constructors are the only
//! way to make one, so strings are always escaped and every non-finite
//! float is `null`. Floats have no default rendering — the call site
//! picks [`fixed`], [`sci`] or shortest ([`float`]). Containers are
//! *block* (one member per line, two-space indent; empty still breaks
//! the line) or *line* (members joined by `, `).
//!
//! `tests/json_shapes.rs` pins a whole nested document.

use std::fmt::Write as _;

/// A rendered, always-legal JSON value (scalar or container).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Value(String);

impl Value {
    /// The value as an artifact file's contents: its text plus a trailing
    /// newline.
    pub fn into_document(mut self) -> String {
        self.0.push('\n');
        self.0
    }
}

impl<S: AsRef<str> + ?Sized> From<&S> for Value {
    fn from(s: &S) -> Self {
        Self(escape(s.as_ref()))
    }
}

macro_rules! display_values {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Self(v.to_string())
            }
        }
    )*};
}
display_values!(bool, u32, u64, usize);

/// Fixed-point float with `decimals` digits after the point (`{:.N}`).
pub fn fixed(v: f64, decimals: usize) -> Value {
    finite_or_null(v, format!("{v:.decimals$}"))
}

/// Scientific float with `decimals` mantissa digits (`{:.Ne}`, e.g.
/// `1.2345e6`).
pub fn sci(v: f64, decimals: usize) -> Value {
    finite_or_null(v, format!("{v:.decimals$e}"))
}

/// Shortest round-trip float, always a float token: integral values get
/// a `.0` so parsers keep them floats (`f64`'s `Display` never uses an
/// exponent).
pub fn float(v: f64) -> Value {
    let s = v.to_string();
    let point = if s.contains('.') { "" } else { ".0" };
    finite_or_null(v, s + point)
}

fn finite_or_null(v: f64, s: String) -> Value {
    Value(if v.is_finite() { s } else { "null".into() })
}

/// An object with one member per line.
pub fn block_obj<'a>(members: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    container('{', '}', true, members.into_iter().map(member))
}

/// An object with every member on one line.
pub fn line_obj<'a>(members: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    container('{', '}', false, members.into_iter().map(member))
}

/// An array with one item per line.
pub fn block_arr(items: impl IntoIterator<Item = Value>) -> Value {
    container('[', ']', true, items.into_iter().map(|v| v.0))
}

/// An array with every item on one line.
pub fn line_arr(items: impl IntoIterator<Item = Value>) -> Value {
    container('[', ']', false, items.into_iter().map(|v| v.0))
}

fn member((key, value): (&str, Value)) -> String {
    format!("{}: {}", escape(key), value.0)
}

/// Joins rendered members. A block member is indented one level; every
/// newline inside it (only ever a nested block's, since strings are
/// escaped) gains that indent too.
fn container(open: char, close: char, block: bool, members: impl Iterator<Item = String>) -> Value {
    let (sep, end) = if block { (",", "\n") } else { (", ", "") };
    let members: Vec<String> = if block {
        members
            .map(|m| format!("\n  {}", m.replace('\n', "\n  ")))
            .collect()
    } else {
        members.collect()
    };
    Value(format!("{open}{}{end}{close}", members.join(sep)))
}

/// A JSON string literal, quotes included.
fn escape(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if c < ' ' => write!(out, "\\u{:04x}", u32::from(c)).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(v: Value) -> String {
        v.0
    }

    #[test]
    fn json_f64_always_emits_a_float_token() {
        assert_eq!(text(float(2.0)), "2.0");
        assert_eq!(text(float(1.5)), "1.5");
        // Rust's f64 Display never uses exponent notation; the integer
        // rendering still gets a ".0" so parsers keep it a float.
        assert!(text(float(1e30)).ends_with(".0"));
        assert_eq!(text(fixed(0.5, 4)), "0.5000");
        assert_eq!(text(sci(12345.0, 4)), "1.2345e4");
        assert_eq!(text(sci(0.00125, 2)), "1.25e-3");
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!([float(v), fixed(v, 2), sci(v, 9)].map(text), ["null"; 3]);
        }
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(text("a\"b\\c".into()), r#""a\"b\\c""#);
        assert_eq!(text("x\ny\tz\r".into()), r#""x\ny\tz\r""#);
        assert_eq!(text("esc\u{1b}[0m".into()), r#""esc\u001b[0m""#);
        assert_eq!(text("MERSIT(8,2) µ→ü".into()), "\"MERSIT(8,2) µ→ü\"");
    }

    #[test]
    fn empty_containers_keep_their_shape() {
        let empty = [block_arr([]), block_obj([]), line_arr([]), line_obj([])];
        assert_eq!(empty.map(text), ["[\n]", "{\n}", "[]", "{}"]);
    }
}
