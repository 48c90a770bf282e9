//! A JSON value and its writer: the benchmark only ever emits JSON.

use std::fmt;

pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(value: &str) -> Json {
        Json::Str(value.to_string())
    }

    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// `{"value": …, "unit": …}`, the shape of one reported metric.
    pub fn metric(value: f64, unit: &str) -> Json {
        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, value: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in value.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Bool(value) => write!(f, "{value}"),
            Json::Int(value) => write!(f, "{value}"),
            // JSON has no NaN or infinity; a metric that is neither measured
            // nor computable is a bug the reader should see as null.
            Json::Num(value) if !value.is_finite() => f.write_str("null"),
            Json::Num(value) => write!(f, "{value}"),
            Json::Str(value) => write_str(f, value),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, key)?;
                    write!(f, ": {value}")?;
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
    fn writes_nested_values_and_escapes_strings() {
        let doc = Json::obj([
            ("ok", Json::Bool(true)),
            ("n", Json::Int(3)),
            ("m", Json::metric(1.25, "us")),
            ("s", Json::Arr(vec![Json::str("a\"b\n")])),
        ]);
        assert_eq!(
            doc.to_string(),
            r#"{"ok": true, "n": 3, "m": {"value": 1.25, "unit": "us"}, "s": ["a\"b\n"]}"#
        );
    }
}
