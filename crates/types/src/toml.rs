//! The TOML subset every declared input file is written in.
//!
//! Sweep grids and scenario specs share one reader: `#` comments (outside
//! double-quoted strings), blank lines, `[section]` headers and
//! `key = value` lines whose values are double-quoted strings, numbers or
//! single-line arrays of either. [`read`] walks the lines and numbers
//! every syntax error, and [`line_of`] finds the line a semantic error is
//! about; each file format keeps only its own key table.

use crate::{Error, Result};

/// One meaningful line of a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Line<'a> {
    /// A `[name]` section header, name trimmed.
    Header(&'a str),
    /// A `key = value` pair, both sides trimmed.
    Pair {
        /// The key.
        key: &'a str,
        /// The raw value text.
        value: &'a str,
    },
}

/// Feeds every header and pair of `text` to `on_line`, in order. Any
/// error — malformed syntax or one `on_line` returns — becomes an
/// [`Error::InvalidValue`] for `file` that names the 1-based line and the
/// key or `[section]` it concerns.
pub fn read<'a>(
    text: &'a str,
    file: &'static str,
    mut on_line: impl FnMut(Line<'a>) -> std::result::Result<(), String>,
) -> Result<()> {
    for (idx, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let at = |what: &str, why: String| {
            Error::invalid(file, format!("line {}: {what}: {why}", idx + 1))
        };
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            let name = name.trim();
            on_line(Line::Header(name)).map_err(|why| at(&format!("[{name}]"), why))?;
            continue;
        }
        let pair = line
            .split_once('=')
            .map(|(k, v)| (k.trim(), v.trim()))
            .filter(|(k, _)| !k.is_empty());
        let Some((key, value)) = pair else {
            return Err(at(line, "expected key = value".into()));
        };
        on_line(Line::Pair { key, value }).map_err(|why| at(key, why))?;
    }
    Ok(())
}

/// The 1-based line that last sets `path` — a top-level `key`, or
/// `section.key` for a key under a `[section]` header — if the text sets
/// it at all.
pub fn line_of(text: &str, path: &str) -> Option<usize> {
    let mut section = "";
    let mut found = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            section = name.trim();
            continue;
        }
        let Some((key, _)) = line.split_once('=') else {
            continue;
        };
        let key_path = match section {
            "" => Some(path),
            _ => path.strip_prefix(section).and_then(|p| p.strip_prefix('.')),
        };
        if key_path == Some(key.trim()) {
            found = Some(idx + 1);
        }
    }
    found
}

/// Cuts `line` at the first `#` that is not inside a double-quoted string.
pub fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// `"value"` → `value`.
pub fn string(v: &str) -> std::result::Result<String, String> {
    let inner = v
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("expected a double-quoted string, got {v}"))?;
    if inner.contains('"') {
        return Err(format!("embedded quotes are not supported: {v}"));
    }
    Ok(inner.to_string())
}

/// A decimal number (non-finite spellings such as `inf` are left for the
/// file's semantic validation to reject).
pub fn number(v: &str) -> std::result::Result<f64, String> {
    v.parse().map_err(|_| format!("bad number {v}"))
}

/// A non-negative integer that fits `T`: fractions (`200.9`), negatives,
/// exponents (`1e30`) and overflow are all rejected.
pub fn integer<T: TryFrom<u64>>(v: &str) -> std::result::Result<T, String> {
    let n: u64 = v
        .parse()
        .map_err(|_| format!("expected a non-negative integer, got {v}"))?;
    T::try_from(n).map_err(|_| format!("integer {v} is out of range"))
}

/// `[ "a", "b" ]` → the strings.
pub fn string_array(v: &str) -> std::result::Result<Vec<String>, String> {
    array_elements(v)?.into_iter().map(string).collect()
}

/// `[ 0, 5.0, 10 ]` → the numbers.
pub fn number_array(v: &str) -> std::result::Result<Vec<f64>, String> {
    array_elements(v)?.into_iter().map(number).collect()
}

/// `[ 1, 2 ]` → the integers, each parsed exactly by [`integer`].
pub fn integer_array<T: TryFrom<u64>>(v: &str) -> std::result::Result<Vec<T>, String> {
    array_elements(v)?.into_iter().map(integer).collect()
}

/// Splits `[ a, b, c ]` into trimmed elements. Elements cannot contain
/// commas (strings here are names and plans, not prose).
fn array_elements(v: &str) -> std::result::Result<Vec<&str>, String> {
    let inner = v
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("expected a [ ... ] array, got {v}"))?
        .trim();
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    Ok(inner.split(',').map(str::trim).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(text: &str) -> Result<Vec<(String, String)>> {
        let mut out = Vec::new();
        read(text, "test", |line| {
            out.push(match line {
                Line::Header(h) => (format!("[{h}]"), String::new()),
                Line::Pair { key, value } => (key.to_string(), value.to_string()),
            });
            Ok(())
        })?;
        Ok(out)
    }

    #[test]
    fn reader_yields_headers_and_pairs_without_comments() {
        let got = lines("# top\n[ a ]\nk = \"x # y\" # note\n\n  n=3\n").unwrap();
        assert_eq!(
            got,
            vec![
                ("[a]".into(), String::new()),
                ("k".into(), "\"x # y\"".into()),
                ("n".into(), "3".into()),
            ]
        );
    }

    #[test]
    fn errors_name_the_line_and_the_key_or_section() {
        let err = lines("a = 1\nno equals here\n").unwrap_err().to_string();
        assert!(
            err.contains("line 2") && err.contains("no equals here"),
            "{err}"
        );
        let err = lines("= 4\n").unwrap_err().to_string();
        assert!(
            err.contains("line 1") && err.contains("expected key = value"),
            "{err}"
        );
        let err = read("\n[s]\nk = 1\n", "test", |line| match line {
            Line::Header(_) => Ok(()),
            Line::Pair { .. } => Err("nope".into()),
        })
        .unwrap_err()
        .to_string();
        assert!(err.contains("line 3: k: nope"), "{err}");
        let err = read("[s]\n", "test", |_| Err("bad".into()))
            .unwrap_err()
            .to_string();
        assert!(err.contains("line 1: [s]: bad"), "{err}");
    }

    #[test]
    fn integers_reject_fractions_negatives_exponents_and_overflow() {
        assert_eq!(integer::<u64>("200"), Ok(200));
        assert_eq!(integer::<u32>("4294967295"), Ok(u32::MAX));
        for bad in ["200.9", "-1", "1e30", "", "x", "4294967296"] {
            assert!(integer::<u32>(bad).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn values_parse_strings_numbers_and_arrays() {
        assert_eq!(string("\"CG\""), Ok("CG".into()));
        assert!(string("CG").is_err());
        assert!(string("\"a\"b\"").is_err());
        assert_eq!(number("2.5"), Ok(2.5));
        assert!(number("two").is_err());
        assert_eq!(
            string_array("[ \"a\", \"b\" ]"),
            Ok(vec!["a".into(), "b".into()])
        );
        assert_eq!(string_array("[ ]"), Ok(vec![]));
        assert_eq!(number_array("[0, 5.0]"), Ok(vec![0.0, 5.0]));
        assert!(number_array("0, 5").is_err());
        assert!(number_array("[1,,2]").is_err());
        assert_eq!(integer_array::<u64>("[1, 2]"), Ok(vec![1, 2]));
        assert!(integer_array::<u64>("[1.0]").is_err());
    }
}
