//! Markdown rendering helpers for `EXPERIMENTS.md`.

/// Formats a percentage with sign, e.g. `+3.17` / `-13.98`.
pub fn fmt_pct(v: f64) -> String {
    format!("{v:+.2}")
}

/// Renders a markdown table from a header and rows.
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push('|');
    for h in header {
        out.push_str(&format!(" {h} |"));
    }
    out.push('\n');
    out.push('|');
    for _ in header {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push('|');
        for cell in row {
            out.push_str(&format!(" {cell} |"));
        }
        out.push('\n');
    }
    out
}

/// One `EXPERIMENTS.md` section: a title, a body (usually a table) and a
/// closing paragraph.
pub fn section(title: &str, body: &str, prose: &str) -> String {
    format!("\n## {title}\n\n{body}\n{prose}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formatting_is_signed() {
        assert_eq!(fmt_pct(3.168), "+3.17");
        assert_eq!(fmt_pct(-13.98), "-13.98");
        assert_eq!(fmt_pct(0.0), "+0.00");
    }

    #[test]
    fn table_renders_github_markdown() {
        let t = markdown_table(
            &["app", "x"],
            &[vec!["CG".into(), "1".into()], vec!["EP".into(), "2".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines[0], "| app | x |");
        assert_eq!(lines[1], "|---|---|");
        assert_eq!(lines[2], "| CG | 1 |");
        assert_eq!(lines.len(), 4);
    }
}
