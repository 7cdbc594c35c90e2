//! Self-contained HTML report assembly.
//!
//! [`HtmlReport`] stitches titled sections of pre-rendered HTML (stat
//! tiles, tables, the inline-SVG charts from [`crate::svg`]) into a single
//! document with **zero external references**: no scripts, no links, no
//! fonts, no images — the file can be mailed, archived, or opened from an
//! air-gapped machine and render identically. The palette ships as CSS
//! custom properties with a `prefers-color-scheme` dark block, so one
//! document serves both modes.

use crate::svg::escape;

/// Builder for one self-contained HTML report document.
#[derive(Debug, Clone, Default)]
pub struct HtmlReport {
    title: String,
    subtitle: String,
    sections: Vec<(String, String)>,
}

impl HtmlReport {
    /// A report with the given document title.
    pub fn new(title: &str) -> Self {
        HtmlReport {
            title: title.to_owned(),
            subtitle: String::new(),
            sections: Vec::new(),
        }
    }

    /// Sets the one-line subtitle under the main heading.
    pub fn set_subtitle(&mut self, subtitle: &str) {
        self.subtitle = subtitle.to_owned();
    }

    /// Appends a titled section of pre-rendered (trusted) HTML.
    pub fn add_section(&mut self, title: &str, body_html: String) {
        self.sections.push((title.to_owned(), body_html));
    }

    /// Number of sections added so far.
    pub fn section_count(&self) -> usize {
        self.sections.len()
    }

    /// Renders the complete document.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(16 * 1024);
        out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
        out.push_str(&format!("<title>{}</title>\n", escape(&self.title)));
        out.push_str("<style>\n");
        out.push_str(STYLE);
        out.push_str("</style>\n</head>\n<body class=\"viz-root\">\n");
        out.push_str(&format!("<h1>{}</h1>\n", escape(&self.title)));
        if !self.subtitle.is_empty() {
            out.push_str(&format!(
                "<p class=\"subtitle\">{}</p>\n",
                escape(&self.subtitle)
            ));
        }
        for (title, body) in &self.sections {
            out.push_str(&format!(
                "<section>\n<h2>{}</h2>\n{}\n</section>\n",
                escape(title),
                body
            ));
        }
        out.push_str("</body>\n</html>\n");
        out
    }
}

/// Renders a row of stat tiles: `(label, value)` pairs.
pub fn stat_tiles(tiles: &[(String, String)]) -> String {
    let mut out = String::from("<div class=\"tiles\">");
    for (label, value) in tiles {
        out.push_str(&format!(
            "<div class=\"tile\"><div class=\"tile-value\">{}</div><div class=\"tile-label\">{}</div></div>",
            escape(value),
            escape(label)
        ));
    }
    out.push_str("</div>");
    out
}

/// Renders an HTML table. Cell text is escaped.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::from("<table><thead><tr>");
    for h in headers {
        out.push_str(&format!("<th>{}</th>", escape(h)));
    }
    out.push_str("</tr></thead><tbody>");
    for row in rows {
        out.push_str("<tr>");
        for cell in row {
            out.push_str(&format!("<td>{}</td>", escape(cell)));
        }
        out.push_str("</tr>");
    }
    out.push_str("</tbody></table>");
    out
}

/// Renders an escaped paragraph.
pub fn paragraph(text: &str) -> String {
    format!("<p>{}</p>", escape(text))
}

/// True when `html` carries no external references: nothing fetched over
/// a URL, no local file links, and no scripting at all.
pub fn is_self_contained(html: &str) -> bool {
    const FORBIDDEN: [&str; 5] = ["http://", "https://", "file://", "<script", "<link"];
    FORBIDDEN.iter().all(|n| !html.contains(n)) && html.contains("</html>")
}

/// Document stylesheet: palette as CSS custom properties (light values,
/// dark overrides under `prefers-color-scheme`), system font stack, chart
/// classes consumed by [`crate::svg`].
const STYLE: &str = r#"
.viz-root {
  color-scheme: light;
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --text-muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --seq0: #cde2fb; --seq1: #9ec5f4; --seq2: #6da7ec; --seq3: #3987e5;
  --seq4: #2a78d6; --seq5: #256abf; --seq6: #184f95; --seq7: #0d366b;
  --border: rgba(11,11,11,0.10);
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    color-scheme: dark;
    --page: #0d0d0d; --surface-1: #1a1a19;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --border: rgba(255,255,255,0.10);
  }
}
body.viz-root {
  margin: 0 auto; padding: 24px; max-width: 880px;
  background: var(--page); color: var(--text-primary);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  font-size: 14px; line-height: 1.5;
}
h1 { font-size: 22px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 0 0 12px; }
.subtitle { color: var(--text-secondary); margin: 0 0 20px; }
section {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 20px; margin: 0 0 20px;
}
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile {
  border: 1px solid var(--border); border-radius: 8px;
  padding: 10px 16px; min-width: 110px;
}
.tile-value { font-size: 20px; font-weight: 600; }
.tile-label { color: var(--text-secondary); font-size: 12px; }
table { border-collapse: collapse; width: 100%; margin: 8px 0; }
th, td {
  text-align: left; padding: 4px 10px;
  border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums;
}
th { color: var(--text-secondary); font-weight: 600; }
ul.advice { margin: 8px 0; padding-left: 20px; }
ul.advice li { margin: 6px 0; }
.strategy {
  font-weight: 600; border: 1px solid var(--border);
  border-radius: 4px; padding: 0 6px;
}
svg.chart { display: block; margin: 8px 0; }
svg.chart text { font-family: system-ui, -apple-system, "Segoe UI", sans-serif; }
svg.chart .title { font-size: 13px; font-weight: 600; }
svg.chart .tick { font-size: 11px; }
svg.chart .ink { fill: var(--text-primary); }
svg.chart .muted { fill: var(--text-secondary); }
svg.chart .grid { stroke: var(--grid); stroke-width: 1; }
svg.chart .axis { stroke: var(--baseline); stroke-width: 1; }
svg.chart .line { stroke-width: 2; stroke-linejoin: round; }
svg.chart .s1 { stroke: var(--series-1); }
svg.chart .s2 { stroke: var(--series-2); }
svg.chart .s3 { stroke: var(--series-3); }
svg.chart .fill-s1 { fill: var(--series-1); }
svg.chart .fill-s2 { fill: var(--series-2); }
svg.chart .fill-s3 { fill: var(--series-3); }
svg.chart .seq0 { fill: var(--seq0); } svg.chart .seq1 { fill: var(--seq1); }
svg.chart .seq2 { fill: var(--seq2); } svg.chart .seq3 { fill: var(--seq3); }
svg.chart .seq4 { fill: var(--seq4); } svg.chart .seq5 { fill: var(--seq5); }
svg.chart .seq6 { fill: var(--seq6); } svg.chart .seq7 { fill: var(--seq7); }
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_titled_sections_in_order() {
        let mut r = HtmlReport::new("Campaign <report>");
        r.set_subtitle("quick budget");
        r.add_section("Overview", stat_tiles(&[("faults".into(), "3138".into())]));
        r.add_section("Advisor", paragraph("all good"));
        let html = r.render();
        assert!(html.contains("<title>Campaign &lt;report&gt;</title>"));
        assert!(html.find("Overview").unwrap() < html.find("Advisor").unwrap());
        assert!(html.contains("3138"));
        assert_eq!(r.section_count(), 2);
    }

    #[test]
    fn rendered_document_is_self_contained() {
        let mut r = HtmlReport::new("t");
        r.add_section("s", table(&["a"], &[vec!["1".into()]]));
        let html = r.render();
        assert!(is_self_contained(&html), "{html}");
    }

    #[test]
    fn self_containment_rejects_external_references() {
        for bad in [
            "<html><a href=\"http://x\"></a></html>",
            "<html><img src=\"https://x\"></html>",
            "<html><a href=\"file:///etc\"></a></html>",
            "<html><script>1</script></html>",
            "<html><link rel=\"stylesheet\"></html>",
            "<html>no closing tag",
        ] {
            assert!(!is_self_contained(bad), "{bad}");
        }
    }

    #[test]
    fn table_escapes_cells() {
        let html = table(&["<h>"], &[vec!["<&>".into()]]);
        assert!(html.contains("&lt;h&gt;"));
        assert!(html.contains("&lt;&amp;&gt;"));
    }
}
