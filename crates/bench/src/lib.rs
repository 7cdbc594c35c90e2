//! Shared rendering helpers for the `repro` binary: every table/figure of
//! the paper gets a generator in `soctest-core::experiments`; this crate
//! formats the results next to the paper's numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use soctest_core::experiments::{Fig3Point, Table1Row, Table2, Table3Row, Table4, Table5Row};

/// Renders Table 1 next to the paper's values.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 1 — input/output port size [bits]");
    let _ = writeln!(s, "{:<14} {:>8} {:>8}   paper", "component", "in", "out");
    let paper = [(54, 55), (53, 53), (45, 44)];
    for (row, (pi, po)) in rows.iter().zip(paper) {
        let _ = writeln!(
            s,
            "{:<14} {:>8} {:>8}   {}/{}",
            row.component, row.inputs, row.outputs, pi, po
        );
    }
    s
}

/// Renders Table 2 next to the paper's values.
pub fn render_table2(t: &Table2) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 2 — area overhead");
    let _ = writeln!(
        s,
        "{:<16} {:>14} {:>12}   paper",
        "component", "area [µm²]", "ovh [%]"
    );
    let _ = writeln!(
        s,
        "{:<16} {:>14.2} {:>12}   165,817.88 / —",
        "Serial LDPC", t.core_um2, "-"
    );
    let _ = writeln!(
        s,
        "{:<16} {:>14.2} {:>12.1}   22,481.63 / 13.5",
        "BIST engine",
        t.bist_um2,
        t.bist_overhead_percent()
    );
    let _ = writeln!(
        s,
        "{:<16} {:>14.2} {:>12.1}   4,566.94 / 2.8",
        "P1500 wrapper",
        t.wrapper_um2,
        t.wrapper_overhead_percent()
    );
    let _ = writeln!(
        s,
        "{:<16} {:>14.2} {:>12.1}   192,866.51 / 16.4",
        "TOTAL",
        t.core_um2 + t.bist_um2 + t.wrapper_um2,
        t.total_overhead_percent()
    );
    let _ = writeln!(
        s,
        "wrapper share of DfT logic: {:.0}%   (paper: 16%)",
        t.wrapper_share_percent()
    );
    s
}

/// Paper reference cells for Table 3 (SAF%, TDF%, SAF cycles, TDF cycles).
const TABLE3_PAPER: [[(f64, f64, u64, u64); 3]; 3] = [
    // BIT_NODE: BIST, Sequential, Full scan
    [
        (97.8, 95.6, 4096, 4096),
        (93.8, 84.3, 11_340, 16_580),
        (98.5, 91.2, 21_248, 39_168),
    ],
    // CHECK_NODE
    [
        (91.6, 90.7, 4096, 4096),
        (82.9, 76.4, 8374, 7844),
        (93.1, 87.1, 380_064, 866_272),
    ],
    // CONTROL_UNIT
    [
        (97.5, 95.3, 4096, 4096),
        (89.8, 84.0, 3060, 4860),
        (98.6, 91.3, 16_965, 27_405),
    ],
];

/// Renders Table 3 next to the paper's values.
pub fn render_table3(rows: &[Table3Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 3 — fault coverage");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(s, "{}", row.component);
        let cells = [&row.bist, &row.sequential, &row.full_scan];
        let names = ["BIST", "Sequential", "Full scan"];
        for (j, (cell, name)) in cells.iter().zip(names).enumerate() {
            let p = TABLE3_PAPER[i][j];
            let _ = writeln!(
                s,
                "  {:<11} faults {:>6}  SAF {:>5.1}% TDF {:>5.1}%  cycles {:>8}/{:>8}  wall {:>8.2?}   paper: SAF {:>4.1}% TDF {:>4.1}% cyc {}/{}",
                name,
                cell.faults,
                cell.saf_percent,
                cell.tdf_percent,
                cell.saf_cycles,
                cell.tdf_cycles,
                cell.wall,
                p.0,
                p.1,
                p.2,
                p.3
            );
        }
    }
    s
}

/// Renders Table 4 next to the paper's values.
pub fn render_table4(t: &Table4) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 4 — maximum frequency [MHz]");
    let rows = [
        ("Original design", t.original_mhz, 438.60),
        ("BIST engine", t.bist_mhz, 431.03),
        ("Sequential (wrapper)", t.wrapper_mhz, 434.14),
        ("Full scan", t.full_scan_mhz, 426.62),
    ];
    let _ = writeln!(
        s,
        "{:<22} {:>10} {:>10}  {:>9}",
        "variant", "fmax", "paper", "Δ vs orig"
    );
    for (name, mhz, paper) in rows {
        let _ = writeln!(
            s,
            "{:<22} {:>10.2} {:>10.2}  {:>8.2}%",
            name,
            mhz,
            paper,
            100.0 * (t.original_mhz - mhz) / t.original_mhz
        );
    }
    s
}

/// Paper reference for Table 5: (max, med) per source per module.
const TABLE5_PAPER: [[(usize, f64); 3]; 3] = [
    [(3, 1.2), (7, 4.4), (3, 1.6)],
    [(4, 1.9), (12, 6.9), (7, 2.7)],
    [(2, 1.3), (8, 5.1), (2, 1.3)],
];

/// Renders Table 5 next to the paper's values.
pub fn render_table5(rows: &[Table5Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 5 — equivalent fault classes (max / mean size)");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(s, "{}", row.component);
        let cells = [&row.bist, &row.sequential, &row.full_scan];
        let names = ["BIST", "Sequential", "Full scan"];
        for (j, (cell, name)) in cells.iter().zip(names).enumerate() {
            let p = TABLE5_PAPER[i][j];
            let _ = writeln!(
                s,
                "  {:<11} classes {:>5}  max {:>3}  mean {:>5.2}  singles {:>5}   paper: max {} med {}",
                name, cell.classes, cell.max_size, cell.mean_size, cell.singletons, p.0, p.1
            );
        }
    }
    s
}

/// Renders the Fig. 3 sweep.
pub fn render_fig3(points: &[Fig3Point]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fig. 3 — statement coverage / toggle activity vs patterns"
    );
    let _ = writeln!(
        s,
        "{:>10} {:>12} {:>12}",
        "patterns", "stmt [%]", "toggle [%]"
    );
    for p in points {
        let _ = writeln!(
            s,
            "{:>10} {:>12.1} {:>12.1}",
            p.patterns, p.statement_percent, p.toggle_percent
        );
    }
    s
}

/// Renders a Fig. 4 coverage curve.
pub fn render_fig4(module: &str, curve: &[(u64, f64)]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fig. 4 — stuck-at coverage vs applied patterns ({module})"
    );
    let _ = writeln!(s, "{:>10} {:>12}", "patterns", "FC [%]");
    for (n, c) in curve {
        let _ = writeln!(s, "{n:>10} {c:>12.1}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctest_core::casestudy::CaseStudy;
    use soctest_core::experiments;
    use soctest_tech::Library;

    #[test]
    fn renderers_produce_output() {
        let case = CaseStudy::paper().unwrap();
        let t1 = render_table1(&experiments::table1(&case));
        assert!(t1.contains("BIT_NODE"));
        let t2 = render_table2(&experiments::table2(&case, &Library::cmos_130nm()).unwrap());
        assert!(t2.contains("BIST engine"));
        let t4 = render_table4(&experiments::table4(&case, &Library::cmos_130nm()).unwrap());
        assert!(t4.contains("Full scan"));
    }
}
