//! Shared utilities of the experiment harness: command-line options, ASCII table
//! rendering, timing helpers and JSON output.
//!
//! Each binary in `src/bin/` runs as `cargo run -p dcs-bench --release --bin <name>`;
//! its module docs give its options.  Ten regenerate a table or figure of the paper,
//! and one is the CI gate:
//!
//! | Binary | Produces |
//! |---|---|
//! | `table02_stats` | Table II: statistics of the difference graphs of every dataset and setting |
//! | `table03_04_coauthor` | Tables III and IV: emerging and disappearing co-author groups, per setting, direction and measure |
//! | `table05_06_topics` | Tables V and VI: the top-5 emerging and disappearing topics, and each single period's top 5 |
//! | `table07_efficiency` | Table VII: running time of NewSEA, SEACD+Refine and SEA+Refine, and SEA's expansion errors |
//! | `table08_09_egoscan` | Tables VIII and IX: the DCS algorithms against the EgoScan baseline |
//! | `table10_11_wiki` | Tables X and XI: consistent and conflicting editor groups on the Wikipedia-style data |
//! | `table12_13_douban` | Tables XII and XIII: the Douban-style social and interest data, both directions and both measures |
//! | `table14_large` | Table XIV: DCSGA on the large DBLP-C and Actor graphs |
//! | `fig02_density_sweep` | Fig. 2: SEACD+Refine's speed-up over SEA+Refine and SEA's expansion-error rate against the density `m+/n` of `G_{D+}` |
//! | `fig03_clique_counts` | Fig. 3: the positive-clique census of the Douban-style difference graphs |
//! | `solver_hotpath` | `BENCH_hotpath.json`; with `--smoke`, fails unless steady-state re-mines and top-k rounds allocate at most half of a from-scratch solve and every gated allocation count is within 10% of `--baseline`; `--large` adds 4-thread bit-identity, `--load` the ≥10× pack-over-text load gate; its closing timing sections fail, in every mode, unless the delta snapshot beats a scratch rebuild, and with `--smoke` unless the engine wrapper and the enabled tracer cost within 5% and durable observes keep half of ephemeral throughput |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

pub use dcs_datasets::Scale;

/// Options shared by every experiment binary (`--scale tiny|default|full`,
/// `--seed <u64>`, `--json`).
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Dataset scale preset.
    pub scale: Scale,
    /// RNG seed override (generators add their own offsets).
    pub seed: u64,
    /// Emit machine-readable JSON after the human-readable tables.
    pub json: bool,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            scale: Scale::Default,
            seed: 42,
            json: false,
        }
    }
}

impl ExpOptions {
    /// Parses the options from `std::env::args`.  Unknown arguments abort with a usage
    /// message.
    pub fn from_args() -> Self {
        let mut options = ExpOptions::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    i += 1;
                    let value = args.get(i).map(String::as_str).unwrap_or("");
                    options.scale = Scale::parse(value).unwrap_or_else(|| {
                        eprintln!("unknown scale {value:?}; use tiny, default or full");
                        std::process::exit(2);
                    });
                }
                "--seed" => {
                    i += 1;
                    options.seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--seed expects an integer");
                        std::process::exit(2);
                    });
                }
                "--json" => options.json = true,
                "--help" | "-h" => {
                    println!("usage: <experiment> [--scale tiny|default|full] [--seed N] [--json]");
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown argument {other:?}");
                    std::process::exit(2);
                }
            }
            i += 1;
        }
        options
    }
}

/// Times a closure, returning its result and the wall-clock duration.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Formats a duration in seconds with millisecond resolution (the unit of Table VII).
pub fn seconds(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// A simple fixed-width ASCII table used by every experiment binary.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (cells are stringified by the caller).
    pub fn add_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let columns = self
            .header
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; columns];
        for (i, cell) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                line.push_str(&format!("{cell:<width$}  ", width = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Formats a float with 3 decimal places (the precision of the paper's tables).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 2 decimal places.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a boolean as Yes/No (the paper's "Positive Clique?" columns).
pub fn yes_no(b: bool) -> String {
    if b {
        "Yes".to_string()
    } else {
        "No".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new("demo", &["a", "long-header", "c"]);
        t.add_row(vec!["1".into(), "2".into(), "3".into()]);
        t.add_row(vec!["row".into(), "x".into(), "yz".into()]);
        let text = t.render();
        assert!(text.contains("== demo =="));
        assert!(text.contains("long-header"));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f2(1.23456), "1.23");
        assert_eq!(yes_no(true), "Yes");
        assert_eq!(yes_no(false), "No");
        assert_eq!(seconds(Duration::from_millis(1500)), "1.500");
    }

    #[test]
    fn timing_returns_value() {
        let (v, d) = time(|| 2 + 2);
        assert_eq!(v, 4);
        assert!(d.as_secs_f64() < 1.0);
    }

    #[test]
    fn default_options() {
        let o = ExpOptions::default();
        assert_eq!(o.scale, Scale::Default);
        assert!(!o.json);
    }
}
