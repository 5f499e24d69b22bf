//! CI validator for a `--metrics-out` series, through the library
//! reader ([`metrics_series_from_json`]): the series survives its
//! writer, and its Prometheus sibling is the library's rendering of its
//! last sample (whose exposition format `xct-telemetry`'s
//! `prometheus_text_follows_the_exposition_format` checks line by line
//! over every metric). A run document is checked by `petaxct report
//! --in FILE`, which reads it through `RunDocument::parse`.
//!
//! Usage: `metrics_check FILE.json [FILE.prom]`; the Prometheus path
//! defaults to `FILE.json.prom`, as the CLI writes it. Exits nonzero
//! with a diagnostic on the first fault.

#![forbid(unsafe_code)]

use xct_telemetry::{metrics_series_from_json, metrics_series_json, prometheus_text, Json};

fn fail(msg: &str) -> ! {
    eprintln!("metrics_check: {msg}");
    std::process::exit(1);
}

/// A metrics series: what the reader accepts, re-written and read
/// again, writes the same text (a non-finite gauge reads back as a NaN,
/// which equals nothing), and `prom` is the Prometheus rendering of its
/// last sample. Returns the number of metric values (CI asserts it is
/// non-trivial).
fn check_series(doc: &Json, prom: &str) -> usize {
    let samples = metrics_series_from_json(doc).unwrap_or_else(|e| fail(&e));
    let write = |samples: &[_]| metrics_series_json(samples).to_string();
    let again = metrics_series_from_json(&metrics_series_json(&samples));
    if again.as_deref().map(write) != Ok(write(&samples)) {
        fail("the series does not survive its writer");
    }
    if samples.last().map(prometheus_text).as_deref() != Some(prom) {
        fail("the Prometheus file is not the series' last sample");
    }
    (samples.iter().flat_map(|s| &s.tracks))
        .map(|t| t.counters.len() + t.gauges.len() + t.histograms.len())
        .sum()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = args
        .first()
        .unwrap_or_else(|| fail("usage: metrics_check FILE.json [FILE.prom]"));
    let prom_path = args
        .get(1)
        .cloned()
        .unwrap_or_else(|| format!("{json_path}.prom"));
    let json_text = std::fs::read_to_string(json_path)
        .unwrap_or_else(|e| fail(&format!("reading {json_path}: {e}")));
    let doc =
        Json::parse(&json_text).unwrap_or_else(|e| fail(&format!("JSON does not parse: {e}")));
    let prom_text = std::fs::read_to_string(&prom_path)
        .unwrap_or_else(|e| fail(&format!("reading {prom_path}: {e}")));
    let values = check_series(&doc, &prom_text);
    println!(
        "metrics_check: {json_path} ok ({values} metric values), {prom_path} ok ({} lines)",
        prom_text.lines().count()
    );
}
