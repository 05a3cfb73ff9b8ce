//! `obs-report` — cluster-health dashboard, slow-query profile, and
//! Chrome trace export over a fixed-seed workload.
//!
//! ```text
//! obs-report [--scale F] [--shards N] [--seed S]
//!            [--queries N]        queries per approach (default 40)
//!            [--threshold-us N]   profiler threshold (default 0: profile all)
//!            [--clustered]        hot-window workload (default: uniform)
//!            [--json PATH]        write the machine-readable report
//!            [--trace PATH]       write the slowest query's Chrome trace
//!            [--dashboard PATH]   write the dashboard text
//! ```
//!
//! Exits non-zero if the slowest query's trace fails span-nesting
//! validation or does not round-trip through the `serde_json` shim —
//! CI uses that as the trace-format gate.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use sts_bench::obsreport::{verify_chrome_trace, ObsReport, ObsReportConfig};
use sts_bench::{save_json_to, HarnessConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (harness, rest) = HarnessConfig::from_args(&args);
    let mut cfg = ObsReportConfig {
        clustered: false,
        ..Default::default()
    };
    let mut json_path: Option<PathBuf> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut dashboard_path: Option<PathBuf> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut grab = |name: &str| -> Option<String> {
            if a == name {
                it.next().cloned()
            } else {
                a.strip_prefix(&format!("{name}=")).map(str::to_string)
            }
        };
        if let Some(v) = grab("--queries") {
            cfg.queries = v.parse().expect("--queries takes an integer");
        } else if let Some(v) = grab("--threshold-us") {
            let us: u64 = v.parse().expect("--threshold-us takes an integer");
            cfg.threshold = Duration::from_micros(us);
        } else if a == "--clustered" {
            cfg.clustered = true;
        } else if let Some(v) = grab("--json") {
            json_path = Some(PathBuf::from(v));
        } else if let Some(v) = grab("--trace") {
            trace_path = Some(PathBuf::from(v));
        } else if let Some(v) = grab("--dashboard") {
            dashboard_path = Some(PathBuf::from(v));
        } else {
            eprintln!("obs-report: unknown argument `{a}`");
            return ExitCode::FAILURE;
        }
    }

    let report = ObsReport::collect(&cfg, &harness);
    let dashboard = report.dashboard();
    print!("{dashboard}");

    if let Some(path) = &json_path {
        if let Err(e) = save_json_to(path, &report.to_json()) {
            eprintln!("obs-report: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("report JSON -> {}", path.display());
    }
    if let Some(path) = &dashboard_path {
        if let Err(e) = write_text(path, &dashboard) {
            eprintln!("obs-report: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("dashboard   -> {}", path.display());
    }

    match report.slowest() {
        Some((a, entry)) => {
            let trace = entry.trace();
            if let Err(e) = trace.validate() {
                eprintln!("obs-report: slowest query's trace is malformed: {e}");
                return ExitCode::FAILURE;
            }
            let chrome = trace.to_chrome_json();
            if let Err(e) = verify_chrome_trace(&chrome, trace.len()) {
                eprintln!("obs-report: chrome trace failed the round-trip gate: {e}");
                return ExitCode::FAILURE;
            }
            if let Some(path) = &trace_path {
                if let Err(e) = write_text(path, &chrome) {
                    eprintln!("obs-report: writing {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                println!(
                    "trace       -> {} (op {} on {}, {} spans; load in chrome://tracing or ui.perfetto.dev)",
                    path.display(),
                    entry.op,
                    a.approach.name(),
                    trace.len()
                );
            }
        }
        None => {
            println!(
                "no query exceeded the {} µs threshold; no trace exported",
                cfg.threshold.as_micros()
            );
            if trace_path.is_some() {
                eprintln!("obs-report: --trace requested but the profile is empty");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn write_text(path: &std::path::Path, text: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let body = if text.ends_with('\n') {
        text.to_string()
    } else {
        format!("{text}\n")
    };
    std::fs::write(path, body)
}
