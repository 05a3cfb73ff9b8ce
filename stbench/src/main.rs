//! `stbench` — the caller-wall benchmark of the spatio-temporal store.
//!
//! ```text
//! stbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--json FILE] [--out DIR]
//! stbench --all             [same flags]        every workload, one after the other
//! stbench --repeat N [--workload <name>|--all] [--json SET]   N fresh processes each, seeds seed..seed+N
//! stbench --compare A.json B.json               two `--repeat` sets against the bounds
//! stbench --smoke                               all workloads, small corpus, oracle on, seconds
//! ```
//!
//! A run prints every metric by name with its unit and, last, one JSON
//! line `{"correct","attempted","failed","metrics"}`. Exit code 0 means
//! every result matched the full-scan oracle; 1 a mismatch, failed
//! write or out-of-bound comparison; 2 a usage error; 3 that the
//! generated inputs no longer match `baseline.json`.

mod data;
mod layers;
mod oracle;
mod report;
mod shapes;
mod stats;
mod trace;
mod util;
mod workloads;

use serde::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Options, Outcome, DEFAULT_SEED, WORKLOADS};

/// Input fingerprints and first baseline numbers, recorded at the
/// default seed.
const BASELINE: &str = include_str!("../baseline.json");

struct Cli {
    workloads: Vec<&'static str>,
    opts: Options,
    json: Option<PathBuf>,
    out: PathBuf,
    repeat: Option<usize>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn usage(msg: &str) {
    eprintln!("stbench: {msg}");
    eprintln!(
        "usage: stbench (--workload <name> | --all | --smoke) [--seed N] [--seconds S] \
         [--trace 0|1] [--json FILE] [--out DIR] [--repeat N]\n       \
         stbench --compare A.json B.json\nworkloads:"
    );
    for (name, why) in WORKLOADS {
        eprintln!("  {name:<22} {why}");
    }
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        opts: Options::default(),
        json: None,
        out: PathBuf::from("stbench-out"),
        repeat: None,
        compare: None,
    };
    let all = || WORKLOADS.iter().map(|(n, _)| *n).collect::<Vec<_>>();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("`{flag}` needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS
                    .iter()
                    .find(|(n, _)| *n == name)
                    .ok_or_else(|| format!("unknown workload `{name}`"))?;
                cli.workloads.push(known.0);
            }
            "--all" => cli.workloads = all(),
            "--smoke" => {
                cli.opts.smoke = true;
                cli.opts.seconds = 0.3;
                cli.workloads = all();
            }
            "--seed" => {
                cli.opts.seed = value()?
                    .parse()
                    .map_err(|_| "`--seed` takes an unsigned integer")?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "`--seconds` takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("`--seconds` must be in (0, 600]".into());
                }
                cli.opts.seconds = s;
            }
            "--trace" => {
                cli.opts.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("`--trace` takes 0 or 1".into()),
                };
            }
            "--json" => cli.json = Some(PathBuf::from(value()?)),
            "--out" => cli.out = PathBuf::from(value()?),
            "--repeat" => {
                let n: usize = value()?.parse().map_err(|_| "`--repeat` takes a count")?;
                if n < 2 {
                    return Err("`--repeat` needs at least 2 runs".into());
                }
                cli.repeat = Some(n);
            }
            "--compare" => {
                let a = PathBuf::from(value()?);
                let b = PathBuf::from(value()?);
                cli.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.compare.is_none() && cli.workloads.is_empty() {
        return Err("name a workload, or pass --all, --smoke or --compare".into());
    }
    Ok(cli)
}

fn write_json(path: &Path, json: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(json).expect("the shim's serializer is infallible");
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The generated inputs must be the ones the recorded baseline was
/// measured on — the data set on every seed, the operations at the
/// default seed — otherwise the numbers would be reported under names
/// that no longer mean the same thing.
fn inputs_changed(o: &Outcome) -> Option<String> {
    let base = serde_json::from_str(BASELINE).expect("baseline.json parses");
    let hex = |j: Option<&Json>| j.and_then(Json::as_str).map(str::to_string);
    let recorded_data = hex(base.get("data_fingerprint"))?;
    let data = format!("{:016x}", o.data_fingerprint);
    if data != recorded_data {
        return Some(format!(
            "inputs_changed {}: data {recorded_data} -> {data}",
            o.workload
        ));
    }
    if o.seed != DEFAULT_SEED {
        return None;
    }
    let w = base.get("workloads")?.get(o.workload)?;
    let recorded_ops = hex(w.get("ops_fingerprint"))?;
    let recorded_results = w.get("results_total").and_then(Json::as_u64)?;
    let ops = format!("{:016x}", o.ops_fingerprint);
    (ops != recorded_ops || o.results_total != recorded_results).then(|| {
        format!(
            "inputs_changed {}: ops {recorded_ops} -> {ops}, results_total {recorded_results} -> {}",
            o.workload, o.results_total
        )
    })
}

/// Run one workload in this process and print it. Returns the exit code
/// and the run document.
fn run_one(name: &str, cli: &Cli) -> Result<(u8, Json), String> {
    let o = workloads::run(name, &cli.opts)?;
    if !cli.opts.smoke {
        if let Some(msg) = inputs_changed(&o) {
            println!("{msg}");
            return Ok((3, Json::Null));
        }
    }
    let values = if cli.opts.trace {
        report::per_layer(&o)
    } else {
        report::end_to_end(&o)
    };
    print!("{}", report::describe(&o, cli.opts.seconds, &values));
    if let Some(probe) = &o.probe {
        print!("{}", probe.tracer.self_time_table());
        let path = cli.out.join(format!("trace_{}.json", o.workload));
        write_json(&path, &probe.tracer.chrome_json())?;
        println!("trace written to {}", path.display());
    }
    // A full-length untraced run must produce every end-to-end metric.
    let complete = cli.opts.smoke || cli.opts.trace || values.iter().all(|(_, v)| v.is_some());
    if !complete {
        println!("incomplete: too few samples for a reported percentile");
    }
    let doc = report::run_json(&o, cli.opts.seconds, cli.opts.trace, &values);
    println!("{}", report::result_line(&o, &values));
    Ok((u8::from(o.failed > 0 || !complete), doc))
}

/// `--repeat N`: N fresh child processes per workload, seeds
/// `seed..seed+N`, medians and quartiles per end-to-end metric.
fn repeat(n: usize, cli: &Cli) -> Result<u8, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut code = 0;
    let mut set = Vec::new();
    for &w in &cli.workloads {
        let mut columns: Vec<(String, Vec<f64>)> = Vec::new();
        for i in 0..n as u64 {
            let out = Command::new(&exe)
                .args(["--workload", w])
                .args(["--seed", &(cli.opts.seed + i).to_string()])
                .args(["--seconds", &cli.opts.seconds.to_string()])
                .args(["--trace", if cli.opts.trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&cli.out)
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or("");
            let parsed = serde_json::from_str(line)
                .map_err(|e| format!("{w} run {i}: no result line ({e}); exit {}", out.status))?;
            if !out.status.success() || parsed.get("correct").and_then(Json::as_bool) != Some(true)
            {
                eprintln!("{w} run {i}: incorrect or failed ({})", out.status);
                code = 1;
            }
            let metrics = parsed
                .get("metrics")
                .and_then(Json::as_object)
                .ok_or_else(|| format!("{w} run {i}: result line has no metrics"))?;
            for (m, cell) in metrics {
                let v = cell
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{w}/{m}: no value"))?;
                match columns.iter_mut().find(|(name, _)| name == m) {
                    Some((_, col)) => col.push(v),
                    None => columns.push((m.clone(), vec![v])),
                }
            }
            eprintln!("{w}: run {}/{n} done", i + 1);
        }
        println!(
            "{w}: {n} runs, seeds {}..{}",
            cli.opts.seed,
            cli.opts.seed + n as u64
        );
        println!(
            "  {:<36} {:>14} {:>14} {:>14} {:>9}",
            "metric", "median", "q1", "q3", "iqr_%"
        );
        let mut cells = Vec::new();
        for (m, col) in &columns {
            let [q1, q2, q3] = stats::quartiles(col).expect("--repeat runs at least twice");
            // The spread the bounds are derived from: IQR over median.
            let spread = (q2 != 0.0).then(|| (q3 - q1) / q2.abs());
            println!(
                "  {m:<36} {q2:>14.4} {q1:>14.4} {q3:>14.4} {:>9}",
                spread.map_or_else(|| "n/a".into(), |s| format!("{:.2}", 100.0 * s))
            );
            cells.push((
                m.clone(),
                Json::Obj(vec![
                    ("median".into(), Json::Float(q2)),
                    ("q1".into(), Json::Float(q1)),
                    ("q3".into(), Json::Float(q3)),
                    ("iqr_share".into(), spread.map_or(Json::Null, Json::Float)),
                    (
                        "values".into(),
                        Json::Arr(col.iter().map(|&v| Json::Float(v)).collect()),
                    ),
                ]),
            ));
        }
        set.push((w.to_string(), Json::Obj(cells)));
    }
    if let Some(path) = &cli.json {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::Str("stbench-set/1".into())),
            ("runs".into(), Json::UInt(n as u64)),
            ("first_seed".into(), Json::UInt(cli.opts.seed)),
            ("seconds".into(), Json::Float(cli.opts.seconds)),
            ("nproc".into(), Json::UInt(report::nproc() as u64)),
            ("workloads".into(), Json::Obj(set)),
        ]);
        write_json(path, &doc)?;
    }
    Ok(code)
}

fn real_main() -> Result<u8, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            usage(&msg);
            return Ok(2);
        }
    };
    if let Some((a, b)) = &cli.compare {
        let (a, b) = (
            report::set_medians(&read_json(a)?)?,
            report::set_medians(&read_json(b)?)?,
        );
        let (table, ok) = report::compare(&a, &b);
        print!("{table}");
        return Ok(u8::from(!ok));
    }
    if let Some(n) = cli.repeat {
        return repeat(n, &cli);
    }
    let mut code = 0;
    let mut docs = Vec::new();
    for &w in &cli.workloads {
        let (c, doc) = run_one(w, &cli)?;
        code = code.max(c);
        docs.push(doc);
    }
    if let Some(path) = &cli.json {
        let doc = if docs.len() == 1 {
            docs.pop().expect("one document")
        } else {
            Json::Arr(docs)
        };
        write_json(path, &doc)?;
    }
    Ok(code)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => ExitCode::from(code),
        Err(msg) => {
            eprintln!("stbench: {msg}");
            ExitCode::from(1)
        }
    }
}
