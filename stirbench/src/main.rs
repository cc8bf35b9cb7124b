//! `stirbench` — the STIR benchmark: one command runs a workload for a
//! seed, checks its outputs against an independent oracle, and prints
//! every metric by name with its unit.
//!
//! ```text
//! stirbench --workload batch|serve_read|serve_durable --seed N
//!           --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with tracing off;
//! with `--trace 1` it records spans around the benchmark's calls into
//! each layer and reports per-layer self times and counts, the tracing
//! overhead, and an attribution of the end-to-end latency to layers.
//! The last stdout line is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`;
//! the line before it records the run's context (host cores, git rev,
//! seed, scale, stird flags, sample counts).

mod batch;
mod catalog;
mod net;
mod oracle;
mod serve;
mod speed;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !catalog::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {:?})",
            catalog::WORKLOADS
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Where the benchmark keeps its build products, caches and scratch
/// data: under the cargo target directory of the checkout.
pub fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("stirbench")
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Outputs matched the oracle and every reply matched its request.
    pub correct: bool,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// `(name, value)`; units come from the catalog.
    pub metrics: Vec<(String, f64)>,
    /// `(key, JSON value)` context of the run.
    pub context: Vec<(String, String)>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Records a context entry (the value is rendered JSON).
    pub fn context(&mut self, key: &str, json: impl Into<String>) {
        self.context.push((key.to_owned(), json.into()));
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of the measurement (non-finite
/// values, which no metric should produce, render as 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Removes scratch directories `<prefix>…-<pid>` left behind by runs
/// that were killed before their guards could clean up.
fn remove_stale_dirs(dir: &std::path::Path, prefix: &str) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        let pid = name.rsplit('-').next().and_then(|p| p.parse::<u32>().ok());
        if let (true, Some(pid)) = (name.starts_with(prefix), pid) {
            if !std::path::Path::new(&format!("/proc/{pid}")).exists() {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }
}

/// A JSON list of numbers, four decimals each.
pub fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    format!("[{}]", items.join(","))
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unavailable".to_owned())
}

/// Renders the final result line: exactly the catalog's metrics for the
/// mode, in catalog order. A per-layer metric of a layer the workload
/// does not run reads 0; a missing end-to-end metric is a bug.
fn render(args: &Args, out: &Outcome) -> Result<String, String> {
    let wanted = if args.trace {
        catalog::per_layer()
    } else {
        catalog::end_to_end()
    };
    let mut fields = Vec::new();
    for (name, unit) in &wanted {
        let value = out
            .metrics
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|m| m.1);
        let value = match value {
            Some(v) => v,
            None if args.trace => 0.0,
            None => return Err(format!("end-to-end metric `{name}` was not measured")),
        };
        fields.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(name),
            json_num(value),
            json_str(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        fields.join(",")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stirbench: {e}");
            eprintln!(
                "usage: stirbench --workload {} --seed N --seconds S --trace 0|1",
                catalog::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(work_dir()) {
        eprintln!("stirbench: cannot create {}: {e}", work_dir().display());
        return ExitCode::FAILURE;
    }
    // A daemon leaked by an earlier run would skew every later one.
    if let Err(e) = net::check_no_leftover_stird() {
        eprintln!("stirbench: {e}");
        return ExitCode::FAILURE;
    }
    remove_stale_dirs(&work_dir(), "");
    remove_stale_dirs(&work_dir().join("synth"), "tmp-");
    let result = match args.workload.as_str() {
        "batch" => batch::run(&args),
        "serve_read" => serve::run(&args, &serve::READ),
        "serve_durable" => serve::run(&args, &serve::DURABLE),
        _ => unreachable!("workload validated by parse_args"),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("stirbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    out.context("nproc", cores.to_string());
    out.context("git_rev", json_str(&git_rev()));
    out.context("workload", json_str(&args.workload));
    out.context("seed", args.seed.to_string());
    out.context("seconds", json_num(args.seconds));
    out.context("trace", args.trace.to_string());
    let context: Vec<String> = out
        .context
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    match render(&args, &out) {
        Ok(line) => {
            println!("{{\"context\":{{{}}}}}", context.join(","));
            println!("{line}");
            if out.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("stirbench: outputs did not match the oracle");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("stirbench: {e}");
            ExitCode::FAILURE
        }
    }
}
