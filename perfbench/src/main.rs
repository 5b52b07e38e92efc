//! Same-host benchmark of the GRAMER simulator and the `gramer-serve`
//! daemon. See `README.md` beside this crate for the workloads, metrics
//! and how to run it.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 \
//!           --root CHECKOUT --serve-bin PATH
//! perfbench gen WORKLOAD SEED DIR
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The process exits non-zero when
//! any correctness check fails.

mod host;
mod http;
mod inputs;
mod mining;
mod replay;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "mine-rmat-mc",
    "mine-ba-cf-memo",
    "mine-query-large",
    "serve-open-loop",
];

/// End-to-end metrics: name and unit. Printed by an untraced run.
pub const END_TO_END: [(&str, &str); 12] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("modeled_cycles", "cycles"),
    ("modeled_energy_uj", "uJ"),
    ("submit_p50_ms", "ms"),
    ("submit_p90_ms", "ms"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("healthz_p50_ms", "ms"),
    ("burst_jobs_per_s", "1/s"),
];

/// Per-layer metrics: name and unit. Printed by a traced run; a layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("graph.load_s", "s"),
    ("graph.load_mb_per_s", "MB/s"),
    ("preprocess.s", "s"),
    ("preprocess.on1_s", "s"),
    ("preprocess.reorder_s", "s"),
    ("mining.enum_s", "s"),
    ("mining.accesses", "count"),
    ("mining.enum_ns_per_access", "ns"),
    ("memsim.replay_s", "s"),
    ("memsim.isolated_ns_per_access", "ns"),
    ("memsim.in_sim_ns_per_access", "ns"),
    ("memsim.inflation", "ratio"),
    ("memsim.onchip_hit_ratio", "ratio"),
    ("memsim.dram_requests", "count"),
    ("memo.hit_ratio", "ratio"),
    ("memo.lookups", "count"),
    ("memo.sim_ratio", "ratio"),
    ("query.filter_s", "s"),
    ("query.admitted_ratio", "ratio"),
    ("query.probe_reject_ratio", "ratio"),
    ("query.extensions", "count"),
    ("events.residual_s", "s"),
    ("events.steps", "count"),
    ("report.serialize_us", "us"),
    ("report.bytes", "bytes"),
    ("http.connect_ms", "ms"),
    ("http.healthz_ms", "ms"),
    ("admission.submit_ms", "ms"),
    ("journal.submit_overhead_ms", "ms"),
    ("journal.wchar_kb_per_job", "KB"),
    ("journal.wchar_growth", "ratio"),
    ("journal.file_kb", "KB"),
    ("queue.wait_p50_ms", "ms"),
    ("queue.depth_max", "count"),
    ("queue.depth_growth", "count"),
    ("run.p50_ms", "ms"),
    ("session.hit_ratio", "ratio"),
    ("serve.threads_max", "count"),
    ("serve.queue_full_rejections", "count"),
    ("client.late_p50_ms", "ms"),
    ("client.late_max_ms", "ms"),
    ("trace.overhead_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.spans", "count"),
];

/// Everything a run needs to know.
pub struct Ctx {
    /// Root of the checkout.
    pub root: PathBuf,
    /// Scratch directory of this workload, inside the checkout.
    pub work: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The `gramer-serve` executable.
    pub serve_bin: PathBuf,
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `(check, passed)` for every correctness check made.
    pub checks: Vec<(String, bool)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric values by name (units come from the tables above).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra detail for the run record, as `(key, JSON value)`.
    pub detail: Vec<(String, String)>,
}

impl Outcome {
    /// Records a correctness check.
    pub fn check(&mut self, what: impl Into<String>, passed: bool) {
        self.checks.push((what.into(), passed));
    }

    /// Sets a metric.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a detail entry.
    pub fn detail(&mut self, key: &str, json: String) {
        self.detail.push((key.to_string(), json));
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// The result line: the metrics of the table that matches the run's
/// mode, each with its unit.
fn result_line(out: &Outcome, trace: bool) -> Result<String, String> {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut parts = Vec::new();
    for &(name, unit) in table {
        let value = match out.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric {name} is not finite: {v}")),
            None if trace => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        parts.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        parts.join(", ")
    ))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
    serve_bin: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        root: PathBuf::from("."),
        serve_bin: PathBuf::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => a.trace = value == "1",
            "--root" => a.root = PathBuf::from(value),
            "--serve-bin" => a.serve_bin = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (expected one of {})",
            a.workload,
            WORKLOADS.join(", ")
        ));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("gen") {
        return match args.as_slice() {
            [_, workload, seed, dir] => match seed.parse() {
                Ok(seed) => match inputs::generate_input(workload, seed, dir.as_ref()) {
                    Ok(()) => ExitCode::SUCCESS,
                    Err(e) => {
                        eprintln!("perfbench gen: {e}");
                        ExitCode::FAILURE
                    }
                },
                Err(e) => {
                    eprintln!("perfbench gen: bad seed {seed:?}: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("usage: perfbench gen WORKLOAD SEED DIR");
                ExitCode::from(2)
            }
        };
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = host::HostContext::capture(&a.root);
    let ctx = Ctx {
        work: a.root.join(".bench_work").join(&a.workload),
        root: a.root,
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        serve_bin: a.serve_bin,
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let result = if a.workload == "serve-open-loop" {
        serve::serve_open_loop(&ctx)
    } else {
        mining::run(&ctx, &a.workload)
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", a.workload);
            return ExitCode::FAILURE;
        }
    };
    for (what, ok) in &out.checks {
        if !ok {
            eprintln!("perfbench: check failed: {what}");
        }
    }
    let line = match result_line(&out, ctx.trace) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", a.workload);
            return ExitCode::FAILURE;
        }
    };
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \"checks\": {}, {}, \"result\": {line}}}\n",
        a.workload,
        ctx.seed,
        ctx.seconds,
        ctx.trace,
        host.to_json(),
        out.checks.len(),
        out.detail
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    let out_dir = ctx.root.join(".bench_out");
    let name = format!(
        "{}-seed{}-trace{}.json",
        a.workload,
        ctx.seed,
        u8::from(ctx.trace)
    );
    if std::fs::create_dir_all(&out_dir).is_ok() {
        let _ = std::fs::write(out_dir.join(name), &record);
    }
    let _ = std::fs::remove_dir_all(&ctx.work);
    println!("host {}", host.to_json());
    println!("{line}");
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_prints_every_metric_of_the_mode() {
        let mut out = Outcome::default();
        for (name, _) in END_TO_END {
            out.put(name, 1.5);
        }
        let line = result_line(&out, false).expect("line");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
        // Traced lines fill layers the workload did not exercise with 0.
        let traced = result_line(&out, true).expect("traced");
        assert!(traced.contains("\"trace.spans\": {\"value\": 0.0"));
        out.metrics.remove("wall_s");
        assert!(result_line(&out, false).is_err());
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut out = Outcome::default();
        out.check("ok", true);
        assert!(out.correct());
        out.check("bad", false);
        assert!(!out.correct());
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let names = |section: &str| -> Vec<(String, String)> {
            let start = doc.find(&format!("\"{section}\"")).expect("section");
            let body = &doc[start..];
            let body = &body[..body.find(']').expect("end of section")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let name = http::field(entry, "name").expect("name").to_string();
                    let unit = http::field(entry, "unit").unwrap_or("").to_string();
                    (name, unit)
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(&END_TO_END));
        assert_eq!(names("per_layer"), table(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn args_are_checked() {
        let ok: Vec<String> = [
            "--workload",
            "serve-open-loop",
            "--seed",
            "4",
            "--trace",
            "1",
        ]
        .map(String::from)
        .to_vec();
        let a = parse_args(&ok).expect("args");
        assert_eq!((a.seed, a.trace), (4, true));
        let bad: Vec<String> = ["--workload", "nope"].map(String::from).to_vec();
        assert!(parse_args(&bad).is_err());
    }
}
