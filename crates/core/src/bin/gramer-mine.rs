//! `gramer-mine` — run a graph mining workload through the GRAMER
//! accelerator simulator from the command line.
//!
//! ```text
//! gramer-mine <edge-list | --demo | --artifact PATH>
//!             --app <3-cf|4-cf|5-cf|3-mc|4-mc|fsm:<t>>[,<app>...]
//!             [--query SPEC|@FILE]
//!             [--cache DIR] [--pus N] [--slots N] [--tau F] [--budget-frac F]
//!             [--lambda F] [--no-steal] [--sim-threads N]
//!             [--memo on|off|BYTES] [--adaptive-lambda] [--repin] [--counts]
//!             [--json PATH] [--metrics-out PATH] [--metrics-summary]
//!             [--metrics-window N]
//! ```
//!
//! The edge list is SNAP-style (`u v` per line, `#` comments). `--demo`
//! generates a power-law graph instead of reading a file.
//!
//! `--artifact PATH` starts from a preprocessed `.gra` artifact (built
//! with `gramer-artifact build`; spec in `docs/FORMAT.md`): the file is
//! memory-mapped, digest-checked and mined directly — no edge-list
//! parsing, no ON1 pass, no reordering. Reports are bit-identical to the
//! edge-list path on the same graph and configuration.
//!
//! `--cache DIR` memoizes preprocessing in `DIR` as `.gra` artifacts
//! keyed by (input digest, τ/budget knobs): the first run over an input
//! pays the full pipeline and stores the result, subsequent runs load
//! the artifact instead (for file inputs a warm hit skips even the
//! parsing — only the raw bytes are hashed). The cache is strictly an
//! accelerator: if `DIR` cannot be created or an entry cannot be
//! written (read-only filesystem, quota, a file squatting on the path),
//! the run warns once on stderr and continues uncached with exit
//! status 0 — cache trouble never fails a mining run.
//!
//! `--json PATH` writes the full `RunReport` JSON document (stable key
//! order, the exact serialization `gramer-serve` returns from
//! `GET /jobs/<id>/report`) to `PATH`, or stdout for `-`.
//!
//! `--app` accepts a comma-separated list; each application then runs as
//! an independent *simulation cell* over the same preprocessed graph, and
//! `--sim-threads N` (or the `GRAMER_SIM_THREADS` environment variable;
//! default 1) runs up to `N` cells on parallel host threads. Results are
//! reported in list order and every cell is bit-identical to a standalone
//! single-app run — parallelism is a host-side throughput knob only (see
//! `gramer::shard`). With a multi-app list `--json` writes a JSON *array*
//! of `RunReport` documents (list order), and the `--metrics-*` flags are
//! rejected: telemetry attaches to exactly one simulation.
//!
//! `--memo on` (or `--memo BYTES` for an explicit byte budget) enables the
//! recurrent-pattern memo: a byte-budgeted LRU table that caches pairwise
//! connectivity-probe outcomes so repeated sub-pattern checks skip their
//! memory accesses, at a modeled lookup cost. Unlike the host-side
//! `--sim-threads` knob above this is a *model* change: cycles, memory
//! statistics and energy move (that is the point), while mined
//! embeddings and pattern counts stay bit-identical. The default `--memo off` is the exact reference
//! path. `--adaptive-lambda` ratchets the locality-preserved policy's λ
//! online when the windowed hit rate trends down; `--repin` rebuilds the
//! scratchpad pin set from observed access frequencies when the ON1
//! ranking goes stale mid-run. Both are also model changes with
//! bit-identical mining results.
//!
//! `--query SPEC|@FILE` runs a candidate-filtered labeled subgraph query
//! instead of a named application (mutually exclusive with `--app`).
//! `SPEC` is the compact form `labels:edges` — e.g. `1,2,1:0-1,1-2` for a
//! label-1/2/1 path — and `@FILE` reads the line-oriented text form
//! (`v <id> <label>` / `e <u> <v>`, `#` comments; see
//! `docs/EXPERIMENTS.md`). The query is matched through the LDF → NLF →
//! GQL candidate pipeline: vertices that cannot appear in any match are
//! pruned before enumeration, every examined extension pays one modeled
//! filter probe, and the report gains a gated `query` stats block
//! (admitted/probes/rejects). Mined matches are bit-identical to the
//! unfiltered brute-force run of the same query (`tests/query.rs`
//! asserts it); cycles and energy reflect the pruned space plus the
//! honest probe cost.
//!
//! `--metrics-out PATH` records cycle-windowed telemetry during the run
//! (see `gramer::telemetry`) and writes the schema-versioned JSON document
//! to `PATH` (`-` for stdout). `--metrics-summary` prints a human-readable
//! rollup instead of (or in addition to) the file; either flag enables
//! recording. `--metrics-window N` sets the base window width in cycles
//! (default 1024). Telemetry never changes simulated results.

use gramer::telemetry::{Telemetry, TelemetryConfig};
use gramer::{preprocess, GramerConfig, MemoryBudget, PreprocessCache, Preprocessed, Simulator};
use gramer_graph::{artifact, generate, io, GraphArtifact};
use gramer_mining::apps::{CliqueFinding, FrequentSubgraphMining, MotifCounting};
use gramer_mining::{EcmApp, MiningResult, QueryApp, QueryGraph};
use std::process::ExitCode;
use std::time::Instant;

struct Options {
    input: Option<String>,
    demo: bool,
    artifact: Option<String>,
    cache: Option<String>,
    app: String,
    config: GramerConfig,
    show_counts: bool,
    json_out: Option<String>,
    metrics_out: Option<String>,
    metrics_summary: bool,
    metrics_window: Option<u64>,
}

impl Options {
    fn metrics_enabled(&self) -> bool {
        self.metrics_out.is_some() || self.metrics_summary
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: gramer-mine <edge-list | --demo | --artifact PATH> \
         --app <3-cf|4-cf|5-cf|3-mc|4-mc|fsm:<t>>[,<app>...] \\\n         [--query SPEC|@FILE] \
         [--cache DIR] \
         [--pus N] [--slots N] [--tau F] [--budget-frac F] [--lambda F] [--no-steal] \\\n         [--sim-threads N] [--memo on|off|BYTES] [--adaptive-lambda] [--repin] [--counts] \\\n         [--json PATH] [--metrics-out PATH] [--metrics-summary] [--metrics-window N]"
    );
    std::process::exit(2)
}

fn parse_args() -> Options {
    let mut sim_threads: Option<usize> = None;
    let mut app_set = false;
    let mut query: Option<String> = None;
    let mut opts = Options {
        input: None,
        demo: false,
        artifact: None,
        cache: None,
        app: "3-cf".to_string(),
        config: GramerConfig::default(),
        show_counts: false,
        json_out: None,
        metrics_out: None,
        metrics_summary: false,
        metrics_window: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match arg.as_str() {
            "--demo" => opts.demo = true,
            "--artifact" => opts.artifact = Some(value("--artifact")),
            "--cache" => opts.cache = Some(value("--cache")),
            "--app" => {
                opts.app = value("--app");
                app_set = true
            }
            "--query" => query = Some(value("--query")),
            "--pus" => opts.config.num_pus = parse_num(&value("--pus")),
            "--slots" => opts.config.slots_per_pu = parse_num(&value("--slots")),
            "--tau" => opts.config.tau = Some(parse_float(&value("--tau"))),
            "--budget-frac" => {
                opts.config.budget = MemoryBudget::Fraction(parse_float(&value("--budget-frac")))
            }
            "--lambda" => opts.config.lambda = parse_float(&value("--lambda")),
            "--no-steal" => opts.config.work_stealing = false,
            "--sim-threads" => sim_threads = Some(parse_num(&value("--sim-threads"))),
            "--memo" => {
                opts.config.memo = value("--memo").parse().unwrap_or_else(|e: String| {
                    eprintln!("{e}");
                    usage()
                })
            }
            "--adaptive-lambda" => opts.config.adaptive_lambda = true,
            "--repin" => opts.config.repin = true,
            "--counts" => opts.show_counts = true,
            "--json" => opts.json_out = Some(value("--json")),
            "--metrics-out" => opts.metrics_out = Some(value("--metrics-out")),
            "--metrics-summary" => opts.metrics_summary = true,
            "--metrics-window" => {
                let n = parse_num(&value("--metrics-window"));
                if n == 0 {
                    eprintln!("--metrics-window must be a positive integer");
                    usage()
                }
                opts.metrics_window = Some(n as u64)
            }
            "--help" | "-h" => usage(),
            path if !path.starts_with('-') => opts.input = Some(path.to_string()),
            other => {
                eprintln!("unknown option: {other}");
                usage()
            }
        }
    }
    let sources = opts.input.is_some() as u32 + opts.demo as u32 + opts.artifact.is_some() as u32;
    if sources != 1 {
        eprintln!("exactly one of <edge-list>, --demo, --artifact is required");
        usage()
    }
    if opts.artifact.is_some() && opts.cache.is_some() {
        eprintln!("--cache is meaningless with --artifact (the artifact IS the cached result)");
        usage()
    }
    if let Some(spec) = query {
        if app_set {
            eprintln!("--query and --app are mutually exclusive");
            usage()
        }
        // `@FILE` reads the line-oriented text form; anything else is the
        // compact spec. Parse now so a malformed query fails before any
        // graph work, and normalize to the compact form for `run_spec`.
        let text = if let Some(path) = spec.strip_prefix('@') {
            std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read query file {path}: {e}");
                usage()
            })
        } else {
            spec
        };
        let parsed = QueryGraph::parse(&text).unwrap_or_else(|e| {
            eprintln!("bad query: {e}");
            usage()
        });
        opts.app = format!("query:{parsed}");
    }
    if opts.app.contains("query:") && !opts.app.starts_with("query:") {
        eprintln!("query specs cannot appear in a multi-application --app list");
        usage()
    }
    let multi_app = opts.app.contains(',') && !opts.app.starts_with("query:");
    if multi_app && opts.metrics_enabled() {
        eprintln!("--metrics-* flags cannot be combined with a multi-application --app list");
        usage()
    }
    opts.config.sim_threads = gramer::shard::resolve_sim_threads(sim_threads).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
    opts
}

fn parse_num(s: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("expected an integer, got {s:?}");
        usage()
    })
}

fn parse_float(s: &str) -> f64 {
    s.parse().unwrap_or_else(|_| {
        eprintln!("expected a number, got {s:?}");
        usage()
    })
}

/// Resolves a [`Preprocessed`] graph from whichever source the command
/// line selected: a `.gra` artifact, a cached preprocessing run, or the
/// full parse + preprocess pipeline. Emits one timing line to stderr so
/// cache hits and artifact loads are visible (EXPERIMENTS.md quotes
/// them).
fn resolve_preprocessed(opts: &Options) -> Result<Preprocessed, String> {
    if let Some(path) = opts.artifact.as_deref() {
        let t0 = Instant::now();
        let art = GraphArtifact::open(path).map_err(|e| format!("cannot load {path}: {e}"))?;
        let pre = Preprocessed::from_artifact(&art, &opts.config).map_err(|e| e.to_string())?;
        eprintln!(
            "artifact {path}: loaded in {:.1} ms ({}, digest {:#018x})",
            t0.elapsed().as_secs_f64() * 1e3,
            if art.is_mapped() { "mmap" } else { "copied" },
            art.payload_digest()
        );
        return Ok(pre);
    }

    // The cache is best-effort: an unusable directory warns and the run
    // proceeds uncached rather than failing (satellite of the service
    // work — a read-only cache volume must not break mining).
    let cache = opts.cache.as_deref().and_then(|dir| {
        PreprocessCache::new(dir)
            .map_err(|e| {
                eprintln!("warning: preprocessing cache disabled ({e}); continuing uncached");
            })
            .ok()
    });
    let t0 = Instant::now();

    if opts.demo {
        let graph = generate::chung_lu(10_000, 40_000, 2.4, 1);
        if let Some(cache) = &cache {
            let key = PreprocessCache::graph_key(&graph, &opts.config);
            if let Some(pre) = cache.load(key, &opts.config) {
                eprintln!(
                    "preprocessing: cache hit in {:.1} ms ({})",
                    t0.elapsed().as_secs_f64() * 1e3,
                    cache.path(key).display()
                );
                return Ok(pre);
            }
            let pre = preprocess(&graph, &opts.config).map_err(|e| e.to_string())?;
            store_best_effort(cache, key, &pre, 0, t0);
            return Ok(pre);
        }
        return preprocess(&graph, &opts.config).map_err(|e| e.to_string());
    }

    let path = opts
        .input
        .as_deref()
        .ok_or("no input (validated by parse_args)")?;
    if let Some(cache) = &cache {
        // Hash the raw bytes first: a warm hit never parses the file.
        let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let digest = artifact::fnv1a(&bytes);
        let key = PreprocessCache::bytes_key(digest, &opts.config);
        if let Some(pre) = cache.load(key, &opts.config) {
            eprintln!(
                "preprocessing: cache hit in {:.1} ms, parse + preprocess skipped ({})",
                t0.elapsed().as_secs_f64() * 1e3,
                cache.path(key).display()
            );
            return Ok(pre);
        }
        let graph =
            io::read_edge_list(&bytes[..]).map_err(|e| format!("cannot load {path}: {e}"))?;
        let pre = preprocess(&graph, &opts.config).map_err(|e| e.to_string())?;
        store_best_effort(cache, key, &pre, digest, t0);
        return Ok(pre);
    }
    let graph = io::read_edge_list_file(path).map_err(|e| format!("cannot load {path}: {e}"))?;
    preprocess(&graph, &opts.config).map_err(|e| e.to_string())
}

/// Stores a fresh cache entry, downgrading failure to a warning — the
/// result in hand is correct either way.
fn store_best_effort(
    cache: &PreprocessCache,
    key: u64,
    pre: &Preprocessed,
    source_digest: u64,
    t0: Instant,
) {
    match cache.store(key, pre, source_digest) {
        Ok(()) => eprintln!(
            "preprocessing: cache miss, built in {:.1} ms ({})",
            t0.elapsed().as_secs_f64() * 1e3,
            cache.path(key).display()
        ),
        Err(e) => eprintln!(
            "warning: could not store cache entry at {} ({e}); continuing uncached",
            cache.path(key).display()
        ),
    }
}

/// Parses one application spec (`3-cf`, `4-mc`, `fsm:100`, …) and runs it
/// over `pre` under `cfg`. This is the body of one *simulation cell*:
/// everything it touches is owned or immutable, so any number of calls
/// may execute on parallel host threads without perturbing each other
/// (see `gramer::shard`).
fn run_spec(
    pre: &Preprocessed,
    spec: &str,
    cfg: GramerConfig,
    tel: Option<&mut Telemetry>,
) -> Result<gramer::RunReport, String> {
    if let Some(q) = spec.strip_prefix("query:") {
        let query = QueryGraph::parse(q).map_err(|e| format!("bad query spec: {e}"))?;
        let app = QueryApp::new(query)?;
        let sim = Simulator::new(pre, cfg).map_err(|e| e.to_string())?;
        return match tel {
            Some(tel) => sim
                .run_query_telemetry(&app, tel)
                .map_err(|e| e.to_string()),
            None => sim.run_query(&app).map_err(|e| e.to_string()),
        };
    }
    if let Some(t) = spec.strip_prefix("fsm:") {
        let threshold: u64 = t.parse().map_err(|_| format!("bad FSM threshold {t:?}"))?;
        DynRun::run(&FrequentSubgraphMining::new(threshold), pre, cfg, tel)
    } else {
        let (k, kind) = spec
            .split_once('-')
            .ok_or_else(|| format!("bad app spec {spec:?}"))?;
        let k: usize = k.parse().map_err(|_| format!("bad size in {spec:?}"))?;
        match kind {
            "cf" => DynRun::run(&CliqueFinding::new(k)?, pre, cfg, tel),
            "mc" => DynRun::run(&MotifCounting::new(k)?, pre, cfg, tel),
            other => Err(format!("unknown application kind {other:?}")),
        }
    }
}

fn run_app(
    pre: &Preprocessed,
    opts: &Options,
) -> Result<(String, gramer::RunReport, Option<Telemetry>), String> {
    let mut tel = opts.metrics_enabled().then(|| {
        Telemetry::new(TelemetryConfig {
            window_cycles: opts.metrics_window.unwrap_or(1024),
            ..TelemetryConfig::default()
        })
    });
    let spec = opts.app.to_ascii_lowercase();
    let report = run_spec(pre, &spec, opts.config.clone(), tel.as_mut())?;
    Ok((spec, report, tel))
}

/// Object-safe run adapter (the simulator API is generic).
trait DynRun {
    fn run(
        &self,
        pre: &gramer::Preprocessed,
        cfg: GramerConfig,
        tel: Option<&mut Telemetry>,
    ) -> Result<gramer::RunReport, String>;
}

impl<A: EcmApp> DynRun for A {
    fn run(
        &self,
        pre: &gramer::Preprocessed,
        cfg: GramerConfig,
        tel: Option<&mut Telemetry>,
    ) -> Result<gramer::RunReport, String> {
        let sim = Simulator::new(pre, cfg).map_err(|e| e.to_string())?;
        match tel {
            Some(tel) => sim.run_telemetry(self, tel).map_err(|e| e.to_string()),
            None => sim.run(self).map_err(|e| e.to_string()),
        }
    }
}

fn print_counts(result: &MiningResult) {
    for (size, pid, count) in result.counts.sorted() {
        println!(
            "  {size}-vertex {:?}: {count} (automorphisms: {})",
            result.interner.pattern(pid),
            result.automorphism_count(pid),
        );
    }
}

fn write_metrics(tel: &Telemetry, opts: &Options) -> Result<(), String> {
    if let Some(path) = opts.metrics_out.as_deref() {
        let doc = tel.to_json_value().to_string_pretty();
        if path == "-" {
            println!("{doc}");
        } else {
            std::fs::write(path, doc + "\n")
                .map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
            eprintln!("telemetry written to {path}");
        }
    }
    if opts.metrics_summary {
        print!("{}", tel.summary_text());
    }
    Ok(())
}

/// Prints the human-readable rollup of one run to stdout (the historical
/// single-app output; the multi-app path emits it once per cell).
fn print_report(report: &gramer::RunReport, show_counts: bool) {
    println!("{}", report.summary());
    println!(
        "wall {:.6} s (exec {:.6} + transfer {:.6}), preprocess {:.6} s",
        report.wall_seconds(),
        report.seconds,
        report.transfer_seconds,
        report.preprocess_seconds
    );
    println!(
        "hit ratios: vertex {:.2}%, edge {:.2}%; {} DRAM requests; {} steals",
        100.0 * report.mem.vertex.on_chip_ratio(),
        100.0 * report.mem.edge.on_chip_ratio(),
        report.dram_requests,
        report.steals
    );
    if let Some(q) = &report.query {
        println!(
            "query filter: {} vertices admitted; {} probes, {} rejected ({:.1}%)",
            q.admitted,
            q.probes,
            q.rejects,
            100.0 * q.reject_ratio()
        );
    }
    if show_counts {
        print_counts(&report.result);
    }
}

/// Writes a report JSON document (or, for `reports.len() > 1`, an array of
/// them in cell order) to `path` / stdout for `-`.
fn write_json(reports: &[gramer::RunReport], path: &str) -> Result<(), String> {
    let value = match reports {
        [single] => single.to_json_value(),
        many => gramer::json::JsonValue::array(many.iter().map(|r| r.to_json_value())),
    };
    let doc = value.to_string_pretty() + "\n";
    if path == "-" {
        print!("{doc}");
        Ok(())
    } else {
        std::fs::write(path, doc).map_err(|e| format!("cannot write report JSON to {path}: {e}"))
    }
}

/// Runs a comma-separated `--app` list as independent simulation cells on
/// up to `sim_threads` host threads. Output order is list order no matter
/// how the cells interleave, and each cell's report is bit-identical to a
/// standalone single-app run (`gramer::shard` holds the argument).
fn run_multi(pre: &Preprocessed, opts: &Options) -> ExitCode {
    let specs: Vec<String> = opts
        .app
        .split(',')
        .map(|s| s.trim().to_ascii_lowercase())
        .collect();
    if specs.iter().any(String::is_empty) {
        eprintln!("error: empty application in --app list {:?}", opts.app);
        return ExitCode::FAILURE;
    }
    let cells: Vec<_> = specs
        .iter()
        .map(|spec| {
            let cfg = opts.config.clone();
            move || run_spec(pre, spec, cfg, None)
        })
        .collect();
    let results = gramer::shard::run_cells(opts.config.sim_threads, cells);

    let mut reports = Vec::with_capacity(specs.len());
    let mut failed = false;
    for (spec, result) in specs.iter().zip(results) {
        match result {
            Ok(report) => {
                println!("== {spec} ==");
                print_report(&report, opts.show_counts);
                reports.push(report);
            }
            Err(e) => {
                eprintln!("error: {spec}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }
    if let Some(path) = opts.json_out.as_deref() {
        if let Err(e) = write_json(&reports, path) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let opts = parse_args();
    let pre = match resolve_preprocessed(&opts) {
        Ok(pre) => pre,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "graph: {} vertices, {} edges",
        pre.graph.num_vertices(),
        pre.graph.num_edges()
    );

    if opts.app.contains(',') && !opts.app.starts_with("query:") {
        return run_multi(&pre, &opts);
    }

    match run_app(&pre, &opts) {
        Ok((_, report, tel)) => {
            print_report(&report, opts.show_counts);
            if let Some(path) = opts.json_out.as_deref() {
                if let Err(e) = write_json(std::slice::from_ref(&report), path) {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
            if let Some(tel) = &tel {
                if let Err(e) = write_metrics(tel, &opts) {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
