//! `gramer-query` — candidate-filter ablation for labeled subgraph
//! queries.
//!
//! ```text
//! gramer-query [--gen SPEC | <edge-list>] [--labels K:SEED]
//!              --query SPEC|@FILE [--pus N] [--slots N]
//!              [--memo on|off|BYTES] [--json PATH]
//! ```
//!
//! Runs the same labeled query twice over the same preprocessed graph —
//! brute force (every extension examined) and through the LDF → NLF →
//! GQL candidate pipeline — and prints:
//!
//! 1. the per-stage survivor table (how many data vertices each filter
//!    stage left per query vertex, plus the candidates-driven matching
//!    order), and
//! 2. the modeled cost comparison: candidate extensions, cycles, and
//!    dynamic energy, filtered vs. brute, with the filter's own probe
//!    cost charged honestly on the filtered side.
//!
//! Full-size match totals are asserted identical between the two runs —
//! the tool aborts loudly if filtering ever changes results. The table
//! in `docs/EXPERIMENTS.md` is produced by this binary.
//!
//! `--gen SPEC` accepts the named generator specs of
//! [`gramer_graph::generate::named`] (`golden-ba`, `demo`,
//! `ba:<n>:<m>:<seed>`, ...); a positional path reads a SNAP-style edge
//! list. `--labels K:SEED` relabels the graph uniformly from alphabet
//! `1..=K` (labels are what make a query selective; omit it only if the
//! graph file already carries labels).

use gramer::json::JsonValue;
use gramer::{preprocess, GramerConfig, Preprocessed, RunReport, Simulator};
use gramer_graph::{generate, io, CsrGraph};
use gramer_memsim::EnergyModel;
use gramer_mining::{CandidateSets, QueryApp, QueryGraph};
use std::process::ExitCode;

struct Options {
    gen: Option<String>,
    input: Option<String>,
    labels: Option<(u16, u64)>,
    query: Option<String>,
    config: GramerConfig,
    json_out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: gramer-query [--gen SPEC | <edge-list>] [--labels K:SEED] \
         --query SPEC|@FILE \\\n         [--pus N] [--slots N] [--memo on|off|BYTES] [--json PATH]"
    );
    std::process::exit(2)
}

fn parse_args() -> Options {
    let mut opts = Options {
        gen: None,
        input: None,
        labels: None,
        query: None,
        config: GramerConfig::default(),
        json_out: None,
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
            "--gen" => opts.gen = Some(value("--gen")),
            "--labels" => {
                let v = value("--labels");
                let (k, seed) = v.split_once(':').unwrap_or((v.as_str(), "1"));
                let k: u16 = k.parse().unwrap_or_else(|_| {
                    eprintln!("bad alphabet size in --labels {v:?}");
                    usage()
                });
                let seed: u64 = seed.parse().unwrap_or_else(|_| {
                    eprintln!("bad seed in --labels {v:?}");
                    usage()
                });
                if k == 0 {
                    eprintln!("--labels alphabet must be at least 1");
                    usage()
                }
                opts.labels = Some((k, seed));
            }
            "--query" => opts.query = Some(value("--query")),
            "--pus" => {
                opts.config.num_pus = value("--pus").parse().unwrap_or_else(|_| {
                    eprintln!("--pus expects an integer");
                    usage()
                })
            }
            "--slots" => {
                opts.config.slots_per_pu = value("--slots").parse().unwrap_or_else(|_| {
                    eprintln!("--slots expects an integer");
                    usage()
                })
            }
            "--memo" => {
                opts.config.memo = value("--memo").parse().unwrap_or_else(|e: String| {
                    eprintln!("{e}");
                    usage()
                })
            }
            "--json" => opts.json_out = Some(value("--json")),
            "--help" | "-h" => usage(),
            path if !path.starts_with('-') => opts.input = Some(path.to_string()),
            other => {
                eprintln!("unknown option: {other}");
                usage()
            }
        }
    }
    if opts.gen.is_some() == opts.input.is_some() {
        eprintln!("exactly one of --gen SPEC or <edge-list> is required");
        usage()
    }
    if opts.query.is_none() {
        eprintln!("--query is required");
        usage()
    }
    opts
}

fn load_query(spec: &str) -> Result<QueryGraph, String> {
    let text = if let Some(path) = spec.strip_prefix('@') {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read query file {path}: {e}"))?
    } else {
        spec.to_string()
    };
    QueryGraph::parse(&text)
}

fn load_graph(opts: &Options) -> Result<CsrGraph, String> {
    let base = if let Some(spec) = opts.gen.as_deref() {
        generate::named(spec).map_err(|e| e.to_string())?
    } else {
        let path = opts.input.as_deref().ok_or("no input")?;
        io::read_edge_list_file(path).map_err(|e| format!("cannot load {path}: {e}"))?
    };
    Ok(match opts.labels {
        Some((k, seed)) => generate::with_random_labels(&base, k, seed),
        None => base,
    })
}

/// One row per query vertex: survivors after each pipeline stage.
fn print_pipeline(query: &QueryGraph, candidates: &CandidateSets, n: usize) {
    let stats = candidates.stats();
    println!("candidate pipeline ({n} data vertices):");
    println!("  qv  label  deg |      LDF      NLF  refined");
    for u in 0..query.num_vertices() {
        println!(
            "  {u:>2}  {:>5}  {:>3} | {:>8} {:>8} {:>8}",
            query.label(u),
            query.degree(u),
            stats.ldf[u],
            stats.nlf[u],
            stats.refined[u],
        );
    }
    println!(
        "  union {} vertices admitted after {} refinement round(s); matching order {:?}",
        candidates.union().count(),
        stats.refine_rounds,
        candidates.matching_order(query),
    );
}

fn ratio(brute: u64, filtered: u64) -> f64 {
    if filtered == 0 {
        f64::INFINITY
    } else {
        brute as f64 / filtered as f64
    }
}

fn comparison_json(query: &QueryGraph, brute: &RunReport, filtered: &RunReport) -> JsonValue {
    let model = EnergyModel::default();
    let eb = brute.energy(&model);
    let ef = filtered.energy(&model);
    JsonValue::object([
        ("query", JsonValue::from(query.to_string().as_str())),
        ("brute", brute.to_json_value()),
        ("filtered", filtered.to_json_value()),
        (
            "candidate_reduction",
            JsonValue::from(ratio(
                brute.result.candidates_examined,
                filtered.result.candidates_examined,
            )),
        ),
        (
            "cycle_reduction",
            JsonValue::from(ratio(brute.cycles, filtered.cycles)),
        ),
        (
            "dynamic_energy_reduction",
            JsonValue::from(if ef.memory_dynamic_j > 0.0 {
                eb.memory_dynamic_j / ef.memory_dynamic_j
            } else {
                f64::INFINITY
            }),
        ),
    ])
}

fn run() -> Result<Option<(String, JsonValue)>, String> {
    let opts = parse_args();
    let query = load_query(opts.query.as_deref().ok_or("no query")?)?;
    let graph = load_graph(&opts)?;
    eprintln!(
        "graph: {} vertices, {} edges; query: {query}",
        graph.num_vertices(),
        graph.num_edges()
    );

    let pre: Preprocessed =
        preprocess(&graph, &opts.config).map_err(|e| format!("preprocess: {e}"))?;
    let app = QueryApp::new(query.clone())?;

    // Candidates over the reordered graph — exactly what the filtered
    // simulation prunes against.
    let candidates = CandidateSets::build(&pre.graph, &query);
    print_pipeline(&query, &candidates, pre.graph.num_vertices());

    let brute = Simulator::new(&pre, opts.config.clone())
        .map_err(|e| e.to_string())?
        .run(&app)
        .map_err(|e| e.to_string())?;
    let filtered = Simulator::new(&pre, opts.config.clone())
        .map_err(|e| e.to_string())?
        .run_query(&app)
        .map_err(|e| e.to_string())?;

    let k = query.num_vertices();
    if brute.result.total_at(k) != filtered.result.total_at(k) {
        return Err(format!(
            "RESULT MISMATCH: brute found {} matches, filtered {} — the filter is unsound",
            brute.result.total_at(k),
            filtered.result.total_at(k)
        ));
    }

    let model = EnergyModel::default();
    let eb = brute.energy(&model);
    let ef = filtered.energy(&model);
    println!(
        "\n{:<26} {:>14} {:>14} {:>9}",
        "metric", "brute", "filtered", "ratio"
    );
    let row = |name: &str, b: u64, f: u64| {
        println!("{name:<26} {b:>14} {f:>14} {:>8.2}x", ratio(b, f));
    };
    row(
        "matches",
        brute.result.total_at(k),
        filtered.result.total_at(k),
    );
    row(
        "candidate extensions",
        brute.result.candidates_examined,
        filtered.result.candidates_examined,
    );
    row("cycles", brute.cycles, filtered.cycles);
    println!(
        "{:<26} {:>14.3e} {:>14.3e} {:>8.2}x",
        "dynamic energy (J)",
        eb.memory_dynamic_j,
        ef.memory_dynamic_j,
        eb.memory_dynamic_j / ef.memory_dynamic_j
    );
    if let Some(q) = &filtered.query {
        println!(
            "filter probes: {} ({} rejected, {:.1}%); every probe charged at \
             filter-SRAM latency and energy",
            q.probes,
            q.rejects,
            100.0 * q.reject_ratio()
        );
    }

    Ok(opts
        .json_out
        .map(|path| (path, comparison_json(&query, &brute, &filtered))))
}

fn main() -> ExitCode {
    match run() {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some((path, value))) => {
            let doc = value.to_string_pretty() + "\n";
            let res = if path == "-" {
                print!("{doc}");
                Ok(())
            } else {
                std::fs::write(&path, doc).map_err(|e| format!("cannot write {path}: {e}"))
            };
            match res {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
