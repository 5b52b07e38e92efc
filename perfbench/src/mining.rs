//! The mining workloads: an input file in, a `RunReport` JSON out,
//! through the simulator's public API.
//!
//! An untraced run times whole iterations (open file → report bytes)
//! and checks them. A traced run repeats that with spans around each
//! layer call and then times the layers alone: ON1 and reorder,
//! enumeration with a null observer, the memory model replaying the
//! recorded access stream, and (for the memo workload) a memo-off
//! sibling on the same input.

use crate::replay::{self, AccessRecorder};
use crate::serve::{self, Family, Phases};
use crate::stats::{median, ratio};
use crate::trace::{SpanId, Tracer};
use crate::{inputs, Ctx, Outcome};
use gramer::{GramerConfig, MemoMode, Preprocessed, RunReport, Simulator};
use gramer_graph::{io, on1, reorder, CsrGraph};
use gramer_mining::apps::{CliqueFinding, MotifCounting};
use gramer_mining::query::enumerate_matches;
use gramer_mining::{
    CandidateFilter, CandidateSets, CountingObserver, DfsEnumerator, EcmApp, MiningResult,
    NoFilter, NullObserver, Pattern, QueryApp, QueryGraph,
};
use std::time::Instant;

/// Iterations a run makes even when they outlast `--seconds`.
const MIN_ITERATIONS: usize = 3;
/// Share of `--seconds` spent mining; the rest goes to the probe.
const MINING_SHARE: f64 = 0.65;

/// Traffic of the daemon probe each mining workload runs after mining:
/// its app on small graphs of its family, served without a journal, for
/// the rest of `--seconds` (at least 110 paced jobs, so ten or more lie
/// beyond p90).
fn probe_phases(seconds: f64) -> Phases {
    const RATE: f64 = 40.0;
    Phases {
        rate: RATE,
        paced: ((RATE * seconds * (1.0 - MINING_SHARE)) as usize).max(110),
        burst: 40,
    }
}

/// The app a mining workload runs.
enum App {
    Mc(MotifCounting),
    Cf(CliqueFinding),
    Query(QueryApp),
}

/// One mining workload: its app, its config and how its input loads.
struct Workload {
    name: &'static str,
    app: App,
    cfg: GramerConfig,
    family: Family,
}

impl Workload {
    fn new(name: &str) -> Result<Workload, String> {
        let mut cfg = GramerConfig::default();
        let (name, app, family) = match name {
            "mine-rmat-mc" => (
                "mine-rmat-mc",
                App::Mc(MotifCounting::new(3)?),
                Family::Rmat,
            ),
            "mine-ba-cf-memo" => {
                cfg.memo = MemoMode::On {
                    bytes: gramer_mining::DEFAULT_MEMO_BYTES,
                };
                (
                    "mine-ba-cf-memo",
                    App::Cf(CliqueFinding::new(4)?),
                    Family::BaMemo,
                )
            }
            "mine-query-large" => {
                let q = QueryGraph::from_spec(serve::QUERY_SPEC)?;
                (
                    "mine-query-large",
                    App::Query(QueryApp::new(q)?),
                    Family::Query,
                )
            }
            other => return Err(format!("{other} is not a mining workload")),
        };
        Ok(Workload {
            name,
            app,
            cfg,
            family,
        })
    }

    fn load(&self, path: &std::path::Path) -> Result<CsrGraph, String> {
        let loaded = if self.name == "mine-query-large" {
            std::fs::File::open(path)
                .map_err(gramer_graph::GraphError::from)
                .and_then(|f| io::read_binary(std::io::BufReader::new(f)))
        } else {
            io::read_edge_list_file(path)
        };
        loaded.map_err(|e| format!("load {}: {e}", path.display()))
    }

    fn simulate(&self, pre: &Preprocessed, cfg: &GramerConfig) -> Result<RunReport, String> {
        let sim = Simulator::new(pre, cfg.clone()).map_err(|e| e.to_string())?;
        match &self.app {
            App::Mc(a) => sim.run(a),
            App::Cf(a) => sim.run(a),
            App::Query(a) => sim.run_query(a),
        }
        .map_err(|e| e.to_string())
    }

    /// The host enumerator run on `graph`, unfiltered.
    fn oracle(&self, graph: &CsrGraph) -> MiningResult {
        let e = DfsEnumerator::new(graph);
        match &self.app {
            App::Mc(a) => e.run(a),
            App::Cf(a) => e.run(a),
            App::Query(a) => e.run(a),
        }
    }

    /// Enumeration with `observer` over the preprocessed graph, filtered
    /// by `sets` like the simulator's run when the app is a query.
    fn enumerate<O: gramer_mining::AccessObserver>(
        &self,
        pre: &Preprocessed,
        sets: Option<&CandidateSets>,
        observer: &mut O,
    ) -> MiningResult {
        let e = DfsEnumerator::new(&pre.graph);
        match (&self.app, sets) {
            (App::Mc(a), _) => e.run_with_observer(a, observer),
            (App::Cf(a), _) => e.run_with_observer(a, observer),
            (App::Query(a), Some(sets)) => {
                e.run_filtered(a, observer, &mut CandidateFilter::new(sets))
            }
            (App::Query(a), None) => e.run_with_observer(a, observer),
        }
    }

    fn max_vertices(&self) -> usize {
        match &self.app {
            App::Mc(a) => a.max_vertices(),
            App::Cf(a) => a.max_vertices(),
            App::Query(a) => a.max_vertices(),
        }
    }
}

/// The user's bytes: the report as `gramer-mine --json` writes it.
fn report_bytes(report: &RunReport) -> String {
    report.to_json_value().to_string_pretty() + "\n"
}

/// Timings and output of one iteration.
struct Iteration {
    load_s: f64,
    preprocess_s: f64,
    sim_s: f64,
    serialize_s: f64,
    wall_s: f64,
    bytes: String,
}

/// One iteration, from opening the input file until the report JSON is
/// in hand, with a span around each layer call.
fn iterate(
    w: &Workload,
    path: &std::path::Path,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<(Iteration, CsrGraph, Preprocessed, RunReport), String> {
    let it = tracer.begin("iteration", parent);
    let t0 = Instant::now();
    let graph = tracer.span("load", it, || w.load(path))?;
    let t1 = Instant::now();
    let pre = tracer.span("preprocess", it, || {
        gramer::preprocess(&graph, &w.cfg).map_err(|e| e.to_string())
    })?;
    let t2 = Instant::now();
    let report = tracer.span("simulate", it, || w.simulate(&pre, &w.cfg))?;
    let t3 = Instant::now();
    let bytes = tracer.span("serialize", it, || report_bytes(&report));
    let t4 = Instant::now();
    tracer.end(it);
    let s = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    let iteration = Iteration {
        load_s: s(t0, t1),
        preprocess_s: s(t1, t2),
        sim_s: s(t2, t3),
        serialize_s: s(t3, t4),
        wall_s: s(t0, t4),
        bytes,
    };
    Ok((iteration, graph, pre, report))
}

/// Iterations of `w` for `seconds` (at least [`MIN_ITERATIONS`]). Every
/// iteration's report must equal the first's byte for byte. Returns the
/// iterations and the first iteration's graph, preprocessing and report.
#[allow(clippy::type_complexity)]
fn measure(
    w: &Workload,
    path: &std::path::Path,
    seconds: f64,
    tracer: &mut Tracer,
    parent: SpanId,
    out: &mut Outcome,
) -> Result<(Vec<Iteration>, CsrGraph, Preprocessed, RunReport), String> {
    let start = Instant::now();
    let (first, graph, pre, report) = iterate(w, path, tracer, parent)?;
    let mut iters = vec![first];
    out.attempted += 1;
    while iters.len() < MIN_ITERATIONS || start.elapsed().as_secs_f64() < seconds {
        let (it, ..) = iterate(w, path, tracer, parent)?;
        out.attempted += 1;
        if it.bytes != iters[0].bytes {
            out.failed += 1;
            out.check(
                format!("iteration {} report equals the first", iters.len()),
                false,
            );
        }
        iters.push(it);
    }
    Ok((iters, graph, pre, report))
}

fn median_of(iters: &[Iteration], f: impl Fn(&Iteration) -> f64) -> f64 {
    median(&iters.iter().map(f).collect::<Vec<_>>())
}

/// Counts per canonical pattern at `size` (all sizes when `None`).
fn canonical_counts(r: &MiningResult, size: Option<usize>) -> Vec<(usize, Pattern, u64)> {
    let mut v: Vec<(usize, Pattern, u64)> = r
        .counts
        .iter()
        .filter(|&(s, _, c)| c > 0 && size.is_none_or(|k| k == s))
        .map(|(s, p, c)| (s, *r.interner.pattern(p), c))
        .collect();
    v.sort_unstable();
    v
}

/// Checks the report against the host enumerator run on the loaded
/// graph, and (for a query) filtered matches against unfiltered ones.
fn check_results(
    w: &Workload,
    graph: &CsrGraph,
    pre: &Preprocessed,
    report: &RunReport,
    out: &mut Outcome,
) {
    let oracle = w.oracle(graph);
    let k = w.max_vertices();
    if let App::Query(app) = &w.app {
        // The filter prunes partial embeddings, so only full-size
        // matches carry over.
        out.check(
            "query match counts equal the unfiltered host enumerator's",
            canonical_counts(&report.result, Some(k)) == canonical_counts(&oracle, Some(k)),
        );
        let sets = CandidateSets::build(&pre.graph, app.query());
        let filtered = enumerate_matches(&pre.graph, app, &mut CandidateFilter::new(&sets));
        let unfiltered = enumerate_matches(&pre.graph, app, &mut NoFilter);
        out.check(
            "filtered query matches equal unfiltered enumeration",
            filtered == unfiltered,
        );
        out.check(
            "simulated query matches equal enumerated matches",
            app.matches(&report.result) == unfiltered.len() as u64,
        );
        out.detail("matches", unfiltered.len().to_string());
    } else {
        out.check(
            "embeddings equal the host enumerator's",
            report.result.embeddings == oracle.embeddings,
        );
        out.check(
            "pattern counts equal the host enumerator's",
            canonical_counts(&report.result, None) == canonical_counts(&oracle, None),
        );
    }
    out.detail("embeddings", report.result.embeddings.to_string());
    out.detail("vertices_loaded", graph.num_vertices().to_string());
}

/// Runs mining workload `name`.
pub fn run(ctx: &Ctx, name: &str) -> Result<Outcome, String> {
    let w = Workload::new(name)?;
    let mut out = Outcome::default();
    let input_dir = ctx.work.join("input");
    let status = std::process::Command::new(
        std::env::current_exe().map_err(|e| format!("current exe: {e}"))?,
    )
    .arg("gen")
    .arg(name)
    .arg(ctx.seed.to_string())
    .arg(&input_dir)
    .status()
    .map_err(|e| format!("input generator: {e}"))?;
    if !status.success() {
        return Err(format!("input generator exited {status}"));
    }
    let path = inputs::input_path(&input_dir, name);
    let file_mb = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64 / 1e6;

    let mut tracer = Tracer::new(format!("{name}-seed{}", ctx.seed), ctx.trace);
    let (iters, graph, pre, report) = if ctx.trace {
        // The untraced half gives the baseline the overhead is taken
        // against; spans are recorded only in the second half.
        let mut quiet = Tracer::new(String::new(), false);
        let half = ctx.seconds * MINING_SHARE / 2.0;
        let (plain, ..) = measure(&w, &path, half, &mut quiet, SpanId::NONE, &mut out)?;
        let root = tracer.begin("traced", SpanId::NONE);
        let traced = measure(&w, &path, half, &mut tracer, root, &mut out)?;
        tracer.end(root);
        let untraced_wall = median_of(&plain, |i| i.wall_s);
        let traced_wall = median_of(&traced.0, |i| i.wall_s);
        out.put("trace.untraced_wall_s", untraced_wall);
        out.put("trace.traced_wall_s", traced_wall);
        out.put("trace.overhead_s", traced_wall - untraced_wall);
        out.check(
            "traced report equals the untraced report",
            traced.0[0].bytes == plain[0].bytes,
        );
        traced
    } else {
        let mining_s = ctx.seconds * MINING_SHARE;
        measure(&w, &path, mining_s, &mut tracer, SpanId::NONE, &mut out)?
    };
    let peak_rss = crate::host::peak_rss_mb("self").unwrap_or(0.0);
    check_results(&w, &graph, &pre, &report, &mut out);
    out.detail(
        "report_digest",
        format!("\"{:016x}\"", crate::host::fnv(iters[0].bytes.as_bytes())),
    );
    let walls: Vec<String> = iters.iter().map(|i| i.wall_s.to_string()).collect();
    out.detail("iteration_wall_s", format!("[{}]", walls.join(", ")));

    let wall = median_of(&iters, |i| i.wall_s);
    let sim_s = median_of(&iters, |i| i.sim_s);
    out.put("wall_s", wall);
    out.put("setup_s", median_of(&iters, |i| i.load_s + i.preprocess_s));
    out.put("sim_steps_per_s", ratio(report.steps as f64, sim_s));
    out.put("peak_rss_mb", peak_rss);
    out.put("modeled_cycles", report.cycles as f64);
    out.put("modeled_energy_uj", serve::energy_uj(&report));

    if ctx.trace {
        let load_s = median_of(&iters, |i| i.load_s);
        out.put("graph.load_s", load_s);
        out.put("graph.load_mb_per_s", ratio(file_mb, load_s));
        out.put("preprocess.s", median_of(&iters, |i| i.preprocess_s));
        out.put(
            "report.serialize_us",
            median_of(&iters, |i| i.serialize_s) * 1e6,
        );
        out.put("report.bytes", iters[0].bytes.len() as f64);
        let root = tracer.begin("isolated", SpanId::NONE);
        isolated_layers(
            &w,
            &graph,
            &pre,
            &report,
            sim_s,
            &mut tracer,
            root,
            &mut out,
        )?;
        tracer.end(root);
    }
    drop((graph, pre));

    let probe = tracer.begin("probe", SpanId::NONE);
    let phases = probe_phases(ctx.seconds);
    serve::probe(ctx, w.family, phases, &mut tracer, probe, &mut out)?;
    tracer.end(probe);

    if ctx.trace {
        out.put("trace.spans", tracer.spans().len() as f64);
        write_spans(ctx, &tracer, &mut out)?;
    }
    Ok(out)
}

/// Writes the run's spans and their self time per name.
pub fn write_spans(ctx: &Ctx, tracer: &Tracer, out: &mut Outcome) -> Result<(), String> {
    let dir = ctx.root.join(".bench_out");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!(
        "spans-{}-seed{}.json",
        ctx.work
            .file_name()
            .map_or("run".into(), |n| n.to_string_lossy()),
        ctx.seed
    ));
    std::fs::write(&path, tracer.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    let selfs: Vec<String> = tracer
        .self_seconds_by_name()
        .into_iter()
        .map(|(n, s)| format!("\"{n}\": {s}"))
        .collect();
    out.detail("span_self_seconds", format!("{{{}}}", selfs.join(", ")));
    Ok(())
}

/// Times each layer alone on the first iteration's input.
#[allow(clippy::too_many_arguments)]
fn isolated_layers(
    w: &Workload,
    graph: &CsrGraph,
    pre: &Preprocessed,
    report: &RunReport,
    sim_s: f64,
    tracer: &mut Tracer,
    root: SpanId,
    out: &mut Outcome,
) -> Result<(), String> {
    let timed = |tracer: &mut Tracer, name: &'static str, f: &mut dyn FnMut()| {
        let t = Instant::now();
        tracer.span(name, root, &mut *f);
        t.elapsed().as_secs_f64()
    };

    let mut scores = None;
    let on1_s = timed(tracer, "preprocess.on1", &mut || {
        scores = Some(on1::on1_scores(graph));
    });
    let scores = scores.ok_or("ON1 did not run")?;
    let reorder_s = timed(tracer, "preprocess.reorder", &mut || {
        std::hint::black_box(reorder::reorder_by_scores(graph, &scores));
    });
    out.put("preprocess.on1_s", on1_s);
    out.put("preprocess.reorder_s", reorder_s);

    let mut sets = None;
    if let (App::Query(app), Some(q)) = (&w.app, report.query) {
        let filter_s = timed(tracer, "query.candidates", &mut || {
            sets = Some(CandidateSets::build(&pre.graph, app.query()));
        });
        let admitted = sets.as_ref().map_or(0, |s| s.union().count());
        out.put("query.filter_s", filter_s);
        out.put(
            "query.admitted_ratio",
            ratio(admitted as f64, pre.graph.num_vertices() as f64),
        );
        out.put("query.probe_reject_ratio", q.reject_ratio());
        out.put("query.extensions", report.result.candidates_examined as f64);
    }
    let sets = sets.as_ref();

    let enum_s = timed(tracer, "mining.enumerate", &mut || {
        std::hint::black_box(w.enumerate(pre, sets, &mut NullObserver));
    });
    let mut counter = CountingObserver::default();
    timed(tracer, "mining.count", &mut || {
        w.enumerate(pre, sets, &mut counter);
    });
    let accesses = counter.vertex_accesses + counter.edge_accesses;
    out.put("mining.enum_s", enum_s);
    out.put("mining.accesses", accesses as f64);
    out.put(
        "mining.enum_ns_per_access",
        ratio(enum_s * 1e9, accesses as f64),
    );

    // The enumerator has neither the memo nor work stealing (a thief
    // re-reads what it takes over), so its stream is exactly the
    // accesses of a run with both off.
    let mut plain = w.cfg.clone();
    plain.memo = MemoMode::Off;
    plain.work_stealing = false;
    let plain_report = tracer.span("simulate.no_steal", root, || w.simulate(pre, &plain))?;

    // The in-simulation cost per access is taken from a run with the
    // memo off, so that it makes the accesses the enumerator makes.
    let sibling;
    let (sim_ref_s, ref_report) = if w.cfg.memo.is_on() {
        let mut off = w.cfg.clone();
        off.memo = MemoMode::Off;
        let t = Instant::now();
        sibling = tracer.span("simulate.memo_off", root, || w.simulate(pre, &off))?;
        let off_s = t.elapsed().as_secs_f64();
        out.check(
            "memo-off sibling mines the same embeddings",
            sibling.result.embeddings == report.result.embeddings
                && canonical_counts(&sibling.result, None)
                    == canonical_counts(&report.result, None),
        );
        out.put("memo.sim_ratio", ratio(sim_s, off_s));
        (off_s, &sibling)
    } else {
        (sim_s, report)
    };

    let mut recorder = AccessRecorder::default();
    timed(tracer, "mining.record", &mut || {
        w.enumerate(pre, sets, &mut recorder);
    });
    let sources = replay::slot_sources(pre);
    let mut mem = replay::build_memory(pre, &w.cfg)?;
    let mut replayed = 0;
    let replay_s = timed(tracer, "memsim.replay", &mut || {
        replayed = replay::replay(&mut mem, &recorder.stream, &sources);
    });
    drop(recorder);
    out.check(
        format!(
            "replayed accesses ({replayed}) equal the counted ({accesses}) and a no-steal run's vertex+edge accesses ({})",
            plain_report.mem.total()
        ),
        replayed == plain_report.mem.total() && replayed == accesses,
    );
    let sim_accesses = ref_report.mem.total();
    out.detail(
        "steal_reread_accesses",
        (sim_accesses.saturating_sub(replayed)).to_string(),
    );
    let isolated_ns = ratio(replay_s * 1e9, replayed as f64);
    let in_sim_ns = ratio((sim_ref_s - enum_s) * 1e9, sim_accesses as f64);
    out.put("memsim.replay_s", replay_s);
    out.put("memsim.isolated_ns_per_access", isolated_ns);
    out.put("memsim.in_sim_ns_per_access", in_sim_ns);
    out.put("memsim.inflation", ratio(in_sim_ns, isolated_ns));
    out.put("events.residual_s", sim_ref_s - enum_s - replay_s);

    out.put("memsim.onchip_hit_ratio", report.hit_ratio());
    out.put("memsim.dram_requests", report.dram_requests as f64);
    out.put("events.steps", report.steps as f64);
    if let Some(m) = report.memo {
        out.put("memo.hit_ratio", m.hit_ratio());
        out.put("memo.lookups", m.lookups() as f64);
    }
    Ok(())
}
