//! Golden semantics snapshots for the simulator.
//!
//! These tests lock the *simulated* quantities — cycles, steals, steps,
//! embeddings, and the per-size accepted/candidate counts — for two
//! small seeded workloads. Engine or probe rewrites in the hot path
//! must not shift any of these numbers: a performance change that moves
//! a golden value is a semantics change, not an optimisation, and must
//! be called out explicitly (by updating the constant and explaining
//! why in the commit).
//!
//! Each golden workload runs under every host-side leg in-process: the
//! event engine and its heap oracle, the fast and exact memory access
//! paths, and the pair memo off and on. Every leg must reproduce the
//! golden constants, and legs with the same memo setting must agree on
//! every simulated quantity.

use gramer::{preprocess, AccessPath, GramerConfig, MemoMode, RunReport, Simulator};
use gramer_graph::generate::{self, RmatParams};
use gramer_graph::CsrGraph;
use gramer_mining::apps::{CliqueFinding, MotifCounting};
use gramer_mining::EcmApp;

/// Renders every semantics-bearing field of a [`RunReport`] into one
/// comparable line. Wall-clock-derived fields are deliberately absent.
fn golden_summary(r: &RunReport) -> String {
    format!(
        "cycles={} steals={} steps={} dram={} embeddings={} candidates={} \
         accepted_by_size={:?} candidates_by_size={:?} pu_steps={:?}",
        r.cycles,
        r.steals,
        r.steps,
        r.dram_requests,
        r.result.embeddings,
        r.result.candidates_examined,
        r.result.accepted_by_size,
        r.result.candidates_by_size,
        r.pu_steps,
    )
}

/// Which loop drives a run: the product event engine or its heap oracle.
#[derive(Debug, Clone, Copy)]
enum Engine {
    Product,
    Oracle,
}

fn run_on<A: EcmApp>(graph: &CsrGraph, app: &A, cfg: &GramerConfig, engine: Engine) -> RunReport {
    let pre = preprocess(graph, cfg).unwrap();
    let sim = Simulator::new(&pre, cfg.clone()).unwrap();
    match engine {
        Engine::Product => sim.run(app),
        Engine::Oracle => sim.run_oracle(app),
    }
    .unwrap()
}

fn run<A: EcmApp>(graph: &CsrGraph, app: &A, cfg: &GramerConfig) -> RunReport {
    run_on(graph, app, cfg, Engine::Product)
}

fn ba_graph() -> CsrGraph {
    generate::barabasi_albert(200, 3, 11)
}

fn rmat_graph() -> CsrGraph {
    generate::rmat(
        8,
        2_000,
        RmatParams {
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
        },
        7,
    )
}

/// BA(200,3) under 4-clique finding, default config.
const GOLDEN_BA_CF4: &str = "cycles=25565 steals=2507 steps=30891 dram=249 \
     embeddings=786 candidates=27416 accepted_by_size=[0, 0, 594, 174, 18] \
     candidates_by_size=[0, 0, 1188, 14330, 11898] \
     pu_steps=[11532, 8470, 2509, 2129, 1809, 1535, 1742, 1165]";

/// R-MAT(2^8, 2000 edges) under 3-motif counting, default config.
const GOLDEN_RMAT_MC3: &str = "cycles=48490 steals=6899 steps=92482 dram=444 \
     embeddings=34016 candidates=84066 accepted_by_size=[0, 0, 1261, 32755] \
     candidates_by_size=[0, 0, 2522, 81544] \
     pu_steps=[22897, 12808, 11697, 10478, 9735, 8921, 8850, 7096]";

/// Collapses runs of whitespace so the line-wrapped golden constants
/// compare as single-space-separated token streams.
fn normalized(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Asserts the mining-result fields of `r` match `golden` verbatim —
/// the memo-on golden check. Timing fields (cycles, steals, dram,
/// pu_steps) are memo-off quantities and deliberately not compared.
fn assert_golden_results(r: &RunReport, golden: &str) {
    let results = format!(
        "embeddings={} candidates={} accepted_by_size={:?} candidates_by_size={:?}",
        r.result.embeddings,
        r.result.candidates_examined,
        r.result.accepted_by_size,
        r.result.candidates_by_size,
    );
    assert!(
        normalized(golden).contains(&normalized(&results)),
        "mining results diverged from the golden line:\n  got      {results}\n  expected within {golden}"
    );
}

/// Checks one golden workload: under `--memo off` the full
/// timing-bearing golden line must hold byte-for-byte; with the memo on
/// it legitimately moves timing, so only the mining results are pinned —
/// and the table must actually get hits.
fn check_golden(report: &RunReport, cfg: &GramerConfig, golden: &str) {
    if matches!(cfg.memo, MemoMode::Off) {
        assert_eq!(golden_summary(report), golden);
    } else {
        assert_golden_results(report, golden);
        assert!(
            report.memo.map_or(0, |s| s.hits) > 0,
            "memo was on but never hit"
        );
    }
}

/// Runs one golden workload under every leg — {engine, oracle} ×
/// {fast, exact} × {memo off, memo on} — holding each leg to the golden
/// line and each memo setting's legs to one identical report.
fn check_golden_on_every_leg<A: EcmApp>(graph: &CsrGraph, app: &A, golden: &str) {
    for memo in [MemoMode::Off, MemoMode::On { bytes: 1 << 16 }] {
        let mut reference: Option<(String, String)> = None;
        for access_path in [AccessPath::Fast, AccessPath::Exact] {
            for engine in [Engine::Product, Engine::Oracle] {
                let cfg = GramerConfig {
                    access_path,
                    memo,
                    ..GramerConfig::default()
                };
                let report = run_on(graph, app, &cfg, engine);
                check_golden(&report, &cfg, golden);
                let views = (
                    full_semantic_view(&report),
                    report.to_json_value().to_string(),
                );
                match &reference {
                    None => reference = Some(views),
                    Some(r) => assert_eq!(
                        r, &views,
                        "{engine:?} x {access_path:?} x memo {memo:?} diverged from the \
                         product engine on the fast path"
                    ),
                }
            }
        }
    }
}

#[test]
fn golden_ba200_cf4() {
    check_golden_on_every_leg(&ba_graph(), &CliqueFinding::new(4).unwrap(), GOLDEN_BA_CF4);
}

#[test]
fn golden_rmat_mc3() {
    check_golden_on_every_leg(
        &rmat_graph(),
        &MotifCounting::new(3).unwrap(),
        GOLDEN_RMAT_MC3,
    );
}

/// The memo dimension of the golden workloads: memo-on mining results
/// equal the memo-off golden lines, the table gets hits on both
/// workloads, and the memoized run never does more memory work than the
/// reference.
#[test]
fn golden_workloads_with_memo_on() {
    let off = GramerConfig::default();
    let on = GramerConfig {
        memo: MemoMode::On { bytes: 1 << 16 },
        ..off.clone()
    };

    let ba = ba_graph();
    let cf = CliqueFinding::new(4).unwrap();
    let base = run(&ba, &cf, &off);
    let memo = run(&ba, &cf, &on);
    assert_golden_results(&memo, GOLDEN_BA_CF4);
    assert!(memo.memo.map_or(0, |s| s.hits) > 0, "BA x CF4: no hits");
    assert!(memo.mem.total() <= base.mem.total(), "BA x CF4: more work");

    let rmat = rmat_graph();
    let mc = MotifCounting::new(3).unwrap();
    let base = run(&rmat, &mc, &off);
    let memo = run(&rmat, &mc, &on);
    assert_golden_results(&memo, GOLDEN_RMAT_MC3);
    assert!(memo.memo.map_or(0, |s| s.hits) > 0, "RMAT x MC3: no hits");
    assert!(
        memo.mem.total() <= base.mem.total(),
        "RMAT x MC3: more work"
    );
}

/// Everything simulated in a [`RunReport`], including the memory-side
/// statistics and per-PU finish times that `golden_summary` leaves out.
/// Only wall-clock-derived fields (`preprocess_seconds`) are excluded.
fn full_semantic_view(r: &RunReport) -> String {
    format!(
        "{} pu_finish={:?} mem={:?} counts={:?} transfer_seconds={}",
        golden_summary(r),
        r.pu_finish,
        r.mem,
        r.result.counts,
        r.transfer_seconds,
    )
}

/// Runs `app` starting from a `.gra` artifact round-trip of the
/// preprocessed graph instead of the direct [`preprocess`] result.
fn run_via_artifact<A: EcmApp>(graph: &CsrGraph, app: &A, cfg: &GramerConfig) -> RunReport {
    let pre = preprocess(graph, cfg).unwrap();
    let bytes = gramer_graph::artifact::encode(&pre.artifact_contents(0)).unwrap();
    let art = gramer_graph::GraphArtifact::from_bytes(bytes).unwrap();
    let pre = gramer::Preprocessed::from_artifact(&art, cfg).unwrap();
    Simulator::new(&pre, cfg.clone()).unwrap().run(app).unwrap()
}

/// The `.gra` artifact path (ISSUE 6 tentpole) must be invisible in the
/// results: a run resumed from an artifact produces a [`RunReport`]
/// whose serialized JSON is byte-identical to the edge-list path's, on
/// both golden workloads.
#[test]
fn artifact_path_reports_are_bit_identical() {
    let cfg = GramerConfig::default();

    let ba = ba_graph();
    let cf = CliqueFinding::new(4).unwrap();
    assert_eq!(
        run(&ba, &cf, &cfg).to_json_value().to_string(),
        run_via_artifact(&ba, &cf, &cfg).to_json_value().to_string(),
        "BA(200,3) x CF(4): artifact path diverged from edge-list path"
    );

    let rmat = rmat_graph();
    let mc = MotifCounting::new(3).unwrap();
    assert_eq!(
        run(&rmat, &mc, &cfg).to_json_value().to_string(),
        run_via_artifact(&rmat, &mc, &cfg)
            .to_json_value()
            .to_string(),
        "R-MAT(2^8) x MC(3): artifact path diverged from edge-list path"
    );
}

/// Running the two golden workloads as independent cells on a sharded
/// pool (`sim_threads=4`) must yield byte-identical serialized reports,
/// in the same order, as the serial `sim_threads=1` path — host
/// parallelism across cells never touches a simulated quantity, and
/// result order is cell order by construction (see `gramer::shard`).
#[test]
fn sharded_cells_reports_are_bit_identical_to_serial() {
    let run_matrix = |threads: usize| -> Vec<String> {
        let cfg = GramerConfig {
            sim_threads: threads,
            ..GramerConfig::default()
        };
        let cells: Vec<Box<dyn FnOnce() -> String + Send>> = vec![
            Box::new({
                let cfg = cfg.clone();
                move || {
                    run(&ba_graph(), &CliqueFinding::new(4).unwrap(), &cfg)
                        .to_json_value()
                        .to_string()
                }
            }),
            Box::new({
                let cfg = cfg.clone();
                move || {
                    run(&rmat_graph(), &MotifCounting::new(3).unwrap(), &cfg)
                        .to_json_value()
                        .to_string()
                }
            }),
        ];
        gramer::shard::run_cells(threads, cells)
    };
    let serial = run_matrix(1);
    let sharded = run_matrix(4);
    assert_eq!(
        serial, sharded,
        "sim_threads=4 diverged from sim_threads=1 on the golden cells"
    );
    assert_eq!(serial.len(), 2);
}
