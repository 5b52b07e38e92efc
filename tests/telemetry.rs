//! Telemetry-layer invariants (PR 5 tentpole).
//!
//! Two guarantees are locked here:
//!
//! 1. **Observation is free of side effects** — running with a recording
//!    [`Telemetry`] sink produces a [`RunReport`] bit-identical to an
//!    unobserved run, on every golden workload.
//! 2. **The telemetry document is simulated data** — for a fixed seeded
//!    workload, the JSON document (minus its explicitly host-side
//!    `"host"` section) is byte-stable across the host-side legs — the
//!    event engine and its heap oracle × the fast and exact memory access
//!    paths — exactly like the golden run reports. Every leg runs
//!    in-process.
//!
//! As with `tests/golden.rs`: if a simulator change moves the pinned
//! digest, that is a semantics change and the constant must be updated
//! with an explanation in the commit.

use gramer::json::JsonValue;
use gramer::telemetry::{Telemetry, TelemetryConfig};
use gramer::{preprocess, AccessPath, GramerConfig, RunReport, Simulator};
use gramer_graph::generate::{self, RmatParams};
use gramer_graph::CsrGraph;
use gramer_mining::apps::{CliqueFinding, MotifCounting};
use gramer_mining::EcmApp;

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

/// Every host-side leg: (`access_path`, heap oracle instead of the
/// event engine).
const LEGS: [(AccessPath, bool); 4] = [
    (AccessPath::Fast, false),
    (AccessPath::Fast, true),
    (AccessPath::Exact, false),
    (AccessPath::Exact, true),
];

/// An unobserved and an observed run of `app` on one leg.
fn run_both_on<A: EcmApp>(
    graph: &CsrGraph,
    app: &A,
    cfg: &GramerConfig,
    oracle: bool,
) -> (RunReport, RunReport, Telemetry) {
    let pre = preprocess(graph, cfg).unwrap();
    let sim = Simulator::new(&pre, cfg.clone()).unwrap();
    let mut tel = Telemetry::new(TelemetryConfig::default());
    if oracle {
        let plain = sim.run_oracle(app).unwrap();
        let observed = sim.run_telemetry_oracle(app, &mut tel).unwrap();
        (plain, observed, tel)
    } else {
        let plain = sim.run(app).unwrap();
        let observed = sim.run_telemetry(app, &mut tel).unwrap();
        (plain, observed, tel)
    }
}

fn run_both<A: EcmApp>(
    graph: &CsrGraph,
    app: &A,
    cfg: &GramerConfig,
) -> (RunReport, RunReport, Telemetry) {
    run_both_on(graph, app, cfg, false)
}

fn leg_config(access_path: AccessPath) -> GramerConfig {
    GramerConfig {
        access_path,
        ..GramerConfig::default()
    }
}

/// Every simulated quantity of a report, as one comparable string
/// (wall-clock-derived fields excluded — they are host-side).
fn semantic_view(r: &RunReport) -> String {
    format!(
        "cycles={} steals={} steps={} dram={} embeddings={} candidates={} \
         accepted_by_size={:?} candidates_by_size={:?} pu_steps={:?} pu_finish={:?} \
         mem={:?} counts={:?}",
        r.cycles,
        r.steals,
        r.steps,
        r.dram_requests,
        r.result.embeddings,
        r.result.candidates_examined,
        r.result.accepted_by_size,
        r.result.candidates_by_size,
        r.pu_steps,
        r.pu_finish,
        r.mem,
        r.result.counts,
    )
}

/// Recording telemetry must not change any simulated quantity, on any
/// leg.
#[test]
fn telemetry_never_perturbs_the_simulation() {
    for (access_path, oracle) in LEGS {
        let cfg = leg_config(access_path);
        let leg = format!("[{access_path:?} oracle={oracle}]");

        let ba = run_both_on(&ba_graph(), &CliqueFinding::new(4).unwrap(), &cfg, oracle);
        assert_eq!(
            semantic_view(&ba.0),
            semantic_view(&ba.1),
            "BA(200,3) x CF(4) {leg}: telemetry perturbed the simulation"
        );

        let rmat = run_both_on(&rmat_graph(), &MotifCounting::new(3).unwrap(), &cfg, oracle);
        assert_eq!(
            semantic_view(&rmat.0),
            semantic_view(&rmat.1),
            "R-MAT(2^8) x MC(3) {leg}: telemetry perturbed the simulation"
        );
    }
}

/// Removes the top-level `"host"` section — the only part of the
/// document that is allowed to depend on host-side choices (fast-lane
/// tallies vary with the access path).
fn strip_host(doc: JsonValue) -> JsonValue {
    match doc {
        JsonValue::Object(pairs) => {
            JsonValue::Object(pairs.into_iter().filter(|(k, _)| k != "host").collect())
        }
        other => other,
    }
}

/// FNV-1a, so the golden constant stays one line instead of a full
/// multi-kilobyte document dump.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Digest of the simulated portion of the telemetry document for
/// BA(200,3) × CF(4) at the default window width. Must hold on every
/// leg.
///
/// Updated for schema v2 (PR 9): the document gained the memo counters
/// (`memo_hits`/`memo_misses`/`memo_evictions`), the adaptive-policy
/// counters (`lambda_retunes`/`repins`) and the `lambda_last`/
/// `pin_epochs` gauges. This run uses the default config (memo off,
/// autotuning off), so every new field is zero — the simulated
/// quantities themselves are unchanged, as the untouched
/// cycles/steps/dram spot constants below prove.
const GOLDEN_BA_CF4_TELEMETRY_FNV: u64 = 10654693259273357294;
/// Spot constants guarding the digest against blind updates: they tie
/// the document to the `tests/golden.rs` numbers for the same workload.
const GOLDEN_BA_CF4_CYCLES: u64 = 25565;
const GOLDEN_BA_CF4_STEPS: u64 = 30891;
const GOLDEN_BA_CF4_DRAM: u64 = 249;

#[test]
fn telemetry_document_is_byte_stable_across_host_choices() {
    for (access_path, oracle) in LEGS {
        check_pinned_document(access_path, oracle);
    }
}

fn check_pinned_document(access_path: AccessPath, oracle: bool) {
    let (_, observed, tel) = run_both_on(
        &ba_graph(),
        &CliqueFinding::new(4).unwrap(),
        &leg_config(access_path),
        oracle,
    );
    let doc = strip_host(tel.to_json_value());
    let text = doc.to_string_pretty();

    // The document and the report agree on the headline quantities.
    assert_eq!(
        doc.get("cycles").and_then(JsonValue::as_u64),
        Some(GOLDEN_BA_CF4_CYCLES)
    );
    assert_eq!(observed.cycles, GOLDEN_BA_CF4_CYCLES);
    let totals = doc.get("totals").expect("document has totals");
    assert_eq!(
        totals.get("steps").and_then(JsonValue::as_u64),
        Some(GOLDEN_BA_CF4_STEPS)
    );
    assert_eq!(
        totals.get("dram_requests").and_then(JsonValue::as_u64),
        Some(GOLDEN_BA_CF4_DRAM)
    );
    assert_eq!(
        doc.get("schema_version").and_then(JsonValue::as_u64),
        Some(2)
    );
    assert!(
        doc.get("host").is_none(),
        "host section must be stripped before hashing"
    );

    // The serialized document itself round-trips and is byte-stable.
    assert_eq!(JsonValue::parse(&text).unwrap(), doc);
    assert_eq!(
        fnv1a(text.as_bytes()),
        GOLDEN_BA_CF4_TELEMETRY_FNV,
        "[{access_path:?} oracle={oracle}] telemetry document drifted; if the \
         simulator semantics legitimately changed, update the digest and say why"
    );
}

/// The full document (host section included) must at least be
/// self-consistent: window sums equal the run totals.
#[test]
fn telemetry_windows_sum_to_totals() {
    let (_, observed, tel) = run_both(
        &ba_graph(),
        &CliqueFinding::new(4).unwrap(),
        &GramerConfig::default(),
    );
    let doc = tel.to_json_value();
    let windows = match doc.get("windows") {
        Some(JsonValue::Array(w)) => w.clone(),
        other => panic!("windows missing: {other:?}"),
    };
    let sum = |key: &str| -> u64 {
        windows
            .iter()
            .filter_map(|w| w.get(key).and_then(JsonValue::as_u64))
            .sum()
    };
    let pu_sum = |key: &str| -> u64 {
        windows
            .iter()
            .filter_map(|w| match w.get(key) {
                Some(JsonValue::Array(a)) => {
                    Some(a.iter().filter_map(JsonValue::as_u64).sum::<u64>())
                }
                _ => None,
            })
            .sum()
    };
    assert_eq!(pu_sum("pu_steps"), observed.steps);
    assert_eq!(sum("steals"), observed.steals);
    assert_eq!(sum("dram_requests"), observed.dram_requests);
    assert_eq!(
        sum("candidates") + sum("rejected"),
        observed.result.candidates_examined
    );
    let totals = doc.get("totals").unwrap();
    assert_eq!(
        totals.get("steps").and_then(JsonValue::as_u64),
        Some(observed.steps)
    );
    assert_eq!(
        totals.get("steals").and_then(JsonValue::as_u64),
        Some(observed.steals)
    );
}

/// The same sums-to-totals invariant under a window configuration small
/// enough to force coalescing mid-run. Regression test: the close-time
/// sampling in `advance_to` used to *assign* the cumulative-counter
/// deltas, silently dropping whatever a coalesce had merged into the
/// open window, so windowed dram/mem/eviction sums undercounted the run
/// totals on any run long enough to coalesce.
#[test]
fn telemetry_windows_sum_to_totals_with_coalescing() {
    let cfg = GramerConfig::default();
    let pre = preprocess(&ba_graph(), &cfg).unwrap();
    let sim = Simulator::new(&pre, cfg).unwrap();
    let app = CliqueFinding::new(4).unwrap();
    let mut tel = Telemetry::new(TelemetryConfig {
        window_cycles: 64,
        max_windows: 8,
    });
    let observed = sim.run_telemetry(&app, &mut tel).unwrap();
    assert!(
        tel.coalesce_count() > 0,
        "config must force coalescing for this test to bite"
    );

    let doc = tel.to_json_value();
    let windows = match doc.get("windows") {
        Some(JsonValue::Array(w)) => w.clone(),
        other => panic!("windows missing: {other:?}"),
    };
    let sum = |key: &str| -> u64 {
        windows
            .iter()
            .filter_map(|w| w.get(key).and_then(JsonValue::as_u64))
            .sum()
    };
    let pu_sum = |key: &str| -> u64 {
        windows
            .iter()
            .filter_map(|w| match w.get(key) {
                Some(JsonValue::Array(a)) => {
                    Some(a.iter().filter_map(JsonValue::as_u64).sum::<u64>())
                }
                _ => None,
            })
            .sum()
    };
    let kind_sum = |kind: &str, field: &str| -> u64 {
        windows
            .iter()
            .filter_map(|w| {
                w.get(kind)
                    .and_then(|k| k.get(field))
                    .and_then(JsonValue::as_u64)
            })
            .sum()
    };

    assert_eq!(pu_sum("pu_steps"), observed.steps);
    assert_eq!(sum("steals"), observed.steals);
    assert_eq!(sum("dram_requests"), observed.dram_requests);
    assert_eq!(
        kind_sum("vertex", "high_priority_hits"),
        observed.mem.vertex.high_priority_hits
    );
    assert_eq!(
        kind_sum("vertex", "cache_hits"),
        observed.mem.vertex.cache_hits
    );
    assert_eq!(kind_sum("vertex", "misses"), observed.mem.vertex.misses);
    assert_eq!(
        kind_sum("edge", "high_priority_hits"),
        observed.mem.edge.high_priority_hits
    );
    assert_eq!(kind_sum("edge", "cache_hits"), observed.mem.edge.cache_hits);
    assert_eq!(kind_sum("edge", "misses"), observed.mem.edge.misses);

    // The totals section agrees with the report too.
    let totals = doc.get("totals").unwrap();
    assert_eq!(
        totals.get("dram_requests").and_then(JsonValue::as_u64),
        Some(observed.dram_requests)
    );
    assert_eq!(
        totals
            .get("vertex")
            .and_then(|v| v.get("misses"))
            .and_then(JsonValue::as_u64),
        Some(observed.mem.vertex.misses)
    );
}

/// Schema v2: a memoized run's probes land in the telemetry document
/// (per-window counters summing to the totals, totals agreeing with the
/// run report) and never perturb the simulation relative to an
/// unobserved memoized run.
#[test]
fn telemetry_records_memo_counters() {
    let cfg = GramerConfig {
        memo: gramer::MemoMode::On { bytes: 1 << 16 },
        ..GramerConfig::default()
    };
    let (plain, observed, tel) = run_both(&ba_graph(), &CliqueFinding::new(4).unwrap(), &cfg);
    assert_eq!(
        semantic_view(&plain),
        semantic_view(&observed),
        "telemetry perturbed the memoized simulation"
    );
    let stats = observed.memo.expect("memoized run must report memo stats");
    assert!(stats.hits > 0, "workload never hit the memo");

    let doc = tel.to_json_value();
    let totals = doc.get("totals").expect("document has totals");
    assert_eq!(
        totals.get("memo_hits").and_then(JsonValue::as_u64),
        Some(stats.hits)
    );
    assert_eq!(
        totals.get("memo_misses").and_then(JsonValue::as_u64),
        Some(stats.misses)
    );
    assert_eq!(
        totals.get("memo_evictions").and_then(JsonValue::as_u64),
        Some(stats.evictions)
    );
    let windows = match doc.get("windows") {
        Some(JsonValue::Array(w)) => w.clone(),
        other => panic!("windows missing: {other:?}"),
    };
    let sum = |key: &str| -> u64 {
        windows
            .iter()
            .filter_map(|w| w.get(key).and_then(JsonValue::as_u64))
            .sum()
    };
    assert_eq!(sum("memo_hits"), stats.hits);
    assert_eq!(sum("memo_misses"), stats.misses);
}
