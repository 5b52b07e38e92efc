//! Shared harness for regenerating every table and figure of the GRAMER
//! paper's evaluation (§VI).
//!
//! Each binary in `src/bin/` reproduces one artifact by declaring its
//! grid of `(dataset, app, config)` points as a [`Sweep`] and handing it
//! to the parallel, fault-tolerant sweep runner (see [`sweep`]). Every
//! binary therefore understands the same CLI — `--jobs N`, `--json PATH`,
//! `--filter SUBSTR`, `--list`, `--resume`, `--point-timeout SECS`,
//! `--max-retries N`, `--journal PATH` — and writes a structured JSON
//! artifact to `results/BENCH_<name>.json` alongside its stdout table.
//! Failing points are quarantined into structured records instead of
//! aborting the sweep; see `EXPERIMENTS.md` for the failure semantics.
//!
//! | binary | artifact |
//! |---|---|
//! | `fig3` | pipeline-stall breakdown on the CPU baseline |
//! | `fig5` | extension locality per iteration (top-5% access shares) |
//! | `fig8` | ON_k accuracy vs computation overhead |
//! | `table2` | resource utilisation and clock rate |
//! | `table3` | running time: GRAMER vs Fractal vs RStream |
//! | `fig11` | energy and total time (incl. preprocessing) |
//! | `fig12` | LAMH vs Uniform-LRU vs Static+LRU |
//! | `table4` | clock rate w/o AB, w/ AB, w/ AB + compaction |
//! | `fig13` | pipeline-slot sweep and work-stealing speedup |
//! | `fig14` | τ and λ sensitivity |
//! | `ablation` | design-choice ablations called out in DESIGN.md |
//!
//! The paper's datasets are generated as scaled power-law analogs (see
//! `gramer_graph::datasets`); divisors below keep each simulated cell in
//! the seconds range on a laptop while preserving the small/medium/large
//! ordering. Set `GRAMER_QUICK=1` for a ~4× faster, coarser pass.
//!
//! # Example
//!
//! A minimal two-point sweep (bins declare real simulation points the
//! same way and call [`Sweep::execute`] instead of [`Sweep::run`]):
//!
//! ```
//! use gramer_bench::{PointOutput, Sweep};
//!
//! let mut sweep = Sweep::new("demo");
//! for k in [3usize, 4] {
//!     sweep.point("toy", &format!("{k}-CF"), "default", move || {
//!         PointOutput::new().metric("k", k)
//!     });
//! }
//! // Two worker threads; results still come back in declaration order.
//! let result = sweep.run(2, None);
//! assert_eq!(result.records.len(), 2);
//! assert_eq!(result.records[0].metric_f64("k"), Some(3.0));
//! // Both points completed, so the failure-aware exit code is 0.
//! assert!(result.records.iter().all(|r| r.is_ok()));
//! assert_eq!(result.exit_code(), 0);
//! ```

#![warn(missing_docs)]

use gramer::json::JsonValue;
use gramer::telemetry::{Telemetry, TelemetryConfig};
use gramer::{
    preprocess, GramerConfig, MemoMode, PreprocessCache, Preprocessed, RunReport, SimError,
    Simulator,
};
use gramer_graph::datasets::Dataset;
use gramer_graph::CsrGraph;
use gramer_mining::apps::{CliqueFinding, FrequentSubgraphMining, MotifCounting};
use gramer_mining::EcmApp;
use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

pub mod perf;
pub mod sweep;

pub use sweep::{
    PointError, PointOutput, PointRecord, PointStatus, Sweep, SweepOptions, SweepResult,
};

/// Whether the quick (coarser) mode is enabled via `GRAMER_QUICK=1`.
pub fn quick_mode() -> bool {
    std::env::var("GRAMER_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Scale divisor applied to each dataset so a software simulator can
/// finish the combinatorial workloads (documented in DESIGN.md §1).
pub fn divisor(d: Dataset) -> usize {
    let base = match d {
        Dataset::Citeseer => 1,
        Dataset::P2p => 2,
        Dataset::Astro => 16,
        Dataset::Mico => 100,
        Dataset::Patents => 1500,
        Dataset::Youtube => 6000,
        Dataset::LiveJournal => 6400,
    };
    if quick_mode() {
        base * 4
    } else {
        base
    }
}

/// Generates the scaled analog of `d`.
pub fn analog(d: Dataset) -> CsrGraph {
    d.generate_scaled(divisor(d))
}

/// Lazily generated, shared dataset analogs.
///
/// Sweep points run on worker threads; routing graph generation through
/// this cache means each dataset analog is built exactly once (on the
/// first thread that needs it) and then shared by reference, instead of
/// every point regenerating its graph.
#[derive(Debug)]
pub struct AnalogCache {
    slots: [(Dataset, OnceLock<CsrGraph>); Dataset::ALL.len()],
}

impl AnalogCache {
    /// An empty cache covering every dataset.
    pub fn new() -> Self {
        AnalogCache {
            slots: Dataset::ALL.map(|d| (d, OnceLock::new())),
        }
    }

    /// The scaled analog of `d`, generated on first use.
    pub fn get(&self, d: Dataset) -> &CsrGraph {
        let (_, slot) = self
            .slots
            .iter()
            .find(|(slot_d, _)| *slot_d == d)
            .expect("every dataset has a slot");
        slot.get_or_init(|| analog(d))
    }
}

impl Default for AnalogCache {
    fn default() -> Self {
        AnalogCache::new()
    }
}

/// FSM occurrence threshold for `d`, scaled like the graph (the paper
/// uses 2K for small/medium graphs, 20K for Patents, 250K for YT/LJ).
pub fn fsm_threshold(d: Dataset) -> u64 {
    let full: u64 = match d {
        Dataset::Patents => 20_000,
        Dataset::Youtube | Dataset::LiveJournal => 250_000,
        _ => 2_000,
    };
    (full / divisor(d) as u64).max(2)
}

/// The application variants of Table III, in presentation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppVariant {
    /// k-clique finding.
    Cf(usize),
    /// k-motif counting.
    Mc(usize),
    /// FSM with the dataset-scaled threshold.
    Fsm,
}

impl AppVariant {
    /// All Table III variants.
    pub const TABLE3: [AppVariant; 6] = [
        AppVariant::Cf(3),
        AppVariant::Cf(4),
        AppVariant::Cf(5),
        AppVariant::Mc(3),
        AppVariant::Mc(4),
        AppVariant::Fsm,
    ];

    /// Display name, with the FSM threshold resolved per dataset.
    pub fn name(self, d: Dataset) -> String {
        match self {
            AppVariant::Cf(k) => format!("{k}-CF"),
            AppVariant::Mc(k) => format!("{k}-MC"),
            AppVariant::Fsm => format!("FSM-{}", fsm_threshold(d)),
        }
    }

    /// Whether this variant tracks patterns (MC/FSM columns of Tables II
    /// and IV).
    pub fn tracks_patterns(self) -> bool {
        !matches!(self, AppVariant::Cf(_))
    }

    /// Runs `f` with the concrete application instantiated for `d`.
    pub fn with_app<R>(self, d: Dataset, f: impl FnOnce(&dyn DynApp) -> R) -> R {
        match self {
            AppVariant::Cf(k) => f(&CliqueFinding::new(k).expect("valid k")),
            AppVariant::Mc(k) => f(&MotifCounting::new(k).expect("valid k")),
            AppVariant::Fsm => f(&FrequentSubgraphMining::new(fsm_threshold(d))),
        }
    }
}

/// Object-safe adapter over [`EcmApp`] so harness code can be generic over
/// variants at runtime.
pub trait DynApp: Sync {
    /// See [`EcmApp::name`].
    fn name(&self) -> String;
    /// See [`EcmApp::max_vertices`].
    fn max_vertices(&self) -> usize;
    /// Runs the GRAMER simulator on a preprocessed graph.
    fn simulate(&self, pre: &Preprocessed, config: GramerConfig) -> Result<RunReport, SimError>;
    /// Like [`DynApp::simulate`], recording cycle-windowed telemetry into
    /// `tel`. Simulated results are identical either way.
    fn simulate_telemetry(
        &self,
        pre: &Preprocessed,
        config: GramerConfig,
        tel: &mut Telemetry,
    ) -> Result<RunReport, SimError>;
    /// Profiles the workload on the modeled CPU.
    fn profile(&self, graph: &CsrGraph) -> gramer_baselines::CpuProfile;
}

impl<A: EcmApp + Sync> DynApp for A {
    fn name(&self) -> String {
        EcmApp::name(self)
    }

    fn max_vertices(&self) -> usize {
        EcmApp::max_vertices(self)
    }

    fn simulate(&self, pre: &Preprocessed, config: GramerConfig) -> Result<RunReport, SimError> {
        Ok(Simulator::new(pre, config)?.run(self)?)
    }

    fn simulate_telemetry(
        &self,
        pre: &Preprocessed,
        config: GramerConfig,
        tel: &mut Telemetry,
    ) -> Result<RunReport, SimError> {
        Ok(Simulator::new(pre, config)?.run_telemetry(self, tel)?)
    }

    fn profile(&self, graph: &CsrGraph) -> gramer_baselines::CpuProfile {
        gramer_baselines::profile_on_cpu(graph, self)
    }
}

/// Process-wide switch for telemetry recording inside [`run_gramer`]
/// (set from the sweep runner's `--metrics` flag).
static METRICS_ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Telemetry rollup of the last [`run_gramer`] call on this thread,
    /// waiting to be claimed by [`take_point_telemetry`]. Thread-local is
    /// the right scope: the sweep runner executes each point closure
    /// entirely on one worker thread and drains the stash right after it
    /// returns.
    static POINT_TELEMETRY: RefCell<Option<JsonValue>> = const { RefCell::new(None) };
}

/// Enables or disables telemetry recording for subsequent
/// [`run_gramer`] calls in this process.
pub fn set_metrics_enabled(on: bool) {
    METRICS_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether [`run_gramer`] currently records telemetry.
pub fn metrics_enabled() -> bool {
    METRICS_ENABLED.load(Ordering::Relaxed)
}

/// Process-wide preprocessing cache used by [`run_gramer`] (set from the
/// sweep runner's `--artifact-cache` flag). `None` means preprocess
/// inline, the prior behavior.
static ARTIFACT_CACHE: Mutex<Option<PreprocessCache>> = Mutex::new(None);

/// Points subsequent [`run_gramer`] calls at an on-disk `.gra`
/// preprocessing cache (see [`PreprocessCache`]), or disables caching
/// with `None`. Sweeps revisiting the same `(dataset, τ, budget)` tuple
/// across points — the common case, since most grids vary simulator
/// knobs — then preprocess each graph once per process *fleet*, not
/// once per point, and reuse entries across runs.
///
/// # Errors
///
/// [`SimError`] if the cache directory cannot be created.
pub fn set_artifact_cache(dir: Option<&std::path::Path>) -> Result<(), SimError> {
    let cache = match dir {
        Some(d) => Some(PreprocessCache::new(d)?),
        None => None,
    };
    match ARTIFACT_CACHE.lock() {
        Ok(mut slot) => *slot = cache,
        Err(poisoned) => *poisoned.into_inner() = cache,
    }
    Ok(())
}

/// The currently configured preprocessing cache, if any.
fn artifact_cache() -> Option<PreprocessCache> {
    match ARTIFACT_CACHE.lock() {
        Ok(slot) => slot.clone(),
        Err(poisoned) => poisoned.into_inner().clone(),
    }
}

/// Claims the telemetry rollup stashed by the most recent
/// [`run_gramer`] call on the calling thread, if any.
pub fn take_point_telemetry() -> Option<JsonValue> {
    POINT_TELEMETRY.with(|t| t.borrow_mut().take())
}

/// Process-wide `sim_threads` override for [`run_gramer`] (set from the
/// sweep runner's `--sim-threads` flag); `0` = keep each point's
/// configured value.
static SIM_THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Process-wide memo-table override for [`run_gramer`] (set from the
/// sweep runner's `--memo` flag): `0` = keep each point's configured
/// mode, `1` = force [`MemoMode::Off`], any other value = force
/// [`MemoMode::On`] with that byte budget. Unlike `--sim-threads` this is
/// a *model* change — cycles, memory traffic
/// and energy legitimately move — but mining results stay bit-identical
/// (the memo only skips probes whose outcome is already known).
static MEMO_OVERRIDE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Installs (or clears, with `None`s) the engine overrides subsequent
/// [`run_gramer`] calls apply on top of each point's config. Driven by
/// the sweep runner's `--sim-threads` / `--memo` flags; by default no
/// override is active and every point runs exactly as declared.
pub fn set_engine_overrides(sim_threads: Option<usize>, memo: Option<MemoMode>) {
    SIM_THREADS_OVERRIDE.store(sim_threads.unwrap_or(0), Ordering::Relaxed);
    // Byte budgets are always >= MEMO_ENTRY_BYTES (> 1), so 0 and 1 are
    // free as "no override" / "force off" sentinels.
    let memo_tag = match memo {
        None => 0,
        Some(MemoMode::Off) => 1,
        Some(MemoMode::On { bytes }) => bytes,
    };
    MEMO_OVERRIDE.store(memo_tag, Ordering::Relaxed);
}

/// Applies the active engine overrides to one point's config.
fn apply_engine_overrides(config: &mut GramerConfig) {
    let threads = SIM_THREADS_OVERRIDE.load(Ordering::Relaxed);
    if threads != 0 {
        config.sim_threads = threads;
    }
    match MEMO_OVERRIDE.load(Ordering::Relaxed) {
        0 => {}
        1 => config.memo = MemoMode::Off,
        bytes => config.memo = MemoMode::On { bytes },
    }
}

/// Runs GRAMER end-to-end (preprocess + simulate) with `config`,
/// surfacing configuration and simulation failures as typed errors the
/// sweep runner turns into structured failure records.
///
/// When metrics are enabled ([`set_metrics_enabled`], driven by the
/// sweep runner's `--metrics` flag), the run additionally records
/// cycle-windowed telemetry and stashes its compact rollup for
/// [`take_point_telemetry`]; simulated results are unaffected.
pub fn run_gramer(
    graph: &CsrGraph,
    app: &dyn DynApp,
    mut config: GramerConfig,
) -> Result<RunReport, SimError> {
    apply_engine_overrides(&mut config);
    // With a cache configured ([`set_artifact_cache`], driven by
    // `--artifact-cache`), preprocessing is memoized on disk as a `.gra`
    // artifact; reports are bit-identical either way.
    let pre = match artifact_cache() {
        Some(cache) => cache.get_or_build(graph, &config)?.0,
        None => preprocess(graph, &config)?,
    };
    if metrics_enabled() {
        let mut tel = Telemetry::new(TelemetryConfig::default());
        let report = app.simulate_telemetry(&pre, config, &mut tel)?;
        POINT_TELEMETRY.with(|t| *t.borrow_mut() = Some(tel.summary_json()));
        Ok(report)
    } else {
        app.simulate(&pre, config)
    }
}

/// Command-line options shared by every experiment binary.
///
/// ```text
/// --jobs N             worker threads (default: available parallelism)
/// --json PATH          JSON artifact path (default: results/BENCH_<name>.json)
/// --filter SUBSTR      only run points whose dataset/app/config id contains SUBSTR
/// --list               print the point ids this binary would run, then exit
/// --resume             replay completed points from the journal, run the rest
/// --point-timeout SECS cancel any point exceeding this wall-clock budget
/// --max-retries N      re-run a failed point up to N extra times
/// --journal PATH       journal path (default: results/.journal/<name>.jsonl)
/// --metrics            record cycle-windowed telemetry per point
/// --artifact-cache DIR memoize preprocessing in DIR as .gra artifacts
/// --help               print usage, then exit
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SweepArgs {
    /// Worker-thread count for the sweep runner.
    pub jobs: usize,
    /// JSON artifact path override (`None` → `results/BENCH_<name>.json`).
    pub json: Option<PathBuf>,
    /// Substring filter over `dataset/app/config` point ids.
    pub filter: Option<String>,
    /// Print the point ids and exit instead of running.
    pub list: bool,
    /// Replay journaled completions instead of re-running them.
    pub resume: bool,
    /// Per-point wall-clock budget in seconds.
    pub point_timeout: Option<f64>,
    /// Extra attempts for failed (not timed-out) points.
    pub max_retries: u32,
    /// Journal path override (`None` → `results/.journal/<name>.jsonl`).
    pub journal: Option<PathBuf>,
    /// Record cycle-windowed telemetry for each point and attach its
    /// rollup to the point's metrics under `"telemetry"`.
    pub metrics: bool,
    /// Directory of the on-disk `.gra` preprocessing cache
    /// ([`set_artifact_cache`]); `None` preprocesses inline per point.
    pub artifact_cache: Option<PathBuf>,
    /// Force every point's `sim_threads` ([`set_engine_overrides`]);
    /// `None` keeps each point's declared value.
    pub sim_threads: Option<usize>,
    /// Force every point's memo-table mode ([`set_engine_overrides`]);
    /// `None` keeps each point's declared mode. A model change — timing
    /// and energy move — but mining results are bit-identical.
    pub memo: Option<MemoMode>,
}

/// Usage text shared by every experiment binary.
pub const SWEEP_USAGE: &str = "\
Options:
  --jobs N             worker threads (default: available parallelism)
  --json PATH          JSON artifact path (default: results/BENCH_<name>.json)
  --filter SUBSTR      only run points whose dataset/app/config id contains SUBSTR
  --list               print the point ids this binary would run, then exit
  --resume             replay completed points from the journal, run the rest
  --point-timeout SECS cancel any point exceeding this wall-clock budget
  --max-retries N      re-run a failed point up to N extra times
  --journal PATH       journal path (default: results/.journal/<name>.jsonl)
  --metrics            record cycle-windowed telemetry per point (attached
                       to each point's metrics under \"telemetry\")
  --artifact-cache DIR memoize preprocessing in DIR as .gra artifacts
                       (keyed by graph digest + tau/budget knobs; reused
                       across runs; simulated results are unchanged)
  --sim-threads N      force every point's sim_threads config knob
                       (host-side cell parallelism; results unchanged)
  --memo on|off|BYTES  force every point's memo-table mode (a model
                       change: timing/energy move, mining results are
                       bit-identical)
  --help               print this help, then exit

Failure semantics:
  A panicking or erroring point becomes a structured \"failed\" record; a
  point past --point-timeout becomes \"timed_out\". The process exits
  non-zero only when every point of some (dataset, app) group failed.

Environment:
  GRAMER_QUICK=1   coarser, ~4x faster pass";

impl Default for SweepArgs {
    fn default() -> Self {
        SweepArgs {
            jobs: default_jobs(),
            json: None,
            filter: None,
            list: false,
            resume: false,
            point_timeout: None,
            max_retries: 0,
            journal: None,
            metrics: false,
            artifact_cache: None,
            sim_threads: None,
            memo: None,
        }
    }
}

impl SweepArgs {
    /// Parses `std::env::args()`, printing usage and exiting on `--help`
    /// or on a malformed command line.
    pub fn parse() -> SweepArgs {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            println!("{SWEEP_USAGE}");
            std::process::exit(0);
        }
        match SweepArgs::try_parse(&args) {
            Ok(parsed) => parsed,
            Err(e) => {
                eprintln!("error: {e}\n\n{SWEEP_USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Parses an argument list (`--opt value` and `--opt=value` forms).
    pub fn try_parse<S: AsRef<str>>(args: &[S]) -> Result<SweepArgs, String> {
        let mut parsed = SweepArgs::default();
        let mut it = args.iter().map(AsRef::as_ref);
        while let Some(arg) = it.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f, Some(v.to_string())),
                None => (arg, None),
            };
            let value = |it: &mut dyn Iterator<Item = &str>| -> Result<String, String> {
                inline
                    .clone()
                    .or_else(|| it.next().map(str::to_string))
                    .ok_or_else(|| format!("{flag} requires a value"))
            };
            match flag {
                "--jobs" => {
                    let v = value(&mut it)?;
                    parsed.jobs =
                        v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                            format!("--jobs expects a positive integer, got {v:?}")
                        })?;
                }
                "--json" => parsed.json = Some(PathBuf::from(value(&mut it)?)),
                "--filter" => parsed.filter = Some(value(&mut it)?),
                "--list" => parsed.list = true,
                "--resume" => parsed.resume = true,
                "--point-timeout" => {
                    let v = value(&mut it)?;
                    parsed.point_timeout = Some(
                        v.parse::<f64>()
                            .ok()
                            .filter(|&s| s.is_finite() && s > 0.0)
                            .ok_or_else(|| {
                                format!("--point-timeout expects positive seconds, got {v:?}")
                            })?,
                    );
                }
                "--max-retries" => {
                    let v = value(&mut it)?;
                    parsed.max_retries = v.parse::<u32>().map_err(|_| {
                        format!("--max-retries expects a non-negative integer, got {v:?}")
                    })?;
                }
                "--journal" => parsed.journal = Some(PathBuf::from(value(&mut it)?)),
                "--metrics" => parsed.metrics = true,
                "--artifact-cache" => parsed.artifact_cache = Some(PathBuf::from(value(&mut it)?)),
                "--sim-threads" => {
                    let v = value(&mut it)?;
                    parsed.sim_threads = Some(
                        v.parse::<usize>()
                            .ok()
                            .filter(|&n| (1..=gramer::MAX_SIM_THREADS).contains(&n))
                            .ok_or_else(|| {
                                format!(
                                    "--sim-threads expects an integer in 1..={}, got {v:?}",
                                    gramer::MAX_SIM_THREADS
                                )
                            })?,
                    );
                }
                "--memo" => parsed.memo = Some(value(&mut it)?.parse()?),
                other => return Err(format!("unknown option {other:?}")),
            }
        }
        Ok(parsed)
    }
}

/// Default worker-thread count: the host's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Standard epilogue for the experiment binaries: prints a summary of any
/// failed or timed-out points to stderr and converts the sweep's failure
/// semantics into the process exit code (non-zero only when every point
/// of some `(dataset, app)` group failed). Use as the last line of
/// `main() -> std::process::ExitCode`.
pub fn finish(result: &SweepResult) -> std::process::ExitCode {
    let failures: Vec<&PointRecord> = result.failures().collect();
    if !failures.is_empty() {
        eprintln!(
            "[{}] {} point(s) did not complete:",
            result.name,
            failures.len()
        );
        for f in &failures {
            let detail = f
                .error
                .as_ref()
                .map(|e| format!("{}: {}", e.kind, e.message))
                .unwrap_or_default();
            eprintln!(
                "[{}]   {} ({}, {} attempt(s)) {detail}",
                result.name,
                f.id(),
                f.status.as_str(),
                f.attempts,
            );
        }
    }
    for (dataset, app) in result.failed_groups() {
        eprintln!(
            "[{}] group {dataset}/{app} has no completed point",
            result.name
        );
    }
    std::process::ExitCode::from(result.exit_code())
}

/// Prints a separator line sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Formats seconds with sensible precision across the table's range.
pub fn fmt_secs(s: f64) -> String {
    if s < 0.01 {
        format!("{s:.4}")
    } else if s < 1.0 {
        format!("{s:.3}")
    } else {
        format!("{s:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that set the process-wide [`run_gramer`]
    /// switches (metrics, artifact cache, engine overrides): the test
    /// harness runs them on parallel threads, and one test's switch must
    /// not leak into another's runs.
    fn lock_run_gramer_switches() -> std::sync::MutexGuard<'static, ()> {
        static SWITCHES: Mutex<()> = Mutex::new(());
        SWITCHES.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn divisors_preserve_size_ordering() {
        let small = analog(Dataset::Citeseer);
        let medium = analog(Dataset::Astro);
        assert!(small.num_vertices() > 0);
        assert!(medium.num_vertices() > 0);
    }

    #[test]
    fn variant_names() {
        assert_eq!(AppVariant::Cf(5).name(Dataset::P2p), "5-CF");
        assert!(AppVariant::Fsm.name(Dataset::Citeseer).starts_with("FSM-"));
        assert!(AppVariant::Mc(4).tracks_patterns());
        assert!(!AppVariant::Cf(3).tracks_patterns());
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(0.0012), "0.0012");
        assert_eq!(fmt_secs(0.123), "0.123");
        assert_eq!(fmt_secs(12.345), "12.35");
    }

    #[test]
    fn sweep_args_parse_both_forms() {
        let a = SweepArgs::try_parse(&["--jobs", "4", "--filter=P2p", "--list"]).unwrap();
        assert_eq!(a.jobs, 4);
        assert_eq!(a.filter.as_deref(), Some("P2p"));
        assert!(a.list);
        assert_eq!(a.json, None);

        let b = SweepArgs::try_parse(&["--jobs=2", "--json", "out.json"]).unwrap();
        assert_eq!(b.jobs, 2);
        assert_eq!(b.json, Some(PathBuf::from("out.json")));

        let c = SweepArgs::try_parse(&["--sim-threads=4"]).unwrap();
        assert_eq!(c.sim_threads, Some(4));
        assert_eq!(SweepArgs::default().sim_threads, None);
        assert!(SweepArgs::try_parse(&["--sim-threads", "0"]).is_err());
        assert!(SweepArgs::try_parse(&["--sim-threads", "65"]).is_err());

        let m = SweepArgs::try_parse(&["--memo", "on"]).unwrap();
        assert!(matches!(m.memo, Some(MemoMode::On { .. })));
        let m = SweepArgs::try_parse(&["--memo=65536"]).unwrap();
        assert_eq!(m.memo, Some(MemoMode::On { bytes: 65536 }));
        let m = SweepArgs::try_parse(&["--memo", "off"]).unwrap();
        assert_eq!(m.memo, Some(MemoMode::Off));
        assert_eq!(SweepArgs::default().memo, None);
        assert!(SweepArgs::try_parse(&["--memo", "sometimes"]).is_err());
        assert!(SweepArgs::try_parse(&["--memo", "7"]).is_err());
    }

    #[test]
    fn memo_override_changes_timing_not_results() {
        let _switches = lock_run_gramer_switches();
        let g = gramer_graph::generate::barabasi_albert(120, 3, 8);
        let app = CliqueFinding::new(4).expect("valid k");
        let base = run_gramer(&g, &app, GramerConfig::default()).unwrap();
        assert!(base.memo.is_none());
        set_engine_overrides(None, Some(MemoMode::On { bytes: 1 << 16 }));
        let memo = run_gramer(&g, &app, GramerConfig::default()).unwrap();
        set_engine_overrides(None, None);
        let stats = memo.memo.expect("override forced the memo on");
        assert!(stats.hits > 0, "4-CF on a BA graph must repeat probes");
        assert_eq!(
            base.result.embeddings, memo.result.embeddings,
            "results are invariant"
        );
        assert_eq!(
            base.result.candidates_examined,
            memo.result.candidates_examined
        );
        // And clearing the override restores the declared (off) mode.
        let again = run_gramer(&g, &app, GramerConfig::default()).unwrap();
        assert!(again.memo.is_none());
        assert_eq!(again.cycles, base.cycles);
    }

    #[test]
    fn sweep_args_reject_bad_input() {
        assert!(SweepArgs::try_parse(&["--jobs"]).is_err());
        assert!(SweepArgs::try_parse(&["--jobs", "0"]).is_err());
        assert!(SweepArgs::try_parse(&["--jobs", "many"]).is_err());
        assert!(SweepArgs::try_parse(&["--bogus"]).is_err());
        assert!(SweepArgs::try_parse(&["--point-timeout", "-3"]).is_err());
        assert!(SweepArgs::try_parse(&["--point-timeout", "nan"]).is_err());
        assert!(SweepArgs::try_parse(&["--max-retries", "-1"]).is_err());
    }

    #[test]
    fn sweep_args_parse_fault_tolerance_flags() {
        let a = SweepArgs::try_parse(&[
            "--resume",
            "--point-timeout=2.5",
            "--max-retries",
            "3",
            "--journal",
            "j.jsonl",
        ])
        .unwrap();
        assert!(a.resume);
        assert_eq!(a.point_timeout, Some(2.5));
        assert_eq!(a.max_retries, 3);
        assert_eq!(a.journal, Some(PathBuf::from("j.jsonl")));

        let d = SweepArgs::try_parse::<&str>(&[]).unwrap();
        assert!(!d.resume);
        assert_eq!(d.point_timeout, None);
        assert_eq!(d.max_retries, 0);
        assert_eq!(d.journal, None);
    }

    #[test]
    fn metrics_flag_parses_and_records_a_rollup() {
        let _switches = lock_run_gramer_switches();
        let a = SweepArgs::try_parse(&["--metrics"]).unwrap();
        assert!(a.metrics);
        let d = SweepArgs::try_parse::<&str>(&[]).unwrap();
        assert!(!d.metrics);

        // With the switch on, run_gramer stashes a telemetry rollup for
        // this thread — without changing the simulated report.
        let g = gramer_graph::generate::barabasi_albert(100, 3, 5);
        let app = CliqueFinding::new(3).expect("valid k");
        let plain = run_gramer(&g, &app, GramerConfig::default()).unwrap();
        assert!(take_point_telemetry().is_none());
        set_metrics_enabled(true);
        let recorded = run_gramer(&g, &app, GramerConfig::default()).unwrap();
        set_metrics_enabled(false);
        let tel = take_point_telemetry().expect("rollup stashed");
        assert!(tel.get("windows").and_then(JsonValue::as_u64).is_some());
        assert_eq!(plain.cycles, recorded.cycles);
        assert_eq!(plain.steps, recorded.steps);
        assert!(take_point_telemetry().is_none(), "stash is claimed once");
    }

    #[test]
    fn artifact_cache_flag_parses_and_reports_match() {
        let _switches = lock_run_gramer_switches();
        let a = SweepArgs::try_parse(&["--artifact-cache", "cachedir"]).unwrap();
        assert_eq!(a.artifact_cache, Some(PathBuf::from("cachedir")));
        let b = SweepArgs::try_parse(&["--artifact-cache=cd2"]).unwrap();
        assert_eq!(b.artifact_cache, Some(PathBuf::from("cd2")));
        let d = SweepArgs::try_parse::<&str>(&[]).unwrap();
        assert_eq!(d.artifact_cache, None);

        // Cached runs produce bit-identical reports to inline ones, both
        // on the cold (store) and warm (load) pass.
        let dir = std::env::temp_dir().join(format!(
            "gramer-bench-artifact-cache-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let g = gramer_graph::generate::barabasi_albert(120, 3, 8);
        let app = CliqueFinding::new(3).expect("valid k");
        let inline = run_gramer(&g, &app, GramerConfig::default()).unwrap();
        set_artifact_cache(Some(dir.as_path())).unwrap();
        let cold = run_gramer(&g, &app, GramerConfig::default()).unwrap();
        let warm = run_gramer(&g, &app, GramerConfig::default()).unwrap();
        set_artifact_cache(None).unwrap();
        let as_json = |r: &RunReport| r.to_json_value().to_string();
        assert_eq!(as_json(&inline), as_json(&cold));
        assert_eq!(as_json(&inline), as_json(&warm));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analog_cache_returns_same_graph() {
        let cache = AnalogCache::new();
        let a = cache.get(Dataset::Citeseer) as *const CsrGraph;
        let b = cache.get(Dataset::Citeseer) as *const CsrGraph;
        assert_eq!(a, b, "second lookup must hit the cached graph");
    }
}
