//! Job specifications, lifecycle states, and records.
//!
//! A *job* is one `(graph, app, config)` simulation request. Clients
//! submit a JSON spec; the supervisor admits it, queues it, runs it under
//! quarantine, and keeps a [`JobRecord`] of everything that happened.
//! Records serialize to JSON for the status endpoints and the crash-safe
//! journal, and the journal round-trip is byte-stable: a replayed
//! record's report serializes identically to the live one (the same
//! property the sweep runner's `--resume` relies on).
//!
//! The status machine is deliberately small and every terminal state is
//! typed — `completed`, `failed`, `panicked`, `timed_out`, `rejected` —
//! so a client (or the chaos test harness) can always tell *how* a job
//! ended without parsing error prose.

use gramer::json::JsonValue;
use gramer::telemetry::{Telemetry, TelemetryConfig};
use gramer::{GramerConfig, MemoryBudget, Preprocessed, RunReport, SimError, Simulator};
use gramer_mining::apps::{CliqueFinding, FrequentSubgraphMining, MotifCounting};
use gramer_mining::{EcmApp, QueryApp, QueryGraph};
use std::path::PathBuf;

/// Where a job's graph comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphSource {
    /// A named generator spec (see [`gramer_graph::generate::named`]).
    Gen(String),
    /// A SNAP-style edge-list file on the daemon's filesystem.
    EdgeList(PathBuf),
    /// A preprocessed `.gra` artifact on the daemon's filesystem.
    Artifact(PathBuf),
    /// An edge list submitted inline in the request body.
    Inline(String),
}

impl GraphSource {
    /// JSON form, the inverse of the parser in [`JobSpec::from_json`].
    pub fn to_json_value(&self) -> JsonValue {
        match self {
            GraphSource::Gen(spec) => JsonValue::object([("gen", JsonValue::from(spec.as_str()))]),
            GraphSource::EdgeList(p) => {
                JsonValue::object([("edge_list", JsonValue::from(p.display().to_string()))])
            }
            GraphSource::Artifact(p) => {
                JsonValue::object([("artifact", JsonValue::from(p.display().to_string()))])
            }
            GraphSource::Inline(text) => {
                JsonValue::object([("inline", JsonValue::from(text.as_str()))])
            }
        }
    }

    /// A short human label for log lines.
    pub fn label(&self) -> String {
        match self {
            GraphSource::Gen(spec) => format!("gen:{spec}"),
            GraphSource::EdgeList(p) => format!("edge-list:{}", p.display()),
            GraphSource::Artifact(p) => format!("artifact:{}", p.display()),
            GraphSource::Inline(text) => format!("inline:{}B", text.len()),
        }
    }
}

/// A validated job submission.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The graph to mine.
    pub graph: GraphSource,
    /// Application spec (`3-cf`, `4-mc`, `fsm:<t>`, ...).
    pub app: String,
    /// Simulator configuration after applying the spec's knob overrides.
    pub config: GramerConfig,
    /// Per-job wall-clock budget override, seconds.
    pub deadline_seconds: Option<f64>,
    /// Per-job retry override for transient failures.
    pub max_retries: Option<u32>,
    /// Whether to record and keep the telemetry rollup.
    pub metrics: bool,
}

impl JobSpec {
    /// Parses and validates a job spec from its JSON form:
    ///
    /// ```json
    /// {
    ///   "graph": {"gen": "golden-ba"},
    ///   "app": "4-cf",
    ///   "config": {"pus": 8, "tau": 0.02, "memo": "on"},
    ///   "deadline_seconds": 10.0,
    ///   "max_retries": 1,
    ///   "metrics": true
    /// }
    /// ```
    ///
    /// Exactly one of `gen` / `edge_list` / `artifact` / `inline` selects
    /// the graph. All fields other than `graph` and `app` are optional.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn from_json(v: &JsonValue) -> Result<JobSpec, String> {
        let graph_obj = v.get("graph").ok_or("missing \"graph\"")?;
        let mut sources = Vec::new();
        if let Some(s) = graph_obj.get("gen").and_then(JsonValue::as_str) {
            sources.push(GraphSource::Gen(s.to_string()));
        }
        if let Some(s) = graph_obj.get("edge_list").and_then(JsonValue::as_str) {
            sources.push(GraphSource::EdgeList(PathBuf::from(s)));
        }
        if let Some(s) = graph_obj.get("artifact").and_then(JsonValue::as_str) {
            sources.push(GraphSource::Artifact(PathBuf::from(s)));
        }
        if let Some(s) = graph_obj.get("inline").and_then(JsonValue::as_str) {
            sources.push(GraphSource::Inline(s.to_string()));
        }
        let graph = match sources.len() {
            1 => sources.remove(0),
            0 => return Err("\"graph\" needs one of gen/edge_list/artifact/inline".to_string()),
            _ => return Err("\"graph\" must select exactly one source".to_string()),
        };

        let app = v
            .get("app")
            .and_then(JsonValue::as_str)
            .ok_or("missing \"app\"")?
            .to_ascii_lowercase();
        validate_app_spec(&app)?;

        let mut config = GramerConfig::default();
        if let Some(c) = v.get("config") {
            apply_config_overrides(&mut config, c)?;
        }
        config.validate().map_err(|e| e.to_string())?;

        let deadline_seconds = match v.get("deadline_seconds") {
            None | Some(JsonValue::Null) => None,
            Some(x) => Some(
                x.as_f64()
                    .filter(|d| d.is_finite() && *d > 0.0)
                    .ok_or("\"deadline_seconds\" must be a positive number")?,
            ),
        };
        let max_retries = match v.get("max_retries") {
            None | Some(JsonValue::Null) => None,
            Some(x) => Some(
                x.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or("\"max_retries\" must be a small non-negative integer")?,
            ),
        };
        let metrics = matches!(v.get("metrics"), Some(JsonValue::Bool(true)));

        Ok(JobSpec {
            graph,
            app,
            config,
            deadline_seconds,
            max_retries,
            metrics,
        })
    }
}

/// Applies the JSON knob overrides a job may carry onto `config`.
fn apply_config_overrides(config: &mut GramerConfig, c: &JsonValue) -> Result<(), String> {
    let pairs = match c {
        JsonValue::Object(pairs) => pairs,
        _ => return Err("\"config\" must be an object".to_string()),
    };
    for (key, value) in pairs {
        match key.as_str() {
            "pus" => {
                config.num_pus = value.as_u64().ok_or("\"pus\" must be an integer")? as usize;
            }
            "slots" => {
                config.slots_per_pu =
                    value.as_u64().ok_or("\"slots\" must be an integer")? as usize;
            }
            "tau" => {
                config.tau = Some(value.as_f64().ok_or("\"tau\" must be a number")?);
            }
            "budget_frac" => {
                config.budget = MemoryBudget::Fraction(
                    value.as_f64().ok_or("\"budget_frac\" must be a number")?,
                );
            }
            "lambda" => {
                config.lambda = value.as_f64().ok_or("\"lambda\" must be a number")?;
            }
            "work_stealing" => {
                config.work_stealing = matches!(value, JsonValue::Bool(true));
            }
            "sim_threads" => {
                // Range is enforced by `config.validate()` after all
                // overrides land, so an out-of-range value becomes the
                // same typed rejection as any other bad knob.
                config.sim_threads =
                    value.as_u64().ok_or("\"sim_threads\" must be an integer")? as usize;
            }
            "memo" => {
                let s = value.as_str().ok_or("\"memo\" must be a string")?;
                config.memo = s.parse()?;
            }
            "adaptive_lambda" => {
                config.adaptive_lambda = matches!(value, JsonValue::Bool(true));
            }
            "repin" => {
                config.repin = matches!(value, JsonValue::Bool(true));
            }
            other => return Err(format!("unknown config knob {other:?}")),
        }
    }
    Ok(())
}

/// Checks an app spec parses without building the app (admission-time
/// validation; the worker builds the real app).
fn validate_app_spec(spec: &str) -> Result<(), String> {
    if let Some(t) = spec.strip_prefix("fsm:") {
        t.parse::<u64>()
            .map(|_| ())
            .map_err(|_| format!("bad FSM threshold {t:?}"))
    } else if let Some(q) = spec.strip_prefix("query:") {
        // Full parse at admission: a malformed query graph is a typed
        // 400, never a queued job that fails on a worker.
        QueryGraph::parse(q)
            .map(|_| ())
            .map_err(|e| format!("bad query spec: {e}"))
    } else {
        let (k, kind) = spec
            .split_once('-')
            .ok_or_else(|| format!("bad app spec {spec:?}"))?;
        k.parse::<usize>()
            .map_err(|_| format!("bad size in {spec:?}"))?;
        match kind {
            "cf" | "mc" => Ok(()),
            other => Err(format!("unknown application kind {other:?}")),
        }
    }
}

/// Runs `app_spec` on `pre` under `config`, optionally recording
/// telemetry — the same adapter `gramer-mine` uses, shared so served
/// reports are byte-identical to CLI reports by construction.
///
/// # Errors
///
/// [`SimError::App`] for bad app specs; the simulator's errors otherwise.
pub fn run_app_spec(
    app_spec: &str,
    pre: &Preprocessed,
    config: GramerConfig,
    telemetry_window: Option<u64>,
) -> Result<(RunReport, Option<Telemetry>), SimError> {
    let run = |app: &dyn DynRun| -> Result<(RunReport, Option<Telemetry>), SimError> {
        let mut tel = telemetry_window.map(|window_cycles| {
            Telemetry::new(TelemetryConfig {
                window_cycles,
                ..TelemetryConfig::default()
            })
        });
        let report = app.run(pre, config.clone(), tel.as_mut())?;
        Ok((report, tel))
    };
    if let Some(t) = app_spec.strip_prefix("fsm:") {
        let threshold: u64 = t
            .parse()
            .map_err(|_| SimError::App(format!("bad FSM threshold {t:?}")))?;
        return run(&FrequentSubgraphMining::new(threshold));
    }
    if let Some(q) = app_spec.strip_prefix("query:") {
        // Filtered subgraph query: same report shape, plus the gated
        // `query` stats block (see `Simulator::run_query`).
        let query =
            QueryGraph::parse(q).map_err(|e| SimError::App(format!("bad query spec: {e}")))?;
        let app = QueryApp::new(query).map_err(SimError::App)?;
        let mut tel = telemetry_window.map(|window_cycles| {
            Telemetry::new(TelemetryConfig {
                window_cycles,
                ..TelemetryConfig::default()
            })
        });
        let sim = Simulator::new(pre, config)?;
        let report = match tel.as_mut() {
            Some(t) => sim.run_query_telemetry(&app, t)?,
            None => sim.run_query(&app)?,
        };
        return Ok((report, tel));
    }
    let (k, kind) = app_spec
        .split_once('-')
        .ok_or_else(|| SimError::App(format!("bad app spec {app_spec:?}")))?;
    let k: usize = k
        .parse()
        .map_err(|_| SimError::App(format!("bad size in {app_spec:?}")))?;
    match kind {
        "cf" => run(&CliqueFinding::new(k).map_err(SimError::App)?),
        "mc" => run(&MotifCounting::new(k).map_err(SimError::App)?),
        other => Err(SimError::App(format!("unknown application kind {other:?}"))),
    }
}

/// Object-safe run adapter (the simulator API is generic over the app).
trait DynRun {
    fn run(
        &self,
        pre: &Preprocessed,
        cfg: GramerConfig,
        tel: Option<&mut Telemetry>,
    ) -> Result<RunReport, SimError>;
}

impl<A: EcmApp> DynRun for A {
    fn run(
        &self,
        pre: &Preprocessed,
        cfg: GramerConfig,
        tel: Option<&mut Telemetry>,
    ) -> Result<RunReport, SimError> {
        let sim = Simulator::new(pre, cfg)?;
        match tel {
            Some(tel) => sim.run_telemetry(self, tel),
            None => sim.run(self),
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for a worker.
    Queued,
    /// Executing on a worker right now.
    Running,
    /// Finished successfully; the record carries the report.
    Completed,
    /// Every attempt ended in a typed error.
    Failed,
    /// Every attempt ended in a panic (quarantined, daemon unharmed).
    Panicked,
    /// Cancelled by the watchdog: wall-clock deadline or step budget.
    TimedOut,
    /// Refused at admission (budget or validation), never queued.
    Rejected,
}

impl JobStatus {
    /// The stable JSON tag.
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Completed => "completed",
            JobStatus::Failed => "failed",
            JobStatus::Panicked => "panicked",
            JobStatus::TimedOut => "timed_out",
            JobStatus::Rejected => "rejected",
        }
    }

    /// Parses the JSON tag (journal replay).
    pub fn parse(s: &str) -> Option<JobStatus> {
        Some(match s {
            "queued" => JobStatus::Queued,
            "running" => JobStatus::Running,
            "completed" => JobStatus::Completed,
            "failed" => JobStatus::Failed,
            "panicked" => JobStatus::Panicked,
            "timed_out" => JobStatus::TimedOut,
            "rejected" => JobStatus::Rejected,
            _ => return None,
        })
    }

    /// Whether the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }
}

/// A structured description of why a job did not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// Machine-readable tag (a [`SimError::kind`] value, `"panic"`,
    /// `"timeout"`, `"queue_full"`, `"over_budget"`, ...).
    pub kind: String,
    /// Human-readable message.
    pub message: String,
}

impl JobError {
    /// Builds a typed error.
    pub fn new(kind: &str, message: impl Into<String>) -> JobError {
        JobError {
            kind: kind.to_string(),
            message: message.into(),
        }
    }

    /// JSON form.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::object([
            ("kind", JsonValue::from(self.kind.as_str())),
            ("message", JsonValue::from(self.message.as_str())),
        ])
    }
}

/// Everything the daemon knows about one job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Monotonic job id, assigned at admission.
    pub id: u64,
    /// The submitted spec, as JSON (round-trips through the journal).
    pub spec_json: JsonValue,
    /// Lifecycle state.
    pub status: JobStatus,
    /// Execution attempts so far (0 until the first attempt starts).
    pub attempts: u32,
    /// Why the job is in a non-completed terminal state.
    pub error: Option<JobError>,
    /// The full `RunReport` JSON for completed jobs.
    pub report_json: Option<JsonValue>,
    /// The telemetry rollup, when the spec asked for metrics.
    pub metrics_json: Option<JsonValue>,
    /// Whether the preprocessed graph came from the warm session cache.
    pub cache_hit: bool,
}

impl JobRecord {
    /// A fresh record in `status` (admission writes `Queued` or
    /// `Rejected`).
    pub fn new(id: u64, spec_json: JsonValue, status: JobStatus) -> JobRecord {
        JobRecord {
            id,
            spec_json,
            status,
            attempts: 0,
            error: None,
            report_json: None,
            metrics_json: None,
            cache_hit: false,
        }
    }

    /// The summary JSON the status endpoints return (everything except
    /// the potentially large report/metrics payloads).
    pub fn summary_json(&self) -> JsonValue {
        JsonValue::object([
            ("id", JsonValue::from(self.id)),
            ("status", JsonValue::from(self.status.as_str())),
            ("attempts", JsonValue::from(u64::from(self.attempts))),
            (
                "error",
                self.error
                    .as_ref()
                    .map_or(JsonValue::Null, JobError::to_json_value),
            ),
            ("cache_hit", JsonValue::from(self.cache_hit)),
            ("has_report", JsonValue::from(self.report_json.is_some())),
            ("has_metrics", JsonValue::from(self.metrics_json.is_some())),
        ])
    }

    /// The full JSON form, used verbatim as the journal line.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::object([
            ("id", JsonValue::from(self.id)),
            ("status", JsonValue::from(self.status.as_str())),
            ("attempts", JsonValue::from(u64::from(self.attempts))),
            (
                "error",
                self.error
                    .as_ref()
                    .map_or(JsonValue::Null, JobError::to_json_value),
            ),
            ("cache_hit", JsonValue::from(self.cache_hit)),
            ("spec", self.spec_json.clone()),
            (
                "report",
                self.report_json.clone().unwrap_or(JsonValue::Null),
            ),
            (
                "metrics",
                self.metrics_json.clone().unwrap_or(JsonValue::Null),
            ),
        ])
    }

    /// Rebuilds a record from a journal line; `None` when the line is
    /// structurally unusable (replay skips it).
    pub fn from_json(v: &JsonValue) -> Option<JobRecord> {
        let id = v.get("id")?.as_u64()?;
        let status = JobStatus::parse(v.get("status")?.as_str()?)?;
        let attempts = v.get("attempts").and_then(JsonValue::as_u64).unwrap_or(0) as u32;
        let error = match v.get("error") {
            None | Some(JsonValue::Null) => None,
            Some(e) => Some(JobError {
                kind: e.get("kind")?.as_str()?.to_string(),
                message: e
                    .get("message")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string(),
            }),
        };
        let spec_json = v.get("spec")?.clone();
        let opt = |key: &str| match v.get(key) {
            None | Some(JsonValue::Null) => None,
            Some(x) => Some(x.clone()),
        };
        Some(JobRecord {
            id,
            spec_json,
            status,
            attempts,
            error,
            report_json: opt("report"),
            metrics_json: opt("metrics"),
            cache_hit: matches!(v.get("cache_hit"), Some(JsonValue::Bool(true))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_json(graph: &str) -> JsonValue {
        JsonValue::parse(&format!(
            "{{\"graph\": {graph}, \"app\": \"3-cf\", \"metrics\": true}}"
        ))
        .expect("spec parses")
    }

    #[test]
    fn parses_minimal_spec() {
        let spec = JobSpec::from_json(&spec_json("{\"gen\": \"golden-ba\"}")).expect("valid");
        assert_eq!(spec.graph, GraphSource::Gen("golden-ba".to_string()));
        assert_eq!(spec.app, "3-cf");
        assert!(spec.metrics);
        assert_eq!(spec.deadline_seconds, None);
    }

    #[test]
    fn rejects_zero_or_two_graph_sources() {
        assert!(JobSpec::from_json(&spec_json("{}")).is_err());
        assert!(
            JobSpec::from_json(&spec_json("{\"gen\": \"demo\", \"inline\": \"0 1\"}")).is_err()
        );
    }

    #[test]
    fn rejects_bad_app_and_unknown_knob() {
        let v =
            JsonValue::parse("{\"graph\": {\"gen\": \"demo\"}, \"app\": \"9-zz\"}").expect("json");
        assert!(JobSpec::from_json(&v).is_err());
        let v = JsonValue::parse(
            "{\"graph\": {\"gen\": \"demo\"}, \"app\": \"3-cf\", \"config\": {\"warp\": 9}}",
        )
        .expect("json");
        assert!(JobSpec::from_json(&v).unwrap_err().contains("warp"));
        // The retired host-engine knobs are unknown knobs like any other.
        for (knob, value) in [
            ("scheduler", "\"heap\""),
            ("epoch", "\"off\""),
            ("access_path", "\"exact\""),
        ] {
            let v = JsonValue::parse(&format!(
                "{{\"graph\": {{\"gen\": \"demo\"}}, \"app\": \"3-cf\", \
                 \"config\": {{\"{knob}\": {value}}}}}"
            ))
            .expect("json");
            assert_eq!(
                JobSpec::from_json(&v).unwrap_err(),
                format!("unknown config knob {knob:?}")
            );
        }
    }

    #[test]
    fn query_app_spec_is_validated_at_admission() {
        let v =
            JsonValue::parse("{\"graph\": {\"gen\": \"demo\"}, \"app\": \"query:1,2,1:0-1,1-2\"}")
                .expect("json");
        let spec = JobSpec::from_json(&v).expect("valid query spec admitted");
        assert_eq!(spec.app, "query:1,2,1:0-1,1-2");
        // A structurally bad query (1 vertex) is a typed 400 at admission.
        let v = JsonValue::parse("{\"graph\": {\"gen\": \"demo\"}, \"app\": \"query:1:0-1\"}")
            .expect("json");
        assert!(JobSpec::from_json(&v).unwrap_err().contains("query"));
        // A disconnected query is refused too.
        let v = JsonValue::parse(
            "{\"graph\": {\"gen\": \"demo\"}, \"app\": \"query:1,1,2,2:0-1,2-3\"}",
        )
        .expect("json");
        assert!(JobSpec::from_json(&v).unwrap_err().contains("query"));
    }

    #[test]
    fn config_overrides_apply() {
        let v = JsonValue::parse(
            "{\"graph\": {\"gen\": \"demo\"}, \"app\": \"3-mc\", \
             \"config\": {\"pus\": 4, \"tau\": 0.05, \"sim_threads\": 4}}",
        )
        .expect("json");
        let spec = JobSpec::from_json(&v).expect("valid");
        assert_eq!(spec.config.num_pus, 4);
        assert_eq!(spec.config.tau, Some(0.05));
        assert_eq!(spec.config.sim_threads, 4);
    }

    #[test]
    fn memo_and_adaptive_knobs_apply() {
        let v = JsonValue::parse(
            "{\"graph\": {\"gen\": \"demo\"}, \"app\": \"3-cf\", \
             \"config\": {\"memo\": \"65536\", \"adaptive_lambda\": true, \"repin\": true}}",
        )
        .expect("json");
        let spec = JobSpec::from_json(&v).expect("valid");
        assert_eq!(spec.config.memo, gramer::MemoMode::On { bytes: 65536 });
        assert!(spec.config.adaptive_lambda);
        assert!(spec.config.repin);
        // Defaults stay off when the knobs are absent.
        let spec = JobSpec::from_json(&spec_json("{\"gen\": \"demo\"}")).expect("valid");
        assert_eq!(spec.config.memo, gramer::MemoMode::Off);
        assert!(!spec.config.adaptive_lambda);
        assert!(!spec.config.repin);
    }

    #[test]
    fn bad_memo_knob_is_rejected_at_admission() {
        // A malformed mode string fails the override parser; a budget
        // below one entry passes parsing as `On` only via "on", so the
        // sub-entry numeric is refused with a typed message. Either way
        // the job is a 400, never queued.
        for bad in ["\"sometimes\"", "\"7\"", "true"] {
            let v = JsonValue::parse(&format!(
                "{{\"graph\": {{\"gen\": \"demo\"}}, \"app\": \"3-cf\", \
                 \"config\": {{\"memo\": {bad}}}}}"
            ))
            .expect("json");
            let err = JobSpec::from_json(&v).unwrap_err();
            assert!(err.contains("memo"), "bad={bad}: {err}");
        }
    }

    #[test]
    fn sim_threads_out_of_range_is_rejected_at_admission() {
        // Zero and above-MAX both fail `config.validate()`, which the
        // server surfaces as a typed 400 — never a queued job.
        for bad in ["0", "65"] {
            let v = JsonValue::parse(&format!(
                "{{\"graph\": {{\"gen\": \"demo\"}}, \"app\": \"3-cf\", \
                 \"config\": {{\"sim_threads\": {bad}}}}}"
            ))
            .expect("json");
            let err = JobSpec::from_json(&v).unwrap_err();
            assert!(err.contains("sim_threads"), "bad={bad}: {err}");
        }
        // A non-integer is rejected by the override parser itself.
        let v = JsonValue::parse(
            "{\"graph\": {\"gen\": \"demo\"}, \"app\": \"3-cf\", \
             \"config\": {\"sim_threads\": \"many\"}}",
        )
        .expect("json");
        assert!(JobSpec::from_json(&v).unwrap_err().contains("sim_threads"));
    }

    #[test]
    fn record_roundtrips_through_json() {
        let mut rec = JobRecord::new(7, spec_json("{\"gen\": \"demo\"}"), JobStatus::Queued);
        rec.status = JobStatus::Panicked;
        rec.attempts = 2;
        rec.error = Some(JobError::new("panic", "kaboom (at x.rs:1)"));
        rec.cache_hit = true;
        let back = JobRecord::from_json(&rec.to_json_value()).expect("roundtrip");
        assert_eq!(back.id, 7);
        assert_eq!(back.status, JobStatus::Panicked);
        assert_eq!(back.attempts, 2);
        assert_eq!(back.error, rec.error);
        assert!(back.cache_hit);
        assert!(back.report_json.is_none());
    }

    #[test]
    fn terminal_states_are_typed() {
        for (s, terminal) in [
            (JobStatus::Queued, false),
            (JobStatus::Running, false),
            (JobStatus::Completed, true),
            (JobStatus::Failed, true),
            (JobStatus::Panicked, true),
            (JobStatus::TimedOut, true),
            (JobStatus::Rejected, true),
        ] {
            assert_eq!(s.is_terminal(), terminal);
            assert_eq!(JobStatus::parse(s.as_str()), Some(s));
        }
    }
}
