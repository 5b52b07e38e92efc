//! The job supervisor: admission control, a bounded worker pool, panic
//! quarantine, watchdog cancellation, retry with backoff, and the
//! crash-safe journal.
//!
//! Fault-containment invariants, in decreasing order of importance:
//!
//! 1. **The daemon never dies because of a job.** Every attempt runs
//!    under [`gramer::supervise::run_quarantined`]; a panicking job ends
//!    in a typed `panicked` record, not an aborted process.
//! 2. **Every admitted job reaches a typed terminal state.** The
//!    watchdog cancels jobs over their wall-clock deadline or step
//!    budget via the cooperative [`gramer::progress`] token
//!    (`timed_out`); simulator errors become `failed` with the
//!    [`gramer::SimError::kind`] tag; over-budget submissions become
//!    `rejected` records. Nothing is silently dropped.
//! 3. **State survives restarts.** Each transition is journaled through
//!    [`crate::journal::JobJournal`]; on start the journal is replayed,
//!    terminal results are restored verbatim, and interrupted jobs are
//!    re-queued. A journal *write* failure degrades the daemon to
//!    in-memory operation (with a stderr warning) rather than failing
//!    jobs — durability is best-effort, execution is not.
//! 4. **Back-pressure is explicit.** A full queue rejects new work with
//!    a typed error the HTTP layer maps to 429; it never blocks the
//!    accept loop or grows without bound.
//!
//! Retries cover *transient* failures only (today: chaos-injected I/O
//! faults, the stand-in for "the NFS mount hiccuped"), with exponential
//! backoff. Deterministic failures — bad specs, simulator errors,
//! panics, deadline overruns — fail fast on the first attempt.

use crate::chaos::{self, ChaosConfig};
use crate::job::{run_app_spec, GraphSource, JobError, JobRecord, JobSpec, JobStatus};
use crate::journal::JobJournal;
use crate::session::SessionCache;
use gramer::json::JsonValue;
use gramer::{progress, supervise, Preprocessed, SimError};
use gramer_graph::{artifact, generate, io};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`Supervisor`].
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Worker threads executing jobs (0 = accept and queue only; used
    /// by the restart tests and drained shutdown).
    pub workers: usize,
    /// Maximum queued (admitted, not yet running) jobs before
    /// submissions are rejected with a queue-full error.
    pub queue_capacity: usize,
    /// Wall-clock budget for a job that does not set its own, seconds.
    pub default_deadline_seconds: f64,
    /// Largest per-job deadline a submission may request, seconds.
    pub max_deadline_seconds: f64,
    /// Retry budget for transient failures when the job does not set
    /// its own.
    pub default_max_retries: u32,
    /// Largest retry budget a submission may request.
    pub max_retries_cap: u32,
    /// Admission cap on the job's estimated graph bytes (edge-list /
    /// artifact file size, inline text length; generated graphs are
    /// bounded by their spec instead).
    pub max_graph_bytes: u64,
    /// Step (heartbeat-tick) budget per attempt; 0 disables it.
    pub max_steps: u64,
    /// Base backoff before the first retry, milliseconds (doubles per
    /// attempt, capped at 1 s).
    pub retry_backoff_ms: u64,
    /// Byte budget of the in-memory session cache.
    pub session_cache_bytes: u64,
    /// Telemetry window width (cycles) for jobs that request metrics.
    pub telemetry_window: u64,
    /// Fault injection; [`ChaosConfig::default`] injects nothing.
    pub chaos: ChaosConfig,
    /// Journal file; `None` runs without durability.
    pub journal_path: Option<PathBuf>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            workers: 2,
            queue_capacity: 64,
            default_deadline_seconds: 60.0,
            max_deadline_seconds: 600.0,
            default_max_retries: 1,
            max_retries_cap: 5,
            max_graph_bytes: 1 << 30,
            max_steps: 0,
            retry_backoff_ms: 25,
            session_cache_bytes: 256 << 20,
            telemetry_window: 1024,
            chaos: ChaosConfig::default(),
            journal_path: None,
        }
    }
}

/// Why a submission was not admitted (no record is created for these;
/// over-budget submissions *do* get a `rejected` record instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The spec failed validation (HTTP 400).
    Invalid(String),
    /// The queue is at capacity (HTTP 429).
    QueueFull,
    /// The daemon is draining for shutdown (HTTP 503).
    ShuttingDown,
}

/// What the watchdog cancelled a job for.
const CANCEL_NONE: u8 = 0;
const CANCEL_DEADLINE: u8 = 1;
const CANCEL_STEPS: u8 = 2;

struct Watch {
    token: progress::ProgressToken,
    started: Instant,
    deadline: Duration,
    max_steps: u64,
    reason: AtomicU8,
}

/// Mutable supervisor state under one lock (records + queue share the
/// lock so admission and journal snapshots are consistent).
struct Jobs {
    records: BTreeMap<u64, JobRecord>,
    queue: VecDeque<u64>,
    next_id: u64,
    shutting_down: bool,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    panicked: AtomicU64,
    timed_out: AtomicU64,
    rejected: AtomicU64,
    queue_full: AtomicU64,
    retries: AtomicU64,
    journal_errors: AtomicU64,
}

struct Shared {
    cfg: SupervisorConfig,
    jobs: Mutex<Jobs>,
    cvar: Condvar,
    session: SessionCache,
    running: Mutex<HashMap<u64, Arc<Watch>>>,
    journal: Option<JobJournal>,
    counters: Counters,
    stop_watchdog: AtomicBool,
}

/// The supervisor: owns the worker pool and all job state.
///
/// Thread handles sit behind mutexes so [`Supervisor::shutdown_and_join`]
/// works through a shared reference (the server holds the supervisor in
/// an `Arc` shared with its connection handlers).
pub struct Supervisor {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    watchdog: Mutex<Option<JoinHandle<()>>>,
}

impl Supervisor {
    /// Starts the worker pool (and watchdog), replaying the journal if
    /// one is configured: terminal records are restored verbatim,
    /// interrupted ones re-queued.
    ///
    /// # Errors
    ///
    /// An I/O error reading an existing journal file (corrupt *content*
    /// is tolerated and skipped, only a failing read aborts startup).
    pub fn start(cfg: SupervisorConfig) -> std::io::Result<Supervisor> {
        let journal = cfg.journal_path.clone().map(JobJournal::new);
        let mut jobs = Jobs {
            records: BTreeMap::new(),
            queue: VecDeque::new(),
            next_id: 1,
            shutting_down: false,
        };
        if let Some(journal) = &journal {
            let replay = journal.replay()?;
            if replay.skipped_lines > 0 {
                eprintln!(
                    "gramer-serve: journal replay skipped {} corrupt line(s)",
                    replay.skipped_lines
                );
            }
            for rec in replay.records {
                jobs.next_id = jobs.next_id.max(rec.id + 1);
                jobs.records.insert(rec.id, rec);
            }
            jobs.queue.extend(&replay.requeued);
        }
        let shared = Arc::new(Shared {
            session: SessionCache::new(cfg.session_cache_bytes),
            jobs: Mutex::new(jobs),
            cvar: Condvar::new(),
            running: Mutex::new(HashMap::new()),
            journal,
            counters: Counters::default(),
            stop_watchdog: AtomicBool::new(false),
            cfg,
        });
        // Normalize the journal right away so a replayed `running`
        // record is durably back to `queued` even if we crash again
        // before a worker picks it up.
        shared.persist(&shared.lock_jobs());

        let workers = (0..shared.cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gramer-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let watchdog = if shared.cfg.workers > 0 {
            let shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("gramer-serve-watchdog".to_string())
                    .spawn(move || watchdog_loop(&shared))?,
            )
        } else {
            None
        };
        Ok(Supervisor {
            shared,
            workers: Mutex::new(workers),
            watchdog: Mutex::new(watchdog),
        })
    }

    /// Admission control: validates, applies budgets, and either queues
    /// the job or records why not. Returns a snapshot of the new record
    /// (status `queued`, or `rejected` for valid-but-over-budget
    /// submissions).
    ///
    /// # Errors
    ///
    /// [`SubmitError`] for submissions that create no record at all:
    /// malformed specs, a full queue, or a draining daemon.
    pub fn submit(&self, body: &JsonValue) -> Result<JobRecord, SubmitError> {
        let spec = JobSpec::from_json(body).map_err(SubmitError::Invalid)?;
        let rejection = self.admission_error(&spec);
        let mut jobs = self.shared.lock_jobs();
        if jobs.shutting_down {
            return Err(SubmitError::ShuttingDown);
        }
        if rejection.is_none() && jobs.queue.len() >= self.shared.cfg.queue_capacity {
            self.shared
                .counters
                .queue_full
                .fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::QueueFull);
        }
        let id = jobs.next_id;
        jobs.next_id += 1;
        self.shared
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        let mut record = JobRecord::new(id, body.clone(), JobStatus::Queued);
        match rejection {
            Some(error) => {
                record.status = JobStatus::Rejected;
                record.error = Some(error);
                self.shared
                    .counters
                    .rejected
                    .fetch_add(1, Ordering::Relaxed);
            }
            None => jobs.queue.push_back(id),
        }
        let snapshot = record.clone();
        jobs.records.insert(id, record);
        self.shared.persist(&jobs);
        drop(jobs);
        self.shared.cvar.notify_one();
        Ok(snapshot)
    }

    /// The admission-time budget checks (everything that yields a typed
    /// `rejected` record rather than an HTTP-level refusal).
    fn admission_error(&self, spec: &JobSpec) -> Option<JobError> {
        let cfg = &self.shared.cfg;
        if let Some(d) = spec.deadline_seconds {
            if d > cfg.max_deadline_seconds {
                return Some(JobError::new(
                    "over_budget",
                    format!(
                        "deadline {d}s exceeds the {}s cap",
                        cfg.max_deadline_seconds
                    ),
                ));
            }
        }
        if let Some(r) = spec.max_retries {
            if r > cfg.max_retries_cap {
                return Some(JobError::new(
                    "over_budget",
                    format!("max_retries {r} exceeds the cap of {}", cfg.max_retries_cap),
                ));
            }
        }
        let estimate = match &spec.graph {
            GraphSource::Gen(_) => 0,
            GraphSource::Inline(text) => text.len() as u64,
            GraphSource::EdgeList(path) | GraphSource::Artifact(path) => {
                match std::fs::metadata(path) {
                    Ok(meta) if meta.is_file() => meta.len(),
                    Ok(_) => {
                        return Some(JobError::new(
                            "io",
                            format!("{} is not a regular file", path.display()),
                        ))
                    }
                    Err(e) => {
                        return Some(JobError::new(
                            "io",
                            format!("cannot stat {}: {e}", path.display()),
                        ))
                    }
                }
            }
        };
        if estimate > cfg.max_graph_bytes {
            return Some(JobError::new(
                "over_budget",
                format!(
                    "graph is ~{estimate} bytes, over the {} byte admission cap",
                    cfg.max_graph_bytes
                ),
            ));
        }
        None
    }

    /// A snapshot of one job's record.
    pub fn job(&self, id: u64) -> Option<JobRecord> {
        self.shared.lock_jobs().records.get(&id).cloned()
    }

    /// Summaries of all jobs, in id order.
    pub fn jobs_json(&self) -> JsonValue {
        let jobs = self.shared.lock_jobs();
        JsonValue::Array(jobs.records.values().map(JobRecord::summary_json).collect())
    }

    /// Jobs currently queued (admitted, not running).
    pub fn queue_depth(&self) -> usize {
        self.shared.lock_jobs().queue.len()
    }

    /// Blocks until `id` reaches a terminal state or `timeout` passes.
    /// Returns the final record, or `None` on timeout / unknown id.
    pub fn wait_for(&self, id: u64, timeout: Duration) -> Option<JobRecord> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.job(id) {
                Some(rec) if rec.status.is_terminal() => return Some(rec),
                Some(_) => {}
                None => return None,
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// The `/stats` document: lifecycle counters, queue state, and
    /// session-cache behaviour.
    pub fn stats_json(&self) -> JsonValue {
        let (queue_depth, job_count, shutting_down) = {
            let jobs = self.shared.lock_jobs();
            (jobs.queue.len(), jobs.records.len(), jobs.shutting_down)
        };
        let c = &self.shared.counters;
        let s = self.shared.session.stats();
        let load = |a: &AtomicU64| JsonValue::from(a.load(Ordering::Relaxed));
        JsonValue::object([
            ("workers", JsonValue::from(self.shared.cfg.workers)),
            (
                "queue_capacity",
                JsonValue::from(self.shared.cfg.queue_capacity),
            ),
            ("queue_depth", JsonValue::from(queue_depth)),
            ("jobs", JsonValue::from(job_count)),
            ("shutting_down", JsonValue::from(shutting_down)),
            ("submitted", load(&c.submitted)),
            ("completed", load(&c.completed)),
            ("failed", load(&c.failed)),
            ("panicked", load(&c.panicked)),
            ("timed_out", load(&c.timed_out)),
            ("rejected", load(&c.rejected)),
            ("queue_full_rejections", load(&c.queue_full)),
            ("retries", load(&c.retries)),
            ("journal_errors", load(&c.journal_errors)),
            (
                "session_cache",
                JsonValue::object([
                    ("hits", JsonValue::from(s.hits)),
                    ("misses", JsonValue::from(s.misses)),
                    ("evictions", JsonValue::from(s.evictions)),
                    ("resident_bytes", JsonValue::from(s.resident_bytes)),
                    ("entries", JsonValue::from(s.entries)),
                ]),
            ),
        ])
    }

    /// Graceful shutdown: stop accepting and handing out queued work,
    /// let in-flight jobs finish, join the pool, flush the journal.
    /// Queued jobs stay `queued` in the journal for the next start.
    pub fn shutdown_and_join(&self) {
        {
            let mut jobs = self.shared.lock_jobs();
            jobs.shutting_down = true;
        }
        self.shared.cvar.notify_all();
        let workers = std::mem::take(
            &mut *self
                .workers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for handle in workers {
            let _ = handle.join();
        }
        self.shared.stop_watchdog.store(true, Ordering::Relaxed);
        let watchdog = self
            .watchdog
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        if let Some(watchdog) = watchdog {
            let _ = watchdog.join();
        }
        let jobs = self.shared.lock_jobs();
        self.shared.persist(&jobs);
    }
}

impl Shared {
    fn lock_jobs(&self) -> MutexGuard<'_, Jobs> {
        // A worker panicking while holding this lock is already a bug
        // contained by the quarantine; the state itself (maps + queue)
        // stays structurally valid, so recover the guard.
        self.jobs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Writes the journal snapshot for the current record set. Journal
    /// failures degrade to in-memory operation with a warning; they
    /// never fail the job.
    fn persist(&self, jobs: &MutexGuard<'_, Jobs>) {
        if let Some(journal) = &self.journal {
            if let Err(e) = journal.write_snapshot(jobs.records.values()) {
                let n = self.counters.journal_errors.fetch_add(1, Ordering::Relaxed);
                if n == 0 {
                    eprintln!(
                        "gramer-serve: journal write failed ({e}); continuing without durability"
                    );
                }
            }
        }
    }

    fn update_record(&self, id: u64, f: impl FnOnce(&mut JobRecord)) {
        let mut jobs = self.lock_jobs();
        if let Some(rec) = jobs.records.get_mut(&id) {
            f(rec);
        }
        self.persist(&jobs);
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let id = {
            let mut jobs = shared.lock_jobs();
            loop {
                if let Some(id) = jobs.queue.pop_front() {
                    break Some(id);
                }
                if jobs.shutting_down {
                    break None;
                }
                jobs = shared
                    .cvar
                    .wait(jobs)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        match id {
            Some(id) => run_job(shared, id),
            None => return,
        }
    }
}

/// One attempt's successful payload.
struct AttemptOutput {
    report_json: JsonValue,
    metrics_json: Option<JsonValue>,
    cache_hit: bool,
}

fn run_job(shared: &Shared, id: u64) {
    let Some(spec_json) = shared
        .lock_jobs()
        .records
        .get(&id)
        .map(|r| r.spec_json.clone())
    else {
        return;
    };
    let spec = match JobSpec::from_json(&spec_json) {
        Ok(spec) => spec,
        Err(msg) => {
            // Unreachable for live submissions (validated at admission);
            // covers hand-edited journals.
            finish(
                shared,
                id,
                JobStatus::Failed,
                Some(JobError::new("invalid", msg)),
            );
            return;
        }
    };
    let cfg = &shared.cfg;
    let deadline = Duration::from_secs_f64(
        spec.deadline_seconds
            .unwrap_or(cfg.default_deadline_seconds),
    );
    let max_retries = spec.max_retries.unwrap_or(cfg.default_max_retries);

    let mut attempt: u32 = 0;
    loop {
        attempt += 1;
        shared.update_record(id, |rec| {
            rec.status = JobStatus::Running;
            rec.attempts = attempt;
        });

        let token = progress::ProgressToken::new();
        let watch = Arc::new(Watch {
            token: token.clone(),
            started: Instant::now(),
            deadline,
            max_steps: cfg.max_steps,
            reason: AtomicU8::new(CANCEL_NONE),
        });
        shared
            .running
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(id, Arc::clone(&watch));

        let outcome = supervise::run_quarantined(|| {
            let _guard = progress::install(token.clone());
            shared.cfg.chaos.inject(id, attempt - 1)?;
            let (pre, cache_hit) = resolve_preprocessed(shared, &spec)?;
            let window = spec.metrics.then_some(cfg.telemetry_window);
            let (report, tel) = run_app_spec(&spec.app, &pre, spec.config.clone(), window)?;
            Ok(AttemptOutput {
                report_json: report.to_json_value(),
                metrics_json: tel.map(|t| t.to_json_value()),
                cache_hit,
            })
        });

        shared
            .running
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove(&id);

        match outcome {
            supervise::Outcome::Ok(out) => {
                shared.update_record(id, |rec| {
                    rec.status = JobStatus::Completed;
                    rec.error = None;
                    rec.report_json = Some(out.report_json.clone());
                    rec.metrics_json = out.metrics_json.clone();
                    rec.cache_hit = out.cache_hit;
                });
                shared.counters.completed.fetch_add(1, Ordering::Relaxed);
                return;
            }
            supervise::Outcome::Err(e) => {
                let message = e.to_string();
                if chaos::is_injected_io(&message) && attempt <= max_retries {
                    shared.counters.retries.fetch_add(1, Ordering::Relaxed);
                    let backoff = (shared.cfg.retry_backoff_ms << (attempt - 1)).min(1000);
                    std::thread::sleep(Duration::from_millis(backoff));
                    continue;
                }
                finish(
                    shared,
                    id,
                    JobStatus::Failed,
                    Some(JobError::new(e.kind(), message)),
                );
                return;
            }
            supervise::Outcome::Panicked(message) => {
                finish(
                    shared,
                    id,
                    JobStatus::Panicked,
                    Some(JobError::new("panic", message)),
                );
                return;
            }
            supervise::Outcome::Cancelled => {
                let why = match watch.reason.load(Ordering::Relaxed) {
                    CANCEL_STEPS => {
                        format!("step budget of {} heartbeat ticks exhausted", cfg.max_steps)
                    }
                    _ => format!("deadline of {:.3}s exceeded", deadline.as_secs_f64()),
                };
                finish(
                    shared,
                    id,
                    JobStatus::TimedOut,
                    Some(JobError::new("timeout", why)),
                );
                return;
            }
        }
    }
}

fn finish(shared: &Shared, id: u64, status: JobStatus, error: Option<JobError>) {
    shared.update_record(id, |rec| {
        rec.status = status;
        rec.error = error;
    });
    let counter = match status {
        JobStatus::Failed => &shared.counters.failed,
        JobStatus::Panicked => &shared.counters.panicked,
        JobStatus::TimedOut => &shared.counters.timed_out,
        JobStatus::Rejected => &shared.counters.rejected,
        _ => return,
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Resolves the job's graph through the shared session cache. The
/// cache key combines a digest of the *source* (file bytes, inline
/// text, or generator spec string) with the preprocessing-relevant
/// config knobs, mirroring [`gramer::PreprocessCache`].
fn resolve_preprocessed(
    shared: &Shared,
    spec: &JobSpec,
) -> Result<(Arc<Preprocessed>, bool), SimError> {
    match &spec.graph {
        GraphSource::Gen(gen_spec) => {
            let digest = artifact::fnv1a(format!("gen:{gen_spec}").as_bytes());
            let key = SessionCache::key(digest, &spec.config);
            shared.session.get_or_build(key, || {
                let graph = generate::named(gen_spec)?;
                Ok(gramer::preprocess(&graph, &spec.config)?)
            })
        }
        GraphSource::Inline(text) => {
            let digest = artifact::fnv1a(text.as_bytes());
            let key = SessionCache::key(digest, &spec.config);
            shared.session.get_or_build(key, || {
                let graph = io::read_edge_list(text.as_bytes())?;
                Ok(gramer::preprocess(&graph, &spec.config)?)
            })
        }
        GraphSource::EdgeList(path) => {
            let bytes = std::fs::read(path)
                .map_err(|e| SimError::App(format!("cannot read {}: {e}", path.display())))?;
            let digest = artifact::fnv1a(&bytes);
            let key = SessionCache::key(digest, &spec.config);
            shared.session.get_or_build(key, || {
                let graph = io::read_edge_list(&bytes[..])?;
                Ok(gramer::preprocess(&graph, &spec.config)?)
            })
        }
        GraphSource::Artifact(path) => {
            let art = gramer_graph::GraphArtifact::open(path)?;
            let key = SessionCache::key(art.payload_digest(), &spec.config);
            shared
                .session
                .get_or_build(key, || Preprocessed::from_artifact(&art, &spec.config))
        }
    }
}

fn watchdog_loop(shared: &Shared) {
    while !shared.stop_watchdog.load(Ordering::Relaxed) {
        {
            let running = shared
                .running
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for watch in running.values() {
                if watch.token.is_cancelled() {
                    continue;
                }
                if watch.started.elapsed() > watch.deadline {
                    watch.reason.store(CANCEL_DEADLINE, Ordering::Relaxed);
                    watch.token.cancel();
                } else if watch.max_steps > 0 && watch.token.heartbeat() > watch.max_steps {
                    watch.reason.store(CANCEL_STEPS, Ordering::Relaxed);
                    watch.token.cancel();
                }
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit_json(supervisor: &Supervisor, text: &str) -> Result<JobRecord, SubmitError> {
        supervisor.submit(&JsonValue::parse(text).expect("valid json"))
    }

    fn small_job(app: &str) -> String {
        format!("{{\"graph\": {{\"gen\": \"ba:120:3:5\"}}, \"app\": \"{app}\"}}")
    }

    fn wait(supervisor: &Supervisor, id: u64) -> JobRecord {
        supervisor
            .wait_for(id, Duration::from_secs(60))
            .expect("job reaches a terminal state")
    }

    #[test]
    fn completes_a_job_and_reuses_the_session_cache() {
        let supervisor = Supervisor::start(SupervisorConfig {
            workers: 1,
            ..SupervisorConfig::default()
        })
        .expect("start");
        let a = submit_json(&supervisor, &small_job("3-cf")).expect("submit");
        let b = submit_json(&supervisor, &small_job("3-mc")).expect("submit");
        let a = wait(&supervisor, a.id);
        let b = wait(&supervisor, b.id);
        assert_eq!(a.status, JobStatus::Completed);
        assert_eq!(b.status, JobStatus::Completed);
        assert!(a.report_json.is_some());
        // Same graph + same preprocessing knobs: the second job hits.
        assert!(!a.cache_hit);
        assert!(b.cache_hit);
        supervisor.shutdown_and_join();
    }

    #[test]
    fn malformed_queue_full_and_over_budget_are_all_typed() {
        let supervisor = Supervisor::start(SupervisorConfig {
            workers: 0,
            queue_capacity: 1,
            max_deadline_seconds: 10.0,
            ..SupervisorConfig::default()
        })
        .expect("start");
        assert!(matches!(
            submit_json(&supervisor, "{\"app\": \"3-cf\"}"),
            Err(SubmitError::Invalid(_))
        ));
        let first = submit_json(&supervisor, &small_job("3-cf")).expect("fills the queue");
        assert_eq!(first.status, JobStatus::Queued);
        assert!(matches!(
            submit_json(&supervisor, &small_job("3-cf")),
            Err(SubmitError::QueueFull)
        ));
        // Over-budget deadline: typed rejected record, not queued.
        let rejected = submit_json(
            &supervisor,
            "{\"graph\": {\"gen\": \"demo\"}, \"app\": \"3-cf\", \"deadline_seconds\": 1e6}",
        )
        .expect("recorded");
        assert_eq!(rejected.status, JobStatus::Rejected);
        assert_eq!(
            rejected.error.as_ref().map(|e| e.kind.as_str()),
            Some("over_budget")
        );
        let stats = supervisor.stats_json();
        assert_eq!(
            stats
                .get("queue_full_rejections")
                .and_then(JsonValue::as_u64),
            Some(1)
        );
        supervisor.shutdown_and_join();
    }

    #[test]
    fn injected_panic_is_contained_and_typed() {
        let supervisor = Supervisor::start(SupervisorConfig {
            workers: 1,
            chaos: ChaosConfig::parse("panic=1000,seed=1").expect("chaos"),
            default_max_retries: 0,
            ..SupervisorConfig::default()
        })
        .expect("start");
        let rec = submit_json(&supervisor, &small_job("3-cf")).expect("submit");
        let rec = wait(&supervisor, rec.id);
        assert_eq!(rec.status, JobStatus::Panicked);
        let error = rec.error.expect("typed error");
        assert_eq!(error.kind, "panic");
        assert!(
            error.message.contains("injected panic"),
            "{}",
            error.message
        );
        // The daemon survives: the supervisor still answers (panic=1000
        // would fault any further job too, so assert liveness via stats).
        assert_eq!(
            supervisor
                .stats_json()
                .get("panicked")
                .and_then(JsonValue::as_u64),
            Some(1)
        );
        supervisor.shutdown_and_join();
    }

    #[test]
    fn transient_io_faults_are_retried_with_backoff() {
        // io=1000 would fail every attempt; instead inject io on ~half
        // and find a job id that drew io-then-clean.
        let chaos = ChaosConfig::parse("io=500,seed=11,delay-ms=1").expect("chaos");
        let supervisor = Supervisor::start(SupervisorConfig {
            workers: 1,
            chaos,
            default_max_retries: 3,
            retry_backoff_ms: 1,
            ..SupervisorConfig::default()
        })
        .expect("start");
        let mut saw_retry_success = false;
        for _ in 0..20 {
            let rec = submit_json(&supervisor, &small_job("3-cf")).expect("submit");
            let rec = wait(&supervisor, rec.id);
            if rec.status == JobStatus::Completed && rec.attempts > 1 {
                saw_retry_success = true;
                break;
            }
        }
        assert!(
            saw_retry_success,
            "at least one job should succeed on a retry under io=500"
        );
        supervisor.shutdown_and_join();
    }

    #[test]
    fn deadline_overrun_times_out_via_the_watchdog() {
        let chaos = ChaosConfig::parse("delay=1000,delay-ms=60000,seed=3").expect("chaos");
        let supervisor = Supervisor::start(SupervisorConfig {
            workers: 1,
            chaos,
            default_deadline_seconds: 0.2,
            default_max_retries: 0,
            ..SupervisorConfig::default()
        })
        .expect("start");
        let rec = submit_json(&supervisor, &small_job("3-cf")).expect("submit");
        let rec = wait(&supervisor, rec.id);
        assert_eq!(rec.status, JobStatus::TimedOut);
        assert_eq!(rec.error.as_ref().map(|e| e.kind.as_str()), Some("timeout"));
        supervisor.shutdown_and_join();
    }

    #[test]
    fn replayed_job_with_a_retired_knob_fails_typed_and_the_daemon_keeps_serving() {
        let dir = std::env::temp_dir().join(format!(
            "gramer-supervisor-retired-knob-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let journal_path = dir.join("jobs.jsonl");
        // A queued record journaled by a build that still accepted the
        // host-engine knobs.
        let spec = JsonValue::parse(
            "{\"graph\": {\"gen\": \"ba:120:3:5\"}, \"app\": \"3-cf\", \
             \"config\": {\"epoch\": \"off\"}}",
        )
        .expect("json");
        let line = JobRecord::new(1, spec, JobStatus::Queued).to_json_value();
        std::fs::write(&journal_path, format!("{line}\n")).expect("write journal");

        let supervisor = Supervisor::start(SupervisorConfig {
            workers: 1,
            journal_path: Some(journal_path),
            ..SupervisorConfig::default()
        })
        .expect("start");
        let replayed = wait(&supervisor, 1);
        assert_eq!(replayed.status, JobStatus::Failed);
        let err = replayed.error.expect("typed error");
        assert_eq!(err.kind, "invalid");
        assert!(
            err.message.contains("unknown config knob"),
            "{}",
            err.message
        );
        // The daemon keeps serving.
        let next = submit_json(&supervisor, &small_job("3-cf")).expect("submit");
        assert_eq!(wait(&supervisor, next.id).status, JobStatus::Completed);
        supervisor.shutdown_and_join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_restores_completed_results_and_requeues_interrupted_jobs() {
        let dir =
            std::env::temp_dir().join(format!("gramer-supervisor-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let journal_path = dir.join("jobs.jsonl");

        // Generation 1: complete one job, leave one queued (workers=0
        // for the second submission is emulated by queueing after
        // shutdown started — simpler: run gen 1 with 1 worker, wait,
        // then append a queued job via a 0-worker supervisor).
        let supervisor = Supervisor::start(SupervisorConfig {
            workers: 1,
            journal_path: Some(journal_path.clone()),
            ..SupervisorConfig::default()
        })
        .expect("start gen1");
        let done = submit_json(&supervisor, &small_job("3-cf")).expect("submit");
        let done = wait(&supervisor, done.id);
        assert_eq!(done.status, JobStatus::Completed);
        let report_before = done.report_json.clone().expect("report").to_string();
        supervisor.shutdown_and_join();

        // Generation 2: 0 workers, queue one job, abandon without
        // shutdown (simulates a crash — the journal already has the
        // queued snapshot).
        let supervisor = Supervisor::start(SupervisorConfig {
            workers: 0,
            journal_path: Some(journal_path.clone()),
            ..SupervisorConfig::default()
        })
        .expect("start gen2");
        let queued = submit_json(&supervisor, &small_job("3-mc")).expect("submit");
        assert_eq!(queued.status, JobStatus::Queued);
        drop(supervisor); // no shutdown: threads are 0, journal has the queued line

        // Generation 3: replay must restore the completed result
        // byte-for-byte and run the interrupted job.
        let supervisor = Supervisor::start(SupervisorConfig {
            workers: 1,
            journal_path: Some(journal_path),
            ..SupervisorConfig::default()
        })
        .expect("start gen3");
        let restored = supervisor.job(done.id).expect("restored record");
        assert_eq!(restored.status, JobStatus::Completed);
        assert_eq!(
            restored.report_json.expect("report").to_string(),
            report_before,
            "completed results must survive restarts byte-for-byte"
        );
        let replayed = wait(&supervisor, queued.id);
        assert_eq!(replayed.status, JobStatus::Completed);
        supervisor.shutdown_and_join();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
