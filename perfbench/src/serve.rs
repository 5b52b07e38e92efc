//! The daemon side: spawning `gramer-serve`, the seeded job mixes it is
//! sent, and the open-loop client that drives it over HTTP.
//!
//! The client is one process with two threads. The sender submits jobs
//! on a fixed schedule, whatever the daemon is doing, so a stall shows
//! up as latency on every job due during it; each job is timed from when
//! it was due. The reader polls job status, fetches finished reports and
//! checks them byte for byte, and samples `/healthz`, `/stats` and the
//! daemon's `/proc` entries beside the writes.

use crate::http::{self, field, number};
use crate::stats::{median, percentile, ratio, Summary};
use crate::trace::{SpanId, Tracer};
use crate::{host, Ctx, Outcome};
use gramer::{GramerConfig, MemoMode};
use gramer_graph::{generate, io};
use gramer_memsim::EnergyModel;
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How long the client waits for the last job before counting the
/// outstanding ones as failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);
/// Interval between `/healthz` samples.
const HEALTHZ_EVERY: Duration = Duration::from_millis(20);
/// Interval between `/stats` and `/proc` samples.
const STATS_EVERY: Duration = Duration::from_millis(100);
/// Share of jobs, in percent, that reuse an earlier job's graph, so the
/// daemon's session cache both hits and misses.
pub const REPEAT_PERCENT: u64 = 50;

/// A small deterministic generator (SplitMix64) for the job mixes.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// The kinds of job a daemon is sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Small BA and R-MAT graphs under 3-CF and 3-MC.
    Mixed,
    /// Small R-MAT graphs under 3-MC.
    Rmat,
    /// Small BA graphs under 4-CF with the pair memo on.
    BaMemo,
    /// Small labeled BA graphs, as `.gra` artifacts, under the labeled
    /// 3-path query.
    Query,
}

/// The labeled 3-path the query workloads ask for.
pub const QUERY_SPEC: &str = "5,6,5:0-1,1-2";

/// One job to submit, with what the daemon must answer.
#[derive(Debug, Clone)]
pub struct ServedJob {
    /// `POST /jobs` body.
    pub body: String,
    /// The report the same inputs produce in-process, byte for byte.
    pub expected: Arc<String>,
    /// Simulated steps of that report.
    pub steps: u64,
    /// Simulated cycles of that report.
    pub cycles: u64,
    /// Modeled on-chip energy of that report, µJ.
    pub energy_uj: f64,
    /// Host seconds the in-process run of the same job took.
    pub run_s: f64,
}

/// Modeled on-chip energy of `report` in µJ: the accelerator's power
/// integral plus the on-chip memories' dynamic energy (DRAM excluded, as
/// in the paper's comparison).
pub fn energy_uj(report: &gramer::RunReport) -> f64 {
    let e = report.energy(&EnergyModel::default());
    (e.on_chip_j + e.memory_dynamic_j) * 1e6
}

/// Where a job's graph comes from.
enum Source {
    /// An edge list sent in the request body.
    Inline(String),
    /// A labeled `.gra` artifact the daemon opens from disk (edge lists
    /// carry no labels, and a query needs them).
    Artifact(PathBuf),
}

impl Source {
    fn to_json(&self) -> String {
        match self {
            Source::Inline(text) => format!("{{\"inline\": \"{}\"}}", text.replace('\n', "\\n")),
            Source::Artifact(path) => format!("{{\"artifact\": \"{}\"}}", path.display()),
        }
    }

    /// The preprocessing the daemon derives from this source.
    fn preprocess(&self, cfg: &GramerConfig) -> Result<gramer::Preprocessed, String> {
        match self {
            Source::Inline(text) => {
                let graph = io::read_edge_list(text.as_bytes()).map_err(|e| e.to_string())?;
                gramer::preprocess(&graph, cfg).map_err(|e| e.to_string())
            }
            Source::Artifact(path) => {
                let art = gramer_graph::GraphArtifact::open(path).map_err(|e| e.to_string())?;
                gramer::Preprocessed::from_artifact(&art, cfg).map_err(|e| e.to_string())
            }
        }
    }
}

/// `n` seeded jobs of `family`; artifacts for query jobs are written to
/// `dir`. Every job's expected report is computed in-process through
/// the daemon's own run adapter and serializer.
pub fn job_mix(family: Family, seed: u64, n: usize, dir: &Path) -> Result<Vec<ServedJob>, String> {
    let mut rng = Rng::new(seed ^ 0x5e7e_5e7e);
    let mut graphs: Vec<Source> = Vec::new();
    let mut done: HashMap<(usize, &'static str), ServedJob> = HashMap::new();
    let mut jobs = Vec::with_capacity(n);
    for i in 0..n {
        let reuse = !graphs.is_empty() && rng.range(0, 100) < REPEAT_PERCENT;
        let g = if reuse {
            rng.range(0, graphs.len() as u64) as usize
        } else {
            let gseed = rng.next();
            let graph = match family {
                Family::Mixed if graphs.len().is_multiple_of(2) => {
                    generate::barabasi_albert(rng.range(200, 260) as usize, 3, gseed)
                }
                Family::Mixed => {
                    generate::rmat(8, rng.range(1200, 1500) as usize, Default::default(), gseed)
                }
                Family::Rmat => {
                    generate::rmat(7, rng.range(600, 700) as usize, Default::default(), gseed)
                }
                Family::BaMemo => generate::barabasi_albert(rng.range(100, 130) as usize, 5, gseed),
                Family::Query => {
                    let g = generate::barabasi_albert(rng.range(400, 500) as usize, 4, gseed);
                    generate::with_random_labels(&g, 16, gseed)
                }
            };
            let source = if family == Family::Query {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                let path = dir.join(format!("graph{}.gra", graphs.len()));
                let pre = gramer::preprocess(&graph, &GramerConfig::default())
                    .map_err(|e| e.to_string())?;
                gramer_graph::artifact::write_file(&pre.artifact_contents(gseed), &path)
                    .map_err(|e| e.to_string())?;
                Source::Artifact(path)
            } else {
                let mut text = Vec::new();
                io::write_edge_list(&graph, &mut text).map_err(|e| e.to_string())?;
                Source::Inline(String::from_utf8(text).map_err(|e| e.to_string())?)
            };
            graphs.push(source);
            graphs.len() - 1
        };
        let (app, config): (&'static str, &str) = match family {
            Family::Mixed if i % 2 == 0 => ("3-cf", ""),
            Family::Mixed => ("3-mc", ""),
            Family::Rmat => ("3-mc", ""),
            Family::BaMemo => ("4-cf", "memo"),
            Family::Query => ("query", ""),
        };
        if let Some(job) = done.get(&(g, app)) {
            jobs.push(job.clone());
            continue;
        }
        let app_spec = if app == "query" {
            format!("query:{QUERY_SPEC}")
        } else {
            app.to_string()
        };
        let mut cfg = GramerConfig::default();
        let config_json = if config == "memo" {
            cfg.memo = MemoMode::On {
                bytes: gramer_mining::DEFAULT_MEMO_BYTES,
            };
            ", \"config\": {\"memo\": \"on\"}"
        } else {
            ""
        };
        let pre = graphs[g].preprocess(&cfg)?;
        let t0 = Instant::now();
        let (report, _) = gramer_serve::job::run_app_spec(&app_spec, &pre, cfg, None)
            .map_err(|e| format!("in-process {app_spec}: {e}"))?;
        let run_s = t0.elapsed().as_secs_f64();
        let job = ServedJob {
            body: format!(
                "{{\"graph\": {}, \"app\": \"{app_spec}\"{config_json}}}",
                graphs[g].to_json()
            ),
            expected: Arc::new(report.to_json_value().to_string_pretty() + "\n"),
            steps: report.steps,
            cycles: report.cycles,
            energy_uj: energy_uj(&report),
            run_s,
        };
        done.insert((g, app), job.clone());
        jobs.push(job);
    }
    Ok(jobs)
}

/// A running `gramer-serve` daemon with one worker, owned by the
/// benchmark; dropping it kills the process.
pub struct Daemon {
    child: Option<Child>,
    /// `host:port` it listens on.
    pub addr: String,
    /// Its process id, for `/proc`.
    pub pid: String,
}

impl Daemon {
    /// Starts a daemon whose files live in `dir` (emptied first), with a
    /// journal there when `journal` is set. Returns the daemon and the
    /// seconds from spawn until its first `/healthz` answered 200.
    pub fn spawn(bin: &Path, dir: &Path, journal: bool) -> Result<(Daemon, f64), String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let addr_file = dir.join("addr");
        let log = std::fs::File::create(dir.join("daemon.log")).map_err(|e| e.to_string())?;
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0", "--workers", "1", "--addr-file"])
            .arg(&addr_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log);
        if journal {
            cmd.arg("--journal").arg(dir.join("journal.jsonl"));
        }
        let t0 = Instant::now();
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            pid: child.id().to_string(),
            child: Some(child),
            addr: String::new(),
        };
        let deadline = t0 + Duration::from_secs(30);
        loop {
            if Instant::now() > deadline {
                return Err("daemon did not become healthy within 30 s".into());
            }
            if let Some(Ok(Some(status))) = daemon.child.as_mut().map(Child::try_wait) {
                return Err(format!("daemon exited early: {status}"));
            }
            if daemon.addr.is_empty() {
                if let Ok(a) = std::fs::read_to_string(&addr_file) {
                    daemon.addr = a.trim().to_string();
                }
            }
            if !daemon.addr.is_empty() {
                if let Ok(r) = http::request(&daemon.addr, "GET", "/healthz", None) {
                    if r.status == 200 {
                        return Ok((daemon, t0.elapsed().as_secs_f64()));
                    }
                }
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Asks the daemon to drain and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = http::request(&self.addr, "POST", "/shutdown", None)?;
        if reply.status != 200 {
            return Err(format!("shutdown answered {}", reply.status));
        }
        let mut child = self.child.take().ok_or("daemon already stopped")?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not exit after shutdown".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The shape of the traffic: a paced phase at a fixed rate, then a
/// back-to-back burst.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Jobs per second in the paced phase.
    pub rate: f64,
    /// Jobs in the paced phase.
    pub paced: usize,
    /// Jobs in the burst phase.
    pub burst: usize,
}

/// What the client saw.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// `POST /jobs` latency per paced job, s.
    pub submit_s: Vec<f64>,
    /// Due time → report in hand, per paced job, s.
    pub job_s: Vec<f64>,
    /// Submit sent → report in hand, per paced job, s.
    pub wall_s: Vec<f64>,
    /// How late the sender was against the schedule, per paced job, s.
    pub late_s: Vec<f64>,
    /// Submit acknowledged → first seen out of the queue, per job, s.
    pub queue_wait_s: Vec<f64>,
    /// In-process run time of each completed paced job, s.
    pub run_s: Vec<f64>,
    /// `/healthz` latency samples, s.
    pub healthz_s: Vec<f64>,
    /// TCP connect time of every request, s.
    pub connect_s: Vec<f64>,
    /// `(seconds into the paced phase, queue_depth)` samples.
    pub depth: Vec<(f64, u64)>,
    /// Highest thread count seen in the daemon.
    pub threads_max: u64,
    /// Daemon `wchar` when each paced job's report arrived, in
    /// completion order (the reader keeps up with a paced phase, so each
    /// sample follows its job's writes).
    pub wchar: Vec<u64>,
    /// Daemon `wchar` over the whole drive.
    pub wchar_total: u64,
    /// Burst jobs completed per second.
    pub burst_jobs_per_s: f64,
    /// Simulated steps of the burst's jobs.
    pub burst_steps: u64,
    /// Seconds the burst took.
    pub burst_s: f64,
    /// Jobs sent.
    pub attempted: u64,
    /// Jobs not completed, refused, or answered wrongly.
    pub failed: u64,
    /// Completed jobs whose report differed from the in-process one.
    pub mismatches: u64,
    /// Sum of the completed jobs' simulated cycles.
    pub cycles: u64,
    /// Sum of the completed jobs' modeled energy, µJ.
    pub energy_uj: f64,
    /// Session-cache hits and misses from the final `/stats`.
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
    /// `queue_full_rejections` from the final `/stats`.
    pub queue_full: u64,
    /// Peak RSS of the daemon, MB.
    pub peak_rss_mb: f64,
    /// `/healthz` and `/stats` reads that failed (not jobs, so not in
    /// `failed`).
    pub read_errors: u64,
    /// First error message seen, for the log.
    pub first_error: Option<String>,
}

impl ServeStats {
    fn note(&mut self, why: String) {
        if self.first_error.is_none() {
            self.first_error = Some(why);
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.note(why);
    }

    fn read_error(&mut self, why: String) {
        self.read_errors += 1;
        self.note(why);
    }
}

/// A submitted job the reader has not finished with.
struct Sent {
    job: usize,
    paced: bool,
    due: Instant,
    sent: Instant,
    acked: Instant,
    id: Option<u64>,
    status: u16,
}

/// Drives `daemon` with `jobs` (the first `phases.paced` paced, the next
/// `phases.burst` back to back) and collects what the client saw.
pub fn drive(
    daemon: &Daemon,
    jobs: &[ServedJob],
    phases: Phases,
    tracer: &mut Tracer,
    parent: SpanId,
) -> ServeStats {
    let mut st = ServeStats::default();
    let wchar0 = host::wchar(&daemon.pid).unwrap_or(0);
    let start = Instant::now();
    let paced = tracer.begin("serve.paced", parent);
    run_phase(
        daemon,
        jobs,
        0..phases.paced,
        Some(phases.rate),
        start,
        &mut st,
        tracer,
        paced,
    );
    tracer.end(paced);

    let burst = tracer.begin("serve.burst", parent);
    let b0 = Instant::now();
    let range = phases.paced..phases.paced + phases.burst;
    run_phase(daemon, jobs, range, None, b0, &mut st, tracer, burst);
    st.burst_s = b0.elapsed().as_secs_f64();
    st.burst_jobs_per_s = phases.burst as f64 / st.burst_s;
    tracer.end(burst);

    let stats = http::request(&daemon.addr, "GET", "/stats", None);
    match stats {
        Ok(r) if r.status == 200 => {
            let cache = r.body.find("session_cache").map_or("", |i| &r.body[i..]);
            st.cache_hits = number(cache, "hits").unwrap_or(0);
            st.cache_misses = number(cache, "misses").unwrap_or(0);
            st.queue_full = number(&r.body, "queue_full_rejections").unwrap_or(0);
        }
        Ok(r) => st.read_error(format!("/stats answered {}", r.status)),
        Err(e) => st.read_error(format!("/stats: {e}")),
    }
    st.peak_rss_mb = host::peak_rss_mb(&daemon.pid).unwrap_or(0.0);
    st.wchar_total = host::wchar(&daemon.pid).unwrap_or(0).saturating_sub(wchar0);
    st
}

/// One phase: a sender thread submits `range` (on a schedule of `rate`
/// jobs per second from `start`, or back to back), while this thread
/// polls, fetches and checks.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    daemon: &Daemon,
    jobs: &[ServedJob],
    range: std::ops::Range<usize>,
    rate: Option<f64>,
    start: Instant,
    st: &mut ServeStats,
    tracer: &mut Tracer,
    parent: SpanId,
) {
    let addr = daemon.addr.as_str();
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut submit_spans = Vec::new();
    std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut spans = Vec::new();
            for (k, i) in range.clone().enumerate() {
                let due = match rate {
                    Some(r) => start + Duration::from_secs_f64(k as f64 / r),
                    None => start,
                };
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                let reply = http::request(addr, "POST", "/jobs", Some(&jobs[i].body));
                let acked = Instant::now();
                spans.push((sent, acked));
                let (status, id) = match &reply {
                    Ok(r) => (r.status, number(&r.body, "id")),
                    Err(_) => (0, None),
                };
                let msg = Sent {
                    job: i,
                    paced: rate.is_some(),
                    due,
                    sent,
                    acked,
                    id,
                    status,
                };
                if tx.send(msg).is_err() {
                    break;
                }
            }
            spans
        });
        read_loop(daemon, jobs, &rx, start, st, tracer, parent);
        submit_spans = sender.join().unwrap_or_default();
    });
    for (a, b) in submit_spans {
        tracer.record("submit", parent, a, b);
    }
}

/// The reader: polls the oldest outstanding job until it is terminal,
/// fetches and checks its report, and samples the daemon between polls.
fn read_loop(
    daemon: &Daemon,
    jobs: &[ServedJob],
    rx: &mpsc::Receiver<Sent>,
    start: Instant,
    st: &mut ServeStats,
    tracer: &mut Tracer,
    parent: SpanId,
) {
    let addr = daemon.addr.as_str();
    let mut pending: VecDeque<(Sent, Option<Instant>)> = VecDeque::new();
    let mut sender_done = false;
    let mut next_healthz = Instant::now();
    let mut next_stats = Instant::now();
    let mut last_progress = Instant::now();
    loop {
        loop {
            match rx.try_recv() {
                Ok(sent) => {
                    st.attempted += 1;
                    if sent.status != 202 || sent.id.is_none() {
                        st.fail(format!("submit answered {}", sent.status));
                    } else {
                        pending.push_back((sent, None));
                    }
                }
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    sender_done = true;
                    break;
                }
            }
        }
        if sender_done && pending.is_empty() {
            break;
        }
        let now = Instant::now();
        if now >= next_healthz {
            next_healthz = now + HEALTHZ_EVERY;
            let t = Instant::now();
            match http::request(addr, "GET", "/healthz", None) {
                Ok(r) if r.status == 200 => {
                    st.healthz_s.push(r.total_s);
                    st.connect_s.push(r.connect_s);
                }
                Ok(r) => st.read_error(format!("/healthz answered {}", r.status)),
                Err(e) => st.read_error(format!("/healthz: {e}")),
            }
            tracer.record("healthz", parent, t, Instant::now());
        }
        if now >= next_stats {
            next_stats = now + STATS_EVERY;
            let t = Instant::now();
            match http::request(addr, "GET", "/stats", None) {
                Ok(r) if r.status == 200 => {
                    st.connect_s.push(r.connect_s);
                    if let Some(d) = number(&r.body, "queue_depth") {
                        st.depth.push((t.duration_since(start).as_secs_f64(), d));
                    }
                }
                Ok(r) => st.read_error(format!("/stats answered {}", r.status)),
                Err(e) => st.read_error(format!("/stats: {e}")),
            }
            tracer.record("stats", parent, t, Instant::now());
            if let Some(n) = host::threads(&daemon.pid) {
                st.threads_max = st.threads_max.max(n);
            }
        }
        let Some((head, first_out)) = pending.front_mut() else {
            std::thread::sleep(Duration::from_micros(500));
            continue;
        };
        if last_progress.elapsed() > DRAIN_TIMEOUT {
            let why = "job did not finish within the drain timeout".to_string();
            while pending.pop_front().is_some() {
                st.fail(why.clone());
            }
            continue;
        }
        let id = head.id.unwrap_or(0);
        let t = Instant::now();
        let reply = http::request(addr, "GET", &format!("/jobs/{id}"), None);
        tracer.record("poll", parent, t, Instant::now());
        let reply = match reply {
            Ok(r) if r.status == 200 => r,
            Ok(r) => {
                st.fail(format!("status of job {id} answered {}", r.status));
                pending.pop_front();
                continue;
            }
            Err(e) => {
                st.fail(format!("status of job {id}: {e}"));
                pending.pop_front();
                continue;
            }
        };
        st.connect_s.push(reply.connect_s);
        let status = field(&reply.body, "status").unwrap_or("").to_string();
        if status != "queued" && first_out.is_none() {
            *first_out = Some(t);
        }
        match status.as_str() {
            "queued" | "running" => continue,
            "completed" => {}
            other => {
                st.fail(format!("job {id} ended {other}"));
                pending.pop_front();
                continue;
            }
        }
        let t = Instant::now();
        let report = http::request(addr, "GET", &format!("/jobs/{id}/report"), None);
        let arrived = Instant::now();
        tracer.record("report_fetch", parent, t, arrived);
        let Some((sent, first_out)) = pending.pop_front() else {
            continue;
        };
        last_progress = arrived;
        if sent.paced {
            if let Some(w) = host::wchar(&daemon.pid) {
                st.wchar.push(w);
            }
        }
        let job = &jobs[sent.job];
        match report {
            Ok(r) if r.status == 200 && r.body == *job.expected => {
                st.cycles += job.cycles;
                st.energy_uj += job.energy_uj;
                if let Some(out) = first_out {
                    st.queue_wait_s
                        .push(out.saturating_duration_since(sent.acked).as_secs_f64());
                }
                if sent.paced {
                    st.submit_s
                        .push(sent.acked.duration_since(sent.sent).as_secs_f64());
                    st.job_s
                        .push(arrived.duration_since(sent.due).as_secs_f64());
                    st.wall_s
                        .push(arrived.duration_since(sent.sent).as_secs_f64());
                    st.late_s
                        .push(sent.sent.saturating_duration_since(sent.due).as_secs_f64());
                    st.run_s.push(job.run_s);
                } else {
                    st.burst_steps += job.steps;
                }
            }
            Ok(r) if r.status == 200 => {
                st.mismatches += 1;
                st.fail(format!(
                    "job {id}: served report differs from the in-process one"
                ));
            }
            Ok(r) => st.fail(format!("report of job {id} answered {}", r.status)),
            Err(e) => st.fail(format!("report of job {id}: {e}")),
        }
    }
}

/// Mean queue depth over the last quarter of the samples minus the mean
/// over the first quarter: positive when a backlog grew during the
/// phase.
pub fn backlog_growth(depth: &[(f64, u64)]) -> f64 {
    let q = depth.len() / 4;
    if q == 0 {
        return 0.0;
    }
    let mean = |xs: &[(f64, u64)]| xs.iter().map(|&(_, d)| d as f64).sum::<f64>() / xs.len() as f64;
    mean(&depth[depth.len() - q..]) - mean(&depth[..q])
}

/// Per-job `wchar` in the last tenth of the samples divided by that in
/// the first tenth: above 1 when a job's write cost grows with the
/// daemon's history.
pub fn wchar_growth(wchar: &[u64]) -> f64 {
    let d = wchar.len() / 10;
    if d < 2 {
        return 0.0;
    }
    let per_job = |lo: usize, hi: usize| (wchar[hi] - wchar[lo]) as f64 / (hi - lo) as f64;
    ratio(per_job(wchar.len() - 1 - d, wchar.len() - 1), per_job(0, d))
}

/// Traffic of `serve-open-loop`: a paced phase of at least 110 jobs (so
/// ten or more lie beyond p90), then a burst that fits the daemon's
/// default queue of 64.
fn open_loop_phases(seconds: f64) -> Phases {
    const RATE: f64 = 20.0;
    Phases {
        rate: RATE,
        paced: ((RATE * seconds) as usize).max(110),
        burst: 48,
    }
}

/// Traffic of the journaled sibling of a traced `serve-open-loop` run:
/// every journal transition is a whole-file rewrite and fsync, so the
/// rate is one the journaled daemon sustains.
const JOURNALED: Phases = Phases {
    rate: 4.0,
    paced: 110,
    burst: 24,
};

/// Daemon spawns timed per run; `setup_s` is their median.
const SETUP_SPAWNS: usize = 5;

fn ms(xs: &[f64]) -> Vec<f64> {
    xs.iter().map(|x| x * 1e3).collect()
}

/// Counts the client's operations and checks into `out`, and sets the
/// serve-side end-to-end metrics.
fn account(out: &mut Outcome, st: &ServeStats, label: &str) {
    out.attempted += st.attempted;
    out.failed += st.failed;
    out.check(
        format!("{label}: every served report equals the in-process report"),
        st.mismatches == 0,
    );
    out.check(
        format!(
            "{label}: every job completed ({} of {} failed: {})",
            st.failed,
            st.attempted,
            st.first_error.as_deref().unwrap_or("none")
        ),
        st.failed == 0,
    );
    out.check(
        format!("{label}: every /healthz and /stats read answered 200"),
        st.read_errors == 0,
    );
}

/// The serve-side end-to-end metrics, from the paced and burst phases.
fn put_end_to_end(out: &mut Outcome, st: &ServeStats) {
    let submit = ms(&st.submit_s);
    let job = ms(&st.job_s);
    out.put("submit_p50_ms", median(&submit));
    out.put("submit_p90_ms", percentile(&submit, 90.0));
    out.put("job_p50_ms", median(&job));
    out.put("job_p90_ms", percentile(&job, 90.0));
    out.put("healthz_p50_ms", median(&ms(&st.healthz_s)));
    out.put("burst_jobs_per_s", st.burst_jobs_per_s);
    out.detail("submit_ms", Summary::of(&submit).to_json());
    out.detail("job_ms", Summary::of(&job).to_json());
    out.detail("healthz_ms", Summary::of(&ms(&st.healthz_s)).to_json());
    out.detail("late_ms", Summary::of(&ms(&st.late_s)).to_json());
    let growth = backlog_growth(&st.depth);
    out.detail("backlog_growth", growth.to_string());
    if growth > 1.0 {
        eprintln!(
            "perfbench: warning: queue backlog grew by {growth:.1} jobs over the paced phase"
        );
    }
}

/// The serve-side per-layer metrics a traced run reports.
fn put_layers(out: &mut Outcome, st: &ServeStats) {
    let late = ms(&st.late_s);
    out.put("http.connect_ms", median(&ms(&st.connect_s)));
    out.put("http.healthz_ms", median(&ms(&st.healthz_s)));
    out.put("queue.wait_p50_ms", median(&ms(&st.queue_wait_s)));
    out.put(
        "queue.depth_max",
        st.depth.iter().map(|&(_, d)| d).max().unwrap_or(0) as f64,
    );
    out.put("queue.depth_growth", backlog_growth(&st.depth));
    out.put("run.p50_ms", median(&ms(&st.run_s)));
    out.put(
        "session.hit_ratio",
        ratio(
            st.cache_hits as f64,
            (st.cache_hits + st.cache_misses) as f64,
        ),
    );
    out.put("serve.threads_max", st.threads_max as f64);
    out.put("serve.queue_full_rejections", st.queue_full as f64);
    out.put("client.late_p50_ms", median(&late));
    out.put(
        "client.late_max_ms",
        late.iter().copied().fold(0.0, f64::max),
    );
}

/// Serves `family` jobs from an unjournaled daemon: the served form of a
/// mining workload, which gives it the serve-side metrics.
pub fn probe(
    ctx: &Ctx,
    family: Family,
    phases: Phases,
    tracer: &mut Tracer,
    parent: SpanId,
    out: &mut Outcome,
) -> Result<(), String> {
    let jobs = job_mix(
        family,
        ctx.seed,
        phases.paced + phases.burst,
        &ctx.work.join("jobs"),
    )?;
    let (daemon, _) = Daemon::spawn(&ctx.serve_bin, &ctx.work.join("probe"), false)?;
    let st = drive(&daemon, &jobs, phases, tracer, parent);
    daemon.shutdown()?;
    account(out, &st, "probe");
    put_end_to_end(out, &st);
    if ctx.trace {
        put_layers(out, &st);
        out.put("admission.submit_ms", median(&ms(&st.submit_s)));
    }
    Ok(())
}

/// The `serve-open-loop` workload: a fresh daemon with one worker,
/// driven by the open-loop client. A traced run adds a journaled sibling
/// daemon for the journal layer.
pub fn serve_open_loop(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let phases = open_loop_phases(ctx.seconds);
    let jobs = job_mix(
        Family::Mixed,
        ctx.seed,
        phases.paced + phases.burst,
        &ctx.work.join("jobs"),
    )?;
    let mut tracer = Tracer::new(format!("serve-open-loop-seed{}", ctx.seed), ctx.trace);
    let spawn =
        |name: &str, journal: bool| Daemon::spawn(&ctx.serve_bin, &ctx.work.join(name), journal);

    let mut setups = Vec::with_capacity(SETUP_SPAWNS);
    let mut daemon = None;
    for i in 0..SETUP_SPAWNS {
        let (d, s) = spawn(&format!("daemon{i}"), false)?;
        setups.push(s);
        if let Some(old) = daemon.replace(d) {
            old.shutdown()?;
        }
    }
    let mut daemon = daemon.ok_or("no daemon started")?;

    let mut untraced_wall = None;
    if ctx.trace {
        // Untraced twin of the traced drive, for the tracing overhead;
        // the traced drive then gets a fresh daemon.
        let mut quiet = Tracer::new(String::new(), false);
        let st = drive(&daemon, &jobs, phases, &mut quiet, SpanId::NONE);
        account(&mut out, &st, "untraced twin");
        untraced_wall = Some(median(&st.wall_s));
        daemon.shutdown()?;
        daemon = spawn("traced", false)?.0;
    }

    let root = tracer.begin("serve", SpanId::NONE);
    let st = drive(&daemon, &jobs, phases, &mut tracer, root);
    tracer.end(root);
    daemon.shutdown()?;
    account(&mut out, &st, "daemon");

    out.put("wall_s", median(&st.wall_s));
    out.put("setup_s", median(&setups));
    out.put("sim_steps_per_s", ratio(st.burst_steps as f64, st.burst_s));
    out.put("peak_rss_mb", st.peak_rss_mb);
    out.put("modeled_cycles", st.cycles as f64);
    out.put("modeled_energy_uj", st.energy_uj);
    put_end_to_end(&mut out, &st);
    out.detail("jobs", jobs.len().to_string());
    out.detail("repeat_percent", REPEAT_PERCENT.to_string());

    if ctx.trace {
        put_layers(&mut out, &st);
        let traced_wall = median(&st.wall_s);
        let untraced_wall = untraced_wall.unwrap_or(traced_wall);
        out.put("trace.untraced_wall_s", untraced_wall);
        out.put("trace.traced_wall_s", traced_wall);
        out.put("trace.overhead_s", traced_wall - untraced_wall);

        let sibling = tracer.begin("serve.journaled", SpanId::NONE);
        let (journaled, _) = spawn("journaled", true)?;
        let n = JOURNALED.paced + JOURNALED.burst;
        let st_j = drive(&journaled, &jobs[..n], JOURNALED, &mut tracer, sibling);
        let journal = ctx.work.join("journaled").join("journal.jsonl");
        let journal_kb = std::fs::metadata(journal).map_or(0, |m| m.len()) as f64 / 1024.0;
        journaled.shutdown()?;
        tracer.end(sibling);
        account(&mut out, &st_j, "journaled sibling");
        let plain_submit = median(&ms(&st.submit_s));
        out.put("admission.submit_ms", plain_submit);
        out.put(
            "journal.submit_overhead_ms",
            median(&ms(&st_j.submit_s)) - plain_submit,
        );
        out.put(
            "journal.wchar_kb_per_job",
            ratio(st_j.wchar_total as f64 / 1024.0, st_j.attempted as f64),
        );
        out.put("journal.wchar_growth", wchar_growth(&st_j.wchar));
        out.put("journal.file_kb", journal_kb);
        out.detail(
            "journaled_submit_ms",
            Summary::of(&ms(&st_j.submit_s)).to_json(),
        );
        out.detail("journaled_job_ms", Summary::of(&ms(&st_j.job_s)).to_json());
        out.detail(
            "journaled_burst_jobs_per_s",
            st_j.burst_jobs_per_s.to_string(),
        );
        out.put("trace.spans", tracer.spans().len() as f64);
        crate::mining::write_spans(ctx, &tracer, &mut out)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next()
            })
            .collect();
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next()).collect::<Vec<_>>());
        assert!((0..100).all(|_| (3..9).contains(&r.range(3, 9))));
    }

    #[test]
    fn backlog_growth_compares_quarters() {
        let flat: Vec<(f64, u64)> = (0..8).map(|i| (i as f64, 1)).collect();
        assert_eq!(backlog_growth(&flat), 0.0);
        let rising: Vec<(f64, u64)> = (0..8).map(|i| (i as f64, i)).collect();
        assert_eq!(backlog_growth(&rising), 6.0);
    }

    #[test]
    fn wchar_growth_is_last_decile_over_first() {
        // Constant cost per job: ratio 1.
        let flat: Vec<u64> = (0..50).map(|i| 100 * i).collect();
        assert_eq!(wchar_growth(&flat), 1.0);
        // Cost per job grows linearly with history: last decile costs more.
        let growing: Vec<u64> = (0..50u64).map(|i| i * i).collect();
        assert!(wchar_growth(&growing) > 5.0);
        assert_eq!(wchar_growth(&[1, 2, 3]), 0.0);
    }

    #[test]
    fn job_mixes_repeat_graphs_and_are_seeded() {
        // Inline jobs write no files, so the directory is never created.
        let dir = Path::new("unused");
        let a = job_mix(Family::Mixed, 3, 12, dir).expect("mix");
        let b = job_mix(Family::Mixed, 3, 12, dir).expect("mix");
        assert_eq!(
            a.iter().map(|j| &j.body).collect::<Vec<_>>(),
            b.iter().map(|j| &j.body).collect::<Vec<_>>()
        );
        let distinct: std::collections::HashSet<_> = a.iter().map(|j| &j.body).collect();
        assert!(distinct.len() < a.len(), "some graphs repeat");
        assert!(a
            .iter()
            .all(|j| j.expected.trim_end().ends_with('}') && j.cycles > 0));
    }
}
