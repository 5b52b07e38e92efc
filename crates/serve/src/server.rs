//! The daemon's accept loop and HTTP routing.
//!
//! Endpoints (one request per connection, `Connection: close`):
//!
//! | Method | Path                 | Meaning                                   |
//! |--------|----------------------|-------------------------------------------|
//! | GET    | `/healthz`           | liveness probe                            |
//! | GET    | `/stats`             | supervisor + session-cache counters       |
//! | POST   | `/jobs`              | submit a job (JSON [`crate::job::JobSpec`])|
//! | GET    | `/jobs`              | summaries of every job                    |
//! | GET    | `/jobs/<id>`         | one job's summary                         |
//! | GET    | `/jobs/<id>/report`  | the full `RunReport` JSON                 |
//! | GET    | `/jobs/<id>/metrics` | the telemetry rollup JSON                 |
//! | POST   | `/shutdown`          | begin graceful drain                      |
//!
//! Admission maps to status codes: `202` queued, `422` recorded but
//! rejected (over budget), `400` malformed, `429` queue full, `503`
//! draining. `/jobs/<id>/report` bodies are the exact
//! `RunReport::to_json_value().to_string_pretty()` serialization (plus
//! trailing newline) that `gramer-mine --json` writes, so byte-level
//! comparison between served and CLI-produced reports is meaningful —
//! the tier-1 serve stage diffs them.
//!
//! Fault containment at this layer: each connection is handled on its
//! own thread under the shared panic quarantine (a handler bug returns
//! `500`, it does not kill the accept loop); concurrent connections are
//! capped (excess get `503`); request heads and bodies are size-capped
//! by [`crate::http`]; and a slow or stuck client is bounded by socket
//! read/write timeouts.

use crate::http::{self, HttpError, Request, Response};
use crate::job::JobStatus;
use crate::supervisor::{SubmitError, Supervisor, SupervisorConfig};
use gramer::json::JsonValue;
use gramer::supervise;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Server-layer knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Maximum concurrently handled connections; excess get `503`.
    pub max_connections: usize,
    /// Socket read/write timeout per connection.
    pub io_timeout: Duration,
    /// The supervisor beneath the server.
    pub supervisor: SupervisorConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_body_bytes: 4 << 20,
            max_connections: 32,
            io_timeout: Duration::from_secs(10),
            supervisor: SupervisorConfig::default(),
        }
    }
}

struct ServerShared {
    supervisor: Supervisor,
    shutdown: AtomicBool,
    active: AtomicUsize,
    max_body_bytes: usize,
    max_connections: usize,
    io_timeout: Duration,
}

/// A bound (but not yet running) daemon.
pub struct Server {
    listener: TcpListener,
    shared: Arc<ServerShared>,
}

impl Server {
    /// Binds the listener and starts the supervisor (replaying its
    /// journal if configured).
    ///
    /// # Errors
    ///
    /// Bind failures and journal open (read or compaction) failures.
    pub fn bind(cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let supervisor = Supervisor::start(cfg.supervisor)?;
        Ok(Server {
            listener,
            shared: Arc::new(ServerShared {
                supervisor,
                shutdown: AtomicBool::new(false),
                active: AtomicUsize::new(0),
                max_body_bytes: cfg.max_body_bytes,
                max_connections: cfg.max_connections,
                io_timeout: cfg.io_timeout,
            }),
        })
    }

    /// The bound address (useful with an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle external code (the SIGTERM handler) may set to begin a
    /// graceful drain; [`Server::run`] notices within ~5 ms.
    pub fn shutdown_handle(&self) -> Arc<ServerShutdown> {
        Arc::new(ServerShutdown {
            shared: Arc::clone(&self.shared),
        })
    }

    /// Serves until shutdown is requested (via [`ServerShutdown`] or
    /// `POST /shutdown`), then drains: stops accepting, waits for open
    /// connections, finishes in-flight jobs (whose every transition is
    /// already journaled).
    ///
    /// # Errors
    ///
    /// Only unrecoverable listener failures; per-connection errors are
    /// contained and answered (or dropped) per connection.
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        loop {
            if self.shared.shutdown.load(Ordering::Relaxed) {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&self.shared);
                    if shared.active.fetch_add(1, Ordering::Relaxed) >= shared.max_connections {
                        shared.active.fetch_sub(1, Ordering::Relaxed);
                        let mut stream = stream;
                        let _ = stream.set_nonblocking(false);
                        let _ =
                            Response::error(503, "overloaded", "too many concurrent connections")
                                .write_to(&mut stream);
                        continue;
                    }
                    std::thread::spawn(move || {
                        handle_connection(&shared, stream);
                        shared.active.fetch_sub(1, Ordering::Relaxed);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Drain: let open connections finish (bounded by the io
        // timeout), then stop the workers.
        let drain_deadline = std::time::Instant::now() + self.shared.io_timeout;
        while self.shared.active.load(Ordering::Relaxed) > 0
            && std::time::Instant::now() < drain_deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        self.shared.supervisor.shutdown_and_join();
        Ok(())
    }
}

/// Cloneable drain trigger for signal handlers and tests.
pub struct ServerShutdown {
    shared: Arc<ServerShared>,
}

impl ServerShutdown {
    /// Requests a graceful drain (idempotent).
    pub fn request(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
    }
}

fn handle_connection(shared: &ServerShared, mut stream: TcpStream) {
    // The stream inherits non-blocking from the listener on some
    // platforms; force blocking + timeouts for the handler.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(shared.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.io_timeout));

    let request = match http::read_request(&mut stream, shared.max_body_bytes) {
        Ok(Some(request)) => request,
        Ok(None) => return,
        Err(HttpError::TooLarge(what)) => {
            let _ = Response::error(413, "too_large", &what).write_to(&mut stream);
            return;
        }
        Err(HttpError::Malformed(what)) => {
            let _ = Response::error(400, "malformed", &what).write_to(&mut stream);
            return;
        }
        Err(HttpError::Io(_)) => return,
    };

    // Quarantine the handler: a routing bug answers 500 and the daemon
    // keeps serving.
    let response = match supervise::run_quarantined(|| Ok(route(shared, &request))) {
        supervise::Outcome::Ok(response) => response,
        supervise::Outcome::Panicked(message) => Response::error(500, "panic", &message),
        supervise::Outcome::Err(_) | supervise::Outcome::Cancelled => {
            Response::error(500, "internal", "handler aborted")
        }
    };
    let _ = response.write_to(&mut stream);
}

fn route(shared: &ServerShared, request: &Request) -> Response {
    let path = request.route_path();
    let segments: Vec<&str> = path.trim_matches('/').split('/').collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Response::json(
            200,
            &JsonValue::object([
                ("ok", JsonValue::Bool(true)),
                (
                    "shutting_down",
                    JsonValue::from(shared.shutdown.load(Ordering::Relaxed)),
                ),
            ]),
        ),
        ("GET", ["stats"]) => Response::json(200, &shared.supervisor.stats_json()),
        ("GET", ["jobs"]) => Response::json(200, &shared.supervisor.jobs_json()),
        ("POST", ["jobs"]) => submit(shared, request),
        ("GET", ["jobs", id]) => {
            with_job(shared, id, |rec| Response::json(200, &rec.summary_json()))
        }
        ("GET", ["jobs", id, "report"]) => with_job(shared, id, |rec| match &rec.report_json {
            Some(report) => Response::json_raw(200, report.to_string_pretty() + "\n"),
            None => Response::error(
                404,
                "no_report",
                &format!("job is {}, no report available", rec.status.as_str()),
            ),
        }),
        ("GET", ["jobs", id, "metrics"]) => with_job(shared, id, |rec| match &rec.metrics_json {
            Some(metrics) => Response::json_raw(200, metrics.to_string_pretty() + "\n"),
            None => Response::error(
                404,
                "no_metrics",
                "job did not record metrics (submit with \"metrics\": true)",
            ),
        }),
        ("POST", ["shutdown"]) => {
            shared.shutdown.store(true, Ordering::Relaxed);
            Response::json(
                200,
                &JsonValue::object([("draining", JsonValue::Bool(true))]),
            )
        }
        ("GET" | "POST", _) => Response::error(404, "not_found", &format!("no route for {path}")),
        _ => Response::error(405, "method_not_allowed", &request.method),
    }
}

fn submit(shared: &ServerShared, request: &Request) -> Response {
    if shared.shutdown.load(Ordering::Relaxed) {
        return Response::error(503, "shutting_down", "daemon is draining");
    }
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return Response::error(400, "malformed", "body is not UTF-8"),
    };
    let body = match JsonValue::parse(text) {
        Ok(body) => body,
        Err(e) => return Response::error(400, "malformed", &format!("bad JSON: {e}")),
    };
    match shared.supervisor.submit(&body) {
        Ok(rec) => {
            let status = if rec.status == JobStatus::Rejected {
                422
            } else {
                202
            };
            Response::json(status, &rec.summary_json())
        }
        Err(SubmitError::Invalid(message)) => Response::error(400, "invalid_spec", &message),
        Err(SubmitError::QueueFull) => {
            Response::error(429, "queue_full", "job queue is at capacity; retry later")
        }
        Err(SubmitError::ShuttingDown) => {
            Response::error(503, "shutting_down", "daemon is draining")
        }
    }
}

fn with_job(
    shared: &ServerShared,
    id: &str,
    f: impl FnOnce(&crate::job::JobRecord) -> Response,
) -> Response {
    let Ok(id) = id.parse::<u64>() else {
        return Response::error(400, "bad_id", "job id must be an integer");
    };
    match shared.supervisor.job(id) {
        Some(rec) => f(&rec),
        None => Response::error(404, "unknown_job", &format!("no job {id}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spawn_server(
        cfg: ServerConfig,
    ) -> (String, Arc<ServerShutdown>, std::thread::JoinHandle<()>) {
        let server = Server::bind(cfg).expect("bind");
        let addr = server.local_addr().expect("addr").to_string();
        let shutdown = server.shutdown_handle();
        let handle = std::thread::spawn(move || server.run().expect("run"));
        (addr, shutdown, handle)
    }

    #[test]
    fn healthz_and_unknown_routes() {
        let (addr, shutdown, handle) = spawn_server(ServerConfig {
            supervisor: SupervisorConfig {
                workers: 0,
                ..SupervisorConfig::default()
            },
            ..ServerConfig::default()
        });
        let (status, body) = http::request(&addr, "GET", "/healthz", None).expect("healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\": true"));
        let (status, _) = http::request(&addr, "GET", "/nope", None).expect("404");
        assert_eq!(status, 404);
        let (status, _) = http::request(&addr, "DELETE", "/jobs", None).expect("405");
        assert_eq!(status, 405);
        let (status, _) = http::request(&addr, "POST", "/jobs", Some("not json")).expect("400");
        assert_eq!(status, 400);
        shutdown.request();
        handle.join().expect("join");
    }

    #[test]
    fn submit_poll_report_lifecycle_over_http() {
        let (addr, shutdown, handle) = spawn_server(ServerConfig {
            supervisor: SupervisorConfig {
                workers: 1,
                ..SupervisorConfig::default()
            },
            ..ServerConfig::default()
        });
        let spec = "{\"graph\": {\"gen\": \"ba:120:3:5\"}, \"app\": \"3-cf\", \"metrics\": true}";
        let (status, body) = http::request(&addr, "POST", "/jobs", Some(spec)).expect("submit");
        assert_eq!(status, 202, "{body}");
        let id = JsonValue::parse(&body)
            .expect("json")
            .get("id")
            .and_then(JsonValue::as_u64)
            .expect("id");
        // Poll until terminal.
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        let final_status = loop {
            let (status, body) =
                http::request(&addr, "GET", &format!("/jobs/{id}"), None).expect("poll");
            assert_eq!(status, 200);
            let doc = JsonValue::parse(&body).expect("json");
            let s = doc
                .get("status")
                .and_then(JsonValue::as_str)
                .expect("status")
                .to_string();
            if s != "queued" && s != "running" {
                break s;
            }
            assert!(std::time::Instant::now() < deadline, "job stuck");
            std::thread::sleep(Duration::from_millis(10));
        };
        assert_eq!(final_status, "completed");
        let (status, report) =
            http::request(&addr, "GET", &format!("/jobs/{id}/report"), None).expect("report");
        assert_eq!(status, 200);
        assert!(
            report.contains("\"schema\"") || report.contains("\"cycles\""),
            "{report}"
        );
        let (status, metrics) =
            http::request(&addr, "GET", &format!("/jobs/{id}/metrics"), None).expect("metrics");
        assert_eq!(status, 200, "{metrics}");
        shutdown.request();
        handle.join().expect("join");
    }

    #[test]
    fn post_shutdown_drains_gracefully() {
        let (addr, _shutdown, handle) = spawn_server(ServerConfig {
            supervisor: SupervisorConfig {
                workers: 0,
                ..SupervisorConfig::default()
            },
            ..ServerConfig::default()
        });
        let (status, _) = http::request(&addr, "POST", "/shutdown", None).expect("shutdown");
        assert_eq!(status, 200);
        handle.join().expect("drained");
        assert!(http::request(&addr, "GET", "/healthz", None).is_err());
    }
}
