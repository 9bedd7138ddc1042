//! The event-driven HTTP server: a nonblocking accept/read/write loop
//! with per-connection state machines, backed by a fixed compute pool.
//!
//! Threading model: **one event-loop thread** (the caller of
//! [`Server::run`]) owns the listener and every connection. It accepts,
//! reads, parses incrementally, and writes — all nonblocking, driven by
//! an epoll/poll readiness [`Poller`](crate::poller::Poller) and a
//! deadline [`TimerWheel`](crate::timer::TimerWheel). Parsed requests
//! are handed to a fixed pool of **worker threads** over a channel;
//! finished responses come back over a completion queue that wakes the
//! loop. A slow (or stalled, or hostile) client therefore costs one
//! connection slot and a few kilobytes of buffer — never a query
//! thread.
//!
//! Admission is gated on the event-loop thread *before* a connection
//! enters service: when `max_inflight` connections are actively being
//! served, new ones are answered `429` and closed. Only the event-loop
//! thread admits, so the gate never over-admits. Idle keep-alive
//! connections release their admission slot between requests and
//! re-acquire it when the next request arrives (see `event_loop` for
//! the exact rules).
//!
//! Graceful shutdown ([`ServerHandle::shutdown`]) cancels the
//! server-wide [`CancelToken`] attached to every in-flight query's
//! budget (long-running queries truncate at their next cooperative
//! checkpoint and still produce a valid, marked response), stops
//! accepting, closes idle connections, and drains every connection that
//! is owed a response before [`Server::run`] returns. No in-flight
//! request is ever answered with a torn or missing response.

use crate::access_log::AccessLog;
use crate::event_loop::{self, Completions, Done, Job, Waker};
use crate::http::{self, Limits, Reject, Request};
use crate::poller::{Backend, Poller};
use crate::tenants::{Tenancy, TenantSet, TenantSnapshot};
use crate::wire;
use lotusx::{CancelToken, EngineRegistry, LotusX, QueryRequest};
use lotusx_obs::{conn_lane, EventKind, PromWriter, QueryId, Stage};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Server configuration. The default binds an ephemeral loopback port
/// with one worker per available core.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (`:0` = ephemeral).
    pub addr: String,
    /// Worker threads serving requests (at least 1) — the engine's only
    /// source of concurrency: each request runs wholly on one worker.
    pub threads: usize,
    /// Maximum connections actively being served before new ones are
    /// answered `429`. Idle keep-alive connections do not count.
    pub max_inflight: usize,
    /// How long an admitted connection may take to deliver one complete
    /// request; the deadline re-arms on every received byte, and firing
    /// answers `408`.
    pub read_timeout: Duration,
    /// How long a response write may sit blocked on a full socket
    /// before the connection is dropped (write-side backpressure cap).
    pub write_timeout: Duration,
    /// How long a keep-alive connection may sit idle between requests
    /// before the server closes it.
    pub idle_timeout: Duration,
    /// Request parsing limits (body cap, header caps).
    pub limits: Limits,
    /// Readiness backend: `Auto` picks epoll on Linux, `poll` elsewhere.
    pub backend: Backend,
    /// Write a structured JSONL access log to this path (one line per
    /// response, with the parse/queue/compute/flush timing breakdown).
    /// The log is bounded and drop-counting: a slow disk never blocks
    /// the event loop (see `access_log_dropped` in [`ServerStats`]).
    pub access_log: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            max_inflight: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(30),
            limits: Limits::default(),
            backend: Backend::Auto,
            access_log: None,
        }
    }
}

/// Lifetime request counters, kept per server instance (exact and
/// isolated, unlike the process-global obs counters they mirror).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Requests that parsed and were routed (including ones that were
    /// then rejected with a 4xx).
    pub requests: AtomicU64,
    /// Rejected work: parse failures, timeouts, 404/405/411/413/429/431,
    /// and bad request bodies.
    pub rejected: AtomicU64,
    /// Handler panics isolated to their connection.
    pub panics: AtomicU64,
    /// `POST /query` requests answered 200.
    pub queries: AtomicU64,
    /// `POST /complete` requests answered 200.
    pub completions: AtomicU64,
    /// `GET /stats` requests answered 200.
    pub stats_requests: AtomicU64,
    /// `GET /metrics` scrapes answered 200 (on the loop thread).
    pub metrics_requests: AtomicU64,
    /// `GET /healthz` requests answered 200.
    pub health_checks: AtomicU64,
    /// Query responses that went out marked truncated.
    pub truncated_responses: AtomicU64,
    /// Connections accepted (including ones answered `429`).
    pub connections_accepted: AtomicU64,
    /// Gauge: connections currently open.
    pub connections_open: AtomicU64,
    /// Gauge: connections currently holding an admission slot.
    pub connections_active: AtomicU64,
    /// Requests served on a reused keep-alive connection (second and
    /// later requests on one socket).
    pub keepalive_reuses: AtomicU64,
    /// Keep-alive connections closed by the idle deadline.
    pub idle_closes: AtomicU64,
    /// Connections that failed to deliver a request in time (`408`).
    pub read_timeouts: AtomicU64,
    /// Connections dropped because a response write stalled past the
    /// write timeout.
    pub write_stalls: AtomicU64,
    /// Event-loop iterations that found at least one ready event.
    pub loop_wakeups: AtomicU64,
    /// Total readiness events dispatched by the loop.
    pub ready_events: AtomicU64,
    /// High-water mark of events returned by one poll wait (ready-queue
    /// depth).
    pub max_ready_batch: AtomicU64,
    /// Gauge: requests dispatched to the worker pool and not yet picked
    /// up (worker queue depth).
    pub queue_depth: AtomicU64,
    /// High-water mark of `queue_depth`.
    pub max_queue_depth: AtomicU64,
    /// Access-log lines accepted by the bounded writer queue.
    pub access_log_lines: AtomicU64,
    /// Access-log lines dropped (writer queue full or log disabled —
    /// only counted while a log is configured).
    pub access_log_dropped: AtomicU64,
    /// Requests answered `404 unknown_tenant` because no routing rule
    /// matched (or the extracted tenant is not hosted). Always zero on a
    /// single-engine server.
    pub unknown_tenant_rejects: AtomicU64,
    /// Requests answered `429` by a *per-tenant* admission quota (the
    /// server-wide `max_inflight` gate counts under `rejected` via the
    /// accept path instead).
    pub tenant_quota_rejects: AtomicU64,
}

/// A plain-value copy of [`ServerStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// See [`ServerStats::requests`].
    pub requests: u64,
    /// See [`ServerStats::rejected`].
    pub rejected: u64,
    /// See [`ServerStats::panics`].
    pub panics: u64,
    /// See [`ServerStats::queries`].
    pub queries: u64,
    /// See [`ServerStats::completions`].
    pub completions: u64,
    /// See [`ServerStats::stats_requests`].
    pub stats_requests: u64,
    /// See [`ServerStats::metrics_requests`].
    pub metrics_requests: u64,
    /// See [`ServerStats::health_checks`].
    pub health_checks: u64,
    /// See [`ServerStats::truncated_responses`].
    pub truncated_responses: u64,
    /// See [`ServerStats::connections_accepted`].
    pub connections_accepted: u64,
    /// See [`ServerStats::connections_open`].
    pub connections_open: u64,
    /// See [`ServerStats::connections_active`].
    pub connections_active: u64,
    /// See [`ServerStats::keepalive_reuses`].
    pub keepalive_reuses: u64,
    /// See [`ServerStats::idle_closes`].
    pub idle_closes: u64,
    /// See [`ServerStats::read_timeouts`].
    pub read_timeouts: u64,
    /// See [`ServerStats::write_stalls`].
    pub write_stalls: u64,
    /// See [`ServerStats::loop_wakeups`].
    pub loop_wakeups: u64,
    /// See [`ServerStats::ready_events`].
    pub ready_events: u64,
    /// See [`ServerStats::max_ready_batch`].
    pub max_ready_batch: u64,
    /// See [`ServerStats::queue_depth`].
    pub queue_depth: u64,
    /// See [`ServerStats::max_queue_depth`].
    pub max_queue_depth: u64,
    /// See [`ServerStats::access_log_lines`].
    pub access_log_lines: u64,
    /// See [`ServerStats::access_log_dropped`].
    pub access_log_dropped: u64,
    /// See [`ServerStats::unknown_tenant_rejects`].
    pub unknown_tenant_rejects: u64,
    /// See [`ServerStats::tenant_quota_rejects`].
    pub tenant_quota_rejects: u64,
}

impl ServerStats {
    /// A consistent-enough snapshot (each field read relaxed).
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            completions: self.completions.load(Ordering::Relaxed),
            stats_requests: self.stats_requests.load(Ordering::Relaxed),
            metrics_requests: self.metrics_requests.load(Ordering::Relaxed),
            health_checks: self.health_checks.load(Ordering::Relaxed),
            truncated_responses: self.truncated_responses.load(Ordering::Relaxed),
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_open: self.connections_open.load(Ordering::Relaxed),
            connections_active: self.connections_active.load(Ordering::Relaxed),
            keepalive_reuses: self.keepalive_reuses.load(Ordering::Relaxed),
            idle_closes: self.idle_closes.load(Ordering::Relaxed),
            read_timeouts: self.read_timeouts.load(Ordering::Relaxed),
            write_stalls: self.write_stalls.load(Ordering::Relaxed),
            loop_wakeups: self.loop_wakeups.load(Ordering::Relaxed),
            ready_events: self.ready_events.load(Ordering::Relaxed),
            max_ready_batch: self.max_ready_batch.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            access_log_lines: self.access_log_lines.load(Ordering::Relaxed),
            access_log_dropped: self.access_log_dropped.load(Ordering::Relaxed),
            unknown_tenant_rejects: self.unknown_tenant_rejects.load(Ordering::Relaxed),
            tenant_quota_rejects: self.tenant_quota_rejects.load(Ordering::Relaxed),
        }
    }
}

impl StatsSnapshot {
    /// Every field as a `(name, value, is_gauge)` triple, in display
    /// order — the one list `/stats` JSON and `/metrics` exposition are
    /// both rendered from, so the two can never drift apart.
    fn fields(&self) -> [(&'static str, u64, bool); 25] {
        [
            ("requests", self.requests, false),
            ("rejected", self.rejected, false),
            ("panics", self.panics, false),
            ("queries", self.queries, false),
            ("completions", self.completions, false),
            ("stats_requests", self.stats_requests, false),
            ("metrics_requests", self.metrics_requests, false),
            ("health_checks", self.health_checks, false),
            ("truncated_responses", self.truncated_responses, false),
            ("connections_accepted", self.connections_accepted, false),
            ("connections_open", self.connections_open, true),
            ("connections_active", self.connections_active, true),
            ("keepalive_reuses", self.keepalive_reuses, false),
            ("idle_closes", self.idle_closes, false),
            ("read_timeouts", self.read_timeouts, false),
            ("write_stalls", self.write_stalls, false),
            ("loop_wakeups", self.loop_wakeups, false),
            ("ready_events", self.ready_events, false),
            ("max_ready_batch", self.max_ready_batch, true),
            ("queue_depth", self.queue_depth, true),
            ("max_queue_depth", self.max_queue_depth, true),
            ("access_log_lines", self.access_log_lines, false),
            ("access_log_dropped", self.access_log_dropped, false),
            ("unknown_tenant_rejects", self.unknown_tenant_rejects, false),
            ("tenant_quota_rejects", self.tenant_quota_rejects, false),
        ]
    }

    /// The `server` section of the `/stats` response body.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, _)) in self.fields().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{value}"));
        }
        out.push('}');
        out
    }

    /// The `lotusx_server_*` section of the `GET /metrics` Prometheus
    /// text exposition: monotonic fields as `_total` counters, gauges
    /// (and high-water marks) as gauges.
    pub fn to_prometheus(&self) -> String {
        let mut w = PromWriter::new();
        for (name, value, is_gauge) in self.fields() {
            if is_gauge {
                let family = format!("lotusx_server_{name}");
                w.header(&family, &format!("Server gauge `{name}`."), "gauge");
                w.sample_u64(&family, &[], value);
            } else {
                let family = format!("lotusx_server_{name}_total");
                w.header(&family, &format!("Server counter `{name}`."), "counter");
                w.sample_u64(&family, &[], value);
            }
        }
        w.finish()
    }
}

/// A cloneable handle for stopping and inspecting a running server.
#[derive(Clone)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    query_cancel: CancelToken,
    stats: Arc<ServerStats>,
    tenants: Arc<OnceLock<Arc<TenantSet>>>,
    addr: SocketAddr,
    waker: Waker,
}

impl ServerHandle {
    /// Begins graceful shutdown: cancels every in-flight query's budget
    /// token, stops accepting, and lets the loop drain every connection
    /// that is owed a response. Idempotent; returns immediately (join
    /// the thread running [`Server::run`] to wait for the drain).
    pub fn shutdown(&self) {
        self.query_cancel.cancel();
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    /// Has shutdown been requested?
    pub fn is_stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// The server's lifetime request counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Per-tenant counter snapshots, in registry order (a single
    /// `default` entry for `Server::run`). Empty until `run`/
    /// `run_registry` has started.
    pub fn tenant_stats(&self) -> Vec<TenantSnapshot> {
        self.tenants.get().map(|s| s.snapshot()).unwrap_or_default()
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

/// A bound (but not yet running) LotusX HTTP server.
pub struct Server {
    pub(crate) listener: TcpListener,
    pub(crate) config: ServeConfig,
    pub(crate) addr: SocketAddr,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) query_cancel: CancelToken,
    pub(crate) stats: Arc<ServerStats>,
    pub(crate) waker: Waker,
    /// The structured access log, when configured (opened at bind time
    /// so a bad path surfaces early).
    pub(crate) access: Option<AccessLog>,
    /// The per-tenant runtime table, installed when `run`/`run_registry`
    /// starts so handles can read per-tenant counters.
    pub(crate) tenants: Arc<OnceLock<Arc<TenantSet>>>,
    /// The loop-side waker receiver and the readiness poller, built at
    /// bind time so configuration errors surface early; taken by the
    /// one permitted [`Server::run`] call.
    pub(crate) loop_parts: Mutex<Option<(Poller, std::os::unix::net::UnixStream)>>,
}

impl Server {
    /// Binds the configured address and opens the readiness poller. The
    /// engine is supplied at [`Server::run`] time so the server can
    /// borrow it (no `'static` requirement — run it under
    /// `std::thread::scope` if needed).
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        if config.threads == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "threads must be at least 1",
            ));
        }
        if config.max_inflight == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "max_inflight must be at least 1",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let poller = Poller::new(config.backend)?;
        let (waker_tx, waker_rx) = std::os::unix::net::UnixStream::pair()?;
        waker_tx.set_nonblocking(true)?;
        waker_rx.set_nonblocking(true)?;
        let access = match &config.access_log {
            Some(path) => Some(AccessLog::open(path)?),
            None => None,
        };
        Ok(Server {
            listener,
            config,
            addr,
            stop: Arc::new(AtomicBool::new(false)),
            query_cancel: CancelToken::new(),
            stats: Arc::new(ServerStats::default()),
            waker: Waker::new(waker_tx),
            access,
            tenants: Arc::new(OnceLock::new()),
            loop_parts: Mutex::new(Some((poller, waker_rx))),
        })
    }

    /// The actually-bound address (resolves `:0` to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for stopping/inspecting this server from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            stop: Arc::clone(&self.stop),
            query_cancel: self.query_cancel.clone(),
            stats: Arc::clone(&self.stats),
            tenants: Arc::clone(&self.tenants),
            addr: self.addr,
            waker: self.waker.clone(),
        }
    }

    /// Serves `engine` until [`ServerHandle::shutdown`] is called,
    /// blocking the calling thread (it becomes the event loop). Worker
    /// threads are scoped to this call: when it returns, every
    /// connection owed a response has been answered and every thread
    /// joined. May be called at most once per server.
    pub fn run(&self, engine: &LotusX) {
        self.run_with(Tenancy::single(engine));
    }

    /// Serves a multi-tenant [`EngineRegistry`]: requests are routed to
    /// a hosted engine by the registry's rule table (`404
    /// unknown_tenant` on a miss), per-tenant admission quotas and
    /// default budgets apply, and `POST /admin/routes` hot-reloads the
    /// rule list. Same threading and shutdown contract as
    /// [`Server::run`]; at most one `run*` call per server.
    pub fn run_registry(&self, registry: &EngineRegistry) {
        self.run_with(Tenancy::registry(registry));
    }

    fn run_with(&self, tenancy: Tenancy<'_>) {
        let (poller, waker_rx) = self
            .loop_parts
            .lock()
            .expect("loop parts mutex poisoned")
            .take()
            .expect("Server::run may only be called once");
        let _ = self.tenants.set(Arc::clone(&tenancy.set));
        let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();
        let jobs_rx = Mutex::new(jobs_rx);
        let completions = Completions::new(self.waker.clone());
        std::thread::scope(|scope| {
            for _ in 0..self.config.threads {
                scope.spawn(|| self.worker_loop(&tenancy, &jobs_rx, &completions));
            }
            event_loop::run(self, &tenancy, poller, waker_rx, &jobs_tx, &completions);
            // Dropping the sender lets idle workers observe the
            // disconnect once the queue is drained.
            drop(jobs_tx);
        });
        // Every connection has closed and logged; put its lines on disk.
        if let Some(access) = &self.access {
            access.shutdown();
        }
    }

    /// One compute worker: pulls parsed requests, routes them on the
    /// engine, encodes the full response bytes, and pushes them back to
    /// the event loop. Panics are isolated per request: the peer gets a
    /// best-effort `500` and the server keeps serving.
    fn worker_loop(
        &self,
        tenancy: &Tenancy<'_>,
        rx: &Mutex<mpsc::Receiver<Job>>,
        done: &Completions,
    ) {
        loop {
            // Take the lock only long enough to pull one job.
            let received = {
                let guard = rx.lock().expect("receiver mutex poisoned");
                guard.recv_timeout(Duration::from_millis(50))
            };
            match received {
                Ok(job) => {
                    let picked_up = Instant::now();
                    let queue_ns = picked_up.duration_since(job.queued_at).as_nanos() as u64;
                    self.stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    // Stage slices land on the owning connection's trace
                    // lane so they nest inside its PENDING phase slice.
                    let lane = conn_lane(job.conn_id as u32);
                    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        self.route(tenancy, job.tenant, &job.request, lane)
                    }));
                    let (status, bytes, close) = match outcome {
                        Ok(Ok((content_type, body))) => (
                            200u16,
                            http::encode_response(
                                200,
                                content_type,
                                body.as_bytes(),
                                job.keep_alive,
                            ),
                            !job.keep_alive,
                        ),
                        Ok(Err(reject)) => {
                            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                            if let Some(idx) = job.tenant {
                                let rt = tenancy.set.runtime(idx);
                                rt.stats.rejected.fetch_add(1, Ordering::Relaxed);
                            }
                            if lotusx_obs::enabled() {
                                lotusx_obs::metrics().incr("http_rejected", 1);
                            }
                            let bytes = if reject.connection_dead() {
                                Vec::new()
                            } else {
                                http::encode_error(reject.status, &reject.reason)
                            };
                            (reject.status, bytes, true)
                        }
                        Err(_) => {
                            self.stats.panics.fetch_add(1, Ordering::Relaxed);
                            if let Some(idx) = job.tenant {
                                let rt = tenancy.set.runtime(idx);
                                rt.stats.rejected.fetch_add(1, Ordering::Relaxed);
                            }
                            if lotusx_obs::enabled() {
                                lotusx_obs::metrics().incr("http_worker_panics", 1);
                            }
                            (500u16, http::encode_error(500, "internal error"), true)
                        }
                    };
                    let compute_ns = picked_up.elapsed().as_nanos() as u64;
                    if lotusx_obs::enabled() {
                        let m = lotusx_obs::metrics();
                        m.record_stage(Stage::HttpQueueWait, queue_ns);
                        m.record_stage(Stage::HttpCompute, compute_ns);
                    }
                    let http::Request { method, path, .. } = job.request;
                    done.push(Done {
                        token: job.token,
                        epoch: job.epoch,
                        bytes,
                        close,
                        status,
                        method,
                        path,
                        tenant: job.tenant,
                        parse_ns: job.parse_ns,
                        queue_ns,
                        compute_ns,
                        finished: Instant::now(),
                    });
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    // Keep draining until the event loop hangs up, even
                    // after a stop request: dispatched requests must be
                    // answered.
                    continue;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
    }

    /// Routes one parsed request. `Ok` carries the response content type
    /// and body (the status is always 200). `tenant` is the routed
    /// tenant index (`None` for server-scoped endpoints); `lane` is the
    /// owning connection's trace lane.
    fn route(
        &self,
        tenancy: &Tenancy<'_>,
        tenant: Option<u32>,
        request: &Request,
        lane: u32,
    ) -> Result<(&'static str, String), Reject> {
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => {
                self.stats.health_checks.fetch_add(1, Ordering::Relaxed);
                Ok(("text/plain", "ok\n".to_string()))
            }
            ("GET", "/stats") => self.timed(Stage::HttpStats, lane, || {
                self.stats.stats_requests.fetch_add(1, Ordering::Relaxed);
                let body = format!(
                    "{{\n\"server\": {},\n\"tenants\": {},\n\"metrics\": {}}}\n",
                    self.stats.snapshot().to_json(),
                    tenancy.set.to_json(),
                    lotusx_obs::metrics().snapshot().to_json()
                );
                Ok(("application/json", body))
            }),
            ("POST", "/query") => self.timed(Stage::HttpQuery, lane, || {
                let query = self.decode_body(&request.body, wire::decode_query)?;
                let mut query = self.with_server_cancel(query);
                let runtime = tenant.map(|idx| tenancy.set.runtime(idx));
                if let Some(rt) = runtime {
                    // Tenant defaults fill only budget fields the request
                    // left unset — an explicit wire budget always wins.
                    query.budget = rt.limits().apply_defaults(query.budget);
                }
                let started = Instant::now();
                match tenancy.engine(tenant).query(&query) {
                    Ok(response) => {
                        self.stats.queries.fetch_add(1, Ordering::Relaxed);
                        let truncated = !response.completeness.is_complete();
                        if truncated {
                            self.stats
                                .truncated_responses
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        if let Some(rt) = runtime {
                            rt.record_query(started.elapsed().as_nanos() as u64, truncated);
                        }
                        Ok(("application/json", wire::encode_response(&response)))
                    }
                    Err(e @ lotusx::LotusError::Query(_)) => Err(Reject {
                        status: 400,
                        reason: e.to_string(),
                    }),
                    Err(e) => Err(Reject {
                        status: 500,
                        reason: e.to_string(),
                    }),
                }
            }),
            ("POST", "/complete") => self.timed(Stage::HttpComplete, lane, || {
                let complete = self.decode_body(&request.body, wire::decode_complete)?;
                let completion = tenancy.engine(tenant).completion_engine();
                let started = Instant::now();
                let body = match complete {
                    wire::CompleteRequest::Tag { context, prefix, k } => {
                        wire::encode_tag_candidates(&completion.complete_tag(&context, &prefix, k))
                    }
                    wire::CompleteRequest::Value { tag, prefix, k } => {
                        wire::encode_value_candidates(&completion.complete_value(&tag, &prefix, k))
                    }
                };
                self.stats.completions.fetch_add(1, Ordering::Relaxed);
                if let Some(rt) = tenant.map(|idx| tenancy.set.runtime(idx)) {
                    rt.record_completion(started.elapsed().as_nanos() as u64);
                }
                Ok(("application/json", body))
            }),
            ("POST", "/shutdown") => {
                // Graceful remote stop: the response goes out first, the
                // event loop notices the flag when the completion lands.
                self.query_cancel.cancel();
                self.stop.store(true, Ordering::SeqCst);
                Ok(("application/json", "{\"stopping\":true}\n".to_string()))
            }
            ("POST", "/admin/routes") => match tenancy.registry_ref() {
                Some(registry) => {
                    let text = std::str::from_utf8(&request.body).map_err(|_| Reject {
                        status: 400,
                        reason: "body is not valid UTF-8".to_string(),
                    })?;
                    match registry.reload_rules(text) {
                        Ok(count) => Ok(("application/json", format!("{{\"rules\":{count}}}\n"))),
                        // The typed error carries kind + byte offset;
                        // the previous table stays installed.
                        Err(e) => Err(Reject {
                            status: 400,
                            reason: e.to_string(),
                        }),
                    }
                }
                None => Err(Reject {
                    status: 404,
                    reason: "unknown endpoint /admin/routes (not a registry server)".to_string(),
                }),
            },
            // `GET /metrics` is answered inline on the event-loop
            // thread; only other methods ever reach the workers.
            (_, "/healthz" | "/stats" | "/metrics") => Err(Reject {
                status: 405,
                reason: format!("{} requires GET", request.path),
            }),
            (_, "/query" | "/complete" | "/shutdown" | "/admin/routes") => Err(Reject {
                status: 405,
                reason: format!("{} requires POST", request.path),
            }),
            (_, path) => Err(Reject {
                status: 404,
                reason: format!("unknown endpoint {path}"),
            }),
        }
    }

    /// Parses a request body as JSON and decodes it; decode errors are
    /// 400s.
    fn decode_body<T>(
        &self,
        body: &[u8],
        decode: impl FnOnce(&lotusx_obs::JsonValue) -> Result<T, String>,
    ) -> Result<T, Reject> {
        let text = std::str::from_utf8(body).map_err(|_| Reject {
            status: 400,
            reason: "body is not valid UTF-8".to_string(),
        })?;
        let value = lotusx_obs::parse_json(text).map_err(|e| Reject {
            status: 400,
            reason: format!("body is not valid JSON: {e}"),
        })?;
        decode(&value).map_err(|reason| Reject {
            status: 400,
            reason,
        })
    }

    /// Attaches the server-wide cancellation token to a request's budget
    /// (client budgets and the shutdown token compose: whichever trips
    /// first wins).
    fn with_server_cancel(&self, mut request: QueryRequest) -> QueryRequest {
        // The wire never carries a client token, so the slot is free.
        request.budget = request
            .budget
            .clone()
            .with_cancel(self.query_cancel.clone());
        request
    }

    /// Runs `f`, recording its wall time into `stage` (lifetime + live
    /// windows) and emitting stage begin/end trace events on the owning
    /// connection's lane when tracing is on.
    fn timed<T>(
        &self,
        stage: Stage,
        lane: u32,
        f: impl FnOnce() -> Result<T, Reject>,
    ) -> Result<T, Reject> {
        lotusx_obs::emit_on_lane(
            lane,
            QueryId::NONE,
            EventKind::StageBegin {
                stage: stage.name(),
            },
        );
        let recording = lotusx_obs::enabled();
        let started = recording.then(Instant::now);
        let out = f();
        if let Some(t0) = started {
            lotusx_obs::metrics().record_stage(stage, t0.elapsed().as_nanos() as u64);
        }
        lotusx_obs::emit_on_lane(
            lane,
            QueryId::NONE,
            EventKind::StageEnd {
                stage: stage.name(),
            },
        );
        out
    }
}
