//! The TCP ingress: a newline-framed socket front end multiplexing
//! many concurrent clients onto one [`Service`].
//!
//! Design constraints, in order:
//!
//! * **Bounded admission, never unbounded buffering.** Every job line
//!   must win an admission permit before it reaches the worker pool.
//!   At most [`NetConfig::max_inflight`] lines run concurrently and at
//!   most [`NetConfig::queue_capacity`] wait; anything beyond that is
//!   *shed* with a `status:"shed"` reply carrying `retry_after_ms`
//!   (scaled by current queue depth), so an overloaded server degrades
//!   into polite rejections instead of an ever-growing queue.
//! * **Per-client fairness.** Permits are accounted per client IP: one
//!   chatty client (even over many connections) can hold at most
//!   [`NetConfig::per_client_inflight`] admitted-or-waiting lines, so
//!   it saturates its own share, not the whole queue.
//! * **Slow-client defense.** A partial frame older than
//!   [`NetConfig::read_timeout_ms`] (a slow-loris client) gets a
//!   `slow-read` error and the connection is closed; a frame that
//!   exceeds `MAX_LINE_LEN` without a newline is rejected the same way
//!   — the server never buffers an unbounded or immortal line.
//! * **Graceful drain.** [`NetServer::request_shutdown`] stops the
//!   accept loop, wakes queued waiters (they close cleanly), and
//!   [`NetServer::run`] joins every connection thread before
//!   returning, so in-flight requests finish and their outcomes are
//!   journaled (the WAL flushes on every record) before the listener
//!   goes away.
//! * **One protocol.** Connections speak exactly the
//!   [`crate::proto`] wire format via the same [`Session`] used by
//!   stdin serve — there is no TCP-specific parser to drift.
//!
//! Chaos sites ([`slo_chaos::Site`]) are threaded through the
//! service's fault plan: `NetSlowLoris` stalls a read mid-frame,
//! `NetDisconnect` drops a connection after a request ran but before
//! its reply was written (the acked-vs-journaled window), and
//! `NetAcceptStorm` forces a just-accepted connection through the
//! over-capacity rejection path.

use crate::journal::Journal;
use crate::manifest::MAX_LINE_LEN;
use crate::proto::{notice_line, Reply, Request, Response, Session, WireError};
use crate::service::Service;
use slo_chaos::Site;
use slo_obs::prom::{Exposition, Family};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Configuration for [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Directory job-line `.sir`/`.prof` paths resolve against.
    pub dir: PathBuf,
    /// Maximum concurrently connected clients; further connections get
    /// a `busy` reply and are closed.
    pub max_clients: usize,
    /// Maximum job lines running on the worker pool at once.
    pub max_inflight: usize,
    /// Maximum admitted-but-waiting job lines; beyond this the server
    /// sheds with `retry_after_ms` instead of queueing.
    pub queue_capacity: usize,
    /// Per-client-IP ceiling on admitted-or-waiting job lines.
    pub per_client_inflight: usize,
    /// Close a connection whose partial frame is older than this.
    pub read_timeout_ms: u64,
    /// Base retry hint for shed replies; the actual hint is
    /// `base * (1 + queue_depth)`.
    pub retry_after_ms: u64,
    /// Reply in the pre-protocol legacy line format instead of JSON.
    pub legacy: bool,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            dir: PathBuf::from("."),
            max_clients: 64,
            max_inflight: 4,
            queue_capacity: 16,
            per_client_inflight: 8,
            read_timeout_ms: 5_000,
            retry_after_ms: 50,
            legacy: false,
        }
    }
}

/// Admission verdict for one job line.
enum Admit {
    /// Run it (the caller must release the permit when done).
    Permit,
    /// Queue full (or client over its fairness share): shed.
    Shed {
        /// Suggested client backoff.
        retry_after_ms: u64,
    },
    /// The server is draining; no new work.
    Closed,
}

#[derive(Default)]
struct AdmInner {
    inflight: usize,
    waiting: usize,
    /// Admitted-or-waiting lines per client IP.
    per_client: HashMap<String, usize>,
    closed: bool,
}

/// The bounded admission queue: a counting semaphore with a waiting
/// cap, per-client accounting, and drain support.
struct Admission {
    max_inflight: usize,
    queue_capacity: usize,
    per_client_max: usize,
    retry_base_ms: u64,
    inner: Mutex<AdmInner>,
    cv: Condvar,
    depth_peak: AtomicU64,
}

impl Admission {
    fn new(cfg: &NetConfig) -> Admission {
        Admission {
            max_inflight: cfg.max_inflight.max(1),
            queue_capacity: cfg.queue_capacity,
            per_client_max: cfg.per_client_inflight.max(1),
            retry_base_ms: cfg.retry_after_ms.max(1),
            inner: Mutex::new(AdmInner::default()),
            cv: Condvar::new(),
            depth_peak: AtomicU64::new(0),
        }
    }

    fn retry_hint(&self, waiting: usize) -> u64 {
        self.retry_base_ms * (1 + waiting as u64)
    }

    /// Try to admit one job line for `client`. Blocks (bounded by the
    /// queue capacity and drain) when the pool is saturated.
    fn acquire(&self, client: &str) -> Admit {
        let mut g = self.inner.lock().expect("admission lock");
        if g.closed {
            return Admit::Closed;
        }
        let held = g.per_client.get(client).copied().unwrap_or(0);
        if held >= self.per_client_max {
            // Fairness: this client already holds its full share.
            return Admit::Shed {
                retry_after_ms: self.retry_hint(g.waiting),
            };
        }
        if g.inflight < self.max_inflight {
            g.inflight += 1;
            *g.per_client.entry(client.to_string()).or_insert(0) += 1;
            return Admit::Permit;
        }
        if g.waiting >= self.queue_capacity {
            return Admit::Shed {
                retry_after_ms: self.retry_hint(g.waiting),
            };
        }
        g.waiting += 1;
        *g.per_client.entry(client.to_string()).or_insert(0) += 1;
        self.depth_peak
            .fetch_max(g.waiting as u64, Ordering::Relaxed);
        loop {
            g = self
                .cv
                .wait_timeout(g, Duration::from_millis(50))
                .expect("admission wait")
                .0;
            if g.closed {
                g.waiting -= 1;
                release_client(&mut g, client);
                return Admit::Closed;
            }
            if g.inflight < self.max_inflight {
                g.waiting -= 1;
                g.inflight += 1;
                return Admit::Permit;
            }
        }
    }

    /// Release a permit returned by [`Admission::acquire`].
    fn release(&self, client: &str) {
        let mut g = self.inner.lock().expect("admission lock");
        g.inflight = g.inflight.saturating_sub(1);
        release_client(&mut g, client);
        drop(g);
        self.cv.notify_one();
    }

    /// Current number of waiting (admitted-queue) lines.
    fn depth(&self) -> usize {
        self.inner.lock().expect("admission lock").waiting
    }

    /// Wake every waiter and refuse all future admissions.
    fn close(&self) {
        self.inner.lock().expect("admission lock").closed = true;
        self.cv.notify_all();
    }
}

fn release_client(g: &mut AdmInner, client: &str) {
    if let Some(n) = g.per_client.get_mut(client) {
        *n -= 1;
        if *n == 0 {
            g.per_client.remove(client);
        }
    }
}

/// How many distinct client IPs the per-client request counters track
/// before folding the tail into `"other"`.
const MAX_TRACKED_CLIENTS: usize = 32;

/// A point-in-time copy of the ingress counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetSnapshot {
    /// Connections accepted into a session.
    pub accepted: u64,
    /// Connections rejected at accept time (over capacity).
    pub rejected: u64,
    /// Request lines received (all kinds).
    pub requests: u64,
    /// Job lines shed by admission control.
    pub shed: u64,
    /// Protocol-level error replies written.
    pub errors: u64,
    /// Connections dropped before their reply was written (chaos's
    /// acked-vs-journaled window, plus client resets mid-write).
    pub disconnects: u64,
    /// Connections closed by the slow-read / overlong-frame defense.
    pub slow_closes: u64,
    /// Job lines waiting in the admission queue right now.
    pub queue_depth: u64,
    /// High-water mark of the admission queue.
    pub queue_depth_peak: u64,
    /// Requests per client IP (bounded; the tail folds into `other`),
    /// sorted by client for lookup and deterministic exposition.
    pub per_client: Vec<(String, u64)>,
}

impl NetSnapshot {
    /// Count one request line from `client`, folding clients beyond
    /// the first [`MAX_TRACKED_CLIENTS`] into `"other"`.
    fn count_request(&mut self, client: &str) {
        self.requests += 1;
        let find =
            |v: &[(String, u64)], key: &str| v.binary_search_by(|(c, _)| c.as_str().cmp(key));
        let mut key = client;
        if find(&self.per_client, key).is_err() && self.per_client.len() >= MAX_TRACKED_CLIENTS {
            key = "other";
        }
        match find(&self.per_client, key) {
            Ok(i) => self.per_client[i].1 += 1,
            Err(i) => self.per_client.insert(i, (key.to_string(), 1)),
        }
    }

    /// The ingress counters in the Prometheus text exposition format
    /// (appended to the service exposition for TCP `metrics prom`;
    /// validated by `slo_obs::conform::check_prometheus`).
    #[rustfmt::skip]
    pub fn to_prometheus(&self) -> String {
        const CONNECTIONS: Family = Family::counter("slo_net_connections_total", "Ingress connections by event.").label("event");
        const REQUESTS: Family = Family::counter("slo_net_requests_total", "Request lines received.");
        const SHED: Family = Family::counter("slo_net_shed_total", "Job lines shed by admission control.");
        const ERRORS: Family = Family::counter("slo_net_errors_total", "Protocol error replies written.");
        const QUEUE_DEPTH: Family = Family::gauge("slo_net_queue_depth", "Job lines waiting for admission.");
        const QUEUE_DEPTH_PEAK: Family = Family::gauge("slo_net_queue_depth_peak", "Admission queue high-water mark.");
        const CLIENT_REQUESTS: Family = Family::counter("slo_net_client_requests_total", "Requests per client IP.").label("client");
        let mut w = Exposition::default();
        for (family, label, n) in [
            (&CONNECTIONS, Some("accepted"), self.accepted),
            (&CONNECTIONS, Some("rejected"), self.rejected),
            (&CONNECTIONS, Some("disconnected"), self.disconnects),
            (&CONNECTIONS, Some("slow_closed"), self.slow_closes),
            (&REQUESTS, None, self.requests),
            (&SHED, None, self.shed),
            (&ERRORS, None, self.errors),
            (&QUEUE_DEPTH, None, self.queue_depth),
            (&QUEUE_DEPTH_PEAK, None, self.queue_depth_peak),
        ] {
            w.sample(family, label, n);
        }
        // Declared even before any client is counted.
        w.declare(&CLIENT_REQUESTS);
        for (client, n) in &self.per_client {
            w.sample(&CLIENT_REQUESTS, Some(client), n);
        }
        w.finish()
    }
}

/// The TCP front end. Bind with [`NetServer::bind`], serve with
/// [`NetServer::run`] (blocks until [`NetServer::request_shutdown`]),
/// observe with [`NetServer::metrics`].
pub struct NetServer {
    listener: TcpListener,
    cfg: NetConfig,
    shutdown: AtomicBool,
    admission: Admission,
    /// The live ingress counters; the queue gauges stay zero here and
    /// are read from [`Admission`] by [`NetServer::metrics`].
    metrics: Mutex<NetSnapshot>,
}

impl NetServer {
    /// Bind the listener (nonblocking accept; `run` polls it so the
    /// shutdown flag is honored promptly).
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O errors.
    pub fn bind(cfg: NetConfig) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        Ok(NetServer {
            listener,
            admission: Admission::new(&cfg),
            cfg,
            shutdown: AtomicBool::new(false),
            metrics: Mutex::default(),
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    ///
    /// # Errors
    ///
    /// Propagates the socket query error.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Begin a graceful drain: stop accepting, wake queued waiters,
    /// let in-flight requests finish. [`NetServer::run`] returns once
    /// every connection thread has exited.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.admission.close();
    }

    /// Whether a drain has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// A point-in-time copy of the ingress counters.
    pub fn metrics(&self) -> NetSnapshot {
        let mut snap = self
            .metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        snap.queue_depth = self.admission.depth() as u64;
        snap.queue_depth_peak = self.admission.depth_peak.load(Ordering::Relaxed);
        snap
    }

    /// Update the live counters under their lock (read through a
    /// poisoned one).
    fn tally(&self, update: impl FnOnce(&mut NetSnapshot)) {
        update(&mut self.metrics.lock().unwrap_or_else(PoisonError::into_inner));
    }

    /// Serve until [`NetServer::request_shutdown`]: accept clients,
    /// spawn one scoped thread per connection, and drain on shutdown
    /// (the scope join waits for in-flight requests; outcomes are
    /// journaled before their replies are acknowledged).
    ///
    /// # Errors
    ///
    /// Propagates non-transient accept errors.
    pub fn run(&self, service: &Service, journal: Option<&Mutex<Journal>>) -> std::io::Result<()> {
        let active = AtomicUsize::new(0);
        let result = std::thread::scope(|scope| {
            loop {
                if self.is_shutdown() {
                    break;
                }
                match self.listener.accept() {
                    Ok((stream, peer)) => {
                        let storm = service.fault_plan().should_fire(Site::NetAcceptStorm);
                        if storm || active.load(Ordering::SeqCst) >= self.cfg.max_clients {
                            // Over capacity (or a chaos-injected storm
                            // forcing that path): busy-reject politely.
                            self.tally(|m| m.rejected += 1);
                            service.trace().instant(
                                "net",
                                "reject",
                                vec![
                                    ("client", peer.ip().to_string().into()),
                                    ("storm", storm.into()),
                                ],
                            );
                            self.write_busy(stream);
                            continue;
                        }
                        self.tally(|m| m.accepted += 1);
                        service.trace().instant(
                            "net",
                            "accept",
                            vec![("client", peer.ip().to_string().into())],
                        );
                        active.fetch_add(1, Ordering::SeqCst);
                        let active = &active;
                        scope.spawn(move || {
                            self.serve_conn(stream, peer, service, journal);
                            active.fetch_sub(1, Ordering::SeqCst);
                        });
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            Ok(())
            // Scope join: every connection thread finishes its current
            // request (journaling before acking) and exits.
        });
        service.trace().instant(
            "net",
            "drain",
            vec![("requests", self.metrics().requests.into())],
        );
        result
    }

    /// Best-effort busy reply on an over-capacity accept.
    fn write_busy(&self, mut stream: TcpStream) {
        let retry = self.admission.retry_hint(self.admission.depth());
        let mut r = Response::shed("", retry);
        r.code = Some("busy".to_string());
        r.message = Some("connection limit reached".to_string());
        self.write_notice(
            &mut stream,
            &format!("server busy, retry in {retry} ms"),
            &r,
        );
    }

    /// Write a notice line (see [`notice_line`]) in the configured reply
    /// format; `false` when the write failed.
    fn write_notice(&self, stream: &mut TcpStream, text: &str, response: &Response) -> bool {
        let line = notice_line(self.cfg.legacy, text, response);
        stream.write_all(format!("{line}\n").as_bytes()).is_ok()
    }

    /// One connection: newline-framed read loop with the slow-client
    /// defense, admission control per job line, and the shared
    /// [`Session`] protocol loop.
    fn serve_conn(
        &self,
        mut stream: TcpStream,
        peer: SocketAddr,
        service: &Service,
        journal: Option<&Mutex<Journal>>,
    ) {
        let client = peer.ip().to_string();
        let _ = stream.set_nonblocking(false);
        // Short poll so shutdown and the slow-read deadline are
        // honored while the client is idle.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
        let session = Session::new(service, journal, self.cfg.dir.clone(), self.cfg.legacy);
        let read_timeout = Duration::from_millis(self.cfg.read_timeout_ms.max(1));

        let mut buf: Vec<u8> = Vec::new();
        let mut tmp = [0u8; 1024];
        let mut partial_since: Option<Instant> = None;
        loop {
            // Drain complete frames before reading more.
            while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                let frame: Vec<u8> = buf.drain(..=pos).collect();
                partial_since = if buf.is_empty() {
                    None
                } else {
                    Some(Instant::now())
                };
                let line = String::from_utf8_lossy(&frame[..frame.len() - 1]).into_owned();
                if !self.handle_frame(&mut stream, &client, &line, &session, service) {
                    return;
                }
            }
            if self.is_shutdown() {
                return; // drain: no new frames, current ones finished
            }
            if buf.len() > MAX_LINE_LEN {
                // An unterminated frame longer than any legal line:
                // reject and close rather than buffer without bound.
                self.close_slow(&mut stream, "frame exceeds MAX_LINE_LEN without newline");
                return;
            }
            if let Some(since) = partial_since {
                let stalled = since.elapsed() > read_timeout
                    || service.fault_plan().should_fire(Site::NetSlowLoris);
                if stalled {
                    self.close_slow(&mut stream, "partial frame stalled past the read timeout");
                    return;
                }
            }
            match stream.read(&mut tmp) {
                Ok(0) => return, // EOF
                Ok(n) => {
                    buf.extend_from_slice(&tmp[..n]);
                    if !buf.is_empty() && partial_since.is_none() {
                        partial_since = Some(Instant::now());
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(_) => {
                    self.tally(|m| m.disconnects += 1);
                    return;
                }
            }
        }
    }

    /// Slow-read defense: error reply, count, close.
    fn close_slow(&self, stream: &mut TcpStream, why: &str) {
        self.tally(|m| m.slow_closes += 1);
        let err = WireError {
            code: "slow-read",
            message: why.to_string(),
        };
        self.write_notice(stream, why, &Response::error("", &err));
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }

    /// Handle one complete frame; `false` ends the connection.
    fn handle_frame(
        &self,
        stream: &mut TcpStream,
        client: &str,
        line: &str,
        session: &Session<'_>,
        service: &Service,
    ) -> bool {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return true;
        }
        self.tally(|m| m.count_request(client));

        // Control verbs bypass admission — they are cheap and must
        // work *especially* when the server is saturated.
        let permit = if Request::parse_control(trimmed).is_some() {
            None
        } else {
            match self.admission.acquire(client) {
                Admit::Permit => Some(()),
                Admit::Shed { retry_after_ms } => {
                    self.tally(|m| m.shed += 1);
                    service.trace().instant(
                        "net",
                        "shed",
                        vec![
                            ("client", client.into()),
                            ("retry_after_ms", (retry_after_ms as i64).into()),
                        ],
                    );
                    let id = trimmed.split_whitespace().next().unwrap_or("");
                    return self.write_notice(
                        stream,
                        &format!("overloaded, retry in {retry_after_ms} ms"),
                        &Response::shed(id, retry_after_ms),
                    );
                }
                Admit::Closed => return false,
            }
        };
        let reply = session.handle_line(line);
        if permit.is_some() {
            self.admission.release(client);
        }

        // The acked-vs-journaled window: the outcome is durable (the
        // session journals before returning), but the reply is dropped
        // on the floor — the client must reconnect and be answered
        // from the journal.
        if permit.is_some() && service.fault_plan().should_fire(Site::NetDisconnect) {
            self.tally(|m| m.disconnects += 1);
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return false;
        }

        match reply {
            Reply::Quit => {
                let _ = stream.shutdown(std::net::Shutdown::Both);
                false
            }
            Reply::Lines(lines) => {
                let mut out = String::new();
                for l in &lines {
                    if l.contains("\"status\":\"error\"") || l.starts_with("error: ") {
                        self.tally(|m| m.errors += 1);
                    }
                    out.push_str(l);
                    out.push('\n');
                }
                if stream.write_all(out.as_bytes()).is_err() {
                    self.tally(|m| m.disconnects += 1);
                    return false;
                }
                true
            }
            Reply::Text(mut text) => {
                // TCP `metrics prom` appends the ingress families to
                // the service exposition.
                if trimmed == "metrics prom" {
                    text.push_str(&self.metrics().to_prometheus());
                }
                if stream.write_all(text.as_bytes()).is_err() {
                    self.tally(|m| m.disconnects += 1);
                    return false;
                }
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;
    use std::io::{BufRead, BufReader};

    const SIR: &str = "func main() -> i64 {\nbb0:\n  ret 7\n}\n";

    fn tmpdir() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "slo-net-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&d).expect("mkdir");
        d
    }

    fn test_cfg(dir: PathBuf) -> NetConfig {
        NetConfig {
            dir,
            ..NetConfig::default()
        }
    }

    fn send_lines(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
        let mut conn = TcpStream::connect(addr).expect("connect");
        for l in lines {
            conn.write_all(format!("{l}\n").as_bytes()).expect("send");
        }
        conn.shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        BufReader::new(conn)
            .lines()
            .map(|l| l.expect("reply line"))
            .collect()
    }

    #[test]
    fn serves_jobs_and_handshake_over_tcp() {
        let dir = tmpdir();
        std::fs::write(dir.join("t.sir"), SIR).expect("write");
        let service = Service::new(ServiceConfig::builder().workers(1).build());
        let server = NetServer::bind(test_cfg(dir)).expect("bind");
        let addr = server.local_addr().expect("addr");
        std::thread::scope(|s| {
            s.spawn(|| server.run(&service, None).expect("run"));
            let replies = send_lines(addr, &["hello v=1", "t.sir scheme=ispbo", "quit"]);
            assert_eq!(replies.len(), 2, "{replies:?}");
            let hello = Response::parse(&replies[0]).expect("hello json");
            assert_eq!(hello.status, "ok");
            assert_eq!(hello.v, crate::proto::PROTO_VERSION);
            let job = Response::parse(&replies[1]).expect("job json");
            assert_eq!(job.status, "optimized");
            assert_eq!(job.id, "t");
            server.request_shutdown();
        });
        let m = server.metrics();
        assert_eq!(m.accepted, 1);
        assert_eq!(m.requests, 3);
        assert_eq!(m.shed, 0);
    }

    #[test]
    fn tcp_metrics_prom_reply_is_one_conformant_exposition() {
        let dir = tmpdir();
        std::fs::write(dir.join("p.sir"), SIR).expect("write");
        let service = Service::new(ServiceConfig::builder().workers(1).build());
        let server = NetServer::bind(test_cfg(dir)).expect("bind");
        let addr = server.local_addr().expect("addr");
        let replies = std::thread::scope(|s| {
            s.spawn(|| server.run(&service, None).expect("run"));
            let replies = send_lines(addr, &["p.sir", "metrics prom", "quit"]);
            server.request_shutdown();
            replies
        });
        let job = Response::parse(&replies[0]).expect("job json");
        assert_eq!(job.status, "optimized");
        let text = replies[1..].join("\n");
        let summary = slo_obs::conform::check_prometheus(&text).expect("valid exposition");
        for family in [
            "slo_jobs_total",
            "slo_jobs_by_status_total",
            "slo_jobs_degraded_total",
            "slo_panics_total",
            "slo_retries_total",
            "slo_quarantined_total",
            "slo_faults_injected_total",
            "slo_cache_events_total",
            "slo_cache_hit_rate",
            "slo_store_events_total",
            "slo_store_bytes_written_total",
            "slo_store_hit_rate",
            "slo_phase_seconds_total",
            "slo_net_connections_total",
            "slo_net_requests_total",
            "slo_net_shed_total",
            "slo_net_errors_total",
            "slo_net_queue_depth",
            "slo_net_queue_depth_peak",
            "slo_net_client_requests_total",
        ] {
            assert!(summary.has(family), "missing family {family}");
        }
        assert_eq!(summary.families.len(), 20, "{:?}", summary.families);
        // Service families first, then the ingress families.
        let first_net = replies[1..]
            .iter()
            .position(|l| l.contains("slo_net_"))
            .expect("net families");
        assert!(replies[1 + first_net..]
            .iter()
            .all(|l| l.contains("slo_net_")));
        assert!(text.contains("slo_jobs_total 1\n"));
        assert!(text.contains("slo_net_requests_total 2\n"));
    }

    #[test]
    fn validator_is_shared_on_the_tcp_path() {
        let dir = tmpdir();
        std::fs::write(dir.join("v.sir"), SIR).expect("write");
        let service = Service::new(ServiceConfig::builder().workers(1).build());
        let server = NetServer::bind(test_cfg(dir)).expect("bind");
        let addr = server.local_addr().expect("addr");
        std::thread::scope(|s| {
            s.spawn(|| server.run(&service, None).expect("run"));
            let long = format!("v.sir {}", "x".repeat(MAX_LINE_LEN));
            let replies = send_lines(
                addr,
                &[&long, "v.sir steps=1 steps=2", "v.sir wat=1", "quit"],
            );
            assert_eq!(replies.len(), 3, "{replies:?}");
            let codes: Vec<String> = replies
                .iter()
                .map(|r| Response::parse(r).expect("json").code.expect("code"))
                .collect();
            assert_eq!(
                codes,
                ["line-too-long", "duplicate-attribute", "bad-request"]
            );
            server.request_shutdown();
        });
        assert_eq!(server.metrics().errors, 3);
    }

    #[test]
    fn overlong_unterminated_frame_is_closed() {
        let dir = tmpdir();
        let service = Service::new(ServiceConfig::builder().workers(1).build());
        let server = NetServer::bind(test_cfg(dir)).expect("bind");
        let addr = server.local_addr().expect("addr");
        std::thread::scope(|s| {
            s.spawn(|| server.run(&service, None).expect("run"));
            let mut conn = TcpStream::connect(addr).expect("connect");
            // No newline, ever: the server must give up, not buffer.
            conn.write_all(&vec![b'x'; MAX_LINE_LEN + 2]).expect("send");
            let mut reply = String::new();
            BufReader::new(&mut conn)
                .read_line(&mut reply)
                .expect("reply");
            let r = Response::parse(&reply).expect("json");
            assert_eq!(r.status, "error");
            assert_eq!(r.code.as_deref(), Some("slow-read"));
            server.request_shutdown();
        });
        assert_eq!(server.metrics().slow_closes, 1);
    }

    #[test]
    fn admission_sheds_per_client_share_and_recovers() {
        let adm = Admission::new(&NetConfig {
            max_inflight: 1,
            queue_capacity: 0,
            per_client_inflight: 1,
            retry_after_ms: 25,
            ..NetConfig::default()
        });
        assert!(matches!(adm.acquire("10.0.0.1"), Admit::Permit));
        // Same client: over its fairness share.
        let Admit::Shed { retry_after_ms } = adm.acquire("10.0.0.1") else {
            panic!("expected per-client shed");
        };
        assert_eq!(retry_after_ms, 25);
        // Different client: pool is saturated and the queue holds 0.
        assert!(matches!(adm.acquire("10.0.0.2"), Admit::Shed { .. }));
        adm.release("10.0.0.1");
        assert!(matches!(adm.acquire("10.0.0.2"), Admit::Permit));
        adm.close();
        assert!(matches!(adm.acquire("10.0.0.3"), Admit::Closed));
    }

    #[test]
    fn queued_acquire_wakes_when_a_permit_frees() {
        let adm = Admission::new(&NetConfig {
            max_inflight: 1,
            queue_capacity: 4,
            per_client_inflight: 8,
            ..NetConfig::default()
        });
        assert!(matches!(adm.acquire("a"), Admit::Permit));
        std::thread::scope(|s| {
            let waiter = s.spawn(|| adm.acquire("b"));
            // Give the waiter time to enqueue, then free the permit.
            while adm.depth() == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            adm.release("a");
            assert!(matches!(waiter.join().expect("join"), Admit::Permit));
        });
        assert_eq!(adm.depth(), 0);
        assert_eq!(adm.depth_peak.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn requests_from_clients_past_the_tracked_limit_fold_into_other() {
        let mut snap = NetSnapshot::default();
        for i in 0..MAX_TRACKED_CLIENTS + 2 {
            snap.count_request(&format!("10.0.0.{i}"));
        }
        snap.count_request("10.0.0.0");
        let count = |client: &str| {
            snap.per_client
                .iter()
                .find(|(c, _)| c == client)
                .map(|&(_, n)| n)
        };
        assert_eq!(snap.requests, MAX_TRACKED_CLIENTS as u64 + 3);
        assert_eq!(snap.per_client.len(), MAX_TRACKED_CLIENTS + 1);
        assert_eq!(count("10.0.0.0"), Some(2));
        assert_eq!(count("other"), Some(2));
        assert!(snap.per_client.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn net_prometheus_exposition_is_conformant() {
        let snap = NetSnapshot {
            accepted: 3,
            rejected: 1,
            requests: 9,
            shed: 2,
            errors: 1,
            disconnects: 1,
            slow_closes: 1,
            queue_depth: 0,
            queue_depth_peak: 4,
            per_client: vec![("127.0.0.1".to_string(), 8), ("other".to_string(), 1)],
        };
        let text = snap.to_prometheus();
        let s = slo_obs::conform::check_prometheus(&text).expect("valid exposition");
        for family in [
            "slo_net_connections_total",
            "slo_net_requests_total",
            "slo_net_shed_total",
            "slo_net_errors_total",
            "slo_net_queue_depth",
            "slo_net_queue_depth_peak",
            "slo_net_client_requests_total",
        ] {
            assert!(s.has(family), "missing family {family}");
        }
        assert!(text.contains("slo_net_shed_total 2"));
        assert!(text.contains("slo_net_client_requests_total{client=\"127.0.0.1\"} 8"));
    }

    #[test]
    fn graceful_drain_finishes_inflight_and_stops_accepting() {
        let dir = tmpdir();
        std::fs::write(dir.join("d.sir"), SIR).expect("write");
        let service = Service::new(ServiceConfig::builder().workers(1).build());
        let server = NetServer::bind(test_cfg(dir)).expect("bind");
        let addr = server.local_addr().expect("addr");
        std::thread::scope(|s| {
            let runner = s.spawn(|| server.run(&service, None));
            let replies = send_lines(addr, &["d.sir", "quit"]);
            assert_eq!(replies.len(), 1);
            server.request_shutdown();
            assert!(runner.join().expect("join").is_ok());
        });
        assert_eq!(server.metrics().accepted, 1);
        assert_eq!(service.metrics().jobs, 1, "in-flight job finished");
        // Post-drain: the listener is gone, so new connections are
        // refused (or land in a dead backlog and are never served).
        drop(server);
        assert!(TcpStream::connect(addr).is_err());
    }
}
