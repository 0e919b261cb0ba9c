//! The reactor serving mode: `e9patchd`'s default multiplexed transport.
//!
//! Glue between the protocol-agnostic `e9loop` event loop and this
//! crate's [`Session`] state machine. The reactor owns sockets, framing,
//! fairness, admission control and drain; every complete request line
//! still funnels through [`dispatch_line`](crate::server::dispatch_line)
//! — the exact choke point the threaded path uses — so replies are
//! byte-identical between the two serving modes (asserted by the
//! `reactor_daemon` integration tests and verify.sh stage 7).
//!
//! ## The BUSY contract
//!
//! Overload never stalls a client; it is answered in-band with a typed
//! [`code::BUSY`] error (`id: null` — the request is refused *before*
//! parsing, deliberately, so a flood of expensive lines cannot buy CPU
//! with its own volume):
//!
//! * a connection arriving past `--max-clients` gets one BUSY line and a
//!   close;
//! * a request arriving while the loop's queued replies exceed
//!   `--max-pending-bytes` gets BUSY instead of a dispatch;
//! * a connection whose own unread replies exceed the per-connection
//!   queue cap is shed outright (it is not reading; nothing can be
//!   delivered to it).

use crate::msg::{code, Response, RpcError};
use crate::server::{dispatch_line, ServeConfig, ShedCounters};
use crate::session::Session;
use e9loop::Config as LoopConfig;
pub use e9loop::{Listener, Service, ServiceFactory, Summary};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Reactor-specific serving knobs, layered on top of [`ServeConfig`]
/// (which keeps owning the protocol-level hardening: line cap, session
/// quotas, idle timeout, shared cache).
#[derive(Debug, Clone)]
pub struct ReactorOptions {
    /// Most live connections; arrivals beyond this get one BUSY line.
    pub max_clients: usize,
    /// Loop-wide cap on queued (unwritten) reply bytes; above it,
    /// requests are answered BUSY instead of dispatched.
    pub pending_budget_bytes: usize,
    /// Per-connection cap on queued reply bytes; a client that stops
    /// reading its replies is shed once it parks more than this.
    pub conn_queue_bytes: usize,
    /// During drain, how long an in-flight connection may sit *inactive*
    /// before being cut; connections still making progress finish.
    pub drain_timeout: Duration,
    /// Total connections to accept before draining (`--max-conns`).
    pub accept_budget: Option<usize>,
}

impl Default for ReactorOptions {
    fn default() -> ReactorOptions {
        ReactorOptions {
            max_clients: 1024,
            pending_budget_bytes: 256 << 20,
            conn_queue_bytes: 256 << 20,
            drain_timeout: Duration::from_millis(5_000),
            accept_budget: None,
        }
    }
}

/// The one BUSY line, shared by admission shed and budget shed.
fn busy_line() -> Vec<u8> {
    let resp = Response::err(
        None,
        RpcError::new(
            code::BUSY,
            "server over capacity; request shed, retry later",
        ),
    );
    let mut out = resp.encode().into_bytes();
    out.push(b'\n');
    out
}

/// One connection's service: a [`Session`] behind the shared
/// [`dispatch_line`] choke point, with per-request panic isolation
/// exactly like the threaded path.
pub struct SessionService {
    session: Session,
    shed: Arc<ShedCounters>,
}

impl Service for SessionService {
    fn on_line(&mut self, line: &[u8]) -> Option<Vec<u8>> {
        if line.iter().all(u8::is_ascii_whitespace) {
            return None; // blank lines are skipped, same as threaded
        }
        let resp =
            match catch_unwind(AssertUnwindSafe(|| dispatch_line(&mut self.session, line))) {
                Ok(resp) => resp,
                Err(_) => Response::err(
                    None,
                    RpcError::new(code::INTERNAL, "internal error while handling request"),
                ),
            };
        let mut out = resp.encode().into_bytes();
        out.push(b'\n');
        Some(out)
    }

    fn on_oversized(&mut self, cap: usize) -> Vec<u8> {
        // Byte-identical to the threaded server's oversized-line reply.
        let resp = Response::err(
            None,
            RpcError::new(
                code::LIMIT,
                format!("request line exceeds {cap} bytes; see --max-line-bytes"),
            ),
        );
        let mut out = resp.encode().into_bytes();
        out.push(b'\n');
        out
    }

    fn on_busy(&mut self, _line: &[u8]) -> Vec<u8> {
        self.shed.busy.fetch_add(1, Ordering::Relaxed);
        busy_line()
    }

    fn shutdown_requested(&self) -> bool {
        self.session.shutdown_requested()
    }
}

/// Creates one [`SessionService`] per accepted connection, wired to the
/// shared [`ServeConfig`] (quotas, cache).
pub struct SessionFactory {
    config: ServeConfig,
}

impl SessionFactory {
    /// A factory serving sessions under `config`.
    #[must_use]
    pub fn new(config: ServeConfig) -> SessionFactory {
        SessionFactory { config }
    }
}

impl ServiceFactory for SessionFactory {
    type Svc = SessionService;

    fn connect(&mut self) -> SessionService {
        let mut session = Session::with_limits(self.config.limits);
        session.set_cache(self.config.cache.clone());
        session.set_health(self.config.serving_mode, Arc::clone(&self.config.shed));
        SessionService {
            session,
            shed: Arc::clone(&self.config.shed),
        }
    }

    fn admission_busy(&self) -> Vec<u8> {
        self.config.shed.admission.fetch_add(1, Ordering::Relaxed);
        busy_line()
    }
}

/// Serve the protocol over `listeners` on one reactor thread until a
/// client sends `shutdown` (or the accept budget is spent) and the
/// graceful drain completes.
///
/// `config.io_timeout` becomes the idle timeout: a connection with no
/// bytes moving in either direction for that long is cut, replacing the
/// threaded path's per-read socket timeout.
///
/// # Errors
///
/// Listener registration and epoll failures. Per-connection I/O errors
/// only end that connection.
pub fn serve_reactor(
    listeners: Vec<Listener>,
    config: &ServeConfig,
    opts: &ReactorOptions,
) -> io::Result<Summary> {
    let loop_config = LoopConfig {
        max_line_bytes: config.max_line_bytes,
        max_clients: opts.max_clients,
        pending_budget_bytes: opts.pending_budget_bytes,
        conn_queue_bytes: opts.conn_queue_bytes,
        idle_timeout: config.io_timeout,
        drain_timeout: opts.drain_timeout,
        accept_budget: opts.accept_budget,
    };
    e9loop::serve(listeners, SessionFactory::new(config.clone()), loop_config)
}
