//! `e9patchd` — the standalone patch-backend daemon.
//!
//! Serves the streaming JSON-RPC patch protocol (see the `e9proto` crate
//! docs) so external frontends can drive the rewriter without linking it:
//!
//! ```console
//! $ e9patchd --stdio                      # one session on stdin/stdout
//! $ e9patchd --socket /tmp/e9.sock        # daemon on a Unix socket
//! $ e9patchd --listen-tcp 127.0.0.1:9990  # daemon on TCP
//! $ e9patchd --socket /tmp/e9.sock --max-conns 1   # serve one job, exit
//! ```
//!
//! ## Serving modes
//!
//! The socket modes default to the **reactor**: one `e9loop` epoll event
//! loop multiplexing every connection (thousands of concurrent sessions,
//! request pipelining, admission control, graceful drain). Replies are
//! byte-identical to the legacy thread-per-connection server, which
//! remains available behind `--threaded`. `--socket` and `--listen-tcp`
//! can be combined (one loop serves both); `--threaded` supports only
//! `--socket`.
//!
//! A client `shutdown` command stops the daemon cleanly: the listeners
//! close immediately (late connections are refused, never hung) while
//! in-flight work finishes and its replies are flushed. `--max-conns N`
//! drains after `N` accepted connections (handy for CI smoke stages).
//!
//! ## Overload: the BUSY contract
//!
//! Under the reactor the daemon never stalls on an overloaded or hostile
//! client; it sheds load with a typed `BUSY` (-7) error, `id: null`:
//!
//! * arrivals past `--max-clients` get one BUSY line, then close;
//! * requests arriving while queued replies exceed `--max-pending-bytes`
//!   are answered BUSY instead of dispatched;
//! * a client that stops reading its replies is disconnected once its
//!   queue passes the per-connection cap.
//!
//! Hardening knobs (all have safe defaults):
//!
//! * `--timeout-ms N` — idle timeout in milliseconds (default 30000; `0`
//!   disables): a connection with no bytes moving either way for that
//!   long is dropped. (In `--threaded` mode this is the per-read socket
//!   timeout, as before.)
//! * `--max-line-bytes N` — longest accepted request line (default
//!   67108864 = 64 MiB). Longer lines are drained and answered with a
//!   typed `LIMIT` error; the connection survives.
//! * `--drain-ms N` — on shutdown, how long an in-flight connection may
//!   sit inactive before being cut (default 5000).
//!
//! Rewrite cache (PR 5): `--cache-dir PATH` enables the two-tier
//! content-addressed cache (memory LRU in front of an on-disk CAS at
//! `PATH`), shared by every connection. `--cache-mem-bytes N` bounds (or,
//! alone, enables memory-only caching); `--cache-disk-bytes N` adds
//! size-budgeted LRU eviction of the disk tier. Clients observe hits via
//! the `cache`/`digest` fields of the `emit` reply and the `cache`
//! command (stats / clear).

use e9proto::server::ServeConfig;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "e9patchd — E9Patch backend daemon (protocol version {})

USAGE:
  e9patchd [--stdio]                        serve one session on stdio
  e9patchd --socket PATH [--max-conns N]    serve a Unix socket (reactor)
  e9patchd --listen-tcp ADDR:PORT           serve TCP (reactor; combinable
                                            with --socket, one event loop)

OPTIONS:
  --threaded            legacy thread-per-connection mode (--socket only)
  --max-clients N       reactor connection cap; extra arrivals get a typed
                        BUSY error (default 1024)
  --max-pending-bytes N reactor loop-wide queued-reply budget; requests
                        over it get BUSY instead of stalling (default
                        268435456)
  --drain-ms N          shutdown drain inactivity bound in ms (default 5000)
  --timeout-ms N        idle timeout in ms (default 30000, 0 = none)
  --max-line-bytes N    longest accepted request line (default 67108864)
  --cache-dir PATH      enable the rewrite cache with an on-disk tier at PATH
  --cache-mem-bytes N   memory-tier budget in bytes (default 67108864;
                        without --cache-dir, enables memory-only caching)
  --cache-disk-bytes N  disk-tier budget in bytes (default: unbounded)
  --cache-bypass-bytes N  inputs below N bytes skip the cache entirely
                        (default 131072; 0 caches every size; modifier
                        only — does not enable the cache by itself)",
        e9proto::PROTOCOL_VERSION
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // Fault injection ships in release builds but stays inert (one
    // relaxed atomic load per I/O boundary) unless E9FAILPOINTS is set.
    match e9failpt::init_from_env() {
        Ok(true) => eprintln!(
            "e9patchd: fault injection active: {}",
            e9failpt::active_spec().unwrap_or_default()
        ),
        Ok(false) => {}
        Err(e) => {
            eprintln!("e9patchd: bad {}: {e}", e9failpt::ENV_SPEC);
            return ExitCode::from(2);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut socket: Option<String> = None;
    let mut listen_tcp: Option<String> = None;
    let mut max_conns: Option<usize> = None;
    let mut stdio = false;
    let mut threaded = false;
    let mut config = ServeConfig::default();
    let mut cache_config = e9cache::CacheConfig::default();
    let mut want_cache = false;
    #[cfg(target_os = "linux")]
    let mut reactor_opts = e9proto::reactor::ReactorOptions::default();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--stdio" => {
                stdio = true;
                i += 1;
            }
            "--threaded" => {
                threaded = true;
                i += 1;
            }
            "--socket" if i + 1 < argv.len() => {
                socket = Some(argv[i + 1].clone());
                i += 2;
            }
            "--listen-tcp" if i + 1 < argv.len() => {
                listen_tcp = Some(argv[i + 1].clone());
                i += 2;
            }
            "--max-conns" if i + 1 < argv.len() => {
                match argv[i + 1].parse() {
                    Ok(n) => max_conns = Some(n),
                    Err(_) => return usage(),
                }
                i += 2;
            }
            #[cfg(target_os = "linux")]
            "--max-clients" if i + 1 < argv.len() => {
                match argv[i + 1].parse::<usize>() {
                    Ok(n) if n >= 1 => reactor_opts.max_clients = n,
                    _ => return usage(),
                }
                i += 2;
            }
            #[cfg(target_os = "linux")]
            "--max-pending-bytes" if i + 1 < argv.len() => {
                match argv[i + 1].parse::<usize>() {
                    Ok(n) => reactor_opts.pending_budget_bytes = n,
                    Err(_) => return usage(),
                }
                i += 2;
            }
            #[cfg(target_os = "linux")]
            "--drain-ms" if i + 1 < argv.len() => {
                match argv[i + 1].parse::<u64>() {
                    Ok(ms) => reactor_opts.drain_timeout = Duration::from_millis(ms),
                    Err(_) => return usage(),
                }
                i += 2;
            }
            "--timeout-ms" if i + 1 < argv.len() => {
                match argv[i + 1].parse::<u64>() {
                    Ok(0) => config.io_timeout = None,
                    Ok(ms) => config.io_timeout = Some(Duration::from_millis(ms)),
                    Err(_) => return usage(),
                }
                i += 2;
            }
            "--max-line-bytes" if i + 1 < argv.len() => {
                match argv[i + 1].parse::<usize>() {
                    Ok(n) if n > 0 => config.max_line_bytes = n,
                    _ => return usage(),
                }
                i += 2;
            }
            "--cache-dir" if i + 1 < argv.len() => {
                cache_config.dir = Some(std::path::PathBuf::from(&argv[i + 1]));
                want_cache = true;
                i += 2;
            }
            "--cache-mem-bytes" if i + 1 < argv.len() => {
                match argv[i + 1].parse::<usize>() {
                    Ok(n) => cache_config.mem_bytes = Some(n),
                    Err(_) => return usage(),
                }
                want_cache = true;
                i += 2;
            }
            "--cache-disk-bytes" if i + 1 < argv.len() => {
                match argv[i + 1].parse::<u64>() {
                    Ok(n) => cache_config.disk_bytes = Some(n),
                    Err(_) => return usage(),
                }
                i += 2;
            }
            "--cache-bypass-bytes" if i + 1 < argv.len() => {
                match argv[i + 1].parse::<u64>() {
                    Ok(n) => cache_config.bypass_bytes = Some(n),
                    Err(_) => return usage(),
                }
                i += 2;
            }
            _ => return usage(),
        }
    }
    let socket_mode = socket.is_some() || listen_tcp.is_some();
    if stdio && socket_mode {
        return usage();
    }
    if threaded && (listen_tcp.is_some() || socket.is_none()) {
        // The legacy mode only ever spoke Unix sockets.
        return usage();
    }
    if want_cache {
        match e9cache::Cache::open(&cache_config) {
            Ok(cache) => config.cache = Some(Arc::new(cache)),
            Err(e) => {
                eprintln!("e9patchd: cannot open cache: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let result = if !socket_mode {
        config.serving_mode = "stdio";
        e9proto::server::serve_stdio_with(&config)
    } else if threaded {
        #[cfg(unix)]
        {
            config.serving_mode = "threaded";
            let path = std::path::PathBuf::from(socket.expect("checked"));
            eprintln!(
                "e9patchd: listening on {} (threaded, protocol version {})",
                path.display(),
                e9proto::PROTOCOL_VERSION
            );
            e9proto::server::unix::serve_unix_with(&path, max_conns, &config)
        }
        #[cfg(not(unix))]
        {
            eprintln!("e9patchd: --socket is only supported on Unix");
            return ExitCode::from(2);
        }
    } else {
        #[cfg(target_os = "linux")]
        {
            config.serving_mode = "reactor";
            reactor_opts.accept_budget = max_conns;
            serve_reactor_mode(socket.as_deref(), listen_tcp.as_deref(), &config, &reactor_opts)
        }
        #[cfg(not(target_os = "linux"))]
        {
            eprintln!("e9patchd: socket modes need Linux (epoll); use --stdio");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e9patchd: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Bind the requested listeners, announce them on stderr (the TCP line
/// prints the *resolved* address, so `--listen-tcp 127.0.0.1:0` callers
/// can parse the kernel-assigned port), and run the reactor.
#[cfg(target_os = "linux")]
fn serve_reactor_mode(
    socket: Option<&str>,
    listen_tcp: Option<&str>,
    config: &ServeConfig,
    opts: &e9proto::reactor::ReactorOptions,
) -> std::io::Result<()> {
    use e9loop::Listener;
    let mut listeners = Vec::new();
    let mut sock_path = None;
    if let Some(path) = socket {
        let path = std::path::PathBuf::from(path);
        let _ = std::fs::remove_file(&path);
        let l = std::os::unix::net::UnixListener::bind(&path)?;
        eprintln!(
            "e9patchd: listening on {} (reactor, protocol version {})",
            path.display(),
            e9proto::PROTOCOL_VERSION
        );
        sock_path = Some(path);
        listeners.push(Listener::Unix(l));
    }
    if let Some(addr) = listen_tcp {
        let l = std::net::TcpListener::bind(addr)?;
        let local = l.local_addr()?;
        eprintln!(
            "e9patchd: listening on tcp {local} (reactor, protocol version {})",
            e9proto::PROTOCOL_VERSION
        );
        listeners.push(Listener::Tcp(l));
    }
    let result = e9proto::reactor::serve_reactor(listeners, config, opts);
    if let Some(path) = sock_path {
        let _ = std::fs::remove_file(&path);
    }
    result.map(|_summary| ())
}
