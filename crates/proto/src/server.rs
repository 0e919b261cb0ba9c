//! The server loop: line-delimited JSON-RPC sessions over arbitrary byte
//! streams, stdio, and a Unix-domain socket (one thread per connection).
//!
//! Each connection gets its own [`Session`]; a `shutdown` command ends the
//! connection and — for the socket server — stops the accept loop, so a
//! client can bring the daemon down cleanly. [`serve_unix`] also accepts a
//! connection budget (`max_conns`) for run-one-job-and-exit uses such as
//! CI smoke stages.

use crate::json;
use crate::msg::{code, Request, Response, RpcError};
use crate::session::{Session, SessionLimits};
use std::io::{self, BufRead, BufReader, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Load-shedding counters, shared by every connection of one server so
/// the `health` command can report how much work was refused. Both
/// counters only ever grow.
#[derive(Debug, Default)]
pub struct ShedCounters {
    /// Connections refused at accept time (admission control — the
    /// reactor's `max_clients` cap).
    pub admission: AtomicU64,
    /// Requests rejected with [`code::BUSY`] after admission.
    pub busy: AtomicU64,
}

impl ShedCounters {
    /// Snapshot `(admission, busy)`.
    pub fn snapshot(&self) -> (u64, u64) {
        (
            self.admission.load(Ordering::Relaxed),
            self.busy.load(Ordering::Relaxed),
        )
    }
}

/// Serving-path hardening knobs: everything a hostile or broken client can
/// exhaust is bounded here, not in the session state machine.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Longest accepted request line in bytes, newline included. Binaries
    /// travel hex-encoded on one line, so this caps the largest `binary`
    /// payload at roughly half this value; raise it (or `e9patchd
    /// --max-line-bytes`) for very large inputs. Oversized lines are
    /// drained and answered with a [`code::LIMIT`] error; the connection
    /// stays up.
    pub max_line_bytes: usize,
    /// Per-session resource quotas, enforced by [`Session`].
    pub limits: SessionLimits,
    /// Socket read/write timeout (`None` = block forever). Only the Unix
    /// socket transport can enforce this; stdio ignores it.
    pub io_timeout: Option<Duration>,
    /// Shared rewrite cache (`e9patchd --cache-dir` / `--cache-mem-bytes`).
    /// One [`Arc`](std::sync::Arc) handed to every connection's session,
    /// so all clients pool artifacts; `None` disables caching.
    pub cache: Option<std::sync::Arc<e9cache::Cache>>,
    /// Which serving core this config drives, as reported by the `health`
    /// command: `stdio`, `threaded`, `reactor`, or `in-process`.
    pub serving_mode: &'static str,
    /// Shared load-shedding counters, reported by `health`.
    pub shed: Arc<ShedCounters>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_line_bytes: 64 << 20,
            limits: SessionLimits::default(),
            io_timeout: Some(Duration::from_millis(30_000)),
            cache: None,
            serving_mode: "in-process",
            shed: Arc::new(ShedCounters::default()),
        }
    }
}

/// Outcome of one capped line read.
enum LineRead {
    /// Clean end of stream.
    Eof,
    /// A complete line is in the buffer.
    Line,
    /// The line exceeded the cap; it was drained up to its newline (or
    /// EOF) and the buffer contents are meaningless.
    Oversized,
}

/// Read one `\n`-terminated line into `buf`, refusing to buffer more than
/// `cap` bytes. An over-long line is consumed (so the stream stays framed)
/// but not stored.
fn read_capped_line<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    cap: usize,
) -> io::Result<LineRead> {
    buf.clear();
    loop {
        // EINTR during a socket read is not end-of-session: `fill_buf`
        // propagates it raw (unlike `write_all`, which retries
        // internally), so without this retry a signal delivered to a
        // serving thread — profiler, debugger attach, SIGCHLD — would
        // tear down an innocent connection.
        let chunk = match e9failpt::fail_io("proto.server.read").and_then(|()| reader.fill_buf()) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            other => other?,
        };
        if chunk.is_empty() {
            return Ok(if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line // unterminated final line
            });
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                let take = pos + 1;
                let fits = buf.len().saturating_add(take) <= cap;
                if fits {
                    buf.extend_from_slice(&chunk[..take]);
                }
                reader.consume(take);
                return Ok(if fits { LineRead::Line } else { LineRead::Oversized });
            }
            None => {
                let take = chunk.len();
                if buf.len().saturating_add(take) > cap {
                    reader.consume(take);
                    drain_to_newline(reader)?;
                    return Ok(LineRead::Oversized);
                }
                buf.extend_from_slice(chunk);
                reader.consume(take);
            }
        }
    }
}

/// Discard stream bytes up to and including the next newline (or EOF).
fn drain_to_newline<R: BufRead>(reader: &mut R) -> io::Result<()> {
    loop {
        let chunk = match reader.fill_buf() {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            other => other?,
        };
        if chunk.is_empty() {
            return Ok(());
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                reader.consume(pos + 1);
                return Ok(());
            }
            None => {
                let n = chunk.len();
                reader.consume(n);
            }
        }
    }
}

/// Serve one session: read request lines from `reader`, write response
/// lines to `writer`, until EOF or `shutdown`. Uses [`ServeConfig`]
/// defaults; see [`serve_connection_with`].
///
/// Returns `true` if the session ended because of a `shutdown` command.
///
/// # Errors
///
/// Only transport-level I/O failures; protocol errors are reported to the
/// client in-band and never tear down the loop.
pub fn serve_connection<R: BufRead, W: Write>(reader: &mut R, writer: &mut W) -> io::Result<bool> {
    serve_connection_with(reader, writer, &ServeConfig::default())
}

/// [`serve_connection`] with explicit hardening knobs.
///
/// Three classes of bad input are survived in-band, keeping the
/// connection and the accept loop alive:
///
/// * request lines longer than `config.max_line_bytes` → drained,
///   answered with [`code::LIMIT`];
/// * malformed or over-quota requests → typed errors from
///   [`dispatch_line`] / [`Session`];
/// * a panic inside request handling → caught here, answered with
///   [`code::INTERNAL`]. [`dispatch_line`] itself stays panic-free by
///   construction (the fault-injection campaign drives it directly and
///   treats any unwind as a bug); this catch is defence in depth so one
///   connection's bug can never take the daemon down.
///
/// # Errors
///
/// Only transport-level I/O failures (including read timeouts configured
/// on the underlying stream).
pub fn serve_connection_with<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    config: &ServeConfig,
) -> io::Result<bool> {
    let mut session = Session::with_limits(config.limits);
    session.set_cache(config.cache.clone());
    session.set_health(config.serving_mode, Arc::clone(&config.shed));
    let mut line = Vec::new();
    loop {
        let response = match read_capped_line(reader, &mut line, config.max_line_bytes)? {
            LineRead::Eof => return Ok(false),
            LineRead::Oversized => Response::err(
                None,
                RpcError::new(
                    code::LIMIT,
                    format!(
                        "request line exceeds {} bytes; see --max-line-bytes",
                        config.max_line_bytes
                    ),
                ),
            ),
            LineRead::Line => {
                if line.iter().all(|b| b.is_ascii_whitespace()) {
                    continue;
                }
                match catch_unwind(AssertUnwindSafe(|| dispatch_line(&mut session, &line))) {
                    Ok(resp) => resp,
                    Err(_) => Response::err(
                        None,
                        RpcError::new(code::INTERNAL, "internal error while handling request"),
                    ),
                }
            }
        };
        let text = response.encode();
        // The injection point sits *before* any bytes land, so a retried
        // interrupt can never duplicate a partial response. (Real EINTR
        // mid-write is already absorbed inside `write_all`.)
        e9failpt::retry::retry_interrupted(e9failpt::retry::EINTR_BUDGET, || {
            e9failpt::fail_io("proto.server.write")?;
            writer.write_all(text.as_bytes())?;
            writer.write_all(b"\n")?;
            writer.flush()
        })?;
        if session.shutdown_requested() {
            return Ok(true);
        }
    }
}

/// Parse and execute one raw request line against `session`.
///
/// This is the protocol's single choke point: malformed JSON becomes a
/// [`code::PARSE`] error with a `null` id, a bad envelope or unknown
/// method keeps its id when one is recoverable, and session errors are
/// forwarded verbatim.
pub fn dispatch_line(session: &mut Session, line: &[u8]) -> Response {
    let value = match json::parse(trim_ascii(line)) {
        Ok(v) => v,
        Err(e) => {
            return Response::err(None, RpcError::new(code::PARSE, e.to_string()));
        }
    };
    match Request::decode(&value) {
        Ok(req) => {
            let body = session.handle(req.cmd);
            Response { id: Some(req.id), body }
        }
        Err(e) => {
            // Salvage the id when the envelope carried one.
            let id = value.get("id").and_then(json::Json::as_u64);
            Response::err(id, e)
        }
    }
}

fn trim_ascii(mut b: &[u8]) -> &[u8] {
    while let [rest @ .., last] = b {
        if last.is_ascii_whitespace() {
            b = rest;
        } else {
            break;
        }
    }
    while let [first, rest @ ..] = b {
        if first.is_ascii_whitespace() {
            b = rest;
        } else {
            break;
        }
    }
    b
}

/// Serve one session over the process's stdin/stdout (the `e9patchd`
/// default mode: the client owns the process and its pipes).
///
/// # Errors
///
/// Transport-level I/O failures.
pub fn serve_stdio() -> io::Result<()> {
    serve_stdio_with(&ServeConfig::default())
}

/// [`serve_stdio`] with explicit hardening knobs. `config.io_timeout` is
/// ignored: pipes have no portable read timeout, and the client owns the
/// process anyway.
///
/// # Errors
///
/// Transport-level I/O failures.
pub fn serve_stdio_with(config: &ServeConfig) -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut reader = stdin.lock();
    let mut writer = stdout.lock();
    serve_connection_with(&mut reader, &mut writer, config)?;
    Ok(())
}

/// Unix-domain socket server: accept loop with one thread per connection.
#[cfg(unix)]
pub mod unix {
    use super::*;
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// Bind `path` and serve until a client sends `shutdown` or `max_conns`
    /// connections have been accepted (`None` = unlimited). The socket file
    /// is replaced on bind and removed on exit. Uses [`ServeConfig`]
    /// defaults; see [`serve_unix_with`].
    ///
    /// # Errors
    ///
    /// Bind/accept failures. Per-connection I/O errors only end that
    /// connection.
    pub fn serve_unix(path: &Path, max_conns: Option<usize>) -> io::Result<()> {
        serve_unix_with(path, max_conns, &ServeConfig::default())
    }

    /// [`serve_unix`] with explicit hardening knobs.
    ///
    /// Each accepted stream gets `config.io_timeout` as both its read and
    /// write timeout, so a client that connects and then stalls (or stops
    /// draining responses) is disconnected instead of pinning a server
    /// thread forever. Connection threads are panic-isolated twice over:
    /// request handling is caught inside [`serve_connection_with`], and a
    /// residual unwind in the transport layer is caught here so it can
    /// never poison the accept loop. On exit (shutdown or connection
    /// budget) all live connection threads are joined — a graceful drain,
    /// not an abort — before the socket file is removed.
    ///
    /// # Errors
    ///
    /// Bind/accept failures. Per-connection I/O errors only end that
    /// connection.
    pub fn serve_unix_with(
        path: &Path,
        max_conns: Option<usize>,
        config: &ServeConfig,
    ) -> io::Result<()> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        let stop = Arc::new(AtomicBool::new(false));
        let sockpath: PathBuf = path.to_path_buf();
        let mut handles = Vec::new();
        let mut accepted = 0usize;
        while !stop.load(Ordering::SeqCst) {
            // `accept` is the classic EINTR victim: a stray signal must
            // re-check the stop flag and keep accepting, not kill the
            // daemon's accept loop.
            let (stream, _) = match e9failpt::fail_io("proto.server.accept")
                .and_then(|()| listener.accept())
            {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                other => other?,
            };
            if stop.load(Ordering::SeqCst) {
                break; // the wake-up connection after a shutdown
            }
            accepted += 1;
            let stop = Arc::clone(&stop);
            let wake = sockpath.clone();
            let config = config.clone();
            handles.push(std::thread::spawn(move || {
                let served =
                    catch_unwind(AssertUnwindSafe(|| handle_stream(stream, &config)));
                if let Ok(Ok(true)) = served {
                    stop.store(true, Ordering::SeqCst);
                    // Unblock the accept loop so it can observe the flag.
                    let _ = UnixStream::connect(&wake);
                }
            }));
            if let Some(max) = max_conns {
                if accepted >= max {
                    break;
                }
            }
        }
        for h in handles {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&sockpath);
        Ok(())
    }

    fn handle_stream(stream: UnixStream, config: &ServeConfig) -> io::Result<bool> {
        stream.set_read_timeout(config.io_timeout)?;
        stream.set_write_timeout(config.io_timeout)?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        serve_connection_with(&mut reader, &mut writer, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{Command, EmitReply, PROTOCOL_VERSION};

    fn run_lines(input: &str) -> Vec<Response> {
        let mut reader = io::Cursor::new(input.as_bytes().to_vec());
        let mut out: Vec<u8> = Vec::new();
        serve_connection(&mut reader, &mut out).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Response::decode(&json::parse(l.as_bytes()).unwrap()).unwrap())
            .collect()
    }

    #[test]
    fn parse_errors_get_null_id_and_continue() {
        let responses = run_lines(
            "this is not json\n\
             {\"jsonrpc\":\"2.0\",\"id\":3,\"method\":\"version\",\"params\":{\"version\":2}}\n",
        );
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0].id, None);
        assert_eq!(responses[0].body.as_ref().unwrap_err().code, code::PARSE);
        assert_eq!(responses[1].id, Some(3));
        assert!(responses[1].body.is_ok());
    }

    #[test]
    fn unknown_method_keeps_its_id() {
        let responses = run_lines("{\"jsonrpc\":\"2.0\",\"id\":9,\"method\":\"frobnicate\"}\n");
        assert_eq!(responses[0].id, Some(9));
        assert_eq!(
            responses[0].body.as_ref().unwrap_err().code,
            code::METHOD_NOT_FOUND
        );
    }

    #[test]
    fn oversized_lines_get_limit_error_and_continue() {
        let config = ServeConfig {
            max_line_bytes: 128,
            ..ServeConfig::default()
        };
        let big = "x".repeat(4096);
        let input = format!(
            "{{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"{big}\"}}\n\
             {{\"jsonrpc\":\"2.0\",\"id\":2,\"method\":\"version\",\"params\":{{\"version\":2}}}}\n"
        );
        let mut reader = io::Cursor::new(input.into_bytes());
        let mut out: Vec<u8> = Vec::new();
        serve_connection_with(&mut reader, &mut out, &config).unwrap();
        let responses: Vec<Response> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Response::decode(&json::parse(l.as_bytes()).unwrap()).unwrap())
            .collect();
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0].id, None);
        assert_eq!(responses[0].body.as_ref().unwrap_err().code, code::LIMIT);
        // The stream stayed framed: the next request still succeeds.
        assert_eq!(responses[1].id, Some(2));
        assert!(responses[1].body.is_ok());
    }

    #[test]
    fn blank_lines_are_skipped() {
        let responses = run_lines(
            "\n  \n{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"version\",\"params\":{\"version\":2}}\n\n",
        );
        assert_eq!(responses.len(), 1);
    }

    #[test]
    fn shutdown_ends_the_connection() {
        let input = "\
            {\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"version\",\"params\":{\"version\":2}}\n\
            {\"jsonrpc\":\"2.0\",\"id\":2,\"method\":\"shutdown\",\"params\":{}}\n\
            {\"jsonrpc\":\"2.0\",\"id\":3,\"method\":\"emit\",\"params\":{}}\n";
        let mut reader = io::Cursor::new(input.as_bytes().to_vec());
        let mut out: Vec<u8> = Vec::new();
        let shut = serve_connection(&mut reader, &mut out).unwrap();
        assert!(shut);
        // The post-shutdown request was never processed.
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 2);
    }

    #[test]
    fn full_wire_session_round_trips() {
        // Drive a complete patch job purely through the byte-stream
        // interface and check the reply decodes.
        let code_bytes = vec![
            0x48, 0x89, 0x03, 0x48, 0x83, 0xC0, 0x20, 0xC3, //
            0x0F, 0x1F, 0x44, 0x00, 0x00, 0x0F, 0x1F, 0x44, 0x00, 0x00,
        ];
        let mut b = e9elf::build::ElfBuilder::exec(0x400000);
        b.text(code_bytes.clone(), 0x401000);
        b.entry(0x401000);
        let bin = b.build();
        let disasm = e9x86::decode::linear_sweep(&code_bytes, 0x401000);

        let mut input = String::new();
        let mut id = 0u64;
        let mut push = |cmd: Command, input: &mut String| {
            id += 1;
            input.push_str(&Request { id, cmd }.encode());
            input.push('\n');
        };
        push(Command::Version { version: PROTOCOL_VERSION }, &mut input);
        push(Command::Binary { bytes: bin, digest: None }, &mut input);
        for i in &disasm {
            push(
                Command::Instruction {
                    addr: i.addr,
                    bytes: i.bytes().to_vec(),
                },
                &mut input,
            );
        }
        push(
            Command::Patch {
                addr: 0x401000,
                template: e9patch::Template::Empty,
            },
            &mut input,
        );
        push(Command::Emit, &mut input);

        let responses = run_lines(&input);
        let last = responses.last().unwrap();
        let reply = EmitReply::from_json(last.body.as_ref().unwrap()).unwrap();
        assert_eq!(reply.stats.succeeded(), 1);
        assert!(reply.binary.len() > 0x1000);
    }

    #[test]
    fn oversized_granularity_is_typed_through_dispatch_line() {
        // Both values used to panic the rewriter, which the daemon
        // answered with `-6 INTERNAL`; now the emit is a typed error.
        let code_bytes = vec![0x48, 0x89, 0x03, 0xC3, 0x0F, 0x1F, 0x44, 0x00, 0x00];
        let mut b = e9elf::build::ElfBuilder::exec(0x400000);
        b.text(code_bytes.clone(), 0x401000);
        b.entry(0x401000);
        let bin = b.build();
        for m in ["34359738368", "4503599627370496"] {
            let mut cmds = vec![
                Command::Version { version: PROTOCOL_VERSION },
                Command::Option {
                    name: "granularity".into(),
                    value: m.into(),
                },
                Command::Binary {
                    bytes: bin.clone(),
                    digest: None,
                },
            ];
            for i in e9x86::decode::linear_sweep(&code_bytes, 0x401000) {
                cmds.push(Command::Instruction {
                    addr: i.addr,
                    bytes: i.bytes().to_vec(),
                });
            }
            cmds.push(Command::Patch {
                addr: 0x401000,
                template: e9patch::Template::Empty,
            });
            cmds.push(Command::Emit);
            let mut session = Session::new();
            let last = cmds.len() - 1;
            for (id, cmd) in cmds.into_iter().enumerate() {
                let line = Request { id: id as u64, cmd }.encode();
                let body = dispatch_line(&mut session, line.as_bytes()).body;
                if id < last {
                    body.expect("setup command failed");
                } else {
                    let e = body.unwrap_err();
                    assert_eq!(e.code, code::REWRITE, "granularity {m}: {}", e.message);
                }
            }
        }
    }
}
