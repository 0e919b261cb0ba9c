//! End-to-end tests of the reactor serving mode against the real
//! `e9patchd` binary: byte-identity with the legacy threaded path, the
//! TCP transport, request pipelining, graceful drain, and the BUSY
//! admission/backpressure contract.

#![cfg(target_os = "linux")]

use e9patch::{PatchRequest, RewriteConfig, Rewriter, Template};
use e9proto::msg::{code, Command, Request, PROTOCOL_VERSION};
use e9proto::ProtoClient;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command as Proc, Stdio};
use std::time::{Duration, Instant};

fn daemon_path() -> &'static str {
    env!("CARGO_BIN_EXE_e9patchd")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("e9reactor-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn wait_for_sock(sock: &Path) {
    for _ in 0..500 {
        if sock.exists() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon never bound {}", sock.display());
}

/// Connect as a fresh client once the daemon listens. The socket file
/// appears at `bind`, a moment before `listen`, so both a missing file and
/// a refused connect are retried.
fn connect(sock: &Path) -> UnixStream {
    use std::io::ErrorKind::{ConnectionRefused, NotFound};
    for _ in 0..500 {
        match UnixStream::connect(sock) {
            Err(e) if matches!(e.kind(), NotFound | ConnectionRefused) => {
                std::thread::sleep(Duration::from_millis(10));
            }
            other => return other.unwrap(),
        }
    }
    panic!("daemon never listened on {}", sock.display());
}

/// Kills the daemon on drop so a panicking test can never orphan it. An
/// orphaned daemon inherits the test runner's stdout, and any pipeline
/// reading that stream blocks on the survivor instead of seeing EOF.
struct Reap(Child);

impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn wait_for_exit(daemon: &mut Reap) {
    for _ in 0..500 {
        if let Some(status) = daemon.0.try_wait().unwrap() {
            assert!(status.success(), "daemon exited with {status}");
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon did not exit");
}

/// A synthetic workload binary, its disassembly, and its A1 jump sites.
fn workload() -> (Vec<u8>, Vec<e9x86::insn::Insn>, Vec<u64>) {
    let sb = e9synth::generate(&e9synth::Profile::tiny("reactor-test", false));
    let sites: Vec<u64> = sb
        .disasm
        .iter()
        .filter(|i| i.kind.is_jump())
        .map(|i| i.addr)
        .collect();
    assert!(!sites.is_empty());
    (sb.binary, sb.disasm, sites)
}

/// The raw request transcript for a full patch job (shutdown excluded).
fn job_transcript(bin: &[u8], disasm: &[e9x86::insn::Insn], sites: &[u64]) -> (String, usize) {
    let mut input = String::new();
    let mut id = 0u64;
    let mut push = |cmd: Command, input: &mut String| {
        id += 1;
        input.push_str(&Request { id, cmd }.encode());
        input.push('\n');
    };
    push(Command::Version { version: PROTOCOL_VERSION }, &mut input);
    push(
        Command::Binary {
            bytes: bin.to_vec(),
            digest: None,
        },
        &mut input,
    );
    for i in disasm {
        push(
            Command::Instruction {
                addr: i.addr,
                bytes: i.bytes().to_vec(),
            },
            &mut input,
        );
    }
    for &addr in sites {
        push(
            Command::Patch {
                addr,
                template: Template::Empty,
            },
            &mut input,
        );
    }
    push(Command::Emit, &mut input);
    let count = input.lines().count();
    (input, count)
}

fn read_lines<R: Read>(reader: &mut BufReader<R>, n: usize) -> Vec<String> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "early EOF");
        out.push(line);
    }
    out
}

fn reference(bin: &[u8], disasm: &[e9x86::insn::Insn], sites: &[u64]) -> Vec<u8> {
    let requests: Vec<PatchRequest> = sites
        .iter()
        .map(|&addr| PatchRequest {
            addr,
            template: Template::Empty,
        })
        .collect();
    Rewriter::new(RewriteConfig::default())
        .rewrite(bin, disasm, &requests, &[])
        .unwrap()
        .binary
}

/// The whole response transcript — every reply line for a pipelined full
/// patch job, emit included — must be byte-identical between the reactor
/// and the legacy thread-per-connection server.
#[test]
fn reactor_replies_are_byte_identical_to_threaded() {
    let dir = temp_dir("ident");
    let (bin, disasm, sites) = workload();
    let (transcript, n) = job_transcript(&bin, &disasm, &sites);

    let mut transcripts = Vec::new();
    for mode in ["reactor", "threaded"] {
        let sock = dir.join(format!("{mode}.sock"));
        let mut cmd = Proc::new(daemon_path());
        cmd.arg("--socket").arg(&sock).args(["--max-conns", "1"]);
        if mode == "threaded" {
            cmd.arg("--threaded");
        }
        let mut daemon = Reap(cmd.stderr(Stdio::null()).spawn().unwrap());
        let mut stream = connect(&sock);
        // One write: the entire job is pipelined.
        stream.write_all(transcript.as_bytes()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let lines = read_lines(&mut reader, n);
        drop((stream, reader));
        wait_for_exit(&mut daemon);
        transcripts.push(lines);
    }
    assert_eq!(
        transcripts[0], transcripts[1],
        "reactor and threaded transcripts diverge"
    );
    // And the emitted binary matches the in-process rewriter.
    let last = transcripts[0].last().unwrap();
    let value = e9proto::json::parse(last.trim().as_bytes()).unwrap();
    let resp = e9proto::Response::decode(&value).unwrap();
    let reply = e9proto::EmitReply::from_json(&resp.body.unwrap()).unwrap();
    assert_eq!(reply.binary, reference(&bin, &disasm, &sites));
    std::fs::remove_dir_all(&dir).ok();
}

/// `--listen-tcp 127.0.0.1:0`: the daemon announces the resolved address
/// on stderr; a TCP client completes a full job byte-identical to the
/// in-process rewriter, and in-band shutdown still works.
#[test]
fn tcp_transport_serves_a_full_job() {
    let mut daemon = Reap(
        Proc::new(daemon_path())
            .args(["--listen-tcp", "127.0.0.1:0"])
            .stderr(Stdio::piped())
            .spawn()
            .unwrap(),
    );
    let stderr = daemon.0.stderr.take().unwrap();
    let mut lines = BufReader::new(stderr);
    let addr = loop {
        let mut line = String::new();
        assert!(lines.read_line(&mut line).unwrap() > 0, "daemon died");
        if let Some(rest) = line.strip_prefix("e9patchd: listening on tcp ") {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };

    let (bin, disasm, sites) = workload();
    let mut client = ProtoClient::connect_tcp_retry(&addr, 8).unwrap();
    client.negotiate().unwrap();
    client.binary(&bin).unwrap();
    for i in &disasm {
        client.instruction(i.addr, i.bytes()).unwrap();
    }
    for &addr in &sites {
        client.patch(addr, Template::Empty).unwrap();
    }
    let reply = client.emit().unwrap();
    assert_eq!(reply.binary, reference(&bin, &disasm, &sites));
    client.shutdown().unwrap();
    drop(client);
    wait_for_exit(&mut daemon);
}

/// Graceful drain: after one connection's `shutdown` is acknowledged, an
/// already-connected session still gets its in-flight emit served, with
/// a reply byte-identical to the in-process rewriter — and a late
/// connection is refused cleanly instead of hanging.
#[test]
fn drain_finishes_in_flight_emit_and_refuses_late_connections() {
    let dir = temp_dir("drain");
    let sock = dir.join("e9.sock");
    let mut daemon = Reap(
        Proc::new(daemon_path())
            .arg("--socket")
            .arg(&sock)
            .args(["--drain-ms", "10000"])
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    wait_for_sock(&sock);

    // Session A: everything but the emit.
    let (bin, disasm, sites) = workload();
    let mut a = ProtoClient::connect_unix_retry(&sock, 8).unwrap();
    a.negotiate().unwrap();
    a.binary(&bin).unwrap();
    for i in &disasm {
        a.instruction(i.addr, i.bytes()).unwrap();
    }
    for &addr in &sites {
        a.patch(addr, Template::Empty).unwrap();
    }

    // Session B requests shutdown; the reactor enters drain.
    let mut b = ProtoClient::connect_unix_retry(&sock, 8).unwrap();
    b.negotiate().unwrap();
    b.shutdown().unwrap();
    drop(b);

    // A's emit is in-flight work: it must complete, byte-identical.
    let reply = a.emit().unwrap();
    assert_eq!(reply.binary, reference(&bin, &disasm, &sites));

    // Late connections: refused (connect error), never a hang. Poll past
    // the instant between B's reply and the listener teardown.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match UnixStream::connect(&sock) {
            Err(_) => break,
            Ok(_) if Instant::now() >= deadline => {
                panic!("late connection was still accepted during drain")
            }
            Ok(stream) => {
                drop(stream);
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }

    drop(a);
    wait_for_exit(&mut daemon);
    std::fs::remove_dir_all(&dir).ok();
}

/// Admission control: past `--max-clients`, a new arrival gets exactly
/// one typed BUSY line and a close, while the established connection
/// stays fully serviceable.
#[test]
fn admission_cap_sheds_with_typed_busy() {
    let dir = temp_dir("busy");
    let sock = dir.join("e9.sock");
    let mut daemon = Reap(
        Proc::new(daemon_path())
            .arg("--socket")
            .arg(&sock)
            .args(["--max-clients", "1"])
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    wait_for_sock(&sock);

    let mut keep = ProtoClient::connect_unix_retry(&sock, 8).unwrap();
    keep.negotiate().unwrap();

    // Arrival #2: one BUSY line, then EOF.
    let over = UnixStream::connect(&sock).unwrap();
    let mut reader = BufReader::new(over);
    let mut line = String::new();
    assert!(reader.read_line(&mut line).unwrap() > 0);
    let value = e9proto::json::parse(line.trim().as_bytes()).unwrap();
    let resp = e9proto::Response::decode(&value).unwrap();
    assert_eq!(resp.id, None);
    assert_eq!(resp.body.unwrap_err().code, code::BUSY);
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "must close after BUSY");

    // A ProtoClient sees the shed as a typed RPC error, not a protocol
    // failure.
    let mut typed = ProtoClient::connect_unix(&sock).unwrap();
    match typed.negotiate().unwrap_err() {
        e9proto::ClientError::Rpc(e) => assert_eq!(e.code, code::BUSY),
        other => panic!("expected BUSY rpc error, got {other:?}"),
    }
    drop(typed);

    // The established session never noticed.
    keep.shutdown().unwrap();
    drop(keep);
    wait_for_exit(&mut daemon);
    std::fs::remove_dir_all(&dir).ok();
}

/// Backpressure: with a tiny `--max-pending-bytes`, a client that
/// pipelines thousands of requests without reading replies sees typed
/// BUSY errors once the daemon's reply queue passes the budget — never a
/// stall, never a dropped connection.
#[test]
fn pending_budget_answers_busy_in_band() {
    let dir = temp_dir("budget");
    let sock = dir.join("e9.sock");
    let mut daemon = Reap(
        Proc::new(daemon_path())
            .arg("--socket")
            .arg(&sock)
            .args(["--max-pending-bytes", "4096", "--max-conns", "1"])
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    let mut stream = connect(&sock);
    // Pipeline far more reply volume than the kernel socket buffers plus
    // the 4 KiB budget can hold, without reading any of it: one version
    // negotiation, then thousands of cache-stats queries.
    let mut blob = String::new();
    blob.push_str(
        &Request {
            id: 1,
            cmd: Command::Version { version: PROTOCOL_VERSION },
        }
        .encode(),
    );
    blob.push('\n');
    let n = 20_000usize;
    for id in 2..=n as u64 {
        blob.push_str(
            &Request {
                id,
                cmd: Command::Cache {
                    action: e9proto::CacheAction::Stats,
                },
            }
            .encode(),
        );
        blob.push('\n');
    }
    // The write side may itself hit backpressure while the daemon's
    // reply queue is parked; a write timeout keeps the test bounded.
    stream
        .set_write_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let mut written_all = true;
    let mut buf = blob.as_bytes();
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => {
                written_all = false;
                break;
            }
            Ok(k) => buf = &buf[k..],
            Err(_) => {
                written_all = false;
                break;
            }
        }
    }
    // Now drain every reply; at least one must be a typed BUSY, and the
    // stream must stay framed (one JSON object per line) throughout.
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut busy = 0usize;
    let mut ok = 0usize;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                let value = e9proto::json::parse(line.trim().as_bytes()).unwrap();
                let resp = e9proto::Response::decode(&value).unwrap();
                match resp.body {
                    Ok(_) => ok += 1,
                    Err(e) => {
                        assert_eq!(e.code, code::BUSY, "unexpected error: {e}");
                        busy += 1;
                    }
                }
            }
            Err(e) => panic!("reply stream stalled: {e}"),
        }
    }
    assert!(busy > 0, "no BUSY replies (ok={ok}, written_all={written_all})");
    assert!(ok > 0, "no successful replies at all");

    drop(reader);
    drop(stream);
    wait_for_exit(&mut daemon);
    std::fs::remove_dir_all(&dir).ok();
}

/// Pipelining: many requests in one write come back as exactly one reply
/// per request, in order, ids matching.
#[test]
fn pipelined_requests_reply_in_order() {
    let dir = temp_dir("pipe");
    let sock = dir.join("e9.sock");
    let mut daemon = Reap(
        Proc::new(daemon_path())
            .arg("--socket")
            .arg(&sock)
            .args(["--max-conns", "1"])
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    let mut stream = connect(&sock);
    let mut blob = String::new();
    let n = 256u64;
    for id in 1..=n {
        let cmd = if id == 1 {
            Command::Version { version: PROTOCOL_VERSION }
        } else {
            Command::Cache {
                action: e9proto::CacheAction::Stats,
            }
        };
        blob.push_str(&Request { id, cmd }.encode());
        blob.push('\n');
    }
    stream.write_all(blob.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for expect in 1..=n {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0);
        let value = e9proto::json::parse(line.trim().as_bytes()).unwrap();
        let resp = e9proto::Response::decode(&value).unwrap();
        assert_eq!(resp.id, Some(expect), "replies out of order");
        assert!(resp.body.is_ok());
    }
    drop((stream, reader));
    wait_for_exit(&mut daemon);
    std::fs::remove_dir_all(&dir).ok();
}
