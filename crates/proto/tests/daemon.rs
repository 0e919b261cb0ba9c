//! End-to-end tests of the real `e9patchd` daemon process: one over its
//! stdio, one over a Unix socket. Both must produce output byte-identical
//! to the in-process `Rewriter` fed the same inputs.

use e9patch::{PatchRequest, RewriteConfig, Rewriter, Template};
use e9proto::ProtoClient;

fn daemon_path() -> &'static str {
    env!("CARGO_BIN_EXE_e9patchd")
}

/// Kills the daemon on drop so a panicking test can never orphan it. An
/// orphaned daemon inherits the test runner's stdout, and any pipeline
/// reading that stream blocks on the survivor instead of seeing EOF.
#[cfg(unix)]
struct Reap(std::process::Child);

#[cfg(unix)]
impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A synthetic workload binary, its disassembly, and its A1 jump sites.
fn workload() -> (Vec<u8>, Vec<e9x86::insn::Insn>, Vec<u64>) {
    let sb = e9synth::generate(&e9synth::Profile::tiny("daemon-test", false));
    let sites: Vec<u64> = sb
        .disasm
        .iter()
        .filter(|i| i.kind.is_jump())
        .map(|i| i.addr)
        .collect();
    assert!(!sites.is_empty());
    (sb.binary, sb.disasm, sites)
}

fn drive(client: &mut ProtoClient, bin: &[u8], disasm: &[e9x86::insn::Insn], sites: &[u64]) -> Vec<u8> {
    client.negotiate().unwrap();
    client.binary(bin).unwrap();
    for i in disasm {
        client.instruction(i.addr, i.bytes()).unwrap();
    }
    for &addr in sites {
        client.patch(addr, Template::Empty).unwrap();
    }
    let reply = client.emit().unwrap();
    assert_eq!(reply.stats.failed, 0, "{:?}", reply.stats);
    reply.binary
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

#[test]
fn stdio_daemon_matches_in_process() {
    let (bin, disasm, sites) = workload();
    let mut client = ProtoClient::spawn(std::path::Path::new(daemon_path())).unwrap();
    let via = drive(&mut client, &bin, &disasm, &sites);
    assert_eq!(via, reference(&bin, &disasm, &sites));
}

#[cfg(unix)]
#[test]
fn unix_socket_daemon_matches_in_process_and_shuts_down() {
    let dir = std::env::temp_dir().join(format!("e9patchd-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("e9.sock");

    let mut daemon = Reap(
        std::process::Command::new(daemon_path())
            .arg("--socket")
            .arg(&sock)
            .spawn()
            .unwrap(),
    );
    for _ in 0..200 {
        if sock.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    let (bin, disasm, sites) = workload();
    let mut client = ProtoClient::connect_unix(&sock).unwrap();
    let via = drive(&mut client, &bin, &disasm, &sites);
    assert_eq!(via, reference(&bin, &disasm, &sites));

    // In-band shutdown must bring the whole daemon down cleanly.
    client.shutdown().unwrap();
    drop(client);
    let mut ok = false;
    for _ in 0..500 {
        if let Some(status) = daemon.0.try_wait().unwrap() {
            assert!(status.success(), "daemon exited with {status}");
            ok = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(ok, "daemon did not exit after shutdown");
    assert!(!sock.exists(), "socket file not cleaned up");
    std::fs::remove_dir_all(&dir).ok();
}

/// A client dying mid-`patch` batch (disconnect with half a request line
/// on the wire) must not take the daemon with it: a second client on the
/// same socket completes the same job and gets byte-identical output.
#[cfg(unix)]
#[test]
fn client_killed_mid_batch_does_not_poison_the_daemon() {
    use std::io::Write;

    let dir = std::env::temp_dir().join(format!("e9patchd-midbatch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("e9.sock");

    let mut daemon = Reap(
        std::process::Command::new(daemon_path())
            .arg("--socket")
            .arg(&sock)
            .arg("--timeout-ms")
            .arg("5000")
            .spawn()
            .unwrap(),
    );

    let (bin, disasm, sites) = workload();

    // First client: raw stream, so the cut can land mid-line. Send the
    // session preamble plus half of a patch request, then vanish.
    {
        let mut raw = ProtoClient::connect_unix_retry(&sock, 8).unwrap();
        raw.negotiate().unwrap();
        raw.binary(&bin).unwrap();
        for i in &disasm {
            raw.instruction(i.addr, i.bytes()).unwrap();
        }
        raw.patch(sites[0], Template::Empty).unwrap();
    }
    {
        // And once more at the byte level: half a request line, no newline,
        // then drop the stream (simulates SIGKILL between write and flush).
        let mut stream = std::os::unix::net::UnixStream::connect(&sock).unwrap();
        let line = "{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"version\",\"params\"";
        stream.write_all(line.as_bytes()).unwrap();
        stream.flush().unwrap();
        // Dropped here: mid-line disconnect.
    }

    // Second client: the daemon must still serve a full job correctly.
    let mut client = ProtoClient::connect_unix_retry(&sock, 8).unwrap();
    let via = drive(&mut client, &bin, &disasm, &sites);
    assert_eq!(via, reference(&bin, &disasm, &sites));

    client.shutdown().unwrap();
    drop(client);
    for _ in 0..500 {
        if daemon.0.try_wait().unwrap().is_some() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(
        daemon.0.try_wait().unwrap().is_some(),
        "daemon did not exit after shutdown"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Oversized request lines get a typed LIMIT error from the real daemon
/// binary, and the session keeps working afterwards.
#[cfg(unix)]
#[test]
fn daemon_rejects_oversized_lines_in_band() {
    use std::io::ErrorKind::{ConnectionRefused, NotFound};
    use std::io::{BufRead, BufReader, Write};

    let dir = std::env::temp_dir().join(format!("e9patchd-maxline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("e9.sock");

    let mut daemon = Reap(
        std::process::Command::new(daemon_path())
            .arg("--socket")
            .arg(&sock)
            .args(["--max-line-bytes", "4096", "--max-conns", "1"])
            .spawn()
            .unwrap(),
    );

    // The socket file appears at `bind`, a moment before `listen`: retry
    // a missing file or a refused connect until the daemon is listening.
    let mut stream = (0..500)
        .find_map(|_| match std::os::unix::net::UnixStream::connect(&sock) {
            Err(e) if matches!(e.kind(), NotFound | ConnectionRefused) => {
                std::thread::sleep(std::time::Duration::from_millis(10));
                None
            }
            other => Some(other.unwrap()),
        })
        .expect("daemon never listened");
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    let big = format!(
        "{{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"{}\"}}\n",
        "x".repeat(8192)
    );
    stream.write_all(big.as_bytes()).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("-5"), "expected LIMIT error: {line}");

    // Same connection still serves well-formed requests.
    stream
        .write_all(b"{\"jsonrpc\":\"2.0\",\"id\":2,\"method\":\"version\",\"params\":{\"version\":2}}\n")
        .unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"id\":2"), "{line}");
    assert!(line.contains("result"), "{line}");

    drop(stream);
    drop(reader);
    let _ = daemon.0.wait();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn version_mismatch_is_rejected() {
    use e9proto::msg::{code, Command};
    let mut client = ProtoClient::spawn(std::path::Path::new(daemon_path())).unwrap();
    let err = client.call(Command::Version { version: 999 }).unwrap_err();
    match err {
        e9proto::ClientError::Rpc(e) => assert_eq!(e.code, code::VERSION),
        other => panic!("expected version error, got {other:?}"),
    }
}
