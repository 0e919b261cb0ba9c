//! End-to-end tests of the `e9tool` command-line interface.

use std::path::PathBuf;
use std::process::Command;

fn e9tool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_e9tool"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("e9tool-test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn gen_info_disasm_patch_run_pipeline() {
    let dir = tmpdir("pipeline");
    let elf = dir.join("demo.elf");
    let patched = dir.join("demo.e9");

    // gen
    let out = e9tool()
        .args(["gen", "--tiny", "cli-pipeline", "-o"])
        .arg(&elf)
        .output()
        .unwrap();
    assert!(out.status.success(), "gen failed: {:?}", out);
    assert!(elf.exists());

    // info
    let out = e9tool().arg("info").arg(&elf).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ET_EXEC"));
    assert!(text.contains("entry: 0x401000"));

    // disasm
    let out = e9tool()
        .arg("disasm")
        .arg(&elf)
        .args(["--limit", "5"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let listing = String::from_utf8_lossy(&out.stdout);
    assert!(listing.contains("mov"), "listing: {listing}");

    // run original
    let out = e9tool()
        .arg("run")
        .arg(&elf)
        .arg("--hex-output")
        .output()
        .unwrap();
    assert!(out.status.success());
    let orig_out = String::from_utf8_lossy(&out.stdout).to_string();

    // patch
    let out = e9tool()
        .arg("patch")
        .arg(&elf)
        .arg("-o")
        .arg(&patched)
        .args(["--app", "a1", "--report"])
        .output()
        .unwrap();
    assert!(out.status.success(), "patch failed: {:?}", out);
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("patched"));
    assert!(report.contains("site report"));
    assert!(report.contains("failed 0"), "report: {report}");

    // run patched — identical output.
    let out = e9tool()
        .arg("run")
        .arg(&patched)
        .arg("--hex-output")
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), orig_out);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn patch_with_lowfat_payload() {
    let dir = tmpdir("lowfat");
    let elf = dir.join("demo.elf");
    let patched = dir.join("demo.lf");
    assert!(e9tool()
        .args(["gen", "--tiny", "cli-lowfat", "-o"])
        .arg(&elf)
        .status()
        .unwrap()
        .success());
    assert!(e9tool()
        .arg("patch")
        .arg(&elf)
        .arg("-o")
        .arg(&patched)
        .args(["--app", "a2", "--payload", "lowfat"])
        .status()
        .unwrap()
        .success());
    // Run with the low-fat heap.
    let out = e9tool()
        .arg("run")
        .arg(&patched)
        .args(["--lowfat", "--hex-output"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_on_bad_invocations() {
    let out = e9tool().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = e9tool().arg("bogus-subcommand").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = e9tool().args(["gen", "--tiny", "x"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1)); // missing -o
    let out = e9tool().args(["info", "/nonexistent/file"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn unknown_flags_are_rejected() {
    // A typo'd flag must fail loudly before any work happens, on every
    // subcommand.
    let out = e9tool()
        .args(["patch", "in.elf", "-o", "out.e9", "--frobnicate"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --frobnicate"), "stderr: {err}");

    let out = e9tool()
        .args(["run", "in.elf", "--max-step", "5"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --max-step"), "stderr: {err}");

    let out = e9tool()
        .args(["gen", "--tiny", "x", "--pei", "-o", "x.elf"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --pei"), "stderr: {err}");

    // The sharded planner's flag was removed, not silently ignored.
    for sub in ["patch", "hook"] {
        let out = e9tool()
            .args([sub, "in.elf", "-o", "out.e9", "--jobs", "4"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{sub}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag --jobs"), "{sub} stderr: {err}");
    }
}

#[test]
fn oversized_granularity_exits_one_without_panic() {
    // Both values used to panic the rewriter: a block larger than the
    // address space, and one whose byte size overflows to zero.
    let dir = tmpdir("granularity");
    let elf = dir.join("demo.elf");
    assert!(e9tool()
        .args(["gen", "--tiny", "cli-granularity", "-o"])
        .arg(&elf)
        .status()
        .unwrap()
        .success());
    for m in ["34359738368", "4503599627370496"] {
        let out = e9tool()
            .arg("patch")
            .arg(&elf)
            .arg("-o")
            .arg(dir.join("demo.e9"))
            .args(["--app", "a1", "--granularity", m])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "granularity {m}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("granularity {m} pages")), "stderr: {err}");
        assert!(!err.contains("panicked"), "stderr: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(unix)]
#[test]
fn patch_backend_socket_matches_in_process() {
    let dir = tmpdir("backend");
    let elf = dir.join("demo.elf");
    let direct = dir.join("direct.e9");
    let via = dir.join("via.e9");
    let sock = dir.join("e9.sock");

    assert!(e9tool()
        .args(["gen", "--tiny", "cli-backend", "-o"])
        .arg(&elf)
        .env("E9_SEED", "42")
        .status()
        .unwrap()
        .success());

    // In-process reference output.
    assert!(e9tool()
        .arg("patch")
        .arg(&elf)
        .arg("-o")
        .arg(&direct)
        .args(["--app", "a1", "--payload", "counter"])
        .status()
        .unwrap()
        .success());

    // An in-thread daemon serving exactly one connection.
    let server_sock = sock.clone();
    let server = std::thread::spawn(move || {
        e9proto::server::unix::serve_unix(&server_sock, Some(1)).unwrap();
    });
    for _ in 0..200 {
        if sock.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(sock.exists(), "daemon socket never appeared");

    let out = e9tool()
        .arg("patch")
        .arg(&elf)
        .arg("-o")
        .arg(&via)
        .args(["--app", "a1", "--payload", "counter", "--backend"])
        .arg(&sock)
        .output()
        .unwrap();
    assert!(out.status.success(), "backend patch failed: {out:?}");
    server.join().unwrap();

    // The protocol round trip changes nothing: byte-identical outputs.
    let a = std::fs::read(&direct).unwrap();
    let b = std::fs::read(&via).unwrap();
    assert_eq!(a, b, "backend output diverged from in-process output");

    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(target_os = "linux")]
#[test]
fn patch_backend_tcp_matches_in_process() {
    let dir = tmpdir("backend-tcp");
    let elf = dir.join("demo.elf");
    let direct = dir.join("direct.e9");
    let via = dir.join("via.e9");

    assert!(e9tool()
        .args(["gen", "--tiny", "cli-backend-tcp", "-o"])
        .arg(&elf)
        .env("E9_SEED", "43")
        .status()
        .unwrap()
        .success());

    // In-process reference output.
    assert!(e9tool()
        .arg("patch")
        .arg(&elf)
        .arg("-o")
        .arg(&direct)
        .args(["--app", "a1", "--payload", "counter"])
        .status()
        .unwrap()
        .success());

    // An in-thread reactor daemon on an ephemeral TCP port, draining
    // after one connection.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let opts = e9proto::reactor::ReactorOptions {
            accept_budget: Some(1),
            ..e9proto::reactor::ReactorOptions::default()
        };
        e9proto::reactor::serve_reactor(
            vec![e9proto::reactor::Listener::Tcp(listener)],
            &e9proto::server::ServeConfig::default(),
            &opts,
        )
        .unwrap();
    });

    let out = e9tool()
        .arg("patch")
        .arg(&elf)
        .arg("-o")
        .arg(&via)
        .args(["--app", "a1", "--payload", "counter", "--backend"])
        .arg(format!("tcp:{addr}"))
        .output()
        .unwrap();
    assert!(out.status.success(), "tcp backend patch failed: {out:?}");
    server.join().unwrap();

    let a = std::fs::read(&direct).unwrap();
    let b = std::fs::read(&via).unwrap();
    assert_eq!(a, b, "tcp backend output diverged from in-process output");

    std::fs::remove_dir_all(&dir).ok();
}

/// A malformed `--backend tcp:` spec is a named diagnostic and exit 1 —
/// no connect attempt, no partial output.
#[test]
fn malformed_tcp_backend_exits_one_with_diagnostic() {
    let dir = tmpdir("backend-tcp-bad");
    let elf = dir.join("demo.elf");
    assert!(e9tool()
        .args(["gen", "--tiny", "cli-bad-tcp", "-o"])
        .arg(&elf)
        .status()
        .unwrap()
        .success());

    let out = e9tool()
        .arg("patch")
        .arg(&elf)
        .arg("-o")
        .arg(dir.join("never.e9"))
        .args(["--app", "a1", "--backend", "tcp:no-port-here"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--backend tcp:"), "stderr: {err}");
    assert!(err.contains("ADDR:PORT"), "stderr: {err}");
    assert!(!dir.join("never.e9").exists());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_rows_are_generatable() {
    let dir = tmpdir("profiles");
    let elf = dir.join("mcf.elf");
    let out = e9tool()
        .args(["gen", "--profile", "mcf", "--scale", "200", "-o"])
        .arg(&elf)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let out = e9tool()
        .args(["gen", "--profile", "does-not-exist", "-o"])
        .arg(dir.join("x.elf"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn patch_verify_flag() {
    let dir = tmpdir("verify");
    let elf = dir.join("demo.elf");
    let patched = dir.join("demo.e9");
    assert!(e9tool()
        .args(["gen", "--tiny", "cli-verify", "-o"])
        .arg(&elf)
        .status()
        .unwrap()
        .success());
    let out = e9tool()
        .arg("patch")
        .arg(&elf)
        .arg("-o")
        .arg(&patched)
        .args(["--app", "a1", "--verify"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("verify: OK"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Run a subcommand against `input`, expecting exit code 1 and a stderr
/// diagnostic containing every fragment in `expect`.
fn assert_diagnostic(cmd_args: &[&str], input: &std::path::Path, expect: &[&str]) {
    let mut cmd = e9tool();
    cmd.arg(cmd_args[0]).arg(input);
    for a in &cmd_args[1..] {
        cmd.arg(a);
    }
    let out = cmd.output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "{cmd_args:?} on {} should exit 1: {out:?}",
        input.display()
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    for frag in expect {
        assert!(
            stderr.contains(frag),
            "{cmd_args:?} diagnostic missing {frag:?}: {stderr}"
        );
    }
}

#[test]
fn directory_input_gets_a_clear_diagnostic() {
    let dir = tmpdir("dir-input");
    for args in [
        &["info"][..],
        &["disasm"],
        &["run"],
        &["patch", "-o", "/tmp/never-written.e9"],
    ] {
        assert_diagnostic(args, &dir, &["is a directory", "not an ELF binary"]);
    }
    assert!(!std::path::Path::new("/tmp/never-written.e9").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_input_gets_a_clear_diagnostic() {
    let dir = tmpdir("empty-input");
    let empty = dir.join("empty.bin");
    std::fs::write(&empty, b"").unwrap();
    for args in [
        &["info"][..],
        &["disasm"],
        &["run"],
        &["patch", "-o", "/tmp/never-written.e9"],
    ] {
        assert_diagnostic(args, &empty, &["is empty"]);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn non_elf_input_gets_a_clear_diagnostic() {
    let dir = tmpdir("non-elf-input");
    let text = dir.join("notes.txt");
    std::fs::write(&text, b"just some text, definitely not an executable\n").unwrap();
    for args in [
        &["info"][..],
        &["disasm"],
        &["patch", "-o", "/tmp/never-written.e9"],
    ] {
        assert_diagnostic(args, &text, &["notes.txt", "not a valid ELF binary"]);
    }
    // `run` goes through the loader; the message differs but the contract
    // (exit 1, named file, no panic) is the same.
    assert_diagnostic(&["run"], &text, &["notes.txt"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_patch_preserves_preexisting_output() {
    // Crash-safety contract at the CLI level: when the rewrite fails, an
    // output file from an earlier run must survive untouched.
    let dir = tmpdir("preserve-output");
    let bad = dir.join("bad.bin");
    std::fs::write(&bad, b"not an elf").unwrap();
    let out_path = dir.join("out.e9");
    std::fs::write(&out_path, b"precious previous output").unwrap();
    let out = e9tool()
        .arg("patch")
        .arg(&bad)
        .arg("-o")
        .arg(&out_path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        std::fs::read(&out_path).unwrap(),
        b"precious previous output"
    );
    // And no staging droppings either.
    let droppings: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".e9tmp"))
        .collect();
    assert!(droppings.is_empty(), "staging droppings: {droppings:?}");
    std::fs::remove_dir_all(&dir).ok();
}
