//! Protocol overhead: raw message throughput through the server loop, and
//! end-to-end patch throughput over the wire versus the in-process path.
//!
//! The paper's frontend/backend split costs one JSON round trip per
//! command; these benches bound that overhead so the `--backend` path can
//! be judged against calling the `Rewriter` directly.

use e9bench::harness::{Harness, Throughput};
use e9front::{instrument_via_backend, instrument_with_disasm, Application, Options, Payload};
use e9proto::msg::{Command, Request, PROTOCOL_VERSION};
use e9proto::server::serve_connection;
use e9proto::ProtoClient;
use e9synth::{generate, Profile};
use std::hint::black_box;
use std::io::Cursor;

fn main() {
    let mut h = Harness::from_args("proto");

    // 1. Messages per second through parse → dispatch → serialize. One
    // version handshake plus a batch of cheap stateless-ish commands.
    const MSGS: u64 = 1000;
    let mut input = String::new();
    input.push_str(&Request { id: 1, cmd: Command::Version { version: PROTOCOL_VERSION } }.encode());
    input.push('\n');
    for id in 2..=MSGS {
        input.push_str(
            &Request {
                id,
                cmd: Command::Option {
                    name: "b0".into(),
                    value: "false".into(),
                },
            }
            .encode(),
        );
        input.push('\n');
    }
    let input = input.into_bytes();
    h.throughput(Throughput::Elements(MSGS));
    h.bench(&format!("messages/{MSGS}"), || {
        let mut reader = Cursor::new(black_box(&input[..]));
        let mut out: Vec<u8> = Vec::with_capacity(input.len());
        serve_connection(&mut reader, &mut out).unwrap();
        out
    });

    // 2. End-to-end instrumentation of the same workload, in-process vs
    // through the full wire protocol (loopback socket pair: every byte
    // crosses the serializer, parser and session state machine).
    let prog = generate(&Profile::tiny("bench-proto", false));
    let sites = prog.disasm.iter().filter(|i| i.kind.is_jump()).count() as u64;
    let opts = Options::new(Application::A1Jumps, Payload::Empty);

    h.throughput(Throughput::Elements(sites));
    h.bench(&format!("patch_in_process/{sites}"), || {
        instrument_with_disasm(black_box(&prog.binary), &prog.disasm, &opts).unwrap()
    });

    h.throughput(Throughput::Elements(sites));
    h.bench(&format!("patch_backend/{sites}"), || {
        let mut client = ProtoClient::in_process().unwrap();
        instrument_via_backend(black_box(&prog.binary), &prog.disasm, &opts, &mut client).unwrap()
    });

    h.finish();
}
