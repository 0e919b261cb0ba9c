//! The in-process rewrite pipeline of `e9tool patch` —
//! `disassemble_text` → `plan` → `run_job` — with a span around each
//! crate call, and the timed loop every workload shares.

use crate::calib::Calib;
use crate::trace::Tracer;
use e9front::{Application, FrontError, Job, Options, Payload};
use e9patch::RewriteOutput;
use std::time::{Duration, Instant};

pub struct Rewritten {
    pub out: RewriteOutput,
    /// Sites selected (and attempted) by the plan.
    pub sites: usize,
    /// Instructions the sweep decoded.
    pub insns: usize,
}

/// One rewrite, exactly as `e9tool patch` runs it in-process with no
/// cache. When tracing, an extra `Elf::parse` of the input is timed on
/// its own (the sweep and the plan each parse internally too).
pub fn rewrite(
    tr: &mut Tracer,
    binary: &[u8],
    app: Application,
    payload: Payload,
) -> Result<Rewritten, FrontError> {
    if tr.enabled() {
        let s = tr.enter("elf.parse");
        let parsed = e9elf::Elf::parse(binary);
        tr.exit(s);
        parsed.map_err(|e| FrontError::Input(e.to_string()))?;
    }
    let s = tr.enter("x86.sweep");
    let disasm = e9front::disassemble_text(binary);
    tr.exit(s);
    let disasm = disasm?;
    let opts = Options::new(app, payload);
    let s = tr.enter("front.plan");
    let plan = e9front::plan(binary, &disasm, &opts);
    tr.exit(s);
    let plan = plan?;
    let s = tr.enter("core.rewrite");
    let out = e9front::run_job(&Job {
        binary,
        disasm: &disasm,
        requests: &plan.requests,
        extra: &plan.extra,
        config: opts.config,
    });
    tr.exit(s);
    Ok(Rewritten {
        out: out?,
        sites: plan.sites.len(),
        insns: disasm.len(),
    })
}

/// Call `op(i, traced)` until `seconds` have passed (at least once per
/// kind), returning the wall times in ms of the untraced and the traced
/// calls, and running the calibration kernel after each call. With
/// `trace`, calls alternate untraced (even) and traced (odd), so both
/// kinds see the same machine state and the gap between them is the
/// tracing overhead.
pub fn timed_loop(
    seconds: f64,
    trace: bool,
    calib: &mut Calib,
    mut op: impl FnMut(u64, bool),
) -> (Vec<f64>, Vec<f64>) {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut i = 0u64;
    while untraced.is_empty() || (trace && traced.is_empty()) || start.elapsed() < budget {
        let traced_op = trace && i % 2 == 1;
        let t = Instant::now();
        op(i, traced_op);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        calib.after_op(ms);
        if traced_op {
            traced.push(ms);
        } else {
            untraced.push(ms);
        }
        i += 1;
    }
    (untraced, traced)
}
