//! `e9perf` — the repository benchmark.
//!
//! ```console
//! $ e9perf --workload chrome-a1|table1-a2|daemon-mix --seed N \
//!          --seconds S --trace 0|1 [--daemon PATH] [--tiny]
//! ```
//!
//! Generates its inputs from the seed, times the workload for `S`
//! seconds, checks every output, and prints one JSON result as its last
//! line: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! (from a separate traced phase) with `--trace 1`. See `NOTES.md`.

mod calib;
mod chrome;
mod daemon;
mod inputs;
mod pipeline;
mod table1;
mod trace;
mod util;

use calib::Calib;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;
use util::{metrics_json, Metric, Outcome};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    /// The `e9patchd` binary daemon-mix starts.
    pub daemon: Option<PathBuf>,
    /// Where spans and sockets go (run from the repository root, this is
    /// inside the checkout).
    pub out: PathBuf,
}

/// Every end-to-end metric, with its unit, in print order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sites_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("succ_pct", "%"),
    ("size_pct", "%"),
    ("time_pct", "%"),
    ("jobs_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("ok_pct", "%"),
];

/// Every per-layer metric, with its unit, in print order. A layer that
/// is not on a workload's op path reports 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("synth.gen_ms", "ms"),
    ("x86.sweep_ms", "ms"),
    ("x86.insns", "count"),
    ("elf.parse_ms", "ms"),
    ("front.plan_ms", "ms"),
    ("front.sites", "count"),
    ("core.rewrite_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("core.b1", "count"),
    ("core.b2", "count"),
    ("core.t1", "count"),
    ("core.t2", "count"),
    ("core.t3", "count"),
    ("core.b0", "count"),
    ("core.failed", "count"),
    ("core.out_bytes", "bytes"),
    ("core.phys_blocks", "count"),
    ("core.mappings", "count"),
    ("cache.digest_ms", "ms"),
    ("cache.lookup_ms", "ms"),
    ("cache.put_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.bypass_ratio", "ratio"),
    ("cache.hit_ms_p50", "ms"),
    ("cache.miss_ms_p50", "ms"),
    ("cache.mem_bytes", "bytes"),
    ("proto.key_ms", "ms"),
    ("proto.lines_per_job", "count"),
    ("proto.bytes_per_job", "bytes"),
    ("proto.rpc_us", "us"),
    ("proto.dispatch_ms.binary", "ms"),
    ("proto.dispatch_ms.instruction", "ms"),
    ("proto.dispatch_ms.patch", "ms"),
    ("proto.dispatch_ms.hook", "ms"),
    ("proto.dispatch_ms.emit", "ms"),
    ("reactor.overhead_ms_p50", "ms"),
    ("reactor.shed", "count"),
    ("hook.plan_ms", "ms"),
    ("hook.hooks", "count"),
    ("vm.emulate_ms", "ms"),
    ("vm.steps_orig", "count"),
    ("vm.steps_patched", "count"),
    ("vm.load_failed", "count"),
    ("trace.overhead_pct", "%"),
];

/// The `core` layer's counts, summed over `ops` ops and reported per op.
pub fn core_layer(res: &mut Outcome, s: &e9patch::PatchStats, z: &e9patch::SizeStats, ops: usize) {
    let per = |v: usize| v as f64 / ops.max(1) as f64;
    res.layer("core.b1", per(s.b1), "count");
    res.layer("core.b2", per(s.b2), "count");
    res.layer("core.t1", per(s.t1), "count");
    res.layer("core.t2", per(s.t2), "count");
    res.layer("core.t3", per(s.t3), "count");
    res.layer("core.b0", per(s.b0), "count");
    res.layer("core.failed", per(s.failed), "count");
    res.layer("core.out_bytes", per(z.output_bytes as usize), "bytes");
    res.layer("core.phys_blocks", per(z.physical_blocks as usize), "count");
    res.layer("core.mappings", per(z.mappings as usize), "count");
}

/// Tracing overhead: mean traced op time over mean untraced op time,
/// minus one, in percent.
pub fn overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    100.0 * (mean(traced) / mean(untraced).max(f64::MIN_POSITIVE) - 1.0)
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let mut o = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
        daemon: None,
        out: PathBuf::from("e9perf/out"),
    };
    while let Some(a) = args.next() {
        let mut val = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => o.workload = val()?,
            "--seed" => o.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if o.seconds.is_nan() || o.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                o.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace wants 0 or 1, got {v}")),
                }
            }
            "--tiny" => o.tiny = true,
            "--daemon" => o.daemon = Some(PathBuf::from(val()?)),
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    Ok(o)
}

/// Order `got` as `want`, adding a 0 for every missing name. A name the
/// workload reported that is not in `want` is a bug in this program.
fn complete(want: &[(&'static str, &'static str)], got: &[Metric]) -> Vec<Metric> {
    for m in got {
        assert!(
            want.iter().any(|(n, u)| *n == m.name && *u == m.unit),
            "undeclared metric {} [{}]",
            m.name,
            m.unit
        );
    }
    want.iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: got.iter().find(|m| m.name == name).map_or(0.0, |m| m.value),
        })
        .collect()
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--calibrator") {
        calib::serve();
        return ExitCode::SUCCESS;
    }
    let o = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e9perf: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}{}",
        o.workload,
        o.seed,
        o.seconds,
        u8::from(o.trace),
        if o.tiny { " tiny" } else { "" }
    );
    match util::pin_to_one_cpu() {
        Some(cpu) => println!("pinned to cpu {cpu}"),
        None => println!("not pinned: sched_setaffinity failed"),
    }
    let mut tr = Tracer::new(o.trace);
    let mut calib = match Calib::start() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("e9perf: {e}");
            return ExitCode::from(1);
        }
    };
    let mut res = match o.workload.as_str() {
        "chrome-a1" => chrome::run(&o, &mut tr, &mut calib),
        "table1-a2" => table1::run(&o, &mut tr, &mut calib),
        "daemon-mix" => match daemon::run(&o, &mut tr, &mut calib) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("e9perf: daemon-mix: {e}");
                return ExitCode::from(1);
            }
        },
        w => {
            eprintln!("e9perf: unknown workload {w:?} (chrome-a1, table1-a2, daemon-mix)");
            return ExitCode::from(2);
        }
    };
    if res.end_to_end.is_empty() {
        eprintln!("e9perf: no operation completed");
        for r in &res.reasons {
            eprintln!("FAIL {r}");
        }
        return ExitCode::from(1);
    }
    calib.stop();
    println!("{}", calib.summary());
    let fail_pct = res.fail_pct();
    res.e2e("ok_pct", 100.0 - fail_pct, "%");
    if o.trace {
        let path = o.out.join(format!("trace-{}-{}.jsonl", o.workload, o.seed));
        match tr.write(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("e9perf: cannot write spans to {}: {e}", path.display()),
        }
    }

    for r in &res.reasons {
        println!("FAIL {r}");
    }
    println!(
        "fail_pct {fail_pct:?} % ({} of {} ops failed, {} of {} checks failed)",
        res.failed_ops, res.attempted, res.failed_checks, res.checks
    );
    let e2e = complete(END_TO_END, &res.end_to_end);
    for m in &e2e {
        println!("metric {} = {:?} {}", m.name, m.value, m.unit);
    }
    let layer = complete(PER_LAYER, &res.per_layer);
    if o.trace {
        for m in &layer {
            println!("layer {} = {:?} {}", m.name, m.value, m.unit);
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        res.wrong_outputs == 0,
        res.attempted.max(1),
        res.failed_ops,
        metrics_json(if o.trace { &layer } else { &e2e })
    );
    ExitCode::SUCCESS
}
