//! `chrome-a1`: the Table-1 chrome row (≈455k A1 sites, 18 MiB, PIE,
//! data in `.text`) rewritten repeatedly through the in-process
//! `e9tool patch` path with no cache.

use crate::calib::Calib;
use crate::inputs::{chrome_profile, emu_check, generate_timed, EmuCheck};
use crate::pipeline::{rewrite, timed_loop};
use crate::trace::Tracer;
use crate::util::{median, ms_since, peak_rss_mb, quantile, Outcome};
use crate::{core_layer, Opts, SETUP_REPS};
use e9front::{Application, Payload};
use std::time::Instant;

pub fn run(o: &Opts, tr: &mut Tracer, calib: &mut Calib) -> Outcome {
    let mut res = Outcome::default();
    let gen = generate_timed(&[chrome_profile(o.seed, o.tiny)], SETUP_REPS, Some(calib));
    println!("input_digest {}", gen.digest);
    if gen.nondeterministic {
        res.check_failed("set-up: two generations of one seed differ".into(), true);
    } else {
        res.check_passed();
    }
    let input = &gen.inputs[0];

    // A warm-up rewrite (untimed) gives the reference output; every
    // timed rewrite must be byte-identical to it.
    let mut off = Tracer::new(false);
    let first = match rewrite(
        &mut off,
        &input.binary,
        Application::A1Jumps,
        Payload::Empty,
    ) {
        Ok(r) => Some(r),
        Err(e) => {
            res.op_failed(format!("warm-up rewrite failed: {e}"));
            None
        }
    };
    let mut mismatches = 0u64;
    let mut attempted = 1u64; // the warm-up
    let mut errors = Vec::new();
    let (times, traced) = timed_loop(o.seconds, tr.enabled(), calib, |i, traced| {
        attempted += 1;
        let t = if traced { &mut *tr } else { &mut off };
        t.begin_op(i);
        match rewrite(t, &input.binary, Application::A1Jumps, Payload::Empty) {
            Ok(r) => {
                mismatches +=
                    u64::from(first.as_ref().is_some_and(|f| f.out.binary != r.out.binary))
            }
            Err(e) => errors.push(format!("op {i}: rewrite failed: {e}")),
        }
    });
    let rss = peak_rss_mb("self").unwrap_or(0.0);

    res.attempted = attempted;
    errors.into_iter().for_each(|e| res.op_failed(e));
    if mismatches > 0 {
        res.ops_wrong(
            mismatches,
            format!("{mismatches} rewrites differ from the first rewrite of the same input"),
        );
    }

    let Some(first) = first else {
        return res;
    };

    // Once per run: the patched program behaves as the original.
    let t = Instant::now();
    let (mut time_pct, mut steps) = (0.0, (0, 0));
    let mut load_failed = 0.0;
    match emu_check(&input.binary, &first.out.binary, input.entry) {
        EmuCheck::Same {
            orig_steps,
            patched_steps,
        } => {
            res.check_passed();
            time_pct = 100.0 * patched_steps as f64 / orig_steps.max(1) as f64;
            steps = (orig_steps, patched_steps);
        }
        EmuCheck::LoadFailed(why) => {
            load_failed = 1.0;
            res.check_failed(format!("{}: e9vm load: {why}", input.name), false);
        }
        EmuCheck::Wrong(why) => res.check_failed(format!("{}: {why}", input.name), true),
    }
    let emulate_ms = ms_since(t);

    // End-to-end times are in reference time (see `calib`).
    let f = calib.factor();
    let total_s: f64 = f * times.iter().sum::<f64>() / 1e3;
    let p50 = f * median(&times);
    let stats = first.out.stats;
    let size = first.out.size;
    res.e2e("setup_s", f * gen.gen_ms / 1e3, "s");
    res.e2e("sites_per_s", first.sites as f64 / (p50 / 1e3), "1/s");
    res.e2e("peak_rss_mb", rss, "MiB");
    res.e2e("succ_pct", stats.succ_pct(), "%");
    res.e2e("size_pct", size.size_pct(), "%");
    res.e2e("time_pct", time_pct, "%");
    res.e2e("jobs_per_s", times.len() as f64 / total_s, "1/s");
    res.e2e("job_ms_p50", p50, "ms");
    res.e2e("job_ms_p90", f * quantile(&times, 0.9), "ms");
    println!("ops {} (op latency samples)", times.len());

    if tr.enabled() {
        let med = |name| median(&tr.per_op_self_ms(name));
        res.layer("synth.gen_ms", gen.gen_ms, "ms");
        res.layer("elf.parse_ms", med("elf.parse"), "ms");
        res.layer("x86.sweep_ms", med("x86.sweep"), "ms");
        res.layer("x86.insns", first.insns as f64, "count");
        res.layer("front.plan_ms", med("front.plan"), "ms");
        res.layer("front.sites", first.sites as f64, "count");
        res.layer("core.rewrite_ms", med("core.rewrite"), "ms");
        core_layer(&mut res, &stats, &size, 1);
        res.layer("vm.emulate_ms", emulate_ms, "ms");
        res.layer("vm.steps_orig", steps.0 as f64, "count");
        res.layer("vm.steps_patched", steps.1 as f64, "count");
        res.layer("vm.load_failed", load_failed, "count");
        res.layer(
            "trace.overhead_pct",
            crate::overhead_pct(&times, &traced),
            "%",
        );
    }
    res
}
