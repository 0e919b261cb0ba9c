//! `table1-a2`: the 38 SPEC and system rows of Table 1 at scale 50,
//! instrumented at every heap write (A2) with the `Counter` payload.
//! One op rewrites one row; the timed loop runs whole passes over all
//! rows so every run measures the same row mix.

use crate::calib::Calib;
use crate::inputs::{emu_check, generate_timed, table1_profiles, EmuCheck};
use crate::pipeline::{rewrite, timed_loop, Rewritten};
use crate::trace::Tracer;
use crate::util::{geomean, median, ms_since, peak_rss_mb, quantile, Outcome};
use crate::{core_layer, Opts, SETUP_REPS};
use e9front::{Application, Payload};
use std::time::Instant;

pub fn run(o: &Opts, tr: &mut Tracer, calib: &mut Calib) -> Outcome {
    let mut res = Outcome::default();
    let gen = generate_timed(&table1_profiles(o.seed, o.tiny), SETUP_REPS, Some(calib));
    println!("input_digest {}", gen.digest);
    if gen.nondeterministic {
        res.check_failed("set-up: two generations of one seed differ".into(), true);
    } else {
        res.check_passed();
    }
    let rows = &gen.inputs;

    // A warm-up pass (untimed) gives each row's reference output; every
    // timed rewrite must match it.
    let mut off = Tracer::new(false);
    let mut first: Vec<Option<Rewritten>> = Vec::with_capacity(rows.len());
    for row in rows {
        match rewrite(
            &mut off,
            &row.binary,
            Application::A2HeapWrites,
            Payload::Counter,
        ) {
            Ok(r) => first.push(Some(r)),
            Err(e) => {
                res.op_failed(format!("{}: rewrite failed: {e}", row.name));
                first.push(None);
            }
        }
    }
    let mut mismatches = 0u64;
    let mut errors = Vec::new();
    let mut attempted = rows.len() as u64; // the warm-up pass
    let mut pass_sites = 0usize;
    let mut op_ms = Vec::new();
    let (passes, traced) = timed_loop(o.seconds, tr.enabled(), calib, |p, traced| {
        let t = if traced { &mut *tr } else { &mut off };
        t.begin_op(p);
        let mut sites = 0;
        for (row, reference) in rows.iter().zip(&first) {
            attempted += 1;
            let start = Instant::now();
            let r = rewrite(t, &row.binary, Application::A2HeapWrites, Payload::Counter);
            if !traced {
                op_ms.push(ms_since(start));
            }
            match (r, reference) {
                (Ok(r), Some(f)) => {
                    sites += r.sites;
                    mismatches += u64::from(f.out.binary != r.out.binary);
                }
                (Ok(_), None) => errors.push(format!(
                    "{} pass {p}: rewrite succeeded but the warm-up rewrite failed",
                    row.name
                )),
                (Err(e), _) => errors.push(format!("{} pass {p}: rewrite failed: {e}", row.name)),
            }
        }
        pass_sites = sites;
    });
    let rss = peak_rss_mb("self").unwrap_or(0.0);

    res.attempted = attempted;
    errors.into_iter().for_each(|e| res.op_failed(e));
    if mismatches > 0 {
        res.ops_wrong(
            mismatches,
            format!("{mismatches} rewrites differ from the first rewrite of the same row"),
        );
    }

    // Once per run: e9vm equality and the static verifier on every row.
    let (mut emulate_ms, mut verify_ms) = (0.0, 0.0);
    let (mut steps_orig, mut steps_patched, mut load_failed) = (0u64, 0u64, 0u64);
    let mut ratios = Vec::new();
    let (mut stats, mut size) = (
        e9patch::PatchStats::default(),
        e9patch::SizeStats::default(),
    );
    let (mut insns, mut sites) = (0usize, 0usize);
    for (row, out) in rows.iter().zip(&first) {
        let Some(out) = out else { continue };
        stats.merge(&out.out.stats);
        size.input_bytes += out.out.size.input_bytes;
        size.output_bytes += out.out.size.output_bytes;
        size.physical_blocks += out.out.size.physical_blocks;
        size.mappings += out.out.size.mappings;
        insns += out.insns;
        sites += out.sites;

        let t = Instant::now();
        match emu_check(&row.binary, &out.out.binary, row.entry) {
            EmuCheck::Same {
                orig_steps,
                patched_steps,
            } => {
                res.check_passed();
                steps_orig += orig_steps;
                steps_patched += patched_steps;
                ratios.push(patched_steps as f64 / orig_steps.max(1) as f64);
            }
            EmuCheck::LoadFailed(why) => {
                load_failed += 1;
                res.check_failed(format!("{}: e9vm emulation check: {why}", row.name), false);
            }
            EmuCheck::Wrong(why) => res.check_failed(format!("{}: {why}", row.name), true),
        }
        emulate_ms += ms_since(t);

        let t = Instant::now();
        let verdict = match (
            e9elf::Elf::parse(&row.binary),
            e9elf::Elf::parse(&out.out.binary),
        ) {
            (Ok(orig), Ok(patched)) => e9patch::verify::verify(
                &orig,
                &patched,
                &row.disasm,
                &out.out.mappings,
                &out.out.reports,
            )
            .map(|_| ())
            .map_err(|v| format!("{} violations, first: {}", v.len(), v[0])),
            (Err(e), _) | (_, Err(e)) => Err(format!("unparsable: {e}")),
        };
        verify_ms += ms_since(t);
        match verdict {
            Ok(()) => res.check_passed(),
            Err(why) => res.check_failed(format!("{}: verify: {why}", row.name), true),
        }
    }
    if sites == 0 {
        return res;
    }

    // End-to-end times are in reference time (see `calib`).
    let f = calib.factor();
    let pass_p50 = f * median(&passes);
    res.e2e("setup_s", f * gen.gen_ms / 1e3, "s");
    res.e2e("sites_per_s", pass_sites as f64 / (pass_p50 / 1e3), "1/s");
    res.e2e("peak_rss_mb", rss, "MiB");
    res.e2e("succ_pct", stats.succ_pct(), "%");
    res.e2e("size_pct", size.size_pct(), "%");
    res.e2e("time_pct", 100.0 * geomean(&ratios), "%");
    res.e2e("jobs_per_s", rows.len() as f64 / (pass_p50 / 1e3), "1/s");
    res.e2e("job_ms_p50", f * median(&op_ms), "ms");
    res.e2e("job_ms_p90", f * quantile(&op_ms, 0.9), "ms");
    println!(
        "passes {} of {} rows ({} op latency samples)",
        passes.len(),
        rows.len(),
        op_ms.len()
    );

    if tr.enabled() {
        // Layer times are per pass (sum over the rows), median over passes.
        let med = |name| median(&tr.per_op_self_ms(name));
        res.layer("synth.gen_ms", gen.gen_ms, "ms");
        res.layer("elf.parse_ms", med("elf.parse"), "ms");
        res.layer("x86.sweep_ms", med("x86.sweep"), "ms");
        res.layer("x86.insns", insns as f64, "count");
        res.layer("front.plan_ms", med("front.plan"), "ms");
        res.layer("front.sites", sites as f64, "count");
        res.layer("core.rewrite_ms", med("core.rewrite"), "ms");
        res.layer("core.verify_ms", verify_ms, "ms");
        core_layer(&mut res, &stats, &size, 1);
        res.layer("vm.emulate_ms", emulate_ms, "ms");
        res.layer("vm.steps_orig", steps_orig as f64, "count");
        res.layer("vm.steps_patched", steps_patched as f64, "count");
        res.layer("vm.load_failed", load_failed as f64, "count");
        res.layer(
            "trace.overhead_pct",
            crate::overhead_pct(&passes, &traced),
            "%",
        );
    }
    res
}
