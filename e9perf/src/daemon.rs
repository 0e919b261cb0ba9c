//! `daemon-mix`: a real `e9patchd` (reactor, memory cache, default
//! bypass threshold) driven by one closed-loop client over its Unix
//! socket. Each job opens a connection and runs
//! `e9front::run_job_via_backend` (A1/`Empty` or A2/`Counter`) or
//! `e9front::hook_via_backend` (counters on `f*`) for one of the 38
//! Table-1 rows. Jobs come in blocks that all carry the same sample of
//! a skewed mix, so jobs repeat and every run times the same jobs.
//!
//! The traced run replays the same job stream in-process: the client's
//! request lines go through `e9proto::server::dispatch_line`, and the
//! daemon's cache work is mirrored by explicit `tree_digest`,
//! `rewrite_key_from_digest` and `Cache::lookup`/`put` calls.

use crate::calib::Calib;
use crate::inputs::{emu_check, generate_timed, table1_profiles, EmuCheck, Input};
use crate::trace::Tracer;
use crate::util::{median, ms_since, peak_rss_mb, quantile, Outcome};
use crate::{core_layer, Opts, SETUP_REPS};
use e9front::{Application, Job, Options, Payload};
use e9patch::{ExtraSegment, PatchRequest, PatchStats, RewriteConfig, SizeStats};
use e9proto::{CacheDisposition, Command, ProtoClient, Request, Session};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command as Process, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The daemon's memory-cache budget: every distinct output fits.
const CACHE_MEM_BYTES: u64 = 64 << 20;
/// Jobs per systematic-sampling block of the mix.
const BLOCK: usize = 32;
/// Zipf exponent of the mix's skew: an assumption, not fitted to any
/// trace (see `NOTES.md`).
const SKEW: f64 = 0.8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    A1,
    A2,
    Hook,
}

const KINDS: [Kind; 3] = [Kind::A1, Kind::A2, Kind::Hook];

/// One distinct job: a row and what is done to it.
struct JobDef {
    row: usize,
    kind: Kind,
    /// The planned batch (A1/A2; hooks are planned by the server).
    requests: Vec<PatchRequest>,
    extra: Vec<ExtraSegment>,
}

fn hook_spec() -> e9hook::HookSpec {
    e9hook::HookSpec::counters(&["f*"])
}

/// Zipf(`SKEW`) request weight of each job id, from its rank in
/// `popularity` (job ids from most to least requested).
fn mix_weights(popularity: &[usize]) -> Vec<f64> {
    let mut w = vec![0.0; popularity.len()];
    for (rank, &job) in popularity.iter().enumerate() {
        w[job] = 1.0 / ((rank + 1) as f64).powf(SKEW);
    }
    w
}

/// The job stream: `blocks` blocks of `BLOCK` jobs. Every block is the
/// same systematic sample of the mix (one job at the middle of each of
/// `BLOCK` equal shares of its weight), in its own seeded order, so
/// every run times the same jobs whatever its seed; the seed changes
/// the inputs and the order.
fn job_stream(popularity: &[usize], weights: &[f64], seed: u64, blocks: usize) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let mut block = Vec::with_capacity(BLOCK);
    let mut rank = 0;
    let mut acc = weights[popularity[0]] / total;
    for k in 0..BLOCK {
        let point = (0.5 + k as f64) / BLOCK as f64;
        while point >= acc && rank + 1 < popularity.len() {
            rank += 1;
            acc += weights[popularity[rank]] / total;
        }
        block.push(popularity[rank]);
    }
    let mut rng = e9rng::Xoshiro256pp::seed_from_u64(seed);
    let mut out = Vec::with_capacity(blocks * BLOCK);
    for _ in 0..blocks {
        rng.shuffle(&mut block);
        out.extend_from_slice(&block);
    }
    out
}

/// A running `e9patchd`, killed and reaped on drop.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn start(exe: &Path, socket: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(&socket);
        let child = Process::new(exe)
            .arg("--socket")
            .arg(&socket)
            .arg("--cache-mem-bytes")
            .arg(CACHE_MEM_BYTES.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let d = Daemon { child, socket };
        let mut c = ProtoClient::connect_unix_retry(&d.socket, 10)
            .map_err(|e| format!("daemon never accepted a connection: {e}"))?;
        c.health().map_err(|e| format!("daemon health: {e}"))?;
        Ok(d)
    }

    fn client(&self) -> Result<ProtoClient, String> {
        ProtoClient::connect_unix(&self.socket).map_err(|e| format!("connect: {e}"))
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// Ask the daemon to shut down and wait for it to exit.
    fn stop(mut self) {
        if let Ok(mut c) = self.client() {
            let _ = c.negotiate().and_then(|()| c.shutdown());
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One completed socket job.
struct Done {
    /// Position in the job stream.
    idx: usize,
    job: usize,
    /// Wall time, connect to emit reply.
    ms: f64,
    /// Not in the warm-up block.
    timed: bool,
    stats: PatchStats,
    size: SizeStats,
    cache: Option<CacheDisposition>,
}

/// What a socket phase saw.
#[derive(Default)]
struct Phase {
    done: Vec<Done>,
    errors: Vec<String>,
    mismatches: u64,
    /// Wall time of each timed block, ms.
    block_ms: Vec<f64>,
    /// First output per distinct job.
    outputs: BTreeMap<usize, Vec<u8>>,
}

/// One job over a fresh connection: the reply's stats and binary.
fn socket_job(d: &Daemon, inputs: &[Input], def: &JobDef) -> Result<(Done, Vec<u8>), String> {
    let row = &inputs[def.row];
    let mut c = d.client()?;
    let (out, cache) = match def.kind {
        Kind::A1 | Kind::A2 => {
            let job = Job {
                binary: &row.binary,
                disasm: &row.disasm,
                requests: &def.requests,
                extra: &def.extra,
                config: RewriteConfig::default(),
            };
            e9front::run_job_via_backend(&job, &mut c).map_err(|e| e.to_string())?
        }
        Kind::Hook => {
            let h = e9front::hook_via_backend(
                &row.binary,
                &row.disasm,
                &hook_spec(),
                RewriteConfig::default(),
                &mut c,
            )
            .map_err(|e| e.to_string())?;
            (h.rewrite, h.cache)
        }
    };
    let done = Done {
        idx: 0,
        job: 0,
        ms: 0.0,
        timed: false,
        stats: out.stats,
        size: out.size,
        cache: cache.map(|c| c.disposition),
    };
    Ok((done, out.binary))
}

/// Run the job stream block by block against `d` from one closed-loop
/// client: an untimed warm-up block, then timed blocks while another
/// block (as long as the last one) fits in `seconds`, at least one,
/// calibrating after each.
fn socket_phase(
    d: &Daemon,
    inputs: &[Input],
    defs: &[JobDef],
    stream: &[usize],
    seconds: f64,
    calib: &mut Calib,
) -> Phase {
    let mut p = Phase::default();
    let budget = Duration::from_secs_f64(seconds);
    let mut timed_start = None;
    for (b, block) in stream.chunks(BLOCK).enumerate() {
        let timed = b > 0;
        if timed {
            let since = *timed_start.get_or_insert_with(Instant::now);
            let last = Duration::from_secs_f64(p.block_ms.last().map_or(0.0, |ms| ms / 1e3));
            if since.elapsed() + last > budget {
                break;
            }
        }
        let t_block = Instant::now();
        for (k, &job) in block.iter().enumerate() {
            let idx = b * BLOCK + k;
            let t = Instant::now();
            let r = socket_job(d, inputs, &defs[job]);
            let ms = ms_since(t);
            match r {
                Ok((mut done, bin)) => {
                    match p.outputs.get(&job) {
                        Some(first) if *first != bin => p.mismatches += 1,
                        Some(_) => {}
                        None => {
                            p.outputs.insert(job, bin);
                        }
                    }
                    done.idx = idx;
                    done.job = job;
                    done.ms = ms;
                    done.timed = timed;
                    p.done.push(done);
                }
                Err(e) => p
                    .errors
                    .push(format!("job {idx} ({}): {e}", inputs[defs[job].row].name)),
            }
        }
        let block_ms = ms_since(t_block);
        if timed {
            p.block_ms.push(block_ms);
        }
        calib.after_op(block_ms);
    }
    p
}

/// Set-up: generate the rows, plan the A1/A2 batches, start the daemon.
struct Setup {
    inputs: Vec<Input>,
    digest: String,
    defs: Vec<JobDef>,
    /// Job ids, most requested first.
    popularity: Vec<usize>,
    daemon: Daemon,
    gen_ms: f64,
    setup_s: f64,
    nondeterministic: bool,
}

fn setup(o: &Opts, exe: &Path, calib: &mut Calib) -> Result<Setup, String> {
    let profiles = table1_profiles(o.seed, o.tiny);
    let mut times = Vec::new();
    let mut last = None;
    let mut gen_ms = Vec::new();
    let mut nondeterministic = false;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let gen = generate_timed(&profiles, 1, None);
        gen_ms.push(gen.gen_ms);
        let mut defs = Vec::new();
        for (row, input) in gen.inputs.iter().enumerate() {
            for kind in KINDS {
                let (requests, extra) = match kind {
                    Kind::A1 | Kind::A2 => {
                        let (app, payload) = if kind == Kind::A1 {
                            (Application::A1Jumps, Payload::Empty)
                        } else {
                            (Application::A2HeapWrites, Payload::Counter)
                        };
                        let plan = e9front::plan(
                            &input.binary,
                            &input.disasm,
                            &Options::new(app, payload),
                        )
                        .map_err(|e| format!("{}: plan: {e}", input.name))?;
                        (plan.requests, plan.extra)
                    }
                    Kind::Hook => (Vec::new(), Vec::new()),
                };
                defs.push(JobDef {
                    row,
                    kind,
                    requests,
                    extra,
                });
            }
        }
        let socket = o.out.join(format!("d{}-{rep}.sock", std::process::id()));
        let daemon = Daemon::start(exe, socket)?;
        times.push(t.elapsed().as_secs_f64());
        calib.after_op(1e3 * times[times.len() - 1]);
        if let Some((prev_digest, _, prev_daemon)) =
            last.replace((gen.digest.clone(), (gen.inputs, defs), daemon))
        {
            nondeterministic |= prev_digest != gen.digest;
            Daemon::stop(prev_daemon);
        }
    }
    let (digest, (inputs, defs), daemon) = last.expect("at least one set-up");
    // Assumed, not measured: a job's popularity is independent of its
    // program's size, so the ranking is a fixed pseudo-random order of
    // the (row, kind) names, the same for every seed.
    let mut popularity: Vec<usize> = (0..defs.len()).collect();
    popularity.sort_by_key(|&j| {
        let name = format!("{}/{:?}", profiles[defs[j].row].name, defs[j].kind);
        (crate::util::row_seed(0, &name), j)
    });
    Ok(Setup {
        inputs,
        digest,
        defs,
        popularity,
        daemon,
        gen_ms: median(&gen_ms),
        setup_s: median(&times),
        nondeterministic,
    })
}

pub fn run(o: &Opts, tr: &mut Tracer, calib: &mut Calib) -> Result<Outcome, String> {
    let exe = o
        .daemon
        .clone()
        .ok_or("--daemon PATH (an e9patchd binary) is required")?;
    std::fs::create_dir_all(&o.out).map_err(|e| format!("{}: {e}", o.out.display()))?;
    let mut res = Outcome::default();
    let Setup {
        inputs,
        digest,
        defs,
        popularity,
        daemon,
        gen_ms,
        setup_s,
        nondeterministic,
    } = setup(o, &exe, calib)?;
    println!("input_digest {digest}");
    if nondeterministic {
        res.check_failed("set-up: two generations of one seed differ".into(), true);
    } else {
        res.check_passed();
    }
    // Far more blocks than any run completes.
    let weights = mix_weights(&popularity);
    let stream = job_stream(&popularity, &weights, o.seed, 1000);

    // The socket phase is never traced: spans come from the in-process
    // replay of its jobs afterwards.
    let phase = socket_phase(&daemon, &inputs, &defs, &stream, o.seconds, calib);
    let rss = daemon.peak_rss_mb().unwrap_or(0.0);
    let wire = wire_stats(&daemon);
    Daemon::stop(daemon);

    res.attempted = (phase.done.len() + phase.errors.len()) as u64;
    for e in &phase.errors {
        res.op_failed(e.clone());
    }
    if phase.mismatches > 0 {
        res.ops_wrong(
            phase.mismatches,
            format!(
                "{} replies differ from the first reply to the same job",
                phase.mismatches
            ),
        );
    }
    if phase.done.is_empty() {
        return Ok(res);
    }

    // Every job of the mix is rewritten in-process once: the reference
    // every reply to it must equal, and the source of succ_pct, size_pct
    // and time_pct, weighted by the mix. Those three are then counts over
    // the whole mix, the same however many jobs a run completes.
    let mut rewrite_ms = Vec::new();
    let t_emu = Instant::now();
    let mut emulate_ms = 0.0;
    let (mut steps_orig, mut steps_patched, mut load_failed) = (0u64, 0u64, 0u64);
    let (mut w_succ, mut w_sites, mut w_out, mut w_in) = (0.0, 0.0, 0.0, 0.0);
    let (mut w_ln_ratio, mut w_emulated) = (0.0, 0.0);
    for (job, def) in defs.iter().enumerate() {
        let row = &inputs[def.row];
        let t = Instant::now();
        let reference = match def.kind {
            Kind::A1 | Kind::A2 => e9front::run_job(&Job {
                binary: &row.binary,
                disasm: &row.disasm,
                requests: &def.requests,
                extra: &def.extra,
                config: RewriteConfig::default(),
            }),
            Kind::Hook => e9front::hook_with_disasm(
                &row.binary,
                &row.disasm,
                &hook_spec(),
                RewriteConfig::default(),
            )
            .map(|h| h.rewrite),
        };
        rewrite_ms.push(ms_since(t));
        let reference = match reference {
            Ok(r) => r,
            Err(e) => {
                res.check_failed(
                    format!(
                        "{} {:?}: in-process rewrite failed: {e}",
                        row.name, def.kind
                    ),
                    true,
                );
                continue;
            }
        };
        if let Some(bin) = phase.outputs.get(&job) {
            if *bin == reference.binary {
                res.check_passed();
            } else {
                res.check_failed(
                    format!(
                        "{} {:?}: daemon reply differs from the in-process rewrite",
                        row.name, def.kind
                    ),
                    true,
                );
            }
        }
        let w = weights[job];
        w_succ += w * reference.stats.succeeded() as f64;
        w_sites += w * reference.stats.total() as f64;
        w_out += w * reference.size.output_bytes as f64;
        w_in += w * reference.size.input_bytes as f64;

        let t = Instant::now();
        match emu_check(&row.binary, &reference.binary, row.entry) {
            EmuCheck::Same {
                orig_steps,
                patched_steps,
            } => {
                res.check_passed();
                steps_orig += orig_steps;
                steps_patched += patched_steps;
                w_ln_ratio += w * (patched_steps as f64 / orig_steps.max(1) as f64).ln();
                w_emulated += w;
            }
            EmuCheck::LoadFailed(why) => {
                load_failed += 1;
                println!(
                    "note {} {:?}: left out of time_pct: {why}",
                    row.name, def.kind
                );
            }
            EmuCheck::Wrong(why) => {
                res.check_failed(format!("{} {:?}: {why}", row.name, def.kind), true)
            }
        }
        emulate_ms += ms_since(t);
    }
    println!(
        "checked {} jobs of the mix in {:.1} s",
        defs.len(),
        t_emu.elapsed().as_secs_f64()
    );
    // End-to-end times are in reference time (see `calib`), over the
    // timed blocks. Every block carries the same jobs, so the rates are
    // a block's jobs and sites over the median block time.
    let f = calib.factor();
    let timed: Vec<&Done> = phase.done.iter().filter(|d| d.timed).collect();
    let lat: Vec<f64> = timed.iter().map(|d| f * d.ms).collect();
    let blocks = phase.block_ms.len().max(1) as f64;
    let sites = timed.iter().map(|d| d.stats.total()).sum::<usize>() as f64 / blocks;
    let jobs = timed.len() as f64 / blocks;
    let block_s = f * median(&phase.block_ms) / 1e3;
    res.e2e("setup_s", f * setup_s, "s");
    res.e2e("sites_per_s", sites / block_s, "1/s");
    res.e2e("peak_rss_mb", rss, "MiB");
    res.e2e(
        "succ_pct",
        100.0 * w_succ / w_sites.max(f64::MIN_POSITIVE),
        "%",
    );
    res.e2e("size_pct", 100.0 * w_out / w_in.max(f64::MIN_POSITIVE), "%");
    res.e2e(
        "time_pct",
        100.0 * (w_ln_ratio / w_emulated.max(f64::MIN_POSITIVE)).exp(),
        "%",
    );
    res.e2e("jobs_per_s", jobs / block_s, "1/s");
    res.e2e("job_ms_p50", median(&lat), "ms");
    res.e2e("job_ms_p90", quantile(&lat, 0.9), "ms");
    println!(
        "jobs {} timed in {} blocks of {BLOCK} over {:.3} s wall, {} with the warm-up block ({} distinct)",
        timed.len(),
        phase.block_ms.len(),
        phase.block_ms.iter().sum::<f64>() / 1e3,
        phase.done.len(),
        phase.outputs.len()
    );
    println!("daemon {}", wire.summary);

    if !tr.enabled() {
        return Ok(res);
    }
    let t_replay = Instant::now();
    let pairs = replay(tr, &inputs, &defs, &phase)?;
    println!(
        "replayed {} jobs twice in {:.1} s",
        pairs.len(),
        t_replay.elapsed().as_secs_f64()
    );
    for (d, pair) in phase.done.iter().zip(&pairs) {
        for r in pair {
            if phase.outputs.get(&d.job).is_some_and(|b| *b == r.binary) {
                res.check_passed();
            } else {
                res.check_failed(
                    format!(
                        "job {} ({} {:?}): in-process replay differs from the socket reply",
                        d.idx, inputs[defs[d.job].row].name, defs[d.job].kind
                    ),
                    true,
                );
            }
        }
    }
    let [untraced, traced]: [Vec<&Replayed>; 2] =
        [0, 1].map(|k| pairs.iter().map(|p| &p[k]).collect());
    let med = |name| median(&tr.per_op_self_ms(name));
    let socket_ms = |disp| -> Vec<f64> {
        phase
            .done
            .iter()
            .filter(|d| d.cache == Some(disp))
            .map(|d| d.ms)
            .collect()
    };
    let mut tstats = PatchStats::default();
    let mut tsize = SizeStats::default();
    for d in &phase.done {
        tstats.merge(&d.stats);
        tsize.output_bytes += d.size.output_bytes;
        tsize.physical_blocks += d.size.physical_blocks;
        tsize.mappings += d.size.mappings;
    }
    res.layer("synth.gen_ms", gen_ms, "ms");
    // A miss's core work: the in-process rewrite of each distinct job.
    res.layer("core.rewrite_ms", median(&rewrite_ms), "ms");
    core_layer(&mut res, &tstats, &tsize, phase.done.len());
    res.layer("cache.digest_ms", med("cache.digest"), "ms");
    res.layer("cache.lookup_ms", med("cache.lookup"), "ms");
    res.layer("cache.put_ms", med("cache.put"), "ms");
    let s = wire.cache;
    res.layer(
        "cache.hit_ratio",
        s.hits as f64 / (s.hits + s.misses).max(1) as f64,
        "ratio",
    );
    res.layer(
        "cache.bypass_ratio",
        s.bypasses as f64 / (s.hits + s.misses + s.bypasses).max(1) as f64,
        "ratio",
    );
    res.layer(
        "cache.hit_ms_p50",
        median(&socket_ms(CacheDisposition::Hit)),
        "ms",
    );
    res.layer(
        "cache.miss_ms_p50",
        median(&socket_ms(CacheDisposition::Miss)),
        "ms",
    );
    res.layer("cache.mem_bytes", s.mem_bytes as f64, "bytes");
    res.layer("proto.key_ms", med("proto.key"), "ms");
    res.layer(
        "proto.lines_per_job",
        mean(&traced.iter().map(|r| r.lines).collect::<Vec<_>>()),
        "count",
    );
    res.layer(
        "proto.bytes_per_job",
        mean(&traced.iter().map(|r| r.bytes).collect::<Vec<_>>()),
        "bytes",
    );
    let rpc_us: Vec<f64> = phase
        .done
        .iter()
        .zip(&traced)
        .map(|(d, r)| 1e3 * d.ms / r.lines)
        .collect();
    res.layer("proto.rpc_us", median(&rpc_us), "us");
    res.layer(
        "proto.dispatch_ms.binary",
        med("proto.dispatch.binary"),
        "ms",
    );
    res.layer(
        "proto.dispatch_ms.instruction",
        med("proto.dispatch.instruction"),
        "ms",
    );
    res.layer("proto.dispatch_ms.patch", med("proto.dispatch.patch"), "ms");
    res.layer("proto.dispatch_ms.hook", med("proto.dispatch.hook"), "ms");
    res.layer("proto.dispatch_ms.emit", med("proto.dispatch.emit"), "ms");
    // Socket latency minus the untraced in-process replay of the same job.
    let overhead: Vec<f64> = phase
        .done
        .iter()
        .zip(&untraced)
        .map(|(d, r)| d.ms - r.inproc_ms)
        .collect();
    res.layer("reactor.overhead_ms_p50", median(&overhead), "ms");
    res.layer("reactor.shed", wire.shed as f64, "count");
    res.layer("hook.plan_ms", med("hook.plan"), "ms");
    let hooks: Vec<f64> = phase
        .done
        .iter()
        .filter(|d| defs[d.job].kind == Kind::Hook)
        .map(|d| d.stats.total() as f64)
        .collect();
    res.layer("hook.hooks", mean(&hooks), "count");
    res.layer("vm.emulate_ms", emulate_ms, "ms");
    res.layer("vm.steps_orig", steps_orig as f64, "count");
    res.layer("vm.steps_patched", steps_patched as f64, "count");
    res.layer("vm.load_failed", load_failed as f64, "count");
    let inproc = |v: &[&Replayed]| v.iter().map(|r| r.inproc_ms).collect::<Vec<_>>();
    res.layer(
        "trace.overhead_pct",
        crate::overhead_pct(&inproc(&untraced), &inproc(&traced)),
        "%",
    );
    Ok(res)
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

struct Wire {
    cache: e9cache::CacheStats,
    shed: u64,
    summary: String,
}

/// Cache and shed counters, read over the wire `cache` and `health`
/// commands.
fn wire_stats(d: &Daemon) -> Wire {
    let mut w = Wire {
        cache: e9cache::CacheStats::default(),
        shed: 0,
        summary: String::from("stats unavailable"),
    };
    if let Ok(mut c) = d.client() {
        if let Ok(s) = c.negotiate().and_then(|()| c.cache_stats()) {
            w.cache = s.stats;
        }
    }
    if let Ok(mut c) = d.client() {
        if let Ok(h) = c.health() {
            w.shed = h.shed_admission + h.shed_busy;
            w.summary = h.summary();
        }
    }
    w
}

/// The commands `e9front` streams for one job (`send_job_inputs`, then
/// the batch or the `hook` command, then `emit`), in order.
fn job_commands(row: &Input, def: &JobDef, digest: e9cache::Digest) -> Vec<Command> {
    let cfg = RewriteConfig::default();
    let b = |v: bool| if v { "true" } else { "false" }.to_string();
    let opt = |name: &str, value: String| Command::Option {
        name: name.into(),
        value,
    };
    let mut cmds = vec![
        Command::Version {
            version: e9proto::PROTOCOL_VERSION,
        },
        opt("t1", b(cfg.tactics.t1)),
        opt("t2", b(cfg.tactics.t2)),
        opt("t3", b(cfg.tactics.t3)),
        opt("b0", b(cfg.b0_fallback)),
        opt("grouping", b(cfg.grouping)),
        opt("granularity", cfg.granularity.to_string()),
        opt(
            "alloc",
            match cfg.alloc_policy {
                e9patch::AllocPolicy::FirstFitLow => "low",
                e9patch::AllocPolicy::FirstFitHigh => "high",
            }
            .into(),
        ),
        Command::Binary {
            bytes: row.binary.clone(),
            digest: Some(digest),
        },
    ];
    cmds.extend(row.disasm.iter().map(|i| Command::Instruction {
        addr: i.addr,
        bytes: i.bytes().to_vec(),
    }));
    match def.kind {
        Kind::A1 | Kind::A2 => {
            cmds.extend(def.extra.iter().map(|s| Command::Reserve {
                vaddr: s.vaddr,
                bytes: s.bytes.clone(),
                exec: s.exec,
                write: s.write,
            }));
            cmds.extend(def.requests.iter().map(|r| Command::Patch {
                addr: r.addr,
                template: r.template.clone(),
            }));
        }
        Kind::Hook => {
            let spec = hook_spec();
            cmds.push(Command::Hook {
                funcs: spec.funcs,
                addrs: spec.addrs,
                call_original: spec.call_original,
                payload: spec.payload,
            });
        }
    }
    cmds.push(Command::Emit);
    cmds
}

fn dispatch_span(method: &str) -> &'static str {
    match method {
        "binary" => "proto.dispatch.binary",
        "instruction" => "proto.dispatch.instruction",
        "patch" => "proto.dispatch.patch",
        "hook" => "proto.dispatch.hook",
        "emit" => "proto.dispatch.emit",
        _ => "proto.dispatch.other",
    }
}

/// One in-process replay of one job.
struct Replayed {
    /// The emitted binary.
    binary: Vec<u8>,
    lines: f64,
    /// Request plus reply bytes.
    bytes: f64,
    /// The job's in-process latency: client digest and encoding plus
    /// every `dispatch_line` (the mirrored cache calls and the hook plan
    /// are the benchmark's, not the job's).
    inproc_ms: f64,
}

/// Replay the socket phase's jobs in-process, in stream order, each
/// twice: untraced, and traced with the mirrored cache calls. The two
/// replays of a job run back to back, in alternating order, so both see
/// the same machine state and their gap is the tracing overhead.
fn replay(
    tr: &mut Tracer,
    inputs: &[Input],
    defs: &[JobDef],
    phase: &Phase,
) -> Result<Vec<[Replayed; 2]>, String> {
    let new_cache = || {
        e9cache::Cache::open(&e9cache::CacheConfig {
            mem_bytes: Some(CACHE_MEM_BYTES as usize),
            ..e9cache::CacheConfig::default()
        })
        .map_err(|e| format!("replay cache: {e}"))
    };
    // Each replay kind's sessions share a cache, as the daemon's do;
    // `mirror` takes the explicit cache-layer calls. All three see the
    // job stream from empty, so they hit and miss alike.
    let (served_untraced, served_traced) = (Arc::new(new_cache()?), Arc::new(new_cache()?));
    let mirror = new_cache()?;
    let mut off = Tracer::new(false);
    let mut out = Vec::with_capacity(phase.done.len());
    for (i, d) in phase.done.iter().enumerate() {
        let def = &defs[d.job];
        let row = &inputs[def.row];
        tr.begin_op(d.idx as u64);
        let pair = if i % 2 == 0 {
            let u = replay_job(&mut off, None, &served_untraced, row, def)?;
            let t = replay_job(tr, Some(&mirror), &served_traced, row, def)?;
            [u, t]
        } else {
            let t = replay_job(tr, Some(&mirror), &served_traced, row, def)?;
            let u = replay_job(&mut off, None, &served_untraced, row, def)?;
            [u, t]
        };
        out.push(pair);
    }
    Ok(out)
}

/// One job in-process: `tree_digest`, then the job's request lines
/// through `dispatch_line` against a `Session` backed by `served`. With
/// a `mirror`, the daemon's cache work is repeated on it by explicit
/// `rewrite_key_from_digest` and `Cache::lookup`/`put` calls.
fn replay_job(
    tr: &mut Tracer,
    mirror: Option<&e9cache::Cache>,
    served: &Arc<e9cache::Cache>,
    row: &Input,
    def: &JobDef,
) -> Result<Replayed, String> {
    let job_span = tr.enter("replay.job");
    let plan = match mirror {
        Some(_) if def.kind == Kind::Hook => {
            let s = tr.enter("hook.plan");
            let plan = e9hook::plan_hooks(&row.binary, &row.disasm, &hook_spec());
            tr.exit(s);
            Some(plan.map_err(|e| format!("{}: hook plan: {e}", row.name))?)
        }
        _ => None,
    };

    let t = Instant::now();
    let s = tr.enter("cache.digest");
    let digest = e9cache::tree::tree_digest(&row.binary, 1);
    tr.exit(s);
    let mut inproc = t.elapsed();

    let key = match mirror {
        Some(m) if !m.should_bypass(row.binary.len() as u64) => {
            let (requests, extra) = match &plan {
                Some(h) => (&h.requests, &h.extra),
                None => (&def.requests, &def.extra),
            };
            let s = tr.enter("proto.key");
            let key = e9proto::cachekey::rewrite_key_from_digest(
                &digest,
                &row.disasm,
                extra,
                requests,
                &RewriteConfig::default(),
            );
            tr.exit(s);
            let s = tr.enter("cache.lookup");
            let hit = m.lookup(&key).is_some();
            tr.exit(s);
            (!hit).then_some((m, key))
        }
        _ => None,
    };

    let t = Instant::now();
    let s = tr.enter("proto.encode");
    let lines: Vec<(&'static str, String)> = job_commands(row, def, digest)
        .into_iter()
        .enumerate()
        .map(|(id, cmd)| {
            (
                dispatch_span(cmd.method()),
                Request {
                    id: id as u64 + 1,
                    cmd,
                }
                .encode(),
            )
        })
        .collect();
    tr.exit(s);
    let mut session = Session::new();
    session.set_cache(Some(Arc::clone(served)));
    let mut bytes = 0usize;
    let mut emitted = None;
    // One span per run of same-class lines.
    for run in lines.chunk_by(|a, b| a.0 == b.0) {
        let s = tr.enter(run[0].0);
        for (class, line) in run {
            let resp = e9proto::server::dispatch_line(&mut session, line.as_bytes());
            let reply = resp.encode();
            bytes += line.len() + reply.len() + 2;
            match resp.body {
                Err(e) => return Err(format!("{}: replay {class}: {}", row.name, e.message)),
                Ok(v) if *class == "proto.dispatch.emit" => emitted = Some(v),
                Ok(_) => {}
            }
        }
        tr.exit(s);
    }
    inproc += t.elapsed();

    let reply = emitted
        .ok_or("no emit reply")
        .and_then(|v| e9proto::EmitReply::from_json(&v).map_err(|_| "bad emit reply"))
        .map_err(|e| format!("{}: replay: {e}", row.name))?;
    if let Some((m, key)) = key {
        let s = tr.enter("cache.put");
        m.put(&key, &e9cache::Entry::Ok(reply.encode_bin()));
        tr.exit(s);
    }
    tr.exit(job_span);
    Ok(Replayed {
        binary: reply.binary,
        lines: lines.len() as f64,
        bytes: bytes as f64,
        inproc_ms: inproc.as_secs_f64() * 1e3,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_carries_the_same_jobs_in_a_seeded_order() {
        let popularity: Vec<usize> = (0..114).rev().collect();
        let weights = mix_weights(&popularity);
        let a = job_stream(&popularity, &weights, 1, 4);
        let sorted = |b: &[usize]| {
            let mut v = b.to_vec();
            v.sort_unstable();
            v
        };
        let first = sorted(&a[..BLOCK]);
        assert!(a.chunks(BLOCK).all(|b| sorted(b) == first));
        // Skewed: the most popular job repeats within a block.
        assert!(first.iter().filter(|&&j| j == popularity[0]).count() > 1);
        assert_eq!(a, job_stream(&popularity, &weights, 1, 4));
        assert_ne!(a, job_stream(&popularity, &weights, 2, 4));
    }
}
