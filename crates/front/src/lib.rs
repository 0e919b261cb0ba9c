//! # e9front — disassembly frontend and instrumentation driver
//!
//! E9Patch deliberately has **no built-in disassembler**: instruction
//! locations and sizes are an *input* (paper §2.2), so the rewriter can be
//! paired with any disassembly technique. This crate is the reproduction's
//! counterpart of the paper's "basic wrapper frontend that applies linear
//! disassembly to the `.text` section", plus the two evaluation
//! applications:
//!
//! * **A1** — instrument every `jmp`/`jcc` instruction;
//! * **A2** — instrument every instruction that may write to heap
//!   pointers (excluding `%rsp`-based and `%rip`-relative writes);
//!
//! and the §6.3 hardening payload (low-fat redzone checking).
//!
//! ```no_run
//! use e9front::{instrument, Application, Payload, Options};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let binary: Vec<u8> = vec![];
//! let out = instrument(&binary, &Options::new(Application::A1Jumps, Payload::Empty))?;
//! println!("coverage: {:.2}%", out.rewrite.stats.succ_pct());
//! # Ok(())
//! # }
//! ```

pub mod output;
pub mod recursive;
pub mod trace;

use e9elf::Elf;
use e9patch::{ExtraSegment, PatchRequest, RewriteConfig, RewriteOutput, Rewriter, Template};
use e9x86::decode::linear_sweep;
use e9x86::insn::Insn;

/// Which instruction class to instrument (the paper's evaluation
/// applications).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Application {
    /// All `jmp`/`jcc` jump instructions (§6.1 A1).
    A1Jumps,
    /// All heap-write instructions (§6.1 A2).
    A2HeapWrites,
    /// All call instructions (direct and indirect) — call-graph tracing.
    A3Calls,
    /// Every instruction (the stress case, limitation L3).
    AllInstructions,
}

/// What each trampoline does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// Execute/emulate the displaced instruction only (the paper's "empty"
    /// instrumentation).
    Empty,
    /// Increment a global execution counter.
    Counter,
    /// Increment a *per-site* execution counter (the classic basic-block
    /// counting instrumentation benchmarked by PEBIL/DynInst, §6.1).
    CounterPerSite,
    /// Low-fat redzone check on the written pointer (§6.3; A2 only).
    LowFat,
    /// Record every executed site's address into a ring buffer (tracing /
    /// coverage instrumentation; see [`trace`]).
    Trace,
}

/// Instrumentation options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Site selector.
    pub app: Application,
    /// Trampoline payload.
    pub payload: Payload,
    /// Rewriter configuration (tactics, grouping, B0 fallback).
    pub config: RewriteConfig,
}

impl Options {
    /// Options with the default rewriter configuration.
    pub fn new(app: Application, payload: Payload) -> Options {
        Options {
            app,
            payload,
            config: RewriteConfig::default(),
        }
    }
}

/// Result of [`instrument`].
#[derive(Debug)]
pub struct Instrumented {
    /// Rewriting output (patched binary + statistics).
    pub rewrite: RewriteOutput,
    /// Number of patch sites selected.
    pub sites: usize,
    /// Address of the low-fat violation counter, when
    /// [`Payload::LowFat`] was used.
    pub violations_addr: Option<u64>,
    /// Address of the execution counter, when [`Payload::Counter`] was
    /// used.
    pub counter_addr: Option<u64>,
    /// Trace ring header address, when [`Payload::Trace`] was used.
    pub trace_addr: Option<u64>,
    /// How the rewrite cache participated (`None` = no cache in play).
    pub cache: Option<CacheOutcome>,
}

/// Frontend error.
#[derive(Debug)]
pub enum FrontError {
    /// Input is not a parseable ELF or has no `.text` section.
    Input(String),
    /// Rewriting failed.
    Rewrite(e9patch::Error),
    /// Hook planning failed (symbol resolution, unrelocatable prologue).
    Hook(e9hook::HookError),
    /// The external patch backend failed (protocol, transport, or an
    /// in-band error reply).
    Backend(String),
    /// A cached negative entry: this exact job failed before, and the
    /// original typed error is replayed without re-running the rewriter.
    CachedFailure {
        /// The wire error code of the original failure.
        code: i64,
        /// The original failure message.
        message: String,
    },
}

impl std::fmt::Display for FrontError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrontError::Input(m) => write!(f, "bad input: {m}"),
            FrontError::Rewrite(e) => write!(f, "rewrite failed: {e}"),
            FrontError::Hook(e) => write!(f, "hook planning failed: {e}"),
            FrontError::Backend(m) => write!(f, "backend failed: {m}"),
            FrontError::CachedFailure { code, message } => {
                write!(f, "rewrite failed (cached, code {code}): {message}")
            }
        }
    }
}

impl std::error::Error for FrontError {}

impl From<e9patch::Error> for FrontError {
    fn from(e: e9patch::Error) -> Self {
        FrontError::Rewrite(e)
    }
}

impl From<e9proto::ClientError> for FrontError {
    fn from(e: e9proto::ClientError) -> Self {
        FrontError::Backend(e.to_string())
    }
}

impl From<e9hook::HookError> for FrontError {
    fn from(e: e9hook::HookError) -> Self {
        FrontError::Hook(e)
    }
}

/// Linear disassembly of the binary's `.text` section — the paper's
/// prototype frontend.
///
/// # Errors
///
/// Fails if the ELF cannot be parsed or has no `.text` section (fully
/// stripped *section tables* are rare; a production frontend would fall
/// back to `PT_LOAD` executable segments, which
/// [`disassemble_exec_segments`] provides).
pub fn disassemble_text(binary: &[u8]) -> Result<Vec<Insn>, FrontError> {
    let elf = Elf::parse(binary).map_err(|e| FrontError::Input(e.to_string()))?;
    let text = elf
        .section(".text")
        .ok_or_else(|| FrontError::Input("no .text section".into()))?;
    let bytes = elf
        .section_bytes(".text")
        .ok_or_else(|| FrontError::Input(".text has no file contents".into()))?;
    // Honour a `.note.e9code` marker — `n × (vaddr u64, len u64)` code
    // ranges — when present: it bounds the sweep to real code, excluding
    // data-in-text blobs and jump tables. This is the moral equivalent of
    // the paper skipping Chrome's pre-ChromeMain data (§6.2).
    if let Some(note) = elf.section_bytes(".note.e9code") {
        let mut out = Vec::new();
        let mut used_note = false;
        // Note contents are untrusted: a range is honoured only if both its
        // end and the section end compute without wrapping.
        let text_end = text.sh_addr.checked_add(text.sh_size);
        for pair in note.chunks_exact(16) {
            let nv = u64::from_le_bytes(pair[0..8].try_into().unwrap());
            let nl = u64::from_le_bytes(pair[8..16].try_into().unwrap());
            let in_text = nv >= text.sh_addr
                && nv
                    .checked_add(nl)
                    .zip(text_end)
                    .is_some_and(|(end, te)| end <= te);
            if in_text {
                let start = (nv - text.sh_addr) as usize;
                out.extend(linear_sweep(&bytes[start..start + nl as usize], nv));
                used_note = true;
            }
        }
        if used_note {
            return Ok(out);
        }
    }
    Ok(linear_sweep(bytes, text.sh_addr))
}

/// Fallback frontend for section-stripped binaries: linearly disassemble
/// every executable `PT_LOAD` segment.
///
/// # Errors
///
/// Fails only on unparseable ELF input.
pub fn disassemble_exec_segments(binary: &[u8]) -> Result<Vec<Insn>, FrontError> {
    let elf = Elf::parse(binary).map_err(|e| FrontError::Input(e.to_string()))?;
    let mut out = Vec::new();
    for ph in elf.load_segments() {
        if ph.p_flags & e9elf::types::PF_X == 0 {
            continue;
        }
        if let Ok(bytes) = elf.slice_at(ph.p_vaddr, ph.p_filesz as usize) {
            out.extend(linear_sweep(bytes, ph.p_vaddr));
        }
    }
    Ok(out)
}

/// Select patch sites for an application.
pub fn select_sites(disasm: &[Insn], app: Application) -> Vec<u64> {
    disasm
        .iter()
        .filter(|i| match app {
            Application::A1Jumps => i.kind.is_jump(),
            Application::A2HeapWrites => i.is_heap_write(),
            Application::A3Calls => matches!(
                i.kind,
                e9x86::Kind::CallRel32 | e9x86::Kind::CallInd
            ),
            Application::AllInstructions => true,
        })
        .map(|i| i.addr)
        .collect()
}

/// Pick load addresses for the instrumentation runtime, clear of the
/// binary's own image.
fn runtime_vaddrs(elf: &Elf) -> (u64, u64) {
    let (_, hi) = elf.vaddr_extent();
    let code = e9elf::page_ceil(hi) + 0x100_0000;
    let data = code + 0x10_0000;
    (code, data)
}

/// Instrument `binary` according to `opts`: disassemble, select sites,
/// build the payload runtime, and rewrite.
///
/// # Errors
///
/// Propagates frontend and rewriter errors. Per-site patch failures are
/// *not* errors; see [`RewriteOutput::stats`].
pub fn instrument(binary: &[u8], opts: &Options) -> Result<Instrumented, FrontError> {
    let disasm = disassemble_text(binary)?;
    instrument_with_disasm(binary, &disasm, opts)
}

/// The frontend's planning output: everything a rewriting backend needs
/// besides the binary and disassembly themselves.
///
/// [`plan`] is shared by the in-process path ([`instrument_with_disasm`])
/// and the protocol path ([`instrument_via_backend`]); feeding both the
/// same plan is what makes their outputs byte-identical.
#[derive(Debug)]
pub struct Plan {
    /// Selected patch-site addresses, in disassembly order.
    pub sites: Vec<u64>,
    /// One patch request per site.
    pub requests: Vec<PatchRequest>,
    /// Runtime segments the payload needs injected.
    pub extra: Vec<ExtraSegment>,
    /// Low-fat violation counter address, when [`Payload::LowFat`].
    pub violations_addr: Option<u64>,
    /// Execution counter address, when [`Payload::Counter`] /
    /// [`Payload::CounterPerSite`].
    pub counter_addr: Option<u64>,
    /// Trace ring header address, when [`Payload::Trace`].
    pub trace_addr: Option<u64>,
}

/// [`instrument`] with caller-provided disassembly info (e.g. from
/// `e9synth`, which knows its exact code extent).
///
/// # Errors
///
/// As [`instrument`].
pub fn instrument_with_disasm(
    binary: &[u8],
    disasm: &[Insn],
    opts: &Options,
) -> Result<Instrumented, FrontError> {
    let p = plan(binary, disasm, opts)?;
    let rewrite = run_job(&Job {
        binary,
        disasm,
        requests: &p.requests,
        extra: &p.extra,
        config: opts.config,
    })?;
    Ok(Instrumented {
        rewrite,
        sites: p.sites.len(),
        violations_addr: p.violations_addr,
        counter_addr: p.counter_addr,
        trace_addr: p.trace_addr,
        cache: None,
    })
}

/// One fully-planned rewrite job: the batch every execution path —
/// in-process ([`run_job`]), cached ([`run_job_cached`]) and protocol
/// backend ([`run_job_via_backend`]) — consumes identically. Any driver
/// that lowers its work to a `Job` (instrumentation via [`plan`], hooking
/// via [`e9hook::plan_hooks`]) inherits the byte-identity guarantee
/// across all three paths for free.
#[derive(Debug, Clone, Copy)]
pub struct Job<'a> {
    /// The input binary.
    pub binary: &'a [u8],
    /// Disassembly info (instruction locations and sizes).
    pub disasm: &'a [Insn],
    /// The patch batch.
    pub requests: &'a [PatchRequest],
    /// Runtime segments to inject.
    pub extra: &'a [ExtraSegment],
    /// Rewriter configuration.
    pub config: RewriteConfig,
}

/// Execute a job with the in-process [`Rewriter`].
///
/// # Errors
///
/// Rewriting failures. Per-site patch failures are *not* errors; see
/// [`RewriteOutput::stats`].
pub fn run_job(job: &Job) -> Result<RewriteOutput, FrontError> {
    Rewriter::new(job.config)
        .rewrite(job.binary, job.disasm, job.requests, job.extra)
        .map_err(FrontError::Rewrite)
}

/// Execute a job through a rewrite cache. The key is derived exactly as
/// an `e9patchd` session would derive it (same codec, same config
/// encoding), so the in-process path and a daemon with the same
/// `--cache-dir` share artifacts. Corrupt or unreadable entries degrade
/// to a cold rewrite.
///
/// # Errors
///
/// As [`run_job`], plus [`FrontError::CachedFailure`] when a negative
/// entry short-circuits a known-failing job.
pub fn run_job_cached(
    job: &Job,
    cache: &e9cache::Cache,
) -> Result<(RewriteOutput, CacheOutcome), FrontError> {
    if cache.should_bypass(job.binary.len() as u64) {
        // Below the break-even size the rewrite is cheaper than keying
        // it: run cold, report the bypass, store nothing (failures
        // included — a negative entry would pay the keying cost too).
        let rewrite = run_job(job)?;
        return Ok((
            rewrite,
            CacheOutcome {
                disposition: e9proto::CacheDisposition::Bypass,
                digest: None,
            },
        ));
    }
    // Hash the input exactly once.
    let bin_digest = e9cache::tree::tree_digest(job.binary, 1);
    let key = e9proto::cachekey::rewrite_key_from_digest(
        &bin_digest,
        job.disasm,
        job.extra,
        job.requests,
        &job.config,
    );
    let digest = Some(e9cache::sha256::hex(&key));
    match cache.lookup(&key) {
        Some(e9cache::Hit::Payload(blob)) => {
            // Stored payload is the compact binary emit reply of the cold
            // run, served as a zero-copy view; an undecodable one falls
            // through to a cold rewrite.
            if let Ok(reply) = e9proto::EmitReply::decode_bin(&blob) {
                return Ok((
                    output_from_reply(reply),
                    CacheOutcome {
                        disposition: e9proto::CacheDisposition::Hit,
                        digest,
                    },
                ));
            }
        }
        Some(e9cache::Hit::Negative { code, message }) => {
            return Err(FrontError::CachedFailure { code, message });
        }
        None => {}
    }
    match run_job(job) {
        Ok(rewrite) => {
            let stored = reply_from_output(&rewrite).encode_bin();
            cache.put(&key, &e9cache::Entry::Ok(stored));
            Ok((
                rewrite,
                CacheOutcome {
                    disposition: e9proto::CacheDisposition::Miss,
                    digest,
                },
            ))
        }
        Err(FrontError::Rewrite(e)) => {
            // Rewrite failures are deterministic — cache them as negative
            // entries so the next attempt replays the typed error.
            cache.put(
                &key,
                &e9cache::Entry::Negative {
                    code: e9proto::msg::code::REWRITE,
                    message: e.to_string(),
                },
            );
            Err(FrontError::Rewrite(e))
        }
        Err(other) => Err(other),
    }
}

/// Stream a job's shared inputs — protocol handshake, rewriter options,
/// binary (with its pre-computed tree digest) and disassembly info — to a
/// backend. Patch-batch delivery is the caller's: explicit
/// `reserve`/`patch` streaming ([`run_job_via_backend`]) or server-side
/// planning (the `hook` command).
fn send_job_inputs(
    client: &mut e9proto::ProtoClient,
    binary: &[u8],
    disasm: &[Insn],
    cfg: &RewriteConfig,
) -> Result<(), FrontError> {
    client.negotiate()?;
    let bool_str = |b: bool| if b { "true" } else { "false" };
    client.option("t1", bool_str(cfg.tactics.t1))?;
    client.option("t2", bool_str(cfg.tactics.t2))?;
    client.option("t3", bool_str(cfg.tactics.t3))?;
    client.option("b0", bool_str(cfg.b0_fallback))?;
    client.option("grouping", bool_str(cfg.grouping))?;
    client.option("granularity", &cfg.granularity.to_string())?;
    client.option(
        "alloc",
        match cfg.alloc_policy {
            e9patch::AllocPolicy::FirstFitLow => "low",
            e9patch::AllocPolicy::FirstFitHigh => "high",
        },
    )?;
    // Digest-once: hash the input here, send it alongside the bytes, and
    // the server verifies it at intake instead of re-hashing at every emit.
    let bin_digest = e9cache::tree::tree_digest(binary, 1);
    client.binary_with_digest(binary, &bin_digest)?;
    for i in disasm {
        client.instruction(i.addr, i.bytes())?;
    }
    Ok(())
}

/// Execute a job through a protocol backend. The plan, wire round trip
/// and server-side re-decode preserve every input bit, so the output is
/// byte-identical to [`run_job`] for the same job.
///
/// # Errors
///
/// Any transport or in-band backend failure.
pub fn run_job_via_backend(
    job: &Job,
    client: &mut e9proto::ProtoClient,
) -> Result<(RewriteOutput, Option<CacheOutcome>), FrontError> {
    send_job_inputs(client, job.binary, job.disasm, &job.config)?;
    for seg in job.extra {
        client.reserve(seg)?;
    }
    for r in job.requests {
        client.patch(r.addr, r.template.clone())?;
    }
    let reply = client.emit()?;
    let cache = CacheOutcome::from_reply(&reply);
    Ok((output_from_reply(reply), cache))
}

/// Select sites and build the payload runtime for `binary`, without
/// running the rewrite.
///
/// # Errors
///
/// Fails on unparseable ELF input.
pub fn plan(binary: &[u8], disasm: &[Insn], opts: &Options) -> Result<Plan, FrontError> {
    let elf = Elf::parse(binary).map_err(|e| FrontError::Input(e.to_string()))?;
    let sites = select_sites(disasm, opts.app);

    let mut extra: Vec<ExtraSegment> = Vec::new();
    let mut violations_addr = None;
    let mut counter_addr = None;
    let mut trace_addr = None;
    let mut per_site: Option<Vec<Template>> = None;
    let template = match opts.payload {
        Payload::Empty => Template::Empty,
        Payload::Counter => {
            let (_, data_vaddr) = runtime_vaddrs(&elf);
            extra.push(ExtraSegment {
                vaddr: data_vaddr,
                bytes: vec![0u8; 4096],
                exec: false,
                write: true,
            });
            counter_addr = Some(data_vaddr);
            Template::Counter {
                counter_addr: data_vaddr,
            }
        }
        Payload::LowFat => {
            let (code_vaddr, data_vaddr) = runtime_vaddrs(&elf);
            let rt = e9lowfat::runtime::build(code_vaddr, data_vaddr);
            violations_addr = Some(rt.violations_addr);
            extra.push(ExtraSegment {
                vaddr: rt.code_vaddr,
                bytes: rt.code,
                exec: true,
                write: false,
            });
            extra.push(ExtraSegment {
                vaddr: rt.data_vaddr,
                bytes: rt.data,
                exec: false,
                write: true,
            });
            Template::CheckCall {
                func_addr: rt.check_fn,
            }
        }
        Payload::CounterPerSite => {
            // One 64-bit counter per site, in site order — readable back
            // through `counter_addr + 8*site_index`.
            let (_, data_vaddr) = runtime_vaddrs(&elf);
            let table_bytes = (sites.len().max(1) * 8).next_multiple_of(4096);
            extra.push(ExtraSegment {
                vaddr: data_vaddr,
                bytes: vec![0u8; table_bytes],
                exec: false,
                write: true,
            });
            counter_addr = Some(data_vaddr);
            per_site = Some(
                (0..sites.len())
                    .map(|k| Template::Counter {
                        counter_addr: data_vaddr + k as u64 * 8,
                    })
                    .collect(),
            );
            Template::Empty // unused; per_site takes precedence
        }
        Payload::Trace => {
            let (code_vaddr, data_vaddr) = runtime_vaddrs(&elf);
            let rt = trace::build(code_vaddr, data_vaddr, 4096);
            trace_addr = Some(rt.data_addr);
            extra.push(ExtraSegment {
                vaddr: rt.code_vaddr,
                bytes: rt.code,
                exec: true,
                write: false,
            });
            extra.push(ExtraSegment {
                vaddr: rt.data_vaddr,
                bytes: rt.data,
                exec: false,
                write: true,
            });
            Template::HookCall {
                func_addr: rt.hook_fn,
            }
        }
    };

    let requests: Vec<PatchRequest> = match per_site {
        Some(templates) => sites
            .iter()
            .zip(templates)
            .map(|(&addr, template)| PatchRequest { addr, template })
            .collect(),
        None => sites
            .iter()
            .map(|&addr| PatchRequest {
                addr,
                template: template.clone(),
            })
            .collect(),
    };

    Ok(Plan {
        sites,
        requests,
        extra,
        violations_addr,
        counter_addr,
        trace_addr,
    })
}

/// [`instrument_with_disasm`], but driving the rewrite through a protocol
/// backend (the paper's frontend/backend split) instead of calling
/// [`Rewriter`] in-process. The plan, wire round trip and server-side
/// re-decode preserve every input bit, so the output is byte-identical to
/// the in-process path for the same binary, options and seed.
///
/// # Errors
///
/// Planning errors, plus any transport or in-band backend failure.
pub fn instrument_via_backend(
    binary: &[u8],
    disasm: &[Insn],
    opts: &Options,
    client: &mut e9proto::ProtoClient,
) -> Result<Instrumented, FrontError> {
    let p = plan(binary, disasm, opts)?;
    let (rewrite, cache) = run_job_via_backend(
        &Job {
            binary,
            disasm,
            requests: &p.requests,
            extra: &p.extra,
            config: opts.config,
        },
        client,
    )?;
    Ok(Instrumented {
        rewrite,
        sites: p.sites.len(),
        violations_addr: p.violations_addr,
        counter_addr: p.counter_addr,
        trace_addr: p.trace_addr,
        cache,
    })
}

/// Convert a wire [`e9proto::EmitReply`] back into the in-process
/// [`RewriteOutput`] shape (shared by the backend and cached paths).
pub fn output_from_reply(reply: e9proto::EmitReply) -> RewriteOutput {
    RewriteOutput {
        binary: reply.binary,
        stats: reply.stats,
        size: reply.size,
        loader_addr: reply.loader_addr,
        trap_count: reply.trap_count as usize,
        reports: reply.reports,
        mappings: reply
            .mappings
            .iter()
            .map(|m| e9patch::loader::Mapping {
                vaddr: m.vaddr,
                file_off: m.file_off,
                len: m.len,
            })
            .collect(),
    }
}

/// Inverse of [`output_from_reply`]: the canonical reply form of a cold
/// rewrite, which is what the cache stores.
fn reply_from_output(out: &RewriteOutput) -> e9proto::EmitReply {
    e9proto::EmitReply {
        binary: out.binary.clone(),
        stats: out.stats,
        size: out.size,
        loader_addr: out.loader_addr,
        trap_count: out.trap_count as u64,
        reports: out.reports.clone(),
        mappings: out
            .mappings
            .iter()
            .map(|m| e9proto::msg::WireMapping {
                vaddr: m.vaddr,
                file_off: m.file_off,
                len: m.len,
            })
            .collect(),
        cache: e9proto::CacheDisposition::Off,
        digest: None,
    }
}

/// How the cache participated in an instrumentation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheOutcome {
    /// Hit, miss or bypass (never `Off` — absence is modelled by
    /// `Instrumented::cache == None`).
    pub disposition: e9proto::CacheDisposition,
    /// Hex cache key of the job. `None` for bypassed runs, which are
    /// never keyed (keying is the cost the bypass avoids).
    pub digest: Option<String>,
}

impl CacheOutcome {
    fn from_reply(reply: &e9proto::EmitReply) -> Option<CacheOutcome> {
        match reply.cache {
            e9proto::CacheDisposition::Off => None,
            d => Some(CacheOutcome {
                disposition: d,
                digest: reply.digest.clone(),
            }),
        }
    }
}

/// [`instrument_with_disasm`] through a rewrite cache: the job key is
/// derived exactly as an `e9patchd` session would derive it (same codec,
/// same config encoding), so the in-process path and a daemon with the
/// same `--cache-dir` share artifacts.
///
/// A hit returns bytes identical to a cold rewrite — guaranteed by the
/// pipeline's determinism and re-checked end-to-end in the integration
/// suite. Corrupt or unreadable entries degrade to a cold rewrite.
///
/// # Errors
///
/// As [`instrument_with_disasm`], plus [`FrontError::CachedFailure`] when
/// a negative entry short-circuits a known-failing job.
pub fn instrument_cached(
    binary: &[u8],
    disasm: &[Insn],
    opts: &Options,
    cache: &e9cache::Cache,
) -> Result<Instrumented, FrontError> {
    let p = plan(binary, disasm, opts)?;
    let (rewrite, outcome) = run_job_cached(
        &Job {
            binary,
            disasm,
            requests: &p.requests,
            extra: &p.extra,
            config: opts.config,
        },
        cache,
    )?;
    Ok(Instrumented {
        rewrite,
        sites: p.sites.len(),
        violations_addr: p.violations_addr,
        counter_addr: p.counter_addr,
        trace_addr: p.trace_addr,
        cache: Some(outcome),
    })
}

// ---- hooking driver ------------------------------------------------------

/// Result of the hooking drivers ([`hook_functions`] and friends).
#[derive(Debug)]
pub struct Hooked {
    /// Rewriting output (hooked binary + statistics).
    pub rewrite: RewriteOutput,
    /// One record per installed hook, in function-address order — the
    /// same records the binary's manifest segment carries.
    pub hooks: Vec<e9hook::HookRecord>,
    /// Base of the per-hook counter table (counter payloads only); hook
    /// `i`'s cell is at `counters_addr + 8*i`.
    pub counters_addr: Option<u64>,
    /// Address of the in-binary hook manifest.
    pub manifest_addr: u64,
    /// How the rewrite cache participated (`None` = no cache in play).
    pub cache: Option<CacheOutcome>,
}

/// Hook functions in `binary` per `spec`: disassemble, resolve symbols,
/// plan trampolines and rewrite in-process. Uses the `.text` frontend
/// with the executable-segment fallback for section-stripped binaries
/// (where [`e9hook::HookSpec::addrs`] is the expected targeting mode).
///
/// # Errors
///
/// Disassembly, hook-planning and rewriting failures.
pub fn hook_functions(
    binary: &[u8],
    spec: &e9hook::HookSpec,
    config: RewriteConfig,
) -> Result<Hooked, FrontError> {
    let disasm = match disassemble_text(binary) {
        Ok(d) => d,
        Err(_) => disassemble_exec_segments(binary)?,
    };
    hook_with_disasm(binary, &disasm, spec, config)
}

/// [`hook_functions`] with caller-provided disassembly info.
///
/// # Errors
///
/// As [`hook_functions`].
pub fn hook_with_disasm(
    binary: &[u8],
    disasm: &[Insn],
    spec: &e9hook::HookSpec,
    config: RewriteConfig,
) -> Result<Hooked, FrontError> {
    let plan = e9hook::plan_hooks(binary, disasm, spec)?;
    let rewrite = run_job(&Job {
        binary,
        disasm,
        requests: &plan.requests,
        extra: &plan.extra,
        config,
    })?;
    Ok(Hooked {
        rewrite,
        hooks: plan.hooks,
        counters_addr: plan.counters_addr,
        manifest_addr: plan.manifest_addr,
        cache: None,
    })
}

/// [`hook_with_disasm`] through a rewrite cache. Hook planning is
/// deterministic, so the lowered batch — and therefore the cache key —
/// is identical for identical (binary, spec, config), and a warm hit
/// returns bytes identical to the cold rewrite.
///
/// # Errors
///
/// As [`hook_with_disasm`], plus [`FrontError::CachedFailure`].
pub fn hook_cached(
    binary: &[u8],
    disasm: &[Insn],
    spec: &e9hook::HookSpec,
    config: RewriteConfig,
    cache: &e9cache::Cache,
) -> Result<Hooked, FrontError> {
    let plan = e9hook::plan_hooks(binary, disasm, spec)?;
    let (rewrite, outcome) = run_job_cached(
        &Job {
            binary,
            disasm,
            requests: &plan.requests,
            extra: &plan.extra,
            config,
        },
        cache,
    )?;
    Ok(Hooked {
        rewrite,
        hooks: plan.hooks,
        counters_addr: plan.counters_addr,
        manifest_addr: plan.manifest_addr,
        cache: Some(outcome),
    })
}

/// [`hook_with_disasm`] through a protocol backend: the spec travels
/// over the wire as one `hook` command and the *server* plans it against
/// its copy of the binary and disassembly. Server-side planning buffers
/// the same batch a local plan would have streamed, so the emitted
/// binary — and the daemon's cache key for it — is byte-identical to
/// every other path.
///
/// # Errors
///
/// Planning errors (returned in-band by the server), plus any transport
/// or backend failure.
pub fn hook_via_backend(
    binary: &[u8],
    disasm: &[Insn],
    spec: &e9hook::HookSpec,
    config: RewriteConfig,
    client: &mut e9proto::ProtoClient,
) -> Result<Hooked, FrontError> {
    send_job_inputs(client, binary, disasm, &config)?;
    let planned = client.hook(spec)?;
    let reply = client.emit()?;
    let cache = CacheOutcome::from_reply(&reply);
    Ok(Hooked {
        rewrite: output_from_reply(reply),
        hooks: planned.hooks,
        counters_addr: planned.counters_addr,
        manifest_addr: planned.manifest_addr,
        cache,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use e9synth::{generate, Profile};

    fn sample() -> e9synth::SynthBinary {
        generate(&Profile::tiny("fronttest", false))
    }

    #[test]
    fn text_disassembly_matches_synth() {
        // With the .note.e9code marker honoured, the .text frontend's
        // output is exactly the generator's own disassembly info.
        let sb = sample();
        let d = disassemble_text(&sb.binary).unwrap();
        assert_eq!(d, sb.disasm);
    }

    #[test]
    fn exec_segment_fallback_covers_at_least_text() {
        let sb = sample();
        let a = disassemble_text(&sb.binary).unwrap();
        let b = disassemble_exec_segments(&sb.binary).unwrap();
        // The raw segment sweep has no marker and also decodes the
        // jump-table tail.
        assert!(b.len() >= a.len());
        assert_eq!(a[0], b[0]);
    }

    #[test]
    fn site_selectors() {
        let sb = sample();
        let a1 = select_sites(&sb.disasm, Application::A1Jumps);
        let a2 = select_sites(&sb.disasm, Application::A2HeapWrites);
        let all = select_sites(&sb.disasm, Application::AllInstructions);
        assert!(!a1.is_empty());
        assert!(!a2.is_empty());
        assert_eq!(all.len(), sb.disasm.len());
        // A1 and A2 are disjoint: jumps don't write memory.
        assert!(a1.iter().all(|a| !a2.contains(a)));
    }

    #[test]
    fn instrument_a1_empty_preserves_behaviour() {
        let sb = sample();
        let orig = e9vm::run_binary(&sb.binary, 50_000_000).unwrap();
        let out = instrument_with_disasm(
            &sb.binary,
            &sb.disasm,
            &Options::new(Application::A1Jumps, Payload::Empty),
        )
        .unwrap();
        let patched = e9vm::run_binary(&out.rewrite.binary, 100_000_000).unwrap();
        assert_eq!(patched.output, orig.output);
        assert_eq!(patched.exit_code, orig.exit_code);
        assert!(patched.insns > orig.insns);
    }

    #[test]
    fn instrument_counter_counts() {
        let sb = sample();
        let out = instrument_with_disasm(
            &sb.binary,
            &sb.disasm,
            &Options::new(Application::A1Jumps, Payload::Counter),
        )
        .unwrap();
        let counter = out.counter_addr.unwrap();
        let mut vm = e9vm::Vm::new();
        e9vm::load_elf(&mut vm, &out.rewrite.binary).unwrap();
        vm.run(100_000_000).unwrap();
        assert!(vm.mem.read_le(counter, 8).unwrap() > 0);
    }

    #[test]
    fn data_in_text_frontend_skips_blobs() {
        // The §6.2 Chrome wrinkle: .text interleaves data blobs. The
        // note-guided frontend must match the generator's disasm exactly
        // and the instrumented binary must still behave.
        let mut p = Profile::tiny("mixtext", false);
        p.data_in_text = true;
        p.funcs = 24;
        let sb = generate(&p);
        let d = disassemble_text(&sb.binary).unwrap();
        assert_eq!(d, sb.disasm);
        // There must actually be gaps (blobs) between ranges.
        let has_gap = d.windows(2).any(|w| w[1].addr > w[0].end());
        assert!(has_gap, "expected interleaved data blobs");
        let orig = e9vm::run_binary(&sb.binary, 50_000_000).unwrap();
        let out = instrument(
            &sb.binary,
            &Options::new(Application::A1Jumps, Payload::Empty),
        )
        .unwrap();
        let patched = e9vm::run_binary(&out.rewrite.binary, 100_000_000).unwrap();
        assert_eq!(patched.output, orig.output);
    }

    #[test]
    fn instrument_trace_records_sites() {
        let sb = sample();
        let orig = e9vm::run_binary(&sb.binary, 50_000_000).unwrap();
        let out = instrument_with_disasm(
            &sb.binary,
            &sb.disasm,
            &Options::new(Application::A1Jumps, Payload::Trace),
        )
        .unwrap();
        let hdr = out.trace_addr.unwrap();
        let mut vm = e9vm::Vm::new();
        e9vm::load_elf(&mut vm, &out.rewrite.binary).unwrap();
        let patched = vm.run(200_000_000).unwrap();
        assert_eq!(patched.output, orig.output);
        let events = vm.mem.read_le(hdr, 8).unwrap();
        let cap = vm.mem.read_le(hdr + 8, 8).unwrap();
        assert!(events > 0, "trace recorded nothing");
        // Every recorded address must be one of the patched sites.
        let sites: std::collections::HashSet<u64> = select_sites(&sb.disasm, Application::A1Jumps)
            .into_iter()
            .collect();
        for i in 0..events.min(cap) {
            let site = vm.mem.read_le(hdr + 16 + i * 8, 8).unwrap();
            assert!(sites.contains(&site), "bogus trace entry {site:#x}");
        }
    }

    #[test]
    fn instrument_per_site_counters() {
        let sb = sample();
        let out = instrument_with_disasm(
            &sb.binary,
            &sb.disasm,
            &Options::new(Application::A1Jumps, Payload::CounterPerSite),
        )
        .unwrap();
        let base = out.counter_addr.unwrap();
        let mut vm = e9vm::Vm::new();
        e9vm::load_elf(&mut vm, &out.rewrite.binary).unwrap();
        let patched = vm.run(200_000_000).unwrap();
        let orig = e9vm::run_binary(&sb.binary, 100_000_000).unwrap();
        assert_eq!(patched.output, orig.output);
        // Per-site counts sum to the total of executed patched jumps, and
        // at least one site was hot.
        let total: u64 = (0..out.sites)
            .map(|k| vm.mem.read_le(base + k as u64 * 8, 8).unwrap())
            .sum();
        assert!(total > 0);
        let max = (0..out.sites)
            .map(|k| vm.mem.read_le(base + k as u64 * 8, 8).unwrap())
            .max()
            .unwrap();
        assert!(max > 1, "expected a hot site, max={max}");
    }

    #[test]
    fn a3_selects_calls() {
        let sb = sample();
        let calls = select_sites(&sb.disasm, Application::A3Calls);
        assert!(!calls.is_empty());
        let orig = e9vm::run_binary(&sb.binary, 100_000_000).unwrap();
        let out = instrument_with_disasm(
            &sb.binary,
            &sb.disasm,
            &Options::new(Application::A3Calls, Payload::Empty),
        )
        .unwrap();
        assert_eq!(out.sites, calls.len());
        let patched = e9vm::run_binary(&out.rewrite.binary, 200_000_000).unwrap();
        assert_eq!(patched.output, orig.output);
    }

    #[test]
    fn instrument_lowfat_no_false_positives() {
        // A correct program with the low-fat heap must report zero
        // violations.
        let sb = sample();
        let orig = e9vm::run_binary(&sb.binary, 50_000_000).unwrap();
        let out = instrument_with_disasm(
            &sb.binary,
            &sb.disasm,
            &Options::new(Application::A2HeapWrites, Payload::LowFat),
        )
        .unwrap();
        let mut vm = e9vm::Vm::new();
        vm.set_heap(Box::new(e9lowfat::LowFatAllocator::new()));
        e9vm::load_elf(&mut vm, &out.rewrite.binary).unwrap();
        let patched = vm.run(200_000_000).unwrap();
        assert_eq!(patched.exit_code, orig.exit_code);
        let v = vm.mem.read_le(out.violations_addr.unwrap(), 8).unwrap();
        assert_eq!(v, 0, "false-positive redzone violations");
    }

    #[cfg(unix)]
    #[test]
    fn backend_path_matches_in_process() {
        // The protocol round trip must not perturb the rewrite: same
        // binary, same options → byte-identical output, stats and runtime
        // addresses.
        let sb = sample();
        let opts = Options::new(Application::A1Jumps, Payload::Counter);
        let direct = instrument_with_disasm(&sb.binary, &sb.disasm, &opts).unwrap();
        let mut client = e9proto::ProtoClient::in_process().unwrap();
        let via = instrument_via_backend(&sb.binary, &sb.disasm, &opts, &mut client).unwrap();
        assert_eq!(via.rewrite.binary, direct.rewrite.binary);
        assert_eq!(via.rewrite.stats, direct.rewrite.stats);
        assert_eq!(via.rewrite.loader_addr, direct.rewrite.loader_addr);
        assert_eq!(via.sites, direct.sites);
        assert_eq!(via.counter_addr, direct.counter_addr);
    }

    #[test]
    fn cached_path_hits_and_matches_cold() {
        let sb = sample();
        let opts = Options::new(Application::A1Jumps, Payload::Counter);
        // The sample is tiny — disable the size bypass so the cache
        // mechanics (miss, then hit) are actually exercised.
        let cache = e9cache::Cache::in_memory_no_bypass();
        let cold = instrument_cached(&sb.binary, &sb.disasm, &opts, &cache).unwrap();
        let cold_outcome = cold.cache.as_ref().expect("cache in play");
        assert_eq!(cold_outcome.disposition, e9proto::CacheDisposition::Miss);
        let warm = instrument_cached(&sb.binary, &sb.disasm, &opts, &cache).unwrap();
        let warm_outcome = warm.cache.as_ref().expect("cache in play");
        assert_eq!(warm_outcome.disposition, e9proto::CacheDisposition::Hit);
        assert_eq!(warm_outcome.digest, cold_outcome.digest);
        // The hit invariant: byte-identical to the cold run...
        assert_eq!(warm.rewrite.binary, cold.rewrite.binary);
        assert_eq!(warm.rewrite.stats, cold.rewrite.stats);
        assert_eq!(warm.rewrite.reports, cold.rewrite.reports);
        assert_eq!(warm.counter_addr, cold.counter_addr);
        // ...and to the plain uncached path.
        let direct = instrument_with_disasm(&sb.binary, &sb.disasm, &opts).unwrap();
        assert_eq!(warm.rewrite.binary, direct.rewrite.binary);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn hook_counter_counts_and_preserves_output() {
        let sb = sample();
        let orig = e9vm::run_binary(&sb.binary, 50_000_000).unwrap();
        let spec = e9hook::HookSpec::counters(&["f*"]);
        let out =
            hook_with_disasm(&sb.binary, &sb.disasm, &spec, RewriteConfig::default()).unwrap();
        assert!(!out.hooks.is_empty());
        let mut vm = e9vm::Vm::new();
        e9vm::load_elf(&mut vm, &out.rewrite.binary).unwrap();
        let hooked = vm.run(200_000_000).unwrap();
        assert_eq!(hooked.output, orig.output);
        assert_eq!(hooked.exit_code, orig.exit_code);
        // At least one hooked function actually ran and was counted.
        let total: u64 = out
            .hooks
            .iter()
            .map(|h| vm.mem.read_le(h.counter_addr, 8).unwrap())
            .sum();
        assert!(total > 0, "no hook fired");
        // The manifest embedded in the output names the same hooks.
        let elf = Elf::parse(&out.rewrite.binary).unwrap();
        let recs = e9hook::manifest::find_in_elf(&elf).unwrap().unwrap();
        assert_eq!(recs, out.hooks);
    }

    #[cfg(unix)]
    #[test]
    fn hook_paths_are_byte_identical() {
        let sb = sample();
        let spec = e9hook::HookSpec::counters(&["f*"]);
        let cfg = RewriteConfig::default();
        let direct = hook_with_disasm(&sb.binary, &sb.disasm, &spec, cfg).unwrap();

        // Cached: cold miss then warm hit, both identical to direct.
        let cache = e9cache::Cache::in_memory_no_bypass();
        let cold = hook_cached(&sb.binary, &sb.disasm, &spec, cfg, &cache).unwrap();
        let warm = hook_cached(&sb.binary, &sb.disasm, &spec, cfg, &cache).unwrap();
        assert_eq!(
            cold.cache.as_ref().unwrap().disposition,
            e9proto::CacheDisposition::Miss
        );
        assert_eq!(
            warm.cache.as_ref().unwrap().disposition,
            e9proto::CacheDisposition::Hit
        );
        assert_eq!(cold.rewrite.binary, direct.rewrite.binary);
        assert_eq!(warm.rewrite.binary, direct.rewrite.binary);

        // Daemon: the server plans the spec itself; same bytes, same
        // records.
        let mut client = e9proto::ProtoClient::in_process().unwrap();
        let via = hook_via_backend(&sb.binary, &sb.disasm, &spec, cfg, &mut client).unwrap();
        assert_eq!(via.rewrite.binary, direct.rewrite.binary);
        assert_eq!(via.hooks, direct.hooks);
        assert_eq!(via.counters_addr, direct.counters_addr);
        assert_eq!(via.manifest_addr, direct.manifest_addr);
    }

    #[test]
    fn full_text_frontend_instruments_real_elf() {
        // End to end through `instrument` (which does its own .text
        // disassembly) rather than the generator's disasm info.
        let sb = sample();
        let orig = e9vm::run_binary(&sb.binary, 50_000_000).unwrap();
        let out = instrument(
            &sb.binary,
            &Options::new(Application::A1Jumps, Payload::Empty),
        )
        .unwrap();
        let patched = e9vm::run_binary(&out.rewrite.binary, 100_000_000).unwrap();
        assert_eq!(patched.output, orig.output);
    }
}
