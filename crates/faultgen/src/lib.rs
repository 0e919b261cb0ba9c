//! # e9faultgen — deterministic fault injection for the untrusted surfaces
//!
//! The rewriter has exactly two places where bytes it does not control
//! enter the system:
//!
//! 1. **ELF images** — `e9elf::image::Elf::parse` and the VM loader
//!    (`e9vm::load::load_elf`), reached from `e9tool` file arguments and
//!    from the wire protocol's `binary` command;
//! 2. **wire-protocol streams** — request lines entering
//!    `e9proto::server::dispatch_line` (JSON parse → envelope decode →
//!    session state machine).
//!
//! This crate throws seeded, structured garbage at both and asserts the
//! contract the rest of the workspace relies on: *typed errors, never
//! panics*, and a session that keeps answering after arbitrary bad input.
//!
//! Everything is replayable. A campaign is a pure function of
//! `(seed, case index)`: per-case generators are derived with SplitMix64
//! so case `i` can be regenerated without running cases `0..i`. On
//! failure the report prints an `E9FAULT_SEED=… --case N` line; running
//! `e9fault` with those values reproduces the exact mutant. The seed
//! comes from the `E9FAULT_SEED` environment variable (default 42) so CI
//! logs are sufficient to reproduce a red run.
//!
//! The mutation grammar is deliberately structured rather than uniform
//! random: truncation, byte flips, length/count inflation, overlap
//! injection and mid-stream disconnects correspond one-to-one to the
//! historical panic classes in naive parsers (slice OOB, `usize` wrap,
//! allocation bombs, inconsistent tables, partial reads).

pub mod cache;
pub mod corpus;
pub mod elf;
#[cfg(target_os = "linux")]
pub mod io;
#[cfg(target_os = "linux")]
pub mod loopgen;
pub mod wire;

use e9rng::{SplitMix64, StdRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Environment variable naming the campaign seed (default 42).
pub const ENV_SEED: &str = "E9FAULT_SEED";

/// Read the campaign seed from [`ENV_SEED`], defaulting to 42.
pub fn seed_from_env() -> u64 {
    std::env::var(ENV_SEED)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Which untrusted surface a campaign targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Surface {
    /// ELF images into `Elf::parse` + `load_elf`.
    Elf,
    /// Wire-protocol byte streams into `dispatch_line`.
    Wire,
    /// On-disk rewrite-cache entries and index into `e9cache`.
    Cache,
    /// Hostile client behaviors (timing + socket discipline) against the
    /// reactor serving loop.
    Loop,
    /// Environmental I/O faults (ENOSPC, EIO, EINTR, short writes,
    /// failed renames) injected through the `e9failpt` registry while
    /// full rewrite jobs run against live daemons.
    Io,
}

impl Surface {
    fn tag(self) -> u64 {
        match self {
            Surface::Elf => 0x454C_465F_5355_5246, // "ELF_SURF"
            Surface::Wire => 0x5749_5245_5355_5246, // "WIRESURF"
            Surface::Cache => 0x4341_4348_4553_5246, // "CACHESRF"
            Surface::Loop => 0x4C4F_4F50_5355_5246, // "LOOPSURF"
            Surface::Io => 0x0049_4F5F_5355_5246, // "IO_SURF"
        }
    }

    /// Command-line name (`elf` / `wire` / `cache` / `loop` / `io`).
    pub fn name(self) -> &'static str {
        match self {
            Surface::Elf => "elf",
            Surface::Wire => "wire",
            Surface::Cache => "cache",
            Surface::Loop => "loop",
            Surface::Io => "io",
        }
    }
}

/// Derive the RNG for one case. Pure in `(seed, surface, index)`: replay
/// of case `i` never needs cases `0..i`.
pub fn case_rng(seed: u64, surface: Surface, index: u32) -> StdRng {
    let mut sm = SplitMix64::new(seed ^ surface.tag());
    let a = sm.next_u64();
    let b = sm.next_u64();
    StdRng::seed_from_u64(a ^ u64::from(index).wrapping_mul(b | 1))
}

/// How one fault case ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The mutant was still acceptable input (parsed / all requests ok).
    Accepted,
    /// The mutant was refused with a typed error — the desired outcome.
    Rejected,
    /// The target panicked. Always a bug.
    Panicked,
}

/// Result of one campaign over one surface.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Surface the campaign ran against.
    pub surface: Surface,
    /// Seed the campaign ran with.
    pub seed: u64,
    /// Number of cases executed.
    pub cases: u32,
    /// Mutants that were still valid input.
    pub accepted: u32,
    /// Mutants refused with typed errors.
    pub rejected: u32,
    /// Case indices whose execution panicked (should be empty).
    pub panicked: Vec<u32>,
}

impl CampaignReport {
    /// True when no case panicked.
    pub fn is_clean(&self) -> bool {
        self.panicked.is_empty()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "fault[{}]: seed={} cases={} accepted={} rejected={} panics={}",
            self.surface.name(),
            self.seed,
            self.cases,
            self.accepted,
            self.rejected,
            self.panicked.len()
        )
    }

    /// Replay instructions for every panicking case (empty string when
    /// clean).
    pub fn replay_lines(&self) -> String {
        let mut out = String::new();
        for &i in &self.panicked {
            out.push_str(&format!(
                "{}={} e9fault --surface {} --case {}   # replays the panic\n",
                ENV_SEED,
                self.seed,
                self.surface.name(),
                i
            ));
        }
        out
    }
}

fn run_campaign<F>(surface: Surface, seed: u64, cases: u32, mut one: F) -> CampaignReport
where
    F: FnMut(&mut StdRng) -> Outcome,
{
    let mut report = CampaignReport {
        surface,
        seed,
        cases,
        accepted: 0,
        rejected: 0,
        panicked: Vec::new(),
    };
    for i in 0..cases {
        let mut rng = case_rng(seed, surface, i);
        match one(&mut rng) {
            Outcome::Accepted => report.accepted += 1,
            Outcome::Rejected => report.rejected += 1,
            Outcome::Panicked => report.panicked.push(i),
        }
    }
    report
}

/// Run `cases` seeded mutants against the ELF surface: each case mutates
/// the symbol-bearing baseline image and feeds it to `Elf::parse`, then
/// (if it still parses) through the hook-planning path and the VM loader.
/// Any unwind is recorded as a panic.
pub fn run_elf_campaign(seed: u64, cases: u32) -> CampaignReport {
    let base = elf::baseline_elf_with_symbols();
    run_campaign(Surface::Elf, seed, cases, |rng| {
        let mutant = elf::mutate(rng, &base);
        elf_case(&mutant)
    })
}

/// Execute one ELF case (also used by corpus replay): parse, probe the
/// hook planner, and load into a fresh VM when parsing succeeds.
pub fn elf_case(bytes: &[u8]) -> Outcome {
    let result = catch_unwind(AssertUnwindSafe(|| {
        match e9elf::image::Elf::parse(bytes) {
            Err(_) => Outcome::Rejected,
            Ok(elf) => {
                hook_probe(bytes, &elf);
                let mut vm = e9vm::Vm::new();
                match e9vm::load_elf(&mut vm, bytes) {
                    Ok(()) => Outcome::Accepted,
                    Err(_) => Outcome::Rejected,
                }
            }
        }
    }));
    result.unwrap_or(Outcome::Panicked)
}

/// Drive the hook-planning path over an untrusted image. The planner
/// resolves names out of the (possibly damaged) symbol tables and the
/// manifest scanner reads load segments from the same hostile bytes; both
/// must fail with typed errors, never unwind. Results are discarded — the
/// surrounding `catch_unwind` in [`elf_case`] is the assertion.
fn hook_probe(bytes: &[u8], elf: &e9elf::image::Elf) {
    // Bounded sweep: enough decoded instructions for the planner to
    // inspect prologues without letting an inflated segment size turn one
    // case into a multi-megabyte disassembly.
    const SWEEP_CAP: usize = 4096;
    let mut disasm = Vec::new();
    for ph in elf.load_segments() {
        if ph.p_flags & e9elf::types::PF_X == 0 {
            continue;
        }
        let len = usize::try_from(ph.p_filesz).unwrap_or(usize::MAX).min(SWEEP_CAP);
        if let Ok(code) = elf.slice_at(ph.p_vaddr, len) {
            disasm = e9x86::decode::linear_sweep(code, ph.p_vaddr);
            break;
        }
    }
    // Plain and call-original plans: the latter additionally pulls entry
    // instructions through the relocation engine.
    let _ = e9hook::plan_hooks(bytes, &disasm, &e9hook::HookSpec::counters(&["*"]));
    let co = e9hook::HookSpec {
        call_original: true,
        ..e9hook::HookSpec::counters(&["*"])
    };
    let _ = e9hook::plan_hooks(bytes, &disasm, &co);
    let _ = e9hook::manifest::find_in_elf(elf);
}

/// Run `cases` seeded mutants against the wire surface: each case mutates
/// a valid session transcript, feeds every line through a fresh session's
/// `dispatch_line`, then probes that the session still answers a
/// well-formed request. Any unwind — and any post-mutation
/// unserviceability — is recorded as a panic-class failure.
pub fn run_wire_campaign(seed: u64, cases: u32) -> CampaignReport {
    let script = wire::baseline_script();
    run_campaign(Surface::Wire, seed, cases, |rng| {
        let mutant = wire::mutate(rng, &script);
        wire::wire_case(&mutant)
    })
}

/// Run `cases` seeded mutants against the rewrite-cache surface: each
/// case primes a fresh on-disk store, damages object files and/or the
/// index journal, then asserts typed-error + quarantine on read-back and
/// that the cold path re-populates every damaged key byte-identically
/// (see [`cache::cache_case`]). Campaign scratch space lives under the
/// system temp dir and is removed per case.
pub fn run_cache_campaign(seed: u64, cases: u32) -> CampaignReport {
    let base = std::env::temp_dir().join(format!(
        "e9fault-cache-{}-{seed:x}",
        std::process::id()
    ));
    let mut case_no = 0u32;
    let report = run_campaign(Surface::Cache, seed, cases, |rng| {
        let root = base.join(format!("case{case_no}"));
        case_no += 1;
        cache::cache_case(rng, &root)
    });
    let _ = std::fs::remove_dir_all(&base);
    report
}

/// Run `cases` seeded hostile-client campaigns against the reactor
/// serving loop: each case boots a real reactor on a scratch Unix
/// socket, runs slow-loris / partial-line / mid-poll-disconnect /
/// never-reading / oversized / garbage behaviors against it, and asserts
/// the loop neither panics nor stops serving a healthy connection (see
/// [`loopgen::loop_case`]).
#[cfg(target_os = "linux")]
pub fn run_loop_campaign(seed: u64, cases: u32) -> CampaignReport {
    let base = std::env::temp_dir().join(format!(
        "e9fault-loop-{}-{seed:x}",
        std::process::id()
    ));
    let _ = std::fs::create_dir_all(&base);
    let mut case_no = 0u32;
    let report = run_campaign(Surface::Loop, seed, cases, |rng| {
        let sock = base.join(format!("case{case_no}.sock"));
        case_no += 1;
        loopgen::loop_case(rng, &sock)
    });
    let _ = std::fs::remove_dir_all(&base);
    report
}

/// Run `cases` seeded environmental-I/O campaigns: each case activates
/// a seeded failpoint schedule (ENOSPC / EIO / EINTR / short writes /
/// failed renames at real syscall sites) and drives full rewrite jobs
/// against live daemons, asserting typed errors or byte-identical
/// degraded results — never a panic, torn file or wedged daemon (see
/// [`io::io_case`]). Failpoints are process-global, so cases run
/// strictly one at a time behind the `e9failpt` scope gate.
#[cfg(target_os = "linux")]
pub fn run_io_campaign(seed: u64, cases: u32) -> CampaignReport {
    let base = std::env::temp_dir().join(format!(
        "e9fault-io-{}-{seed:x}",
        std::process::id()
    ));
    let _ = std::fs::create_dir_all(&base);
    let mut case_no = 0u32;
    let report = run_campaign(Surface::Io, seed, cases, |rng| {
        let root = base.join(format!("case{case_no}"));
        case_no += 1;
        io::io_case(rng, &root)
    });
    let _ = std::fs::remove_dir_all(&base);
    report
}
