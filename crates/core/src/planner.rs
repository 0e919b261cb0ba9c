//! The tactic engine: B1/B2/T1 punned jumps, T2 successor eviction, T3
//! neighbour eviction, with strategy S1 (reverse-order patching over a byte
//! lock map).
//!
//! The planner owns the in-place-patched image and mutates three pieces of
//! state as it commits tactics: the ELF byte image, the [`LockMap`], and
//! the trampoline [`AddressSpace`]. Tentative multi-step tactics (T3) are
//! computed against byte overlays and rolled back cleanly on failure.

use crate::error::{Error, Result};
use crate::layout::{self, AddressSpace, Window};
use crate::lock::LockMap;
use crate::pun::PunJump;
use crate::stats::{PatchStats, TacticKind};
use crate::trampoline::{self, BuildError, Template};
use e9elf::{Elf, PAGE_SIZE};
use e9x86::insn::{Insn, Kind};
use std::borrow::Cow;

/// A single patch request: divert the instruction at `addr` through a
/// trampoline built from `template`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchRequest {
    /// Address of the patch-location instruction.
    pub addr: u64,
    /// Trampoline payload.
    pub template: Template,
}

/// Which tactics the planner may use (the ablation knob for experiment E5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tactics {
    /// Padded jumps (§3.1).
    pub t1: bool,
    /// Successor eviction (§3.2).
    pub t2: bool,
    /// Neighbour eviction (§3.3).
    pub t3: bool,
}

impl Tactics {
    /// Everything enabled (the paper's default configuration).
    pub fn all() -> Tactics {
        Tactics {
            t1: true,
            t2: true,
            t3: true,
        }
    }

    /// Baseline B1/B2 only.
    pub fn base_only() -> Tactics {
        Tactics {
            t1: false,
            t2: false,
            t3: false,
        }
    }
}

/// Where within a pun window trampolines are placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocPolicy {
    /// First fit from the window bottom (packs trampolines densely — the
    /// default, and what E9Patch effectively does).
    #[default]
    FirstFitLow,
    /// First fit from the window top (scatters trampolines — an ablation
    /// for the fragmentation/grouping experiments).
    FirstFitHigh,
}

/// Rewriter configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RewriteConfig {
    /// Enabled tactic set.
    pub tactics: Tactics,
    /// Fall back to `int3` trap patching (B0) when every tactic fails.
    pub b0_fallback: bool,
    /// Physical page grouping granularity `M` in pages (§4).
    pub granularity: u64,
    /// Enable physical page grouping (disable for the naïve one-to-one
    /// ablation, experiment E4).
    pub grouping: bool,
    /// Trampoline placement policy within pun windows.
    pub alloc_policy: AllocPolicy,
}

impl Default for RewriteConfig {
    fn default() -> Self {
        RewriteConfig {
            tactics: Tactics::all(),
            b0_fallback: false,
            granularity: 1,
            grouping: true,
            alloc_policy: AllocPolicy::default(),
        }
    }
}

/// Margin used when constraining trampoline placement so rel32 hops back to
/// the original code always encode (slack below the 2 GiB line covers the
/// trampoline body length).
const REACH: i128 = 0x7FFF_0000;

/// Per-site patching outcome (the structured form of a Table 1 row's
/// provenance; surfaced by `e9tool patch --report`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteReport {
    /// Patch-location address.
    pub addr: u64,
    /// Length of the original instruction.
    pub insn_len: u8,
    /// Tactic that succeeded (`None` = site left unpatched).
    pub tactic: Option<crate::stats::TacticKind>,
    /// Address of the patch trampoline, when one was placed.
    pub trampoline: Option<u64>,
}

/// The planner's instruction index: `disasm` sorted by strictly
/// ascending address, so lookups are binary searches over the slice.
///
/// A slice that already ascends strictly — what every in-tree frontend
/// produces — is borrowed as is. Anything else (daemon sessions accept
/// `instruction` lines in any order) is copied once into a sorted slice
/// in which the last of any duplicate address wins.
pub(crate) fn index_insns(disasm: &[Insn]) -> Cow<'_, [Insn]> {
    if disasm.windows(2).all(|w| w[0].addr < w[1].addr) {
        return Cow::Borrowed(disasm);
    }
    let mut sorted = disasm.to_vec();
    // Stable: duplicates keep their input order, so the last one is the
    // last of its run.
    sorted.sort_by_key(|i| i.addr);
    let mut out: Vec<Insn> = Vec::with_capacity(sorted.len());
    for insn in sorted {
        match out.last_mut() {
            Some(prev) if prev.addr == insn.addr => *prev = insn,
            _ => out.push(insn),
        }
    }
    Cow::Owned(out)
}

/// The planner: processes patch requests highest-address-first.
#[derive(Debug)]
pub struct Planner<'a> {
    elf: Elf,
    /// Instruction index (see [`index_insns`]).
    insns: Cow<'a, [Insn]>,
    /// Byte lock state (S1).
    pub locks: LockMap,
    /// Trampoline address-space allocator.
    pub space: AddressSpace,
    /// Placed trampolines: `(vaddr, bytes)`.
    pub trampolines: Vec<(u64, Vec<u8>)>,
    /// Outcome counters.
    pub stats: PatchStats,
    /// B0 trap registrations: `(site, trampoline)`.
    pub traps: Vec<(u64, u64)>,
    /// Per-site outcomes, in processing order.
    pub reports: Vec<SiteReport>,
    /// Block size in bytes (`M * PAGE_SIZE`, checked).
    block_size: u64,
    cfg: RewriteConfig,
}

impl<'a> Planner<'a> {
    /// The address space trampolines may use for `elf`: everything except
    /// the binary's own (guard-padded) load segments and the caller's
    /// extra `reserved` ranges, rounded out to blocks of `bs` bytes.
    fn initial_space(elf: &Elf, bs: u64, reserved: &[(u64, u64)]) -> AddressSpace {
        // Reservations are rounded out to *block* granularity (M pages):
        // the loader later maps whole blocks with MAP_FIXED, so no block
        // containing a trampoline may overlap existing segments.
        let block_floor = |v: u64| v / bs * bs;
        let block_ceil = |v: u64| v.div_ceil(bs) * bs;
        let mut space = AddressSpace::new();
        for p in elf.load_segments() {
            let start = block_floor(e9elf::page_floor(p.p_vaddr).saturating_sub(PAGE_SIZE));
            let end = block_ceil(e9elf::page_ceil(p.p_vaddr + p.p_memsz) + PAGE_SIZE);
            space.reserve(start, end);
        }
        for &(s, e) in reserved {
            space.reserve(block_floor(s), block_ceil(e));
        }
        space
    }

    /// Create a planner over a parsed binary and its disassembly, in any
    /// order: an ascending `disasm` is indexed in place, any other order
    /// is sorted once, the last of a duplicate address winning.
    ///
    /// `reserved` lists extra `[start, end)` virtual ranges trampolines must
    /// avoid (instrumentation runtime segments, etc.).
    ///
    /// # Errors
    ///
    /// [`crate::Error::InvalidGranularity`] when `cfg.granularity` gives a
    /// block size that does not fit the address space (see
    /// [`layout::block_size`]).
    pub fn new(
        elf: Elf,
        disasm: &'a [Insn],
        cfg: RewriteConfig,
        reserved: &[(u64, u64)],
    ) -> Result<Planner<'a>> {
        let block_size = layout::block_size(cfg.granularity)?;
        let space = Self::initial_space(&elf, block_size, reserved);
        Ok(Planner {
            elf,
            insns: index_insns(disasm),
            locks: LockMap::new(),
            space,
            trampolines: Vec::new(),
            stats: PatchStats::default(),
            traps: Vec::new(),
            reports: Vec::new(),
            block_size,
            cfg,
        })
    }

    /// The instruction at `addr`, if the disassembly has one.
    fn insn_at(&self, addr: u64) -> Option<&Insn> {
        let i = self.insns.binary_search_by_key(&addr, |i| i.addr).ok()?;
        Some(&self.insns[i])
    }

    /// Read up to `n` file-backed bytes starting at `addr` (shorter at a
    /// segment boundary).
    fn bytes_at(&self, addr: u64, n: usize) -> Vec<u8> {
        let mut v = Vec::with_capacity(n);
        for i in 0..n as u64 {
            match self.elf.slice_at(addr + i, 1) {
                Ok(b) => v.push(b[0]),
                Err(_) => break,
            }
        }
        v
    }

    fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<()> {
        let written = self.elf.write_at(addr, bytes);
        debug_assert!(
            written.is_ok(),
            "planner writes stay within file-backed segments"
        );
        written.map_err(|_| Error::JumpEmit(addr))
    }

    /// The bytes of `pun` jumping to `target`, which the allocator placed
    /// inside the pun's target window.
    fn encode(pun: &PunJump, target: u64) -> Result<Vec<u8>> {
        let jmp = pun.encode(target);
        debug_assert!(jmp.is_some(), "target {target:#x} inside pun window");
        jmp.ok_or(Error::JumpEmit(pun.jump_addr))
    }

    /// Allocate trampoline space inside `window` per the configured
    /// placement policy.
    fn alloc(&mut self, window: Window, size: u64) -> Option<u64> {
        match self.cfg.alloc_policy {
            AllocPolicy::FirstFitLow => self.space.alloc_in(window, size, 1),
            AllocPolicy::FirstFitHigh => self.space.alloc_in_high(window, size, 1),
        }
    }

    /// Window around every address the trampoline must reach with rel32
    /// displacements; `None` if the targets are mutually unreachable.
    fn reach_window(insn: &Insn) -> Option<Window> {
        let mut targets: Vec<u64> = Vec::new();
        if !matches!(insn.kind, Kind::Ret | Kind::JmpRel8 | Kind::JmpRel32 | Kind::JmpInd) {
            targets.push(insn.end());
        }
        if let Some(t) = insn.branch_target() {
            targets.push(t);
        }
        if let Some(m) = insn.modrm {
            if let Some(mem) = m.mem {
                if mem.rip_relative {
                    targets.push(insn.end().wrapping_add(mem.disp as i64 as u64));
                }
            }
        }
        // Structurally panic-free bounds fold: an empty target set means
        // the trampoline is unconstrained (e.g. `ret`), and a non-empty
        // one yields `[max - REACH, min + REACH)` without any `unwrap`.
        let bounds = targets
            .iter()
            .fold(None, |acc: Option<(u64, u64)>, &t| match acc {
                None => Some((t, t)),
                Some((min, max)) => Some((min.min(t), max.max(t))),
            });
        match bounds {
            None => Some(Window::all()),
            Some((min, max)) => Window::from_i128(max as i128 - REACH, min as i128 + REACH),
        }
    }

    /// Try to place a punned jump at `jump_addr` (owning `writable` bytes,
    /// with `padding` prefix bytes) to a freshly allocated trampoline built
    /// by `build`. On success commits bytes + locks + the trampoline and
    /// returns the pun used.
    fn place_pun(
        &mut self,
        jump_addr: u64,
        writable: u8,
        padding: u8,
        size_ub: usize,
        reach: Window,
        build: &dyn Fn(u64) -> std::result::Result<Vec<u8>, BuildError>,
    ) -> Result<Option<PunJump>> {
        let img = self.bytes_at(jump_addr, padding as usize + 5);
        let Some(pun) = PunJump::new(&img, jump_addr, writable, padding) else {
            return Ok(None);
        };
        let (ws, we) = pun.written_range();
        if !self.locks.can_write(ws, we - ws) {
            return Ok(None);
        }
        let Some(window) = pun.target_window().and_then(|w| w.intersect(reach)) else {
            return Ok(None);
        };
        let Some(tramp) = self.alloc(window, size_ub as u64) else {
            return Ok(None);
        };
        match build(tramp) {
            Ok(bytes) => {
                debug_assert!(bytes.len() <= size_ub);
                // Return the reservation slack.
                self.space
                    .free(tramp + bytes.len() as u64, tramp + size_ub as u64);
                let jmp = Self::encode(&pun, tramp)?;
                self.write(jump_addr, &jmp)?;
                self.locks.lock_modified(ws, we - ws);
                let (ps, pe) = pun.punned_range();
                self.locks.lock_punned(ps, pe - ps);
                self.trampolines.push((tramp, bytes));
                Ok(Some(pun))
            }
            Err(_) => {
                self.space.free(tramp, tramp + size_ub as u64);
                Ok(None)
            }
        }
    }

    /// B1/B2/T1 attempts over all paddings.
    fn try_pun_tactics(
        &mut self,
        insn: &Insn,
        template: &Template,
        reach: Window,
        size_ub: usize,
    ) -> Result<Option<TacticKind>> {
        let writable = insn.len() as u8;
        let max_pad = if self.cfg.tactics.t1 { writable } else { 1 };
        let template = template.clone();
        let insn_copy = *insn;
        for padding in 0..max_pad {
            if let Some(pun) =
                self.place_pun(insn.addr, writable, padding, size_ub, reach, &|t| {
                    trampoline::build(&template, &insn_copy, t)
                })?
            {
                return Ok(Some(if padding > 0 {
                    TacticKind::T1
                } else if pun.free >= 4 {
                    TacticKind::B1
                } else {
                    TacticKind::B2
                }));
            }
        }
        Ok(None)
    }

    /// T2: evict the successor instruction so the patch site's pun bytes
    /// change, then re-run the pun tactics.
    fn try_t2(
        &mut self,
        insn: &Insn,
        template: &Template,
        reach: Window,
        size_ub: usize,
    ) -> Result<Option<TacticKind>> {
        let Some(&succ) = self.insn_at(insn.end()) else {
            return Ok(None);
        };
        let Some(s_reach) = Self::reach_window(&succ) else {
            return Ok(None);
        };
        let s_ub = trampoline::evictee_max_size(&succ);
        let mut evicted = false;
        for padding in 0..succ.len() as u8 {
            if self
                .place_pun(succ.addr, succ.len() as u8, padding, s_ub, s_reach, &|t| {
                    trampoline::build_evictee(&succ, t)
                })?
                .is_some()
            {
                evicted = true;
                break;
            }
        }
        if !evicted {
            return Ok(None);
        }
        // The successor's bytes are now a jump; re-pun the patch site.
        Ok(self
            .try_pun_tactics(insn, template, reach, size_ub)?
            .map(|_| TacticKind::T2))
    }

    /// T3: neighbour eviction with a `J_short → J_patch → trampoline`
    /// double jump (and `J_victim` to an evictee trampoline).
    fn try_t3(
        &mut self,
        insn: &Insn,
        template: &Template,
        reach: Window,
        size_ub: usize,
    ) -> Result<bool> {
        let addr = insn.addr;
        let len = insn.len() as u64;
        // Geometry of the short jump (S1 restricts rel8 to forward
        // offsets; single-byte patch sites get exactly one fixed target —
        // limitation L2).
        let (t_lo, t_hi, short_fixed) = if len >= 2 {
            if !self.locks.can_write(addr, 2) {
                return Ok(false);
            }
            (addr + 2, addr + 2 + 127, false)
        } else {
            if !self.locks.can_write(addr, 1) {
                return Ok(false);
            }
            let b = self.bytes_at(addr + 1, 1);
            let Some(&rel) = b.first() else {
                return Ok(false);
            };
            if rel >= 0x80 {
                return Ok(false); // backward rel8 — disallowed by S1
            }
            let t = addr + 2 + rel as u64;
            (t, t, true)
        };
        let from = self.insns.partition_point(|i| i.addr < addr + len);
        let to = self.insns.partition_point(|i| i.addr <= t_hi);
        for k in from..to {
            let victim = self.insns[k];
            let v_len = victim.len() as u64;
            for j in 1..v_len {
                let t = victim.addr + j;
                if t < t_lo || t > t_hi {
                    continue;
                }
                if self.try_t3_with(insn, template, reach, size_ub, &victim, j, short_fixed)? {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    #[allow(clippy::too_many_arguments)]
    fn try_t3_with(
        &mut self,
        insn: &Insn,
        template: &Template,
        reach: Window,
        size_ub: usize,
        victim: &Insn,
        j: u64,
        short_fixed: bool,
    ) -> Result<bool> {
        let addr = insn.addr;
        let v_addr = victim.addr;
        let v_len = victim.len() as u64;
        let t = v_addr + j;

        // J_patch: punned jump written inside the victim at offset j.
        let img_t = self.bytes_at(t, 5);
        let Some(jp) = PunJump::new(&img_t, t, (v_len - j) as u8, 0) else {
            return Ok(false);
        };
        let (jp_ws, jp_we) = jp.written_range();
        if !self.locks.can_write(jp_ws, jp_we - jp_ws) {
            return Ok(false);
        }
        let Some(jp_window) = jp.target_window().and_then(|w| w.intersect(reach)) else {
            return Ok(false);
        };

        // J_victim: punned jump at the victim's first byte; its free rel32
        // bytes are the victim bytes before J_patch.
        let jv_write_len = 1 + (j - 1).min(4);
        if !self.locks.can_write(v_addr, jv_write_len) {
            return Ok(false);
        }
        let Some(v_reach) = Self::reach_window(victim) else {
            return Ok(false);
        };
        let v_ub = trampoline::evictee_max_size(victim);

        // Allocate + build the patch trampoline.
        let Some(tramp) = self.alloc(jp_window, size_ub as u64) else {
            return Ok(false);
        };
        let tramp_bytes = match trampoline::build(template, insn, tramp) {
            Ok(b) => b,
            Err(_) => {
                self.space.free(tramp, tramp + size_ub as u64);
                return Ok(false);
            }
        };
        let jp_bytes = Self::encode(&jp, tramp)?;

        // Overlay J_patch to compute J_victim's pun window.
        let mut img_v = self.bytes_at(v_addr, (j + 5) as usize);
        let roll_patch = |s: &mut Self| s.space.free(tramp, tramp + size_ub as u64);
        if img_v.len() < 5 {
            roll_patch(self);
            return Ok(false);
        }
        for (i, b) in jp_bytes.iter().enumerate() {
            let off = j as usize + i;
            if off < img_v.len() {
                img_v[off] = *b;
            }
        }
        let Some(jv) = PunJump::new(&img_v, v_addr, j.min(255) as u8, 0) else {
            roll_patch(self);
            return Ok(false);
        };
        let Some(jv_window) = jv.target_window().and_then(|w| w.intersect(v_reach)) else {
            roll_patch(self);
            return Ok(false);
        };
        let Some(evictee) = self.alloc(jv_window, v_ub as u64) else {
            roll_patch(self);
            return Ok(false);
        };
        let ev_bytes = match trampoline::build_evictee(victim, evictee) {
            Ok(b) => b,
            Err(_) => {
                self.space.free(evictee, evictee + v_ub as u64);
                roll_patch(self);
                return Ok(false);
            }
        };
        let jv_bytes = Self::encode(&jv, evictee)?;

        // --- Commit ---------------------------------------------------
        self.space
            .free(tramp + tramp_bytes.len() as u64, tramp + size_ub as u64);
        self.space
            .free(evictee + ev_bytes.len() as u64, evictee + v_ub as u64);

        self.write(t, &jp_bytes)?;
        let (jp_ws, jp_we) = jp.written_range();
        self.locks.lock_modified(jp_ws, jp_we - jp_ws);
        let (jp_ps, jp_pe) = jp.punned_range();
        self.locks.lock_punned(jp_ps, jp_pe - jp_ps);

        self.write(v_addr, &jv_bytes)?;
        let (jv_ws, jv_we) = jv.written_range();
        self.locks.lock_modified(jv_ws, jv_we - jv_ws);
        let (jv_ps, jv_pe) = jv.punned_range();
        self.locks.lock_punned(jv_ps, jv_pe - jv_ps);

        let rel8 = (t - (addr + 2)) as u8;
        if short_fixed {
            self.write(addr, &[e9x86::JMP_REL8_OPCODE])?;
            self.locks.lock_modified(addr, 1);
            self.locks.lock_punned(addr + 1, 1);
        } else {
            self.write(addr, &[e9x86::JMP_REL8_OPCODE, rel8])?;
            self.locks.lock_modified(addr, 2);
        }

        self.trampolines.push((tramp, tramp_bytes));
        self.trampolines.push((evictee, ev_bytes));
        Ok(true)
    }

    /// B0 fallback: `int3` at the site, dispatched by the runtime's trap
    /// handler to the trampoline.
    fn try_b0(
        &mut self,
        insn: &Insn,
        template: &Template,
        reach: Window,
        size_ub: usize,
    ) -> Result<bool> {
        if !self.locks.can_write(insn.addr, 1) {
            return Ok(false);
        }
        let Some(tramp) = self.alloc(reach, size_ub as u64) else {
            return Ok(false);
        };
        let bytes = match trampoline::build(template, insn, tramp) {
            Ok(b) => b,
            Err(_) => {
                self.space.free(tramp, tramp + size_ub as u64);
                return Ok(false);
            }
        };
        self.space
            .free(tramp + bytes.len() as u64, tramp + size_ub as u64);
        self.write(insn.addr, &[e9x86::INT3_OPCODE])?;
        self.locks.lock_modified(insn.addr, 1);
        self.traps.push((insn.addr, tramp));
        self.trampolines.push((tramp, bytes));
        Ok(true)
    }

    /// The first tactic of B1/B2 → T1 → T2 → T3 → (optional) B0 that
    /// patches `insn`, or `None`.
    fn try_tactics(
        &mut self,
        insn: &Insn,
        template: &Template,
        reach: Window,
    ) -> Result<Option<TacticKind>> {
        let size_ub = trampoline::max_size(template, insn);
        if let Some(k) = self.try_pun_tactics(insn, template, reach, size_ub)? {
            return Ok(Some(k));
        }
        if self.cfg.tactics.t2 {
            if let Some(k) = self.try_t2(insn, template, reach, size_ub)? {
                return Ok(Some(k));
            }
        }
        if self.cfg.tactics.t3 && self.try_t3(insn, template, reach, size_ub)? {
            return Ok(Some(TacticKind::T3));
        }
        if self.cfg.b0_fallback && self.try_b0(insn, template, reach, size_ub)? {
            return Ok(Some(TacticKind::B0));
        }
        Ok(None)
    }

    /// Patch one site, trying B1/B2 → T1 → T2 → T3 → (optional) B0 in
    /// order. Returns the tactic used, or `None` on failure (the site is
    /// left untouched and counted in the statistics).
    ///
    /// # Errors
    ///
    /// [`Error::NoSuchInstruction`] if `addr` is not in the disassembly
    /// info; [`Error::UnreachableTargets`] if the instruction's rel32
    /// targets are so far apart that no trampoline address can reach them
    /// all (degenerate disassembly only — real instructions span well
    /// under the ±2 GiB reach); [`Error::JumpEmit`] if a placed jump could
    /// not be encoded or written (a broken planner invariant).
    pub fn patch_site(&mut self, addr: u64, template: &Template) -> Result<Option<TacticKind>> {
        let insn = *self.insn_at(addr).ok_or(Error::NoSuchInstruction(addr))?;
        let Some(reach) = Self::reach_window(&insn) else {
            return Err(Error::UnreachableTargets(addr));
        };

        let outcome = self.try_tactics(&insn, template, reach)?;

        match outcome {
            Some(k) => self.stats.record(k),
            None => self.stats.record_failure(),
        }
        // The patch trampoline is the most recently placed one (T3 pushes
        // patch then evictee; T2 pushes evictee(s) then patch — in both
        // cases the relevant trampoline for the report is the one the site
        // jumps to, which for T3 is second-to-last).
        let trampoline = match outcome {
            None => None,
            Some(TacticKind::T3) => self
                .trampolines
                .len()
                .checked_sub(2)
                .map(|i| self.trampolines[i].0),
            Some(_) => self.trampolines.last().map(|t| t.0),
        };
        self.reports.push(SiteReport {
            addr,
            insn_len: insn.len() as u8,
            tactic: outcome,
            trampoline,
        });
        Ok(outcome)
    }

    /// Process a batch of requests in reverse address order (strategy S1).
    ///
    /// # Errors
    ///
    /// Fails on duplicate or unknown addresses; individual patch *failures*
    /// are recorded in [`Planner::stats`], not returned as errors.
    pub fn patch_all(&mut self, requests: &[PatchRequest]) -> Result<()> {
        let mut sorted: Vec<&PatchRequest> = requests.iter().collect();
        sorted.sort_by_key(|r| std::cmp::Reverse(r.addr));
        for w in sorted.windows(2) {
            if w[0].addr == w[1].addr {
                return Err(Error::DuplicatePatch(w[0].addr));
            }
        }
        for req in sorted {
            self.patch_site(req.addr, &req.template)?;
        }
        Ok(())
    }

    /// Decompose into the patched image and accumulated outputs.
    pub fn into_parts(self) -> PlannerParts {
        PlannerParts {
            elf: self.elf,
            trampolines: self.trampolines,
            stats: self.stats,
            traps: self.traps,
            space: self.space,
            reports: self.reports,
            block_size: self.block_size,
        }
    }
}

/// The planner's outputs (see [`Planner::into_parts`]).
#[derive(Debug)]
pub struct PlannerParts {
    /// In-place patched image.
    pub elf: Elf,
    /// Placed trampolines.
    pub trampolines: Vec<(u64, Vec<u8>)>,
    /// Outcome statistics.
    pub stats: PatchStats,
    /// B0 trap registrations.
    pub traps: Vec<(u64, u64)>,
    /// Remaining address-space state (for loader placement).
    pub space: AddressSpace,
    /// Per-site outcomes.
    pub reports: Vec<SiteReport>,
    /// Block size in bytes, as checked by [`Planner::new`].
    pub block_size: u64,
}
