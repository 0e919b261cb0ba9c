//! Top-level rewriting API: parse → plan (S1 over tactics) → group →
//! emit (in-place patches + appended blocks + loader).

use crate::error::Error;
use crate::group::{self, Grouping};
use crate::layout::Window;
use crate::loader::{self, Mapping};
use crate::planner::{PatchRequest, Planner, RewriteConfig};
use crate::stats::{PatchStats, SizeStats};
use e9elf::types::{PF_R, PF_W, PF_X};
use e9elf::{Elf, Patcher, PAGE_SIZE};
use e9x86::insn::Insn;

/// Trap-table manifest embedded in the output binary for the B0 fallback.
pub mod manifest {
    /// Magic prefix of the trap manifest blob.
    pub const MAGIC: &[u8; 8] = b"E9TRAP\0\0";

    /// Serialize `(site, trampoline)` pairs.
    pub fn encode(traps: &[(u64, u64)]) -> Vec<u8> {
        let mut v = Vec::with_capacity(16 + traps.len() * 16);
        v.extend_from_slice(MAGIC);
        v.extend_from_slice(&(traps.len() as u64).to_le_bytes());
        for &(site, tramp) in traps {
            v.extend_from_slice(&site.to_le_bytes());
            v.extend_from_slice(&tramp.to_le_bytes());
        }
        v
    }

    /// Parse a trap manifest; `None` if `bytes` is not one (wrong magic,
    /// truncated body, or a count field that does not fit the input —
    /// including counts large enough to overflow the length arithmetic).
    pub fn decode(bytes: &[u8]) -> Option<Vec<(u64, u64)>> {
        if bytes.len() < 16 || &bytes[..8] != MAGIC {
            return None;
        }
        let n = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
        // Checked arithmetic: a hostile count must not wrap into a bogus
        // "fits" verdict (or panic the debug build).
        let need = n.checked_mul(16).and_then(|b| b.checked_add(16))?;
        if (bytes.len() as u64) < need {
            return None;
        }
        let n = n as usize;
        Some(
            (0..n)
                .map(|i| {
                    let o = 16 + i * 16;
                    (
                        u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap()),
                        u64::from_le_bytes(bytes[o + 8..o + 16].try_into().unwrap()),
                    )
                })
                .collect(),
        )
    }
}

/// An extra segment the caller wants in the output (e.g. the
/// instrumentation runtime: check functions, counters, tables).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtraSegment {
    /// Virtual load address (must not collide with the input image).
    pub vaddr: u64,
    /// Contents.
    pub bytes: Vec<u8>,
    /// Executable?
    pub exec: bool,
    /// Writable?
    pub write: bool,
}

impl ExtraSegment {
    fn flags(&self) -> u32 {
        let mut f = PF_R;
        if self.exec {
            f |= PF_X;
        }
        if self.write {
            f |= PF_W;
        }
        f
    }
}

/// Result of a rewriting run.
#[derive(Debug)]
pub struct RewriteOutput {
    /// The patched output binary.
    pub binary: Vec<u8>,
    /// Tactic outcome counters (Table 1's coverage columns).
    pub stats: PatchStats,
    /// File-size / mapping statistics (Table 1's Size% and §4).
    pub size: SizeStats,
    /// Virtual address of the injected loader (the new entry point).
    pub loader_addr: u64,
    /// Number of B0 trap registrations.
    pub trap_count: usize,
    /// Per-site outcome reports, in processing (reverse-address) order.
    pub reports: Vec<crate::planner::SiteReport>,
    /// The loader's mapping table (virtual base ← file extent), exposed
    /// for verification and inspection.
    pub mappings: Vec<Mapping>,
}

/// The E9Patch static binary rewriter.
///
/// ```
/// use e9patch::{Rewriter, RewriteConfig};
/// let rewriter = Rewriter::new(RewriteConfig::default());
/// // rewriter.rewrite(&input, &disasm, &requests, &[])?
/// ```
#[derive(Debug, Clone, Default)]
pub struct Rewriter {
    cfg: RewriteConfig,
}

impl Rewriter {
    /// Rewriter with the given configuration.
    pub fn new(cfg: RewriteConfig) -> Rewriter {
        Rewriter { cfg }
    }

    /// The active configuration.
    pub fn config(&self) -> &RewriteConfig {
        &self.cfg
    }

    /// Rewrite `input`, diverting each requested instruction through a
    /// trampoline.
    ///
    /// `disasm` is the *disassembly information* the paper treats as a tool
    /// input (instruction addresses and sizes; here full decoded
    /// instructions from [`e9x86::decode::linear_sweep`] or any other
    /// frontend), in any order (see [`Planner::new`]).
    ///
    /// # Errors
    ///
    /// Fails on malformed ELF input, a granularity whose block size does
    /// not fit the address space, duplicate requests, requests naming
    /// unknown instructions, no room left for the loader, or a jump the
    /// planner could not emit ([`Error::JumpEmit`]). Per-site
    /// patch *failures* are reported via [`RewriteOutput::stats`], not as
    /// errors — mirroring the paper's Succ% methodology.
    pub fn rewrite(
        &self,
        input: &[u8],
        disasm: &[Insn],
        requests: &[PatchRequest],
        extra: &[ExtraSegment],
    ) -> crate::error::Result<RewriteOutput> {
        let elf = Elf::parse(input)?;
        let input_bytes = elf.file_size() as u64;
        let orig_entry = elf.entry();

        let reserved: Vec<(u64, u64)> = extra
            .iter()
            .map(|s| (s.vaddr, s.vaddr + s.bytes.len() as u64))
            .collect();

        let mut planner = Planner::new(elf, disasm, self.cfg, &reserved)?;
        planner.patch_all(requests)?;
        let parts = planner.into_parts();

        // Physical page grouping over the placed trampolines.
        let grouping: Grouping =
            group::group(&parts.trampolines, parts.block_size, self.cfg.grouping);

        let mut patcher = Patcher::new(parts.elf);

        // Emit merged physical blocks and build the loader mapping table.
        let mut mappings = Vec::new();
        for blk in &grouping.groups {
            let off = patcher.append_blob(&blk.bytes, PAGE_SIZE);
            for &vbase in &blk.mapped_at {
                mappings.push(Mapping {
                    vaddr: vbase,
                    file_off: off,
                    len: grouping.block_size,
                });
            }
        }

        // Extra segments (instrumentation runtime).
        for seg in extra {
            patcher.add_segment(seg.vaddr, &seg.bytes, seg.flags());
        }

        // Loader segment, placed wherever address space remains. The
        // loader must avoid every *block* range the mappings will
        // `MAP_FIXED` over (a block covers whole pages, beyond the byte
        // ranges the trampoline allocator reserved).
        let loader_ub = loader::loader_size(mappings.len());
        let mut space = parts.space;
        for m in &mappings {
            space.reserve(m.vaddr, m.vaddr + m.len);
        }
        let loader_addr = space
            .alloc_in(Window::all(), loader_ub as u64, PAGE_SIZE)
            .ok_or(Error::NoLoaderSpace)?;
        let loader_code = loader::emit_loader(loader_addr, orig_entry, &mappings);
        debug_assert!(loader_code.len() <= loader_ub);
        patcher.add_segment(loader_addr, &loader_code, PF_R | PF_X);
        patcher.set_entry(loader_addr);

        // Trap manifest for the B0 fallback.
        let trap_count = parts.traps.len();
        if trap_count > 0 {
            let blob = manifest::encode(&parts.traps);
            let off = patcher.append_blob(&blob, 8);
            patcher.add_note(off, blob.len() as u64);
        }

        let binary = patcher.finish();
        let size = SizeStats {
            input_bytes,
            output_bytes: binary.len() as u64,
            virtual_blocks: grouping.virtual_blocks,
            physical_blocks: grouping.groups.len() as u64,
            mappings: grouping.mapping_count(),
            granularity: self.cfg.granularity,
        };

        Ok(RewriteOutput {
            binary,
            stats: parts.stats,
            size,
            loader_addr,
            trap_count,
            reports: parts.reports,
            mappings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Tactics;
    use crate::trampoline::Template;
    use e9elf::build::ElfBuilder;
    use e9x86::decode::linear_sweep;

    /// Build a little non-PIE binary around the paper's Figure 1 sequence.
    fn fig1_binary() -> (Vec<u8>, Vec<Insn>) {
        let code = vec![
            0x48, 0x89, 0x03, // mov %rax,(%rbx)
            0x48, 0x83, 0xC0, 0x20, // add $32,%rax
            0x48, 0x31, 0xC1, // xor %rax,%rcx
            0x83, 0x7B, 0xFC, 0x4D, // cmpl $77,-4(%rbx)
            0xC3, // ret
            // Trailing alignment padding, as real .text sections have —
            // without it, end-of-section sites have no successor bytes to
            // pun against.
            0x0F, 0x1F, 0x44, 0x00, 0x00, // 5-byte nop
            0x0F, 0x1F, 0x44, 0x00, 0x00, // 5-byte nop
        ];
        let mut b = ElfBuilder::exec(0x400000);
        b.text(code.clone(), 0x401000);
        b.entry(0x401000);
        let bytes = b.build();
        let disasm = linear_sweep(&code, 0x401000);
        (bytes, disasm)
    }

    #[test]
    fn patch_single_site() {
        let (bin, disasm) = fig1_binary();
        let rw = Rewriter::new(RewriteConfig::default());
        let out = rw
            .rewrite(
                &bin,
                &disasm,
                &[PatchRequest {
                    addr: 0x401000,
                    template: Template::Empty,
                }],
                &[],
            )
            .unwrap();
        assert_eq!(out.stats.total(), 1);
        assert_eq!(out.stats.succeeded(), 1);
        // The patch site now decodes as a (possibly padded) jump or a
        // short jump (T3).
        let elf = Elf::parse(&out.binary).unwrap();
        let b = elf.slice_at(0x401000, 7).unwrap();
        let insn = e9x86::decode(b, 0x401000).unwrap();
        assert!(
            matches!(insn.kind, e9x86::Kind::JmpRel32 | e9x86::Kind::JmpRel8),
            "patched site decodes as {:?}",
            insn.kind
        );
        // Entry point was redirected to the loader.
        assert_eq!(elf.entry(), out.loader_addr);
    }

    #[test]
    fn patch_all_sites_reverse_order() {
        let (bin, disasm) = fig1_binary();
        let rw = Rewriter::new(RewriteConfig::default());
        let requests: Vec<PatchRequest> = disasm
            .iter()
            .take(4)
            .map(|i| PatchRequest {
                addr: i.addr,
                template: Template::Empty,
            })
            .collect();
        let out = rw.rewrite(&bin, &disasm, &requests, &[]).unwrap();
        assert_eq!(out.stats.total(), 4);
        // With all tactics available every site in this tiny binary should
        // be patchable.
        assert_eq!(out.stats.succeeded(), 4, "stats: {:?}", out.stats);
    }

    #[test]
    fn base_only_fails_where_punning_is_invalid() {
        // Non-PIE at 0x400000: the mov's B2 window underflows (negative
        // rel32), and with T1/T2/T3 disabled the patch must fail.
        let (bin, disasm) = fig1_binary();
        let cfg = RewriteConfig {
            tactics: Tactics::base_only(),
            ..RewriteConfig::default()
        };
        let out = Rewriter::new(cfg)
            .rewrite(
                &bin,
                &disasm,
                &[PatchRequest {
                    addr: 0x401000,
                    template: Template::Empty,
                }],
                &[],
            )
            .unwrap();
        assert_eq!(out.stats.failed, 1);
        // And the site is untouched.
        let elf = Elf::parse(&out.binary).unwrap();
        assert_eq!(elf.slice_at(0x401000, 3).unwrap(), &[0x48, 0x89, 0x03]);
    }

    #[test]
    fn pie_binary_base_coverage_is_higher() {
        // The same code at a PIE-style high base: B2's negative window is
        // now valid, so even base-only patching succeeds (§6.1).
        let code = vec![
            0x48, 0x89, 0x03, 0x48, 0x83, 0xC0, 0x20, 0x48, 0x31, 0xC1, 0x83, 0x7B, 0xFC, 0x4D,
            0xC3,
        ];
        let base = 0x5555_5555_4000;
        let mut b = ElfBuilder::pie(base);
        b.text(code.clone(), base + 0x1000);
        b.entry(base + 0x1000);
        let bin = b.build();
        let disasm = linear_sweep(&code, base + 0x1000);
        let cfg = RewriteConfig {
            tactics: Tactics::base_only(),
            ..RewriteConfig::default()
        };
        let out = Rewriter::new(cfg)
            .rewrite(
                &bin,
                &disasm,
                &[PatchRequest {
                    addr: base + 0x1000,
                    template: Template::Empty,
                }],
                &[],
            )
            .unwrap();
        assert_eq!(out.stats.succeeded(), 1);
        assert_eq!(out.stats.b2, 1);
    }

    #[test]
    fn duplicate_requests_rejected() {
        let (bin, disasm) = fig1_binary();
        let req = PatchRequest {
            addr: 0x401000,
            template: Template::Empty,
        };
        let err = Rewriter::default()
            .rewrite(&bin, &disasm, &[req.clone(), req], &[])
            .unwrap_err();
        assert!(matches!(err, crate::error::Error::DuplicatePatch(_)));
    }

    #[test]
    fn unknown_address_rejected() {
        let (bin, disasm) = fig1_binary();
        let err = Rewriter::default()
            .rewrite(
                &bin,
                &disasm,
                &[PatchRequest {
                    addr: 0x401001, // mid-instruction
                    template: Template::Empty,
                }],
                &[],
            )
            .unwrap_err();
        assert!(matches!(err, crate::error::Error::NoSuchInstruction(_)));
    }

    #[test]
    fn first_error_is_the_highest_unknown_address() {
        // S1 processes requests highest address first and stops at the
        // first error, so of two unknown addresses the higher one is named,
        // whatever order the requests arrive in.
        let (bin, disasm) = fig1_binary();
        let (low, high) = (0x402000, 0x403000);
        let site = |addr| PatchRequest {
            addr,
            template: Template::Empty,
        };
        for requests in [
            [site(0x401000), site(low), site(high)],
            [site(high), site(low), site(0x401000)],
        ] {
            let err = Rewriter::default()
                .rewrite(&bin, &disasm, &requests, &[])
                .unwrap_err();
            assert_eq!(err, Error::NoSuchInstruction(high));
        }
    }

    #[test]
    fn shuffled_disasm_rewrites_like_sorted_last_wins() {
        // The index sorts any order once; of two entries for one address
        // the later wins. A bogus `ret` decoded at the first site, listed
        // before the real instruction, must lose to it.
        let (bin, disasm) = fig1_binary();
        let requests: Vec<PatchRequest> = disasm
            .iter()
            .take(4)
            .map(|i| PatchRequest {
                addr: i.addr,
                template: Template::Empty,
            })
            .collect();
        let bogus = linear_sweep(&[0xC3], disasm[0].addr);
        let mut shuffled: Vec<Insn> = disasm.iter().rev().copied().collect();
        shuffled.insert(2, bogus[0]);
        shuffled.push(disasm[0]);
        let rw = Rewriter::default();
        let want = rw.rewrite(&bin, &disasm, &requests, &[]).unwrap();
        let got = rw.rewrite(&bin, &shuffled, &requests, &[]).unwrap();
        assert_eq!(got.binary, want.binary);
        assert_eq!(got.stats, want.stats);
        // The index itself: ascending, one entry per address, last wins.
        let index = crate::planner::index_insns(&shuffled);
        assert_eq!(&index[..], &disasm[..]);
    }

    #[test]
    fn sorted_disasm_is_indexed_in_place() {
        use std::borrow::Cow;
        let (_, disasm) = fig1_binary();
        match crate::planner::index_insns(&disasm) {
            Cow::Borrowed(index) => assert!(std::ptr::eq(index, &disasm[..])),
            Cow::Owned(_) => panic!("a sorted disassembly was copied"),
        }
        // A repeated address is not strictly ascending: it is copied.
        let dup = [disasm[0], disasm[0]];
        assert!(matches!(crate::planner::index_insns(&dup), Cow::Owned(v) if v.len() == 1));
    }

    #[test]
    fn b0_fallback_registers_trap() {
        // Disable every tactic; enable B0. The site gets an int3.
        let (bin, disasm) = fig1_binary();
        let cfg = RewriteConfig {
            tactics: Tactics::base_only(),
            b0_fallback: true,
            ..RewriteConfig::default()
        };
        let out = Rewriter::new(cfg)
            .rewrite(
                &bin,
                &disasm,
                &[PatchRequest {
                    addr: 0x401000,
                    template: Template::Empty,
                }],
                &[],
            )
            .unwrap();
        assert_eq!(out.stats.b0, 1);
        assert_eq!(out.trap_count, 1);
        let elf = Elf::parse(&out.binary).unwrap();
        assert_eq!(elf.slice_at(0x401000, 1).unwrap(), &[0xCC]);
        // Manifest is recoverable from the note segment.
        let note = elf
            .phdrs
            .iter()
            .find(|p| p.p_type == e9elf::types::PT_NOTE)
            .expect("trap note present");
        let blob = &out.binary[note.p_offset as usize..(note.p_offset + note.p_filesz) as usize];
        let traps = manifest::decode(blob).unwrap();
        assert_eq!(traps.len(), 1);
        assert_eq!(traps[0].0, 0x401000);
    }

    #[test]
    fn manifest_roundtrip() {
        let traps = vec![(0x401000u64, 0x70000000u64), (0x401005, 0x70000040)];
        let blob = manifest::encode(&traps);
        assert_eq!(manifest::decode(&blob).unwrap(), traps);
        assert_eq!(manifest::decode(b"not a manifest!!"), None);
    }

    #[test]
    fn extra_segments_survive() {
        let (bin, disasm) = fig1_binary();
        let seg = ExtraSegment {
            vaddr: 0x30000000,
            bytes: vec![0xAB; 32],
            exec: false,
            write: true,
        };
        let out = Rewriter::default()
            .rewrite(
                &bin,
                &disasm,
                &[PatchRequest {
                    addr: 0x401003,
                    template: Template::Counter {
                        counter_addr: 0x30000000,
                    },
                }],
                &[seg],
            )
            .unwrap();
        let elf = Elf::parse(&out.binary).unwrap();
        assert_eq!(elf.slice_at(0x30000000, 32).unwrap(), &[0xAB; 32]);
    }

    #[test]
    fn output_size_accounts_for_trampolines() {
        let (bin, disasm) = fig1_binary();
        let out = Rewriter::default()
            .rewrite(
                &bin,
                &disasm,
                &[PatchRequest {
                    addr: 0x401000,
                    template: Template::Empty,
                }],
                &[],
            )
            .unwrap();
        assert!(out.size.output_bytes > out.size.input_bytes);
        assert_eq!(out.size.input_bytes, bin.len() as u64);
        assert!(out.size.mappings >= 1);
    }

    #[test]
    fn unreachable_targets_is_a_typed_error() {
        // Regression for the reach-window panic path: an instruction decoded
        // at a degenerate address above the 47-bit ceiling pushes its rel32
        // targets out of every window — formerly this cascaded into unwraps,
        // now it must be a typed error.
        let code = vec![0x48, 0x89, 0x03, 0xC3]; // mov %rax,(%rbx); ret
        let mut b = ElfBuilder::exec(0x400000);
        b.text(code.clone(), 0x401000);
        b.entry(0x401000);
        let elf = Elf::parse(&b.build()).expect("parse");

        let weird = 0xFFFF_FFFF_FFFF_0000u64;
        let mut insns = linear_sweep(&code, 0x401000);
        insns.extend(linear_sweep(&[0x48, 0x89, 0x03], weird));
        let mut planner = Planner::new(elf, &insns, RewriteConfig::default(), &[]).unwrap();
        let err = planner.patch_site(weird, &Template::Empty).unwrap_err();
        assert_eq!(err, Error::UnreachableTargets(weird));
    }

    #[test]
    fn empty_target_set_does_not_panic() {
        // Regression: `ret` has no rel32 targets; the old bounds code
        // special-cased this ahead of a pair of `unwrap`s — the fold must
        // yield the unconstrained window and patch normally.
        let code = vec![0xC3, 0x90, 0x90, 0x90, 0x90]; // ret; nops
        let mut b = ElfBuilder::exec(0x400000);
        b.text(code.clone(), 0x401000);
        b.entry(0x401000);
        let elf = Elf::parse(&b.build()).expect("parse");
        let insns = linear_sweep(&code, 0x401000);
        let mut planner = Planner::new(elf, &insns, RewriteConfig::default(), &[]).unwrap();
        // Outcome (patched or not) is irrelevant; reaching it without a panic
        // or error is the contract.
        planner
            .patch_site(0x401000, &Template::Empty)
            .expect("ret site must not error");
    }

    fn rewrite_with_granularity(
        granularity: u64,
        extra: &[ExtraSegment],
    ) -> crate::error::Result<RewriteOutput> {
        let (bin, disasm) = fig1_binary();
        let cfg = RewriteConfig {
            granularity,
            ..RewriteConfig::default()
        };
        let requests = [PatchRequest {
            addr: 0x401000,
            template: Template::Empty,
        }];
        Rewriter::new(cfg).rewrite(&bin, &disasm, &requests, extra)
    }

    #[test]
    fn oversized_granularity_is_a_typed_error() {
        // 2^35 pages is a 128 TiB block, larger than the address space
        // (it used to panic placing the loader); 2^52 pages overflows the
        // block size to 0 (it used to divide by zero in the planner).
        for m in [1u64 << 35, 1 << 52, u64::MAX] {
            let err = rewrite_with_granularity(m, &[]).unwrap_err();
            assert_eq!(err, Error::InvalidGranularity(m));
        }
        // A block that fits, even one of 4 GiB, still rewrites.
        assert!(rewrite_with_granularity(1 << 20, &[]).is_ok());
    }

    #[test]
    fn no_room_for_the_loader_is_a_typed_error() {
        // Two 64 TiB blocks cover the address space: the binary's
        // reservation takes the low one and an extra segment the high one.
        let seg = ExtraSegment {
            vaddr: 0x5000_0000_0000,
            bytes: vec![0; 8],
            exec: false,
            write: false,
        };
        let err = rewrite_with_granularity(1 << 34, &[seg]).unwrap_err();
        assert_eq!(err, Error::NoLoaderSpace);
    }
}
