//! Rewriter error type.

use std::fmt;

/// Errors surfaced by the rewriting pipeline.
///
/// Note that a *patch failure* (no tactic succeeded for a site) is not an
/// error — it is recorded in [`crate::stats::PatchStats`], matching the
/// paper's coverage methodology where Succ% may be below 100.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Underlying ELF problem.
    Elf(e9elf::ElfError),
    /// A patch request names an address with no known instruction.
    NoSuchInstruction(u64),
    /// A patch request targets an instruction that cannot be displaced into
    /// a trampoline (`loop`/`jrcxz`).
    Unrelocatable(u64),
    /// Internal invariant violation while emitting a trampoline.
    Trampoline(String),
    /// Duplicate patch request for the same address.
    DuplicatePatch(u64),
    /// A patch site's rel32 targets are mutually unreachable: no
    /// trampoline address lies within ±2 GiB of all of them (only
    /// degenerate disassembly can produce this).
    UnreachableTargets(u64),
    /// The granularity `M` (in pages) gives a block size that overflows
    /// or exceeds the usable address space.
    InvalidGranularity(u64),
    /// No free address range is left for the loader segment (blocks and
    /// segments cover the whole address space).
    NoLoaderSpace,
    /// The planner could not emit a jump it had committed to at this
    /// address: the allocated target lies outside the pun window, or the
    /// jump bytes fall outside the file-backed image. Never expected —
    /// both are planner invariants, checked by `debug_assert!` too.
    JumpEmit(u64),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Elf(e) => write!(f, "elf error: {e}"),
            Error::NoSuchInstruction(a) => {
                write!(f, "no instruction at {a:#x} in the disassembly info")
            }
            Error::Unrelocatable(a) => {
                write!(f, "instruction at {a:#x} cannot be displaced to a trampoline")
            }
            Error::Trampoline(msg) => write!(f, "trampoline emission failed: {msg}"),
            Error::DuplicatePatch(a) => write!(f, "duplicate patch request at {a:#x}"),
            Error::UnreachableTargets(a) => {
                write!(f, "instruction at {a:#x} has mutually unreachable rel32 targets")
            }
            Error::InvalidGranularity(m) => {
                write!(f, "granularity {m} pages: block size does not fit the address space")
            }
            Error::NoLoaderSpace => write!(f, "address space exhausted placing the loader"),
            Error::JumpEmit(a) => write!(f, "planner could not emit its jump at {a:#x}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Elf(e) => Some(e),
            _ => None,
        }
    }
}

impl From<e9elf::ElfError> for Error {
    fn from(e: e9elf::ElfError) -> Self {
        Error::Elf(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
