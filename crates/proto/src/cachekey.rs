//! Cache-key derivation for finished rewrites.
//!
//! A rewrite's output is a pure function of `(input ELF bytes, the full
//! command batch, the rewriter configuration)` — the pipeline has been
//! deterministic since PR 1. That makes the output safely addressable by
//! a digest of those inputs, which is what [`rewrite_key`] computes.
//!
//! The batch is absorbed through a compact tagged binary framing: each
//! logical step (`instruction`, `reserve`, `patch`) contributes a type
//! tag, its fixed fields as little-endian words, and its byte payloads
//! length-prefixed (templates, which are small structured values, go
//! through the canonical JSON codec). Hashing raw bytes instead of a
//! hex-doubled JSON batch keeps keying linear in the input with a small
//! constant — the batch can carry megabytes of instruction and segment
//! bytes. `e9tool patch --cache-dir` (in-process) and an `e9patchd`
//! session (wire) still derive byte-identical keys for the same logical
//! job, so they share cache entries.
//!
//! The binary itself enters the key as its [`e9cache::tree`] digest, not
//! its raw bytes — that is what lets a client hash the input once, send
//! the digest alongside the `binary` command, and have the server reuse
//! the verified digest for every subsequent `emit` ([`rewrite_key_from_digest`]).
//!
//! Deliberately **excluded** from the key: anything about the serving
//! surface (socket vs stdio vs in-process), session limits, or I/O paths.
//!
//! Versioning: the key material starts with a domain tag plus
//! [`e9cache::FORMAT_VERSION`] and [`PROTOCOL_VERSION`], so any change to
//! the entry encoding or the wire grammar re-keys the world instead of
//! misreading old entries. All multi-byte parts are length-prefixed —
//! the encoding is injective, two different jobs cannot produce the same
//! key material.
//!
//! [`PROTOCOL_VERSION`] went from 1 to 2 when the sharded planner and its
//! `jobs` option were removed. Sharded output differed from sequential
//! output, yet `jobs` was never part of the key, so a disk store could
//! hold sharded bytes under a sequential key. The bump re-keys every
//! entry, so none of those is ever served again.

use crate::json::Json;
use crate::msg::{Command, PROTOCOL_VERSION};
use e9cache::{Digest, Sha256};
use e9patch::planner::AllocPolicy;
use e9patch::{ExtraSegment, PatchRequest, RewriteConfig};
use e9x86::insn::Insn;

/// Domain-separation tag (NUL-terminated so no other use of the hash can
/// collide with key material by accident).
const DOMAIN: &[u8] = b"e9cache/rewrite-key\0";

/// Absorb one length-prefixed part.
fn part(h: &mut Sha256, bytes: &[u8]) {
    h.update(&(bytes.len() as u64).to_le_bytes());
    h.update(bytes);
}

/// Canonical JSON encoding of the cache-relevant [`RewriteConfig`]
/// fields (everything that can change output bytes).
pub fn config_json(cfg: &RewriteConfig) -> Json {
    crate::json::obj(vec![
        ("t1", Json::Bool(cfg.tactics.t1)),
        ("t2", Json::Bool(cfg.tactics.t2)),
        ("t3", Json::Bool(cfg.tactics.t3)),
        ("b0", Json::Bool(cfg.b0_fallback)),
        ("granularity", Json::Int(cfg.granularity as i128)),
        ("grouping", Json::Bool(cfg.grouping)),
        (
            "alloc",
            Json::Str(
                match cfg.alloc_policy {
                    AllocPolicy::FirstFitLow => "low",
                    AllocPolicy::FirstFitHigh => "high",
                }
                .into(),
            ),
        ),
    ])
}

/// Absorb the batch in session order (instructions, then reserved
/// segments, then patches — the order the planner consumes them). Each
/// section is count-prefixed and each step carries a type tag, so the
/// framing is injective without any intermediate serialization of the
/// bulk bytes.
fn absorb_batch(h: &mut Sha256, insns: &[Insn], extra: &[ExtraSegment], patches: &[PatchRequest]) {
    h.update(&(insns.len() as u64).to_le_bytes());
    for i in insns {
        h.update(b"I");
        h.update(&i.addr.to_le_bytes());
        part(h, i.bytes());
    }
    h.update(&(extra.len() as u64).to_le_bytes());
    for e in extra {
        h.update(b"R");
        h.update(&e.vaddr.to_le_bytes());
        h.update(&[u8::from(e.exec), u8::from(e.write)]);
        part(h, &e.bytes);
    }
    h.update(&(patches.len() as u64).to_le_bytes());
    for p in patches {
        h.update(b"P");
        h.update(&p.addr.to_le_bytes());
        // Templates are small structured values; the canonical JSON
        // codec is their one canonical encoding.
        part(
            h,
            Command::Patch {
                addr: p.addr,
                template: p.template.clone(),
            }
            .to_json()
            .serialize()
            .as_bytes(),
        );
    }
}

/// Derive the content-address of a rewrite job from an already-computed
/// binary digest. This is the digest-once entry point: the input is
/// hashed exactly once per session (at `binary` intake or first engaged
/// `emit`) and every later keying reuses the 32-byte digest.
pub fn rewrite_key_from_digest(
    binary_digest: &Digest,
    insns: &[Insn],
    extra: &[ExtraSegment],
    patches: &[PatchRequest],
    cfg: &RewriteConfig,
) -> Digest {
    let mut h = Sha256::new();
    h.update(DOMAIN);
    h.update(&e9cache::FORMAT_VERSION.to_le_bytes());
    h.update(&PROTOCOL_VERSION.to_le_bytes());
    part(&mut h, binary_digest);
    absorb_batch(&mut h, insns, extra, patches);
    part(&mut h, config_json(cfg).serialize().as_bytes());
    h.finish()
}

/// Derive the content-address of a rewrite job from the raw input bytes.
/// Convenience over [`rewrite_key_from_digest`]; hashes the binary
/// single-threaded — callers that hold a worker count should compute
/// [`e9cache::tree::tree_digest`] themselves and use the `_from_digest`
/// form.
pub fn rewrite_key(
    binary: &[u8],
    insns: &[Insn],
    extra: &[ExtraSegment],
    patches: &[PatchRequest],
    cfg: &RewriteConfig,
) -> Digest {
    rewrite_key_from_digest(&e9cache::tree::tree_digest(binary, 1), insns, extra, patches, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use e9patch::Template;

    fn insn(addr: u64, bytes: &[u8]) -> Insn {
        e9x86::decode::decode(bytes, addr).expect("test instruction decodes")
    }

    fn job() -> (Vec<u8>, Vec<Insn>, Vec<ExtraSegment>, Vec<PatchRequest>) {
        (
            vec![0x7f, b'E', b'L', b'F', 0, 1, 2, 3],
            vec![insn(0x401000, &[0x48, 0x89, 0x03]), insn(0x401003, &[0x90])],
            vec![ExtraSegment {
                vaddr: 0x30000000,
                bytes: vec![0xAA; 16],
                exec: false,
                write: true,
            }],
            vec![PatchRequest {
                addr: 0x401000,
                template: Template::Empty,
            }],
        )
    }

    #[test]
    fn key_is_deterministic() {
        let (bin, insns, extra, patches) = job();
        let cfg = RewriteConfig::default();
        let a = rewrite_key(&bin, &insns, &extra, &patches, &cfg);
        let b = rewrite_key(&bin, &insns, &extra, &patches, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn every_input_part_changes_the_key() {
        let (bin, insns, extra, patches) = job();
        let cfg = RewriteConfig::default();
        let base = rewrite_key(&bin, &insns, &extra, &patches, &cfg);

        let mut bin2 = bin.clone();
        bin2[7] ^= 1;
        assert_ne!(rewrite_key(&bin2, &insns, &extra, &patches, &cfg), base);

        assert_ne!(rewrite_key(&bin, &insns[..1], &extra, &patches, &cfg), base);
        assert_ne!(rewrite_key(&bin, &insns, &[], &patches, &cfg), base);
        assert_ne!(rewrite_key(&bin, &insns, &extra, &[], &cfg), base);

        let mut cfg2 = cfg;
        cfg2.granularity += 1;
        assert_ne!(rewrite_key(&bin, &insns, &extra, &patches, &cfg2), base);
        let mut cfg3 = cfg;
        cfg3.tactics.t2 = !cfg3.tactics.t2;
        assert_ne!(rewrite_key(&bin, &insns, &extra, &patches, &cfg3), base);
    }

    #[test]
    fn digest_form_matches_raw_form_for_every_jobs() {
        // The digest-once path must land on the same key as the raw-bytes
        // convenience, whatever `jobs` the client hashed with — otherwise
        // a client that pre-hashes differently splits the cache.
        let (bin, insns, extra, patches) = job();
        let cfg = RewriteConfig::default();
        let base = rewrite_key(&bin, &insns, &extra, &patches, &cfg);
        for jobs in [0, 1] {
            let d = e9cache::tree::tree_digest(&bin, jobs);
            assert_eq!(
                rewrite_key_from_digest(&d, &insns, &extra, &patches, &cfg),
                base
            );
        }
    }

    #[test]
    fn length_prefixing_prevents_part_smearing() {
        // Moving a byte from the end of the binary into the batch text
        // must change the key (the parts are length-prefixed, so the
        // concatenated key material cannot alias).
        let (bin, insns, _, patches) = job();
        let cfg = RewriteConfig::default();
        let a = rewrite_key(&bin, &insns, &[], &patches, &cfg);
        let b = rewrite_key(&bin[..bin.len() - 1], &insns, &[], &patches, &cfg);
        assert_ne!(a, b);
    }
}
