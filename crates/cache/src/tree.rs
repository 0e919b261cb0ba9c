//! Tree hashing for cache keying.
//!
//! Keying a rewrite request starts with a digest of the whole input
//! binary — often the largest single hashing job in the pipeline. The
//! leaves are hashed on the calling thread: every caller asked for one
//! worker, so the threaded branch only ever ran in tests and a bench,
//! and was removed. `tree_digest` keeps its `jobs` argument for its
//! callers and ignores it.
//!
//! Construction:
//!
//! * `len(data) ≤ CHUNK` (1 MiB): the tree digest **is** the plain
//!   `sha256(data)`. Small inputs pay zero framing overhead and the
//!   equality `tree_digest(d, jobs) == digest(d)` holds literally — the
//!   property `tests/sha_props.rs` pins.
//! * larger inputs: the data is split into fixed 1 MiB leaves, each leaf
//!   hashed independently, and the root is
//!   `sha256(DOMAIN ‖ le64(len) ‖ leaf₀ ‖ leaf₁ ‖ …)`.
//!
//! The domain string and the length prefix keep the root from colliding
//! with any plain digest of attacker-chosen bytes: a plain digest over a
//! buffer that happens to spell `DOMAIN ‖ len ‖ leaves` is only reachable
//! for inputs ≤ 1 MiB, and `DOMAIN` contains a NUL so it is never a
//! prefix of ELF magic. Deterministic by construction.

use crate::sha256::{digest, Digest, Sha256};

/// Leaf size. Also the engagement threshold below which the tree digest
/// degenerates to the plain digest.
pub const CHUNK: usize = 1 << 20;

/// Domain separator for the root hash (NUL-terminated so it can never be
/// a prefix of a leaf's content or of an ELF header).
const DOMAIN: &[u8] = b"e9cache/tree-v1\0";

/// Tree digest of `data`. The result depends only on `data`; `jobs` is
/// ignored (the leaves are always hashed on the calling thread).
pub fn tree_digest(data: &[u8], _jobs: usize) -> Digest {
    if data.len() <= CHUNK {
        return digest(data);
    }
    let mut root = Sha256::new();
    root.update(DOMAIN);
    root.update(&(data.len() as u64).to_le_bytes());
    for chunk in data.chunks(CHUNK) {
        root.update(&digest(chunk));
    }
    root.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_input_is_the_plain_digest() {
        for len in [0usize, 1, 63, 64, 4096, CHUNK] {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            assert_eq!(tree_digest(&data, 1), digest(&data), "len={len}");
        }
    }

    #[test]
    fn large_input_is_jobs_invariant() {
        let data: Vec<u8> = (0..3 * CHUNK + 777)
            .map(|i| (i as u32).wrapping_mul(2654435761) as u8)
            .collect();
        let reference = tree_digest(&data, 1);
        assert_eq!(tree_digest(&data, 0), reference);
        // And it is NOT the plain digest: the tree is a different domain.
        assert_ne!(reference, digest(&data));
    }

    #[test]
    fn chunk_boundary_lengths_are_distinct() {
        let a = vec![0u8; CHUNK + 1];
        let b = vec![0u8; CHUNK + 2];
        assert_ne!(tree_digest(&a, 2), tree_digest(&b, 2));
        // One byte past the threshold engages the tree.
        assert_ne!(tree_digest(&a, 1), digest(&a));
    }
}
