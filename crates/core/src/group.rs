//! Physical page grouping (§4).
//!
//! Punned trampolines end up scattered across the virtual address space
//! (each pun window dictates its own neighbourhood), so virtual utilisation
//! is poor — in the worst case ~1 trampoline per page. A naïve one-to-one
//! physical backing would bloat the output file proportionally.
//!
//! Physical page grouping divides the address space into blocks of `M`
//! pages and *merges* blocks whose trampoline extents do not overlap
//! relative to the block base. Each merged physical block is emitted once
//! and mapped at every member block's virtual base (a one-to-many,
//! file-backed mapping), as in the paper's Figure 3.
//!
//! Partitioning is a combinatorial optimisation; like E9Patch we use a
//! greedy algorithm (first-fit over groups, densest block first). To keep
//! very large binaries near-linear, each block's occupancy is summarised
//! as a 64-bucket bitmap: bucket-disjointness is a *sufficient* condition
//! for byte-disjointness, so a single `u64 & u64` test decides mergability
//! (at a small optimality cost). At most [`MAX_GROUP_SCAN`] groups are
//! examined per block.

use std::collections::BTreeMap;

/// Cap on how many existing groups greedy placement examines per block.
pub const MAX_GROUP_SCAN: usize = 8192;

/// Linux's default `vm.max_map_count` — the mapping budget the paper
/// discusses for granularity `M ≥ 64`.
pub const DEFAULT_MAX_MAP_COUNT: u64 = 65536;

/// One merged physical block and the virtual bases it is mapped at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysBlock {
    /// Block contents (`block_size` bytes; unused byte ranges are zero).
    pub bytes: Vec<u8>,
    /// Virtual base addresses this physical block must be mapped at.
    pub mapped_at: Vec<u64>,
}

/// Result of the grouping pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grouping {
    /// Block size in bytes (`M * PAGE_SIZE`).
    pub block_size: u64,
    /// Merged physical blocks.
    pub groups: Vec<PhysBlock>,
    /// Number of virtual blocks that contained trampoline bytes.
    pub virtual_blocks: u64,
}

impl Grouping {
    /// Total physical bytes emitted to the file.
    pub fn physical_bytes(&self) -> u64 {
        self.groups.len() as u64 * self.block_size
    }

    /// Total mappings the loader must create.
    pub fn mapping_count(&self) -> u64 {
        self.groups.iter().map(|g| g.mapped_at.len() as u64).sum()
    }
}

#[derive(Debug)]
struct BlockOcc {
    base: u64,
    /// Sorted, disjoint (offset, bytes) extents within the block.
    extents: Vec<(u64, Vec<u8>)>,
    occupied: u64,
    /// 64-bucket coarse occupancy bitmap (bit i set ⇔ some byte in bucket
    /// i is used). Bucket-disjoint blocks are byte-disjoint.
    bits: u64,
}

fn occupancy_bits(extents: &[(u64, Vec<u8>)], block_size: u64) -> u64 {
    let bucket = (block_size / 64).max(1);
    let mut bits = 0u64;
    for (off, bytes) in extents {
        let lo = off / bucket;
        let hi = (off + bytes.len() as u64 - 1) / bucket;
        for b in lo..=hi.min(63) {
            bits |= 1 << b;
        }
    }
    bits
}

/// Group trampoline blobs into merged physical blocks.
///
/// `trampolines` are `(vaddr, bytes)` pairs (arbitrary order, arbitrary
/// sizes; extents spanning block boundaries are split into
/// mini-trampolines, as in the paper). `block_size` is the paper's `M`
/// pages in bytes, from [`crate::layout::block_size`]. With `enable == false` the naïve one-to-one mapping
/// is produced (each virtual block backed by its own physical block) — the
/// ablation baseline for experiment E4.
///
/// # Panics
///
/// Panics if two trampolines overlap in virtual memory (allocator
/// invariant).
pub fn group(trampolines: &[(u64, Vec<u8>)], block_size: u64, enable: bool) -> Grouping {
    let bs = block_size;

    // Bucket (and split) extents by block base.
    let mut blocks: BTreeMap<u64, Vec<(u64, Vec<u8>)>> = BTreeMap::new();
    for (vaddr, bytes) in trampolines {
        let mut va = *vaddr;
        let mut rest: &[u8] = bytes;
        while !rest.is_empty() {
            let base = va / bs * bs;
            let off = va - base;
            let take = ((bs - off) as usize).min(rest.len());
            blocks
                .entry(base)
                .or_default()
                .push((off, rest[..take].to_vec()));
            va += take as u64;
            rest = &rest[take..];
        }
    }

    let mut occs: Vec<BlockOcc> = blocks
        .into_iter()
        .map(|(base, mut extents)| {
            extents.sort_by_key(|(o, _)| *o);
            for w in extents.windows(2) {
                assert!(
                    w[0].0 + w[0].1.len() as u64 <= w[1].0,
                    "overlapping trampolines within block {base:#x}"
                );
            }
            let occupied = extents.iter().map(|(_, b)| b.len() as u64).sum();
            let bits = occupancy_bits(&extents, bs);
            BlockOcc {
                base,
                extents,
                occupied,
                bits,
            }
        })
        .collect();
    let virtual_blocks = occs.len() as u64;

    // (coarse bitmap, merged extents, member block bases)
    type Group = (u64, Vec<(u64, Vec<u8>)>, Vec<u64>);
    let mut groups: Vec<Group> = Vec::new();
    if enable {
        // First-fit decreasing by occupancy; mergability decided by the
        // coarse bitmaps (sufficient for byte-disjointness).
        occs.sort_by(|a, b| b.occupied.cmp(&a.occupied).then(a.base.cmp(&b.base)));
        for blk in occs {
            let mut placed = false;
            for (bits, extents, members) in groups.iter_mut().take(MAX_GROUP_SCAN) {
                if *bits & blk.bits == 0 {
                    *bits |= blk.bits;
                    extents.extend(blk.extents.iter().cloned());
                    members.push(blk.base);
                    placed = true;
                    break;
                }
            }
            if !placed {
                groups.push((blk.bits, blk.extents, vec![blk.base]));
            }
        }
    } else {
        for blk in occs {
            groups.push((blk.bits, blk.extents, vec![blk.base]));
        }
    }

    let phys = groups
        .into_iter()
        .map(|(_, extents, mut members)| {
            members.sort_unstable();
            let mut bytes = vec![0u8; bs as usize];
            for (off, data) in extents {
                bytes[off as usize..off as usize + data.len()].copy_from_slice(&data);
            }
            PhysBlock {
                bytes,
                mapped_at: members,
            }
        })
        .collect();

    Grouping {
        block_size: bs,
        groups: phys,
        virtual_blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e9elf::PAGE_SIZE;

    fn t(vaddr: u64, len: usize, fill: u8) -> (u64, Vec<u8>) {
        (vaddr, vec![fill; len])
    }

    #[test]
    fn figure3_style_merge() {
        // Five trampolines over three pages with disjoint in-page offsets
        // merge into a single physical page (the paper's Figure 3).
        let ts = vec![
            t(0x10000, 0x100, 1),        // page 1, offset 0x000
            t(0x10400, 0x100, 2),        // page 1, offset 0x400
            t(0x11800, 0x100, 3),        // page 2, offset 0x800
            t(0x12200, 0x100, 4),        // page 3, offset 0x200
            t(0x12C00, 0x100, 5),        // page 3, offset 0xC00
        ];
        let g = group(&ts, PAGE_SIZE, true);
        assert_eq!(g.virtual_blocks, 3);
        assert_eq!(g.groups.len(), 1);
        assert_eq!(g.mapping_count(), 3);
        let blk = &g.groups[0];
        assert_eq!(blk.mapped_at, vec![0x10000, 0x11000, 0x12000]);
        assert_eq!(blk.bytes[0x000], 1);
        assert_eq!(blk.bytes[0x400], 2);
        assert_eq!(blk.bytes[0x800], 3);
        assert_eq!(blk.bytes[0x200], 4);
        assert_eq!(blk.bytes[0xC00], 5);
    }

    #[test]
    fn naive_mode_one_to_one() {
        let ts = vec![t(0x10000, 0x10, 1), t(0x11000, 0x10, 2), t(0x12000, 0x10, 3)];
        let g = group(&ts, PAGE_SIZE, false);
        assert_eq!(g.groups.len(), 3);
        assert_eq!(g.mapping_count(), 3);
        assert_eq!(g.physical_bytes(), 3 * PAGE_SIZE);
    }

    #[test]
    fn conflicting_offsets_stay_separate() {
        // Same in-page offset → cannot merge.
        let ts = vec![t(0x10000, 0x10, 1), t(0x11000, 0x10, 2)];
        let g = group(&ts, PAGE_SIZE, true);
        assert_eq!(g.groups.len(), 2);
    }

    #[test]
    fn spanning_trampoline_splits() {
        // A trampoline crossing a page boundary becomes two
        // mini-trampolines in two blocks.
        let ts = vec![t(0x10FF0, 0x20, 7)];
        let g = group(&ts, PAGE_SIZE, true);
        assert_eq!(g.virtual_blocks, 2);
        // Bytes land at offsets 0xFF0 (page 1) and 0x000 (page 2) — those
        // two blocks conflict-freely merge into one physical page? No:
        // offsets 0xFF0..0x1000 and 0x000..0x010 are disjoint, so yes.
        assert_eq!(g.groups.len(), 1);
        assert_eq!(g.mapping_count(), 2);
        let b = &g.groups[0];
        assert_eq!(b.bytes[0xFF0], 7);
        assert_eq!(b.bytes[0x00F], 7);
    }

    #[test]
    fn coarser_granularity_reduces_mappings() {
        // 16 trampolines spread over 16 pages.
        let ts: Vec<_> = (0..16)
            .map(|i| t(0x10000 + i * 0x1000 + (i % 4) * 0x400, 0x40, i as u8 + 1))
            .collect();
        let g1 = group(&ts, PAGE_SIZE, true);
        let g4 = group(&ts, 4 * PAGE_SIZE, true);
        assert!(g4.mapping_count() <= g1.mapping_count());
        assert_eq!(g4.block_size, 4 * PAGE_SIZE);
    }

    #[test]
    fn grouping_reduces_physical_bytes() {
        // 64 single-trampoline pages with distinct offsets — grouping should
        // collapse them dramatically; naive stays at 64 pages.
        let ts: Vec<_> = (0..64)
            .map(|i| t(0x100000 + i * 0x1000 + i * 0x40, 0x40, (i % 250) as u8 + 1))
            .collect();
        let naive = group(&ts, PAGE_SIZE, false);
        let grouped = group(&ts, PAGE_SIZE, true);
        assert_eq!(naive.physical_bytes(), 64 * PAGE_SIZE);
        assert!(grouped.physical_bytes() <= 2 * PAGE_SIZE);
        assert_eq!(grouped.mapping_count(), 64); // mappings unchanged
    }

    #[test]
    #[should_panic(expected = "overlapping trampolines")]
    fn overlap_detected() {
        let ts = vec![t(0x10000, 0x20, 1), t(0x10010, 0x20, 2)];
        group(&ts, PAGE_SIZE, true);
    }

    #[test]
    fn bucket_conservatism_keeps_correctness() {
        // Two byte-disjoint trampolines sharing a 64-byte bucket: the
        // coarse bitmap may refuse to merge them (optimality loss), but
        // byte conservation must hold either way.
        let ts = vec![t(0x10000, 0x10, 1), t(0x11020, 0x10, 2)];
        let g = group(&ts, PAGE_SIZE, true);
        // Offsets 0x000 and 0x020 are in the same bucket (bucket = 64 B).
        assert!(g.groups.len() <= 2);
        let mut found = 0;
        for blk in &g.groups {
            for &vbase in &blk.mapped_at {
                for (va, bytes) in &ts {
                    if *va >= vbase && *va + bytes.len() as u64 <= vbase + g.block_size {
                        let off = (*va - vbase) as usize;
                        if blk.bytes[off..off + bytes.len()] == bytes[..] {
                            found += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(found, 2, "every trampoline present at its offset");
    }

    #[test]
    fn boundary_straddling_bucket_bits() {
        // An extent ending exactly at the block edge must not overflow the
        // 64-bit occupancy bitmap (bucket index 63).
        let ts = vec![t(0x10000 + 4096 - 8, 8, 9)];
        let g = group(&ts, PAGE_SIZE, true);
        assert_eq!(g.groups.len(), 1);
        assert_eq!(g.groups[0].bytes[4088], 9);
    }

    #[test]
    fn empty_input() {
        let g = group(&[], PAGE_SIZE, true);
        assert_eq!(g.groups.len(), 0);
        assert_eq!(g.mapping_count(), 0);
        assert_eq!(g.virtual_blocks, 0);
    }
}
