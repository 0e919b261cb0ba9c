//! Physical page grouping micro-benchmark: the greedy partitioning pass
//! over scattered trampolines (§4).

use e9bench::harness::{Harness, Throughput};
use e9rng::StdRng;

fn scattered_trampolines(n: usize) -> Vec<(u64, Vec<u8>)> {
    // Mimic punned placement: uniform over a 256 MB window, 16–40 bytes
    // each, non-overlapping by construction.
    let mut rng = StdRng::seed_from_u64(7);
    let mut v = Vec::with_capacity(n);
    let mut used = std::collections::BTreeSet::new();
    while v.len() < n {
        let slot = rng.gen_range(0..(256u64 << 20) / 64);
        if used.insert(slot) {
            let addr = 0x1000_0000 + slot * 64;
            let len = rng.gen_range(16..40);
            v.push((addr, vec![0xCC; len]));
        }
    }
    v
}

fn main() {
    let mut h = Harness::from_args("grouping");
    for n in [1_000usize, 10_000] {
        let ts = scattered_trampolines(n);
        for m in [1u64, 16] {
            let bs = e9patch::layout::block_size(m).unwrap();
            h.throughput(Throughput::Elements(n as u64));
            h.bench(&format!("greedy_m{m}/{n}"), || {
                e9patch::group::group(std::hint::black_box(&ts), bs, true)
            });
        }
    }
    h.finish();
}
