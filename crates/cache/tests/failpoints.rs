//! Fault-semantics tests driven by `e9failpt` injection: transient disk
//! I/O errors degrade to misses (never negative-cached, never poison the
//! entry), and the disk-tier circuit breaker walks its documented
//! trip → fast-fail → probe → recover cycle under a deterministic
//! ENOSPC schedule.
//!
//! Failpoint activation is process-global, so every test here holds the
//! `activate_scoped` gate and a file-wide lock — they serialize against
//! each other and no other test binary runs failpoints.

use e9cache::{breaker, digest, Cache, CacheConfig, Entry, Hit};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The scoped gate only covers a test's activated window, so one test's
/// setup I/O could still consume the faults another test scheduled.
/// Each test holds this for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("e9cache-failpt-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn disk_cache(dir: &Path) -> Cache {
    Cache::open(&CacheConfig {
        dir: Some(dir.to_path_buf()),
        ..CacheConfig::default()
    })
    .unwrap()
}

#[test]
fn transient_disk_read_error_is_a_miss_not_a_negative_entry() {
    let _serial = serial();
    let dir = tmpdir("transient");
    let key = digest(b"job");
    // Publish a healthy positive entry to disk.
    disk_cache(&dir).put(&key, &Entry::Ok(b"artifact".to_vec()));

    // A fresh cache over the same store (empty memory tier) whose first
    // disk read hits an injected EIO.
    let cache = disk_cache(&dir);
    let _fp = e9failpt::activate_scoped("cache.disk.read=eio@once", 1).unwrap();

    // The faulted lookup degrades to a miss — the caller runs cold.
    assert_eq!(cache.lookup(&key), None);
    let stats = cache.stats();
    assert_eq!(stats.errors, 1);
    assert_eq!(stats.misses, 1);
    assert!(!stats.disk_breaker_open, "one error must not trip the breaker");

    // Once the transient fault clears, the original positive entry is
    // served intact: the error was never cached, negatively or otherwise.
    match cache.lookup(&key) {
        Some(Hit::Payload(blob)) => assert_eq!(&blob[..], b"artifact"),
        other => panic!("expected the positive entry back, got {other:?}"),
    }
    assert_eq!(cache.stats().negative_hits, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn breaker_trips_to_memory_only_and_recovers() {
    let _serial = serial();
    let dir = tmpdir("breaker-cycle");
    let cache = disk_cache(&dir);
    // Disk full for the first four staging attempts, then space frees up.
    let _fp = e9failpt::activate_scoped("cache.disk.stage=enospc@first:4", 1).unwrap();

    let keys: Vec<_> = (0..12u64).map(|i| digest(&i.to_le_bytes())).collect();
    for (i, key) in keys.iter().enumerate() {
        cache.put(key, &Entry::Ok(format!("artifact {i}").into_bytes()));
        // The expected walk, put by put (TRIP_THRESHOLD = 3,
        // PROBE_INTERVAL = 4): 3 failures trip it open; 3 writes
        // fast-fail; the 4th skipped-write opportunity probes and fails
        // (4th injected fault, pacing restarts); 3 more fast-fails; the
        // next probe succeeds (schedule exhausted) and closes it.
        let open = matches!(i, 2..=9);
        assert_eq!(cache.disk_breaker().is_open(), open, "after put {i}");
        // Memory-only mode still serves: everything put so far hits.
        assert!(cache.lookup(&keys[i / 2]).is_some(), "mem tier lost entry during put {i}");
    }

    let stats = cache.stats();
    assert!(!stats.disk_breaker_open);
    assert_eq!(stats.disk_breaker_trips, 1);
    assert_eq!(stats.disk_breaker_probes, 2);
    assert_eq!(stats.disk_breaker_recoveries, 1);
    assert_eq!(stats.disk_breaker_fast_fails, 6);
    // Puts 1-3 and the failed probe each counted one degradation.
    assert_eq!(stats.errors, 4);
    assert_eq!(
        breaker::BreakerStats {
            open: false,
            trips: 1,
            fast_fails: 6,
            probes: 2,
            recoveries: 1,
        },
        cache.disk_breaker().stats()
    );

    // Recovered for real: the post-recovery puts reached the disk and
    // survive this process's memory tier.
    let fresh = disk_cache(&dir);
    assert!(fresh.lookup(&keys[10]).is_some(), "post-recovery put not on disk");
    assert!(fresh.lookup(&keys[11]).is_some());
    // The disk-full-era puts never landed (dropped, not wedged).
    assert_eq!(fresh.lookup(&keys[0]), None);
    std::fs::remove_dir_all(&dir).ok();
}
