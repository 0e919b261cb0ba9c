//! Host-speed calibration.
//!
//! The benchmark runs on a few cores of a shared host whose speed
//! drifts by tens of percent over minutes, and the rewriter (allocation
//! heavy, with a working set of a few MiB per row) drifts with it more
//! than a pure arithmetic loop does. So every run also times a fixed
//! kernel of the same character — `BTreeMap` inserts and a walk, small
//! `Vec` allocations and a sort over a few MiB — between its timed
//! operations, and reports its times in reference time:
//!
//! ```text
//! reported = wall × REF_MS / median(kernel wall times of this run)
//! ```
//!
//! The kernel is part of the benchmark and never changes with the
//! program, so a faster program still reads as faster; what the factor
//! removes is the part of the drift the kernel shares with the program.
//!
//! The kernel runs in a child process of its own (this binary with
//! `--calibrator`, on the same CPU), so the heap a large rewrite leaves
//! behind does not change the kernel's time.

use crate::util::median;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// The kernel's wall time on an unloaded reference host, in ms (a
/// 2-vCPU Sapphire Rapids VM at its faster times); calibrated times are
/// in units of that host's time.
pub const REF_MS: f64 = 25.0;
/// Keys inserted per kernel run.
const KEYS: u64 = 100_000;
/// Share of an operation's time spent calibrating after it.
const SHARE: f64 = 0.05;

pub struct Calib {
    samples: Vec<f64>,
    child: Option<Calibrator>,
}

struct Calibrator {
    child: Child,
    to: ChildStdin,
    from: BufReader<ChildStdout>,
}

/// One kernel run; its result is the same on every call.
fn kernel() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map = BTreeMap::new();
    let mut blobs: Vec<Vec<u8>> = Vec::new();
    for i in 0..KEYS {
        let k = next();
        map.insert(k, i);
        if i % 8 == 0 {
            blobs.push(vec![k as u8; 64 + (k % 512) as usize]);
        }
    }
    let mut sum = 0u64;
    for (k, v) in &map {
        sum = sum.wrapping_add(k ^ v);
    }
    let mut keys: Vec<u64> = map.keys().copied().collect();
    keys.sort_unstable_by_key(|k| k.rotate_left(13));
    sum ^ keys[0] ^ blobs.iter().map(|b| b.len() as u64).sum::<u64>()
}

/// The `--calibrator` child: one kernel run per line read, answered with
/// its wall time in ms, until stdin closes.
pub fn serve() {
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        if line.is_err() {
            break;
        }
        let t = Instant::now();
        black_box(kernel());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if writeln!(out, "{ms:?}").and_then(|()| out.flush()).is_err() {
            break;
        }
    }
}

impl Calib {
    /// Start the calibrator process.
    pub fn start() -> Result<Calib, String> {
        let exe = std::env::current_exe().map_err(|e| format!("calibrator: {e}"))?;
        let mut child = Command::new(exe)
            .arg("--calibrator")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("calibrator: {e}"))?;
        let to = child.stdin.take().expect("piped stdin");
        let from = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Calib {
            samples: Vec::new(),
            child: Some(Calibrator { child, to, from }),
        })
    }

    /// Time one kernel run in the calibrator.
    pub fn sample(&mut self) {
        let c = self.child.as_mut().expect("a started calibrator");
        let mut line = String::new();
        let ms = writeln!(c.to, "run")
            .and_then(|()| c.to.flush())
            .and_then(|()| c.from.read_line(&mut line))
            .ok()
            .and_then(|_| line.trim().parse::<f64>().ok())
            .expect("the calibrator answers every request");
        self.samples.push(ms);
    }

    /// Calibrate after an operation of `op_ms`: kernel runs worth about
    /// `SHARE` of it, at least one.
    pub fn after_op(&mut self, op_ms: f64) {
        let last = self.samples.last().copied().unwrap_or(REF_MS);
        let reps = (SHARE * op_ms / last).ceil().max(1.0) as usize;
        for _ in 0..reps {
            self.sample();
        }
    }

    /// Multiply a wall time by this to get reference time.
    pub fn factor(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        REF_MS / median(&self.samples)
    }

    /// Stop the calibrator (it exits when its stdin closes) and wait for
    /// it to exit.
    pub fn stop(&mut self) {
        if let Some(Calibrator {
            mut child,
            to,
            from,
        }) = self.child.take()
        {
            drop(to);
            drop(from);
            let _ = child.wait();
        }
    }

    /// One line for the run's log.
    pub fn summary(&self) -> String {
        format!(
            "calibration kernel median {:.3} ms over {} runs, factor {:.4} (reported times = wall × factor)",
            median(&self.samples),
            self.samples.len(),
            self.factor()
        )
    }
}

impl Drop for Calib {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_reference_over_median() {
        let mut c = Calib {
            samples: Vec::new(),
            child: None,
        };
        assert_eq!(c.factor(), 1.0);
        c.samples = vec![50.0, 40.0, 60.0];
        assert_eq!(c.factor(), REF_MS / 50.0);
    }

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }
}
