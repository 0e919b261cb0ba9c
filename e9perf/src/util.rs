//! Statistics, seeds, process memory and result printing shared by the
//! three workloads.

use std::time::Instant;

/// Quartile-style quantile with linear interpolation between order
/// statistics (`q` in 0..=1). Empty input gives 0.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Per-row profile seed: a SplitMix64 finaliser over the workload seed
/// and the row name, so every row changes with the workload seed and
/// rows stay distinct from one another.
pub fn row_seed(workload_seed: u64, row: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in row.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    e9rng::SplitMix64::new(workload_seed ^ h.rotate_left(17)).next_u64()
}

/// Peak resident set (`VmHWM`) of process `pid` ("self" for this one),
/// in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pin this process to the lowest CPU it may run on; threads and child
/// processes started later (the daemon) inherit it. Returns the CPU.
///
/// On a few shared vCPUs, a lockstep client and server on two CPUs pay
/// a cross-CPU wake-up per round trip, whose cost is the host's
/// scheduling, not the program's; on one CPU a round trip is two
/// context switches. One CPU also keeps the single-threaded workloads
/// from migrating.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable cpu_set_t of `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..size * 8).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable cpu_set_t of `size` bytes.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to `main` for printing.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (warm-up and timed).
    pub attempted: u64,
    /// Operations that returned an error or a wrong output.
    pub failed_ops: u64,
    /// Once-per-run output checks made (emulation, verifier, equality
    /// with an in-process reference, set-up determinism).
    pub checks: u64,
    /// Checks that did not pass: a wrong output, or an oracle that could
    /// not run.
    pub failed_checks: u64,
    /// Operations or checks that found a wrong output.
    pub wrong_outputs: u64,
    /// One printed reason per failed op or check.
    pub reasons: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Outcome {
    /// Share of operations that failed plus share of checks that failed,
    /// in percent. Each check is weighed against the other checks, not
    /// against the many timed operations, so one failed check moves it.
    pub fn fail_pct(&self) -> f64 {
        let share = |n: u64, of: u64| if of == 0 { 0.0 } else { n as f64 / of as f64 };
        100.0 * (share(self.failed_ops, self.attempted) + share(self.failed_checks, self.checks))
    }

    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }

    /// An operation that returned an error.
    pub fn op_failed(&mut self, why: String) {
        self.failed_ops += 1;
        self.reasons.push(why);
    }

    /// `n` operations whose output differed from the reference output.
    pub fn ops_wrong(&mut self, n: u64, why: String) {
        self.failed_ops += n;
        self.wrong_outputs += n;
        self.reasons.push(why);
    }

    pub fn check_passed(&mut self) {
        self.checks += 1;
    }

    pub fn check_failed(&mut self, why: String, wrong_output: bool) {
        self.checks += 1;
        self.failed_checks += 1;
        self.wrong_outputs += u64::from(wrong_output);
        self.reasons.push(why);
    }
}

/// Render a metric list as the body of the result line's `metrics`
/// object. Values print with all their digits (`{:?}` on f64 is the
/// shortest exact round-trip form).
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, v, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn row_seeds_depend_on_both_inputs() {
        assert_eq!(row_seed(1, "gcc"), row_seed(1, "gcc"));
        assert_ne!(row_seed(1, "gcc"), row_seed(2, "gcc"));
        assert_ne!(row_seed(1, "gcc"), row_seed(1, "mcf"));
    }

    #[test]
    fn one_failed_check_is_not_diluted_by_ops() {
        let mut o = Outcome {
            attempted: 10_000,
            ..Outcome::default()
        };
        for _ in 0..3 {
            o.check_passed();
        }
        o.check_failed("x".into(), false);
        assert_eq!(o.fail_pct(), 25.0);
        o.op_failed("y".into());
        assert!((o.fail_pct() - 25.01).abs() < 1e-9);
        assert_eq!(o.wrong_outputs, 0);
    }

    #[test]
    fn geomean_of_pair() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
