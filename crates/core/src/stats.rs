//! Patching statistics — the columns of the paper's Table 1.

use std::fmt;

/// Which methodology ultimately patched a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TacticKind {
    /// `int3` + trap handler fallback (§2.1.1) — not counted as Succ%.
    B0,
    /// Plain 5-byte jump, instruction length ≥ 5 (§2.1.2).
    B1,
    /// Baseline instruction punning, zero padding (§2.1.3).
    B2,
    /// Padded punned jump (§3.1).
    T1,
    /// Successor eviction then re-pun (§3.2).
    T2,
    /// Neighbour eviction with double jump (§3.3).
    T3,
}

impl fmt::Display for TacticKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Aggregate patch outcome counts for one rewriting run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatchStats {
    /// Sites patched by B1 (plain jump).
    pub b1: usize,
    /// Sites patched by B2 (baseline pun).
    pub b2: usize,
    /// Sites patched by T1 (padded pun).
    pub t1: usize,
    /// Sites patched by T2 (successor eviction).
    pub t2: usize,
    /// Sites patched by T3 (neighbour eviction).
    pub t3: usize,
    /// Sites handled by the B0 trap fallback (only when enabled).
    pub b0: usize,
    /// Sites no tactic could patch.
    pub failed: usize,
}

impl PatchStats {
    /// Record one outcome.
    pub fn record(&mut self, kind: TacticKind) {
        match kind {
            TacticKind::B0 => self.b0 += 1,
            TacticKind::B1 => self.b1 += 1,
            TacticKind::B2 => self.b2 += 1,
            TacticKind::T1 => self.t1 += 1,
            TacticKind::T2 => self.t2 += 1,
            TacticKind::T3 => self.t3 += 1,
        }
    }

    /// Record a site that could not be patched.
    pub fn record_failure(&mut self) {
        self.failed += 1;
    }

    /// Fold another run's counters into this one (e.g. to sum Table-1
    /// rows over several binaries).
    pub fn merge(&mut self, other: &PatchStats) {
        self.b1 += other.b1;
        self.b2 += other.b2;
        self.t1 += other.t1;
        self.t2 += other.t2;
        self.t3 += other.t3;
        self.b0 += other.b0;
        self.failed += other.failed;
    }

    /// Total number of patch locations (#Loc).
    pub fn total(&self) -> usize {
        self.b1 + self.b2 + self.t1 + self.t2 + self.t3 + self.b0 + self.failed
    }

    /// Sites patched by any of B1/B2/T1/T2/T3.
    pub fn succeeded(&self) -> usize {
        self.b1 + self.b2 + self.t1 + self.t2 + self.t3
    }

    fn pct(&self, n: usize) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            100.0 * n as f64 / self.total() as f64
        }
    }

    /// Base% — the paper groups B1+B2 as the baseline coverage.
    pub fn base_pct(&self) -> f64 {
        self.pct(self.b1 + self.b2)
    }

    /// T1%.
    pub fn t1_pct(&self) -> f64 {
        self.pct(self.t1)
    }

    /// T2%.
    pub fn t2_pct(&self) -> f64 {
        self.pct(self.t2)
    }

    /// T3%.
    pub fn t3_pct(&self) -> f64 {
        self.pct(self.t3)
    }

    /// Succ% — overall coverage.
    pub fn succ_pct(&self) -> f64 {
        self.pct(self.succeeded())
    }

    /// Render as a Table-1-style row fragment:
    /// `#Loc Base% T1% T2% T3% Succ%`.
    pub fn table_row(&self) -> String {
        format!(
            "{:>8} {:>7.2} {:>6.2} {:>6.2} {:>6.2} {:>7.2}",
            self.total(),
            self.base_pct(),
            self.t1_pct(),
            self.t2_pct(),
            self.t3_pct(),
            self.succ_pct()
        )
    }
}

/// File-size and memory statistics for a rewriting run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SizeStats {
    /// Input binary file size.
    pub input_bytes: u64,
    /// Output binary file size.
    pub output_bytes: u64,
    /// Number of virtual blocks that contain trampoline bytes.
    pub virtual_blocks: u64,
    /// Number of merged physical blocks emitted to the file.
    pub physical_blocks: u64,
    /// Number of `mmap` mappings the loader must create.
    pub mappings: u64,
    /// Block granularity in pages (the paper's `M`).
    pub granularity: u64,
}

impl SizeStats {
    /// Size% — output size as a percentage of the input size (Table 1
    /// reports e.g. 157.43 meaning +57.43%).
    pub fn size_pct(&self) -> f64 {
        if self.input_bytes == 0 {
            0.0
        } else {
            100.0 * self.output_bytes as f64 / self.input_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentages() {
        let mut s = PatchStats::default();
        for _ in 0..70 {
            s.record(TacticKind::B2);
        }
        for _ in 0..10 {
            s.record(TacticKind::B1);
        }
        for _ in 0..14 {
            s.record(TacticKind::T1);
        }
        for _ in 0..3 {
            s.record(TacticKind::T2);
        }
        for _ in 0..2 {
            s.record(TacticKind::T3);
        }
        s.record_failure();
        assert_eq!(s.total(), 100);
        assert!((s.base_pct() - 80.0).abs() < 1e-9);
        assert!((s.t1_pct() - 14.0).abs() < 1e-9);
        assert!((s.succ_pct() - 99.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = PatchStats::default();
        assert_eq!(s.total(), 0);
        assert_eq!(s.succ_pct(), 0.0);
    }

    #[test]
    fn b0_not_counted_as_success() {
        let mut s = PatchStats::default();
        s.record(TacticKind::B0);
        assert_eq!(s.total(), 1);
        assert_eq!(s.succeeded(), 0);
        assert_eq!(s.succ_pct(), 0.0);
    }

    #[test]
    fn size_pct() {
        let s = SizeStats {
            input_bytes: 1000,
            output_bytes: 1574,
            ..SizeStats::default()
        };
        assert!((s.size_pct() - 157.4).abs() < 1e-9);
    }

    #[test]
    fn table_row_format() {
        let mut s = PatchStats::default();
        s.record(TacticKind::B2);
        let row = s.table_row();
        assert!(row.contains("100.00"));
    }
}
