//! Workload classification (paper §III-B2).
//!
//! Slate characterises kernels by two intensities — compute (C) and memory
//! (M) — each at three levels (L/M/H), derived from the profiled solo
//! GFLOP/s and global-memory bandwidth. Memory intensity takes priority:
//! a kernel with high or medium memory intensity is classified `H_M` or
//! `M_M` regardless of its compute level; only memory-light kernels are
//! distinguished by compute (`L_C`, `M_C`, `H_C`).

use serde::{Deserialize, Serialize};
use slate_kernels::workload::Intensity;

/// GFLOP/s below this is Low compute intensity.
pub(crate) const COMPUTE_LOW_GFLOPS: f64 = 100.0;
/// GFLOP/s at or above this is High compute intensity.
pub(crate) const COMPUTE_HIGH_GFLOPS: f64 = 1000.0;
/// GB/s below this is Low memory intensity.
pub(crate) const MEMORY_LOW_GBS: f64 = 200.0;
/// GB/s at or above this is High memory intensity.
pub(crate) const MEMORY_HIGH_GBS: f64 = 450.0;

/// The five workload classes of the heuristic policy (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadClass {
    /// Low compute, low memory.
    LC,
    /// Medium compute, low memory.
    MC,
    /// High compute, low memory.
    HC,
    /// Medium memory (any compute level).
    MM,
    /// High memory (any compute level).
    HM,
}

impl WorkloadClass {
    /// All classes in Table I order.
    pub const ALL: [WorkloadClass; 5] = [
        WorkloadClass::LC,
        WorkloadClass::MC,
        WorkloadClass::HC,
        WorkloadClass::MM,
        WorkloadClass::HM,
    ];

    /// Paper notation (`L_C`, `M_M`, ...).
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadClass::LC => "L_C",
            WorkloadClass::MC => "M_C",
            WorkloadClass::HC => "H_C",
            WorkloadClass::MM => "M_M",
            WorkloadClass::HM => "H_M",
        }
    }
}

impl std::fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Compute intensity level from profiled GFLOP/s.
pub(crate) fn compute_intensity(gflops: f64) -> Intensity {
    if gflops < COMPUTE_LOW_GFLOPS {
        Intensity::Low
    } else if gflops < COMPUTE_HIGH_GFLOPS {
        Intensity::Med
    } else {
        Intensity::High
    }
}

/// Memory intensity level from profiled global request bandwidth (GB/s).
pub(crate) fn memory_intensity(gbs: f64) -> Intensity {
    if gbs < MEMORY_LOW_GBS {
        Intensity::Low
    } else if gbs < MEMORY_HIGH_GBS {
        Intensity::Med
    } else {
        Intensity::High
    }
}

/// Combines the two intensities into a workload class with memory priority
/// (paper: "Slate gives a higher priority to memory intensity over
/// computation intensity").
#[doc(hidden)]
pub fn classify(compute: Intensity, memory: Intensity) -> WorkloadClass {
    match memory {
        Intensity::High => WorkloadClass::HM,
        Intensity::Med => WorkloadClass::MM,
        Intensity::Low => match compute {
            Intensity::Low => WorkloadClass::LC,
            Intensity::Med => WorkloadClass::MC,
            Intensity::High => WorkloadClass::HC,
        },
    }
}

/// Classifies directly from profiled figures.
pub fn classify_measured(gflops: f64, gbs: f64) -> WorkloadClass {
    classify(compute_intensity(gflops), memory_intensity(gbs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use slate_kernels::workload::Benchmark;

    #[test]
    fn thresholds_partition_the_axis() {
        assert_eq!(compute_intensity(0.0), Intensity::Low);
        assert_eq!(compute_intensity(99.9), Intensity::Low);
        assert_eq!(compute_intensity(100.0), Intensity::Med);
        assert_eq!(compute_intensity(999.9), Intensity::Med);
        assert_eq!(compute_intensity(1000.0), Intensity::High);
        assert_eq!(memory_intensity(199.9), Intensity::Low);
        assert_eq!(memory_intensity(200.0), Intensity::Med);
        assert_eq!(memory_intensity(450.0), Intensity::High);
    }

    #[test]
    fn memory_takes_priority() {
        use Intensity::*;
        assert_eq!(classify(High, High), WorkloadClass::HM);
        assert_eq!(classify(High, Med), WorkloadClass::MM);
        assert_eq!(classify(Low, Med), WorkloadClass::MM);
        assert_eq!(classify(High, Low), WorkloadClass::HC);
        assert_eq!(classify(Med, Low), WorkloadClass::MC);
        assert_eq!(classify(Low, Low), WorkloadClass::LC);
    }

    /// The paper's Table II measurements must classify exactly as the paper
    /// uses them: BS/GS/MM -> M_M, RG -> L_C, TR -> H_M.
    #[test]
    fn paper_benchmarks_classify_as_expected() {
        let expect = [
            (Benchmark::BS, WorkloadClass::MM),
            (Benchmark::GS, WorkloadClass::MM),
            (Benchmark::MM, WorkloadClass::MM),
            (Benchmark::RG, WorkloadClass::LC),
            (Benchmark::TR, WorkloadClass::HM),
        ];
        for (b, class) in expect {
            let (gf, gb) = b.paper_reference();
            assert_eq!(classify_measured(gf, gb), class, "{b:?}");
        }
    }

    #[test]
    fn labels_are_paper_notation() {
        assert_eq!(WorkloadClass::LC.label(), "L_C");
        assert_eq!(WorkloadClass::HM.to_string(), "H_M");
    }
}
