//! Kernel profiling and the profile table (paper §IV-B, Table V "offline").
//!
//! The daemon profiles each kernel on its first run (solo, under normal
//! hardware scheduling — the nvprof flow of §V-A) and stores the measured
//! GFLOP/s and global bandwidth in a table it consults online; the lookup
//! itself is negligible. Profiles classify the kernel
//! ([`WorkloadClass`]) and record its SM demand for the partitioner.
//! The table persists as JSON between daemon runs.

use crate::classify::{classify_measured, WorkloadClass};
use serde::{Deserialize, Serialize};
use slate_gpu_sim::device::{DeviceConfig, SmRange};
use slate_gpu_sim::engine::{Engine, Event, SliceSpec};
use slate_gpu_sim::model;
use slate_gpu_sim::perf::{ExecMode, KernelPerf};
use std::collections::BTreeMap;
use std::path::Path;

/// Fraction of the full-device rate that defines the SM-demand knee.
pub(crate) const DEMAND_FRACTION: f64 = 0.9;

/// Task sizes the autotuner evaluates (the paper's Fig. 5 sweep).
pub(crate) const TASK_SIZE_CANDIDATES: [u32; 6] = [1, 2, 5, 10, 20, 50];

/// One kernel's stored profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelProfile {
    /// Kernel name.
    pub name: String,
    /// Measured solo compute rate (GFLOP/s).
    pub gflops: f64,
    /// Measured solo global load+store bandwidth (GB/s).
    pub bandwidth_gbs: f64,
    /// Measured solo block completion rate (blocks/s).
    pub block_rate: f64,
    /// Derived workload class.
    pub class: WorkloadClass,
    /// SMs needed to reach `DEMAND_FRACTION` of the full-device Slate
    /// rate — the partitioner's share for this kernel.
    pub sm_demand: u32,
    /// Task size that minimised this kernel's solo Slate time during
    /// first-run profiling (the Fig. 5 sweep: small tasks pay atomics,
    /// large tasks pay imbalance).
    pub best_task_size: u32,
}

/// Measures a kernel's solo Slate time at one task size.
fn slate_solo_time(cfg: &DeviceConfig, perf: &KernelPerf, blocks: u64, task_size: u32) -> f64 {
    let mut engine = Engine::new(cfg.clone());
    let id = engine
        .add_slice(SliceSpec {
            perf: perf.clone(),
            sm_range: SmRange::all(cfg.num_sms),
            blocks,
            mode: ExecMode::SlateWorkers { task_size },
            extra_lead_s: 0.0,
            batch: 1,
            tag: 0,
        })
        .expect("autotune launch must be valid");
    let (t, _) = engine
        .run_until(|ev| matches!(ev, Event::SliceDrained(_)))
        .expect("autotune run completes");
    let _ = engine.remove_slice(id);
    t
}

/// Sweeps [`TASK_SIZE_CANDIDATES`] and returns the fastest task size for a
/// solo Slate run of `blocks` blocks.
pub(crate) fn autotune_task_size(cfg: &DeviceConfig, perf: &KernelPerf, blocks: u64) -> u32 {
    TASK_SIZE_CANDIDATES
        .into_iter()
        .map(|size| (slate_solo_time(cfg, perf, blocks, size), size))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("candidates are non-empty")
        .1
}

/// Profiles a kernel by running a measurement slice solo on the simulated
/// device under hardware scheduling (first-run profiling). Fails, with
/// the reason, if `perf` is inconsistent ([`KernelPerf::validate`]) or not
/// one block of the kernel fits an SM of `cfg` — kernel profiles come from
/// clients, so this is an error to report, not an invariant to assert.
pub fn profile_kernel(
    cfg: &DeviceConfig,
    perf: &KernelPerf,
    blocks: u64,
) -> Result<KernelProfile, String> {
    let mut engine = Engine::new(cfg.clone());
    let id = engine.add_slice(SliceSpec {
        perf: perf.clone(),
        sm_range: SmRange::all(cfg.num_sms),
        blocks,
        mode: ExecMode::Hardware,
        extra_lead_s: 0.0,
        batch: 1,
        tag: 0,
    })?;
    engine
        .run_until(|ev| matches!(ev, Event::SliceDrained(_)))
        .expect("profiling run completes");
    let rep = engine.remove_slice(id);
    let gflops = rep.gflops();
    let gbs = rep.request_bw();
    Ok(KernelProfile {
        name: perf.name.to_string(),
        gflops,
        bandwidth_gbs: gbs,
        block_rate: rep.blocks_done as f64 / rep.active_s.max(1e-12),
        class: classify_measured(gflops, gbs),
        sm_demand: model::sm_demand(
            cfg,
            perf,
            ExecMode::SlateWorkers { task_size: 10 },
            DEMAND_FRACTION,
        ),
        // Cannot fail: the profiling slice above passed the same checks.
        best_task_size: autotune_task_size(cfg, perf, blocks),
    })
}

/// The daemon's kernel profile table.
///
/// Keyed by an ordered map, not a hash map: profile estimates feed
/// scheduling decisions (admission hints, placement load), so any
/// iteration over the table — and the saved JSON — must be deterministic.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ProfileTable {
    entries: BTreeMap<String, KernelProfile>,
}

impl ProfileTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a kernel by name.
    #[cfg(test)]
    pub(crate) fn get(&self, name: &str) -> Option<&KernelProfile> {
        self.entries.get(name)
    }

    /// Inserts or replaces a profile.
    #[doc(hidden)]
    pub fn insert(&mut self, p: KernelProfile) {
        self.entries.insert(p.name.clone(), p);
    }

    /// Returns the profile, measuring it first if absent (the first-run
    /// profiling flow).
    ///
    /// # Panics
    /// If the kernel is unprofiled and cannot be ([`profile_kernel`]);
    /// for a client's kernel use `ProfileTable::try_get_or_profile`.
    pub fn get_or_profile(
        &mut self,
        cfg: &DeviceConfig,
        perf: &KernelPerf,
        blocks: u64,
    ) -> &KernelProfile {
        self.try_get_or_profile(cfg, perf, blocks)
            .expect("profiling launch must be valid")
    }

    /// [`ProfileTable::get_or_profile`] that reports a kernel the device
    /// cannot launch instead of panicking; nothing is stored for it.
    pub(crate) fn try_get_or_profile(
        &mut self,
        cfg: &DeviceConfig,
        perf: &KernelPerf,
        blocks: u64,
    ) -> Result<&KernelProfile, String> {
        let name: &str = &perf.name;
        if !self.entries.contains_key(name) {
            let p = profile_kernel(cfg, perf, blocks)?;
            self.entries.insert(name.to_string(), p);
        }
        Ok(&self.entries[name])
    }

    /// Estimates the solo execution time of `blocks` blocks of a kernel in
    /// whole milliseconds (rounded up, minimum 1) from its measured solo
    /// block-completion rate. Returns `None` for unprofiled kernels or
    /// degenerate rates — callers must then admit optimistically. Admission
    /// control uses this to compute `retry_after_ms` hints and to reject
    /// deadline-carrying launches whose queue wait already exceeds the
    /// deadline.
    pub fn estimate_solo_ms(&self, name: &str, blocks: u64) -> Option<u64> {
        let p = self.entries.get(name)?;
        if !(p.block_rate.is_finite() && p.block_rate > 0.0) {
            return None;
        }
        let ms = (blocks as f64 / p.block_rate * 1e3).ceil();
        Some((ms as u64).max(1))
    }

    /// Number of stored profiles.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Persists the table as JSON.
    #[doc(hidden)]
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let json = serde_json::to_string_pretty(self).expect("profile table serializes");
        std::fs::write(path, json)
    }

    /// Loads a table from JSON.
    #[cfg(test)]
    pub(crate) fn load(path: &Path) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        serde_json::from_str(&json)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slate_kernels::workload::Benchmark;

    #[test]
    fn profiles_reproduce_table2_classes() {
        let cfg = DeviceConfig::titan_xp();
        let expect = [
            (Benchmark::BS, WorkloadClass::MM),
            (Benchmark::GS, WorkloadClass::MM),
            (Benchmark::MM, WorkloadClass::MM),
            (Benchmark::RG, WorkloadClass::LC),
            (Benchmark::TR, WorkloadClass::HM),
        ];
        for (b, class) in expect {
            let app = b.app();
            let p = profile_kernel(&cfg, &app.perf, app.blocks_per_launch).unwrap();
            assert_eq!(p.class, class, "{b:?} measured {p:?}");
        }
    }

    #[test]
    fn measured_figures_match_paper_within_15_percent() {
        let cfg = DeviceConfig::titan_xp();
        for b in Benchmark::ALL {
            let app = b.app();
            let p = profile_kernel(&cfg, &app.perf, app.blocks_per_launch).unwrap();
            let (gf_ref, gb_ref) = b.paper_reference();
            if gf_ref > 1.0 {
                let err = (p.gflops - gf_ref).abs() / gf_ref;
                assert!(err < 0.15, "{b:?} GFLOP/s {} vs {}", p.gflops, gf_ref);
            }
            let err = (p.bandwidth_gbs - gb_ref).abs() / gb_ref;
            assert!(err < 0.15, "{b:?} GB/s {} vs {}", p.bandwidth_gbs, gb_ref);
        }
    }

    #[test]
    fn rg_demand_is_a_fraction_of_the_device() {
        let cfg = DeviceConfig::titan_xp();
        let app = Benchmark::RG.app();
        let p = profile_kernel(&cfg, &app.perf, app.blocks_per_launch).unwrap();
        assert!(
            (10..=16).contains(&p.sm_demand),
            "RG should saturate around 15 SMs, got {}",
            p.sm_demand
        );
    }

    #[test]
    fn unlaunchable_kernels_are_an_error_not_a_panic() {
        let cfg = DeviceConfig::titan_xp();
        // Fits no SM (2048 threads per block), and fails validation.
        let mut fat = Benchmark::BS.app().perf;
        fat.threads_per_block = 2048;
        assert!(profile_kernel(&cfg, &fat, 100).is_err());
        // Valid, but not one block's shared memory fits an SM.
        let mut hog = Benchmark::BS.app().perf;
        hog.smem_per_block = cfg.smem_per_sm + 1;
        let err = profile_kernel(&cfg, &hog, 100).unwrap_err();
        assert!(err.contains("occupancy 0"), "{err}");
        let mut t = ProfileTable::new();
        assert!(t.try_get_or_profile(&cfg, &hog, 100).is_err());
        assert!(t.is_empty(), "nothing is stored for a rejected kernel");
    }

    #[test]
    fn autotuner_matches_fig5_preferences() {
        // BS prefers task size 1 (imbalance dominates); GS prefers a
        // grouped size (atomics dominate) — the paper's Fig. 5 story.
        let cfg = DeviceConfig::titan_xp();
        let bs = Benchmark::BS.app();
        let bs_best = autotune_task_size(&cfg, &bs.perf, bs.blocks_per_launch / bs.batch as u64);
        assert_eq!(bs_best, 1, "BS is imbalance-bound");
        let gs = Benchmark::GS.app();
        let gs_best = autotune_task_size(&cfg, &gs.perf, gs.blocks_per_launch / gs.batch as u64);
        assert!(gs_best >= 5, "GS is atomic-bound, got {gs_best}");
    }

    #[test]
    fn get_or_profile_measures_once() {
        let cfg = DeviceConfig::titan_xp();
        let app = Benchmark::BS.app();
        let mut t = ProfileTable::new();
        assert!(t.is_empty());
        let first = t
            .get_or_profile(&cfg, &app.perf, app.blocks_per_launch)
            .clone();
        let second = t
            .get_or_profile(&cfg, &app.perf, app.blocks_per_launch)
            .clone();
        assert_eq!(first, second);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn table_roundtrips_through_json() {
        let cfg = DeviceConfig::titan_xp();
        let mut t = ProfileTable::new();
        for b in Benchmark::ALL {
            let app = b.app();
            t.get_or_profile(&cfg, &app.perf, app.blocks_per_launch);
        }
        let dir = std::env::temp_dir().join("slate-profile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profiles.json");
        t.save(&path).unwrap();
        let loaded = ProfileTable::load(&path).unwrap();
        assert_eq!(loaded.len(), t.len());
        for b in Benchmark::ALL {
            let name = b.app().perf.name;
            let (l, o) = (loaded.get(&name).unwrap(), t.get(&name).unwrap());
            assert_eq!(l.name, o.name);
            assert_eq!(l.class, o.class);
            assert_eq!(l.sm_demand, o.sm_demand);
            // Floats may lose the last ulp through the JSON text form.
            assert!((l.gflops - o.gflops).abs() < 1e-9);
            assert!((l.bandwidth_gbs - o.bandwidth_gbs).abs() < 1e-9);
        }
        std::fs::remove_file(&path).ok();
    }
}
