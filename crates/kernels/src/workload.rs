//! The paper's benchmark suite and application workload descriptions.
//!
//! [`Benchmark`] enumerates the five Table II applications; [`AppSpec`]
//! describes one application *process* the way the evaluation runs it: a
//! host setup phase, input transfer, a repetition loop of kernel launches
//! sized so the solo CUDA run takes ~30 seconds (paper §V-A3), and an
//! output transfer. All three runtimes (CUDA, MPS, Slate) consume the same
//! [`AppSpec`]s.

use crate::{blackscholes, decode, gaussian, prefill, quasirandom, sgemm, transpose};
use serde::{Deserialize, Serialize};
use slate_gpu_sim::perf::KernelPerf;

/// Service-level objective class of a session, the scheduling dimension
/// the LLM serving workload family introduces: latency-critical work
/// (decode steps a user is waiting on) may preempt best-effort work
/// (prefill, batch jobs) within the arbiter's preemption bound.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SloClass {
    /// Tail-latency-sensitive: dispatched ahead of best-effort work, may
    /// trigger a bounded preemption of a best-effort resident.
    LatencyCritical,
    /// Throughput-oriented: yields to latency-critical arrivals but still
    /// ages to promotion under the starvation bound.
    #[default]
    BestEffort,
}

impl std::fmt::Display for SloClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SloClass::LatencyCritical => "latency-critical",
            SloClass::BestEffort => "best-effort",
        })
    }
}

/// Workload intensity level, as used by Table II's profile labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Intensity {
    /// Low intensity.
    Low,
    /// Medium intensity.
    Med,
    /// High intensity.
    High,
}

impl std::fmt::Display for Intensity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Intensity::Low => "Low",
            Intensity::Med => "Med",
            Intensity::High => "High",
        })
    }
}

/// The five applications of the paper's evaluation (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Benchmark {
    /// BlackScholes (BS) — Med compute / Med memory.
    BS,
    /// Gaussian elimination (GS) — Low compute / Med memory.
    GS,
    /// SGEMM (MM) — High compute / Med memory.
    MM,
    /// QuasiRandomGenerator (RG) — Low compute / Low memory.
    RG,
    /// Transpose (TR) — Low compute / High memory.
    TR,
    /// LLM prefill (PF) — High compute / Low memory. Not part of the
    /// paper's Table II suite (`ALL`): the throughput half of the LLM
    /// serving family.
    PF,
    /// LLM decode (DC) — Med compute / High memory. Not part of the
    /// paper's Table II suite (`ALL`): the latency-critical half of the
    /// LLM serving family.
    DC,
}

impl Benchmark {
    /// All five benchmarks, in Table II order.
    pub const ALL: [Benchmark; 5] = [
        Benchmark::BS,
        Benchmark::GS,
        Benchmark::MM,
        Benchmark::RG,
        Benchmark::TR,
    ];

    /// Two-letter abbreviation used throughout the paper.
    pub fn abbrev(&self) -> &'static str {
        match self {
            Benchmark::BS => "BS",
            Benchmark::GS => "GS",
            Benchmark::MM => "MM",
            Benchmark::RG => "RG",
            Benchmark::TR => "TR",
            Benchmark::PF => "PF",
            Benchmark::DC => "DC",
        }
    }

    /// Full benchmark name.
    pub fn full_name(&self) -> &'static str {
        match self {
            Benchmark::BS => "BlackScholes",
            Benchmark::GS => "Gaussian",
            Benchmark::MM => "SGEMM",
            Benchmark::RG => "QuasiRandomGenerator",
            Benchmark::TR => "Transpose",
            Benchmark::PF => "LlmPrefill",
            Benchmark::DC => "LlmDecode",
        }
    }

    /// Table II intensity labels: (compute, memory).
    pub fn intensity(&self) -> (Intensity, Intensity) {
        match self {
            Benchmark::BS => (Intensity::Med, Intensity::Med),
            Benchmark::GS => (Intensity::Low, Intensity::Med),
            Benchmark::MM => (Intensity::High, Intensity::Med),
            Benchmark::RG => (Intensity::Low, Intensity::Low),
            Benchmark::TR => (Intensity::Low, Intensity::High),
            Benchmark::PF => (Intensity::High, Intensity::Low),
            Benchmark::DC => (Intensity::Med, Intensity::High),
        }
    }

    /// Table II reference figures from the paper: (GFLOP/s, GB/s) measured
    /// solo under CUDA on the authors' Titan Xp.
    pub fn paper_reference(&self) -> (f64, f64) {
        match self {
            Benchmark::BS => (161.3, 401.49),
            Benchmark::GS => (19.6, 340.9),
            Benchmark::MM => (1525.0, 403.5),
            Benchmark::RG => (4.2, 71.6),
            Benchmark::TR => (0.0, 568.6),
            // PF/DC are not Table II rows; these are the calibration
            // targets of their simulated profiles.
            Benchmark::PF => (1500.0, 94.0),
            Benchmark::DC => (250.0, 535.0),
        }
    }

    /// Calibrated performance profile at the paper problem size.
    pub fn perf(&self) -> KernelPerf {
        match self {
            Benchmark::BS => blackscholes::paper_perf(),
            Benchmark::GS => gaussian::paper_perf(),
            Benchmark::MM => sgemm::paper_perf(),
            Benchmark::RG => quasirandom::paper_perf(),
            Benchmark::TR => transpose::paper_perf(),
            Benchmark::PF => prefill::paper_perf(),
            Benchmark::DC => decode::paper_perf(),
        }
    }

    /// The application workload the evaluation runs: a ~30-second solo-CUDA
    /// repetition loop at the paper problem size.
    pub fn app(&self) -> AppSpec {
        match self {
            // BlackScholes: 40M options, 2 ms per launch under CUDA; 15000
            // real launches batched 10x for simulation granularity.
            Benchmark::BS => AppSpec {
                bench: *self,
                perf: self.perf(),
                launches: 1500,
                blocks_per_launch: blackscholes::paper_blocks() * 10,
                batch: 10,
                real_launches: 15_000,
                task_size: 10,
                h2d_bytes: 480_000_000,
                d2h_bytes: 320_000_000,
                host_setup_s: 2.0,
                kernel_sources: 1,
                fixed_cost_scale: 1.0,
                pinned_solo: false,
                slo: SloClass::BestEffort,
            },
            // Gaussian: 112 solves of a 2048x2048 system; each solve is
            // 2*(n-1) = 4094 real launches dominated by Fan2 blocks.
            Benchmark::GS => AppSpec {
                bench: *self,
                perf: self.perf(),
                launches: 112,
                blocks_per_launch: gaussian::paper_blocks(),
                batch: 1,
                real_launches: 112 * 4094,
                task_size: 10,
                h2d_bytes: 112 * 2 * 2048 * 2048 * 4,
                d2h_bytes: 112 * 2048 * 4,
                host_setup_s: 2.5,
                kernel_sources: 2,
                fixed_cost_scale: 1.0,
                pinned_solo: false,
                slo: SloClass::BestEffort,
            },
            // SGEMM: 2048^3, ~11 ms per launch; 2660 real launches batched.
            Benchmark::MM => AppSpec {
                bench: *self,
                perf: self.perf(),
                launches: 665,
                blocks_per_launch: sgemm::paper_blocks() * 4,
                batch: 4,
                real_launches: 2660,
                task_size: 10,
                h2d_bytes: 3 * 2048 * 2048 * 4,
                d2h_bytes: 2048 * 2048 * 4,
                host_setup_s: 1.5,
                kernel_sources: 1,
                fixed_cost_scale: 1.0,
                pinned_solo: false,
                slo: SloClass::BestEffort,
            },
            // QuasiRandom: 40M points per launch across 3 dimensions;
            // 13450 real launches batched 10x.
            Benchmark::RG => AppSpec {
                bench: *self,
                perf: self.perf(),
                launches: 1345,
                blocks_per_launch: quasirandom::paper_blocks() * 10,
                batch: 10,
                real_launches: 13_450,
                task_size: 10,
                h2d_bytes: 1_000_000,
                d2h_bytes: 160_000_000,
                host_setup_s: 1.0,
                kernel_sources: 1,
                fixed_cost_scale: 1.0,
                pinned_solo: false,
                slo: SloClass::BestEffort,
            },
            // Transpose: 16384^2 floats, ~3.8 ms per launch; 7940 real
            // launches batched 8x.
            Benchmark::TR => AppSpec {
                bench: *self,
                perf: self.perf(),
                launches: 992,
                blocks_per_launch: transpose::paper_blocks() * 8,
                batch: 8,
                real_launches: 7_940,
                task_size: 10,
                h2d_bytes: 16_384 * 16_384 * 4,
                d2h_bytes: 16_384 * 16_384 * 4,
                host_setup_s: 2.0,
                kernel_sources: 1,
                fixed_cost_scale: 1.0,
                pinned_solo: false,
                slo: SloClass::BestEffort,
            },
            // LLM prefill: ~46 ms attention-score launches, one per layer
            // batch; a ~30 s best-effort throughput loop.
            Benchmark::PF => AppSpec {
                bench: *self,
                perf: self.perf(),
                launches: 660,
                blocks_per_launch: prefill::paper_blocks(),
                batch: 1,
                real_launches: 660,
                task_size: 10,
                h2d_bytes: 2 * 4096 * 2048 * 4,
                d2h_bytes: 4096 * 4096 * 4,
                host_setup_s: 1.5,
                kernel_sources: 1,
                fixed_cost_scale: 1.0,
                pinned_solo: false,
                slo: SloClass::BestEffort,
            },
            // LLM decode: ~0.5 ms batched token steps, 8 real steps per
            // simulated launch; latency-critical by definition.
            Benchmark::DC => AppSpec {
                bench: *self,
                perf: self.perf(),
                launches: 2000,
                blocks_per_launch: decode::paper_blocks() * 8,
                batch: 8,
                real_launches: 16_000,
                task_size: 10,
                h2d_bytes: 50_000_000,
                d2h_bytes: 50_000_000,
                host_setup_s: 0.5,
                kernel_sources: 1,
                fixed_cost_scale: 1.0,
                pinned_solo: false,
                slo: SloClass::LatencyCritical,
            },
        }
    }

    /// All 15 pairings the paper evaluates (10 distinct pairs + 5 self
    /// pairs), in a stable order.
    pub fn all_pairings() -> Vec<(Benchmark, Benchmark)> {
        let mut v = Vec::with_capacity(15);
        for (i, &a) in Self::ALL.iter().enumerate() {
            for &b in &Self::ALL[i..] {
                v.push((a, b));
            }
        }
        v
    }
}

/// One application process as the evaluation runs it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppSpec {
    /// Which benchmark this is.
    pub bench: Benchmark,
    /// Kernel performance profile.
    pub perf: KernelPerf,
    /// Simulated launches (repetitions may be batched into one simulated
    /// launch for event-count economy; timing is unaffected apart from the
    /// negligible per-launch latency).
    pub launches: u32,
    /// Thread blocks per simulated launch.
    pub blocks_per_launch: u64,
    /// Real launches collapsed into one simulated launch
    /// (`blocks_per_launch` covers `batch` real launches).
    pub batch: u32,
    /// Real API-level kernel launches the application performs (drives
    /// client-daemon communication accounting).
    pub real_launches: u64,
    /// Slate task size (`SLATE_ITERS`) for this application.
    pub task_size: u32,
    /// Input bytes transferred host-to-device over the app lifetime.
    pub h2d_bytes: u64,
    /// Output bytes transferred device-to-host.
    pub d2h_bytes: u64,
    /// Host-side setup time (allocation, input generation) in seconds.
    pub host_setup_s: f64,
    /// Distinct kernel sources Slate must inject and compile.
    pub kernel_sources: u32,
    /// Scale factor applied to one-time fixed costs (session setup,
    /// injection/compilation). 1.0 for real runs; `scaled_down` divides it
    /// so that scaled test workloads keep the full run's proportions.
    pub fixed_cost_scale: f64,
    /// Marks a heavily optimized (library) kernel that Slate must run solo
    /// and never co-schedule (paper §IV-A1 future work; `#pragma slate
    /// solo`).
    pub pinned_solo: bool,
    /// Service-level objective class of the session running this app.
    /// Defaults to best-effort; absent in logs recorded before the SLO
    /// dimension existed.
    #[serde(default)]
    pub slo: SloClass,
}

impl AppSpec {
    /// Total thread blocks the app executes.
    pub fn total_blocks(&self) -> u64 {
        self.launches as u64 * self.blocks_per_launch
    }

    /// A scaled-down copy (launches, transfers and host setup all divided by
    /// `factor`) for fast tests. Per-launch shape is preserved, so paired
    /// scaled apps still contend for the device the way full apps do.
    pub fn scaled_down(&self, factor: u32) -> AppSpec {
        let mut s = self.clone();
        s.launches = (s.launches / factor).max(1);
        s.real_launches = (s.real_launches / factor as u64).max(1);
        s.h2d_bytes /= factor as u64;
        s.d2h_bytes /= factor as u64;
        s.host_setup_s /= factor as f64;
        s.fixed_cost_scale /= factor as f64;
        s
    }
}

/// Parameters of the seeded open-loop LLM serving trace: bursts of
/// latency-critical decode sessions arriving over a background of
/// best-effort prefill loops. Everything is derived from `seed` by a
/// xorshift generator, so the same config always yields the same trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LlmTraceCfg {
    /// PRNG seed for arrival jitter.
    pub seed: u64,
    /// Best-effort prefill sessions running throughout the trace.
    pub prefill_sessions: u32,
    /// Latency-critical decode sessions arriving in bursts.
    pub decode_sessions: u32,
    /// Decode arrivals per burst.
    pub burst: u32,
    /// Gap between the starts of consecutive bursts, seconds.
    pub inter_burst_s: f64,
    /// Maximum in-burst arrival jitter, seconds.
    pub jitter_s: f64,
    /// Simulated decode launches (token-step groups) per decode session.
    pub decode_launches: u32,
    /// `scaled_down` factor applied to the app bodies.
    pub scale: u32,
}

impl LlmTraceCfg {
    /// A paper-scale serving mix: two prefill loops, decode bursts of four
    /// every 200 ms.
    pub fn paper(seed: u64) -> Self {
        Self {
            seed,
            prefill_sessions: 2,
            decode_sessions: 24,
            burst: 4,
            inter_burst_s: 0.2,
            jitter_s: 0.01,
            decode_launches: 3,
            scale: 1,
        }
    }
}

/// Deterministic xorshift64 step, the workspace's seeded-PRNG idiom.
pub(crate) fn xorshift64(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Builds the open-loop mixed-SLO trace: prefill sessions first (arriving
/// near t=0, staggered), then decode sessions in arrival order. Arrival
/// offsets ride on `host_setup_s`, which is exactly the pre-start delay the
/// runtimes model before a session opens.
pub fn llm_trace(cfg: &LlmTraceCfg) -> Vec<AppSpec> {
    let mut rng = cfg.seed | 1;
    let mut apps = Vec::with_capacity((cfg.prefill_sessions + cfg.decode_sessions) as usize);
    for i in 0..cfg.prefill_sessions {
        let mut app = Benchmark::PF.app().scaled_down(cfg.scale);
        // Stagger prefill starts slightly so their launch boundaries don't
        // stay phase-locked.
        app.host_setup_s = 0.05 * i as f64;
        app.slo = SloClass::BestEffort;
        apps.push(app);
    }
    for i in 0..cfg.decode_sessions {
        let mut app = Benchmark::DC.app().scaled_down(cfg.scale);
        let burst_idx = (i / cfg.burst.max(1)) as f64;
        let jitter = if cfg.jitter_s > 0.0 {
            (xorshift64(&mut rng) % 1_000_000) as f64 / 1e6 * cfg.jitter_s
        } else {
            0.0
        };
        app.host_setup_s = burst_idx * cfg.inter_burst_s + jitter;
        app.launches = cfg.decode_launches.max(1);
        app.real_launches = app.launches as u64 * app.batch as u64;
        app.slo = SloClass::LatencyCritical;
        apps.push(app);
    }
    apps
}

#[cfg(test)]
mod tests {
    use super::*;
    use slate_gpu_sim::device::DeviceConfig;

    #[test]
    fn all_pairings_count_is_15() {
        let p = Benchmark::all_pairings();
        assert_eq!(p.len(), 15);
        // 5 self-pairs.
        assert_eq!(p.iter().filter(|(a, b)| a == b).count(), 5);
    }

    #[test]
    fn profiles_validate() {
        for b in Benchmark::ALL {
            b.perf().validate().unwrap_or_else(|e| panic!("{b:?}: {e}"));
        }
    }

    #[test]
    fn intensity_labels_match_table2() {
        use Intensity::*;
        assert_eq!(Benchmark::BS.intensity(), (Med, Med));
        assert_eq!(Benchmark::GS.intensity(), (Low, Med));
        assert_eq!(Benchmark::MM.intensity(), (High, Med));
        assert_eq!(Benchmark::RG.intensity(), (Low, Low));
        assert_eq!(Benchmark::TR.intensity(), (Low, High));
    }

    /// Each app's solo kernel time under the simulated hardware scheduler
    /// should be in the vicinity of the paper's ~30 s looping target.
    #[test]
    fn solo_cuda_kernel_time_near_30s() {
        let d = DeviceConfig::titan_xp();
        for b in Benchmark::ALL {
            let app = b.app();
            let p = &app.perf;
            let per_sm = slate_gpu_sim::occupancy::blocks_per_sm(&d, p) as f64;
            let useful = match p.max_concurrent_blocks {
                Some(c) => (c as f64 / per_sm).min(d.num_sms as f64),
                None => d.num_sms as f64,
            };
            let util =
                (per_sm * p.threads_per_block as f64 / d.threads_for_peak_per_sm as f64).min(1.0);
            let r_comp =
                useful * d.clock_hz * util / (p.compute_cycles_per_block + d.block_setup_cycles);
            let r_mem = d.dram_bw.min(useful * d.per_sm_mem_bw) / p.dram_bytes_scattered.max(1e-9);
            let r = r_comp.min(r_mem);
            let t = app.total_blocks() as f64 / r;
            assert!(
                (24.0..40.0).contains(&t),
                "{b:?}: solo kernel time {t:.1}s out of range"
            );
        }
    }

    #[test]
    fn scaled_down_reduces_work() {
        let app = Benchmark::BS.app();
        let s = app.scaled_down(100);
        assert!(s.launches >= 1 && s.launches < app.launches);
        assert!(s.total_blocks() < app.total_blocks());
    }

    #[test]
    fn llm_family_is_outside_the_table2_suite() {
        assert!(!Benchmark::ALL.contains(&Benchmark::PF));
        assert!(!Benchmark::ALL.contains(&Benchmark::DC));
        Benchmark::PF.perf().validate().unwrap();
        Benchmark::DC.perf().validate().unwrap();
        assert_eq!(Benchmark::PF.app().slo, SloClass::BestEffort);
        assert_eq!(Benchmark::DC.app().slo, SloClass::LatencyCritical);
    }

    #[test]
    fn slo_class_defaults_to_best_effort() {
        assert_eq!(SloClass::default(), SloClass::BestEffort);
        for b in Benchmark::ALL {
            assert_eq!(b.app().slo, SloClass::BestEffort);
        }
    }

    #[test]
    fn llm_trace_is_deterministic_and_bursty() {
        let cfg = LlmTraceCfg::paper(0xC0FFEE);
        let a = llm_trace(&cfg);
        let b = llm_trace(&cfg);
        assert_eq!(a.len(), b.len());
        assert_eq!(
            a.len(),
            (cfg.prefill_sessions + cfg.decode_sessions) as usize
        );
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.host_setup_s, y.host_setup_s, "same seed, same trace");
        }
        let decodes: Vec<&AppSpec> = a.iter().filter(|s| s.bench == Benchmark::DC).collect();
        assert_eq!(decodes.len(), cfg.decode_sessions as usize);
        assert!(decodes.iter().all(|d| d.slo == SloClass::LatencyCritical));
        // Arrivals within one burst are close; across bursts they are
        // separated by roughly the inter-burst gap.
        let first_burst = &decodes[..cfg.burst as usize];
        for d in first_burst {
            assert!(d.host_setup_s <= cfg.jitter_s);
        }
        assert!(decodes[cfg.burst as usize].host_setup_s >= cfg.inter_burst_s);
        // A different seed moves the jitter.
        let other = llm_trace(&LlmTraceCfg {
            seed: 0x5EED,
            ..cfg.clone()
        });
        assert!(a
            .iter()
            .zip(&other)
            .any(|(x, y)| x.host_setup_s != y.host_setup_s));
    }
}
