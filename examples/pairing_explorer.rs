//! Pairing explorer: compare CUDA, MPS and Slate on any benchmark pairing.
//!
//! ```text
//! cargo run --release --example pairing_explorer            # default BS RG
//! cargo run --release --example pairing_explorer -- GS RG
//! cargo run --release --example pairing_explorer -- MM BS --scale 4
//! ```
//!
//! Prints each application's time under the three runtimes, the ANTT
//! normalized to the CUDA solo baseline, and what Slate decided (corun with
//! partition sizes, or consecutive solo runs). With `--gantt`, also reruns
//! the Slate pairing traced (`Runtime::run_traced`) and renders its
//! SM-occupancy timeline, making the spatial partition and the dynamic
//! resizing visible.

use slate_baselines::{CudaRuntime, MpsRuntime, Runtime};
use slate_core::classify::WorkloadClass;
use slate_core::partition::partition;
use slate_core::policy::should_corun;
use slate_core::profile::profile_kernel;
use slate_core::SlateRuntime;
use slate_gpu_sim::device::DeviceConfig;
use slate_kernels::workload::Benchmark;

fn parse_bench(s: &str) -> Option<Benchmark> {
    Benchmark::ALL
        .into_iter()
        .find(|b| b.abbrev().eq_ignore_ascii_case(s))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut names: Vec<&str> = Vec::new();
    let mut scale = 8u32;
    let mut gantt = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--scale" {
            scale = it.next().and_then(|v| v.parse().ok()).unwrap_or(8);
        } else if a == "--gantt" {
            gantt = true;
        } else {
            names.push(a);
        }
    }
    let (a, b) = match names.as_slice() {
        [] => (Benchmark::BS, Benchmark::RG),
        [x, y] => match (parse_bench(x), parse_bench(y)) {
            (Some(a), Some(b)) => (a, b),
            _ => {
                eprintln!("unknown benchmark; choose from BS GS MM RG TR");
                std::process::exit(2);
            }
        },
        _ => {
            eprintln!("usage: pairing_explorer [A B] [--scale N]");
            std::process::exit(2);
        }
    };

    let cfg = DeviceConfig::titan_xp();
    let apps = [a.app().scaled_down(scale), b.app().scaled_down(scale)];

    // What will Slate decide? Profile, classify, consult the policy.
    let profs: Vec<_> = apps
        .iter()
        .map(|app| {
            profile_kernel(&cfg, &app.perf, app.blocks_per_launch)
                .expect("built-in benchmark profiles are launchable")
        })
        .collect();
    let classes: Vec<WorkloadClass> = profs.iter().map(|p| p.class).collect();
    println!(
        "{}: {} ({:.1} GFLOP/s, {:.1} GB/s, SM demand {})",
        a.abbrev(),
        classes[0],
        profs[0].gflops,
        profs[0].bandwidth_gbs,
        profs[0].sm_demand
    );
    println!(
        "{}: {} ({:.1} GFLOP/s, {:.1} GB/s, SM demand {})",
        b.abbrev(),
        classes[1],
        profs[1].gflops,
        profs[1].bandwidth_gbs,
        profs[1].sm_demand
    );
    if should_corun(classes[0], classes[1]) {
        let part = partition(&cfg, profs[0].sm_demand, profs[1].sm_demand);
        println!(
            "policy: CORUN — partition {} gets SMs {}..={}, {} gets SMs {}..={}\n",
            a.abbrev(),
            part.a.lo,
            part.a.hi,
            b.abbrev(),
            part.b.lo,
            part.b.hi
        );
    } else {
        println!("policy: SOLO — kernels run consecutively, each on all 30 SMs\n");
    }

    let cuda = CudaRuntime::new(cfg.clone());
    let mps = MpsRuntime::new(cfg.clone());
    let slate = SlateRuntime::new(cfg.clone());
    let solos = [cuda.solo_time(&apps[0]), cuda.solo_time(&apps[1])];

    println!(
        "{:<8} {:>10} {:>10} {:>8}",
        "runtime",
        format!("{} (s)", a.abbrev()),
        format!("{} (s)", b.abbrev()),
        "ANTT"
    );
    let mut antts = Vec::new();
    for rt in [&cuda as &dyn Runtime, &mps, &slate] {
        let out = rt.run(&apps);
        let antt = out.antt(&solos);
        println!(
            "{:<8} {:>10.2} {:>10.2} {:>8.3}",
            rt.label(),
            out.apps[0].app_time_s,
            out.apps[1].app_time_s,
            antt
        );
        antts.push(antt);
    }
    println!(
        "\nSlate vs MPS: {:+.1}%   Slate vs CUDA: {:+.1}%",
        (antts[1] / antts[2] - 1.0) * 100.0,
        (antts[0] / antts[2] - 1.0) * 100.0
    );
    if gantt {
        let (out, tr) = slate.run_traced(&apps);
        println!(
            "\nSlate schedule ({} resizes for {}, {} for {}):",
            out.apps[0].resizes,
            a.abbrev(),
            out.apps[1].resizes,
            b.abbrev()
        );
        println!("{}", tr.gantt(cfg.num_sms, 100));
    }
}
