//! Multiprocessing demo: two client processes share the GPU through the
//! Slate daemon, co-running complementary kernels with live resizing.
//!
//! Process A runs Transpose (memory-heavy, class H_M); process B runs
//! QuasiRandom (low-intensity, class L_C). The Table I policy marks them
//! complementary, so the daemon's arbiter partitions the SMs and — when one
//! finishes — grows the survivor through the dispatch kernel's
//! retreat/relaunch mechanism. The example validates both results and
//! prints daemon statistics.
//!
//! ```text
//! cargo run --example multiprocess_daemon
//! ```

use slate_core::api::SlateClient;
use slate_core::daemon::SlateDaemon;
use slate_gpu_sim::device::DeviceConfig;
use slate_kernels::quasirandom::{direction_table, point, QuasiRandomKernel, DIMENSIONS};
use slate_kernels::transpose::TransposeKernel;
use std::sync::Arc;

fn main() {
    let daemon = SlateDaemon::start(DeviceConfig::titan_xp(), 12 << 30);

    // Process A: tiled transposes.
    let daemon_a = daemon.clone();
    let proc_a = std::thread::spawn(move || {
        let client = SlateClient::new(daemon_a.connect("transpose-app").unwrap());
        let (rows, cols) = (512u32, 384u32);
        let n = (rows * cols) as usize;
        let input: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let d_in = client.malloc((n * 4) as u64).unwrap();
        let d_out = client.malloc((n * 4) as u64).unwrap();
        client.upload_f32(d_in, &input).unwrap();
        for _rep in 0..4 {
            client
                .launch_with(vec![d_in, d_out], 10, None, move |bufs| {
                    Arc::new(TransposeKernel::new(
                        rows,
                        cols,
                        bufs[0].clone(),
                        bufs[1].clone(),
                    )) as Arc<dyn slate_kernels::GpuKernel>
                })
                .unwrap();
        }
        client.synchronize().unwrap();
        let out = client.download_f32(d_out, n).unwrap();
        for r in (0..rows as usize).step_by(97) {
            for c in (0..cols as usize).step_by(41) {
                assert_eq!(
                    out[c * rows as usize + r],
                    input[r * cols as usize + c],
                    "transpose mismatch at ({r},{c})"
                );
            }
        }
        client.disconnect().unwrap();
        println!("[transpose-app] 4 transposes verified");
    });

    // Process B: quasirandom sequence generation.
    let daemon_b = daemon.clone();
    let proc_b = std::thread::spawn(move || {
        let client = SlateClient::new(daemon_b.connect("quasirandom-app").unwrap());
        let n = 50_000u64;
        let d_out = client.malloc(n * DIMENSIONS as u64 * 4).unwrap();
        for _rep in 0..4 {
            client
                .launch_with(vec![d_out], 10, None, move |bufs| {
                    Arc::new(QuasiRandomKernel::new(n, bufs[0].clone()))
                        as Arc<dyn slate_kernels::GpuKernel>
                })
                .unwrap();
        }
        client.synchronize().unwrap();
        let out = client
            .download_f32(d_out, (n * DIMENSIONS as u64) as usize)
            .unwrap();
        let table = direction_table();
        for dim in 0..DIMENSIONS {
            for i in [0u64, 1, n / 3, n - 1] {
                assert_eq!(
                    out[(dim as u64 * n + i) as usize],
                    point(&table, dim, i),
                    "quasirandom mismatch at dim {dim}, index {i}"
                );
            }
        }
        client.disconnect().unwrap();
        println!("[quasirandom-app] 4 generations verified");
    });

    proc_a.join().unwrap();
    proc_b.join().unwrap();
    daemon.join();

    println!(
        "daemon served {} kernel launches from 2 client processes",
        daemon.metrics().launches_served
    );
    assert_eq!(daemon.metrics().launches_served, 8);
    assert_eq!(
        daemon.metrics().live_allocations,
        0,
        "all device memory reclaimed"
    );
    println!("both processes shared one device context — Slate multiprocessing works.");
}
