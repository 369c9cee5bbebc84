//! CUDA streams through Slate: per-(process, stream) queues.
//!
//! The paper's runtime "builds a queue for each process and CUDA stream".
//! This example runs one client with four streams: launches on the same
//! stream are ordered, launches on different streams execute concurrently
//! through the daemon's per-stream lanes on the funnelled server context,
//! and `synchronize()` fences them all.
//!
//! It also demonstrates `#pragma slate solo` pinning: the "library" GEMM is
//! launched with `launch_solo_with` and therefore never co-scheduled.
//!
//! ```text
//! cargo run --release --example cuda_streams
//! ```

use slate_core::api::SlateClient;
use slate_core::daemon::SlateDaemon;
use slate_core::pragma::{inject_with_pragmas, Directive};
use slate_gpu_sim::device::DeviceConfig;
use slate_kernels::sgemm::SgemmKernel;
use slate_kernels::transpose::TransposeKernel;
use slate_kernels::GpuKernel;
use std::sync::Arc;

const LIBRARY_SRC: &str = r#"
#pragma slate solo
__global__ void library_gemm(float* C, const float* A, const float* B, int n) {
    // heavily optimized library kernel: transformed but never co-run
    C[blockIdx.y * n + blockIdx.x] = 0.f;
}
"#;

fn main() {
    // Show the pragma front-end resolving the solo directive.
    let plans = inject_with_pragmas(LIBRARY_SRC, 10).unwrap();
    assert_eq!(plans[0].directive, Directive::Solo);
    println!(
        "pragma front-end: kernel `{}` resolved to {:?}\n",
        plans[0].name, plans[0].directive
    );

    let daemon = SlateDaemon::start(DeviceConfig::titan_xp(), 4 << 30);
    let client = SlateClient::new(daemon.connect("stream-demo").unwrap());

    // Four independent transpose pipelines, one per stream. Each stream
    // transposes twice (involution): the result must equal the input, which
    // is only true if same-stream launches stay ordered.
    let (rows, cols) = (256u32, 192u32);
    let n = (rows * cols) as usize;
    let mut inputs = Vec::new();
    for s in 1..=4u32 {
        let d_in = client.malloc((n * 4) as u64).unwrap();
        let d_tmp = client.malloc((n * 4) as u64).unwrap();
        let d_out = client.malloc((n * 4) as u64).unwrap();
        let host: Vec<f32> = (0..n).map(|i| (i as f32) + s as f32 * 0.1).collect();
        client.upload_f32(d_in, &host).unwrap();
        client
            .launch_on_stream(s, vec![d_in, d_tmp], 10, move |bufs| {
                Arc::new(TransposeKernel::new(
                    rows,
                    cols,
                    bufs[0].clone(),
                    bufs[1].clone(),
                )) as Arc<dyn GpuKernel>
            })
            .unwrap();
        client
            .launch_on_stream(s, vec![d_tmp, d_out], 10, move |bufs| {
                Arc::new(TransposeKernel::new(
                    cols,
                    rows,
                    bufs[0].clone(),
                    bufs[1].clone(),
                )) as Arc<dyn GpuKernel>
            })
            .unwrap();
        inputs.push((s, host, d_out));
    }

    // Meanwhile, a solo-pinned "library" GEMM on the default stream.
    let dim = 128u32;
    let gn = (dim * dim) as usize;
    let d_a = client.malloc((gn * 4) as u64).unwrap();
    let d_b = client.malloc((gn * 4) as u64).unwrap();
    let d_c = client.malloc((gn * 4) as u64).unwrap();
    let ident: Vec<f32> = (0..gn)
        .map(|i| {
            if i % (dim as usize + 1) == 0 {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    let a_host: Vec<f32> = (0..gn).map(|i| (i % 97) as f32 * 0.5).collect();
    client.upload_f32(d_a, &a_host).unwrap();
    client.upload_f32(d_b, &ident).unwrap();
    client
        .launch_solo_with(
            vec![d_a, d_b, d_c],
            10,
            Some(LIBRARY_SRC.to_string()),
            move |bufs| {
                Arc::new(SgemmKernel::new(
                    dim,
                    dim,
                    dim,
                    bufs[0].clone(),
                    bufs[1].clone(),
                    bufs[2].clone(),
                )) as Arc<dyn GpuKernel>
            },
        )
        .unwrap();

    // One fence for all streams.
    client.synchronize().unwrap();

    for (s, host, d_out) in &inputs {
        let out = client.download_f32(*d_out, n).unwrap();
        assert_eq!(&out, host, "stream {s}: double transpose must be identity");
        println!("stream {s}: double transpose verified ({n} elements)");
    }
    let c_out = client.download_f32(d_c, gn).unwrap();
    assert_eq!(c_out, a_host, "GEMM with identity must return A");
    println!("solo-pinned GEMM verified (A x I = A)");

    println!(
        "\ndaemon: {} launches, injection cache {:?}",
        daemon.metrics().launches_served,
        daemon.injection_stats()
    );
    assert_eq!(daemon.metrics().launches_served, 9);
    client.disconnect().unwrap();
    daemon.join();
}
