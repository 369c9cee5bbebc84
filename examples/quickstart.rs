//! Quickstart: price options with BlackScholes through the Slate runtime.
//!
//! Shows the full client/daemon flow an application uses instead of the
//! CUDA runtime: connect, allocate device memory, upload inputs, launch the
//! kernel (which Slate transforms to persistent workers behind the scenes),
//! synchronize, download results — and validate them against the host
//! reference.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use slate_core::api::SlateClient;
use slate_core::daemon::SlateDaemon;
use slate_gpu_sim::device::DeviceConfig;
use slate_kernels::blackscholes::{black_scholes_ref, BlackScholesKernel};
use std::sync::Arc;

fn main() {
    // Start the Slate daemon over the simulated Titan Xp with 12 GB.
    let daemon = SlateDaemon::start(DeviceConfig::titan_xp(), 12 << 30);
    let client = SlateClient::new(daemon.connect("quickstart").unwrap());

    // Generate options on the host.
    let n = 100_000usize;
    let (riskfree, volatility) = (0.02f32, 0.30f32);
    let stock: Vec<f32> = (0..n).map(|i| 5.0 + (i as f32 * 0.37) % 95.0).collect();
    let strike: Vec<f32> = (0..n).map(|i| 1.0 + (i as f32 * 0.53) % 99.0).collect();
    let years: Vec<f32> = (0..n).map(|i| 0.25 + (i as f32 * 0.11) % 9.75).collect();

    // cudaMalloc equivalents.
    let bytes = (n * 4) as u64;
    let d_stock = client.malloc(bytes).unwrap();
    let d_strike = client.malloc(bytes).unwrap();
    let d_years = client.malloc(bytes).unwrap();
    let d_call = client.malloc(bytes).unwrap();
    let d_put = client.malloc(bytes).unwrap();
    println!("allocated 5 x {} KiB on the device", bytes / 1024);

    // cudaMemcpy H2D through shared buffers.
    client.upload_f32(d_stock, &stock).unwrap();
    client.upload_f32(d_strike, &strike).unwrap();
    client.upload_f32(d_years, &years).unwrap();

    // Kernel launch: the daemon resolves the pointers, transforms the
    // kernel (flattened grid + task queue + SM gate) and dispatches it.
    client
        .launch_with(
            vec![d_stock, d_strike, d_years, d_call, d_put],
            10, // SLATE_ITERS
            None,
            move |bufs| {
                Arc::new(BlackScholesKernel::new(
                    n,
                    riskfree,
                    volatility,
                    bufs[0].clone(),
                    bufs[1].clone(),
                    bufs[2].clone(),
                    bufs[3].clone(),
                    bufs[4].clone(),
                ))
            },
        )
        .unwrap();
    client.synchronize().unwrap();
    println!(
        "kernel completed ({} launches served)",
        daemon.metrics().launches_served
    );

    // cudaMemcpy D2H and host validation.
    let call = client.download_f32(d_call, n).unwrap();
    let put = client.download_f32(d_put, n).unwrap();
    let mut max_err = 0.0f32;
    for i in (0..n).step_by(997) {
        let (c_ref, p_ref) = black_scholes_ref(stock[i], strike[i], years[i], riskfree, volatility);
        max_err = max_err
            .max((call[i] - c_ref).abs())
            .max((put[i] - p_ref).abs());
    }
    println!("max deviation from host reference: {max_err:.2e}");
    assert!(
        max_err < 1e-5,
        "device results must match the host reference"
    );

    for p in [d_stock, d_strike, d_years, d_call, d_put] {
        client.free(p).unwrap();
    }
    client.disconnect().unwrap();
    daemon.join();
    println!("priced {n} options through Slate — results verified.");
}
