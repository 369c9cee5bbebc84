//! Source-level code injection (paper §IV-B, Listings 1–3).
//!
//! Given user CUDA source, the injector rewrites every `__global__` kernel
//! into its Slate form:
//!
//! * the signature gains `sm_low`, `sm_high` and the scheduling state
//!   (`slateIdx`, `slateMax`, `retreat`);
//! * the Listing 1 prologue gates the block on its SM id;
//! * the Listing 2 task loop pulls `SLATE_ITERS` blocks per atomic and
//!   wraps the original body, whose `blockIdx`/`gridDim` uses are replaced
//!   with Slate's reconstructed `slateBlockIdx`/`slateGridDim`;
//! * a companion dispatch kernel (Listing 3) is emitted that launches and
//!   relaunches the worker kernel across resizes.
//!
//! In the paper the result is fed to NVRTC; here the transformed source is
//! the demonstrable artefact (unit-tested for structure), and compiled
//! images are modelled by the [`InjectionCache`] keyed the way the paper
//! caches them — per user and kernel source.

use crate::scanner::{scan_kernels, KernelDef};
use std::collections::HashMap;

/// Result of injecting one kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedKernel {
    /// Original kernel name.
    pub name: String,
    /// Name of the generated worker kernel.
    pub worker_name: String,
    /// Name of the generated dispatch kernel.
    pub dispatch_name: String,
    /// The full transformed source for this kernel (worker + dispatcher).
    pub source: String,
    /// How many `blockIdx` uses were replaced.
    pub block_idx_replaced: usize,
    /// How many `gridDim` uses were replaced.
    pub grid_dim_replaced: usize,
}

/// Rewrites the body of a kernel, replacing built-in variable uses.
fn rewrite_body(src: &str, k: &KernelDef) -> (String, usize, usize) {
    let body = k.body_span.text(src);
    let base = k.body_span.start;
    // Replace from the back so earlier spans stay valid.
    let mut spans: Vec<(usize, usize, &str)> = k
        .block_idx_uses
        .iter()
        .map(|s| (s.start - base, s.end - base, "slateBlockIdx"))
        .chain(
            k.grid_dim_uses
                .iter()
                .map(|s| (s.start - base, s.end - base, "slateGridDim")),
        )
        .collect();
    spans.sort_by_key(|&(s, _, _)| s);
    let mut out = String::with_capacity(body.len() + spans.len() * 8);
    let mut cursor = 0;
    for (s, e, rep) in spans {
        out.push_str(&body[cursor..s]);
        out.push_str(rep);
        cursor = e;
    }
    out.push_str(&body[cursor..]);
    (out, k.block_idx_uses.len(), k.grid_dim_uses.len())
}

/// Generates the Slate worker + dispatch kernels for one user kernel.
pub(crate) fn inject_kernel(src: &str, k: &KernelDef, task_size: u32) -> InjectedKernel {
    let (body, bi, gd) = rewrite_body(src, k);
    let params = k.params_span.text(src).trim();
    let sep = if params.is_empty() { "" } else { ", " };
    let worker_name = format!("{}_slate_worker", k.name);
    let dispatch_name = format!("{}_slate_dispatch", k.name);

    let source = format!(
        r#"// ---- generated by Slate: worker form of `{name}` ----
#define SLATE_ITERS {task_size}
extern "C" __global__ void {worker_name}(
    const unsigned int sm_low, const unsigned int sm_high,
    volatile unsigned int* slate_retreat,
    unsigned long long* slateIdx, const unsigned long long slateMax,
    const uint3 slateUserGridDim{sep}{params}) {{
  // ---- Slate Listing 1: SM-range gate ----
  __shared__ unsigned int slate_valid;
  const int slate_leader = (threadIdx.x == 0 && threadIdx.y == 0 && threadIdx.z == 0);
  if (slate_leader) {{
    unsigned int slate_smid;
    asm("mov.u32 %0, %%smid;" : "=r"(slate_smid));
    slate_valid = !(slate_smid < sm_low || slate_smid > sm_high);
  }}
  __syncthreads();
  if (!slate_valid) {{ return; }}
  // ---- Slate Listing 2: task loop ----
  const uint3 slateGridDim = slateUserGridDim;
  __shared__ unsigned long long slate_glob;
  __shared__ int slate_iters;
  do {{
    if (slate_leader) {{
      slate_glob = atomicAdd(slateIdx, (unsigned long long)SLATE_ITERS);
      slate_iters = (int)min((unsigned long long)SLATE_ITERS,
                             slateMax > slate_glob ? slateMax - slate_glob : 0ull);
    }}
    __syncthreads();
    unsigned long long slate_flat = slate_glob;
    const int slate_local_iters = slate_iters;
    uint3 slateBlockIdx;
    slateBlockIdx.x = (unsigned int)(slate_flat % slateGridDim.x);
    slateBlockIdx.y = (unsigned int)(slate_flat / slateGridDim.x);
    slateBlockIdx.z = 0;
    for (int slate_count = 0; slate_count < slate_local_iters; ++slate_count) {{
      {{
        // ---- ORIGINAL USER CODE, built-in variables replaced ----
{body}
      }}
      ++slateBlockIdx.x;
      if (slateBlockIdx.x == slateGridDim.x) {{ slateBlockIdx.x = 0; ++slateBlockIdx.y; }}
      ++slate_flat;
    }}
  }} while (!(*slate_retreat) && slate_glob + SLATE_ITERS < slateMax);
}}

// ---- generated by Slate: dispatch kernel for `{name}` (Listing 3) ----
extern "C" __global__ void {dispatch_name}(
    volatile unsigned int* start_sm, volatile unsigned int* end_sm,
    volatile unsigned int* slate_retreat,
    unsigned long long* slateIdx, const unsigned long long slateMax,
    const uint3 slateUserGridDim, const unsigned int slate_workers{sep}{params}) {{
  cudaStream_t slate_s;
  cudaStreamCreateWithFlags(&slate_s, cudaStreamNonBlocking);
  *slate_retreat = 0;
  *slateIdx = 0;
  do {{
    {worker_name}<<<slate_workers, blockDim, 0, slate_s>>>(
        *start_sm, *end_sm, slate_retreat, slateIdx, slateMax,
        slateUserGridDim{sep}{args});
    cudaDeviceSynchronize();
    *slate_retreat = 0;
  }} while (*slateIdx < slateMax);
  cudaStreamDestroy(slate_s);
}}
"#,
        name = k.name,
        task_size = task_size,
        worker_name = worker_name,
        dispatch_name = dispatch_name,
        sep = sep,
        params = params,
        body = indent(&body, 8),
        args = param_names(params).join(", "),
    );

    InjectedKernel {
        name: k.name.clone(),
        worker_name,
        dispatch_name,
        source,
        block_idx_replaced: bi,
        grid_dim_replaced: gd,
    }
}

/// Injects every kernel found in `src`.
pub fn inject_source(src: &str, task_size: u32) -> Vec<InjectedKernel> {
    scan_kernels(src)
        .iter()
        .map(|k| inject_kernel(src, k, task_size))
        .collect()
}

/// Extracts parameter names from a C parameter list (last identifier of
/// each comma-separated declaration, array suffixes stripped).
fn param_names(params: &str) -> Vec<String> {
    params
        .split(',')
        .filter_map(|p| {
            let p = p.trim();
            if p.is_empty() {
                return None;
            }
            let p = p.split('[').next().unwrap_or(p).trim_end();
            let name: String = p
                .chars()
                .rev()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            if name.is_empty() {
                None
            } else {
                Some(name)
            }
        })
        .collect()
}

fn indent(s: &str, n: usize) -> String {
    let pad = " ".repeat(n);
    s.lines()
        .map(|l| {
            if l.trim().is_empty() {
                String::new()
            } else {
                format!("{pad}{}", l.trim_start())
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Compiled-kernel cache, keyed per user and source as the paper's daemon
/// caches NVRTC images ("a compiled kernel image can be further cached for
/// later use by the same user").
#[derive(Debug, Default)]
pub struct InjectionCache {
    entries: HashMap<(String, u64), Vec<InjectedKernel>>,
    hits: u64,
    misses: u64,
}

/// FNV-1a hash of the source text (stable across runs).
#[doc(hidden)]
pub fn source_hash(src: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in src.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl InjectionCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the injected kernels for `(user, src)`, injecting on miss.
    pub fn get_or_inject(&mut self, user: &str, src: &str, task_size: u32) -> &[InjectedKernel] {
        let key = (user.to_string(), source_hash(src));
        if self.entries.contains_key(&key) {
            self.hits += 1;
        } else {
            self.misses += 1;
            self.entries
                .insert(key.clone(), inject_source(src, task_size));
        }
        &self.entries[&key]
    }

    /// (cache hits, cache misses) so far.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
__global__ void axpy(float* y, const float* x, float a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int stride = gridDim.x * blockDim.x;
    for (; i < n; i += stride) y[i] += a * x[i];
}
"#;

    #[test]
    fn generates_worker_and_dispatcher() {
        let ks = inject_source(SRC, 10);
        assert_eq!(ks.len(), 1);
        let k = &ks[0];
        assert_eq!(k.worker_name, "axpy_slate_worker");
        assert_eq!(k.dispatch_name, "axpy_slate_dispatch");
        assert!(k.source.contains("__global__ void axpy_slate_worker"));
        assert!(k.source.contains("__global__ void axpy_slate_dispatch"));
        assert!(k.source.contains("#define SLATE_ITERS 10"));
    }

    #[test]
    fn replaces_builtins_and_keeps_user_logic() {
        let k = &inject_source(SRC, 10)[0];
        assert_eq!(k.block_idx_replaced, 1);
        assert_eq!(k.grid_dim_replaced, 1);
        assert!(k.source.contains("slateBlockIdx.x * blockDim.x"));
        assert!(k.source.contains("slateGridDim.x * blockDim.x"));
        assert!(k.source.contains("y[i] += a * x[i];"));
        // The worker body must not retain raw built-in uses.
        let worker_part = k.source.split("slate_dispatch").next().unwrap();
        let body_start = worker_part.find("ORIGINAL USER CODE").unwrap();
        let user_part = &worker_part[body_start..];
        assert!(!user_part.contains(" blockIdx"), "unreplaced blockIdx");
        assert!(!user_part.contains(" gridDim"), "unreplaced gridDim");
    }

    #[test]
    fn listing1_gate_and_listing2_loop_present() {
        let k = &inject_source(SRC, 10)[0];
        assert!(k.source.contains("%%smid"), "SM id read");
        assert!(k.source.contains("sm_low") && k.source.contains("sm_high"));
        assert!(k.source.contains("atomicAdd(slateIdx"));
        assert!(k.source.contains("while (!(*slate_retreat)"));
        assert!(k.source.contains("if (!slate_valid) { return; }"));
    }

    #[test]
    fn dispatcher_forwards_user_arguments() {
        let k = &inject_source(SRC, 10)[0];
        assert!(k.source.contains("slateUserGridDim, y, x, a, n"));
    }

    #[test]
    fn param_names_parse_declarations() {
        assert_eq!(
            param_names("float* y, const float* x, float a, int n"),
            vec!["y", "x", "a", "n"]
        );
        assert_eq!(param_names("float data[], int n"), vec!["data", "n"]);
        assert!(param_names("").is_empty());
    }

    #[test]
    fn multiple_kernels_each_injected() {
        let src = format!("{SRC}\n__global__ void second(int* p) {{ p[blockIdx.y] = 1; }}");
        let ks = inject_source(&src, 5);
        assert_eq!(ks.len(), 2);
        assert_eq!(ks[1].name, "second");
        assert_eq!(ks[1].block_idx_replaced, 1);
        assert!(ks[1].source.contains("#define SLATE_ITERS 5"));
    }

    #[test]
    fn cache_hits_on_same_user_and_source() {
        let mut c = InjectionCache::new();
        c.get_or_inject("alice", SRC, 10);
        c.get_or_inject("alice", SRC, 10);
        c.get_or_inject("bob", SRC, 10);
        assert_eq!(c.stats(), (1, 2), "per-user caching");
    }

    #[test]
    fn source_hash_is_stable_and_discriminating() {
        assert_eq!(source_hash("abc"), source_hash("abc"));
        assert_ne!(source_hash("abc"), source_hash("abd"));
    }
}
