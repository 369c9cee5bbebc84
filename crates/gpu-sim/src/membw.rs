//! DRAM bandwidth allocation among concurrent demanders.
//!
//! The memory system is modelled as a single shared DRAM pipe of capacity
//! `dram_bw`, fed by per-SM ports of capacity `per_sm_mem_bw`. Each active
//! grid slice demands bandwidth equal to what it could consume if memory
//! were free (its compute-limited block rate times DRAM bytes per block),
//! clamped by its SM-port capacity. When the sum of demands exceeds the pipe
//! capacity, bandwidth is shared *proportionally* — a first-order model of
//! GDDR arbitration fairness that reproduces the contention behaviour the
//! paper relies on (two memory-bound co-runners each slow to roughly half
//! speed; a memory-bound plus a compute-bound kernel barely interfere).

/// One bandwidth demander (a grid slice or a DMA transfer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BwDemand {
    /// Unconstrained consumption rate in bytes/s (already clamped by the
    /// demander's own port limits).
    pub demand: f64,
}

/// Proportionally allocates `capacity` bytes/s among `demands`.
///
/// Overwrites `out` with one allocation per demand, in order (the engine
/// calls this on every rate recomputation and keeps the buffer).
/// Allocations never exceed the demand, sum to at most `capacity`, and
/// equal the demand whenever the total demand fits. A zero or negative
/// demand receives zero.
pub fn allocate(capacity: f64, demands: &[BwDemand], out: &mut Vec<f64>) {
    assert!(capacity >= 0.0, "capacity must be non-negative");
    let total: f64 = demands.iter().map(|d| d.demand.max(0.0)).sum();
    out.clear();
    if total <= capacity || total <= 0.0 {
        out.extend(demands.iter().map(|d| d.demand.max(0.0)));
        return;
    }
    let scale = capacity / total;
    out.extend(demands.iter().map(|d| d.demand.max(0.0) * scale));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(x: f64) -> BwDemand {
        BwDemand { demand: x }
    }

    fn allocate(capacity: f64, demands: &[BwDemand]) -> Vec<f64> {
        // Stale contents must not survive the call.
        let mut out = vec![f64::NAN; 7];
        super::allocate(capacity, demands, &mut out);
        out
    }

    #[test]
    fn under_subscription_grants_everything() {
        let a = allocate(100.0, &[d(30.0), d(40.0)]);
        assert_eq!(a, vec![30.0, 40.0]);
    }

    #[test]
    fn over_subscription_scales_proportionally() {
        let a = allocate(100.0, &[d(100.0), d(300.0)]);
        assert!((a[0] - 25.0).abs() < 1e-9);
        assert!((a[1] - 75.0).abs() < 1e-9);
        let sum: f64 = a.iter().sum();
        assert!((sum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn zero_and_negative_demands() {
        let a = allocate(100.0, &[d(0.0), d(-5.0), d(50.0)]);
        assert_eq!(a, vec![0.0, 0.0, 50.0]);
    }

    #[test]
    fn empty_demand_list() {
        assert!(allocate(100.0, &[]).is_empty());
    }

    #[test]
    fn allocation_never_exceeds_demand() {
        let demands = [d(10.0), d(20.0), d(1000.0)];
        let a = allocate(500.0, &demands);
        for (alloc, dem) in a.iter().zip(demands.iter()) {
            assert!(*alloc <= dem.demand + 1e-9);
        }
    }
}
