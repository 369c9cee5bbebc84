//! The scheduling pass: one deterministic sweep over the core's state,
//! run after every event batch.
//!
//! The pass encodes the paper's pipeline in priority order:
//!
//! 1. **Watchdog** — residents past their armed deadline are evicted.
//! 2. **Solo dispatch** — an empty device goes to the oldest waiter
//!    (promoting it first if it has starved past the bound).
//! 3. **In-place continuation** — a kernel that just became ready again
//!    and whose previous partition is exactly the free complement resumes
//!    there without resizing the resident (the common case for a sliced
//!    kernel between slices).
//! 4. **SLO preemption** — with `preempt_bound_us` set, a latency-critical
//!    waiter displaces a lone best-effort resident: [`partition`] splits
//!    the device, the resident retreats to its share (`Resize`), the
//!    arrival dispatches on the rest. An SLO override of Table I — the
//!    pair co-runs even where the policy says solo — announced by
//!    [`Command::Preempt`]. Starved waiters outrank it (§9 aging), so
//!    best-effort work still ages to promotion under a decode flood.
//! 5. **Co-run join** (§III-B/C) — Table-I partner selection over the
//!    waiters, then [`partition`] splits the device and the resident is
//!    resized to its share.
//! 6. **Regrow** (§III-D) — a lone resident on a partial partition takes
//!    the whole device back.

use super::events::Command;
use super::state::{ArbiterCore, Resident};
use crate::partition::partition;
use crate::policy::should_corun;
use crate::select::{select_partner, PartnerCandidate};
use slate_gpu_sim::device::SmRange;
use slate_kernels::workload::SloClass;

/// The free part of a split device: `range`'s complement within `full`,
/// when the complement is itself contiguous.
fn complement(range: SmRange, full: SmRange) -> Option<SmRange> {
    if range == full {
        None
    } else if range.lo == full.lo {
        Some(SmRange::new(range.hi + 1, full.hi))
    } else if range.hi == full.hi {
        Some(SmRange::new(full.lo, range.lo - 1))
    } else {
        None
    }
}

impl ArbiterCore {
    /// Runs the scheduling pass, appending commands to `out`.
    pub(super) fn decide(&mut self, out: &mut Vec<Command>) {
        self.scan_deadlines(out);
        let full = SmRange::all(self.device.num_sms);
        loop {
            match self.residents.len() {
                0 => {
                    let Some(head) = self.head_waiter() else {
                        break;
                    };
                    let starved = self
                        .config
                        .starvation_bound_us
                        .is_some_and(|b| self.now - self.waiters[head].since >= b);
                    if starved {
                        self.promotions += 1;
                        out.push(Command::PromoteStarved {
                            lease: self.waiters[head].lease,
                        });
                    }
                    // A promoted waiter is pinned for its run: starvation
                    // means it is owed the whole device, undisturbed.
                    self.dispatch(head, full, starved, out);
                }
                1 => {
                    if self.preempt_for_latency_critical(out) {
                        continue;
                    }
                    if self.continue_in_place(full, out) {
                        continue;
                    }
                    if self.corun_join(out) {
                        continue;
                    }
                    let r = &self.residents[0];
                    if self.config.enable_resize && r.range != full {
                        let lease = r.lease;
                        self.residents[0].range = full;
                        out.push(Command::Resize { lease, range: full });
                    }
                    break;
                }
                // Two residents: the device is fully split already.
                _ => break,
            }
        }
    }

    /// Evicts every resident past its armed deadline. The resident stays
    /// in the set — the frontend feeds `KernelFinished {ok: false}` once
    /// the retreat actually lands — but the deadline is disarmed so the
    /// eviction fires exactly once. The armed list is sorted by external
    /// lease id, so `Evict`s come out in ascending lease order.
    fn scan_deadlines(&mut self, out: &mut Vec<Command>) {
        let mut i = 0;
        while i < self.armed.len() {
            if self.now >= self.armed[i].1 {
                let (lease, _) = self.armed.remove(i);
                self.evictions += 1;
                out.push(Command::Evict { lease });
            } else {
                i += 1;
            }
        }
    }

    /// FIFO head: the waiter that became ready earliest, ties broken by
    /// arrival order. This is also the longest-waiting (most starved)
    /// waiter, since `since` is nondecreasing in `seq`.
    ///
    /// With SLO priority enabled, latency-critical waiters outrank
    /// best-effort ones (oldest-first within the class) — unless some
    /// waiter has already starved past the aging bound, in which case
    /// strict FIFO applies so best-effort work cannot be priority-starved
    /// indefinitely.
    fn head_waiter(&self) -> Option<usize> {
        if self.config.preempt_bound_us.is_some() && !self.any_waiter_starved() {
            let lc = self
                .waiters
                .iter()
                .enumerate()
                .filter(|(_, w)| w.slo == SloClass::LatencyCritical)
                .min_by_key(|(_, w)| (w.since, w.seq))
                .map(|(i, _)| i);
            if lc.is_some() {
                return lc;
            }
        }
        self.waiters
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| (w.since, w.seq))
            .map(|(i, _)| i)
    }

    /// Whether any waiter (pinned included) has aged past the starvation
    /// bound. Starvation outranks SLO priority everywhere: the aging
    /// machinery is the anti-starvation credit best-effort work holds
    /// against a latency-critical flood.
    fn any_waiter_starved(&self) -> bool {
        self.config
            .starvation_bound_us
            .is_some_and(|b| self.waiters.iter().any(|w| self.now - w.since >= b))
    }

    /// Removes waiter `widx`, dispatches it on `range`, and arms its
    /// deadline.
    fn dispatch(&mut self, widx: usize, range: SmRange, pin: bool, out: &mut Vec<Command>) {
        let w = self.waiters.remove(widx);
        if let Some(ms) = w.deadline_ms {
            self.arm_deadline(w.lease, self.now + ms.saturating_mul(1000));
        }
        out.push(Command::Dispatch {
            lease: w.lease,
            range,
        });
        self.residents.push(Resident {
            lease: w.lease,
            session: w.session,
            class: w.class,
            sm_demand: w.sm_demand,
            pinned: w.pinned || pin,
            range,
            slo: w.slo,
        });
    }

    /// Rule 4 (SLO preemption): a non-pinned latency-critical waiter
    /// displaces a lone, non-pinned best-effort resident. The device is
    /// partitioned by SM demand exactly as a co-run join would, the
    /// resident retreats to its share via the resize path, and the
    /// arrival dispatches on the remainder — regardless of what Table I
    /// says about the pair (the SLO override; `enable_corun` ablates only
    /// policy-driven pairings, not SLO-driven ones). Refused while
    /// draining and whenever any waiter has starved past the aging bound:
    /// a preemption must never push starved best-effort work further
    /// back.
    fn preempt_for_latency_critical(&mut self, out: &mut Vec<Command>) -> bool {
        if self.config.preempt_bound_us.is_none() || self.draining {
            return false;
        }
        let (r_slo, r_pinned, r_demand, r_range, r_lease) = {
            let r = &self.residents[0];
            (r.slo, r.pinned, r.sm_demand, r.range, r.lease)
        };
        if r_pinned || r_slo == SloClass::LatencyCritical {
            return false;
        }
        if self.any_waiter_starved() {
            return false;
        }
        let Some(widx) = self
            .waiters
            .iter()
            .enumerate()
            .filter(|(_, w)| !w.pinned && w.slo == SloClass::LatencyCritical)
            .min_by_key(|(_, w)| (w.since, w.seq))
            .map(|(i, _)| i)
        else {
            return false;
        };
        self.preemptions += 1;
        out.push(Command::Preempt { lease: r_lease });
        let part = partition(&self.device, r_demand, self.waiters[widx].sm_demand);
        if part.a != r_range {
            // Like the co-run shrink, the retreat happens regardless of
            // `enable_resize` — that switch ablates only the survivor
            // regrow.
            self.residents[0].range = part.a;
            out.push(Command::Resize {
                lease: r_lease,
                range: part.a,
            });
        }
        self.dispatch(widx, part.b, false, out);
        true
    }

    /// Rule 3: a waiter that became ready *this batch* and whose previous
    /// partition is exactly the free complement of the lone resident
    /// resumes in place — no resize, no fresh selection. This keeps a
    /// co-running pair stable across the slices of a long kernel.
    fn continue_in_place(&mut self, full: SmRange, out: &mut Vec<Command>) -> bool {
        if !self.config.enable_corun || self.draining {
            return false;
        }
        let (r_class, r_range, r_pinned) = {
            let r = &self.residents[0];
            (r.class, r.range, r.pinned)
        };
        if r_pinned {
            return false;
        }
        let Some(free) = complement(r_range, full) else {
            return false;
        };
        let now = self.now;
        let leases = &self.leases;
        let hit = self.waiters.iter().position(|w| {
            w.since == now
                && !w.pinned
                && leases.get(&w.lease).and_then(|l| l.last_range) == Some(free)
                && should_corun(r_class, w.class)
        });
        let Some(widx) = hit else { return false };
        self.dispatch(widx, free, false, out);
        true
    }

    /// Rule 4: Table-I partner selection over the waiters, partition the
    /// device, shrink the resident to its share, dispatch the partner on
    /// the rest. Refused while draining, while the resident is pinned, or
    /// while *any* waiter (pinned included) has starved past the bound —
    /// a fresh pairing must never push a starved waiter further back.
    fn corun_join(&mut self, out: &mut Vec<Command>) -> bool {
        if !self.config.enable_corun || self.draining {
            return false;
        }
        let (r_class, r_demand, r_range, r_pinned, r_lease) = {
            let r = &self.residents[0];
            (r.class, r.sm_demand, r.range, r.pinned, r.lease)
        };
        if r_pinned {
            return false;
        }
        if let Some(bound) = self.config.starvation_bound_us {
            if self.waiters.iter().any(|w| self.now - w.since >= bound) {
                return false;
            }
        }
        // Candidate buffers are core-owned scratch: taken for the pass,
        // returned before any exit so their capacity is reused next time.
        let mut cands = std::mem::take(&mut self.scratch_cands);
        let mut idxs = std::mem::take(&mut self.scratch_idxs);
        cands.clear();
        idxs.clear();
        for (i, w) in self.waiters.iter().enumerate() {
            if w.pinned {
                continue;
            }
            cands.push(PartnerCandidate {
                class: w.class,
                waited_s: (self.now - w.since) as f64 / 1e6,
                order: w.seq,
            });
            idxs.push(i);
        }
        let chosen = select_partner(r_class, &cands).map(|ci| idxs[ci]);
        self.scratch_cands = cands;
        self.scratch_idxs = idxs;
        let Some(widx) = chosen else {
            return false;
        };
        let part = partition(&self.device, r_demand, self.waiters[widx].sm_demand);
        if part.a != r_range {
            // The shrink happens regardless of `enable_resize`: that
            // switch ablates only the survivor *regrow* (rule 5), which is
            // what "strands" a survivor on its partition when disabled.
            self.residents[0].range = part.a;
            out.push(Command::Resize {
                lease: r_lease,
                range: part.a,
            });
        }
        self.dispatch(widx, part.b, false, out);
        true
    }
}
