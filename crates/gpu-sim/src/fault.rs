//! Deterministic fault injection for the simulated device stack.
//!
//! The Slate daemon funnels every client through one shared device context
//! (paper §IV-A), so a single misbehaving client — a kernel that never
//! terminates, a launch that faults, a process that dies mid-request — is a
//! hazard for every co-runner. Testing the daemon's recovery paths needs
//! those failures to happen *on demand and reproducibly*, which real
//! hardware does not offer.
//!
//! This module is that substrate: a [`FaultPlan`] is a list of rules, each
//! arming one [`FaultKind`] at one [`FaultSite`] on the nth matching
//! occurrence. Plans are either scripted rule-by-rule or generated from a
//! seed ([`FaultPlan::randomized`]) — the same seed always produces the
//! same plan, so a failing schedule can be replayed exactly.
//!
//! Hangs are modelled cooperatively through a [`FaultToken`]: the hung
//! execution blocks on the token until whoever owns the recovery path (the
//! daemon's watchdog) cancels it.

use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::Duration;

/// Where in the request pipeline a fault can trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A kernel launch (after pointer resolution, before dispatch).
    Launch,
    /// A host↔device memory copy.
    Memcpy,
    /// Any request arriving on a session's command pipe.
    Request,
    /// An arbiter command about to be executed by a backend (used by the
    /// chaos-testing command-stream perturbations; see
    /// [`FaultPlan::command_chaos`]).
    Command,
}

/// What failure to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The kernel's workers block forever; only cancelling the launch's
    /// [`FaultToken`] (watchdog eviction) releases them.
    KernelHang,
    /// The launch is rejected as a device-side fault.
    LaunchFault,
    /// The copy stalls for the given duration before completing.
    MemcpyStall {
        /// Stall length in milliseconds.
        millis: u64,
    },
    /// The daemon-side channel to the client is severed, as if the client
    /// process died mid-request.
    ChannelDrop,
}

/// One armed fault: `kind` fires at the `nth` occurrence (1-based) of
/// `site`, optionally only for a specific kernel name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    /// Pipeline point the rule watches.
    pub site: FaultSite,
    /// Restrict to launches of this kernel (`None` matches any).
    pub kernel: Option<String>,
    /// Which matching occurrence triggers the fault (1 = the first).
    pub nth: u64,
    /// The failure injected when the rule fires.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults. Each rule fires at most once.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    rules: Vec<ArmedRule>,
}

#[derive(Debug, Clone)]
struct ArmedRule {
    rule: FaultRule,
    seen: u64,
    fired: bool,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rule (builder style).
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(ArmedRule {
            rule,
            seen: 0,
            fired: false,
        });
        self
    }

    /// Convenience: hang the `nth` launch of `kernel`.
    pub fn hang_kernel(self, kernel: &str, nth: u64) -> Self {
        self.with_rule(FaultRule {
            site: FaultSite::Launch,
            kernel: Some(kernel.to_string()),
            nth,
            kind: FaultKind::KernelHang,
        })
    }

    /// Convenience: fault the `nth` launch of `kernel`.
    pub fn fault_launch(self, kernel: &str, nth: u64) -> Self {
        self.with_rule(FaultRule {
            site: FaultSite::Launch,
            kernel: Some(kernel.to_string()),
            nth,
            kind: FaultKind::LaunchFault,
        })
    }

    /// Convenience: stall the `nth` memcpy for `millis` ms.
    pub fn stall_memcpy(self, nth: u64, millis: u64) -> Self {
        self.with_rule(FaultRule {
            site: FaultSite::Memcpy,
            kernel: None,
            nth,
            kind: FaultKind::MemcpyStall { millis },
        })
    }

    /// Convenience: sever the client channel at the `nth` request.
    pub fn drop_channel(self, nth: u64) -> Self {
        self.with_rule(FaultRule {
            site: FaultSite::Request,
            kernel: None,
            nth,
            kind: FaultKind::ChannelDrop,
        })
    }

    /// Generates `faults` pseudo-random rules from `seed`. The same seed
    /// always yields the same plan — replay a failing run by reusing it.
    pub fn randomized(seed: u64, faults: u32) -> Self {
        let mut rng = SplitRng::new(seed);
        let mut plan = Self::new();
        for _ in 0..faults {
            let site = match rng.below(3) {
                0 => FaultSite::Launch,
                1 => FaultSite::Memcpy,
                _ => FaultSite::Request,
            };
            let kind = match site {
                FaultSite::Launch => {
                    if rng.below(2) == 0 {
                        FaultKind::KernelHang
                    } else {
                        FaultKind::LaunchFault
                    }
                }
                FaultSite::Memcpy => FaultKind::MemcpyStall {
                    millis: 1 + rng.below(20),
                },
                // `below(3)` above never yields the Command site, which
                // keeps this generator byte-stable for existing seeds.
                FaultSite::Request | FaultSite::Command => FaultKind::ChannelDrop,
            };
            plan = plan.with_rule(FaultRule {
                site,
                kernel: None,
                nth: 1 + rng.below(8),
                kind,
            });
        }
        plan
    }

    /// Generates `faults` pseudo-random [`FaultSite::Command`] rules from
    /// `seed` — the command-stream perturbation schedule consumed by the
    /// chaos backend decorator. Deterministic per seed, and drawn from a
    /// generator independent of [`FaultPlan::randomized`], so existing
    /// randomized seeds keep producing identical plans.
    pub fn command_chaos(seed: u64, faults: u32) -> Self {
        let mut rng = SplitRng::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
        let mut plan = Self::new();
        for _ in 0..faults {
            let kind = match rng.below(4) {
                0 => FaultKind::MemcpyStall {
                    millis: 1 + rng.below(5),
                },
                1 => FaultKind::LaunchFault,
                2 => FaultKind::KernelHang,
                _ => FaultKind::ChannelDrop,
            };
            plan = plan.with_rule(FaultRule {
                site: FaultSite::Command,
                kernel: None,
                nth: 1 + rng.below(6),
                kind,
            });
        }
        plan
    }

    /// Number of rules (fired or not).
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the plan has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Rules that have already fired.
    pub fn fired(&self) -> usize {
        self.rules.iter().filter(|r| r.fired).count()
    }

    /// Records one occurrence of `site` (for `Launch`, with the kernel
    /// name) and returns the fault to inject, if any rule just armed.
    ///
    /// Every matching rule's occurrence counter advances; the first rule
    /// reaching its `nth` occurrence fires (once) and its kind is returned.
    pub fn fire(&mut self, site: FaultSite, kernel: Option<&str>) -> Option<FaultKind> {
        let mut hit = None;
        for armed in &mut self.rules {
            if armed.rule.site != site {
                continue;
            }
            if let Some(want) = &armed.rule.kernel {
                if kernel != Some(want.as_str()) {
                    continue;
                }
            }
            armed.seen += 1;
            if !armed.fired && armed.seen == armed.rule.nth && hit.is_none() {
                armed.fired = true;
                hit = Some(armed.rule.kind);
            }
        }
        hit
    }

    /// The scripted rules, in insertion order.
    pub fn rules(&self) -> Vec<FaultRule> {
        self.rules.iter().map(|a| a.rule.clone()).collect()
    }
}

/// xorshift64* — small, seedable, good enough for schedule generation.
struct SplitRng {
    state: u64,
}

impl SplitRng {
    fn new(seed: u64) -> Self {
        Self {
            // Avoid the all-zero fixed point.
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Handle to a cooperatively hung execution. The hung side blocks in
/// [`FaultToken::block_until_cancelled`]; the recovery side (the daemon's
/// watchdog) calls [`FaultToken::cancel`] to release it.
#[derive(Debug, Clone, Default)]
pub struct FaultToken {
    inner: Arc<TokenState>,
}

#[derive(Debug, Default)]
struct TokenState {
    cancelled: Mutex<bool>,
    cv: Condvar,
}

impl FaultToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Releases every execution blocked on this token.
    pub fn cancel(&self) {
        *self.inner.cancelled.lock() = true;
        self.inner.cv.notify_all();
    }

    /// Whether [`FaultToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        *self.inner.cancelled.lock()
    }

    /// Blocks the calling thread until the token is cancelled.
    pub fn block_until_cancelled(&self) {
        let mut g = self.inner.cancelled.lock();
        while !*g {
            self.inner.cv.wait(&mut g);
        }
    }

    /// Blocks up to `timeout`; returns `true` if the token was cancelled.
    pub fn wait_cancelled_for(&self, timeout: Duration) -> bool {
        let mut g = self.inner.cancelled.lock();
        if *g {
            return true;
        }
        let _ = self.inner.cv.wait_for(&mut g, timeout);
        *g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let mut plan = FaultPlan::new();
        assert!(plan.is_empty());
        for _ in 0..100 {
            assert_eq!(plan.fire(FaultSite::Launch, Some("k")), None);
            assert_eq!(plan.fire(FaultSite::Request, None), None);
        }
        assert_eq!(plan.fired(), 0);
    }

    #[test]
    fn rule_fires_on_nth_matching_occurrence_only_once() {
        let mut plan = FaultPlan::new().hang_kernel("gemm", 3);
        // Non-matching kernels don't advance the counter.
        assert_eq!(plan.fire(FaultSite::Launch, Some("fft")), None);
        assert_eq!(plan.fire(FaultSite::Launch, Some("gemm")), None);
        assert_eq!(plan.fire(FaultSite::Launch, Some("gemm")), None);
        assert_eq!(
            plan.fire(FaultSite::Launch, Some("gemm")),
            Some(FaultKind::KernelHang)
        );
        // Fired rules stay quiet.
        assert_eq!(plan.fire(FaultSite::Launch, Some("gemm")), None);
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn wildcard_rule_matches_any_kernel() {
        let mut plan = FaultPlan::new().with_rule(FaultRule {
            site: FaultSite::Launch,
            kernel: None,
            nth: 2,
            kind: FaultKind::LaunchFault,
        });
        assert_eq!(plan.fire(FaultSite::Launch, Some("a")), None);
        assert_eq!(
            plan.fire(FaultSite::Launch, Some("b")),
            Some(FaultKind::LaunchFault)
        );
    }

    #[test]
    fn sites_count_independently() {
        let mut plan = FaultPlan::new().stall_memcpy(1, 5).drop_channel(2);
        // Launches don't advance either counter.
        assert_eq!(plan.fire(FaultSite::Launch, Some("k")), None);
        assert_eq!(
            plan.fire(FaultSite::Memcpy, None),
            Some(FaultKind::MemcpyStall { millis: 5 })
        );
        assert_eq!(plan.fire(FaultSite::Request, None), None);
        assert_eq!(
            plan.fire(FaultSite::Request, None),
            Some(FaultKind::ChannelDrop)
        );
    }

    #[test]
    fn randomized_plans_are_deterministic_per_seed() {
        let a = FaultPlan::randomized(42, 8);
        let b = FaultPlan::randomized(42, 8);
        assert_eq!(a.rules(), b.rules());
        assert_eq!(a.len(), 8);
        let c = FaultPlan::randomized(43, 8);
        assert_ne!(a.rules(), c.rules(), "different seeds, different plans");
    }

    /// The plans the seeded suites run, rule by rule: `randomized` at the
    /// chaos soak's seeds (`overload_soak`, nightly matrix) and
    /// `command_chaos` at the backend chaos suites' seeds. A generator
    /// edit that moved one of them would silently change what those
    /// suites inject.
    #[test]
    fn soak_and_chaos_plans_are_pinned() {
        let render = |plan: FaultPlan| {
            plan.rules()
                .iter()
                .map(|r| format!("{:?}#{} {:?}", r.site, r.nth, r.kind))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut got = String::new();
        for seed in [0xC0FFEE, 0x5EED, 0xBADF00D, 42] {
            let plan = render(FaultPlan::randomized(seed, 10));
            got += &format!("randomized({seed:#x}, 10): {plan}\n");
        }
        for (seed, n) in [(0xA11CE, 12), (0xB0B, 12), (42, 12), (0x5EED, 16)] {
            let plan = render(FaultPlan::command_chaos(seed, n));
            got += &format!("command_chaos({seed:#x}, {n}): {plan}\n");
        }
        assert_eq!(got, PINNED_PLANS);
    }

    const PINNED_PLANS: &str = "\
randomized(0xc0ffee, 10): Memcpy#1 MemcpyStall { millis: 5 }, Memcpy#1 MemcpyStall { millis: 18 }, Launch#2 LaunchFault, Request#8 ChannelDrop, Request#8 ChannelDrop, Request#5 ChannelDrop, Request#7 ChannelDrop, Memcpy#7 MemcpyStall { millis: 7 }, Memcpy#1 MemcpyStall { millis: 6 }, Memcpy#8 MemcpyStall { millis: 16 }\n\
randomized(0x5eed, 10): Memcpy#3 MemcpyStall { millis: 12 }, Request#4 ChannelDrop, Memcpy#3 MemcpyStall { millis: 10 }, Memcpy#1 MemcpyStall { millis: 20 }, Launch#6 KernelHang, Launch#8 KernelHang, Memcpy#8 MemcpyStall { millis: 7 }, Launch#5 LaunchFault, Request#8 ChannelDrop, Memcpy#2 MemcpyStall { millis: 16 }\n\
randomized(0xbadf00d, 10): Launch#6 KernelHang, Request#8 ChannelDrop, Memcpy#4 MemcpyStall { millis: 12 }, Launch#1 KernelHang, Launch#5 KernelHang, Request#7 ChannelDrop, Memcpy#6 MemcpyStall { millis: 1 }, Memcpy#8 MemcpyStall { millis: 2 }, Launch#4 KernelHang, Memcpy#8 MemcpyStall { millis: 2 }\n\
randomized(0x2a, 10): Request#6 ChannelDrop, Launch#4 KernelHang, Launch#8 LaunchFault, Request#4 ChannelDrop, Request#3 ChannelDrop, Memcpy#8 MemcpyStall { millis: 17 }, Request#3 ChannelDrop, Memcpy#2 MemcpyStall { millis: 13 }, Launch#2 KernelHang, Memcpy#4 MemcpyStall { millis: 2 }\n\
command_chaos(0xa11ce, 12): Command#1 ChannelDrop, Command#3 ChannelDrop, Command#1 MemcpyStall { millis: 1 }, Command#3 MemcpyStall { millis: 1 }, Command#5 LaunchFault, Command#5 KernelHang, Command#1 KernelHang, Command#2 ChannelDrop, Command#5 LaunchFault, Command#5 MemcpyStall { millis: 5 }, Command#3 ChannelDrop, Command#2 MemcpyStall { millis: 4 }\n\
command_chaos(0xb0b, 12): Command#6 LaunchFault, Command#6 LaunchFault, Command#3 ChannelDrop, Command#2 KernelHang, Command#6 MemcpyStall { millis: 5 }, Command#3 MemcpyStall { millis: 3 }, Command#6 LaunchFault, Command#6 MemcpyStall { millis: 3 }, Command#1 KernelHang, Command#6 KernelHang, Command#2 ChannelDrop, Command#2 ChannelDrop\n\
command_chaos(0x2a, 12): Command#1 LaunchFault, Command#5 KernelHang, Command#1 LaunchFault, Command#6 KernelHang, Command#1 ChannelDrop, Command#5 LaunchFault, Command#6 LaunchFault, Command#6 MemcpyStall { millis: 4 }, Command#3 KernelHang, Command#4 MemcpyStall { millis: 5 }, Command#5 LaunchFault, Command#1 LaunchFault\n\
command_chaos(0x5eed, 16): Command#3 MemcpyStall { millis: 2 }, Command#1 ChannelDrop, Command#4 MemcpyStall { millis: 2 }, Command#1 KernelHang, Command#2 MemcpyStall { millis: 1 }, Command#2 ChannelDrop, Command#2 MemcpyStall { millis: 4 }, Command#2 ChannelDrop, Command#4 LaunchFault, Command#5 MemcpyStall { millis: 5 }, Command#3 ChannelDrop, Command#4 LaunchFault, Command#5 MemcpyStall { millis: 4 }, Command#1 MemcpyStall { millis: 2 }, Command#5 KernelHang, Command#1 LaunchFault\n";

    #[test]
    fn token_cancel_releases_blocked_thread() {
        let token = FaultToken::new();
        assert!(!token.is_cancelled());
        let t2 = token.clone();
        let waiter = std::thread::spawn(move || t2.block_until_cancelled());
        std::thread::sleep(Duration::from_millis(5));
        token.cancel();
        waiter.join().unwrap();
        assert!(token.is_cancelled());
    }

    #[test]
    fn token_timed_wait_reports_cancellation() {
        let token = FaultToken::new();
        assert!(!token.wait_cancelled_for(Duration::from_millis(5)));
        token.cancel();
        assert!(token.wait_cancelled_for(Duration::from_millis(5)));
    }
}
