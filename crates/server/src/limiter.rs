//! Adaptive admission control: an AIMD concurrency limiter measured in
//! VM-cycle cost, replacing bounded-queue-or-busy as the overload
//! policy.
//!
//! Each admitted request holds a permit of its verb's *nominal cost* —
//! heavy pipeline verbs (profile, prefetch, classify, submit) weigh
//! orders of magnitude more than metadata reads, so one in-flight
//! profile displaces many stats calls, matching their real resource
//! footprints. The admitted-cost ceiling adapts: every successful
//! completion raises it **additively**, every overload signal (a
//! deadline-missed VM abort, or a downstream shed) cuts it
//! **multiplicatively** — the TCP-congestion-avoidance shape that
//! converges to fairness and keeps queue depth bounded instead of
//! collapsing under 2x sustained capacity.
//!
//! Requests over the ceiling are shed immediately with a typed `busy` +
//! retry-after — early, cheap refusal at the door instead of a timeout
//! after queueing. Shedding is load-dependent and therefore not part of
//! the byte-determinism contract; the limiter publishes only gauges and
//! counters, never bytes in logical outputs.

use crate::proto::{ErrorKind, Request, RequestMeta, Response};
use std::sync::atomic::{AtomicU64, Ordering};

/// Nominal admission cost of a heavy pipeline verb, in VM cycles
/// (roughly one test-scale profiling run).
pub const HEAVY_COST: u64 = 1_000_000;
/// Nominal admission cost of a metadata verb (parse + file I/O only).
pub const LIGHT_COST: u64 = 10_000;

/// The nominal VM-cycle cost a request's permit holds.
pub fn cost_of(req: &Request) -> u64 {
    match req {
        Request::Profile { .. }
        | Request::Classify { .. }
        | Request::Prefetch { .. }
        | Request::SubmitModule { .. } => HEAVY_COST,
        _ => LIGHT_COST,
    }
}

/// How an admitted request ended, as the limiter cares: did it finish
/// normally, or did it signal overload?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Completion {
    /// Finished (ok or a typed error unrelated to load).
    Done,
    /// Missed its deadline or was shed downstream: cut the ceiling.
    Overload,
}

/// The overload rule both daemons share. Load signals cut the ceiling:
/// a downstream `busy`, or a VM abort under an explicit deadline (a
/// deadline miss). Everything else — ok, or a typed error unrelated to
/// load such as `unavailable` (a liveness problem) — raises it.
pub(crate) fn completion_of(meta: &RequestMeta, resp: &Response) -> Completion {
    match resp {
        Response::Err {
            kind: ErrorKind::Busy,
            ..
        } => Completion::Overload,
        Response::Err {
            kind: ErrorKind::Vm,
            ..
        } if meta.deadline_fuel.is_some() => Completion::Overload,
        _ => Completion::Done,
    }
}

/// An AIMD admission limiter shared by a server's workers.
#[derive(Debug)]
pub struct AimdLimiter {
    /// Admitted-cost ceiling.
    limit: AtomicU64,
    /// Cost currently admitted.
    in_flight: AtomicU64,
    min_limit: u64,
    max_limit: u64,
    /// Additive raise per successful completion.
    raise: u64,
}

impl AimdLimiter {
    /// Builds a limiter starting (and bottoming out) at `min_limit`
    /// cost units, ceilinged at `max_limit`, raising by `raise` per
    /// success. The floor always admits at least one heavy request, so
    /// the limiter can never deadlock a quiet server.
    pub fn new(min_limit: u64, max_limit: u64, raise: u64) -> AimdLimiter {
        let min_limit = min_limit.max(HEAVY_COST);
        AimdLimiter {
            limit: AtomicU64::new(min_limit),
            in_flight: AtomicU64::new(0),
            min_limit,
            max_limit: max_limit.max(min_limit),
            raise,
        }
    }

    /// A limiter sized for the loopback test/default deployment: floor
    /// of four heavy requests, ceiling of sixty-four, raising by one
    /// light cost per success (reaches the ceiling after ~6k successes,
    /// recovers from a halving in ~400).
    pub fn default_sized() -> AimdLimiter {
        AimdLimiter::new(4 * HEAVY_COST, 64 * HEAVY_COST, LIGHT_COST)
    }

    /// Tries to admit `cost`; on refusal the caller sheds with a typed
    /// `busy`. A request is always admitted when nothing is in flight,
    /// whatever its cost, so a single huge request cannot starve.
    pub fn try_acquire(&self, cost: u64) -> bool {
        let mut cur = self.in_flight.load(Ordering::Relaxed);
        loop {
            if cur > 0 && cur.saturating_add(cost) > self.limit.load(Ordering::Relaxed) {
                return false;
            }
            match self.in_flight.compare_exchange_weak(
                cur,
                cur + cost,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Releases an admitted request's permit and adapts the ceiling.
    pub fn release(&self, cost: u64, completion: Completion) {
        // Saturating: a release can never underflow even if pairing is
        // violated by a panicking handler path.
        let mut cur = self.in_flight.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(cost);
            match self.in_flight.compare_exchange_weak(
                cur,
                next,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        match completion {
            Completion::Done => {
                let cur = self.limit.load(Ordering::Relaxed);
                if cur < self.max_limit {
                    self.limit
                        .store((cur + self.raise).min(self.max_limit), Ordering::Relaxed);
                }
            }
            Completion::Overload => self.cut(),
        }
    }

    /// Multiplicative cut (halve, clamped to the floor) — also called
    /// directly when a shed happens before admission elsewhere.
    pub fn cut(&self) {
        let cur = self.limit.load(Ordering::Relaxed);
        self.limit
            .store((cur / 2).max(self.min_limit), Ordering::Relaxed);
    }

    /// Current admitted-cost ceiling.
    pub fn limit(&self) -> u64 {
        self.limit.load(Ordering::Relaxed)
    }

    /// Cost currently in flight.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_raises_and_cuts() {
        let lim = AimdLimiter::new(2 * HEAVY_COST, 8 * HEAVY_COST, HEAVY_COST);
        assert!(lim.try_acquire(HEAVY_COST));
        assert!(lim.try_acquire(HEAVY_COST));
        // At the ceiling: the third heavy request sheds.
        assert!(!lim.try_acquire(HEAVY_COST));
        // Success raises additively.
        lim.release(HEAVY_COST, Completion::Done);
        assert_eq!(lim.limit(), 3 * HEAVY_COST);
        assert!(lim.try_acquire(HEAVY_COST));
        // Overload cuts multiplicatively, clamped at the floor.
        lim.release(HEAVY_COST, Completion::Overload);
        assert_eq!(lim.limit(), 2 * HEAVY_COST);
        lim.release(HEAVY_COST, Completion::Overload);
        assert_eq!(lim.limit(), 2 * HEAVY_COST, "never below the floor");
        assert_eq!(lim.in_flight(), 0);
    }

    #[test]
    fn empty_limiter_always_admits_one() {
        let lim = AimdLimiter::new(HEAVY_COST, HEAVY_COST, 0);
        // Ten times the ceiling, but nothing in flight: admitted.
        assert!(lim.try_acquire(10 * HEAVY_COST));
        assert!(!lim.try_acquire(LIGHT_COST));
        lim.release(10 * HEAVY_COST, Completion::Done);
        assert!(lim.try_acquire(LIGHT_COST));
    }

    #[test]
    fn ceiling_is_clamped_to_max() {
        let lim = AimdLimiter::new(HEAVY_COST, 2 * HEAVY_COST, HEAVY_COST);
        for _ in 0..10 {
            assert!(lim.try_acquire(LIGHT_COST));
            lim.release(LIGHT_COST, Completion::Done);
        }
        assert_eq!(lim.limit(), 2 * HEAVY_COST);
    }

    #[test]
    fn overload_rule_flags_load_signals_only() {
        let timed = RequestMeta {
            deadline_fuel: Some(1),
            ..RequestMeta::default()
        };
        let untimed = RequestMeta::default();
        let err = |kind| Response::err(kind, "x");
        assert_eq!(
            completion_of(&untimed, &err(ErrorKind::Busy)),
            Completion::Overload
        );
        assert_eq!(
            completion_of(&timed, &err(ErrorKind::Vm)),
            Completion::Overload
        );
        assert_eq!(
            completion_of(&untimed, &err(ErrorKind::Vm)),
            Completion::Done
        );
        assert_eq!(
            completion_of(&timed, &err(ErrorKind::Unavailable)),
            Completion::Done
        );
        assert_eq!(
            completion_of(&timed, &Response::Ok(String::new())),
            Completion::Done
        );
    }

    #[test]
    fn verb_costs_split_heavy_from_light() {
        assert_eq!(
            cost_of(&Request::Profile {
                workload: "x".into(),
                variant: stride_core::ProfilingVariant::EdgeCheck,
                args: vec![],
            }),
            HEAVY_COST
        );
        assert_eq!(cost_of(&Request::Stats), LIGHT_COST);
        assert_eq!(cost_of(&Request::Ping), LIGHT_COST);
        assert_eq!(
            cost_of(&Request::MergeProfile {
                entry_text: String::new()
            }),
            LIGHT_COST
        );
    }
}
