//! The constructive ground-truth oracle.
//!
//! For every load site a generated workload will contain, this module
//! derives the site's Fig. 5 classification *from the generator's own
//! stride schedule* — by simulating the exact address sequence the
//! emitted IR will produce (including the in-IR LCG, replicated
//! bit-for-bit) and applying the documented counting rules, **without
//! running the profiler or the VM**:
//!
//! * the guarded methods' activation predicate `(header_freq >> W) >
//!   entry_freq`, evaluated per loop entry exactly as Figs. 11–14 insert
//!   it, decides which outer passes are profiled at all;
//! * the enhanced Fig. 7 `strideProf` counting rules (16-byte
//!   `is_same_value` zero-stride fast path that leaves `prev_address`
//!   unchanged, diff bookkeeping against the current phase's stride) are
//!   applied with *full* per-stride counts — a `BTreeMap` instead of the
//!   production LFU, so the oracle is independent of the LFU
//!   implementation it helps test;
//! * the frequency/trip filters and SSST/PMST/WSST thresholds come from
//!   the same [`ClassifyThresholds`] the production classifier reads.
//!
//! The only freedom left to the production stack is LFU count erosion
//! under eviction pressure and floating-point noise at thresholds; the
//! generator closes that gap by redrawing any site whose exact ratios
//! fall within a safety margin of a decision boundary
//! ([`margin_check`]).

use crate::spec::{GenSpec, SiteKind, SiteSpec};
use std::collections::BTreeMap;
use stride_core::{ClassifyThresholds, StrideClass};

/// Knuth's MMIX LCG constants — must match `stride_workloads::common::Lcg`.
const LCG_MUL: i64 = 6364136223846793005;
const LCG_ADD: i64 = 1442695040888963407;

/// One step of the in-IR LCG, mirrored in host arithmetic: `Mul`/`Add`
/// wrap on i64, `Lshr` is a logical shift of the 64-bit pattern.
fn lcg_next(state: &mut i64) -> i64 {
    *state = state.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
    ((*state as u64) >> 33) as i64
}

/// Full-count mirror of the enhanced Fig. 7 `strideProf` routine: same
/// zero-stride fast path (which bypasses the counters *and* leaves
/// `prev_address` unchanged), same diff bookkeeping, but exact per-stride
/// counts instead of an LFU approximation.
#[derive(Clone, Debug, Default)]
pub struct FullProf {
    prev_addr: Option<u64>,
    prev_stride: Option<i64>,
    /// References on the zero-stride fast path (not counted in `total`).
    pub zero_stride: u64,
    /// Zero stride-differences (the phased signal).
    pub zero_diff: u64,
    /// Stride differences observed.
    pub total_diffs: u64,
    /// Exact stride histogram.
    pub counts: BTreeMap<i64, u64>,
    /// Non-zero strides recorded (Fig. 5's `total_freq`).
    pub total: u64,
}

/// Low bits ignored by the enhanced `is_same_value` comparison.
const SAME_VALUE_SHIFT: u32 = 4;

impl FullProf {
    fn feed(&mut self, addr: u64) {
        let Some(prev) = self.prev_addr else {
            self.prev_addr = Some(addr);
            return;
        };
        if (addr >> SAME_VALUE_SHIFT) == (prev >> SAME_VALUE_SHIFT) {
            self.zero_stride += 1;
            return; // prev_addr intentionally NOT updated (Fig. 7)
        }
        let stride = addr.wrapping_sub(prev) as i64;
        match self.prev_stride {
            Some(ps) => {
                self.total_diffs += 1;
                if stride == ps {
                    self.zero_diff += 1;
                } else {
                    self.prev_stride = Some(stride);
                }
            }
            None => self.prev_stride = Some(stride),
        }
        self.prev_addr = Some(addr);
        *self.counts.entry(stride).or_default() += 1;
        self.total += 1;
    }

    /// `(top1_count, top1_stride)` — ties broken toward the smaller
    /// stride (irrelevant for ratio checks; only reported).
    fn top1(&self) -> (u64, i64) {
        self.counts
            .iter()
            .map(|(&s, &c)| (c, s))
            .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
            .unwrap_or((0, 0))
    }

    /// Sum of the four largest counts.
    fn top4(&self) -> u64 {
        let mut c: Vec<u64> = self.counts.values().copied().collect();
        c.sort_unstable_by(|a, b| b.cmp(a));
        c.iter().take(4).sum()
    }
}

/// Ground truth for one emitted load site.
#[derive(Clone, Debug)]
pub struct SiteTruth {
    /// Site label, e.g. `s1.phased` or `s2.path.join` — matches
    /// `emit::build`'s tracked-site order exactly.
    pub label: String,
    /// Index of the owning [`SiteSpec`] in the workload.
    pub spec_index: usize,
    /// The constructive classification.
    pub expected: Option<StrideClass>,
    /// Block frequency the edge counters will report (all passes).
    pub freq: u64,
    /// Trip-count estimate the classifier will compute.
    pub trip_est: f64,
    /// References fed to the (guard-gated) profile.
    pub profiled_refs: u64,
    /// Non-zero strides recorded.
    pub total: u64,
    /// Exact `top1/total` ratio.
    pub top1: f64,
    /// Exact `top4/total` ratio.
    pub top4: f64,
    /// Exact `zero_diffs/total` ratio.
    pub zero_diff: f64,
    /// The dominant stride (0 when no stride was recorded).
    pub dominant: i64,
}

impl SiteTruth {
    /// Renders a class option the way reports spell it.
    pub fn class_name(c: Option<StrideClass>) -> &'static str {
        match c {
            Some(StrideClass::Ssst) => "SSST",
            Some(StrideClass::Pmst) => "PMST",
            Some(StrideClass::Wsst) => "WSST",
            None => "none",
        }
    }
}

/// A simulated site: the label suffix plus its profile-in-progress and
/// block-execution count.
struct SimSite {
    suffix: &'static str,
    prof: FullProf,
    freq: u64,
}

/// Simulates one loop nest and returns its site profiles in emission
/// order. `guarded` selects the edge/block-check activation model; the
/// naïve methods profile every pass.
fn simulate(site: &SiteSpec, t: &ClassifyThresholds, guarded: bool) -> Vec<SimSite> {
    let shift = t.trip_shift();
    let (passes, trip) = (site.passes, site.trip);
    // Guard predicate at entry k (1-based): checked after the entry
    // counter bump, so r1 = k and r2 = prior header executions
    // (trip body iterations + 1 exit check per completed pass).
    let pass_on = |k: u64| !guarded || ((k - 1) * (trip + 1)) >> shift > k;

    let mk = |suffix| SimSite {
        suffix,
        prof: FullProf::default(),
        freq: 0,
    };

    match &site.kind {
        SiteKind::ConstStride { stride }
        | SiteKind::LowTrip { stride }
        | SiteKind::ColdLoop { stride } => {
            let mut s = mk("");
            let mut w: u64 = 1 << 22;
            for k in 1..=passes {
                let on = pass_on(k);
                for _ in 0..trip {
                    w = w.wrapping_add(*stride as u64);
                    s.freq += 1;
                    if on {
                        s.prof.feed(w);
                    }
                }
            }
            vec![s]
        }
        SiteKind::PointerChase { node_size } => {
            let mut s = mk("");
            for k in 1..=passes {
                let on = pass_on(k);
                let mut p: u64 = 0;
                for _ in 0..trip {
                    s.freq += 1;
                    if on {
                        s.prof.feed(p);
                    }
                    p = p.wrapping_add(*node_size as u64);
                }
            }
            vec![s]
        }
        SiteKind::PhasedStride {
            strides,
            phase_len_log2,
        } => {
            let mut s = mk("");
            let mut w: u64 = 0;
            let mut g: u64 = 0;
            let kmask = strides.len() as u64 - 1;
            for k in 1..=passes {
                let on = pass_on(k);
                for _ in 0..trip {
                    let ph = (g >> phase_len_log2) & kmask;
                    w = w.wrapping_add(strides[ph as usize] as u64);
                    s.freq += 1;
                    if on {
                        s.prof.feed(w);
                    }
                    g += 1;
                }
            }
            vec![s]
        }
        SiteKind::PathPhased { a, b } => {
            let mut sa = mk(".a");
            let mut sb = mk(".b");
            let mut sj = mk(".join");
            let (mut cx, mut cy, mut sh) = (0u64, 1u64 << 21, 1u64 << 22);
            let mut g: u64 = 0;
            for k in 1..=passes {
                let on = pass_on(k);
                for _ in 0..trip {
                    let ph = (g >> 6) & 1;
                    if ph == 0 {
                        cx = cx.wrapping_add(*a as u64);
                        sa.freq += 1;
                        if on {
                            sa.prof.feed(cx);
                        }
                        sh = sh.wrapping_add(*a as u64);
                    } else {
                        cy = cy.wrapping_add(*b as u64);
                        sb.freq += 1;
                        if on {
                            sb.prof.feed(cy);
                        }
                        sh = sh.wrapping_add(*b as u64);
                    }
                    sj.freq += 1;
                    if on {
                        sj.prof.feed(sh);
                    }
                    g += 1;
                }
            }
            vec![sa, sb, sj]
        }
        SiteKind::AlternatingStride { a, b } => {
            let mut s = mk("");
            let mut w: u64 = 0;
            let mut g: u64 = 0;
            for k in 1..=passes {
                let on = pass_on(k);
                for _ in 0..trip {
                    let step = if g & 1 == 0 { *a } else { *b };
                    w = w.wrapping_add(step as u64);
                    s.freq += 1;
                    if on {
                        s.prof.feed(w);
                    }
                    g += 1;
                }
            }
            vec![s]
        }
        SiteKind::WeakStride { stride, lcg_seed } => {
            let mut s = mk("");
            let mut w: u64 = 0;
            let mut g: u64 = 0;
            let mut lcg = *lcg_seed;
            for k in 1..=passes {
                let on = pass_on(k);
                for _ in 0..trip {
                    let strided = g % 7 < 4;
                    if strided {
                        w = w.wrapping_add(*stride as u64);
                    }
                    let off = (lcg_next(&mut lcg) & 0x7ff) as u64 * 16;
                    let addr = if strided { w } else { (1 << 22) + off };
                    s.freq += 1;
                    if on {
                        s.prof.feed(addr);
                    }
                    g += 1;
                }
            }
            vec![s]
        }
        SiteKind::HashProbe { mask, lcg_seed } => {
            let mut s = mk("");
            let mut lcg = *lcg_seed;
            for k in 1..=passes {
                let on = pass_on(k);
                for _ in 0..trip {
                    let addr = (lcg_next(&mut lcg) & mask) as u64 * 16;
                    s.freq += 1;
                    if on {
                        s.prof.feed(addr);
                    }
                }
            }
            vec![s]
        }
    }
}

/// Applies the Fig. 5 decision tree to exact ratios. Mirrors
/// `classify_profile` + the frequency/trip filters of `classify`.
fn decide(
    t: &ClassifyThresholds,
    freq: u64,
    trip_est: f64,
    total: u64,
    top1: f64,
    top4: f64,
    zero_diff: f64,
) -> Option<StrideClass> {
    if freq < t.frequency_threshold {
        return None;
    }
    if trip_est < t.trip_count_threshold as f64 {
        return None;
    }
    if total == 0 {
        return None; // empty or never-activated profile
    }
    if top1 >= t.ssst_threshold {
        Some(StrideClass::Ssst)
    } else if top4 >= t.pmst_threshold && zero_diff >= t.pmst_diff_threshold {
        Some(StrideClass::Pmst)
    } else if top1 >= t.wsst_threshold && zero_diff >= t.wsst_diff_threshold {
        Some(StrideClass::Wsst)
    } else {
        None
    }
}

/// Derives the ground truth of one loop nest's sites.
fn site_truths(
    site: &SiteSpec,
    spec_index: usize,
    t: &ClassifyThresholds,
    guarded: bool,
) -> Vec<SiteTruth> {
    let trip_est = (site.passes * (site.trip + 1)) as f64 / site.passes as f64;
    simulate(site, t, guarded)
        .into_iter()
        .map(|s| {
            let (c1, dominant) = s.prof.top1();
            let total = s.prof.total;
            let ratio = |n: u64| {
                if total == 0 {
                    0.0
                } else {
                    n as f64 / total as f64
                }
            };
            let (top1, top4, zero_diff) =
                (ratio(c1), ratio(s.prof.top4()), ratio(s.prof.zero_diff));
            SiteTruth {
                label: format!("s{spec_index}.{}{}", site.kind.tag(), s.suffix),
                spec_index,
                expected: decide(t, s.freq, trip_est, total, top1, top4, zero_diff),
                freq: s.freq,
                trip_est,
                profiled_refs: s.prof.total
                    + s.prof.zero_stride
                    + if s.prof.prev_addr.is_some() { 1 } else { 0 },
                total,
                top1,
                top4,
                zero_diff,
                dominant: if c1 == 0 { 0 } else { dominant },
            }
        })
        .collect()
}

/// Ground truth for a whole workload, in the emitter's tracked-site
/// order. `guarded` must match the profiling variant the campaign runs
/// (edge/block-check: true; naive-loop/naive-all: false).
pub fn ground_truth(spec: &GenSpec, t: &ClassifyThresholds, guarded: bool) -> Vec<SiteTruth> {
    spec.sites
        .iter()
        .enumerate()
        .flat_map(|(i, s)| site_truths(s, i, t, guarded))
        .collect()
}

/// Margin of safety around every ratio threshold: the production LFU may
/// erode dominant-stride counts slightly under eviction pressure, and the
/// profiled suffix differs from the full schedule by at most the
/// activation prefix. Ratios must clear every *decision-relevant*
/// threshold by this much.
const RATIO_MARGIN: f64 = 0.04;

/// The classification must be invariant when all three ratios are
/// perturbed by ±margin in any combination — i.e. no decision path
/// through Fig. 5 changes within the margin box.
fn ratio_stable(
    t: &ClassifyThresholds,
    freq: u64,
    trip_est: f64,
    total: u64,
    top1: f64,
    top4: f64,
    zero_diff: f64,
) -> bool {
    let base = decide(t, freq, trip_est, total, top1, top4, zero_diff);
    for sel in 0..8u32 {
        let d = |bit: u32| {
            if sel & (1 << bit) != 0 {
                RATIO_MARGIN
            } else {
                -RATIO_MARGIN
            }
        };
        let p = decide(
            t,
            freq,
            trip_est,
            total,
            (top1 + d(0)).clamp(0.0, 1.0),
            (top4 + d(1)).clamp(0.0, 1.0),
            (zero_diff + d(2)).clamp(0.0, 1.0),
        );
        if p != base {
            return false;
        }
    }
    true
}

/// Accepts a drawn site only when its constructive classification is
/// robust: frequency clearly above/below `FT` (×1.5 / ×0.6), trip
/// estimate clearly above/below `TT` when frequency passes, ratios
/// outside the ±`RATIO_MARGIN` box around every decision path — under
/// both the guarded and the unguarded profiling models.
pub fn margin_check(site: &SiteSpec, t: &ClassifyThresholds) -> bool {
    let ft = t.frequency_threshold as f64;
    let tt = t.trip_count_threshold as f64;
    for guarded in [true, false] {
        for truth in site_truths(site, 0, t, guarded) {
            let f = truth.freq as f64;
            if f > 0.6 * ft && f < 1.5 * ft {
                return false;
            }
            if f >= 1.5 * ft {
                let te = truth.trip_est;
                if te > 0.6 * tt && te < 1.5 * tt {
                    return false;
                }
                if te >= 1.5 * tt
                    && !ratio_stable(
                        t,
                        truth.freq,
                        te,
                        truth.total,
                        truth.top1,
                        truth.top4,
                        truth.zero_diff,
                    )
                {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::spec::{draw_site, GenConfig};

    fn t() -> ClassifyThresholds {
        GenConfig::campaign().thresholds
    }

    #[test]
    fn lcg_mirror_matches_mmix_constants() {
        // One step from state 1: the constants must be Knuth's MMIX pair
        // used by stride_workloads::common::Lcg.
        let mut s = 1i64;
        let v = lcg_next(&mut s);
        let expect_state = 1i64
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        assert_eq!(s, expect_state);
        assert_eq!(v, ((expect_state as u64) >> 33) as i64);
    }

    #[test]
    fn const_stride_is_ssst_with_exact_dominant() {
        let site = SiteSpec {
            kind: SiteKind::ConstStride { stride: 128 },
            passes: 4,
            trip: 512,
        };
        let tr = &site_truths(&site, 0, &t(), true)[0];
        assert_eq!(tr.expected, Some(StrideClass::Ssst));
        assert_eq!(tr.dominant, 128);
        assert!(tr.top1 > 0.999);
        // Guard activates at pass 2: exactly 3 of 4 passes profiled.
        assert_eq!(tr.profiled_refs, 3 * 512);
        assert_eq!(tr.freq, 4 * 512);
    }

    #[test]
    fn negative_stride_is_ssst() {
        let site = SiteSpec {
            kind: SiteKind::ConstStride { stride: -64 },
            passes: 5,
            trip: 400,
        };
        let tr = &site_truths(&site, 0, &t(), true)[0];
        assert_eq!(tr.expected, Some(StrideClass::Ssst));
        assert_eq!(tr.dominant, -64);
    }

    #[test]
    fn intended_classes_match_constructive_truth() {
        // 300 random draws: the archetype's design intent must equal the
        // schedule-derived truth for every site, guarded and unguarded.
        let mut rng = Rng::new(0x5eed);
        let th = t();
        for case in 0..300 {
            let mut site = draw_site(&mut rng);
            while !margin_check(&site, &th) {
                site = draw_site(&mut rng);
            }
            for guarded in [true, false] {
                let got: Vec<_> = site_truths(&site, 0, &th, guarded)
                    .iter()
                    .map(|s| s.expected)
                    .collect();
                assert_eq!(
                    got,
                    site.kind.intended(),
                    "case {case} ({}; guarded={guarded}): {site:?}",
                    site.kind.tag()
                );
            }
        }
    }

    #[test]
    fn alternating_is_the_documented_blind_spot() {
        // Top-2 strides cover every reference, yet Fig. 5 classifies
        // nothing: zero_diff is identically 0.
        let site = SiteSpec {
            kind: SiteKind::AlternatingStride { a: 64, b: 160 },
            passes: 5,
            trip: 500,
        };
        let tr = &site_truths(&site, 0, &t(), true)[0];
        assert_eq!(tr.expected, None);
        assert_eq!(tr.zero_diff, 0.0);
        assert!(tr.top4 > 0.99);
    }

    #[test]
    fn low_trip_and_cold_never_activate_the_guard() {
        let low = SiteSpec {
            kind: SiteKind::LowTrip { stride: 64 },
            passes: 40,
            trip: 32,
        };
        let tr = &site_truths(&low, 0, &t(), true)[0];
        assert_eq!(tr.expected, None);
        assert_eq!(tr.profiled_refs, 0, "guard must never fire below TT");
        let cold = SiteSpec {
            kind: SiteKind::ColdLoop { stride: 64 },
            passes: 1,
            trip: 64,
        };
        let tr = &site_truths(&cold, 0, &t(), true)[0];
        assert_eq!(tr.expected, None);
        assert_eq!(tr.profiled_refs, 0, "single-entry nests are never profiled");
    }

    #[test]
    fn path_phased_arms_are_pure_ssst() {
        let site = SiteSpec {
            kind: SiteKind::PathPhased { a: 96, b: 224 },
            passes: 4,
            trip: 512,
        };
        let ts = site_truths(&site, 0, &t(), true);
        assert_eq!(ts.len(), 3);
        // Per-arm cursors advance only on their own path, so across the
        // 64-iteration phase gaps the stride is *still* constant: the
        // multi-iteration path-sensitive signal.
        assert_eq!(ts[0].expected, Some(StrideClass::Ssst));
        assert_eq!(ts[0].top1, 1.0);
        assert_eq!(ts[0].dominant, 96);
        assert_eq!(ts[1].expected, Some(StrideClass::Ssst));
        assert_eq!(ts[1].dominant, 224);
        assert_eq!(ts[2].expected, Some(StrideClass::Pmst));
        assert_eq!(ts[2].label, "s0.path.join");
    }

    #[test]
    fn weak_stride_ratios_sit_mid_band() {
        let site = SiteSpec {
            kind: SiteKind::WeakStride {
                stride: 128,
                lcg_seed: 99,
            },
            passes: 5,
            trip: 600,
        };
        let tr = &site_truths(&site, 0, &t(), true)[0];
        assert_eq!(tr.expected, Some(StrideClass::Wsst));
        assert!(tr.top1 > 0.35 && tr.top1 < 0.5, "top1 {}", tr.top1);
        assert!(tr.zero_diff > 0.2 && tr.zero_diff < 0.35);
    }
}
