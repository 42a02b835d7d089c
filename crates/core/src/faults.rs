//! Deterministic fault injection at the pipeline's layer boundaries.
//!
//! A [`FaultPlan`] is a seed plus a list of [`FaultScenario`]s, each
//! naming one [`FaultKind`] and optionally one workload it applies to.
//! Faults are applied by a [`FaultInjector`] at exactly three places:
//!
//! * **VM configuration** ([`FaultInjector::vm_overrides`]): fuel caps
//!   (mid-run [`stride_vm::VmError::OutOfFuel`]) and shrunken address
//!   limits (wild demand accesses surface as `InvalidMemoryAccess`).
//! * **IR text** ([`corrupt_ir_text`]): a deterministic byte-level
//!   corruption of the module's printed form, exercising the parser's
//!   structured [`stride_ir::ParseError`] path.
//! * **Profiles** ([`FaultInjector::apply_to_profiles`]): truncated or
//!   corrupted stride top-N tables, dropped LFU counter updates,
//!   saturated frequency counters, and stale (remapped) profile sites —
//!   the shape of a run-cache entry recorded against an older module
//!   revision.
//!
//! Everything is keyed off `splitmix64(seed ^ site)`, never off iteration
//! order, global state or time, so the same plan produces byte-identical
//! outcomes at any `--jobs` level.
//!
//! # The degradation contract
//!
//! Every profile fault is *loss-shaped*: it can only remove top-table
//! entries, lower counter values, or invalidate sites — never raise a
//! ratio the Fig. 5 classifier compares against its thresholds (totals
//! are kept when entries are dropped, so ratios only fall). Hence under
//! any plan the faulted prefetch set is a subset of the clean one:
//! classification may move loads *out of* SSST/PMST/WSST toward
//! no-prefetch, never into them. [`degradation_violations`] checks that
//! invariant for a (clean, faulted) classification pair.

use crate::classify::Classification;
use crate::error::PipelineError;
use crate::pipeline::{PipelineConfig, ProfileOutcome};
use std::collections::BTreeSet;
use stride_ir::{InstrId, Module, ParseError};
use stride_profiling::{EdgeProfile, StrideProfile};
use stride_vm::VmConfig;

/// splitmix64: a tiny, seedable, statistically solid mixer. Used both as
/// a stream RNG and as a keyed hash for order-independent site selection.
#[derive(Clone, Debug)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Creates a generator from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultRng { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(SPLITMIX64_GAMMA);
        splitmix64_mix(self.state)
    }

    /// Uniform value in `0..n` (`n` must be non-zero).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        self.next_u64() % n
    }
}

/// splitmix64 stream increment (the golden-ratio gamma).
pub const SPLITMIX64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64 finalizer: the repo's one seeded mixer. Every splitmix64
/// stream (fault plans, genwork corpora, client backoff and idempotency
/// ids, the router's id stamper, failure-detector thresholds, faultsim
/// schedules) is `state += SPLITMIX64_GAMMA; splitmix64_mix(state)`.
#[inline]
pub fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-independent per-site hash: the same (seed, func, site) always
/// selects or spares a site, regardless of how profiles are iterated.
fn site_hash(seed: u64, func: stride_ir::FuncId, site: InstrId) -> u64 {
    splitmix64_mix(seed ^ ((func.index() as u64) << 32) ^ site.index() as u64)
}

/// Instruction-id offset used by [`FaultKind::StaleProfile`] to remap
/// sites out of the module (simulating a profile recorded against an
/// older module revision).
pub const STALE_SITE_OFFSET: u32 = 1 << 20;

/// One kind of injected failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Truncate every stride profile's top-N table to `keep` entries,
    /// keeping `total_freq` (table loss, not sample loss).
    TruncateStrideTop {
        /// Entries kept per table (0 empties every table).
        keep: usize,
    },
    /// Remove the whole stride profile of one in `modulus` sites.
    DropStrideSites {
        /// Selection modulus (1 drops every site).
        modulus: u64,
    },
    /// Zero the top-table frequencies of one in `modulus` sites (a
    /// corrupted table the classifier must reject, not divide by).
    CorruptStrideTables {
        /// Selection modulus (1 corrupts every site).
        modulus: u64,
    },
    /// Lose `percent`% of LFU counter updates: top-table entry counts
    /// shrink while the reference total keeps ticking.
    DropLfuUpdates {
        /// Percentage of update mass lost, 0–100.
        percent: u64,
    },
    /// Clamp every edge/block frequency counter at `cap`.
    SaturateFreqCounters {
        /// Upper bound applied to every counter.
        cap: u64,
    },
    /// Clamp every stride top-table entry count and zero-diff count at
    /// `cap`, keeping totals (ratios can only fall).
    SaturateStrideCounters {
        /// Upper bound applied to per-entry counts.
        cap: u64,
    },
    /// Cap the profiling run's VM fuel, forcing mid-run
    /// [`stride_vm::VmError::OutOfFuel`].
    FuelExhaustion {
        /// Dynamic-instruction budget for the profiling run.
        fuel: u64,
    },
    /// Shrink the VM's simulated address space for the profiling run, so
    /// out-of-range demand accesses surface as `InvalidMemoryAccess`.
    AddressLimit {
        /// Exclusive address upper bound.
        limit: u64,
    },
    /// Corrupt the module's printed IR before re-parsing it, exercising
    /// the parser's structured error path.
    MalformedIr,
    /// Remap every stride-profile site id past the module's instruction
    /// space: the shape of a stale run-cache entry whose module hash no
    /// longer matches.
    StaleProfile,
    /// Disk: the next WAL append persists only the first `at` bytes of
    /// the record and errors — a crash mid-write. One-shot.
    DiskTornWrite {
        /// Bytes of the record that reach the disk.
        at: u64,
    },
    /// Disk: the next WAL append silently flips bit `bit % record_bits`
    /// — latent corruption only a checksum catches. One-shot.
    DiskBitFlip {
        /// Bit index (mod record size) to flip.
        bit: u64,
    },
    /// Disk: the `nth` upcoming fsync (1-based) fails, so the merge must
    /// not be acknowledged. One-shot.
    DiskFsyncFail {
        /// Which fsync fails.
        nth: u64,
    },
    /// Disk: recovery reads at most `len` bytes of the WAL — a short
    /// read from a failing device.
    DiskShortRead {
        /// Byte cap on the recovery read.
        len: u64,
    },
    /// Net: the server drops its `nth` (1-based) response — the frame
    /// vanishes and the connection closes.
    NetDropFrame {
        /// Which response is dropped.
        nth: u64,
    },
    /// Net: the client sends its `nth` request frame twice (duplicate
    /// delivery — what idempotency ids must absorb).
    NetDupFrame {
        /// Which request is duplicated.
        nth: u64,
    },
    /// Net: the server truncates its `nth` response mid-frame and closes
    /// — the client's checksum must catch the partial bytes.
    NetTruncFrame {
        /// Which response is truncated.
        nth: u64,
    },
    /// Net: the server resets the connection before answering its `nth`
    /// request (RST instead of FIN where the platform allows).
    NetReset {
        /// Which request triggers the reset.
        nth: u64,
    },
    /// Net: the server stalls `ms` milliseconds before each response —
    /// the shape of a congested or half-dead peer.
    NetStall {
        /// Stall duration in milliseconds.
        ms: u64,
    },
}

impl FaultKind {
    /// The spec-string name this kind parses from (see
    /// [`FaultPlan::parse`]).
    pub fn spec_name(&self) -> &'static str {
        match self {
            FaultKind::TruncateStrideTop { .. } => "truncate",
            FaultKind::DropStrideSites { .. } => "drop-sites",
            FaultKind::CorruptStrideTables { .. } => "corrupt",
            FaultKind::DropLfuUpdates { .. } => "drop-updates",
            FaultKind::SaturateFreqCounters { .. } => "clamp-freq",
            FaultKind::SaturateStrideCounters { .. } => "clamp-stride",
            FaultKind::FuelExhaustion { .. } => "fuel",
            FaultKind::AddressLimit { .. } => "addr-limit",
            FaultKind::MalformedIr => "malformed-ir",
            FaultKind::StaleProfile => "stale-profile",
            FaultKind::DiskTornWrite { .. } => "disk-torn",
            FaultKind::DiskBitFlip { .. } => "disk-bitflip",
            FaultKind::DiskFsyncFail { .. } => "disk-fsync-fail",
            FaultKind::DiskShortRead { .. } => "disk-short-read",
            FaultKind::NetDropFrame { .. } => "net-drop",
            FaultKind::NetDupFrame { .. } => "net-dup",
            FaultKind::NetTruncFrame { .. } => "net-trunc",
            FaultKind::NetReset { .. } => "net-reset",
            FaultKind::NetStall { .. } => "net-stall",
        }
    }
}

/// One fault applied to one workload (or to all of them).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultScenario {
    /// What to break.
    pub kind: FaultKind,
    /// Workload name the fault is scoped to; `None` applies everywhere.
    pub target: Option<String>,
}

impl FaultScenario {
    /// Does this scenario apply to `workload`?
    pub fn applies_to(&self, workload: &str) -> bool {
        self.target.as_deref().is_none_or(|t| t == workload)
    }

    /// Renders the scenario back into spec-string form.
    pub fn spec(&self) -> String {
        let head = match &self.kind {
            FaultKind::TruncateStrideTop { keep } => format!("truncate={keep}"),
            FaultKind::DropStrideSites { modulus } => format!("drop-sites={modulus}"),
            FaultKind::CorruptStrideTables { modulus } => format!("corrupt={modulus}"),
            FaultKind::DropLfuUpdates { percent } => format!("drop-updates={percent}"),
            FaultKind::SaturateFreqCounters { cap } => format!("clamp-freq={cap}"),
            FaultKind::SaturateStrideCounters { cap } => format!("clamp-stride={cap}"),
            FaultKind::FuelExhaustion { fuel } => format!("fuel={fuel}"),
            FaultKind::AddressLimit { limit } => format!("addr-limit={limit}"),
            FaultKind::MalformedIr => "malformed-ir".to_string(),
            FaultKind::StaleProfile => "stale-profile".to_string(),
            FaultKind::DiskTornWrite { at } => format!("disk-torn={at}"),
            FaultKind::DiskBitFlip { bit } => format!("disk-bitflip={bit}"),
            FaultKind::DiskFsyncFail { nth } => format!("disk-fsync-fail={nth}"),
            FaultKind::DiskShortRead { len } => format!("disk-short-read={len}"),
            FaultKind::NetDropFrame { nth } => format!("net-drop={nth}"),
            FaultKind::NetDupFrame { nth } => format!("net-dup={nth}"),
            FaultKind::NetTruncFrame { nth } => format!("net-trunc={nth}"),
            FaultKind::NetReset { nth } => format!("net-reset={nth}"),
            FaultKind::NetStall { ms } => format!("net-stall={ms}"),
        };
        match &self.target {
            Some(t) => format!("{head}@{t}"),
            None => head,
        }
    }
}

/// A reproducible fault campaign: a seed plus the scenarios to inject.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for all site selection and byte corruption.
    pub seed: u64,
    /// Faults to apply, in order.
    pub scenarios: Vec<FaultScenario>,
}

impl FaultPlan {
    /// Parses a `--inject` spec string.
    ///
    /// Grammar: semicolon-separated clauses, each
    /// `name[=value][@workload]`. `seed=N` sets the seed (default 0);
    /// every other clause appends a scenario:
    ///
    /// ```text
    /// seed=42;fuel=100000@181.mcf;truncate=2;stale-profile@254.gap
    /// ```
    ///
    /// # Errors
    ///
    /// [`PipelineError::BadFaultPlan`] on unknown clause names, missing
    /// or unparsable values, or a targeted `seed`.
    pub fn parse(spec: &str) -> Result<FaultPlan, PipelineError> {
        let bad = |msg: String| PipelineError::BadFaultPlan(msg);
        let mut plan = FaultPlan::default();
        for raw in spec.split(';') {
            let clause = raw.trim();
            if clause.is_empty() {
                continue;
            }
            let (head, target) = match clause.split_once('@') {
                Some((h, t)) if t.trim().is_empty() => {
                    return Err(bad(format!("empty workload target in `{h}@`")));
                }
                Some((h, t)) => (h.trim(), Some(t.trim().to_string())),
                None => (clause, None),
            };
            let (name, value) = match head.split_once('=') {
                Some((n, v)) => (n.trim(), Some(v.trim())),
                None => (head, None),
            };
            let num = |what: &str| -> Result<u64, PipelineError> {
                let v = value.ok_or_else(|| bad(format!("`{name}` needs `{name}=<{what}>`")))?;
                v.parse::<u64>()
                    .map_err(|_| bad(format!("`{name}={v}`: not a number")))
            };
            let kind = match name {
                "seed" => {
                    if target.is_some() {
                        return Err(bad("`seed` cannot take an @workload target".to_string()));
                    }
                    plan.seed = num("seed")?;
                    continue;
                }
                "truncate" => FaultKind::TruncateStrideTop {
                    keep: num("entries")? as usize,
                },
                "drop-sites" => FaultKind::DropStrideSites {
                    modulus: num("modulus")?.max(1),
                },
                "corrupt" => FaultKind::CorruptStrideTables {
                    modulus: num("modulus")?.max(1),
                },
                "drop-updates" => FaultKind::DropLfuUpdates {
                    percent: num("percent")?.min(100),
                },
                "clamp-freq" => FaultKind::SaturateFreqCounters { cap: num("cap")? },
                "clamp-stride" => FaultKind::SaturateStrideCounters { cap: num("cap")? },
                "fuel" => FaultKind::FuelExhaustion { fuel: num("fuel")? },
                "addr-limit" => FaultKind::AddressLimit {
                    limit: num("limit")?,
                },
                "malformed-ir" => FaultKind::MalformedIr,
                "stale-profile" => FaultKind::StaleProfile,
                "disk-torn" => FaultKind::DiskTornWrite { at: num("bytes")? },
                "disk-bitflip" => FaultKind::DiskBitFlip { bit: num("bit")? },
                "disk-fsync-fail" => FaultKind::DiskFsyncFail {
                    nth: num("nth")?.max(1),
                },
                "disk-short-read" => FaultKind::DiskShortRead { len: num("bytes")? },
                "net-drop" => FaultKind::NetDropFrame {
                    nth: num("nth")?.max(1),
                },
                "net-dup" => FaultKind::NetDupFrame {
                    nth: num("nth")?.max(1),
                },
                "net-trunc" => FaultKind::NetTruncFrame {
                    nth: num("nth")?.max(1),
                },
                "net-reset" => FaultKind::NetReset {
                    nth: num("nth")?.max(1),
                },
                "net-stall" => FaultKind::NetStall { ms: num("ms")? },
                other => return Err(bad(format!("unknown fault `{other}`"))),
            };
            if name != "malformed-ir" && name != "stale-profile" && value.is_none() {
                return Err(bad(format!("`{name}` needs a value")));
            }
            plan.scenarios.push(FaultScenario { kind, target });
        }
        Ok(plan)
    }

    /// Renders the plan back into spec-string form (parses to an equal
    /// plan).
    pub fn spec(&self) -> String {
        let mut parts = vec![format!("seed={}", self.seed)];
        parts.extend(self.scenarios.iter().map(FaultScenario::spec));
        parts.join(";")
    }
}

/// Applies a [`FaultPlan`] at the pipeline's boundaries.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
}

impl FaultInjector {
    /// Wraps a plan.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector { plan }
    }

    /// The wrapped plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn active<'a>(&'a self, workload: &'a str) -> impl Iterator<Item = &'a FaultKind> {
        self.plan
            .scenarios
            .iter()
            .filter(move |s| s.applies_to(workload))
            .map(|s| &s.kind)
    }

    /// Does any scenario at all target `workload`?
    pub fn affects(&self, workload: &str) -> bool {
        self.active(workload).next().is_some()
    }

    /// VM-config overrides for `workload`'s *profiling* run (measurement
    /// runs stay clean: faults perturb the feedback loop, not the
    /// yardstick).
    pub fn vm_overrides(&self, workload: &str, mut vm: VmConfig) -> VmConfig {
        for kind in self.active(workload) {
            match *kind {
                FaultKind::FuelExhaustion { fuel } => vm.fuel = vm.fuel.min(fuel),
                FaultKind::AddressLimit { limit } => vm.addr_limit = vm.addr_limit.min(limit),
                _ => {}
            }
        }
        vm
    }

    /// Does the plan corrupt `workload`'s IR text?
    pub fn wants_malformed_ir(&self, workload: &str) -> bool {
        self.active(workload)
            .any(|k| matches!(k, FaultKind::MalformedIr))
    }

    /// Mutates freshly-collected profiles according to the plan. All
    /// mutations are loss-shaped (see the module docs).
    pub fn apply_to_profiles(
        &self,
        workload: &str,
        edge: &mut EdgeProfile,
        stride: &mut StrideProfile,
    ) {
        let seed = self.plan.seed;
        for kind in self.active(workload) {
            match *kind {
                FaultKind::TruncateStrideTop { keep } => {
                    stride.for_each_mut(|_, _, p| p.top.truncate(keep));
                }
                FaultKind::DropStrideSites { modulus } => {
                    stride.retain(|f, s, _| !site_hash(seed, f, s).is_multiple_of(modulus));
                }
                FaultKind::CorruptStrideTables { modulus } => {
                    stride.for_each_mut(|f, s, p| {
                        if site_hash(seed.wrapping_add(1), f, s).is_multiple_of(modulus) {
                            for entry in &mut p.top {
                                entry.1 = 0;
                            }
                        }
                    });
                }
                FaultKind::DropLfuUpdates { percent } => {
                    let kept = 100 - percent.min(100);
                    stride.for_each_mut(|_, _, p| {
                        for entry in &mut p.top {
                            entry.1 = entry.1 / 100 * kept + entry.1 % 100 * kept / 100;
                        }
                    });
                }
                FaultKind::SaturateFreqCounters { cap } => edge.clamp(cap),
                FaultKind::SaturateStrideCounters { cap } => {
                    stride.for_each_mut(|_, _, p| {
                        for entry in &mut p.top {
                            entry.1 = entry.1.min(cap);
                        }
                        p.num_zero_diff = p.num_zero_diff.min(cap);
                    });
                }
                FaultKind::StaleProfile => {
                    let mut stale = StrideProfile::new();
                    for (f, s, p) in stride.iter() {
                        let id = InstrId::new(s.index() as u32 + STALE_SITE_OFFSET);
                        stale.insert(f, id, p.clone());
                    }
                    *stride = stale;
                }
                // Disk and net faults act at the store and wire layers
                // (the server converts them); profiles are untouched.
                FaultKind::FuelExhaustion { .. }
                | FaultKind::AddressLimit { .. }
                | FaultKind::MalformedIr
                | FaultKind::DiskTornWrite { .. }
                | FaultKind::DiskBitFlip { .. }
                | FaultKind::DiskFsyncFail { .. }
                | FaultKind::DiskShortRead { .. }
                | FaultKind::NetDropFrame { .. }
                | FaultKind::NetDupFrame { .. }
                | FaultKind::NetTruncFrame { .. }
                | FaultKind::NetReset { .. }
                | FaultKind::NetStall { .. } => {}
            }
        }
    }
}

/// Deterministically corrupts one instruction's `=` into `~` (or appends
/// a garbage line when the text has no assignments), guaranteeing a parse
/// failure with a located [`stride_ir::ParseError`].
pub fn corrupt_ir_text(seed: u64, text: &str) -> String {
    let sites: Vec<usize> = text.match_indices(" = ").map(|(i, _)| i).collect();
    if sites.is_empty() {
        return format!("{text}\n~corrupted~\n");
    }
    let pick = sites[(splitmix64_mix(seed) % sites.len() as u64) as usize];
    let mut out = String::with_capacity(text.len());
    out.push_str(&text[..pick]);
    out.push_str(" ~ ");
    out.push_str(&text[pick + 3..]);
    out
}

/// The profiling step of a run under a fault plan, shared by every
/// fault-aware caller. For a `malformed-ir` scenario it fails with the
/// injected corruption's parse error, mapped by `malformed` (which also
/// gets the corrupted text to render the error against). Otherwise it
/// runs `profile` under the plan's VM overrides and perturbs the
/// collected profiles as the plan says.
///
/// # Errors
///
/// `malformed`'s error for a `malformed-ir` scenario; otherwise
/// `profile`'s (the injected fuel and address-limit faults among them).
pub fn faulted_profiling(
    injector: &FaultInjector,
    workload: &str,
    module: &Module,
    config: &PipelineConfig,
    malformed: impl FnOnce(ParseError, &str) -> PipelineError,
    profile: impl FnOnce(&PipelineConfig) -> Result<ProfileOutcome, PipelineError>,
) -> Result<ProfileOutcome, PipelineError> {
    if injector.wants_malformed_ir(workload) {
        let text = corrupt_ir_text(injector.plan().seed, &stride_ir::module_to_string(module));
        // The corruption targets an instruction, so this parse fails;
        // tolerate the (never observed) case of it parsing anyway by
        // falling through.
        if let Err(e) = stride_ir::module_from_string(&text) {
            return Err(malformed(e, &text));
        }
    }
    let mut profiling_config = *config;
    profiling_config.vm = injector.vm_overrides(workload, profiling_config.vm);
    let mut outcome = profile(&profiling_config)?;
    injector.apply_to_profiles(workload, &mut outcome.edge, &mut outcome.stride);
    Ok(outcome)
}

/// Checks the degradation invariant: every load the faulted
/// classification prefetches must also be prefetched by the clean one
/// (faults only move loads toward no-prefetch). Returns one line per
/// violation; empty means the invariant held.
pub fn degradation_violations(clean: &Classification, faulted: &Classification) -> Vec<String> {
    let clean_sites: BTreeSet<(usize, usize)> = clean
        .loads
        .iter()
        .map(|l| (l.func.index(), l.site.index()))
        .collect();
    let mut violations = Vec::new();
    for l in &faulted.loads {
        if !clean_sites.contains(&(l.func.index(), l.site.index())) {
            violations.push(format!(
                "load {}:{} classified {} under fault but unclassified clean",
                l.func, l.site, l.class
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use stride_ir::FuncId;
    use stride_profiling::LoadStrideProfile;

    fn sample_stride() -> StrideProfile {
        let mut s = StrideProfile::new();
        for i in 0..8u32 {
            s.insert(
                FuncId::new(0),
                InstrId::new(i),
                LoadStrideProfile {
                    top: vec![(64, 900), (8, 50), (16, 30), (24, 10)],
                    total_freq: 1000,
                    num_zero_stride: 0,
                    num_zero_diff: 800,
                    total_diffs: 999,
                },
            );
        }
        s
    }

    #[test]
    fn parse_round_trips() {
        let plan = FaultPlan::parse("seed=42;fuel=100000@181.mcf;truncate=2;stale-profile@254.gap")
            .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.scenarios.len(), 3);
        assert_eq!(
            plan.scenarios[0],
            FaultScenario {
                kind: FaultKind::FuelExhaustion { fuel: 100_000 },
                target: Some("181.mcf".to_string()),
            }
        );
        let reparsed = FaultPlan::parse(&plan.spec()).unwrap();
        assert_eq!(plan, reparsed);
    }

    #[test]
    fn disk_and_net_faults_parse_and_are_profile_noops() {
        let spec = "seed=5;disk-torn=12;disk-bitflip=77;disk-fsync-fail=2;disk-short-read=100;\
                    net-drop=1;net-dup=3;net-trunc=2;net-reset=1;net-stall=40";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.scenarios.len(), 9);
        assert_eq!(FaultPlan::parse(&plan.spec()).unwrap(), plan);
        // They act at the store/wire layers; profiles are untouched.
        let inj = FaultInjector::new(plan);
        let mut edge = EdgeProfile::default();
        let mut s = sample_stride();
        inj.apply_to_profiles("w", &mut edge, &mut s);
        assert_eq!(s.len(), 8);
        assert!(s.iter().all(|(_, _, p)| p.top.len() == 4));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            FaultPlan::parse("explode=1"),
            Err(PipelineError::BadFaultPlan(_))
        ));
        assert!(FaultPlan::parse("fuel").is_err());
        assert!(FaultPlan::parse("fuel=abc").is_err());
        assert!(FaultPlan::parse("seed=1@181.mcf").is_err());
        assert!(FaultPlan::parse("truncate=1@").is_err());
    }

    #[test]
    fn scenario_targeting_scopes_faults() {
        let plan = FaultPlan::parse("seed=7;truncate=0@181.mcf").unwrap();
        let inj = FaultInjector::new(plan);
        let mut edge = EdgeProfile::default();
        let mut hit = sample_stride();
        let mut missed = sample_stride();
        inj.apply_to_profiles("181.mcf", &mut edge, &mut hit);
        inj.apply_to_profiles("254.gap", &mut edge, &mut missed);
        assert!(hit.iter().all(|(_, _, p)| p.top.is_empty()));
        assert!(missed.iter().all(|(_, _, p)| p.top.len() == 4));
    }

    #[test]
    fn profile_faults_are_loss_shaped() {
        // Under every profile fault, every surviving (site, ratio) is <=
        // the clean one — the structural half of the degradation
        // invariant.
        let clean = sample_stride();
        for spec in [
            "truncate=1",
            "drop-sites=2",
            "corrupt=2",
            "drop-updates=37",
            "clamp-stride=100",
        ] {
            let plan = FaultPlan::parse(&format!("seed=99;{spec}")).unwrap();
            let inj = FaultInjector::new(plan);
            let mut edge = EdgeProfile::default();
            let mut faulted = sample_stride();
            inj.apply_to_profiles("w", &mut edge, &mut faulted);
            for (f, s, p) in faulted.iter() {
                let orig = clean.iter().find(|&(cf, cs, _)| (cf, cs) == (f, s));
                let orig = orig.map(|(_, _, p)| p).unwrap();
                assert_eq!(p.total_freq, orig.total_freq, "{spec}: total must be kept");
                assert!(
                    p.top1_ratio() <= orig.top1_ratio() + 1e-12,
                    "{spec}: top1 ratio rose"
                );
                assert!(
                    p.top4_ratio() <= orig.top4_ratio() + 1e-12,
                    "{spec}: top4 ratio rose"
                );
                assert!(
                    p.zero_diff_ratio() <= orig.zero_diff_ratio() + 1e-12,
                    "{spec}: zero-diff ratio rose"
                );
            }
        }
    }

    #[test]
    fn drop_sites_is_order_independent() {
        let plan = FaultPlan::parse("seed=3;drop-sites=2").unwrap();
        let inj = FaultInjector::new(plan);
        let mut edge = EdgeProfile::default();
        let mut a = sample_stride();
        let mut b = sample_stride();
        inj.apply_to_profiles("w", &mut edge, &mut a);
        inj.apply_to_profiles("w", &mut edge, &mut b);
        let keys = |s: &StrideProfile| s.iter().map(|(f, i, _)| (f, i)).collect::<Vec<_>>();
        assert_eq!(keys(&a), keys(&b));
        assert!(a.len() < 8, "modulus 2 should drop some of 8 sites");
    }

    #[test]
    fn stale_profile_remaps_every_site() {
        let plan = FaultPlan::parse("stale-profile").unwrap();
        let inj = FaultInjector::new(plan);
        let mut edge = EdgeProfile::default();
        let mut s = sample_stride();
        inj.apply_to_profiles("w", &mut edge, &mut s);
        assert_eq!(s.len(), 8);
        assert!(s
            .iter()
            .all(|(_, i, _)| i.index() >= STALE_SITE_OFFSET as usize));
    }

    #[test]
    fn vm_overrides_only_shrink() {
        let plan = FaultPlan::parse("fuel=1000;addr-limit=65536").unwrap();
        let inj = FaultInjector::new(plan);
        let vm = inj.vm_overrides("w", VmConfig::default());
        assert_eq!(vm.fuel, 1000);
        assert_eq!(vm.addr_limit, 65536);
        // An override larger than the configured value never raises it.
        let plan = FaultPlan::parse("fuel=999999999999").unwrap();
        let vm = FaultInjector::new(plan).vm_overrides("w", VmConfig::default());
        assert_eq!(vm.fuel, VmConfig::default().fuel);
    }

    #[test]
    fn corrupt_ir_text_breaks_the_parse_deterministically() {
        let text = "fn @main(1) {\nb0:\n    r1 = mov 7    ; i0\n    ret r1    ; i1\n}\n";
        let c1 = corrupt_ir_text(5, text);
        let c2 = corrupt_ir_text(5, text);
        assert_eq!(c1, c2);
        let err = stride_ir::module_from_string(&c1).unwrap_err();
        assert!(err.line > 0);
    }

    #[test]
    fn rng_streams_are_reproducible() {
        let mut a = FaultRng::new(17);
        let mut b = FaultRng::new(17);
        let xs: Vec<u64> = (0..16).map(|_| a.below(1000)).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.below(1000)).collect();
        assert_eq!(xs, ys);
        assert!(xs.iter().any(|&x| x != xs[0]), "stream must vary");
    }
}
