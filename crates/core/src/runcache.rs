//! Content-addressed run memoization for the pipeline.
//!
//! Most consumers re-simulate identical configurations: the repro harness
//! shares every (workload, variant) train-input profiling run between the
//! speedup and overhead figures, the uninstrumented reference-input
//! baselines between Figs. 16, 17 and 23–25, and transformed-binary runs
//! whenever two profile sources select the same prefetches; the profile
//! daemon sees the same module resubmitted by many clients. The
//! [`RunCache`] shares those results across callers (and across worker
//! threads — it is `Sync`, with per-key [`OnceLock`]s so a result is
//! computed exactly once even under contention).
//!
//! Every key is **content-addressed**: runs are keyed by a fingerprint of
//! the module itself (not its name or origin), the entry arguments, and a
//! fingerprint of the parts of the [`PipelineConfig`] the run can observe.
//! Baselines depend only on the VM cost model and the cache hierarchy,
//! while profiling runs also depend on the prefetch (instrumentation)
//! parameters — so an ablation sweep over feedback thresholds still shares
//! its baselines across every sweep point, and two clients submitting
//! byte-identical modules under different names share every run.
//!
//! A profiling run also memoizes the classification of its profiles
//! (the `classify` service verb): the run's key already covers everything
//! [`classify`] reads — module content, variant, arguments and the
//! prefetch config.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::classify::{classify, Classification};
use crate::config::{ClassifyThresholds, PrefetchConfig};
use crate::error::PipelineError;
use crate::faults::{faulted_profiling, FaultInjector};
use crate::pipeline::{
    prefetch_with_profiles, run_edge_only, run_profiling, run_uninstrumented, OverheadOutcome,
    PipelineConfig, ProfileOutcome, ProfilingVariant, SpeedupOutcome,
};
use stride_ir::Module;
use stride_memsim::{CacheGeometry, HierarchyConfig, HierarchyStats};
use stride_profiling::EdgeProfile;
use stride_vm::{CostModel, RunResult, VmConfig};

/// What a cached instrumented run is keyed by (beyond module/args/config).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum RunKind {
    /// Edge-frequency-only instrumented run.
    EdgeOnly,
    /// Integrated profiling run under a variant.
    Profiling(ProfilingVariant),
}

/// Key of an instrumented run: the module *content*, the run kind, the
/// arguments, and the config fingerprint.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Key {
    module_fingerprint: u64,
    kind: RunKind,
    args: Vec<i64>,
    config_fingerprint: u64,
}

/// Key of an uninstrumented run: the module *content* (not its origin),
/// the arguments, and the machine config. Two different profiling
/// variants that select the same prefetches produce byte-identical
/// transformed modules, so their reference runs collapse to one entry —
/// and a transform that inserts nothing shares the workload's baseline.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct PlainKey {
    module_fingerprint: u64,
    args: Vec<i64>,
    config_fingerprint: u64,
}

type Slot<T> = Arc<OnceLock<Result<Arc<T>, PipelineError>>>;

/// A cached profiling run and, once asked for, the classification of its
/// profiles.
struct Profiled {
    outcome: Arc<ProfileOutcome>,
    classification: OnceLock<Arc<Classification>>,
}

/// Counters describing cache effectiveness and total simulation volume.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunCacheStats {
    /// Requests served from the cache.
    pub hits: u64,
    /// Requests that ran a fresh simulation.
    pub misses: u64,
    /// Dynamic loads executed by fresh simulations (cached runs add 0).
    pub sim_loads: u64,
    /// Demand accesses (loads + stores) seen by the cache simulator in
    /// fresh simulations.
    pub sim_accesses: u64,
}

/// The memoizing run store shared by all figure generators, service
/// workers and worker threads.
#[derive(Default)]
pub struct RunCache {
    plain_runs: Mutex<HashMap<PlainKey, Slot<(RunResult, HierarchyStats)>>>,
    edge_runs: Mutex<HashMap<Key, Slot<(EdgeProfile, RunResult)>>>,
    profiles: Mutex<HashMap<Key, Slot<Profiled>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    sim_loads: AtomicU64,
    sim_accesses: AtomicU64,
}

/// Fingerprint of the config parts an *uninstrumented* run can observe:
/// the VM cost model and the cache hierarchy.
fn fingerprint_machine(config: &PipelineConfig) -> u64 {
    let mut h = DefaultHasher::new();
    hash_machine(config, &mut h);
    h.finish()
}

/// Fingerprint of the whole config (instrumented runs also observe the
/// prefetch/selection parameters).
fn fingerprint_full(config: &PipelineConfig) -> u64 {
    let mut h = DefaultHasher::new();
    hash_machine(config, &mut h);
    hash_prefetch(&config.prefetch, &mut h);
    h.finish()
}

// The config hashers below destructure every struct without `..`, so a
// field added to any of them fails to compile here until it is hashed.

fn hash_machine(config: &PipelineConfig, h: &mut impl Hasher) {
    let VmConfig {
        cost,
        fuel,
        max_call_depth,
        addr_limit,
        fuse,
    } = config.vm;
    let CostModel {
        alu,
        mul,
        div,
        load,
        store,
        prefetch,
        alloc,
        free,
        call,
        branch,
    } = cost;
    for v in [
        alu, mul, div, load, store, prefetch, alloc, free, call, branch, fuel, addr_limit,
    ] {
        h.write_u64(v);
    }
    h.write_usize(max_call_depth);
    h.write_u8(u8::from(fuse));
    let HierarchyConfig {
        l1,
        l2,
        l3,
        l2_latency,
        l3_latency,
        mem_latency,
        tlb_entries,
        tlb_ways,
        page_size,
        tlb_miss_latency,
        max_inflight_prefetches,
        mem_bus_interval,
    } = config.hierarchy;
    for CacheGeometry {
        size_bytes,
        ways,
        line_size,
    } in [l1, l2, l3]
    {
        h.write_u64(size_bytes);
        h.write_u32(ways);
        h.write_u64(line_size);
    }
    for v in [
        l2_latency,
        l3_latency,
        mem_latency,
        page_size,
        tlb_miss_latency,
        mem_bus_interval,
    ] {
        h.write_u64(v);
    }
    h.write_u32(tlb_entries);
    h.write_u32(tlb_ways);
    h.write_usize(max_inflight_prefetches);
}

fn hash_prefetch(prefetch: &PrefetchConfig, h: &mut impl Hasher) {
    let PrefetchConfig {
        thresholds,
        max_prefetch_distance,
        out_loop_distance,
        line_size,
        enable_wsst_prefetch,
        enable_dependent_prefetch,
    } = *prefetch;
    let ClassifyThresholds {
        ssst_threshold,
        pmst_threshold,
        pmst_diff_threshold,
        wsst_threshold,
        wsst_diff_threshold,
        frequency_threshold,
        trip_count_threshold,
    } = thresholds;
    for ratio in [
        ssst_threshold,
        pmst_threshold,
        pmst_diff_threshold,
        wsst_threshold,
        wsst_diff_threshold,
    ] {
        h.write_u64(ratio.to_bits());
    }
    for v in [
        frequency_threshold,
        trip_count_threshold,
        max_prefetch_distance,
        out_loop_distance,
        line_size,
    ] {
        h.write_u64(v);
    }
    h.write_u8(u8::from(enable_wsst_prefetch));
    h.write_u8(u8::from(enable_dependent_prefetch));
}

/// Content fingerprint of a module: its derived structural `Hash`, which
/// covers every field the interpreter can observe (functions, blocks,
/// instructions, globals, entry) and agrees with `==`, so equal
/// fingerprints mean behaviourally identical programs.
pub fn fingerprint_module(module: &Module) -> u64 {
    let mut h = DefaultHasher::new();
    module.hash(&mut h);
    h.finish()
}

impl RunCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cache effectiveness and simulation-volume counters so far.
    pub fn stats(&self) -> RunCacheStats {
        RunCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            sim_loads: self.sim_loads.load(Ordering::Relaxed),
            sim_accesses: self.sim_accesses.load(Ordering::Relaxed),
        }
    }

    fn record_run(&self, run: &RunResult) {
        self.sim_loads.fetch_add(run.loads, Ordering::Relaxed);
        self.sim_accesses
            .fetch_add(run.loads + run.stores, Ordering::Relaxed);
    }

    /// Looks `key` up in `map`, computing with `compute` exactly once per
    /// key (other threads block on the same slot rather than recomputing).
    fn get_or_run<K, T, F>(
        &self,
        map: &Mutex<HashMap<K, Slot<T>>>,
        key: K,
        compute: F,
    ) -> Result<Arc<T>, PipelineError>
    where
        K: std::hash::Hash + Eq,
        F: FnOnce() -> Result<T, PipelineError>,
    {
        let slot = {
            // A worker that panicked while holding the lock only ever
            // held it to clone a slot out; the map itself stays valid.
            let mut map = map.lock().unwrap_or_else(PoisonError::into_inner);
            map.entry(key).or_default().clone()
        };
        let mut ran = false;
        let result = slot.get_or_init(|| {
            ran = true;
            compute().map(Arc::new)
        });
        if ran {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        result.clone()
    }

    /// Edge-frequency-only instrumented run (memoized). The edge-only
    /// instrumentation does not read the prefetch config, so ablation
    /// sweeps share this run too.
    ///
    /// # Errors
    ///
    /// Propagates the underlying run's [`PipelineError`].
    pub fn edge_only(
        &self,
        module: &Module,
        args: &[i64],
        config: &PipelineConfig,
    ) -> Result<Arc<(EdgeProfile, RunResult)>, PipelineError> {
        let key = Key {
            module_fingerprint: fingerprint_module(module),
            kind: RunKind::EdgeOnly,
            args: args.to_vec(),
            config_fingerprint: fingerprint_machine(config),
        };
        self.get_or_run(&self.edge_runs, key, || {
            let out = run_edge_only(module, args, config)?;
            self.record_run(&out.1);
            Ok(out)
        })
    }

    /// Integrated profiling run under `variant` with `args` (memoized).
    ///
    /// # Errors
    ///
    /// Propagates the underlying run's [`PipelineError`].
    pub fn profiling(
        &self,
        module: &Module,
        variant: ProfilingVariant,
        args: &[i64],
        config: &PipelineConfig,
    ) -> Result<Arc<ProfileOutcome>, PipelineError> {
        self.profiled(module, fingerprint_module(module), variant, args, config)
            .map(|p| Arc::clone(&p.outcome))
    }

    /// [`RunCache::profiling`] of a module whose [`fingerprint_module`]
    /// the caller computed once and kept, together with the [`classify`]
    /// result of its profiles under `config.prefetch`, computed once per
    /// cached run. Counts one lookup, exactly as [`RunCache::profiling`]
    /// does.
    ///
    /// # Errors
    ///
    /// Propagates the underlying run's [`PipelineError`].
    pub fn classified(
        &self,
        module: &Module,
        fingerprint: u64,
        variant: ProfilingVariant,
        args: &[i64],
        config: &PipelineConfig,
    ) -> Result<(Arc<ProfileOutcome>, Arc<Classification>), PipelineError> {
        debug_assert_eq!(fingerprint, fingerprint_module(module), "stale fingerprint");
        let p = self.profiled(module, fingerprint, variant, args, config)?;
        let classification = p.classification.get_or_init(|| {
            let o = &p.outcome;
            Arc::new(classify(
                module,
                &o.stride,
                &o.edge,
                o.source,
                &config.prefetch,
            ))
        });
        Ok((Arc::clone(&p.outcome), Arc::clone(classification)))
    }

    fn profiled(
        &self,
        module: &Module,
        fingerprint: u64,
        variant: ProfilingVariant,
        args: &[i64],
        config: &PipelineConfig,
    ) -> Result<Arc<Profiled>, PipelineError> {
        let key = Key {
            module_fingerprint: fingerprint,
            kind: RunKind::Profiling(variant),
            args: args.to_vec(),
            config_fingerprint: fingerprint_full(config),
        };
        self.get_or_run(&self.profiles, key, || {
            let out = run_profiling(module, args, variant, config)?;
            self.record_run(&out.run);
            Ok(Profiled {
                outcome: Arc::new(out),
                classification: OnceLock::new(),
            })
        })
    }

    /// Uninstrumented run of a module (baseline or transformed), memoized
    /// by the module's *content*: the repro harness transforms the same
    /// workload under many profile sources, and whenever two sources
    /// select the same prefetches the resulting modules — and hence this
    /// run — are identical.
    ///
    /// # Errors
    ///
    /// Propagates the underlying run's [`PipelineError`].
    pub fn plain_run(
        &self,
        module: &Module,
        args: &[i64],
        config: &PipelineConfig,
    ) -> Result<Arc<(RunResult, HierarchyStats)>, PipelineError> {
        let key = PlainKey {
            module_fingerprint: fingerprint_module(module),
            args: args.to_vec(),
            config_fingerprint: fingerprint_machine(config),
        };
        self.get_or_run(&self.plain_runs, key, || {
            let out = run_uninstrumented(module, args, config)?;
            self.record_run(&out.0);
            Ok(out)
        })
    }

    /// The Fig. 16 speedup experiment with its train-input profiling run,
    /// reference-input baseline, and transformed-binary run all served
    /// from the cache (the last keyed by transformed-module content).
    /// Equivalent to [`crate::measure_speedup`].
    ///
    /// # Errors
    ///
    /// Propagates the first failing run's [`PipelineError`].
    pub fn speedup(
        &self,
        module: &Module,
        train_args: &[i64],
        ref_args: &[i64],
        variant: ProfilingVariant,
        config: &PipelineConfig,
    ) -> Result<SpeedupOutcome, PipelineError> {
        // The two-pass baseline performs its own double profiling pass;
        // its inner edge-only run is not shared here, but the profiling
        // outcome as a whole still memoizes.
        let outcome = self.profiling(module, variant, train_args, config)?;
        self.speedup_from(module, &outcome, ref_args, config)
    }

    /// [`RunCache::speedup`] under a fault plan: the profiling run uses
    /// the injector's VM overrides (and is cached under that distinct
    /// config fingerprint), the collected profiles are mutated per the
    /// plan, and the measurement runs stay clean — still served from and
    /// shared with the unfaulted cache entries. `workload` is the name
    /// the plan's `@workload` scoping matches against.
    ///
    /// # Errors
    ///
    /// Propagates injected profiling-run failures (fuel, address limit)
    /// and the parser's located error for a `malformed-ir` scenario.
    #[allow(clippy::too_many_arguments)]
    pub fn speedup_faulted(
        &self,
        module: &Module,
        workload: &str,
        train_args: &[i64],
        ref_args: &[i64],
        variant: ProfilingVariant,
        config: &PipelineConfig,
        injector: &FaultInjector,
    ) -> Result<SpeedupOutcome, PipelineError> {
        if !injector.affects(workload) {
            return self.speedup(module, train_args, ref_args, variant, config);
        }
        let outcome = faulted_profiling(
            injector,
            workload,
            module,
            config,
            // Render the offending source line (with a caret) into the
            // diagnostic so the campaign report shows exactly what the
            // parser rejected.
            |e, text| {
                PipelineError::Malformed(format!("injected IR corruption: {}", e.render(text)))
            },
            |c| {
                self.profiling(module, variant, train_args, c)
                    .map(|o| (*o).clone())
            },
        )?;
        self.speedup_from(module, &outcome, ref_args, config)
    }

    /// Prefetches `module` from `outcome`'s profiles and measures the
    /// baseline and transformed binaries on `ref_args` (both cached).
    fn speedup_from(
        &self,
        module: &Module,
        outcome: &ProfileOutcome,
        ref_args: &[i64],
        config: &PipelineConfig,
    ) -> Result<SpeedupOutcome, PipelineError> {
        let (transformed, classification, report) = prefetch_with_profiles(
            module,
            &outcome.edge,
            outcome.source,
            &outcome.stride,
            config,
        );
        let base = self.plain_run(module, ref_args, config)?;
        let pf = self.plain_run(&transformed, ref_args, config)?;
        Ok(SpeedupOutcome {
            baseline_cycles: base.0.cycles,
            prefetch_cycles: pf.0.cycles,
            speedup: base.0.cycles as f64 / pf.0.cycles.max(1) as f64,
            classification,
            report,
            baseline_mem: base.1,
            prefetch_mem: pf.1,
            vm_fused_dispatch: base.0.fused_dispatch + pf.0.fused_dispatch,
            vm_fastpath_load_hits: base.0.fastpath_load_hits + pf.0.fastpath_load_hits,
            vm_selfprof_overhead_cycles: base.0.selfprof_overhead_cycles
                + pf.0.selfprof_overhead_cycles,
        })
    }

    /// The Figs. 20–22 overhead experiment with both underlying runs
    /// served from the cache. Equivalent to [`crate::measure_overhead`].
    ///
    /// # Errors
    ///
    /// Propagates the first failing run's [`PipelineError`].
    pub fn overhead(
        &self,
        module: &Module,
        train_args: &[i64],
        variant: ProfilingVariant,
        config: &PipelineConfig,
    ) -> Result<OverheadOutcome, PipelineError> {
        let edge = self.edge_only(module, train_args, config)?;
        let outcome = self.profiling(module, variant, train_args, config)?;
        let edge_run = &edge.1;
        let loads = outcome.run.loads.max(1) as f64;
        Ok(OverheadOutcome {
            edge_cycles: edge_run.cycles,
            integrated_cycles: outcome.run.cycles,
            overhead: (outcome.run.cycles as f64 - edge_run.cycles as f64)
                / edge_run.cycles.max(1) as f64,
            strideprof_fraction: outcome.stats.processed as f64 / loads,
            lfu_fraction: outcome.stats.lfu_inserts as f64 / loads,
            call_fraction: outcome.stats.calls as f64 / loads,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{measure_overhead, measure_speedup};
    use stride_ir::{ModuleBuilder, Operand};

    /// A small strided workload: repeated sweeps over a flat array.
    fn sweep_module() -> Module {
        let mut mb = ModuleBuilder::new();
        let g = mb.add_global("arr", 1 << 18);
        let f = mb.declare_function("main", 2);
        let mut fb = mb.function(f);
        let base = fb.global_addr(g);
        let sum = fb.mov(0i64);
        fb.counted_loop(fb.param(0), |fb, _| {
            fb.counted_loop(fb.param(1), |fb, i| {
                let off = fb.mul(i, 64i64);
                let a = fb.add(base, off);
                let (v, _) = fb.load(a, 0);
                fb.bin_to(sum, stride_ir::BinOp::Add, sum, v);
            });
        });
        fb.ret(Some(Operand::Reg(sum)));
        mb.set_entry(f);
        mb.finish()
    }

    const TRAIN: &[i64] = &[3, 500];
    const REF: &[i64] = &[4, 900];

    #[test]
    fn baseline_hits_after_first_run() {
        let m = sweep_module();
        let cfg = PipelineConfig::default();
        let cache = RunCache::new();
        let a = cache.plain_run(&m, REF, &cfg).unwrap();
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 0);
        let b = cache.plain_run(&m, REF, &cfg).unwrap();
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(a.0.cycles, b.0.cycles);
        assert!(cache.stats().sim_loads > 0);
    }

    #[test]
    fn different_args_are_different_entries() {
        let m = sweep_module();
        let cfg = PipelineConfig::default();
        let cache = RunCache::new();
        cache.plain_run(&m, REF, &cfg).unwrap();
        cache.plain_run(&m, TRAIN, &cfg).unwrap();
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn machine_config_change_invalidates_baseline() {
        let m = sweep_module();
        let cfg = PipelineConfig::default();
        let cache = RunCache::new();
        cache.plain_run(&m, REF, &cfg).unwrap();
        let mut faster = cfg;
        faster.hierarchy.mem_latency += 40;
        cache.plain_run(&m, REF, &faster).unwrap();
        assert_eq!(cache.stats().misses, 2, "changed hierarchy must re-run");
    }

    #[test]
    fn prefetch_config_change_keeps_baseline_but_invalidates_profiling() {
        let m = sweep_module();
        let cfg = PipelineConfig::default();
        let cache = RunCache::new();
        cache.plain_run(&m, REF, &cfg).unwrap();
        cache
            .profiling(&m, ProfilingVariant::EdgeCheck, TRAIN, &cfg)
            .unwrap();
        let mut tweaked = cfg;
        tweaked.prefetch.thresholds.trip_count_threshold *= 2;
        // baseline does not observe prefetch config: hit
        cache.plain_run(&m, REF, &tweaked).unwrap();
        // profiling does: miss
        cache
            .profiling(&m, ProfilingVariant::EdgeCheck, TRAIN, &tweaked)
            .unwrap();
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 3);
    }

    /// A config field, named by its path, and a change to it.
    type FieldChange<T> = (&'static str, fn(&mut T));

    /// One change per field of each config struct.
    const VM_FIELDS: &[FieldChange<VmConfig>] = &[
        ("cost.alu", |v| v.cost.alu += 1),
        ("cost.mul", |v| v.cost.mul += 1),
        ("cost.div", |v| v.cost.div += 1),
        ("cost.load", |v| v.cost.load += 1),
        ("cost.store", |v| v.cost.store += 1),
        ("cost.prefetch", |v| v.cost.prefetch += 1),
        ("cost.alloc", |v| v.cost.alloc += 1),
        ("cost.free", |v| v.cost.free += 1),
        ("cost.call", |v| v.cost.call += 1),
        ("cost.branch", |v| v.cost.branch += 1),
        ("fuel", |v| v.fuel -= 1),
        ("max_call_depth", |v| v.max_call_depth -= 1),
        ("addr_limit", |v| v.addr_limit -= 1),
        ("fuse", |v| v.fuse = !v.fuse),
    ];
    const HIERARCHY_FIELDS: &[FieldChange<HierarchyConfig>] = &[
        ("l1.size_bytes", |h| h.l1.size_bytes *= 2),
        ("l1.ways", |h| h.l1.ways *= 2),
        ("l1.line_size", |h| h.l1.line_size *= 2),
        ("l2.size_bytes", |h| h.l2.size_bytes *= 2),
        ("l2.ways", |h| h.l2.ways *= 2),
        ("l2.line_size", |h| h.l2.line_size *= 2),
        ("l3.size_bytes", |h| h.l3.size_bytes *= 2),
        ("l3.ways", |h| h.l3.ways *= 2),
        ("l3.line_size", |h| h.l3.line_size *= 2),
        ("l2_latency", |h| h.l2_latency += 1),
        ("l3_latency", |h| h.l3_latency += 1),
        ("mem_latency", |h| h.mem_latency += 1),
        ("tlb_entries", |h| h.tlb_entries *= 2),
        ("tlb_ways", |h| h.tlb_ways *= 2),
        ("page_size", |h| h.page_size *= 2),
        ("tlb_miss_latency", |h| h.tlb_miss_latency += 1),
        ("max_inflight_prefetches", |h| {
            h.max_inflight_prefetches += 1
        }),
        ("mem_bus_interval", |h| h.mem_bus_interval += 1),
    ];
    const PREFETCH_FIELDS: &[FieldChange<PrefetchConfig>] = &[
        ("ssst_threshold", |p| p.thresholds.ssst_threshold += 0.01),
        ("pmst_threshold", |p| p.thresholds.pmst_threshold += 0.01),
        ("pmst_diff_threshold", |p| {
            p.thresholds.pmst_diff_threshold += 0.01
        }),
        ("wsst_threshold", |p| p.thresholds.wsst_threshold += 0.01),
        ("wsst_diff_threshold", |p| {
            p.thresholds.wsst_diff_threshold += 0.01
        }),
        ("frequency_threshold", |p| {
            p.thresholds.frequency_threshold += 1
        }),
        ("trip_count_threshold", |p| {
            p.thresholds.trip_count_threshold += 1
        }),
        ("max_prefetch_distance", |p| p.max_prefetch_distance += 1),
        ("out_loop_distance", |p| p.out_loop_distance += 1),
        ("line_size", |p| p.line_size *= 2),
        ("enable_wsst_prefetch", |p| p.enable_wsst_prefetch ^= true),
        ("enable_dependent_prefetch", |p| {
            p.enable_dependent_prefetch ^= true
        }),
    ];

    #[test]
    fn config_fingerprints_cover_every_field() {
        let base = PipelineConfig::default();
        // (field, config with only that field changed, observed by an
        // uninstrumented run)
        let mut cases = Vec::new();
        for &(field, change) in VM_FIELDS {
            let mut c = base;
            change(&mut c.vm);
            cases.push((format!("vm.{field}"), c, true));
        }
        for &(field, change) in HIERARCHY_FIELDS {
            let mut c = base;
            change(&mut c.hierarchy);
            cases.push((format!("hierarchy.{field}"), c, true));
        }
        for &(field, change) in PREFETCH_FIELDS {
            let mut c = base;
            change(&mut c.prefetch);
            cases.push((format!("prefetch.{field}"), c, false));
        }
        let mut seen = std::collections::HashSet::new();
        for (field, c, machine) in cases {
            assert_ne!(
                fingerprint_full(&c),
                fingerprint_full(&base),
                "full fingerprint ignores {field}"
            );
            assert_eq!(
                fingerprint_machine(&c) != fingerprint_machine(&base),
                machine,
                "machine fingerprint and {field}"
            );
            assert!(seen.insert(fingerprint_full(&c)), "{field} collides");
        }
    }

    #[test]
    fn variants_do_not_share_profiling_entries() {
        let m = sweep_module();
        let cfg = PipelineConfig::default();
        let cache = RunCache::new();
        for v in [ProfilingVariant::EdgeCheck, ProfilingVariant::NaiveAll] {
            cache.profiling(&m, v, TRAIN, &cfg).unwrap();
        }
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn cached_speedup_matches_uncached_measure() {
        let m = sweep_module();
        let cfg = PipelineConfig::default();
        let cache = RunCache::new();
        let cached = cache
            .speedup(&m, TRAIN, REF, ProfilingVariant::EdgeCheck, &cfg)
            .unwrap();
        let direct = measure_speedup(&m, TRAIN, REF, ProfilingVariant::EdgeCheck, &cfg).unwrap();
        assert_eq!(cached.baseline_cycles, direct.baseline_cycles);
        assert_eq!(cached.prefetch_cycles, direct.prefetch_cycles);
        assert_eq!(
            cached.report.prefetches_inserted,
            direct.report.prefetches_inserted
        );
    }

    #[test]
    fn cached_overhead_matches_uncached_measure() {
        let m = sweep_module();
        let cfg = PipelineConfig::default();
        let cache = RunCache::new();
        let v = ProfilingVariant::NaiveLoop;
        let cached = cache.overhead(&m, TRAIN, v, &cfg).unwrap();
        let direct = measure_overhead(&m, TRAIN, v, &cfg).unwrap();
        assert_eq!(cached.edge_cycles, direct.edge_cycles);
        assert_eq!(cached.integrated_cycles, direct.integrated_cycles);
        assert!((cached.overhead - direct.overhead).abs() < 1e-12);
    }

    #[test]
    fn overhead_reuses_speedup_profiling_run() {
        let m = sweep_module();
        let cfg = PipelineConfig::default();
        let cache = RunCache::new();
        let v = ProfilingVariant::EdgeCheck;
        cache.speedup(&m, TRAIN, REF, v, &cfg).unwrap();
        let before = cache.stats();
        cache.overhead(&m, TRAIN, v, &cfg).unwrap();
        let after = cache.stats();
        // only the edge-only baseline is new; the profiling run hits
        assert_eq!(after.misses - before.misses, 1);
        assert!(after.hits > before.hits);
    }

    #[test]
    fn identical_modules_share_one_run_regardless_of_origin() {
        let m = sweep_module();
        let copy = sweep_module();
        let cfg = PipelineConfig::default();
        let cache = RunCache::new();
        cache.plain_run(&m, REF, &cfg).unwrap();
        cache.plain_run(&copy, REF, &cfg).unwrap();
        let s = cache.stats();
        assert_eq!(s.misses, 1, "content-identical modules share one run");
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn profiling_runs_are_content_addressed_too() {
        let m = sweep_module();
        let copy = sweep_module();
        let cfg = PipelineConfig::default();
        let cache = RunCache::new();
        cache
            .profiling(&m, ProfilingVariant::EdgeCheck, TRAIN, &cfg)
            .unwrap();
        cache
            .profiling(&copy, ProfilingVariant::EdgeCheck, TRAIN, &cfg)
            .unwrap();
        let s = cache.stats();
        assert_eq!(s.misses, 1, "a resubmitted identical module hits");
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn classification_is_memoized_with_its_run_and_counts_like_profiling() {
        let m = sweep_module();
        let cfg = PipelineConfig::default();
        let cache = RunCache::new();
        let v = ProfilingVariant::EdgeCheck;
        let fp = fingerprint_module(&m);
        let (outcome, first) = cache.classified(&m, fp, v, TRAIN, &cfg).unwrap();
        let direct = classify(
            &m,
            &outcome.stride,
            &outcome.edge,
            outcome.source,
            &cfg.prefetch,
        );
        assert_eq!(format!("{first:?}"), format!("{direct:?}"));
        let (_, second) = cache.classified(&m, fp, v, TRAIN, &cfg).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "classified once per run");
        cache.profiling(&m, v, TRAIN, &cfg).unwrap();
        let s = cache.stats();
        assert_eq!(
            (s.hits, s.misses),
            (2, 1),
            "one lookup per call, as profiling"
        );
        // The prefetch config is part of the key, so new thresholds
        // classify afresh.
        let mut tweaked = cfg;
        tweaked.prefetch.thresholds.trip_count_threshold *= 2;
        let (_, other) = cache.classified(&m, fp, v, TRAIN, &tweaked).unwrap();
        assert!(!Arc::ptr_eq(&first, &other));
    }

    #[test]
    fn concurrent_requests_compute_once() {
        let m = sweep_module();
        let cfg = PipelineConfig::default();
        let cache = RunCache::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| cache.plain_run(&m, REF, &cfg).unwrap().0.cycles);
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "one computation under contention");
        assert_eq!(stats.hits, 3);
    }
}
