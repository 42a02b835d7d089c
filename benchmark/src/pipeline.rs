//! The profile → classify → prefetch pipeline driven through the public
//! API of each layer, with a span around every call: the same steps
//! `stride_core::RunCache` performs, so a traced re-enactment simulates
//! exactly the runs `repro` does.
//!
//! Runs are shared by content key (module fingerprint + arguments, plus
//! the variant for profiling runs), as `RunCache` shares them. The
//! pipeline configuration is always the default one, so the config part
//! of `RunCache`'s keys is constant and left out.

use crate::trace::{Recorder, TimedMemory, TimedProfiler};
use std::collections::HashMap;
use std::sync::Arc;
use stride_core::{
    apply_prefetching, classify, fingerprint_module, instrument, instrument_edges_only,
    PipelineConfig, ProfileOutcome, ProfilingVariant,
};
use stride_ir::Module;
use stride_memsim::{CacheHierarchy, HierarchyStats};
use stride_profiling::{EdgeProfile, FreqSource, ProfilerRuntime, StrideProfStats, StrideProfile};
use stride_vm::{NullRuntime, RunResult, Vm};

/// What one fresh simulation produced, for comparing a traced run with
/// an untraced one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunDigest {
    /// Simulated cycles.
    pub cycles: u64,
    /// Dynamic instructions.
    pub instructions: u64,
    /// Dynamic loads.
    pub loads: u64,
    /// Dynamic stores.
    pub stores: u64,
    /// Accesses served by the VM's last-line fast path.
    pub fastpath_hits: u64,
}

impl RunDigest {
    fn of(run: &RunResult) -> RunDigest {
        RunDigest {
            cycles: run.cycles,
            instructions: run.instructions,
            loads: run.loads,
            stores: run.stores,
            fastpath_hits: run.fastpath_load_hits,
        }
    }
}

type Profiles = (EdgeProfile, StrideProfile, StrideProfStats);
/// A memoized uninstrumented run.
type PlainRun = Arc<(RunResult, HierarchyStats)>;
/// A memoized edge-only run.
type EdgeRun = Arc<(EdgeProfile, RunResult)>;

/// One simulation: the run, the hierarchy statistics, and the collected
/// profiles when a profiler runtime was attached.
pub struct Sim {
    /// The VM's result.
    pub run: RunResult,
    /// Cache-hierarchy statistics.
    pub mem: HierarchyStats,
    /// Edge and stride profiles plus `strideProf` statistics.
    pub profiles: Option<Profiles>,
}

/// Runs `module` on a fresh VM over a fresh cache hierarchy, with
/// `runtime` (or no profiler) attached. Traced, the memory model and
/// the runtime are sampled and their estimated time is taken out of the
/// `vm` span.
pub fn simulate(
    rec: &mut Recorder,
    config: &PipelineConfig,
    module: &Module,
    args: &[i64],
    runtime: Option<ProfilerRuntime>,
) -> Result<Sim, String> {
    rec.span("vm", |rec| {
        let hierarchy = rec.span("memsim", |_| CacheHierarchy::new(config.hierarchy));
        let mut vm = Vm::new(module, config.vm);
        let (run, hierarchy, runtime) = if rec.enabled() {
            let mut mem = TimedMemory {
                inner: hierarchy,
                sampler: rec.sampler(),
            };
            let mut prof = runtime.map(|inner| TimedProfiler {
                inner,
                sampler: rec.sampler(),
            });
            let run = match &mut prof {
                Some(p) => vm.run(args, &mut mem, p),
                None => vm.run(args, &mut mem, &mut NullRuntime),
            };
            rec.attribute("memsim", mem.sampler.estimate_ns(), mem.sampler.calls);
            if let Some(p) = &prof {
                rec.attribute("profiling", p.sampler.estimate_ns(), p.sampler.calls);
            }
            (run, mem.inner, prof.map(|p| p.inner))
        } else {
            let mut mem = hierarchy;
            let mut prof = runtime;
            let run = match &mut prof {
                Some(p) => vm.run(args, &mut mem, p),
                None => vm.run(args, &mut mem, &mut NullRuntime),
            };
            (run, mem, prof)
        };
        let run = run.map_err(|e| format!("simulation failed: {e}"))?;
        let mem = rec.span("memsim", |_| hierarchy.stats());
        let profiles = runtime.map(|rt| rec.span("profiling", |_| rt.finish()));
        rec.attr("instructions", run.instructions);
        rec.attr("accesses", run.loads + run.stores);
        rec.attr("fastpath_hits", run.fastpath_load_hits);
        Ok(Sim { run, mem, profiles })
    })
}

/// One integrated profiling run under `variant` (never two-pass, which
/// the evaluated figures do not use).
pub fn profile(
    rec: &mut Recorder,
    config: &PipelineConfig,
    module: &Module,
    variant: ProfilingVariant,
    args: &[i64],
) -> Result<ProfileOutcome, String> {
    assert!(
        variant != ProfilingVariant::TwoPass,
        "two-pass profiling is not re-enacted"
    );
    let inst = rec.span("instrument", |_| {
        instrument(module, variant.method(), &config.prefetch)
    });
    let runtime = rec.span("profiling", |_| {
        ProfilerRuntime::new(module, inst.selection.slot_sites(), variant.stride_config())
    });
    let sim = simulate(rec, config, &inst.module, args, Some(runtime))?;
    let Some((edge, stride, stats)) = sim.profiles else {
        unreachable!("a runtime was attached")
    };
    Ok(ProfileOutcome {
        edge,
        stride,
        stats,
        run: sim.run,
        source: variant.freq_source(),
    })
}

/// The feedback pass: classify with the profiles, then transform.
pub fn prefetch_with(
    rec: &mut Recorder,
    config: &PipelineConfig,
    module: &Module,
    edge: &EdgeProfile,
    source: FreqSource,
    stride: &StrideProfile,
) -> Module {
    // The default configuration leaves dependence-based prefetching off,
    // so `stride_core::prefetch_with_profiles` is exactly these two calls.
    debug_assert!(!config.prefetch.enable_dependent_prefetch);
    let classification = rec.span("classify", |_| {
        classify(module, stride, edge, source, &config.prefetch)
    });
    rec.span("prefetch", |_| {
        apply_prefetching(module, &classification, &config.prefetch).0
    })
}

/// Content-addressed run memo, mirroring `RunCache`'s three maps and its
/// hit, miss and simulated-load counters.
#[derive(Default)]
pub struct Store {
    config: PipelineConfig,
    plain: HashMap<(u64, Vec<i64>), PlainRun>,
    edge: HashMap<(u64, Vec<i64>), EdgeRun>,
    profiles: HashMap<(u64, ProfilingVariant, Vec<i64>), Arc<ProfileOutcome>>,
    /// Lookups served from the memo.
    pub hits: u64,
    /// Lookups that simulated.
    pub misses: u64,
    /// Dynamic loads of fresh simulations.
    pub sim_loads: u64,
    /// Every fresh simulation, in order.
    pub digests: Vec<RunDigest>,
}

impl Store {
    /// An empty memo over the default pipeline configuration.
    pub fn new() -> Store {
        Store::default()
    }

    /// The pipeline configuration every run uses.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    fn fingerprint(rec: &mut Recorder, module: &Module) -> u64 {
        rec.span("runcache.fingerprint", |_| fingerprint_module(module))
    }

    fn fresh(&mut self, run: &RunResult) {
        self.misses += 1;
        self.sim_loads += run.loads;
        self.digests.push(RunDigest::of(run));
    }

    /// Uninstrumented run (baseline or transformed), memoized.
    pub fn plain(
        &mut self,
        rec: &mut Recorder,
        module: &Module,
        args: &[i64],
    ) -> Result<PlainRun, String> {
        let key = (Self::fingerprint(rec, module), args.to_vec());
        if let Some(hit) = self.plain.get(&key) {
            self.hits += 1;
            return Ok(Arc::clone(hit));
        }
        let sim = simulate(rec, &self.config, module, args, None)?;
        self.fresh(&sim.run);
        let out = Arc::new((sim.run, sim.mem));
        self.plain.insert(key, Arc::clone(&out));
        Ok(out)
    }

    /// Edge-frequency-only instrumented run, memoized.
    pub fn edge_only(
        &mut self,
        rec: &mut Recorder,
        module: &Module,
        args: &[i64],
    ) -> Result<EdgeRun, String> {
        let key = (Self::fingerprint(rec, module), args.to_vec());
        if let Some(hit) = self.edge.get(&key) {
            self.hits += 1;
            return Ok(Arc::clone(hit));
        }
        let instrumented = rec.span("instrument", |_| instrument_edges_only(module));
        let runtime = rec.span("profiling", |_| ProfilerRuntime::edge_only(module));
        let sim = simulate(rec, &self.config, &instrumented, args, Some(runtime))?;
        self.fresh(&sim.run);
        let Some((edge, _, _)) = sim.profiles else {
            unreachable!("a runtime was attached")
        };
        let out = Arc::new((edge, sim.run));
        self.edge.insert(key, Arc::clone(&out));
        Ok(out)
    }

    /// Integrated profiling run, memoized.
    pub fn profiling(
        &mut self,
        rec: &mut Recorder,
        module: &Module,
        variant: ProfilingVariant,
        args: &[i64],
    ) -> Result<Arc<ProfileOutcome>, String> {
        let key = (Self::fingerprint(rec, module), variant, args.to_vec());
        if let Some(hit) = self.profiles.get(&key) {
            self.hits += 1;
            return Ok(Arc::clone(hit));
        }
        let outcome = profile(rec, &self.config, module, variant, args)?;
        self.fresh(&outcome.run);
        let out = Arc::new(outcome);
        self.profiles.insert(key, Arc::clone(&out));
        Ok(out)
    }
}
