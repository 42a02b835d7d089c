// Library code must degrade gracefully instead of panicking; unwrap and
// expect are allowed only under cfg(test).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! The paper's contribution: integrated stride + frequency profiling and
//! stride-profile-guided compiler prefetching (Wu, PLDI 2002).
//!
//! The crate stitches the substrates together into the paper's two
//! compiler passes:
//!
//! 1. **Instrumentation** ([`instrument()`]): insert edge/block frequency
//!    counters, trip-count-guard predicates (edge-check / block-check,
//!    Figs. 11–14) and `strideProf` calls into a copy of the module.
//! 2. **Feedback** ([`classify()`] + [`apply_prefetching`]): read the
//!    profiles back, filter by frequency and trip count, classify loads as
//!    SSST / PMST / WSST (Fig. 5) and insert the matching prefetch
//!    sequences (§2.2–2.3).
//!
//! [`pipeline`] wires both passes around the VM and cache simulator to
//! reproduce the paper's speedup (Fig. 16), overhead (Figs. 20–22) and
//! input-sensitivity (Figs. 23–25) experiments.
//!
//! # Example
//!
//! ```
//! use stride_core::{measure_speedup, PipelineConfig, ProfilingVariant};
//! use stride_ir::{ModuleBuilder, Operand};
//!
//! // Repeated strided sweeps over a large array. (The sweep loop is
//! // entered several times: edge-check's trip-count guard only activates
//! // strideProf once the counters show a hot loop, so a loop nest
//! // executed exactly once is never stride-profiled — §3.2.)
//! let mut mb = ModuleBuilder::new();
//! let g = mb.add_global("arr", 1 << 22);
//! let f = mb.declare_function("main", 1);
//! let mut fb = mb.function(f);
//! let base = fb.global_addr(g);
//! let sum = fb.mov(0i64);
//! fb.counted_loop(fb.param(0), |fb, _pass| {
//!     fb.counted_loop(20_000i64, |fb, i| {
//!         let off = fb.mul(i, 128i64);
//!         let a = fb.add(base, off);
//!         let (v, _) = fb.load(a, 0);
//!         fb.bin_to(sum, stride_ir::BinOp::Add, sum, v);
//!     });
//! });
//! fb.ret(Some(Operand::Reg(sum)));
//! mb.set_entry(f);
//! let module = mb.finish();
//!
//! let config = PipelineConfig::default();
//! let out = measure_speedup(&module, &[3], &[4],
//!                           ProfilingVariant::EdgeCheck, &config)?;
//! assert!(out.speedup > 1.0);
//! # Ok::<(), stride_core::PipelineError>(())
//! ```

pub mod classify;
pub mod config;
pub mod dependent;
pub mod error;
pub mod exec;
pub mod faults;
pub mod instrument;
pub mod obs;
pub mod pipeline;
pub mod prefetch;
pub mod report;
pub mod runcache;
pub mod select;

pub use classify::{classify, classify_profile, Classification, ClassifiedLoad, StrideClass};
pub use config::{ClassifyThresholds, PrefetchConfig};
pub use dependent::apply_dependent_prefetching;
pub use error::PipelineError;
pub use exec::{default_jobs, parallel_map, parallel_map_isolated, parse_jobs, TaskFailure};
pub use faults::{
    corrupt_ir_text, degradation_violations, faulted_profiling, splitmix64_mix, FaultInjector,
    FaultKind, FaultPlan, FaultRng, FaultScenario, SPLITMIX64_GAMMA,
};
pub use instrument::{
    instrument, instrument_edges_only, instrument_two_pass, profiling_instr_count, select_two_pass,
    InstrumentedModule,
};
pub use obs::{
    Counter, Gauge, GaugeSnapshot, Histogram, HistogramSnapshot, Registry, Snapshot, TraceEvent,
    TraceLine, Tracer,
};
pub use pipeline::{
    measure_overhead, measure_speedup, observe_hierarchy, observe_overhead, observe_profile,
    observe_speedup, prefetch_with_profiles, run_edge_only, run_profiling, run_uninstrumented,
    OverheadOutcome, PipelineConfig, ProfileOutcome, ProfilingVariant, SpeedupOutcome,
};
pub use prefetch::{apply_prefetching, prefetch_distance, round_pow2, PrefetchReport};
pub use report::{class_distribution, load_mix, ClassDistribution, LoadMix, LoadPopulation};
pub use runcache::{fingerprint_module, RunCache, RunCacheStats};
pub use select::{select_profiled_loads, ProfiledLoad, ProfilingMethod, Selection};
