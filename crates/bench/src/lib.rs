//! Reproduction harness: figure/table generators (driven by the `repro`
//! binary), the parallel execution engine behind `--jobs`, the run
//! memoization store that shares simulations across figures, and the
//! perf summary `repro --bench-json` writes.

pub mod figures;
pub mod perf;

// The execution engine and run cache moved to `stride_core` so the profile
// daemon (`stride-server`) can share them without depending on this crate;
// re-exported here so existing `stride_bench::` imports keep working.
pub use stride_core::exec::{
    default_jobs, parallel_map, parallel_map_isolated, parse_jobs, TaskFailure,
};
pub use stride_core::runcache::{fingerprint_module, RunCache, RunCacheStats};

pub use figures::{
    fig15_table, fig16_speedups, fig17_load_mix, fig18_19_distributions, fig20_22_overheads,
    fig23_25_sensitivity, geomean, render_diagnostics, render_distribution, render_overheads,
    render_sensitivity, render_speedups, speedup_of, Diagnostic, FigureCtx, Partial,
    SensitivityRow, SpeedupRow,
};
pub use perf::{FigurePerf, PerfSummary};
