//! One generator per table/figure of the paper's evaluation (§4).
//!
//! Each generator fans its (workload, variant) units out over the
//! [`crate::exec`] job pool and serves repeated runs from the shared
//! [`RunCache`], then returns structured rows; `render_*` helpers print
//! them in the layout of the corresponding figure. The `repro` binary
//! drives these. Results are collected in input order, so figure output is
//! byte-identical at every `--jobs` level.
//!
//! # Graceful degradation
//!
//! Every generator returns a [`Partial`]: the rows whose pipeline
//! completed, plus one [`Diagnostic`] per failed unit. A unit fails
//! either with a structured [`PipelineError`] (e.g. an injected fuel
//! fault) or by panicking — panics are caught per-unit by
//! [`crate::exec::parallel_map_isolated`], so one broken workload cannot
//! take down its siblings. Failures are reported in input order, keeping
//! the output byte-identical at every `--jobs` level.

use stride_core::exec::parallel_map_isolated;
use stride_core::runcache::RunCache;
use stride_core::{
    class_distribution, load_mix, prefetch_with_profiles, ClassDistribution, FaultInjector,
    LoadPopulation, OverheadOutcome, PipelineConfig, PipelineError, ProfilingVariant,
};
use stride_workloads::{all_workloads, Scale, Workload};

/// Geometric mean of a slice of ratios.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Everything a figure generator needs: the workload suite, the pipeline
/// configuration, the memoizing run store, and the parallelism level.
pub struct FigureCtx<'a> {
    /// Workload scale (test or paper).
    pub scale: Scale,
    /// Pipeline configuration shared by every run.
    pub config: &'a PipelineConfig,
    /// Shared run memoization store.
    pub cache: &'a RunCache,
    /// Worker threads for the fan-out (1 = serial).
    pub jobs: usize,
    /// The benchmark suite, built once.
    pub workloads: Vec<Workload>,
    /// Optional fault plan applied to the speedup pipeline (`--inject`).
    pub injector: Option<&'a FaultInjector>,
}

impl<'a> FigureCtx<'a> {
    /// Builds the suite at `scale` and wraps the shared pieces.
    pub fn new(scale: Scale, config: &'a PipelineConfig, cache: &'a RunCache, jobs: usize) -> Self {
        FigureCtx {
            scale,
            config,
            cache,
            jobs,
            workloads: all_workloads(scale),
            injector: None,
        }
    }

    /// Attaches a fault injector (applied by the Fig. 16 speedup units).
    pub fn with_injector(mut self, injector: Option<&'a FaultInjector>) -> Self {
        self.injector = injector;
        self
    }
}

/// One failed figure unit, in a form stable across runs and `--jobs`
/// levels (no paths, addresses or timing).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workload whose unit failed.
    pub workload: &'static str,
    /// What failed and why (includes the variant for per-variant units).
    pub detail: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.workload, self.detail)
    }
}

/// A figure's partial result: the rows that completed plus one
/// diagnostic per failed unit, both in deterministic input order.
#[derive(Clone, Debug)]
pub struct Partial<T> {
    /// Rows whose every unit completed.
    pub rows: Vec<T>,
    /// One entry per failed unit.
    pub failures: Vec<Diagnostic>,
}

impl<T> Partial<T> {
    /// Did every unit complete?
    pub fn complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// The rows, or the first failure as an error message — for callers
    /// that want the pre-degradation all-or-nothing behaviour.
    pub fn into_strict(self) -> Result<Vec<T>, String> {
        match self.failures.first() {
            Some(d) => Err(d.to_string()),
            None => Ok(self.rows),
        }
    }
}

/// Renders failure diagnostics as `!!`-prefixed lines (empty input
/// renders nothing).
pub fn render_diagnostics(failures: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in failures {
        out.push_str(&format!("!! {d}\n"));
    }
    out
}

/// Runs `run` over `units` with per-unit panic isolation, executing them
/// in `order` (a permutation of unit indices) and returning the per-unit
/// outcomes in input order plus a diagnostic per failure, also in input
/// order; `describe` labels a unit for its diagnostic.
fn isolate<U, R>(
    ctx: &FigureCtx<'_>,
    units: &[U],
    order: &[usize],
    describe: impl Fn(&U) -> (&'static str, String),
    run: impl Fn(&U) -> Result<R, PipelineError> + Sync,
) -> (Vec<Option<R>>, Vec<Diagnostic>)
where
    U: Sync,
    R: Send,
{
    let ran = parallel_map_isolated(order, ctx.jobs, |_, &i| run(&units[i]));
    let mut results: Vec<Option<_>> = units.iter().map(|_| None).collect();
    for (&i, r) in order.iter().zip(ran) {
        results[i] = Some(r);
    }
    let mut out = Vec::with_capacity(units.len());
    let mut failures = Vec::new();
    for (u, r) in units.iter().zip(results) {
        let detail = match r {
            Some(Ok(Ok(v))) => {
                out.push(Some(v));
                continue;
            }
            Some(Ok(Err(e))) => e.to_string(),
            Some(Err(tf)) => format!("panic: {}", tf.message),
            None => unreachable!("`order` is a permutation of the unit indices"),
        };
        let (workload, what) = describe(u);
        failures.push(Diagnostic {
            workload,
            detail: format!("{what}{detail}"),
        });
        out.push(None);
    }
    (out, failures)
}

/// Unit indices `0..n` in input order.
fn in_order(n: usize) -> Vec<usize> {
    (0..n).collect()
}

/// The (workload, variant) units of a workload-major grid, visited
/// variant-major: consecutive units belong to different workloads, so
/// two workers never wait on one workload's shared baseline or
/// edge-only run.
fn variant_major(workloads: usize, variants: usize) -> Vec<usize> {
    (0..variants)
        .flat_map(|vi| (0..workloads).map(move |wi| wi * variants + vi))
        .collect()
}

/// Fig. 15: the benchmark table.
pub fn fig15_table(scale: Scale) -> String {
    let mut out = String::from("| Program | Lang | Description |\n|---|---|---|\n");
    for w in all_workloads(scale) {
        out.push_str(&format!(
            "| {} | {} | {} |\n",
            w.name, w.lang, w.description
        ));
    }
    out
}

/// One benchmark's speedups under every requested variant (Fig. 16 row).
#[derive(Clone, Debug)]
pub struct SpeedupRow {
    /// Benchmark name.
    pub name: &'static str,
    /// `(variant, speedup)` pairs in request order.
    pub speedups: Vec<(ProfilingVariant, f64)>,
}

fn unit_speedup(ctx: &FigureCtx<'_>, wi: usize, v: ProfilingVariant) -> Result<f64, PipelineError> {
    let w = &ctx.workloads[wi];
    let out = match ctx.injector {
        Some(inj) => ctx.cache.speedup_faulted(
            &w.module,
            w.name,
            &w.train_args,
            &w.ref_args,
            v,
            ctx.config,
            inj,
        )?,
        None => ctx
            .cache
            .speedup(&w.module, &w.train_args, &w.ref_args, v, ctx.config)?,
    };
    Ok(out.speedup)
}

/// Fig. 16: speedup of stride prefetching per profiling method. Every
/// (workload, variant) pair is an independent unit of work; a workload
/// with any failed unit is degraded to diagnostics while the remaining
/// rows complete.
pub fn fig16_speedups(ctx: &FigureCtx<'_>, variants: &[ProfilingVariant]) -> Partial<SpeedupRow> {
    let units: Vec<(usize, ProfilingVariant)> = (0..ctx.workloads.len())
        .flat_map(|wi| variants.iter().map(move |&v| (wi, v)))
        .collect();
    let (vals, failures) = isolate(
        ctx,
        &units,
        &variant_major(ctx.workloads.len(), variants.len()),
        |&(wi, v)| (ctx.workloads[wi].name, format!("{v}: ")),
        |&(wi, v)| unit_speedup(ctx, wi, v),
    );
    let rows = ctx
        .workloads
        .iter()
        .enumerate()
        .filter_map(|(wi, w)| {
            let speedups: Option<Vec<(ProfilingVariant, f64)>> = variants
                .iter()
                .enumerate()
                .map(|(vi, &v)| vals[wi * variants.len() + vi].map(|s| (v, s)))
                .collect();
            speedups.map(|speedups| SpeedupRow {
                name: w.name,
                speedups,
            })
        })
        .collect();
    Partial { rows, failures }
}

/// Renders Fig. 16 rows (plus a geometric-mean line per variant).
pub fn render_speedups(rows: &[SpeedupRow]) -> String {
    let mut out = String::new();
    if rows.is_empty() {
        return out;
    }
    out.push_str(&format!("{:<14}", "benchmark"));
    for (v, _) in &rows[0].speedups {
        out.push_str(&format!("{:>20}", v.to_string()));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&format!("{:<14}", row.name));
        for (_, s) in &row.speedups {
            out.push_str(&format!("{s:>20.3}"));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<14}", "geomean"));
    for i in 0..rows[0].speedups.len() {
        let col: Vec<f64> = rows.iter().map(|r| r.speedups[i].1).collect();
        out.push_str(&format!("{:>20.3}", geomean(&col)));
    }
    out.push('\n');
    out
}

/// Fig. 17: percentage of in-loop vs out-loop load references per
/// benchmark (dynamic counts on the reference input).
pub fn fig17_load_mix(ctx: &FigureCtx<'_>) -> Partial<(&'static str, f64, f64)> {
    let (vals, failures) = isolate(
        ctx,
        &ctx.workloads,
        &in_order(ctx.workloads.len()),
        |w| (w.name, String::new()),
        |w| {
            let run = ctx.cache.plain_run(&w.module, &w.ref_args, ctx.config)?;
            let mix = load_mix(&w.module, &run.0);
            let f = mix.in_loop_fraction();
            Ok((w.name, f, 1.0 - f))
        },
    );
    Partial {
        rows: vals.into_iter().flatten().collect(),
        failures,
    }
}

/// Figs. 18/19: distribution of (out-loop / in-loop) load references by
/// stride property, from a naive-all profile on the train input.
pub fn fig18_19_distributions(
    ctx: &FigureCtx<'_>,
) -> Partial<(&'static str, ClassDistribution, ClassDistribution)> {
    let (vals, failures) = isolate(
        ctx,
        &ctx.workloads,
        &in_order(ctx.workloads.len()),
        |w| (w.name, String::new()),
        |w| {
            let outcome = ctx.cache.profiling(
                &w.module,
                ProfilingVariant::NaiveAll,
                &w.train_args,
                ctx.config,
            )?;
            let run = ctx.cache.plain_run(&w.module, &w.train_args, ctx.config)?;
            let out_loop = class_distribution(
                &w.module,
                &outcome.stride,
                &run.0,
                LoadPopulation::OutLoop,
                &ctx.config.prefetch,
            );
            let in_loop = class_distribution(
                &w.module,
                &outcome.stride,
                &run.0,
                LoadPopulation::InLoop,
                &ctx.config.prefetch,
            );
            Ok((w.name, out_loop, in_loop))
        },
    );
    Partial {
        rows: vals.into_iter().flatten().collect(),
        failures,
    }
}

/// Renders a Figs. 18/19 distribution table.
pub fn render_distribution(rows: &[(&'static str, ClassDistribution)]) -> String {
    let mut out = format!(
        "{:<14}{:>8}{:>8}{:>8}{:>10}\n",
        "benchmark", "SSST", "PMST", "WSST", "no-stride"
    );
    for (name, d) in rows {
        out.push_str(&format!(
            "{:<14}{:>7.1}%{:>7.1}%{:>7.1}%{:>9.1}%\n",
            name,
            d.ssst * 100.0,
            d.pmst * 100.0,
            d.wsst * 100.0,
            d.none * 100.0
        ));
    }
    out
}

/// One Fig. 20–22 row: a benchmark and its per-variant overhead outcomes.
pub type OverheadRow = (&'static str, Vec<(ProfilingVariant, OverheadOutcome)>);

/// Figs. 20–22: profiling overhead and strideProf/LFU processing rates,
/// per benchmark and variant, on the train input. The per-variant
/// profiling runs are shared with Fig. 16 through the run cache, and the
/// edge-only baseline is one run per workload.
pub fn fig20_22_overheads(
    ctx: &FigureCtx<'_>,
    variants: &[ProfilingVariant],
) -> Partial<OverheadRow> {
    let units: Vec<(usize, ProfilingVariant)> = (0..ctx.workloads.len())
        .flat_map(|wi| variants.iter().map(move |&v| (wi, v)))
        .collect();
    let (vals, failures) = isolate(
        ctx,
        &units,
        &variant_major(ctx.workloads.len(), variants.len()),
        |&(wi, v)| (ctx.workloads[wi].name, format!("{v}: ")),
        |&(wi, v)| {
            let w = &ctx.workloads[wi];
            ctx.cache.overhead(&w.module, &w.train_args, v, ctx.config)
        },
    );
    let rows = ctx
        .workloads
        .iter()
        .enumerate()
        .filter_map(|(wi, w)| {
            let cols: Option<Vec<(ProfilingVariant, OverheadOutcome)>> = variants
                .iter()
                .enumerate()
                .map(|(vi, &v)| {
                    vals[wi * variants.len() + vi]
                        .as_ref()
                        .map(|o| (v, o.clone()))
                })
                .collect();
            cols.map(|cols| (w.name, cols))
        })
        .collect();
    Partial { rows, failures }
}

/// Renders one of Figs. 20–22 from the overhead data: `field` selects the
/// quantity (0 = overhead ratio, 1 = strideProf fraction, 2 = LFU
/// fraction).
pub fn render_overheads(
    rows: &[(&'static str, Vec<(ProfilingVariant, OverheadOutcome)>)],
    field: usize,
) -> String {
    let mut out = String::new();
    if rows.is_empty() {
        return out;
    }
    out.push_str(&format!("{:<14}", "benchmark"));
    for (v, _) in &rows[0].1 {
        out.push_str(&format!("{:>20}", v.to_string()));
    }
    out.push('\n');
    let mut sums = vec![0.0; rows[0].1.len()];
    for (name, cols) in rows {
        out.push_str(&format!("{name:<14}"));
        for (i, (_, o)) in cols.iter().enumerate() {
            let x = match field {
                0 => o.overhead,
                1 => o.strideprof_fraction,
                2 => o.lfu_fraction,
                _ => 0.0,
            };
            sums[i] += x;
            out.push_str(&format!("{:>19.1}%", x * 100.0));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<14}", "average"));
    for s in &sums {
        out.push_str(&format!("{:>19.1}%", s / rows.len() as f64 * 100.0));
    }
    out.push('\n');
    out
}

/// One benchmark's input-sensitivity results (Figs. 23–25).
#[derive(Clone, Debug)]
pub struct SensitivityRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Profiles from the train input (Fig. 23's "train").
    pub train: f64,
    /// Profiles from the reference input (Fig. 23's "ref").
    pub reference: f64,
    /// Edge profile from ref, stride profile from train (Fig. 24).
    pub edge_ref_stride_train: f64,
    /// Edge profile from train, stride profile from ref (Fig. 25).
    pub edge_train_stride_ref: f64,
}

/// Figs. 23–25: sensitivity of the speedup to the profiling input, with
/// sample-edge-check profiling (§4.3). All four binaries run on the
/// reference input. The two profiling runs and the baseline come from the
/// run cache; the four transformed binaries are unique and run fresh.
pub fn fig23_25_sensitivity(ctx: &FigureCtx<'_>) -> Partial<SensitivityRow> {
    let variant = ProfilingVariant::SampleEdgeCheck;
    let (vals, failures) = isolate(
        ctx,
        &ctx.workloads,
        &in_order(ctx.workloads.len()),
        |w| (w.name, String::new()),
        |w| {
            let train_prof = ctx
                .cache
                .profiling(&w.module, variant, &w.train_args, ctx.config)?;
            let ref_prof = ctx
                .cache
                .profiling(&w.module, variant, &w.ref_args, ctx.config)?;
            let baseline = ctx.cache.plain_run(&w.module, &w.ref_args, ctx.config)?;
            let speedup_with = |edge: &stride_profiling::EdgeProfile,
                                stride: &stride_profiling::StrideProfile|
             -> Result<f64, PipelineError> {
                let (m, _, _) =
                    prefetch_with_profiles(&w.module, edge, train_prof.source, stride, ctx.config);
                let run = ctx.cache.plain_run(&m, &w.ref_args, ctx.config)?;
                Ok(baseline.0.cycles as f64 / run.0.cycles.max(1) as f64)
            };
            Ok(SensitivityRow {
                name: w.name,
                train: speedup_with(&train_prof.edge, &train_prof.stride)?,
                reference: speedup_with(&ref_prof.edge, &ref_prof.stride)?,
                edge_ref_stride_train: speedup_with(&ref_prof.edge, &train_prof.stride)?,
                edge_train_stride_ref: speedup_with(&train_prof.edge, &ref_prof.stride)?,
            })
        },
    );
    Partial {
        rows: vals.into_iter().flatten().collect(),
        failures,
    }
}

/// Renders the Figs. 23–25 sensitivity table.
pub fn render_sensitivity(rows: &[SensitivityRow]) -> String {
    let mut out = format!(
        "{:<14}{:>10}{:>10}{:>24}{:>24}\n",
        "benchmark", "train", "ref", "edge.ref-stride.train", "edge.train-stride.ref"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<14}{:>10.3}{:>10.3}{:>24.3}{:>24.3}\n",
            r.name, r.train, r.reference, r.edge_ref_stride_train, r.edge_train_stride_ref
        ));
    }
    out
}

/// Convenience: a single benchmark's full speedup pipeline (used by tests
/// and the bench targets).
///
/// # Errors
///
/// Propagates the pipeline's [`PipelineError`].
pub fn speedup_of(
    w: &Workload,
    variant: ProfilingVariant,
    config: &PipelineConfig,
) -> Result<f64, PipelineError> {
    Ok(
        stride_core::measure_speedup(&w.module, &w.train_args, &w.ref_args, variant, config)?
            .speedup,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use stride_core::{FaultInjector, FaultPlan};

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[1.59]) - 1.59).abs() < 1e-9);
    }

    #[test]
    fn fig15_lists_all_twelve() {
        let t = fig15_table(Scale::Test);
        assert_eq!(t.lines().count(), 14); // header + separator + 12
        assert!(t.contains("181.mcf"));
        assert!(t.contains("Combinatorial Optimization"));
    }

    #[test]
    fn render_speedups_includes_geomean() {
        let rows = vec![SpeedupRow {
            name: "181.mcf",
            speedups: vec![(ProfilingVariant::EdgeCheck, 1.5)],
        }];
        let s = render_speedups(&rows);
        assert!(s.contains("geomean"));
        assert!(s.contains("1.500"));
    }

    #[test]
    fn fig17_runs_at_test_scale() {
        let config = PipelineConfig::default();
        let cache = RunCache::new();
        let ctx = FigureCtx::new(Scale::Test, &config, &cache, 2);
        let rows = fig17_load_mix(&ctx).into_strict().unwrap();
        assert_eq!(rows.len(), 12);
        for (name, in_f, out_f) in rows {
            assert!((in_f + out_f - 1.0).abs() < 1e-9, "{name}: fractions");
        }
    }

    #[test]
    fn fig16_shares_runs_with_fig20_22() {
        let config = PipelineConfig::default();
        let cache = RunCache::new();
        let ctx = FigureCtx::new(Scale::Test, &config, &cache, 2);
        let variants = [ProfilingVariant::EdgeCheck];
        fig16_speedups(&ctx, &variants).into_strict().unwrap();
        let after_fig16 = cache.stats();
        fig20_22_overheads(&ctx, &variants).into_strict().unwrap();
        let after_fig20 = cache.stats();
        // fig20-22 adds only the 12 edge-only baselines; all 12 profiling
        // runs hit the cache.
        assert_eq!(after_fig20.misses - after_fig16.misses, 12);
        assert!(after_fig20.hits >= after_fig16.hits + 12);
    }

    #[test]
    fn injected_fuel_fault_degrades_one_row_and_keeps_the_rest() {
        let config = PipelineConfig::default();
        let cache = RunCache::new();
        let plan = FaultPlan::parse("seed=1;fuel=100@181.mcf").unwrap();
        let injector = FaultInjector::new(plan);
        let ctx = FigureCtx::new(Scale::Test, &config, &cache, 2).with_injector(Some(&injector));
        let partial = fig16_speedups(&ctx, &[ProfilingVariant::EdgeCheck]);
        assert_eq!(partial.rows.len(), 11, "only the targeted row degrades");
        assert!(partial.rows.iter().all(|r| r.name != "181.mcf"));
        assert_eq!(partial.failures.len(), 1);
        let d = &partial.failures[0];
        assert_eq!(d.workload, "181.mcf");
        assert!(d.detail.contains("budget exhausted"), "{}", d.detail);
        let rendered = render_diagnostics(&partial.failures);
        assert!(rendered.starts_with("!! 181.mcf:"));
    }

    #[test]
    fn injected_profile_faults_uphold_degradation_invariant() {
        // A global table-truncation fault may only shrink the prefetch
        // set; the classified sites under fault are a subset of clean.
        let config = PipelineConfig::default();
        let cache = RunCache::new();
        let w = stride_workloads::workload_by_name("mcf", Scale::Test).unwrap();
        let clean = cache
            .speedup(
                &w.module,
                &w.train_args,
                &w.ref_args,
                ProfilingVariant::EdgeCheck,
                &config,
            )
            .unwrap();
        let plan = FaultPlan::parse("seed=5;truncate=1;drop-sites=2").unwrap();
        let injector = FaultInjector::new(plan);
        let faulted = cache
            .speedup_faulted(
                &w.module,
                w.name,
                &w.train_args,
                &w.ref_args,
                ProfilingVariant::EdgeCheck,
                &config,
                &injector,
            )
            .unwrap();
        let violations =
            stride_core::degradation_violations(&clean.classification, &faulted.classification);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(faulted.classification.loads.len() <= clean.classification.loads.len());
    }
}
