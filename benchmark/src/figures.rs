//! The `figures` workload: regenerate the paper's Figs. 15–25 with the
//! shipped `repro --scale paper --jobs 2` and check its output against
//! the committed `repro_output.txt`.
//!
//! The traced run re-enacts the same work in-process, one step at a
//! time, with a span around every call into a layer ([`reenact`]), and
//! compares it with an untraced re-enactment of the same steps.

use crate::pipeline::{prefetch_with, Store};
use crate::proc::{cpu_ticks, vm_hwm_kb, Proc, USER_HZ};
use crate::trace::{timer_overhead_ns, Recorder};
use crate::{cycle_medians, json, ledger_metrics, stats, Ctx, Metric, Outcome};
use std::fs;
use std::time::{Duration, Instant};
use stride_core::{class_distribution, load_mix, LoadPopulation, ProfilingVariant};
use stride_workloads::{all_workloads, Scale};

/// Worker threads `repro` gets: one per core of the 2-core reference
/// host.
const JOBS: usize = 2;

/// Longest a single `repro` run may take before it counts as hung.
const REPRO_TIMEOUT: Duration = Duration::from_secs(120);

/// Re-enacts, serially and in `repro`'s order, every run the figures
/// need: Fig. 16's profile → classify → prefetch → baseline and
/// transformed reference runs for 12 workloads × 6 variants; the Figs.
/// 18–19 naive-all profile and train-input run; the Figs. 20–22
/// edge-only and profiling runs; and Figs. 23–25's sample-edge-check
/// profiles on both inputs with their four profile pairings. Fig. 17
/// only reads Fig. 16's baselines.
pub fn reenact(rec: &mut Recorder, scale: Scale) -> Result<Store, String> {
    let mut store = Store::new();
    let config = *store.config();
    let workloads = rec.span("workloads", |_| all_workloads(scale));
    rec.span("fig16", |rec| {
        for w in &workloads {
            for v in ProfilingVariant::EVALUATED {
                let p = store.profiling(rec, &w.module, v, &w.train_args)?;
                let m = prefetch_with(rec, &config, &w.module, &p.edge, p.source, &p.stride);
                store.plain(rec, &w.module, &w.ref_args)?;
                store.plain(rec, &m, &w.ref_args)?;
            }
        }
        Ok::<(), String>(())
    })?;
    rec.span("fig17", |rec| {
        for w in &workloads {
            let run = store.plain(rec, &w.module, &w.ref_args)?;
            rec.span("report", |_| load_mix(&w.module, &run.0));
        }
        Ok::<(), String>(())
    })?;
    rec.span("fig18_19", |rec| {
        for w in &workloads {
            let p = store.profiling(rec, &w.module, ProfilingVariant::NaiveAll, &w.train_args)?;
            let run = store.plain(rec, &w.module, &w.train_args)?;
            rec.span("report", |_| {
                for population in [LoadPopulation::OutLoop, LoadPopulation::InLoop] {
                    class_distribution(&w.module, &p.stride, &run.0, population, &config.prefetch);
                }
            });
        }
        Ok::<(), String>(())
    })?;
    rec.span("fig20_22", |rec| {
        for w in &workloads {
            for v in ProfilingVariant::EVALUATED {
                store.edge_only(rec, &w.module, &w.train_args)?;
                store.profiling(rec, &w.module, v, &w.train_args)?;
            }
        }
        Ok::<(), String>(())
    })?;
    rec.span("fig23_25", |rec| {
        let v = ProfilingVariant::SampleEdgeCheck;
        for w in &workloads {
            let train = store.profiling(rec, &w.module, v, &w.train_args)?;
            let reference = store.profiling(rec, &w.module, v, &w.ref_args)?;
            store.plain(rec, &w.module, &w.ref_args)?;
            for (edge, stride) in [
                (&train.edge, &train.stride),
                (&reference.edge, &reference.stride),
                (&reference.edge, &train.stride),
                (&train.edge, &reference.stride),
            ] {
                let m = prefetch_with(rec, &config, &w.module, edge, train.source, stride);
                store.plain(rec, &m, &w.ref_args)?;
            }
        }
        Ok::<(), String>(())
    })?;
    Ok(store)
}

/// One `repro` process as a user sees it.
struct Invocation {
    wall_s: f64,
    /// User + system time: this process's `cutime + cstime` across the
    /// wait.
    cpu_s: f64,
    /// The last `VmHWM` reading of a 100 ms poll.
    peak_rss_kb: u64,
    stdout: Vec<u8>,
}

/// Runs `repro args...` to completion.
fn invoke(ctx: &Ctx, tag: &str, args: &[String]) -> Result<Invocation, String> {
    let stdout = ctx.tmp.join(format!("{tag}.out"));
    let stderr = ctx.tmp.join(format!("{tag}.err"));
    let children_before = cpu_ticks("self")
        .ok_or("cannot read /proc/self/stat")?
        .children;
    let start = Instant::now();
    let mut repro = Proc::spawn("repro", &ctx.bin("repro"), args, &stdout, &stderr)?;
    let mut peak_rss_kb = 0;
    let mut last_poll: Option<Instant> = None;
    let status = repro.wait_with(REPRO_TIMEOUT, |pid| {
        if last_poll.is_none_or(|t| t.elapsed() >= Duration::from_millis(100)) {
            last_poll = Some(Instant::now());
            if let Some(kb) = vm_hwm_kb(pid) {
                peak_rss_kb = kb;
            }
        }
    })?;
    let wall_s = start.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!(
            "repro exited with {status}. {}",
            repro.diagnostic()
        ));
    }
    let children_after = cpu_ticks("self")
        .ok_or("cannot read /proc/self/stat")?
        .children;
    Ok(Invocation {
        wall_s,
        cpu_s: (children_after - children_before) as f64 / USER_HZ,
        peak_rss_kb,
        stdout: fs::read(&stdout).map_err(|e| format!("repro output: {e}"))?,
    })
}

/// A full `repro --scale paper --jobs 2` run and its `--bench-json`
/// summary.
struct ReproRun {
    inv: Invocation,
    sim_loads: f64,
    cache_hits: f64,
    cache_misses: f64,
}

fn run_repro(ctx: &Ctx, index: usize) -> Result<ReproRun, String> {
    let bench_json = ctx.tmp.join(format!("repro-{index}.json"));
    let args = [
        "--scale",
        "paper",
        "--jobs",
        &JOBS.to_string(),
        "--bench-json",
    ]
    .map(String::from)
    .into_iter()
    .chain([bench_json.to_string_lossy().into_owned()])
    .collect::<Vec<_>>();
    let inv = invoke(ctx, &format!("repro-{index}"), &args)?;
    let summary =
        fs::read_to_string(&bench_json).map_err(|e| format!("repro wrote no --bench-json: {e}"))?;
    let field = |key: &str| {
        json::number_field(&summary, key).ok_or(format!("repro --bench-json lacks `{key}`"))
    };
    Ok(ReproRun {
        sim_loads: field("sim_loads")?,
        cache_hits: field("run_cache_hits")?,
        cache_misses: field("run_cache_misses")?,
        inv,
    })
}

/// `repro`'s set-up is the process start and the build of the 12-program
/// suite, about a millisecond: too short to time inside a full run, so
/// each cycle times it as `repro --figure 15` (start, build, print the
/// table) this many times and takes the median.
const SETUP_SAMPLES: usize = 7;

/// The untraced run, in cycles for `ctx.seconds` (at least one): time
/// the set-up, then regenerate every figure once. A cycle has one
/// operation, so its p50 and p90 are that run's wall time.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let golden = ctx.golden()?;
    let mut out = Outcome::default();
    let (mut fig15_differs, mut runs_differ) = (0, 0);
    let mut cycles = Vec::new();
    let start = Instant::now();
    while cycles.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        let mut setup_s = Vec::new();
        for i in 0..SETUP_SAMPLES {
            let args = ["--figure", "15", "--scale", "paper"].map(String::from);
            let inv = invoke(ctx, &format!("setup-{i}"), &args)?;
            fig15_differs += usize::from(inv.stdout.is_empty() || !golden.starts_with(&inv.stdout));
            setup_s.push(inv.wall_s);
        }
        let run = run_repro(ctx, cycles.len())?.inv;
        runs_differ += usize::from(run.stdout != golden);
        cycles.push([
            1.0 / run.wall_s,
            run.wall_s * 1e3,
            run.wall_s * 1e3,
            run.cpu_s * 1e3,
            stats::median(&setup_s).unwrap_or(0.0),
            run.peak_rss_kb as f64 / 1024.0,
        ]);
    }
    out.check(
        "repro --figure 15 prints the start of repro_output.txt",
        fig15_differs == 0,
        format!("{fig15_differs} runs differ"),
    );
    out.check(
        "figures stdout is byte-identical to repro_output.txt",
        runs_differ == 0,
        format!("{runs_differ} of {} runs differ", cycles.len()),
    );
    out.attempted = cycles.len() as u64;
    out.failed = runs_differ as u64;
    out.metrics = cycle_medians(&cycles);
    Ok(out)
}

/// The traced run: one untraced `repro` for reference, then the
/// in-process re-enactment untraced, traced and untraced again. The layer
/// ledger comes from the traced pass; `trace.overhead` compares it with
/// the mean of the two untraced passes around it, which cancels warm-up
/// and drift.
pub fn run_traced(ctx: &Ctx) -> Result<Outcome, String> {
    let golden = ctx.golden()?;
    let repro = run_repro(ctx, 0)?;
    let mut out = Outcome {
        attempted: 4,
        ..Outcome::default()
    };
    out.check(
        "figures stdout is byte-identical to repro_output.txt",
        repro.inv.stdout == golden,
        "repro output differs".to_string(),
    );

    let timed = |rec: &mut Recorder| -> Result<(Store, f64), String> {
        let start = Instant::now();
        let store = reenact(rec, Scale::Paper)?;
        Ok((store, start.elapsed().as_secs_f64()))
    };
    let (plain, before) = timed(&mut Recorder::new(false, 0.0))?;
    let mut rec = Recorder::new(true, timer_overhead_ns());
    let (traced, traced_wall) = timed(&mut rec)?;
    let (_, after) = timed(&mut Recorder::new(false, 0.0))?;
    let untraced_wall = (before + after) / 2.0;
    rec.write_jsonl(&ctx.out.join("figures.spans.jsonl"))
        .map_err(|e| format!("writing spans: {e}"))?;

    out.check(
        "traced and untraced sim_loads agree",
        traced.sim_loads as f64 == repro.sim_loads && plain.sim_loads == traced.sim_loads,
        format!(
            "repro {} untraced {} traced {}",
            repro.sim_loads, plain.sim_loads, traced.sim_loads
        ),
    );
    out.check(
        "traced runs match untraced runs (cycles, loads, fast-path hits)",
        plain.digests == traced.digests,
        format!(
            "{} of {} runs differ",
            plain
                .digests
                .iter()
                .zip(&traced.digests)
                .filter(|(a, b)| a != b)
                .count(),
            plain.digests.len()
        ),
    );
    out.check(
        "re-enactment shares runs exactly as repro's run cache",
        traced.hits as f64 == repro.cache_hits && traced.misses as f64 == repro.cache_misses,
        format!(
            "repro {}/{} hits/misses, re-enactment {}/{}",
            repro.cache_hits, repro.cache_misses, traced.hits, traced.misses
        ),
    );
    out.failed = out.checks.iter().filter(|c| !c.ok).count() as u64;

    let ledger_ns: f64 = [
        "vm",
        "memsim",
        "profiling",
        "instrument",
        "classify",
        "prefetch",
        "runcache.fingerprint",
    ]
    .iter()
    .map(|l| rec.layer(l).self_ns)
    .sum();
    out.metrics = ledger_metrics(&rec);
    out.metrics.extend([
        Metric::new(
            "runcache.hit_ratio",
            traced.hits as f64 / (traced.hits + traced.misses).max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "exec.utilization",
            repro.inv.cpu_s / (repro.inv.wall_s * JOBS as f64),
            "ratio",
        ),
        Metric::new("trace.coverage", ledger_ns / 1e9 / traced_wall, "ratio"),
        Metric::new("trace.overhead", traced_wall / untraced_wall - 1.0, "ratio"),
    ]);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{profile, simulate, RunDigest};
    use stride_bench::{
        fig16_speedups, fig17_load_mix, fig18_19_distributions, fig20_22_overheads,
        fig23_25_sensitivity, FigureCtx,
    };
    use stride_core::{run_profiling, run_uninstrumented, PipelineConfig, RunCache};

    fn digest(run: &stride_vm::RunResult) -> (u64, u64, u64, u64) {
        (run.cycles, run.loads, run.stores, run.fastpath_load_hits)
    }

    #[test]
    fn traced_wrappers_leave_every_run_unchanged() {
        let config = PipelineConfig::default();
        let mut rec = Recorder::new(true, timer_overhead_ns());
        for w in all_workloads(Scale::Test) {
            let (base, mem) = run_uninstrumented(&w.module, &w.ref_args, &config).unwrap();
            let traced = simulate(&mut rec, &config, &w.module, &w.ref_args, None).unwrap();
            assert_eq!(digest(&base), digest(&traced.run), "{} baseline", w.name);
            assert_eq!(mem, traced.mem, "{} hierarchy stats", w.name);
            assert!(
                base.fastpath_load_hits > 0,
                "{} takes the fast path",
                w.name
            );
            for v in [
                ProfilingVariant::EdgeCheck,
                ProfilingVariant::SampleNaiveAll,
            ] {
                let plain = run_profiling(&w.module, &w.train_args, v, &config).unwrap();
                let traced = profile(&mut rec, &config, &w.module, v, &w.train_args).unwrap();
                assert_eq!(digest(&plain.run), digest(&traced.run), "{} {v}", w.name);
                assert_eq!(plain.stats, traced.stats, "{} {v} strideProf stats", w.name);
            }
        }
        assert!(rec.layer("memsim").calls > 0 && rec.layer("profiling").calls > 0);
    }

    #[test]
    fn the_reenactment_simulates_exactly_what_repro_does() {
        let config = PipelineConfig::default();
        let cache = RunCache::new();
        let ctx = FigureCtx::new(Scale::Test, &config, &cache, 2);
        let all = ProfilingVariant::EVALUATED;
        assert!(fig16_speedups(&ctx, &all).complete());
        assert!(fig17_load_mix(&ctx).complete());
        assert!(fig18_19_distributions(&ctx).complete());
        assert!(fig20_22_overheads(&ctx, &all).complete());
        assert!(fig23_25_sensitivity(&ctx).complete());
        let repro = cache.stats();

        let traced = reenact(&mut Recorder::new(true, timer_overhead_ns()), Scale::Test).unwrap();
        let untraced = reenact(&mut Recorder::new(false, 0.0), Scale::Test).unwrap();
        assert_eq!(traced.sim_loads, repro.sim_loads);
        assert_eq!((traced.hits, traced.misses), (repro.hits, repro.misses));
        assert_eq!(traced.digests, untraced.digests);
        assert!(traced.digests.iter().all(|d: &RunDigest| d.loads > 0));
    }
}
