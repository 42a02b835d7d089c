//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro [--figure N] [--scale test|paper] [--jobs N] [--bench-json PATH]
//!       [--inject PLAN] [--no-fuse]
//! ```
//!
//! Without `--figure`, every figure (15–25) is produced. `--scale test`
//! runs tiny inputs for a quick smoke pass; the default `paper` scale
//! produces the numbers recorded in EXPERIMENTS.md.
//!
//! `--inject` applies a deterministic fault plan (see
//! `stride_core::FaultPlan::parse`) to the speedup pipeline: e.g.
//! `--inject 'seed=42;fuel=100000@181.mcf'` forces one workload's
//! profiling run out of fuel. Figures degrade gracefully — failed rows
//! are replaced by `!!` diagnostic lines while every other row is
//! produced, byte-identically at any `--jobs` level.
//!
//! Runs fan out over `--jobs` worker threads (default: the machine's
//! available parallelism) and repeated simulations are shared across
//! figures through a run cache; figure output is byte-identical at every
//! `--jobs` level. `--bench-json` writes a machine-readable summary of
//! wall-clock, simulation throughput and cache effectiveness per figure.

use std::time::Instant;

use stride_bench::*;
use stride_core::{
    instrument, profiling_instr_count, FaultInjector, FaultPlan, PipelineConfig, ProfilingVariant,
    Registry, TraceEvent,
};
use stride_workloads::{all_workloads, Scale};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut figure: Option<u32> = None;
    let mut scale = Scale::Paper;
    let mut jobs = default_jobs();
    let mut bench_json: Option<String> = None;
    let mut metrics_json: Option<String> = None;
    let mut inject: Option<FaultPlan> = None;
    let mut no_fuse = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--figure" => {
                i += 1;
                let n: u32 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                if !(15..=25).contains(&n) {
                    eprintln!("repro: --figure {n} is out of range (the paper has figures 15-25)");
                    std::process::exit(2);
                }
                figure = Some(n);
            }
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("test") => Scale::Test,
                    Some("paper") => Scale::Paper,
                    _ => usage(),
                };
            }
            "--jobs" => {
                i += 1;
                jobs = match parse_jobs(args.get(i).map(String::as_str)) {
                    Ok(n) => n,
                    Err(msg) => {
                        eprintln!("repro: {msg}");
                        std::process::exit(2);
                    }
                };
            }
            "--bench-json" => {
                i += 1;
                bench_json = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--metrics-json" => {
                i += 1;
                metrics_json = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--inject" => {
                i += 1;
                let spec = args.get(i).cloned().unwrap_or_else(|| usage());
                inject = match FaultPlan::parse(&spec) {
                    Ok(plan) => Some(plan),
                    Err(e) => {
                        eprintln!("repro: {e}");
                        std::process::exit(2);
                    }
                };
            }
            "--no-fuse" => no_fuse = true,
            _ => usage(),
        }
        i += 1;
    }

    let mut config = PipelineConfig::default();
    // A/B switch for the self-applied-PGO work: figures are byte-identical
    // either way, only wall-clock moves.
    config.vm.fuse = !no_fuse;
    let cache = RunCache::new();
    let injector = inject.map(FaultInjector::new);
    if let Some(inj) = &injector {
        println!("fault plan: {}", inj.plan().spec());
    }
    let ctx = FigureCtx::new(scale, &config, &cache, jobs).with_injector(injector.as_ref());
    let mut summary = PerfSummary {
        scale: match scale {
            Scale::Test => "test".to_string(),
            Scale::Paper => "paper".to_string(),
        },
        jobs,
        fuse: !no_fuse,
        ..PerfSummary::default()
    };
    let wanted = |n: u32| figure.is_none() || figure == Some(n);

    // Times `body` and attributes the run-cache volume delta to `label`.
    let measured = |label: &str, summary: &mut PerfSummary, body: &mut dyn FnMut()| {
        let before = cache.stats();
        let start = Instant::now();
        body();
        let wall = start.elapsed();
        let after = cache.stats();
        summary.figures.push(FigurePerf {
            figure: label.to_string(),
            wall,
            sim_loads: after.sim_loads - before.sim_loads,
            sim_accesses: after.sim_accesses - before.sim_accesses,
        });
    };

    if wanted(15) {
        measured("fig15", &mut summary, &mut || {
            println!("== Figure 15: SPECINT2000 benchmarks ==");
            println!("{}", fig15_table(scale));
        });
    }
    if wanted(16) {
        measured("fig16", &mut summary, &mut || {
            println!("== Figure 16: speedup of stride prefetching ==");
            let partial = fig16_speedups(&ctx, &ProfilingVariant::EVALUATED);
            print!("{}", render_speedups(&partial.rows));
            print!("{}", render_diagnostics(&partial.failures));
            println!();
        });
    }
    if wanted(17) {
        measured("fig17", &mut summary, &mut || {
            println!("== Figure 17: in-loop vs out-loop load references ==");
            println!("{:<14}{:>10}{:>10}", "benchmark", "in-loop", "out-loop");
            let mut avg = (0.0, 0.0);
            let partial = fig17_load_mix(&ctx);
            let n = partial.rows.len().max(1) as f64;
            for (name, inf, outf) in &partial.rows {
                println!("{name:<14}{:>9.1}%{:>9.1}%", inf * 100.0, outf * 100.0);
                avg.0 += inf;
                avg.1 += outf;
            }
            println!(
                "{:<14}{:>9.1}%{:>9.1}%",
                "average",
                avg.0 / n * 100.0,
                avg.1 / n * 100.0
            );
            print!("{}", render_diagnostics(&partial.failures));
            println!();
        });
    }
    if wanted(18) || wanted(19) {
        measured("fig18_19", &mut summary, &mut || {
            let partial = fig18_19_distributions(&ctx);
            if wanted(18) {
                println!("== Figure 18: out-loop loads by stride property ==");
                let out_rows: Vec<_> = partial.rows.iter().map(|(n, o, _)| (*n, *o)).collect();
                print!("{}", render_distribution(&out_rows));
                print!("{}", render_diagnostics(&partial.failures));
                println!();
            }
            if wanted(19) {
                println!("== Figure 19: in-loop loads by stride property ==");
                let in_rows: Vec<_> = partial.rows.iter().map(|(n, _, i)| (*n, *i)).collect();
                print!("{}", render_distribution(&in_rows));
                print!("{}", render_diagnostics(&partial.failures));
                println!();
            }
        });
    }
    if wanted(20) || wanted(21) || wanted(22) {
        measured("fig20_22", &mut summary, &mut || {
            let partial = fig20_22_overheads(&ctx, &ProfilingVariant::EVALUATED);
            if wanted(20) {
                println!("== Figure 20: profiling overhead over edge profiling alone ==");
                print!("{}", render_overheads(&partial.rows, 0));
                print!("{}", render_diagnostics(&partial.failures));
                println!();
            }
            if wanted(21) {
                println!("== Figure 21: % load references processed by strideProf ==");
                print!("{}", render_overheads(&partial.rows, 1));
                print!("{}", render_diagnostics(&partial.failures));
                println!();
            }
            if wanted(22) {
                println!("== Figure 22: % load references processed by LFU ==");
                print!("{}", render_overheads(&partial.rows, 2));
                print!("{}", render_diagnostics(&partial.failures));
                println!();
            }
        });
    }
    if wanted(23) || wanted(24) || wanted(25) {
        measured("fig23_25", &mut summary, &mut || {
            println!("== Figures 23-25: sensitivity to input data sets (sample-edge-check) ==");
            let partial = fig23_25_sensitivity(&ctx);
            print!("{}", render_sensitivity(&partial.rows));
            print!("{}", render_diagnostics(&partial.failures));
            println!();
        });
    }

    let stats = cache.stats();
    summary.run_cache_hits = stats.hits;
    summary.run_cache_misses = stats.misses;
    if let Some(path) = bench_json {
        if let Err(e) = std::fs::write(&path, summary.to_json()) {
            eprintln!("repro: cannot write --bench-json file {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("perf summary written to {path}");
    }
    if let Some(path) = metrics_json {
        let reg = metrics_registry(&summary, &stats, scale, &config);
        if let Err(e) = std::fs::write(&path, reg.snapshot_json()) {
            eprintln!("repro: cannot write --metrics-json file {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("metrics snapshot written to {path}");
    }
}

/// Builds the deterministic metrics snapshot of one repro invocation.
///
/// Every recorded quantity is logical — simulated loads and accesses,
/// run-cache hit counts, static instrumentation footprints — never
/// wall-clock or thread-dependent, so the snapshot is byte-identical at
/// any `--jobs` level for the same figure set, scale and fault plan.
fn metrics_registry(
    summary: &PerfSummary,
    cache: &stride_core::RunCacheStats,
    scale: Scale,
    config: &PipelineConfig,
) -> Registry {
    let reg = Registry::new();
    reg.add("repro.cache.hits", cache.hits);
    reg.add("repro.cache.misses", cache.misses);
    reg.add("repro.cache.sim_loads", cache.sim_loads);
    reg.add("repro.cache.sim_accesses", cache.sim_accesses);
    let loads_hist = reg.histogram("repro.figure.sim_loads");
    for (i, f) in summary.figures.iter().enumerate() {
        reg.add(&format!("repro.figure.{}.sim_loads", f.figure), f.sim_loads);
        reg.add(
            &format!("repro.figure.{}.sim_accesses", f.figure),
            f.sim_accesses,
        );
        loads_hist.observe(f.sim_loads);
        // Figures run serially; their index is the logical clock.
        reg.trace(TraceEvent {
            clock: i as u64,
            label: "repro.figure",
            a: f.sim_loads,
            b: f.sim_accesses,
        });
    }
    // Static instrumentation footprint per evaluated variant: how many
    // profiling pseudo-instructions each method plants across the
    // benchmark suite (the code-growth side of Figs. 20-22).
    for variant in ProfilingVariant::EVALUATED {
        let count: u64 = all_workloads(scale)
            .iter()
            .map(|w| {
                profiling_instr_count(
                    &instrument(&w.module, variant.method(), &config.prefetch).module,
                ) as u64
            })
            .sum();
        reg.add(&format!("repro.instr.{variant}"), count);
    }
    reg
}

fn usage() -> ! {
    eprintln!(
        "usage: repro [--figure N] [--scale test|paper] [--jobs N] [--bench-json PATH]\n\
         \x20            [--metrics-json PATH] [--inject PLAN] [--no-fuse]\n\
         \n\
         \x20 --figure N         produce only figure N (15-25); default: all\n\
         \x20 --scale test|paper workload scale (default: paper)\n\
         \x20 --jobs N           worker threads (default: available parallelism; must be >= 1)\n\
         \x20 --bench-json PATH  write a machine-readable perf summary (wall-clock,\n\
         \x20                    simulated loads/sec, run-cache hits) to PATH\n\
         \x20 --metrics-json PATH  write the deterministic metrics snapshot (logical\n\
         \x20                    counters/histograms/trace; byte-identical at any --jobs)\n\
         \x20 --inject PLAN      deterministic fault plan, e.g. 'seed=42;fuel=1000@181.mcf'\n\
         \x20                    (failed rows degrade to !! diagnostics; others complete)\n\
         \x20 --no-fuse          lower modules without superinstructions\n\
         \x20                    (A/B baseline; figure output is byte-identical)"
    );
    std::process::exit(2);
}
