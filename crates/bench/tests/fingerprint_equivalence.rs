//! `fingerprint_module` keys every run the cache shares, so it must tell
//! modules apart exactly as `==` does. `==` in turn must agree with the
//! `Debug` text, which was the fingerprint's input before it hashed the
//! structure directly: then the cache shares exactly the runs it shared
//! before, and `repro`'s run-cache hits and misses stay what they were.

use stride_bench::fingerprint_module;
use stride_core::{
    instrument, instrument_edges_only, prefetch_with_profiles, run_profiling, PipelineConfig,
    ProfilingMethod, ProfilingVariant,
};
use stride_genwork::{build, generate, GenConfig};
use stride_ir::Module;
use stride_workloads::{all_workloads, Scale};

/// The hand-built suite with its instrumented and prefetch-transformed
/// modules, then 64 generated modules.
fn corpus() -> Vec<(String, Module)> {
    let config = PipelineConfig::default();
    let mut out = Vec::new();
    for w in all_workloads(Scale::Test) {
        for method in ProfilingMethod::ALL {
            let inst = instrument(&w.module, method, &config.prefetch);
            out.push((format!("{} {method}", w.name), inst.module));
        }
        out.push((
            format!("{} edges-only", w.name),
            instrument_edges_only(&w.module),
        ));
        for variant in [ProfilingVariant::EdgeCheck, ProfilingVariant::NaiveAll] {
            let o = run_profiling(&w.module, &w.train_args, variant, &config)
                .unwrap_or_else(|e| panic!("{} {variant}: {e}", w.name));
            let (transformed, _, _) =
                prefetch_with_profiles(&w.module, &o.edge, o.source, &o.stride, &config);
            out.push((format!("{} prefetched by {variant}", w.name), transformed));
        }
        out.push((w.name.to_string(), w.module));
    }
    let gen = GenConfig::campaign();
    for i in 0..64 {
        let spec = generate(42, i, &gen);
        out.push((spec.name(), build(&spec).module));
    }
    out
}

#[test]
fn fingerprints_are_equal_exactly_when_modules_are() {
    let modules = corpus();
    let fingerprints: Vec<u64> = modules.iter().map(|(_, m)| fingerprint_module(m)).collect();
    let debug: Vec<String> = modules.iter().map(|(_, m)| format!("{m:?}")).collect();
    let mut equal_pairs = 0;
    for i in 0..modules.len() {
        for j in i + 1..modules.len() {
            let equal = modules[i].1 == modules[j].1;
            let names = (&modules[i].0, &modules[j].0);
            assert_eq!(
                fingerprints[i] == fingerprints[j],
                equal,
                "fingerprint disagrees with == on {names:?}"
            );
            assert_eq!(
                debug[i] == debug[j],
                equal,
                "Debug text disagrees with == on {names:?}"
            );
            equal_pairs += usize::from(equal);
        }
    }
    // A transform that selects no prefetches returns its input, so the
    // corpus holds equal pairs and the test checks both directions.
    assert!(
        equal_pairs > 0,
        "no equal pair among {} modules",
        modules.len()
    );
}
