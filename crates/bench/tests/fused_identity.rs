//! Byte-identity contract of the self-applied-PGO work: superinstruction
//! fusion (an option of the VM's lowering) and the load fast path are
//! interpreter-only optimizations, so the fused and unfused lowerings,
//! run through the one interpreter, must agree on every logical output —
//! cycles, instruction counts, memory events, per-site load counts,
//! figures — on every workload. Only wall-clock and the `vm.*`
//! meta-counters may differ.

use std::process::Command;

use stride_memsim::{CacheHierarchy, HierarchyConfig};
use stride_vm::{NullRuntime, RunResult, Vm, VmConfig};
use stride_workloads::{all_workloads, Scale};

fn run_workload(module: &stride_ir::Module, args: &[i64], fuse: bool) -> (RunResult, String) {
    let config = VmConfig {
        fuse,
        ..VmConfig::default()
    };
    let mut vm = Vm::new(module, config);
    let mut hierarchy = CacheHierarchy::new(HierarchyConfig::default());
    let run = vm
        .run(args, &mut hierarchy, &mut NullRuntime)
        .expect("workload run");
    (run, format!("{:?}", hierarchy.stats()))
}

#[test]
fn every_workload_is_byte_identical_fused_vs_unfused() {
    for w in all_workloads(Scale::Test) {
        let (fused, fused_mem) = run_workload(&w.module, &w.train_args, true);
        let (plain, plain_mem) = run_workload(&w.module, &w.train_args, false);
        assert!(
            fused.fused_dispatch > 0,
            "{}: fusion found nothing to fuse — the contract test would be vacuous",
            w.name
        );
        assert_eq!(plain.fused_dispatch, 0, "{}", w.name);
        assert_eq!(fused.return_value, plain.return_value, "{}", w.name);
        assert_eq!(fused.cycles, plain.cycles, "{}", w.name);
        assert_eq!(fused.instructions, plain.instructions, "{}", w.name);
        assert_eq!(fused.loads, plain.loads, "{}", w.name);
        assert_eq!(fused.stores, plain.stores, "{}", w.name);
        assert_eq!(fused.prefetches, plain.prefetches, "{}", w.name);
        assert_eq!(fused.mem_stall_cycles, plain.mem_stall_cycles, "{}", w.name);
        assert_eq!(fused.profiling_cycles, plain.profiling_cycles, "{}", w.name);
        assert_eq!(
            fused.load_site_counts, plain.load_site_counts,
            "{}: per-site load attribution must survive fusion",
            w.name
        );
        assert_eq!(
            fused_mem, plain_mem,
            "{}: full cache-hierarchy state must match",
            w.name
        );
    }
}

fn repro_stdout(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro");
    assert!(
        out.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn figure_output_is_identical_with_and_without_fusion() {
    let fused = repro_stdout(&["--scale", "test"]);
    let plain = repro_stdout(&["--scale", "test", "--no-fuse"]);
    assert!(!fused.is_empty(), "repro printed nothing");
    assert_eq!(
        fused, plain,
        "--no-fuse may only change wall-clock, never a figure byte"
    );
}
