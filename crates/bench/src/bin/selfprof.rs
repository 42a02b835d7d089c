//! Self-applied profiling driver: runs the SPEC workload suite under the
//! interpreter's own dispatch profiler and prints the opcode, digram and
//! hot-load-site ranking that motivates the dispatch ordering, the
//! superinstructions the VM forms when it lowers a module, and the load
//! fast path.
//!
//! ```text
//! selfprof [--scale test|paper] [--fused]
//! ```
//!
//! By default the suite runs with fusion *disabled* — the profile of the
//! unoptimized dispatch loop is the input to the PGO decisions. `--fused`
//! profiles the optimized dispatch instead, showing how the dominant
//! digrams collapse into superinstructions.
//!
//! Requires the `vm-selfprof` feature:
//!
//! ```text
//! cargo run --release -p stride-bench --features vm-selfprof --bin selfprof
//! ```

#[cfg(feature = "vm-selfprof")]
fn main() {
    use stride_memsim::{CacheHierarchy, HierarchyConfig};
    use stride_vm::selfprof::SelfProfile;
    use stride_vm::{NullRuntime, Vm, VmConfig};
    use stride_workloads::{all_workloads, Scale};

    let args: Vec<String> = std::env::args().collect();
    let mut scale = Scale::Test;
    let mut fused = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("test") => Scale::Test,
                    Some("paper") => Scale::Paper,
                    _ => usage(),
                };
            }
            "--fused" => fused = true,
            _ => usage(),
        }
        i += 1;
    }

    let config = VmConfig {
        fuse: fused,
        ..VmConfig::default()
    };
    let mut total = SelfProfile::new();
    let mut probe_cycles = 0u64;
    println!(
        "self-applied profile: {} dispatch, scale {}",
        if fused { "fused" } else { "unfused" },
        match scale {
            Scale::Test => "test",
            Scale::Paper => "paper",
        }
    );
    println!();
    for w in all_workloads(scale) {
        let mut vm = Vm::new(&w.module, config);
        let mut hierarchy = CacheHierarchy::new(HierarchyConfig::default());
        let run = match vm.run(&w.train_args, &mut hierarchy, &mut NullRuntime) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("selfprof: {} failed: {e}", w.name);
                std::process::exit(1);
            }
        };
        probe_cycles += run.selfprof_overhead_cycles;

        // Hot load sites of this workload (inputs to the fast-path work).
        let mut sites: Vec<(usize, usize, u64)> = Vec::new();
        for (fi, per_site) in run.load_site_counts.iter().enumerate() {
            for (si, &count) in per_site.iter().enumerate() {
                if count > 0 {
                    sites.push((fi, si, count));
                }
            }
        }
        sites.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| (a.0, a.1).cmp(&(b.0, b.1))));
        println!("{}: {} dispatch events", w.name, vm.selfprof.events());
        for &(fi, si, count) in sites.iter().take(3) {
            println!(
                "  hot load site {}@i{}: {} executions",
                w.module.functions[fi].name, si, count
            );
        }
        total.merge(&vm.selfprof);
    }

    println!();
    println!("== suite-wide dispatch profile ==");
    print!("{}", total.report(10));
    println!("probe overhead: {probe_cycles} meta-cycles");
}

#[cfg(feature = "vm-selfprof")]
fn usage() -> ! {
    eprintln!("usage: selfprof [--scale test|paper] [--fused]");
    std::process::exit(2);
}

#[cfg(not(feature = "vm-selfprof"))]
fn main() {
    eprintln!(
        "selfprof: the dispatch profiler is compiled out by default.\n\
         Rebuild with: cargo run --release -p stride-bench --features vm-selfprof --bin selfprof"
    );
    std::process::exit(2);
}
