//! Parallel runs must be byte-identical to serial runs: the figure output
//! is a reproduction artifact, so `--jobs` may only change wall-clock,
//! never a single byte of what is printed.

use std::process::Command;

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
fn full_figure_output_is_identical_at_jobs_1_and_8() {
    let serial = repro_stdout(&["--scale", "test", "--jobs", "1"]);
    let parallel = repro_stdout(&["--scale", "test", "--jobs", "8"]);
    assert!(!serial.is_empty(), "repro printed nothing");
    assert_eq!(
        serial, parallel,
        "figure output must not depend on the worker count"
    );
}

#[test]
fn single_figure_output_is_identical_across_jobs() {
    // Figure 16 exercises the widest fan-out (12 workloads x variants).
    let serial = repro_stdout(&["--scale", "test", "--figure", "16", "--jobs", "1"]);
    for jobs in ["2", "5", "8"] {
        let parallel = repro_stdout(&["--scale", "test", "--figure", "16", "--jobs", jobs]);
        assert_eq!(serial, parallel, "figure 16 differs at --jobs {jobs}");
    }
}

/// The committed `faultsim_output.txt` is an earlier seed-42 run, so
/// matching it byte for byte at `--jobs 1` and `--jobs 4` checks both
/// jobs-invariance and rerun reproducibility with two runs of the
/// paper-scale campaign.
#[test]
fn fault_campaign_report_is_identical_across_jobs_and_reruns() {
    let golden = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../faultsim_output.txt"
    ))
    .expect("read faultsim_output.txt");
    let report = String::from_utf8_lossy(&golden);
    assert!(
        report.contains("0 panic(s), 0 invariant violation(s)"),
        "the golden campaign must complete without panics or violations:\n{report}"
    );
    for jobs in ["1", "4"] {
        let out = Command::new(env!("CARGO_BIN_EXE_faultsim"))
            .args(["--seed", "42", "--jobs", jobs])
            .output()
            .expect("run faultsim");
        assert!(
            out.status.success(),
            "faultsim --jobs {jobs} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            out.stdout == golden,
            "campaign report at --jobs {jobs} differs from faultsim_output.txt"
        );
    }
}

#[test]
fn injected_failure_yields_partial_results_identically_across_jobs() {
    // Force one workload to die mid-run; every other figure row must
    // still be emitted, plus a structured `!!` diagnostic for the
    // casualty — and the whole partial report must not depend on the
    // worker count.
    let inject = "seed=3;fuel=100@181.mcf";
    let serial = repro_stdout(&[
        "--scale", "test", "--figure", "16", "--inject", inject, "--jobs", "1",
    ]);
    let text = String::from_utf8_lossy(&serial).into_owned();
    assert!(
        text.contains("!! 181.mcf"),
        "missing structured diagnostic for the injected failure:\n{text}"
    );
    assert!(
        text.contains("budget exhausted"),
        "diagnostic should carry the VM error detail:\n{text}"
    );
    assert!(
        text.contains("197.parser") && text.contains("254.gap"),
        "sibling workloads must still produce rows:\n{text}"
    );
    assert!(
        !text.lines().any(|l| l.contains("181.mcf")
            && !l.starts_with("!!")
            && !l.starts_with("fault plan:")),
        "the failed workload must not contribute a data row:\n{text}"
    );
    for jobs in ["4", "8"] {
        let parallel = repro_stdout(&[
            "--scale", "test", "--figure", "16", "--inject", inject, "--jobs", jobs,
        ]);
        assert_eq!(parallel, serial, "partial report differs at --jobs {jobs}");
    }
}

#[test]
fn metrics_snapshot_is_identical_across_jobs() {
    // The observability snapshot is denominated purely in logical units
    // (simulated loads, cache hit counts, static instruction counts), so
    // like the figures it must not depend on the worker count.
    let dir =
        std::env::temp_dir().join(format!("repro-metrics-determinism-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let mut snapshots = Vec::new();
    for jobs in ["1", "4", "8"] {
        let path = dir.join(format!("metrics-j{jobs}.json"));
        let path_str = path.to_str().expect("utf-8 temp path");
        let stdout = repro_stdout(&[
            "--scale",
            "test",
            "--jobs",
            jobs,
            "--metrics-json",
            path_str,
        ]);
        assert!(!stdout.is_empty(), "repro printed nothing at --jobs {jobs}");
        let snap = std::fs::read(&path).expect("metrics snapshot written");
        assert!(!snap.is_empty(), "empty metrics snapshot at --jobs {jobs}");
        snapshots.push((jobs, snap));
    }
    let (_, reference) = &snapshots[0];
    let text = String::from_utf8_lossy(reference).into_owned();
    for key in [
        "repro.cache.hits",
        "repro.cache.misses",
        "repro.figure.fig16.sim_loads",
        "repro.instr.edge-check",
        "repro.figure.sim_loads",
    ] {
        assert!(text.contains(key), "snapshot missing {key}:\n{text}");
    }
    for (jobs, snap) in &snapshots[1..] {
        assert_eq!(snap, reference, "metrics snapshot differs at --jobs {jobs}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn jobs_zero_is_rejected_with_a_clear_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "test", "--jobs", "0"])
        .output()
        .expect("run repro");
    assert!(!out.status.success(), "--jobs 0 must be rejected");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--jobs 0 is invalid"),
        "stderr should explain the rejection, got: {err}"
    );
}
