//! The benchmark of the stride-prefetch reproduction: end-to-end metrics
//! from untraced runs of the shipped binaries, per-layer metrics from a
//! separate traced re-enactment of the same work. See `README.md`.
//!
//! ```text
//! stride-benchmark --bin-dir DIR [--workload NAME] [--seed N] [--seconds S]
//!                  [--trace 0|1] [--out DIR]
//! ```
//!
//! Run from the repository root (`run.sh` builds the binaries and does).
//! With `--workload`, one run of that workload; without, every workload
//! untraced and traced. Every metric is printed as `workload metric value
//! unit`; the last line is a JSON summary, `DIR/result.json` the full
//! record. Exit status 0 means every correctness check passed.

mod figures;
mod json;
mod pipeline;
mod proc;
mod serve;
mod stats;
mod trace;

use proc::TempDir;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use trace::Recorder;

/// Workload names, in run order.
const WORKLOADS: [&str; 3] = ["figures", "serve-read", "cluster-write"];

/// Metrics of an untraced run, the same for every workload. An operation
/// is one full regeneration of the figures, or one request.
const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Metrics of a traced run. A workload reports 0 for a layer it never
/// calls (the figures never touch the service; the service workloads
/// never prefetch).
const PER_LAYER: [(&str, &str); 29] = [
    ("vm.self_s", "s"),
    ("vm.instructions", "count"),
    ("vm.ns_per_instr", "ns"),
    ("vm.fastpath_ratio", "ratio"),
    ("memsim.self_s", "s"),
    ("memsim.calls", "count"),
    ("profiling.self_s", "s"),
    ("profiling.calls", "count"),
    ("instrument.s", "s"),
    ("classify.s", "s"),
    ("prefetch.s", "s"),
    ("runcache.fingerprint_s", "s"),
    ("runcache.hit_ratio", "ratio"),
    ("exec.utilization", "ratio"),
    ("proto.codec_us", "us"),
    ("server.transport_us", "us"),
    ("service.handle_us.get-profile", "us"),
    ("service.handle_us.classify", "us"),
    ("service.handle_us.merge-profile", "us"),
    ("profdb.module_hash_us", "us"),
    ("profdb.load_us", "us"),
    ("runcache.lookup_us", "us"),
    ("classify.us", "us"),
    ("profdb.merge_logged_us", "us"),
    ("router.handle_us.merge-profile", "us"),
    ("router.handle_us.get-profile", "us"),
    ("router.fanout_us", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Everything a workload run needs to know.
pub struct Ctx {
    /// Seed of the generated inputs.
    pub seed: u64,
    /// How long the untraced measurement lasts.
    pub seconds: f64,
    /// Repository root (the working directory).
    root: PathBuf,
    /// Where the release binaries are.
    bin_dir: PathBuf,
    /// Where results and spans go.
    pub out: PathBuf,
    /// Scratch space, removed at exit.
    pub tmp: PathBuf,
}

impl Ctx {
    /// Path of a built binary.
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }

    /// The committed figure output `repro` must reproduce.
    pub fn golden(&self) -> Result<Vec<u8>, String> {
        let path = self.root.join("repro_output.txt");
        std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value, with all its digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// One correctness verdict.
#[derive(Clone, Debug)]
pub struct Check {
    name: String,
    ok: bool,
    detail: String,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric of the run.
    pub metrics: Vec<Metric>,
    /// Correctness verdicts.
    pub checks: Vec<Check>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Outcome {
    /// Records a verdict; `detail` is kept only when it failed.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: if ok { String::new() } else { detail },
        });
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

/// End-to-end values, in [`END_TO_END`] order.
pub type EndToEnd = [f64; END_TO_END.len()];

/// Names and units `values`.
pub fn end_to_end(values: EndToEnd) -> Vec<Metric> {
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, value, unit))
        .collect()
}

/// The end-to-end metrics of a run of cycles (each a full regeneration
/// of the figures): each the median over the cycles, so a short slow
/// spell of the host moves one cycle, not the result.
pub fn cycle_medians(cycles: &[EndToEnd]) -> Vec<Metric> {
    end_to_end(std::array::from_fn(|i| {
        let column: Vec<f64> = cycles.iter().map(|c| c[i]).collect();
        stats::median(&column).unwrap_or(0.0)
    }))
}

/// Mean self time of `layer`'s spans, in microseconds (0 if none ran).
pub fn mean_us(rec: &Recorder, layer: &str) -> f64 {
    let t = rec.layer(layer);
    if t.spans == 0 {
        0.0
    } else {
        t.self_ns / t.spans as f64 / 1e3
    }
}

/// The per-layer metrics any traced run reads off its recorder.
pub fn ledger_metrics(rec: &Recorder) -> Vec<Metric> {
    let s = |layer: &str| rec.layer(layer).self_ns / 1e9;
    let vm_attr = |key: &str| -> u64 {
        rec.spans_named("vm")
            .flat_map(|s| s.attrs.iter())
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .sum()
    };
    let instructions = vm_attr("instructions");
    let mut out = vec![
        Metric::new("vm.self_s", s("vm"), "s"),
        Metric::new("vm.instructions", instructions as f64, "count"),
        Metric::new(
            "vm.ns_per_instr",
            s("vm") * 1e9 / instructions.max(1) as f64,
            "ns",
        ),
        Metric::new(
            "vm.fastpath_ratio",
            vm_attr("fastpath_hits") as f64 / vm_attr("accesses").max(1) as f64,
            "ratio",
        ),
        Metric::new("memsim.self_s", s("memsim"), "s"),
        Metric::new("memsim.calls", rec.layer("memsim").calls as f64, "count"),
        Metric::new("profiling.self_s", s("profiling"), "s"),
        Metric::new(
            "profiling.calls",
            rec.layer("profiling").calls as f64,
            "count",
        ),
        Metric::new("instrument.s", s("instrument"), "s"),
        Metric::new("classify.s", s("classify"), "s"),
        Metric::new("prefetch.s", s("prefetch"), "s"),
        Metric::new("runcache.fingerprint_s", s("runcache.fingerprint"), "s"),
    ];
    for (metric, layer) in [
        (
            "service.handle_us.get-profile",
            "service.handle.get-profile",
        ),
        ("service.handle_us.classify", "service.handle.classify"),
        (
            "service.handle_us.merge-profile",
            "service.handle.merge-profile",
        ),
        ("profdb.module_hash_us", "profdb.module_hash"),
        ("profdb.load_us", "profdb.load"),
        ("runcache.lookup_us", "runcache.lookup"),
        ("classify.us", "classify"),
        ("profdb.merge_logged_us", "profdb.merge_logged"),
        (
            "router.handle_us.merge-profile",
            "router.handle.merge-profile",
        ),
        ("router.handle_us.get-profile", "router.handle.get-profile"),
    ] {
        out.push(Metric::new(metric, mean_us(rec, layer), "us"));
    }
    out
}

/// Orders `metrics` as `spec` lists them, filling 0 for a listed metric
/// the run did not produce. Fails on an unlisted metric.
fn conform(metrics: Vec<Metric>, spec: &[(&str, &'static str)]) -> Result<Vec<Metric>, String> {
    if let Some(m) = metrics
        .iter()
        .find(|m| !spec.iter().any(|(n, _)| *n == m.name))
    {
        return Err(format!("metric `{}` is not declared", m.name));
    }
    Ok(spec
        .iter()
        .map(|&(name, unit)| {
            let value = metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            Metric::new(name, value, unit)
        })
        .collect())
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: PathBuf,
    bin_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: None,
        out: PathBuf::from("benchmark/out"),
        bin_dir: PathBuf::from("target/release"),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => {
                args.workload = Some(value.clone())
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or(format!("bad --seconds `{value}`"))?
            }
            "--trace" if value == "0" || value == "1" => args.trace = Some(value == "1"),
            "--out" => args.out = PathBuf::from(value),
            "--bin-dir" => args.bin_dir = PathBuf::from(value),
            _ => return Err(format!("bad argument `{flag} {value}`")),
        }
    }
    Ok(args)
}

fn run_one(ctx: &Ctx, workload: &str, traced: bool) -> Result<Outcome, String> {
    let out = match (workload, traced) {
        ("figures", false) => figures::run(ctx)?,
        ("figures", true) => figures::run_traced(ctx)?,
        ("serve-read", false) => serve::run(ctx, serve::Kind::Read)?,
        ("serve-read", true) => serve::run_traced(ctx, serve::Kind::Read)?,
        ("cluster-write", false) => serve::run(ctx, serve::Kind::Write)?,
        ("cluster-write", true) => serve::run_traced(ctx, serve::Kind::Write)?,
        _ => return Err(format!("unknown workload `{workload}`")),
    };
    let spec: &[(&str, &'static str)] = if traced { &PER_LAYER } else { &END_TO_END };
    Ok(Outcome {
        metrics: conform(out.metrics, spec)?,
        ..out
    })
}

/// The host a result was measured on.
fn host_json() -> String {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, m)| m.trim().to_string());
    let output = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .env("GIT_OPTIONAL_LOCKS", "0")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let opt = |v: Option<String>| v.map_or("null".to_string(), |s| json::string(&s));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = output("git", &["rev-parse", "HEAD"]);
    let dirty = commit
        .as_ref()
        .and(output(
            "git",
            &["status", "--porcelain", "--untracked-files=no"],
        ))
        .map(|s| (!s.is_empty()).to_string());
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": {}, \"rustc\": {}, \"kernel\": {}, \"git_commit\": {}, \"git_dirty\": {}}}",
        opt(cpu),
        opt(output("rustc", &["--version"])),
        opt(Some(read("/proc/sys/kernel/osrelease").trim().to_string())),
        opt(commit),
        dirty.unwrap_or_else(|| "null".to_string()),
    )
}

struct Record {
    workload: &'static str,
    traced: bool,
    result: Result<Outcome, String>,
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(&m.name),
                json::number(m.value),
                json::string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn result_json(args: &Args, records: &[Record]) -> String {
    let mut out = format!(
        "{{\n  \"command\": [{}],\n  \"seed\": {},\n  \"seconds\": {},\n  \"host\": {},\n  \"runs\": [",
        std::env::args()
            .map(|a| json::string(&a))
            .collect::<Vec<_>>()
            .join(", "),
        args.seed,
        json::number(args.seconds),
        host_json()
    );
    for (i, r) in records.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\"workload\": {}, \"trace\": {}, ",
            json::string(r.workload),
            u8::from(r.traced)
        );
        match &r.result {
            Ok(o) => {
                let checks: Vec<String> = o
                    .checks
                    .iter()
                    .map(|c| {
                        format!(
                            "{{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                            json::string(&c.name),
                            c.ok,
                            json::string(&c.detail)
                        )
                    })
                    .collect();
                let _ = write!(
                    out,
                    "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"checks\": [{}], \"metrics\": {}}}",
                    o.correct(),
                    o.attempted,
                    o.failed,
                    checks.join(", "),
                    metrics_json(&o.metrics)
                );
            }
            Err(e) => {
                let _ = write!(out, "\"correct\": false, \"error\": {}}}", json::string(e));
            }
        }
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stride-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    let missing: Vec<PathBuf> = [root.join("repro_output.txt")]
        .into_iter()
        .chain(["repro", "strided", "strided-router"].map(|b| args.bin_dir.join(b)))
        .filter(|p| !p.is_file())
        .collect();
    if !missing.is_empty() {
        eprintln!(
            "stride-benchmark: run from the repository root after building; missing {missing:?}"
        );
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("stride-benchmark: {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let tmp = match TempDir::new(&args.out, &format!("tmp-{}", std::process::id())) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("stride-benchmark: scratch directory: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        root,
        bin_dir: args.bin_dir.clone(),
        out: args.out.clone(),
        tmp: tmp.path().to_path_buf(),
    };

    let workloads: Vec<&'static str> = WORKLOADS
        .into_iter()
        .filter(|w| args.workload.as_deref().is_none_or(|a| a == *w))
        .collect();
    let traces: Vec<bool> = match args.trace {
        Some(t) => vec![t],
        None if args.workload.is_some() => vec![false],
        None => vec![false, true],
    };
    let mut records = Vec::new();
    for &workload in &workloads {
        for &traced in &traces {
            let result = run_one(&ctx, workload, traced);
            match &result {
                Ok(o) => {
                    for m in &o.metrics {
                        println!("{workload} {} {} {}", m.name, m.value, m.unit);
                    }
                    for c in o.checks.iter().filter(|c| !c.ok) {
                        eprintln!(
                            "stride-benchmark: {workload}: FAILED {}: {}",
                            c.name, c.detail
                        );
                    }
                }
                Err(e) => eprintln!("stride-benchmark: {workload}: {e}"),
            }
            records.push(Record {
                workload,
                traced,
                result,
            });
        }
    }
    drop(tmp);
    if let Err(e) = std::fs::write(args.out.join("result.json"), result_json(&args, &records)) {
        eprintln!("stride-benchmark: result.json: {e}");
    }

    let all_correct = records
        .iter()
        .all(|r| r.result.as_ref().is_ok_and(Outcome::correct));
    let measured: Vec<&Record> = records.iter().filter(|r| r.result.is_ok()).collect();
    if measured.len() < records.len() && args.workload.is_some() {
        return ExitCode::FAILURE;
    }
    let single = records.len() == 1;
    let mut metrics = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for r in &measured {
        let Ok(o) = &r.result else { continue };
        attempted += o.attempted;
        failed += o.failed;
        for m in &o.metrics {
            let name = if single {
                m.name.clone()
            } else {
                format!("{}:{}", r.workload, m.name)
            };
            metrics.push(Metric { name, ..m.clone() });
        }
    }
    println!(
        "{{\"correct\": {all_correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(&metrics)
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists and workloads above are the ones `BENCHMARK.json`
    /// declares, in the same order.
    #[test]
    fn benchmark_json_declares_these_metrics() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names = |section: &str| -> Vec<String> {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section end")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("quoted")].to_string())
                .collect()
        };
        let declared = |spec: &[(&str, &str)]| -> Vec<String> {
            spec.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(String::from));
        assert_eq!(names("end_to_end"), declared(&END_TO_END));
        assert_eq!(names("per_layer"), declared(&PER_LAYER));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} must be declared with unit {unit}"
            );
        }
    }

    #[test]
    fn conform_orders_fills_and_rejects() {
        let spec = [("a", "s"), ("b", "ms")];
        let out = conform(vec![Metric::new("b", 2.0, "ms")], &spec).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].name.as_str(), out[0].value), ("a", 0.0));
        assert_eq!((out[1].name.as_str(), out[1].value), ("b", 2.0));
        assert!(conform(vec![Metric::new("c", 1.0, "s")], &spec).is_err());
    }

    #[test]
    fn a_failed_check_makes_the_outcome_incorrect() {
        let mut o = Outcome::default();
        o.check("fine", true, "ignored".into());
        assert!(o.correct());
        assert!(o.checks[0].detail.is_empty());
        o.check("broken", false, "why".into());
        assert!(!o.correct());
    }
}
