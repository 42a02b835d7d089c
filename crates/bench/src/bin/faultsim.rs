//! Seeded fault-injection campaigns against the reproduction pipeline
//! and the profile service.
//!
//! ```text
//! faultsim [--jobs N] [--seed N] [--plan SPEC]
//! faultsim --service [--jobs N] [--seed N]
//! faultsim --cluster [--jobs N] [--seed N]
//! ```
//!
//! Every campaign runs its scenarios panic-isolated on `--jobs` workers
//! and prints one line per scenario plus a summary; the report is
//! byte-identical at every `--jobs` level and for every rerun of the
//! same seed. Exit status: 0 when every scenario held its invariants (or
//! degraded to a structured diagnostic); 1 when any scenario panicked or
//! violated an invariant; 2 when the campaign could not start.
//!
//! The default campaign (the built-in 14 fault plans at paper scale, or
//! one `--plan` spec) checks the degradation invariant: under injected
//! profile loss the classifier may only move loads *out of*
//! SSST/PMST/WSST toward no-prefetch, so the faulted prefetch set must
//! be a subset of the clean one. A scenario whose clean run prefetches
//! nothing counts as a violation, since its subset check cannot fail.
//!
//! `--service` is the crash-recovery campaign: each scenario boots a
//! real `strided` on its own database directory, streams merges at it,
//! SIGKILLs it mid-merge at a seeded point, restarts it, and requires
//! that no acknowledged merge is lost and that, once the interrupted
//! merges are resent, the database is byte-identical to an
//! uninterrupted run. Two scenarios also corrupt the killed daemon's
//! response frames, exercising the client's retry and id dedup.
//!
//! `--cluster` is the sharded chaos campaign: each scenario boots a real
//! `strided-router` over 3 shards × 2 replicas and drives seeded merge
//! traffic through it. Each scenario is one row of data: which victim
//! dies and when, whether delta batches are dropped, duplicated and
//! reordered straight at the replicas ("weather"), whether deltas are
//! injected behind the router's back, how a restarted victim rejoins
//! (operator `route-update` or self-`--announce`), how many writers
//! run, and which typed refusal the victim's key range must answer.
//! Every replica store must end byte-identical to an uninterrupted
//! reference applying the acknowledged deltas once, so no acked merge
//! can be lost and no duplicate can double-count; merges carry
//! power-of-two edge-counter scaling, so any lost or double-applied
//! delta leaves a unique byte difference.

use stride_bench::{default_jobs, parallel_map_isolated, parse_jobs, RunCache};
use stride_core::{
    degradation_violations, run_profiling, splitmix64_mix, FaultInjector, FaultPlan, FaultRng,
    PipelineConfig, ProfilingVariant, Snapshot, SPLITMIX64_GAMMA,
};
use stride_ir::{module_to_string, Module};
use stride_profdb::{
    encode_delta_batch, module_hash, DeltaRecord, ProfileDb, ProfileEntry, ShardMap,
};
use stride_server::{
    split_sections, Client, ErrorKind, IdStream, Origin, Request, Response, RetryPolicy,
};
use stride_workloads::{workload_by_name, Scale, Workload};

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The built-in campaign: every fault kind at least once, single and
/// compound, spread over the three headline benchmarks.
const CAMPAIGN: &[(&str, &str)] = &[
    ("truncate=0", "mcf"),
    ("truncate=1", "gap"),
    ("truncate=2", "parser"),
    ("drop-sites=1", "mcf"),
    ("drop-sites=2", "gap"),
    ("corrupt=1", "parser"),
    ("drop-updates=90", "mcf"),
    ("clamp-freq=64", "gap"),
    ("clamp-stride=10", "parser"),
    ("fuel=20000", "mcf"),
    ("addr-limit=4096", "gap"),
    ("malformed-ir", "parser"),
    ("stale-profile", "mcf"),
    ("truncate=1;drop-updates=50;clamp-freq=1000", "gap"),
];

/// One scenario's report line and how it counts in the summary.
struct Verdict {
    line: String,
    violations: usize,
    degraded: bool,
}

impl Verdict {
    fn ok(line: String) -> Verdict {
        Verdict {
            line,
            violations: 0,
            degraded: false,
        }
    }

    fn degraded(line: String) -> Verdict {
        Verdict {
            degraded: true,
            ..Verdict::ok(line)
        }
    }
}

/// Runs every scenario panic-isolated on `jobs` workers and prints the
/// report: `== header ==`, one `label line` row per scenario in input
/// order (an `Err` is a `FAILED` invariant violation), and the summary,
/// which counts scenarios that degraded to diagnostics when the campaign
/// `degrades`. Returns the exit code.
fn run_campaign<S: Sync>(
    header: &str,
    degrades: bool,
    scenarios: &[S],
    jobs: usize,
    label: impl Fn(&S) -> String,
    run: impl Fn(&S) -> Result<Verdict, String> + Sync,
) -> i32 {
    println!("== {header} ==");
    let results = parallel_map_isolated(scenarios, jobs, |_, sc| run(sc));
    let (mut degraded, mut panics, mut violations) = (0usize, 0usize, 0usize);
    for (sc, result) in scenarios.iter().zip(results) {
        let line = match result {
            Ok(Ok(verdict)) => {
                degraded += usize::from(verdict.degraded);
                violations += verdict.violations;
                verdict.line
            }
            Ok(Err(msg)) => {
                violations += 1;
                format!("FAILED: {msg}")
            }
            Err(tf) => {
                panics += 1;
                format!("PANIC: {}", tf.message)
            }
        };
        println!("  {} {line}", label(sc));
    }
    let degraded = if degrades {
        format!("{degraded} degraded to diagnostics, ")
    } else {
        String::new()
    };
    println!(
        "campaign: {} scenario(s), {degraded}{panics} panic(s), {violations} invariant violation(s)",
        scenarios.len()
    );
    i32::from(panics > 0 || violations > 0)
}

/// One pipeline scenario: the clean and the faulted run of `workload`,
/// held to the degradation invariant.
fn pipeline_scenario(
    cache: &RunCache,
    workload: &Workload,
    config: &PipelineConfig,
    seed: u64,
    spec: &str,
) -> Verdict {
    let plan = match FaultPlan::parse(&format!("seed={seed};{spec}")) {
        Ok(plan) => plan,
        Err(e) => return Verdict::degraded(format!("unusable: {e}")),
    };
    let injector = FaultInjector::new(plan);
    let variant = ProfilingVariant::EdgeCheck;
    let clean = match cache.speedup(
        &workload.module,
        &workload.train_args,
        &workload.ref_args,
        variant,
        config,
    ) {
        Ok(clean) => clean,
        Err(e) => return Verdict::degraded(format!("unusable: clean pipeline failed: {e}")),
    };
    match cache.speedup_faulted(
        &workload.module,
        workload.name,
        &workload.train_args,
        &workload.ref_args,
        variant,
        config,
        &injector,
    ) {
        Ok(faulted) => {
            let mut violations =
                degradation_violations(&clean.classification, &faulted.classification);
            if clean.classification.loads.is_empty() {
                violations.push("clean run prefetches nothing, so no fault can fail".to_string());
            }
            let verdict = if violations.is_empty() {
                "invariant held".to_string()
            } else {
                format!("INVARIANT VIOLATED: {}", violations.join("; "))
            };
            Verdict {
                line: format!(
                    "ok: prefetch sites {} -> {}, speedup {:.3} -> {:.3}, {}",
                    clean.classification.loads.len(),
                    faulted.classification.loads.len(),
                    clean.speedup,
                    faulted.speedup,
                    verdict
                ),
                violations: violations.len(),
                degraded: false,
            }
        }
        // The pipeline degraded to a structured error: no prefetch set at
        // all, so the invariant holds trivially. Indent multi-line
        // diagnostics (the malformed-ir renderer shows the offending
        // source line with a caret).
        Err(e) => Verdict::degraded(format!(
            "degraded: {}",
            e.to_string().replace('\n', "\n        ")
        )),
    }
}

/// The default campaign, at paper scale: there every scenario's clean
/// run prefetches at least one site, so every subset check can fail.
fn pipeline_main(jobs: usize, seed: u64, single_plan: Option<String>) -> i32 {
    let config = PipelineConfig::default();
    let cache = RunCache::new();
    let scenarios: Vec<(String, &str)> = match single_plan {
        Some(spec) => vec![(spec, "mcf")],
        None => CAMPAIGN
            .iter()
            .map(|&(spec, w)| (spec.to_string(), w))
            .collect(),
    };
    let n = scenarios.len();
    run_campaign(
        &format!("fault campaign: seed {seed}, {n} scenario(s), scale paper"),
        true,
        &scenarios,
        jobs,
        |(spec, w)| format!("{:<46}", format!("{spec}@{w}")),
        |(spec, wname)| {
            let workload = workload_by_name(wname, Scale::Paper)
                .unwrap_or_else(|| panic!("unknown campaign workload {wname}"));
            Ok(pipeline_scenario(&cache, &workload, &config, seed, spec))
        },
    )
}

/// splitmix64 step: the campaigns' seed mixer.
fn mix64(x: u64) -> u64 {
    splitmix64_mix(x.wrapping_add(SPLITMIX64_GAMMA))
}

/// Seeded Fisher-Yates shuffle for the chaos schedules.
fn shuffle<T>(rng: &mut FaultRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// Locates a workspace binary: `$NAME_BIN` (`STRIDED_BIN`,
/// `STRIDED_ROUTER_BIN`), else the file of that name beside this
/// executable, where cargo puts every workspace binary.
fn sibling_bin(name: &str) -> Result<PathBuf, String> {
    let var = format!("{}_BIN", name.to_uppercase().replace('-', "_"));
    if let Ok(p) = std::env::var(&var) {
        return Ok(PathBuf::from(p));
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let cand = exe.with_file_name(name);
    if cand.exists() {
        Ok(cand)
    } else {
        Err(format!(
            "{name} binary not found at {} (set {var})",
            cand.display()
        ))
    }
}

/// A spawned daemon, its bound address, and the thread draining its
/// stdout; SIGKILLed on drop, so an early error return never leaks a
/// process.
struct Daemon {
    child: std::process::Child,
    addr: String,
    stdout: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// A fail-fast client of this daemon.
    fn connect(&self) -> Result<Client, String> {
        Client::connect_with(self.addr.as_str(), RetryPolicy::no_retries())
            .map_err(|e| format!("connect to {}: {e}", self.addr))
    }

    /// SIGKILL (not a shutdown request): the crash under test.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Asks for a graceful shutdown (a no-op when the daemon is already
    /// stopping) and waits for it to exit cleanly on its own.
    ///
    /// # Errors
    ///
    /// The daemon is still running ten seconds later (it is then
    /// SIGKILLed), or it exited with a failure status.
    fn shutdown(&mut self) -> Result<(), String> {
        if let Ok(mut c) = self.connect() {
            let _ = c.call(&Request::Shutdown);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon {} exited {status}", self.addr)),
                _ => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        self.kill();
        Err(format!(
            "daemon {} did not exit within 10s of its shutdown",
            self.addr
        ))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
        // The reaped child's stdout is closed, so the drain ends.
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
    }
}

/// Spawns `bin serve` on an ephemeral port with two workers, followed by
/// `args` (a repeated flag overrides: the last one wins), and waits for
/// its `listening on ADDR` stdout line.
fn spawn_daemon(bin: &Path, args: &[String]) -> Result<Daemon, String> {
    let what = bin.display();
    let mut child = std::process::Command::new(bin)
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {what}: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    // Drain stdout to EOF: a daemon printing into a closed pipe would
    // die of it at shutdown.
    let (tx, rx) = std::sync::mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        use std::io::BufRead;
        for line in std::io::BufReader::new(stdout)
            .lines()
            .map_while(Result::ok)
        {
            let _ = tx.send(line);
        }
    });
    let mut daemon = Daemon {
        child,
        addr: String::new(),
        stdout: Some(reader),
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while let Ok(line) = rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
        if let Some(addr) = line.strip_prefix("listening on ") {
            daemon.addr = addr.to_string();
            return Ok(daemon);
        }
    }
    Err(format!("{what} reported no `listening on` within 10s"))
}

/// `strided` flags serving the store at `db`.
fn db_args(db: &Path) -> Vec<String> {
    vec!["--db".to_string(), db.display().to_string()]
}

/// One clean edge-check profiling run of `module` on `args`, as a
/// one-run entry named `name`: a payload the service campaigns merge.
fn profiled_entry(name: &str, module: &Module, args: &[i64]) -> Result<ProfileEntry, String> {
    let out = run_profiling(
        module,
        args,
        ProfilingVariant::EdgeCheck,
        &PipelineConfig::default(),
    )
    .map_err(|e| format!("{name} profiling run failed: {e}"))?;
    Ok(ProfileEntry::from_run(
        name,
        module_hash(module),
        &out.edge,
        &out.stride,
    ))
}

/// The built-in mcf workload at test scale and its measured base entry,
/// profiled once so the service scenarios only exercise the service.
fn mcf_base() -> Result<(Workload, ProfileEntry), String> {
    let w = workload_by_name("mcf", Scale::Test).ok_or("built-in workload mcf missing")?;
    let base = profiled_entry("base", &w.module, &w.train_args)?;
    Ok((w, base))
}

/// Merges per `--service` scenario in an uninterrupted run.
const SERVICE_MERGES: usize = 6;

/// One kill/restart scenario of the `--service` campaign.
struct ServiceScenario {
    index: usize,
    /// Merges acknowledged before the SIGKILL.
    kill_after: usize,
    /// Per-scenario salt folded into the seed for the kill delay.
    salt: u64,
    /// Optional fault plan for the first (killed) daemon instance.
    inject: Option<&'static str>,
}

/// The built-in crash-recovery campaign: every kill point from "before
/// the first ack" to "after the last", twice over with different kill
/// timing, plus two runs where the killed daemon also corrupts its own
/// response frames.
fn service_campaign() -> Vec<ServiceScenario> {
    let plain = (0..12).map(|i| (i % 6, (i / 6) as u64 + 1, None));
    let faulted = [(2, 3, Some("net-trunc=2")), (3, 4, Some("net-reset=4"))];
    plain
        .chain(faulted)
        .enumerate()
        .map(|(index, (kill_after, salt, inject))| ServiceScenario {
            index,
            kill_after,
            salt,
            inject,
        })
        .collect()
}

/// A merge payload: the measured base entry as one run of key
/// `(workload, hash)`, with every edge counter scaled by `factor` so
/// each merge is distinguishable in the accumulated state.
fn scaled_entry(base: &ProfileEntry, workload: &str, hash: u64, factor: u64) -> ProfileEntry {
    let mut e = base.clone();
    e.workload = workload.to_string();
    e.module_hash = hash;
    e.runs = 1;
    for table in &mut e.edge_tables {
        for v in table.iter_mut() {
            *v = v.saturating_mul(factor);
        }
    }
    e
}

/// What the database must hold after the first `j` merges, byte for
/// byte (`None` = no entry file yet).
fn mirror_text(entries: &[ProfileEntry], j: usize) -> Result<Option<String>, String> {
    let Some(first) = entries.get(..j).and_then(<[ProfileEntry]>::first) else {
        return Ok(None);
    };
    let mut acc = first.clone();
    for e in &entries[1..j] {
        acc.merge(e).map_err(|err| format!("mirror merge: {err}"))?;
    }
    Ok(Some(acc.to_text()))
}

fn merge_ok(client: &mut Client, text: &str, what: &str) -> Result<(), String> {
    match client.call(&Request::MergeProfile {
        entry_text: text.to_string(),
    }) {
        Ok(Response::Ok(_)) => Ok(()),
        Ok(Response::Err { kind, message, .. }) => {
            Err(format!("{what} rejected [{kind}]: {message}"))
        }
        Err(e) => Err(format!("{what} transport failed: {e}")),
    }
}

/// Runs one kill/restart scenario; returns its deterministic verdict
/// line (no ports, timings, or replay counts — those vary run to run).
fn run_service_scenario(
    bin: &Path,
    base: &ProfileEntry,
    module_text: &str,
    sc: &ServiceScenario,
    seed: u64,
) -> Result<Verdict, String> {
    let workload = format!("chaos{}", sc.index);
    let db = std::env::temp_dir().join(format!(
        "faultsim-service-{}-{}",
        std::process::id(),
        sc.index
    ));
    let _ = std::fs::remove_dir_all(&db);

    let entries: Vec<ProfileEntry> = (0..SERVICE_MERGES)
        .map(|i| scaled_entry(base, &workload, base.module_hash, 1 + i as u64 % 3))
        .collect();
    let texts: Vec<String> = entries.iter().map(ProfileEntry::to_text).collect();

    // Phase 1: stream merges, then SIGKILL with one merge in flight.
    let mut args = db_args(&db);
    if let Some(spec) = sc.inject {
        args.extend(["--inject".to_string(), spec.to_string()]);
    }
    let mut daemon = spawn_daemon(bin, &args)?;
    let mut client = Client::connect(daemon.addr.as_str())
        .map_err(|e| format!("connect to killed-phase daemon: {e}"))?;
    for (i, text) in texts.iter().enumerate().take(sc.kill_after) {
        merge_ok(&mut client, text, &format!("merge {i}"))?;
    }
    let mut inflight_acked = false;
    if sc.kill_after < SERVICE_MERGES {
        let addr = daemon.addr.clone();
        let text = texts[sc.kill_after].clone();
        let inflight = std::thread::spawn(move || {
            let Ok(mut c) = Client::connect_with(addr.as_str(), RetryPolicy::no_retries()) else {
                return false;
            };
            matches!(
                c.call(&Request::MergeProfile { entry_text: text }),
                Ok(Response::Ok(_))
            )
        });
        let delay_us = mix64(seed ^ sc.salt.wrapping_mul(0x5bd1) ^ sc.index as u64) % 2_500;
        std::thread::sleep(Duration::from_micros(delay_us));
        daemon.kill();
        inflight_acked = inflight.join().unwrap_or(false);
    } else {
        daemon.kill();
    }
    let acked = sc.kill_after + usize::from(inflight_acked);

    // Phase 2: restart on the same directory; startup recovery runs
    // before the socket binds, so a successful connect means recovery
    // completed without panicking.
    let mut daemon = spawn_daemon(bin, &db_args(&db))?;
    let mut client = Client::connect(daemon.addr.as_str())
        .map_err(|e| format!("connect to recovered daemon: {e}"))?;
    // The module registry is in-memory, so re-register the module to
    // read the recovered entry back.
    match client.call(&Request::SubmitModule {
        workload: workload.clone(),
        text: module_text.to_string(),
    }) {
        Ok(Response::Ok(_)) => {}
        other => return Err(format!("re-submit after restart failed: {other:?}")),
    }
    let recovered: Option<String> = match client.call(&Request::GetProfile {
        workload: workload.clone(),
    }) {
        Ok(Response::Ok(text)) => Some(text),
        Ok(Response::Err {
            kind: ErrorKind::NotFound,
            ..
        }) => None,
        other => return Err(format!("get-profile after restart failed: {other:?}")),
    };

    // Invariant 1 — no acknowledged merge is lost: the recovered state
    // must be exactly the first-j-merges state for j = acked, or
    // j = acked + 1 when the unacknowledged in-flight merge committed
    // just before the kill. Checked BEFORE resending anything, so a
    // resend cannot mask a lost ack.
    let mut matched_j = None;
    for j in [acked, acked + 1] {
        if j == acked + 1 && (inflight_acked || sc.kill_after >= SERVICE_MERGES) {
            continue;
        }
        if recovered == mirror_text(&entries, j)? {
            matched_j = Some(j);
            break;
        }
    }
    let Some(applied) = matched_j else {
        return Err(format!(
            "ACKED MERGE LOST OR STATE MIXED: {acked} merge(s) acknowledged, \
             recovered entry is {}",
            match &recovered {
                Some(text) => format!("{} byte(s), matching no merge prefix", text.len()),
                None => "missing".to_string(),
            }
        ));
    };

    // Phase 3: resend everything the crash swallowed and require byte
    // identity with the uninterrupted run. The client stays connected
    // through the shutdown, which must not wait for it.
    for (i, text) in texts.iter().enumerate().skip(applied) {
        merge_ok(&mut client, text, &format!("resent merge {i}"))?;
    }
    let final_text = match client.call(&Request::GetProfile { workload }) {
        Ok(Response::Ok(text)) => text,
        other => return Err(format!("final get-profile failed: {other:?}")),
    };
    daemon.shutdown()?;
    let _ = std::fs::remove_dir_all(&db);
    if Some(final_text) != mirror_text(&entries, SERVICE_MERGES)? {
        return Err(
            "RECOVERED RUN DIVERGED: completed database differs from uninterrupted run".to_string(),
        );
    }
    Ok(Verdict::ok(
        "ok: no acked merge lost, recovered db byte-identical to uninterrupted run".to_string(),
    ))
}

/// The `--service` campaign.
fn service_main(jobs: usize, seed: u64) -> Result<i32, String> {
    let bin = sibling_bin("strided")?;
    let (w, base) = mcf_base()?;
    let module_text = module_to_string(&w.module);
    let scenarios = service_campaign();
    let n = scenarios.len();
    Ok(run_campaign(
        &format!("service crash-recovery campaign: seed {seed}, {n} scenario(s)"),
        false,
        &scenarios,
        jobs,
        |sc| {
            let label = format!(
                "kill-after={}{}",
                sc.kill_after,
                sc.inject.map(|i| format!("+{i}")).unwrap_or_default()
            );
            format!("#{:<3} {label:<28}", sc.index)
        },
        |sc| run_service_scenario(&bin, &base, &module_text, sc, seed),
    ))
}

/// Cluster topology the `--cluster` campaign boots per scenario.
const CLUSTER_SHARDS: usize = 3;
const CLUSTER_REPLICAS: usize = 2;
/// Replica stores per cluster, each held to byte identity.
const STORES: usize = CLUSTER_SHARDS * CLUSTER_REPLICAS;
/// Distinct `(workload, module-hash)` keys a lone writer merges into.
const CLUSTER_KEYS: usize = 8;
/// Keys each of several concurrent writers merges into.
const KEYS_PER_WRITER: usize = 4;
/// Merges per key; each round scales edge counters by `1 << round`, so
/// every applied-delta subset has a unique counter sum.
const CLUSTER_ROUNDS: usize = 4;

/// Extra merges the deep-repair and long-dead scenarios send one shard:
/// more than the 4,096 idempotency ids a replica remembers.
const DEEP_MERGES: usize = 4_200;

/// When a scenario's victim dies.
#[derive(Clone, Copy, PartialEq)]
enum Kill {
    /// After every key's first merge, so it holds state a transfer must
    /// replace.
    AfterFirstRound,
    /// Before a seeded merge in the second quarter of the traffic.
    MidTraffic,
    /// After the traffic settled and the floor pruned every logged delta;
    /// its store directory is deleted before it restarts.
    Wiped,
}

/// How a restarted victim gets back into the router's topology.
#[derive(Clone, Copy, PartialEq)]
enum Rejoin {
    /// The operator issues `route-update` for its fresh address.
    RouteUpdate,
    /// It restarts with `--announce` and registers itself: zero operator
    /// verbs.
    Announce,
}

/// The replica(s) a scenario SIGKILLs and restarts on a fresh port
/// (startup recovery replays their WAL).
#[derive(Clone, Copy)]
struct Victim {
    shard: usize,
    /// Both replicas die; otherwise only replica 0.
    whole_shard: bool,
    kill: Kill,
    rejoin: Rejoin,
}

impl Victim {
    fn replicas(&self) -> std::ops::Range<usize> {
        let n = if self.whole_shard {
            CLUSTER_REPLICAS
        } else {
            1
        };
        0..n
    }
}

/// Which typed refusals a scenario's merges may, or must, draw.
#[derive(Clone, Copy)]
enum Refusal {
    /// Every merge must ack.
    None,
    /// The victim's range answers `unavailable`, naming the victim's
    /// shard with a retry hint, for every merge from the kill on (applied
    /// nowhere); every other merge acks.
    Unavailable,
    /// Any merge may be shed `busy` with a retry hint; which ones depends
    /// on load timing, so the report names none.
    Shed,
}

/// One scenario of the `--cluster` chaos campaign.
struct ClusterScenario {
    index: usize,
    /// Per-scenario salt folded into the seed: picks the kill point, the
    /// weather schedule, the divergence targets and the id streams.
    salt: u64,
    label: &'static str,
    /// Extra `strided-router` flags.
    router_flags: &'static [&'static str],
    victim: Option<Victim>,
    /// Replication weather at the live replicas after the traffic.
    weather: bool,
    /// Extra merges on one shard — the victim's, else the first key's —
    /// after the per-key rounds.
    deep: usize,
    /// One divergent delta per key injected behind the router's back
    /// into one replica after the traffic, for anti-entropy repair alone
    /// to reconverge.
    diverge: bool,
    /// The victim lacks deltas its siblings pruned below the floor, so
    /// it must be refilled by a full-state transfer.
    transfer: bool,
    /// Concurrent writers; only a lone writer can have a victim.
    writers: usize,
    refusal: Refusal,
    /// The report line of a scenario that held.
    report: fn(&Tally) -> String,
}

/// What one cluster scenario's traffic came to.
struct Tally {
    writers: usize,
    merges: usize,
    acked: usize,
    refused: usize,
    /// The shard of the last merge (where deep merges go).
    deep_shard: usize,
}

/// The built-in cluster campaign. #1–#3 were retired: a single-replica
/// outage and weather on a healthy cluster are covered by #0 and #4, and
/// a second whole-shard outage repeated #0 on another shard. #6 (a full
/// hint spool refusing merges) went with the spool.
fn cluster_campaign() -> Vec<ClusterScenario> {
    let mid_kill = |whole_shard, rejoin| Victim {
        shard: 1,
        whole_shard,
        kill: Kill::MidTraffic,
        rejoin,
    };
    let quiet = ClusterScenario {
        index: 0,
        salt: 0,
        label: "",
        router_flags: &[],
        victim: None,
        weather: false,
        deep: 0,
        diverge: false,
        transfer: false,
        writers: 1,
        refusal: Refusal::None,
        report: |_| String::new(),
    };
    vec![
        ClusterScenario {
            index: 0,
            salt: 1,
            label: "kill-shard=1+chaos",
            victim: Some(mid_kill(true, Rejoin::RouteUpdate)),
            weather: true,
            refusal: Refusal::Unavailable,
            report: |t| {
                format!(
                    "ok: {} merges ({} acked, {} shed typed-unavailable), drop/dup/reorder \
                     absorbed, {STORES} replica stores byte-identical to reference",
                    t.merges, t.acked, t.refused
                )
            },
            ..quiet
        },
        ClusterScenario {
            index: 4,
            salt: 5,
            label: "self-announce=1.0",
            victim: Some(mid_kill(false, Rejoin::Announce)),
            weather: true,
            report: |t| {
                format!(
                    "ok: {} merges all acked through replica kill, restart self-announced \
                     (zero operator verbs), repair caught it up, {STORES} stores byte-identical \
                     to reference",
                    t.merges
                )
            },
            ..quiet
        },
        ClusterScenario {
            index: 5,
            salt: 6,
            label: "anti-entropy",
            diverge: true,
            report: |t| {
                format!(
                    "ok: {} merges + {CLUSTER_KEYS} divergent deltas behind the router, \
                     anti-entropy reconverged (zero operator verbs), {STORES} stores \
                     byte-identical",
                    t.merges
                )
            },
            ..quiet
        },
        // 8 writers push about twice the AIMD admission floor, with a
        // widened worker pool so the limiter, not the socket queue, caps
        // concurrency.
        ClusterScenario {
            index: 7,
            salt: 8,
            label: "overload-2x",
            router_flags: &["--workers", "16"],
            writers: 8,
            refusal: Refusal::Shed,
            report: |t| {
                format!(
                    "ok: overload 2x admission floor ({} writers x {} merges), every shed \
                     typed busy with retry hint, zero acked-merge loss, {STORES} stores \
                     byte-identical to acked-set reference",
                    t.writers,
                    t.merges / t.writers
                )
            },
            ..quiet
        },
        ClusterScenario {
            index: 8,
            salt: 9,
            label: "deep-repair",
            deep: DEEP_MERGES,
            diverge: true,
            report: |t| {
                format!(
                    "ok: {} merges ({DEEP_MERGES} more on shard {}, past its replicas' id \
                     window) + {CLUSTER_KEYS} divergent deltas behind the router, exact \
                     repair reconverged (zero operator verbs), {STORES} stores byte-identical",
                    t.merges, t.deep_shard
                )
            },
            ..quiet
        },
        ClusterScenario {
            index: 9,
            salt: 10,
            label: "wipe-replica",
            victim: Some(Victim {
                shard: 1,
                whole_shard: false,
                kill: Kill::Wiped,
                rejoin: Rejoin::Announce,
            }),
            transfer: true,
            report: |t| {
                format!(
                    "ok: {} merges all acked, then replica s1r0's store deleted after the \
                     floor pruned every delta; self-announce revival refilled it by full-state \
                     transfer (zero operator verbs), {STORES} stores byte-identical to reference",
                    t.merges
                )
            },
            ..quiet
        },
        ClusterScenario {
            index: 10,
            salt: 11,
            label: "long-dead",
            victim: Some(Victim {
                shard: 1,
                whole_shard: false,
                kill: Kill::AfterFirstRound,
                rejoin: Rejoin::Announce,
            }),
            deep: DEEP_MERGES,
            transfer: true,
            report: |t| {
                format!(
                    "ok: {} merges all acked ({DEEP_MERGES} more on shard {}) while replica \
                     s1r0 stayed dead and the floor advanced over its sibling; self-announce \
                     revival refilled it by full-state transfer, {STORES} stores byte-identical \
                     to reference",
                    t.merges, t.deep_shard
                )
            },
            ..quiet
        },
    ]
}

/// Sorted `(name, bytes)` of a store's entry files — the converged state
/// a replica must share byte-for-byte with the reference.
fn entry_files(dir: &Path) -> Result<Vec<(String, Vec<u8>)>, String> {
    let mut files = Vec::new();
    let rd = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for de in rd {
        let de = de.map_err(|e| format!("{}: {e}", dir.display()))?;
        let name = de.file_name().to_string_lossy().into_owned();
        if name.ends_with(".profdb") {
            let bytes =
                std::fs::read(de.path()).map_err(|e| format!("{}: {e}", de.path().display()))?;
            files.push((name, bytes));
        }
    }
    files.sort();
    Ok(files)
}

/// One writer's deterministic traffic: its keys, and for each merge its
/// owning shard and the exact delta the router fans out for it (whose
/// entry text is the merge's). Req-ids come from the client's id stream;
/// only merges consume ids, so stats polls never shift it.
struct WriterPlan {
    id0: u64,
    keys: Vec<(String, u64)>,
    records: Vec<(usize, DeltaRecord)>,
}

fn plan_writers(
    bases: &[ProfileEntry],
    sc: &ClusterScenario,
    seed: u64,
) -> Result<Vec<WriterPlan>, String> {
    let map = ShardMap::new(CLUSTER_SHARDS as u32);
    let owner = |(w, h): &(String, u64)| map.shard_of(w, *h) as usize;
    let mut covered = [false; CLUSTER_SHARDS];
    let mut plans = Vec::with_capacity(sc.writers);
    for t in 0..sc.writers {
        let (prefix, n_keys, hash0) = if sc.writers == 1 {
            (format!("c{}", sc.index), CLUSTER_KEYS, 0x4100)
        } else {
            let first = t * KEYS_PER_WRITER;
            (format!("o{t}"), KEYS_PER_WRITER, 0x4800 + first as u64)
        };
        let keys: Vec<(String, u64)> = (0..n_keys)
            .map(|j| (format!("{prefix}k{j}"), hash0 + j as u64))
            .collect();
        for key in &keys {
            covered[owner(key)] = true;
        }
        // (key, round) of every merge: each key once per round, then the
        // deep merges, spread over the keys of the victim's shard, else
        // of the first key's.
        let mut merges: Vec<(usize, usize)> = (0..n_keys * CLUSTER_ROUNDS)
            .map(|i| (i % n_keys, i / n_keys))
            .collect();
        let deep_shard = sc.victim.map_or(owner(&keys[0]), |v| v.shard);
        let deep_keys: Vec<usize> = (0..n_keys)
            .filter(|&j| owner(&keys[j]) == deep_shard)
            .collect();
        if deep_keys.is_empty() && sc.deep > 0 {
            return Err(format!(
                "scenario key set covers no key on shard {deep_shard}"
            ));
        }
        merges.extend((0..sc.deep).map(|j| (deep_keys[j % deep_keys.len()], j % CLUSTER_ROUNDS)));
        let id0 = mix64(seed ^ sc.salt.wrapping_mul(0xc2b2_ae3d) ^ (t as u64 * 0x9e37_79b9));
        let records = IdStream::new(id0)
            .zip(&merges)
            .map(|(req_id, &(key, round))| {
                let (w, h) = &keys[key];
                let entry = scaled_entry(&bases[(t + key) % bases.len()], w, *h, 1 << round);
                let rec = DeltaRecord {
                    req_id,
                    dot: None,
                    entry_text: entry.to_text(),
                };
                (owner(&keys[key]), rec)
            })
            .collect();
        plans.push(WriterPlan { id0, keys, records });
    }
    if let Some(k) = covered.iter().position(|&c| !c) {
        return Err(format!("scenario key set covers no key on shard {k}"));
    }
    Ok(plans)
}

/// A scenario's processes: the router and `backends[shard][replica]`
/// (`None` while killed).
struct Cluster {
    router: Daemon,
    backends: Vec<Vec<Option<Daemon>>>,
}

impl Cluster {
    /// Boots 3 shards × 2 replicas under `root` plus a router over them.
    fn boot(bins: &Bins, root: &Path, router_flags: &[&str]) -> Result<Cluster, String> {
        let _ = std::fs::remove_dir_all(root);
        let mut backends = Vec::new();
        let mut args = Vec::new();
        for k in 0..CLUSTER_SHARDS {
            let row = (0..CLUSTER_REPLICAS)
                .map(|r| spawn_daemon(&bins.strided, &db_args(&replica_dir(root, k, r))))
                .collect::<Result<Vec<Daemon>, String>>()?;
            let addrs: Vec<&str> = row.iter().map(|d| d.addr.as_str()).collect();
            args.extend(["--shard".to_string(), addrs.join(",")]);
            backends.push(row.into_iter().map(Some).collect());
        }
        args.extend(router_flags.iter().map(|f| f.to_string()));
        let router = spawn_daemon(&bins.router, &args)?;
        Ok(Cluster { router, backends })
    }

    fn replica(&self, k: usize, r: usize) -> Result<&Daemon, String> {
        self.backends[k][r]
            .as_ref()
            .ok_or_else(|| format!("replica s{k}r{r} is down"))
    }
}

fn replica_dir(root: &Path, k: usize, r: usize) -> PathBuf {
    root.join(format!("s{k}r{r}"))
}

/// The two daemon binaries a cluster scenario runs.
struct Bins {
    strided: PathBuf,
    router: PathBuf,
}

/// Per-scenario scratch root for database directories.
fn cluster_root(index: usize) -> PathBuf {
    std::env::temp_dir().join(format!("faultsim-cluster-{}-{index}", std::process::id()))
}

/// Replication weather: each shard's acked deltas delivered straight at
/// its live replicas with seeded drops, duplicates, and a full shuffle —
/// an adversarial at-least-once network. Request-id dedup plus the
/// commutative merge must absorb all of it.
fn chaos_weather(
    cluster: &Cluster,
    acked: &[(usize, DeltaRecord)],
    seed: u64,
    salt: u64,
) -> Result<(), String> {
    let mut rng = FaultRng::new(mix64(seed ^ 0x51ab ^ salt));
    for k in 0..CLUSTER_SHARDS {
        let owned: Vec<&DeltaRecord> = acked
            .iter()
            .filter(|(own, _)| *own == k)
            .map(|(_, rec)| rec)
            .collect();
        for r in 0..CLUSTER_REPLICAS {
            let Some(d) = &cluster.backends[k][r] else {
                continue;
            };
            let mut sched: Vec<&DeltaRecord> = Vec::new();
            for rec in &owned {
                if rng.below(3) != 0 {
                    sched.push(rec); // dropped with probability 1/3
                }
                if rng.below(3) == 0 {
                    sched.push(rec); // duplicated with probability 1/3
                }
            }
            shuffle(&mut rng, &mut sched);
            let mut c = d.connect()?;
            for chunk in sched.chunks(3) {
                let batch: Vec<DeltaRecord> = chunk.iter().map(|r| (*r).clone()).collect();
                sync_delta(&mut c, &batch, &format!("chaos to s{k}r{r}"))?;
            }
        }
    }
    Ok(())
}

/// Delivers `batch` as one `sync-delta`, straight at a replica.
fn sync_delta(client: &mut Client, batch: &[DeltaRecord], what: &str) -> Result<(), String> {
    match client.call(&Request::SyncDelta {
        batch_text: encode_delta_batch(batch),
    }) {
        Ok(Response::Ok(_)) => Ok(()),
        other => Err(format!("sync-delta {what}: {other:?}")),
    }
}

/// Injects one fresh delta per key of `plan` into one seeded replica of
/// its owning shard, behind the router's back — a stand-in for a healed
/// partition that left replicas divergent. Entry counts stay equal
/// across replicas (every key already exists), so only the causal
/// contexts, and the final byte-compare, can expose the drift. Returns
/// the injected deltas.
fn inject_divergence(
    cluster: &Cluster,
    bases: &[ProfileEntry],
    plan: &WriterPlan,
    seed: u64,
    salt: u64,
) -> Result<Vec<(usize, DeltaRecord)>, String> {
    let map = ShardMap::new(CLUSTER_SHARDS as u32);
    let mut rng = FaultRng::new(mix64(seed ^ salt ^ 0x9a97));
    let ids = IdStream::new(mix64(plan.id0 ^ 0x0d1f));
    let mut extras = Vec::new();
    for ((i, (w, h)), req_id) in plan.keys.iter().enumerate().zip(ids) {
        let rec = DeltaRecord {
            req_id,
            dot: None,
            entry_text: scaled_entry(&bases[i % bases.len()], w, *h, 1 << CLUSTER_ROUNDS).to_text(),
        };
        let k = map.shard_of(w, *h) as usize;
        let r = rng.below(CLUSTER_REPLICAS as u64) as usize;
        let mut c = cluster.replica(k, r)?.connect()?;
        sync_delta(
            &mut c,
            std::slice::from_ref(&rec),
            &format!("divergence to s{k}r{r}"),
        )?;
        extras.push((k, rec));
    }
    Ok(extras)
}

/// What one router `stats` body says about the cluster: whether every
/// replica is alive (one zero health gauge per replica), the router's
/// repair-round and full-state-transfer counts, and `profdb.entries` of
/// every replica that answered.
#[derive(Default)]
struct ClusterView {
    alive: bool,
    repair_rounds: u64,
    state_transfers: u64,
    entries: Vec<((usize, usize), u64)>,
}

fn cluster_view(body: &str) -> ClusterView {
    let mut view = ClusterView::default();
    for section in split_sections(body) {
        let Ok(metrics) = Snapshot::parse(section.body) else {
            continue;
        };
        if let Origin::Replica { shard, replica, .. } = section.origin {
            if let Some(n) = metrics.gauge("profdb.entries") {
                view.entries.push(((shard, replica), n));
            }
        } else if section.origin == Origin::Router {
            let health = metrics
                .gauges
                .iter()
                .filter(|(name, _)| name.starts_with("router.health."));
            let levels: Vec<u64> = health.map(|(_, g)| g.value).collect();
            view.alive = levels.len() == STORES && levels.iter().all(|&v| v == 0);
            view.repair_rounds = metrics.counter("router.repair_rounds").unwrap_or(0);
            view.state_transfers = metrics.counter("router.state_transfers").unwrap_or(0);
        }
    }
    view
}

/// Polls router stats until the cluster looks healed: every replica
/// alive, and the replicas of each shard agreeing on entry count — then
/// keeps polling until `extra_repair` more anti-entropy rounds have run
/// on top of that quiet state, and returns the last view. Every poll
/// ticks the router's logical probe clock, so polling *drives* probing,
/// revival, and repair.
fn settle(client: &mut Client, extra_repair: u64) -> Result<ClusterView, String> {
    let mut quiet_rounds: Option<u64> = None;
    for _ in 0..800 {
        let body = match client.call(&Request::Stats) {
            Ok(Response::Ok(b)) => b,
            other => return Err(format!("settle stats: {other:?}")),
        };
        let view = cluster_view(&body);
        let counts = &view.entries;
        let agree = counts.len() == STORES
            && (0..CLUSTER_SHARDS).all(|k| {
                let per: Vec<u64> = counts
                    .iter()
                    .filter(|((ck, _), _)| *ck == k)
                    .map(|(_, n)| *n)
                    .collect();
                per.len() == CLUSTER_REPLICAS && per.windows(2).all(|w| w[0] == w[1])
            });
        let rounds = view.repair_rounds;
        if view.alive && agree {
            let base = *quiet_rounds.get_or_insert(rounds);
            if rounds >= base + extra_repair {
                return Ok(view);
            }
        } else {
            quiet_rounds = None;
        }
        std::thread::sleep(Duration::from_millis(15));
    }
    Err("cluster did not heal within the settle budget".to_string())
}

/// Stops the whole cluster (router shutdown fans out), then holds every
/// replica store byte-identical to an uninterrupted reference applying
/// `deltas` once, each on its shard. `allow_empty` permits a shard that
/// legitimately ended with no applied merges (overload shedding).
fn stop_and_compare(
    client: &mut Client,
    mut cluster: Cluster,
    root: &Path,
    deltas: &[(usize, DeltaRecord)],
    allow_empty: bool,
) -> Result<(), String> {
    match client.call(&Request::Shutdown) {
        Ok(Response::Ok(_)) => {}
        other => return Err(format!("cluster shutdown: {other:?}")),
    }
    for d in cluster.backends.iter_mut().flatten().flatten() {
        d.shutdown()?;
    }
    cluster.router.shutdown()?;
    for k in 0..CLUSTER_SHARDS {
        let ref_dir = root.join(format!("ref{k}"));
        let db = ProfileDb::open(&ref_dir).map_err(|e| format!("reference db: {e}"))?;
        let recs: Vec<DeltaRecord> = deltas
            .iter()
            .filter(|(own, _)| *own == k)
            .map(|(_, rec)| rec.clone())
            .collect();
        db.apply_deltas(&recs)
            .map_err(|e| format!("reference apply shard {k}: {e}"))?;
        let want = entry_files(&ref_dir)?;
        if want.is_empty() && !allow_empty {
            return Err(format!("reference store for shard {k} is empty"));
        }
        for r in 0..CLUSTER_REPLICAS {
            let got = entry_files(&replica_dir(root, k, r))?;
            if got != want {
                return Err(format!(
                    "DIVERGED: shard {k} replica {r} store differs from the uninterrupted \
                     reference ({} vs {} entry file(s)) — an acked merge was lost, a \
                     duplicate double-counted, or replicas split",
                    got.len(),
                    want.len()
                ));
            }
        }
    }
    Ok(())
}

/// Sends a writer's merges in order, running `before(i)` ahead of merge
/// `i` (the kill hook); returns every response.
fn drive(
    client: &mut Client,
    records: &[(usize, DeltaRecord)],
    mut before: impl FnMut(usize),
) -> Result<Vec<Response>, String> {
    let mut responses = Vec::with_capacity(records.len());
    for (i, (_, rec)) in records.iter().enumerate() {
        before(i);
        let entry_text = rec.entry_text.clone();
        let resp = client.call(&Request::MergeProfile { entry_text });
        responses.push(resp.map_err(|e| format!("merge {i} transport: {e}"))?);
    }
    Ok(responses)
}

/// Restarts the victim's replicas on fresh ports (startup recovery
/// replays what is left of their stores); with [`Rejoin::Announce`] each
/// registers itself with the router.
fn restart_victim(
    bins: &Bins,
    cluster: &mut Cluster,
    root: &Path,
    v: Victim,
) -> Result<(), String> {
    for r in v.replicas() {
        let mut args = db_args(&replica_dir(root, v.shard, r));
        if v.rejoin == Rejoin::Announce {
            let at = format!("{}/{}/{r}", cluster.router.addr, v.shard);
            args.extend(["--announce".to_string(), at]);
        }
        cluster.backends[v.shard][r] = Some(spawn_daemon(&bins.strided, &args)?);
    }
    Ok(())
}

/// Runs one cluster scenario row: plan the traffic, boot, merge (killing
/// the victim at its point), check every answer against the expected
/// refusals, restart and rejoin the victim, play the weather, inject
/// divergence, settle — or, for a wiped victim, settle, then kill it,
/// delete its store and settle again — and compare every store with the
/// reference. The kill point, victim, and schedules are all functions of
/// `(seed, salt)`, so the line is identical at any `--jobs` level.
fn run_cluster_scenario(
    bins: &Bins,
    bases: &[ProfileEntry],
    sc: &ClusterScenario,
    seed: u64,
) -> Result<Verdict, String> {
    let plans = plan_writers(bases, sc, seed)?;
    let merges: usize = plans.iter().map(|p| p.records.len()).sum();
    let root = cluster_root(sc.index);
    let mut cluster = Cluster::boot(bins, &root, sc.router_flags)?;
    let mut clients = Vec::with_capacity(plans.len());
    for plan in &plans {
        let mut client = cluster.router.connect()?;
        client.set_id_state(plan.id0);
        clients.push(client);
    }

    // Phase 1: the traffic. A lone writer may lose a victim on the way;
    // several writers run concurrently.
    let kill_at = sc.victim.and_then(|v| match v.kill {
        Kill::AfterFirstRound => Some(CLUSTER_KEYS),
        Kill::MidTraffic => {
            Some(CLUSTER_KEYS + (mix64(seed ^ sc.salt) % (merges as u64 / 2)) as usize)
        }
        Kill::Wiped => None,
    });
    let responses: Vec<Vec<Response>> = match (&plans[..], &mut clients[..]) {
        ([plan], [client]) => vec![drive(client, &plan.records, |i| {
            if let (Some(v), true) = (sc.victim, Some(i) == kill_at) {
                for r in v.replicas() {
                    cluster.backends[v.shard][r] = None;
                }
            }
        })?],
        (plans, clients) => std::thread::scope(|scope| {
            let handles: Vec<_> = plans
                .iter()
                .zip(clients.iter_mut())
                .map(|(plan, client)| scope.spawn(move || drive(client, &plan.records, |_| {})))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("writer thread panicked".to_string()))
                })
                .collect::<Result<_, String>>()
        })?,
    };

    // Every answer is an ack or the expected typed refusal. `reference`
    // collects the deltas the replicas must end up holding: the acked
    // ones. An `unavailable` merge was applied nowhere, and a `busy` one
    // was shed at the door.
    let mut reference: Vec<(usize, DeltaRecord)> = Vec::new();
    let (mut acked, mut refused) = (0usize, Vec::new());
    for (plan, resps) in plans.iter().zip(responses) {
        for (i, resp) in resps.into_iter().enumerate() {
            let (own, rec) = &plan.records[i];
            let victim_range =
                sc.victim.is_some_and(|v| v.shard == *own) && kill_at.is_some_and(|k| i >= k);
            match (resp, sc.refusal) {
                (Response::Ok(_), _) => {
                    acked += 1;
                    reference.push((*own, rec.clone()));
                }
                (
                    Response::Err {
                        kind: ErrorKind::Unavailable,
                        shard,
                        retry_after_ms: Some(_),
                        ..
                    },
                    Refusal::Unavailable,
                ) if victim_range && shard == Some(*own as u32) => refused.push(i),
                (
                    Response::Err {
                        kind: ErrorKind::Busy,
                        retry_after_ms: Some(_),
                        ..
                    },
                    Refusal::Shed,
                ) => {}
                (other, _) => {
                    return Err(format!(
                        "merge {i} on shard {own} answered {other:?} — neither an ack nor \
                         the scenario's typed refusal"
                    ))
                }
            }
        }
    }
    if let (Some(v), Refusal::Unavailable) = (sc.victim, sc.refusal) {
        let want: Vec<usize> = (kill_at.unwrap_or(0)..merges)
            .filter(|&i| plans[0].records[i].0 == v.shard)
            .collect();
        if refused != want {
            return Err(format!(
                "refusal schedule diverged: got {refused:?}, want {want:?} — the victim's \
                 range must refuse exactly these merges"
            ));
        }
    }

    // Phase 2: restart the victim, play the weather, and rejoin it.
    if let Some(v) = sc.victim.filter(|_| kill_at.is_some()) {
        restart_victim(bins, &mut cluster, &root, v)?;
    }
    if sc.weather {
        chaos_weather(&cluster, &reference, seed, sc.salt)?;
    }
    let control = &mut clients[0];
    if let Some(v) = sc.victim.filter(|v| v.rejoin == Rejoin::RouteUpdate) {
        for r in v.replicas() {
            let addr = cluster.replica(v.shard, r)?.addr.clone();
            match control.call(&Request::RouteUpdate {
                shard: v.shard as u32,
                replica: r as u32,
                addr,
            }) {
                Ok(Response::Ok(_)) => {}
                other => return Err(format!("route-update s{}r{r}: {other:?}", v.shard)),
            }
        }
    }

    // Phase 3: divergence behind the router's back, then settle. Two
    // full anti-entropy passes per shard after divergence: the first
    // ships each replica the deltas it lacks, the second verifies. A
    // store about to be wiped waits two passes too: the first computes
    // a floor holding every delta, the second makes its siblings prune.
    if sc.diverge {
        reference.extend(inject_divergence(
            &cluster, bases, &plans[0], seed, sc.salt,
        )?);
    }
    let wiped = sc.victim.filter(|v| v.kill == Kill::Wiped);
    let passes = if sc.diverge || wiped.is_some() { 2 } else { 1 };
    let mut view = settle(control, passes * CLUSTER_SHARDS as u64)?;

    // Phase 4: a wiped victim dies, loses its store, and rejoins empty.
    if let Some(v) = wiped {
        for r in v.replicas() {
            cluster.backends[v.shard][r] = None;
            let dir = replica_dir(&root, v.shard, r);
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        restart_victim(bins, &mut cluster, &root, v)?;
        view = settle(control, CLUSTER_SHARDS as u64)?;
    }
    if sc.transfer && view.state_transfers == 0 {
        return Err("the victim converged without a full-state transfer".to_string());
    }

    let tally = Tally {
        writers: plans.len(),
        merges,
        acked,
        refused: refused.len(),
        deep_shard: plans[0].records.last().map_or(0, |(own, _)| *own),
    };
    let allow_empty = matches!(sc.refusal, Refusal::Shed);
    stop_and_compare(control, cluster, &root, &reference, allow_empty)?;
    let _ = std::fs::remove_dir_all(&root);
    Ok(Verdict::ok((sc.report)(&tally)))
}

/// The `--cluster` campaign.
fn cluster_main(jobs: usize, seed: u64) -> Result<i32, String> {
    let bins = Bins {
        strided: sibling_bin("strided")?,
        router: sibling_bin("strided-router")?,
    };
    let (_, base) = mcf_base()?;
    // Second base profile from the generated-workload subsystem: half the
    // chaos keys carry a seed-dependent genuine profile shape instead of
    // the one fixed hand-built benchmark. Generation and profiling happen
    // once, before the scenario fan-out, so reports stay jobs-invariant.
    let gspec = stride_genwork::generate(seed, 0, &stride_genwork::GenConfig::campaign());
    let gbuilt = stride_genwork::build(&gspec);
    let gbase = profiled_entry("genbase", &gbuilt.module, &[0])?;
    let bases = [base, gbase];
    let scenarios = cluster_campaign();
    let (n, shards, replicas) = (scenarios.len(), CLUSTER_SHARDS, CLUSTER_REPLICAS);
    Ok(run_campaign(
        &format!(
            "cluster chaos campaign: seed {seed}, {n} scenario(s), {shards}x{replicas} topology"
        ),
        false,
        &scenarios,
        jobs,
        |sc| format!("#{:<3} {:<24}", sc.index, sc.label),
        |sc| run_cluster_scenario(&bins, &bases, sc, seed),
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut jobs = default_jobs();
    let mut seed = 42u64;
    let mut service = false;
    let mut cluster = false;
    let mut single_plan: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--jobs" => {
                i += 1;
                jobs = match parse_jobs(args.get(i).map(String::as_str)) {
                    Ok(n) => n,
                    Err(msg) => {
                        eprintln!("faultsim: {msg}");
                        std::process::exit(2);
                    }
                };
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--plan" => {
                i += 1;
                single_plan = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--service" => service = true,
            "--cluster" => cluster = true,
            _ => usage(),
        }
        i += 1;
    }

    let code = if cluster {
        cluster_main(jobs, seed)
    } else if service {
        service_main(jobs, seed)
    } else {
        Ok(pipeline_main(jobs, seed, single_plan))
    };
    std::process::exit(code.unwrap_or_else(|e| {
        eprintln!("faultsim: {e}");
        2
    }));
}

fn usage() -> ! {
    eprintln!(
        "usage: faultsim [--jobs N] [--seed N] [--plan SPEC]\n\
         \x20      faultsim --service [--jobs N] [--seed N]\n\
         \x20      faultsim --cluster [--jobs N] [--seed N]\n\
         \n\
         \x20 --jobs N           worker threads (default: available parallelism)\n\
         \x20 --seed N           campaign seed (default: 42)\n\
         \x20 --plan SPEC        run one fault plan (on mcf, paper scale) instead of the\n\
         \x20                    built-in campaign, e.g. 'truncate=2;fuel=20000'\n\
         \x20                    (see repro --inject)\n\
         \x20 --service          crash-recovery campaign: SIGKILL and restart a real\n\
         \x20                    strided daemon mid-merge; no acked merge may be lost\n\
         \x20 --cluster          sharded chaos campaign: router + 3x2 strided cluster,\n\
         \x20                    replica and shard kills healed by route-update or\n\
         \x20                    --announce, delta drop/dup/reorder, anti-entropy\n\
         \x20                    repair, wiped and long-dead replicas refilled by\n\
         \x20                    full-state transfer, AIMD overload; replicas must\n\
         \x20                    converge byte-identically, typed shedding only"
    );
    std::process::exit(2);
}
