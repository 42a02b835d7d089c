//! `stridectl` — command-line client for the `strided` daemon.
//!
//! ```text
//! stridectl [--addr HOST:PORT] submit NAME (--file PATH | --builtin WL [--scale S])
//! stridectl [--addr HOST:PORT] profile NAME [--variant V] [--args 1,2]
//! stridectl [--addr HOST:PORT] classify NAME [--variant V] [--args 1,2]
//! stridectl [--addr HOST:PORT] prefetch NAME [--variant V] [--train 1,2] [--ref 3,4]
//! stridectl [--addr HOST:PORT] get-profile NAME
//! stridectl [--addr HOST:PORT] merge-profile --file PATH
//! stridectl [--addr HOST:PORT] stats
//! stridectl [--addr HOST:PORT] top
//! stridectl [--addr HOST:PORT] shutdown
//! stridectl [--addr HOST:PORT] replay [--clients N] [--requests N] [--threads T]
//!                       [--seed S] [--workloads K] [--merge-pct P]
//!                       [--max-shed-frac F] [--report PATH]
//! ```
//!
//! Every subcommand except `replay` is one framed round trip against a
//! running daemon or router; `replay` streams a seeded generated-workload
//! trace (many simulated clients multiplexed over `--threads`
//! connections) at a daemon or a sharded cluster and asserts the service
//! invariants afterwards: no acked merge lost, shedding within budget,
//! latency histograms complete.

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use stride_core::{PipelineConfig, ProfilingVariant, Snapshot};
use stride_ir::module_to_string;
use stride_server::{split_sections, Client, ErrorKind, Origin, Request, Response, RetryPolicy};
use stride_workloads::{workload_by_name, Scale};

/// The daemon answered with a typed error.
const EXIT_SERVER: u8 = 1;
/// The invocation itself was wrong (bad flags, unreadable input).
const EXIT_USAGE: u8 = 2;
/// The transport failed and the retry budget ran out.
const EXIT_TRANSPORT: u8 = 3;

fn usage() -> ExitCode {
    eprintln!(
        "usage: stridectl [GLOBAL FLAGS] COMMAND [FLAGS]\n\
         \n\
         global flags:\n\
         \x20 --addr HOST:PORT       daemon address (default 127.0.0.1:7311)\n\
         \x20 --retries N            attempts per request (default 4; 1 = fail fast)\n\
         \x20 --retry-base-ms MS     first backoff wait (default 10, doubling, capped 2000)\n\
         \x20 --retry-seed S         jitter seed (same seed => identical backoff schedule)\n\
         \x20 --deadline FUEL        per-request VM fuel deadline sent to the server\n\
         \n\
         commands (one round trip against a running `strided serve`):\n\
         \x20 submit NAME --file PATH            register a module from an IR file\n\
         \x20 submit NAME --builtin WL           register a built-in Fig. 15 workload\n\
         \x20                [--scale test|paper]  (prints its train/ref args)\n\
         \x20 profile NAME [--variant V] [--args 1,2]\n\
         \x20 classify NAME [--variant V] [--args 1,2]\n\
         \x20 prefetch NAME [--variant V] [--train 1,2] [--ref 3,4]\n\
         \x20 get-profile NAME                   fetch the accumulated db entry\n\
         \x20 merge-profile --file PATH          merge a saved entry into the db\n\
         \x20 stats [--json]                     metrics registry snapshot (a router\n\
         \x20                                    adds one section per replica);\n\
         \x20                                    --json: counter and gauge values per\n\
         \x20                                    replica plus a summed aggregate\n\
         \x20 gc                                 drop db entries for retired/stale\n\
         \x20                                    modules (router fans out cluster-wide)\n\
         \x20 route-update --shard K --replica R --to HOST:PORT\n\
         \x20                                    re-point one shard replica (router only;\n\
         \x20                                    re-teaches it the modules, then repairs)\n\
         \x20 health                             failure-detector states per replica\n\
         \x20                                    (router only)\n\
         \x20 repair                             run one anti-entropy round now and\n\
         \x20                                    report per-shard divergence (router only)\n\
         \x20 top                                sorted live-metrics view (counters by\n\
         \x20                                    value, gauges, latency histograms)\n\
         \x20 shutdown\n\
         \n\
         replay (seeded generated-trace load driver; uses --addr):\n\
         \x20 replay [--clients N] [--requests N] [--threads T] [--seed S]\n\
         \x20        [--workloads K] [--merge-pct P] [--max-shed-frac F]\n\
         \x20        [--report PATH]\n\
         \x20        streams N requests from N simulated clients (genwork\n\
         \x20        corpus, read-heavy mix) at a daemon or cluster, then\n\
         \x20        asserts: every acked merge present in the db, shed\n\
         \x20        fraction within budget, latency histograms complete\n\
         \n\
         exit codes: 0 ok, {EXIT_SERVER} server error, {EXIT_USAGE} usage, \
         {EXIT_TRANSPORT} transport/retries exhausted\n\
         variants are the pipeline's hyphenated names (edge-check, naive-loop, ...)"
    );
    ExitCode::from(EXIT_USAGE)
}

/// Connection behaviour parsed from the global flags.
struct NetOpts {
    policy: RetryPolicy,
    deadline: Option<u64>,
}

fn net_opts(args: &[String]) -> Result<NetOpts, String> {
    let mut policy = RetryPolicy::default();
    if let Some(v) = flag_value(args, "--retries") {
        policy.max_attempts = v
            .parse::<u32>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("bad --retries `{v}` (expected integer >= 1)"))?;
    }
    if let Some(v) = flag_value(args, "--retry-base-ms") {
        policy.base_delay_ms = v
            .parse::<u64>()
            .map_err(|_| format!("bad --retry-base-ms `{v}`"))?;
    }
    if let Some(v) = flag_value(args, "--retry-seed") {
        policy.jitter_seed = v
            .parse::<u64>()
            .map_err(|_| format!("bad --retry-seed `{v}`"))?;
    }
    let deadline = match flag_value(args, "--deadline") {
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| format!("bad --deadline `{v}` (expected fuel budget)"))?,
        ),
        None => None,
    };
    Ok(NetOpts { policy, deadline })
}

/// `--flag value` lookup over the raw argument list.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_scale(s: &str) -> Option<Scale> {
    match s {
        "test" => Some(Scale::Test),
        "paper" => Some(Scale::Paper),
        _ => None,
    }
}

fn parse_int_args(s: &str) -> Result<Vec<i64>, String> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|p| p.parse::<i64>().map_err(|_| format!("bad integer `{p}`")))
        .collect()
}

fn parse_variant(args: &[String]) -> Result<ProfilingVariant, String> {
    match flag_value(args, "--variant") {
        Some(v) => v.parse::<ProfilingVariant>(),
        None => Ok(ProfilingVariant::EdgeCheck),
    }
}

fn print_trace(trace: &[String]) {
    if !trace.is_empty() {
        eprintln!("stridectl: retry trace:");
        for line in trace {
            eprintln!("  {line}");
        }
    }
}

/// Sends one request and returns the `ok` body; a typed server error
/// ([`EXIT_SERVER`]) or a connection/retry-budget failure
/// ([`EXIT_TRANSPORT`]) is reported on stderr and becomes the exit code.
fn call_body(addr: &str, opts: &NetOpts, req: &Request) -> Result<String, ExitCode> {
    let mut client = match Client::connect_with(addr, opts.policy) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("stridectl: cannot connect to {addr}: {e}");
            return Err(ExitCode::from(EXIT_TRANSPORT));
        }
    };
    client.set_deadline_fuel(opts.deadline);
    match client.call(req) {
        Ok(Response::Ok(body)) => Ok(body),
        Ok(Response::Err {
            kind,
            message,
            retry_after_ms,
            shard,
        }) => {
            match shard {
                Some(k) => eprintln!("stridectl: server error [{kind}] (shard {k})\n{message}"),
                None => eprintln!("stridectl: server error [{kind}]\n{message}"),
            }
            if let Some(ms) = retry_after_ms {
                eprintln!("stridectl: server suggests retrying after {ms} ms");
            }
            print_trace(client.trace());
            Err(ExitCode::from(EXIT_SERVER))
        }
        Err(e) => {
            eprintln!("stridectl: transport error: {e}");
            print_trace(client.trace());
            Err(ExitCode::from(EXIT_TRANSPORT))
        }
    }
}

/// Sends one request and prints its `ok` body; exit code 0 only for
/// `ok` (see [`call_body`]).
fn round_trip(addr: &str, opts: &NetOpts, req: &Request) -> ExitCode {
    print_body(call_body(addr, opts, req), str::to_string)
}

/// Prints a round trip's `ok` body through `render`, or passes its
/// failure exit code on.
fn print_body(body: Result<String, ExitCode>, render: fn(&str) -> String) -> ExitCode {
    match body {
        Ok(body) => {
            // Rust leaves SIGPIPE ignored, so `print!` into a closed pipe
            // (`stridectl profile .. | head -1`) would panic; a reader that
            // hung up got everything it asked for.
            use std::io::Write;
            let _ = std::io::stdout().write_all(render(&body).as_bytes());
            ExitCode::SUCCESS
        }
        Err(code) => code,
    }
}

/// The integer values of one stats section for `--json`: every counter
/// as `counter.NAME` and every gauge's current level as `gauge.NAME`.
fn section_ints(metrics: &Snapshot) -> std::collections::BTreeMap<String, u64> {
    let counters = metrics
        .counters
        .iter()
        .map(|(k, v)| (format!("counter.{k}"), *v));
    let gauges = (metrics.gauges.iter()).map(|(k, g)| (format!("gauge.{k}"), g.value));
    counters.chain(gauges).collect()
}

fn json_object(map: &std::collections::BTreeMap<String, u64>, indent: &str) -> String {
    let fields: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("{indent}  \"{k}\": {v}"))
        .collect();
    format!("{{\n{}\n{indent}}}", fields.join(",\n"))
}

/// Renders a stats body into the `--json` document: the router's own
/// values, one object per shard replica, and their sum (a single
/// daemon's body is the whole aggregate). A replica that failed to
/// answer contributes an empty object. Deterministic for a given body:
/// keys sorted, shards in section order.
fn render_stats_json(body: &str) -> String {
    let mut shard_objs: Vec<String> = Vec::new();
    let mut router_obj: Option<String> = None;
    let mut aggregate = std::collections::BTreeMap::new();
    for section in split_sections(body) {
        let parsed = Snapshot::parse(section.body);
        let ints = parsed.map(|m| section_ints(&m)).unwrap_or_default();
        if section.origin == Origin::Router {
            router_obj = Some(json_object(&ints, "  "));
            continue;
        }
        for (k, v) in &ints {
            *aggregate.entry(k.clone()).or_insert(0) += v;
        }
        if let Origin::Replica {
            shard,
            replica,
            addr,
        } = section.origin
        {
            shard_objs.push(format!(
                "    {{\"shard\": {shard}, \"replica\": {replica}, \"addr\": \"{addr}\", \"stats\": {}}}",
                json_object(&ints, "    ")
            ));
        }
    }

    let mut out = String::from("{\n");
    if let Some(router) = router_obj {
        out.push_str(&format!("  \"router\": {router},\n"));
    }
    out.push_str("  \"shards\": [\n");
    out.push_str(&shard_objs.join(",\n"));
    if !shard_objs.is_empty() {
        out.push('\n');
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"aggregate\": {}\n}}\n",
        json_object(&aggregate, "  ")
    ));
    out
}

/// Renders a stats body into the `top` dashboard: per section (a router
/// body titles each), counters descending by value, gauges with their
/// high-water marks, histograms with count/sum/mean, and the tail of the
/// trace ring. A replica that failed to answer shows its failure line.
/// Deterministic for a given body: equal values sort by name.
fn render_top(body: &str) -> String {
    let mut out = String::new();
    for section in split_sections(body) {
        match section.origin {
            Origin::Daemon => {}
            Origin::Router => out.push_str("=== router ===\n"),
            Origin::Replica {
                shard,
                replica,
                addr,
            } => out.push_str(&format!(
                "=== shard {shard} replica {replica} addr {addr} ===\n"
            )),
        }
        match Snapshot::parse(section.body) {
            Ok(metrics) => render_dashboard(&metrics, &mut out),
            Err(_) => out.push_str(section.body),
        }
    }
    out
}

fn render_dashboard(m: &Snapshot, out: &mut String) {
    let mut blocks: Vec<String> = Vec::new();
    if !m.counters.is_empty() {
        let mut counters: Vec<(&u64, &String)> = m.counters.iter().map(|(k, v)| (v, k)).collect();
        counters.sort_by(|a, b| b.0.cmp(a.0).then(a.1.cmp(b.1)));
        let mut block = String::from("== counters (by value) ==\n");
        for (v, name) in counters {
            block.push_str(&format!("{v:>12}  {name}\n"));
        }
        blocks.push(block);
    }
    if !m.gauges.is_empty() {
        let mut block = String::from("== gauges (current / high water) ==\n");
        for (name, g) in &m.gauges {
            block.push_str(&format!("{:>12} /{:>11}  {name}\n", g.value, g.max));
        }
        blocks.push(block);
    }
    if !m.histograms.is_empty() {
        let mut block = String::from("== histograms (count / sum / mean) ==\n");
        for (name, h) in &m.histograms {
            let mean = h.sum.checked_div(h.count).unwrap_or(0);
            block.push_str(&format!(
                "{:>8} {:>14} {mean:>12}  {name}\n",
                h.count, h.sum
            ));
        }
        blocks.push(block);
    }
    if !m.trace.is_empty() {
        let mut block = String::from("== trace (most recent last) ==\n");
        let skip = m.trace.len().saturating_sub(16);
        if skip > 0 {
            block.push_str(&format!("  ... {skip} earlier events elided ...\n"));
        }
        for e in &m.trace[skip..] {
            block.push_str(&format!(
                "  trace {} {} {} {}\n",
                e.clock, e.label, e.a, e.b
            ));
        }
        blocks.push(block);
    }
    out.push_str(&blocks.join("\n"));
}

/// Global flags that take a value; they may appear before the command.
const GLOBAL_FLAGS: &[&str] = &[
    "--addr",
    "--retries",
    "--retry-base-ms",
    "--retry-seed",
    "--deadline",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let addr = flag_value(&args, "--addr").unwrap_or_else(|| "127.0.0.1:7311".to_string());
    let opts = match net_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("stridectl: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    // The command is the first argument that is not a global flag/value pair.
    let mut cmd_at = None;
    let mut skip = false;
    for (i, a) in args.iter().enumerate() {
        if skip {
            skip = false;
            continue;
        }
        if GLOBAL_FLAGS.contains(&a.as_str()) {
            skip = true;
            continue;
        }
        cmd_at = Some(i);
        break;
    }
    let Some(cmd_at) = cmd_at else {
        return usage();
    };
    let cmd = args[cmd_at].as_str();
    let rest = &args[cmd_at + 1..];

    let name_of = |rest: &[String]| -> Option<String> {
        rest.first().filter(|s| !s.starts_with("--")).cloned()
    };

    match cmd {
        "submit" => {
            let Some(workload) = name_of(rest) else {
                return usage();
            };
            let text = if let Some(path) = flag_value(rest, "--file") {
                match std::fs::read_to_string(&path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("stridectl: cannot read {path}: {e}");
                        return ExitCode::from(EXIT_USAGE);
                    }
                }
            } else if let Some(builtin) = flag_value(rest, "--builtin") {
                let scale = match flag_value(rest, "--scale") {
                    Some(s) => match parse_scale(&s) {
                        Some(s) => s,
                        None => return usage(),
                    },
                    None => Scale::Test,
                };
                let Some(w) = workload_by_name(&builtin, scale) else {
                    eprintln!("stridectl: unknown built-in workload `{builtin}`");
                    return ExitCode::from(EXIT_USAGE);
                };
                {
                    // Tolerate a closed pipe, same as the response body path.
                    use std::io::Write;
                    let _ = writeln!(
                        std::io::stdout(),
                        "built-in {} train={} ref={}",
                        w.name,
                        w.train_args
                            .iter()
                            .map(|a| a.to_string())
                            .collect::<Vec<_>>()
                            .join(","),
                        w.ref_args
                            .iter()
                            .map(|a| a.to_string())
                            .collect::<Vec<_>>()
                            .join(",")
                    );
                }
                module_to_string(&w.module)
            } else {
                return usage();
            };
            round_trip(&addr, &opts, &Request::SubmitModule { workload, text })
        }
        "profile" | "classify" => {
            let Some(workload) = name_of(rest) else {
                return usage();
            };
            let variant = match parse_variant(rest) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("stridectl: {e}");
                    return ExitCode::from(EXIT_USAGE);
                }
            };
            let args_list = match parse_int_args(&flag_value(rest, "--args").unwrap_or_default()) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("stridectl: {e}");
                    return ExitCode::from(EXIT_USAGE);
                }
            };
            let req = if cmd == "profile" {
                Request::Profile {
                    workload,
                    variant,
                    args: args_list,
                }
            } else {
                Request::Classify {
                    workload,
                    variant,
                    args: args_list,
                }
            };
            round_trip(&addr, &opts, &req)
        }
        "prefetch" => {
            let Some(workload) = name_of(rest) else {
                return usage();
            };
            let variant = match parse_variant(rest) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("stridectl: {e}");
                    return ExitCode::from(EXIT_USAGE);
                }
            };
            let train = parse_int_args(&flag_value(rest, "--train").unwrap_or_default());
            let refa = parse_int_args(&flag_value(rest, "--ref").unwrap_or_default());
            match (train, refa) {
                (Ok(train_args), Ok(ref_args)) => round_trip(
                    &addr,
                    &opts,
                    &Request::Prefetch {
                        workload,
                        variant,
                        train_args,
                        ref_args,
                    },
                ),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("stridectl: {e}");
                    ExitCode::from(EXIT_USAGE)
                }
            }
        }
        "get-profile" => match name_of(rest) {
            Some(workload) => round_trip(&addr, &opts, &Request::GetProfile { workload }),
            None => usage(),
        },
        "merge-profile" => {
            let Some(path) = flag_value(rest, "--file") else {
                return usage();
            };
            match std::fs::read_to_string(&path) {
                Ok(entry_text) => round_trip(&addr, &opts, &Request::MergeProfile { entry_text }),
                Err(e) => {
                    eprintln!("stridectl: cannot read {path}: {e}");
                    ExitCode::from(EXIT_USAGE)
                }
            }
        }
        "stats" => {
            let render = if rest.iter().any(|a| a == "--json") {
                render_stats_json
            } else {
                str::to_string
            };
            print_body(call_body(&addr, &opts, &Request::Stats), render)
        }
        "gc" => round_trip(&addr, &opts, &Request::Gc),
        "route-update" => {
            let parsed = (
                flag_value(rest, "--shard").and_then(|v| v.parse::<u32>().ok()),
                flag_value(rest, "--replica").and_then(|v| v.parse::<u32>().ok()),
                flag_value(rest, "--to"),
            );
            let (Some(shard), Some(replica), Some(to)) = parsed else {
                return usage();
            };
            round_trip(
                &addr,
                &opts,
                &Request::RouteUpdate {
                    shard,
                    replica,
                    addr: to,
                },
            )
        }
        "health" => round_trip(&addr, &opts, &Request::Health),
        "repair" => round_trip(&addr, &opts, &Request::Repair),
        "top" => print_body(call_body(&addr, &opts, &Request::Stats), render_top),
        "shutdown" => round_trip(&addr, &opts, &Request::Shutdown),
        "replay" => replay(&addr, &opts, rest),
        _ => usage(),
    }
}

/// `replay` parameters.
struct ReplayCfg {
    /// Simulated clients (each with its own request and idempotency-id
    /// stream), multiplexed over `threads` connections.
    clients: usize,
    /// Total requests across all simulated clients.
    requests: u64,
    /// Physical connections / OS threads driving the load.
    threads: usize,
    /// Corpus + traffic seed.
    seed: u64,
    /// Generated workloads in the corpus.
    workloads: usize,
    /// Percent of requests that are merges (the rest are reads).
    merge_pct: u64,
    /// Largest tolerable `shed / requests` ratio.
    max_shed_frac: f64,
    /// Optional JSON report path.
    report: Option<String>,
}

fn parse_replay_cfg(rest: &[String]) -> Result<ReplayCfg, String> {
    let mut cfg = ReplayCfg {
        clients: 1000,
        requests: 100_000,
        threads: 16,
        seed: 42,
        workloads: 8,
        merge_pct: 10,
        max_shed_frac: 0.01,
        report: flag_value(rest, "--report"),
    };
    let uint = |flag: &str, min: u64| -> Result<Option<u64>, String> {
        match flag_value(rest, flag) {
            Some(v) => v
                .parse::<u64>()
                .ok()
                .filter(|&n| n >= min)
                .map(Some)
                .ok_or_else(|| format!("bad {flag} `{v}` (expected integer >= {min})")),
            None => Ok(None),
        }
    };
    if let Some(n) = uint("--clients", 1)? {
        cfg.clients = n as usize;
    }
    if let Some(n) = uint("--requests", 1)? {
        cfg.requests = n;
    }
    if let Some(n) = uint("--threads", 1)? {
        cfg.threads = n as usize;
    }
    if let Some(n) = uint("--seed", 0)? {
        cfg.seed = n;
    }
    if let Some(n) = uint("--workloads", 1)? {
        cfg.workloads = n as usize;
    }
    if let Some(n) = uint("--merge-pct", 0)? {
        if n > 100 {
            return Err(format!("bad --merge-pct `{n}` (expected 0..=100)"));
        }
        cfg.merge_pct = n;
    }
    if let Some(v) = flag_value(rest, "--max-shed-frac") {
        cfg.max_shed_frac = v
            .parse::<f64>()
            .ok()
            .filter(|f| (0.0..=1.0).contains(f))
            .ok_or_else(|| format!("bad --max-shed-frac `{v}` (expected 0.0..=1.0)"))?;
    }
    cfg.threads = cfg.threads.min(cfg.clients);
    Ok(cfg)
}

/// One corpus workload as replay traffic: its registration request plus
/// the profile entry each simulated merge carries.
struct ReplayWorkload {
    name: String,
    text: String,
    entry_text: String,
}

/// Builds the replay corpus: `--workloads` generated programs, each
/// profiled locally once (edge-check) so merge traffic carries genuine
/// profile entries against the registered module hash.
fn replay_corpus(cfg: &ReplayCfg) -> Result<Vec<ReplayWorkload>, String> {
    let gen = stride_genwork::GenConfig::campaign();
    (0..cfg.workloads)
        .map(|i| {
            let spec = stride_genwork::generate(cfg.seed, i as u32, &gen);
            let built = stride_genwork::build(&spec);
            let name = spec.name();
            let hash = stride_profdb::module_hash(&built.module);
            let outcome = stride_core::run_profiling(
                &built.module,
                &[0],
                ProfilingVariant::EdgeCheck,
                &PipelineConfig::default(),
            )
            .map_err(|e| format!("profiling generated workload {name}: {e}"))?;
            let entry = stride_profdb::ProfileEntry::from_run(
                name.clone(),
                hash,
                &outcome.edge,
                &outcome.stride,
            );
            Ok(ReplayWorkload {
                name,
                text: module_to_string(&built.module),
                entry_text: entry.to_text(),
            })
        })
        .collect()
}

/// Latency quantiles of one histogram, as a rendered JSON object.
fn latency_json(h: &stride_core::Histogram) -> String {
    format!(
        "{{\"count\": {}, \"sum_us\": {}, \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}}}",
        h.count(),
        h.sum(),
        h.quantile(0.5),
        h.quantile(0.9),
        h.quantile(0.99)
    )
}

fn record_first_error(slot: &Mutex<Option<String>>, message: impl FnOnce() -> String) {
    if let Ok(mut guard) = slot.lock() {
        if guard.is_none() {
            *guard = Some(message());
        }
    }
}

/// Streams the seeded trace and asserts the service invariants. See the
/// usage text for the contract; exit codes: 0 all invariants held,
/// [`EXIT_SERVER`] an invariant failed, [`EXIT_TRANSPORT`] setup could
/// not reach the daemon, [`EXIT_USAGE`] bad flags.
fn replay(addr: &str, opts: &NetOpts, rest: &[String]) -> ExitCode {
    let cfg = match parse_replay_cfg(rest) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("stridectl: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let corpus = match replay_corpus(&cfg) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("stridectl: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };

    // Register the corpus and seed one entry per workload so reads never
    // race the first merge.
    let acked: Vec<AtomicU64> = corpus.iter().map(|_| AtomicU64::new(0)).collect();
    let mut setup = match Client::connect_with(addr, opts.policy) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("stridectl: cannot connect to {addr}: {e}");
            return ExitCode::from(EXIT_TRANSPORT);
        }
    };
    setup.set_id_state(0x5e7_0000_0000);
    for (w, wl) in corpus.iter().enumerate() {
        for req in [
            Request::SubmitModule {
                workload: wl.name.clone(),
                text: wl.text.clone(),
            },
            Request::MergeProfile {
                entry_text: wl.entry_text.clone(),
            },
        ] {
            match setup.call(&req) {
                Ok(Response::Ok(_)) => {}
                Ok(Response::Err { kind, message, .. }) => {
                    eprintln!(
                        "stridectl: replay setup for {}: [{kind}] {message}",
                        wl.name
                    );
                    return ExitCode::from(EXIT_SERVER);
                }
                Err(e) => {
                    eprintln!("stridectl: replay setup for {}: {e}", wl.name);
                    return ExitCode::from(EXIT_TRANSPORT);
                }
            }
        }
        acked[w].fetch_add(1, Ordering::Relaxed);
    }

    // Client-side observability: latency histograms (microseconds) and
    // outcome counters, shared across the driver threads.
    let reg = stride_core::Registry::new();
    let merge_hist = reg.histogram("replay.latency.merge.us");
    let read_hist = reg.histogram("replay.latency.read.us");
    let ok_count = reg.counter("replay.ok");
    let shed_count = reg.counter("replay.shed");
    let failed_count = reg.counter("replay.failed");
    let first_error: Mutex<Option<String>> = Mutex::new(None);

    // Per-client quotas: --requests split evenly, remainder to the
    // lowest client ids; thread t drives clients t, t+T, t+2T, ...
    let per_client = cfg.requests / cfg.clients as u64;
    let remainder = cfg.requests % cfg.clients as u64;
    let quota = |c: usize| per_client + u64::from((c as u64) < remainder);

    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..cfg.threads {
            let (corpus, acked, cfg) = (&corpus, &acked, &cfg);
            let (merge_hist, read_hist) = (merge_hist.clone(), read_hist.clone());
            let (ok_count, shed_count, failed_count) =
                (ok_count.clone(), shed_count.clone(), failed_count.clone());
            let first_error = &first_error;
            scope.spawn(move || {
                let mut client = match Client::connect_with(addr, opts.policy) {
                    Ok(c) => c,
                    Err(e) => {
                        let n: u64 = (t..cfg.clients).step_by(cfg.threads).map(quota).sum();
                        failed_count.add(n);
                        record_first_error(first_error, || {
                            format!("thread {t}: cannot connect: {e}")
                        });
                        return;
                    }
                };
                // (sim client id, its rng, requests left, merges issued)
                let mut sims: Vec<(usize, stride_genwork::Rng, u64, u64)> = (t..cfg.clients)
                    .step_by(cfg.threads)
                    .map(|c| {
                        let rng = stride_genwork::Rng::for_workload(
                            cfg.seed ^ 0x5eed_c11e_717a_11e5,
                            c as u32,
                        );
                        (c, rng, quota(c), 0u64)
                    })
                    .collect();
                let mut active = sims.iter().filter(|s| s.2 > 0).count();
                // Round-robin one request per live client per sweep, so
                // the wire sees interleaved client streams rather than
                // one client's burst at a time.
                while active > 0 {
                    for (c, rng, left, merges) in sims.iter_mut() {
                        if *left == 0 {
                            continue;
                        }
                        *left -= 1;
                        if *left == 0 {
                            active -= 1;
                        }
                        let w = rng.index(corpus.len());
                        let is_merge = rng.next() % 100 < cfg.merge_pct;
                        let req = if is_merge {
                            // Disjoint per-simulated-client idempotency-id
                            // streams: the id state encodes (client, seq).
                            client.set_id_state(((*c as u64 + 1) << 32) | *merges);
                            *merges += 1;
                            Request::MergeProfile {
                                entry_text: corpus[w].entry_text.clone(),
                            }
                        } else {
                            Request::GetProfile {
                                workload: corpus[w].name.clone(),
                            }
                        };
                        let sent = Instant::now();
                        let result = client.call(&req);
                        let us = u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX);
                        if is_merge {
                            merge_hist.observe(us);
                        } else {
                            read_hist.observe(us);
                        }
                        match result {
                            Ok(Response::Ok(_)) => {
                                ok_count.inc();
                                if is_merge {
                                    acked[w].fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            Ok(Response::Err {
                                kind: ErrorKind::Busy | ErrorKind::Unavailable,
                                ..
                            }) => shed_count.inc(),
                            Ok(Response::Err { kind, message, .. }) => {
                                failed_count.inc();
                                record_first_error(first_error, || {
                                    format!("client {c}: [{kind}] {message}")
                                });
                            }
                            Err(e) => {
                                failed_count.inc();
                                record_first_error(first_error, || format!("client {c}: {e}"));
                                // Reconnect and keep draining the quota.
                                if let Ok(fresh) = Client::connect_with(addr, opts.policy) {
                                    client = fresh;
                                }
                            }
                        }
                    }
                }
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();

    let (ok, shed, failed) = (ok_count.get(), shed_count.get(), failed_count.get());
    let issued = merge_hist.count() + read_hist.count();
    let acked_merges: u64 = acked.iter().map(|a| a.load(Ordering::Relaxed)).sum();
    println!(
        "replay: {} clients over {} threads, {} workloads, seed 0x{:x}",
        cfg.clients, cfg.threads, cfg.workloads, cfg.seed
    );
    println!(
        "replay: {issued} requests in {wall_s:.3}s ({:.1} req/s): ok {ok}, shed {shed}, \
         failed {failed}, acked merges {acked_merges}",
        issued as f64 / wall_s.max(1e-9)
    );
    for (label, h) in [("merge", &merge_hist), ("read", &read_hist)] {
        println!(
            "replay: {label} latency us: count {} p50 {} p90 {} p99 {}",
            h.count(),
            h.quantile(0.5),
            h.quantile(0.9),
            h.quantile(0.99)
        );
    }

    // Invariant 1 — the latency histograms account for every issued
    // request (the obs layer saw the whole trace).
    let mut violations: Vec<String> = Vec::new();
    if issued != cfg.requests {
        violations.push(format!(
            "latency histograms cover {issued} requests, expected {}",
            cfg.requests
        ));
    }
    // Invariant 2 — hard failures are not tolerated at any rate.
    if failed > 0 {
        let detail = first_error
            .lock()
            .map(|g| g.clone().unwrap_or_default())
            .unwrap_or_default();
        violations.push(format!("{failed} failed requests (first: {detail})"));
    }
    // Invariant 3 — shedding stays within budget.
    let shed_frac = shed as f64 / cfg.requests as f64;
    if shed_frac > cfg.max_shed_frac {
        violations.push(format!(
            "shed fraction {shed_frac:.4} exceeds budget {:.4}",
            cfg.max_shed_frac
        ));
    }
    // Invariant 4 — no acked merge may be lost: every workload's stored
    // entry must carry at least as many runs as merges acked to clients.
    // (Strictly more is legal only when sheds happened: a merge whose
    // ack was lost in transit at every live replica is answered
    // `unavailable` although it landed — DESIGN.md §13's one exception.)
    let mut workload_rows: Vec<(String, u64, u64)> = Vec::new();
    for (w, wl) in corpus.iter().enumerate() {
        let expect = acked[w].load(Ordering::Relaxed);
        let mut runs = None;
        for _ in 0..10 {
            match setup.call(&Request::GetProfile {
                workload: wl.name.clone(),
            }) {
                Ok(Response::Ok(body)) => {
                    match stride_profdb::ProfileEntry::from_text(&body) {
                        Ok(entry) => runs = Some(entry.runs),
                        Err(e) => violations.push(format!("{}: unreadable entry: {e}", wl.name)),
                    }
                    break;
                }
                Ok(Response::Err {
                    kind: ErrorKind::Busy | ErrorKind::Unavailable,
                    retry_after_ms,
                    ..
                }) => {
                    std::thread::sleep(std::time::Duration::from_millis(
                        retry_after_ms.unwrap_or(100),
                    ));
                }
                Ok(Response::Err { kind, message, .. }) => {
                    violations.push(format!("{}: readback [{kind}] {message}", wl.name));
                    break;
                }
                Err(e) => {
                    violations.push(format!("{}: readback transport: {e}", wl.name));
                    break;
                }
            }
        }
        let got = match runs {
            Some(r) => r,
            None => {
                if !violations.iter().any(|v| v.starts_with(&wl.name)) {
                    violations.push(format!("{}: readback kept shedding", wl.name));
                }
                0
            }
        };
        if got < expect {
            violations.push(format!(
                "{}: acked-merge loss — db has {got} runs, {expect} acked",
                wl.name
            ));
        } else if shed == 0 && failed == 0 && got != expect {
            violations.push(format!(
                "{}: db has {got} runs, expected exactly {expect} (no sheds to explain it)",
                wl.name
            ));
        }
        workload_rows.push((wl.name.clone(), expect, got));
    }
    println!(
        "replay: verified {} workloads: acked merges all present",
        workload_rows.len()
    );

    // Server-side observability round trip, folded into the report.
    let server_stats = match setup.call(&Request::Stats) {
        Ok(Response::Ok(body)) => Some(body),
        _ => {
            violations.push("stats round trip failed after replay".to_string());
            None
        }
    };
    // The router's own section (a single daemon has none, hence null).
    let router_forwarded = server_stats.as_deref().and_then(|body| {
        let router = split_sections(body)
            .into_iter()
            .find(|s| s.origin == Origin::Router)?;
        Snapshot::parse(router.body)
            .ok()?
            .counter("router.forwarded")
    });

    if let Some(path) = &cfg.report {
        let mut out = String::from("{\n  \"bench\": \"replay\",\n");
        out.push_str(&format!(
            "  \"config\": {{\"clients\": {}, \"requests\": {}, \"threads\": {}, \
             \"seed\": {}, \"workloads\": {}, \"merge_pct\": {}, \"max_shed_frac\": {}}},\n",
            cfg.clients,
            cfg.requests,
            cfg.threads,
            cfg.seed,
            cfg.workloads,
            cfg.merge_pct,
            cfg.max_shed_frac
        ));
        out.push_str(&format!(
            "  \"totals\": {{\"ok\": {ok}, \"shed\": {shed}, \"failed\": {failed}, \
             \"acked_merges\": {acked_merges}, \"wall_s\": {wall_s:.3}}},\n"
        ));
        out.push_str(&format!(
            "  \"latency_us\": {{\"merge\": {}, \"read\": {}}},\n",
            latency_json(&merge_hist),
            latency_json(&read_hist)
        ));
        out.push_str(&format!(
            "  \"router_forwarded\": {},\n",
            router_forwarded.map_or("null".into(), |v| v.to_string())
        ));
        out.push_str("  \"workloads\": [\n");
        for (i, (name, expect, got)) in workload_rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{name}\", \"acked\": {expect}, \"runs\": {got}}}{}\n",
                if i + 1 == workload_rows.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        out.push_str("  ],\n  \"violations\": [");
        for (i, v) in violations.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            for c in v.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        out.push_str("]\n}\n");
        if let Err(e) = std::fs::write(path, out) {
            eprintln!("stridectl: cannot write --report file {path}: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
        eprintln!("replay report written to {path}");
    }

    if violations.is_empty() {
        println!("replay: all invariants held");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("stridectl: replay invariant violated: {v}");
        }
        ExitCode::from(EXIT_SERVER)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn daemon_body() -> String {
        let reg = stride_core::Registry::new();
        reg.counter("server.req.profile").add(3);
        reg.counter("server.req.stats").inc();
        reg.gauge("profdb.entries").set(2);
        reg.histogram("server.latency.profile.cycles").observe(1000);
        reg.trace(stride_core::TraceEvent {
            clock: 0,
            label: "server.request",
            a: 0,
            b: 0,
        });
        reg.snapshot_text()
    }

    #[test]
    fn stats_json_carries_gauges_per_replica_and_in_the_aggregate() {
        let replica = daemon_body();
        let body = format!(
            "== router ==\ncounter router.forwarded 4\ngauge router.shards 2 max 2\n\
             == shard 0 replica 0 addr 127.0.0.1:1 ==\n{replica}\
             == shard 1 replica 0 addr 127.0.0.1:2 ==\n{replica}\
             == shard 1 replica 1 addr 127.0.0.1:3 ==\nunreachable: connection refused\n"
        );
        let json = render_stats_json(&body);
        assert!(json.contains("\"gauge.router.shards\": 2"), "{json}");
        assert!(json.contains("\"counter.router.forwarded\": 4"), "{json}");
        assert!(json.contains("\"gauge.profdb.entries\": 2"), "{json}");
        assert!(
            json.contains("\"addr\": \"127.0.0.1:3\", \"stats\": {\n\n    }"),
            "an unreachable replica is an empty object: {json}"
        );
        let aggregate = &json[json.find("\"aggregate\"").unwrap()..];
        assert!(aggregate.contains("\"gauge.profdb.entries\": 4"), "{json}");
        assert!(
            aggregate.contains("\"counter.server.req.profile\": 6"),
            "{json}"
        );
        assert!(
            !aggregate.contains("router."),
            "router values stay out: {json}"
        );

        // A single daemon's body is the whole aggregate.
        let json = render_stats_json(&daemon_body());
        assert!(json.contains("\"shards\": [\n  ],"), "{json}");
        assert!(json.contains("\"gauge.profdb.entries\": 2"), "{json}");
    }

    #[test]
    fn top_renders_a_registry_only_body() {
        let top = render_top(&daemon_body());
        assert_eq!(
            top,
            "== counters (by value) ==\n\
             \x20          3  server.req.profile\n\
             \x20          1  server.req.stats\n\
             \n\
             == gauges (current / high water) ==\n\
             \x20          2 /          2  profdb.entries\n\
             \n\
             == histograms (count / sum / mean) ==\n\
             \x20      1           1000         1000  server.latency.profile.cycles\n\
             \n\
             == trace (most recent last) ==\n\
             \x20 trace 0 server.request 0 0\n"
        );
        let body = "== router ==\ncounter router.forwarded 4\n\
                    == shard 0 replica 0 addr 127.0.0.1:1 ==\nerr io: disk full\n";
        let top = render_top(body);
        assert!(
            top.starts_with("=== router ===\n== counters (by value) ==\n"),
            "{top}"
        );
        assert!(
            top.ends_with("=== shard 0 replica 0 addr 127.0.0.1:1 ===\nerr io: disk full\n"),
            "{top}"
        );
    }
}
