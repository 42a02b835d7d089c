//! `strided-router` — the shard router daemon.
//!
//! ```text
//! strided-router serve [--addr HOST:PORT] [--workers N]
//!                      [--hints DIR] [--probe-every N]
//!                      --shard ADDR[,ADDR...] [--shard ...]
//! ```
//!
//! Each `--shard` flag declares one shard's replica addresses, in shard
//! order (the first flag is shard 0). Prints `routing N shard(s)` and
//! `listening on ADDR` once bound; scripts wait for the latter.
//!
//! `--hints` names the directory for the failure-detector snapshot
//! (`health.txt`, its only file); pointing a restarted router at the
//! same directory resumes suspicion counts. Without it the router uses a
//! scratch directory. A replica that missed merges — dead, wiped, or
//! just unreachable for a moment — is caught up by anti-entropy repair,
//! which needs no router state on disk.

use std::process::ExitCode;
use stride_server::{status_line, RouterConfig, RouterServer};

fn usage() -> ExitCode {
    eprintln!(
        "usage: strided-router serve [--addr HOST:PORT] [--workers N]\n\
         \x20                           [--hints DIR] [--probe-every N]\n\
         \x20                           --shard ADDR[,ADDR...] [--shard ...]\n\
         \n\
         \x20 --addr        listen address (default 127.0.0.1:7310; :0 = ephemeral)\n\
         \x20 --workers     worker threads (default 4)\n\
         \x20 --hints       directory for the failure-detector snapshot\n\
         \x20               (default: a scratch directory)\n\
         \x20 --probe-every probe replicas every N handled requests (default 8)\n\
         \x20 --shard       one shard's replica addresses, comma-separated;\n\
         \x20               repeat per shard (flag order = shard index)"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("serve") {
        return usage();
    }

    let mut addr = "127.0.0.1:7310".to_string();
    let mut workers = 4usize;
    let mut shards: Vec<Vec<String>> = Vec::new();
    let mut hint_root: Option<std::path::PathBuf> = None;
    let mut probe_every: Option<u64> = None;

    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("strided-router: `{flag}` needs a value");
            return usage();
        };
        match flag.as_str() {
            "--addr" => addr = value.clone(),
            "--workers" => match value.parse() {
                Ok(n) => workers = n,
                Err(_) => return usage(),
            },
            "--hints" => hint_root = Some(std::path::PathBuf::from(value)),
            "--probe-every" => match value.parse() {
                Ok(n) => probe_every = Some(n),
                Err(_) => return usage(),
            },
            "--shard" => {
                let replicas: Vec<String> = value
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
                if replicas.is_empty() {
                    eprintln!("strided-router: `--shard` needs at least one address");
                    return usage();
                }
                shards.push(replicas);
            }
            _ => {
                eprintln!("strided-router: unknown flag `{flag}`");
                return usage();
            }
        }
    }
    if shards.is_empty() {
        eprintln!("strided-router: at least one `--shard` is required");
        return usage();
    }

    let mut config = RouterConfig {
        addr,
        workers,
        hint_root,
        ..RouterConfig::loopback(shards)
    };
    if let Some(every) = probe_every {
        config.probe_every = every;
    }
    status_line(format_args!("routing {} shard(s)", config.shards.len()));
    let server = match RouterServer::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("strided-router: {e}");
            return ExitCode::FAILURE;
        }
    };
    status_line(format_args!("listening on {}", server.addr()));
    server.join();
    status_line(format_args!("strided-router: shut down cleanly"));
    ExitCode::SUCCESS
}
