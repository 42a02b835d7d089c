//! `strided` — the stride-profiling daemon.
//!
//! ```text
//! strided serve [--addr HOST:PORT] [--workers N] [--queue N]
//!               [--db PATH] [--fuel N] [--inject SPEC]
//!               [--announce ROUTER/SHARD/REPLICA]
//! ```
//!
//! Prints `listening on ADDR` once the socket is bound (scripts wait for
//! that line), then serves until a `shutdown` request arrives.
//!
//! With `--announce`, the daemon registers itself with its shard router
//! after binding: it sends the router a `route-update` naming its own
//! address and replica slot. A crashed replica restarted by a supervisor
//! (on any free port) rejoins the cluster unattended — the router's
//! revival routine re-teaches its modules and runs an anti-entropy
//! repair round, which ships it the merges it missed.

use std::process::ExitCode;
use stride_core::{FaultInjector, FaultPlan};
use stride_server::{
    status_line, Client, Request, Response, RetryPolicy, Server, ServerConfig, ServiceConfig,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: strided serve [--addr HOST:PORT] [--workers N] [--queue N]\n\
         \x20                    [--db PATH] [--fuel N] [--inject SPEC]\n\
         \x20                    [--announce ROUTER/SHARD/REPLICA]\n\
         \n\
         \x20 --addr     listen address (default 127.0.0.1:7311; :0 = ephemeral)\n\
         \x20 --workers  worker threads (default 4)\n\
         \x20 --queue    connection queue capacity (default 64)\n\
         \x20 --db       profile database directory (default ./profdb)\n\
         \x20 --fuel     per-request fuel deadline (default 2000000000)\n\
         \x20 --inject   server-side fault plan, e.g. profile-zero-noise@mcf:0.5\n\
         \x20 --announce self-register with the router at HOST:PORT as\n\
         \x20            shard SHARD replica REPLICA (e.g. 127.0.0.1:7310/1/0)"
    );
    ExitCode::from(2)
}

/// `HOST:PORT/SHARD/REPLICA` → (router address, shard, replica).
fn parse_announce(spec: &str) -> Option<(String, u32, u32)> {
    let (rest, replica) = spec.rsplit_once('/')?;
    let (router, shard) = rest.rsplit_once('/')?;
    Some((
        router.to_string(),
        shard.parse().ok()?,
        replica.parse().ok()?,
    ))
}

/// Registers this daemon with its router (bounded retries — the router
/// may still be starting). Best-effort: the router's probe loop also
/// notices a reachable replica on its own.
fn announce(router: &str, shard: u32, replica: u32, my_addr: &str) {
    let req = Request::RouteUpdate {
        shard,
        replica,
        addr: my_addr.to_string(),
    };
    for _ in 0..40 {
        if let Ok(mut client) = Client::connect_with(router, RetryPolicy::no_retries()) {
            if let Ok(Response::Ok(_)) = client.call(&req) {
                status_line(format_args!(
                    "announced to {router} as shard {shard} replica {replica}"
                ));
                return;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(250));
    }
    eprintln!("strided: announce to {router} failed; relying on router probes");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("serve") {
        return usage();
    }

    let mut addr = "127.0.0.1:7311".to_string();
    let mut workers = 4usize;
    let mut queue_cap = 64usize;
    let mut db = std::path::PathBuf::from("profdb");
    let mut fuel: Option<u64> = None;
    let mut inject: Option<String> = None;
    let mut announce_spec: Option<(String, u32, u32)> = None;

    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("strided: `{flag}` needs a value");
            return usage();
        };
        match flag.as_str() {
            "--addr" => addr = value.clone(),
            "--workers" => match value.parse() {
                Ok(n) => workers = n,
                Err(_) => return usage(),
            },
            "--queue" => match value.parse() {
                Ok(n) => queue_cap = n,
                Err(_) => return usage(),
            },
            "--db" => db = std::path::PathBuf::from(value),
            "--fuel" => match value.parse() {
                Ok(n) => fuel = Some(n),
                Err(_) => return usage(),
            },
            "--inject" => inject = Some(value.clone()),
            "--announce" => match parse_announce(value) {
                Some(spec) => announce_spec = Some(spec),
                None => {
                    eprintln!("strided: bad --announce spec `{value}` (want ROUTER/SHARD/REPLICA)");
                    return usage();
                }
            },
            _ => {
                eprintln!("strided: unknown flag `{flag}`");
                return usage();
            }
        }
    }

    let mut service = ServiceConfig::new(db);
    if let Some(fuel) = fuel {
        service.request_fuel = fuel;
    }
    if let Some(spec) = inject {
        match FaultPlan::parse(&spec) {
            Ok(plan) => service.injector = Some(FaultInjector::new(plan)),
            Err(e) => {
                eprintln!("strided: bad --inject plan: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let config = ServerConfig {
        addr,
        workers,
        queue_cap,
        service,
    };
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("strided: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Surface what startup recovery had to do before accepting traffic, so
    // operators (and the chaos harness) can audit crash handling.
    match server.service().recovery_report() {
        Some(report) if report.eventful() => status_line(format_args!("{report}")),
        _ => status_line(format_args!("recovery: clean start")),
    }
    status_line(format_args!("listening on {}", server.addr()));
    let announcer = announce_spec.map(|(router, shard, replica)| {
        let my_addr = server.addr().to_string();
        std::thread::spawn(move || announce(&router, shard, replica, &my_addr))
    });
    server.join();
    if let Some(handle) = announcer {
        let _ = handle.join();
    }
    status_line(format_args!("strided: shut down cleanly"));
    ExitCode::SUCCESS
}
