//! Loopback tests for the daemon's observability surface: the extended
//! `stats` body must carry per-request latency histograms (denominated in
//! VM cycles, never wall-clock), per-verb and per-error-kind counters,
//! shed/retry tallies, and the queue-depth high-water mark — including
//! under a seeded server-side fault plan.

use std::net::TcpStream;
use stride_prefetch::core::{FaultInjector, FaultPlan, ProfilingVariant, Snapshot};
use stride_prefetch::ir::module_to_string;
use stride_prefetch::server::{
    read_frame, Client, ErrorKind, Request, Response, Server, ServerConfig, ServiceConfig,
};
use stride_prefetch::workloads::{workload_by_name, Scale};

fn ok_body(resp: Response) -> String {
    match resp {
        Response::Ok(body) => body,
        Response::Err { kind, message, .. } => panic!("unexpected error [{kind}]: {message}"),
    }
}

/// The value of the counter `name` in a stats body.
fn counter_value(stats: &str, name: &str) -> Option<u64> {
    let snap = Snapshot::parse(stats).expect("stats is a registry snapshot");
    snap.counter(name)
}

#[test]
fn stats_expose_latency_histograms_queue_high_water_and_shed() {
    let w = workload_by_name("mcf", Scale::Test).expect("known workload");
    let db_root = std::env::temp_dir().join(format!("daemon-metrics-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&db_root);
    let mut config = ServerConfig::loopback(ServiceConfig::new(db_root.clone()));
    config.workers = 1;
    config.queue_cap = 1;
    let server = Server::start(config).expect("daemon starts");
    let addr = server.addr();

    // Phase 1: one request per instrumented verb.
    {
        let mut client = Client::connect(addr).expect("connect");
        ok_body(
            client
                .call(&Request::SubmitModule {
                    workload: w.name.to_string(),
                    text: module_to_string(&w.module),
                })
                .expect("submit"),
        );
        ok_body(
            client
                .call(&Request::Profile {
                    workload: w.name.to_string(),
                    variant: ProfilingVariant::EdgeCheck,
                    args: w.train_args.clone(),
                })
                .expect("profile"),
        );
        ok_body(
            client
                .call(&Request::Classify {
                    workload: w.name.to_string(),
                    variant: ProfilingVariant::EdgeCheck,
                    args: w.train_args.clone(),
                })
                .expect("classify"),
        );
        ok_body(
            client
                .call(&Request::Prefetch {
                    workload: w.name.to_string(),
                    variant: ProfilingVariant::EdgeCheck,
                    train_args: w.train_args.clone(),
                    ref_args: w.ref_args.clone(),
                })
                .expect("prefetch"),
        );
    }

    // Phase 2: overflow the single-slot connection queue so the acceptor
    // sheds one connection with `busy`.
    let hold = TcpStream::connect(addr).expect("hold connects");
    std::thread::sleep(std::time::Duration::from_millis(50));
    let fill = TcpStream::connect(addr).expect("fill connects");
    std::thread::sleep(std::time::Duration::from_millis(50));
    let mut refused = TcpStream::connect(addr).expect("refused connects");
    let payload = read_frame(&mut refused)
        .expect("read busy frame")
        .expect("frame present");
    let resp = Response::from_bytes(&payload).expect("busy response parses");
    assert!(
        matches!(
            resp,
            Response::Err {
                kind: ErrorKind::Busy,
                ..
            }
        ),
        "{resp:?}"
    );
    drop(hold);
    drop(fill);
    std::thread::sleep(std::time::Duration::from_millis(50));

    // Phase 3: the stats body carries the whole observability surface.
    let mut client = Client::connect(addr).expect("stats client connects");
    let stats = ok_body(client.call(&Request::Stats).expect("stats"));

    for verb in ["submit", "profile", "classify", "prefetch"] {
        assert_eq!(
            counter_value(&stats, &format!("server.req.{verb}")),
            Some(1),
            "verb counter {verb}: {stats}"
        );
    }
    for hist in [
        "server.latency.profile.cycles",
        "server.latency.classify.cycles",
        "server.latency.prefetch.cycles",
    ] {
        assert!(
            stats.contains(&format!("histogram {hist} count 1 sum ")),
            "latency histogram {hist}: {stats}"
        );
    }
    assert_eq!(
        counter_value(&stats, "server.shed"),
        Some(1),
        "shed counter: {stats}"
    );
    // The fill connection sat in the queue while the worker held the
    // first: depth reached at least 1 and the gauge kept the high water.
    let depth_line = stats
        .lines()
        .find(|l| l.starts_with("gauge server.queue_depth "))
        .unwrap_or_else(|| panic!("queue_depth gauge missing: {stats}"));
    let max: u64 = depth_line
        .rsplit(' ')
        .next()
        .and_then(|v| v.parse().ok())
        .expect("gauge max parses");
    assert!(max >= 1, "queue high water {max}: {stats}");
    // Per-request trace events, clocked by sequence number.
    assert!(stats.contains("trace 0 server.request 0 0"), "{stats}");

    ok_body(client.call(&Request::Shutdown).expect("shutdown"));
    server.join();
    let _ = std::fs::remove_dir_all(&db_root);
}

#[test]
fn stats_count_faulted_requests_and_retried_merges() {
    let w = workload_by_name("mcf", Scale::Test).expect("known workload");
    let db_root =
        std::env::temp_dir().join(format!("daemon-metrics-fault-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&db_root);
    let mut service = ServiceConfig::new(db_root.clone());
    let plan = FaultPlan::parse("seed=7;malformed-ir@mcf").expect("plan parses");
    service.injector = Some(FaultInjector::new(plan));
    let server = Server::start(ServerConfig::loopback(service)).expect("daemon starts");
    let addr = server.addr();

    let mut client = Client::connect(addr).expect("connect");
    ok_body(
        client
            .call(&Request::SubmitModule {
                workload: "mcf".to_string(),
                text: module_to_string(&w.module),
            })
            .expect("submit faulted"),
    );
    // The fault plan corrupts this workload's IR server-side: the profile
    // request fails with a typed parse error.
    let resp = client
        .call(&Request::Profile {
            workload: "mcf".to_string(),
            variant: ProfilingVariant::EdgeCheck,
            args: w.train_args.clone(),
        })
        .expect("round trip");
    assert!(
        matches!(
            resp,
            Response::Err {
                kind: ErrorKind::Parse,
                ..
            }
        ),
        "{resp:?}"
    );

    // A workload the plan does not target profiles cleanly; its entry
    // feeds a merge whose request frame is delivered twice (client-side
    // duplication fault), which the idempotency id must absorb.
    ok_body(
        client
            .call(&Request::SubmitModule {
                workload: "clean".to_string(),
                text: module_to_string(&w.module),
            })
            .expect("submit clean"),
    );
    let entry_text = ok_body(
        client
            .call(&Request::Profile {
                workload: "clean".to_string(),
                variant: ProfilingVariant::EdgeCheck,
                args: w.train_args.clone(),
            })
            .expect("profile clean"),
    );
    client.set_dup_request_nth(Some(5)); // the next call is the 5th
    ok_body(
        client
            .call(&Request::MergeProfile { entry_text })
            .expect("merge"),
    );
    client.set_dup_request_nth(None);

    let stats = ok_body(client.call(&Request::Stats).expect("stats"));
    assert_eq!(
        counter_value(&stats, "server.error.parse"),
        Some(1),
        "parse-error tally: {stats}"
    );
    assert_eq!(
        counter_value(&stats, "server.req.profile"),
        Some(2),
        "profile verb counter: {stats}"
    );
    assert_eq!(
        counter_value(&stats, "server.merge.retried"),
        Some(1),
        "retried-merge counter: {stats}"
    );
    // Only the clean profile landed a latency observation; the faulted
    // one failed before a run completed.
    assert!(
        stats.contains("histogram server.latency.profile.cycles count 1 sum "),
        "{stats}"
    );

    ok_body(client.call(&Request::Shutdown).expect("shutdown"));
    server.join();
    let _ = std::fs::remove_dir_all(&db_root);
}
