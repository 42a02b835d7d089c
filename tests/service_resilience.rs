//! Resilience integration tests: duplicated and damaged frames against a
//! real loopback daemon. The server's request-id dedup must make retried
//! and duplicated `merge-profile` deliveries merge exactly once, and the
//! client's seeded backoff must be identical from any thread.

use stride_prefetch::core::{FaultInjector, FaultPlan, Snapshot};
use stride_prefetch::ir::{FuncId, InstrId};
use stride_prefetch::profdb::ProfileEntry;
use stride_prefetch::profiling::{LoadStrideProfile, StrideProfile};
use stride_prefetch::server::{
    backoff_schedule, Client, Request, Response, RetryPolicy, Server, ServerConfig, ServiceConfig,
};

fn entry(total: u64) -> ProfileEntry {
    let mut stride = StrideProfile::new();
    stride.insert(
        FuncId::new(0),
        InstrId::new(1),
        LoadStrideProfile {
            top: vec![(48, total)],
            total_freq: total,
            num_zero_stride: 0,
            num_zero_diff: total,
            total_diffs: total,
        },
    );
    ProfileEntry {
        workload: "resilience".into(),
        module_hash: 0xfeed,
        runs: 1,
        edge_tables: vec![vec![total, 0, 3]],
        stride,
    }
}

/// Runs stored in the daemon's profile database.
fn db_runs(stats: &str) -> u64 {
    let snap = Snapshot::parse(stats).expect("stats is a registry snapshot");
    snap.gauge("profdb.runs")
        .unwrap_or_else(|| panic!("profdb.runs missing in:\n{stats}"))
}

/// Merges deduplicated by request id, whichever verb carried them.
fn dedup_hits(stats: &str) -> u64 {
    let snap = Snapshot::parse(stats).expect("stats is a registry snapshot");
    let counter = |name| snap.counter(name).unwrap_or(0);
    counter("server.merge.retried") + counter("repl.deltas_deduped")
}

fn start_server(tag: &str, inject: Option<&str>) -> (Server, std::path::PathBuf) {
    let db_root = std::env::temp_dir().join(format!("svc-resilience-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&db_root);
    let mut service = ServiceConfig::new(db_root.clone());
    if let Some(spec) = inject {
        let plan = FaultPlan::parse(spec).expect("fault plan parses");
        service.injector = Some(FaultInjector::new(plan));
    }
    let server = Server::start(ServerConfig::loopback(service)).expect("daemon starts");
    (server, db_root)
}

#[test]
fn duplicated_merge_frame_merges_exactly_once() {
    let (server, db_root) = start_server("dup", None);
    let mut client = Client::connect(server.addr()).expect("connect");

    // Duplicate the first request frame on the wire: the server sees the
    // same merge (same request id) twice back to back.
    client.set_dup_request_nth(Some(1));
    let resp = client
        .call(&Request::MergeProfile {
            entry_text: entry(10).to_text(),
        })
        .expect("merge round trip");
    assert!(matches!(resp, Response::Ok(_)), "{resp:?}");

    // A separate merge with a fresh id must still accumulate.
    let resp = client
        .call(&Request::MergeProfile {
            entry_text: entry(5).to_text(),
        })
        .expect("second merge round trip");
    assert!(matches!(resp, Response::Ok(_)), "{resp:?}");

    let stats = match client.call(&Request::Stats).expect("stats") {
        Response::Ok(body) => body,
        other => panic!("{other:?}"),
    };
    assert_eq!(db_runs(&stats), 2, "duplicate was double-merged");
    assert_eq!(dedup_hits(&stats), 1, "{stats}");

    drop(client);
    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&db_root);
}

#[test]
fn truncated_response_is_retried_and_merges_exactly_once() {
    // The daemon truncates its first response frame mid-write and drops
    // the connection: the client must retry the merge over a fresh
    // connection with the same request id, and the server must dedup it.
    let (server, db_root) = start_server("trunc", Some("net-trunc=1"));
    let mut client = Client::connect_with(
        server.addr(),
        RetryPolicy {
            base_delay_ms: 1,
            max_delay_ms: 5,
            ..RetryPolicy::default()
        },
    )
    .expect("connect");

    let resp = client
        .call(&Request::MergeProfile {
            entry_text: entry(10).to_text(),
        })
        .expect("merge survives a truncated response");
    assert!(matches!(resp, Response::Ok(_)), "{resp:?}");
    assert!(
        !client.trace().is_empty(),
        "the truncated response should leave a retry trace"
    );

    let stats = match client.call(&Request::Stats).expect("stats") {
        Response::Ok(body) => body,
        other => panic!("{other:?}"),
    };
    assert_eq!(db_runs(&stats), 1, "retried merge double-counted");
    assert_eq!(dedup_hits(&stats), 1, "{stats}");

    drop(client);
    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&db_root);
}

#[test]
fn reset_connection_is_retried_transparently() {
    let (server, db_root) = start_server("reset", Some("net-reset=1"));
    let mut client = Client::connect_with(
        server.addr(),
        RetryPolicy {
            base_delay_ms: 1,
            max_delay_ms: 5,
            ..RetryPolicy::default()
        },
    )
    .expect("connect");

    let resp = client
        .call(&Request::MergeProfile {
            entry_text: entry(7).to_text(),
        })
        .expect("merge survives a reset connection");
    assert!(matches!(resp, Response::Ok(_)), "{resp:?}");

    let stats = match client.call(&Request::Stats).expect("stats") {
        Response::Ok(body) => body,
        other => panic!("{other:?}"),
    };
    assert_eq!(db_runs(&stats), 1, "{stats}");

    drop(client);
    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&db_root);
}

#[test]
fn backoff_schedule_is_identical_from_any_thread() {
    let policy = RetryPolicy {
        max_attempts: 8,
        base_delay_ms: 10,
        max_delay_ms: 2000,
        jitter_seed: 0xdead_beef,
    };
    let reference = backoff_schedule(&policy);
    let schedules: Vec<Vec<u64>> = std::thread::scope(|scope| {
        (0..8)
            .map(|_| scope.spawn(|| backoff_schedule(&policy)))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("schedule thread"))
            .collect()
    });
    for s in schedules {
        assert_eq!(
            s, reference,
            "backoff schedule must not depend on the thread"
        );
    }
}
