//! Router integration: key-range sharding, merge replication across a
//! shard's replicas, and graceful degradation when a whole shard dies.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use stride_core::Snapshot;
use stride_profdb::{DeltaRecord, ProfileEntry, ShardMap};
use stride_profiling::StrideProfile;
use stride_server::{
    decode_request, read_frame, split_sections, write_frame, Client, ErrorKind, Origin, Request,
    Response, RetryPolicy, RouterConfig, RouterServer, Server, ServerConfig, ServiceConfig,
};

fn tmp_root(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("stride-router-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Boots `shards × replicas` daemons and a router over them. Returns
/// (router, backends, roots).
fn boot_cluster(
    tag: &str,
    shards: usize,
    replicas: usize,
) -> (RouterServer, Vec<Vec<Server>>, Vec<std::path::PathBuf>) {
    let mut backends = Vec::new();
    let mut topology = Vec::new();
    let mut roots = Vec::new();
    for k in 0..shards {
        let mut row = Vec::new();
        let mut addrs = Vec::new();
        for r in 0..replicas {
            let root = tmp_root(&format!("{tag}-s{k}r{r}"));
            roots.push(root.clone());
            let server = Server::start(ServerConfig::loopback(ServiceConfig::new(root)))
                .expect("start backend");
            addrs.push(server.addr().to_string());
            row.push(server);
        }
        backends.push(row);
        topology.push(addrs);
    }
    let router = RouterServer::start(RouterConfig::loopback(topology)).expect("start router");
    (router, backends, roots)
}

fn entry_text(workload: &str, module_hash: u64) -> String {
    ProfileEntry {
        workload: workload.into(),
        module_hash,
        runs: 1,
        edge_tables: vec![vec![5, 0, 3]],
        stride: StrideProfile::new(),
    }
    .to_text()
}

/// The router section's registry snapshot, and each answering replica
/// section's (a down replica's section is one `unreachable:` line).
fn stats_sections(body: &str) -> (Snapshot, HashMap<(usize, usize), Snapshot>) {
    let mut router = None;
    let mut replicas = HashMap::new();
    for section in split_sections(body) {
        match (section.origin, Snapshot::parse(section.body)) {
            (Origin::Router, metrics) => router = Some(metrics.expect("router section parses")),
            (Origin::Replica { shard, replica, .. }, Ok(metrics)) => {
                replicas.insert((shard, replica), metrics);
            }
            (Origin::Replica { .. }, Err(_)) => {}
            (Origin::Daemon, _) => panic!("a router body has no headerless section:\n{body}"),
        }
    }
    (router.expect("a router section"), replicas)
}

fn entries(s: &Snapshot) -> u64 {
    s.gauge("profdb.entries").expect("profdb.entries gauge")
}

#[test]
fn merges_replicate_to_every_replica_of_the_owning_shard() {
    let (router, backends, roots) = boot_cluster("repl", 3, 2);
    let mut client = Client::connect(router.addr()).unwrap();

    // Spread keys across shards; the golden ShardMap tells us the owner.
    let map = ShardMap::new(3);
    let keys: Vec<(String, u64)> = (0..9u64).map(|i| (format!("wl{i}"), 0x1000 + i)).collect();
    let mut per_shard = vec![0u64; 3];
    for (w, h) in &keys {
        per_shard[map.shard_of(w, *h) as usize] += 1;
        let resp = client
            .call(&Request::MergeProfile {
                entry_text: entry_text(w, *h),
            })
            .unwrap();
        assert!(matches!(resp, Response::Ok(_)), "{resp:?}");
    }
    assert!(
        per_shard.iter().all(|&n| n > 0),
        "keys missed a shard: {per_shard:?}"
    );

    let Response::Ok(body) = client.call(&Request::Stats).unwrap() else {
        panic!("stats failed")
    };
    let (router_stats, sections) = stats_sections(&body);
    assert_eq!(router_stats.counter("router.forwarded"), Some(9), "{body}");
    assert_eq!(router_stats.gauge("router.shards"), Some(3), "{body}");
    for k in 0..3 {
        for r in 0..2 {
            assert_eq!(
                entries(&sections[&(k, r)]),
                per_shard[k],
                "shard {k} replica {r} entry count"
            );
            let health = format!("router.health.s{k}r{r}");
            assert_eq!(router_stats.gauge(&health), Some(0), "{body}");
        }
    }

    let resp = client.call(&Request::Shutdown).unwrap();
    assert!(matches!(resp, Response::Ok(_)), "{resp:?}");
    router.join();
    for row in backends {
        for b in row {
            b.join();
        }
    }
    for root in roots {
        let _ = std::fs::remove_dir_all(root);
    }
}

/// Tentpole: divergent replicas (one missed a delta the other holds in
/// its retention window) converge byte-identically after a `repair`
/// round, with no operator involvement beyond asking for the round.
#[test]
fn repair_round_heals_divergent_replicas() {
    let (router, backends, roots) = boot_cluster("repair", 1, 2);
    let mut client = Client::connect(router.addr()).unwrap();

    // Seed both replicas through the router so their stores agree.
    let resp = client
        .call(&Request::MergeProfile {
            entry_text: entry_text("base", 0x4000),
        })
        .unwrap();
    assert!(matches!(resp, Response::Ok(_)), "{resp:?}");

    // Diverge replica 0 behind the router's back: a delta applied only
    // there (as if replica 1 missed a replication delivery).
    let batch = stride_profdb::encode_delta_batch(&[stride_profdb::DeltaRecord {
        req_id: 0xd1ff,
        dot: None,
        entry_text: entry_text("drifted", 0x4001),
    }]);
    let mut direct = Client::connect(backends[0][0].addr()).unwrap();
    let resp = direct
        .call(&Request::SyncDelta { batch_text: batch })
        .unwrap();
    assert!(matches!(resp, Response::Ok(_)), "{resp:?}");
    // Release the direct connection: a held-open socket would pin a
    // backend worker past shutdown.
    drop(direct);

    // One repair round detects the digest mismatch and cross-sends the
    // retained window; dedup absorbs the overlap.
    let Response::Ok(body) = client.call(&Request::Repair).unwrap() else {
        panic!("repair failed")
    };
    assert!(
        body.contains("repair shard=0 divergent=true"),
        "divergence missed: {body}"
    );
    let Response::Ok(body) = client.call(&Request::Repair).unwrap() else {
        panic!("repair failed")
    };
    assert!(
        body.contains("repair shard=0 divergent=false"),
        "repair did not converge: {body}"
    );

    let Response::Ok(body) = client.call(&Request::Stats).unwrap() else {
        panic!("stats failed")
    };
    let (_, sections) = stats_sections(&body);
    assert_eq!(entries(&sections[&(0, 0)]), 2, "{body}");
    assert_eq!(entries(&sections[&(0, 1)]), 2, "{body}");

    let resp = client.call(&Request::Shutdown).unwrap();
    assert!(matches!(resp, Response::Ok(_)), "{resp:?}");
    router.join();
    for row in backends {
        for b in row {
            b.join();
        }
    }
    for root in roots {
        let _ = std::fs::remove_dir_all(root);
    }
}

/// The `runs` line of a replica's entry file, and the file's bytes.
fn stored_runs(root: &std::path::Path, workload: &str, module_hash: u64) -> (u64, Vec<u8>) {
    try_stored_runs(root, workload, module_hash).unwrap_or_else(|e| panic!("{e}"))
}

/// [`stored_runs`], or why the file does not hold them.
fn try_stored_runs(
    root: &std::path::Path,
    workload: &str,
    module_hash: u64,
) -> Result<(u64, Vec<u8>), String> {
    let path = root.join(format!("{workload}@{module_hash:016x}.profdb"));
    let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = String::from_utf8_lossy(&bytes)
        .lines()
        .find_map(|l| l.strip_prefix("runs ")?.parse().ok())
        .ok_or_else(|| format!("no runs line in {}", path.display()))?;
    Ok((runs, bytes))
}

/// More routed merges than a replica remembers idempotency ids for,
/// then a divergence behind the router's back: repair ships each
/// replica only the deltas it lacks, so no merge is applied twice.
#[test]
fn repair_after_more_merges_than_the_id_window_applies_each_merge_once() {
    const MERGES: u64 = 4_200;
    let (router, backends, roots) = boot_cluster("deep", 1, 2);
    let mut client = Client::connect(router.addr()).unwrap();
    let text = entry_text("deep", 0x5000);
    // The seeded run, then the acked merges.
    for i in 0..=MERGES {
        let resp = client
            .call(&Request::MergeProfile {
                entry_text: text.clone(),
            })
            .unwrap();
        assert!(matches!(resp, Response::Ok(_)), "merge {i}: {resp:?}");
    }

    // Diverge replica 0 behind the router's back: one more acked merge,
    // applied only there.
    let batch = stride_profdb::encode_delta_batch(&[DeltaRecord {
        req_id: 0xd1ff_0001,
        dot: None,
        entry_text: text,
    }]);
    let mut direct = Client::connect(backends[0][0].addr()).unwrap();
    let resp = direct
        .call(&Request::SyncDelta { batch_text: batch })
        .unwrap();
    assert!(matches!(resp, Response::Ok(_)), "{resp:?}");
    drop(direct);

    let Response::Ok(body) = client.call(&Request::Repair).unwrap() else {
        panic!("repair failed")
    };
    let want = 1 + MERGES + 1;
    let (runs0, bytes0) = stored_runs(&roots[0], "deep", 0x5000);
    let (runs1, bytes1) = stored_runs(&roots[1], "deep", 0x5000);
    assert_eq!(
        (runs0, runs1),
        (want, want),
        "a merge was lost or applied twice"
    );
    assert_eq!(bytes0, bytes1, "replica entry files differ");
    assert_eq!(body, "repair shard=0 divergent=true resent=1\n");

    let resp = client.call(&Request::Shutdown).unwrap();
    assert!(matches!(resp, Response::Ok(_)), "{resp:?}");
    router.join();
    for row in backends {
        for b in row {
            b.join();
        }
    }
    for root in roots {
        let _ = std::fs::remove_dir_all(root);
    }
}

/// Replicas dedup a delta by its dot before its id, so two routers
/// started over scratch hint roots (nothing durable tells them apart)
/// must not stamp the same dots: the second merge would be acked yet
/// stored nowhere.
#[test]
fn routers_over_scratch_hint_roots_never_reuse_dots() {
    let (first, backends, roots) = boot_cluster("scratch", 1, 2);
    let topology = vec![backends[0]
        .iter()
        .map(|b| b.addr().to_string())
        .collect::<Vec<_>>()];
    let merge_once = |router: &RouterServer| {
        let mut client = Client::connect(router.addr()).unwrap();
        let resp = client
            .call(&Request::MergeProfile {
                entry_text: entry_text("scratch", 0x7000),
            })
            .unwrap();
        assert!(matches!(resp, Response::Ok(_)), "{resp:?}");
    };
    merge_once(&first);
    first.shutdown_and_join();
    let second = RouterServer::start(RouterConfig::loopback(topology)).expect("start router");
    merge_once(&second);
    for root in &roots {
        assert_eq!(
            stored_runs(root, "scratch", 0x7000).0,
            2,
            "{}",
            root.display()
        );
    }

    second.shutdown_and_join();
    for row in backends {
        for b in row {
            b.shutdown_and_join();
        }
    }
    for root in roots {
        let _ = std::fs::remove_dir_all(root);
    }
}

/// With probing off no repair round ever runs, yet the floor still
/// advances on the merge path: after thousands of routed merges a
/// replica's checkpointed log carries only the few deltas above the
/// last floor, not one per merge — also while its sibling is dead, since
/// the floor is taken over the live replicas. The dead sibling, revived
/// below that floor, converges by a full-state transfer.
#[test]
fn repair_set_stays_bounded_with_probing_off() {
    bounded_repair_set("floor", 3_000, false);
    bounded_repair_set("floor-dead", 10_000, true);
}

fn bounded_repair_set(tag: &str, merges: u64, sibling_dead: bool) {
    let roots = [
        tmp_root(&format!("{tag}-s0r0")),
        tmp_root(&format!("{tag}-s0r1")),
    ];
    let start = |root: &std::path::PathBuf| {
        Server::start(ServerConfig::loopback(ServiceConfig::new(root.clone())))
            .expect("start backend")
    };
    let mut backends: Vec<Server> = roots.iter().map(start).collect();
    let router = RouterServer::start(RouterConfig {
        probe_every: 0,
        ..RouterConfig::loopback(vec![backends
            .iter()
            .map(|b| b.addr().to_string())
            .collect()])
    })
    .expect("start router");
    if sibling_dead {
        backends.pop().expect("replica 1").shutdown_and_join();
    }
    let mut client = Client::connect(router.addr()).unwrap();
    for i in 0..merges {
        let resp = client
            .call(&Request::MergeProfile {
                entry_text: entry_text("floor", 0x8000),
            })
            .unwrap();
        assert!(matches!(resp, Response::Ok(_)), "merge {i}: {resp:?}");
    }
    // A checkpoint carries the unpruned deltas into the fresh log as `D`
    // records.
    for b in &backends {
        b.service().checkpoint();
    }
    let bound = 2 * stride_server::router::FLOOR_EVERY_DELIVERIES as usize;
    for (b, root) in backends.iter().zip(&roots) {
        assert_eq!(stored_runs(root, "floor", 0x8000).0, merges);
        let scan = stride_profdb::scan_wal(root, &stride_profdb::DiskFaults::default()).unwrap();
        assert!(scan.clean_footer, "{}", root.display());
        let carried = scan
            .items
            .iter()
            .filter(|item| {
                matches!(item, stride_profdb::ScanItem::Record { record, .. }
                    if record.kind == stride_profdb::RecordKind::Delta)
            })
            .count();
        assert!(
            carried <= bound,
            "{} ({tag}): {carried} deltas carried past the checkpoint, want at most {bound}",
            b.addr()
        );
    }
    if sibling_dead {
        // Its siblings pruned every delta it lacks below the floor: only
        // a full-state transfer can refill it.
        backends.push(start(&roots[1]));
        let resp = client
            .call(&Request::RouteUpdate {
                shard: 0,
                replica: 1,
                addr: backends[1].addr().to_string(),
            })
            .unwrap();
        assert!(matches!(resp, Response::Ok(_)), "{resp:?}");
        assert_eq!(
            stored_runs(&roots[1], "floor", 0x8000),
            stored_runs(&roots[0], "floor", 0x8000),
            "the revived replica did not converge"
        );
        let Response::Ok(body) = client.call(&Request::Stats).unwrap() else {
            panic!("stats failed")
        };
        let (router_stats, _) = stats_sections(&body);
        assert_eq!(
            router_stats.counter("router.state_transfers"),
            Some(1),
            "{body}"
        );
    }
    drop(client);
    router.shutdown_and_join();
    for b in backends {
        b.shutdown_and_join();
    }
    for root in roots {
        let _ = std::fs::remove_dir_all(root);
    }
}

/// The state-transfer trigger reads only what the replicas hold, so a
/// router started after its predecessor's floor pruned every delta still
/// sees that a wiped replica cannot be refilled by deltas, and transfers.
#[test]
fn a_restarted_router_refills_a_replica_wiped_below_the_floor() {
    const MERGES: u64 = 300;
    let roots = [tmp_root("rewipe-s0r0"), tmp_root("rewipe-s0r1")];
    let start = |root: &std::path::PathBuf| {
        Server::start(ServerConfig::loopback(ServiceConfig::new(root.clone())))
            .expect("start backend")
    };
    let router = |backends: &[Server]| {
        let replicas = backends.iter().map(|b| b.addr().to_string()).collect();
        RouterServer::start(RouterConfig {
            probe_every: 0,
            ..RouterConfig::loopback(vec![replicas])
        })
        .expect("start router")
    };
    let mut backends: Vec<Server> = roots.iter().map(start).collect();
    let first = router(&backends);
    let mut client = Client::connect(first.addr()).unwrap();
    for i in 0..MERGES {
        let resp = client
            .call(&Request::MergeProfile {
                entry_text: entry_text("rewipe", 0x8100),
            })
            .unwrap();
        assert!(matches!(resp, Response::Ok(_)), "merge {i}: {resp:?}");
    }
    drop(client);
    first.shutdown_and_join();
    backends.pop().expect("replica 1").shutdown_and_join();
    std::fs::remove_dir_all(&roots[1]).unwrap();
    backends.push(start(&roots[1]));
    let second = router(&backends);
    let mut client = Client::connect(second.addr()).unwrap();
    for want in ["divergent=true resent=0", "divergent=false resent=0"] {
        let Response::Ok(body) = client.call(&Request::Repair).unwrap() else {
            panic!("repair failed")
        };
        assert_eq!(body, format!("repair shard=0 {want}\n"));
    }
    assert_eq!(stored_runs(&roots[0], "rewipe", 0x8100).0, MERGES);
    assert_eq!(
        stored_runs(&roots[1], "rewipe", 0x8100),
        stored_runs(&roots[0], "rewipe", 0x8100)
    );
    drop(client);
    second.shutdown_and_join();
    for b in backends {
        b.shutdown_and_join();
    }
    for root in roots {
        let _ = std::fs::remove_dir_all(root);
    }
}

/// What a proxy does with one `sync-delta` frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    /// Forward it to the backend and relay the answer.
    Pass,
    /// Hang up without forwarding it (a transport failure).
    Hangup,
    /// Forward it, let the backend apply it, then hang up before
    /// relaying the answer: fsync done, ack lost.
    AckLost,
    /// Forward it, then hold the answer back until the proxies' journal
    /// records the named event, or for at most [`HOLD_CAP`].
    Hold(&'static str),
}

/// The longest a [`Fault::Hold`] holds an answer back.
const HOLD_CAP: Duration = Duration::from_secs(10);

/// The `sync-delta` events a test's proxies saw, in order: `"NAME got"`
/// when a proxy reads one, `"NAME answered"` when it relays the answer.
#[derive(Default)]
struct Journal {
    events: Mutex<Vec<String>>,
    grew: Condvar,
}

impl Journal {
    fn record(&self, event: String) {
        self.events.lock().unwrap().push(event);
        self.grew.notify_all();
    }

    /// Blocks until `event` is recorded, or for at most `cap`.
    fn wait_for(&self, event: &str, cap: Duration) {
        let events = self.events.lock().unwrap();
        let _ = self
            .grew
            .wait_timeout_while(events, cap, |seen| !seen.iter().any(|e| e == event));
    }

    fn position(&self, event: &str) -> Option<usize> {
        self.events.lock().unwrap().iter().position(|e| e == event)
    }
}

/// A replica address that relays frames to `backend`, except that the
/// n-th `sync-delta` it sees gets `script[n]` (default [`Fault::Pass`]).
fn flaky_proxy(backend: String, script: Vec<Fault>) -> String {
    journaled_proxy("proxy", backend, script, Arc::default())
}

/// A [`flaky_proxy`] that records its `sync-delta` events in `journal`
/// under `name`.
fn journaled_proxy(
    name: &'static str,
    backend: String,
    script: Vec<Fault>,
    journal: Arc<Journal>,
) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = listener.local_addr().expect("proxy addr").to_string();
    let script = Arc::new(Mutex::new(script.into_iter()));
    std::thread::spawn(move || {
        for mut client in listener.incoming().map_while(Result::ok) {
            let mut upstream = TcpStream::connect(&backend).expect("connect backend");
            let script = Arc::clone(&script);
            let journal = Arc::clone(&journal);
            std::thread::spawn(move || {
                while let Ok(Some(frame)) = read_frame(&mut client) {
                    let delta =
                        matches!(decode_request(&frame), Ok((_, Request::SyncDelta { .. })));
                    let fault = if delta {
                        journal.record(format!("{name} got"));
                        script.lock().unwrap().next().unwrap_or(Fault::Pass)
                    } else {
                        Fault::Pass
                    };
                    if fault == Fault::Hangup {
                        return;
                    }
                    write_frame(&mut upstream, &frame).unwrap();
                    let answer = read_frame(&mut upstream);
                    match fault {
                        Fault::AckLost => return,
                        Fault::Hold(event) => journal.wait_for(event, HOLD_CAP),
                        _ => {}
                    }
                    if delta {
                        journal.record(format!("{name} answered"));
                    }
                    write_frame(&mut client, &answer.unwrap().unwrap()).unwrap();
                }
            });
        }
    });
    addr
}

/// The router writes a merge's `sync-delta` to every replica before it
/// reads any answer: replica 0's proxy holds its answer back until
/// replica 1's proxy has the delta, which a router that waits for
/// replica 0 first only reaches after the hold's cap. The verdict reads
/// the proxies' event order, never a clock.
#[test]
fn a_merge_reaches_every_replica_before_any_answer_is_read() {
    let roots = [tmp_root("pipelined-r0"), tmp_root("pipelined-r1")];
    let servers: Vec<Server> = roots
        .iter()
        .map(|root| {
            Server::start(ServerConfig::loopback(ServiceConfig::new(root.clone())))
                .expect("start replica")
        })
        .collect();
    let journal = Arc::new(Journal::default());
    let proxies = vec![
        journaled_proxy(
            "p0",
            servers[0].addr().to_string(),
            vec![Fault::Hold("p1 got")],
            Arc::clone(&journal),
        ),
        journaled_proxy(
            "p1",
            servers[1].addr().to_string(),
            vec![],
            Arc::clone(&journal),
        ),
    ];
    let router = RouterServer::start(RouterConfig {
        probe_every: 0,
        ..RouterConfig::loopback(vec![proxies])
    })
    .expect("start router");
    let mut client = Client::connect(router.addr()).unwrap();
    let resp = client
        .call(&Request::MergeProfile {
            entry_text: entry_text("pipelined", 0x9100),
        })
        .unwrap();
    assert!(matches!(resp, Response::Ok(_)), "{resp:?}");
    let events = journal.events.lock().unwrap().clone();
    let got1 = journal.position("p1 got").expect("replica 1 got the delta");
    let answered0 = journal.position("p0 answered").expect("replica 0 answered");
    assert!(
        got1 < answered0,
        "replica 1 got the delta only after replica 0 answered: {events:?}"
    );
    drop(client);
    router.shutdown_and_join();
    for s in servers {
        s.shutdown_and_join();
    }
    for root in roots {
        let _ = std::fs::remove_dir_all(root);
    }
}

/// One point of the kill-point sweep: 1×2 shard, replica `faulted`
/// behind a proxy that applies `fault` to its `k`-th `sync-delta`;
/// `merges` merges, then one `repair`. Both stores must hold every merge
/// once.
fn sweep_point(faulted: usize, fault: Fault, k: usize, merges: u64) -> Result<(), String> {
    let tag = format!("sweep-r{faulted}-{fault:?}-{k}");
    let roots = [
        tmp_root(&format!("{tag}-r0")),
        tmp_root(&format!("{tag}-r1")),
    ];
    let servers: Vec<Server> = roots
        .iter()
        .map(|root| {
            Server::start(ServerConfig::loopback(ServiceConfig::new(root.clone())))
                .expect("start replica")
        })
        .collect();
    let mut script = vec![Fault::Pass; k - 1];
    script.push(fault);
    let mut addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
    addrs[faulted] = flaky_proxy(addrs[faulted].clone(), script);
    let router = RouterServer::start(RouterConfig {
        probe_every: 0,
        backend_retry: RetryPolicy::no_retries(),
        ..RouterConfig::loopback(vec![addrs])
    })
    .expect("start router");
    let mut client = Client::connect(router.addr()).unwrap();
    let mut run = || -> Result<(), String> {
        for i in 0..merges {
            let text = entry_text("sweep", 0x9000);
            match client.call(&Request::MergeProfile { entry_text: text }) {
                Ok(Response::Ok(_)) => {}
                other => return Err(format!("merge {i}: {other:?}")),
            }
        }
        match client.call(&Request::Repair) {
            Ok(Response::Ok(_)) => {}
            other => return Err(format!("repair: {other:?}")),
        }
        let (runs0, bytes0) = try_stored_runs(&roots[0], "sweep", 0x9000)?;
        let (runs1, bytes1) = try_stored_runs(&roots[1], "sweep", 0x9000)?;
        if (runs0, runs1) != (merges, merges) {
            return Err(format!("runs {runs0} and {runs1}, want {merges} on each"));
        }
        if bytes0 != bytes1 {
            return Err("replica entry files differ".to_string());
        }
        Ok(())
    };
    let outcome = run();
    drop(client);
    router.shutdown_and_join();
    for s in servers {
        s.shutdown_and_join();
    }
    for root in roots {
        let _ = std::fs::remove_dir_all(root);
    }
    outcome
}

/// Kill-point sweep: for every k and either replica, that replica loses
/// its k-th delivery before it lands (`Hangup`) or after it landed but
/// before the ack (`AckLost`). Its sibling acks every merge, so after
/// one `repair` both stores must be byte-identical with every merge
/// counted once. Faulting replica 0 covers a failure that overlaps the
/// delivery to replica 1, which the router sends before reading either
/// answer. A failing point is reported as `(replica, fault, k)`.
#[test]
fn kill_point_sweep_counts_every_merge_once() {
    const MERGES: usize = 24;
    let mut failures = Vec::new();
    for faulted in [0, 1] {
        for fault in [Fault::Hangup, Fault::AckLost] {
            for k in 1..=MERGES {
                if let Err(e) = sweep_point(faulted, fault, k, MERGES as u64) {
                    failures.push(format!("({faulted}, {fault:?}, {k}): {e}"));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} diverging point(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// A small strided sweep: a module the replicas can really profile.
fn sweep_module_text() -> String {
    use stride_ir::{ModuleBuilder, Operand};
    let mut mb = ModuleBuilder::new();
    let g = mb.add_global("arr", 1 << 14);
    let f = mb.declare_function("main", 1);
    let mut fb = mb.function(f);
    let base = fb.global_addr(g);
    let sum = fb.mov(0i64);
    fb.counted_loop(fb.param(0), |fb, _| {
        fb.counted_loop(200i64, |fb, i| {
            let off = fb.mul(i, 64i64);
            let a = fb.add(base, off);
            let (v, _) = fb.load(a, 0);
            fb.bin_to(sum, stride_ir::BinOp::Add, sum, v);
        });
    });
    fb.ret(Some(Operand::Reg(sum)));
    mb.set_entry(f);
    stride_ir::module_to_string(&mb.finish())
}

/// A `profile` sent through the router stores its run on every replica
/// of the owning shard, under one id: the replicas' entry files are
/// byte-equal and later repair rounds find nothing to heal.
/// Submits the sweep module through `client`; returns its module hash.
fn submit_sweep(client: &mut Client) -> u64 {
    let resp = client
        .call(&Request::SubmitModule {
            workload: "sweep".into(),
            text: sweep_module_text(),
        })
        .unwrap();
    let Response::Ok(submitted) = resp else {
        panic!("submit failed: {resp:?}")
    };
    u64::from_str_radix(submitted.trim().trim_start_matches("module "), 16)
        .expect("submit answers the module hash")
}

/// One id-less `profile` of the sweep workload; asserts the fresh run.
fn profile_sweep(client: &mut Client) {
    let resp = client
        .call(&Request::Profile {
            workload: "sweep".into(),
            variant: stride_core::ProfilingVariant::EdgeCheck,
            args: vec![2],
        })
        .unwrap();
    let Response::Ok(fresh) = resp else {
        panic!("profile failed: {resp:?}")
    };
    assert!(fresh.contains("\nruns 1\n"), "{fresh}");
}

/// Asserts every replica of `backends` stores the sweep entry with
/// `runs` runs.
fn assert_sweep_runs(backends: &[Server], runs: u64) {
    for (r, backend) in backends.iter().enumerate() {
        let mut direct = Client::connect(backend.addr()).unwrap();
        let resp = direct
            .call(&Request::GetProfile {
                workload: "sweep".into(),
            })
            .unwrap();
        let Response::Ok(stored) = resp else {
            panic!("replica {r} lacks the run: {resp:?}")
        };
        assert!(
            stored.contains(&format!("\nruns {runs}\n")),
            "replica {r}: {stored}"
        );
    }
}

#[test]
fn profile_through_the_router_is_stored_on_every_replica() {
    let (router, backends, roots) = boot_cluster("profile", 1, 2);
    let mut client = Client::connect(router.addr()).unwrap();
    let module_hash = submit_sweep(&mut client);
    for _ in 0..2 {
        profile_sweep(&mut client);
    }

    let entry_file = |r: usize| {
        let path = roots[r].join(format!("sweep@{module_hash:016x}.profdb"));
        std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    assert_eq!(entry_file(0), entry_file(1), "replica entry files differ");
    assert_sweep_runs(&backends[0], 2);
    for _ in 0..2 {
        let Response::Ok(body) = client.call(&Request::Repair).unwrap() else {
            panic!("repair failed")
        };
        assert_eq!(body, "repair shard=0 divergent=false resent=0\n");
    }
    assert_eq!(entry_file(0), entry_file(1), "repair changed a replica");
    assert!(
        String::from_utf8(entry_file(0))
            .unwrap()
            .contains("\nruns 2\n"),
        "repair double-applied a run"
    );

    let resp = client.call(&Request::Shutdown).unwrap();
    assert!(matches!(resp, Response::Ok(_)), "{resp:?}");
    router.join();
    for row in backends {
        for b in row {
            b.join();
        }
    }
    for root in roots {
        let _ = std::fs::remove_dir_all(root);
    }
}

/// Replicas remember applied ids across restarts, so a restarted router
/// must not stamp an id its predecessor used, whether it keeps its hint
/// root or starts on a fresh scratch one: the second profile would be
/// deduped on every replica yet acked.
#[test]
fn restarted_router_does_not_reuse_stamped_ids() {
    for (tag, durable) in [("restart", true), ("restart-scratch", false)] {
        let (first, backends, roots) = boot_cluster(tag, 1, 2);
        first.shutdown_and_join();
        let hint_root = durable.then(|| tmp_root(&format!("{tag}-hints")));
        let config = RouterConfig {
            hint_root: hint_root.clone(),
            ..RouterConfig::loopback(vec![backends[0]
                .iter()
                .map(|b| b.addr().to_string())
                .collect()])
        };
        for runs in 1..=2 {
            let router = RouterServer::start(config.clone()).expect("start router");
            let mut client = Client::connect(router.addr()).unwrap();
            submit_sweep(&mut client);
            profile_sweep(&mut client);
            assert_sweep_runs(&backends[0], runs);
            drop(client);
            router.shutdown_and_join();
        }

        for row in backends {
            for b in row {
                b.shutdown_and_join();
            }
        }
        for root in roots.into_iter().chain(hint_root) {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

#[test]
fn dead_shard_sheds_its_key_range_only() {
    let (router, backends, roots) = boot_cluster("dead", 3, 1);
    let mut client = Client::connect_with(router.addr(), RetryPolicy::no_retries()).unwrap();

    // Kill shard 1 entirely.
    let map = ShardMap::new(3);
    for (k, row) in backends.into_iter().enumerate() {
        for b in row {
            if k == 1 {
                b.shutdown_and_join();
            } else {
                // Keep serving; shut down at the end of the test.
                std::mem::forget(b);
            }
        }
    }

    let mut shed = Vec::new();
    let mut hit_live = 0;
    for i in 0..12u64 {
        let (w, h) = (format!("wl{i}"), 0x2000 + i);
        let resp = client
            .call(&Request::MergeProfile {
                entry_text: entry_text(&w, h),
            })
            .unwrap();
        if map.shard_of(&w, h) == 1 {
            let Response::Err {
                kind,
                retry_after_ms,
                shard,
                ..
            } = resp
            else {
                panic!("dead shard answered {resp:?}")
            };
            assert_eq!(kind, ErrorKind::Unavailable);
            assert_eq!(shard, Some(1), "unavailable must name the dead shard");
            assert!(retry_after_ms.is_some(), "unavailable must hint a retry");
            shed.push((w, h));
        } else {
            hit_live += 1;
            assert!(
                matches!(resp, Response::Ok(_)),
                "live shard degraded: {resp:?}"
            );
        }
    }
    assert!(!shed.is_empty() && hit_live > 0, "key spread missed a case");

    let Response::Ok(body) = client.call(&Request::Stats).unwrap() else {
        panic!("stats failed")
    };
    assert!(
        body.contains(&format!("counter router.shed_unavailable {}", shed.len())),
        "{body}"
    );

    // `unavailable` means applied nowhere: once the shard is back, a
    // resend under a fresh id lands exactly one copy.
    let revived = Server::start(ServerConfig::loopback(ServiceConfig::new(roots[1].clone())))
        .expect("restart shard 1");
    let resp = client
        .call(&Request::RouteUpdate {
            shard: 1,
            replica: 0,
            addr: revived.addr().to_string(),
        })
        .unwrap();
    assert!(matches!(resp, Response::Ok(_)), "{resp:?}");
    for (w, h) in &shed {
        let resp = client
            .call(&Request::MergeProfile {
                entry_text: entry_text(w, *h),
            })
            .unwrap();
        assert!(matches!(resp, Response::Ok(_)), "resend of {w}: {resp:?}");
        assert_eq!(stored_runs(&roots[1], w, *h).0, 1, "{w} counted twice");
    }

    // Shutdown fans out to the surviving backends and stops the router.
    let resp = client.call(&Request::Shutdown).unwrap();
    assert!(matches!(resp, Response::Ok(_)), "{resp:?}");
    router.join();
    revived.join();
    for root in roots {
        let _ = std::fs::remove_dir_all(root);
    }
}

/// Both daemons run on one transport, so the router's own `== router ==`
/// stats section carries the same transport metrics as a replica's
/// section, under the `router.` prefix instead of `server.`.
#[test]
fn router_stats_carry_the_same_transport_metrics_as_the_daemon() {
    let (router, backends, roots) = boot_cluster("transport-metrics", 1, 1);
    let mut client = Client::connect(router.addr()).unwrap();
    let resp = client.call(&Request::Ping).unwrap();
    assert!(matches!(resp, Response::Ok(_)), "{resp:?}");
    let Response::Ok(body) = client.call(&Request::Stats).unwrap() else {
        panic!("stats failed")
    };
    let (router_section, replica_section) = body
        .split_once("== shard 0 replica 0 ")
        .expect("a replica section");
    assert!(router_section.starts_with("== router =="), "{body}");
    for metric in [
        "counter {}.shed 0",
        "gauge {}.queue_depth ",
        "counter {}.limiter.shed 0",
        "gauge {}.limiter.limit ",
        "gauge {}.limiter.in_flight ",
    ] {
        for (section, prefix) in [(router_section, "router"), (replica_section, "server")] {
            let line = metric.replace("{}", prefix);
            assert!(
                section.lines().any(|l| l.starts_with(&line)),
                "missing `{line}` in:\n{section}"
            );
        }
    }

    let resp = client.call(&Request::Shutdown).unwrap();
    assert!(matches!(resp, Response::Ok(_)), "{resp:?}");
    router.join();
    for row in backends {
        for b in row {
            b.join();
        }
    }
    for root in roots {
        let _ = std::fs::remove_dir_all(root);
    }
}
