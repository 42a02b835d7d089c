//! Router integration: key-range sharding, merge replication across a
//! shard's replicas, and graceful degradation when a whole shard dies.

use std::collections::HashMap;
use stride_profdb::{ProfileEntry, ShardMap};
use stride_profiling::StrideProfile;
use stride_server::{
    Client, ErrorKind, Request, Response, RetryPolicy, RouterConfig, RouterServer, Server,
    ServerConfig, ServiceConfig,
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

/// Parses each `== shard K replica R ... ==` stats section into its
/// `key value` integer map.
fn stats_sections(body: &str) -> HashMap<(u32, u32), HashMap<String, u64>> {
    let mut sections = HashMap::new();
    let mut current: Option<(u32, u32)> = None;
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("== shard ") {
            let mut parts = rest.split_whitespace();
            let k: u32 = parts.next().unwrap().parse().unwrap();
            assert_eq!(parts.next(), Some("replica"));
            let r: u32 = parts.next().unwrap().parse().unwrap();
            current = Some((k, r));
            sections.insert((k, r), HashMap::new());
            continue;
        }
        if line.starts_with("== ") {
            current = None;
            continue;
        }
        let (Some(key), Some((k, v))) = (current, line.split_once(' ')) else {
            continue;
        };
        if let Ok(n) = v.parse::<u64>() {
            sections.get_mut(&key).unwrap().insert(k.to_string(), n);
        }
    }
    sections
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
    assert!(body.contains("counter router.forwarded 9"), "{body}");
    let sections = stats_sections(&body);
    for k in 0..3u32 {
        for r in 0..2u32 {
            let s = &sections[&(k, r)];
            assert_eq!(
                s["db-entries"], per_shard[k as usize],
                "shard {k} replica {r} entry count"
            );
            // Replication delivered every owned merge to this replica.
            assert!(
                body.contains(&format!("lag shard={k} replica={r} queued=0")),
                "{body}"
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

/// Satellite: a replica outage spools merges as durable hints; when the
/// spool fills, the router refuses the merge *whole* with a typed
/// `handoff-full` instead of silently dropping, and a revived replica
/// drains the spool in order and converges.
#[test]
fn full_hint_spool_refuses_merges_typed_and_drains_on_revival() {
    let hint_root = tmp_root("hints-full");
    let root0 = tmp_root("hints-full-s0r0");
    let backend = Server::start(ServerConfig::loopback(ServiceConfig::new(root0.clone())))
        .expect("start backend");
    let topology = vec![vec![backend.addr().to_string()]];
    let router = RouterServer::start(RouterConfig {
        hint_root: Some(hint_root.clone()),
        hint_cap: 2,
        ..RouterConfig::loopback(topology)
    })
    .expect("start router");
    let mut client = Client::connect_with(router.addr(), RetryPolicy::no_retries()).unwrap();

    // Take the only replica down; merges can no longer be applied live.
    backend.shutdown_and_join();

    // The first two merges fit the spool: refused as unavailable (no
    // live apply) but kept as durable hints, not dropped.
    for i in 0..2u64 {
        let resp = client
            .call(&Request::MergeProfile {
                entry_text: entry_text(&format!("wl{i}"), 0x3000 + i),
            })
            .unwrap();
        let Response::Err { kind, .. } = resp else {
            panic!("dead replica acked a merge: {resp:?}")
        };
        assert_eq!(kind, ErrorKind::Unavailable);
    }

    // The third finds the spool at capacity: typed refusal, applied
    // nowhere, with the shard named and a retry hint.
    let overflow = entry_text("wl-overflow", 0x3abc);
    let resp = client
        .call(&Request::MergeProfile {
            entry_text: overflow.clone(),
        })
        .unwrap();
    let Response::Err {
        kind,
        shard,
        retry_after_ms,
        ..
    } = resp
    else {
        panic!("overflow merge not refused: {resp:?}")
    };
    assert_eq!(kind, ErrorKind::HandoffFull);
    assert_eq!(shard, Some(0), "handoff-full must name the shard");
    assert!(retry_after_ms.is_some(), "handoff-full must hint a retry");

    let Response::Ok(body) = client.call(&Request::Stats).unwrap() else {
        panic!("stats failed")
    };
    assert!(body.contains("lag shard=0 replica=0 queued=2"), "{body}");
    assert!(body.contains("counter router.handoff_refused 1"), "{body}");

    // Revival: a replacement daemon on a fresh port self-announces via
    // route-update (what `strided --announce` sends). The router drains
    // the spool in order; the replacement converges on the spooled
    // merges and the once-refused merge now applies cleanly.
    let replacement = Server::start(ServerConfig::loopback(ServiceConfig::new(root0.clone())))
        .expect("start replacement");
    let resp = client
        .call(&Request::RouteUpdate {
            shard: 0,
            replica: 0,
            addr: replacement.addr().to_string(),
        })
        .unwrap();
    assert!(matches!(resp, Response::Ok(_)), "{resp:?}");
    let resp = client
        .call(&Request::MergeProfile {
            entry_text: overflow,
        })
        .unwrap();
    assert!(matches!(resp, Response::Ok(_)), "{resp:?}");

    let Response::Ok(body) = client.call(&Request::Stats).unwrap() else {
        panic!("stats failed")
    };
    assert!(body.contains("lag shard=0 replica=0 queued=0"), "{body}");
    let sections = stats_sections(&body);
    assert_eq!(
        sections[&(0, 0)]["db-entries"],
        3,
        "spooled + retried merges all landed: {body}"
    );

    let resp = client.call(&Request::Shutdown).unwrap();
    assert!(matches!(resp, Response::Ok(_)), "{resp:?}");
    router.join();
    replacement.join();
    let _ = std::fs::remove_dir_all(hint_root);
    let _ = std::fs::remove_dir_all(root0);
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
    let sections = stats_sections(&body);
    assert_eq!(sections[&(0, 0)]["db-entries"], 2, "{body}");
    assert_eq!(sections[&(0, 1)]["db-entries"], 2, "{body}");

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

    let mut hit_dead = 0;
    let mut hit_live = 0;
    for i in 0..12u64 {
        let (w, h) = (format!("wl{i}"), 0x2000 + i);
        let resp = client
            .call(&Request::MergeProfile {
                entry_text: entry_text(&w, h),
            })
            .unwrap();
        if map.shard_of(&w, h) == 1 {
            hit_dead += 1;
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
        } else {
            hit_live += 1;
            assert!(
                matches!(resp, Response::Ok(_)),
                "live shard degraded: {resp:?}"
            );
        }
    }
    assert!(hit_dead > 0 && hit_live > 0, "key spread missed a case");

    let Response::Ok(body) = client.call(&Request::Stats).unwrap() else {
        panic!("stats failed")
    };
    assert!(
        body.contains(&format!("counter router.shed_unavailable {hit_dead}")),
        "{body}"
    );

    // Shutdown fans out to the surviving backends and stops the router.
    let resp = client.call(&Request::Shutdown).unwrap();
    assert!(matches!(resp, Response::Ok(_)), "{resp:?}");
    router.join();
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
