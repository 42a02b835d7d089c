//! The shard router: a thin daemon speaking wire protocol v2 on both
//! sides. Every profile key `(workload, module-hash)` is owned by one
//! shard per [`stride_profdb::ShardMap`]; the router forwards each
//! request to the owning shard's replicas and composes fan-out verbs
//! (`stats`, `gc`, `shutdown`) across the whole cluster; [`split_sections`]
//! reads a composed body back.
//!
//! # Replication
//!
//! A `merge-profile` arriving at the router is converted into a
//! [`stride_profdb::repl`] delta — the *pre-merge* entry, its
//! idempotency id, and a dot `(origin, n)` whose origin is random per
//! router start — and sent as a `sync-delta` batch to **every** live
//! replica of the owning shard. (A `profile` is forwarded to one replica
//! under a router-stamped id; the fresh-run entry it returns is then
//! delivered to every replica as one dotted delta, which the replica that
//! ran it skips by the id but records the dot of.) The merge is
//! acknowledged once at least one replica applied it durably, so an ack
//! means one replica's disk. A replica the delivery misses is only noted
//! as missed: revival and the periodic repair round fill the gap. When no
//! replica applied it, the merge was applied nowhere and the answer is
//! `unavailable`. Delivery is at-least-once in any order — exactly what
//! the store's delivery-order-independent delta merge absorbs into
//! byte-identical convergence.
//!
//! The fan-out is pipelined (`Router::call_all`): the request is
//! written to every live replica's pooled connection before any answer
//! is read, so the replicas apply and fsync at the same time and no
//! thread is started. The answers are then taken in replica order, so
//! the ack rule is unchanged: the first ack wins over a typed refusal,
//! and misses reach the failure detector in replica order. Probe
//! passes, context exchanges and the `stats`/`gc` fan-out send the same
//! way.
//!
//! # Self-healing
//!
//! The router heals the cluster without operator verbs, on a *logical*
//! clock (handled-request seqnos — wall time never drives a decision):
//!
//! * **Failure detection** ([`crate::detector`]): every
//!   [`RouterConfig::probe_every`]-th handled request runs a `ping`
//!   pass over all replicas; seeded-deterministic miss thresholds walk
//!   alive → suspect → dead. Transport failures during normal
//!   forwarding count as misses too, so detection is no slower than
//!   the probe cadence. The health table is persisted under
//!   [`RouterConfig::hint_root`], so a router restart resumes
//!   mid-suspicion.
//! * **Anti-entropy repair** — the one catch-up path: the replicas of a
//!   shard exchange causal contexts (the dots each holds), and each
//!   replica is sent exactly the deltas it lacks, pulled by dot from a
//!   sibling's log. Runs periodically on the probe clock, on every
//!   revival, and on the `repair` verb.
//! * **Floor**: every context exchange — each repair round, and every
//!   [`FLOOR_EVERY_DELIVERIES`]-th delivery to a shard, so it advances
//!   with probing off too — hands each replica the shard floor the
//!   previous exchange computed: the dots every replica the detector
//!   held live had, once all of those answered. Below it compaction
//!   drops logged deltas, so a dead replica does not stall pruning.
//! * **Full-state transfer**: a replica that lacks a dot no sibling can
//!   ship any more (pruned below the floor while it was dead, or before
//!   its store was wiped) cannot be refilled by deltas. Repair pulls the
//!   whole state of a sibling whose context covers the lagging replica's
//!   and installs it there atomically (`pull-state`, `install-state`).
//!   The test reads only what the replicas hold, so it survives a
//!   router restart.
//! * **Revival**: when a dead replica answers a probe again (a crashed
//!   daemon restarted on its old port), the router re-teaches it every
//!   module it owns and runs a repair round — the exact routine
//!   `route-update` performs for an address move.
//!
//! # Degradation
//!
//! A shard with no reachable replica answers `err unavailable shard=K
//! retry-after=MS` *for its key range only*; requests owned by live
//! shards keep succeeding. Overload is shed at the door by an AIMD
//! admission limiter ([`crate::limiter`]) with typed `busy` errors.

use crate::client::{Client, RetryPolicy, Sent};
use crate::proto::{ErrorKind, Request, RequestMeta, Response};
use crate::transport::{Daemon, Handler, NetFaults, Transport};
use crate::{detector::FailureDetector, detector::ProbeOutcome};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use stride_core::{splitmix64_mix, Counter, Gauge, Registry, SPLITMIX64_GAMMA};
use stride_profdb::{
    decode_delta_batch, encode_delta_batch, CausalContext, DeltaRecord, Dot, ProfileEntry,
    ShardMap, SHARD_MAP_VERSION,
};

/// Retry-after hint on `unavailable` responses, in milliseconds.
pub const UNAVAILABLE_RETRY_AFTER_MS: u64 = 200;

/// Default probe cadence: one failure-detector pass per this many
/// handled requests (a logical clock — wall time never drives it).
pub const PROBE_EVERY_DEFAULT: u64 = 8;

/// Anti-entropy cadence: one repair round per this many probe passes.
const REPAIR_EVERY_PASSES: u64 = 4;

/// Floor cadence: one context exchange per this many deliveries to a
/// shard, which bounds a replica's repair set near twice this many
/// deltas while every live replica of the shard answers.
pub const FLOOR_EVERY_DELIVERIES: u64 = 64;

/// Health-table snapshot file, under [`RouterConfig::hint_root`].
const HEALTH_FILE: &str = "health.txt";

/// Router configuration.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Replica addresses per shard: `shards[k]` lists shard `k`'s
    /// replicas.
    pub shards: Vec<Vec<String>>,
    /// Worker threads serving client connections.
    pub workers: usize,
    /// Retry policy for backend calls (kept short: the router's own
    /// callers have retry loops too).
    pub backend_retry: RetryPolicy,
    /// Directory for the failure detector's health snapshot
    /// (`health.txt`, its only file). `None` uses a fresh per-process
    /// temp directory (tests); deployments pass a durable path so
    /// suspicion counts survive a router restart.
    pub hint_root: Option<PathBuf>,
    /// Probe cadence in handled requests; 0 disables probing.
    pub probe_every: u64,
    /// Failure-detector seed (derives per-replica miss thresholds).
    pub detector_seed: u64,
}

impl RouterConfig {
    /// Loopback router over the given shard topology with a fail-fast
    /// backend policy.
    pub fn loopback(shards: Vec<Vec<String>>) -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            shards,
            workers: 4,
            backend_retry: RetryPolicy {
                max_attempts: 2,
                base_delay_ms: 10,
                max_delay_ms: 100,
                jitter_seed: 0,
            },
            hint_root: None,
            probe_every: PROBE_EVERY_DEFAULT,
            detector_seed: 0x7007_c0de,
        }
    }
}

/// One backend replica: its (mutable — `route-update`) address, a lazy
/// connection, and its gauge `router.health.sKrR` (detector state as 0
/// alive, 1 suspect, 2 dead, sampled for each `stats` body).
struct Replica {
    addr: Mutex<String>,
    client: Mutex<Option<Client>>,
    health: Gauge,
}

impl Replica {
    fn addr(&self) -> String {
        self.addr
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// A shard's floor-exchange state.
#[derive(Default)]
struct Floor {
    /// The shard floor the last complete exchange computed — the dots
    /// every replica the detector held live had — as context text (empty
    /// for none); the next exchange hands it out.
    text: String,
    /// Deliveries to the shard since the last exchange.
    deliveries: u64,
}

/// Router state shared by all worker threads.
pub struct Router {
    map: ShardMap,
    shards: Vec<Vec<Replica>>,
    /// Modules seen at this router: workload → (hash, IR text). The text
    /// is kept so a restarted replica can be re-taught its modules.
    modules: Mutex<HashMap<String, (u64, String)>>,
    obs: Arc<Registry>,
    forwarded: Counter,
    shed_unavailable: Counter,
    retries: Counter,
    probes: Counter,
    failovers: Counter,
    revivals: Counter,
    repair_rounds: Counter,
    repair_resent: Counter,
    state_transfers: Counter,
    policy: RetryPolicy,
    /// Router-generated idempotency ids for writes arriving without one.
    id_seq: AtomicU64,
    /// The origin of this start's dots (see [`Dot::fresh_origin`]) and
    /// the last `n` stamped.
    origin: u64,
    dot_seq: AtomicU64,
    /// Per shard: the floor to hand out and the delivery count since.
    floors: Vec<Mutex<Floor>>,
    /// Handled-request seqno: the logical clock probing runs on.
    req_seq: AtomicU64,
    /// Completed probe passes (the repair clock).
    probe_passes: AtomicU64,
    /// Guards against overlapping probe passes from concurrent workers.
    probing: AtomicBool,
    detector: Mutex<FailureDetector>,
    probe_every: u64,
    health_path: PathBuf,
}

/// Distinct per-process health roots for routers started without one
/// (multiple in-process routers in one test binary must not collide).
fn scratch_health_root() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("strided-router-health-{}-{n}", std::process::id()))
}

impl Router {
    /// Builds the router over a shard topology, restoring the health
    /// table.
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] when the health directory cannot be created.
    pub fn new(config: &RouterConfig) -> io::Result<Router> {
        let obs = Arc::new(Registry::new());
        let map = ShardMap::new(config.shards.len() as u32);
        let hint_root = config.hint_root.clone().unwrap_or_else(scratch_health_root);
        std::fs::create_dir_all(&hint_root)?;
        let topo: Vec<usize> = config.shards.iter().map(Vec::len).collect();
        let shards: Vec<Vec<Replica>> = (config.shards.iter().enumerate())
            .map(|(k, replicas)| {
                (replicas.iter().enumerate())
                    .map(|(r, addr)| Replica {
                        addr: Mutex::new(addr.clone()),
                        client: Mutex::new(None),
                        health: obs.gauge(&format!("router.health.s{k}r{r}")),
                    })
                    .collect()
            })
            .collect();
        let health_path = hint_root.join(HEALTH_FILE);
        // Resume mid-suspicion from the persisted health table; a
        // missing or unparsable snapshot starts everyone alive.
        let detector = std::fs::read_to_string(&health_path)
            .ok()
            .and_then(|text| FailureDetector::restore_text(config.detector_seed, &topo, &text).ok())
            .unwrap_or_else(|| FailureDetector::new(config.detector_seed, &topo));
        obs.gauge("router.shards").set(config.shards.len() as u64);
        obs.gauge("router.shard_map_version")
            .set(u64::from(SHARD_MAP_VERSION));
        Ok(Router {
            map,
            shards,
            modules: Mutex::new(HashMap::new()),
            forwarded: obs.counter("router.forwarded"),
            shed_unavailable: obs.counter("router.shed_unavailable"),
            retries: obs.counter("client.retries"),
            probes: obs.counter("router.probes"),
            failovers: obs.counter("router.failovers"),
            revivals: obs.counter("router.revivals"),
            repair_rounds: obs.counter("router.repair_rounds"),
            repair_resent: obs.counter("router.repair_resent"),
            state_transfers: obs.counter("router.state_transfers"),
            obs,
            policy: config.backend_retry,
            // Any fresh random word: the dot origin's source serves.
            id_seq: AtomicU64::new(Dot::fresh_origin(false)),
            origin: Dot::fresh_origin(false),
            dot_seq: AtomicU64::new(0),
            floors: config.shards.iter().map(|_| Mutex::default()).collect(),
            req_seq: AtomicU64::new(0),
            probe_passes: AtomicU64::new(0),
            probing: AtomicBool::new(false),
            detector: Mutex::new(detector),
            probe_every: config.probe_every,
            health_path,
        })
    }

    fn detector(&self) -> std::sync::MutexGuard<'_, FailureDetector> {
        self.detector.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn floor(&self, shard: usize) -> std::sync::MutexGuard<'_, Floor> {
        self.floors[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn is_dead(&self, shard: usize, replica: usize) -> bool {
        self.detector().is_dead(shard, replica)
    }

    /// Best-effort persist of the health table so a restarted router
    /// resumes mid-suspicion. Corruption is tolerated: restore rejects
    /// garbage and starts everyone alive.
    fn persist_health(&self) {
        let text = self.detector().snapshot_text();
        let _ = std::fs::write(&self.health_path, text);
    }

    /// One call to one replica, without request metadata.
    fn call_replica(&self, replica: &Replica, req: &Request) -> io::Result<Response> {
        self.call_replica_with(replica, &RequestMeta::default(), req)
    }

    /// One call to one replica over its cached connection.
    fn call_replica_with(
        &self,
        replica: &Replica,
        meta: &RequestMeta,
        req: &Request,
    ) -> io::Result<Response> {
        let mut results = self.call_all(&[replica], meta, req);
        results
            .pop()
            .unwrap_or_else(|| Err(io::Error::other("no replica called")))
    }

    /// Calls several replicas at once over their cached connections
    /// (connecting lazily, reconnecting after `route-update`): locks their
    /// client slots in the order given, which callers keep to
    /// (shard, replica) index order so that concurrent calls cannot
    /// deadlock; writes `req` to every one of them, then reads each
    /// answer (retrying per the backend policy) in that same order. The
    /// replicas thus work on the request at the same time, and no thread
    /// is started. Returns one result per target, in order; the slots
    /// are free again when it returns.
    fn call_all(
        &self,
        targets: &[&Replica],
        meta: &RequestMeta,
        req: &Request,
    ) -> Vec<io::Result<Response>> {
        let mut slots: Vec<_> = (targets.iter())
            .map(|replica| {
                (replica.client)
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
            })
            .collect();
        let sent: Vec<io::Result<Sent>> = (slots.iter_mut().zip(targets))
            .map(|(slot, replica)| {
                let client = match slot.take() {
                    Some(client) => slot.insert(client),
                    None => {
                        let mut client = Client::connect_with(replica.addr(), self.policy)?;
                        client.set_retry_counter(Some(self.retries.clone()));
                        slot.insert(client)
                    }
                };
                client.set_deadline_fuel(meta.deadline_fuel);
                Ok(client.send(req, meta.req_id))
            })
            .collect();
        (slots.iter_mut().zip(sent))
            .map(|(slot, sent)| {
                let result = sent.and_then(|sent| match slot.as_mut() {
                    Some(client) => client.finish(sent),
                    None => Err(io::Error::other("no backend connection")),
                });
                if result.is_err() {
                    // Poisoned transport: reconnect fresh on the next call.
                    **slot = None;
                }
                result
            })
            .collect()
    }

    /// Feeds one transport failure to the failure detector and acts on
    /// the resulting state edge (a miss observed during forwarding is
    /// as good as a missed probe).
    fn note_miss(&self, shard: usize, replica: usize) {
        let outcome = self.detector().probe_missed(shard, replica);
        self.act_on(shard, replica, outcome);
    }

    fn act_on(&self, shard: usize, replica: usize, outcome: ProbeOutcome) {
        match outcome {
            ProbeOutcome::Unchanged => {}
            ProbeOutcome::Suspected => self.persist_health(),
            ProbeOutcome::Died => {
                self.failovers.inc();
                self.persist_health();
            }
            ProbeOutcome::Revived => {
                self.revivals.inc();
                self.persist_health();
                self.revive(shard, replica);
            }
        }
    }

    /// One failure-detector pass: ping every replica at once (dead ones
    /// too — that is how revival is noticed), then walk the state machine
    /// over the answers in (shard, replica) order, and every few passes
    /// run an anti-entropy repair round.
    fn probe_all(&self) {
        if self.probing.swap(true, Ordering::SeqCst) {
            return; // a sibling worker is mid-pass
        }
        let (indices, targets) = self.every_replica();
        let pings = self.call_all(&targets, &RequestMeta::default(), &Request::Ping);
        for ((k, r), ping) in indices.into_iter().zip(pings) {
            self.probes.inc();
            let outcome = if matches!(ping, Ok(Response::Ok(_))) {
                self.detector().probe_ok(k, r)
            } else {
                self.detector().probe_missed(k, r)
            };
            self.act_on(k, r, outcome);
        }
        let pass = self.probe_passes.fetch_add(1, Ordering::Relaxed) + 1;
        if pass.is_multiple_of(REPAIR_EVERY_PASSES) {
            self.repair_body();
        }
        self.probing.store(false, Ordering::SeqCst);
    }

    /// The revival routine — also the `route-update` routine: re-teach
    /// the replica every module its shard owns (a restarted daemon is
    /// module-less), then run a repair round, which ships it the deltas
    /// it missed or, below the floor, a sibling's whole state.
    fn revive(&self, shard: usize, replica_idx: usize) {
        let replica = &self.shards[shard][replica_idx];
        let modules = self.modules.lock().unwrap_or_else(PoisonError::into_inner);
        let teach: Vec<Request> = modules
            .iter()
            .filter(|(w, (h, _))| self.map.shard_of(w, *h) as usize == shard)
            .map(|(w, (_, text))| Request::SubmitModule {
                workload: w.clone(),
                text: text.clone(),
            })
            .collect();
        drop(modules);
        for req in &teach {
            let _ = self.call_replica(replica, req);
        }
        self.repair_shard(shard);
    }

    fn shard_replicas(&self, shard: u32) -> &[Replica] {
        &self.shards[shard as usize]
    }

    /// Every replica of every shard with its `(shard, replica)` index, in
    /// index order.
    fn every_replica(&self) -> (Vec<(usize, usize)>, Vec<&Replica>) {
        (self.shards.iter().enumerate())
            .flat_map(|(k, replicas)| {
                replicas
                    .iter()
                    .enumerate()
                    .map(move |(r, rep)| ((k, r), rep))
            })
            .unzip()
    }

    /// Handles one client request at the router. Every handled request
    /// ticks the logical probe clock.
    pub fn handle(&self, meta: &RequestMeta, req: &Request) -> Response {
        let seq = self.req_seq.fetch_add(1, Ordering::Relaxed) + 1;
        if self.probe_every > 0 && seq.is_multiple_of(self.probe_every) {
            self.probe_all();
        }
        match req {
            Request::SubmitModule { workload, text } => self.submit(workload, text),
            Request::MergeProfile { entry_text } => self.merge(meta, entry_text),
            Request::Profile { workload, .. } => self.profile(workload, meta, req),
            Request::Classify { workload, .. }
            | Request::Prefetch { workload, .. }
            | Request::GetProfile { workload } => self.route_by_workload(workload, meta, req),
            Request::SyncDelta { .. }
            | Request::Context { .. }
            | Request::PullDeltas { .. }
            | Request::PullState
            | Request::InstallState { .. } => Response::err(
                ErrorKind::Malformed,
                "replica-to-replica verb: submit merges via merge-profile, or ask the router for \
                 `repair`",
            ),
            Request::Ping => Response::Ok("pong\n".to_string()),
            Request::Health => Response::Ok(self.health_body()),
            Request::Repair => Response::Ok(self.repair_body()),
            Request::Stats => Response::Ok(self.fan_out_body(&Request::Stats)),
            Request::Gc => Response::Ok(self.fan_out_body(&Request::Gc)),
            Request::RouteUpdate {
                shard,
                replica,
                addr,
            } => self.route_update(*shard, *replica, addr),
            // The transport intercepts Shutdown; answer direct callers.
            Request::Shutdown => Response::Ok("shutting down\n".to_string()),
        }
    }

    /// Registers the module locally (learning the key hash) and forwards
    /// the submission to every live replica of the owning shard. Dead
    /// replicas are skipped: the revival routine re-teaches every module
    /// from the router's copy.
    fn submit(&self, workload: &str, text: &str) -> Response {
        let module = match stride_ir::module_from_string(text) {
            Ok(m) => m,
            Err(e) => return Response::err(ErrorKind::Parse, e.render(text)),
        };
        let hash = stride_profdb::module_hash(&module);
        self.modules
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(workload.to_string(), (hash, text.to_string()));
        let shard = self.map.shard_of(workload, hash);
        let req = Request::SubmitModule {
            workload: workload.to_string(),
            text: text.to_string(),
        };
        let answer = self.fan_out(shard, &req);
        self.answer(shard, answer, "accepted the module")
    }

    /// Converts a merge into a replication delta and delivers it to all
    /// live replicas of the owning shard, acknowledging on the first
    /// durable apply; a refusal counts only when no replica applied it.
    fn merge(&self, meta: &RequestMeta, entry_text: &str) -> Response {
        let entry = match ProfileEntry::from_text(entry_text) {
            Ok(e) => e,
            Err(e) => return Response::err(ErrorKind::from(&e), e.to_string()),
        };
        let shard = self.map.shard_of(&entry.workload, entry.module_hash);
        let delta = DeltaRecord {
            req_id: self.stamp_id(meta.req_id),
            dot: Some(self.stamp_dot()),
            entry_text: entry_text.to_string(),
        };
        let answer = self.deliver(shard, &delta);
        self.answer(shard, answer, "applied the merge")
    }

    /// Forwards a `profile` to the first live replica of the owning shard
    /// under a router-stamped id (the replica stores the run under it),
    /// then delivers the returned fresh-run entry to every replica as one
    /// dotted delta under the same id, so every replica holds the run and
    /// its dot — the replica that ran it skips the merge by the id. A
    /// replica's refusal is not the client's error: the run is already
    /// stored, and repair ships the replica the delta later.
    fn profile(&self, workload: &str, meta: &RequestMeta, req: &Request) -> Response {
        let shard = match self.shard_of_workload(workload) {
            Ok(shard) => shard,
            Err(resp) => return resp,
        };
        let stamped = RequestMeta {
            req_id: self.stamp_id(meta.req_id),
            ..*meta
        };
        match self.forward(shard, workload, &stamped, req) {
            Ok((_, Response::Ok(entry_text))) => {
                let delta = DeltaRecord {
                    req_id: stamped.req_id,
                    dot: Some(self.stamp_dot()),
                    entry_text,
                };
                self.deliver(shard, &delta);
                Response::Ok(delta.entry_text)
            }
            Ok((_, resp)) | Err(resp) => resp,
        }
    }

    /// The client's idempotency id, or for an id-less client a fresh
    /// router id, so replica dedup sees one identity for the write
    /// across all replicas. Replicas remember applied ids across
    /// restarts, so router ids must not repeat from one router start to
    /// the next, whatever its health root: each start seeds its splitmix
    /// stream from fresh randomness, as it does its dot origin.
    fn stamp_id(&self, req_id: u64) -> u64 {
        if req_id != 0 {
            return req_id;
        }
        loop {
            let id = splitmix64_mix(self.id_seq.fetch_add(SPLITMIX64_GAMMA, Ordering::Relaxed));
            if id != 0 {
                return id;
            }
        }
    }

    /// The next dot of this router start. The origin is random, not
    /// derived from the health root, because replicas dedup by dot before
    /// id: a reused dot would make a new merge look delivered.
    fn stamp_dot(&self) -> Dot {
        Dot {
            origin: self.origin,
            n: self.dot_seq.fetch_add(1, Ordering::Relaxed) + 1,
        }
    }

    /// Sends `req` to every live replica of `shard` at once (see
    /// [`Router::call_all`]), then takes the answers in replica order,
    /// noting a transport failure as a miss; returns the first ack, else
    /// the first typed refusal, else `None` (no live replica answered).
    fn fan_out(&self, shard: u32, req: &Request) -> Option<Response> {
        let shard = shard as usize;
        let (live, targets) = self.live_replicas(shard);
        let results = self.call_all(&targets, &RequestMeta::default(), req);
        let (mut acked, mut refused) = (None, None);
        for (r, result) in live.into_iter().zip(results) {
            match result {
                Ok(resp @ Response::Ok(_)) => acked = acked.or(Some(resp)),
                Ok(resp) => refused = refused.or(Some(resp)),
                Err(_) => self.note_miss(shard, r),
            }
        }
        acked.or(refused)
    }

    /// The replicas of `shard` the detector holds live, with their
    /// indices, in index order.
    fn live_replicas(&self, shard: usize) -> (Vec<usize>, Vec<&Replica>) {
        (self.shards[shard].iter().enumerate())
            .filter(|&(r, _)| !self.is_dead(shard, r))
            .unzip()
    }

    /// A fan-out's answer to the client: the ack (counted as forwarded)
    /// or refusal, or `unavailable` when no live replica `what`.
    fn answer(&self, shard: u32, reply: Option<Response>, what: &str) -> Response {
        match reply {
            Some(resp @ Response::Ok(_)) => {
                self.forwarded.inc();
                resp
            }
            Some(refused) => refused,
            None => self.unavailable(shard, format!("no live replica {what}")),
        }
    }

    /// Delivers one delta as a `sync-delta` to every live replica of
    /// `shard` (see [`Router::fan_out`]); a replica the delivery misses
    /// is caught up by repair later.
    fn deliver(&self, shard: u32, delta: &DeltaRecord) -> Option<Response> {
        let req = Request::SyncDelta {
            batch_text: encode_delta_batch(std::slice::from_ref(delta)),
        };
        let answer = self.fan_out(shard, &req);
        let due = {
            let mut floor = self.floor(shard as usize);
            floor.deliveries += 1;
            floor.deliveries >= FLOOR_EVERY_DELIVERIES
        };
        if due {
            self.exchange_contexts(shard as usize);
        }
        answer
    }

    /// The shard owning `workload`'s registered module.
    fn shard_of_workload(&self, workload: &str) -> Result<u32, Response> {
        let modules = self.modules.lock().unwrap_or_else(PoisonError::into_inner);
        match modules.get(workload) {
            Some(&(hash, _)) => Ok(self.map.shard_of(workload, hash)),
            None => Err(Response::err(
                ErrorKind::NotFound,
                format!("no module submitted for workload `{workload}` via this router"),
            )),
        }
    }

    /// Routes a read/compute request to the first live replica of the
    /// owning shard.
    fn route_by_workload(&self, workload: &str, meta: &RequestMeta, req: &Request) -> Response {
        match self.shard_of_workload(workload) {
            Ok(shard) => match self.forward(shard, workload, meta, req) {
                Ok((_, resp)) | Err(resp) => resp,
            },
            Err(resp) => resp,
        }
    }

    /// Sends `req` to the first live replica of `shard` that answers;
    /// returns that replica's index and answer, or `unavailable`.
    fn forward(
        &self,
        shard: u32,
        workload: &str,
        meta: &RequestMeta,
        req: &Request,
    ) -> Result<(usize, Response), Response> {
        for (r, replica) in self.shard_replicas(shard).iter().enumerate() {
            if self.is_dead(shard as usize, r) {
                continue;
            }
            match self.call_replica_with(replica, meta, req) {
                Ok(resp) => {
                    self.forwarded.inc();
                    return Ok((r, resp));
                }
                Err(_) => self.note_miss(shard as usize, r),
            }
        }
        Err(self.unavailable(shard, format!("no live replica for `{workload}`")))
    }

    /// The failure detector's table, for operators and tests.
    fn health_body(&self) -> String {
        let mut out = format!(
            "# router health v1\nprobe-every {}\nhandled {}\n",
            self.probe_every,
            self.req_seq.load(Ordering::Relaxed)
        );
        out.push_str(&self.detector().snapshot_text());
        out
    }

    /// One anti-entropy round across every shard, one line per shard.
    fn repair_body(&self) -> String {
        let mut out = String::new();
        for k in 0..self.shards.len() {
            let (divergent, resent) = self.repair_shard(k);
            let _ = writeln!(
                out,
                "repair shard={k} divergent={divergent} resent={resent}"
            );
        }
        out
    }

    /// One replica's causal context, after it adopted `floor`; `None`
    /// when it did not answer with one.
    fn context_of(&self, replica: &Replica, floor: &str) -> Option<CausalContext> {
        let req = Request::Context {
            floor: floor.to_string(),
        };
        context_from(self.call_replica(replica, &req))
    }

    /// Collects the live replicas' causal contexts, asking them all at
    /// once and handing each the floor the previous exchange computed;
    /// when every replica the detector holds live answered, their
    /// intersection — the dots all of them hold — is the floor the next
    /// exchange hands out. Pruning thus lags one exchange, which is safe:
    /// a floor only names dots every live replica already held, and a
    /// replica that lacks one later (it was dead, or its store was wiped)
    /// gets a state transfer.
    fn exchange_contexts(&self, shard: usize) -> Vec<(usize, CausalContext)> {
        let floor = {
            let mut floor = self.floor(shard);
            floor.deliveries = 0;
            floor.text.clone()
        };
        let (live, targets) = self.live_replicas(shard);
        let req = Request::Context { floor };
        let answers = self.call_all(&targets, &RequestMeta::default(), &req);
        let contexts: Vec<(usize, CausalContext)> = (live.iter().zip(answers))
            .filter_map(|(&r, answer)| Some((r, context_from(answer)?)))
            .collect();
        if contexts.len() == live.len() {
            let mut held = contexts.iter().map(|(_, c)| c);
            if let Some(first) = held.next() {
                let next = held.fold(first.clone(), |f, c| f.intersection(c));
                self.floor(shard).text = next.to_text();
            }
        }
        contexts
    }

    /// One anti-entropy round for one shard: exchange the live replicas'
    /// causal contexts (advancing the floor); where they differ, send
    /// each replica exactly the deltas it lacks, pulled by dot from the
    /// siblings that logged them. A replica that lacks a dot no sibling
    /// can ship any more — pruned below the floor while it was dead, or
    /// before its store was wiped — gets a state transfer instead, after
    /// the round shipped its own deltas to its siblings. Returns
    /// `(divergent, deltas shipped)`.
    fn repair_shard(&self, shard: usize) -> (bool, u64) {
        let replicas = &self.shards[shard];
        let contexts = self.exchange_contexts(shard);
        let divergent = contexts.windows(2).any(|w| w[0].1 != w[1].1);
        let (mut shipped, mut lagging) = (0u64, Vec::new());
        for (r, held) in contexts.iter().filter(|_| divergent) {
            let pull = Request::PullDeltas {
                context: held.to_text(),
            };
            let mut missing: BTreeMap<Dot, DeltaRecord> = BTreeMap::new();
            for (h, theirs) in &contexts {
                if h == r || theirs.intersection(held) == *theirs {
                    continue; // nothing there that `r` lacks
                }
                let Ok(Response::Ok(batch)) = self.call_replica(&replicas[*h], &pull) else {
                    continue;
                };
                for delta in decode_delta_batch(&batch).unwrap_or_default() {
                    if let Some(dot) = delta.dot {
                        missing.entry(dot).or_insert(delta);
                    }
                }
            }
            let mut reach = held.clone();
            for dot in missing.keys() {
                reach.insert(*dot);
            }
            if contexts
                .iter()
                .any(|(_, theirs)| theirs.intersection(&reach) != *theirs)
            {
                lagging.push(*r);
                continue;
            }
            if missing.is_empty() {
                continue;
            }
            let deltas: Vec<DeltaRecord> = missing.into_values().collect();
            let req = Request::SyncDelta {
                batch_text: encode_delta_batch(&deltas),
            };
            if let Ok(Response::Ok(_)) = self.call_replica(&replicas[*r], &req) {
                shipped += deltas.len() as u64;
            }
        }
        for &r in &lagging {
            self.transfer_state(shard, r, &lagging);
        }
        self.repair_rounds.inc();
        self.repair_resent.add(shipped);
        (divergent, shipped)
    }

    /// Replaces a lagging replica's state with that of a live sibling,
    /// not lagging itself, whose context covers the target's. The target
    /// checks the cover again under its own lock, so a dot only it holds
    /// is never dropped: repair ships such dots to the siblings first,
    /// and until it has, no sibling qualifies and the transfer waits for
    /// a later round.
    fn transfer_state(&self, shard: usize, target: usize, lagging: &[usize]) {
        let replicas = &self.shards[shard];
        let Some(held) = self.context_of(&replicas[target], "") else {
            return;
        };
        let source = (0..replicas.len())
            .filter(|&s| !lagging.contains(&s) && !self.is_dead(shard, s))
            .find(|&s| {
                self.context_of(&replicas[s], "")
                    .is_some_and(|theirs| theirs.intersection(&held) == held)
            });
        let Some(source) = source else {
            return;
        };
        let Ok(Response::Ok(state_text)) =
            self.call_replica(&replicas[source], &Request::PullState)
        else {
            return;
        };
        let install = Request::InstallState { state_text };
        if let Ok(Response::Ok(_)) = self.call_replica(&replicas[target], &install) {
            self.state_transfers.inc();
        }
    }

    /// Fans a verb out to every replica of every shard at once, composing
    /// the bodies in (shard, replica) order under `== shard K replica R
    /// addr A ==` section headers (a replica that failed gets one `err
    /// KIND: …` or `unreachable: …` line instead). The leading `== router ==` section is the router's
    /// own registry snapshot. [`split_sections`] is the inverse.
    fn fan_out_body(&self, req: &Request) -> String {
        {
            let detector = self.detector();
            for (k, replicas) in self.shards.iter().enumerate() {
                for (r, replica) in replicas.iter().enumerate() {
                    replica.health.set(detector.state(k, r).level());
                }
            }
        }
        let mut out = format!("{ROUTER_HEADER}\n");
        out.push_str(&self.obs.snapshot_text());
        let (indices, targets) = self.every_replica();
        let answers = self.call_all(&targets, &RequestMeta::default(), req);
        for (((k, r), replica), answer) in indices.into_iter().zip(targets).zip(answers) {
            let addr = replica.addr();
            let _ = writeln!(out, "== shard {k} replica {r} addr {addr} ==");
            match answer {
                Ok(Response::Ok(body)) => out.push_str(&body),
                Ok(Response::Err { kind, message, .. }) => {
                    let _ = writeln!(out, "err {kind}: {message}");
                }
                Err(e) => {
                    let _ = writeln!(out, "unreachable: {e}");
                }
            }
        }
        out
    }

    /// Re-points a replica at a new address (a genuine move — same-port
    /// restarts heal without this verb) and runs the revival routine:
    /// re-teach modules, repair.
    fn route_update(&self, shard: u32, replica_idx: u32, addr: &str) -> Response {
        let Some(replica) = self
            .shards
            .get(shard as usize)
            .and_then(|rs| rs.get(replica_idx as usize))
        else {
            return Response::err(
                ErrorKind::Malformed,
                format!("no such replica: shard {shard} replica {replica_idx}"),
            );
        };
        *replica.addr.lock().unwrap_or_else(PoisonError::into_inner) = addr.to_string();
        *replica
            .client
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = None;
        // The operator asserts the replica is reachable there; the next
        // probe pass corrects the table if not.
        let outcome = self
            .detector()
            .probe_ok(shard as usize, replica_idx as usize);
        if outcome == ProbeOutcome::Revived {
            self.revivals.inc();
        }
        self.persist_health();
        self.revive(shard as usize, replica_idx as usize);
        Response::Ok(format!(
            "routed shard={shard} replica={replica_idx} addr={addr}\n"
        ))
    }

    fn unavailable(&self, shard: u32, message: impl Into<String>) -> Response {
        self.shed_unavailable.inc();
        Response::unavailable(shard, UNAVAILABLE_RETRY_AFTER_MS, message)
    }

    /// Best-effort shutdown fan-out to every replica.
    fn shutdown_backends(&self) {
        for replicas in &self.shards {
            for replica in replicas {
                let _ = self.call_replica(replica, &Request::Shutdown);
            }
        }
    }
}

/// The causal context a `context` call answered with, if it did.
fn context_from(answer: io::Result<Response>) -> Option<CausalContext> {
    match answer {
        Ok(Response::Ok(body)) => CausalContext::from_text(&body).ok(),
        _ => None,
    }
}

/// The header of the router's own section in a fan-out body.
const ROUTER_HEADER: &str = "== router ==";

/// Where one section of a fan-out body came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin<'a> {
    /// A single daemon's body, which has no section headers.
    Daemon,
    /// `== router ==`: the router's own registry.
    Router,
    /// `== shard K replica R addr A ==`: one replica's body.
    Replica {
        /// Shard index.
        shard: usize,
        /// Replica index within the shard.
        replica: usize,
        /// The replica's address when the body was composed.
        addr: &'a str,
    },
}

/// One section of a `stats` (or `gc`) body. A replica's section that is
/// not a registry snapshot (`Snapshot::parse` fails) holds the one
/// `err KIND: …` or `unreachable: …` line its failure left.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Section<'a> {
    /// Whose body this is.
    pub origin: Origin<'a>,
    /// The section's lines, header excluded.
    pub body: &'a str,
}

fn parse_header(line: &str) -> Option<Origin<'_>> {
    if line == ROUTER_HEADER {
        return Some(Origin::Router);
    }
    let rest = line.strip_prefix("== shard ")?.strip_suffix(" ==")?;
    match rest.split(' ').collect::<Vec<_>>().as_slice() {
        [k, "replica", r, "addr", addr] => Some(Origin::Replica {
            shard: k.parse().ok()?,
            replica: r.parse().ok()?,
            addr,
        }),
        _ => None,
    }
}

/// Splits a `stats` or `gc` body into its sections, in order: the
/// inverse of the router's fan-out composition. A single daemon's body
/// has no headers and comes back as one [`Origin::Daemon`] section.
pub fn split_sections(body: &str) -> Vec<Section<'_>> {
    let mut sections = Vec::new();
    let mut origin = Origin::Daemon;
    let (mut start, mut at) = (0, 0);
    for line in body.split_inclusive('\n') {
        if let Some(next) = parse_header(line.trim_end_matches('\n')) {
            if origin != Origin::Daemon || at > start {
                sections.push(Section {
                    origin,
                    body: &body[start..at],
                });
            }
            origin = next;
            start = at + line.len();
        }
        at += line.len();
    }
    if origin != Origin::Daemon || at > start || sections.is_empty() {
        sections.push(Section {
            origin,
            body: &body[start..],
        });
    }
    sections
}

/// Connections that may wait for a router worker before the acceptor
/// answers `busy`.
const ROUTER_QUEUE_CAP: usize = 64;

/// A running router daemon (same lifecycle contract as
/// [`crate::Server`]).
pub type RouterServer = Daemon<Router>;

impl Daemon<Router> {
    /// Binds, restores the health table, spawns the acceptor and workers,
    /// returns immediately. [`Daemon::shutdown`] stops accepting and
    /// drains workers but leaves the backends running; a client
    /// `shutdown` request also fans out to them.
    ///
    /// # Errors
    ///
    /// Socket or health-directory failures.
    pub fn start(config: RouterConfig) -> io::Result<RouterServer> {
        let listener = TcpListener::bind(&config.addr)?;
        Daemon::spawn(
            Router::new(&config)?,
            Transport {
                listener,
                prefix: "router",
                workers: config.workers,
                queue_cap: ROUTER_QUEUE_CAP,
                net_faults: NetFaults::default(),
            },
        )
    }

    /// The router state (tests, in-process callers).
    pub fn router(&self) -> &Router {
        self.handler()
    }
}

impl Handler for Router {
    fn handle(&self, meta: &RequestMeta, req: &Request) -> Response {
        Router::handle(self, meta, req)
    }

    fn obs(&self) -> &Registry {
        &self.obs
    }

    /// A client `shutdown` stops the whole cluster: the backends first,
    /// then the router itself.
    fn on_shutdown(&self) {
        self.shutdown_backends();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stride_core::Snapshot;

    #[test]
    fn split_sections_inverts_the_fan_out_composition() {
        let body = "== router ==\ncounter router.forwarded 3\ngauge router.shards 2 max 2\n\
                    == shard 0 replica 0 addr 127.0.0.1:7 ==\ncounter server.req.stats 1\n\
                    == shard 0 replica 1 addr 127.0.0.1:8 ==\nunreachable: Connection refused\n\
                    == shard 1 replica 0 addr 127.0.0.1:9 ==\nerr io: disk full\n";
        let sections = split_sections(body);
        let origins: Vec<Origin<'_>> = sections.iter().map(|s| s.origin).collect();
        let replica = |shard, replica, addr| Origin::Replica {
            shard,
            replica,
            addr,
        };
        assert_eq!(
            origins,
            [
                Origin::Router,
                replica(0, 0, "127.0.0.1:7"),
                replica(0, 1, "127.0.0.1:8"),
                replica(1, 0, "127.0.0.1:9"),
            ]
        );
        let router = Snapshot::parse(sections[0].body).unwrap();
        assert_eq!(router.counter("router.forwarded"), Some(3));
        assert_eq!(router.gauge("router.shards"), Some(2));
        let up = Snapshot::parse(sections[1].body).unwrap();
        assert_eq!(up.counter("server.req.stats"), Some(1));
        assert_eq!(sections[2].body, "unreachable: Connection refused\n");
        assert!(Snapshot::parse(sections[2].body)
            .unwrap_err()
            .contains("unreachable:"));
        assert_eq!(sections[3].body, "err io: disk full\n");
        assert!(Snapshot::parse(sections[3].body).is_err());
    }

    #[test]
    fn a_headerless_body_is_one_daemon_section() {
        let body = "counter server.req.stats 1\n";
        let sections = split_sections(body);
        assert_eq!(sections.len(), 1);
        assert_eq!(sections[0].origin, Origin::Daemon);
        assert_eq!(sections[0].body, body);
        // A malformed header is not a section break: it fails the parse.
        let odd = "== shard x replica 0 addr a ==\ncounter c 1\n";
        let sections = split_sections(odd);
        assert_eq!(sections.len(), 1);
        assert!(Snapshot::parse(sections[0].body).is_err());
    }
}
