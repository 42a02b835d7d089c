//! Request handling: the daemon's state (module registry, run cache,
//! profile database) and the pure `Request -> Response` function the
//! worker pool drives.

use crate::proto::{ErrorKind, Request, RequestMeta, Response};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use stride_core::{
    classify, faulted_profiling, fingerprint_module, run_profiling, Classification, Counter,
    FaultInjector, FaultKind, Histogram, PipelineConfig, PipelineError, ProfileOutcome,
    ProfilingVariant, Registry, RunCache, SpeedupOutcome, TraceEvent,
};
use stride_ir::{module_from_string, Module};
use stride_profdb::{
    decode_delta_batch, encode_delta_batch, module_hash, CausalContext, DbError, DiskFaults,
    ProfileDb, ProfileEntry,
};

/// Entry-text bytes one `pull-deltas` answer carries at most, well
/// inside a frame; anti-entropy ships the rest in later rounds.
const PULL_BATCH_BYTES: usize = crate::proto::MAX_FRAME / 2;

/// Converts the plan's disk fault kinds into the store's injectable
/// [`DiskFaults`] (later clauses win for the same kind).
fn disk_faults_of(injector: Option<&FaultInjector>) -> DiskFaults {
    let mut faults = DiskFaults::default();
    let Some(injector) = injector else {
        return faults;
    };
    for scenario in &injector.plan().scenarios {
        match scenario.kind {
            FaultKind::DiskTornWrite { at } => faults.torn_write = Some(at),
            FaultKind::DiskBitFlip { bit } => faults.bit_flip = Some(bit),
            FaultKind::DiskFsyncFail { nth } => faults.fsync_fail = Some(nth),
            FaultKind::DiskShortRead { len } => faults.short_read = Some(len),
            _ => {}
        }
    }
    faults
}

/// Daemon configuration independent of the listening socket.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Where the profile database lives.
    pub db_root: PathBuf,
    /// Per-request fuel deadline: every request's VM runs get at most
    /// this many dynamic instructions (clamped into the pipeline config,
    /// so a hostile module cannot wedge a worker).
    pub request_fuel: u64,
    /// Pipeline configuration shared by all requests.
    pub pipeline: PipelineConfig,
    /// Optional server-side fault injection (soak testing the typed
    /// error paths).
    pub injector: Option<FaultInjector>,
}

impl ServiceConfig {
    /// Defaults: database under `dir`, a 2-billion-instruction deadline,
    /// paper pipeline configuration, no fault injection.
    pub fn new(db_root: impl Into<PathBuf>) -> Self {
        ServiceConfig {
            db_root: db_root.into(),
            request_fuel: 2_000_000_000,
            pipeline: PipelineConfig::default(),
            injector: None,
        }
    }
}

/// Metric handles for the request path. Updates through these are
/// lock-free atomic adds; registration (which takes the registry lock and
/// allocates) happens once per handle: at service construction, or for
/// the per-verb and per-error-kind counters on their first use, so a verb
/// never asked for adds no line to the stats snapshot.
struct ServiceMetrics {
    latency_profile: Histogram,
    latency_classify: Histogram,
    latency_prefetch: Histogram,
    retried_merges: Counter,
    deltas_applied: Counter,
    deltas_deduped: Counter,
    /// `server.req.<verb>`, indexed like [`VERBS`].
    requests: [OnceLock<Counter>; VERBS.len()],
    /// `server.error.<kind>`, indexed like [`ErrorKind::ALL`].
    errors: [OnceLock<Counter>; ErrorKind::ALL.len()],
}

impl ServiceMetrics {
    fn new(obs: &Registry) -> Self {
        ServiceMetrics {
            latency_profile: obs.histogram("server.latency.profile.cycles"),
            latency_classify: obs.histogram("server.latency.classify.cycles"),
            latency_prefetch: obs.histogram("server.latency.prefetch.cycles"),
            retried_merges: obs.counter("server.merge.retried"),
            deltas_applied: obs.counter("repl.deltas_applied"),
            deltas_deduped: obs.counter("repl.deltas_deduped"),
            requests: Default::default(),
            errors: Default::default(),
        }
    }
}

/// Increments the counter in `slot`, registering it as `name` first if
/// this is its first use.
fn bump(obs: &Registry, slot: &OnceLock<Counter>, name: impl FnOnce() -> String) {
    slot.get_or_init(|| obs.counter(&name())).inc();
}

/// Every verb a request is counted under (`server.req.<verb>`), in the
/// order [`verb_of`] indexes them.
const VERBS: [&str; 18] = [
    "submit",
    "profile",
    "classify",
    "prefetch",
    "get-profile",
    "merge-profile",
    "sync-delta",
    "gc",
    "ping",
    "context",
    "pull-deltas",
    "pull-state",
    "install-state",
    "health",
    "repair",
    "route-update",
    "stats",
    "shutdown",
];

/// The index into [`VERBS`] of the verb a request is counted under.
fn verb_of(req: &Request) -> usize {
    match req {
        Request::SubmitModule { .. } => 0,
        Request::Profile { .. } => 1,
        Request::Classify { .. } => 2,
        Request::Prefetch { .. } => 3,
        Request::GetProfile { .. } => 4,
        Request::MergeProfile { .. } => 5,
        Request::SyncDelta { .. } => 6,
        Request::Gc => 7,
        Request::Ping => 8,
        Request::Context { .. } => 9,
        Request::PullDeltas { .. } => 10,
        Request::PullState => 11,
        Request::InstallState { .. } => 12,
        Request::Health => 13,
        Request::Repair => 14,
        Request::RouteUpdate { .. } => 15,
        Request::Stats => 16,
        Request::Shutdown => 17,
    }
}

/// A submitted module with its store key hash and its run-cache
/// fingerprint, both computed once at submit.
struct Submitted {
    module: Module,
    hash: u64,
    fingerprint: u64,
}

/// The daemon's shared state; `handle` is safe to call from any number of
/// worker threads.
pub struct Service {
    config: ServiceConfig,
    effective: PipelineConfig,
    db: Mutex<ProfileDb>,
    modules: Mutex<HashMap<String, Arc<Submitted>>>,
    cache: RunCache,
    /// Requests handled: the logical clock of the request trace.
    requests: AtomicU64,
    obs: Arc<Registry>,
    metrics: ServiceMetrics,
}

impl Service {
    /// Opens the database and builds the service.
    ///
    /// # Errors
    ///
    /// Returns [`DbError`] when the database root cannot be created.
    pub fn new(config: ServiceConfig) -> Result<Self, DbError> {
        let db = ProfileDb::open_with(&config.db_root, disk_faults_of(config.injector.as_ref()))?;
        let mut effective = config.pipeline;
        effective.vm.fuel = effective.vm.fuel.min(config.request_fuel);
        let obs = Arc::new(Registry::new());
        let metrics = ServiceMetrics::new(&obs);
        Ok(Service {
            effective,
            db: Mutex::new(db),
            modules: Mutex::new(HashMap::new()),
            cache: RunCache::new(),
            requests: AtomicU64::new(0),
            obs,
            metrics,
            config,
        })
    }

    /// The service's metrics registry (shared with the surrounding
    /// server, which contributes acceptor-side counters).
    pub fn obs(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// The pipeline configuration requests actually run under (fuel
    /// deadline applied).
    pub fn pipeline_config(&self) -> &PipelineConfig {
        &self.effective
    }

    fn module_of(&self, workload: &str) -> Result<Arc<Submitted>, Response> {
        self.modules
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(workload)
            .cloned()
            .ok_or_else(|| {
                Response::err(
                    ErrorKind::NotFound,
                    format!("no module submitted for workload `{workload}`"),
                )
            })
    }

    /// The server-side fault plan, if it targets `workload`. Requests for
    /// such a workload bypass the run cache so clean requests never see
    /// perturbed results.
    fn injector_for(&self, workload: &str) -> Option<&FaultInjector> {
        self.config
            .injector
            .as_ref()
            .filter(|i| i.affects(workload))
    }

    /// Runs one uncached profiling pass under `injector`'s plan for
    /// `workload` and perturbs its profiles as the plan says.
    fn faulted_profiling(
        injector: &FaultInjector,
        workload: &str,
        module: &Module,
        variant: ProfilingVariant,
        args: &[i64],
        config: &PipelineConfig,
    ) -> Result<ProfileOutcome, PipelineError> {
        faulted_profiling(
            injector,
            workload,
            module,
            config,
            |e, _| e.into(),
            |c| run_profiling(module, args, variant, c),
        )
    }

    /// Handles one request with no metadata (server-default deadline, no
    /// idempotency id).
    pub fn handle(&self, req: &Request) -> Response {
        self.handle_meta(&RequestMeta::default(), req)
    }

    /// Handles one request under its metadata: the client's deadline
    /// clamps the fuel budget, and a nonzero idempotency id makes a
    /// retried `merge-profile` merge exactly once. Never panics by
    /// contract of the individual handlers; the worker pool still wraps
    /// this in `catch_unwind` so a bug degrades to an
    /// [`ErrorKind::Panic`] wire error.
    pub fn handle_meta(&self, meta: &RequestMeta, req: &Request) -> Response {
        // The request sequence number doubles as the trace event's
        // logical clock: metrics never read wall-clock time.
        let seq = self.requests.fetch_add(1, Ordering::Relaxed);
        let verb = verb_of(req);
        bump(&self.obs, &self.metrics.requests[verb], || {
            format!("server.req.{}", VERBS[verb])
        });
        let resp = self.dispatch(meta, req);
        let failed = if let Response::Err { kind, .. } = &resp {
            bump(&self.obs, &self.metrics.errors[*kind as usize], || {
                format!("server.error.{kind}")
            });
            1
        } else {
            0
        };
        self.obs.trace(TraceEvent {
            clock: seq,
            label: "server.request",
            a: seq,
            b: failed,
        });
        resp
    }

    /// The pipeline configuration one request runs under: the server's
    /// effective config, with the VM fuel further clamped to the
    /// client's deadline. Deadlines only shrink budgets.
    fn config_for(&self, meta: &RequestMeta) -> PipelineConfig {
        let mut config = self.effective;
        if let Some(fuel) = meta.deadline_fuel {
            config.vm.fuel = config.vm.fuel.min(fuel);
        }
        config
    }

    fn dispatch(&self, meta: &RequestMeta, req: &Request) -> Response {
        let config = self.config_for(meta);
        match req {
            Request::SubmitModule { workload, text } => self.submit(workload, text),
            Request::Profile {
                workload,
                variant,
                args,
            } => self.profile(workload, *variant, args, &config, meta.req_id),
            Request::Classify {
                workload,
                variant,
                args,
            } => self.classify_req(workload, *variant, args, &config),
            Request::Prefetch {
                workload,
                variant,
                train_args,
                ref_args,
            } => self.prefetch(workload, *variant, train_args, ref_args, &config),
            Request::GetProfile { workload } => self.get_profile(workload),
            Request::MergeProfile { entry_text } => self.merge_profile(entry_text, meta.req_id),
            Request::SyncDelta { batch_text } => self.sync_delta(batch_text),
            Request::Gc => self.gc_req(),
            // Liveness probe: answer without touching the database, so a
            // probe succeeds even while the store is busy or degraded.
            Request::Ping => Response::Ok("pong\n".to_string()),
            Request::Context { floor } => self.context_req(floor),
            Request::PullDeltas { context } => self.pull_deltas_req(context),
            Request::PullState => self.pull_state_req(),
            Request::InstallState { state_text } => self.install_state_req(state_text),
            Request::Health | Request::Repair | Request::RouteUpdate { .. } => Response::err(
                ErrorKind::Malformed,
                format!(
                    "{} is a router verb; this is a shard daemon",
                    VERBS[verb_of(req)]
                ),
            ),
            Request::Stats => Response::Ok(self.stats_body()),
            // The transport intercepts Shutdown before dispatch; reply
            // affirmatively anyway for direct (in-process) callers.
            Request::Shutdown => Response::Ok("shutting down\n".to_string()),
        }
    }

    /// Folds the database's WAL away (graceful-shutdown hook). Errors
    /// are ignored: a failed checkpoint just leaves redo work for the
    /// next startup's recovery.
    pub fn checkpoint(&self) {
        let db = self.db.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = db.checkpoint();
    }

    /// What startup recovery found in the database (for operator logs).
    pub fn recovery_report(&self) -> Option<stride_profdb::RecoveryReport> {
        self.db
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .recovery_report()
            .cloned()
    }

    fn submit(&self, workload: &str, text: &str) -> Response {
        let module = match module_from_string(text) {
            Ok(m) => m,
            Err(e) => {
                // Caret-rendered diagnostic: line, source, position.
                return Response::err(ErrorKind::Parse, e.render(text));
            }
        };
        let hash = module_hash(&module);
        let sub = Submitted {
            fingerprint: fingerprint_module(&module),
            module,
            hash,
        };
        self.modules
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(workload.to_string(), Arc::new(sub));
        Response::Ok(format!("module {hash:016x}\n"))
    }

    /// Profiles one run and merges it into the store, under the
    /// request's idempotency id when it carries one (the router stamps
    /// one, then delivers the run to every replica of the shard as one
    /// dotted delta, which this store skips by the id but holds the dot
    /// of).
    fn profile(
        &self,
        workload: &str,
        variant: ProfilingVariant,
        args: &[i64],
        config: &PipelineConfig,
        req_id: u64,
    ) -> Response {
        let sub = match self.module_of(workload) {
            Ok(s) => s,
            Err(resp) => return resp,
        };
        let outcome = match self.injector_for(workload) {
            Some(injector) => {
                Self::faulted_profiling(injector, workload, &sub.module, variant, args, config)
                    .map(Arc::new)
            }
            // Looked up by the stored fingerprint; the classification
            // `classified` memoizes beside the run is what a later
            // `classify` of it answers.
            None => self
                .cache
                .classified(&sub.module, sub.fingerprint, variant, args, config)
                .map(|(outcome, _)| outcome),
        };
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => return pipeline_err(&e),
        };
        self.metrics.latency_profile.observe(outcome.run.cycles);
        let entry = ProfileEntry::from_run(workload, sub.hash, &outcome.edge, &outcome.stride);
        // The response is the *fresh* run's entry (runs=1): deterministic
        // bytes regardless of how many runs the database has accumulated.
        let entry_text = entry.to_text();
        let db = self.db.lock().unwrap_or_else(PoisonError::into_inner);
        match db.merge_store_logged(&entry, req_id) {
            Ok(_) => Response::Ok(entry_text),
            Err(e) => db_err(&e),
        }
    }

    fn classify_req(
        &self,
        workload: &str,
        variant: ProfilingVariant,
        args: &[i64],
        config: &PipelineConfig,
    ) -> Response {
        let sub = match self.module_of(workload) {
            Ok(s) => s,
            Err(resp) => return resp,
        };
        let classified = match self.injector_for(workload) {
            Some(injector) => {
                Self::faulted_profiling(injector, workload, &sub.module, variant, args, config).map(
                    |o| {
                        let c =
                            classify(&sub.module, &o.stride, &o.edge, o.source, &config.prefetch);
                        (Arc::new(o), Arc::new(c))
                    },
                )
            }
            None => self
                .cache
                .classified(&sub.module, sub.fingerprint, variant, args, config),
        };
        let (outcome, classification) = match classified {
            Ok(c) => c,
            Err(e) => return pipeline_err(&e),
        };
        self.metrics.latency_classify.observe(outcome.run.cycles);
        Response::Ok(render_classification(&classification))
    }

    fn prefetch(
        &self,
        workload: &str,
        variant: ProfilingVariant,
        train_args: &[i64],
        ref_args: &[i64],
        config: &PipelineConfig,
    ) -> Response {
        let sub = match self.module_of(workload) {
            Ok(s) => s,
            Err(resp) => return resp,
        };
        let module = &sub.module;
        let result = match self.injector_for(workload) {
            Some(injector) => self.cache.speedup_faulted(
                module, workload, train_args, ref_args, variant, config, injector,
            ),
            None => self
                .cache
                .speedup(module, train_args, ref_args, variant, config),
        };
        match result {
            Ok(outcome) => {
                // Request latency in VM cycles: both measured runs. A
                // cache hit replays the same outcome, so the observation
                // is identical however the request was served.
                self.metrics.latency_prefetch.observe(
                    outcome
                        .baseline_cycles
                        .saturating_add(outcome.prefetch_cycles),
                );
                Response::Ok(render_speedup(&outcome))
            }
            Err(e) => pipeline_err(&e),
        }
    }

    fn get_profile(&self, workload: &str) -> Response {
        let sub = match self.module_of(workload) {
            Ok(s) => s,
            Err(resp) => return resp,
        };
        let db = self.db.lock().unwrap_or_else(PoisonError::into_inner);
        match db.load_text(workload, sub.hash) {
            Ok(text) => Response::Ok(text),
            Err(e) => db_err(&e),
        }
    }

    fn merge_profile(&self, entry_text: &str, req_id: u64) -> Response {
        let entry = match ProfileEntry::from_text(entry_text) {
            Ok(e) => e,
            Err(e) => return db_err(&e),
        };
        // Recovery orders replay by the runs counter, so an entry that
        // contributes no runs would be indistinguishable from an
        // already-applied one.
        if entry.runs == 0 {
            return Response::err(
                ErrorKind::Malformed,
                "merge-profile entry must carry runs >= 1",
            );
        }
        // Staleness check: if the workload's module is registered, the
        // incoming entry must match its current content hash.
        if let Ok(sub) = self.module_of(&entry.workload) {
            if let Err(e) = entry.check_fresh(sub.hash) {
                return db_err(&e);
            }
        }
        let db = self.db.lock().unwrap_or_else(PoisonError::into_inner);
        match db.merge_store_logged(&entry, req_id) {
            Ok((merged, deduped)) => {
                let dedup_note = if deduped {
                    self.metrics.retried_merges.inc();
                    " (duplicate request id)"
                } else {
                    ""
                };
                Response::Ok(format!("{}{dedup_note}\n", merged.summary()))
            }
            Err(e) => db_err(&e),
        }
    }

    /// Applies a replication delta batch exactly-once per delta id.
    fn sync_delta(&self, batch_text: &str) -> Response {
        let deltas = match decode_delta_batch(batch_text) {
            Ok(d) => d,
            Err(e) => return db_err(&e),
        };
        let db = self.db.lock().unwrap_or_else(PoisonError::into_inner);
        match db.apply_deltas(&deltas) {
            Ok(report) => {
                self.metrics.deltas_applied.add(report.applied as u64);
                self.metrics.deltas_deduped.add(report.deduped as u64);
                Response::Ok(format!(
                    "applied {} deduped {}\n",
                    report.applied, report.deduped
                ))
            }
            Err(e) => db_err(&e),
        }
    }

    /// Adopts the shard-wide floor, if one came, and reports the
    /// store's causal context (anti-entropy's exact diff).
    fn context_req(&self, floor: &str) -> Response {
        let floor = match CausalContext::from_text(floor) {
            Ok(f) => f,
            Err(e) => return db_err(&e),
        };
        let db = self.db.lock().unwrap_or_else(PoisonError::into_inner);
        db.adopt_floor(&floor);
        Response::Ok(db.causal_context().to_text())
    }

    /// Exports the logged deltas a sibling with causal context `held`
    /// lacks, as a delta batch.
    fn pull_deltas_req(&self, held: &str) -> Response {
        let held = match CausalContext::from_text(held) {
            Ok(c) => c,
            Err(e) => return db_err(&e),
        };
        let db = self.db.lock().unwrap_or_else(PoisonError::into_inner);
        let deltas = db.deltas_missing_from(&held, PULL_BATCH_BYTES);
        Response::Ok(encode_delta_batch(&deltas))
    }

    /// Exports the store's whole replicated state for a sibling below
    /// the shard floor. One too big for the `install-state` frame that
    /// carries it on is refused typed, not cut.
    fn pull_state_req(&self) -> Response {
        let db = self.db.lock().unwrap_or_else(PoisonError::into_inner);
        match db.export_state() {
            Ok(text) if text.len() > crate::proto::MAX_FRAME - 64 => Response::err(
                ErrorKind::Malformed,
                format!("shard state of {} bytes does not fit a frame", text.len()),
            ),
            Ok(text) => Response::Ok(text),
            Err(e) => db_err(&e),
        }
    }

    /// Replaces the store's state with a sibling's.
    fn install_state_req(&self, state_text: &str) -> Response {
        let db = self.db.lock().unwrap_or_else(PoisonError::into_inner);
        match db.install_state(state_text) {
            Ok(()) => Response::Ok("installed\n".to_string()),
            Err(e) => db_err(&e),
        }
    }

    /// Garbage-collects entries whose workload has no registered module
    /// or whose module hash is stale.
    fn gc_req(&self) -> Response {
        let live: HashMap<String, u64> = self
            .modules
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(w, sub)| (w.clone(), sub.hash))
            .collect();
        let db = self.db.lock().unwrap_or_else(PoisonError::into_inner);
        match db.gc(|w, h| live.get(w) == Some(&h)) {
            Ok(removed) => {
                let mut out = format!("removed {}\n", removed.len());
                for rec in removed {
                    let _ = writeln!(out, "{} {:016x}", rec.workload, rec.module_hash);
                }
                Response::Ok(out)
            }
            Err(e) => db_err(&e),
        }
    }

    /// The `stats` body: the registry snapshot, after sampling the
    /// store's levels into gauges and bridging its (and the run cache's)
    /// monotonic stats into counters. Holding the store lock serializes
    /// bridging, so each build adds exactly the growth since the last.
    fn stats_body(&self) -> String {
        let gauge = |name: &str, level: u64| self.obs.gauge(name).set(level);
        let bridge = |name: &str, total: u64| {
            let counter = self.obs.counter(name);
            counter.add(total.saturating_sub(counter.get()));
        };
        let modules = self
            .modules
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len();
        gauge("server.modules", modules as u64);
        let db = self.db.lock().unwrap_or_else(PoisonError::into_inner);
        let records = db.list().unwrap_or_default();
        gauge("profdb.entries", records.len() as u64);
        gauge("profdb.runs", records.iter().map(|r| r.runs).sum());
        gauge("wal.pending", u64::from(db.wal_pending()));
        let wal = db.wal_stats();
        bridge("wal.appends", wal.appends);
        bridge("wal.syncs", wal.syncs);
        bridge("profdb.fsyncs", db.fsyncs());
        bridge("wal.checkpoints", wal.checkpoints);
        let recovery = db.recovery_report().cloned().unwrap_or_default();
        bridge("recovery.replayed", recovery.replayed as u64);
        bridge("recovery.quarantined", recovery.quarantined as u64);
        let cache = self.cache.stats();
        bridge("server.cache.hits", cache.hits);
        bridge("server.cache.misses", cache.misses);
        drop(db);
        self.obs.snapshot_text()
    }
}

fn pipeline_err(e: &PipelineError) -> Response {
    Response::err(ErrorKind::from(e), e.to_string())
}

fn db_err(e: &DbError) -> Response {
    Response::err(ErrorKind::from(e), e.to_string())
}

/// Deterministic text rendering of a classification (the `classify`
/// response body). Stable across worker counts and request interleavings.
pub fn render_classification(c: &Classification) -> String {
    let mut out = format!(
        "loads {} filtered-low-freq {} filtered-low-trip {} no-pattern {}\n",
        c.loads.len(),
        c.filtered_low_freq,
        c.filtered_low_trip,
        c.no_pattern
    );
    for l in &c.loads {
        let _ = writeln!(
            out,
            "load {} {} class={} stride={} tc={:.2} freq={}",
            l.func, l.site, l.class, l.dominant_stride, l.trip_count, l.freq
        );
    }
    out
}

/// Deterministic text rendering of a speedup outcome (the `prefetch`
/// response body).
pub fn render_speedup(o: &SpeedupOutcome) -> String {
    format!(
        "baseline-cycles {}\nprefetch-cycles {}\nspeedup {:.6}\nprefetch-sites {}\nprefetches-inserted {}\nprefetches-issued {}\n",
        o.baseline_cycles,
        o.prefetch_cycles,
        o.speedup,
        o.classification.loads.len(),
        o.report.prefetches_inserted,
        o.prefetch_mem.prefetches_issued,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use stride_ir::{module_to_string, ModuleBuilder, Operand};
    use stride_profiling::StrideProfile;

    fn tmp_service(tag: &str) -> Service {
        let root =
            std::env::temp_dir().join(format!("stride-service-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        Service::new(ServiceConfig::new(root)).unwrap()
    }

    /// Repeated strided sweeps over a big array (profilable, prefetchable).
    fn sweep_text() -> String {
        sweep_text_of(2000)
    }

    /// [`sweep_text`] with `trip` iterations per sweep.
    fn sweep_text_of(trip: i64) -> String {
        let mut mb = ModuleBuilder::new();
        let g = mb.add_global("arr", 1 << 18);
        let f = mb.declare_function("main", 1);
        let mut fb = mb.function(f);
        let base = fb.global_addr(g);
        let sum = fb.mov(0i64);
        fb.counted_loop(fb.param(0), |fb, _| {
            fb.counted_loop(trip, |fb, i| {
                let off = fb.mul(i, 64i64);
                let a = fb.add(base, off);
                let (v, _) = fb.load(a, 0);
                fb.bin_to(sum, stride_ir::BinOp::Add, sum, v);
            });
        });
        fb.ret(Some(Operand::Reg(sum)));
        mb.set_entry(f);
        module_to_string(&mb.finish())
    }

    fn ok_body(resp: Response) -> String {
        match resp {
            Response::Ok(body) => body,
            Response::Err { kind, message, .. } => panic!("unexpected error {kind}: {message}"),
        }
    }

    #[test]
    fn submit_profile_get_round_trip() {
        let svc = tmp_service("roundtrip");
        let text = sweep_text();
        let body = ok_body(svc.handle(&Request::SubmitModule {
            workload: "sweep".into(),
            text: text.clone(),
        }));
        assert!(body.starts_with("module "), "{body}");

        let profile = Request::Profile {
            workload: "sweep".into(),
            variant: ProfilingVariant::EdgeCheck,
            args: vec![3],
        };
        let first = ok_body(svc.handle(&profile));
        assert!(first.contains("runs 1"), "{first}");
        // Same request twice: identical fresh-run bytes...
        assert_eq!(ok_body(svc.handle(&profile)), first);
        // ...while the database accumulated both runs.
        let stored = ok_body(svc.handle(&Request::GetProfile {
            workload: "sweep".into(),
        }));
        assert!(stored.contains("runs 2"), "{stored}");
        let _ = std::fs::remove_dir_all(&svc.config.db_root);
    }

    #[test]
    fn classify_and_prefetch_report() {
        let svc = tmp_service("classify");
        ok_body(svc.handle(&Request::SubmitModule {
            workload: "sweep".into(),
            text: sweep_text(),
        }));
        let c = ok_body(svc.handle(&Request::Classify {
            workload: "sweep".into(),
            variant: ProfilingVariant::EdgeCheck,
            args: vec![4],
        }));
        assert!(c.starts_with("loads "), "{c}");
        let p = ok_body(svc.handle(&Request::Prefetch {
            workload: "sweep".into(),
            variant: ProfilingVariant::EdgeCheck,
            train_args: vec![3],
            ref_args: vec![5],
        }));
        assert!(p.contains("speedup "), "{p}");
        let _ = std::fs::remove_dir_all(&svc.config.db_root);
    }

    #[test]
    fn unknown_workload_is_not_found() {
        let svc = tmp_service("notfound");
        let resp = svc.handle(&Request::GetProfile {
            workload: "nope".into(),
        });
        assert!(
            matches!(
                resp,
                Response::Err {
                    kind: ErrorKind::NotFound,
                    ..
                }
            ),
            "{resp:?}"
        );
        let _ = std::fs::remove_dir_all(&svc.config.db_root);
    }

    #[test]
    fn bad_ir_is_a_located_parse_error() {
        let svc = tmp_service("badir");
        let resp = svc.handle(&Request::SubmitModule {
            workload: "x".into(),
            text: "fn @main( {".into(),
        });
        let Response::Err { kind, message, .. } = resp else {
            panic!("expected parse error")
        };
        assert_eq!(kind, ErrorKind::Parse);
        assert!(message.contains('^'), "caret diagnostic: {message}");
        let _ = std::fs::remove_dir_all(&svc.config.db_root);
    }

    #[test]
    fn fuel_deadline_is_enforced() {
        let root = std::env::temp_dir().join(format!("stride-service-fuel-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut cfg = ServiceConfig::new(root);
        cfg.request_fuel = 10_000; // far below what the sweep needs
        let svc = Service::new(cfg).unwrap();
        ok_body(svc.handle(&Request::SubmitModule {
            workload: "sweep".into(),
            text: sweep_text(),
        }));
        let resp = svc.handle(&Request::Profile {
            workload: "sweep".into(),
            variant: ProfilingVariant::EdgeCheck,
            args: vec![3],
        });
        assert!(
            matches!(
                resp,
                Response::Err {
                    kind: ErrorKind::Vm,
                    ..
                }
            ),
            "{resp:?}"
        );
        let _ = std::fs::remove_dir_all(&svc.config.db_root);
    }

    #[test]
    fn server_side_faults_surface_as_typed_errors() {
        let root =
            std::env::temp_dir().join(format!("stride-service-fault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut cfg = ServiceConfig::new(root);
        let plan = stride_core::FaultPlan::parse("seed=7;malformed-ir@sweep").unwrap();
        cfg.injector = Some(FaultInjector::new(plan));
        let svc = Service::new(cfg).unwrap();
        ok_body(svc.handle(&Request::SubmitModule {
            workload: "sweep".into(),
            text: sweep_text(),
        }));
        let resp = svc.handle(&Request::Profile {
            workload: "sweep".into(),
            variant: ProfilingVariant::EdgeCheck,
            args: vec![3],
        });
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
        // A workload the plan does not target still profiles cleanly.
        ok_body(svc.handle(&Request::SubmitModule {
            workload: "clean".into(),
            text: sweep_text(),
        }));
        ok_body(svc.handle(&Request::Profile {
            workload: "clean".into(),
            variant: ProfilingVariant::EdgeCheck,
            args: vec![3],
        }));
        let _ = std::fs::remove_dir_all(&svc.config.db_root);
    }

    #[test]
    fn stale_merge_is_rejected() {
        let svc = tmp_service("stale");
        ok_body(svc.handle(&Request::SubmitModule {
            workload: "sweep".into(),
            text: sweep_text(),
        }));
        let entry = ProfileEntry {
            workload: "sweep".into(),
            module_hash: 0xdead_beef,
            runs: 1,
            edge_tables: vec![],
            stride: StrideProfile::new(),
        };
        let resp = svc.handle(&Request::MergeProfile {
            entry_text: entry.to_text(),
        });
        assert!(
            matches!(
                resp,
                Response::Err {
                    kind: ErrorKind::Stale,
                    ..
                }
            ),
            "{resp:?}"
        );
        let _ = std::fs::remove_dir_all(&svc.config.db_root);
    }

    #[test]
    fn stats_count_requests() {
        let svc = tmp_service("stats");
        let _ = svc.handle(&Request::GetProfile {
            workload: "nope".into(),
        });
        let body = ok_body(svc.handle(&Request::Stats));
        // The stats request itself is counted before its body is built.
        let snap = stride_core::Snapshot::parse(&body).unwrap();
        let sum = |prefix: &str| -> u64 {
            let of = snap.counters.iter().filter(|(k, _)| k.starts_with(prefix));
            of.map(|(_, v)| v).sum()
        };
        assert_eq!(sum("server.req."), 2, "{body}");
        assert_eq!(sum("server.error."), 1, "{body}");
        let _ = std::fs::remove_dir_all(&svc.config.db_root);
    }

    #[test]
    fn stats_expose_structured_metrics() {
        let svc = tmp_service("metrics");
        ok_body(svc.handle(&Request::SubmitModule {
            workload: "sweep".into(),
            text: sweep_text(),
        }));
        ok_body(svc.handle(&Request::Profile {
            workload: "sweep".into(),
            variant: ProfilingVariant::EdgeCheck,
            args: vec![2],
        }));
        let _ = svc.handle(&Request::GetProfile {
            workload: "nope".into(),
        });
        let body = ok_body(svc.handle(&Request::Stats));
        // Every line is a registry line.
        let snap = stride_core::Snapshot::parse(&body).unwrap();
        // WAL and recovery counters are registered up front, so the
        // registry reports zeros rather than omitting them.
        assert!(snap.counter("wal.appends").is_some(), "{body}");
        assert!(snap.counter("wal.syncs").is_some(), "{body}");
        // Creating the log (its file and directory), then one per merge.
        assert_eq!(snap.counter("profdb.fsyncs"), Some(3), "{body}");
        assert_eq!(snap.counter("recovery.replayed"), Some(0), "{body}");
        // Store levels are gauges sampled for the body.
        assert_eq!(snap.gauge("server.modules"), Some(1), "{body}");
        assert_eq!(snap.gauge("profdb.entries"), Some(1), "{body}");
        assert_eq!(snap.gauge("profdb.runs"), Some(1), "{body}");
        assert_eq!(snap.counter("server.cache.misses"), Some(1), "{body}");
        // Per-verb and per-error-kind counters.
        assert!(body.contains("counter server.req.submit 1"), "{body}");
        assert!(body.contains("counter server.req.profile 1"), "{body}");
        assert!(body.contains("counter server.error.not-found 1"), "{body}");
        // The profile request landed one observation in its latency
        // histogram, denominated in VM cycles.
        assert!(
            body.contains("histogram server.latency.profile.cycles count 1 sum "),
            "{body}"
        );
        // Per-request trace events with the sequence number as clock.
        assert!(body.contains("trace 0 server.request 0 0"), "{body}");
        let _ = std::fs::remove_dir_all(&svc.config.db_root);
    }

    #[test]
    fn duplicate_merge_counts_as_retried() {
        let svc = tmp_service("retried");
        ok_body(svc.handle(&Request::SubmitModule {
            workload: "sweep".into(),
            text: sweep_text(),
        }));
        let entry_text = ok_body(svc.handle(&Request::Profile {
            workload: "sweep".into(),
            variant: ProfilingVariant::EdgeCheck,
            args: vec![2],
        }));
        let meta = RequestMeta {
            req_id: 77,
            ..RequestMeta::default()
        };
        let req = Request::MergeProfile {
            entry_text: entry_text.clone(),
        };
        ok_body(svc.handle_meta(&meta, &req));
        let dup = ok_body(svc.handle_meta(&meta, &req));
        assert!(dup.contains("duplicate request id"), "{dup}");
        let body = ok_body(svc.handle(&Request::Stats));
        assert!(body.contains("counter server.merge.retried 1"), "{body}");
        let _ = std::fs::remove_dir_all(&svc.config.db_root);
    }

    /// A served read and what it must equal: the `get-profile` body (or
    /// error message) and the `classify` body.
    type Reads = (Result<String, String>, String);

    fn served_reads(svc: &Service, workload: &str, args: &[i64]) -> Reads {
        let stored = match svc.handle(&Request::GetProfile {
            workload: workload.into(),
        }) {
            Response::Ok(body) => Ok(body),
            Response::Err { message, .. } => Err(message),
        };
        let classified = ok_body(svc.handle(&Request::Classify {
            workload: workload.into(),
            variant: ProfilingVariant::EdgeCheck,
            args: args.to_vec(),
        }));
        (stored, classified)
    }

    /// The reads of `workload` computed without any cache: a fresh store
    /// handle and an uncached profiling run of `text`, perturbed by
    /// `injector` when one is given.
    fn uncached_reads(
        svc: &Service,
        workload: &str,
        text: &str,
        args: &[i64],
        injector: Option<&FaultInjector>,
    ) -> Reads {
        let module = module_from_string(text).unwrap();
        let fresh = ProfileDb::open_unrecovered(&svc.config.db_root).unwrap();
        let stored = fresh
            .load(workload, module_hash(&module))
            .map(|e| e.to_text())
            .map_err(|e| e.to_string());
        let config = svc.pipeline_config();
        let mut o = run_profiling(&module, args, ProfilingVariant::EdgeCheck, config).unwrap();
        if let Some(injector) = injector {
            injector.apply_to_profiles(workload, &mut o.edge, &mut o.stride);
        }
        let c = classify(&module, &o.stride, &o.edge, o.source, &config.prefetch);
        (stored, render_classification(&c))
    }

    #[test]
    fn cached_reads_match_uncached_pipeline_after_every_change() {
        let svc = tmp_service("coherence");
        let args = [2];
        let check = |text: &str, when: &str| {
            // Twice: the second pair is served from the warmed caches.
            for _ in 0..2 {
                assert_eq!(
                    served_reads(&svc, "sweep", &args),
                    uncached_reads(&svc, "sweep", text, &args, None),
                    "after {when}"
                );
            }
        };
        let v1 = sweep_text();
        ok_body(svc.handle(&Request::SubmitModule {
            workload: "sweep".into(),
            text: v1.clone(),
        }));
        let entry_text = ok_body(svc.handle(&Request::Profile {
            workload: "sweep".into(),
            variant: ProfilingVariant::EdgeCheck,
            args: args.to_vec(),
        }));
        check(&v1, "a profile");
        ok_body(svc.handle(&Request::MergeProfile { entry_text }));
        check(&v1, "a merge");
        let v2 = sweep_text_of(1500);
        ok_body(svc.handle(&Request::SubmitModule {
            workload: "sweep".into(),
            text: v2.clone(),
        }));
        check(&v2, "a re-submit of a changed module");
        ok_body(svc.handle(&Request::Profile {
            workload: "sweep".into(),
            variant: ProfilingVariant::EdgeCheck,
            args: args.to_vec(),
        }));
        check(&v2, "a profile of the changed module");
        let gc = ok_body(svc.handle(&Request::Gc));
        assert!(gc.starts_with("removed 1\n"), "{gc}");
        check(&v2, "a gc");
        let _ = std::fs::remove_dir_all(&svc.config.db_root);
    }

    #[test]
    fn a_resubmitted_module_is_served_as_a_fresh_service_serves_it() {
        let args = [2];
        let submit = |svc: &Service, text: &str| {
            ok_body(svc.handle(&Request::SubmitModule {
                workload: "sweep".into(),
                text: text.into(),
            }))
        };
        let profile = |svc: &Service| {
            ok_body(svc.handle(&Request::Profile {
                workload: "sweep".into(),
                variant: ProfilingVariant::EdgeCheck,
                args: args.to_vec(),
            }))
        };
        let (a, b) = (sweep_text(), sweep_text_of(1500));
        let svc = tmp_service("resubmit");
        submit(&svc, &a);
        profile(&svc);
        // Both reads of A served once, so its run, classification and
        // entry text are all memoized before B replaces it.
        let a_reads = served_reads(&svc, "sweep", &args);
        submit(&svc, &b);
        let fresh = tmp_service("resubmit-fresh");
        submit(&fresh, &b);
        let b_reads = served_reads(&fresh, "sweep", &args);
        assert_eq!(served_reads(&svc, "sweep", &args), b_reads, "unprofiled");
        assert_ne!(a_reads.1, b_reads.1, "A and B must classify apart");
        profile(&svc);
        profile(&fresh);
        let b_reads = served_reads(&fresh, "sweep", &args);
        assert_eq!(served_reads(&svc, "sweep", &args), b_reads, "profiled");
        assert_ne!(a_reads.0, b_reads.0, "A and B must store apart");
        let _ = std::fs::remove_dir_all(&svc.config.db_root);
        let _ = std::fs::remove_dir_all(&fresh.config.db_root);
    }

    #[test]
    fn a_workload_under_a_fault_plan_bypasses_every_cache() {
        let root =
            std::env::temp_dir().join(format!("stride-service-fault-reads-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let plan = stride_core::FaultPlan::parse("seed=7;drop-sites=1@faulty").unwrap();
        let injector = FaultInjector::new(plan);
        let mut cfg = ServiceConfig::new(root);
        cfg.injector = Some(injector.clone());
        let svc = Service::new(cfg).unwrap();
        let args = [2];
        let text = sweep_text();
        for workload in ["faulty", "clean"] {
            ok_body(svc.handle(&Request::SubmitModule {
                workload: workload.into(),
                text: text.clone(),
            }));
            ok_body(svc.handle(&Request::Profile {
                workload: workload.into(),
                variant: ProfilingVariant::EdgeCheck,
                args: args.to_vec(),
            }));
        }
        let before = svc.cache.stats();
        for _ in 0..2 {
            assert_eq!(
                served_reads(&svc, "faulty", &args),
                uncached_reads(&svc, "faulty", &text, &args, Some(&injector))
            );
        }
        assert_eq!(
            svc.cache.stats(),
            before,
            "faulted reads never touch the run cache"
        );
        let clean = served_reads(&svc, "clean", &args);
        assert_eq!(clean, uncached_reads(&svc, "clean", &text, &args, None));
        assert_ne!(
            clean.1,
            served_reads(&svc, "faulty", &args).1,
            "the plan must change what `faulty` classifies"
        );
        let _ = std::fs::remove_dir_all(&svc.config.db_root);
    }
}
