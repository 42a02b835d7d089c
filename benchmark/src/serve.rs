//! The profile-service workloads, driven from this process over loopback
//! TCP by one closed-loop connection:
//!
//! * `serve-read` — one `strided`; a closed loop of 50% `get-profile`
//!   and 50% `classify edge-check` against a seeded, warmed corpus. After
//!   set-up it simulates nothing and never fsyncs, so its time goes to
//!   the request handler, the codec and the transport.
//! * `cluster-write` — `strided-router` over one shard of two `strided`
//!   replicas; 90% `merge-profile` with unique idempotency ids and 10%
//!   `get-profile`. Every merge is fanned out to both replicas, and each
//!   appends to its WAL and fsyncs.
//!
//! The corpus is genwork modules drawn from the seed (64 for
//! `serve-read`, 8 for `cluster-write`), each submitted, seeded with one
//! merge and (for `serve-read`) given one warm `classify`. The traced
//! runs replay the same seeded request stream in-process through the
//! public handler, codec and store calls.

use crate::pipeline;
use crate::proc::{Daemon, TempDir};
use crate::trace::{timer_overhead_ns, Recorder};
use crate::{end_to_end, stats, Ctx, Metric, Outcome};
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use stride_core::{classify, PipelineConfig, ProfilingVariant, RunCache};
use stride_genwork::{build, generate, GenConfig, Rng};
use stride_ir::{module_to_string, Module};
use stride_profdb::{module_hash, ProfileDb, ProfileEntry};
use stride_server::{
    decode_request, encode_frame, encode_request, read_frame, Request, RequestMeta, Response,
    Router, RouterConfig, Server, ServerConfig, Service, ServiceConfig,
};

/// Worker threads per daemon. A worker serves one connection until it
/// closes, so a daemon needs more workers than connections that can hold
/// one at once: the load connection, the router's pooled connection and
/// a verifier. A connection beyond the workers waits, unanswered.
const WORKERS: usize = 4;
/// Share of `cluster-write` requests that are merges, in percent.
const MERGE_PCT: u64 = 90;
/// Requests per measurement cycle (one fresh deployment) of `serve-read`.
const CYCLE_READ: u64 = 50_000;
/// Requests per cycle of `cluster-write`: about 2,700 merges, within the
/// 4,096 idempotency ids a replica remembers. Anti-entropy re-sends a
/// replica's whole retained delta window, so past that window a repair
/// double-applies old merges, and the re-sent window grows with every
/// merge, slowing the cluster down as it ages.
const CYCLE_WRITE: u64 = 3_000;
/// Requests replayed in-process by a traced run.
const REPLAY_READ: usize = 20_000;
/// Fewer for `cluster-write`, for the reasons of [`CYCLE_WRITE`].
const REPLAY_WRITE: usize = CYCLE_WRITE as usize;
/// Requests whose store and cache calls are timed one by one.
const PROBES: usize = 2_000;
/// Entry arguments of a genwork module (one ignored argument).
const TRAIN_ARGS: [i64; 1] = [0];
/// Longest a daemon may take to start listening or to exit.
const DAEMON_TIMEOUT: Duration = Duration::from_secs(20);
/// Longest a single request may take before the run fails.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Which service workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `serve-read`.
    Read,
    /// `cluster-write`.
    Write,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Read => "serve-read",
            Kind::Write => "cluster-write",
        }
    }

    /// Generated modules in the corpus. A module carries 2 to 4 loop
    /// nests of nine shapes, so its handler cost varies about twofold: with
    /// 8 modules the seed alone moved `serve-read`'s median handler time by
    /// a spread of 0.15, with 64 by 0.05. `cluster-write` keeps 8, because
    /// each anti-entropy round of the router reads and hashes every entry
    /// file on both replicas, and with 64 modules that added cost and
    /// spread.
    fn corpus(self) -> usize {
        match self {
            Kind::Read => 64,
            Kind::Write => 8,
        }
    }
}

/// One corpus module with the profile entry its merges carry.
pub struct CorpusEntry {
    name: String,
    module: Module,
    text: String,
    entry_text: String,
}

/// Generates and profiles (edge-check, through `rec`) the corpus of
/// `kind` under `seed`.
pub fn build_corpus(rec: &mut Recorder, kind: Kind, seed: u64) -> Result<Vec<CorpusEntry>, String> {
    let gen = GenConfig::campaign();
    let config = PipelineConfig::default();
    (0..kind.corpus())
        .map(|i| {
            let spec = generate(seed, i as u32, &gen);
            let module = build(&spec).module;
            let name = spec.name();
            let outcome = pipeline::profile(
                rec,
                &config,
                &module,
                ProfilingVariant::EdgeCheck,
                &TRAIN_ARGS,
            )?;
            let entry = ProfileEntry::from_run(
                name.clone(),
                module_hash(&module),
                &outcome.edge,
                &outcome.stride,
            );
            Ok(CorpusEntry {
                name,
                text: module_to_string(&module),
                module,
                entry_text: entry.to_text(),
            })
        })
        .collect()
}

/// One request of the seeded stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Get(usize),
    Classify(usize),
    /// Merge into a workload under a unique idempotency id.
    Merge(usize, u64),
}

/// The seeded request stream: the same seed gives the same requests,
/// however many the loop gets through.
struct Stream {
    rng: Rng,
    kind: Kind,
    seq: u64,
}

impl Stream {
    fn new(seed: u64, kind: Kind) -> Stream {
        Stream {
            rng: Rng::for_workload(seed ^ 0x10ad_57ea, 0),
            kind,
            seq: 0,
        }
    }

    fn next_op(&mut self) -> Op {
        self.seq += 1;
        let w = self.rng.index(self.kind.corpus());
        match self.kind {
            Kind::Read if self.rng.coin() => Op::Get(w),
            Kind::Read => Op::Classify(w),
            Kind::Write if self.rng.next() % 100 < MERGE_PCT => {
                // Ids 1..=corpus seed the corpus; these sit far above.
                Op::Merge(w, (1 << 40) | self.seq)
            }
            Kind::Write => Op::Get(w),
        }
    }
}

/// The first `n` requests of the stream.
fn replay_ops(seed: u64, kind: Kind, n: usize) -> Vec<Op> {
    let mut stream = Stream::new(seed, kind);
    (0..n).map(|_| stream.next_op()).collect()
}

fn classify_request(c: &CorpusEntry) -> Request {
    Request::Classify {
        workload: c.name.clone(),
        variant: ProfilingVariant::EdgeCheck,
        args: TRAIN_ARGS.to_vec(),
    }
}

fn request_of(corpus: &[CorpusEntry], op: Op) -> (RequestMeta, Request) {
    match op {
        Op::Get(w) => (
            RequestMeta::default(),
            Request::GetProfile {
                workload: corpus[w].name.clone(),
            },
        ),
        Op::Classify(w) => (RequestMeta::default(), classify_request(&corpus[w])),
        Op::Merge(w, id) => (
            RequestMeta {
                req_id: id,
                deadline_fuel: None,
            },
            Request::MergeProfile {
                entry_text: corpus[w].entry_text.clone(),
            },
        ),
    }
}

/// Submits every module, merges its seed entry (idempotency ids
/// `1..=corpus.len()`) and, with `warm`, classifies it once.
fn seed_corpus(
    corpus: &[CorpusEntry],
    warm: bool,
    mut call: impl FnMut(&RequestMeta, &Request) -> Result<Response, String>,
) -> Result<(), String> {
    for (w, c) in corpus.iter().enumerate() {
        let mut reqs = vec![
            (
                RequestMeta::default(),
                Request::SubmitModule {
                    workload: c.name.clone(),
                    text: c.text.clone(),
                },
            ),
            (
                RequestMeta {
                    req_id: w as u64 + 1,
                    deadline_fuel: None,
                },
                Request::MergeProfile {
                    entry_text: c.entry_text.clone(),
                },
            ),
        ];
        if warm {
            reqs.push((RequestMeta::default(), classify_request(c)));
        }
        for (meta, req) in &reqs {
            if let Response::Err { kind, message, .. } = call(meta, req)? {
                return Err(format!("seeding {}: [{kind}] {message}", c.name));
            }
        }
    }
    Ok(())
}

fn decode_response(frame: &[u8]) -> Result<(Vec<u8>, Response), String> {
    let payload = read_frame(&mut &frame[..])
        .map_err(|e| format!("response frame: {e}"))?
        .ok_or("empty response frame")?;
    let resp = Response::from_bytes(&payload)?;
    Ok((payload, resp))
}

/// One blocking client connection.
struct Conn(TcpStream);

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        s.set_write_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(Conn(s))
    }

    /// Sends one frame and returns the response payload.
    fn round_trip(&mut self, frame: &[u8]) -> Result<Vec<u8>, String> {
        self.0.write_all(frame).map_err(|e| format!("send: {e}"))?;
        read_frame(&mut self.0)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or_else(|| "server closed the connection".to_string())
    }

    fn call(&mut self, meta: &RequestMeta, req: &Request) -> Result<Response, String> {
        let frame = encode_frame(&encode_request(meta, req)).map_err(|e| e.to_string())?;
        Response::from_bytes(&self.round_trip(&frame)?)
    }
}

/// The daemons of one set-up; killed on drop if not shut down.
struct Deployment {
    /// `serve-read`: the daemon. `cluster-write`: two replicas, then the
    /// router.
    daemons: Vec<Daemon>,
    _dir: TempDir,
}

impl Deployment {
    fn entry(&self) -> SocketAddr {
        self.daemons[self.daemons.len() - 1].addr
    }

    fn replicas(&self) -> &[Daemon] {
        &self.daemons[..self.daemons.len() - 1]
    }

    fn cpu_s(&self) -> Result<f64, String> {
        self.daemons.iter().map(Daemon::cpu_s).sum()
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        self.daemons.iter().map(Daemon::peak_rss_mb).sum()
    }

    /// Shuts the entry daemon down (the router fans the shutdown out to
    /// its replicas) and waits for every daemon to exit. Replicas refuse
    /// connections for a second or two before they exit.
    fn shutdown(mut self) -> Result<(), String> {
        Conn::connect(self.entry())?.call(&RequestMeta::default(), &Request::Shutdown)?;
        for d in self.daemons.iter_mut().rev() {
            d.proc.wait_ok(DAEMON_TIMEOUT)?;
        }
        Ok(())
    }
}

/// Starts the daemons of `kind` on ephemeral ports and seeds `corpus`.
fn deploy(ctx: &Ctx, kind: Kind, rep: usize, corpus: &[CorpusEntry]) -> Result<Deployment, String> {
    let dir = TempDir::new(&ctx.tmp, &format!("{}-{rep}", kind.name()))
        .map_err(|e| format!("scratch dir: {e}"))?;
    let strided = |name: &str| -> Result<Daemon, String> {
        let args = [
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            &WORKERS.to_string(),
            "--db",
            &dir.path().join(name).to_string_lossy(),
        ]
        .map(String::from);
        let log = dir.path().join(format!("{name}.log"));
        Daemon::start(name, &ctx.bin("strided"), &args, &log, DAEMON_TIMEOUT)
    };
    let mut daemons = Vec::new();
    match kind {
        Kind::Read => daemons.push(strided("strided")?),
        Kind::Write => {
            daemons.push(strided("replica0")?);
            daemons.push(strided("replica1")?);
            let shard = format!("{},{}", daemons[0].addr, daemons[1].addr);
            let args = [
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &WORKERS.to_string(),
                "--hints",
                &dir.path().join("hints").to_string_lossy(),
                "--shard",
                &shard,
            ]
            .map(String::from);
            let log = dir.path().join("router.log");
            daemons.push(Daemon::start(
                "strided-router",
                &ctx.bin("strided-router"),
                &args,
                &log,
                DAEMON_TIMEOUT,
            )?);
        }
    }
    let d = Deployment { daemons, _dir: dir };
    let mut conn = Conn::connect(d.entry())?;
    seed_corpus(corpus, kind == Kind::Read, |m, r| conn.call(m, r))?;
    Ok(d)
}

/// The bytes an in-process `Service`, seeded like the daemon, answers to
/// each `serve-read` request: `[workload] -> (get-profile, classify)`.
fn expected_reads(ctx: &Ctx, corpus: &[CorpusEntry]) -> Result<Vec<[Vec<u8>; 2]>, String> {
    let dir = TempDir::new(&ctx.tmp, "reference").map_err(|e| e.to_string())?;
    let svc = Service::new(ServiceConfig::new(dir.path())).map_err(|e| e.to_string())?;
    seed_corpus(corpus, true, |m, r| Ok(svc.handle_meta(m, r)))?;
    (0..corpus.len())
        .map(|w| {
            let answer = |op| {
                let (meta, req) = request_of(corpus, op);
                match svc.handle_meta(&meta, &req) {
                    resp @ Response::Ok(_) => Ok(resp.to_bytes()),
                    Response::Err { kind, message, .. } => {
                        Err(format!("reference service: [{kind}] {message}"))
                    }
                }
            };
            Ok([answer(Op::Get(w))?, answer(Op::Classify(w))?])
        })
        .collect()
}

/// Judges one response: reads must equal the reference bytes; merges
/// must be acknowledged; `cluster-write` reads must return an entry for
/// the workload asked for.
fn judge(
    corpus: &[CorpusEntry],
    expected: Option<&[[Vec<u8>; 2]]>,
    op: Op,
    payload: &[u8],
) -> Result<(), String> {
    if let Some(expected) = expected {
        let want = match op {
            Op::Get(w) => &expected[w][0],
            Op::Classify(w) => &expected[w][1],
            Op::Merge(..) => return Err("serve-read issues no merges".to_string()),
        };
        if payload != want.as_slice() {
            return Err(format!(
                "{op:?}: response differs from the in-process Service's ({} vs {} bytes)",
                payload.len(),
                want.len()
            ));
        }
        return Ok(());
    }
    match (op, Response::from_bytes(payload)?) {
        (Op::Merge(..), Response::Ok(_)) => Ok(()),
        (Op::Get(w), Response::Ok(body)) => match ProfileEntry::from_text(&body) {
            Ok(e) if e.workload == corpus[w].name => Ok(()),
            Ok(e) => Err(format!("asked for {}, got {}", corpus[w].name, e.workload)),
            Err(e) => Err(format!("unreadable entry: {e}")),
        },
        (op, Response::Err { kind, message, .. }) => Err(format!("{op:?}: [{kind}] {message}")),
        (op, _) => Err(format!("{op:?}: unexpected request")),
    }
}

/// What the closed loop measured.
struct Load {
    /// Per-request latency, microseconds.
    lat_us: Vec<f64>,
    failed: u64,
    /// Acknowledged merges per workload.
    acked: Vec<u64>,
    /// From the first send to the last response.
    wall_s: f64,
    first_error: Option<String>,
}

/// Closed loop on one connection: send the next request when the previous
/// response arrives, until `cap` requests or `deadline`.
///
/// One connection, not one per core: on the 2-core reference host a
/// second connection keeps both cores busy, so a request's latency also
/// holds its wait for a core, and that wait swings with the host's other
/// load. Over ten seeds the spread (quartile distance over median) of
/// `serve-read`'s p50 was 0.30 with two connections and 0.11 with one,
/// runs interleaved. Two concurrent merges also leave the replicas
/// briefly apart, so the router's anti-entropy rounds re-send delta
/// windows at random.
fn closed_loop(
    addr: SocketAddr,
    cap: u64,
    deadline: Instant,
    seed: u64,
    kind: Kind,
    corpus: &[CorpusEntry],
    expected: Option<&[[Vec<u8>; 2]]>,
) -> Result<Load, String> {
    let mut conn = Conn::connect(addr)?;
    let mut stream = Stream::new(seed, kind);
    let mut load = Load {
        lat_us: Vec::with_capacity(cap as usize),
        failed: 0,
        acked: vec![0; corpus.len()],
        wall_s: 0.0,
        first_error: None,
    };
    let start = Instant::now();
    while (load.lat_us.len() as u64) < cap && Instant::now() < deadline {
        let op = stream.next_op();
        let (meta, req) = request_of(corpus, op);
        let frame = encode_frame(&encode_request(&meta, &req)).map_err(|e| e.to_string())?;
        let sent = Instant::now();
        let result = conn.round_trip(&frame);
        load.lat_us.push(sent.elapsed().as_nanos() as f64 / 1e3);
        match (result.and_then(|p| judge(corpus, expected, op, &p)), op) {
            (Ok(()), Op::Merge(w, _)) => load.acked[w] += 1,
            (Ok(()), _) => {}
            (Err(e), _) => {
                load.failed += 1;
                load.first_error.get_or_insert(e);
                conn = Conn::connect(addr)?;
            }
        }
    }
    load.wall_s = start.elapsed().as_secs_f64();
    Ok(load)
}

/// Violations of the write path's invariants: every replica's entry for
/// each workload carries its seeded run plus every acknowledged merge,
/// and all replicas hold byte-identical entries. `replicas[r][w]` is
/// replica `r`'s `get-profile` body for workload `w`.
pub fn cluster_violations(
    names: &[String],
    acked: &[u64],
    replicas: &[Vec<String>],
) -> Vec<String> {
    let mut out = Vec::new();
    for (w, name) in names.iter().enumerate() {
        for (r, bodies) in replicas.iter().enumerate() {
            match ProfileEntry::from_text(&bodies[w]) {
                Ok(e) if e.runs == 1 + acked[w] => {}
                Ok(e) => out.push(format!(
                    "replica {r} {name}: {} runs, expected 1 seeded + {} acked",
                    e.runs, acked[w]
                )),
                Err(e) => out.push(format!("replica {r} {name}: unreadable entry: {e}")),
            }
        }
        if replicas.windows(2).any(|p| p[0][w] != p[1][w]) {
            out.push(format!("{name}: replicas hold different entries"));
        }
    }
    out
}

/// Reads every workload's entry from each replica through `get`.
fn replica_bodies(
    corpus: &[CorpusEntry],
    replicas: usize,
    mut get: impl FnMut(usize, &Request) -> Result<Response, String>,
) -> Result<Vec<Vec<String>>, String> {
    (0..replicas)
        .map(|r| {
            corpus
                .iter()
                .map(|c| {
                    let req = Request::GetProfile {
                        workload: c.name.clone(),
                    };
                    match get(r, &req)? {
                        Response::Ok(body) => Ok(body),
                        Response::Err { kind, message, .. } => Ok(format!("err {kind}: {message}")),
                    }
                })
                .collect()
        })
        .collect()
}

const CLUSTER_CHECK: &str = "replicas hold seeded + acked runs and identical entries";

fn corpus_violations(corpus: &[CorpusEntry], acked: &[u64], bodies: &[Vec<String>]) -> Vec<String> {
    let names: Vec<String> = corpus.iter().map(|c| c.name.clone()).collect();
    cluster_violations(&names, acked, bodies)
}

/// End-to-end measurement over real daemons, in cycles while
/// `ctx.seconds` have not passed (at most `max_cycles`): set up a fresh
/// deployment, run the closed loop for one cycle's requests, check, shut
/// down. A cycle stops early only if it alone outlasts `ctx.seconds`.
/// Returns the outcome and the mean request latency in microseconds.
///
/// The load metrics pool every cycle: latency quantiles over all the
/// run's samples, throughput and server CPU over all its requests. Over
/// ten seeds this cut the spread of `cluster-write`'s p50 from 0.12 to
/// 0.08 and of its p90 from 0.15 to 0.09, against the median of
/// per-cycle values. Set-up time and peak memory are medians over the
/// cycles' set-ups.
///
/// `corpus` reuses an already built corpus; otherwise every set-up
/// builds and profiles its own, as a user's would.
fn measure(
    ctx: &Ctx,
    kind: Kind,
    max_cycles: usize,
    corpus: Option<&[CorpusEntry]>,
) -> Result<(Outcome, f64), String> {
    let start = Instant::now();
    let run_time = Duration::from_secs_f64(ctx.seconds);
    let cap = match kind {
        Kind::Read => CYCLE_READ,
        Kind::Write => CYCLE_WRITE,
    };
    let mut out = Outcome::default();
    let (mut setups_s, mut rss_mb) = (Vec::new(), Vec::new());
    let mut lat_us = Vec::new();
    let (mut loop_s, mut server_cpu_s) = (0.0, 0.0);
    let mut expected = None;
    let mut first_error = None;
    let mut violations = Vec::new();
    while setups_s.len() < max_cycles && (setups_s.is_empty() || start.elapsed() < run_time) {
        let set_up = Instant::now();
        let built = match corpus {
            Some(_) => Vec::new(),
            None => build_corpus(&mut Recorder::new(false, 0.0), kind, ctx.seed)?,
        };
        let corpus = corpus.unwrap_or(&built);
        let d = deploy(ctx, kind, setups_s.len(), corpus)?;
        setups_s.push(set_up.elapsed().as_secs_f64());
        if kind == Kind::Read && expected.is_none() {
            expected = Some(expected_reads(ctx, corpus)?);
        }
        let cpu_before = d.cpu_s()?;
        let load = closed_loop(
            d.entry(),
            cap,
            Instant::now() + run_time,
            ctx.seed,
            kind,
            corpus,
            expected.as_deref(),
        )?;
        server_cpu_s += d.cpu_s()? - cpu_before;
        loop_s += load.wall_s;
        out.attempted += load.lat_us.len() as u64;
        out.failed += load.failed;
        first_error = first_error.or(load.first_error);
        if kind == Kind::Write {
            let bodies = replica_bodies(corpus, d.replicas().len(), |r, req| {
                Conn::connect(d.replicas()[r].addr)?.call(&RequestMeta::default(), req)
            })?;
            violations.extend(corpus_violations(corpus, &load.acked, &bodies));
        }
        lat_us.extend(load.lat_us);
        rss_mb.push(d.peak_rss_mb()?);
        d.shutdown()?;
    }
    if kind == Kind::Write {
        out.check(CLUSTER_CHECK, violations.is_empty(), violations.join("; "));
    }
    out.check(
        "no request failed",
        out.failed == 0,
        format!(
            "{} of {} failed; first: {}",
            out.failed,
            out.attempted,
            first_error.as_deref().unwrap_or("-")
        ),
    );
    let n = lat_us.len().max(1) as f64;
    let mean_us = lat_us.iter().sum::<f64>() / n;
    lat_us.sort_by(f64::total_cmp);
    let q = |p| stats::quantile(&lat_us, p).unwrap_or(0.0) / 1e3;
    let median = |xs: &[f64]| stats::median(xs).unwrap_or(0.0);
    out.metrics = end_to_end([
        n / loop_s,
        q(0.5),
        q(0.9),
        server_cpu_s * 1e3 / n,
        median(&setups_s),
        median(&rss_mb),
    ]);
    Ok((out, mean_us))
}

/// The untraced run of a service workload.
pub fn run(ctx: &Ctx, kind: Kind) -> Result<Outcome, String> {
    measure(ctx, kind, usize::MAX, None).map(|(out, _)| out)
}

/// Replays one request in-process: the client's encode, the server's
/// decode, the handler, and the response's encode and decode, each in a
/// span tagged with the request id.
fn replay_one(
    rec: &mut Recorder,
    id: u64,
    corpus: &[CorpusEntry],
    op: Op,
    handler: &'static str,
    handle: &mut dyn FnMut(&RequestMeta, &Request) -> Response,
) -> Result<Vec<u8>, String> {
    rec.set_request(id);
    let out = rec.span("request", |rec| {
        let (meta, req) = request_of(corpus, op);
        let frame = rec
            .span("proto.codec", |_| {
                encode_frame(&encode_request(&meta, &req))
            })
            .map_err(|e| e.to_string())?;
        let (meta, req) = rec.span("proto.codec", |_| {
            let payload = read_frame(&mut &frame[..])
                .map_err(|e| e.to_string())?
                .ok_or("empty request frame")?;
            decode_request(&payload)
        })?;
        let resp = rec.span(handler, |_| handle(&meta, &req));
        let frame = rec
            .span("proto.codec", |_| encode_frame(&resp.to_bytes()))
            .map_err(|e| e.to_string())?;
        rec.span("proto.codec", |_| decode_response(&frame))
            .map(|(p, _)| p)
    });
    rec.set_request(0);
    out
}

fn handler_span(kind: Kind, op: Op) -> &'static str {
    match (kind, op) {
        (Kind::Read, Op::Get(_)) => "service.handle.get-profile",
        (Kind::Read, _) => "service.handle.classify",
        (Kind::Write, Op::Merge(..)) => "router.handle.merge-profile",
        (Kind::Write, _) => "router.handle.get-profile",
    }
}

/// Replays `ops` against a freshly seeded in-process `Service`
/// (`serve-read`) or a `Router` over two in-process `Server`s
/// (`cluster-write`), checks the answers, and returns the wall time.
fn replay(
    ctx: &Ctx,
    kind: Kind,
    corpus: &[CorpusEntry],
    expected: Option<&[[Vec<u8>; 2]]>,
    ops: &[Op],
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<f64, String> {
    let tag = if rec.enabled() {
        "traced-replay"
    } else {
        "untraced-replay"
    };
    let dir = TempDir::new(&ctx.tmp, tag).map_err(|e| e.to_string())?;
    let mut failures = Vec::new();
    let mut acked = vec![0u64; corpus.len()];
    let mut drive =
        |rec: &mut Recorder, handle: &mut dyn FnMut(&RequestMeta, &Request) -> Response| {
            let start = Instant::now();
            for (i, &op) in ops.iter().enumerate() {
                let verdict = replay_one(
                    rec,
                    i as u64 + 1,
                    corpus,
                    op,
                    handler_span(kind, op),
                    handle,
                )
                .and_then(|payload| judge(corpus, expected, op, &payload));
                match (verdict, op) {
                    (Ok(()), Op::Merge(w, _)) => acked[w] += 1,
                    (Ok(()), _) => {}
                    (Err(e), _) => failures.push(e),
                }
            }
            start.elapsed().as_secs_f64()
        };
    let wall_s = match kind {
        Kind::Read => {
            let svc = Service::new(ServiceConfig::new(dir.path())).map_err(|e| e.to_string())?;
            seed_corpus(corpus, true, |m, r| Ok(svc.handle_meta(m, r)))?;
            drive(rec, &mut |m, r| svc.handle_meta(m, r))
        }
        Kind::Write => {
            let servers = (0..2)
                .map(|r| {
                    let service = ServiceConfig::new(dir.path().join(format!("replica{r}")));
                    Server::start(ServerConfig {
                        workers: WORKERS,
                        ..ServerConfig::loopback(service)
                    })
                    .map_err(|e| format!("in-process replica: {e}"))
                })
                .collect::<Result<Vec<Server>, String>>()?;
            let shards = vec![servers.iter().map(|s| s.addr().to_string()).collect()];
            let router = Router::new(&RouterConfig {
                hint_root: Some(dir.path().join("hints")),
                ..RouterConfig::loopback(shards)
            })
            .map_err(|e| format!("in-process router: {e}"))?;
            seed_corpus(corpus, false, |m, r| Ok(router.handle(m, r)))?;
            let wall_s = drive(rec, &mut |m, r| router.handle(m, r));
            let bodies = replica_bodies(corpus, servers.len(), |r, req| {
                Ok(servers[r].service().handle(req))
            })?;
            let violations = corpus_violations(corpus, &acked, &bodies);
            out.check(CLUSTER_CHECK, violations.is_empty(), violations.join("; "));
            // The router's pooled connections hold replica workers.
            drop(router);
            for s in servers {
                s.shutdown_and_join();
            }
            wall_s
        }
    };
    out.attempted += ops.len() as u64;
    out.failed += failures.len() as u64;
    out.check(
        &format!("{tag}: in-process replay answers match"),
        failures.is_empty(),
        failures.first().cloned().unwrap_or_default(),
    );
    Ok(wall_s)
}

/// Times the store and cache calls behind each of `ops` one at a time,
/// on stores seeded like the service's: `module_hash` and
/// `ProfileDb::load` for reads, the warm `RunCache::profiling` lookup and
/// `classify` for classifies, `ProfileDb::merge_store_logged` for merges.
/// For `cluster-write` it also times one `Service` handling each request:
/// the replica-side share of the router's time.
fn probe(
    ctx: &Ctx,
    kind: Kind,
    corpus: &[CorpusEntry],
    ops: &[Op],
    rec: &mut Recorder,
) -> Result<(), String> {
    let dir = TempDir::new(&ctx.tmp, "probe").map_err(|e| e.to_string())?;
    let config = PipelineConfig::default();
    let db = ProfileDb::open(dir.path().join("db")).map_err(|e| e.to_string())?;
    let entries = corpus
        .iter()
        .map(|c| ProfileEntry::from_text(&c.entry_text).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, String>>()?;
    for (w, e) in entries.iter().enumerate() {
        db.merge_store_logged(e, w as u64 + 1)
            .map_err(|e| e.to_string())?;
    }
    // Reads need a warm run cache; writes a single service seeded like a
    // replica.
    let cache = RunCache::new();
    let svc = match kind {
        Kind::Read => {
            for c in corpus {
                cache
                    .profiling(&c.module, ProfilingVariant::EdgeCheck, &TRAIN_ARGS, &config)
                    .map_err(|e| e.to_string())?;
            }
            None
        }
        Kind::Write => {
            let svc = Service::new(ServiceConfig::new(dir.path().join("service")))
                .map_err(|e| e.to_string())?;
            seed_corpus(corpus, false, |m, r| Ok(svc.handle_meta(m, r)))?;
            Some(svc)
        }
    };
    for (i, &op) in ops.iter().enumerate() {
        rec.set_request(i as u64 + 1);
        let (meta, req) = request_of(corpus, op);
        match op {
            Op::Get(w) => {
                let c = &corpus[w];
                if let Some(svc) = &svc {
                    rec.span("service.handle.get-profile", |_| {
                        svc.handle_meta(&meta, &req)
                    });
                }
                let hash = rec.span("profdb.module_hash", |_| module_hash(&c.module));
                rec.span("profdb.load", |_| db.load(&c.name, hash))
                    .map_err(|e| e.to_string())?;
            }
            Op::Classify(w) => {
                let c = &corpus[w];
                let o = rec
                    .span("runcache.lookup", |_| {
                        cache.profiling(
                            &c.module,
                            ProfilingVariant::EdgeCheck,
                            &TRAIN_ARGS,
                            &config,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                rec.span("classify", |_| {
                    classify(&c.module, &o.stride, &o.edge, o.source, &config.prefetch)
                });
            }
            Op::Merge(w, id) => {
                if let Some(svc) = &svc {
                    rec.span("service.handle.merge-profile", |_| {
                        svc.handle_meta(&meta, &req)
                    });
                }
                rec.span("profdb.merge_logged", |_| {
                    db.merge_store_logged(&entries[w], id)
                })
                .map_err(|e| e.to_string())?;
            }
        }
    }
    rec.set_request(0);
    Ok(())
}

/// The traced run: one set-up and closed loop for the end-to-end mean
/// latency; in-process replays of the stream's first requests, untraced,
/// traced and untraced again (`trace.overhead` compares the traced one
/// with the mean of the two around it); then the per-call probes.
pub fn run_traced(ctx: &Ctx, kind: Kind) -> Result<Outcome, String> {
    let mut rec = Recorder::new(true, timer_overhead_ns());
    let corpus = build_corpus(&mut rec, kind, ctx.seed)?;
    let (mut out, e2e_mean_us) = measure(ctx, kind, 1, Some(&corpus))?;
    out.metrics.clear();
    let expected = match kind {
        Kind::Read => Some(expected_reads(ctx, &corpus)?),
        Kind::Write => None,
    };
    let n = match kind {
        Kind::Read => REPLAY_READ,
        Kind::Write => REPLAY_WRITE,
    };
    let ops = replay_ops(ctx.seed, kind, n);
    let expected = expected.as_deref();
    let mut off = Recorder::new(false, 0.0);
    let before = replay(ctx, kind, &corpus, expected, &ops, &mut off, &mut out)?;
    let traced_s = replay(ctx, kind, &corpus, expected, &ops, &mut rec, &mut out)?;
    let after = replay(ctx, kind, &corpus, expected, &ops, &mut off, &mut out)?;
    let untraced_s = (before + after) / 2.0;
    let codec_ns = rec.layer("proto.codec").self_ns;
    let handler_ns: f64 = handler_layers(kind)
        .iter()
        .map(|l| rec.layer(l).self_ns)
        .sum();
    probe(ctx, kind, &corpus, &ops[..PROBES.min(ops.len())], &mut rec)?;
    rec.write_jsonl(&ctx.out.join(format!("{}.spans.jsonl", kind.name())))
        .map_err(|e| format!("writing spans: {e}"))?;

    let per_req_us = |ns: f64| ns / 1e3 / ops.len() as f64;
    out.metrics = crate::ledger_metrics(&rec);
    out.metrics.extend([
        Metric::new("proto.codec_us", per_req_us(codec_ns), "us"),
        Metric::new(
            "server.transport_us",
            e2e_mean_us - per_req_us(handler_ns) - per_req_us(codec_ns),
            "us",
        ),
        Metric::new(
            "trace.coverage",
            (codec_ns + handler_ns) / (traced_s * 1e9),
            "ratio",
        ),
        Metric::new("trace.overhead", traced_s / untraced_s - 1.0, "ratio"),
    ]);
    if kind == Kind::Write {
        let mean = |l: &str| crate::mean_us(&rec, l);
        out.metrics.push(Metric::new(
            "router.fanout_us",
            mean("router.handle.merge-profile") - mean("service.handle.merge-profile"),
            "us",
        ));
    }
    Ok(out)
}

fn handler_layers(kind: Kind) -> [&'static str; 2] {
    match kind {
        Kind::Read => ["service.handle.get-profile", "service.handle.classify"],
        Kind::Write => ["router.handle.merge-profile", "router.handle.get-profile"],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stride_profiling::StrideProfile;

    fn entry_text(workload: &str, runs: u64) -> String {
        ProfileEntry {
            workload: workload.to_string(),
            module_hash: 0xfeed,
            runs,
            edge_tables: vec![],
            stride: StrideProfile::new(),
        }
        .to_text()
    }

    #[test]
    fn converged_replicas_pass_the_cluster_check() {
        let names = vec!["a".to_string(), "b".to_string()];
        let bodies = vec![entry_text("a", 4), entry_text("b", 1)];
        let v = cluster_violations(&names, &[3, 0], &[bodies.clone(), bodies]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn a_lost_merge_and_diverged_replicas_fire_the_cluster_check() {
        let names = vec!["a".to_string()];
        let replica0 = vec![entry_text("a", 4)];
        let replica1 = vec![entry_text("a", 3)];
        let v = cluster_violations(&names, &[3], &[replica0, replica1]);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("replica 1 a: 3 runs, expected 1 seeded + 3 acked"));
        assert!(v[1].contains("replicas hold different entries"));
    }

    #[test]
    fn the_request_stream_depends_only_on_the_seed() {
        let a = replay_ops(42, Kind::Write, 1000);
        assert_eq!(a, replay_ops(42, Kind::Write, 1000));
        assert_ne!(a, replay_ops(43, Kind::Write, 1000));
        let merges = a.iter().filter(|o| matches!(o, Op::Merge(..))).count();
        assert!((850..950).contains(&merges), "{merges} merges in 1000");
        let mut ids: Vec<u64> = a
            .iter()
            .filter_map(|o| match o {
                Op::Merge(_, id) => Some(*id),
                _ => None,
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), merges, "idempotency ids are unique");
        assert!(ids.iter().all(|&id| id > Kind::Write.corpus() as u64));
        let reads = replay_ops(42, Kind::Read, 1000);
        let gets = reads.iter().filter(|o| matches!(o, Op::Get(_))).count();
        assert!((450..550).contains(&gets), "{gets} gets in 1000");
    }

    #[test]
    fn a_wrong_read_answer_is_a_failure() {
        let expected = vec![[b"ok\nA".to_vec(), b"ok\nB".to_vec()]];
        assert!(judge(&[], Some(&expected), Op::Get(0), b"ok\nA").is_ok());
        let err = judge(&[], Some(&expected), Op::Classify(0), b"ok\nA").unwrap_err();
        assert!(err.contains("differs"), "{err}");
    }
}
