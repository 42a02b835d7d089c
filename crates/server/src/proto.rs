//! Wire protocol: length-prefixed, checksummed, versioned frames
//! carrying line-oriented text requests and responses.
//!
//! A v2 frame is a big-endian `u32` *wire length* followed by that many
//! bytes: a protocol version byte (`2`), the payload, and a trailing
//! `fnv1a64` (big-endian `u64`) over the version byte and payload. The
//! checksum turns a truncated, duplicated-at-an-offset, or bit-flipped
//! frame into a typed protocol error instead of a misparse; the version
//! byte turns a speaks-something-else peer into the same.
//!
//! A request payload is an optional `@req` meta line (idempotency id and
//! deadline — see [`RequestMeta`]), then one header line — `verb
//! key=value ...` — plus an optional body after the first newline (IR
//! text, profile entries). A response payload is `ok` or `err <kind>
//! [retry-after=MS]` on the first line, body after.

use std::io::{Read, Write};
use stride_core::{PipelineError, ProfilingVariant};
use stride_profdb::{fnv1a64, DbError};

/// Frames larger than this are rejected as a protocol error (guards the
/// daemon against a garbage length prefix allocating gigabytes).
pub const MAX_FRAME: usize = 16 << 20;

/// Protocol version carried in every frame.
pub const PROTO_VERSION: u8 = 2;

/// Version byte + checksum trailer added around each payload.
const FRAME_OVERHEAD: usize = 1 + 8;

/// Reads one frame and verifies its version byte and checksum; returns
/// the payload, or `Ok(None)` on clean EOF at a frame boundary.
///
/// # Errors
///
/// I/O failures and `InvalidData` for oversized lengths, runt frames,
/// version mismatches, and checksum failures — all of which a server
/// answers with a typed `proto` error before hanging up.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = r.read(&mut len_buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "truncated frame length",
            ));
        }
        filled += n;
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME + FRAME_OVERHEAD {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"),
        ));
    }
    if len < FRAME_OVERHEAD {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("runt frame of {len} bytes (minimum is {FRAME_OVERHEAD})"),
        ));
    }
    let mut wire = vec![0u8; len];
    r.read_exact(&mut wire)?;
    if wire[0] != PROTO_VERSION {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "unsupported protocol version {} (this build speaks {PROTO_VERSION})",
                wire[0]
            ),
        ));
    }
    let body_end = len - 8;
    let want = u64::from_be_bytes({
        let mut b = [0u8; 8];
        b.copy_from_slice(&wire[body_end..]);
        b
    });
    let got = fnv1a64(&wire[..body_end]);
    if got != want {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame checksum mismatch (got {got:016x}, frame says {want:016x})"),
        ));
    }
    wire.truncate(body_end);
    wire.remove(0);
    Ok(Some(wire))
}

/// Encodes a payload as a full wire frame (length prefix, version byte,
/// payload, checksum) — exposed so fault injectors can manipulate exact
/// frame bytes.
///
/// # Errors
///
/// Rejects payloads over [`MAX_FRAME`].
pub fn encode_frame(payload: &[u8]) -> std::io::Result<Vec<u8>> {
    if payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame too large",
        ));
    }
    let wire_len = payload.len() + FRAME_OVERHEAD;
    let mut frame = Vec::with_capacity(4 + wire_len);
    frame.extend_from_slice(&(wire_len as u32).to_be_bytes());
    frame.push(PROTO_VERSION);
    frame.extend_from_slice(payload);
    let sum = fnv1a64(&frame[4..]);
    frame.extend_from_slice(&sum.to_be_bytes());
    Ok(frame)
}

/// Writes one frame.
///
/// # Errors
///
/// Propagates I/O failures; rejects payloads over [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    // One write per frame: splitting the length prefix from the payload
    // creates a write-write-read pattern that Nagle + delayed ACK turn
    // into ~40 ms stalls per round trip on loopback TCP.
    let frame = encode_frame(payload)?;
    w.write_all(&frame)?;
    w.flush()
}

/// Per-request metadata riding in front of the request proper: the
/// client's idempotency id (0 = none; recorded in the WAL so a retried
/// merge cannot double-count) and an optional deadline expressed as a
/// VM fuel budget (the server clamps its per-request fuel to it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestMeta {
    /// Idempotency key; 0 means the request carries none.
    pub req_id: u64,
    /// Deadline as a fuel budget; `None` accepts the server default.
    pub deadline_fuel: Option<u64>,
}

impl RequestMeta {
    /// True when the meta carries nothing (encoded as no `@req` line,
    /// which is also the v1-compatible form).
    pub fn is_empty(&self) -> bool {
        self.req_id == 0 && self.deadline_fuel.is_none()
    }
}

/// Serializes a request with its meta line.
pub fn encode_request(meta: &RequestMeta, req: &Request) -> Vec<u8> {
    let body = req.to_bytes();
    if meta.is_empty() {
        return body;
    }
    let mut line = format!("@req id={:016x}", meta.req_id);
    if let Some(fuel) = meta.deadline_fuel {
        line.push_str(&format!(" deadline={fuel}"));
    }
    line.push('\n');
    let mut out = line.into_bytes();
    out.extend_from_slice(&body);
    out
}

/// Parses a request payload with its optional `@req` meta line.
///
/// # Errors
///
/// Returns a message describing the malformed meta or request (surfaced
/// to the client as an [`ErrorKind::Proto`] error).
pub fn decode_request(payload: &[u8]) -> Result<(RequestMeta, Request), String> {
    if !payload.starts_with(b"@req") {
        return Ok((RequestMeta::default(), Request::from_bytes(payload)?));
    }
    let text = std::str::from_utf8(payload).map_err(|_| "request is not UTF-8".to_string())?;
    let (meta_line, rest) = text.split_once('\n').unwrap_or((text, ""));
    let mut meta = RequestMeta::default();
    for part in meta_line
        .strip_prefix("@req")
        .unwrap_or("")
        .split_whitespace()
    {
        let Some((k, v)) = part.split_once('=') else {
            return Err(format!("bad @req field `{part}` (expected key=value)"));
        };
        match k {
            "id" => {
                meta.req_id = u64::from_str_radix(v, 16)
                    .map_err(|_| format!("bad @req id `{v}` (expected hex)"))?;
            }
            "deadline" => {
                meta.deadline_fuel = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("bad @req deadline `{v}` (expected integer)"))?,
                );
            }
            other => return Err(format!("unknown @req field `{other}`")),
        }
    }
    Ok((meta, Request::from_bytes(rest.as_bytes())?))
}

/// A service request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Register (or replace) a workload's module from IR text.
    SubmitModule {
        /// Workload name the module is stored under.
        workload: String,
        /// IR text (`stride_ir` syntax).
        text: String,
    },
    /// Run one profiling pass and merge the result into the database.
    Profile {
        /// A previously submitted workload.
        workload: String,
        /// Profiling variant.
        variant: ProfilingVariant,
        /// Entry-function arguments (the train input).
        args: Vec<i64>,
    },
    /// Profile and report the Fig. 5 classification.
    Classify {
        /// A previously submitted workload.
        workload: String,
        /// Profiling variant.
        variant: ProfilingVariant,
        /// Entry-function arguments (the train input).
        args: Vec<i64>,
    },
    /// The full speedup experiment: profile on the train input, feed
    /// back, measure baseline vs. prefetching binaries on the ref input.
    Prefetch {
        /// A previously submitted workload.
        workload: String,
        /// Profiling variant.
        variant: ProfilingVariant,
        /// Train input.
        train_args: Vec<i64>,
        /// Reference input.
        ref_args: Vec<i64>,
    },
    /// Fetch the accumulated database entry for a workload's current
    /// module.
    GetProfile {
        /// A previously submitted workload.
        workload: String,
    },
    /// Merge a client-supplied profile entry into the database.
    MergeProfile {
        /// A serialized [`stride_profdb::ProfileEntry`].
        entry_text: String,
    },
    /// Replica-to-replica delta exchange: apply a checksummed batch of
    /// replicated merges (see [`stride_profdb::repl`]), exactly-once per
    /// delta id.
    SyncDelta {
        /// A serialized delta batch (`# profdb delta-batch v1`).
        batch_text: String,
    },
    /// Garbage-collect database entries whose module is retired or
    /// stale (fanned out cluster-wide by the router).
    Gc,
    /// Liveness probe: answers `pong` without touching the database.
    /// The router's failure detector sends these on its logical-clock
    /// schedule; any daemon answers them.
    Ping,
    /// Anti-entropy: adopt `floor` (a `# profdb context v1` text of the
    /// dots every replica of the shard holds; empty for none), then
    /// report the store's causal context — the dots it holds.
    Context {
        /// The shard-wide floor, or empty.
        floor: String,
    },
    /// Anti-entropy: export the logged *pre-merge* deltas whose dots
    /// `context` lacks, as a delta batch for the sibling that sent it.
    PullDeltas {
        /// The lacking sibling's causal context text.
        context: String,
    },
    /// Full-state transfer: export the store's whole replicated state
    /// (see [`stride_profdb::ProfileDb::export_state`]) for a sibling
    /// below the shard floor.
    PullState,
    /// Full-state transfer: replace the store's state with a sibling's,
    /// atomically; refused unless its context covers the store's.
    InstallState {
        /// A `pull-state` answer: a log image as hex.
        state_text: String,
    },
    /// Router-only: the failure detector's per-replica state table.
    /// A plain daemon rejects this verb.
    Health,
    /// Router-only: run one anti-entropy repair round now (digest every
    /// replica, re-send deltas across any divergence). A plain daemon
    /// rejects this verb.
    Repair,
    /// Router-only: re-point one replica of a shard at a new address
    /// (a crashed daemon restarts on a fresh port; the router re-learns
    /// it without a reboot). A plain daemon rejects this verb.
    RouteUpdate {
        /// Shard whose replica moved.
        shard: u32,
        /// Replica index within the shard.
        replica: u32,
        /// The replica's new `host:port`.
        addr: String,
    },
    /// Service counters.
    Stats,
    /// Drain queued work and stop the daemon.
    Shutdown,
}

fn fmt_args(args: &[i64]) -> String {
    args.iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_args(s: &str) -> Result<Vec<i64>, String> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|p| {
            p.parse::<i64>()
                .map_err(|_| format!("bad argument `{p}` (expected integer)"))
        })
        .collect()
}

/// The `key=value` fields of a request header line.
type Fields<'a> = Vec<(&'a str, &'a str)>;

/// Splits a header line into its verb and `key=value` fields.
fn fields(header: &str) -> Result<(&str, Fields<'_>), String> {
    let mut parts = header.split_whitespace();
    let Some(verb) = parts.next() else {
        return Err("empty request".to_string());
    };
    let mut kv = Vec::new();
    for part in parts {
        let Some((k, v)) = part.split_once('=') else {
            return Err(format!("expected key=value, got `{part}`"));
        };
        kv.push((k, v));
    }
    Ok((verb, kv))
}

fn take<'a>(kv: &[(&str, &'a str)], key: &str) -> Result<&'a str, String> {
    kv.iter()
        .find(|(k, _)| *k == key)
        .map(|&(_, v)| v)
        .ok_or_else(|| format!("missing `{key}=`"))
}

impl Request {
    /// Serializes for the wire.
    pub fn to_bytes(&self) -> Vec<u8> {
        let text = match self {
            Request::SubmitModule { workload, text } => {
                format!("submit workload={workload}\n{text}")
            }
            Request::Profile {
                workload,
                variant,
                args,
            } => format!(
                "profile workload={workload} variant={variant} args={}",
                fmt_args(args)
            ),
            Request::Classify {
                workload,
                variant,
                args,
            } => format!(
                "classify workload={workload} variant={variant} args={}",
                fmt_args(args)
            ),
            Request::Prefetch {
                workload,
                variant,
                train_args,
                ref_args,
            } => format!(
                "prefetch workload={workload} variant={variant} train={} ref={}",
                fmt_args(train_args),
                fmt_args(ref_args)
            ),
            Request::GetProfile { workload } => format!("get-profile workload={workload}"),
            Request::MergeProfile { entry_text } => format!("merge-profile\n{entry_text}"),
            Request::SyncDelta { batch_text } => format!("sync-delta\n{batch_text}"),
            Request::Gc => "gc".to_string(),
            Request::Ping => "ping".to_string(),
            Request::Context { floor } => format!("context\n{floor}"),
            Request::PullDeltas { context } => format!("pull-deltas\n{context}"),
            Request::PullState => "pull-state".to_string(),
            Request::InstallState { state_text } => format!("install-state\n{state_text}"),
            Request::Health => "health".to_string(),
            Request::Repair => "repair".to_string(),
            Request::RouteUpdate {
                shard,
                replica,
                addr,
            } => format!("route-update shard={shard} replica={replica} addr={addr}"),
            Request::Stats => "stats".to_string(),
            Request::Shutdown => "shutdown".to_string(),
        };
        text.into_bytes()
    }

    /// Parses a request payload.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed header (surfaced to the
    /// client as an [`ErrorKind::Proto`] error).
    pub fn from_bytes(payload: &[u8]) -> Result<Request, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "request is not UTF-8".to_string())?;
        let (header, body) = match text.split_once('\n') {
            Some((h, b)) => (h, b),
            None => (text, ""),
        };
        let (verb, kv) = fields(header)?;
        let variant_of = |kv: &[(&str, &str)]| -> Result<ProfilingVariant, String> {
            take(kv, "variant")?.parse::<ProfilingVariant>()
        };
        match verb {
            "submit" => Ok(Request::SubmitModule {
                workload: take(&kv, "workload")?.to_string(),
                text: body.to_string(),
            }),
            "profile" => Ok(Request::Profile {
                workload: take(&kv, "workload")?.to_string(),
                variant: variant_of(&kv)?,
                args: parse_args(take(&kv, "args")?)?,
            }),
            "classify" => Ok(Request::Classify {
                workload: take(&kv, "workload")?.to_string(),
                variant: variant_of(&kv)?,
                args: parse_args(take(&kv, "args")?)?,
            }),
            "prefetch" => Ok(Request::Prefetch {
                workload: take(&kv, "workload")?.to_string(),
                variant: variant_of(&kv)?,
                train_args: parse_args(take(&kv, "train")?)?,
                ref_args: parse_args(take(&kv, "ref")?)?,
            }),
            "get-profile" => Ok(Request::GetProfile {
                workload: take(&kv, "workload")?.to_string(),
            }),
            "merge-profile" => Ok(Request::MergeProfile {
                entry_text: body.to_string(),
            }),
            "sync-delta" => Ok(Request::SyncDelta {
                batch_text: body.to_string(),
            }),
            "gc" => Ok(Request::Gc),
            "ping" => Ok(Request::Ping),
            "context" => Ok(Request::Context {
                floor: body.to_string(),
            }),
            "pull-deltas" => Ok(Request::PullDeltas {
                context: body.to_string(),
            }),
            "pull-state" => Ok(Request::PullState),
            "install-state" => Ok(Request::InstallState {
                state_text: body.to_string(),
            }),
            "health" => Ok(Request::Health),
            "repair" => Ok(Request::Repair),
            "route-update" => Ok(Request::RouteUpdate {
                shard: take(&kv, "shard")?
                    .parse()
                    .map_err(|_| "bad shard index".to_string())?,
                replica: take(&kv, "replica")?
                    .parse()
                    .map_err(|_| "bad replica index".to_string())?,
                addr: take(&kv, "addr")?.to_string(),
            }),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request verb `{other}`")),
        }
    }
}

/// Typed failure categories on the wire — the client can react to the
/// kind without parsing prose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The pipeline VM aborted (fuel, wild access, ...).
    Vm,
    /// IR or profile text failed to parse.
    Parse,
    /// Structurally unusable input.
    Malformed,
    /// A fault-injection plan string was invalid.
    BadFaultPlan,
    /// The request handler panicked (isolated; the daemon keeps serving).
    Panic,
    /// The connection queue was full — retry later.
    Busy,
    /// The request itself violated the protocol.
    Proto,
    /// No such workload / profile entry.
    NotFound,
    /// The stored profile was taken on a different module version.
    Stale,
    /// The shard owning the request's key range has no live replica —
    /// the rest of the cluster keeps serving; retry this key later. A
    /// write answered this way was applied nowhere.
    Unavailable,
}

impl ErrorKind {
    /// Every kind, in declaration order (so `ALL[kind as usize] == kind`).
    pub(crate) const ALL: [ErrorKind; 10] = [
        ErrorKind::Vm,
        ErrorKind::Parse,
        ErrorKind::Malformed,
        ErrorKind::BadFaultPlan,
        ErrorKind::Panic,
        ErrorKind::Busy,
        ErrorKind::Proto,
        ErrorKind::NotFound,
        ErrorKind::Stale,
        ErrorKind::Unavailable,
    ];

    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Vm => "vm",
            ErrorKind::Parse => "parse",
            ErrorKind::Malformed => "malformed",
            ErrorKind::BadFaultPlan => "bad-fault-plan",
            ErrorKind::Panic => "panic",
            ErrorKind::Busy => "busy",
            ErrorKind::Proto => "proto",
            ErrorKind::NotFound => "not-found",
            ErrorKind::Stale => "stale",
            ErrorKind::Unavailable => "unavailable",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<ErrorKind> {
        ErrorKind::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&PipelineError> for ErrorKind {
    fn from(e: &PipelineError) -> Self {
        match e {
            PipelineError::Vm(_) => ErrorKind::Vm,
            PipelineError::Parse(_) => ErrorKind::Parse,
            PipelineError::Malformed(_) => ErrorKind::Malformed,
            PipelineError::BadFaultPlan(_) => ErrorKind::BadFaultPlan,
        }
    }
}

impl From<&DbError> for ErrorKind {
    fn from(e: &DbError) -> Self {
        match e {
            DbError::Io(_) => ErrorKind::Malformed,
            DbError::Parse(_) => ErrorKind::Parse,
            DbError::Stale { .. } => ErrorKind::Stale,
            DbError::KeyMismatch(_)
            | DbError::Invalid { .. }
            | DbError::Corrupt { .. }
            | DbError::PendingWal { .. }
            | DbError::SealedSegment { .. } => ErrorKind::Malformed,
            DbError::NotFound { .. } => ErrorKind::NotFound,
        }
    }
}

/// A service response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Success; `body` is request-specific text.
    Ok(String),
    /// Typed failure.
    Err {
        /// Failure category.
        kind: ErrorKind,
        /// Human-readable detail (may be multi-line, e.g. caret
        /// diagnostics).
        message: String,
        /// Load-shedding hint: retry no sooner than this many
        /// milliseconds (set on `busy` and `unavailable` responses).
        retry_after_ms: Option<u64>,
        /// The shard whose key range the failure is confined to (set by
        /// the router on `unavailable`, so a client can tell a dead key
        /// range from a dead cluster).
        shard: Option<u32>,
    },
}

impl Response {
    /// Builds an error response from any typed error.
    pub fn err(kind: ErrorKind, message: impl Into<String>) -> Response {
        Response::Err {
            kind,
            message: message.into(),
            retry_after_ms: None,
            shard: None,
        }
    }

    /// Builds a load-shedding `busy` response with a retry-after hint.
    pub fn busy(message: impl Into<String>, retry_after_ms: u64) -> Response {
        Response::Err {
            kind: ErrorKind::Busy,
            message: message.into(),
            retry_after_ms: Some(retry_after_ms),
            shard: None,
        }
    }

    /// Builds the router's shard-down response: typed `unavailable`,
    /// scoped to the dead shard, with a retry hint.
    pub fn unavailable(shard: u32, retry_after_ms: u64, message: impl Into<String>) -> Response {
        Response::Err {
            kind: ErrorKind::Unavailable,
            message: message.into(),
            retry_after_ms: Some(retry_after_ms),
            shard: Some(shard),
        }
    }

    /// Serializes for the wire.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            Response::Ok(body) => format!("ok\n{body}").into_bytes(),
            Response::Err {
                kind,
                message,
                retry_after_ms,
                shard,
            } => {
                let mut header = format!("err {kind}");
                if let Some(k) = shard {
                    header.push_str(&format!(" shard={k}"));
                }
                if let Some(ms) = retry_after_ms {
                    header.push_str(&format!(" retry-after={ms}"));
                }
                format!("{header}\n{message}").into_bytes()
            }
        }
    }

    /// Parses a response payload.
    ///
    /// # Errors
    ///
    /// Returns a message when the payload is not a valid response.
    pub fn from_bytes(payload: &[u8]) -> Result<Response, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "response is not UTF-8".to_string())?;
        let (header, body) = match text.split_once('\n') {
            Some((h, b)) => (h, b),
            None => (text, ""),
        };
        if header == "ok" {
            return Ok(Response::Ok(body.to_string()));
        }
        if let Some(rest) = header.strip_prefix("err ") {
            let mut parts = rest.split_whitespace();
            let kind_s = parts.next().unwrap_or("");
            let kind =
                ErrorKind::parse(kind_s).ok_or_else(|| format!("unknown error kind `{kind_s}`"))?;
            let mut retry_after_ms = None;
            let mut shard = None;
            for part in parts {
                if let Some(ms) = part.strip_prefix("retry-after=") {
                    retry_after_ms = Some(
                        ms.parse::<u64>()
                            .map_err(|_| format!("bad retry-after `{ms}`"))?,
                    );
                } else if let Some(k) = part.strip_prefix("shard=") {
                    shard = Some(k.parse::<u32>().map_err(|_| format!("bad shard `{k}`"))?);
                } else {
                    return Err(format!("unknown error field `{part}`"));
                }
            }
            return Ok(Response::Err {
                kind,
                message: body.to_string(),
                retry_after_ms,
                shard,
            });
        }
        Err(format!("bad response header `{header}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn truncated_frames_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(6);
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::SubmitModule {
                workload: "mcf".into(),
                text: "fn @main() {\n}\n".into(),
            },
            Request::Profile {
                workload: "mcf".into(),
                variant: stride_core::ProfilingVariant::EdgeCheck,
                args: vec![3, 500],
            },
            Request::Classify {
                workload: "gap".into(),
                variant: stride_core::ProfilingVariant::SampleNaiveAll,
                args: vec![],
            },
            Request::Prefetch {
                workload: "parser".into(),
                variant: stride_core::ProfilingVariant::TwoPass,
                train_args: vec![1],
                ref_args: vec![-2, 9],
            },
            Request::GetProfile {
                workload: "mcf".into(),
            },
            Request::MergeProfile {
                entry_text: "# profdb v1\nworkload x\nmodule 00ff\nruns 1\n".into(),
            },
            Request::SyncDelta {
                batch_text: "# profdb delta-batch v1\ncount 0\nchecksum 0000000000000000\n".into(),
            },
            Request::Gc,
            Request::Ping,
            Request::Context {
                floor: String::new(),
            },
            Request::Context {
                floor: "# profdb context v1\norigin 0000000000000001 hwm 4\n".into(),
            },
            Request::PullDeltas {
                context: "# profdb context v1\n".into(),
            },
            Request::PullState,
            Request::InstallState {
                state_text: "53505741".into(),
            },
            Request::Health,
            Request::Repair,
            Request::RouteUpdate {
                shard: 2,
                replica: 1,
                addr: "127.0.0.1:9999".into(),
            },
            Request::Stats,
            Request::Shutdown,
        ];
        for req in requests {
            let back = Request::from_bytes(&req.to_bytes()).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(Request::from_bytes(b"").is_err());
        assert!(Request::from_bytes(b"bogus-verb").is_err());
        assert!(Request::from_bytes(b"profile workload=x").is_err());
        assert!(Request::from_bytes(b"profile workload=x variant=nope args=1").is_err());
        assert!(Request::from_bytes(b"profile workload=x variant=edge-check args=one").is_err());
        assert!(Request::from_bytes(&[0xff, 0xfe]).is_err());
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            Response::Ok("body\nlines\n".into()),
            Response::Ok(String::new()),
            Response::err(ErrorKind::Vm, "vm: out of fuel"),
            Response::err(ErrorKind::Busy, ""),
            Response::busy("queue full", 50),
            Response::unavailable(2, 250, "shard 2 has no live replica"),
        ];
        for resp in responses {
            let back = Response::from_bytes(&resp.to_bytes()).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn unavailable_wire_header_is_pinned() {
        // The chaos campaign and ci.sh grep for this exact shape: a dead
        // shard must answer `err unavailable shard=K retry-after=MS` for
        // its key range only.
        let resp = Response::unavailable(1, 200, "no live replica");
        let bytes = resp.to_bytes();
        let text = std::str::from_utf8(&bytes).unwrap();
        assert!(
            text.starts_with("err unavailable shard=1 retry-after=200\n"),
            "{text}"
        );
        assert_eq!(Response::from_bytes(&bytes).unwrap(), resp);
    }

    #[test]
    fn corrupted_frames_are_typed_protocol_errors() {
        let mut good = Vec::new();
        write_frame(&mut good, b"stats").unwrap();

        // Bit flip in the payload: checksum catches it.
        let mut flipped = good.clone();
        let last = flipped.len() - 9;
        flipped[last] ^= 0x40;
        let err = read_frame(&mut &flipped[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");

        // Wrong version byte (re-checksummed so only the version trips).
        let mut wrong_ver = good.clone();
        wrong_ver[4] = 1;
        let sum = fnv1a64(&wrong_ver[4..wrong_ver.len() - 8]);
        let at = wrong_ver.len() - 8;
        wrong_ver[at..].copy_from_slice(&sum.to_be_bytes());
        let err = read_frame(&mut &wrong_ver[..]).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");

        // Runt frame: length says fewer bytes than version + checksum.
        let mut runt = Vec::new();
        runt.extend_from_slice(&3u32.to_be_bytes());
        runt.extend_from_slice(&[PROTO_VERSION, 0, 0]);
        let err = read_frame(&mut &runt[..]).unwrap_err();
        assert!(err.to_string().contains("runt"), "{err}");

        // Truncated mid-payload: an EOF error, not a hang or misparse.
        let mut cut = good.clone();
        cut.truncate(good.len() - 3);
        assert!(read_frame(&mut &cut[..]).is_err());
    }

    #[test]
    fn request_meta_round_trips() {
        let req = Request::Stats;
        // No meta: payload is byte-identical to the bare request (v1
        // compatible) and decodes to the default meta.
        let bare = encode_request(&RequestMeta::default(), &req);
        assert_eq!(bare, req.to_bytes());
        let (meta, back) = decode_request(&bare).unwrap();
        assert!(meta.is_empty());
        assert_eq!(back, req);

        // Full meta survives, including in front of a request body.
        let meta = RequestMeta {
            req_id: 0xdead_beef_0123,
            deadline_fuel: Some(750_000),
        };
        let merge = Request::MergeProfile {
            entry_text: "# profdb v1\nworkload x\nmodule 00ff\nruns 1\n".into(),
        };
        let bytes = encode_request(&meta, &merge);
        let (meta_back, req_back) = decode_request(&bytes).unwrap();
        assert_eq!(meta_back, meta);
        assert_eq!(req_back, merge);

        // Id without deadline.
        let meta = RequestMeta {
            req_id: 7,
            deadline_fuel: None,
        };
        let (meta_back, _) = decode_request(&encode_request(&meta, &req)).unwrap();
        assert_eq!(meta_back, meta);
    }

    #[test]
    fn malformed_request_meta_is_rejected() {
        assert!(decode_request(b"@req id=zz\nstats").is_err());
        assert!(decode_request(b"@req deadline=-1\nstats").is_err());
        assert!(decode_request(b"@req bogus=1\nstats").is_err());
        assert!(decode_request(b"@req id\nstats").is_err());
    }

    #[test]
    fn every_error_kind_round_trips() {
        for (i, kind) in ErrorKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "ALL is in declaration order");
            assert_eq!(ErrorKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(ErrorKind::parse("nope"), None);
    }
}
