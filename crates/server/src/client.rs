//! A blocking, resilient client for the daemon: one TCP connection,
//! framed request/response round trips, deterministic retry with
//! exponential backoff, reconnect-on-reset, and idempotency ids that
//! make a retried `merge-profile` merge exactly once.

use crate::proto::{
    encode_frame, encode_request, read_frame, ErrorKind, Request, RequestMeta, Response,
};
use std::io;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use stride_core::{splitmix64_mix, SPLITMIX64_GAMMA};

/// Retry configuration: how many attempts a [`Client::call`] gets and
/// how the waits between them grow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 1 disables retries.
    pub max_attempts: u32,
    /// Backoff before the first retry, in milliseconds.
    pub base_delay_ms: u64,
    /// Ceiling on any single backoff, in milliseconds.
    pub max_delay_ms: u64,
    /// Seed for the deterministic jitter. The same seed produces a
    /// byte-identical schedule on every run, at any parallelism — chaos
    /// campaigns stay reproducible.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay_ms: 10,
            max_delay_ms: 2_000,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy that fails fast (single attempt, no waits).
    pub fn no_retries() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }
}

/// The full backoff schedule a policy produces: one wait (milliseconds)
/// before each retry, so `max_attempts - 1` entries. Pure — this *is*
/// the schedule [`Client::call`] sleeps through, exposed so tests can
/// assert determinism without a server.
///
/// Equivalent to [`backoff_schedule_for`] with request id 0 (the
/// id-less form every non-merge request uses).
pub fn backoff_schedule(policy: &RetryPolicy) -> Vec<u64> {
    backoff_schedule_for(policy, 0)
}

/// The backoff schedule for one specific request: wait `i` is
/// `min(base << i, max)`, half fixed and half scaled by a
/// `splitmix64(seed ^ req_id ^ (i+1))` fraction. Folding the request's
/// idempotency id into the jitter decorrelates the retry herd a shed
/// event creates — every client got the same `retry-after` hint, but
/// each request re-arrives at its own offset instead of re-stampeding
/// the limiter in lockstep. Pure and byte-identical at any `--jobs`
/// for equal `(policy, req_id)`.
pub fn backoff_schedule_for(policy: &RetryPolicy, req_id: u64) -> Vec<u64> {
    let retries = policy.max_attempts.saturating_sub(1);
    (0..retries)
        .map(|i| {
            let exp = policy
                .base_delay_ms
                .saturating_mul(1u64 << i.min(32))
                .min(policy.max_delay_ms);
            let jitter = splitmix64_mix(policy.jitter_seed ^ req_id ^ (u64::from(i) + 1)) % 1_000;
            exp / 2 + exp / 2 * jitter / 1_000 + exp % 2
        })
        .collect()
}

/// The idempotency ids a client stamps on its merges, in order: a
/// splitmix64 stream from a state (see [`Client::set_id_state`]), with
/// 0 skipped because it means "no id". Exposed so a caller that pins a
/// client's state can predict the id each of its merges carries.
#[derive(Clone, Copy, Debug)]
pub struct IdStream(u64);

impl IdStream {
    /// The stream a client whose id state is `state` stamps next.
    pub fn new(state: u64) -> IdStream {
        IdStream(state)
    }
}

impl Iterator for IdStream {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        loop {
            self.0 = self.0.wrapping_add(SPLITMIX64_GAMMA);
            let id = splitmix64_mix(self.0);
            if id != 0 {
                return Some(id);
            }
        }
    }
}

/// One connection to a running daemon. Requests are pipelinable in
/// principle, but [`Client::call`] keeps the simple lockstep discipline:
/// send one frame, read one frame (retrying per the policy).
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    policy: RetryPolicy,
    /// Deadline (fuel budget) attached to every request's meta.
    deadline_fuel: Option<u64>,
    /// Idempotency ids for merges.
    ids: IdStream,
    /// Calls made (drives the id stream and the dup-request fault).
    calls: u64,
    /// Injected fault: duplicate the request frame of the `nth` call.
    dup_request_nth: Option<u64>,
    /// Human-readable retry/reconnect events from the most recent call.
    trace: Vec<String>,
    /// Optional `client.retries` counter: bumped once per retry attempt
    /// (the router shares one across its backend clients).
    retry_counter: Option<stride_core::Counter>,
}

fn connect_stream(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    // Request/response ping-pong over small frames: Nagle only adds
    // latency here, never useful batching.
    stream.set_nodelay(true)?;
    Ok(stream)
}

impl Client {
    /// Connects to a daemon at `addr` with the default retry policy.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        Self::connect_with(addr, RetryPolicy::default())
    }

    /// Connects with an explicit retry policy.
    ///
    /// # Errors
    ///
    /// Connection failures (the initial connect is not retried — a
    /// daemon that is not there yet is the caller's loop to write).
    pub fn connect_with<A: ToSocketAddrs>(addr: A, policy: RetryPolicy) -> io::Result<Client> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        let stream = connect_stream(addr)?;
        // Ids must differ across clients even with equal jitter seeds,
        // or two clients' distinct merges would wrongly deduplicate:
        // fold in the OS-assigned ephemeral port.
        let local = stream
            .local_addr()
            .map(|a| u64::from(a.port()))
            .unwrap_or(0);
        Ok(Client {
            addr,
            stream: Some(stream),
            policy,
            deadline_fuel: None,
            ids: IdStream::new(splitmix64_mix(
                policy.jitter_seed ^ (local << 17) ^ 0x1d_c0de,
            )),
            calls: 0,
            dup_request_nth: None,
            trace: Vec::new(),
            retry_counter: None,
        })
    }

    /// Attaches a deadline (VM fuel budget) to every subsequent request.
    pub fn set_deadline_fuel(&mut self, fuel: Option<u64>) {
        self.deadline_fuel = fuel;
    }

    /// Overrides the idempotency-id stream (tests pin ids this way).
    pub fn set_id_state(&mut self, state: u64) {
        self.ids = IdStream::new(state);
    }

    /// Injected fault: send the `nth` (1-based) call's request frame
    /// twice — duplicate delivery the server's idempotency ids must
    /// absorb.
    pub fn set_dup_request_nth(&mut self, nth: Option<u64>) {
        self.dup_request_nth = nth;
    }

    /// Retry/reconnect events from the most recent [`Client::call`]
    /// (empty when it succeeded first try).
    pub fn trace(&self) -> &[String] {
        &self.trace
    }

    /// Attaches a metrics counter bumped once per retry attempt (the
    /// `client.retries` observability counter).
    pub fn set_retry_counter(&mut self, counter: Option<stride_core::Counter>) {
        self.retry_counter = counter;
    }

    /// Sends `req` and waits for the daemon's response, retrying
    /// transport failures and `busy` shedding per the policy (with
    /// reconnect between attempts). A `merge-profile` request carries an
    /// idempotency id that is stable across its retries, so a duplicate
    /// arrival merges exactly once.
    ///
    /// # Errors
    ///
    /// Transport failures that survive the whole retry budget (the
    /// message carries the attempt count; [`Client::trace`] has the
    /// per-attempt detail). Server-side failures other than `busy` are
    /// *not* `Err`: they arrive as [`Response::Err`] with a typed
    /// [`crate::ErrorKind`].
    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        // Only merges get ids: they are the requests whose retry must not
        // double-count. (An id on every request would cost WAL traffic
        // for no dedup value.)
        let req_id = match req {
            Request::MergeProfile { .. } => self.ids.next().unwrap_or(0),
            _ => 0,
        };
        self.call_with_id(req, req_id)
    }

    /// [`Client::call`] under a caller-chosen idempotency id (0 for
    /// none): the router sends a forwarded `profile` with the id its
    /// replicated run is stored under. It is [`Client::send`] followed by
    /// [`Client::finish`].
    ///
    /// # Errors
    ///
    /// As [`Client::call`].
    pub(crate) fn call_with_id(&mut self, req: &Request, req_id: u64) -> io::Result<Response> {
        let sent = self.send(req, req_id);
        self.finish(sent)
    }

    /// The send half of a call: encodes `req`, connects if needed and
    /// writes the first attempt's frame without waiting for the answer,
    /// so a caller can send to several daemons before reading any of
    /// them. A failed write is not an error yet: [`Client::finish`]
    /// treats it as the first attempt's failure and retries.
    pub(crate) fn send(&mut self, req: &Request, req_id: u64) -> Sent {
        self.trace.clear();
        self.calls += 1;
        let meta = RequestMeta {
            req_id,
            deadline_fuel: self.deadline_fuel,
        };
        let payload = encode_request(&meta, req);
        let duplicate = self.dup_request_nth == Some(self.calls);
        let first = self.write(&payload, duplicate);
        Sent {
            payload,
            req_id,
            duplicate,
            first,
        }
    }

    /// The finish half of a call: reads the answer to the frame
    /// [`Client::send`] wrote, retrying transport failures and `busy`
    /// shedding per the policy (with reconnect between attempts).
    ///
    /// # Errors
    ///
    /// As [`Client::call`].
    pub(crate) fn finish(&mut self, sent: Sent) -> io::Result<Response> {
        let schedule = backoff_schedule_for(&self.policy, sent.req_id);
        let mut first = Some(sent.first);
        let mut last_err: Option<io::Error> = None;
        // The server's retry-after hint from the last answer, if any.
        let mut hint_ms = None;
        for attempt in 0..self.policy.max_attempts {
            if attempt > 0 {
                if let Some(counter) = &self.retry_counter {
                    counter.inc();
                }
                let base_wait = schedule
                    .get(attempt as usize - 1)
                    .copied()
                    .unwrap_or(self.policy.max_delay_ms);
                // A server-provided retry-after hint extends (never
                // shortens) the backoff.
                let wait = base_wait.max(hint_ms.take().unwrap_or(0));
                std::thread::sleep(std::time::Duration::from_millis(wait));
            }
            // The first attempt's frame is already written.
            let written = first
                .take()
                .unwrap_or_else(|| self.write(&sent.payload, sent.duplicate));
            let answer = written.and_then(|()| self.read(sent.duplicate));
            match answer {
                Ok(resp) => {
                    // `busy` (shed load) and `unavailable` (dead shard,
                    // may come back) are the transient server answers:
                    // both retry, under the same id, with the server's
                    // hint honoured.
                    if let Response::Err {
                        kind: kind @ (ErrorKind::Busy | ErrorKind::Unavailable),
                        message,
                        retry_after_ms,
                        ..
                    } = &resp
                    {
                        if attempt + 1 < self.policy.max_attempts {
                            self.trace.push(format!(
                                "attempt {}: {kind} ({message}), retry-after {:?} ms",
                                attempt + 1,
                                retry_after_ms
                            ));
                            hint_ms = *retry_after_ms;
                            last_err = Some(io::Error::other(format!("server answered {kind}")));
                            // Busy answers close nothing server-side, but
                            // shed connections are per-accept: reconnect.
                            self.stream = None;
                            continue;
                        }
                    }
                    return Ok(resp);
                }
                Err(e) => {
                    self.trace
                        .push(format!("attempt {}: {} ({})", attempt + 1, e, e.kind()));
                    self.stream = None; // reconnect next attempt
                    last_err = Some(e);
                }
            }
        }
        let detail = self.trace.join("; ");
        Err(io::Error::new(
            last_err.map(|e| e.kind()).unwrap_or(io::ErrorKind::Other),
            format!(
                "retries exhausted after {} attempt(s): {detail}",
                self.policy.max_attempts
            ),
        ))
    }

    /// Writes one attempt's request frame over the current (or a fresh)
    /// stream.
    fn write(&mut self, payload: &[u8], duplicate: bool) -> io::Result<()> {
        if self.stream.is_none() {
            self.stream = Some(connect_stream(self.addr)?);
            self.trace.push(format!("reconnected to {}", self.addr));
        }
        let Some(stream) = self.stream.as_mut() else {
            return Err(io::Error::other("no connection"));
        };
        let frame = encode_frame(payload)?;
        if duplicate {
            // Duplicate delivery: the same request frame twice in one
            // write. Both responses are read so the lockstep discipline
            // survives.
            let mut twice = Vec::with_capacity(frame.len() * 2);
            twice.extend_from_slice(&frame);
            twice.extend_from_slice(&frame);
            stream.write_all(&twice)?;
        } else {
            stream.write_all(&frame)?;
        }
        stream.flush()
    }

    /// Reads one attempt's answer (and drains a duplicate's).
    fn read(&mut self, duplicate: bool) -> io::Result<Response> {
        let Some(stream) = self.stream.as_mut() else {
            return Err(io::Error::other("no connection"));
        };
        let payload = read_frame(stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        let resp = Response::from_bytes(&payload)
            .map_err(|msg| io::Error::new(io::ErrorKind::InvalidData, msg))?;
        if duplicate {
            // Drain the duplicate's response; the first answer wins.
            let _ = read_frame(stream)?;
        }
        Ok(resp)
    }
}

/// A call whose request frame [`Client::send`] wrote and whose answer
/// [`Client::finish`] has yet to read.
pub(crate) struct Sent {
    payload: Vec<u8>,
    req_id: u64,
    duplicate: bool,
    /// The first attempt's write: connect and send.
    first: io::Result<()>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_bounded() {
        let policy = RetryPolicy {
            max_attempts: 6,
            base_delay_ms: 10,
            max_delay_ms: 100,
            jitter_seed: 42,
        };
        let a = backoff_schedule(&policy);
        let b = backoff_schedule(&policy);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), 5);
        for (i, &wait) in a.iter().enumerate() {
            let exp = (10u64 << i).min(100);
            assert!(wait >= exp / 2, "wait {wait} below half-floor of {exp}");
            assert!(wait <= exp + 1, "wait {wait} above cap {exp}");
        }
        // A different seed jitters differently (overwhelmingly likely
        // over 5 slots).
        let other = backoff_schedule(&RetryPolicy {
            jitter_seed: 43,
            ..policy
        });
        assert_ne!(a, other);
    }

    #[test]
    fn no_retries_schedule_is_empty() {
        assert!(backoff_schedule(&RetryPolicy::no_retries()).is_empty());
    }

    #[test]
    fn per_request_jitter_decorrelates_but_stays_pure() {
        let policy = RetryPolicy {
            max_attempts: 6,
            base_delay_ms: 10,
            max_delay_ms: 100,
            jitter_seed: 42,
        };
        // Id 0 is exactly the legacy schedule.
        assert_eq!(backoff_schedule_for(&policy, 0), backoff_schedule(&policy));
        // Same (policy, req_id) is byte-identical across calls and
        // across threads — pure, so trivially jobs-invariant.
        let a = backoff_schedule_for(&policy, 0xfeed_beef);
        let b = std::thread::spawn(move || backoff_schedule_for(&policy, 0xfeed_beef))
            .join()
            .unwrap();
        assert_eq!(a, b);
        // Different requests retry at different offsets (the anti-herd
        // property), within the same bounds as the base schedule.
        let c = backoff_schedule_for(&policy, 0xfeed_beef + 1);
        assert_ne!(a, c);
        for (i, &wait) in a.iter().enumerate() {
            let exp = (10u64 << i).min(100);
            assert!(wait >= exp / 2 && wait <= exp + 1, "wait {wait} vs {exp}");
        }
    }
}
