//! The connection lifecycle both daemons share: an acceptor thread
//! feeding a bounded connection queue, a pool of workers that each serve
//! one connection to EOF, AIMD admission per request, panic isolation
//! around the handler, network-fault injection on responses, and the
//! graceful shutdown: a request already taken in is answered, while idle
//! and queued connections are closed.
//!
//! What a request *means* is the [`Handler`]'s business: `strided` plugs
//! in a [`crate::Service`] ([`crate::Server`]), `strided-router` a
//! [`crate::Router`] ([`crate::RouterServer`]). The transport registers
//! its metrics in the handler's registry under a fixed per-daemon prefix:
//! `{prefix}.shed`, `{prefix}.queue_depth` and
//! `{prefix}.limiter.{shed,limit,in_flight}`.

use crate::limiter::{completion_of, cost_of, AimdLimiter};
use crate::proto::{
    decode_request, encode_frame, read_frame, write_frame, ErrorKind, Request, RequestMeta,
    Response,
};
use crate::queue::BoundedQueue;
use std::collections::HashMap;
use std::io;
use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use stride_core::{parallel_map_isolated, Counter, FaultInjector, FaultKind, Gauge, Registry};

/// Milliseconds a shed client should wait before retrying (the hint on
/// `busy` responses).
pub const BUSY_RETRY_AFTER_MS: u64 = 50;

/// What a daemon does with a request once the transport has framed,
/// decoded and admitted it.
pub trait Handler: Send + Sync {
    /// Answers one request. Never sees `shutdown` (the transport
    /// intercepts it). A panic here is caught and answered `err panic`;
    /// the connection and the daemon keep serving.
    fn handle(&self, meta: &RequestMeta, req: &Request) -> Response;

    /// The registry the transport's own metrics are registered in.
    fn obs(&self) -> &Registry;

    /// Runs on the worker that received a wire `shutdown`, before the
    /// reply goes out.
    fn on_shutdown(&self) {}

    /// Runs once from [`Daemon::join`], after every transport thread has
    /// exited.
    fn stopped(&self) {}
}

/// Server-side network faults, distilled from the fault plan: each acts
/// on the `nth` (1-based, across all connections) response.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct NetFaults {
    drop_nth: Option<u64>,
    trunc_nth: Option<u64>,
    reset_nth: Option<u64>,
    stall_ms: Option<u64>,
}

impl NetFaults {
    pub(crate) fn of(injector: Option<&FaultInjector>) -> NetFaults {
        let mut faults = NetFaults::default();
        let Some(injector) = injector else {
            return faults;
        };
        for scenario in &injector.plan().scenarios {
            match scenario.kind {
                FaultKind::NetDropFrame { nth } => faults.drop_nth = Some(nth),
                FaultKind::NetTruncFrame { nth } => faults.trunc_nth = Some(nth),
                FaultKind::NetReset { nth } => faults.reset_nth = Some(nth),
                FaultKind::NetStall { ms } => faults.stall_ms = Some(ms),
                // NetDupFrame is a client-side fault (duplicate request
                // delivery); a server duplicating responses would desync
                // every lockstep client.
                _ => {}
            }
        }
        faults
    }
}

/// How a daemon's transport is laid out; fixed at start.
pub(crate) struct Transport {
    /// The bound listening socket.
    pub listener: TcpListener,
    /// Metric-name prefix (`server` or `router`).
    pub prefix: &'static str,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Connections that may wait for a worker before the acceptor
    /// answers `busy`.
    pub queue_cap: usize,
    /// Injected network faults (none outside fault campaigns).
    pub net_faults: NetFaults,
}

struct Shared<H> {
    handler: H,
    addr: SocketAddr,
    queue: BoundedQueue<TcpStream>,
    shutdown: AtomicBool,
    /// A handle on every served connection that is waiting for its next
    /// request, by connection id, so a shutdown can close it.
    idle: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    net_faults: NetFaults,
    /// Responses sent across all connections (drives nth-response net
    /// faults).
    responses: AtomicU64,
    /// Connections refused with `busy` because the queue was full.
    shed: Counter,
    /// Connection-queue depth; its high-water mark survives in the
    /// gauge's max.
    queue_depth: Gauge,
    /// AIMD admission control: requests over the adaptive in-flight
    /// cost ceiling are shed with `busy` at the door.
    limiter: AimdLimiter,
    /// Requests shed by the limiter (as opposed to the connection
    /// queue's `{prefix}.shed`).
    limiter_shed: Counter,
    /// Mirrors of the limiter's ceiling and admitted cost.
    limiter_limit: Gauge,
    limiter_in_flight: Gauge,
}

/// A running daemon serving handler `H`; dropping the handle does *not*
/// stop it — send a `shutdown` request or call [`Daemon::shutdown`].
pub struct Daemon<H> {
    shared: Arc<Shared<H>>,
    threads: Vec<JoinHandle<()>>,
}

impl<H: Handler + 'static> Daemon<H> {
    /// Spawns the acceptor and the workers, and returns immediately.
    pub(crate) fn spawn(handler: H, transport: Transport) -> io::Result<Daemon<H>> {
        let Transport {
            listener,
            prefix,
            workers,
            queue_cap,
            net_faults,
        } = transport;
        let addr = listener.local_addr()?;
        let metric = |name: &str| format!("{prefix}.{name}");
        let obs = handler.obs();
        let limiter = AimdLimiter::default_sized();
        let limiter_limit = obs.gauge(&metric("limiter.limit"));
        limiter_limit.set(limiter.limit());
        let shared = Arc::new(Shared {
            shed: obs.counter(&metric("shed")),
            queue_depth: obs.gauge(&metric("queue_depth")),
            limiter_shed: obs.counter(&metric("limiter.shed")),
            limiter_in_flight: obs.gauge(&metric("limiter.in_flight")),
            limiter_limit,
            limiter,
            handler,
            addr,
            queue: BoundedQueue::new(queue_cap.max(1)),
            shutdown: AtomicBool::new(false),
            idle: Mutex::default(),
            next_conn: AtomicU64::new(0),
            net_faults,
            responses: AtomicU64::new(0),
        });
        let mut threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || accept_loop(&listener, &shared)));
        }
        for _ in 0..workers.max(1) {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || worker_loop(&shared)));
        }
        Ok(Daemon { shared, threads })
    }
}

impl<H: Handler> Daemon<H> {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The request handler.
    pub(crate) fn handler(&self) -> &H {
        &self.shared.handler
    }

    /// Stops accepting and closes idle and queued connections; a request
    /// already taken in still gets its response. Unlike a wire
    /// `shutdown`, this does not run [`Handler::on_shutdown`].
    pub fn shutdown(&self) {
        trigger_shutdown(&self.shared);
    }

    /// Waits for the daemon to finish (after a shutdown trigger), then
    /// runs [`Handler::stopped`].
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
        self.shared.handler.stopped();
    }

    /// Convenience: trigger shutdown and wait.
    pub fn shutdown_and_join(self) {
        self.shutdown();
        self.join();
    }
}

fn trigger_shutdown<H>(shared: &Shared<H>) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return; // already shutting down
    }
    // Close the queue: workers close the backlog's connections and stop.
    // Hang up every idle connection, so no worker stays blocked reading
    // from a client that never speaks again. Wake the acceptor (blocked
    // in accept) with a throwaway connection.
    shared.queue.close();
    for (_, stream) in idle_conns(shared).drain() {
        let _ = stream.shutdown(Shutdown::Both);
    }
    let _ = TcpStream::connect(shared.addr);
}

fn idle_conns<H>(shared: &Shared<H>) -> std::sync::MutexGuard<'_, HashMap<u64, TcpStream>> {
    shared.idle.lock().unwrap_or_else(PoisonError::into_inner)
}

fn accept_loop<H>(listener: &TcpListener, shared: &Shared<H>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            // Accept errors are transient (EMFILE, aborted handshakes);
            // only a shutdown ends the loop below.
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return; // the wake-up connection (or a late client) is dropped
        }
        let _ = stream.set_nodelay(true); // small-frame ping-pong protocol
        if let Err(mut stream) = shared.queue.try_push(stream) {
            // Backpressure: answer `busy` with a retry-after hint on the
            // acceptor thread (cheap) and close.
            shared.shed.inc();
            let resp = Response::busy("connection queue full, retry later", BUSY_RETRY_AFTER_MS);
            let _ = write_frame(&mut stream, &resp.to_bytes());
        } else {
            shared.queue_depth.set(shared.queue.len() as u64);
        }
    }
}

fn worker_loop<H: Handler>(shared: &Shared<H>) {
    while let Some(stream) = shared.queue.pop() {
        serve_connection(stream, shared);
    }
}

/// Serves one connection to EOF (or protocol breakdown, or shutdown).
fn serve_connection<H: Handler>(mut stream: TcpStream, shared: &Shared<H>) {
    let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    let Ok(mut handle) = stream.try_clone() else {
        return;
    };
    loop {
        // Park a handle while waiting for the next request. The flag is
        // read under the lock a shutdown sweeps, so a connection either
        // sees the flag here or is closed by the sweep.
        {
            let mut idle = idle_conns(shared);
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            idle.insert(id, handle);
        }
        let read = read_frame(&mut stream);
        handle = match idle_conns(shared).remove(&id) {
            Some(h) => h,
            None => return, // closed by a shutdown while idle
        };
        let payload = match read {
            Ok(Some(p)) => p,
            Ok(None) => return, // client done
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Garbage frame (oversized, runt, bad version, checksum
                // failure): answer with a typed error, then hang up —
                // the stream position is untrustworthy after this.
                let resp = Response::err(ErrorKind::Proto, e.to_string());
                let _ = write_frame(&mut stream, &resp.to_bytes());
                return;
            }
            Err(_) => return, // torn connection
        };
        let (meta, req) = match decode_request(&payload) {
            Ok(pair) => pair,
            Err(msg) => {
                // The frame was sound, so the stream stays in sync.
                let resp = Response::err(ErrorKind::Proto, msg);
                if write_frame(&mut stream, &resp.to_bytes()).is_err() {
                    return;
                }
                continue;
            }
        };
        if matches!(req, Request::Shutdown) {
            shared.handler.on_shutdown();
            let resp = Response::Ok("shutting down\n".to_string());
            let _ = write_frame(&mut stream, &resp.to_bytes());
            trigger_shutdown(shared);
            return;
        }
        let resp = admit_and_handle(shared, &meta, &req);
        if !send_response(&mut stream, shared, &resp) {
            return;
        }
    }
}

/// AIMD admission, then the handler under `catch_unwind` (via the
/// reproduction's panic-isolating map), so a handler bug answers
/// `err panic` and the daemon lives on. A request over the adaptive
/// in-flight cost ceiling is shed here — a cheap typed refusal at the
/// door instead of a queue-then-timeout collapse.
fn admit_and_handle<H: Handler>(shared: &Shared<H>, meta: &RequestMeta, req: &Request) -> Response {
    let cost = cost_of(req);
    if !shared.limiter.try_acquire(cost) {
        shared.limiter_shed.inc();
        return Response::busy("admission limit reached, retry later", BUSY_RETRY_AFTER_MS);
    }
    shared.limiter_in_flight.set(shared.limiter.in_flight());
    let mut results = parallel_map_isolated(std::slice::from_ref(req), 1, |_, r| {
        shared.handler.handle(meta, r)
    });
    let resp = match results.pop() {
        Some(Ok(resp)) => resp,
        Some(Err(failure)) => Response::err(
            ErrorKind::Panic,
            format!("request handler panicked: {}", failure.message),
        ),
        None => Response::err(ErrorKind::Panic, "request handler vanished"),
    };
    shared.limiter.release(cost, completion_of(meta, &resp));
    shared.limiter_limit.set(shared.limiter.limit());
    resp
}

/// Writes one response, applying any injected network faults. Returns
/// false when the connection should be dropped (fault fired or write
/// failed).
fn send_response<H>(stream: &mut TcpStream, shared: &Shared<H>, resp: &Response) -> bool {
    let n = shared.responses.fetch_add(1, Ordering::SeqCst) + 1;
    let faults = shared.net_faults;
    if let Some(ms) = faults.stall_ms {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
    if faults.drop_nth == Some(n) || faults.reset_nth == Some(n) {
        // The response vanishes; the client sees a closed connection.
        let _ = stream.shutdown(Shutdown::Both);
        return false;
    }
    if faults.trunc_nth == Some(n) {
        // Half a frame, then close: the client's frame checksum (or the
        // short read itself) must catch this.
        if let Ok(frame) = encode_frame(&resp.to_bytes()) {
            let _ = stream.write_all(&frame[..frame.len() / 2]);
            let _ = stream.flush();
        }
        let _ = stream.shutdown(Shutdown::Both);
        return false;
    }
    write_frame(stream, &resp.to_bytes()).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    /// Answers `ping` with `pong`, panics on `stats`, and echoes any
    /// other request back.
    #[derive(Default)]
    struct Fake {
        obs: Registry,
    }

    impl Handler for Fake {
        fn handle(&self, _meta: &RequestMeta, req: &Request) -> Response {
            match req {
                Request::Ping => Response::Ok("pong\n".to_string()),
                Request::Stats => panic!("fake handler bug"),
                other => Response::Ok(format!("{other:?}\n")),
            }
        }

        fn obs(&self) -> &Registry {
            &self.obs
        }
    }

    fn start(workers: usize, queue_cap: usize) -> Daemon<Fake> {
        Daemon::spawn(
            Fake::default(),
            Transport {
                listener: TcpListener::bind("127.0.0.1:0").unwrap(),
                prefix: "fake",
                workers,
                queue_cap,
                net_faults: NetFaults::default(),
            },
        )
        .unwrap()
    }

    fn read_response(stream: &mut TcpStream) -> Response {
        let payload = read_frame(stream).unwrap().expect("a response frame");
        Response::from_bytes(&payload).unwrap()
    }

    fn assert_kind(resp: &Response, want: ErrorKind) {
        assert!(
            matches!(resp, Response::Err { kind, .. } if *kind == want),
            "want {want}, got {resp:?}"
        );
    }

    #[test]
    fn protocol_garbage_gets_typed_error() {
        let daemon = start(2, 4);
        let mut stream = TcpStream::connect(daemon.addr()).unwrap();
        write_frame(&mut stream, b"no-such-verb x=1").unwrap();
        assert_kind(&read_response(&mut stream), ErrorKind::Proto);
        drop(stream);
        daemon.shutdown_and_join();
    }

    #[test]
    fn undecodable_payload_gets_typed_error_and_the_connection_keeps_serving() {
        let daemon = start(2, 4);
        let mut stream = TcpStream::connect(daemon.addr()).unwrap();
        write_frame(&mut stream, b"\xff\xfe not a request").unwrap();
        assert_kind(&read_response(&mut stream), ErrorKind::Proto);
        // Same connection, a well-formed request: still served.
        write_frame(&mut stream, &Request::Ping.to_bytes()).unwrap();
        assert_eq!(
            read_response(&mut stream),
            Response::Ok("pong\n".to_string())
        );
        drop(stream);
        daemon.shutdown_and_join();
    }

    #[test]
    fn garbage_frame_gets_typed_error_then_hang_up() {
        let daemon = start(2, 4);
        let mut stream = TcpStream::connect(daemon.addr()).unwrap();
        // A length prefix far past MAX_FRAME: the frame itself is junk.
        stream.write_all(&u32::MAX.to_be_bytes()).unwrap();
        assert_kind(&read_response(&mut stream), ErrorKind::Proto);
        assert!(
            read_frame(&mut stream).unwrap().is_none(),
            "the daemon must hang up after a garbage frame"
        );
        daemon.shutdown_and_join();
    }

    #[test]
    fn busy_when_queue_overflows() {
        let daemon = start(1, 1);
        let addr = daemon.addr();
        // A served ping proves the single worker holds this connection...
        let mut hold = TcpStream::connect(addr).unwrap();
        write_frame(&mut hold, &Request::Ping.to_bytes()).unwrap();
        read_response(&mut hold);
        // ...a second waits in the queue once the acceptor pushed it...
        let fill = TcpStream::connect(addr).unwrap();
        while daemon.shared.queue.is_empty() {
            std::thread::yield_now();
        }
        // ...so a third is refused with `busy`, and counted.
        let mut refused = TcpStream::connect(addr).unwrap();
        assert_kind(&read_response(&mut refused), ErrorKind::Busy);
        assert_eq!(daemon.handler().obs.counter("fake.shed").get(), 1);
        assert!(daemon.handler().obs.gauge("fake.queue_depth").max_seen() >= 1);
        // Neither the served nor the queued connection holds up the stop.
        daemon.shutdown_and_join();
        drop((hold, fill));
    }

    #[test]
    fn shutdown_hangs_up_idle_connections_instead_of_waiting_for_them() {
        let daemon = start(2, 4);
        // Served once, then silent: a worker waits on it for a request.
        let mut idle = TcpStream::connect(daemon.addr()).unwrap();
        write_frame(&mut idle, &Request::Ping.to_bytes()).unwrap();
        read_response(&mut idle);
        let mut client = Client::connect(daemon.addr()).unwrap();
        assert_eq!(
            client.call(&Request::Shutdown).unwrap(),
            Response::Ok("shutting down\n".to_string())
        );
        let (joined, done) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            daemon.join();
            let _ = joined.send(());
        });
        assert!(
            done.recv_timeout(std::time::Duration::from_secs(5)).is_ok(),
            "join waited on a connection that stayed open and idle"
        );
        assert!(
            read_frame(&mut idle).map_or(true, |frame| frame.is_none()),
            "the daemon must hang up an idle connection at shutdown"
        );
    }

    #[test]
    fn panicking_handler_answers_err_panic_and_the_daemon_lives_on() {
        let daemon = start(1, 4);
        let mut client = Client::connect(daemon.addr()).unwrap();
        let resp = client.call(&Request::Stats).unwrap();
        assert_kind(&resp, ErrorKind::Panic);
        drop(client);
        // The single worker survived: a fresh connection is served.
        let mut client = Client::connect(daemon.addr()).unwrap();
        assert_eq!(
            client.call(&Request::Ping).unwrap(),
            Response::Ok("pong\n".to_string())
        );
        // The panicked request's permit was released.
        assert_eq!(daemon.shared.limiter.in_flight(), 0);
        drop(client);
        daemon.shutdown_and_join();
    }
}
