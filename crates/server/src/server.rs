//! The profile daemon `strided`: a [`Service`] behind the shared
//! [`crate::transport`] (acceptor, bounded connection queue, worker
//! pool, graceful drain-then-shutdown).

use crate::proto::{Request, RequestMeta, Response};
use crate::service::{Service, ServiceConfig};
use crate::transport::{Daemon, Handler, NetFaults, Transport};
use std::io;
use std::net::TcpListener;
use stride_core::Registry;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Bounded connection-queue capacity; connections arriving beyond it
    /// are answered with a `busy` error and closed (backpressure instead
    /// of unbounded memory).
    pub queue_cap: usize,
    /// Everything request handling needs.
    pub service: ServiceConfig,
}

impl ServerConfig {
    /// Loopback on an ephemeral port, 4 workers, a 64-connection queue.
    pub fn loopback(service: ServiceConfig) -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_cap: 64,
            service,
        }
    }
}

/// A running `strided`; dropping the handle does *not* stop it — send a
/// `shutdown` request or call [`Daemon::shutdown`].
pub type Server = Daemon<Service>;

impl Daemon<Service> {
    /// Binds, opens the profile database (running WAL recovery), spawns
    /// the acceptor and `workers` worker threads, and returns
    /// immediately.
    ///
    /// # Errors
    ///
    /// Socket or database-directory failures.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let net_faults = NetFaults::of(config.service.injector.as_ref());
        let service = Service::new(config.service)
            .map_err(|e| io::Error::other(format!("profile db: {e}")))?;
        Daemon::spawn(
            service,
            Transport {
                listener,
                prefix: "server",
                workers: config.workers,
                queue_cap: config.queue_cap,
                net_faults,
            },
        )
    }

    /// Access to the in-process service (tests, direct callers).
    pub fn service(&self) -> &Service {
        self.handler()
    }
}

impl Handler for Service {
    fn handle(&self, meta: &RequestMeta, req: &Request) -> Response {
        self.handle_meta(meta, req)
    }

    fn obs(&self) -> &Registry {
        Service::obs(self)
    }

    /// A graceful exit checkpoints the profile database, leaving no redo
    /// work for the next startup.
    fn stopped(&self) {
        self.checkpoint();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    fn tmp_config(tag: &str) -> ServerConfig {
        let root =
            std::env::temp_dir().join(format!("stride-server-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        ServerConfig::loopback(ServiceConfig::new(root))
    }

    #[test]
    fn starts_serves_and_shuts_down() {
        let cfg = tmp_config("basic");
        let root = cfg.service.db_root.clone();
        let server = Server::start(cfg).unwrap();
        let addr = server.addr();
        let mut client = Client::connect(addr).unwrap();
        let resp = client.call(&Request::Stats).unwrap();
        assert!(matches!(resp, Response::Ok(_)), "{resp:?}");
        let resp = client.call(&Request::Shutdown).unwrap();
        assert!(matches!(resp, Response::Ok(_)), "{resp:?}");
        server.join();
        let _ = std::fs::remove_dir_all(root);
    }
}
