//! `sim-server` — a std-only network evaluation service for the
//! RAMP/DRM reproduction.
//!
//! Reliability estimation is the kind of model fleet tooling queries
//! continuously, not a one-shot simulation — so this crate exposes the
//! whole evaluation stack (timing → power → thermal → FIT, the paper's
//! §3–§6 pipeline) as a long-running TCP service. One server process
//! owns a [`drm::BatchEngine`] per installed scenario, which means the
//! sharded evaluation cache and the voltage-invariant timing cache are
//! amortized across every client instead of rebuilt per process.
//!
//! The crate splits into:
//!
//! - [`protocol`] — the strict line-oriented `ramp-serve/1` grammar
//!   (versioned greeting, unknown-key/arity rejection, 1-based error
//!   positions — read with the shared token cursor of `sim_common::textfmt`).
//! - [`queue`] — the bounded request queue behind admission control.
//! - [`server`] — accept loop, micro-batching drain workers, scenario
//!   registry, and drain-then-exit shutdown.
//! - [`client`] — the blocking client the CLI, tests, and load bench
//!   all share.
//!
//! ```no_run
//! use scenario::Scenario;
//! use sim_server::{Client, Server, ServerConfig};
//!
//! let server = Server::start(
//!     Scenario::paper_default(),
//!     ServerConfig::default(),
//!     "127.0.0.1:0",
//! )?;
//! let mut client = Client::connect(server.local_addr())?;
//! let reply = client.request("eval gzip freq=4000000000 vdd=1.0")?;
//! println!("bips = {}", reply.f64("bips")?);
//! client.request("shutdown")?;
//! server.join();
//! # Ok::<(), sim_common::SimError>(())
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod queue;
pub mod server;

pub use client::Client;
pub use protocol::{
    parse_request, ProtoError, Reply, Request, Status, PROTOCOL_VERSION, WATCH_FRAME_KIND,
};
pub use queue::{BoundedQueue, PushError};
pub use server::{EngineSlot, Server, ServerConfig, ServerState, ServerStats, Telemetry};
