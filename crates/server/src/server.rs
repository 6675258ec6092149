//! The evaluation server: accept loop, bounded request queue, drain
//! workers, and shutdown orchestration.
//!
//! One long-lived [`BatchEngine`] per installed scenario means the
//! sharded `Arc<Evaluation>` cache and the voltage-invariant
//! `TimingCache` are shared across *all* connections — the second client
//! asking for a warm operating point pays one hash lookup, and a DVS
//! grid requested by eight clients runs its cycle-level timing once.
//!
//! ## Request flow
//!
//! Connection threads parse and *resolve* requests (application lookup,
//! DVS-range checks, reliability-model qualification) so protocol and
//! semantic errors are answered immediately without touching the queue.
//!
//! The rule for resolved work: a connection thread answers every request
//! that needs no cycle-level timing run itself, and only work that
//! simulates, or is heavy by nature, goes through the queue.
//!
//! - `eval` and `fit` are answered inline when their point's timing run
//!   is cached, `vdd=` variants included (they are finished from the
//!   cached run).
//! - `sweep` is answered inline when the base point and every candidate
//!   are timed and the scenario has no surrogate (a surrogate may
//!   calibrate, and calibration simulates).
//! - `fleet` and `sleep` always queue.
//!
//! Queued work is `try_push`ed onto a bounded queue — a full queue is
//! answered with `busy` (admission control sheds load; nothing blocks) —
//! and drain workers pop one request at a time and answer it at once.
//! So [`ServerConfig::queue_depth`] and [`ServerConfig::drain_workers`]
//! bound simulation work only: cache reads are never shed and never wait
//! behind a timing run.
//! Both paths answer through the same function, so a verb has one answer
//! whichever thread gives it, and a job that panics answers `err`
//! without taking its thread down.
//!
//! Concurrent cold requests still share work through the engine: the
//! timing cache is single-flight, so requests that need the same
//! cycle-level timing run while it is being simulated wait for it and
//! share it (a run in flight is not "timed", so those requests queue). A
//! `sweep` runs its candidates as one batch pass, and only batch passes
//! fill the evaluation cache: an `eval` or `fit` at a point no sweep
//! covered is finished from the cached timing run (tens of microseconds)
//! and not stored, so the distinct `vdd=` values a client sends grow no
//! cache.
//!
//! ## Shutdown
//!
//! A `shutdown` request, a [`ServerConfig::stop_file`] appearing on
//! disk, or [`Server::shutdown`] sets the stop flag. The accept loop
//! stops accepting and joins connection threads (they observe the flag
//! at request boundaries via their read-timeout poll); then the queue is
//! closed and the drain workers finish everything still queued before
//! exiting — in-flight work is drained, never dropped.

use std::borrow::Cow;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use drm::{
    ArchPoint, BatchEngine, DvsPoint, EvalParams, FleetConfig, Oracle, RunStore, Strategy,
    Surrogate, SweepSummary,
};
use ramp::{Mechanism, ReliabilityModel};
use scenario::{Qualification, Scenario};
use sim_common::{Hertz, Kelvin, SimError, Volts};
use workload::App;

use sim_obs::{FitBurnObjective, SloObjective, SloSet, SloStatus, Ticker, WindowRing};

use crate::protocol::{
    busy_line, parse_request, write_line, EvalRequest, FitRequest, FleetRequest, OpPoint,
    ProtoError, QualOverride, Request, ResponseLine, SweepRequest, GREETING, MAX_LINE_BYTES,
    WATCH_FRAME_KIND,
};
use crate::queue::{BoundedQueue, PushError};

/// Window-ring capacity in ticks: with the default 1 s telemetry tick
/// this holds about a minute of history; at the fastest tick tests use
/// (tens of ms) it still spans several seconds.
const TELEMETRY_RING_TICKS: usize = 64;

/// Server tuning knobs. [`ServerConfig::default`] is sized for the CLI's
/// `ramp serve` defaults; tests shrink the queue and timeouts.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Evaluation worker threads per engine (`0` = all cores).
    pub jobs: usize,
    /// Bounded queue capacity; a full queue sheds with `busy` (≥ 1).
    /// Only work that simulates queues: requests that need no timing
    /// run are answered on their connection thread and never shed.
    pub queue_depth: usize,
    /// Drain-worker threads answering queued requests.
    pub drain_workers: usize,
    /// Socket read timeout — also the poll interval at which idle
    /// connections observe shutdown.
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Connections idle longer than this are closed.
    pub idle_timeout: Duration,
    /// When this path appears on disk the server shuts down (for
    /// supervisors that cannot speak the protocol).
    pub stop_file: Option<PathBuf>,
    /// Overrides every scenario's own [`EvalParams`] (e.g. the CLI's
    /// `--quick`).
    pub eval: Option<EvalParams>,
    /// Append-only evaluation-store directory (`drm::store`) for the
    /// startup scenario's engine: its timing cache pre-warms from the
    /// records there whose run digest it shares, and appends its own.
    /// Uploaded scenarios never attach it.
    pub store_dir: Option<PathBuf>,
    /// Telemetry tick: how often the window ring snapshots the metric
    /// registry and the scenario's SLOs are re-evaluated. `None`
    /// disables live telemetry (no ring, no ticker thread, no `slo.*`
    /// gauges; `watch` frames then carry only the raw counters).
    pub telemetry_tick: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            jobs: 0,
            queue_depth: 64,
            drain_workers: 2,
            read_timeout: Duration::from_millis(200),
            write_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(300),
            stop_file: None,
            eval: None,
            store_dir: None,
            telemetry_tick: Some(Duration::from_secs(1)),
        }
    }
}

/// Live-telemetry state shared by the ticker thread, `watch` streams,
/// and `stats`: the window ring plus the scenario's SLO set and its most
/// recent evaluation.
pub struct Telemetry {
    ring: Arc<WindowRing>,
    slo: SloSet,
    latest: Mutex<Vec<SloStatus>>,
}

impl Telemetry {
    /// The window ring of periodic metric snapshots.
    #[must_use]
    pub fn ring(&self) -> &Arc<WindowRing> {
        &self.ring
    }

    /// The SLO statuses from the most recent tick (empty before the
    /// first tick or when the scenario declares no objectives).
    #[must_use]
    pub fn latest_slo(&self) -> Vec<SloStatus> {
        self.latest
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// Maps a scenario's optional `[slo]` section onto the observability
/// crate's objective set: each verb objective binds to that verb's
/// windowed latency histogram, and the FIT-burn objective tracks the
/// `fit.total` gauge against the scenario's qualified budget.
fn slo_set_for(scenario: &Scenario) -> SloSet {
    let Some(policy) = &scenario.slo else {
        return SloSet::default();
    };
    SloSet {
        objectives: policy
            .verbs
            .iter()
            .map(|v| SloObjective {
                name: v.verb.clone(),
                metric: format!("server.request.latency_ms.{}", v.verb),
                quantile: v.quantile,
                target_ms: v.target_ms,
            })
            .collect(),
        fit_burn: policy.max_fit_burn.map(|max_burn| FitBurnObjective {
            metric: "fit.total".to_owned(),
            budget_fit: scenario.qualification.target_fit,
            max_burn,
        }),
    }
}

/// A point-in-time snapshot of the server counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Request lines received (including inline-answered ones).
    pub requests: u64,
    /// Requests shed with `busy` by admission control.
    pub shed: u64,
    /// Malformed or failing requests answered with `err`.
    pub errors: u64,
    /// Drain passes: a drain worker answers one queued request per pass,
    /// so this equals `batched_requests` (the key stays for clients that
    /// read it). Requests answered inline on their connection thread are
    /// not counted here (see the `inline` key of the `stats` reply).
    pub batches: u64,
    /// Queued requests answered by drain passes; inline answers are not
    /// counted.
    pub batched_requests: u64,
}

impl ServerStats {
    /// Mean requests per drain pass: 1.0 whenever any request was
    /// drained, since each pass answers one.
    #[must_use]
    pub fn batch_occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }
}

/// One installed scenario and its long-lived evaluation engine.
pub struct EngineSlot {
    /// The scenario evaluations run against.
    pub scenario: Scenario,
    /// The raw text the scenario was installed from (idempotency check
    /// for repeated uploads).
    pub text: String,
    /// The engine owning this scenario's shared caches.
    pub engine: BatchEngine,
    /// The long-lived surrogate when the scenario enables the two-phase
    /// search: calibrated tables and the error pool persist across
    /// requests, so the first `sweep` per application pays calibration
    /// and later ones ride it.
    pub surrogate: Option<Arc<Surrogate>>,
}

impl EngineSlot {
    fn new(
        scenario: Scenario,
        text: String,
        eval: Option<EvalParams>,
        jobs: usize,
        store_dir: Option<&Path>,
    ) -> Result<EngineSlot, SimError> {
        scenario.validate()?;
        let params = eval.unwrap_or(scenario.eval);
        let mut engine = BatchEngine::with_workers(scenario.evaluator_with(params)?, jobs)
            .with_base_config(scenario.core.clone());
        if let Some(dir) = store_dir {
            // Each server appends to its own segment of its run shape's
            // directory — workers sharing a store root (even in one
            // process) must never interleave writes — while `open`
            // pre-warms from every segment of that shape.
            static STORE_SEQ: AtomicU64 = AtomicU64::new(0);
            let label = format!(
                "{}-{}-{}",
                scenario.name,
                std::process::id(),
                STORE_SEQ.fetch_add(1, Ordering::Relaxed)
            );
            engine = engine.with_store(RunStore::open(dir, &params, &label)?);
        }
        let surrogate = match &scenario.surrogate {
            Some(spec) if spec.enabled => Some(Arc::new(Surrogate::new(spec.params())?)),
            _ => None,
        };
        Ok(EngineSlot {
            scenario,
            text,
            engine,
            surrogate,
        })
    }

    /// The reliability model for a request's qualification overrides.
    fn model_for(&self, qual: &QualOverride) -> Result<ReliabilityModel, SimError> {
        let q = Qualification {
            t_qual: qual
                .tqual_k
                .as_ref()
                .map_or(self.scenario.qualification.t_qual, |t| Kelvin(t.value)),
            alpha: qual
                .alpha
                .as_ref()
                .map_or(self.scenario.qualification.alpha, |a| a.value),
            target_fit: qual
                .target_fit
                .as_ref()
                .map_or(self.scenario.qualification.target_fit, |f| f.value),
        };
        Scenario {
            qualification: q,
            ..self.scenario.clone()
        }
        .model()
    }
}

/// Resolved, queueable work. Everything fallible-by-configuration
/// happened on the connection thread; workers only evaluate.
enum Job {
    Eval {
        slot: Arc<EngineSlot>,
        app: App,
        arch: ArchPoint,
        dvs: DvsPoint,
    },
    Fit {
        slot: Arc<EngineSlot>,
        app: App,
        arch: ArchPoint,
        dvs: DvsPoint,
        model: ReliabilityModel,
    },
    Sweep {
        slot: Arc<EngineSlot>,
        app: App,
        strategy: Strategy,
        candidates: Vec<(ArchPoint, DvsPoint)>,
        base: (ArchPoint, DvsPoint),
        model: ReliabilityModel,
    },
    Fleet {
        slot: Arc<EngineSlot>,
        app: App,
        arch: ArchPoint,
        dvs: DvsPoint,
        model: ReliabilityModel,
        config: FleetConfig,
    },
    Sleep {
        ms: u64,
    },
    /// Panics when run; `inline` picks the path it takes.
    #[cfg(test)]
    Panic {
        inline: bool,
    },
}

impl Job {
    /// True when answering needs no cycle-level timing run, so the
    /// connection thread answers it instead of queueing it. The check
    /// counts no timing-cache hit or miss (the answer then counts the
    /// hit, as a queued one would).
    fn is_warm(&self) -> bool {
        match self {
            Job::Eval {
                slot,
                app,
                arch,
                dvs,
            }
            | Job::Fit {
                slot,
                app,
                arch,
                dvs,
                ..
            } => slot.engine.is_timed(*app, *arch, *dvs),
            Job::Sweep {
                slot,
                app,
                candidates,
                base,
                ..
            } => {
                slot.surrogate.is_none()
                    && std::iter::once(base)
                        .chain(candidates)
                        .all(|&(arch, dvs)| slot.engine.is_timed(*app, arch, dvs))
            }
            Job::Fleet { .. } | Job::Sleep { .. } => false,
            #[cfg(test)]
            Job::Panic { inline } => *inline,
        }
    }
}

/// One queued request: the work plus its reply channel.
struct QueuedRequest {
    job: Job,
    reply: mpsc::Sender<String>,
    enqueued: Instant,
}

/// Shared server state: scenario registry, request queue, counters.
pub struct ServerState {
    config: ServerConfig,
    /// Installed scenarios by registry name; the startup scenario is
    /// registered under its own name.
    registry: Mutex<HashMap<String, Arc<EngineSlot>>>,
    default_slot: Arc<EngineSlot>,
    queue: BoundedQueue<QueuedRequest>,
    telemetry: Option<Arc<Telemetry>>,
    started: Instant,
    stop: AtomicBool,
    connections: AtomicU64,
    requests: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    /// Requests answered on their connection thread. Kept out of
    /// [`ServerStats`] (whose fields callers list exhaustively); the
    /// `stats` reply carries it as `inline`.
    inline: AtomicU64,
}

impl ServerState {
    /// True once shutdown has begun.
    pub fn shutting_down(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    fn begin_shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Time since the server started.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// The live-telemetry state, when the config enabled it.
    #[must_use]
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
        }
    }

    /// Cumulative sweep statistics aggregated over every installed
    /// scenario's engine — the same shape `Oracle::summary` reports, so
    /// `ramp serve` prints the standard "timing N runs, M reused" line
    /// at exit and `ramp report` sees the familiar cache counters.
    pub fn sweep_summary(&self) -> SweepSummary {
        let registry = self.registry.lock().unwrap_or_else(PoisonError::into_inner);
        let mut summary = SweepSummary {
            workers: self.default_slot.engine.workers(),
            ..SweepSummary::default()
        };
        for slot in registry.values() {
            let cache = slot.engine.cache();
            let timing = slot.engine.timing_cache();
            summary.evaluations += cache.len() as u64;
            summary.cache_hits += cache.hits();
            summary.timing_runs += timing.misses();
            summary.timing_reuses += timing.hits();
            summary.wall += cache.wall();
            summary.busy += cache.busy();
        }
        summary
    }

    fn slot(&self, name: Option<&str>) -> Option<Arc<EngineSlot>> {
        match name {
            None => Some(Arc::clone(&self.default_slot)),
            Some(name) => self
                .registry
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get(name)
                .cloned(),
        }
    }

    /// Installs an uploaded scenario under `name`. Re-uploading the
    /// same text is idempotent; a different scenario under a taken name
    /// is refused, and so is any scenario naming a path on this host
    /// (a network client must not choose where the server writes).
    fn install(&self, name: &str, text: &str) -> Result<Arc<EngineSlot>, SimError> {
        let scenario = Scenario::from_text(text)?;
        if scenario
            .slice
            .as_ref()
            .is_some_and(|s| s.checkpoint_dir.is_some())
        {
            return Err(SimError::invalid_config(
                "uploaded scenarios may not set slice.checkpoint_dir",
            ));
        }
        let mut registry = self.registry.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(existing) = registry.get(name) {
            if existing.text == text {
                return Ok(Arc::clone(existing));
            }
            return Err(SimError::invalid_config(format!(
                "scenario `{name}` is already installed with different contents"
            )));
        }
        let slot = Arc::new(EngineSlot::new(
            scenario,
            text.to_owned(),
            self.config.eval,
            self.config.jobs,
            None,
        )?);
        registry.insert(name.to_owned(), Arc::clone(&slot));
        Ok(slot)
    }
}

/// A running evaluation server. Dropping the handle does *not* stop the
/// server — call [`Server::shutdown`] and [`Server::join`], or let a
/// client `shutdown` request / the stop-file end it.
pub struct Server {
    state: Arc<ServerState>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    ticker: Option<Ticker>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop and drain workers over `scenario`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the scenario fails
    /// validation or the address cannot be bound.
    pub fn start(scenario: Scenario, config: ServerConfig, addr: &str) -> Result<Server, SimError> {
        let slot = Arc::new(EngineSlot::new(
            scenario.clone(),
            scenario.to_text(),
            config.eval,
            config.jobs,
            config.store_dir.as_deref(),
        )?);
        let mut registry = HashMap::new();
        registry.insert(scenario.name.clone(), Arc::clone(&slot));

        let listener = TcpListener::bind(addr)
            .map_err(|e| SimError::invalid_config(format!("cannot bind {addr}: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| SimError::invalid_config(format!("cannot read local addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| SimError::invalid_config(format!("cannot set nonblocking: {e}")))?;

        let telemetry = config.telemetry_tick.map(|_| {
            Arc::new(Telemetry {
                ring: Arc::new(WindowRing::new(TELEMETRY_RING_TICKS)),
                slo: slo_set_for(&scenario),
                latest: Mutex::new(Vec::new()),
            })
        });

        let drain_workers = config.drain_workers.max(1);
        let state = Arc::new(ServerState {
            queue: BoundedQueue::new(config.queue_depth),
            config,
            registry: Mutex::new(registry),
            default_slot: slot,
            telemetry,
            started: Instant::now(),
            stop: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            inline: AtomicU64::new(0),
        });

        let mut workers = Vec::with_capacity(drain_workers);
        for i in 0..drain_workers {
            let state = Arc::clone(&state);
            let handle = std::thread::Builder::new()
                .name(format!("sim-server-worker-{i}"))
                .spawn(move || worker_loop(&state))
                .map_err(|e| SimError::invalid_config(format!("cannot spawn worker: {e}")))?;
            workers.push(handle);
        }

        let accept = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("sim-server-accept".to_owned())
                .spawn(move || accept_loop(&state, listener))
                .map_err(|e| SimError::invalid_config(format!("cannot spawn accept loop: {e}")))?
        };

        // The ticker periodically snapshots the metric registry into the
        // ring and re-evaluates the scenario's SLOs, publishing `slo.*`
        // gauges — the windowed view `watch`, `stats`, and `ramp top`
        // read. The shard-local metric hot path is untouched: sampling
        // happens entirely on this background thread.
        let ticker = match (&state.telemetry, state.config.telemetry_tick) {
            (Some(tel), Some(tick)) => {
                let tel = Arc::clone(tel);
                Some(Ticker::start(Arc::clone(&tel.ring), tick, move |ring| {
                    let statuses = tel.slo.evaluate(ring);
                    *tel.latest.lock().unwrap_or_else(PoisonError::into_inner) = statuses;
                }))
            }
            _ => None,
        };

        sim_obs::log_debug!("server", "listening on {local}");
        Ok(Server {
            state,
            addr: local,
            accept: Some(accept),
            workers,
            ticker,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared server state (stats and sweep summary).
    #[must_use]
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Current counter snapshot.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        self.state.stats()
    }

    /// Cumulative cache/timing statistics across all engines.
    #[must_use]
    pub fn sweep_summary(&self) -> SweepSummary {
        self.state.sweep_summary()
    }

    /// Begins shutdown (idempotent): stop accepting, drain, exit.
    pub fn shutdown(&self) {
        self.state.begin_shutdown();
    }

    /// Waits for the server to finish (after a `shutdown` request, the
    /// stop-file, or [`Server::shutdown`]) and returns the final stats.
    ///
    /// # Panics
    ///
    /// Panics if a server thread panicked.
    pub fn join(mut self) -> ServerStats {
        if let Some(accept) = self.accept.take() {
            accept.join().expect("accept thread panicked");
        }
        for worker in self.workers.drain(..) {
            worker.join().expect("drain worker panicked");
        }
        if let Some(ticker) = self.ticker.take() {
            ticker.stop();
        }
        self.state.stats()
    }
}

/// Accepts connections until shutdown, then joins connection threads and
/// closes the queue (the ordering that makes `join` drain cleanly).
fn accept_loop(state: &Arc<ServerState>, listener: TcpListener) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !state.shutting_down() {
        if let Some(stop_file) = &state.config.stop_file {
            if stop_file.exists() {
                sim_obs::log_debug!("server", "stop file present, shutting down");
                state.begin_shutdown();
                break;
            }
        }
        match listener.accept() {
            Ok((stream, _)) => {
                state.connections.fetch_add(1, Ordering::Relaxed);
                sim_obs::counter!("server.connections", 1);
                let state = Arc::clone(state);
                let handle = std::thread::Builder::new()
                    .name("sim-server-conn".to_owned())
                    .spawn(move || handle_connection(&state, stream))
                    .expect("cannot spawn connection thread");
                connections.push(handle);
                // Reap finished connections so the handle list stays small.
                connections.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
    drop(listener);
    for handle in connections {
        let _ = handle.join();
    }
    state.queue.close();
}

/// What one attempt to read a request line produced.
enum ReadLine<'a> {
    /// A complete line (delimiter stripped), borrowed from the
    /// connection's line buffer.
    Line(Cow<'a, str>),
    /// The peer closed the connection (or shutdown/idle ended it).
    Closed,
    /// The line exceeded [`MAX_LINE_BYTES`]; the stream cannot be
    /// resynchronized.
    Oversize,
}

/// One client connection. Request lines are read off `reader`,
/// preserving partial data across read-timeout polls (the polls are what
/// let idle connections observe shutdown); reply lines go out on
/// `writer`. `line` is the connection's one line buffer: each request
/// line is read into it and each reply line is framed in it.
struct Connection<'a> {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: Vec<u8>,
    state: &'a Arc<ServerState>,
    eof: bool,
}

impl Connection<'_> {
    fn next_line(&mut self) -> ReadLine<'_> {
        if self.eof {
            return ReadLine::Closed;
        }
        self.line.clear();
        let idle_started = Instant::now();
        loop {
            match self.reader.fill_buf() {
                Ok([]) => {
                    // EOF. A trailing unterminated line still counts.
                    self.eof = true;
                    return if self.line.is_empty() {
                        ReadLine::Closed
                    } else {
                        ReadLine::Line(String::from_utf8_lossy(&self.line))
                    };
                }
                Ok(available) => {
                    if let Some(i) = available.iter().position(|&b| b == b'\n') {
                        self.line.extend_from_slice(&available[..i]);
                        self.reader.consume(i + 1);
                        if self.line.last() == Some(&b'\r') {
                            self.line.pop();
                        }
                        return ReadLine::Line(String::from_utf8_lossy(&self.line));
                    }
                    self.line.extend_from_slice(available);
                    let n = available.len();
                    self.reader.consume(n);
                    if self.line.len() > MAX_LINE_BYTES {
                        return ReadLine::Oversize;
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    if self.state.shutting_down()
                        || idle_started.elapsed() >= self.state.config.idle_timeout
                    {
                        return ReadLine::Closed;
                    }
                }
                Err(_) => return ReadLine::Closed,
            }
        }
    }

    /// Sends one reply line (see [`write_line`]).
    fn send(&mut self, line: &str) -> std::io::Result<()> {
        write_line(&mut self.writer, &mut self.line, line)
    }
}

/// Serves one connection: greeting, then a request/response loop.
fn handle_connection(state: &Arc<ServerState>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(state.config.read_timeout));
    let _ = stream.set_write_timeout(Some(state.config.write_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut conn = Connection {
        reader: BufReader::new(read_half),
        writer: stream,
        line: Vec::new(),
        state,
        eof: false,
    };
    if conn.send(GREETING).is_err() {
        return;
    }
    loop {
        let request = match conn.next_line() {
            ReadLine::Line(line) => parse_request(&line),
            ReadLine::Closed => return,
            ReadLine::Oversize => {
                state.errors.fetch_add(1, Ordering::Relaxed);
                let message =
                    ProtoError::new(1, format!("request line exceeds {MAX_LINE_BYTES} bytes"));
                let _ = conn.send(&message.to_line());
                return;
            }
        };
        state.requests.fetch_add(1, Ordering::Relaxed);
        sim_obs::counter!("server.requests", 1);
        let shutdown_after = matches!(request, Ok(Request::Shutdown));
        if let Ok(Request::Watch {
            interval_ms,
            frames,
        }) = request
        {
            // Streaming verb: frames go straight to the writer. A write
            // failure is the client unsubscribing (disconnect), not an
            // error; either way this connection is done with the stream.
            sim_obs::counter!("server.watchers", 1);
            if run_watch(&mut conn, interval_ms, frames).is_err() || state.shutting_down() {
                return;
            }
            continue;
        }
        let response = respond(&mut conn, request);
        if !response.starts_with("ok") {
            state.errors.fetch_add(1, Ordering::Relaxed);
            if response.starts_with("err") {
                sim_obs::counter!("server.protocol_errors", 1);
            }
        }
        if conn.send(&response).is_err() {
            return;
        }
        if shutdown_after {
            state.begin_shutdown();
            return;
        }
        if state.shutting_down() {
            return;
        }
    }
}

/// Produces the response line for one parsed request line. Control verbs
/// are answered here; evaluation work is resolved and then [`serve`]d.
fn respond(conn: &mut Connection<'_>, request: Result<Request, ProtoError>) -> String {
    let state = conn.state;
    let request = match request {
        Ok(request) => request,
        Err(e) => return e.to_line(),
    };
    match request {
        Request::Ping => "ok pong".to_owned(),
        Request::Shutdown => "ok shutdown".to_owned(),
        Request::Stats => stats_line(state),
        Request::Scenario { name, lines } => {
            let mut payload = String::new();
            for _ in 0..lines {
                match conn.next_line() {
                    ReadLine::Line(line) => {
                        payload.push_str(&line);
                        payload.push('\n');
                    }
                    ReadLine::Closed | ReadLine::Oversize => {
                        return ProtoError::new(3, "connection ended inside scenario payload")
                            .to_line();
                    }
                }
            }
            match state.install(&name.value, &payload) {
                Ok(slot) => {
                    let mut ok = ResponseLine::ok("scenario");
                    ok.str("name", &name.value)
                        .u64("workloads", slot.scenario.workloads.len() as u64)
                        .u64("arch_points", slot.scenario.arch_points.len() as u64);
                    ok.finish()
                }
                Err(e) => ProtoError::new(name.pos, one_line(&e)).to_line(),
            }
        }
        Request::Watch { interval_ms, .. } => {
            // `handle_connection` intercepts watch for streaming; a
            // direct caller (tests) gets one immediate frame.
            let stats = state.stats();
            watch_frame(state, 1, interval_ms, &stats, &stats)
        }
        Request::Sleep { ms } => serve(state, Job::Sleep { ms }),
        Request::Eval(eval) => match resolve_eval(state, &eval) {
            Ok(job) => serve(state, job),
            Err(e) => e.to_line(),
        },
        Request::Fit(fit) => match resolve_fit(state, &fit) {
            Ok(job) => serve(state, job),
            Err(e) => e.to_line(),
        },
        Request::Sweep(sweep) => match resolve_sweep(state, &sweep) {
            Ok(job) => serve(state, job),
            Err(e) => e.to_line(),
        },
        Request::Fleet(fleet) => match resolve_fleet(state, &fleet) {
            Ok(job) => serve(state, job),
            Err(e) => e.to_line(),
        },
    }
}

/// Answers resolved work: on the calling connection thread when it needs
/// no timing run ([`Job::is_warm`]), through the bounded queue (and so
/// subject to `busy`) otherwise.
fn serve(state: &Arc<ServerState>, job: Job) -> String {
    if job.is_warm() {
        state.inline.fetch_add(1, Ordering::Relaxed);
        sim_obs::counter!("server.inline", 1);
        return answer(&job, Instant::now());
    }
    enqueue(state, job).unwrap_or_else(|busy| busy)
}

/// Flattens an error to one response-safe line.
fn one_line(e: &SimError) -> String {
    e.to_string().replace('\n', "; ")
}

/// Streams `watch` frames every `interval_ms` until `frames` have been
/// sent (0 = unbounded), the client disconnects (write failure), or the
/// server shuts down. Each frame carries the cumulative counters *and*
/// their deltas since the previous frame, so a client can integrate
/// rates without keeping state; the closing `watch-end` line repeats the
/// final totals.
fn run_watch(conn: &mut Connection<'_>, interval_ms: u64, frames: u64) -> std::io::Result<()> {
    let state = conn.state;
    let interval = Duration::from_millis(interval_ms);
    let mut prev = state.stats();
    let mut seq = 0u64;
    loop {
        // Sleep in short slices so shutdown interrupts long intervals.
        let deadline = Instant::now() + interval;
        while !state.shutting_down() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            std::thread::sleep((deadline - now).min(Duration::from_millis(25)));
        }
        let now = state.stats();
        if state.shutting_down() {
            return conn.send(&watch_end(seq, &now));
        }
        seq += 1;
        conn.send(&watch_frame(state, seq, interval_ms, &prev, &now))?;
        prev = now;
        if frames != 0 && seq >= frames {
            return conn.send(&watch_end(seq, &now));
        }
    }
}

fn watch_end(frames: u64, stats: &ServerStats) -> String {
    let mut ok = ResponseLine::ok("watch-end");
    ok.u64("frames", frames).u64("requests", stats.requests);
    ok.finish()
}

/// One telemetry frame: counters (cumulative + delta), queue state, and
/// — when the telemetry ring holds a window — the windowed latency
/// quantiles and the latest SLO tally.
fn watch_frame(
    state: &Arc<ServerState>,
    seq: u64,
    interval_ms: u64,
    prev: &ServerStats,
    now: &ServerStats,
) -> String {
    let mut ok = ResponseLine::ok(WATCH_FRAME_KIND);
    ok.u64("seq", seq)
        .u64("interval_ms", interval_ms)
        .f64("uptime_s", state.uptime().as_secs_f64())
        .u64("queue_len", state.queue.len() as u64);
    for (key, cum, earlier) in [
        ("requests", now.requests, prev.requests),
        ("shed", now.shed, prev.shed),
        ("errors", now.errors, prev.errors),
        ("batches", now.batches, prev.batches),
        (
            "batched_requests",
            now.batched_requests,
            prev.batched_requests,
        ),
    ] {
        ok.u64(key, cum);
        ok.u64(&format!("d_{key}"), cum.saturating_sub(earlier));
    }
    ok.f64("batch_occupancy", now.batch_occupancy());
    if let Some(tel) = &state.telemetry {
        if let Some(window) = tel.ring.window() {
            for (label, q) in [("p50", 0.5), ("p99", 0.99), ("p999", 0.999)] {
                if let Some(ms) = window.quantile("server.request.latency_ms", q) {
                    ok.f64(&format!("latency_{label}_ms"), ms);
                }
            }
        }
        let statuses = tel.latest_slo();
        if !statuses.is_empty() {
            ok.u64("slo_objectives", statuses.len() as u64).u64(
                "slo_violated",
                statuses.iter().filter(|s| !s.ok).count() as u64,
            );
        }
    }
    ok.finish()
}

fn stats_line(state: &Arc<ServerState>) -> String {
    let stats = state.stats();
    let summary = state.sweep_summary();
    let mut ok = ResponseLine::ok("stats");
    ok.f64("uptime_s", state.uptime().as_secs_f64())
        .u64("connections", stats.connections)
        .u64("requests", stats.requests)
        .u64("shed", stats.shed)
        .u64("errors", stats.errors)
        .u64("batches", stats.batches)
        .u64("batched_requests", stats.batched_requests)
        .u64("inline", state.inline.load(Ordering::Relaxed))
        .u64("queue_len", state.queue.len() as u64)
        .u64("evaluations", summary.evaluations)
        .u64("cache_hits", summary.cache_hits)
        .u64("timing_runs", summary.timing_runs)
        .u64("timing_reuses", summary.timing_reuses)
        .u64(
            "store_records",
            state.default_slot.engine.store_records() as u64,
        );
    ok.finish()
}

/// Queues resolved work and waits for the worker's reply. `Err` carries
/// the `busy` (or internal-error) response when the work never queued.
fn enqueue(state: &Arc<ServerState>, job: Job) -> Result<String, String> {
    let (tx, rx) = mpsc::channel();
    let queued = QueuedRequest {
        job,
        reply: tx,
        enqueued: Instant::now(),
    };
    match state.queue.try_push(queued) {
        Ok(()) => {
            sim_obs::gauge!("server.queue.depth", state.queue.len() as f64);
        }
        Err((PushError::Full, _)) => {
            state.shed.fetch_add(1, Ordering::Relaxed);
            sim_obs::counter!("server.shed", 1);
            return Err(busy_line(state.queue.capacity()));
        }
        Err((PushError::Closed, _)) => {
            return Err(ProtoError::new(1, "server is shutting down").to_line());
        }
    }
    rx.recv()
        .map_err(|_| ProtoError::new(1, "internal error: worker dropped the request").to_line())
}

/// Resolution helpers — connection-thread work that turns parsed
/// requests into queueable jobs, reporting semantic errors at the
/// offending token.
fn resolve_slot(
    state: &Arc<ServerState>,
    scenario: Option<&crate::protocol::Spanned<String>>,
) -> Result<Arc<EngineSlot>, ProtoError> {
    match scenario {
        None => Ok(state.slot(None).expect("default slot always present")),
        Some(name) => state.slot(Some(&name.value)).ok_or_else(|| {
            ProtoError::new(
                name.pos,
                format!("unknown scenario `{}` (upload it first)", name.value),
            )
        }),
    }
}

fn resolve_app(
    slot: &EngineSlot,
    app: &crate::protocol::Spanned<String>,
) -> Result<App, ProtoError> {
    App::ALL
        .into_iter()
        .find(|a| a.name().eq_ignore_ascii_case(&app.value))
        .ok_or_else(|| {
            ProtoError::new(
                app.pos,
                format!(
                    "unknown application `{}` (known: {})",
                    app.value,
                    App::ALL
                        .iter()
                        .map(|a| a.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            )
        })
        .and_then(|a| {
            // The application must be in the scenario's suite, so server
            // results always correspond to a reachable scenario run.
            if slot
                .scenario
                .profiles()
                .iter()
                .any(|p| p.name.eq_ignore_ascii_case(a.name()))
            {
                Ok(a)
            } else {
                Err(ProtoError::new(
                    app.pos,
                    format!("application `{}` is not in the scenario's suite", app.value),
                ))
            }
        })
}

/// Resolves the operating point: scenario defaults overridden per key.
/// `freq` without `vdd` follows the scenario's V(f) line; `freq` with
/// `vdd` is taken verbatim (off-grid points are allowed — the engine
/// validates applicability).
fn resolve_point(slot: &EngineSlot, point: &OpPoint) -> Result<(ArchPoint, DvsPoint), ProtoError> {
    let mut arch = slot.scenario.base_arch();
    if let Some(w) = &point.window {
        arch.window = w.value;
    }
    if let Some(a) = &point.alus {
        arch.alus = a.value;
    }
    if let Some(f) = &point.fpus {
        arch.fpus = f.value;
    }
    let base = slot.scenario.base_dvs();
    let dvs = match (&point.freq_hz, &point.vdd) {
        (None, None) => base,
        (Some(f), None) => slot
            .scenario
            .dvs
            .at_ghz(f.value / 1e9)
            .map_err(|e| ProtoError::new(f.pos, one_line(&e)))?,
        // The Hz value is taken verbatim — a `/1e9` → `*1e9` GHz round
        // trip can drift a ulp, and a client naming an exact point must
        // get exactly that point.
        (Some(f), Some(v)) => DvsPoint {
            frequency: Hertz(f.value),
            vdd: Volts(v.value),
        },
        (None, Some(v)) => DvsPoint {
            vdd: Volts(v.value),
            ..base
        },
    };
    // Validate applicability now so the error lands on this request, at
    // a meaningful position, instead of surfacing from a batch later.
    let pos = point
        .window
        .as_ref()
        .map(|w| w.pos)
        .or_else(|| point.alus.as_ref().map(|a| a.pos))
        .or_else(|| point.fpus.as_ref().map(|f| f.pos))
        .unwrap_or(1);
    arch.apply(slot.engine.base_config(), dvs)
        .map_err(|e| ProtoError::new(pos, one_line(&e)))?;
    Ok((arch, dvs))
}

fn resolve_eval(state: &Arc<ServerState>, eval: &EvalRequest) -> Result<Job, ProtoError> {
    let slot = resolve_slot(state, eval.scenario.as_ref())?;
    let app = resolve_app(&slot, &eval.app)?;
    let (arch, dvs) = resolve_point(&slot, &eval.point)?;
    Ok(Job::Eval {
        slot,
        app,
        arch,
        dvs,
    })
}

fn resolve_fit(state: &Arc<ServerState>, fit: &FitRequest) -> Result<Job, ProtoError> {
    let slot = resolve_slot(state, fit.scenario.as_ref())?;
    let app = resolve_app(&slot, &fit.app)?;
    let (arch, dvs) = resolve_point(&slot, &fit.point)?;
    let model = slot
        .model_for(&fit.qual)
        .map_err(|e| ProtoError::new(qual_pos(&fit.qual), one_line(&e)))?;
    Ok(Job::Fit {
        slot,
        app,
        arch,
        dvs,
        model,
    })
}

fn resolve_sweep(state: &Arc<ServerState>, sweep: &SweepRequest) -> Result<Job, ProtoError> {
    let slot = resolve_slot(state, sweep.scenario.as_ref())?;
    let app = resolve_app(&slot, &sweep.app)?;
    let strategy = match &sweep.strategy {
        None => Strategy::ArchDvs,
        Some(s) => match s.value.to_ascii_lowercase().as_str() {
            "arch" => Strategy::Arch,
            "dvs" => Strategy::Dvs,
            "archdvs" => Strategy::ArchDvs,
            other => {
                return Err(ProtoError::new(
                    s.pos,
                    format!("unknown strategy `{other}` (arch, dvs, archdvs)"),
                ))
            }
        },
    };
    let step = sweep.step_ghz.as_ref().map(|s| s.value);
    let candidates = slot
        .scenario
        .candidates(strategy, step)
        .map_err(|e| ProtoError::new(sweep.step_ghz.as_ref().map_or(1, |s| s.pos), one_line(&e)))?;
    let model = slot
        .model_for(&sweep.qual)
        .map_err(|e| ProtoError::new(qual_pos(&sweep.qual), one_line(&e)))?;
    let base = (slot.scenario.base_arch(), slot.scenario.base_dvs());
    Ok(Job::Sweep {
        slot,
        app,
        strategy,
        candidates,
        base,
        model,
    })
}

fn resolve_fleet(state: &Arc<ServerState>, fleet: &FleetRequest) -> Result<Job, ProtoError> {
    let slot = resolve_slot(state, fleet.scenario.as_ref())?;
    let app = resolve_app(&slot, &fleet.app)?;
    let (arch, dvs) = resolve_point(&slot, &fleet.point)?;
    let model = slot
        .model_for(&fleet.qual)
        .map_err(|e| ProtoError::new(qual_pos(&fleet.qual), one_line(&e)))?;
    let config = FleetConfig {
        dies: fleet
            .dies
            .as_ref()
            .map_or(slot.scenario.fleet.dies, |d| d.value),
        seed: fleet
            .seed
            .as_ref()
            .map_or(slot.scenario.fleet.seed, |s| s.value),
        shape: fleet
            .shape
            .as_ref()
            .map_or(slot.scenario.fleet.shape, |s| s.value),
        variation: slot.scenario.fleet.variation,
    };
    // Validate overrides now so the error lands on the offending token.
    if let Err(e) = config.validate() {
        let pos = fleet
            .dies
            .as_ref()
            .map(|d| d.pos)
            .or_else(|| fleet.shape.as_ref().map(|s| s.pos))
            .unwrap_or(1);
        return Err(ProtoError::new(pos, one_line(&e)));
    }
    Ok(Job::Fleet {
        slot,
        app,
        arch,
        dvs,
        model,
        config,
    })
}

fn qual_pos(qual: &QualOverride) -> usize {
    qual.tqual_k
        .as_ref()
        .map(|t| t.pos)
        .or_else(|| qual.alpha.as_ref().map(|a| a.pos))
        .or_else(|| qual.target_fit.as_ref().map(|f| f.pos))
        .unwrap_or(1)
}

/// Drain-worker loop: pop one request, answer it, repeat until the
/// queue is closed and empty.
fn worker_loop(state: &Arc<ServerState>) {
    loop {
        let Some(request) = state.queue.pop_timeout(Duration::from_millis(50)) else {
            if state.queue.is_closed() {
                return;
            }
            continue;
        };
        sim_obs::gauge!("server.queue.depth", state.queue.len() as f64);
        process(state, request);
    }
}

/// Answers one queued request. The `server.batch` span and the
/// `batches`/`batched_requests` counters count it as a pass of one.
fn process(state: &Arc<ServerState>, request: QueuedRequest) {
    let _span = sim_obs::span!("server.batch");
    state.batches.fetch_add(1, Ordering::Relaxed);
    state.batched_requests.fetch_add(1, Ordering::Relaxed);
    sim_obs::hist!("server.batch.size", 1.0);
    let response = answer(&request.job, request.enqueued);
    // A vanished client is not an error; its timing run stays cached.
    let _ = request.reply.send(response);
}

/// Answers one job on the calling thread — the one function both the
/// inline and the queued path answer through — and records its latency
/// since `since`. A job that panics answers one `err` line (counted
/// under `errors` like any other) and the thread keeps serving; the
/// engine's caches stay consistent, since the timing cache clears a run
/// that panicked in flight and every lock recovers from poisoning.
fn answer(job: &Job, since: Instant) -> String {
    let response = panic::catch_unwind(AssertUnwindSafe(|| run_job(job)))
        .unwrap_or_else(|_| ProtoError::new(1, "internal error: the request panicked").to_line());
    let latency_ms = since.elapsed().as_secs_f64() * 1e3;
    sim_obs::hist!("server.request.latency_ms", latency_ms);
    sim_obs::hist!(verb_latency_metric(job), latency_ms);
    response
}

/// The per-verb latency histogram recorded alongside the global one —
/// the metric a scenario's `slo.verb` objectives bind to.
fn verb_latency_metric(job: &Job) -> &'static str {
    match job {
        Job::Eval { .. } => "server.request.latency_ms.eval",
        Job::Fit { .. } => "server.request.latency_ms.fit",
        Job::Sweep { .. } => "server.request.latency_ms.sweep",
        Job::Fleet { .. } => "server.request.latency_ms.fleet",
        Job::Sleep { .. } => "server.request.latency_ms.sleep",
        #[cfg(test)]
        Job::Panic { .. } => "server.request.latency_ms.panic",
    }
}

/// Executes one resolved job, producing its response line.
fn run_job(job: &Job) -> String {
    match job {
        Job::Sleep { ms } => {
            std::thread::sleep(Duration::from_millis(*ms));
            let mut ok = ResponseLine::ok("slept");
            ok.u64("ms", *ms);
            ok.finish()
        }
        Job::Eval {
            slot,
            app,
            arch,
            dvs,
        } => match slot.engine.evaluation(*app, *arch, *dvs) {
            Ok(ev) => {
                let mut ok = ResponseLine::ok("eval");
                ok.str("app", app.name())
                    .u64("window", u64::from(arch.window))
                    .u64("alus", u64::from(arch.alus))
                    .u64("fpus", u64::from(arch.fpus))
                    .f64("freq_ghz", dvs.frequency.to_ghz())
                    .f64("vdd", dvs.vdd.0)
                    .f64("ipc", ev.ipc)
                    .f64("bips", ev.bips)
                    .f64("power_w", ev.average_power().0)
                    .f64("tmax_k", ev.max_temperature().0)
                    .f64("sink_k", ev.sink_temperature.0)
                    .u64("intervals", ev.intervals.len() as u64);
                ok.finish()
            }
            Err(e) => ProtoError::new(1, one_line(&e)).to_line(),
        },
        Job::Fit {
            slot,
            app,
            arch,
            dvs,
            model,
        } => match slot.engine.evaluation(*app, *arch, *dvs) {
            Ok(ev) => {
                let fit = ev.application_fit(model);
                let total = fit.total();
                let mut ok = ResponseLine::ok("fit");
                ok.str("app", app.name())
                    .f64("freq_ghz", dvs.frequency.to_ghz())
                    .f64("vdd", dvs.vdd.0);
                for mechanism in Mechanism::ALL {
                    ok.f64(mechanism.name(), fit.mechanism_total(mechanism).value());
                }
                ok.f64("total", total.value())
                    .f64("target", model.target_fit().value())
                    .f64("mttf_h", total.to_mttf().0)
                    .bool("feasible", fit.meets(model.target_fit()));
                ok.finish()
            }
            Err(e) => ProtoError::new(1, one_line(&e)).to_line(),
        },
        Job::Sweep {
            slot,
            app,
            strategy,
            candidates,
            base,
            model,
        } => {
            let mut oracle = Oracle::from_engine(slot.engine.clone());
            if let Some(surrogate) = &slot.surrogate {
                oracle = oracle.with_shared_surrogate(Arc::clone(surrogate));
            }
            match oracle.best_among(*app, candidates, *base, model) {
                Ok(choice) => {
                    let mut ok = ResponseLine::ok("sweep");
                    ok.str("app", app.name())
                        .str("strategy", strategy.name())
                        .u64("candidates", candidates.len() as u64)
                        .u64("window", u64::from(choice.arch.window))
                        .u64("alus", u64::from(choice.arch.alus))
                        .u64("fpus", u64::from(choice.arch.fpus))
                        .f64("freq_ghz", choice.dvs.frequency.to_ghz())
                        .f64("vdd", choice.dvs.vdd.0)
                        .f64("relative_performance", choice.relative_performance)
                        .f64("fit", choice.fit.value())
                        .bool("feasible", choice.feasible);
                    ok.finish()
                }
                Err(e) => ProtoError::new(1, one_line(&e)).to_line(),
            }
        }
        Job::Fleet {
            slot,
            app,
            arch,
            dvs,
            model,
            config,
        } => match drm::run_fleet(&slot.engine, *app, *arch, *dvs, model, config) {
            Ok(summary) => {
                let mut ok = ResponseLine::ok("fleet");
                ok.str("app", app.name())
                    .u64("dies", summary.dies)
                    .u64("violations", summary.violations)
                    .f64("violation_fraction", summary.violation_fraction())
                    .f64("target", summary.target_fit)
                    .f64("fit_mean", summary.fit.mean)
                    .f64("fit_p50", summary.fit.p50)
                    .f64("fit_p95", summary.fit.p95)
                    .f64("life_mean_y", summary.lifetime_years.mean)
                    .f64("life_p1_y", summary.lifetime_years.p1)
                    .f64("life_p5_y", summary.lifetime_years.p5)
                    .f64("life_p50_y", summary.lifetime_years.p50)
                    .f64("life_p95_y", summary.lifetime_years.p95)
                    .f64("rank_error", summary.rank_error);
                ok.finish()
            }
            Err(e) => ProtoError::new(1, one_line(&e)).to_line(),
        },
        #[cfg(test)]
        Job::Panic { .. } => panic!("test job panics"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;

    /// Run lengths small enough that a warm-up sweep takes milliseconds.
    const TINY: EvalParams = EvalParams {
        warmup_instructions: 5_000,
        measure_instructions: 20_000,
        interval_instructions: 5_000,
        seed: 3,
        leakage_iterations: 2,
        prewarm_bytes: 1 << 20,
    };

    fn start(queue_depth: usize, drain_workers: usize) -> Server {
        let config = ServerConfig {
            queue_depth,
            drain_workers,
            eval: Some(TINY),
            ..ServerConfig::default()
        };
        Server::start(Scenario::paper_default(), config, "127.0.0.1:0").expect("server start")
    }

    fn connect(server: &Server) -> Client {
        Client::connect_timeout(server.local_addr(), Duration::from_secs(10)).expect("connect")
    }

    /// A job that panics answers one `err` line on the inline path and
    /// on the queued one, and the single drain worker survives its panic
    /// to answer the next queued request.
    #[test]
    fn a_panicking_job_answers_err_and_kills_no_thread() {
        let server = start(1, 1);
        for inline in [true, false] {
            let reply = serve(server.state(), Job::Panic { inline });
            assert!(reply.starts_with("err "), "{reply}");
        }
        let mut client = connect(&server);
        client.ping().expect("ping after the panics");
        let slept = client.request("sleep ms=1").expect("queued sleep");
        assert!(slept.is_ok(), "{}", slept.raw);
        let stats = client.request("stats").expect("stats");
        assert_eq!(stats.u64("inline").unwrap(), 1, "{}", stats.raw);
        assert_eq!(stats.u64("batches").unwrap(), 2, "{}", stats.raw);
        server.shutdown();
        server.join();
    }

    /// Inline answers land in the request-latency histograms scenario
    /// SLOs and `ramp report` read, exactly as queued ones do.
    #[test]
    fn inline_answers_record_request_latency() {
        sim_obs::set_enabled(true);
        let hist_count = |name: &str| {
            sim_obs::flush()
                .into_iter()
                .find_map(|m| match m.value {
                    sim_obs::MetricValue::Histogram(h) if m.name == name => Some(h.count()),
                    _ => None,
                })
                .unwrap_or(0)
        };
        let server = start(64, 1);
        let mut client = connect(&server);
        let warm = client.request("sweep gzip strategy=dvs").expect("sweep");
        assert!(warm.is_ok(), "{}", warm.raw);
        let before = [
            "server.request.latency_ms",
            "server.request.latency_ms.eval",
            "server.request.latency_ms.fit",
        ]
        .map(hist_count);
        for line in ["eval gzip", "fit gzip tqual=400"] {
            let reply = client.request(line).expect(line);
            assert!(reply.is_ok(), "{}", reply.raw);
        }
        let after = [
            "server.request.latency_ms",
            "server.request.latency_ms.eval",
            "server.request.latency_ms.fit",
        ]
        .map(hist_count);
        assert!(after[0] >= before[0] + 2, "{before:?} -> {after:?}");
        assert_eq!(after[1], before[1] + 1, "{before:?} -> {after:?}");
        assert_eq!(after[2], before[2] + 1, "{before:?} -> {after:?}");
        let stats = client.request("stats").expect("stats");
        assert_eq!(stats.u64("inline").unwrap(), 2, "{}", stats.raw);
        assert_eq!(stats.u64("batches").unwrap(), 1, "{}", stats.raw);
        server.shutdown();
        server.join();
    }
}
