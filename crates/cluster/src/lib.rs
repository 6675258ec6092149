//! `sim-cluster` — the distributed sweep fabric for the RAMP/DRM
//! reproduction.
//!
//! A [`Coordinator`] shards the oracular-DRM candidate grid (§5) and the
//! fleet Monte Carlo population across N `ramp-serve/1` worker shards —
//! `ramp serve` processes named by the scenario's `cluster.addr` lines —
//! and folds the partial results back together exactly:
//!
//! - **Work units.** A sweep becomes one `unit sweep` request per unique
//!   operating point (candidate grid + base point, deduplicated the way
//!   a single batch pass would); a fleet run becomes one `unit fleet`
//!   request per [`drm::DIE_BATCH`]-die batch. Each unit names its full
//!   operating point on the wire with shortest-round-trip floats, so the
//!   shard evaluates exactly the point the coordinator meant.
//! - **Affinity routing.** Units are routed by an FNV-1a hash of the
//!   *timing-relevant* key (application, window, ALUs, FPUs, frequency —
//!   not voltage), so every voltage variant of a configuration lands on
//!   one shard and its voltage-invariant timing run is reused there,
//!   exactly as in a single process.
//! - **Deterministic merges.** Unit summaries fold in unit-index order
//!   and fleet sketches fold in batch-index order — the same fold
//!   [`drm::run_fleet`] performs — so the merged [`SweepSummary`],
//!   [`DrmChoice`], and [`FleetSummary`] are bit-identical to a
//!   single-process run at any shard count.
//! - **Death recovery.** A shard that stops answering is marked dead,
//!   every result it ever produced is discarded, and all its units are
//!   re-routed to the survivors (whole timing groups move together, so
//!   counter parity survives the failover). Connection and `busy` retry
//!   use the client's bounded jittered backoff.
//!
//! A worker started with a store directory (`ramp serve --store-dir`,
//! `ServerConfig::store_dir`) opens the shared append-only evaluation
//! store there: its timing cache pre-warms from all existing segments and
//! it appends to its own, so a restarted shard answers already-seen
//! points without re-running timing.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use drm::{
    fleet_summarize, ArchPoint, DrmChoice, DvsPoint, FleetConfig, FleetPartial, FleetSummary,
    Strategy, SweepSummary, DIE_BATCH,
};
use ramp::Fit;
use scenario::Scenario;
use sim_common::{fnv1a64, QuantileSketch, SimError};
use sim_server::{Client, Reply, RetryPolicy, Status};
use workload::App;

/// Progress notifications a [`Coordinator`] emits while dispatching.
/// Observers run synchronously on the shard worker threads, so a chaos
/// test can act (e.g. kill a shard) between two units of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterEvent {
    /// A shard answered one work unit.
    UnitDone {
        /// Shard index.
        shard: usize,
        /// Unit index within the current dispatch.
        unit: usize,
    },
    /// A shard stopped answering; its units (including already-completed
    /// ones, whose results are discarded) re-route to the survivors.
    ShardDead {
        /// Shard index.
        shard: usize,
        /// Units being re-dispatched.
        redispatched: usize,
    },
}

/// One shard's view in [`Coordinator::status`], read via the `merge`
/// verb (cumulative per-engine evaluation counters).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStatus {
    /// Shard index.
    pub shard: usize,
    /// The shard's address.
    pub addr: SocketAddr,
    /// False once the shard was marked dead or stopped answering.
    pub alive: bool,
    /// Distinct evaluations in the shard's cache.
    pub evaluations: u64,
    /// Lookups served from the shard's cache.
    pub cache_hits: u64,
    /// Cycle-level timing simulations the shard ran.
    pub timing_runs: u64,
    /// Evaluations that reused a cached timing run.
    pub timing_reuses: u64,
    /// Records in the shard's evaluation store (0 without a store).
    pub store_records: u64,
}

/// The result of a distributed sweep: the DRM choice and the merged
/// evaluation summary.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSweep {
    /// The oracular choice — bit-identical to [`drm::Oracle::best_among`]
    /// over the same scenario grid in one process.
    pub choice: DrmChoice,
    /// Unit deltas folded in unit-index order (`wall`/`busy` are the
    /// summed per-unit times — the sequential-equivalent cost;
    /// `workers` is the live shard count).
    pub summary: SweepSummary,
    /// Unique operating points dispatched (grid + base, deduplicated).
    pub unique_points: usize,
    /// Units re-dispatched after shard deaths.
    pub redispatched: u64,
}

/// The result of a distributed fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterFleet {
    /// Population summary — equal (by [`FleetSummary`]'s semantic
    /// equality) to [`drm::run_fleet`] over the same configuration in
    /// one process.
    pub summary: FleetSummary,
    /// Die batches dispatched.
    pub batches: u64,
    /// Units re-dispatched after shard deaths.
    pub redispatched: u64,
}

/// How a shard worker thread failed.
enum ShardFailure {
    /// Transport-level: the shard is gone (or hopelessly busy); its
    /// work re-routes to the survivors.
    Dead(SimError),
    /// Protocol-level `err`: the request itself is wrong; retrying on
    /// another shard would fail identically, so the dispatch aborts.
    Request(SimError),
}

/// One work unit: a single protocol request line plus its routing group.
struct Unit {
    /// Position in the dispatch (fold order and response pairing).
    index: usize,
    /// Affinity-routing hash: units with equal groups share a shard.
    group: u64,
    /// The request line.
    line: String,
}

struct ShardSlot {
    addr: SocketAddr,
    alive: AtomicBool,
}

/// A callback invoked on every [`ClusterEvent`] (tests use it to inject
/// faults between units).
type EventObserver = Arc<dyn Fn(&ClusterEvent) + Send + Sync>;

/// One shard's answered units: `(unit index, reply)` pairs.
type ShardReplies = Vec<(usize, Reply)>;

/// The sweep-fabric coordinator: owns the shard set, routes work units,
/// and folds partial results deterministically.
pub struct Coordinator {
    scenario: Scenario,
    shards: Vec<ShardSlot>,
    policy: RetryPolicy,
    timeout: Duration,
    observer: Option<EventObserver>,
}

impl Coordinator {
    /// Starts a coordinator for `scenario`'s `[cluster]` section by
    /// resolving its `cluster.addr` list. The shards must already run
    /// the same scenario.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the scenario has no
    /// `[cluster]` section, the section is invalid, or an address does
    /// not resolve.
    pub fn start(scenario: Scenario) -> Result<Coordinator, SimError> {
        let spec = scenario.cluster.clone().ok_or_else(|| {
            SimError::invalid_config("scenario has no [cluster] section (set cluster.addr)")
        })?;
        spec.validate()?;
        let mut shards = Vec::with_capacity(spec.shard_addrs.len());
        for addr in &spec.shard_addrs {
            let resolved = addr
                .to_socket_addrs()
                .map_err(|e| {
                    SimError::invalid_config(format!("cannot resolve shard `{addr}`: {e}"))
                })?
                .next()
                .ok_or_else(|| {
                    SimError::invalid_config(format!("shard `{addr}` resolves to no address"))
                })?;
            shards.push(ShardSlot {
                addr: resolved,
                alive: AtomicBool::new(true),
            });
        }
        sim_obs::gauge!("cluster.shards_live", shards.len() as f64);
        Ok(Coordinator {
            scenario,
            shards,
            policy: RetryPolicy::default(),
            timeout: Duration::from_secs(30),
            observer: None,
        })
    }

    /// Replaces the retry policy for connects and `busy` sheds.
    #[must_use]
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Coordinator {
        self.policy = policy;
        self
    }

    /// Replaces the per-request socket timeout.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Coordinator {
        self.timeout = timeout;
        self
    }

    /// Installs a progress observer (see [`ClusterEvent`]).
    pub fn set_observer(&mut self, observer: impl Fn(&ClusterEvent) + Send + Sync + 'static) {
        self.observer = Some(Arc::new(observer));
    }

    /// The scenario this cluster evaluates.
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Total shards (live and dead).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shards currently believed alive.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.live_shards().len()
    }

    /// Every shard's address, in shard order.
    #[must_use]
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.shards.iter().map(|s| s.addr).collect()
    }

    /// Distributed oracular sweep: `strategy`'s candidate grid for `app`
    /// under the scenario's qualification, sharded across the workers
    /// and folded to the exact single-process result.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Infeasible`] when the candidate set is empty,
    /// and [`SimError::InvalidConfig`] when a request is rejected or
    /// every shard died before the grid finished.
    pub fn sweep(
        &self,
        app: App,
        strategy: Strategy,
        step_override: Option<f64>,
    ) -> Result<ClusterSweep, SimError> {
        let _span = sim_obs::span!("cluster.sweep");
        let candidates = self.scenario.candidates(strategy, step_override)?;
        if candidates.is_empty() {
            return Err(SimError::infeasible("candidate set is empty"));
        }
        let base = (self.scenario.base_arch(), self.scenario.base_dvs());

        // Unique operating points in first-seen order — the same
        // dedup a single `evaluate_all` pass performs, so the folded
        // evaluation count matches it exactly.
        let mut index_of: HashMap<PointKey, usize> = HashMap::new();
        let mut points: Vec<(ArchPoint, DvsPoint)> = Vec::new();
        for &(arch, dvs) in candidates.iter().chain(std::iter::once(&base)) {
            index_of.entry(point_key(arch, dvs)).or_insert_with(|| {
                points.push((arch, dvs));
                points.len() - 1
            });
        }
        let units: Vec<Unit> = points
            .iter()
            .enumerate()
            .map(|(i, &(arch, dvs))| Unit {
                index: i,
                group: route_group(app, arch, dvs),
                line: unit_sweep_line(app, i, arch, dvs),
            })
            .collect();
        let (replies, redispatched) = self.dispatch(&units)?;

        let mut summary = SweepSummary::default();
        let mut scores = Vec::with_capacity(replies.len());
        for (i, reply) in replies.iter().enumerate() {
            if reply.u64("index")? != i as u64 {
                return Err(SimError::invalid_config(format!(
                    "shard answered unit {} where {i} was expected: {}",
                    reply.u64("index")?,
                    reply.raw
                )));
            }
            summary.merge(&unit_delta(reply)?);
            scores.push(UnitScore {
                bips: reply.f64("bips")?,
                fit: reply.f64("fit")?,
                feasible: reply.get("feasible") == Some("true"),
            });
        }
        summary.workers = self.live_count();

        // The exact selection fold of `Oracle::select_exact`, over the
        // candidate list in original order, on wire-recovered bits.
        let base_bips = scores[index_of[&point_key(base.0, base.1)]].bips;
        let mut best_feasible: Option<DrmChoice> = None;
        let mut min_fit: Option<DrmChoice> = None;
        for &(arch, dvs) in &candidates {
            let score = &scores[index_of[&point_key(arch, dvs)]];
            let choice = DrmChoice {
                arch,
                dvs,
                relative_performance: score.bips / base_bips,
                fit: Fit(score.fit),
                feasible: score.feasible,
            };
            if choice.feasible {
                let better = best_feasible
                    .as_ref()
                    .is_none_or(|b| choice.relative_performance > b.relative_performance);
                if better {
                    best_feasible = Some(choice.clone());
                }
            }
            let lower = min_fit.as_ref().is_none_or(|b| choice.fit < b.fit);
            if lower {
                min_fit = Some(choice);
            }
        }
        let choice = best_feasible
            .or(min_fit)
            .ok_or_else(|| SimError::infeasible("candidate set is empty"))?;
        sim_obs::counter!("cluster.sweeps", 1);
        Ok(ClusterSweep {
            choice,
            summary,
            unique_points: points.len(),
            redispatched,
        })
    }

    /// Distributed fleet Monte Carlo at the scenario's base operating
    /// point: `config.dies` virtual dies in [`DIE_BATCH`]-die units,
    /// sketches folded in batch-index order — the exact fold
    /// [`drm::run_fleet`] performs in one process.
    ///
    /// Die-to-die variation magnitudes come from the scenario (the wire
    /// carries `dies`/`seed`/`shape` only), so `config.variation` must
    /// equal the scenario's.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the configuration is
    /// invalid or inconsistent with the scenario, a request is rejected,
    /// or every shard died before the population finished.
    pub fn fleet(&self, app: App, config: &FleetConfig) -> Result<ClusterFleet, SimError> {
        let _span = sim_obs::span!("cluster.fleet");
        config.validate()?;
        if config.variation != self.scenario.fleet.variation {
            return Err(SimError::invalid_config(
                "fleet variation magnitudes are fixed by the scenario \
                 (the wire carries dies/seed/shape only)",
            ));
        }
        let model = self.scenario.model()?;
        let start = Instant::now();
        let batches = config.dies.div_ceil(DIE_BATCH);
        let units: Vec<Unit> = (0..batches)
            .map(|b| Unit {
                index: usize::try_from(b).expect("batch index fits usize"),
                group: fnv1a64(&b.to_le_bytes()),
                line: format!(
                    "unit fleet {} batch={b} dies={} seed={} shape={}",
                    app.name(),
                    config.dies,
                    config.seed,
                    config.shape
                ),
            })
            .collect();
        let (replies, redispatched) = self.dispatch(&units)?;

        let mut acc = FleetPartial::new();
        for (b, reply) in replies.iter().enumerate() {
            if reply.u64("batch")? != b as u64 {
                return Err(SimError::invalid_config(format!(
                    "shard answered batch {} where {b} was expected: {}",
                    reply.u64("batch")?,
                    reply.raw
                )));
            }
            acc.merge(&FleetPartial::from_parts(
                sketch_field(reply, "fit_sketch")?,
                sketch_field(reply, "life_sketch")?,
                reply.f64("fit_sum")?,
                reply.f64("life_sum")?,
                reply.u64("violations")?,
            ));
        }
        let timing_runs = self
            .status()
            .iter()
            .filter(|s| s.alive)
            .map(|s| s.timing_runs)
            .sum();
        let summary = fleet_summarize(
            &acc,
            model.target_fit().value(),
            timing_runs,
            self.live_count(),
            start.elapsed(),
        );
        sim_obs::counter!("cluster.fleets", 1);
        Ok(ClusterFleet {
            summary,
            batches,
            redispatched,
        })
    }

    /// Polls every shard's `merge` line: cumulative per-engine cache and
    /// store counters. Read-only — an unreachable shard reports
    /// `alive: false` here without being marked dead for dispatch.
    #[must_use]
    pub fn status(&self) -> Vec<ShardStatus> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                let dead = ShardStatus {
                    shard: i,
                    addr: slot.addr,
                    alive: false,
                    evaluations: 0,
                    cache_hits: 0,
                    timing_runs: 0,
                    timing_reuses: 0,
                    store_records: 0,
                };
                if !slot.alive.load(Ordering::Relaxed) {
                    return dead;
                }
                let merged = Client::connect_timeout(slot.addr, self.timeout)
                    .and_then(|mut c| c.request("merge"));
                match merged {
                    Ok(reply) if reply.is_ok() => ShardStatus {
                        alive: true,
                        evaluations: reply.u64("evaluations").unwrap_or(0),
                        cache_hits: reply.u64("cache_hits").unwrap_or(0),
                        timing_runs: reply.u64("timing_runs").unwrap_or(0),
                        timing_reuses: reply.u64("timing_reuses").unwrap_or(0),
                        store_records: reply.u64("store_records").unwrap_or(0),
                        ..dead
                    },
                    _ => dead,
                }
            })
            .collect()
    }

    fn live_shards(&self) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive.load(Ordering::Relaxed))
            .map(|(i, _)| i)
            .collect()
    }

    fn emit(&self, event: &ClusterEvent) {
        if let Some(observer) = &self.observer {
            observer(event);
        }
    }

    /// Routes `units` across the live shards, runs one worker thread per
    /// shard, and recovers from shard deaths until every unit has a
    /// result. Returns the replies in unit-index order plus the number
    /// of re-dispatched units.
    fn dispatch(&self, units: &[Unit]) -> Result<(Vec<Reply>, u64), SimError> {
        let mut results: Vec<Option<Reply>> = (0..units.len()).map(|_| None).collect();
        // Everything ever sent to a shard, completed or not: a death
        // poisons all of it, because a timing group split between a
        // shard's surviving results and a new home would double-count
        // timing runs against the single-process fold.
        let mut assigned: Vec<Vec<usize>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        let mut pending: Vec<usize> = (0..units.len()).collect();
        let mut redispatched = 0u64;

        while !pending.is_empty() {
            let live = self.live_shards();
            if live.is_empty() {
                return Err(SimError::invalid_config(format!(
                    "all {} worker shard(s) died with {} unit(s) unfinished",
                    self.shards.len(),
                    pending.len()
                )));
            }
            sim_obs::gauge!("cluster.shards_live", live.len() as f64);

            // Pure function of (group, live set): a re-dispatch keeps
            // whole groups together on the survivors.
            let mut round: Vec<Vec<usize>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
            for &u in &pending {
                let shard = live[(units[u].group % live.len() as u64) as usize];
                round[shard].push(u);
                assigned[shard].push(u);
            }
            pending.clear();

            let outcomes: Vec<(usize, Result<ShardReplies, ShardFailure>)> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = round
                        .iter()
                        .enumerate()
                        .filter(|(_, queue)| !queue.is_empty())
                        .map(|(shard, queue)| {
                            let queue: Vec<&Unit> = queue.iter().map(|&u| &units[u]).collect();
                            (shard, scope.spawn(move || self.run_shard(shard, &queue)))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|(shard, handle)| {
                            (shard, handle.join().expect("shard thread panicked"))
                        })
                        .collect()
                });

            let mut fatal: Option<SimError> = None;
            for (shard, outcome) in outcomes {
                match outcome {
                    Ok(list) => {
                        for (u, reply) in list {
                            results[u] = Some(reply);
                        }
                    }
                    Err(ShardFailure::Dead(e)) => {
                        self.shards[shard].alive.store(false, Ordering::Relaxed);
                        sim_obs::counter!("cluster.shard_deaths", 1);
                        sim_obs::log_debug!("cluster", "shard {shard} died: {e}");
                    }
                    Err(ShardFailure::Request(e)) => fatal = Some(e),
                }
            }
            if let Some(e) = fatal {
                return Err(e);
            }

            for (shard, history) in assigned.iter_mut().enumerate() {
                if self.shards[shard].alive.load(Ordering::Relaxed) || history.is_empty() {
                    continue;
                }
                let n = history.len();
                for u in history.drain(..) {
                    results[u] = None;
                    pending.push(u);
                }
                redispatched += n as u64;
                sim_obs::counter!("cluster.redispatched", n as u64);
                self.emit(&ClusterEvent::ShardDead {
                    shard,
                    redispatched: n,
                });
            }
            pending.sort_unstable();
        }

        let replies = results
            .into_iter()
            .map(|r| r.expect("dispatch left a unit unresolved"))
            .collect();
        Ok((replies, redispatched))
    }

    /// One shard's round: connect (with retry), handshake the shard
    /// role, then answer the queue sequentially. Sequential dispatch
    /// keeps the shard's timing-reuse order deterministic — the first
    /// unit of a timing group runs the simulation, the rest reuse it.
    fn run_shard(&self, shard: usize, queue: &[&Unit]) -> Result<ShardReplies, ShardFailure> {
        let slot = &self.shards[shard];
        let mut client = Client::connect_with_retry(slot.addr, self.timeout, &self.policy)
            .map_err(ShardFailure::Dead)?;
        let handshake = client
            .request(&format!("shard index={shard} shards={}", self.shards.len()))
            .map_err(ShardFailure::Dead)?;
        if !handshake.is_ok() {
            return Err(ShardFailure::Request(SimError::invalid_config(format!(
                "shard {shard} rejected the handshake: {}",
                handshake.raw
            ))));
        }
        let mut out = Vec::with_capacity(queue.len());
        for unit in queue {
            let reply = client
                .request_with_retry(&unit.line, &self.policy)
                .map_err(ShardFailure::Dead)?;
            match reply.status {
                Status::Ok => {
                    sim_obs::counter!("cluster.units", 1);
                    self.emit(&ClusterEvent::UnitDone {
                        shard,
                        unit: unit.index,
                    });
                    out.push((unit.index, reply));
                }
                Status::Err => {
                    return Err(ShardFailure::Request(SimError::invalid_config(format!(
                        "shard {shard} rejected `{}`: {}",
                        unit.line, reply.raw
                    ))))
                }
                Status::Busy => {
                    return Err(ShardFailure::Dead(SimError::invalid_config(format!(
                        "shard {shard} still busy after retries: {}",
                        reply.raw
                    ))))
                }
            }
        }
        Ok(out)
    }
}

/// One decoded `unit sweep` score.
struct UnitScore {
    bips: f64,
    fit: f64,
    feasible: bool,
}

/// The full operating-point identity (voltage included) — the dedup key,
/// mirroring the engine's evaluation-cache key.
type PointKey = (u32, u32, u32, u64, u64);

fn point_key(arch: ArchPoint, dvs: DvsPoint) -> PointKey {
    (
        arch.window,
        arch.alus,
        arch.fpus,
        dvs.frequency.0.to_bits(),
        dvs.vdd.0.to_bits(),
    )
}

/// The affinity-routing hash over the *timing-relevant* key: voltage is
/// deliberately absent, so all voltage variants of a configuration share
/// a shard and its timing cache.
fn route_group(app: App, arch: ArchPoint, dvs: DvsPoint) -> u64 {
    let mut bytes = Vec::with_capacity(32);
    bytes.extend_from_slice(app.name().as_bytes());
    for v in [arch.window, arch.alus, arch.fpus] {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    bytes.extend_from_slice(&dvs.frequency.0.to_bits().to_le_bytes());
    fnv1a64(&bytes)
}

/// Formats one `unit sweep` request. Floats print shortest-round-trip,
/// and the server takes an explicit `freq`+`vdd` pair verbatim, so the
/// shard reconstructs this exact operating point.
fn unit_sweep_line(app: App, index: usize, arch: ArchPoint, dvs: DvsPoint) -> String {
    format!(
        "unit sweep {} index={index} freq={} vdd={} window={} alus={} fpus={}",
        app.name(),
        dvs.frequency.0,
        dvs.vdd.0,
        arch.window,
        arch.alus,
        arch.fpus
    )
}

/// Decodes a unit's pass-local evaluation delta (workers deliberately 0:
/// the merged summary reports the cluster width instead).
fn unit_delta(reply: &Reply) -> Result<SweepSummary, SimError> {
    Ok(SweepSummary {
        workers: 0,
        evaluations: reply.u64("evaluations")?,
        cache_hits: reply.u64("cache_hits")?,
        timing_runs: reply.u64("timing_runs")?,
        timing_reuses: reply.u64("timing_reuses")?,
        wall: Duration::from_nanos(reply.u64("wall_ns")?),
        busy: Duration::from_nanos(reply.u64("busy_ns")?),
    })
}

fn sketch_field(reply: &Reply, key: &str) -> Result<QuantileSketch, SimError> {
    let raw = reply.get(key).ok_or_else(|| {
        SimError::invalid_config(format!("response missing `{key}`: {}", reply.raw))
    })?;
    QuantileSketch::from_compact_string(raw)
        .map_err(|e| SimError::invalid_config(format!("bad `{key}` sketch: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_server::{parse_request, Request};

    fn arch(window: u32) -> ArchPoint {
        ArchPoint {
            window,
            alus: 6,
            fpus: 4,
        }
    }

    fn dvs(ghz: f64, vdd: f64) -> DvsPoint {
        DvsPoint {
            frequency: sim_common::Hertz::from_ghz(ghz),
            vdd: sim_common::Volts(vdd),
        }
    }

    #[test]
    fn routing_groups_voltage_variants_together() {
        // Same timing key (app, arch, frequency), different voltage:
        // one group, one shard, one timing run.
        let a = route_group(App::Gzip, arch(128), dvs(4.0, 1.0));
        let b = route_group(App::Gzip, arch(128), dvs(4.0, 0.9));
        assert_eq!(a, b);
        // Any timing-relevant difference splits the group.
        assert_ne!(a, route_group(App::Gzip, arch(64), dvs(4.0, 1.0)));
        assert_ne!(a, route_group(App::Gzip, arch(128), dvs(3.5, 1.0)));
        assert_ne!(a, route_group(App::Twolf, arch(128), dvs(4.0, 1.0)));
    }

    #[test]
    fn unit_sweep_line_round_trips_the_exact_point() {
        // An awkward frequency (ulp-sensitive) and voltage must survive
        // the wire bit-for-bit: format here, parse with the server's own
        // grammar, compare bits.
        let point = dvs(3.700000000000001, 0.9349999999999999);
        let line = unit_sweep_line(App::Equake, 17, arch(96), point);
        let request = parse_request(&line).expect("parses");
        let Request::UnitSweep(unit) = request else {
            panic!("parsed to the wrong verb");
        };
        assert_eq!(unit.index.value, 17);
        assert_eq!(unit.app.value, "equake");
        assert_eq!(
            unit.point.freq_hz.unwrap().value.to_bits(),
            point.frequency.0.to_bits()
        );
        assert_eq!(
            unit.point.vdd.unwrap().value.to_bits(),
            point.vdd.0.to_bits()
        );
        assert_eq!(unit.point.window.unwrap().value, 96);
        assert_eq!(unit.point.alus.unwrap().value, 6);
        assert_eq!(unit.point.fpus.unwrap().value, 4);
    }

    #[test]
    fn coordinator_requires_a_cluster_section() {
        let err = match Coordinator::start(Scenario::paper_default()) {
            Ok(_) => panic!("paper default has no [cluster] section"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("[cluster]"), "{err}");
    }

    #[test]
    fn point_key_distinguishes_voltage_but_route_group_does_not() {
        let a = point_key(arch(128), dvs(4.0, 1.0));
        let b = point_key(arch(128), dvs(4.0, 0.9));
        assert_ne!(a, b, "the dedup key must keep distinct voltages apart");
    }
}
