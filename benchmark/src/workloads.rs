//! The four workloads: set-up, one measured round, the output digest of a
//! round, and the checks that the outputs are right.
//!
//! A round is a fixed set of operations that depends only on the seed and
//! the scale, so the median over whole rounds does not depend on how many
//! rounds fit in the measured phase. DRM and fleet rounds repeat the same
//! operations, and every repeat must reproduce round 0 bit for bit; serve
//! rounds continue each client's seeded request stream, and every request
//! line must get the same reply each time it is sent.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use drm::{
    fleet_partial, fleet_summarize, run_fleet, ArchPoint, BatchEngine, DrmChoice, DvsPoint,
    Evaluation, Evaluator, FleetConfig, FleetSummary, Oracle, Strategy, SweepSummary,
    TimingCacheKey,
};
use ramp::ReliabilityModel;
use scenario::{Scenario, SurrogateSpec};
use sim_common::{splitmix64, Hertz, Kelvin, Volts, Xoshiro256pp};
use sim_server::{parse_request, Client, Request, Server, ServerConfig, ServerStats};
use workload::App;

use crate::spec::{Scale, Workload, DEFAULT_SEED, DVS_STEP_GHZ, T_DECISION_K, T_SWEEP_K};
use crate::stats::Digest;

/// Settings shared by every part of a run.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Workload seed: the evaluation seed (except `drm-surrogate`'s), the
    /// fleet seed, and the order of DRM decisions and server requests.
    /// Nothing else varies with it.
    pub seed: u64,
    /// Engine workers and client connections (the load never uses more).
    pub threads: usize,
    /// Input size.
    pub scale: Scale,
}

impl Ctx {
    /// The paper scenario at this run's simulation lengths and seed.
    pub(crate) fn scenario(&self) -> Scenario {
        let mut scn = Scenario::paper_default();
        scn.eval = self.scale.eval_params(self.seed);
        scn
    }
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Wall time of each successful operation, seconds.
    pub latencies: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error, or a reply other than `ok`.
    pub failed: u64,
    /// Wall time of the timed part of the round, seconds.
    pub wall: f64,
    /// Digest of the round's outputs.
    pub digest: u64,
}

/// Work the layers did over the measured phase, read from their own
/// summaries.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Batch-engine counters summed over every engine the phase used.
    pub sweep: SweepSummary,
    /// Committed instructions simulated by cycle-level timing runs.
    pub sim_instructions: u64,
    /// Wall time of the DRM decisions, seconds.
    pub decision_wall: f64,
    /// Server counters over the phase (serve workload only).
    pub server: ServerStats,
}

/// A set-up workload, ready to run rounds.
// One exists per run, so the variants' sizes do not matter.
#[allow(clippy::large_enum_variant)]
pub enum Bench {
    /// `drm-exhaustive` and `drm-surrogate`.
    Drm(DrmBench),
    /// `fleet`.
    Fleet(FleetBench),
    /// `serve-warm`.
    Serve(ServeBench),
}

impl Bench {
    /// Builds the workload's inputs and warms what a user would find
    /// warm: everything timed by [`Bench::round`] starts from here.
    ///
    /// # Errors
    ///
    /// Returns a message when set-up fails or a set-up check fails.
    pub fn setup(workload: Workload, ctx: &Ctx) -> Result<Bench, String> {
        Ok(match workload {
            Workload::DrmExhaustive => Bench::Drm(DrmBench::setup(ctx, false)?),
            Workload::DrmSurrogate => Bench::Drm(DrmBench::setup(ctx, true)?),
            Workload::Fleet => Bench::Fleet(FleetBench::setup(ctx)?),
            Workload::ServeWarm => Bench::Serve(ServeBench::setup(ctx)?),
        })
    }

    /// Runs round `index`.
    ///
    /// # Errors
    ///
    /// Returns a message when an output check fails.
    pub fn round(&mut self, index: usize) -> Result<Round, String> {
        match self {
            Bench::Drm(b) => b.round(),
            Bench::Fleet(b) => b.round(),
            Bench::Serve(b) => b.round(index),
        }
    }

    /// True when every round repeats round 0's operations, so every
    /// round's digest must equal round 0's.
    #[must_use]
    pub fn repeats(&self) -> bool {
        !matches!(self, Bench::Serve(_))
    }

    /// Finishes the measured phase: runs the checks that need all of it
    /// and returns the layers' counters.
    ///
    /// # Errors
    ///
    /// Returns a message when an output check fails.
    pub fn finish(self) -> Result<Counts, String> {
        match self {
            Bench::Drm(b) => Ok(b.counts),
            Bench::Fleet(b) => b.finish(),
            Bench::Serve(mut b) => b.finish(),
        }
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Batch-engine counters of one engine, as `Oracle::summary` reports
/// them.
fn engine_summary(engine: &BatchEngine) -> SweepSummary {
    Oracle::from_engine(engine.clone()).summary()
}

/// The counters accumulated between two summaries of one engine.
fn summary_delta(after: &SweepSummary, before: &SweepSummary) -> SweepSummary {
    SweepSummary {
        workers: after.workers,
        evaluations: after.evaluations - before.evaluations,
        cache_hits: after.cache_hits - before.cache_hits,
        timing_runs: after.timing_runs - before.timing_runs,
        timing_reuses: after.timing_reuses - before.timing_reuses,
        wall: after.wall.saturating_sub(before.wall),
        busy: after.busy.saturating_sub(before.busy),
    }
}

fn digest_choice(d: &mut Digest, c: &DrmChoice) {
    d.u64(u64::from(c.arch.window))
        .u64(u64::from(c.arch.alus))
        .u64(u64::from(c.arch.fpus))
        .f64(c.dvs.frequency.0)
        .f64(c.dvs.vdd.0)
        .f64(c.relative_performance)
        .f64(c.fit.value())
        .u64(u64::from(c.feasible));
}

/// One DRM decision per (application, `T_qual`), each on a fresh, cold
/// oracle — what one `ramp drm` invocation costs — in a seeded order.
pub struct DrmBench {
    scn: Scenario,
    threads: usize,
    decisions: Vec<(App, Arc<ReliabilityModel>)>,
    candidates: Vec<(ArchPoint, DvsPoint)>,
    reference: Evaluator,
    base_evals: HashMap<App, Evaluation>,
    instructions_per_run: u64,
    counts: Counts,
}

impl DrmBench {
    fn setup(ctx: &Ctx, surrogate: bool) -> Result<DrmBench, String> {
        let mut scn = ctx.scenario();
        let tquals: &[f64] = if surrogate {
            scn.surrogate = Some(SurrogateSpec::default());
            // How many candidates the surrogate must verify exactly swings
            // with the stream seed (3 to 5 rounds fit the same 10 s across
            // seeds 101–110), so its stream stays fixed and the workload
            // seed only orders the decisions.
            scn.eval.seed = DEFAULT_SEED;
            &T_SWEEP_K
        } else {
            &[T_DECISION_K]
        };
        let models = tquals
            .iter()
            .map(|&t| {
                scn.model_at(Kelvin(t), scn.qualification.alpha)
                    .map(Arc::new)
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        let apps = ctx.scale.apps();
        let mut decisions: Vec<_> = apps
            .iter()
            .flat_map(|&app| models.iter().map(move |m| (app, Arc::clone(m))))
            .collect();
        let mut rng = Xoshiro256pp::seed_from_u64(ctx.seed);
        for i in (1..decisions.len()).rev() {
            decisions.swap(i, rng.gen_usize(0..i + 1));
        }
        // The reference the choices are checked against: base-point
        // evaluations from an evaluator that shares no cache with any
        // oracle.
        let reference = scn.evaluator().map_err(err)?;
        let base_config = scn
            .base_arch()
            .apply(&scn.core, scn.base_dvs())
            .map_err(err)?;
        let base_evals = apps
            .iter()
            .map(|&app| Ok((app, reference.evaluate(app, &base_config)?)))
            .collect::<Result<_, sim_common::SimError>>()
            .map_err(err)?;
        // Warm-up: one cheap DVS decision pays thread and allocator
        // first-touch costs outside the timed rounds.
        scn.oracle(ctx.threads)
            .and_then(|o| o.best(apps[0], Strategy::Dvs, &models[0], DVS_STEP_GHZ))
            .map_err(err)?;
        let params = scn.eval;
        Ok(DrmBench {
            reference,
            candidates: Strategy::ArchDvs.candidates(DVS_STEP_GHZ),
            scn,
            threads: ctx.threads,
            decisions,
            base_evals,
            instructions_per_run: params.warmup_instructions + params.measure_instructions,
            counts: Counts::default(),
        })
    }

    fn round(&mut self) -> Result<Round, String> {
        let mut round = Round::default();
        let mut digest = Digest::default();
        for i in 0..self.decisions.len() {
            let (app, model) = self.decisions[i].clone();
            round.attempted += 1;
            let start = Instant::now();
            let result = {
                let _span = sim_obs::span!("bench.decision");
                self.scn.oracle(self.threads).and_then(|oracle| {
                    let choice = oracle.best(app, Strategy::ArchDvs, &model, DVS_STEP_GHZ)?;
                    Ok((oracle, choice))
                })
            };
            let elapsed = start.elapsed().as_secs_f64();
            round.wall += elapsed;
            let (oracle, choice) = match result {
                Ok(ok) => ok,
                Err(e) => {
                    eprintln!("{app}: decision failed: {e}");
                    round.failed += 1;
                    continue;
                }
            };
            round.latencies.push(elapsed);
            let summary = oracle.summary();
            self.counts.sweep.merge(&summary);
            self.counts.sim_instructions += summary.timing_runs * self.instructions_per_run;
            self.counts.decision_wall += elapsed;

            digest.str(app.name());
            digest_choice(&mut digest, &choice);
            // The cycles and IPC of every timing run the decision paid
            // for, in candidate order.
            let engine = oracle.engine();
            for (k, &(arch, dvs)) in self.candidates.iter().enumerate() {
                let config = arch.apply(engine.base_config(), dvs).map_err(err)?;
                if let Some(run) = engine
                    .timing_cache()
                    .get(&TimingCacheKey::new(app, &config))
                {
                    let cycles: u64 = run.intervals().iter().map(|iv| iv.cycles).sum();
                    digest.u64(k as u64).u64(cycles).f64(run.ipc());
                }
            }
            self.check_choice(app, &model, &choice)?;
        }
        round.digest = digest.value();
        Ok(round)
    }

    /// Re-derives the choice's performance and FIT from fresh
    /// evaluations that share no cache with the oracle.
    fn check_choice(
        &self,
        app: App,
        model: &ReliabilityModel,
        choice: &DrmChoice,
    ) -> Result<(), String> {
        let base = &self.base_evals[&app];
        let config = choice.arch.apply(&self.scn.core, choice.dvs).map_err(err)?;
        let ev = self.reference.evaluate(app, &config).map_err(err)?;
        let fit = ev.application_fit(model).total();
        let rel = ev.bips / base.bips;
        if rel.to_bits() != choice.relative_performance.to_bits()
            || fit.value().to_bits() != choice.fit.value().to_bits()
            || choice.feasible != (fit <= model.target_fit())
        {
            return Err(format!(
                "{app}: the oracle's choice {choice:?} does not match a fresh evaluation \
                 (relative performance {rel}, FIT {})",
                fit.value()
            ));
        }
        Ok(())
    }
}

fn digest_fleet(d: &mut Digest, s: &FleetSummary) {
    d.u64(s.dies).u64(s.violations).f64(s.target_fit);
    for stats in [&s.fit, &s.lifetime_years] {
        for v in [
            stats.mean, stats.min, stats.max, stats.p1, stats.p5, stats.p50, stats.p95,
        ] {
            d.f64(v);
        }
    }
    d.f64(s.rank_error);
}

/// One fleet Monte Carlo per application at the scenario's base point,
/// through an engine whose one timing run per application was paid in
/// set-up.
pub struct FleetBench {
    engine: BatchEngine,
    model: ReliabilityModel,
    point: (ArchPoint, DvsPoint),
    apps: Vec<App>,
    config: FleetConfig,
    before: SweepSummary,
}

impl FleetBench {
    fn setup(ctx: &Ctx) -> Result<FleetBench, String> {
        let scn = ctx.scenario();
        let model = scn.model().map_err(err)?;
        let engine = BatchEngine::with_workers(scn.evaluator().map_err(err)?, ctx.threads)
            .with_base_config(scn.core.clone());
        let point = (scn.base_arch(), scn.base_dvs());
        let config = FleetConfig {
            dies: ctx.scale.fleet_dies(),
            seed: ctx.seed,
            ..scn.fleet
        };
        let warm = FleetConfig {
            dies: 1_000,
            ..config
        };
        let apps = ctx.scale.apps();
        for &app in &apps {
            let summary = run_fleet(&engine, app, point.0, point.1, &model, &warm).map_err(err)?;
            // The same dies folded through the per-batch path the cluster
            // uses must summarize to the same population.
            let part =
                fleet_partial(&engine, app, point.0, point.1, &model, &warm, 0).map_err(err)?;
            let folded = fleet_summarize(&part, summary.target_fit, 0, 1, Duration::ZERO);
            if folded != summary {
                return Err(format!(
                    "{app}: fleet_partial folds to {folded:?}, run_fleet gives {summary:?}"
                ));
            }
        }
        Ok(FleetBench {
            before: engine_summary(&engine),
            engine,
            model,
            point,
            apps,
            config,
        })
    }

    fn round(&mut self) -> Result<Round, String> {
        let mut round = Round::default();
        let mut digest = Digest::default();
        for &app in &self.apps {
            round.attempted += 1;
            let start = Instant::now();
            let result = {
                let _span = sim_obs::span!("bench.fleet");
                run_fleet(
                    &self.engine,
                    app,
                    self.point.0,
                    self.point.1,
                    &self.model,
                    &self.config,
                )
            };
            let elapsed = start.elapsed().as_secs_f64();
            round.wall += elapsed;
            match result {
                Ok(summary) => {
                    round.latencies.push(elapsed);
                    let s = &summary;
                    let ordered = s.fit.min <= s.fit.p1
                        && s.fit.p1 <= s.fit.p50
                        && s.fit.p50 <= s.fit.p95
                        && s.fit.p95 <= s.fit.max
                        && s.violations <= s.dies;
                    if s.dies != self.config.dies || !ordered {
                        return Err(format!("{app}: inconsistent fleet summary {s:?}"));
                    }
                    digest.str(app.name());
                    digest_fleet(&mut digest, s);
                }
                Err(e) => {
                    eprintln!("{app}: fleet run failed: {e}");
                    round.failed += 1;
                }
            }
        }
        round.digest = digest.value();
        Ok(round)
    }

    fn finish(self) -> Result<Counts, String> {
        Ok(Counts {
            sweep: summary_delta(&engine_summary(&self.engine), &self.before),
            ..Counts::default()
        })
    }
}

/// The serve workload's request mix, one generator per client.
pub(crate) struct RequestGen {
    rng: Xoshiro256pp,
    apps: Vec<App>,
    /// DVS grid: frequency in Hz (exact integers) and its V(f) voltage.
    grid: Vec<(u64, f64)>,
}

impl RequestGen {
    /// Client `client`'s generator for workload seed `seed`.
    pub(crate) fn new(
        scn: &Scenario,
        apps: Vec<App>,
        seed: u64,
        client: u64,
    ) -> Result<RequestGen, String> {
        let grid = scn
            .dvs
            .grid()
            .map_err(err)?
            .into_iter()
            .map(|p| (p.frequency.0 as u64, p.vdd.0))
            .collect();
        Ok(RequestGen {
            rng: Xoshiro256pp::seed_from_u64(splitmix64(seed) ^ splitmix64(client + 1)),
            apps,
            grid,
        })
    }

    /// The next request line and the verb it exercises: 70% warm
    /// `eval` (cache reads), 15% `fit … tqual=` (read, re-qualify, FIT),
    /// 10% `eval … vdd=` over 8 voltages per grid point (the first touch
    /// of each is an evaluation-cache write on a timing-cache hit) and 5%
    /// warm DVS `sweep … tqual=`.
    pub(crate) fn next(&mut self) -> (&'static str, String) {
        let app = self.apps[self.rng.gen_usize(0..self.apps.len())].name();
        let (hz, vdd) = self.grid[self.rng.gen_usize(0..self.grid.len())];
        let u = self.rng.next_f64();
        let tqual = T_SWEEP_K[self.rng.gen_usize(0..T_SWEEP_K.len())];
        if u < 0.70 {
            ("eval", format!("eval {app} freq={hz}"))
        } else if u < 0.85 {
            ("fit", format!("fit {app} freq={hz} tqual={tqual}"))
        } else if u < 0.95 {
            let k = self.rng.gen_usize(0..8) as f64;
            let v = vdd + (k - 3.5) * 0.01;
            ("eval_vdd", format!("eval {app} freq={hz} vdd={v:.4}"))
        } else {
            ("sweep", format!("sweep {app} strategy=dvs tqual={tqual}"))
        }
    }
}

/// The span name of one request: `bench.request.<verb>`.
fn request_span(verb: &str) -> &'static str {
    match verb {
        "eval" => "bench.request.eval",
        "fit" => "bench.request.fit",
        "eval_vdd" => "bench.request.eval_vdd",
        _ => "bench.request.sweep",
    }
}

/// One client's part of a round: per request, the line, the reply (or
/// transport error) and the round-trip time in seconds.
type ClientLog = Vec<(String, Result<String, String>, f64)>;

/// Closed-loop clients, one connection each, against an in-process
/// server whose caches were warmed with every application's DVS grid.
pub struct ServeBench {
    scn: Scenario,
    threads: usize,
    server: Option<Server>,
    clients: Vec<Client>,
    gens: Vec<RequestGen>,
    per_client: usize,
    replies: HashMap<String, String>,
    stats_before: ServerStats,
    sweep_before: SweepSummary,
}

impl ServeBench {
    fn setup(ctx: &Ctx) -> Result<ServeBench, String> {
        let scn = ctx.scenario();
        let config = ServerConfig {
            jobs: ctx.threads,
            drain_workers: ctx.threads,
            eval: Some(scn.eval),
            ..ServerConfig::default()
        };
        let server = Server::start(scn.clone(), config, "127.0.0.1:0").map_err(err)?;
        let mut bench = ServeBench {
            scn,
            threads: ctx.threads,
            clients: Vec::new(),
            gens: Vec::new(),
            per_client: ctx.scale.requests_per_client(),
            replies: HashMap::new(),
            stats_before: ServerStats::default(),
            sweep_before: SweepSummary::default(),
            server: Some(server),
        };
        let addr = bench
            .server
            .as_ref()
            .map(Server::local_addr)
            .expect("server");
        for _ in 0..ctx.threads {
            bench.clients.push(Client::connect(addr).map_err(err)?);
        }
        let apps = ctx.scale.apps();
        for &app in &apps {
            let reply = bench.clients[0]
                .request_raw(&format!("sweep {} strategy=dvs", app.name()))
                .map_err(err)?;
            if !reply.starts_with("ok") {
                return Err(format!("warm-up sweep of {app} failed: {reply}"));
            }
        }
        bench.gens = (0..ctx.threads as u64)
            .map(|c| RequestGen::new(&bench.scn, apps.clone(), ctx.seed, c))
            .collect::<Result<_, _>>()?;
        let server = bench.server.as_ref().expect("server");
        bench.stats_before = server.stats();
        bench.sweep_before = server.sweep_summary();
        Ok(bench)
    }

    fn round(&mut self, index: usize) -> Result<Round, String> {
        let per_client = self.per_client;
        let start = Instant::now();
        let logs: Vec<ClientLog> = thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(self.gens.iter_mut())
                .map(|(client, gen)| {
                    scope.spawn(move || {
                        (0..per_client)
                            .map(|_| {
                                let (verb, line) = gen.next();
                                let sent = Instant::now();
                                let reply = {
                                    let _span = sim_obs::span!(request_span(verb));
                                    client.request_raw(&line).map_err(err)
                                };
                                (line, reply, sent.elapsed().as_secs_f64())
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut round = Round {
            wall: start.elapsed().as_secs_f64(),
            ..Round::default()
        };
        let mut first_round = BTreeSet::new();
        for (line, reply, rtt) in logs.into_iter().flatten() {
            round.attempted += 1;
            let reply = match reply {
                Ok(reply) if reply.starts_with("ok") => reply,
                Ok(reply) => {
                    eprintln!("`{line}` failed: {reply}");
                    round.failed += 1;
                    continue;
                }
                Err(e) => {
                    eprintln!("`{line}` failed: {e}");
                    round.failed += 1;
                    continue;
                }
            };
            round.latencies.push(rtt);
            match self.replies.get(&line) {
                Some(earlier) if *earlier != reply => {
                    return Err(format!(
                        "`{line}` was answered `{earlier}` and later `{reply}`"
                    ));
                }
                Some(_) => {}
                None => {
                    self.replies.insert(line.clone(), reply.clone());
                }
            }
            if index == 0 {
                first_round.insert((line, reply));
            }
        }
        let mut digest = Digest::default();
        for (line, reply) in &first_round {
            digest.str(line).str(reply);
        }
        round.digest = digest.value();
        Ok(round)
    }

    /// Checks every distinct reply against an in-process engine over the
    /// same scenario, then reads the server's counters.
    fn finish(&mut self) -> Result<Counts, String> {
        let server = self.server.as_ref().expect("server");
        let counts = Counts {
            sweep: summary_delta(&server.sweep_summary(), &self.sweep_before),
            server: {
                let (now, then) = (server.stats(), self.stats_before);
                ServerStats {
                    connections: now.connections - then.connections,
                    requests: now.requests - then.requests,
                    shed: now.shed - then.shed,
                    errors: now.errors - then.errors,
                    batches: now.batches - then.batches,
                    batched_requests: now.batched_requests - then.batched_requests,
                }
            },
            ..Counts::default()
        };
        self.check_replies()?;
        Ok(counts)
    }

    fn check_replies(&self) -> Result<(), String> {
        let scn = &self.scn;
        let engine = BatchEngine::with_workers(scn.evaluator().map_err(err)?, self.threads)
            .with_base_config(scn.core.clone());
        let oracle = Oracle::from_engine(engine.clone());
        let arch = scn.base_arch();
        let dvs_candidates = scn.candidates(Strategy::Dvs, None).map_err(err)?;
        let base = (arch, scn.base_dvs());
        let app_named = |name: &str| {
            App::ALL
                .into_iter()
                .find(|a| a.name() == name)
                .ok_or_else(|| format!("unknown app `{name}`"))
        };
        let model_at = |t: Option<f64>| -> Result<ReliabilityModel, String> {
            let t = t.ok_or("missing tqual")?;
            scn.model_at(Kelvin(t), scn.qualification.alpha)
                .map_err(err)
        };
        let point = |freq: Option<f64>, vdd: Option<f64>| -> Result<DvsPoint, String> {
            let hz = freq.ok_or("missing freq")?;
            match vdd {
                Some(v) => Ok(DvsPoint {
                    frequency: Hertz(hz),
                    vdd: Volts(v),
                }),
                None => scn.dvs.at_ghz(hz / 1e9).map_err(err),
            }
        };
        let field = |reply: &str, key: &str| -> Result<f64, String> {
            sim_server::Reply::parse(reply)
                .and_then(|r| r.f64(key))
                .map_err(err)
        };
        let same = |line: &str, key: &str, got: f64, want: f64| {
            if got.to_bits() == want.to_bits() {
                Ok(())
            } else {
                Err(format!(
                    "`{line}`: the server replied {key}={got}, a direct evaluation gives {want}"
                ))
            }
        };
        // One parallel pass evaluates every point the replies mention.
        let mut jobs = Vec::new();
        for line in self.replies.keys() {
            if let Ok(Request::Eval(e)) = parse_request(line) {
                let vdd = e.point.vdd.as_ref().map(|v| v.value);
                let freq = e.point.freq_hz.as_ref().map(|f| f.value);
                jobs.push((app_named(&e.app.value)?, arch, point(freq, vdd)?));
            }
        }
        engine.evaluate_all(&jobs).map_err(err)?;
        for (line, reply) in &self.replies {
            match parse_request(line).map_err(|e| e.to_line())? {
                Request::Eval(e) => {
                    let vdd = e.point.vdd.as_ref().map(|v| v.value);
                    let freq = e.point.freq_hz.as_ref().map(|f| f.value);
                    let ev = engine
                        .evaluation(app_named(&e.app.value)?, arch, point(freq, vdd)?)
                        .map_err(err)?;
                    same(line, "bips", field(reply, "bips")?, ev.bips)?;
                    same(
                        line,
                        "power_w",
                        field(reply, "power_w")?,
                        ev.average_power().0,
                    )?;
                }
                Request::Fit(f) => {
                    let freq = f.point.freq_hz.as_ref().map(|f| f.value);
                    let model = model_at(f.qual.tqual_k.as_ref().map(|t| t.value))?;
                    let ev = engine
                        .evaluation(app_named(&f.app.value)?, arch, point(freq, None)?)
                        .map_err(err)?;
                    let total = ev.application_fit(&model).total().value();
                    same(line, "total", field(reply, "total")?, total)?;
                }
                Request::Sweep(s) => {
                    let model = model_at(s.qual.tqual_k.as_ref().map(|t| t.value))?;
                    let choice = oracle
                        .best_among(app_named(&s.app.value)?, &dvs_candidates, base, &model)
                        .map_err(err)?;
                    same(
                        line,
                        "relative_performance",
                        field(reply, "relative_performance")?,
                        choice.relative_performance,
                    )?;
                    same(line, "fit", field(reply, "fit")?, choice.fit.value())?;
                }
                other => return Err(format!("unexpected request {other:?}")),
            }
        }
        Ok(())
    }
}

impl Drop for ServeBench {
    fn drop(&mut self) {
        // Close the connections first so the server's connection threads
        // end, then drain and join every server thread.
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
    }
}
