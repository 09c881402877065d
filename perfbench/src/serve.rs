//! The serve phases: an embedded `moma serve` (one shard, default
//! limits, a write-ahead log with fsync per commit and the background
//! checkpointer), primed over the wire, then driven by at most two
//! client connections.
//!
//! * read slices: two connections in a closed loop of `query`,
//!   `batch_query` and `stats` requests;
//! * mixed slices: one writer sending seeded deltas on Publication@GS in
//!   an open loop at a fixed rate (latency counted from each delta's due
//!   time) beside one reader in a closed loop of queries;
//! * tail: one explicit checkpoint, a given list of untimed deltas and
//!   stop. A recovery fixture (a second server) takes a tail of
//!   [`TAIL_DELTAS`] right after set-up, and every round times
//!   `Engine::recover` from its log; the main server takes a tail with
//!   no deltas after the last round.
//!
//! The run interleaves the slices with the other jobs (see `main.rs`);
//! samples carry their send time from one run-wide origin.
//!
//! A shadow registry, owned by the benchmark, generates the delta stream
//! and receives every delta too; at the end each served mapping must
//! equal a full library re-match on it.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use moma_core::blocking::Blocking;
use moma_core::matchers::{AttributeMatcher, MatchContext, Matcher};
use moma_core::ops::compose::{PathAgg, PathCombine};
use moma_core::repository::SnapshotEntry;
use moma_core::{DeltaMatchState, MappingRepository, Parallelism, Recipe};
use moma_datagen::{DeltaStream, EvolveConfig, Scenario};
use moma_model::{LdsId, SourceRegistry};
use moma_server::server::Shared;
use moma_server::wal::{encode_record, RotationPolicy};
use moma_server::{
    checkpoint, protocol, Client, DurabilityPolicy, Engine, Json, ServerHandle, Wal,
};
use moma_simstring::SimFn;

use crate::rng::SplitMix;
use crate::trace::{count, set_request, span, timed};
use crate::workflow::{sorted_rows, Rows};

/// Share of live GS publications each delta touches.
pub const CHURN: f64 = 0.002;
/// Deltas per second sent by the open-loop writer.
pub const DELTA_RATE: f64 = 50.0;
/// Mutating commands between background checkpoints.
pub const CHECKPOINT_EVERY: u64 = 400;
/// Untimed deltas after the recovery fixture's checkpoint; recovery
/// replays these.
pub const TAIL_DELTAS: usize = 24;
/// Threshold of both primed title matchers.
const THRESHOLD: f64 = 0.75;
/// Reads of each kind replayed on the twin engine (spread evenly over
/// the run).
const REPLAY_CAP: usize = 10_000;
const CONNECT: Duration = Duration::from_secs(10);
/// Connections of a read slice.
const READ_CONNS: u64 = 2;
/// Random stream tags of the read slices (two per round) and the mixed
/// slices' reader (one per round).
const READ_STREAM: u64 = 100;
const MIXED_STREAM: u64 = 200;

fn seq() -> Parallelism {
    Parallelism::sequential()
}

pub fn policy() -> DurabilityPolicy {
    DurabilityPolicy {
        checkpoint_every_records: CHECKPOINT_EVERY,
        ..DurabilityPolicy::default()
    }
}

/// The requests that prime the server: two title matchers and their
/// composition DBLP → GS → ACM.
pub fn setup_requests() -> Vec<Json> {
    let title = |name, domain, range| {
        protocol::match_request(name, domain, range, "title", "title", "trigram", THRESHOLD)
    };
    vec![
        title("m_dg", "Publication@DBLP", "Publication@GS"),
        title("m_ga", "Publication@GS", "Publication@ACM"),
        protocol::compose_request("m_hub", "m_dg", "m_ga", "min", "max"),
    ]
}

fn is_ok(resp: &Json) -> bool {
    resp.get("ok").and_then(Json::as_bool) == Some(true)
}

/// A response counts as answered only if it and every batch item is ok.
fn answered(resp: &Json) -> bool {
    is_ok(resp)
        && resp
            .get("results")
            .and_then(Json::as_arr)
            .is_none_or(|items| items.iter().all(is_ok))
}

/// A running embedded server.
pub struct Session {
    handle: Option<ServerHandle>,
    shared: Arc<Shared>,
    pub addr: String,
    pub dir: PathBuf,
}

/// Boot a server over `s` with a fresh log in `dir` and prime it.
pub fn boot(s: &Scenario, dir: &Path) -> Result<Session, String> {
    let mut engine = Engine::new(s.registry.clone(), seq());
    engine
        .wal_create(dir, policy())
        .map_err(|e| format!("wal create {}: {e}", dir.display()))?;
    let handle =
        moma_server::spawn(engine, "127.0.0.1:0").map_err(|e| format!("spawn server: {e}"))?;
    let session = Session {
        shared: Arc::clone(handle.shared()),
        addr: handle.addr.to_string(),
        handle: Some(handle),
        dir: dir.to_owned(),
    };
    let mut c = session.connect()?;
    for req in setup_requests() {
        c.call_ok(&req).map_err(|e| format!("prime: {e}"))?;
    }
    Ok(session)
}

impl Session {
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect_retry(&self.addr, CONNECT)
            .map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Stop the server and wait until every server thread has ended
    /// (each holds a reference to the shared state until it returns).
    pub fn stop(&mut self) -> Result<(), String> {
        if let Some(h) = self.handle.take() {
            h.stop();
        }
        let deadline = Instant::now() + CONNECT;
        while Arc::strong_count(&self.shared) > 1 {
            if Instant::now() > deadline {
                return Err("server threads did not exit".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    }

    /// Wait until the background checkpointer has published every
    /// checkpoint that is due. A checkpoint that outlives the slice that
    /// triggered it would overlap the next job and, with its buffers,
    /// raise the run's peak memory or not depending on timing.
    pub fn settle(&self) -> Result<(), String> {
        let deadline = Instant::now() + CONNECT;
        while self.shared.router.engine_read(0).0.checkpoint_due() {
            if Instant::now() > deadline {
                return Err("background checkpoint did not finish".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    }

    /// The stopped engine's snapshot and counters.
    fn final_state(&self) -> EngineState {
        let (engine, _) = self.shared.router.engine_read(0);
        EngineState::of(&engine)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        let _ = self.stop();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What recovery must reproduce: mappings with versions and exact rows,
/// command counters and the log position.
#[derive(Debug, Default, PartialEq)]
struct EngineState {
    mappings: Vec<(String, u64, Rows)>,
    commands: (u64, u64, u64),
    wal_seq: u64,
}

impl EngineState {
    fn of(e: &Engine) -> EngineState {
        let mut mappings: Vec<_> = e
            .snapshot()
            .iter()
            .map(|s: &SnapshotEntry| (s.name.clone(), s.version, sorted_rows(&s.mapping.table)))
            .collect();
        mappings.sort();
        let c = e.command_counts();
        EngineState {
            mappings,
            commands: (c.matches, c.composes, c.deltas),
            wal_seq: e.wal_seq(),
        }
    }
}

/// One client request as measured.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Seconds after the run's origin that the request was sent.
    pub sent: f64,
    /// Client-observed latency (for deltas: from the due time).
    pub ms: f64,
    /// The request, kept for the twin replay of a traced run.
    pub req: Option<Json>,
}

#[derive(Debug, Default)]
pub struct PhaseOut {
    pub reads: Vec<Sample>,
    pub writes: Vec<Sample>,
    /// Query items answered (a batch answers eight).
    pub items: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Seconds the slices of this phase ran, summed.
    pub elapsed_s: f64,
    /// Generator lateness per delta, ms.
    pub lag_ms: Vec<f64>,
    pub full_rematches: u64,
    pub errors: Vec<String>,
}

impl PhaseOut {
    pub fn absorb(&mut self, o: PhaseOut) {
        self.reads.extend(o.reads);
        self.writes.extend(o.writes);
        self.items += o.items;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.elapsed_s += o.elapsed_s;
        self.lag_ms.extend(o.lag_ms);
        self.full_rematches += o.full_rematches;
        self.errors.extend(o.errors);
    }

    fn note(&mut self, resp: &Json, items: u64) {
        self.attempted += 1;
        if answered(resp) {
            self.items += items;
        } else {
            self.failed += 1;
            if self.errors.len() < 4 {
                self.errors.push(resp.to_string());
            }
        }
    }
}

fn random_query(rng: &mut SplitMix) -> (&'static str, u64, Option<f64>) {
    let name = if rng.below(2) == 0 { "m_dg" } else { "m_hub" };
    let limit = [1, 10, 25, 100, 0][rng.below(5) as usize];
    let min_sim = [None, None, Some(0.8), Some(0.9)][rng.below(4) as usize];
    (name, limit, min_sim)
}

/// The read mix: 1 in 64 a `stats`, 1 in 4 a `batch_query` of 8, the
/// rest single `query`s. Returns the request and its query items.
fn read_request(rng: &mut SplitMix) -> (Json, u64) {
    let r = rng.below(64);
    if r == 0 {
        return (protocol::bare_request("stats"), 0);
    }
    if r % 4 == 1 {
        let items = (0..8)
            .map(|_| {
                let (n, l, m) = random_query(rng);
                protocol::query_item(n, l, m)
            })
            .collect();
        return (protocol::batch_query_request(items), 8);
    }
    let (n, l, m) = random_query(rng);
    (protocol::query_request(n, l, m), 1)
}

/// The mixed phase's read: one `query`.
fn single_query(rng: &mut SplitMix) -> (Json, u64) {
    let (n, l, m) = random_query(rng);
    (protocol::query_request(n, l, m), 1)
}

/// Closed loop on one connection until `stop` says so.
fn read_loop(
    c: &mut Client,
    rng: &mut SplitMix,
    origin: Instant,
    next: fn(&mut SplitMix) -> (Json, u64),
    record: bool,
    stop: &dyn Fn() -> bool,
) -> Result<PhaseOut, String> {
    let mut out = PhaseOut::default();
    while !stop() {
        let (req, items) = next(rng);
        let t = Instant::now();
        let resp = c.call(&req).map_err(|e| format!("read: {e}"))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        out.note(&resp, items);
        out.reads.push(Sample {
            sent: t.duration_since(origin).as_secs_f64(),
            ms,
            req: record.then_some(req),
        });
    }
    Ok(out)
}

/// Read slice `round`: two connections in a closed loop of the read mix
/// for `secs`.
pub fn read_slice(
    s: &Session,
    secs: f64,
    seed: u64,
    round: u64,
    origin: Instant,
    record: bool,
) -> Result<PhaseOut, String> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let results: Vec<Result<PhaseOut, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..READ_CONNS)
            .map(|conn| {
                scope.spawn(move || {
                    let mut c = s.connect()?;
                    let mut rng = SplitMix::stream(seed, READ_STREAM + READ_CONNS * round + conn);
                    read_loop(&mut c, &mut rng, origin, read_request, record, &|| {
                        Instant::now() >= deadline
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("reader panicked".into())))
            .collect()
    });
    let mut out = PhaseOut::default();
    for r in results {
        out.absorb(r?);
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    Ok(out)
}

/// The benchmark's own copy of the sources: generates the delta stream,
/// applies every delta and, when tracing, maintains delta states for the
/// primed mappings so the delta layers get spans.
pub struct Shadow {
    pub reg: SourceRegistry,
    gs: LdsId,
    gs_name: String,
    stream: DeltaStream,
    states: Vec<(String, DeltaMatchState)>,
    repo: MappingRepository,
}

fn title_matcher() -> AttributeMatcher {
    AttributeMatcher::new("title", "title", SimFn::Trigram, THRESHOLD)
        .with_blocking(Blocking::auto_for(&SimFn::Trigram))
}

fn hub_recipe() -> Recipe {
    Recipe::Compose {
        left: "m_dg".into(),
        right: "m_ga".into(),
        f: PathCombine::Min,
        g: PathAgg::Max,
    }
}

impl Shadow {
    pub fn new(s: &Scenario, seed: u64, track_states: bool) -> Result<Shadow, String> {
        let reg = s.registry.clone();
        let gs = s.ids.pub_gs;
        let repo = MappingRepository::new();
        let mut states = Vec::new();
        if track_states {
            let ctx = MatchContext::new(&reg).with_parallelism(seq());
            for (name, d, r) in [("m_dg", s.ids.pub_dblp, gs), ("m_ga", gs, s.ids.pub_acm)] {
                let st = title_matcher()
                    .prime(&ctx, d, r)
                    .map_err(|e| format!("shadow prime {name}: {e}"))?;
                repo.store_as(name, st.mapping().clone());
                states.push((name.to_owned(), st));
            }
            repo.store_derived("m_hub", hub_recipe(), &seq())
                .map_err(|e| format!("shadow compose: {e}"))?;
        }
        let cfg = EvolveConfig {
            seed: SplitMix::stream(seed, 3).next_u64(),
            ..EvolveConfig::with_churn(CHURN)
        };
        Ok(Shadow {
            gs_name: reg.lds(gs).name(),
            stream: DeltaStream::new(cfg, gs),
            reg,
            gs,
            states,
            repo,
        })
    }

    /// Generate the next delta, apply it here, and return its request.
    pub fn next(&mut self) -> Result<Json, String> {
        let delta = self.stream.next_delta(&self.reg);
        let req = protocol::delta_request(&self.gs_name, &delta.ops);
        let applied = span("model.apply_delta", || self.reg.apply_delta(&delta))
            .map_err(|e| format!("shadow apply: {e}"))?;
        if self.states.is_empty() {
            return Ok(req);
        }
        let ctx = MatchContext::new(&self.reg).with_parallelism(seq());
        let mut patches = Vec::new();
        span("core.delta.apply", || -> Result<(), String> {
            for (name, st) in self.states.iter_mut() {
                st.apply(&ctx, &[&applied])
                    .map_err(|e| format!("shadow patch {name}: {e}"))?;
                count("core.delta.rescored", st.last_rescored as u64);
                if st.last_touched() {
                    patches.push((name.clone(), st.mapping().clone()));
                }
            }
            Ok(())
        })?;
        span("core.delta.refresh", || {
            for (name, m) in patches {
                self.repo.patch(name, m);
            }
            self.repo.refresh_stale(&seq())
        })
        .map_err(|e| format!("shadow refresh: {e}"))?;
        Ok(req)
    }

    /// Full re-matches the shadow's delta states fell back to.
    pub fn full_rematches(&self) -> u64 {
        self.states.iter().map(|(_, s)| s.full_rematches()).sum()
    }

    /// Every served mapping recomputed from scratch on the shadow.
    fn rematch(&self, ids: (LdsId, LdsId)) -> Result<Vec<(String, Rows)>, String> {
        let (dblp, acm) = ids;
        let ctx = MatchContext::new(&self.reg).with_parallelism(seq());
        let repo = MappingRepository::new();
        for (name, d, r) in [("m_dg", dblp, self.gs), ("m_ga", self.gs, acm)] {
            let m = title_matcher()
                .execute(&ctx, d, r)
                .map_err(|e| format!("re-match {name}: {e}"))?;
            repo.store_as(name, m);
        }
        repo.store_derived("m_hub", hub_recipe(), &seq())
            .map_err(|e| format!("re-compose: {e}"))?;
        let mut out: Vec<_> = repo
            .snapshot()
            .iter()
            .map(|e| (e.name.clone(), sorted_rows(&e.mapping.table)))
            .collect();
        out.sort();
        Ok(out)
    }
}

/// Mixed slice `round`: one open-loop writer sending `deltas` at
/// [`DELTA_RATE`] beside one closed-loop reader.
pub fn mixed_slice(
    s: &Session,
    deltas: &[Json],
    seed: u64,
    round: u64,
    origin: Instant,
    record: bool,
) -> Result<PhaseOut, String> {
    let done = AtomicBool::new(false);
    let start = Instant::now();
    let (reader, writer) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut c = s.connect()?;
            let mut rng = SplitMix::stream(seed, MIXED_STREAM + round);
            read_loop(&mut c, &mut rng, origin, single_query, record, &|| {
                done.load(Ordering::Relaxed)
            })
        });
        let writer = (|| -> Result<PhaseOut, String> {
            let mut c = s.connect()?;
            let mut out = PhaseOut::default();
            for (i, req) in deltas.iter().enumerate() {
                let due = start + Duration::from_secs_f64(i as f64 / DELTA_RATE);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                out.lag_ms
                    .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
                let resp = c.call(req).map_err(|e| format!("delta {i}: {e}"))?;
                let ms = Instant::now().duration_since(due).as_secs_f64() * 1e3;
                out.note(&resp, 0);
                for m in resp.get("mappings").and_then(Json::as_arr).unwrap_or(&[]) {
                    if m.get("full_rematch").and_then(Json::as_bool) == Some(true) {
                        out.full_rematches += 1;
                    }
                }
                out.writes.push(Sample {
                    sent: sent.duration_since(origin).as_secs_f64(),
                    ms,
                    req: record.then(|| req.clone()),
                });
            }
            Ok(out)
        })();
        done.store(true, Ordering::Relaxed);
        let reader = reader
            .join()
            .unwrap_or_else(|_| Err("reader panicked".into()));
        (reader, writer)
    });
    let mut out = writer?;
    out.elapsed_s = start.elapsed().as_secs_f64();
    out.absorb(reader?);
    Ok(out)
}

/// Results of the tail (checkpoint, untimed deltas, stop) and of the
/// recoveries after it.
#[derive(Debug, Default)]
pub struct TailOut {
    pub checkpoint_ms: f64,
    pub auto_checkpoints: u64,
    pub full_rematches: u64,
    pub recover_s: Vec<f64>,
    pub replayed: u64,
    pub checkpoint_load_ms: f64,
    pub attempted: u64,
    /// The stopped engine's state, which every recovery must reproduce.
    before: EngineState,
}

fn find_u64(j: &Json, key: &str) -> Option<u64> {
    if let Some(v) = j.get(key).and_then(Json::as_u64) {
        return Some(v);
    }
    match j {
        Json::Obj(fields) => fields.iter().find_map(|(_, v)| find_u64(v, key)),
        _ => None,
    }
}

/// Checkpoint, send the untimed tail, stop the server and check the
/// served mappings against a full re-match on the shadow.
pub fn tail(
    s: &mut Session,
    shadow: &Shadow,
    tail: &[Json],
    ids: (LdsId, LdsId),
) -> Result<TailOut, String> {
    let mut out = TailOut::default();
    let mut c = s.connect()?;
    let t = Instant::now();
    let r = c
        .call(&protocol::checkpoint_request())
        .map_err(|e| format!("checkpoint: {e}"))?;
    out.checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    out.attempted += 1;
    if !is_ok(&r) {
        return Err(format!("explicit checkpoint failed: {r}"));
    }
    for (i, req) in tail.iter().enumerate() {
        let r = c.call(req).map_err(|e| format!("tail delta {i}: {e}"))?;
        out.attempted += 1;
        if !is_ok(&r) {
            return Err(format!("tail delta {i} failed: {r}"));
        }
    }
    let stats = c.stats().map_err(|e| format!("stats: {e}"))?;
    out.attempted += 1;
    out.auto_checkpoints = find_u64(&stats, "auto_checkpoints").unwrap_or(0);
    out.full_rematches = stats
        .get("mappings")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| m.get("full_rematches").and_then(Json::as_u64))
        .sum();
    drop(c);
    s.stop()?;

    let before = s.final_state();
    let want = shadow.rematch(ids)?;
    let served: Vec<_> = before
        .mappings
        .iter()
        .map(|(n, _, rows)| (n.clone(), rows.clone()))
        .collect();
    if served != want {
        let sizes = |v: &[(String, Rows)]| -> Vec<(String, usize)> {
            v.iter().map(|(n, r)| (n.clone(), r.len())).collect()
        };
        return Err(format!(
            "served mappings {:?} differ from a full re-match on the shadow {:?}",
            sizes(&served),
            sizes(&want)
        ));
    }

    if let Some(cp) = checkpoint::list(&s.dir)
        .map_err(|e| format!("list checkpoints: {e}"))?
        .last()
    {
        let t = Instant::now();
        let (_, state) = checkpoint::load(&cp.path)?;
        Json::parse(&state).map_err(|e| format!("checkpoint state: {e}"))?;
        out.checkpoint_load_ms = t.elapsed().as_secs_f64() * 1e3;
    }
    out.before = before;
    Ok(out)
}

/// Recover an engine from the stopped session's log, starting from
/// `base`, the registry the server booted with; time it, and check that
/// it replayed exactly the tail and reproduces the state before the stop.
pub fn recover(s: &Session, base: &SourceRegistry, out: &mut TailOut) -> Result<(), String> {
    let (summary, secs) = timed("recover", || {
        let mut e = Engine::new(base.clone(), seq());
        e.recover(&s.dir, policy()).map(|sum| (sum, e))
    });
    let (summary, engine) = summary.map_err(|e| format!("recover: {e}"))?;
    out.recover_s.push(secs);
    out.replayed = summary.replayed as u64;
    if summary.replayed != TAIL_DELTAS {
        return Err(format!(
            "recovery replayed {} records, expected the {TAIL_DELTAS} after the checkpoint",
            summary.replayed
        ));
    }
    if EngineState::of(&engine) != out.before {
        return Err("recovered engine state differs from the state before the stop".into());
    }
    Ok(())
}

/// Per-request costs of the twin replay.
#[derive(Debug, Default)]
pub struct TwinOut {
    /// Client latency minus engine and JSON time, read phase, ms.
    pub frontend_ms: Vec<f64>,
    /// The same residual for reads of the mixed phase, ms.
    pub lock_wait_ms: Vec<f64>,
    pub read_ms: Vec<f64>,
    pub write_ms: Vec<f64>,
    pub snapshot_ms: Vec<f64>,
    pub parse_ms: Vec<f64>,
    pub encode_ms: Vec<f64>,
    pub bytes_out: Vec<f64>,
    pub wal_append_ms: Vec<f64>,
    pub wal_bytes: Vec<f64>,
}

/// Which recorded request a twin replay step repeats.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Read,
    MixedRead,
    Delta,
}

/// Replay the recorded requests in send order on an in-process twin
/// engine, timing the engine, repository snapshot and JSON work of each,
/// and every delta's log append on a separate WAL.
pub fn twin_replay(
    base: &SourceRegistry,
    read: &PhaseOut,
    mixed: &PhaseOut,
    wal_dir: &Path,
) -> Result<TwinOut, String> {
    let mut engine = Engine::new(base.clone(), seq());
    for req in setup_requests() {
        let r = engine.execute(&req);
        if !is_ok(&r) {
            return Err(format!("twin prime: {r}"));
        }
    }
    std::fs::create_dir_all(wal_dir).map_err(|e| format!("twin wal dir: {e}"))?;
    let mut wal =
        Wal::create(wal_dir, RotationPolicy::default()).map_err(|e| format!("twin wal: {e}"))?;
    // Every delta, and at most REPLAY_CAP reads of each phase taken at
    // even steps through the run.
    let mut order: Vec<(&Sample, Kind)> = Vec::new();
    for (phase, kind) in [(read, Kind::Read), (mixed, Kind::MixedRead)] {
        let mut reads: Vec<&Sample> = phase.reads.iter().collect();
        reads.sort_by(|a, b| a.sent.total_cmp(&b.sent));
        let step = reads.len().div_ceil(REPLAY_CAP).max(1);
        order.extend(reads.into_iter().step_by(step).map(|s| (s, kind)));
    }
    order.extend(mixed.writes.iter().map(|s| (s, Kind::Delta)));
    order.sort_by(|a, b| a.0.sent.total_cmp(&b.0.sent));
    let mut out = TwinOut::default();
    let mut id = 0u64;
    for (sample, kind) in order {
        let Some(req) = &sample.req else { continue };
        id += 1;
        set_request(id);
        let ms = |s: f64| s * 1e3;
        let (text, e1) = timed("json.encode", || req.to_string());
        let (parsed, p1) = timed("json.parse", || Json::parse(&text));
        let parsed = parsed.map_err(|e| format!("twin parse: {e}"))?;
        let (resp, eng) = if kind == Kind::Delta {
            let (_, w) = timed("wal.append", || wal.append(text.as_bytes()));
            out.wal_append_ms.push(ms(w));
            out.wal_bytes
                .push(encode_record(id, text.as_bytes()).len() as f64);
            timed("engine.write", || engine.execute(&parsed))
        } else {
            let (_, snap) = timed("core.repository.snapshot", || {
                engine.repository().snapshot()
            });
            out.snapshot_ms.push(ms(snap));
            timed("engine.read", || engine.execute_read(&parsed))
        };
        let (resp_text, e2) = timed("json.encode", || resp.to_string());
        let (_, p2) = timed("json.parse", || Json::parse(&resp_text));
        out.parse_ms.push(ms(p1 + p2));
        out.encode_ms.push(ms(e1 + e2));
        if kind == Kind::Delta {
            out.write_ms.push(ms(eng));
            continue;
        }
        out.read_ms.push(ms(eng));
        out.bytes_out.push((resp_text.len() + 4) as f64);
        let residual = sample.ms - ms(eng + p1 + p2 + e1 + e2);
        if kind == Kind::MixedRead {
            out.lock_wait_ms.push(residual);
        } else {
            out.frontend_ms.push(residual);
        }
    }
    set_request(0);
    Ok(out)
}
