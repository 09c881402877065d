//! TCP server: accept loop, per-connection threads, graceful shutdown.
//!
//! Plain `std::net` — a listener thread accepts connections and hands
//! each one to its own handler thread (the service holds a handful of
//! long-lived clients, not ten thousand; thread-per-connection keeps
//! the whole stack dependency-free and easy to reason about). The
//! engines sit behind a [`ShardRouter`]: with one shard (the default)
//! every mutating command serializes through that shard's write lock —
//! so WAL order equals apply order — while `query`/`stats`/`dump` run
//! concurrently under the read lock against repository snapshots. With
//! `--shards N` the router places mutating commands by source ownership
//! and scatters reads, so writes to distinct shards no longer serialize
//! behind one lock (see the [`crate::shard`] module docs and
//! `docs/ARCHITECTURE.md` for the routing invariants).
//!
//! Shutdown: a `shutdown` command (or [`ServerHandle::stop`]) sets a
//! stop flag; the nonblocking accept loop notices within ~15 ms, stops
//! accepting, and handler threads drain at their next read timeout.
//!
//! ## Admission control
//!
//! The server refuses work it cannot serve promptly instead of queueing
//! it unboundedly (see [`Limits`]): connections past the cap get one
//! `busy` refusal frame and a close; requests past the per-class,
//! **per-shard** in-flight budget (mutating commands queue on a shard's
//! write lock, reads on its read lock) get an `overloaded` response
//! with a `retry_after_ms` hint while the connection stays usable. A
//! dedicated background thread walks the shards and publishes
//! auto-checkpoints when a shard's durability thresholds are exceeded,
//! off the delta path.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::engine::{err_response, Engine};
use crate::frame::write_frame;
use crate::json::Json;
use crate::shard::{self, ComposePlan, ShardRouter};

/// How long handler threads block in `read` before re-checking the stop
/// flag (also bounds shutdown latency).
const READ_POLL: Duration = Duration::from_millis(250);

/// How long a peer may stall *inside* a frame (header or payload
/// started, no further bytes) before the connection is dropped. Bounds
/// the damage of a client that dies mid-write without closing.
const MID_FRAME_STALL: Duration = Duration::from_secs(30);

/// How often the background checkpointer re-checks the durability
/// thresholds (a cheap read-lock peek per shard; also bounds its
/// shutdown latency).
const CHECKPOINT_POLL: Duration = Duration::from_millis(100);

/// How long the background checkpointer backs off after a *failed*
/// checkpoint, so a persistently failing one (poisoned WAL, full disk)
/// does not spam a warning per poll interval.
const CHECKPOINT_BACKOFF: Duration = Duration::from_secs(5);

/// Admission-control limits. The defaults are generous for a service
/// holding a handful of long-lived clients; tests and the overload
/// harness shrink them to force the refusal paths deterministically.
/// The write/read budgets apply **per shard**.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Concurrently served connections; further connects get one `busy`
    /// refusal frame and an immediate close.
    pub max_connections: u64,
    /// Mutating commands in flight per shard (executing, or queued on
    /// the shard's write lock) before new ones are answered
    /// `overloaded`.
    pub max_pending_writes: u64,
    /// Read-only commands in flight per shard before new ones are
    /// answered `overloaded`.
    pub max_pending_reads: u64,
    /// Retry hint attached to `busy`/`overloaded` responses.
    pub retry_after_ms: u64,
    /// Enable the `debug_*` fault-injection commands (`debug_panic`,
    /// `debug_sleep_write`) used by the poison-recovery and overload
    /// tests. The CLI gates this behind `MOMA_DEBUG_COMMANDS=1`.
    pub debug_commands: bool,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_connections: 256,
            max_pending_writes: 64,
            max_pending_reads: 256,
            retry_after_ms: 100,
            debug_commands: false,
        }
    }
}

/// State shared between the accept loop and handler threads.
pub struct Shared {
    /// The shard router: engines, per-shard admission counters and the
    /// deterministic ownership index.
    pub router: ShardRouter,
    limits: Limits,
    stop: AtomicBool,
    started: Instant,
    requests: AtomicU64,
    errors: AtomicU64,
    connections: AtomicU64,
    active_connections: AtomicU64,
    busy_refusals: AtomicU64,
    overloaded_rejections: AtomicU64,
    auto_checkpoints: AtomicU64,
    /// Set when a handler panicked while holding a write lock (the lock
    /// is recovered and serving continues, but state deserves an
    /// operator's look) — or when a replica delta diverged.
    degraded: AtomicBool,
}

impl Shared {
    /// Ask the server to stop; accept loop and handlers drain promptly.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Whether a stop has been requested.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// The configured admission limits.
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// Record that a poisoned engine lock was recovered: the poisoned
    /// flag becomes a `degraded` marker in `stats` instead of a panic
    /// cascade across every later connection.
    fn note_recovered(&self, recovered: bool) {
        if recovered {
            self.degraded.store(true, Ordering::Relaxed);
        }
    }

    fn debug_write_cmd(&self, cmd: &str) -> bool {
        self.limits.debug_commands && matches!(cmd, "debug_panic" | "debug_sleep_write")
    }
}

/// RAII in-flight slot for one admission class; dropping it releases
/// the slot.
struct Admission<'a>(&'a AtomicU64);

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Try to take an in-flight slot; `None` means the budget is exhausted
/// and the request must be refused.
fn admit(counter: &AtomicU64, budget: u64) -> Option<Admission<'_>> {
    let prev = counter.fetch_add(1, Ordering::AcqRel);
    if prev >= budget {
        counter.fetch_sub(1, Ordering::AcqRel);
        None
    } else {
        Some(Admission(counter))
    }
}

/// Take a write slot on shard `i`.
fn admit_write(shared: &Shared, i: usize) -> Option<Admission<'_>> {
    admit(
        &shared.router.shard(i).inflight_writes,
        shared.limits.max_pending_writes,
    )
}

/// Take a read slot on shard `i`.
fn admit_read(shared: &Shared, i: usize) -> Option<Admission<'_>> {
    admit(
        &shared.router.shard(i).inflight_reads,
        shared.limits.max_pending_reads,
    )
}

/// RAII active-connection slot, paired with the accept loop's
/// increment; dropping it (handler return or panic) frees the slot.
struct ConnSlot(Arc<Shared>);

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.0.active_connections.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Handle to a server running on a background thread (embedded mode,
/// used by `moma_load` and the end-to-end tests).
pub struct ServerHandle {
    /// Bound address (useful with port 0).
    pub addr: SocketAddr,
    shared: Arc<Shared>,
    thread: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// Shared server state.
    pub fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Request a stop and wait for the accept loop to drain.
    pub fn stop(self) {
        self.shared.request_stop();
        let _ = self.thread.join();
    }
}

/// Bind `addr` and serve on a background thread with default
/// [`Limits`].
pub fn spawn(engine: Engine, addr: &str) -> io::Result<ServerHandle> {
    spawn_with_limits(engine, addr, Limits::default())
}

/// Bind `addr` and serve on a background thread with explicit
/// admission limits.
pub fn spawn_with_limits(engine: Engine, addr: &str, limits: Limits) -> io::Result<ServerHandle> {
    spawn_sharded(vec![engine], addr, limits)
}

/// Bind `addr` and serve `engines` (one per shard) on a background
/// thread. With a single engine this is exactly [`spawn_with_limits`];
/// with more, commands are routed as described in [`crate::shard`].
pub fn spawn_sharded(engines: Vec<Engine>, addr: &str, limits: Limits) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(new_shared(engines, limits));
    let shared2 = Arc::clone(&shared);
    let thread = std::thread::Builder::new()
        .name("moma-accept".into())
        .spawn(move || accept_loop(listener, shared2))?;
    Ok(ServerHandle {
        addr,
        shared,
        thread,
    })
}

/// Bind `addr` and serve `engines` (one per shard) on the current
/// thread until shutdown.
pub fn run_sharded(engines: Vec<Engine>, addr: &str, limits: Limits) -> io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    let shards = engines.len();
    eprintln!(
        "moma serve: listening on {} ({shards} shard{})",
        listener.local_addr()?,
        if shards == 1 { "" } else { "s" }
    );
    accept_loop(listener, Arc::new(new_shared(engines, limits)));
    Ok(())
}

fn new_shared(engines: Vec<Engine>, limits: Limits) -> Shared {
    Shared {
        router: ShardRouter::new(engines),
        limits,
        stop: AtomicBool::new(false),
        started: Instant::now(),
        requests: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        connections: AtomicU64::new(0),
        active_connections: AtomicU64::new(0),
        busy_refusals: AtomicU64::new(0),
        overloaded_rejections: AtomicU64::new(0),
        auto_checkpoints: AtomicU64::new(0),
        degraded: AtomicBool::new(false),
    }
}

/// Write one `busy` refusal frame and let the connection drop.
fn refuse_busy(shared: &Shared, stream: &mut TcpStream, why: &str) {
    shared.busy_refusals.fetch_add(1, Ordering::Relaxed);
    let resp = Json::obj(vec![
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::Str(format!(
                "busy: {why}; retry after {} ms",
                shared.limits.retry_after_ms
            )),
        ),
        ("busy", Json::Bool(true)),
        ("retry_after_ms", Json::Uint(shared.limits.retry_after_ms)),
    ]);
    let _ = write_frame(stream, resp.to_string().as_bytes());
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    listener
        .set_nonblocking(true)
        .expect("set_nonblocking on listener");
    // The background checkpointer lives exactly as long as the accept
    // loop: one thread, joined below — it can never run concurrently
    // with itself or with shutdown teardown.
    let checkpointer = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("moma-checkpoint".into())
            .spawn(move || checkpoint_loop(shared))
            .ok()
    };
    let mut handlers = Vec::new();
    while !shared.stopping() {
        match listener.accept() {
            Ok((mut stream, peer)) => {
                let active = shared.active_connections.fetch_add(1, Ordering::AcqRel);
                if active >= shared.limits.max_connections {
                    shared.active_connections.fetch_sub(1, Ordering::AcqRel);
                    refuse_busy(&shared, &mut stream, "connection limit reached");
                    continue;
                }
                shared.connections.fetch_add(1, Ordering::Relaxed);
                // Keep a refusal handle: if the thread spawn below
                // fails, `stream` is already gone into the dropped
                // closure and the peer still deserves a frame.
                let refusal = stream.try_clone().ok();
                let slot = ConnSlot(Arc::clone(&shared));
                let shared2 = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name(format!("moma-conn-{peer}"))
                    .spawn(move || {
                        let _slot = slot;
                        handle_connection(stream, shared2)
                    });
                match spawned {
                    Ok(h) => handlers.push(h),
                    // Thread exhaustion must not kill the accept loop
                    // (and with it the whole server): refuse this
                    // connection and keep serving the rest.
                    Err(e) => {
                        eprintln!("moma serve: refusing connection from {peer}: spawn failed: {e}");
                        if let Some(mut s) = refusal {
                            refuse_busy(&shared, &mut s, "out of handler threads");
                        }
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(15));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                eprintln!("moma serve: accept error: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        handlers.retain(|h| !h.is_finished());
    }
    for h in handlers {
        let _ = h.join();
    }
    if let Some(cp) = checkpointer {
        let _ = cp.join();
    }
}

/// Background auto-checkpointer: walks the shards, peeks at each one's
/// durability thresholds under its read lock and, only when due, takes
/// that shard's write lock to publish a checkpoint — so checkpoint cost
/// never rides on a delta's response time, and a checkpoint on one
/// shard never blocks writes to another. Single-threaded by
/// construction and joined by the accept loop, so it cannot overlap
/// itself or outlive shutdown. The `MOMA_CHECKPOINT_FAULT_DELAY_MS`
/// fault injection applies here the same as to explicit `checkpoint`
/// commands (it lives in `checkpoint::publish`).
fn checkpoint_loop(shared: Arc<Shared>) {
    while !shared.stopping() {
        let mut failed = false;
        for i in 0..shared.router.len() {
            let due = {
                let (engine, recovered) = shared.router.engine_read(i);
                shared.note_recovered(recovered);
                engine.checkpoint_due()
            };
            if !due {
                continue;
            }
            // Re-check under the write lock: a concurrent explicit
            // `checkpoint` command may have run since the peek. The
            // counter is bumped while the lock is still held so a
            // stats reader never sees the new checkpoint_seq without
            // the matching auto_checkpoints count.
            let result = {
                let (mut engine, recovered) = shared.router.engine_write(i);
                shared.note_recovered(recovered);
                if engine.checkpoint_due() {
                    let r = engine.run_auto_checkpoint();
                    if r.is_ok() {
                        shared.auto_checkpoints.fetch_add(1, Ordering::Relaxed);
                    }
                    Some(r)
                } else {
                    None
                }
            };
            if let Some(Err(e)) = result {
                eprintln!("moma serve: warning: background checkpoint failed on shard {i}: {e}");
                failed = true;
            }
        }
        if failed {
            let deadline = Instant::now() + CHECKPOINT_BACKOFF;
            while Instant::now() < deadline && !shared.stopping() {
                std::thread::sleep(CHECKPOINT_POLL);
            }
            continue;
        }
        std::thread::sleep(CHECKPOINT_POLL);
    }
}

/// What the handler read from the wire.
enum Next {
    Frame(Vec<u8>),
    Eof,
    /// Read timeout with no frame started — re-check the stop flag.
    Idle,
}

/// Error returned when a mid-frame retry must give up (server stopping
/// or the peer stalled past [`MID_FRAME_STALL`]).
fn mid_frame_abort(shared: &Shared, progress: &Instant, what: &str) -> Option<io::Error> {
    // A server stop must not wait on a half-written frame: the handler
    // thread is joined by the accept loop and would hang shutdown.
    if shared.stopping() {
        return Some(io::Error::new(
            io::ErrorKind::ConnectionAborted,
            format!("server stopping with partial frame {what}"),
        ));
    }
    if progress.elapsed() >= MID_FRAME_STALL {
        return Some(io::Error::new(
            io::ErrorKind::TimedOut,
            format!("peer stalled mid-frame ({what})"),
        ));
    }
    None
}

/// Like [`read_frame`], but a read timeout *between* frames surfaces as
/// [`Next::Idle`] instead of an error. A timeout after the frame header
/// has started keeps reading (the peer is mid-write) — up to the stop
/// flag or the [`MID_FRAME_STALL`] deadline, so a peer that stalls
/// mid-frame can neither pin this handler thread forever nor block
/// shutdown (the accept loop joins every handler).
///
/// [`read_frame`]: crate::frame::read_frame
fn next_frame(stream: &mut TcpStream, shared: &Shared) -> io::Result<Next> {
    use io::Read;
    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    let mut progress = Instant::now();
    while filled < 4 {
        match stream.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(Next::Eof),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame header",
                ))
            }
            Ok(n) => {
                filled += n;
                progress = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if filled == 0
                    && matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
            {
                return Ok(Next::Idle)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if let Some(abort) = mid_frame_abort(shared, &progress, "header") {
                    return Err(abort);
                }
            }
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > crate::frame::MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len];
    let mut got = 0usize;
    let mut progress = Instant::now();
    while got < len {
        match stream.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame payload",
                ))
            }
            Ok(n) => {
                got += n;
                progress = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if let Some(abort) = mid_frame_abort(shared, &progress, "payload") {
                    return Err(abort);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(Next::Frame(payload))
}

fn handle_connection(mut stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    loop {
        let payload = match next_frame(&mut stream, &shared) {
            Ok(Next::Frame(p)) => p,
            Ok(Next::Eof) => return,
            Ok(Next::Idle) => {
                if shared.stopping() {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        shared.requests.fetch_add(1, Ordering::Relaxed);
        let resp = dispatch(&payload, &shared);
        if resp.get("ok").and_then(Json::as_bool) != Some(true) {
            shared.errors.fetch_add(1, Ordering::Relaxed);
        }
        let stop_after = resp.get("stopping").and_then(Json::as_bool) == Some(true);
        if write_frame(&mut stream, resp.to_string().as_bytes()).is_err() {
            return;
        }
        if stop_after {
            return;
        }
    }
}

/// `overloaded` response for a request past its class's in-flight
/// budget. The connection stays usable — the client is expected to
/// back off for `retry_after_ms` and resend.
fn overloaded_response(shared: &Shared, class: &str) -> Json {
    shared.overloaded_rejections.fetch_add(1, Ordering::Relaxed);
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::Str(format!(
                "overloaded: too many in-flight {class} commands; retry after {} ms",
                shared.limits.retry_after_ms
            )),
        ),
        ("overloaded", Json::Bool(true)),
        ("retry_after_ms", Json::Uint(shared.limits.retry_after_ms)),
    ])
}

/// Response for a handler that panicked mid-command. The engine lock is
/// recovered (see [`ShardRouter::engine_write`]) and serving continues,
/// but `stats` reports `degraded: true` from here on.
fn internal_error_response(shared: &Shared) -> Json {
    shared.degraded.store(true, Ordering::Relaxed);
    err_response("internal error: command handler panicked; engine marked degraded (see stats)")
}

/// Clone a request object with one extra field appended.
fn with_field(req: &Json, key: &str, value: Json) -> Json {
    let mut fields = match req {
        Json::Obj(fields) => fields.clone(),
        _ => Vec::new(),
    };
    fields.push((key.to_owned(), value));
    Json::Obj(fields)
}

/// Append `(key, value)` to an object response (no-op otherwise).
fn annotate(mut resp: Json, key: &str, value: Json) -> Json {
    if let Json::Obj(fields) = &mut resp {
        fields.push((key.to_owned(), value));
    }
    resp
}

fn response_ok(resp: &Json) -> bool {
    resp.get("ok").and_then(Json::as_bool) == Some(true)
}

fn dispatch(payload: &[u8], shared: &Shared) -> Json {
    let req = match std::str::from_utf8(payload)
        .map_err(|e| e.to_string())
        .and_then(Json::parse)
    {
        Ok(req) => req,
        Err(e) => return err_response(&format!("bad request: {e}")),
    };
    let Some(cmd) = req.str_field("cmd") else {
        return err_response("request missing `cmd`");
    };
    match cmd {
        "shutdown" => {
            shared.request_stop();
            Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("stopping", Json::Bool(true)),
            ])
        }
        "stats" => stats_response(shared, &req),
        c if Engine::needs_write_lock(c) || shared.debug_write_cmd(c) => {
            write_path(c, &req, shared)
        }
        _ => read_path(&req, shared),
    }
}

/// `stats`: gather every shard's engine stats (each under its own read
/// admission + lock, in ascending shard order), merge them when sharded
/// and append the server-level counters.
fn stats_response(shared: &Shared, req: &Json) -> Json {
    let n = shared.router.len();
    let mut per_shard = Vec::with_capacity(n);
    for i in 0..n {
        let Some(_slot) = admit_read(shared, i) else {
            return overloaded_response(shared, "read");
        };
        let (engine, recovered) = shared.router.engine_read(i);
        shared.note_recovered(recovered);
        per_shard.push(engine.execute_read(req));
    }
    let mut resp = if n == 1 {
        per_shard.pop().expect("one shard")
    } else {
        shard::merge_stats(&shared.router, &per_shard)
    };
    if let Json::Obj(fields) = &mut resp {
        fields.push((
            "uptime_ms".to_owned(),
            Json::Uint(shared.started.elapsed().as_millis() as u64),
        ));
        fields.push((
            "requests".to_owned(),
            Json::Uint(shared.requests.load(Ordering::Relaxed)),
        ));
        fields.push((
            "request_errors".to_owned(),
            Json::Uint(shared.errors.load(Ordering::Relaxed)),
        ));
        fields.push((
            "connections".to_owned(),
            Json::Uint(shared.connections.load(Ordering::Relaxed)),
        ));
        fields.push((
            "active_connections".to_owned(),
            Json::Uint(shared.active_connections.load(Ordering::Relaxed)),
        ));
        fields.push((
            "busy_refusals".to_owned(),
            Json::Uint(shared.busy_refusals.load(Ordering::Relaxed)),
        ));
        fields.push((
            "overloaded_rejections".to_owned(),
            Json::Uint(shared.overloaded_rejections.load(Ordering::Relaxed)),
        ));
        fields.push((
            "auto_checkpoints".to_owned(),
            Json::Uint(shared.auto_checkpoints.load(Ordering::Relaxed)),
        ));
        fields.push((
            "shard_count".to_owned(),
            Json::Uint(shared.router.len() as u64),
        ));
        fields.push((
            "degraded".to_owned(),
            Json::Bool(shared.degraded.load(Ordering::Relaxed)),
        ));
    }
    resp
}

/// Run a read-only request on shard `i` under its read admission slot.
fn run_read_on(shared: &Shared, i: usize, req: &Json) -> Json {
    let Some(_slot) = admit_read(shared, i) else {
        return overloaded_response(shared, "read");
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let (engine, recovered) = shared.router.engine_read(i);
        shared.note_recovered(recovered);
        engine.execute_read(req)
    }));
    match outcome {
        Ok(resp) => resp,
        Err(_) => internal_error_response(shared),
    }
}

/// The router's "unknown mapping" error — same shape as the engine's,
/// so clients see one error grammar regardless of shard count.
fn unknown_mapping_response(shared: &Shared, name: &str) -> Json {
    let known = shared.router.known_mappings();
    let names: Vec<String> = known.iter().map(|(n, _)| n.clone()).collect();
    err_response(&format!(
        "unknown mapping `{name}` (have: {})",
        if names.is_empty() {
            "none".to_owned()
        } else {
            names.join(", ")
        }
    ))
}

fn read_path(req: &Json, shared: &Shared) -> Json {
    if shared.router.is_single() {
        return run_read_on(shared, 0, req);
    }
    let cmd = req.str_field("cmd").unwrap_or_default();
    match cmd {
        "ping" => Json::obj(vec![("ok", Json::Bool(true))]),
        "query" => {
            let Some(name) = req.str_field("name") else {
                return err_response("query request missing `name`");
            };
            match shared.router.mapping_shard(name) {
                Some(i) => annotate(run_read_on(shared, i, req), "shard", Json::Uint(i as u64)),
                None => unknown_mapping_response(shared, name),
            }
        }
        "batch_query" => sharded_batch_query(shared, req),
        "dump" => sharded_dump(shared, req),
        // Anything else lands on shard 0 for the canonical error
        // message (`unknown command ...`).
        _ => run_read_on(shared, 0, req),
    }
}

/// Sharded `batch_query`: group items by their mapping's shard, visit
/// shards in ascending order (one read admission + lock acquisition
/// per shard), and reassemble the per-item results in request order.
fn sharded_batch_query(shared: &Shared, req: &Json) -> Json {
    let Some(Json::Arr(items)) = req.get("items") else {
        return err_response("batch_query request missing `items` array");
    };
    if items.is_empty() {
        return err_response("batch_query needs a non-empty `items` array");
    }
    let mut results: Vec<Option<Json>> = vec![None; items.len()];
    let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for (k, item) in items.iter().enumerate() {
        match item.str_field("name") {
            None => results[k] = Some(err_response("query request missing `name`")),
            Some(name) => match shared.router.mapping_shard(name) {
                Some(i) => groups.entry(i).or_default().push(k),
                None => results[k] = Some(unknown_mapping_response(shared, name)),
            },
        }
    }
    for (i, idxs) in groups {
        let Some(_slot) = admit_read(shared, i) else {
            return overloaded_response(shared, "read");
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let (engine, recovered) = shared.router.engine_read(i);
            shared.note_recovered(recovered);
            idxs.iter()
                .map(|&k| {
                    let q = with_field(&items[k], "cmd", Json::Str("query".into()));
                    (k, engine.execute_read(&q))
                })
                .collect::<Vec<_>>()
        }));
        match outcome {
            Ok(pairs) => {
                for (k, resp) in pairs {
                    results[k] = Some(annotate(resp, "shard", Json::Uint(i as u64)));
                }
            }
            Err(_) => return internal_error_response(shared),
        }
    }
    let results: Vec<Json> = results
        .into_iter()
        .map(|r| r.expect("every batch_query item answered"))
        .collect();
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("count", Json::Uint(results.len() as u64)),
        ("results", Json::Arr(results)),
    ])
}

/// Sharded `dump`: each shard persists into `dir/shard.<i>/` (its own
/// deterministic manifest included), and the coordinator writes a
/// top-level `manifest.tsv` with the aggregate command counters — so an
/// N-shard recovered state remains byte-comparable to a clean N-shard
/// run with `diff -r`.
fn sharded_dump(shared: &Shared, req: &Json) -> Json {
    let Some(dir) = req.str_field("dir") else {
        return err_response("dump request missing `dir`");
    };
    if let Err(e) = std::fs::create_dir_all(dir) {
        return err_response(&format!("create {dir}: {e}"));
    }
    let n = shared.router.len();
    let mut total_mappings = 0u64;
    let mut sums = [0u64; 4];
    let mut shard_lines = String::new();
    for i in 0..n {
        let Some(_slot) = admit_read(shared, i) else {
            return overloaded_response(shared, "read");
        };
        let sub = format!("{dir}/shard.{i}");
        let sub_req = with_field(req, "dir", Json::Str(sub.clone()));
        // `with_field` appends, but `str_field` returns the first
        // occurrence — rebuild the request instead.
        let sub_req = match sub_req {
            Json::Obj(fields) => Json::Obj(
                fields
                    .into_iter()
                    .filter(|(k, _)| k != "dir")
                    .chain(std::iter::once(("dir".to_owned(), Json::Str(sub.clone()))))
                    .collect(),
            ),
            other => other,
        };
        let (engine, recovered) = shared.router.engine_read(i);
        shared.note_recovered(recovered);
        let resp = engine.execute_read(&sub_req);
        if !response_ok(&resp) {
            return annotate(resp, "shard", Json::Uint(i as u64));
        }
        let mappings = resp.get("mappings").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        total_mappings += mappings;
        let counts = engine.command_counts();
        sums[0] += counts.matches;
        sums[1] += counts.composes;
        sums[2] += counts.deltas;
        sums[3] += counts.repl_deltas;
        shard_lines.push_str(&format!(
            "shard\t{i}\t{mappings}\t{}\t{}\t{}\t{}\n",
            counts.matches, counts.composes, counts.deltas, counts.repl_deltas
        ));
    }
    let mut manifest = String::from("# moma shard dump manifest\n");
    manifest.push_str(&format!("shards\t{n}\n"));
    manifest.push_str(&format!(
        "commands\t{}\t{}\t{}\t{}\n",
        sums[0], sums[1], sums[2], sums[3]
    ));
    manifest.push_str(&shard_lines);
    let path = std::path::Path::new(dir).join("manifest.tsv");
    if let Err(e) = std::fs::write(&path, manifest) {
        return err_response(&format!("write {}: {e}", path.display()));
    }
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("dir", Json::Str(dir.into())),
        ("shards", Json::Uint(n as u64)),
        ("mappings", Json::Num(total_mappings as f64)),
    ])
}

fn write_path(c: &str, req: &Json, shared: &Shared) -> Json {
    // `debug_sleep_write` occupies its admission slot without touching
    // an engine lock: it models a slow writer filling the queue, so
    // overload tests can saturate the write budget while reads keep
    // answering. Debug commands always target shard 0.
    if c == "debug_sleep_write" || c == "debug_panic" {
        let Some(_slot) = admit_write(shared, 0) else {
            return overloaded_response(shared, "mutating");
        };
        if c == "debug_sleep_write" {
            let ms = req
                .get("ms")
                .and_then(Json::as_u64)
                .unwrap_or(250)
                .min(10_000);
            std::thread::sleep(Duration::from_millis(ms));
            return Json::obj(vec![("ok", Json::Bool(true)), ("slept_ms", Json::Uint(ms))]);
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let (_engine, recovered) = shared.router.engine_write(0);
            shared.note_recovered(recovered);
            panic!("debug_panic: injected handler panic");
        }));
        let _: Result<(), _> = outcome;
        return internal_error_response(shared);
    }
    if shared.router.is_single() {
        let Some(_slot) = admit_write(shared, 0) else {
            return overloaded_response(shared, "mutating");
        };
        // A panicked handler must not take the server down (or poison
        // every later request): catch it, answer an `internal_error`,
        // and let the router recover the lock next time around.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let (mut engine, recovered) = shared.router.engine_write(0);
            shared.note_recovered(recovered);
            engine.execute(req)
        }));
        return match outcome {
            Ok(resp) => resp,
            Err(_) => internal_error_response(shared),
        };
    }
    match c {
        "checkpoint" => sharded_checkpoint(shared, req),
        "match" => route_match(shared, req),
        "compose" => route_compose(shared, req),
        "delta" => route_delta(shared, req),
        "batch_delta" => route_batch_delta(shared, req),
        // `install` records are written by the router itself (and by
        // WAL replay); accepting them from the wire would bypass the
        // ownership index.
        "install" => err_response("`install` is internal to the shard router"),
        other => err_response(&format!("`{other}` is not routable")),
    }
}

/// `checkpoint` on every shard, ascending; the response aggregates the
/// per-shard sequence numbers (their sum is what the `wal.seq` /
/// `wal.checkpoint_seq` stats aggregates count).
fn sharded_checkpoint(shared: &Shared, req: &Json) -> Json {
    let n = shared.router.len();
    let mut per_shard = Vec::with_capacity(n);
    let mut seq_sum = 0u64;
    for i in 0..n {
        let Some(_slot) = admit_write(shared, i) else {
            return overloaded_response(shared, "mutating");
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let (mut engine, recovered) = shared.router.engine_write(i);
            shared.note_recovered(recovered);
            engine.execute(req)
        }));
        let resp = match outcome {
            Ok(resp) => resp,
            Err(_) => return internal_error_response(shared),
        };
        if !response_ok(&resp) {
            return annotate(resp, "shard", Json::Uint(i as u64));
        }
        seq_sum += resp.get("seq").and_then(Json::as_u64).unwrap_or(0);
        per_shard.push(annotate(resp, "shard", Json::Uint(i as u64)));
    }
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("seq", Json::Uint(seq_sum)),
        ("shards", Json::Arr(per_shard)),
    ])
}

fn route_match(shared: &Shared, req: &Json) -> Json {
    let Some(name) = req.str_field("name") else {
        return err_response("match request missing `name`");
    };
    let Some(domain) = req.str_field("domain") else {
        return err_response("match request missing `domain`");
    };
    let Some(range) = req.str_field("range") else {
        return err_response("match request missing `range`");
    };
    let hint = req.get("shard").and_then(Json::as_u64).map(|v| v as usize);
    let target = match shared.router.plan_match(domain, range, hint) {
        Ok(t) => t,
        Err(e) => return err_response(&e),
    };
    let Some(_slot) = admit_write(shared, target) else {
        return overloaded_response(shared, "mutating");
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let (mut engine, recovered) = shared.router.engine_write(target);
        shared.note_recovered(recovered);
        engine.execute(req)
    }));
    match outcome {
        Ok(resp) => {
            if response_ok(&resp) {
                shared.router.note_match(name, domain, range, target);
            }
            annotate(resp, "shard", Json::Uint(target as u64))
        }
        Err(_) => internal_error_response(shared),
    }
}

fn route_compose(shared: &Shared, req: &Json) -> Json {
    let Some(name) = req.str_field("name") else {
        return err_response("compose request missing `name`");
    };
    let Some(left) = req.str_field("left") else {
        return err_response("compose request missing `left`");
    };
    let Some(right) = req.str_field("right") else {
        return err_response("compose request missing `right`");
    };
    match shared.router.plan_compose(left, right) {
        Err(e) => err_response(&e),
        Ok(ComposePlan::Single(i)) => {
            let Some(_slot) = admit_write(shared, i) else {
                return overloaded_response(shared, "mutating");
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let (mut engine, recovered) = shared.router.engine_write(i);
                shared.note_recovered(recovered);
                engine.execute(req)
            }));
            match outcome {
                Ok(resp) => {
                    if response_ok(&resp) {
                        shared.router.note_mapping(name, i);
                    }
                    annotate(resp, "shard", Json::Uint(i as u64))
                }
                Err(_) => internal_error_response(shared),
            }
        }
        Ok(ComposePlan::Cross {
            left: ls,
            right: rs,
            install,
        }) => cross_shard_compose(shared, req, name, left, right, ls, rs, install),
    }
}

/// The coordinator's gather-then-compute path: read-lock each input's
/// shard in turn (never both at once — cheap Arc clones make holding
/// two shard locks unnecessary), compute the compose locally with the
/// exact single-shard recipe evaluation, then log the *result* as an
/// `install` record on the left input's shard. The installed mapping is
/// a point-in-time snapshot of its inputs; the response records their
/// versions so a client can detect staleness and re-compose.
#[allow(clippy::too_many_arguments)]
fn cross_shard_compose(
    shared: &Shared,
    req: &Json,
    name: &str,
    left: &str,
    right: &str,
    ls: usize,
    rs: usize,
    install: usize,
) -> Json {
    let f = req.str_field("f").unwrap_or("min").to_owned();
    let g = req.str_field("g").unwrap_or("max").to_owned();
    let (f, g) = match (
        crate::engine::parse_combine(&f),
        crate::engine::parse_agg(&g),
    ) {
        (Ok(f), Ok(g)) => (f, g),
        (Err(e), _) | (_, Err(e)) => return err_response(&e),
    };
    // Gather: clone each input's mapping Arc plus the metadata the
    // install record needs, one shard at a time.
    let gather = |i: usize,
                  mapping_name: &str|
     -> Result<
        (
            std::sync::Arc<moma_core::Mapping>,
            u64,
            String,
            String,
            moma_core::exec::Parallelism,
        ),
        Json,
    > {
        let Some(_slot) = admit_read(shared, i) else {
            return Err(overloaded_response(shared, "read"));
        };
        let (engine, recovered) = shared.router.engine_read(i);
        shared.note_recovered(recovered);
        let Some(m) = engine.repository().get(mapping_name) else {
            return Err(err_response(&format!(
                "unknown mapping `{mapping_name}` on shard {i} (routing index stale?)"
            )));
        };
        let version = engine.repository().version(mapping_name).unwrap_or(0);
        let domain_name = engine.registry().lds(m.domain).name();
        let range_name = engine.registry().lds(m.range).name();
        Ok((m, version, domain_name, range_name, engine.parallelism()))
    };
    let (left_map, left_ver, left_domain, _left_range, par) = match gather(ls, left) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let (right_map, right_ver, _right_domain, right_range, _) = match gather(rs, right) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let (rows, assoc) = match shard::compose_gathered(&left_map, &right_map, f, g, &par) {
        Ok(v) => v,
        Err(e) => return err_response(&e),
    };
    let rows_json: Vec<Json> = rows
        .iter()
        .map(|&(d, r, sim)| {
            Json::Arr(vec![
                Json::Num(d as f64),
                Json::Num(r as f64),
                Json::Num(sim),
            ])
        })
        .collect();
    let mut install_fields = vec![
        ("cmd".to_owned(), Json::Str("install".into())),
        ("name".to_owned(), Json::Str(name.into())),
        ("domain".to_owned(), Json::Str(left_domain)),
        ("range".to_owned(), Json::Str(right_range)),
        ("rows".to_owned(), Json::Arr(rows_json)),
        (
            "inputs".to_owned(),
            Json::Arr(vec![
                Json::Arr(vec![Json::Str(left.into()), Json::Uint(left_ver)]),
                Json::Arr(vec![Json::Str(right.into()), Json::Uint(right_ver)]),
            ]),
        ),
    ];
    if let Some(t) = assoc {
        install_fields.push(("assoc".to_owned(), Json::Str(t)));
    }
    let install_req = Json::Obj(install_fields);
    let Some(_slot) = admit_write(shared, install) else {
        return overloaded_response(shared, "mutating");
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let (mut engine, recovered) = shared.router.engine_write(install);
        shared.note_recovered(recovered);
        engine.execute(&install_req)
    }));
    match outcome {
        Ok(resp) => {
            if !response_ok(&resp) {
                return resp;
            }
            shared.router.note_mapping(name, install);
            let resp = annotate(resp, "shard", Json::Uint(install as u64));
            let resp = annotate(resp, "cross_shard", Json::Bool(true));
            let resp = annotate(resp, "left_shard", Json::Uint(ls as u64));
            let resp = annotate(resp, "right_shard", Json::Uint(rs as u64));
            annotate(
                resp,
                "inputs",
                Json::Arr(vec![
                    Json::Arr(vec![Json::Str(left.into()), Json::Uint(left_ver)]),
                    Json::Arr(vec![Json::Str(right.into()), Json::Uint(right_ver)]),
                ]),
            )
        }
        Err(_) => internal_error_response(shared),
    }
}

fn route_delta(shared: &Shared, req: &Json) -> Json {
    let Some(source) = req.str_field("lds") else {
        return err_response("delta request missing `lds`");
    };
    // Unknown sources get the registry's own error (routable: it names
    // the source and the registry is identical on every shard).
    {
        let (engine, recovered) = shared.router.engine_read(0);
        shared.note_recovered(recovered);
        if let Err(e) = engine.registry().resolve(source) {
            return err_response(&format!("unknown source `{source}`: {e}"));
        }
    }
    let targets = match shared.router.plan_delta(source) {
        Ok(t) => t,
        Err(e) => return err_response(&e),
    };
    apply_fanout_delta(shared, req, &targets)
}

/// Apply one delta to its target shards: admission on every target,
/// write locks in ascending shard order (all held until every copy is
/// applied, so concurrent deltas to overlapping shard sets cannot
/// interleave differently on different shards), accounting copy on the
/// lowest target, `"repl": true` replicas on the rest.
fn apply_fanout_delta(shared: &Shared, req: &Json, targets: &[usize]) -> Json {
    let mut slots = Vec::with_capacity(targets.len());
    for &i in targets {
        match admit_write(shared, i) {
            Some(s) => slots.push(s),
            None => return overloaded_response(shared, "mutating"),
        }
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut guards = Vec::with_capacity(targets.len());
        for &i in targets {
            let (g, recovered) = shared.router.engine_write(i);
            shared.note_recovered(recovered);
            guards.push((i, g));
        }
        let mut primary = None;
        for (k, (i, engine)) in guards.iter_mut().enumerate() {
            if k == 0 {
                primary = Some(engine.execute(req));
            } else {
                let repl_req = with_field(req, "repl", Json::Bool(true));
                let resp = engine.execute(&repl_req);
                if !response_ok(&resp) {
                    // A replica that fails while the accounting copy
                    // succeeded means the shards have diverged; keep
                    // serving but flag it loudly.
                    eprintln!(
                        "moma serve: warning: replica delta diverged on shard {i}: {}",
                        resp.str_field("error").unwrap_or("unknown error")
                    );
                    shared.degraded.store(true, Ordering::Relaxed);
                }
            }
        }
        primary.expect("at least one delta target")
    }));
    match outcome {
        Ok(resp) => annotate(
            resp,
            "shards",
            Json::Arr(targets.iter().map(|&i| Json::Uint(i as u64)).collect()),
        ),
        Err(_) => internal_error_response(shared),
    }
}

/// Sharded `batch_delta`. When every item routes to one shard the whole
/// batch forwards there unchanged — one WAL group commit, contiguous
/// sequence numbers, exactly the single-shard semantics. A batch
/// spanning shards is decomposed into per-shard sub-batches (one group
/// commit per shard, write locks held across all of them in ascending
/// order); per-item results are reassembled in request order and the
/// envelope's `first_seq`/`last_seq` are `null` because no single
/// shard's sequence range covers the batch.
fn route_batch_delta(shared: &Shared, req: &Json) -> Json {
    let Some(Json::Arr(items)) = req.get("items") else {
        return err_response("batch_delta request missing `items` array");
    };
    if items.is_empty() {
        return err_response("batch_delta needs a non-empty `items` array");
    }
    let mut item_targets: Vec<Vec<usize>> = Vec::with_capacity(items.len());
    for (k, item) in items.iter().enumerate() {
        let Some(source) = item.str_field("lds") else {
            return err_response(&format!("batch_delta item {k} missing `lds`"));
        };
        {
            let (engine, recovered) = shared.router.engine_read(0);
            shared.note_recovered(recovered);
            if let Err(e) = engine.registry().resolve(source) {
                return err_response(&format!(
                    "batch_delta item {k}: unknown source `{source}`: {e}"
                ));
            }
        }
        match shared.router.plan_delta(source) {
            Ok(t) => item_targets.push(t),
            Err(e) => return err_response(&format!("batch_delta item {k}: {e}")),
        }
    }
    let union: std::collections::BTreeSet<usize> = item_targets.iter().flatten().copied().collect();
    if union.len() == 1 {
        let i = *union.iter().next().expect("non-empty union");
        let Some(_slot) = admit_write(shared, i) else {
            return overloaded_response(shared, "mutating");
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let (mut engine, recovered) = shared.router.engine_write(i);
            shared.note_recovered(recovered);
            engine.execute(req)
        }));
        return match outcome {
            Ok(resp) => annotate(resp, "shards", Json::Arr(vec![Json::Uint(i as u64)])),
            Err(_) => internal_error_response(shared),
        };
    }

    // Multi-shard batch: per-shard sub-batches under all write locks.
    let mut slots = Vec::with_capacity(union.len());
    for &i in &union {
        match admit_write(shared, i) {
            Some(s) => slots.push(s),
            None => return overloaded_response(shared, "mutating"),
        }
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut guards = Vec::with_capacity(union.len());
        for &i in &union {
            let (g, recovered) = shared.router.engine_write(i);
            shared.note_recovered(recovered);
            guards.push((i, g));
        }
        let mut results: Vec<Option<Json>> = vec![None; items.len()];
        for (i, engine) in guards.iter_mut() {
            // Sub-batch for shard i, in request order. An item's
            // accounting copy goes to its lowest target; other targets
            // get replicas.
            let mut sub_items = Vec::new();
            let mut accounted = Vec::new();
            for (k, targets) in item_targets.iter().enumerate() {
                if !targets.contains(i) {
                    continue;
                }
                let is_accounting = targets.first() == Some(i);
                let item = if is_accounting {
                    items[k].clone()
                } else {
                    with_field(&items[k], "repl", Json::Bool(true))
                };
                sub_items.push(item);
                accounted.push(if is_accounting { Some(k) } else { None });
            }
            let sub_req = Json::obj(vec![
                ("cmd", Json::Str("batch_delta".into())),
                ("items", Json::Arr(sub_items)),
            ]);
            let resp = engine.execute(&sub_req);
            if !response_ok(&resp) {
                return Err(annotate(resp, "shard", Json::Uint(*i as u64)));
            }
            if let Some(Json::Arr(sub_results)) = resp.get("results") {
                for (j, slot) in accounted.iter().enumerate() {
                    if let Some(k) = slot {
                        results[*k] = sub_results.get(j).cloned();
                    }
                }
            }
        }
        Ok(results)
    }));
    let results = match outcome {
        Ok(Ok(results)) => results,
        Ok(Err(resp)) => return resp,
        Err(_) => return internal_error_response(shared),
    };
    let results: Vec<Json> = results
        .into_iter()
        .map(|r| r.unwrap_or_else(|| err_response("batch_delta item result missing")))
        .collect();
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("count", Json::Uint(results.len() as u64)),
        ("first_seq", Json::Null),
        ("last_seq", Json::Null),
        ("results", Json::Arr(results)),
        (
            "shards",
            Json::Arr(union.iter().map(|&i| Json::Uint(i as u64)).collect()),
        ),
    ])
}
