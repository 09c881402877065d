//! `moma_load` — load generator and protocol driver for `moma serve`.
//!
//! Modes (first argument):
//!
//! * `load`     — latency/throughput measurement: N reader threads issue
//!   `query`/`stats` while the main thread streams deltas; reports
//!   p50/p99 per class and overall throughput into a report
//!   (`BENCH.json`) with a trend gate against a committed baseline
//!   (`BENCH_BASELINE.json`).
//! * `smoke`    — endpoint conformance: drives every endpoint with a
//!   fixed, deterministic command sequence and asserts the responses.
//! * `stream`   — deterministic delta traffic: generates the evolving
//!   scenario's delta stream against a local shadow registry (so the
//!   i-th delta is identical across runs with the same seeds) and sends
//!   each one as a `delta` command.
//! * `shard`    — multi-shard write-scaling bench: boots an embedded
//!   sharded server, places one self-match per source group via explicit
//!   shard hints, streams deltas from one writer thread per group and
//!   compares write throughput at `--shards N` against a 1-shard run of
//!   the same workload; writes the `serve_shard` report section.
//! * `scatter`  — sharded-server priming: one hinted self-match per
//!   shard over a distinct source, then deterministic deltas to each,
//!   so the sharded crash-recovery gate has traffic on every shard.
//! * `stat`     — print one numeric field of the `stats` response
//!   (dot-path, e.g. `commands.delta`).
//! * `dump`     — ask the server to persist its state to a directory.
//! * `checkpoint` — ask the server to publish a WAL checkpoint and
//!   prune covered segments.
//! * `shutdown` — stop the server.
//!
//! Exit codes: 0 ok, 1 assertion/usage failure, 3 connection lost
//! mid-stream (expected by the crash-recovery CI harness).

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use moma_datagen::{DeltaStream, EvolveConfig, Scenario, WorldConfig};
use moma_server::{protocol, Client, Json};

const USAGE: &str = "\
usage: moma_load <mode> [options]

modes:
  load      [--addr H:P] [--readers 4] [--requests 200] [--deltas 30]
            [--seed 11] [--churn 0.02] [--scenario-seed 7] [--threads N]
            [--report FILE] [--baseline FILE]
            (report defaults to BENCH.json, baseline to BENCH_BASELINE.json)
  smoke      --addr H:P
  batch      --addr H:P [--items 6] [--singles 0|1]
            apply a deterministic delta batch (one batch_delta frame, or
            the same items as N single deltas with --singles 1) and
            assert batch_query responses are byte-identical to
            singleton queries
  overload  [--conn-cap 8] [--sleep-ms 1500] [--writers 4]
            embedded-server overload e2e: saturate the write budget,
            assert explicit overloaded/busy frames, responsive reads,
            recovery, and zero panics
  shard     [--shards 4] [--deltas 300] [--ops 1] [--threads 1] [--wal 0|1]
            [--report FILE] [--baseline FILE]
            (defaults as for load)
            embedded multi-shard write-scaling bench: per-group writer
            threads stream deltas at --shards N and at 1 shard; the
            N-shard run must beat the 1-shard baseline
  stream     --addr H:P [--steps 50] [--seed 11] [--churn 0.02]
            [--scenario-seed 7] [--sleep-ms 0]
  scatter    --addr H:P [--shards 4] [--deltas 6]
            prime each shard of a sharded server: one hinted self-match
            per shard over a distinct source, then deterministic deltas
            to all of them
  stat       --addr H:P --key dotted.path
  dump       --addr H:P --dir DIR
  checkpoint --addr H:P
  shutdown   --addr H:P
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(1);
    };
    let opts = match parse_opts(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("moma_load: {e}\n{USAGE}");
            return ExitCode::from(1);
        }
    };
    let result = match mode.as_str() {
        "load" => cmd_load(&opts),
        "smoke" => cmd_smoke(&opts),
        "batch" => cmd_batch(&opts),
        "overload" => cmd_overload(&opts),
        "shard" => cmd_shard(&opts),
        "stream" => cmd_stream(&opts),
        "scatter" => cmd_scatter(&opts),
        "stat" => cmd_stat(&opts),
        "dump" => cmd_dump(&opts),
        "checkpoint" => cmd_checkpoint(&opts),
        "shutdown" => cmd_shutdown(&opts),
        other => Err(format!("unknown mode `{other}`\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("moma_load {mode}: {e}");
            ExitCode::from(1)
        }
    }
}

type Opts = BTreeMap<String, String>;

/// Report `load` and `shard` add their sections to (`bench_report`
/// writes the rest of it).
const DEFAULT_REPORT: &str = "BENCH.json";
/// Committed report the trend gates compare against.
const DEFAULT_BASELINE: &str = "BENCH_BASELINE.json";

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut out = Opts::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        out.insert(key.to_owned(), value.clone());
    }
    Ok(out)
}

fn opt_num<T: std::str::FromStr>(opts: &Opts, key: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("--{key}: {e}")),
    }
}

fn opt_str<'a>(opts: &'a Opts, key: &str, default: &'a str) -> &'a str {
    opts.get(key).map_or(default, String::as_str)
}

fn connect(opts: &Opts) -> Result<Client, String> {
    let addr = opts.get("addr").ok_or("missing --addr")?;
    Client::connect_retry(addr, Duration::from_secs(10)).map_err(|e| format!("connect {addr}: {e}"))
}

fn ensure(cond: bool, msg: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(format!("assertion failed: {msg}"))
    }
}

fn is_ok(resp: &Json) -> bool {
    resp.get("ok").and_then(Json::as_bool) == Some(true)
}

// ---- smoke ----------------------------------------------------------

/// Fixed, deterministic endpoint-conformance sequence. Running it twice
/// against two fresh servers of the same scenario produces identical
/// server states — the crash-recovery harness relies on that.
fn cmd_smoke(opts: &Opts) -> Result<ExitCode, String> {
    use moma_model::{AttrValue, DeltaOp};
    let mut c = connect(opts)?;
    let call = |c: &mut Client, req: &Json| c.call(req).map_err(|e| format!("call: {e}"));

    let r = call(&mut c, &protocol::bare_request("ping"))?;
    ensure(is_ok(&r), "ping")?;
    let r = call(&mut c, &protocol::bare_request("stats"))?;
    ensure(is_ok(&r), "stats")?;
    ensure(
        !r.get("sources")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .is_empty(),
        "stats reports sources",
    )?;

    // Three matchers + one composition.
    let r = call(
        &mut c,
        &protocol::match_request(
            "m_dblp_acm",
            "Publication@DBLP",
            "Publication@ACM",
            "title",
            "title",
            "trigram",
            0.75,
        ),
    )?;
    ensure(is_ok(&r), &format!("match m_dblp_acm: {r}"))?;
    ensure(
        r.get("incremental").and_then(Json::as_bool) == Some(true),
        "trigram matcher is incrementally maintainable",
    )?;
    let r = call(
        &mut c,
        &protocol::match_request(
            "m_acm_gs",
            "Publication@ACM",
            "Publication@GS",
            "title",
            "title",
            "trigram",
            0.75,
        ),
    )?;
    ensure(is_ok(&r), &format!("match m_acm_gs: {r}"))?;
    let r = call(
        &mut c,
        &protocol::match_request(
            "m_tfidf",
            "Publication@ACM",
            "Publication@GS",
            "title",
            "title",
            "tfidf",
            0.6,
        ),
    )?;
    ensure(is_ok(&r), &format!("match m_tfidf: {r}"))?;
    ensure(
        r.get("incremental").and_then(Json::as_bool) == Some(false),
        "tfidf matcher reports incremental: false",
    )?;
    let r = call(
        &mut c,
        &protocol::compose_request("c_dblp_gs", "m_dblp_acm", "m_acm_gs", "min", "max"),
    )?;
    ensure(is_ok(&r), &format!("compose c_dblp_gs: {r}"))?;

    // Queries: happy path, filtered, and the error case.
    let r = call(&mut c, &protocol::query_request("c_dblp_gs", 5, None))?;
    ensure(is_ok(&r), &format!("query c_dblp_gs: {r}"))?;
    ensure(
        r.get("rows").and_then(Json::as_arr).unwrap_or(&[]).len() <= 5,
        "query respects limit",
    )?;
    let r = call(&mut c, &protocol::query_request("m_acm_gs", 0, Some(0.95)))?;
    ensure(is_ok(&r), "query with min_sim")?;
    let r = call(&mut c, &protocol::query_request("no_such_mapping", 0, None))?;
    ensure(!is_ok(&r), "query of unknown mapping fails")?;

    // Delta 1: two adds against GS. The trigram state patches
    // incrementally; the TF-IDF state must report a full re-match.
    let ops = vec![
        DeltaOp::Add {
            id: "smoke_g1".into(),
            fields: vec![(
                "title".into(),
                AttrValue::Text("Snapshot isolation for mapping repositories".into()),
            )],
        },
        DeltaOp::Add {
            id: "smoke_g2".into(),
            fields: vec![(
                "title".into(),
                AttrValue::Text("Write-ahead logging for object matching services".into()),
            )],
        },
    ];
    let r = call(&mut c, &protocol::delta_request("Publication@GS", &ops))?;
    ensure(is_ok(&r), &format!("delta 1: {r}"))?;
    let empty: [Json; 0] = [];
    let touched = r.get("mappings").and_then(Json::as_arr).unwrap_or(&empty);
    let by_name = |name: &str| touched.iter().find(|m| m.str_field("name") == Some(name));
    let acm_gs = by_name("m_acm_gs").ok_or("delta 1 touches m_acm_gs")?;
    ensure(
        acm_gs.get("incremental").and_then(Json::as_bool) == Some(true),
        "m_acm_gs patched incrementally",
    )?;
    let tfidf = by_name("m_tfidf").ok_or("delta 1 touches m_tfidf")?;
    ensure(
        tfidf.get("incremental").and_then(Json::as_bool) == Some(false)
            && tfidf.get("full_rematch").and_then(Json::as_bool) == Some(true),
        "m_tfidf reports full re-match fallback",
    )?;
    ensure(
        by_name("m_dblp_acm").is_none(),
        "m_dblp_acm untouched by a GS delta",
    )?;
    let refreshed = r.get("refreshed").and_then(Json::as_arr).unwrap_or(&empty);
    ensure(
        refreshed.iter().any(|n| n.as_str() == Some("c_dblp_gs")),
        "derived c_dblp_gs refreshed after the delta",
    )?;

    // Delta 2: update + remove of the instances added above.
    let ops = vec![
        DeltaOp::Update {
            id: "smoke_g1".into(),
            attr: "title".into(),
            value: Some(AttrValue::Text(
                "Snapshot-isolated reads for mapping repositories".into(),
            )),
        },
        DeltaOp::Remove {
            id: "smoke_g2".into(),
        },
    ];
    let r = call(&mut c, &protocol::delta_request("Publication@GS", &ops))?;
    ensure(is_ok(&r), &format!("delta 2: {r}"))?;
    let applied = r.get("applied").ok_or("delta 2 reports applied counts")?;
    ensure(
        applied.num_field("updated") == Some(1.0) && applied.num_field("removed") == Some(1.0),
        "delta 2 applied counts",
    )?;

    // Checkpoint: a WAL-backed server publishes a state dump and prunes
    // covered segments; a memory-only server refuses with an error that
    // names the missing WAL. Either way the command counters and the
    // replayable state are untouched (checkpoint is not WAL-logged).
    let r = call(&mut c, &protocol::checkpoint_request())?;
    if is_ok(&r) {
        ensure(
            r.get("seq").and_then(Json::as_u64).is_some(),
            &format!("checkpoint reports a seq: {r}"),
        )?;
    } else {
        let msg = r.str_field("error").unwrap_or("");
        ensure(
            msg.contains("write-ahead log"),
            &format!("checkpoint refusal names the WAL: {r}"),
        )?;
    }

    // Stats reflect the durable command counters.
    let r = call(&mut c, &protocol::bare_request("stats"))?;
    let commands = r.get("commands").ok_or("stats has commands")?;
    ensure(
        commands.num_field("match") == Some(3.0)
            && commands.num_field("compose") == Some(1.0)
            && commands.num_field("delta") == Some(2.0),
        &format!("command counters after smoke: {commands}"),
    )?;
    eprintln!("smoke: ok (3 matchers, 1 compose, 2 deltas, 1 checkpoint, counters verified)");
    Ok(ExitCode::SUCCESS)
}

// ---- batch ----------------------------------------------------------

/// Deterministic delta items for the batch leg: the same instances in
/// the same order regardless of how they are framed, so a `batch_delta`
/// run and a `--singles 1` run leave the server (and its WAL replay) in
/// identical states.
fn batch_ops(items: usize) -> Vec<Vec<moma_model::DeltaOp>> {
    use moma_model::{AttrValue, DeltaOp};
    (0..items)
        .map(|i| {
            vec![DeltaOp::Add {
                id: format!("batch_g{i}"),
                fields: vec![(
                    "title".into(),
                    AttrValue::Text(format!("Group commit batch record number {i}")),
                )],
            }]
        })
        .collect()
}

/// Apply a deterministic batch of deltas — as one `batch_delta` frame
/// (default) or as the same items sent singly (`--singles 1`) — and
/// assert `batch_query` responses are byte-identical to singleton
/// `query` responses. The crash-recovery harness runs one server with
/// each framing and diffs the final dumps.
fn cmd_batch(opts: &Opts) -> Result<ExitCode, String> {
    let items: usize = opt_num(opts, "items", 6)?;
    let singles: u64 = opt_num(opts, "singles", 0)?;
    ensure(items > 0, "--items must be positive")?;
    let mut c = connect(opts)?;
    let gs_name = "Publication@GS";

    let ops = batch_ops(items);
    if singles == 1 {
        for (i, item_ops) in ops.iter().enumerate() {
            let r = c
                .call(&protocol::delta_request(gs_name, item_ops))
                .map_err(|e| format!("single delta {i}: {e}"))?;
            ensure(is_ok(&r), &format!("single delta {i}: {r}"))?;
        }
    } else {
        let req = protocol::batch_delta_request(
            ops.iter()
                .map(|item_ops| protocol::delta_item(gs_name, item_ops))
                .collect(),
        );
        let r = c.call(&req).map_err(|e| format!("batch_delta: {e}"))?;
        ensure(is_ok(&r), &format!("batch_delta: {r}"))?;
        ensure(
            r.get("count").and_then(Json::as_u64) == Some(items as u64),
            &format!("batch_delta count == {items}: {r}"),
        )?;
        let results = r.get("results").and_then(Json::as_arr).unwrap_or(&[]);
        for (i, item) in results.iter().enumerate() {
            ensure(is_ok(item), &format!("batch_delta item {i}: {item}"))?;
        }
        // With a WAL behind the server the whole batch is one group
        // commit: N consecutive sequence numbers from one append.
        if let (Some(first), Some(last)) = (
            r.get("first_seq").and_then(Json::as_u64),
            r.get("last_seq").and_then(Json::as_u64),
        ) {
            ensure(
                last - first + 1 == items as u64,
                &format!("batch_delta seqs contiguous: first {first} last {last}"),
            )?;
        }
    }

    // batch_query responses must be byte-identical to the singleton
    // query responses for the same items.
    let query_items = vec![
        protocol::query_item("m_acm_gs", 5, None),
        protocol::query_item("c_dblp_gs", 3, None),
        protocol::query_item("m_acm_gs", 0, Some(0.95)),
    ];
    let batched = c
        .batch_query(query_items.clone())
        .map_err(|e| format!("batch_query: {e}"))?;
    ensure(
        batched.len() == query_items.len(),
        "batch_query result count",
    )?;
    for (i, item) in query_items.iter().enumerate() {
        let mut single = item.clone();
        if let Json::Obj(fields) = &mut single {
            fields.insert(0, ("cmd".to_owned(), Json::Str("query".to_owned())));
        }
        let r = c.call(&single).map_err(|e| format!("query {i}: {e}"))?;
        ensure(
            batched[i].to_string() == r.to_string(),
            &format!(
                "batch_query item {i} byte-identical to singleton query: {} vs {r}",
                batched[i]
            ),
        )?;
    }

    eprintln!(
        "batch: ok ({items} deltas as {}, {} queries byte-identical)",
        if singles == 1 {
            "singles".to_owned()
        } else {
            "one batch_delta group commit".to_owned()
        },
        query_items.len(),
    );
    println!("BATCH_OK");
    Ok(ExitCode::SUCCESS)
}

// ---- overload -------------------------------------------------------

/// Embedded-server overload end-to-end: a tiny write budget plus a
/// deliberately slow writer (`debug_sleep_write`) force `overloaded`
/// responses on concurrent deltas while reads keep answering; a
/// connection-cap sweep forces a `busy` refusal frame; afterwards a
/// retried delta succeeds and stats show zero panics (`degraded:
/// false`).
fn cmd_overload(opts: &Opts) -> Result<ExitCode, String> {
    use moma_model::{AttrValue, DeltaOp};
    let conn_cap: u64 = opt_num(opts, "conn-cap", 8)?;
    let sleep_ms: u64 = opt_num(opts, "sleep-ms", 1500)?;
    let writers: usize = opt_num(opts, "writers", 4)?;
    ensure(conn_cap >= 2, "--conn-cap must be at least 2")?;

    let s = shadow_scenario(opts)?;
    let engine = moma_server::Engine::new(s.registry, moma_core::exec::Parallelism::from_env());
    let limits = moma_server::Limits {
        max_connections: conn_cap,
        max_pending_writes: 1,
        max_pending_reads: 256,
        retry_after_ms: 25,
        debug_commands: true,
    };
    let handle = moma_server::spawn_with_limits(engine, "127.0.0.1:0", limits)
        .map_err(|e| format!("spawn server: {e}"))?;
    let addr = handle.addr.to_string();

    let mut c = Client::connect_retry(&addr, Duration::from_secs(10))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    c.call_ok(&protocol::match_request(
        "m_load",
        "Publication@DBLP",
        "Publication@GS",
        "title",
        "title",
        "trigram",
        0.75,
    ))
    .map_err(|e| e.to_string())?;

    // Occupy the single write slot with a slow writer.
    let sleeper_addr = addr.clone();
    let sleeper = std::thread::spawn(move || -> Result<(), String> {
        let mut c = Client::connect_retry(&sleeper_addr, Duration::from_secs(10))
            .map_err(|e| format!("sleeper connect: {e}"))?;
        let req = Json::obj(vec![
            ("cmd", Json::Str("debug_sleep_write".to_owned())),
            ("ms", Json::Uint(sleep_ms)),
        ]);
        let r = c.call(&req).map_err(|e| format!("sleeper call: {e}"))?;
        if !is_ok(&r) {
            return Err(format!("debug_sleep_write: {r}"));
        }
        Ok(())
    });
    std::thread::sleep(Duration::from_millis(sleep_ms.min(400) / 2));

    // Writer flood while the slot is held: every admitted-or-rejected
    // delta must get an explicit answer — `overloaded` with a
    // retry-after hint, never a hang, never a panic.
    let window = Instant::now();
    let mut writer_threads = Vec::new();
    for w in 0..writers {
        let addr = addr.clone();
        writer_threads.push(std::thread::spawn(move || -> Result<(u64, u64), String> {
            let mut c = Client::connect_retry(&addr, Duration::from_secs(10))
                .map_err(|e| format!("writer {w}: connect: {e}"))?;
            let (mut overloaded, mut applied) = (0u64, 0u64);
            for k in 0..10 {
                let ops = vec![DeltaOp::Add {
                    id: format!("ovl_w{w}_{k}"),
                    fields: vec![(
                        "title".into(),
                        AttrValue::Text(format!("overload probe {w}/{k}")),
                    )],
                }];
                let req = protocol::delta_request("Publication@GS", &ops);
                let r = c
                    .call(&req)
                    .map_err(|e| format!("writer {w} delta {k}: {e}"))?;
                if r.get("overloaded").and_then(Json::as_bool) == Some(true) {
                    ensure(
                        r.get("retry_after_ms").and_then(Json::as_u64).is_some(),
                        "overloaded response carries retry_after_ms",
                    )?;
                    overloaded += 1;
                } else if is_ok(&r) {
                    applied += 1;
                } else {
                    return Err(format!("writer {w} delta {k}: {r}"));
                }
            }
            Ok((overloaded, applied))
        }));
    }

    // Reads stay responsive throughout the write-side overload.
    let mut read_ok = 0u64;
    while window.elapsed() < Duration::from_millis(sleep_ms / 2) {
        let r = c
            .call(&protocol::query_request("m_load", 5, None))
            .map_err(|e| format!("read during overload: {e}"))?;
        ensure(is_ok(&r), &format!("read during overload: {r}"))?;
        read_ok += 1;
        std::thread::sleep(Duration::from_millis(10));
    }

    let (mut overloaded, mut applied) = (0u64, 0u64);
    for t in writer_threads {
        let (o, a) = t.join().map_err(|_| "writer thread panicked")??;
        overloaded += o;
        applied += a;
    }
    sleeper.join().map_err(|_| "sleeper thread panicked")??;
    ensure(
        overloaded > 0,
        &format!("saw overloaded responses (overloaded {overloaded}, applied {applied})"),
    )?;
    ensure(read_ok > 0, "reads answered during the overload window")?;

    // Recovery: with the slot free again a retried delta goes through.
    let mut recovered = false;
    for _ in 0..200 {
        let ops = vec![DeltaOp::Add {
            id: "ovl_recovery".into(),
            fields: vec![("title".into(), AttrValue::Text("recovery probe".into()))],
        }];
        let r = c
            .call(&protocol::delta_request("Publication@GS", &ops))
            .map_err(|e| format!("recovery delta: {e}"))?;
        if is_ok(&r) {
            recovered = true;
            break;
        }
        ensure(
            r.get("overloaded").and_then(Json::as_bool) == Some(true),
            &format!("recovery delta rejected without overloaded flag: {r}"),
        )?;
        std::thread::sleep(Duration::from_millis(25));
    }
    ensure(recovered, "delta succeeds after the overload window")?;

    // Connection cap: hold idle connections until a fresh one is
    // refused with a one-frame `busy` answer.
    let mut held = Vec::new();
    let mut saw_busy = false;
    for i in 0..conn_cap + 2 {
        let mut extra = Client::connect_retry(&addr, Duration::from_secs(10))
            .map_err(|e| format!("cap connection {i}: {e}"))?;
        match extra.call(&protocol::bare_request("ping")) {
            Ok(r) if r.get("busy").and_then(Json::as_bool) == Some(true) => {
                ensure(
                    r.get("retry_after_ms").and_then(Json::as_u64).is_some(),
                    "busy refusal carries retry_after_ms",
                )?;
                saw_busy = true;
                break;
            }
            Ok(r) => {
                ensure(is_ok(&r), &format!("cap connection {i} ping: {r}"))?;
                held.push(extra);
            }
            // The refusal frame may race our ping write; a clean
            // close counts once at least the cap is reached.
            Err(_) if i >= conn_cap - 1 => {
                saw_busy = true;
                break;
            }
            Err(e) => return Err(format!("cap connection {i}: {e}")),
        }
    }
    ensure(saw_busy, "connection past the cap got a busy refusal")?;
    drop(held);

    // Zero server panics: the engine never entered degraded mode, and
    // the refusals were counted.
    let r = c
        .call_ok(&protocol::bare_request("stats"))
        .map_err(|e| e.to_string())?;
    ensure(
        r.get("degraded").and_then(Json::as_bool) == Some(false),
        &format!("server not degraded after overload: {r}"),
    )?;
    ensure(
        r.get("overloaded_rejections")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            > 0,
        "stats counted overloaded rejections",
    )?;
    ensure(
        r.get("busy_refusals").and_then(Json::as_u64).unwrap_or(0) > 0,
        "stats counted busy refusals",
    )?;
    handle.stop();

    eprintln!(
        "overload: ok ({overloaded} overloaded, {applied} applied, {read_ok} reads ok, \
         busy refusal seen, degraded=false)"
    );
    println!("OVERLOAD_OK");
    Ok(ExitCode::SUCCESS)
}

// ---- shard ----------------------------------------------------------

/// One write-scaling trial: boot `shards` engines over clones of the
/// scenario registry (each with its own WAL unless `--wal 0`), place
/// one self-match per source group via an explicit shard hint
/// (`group k → shard k % shards`), then run one writer thread per group
/// streaming `deltas` single-delta commands of `ops` adds each. Returns
/// `(write_rps, wall_seconds)` over the write phase only.
fn shard_trial(
    shards: usize,
    groups: &[(&str, &str)],
    deltas: usize,
    ops: usize,
    par: moma_core::exec::Parallelism,
    wal_base: Option<&std::path::Path>,
) -> Result<(f64, f64), String> {
    use moma_model::{AttrValue, DeltaOp};
    let mut engines = Vec::with_capacity(shards);
    for i in 0..shards {
        let s = {
            let mut cfg = WorldConfig::small();
            cfg.seed = 7;
            Scenario::generate(cfg)
        };
        let mut engine = moma_server::Engine::new(s.registry, par);
        if let Some(base) = wal_base {
            let dir = base.join(format!("shard.{i}"));
            engine
                .wal_create(&dir, moma_server::DurabilityPolicy::default())
                .map_err(|e| format!("wal {}: {e}", dir.display()))?;
        }
        engines.push(engine);
    }
    let handle = moma_server::spawn_sharded(engines, "127.0.0.1:0", moma_server::Limits::default())
        .map_err(|e| format!("spawn sharded server: {e}"))?;
    let addr = handle.addr.to_string();

    let mut c = Client::connect_retry(&addr, Duration::from_secs(10))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    for (k, (source, attr)) in groups.iter().enumerate() {
        let req = protocol::with_shard(
            protocol::match_request(
                &format!("m_shard_{k}"),
                source,
                source,
                attr,
                attr,
                "trigram",
                0.9,
            ),
            k % shards,
        );
        let r = c
            .call_ok(&req)
            .map_err(|e| format!("group {k} match: {e}"))?;
        if shards > 1 {
            ensure(
                r.get("shard").and_then(Json::as_u64) == Some((k % shards) as u64),
                &format!("group {k} placed on its hinted shard: {r}"),
            )?;
        }
    }

    // Writers connect and then rendezvous on a barrier, so the timed
    // window measures only the write phase — not connection setup or
    // the accept loop's poll latency.
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(groups.len() + 1));
    let mut writers = Vec::new();
    for (k, (source, attr)) in groups.iter().enumerate() {
        let addr = addr.clone();
        let source = source.to_string();
        let attr = attr.to_string();
        let barrier = std::sync::Arc::clone(&barrier);
        writers.push(std::thread::spawn(move || -> Result<(), String> {
            let mut c = Client::connect_retry(&addr, Duration::from_secs(10))
                .map_err(|e| format!("writer {k}: connect: {e}"))?;
            c.call_ok(&protocol::bare_request("ping"))
                .map_err(|e| format!("writer {k}: ping: {e}"))?;
            barrier.wait();
            for step in 0..deltas {
                let ops: Vec<DeltaOp> = (0..ops)
                    .map(|j| DeltaOp::Add {
                        id: format!("sb_{k}_{step}_{j}"),
                        fields: vec![(
                            attr.clone(),
                            AttrValue::Text(format!("shard bench probe {k} {step} {j}")),
                        )],
                    })
                    .collect();
                let r = c
                    .call(&protocol::delta_request(&source, &ops))
                    .map_err(|e| format!("writer {k} delta {step}: {e}"))?;
                if !is_ok(&r) {
                    return Err(format!("writer {k} delta {step}: {r}"));
                }
            }
            Ok(())
        }));
    }
    barrier.wait();
    let t0 = Instant::now();
    for w in writers {
        w.join().map_err(|_| "writer thread panicked")??;
    }
    let wall = t0.elapsed().as_secs_f64();
    let total = (groups.len() * deltas) as f64;

    // The aggregate stats must account every delta exactly once (the
    // repl exclusion invariant) and report the shard layout.
    let stats = c
        .call_ok(&protocol::bare_request("stats"))
        .map_err(|e| e.to_string())?;
    let counted = stats
        .get("commands")
        .and_then(|c| c.get("delta"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    ensure(
        counted == total as u64,
        &format!("aggregate commands.delta {counted} == {total} deltas sent"),
    )?;
    ensure(
        stats.get("shard_count").and_then(Json::as_u64) == Some(shards as u64),
        &format!("stats reports shard_count {shards}"),
    )?;
    ensure(
        stats.get("degraded").and_then(Json::as_bool) == Some(false),
        "server not degraded after the write phase",
    )?;
    handle.stop();
    Ok((total / wall.max(1e-9), wall))
}

fn cmd_shard(opts: &Opts) -> Result<ExitCode, String> {
    let shards: usize = opt_num(opts, "shards", 4)?;
    let deltas: usize = opt_num(opts, "deltas", 300)?;
    let ops: usize = opt_num(opts, "ops", 1)?;
    let use_wal: u8 = opt_num(opts, "wal", 1)?;
    ensure(shards >= 2, "--shards must be at least 2")?;
    // Sequential engines by default: this bench isolates the *lock and
    // log* scaling of sharding (concurrent write locks, overlapping
    // per-shard fsyncs), which intra-delta parallelism would mask by
    // saturating the cores from a single shard.
    let par = match opt_num::<usize>(opts, "threads", 1)? {
        0 => moma_core::exec::Parallelism::from_env(),
        n => moma_core::exec::Parallelism::new(n),
    };
    // One group per writer: distinct sources so each group's ownership
    // claim (and therefore its write lock and WAL) lands on its hinted
    // shard and deltas never fan out.
    let groups: Vec<(&str, &str)> = vec![
        ("Publication@DBLP", "title"),
        ("Publication@ACM", "title"),
        ("Publication@GS", "title"),
        ("Author@DBLP", "name"),
    ];

    let tmp = std::env::temp_dir().join(format!("moma-shard-bench-{}", std::process::id()));
    let wal_base = |trial: &str| -> Result<Option<std::path::PathBuf>, String> {
        if use_wal == 0 {
            return Ok(None);
        }
        let dir = tmp.join(trial);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Some(dir))
    };

    eprintln!(
        "shard: 1-shard baseline ({} groups x {deltas} deltas x {ops} ops)...",
        groups.len()
    );
    let single_base = wal_base("single")?;
    let (single_rps, single_wall) =
        shard_trial(1, &groups, deltas, ops, par, single_base.as_deref())?;
    eprintln!("shard: 1 shard: {single_rps:.0} deltas/s ({single_wall:.2}s)");

    eprintln!("shard: {shards}-shard run...");
    let sharded_base = wal_base("sharded")?;
    let (shard_rps, shard_wall) =
        shard_trial(shards, &groups, deltas, ops, par, sharded_base.as_deref())?;
    eprintln!("shard: {shards} shards: {shard_rps:.0} deltas/s ({shard_wall:.2}s)");
    let _ = std::fs::remove_dir_all(&tmp);

    let speedup = shard_rps / single_rps.max(1e-9);
    eprintln!("shard: write scaling {speedup:.2}x over the 1-shard baseline");
    ensure(
        shard_rps > single_rps,
        &format!(
            "{shards}-shard write throughput ({shard_rps:.0} rps) beats the 1-shard \
             baseline ({single_rps:.0} rps)"
        ),
    )?;

    let report = Json::obj(vec![
        ("shards", Json::Num(shards as f64)),
        ("groups", Json::Num(groups.len() as f64)),
        ("deltas_per_group", Json::Num(deltas as f64)),
        ("ops_per_delta", Json::Num(ops as f64)),
        ("wal", Json::Bool(use_wal != 0)),
        ("single_shard_rps", Json::Num(round3(single_rps))),
        ("sharded_rps", Json::Num(round3(shard_rps))),
        ("speedup", Json::Num(round3(speedup))),
        ("single_shard_wall_s", Json::Num(round3(single_wall))),
        ("sharded_wall_s", Json::Num(round3(shard_wall))),
    ]);
    let path = opt_str(opts, "report", DEFAULT_REPORT);
    write_report(path, "serve_shard", &report)?;
    eprintln!("shard: serve_shard section written to {path}");
    gate_shard_baseline(opt_str(opts, "baseline", DEFAULT_BASELINE), &report)?;
    println!("SHARD_SCALING_OK {speedup:.2}");
    Ok(ExitCode::SUCCESS)
}

/// Trend gate for the `serve_shard` section: a missing baseline file or
/// section degrades to a warning (this is the first PR with the
/// section); a present one bounds throughput collapse and requires the
/// scaling property itself.
fn gate_shard_baseline(path: &str, report: &Json) -> Result<(), String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(_) => {
            eprintln!("shard: warning: baseline {path} missing — serve_shard trend gate skipped");
            return Ok(());
        }
    };
    let base = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(base) = base.get("serve_shard") else {
        eprintln!(
            "shard: warning: baseline {path} has no serve_shard section — trend gate skipped"
        );
        return Ok(());
    };
    for key in ["sharded_rps", "speedup"] {
        let (Some(b), Some(n)) = (base.num_field(key), report.num_field(key)) else {
            continue;
        };
        if b <= 0.0 {
            continue;
        }
        if n < b / 4.0 {
            return Err(format!(
                "serve_shard trend gate: {key} = {n:.3} vs baseline {b:.3} (bound {:.3})",
                b / 4.0
            ));
        }
        eprintln!("shard: trend {key}: {n:.3} (baseline {b:.3}) ok");
    }
    Ok(())
}

// ---- stream ---------------------------------------------------------

/// Build the local shadow of the server's generated scenario, so delta
/// generation is reproducible without reading server state.
fn shadow_scenario(opts: &Opts) -> Result<Scenario, String> {
    let mut cfg = WorldConfig::small();
    cfg.seed = opt_num(opts, "scenario-seed", 7u64)?;
    Ok(Scenario::generate(cfg))
}

fn cmd_stream(opts: &Opts) -> Result<ExitCode, String> {
    let steps: usize = opt_num(opts, "steps", 50)?;
    let seed: u64 = opt_num(opts, "seed", 11)?;
    let churn: f64 = opt_num(opts, "churn", 0.02)?;
    let sleep_ms: u64 = opt_num(opts, "sleep-ms", 0)?;
    let mut c = connect(opts)?;

    let s = shadow_scenario(opts)?;
    let mut registry = s.registry;
    let gs = s.ids.pub_gs;
    let gs_name = registry.lds(gs).name();
    let mut stream = DeltaStream::new(
        EvolveConfig {
            seed,
            ..EvolveConfig::with_churn(churn)
        },
        gs,
    );
    for step in 1..=steps {
        let delta = stream.next_delta(&registry);
        let req = protocol::delta_request(&gs_name, &delta.ops);
        let resp = match c.call(&req) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("stream: connection lost at step {step}/{steps}: {e}");
                return Ok(ExitCode::from(3));
            }
        };
        if !is_ok(&resp) {
            return Err(format!("stream step {step}: {resp}"));
        }
        registry
            .apply_delta(&delta)
            .map_err(|e| format!("shadow apply step {step}: {e}"))?;
        if sleep_ms > 0 {
            std::thread::sleep(Duration::from_millis(sleep_ms));
        }
    }
    eprintln!("stream: sent {steps} deltas (seed {seed}, churn {churn})");
    Ok(ExitCode::SUCCESS)
}

// ---- scatter --------------------------------------------------------

/// Prime every shard of a sharded server over TCP: one hinted
/// self-match per shard over a distinct source, then a deterministic
/// delta stream to each of those sources. The sequence is fixed, so a
/// clean rerun against a fresh server of the same scenario produces an
/// identical state — the sharded crash-recovery gate diffs dumps
/// across runs.
fn cmd_scatter(opts: &Opts) -> Result<ExitCode, String> {
    use moma_model::{AttrValue, DeltaOp};
    let shards: usize = opt_num(opts, "shards", 4)?;
    let deltas: usize = opt_num(opts, "deltas", 6)?;
    // Sources the smoke sequence never touches, so the explicit hints
    // cannot collide with ownership claimed by other traffic.
    let groups = [
        ("Author@DBLP", "name"),
        ("Author@ACM", "name"),
        ("Author@GS", "name"),
        ("Venue@DBLP", "name"),
    ];
    ensure(
        shards >= 1 && shards <= groups.len(),
        &format!("--shards must be 1..={}", groups.len()),
    )?;
    let mut c = connect(opts)?;

    for (k, (source, attr)) in groups.iter().take(shards).enumerate() {
        let req = protocol::with_shard(
            protocol::match_request(
                &format!("m_scatter_{k}"),
                source,
                source,
                attr,
                attr,
                "trigram",
                0.9,
            ),
            k,
        );
        let r = c.call(&req).map_err(|e| format!("match shard {k}: {e}"))?;
        ensure(is_ok(&r), &format!("scatter match on shard {k}: {r}"))?;
        // A single-shard server ignores the hint and omits the
        // annotation; a sharded one must honor it exactly.
        if let Some(placed) = r.get("shard").and_then(Json::as_u64) {
            ensure(
                placed == k as u64,
                &format!("match hinted to shard {k} ran on shard {placed}"),
            )?;
        }
    }
    for step in 0..deltas {
        for (k, (source, attr)) in groups.iter().take(shards).enumerate() {
            let ops = vec![DeltaOp::Add {
                id: format!("scatter_{k}_{step}"),
                fields: vec![(
                    (*attr).to_owned(),
                    AttrValue::Text(format!("scatter probe {k} {step}")),
                )],
            }];
            let r = c
                .call(&protocol::delta_request(source, &ops))
                .map_err(|e| format!("delta shard {k} step {step}: {e}"))?;
            ensure(
                is_ok(&r),
                &format!("scatter delta shard {k} step {step}: {r}"),
            )?;
        }
    }
    for k in 0..shards {
        let r = c
            .call(&protocol::query_request(&format!("m_scatter_{k}"), 1, None))
            .map_err(|e| format!("query shard {k}: {e}"))?;
        ensure(is_ok(&r), &format!("scatter query shard {k}: {r}"))?;
    }
    eprintln!(
        "scatter: primed {shards} shard(s), sent {} deltas",
        shards * deltas
    );
    Ok(ExitCode::SUCCESS)
}

// ---- stat / dump / shutdown ----------------------------------------

fn cmd_stat(opts: &Opts) -> Result<ExitCode, String> {
    let key = opts.get("key").ok_or("missing --key")?;
    let mut c = connect(opts)?;
    let r = c
        .call_ok(&protocol::bare_request("stats"))
        .map_err(|e| e.to_string())?;
    let mut node = &r;
    for part in key.split('.') {
        node = node
            .get(part)
            .ok_or_else(|| format!("stats has no `{key}`"))?;
    }
    match node {
        Json::Uint(n) => println!("{n}"),
        Json::Num(n) if n.fract() == 0.0 => println!("{}", *n as i64),
        other => println!("{other}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_dump(opts: &Opts) -> Result<ExitCode, String> {
    let dir = opts.get("dir").ok_or("missing --dir")?;
    let mut c = connect(opts)?;
    let r = c
        .call_ok(&protocol::dump_request(dir))
        .map_err(|e| e.to_string())?;
    eprintln!("dump: {r}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_checkpoint(opts: &Opts) -> Result<ExitCode, String> {
    let mut c = connect(opts)?;
    let r = c
        .call_ok(&protocol::checkpoint_request())
        .map_err(|e| e.to_string())?;
    eprintln!("checkpoint: {r}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_shutdown(opts: &Opts) -> Result<ExitCode, String> {
    let mut c = connect(opts)?;
    let r = c
        .call_ok(&protocol::bare_request("shutdown"))
        .map_err(|e| e.to_string())?;
    ensure(is_ok(&r), "shutdown acknowledged")?;
    Ok(ExitCode::SUCCESS)
}

// ---- load -----------------------------------------------------------

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = (p * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

fn cmd_load(opts: &Opts) -> Result<ExitCode, String> {
    let readers: usize = opt_num(opts, "readers", 4)?;
    let requests: usize = opt_num(opts, "requests", 200)?;
    let deltas: usize = opt_num(opts, "deltas", 30)?;
    let seed: u64 = opt_num(opts, "seed", 11)?;
    let churn: f64 = opt_num(opts, "churn", 0.02)?;

    // Embedded server unless --addr points at a running one.
    let s = shadow_scenario(opts)?;
    let mut shadow = s.registry.clone();
    let gs = s.ids.pub_gs;
    let gs_name = shadow.lds(gs).name();
    let (addr, handle) = match opts.get("addr") {
        Some(a) => (a.clone(), None),
        None => {
            let par = match opt_num::<usize>(opts, "threads", 0)? {
                0 => moma_core::exec::Parallelism::from_env(),
                n => moma_core::exec::Parallelism::new(n),
            };
            let engine = moma_server::Engine::new(s.registry, par);
            let handle = moma_server::spawn(engine, "127.0.0.1:0")
                .map_err(|e| format!("spawn server: {e}"))?;
            (handle.addr.to_string(), Some(handle))
        }
    };

    let mut c = Client::connect_retry(&addr, Duration::from_secs(10))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let r = c
        .call_ok(&protocol::match_request(
            "m_load",
            "Publication@DBLP",
            "Publication@GS",
            "title",
            "title",
            "trigram",
            0.75,
        ))
        .map_err(|e| e.to_string())?;
    ensure(
        r.get("incremental").and_then(Json::as_bool) == Some(true),
        "m_load is incrementally maintainable",
    )?;
    let rows0 = r.num_field("rows").unwrap_or(0.0) as u64;

    // Reader fan-out: queries with varying limits, a stats call every
    // 16th request.
    let t0 = Instant::now();
    let mut reader_threads = Vec::new();
    for r_id in 0..readers {
        let addr = addr.clone();
        reader_threads.push(std::thread::spawn(
            move || -> Result<(Vec<f64>, Vec<f64>), String> {
                let mut c = Client::connect_retry(&addr, Duration::from_secs(10))
                    .map_err(|e| format!("reader {r_id}: connect: {e}"))?;
                let mut q_ms = Vec::with_capacity(requests);
                let mut s_ms = Vec::new();
                for i in 0..requests {
                    let t = Instant::now();
                    let (req, sink) = if i % 16 == 15 {
                        (protocol::bare_request("stats"), &mut s_ms)
                    } else {
                        let limit = (i % 97 + 1) as u64;
                        (protocol::query_request("m_load", limit, None), &mut q_ms)
                    };
                    let resp = c
                        .call(&req)
                        .map_err(|e| format!("reader {r_id} request {i}: {e}"))?;
                    if !is_ok(&resp) {
                        return Err(format!("reader {r_id} request {i}: {resp}"));
                    }
                    sink.push(t.elapsed().as_secs_f64() * 1e3);
                }
                Ok((q_ms, s_ms))
            },
        ));
    }

    // Writer on the main thread: deterministic delta stream.
    let mut stream = DeltaStream::new(
        EvolveConfig {
            seed,
            ..EvolveConfig::with_churn(churn)
        },
        gs,
    );
    let mut d_ms = Vec::with_capacity(deltas);
    let mut all_incremental = true;
    let empty: [Json; 0] = [];
    for step in 1..=deltas {
        let delta = stream.next_delta(&shadow);
        let req = protocol::delta_request(&gs_name, &delta.ops);
        let t = Instant::now();
        let resp = c.call(&req).map_err(|e| format!("delta {step}: {e}"))?;
        d_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if !is_ok(&resp) {
            return Err(format!("delta {step}: {resp}"));
        }
        for m in resp
            .get("mappings")
            .and_then(Json::as_arr)
            .unwrap_or(&empty)
        {
            if m.str_field("name") == Some("m_load")
                && m.get("incremental").and_then(Json::as_bool) != Some(true)
            {
                all_incremental = false;
            }
        }
        shadow
            .apply_delta(&delta)
            .map_err(|e| format!("shadow apply {step}: {e}"))?;
    }

    let mut q_ms = Vec::new();
    let mut s_ms = Vec::new();
    for t in reader_threads {
        let (q, s) = t.join().map_err(|_| "reader thread panicked")??;
        q_ms.extend(q);
        s_ms.extend(s);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let total_requests = q_ms.len() + s_ms.len() + d_ms.len();
    let throughput = total_requests as f64 / wall_s.max(1e-9);

    // Quiesced amortization passes: the same work framed as singleton
    // requests vs batches of `batch_size`, no concurrent traffic — the
    // per-op difference is pure frame/JSON/syscall overhead.
    use moma_model::{AttrValue, DeltaOp};
    let batch_size = 8usize;
    let passes = 40usize;
    let mut single_q_ms = Vec::with_capacity(passes);
    for _ in 0..passes {
        let t = Instant::now();
        for _ in 0..batch_size {
            let r = c
                .call(&protocol::query_request("m_load", 8, None))
                .map_err(|e| format!("singleton query pass: {e}"))?;
            ensure(is_ok(&r), "singleton query pass")?;
        }
        single_q_ms.push(t.elapsed().as_secs_f64() * 1e3 / batch_size as f64);
    }
    let mut batch_q_ms = Vec::with_capacity(passes);
    for _ in 0..passes {
        let items = vec![protocol::query_item("m_load", 8, None); batch_size];
        let t = Instant::now();
        let results = c
            .batch_query(items)
            .map_err(|e| format!("batch query pass: {e}"))?;
        batch_q_ms.push(t.elapsed().as_secs_f64() * 1e3 / batch_size as f64);
        ensure(results.iter().all(is_ok), "batch query pass")?;
    }
    let delta_passes = 10usize;
    let mut single_d_ms = Vec::with_capacity(delta_passes);
    let mut batch_d_ms = Vec::with_capacity(delta_passes);
    for pass in 0..delta_passes {
        let mk_ops = |tag: &str, j: usize| {
            vec![DeltaOp::Add {
                id: format!("bload_{tag}_{pass}_{j}"),
                fields: vec![(
                    "title".into(),
                    AttrValue::Text(format!("batch load probe {tag} {pass}/{j}")),
                )],
            }]
        };
        let t = Instant::now();
        for j in 0..batch_size {
            let r = c
                .call(&protocol::delta_request(&gs_name, &mk_ops("s", j)))
                .map_err(|e| format!("singleton delta pass: {e}"))?;
            ensure(is_ok(&r), "singleton delta pass")?;
        }
        single_d_ms.push(t.elapsed().as_secs_f64() * 1e3 / batch_size as f64);
        let items = (0..batch_size)
            .map(|j| protocol::delta_item(&gs_name, &mk_ops("b", j)))
            .collect();
        let t = Instant::now();
        let results = c
            .batch_delta(items)
            .map_err(|e| format!("batch delta pass: {e}"))?;
        batch_d_ms.push(t.elapsed().as_secs_f64() * 1e3 / batch_size as f64);
        ensure(results.iter().all(is_ok), "batch delta pass")?;
    }

    let rows_final = c
        .call_ok(&protocol::query_request("m_load", 1, None))
        .map_err(|e| e.to_string())?
        .num_field("total")
        .unwrap_or(0.0) as u64;
    if let Some(h) = handle {
        h.stop();
    }

    q_ms.sort_by(|a, b| a.total_cmp(b));
    d_ms.sort_by(|a, b| a.total_cmp(b));
    s_ms.sort_by(|a, b| a.total_cmp(b));
    single_q_ms.sort_by(|a, b| a.total_cmp(b));
    batch_q_ms.sort_by(|a, b| a.total_cmp(b));
    single_d_ms.sort_by(|a, b| a.total_cmp(b));
    batch_d_ms.sort_by(|a, b| a.total_cmp(b));
    let singleton_q_p50 = percentile(&single_q_ms, 0.50);
    let batch_q_p50 = percentile(&batch_q_ms, 0.50);
    let report = Json::obj(vec![
        ("readers", Json::Num(readers as f64)),
        ("requests_per_reader", Json::Num(requests as f64)),
        ("deltas", Json::Num(deltas as f64)),
        ("query_p50_ms", Json::Num(round3(percentile(&q_ms, 0.50)))),
        ("query_p99_ms", Json::Num(round3(percentile(&q_ms, 0.99)))),
        ("delta_p50_ms", Json::Num(round3(percentile(&d_ms, 0.50)))),
        ("delta_p99_ms", Json::Num(round3(percentile(&d_ms, 0.99)))),
        ("stats_p99_ms", Json::Num(round3(percentile(&s_ms, 0.99)))),
        ("throughput_rps", Json::Num(round3(throughput))),
        ("all_incremental", Json::Bool(all_incremental)),
        ("rows_initial", Json::Num(rows0 as f64)),
        ("rows_final", Json::Num(rows_final as f64)),
        ("batch_size", Json::Num(batch_size as f64)),
        ("singleton_query_p50_ms", Json::Num(round3(singleton_q_p50))),
        ("batch_query_per_op_p50_ms", Json::Num(round3(batch_q_p50))),
        (
            "batch_query_per_op_p99_ms",
            Json::Num(round3(percentile(&batch_q_ms, 0.99))),
        ),
        (
            "singleton_delta_per_op_p50_ms",
            Json::Num(round3(percentile(&single_d_ms, 0.50))),
        ),
        (
            "batch_delta_per_op_p50_ms",
            Json::Num(round3(percentile(&batch_d_ms, 0.50))),
        ),
        (
            "batch_delta_per_op_p99_ms",
            Json::Num(round3(percentile(&batch_d_ms, 0.99))),
        ),
        (
            "batch_query_speedup",
            Json::Num(round3(singleton_q_p50 / batch_q_p50.max(1e-9))),
        ),
    ]);
    eprintln!(
        "load: {} requests in {:.2}s ({:.0} req/s); query p50 {:.3} ms p99 {:.3} ms; \
         delta p50 {:.3} ms p99 {:.3} ms; incremental={}",
        total_requests,
        wall_s,
        throughput,
        percentile(&q_ms, 0.50),
        percentile(&q_ms, 0.99),
        percentile(&d_ms, 0.50),
        percentile(&d_ms, 0.99),
        all_incremental,
    );
    ensure(all_incremental, "m_load stayed on the incremental path")?;
    eprintln!(
        "load: batch amortization: query per-op p50 {:.3} ms (singleton {:.3} ms, {:.1}x); \
         delta per-op p50 {:.3} ms (singleton {:.3} ms)",
        batch_q_p50,
        singleton_q_p50,
        singleton_q_p50 / batch_q_p50.max(1e-9),
        percentile(&batch_d_ms, 0.50),
        percentile(&single_d_ms, 0.50),
    );
    ensure(
        batch_q_p50 < singleton_q_p50,
        &format!(
            "batch query per-op p50 ({batch_q_p50:.3} ms) beats singleton p50 \
             ({singleton_q_p50:.3} ms) at batch size {batch_size}"
        ),
    )?;

    let path = opt_str(opts, "report", DEFAULT_REPORT);
    write_report(path, "serve_load", &report)?;
    eprintln!("load: serve_load section written to {path}");
    gate_against_baseline(opt_str(opts, "baseline", DEFAULT_BASELINE), &report)?;
    Ok(ExitCode::SUCCESS)
}

fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

/// Insert/replace one named section of a bench report. An existing
/// report is parsed and re-emitted (pretty-printed) with the section
/// added; a missing file becomes `{"<name>": ...}`.
fn write_report(path: &str, name: &str, section: &Json) -> Result<(), String> {
    let mut root = match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text).map_err(|e| format!("{path}: {e}"))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Json::Obj(Vec::new()),
        Err(e) => return Err(format!("{path}: {e}")),
    };
    let Json::Obj(fields) = &mut root else {
        return Err(format!("{path}: report root is not an object"));
    };
    fields.retain(|(k, _)| k != name);
    fields.push((name.to_owned(), section.clone()));
    std::fs::write(path, root.pretty() + "\n").map_err(|e| format!("{path}: {e}"))
}

/// Trend gate: compare against the committed previous-PR report. A
/// missing baseline file or section degrades to a warning (first PR
/// with the section); a present baseline enforces generous bounds that
/// tolerate CI hardware variance but catch order-of-magnitude
/// regressions.
fn gate_against_baseline(path: &str, report: &Json) -> Result<(), String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(_) => {
            eprintln!("load: warning: baseline {path} missing — serve_load trend gate skipped");
            return Ok(());
        }
    };
    let base = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(base) = base.get("serve_load") else {
        eprintln!("load: warning: baseline {path} has no serve_load section — trend gate skipped");
        return Ok(());
    };
    let pairs = [
        ("query_p99_ms", false),
        ("delta_p99_ms", false),
        ("throughput_rps", true),
        ("batch_query_per_op_p50_ms", false),
    ];
    for (key, higher_is_better) in pairs {
        let (Some(b), Some(n)) = (base.num_field(key), report.num_field(key)) else {
            continue;
        };
        if b <= 0.0 {
            continue;
        }
        let (ok, bound) = if higher_is_better {
            (n >= b / 4.0, b / 4.0)
        } else {
            (n <= b * 4.0, b * 4.0)
        };
        if !ok {
            return Err(format!(
                "serve_load trend gate: {key} = {n:.3} vs baseline {b:.3} (bound {bound:.3})"
            ));
        }
        eprintln!("load: trend {key}: {n:.3} (baseline {b:.3}) ok");
    }
    Ok(())
}
