//! MOMA benchmark: one command per workload, every end-to-end metric by
//! name and unit, correctness checks that fail the run.
//!
//! ```bash
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_read --seed 1 --seconds 5 --trace 0
//! ```
//!
//! Every workload runs one MOMA session in a fresh process over the
//! 182 DBLP × 8,297 GS serve scenario: an embedded server with a
//! write-ahead log, primed over the wire, and a recovery fixture (a
//! second server that took a checkpoint and a fixed tail of deltas, then
//! stopped). The run is [`ROUNDS`] rounds; each round runs a match
//! pass, a read slice, a mixed read/write slice and a recovery from the
//! fixture's log, and every other round a set-up. Each run reports every
//! end-to-end metric, so each runs every phase; the workload decides
//! which phase gets the `--seconds` budget:
//!
//! * `serve_read` — read slices of `--seconds` in all;
//! * `serve_mixed` — open-loop deltas beside reads for `--seconds`.
//!
//! On a shared two-CPU host the speed left to one process swings by up
//! to a half over seconds and drifts by a quarter over minutes, slowing
//! every job in a round alike. A timing is therefore reported as its
//! best round (the fastest pass, the fastest recovery, the lowest read
//! percentile of any slice, the highest read rate), which reads the
//! program's own speed; `setup_s` is the median of the rounds' set-ups.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` records spans
//! around the calls into each layer, prints the per-layer metrics and
//! writes the spans to `.bench_out/`. Standard output is one JSON result
//! line; standard error carries the median, tail percentile and sample
//! count behind each timing, and the checks that ran.
//! `--scale smoke` shrinks every input for the smoke test
//! (`cargo test --release --manifest-path perfbench/Cargo.toml`).

mod rng;
mod serve;
mod stats;
mod trace;
mod workflow;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use moma_datagen::{Scenario, WorldConfig};

use crate::rng::SplitMix;
use crate::stats::{max, median, min, percentile, Timing};

/// Rounds per run. Per-second medians of a fixed loop on a shared
/// two-CPU Xeon host ranged 6.3 to 10.4 ms over seven minutes; over
/// windows of 30 to 50 s the spread (interquartile range over
/// median) of the fastest 0.35 to 1.4 s chunk was 0.05 to 0.10, of the
/// chunks' mean 0.16 to 0.19 and of their median up to 0.25.
const ROUNDS: usize = 12;
/// Distinct domain rows per group of threshold-exact matchers checked
/// against all-pairs scoring.
const ALL_PAIRS_SAMPLE: usize = 60;
/// Length in all of the read and mixed phases of workloads centred
/// elsewhere. 4 s of deltas at 50/s leave ten samples beyond their p95.
const SIDE_READ_S: f64 = 6.0;
const SIDE_MIXED_S: f64 = 4.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        kv.insert(key.to_owned(), value.clone());
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let args = Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
        },
        smoke: match kv.get("scale").map(String::as_str) {
            None | Some("full") => false,
            Some("smoke") => true,
            Some(other) => return Err(format!("--scale must be full or smoke, got `{other}`")),
        },
    };
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// How one workload spends its run: seconds of reads and of mixed
/// traffic, split evenly over the rounds.
struct Plan {
    read_s: f64,
    mixed_s: f64,
}

fn plan(a: &Args) -> Result<Plan, String> {
    let side = |s: f64| if a.smoke { s / 4.0 } else { s };
    Ok(match a.workload.as_str() {
        "serve_read" => Plan {
            read_s: a.seconds,
            mixed_s: side(SIDE_MIXED_S),
        },
        "serve_mixed" => Plan {
            read_s: side(SIDE_READ_S),
            mixed_s: a.seconds,
        },
        other => {
            return Err(format!(
                "unknown workload `{other}` (serve_read, serve_mixed)"
            ))
        }
    })
}

/// Seed of the world: the scenario seed the repository's own benches
/// and load generator use. The world is the benchmark's fixed dataset;
/// `--seed` drives every random stream of the workload run against it
/// (delta stream, query mix, sampled check rows), so two seeds differ in
/// traffic, not in data size or content.
const WORLD_SEED: u64 = 7;

/// The serve scenario: `small` plus 8,000 noisy GS entries.
fn serve_config(smoke: bool) -> WorldConfig {
    let mut c = WorldConfig::small();
    if !smoke {
        c.gs_noise_entries = 8_000;
    }
    c.seed = WORLD_SEED;
    c
}

/// Hand the allocator's free memory back to the system. glibc keeps one
/// arena per thread it has seen, and whether a new server or client
/// thread draws a fresh arena or one holding an exited thread's free
/// pages is a race: without this, peak RSS of the same run split 140 /
/// 168 MB. Trimmed between jobs, the peak counts the pages live work
/// touches, not which arena it landed in.
fn trim_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes no pointers and may be called
        // from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Metrics in output order: name -> (value, unit).
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with every digit; non-finite values become -1.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1.0".into()
    }
}

/// One read slice's figures.
struct ReadRound {
    p50_ms: f64,
    p99_ms: f64,
    rps: f64,
}

impl ReadRound {
    fn of(slice: &serve::PhaseOut) -> ReadRound {
        let ms = ms_of_samples(&slice.reads);
        ReadRound {
            p50_ms: median(&ms),
            p99_ms: percentile(&ms, 0.99),
            rps: slice.items as f64 / slice.elapsed_s,
        }
    }
}

/// Everything one run measured.
struct Run {
    setup_s: Vec<f64>,
    /// The process's peak resident set when the last round ended, MB.
    peak_rss_mb: f64,
    pass_s: Vec<f64>,
    f1_da: f64,
    f1_dg: f64,
    read_rounds: Vec<ReadRound>,
    read: serve::PhaseOut,
    mixed: serve::PhaseOut,
    /// The main server's checkpoint and stop after the last round.
    tail: serve::TailOut,
    /// The recovery fixture's tail and the recoveries from its log.
    fixture: serve::TailOut,
    attempted: u64,
    failed: u64,
    checks: Vec<String>,
    full_rematches: u64,
    /// The traced run's twin replay of the serve phases.
    twin: Option<serve::TwinOut>,
    /// The last pass's attribute matchers' `execute` seconds.
    execute_s: f64,
}

fn run(a: &Args, p: &Plan, dir: &Path) -> Result<Run, String> {
    let scn = Scenario::generate(serve_config(a.smoke));
    let ids = (scn.ids.pub_dblp, scn.ids.pub_acm);
    let mut main = serve::boot(&scn, &dir.join("wal-main"))?;

    // The recovery fixture: a server over the same scenario that takes
    // an explicit checkpoint and the stream's first deltas, then stops;
    // every round recovers an engine from its log.
    let mut fixture = serve::boot(&scn, &dir.join("wal-fixture"))?;
    let mut fixture_tail = {
        let mut shadow = serve::Shadow::new(&scn, a.seed, false)?;
        let deltas = (0..serve::TAIL_DELTAS)
            .map(|_| shadow.next())
            .collect::<Result<Vec<_>, _>>()?;
        serve::tail(&mut fixture, &shadow, &deltas, ids)?
    };

    // The main server's delta stream, generated before any round runs.
    let n_mixed = (p.mixed_s * serve::DELTA_RATE).ceil() as usize;
    let mut shadow = serve::Shadow::new(&scn, a.seed, a.trace)?;
    let deltas = (0..n_mixed)
        .map(|_| shadow.next())
        .collect::<Result<Vec<_>, _>>()?;

    let origin = Instant::now();
    let mut setup_s = Vec::new();
    let mut pass_s = Vec::new();
    let mut last = None;
    let mut read_rounds = Vec::new();
    let mut read = serve::PhaseOut::default();
    let mut mixed = serve::PhaseOut::default();
    for round in 0..ROUNDS {
        // Set-up, every other round: generate the scenario, boot a
        // server with a fresh log and prime it; then take it down again.
        if round % 2 == 0 {
            trim_allocator();
            let t = Instant::now();
            let s = Scenario::generate(serve_config(a.smoke));
            let session = serve::boot(&s, &dir.join(format!("wal-setup-{round}")))?;
            setup_s.push(t.elapsed().as_secs_f64());
            drop(session);
            drop(s);
        }

        trim_allocator();
        drop(last.take());
        let pass = workflow::run_pass(&scn)?;
        pass_s.push(pass.secs);
        last = Some(pass);

        trim_allocator();
        let slice = serve::read_slice(
            &main,
            p.read_s / ROUNDS as f64,
            a.seed,
            round as u64,
            origin,
            a.trace,
        )?;
        read_rounds.push(ReadRound::of(&slice));
        read.absorb(slice);

        trim_allocator();
        let part = &deltas[round * n_mixed / ROUNDS..(round + 1) * n_mixed / ROUNDS];
        mixed.absorb(serve::mixed_slice(
            &main,
            part,
            a.seed,
            round as u64,
            origin,
            a.trace,
        )?);
        main.settle()?;

        trim_allocator();
        serve::recover(&fixture, &scn.registry, &mut fixture_tail)?;
    }
    // Peak memory of the measured work: the untimed checks below build
    // q-gram profiles of whole columns and would raise it.
    let peak_rss_mb = peak_rss_mb();
    for e in read.errors.iter().chain(&mixed.errors) {
        eprintln!("failed request: {e}");
    }
    let tail = serve::tail(&mut main, &shadow, &[], ids)?;

    let mut checks = Vec::new();
    checks.push("served mappings equal a full re-match on the shadow registry".into());
    checks.push(format!(
        "{ROUNDS} recoveries replayed {} records and equal the state before the stop",
        fixture_tail.replayed
    ));
    let full = mixed.full_rematches
        + tail.full_rematches
        + fixture_tail.full_rematches
        + shadow.full_rematches();
    if full != 0 {
        return Err(format!("{full} deltas fell back to a full re-match"));
    }
    checks.push("no delta fell back to a full re-match".into());

    let pass = last.expect("at least one pass");
    let f1_da = workflow::f1(&pass.table5, &scn.gold.pub_dblp_acm);
    let f1_dg = workflow::f1(&pass.table7, &scn.gold.pub_dblp_gs);
    if !(f1_da > 0.5 && f1_dg > 0.5) {
        return Err(format!(
            "workflow quality collapsed: F1 {f1_da:.4} / {f1_dg:.4}"
        ));
    }
    checks.push(format!(
        "F1 DBLP-ACM {f1_da:.4}, DBLP-GS {f1_dg:.4} above 0.5"
    ));
    // Threshold-exact matchers sharing domain, range, attribute and
    // similarity are checked together on one sample.
    let specs = workflow::specs(&scn);
    let mut groups: Vec<Vec<(&workflow::AttrSpec, &moma_core::Mapping)>> = Vec::new();
    for (spec, m) in specs.iter().zip(&pass.attr).filter(|(s, _)| s.is_exact()) {
        let same = |g: &&mut Vec<(&workflow::AttrSpec, &moma_core::Mapping)>| {
            let o = g[0].0;
            (o.domain, o.range, o.attr, &o.sim) == (spec.domain, spec.range, spec.attr, &spec.sim)
        };
        match groups.iter_mut().find(same) {
            Some(g) => g.push((spec, m)),
            None => groups.push(vec![(spec, m)]),
        }
    }
    let mut sample_rng = SplitMix::stream(a.seed, 4);
    let mut sampled = Vec::new();
    for g in &groups {
        let n = workflow::check_all_pairs(&scn.registry, g, &mut sample_rng, ALL_PAIRS_SAMPLE)?;
        let labels: Vec<&str> = g.iter().map(|(s, _)| s.label).collect();
        sampled.push(format!("{n} for {}", labels.join(" + ")));
    }
    checks.push(format!(
        "threshold-exact rows equal all-pairs on distinct sampled domain rows: {}",
        sampled.join("; ")
    ));
    let attempted = pass_s.len() as u64
        + read.attempted
        + mixed.attempted
        + tail.attempted
        + fixture_tail.attempted;
    let failed = read.failed + mixed.failed;

    let mut twin = None;
    if a.trace {
        for (spec, m) in specs.iter().zip(&pass.attr) {
            workflow::check_twin(&scn.registry, spec, m)?;
        }
        checks.push("layer-by-layer replay of every matcher equals the matcher".into());
        twin = Some(serve::twin_replay(
            &scn.registry,
            &read,
            &mixed,
            &dir.join("wal-twin"),
        )?);
    }
    Ok(Run {
        peak_rss_mb,
        execute_s: pass.attr_s.iter().sum(),
        setup_s,
        pass_s,
        f1_da,
        f1_dg,
        read_rounds,
        read,
        mixed,
        tail,
        fixture: fixture_tail,
        attempted,
        failed,
        checks,
        full_rematches: full,
        twin,
    })
}

/// The per-layer metrics of a traced run: span self times, counters and
/// the twin replay's per-request costs.
fn layer_metrics(r: &Run, twin: &serve::TwinOut) -> Metrics {
    use crate::trace::{counter, self_s, spans, summarize, total_s};
    let all = spans();
    let sum = summarize(&all);
    let passes = r.pass_s.len();
    let per_pass = |name: &str| total_s(&sum, name) / passes as f64;
    let span_ms = |name: &str| -> Vec<f64> {
        all.iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_s() * 1e3)
            .collect()
    };
    let twin_names = [
        "model.project",
        "core.blocking.build",
        "core.blocking.tfidf_build",
        "core.blocking.probe",
        "simstring.score",
        "simstring.tfidf_vectorize",
        "table.build",
    ];
    let twin_s: f64 = twin_names.iter().map(|n| self_s(&sum, n)).sum();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let tail_of = |v: &[f64]| Timing::of(v).tail;
    let span_cost = trace::calibrate_span_cost_s(100_000);

    let mut m = Metrics::default();
    m.put("model.project_s", self_s(&sum, "model.project"), "s");
    m.put(
        "core.blocking.build_s",
        self_s(&sum, "core.blocking.build"),
        "s",
    );
    m.put(
        "core.blocking.tfidf_build_s",
        self_s(&sum, "core.blocking.tfidf_build"),
        "s",
    );
    m.put(
        "core.blocking.probe_s",
        self_s(&sum, "core.blocking.probe"),
        "s",
    );
    m.put(
        "core.blocking.candidates",
        counter("core.blocking.candidates") as f64,
        "count",
    );
    m.put("simstring.score_s", self_s(&sum, "simstring.score"), "s");
    m.put(
        "simstring.pairs_scored",
        counter("simstring.pairs_scored") as f64,
        "count",
    );
    m.put(
        "simstring.tfidf_vectorize_s",
        self_s(&sum, "simstring.tfidf_vectorize"),
        "s",
    );
    m.put("table.build_s", self_s(&sum, "table.build"), "s");
    m.put(
        "table.rows_out",
        counter("table.rows_out") as f64 / passes as f64,
        "count",
    );
    m.put("core.matchers.nh_s", per_pass("core.matchers.nh"), "s");
    m.put("core.ops.setops_s", per_pass("core.ops.setops"), "s");
    m.put("core.ops.select_s", per_pass("core.ops.select"), "s");
    m.put("core.matchers.residual_s", r.execute_s - twin_s, "s");
    m.put(
        "model.apply_delta_ms",
        median(&span_ms("model.apply_delta")),
        "ms",
    );
    m.put(
        "core.delta.apply_ms",
        median(&span_ms("core.delta.apply")),
        "ms",
    );
    m.put(
        "core.delta.refresh_ms",
        median(&span_ms("core.delta.refresh")),
        "ms",
    );
    m.put(
        "core.delta.rescored",
        counter("core.delta.rescored") as f64,
        "count",
    );
    m.put(
        "core.delta.full_rematches",
        r.full_rematches as f64,
        "count",
    );
    m.put("wal.append_ms", median(&twin.wal_append_ms), "ms");
    m.put("wal.bytes_per_delta", mean(&twin.wal_bytes), "bytes");
    m.put("checkpoint.publish_ms", r.tail.checkpoint_ms, "ms");
    m.put(
        "server.auto_checkpoints",
        r.tail.auto_checkpoints as f64,
        "count",
    );
    m.put("recover.replayed", r.fixture.replayed as f64, "count");
    m.put(
        "recover.checkpoint_load_ms",
        r.fixture.checkpoint_load_ms,
        "ms",
    );
    m.put("engine.read_ms", median(&twin.read_ms), "ms");
    m.put("engine.write_ms", median(&twin.write_ms), "ms");
    m.put(
        "core.repository.snapshot_ms",
        median(&twin.snapshot_ms),
        "ms",
    );
    m.put("json.parse_ms", median(&twin.parse_ms), "ms");
    m.put("json.encode_ms", median(&twin.encode_ms), "ms");
    m.put("frame.bytes_out", mean(&twin.bytes_out), "bytes");
    m.put("server.frontend_ms", median(&twin.frontend_ms), "ms");
    m.put("server.lock_wait_ms", tail_of(&twin.lock_wait_ms), "ms");
    m.put("gen.lag_ms", tail_of(&r.mixed.lag_ms), "ms");
    // Delta latency is per-layer, not end-to-end: across ten-run sets on
    // a shared two-CPU host its spread was 0.09 to 0.37 of its median
    // (p50) and 0.06 to 0.37 (p95), wider than any allowed bound, while
    // reads measured in the same runs stayed within 0.07 to 0.16.
    let deltas = ms_of_samples(&r.mixed.writes);
    m.put("delta_p50_ms", median(&deltas), "ms");
    // 50 deltas/s leave 300 to 500 samples a run: p95 is the highest
    // percentile with at least ten beyond it.
    m.put("delta_p95_ms", percentile(&deltas, 0.95), "ms");
    m.put(
        "mixed_read_rps",
        r.mixed.items as f64 / r.mixed.elapsed_s,
        "1/s",
    );
    m.put(
        "mixed_read_p99_ms",
        percentile(&ms_of_samples(&r.mixed.reads), 0.99),
        "ms",
    );
    m.put("error_rate", r.failed as f64 / r.attempted as f64, "ratio");
    m.put("trace.spans", all.len() as f64, "count");
    m.put(
        "trace.overhead_ms",
        all.len() as f64 * span_cost * 1e3,
        "ms",
    );
    m.put("traced.match_s", min(&r.pass_s), "s");
    m.put("traced.read_p50_ms", r.best_read_p50_ms(), "ms");
    m
}

impl Run {
    fn best_read_p50_ms(&self) -> f64 {
        min(&self
            .read_rounds
            .iter()
            .map(|r| r.p50_ms)
            .collect::<Vec<_>>())
    }
}

/// Timings as their best round, `setup_s` as the median set-up.
fn end_to_end(r: &Run) -> Metrics {
    let rounds = |f: fn(&ReadRound) -> f64| r.read_rounds.iter().map(f).collect::<Vec<_>>();
    let mut m = Metrics::default();
    m.put("setup_s", median(&r.setup_s), "s");
    m.put("peak_rss_mb", r.peak_rss_mb, "MB");
    m.put("match_s", min(&r.pass_s), "s");
    m.put("match_f1_dblp_acm", r.f1_da, "ratio");
    m.put("match_f1_dblp_gs", r.f1_dg, "ratio");
    m.put("read_rps", max(&rounds(|x| x.rps)), "1/s");
    m.put("read_p50_ms", r.best_read_p50_ms(), "ms");
    m.put("read_p99_ms", min(&rounds(|x| x.p99_ms)), "ms");
    m.put("recover_s", min(&r.fixture.recover_s), "s");
    m
}

fn ms_of_samples(v: &[serve::Sample]) -> Vec<f64> {
    v.iter().map(|s| s.ms).collect()
}

/// The timings behind the metrics, with tail percentile and sample
/// count, for the human reader.
fn describe(r: &Run) {
    let secs = |v: &[f64]| Timing::of(v).describe("s");
    let ms = |v: &[serve::Sample]| Timing::of(&ms_of_samples(v)).describe("ms");
    eprintln!("setup:        {}", secs(&r.setup_s));
    eprintln!("match pass:   {}", secs(&r.pass_s));
    eprintln!(
        "read:         {} ({:.0} items/s)",
        ms(&r.read.reads),
        r.read.items as f64 / r.read.elapsed_s
    );
    eprintln!("delta:        {}", ms(&r.mixed.writes));
    eprintln!(
        "generator lag: {}",
        Timing::of(&r.mixed.lag_ms).describe("ms")
    );
    eprintln!("mixed read:   {}", ms(&r.mixed.reads));
    eprintln!("recover:      {}", secs(&r.fixture.recover_s));
    for (k, rr) in r.read_rounds.iter().enumerate() {
        eprintln!(
            "round {k:2}: pass {:.3} s, read p50 {:.4} ms p99 {:.4} ms {:.0} items/s, recover {:.3} s",
            r.pass_s[k], rr.p50_ms, rr.p99_ms, rr.rps, r.fixture.recover_s[k]
        );
    }
    eprintln!(
        "ops: {} attempted, {} failed; auto checkpoints {}",
        r.attempted, r.failed, r.tail.auto_checkpoints
    );
    for c in &r.checks {
        eprintln!("check ok: {c}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let plan = match plan(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    let dir = out_dir.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    trace::set_enabled(args.trace);
    let result = run(&args, &plan, &dir);
    trace::set_enabled(false);
    let code = match result {
        Ok(r) => {
            describe(&r);
            let metrics = match &r.twin {
                Some(twin) => layer_metrics(&r, twin),
                None => end_to_end(&r),
            };
            if args.trace {
                let path = out_dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
                match trace::write_jsonl(&path) {
                    Ok(()) => eprintln!("spans written to {}", path.display()),
                    Err(e) => eprintln!("perfbench: write {}: {e}", path.display()),
                }
            }
            println!(
                "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                r.attempted,
                r.failed,
                metrics.json()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            ExitCode::from(1)
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    code
}
