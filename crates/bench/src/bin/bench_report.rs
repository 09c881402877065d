//! Machine-readable perf snapshot of the candidate-pruning engine —
//! the artifact behind CI's `perf-smoke` job.
//!
//! ```bash
//! cargo run --release -p moma-bench --bin bench_report              # writes BENCH.json
//! cargo run --release -p moma-bench --bin bench_report -- out.json baseline.json
//! ```
//!
//! Runs the large datagen scenario (fixed seed) and matches
//! Publication@DBLP × Publication@GS at t = 0.8 under two scoring
//! regimes: trigram Dice (prefix-filtered vs threshold-exact blocking)
//! and TF-IDF cosine (all-pairs vs the weighted-prefix Threshold plan),
//! each at 1 and 4 threads. The report records per-stage wall times,
//! candidate counts and pruning ratios. Gates that hold on any hardware
//! (the wins are algorithmic, not parallel):
//!
//! * **bit-identity** — all-pairs, prefix-filtered and threshold-exact
//!   execution produce row-for-row identical mappings, for both the
//!   q-gram and the TF-IDF matcher,
//! * **pruning dominance** — the threshold engine never generates (and
//!   therefore never scores) more candidates than the prefix filter,
//! * **q-gram headline** — threshold-exact ≥ 3× faster than the prefix
//!   filter at t = 0.8, on candidate ratio and end-to-end wall clock at
//!   every thread count (observed ~600× fewer candidates, ~12× wall),
//! * **TF-IDF headline** — the weighted-prefix plan scores ≥ 10× fewer
//!   candidates than all-pairs and matches ≥ 3× faster,
//! * **trend** — the q-gram threshold path has not regressed against
//!   the committed baseline report (candidate counts are deterministic
//!   and must not grow; wall times get a 1.5× tolerance for hardware
//!   noise). The baseline defaults to the committed
//!   `BENCH_BASELINE.json`; a missing baseline file downgrades this gate
//!   to a warning so the tool still runs on fresh checkouts.

use std::fmt::Write as _;
use std::time::Instant;

use moma_core::blocking::{Blocking, TfIdfIndex, ThresholdIndex, TrigramIndex};
use moma_core::exec::Parallelism;
use moma_core::matchers::{AttributeMatcher, MatchContext, Matcher};
use moma_datagen::{Scenario, WorldConfig};
use moma_simstring::tfidf::TfIdfCorpus;
use moma_simstring::QgramMeasure;
use moma_simstring::SimFn;

const THRESHOLD: f64 = 0.8;
const SEED: u64 = 7;
/// Wall-clock trend tolerance vs the committed baseline (hardware noise).
const TREND_TOLERANCE: f64 = 1.5;

fn time<R>(mut f: impl FnMut() -> R) -> (R, f64) {
    // One warm-up, then best of three (robust against scheduler noise).
    f();
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        out = Some(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (out.expect("at least one run"), best)
}

struct StageTimes {
    mode: &'static str,
    threads: usize,
    index_build_ms: f64,
    candidate_gen_ms: f64,
    match_ms: f64,
}

/// Extract the number following `"key": ` in `text`, searching after
/// the first occurrence of `anchor`. Good enough for the reports this
/// tool writes itself; no JSON dependency needed.
fn json_number(text: &str, anchor: &str, key: &str) -> Option<f64> {
    let start = text.find(anchor)?;
    let tail = &text[start..];
    let needle = format!("\"{key}\":");
    let at = tail.find(&needle)? + needle.len();
    let rest = tail[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Baseline `match_ms` for the q-gram threshold stage at `threads`,
/// from a previously committed report.
fn baseline_threshold_match_ms(text: &str, threads: usize) -> Option<f64> {
    text.lines()
        .filter(|l| l.contains("\"mode\": \"threshold\""))
        .find(|l| json_number(l, "", "threads") == Some(threads as f64))
        .and_then(|l| json_number(l, "", "match_ms"))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let out_path = args.next().unwrap_or_else(|| "BENCH.json".to_owned());
    let baseline_path = args
        .next()
        .unwrap_or_else(|| "BENCH_BASELINE.json".to_owned());

    // The large pair: a noisy Google-Scholar-style source, scaled from
    // `small` toward the paper's 64k-entry regime. Seed pinned so every
    // CI run benches the identical workload.
    let mut cfg = WorldConfig::small();
    cfg.gs_noise_entries = 8_000;
    cfg.seed = SEED;
    let t0 = Instant::now();
    let s = Scenario::generate(cfg);
    let datagen_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (dblp, gs) = (s.ids.pub_dblp, s.ids.pub_gs);
    let dblp_len = s.registry.lds(dblp).len();
    let gs_len = s.registry.lds(gs).len();
    eprintln!("scenario: DBLP ({dblp_len}) × GS ({gs_len}), t={THRESHOLD}, seed {SEED}");

    let matcher = |blocking: Blocking| {
        AttributeMatcher::new("title", "title", SimFn::Trigram, THRESHOLD).with_blocking(blocking)
    };

    // --- exactness gate: one all-pairs reference ----------------------
    let ctx4 = MatchContext::new(&s.registry).with_parallelism(Parallelism::new(4));
    eprintln!("computing all-pairs trigram reference (exactness gate)...");
    let t0 = Instant::now();
    let reference = matcher(Blocking::AllPairs)
        .execute(&ctx4, dblp, gs)
        .unwrap();
    let allpairs_ms = t0.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "  all-pairs: {} rows in {allpairs_ms:.0} ms",
        reference.len()
    );

    // --- candidate counts (shared across thread counts) ---------------
    let domain_vals: Vec<(u32, String)> = s
        .registry
        .lds(dblp)
        .project("title")
        .unwrap()
        .into_iter()
        .map(|(i, v)| (i, v.to_match_string()))
        .collect();
    let range_vals: Vec<(u32, String)> = s
        .registry
        .lds(gs)
        .project("title")
        .unwrap()
        .into_iter()
        .map(|(i, v)| (i, v.to_match_string()))
        .collect();
    let par1 = Parallelism::sequential();

    let (prefix_index, _) = time(|| TrigramIndex::build_par(&range_vals, &par1));
    let (threshold_index, _) =
        time(|| ThresholdIndex::build_par(QgramMeasure::Dice, 3, THRESHOLD, &range_vals, &par1));
    let count =
        |f: &dyn Fn(&str) -> usize| -> usize { domain_vals.iter().map(|(_, v)| f(v)).sum() };
    let prefix_candidates = count(&|v| prefix_index.candidates(v, THRESHOLD).len());
    let threshold_candidates = count(&|v| threshold_index.candidates(v).len());
    let allpairs_candidates = domain_vals.len() * range_vals.len();
    eprintln!(
        "candidates scored: all-pairs {allpairs_candidates}, prefix {prefix_candidates}, threshold {threshold_candidates}"
    );
    assert!(
        threshold_candidates <= prefix_candidates,
        "threshold blocking scored more candidates ({threshold_candidates}) than the prefix filter ({prefix_candidates})"
    );
    let candidate_ratio = prefix_candidates as f64 / (threshold_candidates.max(1)) as f64;
    let allpairs_ratio = allpairs_candidates as f64 / (threshold_candidates.max(1)) as f64;
    assert!(
        candidate_ratio >= 3.0,
        "threshold blocking must prune ≥3× harder than the prefix filter at t={THRESHOLD}, got {candidate_ratio:.2}x"
    );

    // --- per-stage wall times at 1 and 4 threads -----------------------
    let mut stages: Vec<StageTimes> = Vec::new();
    let mut wall_speedups: Vec<(usize, f64)> = Vec::new();
    for threads in [1usize, 4] {
        let par = Parallelism::new(threads);
        let ctx = MatchContext::new(&s.registry).with_parallelism(par);

        let (_, prefix_build_s) = time(|| TrigramIndex::build_par(&range_vals, &par));
        let (_, prefix_gen_s) = time(|| count(&|v| prefix_index.candidates(v, THRESHOLD).len()));
        let (prefix_mapping, prefix_match_s) = time(|| {
            matcher(Blocking::TrigramPrefix)
                .execute(&ctx, dblp, gs)
                .unwrap()
        });

        let (_, thr_build_s) =
            time(|| ThresholdIndex::build_par(QgramMeasure::Dice, 3, THRESHOLD, &range_vals, &par));
        let (_, thr_gen_s) = time(|| count(&|v| threshold_index.candidates(v).len()));
        let (thr_mapping, thr_match_s) = time(|| {
            matcher(Blocking::Threshold)
                .execute(&ctx, dblp, gs)
                .unwrap()
        });

        // Exactness gate: every mode, every thread count, row-for-row.
        assert_eq!(
            reference.table.rows(),
            prefix_mapping.table.rows(),
            "prefix-filtered mapping diverged from all-pairs at {threads} threads"
        );
        assert_eq!(
            reference.table.rows(),
            thr_mapping.table.rows(),
            "threshold-exact mapping diverged from all-pairs at {threads} threads"
        );

        let wall = prefix_match_s / thr_match_s.max(1e-12);
        eprintln!(
            "threads {threads}: prefix match {:.0} ms, threshold match {:.0} ms ({wall:.1}x wall, {candidate_ratio:.1}x candidates)",
            prefix_match_s * 1e3,
            thr_match_s * 1e3,
        );
        assert!(
            wall >= 3.0,
            "threshold blocking must be ≥3× faster than the prefix filter at t={THRESHOLD} ({threads} threads), got {wall:.2}x"
        );
        wall_speedups.push((threads, wall));
        stages.push(StageTimes {
            mode: "trigram_prefix",
            threads,
            index_build_ms: prefix_build_s * 1e3,
            candidate_gen_ms: prefix_gen_s * 1e3,
            match_ms: prefix_match_s * 1e3,
        });
        stages.push(StageTimes {
            mode: "threshold",
            threads,
            index_build_ms: thr_build_s * 1e3,
            candidate_gen_ms: thr_gen_s * 1e3,
            match_ms: thr_match_s * 1e3,
        });
    }

    // --- TF-IDF: weighted-prefix Threshold plan vs all-pairs -----------
    // Mirror the matcher's scoring path: a corpus over both columns,
    // cached vectors, and a weighted-prefix index over the range side.
    eprintln!("building TF-IDF corpus + weighted-prefix index...");
    let corpus = TfIdfCorpus::build(
        domain_vals
            .iter()
            .map(|(_, v)| v.as_str())
            .chain(range_vals.iter().map(|(_, v)| v.as_str())),
    );
    let d_vecs: Vec<Vec<(u32, f64)>> = domain_vals.iter().map(|(_, v)| corpus.vector(v)).collect();
    let r_vecs: Vec<Vec<(u32, f64)>> = range_vals.iter().map(|(_, v)| corpus.vector(v)).collect();
    let (tfidf_index, tfidf_build_s) = time(|| {
        TfIdfIndex::build(
            THRESHOLD,
            r_vecs
                .iter()
                .enumerate()
                .map(|(p, v)| (p as u32, v.as_slice())),
        )
    });
    let (tfidf_candidates, tfidf_gen_s) = time(|| {
        d_vecs
            .iter()
            .map(|v| tfidf_index.candidates(v).len())
            .sum::<usize>()
    });
    let tfidf_candidate_ratio = allpairs_candidates as f64 / (tfidf_candidates.max(1)) as f64;
    eprintln!(
        "TF-IDF candidates scored: all-pairs {allpairs_candidates}, weighted-prefix {tfidf_candidates} ({tfidf_candidate_ratio:.1}x)"
    );
    assert!(
        tfidf_candidate_ratio >= 10.0,
        "TF-IDF weighted-prefix pruning must score ≥10× fewer candidates than all-pairs at t={THRESHOLD}, got {tfidf_candidate_ratio:.2}x"
    );

    let tfidf_matcher = |blocking: Blocking| {
        AttributeMatcher::tfidf("title", "title", THRESHOLD).with_blocking(blocking)
    };
    let mut tfidf_stages: Vec<StageTimes> = Vec::new();
    let mut tfidf_wall_speedups: Vec<(usize, f64)> = Vec::new();
    let mut tfidf_reference = None;
    for threads in [1usize, 4] {
        let ctx = MatchContext::new(&s.registry).with_parallelism(Parallelism::new(threads));
        // All-pairs is the expensive leg: single run, no best-of-three.
        let t0 = Instant::now();
        let ap_mapping = tfidf_matcher(Blocking::AllPairs)
            .execute(&ctx, dblp, gs)
            .unwrap();
        let ap_match_s = t0.elapsed().as_secs_f64();
        let (thr_mapping, thr_match_s) = time(|| {
            tfidf_matcher(Blocking::Threshold)
                .execute(&ctx, dblp, gs)
                .unwrap()
        });
        assert_eq!(
            ap_mapping.table.rows(),
            thr_mapping.table.rows(),
            "TF-IDF Threshold mapping diverged from all-pairs at {threads} threads"
        );
        let wall = ap_match_s / thr_match_s.max(1e-12);
        eprintln!(
            "TF-IDF threads {threads}: all-pairs {:.0} ms, threshold {:.0} ms ({wall:.1}x wall)",
            ap_match_s * 1e3,
            thr_match_s * 1e3,
        );
        assert!(
            wall >= 3.0,
            "TF-IDF Threshold plan must be ≥3× faster than all-pairs at t={THRESHOLD} ({threads} threads), got {wall:.2}x"
        );
        tfidf_wall_speedups.push((threads, wall));
        tfidf_stages.push(StageTimes {
            mode: "tfidf_all_pairs",
            threads,
            index_build_ms: 0.0,
            candidate_gen_ms: 0.0,
            match_ms: ap_match_s * 1e3,
        });
        tfidf_stages.push(StageTimes {
            mode: "tfidf_threshold",
            threads,
            index_build_ms: tfidf_build_s * 1e3,
            candidate_gen_ms: tfidf_gen_s * 1e3,
            match_ms: thr_match_s * 1e3,
        });
        tfidf_reference.get_or_insert(ap_mapping);
    }
    let tfidf_rows = tfidf_reference.expect("tfidf reference computed").len();

    // --- trend gate vs the committed baseline --------------------------
    let mut trend_checked = false;
    match std::fs::read_to_string(&baseline_path) {
        Ok(base) => {
            let base_candidates = json_number(&base, "\"candidates\"", "threshold");
            if let Some(bc) = base_candidates {
                assert!(
                    threshold_candidates as f64 <= bc,
                    "q-gram threshold candidates regressed: {threshold_candidates} now vs {bc} in {baseline_path} (deterministic workload — this is a real pruning regression)"
                );
            }
            for &(threads, _) in &wall_speedups {
                let now = stages
                    .iter()
                    .find(|st| st.mode == "threshold" && st.threads == threads)
                    .map(|st| st.match_ms)
                    .expect("threshold stage recorded");
                if let Some(then) = baseline_threshold_match_ms(&base, threads) {
                    assert!(
                        now <= then * TREND_TOLERANCE,
                        "q-gram threshold match wall regressed at {threads} threads: {now:.0} ms now vs {then:.0} ms in {baseline_path} (tolerance {TREND_TOLERANCE}x)"
                    );
                    eprintln!("trend {threads} threads: {now:.0} ms vs baseline {then:.0} ms — ok");
                }
            }
            trend_checked = true;
        }
        Err(e) => {
            eprintln!("warning: baseline {baseline_path} unreadable ({e}); skipping trend gate");
        }
    }

    // --- JSON report ---------------------------------------------------
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"bench\": \"threshold-exact candidate pruning, q-gram + TF-IDF (PR6)\","
    );
    let _ = writeln!(
        json,
        "  \"scenario\": {{\"seed\": {SEED}, \"threshold\": {THRESHOLD}, \"dblp_entries\": {dblp_len}, \"gs_entries\": {gs_len}, \"datagen_ms\": {datagen_ms:.1}}},"
    );
    let _ = writeln!(
        json,
        "  \"exactness\": {{\"bit_identical\": true, \"rows\": {}, \"tfidf_rows\": {tfidf_rows}, \"allpairs_reference_ms\": {allpairs_ms:.1}}},",
        reference.len()
    );
    let _ = writeln!(
        json,
        "  \"candidates\": {{\"all_pairs\": {allpairs_candidates}, \"trigram_prefix\": {prefix_candidates}, \"threshold\": {threshold_candidates}, \"threshold_vs_prefix_ratio\": {candidate_ratio:.3}, \"threshold_vs_allpairs_ratio\": {allpairs_ratio:.3}}},"
    );
    let _ = writeln!(
        json,
        "  \"tfidf_candidates\": {{\"all_pairs\": {allpairs_candidates}, \"weighted_prefix\": {tfidf_candidates}, \"weighted_prefix_vs_allpairs_ratio\": {tfidf_candidate_ratio:.3}}},"
    );
    let _ = writeln!(json, "  \"stages\": [");
    let all_stages: Vec<&StageTimes> = stages.iter().chain(tfidf_stages.iter()).collect();
    for (i, st) in all_stages.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"mode\": \"{}\", \"threads\": {}, \"index_build_ms\": {:.2}, \"candidate_gen_ms\": {:.2}, \"match_ms\": {:.2}}}{}",
            st.mode,
            st.threads,
            st.index_build_ms,
            st.candidate_gen_ms,
            st.match_ms,
            if i + 1 < all_stages.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"wall_speedup\": {{");
    for (threads, speedup) in wall_speedups.iter() {
        let _ = writeln!(json, "    \"threads_{threads}\": {speedup:.3},");
    }
    for (i, (threads, speedup)) in tfidf_wall_speedups.iter().enumerate() {
        let _ = writeln!(
            json,
            "    \"tfidf_threads_{threads}\": {speedup:.3}{}",
            if i + 1 < tfidf_wall_speedups.len() {
                ","
            } else {
                ""
            }
        );
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(
        json,
        "  \"trend\": {{\"baseline\": \"{baseline_path}\", \"checked\": {trend_checked}, \"tolerance\": {TREND_TOLERANCE}}}"
    );
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("wrote {out_path}");
    println!("{json}");
}
