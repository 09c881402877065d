//! The offline match phase: the paper's Table 5 (DBLP–ACM) and Table 7
//! (DBLP–GS) workflows plus one TF-IDF title matcher, run through the
//! library's public API.
//!
//! A traced run additionally replays every attribute matcher through a
//! decomposed twin of its path (projection, index build, probe, score,
//! table build), called layer by layer through public functions, so
//! each layer gets its own span. The twin's rows must equal the
//! matcher's, and `core.matchers.residual_s` (matcher time minus twin
//! time) shows how much of the real path the twin misses.

use std::time::Instant;

use moma_core::blocking::{Blocking, TfIdfIndex, ThresholdIndex, TrigramIndex};
use moma_core::matchers::neighborhood::nh_match;
use moma_core::matchers::{AttributeMatcher, MatchContext, Matcher};
use moma_core::ops::compose::PathAgg;
use moma_core::ops::select::{select, Selection};
use moma_core::ops::setops::{intersection, union};
use moma_core::{Mapping, Parallelism};
use moma_datagen::{GoldStandard, Scenario};
use moma_model::{LdsId, SourceRegistry};
use moma_simstring::tfidf::{cosine_vectors, TfIdfCorpus};
use moma_simstring::tokenize::{profile_intersection, profile_size, qgram_profile};
use moma_simstring::{qgram_measure_of, SimFn};
use moma_table::{Correspondence, MappingTable};

use crate::rng::SplitMix;
use crate::trace::{count, span};

/// Similarity of one attribute matcher.
#[derive(Debug, Clone, PartialEq)]
pub enum Sim {
    Fixed(SimFn),
    TfIdf,
}

/// One attribute matcher of the workflow.
#[derive(Debug, Clone)]
pub struct AttrSpec {
    pub label: &'static str,
    pub domain: LdsId,
    pub range: LdsId,
    pub attr: &'static str,
    pub sim: Sim,
    pub threshold: f64,
}

impl AttrSpec {
    /// The library matcher, on the plan `Blocking::auto_for` resolves
    /// (TF-IDF matchers default to the threshold-exact plan).
    pub fn matcher(&self) -> AttributeMatcher {
        match &self.sim {
            Sim::Fixed(f) => AttributeMatcher::new(self.attr, self.attr, f.clone(), self.threshold)
                .with_blocking(Blocking::auto_for(f)),
            Sim::TfIdf => AttributeMatcher::tfidf(self.attr, self.attr, self.threshold),
        }
    }

    /// Whether the resolved plan is threshold-exact (so its rows must
    /// equal all-pairs scoring).
    pub fn is_exact(&self) -> bool {
        match &self.sim {
            Sim::Fixed(f) => Blocking::auto_for(f) == Blocking::Threshold,
            Sim::TfIdf => true,
        }
    }
}

/// Attribute matchers of one pass, in execution order.
pub fn specs(s: &Scenario) -> Vec<AttrSpec> {
    let ids = s.ids;
    let title = |label, domain, range, threshold| AttrSpec {
        label,
        domain,
        range,
        attr: "title",
        sim: Sim::Fixed(SimFn::Trigram),
        threshold,
    };
    vec![
        title("title(D,A)@0.8", ids.pub_dblp, ids.pub_acm, 0.8),
        title("title(D,G)@0.75", ids.pub_dblp, ids.pub_gs, 0.75),
        title("title(D,G)@0.45", ids.pub_dblp, ids.pub_gs, 0.45),
        AttrSpec {
            label: "name(D,G)@0.85",
            domain: ids.author_dblp,
            range: ids.author_gs,
            attr: "name",
            sim: Sim::Fixed(SimFn::PersonName),
            threshold: 0.85,
        },
        AttrSpec {
            label: "tfidf-title(D,G)@0.8",
            domain: ids.pub_dblp,
            range: ids.pub_gs,
            attr: "title",
            sim: Sim::TfIdf,
            threshold: 0.8,
        },
    ]
}

/// Outputs of one pass.
pub struct Pass {
    /// Attribute matcher results, parallel to [`specs`].
    pub attr: Vec<Mapping>,
    /// Seconds each attribute matcher's `execute` took.
    pub attr_s: Vec<f64>,
    pub table5: Mapping,
    pub table7: Mapping,
    /// Seconds the pass took.
    pub secs: f64,
}

fn assoc(s: &Scenario, name: &str) -> Result<std::sync::Arc<Mapping>, String> {
    s.repository
        .get(name)
        .ok_or_else(|| format!("scenario has no association `{name}`"))
}

/// Run the whole workflow once, sequentially.
pub fn run_pass(s: &Scenario) -> Result<Pass, String> {
    let start = Instant::now();
    let ctx = MatchContext::with_repository(&s.registry, &s.repository)
        .with_parallelism(Parallelism::sequential());
    let specs = specs(s);
    let mut attr = Vec::with_capacity(specs.len());
    let mut attr_s = Vec::with_capacity(specs.len());
    for spec in &specs {
        let m = spec.matcher();
        let t = Instant::now();
        let out = span("core.matchers.execute", || {
            m.execute(&ctx, spec.domain, spec.range)
        })
        .map_err(|e| format!("{}: {e}", spec.label))?;
        attr_s.push(t.elapsed().as_secs_f64());
        count("table.rows_out", out.len() as u64);
        attr.push(out);
    }
    let err = |e: moma_core::CoreError| e.to_string();
    let nh = |a: &Mapping, same: &Mapping, b: &Mapping, g| {
        span("core.matchers.nh", || nh_match(a, same, b, g)).map_err(err)
    };
    let sel = |m: &Mapping, how: &Selection| span("core.ops.select", || select(m, how));
    let inter =
        |a: &Mapping, b: &Mapping| span("core.ops.setops", || intersection(a, b)).map_err(err);

    // Table 5: title matches confirmed by the venue neighbourhood, whose
    // venue same-mapping comes from the 1:n neighbourhood with best-1.
    let title_da = &attr[0];
    let venue_nh = nh(
        &*assoc(s, "DBLP.VenuePub")?,
        title_da,
        &*assoc(s, "ACM.PubVenue")?,
        PathAgg::Relative,
    )?;
    let venue_same = sel(&venue_nh, &Selection::best1());
    let pub_nh = nh(
        &*assoc(s, "DBLP.PubVenue")?,
        &venue_same,
        &*assoc(s, "ACM.VenuePub")?,
        PathAgg::Relative,
    )?;
    let table5 = inter(title_da, &pub_nh)?;

    // Table 7: strict titles united with permissive-title pairs that the
    // author neighbourhood (RelativeLeft: GS author lists are truncated)
    // confirms.
    let author_nh = nh(
        &*assoc(s, "DBLP.PubAuthor")?,
        &attr[3],
        &*assoc(s, "GS.AuthorPub")?,
        PathAgg::RelativeLeft,
    )?;
    let confirmed = inter(&attr[2], &sel(&author_nh, &Selection::Threshold(0.4)))?;
    let table7 = span("core.ops.setops", || union(&attr[1], &confirmed)).map_err(err)?;
    count("table.rows_out", (table5.len() + table7.len()) as u64);
    Ok(Pass {
        secs: start.elapsed().as_secs_f64(),
        attr,
        attr_s,
        table5,
        table7,
    })
}

/// F-measure of `m` against `gold`.
pub fn f1(m: &Mapping, gold: &GoldStandard) -> f64 {
    let pairs = m.table.pair_set();
    let tp = pairs.iter().filter(|(d, r)| gold.contains(*d, *r)).count() as f64;
    if tp == 0.0 {
        return 0.0;
    }
    let p = tp / pairs.len() as f64;
    let r = tp / gold.len() as f64;
    2.0 * p * r / (p + r)
}

type Vals = Vec<(u32, String)>;
/// Candidate generation of one plan: a domain value to range ids.
type Probe<'a> = Box<dyn Fn(&str) -> moma_table::FxHashSet<u32> + 'a>;
/// All-pairs scoring of one domain value: `(range index, sim)` of the
/// pairs at or above a threshold.
type RowScorer<'a> = Box<dyn Fn(&str) -> Result<Vec<(u32, f64)>, String> + Sync + 'a>;

fn project(reg: &SourceRegistry, lds: LdsId, attr: &str) -> Result<Vals, String> {
    span("model.project", || project_plain(reg, lds, attr))
}

/// Rows as `(domain, range, sim bits)`, sorted: equal only if bit-identical.
pub type Rows = Vec<(u32, u32, u64)>;

pub fn sorted_rows(t: &MappingTable) -> Rows {
    let mut v: Vec<_> = t
        .iter()
        .map(|c| (c.domain, c.range, c.sim.to_bits()))
        .collect();
    v.sort_unstable();
    v
}

/// Replay one attribute matcher layer by layer (see the module docs) and
/// return its table.
pub fn twin(reg: &SourceRegistry, spec: &AttrSpec) -> Result<MappingTable, String> {
    let par = Parallelism::sequential();
    let d_vals = project(reg, spec.domain, spec.attr)?;
    let r_vals = project(reg, spec.range, spec.attr)?;
    let t = spec.threshold;
    let mut rows = Vec::new();
    match &spec.sim {
        Sim::Fixed(f) => {
            let pos_of: moma_table::FxHashMap<u32, usize> = r_vals
                .iter()
                .enumerate()
                .map(|(p, (i, _))| (*i, p))
                .collect();
            let probe: Probe<'_> = match qgram_measure_of(f).filter(|_| spec.is_exact()) {
                Some((measure, q)) => {
                    let idx = span("core.blocking.build", || {
                        ThresholdIndex::build_par(measure, q, t, &r_vals, &par)
                    });
                    Box::new(move |v| idx.candidates(v))
                }
                None => {
                    // The prefix plan's Dice floor for non-trigram
                    // measures (the library's conservative default).
                    let idx = span("core.blocking.build", || {
                        TrigramIndex::build_par(&r_vals, &par)
                    });
                    Box::new(move |v| idx.candidates(v, 0.3))
                }
            };
            for (d_idx, d_val) in &d_vals {
                let cands = span("core.blocking.probe", || probe(d_val));
                count("core.blocking.candidates", cands.len() as u64);
                // The library scores every candidate, as this loop does,
                // so `simstring.pairs_scored` equals the candidate count
                // until a plan filters candidates before scoring.
                let scored = span("simstring.score", || {
                    let mut n = 0;
                    for c in cands {
                        let (r_idx, r_val) = &r_vals[pos_of[&c]];
                        let s = f.eval(d_val, r_val);
                        n += 1;
                        if s >= t {
                            rows.push(Correspondence::new(*d_idx, *r_idx, s));
                        }
                    }
                    n
                });
                count("simstring.pairs_scored", scored);
            }
        }
        Sim::TfIdf => {
            let (d_vec, r_vec) = span("simstring.tfidf_vectorize", || {
                let mut corpus = TfIdfCorpus::new();
                for (_, v) in d_vals.iter().chain(r_vals.iter()) {
                    corpus.add_document(v);
                }
                let vec_of = |vals: &Vals| -> Vec<(u32, Vec<(u32, f64)>)> {
                    vals.iter().map(|(i, v)| (*i, corpus.vector(v))).collect()
                };
                (vec_of(&d_vals), vec_of(&r_vals))
            });
            let idx = span("core.blocking.tfidf_build", || {
                TfIdfIndex::build(
                    t,
                    r_vec
                        .iter()
                        .enumerate()
                        .map(|(p, (_, v))| (p as u32, v.as_slice())),
                )
            });
            for (d_idx, dv) in &d_vec {
                let cands = span("core.blocking.probe", || idx.candidates(dv));
                count("core.blocking.candidates", cands.len() as u64);
                let scored = span("simstring.score", || {
                    let mut n = 0;
                    for p in cands {
                        let (r_idx, rv) = &r_vec[p as usize];
                        let s = cosine_vectors(dv, rv);
                        n += 1;
                        if s >= t {
                            rows.push(Correspondence::new(*d_idx, *r_idx, s));
                        }
                    }
                    n
                });
                count("simstring.pairs_scored", scored);
            }
        }
    }
    Ok(span("table.build", || MappingTable::from_rows(rows)))
}

/// Check that the twin of every matcher reproduces the matcher's rows
/// bit for bit.
pub fn check_twin(reg: &SourceRegistry, spec: &AttrSpec, real: &Mapping) -> Result<(), String> {
    let t = twin(reg, spec)?;
    if sorted_rows(&t) != sorted_rows(&real.table) {
        return Err(format!(
            "{}: layer-by-layer replay gave {} rows, the matcher {}",
            spec.label,
            t.len(),
            real.len()
        ));
    }
    Ok(())
}

/// Check threshold-exact matchers against all-pairs scoring on a seeded
/// sample of `sample` distinct domain rows: for each sampled row, the rows
/// a matcher returned must be exactly those all-pairs scoring keeps at its
/// threshold. The matchers share domain, range, attribute and similarity,
/// so each sampled row is scored once for all of them. Half the sample is
/// drawn from rows some matcher matched, the rest from all other rows.
/// Returns the number of rows checked.
pub fn check_all_pairs(
    reg: &SourceRegistry,
    group: &[(&AttrSpec, &Mapping)],
    rng: &mut SplitMix,
    sample: usize,
) -> Result<usize, String> {
    let Some(&(first, _)) = group.first() else {
        return Ok(0);
    };
    let d_vals = project_plain(reg, first.domain, first.attr)?;
    let r_vals = project_plain(reg, first.range, first.attr)?;
    let matched: moma_table::FxHashSet<u32> = group
        .iter()
        .flat_map(|(_, m)| m.table.iter().map(|c| c.domain))
        .collect();
    let (mut hit, mut rest): (Vec<usize>, Vec<usize>) =
        (0..d_vals.len()).partition(|&p| matched.contains(&d_vals[p].0));
    let mut picks = draw(&mut hit, sample / 2, rng);
    let taken = picks.len();
    picks.extend(draw(&mut rest, sample - taken, rng));
    // Top up from the matched rows when too few others exist.
    let more = sample - picks.len();
    picks.extend(draw(&mut hit[taken..], more, rng));

    let t = group
        .iter()
        .map(|(spec, _)| spec.threshold)
        .fold(f64::INFINITY, f64::min);
    // All-pairs rows of one domain value at the group's lowest threshold:
    // (range index, sim).
    let all_pairs: RowScorer<'_> = match &first.sim {
        Sim::Fixed(SimFn::Trigram) => {
            // `trigram` builds both q-gram profiles on every call, about
            // 20 us a pair on these titles. The screen builds each range
            // profile once and takes Dice with the same public primitives;
            // every pair it puts near or above the threshold is rescored
            // with the measure itself, as is every 64th pair it drops, and
            // the two must agree bit for bit.
            type Profile<'v> = (u32, &'v str, Vec<(String, u32)>);
            fn profiles(vals: &[(u32, String)]) -> Vec<Profile<'_>> {
                vals.iter()
                    .map(|(r, v)| (*r, v.as_str(), qgram_profile(v, 3)))
                    .collect()
            }
            let (front, back) = r_vals.split_at(r_vals.len() / 2);
            let r_prof: Vec<_> = std::thread::scope(|scope| {
                let other = scope.spawn(|| profiles(back));
                let mut out = profiles(front);
                out.extend(other.join().expect("profile builder panicked"));
                out
            });
            Box::new(move |d| {
                let dp = qgram_profile(d, 3);
                let nd = profile_size(&dp);
                let mut rows = Vec::new();
                for (k, (r, v, rp)) in r_prof.iter().enumerate() {
                    let nr = profile_size(rp);
                    let screen = match (nd, nr) {
                        (0, 0) => 1.0,
                        (0, _) | (_, 0) => 0.0,
                        _ => 2.0 * profile_intersection(&dp, rp) as f64 / (nd + nr) as f64,
                    };
                    if screen < t - 1e-9 && k % 64 != 0 {
                        continue;
                    }
                    let s = SimFn::Trigram.eval(d, v);
                    if s.to_bits() != screen.to_bits() {
                        return Err(format!(
                            "all-pairs screen gave {screen}, trigram {s} for `{d}` / `{v}`"
                        ));
                    }
                    if s >= t {
                        rows.push((*r, s));
                    }
                }
                Ok(rows)
            })
        }
        Sim::Fixed(f) => Box::new(move |d| {
            Ok(r_vals
                .iter()
                .map(|(r, v)| (*r, f.eval(d, v)))
                .filter(|(_, s)| *s >= t)
                .collect())
        }),
        Sim::TfIdf => {
            let mut corpus = TfIdfCorpus::new();
            for (_, v) in d_vals.iter().chain(r_vals.iter()) {
                corpus.add_document(v);
            }
            let r_vecs: Vec<(u32, Vec<(u32, f64)>)> =
                r_vals.iter().map(|(r, v)| (*r, corpus.vector(v))).collect();
            Box::new(move |d| {
                let dv = corpus.vector(d);
                Ok(r_vecs
                    .iter()
                    .map(|(r, rv)| (*r, cosine_vectors(&dv, rv)))
                    .filter(|(_, s)| *s >= t)
                    .collect())
            })
        }
    };
    // The matchers' rows of every sampled domain row.
    let picked: moma_table::FxHashSet<u32> = picks.iter().map(|&p| d_vals[p].0).collect();
    let got_of = |m: &Mapping| {
        let mut got: moma_table::FxHashMap<u32, Vec<(u32, u64)>> = Default::default();
        for c in m.table.iter().filter(|c| picked.contains(&c.domain)) {
            got.entry(c.domain)
                .or_default()
                .push((c.range, c.sim.to_bits()));
        }
        got
    };
    let got: Vec<_> = group.iter().map(|(_, m)| got_of(m)).collect();
    // The check is untimed, so it scores on two threads.
    let score = |half: &[usize]| -> Vec<_> {
        half.iter()
            .map(|&p| all_pairs(&d_vals[p].1))
            .collect::<Vec<_>>()
    };
    let (first_half, second_half) = picks.split_at(picks.len() / 2);
    let scored = std::thread::scope(|scope| {
        let other = scope.spawn(|| score(second_half));
        let mut out = score(first_half);
        out.extend(other.join().expect("all-pairs scorer panicked"));
        out
    });
    for (&p, scored) in picks.iter().zip(scored) {
        let d_idx = &d_vals[p].0;
        let scored = scored?;
        for ((spec, _), got) in group.iter().zip(&got) {
            let mut want: Vec<(u32, u64)> = scored
                .iter()
                .filter(|(_, s)| *s >= spec.threshold)
                .map(|(r, s)| (*r, s.to_bits()))
                .collect();
            want.sort_unstable();
            let mut have = got.get(d_idx).cloned().unwrap_or_default();
            have.sort_unstable();
            if want != have {
                return Err(format!(
                    "{}: domain row {d_idx}: threshold plan kept {} rows, all-pairs {}",
                    spec.label,
                    have.len(),
                    want.len()
                ));
            }
        }
    }
    Ok(picks.len())
}

/// Up to `n` distinct entries of `pool`, drawn without replacement.
fn draw(pool: &mut [usize], n: usize, rng: &mut SplitMix) -> Vec<usize> {
    let n = n.min(pool.len());
    for i in 0..n {
        let j = i + rng.below((pool.len() - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool[..n].to_vec()
}

/// An attribute column as match strings, without a span.
fn project_plain(reg: &SourceRegistry, lds: LdsId, attr: &str) -> Result<Vals, String> {
    Ok(reg
        .lds(lds)
        .project(attr)
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|(i, v)| (i, v.to_match_string()))
        .collect())
}
