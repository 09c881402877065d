//! The gram posting store: a size-bucketed inverted gram index with
//! count-filtered candidate merging — the storage engine behind every
//! q-gram blocking plan of `moma_core::blocking`.
//!
//! [`SizeBucketedIndex`] partitions every gram's posting list by the
//! *gram-set size* of the indexed value. A caller probes it with a size
//! window `[min_size, max_size]` and a per-size minimum-overlap function,
//! and gets back exactly the ids that (a) fall in the window and (b)
//! share at least the required number of grams with the query — the
//! SimString *T-occurrence* problem, solved CPMerge-style:
//!
//! 1. query grams are ordered rarest-first (document frequency within
//!    the window, ties broken by the gram),
//! 2. the first `n − τ_min + 1` posting lists seed the candidate set
//!    with occurrence counts (any qualifying id must appear in one of
//!    them — it can miss at most `τ − 1` of the query's grams),
//! 3. the remaining (frequent) lists are *galloped* against the sorted
//!    survivor set (see [`gallop_lower_bound`]), and candidates that can
//!    no longer reach their per-size requirement are abandoned after
//!    every list.
//!
//! Both blocking plans are probes of this one store. The threshold-exact
//! plan passes the measure's size window and overlap bound; the prefix
//! filter passes its `k` rarest grams with the window `[0, u32::MAX]`
//! and `min_overlap = 1`, which is exactly the union of those `k`
//! posting lists.
//!
//! Grams are interned to dense handles ([`StringInterner`]) so each
//! probe hashes every query gram once and array-indexes from then on;
//! the per-size id lists are sorted [`PostingList`]s.
//!
//! The index is incrementally maintainable: O(1) tombstoned removal,
//! surgical replace, amortized compaction ([`compaction_due`]) and
//! shard-mergeable batch builds ([`SizeBucketedIndex::absorb`]). Probes
//! filter tombstones, so candidate sets are exact at every point between
//! compactions; only document frequencies over-count until the sweep.
//!
//! Values whose gram list is empty occupy the special size-0 bucket:
//! they have no postings and can never be merged candidates, but they
//! are tracked ([`SizeBucketedIndex::gramless_ids`]) so callers can
//! implement the "empty query matches empty values exactly" edge of the
//! q-gram measures.

use std::collections::BTreeMap;

use crate::hash::{FxHashMap, FxHashSet};
use crate::interner::StringInterner;
use crate::postings::{gallop_lower_bound, PostingList};

/// Compaction trigger: sweep once `tombstones > live * COMPACTION_RATIO`
/// (and at least [`COMPACTION_FLOOR`] tombstones exist).
pub const COMPACTION_RATIO: f64 = 0.25;

/// Minimum number of tombstones before a sweep is considered — tiny
/// indexes aren't worth sweeping.
pub const COMPACTION_FLOOR: usize = 16;

/// Whether an index holding `tombstones` unswept removals over `live`
/// values should compact now. Sweeping is O(postings), so triggering it
/// at a constant tombstone fraction amortizes it to O(1) per removal
/// while bounding dead-entry overhead to a constant factor. Shared by
/// every tombstoning index in MOMA.
pub fn compaction_due(tombstones: usize, live: usize) -> bool {
    tombstones >= COMPACTION_FLOOR && tombstones as f64 > live as f64 * COMPACTION_RATIO
}

/// Inverted index from gram to id posting lists partitioned by the
/// gram-set size of the indexed value.
///
/// Gram lists handed to [`SizeBucketedIndex::insert`] /
/// [`SizeBucketedIndex::replace`] must be duplicate-free (the caller
/// tokenizes; multiset tokenizers tag repeated grams — see
/// `moma_core::blocking`); the list length is the value's size key.
#[derive(Debug, Clone, Default)]
pub struct SizeBucketedIndex {
    /// Gram string ↔ dense handle; `postings[handle]` holds the gram's
    /// size-bucketed lists.
    grams: StringInterner,
    /// gram handle → size bucket → sorted ids.
    postings: Vec<BTreeMap<u32, PostingList>>,
    /// Live id → gram-set size (0 for gramless values).
    sizes: FxHashMap<u32, u32>,
    /// Live ids with gram-set size 0 (subset of `sizes`), maintained
    /// incrementally so gramless probes don't scan the live population.
    gramless: FxHashSet<u32>,
    /// Removed ids whose posting entries have not been swept yet.
    tombstones: FxHashSet<u32>,
}

impl SizeBucketedIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket map of an interned gram handle, growing the arena on
    /// first touch.
    fn buckets_mut(&mut self, gid: u32) -> &mut BTreeMap<u32, PostingList> {
        let gid = gid as usize;
        if gid >= self.postings.len() {
            self.postings.resize_with(gid + 1, BTreeMap::new);
        }
        &mut self.postings[gid]
    }

    fn buckets(&self, gram: &str) -> Option<&BTreeMap<u32, PostingList>> {
        self.grams.get(gram).map(|gid| &self.postings[gid as usize])
    }

    /// Index one value's deduplicated grams; the value's size key is
    /// `grams.len()`. Inserting a live id is rejected with `false`.
    pub fn insert(&mut self, id: u32, grams: &[String]) -> bool {
        if self.sizes.contains_key(&id) {
            return false;
        }
        if self.tombstones.contains(&id) {
            // Re-inserting a removed id must not resurrect its stale
            // postings; purge them first.
            self.compact();
        }
        debug_assert!(
            grams.windows(2).all(|w| w[0] != w[1] || w[0].is_empty()),
            "grams must be deduplicated"
        );
        let size = grams.len() as u32;
        self.sizes.insert(id, size);
        if size == 0 {
            self.gramless.insert(id);
        }
        for g in grams {
            let gid = self.grams.intern(g);
            self.buckets_mut(gid).entry(size).or_default().insert(id);
        }
        true
    }

    /// Tombstone a live id; returns whether it was live. Sweeps the
    /// postings once [`compaction_due`].
    pub fn remove(&mut self, id: u32) -> bool {
        if self.sizes.remove(&id).is_none() {
            return false;
        }
        self.gramless.remove(&id);
        self.tombstones.insert(id);
        if compaction_due(self.tombstones.len(), self.sizes.len()) {
            self.compact();
        }
        true
    }

    /// Replace a live value's grams: old entries are surgically removed
    /// (the caller supplies the old grams — the index stores no values),
    /// new ones inserted, and the id moves to its new size bucket.
    /// Returns `false` (and does nothing) if `id` is not live.
    pub fn replace(&mut self, id: u32, old_grams: &[String], new_grams: &[String]) -> bool {
        if !self.sizes.contains_key(&id) {
            return false;
        }
        let old_size = old_grams.len() as u32;
        for g in old_grams {
            if let Some(gid) = self.grams.get(g) {
                let buckets = &mut self.postings[gid as usize];
                if let Some(list) = buckets.get_mut(&old_size) {
                    list.remove(id);
                    if list.is_empty() {
                        buckets.remove(&old_size);
                    }
                }
            }
        }
        let new_size = new_grams.len() as u32;
        self.sizes.insert(id, new_size);
        if new_size == 0 {
            self.gramless.insert(id);
        } else {
            self.gramless.remove(&id);
        }
        for g in new_grams {
            let gid = self.grams.intern(g);
            self.buckets_mut(gid)
                .entry(new_size)
                .or_default()
                .insert(id);
        }
        true
    }

    /// Sweep tombstoned ids out of every posting bucket now.
    pub fn compact(&mut self) {
        if self.tombstones.is_empty() {
            return;
        }
        let dead = std::mem::take(&mut self.tombstones);
        for buckets in &mut self.postings {
            buckets.retain(|_, list| {
                list.retain(|id| !dead.contains(&id));
                !list.is_empty()
            });
        }
    }

    /// Number of unswept tombstones.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.len()
    }

    /// Number of live indexed values (gramless ones included).
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Whether no live values are indexed.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Whether `id` is indexed and not tombstoned.
    pub fn is_live(&self, id: u32) -> bool {
        self.sizes.contains_key(&id)
    }

    /// Gram-set size of a live id.
    pub fn size_of(&self, id: u32) -> Option<u32> {
        self.sizes.get(&id).copied()
    }

    /// All live ids — including gramless values, so this always has
    /// exactly [`SizeBucketedIndex::len`] entries.
    pub fn all_ids(&self) -> FxHashSet<u32> {
        self.sizes.keys().copied().collect()
    }

    /// Live ids whose values produced no grams (the size-0 bucket) —
    /// the only possible matches of a gramless query. O(|gramless|):
    /// the set is maintained incrementally, not scanned out of the live
    /// population.
    pub fn gramless_ids(&self) -> FxHashSet<u32> {
        self.gramless.clone()
    }

    /// Document frequency of a gram *within a size window* — posting
    /// entries over buckets in `[min_size, max_size]`, unswept tombstone
    /// entries included (exact after [`SizeBucketedIndex::compact`]).
    pub fn df_in_window(&self, gram: &str, min_size: u32, max_size: u32) -> usize {
        self.buckets(gram)
            .map(|buckets| {
                buckets
                    .range(min_size..=max_size)
                    .map(|(_, list)| list.len())
                    .sum()
            })
            .unwrap_or(0)
    }

    /// The ids with gram-set size in `[min_size, max_size]` sharing at
    /// least `min_overlap(size)` grams with `query_grams` — exactly (no
    /// misses, no extras beyond the count criterion). `query_grams` must
    /// be duplicate-free; `min_overlap` is evaluated per candidate size
    /// and is clamped to ≥ 1 (a merged candidate shares a gram by
    /// construction, and ids sharing none are unreachable anyway).
    ///
    /// Cost is CPMerge-like: the rarest `n − τ_min + 1` posting lists
    /// are scanned, the frequent remainder galloped against the sorted
    /// survivor set, with candidates abandoned as soon as their
    /// remaining potential drops below the requirement.
    pub fn candidates(
        &self,
        query_grams: &[String],
        min_size: u32,
        max_size: u32,
        min_overlap: &dyn Fn(u32) -> u32,
    ) -> FxHashSet<u32> {
        let n = query_grams.len();
        if n == 0 || min_size > max_size {
            return FxHashSet::default();
        }

        // One pass over each gram's in-window buckets computes both the
        // windowed df (for the rarest-first order) and the loosest
        // requirement any in-window candidate could have — min_overlap
        // probed at every distinct bucket size occurring in the window
        // (avoids monotonicity assumptions on the bound). Each gram is
        // hashed exactly once here; later phases reuse the resolved
        // handle and array-index the posting arena.
        let mut tau_min = u32::MAX;
        let mut stats: Vec<(usize, &String, u32)> = Vec::with_capacity(n);
        for g in query_grams {
            let mut df = 0usize;
            let mut gid = u32::MAX; // sentinel: gram not in the index
            if let Some(found) = self.grams.get(g) {
                gid = found;
                for (&size, list) in self.postings[found as usize].range(min_size..=max_size) {
                    df += list.len();
                    tau_min = tau_min.min(min_overlap(size).max(1));
                }
            }
            stats.push((df, g, gid));
        }
        if tau_min == u32::MAX || tau_min as usize > n {
            // No posting in the window, or nothing can share enough.
            return FxHashSet::default();
        }
        // Rarest-first gram order (df ties broken by the gram itself so
        // the scan order — and with it the work done — is
        // deterministic; the *result* is order-independent).
        stats.sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        let order: Vec<u32> = stats.into_iter().map(|(_, _, gid)| gid).collect();

        // Phase 1: scan the rarest n − τ_min + 1 lists, seeding
        // (id, size) → count.
        let seed_lists = n - tau_min as usize + 1;
        let mut counts: FxHashMap<u32, (u32, u32)> = FxHashMap::default(); // id → (count, size)
        for &gid in order.iter().take(seed_lists) {
            if gid == u32::MAX {
                continue;
            }
            for (&size, list) in self.postings[gid as usize].range(min_size..=max_size) {
                for id in list.iter() {
                    if !self.tombstones.contains(&id) {
                        counts.entry(id).or_insert((0, size)).0 += 1;
                    }
                }
            }
        }

        // Phase 2: gallop the frequent remainder against the sorted
        // survivor set, abandoning candidates that can no longer reach
        // their requirement. A live id occupies exactly one size bucket
        // per gram, so each list bumps a survivor at most once.
        let mut survivors: Vec<(u32, u32, u32)> = counts
            .into_iter()
            .map(|(id, (count, size))| (id, count, size))
            .collect();
        survivors.sort_unstable_by_key(|&(id, _, _)| id);
        for (i, &gid) in order.iter().enumerate().skip(seed_lists) {
            if survivors.is_empty() {
                break;
            }
            if gid != u32::MAX {
                for (_, list) in self.postings[gid as usize].range(min_size..=max_size) {
                    bump_common(&mut survivors, list);
                }
            }
            let left_after = (n - 1 - i) as u32; // grams still unprobed after this one
            survivors.retain(|&(_, count, size)| count + left_after >= min_overlap(size).max(1));
        }

        survivors
            .into_iter()
            .filter(|(_, count, size)| *count >= min_overlap(*size).max(1))
            .map(|(id, _, _)| id)
            .collect()
    }

    /// Merge in an index built from another input shard. Per-bucket
    /// posting lists stay id-sorted, so the merged index is
    /// observationally identical to a sequential build over the
    /// concatenated input; gram handles are remapped through their
    /// strings (shard interners assign handles independently). Both
    /// indexes must be tombstone-free (freshly built).
    pub fn absorb(&mut self, other: SizeBucketedIndex) {
        debug_assert!(self.tombstones.is_empty() && other.tombstones.is_empty());
        let SizeBucketedIndex {
            grams,
            postings,
            sizes,
            gramless,
            ..
        } = other;
        self.sizes.extend(sizes);
        self.gramless.extend(gramless);
        for (ogid, buckets) in postings.into_iter().enumerate() {
            if buckets.is_empty() {
                continue;
            }
            let gram = grams
                .resolve(ogid as u32)
                .expect("posting arena tracks the interner");
            let gid = self.grams.intern(gram);
            let mine = self.buckets_mut(gid);
            for (size, list) in buckets {
                match mine.entry(size) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(list);
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        e.get_mut().merge(list);
                    }
                }
            }
        }
    }
}

/// Bump the count of every survivor whose id appears in `list`,
/// galloping through the longer side. `survivors` must be id-sorted;
/// order is preserved.
fn bump_common(survivors: &mut [(u32, u32, u32)], list: &PostingList) {
    let ids = list.ids();
    if survivors.is_empty() || ids.is_empty() {
        return;
    }
    if survivors.len() <= ids.len() {
        // Few survivors: gallop through the posting list.
        let mut j = 0usize;
        for s in survivors.iter_mut() {
            j += gallop_lower_bound(&ids[j..], s.0);
            if j >= ids.len() {
                break;
            }
            if ids[j] == s.0 {
                s.1 += 1;
                j += 1;
            }
        }
    } else {
        // Short list: binary-probe the survivor set per id.
        for &id in ids {
            if let Ok(pos) = survivors.binary_search_by_key(&id, |s| s.0) {
                survivors[pos].1 += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Word-gram tokenizer for tests (deduplicated); the real tagged
    /// q-gram tokenizer lives upstream in moma-core.
    fn grams(s: &str) -> Vec<String> {
        let mut v: Vec<String> = s.split_whitespace().map(str::to_owned).collect();
        v.sort();
        v.dedup();
        v
    }

    fn sample() -> SizeBucketedIndex {
        let mut idx = SizeBucketedIndex::new();
        idx.insert(0, &grams("data cleaning system")); // size 3
        idx.insert(1, &grams("schema matching cupid")); // size 3
        idx.insert(2, &grams("fuzzy match data cleaning")); // size 4
        idx.insert(3, &grams("")); // gramless
        idx.insert(4, &grams("data")); // size 1
        idx
    }

    /// Probe requiring `tau` shared grams at any size.
    fn probe(idx: &SizeBucketedIndex, q: &str, tau: u32) -> FxHashSet<u32> {
        idx.candidates(&grams(q), 0, u32::MAX, &|_| tau)
    }

    #[test]
    fn basic_count_filtering() {
        let idx = sample();
        // Share >= 1 gram with "data cleaning": ids 0, 2, 4.
        let c1 = probe(&idx, "data cleaning", 1);
        assert_eq!(c1, [0u32, 2, 4].into_iter().collect());
        // Share >= 2 grams: ids 0 and 2 only.
        let c2 = probe(&idx, "data cleaning", 2);
        assert_eq!(c2, [0u32, 2].into_iter().collect());
        // Nothing shares 3 grams with a 2-gram query... except nothing.
        assert!(probe(&idx, "data cleaning", 3).is_empty());
    }

    #[test]
    fn size_window_prunes_buckets() {
        let idx = sample();
        let q = grams("data cleaning fuzzy match");
        // Only size-4 values considered: id 2.
        let c = idx.candidates(&q, 4, 4, &|_| 1);
        assert_eq!(c, [2u32].into_iter().collect());
        // Only size-1 values: id 4.
        let c = idx.candidates(&q, 1, 1, &|_| 1);
        assert_eq!(c, [4u32].into_iter().collect());
        // Empty window.
        assert!(idx.candidates(&q, 5, 4, &|_| 1).is_empty());
    }

    #[test]
    fn per_size_overlap_requirement() {
        let idx = sample();
        let q = grams("data cleaning system fuzzy match");
        // Require full containment: size-s candidates must share s grams.
        let c = idx.candidates(&q, 1, u32::MAX, &|s| s);
        // id 0 {data,cleaning,system} ⊆ q; id 2 {fuzzy,match,data,cleaning} ⊆ q; id 4 {data} ⊆ q.
        assert_eq!(c, [0u32, 2, 4].into_iter().collect());
        // id 1 shares nothing; never a candidate.
        assert!(!c.contains(&1));
    }

    #[test]
    fn empty_query_and_gramless_values() {
        let idx = sample();
        assert!(probe(&idx, "", 1).is_empty());
        assert_eq!(idx.gramless_ids(), [3u32].into_iter().collect());
        assert_eq!(idx.size_of(3), Some(0));
        assert_eq!(idx.size_of(2), Some(4));
        assert_eq!(idx.len(), 5);
        assert_eq!(idx.all_ids().len(), 5);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut idx = sample();
        assert!(!idx.insert(0, &grams("other")));
        assert_eq!(idx.len(), 5);
        assert_eq!(idx.df_in_window("other", 0, u32::MAX), 0);
    }

    #[test]
    fn remove_tombstones_and_filters_probes() {
        let mut idx = sample();
        assert!(idx.remove(0));
        assert!(!idx.remove(0));
        assert!(!idx.remove(99));
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.tombstone_count(), 1);
        // df over-counts until compaction, probes never return the dead id.
        assert_eq!(idx.df_in_window("data", 0, u32::MAX), 3);
        let c = probe(&idx, "data cleaning", 1);
        assert!(!c.contains(&0) && c.contains(&2) && c.contains(&4));
        idx.compact();
        assert_eq!(idx.tombstone_count(), 0);
        assert_eq!(idx.df_in_window("data", 0, u32::MAX), 2);
        assert_eq!(
            probe(&idx, "data cleaning", 1),
            [2u32, 4].into_iter().collect()
        );
    }

    #[test]
    fn replace_moves_size_buckets() {
        let mut idx = sample();
        // id 4 grows from size 1 to size 3.
        assert!(idx.replace(4, &grams("data"), &grams("entity resolution survey")));
        assert_eq!(idx.size_of(4), Some(3));
        assert_eq!(idx.df_in_window("data", 1, 1), 0);
        let c = idx.candidates(&grams("entity resolution"), 3, 3, &|_| 2);
        assert_eq!(c, [4u32].into_iter().collect());
        // Replace to gramless and back.
        assert!(idx.replace(4, &grams("entity resolution survey"), &grams("")));
        assert_eq!(idx.size_of(4), Some(0));
        assert!(idx.gramless_ids().contains(&4));
        assert!(idx.replace(4, &grams(""), &grams("back again")));
        assert!(probe(&idx, "back", 1).contains(&4));
        // Non-live id: no-op.
        assert!(!idx.replace(99, &grams("a"), &grams("b")));
    }

    #[test]
    fn reinsert_after_remove_purges_stale_postings() {
        let mut idx = sample();
        idx.remove(0);
        assert!(idx.insert(0, &grams("brand new value")));
        assert_eq!(idx.tombstone_count(), 0);
        assert!(!probe(&idx, "cleaning system", 2).contains(&0));
        assert!(probe(&idx, "brand new", 2).contains(&0));
    }

    #[test]
    fn incremental_equals_rebuild() {
        let mut idx = SizeBucketedIndex::new();
        let mut state: std::collections::BTreeMap<u32, String> = Default::default();
        let texts = [
            "data cleaning",
            "schema matching evaluation",
            "entity resolution",
            "fuzzy match online data",
            "record linkage",
        ];
        for i in 0..25u32 {
            let t = texts[i as usize % texts.len()];
            idx.insert(i, &grams(t));
            state.insert(i, t.to_owned());
        }
        for i in (0..25u32).step_by(3) {
            idx.remove(i);
            state.remove(&i);
        }
        for i in (1..25u32).step_by(4) {
            if let Some(old) = state.get(&i).cloned() {
                idx.replace(i, &grams(&old), &grams("replaced value"));
                state.insert(i, "replaced value".to_owned());
            }
        }
        idx.compact();
        let mut fresh = SizeBucketedIndex::new();
        for (&id, text) in &state {
            fresh.insert(id, &grams(text));
        }
        assert_eq!(idx.len(), fresh.len());
        assert_eq!(idx.all_ids(), fresh.all_ids());
        for text in texts.iter().copied().chain(["replaced value"]) {
            for g in grams(text) {
                assert_eq!(
                    idx.df_in_window(&g, 0, u32::MAX),
                    fresh.df_in_window(&g, 0, u32::MAX),
                    "gram {g}"
                );
            }
            for tau in [1, 2] {
                assert_eq!(
                    probe(&idx, text, tau),
                    probe(&fresh, text, tau),
                    "{text}/{tau}"
                );
            }
        }
    }

    #[test]
    fn absorb_merges_sorted_buckets() {
        let mut a = SizeBucketedIndex::new();
        a.insert(5, &grams("alpha beta"));
        a.insert(1, &grams("beta gamma"));
        let mut b = SizeBucketedIndex::new();
        b.insert(3, &grams("beta delta"));
        a.absorb(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.df_in_window("beta", 2, 2), 3);
        let c = probe(&a, "beta", 1);
        assert_eq!(c, [1u32, 3, 5].into_iter().collect());
    }

    #[test]
    fn compaction_due_policy() {
        // Below the floor nothing is swept, however dead the index.
        assert!(!compaction_due(COMPACTION_FLOOR - 1, 0));
        // At the floor the ratio decides: strictly more than a quarter
        // of the live population.
        assert!(compaction_due(16, 63));
        assert!(!compaction_due(16, 64));
        assert!(compaction_due(100, 399));
        assert!(!compaction_due(100, 400));
        // Identical to the integer form `t >= 16 && t * 4 > live`.
        for t in 0..80usize {
            for live in 0..400usize {
                assert_eq!(
                    compaction_due(t, live),
                    t >= 16 && t * 4 > live,
                    "{t}/{live}"
                );
            }
        }
    }

    #[test]
    fn automatic_compaction_bounds_tombstones() {
        let mut idx = SizeBucketedIndex::new();
        for i in 0..200u32 {
            idx.insert(i, &grams(&format!("value number {i}")));
        }
        for i in 0..150u32 {
            idx.remove(i);
        }
        assert_eq!(idx.len(), 50);
        // Tombstones never exceed the compaction bound.
        assert!(
            !compaction_due(idx.tombstone_count(), idx.len()),
            "tombstones {} never swept",
            idx.tombstone_count()
        );
        // Every remaining probe answer is live.
        for i in 150..200u32 {
            let c = probe(&idx, &format!("value number {i}"), 1);
            assert!(c.contains(&i));
            assert!(c.iter().all(|id| *id >= 150));
        }
    }

    #[test]
    fn gramless_ids_tracked_through_maintenance() {
        let mut idx = sample(); // id 3 is gramless
        assert_eq!(idx.gramless_ids(), [3u32].into_iter().collect());
        // Replace to/from gramless moves ids in and out of the set.
        assert!(idx.replace(0, &grams("data cleaning system"), &grams("")));
        assert_eq!(idx.gramless_ids(), [0u32, 3].into_iter().collect());
        assert!(idx.replace(3, &grams(""), &grams("now has grams")));
        assert_eq!(idx.gramless_ids(), [0u32].into_iter().collect());
        // Removal drops the id.
        assert!(idx.remove(0));
        assert!(idx.gramless_ids().is_empty());
        // Fresh gramless insert after removal.
        assert!(idx.insert(9, &grams("")));
        assert_eq!(idx.gramless_ids(), [9u32].into_iter().collect());
    }

    #[test]
    fn phase2_abandonment_is_exact() {
        // A query with many grams against candidates engineered to sit
        // just below / at the requirement, forcing phase 2 probes.
        let mut idx = SizeBucketedIndex::new();
        idx.insert(0, &grams("a b c d e f g h")); // shares 8
        idx.insert(1, &grams("a b c d x1 x2 x3 x4")); // shares 4
        idx.insert(2, &grams("a y1 y2 y3 y4 y5 y6 y7")); // shares 1
        let q = grams("a b c d e f g h");
        for tau in 1..=8u32 {
            let c = idx.candidates(&q, 0, u32::MAX, &|_| tau);
            assert_eq!(c.contains(&0), tau <= 8, "tau={tau}");
            assert_eq!(c.contains(&1), tau <= 4, "tau={tau}");
            assert_eq!(c.contains(&2), tau <= 1, "tau={tau}");
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn grams(s: &str) -> Vec<String> {
        let mut v: Vec<String> = s.split_whitespace().map(str::to_owned).collect();
        v.sort();
        v.dedup();
        v
    }

    fn overlap(a: &[String], b: &[String]) -> u32 {
        a.iter().filter(|g| b.contains(g)).count() as u32
    }

    proptest! {
        /// The count-filter merge is exact: it returns precisely the
        /// live in-window ids whose true overlap meets the requirement —
        /// compared against a brute-force scan.
        #[test]
        fn merge_matches_bruteforce(
            values in prop::collection::vec("[a-e]( [a-e]){0,7}", 1..25),
            query in "[a-e]( [a-e]){0,7}",
            min_size in 0u32..4,
            width in 0u32..6,
            tau in 1u32..5,
        ) {
            let mut idx = SizeBucketedIndex::new();
            let toks: Vec<Vec<String>> = values.iter().map(|v| grams(v)).collect();
            for (i, t) in toks.iter().enumerate() {
                idx.insert(i as u32, t);
            }
            let q = grams(&query);
            let max_size = min_size + width;
            let got = idx.candidates(&q, min_size, max_size, &|_| tau);
            let want: FxHashSet<u32> = toks
                .iter()
                .enumerate()
                .filter(|(_, t)| {
                    let s = t.len() as u32;
                    (min_size..=max_size).contains(&s) && overlap(&q, t) >= tau
                })
                .map(|(i, _)| i as u32)
                .collect();
            prop_assert_eq!(got, want);
        }

        /// ...and stays exact under tombstoned removals and replaces
        /// (no compaction forced), with per-size requirements.
        #[test]
        fn merge_exact_after_maintenance(
            values in prop::collection::vec("[a-e]( [a-e]){0,7}", 4..25),
            replacement in "[a-e]( [a-e]){0,7}",
            query in "[a-e]( [a-e]){0,7}",
        ) {
            // Fewer removals than COMPACTION_FLOOR: nothing is swept, so
            // the probe runs over tombstoned postings.
            let mut idx = SizeBucketedIndex::new();
            let mut current: Vec<Option<Vec<String>>> =
                values.iter().map(|v| Some(grams(v))).collect();
            for (i, t) in current.iter().enumerate() {
                idx.insert(i as u32, t.as_ref().unwrap());
            }
            for i in (0..values.len()).step_by(3) {
                idx.remove(i as u32);
                current[i] = None;
            }
            prop_assert_eq!(idx.tombstone_count(), values.len().div_ceil(3));
            let rep = grams(&replacement);
            for i in (1..values.len()).step_by(4) {
                if let Some(old) = current[i].clone() {
                    idx.replace(i as u32, &old, &rep);
                    current[i] = Some(rep.clone());
                }
            }
            let q = grams(&query);
            // Per-size requirement: size-s candidates must share
            // ceil(s/2) grams (exercise the closure plumbing).
            let req = |s: u32| s.div_ceil(2).max(1);
            let got = idx.candidates(&q, 0, u32::MAX, &req);
            let want: FxHashSet<u32> = current
                .iter()
                .enumerate()
                .filter_map(|(i, t)| t.as_ref().map(|t| (i, t)))
                .filter(|(_, t)| overlap(&q, t) >= req(t.len() as u32))
                .map(|(i, _)| i as u32)
                .collect();
            prop_assert_eq!(got, want);
        }

        /// The galloped phase 2 (frequent grams vs the sorted survivor
        /// set) stays exact when the same posting lists are probed after
        /// tombstoning and after an explicit compaction: both states
        /// answer identically to a fresh rebuild of the live values.
        #[test]
        fn tombstoned_and_compacted_probes_agree(
            values in prop::collection::vec("[a-c]( [a-c]){0,6}", 4..20),
            query in "[a-c]( [a-c]){0,6}",
            tau in 1u32..4,
        ) {
            let mut idx = SizeBucketedIndex::new();
            for (i, v) in values.iter().enumerate() {
                idx.insert(i as u32, &grams(v));
            }
            for i in (0..values.len() as u32).step_by(2) {
                idx.remove(i);
            }
            // Fewer removals than COMPACTION_FLOOR: all still unswept.
            prop_assert_eq!(idx.tombstone_count(), values.len().div_ceil(2));
            let mut fresh = SizeBucketedIndex::new();
            for (i, v) in values.iter().enumerate() {
                if i % 2 != 0 {
                    fresh.insert(i as u32, &grams(v));
                }
            }
            let q = grams(&query);
            let tombstoned = idx.candidates(&q, 0, u32::MAX, &|_| tau);
            idx.compact();
            let compacted = idx.candidates(&q, 0, u32::MAX, &|_| tau);
            let want = fresh.candidates(&q, 0, u32::MAX, &|_| tau);
            prop_assert_eq!(&tombstoned, &want);
            prop_assert_eq!(&compacted, &want);
        }
    }
}
