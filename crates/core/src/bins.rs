//! Residual literal bins, their byte-pair index, and the parallel scan
//! (Algorithm 1).
//!
//! Literals not in the suffix tree are organized "into bins of residual
//! literals … where each bin has all the literals of a given length" (§5.2).
//! Both the QCM and the QSM only ever search a narrow band of lengths, so the
//! binning prunes most of the corpus before any string comparison happens.
//! The QCM's containment lookup then walks, in rank order, only the band's
//! literals that share the needle's rarest byte pair — every literal of the
//! band when a one-byte needle has no pair — and stops when the caller has
//! enough (`ResidualBins::matching`). What still scans the band with `P`
//! parallel workers and the load-balanced task assignment of Algorithm 1
//! ([`ResidualBins::scan_parallel`]) is the QSM's similarity sweep and
//! `qcm_response`'s §7.3.1 worker sweep.
//!
//! # Layout
//!
//! * **Ids are completion ranks.** Building sorts the literals once by
//!   `(char length, text)` — [`completion_rank`](crate::qcm::completion_rank)'s
//!   order among residual literals — and a literal's [`LitId`] is its
//!   position in that order. `literals[id]` is the text as the endpoint
//!   returned it, which is what a suggestion shows.
//! * **Bins are id ranges.** `len_start[len]` is the first id of length
//!   `len`, so bin `len` is `len_start[len]..len_start[len + 1]`, a band of
//!   lengths is one id range, and a literal's length is a binary search.
//!   Whatever visits a band in id order — a scan's tasks, concatenated, or
//!   the index's postings — yields its matches in rank order.
//! * **One folded arena.** Both scans are case-insensitive, so entry `id`
//!   of one byte buffer (`FoldedArena`: `u32` end offsets) is literal
//!   `id`'s `str::to_lowercase`. A scan of a band reads one stretch of it
//!   front to back and folds nothing. The *whole string* is folded, never
//!   one `char` at a time: `to_lowercase` is context-sensitive (a final `Σ`
//!   folds to `ς`, any other to `σ`), and folding the needle and the probe
//!   the same way is what makes the scans agree with
//!   `lit.to_lowercase().contains(&needle.to_lowercase())` on every input.
//! * **A 64-bit byte signature per literal**, `sigs[id]`. Bit `b & 63` is
//!   set for every byte `b` of the folded text. A substring's bytes are a
//!   subset of its host's, so `needle_sig & !literal_sig != 0` proves the
//!   literal does not contain the needle without reading it; when the test
//!   passes the bytes are searched ([`FoldedLiteral::contains`]). The filter
//!   can only reject non-matches, so answers and their order do not depend
//!   on it.
//! * **Byte-pair postings.** Each distinct pair of adjacent bytes of a
//!   folded literal gives the literal's id one posting, in that pair's
//!   ascending list (`PairIndex`: the pairs present, sorted, with `u32`
//!   offsets and `u32` postings — about 4 B per folded byte). A literal that
//!   contains the needle holds every pair of the needle, so a lookup cuts
//!   each of the needle's lists to the band's id range, walks the shortest,
//!   and checks each candidate with [`FoldedLiteral::contains`]. The lists
//!   only narrow what is checked, so the answer is a scan's of the band,
//!   ids and order alike.
//!
//! All of this is derived from the originals when the bins are built —
//! once, by collecting them ([`FromIterator`]) — and is never serialized.
//! Each part is a flat array indexed by id (or by pair), so a model
//! snapshot could store it as is.

use std::ops::Range;
use std::sync::Arc;

/// Identifier of a literal stored in the bins.
pub type LitId = u32;

/// Bit `b & 63` for every byte `b` of `folded`: a set that contains the
/// signature of each of `folded`'s substrings.
fn byte_signature(folded: &str) -> u64 {
    folded.bytes().fold(0, |sig, b| sig | 1 << (b & 63))
}

/// A containment lookup's search term: folded once, with its signature.
#[derive(Debug, Clone)]
pub struct FoldedNeedle {
    text: String,
    sig: u64,
}

impl FoldedNeedle {
    /// Fold `term` the way the literals were folded.
    pub fn new(term: &str) -> Self {
        let text = term.to_lowercase();
        FoldedNeedle {
            sig: byte_signature(&text),
            text,
        }
    }
}

/// Byte-substring search: skip to each occurrence of the needle's first
/// byte, compare the rest there. On valid UTF-8 this is `str::contains`.
#[inline]
fn contains_bytes(hay: &[u8], needle: &[u8]) -> bool {
    let Some((&first, rest)) = needle.split_first() else {
        return true;
    };
    let mut hay = hay;
    while let Some(at) = hay.iter().position(|&b| b == first) {
        hay = &hay[at + 1..];
        if hay.starts_with(rest) {
            return true;
        }
    }
    false
}

/// `str::to_lowercase` of a list of strings, stored back to back.
#[derive(Debug, Default, Clone)]
pub(crate) struct FoldedArena {
    text: String,
    /// `ends[k]` is where entry `k` stops; it starts where `k - 1` stopped.
    ends: Vec<u32>,
}

impl FoldedArena {
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    #[inline]
    pub(crate) fn get(&self, k: usize) -> &str {
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        &self.text[start as usize..self.ends[k] as usize]
    }
}

impl<'a> FromIterator<&'a str> for FoldedArena {
    fn from_iter<I: IntoIterator<Item = &'a str>>(originals: I) -> Self {
        let mut arena = FoldedArena::default();
        for original in originals {
            arena.text.push_str(&original.to_lowercase());
            let end = u32::try_from(arena.text.len()).expect("folded arena over 4 GiB");
            arena.ends.push(end);
        }
        arena
    }
}

/// A literal as a scan sees it: case-folded.
#[derive(Debug, Clone, Copy)]
pub struct FoldedLiteral<'a> {
    bins: &'a ResidualBins,
    id: usize,
}

// `text` and `contains` run once per literal of a scan, inside a closure
// that may be compiled in another crate (`qcm_response`'s sweep): `#[inline]`
// on them and on what they call lets them inline there too.
impl<'a> FoldedLiteral<'a> {
    /// The literal's `str::to_lowercase`.
    #[inline]
    pub fn text(&self) -> &'a str {
        self.bins.folded.get(self.id)
    }

    /// `self.text().contains(needle)`, reading the text only when the
    /// literal's signature has every byte of the needle's.
    #[inline]
    pub fn contains(&self, needle: &FoldedNeedle) -> bool {
        needle.sig & !self.bins.sigs[self.id] == 0
            && contains_bytes(self.text().as_bytes(), needle.text.as_bytes())
    }
}

/// The index key of two adjacent bytes.
fn pair_key(pair: &[u8]) -> u16 {
    u16::from_be_bytes([pair[0], pair[1]])
}

/// The byte pairs of a folded text, as keys, each once (in `scratch`, which
/// is reused across calls).
fn distinct_pairs<'s>(folded: &str, scratch: &'s mut Vec<u16>) -> &'s [u16] {
    scratch.clear();
    scratch.extend(folded.as_bytes().windows(2).map(pair_key));
    scratch.sort_unstable();
    scratch.dedup();
    scratch
}

/// Byte-pair postings: for each pair present, the ascending ids of the
/// literals whose folded text holds it.
#[derive(Debug, Clone)]
struct PairIndex {
    /// The pairs present, ascending.
    keys: Vec<u16>,
    /// Key `k`'s postings are `postings[starts[k]..starts[k + 1]]`.
    starts: Vec<u32>,
    postings: Vec<LitId>,
}

impl PairIndex {
    /// Index `folded`, the folded literals in id order. Two passes over
    /// the texts — count, then fill — so no `(pair, id)` list is ever
    /// held: what is allocated is what is kept, plus one 256 KB counter
    /// table while building.
    fn build<'a>(folded: impl Iterator<Item = &'a str> + Clone) -> Self {
        let mut scratch = Vec::new();
        // Pass 1: `slot[pair]` counts the literals holding the pair.
        let mut slot = vec![0u32; 1 << 16];
        for text in folded.clone() {
            for &pair in distinct_pairs(text, &mut scratch) {
                slot[pair as usize] += 1;
            }
        }
        let keys: Vec<u16> = (0..=u16::MAX).filter(|&p| slot[p as usize] > 0).collect();
        let mut starts = Vec::with_capacity(keys.len() + 1);
        let mut end = 0u32;
        starts.push(end);
        for &key in &keys {
            let count = std::mem::replace(&mut slot[key as usize], end);
            end = end.checked_add(count).expect("more than 2^32 postings");
            starts.push(end);
        }
        // Pass 2: `slot[pair]` is now the pair's next free posting. Ids
        // arrive ascending, so every list comes out sorted.
        let mut postings = vec![0u32; end as usize];
        for (id, text) in folded.enumerate() {
            for &pair in distinct_pairs(text, &mut scratch) {
                let at = &mut slot[pair as usize];
                postings[*at as usize] = id as LitId;
                *at += 1;
            }
        }
        PairIndex {
            keys,
            starts,
            postings,
        }
    }

    /// The postings of `pair` inside the id range `ids`.
    fn within(&self, pair: u16, ids: Range<usize>) -> &[LitId] {
        let Ok(k) = self.keys.binary_search(&pair) else {
            return &[];
        };
        let list = &self.postings[self.starts[k] as usize..self.starts[k + 1] as usize];
        let from = list.partition_point(|&id| (id as usize) < ids.start);
        let to = list.partition_point(|&id| (id as usize) < ids.end);
        &list[from..to]
    }

    fn approx_bytes(&self) -> usize {
        2 * self.keys.len() + 4 * (self.starts.len() + self.postings.len())
    }
}

/// Length-keyed bins over a deduplicated literal corpus, with the byte-pair
/// index of their folded text. Built once, by collecting the literals; a
/// literal's [`LitId`] is its rank by `(char length, text)`.
#[derive(Debug, Clone)]
pub struct ResidualBins {
    /// All literals, indexed by [`LitId`].
    literals: Vec<String>,
    /// The folded literals, indexed by [`LitId`].
    folded: FoldedArena,
    /// Byte signature of each folded literal, indexed by [`LitId`].
    sigs: Vec<u64>,
    /// `len_start[len]` is the first id of `char` length `len`; the last
    /// entry is the number of literals.
    len_start: Vec<u32>,
    /// Byte-pair postings over the folded literals, by id.
    pairs: PairIndex,
}

impl FromIterator<String> for ResidualBins {
    /// Rank the literals, fold them, sign them and index their byte pairs.
    /// Duplicates are stored once per occurrence — the cache layer dedups
    /// before building.
    fn from_iter<I: IntoIterator<Item = String>>(literals: I) -> Self {
        let mut ranked: Vec<(u32, String)> = (literals.into_iter())
            .map(|text| {
                let len = u32::try_from(text.chars().count()).expect("literal over 2^32 chars");
                (len, text)
            })
            .collect();
        ranked.sort_unstable();
        let bins = ranked.last().map_or(0, |&(len, _)| len as usize + 1);
        let len_start = (0..=bins)
            .map(|len| {
                let start = ranked.partition_point(|&(l, _)| (l as usize) < len);
                LitId::try_from(start).expect("more than 2^32 literals")
            })
            .collect();
        let literals: Vec<String> = ranked.into_iter().map(|(_, text)| text).collect();
        let folded: FoldedArena = literals.iter().map(String::as_str).collect();
        let texts = (0..folded.len()).map(|id| folded.get(id));
        ResidualBins {
            sigs: texts.clone().map(byte_signature).collect(),
            pairs: PairIndex::build(texts),
            literals,
            folded,
            len_start,
        }
    }
}

impl ResidualBins {
    /// The literal text for an id.
    pub fn literal(&self, id: LitId) -> &str {
        &self.literals[id as usize]
    }

    /// The literal's length in `char`s — the bin it is in.
    pub fn char_len(&self, id: LitId) -> usize {
        self.len_start.partition_point(|&start| start <= id) - 1
    }

    /// Total number of stored literals.
    pub fn len(&self) -> usize {
        self.literals.len()
    }

    /// True if no literals are stored.
    pub fn is_empty(&self) -> bool {
        self.literals.is_empty()
    }

    /// Number of non-empty bins (the paper reports 80 bins for DBpedia —
    /// one per observed length under the 80-char cap).
    pub fn bin_count(&self) -> usize {
        self.len_start.windows(2).filter(|w| w[0] < w[1]).count()
    }

    /// The ids of the literals of exactly `len` chars.
    pub fn bin(&self, len: usize) -> Range<LitId> {
        let ids = self.band(len..len.saturating_add(1));
        ids.start as LitId..ids.end as LitId
    }

    /// The ids of the literals whose length is in `lens` (clamped) — the
    /// `bins'` input of Algorithms 1 and 2, as one range.
    fn band(&self, lens: Range<usize>) -> Range<usize> {
        let last = self.len_start.len() - 1;
        let from = self.len_start[lens.start.min(last)] as usize;
        let to = self.len_start[lens.end.min(last)] as usize;
        from..to.max(from)
    }

    /// Number of literals within a length range — used to report how much of
    /// the corpus the length filter eliminates (§7.3.1: "filtering eliminates
    /// 46% of the literals").
    pub fn count_in_range(&self, range: Range<usize>) -> usize {
        self.band(range).len()
    }

    /// Ids of the literals in the bins of `range` (clamped) whose folded
    /// text contains `needle`, ascending — rank order — and found lazily, so
    /// a caller that wants the first `k` checks no candidate past the `k`-th
    /// match. The candidates are the band's postings for the needle's
    /// rarest byte pair, or the whole band when the folded needle is
    /// shorter than two bytes and has no pair; each is checked with
    /// [`FoldedLiteral::contains`].
    pub(crate) fn matching<'a>(
        &'a self,
        needle: &'a FoldedNeedle,
        range: Range<usize>,
    ) -> impl Iterator<Item = LitId> + 'a {
        let band = self.band(range);
        let rarest = (needle.text.as_bytes().windows(2))
            .map(|pair| self.pairs.within(pair_key(pair), band.clone()))
            .min_by_key(|list| list.len());
        let (postings, whole_band) = match rarest {
            Some(list) => (list, 0..0),
            None => (&[][..], band.start as LitId..band.end as LitId),
        };
        (postings.iter().copied())
            .chain(whole_band)
            .filter(move |&id| self.folded_literal(id as usize).contains(needle))
    }

    /// Heap bytes of the byte-pair index and the length table.
    pub fn index_bytes(&self) -> usize {
        self.pairs.approx_bytes() + 4 * self.len_start.len()
    }

    fn folded_literal(&self, id: usize) -> FoldedLiteral<'_> {
        FoldedLiteral { bins: self, id }
    }

    /// Scan the bins in `range` with `P = processes` workers, collecting
    /// every literal for which a worker's `accept` returns a score. Work is
    /// divided with Algorithm 1; each of the `P` tasks calls `worker` once
    /// for its own `accept`, so a scan can keep mutable scratch per task.
    /// `accept` sees the literal case-folded ([`FoldedLiteral`]). Returns
    /// `(LitId, score)` pairs in worker order, which is ascending id order.
    ///
    /// Small scans run the *same* task list inline instead of going to the
    /// executor. Tasks execute in worker order either way, so the result
    /// vector is byte-identical to the parallel path's concatenation. A
    /// large scan's tasks own what they read: an `Arc` of the bins, the
    /// task list, and `worker` with whatever it captured.
    pub fn scan_parallel<A, F>(
        self: &Arc<Self>,
        range: Range<usize>,
        processes: usize,
        worker: F,
    ) -> Vec<(LitId, f64)>
    where
        F: Fn() -> A + Send + Sync + 'static,
        A: FnMut(FoldedLiteral<'_>) -> Option<f64>,
    {
        let band = self.band(range);
        if band.is_empty() {
            return Vec::new();
        }
        let tasks = assign_tasks(band.clone(), processes);
        if band.len() <= INLINE_SCAN_THRESHOLD {
            return (tasks.into_iter())
                .flat_map(|task| self.scan_task(task, worker()))
                .collect();
        }
        // Large scan: run the same task list on the shared executor. `run`
        // returns results in task-index order, so the concatenation is
        // byte-identical to the inline path.
        let bins = Arc::clone(self);
        crate::exec::global()
            .run(tasks.len(), move |i| {
                bins.scan_task(tasks[i].clone(), worker())
            })
            .into_iter()
            .flatten()
            .collect()
    }

    /// One Algorithm-1 task: the literals `ids`, through `accept`.
    fn scan_task<A>(&self, ids: Range<usize>, mut accept: A) -> Vec<(LitId, f64)>
    where
        A: FnMut(FoldedLiteral<'_>) -> Option<f64>,
    {
        ids.filter_map(|id| Some((id as LitId, accept(self.folded_literal(id))?)))
            .collect()
    }
}

/// Scans of at most this many literals run on the calling thread.
///
/// Measured on the 2-core reference box with the threshold forced to 0, over
/// `medium`-scale literals grown to 1 k – 128 k, and with `qcm_response`'s
/// `P` sweep (bands of ≈ 190 k): handing a scan to the shared executor at
/// `P = 2` adds 10–12 µs to a small one (submit-to-start p50 4 µs, p95
/// 31 µs — a parked worker has to be woken) and `P = 2` first beats inline
/// where the inline work passes 150–200 µs. Inline, the similarity sweep
/// costs about 20 ns a literal, so it gains from ≈ 10 k literals (224 →
/// 161 µs; at 6 k, 125 → 138 µs). The containment scan costs 0.7–1.5 ns a
/// literal where signatures mostly reject and 5 ns where most pass, so a
/// 34 k band still loses (47 → 61 µs) and `qcm_response`'s 190 k bands,
/// 0.12 ms inline, do not gain either. No served completion scans: the QCM
/// walks its band's candidates on the calling thread
/// (`ResidualBins::matching`) and never reaches this threshold, and the
/// containment scan runs only in `qcm_response`'s worker sweep — so the
/// count is set for the similarity sweep: it keeps every scan a serving model
/// of this repository's sizes makes inline (the benchmark's bands hold
/// ≈ 2 k), lets a sweep go parallel from about 0.6 ms of work, and costs a
/// mid-sized scan a few tens of µs that a busy server would not have had a
/// free core for anyway.
pub(crate) const INLINE_SCAN_THRESHOLD: usize = 32_768;

/// Algorithm 1: assign the band of ids `band` to `P = processes` workers so
/// that every worker scans (nearly) the same number of literals. The paper
/// hands each process contiguous bin slices up to a capacity of ⌈n/P⌉
/// literals; a band's bins are consecutive id ranges, so those slices
/// concatenate to task `i` = ids `i·⌈n/P⌉ ..` of the band, ⌈n/P⌉ long or
/// cut at its end. Always `P` tasks, in band order, the last ones possibly
/// short or empty.
pub fn assign_tasks(band: Range<usize>, processes: usize) -> Vec<Range<usize>> {
    let p = processes.max(1);
    let capacity = band.len().div_ceil(p);
    (0..p)
        .map(|i| {
            let start = band.start.saturating_add(i * capacity).min(band.end);
            start..start.saturating_add(capacity).min(band.end)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let b: ResidualBins = ["New York".to_string()].into_iter().collect();
        let id: LitId = 0;
        assert_eq!(b.literal(id), "New York");
        assert_eq!(b.bin(8), id..id + 1);
        assert_eq!(b.len(), 1);
        assert_eq!(b.bin_count(), 1);
    }

    #[test]
    fn length_bands_clamp() {
        let b: ResidualBins = ["ab", "abc", "abcdef"]
            .map(String::from)
            .into_iter()
            .collect();
        assert_eq!((0..100).filter(|&len| !b.bin(len).is_empty()).count(), 3);
        assert_eq!(b.count_in_range(3..4), 1);
        assert_eq!(b.count_in_range(2..4), 2);
        assert_eq!(b.count_in_range(0..usize::MAX), 3);
        assert_eq!(b.count_in_range(7..9), 0);
        assert!(b.bin(usize::MAX).is_empty());
    }

    #[test]
    fn unicode_length_is_chars_not_bytes() {
        let b: ResidualBins = ["Zürich".to_string()].into_iter().collect();
        let id: LitId = 0;
        assert_eq!(b.bin(6), id..id + 1, "6 chars even though 7 bytes");
    }

    #[test]
    fn assign_tasks_covers_everything_exactly_once() {
        for band in [0..20, 3..7, 0..100, 5..15, 9..9, 0..1] {
            for p in 1..=8 {
                let tasks = assign_tasks(band.clone(), p);
                assert_eq!(tasks.len(), p);
                let seen: Vec<usize> = tasks.iter().cloned().flatten().collect();
                assert_eq!(
                    seen,
                    band.clone().collect::<Vec<_>>(),
                    "band {band:?} p {p}"
                );
                let capacity = band.len().div_ceil(p);
                assert!(tasks.iter().all(|task| task.len() <= capacity));
            }
        }
    }

    #[test]
    fn assign_tasks_balances_load() {
        for task in assign_tasks(0..160, 4) {
            assert_eq!(task.len(), 40);
        }
    }

    #[test]
    fn folded_view_is_the_whole_string_lowercased() {
        let originals = ["New York", "ΟΔΟΣ", "İstanbul", "Straße", "ZÜRICH"];
        let b: Arc<ResidualBins> = Arc::new(originals.map(String::from).into_iter().collect());
        // One task sees every literal, in rank order.
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        b.scan_parallel(0..100, 1, move || {
            let seen = Arc::clone(&sink);
            move |lit: FoldedLiteral<'_>| {
                assert_eq!(lit.bins.sigs[lit.id], byte_signature(lit.text()));
                seen.lock().unwrap().push(lit.text().to_string());
                Some(0.0)
            }
        });
        let mut ranked: Vec<&str> = originals.to_vec();
        ranked.sort_by_key(|lit| (lit.chars().count(), *lit));
        let expected: Vec<String> = ranked.iter().map(|lit| lit.to_lowercase()).collect();
        assert_eq!(*seen.lock().unwrap(), expected);
        assert!(expected.contains(&"οδος".to_string()), "final sigma kept");
        for (id, lit) in ranked.iter().enumerate() {
            assert_eq!(b.literal(id as LitId), *lit, "originals untouched");
            assert_eq!(b.char_len(id as LitId), lit.chars().count());
        }
    }

    #[test]
    fn signature_covers_every_substring() {
        let text = "jacqueline kennedy onassis é";
        let sig = byte_signature(text);
        for start in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            for end in (start..=text.len()).filter(|&i| text.is_char_boundary(i)) {
                assert_eq!(byte_signature(&text[start..end]) & !sig, 0);
            }
        }
        assert_ne!(byte_signature("z") & !sig, 0, "and rejects a byte it lacks");
    }

    #[test]
    fn parallel_scan_equals_sequential() {
        let b: ResidualBins = (0..500)
            .map(|i| format!("Literal Value {i}"))
            .chain(["Needle".into(), "needles".into()])
            .collect();
        let b = Arc::new(b);
        let sequential: Vec<LitId> = (0..b.len() as u32)
            .filter(|&id| b.literal(id).to_lowercase().contains("needle"))
            .collect();
        for p in [1, 2, 4, 8] {
            let mut got: Vec<LitId> = b
                .scan_parallel(0..100, p, || {
                    |lit: FoldedLiteral<'_>| lit.text().contains("needle").then_some(1.0)
                })
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            got.sort_unstable();
            assert_eq!(got, sequential, "P = {p}");
        }
    }

    #[test]
    fn executor_scan_matches_reference_above_inline_threshold() {
        // One literal more than INLINE_SCAN_THRESHOLD forces the executor
        // path; the Algorithm-1 task list walked sequentially in worker
        // order (what the inline arm does) must produce identical bytes.
        let b: ResidualBins = (0..=INLINE_SCAN_THRESHOLD)
            .map(|i| format!("Residual Literal Number {i:07}"))
            .collect();
        let b = Arc::new(b);
        let accept = |s: &str| s.ends_with('7').then_some(s.len() as f64);
        for p in [1, 2, 4, 8] {
            let via_exec = b.scan_parallel(0..100, p, move || {
                move |lit: FoldedLiteral<'_>| accept(lit.text())
            });
            let in_worker_order: Vec<(LitId, f64)> = assign_tasks(0..b.len(), p)
                .into_iter()
                .flatten()
                .map(|id| id as LitId)
                .filter_map(|id| accept(&b.literal(id).to_lowercase()).map(|score| (id, score)))
                .collect();
            assert_eq!(via_exec, in_worker_order, "P = {p}");
            assert!(!via_exec.is_empty());
        }
    }

    #[test]
    fn scan_respects_length_range() {
        let b: ResidualBins = ["ab", "abcd", "abcdefgh"]
            .map(String::from)
            .into_iter()
            .collect();
        let b = Arc::new(b);
        let hits = b.scan_parallel(2..5, 2, || |_| Some(1.0));
        assert_eq!(hits.len(), 2);
    }

    /// The band's literals containing `needle` up to case, each folded on
    /// the spot, by length, then by id.
    fn naive_containing(b: &ResidualBins, needle: &str, band: Range<usize>) -> Vec<LitId> {
        let folded = needle.to_lowercase();
        let len = |id: LitId| b.literal(id).chars().count();
        let mut ids: Vec<LitId> = (0..b.len() as LitId)
            .filter(|&id| band.contains(&len(id)))
            .filter(|&id| b.literal(id).to_lowercase().contains(&folded))
            .collect();
        ids.sort_by_key(|&id| len(id));
        ids
    }

    /// The walk, collected.
    fn matching(b: &ResidualBins, needle: &str, band: Range<usize>) -> Vec<LitId> {
        b.matching(&FoldedNeedle::new(needle), band).collect()
    }

    fn sample_bins() -> ResidualBins {
        [
            "Kennedy Space Center",
            "kennedy",
            "ΟΔΟΣ ΚΕΝΝΕΔΥ",
            "KENNETH",
            "İstanbul",
            "Ken",
            "Straße",
            "bennet",
            "Sskenn",
        ]
        .map(String::from)
        .into_iter()
        .collect()
    }

    #[test]
    fn index_answers_like_the_scan_in_scan_order() {
        let b = Arc::new(sample_bins());
        for needle in ["ken", "ENN", "nn", "ß", "İ", "i̇s", "οσ", "κεν", "en", "ss"] {
            for band in [0..100, 3..8, 7..8, 8..9, 0..0, 50..60] {
                let got = matching(&b, needle, band.clone());
                let scanned: Vec<LitId> = b
                    .scan_parallel(band.clone(), 3, move || {
                        let needle = FoldedNeedle::new(needle);
                        move |lit: FoldedLiteral<'_>| lit.contains(&needle).then_some(0.0)
                    })
                    .into_iter()
                    .map(|(id, _)| id)
                    .collect();
                assert_eq!(got, scanned, "{needle:?} in {band:?}");
                assert_eq!(scanned, naive_containing(&b, needle, band));
            }
        }
        assert!(!naive_containing(&b, "ken", 0..100).is_empty());
    }

    #[test]
    fn a_needle_without_a_byte_pair_walks_its_band() {
        let b = sample_bins();
        // "ß" is one char of two bytes: it has a pair, and reads its postings.
        for needle in ["k", "E", " ", "", "ß"] {
            for band in [0..100, 0..1, 3..8, 7..8, 12..13, 0..0, 50..60] {
                let want = naive_containing(&b, needle, band.clone());
                assert_eq!(
                    matching(&b, needle, band.clone()),
                    want,
                    "{needle:?} in {band:?}"
                );
            }
        }
        assert_eq!(matching(&b, "", 0..100).len(), b.len());
        assert_eq!(matching(&b, "k", 0..100).len(), 5);
    }

    #[test]
    fn a_pair_absent_from_the_corpus_answers_empty() {
        let b = sample_bins();
        for needle in ["zq", "kenz", "xken", "😀"] {
            assert_eq!(matching(&b, needle, 0..100), Vec::new(), "{needle:?}");
        }
        // Every pair present, but never together: the check rejects it.
        let needle = "kennedy center";
        assert!((needle.as_bytes().windows(2))
            .all(|pair| !b.pairs.within(pair_key(pair), 0..b.len()).is_empty()));
        assert_eq!(matching(&b, needle, 0..100), Vec::new());
    }

    #[test]
    fn a_needle_longer_than_every_literal_in_its_band_answers_empty() {
        let b = sample_bins();
        // Past the longest bin: the band clamps to nothing.
        let long = "Kennedy Space Center, Florida";
        assert_eq!(matching(&b, long, 29..40), Vec::new());
        // In bytes, not chars: "ßßß" is 3 chars and 6 bytes, "Ken" 3 bytes.
        assert_eq!(matching(&b, "ßßß", 3..4), Vec::new());
        assert_eq!(naive_containing(&b, "ßßß", 3..4), Vec::<LitId>::new());
    }

    #[test]
    fn the_index_costs_at_most_four_bytes_a_folded_byte() {
        let b: ResidualBins = (0..2_000)
            .map(|i| format!("Residual Literal Ünïcode {i:05} ΟΔΟΣ"))
            .collect();
        let folded: usize = (0..b.len() as LitId)
            .map(|id| b.literal(id).to_lowercase().len())
            .sum();
        let keys = b.pairs.keys.len();
        assert!(b.pairs.postings.len() < folded);
        assert!(b.index_bytes() <= 4 * folded + 6 * (keys + 1) + 4 * b.len_start.len());
    }

    #[test]
    fn empty_bins_scan_is_empty() {
        let b: Arc<ResidualBins> = Arc::new(std::iter::empty().collect());
        assert!(b.scan_parallel(0..10, 4, || |_| Some(1.0)).is_empty());
        assert!(b.is_empty());
    }
}
