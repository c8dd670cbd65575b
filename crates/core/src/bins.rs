//! Residual literal bins and the parallel scan (Algorithm 1).
//!
//! Literals not in the suffix tree are organized "into bins of residual
//! literals … where each bin has all the literals of a given length" (§5.2).
//! Both the QCM and the QSM only ever search a narrow band of lengths, so the
//! binning prunes most of the corpus before any string comparison happens;
//! the rest is scanned sequentially by `P` parallel workers with the
//! load-balanced task assignment of Algorithm 1.
//!
//! # Layout
//!
//! * **Originals by id.** `literals[id]` is the text as the endpoint
//!   returned it — what a suggestion shows — and `char_lens[id]` its length
//!   in `char`s, which is the bin it sits in.
//! * **One folded arena per bin.** Both scans are case-insensitive, so each
//!   bin keeps the `str::to_lowercase` of its literals back to back in one
//!   byte buffer (`FoldedArena`: `u32` end offsets, entry `k` belongs to
//!   `ids[k]`). A scan of a length band reads a handful of buffers front to
//!   back and folds nothing. The *whole string* is folded, never one `char`
//!   at a time: `to_lowercase` is context-sensitive (a final `Σ` folds to
//!   `ς`, any other to `σ`), and folding the needle and the probe the same
//!   way is what makes the scans agree with
//!   `lit.to_lowercase().contains(&needle.to_lowercase())` on every input.
//! * **A 64-bit byte signature per literal.** Bit `b & 63` is set for every
//!   byte `b` of the folded text. A substring's bytes are a subset of its
//!   host's, so `needle_sig & !literal_sig != 0` proves the literal does not
//!   contain the needle without reading it; when the test passes the bytes
//!   are searched ([`FoldedLiteral::contains`]). The filter can only reject
//!   non-matches, so answers and their order do not depend on it.
//!
//! All of this is derived from the originals when they are added and is
//! never serialized.

use std::ops::Range;

/// Identifier of a literal stored in the bins.
pub type LitId = u32;

/// Bit `b & 63` for every byte `b` of `folded`: a set that contains the
/// signature of each of `folded`'s substrings.
fn byte_signature(folded: &str) -> u64 {
    folded.bytes().fold(0, |sig, b| sig | 1 << (b & 63))
}

/// A containment scan's search term: folded once, with its signature.
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
    /// Fold `original` and append it; returns the folded text.
    pub(crate) fn push(&mut self, original: &str) -> &str {
        let start = self.text.len();
        self.text.push_str(&original.to_lowercase());
        self.ends
            .push(u32::try_from(self.text.len()).expect("folded arena over 4 GiB"));
        &self.text[start..]
    }

    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    pub(crate) fn get(&self, k: usize) -> &str {
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        &self.text[start as usize..self.ends[k] as usize]
    }
}

impl<'a> FromIterator<&'a str> for FoldedArena {
    fn from_iter<I: IntoIterator<Item = &'a str>>(originals: I) -> Self {
        let mut arena = FoldedArena::default();
        for original in originals {
            arena.push(original);
        }
        arena
    }
}

/// The literals of one `char` length: ids, folded text and signatures, all
/// in insertion order.
#[derive(Debug, Default, Clone)]
struct Bin {
    ids: Vec<LitId>,
    folded: FoldedArena,
    sigs: Vec<u64>,
}

/// A literal as a scan sees it: case-folded.
#[derive(Debug, Clone, Copy)]
pub struct FoldedLiteral<'a> {
    bin: &'a Bin,
    index: usize,
}

impl<'a> FoldedLiteral<'a> {
    /// The literal's `str::to_lowercase`.
    pub fn text(&self) -> &'a str {
        self.bin.folded.get(self.index)
    }

    /// `self.text().contains(needle)`, reading the text only when the
    /// literal's signature has every byte of the needle's.
    pub fn contains(&self, needle: &FoldedNeedle) -> bool {
        needle.sig & !self.bin.sigs[self.index] == 0
            && contains_bytes(self.text().as_bytes(), needle.text.as_bytes())
    }
}

/// Length-keyed bins over a deduplicated literal corpus.
#[derive(Debug, Default, Clone)]
pub struct ResidualBins {
    /// All literals, indexed by [`LitId`].
    literals: Vec<String>,
    /// `char` length of each literal, indexed by [`LitId`].
    char_lens: Vec<u32>,
    /// `bins[len]` holds the literals whose `char` length is `len`.
    bins: Vec<Bin>,
}

impl ResidualBins {
    /// Empty bins.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a literal; returns its id. Duplicates are stored once per call
    /// site decision — the cache layer dedups before insertion.
    pub fn add(&mut self, literal: String) -> LitId {
        let id = LitId::try_from(self.literals.len()).expect("more than 2^32 literals");
        let len = literal.chars().count();
        if self.bins.len() <= len {
            self.bins.resize_with(len + 1, Bin::default);
        }
        let bin = &mut self.bins[len];
        bin.ids.push(id);
        let sig = byte_signature(bin.folded.push(&literal));
        bin.sigs.push(sig);
        self.char_lens
            .push(u32::try_from(len).expect("literal over 2^32 chars"));
        self.literals.push(literal);
        id
    }

    /// The literal text for an id.
    pub fn literal(&self, id: LitId) -> &str {
        &self.literals[id as usize]
    }

    /// The literal's length in `char`s — the bin it is in.
    pub fn char_len(&self, id: LitId) -> usize {
        self.char_lens[id as usize] as usize
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
        self.bins.iter().filter(|b| !b.ids.is_empty()).count()
    }

    /// The ids in the bin for exactly length `len`.
    pub fn bin(&self, len: usize) -> &[LitId] {
        self.bins.get(len).map_or(&[], |b| &b.ids)
    }

    /// Non-empty bins for lengths in `range` (clamped).
    fn bins_in(&self, range: Range<usize>) -> impl Iterator<Item = &Bin> {
        let hi = range.end.min(self.bins.len());
        self.bins[range.start.min(hi)..hi]
            .iter()
            .filter(|b| !b.ids.is_empty())
    }

    /// Bins for lengths in `range` (clamped), as slices. This is the `bins'`
    /// input of Algorithms 1 and 2.
    pub fn bins_in_range(&self, range: Range<usize>) -> Vec<&[LitId]> {
        self.bins_in(range).map(|b| b.ids.as_slice()).collect()
    }

    /// Number of literals within a length range — used to report how much of
    /// the corpus the length filter eliminates (§7.3.1: "filtering eliminates
    /// 46% of the literals").
    pub fn count_in_range(&self, range: Range<usize>) -> usize {
        self.bins_in(range).map(|b| b.ids.len()).sum()
    }

    /// Scan the bins in `range` with `P = processes` workers, collecting
    /// every literal for which a worker's `accept` returns a score. Work is
    /// divided with Algorithm 1; each of the `P` tasks calls `worker` once
    /// for its own `accept`, so a scan can keep mutable scratch per task.
    /// `accept` sees the literal case-folded ([`FoldedLiteral`]). Returns
    /// `(LitId, score)` pairs in worker order.
    ///
    /// Small scans run the *same* task list inline instead of going to the
    /// executor. Tasks execute in worker order either way, so the result
    /// vector is byte-identical to the parallel path's concatenation.
    pub fn scan_parallel<A, F>(
        &self,
        range: Range<usize>,
        processes: usize,
        worker: F,
    ) -> Vec<(LitId, f64)>
    where
        F: Fn() -> A + Sync,
        A: FnMut(FoldedLiteral<'_>) -> Option<f64>,
    {
        let bins: Vec<&Bin> = self.bins_in(range).collect();
        if bins.is_empty() {
            return Vec::new();
        }
        let ids: Vec<&[LitId]> = bins.iter().map(|b| b.ids.as_slice()).collect();
        let tasks = assign_tasks(&ids, processes.max(1));
        let run_task = |task: &[Segment]| {
            let mut accept = worker();
            let mut found = Vec::new();
            for seg in task {
                let bin = bins[seg.bin];
                for index in seg.range.clone() {
                    if let Some(score) = accept(FoldedLiteral { bin, index }) {
                        found.push((bin.ids[index], score));
                    }
                }
            }
            found
        };
        let total: usize = ids.iter().map(|b| b.len()).sum();
        if total <= INLINE_SCAN_THRESHOLD {
            return tasks.iter().flat_map(|t| run_task(t)).collect();
        }
        // Large scan: run the same task list on the shared executor. `run`
        // returns results in task-index order, so the concatenation is
        // byte-identical to the inline path.
        crate::exec::global()
            .run(tasks.len(), |i| run_task(&tasks[i]))
            .into_iter()
            .flatten()
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
/// 0.12 ms inline, do not gain either. One count has to serve both kernels: this one
/// keeps every scan a serving model of this repository's sizes makes inline
/// (the benchmark's bands hold ≈ 2 k), lets a sweep go parallel from about
/// 0.6 ms of work, and costs a mid-sized scan a few tens of µs that a busy
/// server would not have had a free core for anyway.
pub(crate) const INLINE_SCAN_THRESHOLD: usize = 32_768;

/// A contiguous slice of one bin assigned to a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Index into the `bins'` slice list.
    pub bin: usize,
    /// Element range within that bin.
    pub range: Range<usize>,
}

/// Algorithm 1: assign bins to `P` processes so every process scans (nearly)
/// the same number of literals, with each assignment a set of contiguous bin
/// slices.
pub fn assign_tasks(bins: &[&[LitId]], processes: usize) -> Vec<Vec<Segment>> {
    let n: usize = bins.iter().map(|b| b.len()).sum();
    let p = processes.max(1);
    if n == 0 {
        return vec![Vec::new(); p];
    }
    // Capacity d = ceil(n / P) so the last worker picks up the remainder.
    let capacity = n.div_ceil(p);
    let mut tasks: Vec<Vec<Segment>> = vec![Vec::new(); p];
    let mut pid = 0usize;
    let mut remaining_capacity = capacity;
    for (bin_idx, bin) in bins.iter().enumerate() {
        let mut offset = 0usize;
        let mut j = bin.len();
        while j > 0 {
            if pid >= p {
                // Numerical slack: dump the tail on the last worker.
                pid = p - 1;
                remaining_capacity = usize::MAX;
            }
            if j < remaining_capacity {
                // Process takes all remaining literals in this bin.
                tasks[pid].push(Segment {
                    bin: bin_idx,
                    range: offset..bin.len(),
                });
                remaining_capacity -= j;
                j = 0;
            } else {
                // Process takes exactly its remaining capacity and retires.
                tasks[pid].push(Segment {
                    bin: bin_idx,
                    range: offset..offset + remaining_capacity,
                });
                offset += remaining_capacity;
                j -= remaining_capacity;
                remaining_capacity = capacity;
                pid += 1;
            }
        }
    }
    tasks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bins_with(sizes: &[usize]) -> Vec<Vec<LitId>> {
        let mut next = 0u32;
        sizes
            .iter()
            .map(|&s| {
                let v: Vec<LitId> = (next..next + s as u32).collect();
                next += s as u32;
                v
            })
            .collect()
    }

    #[test]
    fn add_and_lookup() {
        let mut b = ResidualBins::new();
        let id = b.add("New York".to_string());
        assert_eq!(b.literal(id), "New York");
        assert_eq!(b.bin(8), &[id]);
        assert_eq!(b.len(), 1);
        assert_eq!(b.bin_count(), 1);
    }

    #[test]
    fn bins_in_range_clamps() {
        let mut b = ResidualBins::new();
        b.add("ab".into());
        b.add("abc".into());
        b.add("abcdef".into());
        assert_eq!(b.bins_in_range(0..100).len(), 3);
        assert_eq!(b.bins_in_range(3..4).len(), 1);
        assert_eq!(b.count_in_range(2..4), 2);
        assert!(b.bins_in_range(7..9).is_empty());
    }

    #[test]
    fn unicode_length_is_chars_not_bytes() {
        let mut b = ResidualBins::new();
        let id = b.add("Zürich".into());
        assert_eq!(b.bin(6), &[id], "6 chars even though 7 bytes");
    }

    #[test]
    fn assign_tasks_covers_everything_exactly_once() {
        for sizes in [
            vec![10, 3, 7],
            vec![1, 1, 1, 1],
            vec![100],
            vec![0, 5, 0, 5],
        ] {
            for p in 1..=8 {
                let owned = bins_with(&sizes);
                let bins: Vec<&[LitId]> = owned.iter().map(Vec::as_slice).collect();
                let tasks = assign_tasks(&bins, p);
                assert_eq!(tasks.len(), p);
                let mut seen: Vec<LitId> = tasks
                    .iter()
                    .flatten()
                    .flat_map(|seg| bins[seg.bin][seg.range.clone()].iter().copied())
                    .collect();
                seen.sort_unstable();
                let total: usize = sizes.iter().sum();
                assert_eq!(
                    seen,
                    (0..total as u32).collect::<Vec<_>>(),
                    "sizes {sizes:?} p {p}"
                );
            }
        }
    }

    #[test]
    fn assign_tasks_balances_load() {
        let owned = bins_with(&[40, 40, 40, 40]);
        let bins: Vec<&[LitId]> = owned.iter().map(Vec::as_slice).collect();
        let tasks = assign_tasks(&bins, 4);
        for t in &tasks {
            let load: usize = t.iter().map(|s| s.range.len()).sum();
            assert_eq!(load, 40);
        }
    }

    #[test]
    fn folded_view_is_the_whole_string_lowercased() {
        let mut b = ResidualBins::new();
        let originals = ["New York", "ΟΔΟΣ", "İstanbul", "Straße", "ZÜRICH"];
        for lit in originals {
            b.add(lit.to_string());
        }
        // One task sees every literal, in bin order then insertion order.
        let seen = std::sync::Mutex::new(Vec::new());
        b.scan_parallel(0..100, 1, || {
            |lit: FoldedLiteral<'_>| {
                assert_eq!(lit.bin.sigs[lit.index], byte_signature(lit.text()));
                seen.lock().unwrap().push(lit.text().to_string());
                Some(0.0)
            }
        });
        let mut expected: Vec<&str> = originals.to_vec();
        expected.sort_by_key(|lit| lit.chars().count());
        let expected: Vec<String> = expected.iter().map(|lit| lit.to_lowercase()).collect();
        assert_eq!(*seen.lock().unwrap(), expected);
        assert!(expected.contains(&"οδος".to_string()), "final sigma kept");
        for (id, lit) in originals.iter().enumerate() {
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
        let mut b = ResidualBins::new();
        for i in 0..500 {
            b.add(format!("Literal Value {i}"));
        }
        b.add("Needle".into());
        b.add("needles".into());
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
        let mut b = ResidualBins::new();
        for i in 0..=INLINE_SCAN_THRESHOLD {
            b.add(format!("Residual Literal Number {i:07}"));
        }
        let accept = |s: &str| s.ends_with('7').then_some(s.len() as f64);
        let bins = b.bins_in_range(0..100);
        for p in [1, 2, 4, 8] {
            let via_exec =
                b.scan_parallel(0..100, p, || |lit: FoldedLiteral<'_>| accept(lit.text()));
            let in_worker_order: Vec<(LitId, f64)> = assign_tasks(&bins, p)
                .iter()
                .flatten()
                .flat_map(|seg| &bins[seg.bin][seg.range.clone()])
                .filter_map(|&id| accept(&b.literal(id).to_lowercase()).map(|score| (id, score)))
                .collect();
            assert_eq!(via_exec, in_worker_order, "P = {p}");
            assert!(!via_exec.is_empty());
        }
    }

    #[test]
    fn scan_respects_length_range() {
        let mut b = ResidualBins::new();
        b.add("ab".into());
        b.add("abcd".into());
        b.add("abcdefgh".into());
        let hits = b.scan_parallel(2..5, 2, || |_| Some(1.0));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn empty_bins_scan_is_empty() {
        let b = ResidualBins::new();
        assert!(b.scan_parallel(0..10, 4, || |_| Some(1.0)).is_empty());
        assert!(b.is_empty());
    }
}
