//! Residual literal bins and the parallel scan (Algorithm 1).
//!
//! Literals not in the suffix tree are organized "into bins of residual
//! literals … where each bin has all the literals of a given length" (§5.2).
//! Both the QCM and the QSM only ever search a narrow band of lengths, so the
//! binning prunes most of the corpus before any string comparison happens;
//! the rest is scanned sequentially by `P` parallel workers with the
//! load-balanced task assignment of Algorithm 1.

use std::ops::Range;

/// Identifier of a literal stored in the bins.
pub type LitId = u32;

/// Length-keyed bins over a deduplicated literal corpus.
#[derive(Debug, Default, Clone)]
pub struct ResidualBins {
    /// All literals, indexed by [`LitId`].
    literals: Vec<String>,
    /// `bins[len]` holds ids of literals whose `char` length is `len`.
    bins: Vec<Vec<LitId>>,
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
            self.bins.resize_with(len + 1, Vec::new);
        }
        self.bins[len].push(id);
        self.literals.push(literal);
        id
    }

    /// The literal text for an id.
    pub fn literal(&self, id: LitId) -> &str {
        &self.literals[id as usize]
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
        self.bins.iter().filter(|b| !b.is_empty()).count()
    }

    /// The ids in the bin for exactly length `len`.
    pub fn bin(&self, len: usize) -> &[LitId] {
        self.bins.get(len).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Bins for lengths in `range` (clamped), as slices. This is the `bins'`
    /// input of Algorithms 1 and 2.
    pub fn bins_in_range(&self, range: Range<usize>) -> Vec<&[LitId]> {
        let hi = range.end.min(self.bins.len());
        (range.start.min(hi)..hi)
            .map(|len| self.bin(len))
            .filter(|b| !b.is_empty())
            .collect()
    }

    /// Number of literals within a length range — used to report how much of
    /// the corpus the length filter eliminates (§7.3.1: "filtering eliminates
    /// 46% of the literals").
    pub fn count_in_range(&self, range: Range<usize>) -> usize {
        self.bins_in_range(range).iter().map(|b| b.len()).sum()
    }

    /// Scan the bins in `range` with `P = processes` workers, collecting
    /// every literal for which `accept` returns a score. Work is divided
    /// with Algorithm 1. Returns `(LitId, score)` pairs in worker order.
    ///
    /// Small scans run the *same* task list inline instead of spawning:
    /// launching `P` scoped threads costs tens of microseconds, which on a
    /// narrow length band of a modest corpus exceeds the scan itself — and
    /// on the serving hot path (2–3 scans per QSM request, one per QCM
    /// residual lookup) that overhead, multiplied by every in-flight
    /// request spawning its own worker set, was the dominant term of the
    /// QSM tail. Tasks execute in worker order either way, so the result
    /// vector is byte-identical to the threaded path's concatenation.
    pub fn scan_parallel<F>(
        &self,
        range: Range<usize>,
        processes: usize,
        accept: F,
    ) -> Vec<(LitId, f64)>
    where
        F: Fn(&str) -> Option<f64> + Sync,
    {
        // ~4K short-string comparisons cost roughly what one thread spawn
        // does; below P times that, parallelism cannot win.
        const INLINE_SCAN_THRESHOLD: usize = 4096;
        let bins = self.bins_in_range(range);
        if bins.is_empty() {
            return Vec::new();
        }
        let tasks = assign_tasks(&bins, processes.max(1));
        let run_task = |task: &[Segment]| {
            let mut found = Vec::new();
            for seg in task {
                for &id in &bins[seg.bin][seg.range.clone()] {
                    if let Some(score) = accept(self.literal(id)) {
                        found.push((id, score));
                    }
                }
            }
            found
        };
        let total: usize = bins.iter().map(|b| b.len()).sum();
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
    fn parallel_scan_equals_sequential() {
        let mut b = ResidualBins::new();
        for i in 0..500 {
            b.add(format!("literal value {i}"));
        }
        b.add("needle".into());
        b.add("needles".into());
        let sequential: Vec<LitId> = (0..b.len() as u32)
            .filter(|&id| b.literal(id).contains("needle"))
            .collect();
        for p in [1, 2, 4, 8] {
            let mut got: Vec<LitId> = b
                .scan_parallel(0..100, p, |s| s.contains("needle").then_some(1.0))
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            got.sort_unstable();
            assert_eq!(got, sequential, "P = {p}");
        }
    }

    #[test]
    fn executor_scan_matches_reference_above_inline_threshold() {
        // 6k literals beats INLINE_SCAN_THRESHOLD, forcing the executor
        // path; the Algorithm-1 task list walked sequentially in worker
        // order (what the inline arm does) must produce identical bytes.
        let mut b = ResidualBins::new();
        for i in 0..6000 {
            b.add(format!("residual literal number {i:05}"));
        }
        let accept = |s: &str| s.ends_with('7').then_some(s.len() as f64);
        let bins = b.bins_in_range(0..100);
        for p in [1, 2, 4, 8] {
            let via_exec = b.scan_parallel(0..100, p, accept);
            let in_worker_order: Vec<(LitId, f64)> = assign_tasks(&bins, p)
                .iter()
                .flatten()
                .flat_map(|seg| &bins[seg.bin][seg.range.clone()])
                .filter_map(|&id| accept(b.literal(id)).map(|score| (id, score)))
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
        let hits = b.scan_parallel(2..5, 2, |_| Some(1.0));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn empty_bins_scan_is_empty() {
        let b = ResidualBins::new();
        assert!(b.scan_parallel(0..10, 4, |_| Some(1.0)).is_empty());
        assert!(b.is_empty());
    }
}
