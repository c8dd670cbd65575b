//! A generalized suffix array, standing in for §5.2's suffix tree.
//!
//! The paper indexes all RDF predicates plus the *most significant literals*
//! in a suffix tree because the QCM's core lookup — "which strings contain
//! the typed prefix `t`?" — runs in `O(|t| + z)` on it (§5.2), and pays for
//! it in memory, which is why only a subset of literals is indexed and the
//! rest live in residual bins. This index answers the same question from
//! flat arrays. A suffix array is the tree's leaves in order: the suffixes
//! below any tree node are one contiguous run of it, found by two binary
//! searches in `O(|t| log n)`. The tree's other job, each node's smallest
//! string id, is done by an argmin segment tree over the run's ids. The type
//! keeps the paper's name.
//!
//! * **Text.** The strings' UTF-8 bytes back to back, each followed by
//!   `0xFF`, a byte UTF-8 never uses, so no match spans two strings. UTF-8 is
//!   self-synchronizing: a valid pattern occurs in a string's bytes exactly
//!   when it occurs in its `char`s, and only at a `char` boundary, so only
//!   those positions are indexed.
//! * **Order.** Suffixes sort by their bytes through their separator, ties
//!   by position. One `sort_unstable` on the first eight of those bytes,
//!   packed big-endian into a `u64`, does most of the work; each run of
//!   equal keys is then sorted by the whole suffix. A comparison stops at
//!   the first separator, so it costs at most the longest string (literals
//!   are ≤ 80 chars, §5.1).
//! * **Lookup.** Two binary searches inside the pattern's first-byte bucket
//!   find its run. A best-first walk over the run, smallest id first, then
//!   returns the smallest ids containing the pattern in ascending order, at
//!   `O(log n)` per id — a function of the strings and their order, never of
//!   a hash seed. The QCM adds its strings in completion rank order, so
//!   those are its best matches.

use std::cmp::{min_by_key, Reverse};
use std::collections::BinaryHeap;

/// Ends every string in the text; never a byte of UTF-8.
const SEPARATOR: u8 = 0xFF;

/// Identifier of an indexed string: its position in the build order.
pub type StringId = u32;

/// A sub-run of suffix ranks `l..r`, keyed by its smallest id and that id's
/// rank: `(id, rank, l, r)`, smallest first in a max-heap.
type SubRun = Reverse<(StringId, u32, u32, u32)>;

/// A generalized suffix index over a set of strings. It keeps §5.2's name
/// but is a suffix array: the tree's leaves in order, with an argmin tree
/// over their string ids doing the job of the nodes' smallest ids (see the
/// [module docs](self)).
#[derive(Debug)]
pub struct SuffixTree {
    /// Every string's bytes followed by [`SEPARATOR`].
    text: Vec<u8>,
    /// The text positions of every string's `char`s, in suffix order.
    suffixes: Vec<u32>,
    /// The string each of `suffixes` lies in.
    ids: Vec<StringId>,
    /// Argmin segment tree over `ids`: node `i < n` holds the rank with the
    /// smallest id below it, leaf `n + r` holds rank `r`.
    min_rank: Vec<u32>,
    /// `buckets[b]` is the first rank whose suffix starts with a byte `>= b`,
    /// so a lookup searches only its first byte's ranks.
    buckets: Vec<u32>,
    /// The original strings, for retrieval.
    strings: Vec<String>,
}

impl SuffixTree {
    /// Build an index over the given strings; ids follow their order.
    pub fn build<I, S>(strings: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let strings: Vec<String> = strings.into_iter().map(Into::into).collect();
        let mut text = Vec::with_capacity(strings.iter().map(|s| s.len() + 1).sum());
        let mut keyed: Vec<(u64, u32, StringId)> = Vec::new();
        for (id, s) in strings.iter().enumerate() {
            let start = text.len();
            text.extend_from_slice(s.as_bytes());
            text.push(SEPARATOR);
            for (i, _) in s.char_indices() {
                let (pos, mut key) = (u32::try_from(start + i).expect("text < 4 GiB"), [0u8; 8]);
                let head = head(&text, pos, 8);
                key[..head.len()].copy_from_slice(head);
                keyed.push((u64::from_be_bytes(key), pos, id as StringId));
            }
        }
        keyed.sort_unstable();
        for run in keyed.chunk_by_mut(|a, b| a.0 == b.0) {
            run.sort_unstable_by(|a, b| {
                let whole = |pos| head(&text, pos, usize::MAX);
                whole(a.1).cmp(whole(b.1)).then(a.1.cmp(&b.1))
            });
        }
        let below = |b| keyed.partition_point(|e| e.0 >> 56 < b) as u32;
        let buckets = (0..=256).map(below).collect();
        let (suffixes, ids): (Vec<u32>, Vec<StringId>) =
            keyed.into_iter().map(|(_, pos, id)| (pos, id)).unzip();

        let n = ids.len();
        let mut min_rank: Vec<u32> = (0..2 * n).map(|i| i.saturating_sub(n) as u32).collect();
        for i in (1..n).rev() {
            min_rank[i] = min_by_key(min_rank[2 * i], min_rank[2 * i + 1], |&r| ids[r as usize]);
        }
        SuffixTree {
            text,
            suffixes,
            ids,
            min_rank,
            buckets,
            strings,
        }
    }

    /// Number of indexed strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True if no strings are indexed.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// The indexed string with the given id.
    pub fn string(&self, id: StringId) -> &str {
        &self.strings[id as usize]
    }

    /// All indexed strings.
    pub fn strings(&self) -> &[String] {
        &self.strings
    }

    /// Approximate resident size in bytes: the text, the three `u32`
    /// arrays (4 + 4 + 8 bytes per indexed `char`), 1 KiB of buckets and the
    /// strings kept for retrieval. The paper's suffix tree took 400 MB over
    /// 43K strings; this index takes about 19 bytes per `char` of ASCII text.
    pub fn approx_bytes(&self) -> usize {
        let words = self.suffixes.len() + self.ids.len() + self.min_rank.len() + self.buckets.len();
        let strings: usize = self.strings.iter().map(|s| s.len() + 24).sum();
        self.text.len() + words * size_of::<u32>() + strings
    }

    /// Ranks `l..r` as a [`SubRun`], or `None` if empty. Reads `O(log n)`
    /// nodes of the argmin tree.
    fn sub_run(&self, l: u32, r: u32) -> Option<SubRun> {
        let n = self.ids.len();
        let lower =
            |best, node: usize| min_by_key(best, self.min_rank[node], |&i| self.ids[i as usize]);
        let (mut best, mut a, mut b) = (l, l as usize + n, r as usize + n);
        while a < b {
            if a % 2 == 1 {
                best = lower(best, a);
                a += 1;
            }
            if b % 2 == 1 {
                b -= 1;
                best = lower(best, b);
            }
            (a, b) = (a / 2, b / 2);
        }
        (l < r).then(|| Reverse((self.ids[best as usize], best, l, r)))
    }

    /// Ids of the strings containing `pattern`: the `limit` smallest, in
    /// ascending order (`usize::MAX` for all). The QCM calls this with
    /// `limit = k`.
    ///
    /// Two binary searches in the pattern's first-byte bucket find the run
    /// of suffixes starting with `pattern`; `pattern` holds no separator, so
    /// each comparison is decided by a suffix's separator at the latest. The
    /// walk then pops the rank with the smallest id from a heap of sub-runs,
    /// emits its id unless it was the last one emitted (a string with
    /// several occurrences comes out together), and pushes the two sub-runs
    /// either side of it; it stops at the `limit`-th id.
    pub fn find_containing(&self, pattern: &str, limit: usize) -> Vec<StringId> {
        if limit == 0 || pattern.is_empty() {
            return (0..self.strings.len().min(limit) as u32).collect();
        }
        let p = pattern.as_bytes();
        let prefix = |&pos: &u32| self.text[pos as usize..].iter().take(p.len());
        let bucket = &self.buckets[p[0] as usize..];
        let (lo, hi) = (bucket[0] as usize, bucket[1] as usize);
        let start = lo + self.suffixes[lo..hi].partition_point(|pos| prefix(pos).lt(p));
        let end = start + self.suffixes[start..hi].partition_point(|pos| prefix(pos).eq(p));

        let mut found = Vec::with_capacity(limit.min(end - start));
        let mut heap = BinaryHeap::with_capacity(limit.min(end - start) + 1);
        heap.extend(self.sub_run(start as u32, end as u32));
        while let Some(Reverse((id, m, l, r))) = heap.pop() {
            if found.last() != Some(&id) {
                found.push(id);
                if found.len() == limit {
                    break;
                }
            }
            heap.extend(self.sub_run(l, m));
            heap.extend(self.sub_run(m + 1, r));
        }
        found
    }
}

/// At most `len` bytes of the suffix at `pos`, cut after its separator.
fn head(text: &[u8], pos: u32, len: usize) -> &[u8] {
    let bytes = &text[pos as usize..][..len.min(text.len() - pos as usize)];
    let end = bytes.iter().position(|&b| b == SEPARATOR);
    end.map_or(bytes, |i| &bytes[..=i])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_containing(strings: &[&str], pattern: &str) -> Vec<usize> {
        strings
            .iter()
            .enumerate()
            .filter(|(_, s)| s.contains(pattern))
            .map(|(i, _)| i)
            .collect()
    }

    fn occurs(t: &SuffixTree, pattern: &str) -> bool {
        !t.find_containing(pattern, 1).is_empty()
    }

    #[test]
    fn single_string_substrings() {
        let t = SuffixTree::build(["banana"]);
        for sub in ["b", "a", "na", "ana", "banana", "nan", ""] {
            assert!(occurs(&t, sub), "should contain {sub:?}");
        }
        for sub in ["x", "ab", "bananas", "nab"] {
            assert!(!occurs(&t, sub), "should not contain {sub:?}");
        }
    }

    #[test]
    fn multi_string_lookup() {
        let strings = ["New York", "Newcastle", "York Minster", "Boston"];
        let t = SuffixTree::build(strings);
        assert_eq!(t.find_containing("York", usize::MAX), vec![0, 2]);
        assert_eq!(t.find_containing("New", usize::MAX), vec![0, 1]);
        assert!(t.find_containing("Chicago", usize::MAX).is_empty());
    }

    #[test]
    fn limit_caps_results() {
        let strings: Vec<String> = (0..100).map(|i| format!("predicate_{i}")).collect();
        let t = SuffixTree::build(strings);
        // The ten smallest ids, whatever order the walk meets them in.
        let ids = t.find_containing("predicate", 10);
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
        assert_eq!(t.find_containing("_9", 3), vec![9, 90, 91]);
    }

    #[test]
    fn no_cross_string_phantom_matches() {
        // "ab" + "cd" must not produce a phantom "bc" match.
        let t = SuffixTree::build(["ab", "cd"]);
        assert!(!occurs(&t, "bc"));
        assert!(occurs(&t, "ab"));
        assert!(occurs(&t, "cd"));
    }

    #[test]
    fn repeated_insertions_of_same_text() {
        let t = SuffixTree::build(["same", "same", "same"]);
        assert_eq!(t.find_containing("same", usize::MAX), vec![0, 1, 2]);
        // A string with several occurrences is returned once.
        let t = SuffixTree::build(["aaaa", "ba", "aa"]);
        assert_eq!(t.find_containing("a", usize::MAX), vec![0, 1, 2]);
    }

    #[test]
    fn unicode_strings() {
        let t = SuffixTree::build(["Zürich", "Москва", "東京都"]);
        assert_eq!(t.find_containing("ürich", usize::MAX), vec![0]);
        assert_eq!(t.find_containing("осква", usize::MAX), vec![1]);
        assert_eq!(t.find_containing("京都", usize::MAX), vec![2]);
        assert!(t.find_containing("Zürichsee", usize::MAX).is_empty());
    }

    #[test]
    fn agrees_with_naive_on_corpus() {
        let strings = [
            "almaMater",
            "birthPlace",
            "deathPlace",
            "spouse",
            "placeOfBirth",
            "birthDate",
            "alma mater of",
            "water place",
            "mata hari",
        ];
        let t = SuffixTree::build(strings);
        for pattern in [
            "al", "ma", "Place", "place", "a m", "irth", "spouse", "zz", "e",
        ] {
            let got = t.find_containing(pattern, usize::MAX);
            let want: Vec<u32> = naive_containing(&strings, pattern)
                .into_iter()
                .map(|i| i as u32)
                .collect();
            assert_eq!(got, want, "pattern {pattern:?}");
        }
    }

    #[test]
    fn empty_pattern_returns_everything_up_to_limit() {
        let t = SuffixTree::build(["a", "b", "c"]);
        assert_eq!(t.find_containing("", 2), vec![0, 1]);
        assert_eq!(t.find_containing("", usize::MAX), vec![0, 1, 2]);
    }

    #[test]
    fn size_accounting_is_positive_and_superlinear_ish() {
        let small = SuffixTree::build(["ab"]);
        let big = SuffixTree::build((0..200).map(|i| format!("some literal value number {i}")));
        assert!(small.approx_bytes() > 0);
        assert!(big.approx_bytes() > small.approx_bytes());
    }

    #[test]
    fn find_strings_returns_text() {
        let t = SuffixTree::build(["Kennedy", "Kennedys", "Kenneth"]);
        let got: Vec<&str> = t
            .find_containing("Kennedy", usize::MAX)
            .into_iter()
            .map(|id| t.string(id))
            .collect();
        assert_eq!(got, vec!["Kennedy", "Kennedys"]);
    }
}
