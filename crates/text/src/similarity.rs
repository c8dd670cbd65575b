//! String similarity measures.
//!
//! The QSM ranks alternative predicates and literals by Jaro-Winkler
//! similarity with threshold θ = 0.7 (§6.2.1). The paper reports that JW
//! "outperforms other similarity measures in our context" — normalized
//! Levenshtein is provided so the ablation bench can check that claim.
//!
//! # One greedy, bit-identical scores
//!
//! There is one Jaro matching rule — each element of `a` takes the first
//! free equal element of `b` in its window — in two kernels. The general
//! one, `match_counts`, takes two slices of comparable elements — the bytes
//! of two ASCII strings, or the `char`s of anything else, decoded into
//! buffers the caller owns — and records which elements matched in bit
//! masks instead of a `Vec<bool>` and two `Vec<char>` per pair. Operands of
//! up to 128 elements (every literal under the paper's 80-character cap)
//! use one `u128` a side, on the stack; the transposition count walks the
//! two masks' set bits in step with `trailing_zeros`. ASCII operands of up
//! to 128 bytes — nearly every pair a sweep scores — take
//! `ascii_match_counts`, the same rule bit-parallel: with a table of
//! per-byte position masks of `b`, the first free match of `a[i]` is the
//! lowest set bit of `positions[a[i]] & window(i) & !b_hit`, with no scan
//! of the window. [`jaro`], [`jaro_winkler`] and [`jaro_winkler_ci`] are
//! thin wrappers over them (on a per-thread scratch, so a call allocates
//! nothing), and so is [`SimilarityProbe`], which the model's sweeps use
//! and which owns its scratch.
//!
//! **Contract:** a score is `(m/|a| + m/|b| + (m − t)/m) / 3`, then
//! `j + ℓ · 0.1 · (1 − j)`, evaluated in `f64` in exactly that operation
//! order, with `m`, `t`, `ℓ` the integers the textbook two-pass algorithm
//! yields. The textbook algorithm is kept in this module's tests as the
//! reference, and a property test holds the kernel to it `to_bits()` for
//! `to_bits()` — so every ranking, tie-break and θ cut downstream is the
//! one the `Vec`-based implementation produced.
//!
//! # The sweep's exact bound
//!
//! A sweep scores one probe against thousands of candidates and keeps those
//! at or above θ. Before the O(|a|·|b|) matching pass, [`SimilarityProbe`]
//! computes an upper bound from counts alone:
//!
//! * two matched characters are equal, so they start with the same UTF-8
//!   lead byte, and every character has exactly one lead byte — hence
//!   `m ≤ Σ_c min(count_a(c), count_b(c))` over lead-byte values `c`
//!   (for ASCII text that is the shared-character multiset itself);
//! * Jaro is non-decreasing in `m` and non-increasing in `t`, so with that
//!   `m` and `t = 0`, `j ≤ (m/|a| + m/|b| + 1) / 3`;
//! * Jaro-Winkler is non-decreasing in `j` (`1 − 0.1 · ℓ > 0`), so the bound
//!   passes through the boost with the prefix `ℓ ≤ 4` the pair really
//!   shares.
//!
//! A pair whose bound is under θ cannot reach θ and is skipped. Every `f64`
//! operation in the Jaro step is monotone under rounding; the boost step
//! `j + c · (1 − j)` need not be to the last ulp, so the comparison allows a
//! slack of `BOUND_SLACK` (1e-9) — rounding can make the bound skip nothing it
//! should keep, and a pair it wrongly keeps is only scored, never answered
//! differently.

/// Winkler's scaling factor `p`.
const PREFIX_SCALE: f64 = 0.1;
/// Longest shared prefix the boost counts.
const MAX_PREFIX: usize = 4;
/// Elements one match mask covers.
const MASK_BITS: usize = u128::BITS as usize;
/// How far under θ a bound must fall before its pair is skipped: far above
/// any `f64` rounding of a value in `[0, 1]`, far below any score gap.
const BOUND_SLACK: f64 = 1e-9;

/// Buffers the kernels borrow for operands their stack path cannot take:
/// decoded `char`s for non-ASCII text, mask words for operands over
/// [`MASK_BITS`] elements, and the ASCII kernel's position table (one mask
/// per byte value, all zero between pairs). Empty until first needed, then
/// reused.
#[derive(Debug, Default, Clone)]
struct Scratch {
    a: Vec<char>,
    b: Vec<char>,
    a_hit: Vec<u128>,
    b_hit: Vec<u128>,
    positions: Vec<u128>,
}

thread_local! {
    /// The free functions' scratch.
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::default();
}

fn hit(mask: &[u128], i: usize) -> bool {
    mask[i / MASK_BITS] >> (i % MASK_BITS) & 1 != 0
}

fn set_hit(mask: &mut [u128], i: usize) {
    mask[i / MASK_BITS] |= 1 << (i % MASK_BITS);
}

/// Positions of a mask's set bits, ascending.
fn hits(mask: &[u128]) -> impl Iterator<Item = usize> + '_ {
    mask.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * MASK_BITS + bit
            })
        })
    })
}

/// The Jaro kernel: `(m, t)` — matched elements within the standard window
/// `max(|a|,|b|)/2 - 1`, each element of `a` taking the first free equal
/// element of `b`, and half the matched positions that disagree in order.
/// The masks arrive zeroed, one bit per element.
fn match_counts<T: Copy + Eq>(
    a: &[T],
    b: &[T],
    a_hit: &mut [u128],
    b_hit: &mut [u128],
) -> (usize, usize) {
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut m = 0;
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for (j, &cb) in b.iter().enumerate().take(hi).skip(lo) {
            if cb == ca && !hit(b_hit, j) {
                set_hit(b_hit, j);
                set_hit(a_hit, i);
                m += 1;
                break;
            }
        }
    }
    let out_of_order = hits(a_hit)
        .zip(hits(b_hit))
        .filter(|&(i, j)| a[i] != b[j])
        .count();
    (m, out_of_order / 2)
}

/// The bits below position `n`.
fn below(n: usize) -> u128 {
    if n >= MASK_BITS {
        u128::MAX
    } else {
        (1 << n) - 1
    }
}

/// `match_counts` of two ASCII operands of at most [`MASK_BITS`] bytes,
/// bit-parallel. `positions` (128 masks, all zero) gets bit `j` of
/// `positions[b[j]]` set for the pair and is zeroed again before returning.
/// Each byte of `a` takes the lowest free position of its own byte in its
/// window — the first free equal element, as in `match_counts`.
fn ascii_match_counts(a: &[u8], b: &[u8], positions: &mut [u128]) -> (usize, usize) {
    for (j, &cb) in b.iter().enumerate() {
        positions[usize::from(cb)] |= 1 << j;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let (mut a_hit, mut b_hit) = (0u128, 0u128);
    for (i, &ca) in a.iter().enumerate() {
        let in_window = below(i + window + 1) & !below(i.saturating_sub(window));
        let free = positions[usize::from(ca)] & in_window & !b_hit;
        if free != 0 {
            b_hit |= free & free.wrapping_neg();
            a_hit |= 1 << i;
        }
    }
    for &cb in b {
        positions[usize::from(cb)] = 0;
    }
    let out_of_order = hits(&[a_hit])
        .zip(hits(&[b_hit]))
        .filter(|&(i, j)| a[i] != b[j])
        .count();
    (a_hit.count_ones() as usize, out_of_order / 2)
}

/// The Jaro score of `m` matches and `t` transpositions between operands of
/// `a_len` and `b_len` elements.
fn jaro_score(a_len: usize, b_len: usize, (m, transpositions): (usize, usize)) -> f64 {
    if m == 0 {
        return 0.0;
    }
    let m = m as f64;
    (m / a_len as f64 + m / b_len as f64 + (m - transpositions as f64) / m) / 3.0
}

/// Jaro of two non-empty, unequal element slices.
fn jaro_of<T: Copy + Eq>(a: &[T], b: &[T], a_hit: &mut Vec<u128>, b_hit: &mut Vec<u128>) -> f64 {
    let words = a.len().max(b.len()).div_ceil(MASK_BITS);
    let counts = if words == 1 {
        match_counts(a, b, &mut [0], &mut [0])
    } else {
        for mask in [&mut *a_hit, &mut *b_hit] {
            mask.clear();
            mask.resize(words, 0);
        }
        match_counts(a, b, a_hit, b_hit)
    };
    jaro_score(a.len(), b.len(), counts)
}

/// Shared prefix in characters, up to [`MAX_PREFIX`].
fn shared_prefix(a: &str, b: &str) -> usize {
    a.chars()
        .zip(b.chars())
        .take(MAX_PREFIX)
        .take_while(|(x, y)| x == y)
        .count()
}

impl Scratch {
    fn jaro(&mut self, a: &str, b: &str) -> f64 {
        if a == b {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        if a.is_ascii() && b.is_ascii() {
            let (a, b) = (a.as_bytes(), b.as_bytes());
            if a.len().max(b.len()) > MASK_BITS {
                return jaro_of(a, b, &mut self.a_hit, &mut self.b_hit);
            }
            self.positions.resize(128, 0);
            return jaro_score(
                a.len(),
                b.len(),
                ascii_match_counts(a, b, &mut self.positions),
            );
        }
        self.a.clear();
        self.a.extend(a.chars());
        self.b.clear();
        self.b.extend(b.chars());
        jaro_of(&self.a, &self.b, &mut self.a_hit, &mut self.b_hit)
    }

    fn jaro_winkler(&mut self, a: &str, b: &str) -> f64 {
        let j = self.jaro(a, b);
        j + shared_prefix(a, b) as f64 * PREFIX_SCALE * (1.0 - j)
    }
}

/// Jaro similarity in `[0, 1]`.
///
/// Counts matching characters within the standard window
/// `max(|a|,|b|)/2 - 1` and discounts transpositions.
pub fn jaro(a: &str, b: &str) -> f64 {
    SCRATCH.with_borrow_mut(|scratch| scratch.jaro(a, b))
}

/// Jaro-Winkler similarity: Jaro boosted by a shared prefix (up to 4 chars)
/// with the standard scaling factor `p = 0.1`. This "gives a more favorable
/// score to strings that match from the beginning" (§6.2.1) — exactly the
/// behaviour wanted for typo-tolerant term matching ("Kennedys" → "Kennedy").
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    SCRATCH.with_borrow_mut(|scratch| scratch.jaro_winkler(a, b))
}

/// Case-insensitive Jaro-Winkler — what the QSM actually uses, since users
/// type lowercase keywords against mixed-case data. Folds both sides with
/// `str::to_lowercase` on every call; a sweep folds its corpus once and
/// scores through a [`SimilarityProbe`] instead.
pub fn jaro_winkler_ci(a: &str, b: &str) -> f64 {
    jaro_winkler(&a.to_lowercase(), &b.to_lowercase())
}

/// True for the first byte of a UTF-8 character.
fn is_lead_byte(byte: u8) -> bool {
    byte & 0xC0 != 0x80
}

/// One side of a case-insensitive Jaro-Winkler sweep: the probe folded once,
/// its lead-byte histogram built once, and the kernel's scratch, so scoring
/// it against an already-folded candidate allocates nothing.
/// `probe.similarity(&c.to_lowercase(), θ)` is
/// `Some(jaro_winkler_ci(s, c))` when that is at least θ and `None`
/// otherwise — see the module docs for why the skipped pairs are exactly
/// the ones under θ.
#[derive(Debug, Clone)]
pub struct SimilarityProbe {
    folded: String,
    char_len: usize,
    /// Occurrences of each lead-byte value in `folded`. `upper_bound` counts
    /// a candidate down through it and puts every count back.
    lead_counts: [i32; 256],
    scratch: Scratch,
}

impl SimilarityProbe {
    /// Fold `s` with `str::to_lowercase` and index it.
    pub fn new(s: &str) -> Self {
        let folded = s.to_lowercase();
        let mut lead_counts = [0; 256];
        let mut char_len = 0;
        for &byte in folded.as_bytes().iter().filter(|&&b| is_lead_byte(b)) {
            lead_counts[byte as usize] += 1;
            char_len += 1;
        }
        SimilarityProbe {
            folded,
            char_len,
            lead_counts,
            scratch: Scratch::default(),
        }
    }

    /// Jaro-Winkler of the probe and `folded` (a `str::to_lowercase`
    /// output) if it is at least `theta`.
    pub fn similarity(&mut self, folded: &str, theta: f64) -> Option<f64> {
        if self.upper_bound(folded) < theta - BOUND_SLACK {
            return None;
        }
        let score = self.scratch.jaro_winkler(&self.folded, folded);
        (score >= theta).then_some(score)
    }

    /// An upper bound on `jaro_winkler(self.folded, other)` from character
    /// counts and the shared prefix alone (module docs, "exact bound").
    fn upper_bound(&mut self, other: &str) -> f64 {
        if self.folded.is_empty() || other.is_empty() {
            return 1.0;
        }
        let leads = || other.as_bytes().iter().filter(|&&b| is_lead_byte(b));
        let (mut other_len, mut shared) = (0usize, 0usize);
        for &byte in leads() {
            let left = &mut self.lead_counts[byte as usize];
            *left -= 1;
            shared += usize::from(*left >= 0);
            other_len += 1;
        }
        for &byte in leads() {
            self.lead_counts[byte as usize] += 1;
        }
        if shared == 0 {
            return 0.0;
        }
        let m = shared as f64;
        let j = (m / self.char_len as f64 + m / other_len as f64 + 1.0) / 3.0;
        j + shared_prefix(&self.folded, other) as f64 * PREFIX_SCALE * (1.0 - j)
    }
}

/// Levenshtein edit distance (insert/delete/substitute, unit costs).
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j + 1] + 1).min(cur[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Normalized Levenshtein similarity in `[0, 1]` (1 − distance / max-length).
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    let max = a.chars().count().max(b.chars().count());
    if max == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn approx(x: f64, y: f64) {
        assert!((x - y).abs() < 1e-9, "{x} != {y}");
    }

    /// The textbook two-pass Jaro over `Vec<char>` — the implementation the
    /// kernel replaced, kept as the reference it must equal bit for bit.
    fn reference_jaro(a: &str, b: &str) -> f64 {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        if a == b {
            return 1.0;
        }
        let window = (a.len().max(b.len()) / 2).saturating_sub(1);
        let mut b_matched = vec![false; b.len()];
        let mut a_matches: Vec<char> = Vec::new();
        for (i, &ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            for j in lo..hi {
                if !b_matched[j] && b[j] == ca {
                    b_matched[j] = true;
                    a_matches.push(ca);
                    break;
                }
            }
        }
        let m = a_matches.len();
        if m == 0 {
            return 0.0;
        }
        let b_matches: Vec<char> = b
            .iter()
            .zip(b_matched.iter())
            .filter(|(_, &used)| used)
            .map(|(&c, _)| c)
            .collect();
        let transpositions = a_matches
            .iter()
            .zip(b_matches.iter())
            .filter(|(x, y)| x != y)
            .count()
            / 2;
        let m = m as f64;
        (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
    }

    fn reference_jaro_winkler(a: &str, b: &str) -> f64 {
        let j = reference_jaro(a, b);
        let prefix = a
            .chars()
            .zip(b.chars())
            .take(4)
            .take_while(|(x, y)| x == y)
            .count();
        j + prefix as f64 * 0.1 * (1.0 - j)
    }

    fn reference_jaro_winkler_ci(a: &str, b: &str) -> f64 {
        reference_jaro_winkler(&a.to_lowercase(), &b.to_lowercase())
    }

    fn assert_kernel_is_reference(a: &str, b: &str) {
        for (x, y) in [(a, b), (b, a)] {
            assert_eq!(jaro(x, y).to_bits(), reference_jaro(x, y).to_bits());
            assert_eq!(
                jaro_winkler(x, y).to_bits(),
                reference_jaro_winkler(x, y).to_bits()
            );
            assert_eq!(
                jaro_winkler_ci(x, y).to_bits(),
                reference_jaro_winkler_ci(x, y).to_bits()
            );
        }
    }

    /// Strings whose case folding changes length, depends on context (final
    /// sigma) or leaves combining marks behind.
    const AWKWARD: [&str; 10] = [
        "",
        "İstanbul",
        "istanbul",
        "ΟΔΟΣ",
        "οδος",
        "Straße",
        "STRASSE",
        "e\u{301}cole",
        "École",
        "ǅungla",
    ];

    #[test]
    fn kernel_is_the_reference_on_awkward_unicode() {
        for a in AWKWARD {
            for b in AWKWARD {
                assert_kernel_is_reference(a, b);
            }
        }
    }

    #[test]
    fn kernel_is_the_reference_across_the_mask_limit() {
        // 120..=136 elements a side: one mask word, the boundary, two words;
        // once as bytes, once (a non-ASCII head) as chars.
        let text = |len: usize, step: usize, head: &str| -> String {
            let tail = (0..len).map(|i| char::from(b'a' + (i * step % 7) as u8));
            head.chars().chain(tail).collect()
        };
        for la in [120, 127, 128, 129, 136] {
            for lb in [126, 128, 130] {
                for head in ["", "é"] {
                    assert_kernel_is_reference(&text(la, 3, head), &text(lb, 5, head));
                    assert_kernel_is_reference(&text(la, 3, head), &text(lb, 3, ""));
                }
            }
        }
    }

    proptest! {
        /// Bit-identity on arbitrary mixed-script, mixed-case pairs.
        #[test]
        fn kernel_is_the_reference(
            a in "[a-dA-DİıΣσςßéÉ\u{301}ǅ ]{0,14}",
            b in "[a-dA-DİıΣσςßéÉ\u{301}ǅ ]{0,14}",
        ) {
            assert_kernel_is_reference(&a, &b);
        }

        /// Bit-identity where both sides straddle one mask word.
        #[test]
        fn kernel_is_the_reference_on_long_operands(
            a in "[a-cA-C]{120,136}",
            b in "[a-cA-Cé]{120,136}",
        ) {
            assert_kernel_is_reference(&a, &b);
            assert_kernel_is_reference(&a, &a.to_uppercase());
        }

        /// The bound never under-estimates, whatever the two strings are,
        /// and counting a candidate down leaves the histogram as it was.
        #[test]
        fn bound_never_under_estimates(
            a in "[a-dA-DİΣσςßé\u{301} ]{0,14}",
            b in "[a-dA-DİΣσςßé\u{301} ]{0,14}",
        ) {
            let mut probe = SimilarityProbe::new(&a);
            let counts = probe.lead_counts;
            let folded = b.to_lowercase();
            prop_assert!(
                probe.upper_bound(&folded) >= reference_jaro_winkler_ci(&a, &b),
                "bound {} under score {}",
                probe.upper_bound(&folded),
                reference_jaro_winkler_ci(&a, &b)
            );
            prop_assert_eq!(probe.lead_counts, counts);
        }

        /// A pruned sweep answers what an unpruned one does: the same
        /// candidates with the same score bits, at every θ.
        #[test]
        fn pruned_sweep_equals_unpruned(
            probe in "[a-eA-Eßé ]{0,10}",
            corpus in proptest::collection::vec("[a-eA-EİΣßé ]{0,12}", 1..40),
        ) {
            for theta in [0.5, 0.7, 0.85, 1.0] {
                let mut p = SimilarityProbe::new(&probe);
                let pruned: Vec<(&str, u64)> = corpus
                    .iter()
                    .filter_map(|c| {
                        let score = p.similarity(&c.to_lowercase(), theta)?;
                        Some((c.as_str(), score.to_bits()))
                    })
                    .collect();
                let unpruned: Vec<(&str, u64)> = corpus
                    .iter()
                    .filter_map(|c| {
                        let score = reference_jaro_winkler_ci(&probe, c);
                        (score >= theta).then_some((c.as_str(), score.to_bits()))
                    })
                    .collect();
                prop_assert_eq!(pruned, unpruned);
            }
        }
    }

    #[test]
    fn the_bound_prunes() {
        // Not vacuous: disjoint alphabets bound to 0, and a pair that shares
        // few characters is cut at θ = 0.7 without being scored.
        let mut probe = SimilarityProbe::new("Kennedy");
        assert_eq!(probe.upper_bound("xqz"), 0.0);
        assert!(probe.upper_bound("washington") < 0.7);
        assert_eq!(probe.similarity("washington", 0.7), None);
        assert!(probe.similarity("kennedys", 0.7).unwrap() > 0.9);
    }

    #[test]
    fn jaro_reference_values() {
        // Classic textbook pairs.
        approx(jaro("MARTHA", "MARHTA"), 0.944_444_444_444_444_4);
        approx(jaro("DIXON", "DICKSONX"), 0.766_666_666_666_666_6);
        approx(jaro("JELLYFISH", "SMELLYFISH"), 0.896_296_296_296_296_2);
    }

    #[test]
    fn jaro_winkler_reference_values() {
        approx(jaro_winkler("MARTHA", "MARHTA"), 0.961_111_111_111_111_1);
        approx(jaro_winkler("DIXON", "DICKSONX"), 0.813_333_333_333_333_3);
    }

    #[test]
    fn identical_and_disjoint() {
        approx(jaro("abc", "abc"), 1.0);
        approx(jaro_winkler("abc", "abc"), 1.0);
        approx(jaro("abc", "xyz"), 0.0);
        approx(jaro("", ""), 1.0);
        approx(jaro("", "abc"), 0.0);
    }

    #[test]
    fn kennedys_vs_kennedy_clears_theta() {
        // The Figure 2 walkthrough: the misspelled "Kennedys" must find
        // "Kennedy" at θ = 0.7.
        assert!(jaro_winkler("Kennedys", "Kennedy") > 0.9);
    }

    #[test]
    fn wife_vs_spouse_below_theta() {
        // Lexically dissimilar synonyms are *not* JW matches — that is the
        // lexicon's job (§6.2.1).
        assert!(jaro_winkler("wife", "spouse") < 0.7);
    }

    #[test]
    fn prefix_boost_prefers_shared_prefix() {
        // Same Jaro ingredients, different prefixes.
        let with_prefix = jaro_winkler("prefix_abc", "prefix_abd");
        let without = jaro_winkler("xprefix_ab", "yprefix_ab");
        assert!(with_prefix > without);
    }

    #[test]
    fn symmetry() {
        for (a, b) in [
            ("Viking Press", "The Viking Press"),
            ("abc", "cba"),
            ("", "x"),
        ] {
            approx(jaro(a, b), jaro(b, a));
            approx(jaro_winkler(a, b), jaro_winkler(b, a));
            assert_eq!(levenshtein(a, b), levenshtein(b, a));
        }
    }

    #[test]
    fn levenshtein_reference() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        approx(levenshtein_similarity("abc", "abc"), 1.0);
        approx(levenshtein_similarity("", ""), 1.0);
    }

    #[test]
    fn case_insensitive_variant() {
        assert!(jaro_winkler_ci("kennedy", "Kennedy") > 0.999);
        assert!(jaro_winkler("kennedy", "Kennedy") < 1.0);
    }
}
