//! An sdhash-style similarity digest (Roussev, "Data Fingerprinting with
//! Similarity Digests", 2010).
//!
//! The paper's second primary indicator (§III-B) compares the sdhash
//! digests of a file before and after modification: a score of 100 means
//! the contents are almost surely homologous, while "a confidence score of
//! 0 is statistically comparable to that of two blobs of random data" —
//! which is exactly what encryption produces. sdhash is also unable to
//! produce digests for very small inputs, a limitation the evaluation leans
//! on (§V-C: files under 512 bytes defeat the similarity indicator and
//! delay union detection).
//!
//! The implementation follows the published scheme:
//!
//! 1. slide a 64-byte feature window over the input, computing each
//!    window's empirical entropy incrementally in O(1) per position;
//! 2. assign each feature an entropy-derived *precedence rank*, discarding
//!    trivially weak (near-zero entropy) and near-saturated features;
//! 3. select *popular* features — those that are the leftmost rank-maximum
//!    of at least [`POPULARITY_THRESHOLD`] of the sliding 64-position
//!    neighborhoods containing them;
//! 4. hash each selected feature with SHA-1 and insert it into a sequence
//!    of 2048-bit Bloom filters, at most 160 features per filter;
//! 5. compare digests filter-by-filter: each filter of the shorter digest
//!    is scored against its best match in the other digest, and the scores
//!    are averaged into a 0–100 confidence.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::bloom::BloomFilter;
use crate::hash::sha1_words;

/// The sliding feature size, in bytes.
pub const FEATURE_SIZE: usize = 64;
/// The popularity neighborhood size, in window positions.
pub const POPULARITY_WINDOW: usize = 64;
/// A feature must win at least this many neighborhoods to be selected.
pub const POPULARITY_THRESHOLD: u32 = 16;
/// Inputs shorter than this produce no digest (paper §V-C: "sdhash is
/// unable to generate similarity scores for such small files").
pub const MIN_FILE_SIZE: usize = 512;

/// Entropy ranks are scaled to 0..=1000 (6 bits max for 64-byte windows).
const ENTROPY_SCALE: u32 = 1000;
/// Features with scaled entropy below this are too weak to be
/// discriminating (long runs, padding).
const MIN_ENTROPY: u32 = 100;
/// Features with scaled entropy above this are near-saturated and excluded
/// (sdhash's guard against header/table artifacts).
const MAX_ENTROPY: u32 = 990;

/// A similarity digest: a sequence of Bloom filters summarizing the input's
/// statistically improbable features.
///
/// # Examples
///
/// ```
/// use cryptodrop_simhash::SdDigest;
///
/// let doc: Vec<u8> = (0..4096u32)
///     .flat_map(|i| format!("paragraph {i} of the report\n").into_bytes())
///     .collect();
/// let digest = SdDigest::compute(&doc).expect("large enough input");
/// assert_eq!(digest.similarity(&digest), 100);
///
/// // Tiny inputs yield no digest at all:
/// assert!(SdDigest::compute(&doc[..256]).is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SdDigest {
    filters: Vec<BloomFilter>,
    features: usize,
    input_len: usize,
}

impl SdDigest {
    /// Computes the digest of `data`.
    ///
    /// Returns `None` when the input is shorter than [`MIN_FILE_SIZE`] or
    /// contains no selectable features (e.g. a constant buffer), matching
    /// sdhash's refusal to digest inputs it cannot characterize.
    pub fn compute(data: &[u8]) -> Option<SdDigest> {
        Self::compute_with_cache(data).map(|(digest, _)| digest)
    }

    /// Computes the digest together with a [`FeatureCache`] enabling later
    /// incremental recomputation via [`SdDigest::recompute_dirty`].
    ///
    /// Returns `None` under the same conditions as [`SdDigest::compute`].
    pub fn compute_with_cache(data: &[u8]) -> Option<(SdDigest, FeatureCache)> {
        if data.len() < MIN_FILE_SIZE {
            return None;
        }
        let ranks = precedence_ranks(data);
        let features: Vec<CachedFeature> = select_popular(&ranks)
            .into_iter()
            .map(|idx| CachedFeature {
                pos: idx as u32,
                words: sha1_words(&data[idx..idx + FEATURE_SIZE]),
            })
            .collect();
        let digest = build_digest(&features, data.len())?;
        Some((
            digest,
            FeatureCache {
                features,
                input_len: data.len(),
            },
        ))
    }

    /// Recomputes the digest of `data` given a [`FeatureCache`] from a
    /// previous content state and the byte extents that changed since.
    ///
    /// Features are re-selected only inside the dirty windows plus the
    /// rolling horizon (`FEATURE_SIZE − 1` window positions back for ranks,
    /// a further `POPULARITY_WINDOW − 1` each way for popularity); the
    /// unchanged feature runs are spliced from the cache without re-hashing.
    /// The result is **bit-identical** to a from-scratch
    /// [`SdDigest::compute`] of `data` — precedence ranks use an exact
    /// fixed-point accumulator, so a windowed recompute cannot drift from a
    /// full pass.
    ///
    /// Caller contract: every byte of `data` that differs from the cached
    /// content (at the same offset) lies inside some `(start, end)` extent,
    /// `data` is no shorter than the cached input, and any tail growth is
    /// covered by an extent. Returns `None` when `data` shrank (callers
    /// should fall back to a full recompute), is shorter than
    /// [`MIN_FILE_SIZE`], or no features remain after the splice.
    pub fn recompute_dirty(
        cache: &FeatureCache,
        data: &[u8],
        dirty: &[(usize, usize)],
    ) -> Option<(SdDigest, FeatureCache)> {
        let n = data.len();
        if n < MIN_FILE_SIZE || n < cache.input_len {
            return None;
        }
        let windows = n - FEATURE_SIZE + 1;
        let win = POPULARITY_WINDOW.min(windows);
        debug_assert!(win == POPULARITY_WINDOW, "MIN_FILE_SIZE keeps windows >= 64");

        // A changed byte range [s, e) alters ranks of window positions
        // [s − (FEATURE_SIZE−1), e), and popularity a further win−1
        // positions on each side of those.
        let horizon = (FEATURE_SIZE - 1) + (win - 1);
        let mut regions: Vec<(usize, usize)> = Vec::new();
        for &(s, e) in dirty {
            let e = e.min(n);
            if s >= e {
                continue;
            }
            let lo = s.saturating_sub(horizon);
            let hi = (e + win - 1).min(windows);
            if lo < hi {
                regions.push((lo, hi));
            }
        }
        regions.sort_unstable();
        let mut merged: Vec<(usize, usize)> = Vec::with_capacity(regions.len());
        for (lo, hi) in regions {
            match merged.last_mut() {
                Some((_, last_hi)) if lo <= *last_hi => *last_hi = (*last_hi).max(hi),
                _ => merged.push((lo, hi)),
            }
        }

        let mut fresh: Vec<CachedFeature> = Vec::new();
        for &(lo, hi) in &merged {
            region_features(data, windows, win, lo, hi, &mut fresh);
        }

        // Splice: cached features outside every recomputed region, merged in
        // position order with the freshly selected ones.
        let outside = |pos: usize| {
            merged
                .binary_search_by(|&(lo, hi)| {
                    if pos < lo {
                        std::cmp::Ordering::Greater
                    } else if pos >= hi {
                        std::cmp::Ordering::Less
                    } else {
                        std::cmp::Ordering::Equal
                    }
                })
                .is_err()
        };
        let mut features = Vec::with_capacity(cache.features.len() + fresh.len());
        let mut fresh_iter = fresh.into_iter().peekable();
        for f in &cache.features {
            let pos = f.pos as usize;
            if pos >= windows || !outside(pos) {
                continue;
            }
            while let Some(nf) = fresh_iter.peek() {
                if (nf.pos as usize) < pos {
                    let nf = *nf;
                    fresh_iter.next();
                    features.push(nf);
                } else {
                    break;
                }
            }
            features.push(*f);
        }
        features.extend(fresh_iter);

        let digest = build_digest(&features, n)?;
        Some((
            digest,
            FeatureCache {
                features,
                input_len: n,
            },
        ))
    }

    /// The similarity confidence between two digests, 0–100.
    ///
    /// 100 indicates a high likelihood the inputs are homologous; 0 is
    /// "statistically comparable to two blobs of random data".
    pub fn similarity(&self, other: &SdDigest) -> u32 {
        let (short, long) = if self.filters.len() <= other.filters.len() {
            (self, other)
        } else {
            (other, self)
        };
        // Weight each filter's best match by its feature count so a
        // sparsely-filled trailing filter cannot dominate the average.
        let mut total = 0u64;
        let mut weight = 0u64;
        for f in &short.filters {
            if f.features() == 0 {
                continue;
            }
            let best = long.filters.iter().map(|g| f.score(g)).max().unwrap_or(0);
            total += best as u64 * f.features() as u64;
            weight += f.features() as u64;
        }
        total.checked_div(weight).unwrap_or(0) as u32
    }

    /// The number of selected features.
    pub fn features(&self) -> usize {
        self.features
    }

    /// The number of Bloom filters in the digest.
    pub fn filter_count(&self) -> usize {
        self.filters.len()
    }

    /// The length of the digested input, in bytes.
    pub fn input_len(&self) -> usize {
        self.input_len
    }
}

/// One selected feature retained for incremental recomputation: its window
/// position and its SHA-1 words (so splicing never re-hashes unchanged
/// features).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct CachedFeature {
    pos: u32,
    words: [u32; 5],
}

/// The selected-feature list behind a digest, kept alongside the snapshot
/// so [`SdDigest::recompute_dirty`] can splice unchanged feature runs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureCache {
    features: Vec<CachedFeature>,
    input_len: usize,
}

impl FeatureCache {
    /// The length of the input the cache describes, in bytes.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// The number of cached features.
    pub fn feature_count(&self) -> usize {
        self.features.len()
    }
}

/// Packs a sorted feature list into the Bloom-filter sequence (at most 160
/// features per filter). Returns `None` for an empty list, matching
/// [`SdDigest::compute`]'s refusal to emit empty digests.
fn build_digest(features: &[CachedFeature], input_len: usize) -> Option<SdDigest> {
    if features.is_empty() {
        return None;
    }
    let mut filters = vec![BloomFilter::new()];
    for f in features {
        if filters.last().expect("non-empty").is_full() {
            filters.push(BloomFilter::new());
        }
        filters.last_mut().expect("non-empty").insert(&f.words);
    }
    Some(SdDigest {
        filters,
        features: features.len(),
        input_len,
    })
}

/// 32.32 fixed-point scale for the window-entropy accumulator. Integer
/// accumulation is exact, so a recompute that starts mid-file produces the
/// same per-window sums — bit for bit — as a full left-to-right pass, which
/// is what makes windowed re-selection safe to splice.
const RANK_FX: f64 = (1u64 << 32) as f64;

/// `round(c · log2(c) · 2^32)` for counts 0..=64.
fn clog_fx() -> &'static [i64; FEATURE_SIZE + 1] {
    static TABLE: OnceLock<[i64; FEATURE_SIZE + 1]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0i64; FEATURE_SIZE + 1];
        for (c, slot) in t.iter_mut().enumerate().skip(2) {
            *slot = (c as f64 * (c as f64).log2() * RANK_FX).round() as i64;
        }
        t
    })
}

/// Computes each 64-byte window's precedence rank in O(n).
///
/// Window entropy is maintained incrementally: with `S = Σ c·log2(c)` over
/// the window's byte counts (in exact fixed point), `H = log2(W) − S/W`,
/// and sliding the window adjusts `S` by two table lookups.
fn precedence_ranks(data: &[u8]) -> Vec<u32> {
    let n = data.len();
    debug_assert!(n >= FEATURE_SIZE);
    ranks_in(data, 0, n - FEATURE_SIZE + 1)
}

/// Slots in [`ranks_in`]'s rank memo (a power of two). Small enough that
/// clearing it costs little next to ranking even a 1 KiB input, large
/// enough to hold the distinct window sums of typical documents.
const RANK_MEMO_SLOTS: usize = 1024;

/// The precedence rank of a window whose fixed-point sum is `s`. This float
/// formula is the only definition of a rank.
fn rank_of_sum(s: i64) -> u32 {
    let w = FEATURE_SIZE as f64;
    let max_h = w.log2(); // 6 bits
    let h = (max_h - (s as f64 / RANK_FX) / w).max(0.0);
    let scaled = ((h / max_h) * ENTROPY_SCALE as f64).round() as u32;
    rank_of(scaled.min(ENTROPY_SCALE))
}

/// Precedence ranks for window positions `lo..hi` only (requires
/// `hi + FEATURE_SIZE − 1 <= data.len()`). Exactly equal to the
/// corresponding slice of [`precedence_ranks`] thanks to the fixed-point
/// accumulator.
///
/// A rank is a pure function of the integer sum `S`, and neighbouring
/// windows mostly repeat a few sums, so each call memoizes
/// [`rank_of_sum`] in a direct-mapped table keyed by the exact `S`: a hit
/// returns the very value the formula produced, a miss evaluates it.
fn ranks_in(data: &[u8], lo: usize, hi: usize) -> Vec<u32> {
    debug_assert!(lo < hi && hi + FEATURE_SIZE - 1 <= data.len());
    let clog = clog_fx();
    let mut counts = [0u8; 256];
    let mut s = 0i64;
    for &b in &data[lo..lo + FEATURE_SIZE] {
        let c = counts[b as usize] as usize;
        s += clog[c + 1] - clog[c];
        counts[b as usize] += 1;
    }

    // `S` is never negative, so -1 marks an empty slot.
    let mut memo_sum = [-1i64; RANK_MEMO_SLOTS];
    let mut memo_rank = [0u32; RANK_MEMO_SLOTS];
    let mut rank = |s: i64| {
        let slot = ((s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            >> (64 - RANK_MEMO_SLOTS.trailing_zeros())) as usize;
        if memo_sum[slot] != s {
            memo_sum[slot] = s;
            memo_rank[slot] = rank_of_sum(s);
        }
        memo_rank[slot]
    };

    let mut ranks = Vec::with_capacity(hi - lo);
    ranks.push(rank(s));
    for (&out, &inc) in data[lo..hi - 1].iter().zip(&data[lo + FEATURE_SIZE..]) {
        // Slide: remove the byte leaving the window, add the one entering.
        let c = counts[out as usize] as usize;
        s += clog[c - 1] - clog[c];
        counts[out as usize] -= 1;
        let c = counts[inc as usize] as usize;
        s += clog[c + 1] - clog[c];
        counts[inc as usize] += 1;
        ranks.push(rank(s));
    }
    ranks
}

/// Calls `credit(i)` once per run of `win` consecutive entries of `ranks`,
/// in run order, where `i` is the index of the run's leftmost maximum.
///
/// van Herk/Gil-Werman sliding maximum: ranks are cut into blocks of
/// `win`; the run starting at offset `j` of a block is the block's suffix
/// from `j` plus the next block's prefix of length `j`, so one suffix-max
/// pass and one running prefix max give every run's maximum in O(1) each.
/// Keys `(rank << 32) | !i` make a plain `max` prefer the leftmost of
/// equal ranks.
fn for_each_window_max(ranks: &[u32], win: usize, mut credit: impl FnMut(usize)) {
    debug_assert!(win <= POPULARITY_WINDOW);
    let n = ranks.len();
    if win == 0 || n < win {
        return;
    }
    let key = |i: usize| (u64::from(ranks[i]) << 32) | u64::from(!(i as u32));
    let index = |key: u64| !(key as u32) as usize;
    let last_start = n - win;
    let mut suffix = [0u64; POPULARITY_WINDOW];
    for block in (0..=last_start).step_by(win) {
        let mut max = 0;
        for (j, slot) in suffix[..win].iter_mut().enumerate().rev() {
            max = max.max(key(block + j));
            *slot = max;
        }
        // The run starting at block + 1 + j adds the next block's first
        // j + 1 keys.
        credit(index(suffix[0]));
        let runs = win.min(last_start - block + 1);
        let mut prefix = 0;
        for (j, &suffix_max) in suffix[1..runs].iter().enumerate() {
            prefix = prefix.max(key(block + win + j));
            credit(index(suffix_max.max(prefix)));
        }
    }
}

/// Re-selects features for window positions `lo..hi` of `data`, appending
/// them to `out` in position order.
///
/// Replicates [`select_popular`]'s window-counting rule exactly, restricted
/// to the complete neighborhoods that can credit a position in the region:
/// window starts in `[lo − (win−1), min(hi − 1, windows − win)]`.
fn region_features(
    data: &[u8],
    windows: usize,
    win: usize,
    lo: usize,
    hi: usize,
    out: &mut Vec<CachedFeature>,
) {
    debug_assert!(lo < hi && hi <= windows && win <= windows);
    let r_lo = lo.saturating_sub(win - 1);
    let r_hi = (hi + win - 1).min(windows);
    let ranks = ranks_in(data, r_lo, r_hi);
    let q_hi = (hi - 1).min(windows - win);
    debug_assert!(q_hi >= r_lo);
    let mut pop = vec![0u32; hi - lo];
    for_each_window_max(&ranks[..q_hi + win - r_lo], win, |i| {
        if let Some(points) = (r_lo + i).checked_sub(lo).and_then(|p| pop.get_mut(p)) {
            *points += 1;
        }
    });
    for p in lo..hi {
        if ranks[p - r_lo] > 0 && pop[p - lo] >= POPULARITY_THRESHOLD {
            out.push(CachedFeature {
                pos: p as u32,
                words: sha1_words(&data[p..p + FEATURE_SIZE]),
            });
        }
    }
}

/// Maps a scaled entropy value to a precedence rank; 0 means "never
/// select". The rank peaks in the upper-middle entropy range where features
/// are most discriminating, mirroring the shape of sdhash's empirical
/// precedence table.
fn rank_of(scaled_entropy: u32) -> u32 {
    if !(MIN_ENTROPY..=MAX_ENTROPY).contains(&scaled_entropy) {
        return 0;
    }
    ENTROPY_SCALE - (650i64 - scaled_entropy as i64).unsigned_abs() as u32
}

/// Selects the indices of popular features: for every length-64 run of
/// consecutive window positions, the leftmost position with maximal rank
/// gets a popularity point; positions with at least
/// [`POPULARITY_THRESHOLD`] points (and nonzero rank) are selected.
///
/// O(n) total work via [`for_each_window_max`].
fn select_popular(ranks: &[u32]) -> Vec<usize> {
    let n = ranks.len();
    let mut popularity = vec![0u32; n];
    for_each_window_max(ranks, POPULARITY_WINDOW.min(n), |i| popularity[i] += 1);
    (0..n)
        .filter(|&i| ranks[i] > 0 && popularity[i] >= POPULARITY_THRESHOLD)
        .collect()
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift bytes.
    fn random_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 32) as u8
            })
            .collect()
    }

    /// English-ish structured text.
    fn text_bytes(n: usize) -> Vec<u8> {
        let para = b"The quarterly report shows steady growth in all regions. \
                     Management expects the trend to continue through the next \
                     fiscal year, barring unusual market conditions. ";
        para.iter().cycle().take(n).copied().collect()
    }

    #[test]
    fn small_inputs_have_no_digest() {
        assert!(SdDigest::compute(b"").is_none());
        assert!(SdDigest::compute(&text_bytes(511)).is_none());
        assert!(SdDigest::compute(&text_bytes(512)).is_some());
    }

    #[test]
    fn constant_input_has_no_digest() {
        assert!(SdDigest::compute(&vec![0u8; 4096]).is_none());
        assert!(SdDigest::compute(&vec![0xAA; 4096]).is_none());
    }

    #[test]
    fn self_similarity_is_100() {
        for data in [text_bytes(2048), random_bytes(2048, 7)] {
            let d = SdDigest::compute(&data).unwrap();
            assert_eq!(d.similarity(&d), 100);
        }
    }

    #[test]
    fn similarity_is_symmetric() {
        let a = SdDigest::compute(&text_bytes(4096)).unwrap();
        let b = SdDigest::compute(&random_bytes(4096, 3)).unwrap();
        assert_eq!(a.similarity(&b), b.similarity(&a));
    }

    #[test]
    fn random_blobs_score_near_zero() {
        let a = SdDigest::compute(&random_bytes(8192, 1)).unwrap();
        let b = SdDigest::compute(&random_bytes(8192, 2)).unwrap();
        let s = a.similarity(&b);
        assert!(s <= 5, "independent random blobs scored {s}");
    }

    #[test]
    fn encryption_destroys_similarity() {
        // The indicator's core scenario (paper §III-B): plaintext vs its
        // "ciphertext" should score ~0.
        let plain = text_bytes(8192);
        let key = random_bytes(plain.len(), 99);
        let cipher: Vec<u8> = plain.iter().zip(&key).map(|(p, k)| p ^ k).collect();
        let dp = SdDigest::compute(&plain).unwrap();
        let dc = SdDigest::compute(&cipher).unwrap();
        let s = dp.similarity(&dc);
        assert!(s <= 5, "plaintext vs ciphertext scored {s}");
    }

    #[test]
    fn small_edits_keep_high_similarity() {
        let base = text_bytes(8192);
        let mut edited = base.clone();
        // Flip a handful of bytes scattered through the file.
        for i in (0..edited.len()).step_by(1500) {
            edited[i] = edited[i].wrapping_add(13);
        }
        let a = SdDigest::compute(&base).unwrap();
        let b = SdDigest::compute(&edited).unwrap();
        let s = a.similarity(&b);
        assert!(s >= 50, "lightly edited file scored only {s}");
    }

    #[test]
    fn appended_content_keeps_similarity() {
        let base = text_bytes(8192);
        let mut longer = base.clone();
        longer.extend_from_slice(&text_bytes(1024));
        let a = SdDigest::compute(&base).unwrap();
        let b = SdDigest::compute(&longer).unwrap();
        assert!(a.similarity(&b) >= 60);
    }

    #[test]
    fn unrelated_text_scores_low() {
        let a = SdDigest::compute(&text_bytes(8192)).unwrap();
        let other: Vec<u8> = b"zx81 qwerty dvorak colemak azerty keyboard layouts \
                               differ substantially in their letter placements!!! "
            .iter()
            .cycle()
            .take(8192)
            .copied()
            .collect();
        let b = SdDigest::compute(&other).unwrap();
        let s = a.similarity(&b);
        assert!(s < 40, "unrelated periodic texts scored {s}");
    }

    #[test]
    fn digest_metadata() {
        let data = text_bytes(4096);
        let d = SdDigest::compute(&data).unwrap();
        assert!(d.features() > 0);
        assert!(d.filter_count() >= 1);
        assert_eq!(d.input_len(), 4096);
    }

    #[test]
    fn large_input_spills_into_multiple_filters() {
        let d = SdDigest::compute(&random_bytes(256 * 1024, 5)).unwrap();
        assert!(
            d.filter_count() > 1,
            "256 KiB of random data should exceed one filter ({} features)",
            d.features()
        );
    }

    #[test]
    fn rank_of_boundaries() {
        assert_eq!(rank_of(0), 0);
        assert_eq!(rank_of(MIN_ENTROPY - 1), 0);
        assert!(rank_of(MIN_ENTROPY) > 0);
        assert!(rank_of(650) > rank_of(400));
        assert!(rank_of(650) > rank_of(MAX_ENTROPY));
        assert_eq!(rank_of(MAX_ENTROPY + 1), 0);
        assert_eq!(rank_of(ENTROPY_SCALE), 0);
    }

    #[test]
    fn select_popular_degenerate_inputs() {
        assert!(select_popular(&[]).is_empty());
        assert!(select_popular(&[0; 10]).is_empty());
        // A single dominant rank in a long run is selected.
        let mut ranks = vec![500u32; 200];
        ranks[100] = 900;
        let sel = select_popular(&ranks);
        assert!(sel.contains(&100));
    }

    #[test]
    fn compute_with_cache_matches_compute() {
        for data in [text_bytes(2048), random_bytes(4096, 21)] {
            let plain = SdDigest::compute(&data).unwrap();
            let (cached, cache) = SdDigest::compute_with_cache(&data).unwrap();
            assert_eq!(plain, cached);
            assert_eq!(cache.feature_count(), cached.features());
            assert_eq!(cache.input_len(), data.len());
        }
    }

    #[test]
    fn empty_dirty_set_rebuilds_identical_digest() {
        let data = text_bytes(4096);
        let (digest, cache) = SdDigest::compute_with_cache(&data).unwrap();
        let (rebuilt, cache2) = SdDigest::recompute_dirty(&cache, &data, &[]).unwrap();
        assert_eq!(digest, rebuilt);
        assert_eq!(cache, cache2);
    }

    #[test]
    fn shrunk_input_refuses_incremental() {
        let data = text_bytes(4096);
        let (_, cache) = SdDigest::compute_with_cache(&data).unwrap();
        assert!(SdDigest::recompute_dirty(&cache, &data[..2048], &[(0, 2048)]).is_none());
    }

    /// Property test: for random dirty-extent patterns (overwrites and tail
    /// growth), the spliced digest and feature cache are bit-identical to a
    /// from-scratch recompute of the final bytes — the incremental-vs-full
    /// equivalence the engine's close path relies on.
    #[test]
    fn dirty_recompute_matches_from_scratch() {
        let mut seed = 0xD1537_u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..40 {
            // Mix structured and random content so both feature-rich and
            // feature-poor neighborhoods get exercised.
            let len = MIN_FILE_SIZE + (next() as usize % 8192);
            let mut data = if case % 2 == 0 {
                text_bytes(len)
            } else {
                let mut d = text_bytes(len);
                let r = random_bytes(len / 3, next() | 1);
                d[..r.len()].copy_from_slice(&r);
                d
            };
            let (_, cache) = match SdDigest::compute_with_cache(&data) {
                Some(v) => v,
                None => continue,
            };
            let mut dirty: Vec<(usize, usize)> = Vec::new();
            for _ in 0..1 + next() % 5 {
                if next() % 5 == 0 {
                    // Tail growth, recorded as a dirty extent.
                    let old_len = data.len();
                    let extra: Vec<u8> = (0..1 + next() as usize % 700).map(|_| next() as u8).collect();
                    data.extend_from_slice(&extra);
                    dirty.push((old_len, data.len()));
                } else {
                    let start = next() as usize % data.len();
                    let end = (start + 1 + next() as usize % 300).min(data.len());
                    for b in &mut data[start..end] {
                        *b = next() as u8;
                    }
                    dirty.push((start, end));
                }
            }
            let spliced = SdDigest::recompute_dirty(&cache, &data, &dirty);
            let scratch = SdDigest::compute_with_cache(&data);
            match (spliced, scratch) {
                (Some((d, c)), Some((d2, c2))) => {
                    assert_eq!(d, d2, "case {case}: spliced digest must equal from-scratch");
                    assert_eq!(c, c2, "case {case}: spliced cache must equal from-scratch");
                    assert_eq!(d.similarity(&d2), 100);
                }
                (None, None) => {}
                (a, b) => panic!(
                    "case {case}: incremental {:?} vs full {:?} disagree on digestibility",
                    a.is_some(),
                    b.is_some()
                ),
            }
        }
    }

    #[test]
    fn incremental_entropy_matches_direct() {
        // Cross-check precedence_ranks' incremental entropy against a
        // direct per-window computation.
        let data = random_bytes(1024, 11);
        let ranks = precedence_ranks(&data);
        for (i, &r) in ranks.iter().enumerate().step_by(97) {
            let window = &data[i..i + FEATURE_SIZE];
            let mut counts = [0u32; 256];
            for &b in window {
                counts[b as usize] += 1;
            }
            let mut h = 0.0f64;
            for &c in counts.iter() {
                if c > 0 {
                    let p = c as f64 / FEATURE_SIZE as f64;
                    h -= p * p.log2();
                }
            }
            let scaled = ((h / 6.0) * 1000.0).round() as u32;
            assert_eq!(r, rank_of(scaled.min(1000)), "window {i}");
        }
    }
}
