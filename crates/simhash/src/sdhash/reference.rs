//! The straightforward scalar kernels the fast ones in [`super`] and
//! [`crate::hash`] replaced, kept only as a test oracle: every digest,
//! feature cache and SHA-1 word the crate produces must equal what these
//! produce, bit for bit.

use std::collections::VecDeque;

use super::{
    build_digest, clog_fx, rank_of, CachedFeature, FeatureCache, SdDigest, ENTROPY_SCALE,
    FEATURE_SIZE, MIN_FILE_SIZE, POPULARITY_THRESHOLD, POPULARITY_WINDOW, RANK_FX,
};

/// SHA-1 over a padded heap copy of the message.
pub(crate) fn sha1_words(data: &[u8]) -> [u32; 5] {
    let mut h: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];
    let bit_len = (data.len() as u64).wrapping_mul(8);
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_be_bytes());

    let mut w = [0u32; 80];
    for block in msg.chunks_exact(64) {
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let (mut a, mut b, mut c, mut d, mut e) = (h[0], h[1], h[2], h[3], h[4]);
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5A827999),
                20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
                _ => (b ^ c ^ d, 0xCA62C1D6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }
        h[0] = h[0].wrapping_add(a);
        h[1] = h[1].wrapping_add(b);
        h[2] = h[2].wrapping_add(c);
        h[3] = h[3].wrapping_add(d);
        h[4] = h[4].wrapping_add(e);
    }
    h
}

/// Precedence ranks for window positions `lo..hi`, evaluating the float
/// rank formula at every position.
pub(crate) fn ranks_in(data: &[u8], lo: usize, hi: usize) -> Vec<u32> {
    let clog = clog_fx();
    let mut counts = [0usize; 256];
    let mut s = 0i64;
    for &b in &data[lo..lo + FEATURE_SIZE] {
        let c = counts[b as usize];
        s += clog[c + 1] - clog[c];
        counts[b as usize] = c + 1;
    }
    let w = FEATURE_SIZE as f64;
    let max_h = w.log2();

    let mut ranks = Vec::with_capacity(hi - lo);
    for i in lo..hi {
        if i > lo {
            let out = data[i - 1] as usize;
            let c = counts[out];
            s += clog[c - 1] - clog[c];
            counts[out] = c - 1;
            let inc = data[i + FEATURE_SIZE - 1] as usize;
            let c = counts[inc];
            s += clog[c + 1] - clog[c];
            counts[inc] = c + 1;
        }
        let h = (max_h - (s as f64 / RANK_FX) / w).max(0.0);
        let scaled = ((h / max_h) * ENTROPY_SCALE as f64).round() as u32;
        ranks.push(rank_of(scaled.min(ENTROPY_SCALE)));
    }
    ranks
}

/// Popular feature selection with a monotonic deque.
pub(crate) fn select_popular(ranks: &[u32]) -> Vec<usize> {
    let n = ranks.len();
    let mut popularity = vec![0u32; n];
    let win = POPULARITY_WINDOW.min(n);
    let mut deque: VecDeque<usize> = VecDeque::new();
    for i in 0..n {
        while let Some(&back) = deque.back() {
            if ranks[back] < ranks[i] {
                deque.pop_back();
            } else {
                break;
            }
        }
        deque.push_back(i);
        if i + 1 >= win {
            let start = i + 1 - win;
            while let Some(&front) = deque.front() {
                if front < start {
                    deque.pop_front();
                } else {
                    break;
                }
            }
            if let Some(&front) = deque.front() {
                popularity[front] += 1;
            }
        }
    }
    (0..n)
        .filter(|&i| ranks[i] > 0 && popularity[i] >= POPULARITY_THRESHOLD)
        .collect()
}

/// Windowed feature re-selection with a monotonic deque.
pub(crate) fn region_features(
    data: &[u8],
    windows: usize,
    win: usize,
    lo: usize,
    hi: usize,
    out: &mut Vec<CachedFeature>,
) {
    let r_lo = lo.saturating_sub(win - 1);
    let r_hi = (hi + win - 1).min(windows);
    let ranks = ranks_in(data, r_lo, r_hi);
    let q_hi = (hi - 1).min(windows - win);
    let mut pop = vec![0u32; hi - lo];
    let mut deque: VecDeque<usize> = VecDeque::new();
    if q_hi + win > r_lo {
        for i in r_lo..(q_hi + win) {
            let ri = i - r_lo;
            while let Some(&back) = deque.back() {
                if ranks[back] < ranks[ri] {
                    deque.pop_back();
                } else {
                    break;
                }
            }
            deque.push_back(ri);
            if i + 1 >= r_lo + win {
                let q = i + 1 - win;
                while let Some(&front) = deque.front() {
                    if front + r_lo < q {
                        deque.pop_front();
                    } else {
                        break;
                    }
                }
                if let Some(&front) = deque.front() {
                    let p = front + r_lo;
                    if p >= lo && p < hi {
                        pop[p - lo] += 1;
                    }
                }
            }
        }
    }
    for p in lo..hi {
        if ranks[p - r_lo] > 0 && pop[p - lo] >= POPULARITY_THRESHOLD {
            out.push(CachedFeature {
                pos: p as u32,
                words: sha1_words(&data[p..p + FEATURE_SIZE]),
            });
        }
    }
}

/// A from-scratch digest and feature cache built from the kernels above.
pub(crate) fn compute_with_cache(data: &[u8]) -> Option<(SdDigest, FeatureCache)> {
    if data.len() < MIN_FILE_SIZE {
        return None;
    }
    let ranks = ranks_in(data, 0, data.len() - FEATURE_SIZE + 1);
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

mod tests {
    use proptest::prelude::*;

    use crate::hash::sha1_words as fast_sha1_words;
    use crate::sdhash::{
        precedence_ranks, ranks_in as fast_ranks_in, region_features as fast_region_features,
        select_popular as fast_select_popular, CachedFeature, SdDigest, FEATURE_SIZE,
        POPULARITY_WINDOW,
    };

    /// A deterministic xorshift stream.
    struct Xorshift(u64);

    impl Xorshift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    /// An input of `len` bytes in one of four shapes: uniform random bytes,
    /// structured text, a 2–8 symbol alphabet (many equal window sums and
    /// rank ties), or text with random blocks spliced in.
    fn input(shape: u8, len: usize, seed: u64) -> Vec<u8> {
        let mut rng = Xorshift(seed | 1);
        match shape % 4 {
            0 => (0..len).map(|_| (rng.next() >> 32) as u8).collect(),
            1 => {
                let words: [&[u8]; 8] = [
                    b"the ",
                    b"quarterly ",
                    b"report ",
                    b"shows ",
                    b"growth ",
                    b"in ",
                    b"regions, ",
                    b"2016.\n",
                ];
                let mut v = Vec::with_capacity(len + 16);
                while v.len() < len {
                    v.extend_from_slice(words[(rng.next() % 8) as usize]);
                    if rng.next().is_multiple_of(11) {
                        v.extend_from_slice((rng.next() % 100_000).to_string().as_bytes());
                    }
                }
                v.truncate(len);
                v
            }
            2 => {
                let k = 2 + rng.next() % 7;
                let mut v = Vec::with_capacity(len);
                while v.len() < len {
                    let b = b'a' + (rng.next() % k) as u8;
                    let run = 1 + (rng.next() % 4) as usize;
                    v.extend(std::iter::repeat_n(b, run));
                }
                v.truncate(len);
                v
            }
            _ => {
                let mut v = input(1, len, seed);
                let mut at = 0;
                while at < len {
                    at += (rng.next() % 9000) as usize;
                    let end = (at + (rng.next() % 2000) as usize).min(len);
                    for b in v.iter_mut().take(end).skip(at) {
                        *b = (rng.next() >> 24) as u8;
                    }
                    at = end + 1;
                }
                v
            }
        }
    }

    fn assert_same_digest(data: &[u8]) {
        assert_eq!(
            SdDigest::compute_with_cache(data),
            super::compute_with_cache(data),
            "digest or feature cache of a {}-byte input",
            data.len()
        );
    }

    #[test]
    fn edge_lengths_match_the_oracle() {
        for len in [0, 1, 63, 64, 65, 511, 512, 513, 575, 576, 577, 4096] {
            for shape in 0..4 {
                let data = input(shape, len, 0xED6E + len as u64);
                assert_eq!(
                    fast_sha1_words(&data),
                    super::sha1_words(&data),
                    "sha1 len {len}"
                );
                assert_same_digest(&data);
                if len >= FEATURE_SIZE {
                    assert_eq!(
                        precedence_ranks(&data),
                        super::ranks_in(&data, 0, len - FEATURE_SIZE + 1),
                        "ranks len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn sha1_matches_the_oracle_at_every_padding_edge() {
        let data = input(0, 300, 0x5A1);
        for len in 0..=300 {
            assert_eq!(
                fast_sha1_words(&data[..len]),
                super::sha1_words(&data[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn popularity_matches_the_oracle_below_and_at_the_window() {
        // Short rank arrays take the `win = n` path; tiny rank alphabets
        // force ties that only the leftmost-maximum rule breaks.
        let mut rng = Xorshift(0x909);
        for n in 0..=3 * POPULARITY_WINDOW {
            for alphabet in [1u64, 2, 3, 1000] {
                let ranks: Vec<u32> = (0..n).map(|_| (rng.next() % alphabet) as u32).collect();
                assert_eq!(
                    fast_select_popular(&ranks),
                    super::select_popular(&ranks),
                    "n {n}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Digest, feature cache, ranks and SHA-1 words equal the oracle's
        /// on inputs of 0–70 KB.
        #[test]
        fn kernels_match_the_oracle(shape in 0u8..4, len in 0usize..70_000, seed in any::<u64>()) {
            let data = input(shape, len, seed);
            prop_assert_eq!(fast_sha1_words(&data), super::sha1_words(&data));
            prop_assert_eq!(
                SdDigest::compute_with_cache(&data),
                super::compute_with_cache(&data)
            );
            if len >= FEATURE_SIZE {
                let windows = len - FEATURE_SIZE + 1;
                let mut rng = Xorshift(seed ^ 0xA5A5);
                let lo = (rng.next() as usize) % windows;
                let hi = lo + 1 + (rng.next() as usize) % (windows - lo);
                prop_assert_eq!(fast_ranks_in(&data, lo, hi), super::ranks_in(&data, lo, hi));
            }
        }

        /// Windowed re-selection and the spliced `recompute_dirty` equal the
        /// oracle after random overwrites and tail growth.
        #[test]
        fn dirty_recompute_matches_the_oracle(shape in 0u8..4, len in 512usize..70_000, seed in any::<u64>()) {
            let mut data = input(shape, len, seed);
            let mut rng = Xorshift(seed ^ 0xD1);
            let Some((_, cache)) = SdDigest::compute_with_cache(&data) else {
                return Ok(());
            };
            let mut dirty = Vec::new();
            for _ in 0..1 + rng.next() % 5 {
                if rng.next().is_multiple_of(4) {
                    let old = data.len();
                    let extra = 1 + (rng.next() % 3000) as usize;
                    data.extend((0..extra).map(|_| rng.next() as u8));
                    dirty.push((old, data.len()));
                } else {
                    let start = (rng.next() as usize) % data.len();
                    let end = (start + 1 + (rng.next() % 700) as usize).min(data.len());
                    for b in &mut data[start..end] {
                        *b = (rng.next() >> 40) as u8;
                    }
                    dirty.push((start, end));
                }
            }
            prop_assert_eq!(
                SdDigest::recompute_dirty(&cache, &data, &dirty),
                super::compute_with_cache(&data)
            );

            let windows = data.len() - FEATURE_SIZE + 1;
            let lo = (rng.next() as usize) % windows;
            let hi = lo + 1 + (rng.next() as usize) % (windows - lo).min(4000);
            let (mut fast, mut oracle): (Vec<CachedFeature>, Vec<CachedFeature>) = (Vec::new(), Vec::new());
            fast_region_features(&data, windows, POPULARITY_WINDOW, lo, hi, &mut fast);
            super::region_features(&data, windows, POPULARITY_WINDOW, lo, hi, &mut oracle);
            prop_assert_eq!(fast, oracle);
        }
    }
}
