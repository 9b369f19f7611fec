//! Hash primitives used by the similarity digests.
//!
//! Everything here is implemented from scratch (the reproduction mandate
//! includes substrates): a compact SHA-1 for feature hashing — sdhash hashes
//! each selected 64-byte feature with SHA-1 and uses the five 32-bit words
//! to index its Bloom filters — plus FNV-1a and the rolling hash used by the
//! CTPH (ssdeep-style) digest.
//!
//! SHA-1 is used here as a *fingerprint*, exactly as sdhash uses it; its
//! cryptographic weaknesses are irrelevant to similarity digests.

/// Computes the SHA-1 digest of `data` as five big-endian 32-bit words.
///
/// # Examples
///
/// ```
/// use cryptodrop_simhash::hash::sha1_words;
///
/// let words = sha1_words(b"abc");
/// assert_eq!(words[0], 0xa9993e36);
/// ```
pub fn sha1_words(data: &[u8]) -> [u32; 5] {
    let mut h: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];
    let mut blocks = data.chunks_exact(64);
    for block in &mut blocks {
        sha1_compress(&mut h, block);
    }

    // Message padding, built on the stack around the tail: 0x80, zeros,
    // 64-bit big-endian bit length — one block, or two when the tail
    // leaves no room for the length.
    let tail = blocks.remainder();
    let mut pad = [0u8; 128];
    pad[..tail.len()].copy_from_slice(tail);
    pad[tail.len()] = 0x80;
    let end = if tail.len() < 56 { 64 } else { 128 };
    let bit_len = (data.len() as u64).wrapping_mul(8);
    pad[end - 8..end].copy_from_slice(&bit_len.to_be_bytes());
    for block in pad[..end].chunks_exact(64) {
        sha1_compress(&mut h, block);
    }
    h
}

/// Folds one 64-byte block into the SHA-1 state.
fn sha1_compress(h: &mut [u32; 5], block: &[u8]) {
    let mut w = [0u32; 80];
    for (wi, word) in w.iter_mut().zip(block.chunks_exact(4)) {
        *wi = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }
    let [mut a, mut b, mut c, mut d, mut e] = *h;
    macro_rules! rounds {
        ($range:expr, $k:expr, $f:expr) => {
            for &wi in &w[$range] {
                let tmp = a
                    .rotate_left(5)
                    .wrapping_add($f)
                    .wrapping_add(e)
                    .wrapping_add($k)
                    .wrapping_add(wi);
                e = d;
                d = c;
                c = b.rotate_left(30);
                b = a;
                a = tmp;
            }
        };
    }
    rounds!(0..20, 0x5A827999, (b & c) | (!b & d));
    rounds!(20..40, 0x6ED9EBA1, b ^ c ^ d);
    rounds!(40..60, 0x8F1BBCDC, (b & c) | (b & d) | (c & d));
    rounds!(60..80, 0xCA62C1D6, b ^ c ^ d);
    for (hi, v) in h.iter_mut().zip([a, b, c, d, e]) {
        *hi = hi.wrapping_add(v);
    }
}

/// The SHA-1 digest as a lowercase hex string (for tests and reports).
pub fn sha1_hex(data: &[u8]) -> String {
    sha1_words(data)
        .iter()
        .map(|w| format!("{w:08x}"))
        .collect()
}

/// 64-bit FNV-1a, used as the piecewise hash by the CTPH digest.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The ssdeep-style rolling hash: a window of the last 7 bytes whose value
/// changes cheaply as the window slides, used to pick content-defined
/// trigger points.
#[derive(Debug, Clone, Default)]
pub struct RollingHash {
    window: [u8; Self::WINDOW],
    pos: usize,
    h1: u32,
    h2: u32,
    h3: u32,
}

impl RollingHash {
    /// The rolling window size, as in ssdeep.
    pub const WINDOW: usize = 7;

    /// Creates an empty rolling hash.
    pub fn new() -> Self {
        Self::default()
    }

    /// Slides one byte into the window and returns the updated hash value.
    pub fn roll(&mut self, byte: u8) -> u32 {
        let out = self.window[self.pos % Self::WINDOW];
        self.h2 = self
            .h2
            .wrapping_sub(self.h1)
            .wrapping_add(Self::WINDOW as u32 * byte as u32);
        self.h1 = self.h1.wrapping_add(byte as u32).wrapping_sub(out as u32);
        self.window[self.pos % Self::WINDOW] = byte;
        self.pos += 1;
        self.h3 = (self.h3 << 5) ^ (byte as u32);
        self.h1.wrapping_add(self.h2).wrapping_add(self.h3)
    }

    /// Resets to the empty state.
    pub fn reset(&mut self) {
        *self = Self::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha1_known_vectors() {
        // FIPS 180-1 test vectors.
        assert_eq!(sha1_hex(b"abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
        assert_eq!(
            sha1_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        assert_eq!(sha1_hex(b""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        let a_million: Vec<u8> = vec![b'a'; 1_000_000];
        assert_eq!(
            sha1_hex(&a_million),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn sha1_padding_boundaries() {
        // Lengths straddling the 55/56/64-byte padding edges.
        for len in [54usize, 55, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0x5Au8; len];
            // Self-consistency: incremental lengths give distinct digests.
            let h1 = sha1_hex(&data);
            let mut d2 = data.clone();
            d2.push(0);
            assert_ne!(h1, sha1_hex(&d2));
        }
    }

    #[test]
    fn fnv_distinguishes_and_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"hello"), fnv1a(b"hello"));
    }

    #[test]
    fn rolling_hash_is_windowed() {
        // After the window fills, the hash of the same trailing 7 bytes
        // differs only through h3's shift history; verify the additive parts
        // (h1) depend only on the window.
        let mut r1 = RollingHash::new();
        for b in b"XXXXXXXabcdefg" {
            r1.roll(*b);
        }
        let mut r2 = RollingHash::new();
        for b in b"YYYYYYYabcdefg" {
            r2.roll(*b);
        }
        // h1 component equality is not directly observable; assert instead
        // that rolling is deterministic and sensitive to recent bytes.
        let mut r3 = RollingHash::new();
        let mut last3 = 0;
        for b in b"XXXXXXXabcdefg" {
            last3 = r3.roll(*b);
        }
        let mut r4 = RollingHash::new();
        let mut last4 = 0;
        for b in b"XXXXXXXabcdefh" {
            last4 = r4.roll(*b);
        }
        assert_ne!(last3, last4);
        let mut r5 = RollingHash::new();
        let mut last5 = 0;
        for b in b"XXXXXXXabcdefg" {
            last5 = r5.roll(*b);
        }
        assert_eq!(last3, last5);
    }

    #[test]
    fn rolling_hash_reset() {
        let mut r = RollingHash::new();
        let first = r.roll(42);
        r.roll(17);
        r.reset();
        assert_eq!(r.roll(42), first);
    }
}
