//! Golden pin for the content kernels on the close path: the sniffed type,
//! sdhash digest and feature cache of every file of two generated corpora,
//! folded into one fingerprint. The kernels may get faster; this value may
//! never change, because every verdict, score and shadow byte downstream is
//! a function of it.

use cryptodrop_corpus::{Corpus, CorpusSpec};
use cryptodrop_simhash::SdDigest;
use cryptodrop_sniff::sniff;

/// The fingerprint of the kernels' outputs over both corpora, recorded on
/// the scalar kernels the current ones replaced.
const GOLDEN: u64 = 0x7888_7d0a_d6e8_5785;

/// 64-bit FNV-1a, continued from `h`.
fn fold(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100000001b3))
}

#[test]
fn kernel_outputs_match_the_golden_fingerprint() {
    let mut h = 0xcbf29ce484222325;
    let mut files = 0;
    for spec in [CorpusSpec::sized(800, 80), CorpusSpec::sized(2000, 100)] {
        for file in Corpus::generate(&spec).files() {
            let digest = SdDigest::compute_with_cache(&file.data);
            h = fold(h, file.path.as_str().as_bytes());
            h = fold(h, format!("{:?}", sniff(&file.data)).as_bytes());
            h = fold(
                h,
                serde_json::to_string(&digest)
                    .expect("serializable")
                    .as_bytes(),
            );
            files += 1;
        }
    }
    assert_eq!(files, 2800);
    assert_eq!(
        h, GOLDEN,
        "content kernel outputs moved: fingerprint {h:#018x}"
    );
}
