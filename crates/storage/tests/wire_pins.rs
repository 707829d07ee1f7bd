//! Wire bytes are pinned: every encoder's output on the fixed testkit
//! corpus must keep its recorded length and body CRC32 (the stored
//! trailer). The values were recorded from the encoders as they stood
//! before the codec consolidation, so any refactor of the codec layer that
//! changes a single byte of LDFC, LDDB, LDSM or LDGM output fails here.
//! Every entry is a format the writers produce: LDFC v2, LDDB v2 and v3.

mod corpus;

use corpus::corpus;
use lowdiff_util::crc32;

const PINS: &[(&str, usize, u32)] = &[
    ("Full/none", 311, 0x82D8907C),
    ("Full/residual", 403, 0x900B2367),
    ("Full/compressor", 321, 0x98AFCC1A),
    ("Full/rng", 343, 0xFD644608),
    ("Full/quant", 319, 0xC2755F71),
    ("Full/all", 453, 0xC4240A0C),
    ("Diff/v2", 398, 0x4336B5DD),
    ("Diff/v2-empty", 14, 0xD7F9D41F),
    ("Diff/v3-4", 649, 0x2BB7D773),
    ("Diff/v3-8", 799, 0xD2698C17),
    ("Diff/v3-16", 1099, 0x411D9FB3),
    ("Diff/v3-adaptive", 1093, 0x501FDCF8),
    ("StripeManifest/3-stripes", 86, 0xEA9F4045),
    ("GlobalManifest/3-ranks", 126, 0x813C340C),
];

#[test]
fn every_encoder_output_matches_its_pin() {
    let blobs = corpus();
    let got: Vec<(String, usize, u32)> = blobs
        .iter()
        .map(|b| (b.id(), b.bytes.len(), crc32(&b.bytes[..b.bytes.len() - 4])))
        .collect();
    let want: Vec<(String, usize, u32)> = PINS
        .iter()
        .map(|&(id, len, crc)| (id.to_string(), len, crc))
        .collect();
    assert_eq!(got, want, "wire bytes changed");
}
