//! Striped parallel persist: one encoded checkpoint blob fanned out into
//! N concurrent ranged writes, sealed by a CRC-carrying manifest.
//!
//! PR 4 made encoding nearly free, which leaves a single sequential `put`
//! as the checkpoint wall-clock — the bottleneck FastPersist attacks with
//! parallel writes. Here a blob is split into [`StripeCfg::stripes`]
//! balanced ranges (via [`lowdiff_util::par::chunk_ranges`], so every
//! layer partitions identically), each written concurrently with
//! [`StorageBackend::put_ranged`] on the workspace executor, then the data
//! object is made visible with `finish_ranged`. Durability is decided by a
//! separate **manifest** blob written last:
//!
//! ```text
//! manifest (the seal)            data object
//! ┌──────────────────────┐       ┌─────────┬─────────┬─────────┐
//! │ magic "LDSM"         │       │ stripe 0│ stripe 1│ stripe 2│ …
//! │ version u16          │  ───▶ │  (crc)  │  (crc)  │  (crc)  │
//! │ total_len u64        │       └─────────┴─────────┴─────────┘
//! │ whole crc32 u32      │
//! │ stripe count u32     │
//! │ count × {off,len,crc}│
//! │ crc32 u32            │
//! └──────────────────────┘
//! ```
//!
//! **Manifest-seal invariant:** a striped checkpoint exists iff its
//! manifest decodes *and* every stripe's CRC verifies against the data
//! object. A crash anywhere before the manifest put — mid-stripe, after
//! all stripes, even after `finish_ranged` made the data object visible —
//! leaves no manifest, so recovery never sees the checkpoint and the
//! orphaned data object is garbage (swept like `.tmp-` files).
//!
//! Retry semantics are per-stripe: each ranged write runs under the shared
//! [`RetryPolicy`]; the first stripe to exhaust its retries fails the
//! whole write (the caller accounts one failed checkpoint, with the summed
//! retry count).

use crate::backend::StorageBackend;
use crate::codec::{combined_crc, put_u16, put_u32, put_u64, seal, CodecError, Cursor};
use crate::retry::{with_retry, RetryPolicy};
use lowdiff_util::crc::crc32;
use lowdiff_util::par::chunk_ranges;
use rayon::prelude::*;
use std::io;

pub const MAGIC_MANIFEST: &[u8; 4] = b"LDSM";
pub const MANIFEST_VERSION: u16 = 1;

/// Striping knobs, one per engine. The defaults reproduce the legacy
/// single-stream persist exactly (`stripes = 1` never enters the striped
/// path, so byte layouts and key names are unchanged).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StripeCfg {
    /// Maximum concurrent stripe writes per blob. 1 = legacy single put.
    pub stripes: usize,
    /// Blobs smaller than `stripes × min_stripe_bytes` use fewer stripes
    /// (down to a single plain put): fanning out tiny writes costs more in
    /// per-request overhead than the parallelism returns.
    pub min_stripe_bytes: usize,
}

impl Default for StripeCfg {
    fn default() -> Self {
        Self {
            stripes: 1,
            min_stripe_bytes: 64 * 1024,
        }
    }
}

impl StripeCfg {
    /// Stripe count actually used for a blob of `len` bytes.
    pub fn effective_stripes(&self, len: usize) -> usize {
        if self.stripes <= 1 {
            return 1;
        }
        let by_size = len / self.min_stripe_bytes.max(1);
        self.stripes.min(by_size.max(1))
    }
}

/// One stripe's extent and checksum inside the data object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StripeInfo {
    pub offset: u64,
    pub len: u64,
    pub crc: u32,
}

/// The seal: everything recovery needs to validate a striped data object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StripeManifest {
    pub total_len: u64,
    /// CRC32 of the whole data object (belt and braces over the
    /// per-stripe CRCs; lets tools validate without stripe arithmetic).
    pub whole_crc: u32,
    pub stripes: Vec<StripeInfo>,
}

impl StripeManifest {
    /// Build the manifest for `bytes` split into `stripes` balanced
    /// ranges — the exact ranges
    /// [`CheckpointStore::put_striped`](crate::CheckpointStore::put_striped)
    /// writes. Each byte is
    /// checksummed once: `whole_crc` is combined from the stripe CRCs.
    pub fn describe(bytes: &[u8], stripes: usize) -> Self {
        let infos: Vec<StripeInfo> = chunk_ranges(bytes.len(), stripes.max(1))
            .into_iter()
            .map(|r| StripeInfo {
                offset: r.start as u64,
                len: r.len() as u64,
                crc: crc32(&bytes[r]),
            })
            .collect();
        Self {
            total_len: bytes.len() as u64,
            whole_crc: combined_crc(infos.iter().map(|s| (s.crc, s.len))),
            stripes: infos,
        }
    }
}

/// Encode a manifest (layout in the module docs; CRC-sealed like every
/// other blob in the store, so a torn manifest is itself detectable).
pub fn encode_manifest(m: &StripeManifest) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + 2 + 8 + 4 + 4 + m.stripes.len() * 20 + 4);
    buf.extend_from_slice(MAGIC_MANIFEST);
    put_u16(&mut buf, MANIFEST_VERSION);
    put_u64(&mut buf, m.total_len);
    put_u32(&mut buf, m.whole_crc);
    put_u32(&mut buf, m.stripes.len() as u32);
    for s in &m.stripes {
        put_u64(&mut buf, s.offset);
        put_u64(&mut buf, s.len);
        put_u32(&mut buf, s.crc);
    }
    seal(&mut buf);
    buf
}

/// Decode and CRC-validate a manifest blob.
pub fn decode_manifest(bytes: &[u8]) -> Result<StripeManifest, CodecError> {
    let mut cur = Cursor::open(bytes, MAGIC_MANIFEST)?;
    let version = cur.get_u16("manifest truncated")?;
    if version != MANIFEST_VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let total_len = cur.get_u64("manifest truncated")?;
    let whole_crc = cur.get_u32("manifest truncated")?;
    // offset u64 + len u64 + crc u32 per stripe
    let count = cur.get_len_u32(20, "manifest truncated")?;
    let mut stripes = Vec::with_capacity(count);
    for _ in 0..count {
        stripes.push(StripeInfo {
            offset: cur.get_u64("manifest truncated")?,
            len: cur.get_u64("manifest truncated")?,
            crc: cur.get_u32("manifest truncated")?,
        });
    }
    cur.finish()?;
    Ok(StripeManifest {
        total_len,
        whole_crc,
        stripes,
    })
}

/// Validate a data object against its manifest: exact length, contiguous
/// stripes, and every stripe CRC (verified in parallel on the workspace
/// executor — recovery reads are as wide as persist writes). The whole
/// CRC is combined from the stripe CRCs, so each byte is read once.
pub fn validate(data: &[u8], m: &StripeManifest) -> Result<(), CodecError> {
    if data.len() as u64 != m.total_len {
        return Err(CodecError::Corrupt("data object length mismatch"));
    }
    let mut next = 0u64;
    for s in &m.stripes {
        if s.offset != next {
            return Err(CodecError::Corrupt("stripes not contiguous"));
        }
        next = next
            .checked_add(s.len)
            .ok_or(CodecError::Corrupt("stripe extent overflows"))?;
    }
    if next != m.total_len {
        return Err(CodecError::Corrupt("stripes do not cover data object"));
    }
    let crcs: Vec<u32> = m
        .stripes
        .par_iter()
        .with_min_len(1)
        .map(|s| crc32(&data[s.offset as usize..(s.offset + s.len) as usize]))
        .collect();
    let stripes_ok = crcs.iter().zip(&m.stripes).all(|(&c, s)| c == s.crc);
    let whole = combined_crc(crcs.iter().zip(&m.stripes).map(|(&c, s)| (c, s.len)));
    if !stripes_ok || whole != m.whole_crc {
        return Err(CodecError::CrcMismatch);
    }
    Ok(())
}

/// Outcome of a striped data write: total per-stripe retries spent (the
/// caller folds them into `io_retries` whether or not the write landed)
/// and the manifest to seal with on success.
pub struct StripedData {
    pub retries: u64,
    pub result: io::Result<StripeManifest>,
}

/// Write `bytes` under `data_key` as `stripes` concurrent ranged writes,
/// then make the data object visible with `finish_ranged`. Does **not**
/// write the manifest — the caller seals separately (the crash injector
/// sits between the two steps, which is exactly the window the
/// manifest-seal invariant must survive).
///
/// Each stripe retries independently under `retry`; retry counts are
/// summed. Any stripe exhausting its retries fails the whole write with
/// the first error in stripe order.
pub(crate) fn put_striped_data(
    backend: &dyn StorageBackend,
    data_key: &str,
    bytes: &[u8],
    stripes: usize,
    retry: &RetryPolicy,
) -> StripedData {
    let manifest = StripeManifest::describe(bytes, stripes);
    let total = bytes.len() as u64;
    let outcomes: Vec<(u64, io::Result<()>)> = chunk_ranges(bytes.len(), stripes.max(1))
        .into_par_iter()
        .with_min_len(1)
        .map(|r| {
            let rt = with_retry(retry, || {
                backend.put_ranged(data_key, r.start as u64, total, &bytes[r.clone()])
            });
            (rt.retries as u64, rt.result)
        })
        .collect();
    let mut retries: u64 = outcomes.iter().map(|(n, _)| n).sum();
    for (_, res) in outcomes {
        if let Err(e) = res {
            return StripedData {
                retries,
                result: Err(e),
            };
        }
    }
    let fin = with_retry(retry, || backend.finish_ranged(data_key, total));
    retries += fin.retries as u64;
    StripedData {
        retries,
        result: fin.result.map(|()| manifest),
    }
}

/// Crash-injection helper: a power cut midway through the stripe fan-out.
/// Roughly half the stripes land (the last of them torn), nothing is
/// finished, no manifest exists — recovery must never see this object.
pub(crate) fn put_striped_torn(
    backend: &dyn StorageBackend,
    data_key: &str,
    bytes: &[u8],
    stripes: usize,
) {
    let ranges = chunk_ranges(bytes.len(), stripes.max(1));
    let total = bytes.len() as u64;
    let landed = ranges.len().div_ceil(2);
    for (i, r) in ranges.into_iter().take(landed).enumerate() {
        let cut = if i + 1 == landed {
            r.len() / 2
        } else {
            r.len()
        };
        let _ = backend.put_ranged(
            data_key,
            r.start as u64,
            total,
            &bytes[r.start..r.start + cut],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;

    fn blob(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn manifest_roundtrip() {
        let data = blob(1000);
        let m = StripeManifest::describe(&data, 4);
        assert_eq!(m.stripes.len(), 4);
        assert_eq!(m.total_len, 1000);
        let enc = encode_manifest(&m);
        assert_eq!(decode_manifest(&enc).unwrap(), m);
    }

    #[test]
    fn combined_whole_crc_equals_crc_of_whole_object() {
        for (len, stripes) in [(0usize, 1usize), (1, 4), (1000, 1), (1000, 4), (10_007, 7)] {
            let data = blob(len);
            let mut m = StripeManifest::describe(&data, stripes);
            assert_eq!(m.whole_crc, crc32(&data), "len={len} stripes={stripes}");
            assert_eq!(validate(&data, &m), Ok(()));
            m.whole_crc ^= 1;
            assert_eq!(validate(&data, &m), Err(CodecError::CrcMismatch));
        }
    }

    #[test]
    fn manifest_rejects_corruption() {
        let m = StripeManifest::describe(&blob(100), 2);
        let mut enc = encode_manifest(&m);
        let last = enc.len() - 8;
        enc[last] ^= 0xFF;
        assert_eq!(decode_manifest(&enc), Err(CodecError::CrcMismatch));
        enc.truncate(10);
        assert!(decode_manifest(&enc).is_err());
    }

    #[test]
    fn validate_catches_stripe_corruption() {
        let mut data = blob(1000);
        let m = StripeManifest::describe(&data, 4);
        assert_eq!(validate(&data, &m), Ok(()));
        data[600] ^= 0xFF; // inside stripe 2
        assert_eq!(validate(&data, &m), Err(CodecError::CrcMismatch));
        data[600] ^= 0xFF;
        data.truncate(999);
        assert!(validate(&data, &m).is_err());
    }

    #[test]
    fn validate_rejects_overflowing_stripe_extents() {
        // Contiguous by `offset == previous end`, but the second end wraps
        // u64 back to 0 == total_len: an error, never a panic or a bogus
        // slice.
        let m = StripeManifest {
            total_len: 0,
            whole_crc: crc32(&[]),
            stripes: vec![
                StripeInfo {
                    offset: 0,
                    len: u64::MAX,
                    crc: 0,
                },
                StripeInfo {
                    offset: u64::MAX,
                    len: 1,
                    crc: 0,
                },
            ],
        };
        assert!(validate(&[], &m).is_err());
    }

    #[test]
    fn striped_write_then_validate() {
        let b = MemoryBackend::new();
        let data = blob(10_000);
        let out = put_striped_data(&b, "obj.sd", &data, 4, &RetryPolicy::none());
        let m = out.result.unwrap();
        assert_eq!(out.retries, 0);
        let stored = b.get("obj.sd").unwrap();
        assert_eq!(stored, data, "reassembled object is byte-identical");
        assert_eq!(validate(&stored, &m), Ok(()));
    }

    #[test]
    fn single_stripe_degenerate_case_works() {
        let b = MemoryBackend::new();
        let data = blob(100);
        let out = put_striped_data(&b, "one.sd", &data, 1, &RetryPolicy::none());
        assert!(out.result.is_ok());
        assert_eq!(b.get("one.sd").unwrap(), data);
    }

    #[test]
    fn stripe_failure_fails_whole_write_with_summed_retries() {
        use crate::faults::{FaultConfig, FaultyBackend};
        let b = FaultyBackend::new(MemoryBackend::new(), FaultConfig::default());
        b.fail_all_puts();
        let policy = RetryPolicy {
            max_retries: 2,
            base_delay: std::time::Duration::from_micros(10),
            max_delay: std::time::Duration::from_micros(50),
        };
        let data = blob(1000);
        let out = put_striped_data(&b, "x.sd", &data, 4, &policy);
        assert!(out.result.is_err());
        assert_eq!(out.retries, 4 * 2, "every stripe spends its retries");
        assert!(b.inner().get("x.sd").is_err(), "nothing visible");
    }

    #[test]
    fn torn_fanout_leaves_no_visible_object() {
        let b = MemoryBackend::new();
        let data = blob(1000);
        put_striped_torn(&b, "torn.sd", &data, 4);
        assert!(b.get("torn.sd").is_err(), "unfinished object is invisible");
        assert!(b.finish_ranged("torn.sd", 1000).is_err(), "cannot seal");
    }

    #[test]
    fn effective_stripes_respects_min_size() {
        let cfg = StripeCfg {
            stripes: 4,
            min_stripe_bytes: 1000,
        };
        assert_eq!(cfg.effective_stripes(100), 1, "too small to stripe");
        assert_eq!(cfg.effective_stripes(2500), 2);
        assert_eq!(cfg.effective_stripes(100_000), 4, "capped at cfg");
        assert_eq!(StripeCfg::default().effective_stripes(1 << 30), 1);
    }
}
