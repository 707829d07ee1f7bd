//! Hostile length prefixes: CRC-valid blobs of a few dozen bytes whose
//! length fields claim far more than they carry. Every decoder must return
//! an error — never panic ("capacity overflow", an overflowing `n * 4`)
//! and never ask the allocator for more than a small multiple of its
//! input.
//!
//! This is its own test binary on purpose: it installs a global allocator
//! that records the largest single request made on each thread and
//! *refuses* any request above 1 GiB. A decoder that sizes an allocation
//! from an unchecked length field therefore aborts this process (the
//! standard "memory allocation of N bytes failed") instead of touching the
//! host's memory — and an abort here cannot take other test binaries with
//! it.

use lowdiff_storage::codec;
use lowdiff_storage::shard::GlobalManifest;
use lowdiff_storage::stripe;
use lowdiff_util::crc32;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;

/// Forwards to [`System`], recording each thread's largest request and
/// refusing absurd ones.
struct GuardAlloc;

const REFUSE_ABOVE: usize = 1 << 30;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn admit(size: usize) -> bool {
    // try_with: the allocator also runs during thread teardown.
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
    size <= REFUSE_ABOVE
}

unsafe impl GlobalAlloc for GuardAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !admit(layout.size()) {
            return std::ptr::null_mut();
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if !admit(layout.size()) {
            return std::ptr::null_mut();
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if !admit(new_size) {
            return std::ptr::null_mut();
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: GuardAlloc = GuardAlloc;

/// Concatenate `parts` and append their CRC32: the blob passes its seal.
fn sealed(parts: &[&[u8]]) -> Vec<u8> {
    let mut blob = parts.concat();
    let crc = crc32(&blob);
    blob.extend_from_slice(&crc.to_le_bytes());
    blob
}

/// Decode `blob` and require an error reached without any allocation
/// beyond a small multiple of the input.
fn assert_rejected<T: Debug, E: Debug>(
    case: &str,
    blob: &[u8],
    decode: impl FnOnce(&[u8]) -> Result<T, E>,
) {
    PEAK.with(|p| p.set(0));
    let result = decode(blob);
    let peak = PEAK.with(Cell::get);
    assert!(result.is_err(), "{case}: hostile blob decoded: {result:?}");
    assert!(
        peak <= 64 * blob.len() + 4096,
        "{case}: a {}-byte blob drove a {peak}-byte allocation",
        blob.len()
    );
}

#[test]
fn ldfc_psi_beyond_the_blob_errors() {
    // psi = 2^62 + 1: `psi * 4` wraps to 4, and a Ψ-sized Vec overflows
    // capacity. Four trailing bytes make the wrapped length readable.
    let blob = sealed(&[
        b"LDFC",
        &2u16.to_le_bytes(),
        &7u64.to_le_bytes(),
        &((1u64 << 62) + 1).to_le_bytes(),
        &7u64.to_le_bytes(),
        &[0; 4],
    ]);
    assert_rejected("LDFC psi", &blob, codec::decode_full_checkpoint);
    assert_rejected("LDFC psi (model state)", &blob, codec::decode_model_state);
}

#[test]
fn lddb_v3_dense_length_beyond_the_blob_errors() {
    let blob = sealed(&[
        b"LDDB",
        &3u16.to_le_bytes(),
        &1u32.to_le_bytes(),
        &5u64.to_le_bytes(),
        &[2],
        &(u64::MAX / 2).to_le_bytes(),
        &[8, 0, 0, 0, 0, 0, 0, 0, 0],
    ]);
    assert_rejected("LDDB v3 dense", &blob, codec::decode_diff_batch);
    assert_rejected("LDDB v3 dense (inspect)", &blob, codec::inspect_diff_batch);
}

#[test]
fn lddb_batch_count_beyond_the_blob_errors() {
    let blob = sealed(&[b"LDDB", &2u16.to_le_bytes(), &u32::MAX.to_le_bytes()]);
    assert_rejected("LDDB count", &blob, codec::decode_diff_batch);
    assert_rejected("LDDB count (inspect)", &blob, codec::inspect_diff_batch);
}

#[test]
fn lddb_v2_nnz_beyond_the_blob_errors() {
    let blob = sealed(&[
        b"LDDB",
        &2u16.to_le_bytes(),
        &1u32.to_le_bytes(),
        &5u64.to_le_bytes(),
        &[0],
        &u64::MAX.to_le_bytes(),
        &u32::MAX.to_le_bytes(),
    ]);
    assert_rejected("LDDB v2 nnz", &blob, codec::decode_diff_batch);
    assert_rejected("LDDB v2 nnz (inspect)", &blob, codec::inspect_diff_batch);
}

#[test]
fn ldsm_stripe_count_beyond_the_blob_errors() {
    let blob = sealed(&[
        b"LDSM",
        &1u16.to_le_bytes(),
        &1000u64.to_le_bytes(),
        &0u32.to_le_bytes(),
        &u32::MAX.to_le_bytes(),
    ]);
    assert_rejected("LDSM count", &blob, stripe::decode_manifest);
}

#[test]
fn ldgm_counts_beyond_the_blob_error() {
    // Just under the ad-hoc caps LDGM used to apply (2^20 shards, 2^24
    // chunks): both still claim megabytes from a blob of a few dozen bytes.
    let header = |shards: u32| {
        [
            &b"LDGM"[..],
            &1u16.to_le_bytes(),
            &40u64.to_le_bytes(),
            &1000u64.to_le_bytes(),
            &8u32.to_le_bytes(),
            &shards.to_le_bytes(),
        ]
        .concat()
    };
    let blob = sealed(&[&header((1 << 20) - 1)]);
    assert_rejected("LDGM shards", &blob, GlobalManifest::decode);
    let blob = sealed(&[
        &header(1),
        &0u32.to_le_bytes(),
        &((1u32 << 24) - 1).to_le_bytes(),
        &[0; 12],
    ]);
    assert_rejected("LDGM chunks", &blob, GlobalManifest::decode);
}
