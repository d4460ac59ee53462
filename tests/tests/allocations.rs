//! Allocation counts on the encode and hash paths. Encoding a message
//! allocates its one right-sized buffer and nothing else; the CREDIT
//! digest allocates nothing; a BRB payload digest allocates nothing once
//! the thread's scratch buffer has grown.
//!
//! A counting global allocator tallies, per thread, every `alloc`,
//! `alloc_zeroed` and `realloc`: a buffer that doubles its way up shows
//! as several.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use astro_brb::{payload_digest, InstanceId};
use astro_core::batch::{credit_context, DepBatch, DepPayment, DependencyCertificate};
use astro_crypto::Signature;
use astro_types::wire::Wire;
use astro_types::{Keychain, Payment};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged, so `System`'s
// guarantees hold; the count is a const-initialised thread-local without a
// destructor, so touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `alloc` contract, passed on unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `alloc_zeroed` contract, passed on unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, which is `System`'s; the
        // caller's `realloc` contract, passed on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns how many allocations this thread made inside it.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.get();
    let out = std::hint::black_box(f());
    (ALLOCATIONS.get() - before, out)
}

/// A 64-entry Astro II batch in which every payment carries a certificate
/// with real Schnorr proofs from f+1 = 2 of 4 replicas: the shape of an
/// `a2_certs` PREPARE.
fn certified_batch() -> DepBatch<Signature> {
    let chains = Keychain::deterministic_system(b"allocation-counts", 4);
    let entries = (0..64u64)
        .map(|i| {
            let bundle = vec![Payment::new(100 + i, 0u64, i, 10u64)];
            let context = credit_context(&bundle);
            let proofs = chains[..2].iter().map(|kc| (kc.id(), kc.sign(&context))).collect();
            DepPayment {
                payment: Payment::new(i, 1u64, 200 + i, 5u64),
                deps: vec![DependencyCertificate { bundle, proofs }],
            }
        })
        .collect();
    DepBatch { entries }
}

#[test]
fn to_wire_bytes_allocates_exactly_once() {
    let batch = certified_batch();
    let (count, bytes) = allocations(|| batch.to_wire_bytes());
    assert_eq!(count, 1, "one right-sized buffer, no growth");
    assert_eq!(bytes.len(), batch.encoded_len());
    assert_eq!(bytes.capacity(), bytes.len());
}

#[test]
fn credit_context_allocates_nothing() {
    let bundle: Vec<Payment> = (0..64u64).map(|i| Payment::new(i, 0u64, i + 1, 3u64)).collect();
    let (count, _) = allocations(|| credit_context(&bundle));
    assert_eq!(count, 0);
    let (count, _) = allocations(|| credit_context(&bundle[..1]));
    assert_eq!(count, 0);
}

#[test]
fn payload_digest_allocates_nothing_after_warm_up() {
    let batch = certified_batch();
    let id = InstanceId { source: 2, tag: 7 };
    let first = payload_digest(id, &batch);
    let (count, again) = allocations(|| payload_digest(id, &batch));
    assert_eq!(count, 0, "the scratch buffer is reused");
    assert_eq!(again, first);
    // A smaller payload fits the grown buffer too.
    let small = DepBatch { entries: batch.entries[..3].to_vec() };
    let (count, _) = allocations(|| payload_digest(id, &small));
    assert_eq!(count, 0);
}
