//! Throughput of the kernels a checkpoint and a restart push every image
//! byte through, each over one 2 MiB buffer — the image size of the
//! benchmark's `narrow_*` workloads:
//!
//! * `crc32` — section and manifest checks — and the same kernel on the
//!   `wide_small` image size (`crc32_1k`, under the four-lane threshold,
//!   so the single-lane loop) and the average chunk size (`crc32_16k`);
//! * `chunk::chunk_id` (the content address of every chunk the store
//!   writes and verifies), `chunk::split` (gear-hash content-defined
//!   chunking) and `chunk::chunk_payload` (the chunked write path's one
//!   pass: split and key per chunk), unguided and — as
//!   `chunk_payload_guided` — with 2 % of the buffer rewritten and the
//!   unedited buffer's refs as the guide, which is what a `narrow_static`
//!   round did before chunk keys were reused — and, as
//!   `chunk_payload_reused`, the same pass told which 64 KiB blocks the
//!   edit left alone, whose guided spans take the guide's keys unkeyed:
//!   what a `narrow_static` round does from a rank's kept buffer;
//! * `upper_encode` / `upper_decode` — an `UpperHalf` of one 2 MiB segment
//!   through the codec's byte path (a copy);
//! * `image_to_bytes` / `image_from_bytes` — the flat image file built and
//!   read back (one CRC pass and one copy each): a decoded image's
//!   sections copied into a fresh `ImageBuf`, every block of it stale, and
//!   sealed there — the routine a rank's kept buffer goes through — and
//!   the file read into the buffer a restarted rank restores from
//!   (`ImageBuf::try_from` over a copy of the file, the copy standing in
//!   for the read): its header decoded in place, every block checksummed
//!   in one pass, nothing carved out or copied;
//! * `image_encode_into` — what a rank does instead of `image_to_bytes`:
//!   the `UpperHalf` and a metadata value written over the image a kept
//!   buffer holds (one compare-or-copy pass) and sealed there, checksumming
//!   only the blocks that changed — here none, as in a round that rewrote
//!   nothing;
//! * `image_encode_into_edit` — the same with a different 2 % window of
//!   the 2 MiB section rewritten through `segment_mut` before each
//!   iteration: the freeze's compare path, which compares every block;
//! * `image_encode_saved_edit` — the same edit arriving as a save
//!   (`UpperHalf::write_segment`, untimed: its compare is application
//!   time), then the rank's tracked freeze, which skips the windows no save
//!   changed: what a `narrow_flat` round's freeze does;
//! * `image_save_encode_edit` — the same round with the save timed too:
//!   what the round costs the rank in all, its compare moved from the
//!   freeze to the save.
//!
//! `crc32_combine` is reported as time per call, at 1 KiB and 2 MiB: it is
//! what the whole-file CRC costs now that no pass is made for it.
//!
//! Rules of thumb: `chunk_id` must not read below `crc32` (the key is
//! meant to be the cheapest pass, not the dearest); `upper_encode` and
//! `upper_decode` must read above `crc32` (they only copy); and
//! `image_to_bytes` must stay within 1.5 × of `crc32` plus one copy
//! (`upper_encode`) — beyond that a second pass has crept back in; and
//! `crc32` at 2 MiB reading under 1.8 × `crc32_1k` means the lanes are
//! gone (one lane is latency-bound at the `crc32_1k` rate, four overlap);
//! and `image_encode_into` at least `image_to_bytes`' rate and
//! `image_encode_into_edit` at least 2 × it — the rank's path is one
//! compare-or-copy pass and the seal checksums only the changed blocks, so
//! below that the block table is being missed; and `image_encode_saved_edit`
//! at least 3 × `image_encode_into_edit` (3.6–4.4 × in four runs on a
//! 2-vCPU host: ≈ 50–70 µs against ≈ 195–260 µs) — the tracked freeze
//! compares only the one or two windows the save changed, so below that
//! it is comparing clean windows again; and `image_save_encode_edit`
//! at least 0.8 × `image_encode_into_edit` (0.93–1.07 × in four runs on
//! the same host: the save's compare is the one the freeze no longer
//! makes, moved, not added), so below that the save is comparing more than
//! the freeze used to; and `chunk_payload_guided` at least
//! 2.5 × `chunk_payload` — a guided pass gear-hashes only the changed
//! chunks, below that the guide is being missed; and
//! `chunk_payload_reused` at least 3 × `chunk_payload_guided` — it keys
//! only the chunks touching the two rewritten blocks, about a tenth of the
//! bytes the guided pass keys, so below that the clean blocks are being
//! keyed again.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use splitproc::{
    chunk, crc32, crc32_combine, ChunkParams, CkptImage, Decode, Encode, ImageBuf, UpperHalf,
};
use std::hint::black_box;

const LEN: usize = 2 << 20;

fn bench(c: &mut Criterion) {
    let mut state = 0x5eed_u64;
    let buf: Vec<u8> = (0..LEN)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect();
    let params = ChunkParams::default();
    let mut g = c.benchmark_group("integrity_kernels");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(LEN as u64));
    g.bench_function("crc32", |b| b.iter(|| crc32(black_box(&buf))));
    for (name, len) in [("crc32_1k", 1usize << 10), ("crc32_16k", 16 << 10)] {
        // As many bytes per sample as the 2 MiB cases, so timer overhead
        // does not show.
        g.sample_size(20 * LEN / len);
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(name, |b| b.iter(|| crc32(black_box(&buf[..len]))));
    }
    g.sample_size(20);
    g.throughput(Throughput::Bytes(LEN as u64));
    g.bench_function("chunk_id", |b| b.iter(|| chunk::chunk_id(black_box(&buf))));
    g.bench_function("split", |b| {
        b.iter(|| chunk::split(black_box(&buf), params).len())
    });
    g.bench_function("chunk_payload", |b| {
        b.iter(|| {
            chunk::chunk_payload(black_box(&buf), params, &[], |_| false)
                .chunks
                .len()
        })
    });
    // A `narrow_static` round: 2 % of the buffer rewritten, the previous
    // recipe's refs as the guide.
    let guide: Vec<chunk::ChunkRef> = chunk::chunk_payload(&buf, params, &[], |_| false)
        .chunks
        .iter()
        .map(|(cref, _)| *cref)
        .collect();
    let mut edited = buf.clone();
    for b in &mut edited[LEN / 2..LEN / 2 + LEN / 50] {
        *b ^= 0x5a;
    }
    g.bench_function("chunk_payload_guided", |b| {
        b.iter(|| {
            chunk::chunk_payload(black_box(&edited), params, &guide, |_| false)
                .chunks
                .len()
        })
    });
    // The same round from a rank's kept buffer: spans in the 64 KiB blocks
    // the edit left alone take the guide's keys.
    let block = 64 << 10;
    let stale = LEN / 2 / block * block..(LEN / 2 + LEN / 50).div_ceil(block) * block;
    let unchanged =
        |span: std::ops::Range<usize>| span.end <= stale.start || span.start >= stale.end;
    g.bench_function("chunk_payload_reused", |b| {
        b.iter(|| {
            chunk::chunk_payload(black_box(&edited), params, &guide, unchanged)
                .chunks
                .len()
        })
    });
    let mut upper = UpperHalf::new();
    upper.write_segment("state", buf.clone());
    let encoded = upper.to_bytes();
    g.bench_function("upper_encode", |b| {
        b.iter(|| black_box(&upper).to_bytes().len())
    });
    g.bench_function("upper_decode", |b| {
        b.iter(|| UpperHalf::from_bytes(black_box(&encoded)).map(|u| u.len()))
    });
    let image = CkptImage {
        rank: 0,
        world_size: 8,
        round: 1,
        upper: encoded,
        meta: buf[..1024].to_vec(),
    };
    let file = image.to_bytes();
    g.bench_function("image_to_bytes", |b| {
        b.iter(|| black_box(&image).to_bytes_with_crc().1)
    });
    g.bench_function("image_from_bytes", |b| {
        b.iter(|| ImageBuf::try_from(black_box(&file).clone()).map(|image| image.len()))
    });
    let meta = buf[..1024].to_vec();
    let mut kept = ImageBuf::default();
    g.bench_function("image_encode_into", |b| {
        b.iter(|| {
            let head = image.head();
            head.encode_into(&mut kept, black_box(&upper), &meta)
                .seal()
                .1
        })
    });
    // Fifty 2 % windows, a different one flipped before each iteration.
    let (window, mut next) = (LEN / 50, 0);
    g.bench_function("image_encode_into_edit", |b| {
        b.iter(|| {
            let at = next % 50 * window;
            next += 7;
            for byte in &mut upper.segment_mut("state")[at..at + window] {
                *byte ^= 0x5a;
            }
            let head = image.head();
            head.encode_into(&mut kept, black_box(&upper), &meta)
                .seal()
                .1
        })
    });
    // The same edits as saves: the application's copy of the segment, a
    // window rewritten, saved back (untimed); then the tracked freeze. The
    // untimed warm-up call is the first tracked freeze, which turns the
    // tracking on.
    let upper = std::cell::RefCell::new(upper);
    g.bench_function("image_encode_saved_edit", |b| {
        b.iter_batched(
            || {
                let at = next % 50 * window;
                next += 7;
                let mut upper = upper.borrow_mut();
                let mut saved = upper.segment("state").unwrap_or_default().to_vec();
                for byte in &mut saved[at..at + window] {
                    *byte ^= 0x5a;
                }
                upper.write_segment("state", saved);
            },
            |()| {
                let head = image.head();
                let mut upper = upper.borrow_mut();
                head.encode_into(&mut kept, black_box(&mut *upper), &meta)
                    .seal()
                    .1
            },
            BatchSize::LargeInput,
        )
    });
    // The same round with the save timed too: its compare is the work the
    // freeze no longer does, so this against `image_encode_into_edit` is
    // the total a round costs the rank, save and freeze.
    g.bench_function("image_save_encode_edit", |b| {
        b.iter_batched(
            || {
                let at = next % 50 * window;
                next += 7;
                let mut saved = upper.borrow().segment("state").unwrap_or_default().to_vec();
                for byte in &mut saved[at..at + window] {
                    *byte ^= 0x5a;
                }
                saved
            },
            |saved| {
                let head = image.head();
                let mut upper = upper.borrow_mut();
                upper.write_segment("state", saved);
                head.encode_into(&mut kept, black_box(&mut *upper), &meta)
                    .seal()
                    .1
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();

    let mut g = c.benchmark_group("crc32_combine");
    for (name, len) in [("1KiB", 1u64 << 10), ("2MiB", 2 << 20)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                crc32_combine(
                    black_box(0xDEAD_BEEF),
                    black_box(0x1234_5678),
                    black_box(len),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
