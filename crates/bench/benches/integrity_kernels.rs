//! Throughput of the integrity kernels a checkpoint and a restart push
//! every image byte through: `crc32` (section, whole-file and manifest
//! checks), `chunk::chunk_id` (the content address of every chunk the
//! store writes), `chunk::chunk_id_v1` (SHA-256, the read-side verifier of
//! version 1 recipes), `chunk::split` (gear-hash content-defined chunking)
//! and `chunk::chunk_payload` (the write path's one pass: split, key and
//! payload CRC per chunk), each over one 2 MiB buffer — the image size of
//! the benchmark's `narrow_*` workloads. `chunk_id` must not read below
//! `crc32`: the key is meant to be the cheapest pass, not the dearest.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use splitproc::{chunk, crc32, ChunkParams};
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
    g.bench_function("chunk_id", |b| b.iter(|| chunk::chunk_id(black_box(&buf))));
    g.bench_function("chunk_id_v1", |b| {
        b.iter(|| chunk::chunk_id_v1(black_box(&buf)))
    });
    g.bench_function("split", |b| {
        b.iter(|| chunk::split(black_box(&buf), params).len())
    });
    g.bench_function("chunk_payload", |b| {
        b.iter(|| chunk::chunk_payload(black_box(&buf), params).1)
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
