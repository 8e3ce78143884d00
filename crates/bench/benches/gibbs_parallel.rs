//! Parallel E-step benchmarks: whole fits of the sharded delta-merge
//! runtime over a threads × graph-size matrix (the Fig. 10(b) speedup
//! claim in micro form), plus a paper-shaped corpus where the `Z × W`
//! word-topic matrix dominates the count state.
//!
//! Setting `CPD_BENCH_SMOKE=1` runs a single-sweep, tiny-corpus version
//! of every benchmark (distinct `_smoke` group names so recorded
//! `BENCH_*.json` results are not clobbered) — CI uses this to keep the
//! bench binaries from rotting.

use cpd_core::{Cpd, CpdConfig};
use cpd_datagen::{generate, GenConfig, Scale};
use criterion::{criterion_group, criterion_main, Criterion};

/// Fixed thread ladder: cells compare *work done per sweep*, which
/// holds with time-sliced threads too, so the ladder is not capped at
/// `available_parallelism`.
const THREAD_LADDER: [usize; 4] = [1, 2, 4, 8];

fn smoke() -> bool {
    std::env::var_os("CPD_BENCH_SMOKE").is_some_and(|v| v != "0")
}

/// Suffix group names in smoke mode so `BENCH_<group>.json` files from
/// real runs are preserved.
fn group_name(base: &str) -> String {
    if smoke() {
        format!("{base}_smoke")
    } else {
        base.to_string()
    }
}

fn bench_cfg(c: usize, z: usize, threads: usize) -> CpdConfig {
    let (em_iters, gibbs_sweeps) = if smoke() { (1, 1) } else { (4, 2) };
    CpdConfig {
        em_iters,
        gibbs_sweeps,
        nu_iters: 10,
        threads: Some(threads),
        seed: 17,
        ..CpdConfig::experiment(c, z)
    }
}

/// Threads × graph-size matrix.
fn bench_thread_size_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group(group_name("gibbs_parallel_matrix"));
    group.sample_size(if smoke() { 2 } else { 10 });
    let sizes: &[(&str, Scale)] = if smoke() {
        &[("tiny", Scale::Tiny)]
    } else {
        &[("tiny", Scale::Tiny), ("small", Scale::Small)]
    };
    let ladder: &[usize] = if smoke() { &[2] } else { &THREAD_LADDER };
    for &(size_name, scale) in sizes {
        let (g, _) = generate(&GenConfig::twitter_like(scale));
        for &threads in ladder {
            group.bench_function(format!("delta_{size_name}_x{threads}"), |b| {
                let trainer = Cpd::new(bench_cfg(8, 12, threads)).unwrap();
                b.iter(|| trainer.fit(&g));
            });
        }
    }
    group.finish();
}

/// Delta-merge fits at 1/2/4/8 threads on the paper-shaped corpus.
///
/// Shaped like the paper's real settings, where the `Z × W` word-topic
/// matrix dominates the count state (the paper runs `|Z| = 150` over a
/// ~25k-term stemmed Twitter vocabulary): the delta runtime's sync
/// traffic tracks the tokens that actually moved and shrinks as the
/// chain mixes.
fn bench_estep_runtime(c: &mut Criterion) {
    let gen = paper_shaped_corpus();
    let (g, _) = generate(&gen);
    let mut group = c.benchmark_group(group_name("estep_runtime"));
    group.sample_size(if smoke() { 2 } else { 10 });
    let ladder: &[usize] = if smoke() { &[2] } else { &THREAD_LADDER };
    for &threads in ladder {
        group.bench_function(format!("delta_merge_x{threads}"), |b| {
            let trainer = Cpd::new(bench_cfg(8, 50, threads)).unwrap();
            b.iter(|| trainer.fit(&g));
        });
    }
    group.finish();
}

/// The paper-shaped corpus of the `estep_runtime` bench (big vocab, the
/// word-topic matrix dominating the count state).
fn paper_shaped_corpus() -> GenConfig {
    if smoke() {
        GenConfig {
            vocab_size: 2_000,
            n_users: 40,
            mean_docs_per_user: 3.0,
            n_diffusions: 40,
            ..GenConfig::twitter_like(Scale::Tiny)
        }
    } else {
        GenConfig {
            vocab_size: 60_000,
            n_users: 300,
            mean_docs_per_user: 4.0,
            n_diffusions: 400,
            ..GenConfig::twitter_like(Scale::Small)
        }
    }
}

criterion_group!(benches, bench_thread_size_matrix, bench_estep_runtime);
criterion_main!(benches);
