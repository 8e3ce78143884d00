//! Ablation benchmarks for the design choices called out in the
//! `cpd_core::gibbs` module docs: the cost of the full soft bilinear
//! diffusion factor vs the hard-pair approximation used during topic
//! resampling, and the evaluation metrics' own cost.

use cpd_core::{Cpd, CpdConfig, DiffusionPredictor, UserFeatures};
use cpd_datagen::{generate, GenConfig, Scale};
use cpd_eval::{auc, average_conductance};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use social_graph::DocId;

fn bench_diffusion_scoring(c: &mut Criterion) {
    let (g, _) = generate(&GenConfig::twitter_like(Scale::Tiny));
    let cfg = CpdConfig {
        em_iters: 2,
        gibbs_sweeps: 1,
        nu_iters: 10,
        seed: 3,
        ..CpdConfig::experiment(8, 12)
    };
    let fit = Cpd::new(cfg.clone()).unwrap().fit(&g);
    let features = UserFeatures::compute(&g);
    let pred = DiffusionPredictor::new(&fit.model, &features, &cfg);
    let link = &g.diffusions()[0];
    let author = g.doc(link.src).author;

    let mut group = c.benchmark_group("diffusion_scoring");
    group.sample_size(30);
    // Full Eq. 18: topic posterior + soft bilinear form over all topics.
    group.bench_function("eq18_full_soft", |b| {
        b.iter(|| black_box(pred.score(&g, author, link.dst, link.at)));
    });
    // Membership-dot shortcut (the "no heterogeneity" scoring path).
    group.bench_function("membership_dot", |b| {
        b.iter(|| black_box(pred.friendship_score(author, g.doc(link.dst).author)));
    });
    // Topic posterior alone (the per-document part of Eq. 18).
    group.bench_function("doc_topic_posterior", |b| {
        b.iter(|| black_box(pred.doc_topic_posterior(&g, black_box(DocId(0)))));
    });
    group.finish();
}

fn bench_metrics(c: &mut Criterion) {
    let (g, truth) = generate(&GenConfig::twitter_like(Scale::Tiny));
    let mut group = c.benchmark_group("metrics");
    group.sample_size(30);
    group.bench_function("conductance_top5", |b| {
        b.iter(|| black_box(average_conductance(&g, black_box(&truth.pi), 5)));
    });
    let pos: Vec<f64> = (0..500).map(|i| 0.5 + (i % 100) as f64 / 250.0).collect();
    let neg: Vec<f64> = (0..500).map(|i| 0.3 + (i % 100) as f64 / 300.0).collect();
    group.bench_function("auc_1000", |b| {
        b.iter(|| black_box(auc(black_box(&pos), black_box(&neg))));
    });
    group.finish();
}

criterion_group!(benches, bench_diffusion_scoring, bench_metrics);
criterion_main!(benches);
