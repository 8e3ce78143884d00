//! Golden fingerprints of the Gibbs sampler's draws.
//!
//! The `GOLDEN` fingerprints below are FNV-1a hashes of the full
//! `doc_community`/`doc_topic` assignment vectors captured from this
//! repo *before* the cached/sparse hot path landed (same configs, same
//! corpora, same seeds), plus bit-pattern hashes of the fitted `ν` and
//! `η`. The sampler must keep reproducing them, serially and under the
//! sharded pool. The per-sweep identity with the dense math the cache
//! replaced is checked by the reference sweep in `gibbs.rs`'s unit
//! tests, since that reference is crate-private.

use cpd_core::{Cpd, CpdConfig, FitDiagnostics, SamplerStats};
use cpd_datagen::{generate, GenConfig, Scale};

/// FNV-1a over assignment vectors — the exact hash the pre-refactor
/// fingerprints were captured with.
fn fnv(xs: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &x in xs {
        h ^= x as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over the `f64::to_bits` patterns of fitted parameters, so the
/// fingerprint changes on any bit of the last M-step's output.
fn fnv_f64(xs: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &x in xs {
        h ^= x.to_bits();
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The configuration the fingerprints were captured under: 2 EM
/// iterations × 2 sweeps, seed 11; at `threads = Some(2)` the E-step
/// runs on the sharded worker pool.
fn golden_config(threads: Option<usize>) -> CpdConfig {
    CpdConfig {
        em_iters: 2,
        gibbs_sweeps: 2,
        nu_iters: 10,
        threads,
        seed: 11,
        ..CpdConfig::new(4, 6)
    }
}

/// (corpus, threads, comm fingerprint, topic fingerprint, ν fingerprint,
/// η fingerprint). The draw fingerprints were captured from the
/// pre-refactor sampler at commit `a0c7aa2`'s tree; the ν/η columns
/// (bit patterns of the final `model.nu` / `model.eta`) were captured
/// while the 2-thread fit still ran its M-step on the worker pool.
type Golden = (&'static str, Option<usize>, u64, u64, u64, u64);
const GOLDEN: [Golden; 4] = [
    (
        "twitter",
        None,
        0x654af23a55645f42,
        0x13f115262043a408,
        0xd942cfff07a43e23,
        0x1f087acaf11b3a67,
    ),
    (
        "twitter",
        Some(2),
        0xe52acaafafbb24fd,
        0x844a6304427fa59f,
        0x9837ca827e431503,
        0x5b03654761e2f3d8,
    ),
    (
        "dblp",
        None,
        0x5119ffff639d50b4,
        0xa31dd8081ab7d707,
        0x66db2b810f5d933d,
        0x59c70931c18a4bb6,
    ),
    (
        "dblp",
        Some(2),
        0x63c9a9e038e9749a,
        0x263a66aa96791c55,
        0x2b0d0d67a69a8f12,
        0x884c1832c9c10d45,
    ),
];

fn corpus(name: &str) -> social_graph::SocialGraph {
    let gen = match name {
        "twitter" => GenConfig::twitter_like(Scale::Tiny),
        "dblp" => GenConfig::dblp_like(Scale::Tiny),
        other => panic!("unknown corpus {other}"),
    };
    generate(&gen).0
}

/// The sparse prior path ran and its row accounting is sane: rows were
/// visited, and their mean occupancy (perfbench's
/// `gibbs.row_occupancy`) lies in (0, 1].
fn assert_sparse_rows_accounted(diagnostics: &FitDiagnostics, what: &str) {
    let stats = diagnostics
        .sampler_stats
        .iter()
        .fold(SamplerStats::default(), |mut acc, s| {
            acc.merge(s);
            acc
        });
    assert!(stats.sparse_rows > 0, "{what}: sparse path never ran");
    let occ = stats.avg_row_occupancy().expect("rows were scanned");
    assert!(
        occ > 0.0 && occ <= 1.0,
        "{what}: row occupancy {occ} outside (0, 1]"
    );
}

/// The sampler (cached log-counts + sparse decomposition) reproduces
/// the pre-refactor draws bit for bit on both corpora, serially and
/// under the 2-thread sharded pool, and accounts its sparse rows.
#[test]
fn exact_reproduces_pre_refactor_draws() {
    for (name, threads, comm, topic, nu, eta) in GOLDEN {
        let g = corpus(name);
        let fit = Cpd::new(golden_config(threads)).unwrap().fit(&g);
        assert_eq!(
            fnv(&fit.model.doc_community),
            comm,
            "{name} threads={threads:?}: community draws diverged from the pre-refactor sampler"
        );
        assert_eq!(
            fnv(&fit.model.doc_topic),
            topic,
            "{name} threads={threads:?}: topic draws diverged from the pre-refactor sampler"
        );
        assert_eq!(
            fnv_f64(&fit.model.nu),
            nu,
            "{name} threads={threads:?}: fitted nu diverged"
        );
        assert_eq!(
            fnv_f64(fit.model.eta.as_slice()),
            eta,
            "{name} threads={threads:?}: fitted eta diverged"
        );
        assert_sparse_rows_accounted(&fit.diagnostics, &format!("{name} threads={threads:?}"));
    }
}
