//! Delta-merge correctness of the sharded E-step, through the public
//! fit API: after every sweep the folded counts must equal a full
//! rebuild from the merged assignments, fits must be reproducible at
//! every thread count, and the sharded runtime must land in the same
//! quality regime as the serial one.
//!
//! (The per-sweep count equality itself is asserted inside
//! `WorkerPool::sweep` via `debug_assert!(check_consistency)`, which is
//! active in these test builds; the fits below therefore exercise it on
//! every sweep of every case. The draw-for-draw comparison against the
//! clone-and-rebuild reference sweep lives in the `parallel` unit
//! tests, since that reference is crate-private.)

use cpd_core::{Cpd, CpdConfig};
use cpd_eval::nmi;
use proptest::prelude::*;
use social_graph::{DocId, Document, SocialGraphBuilder, UserId, WordId};

fn fit_config(c: usize, z: usize, threads: Option<usize>) -> CpdConfig {
    CpdConfig {
        em_iters: 2,
        gibbs_sweeps: 2,
        nu_iters: 10,
        threads,
        seed: 11,
        ..CpdConfig::new(c, z)
    }
}

/// Fit twice at `threads` and assert the two fits are identical, that
/// the sharded runtime ran (one merge/snapshot record per sweep), and
/// that every assignment is in range.
fn assert_sharded_fit_is_sound(g: &social_graph::SocialGraph, c: usize, z: usize, threads: usize) {
    let a = Cpd::new(fit_config(c, z, Some(threads))).unwrap().fit(g);
    let b = Cpd::new(fit_config(c, z, Some(threads))).unwrap().fit(g);
    assert_eq!(
        a.model.doc_community, b.model.doc_community,
        "communities not reproducible at {threads} threads"
    );
    assert_eq!(
        a.model.doc_topic, b.model.doc_topic,
        "topics not reproducible at {threads} threads"
    );
    assert_eq!(a.model.nu, b.model.nu);
    assert_eq!(a.model.pi, b.model.pi);
    assert!(a.model.doc_community.iter().all(|&k| (k as usize) < c));
    assert!(a.model.doc_topic.iter().all(|&k| (k as usize) < z));
    assert!(a.model.nu.iter().all(|v| v.is_finite()));
    // Only the sharded runtime reports merge/snapshot diagnostics, one
    // per sweep.
    assert!(!a.diagnostics.merge_seconds.is_empty());
    assert_eq!(
        a.diagnostics.merge_seconds.len(),
        a.diagnostics.snapshot_seconds.len()
    );
    assert_eq!(
        a.diagnostics.merge_seconds.len(),
        a.diagnostics.changed_docs.len()
    );
}

#[test]
fn runtimes_agree_on_synthetic_graph_at_2_and_4_threads() {
    let gen = cpd_datagen::GenConfig::twitter_like(cpd_datagen::Scale::Tiny);
    let (g, truth) = cpd_datagen::generate(&gen);
    // Recovery is judged on full-length fits; the short fits only
    // check the sharded runtime's mechanics.
    let quality_config = |threads| CpdConfig {
        threads,
        seed: 13,
        ..CpdConfig::experiment(gen.n_communities, gen.n_topics)
    };
    let serial = Cpd::new(quality_config(None)).unwrap().fit(&g);
    // Serial fits never touch the sharded machinery.
    assert!(serial.diagnostics.merge_seconds.is_empty());
    assert!(serial.diagnostics.snapshot_seconds.is_empty());
    let nmi_serial = nmi(
        &serial.model.dominant_communities(),
        &truth.dominant_community,
    );
    for threads in [2, 4] {
        assert_sharded_fit_is_sound(&g, 4, 6, threads);
        let sharded = Cpd::new(quality_config(Some(threads))).unwrap().fit(&g);
        let nmi_sharded = nmi(
            &sharded.model.dominant_communities(),
            &truth.dominant_community,
        );
        assert!(
            (nmi_serial - nmi_sharded).abs() < 0.35,
            "{threads} threads: NMI serial {nmi_serial} vs sharded {nmi_sharded}"
        );
        assert!(
            nmi_sharded > 0.3,
            "{threads} threads: sharded recovery collapsed to NMI {nmi_sharded}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On arbitrary small graphs (which can hold isolated users and
    /// leave worker groups empty), a fit at 1, 2 and 4 threads (a)
    /// never panics, (b) passes the per-sweep counts == rebuild debug
    /// assertion, and (c) at >1 thread is reproducible run to run.
    #[test]
    fn delta_merge_equals_rebuild_on_random_graphs(
        n_users in 2usize..8,
        docs in prop::collection::vec(
            (0u32..8, prop::collection::vec(0u32..6, 1..5), 0u32..4),
            2..18,
        ),
        friends in prop::collection::vec((0u32..8, 0u32..8), 0..12),
        diffs in prop::collection::vec((0u32..18, 0u32..18), 0..8),
        c in 1usize..4,
        z in 1usize..4,
    ) {
        let mut b = SocialGraphBuilder::new(n_users, 6);
        let mut n_docs = 0u32;
        for (author, words, t) in &docs {
            b.add_document(Document::new(
                UserId(author % n_users as u32),
                words.iter().map(|&w| WordId(w)).collect(),
                *t,
            ));
            n_docs += 1;
        }
        for (u, v) in &friends {
            let (u, v) = (u % n_users as u32, v % n_users as u32);
            if u != v {
                b.add_friendship(UserId(u), UserId(v));
            }
        }
        for (i, j) in &diffs {
            let (i, j) = (i % n_docs, j % n_docs);
            if i != j {
                b.add_diffusion(DocId(i), DocId(j), 0);
            }
        }
        let g = b.build().unwrap();
        // threads = 1 goes through the serial path; 2 and 4 through the
        // sharded pool.
        let serial = Cpd::new(fit_config(c, z, Some(1))).unwrap().fit(&g);
        prop_assert!(serial.model.nu.iter().all(|v| v.is_finite()));
        prop_assert!(serial.diagnostics.merge_seconds.is_empty());
        for threads in [2usize, 4] {
            assert_sharded_fit_is_sound(&g, c, z, threads);
        }
    }
}
