//! End-to-end recovery checks against the planted ground truth — the
//! validation the original paper could not run on real data, since its
//! crawls carry no planted communities.

use cpd_core::{Cpd, CpdConfig, DiffusionPredictor, UserFeatures};
use cpd_datagen::{generate, GenConfig, Scale};
use cpd_eval::{auc, nmi};
use cpd_prob::rng::seeded_rng;
use rand::Rng;
use social_graph::{DocId, UserId};

fn fit_config(c: usize, z: usize, seed: u64) -> CpdConfig {
    CpdConfig {
        seed,
        ..CpdConfig::experiment(c, z)
    }
}

#[test]
fn recovers_planted_communities_better_than_chance() {
    let gen = GenConfig::twitter_like(Scale::Small);
    let (g, truth) = generate(&gen);
    let fit = Cpd::new(fit_config(gen.n_communities, gen.n_topics, 3))
        .unwrap()
        .fit(&g);
    let detected = fit.model.dominant_communities();
    let score = nmi(&detected, &truth.dominant_community);
    // Random labels give NMI ≈ 0; require substantial recovery.
    let mut rng = seeded_rng(1);
    let random: Vec<usize> = (0..g.n_users())
        .map(|_| rng.gen_range(0..gen.n_communities))
        .collect();
    let baseline = nmi(&random, &truth.dominant_community);
    assert!(
        score > 0.5 && score > baseline + 0.3,
        "NMI {score} vs random {baseline}"
    );
}

#[test]
fn friendship_auc_beats_chance() {
    let gen = GenConfig::twitter_like(Scale::Small);
    let (g, _) = generate(&gen);
    let fit = Cpd::new(fit_config(gen.n_communities, gen.n_topics, 4))
        .unwrap()
        .fit(&g);
    let features = UserFeatures::compute(&g);
    let cfg = fit_config(gen.n_communities, gen.n_topics, 4);
    let pred = DiffusionPredictor::new(&fit.model, &features, &cfg);
    let mut rng = seeded_rng(2);
    let pos: Vec<f64> = g
        .friendships()
        .iter()
        .take(500)
        .map(|l| pred.friendship_score(l.from, l.to))
        .collect();
    let neg: Vec<f64> = (0..500)
        .map(|_| {
            let u = UserId(rng.gen_range(0..g.n_users()) as u32);
            let v = UserId(rng.gen_range(0..g.n_users()) as u32);
            pred.friendship_score(u, v)
        })
        .collect();
    let score = auc(&pos, &neg).unwrap();
    assert!(score > 0.6, "friendship AUC {score}");
}

#[test]
fn diffusion_auc_beats_chance() {
    let gen = GenConfig::twitter_like(Scale::Small);
    let (g, _) = generate(&gen);
    let fit = Cpd::new(fit_config(gen.n_communities, gen.n_topics, 5))
        .unwrap()
        .fit(&g);
    let features = UserFeatures::compute(&g);
    let cfg = fit_config(gen.n_communities, gen.n_topics, 5);
    let pred = DiffusionPredictor::new(&fit.model, &features, &cfg);
    let mut rng = seeded_rng(3);
    let pos: Vec<f64> = g
        .diffusions()
        .iter()
        .take(400)
        .map(|l| pred.score(&g, g.doc(l.src).author, l.dst, l.at))
        .collect();
    let neg: Vec<f64> = (0..400)
        .map(|_| {
            let u = UserId(rng.gen_range(0..g.n_users()) as u32);
            let d = DocId(rng.gen_range(0..g.n_docs()) as u32);
            pred.score(&g, u, d, rng.gen_range(0..g.n_timestamps()))
        })
        .collect();
    let score = auc(&pos, &neg).unwrap();
    assert!(score > 0.6, "diffusion AUC {score}");
}

#[test]
fn recovered_eta_correlates_with_planted_eta() {
    let gen = GenConfig::dblp_like(Scale::Small);
    let (g, truth) = generate(&gen);
    let fit = Cpd::new(fit_config(gen.n_communities, gen.n_topics, 6))
        .unwrap()
        .fit(&g);
    // Compare topic-aggregated community-pair strengths up to the label
    // permutation: match detected to planted communities by user overlap.
    let detected = fit.model.dominant_communities();
    let c_n = gen.n_communities;
    // detected label -> best planted label by co-occurrence.
    let mut overlap = vec![vec![0usize; c_n]; c_n];
    for u in 0..g.n_users() {
        overlap[detected[u]][truth.dominant_community[u]] += 1;
    }
    let mapping: Vec<usize> = (0..c_n)
        .map(|d| {
            overlap[d]
                .iter()
                .enumerate()
                .max_by_key(|&(_, &v)| v)
                .map(|(t, _)| t)
                .unwrap()
        })
        .collect();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for c in 0..c_n {
        for c2 in 0..c_n {
            let fitted: f64 = (0..gen.n_topics).map(|z| fit.model.eta.at(c, c2, z)).sum();
            let planted: f64 = (0..gen.n_topics)
                .map(|z| truth.eta_at(mapping[c], mapping[c2], z))
                .sum();
            xs.push(fitted);
            ys.push(planted);
        }
    }
    let corr = cpd_prob::stats::spearman(&xs, &ys);
    assert!(corr > 0.2, "eta Spearman correlation {corr}");
}

#[test]
fn parallel_and_serial_fits_both_recover() {
    let gen = GenConfig::twitter_like(Scale::Tiny);
    let (g, truth) = generate(&gen);
    let serial = Cpd::new(fit_config(gen.n_communities, gen.n_topics, 7))
        .unwrap()
        .fit(&g);
    let par_cfg = CpdConfig {
        threads: Some(4),
        ..fit_config(gen.n_communities, gen.n_topics, 7)
    };
    let parallel = Cpd::new(par_cfg).unwrap().fit(&g);
    let nmi_serial = nmi(
        &serial.model.dominant_communities(),
        &truth.dominant_community,
    );
    let nmi_parallel = nmi(
        &parallel.model.dominant_communities(),
        &truth.dominant_community,
    );
    // Approximate parallel Gibbs should land in the same quality regime.
    assert!(
        (nmi_serial - nmi_parallel).abs() < 0.35,
        "serial {nmi_serial} vs parallel {nmi_parallel}"
    );
}
