//! Quickstart: generate a small social graph, jointly detect and profile
//! its communities, and inspect every model output.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cpd::prelude::*;

fn main() {
    // 1. A Twitter-like social graph with planted structure (stands in
    //    for the paper's 2011 Twitter crawl, which is not redistributable;
    //    see the `cpd_datagen` crate docs).
    let gen = GenConfig::twitter_like(Scale::Small);
    let (graph, truth) = generate(&gen);
    println!("graph: {}", graph.stats());

    // 2. Fit CPD: joint community profiling and detection.
    let config = CpdConfig {
        seed: 42,
        ..CpdConfig::experiment(gen.n_communities, gen.n_topics)
    };
    let fit = Cpd::new(config.clone()).expect("valid config").fit(&graph);
    let model = &fit.model;
    println!(
        "fitted {} communities x {} topics in {:.1}s ({} EM iterations)",
        model.n_communities(),
        model.n_topics(),
        fit.diagnostics.total_seconds,
        fit.diagnostics.em_iterations,
    );

    // 3. Community membership (detection output, Def. 3).
    let detected = model.dominant_communities();
    let agreement = cpd::eval::nmi(&detected, &truth.dominant_community);
    println!("\ndetection vs planted communities: NMI = {agreement:.3}");

    // 4. Content profiles (Def. 4): what each community talks about.
    println!("\ncontent profiles (top-3 topics per community):");
    for c in 0..model.n_communities() {
        let topics: Vec<String> = model
            .top_topics_of_community(c, 3)
            .iter()
            .map(|&(z, p)| format!("T{z}:{p:.2}"))
            .collect();
        println!("  c{c:02}: {}", topics.join(" "));
    }

    // 5. Diffusion profiles (Def. 5): who retweets whom, on what.
    println!("\ndiffusion profile of c00 (top-3 outgoing (community, topic) cells):");
    let mut cells: Vec<(usize, usize, f64)> = (0..model.n_communities())
        .flat_map(|c2| (0..model.n_topics()).map(move |z| (c2, z)))
        .map(|(c2, z)| (c2, z, model.eta.at(0, c2, z)))
        .collect();
    cells.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap());
    for &(c2, z, s) in cells.iter().take(3) {
        println!("  c00 -> c{c2:02} on T{z}: {s:.4}");
    }

    // 6. The three applications (Sect. 5).
    let features = UserFeatures::compute(&graph);
    let predictor = DiffusionPredictor::new(model, &features, &config);
    let link = &graph.diffusions()[0];
    let p = predictor.score(&graph, graph.doc(link.src).author, link.dst, link.at);
    println!("\ncommunity-aware diffusion: P(observed retweet) = {p:.3}");

    // Ranking routes through the serving index (`cpd-serve`): same
    // answers as the dense `rank_communities` scan, precomputed tables
    // under the hood. See `examples/serving.rs` for the full
    // fit → snapshot → serve story.
    let index = ProfileIndex::build(model.clone(), &config);
    let query = graph.docs()[0].words[0];
    let ranking = index.rank_communities(&[query]);
    assert_eq!(ranking, rank_communities(model, &[query]));
    println!(
        "community ranking for word {}: top community = c{:02} (score {:.3})",
        query.0, ranking[0].0, ranking[0].1
    );

    let dot = cpd::core::apps::visualization::to_dot(model, None, None);
    println!(
        "visualisation: DOT graph with {} lines (render with graphviz)",
        dot.lines().count()
    );
}
