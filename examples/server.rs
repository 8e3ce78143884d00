//! The full serving lifecycle over a real socket: fit **offline**,
//! snapshot, start a `cpd-server` on a loopback port, drive it with the
//! TCP client — pipelined query batches, a fold-in that hits the cache
//! on its second ask, a **hot-reload** to a refreshed snapshot under a
//! live connection, a **Prometheus metrics scrape and health probe
//! over the wire** — and shut it down gracefully for the final
//! diagnostics.
//!
//! ```sh
//! cargo run --release --example server
//! ```

use cpd::prelude::*;
use std::sync::Arc;

fn fit_snapshot(seed: u64, path: &std::path::Path) -> CpdConfig {
    let gen = GenConfig::twitter_like(Scale::Tiny);
    let (graph, _) = generate(&gen);
    let config = CpdConfig {
        em_iters: 5,
        seed,
        ..CpdConfig::experiment(gen.n_communities, gen.n_topics)
    };
    let fit = Cpd::new(config.clone()).expect("valid config").fit(&graph);
    cpd::core::io::save_model(&fit.model, path).expect("snapshot");
    config
}

fn main() {
    // ---- Offline: two fits, two snapshots (e.g. tonight's and -------
    // tomorrow's nightly build of the model).
    let dir = std::env::temp_dir().join("cpd-server-example");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snap_v1 = dir.join("model-v1.cpd");
    let snap_v2 = dir.join("model-v2.cpd");
    let config = fit_snapshot(42, &snap_v1);
    fit_snapshot(4242, &snap_v2);
    println!(
        "offline: snapshots at {} and {}",
        snap_v1.display(),
        snap_v2.display()
    );

    // ---- Server process: load v1, listen on an ephemeral port -------
    let model = cpd::core::io::load_model(&snap_v1).expect("load snapshot");
    let index = Arc::new(ProfileIndex::build(model, &config));
    let runtime = ServeRuntime::new(
        index,
        None,
        ServeOptions {
            workers: 4,
            ..ServeOptions::default()
        },
    )
    .expect("valid serve options");
    // Keep a handle on the server-side trace store before the runtime
    // moves into the transport — the slow-query log prints from it at
    // the end.
    let tracer = Arc::clone(runtime.tracer());
    let server = Server::start("127.0.0.1:0", runtime, ServerOptions::default()).expect("bind");
    println!("online: cpd-server listening on {}", server.local_addr());

    // ---- Client process: pipelined queries over TCP -----------------
    // This client head-samples every query: it records its own span
    // tree (request/send/await) locally and sends the trace context on
    // the wire, so the server's spans join the same trace ids.
    let mut client = Client::connect_with(
        server.local_addr(),
        ClientOptions {
            trace: TraceConfig {
                sample_one_in: 1,
                ..TraceConfig::default()
            },
            ..ClientOptions::default()
        },
    )
    .expect("connect");
    let responses = client
        .query_batch(vec![
            QueryRequest::RankCommunities {
                query: vec![WordId(0), WordId(1)],
            },
            QueryRequest::TopWords { topic: 0, k: 5 },
            QueryRequest::UserProfile { user: UserId(0) },
            QueryRequest::FriendshipScore {
                u: UserId(0),
                v: UserId(1),
            },
        ])
        .expect("batch");
    for (i, response) in responses.iter().enumerate() {
        match response {
            QueryResponse::Ranking(r) => {
                let head: Vec<String> = r
                    .iter()
                    .take(3)
                    .map(|&(id, s)| format!("{id}:{s:.3}"))
                    .collect();
                println!("  [{i}] ranking: {}", head.join(" "));
            }
            QueryResponse::Profile {
                membership,
                dominant,
            } => println!(
                "  [{i}] profile: dominant community c{dominant:02} (pi = {:.3})",
                membership[*dominant]
            ),
            QueryResponse::Score(s) => println!("  [{i}] link score: {s:.3}"),
            QueryResponse::FoldedIn(p) => {
                println!("  [{i}] fold-in: c{:02}", p.dominant_community())
            }
            QueryResponse::Overloaded { retry_after_ms } => {
                println!("  [{i}] shed by admission control; retry after {retry_after_ms} ms")
            }
            QueryResponse::Error(e) => println!("  [{i}] error: {e}"),
        }
    }

    // The same unseen user folded in twice: the second answer comes
    // from the generation-keyed cache, byte-identical, without
    // re-running the Gibbs chain.
    let fold = QueryRequest::FoldIn {
        item: FoldInItem::user(vec![vec![WordId(0), WordId(2)]], vec![UserId(0)]),
        seed: 7,
    };
    let first = client.query(fold.clone()).expect("fold-in");
    let second = client.query(fold).expect("fold-in again");
    // The cache counters come from the server's registry, read over
    // the wire from a `Metrics` scrape (one unlabelled sample each).
    let scrape = client.metrics().expect("metrics scrape");
    let sample = |name: &str| {
        scrape
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or("?")
            .to_owned()
    };
    println!(
        "fold-in twice: byte-identical = {}, cache hits/misses = {}/{}",
        matches!((&first, &second), (QueryResponse::FoldedIn(a), QueryResponse::FoldedIn(b)) if a == b),
        sample("cpd_serve_fold_cache_hits_total"),
        sample("cpd_serve_fold_cache_misses_total"),
    );

    // ---- Hot-reload: v2 lands without restarting anything -----------
    let generation = client
        .reload(snap_v2.to_str().expect("utf8 path"))
        .expect("reload");
    println!(
        "hot-reload over the wire: now serving generation {generation} \
         (in-flight batches finished on generation 1)"
    );

    // ---- Observability over the wire --------------------------------
    // `Health` is what a load balancer polls: readiness, liveness, the
    // live snapshot generation, uptime. Answered inline on the
    // connection's reader thread — never queued behind the query pool.
    let health = client.health().expect("health probe");
    println!(
        "health: ready = {}, live = {}, generation = {}, uptime = {:.1}s",
        health.ready, health.live, health.generation, health.uptime_seconds,
    );
    // `Metrics` is what a Prometheus scraper polls: the full registry —
    // per-query-class latency quantiles, fold-in cache counters, the
    // transport's connection/frame counters — in text exposition
    // format. Here we print the per-class latency series.
    let metrics = client.metrics().expect("metrics scrape");
    println!("metrics scrape (cpd_serve_query_seconds series):");
    for line in metrics
        .lines()
        .filter(|l| l.starts_with("cpd_serve_query_seconds"))
    {
        println!("  {line}");
    }

    // `Traces` is what an engineer polls when a request was slow: the
    // server's kept traces (head-sampled plus tail-kept sheds, drops,
    // errors, and slow queries), fetched over the wire. Print the
    // fold-in cache miss — its span tree reaches down to the
    // individual Gibbs sweeps — next to the client's half of the same
    // trace, stitched by one trace id.
    let traces = client.traces().expect("traces fetch");
    if let Some(server_half) = traces
        .iter()
        .find(|t| t.spans.iter().any(|s| s.name == "fold_cache_miss"))
    {
        println!("server half of the cold fold-in (flamegraph view):");
        print!("{}", server_half.render_text());
        if let Some(client_half) = client
            .tracer()
            .store()
            .snapshot()
            .iter()
            .find(|t| t.trace_id == server_half.trace_id)
        {
            println!(
                "client half of the same trace {:#018x}:",
                client_half.trace_id
            );
            print!("{}", client_half.render_text());
        }
    }
    println!("server slow-query log (worst first):");
    print!("{}", tracer.store().render_slow_log(3));

    // ---- Graceful shutdown: drain, join, final report ---------------
    client.shutdown_server().expect("shutdown handshake");
    drop(client);
    let report = server.join();
    println!(
        "served {} queries over {} connection(s), {} frames in / {} out, \
         queue high-water {}, generation {} at shutdown",
        report.total_queries(),
        report.net.connections,
        report.net.frames_in,
        report.net.frames_out,
        report.queue_high_water,
        report.generation,
    );

    std::fs::remove_file(&snap_v1).ok();
    std::fs::remove_file(&snap_v2).ok();
}
