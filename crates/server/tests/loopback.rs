//! The acceptance path end to end: a real `cpd-server` on an ephemeral
//! loopback port, every query class over TCP, a hot-reload landing
//! mid-stream under concurrent query traffic without dropping a
//! request, and a fold-in cache hit — all responses oracle-equal to
//! direct [`ProfileIndex`] calls on the matching snapshot generation.

mod common;

use common::scrape_value;
use cpd_core::{io::save_model, Cpd, CpdConfig, UserFeatures};
use cpd_datagen::{generate, GenConfig, Scale};
use cpd_serve::{
    FoldInItem, ProfileIndex, QueryRequest, QueryResponse, Registry, ServeOptions, ServeRuntime,
};
use cpd_server::{Client, ClientError, Server, ServerOptions};
use social_graph::{SocialGraph, UserId, WordId};
use std::io::{Read, Write};
use std::sync::Arc;

fn fit(seed: u64) -> (SocialGraph, CpdConfig, Arc<ProfileIndex>) {
    let (g, _) = generate(&GenConfig::twitter_like(Scale::Tiny));
    let cfg = CpdConfig {
        em_iters: 2,
        gibbs_sweeps: 1,
        nu_iters: 5,
        seed,
        ..CpdConfig::experiment(3, 4)
    };
    let fit = Cpd::new(cfg.clone()).unwrap().fit(&g);
    let index = Arc::new(ProfileIndex::build(fit.model, &cfg));
    (g, cfg, index)
}

/// A generation-revealing probe (used by the reload-under-load phase).
fn probe() -> Vec<QueryRequest> {
    let q = vec![WordId(0), WordId(1), WordId(2)];
    vec![
        QueryRequest::RankCommunities { query: q.clone() },
        QueryRequest::QueryTopics { query: q },
    ]
}

fn probe_oracle(index: &ProfileIndex) -> Vec<QueryResponse> {
    let q = vec![WordId(0), WordId(1), WordId(2)];
    vec![
        QueryResponse::Ranking(index.rank_communities(&q)),
        QueryResponse::Ranking(index.query_topics(&q)),
    ]
}

#[test]
fn loopback_every_query_class_reload_mid_stream_and_cache_hit() {
    let (g, _cfg_a, index_a) = fit(11);
    let (_, _, index_b_src) = fit(5040);
    let features = Arc::new(UserFeatures::compute(&g));

    // The second snapshot the server will hot-reload to, on disk.
    let dir = std::env::temp_dir().join("cpd-server-loopback-test");
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot_b = dir.join("model-b.cpd");
    save_model(index_b_src.model(), &snapshot_b).unwrap();
    // The oracle for generation 2 is built exactly the way the server's
    // reload builds it: the file's model + the live config.
    let index_b = Arc::new(ProfileIndex::build(
        cpd_core::io::load_model(&snapshot_b).unwrap(),
        index_a.config(),
    ));

    let runtime = ServeRuntime::new(
        Arc::clone(&index_a),
        Some(Arc::clone(&features)),
        ServeOptions {
            workers: 4,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let server = Server::start("127.0.0.1:0", runtime, ServerOptions::default()).unwrap();
    let addr = server.local_addr();

    // ---- Phase 1: every query class over TCP, oracle-equal ----------
    let mut client = Client::connect(addr).unwrap();
    let query = vec![WordId(0), WordId(1)];
    let doc_words = g.docs()[0].words.clone();
    let author = g.docs()[0].author;
    let fold_item = FoldInItem::user(vec![doc_words.clone()], vec![UserId(0)]);
    let batch = vec![
        QueryRequest::RankCommunities {
            query: query.clone(),
        },
        QueryRequest::QueryTopics {
            query: query.clone(),
        },
        QueryRequest::TopWords { topic: 1, k: 5 },
        QueryRequest::CommunityTopics { community: 2, k: 3 },
        QueryRequest::PairTopics {
            from: 0,
            to: 1,
            k: 3,
        },
        QueryRequest::UserProfile { user: UserId(3) },
        QueryRequest::FriendshipScore {
            u: UserId(0),
            v: UserId(1),
        },
        QueryRequest::DiffusionScore {
            u: UserId(1),
            v: author,
            words: doc_words.clone(),
            at: 0,
        },
        QueryRequest::FoldIn {
            item: fold_item.clone(),
            seed: 17,
        },
    ];
    let responses = client.query_batch(batch).unwrap();
    assert_eq!(responses.len(), 9, "no request dropped");
    assert_eq!(
        responses[0],
        QueryResponse::Ranking(index_a.rank_communities(&query))
    );
    assert_eq!(
        responses[1],
        QueryResponse::Ranking(index_a.query_topics(&query))
    );
    assert_eq!(
        responses[2],
        QueryResponse::Ranking(index_a.top_words(1, 5))
    );
    assert_eq!(
        responses[3],
        QueryResponse::Ranking(index_a.top_topics_of_community(2, 3))
    );
    assert_eq!(
        responses[4],
        QueryResponse::Ranking(index_a.pair_top_topics(0, 1, 3))
    );
    let membership = index_a.user_membership(UserId(3)).to_vec();
    let dominant = cpd_core::dominant_index(&membership);
    assert_eq!(
        responses[5],
        QueryResponse::Profile {
            membership,
            dominant
        }
    );
    assert_eq!(
        responses[6],
        QueryResponse::Score(index_a.friendship_score(UserId(0), UserId(1)))
    );
    assert_eq!(
        responses[7],
        QueryResponse::Score(index_a.diffusion_score(&features, UserId(1), author, &doc_words, 0))
    );
    assert!(matches!(&responses[8], QueryResponse::FoldedIn(_)));

    // A malformed query travels as a typed per-query Error, not a
    // connection failure.
    let bad = client
        .query(QueryRequest::TopWords { topic: 999, k: 3 })
        .unwrap();
    assert!(matches!(bad, QueryResponse::Error(_)));

    // ---- Phase 2: fold-in cache hit over the wire -------------------
    let again = client
        .query(QueryRequest::FoldIn {
            item: fold_item.clone(),
            seed: 17,
        })
        .unwrap();
    assert_eq!(&again, &responses[8], "cache hit is byte-identical");
    let text = client.metrics().unwrap();
    assert_eq!(scrape_value(&text, "cpd_serve_generation"), Some(1.0));
    assert_eq!(
        scrape_value(&text, "cpd_serve_fold_cache_hits_total"),
        Some(1.0),
        "second fold-in hit the cache"
    );
    assert_eq!(
        scrape_value(&text, "cpd_serve_fold_cache_misses_total"),
        Some(1.0)
    );
    assert!(scrape_value(&text, "cpd_server_frames_in_total").unwrap() >= 12.0);

    // ---- Phase 3: hot-reload mid-stream under concurrent load -------
    let oracle_a = probe_oracle(&index_a);
    let oracle_b = probe_oracle(&index_b);
    assert_ne!(oracle_a, oracle_b, "fits too similar to distinguish");
    let reload_landed = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let hammer = {
        let oracle_a = oracle_a.clone();
        let oracle_b = oracle_b.clone();
        let reload_landed = Arc::clone(&reload_landed);
        std::thread::spawn(move || {
            // Its own connection, streaming probe batches across the
            // swap; every batch is answered in full on one generation.
            let mut c = Client::connect(addr).unwrap();
            let mut batches = 0u64;
            while !reload_landed.load(std::sync::atomic::Ordering::Acquire) {
                let got = c.query_batch(probe()).unwrap();
                assert_eq!(got.len(), 2, "no request dropped across the swap");
                assert!(
                    got == oracle_a || got == oracle_b,
                    "batch matched neither snapshot generation"
                );
                batches += 1;
            }
            // The reload is confirmed live: from here every answer is
            // deterministically the new generation's.
            for _ in 0..3 {
                assert_eq!(c.query_batch(probe()).unwrap(), oracle_b);
            }
            batches
        })
    };
    // Land the reload over the wire while the hammer streams.
    std::thread::sleep(std::time::Duration::from_millis(10));
    let generation = client.reload(snapshot_b.to_str().unwrap()).unwrap();
    assert_eq!(generation, 2);
    // This connection sees the new snapshot on its next query.
    assert_eq!(client.query_batch(probe()).unwrap(), oracle_b);
    reload_landed.store(true, std::sync::atomic::Ordering::Release);
    let hammer_batches = hammer.join().unwrap();
    assert!(hammer_batches > 0, "hammer never streamed across the swap");

    // Post-swap fold-ins recompute (generation-keyed cache) and answer
    // on the new snapshot.
    let post_swap = client
        .query(QueryRequest::FoldIn {
            item: fold_item,
            seed: 17,
        })
        .unwrap();
    assert_ne!(&post_swap, &responses[8], "new snapshot, new profile");
    let text = client.metrics().unwrap();
    assert_eq!(scrape_value(&text, "cpd_serve_generation"), Some(2.0));
    assert_eq!(
        scrape_value(&text, "cpd_serve_fold_cache_hits_total"),
        Some(1.0),
        "gen-1 entries are unreachable"
    );
    assert_eq!(
        scrape_value(&text, "cpd_serve_fold_cache_misses_total"),
        Some(2.0)
    );

    // A reload of a missing snapshot errors by name and leaves the
    // live generation alone.
    let err = client.reload(dir.join("nope.cpd").to_str().unwrap());
    match err {
        Err(ClientError::Server(m)) => assert!(m.contains("nope.cpd"), "{m}"),
        other => panic!("expected a server error, got {other:?}"),
    }
    let text = client.metrics().unwrap();
    assert_eq!(scrape_value(&text, "cpd_serve_generation"), Some(2.0));

    // ---- Phase 4: graceful drain-then-shutdown ----------------------
    client.shutdown_server().unwrap();
    drop(client);
    let report = server.join();
    assert_eq!(report.generation, 2);
    assert_eq!(report.net.connections, 2, "main client + hammer");
    assert!(report.net.frames_in > 0);
    assert!(report.net.frames_out >= report.net.frames_in);
    assert!(report.total_queries() > 0);
    assert_eq!(report.cache.hits, 1);

    std::fs::remove_file(&snapshot_b).ok();
}

/// The observability acceptance path: one [`Registry`] shared by the
/// trainer and the serve runtime, scraped over the wire. `Metrics` and
/// `Health` must answer while the query pool is under load, the
/// generation gauge must move across a hot-reload, and an unknown tag
/// on the same port must still get an `Error` frame — the admin surface
/// does not weaken the framing rules.
#[test]
fn metrics_and_health_over_the_wire_mid_load_and_across_reload() {
    // Fit with telemetry attached: the same registry the server will
    // scrape, so `cpd_fit_*` training series ride along with the
    // serving ones.
    let (g, _) = generate(&GenConfig::twitter_like(Scale::Tiny));
    let cfg = CpdConfig {
        em_iters: 2,
        gibbs_sweeps: 2,
        nu_iters: 5,
        seed: 23,
        ..CpdConfig::experiment(3, 4)
    };
    let registry = Arc::new(Registry::new());
    let fit = Cpd::new(cfg.clone())
        .unwrap()
        .with_telemetry(Arc::clone(&registry))
        .fit(&g);
    let index = Arc::new(ProfileIndex::build(fit.model, &cfg));

    // A second snapshot for the reload phase.
    let dir = std::env::temp_dir().join("cpd-server-metrics-test");
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = dir.join("model.cpd");
    save_model(index.model(), &snapshot).unwrap();

    let runtime = ServeRuntime::new(
        Arc::clone(&index),
        None,
        ServeOptions {
            workers: 2,
            registry: Some(Arc::clone(&registry)),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let server = Server::start("127.0.0.1:0", runtime, ServerOptions::default()).unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();

    // Populate the ranking-class histogram before the first scrape.
    let warmup: Vec<QueryRequest> = (0..8)
        .map(|i| QueryRequest::RankCommunities {
            query: vec![WordId(i), WordId(i + 1)],
        })
        .collect();
    assert_eq!(client.query_batch(warmup).unwrap().len(), 8);

    // ---- Scrape: per-class quantiles AND trainer series -------------
    let text = client.metrics().unwrap();
    for series in [
        // Serving: the ranking class answered queries, so all three
        // quantiles must be present on its series.
        "cpd_serve_query_seconds{class=\"ranking\",quantile=\"0.5\"}",
        "cpd_serve_query_seconds{class=\"ranking\",quantile=\"0.99\"}",
        "cpd_serve_query_seconds{class=\"ranking\",quantile=\"0.999\"}",
        "# TYPE cpd_serve_query_seconds summary",
        "cpd_serve_generation 1",
        // Training: sweep counters and span histograms from the fit
        // that shared this registry.
        "# TYPE cpd_fit_span_seconds summary",
        "cpd_fit_span_seconds_count{span=\"sweep\"} 4",
        "cpd_fit_sweeps_total 4",
        "cpd_fit_em_iteration 2",
        // Transport: the server's own counters live here too.
        "cpd_server_connections_total 1",
    ] {
        assert!(
            text.contains(series),
            "metrics text missing {series:?}:\n{text}"
        );
    }
    let ranking_count: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("cpd_serve_query_seconds_count{class=\"ranking\"} "))
        .expect("ranking count series present")
        .parse()
        .unwrap();
    assert_eq!(ranking_count, 8);

    // ---- Health probe -----------------------------------------------
    let health = client.health().unwrap();
    assert!(health.ready && health.live);
    assert_eq!(health.generation, 1);
    assert!(health.uptime_seconds >= 0.0);

    // ---- Metrics/Health answer mid-load -----------------------------
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let hammer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            let mut batches = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                let batch: Vec<QueryRequest> = (0..16)
                    .map(|i| QueryRequest::TopWords { topic: i % 4, k: 3 })
                    .collect();
                assert_eq!(c.query_batch(batch).unwrap().len(), 16);
                batches += 1;
            }
            batches
        })
    };
    for _ in 0..5 {
        // Admin frames bypass the pool: both must answer while the
        // hammer keeps every worker busy.
        assert!(client
            .metrics()
            .unwrap()
            .contains("cpd_serve_query_seconds"));
        assert!(client.health().unwrap().ready);
    }

    // ---- Hot-reload bumps the generation gauge ----------------------
    let generation = client.reload(snapshot.to_str().unwrap()).unwrap();
    assert_eq!(generation, 2);
    assert_eq!(client.health().unwrap().generation, 2);
    let text = client.metrics().unwrap();
    assert!(text.contains("cpd_serve_generation 2"), "{text}");
    stop.store(true, std::sync::atomic::Ordering::Release);
    assert!(hammer.join().unwrap() > 0);

    // ---- Unknown tag on the same connection family ------------------
    // The new admin tags must not have loosened framing: an unknown tag
    // still gets a named Error frame, then the connection closes.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.write_all(&[0xC9, 0xDF, cpd_serve::wire::WIRE_VERSION, 0x7E, 0, 0, 0, 0])
        .unwrap();
    raw.flush().unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    match cpd_serve::wire::read_response(&mut reader).unwrap() {
        Some(cpd_serve::ResponseFrame::Error(m)) => {
            assert!(
                m.contains("tag") || m.contains("0x7e") || m.contains("126"),
                "{m}"
            )
        }
        other => panic!("expected an Error frame, got {other:?}"),
    }
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());

    client.shutdown_server().unwrap();
    drop(client);
    let report = server.join();
    assert_eq!(report.generation, 2);
    std::fs::remove_file(&snapshot).ok();
}

#[test]
fn garbage_bytes_get_an_error_frame_then_the_connection_closes() {
    let (_, _, index) = fit(3);
    let runtime = ServeRuntime::new(
        index,
        None,
        ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let server = Server::start("127.0.0.1:0", runtime, ServerOptions::default()).unwrap();

    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    raw.flush().unwrap();
    // The server answers with a wire Error frame naming the problem...
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    match cpd_serve::wire::read_response(&mut reader).unwrap() {
        Some(cpd_serve::ResponseFrame::Error(m)) => assert!(m.contains("magic"), "{m}"),
        other => panic!("expected an Error frame, got {other:?}"),
    }
    // ...then closes the stream (it can no longer be framed).
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());

    // The server survives and serves the next, well-formed connection.
    let mut client = Client::connect(server.local_addr()).unwrap();
    let ok = client
        .query(QueryRequest::TopWords { topic: 0, k: 2 })
        .unwrap();
    assert!(matches!(ok, QueryResponse::Ranking(_)));
    drop(client);
    let report = server.shutdown();
    assert_eq!(report.net.connections, 2);
}

#[test]
fn queries_pipelined_behind_a_shutdown_frame_are_still_answered() {
    let (_, _, index) = fit(13);
    let runtime = ServeRuntime::new(
        index,
        None,
        ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let server = Server::start("127.0.0.1:0", runtime, ServerOptions::default()).unwrap();

    // [Query, Shutdown, Query] in one write: the drain contract says
    // everything received is answered, including the trailing query.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut bytes = Vec::new();
    cpd_serve::wire::write_request(
        &mut bytes,
        &cpd_serve::RequestFrame::Query {
            request: QueryRequest::TopWords { topic: 0, k: 2 },
            deadline_ms: None,
            trace: None,
        },
    )
    .unwrap();
    cpd_serve::wire::write_request(&mut bytes, &cpd_serve::RequestFrame::Shutdown).unwrap();
    cpd_serve::wire::write_request(
        &mut bytes,
        &cpd_serve::RequestFrame::Query {
            request: QueryRequest::TopWords { topic: 1, k: 2 },
            deadline_ms: None,
            trace: None,
        },
    )
    .unwrap();
    raw.write_all(&bytes).unwrap();
    raw.flush().unwrap();

    let mut reader = std::io::BufReader::new(raw);
    use cpd_serve::wire::read_response;
    use cpd_serve::ResponseFrame;
    assert!(matches!(
        read_response(&mut reader).unwrap(),
        Some(ResponseFrame::Response {
            response: QueryResponse::Ranking(_),
            ..
        })
    ));
    assert!(matches!(
        read_response(&mut reader).unwrap(),
        Some(ResponseFrame::ShuttingDown)
    ));
    assert!(
        matches!(
            read_response(&mut reader).unwrap(),
            Some(ResponseFrame::Response {
                response: QueryResponse::Ranking(_),
                ..
            })
        ),
        "query behind the Shutdown frame must still be answered"
    );
    drop(reader);
    let report = server.join();
    assert_eq!(report.net.frames_in, 3);
    assert_eq!(report.net.frames_out, 3);
}

#[test]
fn shutdown_frame_from_a_client_that_never_reads_the_ack_still_drains() {
    let (_, _, index) = fit(21);
    let runtime = ServeRuntime::new(
        index,
        None,
        ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let server = Server::start("127.0.0.1:0", runtime, ServerOptions::default()).unwrap();
    {
        // Send Shutdown and slam the socket without reading the ack —
        // the drain must still trigger on every connection exit path.
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let mut bytes = Vec::new();
        cpd_serve::wire::write_request(&mut bytes, &cpd_serve::RequestFrame::Shutdown).unwrap();
        raw.write_all(&bytes).unwrap();
        raw.flush().unwrap();
    } // dropped unread
    let report = server.join(); // must return, not hang
    assert_eq!(report.net.frames_in, 1);
}

#[test]
fn pipelined_frames_fold_into_batches_and_shutdown_reports_final_counters() {
    let (_, _, index) = fit(9);
    let runtime = ServeRuntime::new(
        index,
        None,
        ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let server = Server::start("127.0.0.1:0", runtime, ServerOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // 32 pipelined queries: written before any response is read, so the
    // server folds buffered frames into shared-queue batches.
    let batch: Vec<QueryRequest> = (0..32)
        .map(|i| QueryRequest::TopWords { topic: i % 4, k: 3 })
        .collect();
    let responses = client.query_batch(batch).unwrap();
    assert_eq!(responses.len(), 32);
    let index = server.runtime().index();
    for (i, r) in responses.iter().enumerate() {
        assert_eq!(r, &QueryResponse::Ranking(index.top_words(i % 4, 3)));
    }
    drop(client);
    let report = server.shutdown();
    assert_eq!(report.net.frames_in, 32);
    assert_eq!(report.net.frames_out, 32);
    assert_eq!(report.top_words.queries, 32);
    assert!(report.queue_high_water >= 1);
    // Fewer dispatches than queries ⇒ pipelining actually batched.
    assert!(
        report.batches <= 32,
        "batches {} should not exceed queries",
        report.batches
    );
}

/// A batch with one query past the frame limit is refused whole, before
/// any frame reaches the socket. The error names the slot and is final:
/// no retry, no reconnect. The connection stays in sync, so the next
/// call gets its own answer rather than the earlier slots' answers.
#[test]
fn oversized_query_in_a_batch_is_refused_before_any_frame_is_written() {
    let (_, _, index) = fit(17);
    let runtime = ServeRuntime::new(
        Arc::clone(&index),
        None,
        ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let server = Server::start("127.0.0.1:0", runtime, ServerOptions::default()).unwrap();
    // The default retry policy is armed: the refusal must not be
    // mistaken for a transient failure.
    let mut client = Client::connect(server.local_addr()).unwrap();

    // 4.2M words is ~16.8 MB of payload, over the 16 MiB frame limit.
    let batch = vec![
        QueryRequest::RankCommunities {
            query: vec![WordId(0)],
        },
        QueryRequest::QueryTopics {
            query: vec![WordId(1); 4_200_000],
        },
    ];
    match client.query_batch(batch) {
        Err(ClientError::RequestTooLarge {
            slot,
            payload_bytes,
        }) => {
            assert_eq!(slot, 1);
            assert!(payload_bytes > cpd_serve::wire::MAX_FRAME_PAYLOAD as usize);
        }
        other => panic!("expected RequestTooLarge, got {other:?}"),
    }

    let next = client
        .query(QueryRequest::TopWords { topic: 1, k: 5 })
        .unwrap();
    assert_eq!(next, QueryResponse::Ranking(index.top_words(1, 5)));
    let text = client.metrics().unwrap();
    assert_eq!(
        scrape_value(&text, "cpd_server_connections_total"),
        Some(1.0),
        "the refusal must not reconnect"
    );
    drop(client);
    server.shutdown();
}
