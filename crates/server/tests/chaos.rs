//! Deterministic fault-injection suite: the server under the failure
//! modes production actually serves — bursts past the admission cap,
//! torn TCP streams, half-dead peers, stalled consumers, wildcard
//! binds — driven by `cpd-chaos` (seeded byte-position fault plans, a
//! chaos TCP proxy, named failpoints wired into the worker pool).
//!
//! The contracts under test:
//!
//! * overload **sheds typed** (`QueryResponse::Overloaded`) instead of
//!   growing the queue without bound, and health flips
//!   `Degraded → Ok` once the storm passes;
//! * every admitted request is answered **exactly once, in request
//!   order**, no matter what faults fire around it;
//! * a retrying client **converges** to oracle-correct answers across
//!   injected connection faults and sustained overload;
//! * `Server::shutdown` completes (drain included) even with a
//!   stalled consumer or a wildcard bind.

mod common;

use common::scrape_value;
use cpd_chaos::{ChaosProxy, ConnPlan, Failpoints, FaultPlan};
use cpd_core::{Cpd, CpdConfig};
use cpd_datagen::{generate, GenConfig, Scale};
use cpd_serve::{
    FaultHook, HealthState, ProfileIndex, QueryRequest, QueryResponse, ServeOptions, ServeRuntime,
};
use cpd_server::{Client, ClientError, ClientOptions, RetryPolicy, Server, ServerOptions};
use std::io::Write;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn index(seed: u64) -> Arc<ProfileIndex> {
    let (g, _) = generate(&GenConfig::twitter_like(Scale::Tiny));
    let cfg = CpdConfig {
        em_iters: 2,
        gibbs_sweeps: 1,
        nu_iters: 5,
        seed,
        ..CpdConfig::experiment(3, 4)
    };
    let fit = Cpd::new(cfg.clone()).unwrap().fit(&g);
    Arc::new(ProfileIndex::build(fit.model, &cfg))
}

/// A batch of slot-distinguishable queries: slot `i` asks for topic
/// `i % topics` with `k = 1 + i % 4`, so a misordered or duplicated
/// answer cannot masquerade as the right one.
fn probe_batch(n: usize) -> Vec<QueryRequest> {
    (0..n)
        .map(|i| QueryRequest::TopWords {
            topic: i % 3,
            k: 1 + i % 4,
        })
        .collect()
}

fn probe_oracle(index: &ProfileIndex, n: usize) -> Vec<QueryResponse> {
    (0..n)
        .map(|i| QueryResponse::Ranking(index.top_words(i % 3, 1 + i % 4)))
        .collect()
}

/// Wire a `Failpoints` registry into the runtime's worker pool.
fn hook(points: &Failpoints) -> FaultHook {
    let points = points.clone();
    FaultHook::new(move |point| points.hit(point))
}

fn serve(index: &Arc<ProfileIndex>, options: ServeOptions) -> ServeRuntime {
    ServeRuntime::new(Arc::clone(index), None, options).unwrap()
}

/// Overload contract, observed over the wire: a burst past the
/// admission cap is shed with typed `Overloaded` answers (exactly one
/// answer per slot, in order, each executed slot oracle-equal), the
/// shed shows up in `cpd_serve_shed_total` with the health gauge at
/// `Degraded`, and once the burst passes health settles back to `Ok`.
#[test]
fn burst_sheds_then_recovers_with_degraded_health() {
    let index = index(11);
    let points = Failpoints::new();
    // One slow worker + a 2-deep queue: any real burst must shed.
    points.delay("serve.worker_execute", Duration::from_millis(25));
    let runtime = serve(
        &index,
        ServeOptions {
            workers: 1,
            max_queue_depth: 2,
            degraded_window: Duration::from_millis(300),
            fault_hook: Some(hook(&points)),
            ..ServeOptions::default()
        },
    );
    let server = Server::start("127.0.0.1:0", runtime, ServerOptions::default()).unwrap();

    let n = 24;
    let mut client = Client::connect_with(
        server.local_addr(),
        ClientOptions {
            retry: None, // observe the shed, don't paper over it
            ..ClientOptions::default()
        },
    )
    .unwrap();
    let responses = client.query_batch(probe_batch(n)).unwrap();
    let oracle = probe_oracle(&index, n);

    assert_eq!(responses.len(), n, "every slot answered exactly once");
    let mut executed = 0u64;
    let mut shed = 0u64;
    for (slot, response) in responses.iter().enumerate() {
        match response {
            QueryResponse::Overloaded { retry_after_ms } => {
                assert!(*retry_after_ms > 0, "hint must be actionable");
                shed += 1;
            }
            executed_answer => {
                // In-order: an executed slot carries *its own* answer.
                assert_eq!(executed_answer, &oracle[slot], "slot {slot} misrouted");
                executed += 1;
            }
        }
    }
    assert!(executed > 0, "the pool still made progress");
    assert!(shed > 0, "a 24-burst into a 2-deep queue must shed");

    // The shed is visible in a wire scrape, alongside Degraded health.
    let text = client.metrics().unwrap();
    let scraped_shed = scrape_value(&text, "cpd_serve_shed_total").unwrap();
    assert!(scraped_shed >= shed as f64, "{scraped_shed} < {shed}");
    assert_eq!(
        scrape_value(&text, "cpd_serve_health_state"),
        Some(1.0),
        "health gauge must read Degraded while inside the window"
    );
    assert_eq!(client.health().unwrap().state, HealthState::Degraded);

    // Storm over: past the hysteresis window the signal settles.
    points.clear("serve.worker_execute");
    std::thread::sleep(Duration::from_millis(400));
    assert_eq!(client.health().unwrap().state, HealthState::Ok);
    let text = client.metrics().unwrap();
    assert_eq!(scrape_value(&text, "cpd_serve_health_state"), Some(0.0));

    let report = server.shutdown();
    assert_eq!(report.shed, shed, "diagnostics agree with the wire");
    assert!(points.hits("serve.worker_execute") > 0);
}

/// Transport chaos: a proxy that tears the server→client stream on the
/// first connections. The retrying client reconnects through the
/// faults and converges — every batch oracle-equal, nothing lost or
/// reordered.
#[test]
fn torn_streams_retrying_client_converges() {
    let index = index(23);
    let runtime = serve(&index, ServeOptions::default());
    let server = Server::start("127.0.0.1:0", runtime, ServerOptions::default()).unwrap();

    // Connections 0 and 1 die mid-reply (stream torn after 40 bytes of
    // responses); later connections are clean.
    let proxy = ChaosProxy::start(server.local_addr(), |conn| {
        if conn < 2 {
            ConnPlan {
                client_to_server: FaultPlan::clean(),
                server_to_client: FaultPlan::tear_after(40),
            }
        } else {
            ConnPlan::default()
        }
    })
    .unwrap();

    let mut client = Client::connect_with(
        proxy.local_addr(),
        ClientOptions {
            read_timeout: Some(Duration::from_secs(5)),
            retry: Some(RetryPolicy {
                max_retries: 6,
                base_backoff: Duration::from_millis(5),
                ..RetryPolicy::default()
            }),
            ..ClientOptions::default()
        },
    )
    .unwrap();

    let n = 6;
    let oracle = probe_oracle(&index, n);
    for round in 0..3 {
        let responses = client.query_batch(probe_batch(n)).unwrap();
        assert_eq!(responses, oracle, "round {round} must converge to oracle");
    }
    assert!(
        proxy.connections() >= 3,
        "the client reconnected through the torn streams"
    );
    proxy.shutdown();
    server.shutdown();
}

/// Sustained overload with several retrying clients: everyone
/// converges to real answers (the backoff spreads the herd out), while
/// the server demonstrably shed along the way.
#[test]
fn retrying_clients_converge_under_sustained_overload() {
    let index = index(37);
    let points = Failpoints::new();
    points.delay("serve.worker_execute", Duration::from_millis(2));
    let runtime = serve(
        &index,
        ServeOptions {
            workers: 1,
            max_queue_depth: 3,
            fault_hook: Some(hook(&points)),
            ..ServeOptions::default()
        },
    );
    let server = Server::start("127.0.0.1:0", runtime, ServerOptions::default()).unwrap();
    let addr = server.local_addr();

    let n = 6;
    let oracle = Arc::new(probe_oracle(&index, n));
    let mut workers = Vec::new();
    for client_id in 0..3u64 {
        let oracle = Arc::clone(&oracle);
        workers.push(std::thread::spawn(move || {
            let mut client = Client::connect_with(
                addr,
                ClientOptions {
                    retry: Some(RetryPolicy {
                        max_retries: 12,
                        base_backoff: Duration::from_millis(4),
                        jitter_seed: 0xC0FFEE + client_id,
                        ..RetryPolicy::default()
                    }),
                    ..ClientOptions::default()
                },
            )
            .unwrap();
            for _ in 0..8 {
                let responses = client.query_batch(probe_batch(n)).unwrap();
                assert_eq!(responses, *oracle, "client {client_id} must converge");
            }
        }));
    }
    for w in workers {
        w.join().unwrap();
    }
    let report = server.shutdown();
    assert!(
        report.shed > 0,
        "three concurrent clients against a 3-deep queue must shed"
    );
}

/// Deadline enforcement: with the pool pinned slow and a 1 ms request
/// budget, queued work expires and is dropped at dequeue — answered
/// `Overloaded`, counted in `deadline_exceeded`, never executed late.
#[test]
fn expired_deadlines_are_dropped_not_executed() {
    let index = index(41);
    let points = Failpoints::new();
    points.delay("serve.worker_execute", Duration::from_millis(40));
    let runtime = serve(
        &index,
        ServeOptions {
            workers: 1,
            max_queue_depth: 0, // admission off: deadlines alone drop
            fault_hook: Some(hook(&points)),
            ..ServeOptions::default()
        },
    );
    let server = Server::start("127.0.0.1:0", runtime, ServerOptions::default()).unwrap();

    let mut client = Client::connect_with(
        server.local_addr(),
        ClientOptions {
            retry: None,
            request_deadline: Some(Duration::from_millis(1)),
            ..ClientOptions::default()
        },
    )
    .unwrap();
    let n = 4;
    let responses = client.query_batch(probe_batch(n)).unwrap();
    assert_eq!(responses.len(), n, "expired slots still get answers");
    let dropped = responses
        .iter()
        .filter(|r| matches!(r, QueryResponse::Overloaded { .. }))
        .count();
    // Slot 0 may beat its deadline to the worker; everything queued
    // behind the 40 ms execution cannot.
    assert!(dropped >= n - 1, "only {dropped}/{n} dropped");

    let report = server.shutdown();
    assert!(report.deadline_exceeded >= (n - 1) as u64);
}

/// A stalled consumer — pipelines thousands of queries, never reads a
/// byte of response — must not hang `Server::shutdown`: the write
/// timeout reaps it, the drain completes, final diagnostics come back.
#[test]
fn stalled_consumer_does_not_hang_shutdown() {
    let index = index(53);
    let runtime = serve(&index, ServeOptions::default());
    let server = Server::start(
        "127.0.0.1:0",
        runtime,
        ServerOptions {
            write_timeout: Some(Duration::from_millis(100)),
            ..ServerOptions::default()
        },
    )
    .unwrap();

    // Raw socket: flood requests, read nothing. Responses fill the
    // kernel buffers until the server's flush blocks.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut bytes = Vec::new();
    for request in probe_batch(1).into_iter().cycle().take(20_000) {
        cpd_serve::wire::write_request(
            &mut bytes,
            &cpd_serve::RequestFrame::Query {
                request,
                deadline_ms: None,
                trace: None,
            },
        )
        .unwrap();
    }
    raw.write_all(&bytes).unwrap();
    raw.flush().unwrap();
    // Give the server time to wedge against the full socket.
    std::thread::sleep(Duration::from_millis(300));

    let (tx, rx) = mpsc::channel();
    let watchdog = std::thread::spawn(move || {
        let report = server.shutdown();
        tx.send(report).unwrap();
    });
    let report = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("shutdown must not hang on a stalled consumer");
    watchdog.join().unwrap();
    assert!(report.batches > 0, "the pool served before the stall");
    drop(raw);
}

/// Regression: a server bound to the wildcard address can still wake
/// its own `accept()` loop — shutdown with zero connections must not
/// block on a connect to `0.0.0.0`.
#[test]
fn wildcard_bind_shutdown_does_not_hang() {
    let index = index(59);
    let runtime = serve(&index, ServeOptions::default());
    let server = Server::start("0.0.0.0:0", runtime, ServerOptions::default()).unwrap();
    let (tx, rx) = mpsc::channel();
    let watchdog = std::thread::spawn(move || {
        tx.send(server.shutdown()).unwrap();
    });
    let started = Instant::now();
    rx.recv_timeout(Duration::from_secs(10))
        .expect("wildcard-bound server must wake itself");
    watchdog.join().unwrap();
    assert!(started.elapsed() < Duration::from_secs(10));
}

/// Fault attribution: a failpoint hit by a traced request records
/// *that request's* trace id, so a chaos run can tie every injected
/// fault back to the exact trace that crossed it.
#[test]
fn failpoint_hits_carry_the_trace_id_of_the_crossing_request() {
    let index = index(67);
    let points = Failpoints::new();
    let fp = points.clone();
    let runtime = serve(
        &index,
        ServeOptions {
            workers: 1,
            fault_hook: Some(cpd_serve::FaultHook::new_traced(move |point, trace| {
                fp.hit_traced(point, trace)
            })),
            ..ServeOptions::default()
        },
    );
    let server = Server::start("127.0.0.1:0", runtime, ServerOptions::default()).unwrap();

    let mut client = Client::connect_with(
        server.local_addr(),
        ClientOptions {
            trace: cpd_serve::TraceConfig {
                sample_one_in: 1,
                ..cpd_serve::TraceConfig::default()
            },
            ..ClientOptions::default()
        },
    )
    .unwrap();
    let n = 3;
    client.query_batch(probe_batch(n)).unwrap();

    let hit_ids = points.trace_ids("serve.worker_execute");
    assert_eq!(hit_ids.len(), n, "every traced request attributed");
    let local: std::collections::HashSet<u64> = client
        .tracer()
        .store()
        .snapshot()
        .iter()
        .map(|t| t.trace_id)
        .collect();
    assert_eq!(local.len(), n);
    for id in &hit_ids {
        assert!(local.contains(id), "hook saw unknown trace id {id:#x}");
    }
    server.shutdown();
}

/// A half-dead server (accepts, then goes silent mid-frame) surfaces
/// as a typed client timeout, not an eternal hang.
#[test]
fn client_times_out_on_half_dead_server() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let trap = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        // Write half a frame header, then fall silent: the client is
        // now stuck mid-frame.
        conn.write_all(&[0xDF, 0xC9]).unwrap();
        std::thread::sleep(Duration::from_secs(2));
        drop(conn);
    });

    let mut client = Client::connect_with(
        addr,
        ClientOptions {
            read_timeout: Some(Duration::from_millis(200)),
            retry: None,
            ..ClientOptions::default()
        },
    )
    .unwrap();
    let started = Instant::now();
    let err = client
        .query(QueryRequest::TopWords { topic: 0, k: 2 })
        .unwrap_err();
    assert!(
        matches!(err, ClientError::Timeout { .. }),
        "expected a typed timeout, got {err:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "the timeout fired, not the server's eventual close"
    );
    trap.join().unwrap();
}
