//! **cpd-server** — the network front for `cpd-serve`: a long-lived TCP
//! service speaking the [CPD wire protocol](cpd_serve::wire) so
//! community-profiling queries, fold-ins and snapshot hot-reloads no
//! longer require linking the serving library into every caller.
//!
//! The paper's end goal is profiling as a *queryable artifact* —
//! ranking, top-word and diffusion queries answered online — and the
//! interactive community-query workloads in the related literature
//! (e.g. "Exploring Communities in Large Profiled Graphs") need a
//! server that outlives any single client. This crate adds exactly the
//! transport layer, nothing else — all query semantics live in
//! [`cpd_serve`]:
//!
//! * **[`Server`]** — a blocking [`std::net::TcpListener`] accept loop
//!   (pure `std`, no async runtime, works in the offline build) that
//!   spawns one reader thread per connection. Each reader decodes
//!   frames, **batches pipelined requests** — every `Query` frame
//!   already buffered on the socket joins one
//!   [`submit_batch`](cpd_serve::ServeRuntime::submit_batch) call, so a
//!   client that pipelines N queries pays one batch dispatch, not N —
//!   and answers in request order. Admin frames hot-reload the model
//!   snapshot ([`RequestFrame::Reload`](cpd_serve::RequestFrame)),
//!   scrape the runtime's [`Registry`](cpd_serve::Registry) as
//!   Prometheus text (`Metrics`), probe readiness (`Health`) or dump
//!   the kept traces (`Traces`) — all three answered on the reader
//!   thread, never queued behind the query pool — or start a graceful
//!   **drain-then-shutdown** (stop accepting, finish live connections,
//!   join the pool, report final counters). The transport's own
//!   connection/frame counters live in the same registry
//!   (`cpd_server_connections_total`, `cpd_server_frames_in_total`,
//!   `cpd_server_frames_out_total`), so one scrape covers training
//!   spans, query latency, cache and transport; in-process, the same
//!   cells read back typed through
//!   [`Server::diagnostics`](crate::Server::diagnostics).
//! * **[`Client`]** — the matching blocking connection handle used by
//!   the loopback tests, benches and examples: single queries,
//!   pipelined batches, reload/metrics/health/traces/shutdown admin
//!   calls.
//!
//! Malformed frames are answered with an `Error` frame rather than a
//! dropped connection where the stream stays decodable (garbage inside
//! a well-formed frame); byte-level corruption of the framing itself
//! (bad magic, truncation, oversized length prefixes — the latter
//! rejected before any allocation) gets a best-effort `Error` frame and
//! then the connection closes, since the stream can no longer be
//! trusted.
//!
//! # Loopback in five lines
//!
//! ```
//! use cpd_serve::{ProfileIndex, QueryRequest, QueryResponse, ServeOptions, ServeRuntime};
//! use cpd_server::{Client, Server, ServerOptions};
//! use std::sync::Arc;
//! # use cpd_core::{CpdConfig, CpdModel, Eta};
//! # let model = CpdModel {
//! #     pi: vec![vec![1.0]],
//! #     theta: vec![vec![1.0]],
//! #     phi: vec![vec![0.5, 0.5]],
//! #     eta: Eta::uniform(1, 1),
//! #     nu: vec![0.0; cpd_core::features::N_FEATURES],
//! #     topic_popularity: vec![vec![1.0]],
//! #     doc_community: vec![],
//! #     doc_topic: vec![],
//! # };
//! # let config = CpdConfig::new(1, 1);
//! let index = Arc::new(ProfileIndex::build(model, &config));
//! let runtime = ServeRuntime::new(index, None, ServeOptions::default()).unwrap();
//! let server = Server::start("127.0.0.1:0", runtime, ServerOptions::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let answer = client.query(QueryRequest::TopWords { topic: 0, k: 2 }).unwrap();
//! assert!(matches!(answer, QueryResponse::Ranking(_)));
//! let report = server.shutdown();
//! assert_eq!(report.net.connections, 1);
//! ```

pub mod client;
pub mod server;

pub use client::{Client, ClientError, ClientOptions, RetryPolicy};
pub use server::{Server, ServerOptions};
