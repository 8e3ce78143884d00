//! The blocking client: one TCP connection speaking the CPD wire
//! protocol, used by the loopback tests, benches and examples — and a
//! reference implementation for clients in other languages.
//!
//! # Resilience
//!
//! The client is built for servers that *fail well*:
//!
//! * **Timeouts everywhere** — connect, read and write deadlines
//!   default on ([`ClientOptions`]), so a server that dies mid-frame
//!   surfaces as a typed [`ClientError::Timeout`] instead of hanging
//!   the caller forever.
//! * **Retry with backoff** — [`Client::query_batch`] transparently
//!   retries slots answered [`QueryResponse::Overloaded`] and
//!   transient transport failures (connection reset, clean EOF,
//!   timeouts), reconnecting as needed, with capped exponential
//!   backoff and deterministic seeded jitter, all under an overall
//!   per-call budget ([`ClientOptions::call_budget`]). Queries are
//!   read-only and deterministic against a given snapshot, so
//!   resending after an ambiguous failure is safe.
//! * **Deadline propagation** — [`ClientOptions::request_deadline`]
//!   attaches a wire deadline budget to every query so the server can
//!   drop work the client has already given up on.
//!
//! Admin operations (reload, metrics, shutdown…) are **not** retried:
//! they either have side effects or are cheap probes whose failure the
//! caller wants to see.

use cpd_serve::wire::{
    encode_request, read_response, write_request, RequestFrame, ResponseFrame, WireError,
    FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD,
};
use cpd_serve::{HealthStatus, QueryRequest, QueryResponse};
use cpd_telemetry::{ActiveTrace, KeepReason, Trace, TraceConfig, TraceSpanGuard, Tracer};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or codec failure.
    Wire(WireError),
    /// The server answered with a frame-level `Error` (malformed frame
    /// or failed admin operation). Query-level validation errors come
    /// back inside [`QueryResponse::Error`] instead.
    Server(String),
    /// The server answered with a frame class the request cannot
    /// produce (protocol bug on one side).
    Protocol(String),
    /// A connect/read/write deadline expired. `what` names the
    /// operation that timed out.
    Timeout {
        /// The operation that hit its deadline.
        what: &'static str,
    },
    /// The server closed the connection mid-conversation (clean EOF
    /// where a response was due).
    Disconnected,
    /// A query in the batch encodes past the wire's frame limit. The
    /// whole batch is refused before any frame is written, so the
    /// connection stays in sync; resending cannot help, so it is never
    /// retried.
    RequestTooLarge {
        /// Index of the offending query in the batch.
        slot: usize,
        /// Its encoded payload size in bytes.
        payload_bytes: usize,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "client wire failure: {e}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ClientError::Timeout { what } => write!(f, "{what} timed out"),
            ClientError::Disconnected => write!(f, "server closed the connection mid-reply"),
            ClientError::RequestTooLarge {
                slot,
                payload_bytes,
            } => write!(
                f,
                "query in slot {slot} encodes to {payload_bytes} payload bytes, \
                 over the {MAX_FRAME_PAYLOAD}-byte frame limit"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Timeout { .. } => ClientError::Timeout { what: "read" },
            WireError::Io(io) if is_timeout_io(&io) => ClientError::Timeout { what: "io" },
            other => ClientError::Wire(other),
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        if is_timeout_io(&e) {
            ClientError::Timeout { what: "io" }
        } else {
            ClientError::Wire(WireError::Io(e))
        }
    }
}

fn is_timeout_io(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Is this failure worth a reconnect-and-resend? Covers the ways a
/// dying/restarting server or injected fault surfaces at this layer;
/// `Server`/`Protocol` answers are deliberate and final.
fn is_transient(e: &ClientError) -> bool {
    match e {
        ClientError::Timeout { .. } | ClientError::Disconnected => true,
        // Any wire-level failure (I/O error, torn frame decoded as
        // malformed, oversized garbage) means the stream is gone or
        // untrustworthy; a fresh connection is the only way forward
        // and retrying is bounded by the policy either way.
        ClientError::Wire(_) => true,
        ClientError::Server(_) | ClientError::Protocol(_) | ClientError::RequestTooLarge { .. } => {
            false
        }
    }
}

/// Retry/backoff policy for [`Client::query_batch`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retry rounds after the initial attempt (0 = fail fast).
    pub max_retries: u32,
    /// First backoff; doubles each round up to [`max_backoff`].
    ///
    /// [`max_backoff`]: RetryPolicy::max_backoff
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter applied to each backoff
    /// (±25%) — decorrelates a thundering herd of retrying clients
    /// while keeping any single client's schedule replayable.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 4,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
            jitter_seed: 0x5EED,
        }
    }
}

/// Client construction options; the defaults suit a healthy loopback
/// or LAN deployment.
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// TCP connect deadline (`None` = OS default, which can be
    /// minutes).
    pub connect_timeout: Option<Duration>,
    /// Socket read deadline: how long to wait for a response byte
    /// before the call fails with [`ClientError::Timeout`]. Must
    /// comfortably exceed the server's worst honest latency.
    pub read_timeout: Option<Duration>,
    /// Socket write deadline.
    pub write_timeout: Option<Duration>,
    /// Overall per-call budget across every retry round and backoff
    /// sleep in one `query`/`query_batch` call (`None` = bounded only
    /// by the per-attempt timeouts and retry counts).
    pub call_budget: Option<Duration>,
    /// Retry policy for queries (`None` = never retry).
    pub retry: Option<RetryPolicy>,
    /// Wire deadline budget attached to every query, so the server
    /// can drop work this client has stopped waiting for. `None`
    /// sends no deadline (the server's own queue-wait cap still
    /// applies).
    pub request_deadline: Option<Duration>,
    /// Client-side tracing policy. With `sample_one_in > 0` the
    /// client head-samples queries: a sampled query gets a local span
    /// tree (`client_request` root, `send` / `await_response`
    /// children) kept in [`Client::tracer`]'s store, and its
    /// [`cpd_telemetry::TraceContext`] travels on the wire so the
    /// server's spans join the same trace — fetch those with
    /// [`Client::traces`]. The default samples nothing.
    pub trace: TraceConfig,
}

impl Default for ClientOptions {
    fn default() -> Self {
        Self {
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            call_budget: Some(Duration::from_secs(120)),
            retry: Some(RetryPolicy::default()),
            request_deadline: None,
            trace: TraceConfig::default(),
        }
    }
}

/// A blocking connection to a [`Server`](crate::Server).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// The resolved address, kept for reconnects.
    addr: SocketAddr,
    options: ClientOptions,
    /// SplitMix64 state behind the backoff jitter.
    jitter_state: u64,
    /// Client-side tracing: mints trace ids, makes the head-sampling
    /// decision, stores this side's completed traces.
    tracer: Tracer,
}

impl Client {
    /// Connect with [`ClientOptions::default`] (Nagle disabled — the
    /// protocol is request/response and frames are already
    /// write-buffered).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Self::connect_with(addr, ClientOptions::default())
    }

    /// Connect with explicit options.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        options: ClientOptions,
    ) -> Result<Self, ClientError> {
        let mut last_err: Option<ClientError> = None;
        for candidate in addr.to_socket_addrs()? {
            match open_stream(candidate, &options) {
                Ok(stream) => {
                    let jitter_state = options.retry.as_ref().map(|r| r.jitter_seed).unwrap_or(0)
                        ^ 0x9E37_79B9_7F4A_7C15;
                    let read_half = stream.try_clone().map_err(ClientError::from)?;
                    let tracer = Tracer::new(options.trace);
                    return Ok(Self {
                        reader: BufReader::new(read_half),
                        writer: BufWriter::new(stream),
                        addr: candidate,
                        options,
                        jitter_state,
                        tracer,
                    });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or(ClientError::Protocol(
            "address resolved to no candidates".into(),
        )))
    }

    /// Drop the current connection and dial the same address again
    /// (fresh socket, same options). Any unread responses die with the
    /// old socket — callers resend what is still unanswered.
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        let stream = open_stream(self.addr, &self.options)?;
        let read_half = stream.try_clone().map_err(ClientError::from)?;
        self.reader = BufReader::new(read_half);
        self.writer = BufWriter::new(stream);
        Ok(())
    }

    /// One query, one answer.
    pub fn query(&mut self, request: QueryRequest) -> Result<QueryResponse, ClientError> {
        Ok(self
            .query_batch(vec![request])?
            .pop()
            .expect("one response per request"))
    }

    /// Pipeline a batch: every request frame is written before the
    /// first response is read, so the server folds them into one
    /// concurrent `submit_batch` call. Responses come back in request
    /// order.
    ///
    /// A frame-level `Error` arriving in a response slot (e.g. the
    /// server substituting for a response that exceeded the frame
    /// limit) is surfaced **in that slot** as [`QueryResponse::Error`]
    /// — the remaining responses are still read, so the connection
    /// stays in sync for the next call instead of handing later
    /// queries earlier queries' answers.
    ///
    /// With a [`RetryPolicy`] armed, slots answered
    /// [`QueryResponse::Overloaded`] are retried (only those slots are
    /// resent) after a backoff honouring the server's
    /// `retry_after_ms` hint, and transient transport failures
    /// reconnect and resend every still-unanswered slot — queries are
    /// read-only, so a resend after an ambiguous failure cannot
    /// double-apply anything. When retries (or the call budget) run
    /// out, still-shed slots come back as `Overloaded` for the caller
    /// to handle; transport failures surface as the last error.
    ///
    /// A query that encodes past the wire's frame limit fails the
    /// whole call with [`ClientError::RequestTooLarge`] before any
    /// frame is sent.
    pub fn query_batch(
        &mut self,
        requests: Vec<QueryRequest>,
    ) -> Result<Vec<QueryResponse>, ClientError> {
        let started = Instant::now();
        let n = requests.len();
        let mut slots: Vec<Option<QueryResponse>> = (0..n).map(|_| None).collect();
        // Indices (into `requests`) still awaiting a real answer.
        let mut pending: Vec<usize> = (0..n).collect();
        // Head-sample per slot: a sampled slot gets a `client_request`
        // root span held open across retries, and its context rides
        // every (re)send so server spans join the same trace.
        let mut roots: Vec<Option<(ActiveTrace, TraceSpanGuard)>> = (0..n)
            .map(|_| {
                self.tracer.mint(started).map(|t| {
                    let root = t.start_span("client_request", 0);
                    (t, root)
                })
            })
            .collect();
        let policy = self.options.retry.clone();
        let max_retries = policy.as_ref().map_or(0, |p| p.max_retries);
        let mut attempt: u32 = 0;
        loop {
            match self.send_and_collect(&requests, &pending, &roots) {
                Ok(round) => {
                    let mut hint_ms: u64 = 0;
                    let mut still = Vec::new();
                    for (&slot, response) in pending.iter().zip(round) {
                        match response {
                            QueryResponse::Overloaded { retry_after_ms } => {
                                hint_ms = hint_ms.max(retry_after_ms);
                                still.push(slot);
                            }
                            answered => slots[slot] = Some(answered),
                        }
                    }
                    pending = still;
                    if pending.is_empty() {
                        break;
                    }
                    if attempt >= max_retries || self.out_of_budget(started) {
                        // Typed give-up: the caller sees exactly which
                        // slots the server shed, with the final hint.
                        for &slot in &pending {
                            slots[slot] = Some(QueryResponse::Overloaded {
                                retry_after_ms: hint_ms.max(1),
                            });
                        }
                        break;
                    }
                    attempt += 1;
                    self.backoff(attempt, hint_ms, started);
                }
                Err(e) if is_transient(&e) && attempt < max_retries => {
                    if self.out_of_budget(started) {
                        return Err(e);
                    }
                    attempt += 1;
                    self.backoff(attempt, 0, started);
                    // The old stream may hold half a conversation;
                    // only a fresh one has known state. A failed
                    // reconnect is itself transient (the server may be
                    // restarting) — loop and pay another attempt.
                    if let Err(re) = self.reconnect() {
                        if attempt >= max_retries || self.out_of_budget(started) {
                            return Err(re);
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
        // Close the root spans and keep the client-side trees. Shed
        // and errored slots are tagged so the store's tail-kept set
        // matches the server's.
        for (slot, entry) in roots.iter_mut().enumerate() {
            if let Some((trace, root)) = entry.take() {
                root.finish();
                let keep = match slots[slot].as_ref() {
                    Some(QueryResponse::Overloaded { .. }) => KeepReason::Shed,
                    Some(QueryResponse::Error(_)) => KeepReason::Error,
                    _ => KeepReason::Sampled,
                };
                self.tracer.complete(&trace, keep);
            }
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("every slot answered or shed"))
            .collect())
    }

    /// Write the pending requests (with any configured wire deadline
    /// and trace context) and read exactly that many responses. Every
    /// frame is encoded and size-checked before the first is written:
    /// an oversized slot must not leave its predecessors buffered, or
    /// the next call would read their answers as its own.
    fn send_and_collect(
        &mut self,
        requests: &[QueryRequest],
        pending: &[usize],
        roots: &[Option<(ActiveTrace, TraceSpanGuard)>],
    ) -> Result<Vec<QueryResponse>, ClientError> {
        let deadline_ms = self
            .options
            .request_deadline
            .map(|d| d.as_millis().min(u128::from(u32::MAX)) as u32);
        let mut out = Vec::new();
        for &slot in pending {
            let trace = roots[slot].as_ref().map(|(t, root)| t.context(root.id()));
            let send_start = roots[slot].as_ref().map(|_| Instant::now());
            let bytes = encode_request(&RequestFrame::Query {
                request: requests[slot].clone(),
                deadline_ms,
                trace,
            });
            let payload_bytes = bytes.len() - FRAME_HEADER_LEN;
            if payload_bytes > MAX_FRAME_PAYLOAD as usize {
                return Err(ClientError::RequestTooLarge {
                    slot,
                    payload_bytes,
                });
            }
            out.extend_from_slice(&bytes);
            if let (Some((t, root)), Some(start)) = (roots[slot].as_ref(), send_start) {
                t.record_between("send", root.id(), start, Instant::now());
            }
        }
        self.writer.write_all(&out)?;
        self.writer.flush()?;
        let mut responses = Vec::with_capacity(pending.len());
        for (i, &slot) in pending.iter().enumerate() {
            let await_start = roots[slot].as_ref().map(|_| Instant::now());
            match self.read_frame()? {
                ResponseFrame::Response { response, .. } => {
                    if let (Some((t, root)), Some(start)) = (roots[slot].as_ref(), await_start) {
                        t.record_between("await_response", root.id(), start, Instant::now());
                    }
                    responses.push(response);
                }
                ResponseFrame::Error(m) => responses.push(QueryResponse::Error(m)),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "expected response {i} of {}, got {other:?}",
                        pending.len()
                    )))
                }
            }
        }
        Ok(responses)
    }

    fn out_of_budget(&self, started: Instant) -> bool {
        self.options
            .call_budget
            .is_some_and(|b| started.elapsed() >= b)
    }

    /// Sleep `min(max_backoff, base · 2^(attempt-1))`, jittered ±25%
    /// deterministically, raised to the server's `retry_after` hint,
    /// and clipped to whatever call budget remains.
    fn backoff(&mut self, attempt: u32, hint_ms: u64, started: Instant) {
        let Some(policy) = &self.options.retry else {
            return;
        };
        let base = policy.base_backoff.as_millis() as u64;
        let exp = base.saturating_mul(1u64 << (attempt - 1).min(20));
        let capped = exp.min(policy.max_backoff.as_millis() as u64);
        // SplitMix64 step → jitter factor in [0.75, 1.25).
        self.jitter_state = self.jitter_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.jitter_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let jittered = capped / 2 + (capped.max(2) * (z % 512) / 1024);
        let mut sleep_ms = jittered.max(hint_ms);
        if let Some(budget) = self.options.call_budget {
            let remaining = budget.saturating_sub(started.elapsed());
            sleep_ms = sleep_ms.min(remaining.as_millis() as u64);
        }
        if sleep_ms > 0 {
            std::thread::sleep(Duration::from_millis(sleep_ms));
        }
    }

    /// Ask the server to hot-reload its index from a model snapshot at
    /// `path` **on the server's filesystem**; returns the new snapshot
    /// generation.
    pub fn reload(&mut self, path: &str) -> Result<u64, ClientError> {
        match self.round_trip(&RequestFrame::Reload { path: path.into() })? {
            ResponseFrame::Reloaded { generation } => Ok(generation),
            ResponseFrame::Error(m) => Err(ClientError::Server(m)),
            other => Err(ClientError::Protocol(format!(
                "expected Reloaded, got {other:?}"
            ))),
        }
    }

    /// Fetch the server's metrics in Prometheus text exposition format
    /// — per-query-class latency quantiles, trainer sweep spans (when
    /// the fit shared the serve registry), cache and transport
    /// counters. Answered on the connection's reader thread, never
    /// queued behind the query pool, so a scrape works even under full
    /// query load.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.round_trip(&RequestFrame::Metrics)? {
            ResponseFrame::Metrics(text) => Ok(text),
            ResponseFrame::Error(m) => Err(ClientError::Server(m)),
            other => Err(ClientError::Protocol(format!(
                "expected Metrics, got {other:?}"
            ))),
        }
    }

    /// Fetch the server's readiness/liveness probe: pool state, live
    /// snapshot generation and uptime. Like [`Client::metrics`], this
    /// is answered inline rather than through the query pool.
    pub fn health(&mut self) -> Result<HealthStatus, ClientError> {
        match self.round_trip(&RequestFrame::Health)? {
            ResponseFrame::Health(h) => Ok(h),
            ResponseFrame::Error(m) => Err(ClientError::Server(m)),
            other => Err(ClientError::Protocol(format!(
                "expected Health, got {other:?}"
            ))),
        }
    }

    /// Fetch the server's kept traces (newest first): head-sampled
    /// requests plus the tail-kept forensics — sheds, deadline drops,
    /// errors, and anything over the slow threshold. Answered inline
    /// on the connection's reader thread like [`Client::metrics`].
    ///
    /// The client keeps its own half of each sampled trace locally —
    /// see [`Client::tracer`]; matching `trace_id`s join the two
    /// sides.
    pub fn traces(&mut self) -> Result<Vec<Trace>, ClientError> {
        match self.round_trip(&RequestFrame::Traces)? {
            ResponseFrame::Traces(traces) => Ok(traces),
            ResponseFrame::Error(m) => Err(ClientError::Server(m)),
            other => Err(ClientError::Protocol(format!(
                "expected Traces, got {other:?}"
            ))),
        }
    }

    /// The client-side tracer: its store holds this client's span
    /// trees (`client_request` / `send` / `await_response`) for every
    /// head-sampled query, keyed by the same trace ids the server
    /// reports.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Ask the server to stop accepting connections and drain
    /// (acknowledged before this connection closes).
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.round_trip(&RequestFrame::Shutdown)? {
            ResponseFrame::ShuttingDown => Ok(()),
            ResponseFrame::Error(m) => Err(ClientError::Server(m)),
            other => Err(ClientError::Protocol(format!(
                "expected ShuttingDown, got {other:?}"
            ))),
        }
    }

    fn round_trip(&mut self, frame: &RequestFrame) -> Result<ResponseFrame, ClientError> {
        write_request(&mut self.writer, frame)?;
        self.writer.flush()?;
        self.read_frame()
    }

    fn read_frame(&mut self) -> Result<ResponseFrame, ClientError> {
        read_response(&mut self.reader)?.ok_or(ClientError::Disconnected)
    }
}

/// Dial `addr` honouring the connect deadline, then arm the socket's
/// read/write deadlines.
fn open_stream(addr: SocketAddr, options: &ClientOptions) -> Result<TcpStream, ClientError> {
    let stream = match options.connect_timeout {
        Some(limit) => TcpStream::connect_timeout(&addr, limit).map_err(|e| {
            if is_timeout_io(&e) {
                ClientError::Timeout { what: "connect" }
            } else {
                ClientError::from(e)
            }
        })?,
        None => TcpStream::connect(addr).map_err(ClientError::from)?,
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(options.read_timeout);
    let _ = stream.set_write_timeout(options.write_timeout);
    Ok(stream)
}
