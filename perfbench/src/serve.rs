//! The two serve workloads: an open loop over loopback TCP against a
//! snapshot at the paper's serving shape (|C| = |Z| = 50, |W| = 60k,
//! 20k users), written with `io::save_model` and loaded at set-up.
//!
//! * `serve_lookup` — table lookups only; dominated by client / wire /
//!   server / runtime dispatch, and bypasses fold-in, cache and io.
//! * `serve_mixed` — 80% lookups, 20% fold-ins of unseen users with a
//!   heavy-tailed document count (half of them repeat an earlier
//!   `(item, seed)`), plus an admin connection that hot-reloads the
//!   snapshot at fixed points of the schedule.
//!
//! Arrivals follow a seeded Poisson schedule. Each request is timed
//! from when it was **due**, so a stall charges every request queued
//! behind it. Two connection threads share the schedule: an idle
//! connection pipelines every request already due (up to
//! [`MAX_BATCH`]) into one `Client::query_batch`.

use crate::host::{cpu_seconds, peak_rss_mb, CpuTicks};
use crate::report::{within_or_gap, Metric, Report, Shape};
use crate::spans::{Recorder, ROOT};
use crate::stats::{mean, median, quantile, Phase};
use crate::{Outcome, RunArgs};
use cpd_core::{io, CpdConfig, CpdModel, Eta};
use cpd_prob::rng::seeded_rng;
use cpd_serve::wire::{self, RequestFrame, ResponseFrame};
use cpd_serve::{
    FoldIn, FoldInConfig, FoldInItem, FoldScratch, ProfileIndex, QueryRequest, QueryResponse,
    ServeDiagnostics, ServeOptions, ServeRuntime,
};
use cpd_server::{Client, ClientOptions, Server, ServerOptions};
use cpd_telemetry::{Trace, TraceConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};
use social_graph::{UserId, WordId};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One serve workload. The rate and the p99 limit are part of the
/// benchmark's definition (they are quoted in `BENCHMARK.json`); later
/// code is measured against them, it does not move them.
pub struct ServeSpec {
    pub name: &'static str,
    /// Share of requests that are fold-ins.
    pub fold_in_share: f64,
    /// Offered rate of the fixed-rate phase, requests per second.
    pub rate: f64,
    /// Latency limit on p99, milliseconds; `max_qps` is the highest
    /// offered rate that meets it.
    pub p99_limit_ms: f64,
    /// Seconds between admin reloads in the fixed-rate phase (0 = none).
    pub reload_every_s: f64,
}

pub const SERVE_LOOKUP: ServeSpec = ServeSpec {
    name: "serve_lookup",
    fold_in_share: 0.0,
    rate: 2000.0,
    p99_limit_ms: 20.0,
    reload_every_s: 0.0,
};

pub const SERVE_MIXED: ServeSpec = ServeSpec {
    name: "serve_mixed",
    fold_in_share: 0.2,
    rate: 400.0,
    p99_limit_ms: 100.0,
    reload_every_s: 4.0,
};

/// Serve pool workers.
const WORKERS: usize = 2;
/// Query connections, one load thread each (the admin connection of
/// `serve_mixed` only reloads).
const CONNECTIONS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// `ServeOptions::fold_cache_capacity`.
const FOLD_CACHE: usize = 4096;
/// Most requests one connection pipelines into one `query_batch`.
pub const MAX_BATCH: usize = 64;
/// One request in this many (seeded) is checked against the in-process
/// answer.
const CHECK_ONE_IN: u32 = 16;
/// Words per fold-in document.
const DOC_WORDS: usize = 12;
/// Warm-up requests per connection at each set-up.
const WARMUP: usize = 256;
/// A failed request counts as this many times the p99 limit late.
const FAILED_FACTOR: f64 = 10.0;
/// Window of the saturated completion rate.
const SATURATION_WINDOW_S: f64 = 1.0;
/// `p50_ms` is the median over windows of this length of each window's
/// median latency, so one noisy second does not decide a run. With
/// reloads the window is one reload cycle instead, so that every window
/// holds the same share of reload work.
const P50_WINDOW_S: f64 = 0.5;
/// `p99_ms` windows hold about this many requests, so each window's
/// p99 has ten samples beyond it.
const P99_WINDOW_REQUESTS: f64 = 1000.0;

/// Model dimensions: communities, topics, vocabulary, users.
#[derive(Debug, Clone, Copy)]
struct Dims {
    c: usize,
    z: usize,
    v: usize,
    u: usize,
}

fn dims(smoke: bool) -> Dims {
    if smoke {
        Dims {
            c: 8,
            z: 8,
            v: 2_000,
            u: 300,
        }
    } else {
        Dims {
            c: 50,
            z: 50,
            v: 60_000,
            u: 20_000,
        }
    }
}

/// A normalised row with a few dominant entries, like fitted profiles.
fn peaked_simplex(rng: &mut StdRng, n: usize) -> Vec<f64> {
    let mut row: Vec<f64> = (0..n).map(|_| rng.gen::<f64>().powi(6) + 1e-9).collect();
    let total: f64 = row.iter().sum();
    row.iter_mut().for_each(|x| *x /= total);
    row
}

/// The snapshot the server loads: a fully normalised model of the
/// serving shape, generated from the seed.
fn synth_model(d: Dims, seed: u64) -> CpdModel {
    let mut rng = seeded_rng(seed ^ 0x5EED_5E12_0000_0001);
    let eta_counts: Vec<f64> = (0..d.c * d.c * d.z).map(|_| rng.gen::<f64>()).collect();
    CpdModel {
        pi: (0..d.u).map(|_| peaked_simplex(&mut rng, d.c)).collect(),
        theta: (0..d.c).map(|_| peaked_simplex(&mut rng, d.z)).collect(),
        phi: (0..d.z).map(|_| peaked_simplex(&mut rng, d.v)).collect(),
        eta: Eta::from_counts(d.c, d.z, &eta_counts, 0.01),
        nu: vec![0.3; cpd_core::features::N_FEATURES],
        topic_popularity: vec![vec![1.0 / d.z as f64; d.z]; 4],
        doc_community: vec![],
        doc_topic: vec![],
    }
}

/// A seeded request schedule. `due` is seconds from the phase start.
struct Stream {
    due: Vec<f64>,
    reqs: Vec<QueryRequest>,
    check: Vec<bool>,
}

/// A shuffled deck: each pass deals every card once, so the request
/// mix is the same for every seed and only its order and content vary.
struct Deck<T> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    fn new(cards: Vec<T>) -> Self {
        Deck { cards, next: 0 }
    }

    fn deal(&mut self, rng: &mut StdRng) -> T {
        if self.next == 0 {
            self.cards.shuffle(rng);
        }
        let card = self.cards[self.next];
        self.next = (self.next + 1) % self.cards.len();
        card
    }
}

/// Seeded request generator. Content and arrival gaps come from two
/// separate streams, so the i-th request is the same whatever rate the
/// schedule is stretched to.
struct Gen {
    content: StdRng,
    timing: StdRng,
    d: Dims,
    /// Fold-in (`true`) or lookup, per request.
    fold_in: Deck<bool>,
    /// Which of the seven lookup classes.
    lookup_kind: Deck<u8>,
    /// Repeat an earlier `(item, seed)` (`true`) or profile a new user.
    repeat: Deck<bool>,
    /// Documents of a new user: most have 1–2, a few 50 or more.
    n_docs: Deck<usize>,
    pool: Vec<(FoldInItem, u64)>,
}

impl Gen {
    fn new(seed: u64, stream: u64, d: Dims, fold_in_share: f64) -> Self {
        let base = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        let fold_ins = (fold_in_share * 10.0).round() as usize;
        let mut n_docs = vec![1; 55];
        n_docs.extend([2; 30]);
        n_docs.extend((3..=8).flat_map(|n| [n, n]));
        n_docs.extend([50, 65, 80]);
        Gen {
            content: seeded_rng(base ^ 0xC0),
            timing: seeded_rng(base ^ 0x71),
            d,
            fold_in: Deck::new((0..10).map(|i| i < fold_ins).collect()),
            lookup_kind: Deck::new((0..7).collect()),
            repeat: Deck::new(vec![true, false]),
            n_docs: Deck::new(n_docs),
            pool: Vec::new(),
        }
    }

    fn words(&mut self, n: usize) -> Vec<WordId> {
        (0..n)
            .map(|_| WordId(self.content.gen_range(0..self.d.v as u32)))
            .collect()
    }

    fn user(&mut self) -> UserId {
        UserId(self.content.gen_range(0..self.d.u as u32))
    }

    fn lookup(&mut self) -> QueryRequest {
        let (c, z) = (self.d.c, self.d.z);
        match self.lookup_kind.deal(&mut self.content) {
            0 => {
                let n = self.content.gen_range(1..=4usize);
                QueryRequest::RankCommunities {
                    query: self.words(n),
                }
            }
            1 => {
                let n = self.content.gen_range(1..=4usize);
                QueryRequest::QueryTopics {
                    query: self.words(n),
                }
            }
            2 => QueryRequest::TopWords {
                topic: self.content.gen_range(0..z),
                k: 10,
            },
            3 => QueryRequest::CommunityTopics {
                community: self.content.gen_range(0..c),
                k: 5,
            },
            4 => QueryRequest::PairTopics {
                from: self.content.gen_range(0..c),
                to: self.content.gen_range(0..c),
                k: 5,
            },
            5 => QueryRequest::UserProfile { user: self.user() },
            _ => QueryRequest::FriendshipScore {
                u: self.user(),
                v: self.user(),
            },
        }
    }

    /// An unseen user, or a repeat of an earlier one (same seed, so the
    /// answer is the cached one).
    fn fold_in(&mut self) -> QueryRequest {
        if self.repeat.deal(&mut self.content) && !self.pool.is_empty() {
            let (item, seed) = self.pool[self.content.gen_range(0..self.pool.len())].clone();
            return QueryRequest::FoldIn { item, seed };
        }
        let n_docs = self.n_docs.deal(&mut self.content);
        let docs = (0..n_docs).map(|_| self.words(DOC_WORDS)).collect();
        let n_friends = self.content.gen_range(0..=4usize);
        let friends = (0..n_friends).map(|_| self.user()).collect();
        let item = FoldInItem::user(docs, friends);
        let seed = self.content.next_u64();
        self.pool.push((item.clone(), seed));
        QueryRequest::FoldIn { item, seed }
    }

    fn request(&mut self) -> QueryRequest {
        if self.fold_in.deal(&mut self.content) {
            self.fold_in()
        } else {
            self.lookup()
        }
    }

    /// Poisson arrivals at `rate` for `seconds`.
    fn stream(&mut self, rate: f64, seconds: f64) -> Stream {
        let mut s = Stream {
            due: Vec::new(),
            reqs: Vec::new(),
            check: Vec::new(),
        };
        let mut t = 0.0;
        loop {
            let u: f64 = self.timing.gen();
            t += -(1.0 - u).ln() / rate;
            if t >= seconds {
                return s;
            }
            s.due.push(t);
            s.reqs.push(self.request());
            s.check.push(self.timing.gen_range(0..CHECK_ONE_IN) == 0);
        }
    }

    /// `n` requests with no schedule (warm-up and the layer ladder).
    fn batch(&mut self, n: usize) -> Vec<QueryRequest> {
        (0..n).map(|_| self.request()).collect()
    }
}

/// The in-process answer a served response must equal exactly.
fn oracle(
    index: &ProfileIndex,
    scratch: &mut FoldScratch,
    req: &QueryRequest,
) -> Result<QueryResponse, String> {
    Ok(match req {
        QueryRequest::RankCommunities { query } => {
            QueryResponse::Ranking(index.rank_communities(query))
        }
        QueryRequest::QueryTopics { query } => QueryResponse::Ranking(index.query_topics(query)),
        QueryRequest::TopWords { topic, k } => QueryResponse::Ranking(index.top_words(*topic, *k)),
        QueryRequest::CommunityTopics { community, k } => {
            QueryResponse::Ranking(index.top_topics_of_community(*community, *k))
        }
        QueryRequest::PairTopics { from, to, k } => {
            QueryResponse::Ranking(index.pair_top_topics(*from, *to, *k))
        }
        QueryRequest::UserProfile { user } => {
            let membership = index.user_membership(*user).to_vec();
            let dominant = cpd_core::dominant_index(&membership);
            QueryResponse::Profile {
                membership,
                dominant,
            }
        }
        QueryRequest::FriendshipScore { u, v } => {
            QueryResponse::Score(index.friendship_score(*u, *v))
        }
        QueryRequest::FoldIn { item, seed } => {
            let engine = FoldIn::new(index, FoldInConfig::default())?;
            QueryResponse::FoldedIn(Box::new(engine.profile_with_seed(item, *seed, scratch)))
        }
        QueryRequest::DiffusionScore { .. } => {
            return Err("the workloads send no diffusion scores".into())
        }
    })
}

/// The layer a lookup executes in, named after the runtime's classes.
fn class(req: &QueryRequest) -> &'static str {
    match req {
        QueryRequest::RankCommunities { .. } | QueryRequest::QueryTopics { .. } => "ranking",
        QueryRequest::TopWords { .. }
        | QueryRequest::CommunityTopics { .. }
        | QueryRequest::PairTopics { .. } => "top_words",
        QueryRequest::UserProfile { .. } => "profile",
        QueryRequest::FriendshipScore { .. } | QueryRequest::DiffusionScore { .. } => "link_score",
        QueryRequest::FoldIn { .. } => "fold_in",
    }
}

fn is_lookup(req: &QueryRequest) -> bool {
    !matches!(req, QueryRequest::FoldIn { .. })
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Ok,
    Overloaded,
    Error,
    ClientError,
}

fn kind(r: &QueryResponse) -> Kind {
    match r {
        QueryResponse::Overloaded { .. } => Kind::Overloaded,
        QueryResponse::Error(_) => Kind::Error,
        _ => Kind::Ok,
    }
}

fn count(phase: &mut Phase, k: Kind) {
    phase.attempted += 1;
    match k {
        Kind::Ok => phase.succeeded += 1,
        Kind::Overloaded => phase.overloaded += 1,
        Kind::Error => phase.error += 1,
        Kind::ClientError => phase.client_error += 1,
    }
}

/// What one connection thread saw.
#[derive(Default)]
struct ConnOut {
    results: Vec<(usize, f64, Kind)>,
    batches: u64,
    lateness_ms: Vec<f64>,
    checked: Vec<(usize, QueryResponse)>,
}

/// One open-loop phase.
struct LoopOut {
    /// Latency from due time per request (ms); `INFINITY` when it
    /// failed.
    lat_ms: Vec<f64>,
    phase: Phase,
    batches: u64,
    lateness_ms: Vec<f64>,
    checked: Vec<(usize, QueryResponse)>,
    reload_s: Vec<f64>,
    reload_failures: Vec<String>,
}

fn conn_loop(client: &mut Client, stream: &Stream, start: Instant, next: &AtomicUsize) -> ConnOut {
    let n = stream.reqs.len();
    let due = |i: usize| start + Duration::from_secs_f64(stream.due[i]);
    let mut out = ConnOut::default();
    let mut waited_for = None;
    loop {
        let i = next.load(Ordering::Acquire);
        if i >= n {
            break;
        }
        let now = Instant::now();
        if now < due(i) {
            std::thread::sleep(due(i) - now);
            waited_for = Some(i);
            continue;
        }
        let mut j = i + 1;
        while j < n && j < i + MAX_BATCH && due(j) <= now {
            j += 1;
        }
        if next
            .compare_exchange(i, j, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            continue;
        }
        let sent = Instant::now();
        if waited_for.take() == Some(i) {
            out.lateness_ms
                .push(sent.duration_since(due(i)).as_secs_f64() * 1e3);
        }
        out.batches += 1;
        let answers = client.query_batch(stream.reqs[i..j].to_vec());
        let done = Instant::now();
        match answers {
            Ok(responses) => {
                for (k, r) in (i..j).zip(responses) {
                    let lat = done.saturating_duration_since(due(k)).as_secs_f64() * 1e3;
                    out.results.push((k, lat, kind(&r)));
                    if stream.check[k] {
                        out.checked.push((k, r));
                    }
                }
            }
            Err(_) => {
                for k in i..j {
                    out.results.push((k, f64::INFINITY, Kind::ClientError));
                }
            }
        }
    }
    out
}

/// Run `stream` open-loop over `clients`; the admin connection, if
/// any, reloads `snapshot` at each offset of `reload_at`.
fn open_loop(
    clients: &mut [Client],
    admin: Option<&mut Client>,
    snapshot: &str,
    reload_at: &[f64],
    stream: &Stream,
    name: &str,
) -> LoopOut {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let (conns, reloads) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                s.spawn(move || conn_loop(client, stream, start, next))
            })
            .collect();
        let reloader = admin.map(|admin| {
            s.spawn(move || {
                let mut times = Vec::new();
                let mut failures = Vec::new();
                for &at in reload_at {
                    let when = start + Duration::from_secs_f64(at);
                    if let Some(wait) = when.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let t = Instant::now();
                    match admin.reload(snapshot) {
                        Ok(_) => times.push(t.elapsed().as_secs_f64()),
                        Err(e) => failures.push(format!("reload at {at:.1}s: {e}")),
                    }
                }
                (times, failures)
            })
        });
        let conns: Vec<ConnOut> = handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect();
        let reloads = reloader.map(|h| h.join().expect("reload thread panicked"));
        (conns, reloads)
    });
    let mut out = LoopOut {
        lat_ms: vec![f64::INFINITY; stream.reqs.len()],
        phase: Phase::new(name),
        batches: 0,
        lateness_ms: Vec::new(),
        checked: Vec::new(),
        reload_s: Vec::new(),
        reload_failures: Vec::new(),
    };
    for c in conns {
        for (i, lat, k) in c.results {
            out.lat_ms[i] = if k == Kind::Ok { lat } else { f64::INFINITY };
            count(&mut out.phase, k);
        }
        out.batches += c.batches;
        out.lateness_ms.extend(c.lateness_ms);
        out.checked.extend(c.checked);
    }
    if let Some((times, failures)) = reloads {
        out.reload_s = times;
        out.reload_failures = failures;
    }
    out
}

/// A running server with its connections.
struct Session {
    server: Server,
    clients: Vec<Client>,
    admin: Client,
}

impl Session {
    fn stop(self) -> ServeDiagnostics {
        drop(self.clients);
        drop(self.admin);
        self.server.shutdown()
    }
}

/// Timings of one set-up.
struct Setup {
    load_s: f64,
    build_s: f64,
    total_s: f64,
}

fn serve_options(trace: TraceConfig) -> ServeOptions {
    ServeOptions {
        workers: WORKERS,
        fold_cache_capacity: FOLD_CACHE,
        trace,
        ..ServeOptions::default()
    }
}

fn client_options(trace: TraceConfig) -> ClientOptions {
    ClientOptions {
        trace,
        ..ClientOptions::default()
    }
}

/// Load the snapshot, build the index, start the server, connect and
/// warm up. Returns the session and the index it serves.
fn set_up(
    snapshot: &Path,
    config: &CpdConfig,
    trace: TraceConfig,
    warmup: &[QueryRequest],
    spans: &mut Recorder,
    parent: u32,
    phase: &mut Phase,
) -> Result<(Session, Arc<ProfileIndex>, Setup), String> {
    let start = Instant::now();
    let model = spans
        .time("io.load_model", parent, u64::MAX, || {
            io::load_model(snapshot)
        })
        .map_err(|e| e.to_string())?;
    let load_s = start.elapsed().as_secs_f64();
    let t = Instant::now();
    let index = Arc::new(spans.time("index.build", parent, u64::MAX, || {
        ProfileIndex::build(model, config)
    }));
    let build_s = t.elapsed().as_secs_f64();
    let runtime = ServeRuntime::new(Arc::clone(&index), None, serve_options(trace))?;
    let server = Server::start("127.0.0.1:0", runtime, ServerOptions::default())
        .map_err(|e| format!("server start: {e}"))?;
    let addr = server.local_addr();
    let connect = || Client::connect_with(addr, client_options(trace)).map_err(|e| e.to_string());
    let mut clients = (0..CONNECTIONS)
        .map(|_| connect())
        .collect::<Result<Vec<_>, _>>()?;
    let admin = connect()?;
    for client in &mut clients {
        for chunk in warmup.chunks(16) {
            match client.query_batch(chunk.to_vec()) {
                Ok(rs) => rs.iter().for_each(|r| count(phase, kind(r))),
                Err(_) => chunk.iter().for_each(|_| count(phase, Kind::ClientError)),
            }
        }
    }
    let total_s = start.elapsed().as_secs_f64();
    Ok((
        Session {
            server,
            clients,
            admin,
        },
        index,
        Setup {
            load_s,
            build_s,
            total_s,
        },
    ))
}

/// Check every sampled served answer against the in-process one.
fn check_answers(
    index: &ProfileIndex,
    stream: &Stream,
    checked: &[(usize, QueryResponse)],
    failures: &mut Vec<String>,
) {
    let mut scratch = FoldScratch::new();
    let mut bad = 0;
    for (i, served) in checked {
        if kind(served) != Kind::Ok {
            continue; // counted as failed, nothing to compare
        }
        match oracle(index, &mut scratch, &stream.reqs[*i]) {
            Ok(expected) if &expected == served => {}
            Ok(_) => {
                bad += 1;
                if bad <= 3 {
                    failures.push(format!(
                        "request {i} ({}) answered differently from the in-process index",
                        class(&stream.reqs[*i])
                    ));
                }
            }
            Err(e) => failures.push(e),
        }
    }
    if bad > 3 {
        failures.push(format!("{bad} served answers differ in total"));
    }
}

/// Capacity: both connections pipeline full batches back to back for
/// `seconds` (a closed loop with no idle time), and the completion rate
/// is taken per `SATURATION_WINDOW_S` window; returns the median window
/// rate. Requests come from a fresh seeded stream of the workload's mix.
fn saturate(clients: &mut [Client], gen: Gen, seconds: f64, phase: &mut Phase) -> f64 {
    let gen = Mutex::new(gen);
    let start = Instant::now();
    let per_conn: Vec<(Vec<(f64, u64)>, Phase)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let gen = &gen;
                s.spawn(move || {
                    let mut done = Vec::new();
                    let mut phase = Phase::new("saturate");
                    while start.elapsed().as_secs_f64() < seconds {
                        let batch = gen.lock().expect("generator lock").batch(MAX_BATCH);
                        let n = batch.len();
                        match client.query_batch(batch) {
                            Ok(rs) => {
                                let ok = rs.iter().filter(|r| kind(r) == Kind::Ok).count();
                                rs.iter().for_each(|r| count(&mut phase, kind(r)));
                                done.push((start.elapsed().as_secs_f64(), ok as u64));
                            }
                            Err(_) => (0..n).for_each(|_| count(&mut phase, Kind::ClientError)),
                        }
                    }
                    (done, phase)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("saturation thread panicked"))
            .collect()
    });
    let n_windows = (seconds / SATURATION_WINDOW_S) as usize;
    let mut per_window = vec![0u64; n_windows.max(1)];
    for (done, p) in &per_conn {
        phase.add(p);
        for &(t, n) in done {
            if let Some(w) = per_window.get_mut((t / SATURATION_WINDOW_S) as usize) {
                *w += n;
            }
        }
    }
    let rates: Vec<f64> = per_window
        .iter()
        .map(|&n| n as f64 / SATURATION_WINDOW_S)
        .collect();
    median(&rates)
}

/// Server-side stage medians (µs) from the server's kept traces. Medians,
/// because the first request of a batch has its `socket_read` span start
/// before the reader blocks, so it carries the connection's idle time.
fn server_stages(traces: &[Trace]) -> [(&'static str, f64); 4] {
    let stage = |pick: &dyn Fn(&str) -> bool| -> f64 {
        let v: Vec<f64> = traces
            .iter()
            .flat_map(|t| t.spans.iter())
            .filter(|s| pick(&s.name))
            .map(|s| s.duration_nanos() as f64 * 1e-3)
            .collect();
        median(&v)
    };
    [
        ("server.socket_read_us", stage(&|n| n == "socket_read")),
        ("server.queue_wait_us", stage(&|n| n == "queue_wait")),
        ("server.execute_us", stage(&|n| n.starts_with("execute."))),
        ("server.encode_write_us", stage(&|n| n == "encode_write")),
    ]
}

/// Per-layer figures (µs per request) from replaying one request list
/// down the ladder, read back from the spans the ladder recorded.
struct Ladder {
    exec_us: Vec<(&'static str, f64)>,
    foldin_us: f64,
    foldin_tokens: f64,
    dispatch_us: f64,
    submit_us: f64,
    encode_us: f64,
    decode_us: f64,
    round_trip_us: f64,
}

/// The span each lookup class executes under in the direct rung.
const INDEX_SPANS: [(&str, &str); 4] = [
    ("ranking", "index.ranking"),
    ("top_words", "index.top_words"),
    ("profile", "index.profile"),
    ("link_score", "index.link_score"),
];

/// Replay `reqs` at each layer: `ProfileIndex`/`FoldIn` direct →
/// `ServeRuntime::submit_batch` → wire codec in memory → loopback TCP.
/// The runtime, wire and TCP rungs replay the lookups only: fold-ins
/// would answer from the cache there, which is not like for like.
fn ladder(
    reqs: &[QueryRequest],
    index: &ProfileIndex,
    runtime: &ServeRuntime,
    client: &mut Client,
    spans: &mut Recorder,
) -> Result<Ladder, String> {
    let mut scratch = FoldScratch::new();
    let engine = FoldIn::new(index, FoldInConfig::default())?;
    let mut fold_tokens = Vec::new();
    let mut lookups = Vec::new();

    let rung = spans.open("ladder.direct", ROOT, u64::MAX);
    for (i, req) in reqs.iter().enumerate() {
        let start = Instant::now();
        let answer = match req {
            QueryRequest::FoldIn { item, seed } => QueryResponse::FoldedIn(Box::new(
                engine.profile_with_seed(item, *seed, &mut scratch),
            )),
            lookup => oracle(index, &mut scratch, lookup)?,
        };
        let end = Instant::now();
        std::hint::black_box(&answer);
        let name = match INDEX_SPANS.iter().find(|(c, _)| *c == class(req)) {
            Some(&(_, span)) => {
                lookups.push(i);
                span
            }
            None => {
                if let QueryRequest::FoldIn { item, .. } = req {
                    fold_tokens.push(item.docs.iter().map(Vec::len).sum::<usize>() as f64);
                }
                "foldin.profile_with_seed"
            }
        };
        spans.record(name, rung, i as u64, start, end);
    }
    spans.close(rung);

    let rung = spans.open("ladder.runtime", ROOT, u64::MAX);
    let mut answers = Vec::with_capacity(lookups.len());
    for &i in &lookups {
        let start = Instant::now();
        let mut r = runtime.submit_batch(vec![reqs[i].clone()]);
        spans.record(
            "runtime.submit_batch",
            rung,
            i as u64,
            start,
            Instant::now(),
        );
        answers.push(r.pop().ok_or("runtime answered nothing")?);
    }
    spans.close(rung);

    let rung = spans.open("ladder.wire", ROOT, u64::MAX);
    for (&i, answer) in lookups.iter().zip(answers) {
        let request = RequestFrame::Query {
            request: reqs[i].clone(),
            deadline_ms: None,
            trace: None,
        };
        let response = ResponseFrame::Response {
            response: answer,
            trace_id: None,
        };
        let t0 = Instant::now();
        let req_bytes = wire::encode_request(&request);
        let t1 = Instant::now();
        let back = wire::read_request(&mut req_bytes.as_slice()).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        let resp_bytes = wire::encode_response(&response);
        let t3 = Instant::now();
        let answer_back =
            wire::read_response(&mut resp_bytes.as_slice()).map_err(|e| e.to_string())?;
        let t4 = Instant::now();
        if back.as_ref() != Some(&request) || answer_back.as_ref() != Some(&response) {
            return Err(format!("wire round trip changed request {i}"));
        }
        spans.record("wire.encode_request", rung, i as u64, t0, t1);
        spans.record("wire.read_request", rung, i as u64, t1, t2);
        spans.record("wire.encode_response", rung, i as u64, t2, t3);
        spans.record("wire.read_response", rung, i as u64, t3, t4);
    }
    spans.close(rung);

    let rung = spans.open("ladder.tcp", ROOT, u64::MAX);
    for &i in &lookups {
        let start = Instant::now();
        let r = client.query(reqs[i].clone()).map_err(|e| e.to_string())?;
        spans.record("tcp.round_trip", rung, i as u64, start, Instant::now());
        std::hint::black_box(r);
    }
    spans.close(rung);

    let times = spans.self_times();
    let us = |name: &str| times.get(name).map_or(0.0, |t| t.mean_self_us());
    let direct = INDEX_SPANS
        .iter()
        .filter_map(|(_, span)| times.get(span))
        .fold((0, 0), |(n, ns), t| (n + t.count, ns + t.self_ns));
    let direct_us = direct.1 as f64 / direct.0.max(1) as f64 * 1e-3;
    let submit_us = us("runtime.submit_batch");
    Ok(Ladder {
        exec_us: INDEX_SPANS.iter().map(|&(c, span)| (c, us(span))).collect(),
        foldin_us: us("foldin.profile_with_seed"),
        foldin_tokens: mean(&fold_tokens),
        dispatch_us: submit_us - direct_us,
        submit_us,
        encode_us: us("wire.encode_request") + us("wire.encode_response"),
        decode_us: us("wire.read_request") + us("wire.read_response"),
        round_trip_us: us("tcp.round_trip"),
    })
}

/// Tracing overhead per lookup round trip, from paired blocks run
/// alternately on an untraced and a traced server/client pair (the
/// order flips every pair). Returns (overhead µs, untraced µs, traced µs).
fn paired_overhead(
    reqs: &[QueryRequest],
    plain: &mut Client,
    traced: &mut Client,
    budget: Duration,
    spans: &mut Recorder,
) -> Result<(f64, f64, f64), String> {
    const BLOCK: usize = 50;
    let lookups: Vec<&QueryRequest> = reqs.iter().filter(|r| is_lookup(r)).collect();
    let mut block_mean = |client: &mut Client, block: &[&QueryRequest], name| {
        let start = Instant::now();
        for r in block {
            client.query((*r).clone()).map_err(|e| e.to_string())?;
        }
        spans.record(name, ROOT, u64::MAX, start, Instant::now());
        Ok::<f64, String>(start.elapsed().as_secs_f64() / block.len() as f64 * 1e6)
    };
    let (mut diffs, mut plain_us, mut traced_us) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut k = 0;
    while (k < 4 || start.elapsed() < budget) && k < 400 && !lookups.is_empty() {
        let off = (k * BLOCK) % lookups.len();
        let block: Vec<&QueryRequest> = lookups
            .iter()
            .cycle()
            .skip(off)
            .take(BLOCK)
            .copied()
            .collect();
        let (p, t) = if k % 2 == 0 {
            let p = block_mean(plain, &block, "pair.untraced")?;
            (p, block_mean(traced, &block, "pair.traced")?)
        } else {
            let t = block_mean(traced, &block, "pair.traced")?;
            (block_mean(plain, &block, "pair.untraced")?, t)
        };
        diffs.push(t - p);
        plain_us.push(p);
        traced_us.push(t);
        k += 1;
    }
    Ok((median(&diffs), median(&plain_us), median(&traced_us)))
}

/// Quantile `q` of the picked requests' latencies within each
/// `window_s` slice of the schedule (by due time), medianed over the
/// slices. A slice with under half the typical count (the tail end of
/// the schedule) is left out.
fn windowed_quantile(
    out: &LoopOut,
    stream: &Stream,
    pick: impl Fn(usize) -> bool,
    window_s: f64,
    q: f64,
) -> f64 {
    let n_windows = (stream.due.last().copied().unwrap_or(0.0) / window_s) as usize + 1;
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); n_windows];
    for (i, &lat) in out.lat_ms.iter().enumerate() {
        if pick(i) {
            windows[(stream.due[i] / window_s) as usize].push(lat);
        }
    }
    let typical = windows.iter().map(Vec::len).max().unwrap_or(0);
    let per_window: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty() && 2 * w.len() >= typical)
        .map(|w| quantile(w, q))
        .collect();
    median(&per_window)
}

fn reload_offsets(spec: &ServeSpec, fixed_s: f64) -> Vec<f64> {
    if spec.reload_every_s <= 0.0 {
        return Vec::new();
    }
    let mut at = Vec::new();
    let mut t = spec.reload_every_s / 2.0;
    while t < fixed_s {
        at.push(t);
        t += spec.reload_every_s;
    }
    at
}

pub fn run(spec: &ServeSpec, args: &RunArgs, epoch: Instant) -> Result<Outcome, String> {
    let mut spans = Recorder::new(epoch);
    let d = dims(args.smoke);
    let config = CpdConfig {
        seed: args.seed,
        ..CpdConfig::new(d.c, d.z)
    };

    // Inputs: the snapshot and the request streams, from the seed.
    let snapshot = args
        .work_dir
        .join(format!("{}-{}.cpd", spec.name, args.seed));
    io::save_model(&synth_model(d, args.seed), &snapshot).map_err(|e| e.to_string())?;
    let snapshot_str = snapshot
        .to_str()
        .ok_or("snapshot path is not UTF-8")?
        .to_string();
    let warmup = Gen::new(args.seed, 1, d, spec.fold_in_share).batch(WARMUP);
    let seconds = args.seconds as f64;
    let mut fixed_s = if args.trace { 0.4 } else { 0.5 } * seconds;
    if spec.reload_every_s > 0.0 {
        // A whole number of reload cycles.
        fixed_s = (fixed_s / spec.reload_every_s).ceil() * spec.reload_every_s;
    }
    let fixed = Gen::new(args.seed, 2, d, spec.fold_in_share).stream(spec.rate, fixed_s);
    let reload_at = reload_offsets(spec, fixed_s);

    let untraced = TraceConfig::default();
    let traced = TraceConfig {
        sample_one_in: 1,
        store_capacity: 4096,
        ..TraceConfig::default()
    };
    let trace_cfg = if args.trace { traced } else { untraced };

    // Set-up, several times; the last session is measured.
    let mut warm_phase = Phase::new("warmup");
    let mut setups = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPS {
        if let Some((session, _)) = live.take() {
            Session::stop(session);
        }
        let span = spans.open("setup", ROOT, rep as u64);
        let (session, index, setup) = set_up(
            &snapshot,
            &config,
            trace_cfg,
            &warmup,
            &mut spans,
            span,
            &mut warm_phase,
        )?;
        spans.close(span);
        setups.push(setup);
        live = Some((session, index));
    }
    let (mut session, index) = live.expect("at least one set-up");
    let setup_s = median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>());
    let load_s = median(&setups.iter().map(|s| s.load_s).collect::<Vec<_>>());
    let build_s = median(&setups.iter().map(|s| s.build_s).collect::<Vec<_>>());

    // Fixed-rate phase.
    let before = session.server.diagnostics();
    let cpu0 = cpu_seconds();
    let span = spans.open("phase.fixed", ROOT, u64::MAX);
    let out = open_loop(
        &mut session.clients,
        Some(&mut session.admin),
        &snapshot_str,
        &reload_at,
        &fixed,
        "fixed",
    );
    spans.close(span);
    let fixed_cpu_us = (cpu_seconds() - cpu0) / out.phase.attempted.max(1) as f64 * 1e6;
    let after = session.server.diagnostics();

    let mut failures = out.reload_failures.clone();
    check_answers(&index, &fixed, &out.checked, &mut failures);
    // Failed requests are infinitely late; a quantile they reach reads
    // as `FAILED_FACTOR` times the limit.
    let cap = FAILED_FACTOR * spec.p99_limit_ms;
    let p50_window = if spec.reload_every_s > 0.0 {
        spec.reload_every_s
    } else {
        P50_WINDOW_S
    };
    let window_s = (P99_WINDOW_REQUESTS / spec.rate).max(p50_window);
    let p50 = windowed_quantile(&out, &fixed, |_| true, p50_window, 0.5).min(cap);
    let p99 = windowed_quantile(&out, &fixed, |_| true, window_s, 0.99).min(cap);
    let p99_lookup =
        windowed_quantile(&out, &fixed, |i| is_lookup(&fixed.reqs[i]), window_s, 0.99).min(cap);
    let rss_mb = peak_rss_mb();
    let reload_s = median(&out.reload_s);
    let sent: u64 = out.phase.attempted;
    let cache_hits = after.cache.hits - before.cache.hits;
    let cache_misses = after.cache.misses - before.cache.misses;
    let hit_rate = if cache_hits + cache_misses == 0 {
        0.0
    } else {
        cache_hits as f64 / (cache_hits + cache_misses) as f64
    };
    // Every query frame beyond one per request (and one per reload)
    // is a client resend.
    let retries = (after.net.frames_in - before.net.frames_in)
        .saturating_sub(sent + out.reload_s.len() as u64 + out.reload_failures.len() as u64);
    let mut phases = vec![warm_phase, out.phase.clone()];

    let m = Metric::new;
    let mut metrics = Vec::new();
    let mut layer_sums = Vec::new();
    if !out.reload_s.is_empty() {
        layer_sums.push(format!(
            "reload: Client::reload {reload_s:.4} s = io.load {load_s:.4} + index.build {build_s:.4} \
             + gap handle.swap_s {:.4}; named layers cover {:.1}%{}",
            reload_s - load_s - build_s,
            100.0 * (load_s + build_s) / reload_s,
            within_or_gap(load_s + build_s, reload_s, "handle.swap_s"),
        ));
    }

    if !args.trace {
        // Capacity: the saturated completion rate.
        let mut sat_phase = Phase::new("saturate");
        let gen = Gen::new(args.seed, 4, d, spec.fold_in_share);
        let cpu0 = cpu_seconds();
        let ticks0 = CpuTicks::now();
        let qps = saturate(&mut session.clients, gen, 0.4 * seconds, &mut sat_phase);
        let sat_cpu_us = (cpu_seconds() - cpu0) / sat_phase.attempted.max(1) as f64 * 1e6;
        let steal = CpuTicks::now().steal_share_since(&ticks0);
        layer_sums.push(format!(
            "capacity: {qps:.0} req/s saturated over {CONNECTIONS} pipelined connections, \
             {sat_cpu_us:.1} us CPU per request, {:.1}% of the machine's CPU time stolen; \
             fixed-rate p99 {p99:.3} ms {} the {} ms limit",
            100.0 * steal,
            if p99 <= spec.p99_limit_ms {
                "within"
            } else {
                "over"
            },
            spec.p99_limit_ms
        ));
        phases.push(sat_phase);
        let timed = phases[1..].iter().fold(Phase::new("timed"), |mut acc, p| {
            acc.add(p);
            acc
        });
        let error_rate = timed.failed() as f64 / timed.attempted.max(1) as f64;
        metrics.extend([
            m("setup_s", setup_s, "s"),
            m("cpu_us_per_op", sat_cpu_us, "us"),
            m("peak_rss_mb", rss_mb, "MB"),
            m("max_qps", qps, "req/s"),
            m("p50_ms", p50, "ms"),
            m("p99_ms", p99, "ms"),
            m("fixed_cpu_us_per_req", fixed_cpu_us, "us"),
            m("steal_share", steal, "ratio"),
            m("error_rate", error_rate, "1"),
            m("p99_lookup_ms", p99_lookup, "ms"),
        ]);
        if spec.reload_every_s > 0.0 {
            metrics.push(m("reload_s", reload_s, "s"));
        }
        metrics.extend([
            m("offered_rate", spec.rate, "req/s"),
            m("p99_limit_ms", spec.p99_limit_ms, "ms"),
        ]);
        Session::stop(session);
    } else {
        // A second, untraced server on the same index for the ladder's
        // TCP rung and the paired overhead blocks.
        let runtime = ServeRuntime::new(Arc::clone(&index), None, serve_options(untraced))?;
        let plain_server = Server::start("127.0.0.1:0", runtime, ServerOptions::default())
            .map_err(|e| format!("server start: {e}"))?;
        let mut plain = Client::connect(plain_server.local_addr()).map_err(|e| e.to_string())?;
        let n_ladder = if args.smoke { 100 } else { 2000 };
        let ladder_reqs = Gen::new(args.seed, 3, d, spec.fold_in_share).batch(n_ladder);
        let ladder_out = ladder(
            &ladder_reqs,
            &index,
            plain_server.runtime(),
            &mut plain,
            &mut spans,
        )?;
        let pair_budget = Duration::from_secs_f64(0.25 * seconds);
        let (overhead_us, plain_rt, traced_rt) = paired_overhead(
            &ladder_reqs,
            &mut plain,
            &mut session.clients[0],
            pair_budget,
            &mut spans,
        )?;
        drop(plain);
        plain_server.shutdown();

        // Server-side stages from the traced server's own spans; the
        // newest traces in its store are the traced paired blocks.
        let traces = session
            .admin
            .traces()
            .map_err(|e| format!("fetching server traces: {e}"))?;
        let stages = server_stages(&traces);

        let wire_us = ladder_out.encode_us + ladder_out.decode_us;
        let exec_us = ladder_out.submit_us - ladder_out.dispatch_us;
        let socket_us = ladder_out.round_trip_us - wire_us - ladder_out.submit_us;
        let named = wire_us + ladder_out.submit_us;
        layer_sums.push(format!(
            "tcp lookup: round trip {:.2} us = wire.encode {:.2} + wire.decode {:.2} + runtime.dispatch {:.2} \
             + index.exec {exec_us:.2} + gap server.socket_us {socket_us:.2}; named layers cover {:.1}%{}",
            ladder_out.round_trip_us,
            ladder_out.encode_us,
            ladder_out.decode_us,
            ladder_out.dispatch_us,
            100.0 * named / ladder_out.round_trip_us,
            within_or_gap(named, ladder_out.round_trip_us, "server.socket_us"),
        ));
        let stage_sum: f64 = stages.iter().map(|&(_, v)| v).sum();
        layer_sums.push(format!(
            "server stages (traced, median per request): {} = {stage_sum:.2} us of a traced round trip {traced_rt:.2} us; \
             the rest is the client, the socket and the hand-offs between stages",
            stages
                .iter()
                .map(|(n, v)| format!("{n} {v:.2}"))
                .collect::<Vec<_>>()
                .join(" + "),
        ));
        layer_sums.push(format!(
            "tracing overhead: paired blocks, median traced - untraced = {overhead_us:.2} us per lookup \
             (untraced {plain_rt:.2} us, traced {traced_rt:.2} us)"
        ));

        let diag = Session::stop(session);
        let batch_len = sent as f64 / out.batches.max(1) as f64;
        metrics.extend([
            m("io.load_s", load_s, "s"),
            m("index.build_s", build_s, "s"),
            m(
                "handle.swap_s",
                if out.reload_s.is_empty() {
                    0.0
                } else {
                    reload_s - load_s - build_s
                },
                "s",
            ),
        ]);
        for (c, v) in &ladder_out.exec_us {
            metrics.push(m(&format!("index.exec_us.{c}"), *v, "us"));
        }
        metrics.extend([
            m("foldin.exec_us", ladder_out.foldin_us, "us"),
            m("foldin.tokens", ladder_out.foldin_tokens, "tokens"),
            m("cache.hit_rate", hit_rate, "ratio"),
            m("runtime.dispatch_us", ladder_out.dispatch_us, "us"),
            m(
                "runtime.queue_high_water",
                diag.queue_high_water as f64,
                "count",
            ),
            m("runtime.shed", (after.shed - before.shed) as f64, "count"),
            m(
                "runtime.deadline_exceeded",
                (after.deadline_exceeded - before.deadline_exceeded) as f64,
                "count",
            ),
            m("wire.encode_us", ladder_out.encode_us, "us"),
            m("wire.decode_us", ladder_out.decode_us, "us"),
            m("server.socket_us", socket_us, "us"),
        ]);
        metrics.extend(stages.iter().map(|&(n, v)| m(n, v, "us")));
        metrics.extend([
            m("client.batch_len", batch_len, "count"),
            m("client.retries", retries as f64, "count"),
            m(
                "generator.lateness_ms",
                quantile(&out.lateness_ms, 0.99),
                "ms",
            ),
            m("trace.overhead_us", overhead_us, "us"),
        ]);
    }
    let _ = std::fs::remove_file(&snapshot);

    Ok(Outcome {
        report: Report {
            workload: spec.name.into(),
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            host: args.host.clone(),
            shape: Shape {
                threads: CONNECTIONS,
                workers: WORKERS,
                connections: CONNECTIONS,
            },
            phases,
            metrics,
            layer_sums,
        },
        failures,
        spans,
    })
}
