//! Parallel E-step (Sect. 4.3): LDA-guided data segmentation, workload
//! estimation, knapsack-style allocation to threads, and the sharded
//! runtime that executes the per-sweep worker barrier.
//!
//! # Parallel runtime
//!
//! Workers follow the approximate-distributed-Gibbs recipe: each thread
//! owns a disjoint set of *users* (so a user's documents never split
//! across threads — the paper's first segmentation guideline) and reads
//! neighbouring assignments as of the sweep start.
//!
//! `CpdConfig::threads = Some(n > 1)` runs the persistent
//! `WorkerPool`, spawned **once per fit**. Each worker keeps a replica
//! of the sampler state, cloned at spawn and kept in sync
//! incrementally: every sweep it refreshes from the coordinator's sync
//! package, sweeps its owned users while recording a [`CountDelta`], and
//! ships the delta back. The sync package is planned **per count
//! array** from the previous sweep's churn ([`CountRefresh::decide`]): a
//! sparsely-touched array replays the other shards' logs; a heavily
//! churned array ships as one shared snapshot that replicas
//! `copy_from_slice`.
//!
//! The pool is draw-for-draw identical to the naive scheme of cloning
//! the full state per worker per sweep and rebuilding every count from
//! the merged assignments; that scheme survives as a test-only
//! reference (`tests::clone_rebuild_doc_sweep`) which the unit tests
//! compare against sweep by sweep.
//!
//! # The barrier fold
//!
//! The barrier fold is parallelised: after collecting the sweep deltas
//! the coordinator ships each canonical count array (moved out of the
//! state, so no copies and no unsafe aliasing) to an idle **worker
//! thread** as a `FoldTask`; workers replay all shards' logs for their
//! array, clone the refresh snapshot for it when
//! [`CountRefresh::decide`] picked the snapshot path, and send the
//! folded array back. The coordinator's residual work is channel
//! traffic and re-installing the arrays.
//!
//! `CpdState::rebuild_counts` runs only at initialisation.
//!
//! The M-step is not sharded: the trainer runs the serial
//! `estimate_eta_with`/`fit_nu` on the coordinator between E-steps.

use crate::config::CpdConfig;
use crate::counts::PairCounts;
use crate::features::{UserFeatures, N_FEATURES};
use crate::gibbs::{
    resample_delta_range, resample_lambda_range, sweep_user_docs, SamplerStats, SamplerTables,
    SweepContext, SweepPhase, SweepScratch,
};
use crate::profiles::Eta;
use crate::state::{CountDelta, CountRefresh, CpdState, DeltaSizes, LinkMeta, SyncPlan};
use cpd_prob::rng::child_rng;
use social_graph::{SocialGraph, UserId, WordId};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;
use topic_model::{Lda, LdaConfig};

/// User segments (Sect. 4.3, "segmenting data to reduce
/// inter-dependency"): one segment per LDA topic, each user in the
/// segment of her documents' dominant topic.
#[derive(Debug, Clone)]
pub struct Segmentation {
    /// `segments[s]` = user ids in segment `s`.
    pub segments: Vec<Vec<u32>>,
    /// Estimated workload `o_i` per segment.
    pub workloads: Vec<f64>,
}

/// Segment users by their dominant LDA topic (the paper runs LDA with
/// `|Z|` topics and partitions users by most frequent topic).
pub fn segment_users(
    graph: &SocialGraph,
    n_segments: usize,
    n_communities: usize,
    lda_iters: usize,
    seed: u64,
) -> Segmentation {
    assert!(n_segments >= 1);
    // Borrow each document's word slice — cloning every word vector here
    // used to double the corpus allocation just to run the guide LDA.
    let docs: Vec<&[WordId]> = graph.docs().iter().map(|d| d.words.as_slice()).collect();
    let lda = Lda::new(LdaConfig {
        n_iters: lda_iters,
        seed,
        ..LdaConfig::new(n_segments)
    })
    .fit(&docs, graph.vocab_size());

    let mut segments: Vec<Vec<u32>> = vec![Vec::new(); n_segments];
    for u in 0..graph.n_users() {
        let uid = UserId(u as u32);
        let mut votes = vec![0u32; n_segments];
        for d in graph.docs_of(uid) {
            votes[lda.dominant_topic(d.index())] += 1;
        }
        let seg = votes
            .iter()
            .enumerate()
            .max_by_key(|&(_, &v)| v)
            .map(|(s, _)| s)
            .unwrap_or(u % n_segments);
        segments[seg].push(u as u32);
    }
    let workloads = segments
        .iter()
        .map(|users| estimate_workload(graph, users, n_communities))
        .collect();
    Segmentation {
        segments,
        workloads,
    }
}

/// Estimated workload of sweeping `users` once: per document the
/// candidate scans cost `O(|C| + |Z|)`-ish, each friendship neighbour
/// adds `O(|C|)` per document, and each incident diffusion link adds the
/// `O(|C|²)` bilinear precomputation.
pub fn estimate_workload(graph: &SocialGraph, users: &[u32], n_communities: usize) -> f64 {
    let c = n_communities as f64;
    let mut total = 0.0f64;
    for &u in users {
        let uid = UserId(u);
        let degree = graph.friend_degree(uid) as f64;
        for d in graph.docs_of(uid) {
            let doc = graph.doc(d);
            let diffusion_links = graph.diffusion_links_of(d).len() as f64;
            total += c + doc.len() as f64 + degree * c + diffusion_links * c * c;
        }
    }
    total
}

/// Longest-processing-time-first allocation of segments to `m` threads.
/// This greedy is the classic 4/3-approximation for makespan and is what
/// the paper's per-thread knapsacks reduce to when the per-segment
/// costs are coarse estimates ([`estimate_workload`]) rather than exact
/// weights. Returns segment indices per thread.
pub fn allocate_segments(workloads: &[f64], m: usize) -> Vec<Vec<usize>> {
    assert!(m >= 1);
    let mut order: Vec<usize> = (0..workloads.len()).collect();
    order.sort_by(|&a, &b| workloads[b].partial_cmp(&workloads[a]).expect("no NaN"));
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); m];
    let mut loads = vec![0.0f64; m];
    for seg in order {
        let (t, _) = loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
            .expect("m >= 1");
        groups[t].push(seg);
        loads[t] += workloads[seg];
    }
    groups
}

/// Paper-style allocation: solve `m` successive 0-1 knapsacks, each
/// targeting `O/m` capacity (Eq. 17), greedily on the sorted remaining
/// segments; leftovers go to the least-loaded thread.
pub fn allocate_segments_knapsack(workloads: &[f64], m: usize) -> Vec<Vec<usize>> {
    assert!(m >= 1);
    let total: f64 = workloads.iter().sum();
    let target = total / m as f64;
    let mut remaining: Vec<usize> = (0..workloads.len()).collect();
    remaining.sort_by(|&a, &b| workloads[b].partial_cmp(&workloads[a]).expect("no NaN"));
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); m];
    let mut loads = vec![0.0f64; m];
    for t in 0..m {
        let mut i = 0;
        while i < remaining.len() {
            let seg = remaining[i];
            // Last thread takes everything; earlier threads fill to target.
            if t + 1 == m || loads[t] + workloads[seg] <= target * 1.0001 {
                groups[t].push(seg);
                loads[t] += workloads[seg];
                remaining.remove(i);
            } else {
                i += 1;
            }
        }
        if loads[t] >= target {
            continue;
        }
    }
    // Anything still unassigned (can happen when every remaining segment
    // overflows every target) goes to the least-loaded thread.
    for seg in remaining {
        let (t, _) = loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
            .expect("m >= 1");
        groups[t].push(seg);
        loads[t] += workloads[seg];
    }
    groups
}

/// Makespan ratio `max(load) / mean(load)` of an allocation — 1.0 is a
/// perfect balance (Fig. 11's quality measure).
pub fn balance_ratio(groups: &[Vec<usize>], workloads: &[f64]) -> f64 {
    let loads: Vec<f64> = groups
        .iter()
        .map(|g| g.iter().map(|&s| workloads[s]).sum())
        .collect();
    let max = loads.iter().copied().fold(0.0f64, f64::max);
    let mean = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

/// The sharded E-step's user groups for `threads` workers: segment
/// users by dominant LDA topic, allocate segments to workers, and
/// flatten each worker's segments into one user list. Computed once
/// per fit and reused every sweep.
pub(crate) fn user_groups(
    graph: &SocialGraph,
    config: &CpdConfig,
    threads: usize,
) -> Vec<Vec<u32>> {
    let seg = segment_users(
        graph,
        config.n_topics.max(threads),
        config.n_communities,
        15,
        config.seed ^ 0x5E6,
    );
    allocate_segments(&seg.workloads, threads)
        .iter()
        .map(|g| {
            g.iter()
                .flat_map(|&s| seg.segments[s].iter().copied())
                .collect()
        })
        .collect()
}

/// One sweep command from the coordinator to a worker. `eta`/`nu` are
/// the current M-step parameters; `lambda`/`delta_pg` the freshly
/// resampled Pólya-Gamma vectors; `sync` the previous sweep's deltas
/// (one per worker), `replay` which of their arrays to replay, and
/// `refresh` shared snapshots for the arrays where the churn made a
/// sequential copy cheaper than the replay.
struct SweepCmd {
    phase: SweepPhase,
    sweep_index: u64,
    eta: Arc<Eta>,
    nu: Arc<Vec<f64>>,
    lambda: Arc<Vec<f64>>,
    delta_pg: Arc<Vec<f64>>,
    sync: Arc<Vec<CountDelta>>,
    replay: SyncPlan,
    refresh: Arc<CountRefresh>,
}

/// A coordinator→worker message: run a document sweep, or fold a batch
/// of canonical count arrays at the barrier.
enum Cmd {
    Sweep(SweepCmd),
    Fold(FoldCmd),
}

/// Barrier fold work for one worker: apply every shard's delta log for
/// the shipped arrays. The arrays are **moved** out of the canonical
/// state (no copies, no aliasing) and returned folded.
struct FoldCmd {
    deltas: Arc<Vec<CountDelta>>,
    tasks: Vec<FoldTask>,
}

/// Which canonical array class a [`FoldTask`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FoldKind {
    /// `doc_community` + `doc_topic` (assignment replay).
    Assign,
    /// `n_uc` + the constant `n_u` marginal.
    NUc,
    /// `n_cz` + the `n_c` marginal.
    NCz,
    /// `n_zw` + the `n_z` marginal.
    WordTopic,
    /// `n_tz`.
    NTz,
}

/// One canonical array (pair), moved out of the state for a worker to
/// fold and, when the refresh plan calls for it, snapshot for the next
/// sweep's replica sync.
struct FoldTask {
    kind: FoldKind,
    /// Primary array (`doc_community` / `n_uc` / `n_cz` / `n_zw` /
    /// `n_tz`).
    a: Vec<u32>,
    /// Companion array (`doc_topic` / `n_c` / `n_z`), empty when the
    /// kind has none.
    b: Vec<u32>,
    /// Clone the folded array into `snap_*` (the refresh package).
    want_snapshot: bool,
    snap_a: Option<Vec<u32>>,
    snap_b: Option<Vec<u32>>,
    /// Worker-side fold wall time.
    seconds: f64,
}

impl FoldTask {
    fn new(kind: FoldKind, a: Vec<u32>, b: Vec<u32>, want_snapshot: bool) -> Self {
        Self {
            kind,
            a,
            b,
            want_snapshot,
            snap_a: None,
            snap_b: None,
            seconds: 0.0,
        }
    }

    /// Replay every shard's log for this array class (increments
    /// commute exactly, and assignment writes target disjoint docs, so
    /// per-array folding in shard order reproduces the serial fold
    /// byte-for-byte).
    fn run(&mut self, deltas: &[CountDelta]) {
        let start = Instant::now();
        match self.kind {
            FoldKind::Assign => {
                for d in deltas {
                    d.apply_assign(&mut self.a, &mut self.b);
                }
            }
            FoldKind::NUc => {
                for d in deltas {
                    d.apply_n_uc(&mut self.a);
                }
            }
            FoldKind::NCz => {
                for d in deltas {
                    d.apply_n_cz(&mut self.a);
                    d.apply_n_c(&mut self.b);
                }
            }
            FoldKind::WordTopic => {
                for d in deltas {
                    d.apply_n_zw(&mut self.a);
                    d.apply_n_z(&mut self.b);
                }
            }
            FoldKind::NTz => {
                for d in deltas {
                    d.apply_n_tz(&mut self.a);
                }
            }
        }
        if self.want_snapshot {
            self.snap_a = Some(self.a.clone());
            if self.kind == FoldKind::Assign {
                self.snap_b = Some(self.b.clone());
            }
        }
        self.seconds = start.elapsed().as_secs_f64();
    }

    /// Re-install the folded arrays into the canonical state and file
    /// the snapshot/timing into the refresh package and breakdown.
    fn install(self, state: &mut CpdState, refresh: &mut CountRefresh, fold: &mut FoldBreakdown) {
        match self.kind {
            FoldKind::Assign => {
                state.doc_community = self.a;
                state.doc_topic = self.b;
                if let (Some(dc), Some(dt)) = (self.snap_a, self.snap_b) {
                    refresh.assign = Some((dc, dt));
                }
                fold.assign = self.seconds;
            }
            FoldKind::NUc => {
                state.user_comm = PairCounts {
                    main: self.a,
                    marginal: self.b,
                };
                refresh.n_uc = self.snap_a;
                fold.n_uc = self.seconds;
            }
            FoldKind::NCz => {
                state.comm_topic = PairCounts {
                    main: self.a,
                    marginal: self.b,
                };
                refresh.n_cz = self.snap_a;
                fold.n_cz = self.seconds;
            }
            FoldKind::WordTopic => {
                state.word_topic = PairCounts {
                    main: self.a,
                    marginal: self.b,
                };
                refresh.n_zw = self.snap_a;
                fold.n_zw = self.seconds;
            }
            FoldKind::NTz => {
                state.n_tz = self.a;
                refresh.n_tz = self.snap_a;
                fold.n_tz = self.seconds;
            }
        }
    }
}

/// A worker's reply: the sweep result or the folded arrays.
enum Reply {
    Sweep(Box<WorkerReply>),
    Fold(Vec<FoldTask>),
}

/// A worker's result for one sweep.
struct WorkerReply {
    delta: CountDelta,
    busy_secs: f64,
    sync_secs: f64,
    /// This worker's sampler accounting for the sweep (alias rebuilds,
    /// MH acceptance, sparse-row occupancy).
    sampler: SamplerStats,
}

/// Per-array worker-side fold seconds of one barrier (surfaced through
/// `FitDiagnostics::fold_seconds`). Arrays folded on different workers
/// overlap in wall time; the `Z × W` fold runs on a worker of its own
/// (when the pool has more than one), the small arrays share the rest.
#[derive(Debug, Clone, Copy, Default)]
pub struct FoldBreakdown {
    /// Assignment replay (`doc_community`/`doc_topic`).
    pub assign: f64,
    /// `n_uc` fold.
    pub n_uc: f64,
    /// `n_cz` + `n_c` fold.
    pub n_cz: f64,
    /// `n_zw` + `n_z` fold.
    pub n_zw: f64,
    /// `n_tz` fold.
    pub n_tz: f64,
}

impl FoldBreakdown {
    /// Slowest single-array fold — a lower bound on the barrier's
    /// critical path (exact when every array folds on its own worker;
    /// workers sharing several small arrays serialise their sum).
    pub fn max(&self) -> f64 {
        self.assign
            .max(self.n_uc)
            .max(self.n_cz)
            .max(self.n_zw)
            .max(self.n_tz)
    }
}

/// Timing breakdown of one sharded sweep (surfaced through
/// `FitDiagnostics`).
pub(crate) struct SweepStats {
    /// Per-thread busy seconds (Fig. 11).
    pub thread_seconds: Vec<f64>,
    /// Total barrier wall time (distributing fold tasks, waiting on the
    /// fold workers, re-installing the arrays).
    pub merge_seconds: f64,
    /// Slowest worker's replica-sync time (delta apply + PG refresh).
    pub snapshot_seconds: f64,
    /// Documents whose assignment changed this sweep.
    pub changed_docs: usize,
    /// Per-array worker-side fold seconds.
    pub fold: FoldBreakdown,
    /// Sampler accounting merged across the sweep's workers.
    pub sampler: SamplerStats,
}

/// Persistent sharded E-step runtime: one worker thread per user group,
/// spawned once per fit, communicating per sweep through channels. See
/// the module docs ("Parallel runtime") for the synchronisation scheme.
pub(crate) struct WorkerPool<'scope> {
    cmd_txs: Vec<Sender<Cmd>>,
    reply_rxs: Vec<Receiver<Reply>>,
    /// Deltas of the previous sweep, broadcast to workers on the next.
    prev: Arc<Vec<CountDelta>>,
    /// Replay-vs-snapshot plan for the coming sweep's replica sync,
    /// decided at the previous barrier.
    pending_replay: SyncPlan,
    /// Snapshots backing `pending_replay`, cloned by the fold workers.
    pending_refresh: Arc<CountRefresh>,
    handles: Vec<std::thread::ScopedJoinHandle<'scope, ()>>,
}

impl<'scope> WorkerPool<'scope> {
    /// Spawn one worker per user group. Each worker clones `state` once
    /// — the only full copy it will ever make.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn<'env: 'scope>(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        graph: &'env SocialGraph,
        config: &'env CpdConfig,
        features: &'env UserFeatures,
        links: &'env [LinkMeta],
        tables: &'env SamplerTables,
        user_groups: &[Vec<u32>],
        state: &CpdState,
    ) -> Self {
        let n_workers = user_groups.len();
        let mut cmd_txs = Vec::with_capacity(n_workers);
        let mut reply_rxs = Vec::with_capacity(n_workers);
        let mut handles = Vec::with_capacity(n_workers);
        for (me, users) in user_groups.iter().enumerate() {
            let (cmd_tx, cmd_rx) = std::sync::mpsc::channel::<Cmd>();
            let (reply_tx, reply_rx) = std::sync::mpsc::channel::<Reply>();
            let users = users.clone();
            let mut local = state.clone();
            handles.push(scope.spawn(move || {
                let mut scratch = SweepScratch::new();
                while let Ok(cmd) = cmd_rx.recv() {
                    let reply = match cmd {
                        Cmd::Sweep(cmd) => {
                            let sync_start = Instant::now();
                            // Snapshot-copied arrays land wholesale; the
                            // rest replay the other shards' logs (own
                            // changes are already local).
                            cmd.refresh.copy_into(&mut local);
                            for (i, d) in cmd.sync.iter().enumerate() {
                                if i != me {
                                    d.apply_selected(&mut local, cmd.replay);
                                }
                            }
                            local.lambda.copy_from_slice(&cmd.lambda);
                            local.delta.copy_from_slice(&cmd.delta_pg);
                            let sync_secs = sync_start.elapsed().as_secs_f64();

                            let ctx = SweepContext::new(
                                graph, config, &cmd.eta, &cmd.nu, features, links, tables,
                            );
                            let mut rng = child_rng(
                                config.seed ^ 0x9A7A_11E1,
                                cmd.sweep_index * n_workers as u64 + me as u64,
                            );
                            let mut delta = CountDelta::new(&local);
                            let busy_start = Instant::now();
                            sweep_user_docs(
                                &ctx,
                                &mut local,
                                &users,
                                &mut rng,
                                cmd.phase,
                                &mut delta,
                                &mut scratch,
                            );
                            let busy_secs = busy_start.elapsed().as_secs_f64();
                            Reply::Sweep(Box::new(WorkerReply {
                                delta,
                                busy_secs,
                                sync_secs,
                                sampler: scratch.take_stats(),
                            }))
                        }
                        Cmd::Fold(mut fold) => {
                            for task in &mut fold.tasks {
                                task.run(&fold.deltas);
                            }
                            Reply::Fold(fold.tasks)
                        }
                    };
                    if reply_tx.send(reply).is_err() {
                        break; // Coordinator is gone; shut down.
                    }
                }
            }));
            cmd_txs.push(cmd_tx);
            reply_rxs.push(reply_rx);
        }
        Self {
            cmd_txs,
            reply_rxs,
            prev: Arc::new(Vec::new()),
            pending_replay: SyncPlan::ALL,
            pending_refresh: Arc::new(CountRefresh::default()),
            handles,
        }
    }

    /// Run one barrier-synchronised document sweep and fold the workers'
    /// deltas into the canonical `state` — the fold itself executed by
    /// the (now idle) worker threads, one [`FoldTask`] per count array.
    pub fn sweep(
        &mut self,
        graph: &SocialGraph,
        state: &mut CpdState,
        phase: SweepPhase,
        sweep_index: u64,
        eta: &Arc<Eta>,
        nu: &Arc<Vec<f64>>,
    ) -> SweepStats {
        let lambda = Arc::new(state.lambda.clone());
        let delta_pg = Arc::new(state.delta.clone());
        for tx in &self.cmd_txs {
            tx.send(Cmd::Sweep(SweepCmd {
                phase,
                sweep_index,
                eta: Arc::clone(eta),
                nu: Arc::clone(nu),
                lambda: Arc::clone(&lambda),
                delta_pg: Arc::clone(&delta_pg),
                sync: Arc::clone(&self.prev),
                replay: self.pending_replay,
                refresh: Arc::clone(&self.pending_refresh),
            }))
            .expect("worker hung up");
        }

        let n_workers = self.cmd_txs.len();
        let mut deltas = Vec::with_capacity(n_workers);
        let mut thread_seconds = Vec::with_capacity(n_workers);
        let mut snapshot_seconds = 0.0f64;
        let mut changed_docs = 0usize;
        let mut sampler = SamplerStats::default();
        let mut sizes = DeltaSizes::default();
        for rx in &self.reply_rxs {
            match rx.recv().expect("worker panicked") {
                Reply::Sweep(reply) => {
                    changed_docs += reply.delta.n_changed_docs();
                    sizes.accumulate(reply.delta.log_sizes());
                    thread_seconds.push(reply.busy_secs);
                    snapshot_seconds = snapshot_seconds.max(reply.sync_secs);
                    sampler.merge(&reply.sampler);
                    deltas.push(reply.delta);
                }
                _ => unreachable!("non-sweep reply outside a barrier"),
            }
        }
        // ---- Barrier fold, on the worker threads --------------------
        let merge_start = Instant::now();
        let deltas = Arc::new(deltas);
        // Decide the next sweep's replay-vs-snapshot sync per array;
        // the fold workers clone the snapshots for non-replayed arrays.
        let replay = CountRefresh::decide(state, sizes, n_workers);
        let word_topic = std::mem::take(&mut state.word_topic);
        let user_comm = std::mem::take(&mut state.user_comm);
        let comm_topic = std::mem::take(&mut state.comm_topic);
        // Word-topic first: the scheduler below gives the dominant
        // `Z × W` fold a worker of its own.
        let mut tasks = vec![
            FoldTask::new(
                FoldKind::WordTopic,
                word_topic.main,
                word_topic.marginal,
                !replay.n_zw,
            ),
            FoldTask::new(
                FoldKind::Assign,
                std::mem::take(&mut state.doc_community),
                std::mem::take(&mut state.doc_topic),
                !replay.assign,
            ),
            FoldTask::new(
                FoldKind::NUc,
                user_comm.main,
                user_comm.marginal,
                !replay.n_uc,
            ),
            FoldTask::new(
                FoldKind::NCz,
                comm_topic.main,
                comm_topic.marginal,
                !replay.n_cz,
            ),
            FoldTask::new(
                FoldKind::NTz,
                std::mem::take(&mut state.n_tz),
                Vec::new(),
                !replay.n_tz,
            ),
        ]
        .into_iter();
        // Schedule: the `Z × W` fold dwarfs every other array, so with
        // more than one worker it gets a bucket to itself and the small
        // arrays round-robin over the remaining workers.
        let mut buckets: Vec<Vec<FoldTask>> = (0..n_workers).map(|_| Vec::new()).collect();
        let small_workers: Vec<usize> = if n_workers > 1 {
            buckets[0].push(tasks.next().expect("word-topic task"));
            (1..n_workers).collect()
        } else {
            (0..n_workers).collect()
        };
        for (i, task) in tasks.enumerate() {
            buckets[small_workers[i % small_workers.len()]].push(task);
        }
        let mut folding = Vec::new();
        for (w, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            self.cmd_txs[w]
                .send(Cmd::Fold(FoldCmd {
                    deltas: Arc::clone(&deltas),
                    tasks: bucket,
                }))
                .expect("worker hung up");
            folding.push(w);
        }
        let mut refresh = CountRefresh::default();
        let mut fold = FoldBreakdown::default();
        for w in folding {
            match self.reply_rxs[w].recv().expect("worker panicked") {
                Reply::Fold(tasks) => {
                    for task in tasks {
                        task.install(state, &mut refresh, &mut fold);
                    }
                }
                _ => unreachable!("non-fold reply inside a barrier"),
            }
        }
        let merge_seconds = merge_start.elapsed().as_secs_f64();
        debug_assert!(
            state.check_consistency(graph).is_ok(),
            "delta fold diverged from the assignments"
        );
        self.prev = deltas;
        self.pending_replay = replay;
        self.pending_refresh = Arc::new(refresh);
        SweepStats {
            thread_seconds,
            merge_seconds,
            snapshot_seconds,
            changed_docs,
            fold,
            sampler,
        }
    }

    /// Drop the command channels and join the workers.
    pub fn shutdown(self) {
        drop(self.cmd_txs);
        for h in self.handles {
            let _ = h.join();
        }
    }
}

/// Parallel Pólya-Gamma resampling of `λ` over link chunks.
pub(crate) fn parallel_resample_lambda(
    ctx: &SweepContext<'_>,
    state: &mut CpdState,
    n_threads: usize,
    sweep_index: u64,
) {
    let n = state.lambda.len();
    if n == 0 {
        return;
    }
    let chunk = n.div_ceil(n_threads.max(1));
    let mut fresh = vec![0.0f64; n];
    {
        let snapshot: &CpdState = state;
        std::thread::scope(|scope| {
            for (ti, out) in fresh.chunks_mut(chunk).enumerate() {
                let lo = ti * chunk;
                let hi = (lo + out.len()).min(n);
                scope.spawn(move || {
                    let mut rng =
                        child_rng(ctx.config.seed ^ 0x001A_3BDA, sweep_index * 64 + ti as u64);
                    resample_lambda_range(ctx, snapshot, lo, hi, out, &mut rng);
                });
            }
        });
    }
    state.lambda = fresh;
}

/// Parallel Pólya-Gamma resampling of `δ`, returning the cached feature
/// vectors for the M-step.
pub(crate) fn parallel_resample_delta(
    ctx: &SweepContext<'_>,
    state: &mut CpdState,
    n_threads: usize,
    sweep_index: u64,
) -> Vec<[f64; N_FEATURES]> {
    let n = state.delta.len();
    let mut xs = vec![[0.0f64; N_FEATURES]; n];
    if n == 0 {
        return xs;
    }
    let chunk = n.div_ceil(n_threads.max(1));
    let mut fresh = vec![0.0f64; n];
    {
        let snapshot: &CpdState = state;
        std::thread::scope(|scope| {
            for ((ti, out), xout) in fresh
                .chunks_mut(chunk)
                .enumerate()
                .zip(xs.chunks_mut(chunk))
            {
                let lo = ti * chunk;
                let hi = (lo + out.len()).min(n);
                scope.spawn(move || {
                    let mut rng =
                        child_rng(ctx.config.seed ^ 0xDE17A, sweep_index * 64 + ti as u64);
                    resample_delta_range(ctx, snapshot, lo, hi, out, xout, &mut rng);
                });
            }
        });
    }
    state.delta = fresh;
    xs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::NoDelta;

    /// Reference parallel sweep: each thread clones the full state,
    /// samples its user group with the same per-worker RNG streams as
    /// [`WorkerPool`], and the merged assignments are rebuilt into
    /// `state` from scratch. The pool must produce identical draws.
    fn clone_rebuild_doc_sweep(
        ctx: &SweepContext<'_>,
        state: &mut CpdState,
        user_groups: &[Vec<u32>],
        phase: SweepPhase,
        sweep_index: u64,
    ) {
        let snapshot: &CpdState = state;
        let swept: Vec<CpdState> = std::thread::scope(|scope| {
            let handles: Vec<_> = user_groups
                .iter()
                .enumerate()
                .map(|(ti, users)| {
                    scope.spawn(move || {
                        let mut local = snapshot.clone();
                        let mut rng = child_rng(
                            ctx.config.seed ^ 0x9A7A_11E1,
                            sweep_index * user_groups.len() as u64 + ti as u64,
                        );
                        sweep_user_docs(
                            ctx,
                            &mut local,
                            users,
                            &mut rng,
                            phase,
                            &mut NoDelta,
                            &mut SweepScratch::new(),
                        );
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        for (users, local) in user_groups.iter().zip(&swept) {
            for &u in users {
                for d in ctx.graph.docs_of(UserId(u)) {
                    state.doc_community[d.index()] = local.doc_community[d.index()];
                    state.doc_topic[d.index()] = local.doc_topic[d.index()];
                }
            }
        }
        state.rebuild_counts(ctx.graph);
    }

    #[test]
    fn lpt_balances_equal_items() {
        let w = vec![1.0; 8];
        let groups = allocate_segments(&w, 4);
        for g in &groups {
            assert_eq!(g.len(), 2);
        }
        assert!((balance_ratio(&groups, &w) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lpt_handles_skew() {
        // One huge segment dominates; the rest spread over other threads.
        let w = vec![100.0, 10.0, 10.0, 10.0, 10.0, 10.0];
        let groups = allocate_segments(&w, 3);
        let ratio = balance_ratio(&groups, &w);
        // The optimum puts the 100 alone: loads (100, 25, 25); ratio = 2.
        assert!(ratio <= 2.0 + 1e-9, "ratio {ratio}");
        // Segment 0 must be alone on its thread.
        let holder = groups.iter().find(|g| g.contains(&0)).unwrap();
        assert_eq!(holder.len(), 1);
    }

    #[test]
    fn knapsack_assigns_every_segment_once() {
        let w = vec![5.0, 3.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0];
        let groups = allocate_segments_knapsack(&w, 4);
        let mut seen: Vec<usize> = groups.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
        assert!(balance_ratio(&groups, &w) < 1.6);
    }

    #[test]
    fn allocations_cover_all_segments_under_more_threads_than_segments() {
        let w = vec![4.0, 2.0];
        let groups = allocate_segments(&w, 5);
        let all: Vec<usize> = groups.iter().flatten().copied().collect();
        assert_eq!(all.len(), 2);
        let groups = allocate_segments_knapsack(&w, 5);
        let all: Vec<usize> = groups.iter().flatten().copied().collect();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn balance_ratio_of_empty_groups_is_one() {
        let groups: Vec<Vec<usize>> = vec![vec![], vec![]];
        assert_eq!(balance_ratio(&groups, &[]), 1.0);
    }

    /// Run `sweeps` pool sweeps and clone-rebuild reference sweeps side
    /// by side from the same initial state, asserting identical
    /// assignments and counts after every sweep and counts equal to a
    /// fresh rebuild.
    fn assert_pool_matches_clone_rebuild(
        g: &SocialGraph,
        cfg: &CpdConfig,
        groups: &[Vec<u32>],
        sweeps: u64,
    ) {
        use crate::state::link_metadata;

        let features = UserFeatures::compute(g);
        let links = link_metadata(g);
        let eta = Arc::new(Eta::uniform(cfg.n_communities, cfg.n_topics));
        let nu = Arc::new(vec![0.3f64; N_FEATURES]);
        let tables = SamplerTables::new(g, cfg);
        let mut delta_state = CpdState::init(g, cfg);
        let mut clone_state = delta_state.clone();
        std::thread::scope(|scope| {
            let mut pool = WorkerPool::spawn(
                scope,
                g,
                cfg,
                &features,
                &links,
                &tables,
                groups,
                &delta_state,
            );
            for sweep in 1..=sweeps {
                let stats = pool.sweep(g, &mut delta_state, SweepPhase::Full, sweep, &eta, &nu);
                assert_eq!(stats.thread_seconds.len(), groups.len());

                let ctx = SweepContext::new(g, cfg, &eta, &nu, &features, &links, &tables);
                clone_rebuild_doc_sweep(&ctx, &mut clone_state, groups, SweepPhase::Full, sweep);

                let workers = groups.len();
                assert_eq!(
                    delta_state.doc_community, clone_state.doc_community,
                    "{workers} workers, sweep {sweep}"
                );
                assert_eq!(delta_state.doc_topic, clone_state.doc_topic);
                assert_eq!(delta_state.user_comm, clone_state.user_comm);
                assert_eq!(delta_state.comm_topic, clone_state.comm_topic);
                assert_eq!(delta_state.word_topic, clone_state.word_topic);
                assert_eq!(delta_state.n_tz, clone_state.n_tz);
                delta_state.check_consistency(g).unwrap();
            }
            pool.shutdown();
        });
    }

    /// A small random graph: up to 8 users, 2–17 documents of 1–4 words
    /// over a 6-word vocabulary, random friendships and diffusion links.
    fn random_graph(rng: &mut rand::rngs::StdRng) -> SocialGraph {
        use rand::Rng;
        use social_graph::{DocId, Document, SocialGraphBuilder};

        let n_users = rng.gen_range(2usize..8);
        let mut b = SocialGraphBuilder::new(n_users, 6);
        let n_docs = rng.gen_range(2u32..18);
        for _ in 0..n_docs {
            let author = UserId(rng.gen_range(0..n_users as u32));
            let len = rng.gen_range(1usize..5);
            let words = (0..len).map(|_| WordId(rng.gen_range(0u32..6))).collect();
            b.add_document(Document::new(author, words, rng.gen_range(0u32..4)));
        }
        for _ in 0..rng.gen_range(0usize..12) {
            let (u, v) = (
                rng.gen_range(0..n_users as u32),
                rng.gen_range(0..n_users as u32),
            );
            if u != v {
                b.add_friendship(UserId(u), UserId(v));
            }
        }
        for _ in 0..rng.gen_range(0usize..8) {
            let (i, j) = (rng.gen_range(0..n_docs), rng.gen_range(0..n_docs));
            if i != j {
                b.add_diffusion(DocId(i), DocId(j), 0);
            }
        }
        b.build().unwrap()
    }

    /// The sharded delta runtime and the clone-and-rebuild reference
    /// sweep must be draw-for-draw identical: same assignments after
    /// every sweep, and delta-folded counts exactly equal to rebuilt
    /// counts — on the synthetic corpus at 2, 3 and 4 workers, and on
    /// random small graphs (which can hold isolated users and leave
    /// worker groups empty) at 2 and 4 workers.
    #[test]
    fn worker_pool_matches_clone_rebuild_sweep_for_sweep() {
        use cpd_datagen::{generate, GenConfig, Scale};
        use cpd_prob::rng::seeded_rng;
        use rand::Rng;

        let (g, _) = generate(&GenConfig::twitter_like(Scale::Tiny));
        let cfg = CpdConfig::experiment(4, 6);
        for workers in [2, 3, 4] {
            let groups = user_groups(&g, &cfg, workers);
            assert_pool_matches_clone_rebuild(&g, &cfg, &groups, 4);
        }

        let mut rng = seeded_rng(0x00DE_17A5);
        for _ in 0..12 {
            let g = random_graph(&mut rng);
            let cfg = CpdConfig {
                seed: 11,
                ..CpdConfig::new(rng.gen_range(1usize..4), rng.gen_range(1usize..4))
            };
            for workers in [2, 4] {
                let groups = user_groups(&g, &cfg, workers);
                assert_pool_matches_clone_rebuild(&g, &cfg, &groups, 3);
            }
        }
    }

    /// Deltas recorded by a worker verify against a rebuild from any
    /// base state they are applied to.
    #[test]
    fn worker_deltas_verify_against_rebuild() {
        use crate::features::UserFeatures;
        use crate::state::link_metadata;
        use cpd_datagen::{generate, GenConfig, Scale};

        let (g, _) = generate(&GenConfig::twitter_like(Scale::Tiny));
        let cfg = CpdConfig {
            threads: Some(2),
            ..CpdConfig::experiment(3, 4)
        };
        let features = UserFeatures::compute(&g);
        let links = link_metadata(&g);
        let eta = Arc::new(Eta::uniform(3, 4));
        let nu = Arc::new(vec![0.1f64; N_FEATURES]);
        let groups: Vec<Vec<u32>> = vec![
            (0..g.n_users() as u32 / 2).collect(),
            (g.n_users() as u32 / 2..g.n_users() as u32).collect(),
        ];
        let mut state = CpdState::init(&g, &cfg);
        let base = state.clone();
        let tables = SamplerTables::new(&g, &cfg);
        std::thread::scope(|scope| {
            let mut pool =
                WorkerPool::spawn(scope, &g, &cfg, &features, &links, &tables, &groups, &state);
            let stats = pool.sweep(&g, &mut state, SweepPhase::Full, 1, &eta, &nu);
            assert!(stats.changed_docs > 0, "tiny graph should reshuffle");
            // The merged delta of the sweep reproduces the fold exactly.
            let mut merged = CountDelta::new(&base);
            for d in pool.prev.iter() {
                merged.merge(d);
            }
            merged.verify_against_rebuild(&g, &base).unwrap();
            pool.shutdown();
        });
    }
}
