//! The `fit` workload: `Cpd::fit` on the Medium Twitter-like corpus
//! with the `experiment` preset, followed by `io::save_model` — the
//! offline half of CPD. It runs no serve code, so trainer changes show
//! here and nowhere else.

use crate::host::{cpu_seconds, nproc, peak_rss_mb, CpuTicks};
use crate::report::{within_or_gap, Metric, Report, Shape};
use crate::spans::{Recorder, ROOT};
use crate::stats::{max, mean, median, Phase};
use crate::{Outcome, RunArgs};
use cpd_core::{io, Cpd, CpdConfig, FitDiagnostics};
use cpd_datagen::{generate, GenConfig, Scale};
use std::time::Instant;

/// Corpus set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Below this NMI against the planted communities the fit has failed
/// to detect anything, whatever its speed.
pub const NMI_FLOOR: f64 = 0.3;
/// Tolerance on `Σ row = 1` for π, θ and φ.
const NORM_TOL: f64 = 1e-6;

/// Per-fit figures read back from `FitDiagnostics` and the timers.
struct FitSample {
    wall_s: f64,
    save_s: f64,
    estep_s: f64,
    eta_s: f64,
    nu_s: f64,
    fold_s: f64,
    sync_s: f64,
    imbalance: f64,
    changed_docs: f64,
    row_occupancy: f64,
    plane_bytes: f64,
}

impl FitSample {
    fn new(d: &FitDiagnostics, wall_s: f64, save_s: f64) -> Self {
        let threads = &d.last_thread_seconds;
        let imbalance = if threads.is_empty() || mean(threads) == 0.0 {
            1.0
        } else {
            max(threads) / mean(threads)
        };
        let occupancy: Vec<f64> = d
            .sampler_stats
            .iter()
            .filter_map(|s| s.avg_row_occupancy())
            .collect();
        FitSample {
            wall_s,
            save_s,
            estep_s: d.estep_seconds.iter().sum(),
            eta_s: d.mstep_eta_seconds.iter().sum(),
            nu_s: d.mstep_nu_seconds.iter().sum(),
            fold_s: d.merge_seconds.iter().sum(),
            sync_s: d.snapshot_seconds.iter().sum(),
            imbalance,
            changed_docs: d.changed_docs.iter().sum::<usize>() as f64,
            row_occupancy: mean(&occupancy),
            plane_bytes: d.plane_bytes.total() as f64,
        }
    }

    /// Fit wall time not covered by the E-step or M-step timers.
    fn init_s(&self) -> f64 {
        self.wall_s - self.estep_s - self.eta_s - self.nu_s
    }
}

pub fn run(args: &RunArgs, epoch: Instant) -> Result<Outcome, String> {
    let mut spans = Recorder::new(epoch);
    let gen = GenConfig {
        seed: args.seed,
        ..GenConfig::twitter_like(if args.smoke {
            Scale::Tiny
        } else {
            Scale::Medium
        })
    };
    let threads = nproc().min(2);
    let config = CpdConfig {
        threads: Some(threads),
        seed: args.seed,
        ..CpdConfig::experiment(gen.n_communities, gen.n_topics)
    };

    // Set-up: generate the corpus, several times; the last one is used.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut corpus = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        corpus = Some(spans.time("datagen.generate", ROOT, u64::MAX, || generate(&gen)));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let (graph, truth) = corpus.expect("at least one set-up");

    let model_path = args.work_dir.join(format!("fit-{}.cpd", args.seed));
    let mut samples = Vec::new();
    let mut fitted = None;
    let measure = Instant::now();
    let cpu0 = cpu_seconds();
    let ticks0 = CpuTicks::now();
    let budget = args.seconds as f64;
    let min_fits = if args.smoke { 1 } else { 2 };
    while samples.len() < min_fits || measure.elapsed().as_secs_f64() < budget {
        let job = spans.open("fit.job", ROOT, samples.len() as u64);
        let start = Instant::now();
        let fit = Cpd::new(config.clone())?.fit(&graph);
        let wall_s = start.elapsed().as_secs_f64();
        spans.record("core.fit", job, samples.len() as u64, start, Instant::now());
        let start = Instant::now();
        io::save_model(&fit.model, &model_path).map_err(|e| e.to_string())?;
        let save_s = start.elapsed().as_secs_f64();
        spans.record(
            "io.save_model",
            job,
            samples.len() as u64,
            start,
            Instant::now(),
        );
        spans.close(job);
        samples.push(FitSample::new(&fit.diagnostics, wall_s, save_s));
        fitted = Some(fit);
        // Stop early rather than overrun the budget by most of a fit.
        let typical = median(&spans.durations("fit.job"));
        if samples.len() >= min_fits && measure.elapsed().as_secs_f64() + 0.5 * typical > budget {
            break;
        }
    }
    let cpu_s = cpu_seconds() - cpu0;
    let steal = CpuTicks::now().steal_share_since(&ticks0);
    let _ = std::fs::remove_file(&model_path);
    let fit = fitted.expect("at least one fit");

    // Output checks.
    let mut failures = Vec::new();
    for (name, rows) in [
        ("pi", &fit.model.pi),
        ("theta", &fit.model.theta),
        ("phi", &fit.model.phi),
    ] {
        if let Some((i, sum)) = rows
            .iter()
            .map(|r| r.iter().sum::<f64>())
            .enumerate()
            .find(|(_, s)| (s - 1.0).abs() > NORM_TOL || !s.is_finite())
        {
            failures.push(format!("{name} row {i} sums to {sum}"));
        }
    }
    let nmi = cpd_eval::nmi(&fit.model.dominant_communities(), &truth.dominant_community);
    if nmi.is_nan() || nmi < NMI_FLOOR {
        failures.push(format!("nmi {nmi:.4} below the floor {NMI_FLOOR}"));
    }
    let perplexity = cpd_eval::content_profile_perplexity(
        graph.docs(),
        &fit.model.pi,
        &fit.model.theta,
        &fit.model.phi,
    )
    .unwrap_or(f64::NAN);
    if !(perplexity.is_finite() && perplexity >= 1.0) {
        failures.push(format!("perplexity {perplexity} is not a perplexity"));
    }

    let col =
        |f: fn(&FitSample) -> f64| -> f64 { median(&samples.iter().map(f).collect::<Vec<_>>()) };
    let job_ms: Vec<f64> = spans.durations("fit.job").iter().map(|s| s * 1e3).collect();
    let wall_s = col(|s| s.wall_s);
    let token_sweeps =
        (graph.n_tokens() * config.gibbs_sweeps * fit.diagnostics.em_iterations) as f64;
    let tokens_per_s = token_sweeps / wall_s;
    let m = Metric::new;
    let mut metrics = vec![
        m("setup_s", median(&setup_s), "s"),
        m("p50_ms", median(&job_ms), "ms"),
        m("p99_ms", max(&job_ms), "ms"),
        m(
            "cpu_us_per_op",
            cpu_s / (token_sweeps * samples.len() as f64) * 1e6,
            "us",
        ),
        m("peak_rss_mb", peak_rss_mb(), "MB"),
        m("fit_tokens_per_s", tokens_per_s, "tokens/s"),
        m("steal_share", steal, "ratio"),
        m("nmi", nmi, "1"),
        m("perplexity", perplexity, "1"),
    ];
    let estep_s = col(|s| s.estep_s);
    let fold_s = col(|s| s.fold_s);
    let sync_s = col(|s| s.sync_s);
    let eta_s = col(|s| s.eta_s);
    let nu_s = col(|s| s.nu_s);
    let init_s = col(FitSample::init_s);
    let save_s = col(|s| s.save_s);
    if args.trace {
        metrics.extend([
            m("datagen.generate_s", median(&setup_s), "s"),
            m("core.estep_s", estep_s - fold_s - sync_s, "s"),
            m("parallel.fold_s", fold_s, "s"),
            m("parallel.sync_s", sync_s, "s"),
            m("parallel.imbalance", col(|s| s.imbalance), "ratio"),
            m("parallel.changed_docs", col(|s| s.changed_docs), "count"),
            m("gibbs.row_occupancy", col(|s| s.row_occupancy), "ratio"),
            m("mstep.eta_s", eta_s, "s"),
            m("mstep.nu_s", nu_s, "s"),
            m("core.init_s", init_s, "s"),
            m("counts.plane_bytes", col(|s| s.plane_bytes), "bytes"),
            m("io.save_s", save_s, "s"),
        ]);
    }

    let named = estep_s + eta_s + nu_s;
    let layer_sums = vec![
        format!(
            "fit: Cpd::fit {wall_s:.4} s = core.estep {:.4} + parallel.fold {fold_s:.4} + parallel.sync {sync_s:.4} \
             + mstep.eta {eta_s:.4} + mstep.nu {nu_s:.4} + gap core.init_s {init_s:.4}; named layers cover {:.1}%{}",
            estep_s - fold_s - sync_s,
            100.0 * named / wall_s,
            within_or_gap(named, wall_s, "core.init_s"),
        ),
        format!(
            "fit job: p50 {:.1} ms = Cpd::fit {:.1} + io.save {:.1} (medians of separate samples, {:+.2} ms apart)",
            median(&job_ms),
            wall_s * 1e3,
            save_s * 1e3,
            median(&job_ms) - (wall_s + save_s) * 1e3
        ),
    ];

    let mut phase = Phase::new("fit");
    phase.attempted = samples.len() as u64;
    phase.succeeded = samples.len() as u64;
    Ok(Outcome {
        report: Report {
            workload: "fit".into(),
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            host: args.host.clone(),
            shape: Shape {
                threads,
                workers: 0,
                connections: 0,
            },
            phases: vec![phase],
            metrics,
            layer_sums,
        },
        failures,
        spans,
    })
}
