//! `perfbench` — one benchmark for the CPD fit and serve paths.
//!
//! ```text
//! perfbench --workload <fit|serve_lookup|serve_mixed> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! perfbench compare <base-report.json> <new-report.json>
//! ```
//!
//! Run from the repository root (`cargo run --release --offline
//! --manifest-path perfbench/Cargo.toml -- …`). Every input is
//! generated from `--seed`; the program only ever sees the generated
//! corpus, snapshot and requests. A run checks the program's outputs,
//! prints a report (host stamp, per-phase request accounting, every
//! named metric with its unit, the layer-sum lines) and then, as its
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: with `--trace 0` the end-to-end metrics, with `--trace 1`
//! the per-layer ones. A failed output check prints the failures to
//! stderr and exits 1 without a result line. The full report and the
//! run's spans are written under `.bench_work/`; `compare` diffs two
//! reports and refuses ones from different hosts.
//!
//! # Workloads
//!
//! | workload | what runs | why |
//! |---|---|---|
//! | `fit` | `Cpd::fit` (threads = 2) on `twitter_like(Medium)` with the `experiment` preset, then `io::save_model`, back to back for `--seconds` | exercises core / gibbs / counts / parallel / mstep and no serve code |
//! | `serve_lookup` | open loop at 2000 req/s over 2 loopback connections, table lookups only; p99 limit 20 ms; then a saturated phase | dominated by client / wire / server / runtime dispatch; bypasses foldin, cache, io |
//! | `serve_mixed` | open loop at 400 req/s: 80% lookups, 20% heavy-tailed fold-ins (half repeats), an admin reload every 4 s; p99 limit 100 ms; then a saturated phase | puts foldin Gibbs, cache and io + index reload next to the cheap lookups |
//!
//! Serve workloads give 50% of `--seconds` to the fixed-rate phase
//! (rounded up to whole reload cycles) and 40% to the saturated phase;
//! the traced run gives 40% to the fixed-rate phase at 100% trace
//! sampling and 25% to the paired overhead blocks, and replays 2000
//! requests down the layer ladder.
//!
//! # End-to-end metrics (`--trace 0`, every workload)
//!
//! | metric | unit | `fit` | `serve_*` |
//! |---|---|---|---|
//! | `setup_s` | s | median of 7 corpus generations | median of 5 set-ups: snapshot load, index build, server start, connect, warm-up |
//! | `cpu_us_per_op` | us | process CPU time per token-sweep over the fit jobs | process CPU time per request in the saturated phase |
//! | `peak_rss_mb` | MB | `VmHWM` after the fits | `VmHWM` after the fixed-rate phase |
//!
//! The report names, ungated, each workload's other figures:
//! `fit_tokens_per_s` (tokens × sweeps × EM iterations ÷ median
//! `Cpd::fit` wall), `nmi` (argmax π against the planted communities),
//! `perplexity`, and `p50_ms`/`p99_ms` (median and slowest
//! `Cpd::fit` + `io::save_model` job) for `fit`; for the serve
//! workloads `max_qps` (the saturated completion rate: both
//! connections pipeline full batches back to back, median over 1 s
//! windows), `p50_ms` (median over 0.5 s windows, or over reload cycles
//! for `serve_mixed`, of each window's median latency from due time),
//! `p99_ms` and `p99_lookup_ms` (the same over windows of about 1000
//! requests, of each window's p99), `fixed_cpu_us_per_req`,
//! `error_rate` and, for `serve_mixed`, `reload_s`; and for all,
//! `steal_share`, the share of the machine's CPU time the hypervisor
//! stole while the workload ran.
//!
//! Why CPU time is gated and wall time is not: on a shared 2-vCPU
//! virtual machine the hypervisor steals up to a third of the CPU time
//! for minutes at a time, and the same seed's `fit_tokens_per_s`,
//! `max_qps` and `p50_ms` then move by 20–60% from run to run, while
//! CPU time per operation moves by a few percent (`steal_share` in the
//! report shows how disturbed a run was). CPU time does not see a
//! change that only alters how well work overlaps (a fit that stops
//! running in parallel costs the same CPU per token-sweep), so a claim
//! about wall time must quote the ungated figures with their spread.
//! A search for the highest rate whose p99 meets the limit is not used
//! for `max_qps` for the same reason: single multi-millisecond stalls
//! decide each step; the report states whether the fixed-rate p99 met
//! the limit.
//!
//! # Per-layer metrics (`--trace 1`) and what they should move
//!
//! | metric | layer / how it is measured | should move |
//! |---|---|---|
//! | `datagen.generate_s` | `cpd_datagen::generate` | `setup_s` @ fit |
//! | `core.estep_s` | Σ `estep_seconds` − fold − sync (self time) | `cpu_us_per_op`, `fit_tokens_per_s` @ fit |
//! | `parallel.fold_s`, `parallel.sync_s` | Σ `merge_seconds`, Σ `snapshot_seconds` | `cpu_us_per_op`, `fit_tokens_per_s` @ fit |
//! | `parallel.imbalance` | max ÷ mean `last_thread_seconds` | `cpu_us_per_op`, `fit_tokens_per_s` @ fit |
//! | `parallel.changed_docs` | Σ `changed_docs` | `cpu_us_per_op`, `fit_tokens_per_s` @ fit |
//! | `gibbs.row_occupancy` | mean `avg_row_occupancy` | `cpu_us_per_op`, `fit_tokens_per_s` @ fit |
//! | `mstep.eta_s`, `mstep.nu_s` | Σ `mstep_eta_seconds`, Σ `mstep_nu_seconds` | `cpu_us_per_op`, `fit_tokens_per_s` @ fit |
//! | `core.init_s` | gap: fit wall − E-step − M-step | `cpu_us_per_op`, `fit_tokens_per_s` @ fit |
//! | `counts.plane_bytes` | `plane_bytes.total()` | `peak_rss_mb` @ fit |
//! | `io.save_s` | `io::save_model` of the fit | (reported) |
//! | `io.load_s`, `index.build_s` | `io::load_model`, `ProfileIndex::build` | `setup_s` @ serve_*, `reload_s` @ serve_mixed |
//! | `handle.swap_s` | gap: `reload_s` − load − build | `reload_s` @ serve_mixed |
//! | `index.exec_us.{ranking,top_words,profile,link_score}` | direct `ProfileIndex` calls | `cpu_us_per_op`, `p50_ms` @ serve_lookup |
//! | `foldin.exec_us`, `foldin.tokens` | direct `FoldIn::profile_with_seed` | `p50_ms`/`p99_ms` @ serve_mixed |
//! | `cache.hit_rate` | `ServeDiagnostics::cache` over the fixed phase | `cpu_us_per_op`, `p50_ms` @ serve_mixed |
//! | `runtime.dispatch_us` | `ServeRuntime::submit_batch` − direct execute | `cpu_us_per_op`, `p50_ms` @ serve_lookup |
//! | `runtime.queue_high_water`, `runtime.shed`, `runtime.deadline_exceeded` | `ServeDiagnostics` | `p99_ms` @ serve_* |
//! | `wire.encode_us`, `wire.decode_us` | `wire::encode_*` / `read_*` in memory | `cpu_us_per_op`, `p50_ms` @ serve_lookup |
//! | `server.socket_us` | gap: TCP round trip − wire − `submit_batch` | `cpu_us_per_op`, `p50_ms` @ serve_lookup |
//! | `server.{socket_read,queue_wait,execute,encode_write}_us` | the server's own spans at 100% trace sampling | `p99_ms` @ serve_* |
//! | `client.batch_len`, `client.retries` | requests per `query_batch`; resent frames | `p99_ms` @ serve_* |
//! | `generator.lateness_ms` | p99 of how late the generator sent | (validity of the run) |
//! | `trace.overhead_us` | median of paired traced − untraced lookup round trips | (cost of tracing) |
//!
//! A layer a workload does not exercise reports 0 (no work done in it).

mod fit;
mod host;
mod report;
mod serve;
mod spans;
mod stats;

use host::HostStamp;
use report::{number, quote, Report};
use spans::Recorder;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics and their units, as `BENCHMARK.json` lists them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units, as `BENCHMARK.json` lists them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.generate_s", "s"),
    ("core.estep_s", "s"),
    ("parallel.fold_s", "s"),
    ("parallel.sync_s", "s"),
    ("parallel.imbalance", "ratio"),
    ("parallel.changed_docs", "count"),
    ("gibbs.row_occupancy", "ratio"),
    ("mstep.eta_s", "s"),
    ("mstep.nu_s", "s"),
    ("core.init_s", "s"),
    ("counts.plane_bytes", "bytes"),
    ("io.save_s", "s"),
    ("io.load_s", "s"),
    ("index.build_s", "s"),
    ("handle.swap_s", "s"),
    ("index.exec_us.ranking", "us"),
    ("index.exec_us.top_words", "us"),
    ("index.exec_us.profile", "us"),
    ("index.exec_us.link_score", "us"),
    ("foldin.exec_us", "us"),
    ("foldin.tokens", "tokens"),
    ("cache.hit_rate", "ratio"),
    ("runtime.dispatch_us", "us"),
    ("runtime.queue_high_water", "count"),
    ("runtime.shed", "count"),
    ("runtime.deadline_exceeded", "count"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("server.socket_us", "us"),
    ("server.socket_read_us", "us"),
    ("server.queue_wait_us", "us"),
    ("server.execute_us", "us"),
    ("server.encode_write_us", "us"),
    ("client.batch_len", "count"),
    ("client.retries", "count"),
    ("generator.lateness_ms", "ms"),
    ("trace.overhead_us", "us"),
];

pub const WORKLOADS: &[&str] = &["fit", "serve_lookup", "serve_mixed"];

/// Where reports, spans and temporary snapshots go (inside the checkout).
const WORK_DIR: &str = ".bench_work";

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Tiny inputs and short phases, for the benchmark's own tests.
    pub smoke: bool,
    pub work_dir: PathBuf,
    pub host: HostStamp,
}

/// What a workload hands back: its report, any failed output checks,
/// and the spans it recorded.
pub struct Outcome {
    pub report: Report,
    pub failures: Vec<String>,
    pub spans: Recorder,
}

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(RunArgs {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        work_dir: PathBuf::from(WORK_DIR),
        host: HostStamp::detect(),
    })
}

fn compare_reports(base: &str, new: &str) -> Result<String, String> {
    let read = |p: &str| -> Result<Report, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Report::from_json(&text).map_err(|e| format!("{p}: {e}"))
    };
    report::compare(&read(base)?, &read(new)?)
}

/// The result line: the selected metrics by name, with their units.
/// A per-layer metric the workload does not exercise reads 0.
fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let (names, fill_missing) = if trace {
        (PER_LAYER, true)
    } else {
        (END_TO_END, false)
    };
    let mut fields = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = match outcome.report.metric(name) {
            Some(m) if m.unit == unit => m.value,
            Some(m) => return Err(format!("{name} measured in {} not {unit}", m.unit)),
            None if fill_missing => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        fields.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            quote(name),
            number(value),
            quote(unit)
        ));
    }
    let attempted: u64 = outcome.report.phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = outcome.report.phases.iter().map(|p| p.failed()).sum();
    Ok(format!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        fields.join(",")
    ))
}

fn run(args: &RunArgs, epoch: Instant) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("{}: {e}", args.work_dir.display()))?;
    match args.workload.as_str() {
        "fit" => fit::run(args, epoch),
        "serve_lookup" => serve::run(&serve::SERVE_LOOKUP, args, epoch),
        "serve_mixed" => serve::run(&serve::SERVE_MIXED, args, epoch),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, base, new] => match compare_reports(base, new) {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench compare: {e}");
                    ExitCode::FAILURE
                }
            },
            _ => {
                eprintln!("usage: perfbench compare <base-report.json> <new-report.json>");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args, epoch) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let report_path = args.work_dir.join(format!("report-{stem}.json"));
    let spans_path = args.work_dir.join(format!("spans-{stem}.jsonl"));
    if let Err(e) = std::fs::write(&report_path, outcome.report.to_json())
        .and_then(|()| outcome.spans.write_jsonl(&spans_path))
    {
        eprintln!("perfbench: writing the report: {e}");
        return ExitCode::FAILURE;
    }
    print!("{}", outcome.report.render_text());
    for (name, t) in outcome.spans.self_times() {
        println!(
            "span {name:<28} n={:<7} total_ms={:<12.3} self_ms={:.3}",
            t.count,
            t.total_ns as f64 * 1e-6,
            t.self_ns as f64 * 1e-6
        );
    }
    println!(
        "report: {} spans: {}",
        report_path.display(),
        spans_path.display()
    );
    if !outcome.failures.is_empty() {
        for f in &outcome.failures {
            eprintln!("perfbench: output check failed: {f}");
        }
        return ExitCode::FAILURE;
    }
    match result_line(&outcome, args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::json;

    fn benchmark_json() -> json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(v: &json::Value, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(|l| l.array().map(<[_]>::to_vec))
            .expect(key)
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(|n| n.string()).unwrap().to_string(),
                    m.get("unit").and_then(|u| u.string()).unwrap().to_string(),
                )
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_benchmark_emits() {
        let b = benchmark_json();
        assert_eq!(listed(&b, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&b, "per_layer"), owned(PER_LAYER));
        let workloads: Vec<String> = b
            .get("workloads")
            .and_then(|w| w.array().map(<[_]>::to_vec))
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|n| n.string()).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn benchmark_json_quotes_each_serve_rate_and_limit() {
        let b = benchmark_json();
        for spec in [&serve::SERVE_LOOKUP, &serve::SERVE_MIXED] {
            let why = b
                .get("workloads")
                .and_then(|w| w.array().map(<[_]>::to_vec))
                .unwrap()
                .iter()
                .find(|w| w.get("name").and_then(|n| n.string()).ok() == Some(spec.name))
                .and_then(|w| w.get("why").ok().cloned())
                .and_then(|w| w.string().ok().map(str::to_string))
                .unwrap();
            assert!(why.contains(&format!("{} req/s", spec.rate)), "{why}");
            assert!(
                why.contains(&format!("p99 limit {} ms", spec.p99_limit_ms)),
                "{why}"
            );
            assert!(why.contains("--seed"), "{why}");
        }
    }

    /// Run one workload in smoke mode and check the result line carries
    /// every metric of its mode, by name and unit.
    fn smoke(workload: &str, trace: bool) {
        let args = RunArgs {
            workload: workload.into(),
            seed: 5,
            seconds: 1,
            trace,
            smoke: true,
            work_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.bench_work/tests")),
            host: HostStamp::detect(),
        };
        let outcome = run(&args, Instant::now()).expect("smoke run");
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        let line = json::parse(&result_line(&outcome, trace).unwrap()).unwrap();
        assert_eq!(line.get("correct").unwrap(), &json::Value::Bool(true));
        assert!(line.get("attempted").unwrap().num().unwrap() >= 1.0);
        let metrics = line.get("metrics").unwrap();
        let expected = if trace { PER_LAYER } else { END_TO_END };
        let names: Vec<&str> = metrics
            .object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, expected.iter().map(|&(n, _)| n).collect::<Vec<_>>());
        for &(name, unit) in expected {
            let m = metrics.get(name).unwrap();
            assert_eq!(m.get("unit").unwrap().string().unwrap(), unit, "{name}");
            let value = m.get("value").unwrap().num().unwrap();
            assert!(value.is_finite(), "{name} = {value}");
            if !trace {
                assert!(value > 0.0, "end-to-end {name} must never be 0");
            }
        }
        let report = Report::from_json(&outcome.report.to_json()).unwrap();
        assert_eq!(report.host, args.host);
    }

    #[test]
    fn smoke_fit() {
        smoke("fit", false);
        smoke("fit", true);
    }

    #[test]
    fn smoke_serve_lookup() {
        smoke("serve_lookup", false);
        smoke("serve_lookup", true);
    }

    #[test]
    fn smoke_serve_mixed() {
        smoke("serve_mixed", false);
        smoke("serve_mixed", true);
    }

    #[test]
    fn arguments_are_checked() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        assert!(parse("--workload fit --seed 1 --seconds 2 --trace 0").is_ok());
        assert!(parse("--workload nope --seed 1 --seconds 2 --trace 0").is_err());
        assert!(parse("--workload fit --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload fit --seed 1 --seconds 2 --trace 2").is_err());
        assert!(parse("--workload fit --seconds 2 --trace 0").is_err());
    }
}
