//! One benchmark run: set-up, timed traffic, checks, and the metrics.

use crate::bringup::{bring_up, Phases};
use crate::fixture::{self, Shape, CACHE_DIR};
use crate::traffic::{self, Install, Load, Pool, Sample};
use crate::util::{host_cpu, mean, median, ms, ns_to_ms, peak_rss_mib, percentile, process_cpu, HostCpu, Rng};
use crate::verify::{serial_config, LedgerRow, Verifier, COUNTERS};
use hmmm_core::{FeedbackConfig, FeedbackLog};
use hmmm_serve::{ModelSnapshot, QueryServer};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bring-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Feedback rounds run on the idle server after the query window of the
/// read-only workload, so `install_ms` is measured on every archive.
const IDLE_ROUNDS: usize = 6;

/// Untimed closed-loop traffic before the window. The first second of
/// traffic after bring-up runs at about half speed on a 2-core host.
const WARM_UP: Duration = Duration::from_secs(2);

/// Connections of the closed loop (the host has 2 cores).
const CONNS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SkewedClosed,
    LearnMixed,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::SkewedClosed, Workload::LearnMixed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SkewedClosed => "skewed-closed",
            Workload::LearnMixed => "learn-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn shape(self) -> Shape {
        match self {
            Workload::SkewedClosed => Shape::Skewed,
            Workload::LearnMixed => Shape::Uniform,
        }
    }

    /// Zipf exponent of the query mix (0 = uniform).
    fn exponent(self) -> f64 {
        match self {
            Workload::SkewedClosed => 0.0,
            Workload::LearnMixed => 1.0,
        }
    }
}

/// Command-line configuration of a run.
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub archive_seed: u64,
}

/// Everything that shapes one measurement; the self-test shrinks it.
pub struct Params<'a> {
    pub workload: Workload,
    pub catalog: &'a Path,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
    pub setup_reps: usize,
    pub idle_rounds: usize,
    pub warm_up: Duration,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// What a measurement produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Share of host CPU time stolen by other guests during the window.
    pub steal_pct: f64,
    /// The window's 90th and 99th percentile client wall times, ms, and
    /// how many completed requests lie beyond the 99th. Printed for the
    /// reader but not reported as metrics: on a shared host they follow
    /// CPU steal more than the server (see README.md, "Known gaps").
    pub p90_ms: f64,
    pub p99_ms: f64,
    pub beyond_p99: usize,
    trace_lines: Vec<String>,
}

pub fn run(config: &Config) -> Result<bool, String> {
    let shapes = [Shape::Uniform, Shape::Skewed];
    let catalogs = fixture::ensure(&shapes, config.archive_seed)?;
    let shape = config.workload.shape();
    let catalog = &catalogs[shapes.iter().position(|&s| s == shape).expect("every workload shape is built")];
    let outcome = measure(&Params {
        workload: config.workload,
        catalog,
        seed: config.seed,
        window: Duration::from_secs(config.seconds),
        trace: config.trace,
        setup_reps: SETUP_REPS,
        idle_rounds: IDLE_ROUNDS,
        warm_up: WARM_UP,
    })?;
    if config.trace {
        let path = PathBuf::from(format!("{CACHE_DIR}/traces/{}-seed{}.jsonl", config.workload.name(), config.seed));
        write_trace(&path, &outcome.trace_lines)?;
        eprintln!("wrote {} trace records to {}", outcome.trace_lines.len(), path.display());
    }
    print_outcome(&outcome);
    Ok(outcome.failed == 0)
}

fn write_trace(path: &Path, lines: &[String]) -> Result<(), String> {
    let dir = path.parent().expect("trace path has a directory");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut file = std::io::BufWriter::new(std::fs::File::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?);
    for line in lines {
        writeln!(file, "{line}").map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    file.flush().map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Human-readable lines, then the one-line JSON result last.
pub fn print_outcome(outcome: &Outcome) {
    for m in &outcome.metrics {
        println!("{:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("host CPU steal in the timed window: {:.1} %", outcome.steal_pct);
    println!(
        "tail over the window (not a metric): p90 {:.2} ms, p99 {:.2} ms with {} requests beyond it",
        outcome.p90_ms, outcome.p99_ms, outcome.beyond_p99
    );
    println!("attempted {} operations, {} failed", outcome.attempted, outcome.failed);
    for message in &outcome.messages {
        println!("FAILED: {message}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, json_number(m.value), m.unit))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}

/// JSON has no NaN or infinity; such a value prints as `null`, which no
/// consumer takes for a measurement.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

/// Everything the timed part of a run leaves behind for the metrics.
#[derive(Default)]
struct Window {
    samples: Vec<Sample>,
    spans: Vec<traffic::Span>,
    retries: u64,
    elapsed: Duration,
    cpu: Duration,
    installs: Vec<Install>,
    install_attempts: u64,
    rows: Vec<LedgerRow>,
    /// Host CPU accounting over the timed window.
    host: HostCpu,
}

impl Window {
    fn absorb(&mut self, load: Load) {
        self.samples.extend(load.samples);
        self.spans.extend(load.spans);
        self.retries += load.retries;
    }
}

pub fn measure(p: &Params<'_>) -> Result<Outcome, String> {
    let origin = Instant::now();
    let mut rng = Rng::new(p.seed);
    let pool = Pool::soccer(p.workload.exponent());

    let mut setups: Vec<Phases> = Vec::new();
    let mut live = None;
    for rep in 0..p.setup_reps.max(1) {
        let (server, phases) = bring_up(p.catalog, p.trace)?;
        setups.push(phases);
        if rep + 1 < p.setup_reps {
            server.stop();
        } else {
            live = Some(server);
        }
    }
    let live = live.expect("at least one bring-up");
    let server = Arc::clone(&live.server);
    let mut verifier = Verifier::new(&pool, serial_config(&server));
    let epoch0 = server.snapshot();
    verifier.check_generation(&epoch0);
    // Warm-up: untimed, unchecked closed-loop traffic on its own seed, so
    // the window starts on warm caches and faulted-in worker memory.
    traffic::closed_loop(live.addr, &pool, CONNS, p.warm_up, &mut Rng::new(0), false);

    let replay_reps = if p.trace { 3 } else { 0 };
    let mut w = Window::default();
    match p.workload {
        Workload::SkewedClosed => {
            let (cpu0, host0) = (process_cpu(), host_cpu());
            let (load, elapsed) = traffic::closed_loop(live.addr, &pool, CONNS, p.window, &mut rng, p.trace);
            w.cpu = process_cpu() - cpu0;
            w.host = host_cpu() - host0;
            w.elapsed = elapsed;
            w.rows = verifier.check_samples(&load.samples, &[Arc::clone(&epoch0)], replay_reps);
            w.absorb(load);
            drop(epoch0);
            idle_rounds(&server, p.idle_rounds, p.trace, &mut verifier, &mut w);
        }
        Workload::LearnMixed => learn_mixed(p, &live, epoch0, &pool, &mut rng, &mut verifier, &mut w),
    }
    let rss = peak_rss_mib();
    drop(server);
    live.stop();

    let attempted = (setups.len() + w.samples.len()) as u64 + w.install_attempts;
    let metrics = if p.trace {
        per_layer(&setups, &w)
    } else {
        end_to_end(&setups, &w, rss)
    };
    let trace_lines = if p.trace { trace_lines(origin, &setups, &w) } else { Vec::new() };
    let walls = ok_walls_ms(&w.samples, None);
    let p99 = percentile(&walls, 0.99);
    Ok(Outcome {
        attempted,
        failed: verifier.failed,
        messages: verifier.messages,
        metrics,
        steal_pct: w.host.steal_pct(),
        p90_ms: percentile(&walls, 0.90),
        p99_ms: p99,
        beyond_p99: walls.iter().filter(|&&x| x > p99).count(),
        trace_lines,
    })
}

/// Feedback rounds on the idle server after a read-only window, fed with
/// confirmations of the window's own top results.
fn idle_rounds(server: &QueryServer, rounds: usize, traced: bool, verifier: &mut Verifier<'_>, w: &mut Window) {
    let threshold = FeedbackConfig::default().update_threshold as usize;
    let replies: Vec<_> = w
        .samples
        .iter()
        .filter_map(|s| s.reply.as_ref().ok())
        .filter(|r| !r.results.is_empty())
        .cloned()
        .collect();
    if replies.is_empty() {
        verifier.fail("no reply to confirm for the idle feedback rounds".into());
        return;
    }
    let mut log = FeedbackLog::new();
    let mut session = 0u64;
    let mut epoch = server.epoch();
    let mut confirmations = replies.iter().cycle().take(rounds * threshold * 2);
    for _ in 0..rounds {
        while log.pending() < threshold {
            let Some(reply) = confirmations.next() else { break };
            traffic::confirm(&mut log, session, reply);
            session += 1;
        }
        let installed = traffic::feedback_round(server, &mut log, traced);
        record_install(installed, server, &mut epoch, verifier, w);
    }
}

/// Accounts for one feedback round and checks the generation it
/// installed: the epoch must advance by exactly one and the new
/// `A_1`/`Π_1` must be stochastic. Returns the new generation.
fn record_install(
    installed: Result<Install, String>,
    server: &QueryServer,
    epoch: &mut u64,
    verifier: &mut Verifier<'_>,
    w: &mut Window,
) -> Option<Arc<ModelSnapshot>> {
    w.install_attempts += 1;
    let install = match installed {
        Ok(install) => install,
        Err(e) => {
            verifier.fail(format!("feedback round failed: {e}"));
            return None;
        }
    };
    w.installs.push(install);
    let snap = server.snapshot();
    if install.epoch != *epoch + 1 || snap.epoch != install.epoch {
        verifier.fail(format!(
            "install after epoch {epoch} published epoch {} (live {})",
            install.epoch, snap.epoch
        ));
    } else {
        verifier.check_generation(&snap);
    }
    *epoch = snap.epoch;
    Some(snap)
}

/// The learn-mixed window: rounds of (closed-loop queries ∥ confirmations
/// and one feedback round), each checked right after it ends so only the
/// two generations a round can see are kept alive. Only the rounds
/// themselves are timed.
fn learn_mixed(
    p: &Params<'_>,
    live: &crate::bringup::Live,
    epoch0: Arc<ModelSnapshot>,
    pool: &Pool,
    rng: &mut Rng,
    verifier: &mut Verifier<'_>,
    w: &mut Window,
) {
    let server = &live.server;
    let mut client = traffic::client(live.addr, rng.next_u64());
    let mut mix = pool.mix(rng.fork(1));
    let mut log = FeedbackLog::new();
    let (mut session, mut next_id) = (0u64, 0u64);
    let mut prev = epoch0;
    let mut epoch = prev.epoch;
    let mut round = 0usize;
    while w.elapsed < p.window {
        let traced = p.trace && round % 2 == 1;
        let (cpu0, host0) = (process_cpu(), host_cpu());
        let t0 = Instant::now();
        let (load, installed) =
            traffic::learn_round(&mut client, server, pool, &mut mix, &mut log, &mut session, &mut next_id, traced);
        w.elapsed += t0.elapsed();
        w.cpu += process_cpu() - cpu0;
        w.host += host_cpu() - host0;
        let mut snaps = vec![Arc::clone(&prev)];
        if let Some(next) = record_install(installed, server, &mut epoch, verifier, w) {
            snaps.push(Arc::clone(&next));
            prev = next;
        }
        w.rows.extend(verifier.check_samples(&load.samples, &snaps, usize::from(traced)));
        w.absorb(load);
        round += 1;
    }
}

fn ok_walls_ms(samples: &[Sample], traced: Option<bool>) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.reply.is_ok() && traced.is_none_or(|t| s.traced == t))
        .map(|s| ns_to_ms(s.wall_ns()))
        .collect()
}

fn end_to_end(setups: &[Phases], w: &Window, rss: f64) -> Vec<Metric> {
    let walls = ok_walls_ms(&w.samples, None);
    let completed = walls.len().max(1) as f64;
    let setup: Vec<f64> = setups.iter().map(|s| s.total.as_secs_f64()).collect();
    let installs: Vec<f64> = w.installs.iter().map(|i| ms(i.wall)).collect();
    vec![
        metric("setup_s", median(&setup), "s"),
        metric("qps", walls.len() as f64 / w.elapsed.as_secs_f64().max(1e-9), "1/s"),
        metric("p50_ms", percentile(&walls, 0.50), "ms"),
        metric("cpu_ms_per_query", ms(w.cpu) / completed, "ms"),
        metric("install_ms", median(&installs), "ms"),
        metric("peak_rss_mib", rss, "MiB"),
    ]
}

fn per_layer(setups: &[Phases], w: &Window) -> Vec<Metric> {
    let phase = |f: fn(&Phases) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let rows = &w.rows;
    let col = |f: fn(&LedgerRow) -> f64| rows.iter().map(f).collect::<Vec<f64>>();
    let queries = w.samples.len().max(1) as f64;
    let mut out = vec![
        metric("storage.load_ms", phase(|s| s.load_ms), "ms"),
        metric(
            "storage.catalog_mib",
            setups.first().map_or(0.0, |s| s.catalog_bytes as f64 / (1 << 20) as f64),
            "MiB",
        ),
        metric("construct.build_ms", phase(|s| s.build_ms), "ms"),
        metric("audit.deep_audit_ms", phase(|s| s.audit_ms), "ms"),
        metric("serve.start_ms", phase(|s| s.start_ms), "ms"),
        metric("query.compile_us", mean(&col(|r| r.compile_ns)) / 1e3, "us"),
        metric("net.overhead_ms_p50", percentile(&col(LedgerRow::net_ns), 0.5) / 1e6, "ms"),
        metric("net.reply_kib", mean(&col(|r| r.reply_bytes)) / 1024.0, "KiB"),
        metric("client.retries", w.retries as f64 / queries, "count"),
        metric("serve.queue_ms_p50", percentile(&col(|r| r.queue_ns), 0.5) / 1e6, "ms"),
        metric("serve.queue_ms_p99", percentile(&col(|r| r.queue_ns), 0.99) / 1e6, "ms"),
        metric("serve.service_ms_p50", percentile(&col(|r| r.service_ns), 0.5) / 1e6, "ms"),
        metric("serve.service_ms_p99", percentile(&col(|r| r.service_ns), 0.99) / 1e6, "ms"),
        metric("retriever.new_ms", mean(&col(|r| r.new_ns)) / 1e6, "ms"),
        metric("retrieve.ms", mean(&col(|r| r.retrieve_ns)) / 1e6, "ms"),
    ];
    for (i, key) in COUNTERS.iter().enumerate() {
        let values: Vec<f64> = rows.iter().map(|r| r.counters[i]).collect();
        out.push(metric(&format!("retrieve.{key}"), mean(&values), "count"));
    }
    // NaN when either counter is missing (see `COUNTERS`).
    let visited: f64 = rows.iter().map(|r| r.counters[3]).sum();
    let skipped: f64 = rows.iter().map(|r| r.counters[4]).sum();
    out.push(metric(
        "retrieve.bound_skip_ratio",
        if visited + skipped == 0.0 { 0.0 } else { skipped / (visited + skipped) },
        "ratio",
    ));
    let relearn: Vec<f64> = w.installs.iter().filter_map(|i| i.relearn).map(ms).collect();
    let install: Vec<f64> = w.installs.iter().filter_map(|i| i.install).map(ms).collect();
    out.push(metric("feedback.relearn_ms", median(&relearn), "ms"));
    out.push(metric("snapshot.install_ms", median(&install), "ms"));
    out.push(metric("ledger.unattributed_ms_p50", percentile(&col(LedgerRow::unattributed_ns), 0.5) / 1e6, "ms"));
    let untraced = percentile(&ok_walls_ms(&w.samples, Some(false)), 0.5);
    let traced = percentile(&ok_walls_ms(&w.samples, Some(true)), 0.5);
    out.push(metric(
        "obs.trace_overhead_pct",
        if untraced > 0.0 { (traced - untraced) / untraced * 100.0 } else { 0.0 },
        "%",
    ));
    out.push(metric("obs.untraced_p50_ms", untraced, "ms"));
    out.push(metric("ledger.requests", rows.len() as f64, "count"));
    out.push(metric("host.steal_pct", w.host.steal_pct(), "%"));
    out
}

/// The trace file: set-up phases, every recorded span, and one ledger
/// line per traced request whose phases add up to its client wall time.
fn trace_lines(origin: Instant, setups: &[Phases], w: &Window) -> Vec<String> {
    let mut lines = Vec::new();
    for (rep, s) in setups.iter().enumerate() {
        lines.push(format!(
            "{{\"kind\": \"setup\", \"rep\": {rep}, \"load_ms\": {:?}, \"build_hmmm_ms\": {:?}, \"deep_audit_ms\": {:?}, \"server_start_ms\": {:?}, \"total_ms\": {:?}}}",
            s.load_ms,
            s.build_ms,
            s.audit_ms,
            s.start_ms,
            ms(s.total)
        ));
    }
    let us = |t: Instant| (t.saturating_duration_since(origin)).as_secs_f64() * 1e6;
    for span in &w.spans {
        lines.push(format!(
            "{{\"kind\": \"span\", \"id\": {}, \"name\": \"{}\", \"start_us\": {:?}, \"end_us\": {:?}}}",
            span.id,
            span.name,
            us(span.start),
            us(span.end)
        ));
    }
    for i in &w.installs {
        if let (Some(relearn), Some(install)) = (i.relearn, i.install) {
            lines.push(format!(
                "{{\"kind\": \"install\", \"epoch\": {}, \"apply_feedback_ms\": {:?}, \"install_ms\": {:?}}}",
                i.epoch,
                ms(relearn),
                ms(install)
            ));
        }
    }
    for r in &w.rows {
        lines.push(format!(
            "{{\"kind\": \"ledger\", \"id\": {}, \"wall_ms\": {:?}, \"net_codec_ms\": {:?}, \"queue_ms\": {:?}, \"service_ms\": {:?}, \"retriever_new_ms\": {:?}, \"retrieve_ms\": {:?}, \"unattributed_ms\": {:?}}}",
            r.id,
            r.wall_ns / 1e6,
            r.net_ns() / 1e6,
            r.queue_ns / 1e6,
            r.service_ns / 1e6,
            r.new_ns / 1e6,
            r.retrieve_ns / 1e6,
            r.unattributed_ns() / 1e6
        ));
    }
    lines
}
