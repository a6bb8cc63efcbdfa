//! Load generation over real TCP: the query mix, the closed loop, and the
//! learn-mixed read/write rounds. At most two load threads or connections
//! run at once.

use crate::util::Rng;
use hmmm_core::order::cmp_f64_desc;
use hmmm_core::{FaultHandle, FeedbackConfig, FeedbackLog, PositivePattern, RecorderHandle};
use hmmm_query::CompiledPattern;
use hmmm_serve::{NetClient, NetOutcome, PatternPool, QueryServer, RetryPolicy, WireResponse};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Results requested per query (top-10).
pub const LIMIT: usize = 10;

/// In a traced run, requests alternate between untraced and traced by
/// half-second segments of the window, so both halves see the same
/// conditions and their difference is the tracing overhead.
const TRACE_SEGMENT: Duration = Duration::from_millis(500);

/// Requests per block of the stratified mix: each block holds every
/// pattern in its exact Zipf proportion (largest-remainder rounding), in a
/// seeded random order. Exact proportions keep the per-run cost mix — and
/// so CPU per query and latency — from wandering with the seed.
const MIX_BLOCK: usize = 200;

/// The 14-pattern soccer mix with Zipf weights `rank^-exponent`.
pub struct Pool {
    pub texts: Vec<String>,
    pub patterns: Vec<CompiledPattern>,
    /// Occurrences of each pattern in one mix block.
    block_counts: Vec<usize>,
}

impl Pool {
    pub fn soccer(exponent: f64) -> Pool {
        let pool = PatternPool::soccer(exponent).expect("built-in patterns compile");
        let (texts, patterns): (Vec<String>, Vec<CompiledPattern>) = (0..pool.len())
            .map(|i| {
                let (text, pattern) = pool.get(i);
                (text.to_string(), pattern.clone())
            })
            .unzip();
        let weights: Vec<f64> = (0..texts.len()).map(|rank| ((rank + 1) as f64).powf(-exponent)).collect();
        let total: f64 = weights.iter().sum();
        let quotas: Vec<f64> = weights.iter().map(|w| w / total * MIX_BLOCK as f64).collect();
        let mut block_counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..quotas.len()).collect();
        by_remainder.sort_by(|&a, &b| cmp_f64_desc(quotas[a].fract(), quotas[b].fract()));
        let missing = MIX_BLOCK - block_counts.iter().sum::<usize>();
        for &i in by_remainder.iter().take(missing) {
            block_counts[i] += 1;
        }
        Pool {
            texts,
            patterns,
            block_counts,
        }
    }

    /// An endless seeded stream of pattern indices.
    pub fn mix(&self, rng: Rng) -> Mix<'_> {
        Mix {
            pool: self,
            rng,
            block: Vec::new(),
        }
    }
}

/// See [`MIX_BLOCK`].
pub struct Mix<'a> {
    pool: &'a Pool,
    rng: Rng,
    block: Vec<usize>,
}

impl Mix<'_> {
    pub fn next_pattern(&mut self) -> usize {
        if self.block.is_empty() {
            for (pattern, &n) in self.pool.block_counts.iter().enumerate() {
                self.block.extend(std::iter::repeat_n(pattern, n));
            }
            for i in (1..self.block.len()).rev() {
                let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
                self.block.swap(i, j);
            }
        }
        self.block.pop().expect("a mix block is never empty")
    }
}

/// One query as the client saw it.
#[derive(Debug)]
pub struct Sample {
    /// Request identifier, shared by every span of the request.
    pub id: u64,
    pub conn: usize,
    pub pattern: usize,
    pub sent: Instant,
    pub done: Instant,
    /// Whether this request ran in a traced segment.
    pub traced: bool,
    pub reply: Result<WireResponse, String>,
}

impl Sample {
    pub fn wall_ns(&self) -> u64 {
        (self.done - self.sent).as_nanos() as u64
    }
}

/// A span the benchmark recorded around one of its own calls.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

/// What one connection or loop produced.
#[derive(Debug, Default)]
pub struct Load {
    pub samples: Vec<Sample>,
    pub spans: Vec<Span>,
    pub retries: u64,
}

impl Load {
    fn merge(&mut self, other: Load) {
        self.samples.extend(other.samples);
        self.spans.extend(other.spans);
        self.retries += other.retries;
    }
}

pub fn client(addr: SocketAddr, seed: u64) -> NetClient {
    NetClient::connect(
        addr,
        RetryPolicy {
            seed,
            ..RetryPolicy::default()
        },
        FaultHandle::noop(),
        RecorderHandle::noop(),
    )
}

/// One blocking query through the wire client.
fn query(client: &mut NetClient, text: &str) -> Result<WireResponse, String> {
    match client.query(text, LIMIT, None) {
        Ok(NetOutcome::Response(response)) => Ok(response),
        Ok(NetOutcome::Rejected(status)) => Err(format!("rejected with status {}: {}", status.code, status.reason)),
        Err(e) => Err(e.to_string()),
    }
}

fn in_traced_segment(trace: bool, start: Instant, at: Instant) -> bool {
    trace && ((at - start).as_nanos() / TRACE_SEGMENT.as_nanos()) % 2 == 1
}

/// Issues one request and records it (plus its span when traced).
fn issue(
    client: &mut NetClient,
    pool: &Pool,
    id: u64,
    conn: usize,
    pattern: usize,
    traced: bool,
    load: &mut Load,
) {
    let sent = Instant::now();
    let reply = query(client, &pool.texts[pattern]);
    let done = Instant::now();
    if traced {
        load.spans.push(Span {
            id,
            name: "client.query",
            start: sent,
            end: done,
        });
    }
    load.samples.push(Sample {
        id,
        conn,
        pattern,
        sent,
        done,
        traced,
        reply,
    });
}

/// `conns` closed-loop clients with no think time until `window` elapses.
/// Returns the load and the time from start until the last reply.
pub fn closed_loop(
    addr: SocketAddr,
    pool: &Pool,
    conns: usize,
    window: Duration,
    rng: &mut Rng,
    trace: bool,
) -> (Load, Duration) {
    let rngs: Vec<Rng> = (0..conns).map(|c| rng.fork(c as u64)).collect();
    let start = Instant::now();
    let end = start + window;
    let mut load = Load::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = rngs
            .into_iter()
            .enumerate()
            .map(|(conn, mut rng)| {
                scope.spawn(move || {
                    let mut c = client(addr, rng.next_u64());
                    let mut mix = pool.mix(rng.fork(1));
                    let mut own = Load::default();
                    let mut n = 0u64;
                    loop {
                        let now = Instant::now();
                        if now >= end {
                            break;
                        }
                        let pattern = mix.next_pattern();
                        let id = ((conn as u64) << 40) | n;
                        n += 1;
                        issue(&mut c, pool, id, conn, pattern, in_traced_segment(trace, start, now), &mut own);
                    }
                    own.retries = c.counters().retries;
                    own
                })
            })
            .collect();
        for h in handles {
            load.merge(h.join().expect("load thread panicked"));
        }
    });
    let last = load.samples.iter().map(|s| s.done).max().unwrap_or(start);
    (load, last - start)
}

/// Timing of one feedback round. `relearn` and `install` are split only
/// when traced (the round then calls `ModelSnapshot::apply_feedback` and
/// `QueryServer::install` itself instead of `QueryServer::apply_feedback`).
#[derive(Debug, Clone, Copy)]
pub struct Install {
    pub epoch: u64,
    pub wall: Duration,
    pub relearn: Option<Duration>,
    pub install: Option<Duration>,
}

/// One feedback round against the live generation.
pub fn feedback_round(server: &QueryServer, log: &mut FeedbackLog, traced: bool) -> Result<Install, String> {
    let config = FeedbackConfig::default();
    let t0 = Instant::now();
    if !traced {
        let (epoch, _) = server.apply_feedback(log, &config).map_err(|e| e.to_string())?;
        return Ok(Install {
            epoch,
            wall: t0.elapsed(),
            relearn: None,
            install: None,
        });
    }
    let current = server.snapshot();
    let (candidate, _) = current.apply_feedback(log, &config).map_err(|e| e.to_string())?;
    let relearned = Instant::now();
    drop(current);
    let epoch = server.install(candidate).map_err(|e| e.to_string())?;
    let done = Instant::now();
    Ok(Install {
        epoch,
        wall: done - t0,
        relearn: Some(relearned - t0),
        install: Some(done - relearned),
    })
}

/// Confirms a response's top result as positive feedback.
pub fn confirm(log: &mut FeedbackLog, session: u64, response: &WireResponse) -> bool {
    let Some(top) = response.results.first() else {
        return false;
    };
    log.record(PositivePattern {
        query: session,
        video: top.video,
        shots: top.shots.clone(),
        events: top.events.clone(),
        access: 1.0,
    })
    .is_ok()
}

/// One learn-mixed round: a query thread runs a closed loop on `client`
/// while this thread confirms each completed query's top result and, at
/// the feedback threshold, runs one feedback round. The round ends when
/// the install has finished and the query in flight has returned.
#[allow(clippy::too_many_arguments)]
pub fn learn_round(
    client: &mut NetClient,
    server: &QueryServer,
    pool: &Pool,
    mix: &mut Mix<'_>,
    log: &mut FeedbackLog,
    session: &mut u64,
    next_id: &mut u64,
    traced: bool,
) -> (Load, Result<Install, String>) {
    let threshold = FeedbackConfig::default().update_threshold as usize;
    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<Sample>();
    let first_id = *next_id;
    let mut load = Load::default();
    let retries_before = client.counters().retries;
    let installed = std::thread::scope(|scope| {
        let stop = &stop;
        let client = &mut *client;
        let query_thread = scope.spawn(move || {
            let mut id = first_id;
            let mut spans = Vec::new();
            // A round whose replies never fill the log (every query
            // refused) ends after ten thresholds' worth of queries.
            while !stop.load(Ordering::Acquire) && id - first_id < 10 * threshold as u64 {
                let pattern = mix.next_pattern();
                let mut one = Load::default();
                issue(client, pool, id, 0, pattern, traced, &mut one);
                id += 1;
                spans.extend(one.spans);
                if tx.send(one.samples.pop().expect("one sample")).is_err() {
                    break;
                }
            }
            (id, spans)
        });
        let mut installed = Err("no feedback round ran".to_string());
        // Runs until the query thread hangs up: after the install it
        // finishes the query in flight, and that reply is kept too.
        while let Ok(sample) = rx.recv() {
            if let Ok(response) = &sample.reply {
                if confirm(log, *session, response) {
                    *session += 1;
                }
            }
            load.samples.push(sample);
            if !stop.load(Ordering::Acquire) && log.pending() >= threshold {
                installed = feedback_round(server, log, traced);
                stop.store(true, Ordering::Release);
            }
        }
        let (id, spans) = query_thread.join().expect("query thread panicked");
        *next_id = id;
        load.spans.extend(spans);
        installed
    });
    load.retries = client.counters().retries - retries_before;
    (load, installed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_blocks_hold_exact_zipf_shares() {
        let pool = Pool::soccer(1.0);
        assert_eq!(pool.block_counts.iter().sum::<usize>(), MIX_BLOCK);
        assert_eq!(pool.block_counts[..4], [62, 31, 20, 15]);
        let mut mix = pool.mix(Rng::new(3));
        let mut seen = vec![0usize; pool.texts.len()];
        for _ in 0..MIX_BLOCK {
            seen[mix.next_pattern()] += 1;
        }
        assert_eq!(seen, pool.block_counts);
        let uniform = Pool::soccer(0.0);
        assert!(uniform.block_counts.iter().all(|&n| n == 14 || n == 15));
    }
}
