//! Applies the checks of [`crate::check`] to the replies a run collected,
//! and — in traced runs — replays each request's server-internal phases
//! on the generation that answered it, for the latency ledger.

use crate::check::{check_single_step, Oracle};
use crate::traffic::{Pool, Sample, LIMIT};
use hmmm_core::{QueryScratch, RetrievalConfig, Retriever};
use hmmm_media::EventKind;
use hmmm_query::QueryTranslator;
use hmmm_serve::{ModelSnapshot, QueryServer};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Failure messages kept for the report (the count is always exact).
const MAX_MESSAGES: usize = 8;

/// Engine work counters read from `RetrievalStats` by name, so a counter
/// that a later engine drops or renames does not break the build. It reads
/// as NaN (printed `null`), never as 0, which for these lower-is-better
/// counts would look like a complete improvement.
pub const COUNTERS: [&str; 6] = [
    "sim_evaluations",
    "cache_build_evaluations",
    "bound_evaluations",
    "videos_visited",
    "videos_skipped_by_bound",
    "entries_pruned",
];

/// One traced request, split into the phases the ledger adds up.
#[derive(Debug, Clone)]
pub struct LedgerRow {
    pub id: u64,
    /// Client wall time.
    pub wall_ns: f64,
    /// Admission-queue wait and service time as the server reported them.
    pub queue_ns: f64,
    pub service_ns: f64,
    /// Replayed on the answering generation: pattern compilation (done on
    /// the connection thread, so part of the network/codec share),
    /// `Retriever::new`, and the retrieval itself.
    pub compile_ns: f64,
    pub new_ns: f64,
    pub retrieve_ns: f64,
    /// Encoded reply frame (header + JSON payload).
    pub reply_bytes: f64,
    pub counters: [f64; COUNTERS.len()],
}

impl LedgerRow {
    /// Client wall − queue − service: network, codec and client time.
    pub fn net_ns(&self) -> f64 {
        self.wall_ns - self.queue_ns - self.service_ns
    }

    /// Service − (retriever set-up + retrieval): what the replay does not
    /// explain.
    pub fn unattributed_ns(&self) -> f64 {
        self.service_ns - self.new_ns - self.retrieve_ns
    }
}

/// The retrieval configuration the server's workers run with: the
/// server's base configuration with the per-request thread override they
/// apply. Round-tripped through the config's serialized form so the
/// override is a no-op if the knob is ever removed.
pub fn serial_config(server: &QueryServer) -> RetrievalConfig {
    let mut value = server.retrieval_config().to_value();
    if let serde::Value::Object(fields) = &mut value {
        for (key, v) in fields.iter_mut() {
            if key == "threads" {
                *v = Some(1usize).to_value();
            }
        }
    }
    RetrievalConfig::from_value(&value).expect("a serialized retrieval config reads back")
}

/// Per-(pattern, generation) replay timings.
struct Replay {
    compile_ns: f64,
    new_ns: f64,
    retrieve_ns: f64,
    counters: [f64; COUNTERS.len()],
}

fn counter(stats: &serde::Value, key: &str) -> f64 {
    match stats.get(key) {
        Some(serde::Value::UInt(n)) => *n as f64,
        Some(serde::Value::Int(n)) => *n as f64,
        Some(serde::Value::Float(x)) => *x,
        _ => f64::NAN,
    }
}

/// Replays one pattern on one generation `reps` times (median of each
/// phase), exactly as a serve worker runs it: compile, `Retriever::new`,
/// `retrieve_with_scratch`.
fn replay(text: &str, snap: &ModelSnapshot, config: &RetrievalConfig, reps: usize) -> Replay {
    let translator = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()));
    let mut scratch = QueryScratch::new();
    let (mut compile, mut new, mut retrieve) = (Vec::new(), Vec::new(), Vec::new());
    let mut counters = [0.0; COUNTERS.len()];
    for _ in 0..reps {
        let t0 = Instant::now();
        let pattern = translator.compile(text).expect("pool patterns compile");
        let t1 = Instant::now();
        let retriever = Retriever::new(&snap.model, &snap.catalog, config.clone()).expect("audited generation");
        let t2 = Instant::now();
        let (_, stats) = retriever
            .retrieve_with_scratch(&pattern, LIMIT, &mut scratch)
            .expect("pool patterns retrieve");
        let t3 = Instant::now();
        compile.push((t1 - t0).as_nanos() as f64);
        new.push((t2 - t1).as_nanos() as f64);
        retrieve.push((t3 - t2).as_nanos() as f64);
        let stats = stats.to_value();
        for (slot, key) in counters.iter_mut().zip(COUNTERS) {
            *slot = counter(&stats, key);
        }
    }
    Replay {
        compile_ns: crate::util::median(&compile),
        new_ns: crate::util::median(&new),
        retrieve_ns: crate::util::median(&retrieve),
        counters,
    }
}

/// Accumulates check outcomes across a run.
pub struct Verifier<'p> {
    pool: &'p Pool,
    config: RetrievalConfig,
    /// Last epoch each connection saw: epochs must never go backwards.
    last_epoch: HashMap<usize, u64>,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl<'p> Verifier<'p> {
    pub fn new(pool: &'p Pool, config: RetrievalConfig) -> Self {
        Verifier {
            pool,
            config,
            last_epoch: HashMap::new(),
            failed: 0,
            messages: Vec::new(),
        }
    }

    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(message);
        }
    }

    /// Checks that an installed generation's `A_1` rows and `Π_1` are
    /// stochastic; returns whether it passed.
    pub fn check_generation(&mut self, snap: &ModelSnapshot) -> bool {
        match Oracle::new(snap).check_stochastic() {
            Ok(()) => true,
            Err(e) => {
                self.fail(format!("generation {}: {e}", snap.epoch));
                false
            }
        }
    }

    /// Checks every reply in `samples` against the generations in `snaps`
    /// (which must hold each epoch a reply names). With `replay_reps > 0`
    /// the traced replies also get ledger rows.
    pub fn check_samples(
        &mut self,
        samples: &[Sample],
        snaps: &[Arc<ModelSnapshot>],
        replay_reps: usize,
    ) -> Vec<LedgerRow> {
        // Epoch monotonicity per connection, in send order.
        let mut order: Vec<&Sample> = samples.iter().collect();
        order.sort_by_key(|s| (s.conn, s.sent));
        let mut verdicts: HashMap<u64, String> = HashMap::new();
        for s in &order {
            let Ok(reply) = &s.reply else { continue };
            let last = self.last_epoch.entry(s.conn).or_insert(0);
            if reply.epoch < *last {
                verdicts.insert(s.id, format!("connection {} saw epoch {} after {}", s.conn, reply.epoch, last));
            }
            *last = (*last).max(reply.epoch);
        }

        // Group the replies by (pattern, epoch): one serial reference
        // ranking and one single-step optimum per group.
        let mut groups: BTreeMap<(usize, u64), Vec<&Sample>> = BTreeMap::new();
        for s in samples {
            match &s.reply {
                Ok(reply) => groups.entry((s.pattern, reply.epoch)).or_default().push(s),
                Err(e) => {
                    verdicts.insert(s.id, format!("request failed: {e}"));
                }
            }
        }
        let mut rows = Vec::new();
        let mut retrievers: HashMap<u64, (Oracle<'_>, Retriever<'_>)> = HashMap::new();
        for ((pattern_idx, epoch), members) in groups {
            let Some(snap) = snaps.iter().find(|s| s.epoch == epoch) else {
                for s in members {
                    verdicts.insert(s.id, format!("reply names unknown epoch {epoch}"));
                }
                continue;
            };
            let (oracle, retriever) = retrievers.entry(epoch).or_insert_with(|| {
                (
                    Oracle::new(snap),
                    Retriever::new(&snap.model, &snap.catalog, self.config.clone()).expect("audited generation"),
                )
            });
            let pattern = &self.pool.patterns[pattern_idx];
            let reference = retriever
                .retrieve(pattern, LIMIT)
                .map(|(results, _)| serde_json::to_vec(&results).expect("results serialize"))
                .map_err(|e| e.to_string());
            let single = (pattern.steps.len() == 1 && oracle.pi1_uniform()).then(|| oracle.single_step_top(pattern, LIMIT));
            for s in &members {
                let reply = s.reply.as_ref().expect("grouped replies are Ok");
                let verdict = if reply.status != 0 || reply.degraded.is_some() {
                    Err(format!("status {} degraded {:?}", reply.status, reply.degraded))
                } else {
                    oracle
                        .check_ranking(pattern, LIMIT, &reply.results)
                        .and_then(|()| single.as_ref().map_or(Ok(()), |top| check_single_step(&reply.results, top)))
                        .and_then(|()| match &reference {
                            Ok(bytes) if *bytes == serde_json::to_vec(&reply.results).expect("results serialize") => Ok(()),
                            Ok(_) => Err("ranking differs from the serial retriever".into()),
                            Err(e) => Err(format!("serial retriever failed: {e}")),
                        })
                };
                if let Err(e) = verdict {
                    verdicts
                        .entry(s.id)
                        .or_insert_with(|| format!("`{}` at epoch {epoch}: {e}", self.pool.texts[pattern_idx]));
                }
            }
            if replay_reps > 0 && members.iter().any(|s| s.traced) {
                let r = replay(&self.pool.texts[pattern_idx], snap, &self.config, replay_reps);
                for s in members.iter().filter(|s| s.traced && !verdicts.contains_key(&s.id)) {
                    let reply = s.reply.as_ref().expect("grouped replies are Ok");
                    let payload = serde_json::to_vec(reply).expect("reply serializes").len();
                    rows.push(LedgerRow {
                        id: s.id,
                        wall_ns: s.wall_ns() as f64,
                        queue_ns: reply.queue_ns as f64,
                        service_ns: reply.service_ns as f64,
                        compile_ns: r.compile_ns,
                        new_ns: r.new_ns,
                        retrieve_ns: r.retrieve_ns,
                        reply_bytes: (hmmm_serve::net::HEADER_LEN + payload) as f64,
                        counters: r.counters,
                    });
                }
            }
        }
        let mut failures: Vec<(u64, String)> = verdicts.into_iter().collect();
        failures.sort();
        for (_, message) in failures {
            self.fail(message);
        }
        rows
    }
}
