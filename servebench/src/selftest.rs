//! Quick self-test: every workload, untraced and traced, on a tiny
//! archive with short windows (a few hundred requests in all), then a set
//! of deliberately corrupted rankings that the checks must each report as
//! one failed operation. Finishes in seconds once the build is done.

use crate::bringup::bring_up;
use crate::fixture::{self, Shape};
use crate::run::{measure, Params, Workload};
use crate::traffic::{self, Pool, Sample};
use crate::verify::{serial_config, Verifier};
use hmmm_serve::WireResponse;
use std::time::{Duration, Instant};

pub fn run(archive_seed: u64) -> Result<bool, String> {
    let catalog = fixture::ensure(&[Shape::Tiny], archive_seed)?.remove(0);
    let mut passed = true;
    let mut attempted = 0;
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = measure(&Params {
                workload,
                catalog: &catalog,
                seed: 7,
                window: Duration::from_millis(250),
                trace,
                setup_reps: 2,
                idle_rounds: 2,
                warm_up: Duration::from_millis(50),
            })?;
            attempted += outcome.attempted;
            let bad: Vec<&str> = outcome
                .metrics
                .iter()
                .filter(|m| !m.value.is_finite())
                .map(|m| m.name.as_str())
                .collect();
            println!(
                "{:<14} trace={} attempted={} failed={} non-finite metrics={bad:?}",
                workload.name(),
                u8::from(trace),
                outcome.attempted,
                outcome.failed
            );
            for message in &outcome.messages {
                println!("  FAILED: {message}");
            }
            passed &= outcome.failed == 0 && bad.is_empty();
        }
    }
    let (corrupted, caught) = corrupted_rankings(&catalog)?;
    println!("corrupted rankings: {corrupted} injected, {caught} reported as failed operations");
    passed &= caught == corrupted;
    println!(
        "{{\"correct\": {passed}, \"attempted\": {}, \"failed\": {caught}, \"metrics\": {{}}}}",
        attempted + corrupted
    );
    Ok(passed)
}

/// Corruptions of a correct reply, each of which must fail a check.
fn corruptions(reply: &WireResponse) -> Vec<(&'static str, WireResponse)> {
    let mut out = Vec::new();
    let mut swapped = reply.clone();
    if swapped.results.len() >= 2 && swapped.results[0].score != swapped.results[1].score {
        swapped.results.swap(0, 1);
        out.push(("swapped ranks", swapped));
    }
    let mut weight = reply.clone();
    if let Some(r) = weight.results.first_mut() {
        let w = r.weights.last_mut().expect("one weight per step");
        *w = f64::from_bits(w.to_bits() + 1);
        out.push(("weight off by one ulp", weight));
    }
    let mut shot = reply.clone();
    if let Some(r) = shot.results.last_mut() {
        r.shots[0].0 += 1;
        out.push(("shifted shot", shot));
    }
    let mut dropped = reply.clone();
    if dropped.results.len() >= 2 {
        dropped.results.pop();
        out.push(("dropped last result", dropped));
    }
    out
}

/// Queries a tiny server for a one-step and a three-step pattern, checks
/// the clean replies pass, then feeds corrupted copies to the verifier one
/// at a time. Returns (corruptions injected, corruptions reported failed).
fn corrupted_rankings(catalog: &std::path::Path) -> Result<(u64, u64), String> {
    let (live, _) = bring_up(catalog, false)?;
    let pool = Pool::soccer(1.0);
    let mut verifier = Verifier::new(&pool, serial_config(&live.server));
    let snaps = [live.server.snapshot()];
    let mut client = traffic::client(live.addr, 1);
    let mut injected = 0;
    let mut caught = 0;
    for text in ["goal", "foul -> free_kick -> goal"] {
        let pattern = pool.texts.iter().position(|t| t == text).expect("pattern in the soccer pool");
        let reply = match client.query(text, traffic::LIMIT, None) {
            Ok(hmmm_serve::NetOutcome::Response(reply)) => reply,
            other => return Err(format!("self-test query `{text}` failed: {other:?}")),
        };
        let sample = |id, reply| {
            let now = Instant::now();
            Sample {
                id,
                conn: 0,
                pattern,
                sent: now,
                done: now,
                traced: false,
                reply: Ok(reply),
            }
        };
        let before = verifier.failed;
        verifier.check_samples(&[sample(0, reply.clone())], &snaps, 0);
        if verifier.failed != before {
            return Err(format!("the clean reply to `{text}` failed: {:?}", verifier.messages));
        }
        for (what, bad) in corruptions(&reply) {
            injected += 1;
            let before = verifier.failed;
            verifier.check_samples(&[sample(injected, bad)], &snaps, 0);
            let reported = verifier.failed - before;
            println!("  `{text}`, {what}: {reported} failed");
            caught += reported.min(1);
        }
    }
    drop(snaps);
    live.stop();
    Ok((injected, caught))
}
