//! Response checks computed apart from the engine.
//!
//! Every ranking that crosses the wire is checked four ways, outside the
//! timed window:
//!
//! 1. **Structure** — at most `limit` results, non-increasing scores, at
//!    most one result per video; one shot per step, inside the result's
//!    video, in non-decreasing temporal order (the engine may keep a
//!    double-annotated shot across consecutive steps), within the step's
//!    gap limit; every matched event one of the step's alternatives.
//! 2. **Eqs. 12–15** — each weight and the score are recomputed from the
//!    answering generation's `Π_1`, `A_1`, `B_1`, `B_1'` and `P_{1,2}`
//!    with this file's own Eq.-14 code and the self-similarity calibration
//!    DESIGN.md records (`sim / Σ_y P_{1,2}(e,y) / B_1'(e,y)`), and must
//!    match bit for bit, as must the choice among a step's alternatives.
//! 3. **Single-step optimum** — for one-step patterns on a generation
//!    whose `Π_1` is uniform (every generation the read-only workload
//!    serves), the ranking must be the top-`limit` videos by
//!    `max_s Π_1(s) · sim(s, e)`.
//! 4. **Serial identity** — the TCP ranking must be byte-identical to an
//!    in-process serial `Retriever` on the same generation.
//!
//! Installed generations are checked too: every `A_1` row and every `Π_1`
//! must sum to 1 within 1e-9.

use hmmm_core::order::cmp_f64_desc;
use hmmm_core::RankedPattern;
use hmmm_media::EventKind;
use hmmm_query::CompiledPattern;
use hmmm_serve::ModelSnapshot;

/// Eq. 14 skips features whose centroid is (numerically) zero: the paper
/// restricts the sum to the query sample's non-zero features and the
/// division by `B_1'(e, f_y)` is undefined there.
const CENTROID_EPSILON: f64 = 1e-9;

/// Tolerance for the stochastic-row checks on installed generations.
const ROW_SUM_TOLERANCE: f64 = 1e-9;

/// Independent recomputation of the scoring equations on one generation.
pub struct Oracle<'a> {
    snap: &'a ModelSnapshot,
    /// Eq.-14 score of each event's own centroid: the calibration
    /// denominator.
    self_sim: Vec<f64>,
}

impl<'a> Oracle<'a> {
    pub fn new(snap: &'a ModelSnapshot) -> Self {
        let model = &snap.model;
        let self_sim = (0..EventKind::COUNT)
            .map(|e| {
                let centroid = &model.b1_prime[e];
                let mut total = 0.0;
                for y in 0..centroid.as_slice().len() {
                    let c = centroid[y];
                    if c > CENTROID_EPSILON {
                        total += model.p12.get(e, y) / c;
                    }
                }
                total
            })
            .collect();
        Oracle { snap, self_sim }
    }

    /// Eq. 14 divided by the event's self-similarity.
    pub fn calibrated_sim(&self, shot: usize, event: usize) -> f64 {
        let model = &self.snap.model;
        let denom = self.self_sim[event];
        if denom <= 0.0 {
            return 0.0;
        }
        let b = &model.b1[shot];
        let centroid = &model.b1_prime[event];
        let mut total = 0.0;
        for y in 0..centroid.as_slice().len() {
            let c = centroid[y];
            if c > CENTROID_EPSILON {
                total += model.p12.get(event, y) * (1.0 - (b[y] - c).abs()) / c;
            }
        }
        total / denom
    }

    /// The best alternative for a shot: the earliest alternative wins ties.
    fn best_alternative(&self, shot: usize, alternatives: &[usize]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for &e in alternatives {
            let s = self.calibrated_sim(shot, e);
            if best.is_none_or(|(_, bs)| s > bs) {
                best = Some((e, s));
            }
        }
        best
    }

    /// Checks one ranking's structure and recomputes Eqs. 12–15 for every
    /// result in it.
    pub fn check_ranking(
        &self,
        pattern: &CompiledPattern,
        limit: usize,
        results: &[RankedPattern],
    ) -> Result<(), String> {
        if results.len() > limit {
            return Err(format!("{} results for limit {limit}", results.len()));
        }
        for pair in results.windows(2) {
            if pair[1].score > pair[0].score {
                return Err(format!("scores increase: {} then {}", pair[0].score, pair[1].score));
            }
        }
        let mut videos: Vec<usize> = results.iter().map(|r| r.video.index()).collect();
        videos.sort_unstable();
        if videos.windows(2).any(|w| w[0] == w[1]) {
            return Err("more than one result for a video".into());
        }
        for (rank, r) in results.iter().enumerate() {
            self.check_result(pattern, r).map_err(|e| format!("rank {rank}: {e}"))?;
        }
        Ok(())
    }

    fn check_result(&self, pattern: &CompiledPattern, r: &RankedPattern) -> Result<(), String> {
        let steps = pattern.steps.len();
        if r.shots.len() != steps || r.events.len() != steps || r.weights.len() != steps {
            return Err(format!(
                "{} shots / {} events / {} weights for {steps} steps",
                r.shots.len(),
                r.events.len(),
                r.weights.len()
            ));
        }
        let video = self
            .snap
            .catalog
            .video(r.video)
            .ok_or_else(|| format!("unknown video {}", r.video.index()))?;
        let local = &self.snap.model.locals[r.video.index()];
        let base = video.shot_range.start;
        let mut weight = 0.0;
        let mut score = 0.0;
        for (j, step) in pattern.steps.iter().enumerate() {
            let shot = r.shots[j].index();
            if !video.shot_range.contains(&shot) {
                return Err(format!("step {j}: shot {shot} outside video {}", r.video.index()));
            }
            let event = r.events[j];
            if !step.alternatives.contains(&event) {
                return Err(format!("step {j}: event {event} is not an alternative"));
            }
            let (best, sim) = self
                .best_alternative(shot, &step.alternatives)
                .ok_or_else(|| format!("step {j}: no alternatives"))?;
            if best != event {
                return Err(format!("step {j}: matched event {event}, best alternative is {best}"));
            }
            let s = shot - base;
            weight = if j == 0 {
                local.pi1.get(s) * sim // Eq. 12
            } else {
                let prev = r.shots[j - 1].index() - base;
                if s < prev {
                    return Err(format!("step {j}: shot {shot} precedes step {}", j - 1));
                }
                if step.max_gap.is_some_and(|gap| s - prev > gap) {
                    return Err(format!("step {j}: gap {} exceeds the step's limit", s - prev));
                }
                weight * local.a1.get(prev, s) * sim // Eq. 13
            };
            if weight.to_bits() != r.weights[j].to_bits() {
                return Err(format!("step {j}: weight {} recomputes as {weight}", r.weights[j]));
            }
            score = if j == 0 { weight } else { score + weight }; // Eq. 15
        }
        if score.to_bits() != r.score.to_bits() {
            return Err(format!("score {} recomputes as {score}", r.score));
        }
        Ok(())
    }

    /// `true` when every video's `Π_1` is uniform, as construction leaves
    /// it. Only then is the single-step optimum a sound expectation: the
    /// engine ranks a step's first shots by similarity and keeps the top
    /// `max_start_candidates` before weighting them by `Π_1` (Eq. 12), so
    /// once feedback has reshaped `Π_1` a shot outside that cut can hold
    /// the larger `Π_1 · sim`.
    pub fn pi1_uniform(&self) -> bool {
        self.snap.model.locals.iter().all(|local| {
            let pi = local.pi1.as_slice();
            pi.iter().all(|p| p.to_bits() == pi[0].to_bits())
        })
    }

    /// For a one-step pattern: the top-`limit` videos by
    /// `max_s Π_1(s) · sim(s, e)` (earliest shot on ties; videos by score
    /// descending, then id), as `(video, shot, score)`.
    pub fn single_step_top(&self, pattern: &CompiledPattern, limit: usize) -> Vec<(usize, usize, f64)> {
        let alternatives = &pattern.steps[0].alternatives;
        let mut best: Vec<(usize, usize, f64)> = Vec::new();
        for (v, video) in self.snap.catalog.videos().iter().enumerate() {
            let local = &self.snap.model.locals[v];
            let mut top: Option<(usize, f64)> = None;
            for shot in video.shot_range.clone() {
                let sim = self.best_alternative(shot, alternatives).map_or(0.0, |(_, s)| s);
                let w = local.pi1.get(shot - video.shot_range.start) * sim;
                if w > 0.0 && top.is_none_or(|(_, t)| w > t) {
                    top = Some((shot, w));
                }
            }
            if let Some((shot, w)) = top {
                best.push((v, shot, w));
            }
        }
        best.sort_by(|a, b| cmp_f64_desc(a.2, b.2).then(a.0.cmp(&b.0)));
        best.truncate(limit);
        best
    }

    /// Every `A_1` row and every `Π_1` of the generation sums to 1.
    pub fn check_stochastic(&self) -> Result<(), String> {
        for (v, local) in self.snap.model.locals.iter().enumerate() {
            let pi: f64 = local.pi1.as_slice().iter().sum();
            if (pi - 1.0).abs() > ROW_SUM_TOLERANCE {
                return Err(format!("video {v}: Π_1 sums to {pi}"));
            }
            for row in 0..local.a1.rows() {
                let sum: f64 = local.a1.row(row).iter().sum();
                if (sum - 1.0).abs() > ROW_SUM_TOLERANCE {
                    return Err(format!("video {v}: A_1 row {row} sums to {sum}"));
                }
            }
        }
        Ok(())
    }
}

/// Compares a ranking with the single-step optimum.
pub fn check_single_step(
    results: &[RankedPattern],
    expected: &[(usize, usize, f64)],
) -> Result<(), String> {
    if results.len() != expected.len() {
        return Err(format!(
            "{} results, the single-step optimum has {}",
            results.len(),
            expected.len()
        ));
    }
    for (rank, (r, &(video, shot, score))) in results.iter().zip(expected).enumerate() {
        if r.video.index() != video || r.shots[0].index() != shot || r.score.to_bits() != score.to_bits() {
            return Err(format!(
                "rank {rank}: video {} shot {} score {} but the optimum is video {video} shot {shot} score {score}",
                r.video.index(),
                r.shots[0].index(),
                r.score
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::Shape;
    use hmmm_core::{BuildConfig, RetrievalConfig, Retriever};
    use hmmm_query::QueryTranslator;

    fn snapshot() -> ModelSnapshot {
        ModelSnapshot::build(Shape::Tiny.generate(7), &BuildConfig::default()).unwrap()
    }

    fn retrieve(snap: &ModelSnapshot, text: &str) -> (CompiledPattern, Vec<RankedPattern>) {
        let translator = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()));
        let pattern = translator.compile(text).unwrap();
        let retriever = Retriever::new(&snap.model, &snap.catalog, RetrievalConfig::content_only()).unwrap();
        let (results, _) = retriever.retrieve(&pattern, 10).unwrap();
        (pattern, results)
    }

    #[test]
    fn engine_rankings_pass_and_corruptions_fail() {
        let snap = snapshot();
        let oracle = Oracle::new(&snap);
        oracle.check_stochastic().unwrap();
        assert!(oracle.pi1_uniform());
        for text in ["goal", "foul -> free_kick -> goal", "corner_kick -> goal"] {
            let (pattern, results) = retrieve(&snap, text);
            assert!(!results.is_empty(), "{text}");
            oracle.check_ranking(&pattern, 10, &results).unwrap();

            let mut bumped = results.clone();
            let w = &mut bumped[0].weights[0];
            *w = f64::from_bits(w.to_bits() + 1);
            assert!(oracle.check_ranking(&pattern, 10, &bumped).is_err(), "{text}");

            let mut duplicated = results.clone();
            duplicated.push(results[0].clone());
            assert!(oracle.check_ranking(&pattern, 10, &duplicated).is_err(), "{text}");
        }
    }

    #[test]
    fn single_step_ranking_is_the_optimum() {
        let snap = snapshot();
        let oracle = Oracle::new(&snap);
        let (pattern, results) = retrieve(&snap, "goal");
        let top = oracle.single_step_top(&pattern, 10);
        check_single_step(&results, &top).unwrap();
        assert!(check_single_step(&results[1..], &top).is_err());
    }
}
