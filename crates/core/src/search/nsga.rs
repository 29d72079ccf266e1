//! NSGA-II primitives: fast non-dominated sorting, crowding distance,
//! and knee-point selection over already-evaluated candidate clouds.
//!
//! These are the selection mechanics of Deb et al.'s NSGA-II, *not* a new
//! evolutionary driver: SCAR's candidate generation already runs through
//! deterministic `CandidateSource`
//! streams, so the zoo's multi-objective scheduler
//! ([`NsgaScar`](crate::zoo::NsgaScar)) applies these routines *after*
//! evaluation, over the full scored cloud of a window, to pick a winner
//! on the (latency, energy, fairness) front instead of a scalarized
//! metric. Everything here is pure and deterministic:
//!
//! * all floating-point ordering goes through [`f64::total_cmp`] — a
//!   NaN-polluted objective vector cannot panic a sort (the repo-wide
//!   NaN-safety rule, see [`crate::pareto_front`]);
//! * points carrying *any* NaN objective are excluded from every front
//!   (a NaN cost is an evaluation failure, not an extreme trade-off);
//! * every tie anywhere breaks toward the **lowest index**, i.e. the
//!   earliest-generated candidate — the same rule the single-objective
//!   engine uses, which is what keeps Serial ≡ Fixed(N) bit-identical.

use super::engine::ScoredCandidate;
use crate::evaluate::WindowEval;
use crate::problem::OptMetric;
use std::cmp::Ordering;

/// Pareto dominance for minimization: `Some(Less)` when `a` dominates `b`
/// (no objective worse, at least one strictly better), `Some(Greater)`
/// for the reverse, `None` when neither dominates (including equal
/// points, which by NSGA-II convention share a front).
///
/// Callers must pre-filter NaN objectives; comparisons here assume
/// NaN-free, equal-length vectors.
fn dominance(a: &[f64], b: &[f64]) -> Option<Ordering> {
    debug_assert_eq!(a.len(), b.len(), "objective vectors must align");
    let (mut a_better, mut b_better) = (false, false);
    for (x, y) in a.iter().zip(b) {
        match x.total_cmp(y) {
            Ordering::Less => a_better = true,
            Ordering::Greater => b_better = true,
            Ordering::Equal => {}
        }
    }
    match (a_better, b_better) {
        (true, false) => Some(Ordering::Less),
        (false, true) => Some(Ordering::Greater),
        _ => None,
    }
}

/// Fast non-dominated sort (NSGA-II §III-A): partitions the candidate
/// indices of `objectives` into successive fronts — `fronts[0]` is the
/// non-dominated set, `fronts[1]` the set dominated only by front 0, and
/// so on. All objectives minimize.
///
/// Points with any NaN objective appear in **no** front. Within a front,
/// indices are ascending (generation order), and the whole partition is a
/// pure function of `objectives` — no RNG, no iteration-order
/// sensitivity.
pub fn non_dominated_sort(objectives: &[Vec<f64>]) -> Vec<Vec<usize>> {
    let valid: Vec<usize> = (0..objectives.len())
        .filter(|&i| objectives[i].iter().all(|v| !v.is_nan()))
        .collect();
    let n = objectives.len();
    // S_p: the set each point dominates; count: how many dominate it
    let mut dominates: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut dominated_count = vec![0usize; n];
    for (vi, &a) in valid.iter().enumerate() {
        for &b in &valid[vi + 1..] {
            match dominance(&objectives[a], &objectives[b]) {
                Some(Ordering::Less) => {
                    dominates[a].push(b);
                    dominated_count[b] += 1;
                }
                Some(Ordering::Greater) => {
                    dominates[b].push(a);
                    dominated_count[a] += 1;
                }
                _ => {}
            }
        }
    }
    let mut fronts: Vec<Vec<usize>> = Vec::new();
    // valid is ascending, so each front is built ascending too
    let mut current: Vec<usize> = valid
        .iter()
        .copied()
        .filter(|&i| dominated_count[i] == 0)
        .collect();
    while !current.is_empty() {
        let mut next: Vec<usize> = Vec::new();
        for &p in &current {
            for &q in &dominates[p] {
                dominated_count[q] -= 1;
                if dominated_count[q] == 0 {
                    next.push(q);
                }
            }
        }
        next.sort_unstable();
        fronts.push(std::mem::replace(&mut current, next));
    }
    fronts
}

/// Crowding distance (NSGA-II §III-B) of each member of `front`, aligned
/// with `front`'s positions: boundary points on every objective get
/// `+∞`, interior points sum the normalized gap to their neighbors per
/// objective. Larger = lonelier = more diversity-preserving.
///
/// Per-objective sorts tie-break by index, and a zero-span objective
/// (all candidates equal on it) contributes nothing instead of `0/0`,
/// so the distances are NaN-free and deterministic.
pub fn crowding_distance(objectives: &[Vec<f64>], front: &[usize]) -> Vec<f64> {
    let len = front.len();
    let mut dist = vec![0.0f64; len];
    if len == 0 {
        return dist;
    }
    if len <= 2 {
        return vec![f64::INFINITY; len];
    }
    let nobj = objectives[front[0]].len();
    // clippy's iterator rewrite is wrong here: `k` indexes *within* rows
    // reached through `front`, not `objectives` itself
    #[allow(clippy::needless_range_loop)]
    for k in 0..nobj {
        let mut order: Vec<usize> = (0..len).collect();
        order.sort_by(|&x, &y| {
            objectives[front[x]][k]
                .total_cmp(&objectives[front[y]][k])
                .then(front[x].cmp(&front[y]))
        });
        let lo = objectives[front[order[0]]][k];
        let hi = objectives[front[order[len - 1]]][k];
        dist[order[0]] = f64::INFINITY;
        dist[order[len - 1]] = f64::INFINITY;
        let span = hi - lo;
        if span > 0.0 {
            for w in 1..len - 1 {
                let gap = objectives[front[order[w + 1]]][k] - objectives[front[order[w - 1]]][k];
                dist[order[w]] += gap / span;
            }
        }
    }
    dist
}

/// Picks the winning candidate index from `front` — the "knee" under a
/// scalarizing metric: minimal `scalar[i]` (by `total_cmp`, so NaN scores
/// lose to any finite or infinite score), ties broken by **larger**
/// crowding distance (prefer the lonelier, more knee-like point), final
/// ties by lowest index (generation order — the determinism anchor).
///
/// `scalar` is indexed by candidate (global) index; `crowding` is aligned
/// with `front`'s positions, as returned by [`crowding_distance`].
/// Returns `None` only for an empty front.
pub fn knee_point(front: &[usize], scalar: &[f64], crowding: &[f64]) -> Option<usize> {
    debug_assert_eq!(
        front.len(),
        crowding.len(),
        "crowding must align with front"
    );
    front
        .iter()
        .copied()
        .enumerate()
        .min_by(|&(xa, a), &(xb, b)| {
            scalar[a]
                .total_cmp(&scalar[b])
                .then(crowding[xb].total_cmp(&crowding[xa]))
                .then(a.cmp(&b))
        })
        .map(|(_, i)| i)
}

/// NSGA-II selection over one window's scored cloud (NSGA-SCAR's window
/// rule, see [`NsgaScar`](crate::zoo::NsgaScar)): returns the winning
/// index into `cloud`.
///
/// Falls back to the engine's own rule — minimal scalar score, earliest
/// generation on ties — if non-dominated sorting yields no front (every
/// candidate carried a NaN objective), so a degenerate cloud still
/// selects exactly what single-objective SCAR would.
pub(crate) fn knee_select(cloud: &[ScoredCandidate], window_metric: &OptMetric) -> usize {
    let bound = match window_metric {
        OptMetric::ConstrainedEdp { max_latency_s } => Some(*max_latency_s),
        _ => None,
    };
    let violations: Vec<f64> = cloud
        .iter()
        .map(|c| {
            bound
                .map(|b| (c.eval.totals().latency_s - b).max(0.0))
                .unwrap_or(0.0)
        })
        .collect();
    // constraint domination: feasible candidates (violation 0) compete
    // among themselves; only an all-infeasible cloud lets violators in
    let eligible: Vec<usize> = if violations.contains(&0.0) {
        (0..cloud.len()).filter(|&i| violations[i] == 0.0).collect()
    } else {
        (0..cloud.len()).collect()
    };
    let objectives: Vec<Vec<f64>> = eligible
        .iter()
        .map(|&i| {
            let t = cloud[i].eval.totals();
            vec![
                t.latency_s,
                t.energy_j,
                fairness_spread(&cloud[i].eval) + violations[i],
            ]
        })
        .collect();
    let fronts = non_dominated_sort(&objectives);
    let winner = fronts.first().and_then(|front0| {
        let crowding = crowding_distance(&objectives, front0);
        let scalar: Vec<f64> = eligible.iter().map(|&i| cloud[i].score).collect();
        knee_point(front0, &scalar, &crowding)
    });
    match winner {
        Some(local) => eligible[local],
        None => cloud
            .iter()
            .enumerate()
            .min_by(|(ia, a), (ib, b)| a.score.total_cmp(&b.score).then(ia.cmp(ib)))
            .map(|(i, _)| i)
            .unwrap_or(0),
    }
}

/// The fairness objective: the straggler spread of a window — the gap in
/// seconds between the slowest and fastest co-resident model. `0.0` for
/// a window serving at most one model (nothing to be unfair between). A
/// NaN per-model latency propagates to NaN, excluding the candidate from
/// every front (an evaluation failure is not a fair schedule).
fn fairness_spread(eval: &WindowEval) -> f64 {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    let mut n = 0usize;
    for per in eval.per_model.iter().flatten() {
        if per.latency_s.is_nan() {
            return f64::NAN;
        }
        lo = lo.min(per.latency_s);
        hi = hi.max(per.latency_s);
        n += 1;
    }
    if n < 2 {
        0.0
    } else {
        hi - lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_partitions_into_successive_fronts() {
        // 2-objective minimization: (1,4) and (3,1) are mutually
        // non-dominated; (2,5) is dominated by (1,4) only; (4,6) by all
        let objs = vec![
            vec![1.0, 4.0],
            vec![3.0, 1.0],
            vec![2.0, 5.0],
            vec![4.0, 6.0],
        ];
        let fronts = non_dominated_sort(&objs);
        assert_eq!(fronts, vec![vec![0, 1], vec![2], vec![3]]);
    }

    #[test]
    fn equal_points_share_a_front() {
        let objs = vec![vec![1.0, 1.0], vec![1.0, 1.0], vec![2.0, 2.0]];
        let fronts = non_dominated_sort(&objs);
        assert_eq!(fronts, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn nan_points_join_no_front() {
        let objs = vec![
            vec![f64::NAN, 0.0],
            vec![1.0, 1.0],
            vec![0.0, f64::NAN],
            vec![2.0, 2.0],
        ];
        let fronts = non_dominated_sort(&objs);
        assert_eq!(fronts, vec![vec![1], vec![3]]);
        assert!(non_dominated_sort(&[vec![f64::NAN]]).is_empty());
    }

    #[test]
    fn front_zero_is_mutually_nondominated() {
        let objs: Vec<Vec<f64>> = (0..24u32)
            .map(|i| {
                let x = i as f64;
                vec![(x * 3.0) % 5.0, (x * 7.0) % 11.0, (x * 5.0) % 7.0]
            })
            .collect();
        let fronts = non_dominated_sort(&objs);
        assert!(
            fronts.len() > 1,
            "the lattice must produce dominated points"
        );
        let f0 = &fronts[0];
        for (ai, &a) in f0.iter().enumerate() {
            for &b in &f0[ai + 1..] {
                assert_eq!(
                    dominance(&objs[a], &objs[b]),
                    None,
                    "{a} vs {b} must be mutually non-dominated"
                );
            }
        }
        // every front-1 member is dominated by someone in front 0
        for &q in &fronts[1] {
            assert!(
                f0.iter()
                    .any(|&p| dominance(&objs[p], &objs[q]) == Some(Ordering::Less)),
                "{q} must be dominated by front 0"
            );
        }
    }

    #[test]
    fn crowding_rewards_boundaries_and_gaps() {
        let objs = vec![
            vec![0.0, 10.0],
            vec![1.0, 5.0],
            vec![2.0, 4.0],
            vec![10.0, 0.0],
        ];
        let front = vec![0, 1, 2, 3];
        let d = crowding_distance(&objs, &front);
        assert_eq!(d[0], f64::INFINITY);
        assert_eq!(d[3], f64::INFINITY);
        assert!(d[1].is_finite() && d[2].is_finite());
        assert!(d.iter().all(|v| !v.is_nan()));
        // index 1 sits next to the wide (2,?)→(10,?) gap's left edge? No:
        // interior distances sum normalized neighbor gaps; 2 borders the
        // big latency gap so it is lonelier than 1 on that axis
        assert!(d[2] > d[1]);
    }

    #[test]
    fn crowding_handles_degenerate_fronts() {
        let objs = vec![vec![1.0, 1.0], vec![2.0, 2.0], vec![5.0, 5.0]];
        assert!(crowding_distance(&objs, &[]).is_empty());
        assert_eq!(crowding_distance(&objs, &[1]), vec![f64::INFINITY]);
        assert_eq!(
            crowding_distance(&objs, &[0, 2]),
            vec![f64::INFINITY, f64::INFINITY]
        );
        // zero-span objective: no NaN from 0/0
        let flat = vec![vec![1.0, 3.0], vec![1.0, 2.0], vec![1.0, 1.0]];
        let d = crowding_distance(&flat, &[0, 1, 2]);
        assert!(d.iter().all(|v| !v.is_nan()));
    }

    #[test]
    fn knee_minimizes_scalar_then_breaks_ties_deterministically() {
        let front = vec![2, 5, 7];
        let mut scalar = vec![0.0; 8];
        scalar[2] = 3.0;
        scalar[5] = 1.0;
        scalar[7] = 2.0;
        let crowding = vec![0.5, 0.5, 0.5];
        assert_eq!(knee_point(&front, &scalar, &crowding), Some(5));
        // scalar tie → larger crowding wins
        scalar[7] = 1.0;
        let crowding = vec![0.5, 0.1, 0.9];
        assert_eq!(knee_point(&front, &scalar, &crowding), Some(7));
        // full tie → lowest index (generation order)
        let crowding = vec![0.5, 0.5, 0.5];
        assert_eq!(knee_point(&front, &scalar, &crowding), Some(5));
        // NaN scalars lose to finite ones
        scalar[5] = f64::NAN;
        assert_eq!(knee_point(&front, &scalar, &crowding), Some(7));
        assert_eq!(knee_point(&[], &scalar, &[]), None);
    }

    #[test]
    fn knee_select_prefers_feasible_then_knee() {
        // feasible candidates gate out violators, then the metric knee wins
        let cand = |lat: f64, en: f64, score: f64| ScoredCandidate {
            schedule: crate::WindowSchedule {
                window: crate::TimeWindow {
                    index: 0,
                    layers: vec![],
                },
                segments: vec![],
                placement: vec![],
            },
            eval: WindowEval {
                latency_s: lat,
                energy_j: en,
                per_model: vec![],
            },
            score,
        };
        let metric = OptMetric::ConstrainedEdp { max_latency_s: 2.0 };
        // 0: violates the bound with a great score; 1 and 2 feasible
        let cloud = vec![
            cand(3.0, 0.1, 0.01),
            cand(1.5, 2.0, 3.0),
            cand(1.0, 3.0, 3.0),
        ];
        let w = knee_select(&cloud, &metric);
        assert_ne!(w, 0, "violator must not win while feasible points exist");
        // scalar tie between 1 and 2 → both boundary (infinite crowding)
        // → earliest generation wins
        assert_eq!(w, 1);
    }
}
