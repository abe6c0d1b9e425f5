//! Cross-validation splitters matching the paper's protocols.
//!
//! * §4.1.3: 5-fold CV where folds partition the *loops* (all inputs of a
//!   loop stay together) — [`kfold_by_group`];
//! * §4.1.3 "Varying Input Sizes": loops 5-folded *and* 20 % of the input
//!   sizes held out — [`holdout_indices`] combined with the group folds;
//! * §4.1.4 / §4.1.5: leave-one-application-out — [`leave_one_group_out`];
//! * §4.2: 10-fold *stratified* CV on labels — [`stratified_kfold`].

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One train/validation split over sample indices.
#[derive(Debug, Clone)]
pub struct Fold {
    pub train: Vec<usize>,
    pub val: Vec<usize>,
}

/// K folds partitioning the distinct `groups` values; a sample lands in
/// the validation set of the fold owning its group.
pub fn kfold_by_group(groups: &[usize], k: usize, seed: u64) -> Vec<Fold> {
    assert!(k >= 2, "need at least two folds");
    let mut distinct: Vec<usize> = {
        let mut d = groups.to_vec();
        d.sort_unstable();
        d.dedup();
        d
    };
    let mut rng = StdRng::seed_from_u64(seed);
    distinct.shuffle(&mut rng);
    let mut folds = vec![
        Fold {
            train: Vec::new(),
            val: Vec::new()
        };
        k
    ];
    // Assign groups round-robin to folds.
    let mut owner = std::collections::HashMap::new();
    for (i, g) in distinct.iter().enumerate() {
        owner.insert(*g, i % k);
    }
    for (idx, g) in groups.iter().enumerate() {
        let f = owner[g];
        for (fi, fold) in folds.iter_mut().enumerate() {
            if fi == f {
                fold.val.push(idx);
            } else {
                fold.train.push(idx);
            }
        }
    }
    folds
}

/// Leave-one-group-out: one fold per distinct group.
pub fn leave_one_group_out(groups: &[usize]) -> Vec<Fold> {
    let mut distinct: Vec<usize> = {
        let mut d = groups.to_vec();
        d.sort_unstable();
        d.dedup();
        d
    };
    distinct.sort_unstable();
    distinct
        .into_iter()
        .map(|g| {
            let mut fold = Fold {
                train: Vec::new(),
                val: Vec::new(),
            };
            for (idx, gi) in groups.iter().enumerate() {
                if *gi == g {
                    fold.val.push(idx);
                } else {
                    fold.train.push(idx);
                }
            }
            fold
        })
        .collect()
}

/// Stratified k-fold on labels: each fold's validation set preserves the
/// label distribution.
pub fn stratified_kfold(labels: &[usize], k: usize, seed: u64) -> Vec<Fold> {
    assert!(k >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut by_label: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for (i, &l) in labels.iter().enumerate() {
        by_label.entry(l).or_default().push(i);
    }
    // Round-robin each label's (shuffled) samples across folds.
    let mut fold_of = vec![0usize; labels.len()];
    for (_, mut idxs) in by_label {
        idxs.shuffle(&mut rng);
        for (j, i) in idxs.into_iter().enumerate() {
            fold_of[i] = j % k;
        }
    }
    (0..k)
        .map(|f| {
            let mut fold = Fold {
                train: Vec::new(),
                val: Vec::new(),
            };
            for (i, &fi) in fold_of.iter().enumerate() {
                if fi == f {
                    fold.val.push(i);
                } else {
                    fold.train.push(i);
                }
            }
            fold
        })
        .collect()
}

/// Evaluate every fold, fanning the folds out across the shared worker
/// pool (`mga_nn::pool`); returns the results in fold order.
///
/// Determinism: `eval(fold_index, fold)` must derive any randomness from
/// its arguments (per-fold seeding), never from shared mutable state.
/// Results are stored by fold index, so both the order and — with
/// per-fold seeds — the content of the output are identical to the
/// sequential `folds.iter().map(...)` loop for any `MGA_THREADS`,
/// including 1 (which forces the fully sequential path). Nested
/// parallelism is fine: each fold's training epochs fan their
/// micro-batch replicas out over the same pool.
pub fn run_folds<T, F>(folds: &[Fold], eval: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &Fold) -> T + Sync,
{
    run_folds_timed(folds, eval)
        .into_iter()
        .map(|(r, _)| r)
        .collect()
}

/// Like [`run_folds`], additionally returning each fold's wall time in
/// seconds (for run manifests). The timing is taken around the fold's own
/// `eval` call, so fold-parallel runs report genuine per-fold durations,
/// not queue time.
pub fn run_folds_timed<T, F>(folds: &[Fold], eval: F) -> Vec<(T, f64)>
where
    T: Send,
    F: Fn(usize, &Fold) -> T + Sync,
{
    mga_obs::span!("cv.run_folds");
    let fold_counter = mga_obs::metrics::counter("cv.folds");
    let mut out: Vec<Option<(T, f64)>> = (0..folds.len()).map(|_| None).collect();
    mga_nn::pool::parallel_for_mut(&mut out, |fi, slot| {
        let started = std::time::Instant::now();
        let r = eval(fi, &folds[fi]);
        fold_counter.inc();
        *slot = Some((r, started.elapsed().as_secs_f64()));
    });
    out.into_iter()
        .map(|r| r.expect("every fold evaluates"))
        .collect()
}

/// A deterministic holdout of `frac` of `n` indices (e.g. the paper's
/// 20 % of input sizes set aside in §4.1.3's generalization experiment).
pub fn holdout_indices(n: usize, frac: f64, seed: u64) -> Vec<usize> {
    let mut idxs: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    idxs.shuffle(&mut rng);
    let take = ((n as f64 * frac).round() as usize).clamp(1, n.saturating_sub(1).max(1));
    let mut held: Vec<usize> = idxs.into_iter().take(take).collect();
    held.sort_unstable();
    held
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kfold_partitions_groups() {
        // 10 groups, 3 samples each.
        let groups: Vec<usize> = (0..30).map(|i| i / 3).collect();
        let folds = kfold_by_group(&groups, 5, 1);
        assert_eq!(folds.len(), 5);
        let mut val_union: Vec<usize> = Vec::new();
        for f in &folds {
            assert_eq!(f.train.len() + f.val.len(), 30);
            // Groups never straddle train/val.
            for &v in &f.val {
                assert!(
                    !f.train.iter().any(|&t| groups[t] == groups[v]),
                    "group leaked between train and val"
                );
            }
            val_union.extend(&f.val);
        }
        val_union.sort_unstable();
        assert_eq!(
            val_union,
            (0..30).collect::<Vec<_>>(),
            "folds must cover all"
        );
    }

    #[test]
    fn kfold_is_seed_deterministic() {
        let groups: Vec<usize> = (0..20).map(|i| i / 2).collect();
        let a = kfold_by_group(&groups, 4, 7);
        let b = kfold_by_group(&groups, 4, 7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.val, y.val);
        }
        let c = kfold_by_group(&groups, 4, 8);
        assert!(a.iter().zip(&c).any(|(x, y)| x.val != y.val));
    }

    #[test]
    fn logo_gives_one_fold_per_group() {
        let groups = vec![0, 0, 1, 2, 2, 2];
        let folds = leave_one_group_out(&groups);
        assert_eq!(folds.len(), 3);
        assert_eq!(folds[0].val, vec![0, 1]);
        assert_eq!(folds[1].val, vec![2]);
        assert_eq!(folds[2].val, vec![3, 4, 5]);
        assert_eq!(folds[2].train, vec![0, 1, 2]);
    }

    #[test]
    fn stratified_preserves_label_ratio() {
        // 80 of class 0, 20 of class 1.
        let labels: Vec<usize> = (0..100).map(|i| usize::from(i >= 80)).collect();
        let folds = stratified_kfold(&labels, 10, 3);
        assert_eq!(folds.len(), 10);
        for f in &folds {
            let ones = f.val.iter().filter(|&&i| labels[i] == 1).count();
            assert_eq!(f.val.len(), 10);
            assert_eq!(ones, 2, "stratification broken: {ones} of 10");
        }
    }

    #[test]
    fn stratified_handles_tiny_minority_class() {
        // 3 positives across 5 folds: each positive lands in a distinct
        // fold's validation set, nothing is lost.
        let labels: Vec<usize> = (0..50).map(|i| usize::from(i >= 47)).collect();
        let folds = stratified_kfold(&labels, 5, 9);
        let mut positives_seen = 0;
        for f in &folds {
            let p = f.val.iter().filter(|&&i| labels[i] == 1).count();
            assert!(p <= 1, "minority class bunched: {p}");
            positives_seen += p;
            assert_eq!(f.train.len() + f.val.len(), 50);
        }
        assert_eq!(positives_seen, 3);
    }

    #[test]
    fn run_folds_matches_sequential_order_and_content() {
        let groups: Vec<usize> = (0..40).map(|i| i / 4).collect();
        let folds = kfold_by_group(&groups, 5, 21);
        // A fold-seeded computation: deterministic given (fi, fold).
        let eval = |fi: usize, fold: &Fold| -> (usize, u64) {
            let mut rng = StdRng::seed_from_u64(100 + fi as u64);
            let mut acc = 0u64;
            for &v in &fold.val {
                acc = acc
                    .wrapping_mul(31)
                    .wrapping_add(v as u64)
                    .wrapping_add(crate::cv::tests::next(&mut rng));
            }
            (fi, acc)
        };
        let sequential: Vec<(usize, u64)> = folds
            .iter()
            .enumerate()
            .map(|(fi, f)| eval(fi, f))
            .collect();
        let parallel = run_folds(&folds, eval);
        assert_eq!(parallel, sequential);
    }

    fn next(rng: &mut StdRng) -> u64 {
        use rand::RngCore;
        rng.next_u64()
    }

    #[test]
    fn holdout_fraction() {
        let h = holdout_indices(30, 0.2, 11);
        assert_eq!(h.len(), 6);
        assert!(h.iter().all(|&i| i < 30));
        let h2 = holdout_indices(30, 0.2, 11);
        assert_eq!(h, h2);
    }
}
