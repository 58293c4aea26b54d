//! Synthetic module-structured expression data.
//!
//! The paper evaluates on two real compendia (S. cerevisiae 5716×2577,
//! A. thaliana 18373×5102). Those measure *runtime scaling*, which
//! depends on the data dimensions and on the module structure the
//! sampler discovers — not on biological identity. This generator
//! plants exactly the structure a module network assumes (§2.1): a set
//! of regulator variables, a partition of the remaining variables into
//! modules, and a regression-tree CPD per module in which the module
//! mean in each observation is decided by threshold tests on its
//! regulators. It also returns the planted [`GroundTruth`] so tests and
//! examples can score recovery.
//!
//! The planted module count grows with `n` when left on automatic,
//! mirroring the paper's observation (§5.2.2) that the number of
//! learned modules K grows from 28–39 at n = 1000 to 111–170 at
//! n = 5716 — the source of the super-linear runtime growth in Fig. 4.

use crate::dataset::Dataset;
use crate::io::DataError;
use crate::matrix::Matrix;
use mn_rand::{Domain, MasterRng, Normal, Stream};
use serde::{Deserialize, Serialize};

/// Configuration for the synthetic generator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyntheticConfig {
    /// Number of variables (genes), including regulators.
    pub n_vars: usize,
    /// Number of observations (conditions).
    pub n_obs: usize,
    /// Number of planted modules; `None` = automatic (`max(2, n/40)`,
    /// reproducing the paper's K-vs-n growth).
    pub n_modules: Option<usize>,
    /// Number of regulator variables; `None` = automatic
    /// (`max(2, n/20)`).
    pub n_regulators: Option<usize>,
    /// Maximum regulators driving one module (1..=this, chosen per
    /// module). Default 3, matching typical regulatory in-degree.
    pub max_parents: usize,
    /// Within-module noise standard deviation relative to the planted
    /// signal (signal is ±1); default 0.4.
    pub noise_sd: f64,
    /// Master seed.
    pub seed: u64,
}

impl SyntheticConfig {
    /// A new configuration with automatic structure parameters.
    pub fn new(n_vars: usize, n_obs: usize, seed: u64) -> Self {
        Self {
            n_vars,
            n_obs,
            n_modules: None,
            n_regulators: None,
            max_parents: 3,
            noise_sd: 0.4,
            seed,
        }
    }

    /// Resolved module count.
    pub fn resolved_modules(&self) -> usize {
        self.n_modules
            .unwrap_or_else(|| (self.n_vars / 40).max(2))
            .min(self.n_vars)
    }

    /// Resolved regulator count.
    pub fn resolved_regulators(&self) -> usize {
        self.n_regulators
            .unwrap_or_else(|| (self.n_vars / 20).max(2))
            .min(self.n_vars)
    }
}

/// The planted structure behind a synthetic data set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroundTruth {
    /// `assignment[v]` = planted module index of variable `v`
    /// (regulators are assigned too; they belong to modules like any
    /// other gene, as in Fig. 1 of the paper).
    pub assignment: Vec<usize>,
    /// `parents[k]` = regulator variables planted as parents of module `k`.
    pub parents: Vec<Vec<usize>>,
    /// Indices of the regulator variables.
    pub regulators: Vec<usize>,
}

impl GroundTruth {
    /// Number of planted modules.
    pub fn n_modules(&self) -> usize {
        self.parents.len()
    }
}

/// A generated data set together with its planted structure.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// The expression data.
    pub dataset: Dataset,
    /// What was planted.
    pub truth: GroundTruth,
}

/// One planted threshold rule: if regulator `parent`'s value is above
/// `threshold`, the module mean contribution flips sign.
#[derive(Debug, Clone)]
struct PlantedRule {
    parent: usize,
    threshold: f64,
    up: f64,
    down: f64,
}

/// Generate a synthetic module-structured data set.
pub fn generate(config: &SyntheticConfig) -> SyntheticDataset {
    assert!(config.n_vars >= 2, "need at least two variables");
    assert!(config.n_obs >= 2, "need at least two observations");
    assert!(config.max_parents >= 1);
    assert!(config.noise_sd >= 0.0);

    let master = MasterRng::new(config.seed);
    let k = config.resolved_modules();
    let n_regs = config.resolved_regulators();
    let n = config.n_vars;
    let m = config.n_obs;

    let mut structure = master.stream(Domain::Synthetic, 0);
    let mut normal = Normal::new();

    // Regulators are the first `n_regs` variables (the candidate-parent
    // convention of §5.1: "we use all the genes in the data sets as the
    // candidate regulators" still holds downstream; planting them first
    // just makes the ground truth easy to read).
    let regulators: Vec<usize> = (0..n_regs).collect();

    // Assign every variable to one of k modules uniformly at random.
    let mut assignment = vec![0usize; n];
    for a in assignment.iter_mut() {
        *a = structure.below(k);
    }

    // Plant 1..=max_parents regulator rules per module.
    let mut parents: Vec<Vec<usize>> = Vec::with_capacity(k);
    let mut rules: Vec<Vec<PlantedRule>> = Vec::with_capacity(k);
    for _ in 0..k {
        let n_parents = 1 + structure.below(config.max_parents);
        let mut module_parents = Vec::with_capacity(n_parents);
        let mut module_rules = Vec::with_capacity(n_parents);
        for _ in 0..n_parents {
            let parent = regulators[structure.below(n_regs)];
            if module_parents.contains(&parent) {
                continue;
            }
            // Threshold near the middle of the regulator distribution so
            // both branches are exercised.
            let threshold = (structure.next_f64() - 0.5) * 1.2;
            let magnitude = 0.6 + structure.next_f64() * 0.8;
            module_rules.push(PlantedRule {
                parent,
                threshold,
                up: magnitude,
                down: -magnitude,
            });
            module_parents.push(parent);
        }
        parents.push(module_parents);
        rules.push(module_rules);
    }

    // Generate the matrix. Regulator rows are independent N(0,1); the
    // per-observation module mean is the sum of its rules applied to the
    // regulator values; member rows are mean + N(0, noise_sd).
    let mut matrix = Matrix::zeros(n, m);
    {
        let mut reg_stream = master.stream(Domain::Synthetic, 1);
        for &r in &regulators {
            for j in 0..m {
                matrix.set(r, j, normal.sample(&mut reg_stream));
            }
        }
    }

    // Module means per observation.
    let mut module_mean = vec![vec![0.0f64; m]; k];
    for (module, module_rules) in rules.iter().enumerate() {
        for (j, mean_slot) in module_mean[module].iter_mut().enumerate() {
            let mut mean = 0.0;
            for rule in module_rules {
                let v = matrix.get(rule.parent, j);
                mean += if v > rule.threshold { rule.up } else { rule.down };
            }
            *mean_slot = mean;
        }
    }

    {
        let mut noise_stream = master.stream(Domain::Synthetic, 2);
        let mut noise_normal = Normal::new();
        for (v, &module) in assignment.iter().enumerate().skip(n_regs) {
            let means = &module_mean[module];
            for (j, &mean) in means.iter().enumerate() {
                let x = mean + noise_normal.sample_with(&mut noise_stream, 0.0, config.noise_sd);
                matrix.set(v, j, x);
            }
        }
    }

    let dataset = Dataset::new(matrix, None, None);
    SyntheticDataset {
        dataset,
        truth: GroundTruth {
            assignment,
            parents,
            regulators,
        },
    }
}

/// Preset mimicking the yeast compendium's shape at a reduced scale.
///
/// The real data set is 5716 × 2577 (Tchourine et al.); experiments in
/// `mn-bench` call this with the scaled-down n, m documented in
/// EXPERIMENTS.md.
pub fn yeast_like(n_vars: usize, n_obs: usize, seed: u64) -> SyntheticDataset {
    generate(&SyntheticConfig::new(n_vars, n_obs, seed))
}

/// [`yeast_like`] for an untrusted shape (CLI flags, serve requests):
/// a shape [`generate`] would reject is a typed
/// [`DataError::SyntheticShape`] instead of a panic.
pub fn try_yeast_like(
    n_vars: usize,
    n_obs: usize,
    seed: u64,
) -> Result<SyntheticDataset, DataError> {
    if n_vars < 2 || n_obs < 2 {
        return Err(DataError::SyntheticShape { n_vars, n_obs });
    }
    Ok(yeast_like(n_vars, n_obs, seed))
}

/// Preset mimicking the A. thaliana compendium's shape (18373 × 5102):
/// relatively more modules and regulators per variable than yeast.
pub fn thaliana_like(n_vars: usize, n_obs: usize, seed: u64) -> SyntheticDataset {
    let mut config = SyntheticConfig::new(n_vars, n_obs, seed);
    config.n_modules = Some((n_vars / 30).max(2));
    config.n_regulators = Some((n_vars / 15).max(2));
    generate(&config)
}

/// Convenience: draw a pure-noise data set (no module structure), used
/// by tests as a null model.
pub fn noise_only(n_vars: usize, n_obs: usize, seed: u64) -> Dataset {
    let master = MasterRng::new(seed);
    let mut stream: Stream = master.stream(Domain::Synthetic, 3);
    let mut normal = Normal::new();
    let matrix = Matrix::from_fn(n_vars, n_obs, |_, _| normal.sample(&mut stream));
    Dataset::new(matrix, None, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_yeast_like_rejects_degenerate_shapes() {
        for (n, m) in [(1usize, 5usize), (5, 1), (0, 0), (1, 1)] {
            assert!(
                matches!(
                    try_yeast_like(n, m, 1),
                    Err(DataError::SyntheticShape { n_vars, n_obs }) if (n_vars, n_obs) == (n, m)
                ),
                "{n}x{m}"
            );
        }
        let ok = try_yeast_like(2, 2, 1).expect("smallest valid shape");
        assert_eq!((ok.dataset.n_vars(), ok.dataset.n_obs()), (2, 2));
    }

    #[test]
    fn dimensions_and_truth_shape() {
        let s = generate(&SyntheticConfig::new(120, 40, 7));
        assert_eq!(s.dataset.n_vars(), 120);
        assert_eq!(s.dataset.n_obs(), 40);
        assert_eq!(s.truth.assignment.len(), 120);
        assert_eq!(s.truth.n_modules(), 3); // 120/40 = 3
        for parents in &s.truth.parents {
            assert!(!parents.is_empty());
            for &p in parents {
                assert!(s.truth.regulators.contains(&p));
            }
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let a = generate(&SyntheticConfig::new(50, 20, 42));
        let b = generate(&SyntheticConfig::new(50, 20, 42));
        assert_eq!(a.dataset, b.dataset);
        assert_eq!(a.truth.assignment, b.truth.assignment);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&SyntheticConfig::new(50, 20, 1));
        let b = generate(&SyntheticConfig::new(50, 20, 2));
        assert_ne!(a.dataset, b.dataset);
    }

    #[test]
    fn module_members_correlate_within_module() {
        // Two members of the same planted module must correlate far more
        // strongly with each other than with members of other modules —
        // this is the signal GaneSH clusters on.
        let s = generate(&SyntheticConfig {
            noise_sd: 0.2,
            ..SyntheticConfig::new(80, 200, 11)
        });
        let k = s.truth.n_modules();
        let regs = s.truth.regulators.len();
        // Collect two members per module (non-regulators).
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
        for v in regs..80 {
            members[s.truth.assignment[v]].push(v);
        }
        let corr = |a: usize, b: usize| -> f64 {
            let xa = s.dataset.values(a);
            let xb = s.dataset.values(b);
            let n = xa.len() as f64;
            let (ma, mb) = (
                xa.iter().sum::<f64>() / n,
                xb.iter().sum::<f64>() / n,
            );
            let mut num = 0.0;
            let mut da = 0.0;
            let mut db = 0.0;
            for i in 0..xa.len() {
                num += (xa[i] - ma) * (xb[i] - mb);
                da += (xa[i] - ma).powi(2);
                db += (xb[i] - mb).powi(2);
            }
            num / (da.sqrt() * db.sqrt())
        };
        let mut checked = 0;
        for mk in members.iter().filter(|ms| ms.len() >= 2) {
            let within = corr(mk[0], mk[1]);
            assert!(
                within > 0.5,
                "within-module correlation too weak: {within}"
            );
            checked += 1;
        }
        assert!(checked >= 1, "no module had two members");
    }

    #[test]
    fn auto_module_count_grows_with_n() {
        let small = SyntheticConfig::new(100, 10, 0).resolved_modules();
        let large = SyntheticConfig::new(1000, 10, 0).resolved_modules();
        assert!(large > small, "K must grow with n ({small} vs {large})");
    }

    #[test]
    fn noise_only_has_no_structure() {
        let d = noise_only(10, 50, 3);
        assert_eq!(d.n_vars(), 10);
        assert_eq!(d.n_obs(), 50);
    }

    #[test]
    fn presets_run() {
        let y = yeast_like(60, 30, 5);
        let t = thaliana_like(60, 30, 5);
        assert_eq!(y.dataset.n_vars(), 60);
        // thaliana preset plants denser structure
        assert!(t.truth.n_modules() >= y.truth.n_modules());
    }
}
