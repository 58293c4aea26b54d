//! Input generation: every workload's TSV data sets, regulator lists
//! and planted truth, made from the workload seed.
//!
//! The program sees only these files and the CLI flags in [`Case::flags`];
//! [`Case::config`] is the in-process library configuration those flags
//! select, used for the reference network and the traced run.

use monet::mn_data::synthetic::{self, SyntheticDataset};
use monet::mn_data::{self, Dataset};
use monet::LearnerConfig;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Learner flags beyond `--input` and `--seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Learn {
    /// `--ganesh-runs G`.
    pub ganesh_runs: usize,
    /// `--update-steps U`.
    pub update_steps: usize,
    /// Pass the planted regulators as `--candidates`.
    pub planted_candidates: bool,
}

impl Learn {
    /// The paper's minimum configuration (§5.1): G=1, U=1, R=1, every
    /// gene a candidate regulator. These are the CLI's defaults.
    pub const MINIMUM: Learn = Learn {
        ganesh_runs: 1,
        update_steps: 1,
        planted_candidates: false,
    };
}

/// One learn the benchmark runs: a data set on disk, a learner seed
/// and its flags, with the planted module of every gene.
#[derive(Debug, Clone)]
pub struct Case {
    /// Short name, unique within a run.
    pub label: String,
    /// The expression table.
    pub tsv: PathBuf,
    /// The regulator list, when [`Learn::planted_candidates`] is set.
    pub candidates: Option<PathBuf>,
    /// Planted module of every gene, in TSV row order.
    pub truth: Vec<usize>,
    /// `--seed`.
    pub seed: u64,
    /// The remaining flags.
    pub learn: Learn,
}

impl Case {
    /// CLI flags selecting this learn (without `--engine`/`--json`).
    pub fn flags(&self) -> Vec<String> {
        let mut flags = vec![
            "--input".to_string(),
            self.tsv.display().to_string(),
            "--seed".into(),
            self.seed.to_string(),
            "--ganesh-runs".into(),
            self.learn.ganesh_runs.to_string(),
            "--update-steps".into(),
            self.learn.update_steps.to_string(),
        ];
        if let Some(path) = &self.candidates {
            flags.push("--candidates".into());
            flags.push(path.display().to_string());
        }
        flags
    }

    /// Read the data set back the way the CLI does.
    pub fn read(&self) -> Result<Dataset, String> {
        mn_data::read_tsv_file(&self.tsv).map_err(|e| format!("{}: {e}", self.tsv.display()))
    }

    /// The library configuration the CLI builds from [`Case::flags`]:
    /// `paper_minimum` plus the flag overrides, with candidate names
    /// resolved against `data`.
    pub fn config(&self, data: &Dataset) -> Result<LearnerConfig, String> {
        let mut config = LearnerConfig::paper_minimum(self.seed);
        config.ganesh_runs = self.learn.ganesh_runs;
        config.ganesh.update_steps = self.learn.update_steps;
        config.ganesh.init_clusters = None;
        config.consensus.threshold = 0.0;
        config.tree.update_steps = 2; // --trees 1
        config.tree.burn_in = 1;
        config.tree.splits_per_node = 2;
        config.tree.max_sampling_steps = 8;
        if let Some(path) = &self.candidates {
            let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            let indices = text
                .split_whitespace()
                .map(|name| {
                    data.var_names
                        .iter()
                        .position(|v| v == name)
                        .ok_or_else(|| format!("candidate {name:?} not in data set"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            config.candidate_parents = Some(indices);
        }
        config.validated()
    }
}

/// splitmix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generate a `yeast_like` data set and write `<stem>.tsv`, its planted
/// truth `<stem>.truth.tsv` (gene, module) and, if asked, the planted
/// regulators `<stem>.regulators.txt`.
pub fn write_dataset(
    dir: &Path,
    stem: &str,
    n: usize,
    m: usize,
    data_seed: u64,
    with_regulators: bool,
) -> io::Result<(PathBuf, Option<PathBuf>, Vec<usize>)> {
    let SyntheticDataset { dataset, truth } = synthetic::yeast_like(n, m, data_seed);
    let tsv = dir.join(format!("{stem}.tsv"));
    mn_data::write_tsv_file(&dataset, &tsv)?;
    let mut out = io::BufWriter::new(std::fs::File::create(
        dir.join(format!("{stem}.truth.tsv")),
    )?);
    for (name, module) in dataset.var_names.iter().zip(&truth.assignment) {
        writeln!(out, "{name}\t{module}")?;
    }
    out.flush()?;
    let regulators = if with_regulators {
        let path = dir.join(format!("{stem}.regulators.txt"));
        let names: Vec<&str> = truth
            .regulators
            .iter()
            .map(|&r| dataset.var_names[r].as_str())
            .collect();
        std::fs::write(&path, names.join("\n") + "\n")?;
        Some(path)
    } else {
        None
    };
    Ok((tsv, regulators, truth.assignment))
}

/// `k` batch cases of `n`×`m` genes×observations, each with its own data
/// and learner seed drawn from `seed`.
pub fn batch_cases(
    dir: &Path,
    seed: u64,
    k: usize,
    (n, m): (usize, usize),
    learn: Learn,
) -> io::Result<Vec<Case>> {
    (0..k)
        .map(|i| {
            let label = format!("d{i}");
            let (tsv, candidates, truth) = write_dataset(
                dir,
                &label,
                n,
                m,
                mix(seed, 2 * i as u64),
                learn.planted_candidates,
            )?;
            Ok(Case {
                label,
                tsv,
                candidates,
                truth,
                seed: mix(seed, 2 * i as u64 + 1) % 1_000_000,
                learn,
            })
        })
        .collect()
}

/// Tenants of the served closed loop.
pub const TENANTS: [&str; 2] = ["alice", "bob"];
/// Served data set sizes (genes × observations) and how many sets of
/// each size every tenant registers: 2 tenants × (6 + 2) = 16 jobs,
/// each its own data set and learner seed. Sixteen sets average out how
/// much one set happens to cost; the uneven split keeps the median and
/// the p90 job inside one size's times, not in the gap between them.
pub const POOL_SIZES: [(usize, usize, usize); 2] = [(120, 40, 6), (200, 60, 2)];

/// One (data set, seed) of the served job pool.
#[derive(Debug, Clone)]
pub struct PoolEntry {
    /// Owning tenant.
    pub tenant: &'static str,
    /// Registered data set name.
    pub dataset: String,
    /// The learn, runnable through the batch CLI too.
    pub case: Case,
}

/// The served job pool: each tenant owns the data sets of
/// [`POOL_SIZES`], each learned once in the minimum configuration.
pub fn serve_pool(dir: &Path, seed: u64) -> io::Result<Vec<PoolEntry>> {
    let mut pool = Vec::new();
    for (t, tenant) in TENANTS.into_iter().enumerate() {
        for &(n, m, count) in &POOL_SIZES {
            for j in 0..count {
                let dataset = format!("{n}x{m}-{j}");
                let stem = format!("{tenant}-{dataset}");
                let stream = 100 + 1000 * t as u64 + 10 * n as u64 + j as u64;
                let (tsv, _, truth) =
                    write_dataset(dir, &stem, n, m, mix(seed, 2 * stream), false)?;
                pool.push(PoolEntry {
                    tenant,
                    dataset,
                    case: Case {
                        label: stem,
                        tsv,
                        candidates: None,
                        truth,
                        seed: mix(seed, 2 * stream + 1) % 1_000_000,
                        learn: Learn::MINIMUM,
                    },
                });
            }
        }
    }
    Ok(pool)
}

/// The 8×6 input the fixed-cost probe learns.
pub fn tiny_case(dir: &Path, seed: u64) -> io::Result<Case> {
    let (tsv, _, truth) = write_dataset(dir, "tiny", 8, 6, mix(seed, 7), false)?;
    Ok(Case {
        label: "tiny".into(),
        tsv,
        candidates: None,
        truth,
        seed: 1,
        learn: Learn::MINIMUM,
    })
}
