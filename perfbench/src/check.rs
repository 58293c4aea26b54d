//! Output checks: byte identity with the in-process serial library
//! network, `validate()`, and module recovery against the planted truth.

use crate::inputs::Case;
use monet::mn_comm::SerialEngine;
use monet::mn_consensus::adjusted_rand_index;
use monet::{learn_module_network, LearnerConfig, ModuleNetwork};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Lowest acceptable adjusted Rand index of learned vs planted modules,
/// per learn. Over twelve seeds the lowest seen was 0.29 (a 120×40 set;
/// the medians are 0.62 to 0.90), while a learner that stops recovering
/// the planted structure scores near 0.
pub const ARI_FLOOR: f64 = 0.2;

/// What every engine's output for one case is checked against.
#[derive(Debug, Clone)]
pub struct Reference {
    /// `monet::to_json` of the in-process serial library network.
    pub bytes: String,
    /// Its module ARI against the planted truth.
    pub ari: f64,
    /// Wall time of the library learn, seconds.
    pub lib_s: f64,
    /// The library configuration the case's CLI flags select.
    pub config: LearnerConfig,
}

/// Learn `case` in process on the serial engine; the network must
/// pass `validate()`.
pub fn reference(case: &Case) -> Result<Reference, String> {
    let data = case.read()?;
    let config = case.config(&data)?;
    let start = Instant::now();
    let (network, _) = learn_module_network(&mut SerialEngine::new(), &data, &config);
    let lib_s = start.elapsed().as_secs_f64();
    let bytes = monet::to_json(&network);
    let ari = validated(&bytes).map(|net| module_ari(&net, &case.truth))?;
    Ok(Reference {
        bytes,
        ari,
        lib_s,
        config,
    })
}

impl Reference {
    /// Module recovery meets [`ARI_FLOOR`].
    pub fn check_ari(&self) -> Result<(), String> {
        if self.ari >= ARI_FLOOR {
            Ok(())
        } else {
            Err(format!(
                "module ARI {:.3} below floor {ARI_FLOOR}",
                self.ari
            ))
        }
    }
}

/// Parse a network and run its `validate()` invariants.
pub fn validated(bytes: &str) -> Result<ModuleNetwork, String> {
    let network = monet::from_json(bytes).map_err(|e| format!("unparseable network: {e}"))?;
    catch_unwind(AssertUnwindSafe(|| network.validate()))
        .map_err(|_| "network fails validate()".to_string())?;
    Ok(network)
}

/// Check one engine's output against the reference.
pub fn check_output(bytes: &str, reference: &Reference) -> Result<(), String> {
    if bytes != reference.bytes {
        return Err(format!(
            "network differs from the serial library network ({} vs {} bytes)",
            bytes.len(),
            reference.bytes.len()
        ));
    }
    validated(bytes).map(|_| ())
}

/// Adjusted Rand index of the learned modules against the planted
/// assignment. A gene left out of every module counts as a singleton.
pub fn module_ari(network: &ModuleNetwork, truth: &[usize]) -> f64 {
    let n_modules = network.n_modules();
    let learned: Vec<usize> = network
        .assignment
        .iter()
        .enumerate()
        .map(|(v, m)| m.unwrap_or(n_modules + v))
        .collect();
    if learned.len() != truth.len() {
        return f64::NAN;
    }
    adjusted_rand_index(&learned, truth)
}
