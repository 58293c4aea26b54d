//! Operation tally and the result line.

use serde::Content;
use std::sync::Mutex;

/// Attempted and failed operations. Every CLI learn, served job,
/// registration and reference learn is one operation; any check it
/// fails makes it one failure, never a silent skip.
#[derive(Debug, Default)]
pub struct Tally {
    inner: Mutex<TallyInner>,
}

#[derive(Debug, Default)]
struct TallyInner {
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
}

impl Tally {
    /// Count one operation: `Ok` passed every check, `Err` names the
    /// first one it failed.
    pub fn record(&self, what: &str, outcome: Result<(), String>) -> bool {
        let mut t = self.inner.lock().expect("tally lock is never poisoned");
        t.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(why) => {
                t.failed += 1;
                if t.reasons.len() < 20 {
                    t.reasons.push(format!("{what}: {why}"));
                }
                false
            }
        }
    }

    /// (attempted, failed).
    pub fn counts(&self) -> (u64, u64) {
        let t = self.inner.lock().expect("tally lock is never poisoned");
        (t.attempted, t.failed)
    }

    /// The first failure reasons recorded.
    pub fn reasons(&self) -> Vec<String> {
        self.inner
            .lock()
            .expect("tally lock is never poisoned")
            .reasons
            .clone()
    }

    /// Failed over attempted.
    pub fn fail_frac(&self) -> f64 {
        let (attempted, failed) = self.counts();
        if attempted == 0 {
            1.0
        } else {
            failed as f64 / attempted as f64
        }
    }
}

/// Named metrics in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Add (or replace) a metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(entry) => *entry = (name.to_string(), value, unit),
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    /// One human-readable line per metric.
    pub fn lines(&self) -> Vec<String> {
        self.entries
            .iter()
            .map(|(n, v, u)| format!("{n} = {v} {u}"))
            .collect()
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    /// Non-finite values (a metric with no samples) become `null`.
    pub fn result_line(&self, tally: &Tally) -> String {
        let (attempted, failed) = tally.counts();
        let metrics = self
            .entries
            .iter()
            .map(|(n, v, u)| {
                let value = if v.is_finite() {
                    Content::F64(*v)
                } else {
                    Content::Null
                };
                (
                    n.clone(),
                    Content::Map(vec![
                        ("value".into(), value),
                        ("unit".into(), Content::Str((*u).into())),
                    ]),
                )
            })
            .collect();
        let all_finite = self.entries.iter().all(|(_, v, _)| v.is_finite());
        serde_json::to_string(&Content::Map(vec![
            (
                "correct".into(),
                Content::Bool(failed == 0 && attempted > 0 && all_finite),
            ),
            ("attempted".into(), Content::U64(attempted)),
            ("failed".into(), Content::U64(failed)),
            ("metrics".into(), Content::Map(metrics)),
        ]))
        .expect("result line serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_frac_counts_an_injected_mismatch() {
        let tally = Tally::default();
        assert!(tally.record("learn", Ok(())));
        assert!(tally.record("learn", Ok(())));
        assert!(!tally.record("learn", Err("network differs from the reference".into())));
        assert!(tally.record("job", Ok(())));
        assert_eq!(tally.counts(), (4, 1));
        assert_eq!(tally.fail_frac(), 0.25);
        assert_eq!(tally.reasons().len(), 1);
        let mut m = Metrics::default();
        m.set("x", 1.5, "s");
        let line = m.result_line(&tally);
        assert!(line.contains("\"correct\":false"), "{line}");
        assert!(line.contains("\"failed\":1"), "{line}");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let tally = Tally::default();
        tally.record("op", Ok(()));
        let mut m = Metrics::default();
        m.set("learn_s.serial", 1.25, "s");
        m.set("setup_s", 0.125, "s");
        let line = m.result_line(&tally);
        let v: Content = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v["correct"].as_bool(), Some(true));
        assert_eq!(v["metrics"]["setup_s"]["value"].as_f64(), Some(0.125));
        assert_eq!(v["metrics"]["learn_s.serial"]["unit"].as_str(), Some("s"));
    }
}
