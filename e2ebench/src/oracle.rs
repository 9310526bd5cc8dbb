//! The verdict oracle: every answer is checked against the native APPEL
//! engine run on the policy XML the benchmark generated, apart from the
//! SQL path, plus the epoch and URI-resolution properties.

use crate::inputs::{RulesetDoc, CORPUS};
use crate::load::{Catalog, Sample};
use crate::mix::{Op, Target};
use p3p_appel::{AppelEngine, EngineOptions, Verdict};
use std::collections::{HashMap, HashSet};

/// The raw text of a top-level scalar field in a flat JSON object.
pub fn json_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let at = body.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &body[at..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim().trim_matches('"'))
}

fn fired(raw: &str) -> Option<Option<usize>> {
    match raw {
        "null" => Some(None),
        n => n.parse().ok().map(Some),
    }
}

fn same(expected: &Verdict, behavior: &str, fired_rule: Option<Option<usize>>) -> bool {
    expected.behavior.as_str() == behavior && fired_rule == Some(expected.fired_rule)
}

/// The native engine with the base data schema walked from its static
/// table instead of re-parsed from its XML text on every match: the
/// same augmentation and verdicts at a fraction of the cost.
pub fn native_engine() -> AppelEngine {
    AppelEngine::with_options(EngineOptions {
        augment_categories: true,
        rebuild_schema_per_match: false,
    })
}

/// Native verdicts, one per distinct (policy, ruleset) the run used.
pub struct Oracle {
    memo: HashMap<(usize, usize), Verdict>,
}

impl Oracle {
    /// Evaluate every pair the samples need, on all cores.
    pub fn build(
        samples: &[&[Sample]],
        catalog: &Catalog<'_>,
        rulesets: &[RulesetDoc],
    ) -> Result<Oracle, String> {
        let mut pairs = HashSet::new();
        let mut swept = HashSet::new();
        for sample in samples.iter().flat_map(|s| s.iter()) {
            match sample.op {
                Op::Match { ruleset, target } => {
                    pairs.insert((target.policy(), ruleset));
                }
                Op::Sweep { ruleset, .. } => {
                    swept.insert(ruleset);
                }
                Op::Install { .. } => {}
            }
        }
        // A sweep covers the corpus (no sweep runs after an install).
        for ruleset in swept {
            pairs.extend((0..CORPUS).map(|p| (p, ruleset)));
        }
        Oracle::evaluate(pairs.into_iter().collect(), catalog, rulesets)
    }

    pub fn evaluate(
        mut pairs: Vec<(usize, usize)>,
        catalog: &Catalog<'_>,
        rulesets: &[RulesetDoc],
    ) -> Result<Oracle, String> {
        pairs.sort_unstable();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let chunk = pairs.len().div_ceil(threads).max(1);
        let parts: Vec<Result<Vec<_>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = pairs
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        let engine = crate::oracle::native_engine();
                        part.iter()
                            .map(|&(p, r)| {
                                engine
                                    .evaluate_policy_xml(&rulesets[r].ruleset, &catalog.doc(p).xml)
                                    .map(|v| ((p, r), v))
                                    .map_err(|e| format!("native engine on policy {p}: {e}"))
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("oracle thread panicked"))
                .collect()
        });
        let mut memo = HashMap::new();
        for part in parts {
            memo.extend(part?);
        }
        Ok(Oracle { memo })
    }

    pub fn verdict(&self, policy: usize, ruleset: usize) -> &Verdict {
        &self.memo[&(policy, ruleset)]
    }
}

/// Outcome of checking one run's samples.
pub struct Checked {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

/// What the checks need besides the samples.
pub struct Expect<'a> {
    pub oracle: &'a Oracle,
    /// Catalog index by policy name.
    pub index: HashMap<&'a str, usize>,
    /// URI targets whose resolution was checked, with the outcome.
    pub resolved: HashMap<Target, bool>,
    /// Epoch and policy count before the first request.
    pub start_epoch: u64,
    pub start_policies: usize,
}

/// Check every sample. Each stream is one connection in send order:
/// each `/install` must answer 200 with an epoch exactly one above the
/// previous; every later answer must carry an epoch at least that
/// high; every verdict must equal the native one. `inject` names one
/// (stream, sample) whose expected verdict is replaced by a wrong one,
/// for the self-test.
pub fn check(
    streams: &[&[Sample]],
    expect: &Expect<'_>,
    inject: Option<(usize, usize)>,
) -> Checked {
    let mut out = Checked {
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
    };
    for (s, stream) in streams.iter().enumerate() {
        let mut epoch_floor = expect.start_epoch;
        let mut live = expect.start_policies;
        for (i, sample) in stream.iter().enumerate() {
            out.attempted += 1;
            let injected = inject == Some((s, i));
            let problem = check_one(sample, expect, &mut epoch_floor, &mut live, injected);
            if let Some(problem) = problem {
                out.failed += 1;
                if out.notes.len() < 5 {
                    out.notes.push(format!("{:?}: {problem}", sample.op));
                }
            }
        }
    }
    out
}

fn check_one(
    sample: &Sample,
    expect: &Expect<'_>,
    epoch_floor: &mut u64,
    live: &mut usize,
    injected: bool,
) -> Option<String> {
    if sample.status != 200 {
        return Some(format!("status {}", sample.status));
    }
    let Ok(body) = std::str::from_utf8(&sample.body) else {
        return Some("body is not UTF-8".into());
    };
    let Some(epoch) = sample.epoch else {
        return Some("no X-P3P-Epoch header".into());
    };
    let wrong = Verdict {
        behavior: p3p_appel::Behavior::Custom("injected-wrong".into()),
        fired_rule: None,
    };
    let expected = |policy: usize, ruleset: usize| {
        if injected {
            &wrong
        } else {
            expect.oracle.verdict(policy, ruleset)
        }
    };
    match sample.op {
        Op::Install { .. } => {
            let body_epoch = json_field(body, "epoch").and_then(|e| e.parse::<u64>().ok());
            if epoch != *epoch_floor + 1 || body_epoch != Some(epoch) {
                return Some(format!(
                    "install epoch {epoch} (body {body_epoch:?}) after {epoch_floor}"
                ));
            }
            *epoch_floor = epoch;
            *live += 1;
        }
        Op::Match { ruleset, target } => {
            if epoch < *epoch_floor {
                return Some(format!("epoch {epoch} below {epoch_floor}"));
            }
            if expect.resolved.get(&target) == Some(&false) {
                return Some("URI resolved to another policy".into());
            }
            let behavior = json_field(body, "behavior").unwrap_or("");
            let fired_rule = json_field(body, "fired_rule").and_then(fired);
            if !same(expected(target.policy(), ruleset), behavior, fired_rule) {
                return Some(format!(
                    "verdict {behavior}/{fired_rule:?} differs from native"
                ));
            }
        }
        Op::Sweep { ruleset, .. } => {
            if epoch < *epoch_floor {
                return Some(format!("epoch {epoch} below {epoch_floor}"));
            }
            let count = json_field(body, "policies").and_then(|c| c.parse::<usize>().ok());
            if count != Some(*live) {
                return Some(format!("{count:?} verdicts for {live} policies"));
            }
            let mut seen = 0;
            for entry in body.split("{\"name\": \"").skip(1) {
                seen += 1;
                let name = entry.split('"').next().unwrap_or("");
                let Some(&policy) = expect.index.get(name) else {
                    return Some(format!("unknown policy `{name}`"));
                };
                let behavior = json_field(entry, "behavior").unwrap_or("");
                let fired_rule = json_field(entry, "fired_rule").and_then(fired);
                let want = if seen == 1 {
                    expected(policy, ruleset)
                } else {
                    expect.oracle.verdict(policy, ruleset)
                };
                if !same(want, behavior, fired_rule) {
                    return Some(format!(
                        "`{name}`: {behavior}/{fired_rule:?} differs from native"
                    ));
                }
            }
            if seen != *live {
                return Some(format!("{seen} verdict entries for {live} policies"));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{rulesets, PolicyDoc};
    use crate::mix::Target;
    use p3p_policy::model::volga_policy;

    #[test]
    fn json_field_reads_scalars() {
        let body = "{\"behavior\": \"request\", \"fired_rule\": null, \"epoch\": 2001}\n";
        assert_eq!(json_field(body, "behavior"), Some("request"));
        assert_eq!(json_field(body, "fired_rule"), Some("null"));
        assert_eq!(json_field(body, "epoch"), Some("2001"));
        assert_eq!(json_field(body, "missing"), None);
    }

    #[test]
    fn one_injected_verdict_is_exactly_one_failure() {
        let policy = volga_policy();
        let corpus = [PolicyDoc {
            xml: policy.to_xml(),
            name: policy.name.clone(),
        }];
        let catalog = Catalog {
            corpus: &corpus,
            fresh: &[],
        };
        let rulesets = rulesets();
        let oracle = Oracle::evaluate(vec![(0, 0), (0, 1)], &catalog, &rulesets).unwrap();
        let answer = |ruleset: usize| {
            let v = oracle.verdict(0, ruleset);
            Sample {
                op: Op::Match {
                    ruleset,
                    target: Target::Policy(0),
                },
                status: 200,
                nanos: 1,
                epoch: Some(1),
                body: format!(
                    "{{\"behavior\": \"{}\", \"fired_rule\": {}, \"epoch\": 1}}\n",
                    v.behavior.as_str(),
                    v.fired_rule.map_or("null".into(), |i| i.to_string())
                )
                .into_bytes(),
            }
        };
        let stream = [answer(0), answer(1), answer(0)];
        let expect = Expect {
            oracle: &oracle,
            index: HashMap::from([(policy.name.as_str(), 0)]),
            resolved: HashMap::new(),
            start_epoch: 1,
            start_policies: 1,
        };
        let clean = check(&[&stream], &expect, None);
        assert_eq!((clean.attempted, clean.failed), (3, 0));
        let injected = check(&[&stream], &expect, Some((0, 2)));
        assert_eq!(injected.failed, 1);
    }
}
