//! Seeded inputs shared by every workload: the policy corpus, the
//! fresh policies `/install` sends, the reference file, and the
//! rulesets (the five Figure 19 presets, then the custom pool).

use p3p_appel::model::Ruleset;
use p3p_policy::reference::{PolicyRef, ReferenceFile};
use p3p_workload::gen::{gen_ruleset, GenConfig};
use p3p_workload::rng::SmallRng;
use p3p_workload::{corpus_n, Sensitivity};

/// Policies installed at set-up.
pub const CORPUS: usize = 2000;
/// Custom rulesets: about 8x the 128-entry translation cache, so most
/// custom requests translate and prepare afresh.
pub const CUSTOM_POOL: usize = 1024;
/// Rulesets 0..PRESETS are the presets in `Sensitivity::ALL` order.
pub const PRESETS: usize = 5;

/// One policy as the daemon receives it.
pub struct PolicyDoc {
    pub name: String,
    pub xml: String,
}

/// One ruleset: the request body, and the model the daemon parses out
/// of that body (the oracle evaluates exactly what the daemon sees).
pub struct RulesetDoc {
    pub xml: String,
    pub ruleset: Ruleset,
}

impl RulesetDoc {
    fn new(ruleset: &Ruleset) -> RulesetDoc {
        let xml = ruleset.to_xml();
        let ruleset = Ruleset::parse(&xml).expect("generated ruleset XML parses");
        RulesetDoc { xml, ruleset }
    }
}

/// The installed corpus plus the reference file over it.
pub struct Corpus {
    pub policies: Vec<PolicyDoc>,
    pub reference_xml: String,
}

/// The corpus `corpus_n(seed, CORPUS)` and one POLICY-REF
/// `/site/<name>/*` per policy.
pub fn corpus(seed: u64) -> Corpus {
    let policies: Vec<PolicyDoc> = corpus_n(seed, CORPUS)
        .into_iter()
        .map(|p| PolicyDoc {
            xml: p.to_xml(),
            name: p.name,
        })
        .collect();
    let reference = ReferenceFile {
        policy_refs: policies
            .iter()
            .map(|p| {
                let mut r = PolicyRef::new(format!("/p3p/policies.xml#{}", p.name));
                r.includes.push(site_prefix(&p.name) + "*");
                r
            })
            .collect(),
        max_age: None,
    };
    Corpus {
        reference_xml: reference.to_xml(),
        policies,
    }
}

/// `count` policies drawn from `corpus_n(seed, ..)` past the first
/// [`CORPUS`]: names the catalog does not hold yet.
pub fn fresh_policies(seed: u64, count: usize) -> Vec<PolicyDoc> {
    corpus_n(seed, CORPUS + count)
        .into_iter()
        .skip(CORPUS)
        .map(|p| PolicyDoc {
            xml: p.to_xml(),
            name: p.name,
        })
        .collect()
}

/// The URI prefix the reference file maps to `name`.
pub fn site_prefix(name: &str) -> String {
    format!("/site/{name}/")
}

/// Generator seed of the custom pool. The pool is one fixed population
/// for every run: some of its rulesets take tens of milliseconds per
/// match, and a pool drawn per `--seed` moves their share, and with it
/// `point_custom` throughput, by more than the run-to-run noise.
/// `--seed` still picks which pool entries are sent, in which order,
/// against which policies of a per-seed corpus.
const CUSTOM_POOL_SEED: u64 = 0x5eed_c0de;

/// The five presets, then [`CUSTOM_POOL`] generated rulesets with
/// structural exactness off, so the SQL engines translate every one.
pub fn rulesets() -> Vec<RulesetDoc> {
    let mut out: Vec<RulesetDoc> = Sensitivity::ALL
        .iter()
        .map(|s| RulesetDoc::new(&s.ruleset()))
        .collect();
    let cfg = GenConfig {
        structural_exact_prob: 0.0,
        ..GenConfig::default()
    };
    let mut rng = SmallRng::seed_from_u64(CUSTOM_POOL_SEED);
    out.extend((0..CUSTOM_POOL).map(|_| RulesetDoc::new(&gen_ruleset(&mut rng, &cfg))));
    out
}

/// Metric-name label of preset `i`.
pub fn level_label(i: usize) -> &'static str {
    ["very_high", "high", "medium", "low", "very_low"][i]
}
