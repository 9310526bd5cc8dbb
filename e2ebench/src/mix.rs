//! The four workloads as seeded streams of whole rounds of operations.
//! The HTTP run and the traced replay draw from the same streams, so a
//! seed names one sequence of requests however it is executed.

use crate::inputs::{CORPUS, CUSTOM_POOL, PRESETS};
use p3p_workload::rng::SmallRng;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointPresets,
    PointCustom,
    InstallChurn,
    CorpusSweep,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PointPresets,
        Workload::PointCustom,
        Workload::InstallChurn,
        Workload::CorpusSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointPresets => "point_presets",
            Workload::PointCustom => "point_custom",
            Workload::InstallChurn => "install_churn",
            Workload::CorpusSweep => "corpus_sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop connections. The point workloads use one per core
    /// but stay below the daemon's worker count, because an idle
    /// keep-alive connection holds a worker; the churn and sweep
    /// workloads are one client each.
    pub fn clients(self, workers: usize) -> usize {
        match self {
            Workload::PointPresets | Workload::PointCustom => {
                let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
                cores.min(workers.saturating_sub(1)).max(1)
            }
            Workload::InstallChurn | Workload::CorpusSweep => 1,
        }
    }

    /// The tail percentile `match_tail_ms` reports: the highest that
    /// leaves at least ten samples beyond it at this workload's request
    /// rate on a two-core host.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::PointPresets | Workload::PointCustom | Workload::InstallChurn => 99.0,
            Workload::CorpusSweep => 95.0,
        }
    }

    /// Verdict-cache capacity the server runs with (0 = off, the
    /// server default).
    pub fn verdict_cache(self) -> usize {
        match self {
            Workload::InstallChurn => VERDICT_CACHE,
            _ => 0,
        }
    }
}

/// Verdict-cache capacity for `install_churn`: larger than the
/// (policy, preset) pairs a Zipf reader touches in one run, so misses
/// are first reads, not evictions.
pub const VERDICT_CACHE: usize = 4096;
/// Zipf exponent of `install_churn` reads over the live catalog. Web
/// request popularity is Zipf-like with an exponent below one: 0.64 to
/// 0.83 over the proxy traces of Breslau et al., "Web Caching and
/// Zipf-like Distributions: Evidence and Implications" (INFOCOM 1999).
pub const ZIPF_S: f64 = 0.8;
/// `/match` reads after each `/install` in `install_churn`: the 1%
/// churn rate of `workload::gen::ChurnConfig::default()`, at which the
/// repository's churn bench is calibrated, is one update per 99 reads.
/// Presets are taken in turn, so the fifth gets one read fewer.
pub const CHURN_READS: usize = 99;
/// Ceiling on `install_churn` rounds per second, which sizes the pool
/// of fresh policies: a round is 99 HTTP reads and one install, which
/// cannot take under 5 ms on loopback. A run that exhausts the pool
/// before its window ends reports `correct: false` rather than a
/// shorter window.
pub const MAX_INSTALLS_PER_S: usize = 200;

/// A policy is named by its catalog index: `0..CORPUS` is the
/// installed corpus, `CORPUS + j` the j-th fresh policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    Policy(usize),
    /// A URI under the policy's `/site/<name>/` prefix; the number
    /// picks the page.
    Uri(usize, u32),
}

impl Target {
    pub fn policy(self) -> usize {
        match self {
            Target::Policy(p) | Target::Uri(p, _) => p,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Sql,
    SqlGeneric,
}

impl Engine {
    pub fn label(self) -> &'static str {
        match self {
            Engine::Sql => "sql",
            Engine::SqlGeneric => "sql_generic",
        }
    }

    pub fn kind(self) -> p3p_server::EngineKind {
        match self {
            Engine::Sql => p3p_server::EngineKind::Sql,
            Engine::SqlGeneric => p3p_server::EngineKind::SqlGeneric,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Match { ruleset: usize, target: Target },
    Install { fresh: usize },
    Sweep { ruleset: usize, engine: Engine },
}

/// Walks a seeded permutation of `0..n`, reshuffling at each pass:
/// draws cover the population evenly instead of independently, so the
/// share of slow policies or rulesets a run meets varies less.
struct Deck {
    cards: Vec<usize>,
    next: usize,
}

impl Deck {
    fn new(n: usize) -> Deck {
        Deck {
            cards: (0..n).collect(),
            next: n,
        }
    }

    fn draw(&mut self, rng: &mut SmallRng) -> usize {
        if self.next == self.cards.len() {
            rng.shuffle(&mut self.cards);
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// One client's stream of rounds.
pub struct Mix {
    workload: Workload,
    rng: SmallRng,
    /// Corpus policies, one deck per preset (`point_presets`) or one in
    /// all (`point_custom`).
    policies: Vec<Deck>,
    custom: Deck,
    installs: usize,
    /// Zipf rank (past the installed names) → corpus index.
    ranks: Vec<usize>,
    /// Cumulative Zipf weights by rank, grown on demand.
    zipf: Vec<f64>,
}

impl Mix {
    /// Stream `client` of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64, client: u64) -> Mix {
        let mut rng =
            SmallRng::seed_from_u64(seed ^ (client + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut ranks: Vec<usize> = (0..CORPUS).collect();
        rng.shuffle(&mut ranks);
        Mix {
            workload,
            rng,
            policies: (0..PRESETS).map(|_| Deck::new(CORPUS)).collect(),
            custom: Deck::new(CUSTOM_POOL),
            installs: 0,
            ranks,
            zipf: Vec::new(),
        }
    }

    /// Fresh policies installed by the rounds drawn so far.
    pub fn installs(&self) -> usize {
        self.installs
    }

    /// The next whole round.
    pub fn round(&mut self) -> Vec<Op> {
        let mut ops = Vec::new();
        match self.workload {
            Workload::PointPresets => {
                // Each preset three times by name and once by URI:
                // uniform presets, three quarters `policy=`.
                for ruleset in 0..PRESETS {
                    for k in 0..4 {
                        let policy = self.policies[ruleset].draw(&mut self.rng);
                        let target = if k < 3 {
                            Target::Policy(policy)
                        } else {
                            Target::Uri(policy, self.rng.gen_index(1000) as u32)
                        };
                        ops.push(Op::Match { ruleset, target });
                    }
                }
            }
            Workload::PointCustom => {
                for _ in 0..4 * PRESETS {
                    ops.push(Op::Match {
                        ruleset: PRESETS + self.custom.draw(&mut self.rng),
                        target: Target::Policy(self.policies[0].draw(&mut self.rng)),
                    });
                }
            }
            Workload::InstallChurn => {
                self.installs += 1;
                let mut reads = Vec::with_capacity(CHURN_READS);
                for r in 0..CHURN_READS {
                    let policy = self.zipf_policy();
                    reads.push(Op::Match {
                        ruleset: r % PRESETS,
                        target: Target::Policy(policy),
                    });
                }
                self.rng.shuffle(&mut reads);
                ops.push(Op::Install {
                    fresh: self.installs - 1,
                });
                ops.extend(reads);
                return ops;
            }
            Workload::CorpusSweep => {
                for ruleset in 0..PRESETS {
                    for engine in [Engine::Sql, Engine::SqlGeneric] {
                        ops.push(Op::Sweep { ruleset, engine });
                    }
                }
            }
        }
        self.rng.shuffle(&mut ops);
        ops
    }

    /// A live policy drawn Zipf by rank: the newest install has rank
    /// 0, older installs follow, then the corpus in a seeded order.
    /// Newest-first is this benchmark's choice, not a measured trait of
    /// P3P traffic: a just-installed policy (checked against the native
    /// engine and its epoch) gets about five of its round's 99 reads.
    fn zipf_policy(&mut self) -> usize {
        let live = CORPUS + self.installs;
        while self.zipf.len() < live {
            let rank = self.zipf.len() + 1;
            let prev = self.zipf.last().copied().unwrap_or(0.0);
            self.zipf.push(prev + 1.0 / (rank as f64).powf(ZIPF_S));
        }
        let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * self.zipf[live - 1];
        let rank = self.zipf[..live].partition_point(|&c| c <= u).min(live - 1);
        if rank < self.installs {
            CORPUS + self.installs - 1 - rank
        } else {
            self.ranks[rank - self.installs]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_names_one_sequence() {
        for workload in Workload::ALL {
            let a: Vec<Op> = (0..3)
                .flat_map(|_| Mix::new(workload, 7, 0).round())
                .collect();
            let b: Vec<Op> = (0..3)
                .flat_map(|_| Mix::new(workload, 7, 0).round())
                .collect();
            assert_eq!(a, b, "{}", workload.name());
            assert_ne!(
                Mix::new(workload, 7, 0).round(),
                Mix::new(workload, 8, 0).round()
            );
        }
    }

    #[test]
    fn point_presets_rounds_keep_the_shares() {
        let round = Mix::new(Workload::PointPresets, 3, 0).round();
        assert_eq!(round.len(), 20);
        let uris = round
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    Op::Match {
                        target: Target::Uri(..),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(uris, 5);
    }

    #[test]
    fn churn_reads_favour_the_newest_install() {
        let mut mix = Mix::new(Workload::InstallChurn, 5, 0);
        let mut newest = 0;
        for _ in 0..200 {
            let round = mix.round();
            assert_eq!(
                round[0],
                Op::Install {
                    fresh: mix.installs() - 1
                }
            );
            newest += round
                .iter()
                .filter(|op| {
                    matches!(op, Op::Match { target: Target::Policy(p), .. } if *p == CORPUS + mix.installs() - 1)
                })
                .count();
        }
        // Rank 0 of a Zipf(0.8) over ~2200 names draws about 5%.
        assert!(newest > 200 * CHURN_READS / 40, "{newest}");
    }
}
