//! End-to-end benchmark of the served P3P paths.
//!
//! ```text
//! e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Starts `p3p_serve::Daemon` in-process over a seeded 2000-policy
//! corpus, drives one of four HTTP workloads against it for `--seconds`,
//! checks every answer against the native APPEL engine, and prints the
//! end-to-end metrics as the last line of standard output. With
//! `--trace 1` it instead replays the workload in-process on one thread
//! through each layer's public functions, writes the spans to
//! `.bench_out/`, and prints the per-layer metrics. See README.md.

mod inputs;
mod load;
mod mix;
mod oracle;
mod report;
mod setup;
mod trace;

use inputs::{RulesetDoc, CORPUS, PRESETS};
use load::{Catalog, Sample};
use mix::{Op, Target, Workload};
use oracle::{Checked, Expect, Oracle};
use p3p_serve::ServeConfig;
use report::{median, percentile, sorted, Metric};
use std::collections::HashMap;
use std::time::Duration;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Share of CPU time stolen by the host above which a run's report
/// marks it unsteady.
const STEAL_LIMIT: f64 = 0.10;
/// `/install` requests sent after the timed window by the workloads
/// that do not install inside it, so every workload reports the
/// XML-in path.
const CLOSING_INSTALLS: usize = 20;

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = if args.trace {
        trace::run(&args)
    } else {
        run(&args)
    };
    match outcome {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

/// Class of a read in its workload's round: preset (or custom) and
/// target kind or engine.
fn class_of(op: &Op) -> String {
    match *op {
        Op::Match { ruleset, target } if ruleset < PRESETS => {
            let how = match target {
                Target::Policy(_) => "policy",
                Target::Uri(..) => "uri",
            };
            format!("{}/{how}", inputs::level_label(ruleset))
        }
        Op::Match { .. } => "custom".into(),
        Op::Sweep { ruleset, engine } => {
            format!("{}/{}", inputs::level_label(ruleset), engine.label())
        }
        Op::Install { .. } => "install".into(),
    }
}

/// [`class_of`], marked when the verdict came from the verdict cache.
fn report_class(sample: &Sample) -> String {
    let cached = oracle::json_field(&String::from_utf8_lossy(&sample.body), "verdict_cached")
        == Some("true");
    class_of(&sample.op) + if cached { "/cached" } else { "" }
}

/// Everything the checks need, built after the daemon stopped.
pub fn verify(
    streams: &[&[Sample]],
    catalog: &Catalog<'_>,
    rulesets: &[RulesetDoc],
    snapshot: Option<&p3p_server::PolicyServer>,
    start_epoch: u64,
) -> Result<(Checked, bool), String> {
    let oracle = Oracle::build(streams, catalog, rulesets)?;
    let mut index = HashMap::new();
    for p in 0..CORPUS + catalog.fresh.len() {
        index.insert(catalog.doc(p).name.as_str(), p);
    }
    // Each URI must resolve to the policy whose prefix it was built on.
    let mut resolved = HashMap::new();
    for sample in streams.iter().flat_map(|s| s.iter()) {
        if let Op::Match {
            target: target @ Target::Uri(p, page),
            ..
        } = sample.op
        {
            resolved.entry(target).or_insert_with(|| {
                snapshot.is_some_and(|server| {
                    let uri = catalog.uri(p, page);
                    let got = server.resolve(p3p_server::Target::Uri(&uri)).ok();
                    got.is_some() && got == server.policy_id(&catalog.doc(p).name)
                })
            });
        }
    }
    let expect = Expect {
        oracle: &oracle,
        index,
        resolved,
        start_epoch,
        start_policies: CORPUS,
    };
    let checked = oracle::check(streams, &expect, None);
    // Self-test: one wrong expected verdict must show as exactly one
    // more failure.
    let victim = streams.iter().enumerate().find_map(|(s, stream)| {
        stream
            .iter()
            .position(|x| !matches!(x.op, Op::Install { .. }))
            .map(|i| (s, i))
    });
    let self_test = victim
        .is_some_and(|v| oracle::check(streams, &expect, Some(v)).failed == checked.failed + 1);
    Ok((checked, self_test))
}

fn run(args: &Args) -> Result<String, String> {
    let workload = args.workload;
    report::phase("start");
    let rulesets = inputs::rulesets();
    report::phase("rulesets generated");
    let mut setup_s = Vec::new();
    let mut served = None;
    for i in 0..SETUPS {
        let keep = i + 1 == SETUPS;
        let s = setup::build(
            args.seed,
            workload,
            &rulesets,
            keep && workload == Workload::PointPresets,
        )?;
        setup_s.push(s.elapsed.as_secs_f64());
        report::phase("set-up done");
        if keep {
            served = Some(s);
        } else {
            setup::stop(s.daemon);
        }
    }
    let served = served.expect("at least one set-up");
    let fresh_count = match workload {
        Workload::InstallChurn => mix::MAX_INSTALLS_PER_S * args.seconds as usize,
        _ => CLOSING_INSTALLS,
    };
    let fresh = inputs::fresh_policies(args.seed, fresh_count);
    report::phase("fresh policies generated");
    let catalog = Catalog {
        corpus: &served.corpus.policies,
        fresh: &fresh,
    };
    let addr = served.daemon.local_addr();
    let (start_policies, start_epoch) = load::health(addr)?;
    if start_policies != CORPUS {
        return Err(format!(
            "daemon holds {start_policies} policies, want {CORPUS}"
        ));
    }
    let clients = workload.clients(ServeConfig::default().workers);

    let jiffies_before = report::cpu_jiffies();
    let load::Window {
        streams,
        elapsed: window,
        exhausted,
    } = load::run_window(
        addr,
        workload,
        clients,
        args.seed,
        &catalog,
        &rulesets,
        Duration::from_secs(args.seconds),
    );
    let steal = report::steal_share(jiffies_before, report::cpu_jiffies());
    let rss_mb = report::peak_rss_mb();
    report::phase("window done");

    let closing = if workload == Workload::InstallChurn {
        Vec::new()
    } else {
        let ops: Vec<Op> = (0..CLOSING_INSTALLS)
            .map(|fresh| Op::Install { fresh })
            .collect();
        load::run_ops(addr, &ops, &catalog, &rulesets)
    };
    let (end_policies, _) = load::health(addr)?;
    setup::stop(served.daemon);
    report::phase("closing installs done, daemon stopped");

    let mut all: Vec<&[Sample]> = streams.iter().map(Vec::as_slice).collect();
    all.push(&closing);
    let (checked, self_test) = verify(
        &all,
        &catalog,
        &rulesets,
        served.snapshot.as_ref(),
        start_epoch,
    )?;
    report::phase("verified");
    let installs = all
        .iter()
        .flat_map(|s| s.iter())
        .filter(|s| matches!(s.op, Op::Install { .. }) && s.status == 200)
        .count();
    let count_ok = end_policies == CORPUS + installs;

    let ms = |s: &Sample| s.nanos as f64 / 1e6;
    let reads: Vec<&Sample> = streams
        .iter()
        .flatten()
        .filter(|s| !matches!(s.op, Op::Install { .. }))
        .collect();
    let read_ms = sorted(reads.iter().map(|s| ms(s)).collect());
    let verdicts: usize = reads
        .iter()
        .filter(|s| s.status == 200)
        .map(|s| match s.op {
            Op::Sweep { .. } => CORPUS,
            _ => 1,
        })
        .sum();
    let install_ms: Vec<f64> = all
        .iter()
        .flat_map(|s| s.iter())
        .filter(|s| matches!(s.op, Op::Install { .. }))
        .map(ms)
        .collect();
    let tail = workload.tail_percentile();
    let classed: Vec<(f64, String)> = reads.iter().map(|s| (ms(s), report_class(s))).collect();
    let mut by_class: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for s in &reads {
        by_class.entry(class_of(&s.op)).or_default().push(ms(s));
    }
    // Each class's median, weighted by its fixed share of a round. The
    // pooled median of a mix whose classes sit at different levels
    // lands on whichever class boundary the run's draws put at half
    // the samples; the class medians do not move with the draws.
    let p50 = by_class
        .values()
        .map(|v| v.len() as f64 * median(v.clone()))
        .sum::<f64>()
        / reads.len() as f64;
    // Every `corpus_sweep` round is the same ten sweeps, so its rounds
    // are repeated measurements of one rate: their median shrugs off a
    // burst of host contention. The other mixes draw different requests
    // each round, and only the whole window averages the draws.
    let round_rates: Vec<f64> = sorted(
        streams[0]
            .chunks(2 * PRESETS)
            .map(|round| {
                let judged = round.iter().filter(|s| s.status == 200).count() * CORPUS;
                judged as f64 / round.iter().map(|s| s.nanos as f64 / 1e9).sum::<f64>()
            })
            .collect(),
    );
    let rate = if workload == Workload::CorpusSweep {
        percentile(&round_rates, 50.0)
    } else {
        verdicts as f64 / window.as_secs_f64()
    };
    let metrics = vec![
        Metric::new("setup_s", median(setup_s.clone()), "s"),
        Metric::new("rss_mb", rss_mb, "MiB"),
        Metric::new("match_p50_ms", p50, "ms"),
        Metric::new("match_tail_ms", percentile(&read_ms, tail), "ms"),
        Metric::new("verdicts_per_s", rate, "1/s"),
        Metric::new("install_p50_ms", median(install_ms.clone()), "ms"),
    ];

    println!(
        "# workload {} seed {} revision {}",
        workload.name(),
        args.seed,
        report::git_revision()
    );
    println!(
        "# available_parallelism {} clients {clients} workers {} window {:.3} s steal {}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        ServeConfig::default().workers,
        window.as_secs_f64(),
        steal.map_or("unavailable".into(), |s| format!("{:.4}", s)),
    );
    if steal.is_some_and(|s| s > STEAL_LIMIT) {
        println!(
            "# UNSTEADY host: steal above {STEAL_LIMIT}; read this run's times as a slower host, not a slower program"
        );
    }
    println!("# setup_s each {setup_s:?}");
    if workload == Workload::CorpusSweep {
        let q = |p| percentile(&round_rates, p);
        println!(
            "# round rates p10 {:.0} p25 {:.0} p50 {:.0} p75 {:.0} p90 {:.0}",
            q(10.0),
            q(25.0),
            q(50.0),
            q(75.0),
            q(90.0)
        );
    }
    println!("# install_ms each {install_ms:.1?}");
    println!(
        "# ops attempted {} failed {} reads {} installs {} verdicts {verdicts}",
        checked.attempted,
        checked.failed,
        reads.len(),
        install_ms.len()
    );
    for note in &checked.notes {
        println!("# FAILED {note}");
    }
    let mut by_report_class: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for (value, class) in &classed {
        by_report_class.entry(class).or_default().push(*value);
    }
    for (class, values) in by_report_class {
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        println!(
            "# class {class:<24} n {n:>6} mean {mean:>10.3} ms p50 {:>10.3} ms",
            median(values)
        );
    }
    println!("# {}", report::placement(&classed, 50.0));
    println!("# {}", report::placement(&classed, tail));
    println!(
        "# match_p50_ms {p50:.4} is the class medians weighted by share; tail p{tail} leaves {} samples beyond it",
        read_ms.len() - ((tail / 100.0) * read_ms.len() as f64).ceil() as usize
    );
    println!(
        "# checks: self-test {} final policy count {end_policies} (want {})",
        if self_test { "ok" } else { "FAILED" },
        CORPUS + installs
    );
    if exhausted {
        println!(
            "# FAILED the {} fresh policies ran out before the window ended: raise MAX_INSTALLS_PER_S",
            fresh.len()
        );
    }
    let correct =
        self_test && count_ok && !exhausted && metrics.iter().all(|m| m.value.is_finite());
    Ok(report::result_line(
        correct,
        checked.attempted,
        checked.failed,
        &metrics,
    ))
}
