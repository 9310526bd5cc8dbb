//! The traced run: the per-layer split of the same operations.
//!
//! A short untraced HTTP phase gives the end-to-end median of each
//! operation kind. Then the workload's seeded sequence is replayed
//! in-process on one thread through each layer's public function, one
//! span per call (name, start, end, parent, operation id), kept in
//! memory and written to `.bench_out/` at the end. A layer's self time
//! is its span's duration minus its children's. The named workload is
//! replayed for half of `--seconds`; the other three for a quarter each,
//! so every per-layer metric is measured on every traced run.
//! `serve.unaccounted_us` is the end-to-end median minus the summed
//! layers of the operations around the median: socket, hand-off,
//! admission and queue.

use crate::inputs::{self, level_label, RulesetDoc, CORPUS, PRESETS};
use crate::load::{self, Catalog, Sample};
use crate::mix::{Mix, Op, Target, Workload};
use crate::report::{self, median, percentile, sorted, Metric};
use crate::{setup, Args};
use p3p_appel::{AppelEngine, Ruleset, Verdict};
use p3p_policy::model::Policy;
use p3p_serve::http::{read_request, write_response, DEFAULT_MAX_BODY};
use p3p_server::appel2sql::translate_rule_optimized_bound;
use p3p_server::concurrent::{MatchPool, SharedServer};
use p3p_server::{EngineKind, PolicyServer};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::{BufWriter, Write as _};
use std::time::{Duration, Instant};

/// Share of `--seconds` each workload other than the named one is
/// replayed for.
const PROBE_SHARE: f64 = 0.25;

struct Span {
    id: usize,
    parent: Option<usize>,
    op: u64,
    workload: &'static str,
    name: &'static str,
    start: Duration,
    end: Duration,
}

/// Span store. Spans are recorded when they end, before their parent,
/// which adopts them when it ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    workload: &'static str,
    op: u64,
}

impl Tracer {
    fn span(&mut self, name: &'static str, start: Instant, end: Instant) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: None,
            op: self.op,
            workload: self.workload,
            name,
            start: start - self.origin,
            end: end - self.origin,
        });
        id
    }

    fn adopt(&mut self, children: &[usize], parent: usize) {
        for &c in children {
            self.spans[c].parent = Some(parent);
        }
    }

    fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(".bench_out")?;
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"workload\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op,
                s.workload,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

/// Per-workload series: `<kind>/<layer>` self times (µs),
/// `level/<level>` core match times (µs), `side/<layer>` per-operation
/// totals of calls outside the request path (µs), `sweep1/<engine>` and
/// `sweepN/<engine>` (ms), `count/<name>` exact counts, `bytes/<kind>`.
type Series = BTreeMap<String, Vec<f64>>;

struct Replay<'a> {
    shared: SharedServer,
    pool: MatchPool,
    /// Empty server: `Database::prepare` of translated SQL with a cold
    /// plan cache.
    empty: PolicyServer,
    catalog: &'a Catalog<'a>,
    rulesets: &'a [RulesetDoc],
    tracer: Tracer,
    native: AppelEngine,
    expected: HashMap<(usize, usize), Verdict>,
    /// Catalog index by policy name.
    index: HashMap<String, usize>,
    shards: usize,
    epoch: u64,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn request_bytes(path: &str, body: &[u8]) -> Vec<u8> {
    let mut bytes = format!(
        "POST {path} HTTP/1.1\r\nHost: p3p\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

fn epoch_header(epoch: u64) -> BTreeMap<&'static str, String> {
    BTreeMap::from([("X-P3P-Epoch", epoch.to_string())])
}

impl Replay<'_> {
    fn expect(&mut self, policy: usize, ruleset: usize) -> &Verdict {
        let (catalog, rulesets, native) = (self.catalog, self.rulesets, &self.native);
        self.expected.entry((policy, ruleset)).or_insert_with(|| {
            native
                .evaluate_policy_xml(&rulesets[ruleset].ruleset, &catalog.doc(policy).xml)
                .unwrap_or_else(|_| Verdict {
                    behavior: p3p_appel::Behavior::Custom("native engine failed".into()),
                    fired_rule: None,
                })
        })
    }

    fn fail(&mut self, op: &Op, why: String) {
        self.failed += 1;
        if self.notes.len() < 5 {
            self.notes.push(format!("{op:?}: {why}"));
        }
    }

    /// Parse the request and its ruleset as the daemon does, pushing
    /// both layers' spans onto `kids`.
    fn parse(&mut self, bytes: &[u8], kids: &mut Vec<usize>) -> Result<Ruleset, String> {
        let t = Instant::now();
        let request = read_request(&mut &bytes[..], DEFAULT_MAX_BODY).map_err(|e| e.to_string())?;
        kids.push(self.tracer.span("serve.request_parse", t, Instant::now()));
        let t = Instant::now();
        let xml = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
        let ruleset = Ruleset::parse(xml).map_err(|e| e.to_string())?;
        kids.push(self.tracer.span("appel.ruleset_parse", t, Instant::now()));
        Ok(ruleset)
    }

    fn respond(&mut self, epoch: u64, body: &str, kids: &mut Vec<usize>) -> usize {
        let mut out = Vec::with_capacity(body.len() + 160);
        let t = Instant::now();
        let _ = write_response(
            &mut out,
            200,
            "application/json",
            &epoch_header(epoch),
            body.as_bytes(),
            true,
        );
        kids.push(self.tracer.span("serve.response_write", t, Instant::now()));
        out.len()
    }

    fn op(&mut self, op: Op, series: &mut Series) {
        self.attempted += 1;
        self.tracer.op += 1;
        let (path, body) = self.catalog.request(&op, self.rulesets);
        let bytes = request_bytes(&path, body);
        let result = match op {
            Op::Match { ruleset, target } => self.match_op(&bytes, ruleset, target, series),
            Op::Install { .. } => self.install_op(&bytes, series),
            Op::Sweep { ruleset, engine } => self.sweep_op(&bytes, ruleset, engine, series),
        };
        if let Err(why) = result {
            self.fail(&op, why);
        }
    }

    fn match_op(
        &mut self,
        bytes: &[u8],
        ruleset_ix: usize,
        target: Target,
        series: &mut Series,
    ) -> Result<(), String> {
        let start = Instant::now();
        let mut kids = Vec::new();
        let ruleset = self.parse(bytes, &mut kids)?;
        let name = self.catalog.doc(target.policy()).name.clone();
        let snapshot = self.pool.pin();
        let t = Instant::now();
        let (resolved, layer) = match target {
            Target::Policy(_) => (
                snapshot.resolve(p3p_server::Target::Policy(&name)),
                "core.resolve_policy",
            ),
            Target::Uri(p, page) => {
                let uri = self.catalog.uri(p, page);
                (
                    snapshot.resolve(p3p_server::Target::Uri(&uri)),
                    "core.resolve_uri",
                )
            }
        };
        kids.push(self.tracer.span(layer, t, Instant::now()));
        drop(snapshot);
        let resolved = resolved.map_err(|e| e.to_string())?;
        let t = Instant::now();
        let outcome = self
            .pool
            .match_preference(&ruleset, p3p_server::Target::Policy(&name), EngineKind::Sql)
            .map_err(|e| e.to_string())?;
        let done = Instant::now();
        let convert_end = t + outcome.convert;
        let phases = [
            self.tracer.span("core.convert", t, convert_end),
            self.tracer
                .span("core.query", convert_end, convert_end + outcome.query),
        ];
        let matched = self.tracer.span("core.match", t, done);
        self.tracer.adopt(&phases, matched);
        kids.push(matched);
        let body =
            format!(
            "{{\"behavior\": \"{}\", \"fired_rule\": {}, \"epoch\": {}, \"verdict_cached\": {}, \
             \"translation_cached\": {}, \"convert_us\": {}, \"query_us\": {}}}\n",
            outcome.verdict.behavior.as_str(),
            outcome.verdict.fired_rule.map_or("null".to_string(), |i| i.to_string()),
            outcome.epoch,
            outcome.verdict_cached,
            outcome.cached,
            outcome.convert.as_micros(),
            outcome.query.as_micros(),
        );
        let size = self.respond(outcome.epoch, &body, &mut kids);
        let root = self.tracer.span("op.match", start, Instant::now());
        self.tracer.adopt(&kids, root);

        series
            .entry("bytes/match".into())
            .or_default()
            .push(size as f64);
        if ruleset_ix < PRESETS {
            series
                .entry(format!("level/{}", level_label(ruleset_ix)))
                .or_default()
                .push(us(done - t));
        }
        let stats = outcome.db_stats;
        for (name, value) in [
            ("rows_scanned", stats.rows_scanned),
            ("index_probes", stats.index_probes),
            ("exists_builds", stats.exists_builds),
            ("exists_probes", stats.exists_probes),
            ("seq_scans", stats.seq_scans),
        ] {
            series
                .entry(format!("count/{name}_per_match"))
                .or_default()
                .push(value as f64);
        }
        if ruleset_ix >= PRESETS {
            // Translation and prepare of the same ruleset, timed on
            // their own: the split of `core.convert` on a cache miss.
            let (mut translate, mut prepare) = (0.0, 0.0);
            for rule in &ruleset.rules {
                let t = Instant::now();
                let sql = translate_rule_optimized_bound(rule).map_err(|e| e.to_string())?;
                let t1 = Instant::now();
                self.tracer.span("core.translate", t, t1);
                self.empty
                    .database()
                    .prepare_uncached(&sql)
                    .map_err(|e| e.to_string())?;
                let t2 = Instant::now();
                self.tracer.span("minidb.prepare", t1, t2);
                translate += us(t1 - t);
                prepare += us(t2 - t1);
            }
            series
                .entry("side/core.translate".into())
                .or_default()
                .push(translate);
            series
                .entry("side/minidb.prepare".into())
                .or_default()
                .push(prepare);
        }

        let expected_id = self.pool.pin().policy_id(&name);
        if Some(resolved) != expected_id {
            return Err(format!(
                "resolved to policy id {resolved}, want {expected_id:?}"
            ));
        }
        if outcome.epoch < self.epoch {
            return Err(format!("epoch {} below {}", outcome.epoch, self.epoch));
        }
        if &outcome.verdict != self.expect(target.policy(), ruleset_ix) {
            return Err(format!("verdict {:?} differs from native", outcome.verdict));
        }
        Ok(())
    }

    fn install_op(&mut self, bytes: &[u8], series: &mut Series) -> Result<(), String> {
        let start = Instant::now();
        let mut kids = Vec::new();
        let t = Instant::now();
        let request = read_request(&mut &bytes[..], DEFAULT_MAX_BODY).map_err(|e| e.to_string())?;
        kids.push(self.tracer.span("serve.request_parse", t, Instant::now()));
        let xml = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
        // The daemon installs while the pool holds the last snapshot,
        // so the install copies every table it touches.
        let t = Instant::now();
        let installed = self.shared.with(|server| {
            server
                .install_policy_xml(xml)
                .map(|id| (id, server.catalog_epoch()))
        });
        kids.push(self.tracer.span("core.install", t, Instant::now()));
        let (id, epoch) = installed.map_err(|e| e.to_string())?;
        let t = Instant::now();
        self.pool.refresh(&self.shared);
        kids.push(self.tracer.span("core.refresh", t, Instant::now()));
        let body = format!("{{\"policy_id\": {id}, \"epoch\": {epoch}}}\n");
        let size = self.respond(epoch, &body, &mut kids);
        let root = self.tracer.span("op.install", start, Instant::now());
        self.tracer.adopt(&kids, root);
        series
            .entry("bytes/install".into())
            .or_default()
            .push(size as f64);

        // The install path's parts, each timed on its own: the fastest
        // of three calls, because the first allocations after an install
        // and refresh also pay for the memory those returned.
        let mut timed = |name: &'static str, f: &dyn Fn() -> Result<(), String>| {
            let mut best = (Duration::MAX, start, start);
            for _ in 0..3 {
                let t = Instant::now();
                f()?;
                let t1 = Instant::now();
                if t1 - t < best.0 {
                    best = (t1 - t, t, t1);
                }
            }
            self.tracer.span(name, best.1, best.2);
            Ok::<Duration, String>(best.0)
        };
        let policy_parse = timed("p3p.policy_parse", &|| {
            Policy::parse(xml).map(drop).map_err(|e| e.to_string())
        })?;
        let xml_parse = timed("xmldom.parse", &|| {
            p3p_xmldom::parse_element(xml)
                .map(drop)
                .map_err(|e| e.to_string())
        })?;
        let mut fresh = PolicyServer::new();
        let t3 = Instant::now();
        fresh.install_policy_xml(xml).map_err(|e| e.to_string())?;
        let t4 = Instant::now();
        self.tracer.span("core.install_fresh", t3, t4);
        for (name, d) in [
            ("p3p.policy_parse", policy_parse),
            ("xmldom.parse", xml_parse),
            ("core.install_fresh", t4 - t3),
        ] {
            series
                .entry(format!("side/{name}"))
                .or_default()
                .push(us(d));
        }

        if epoch != self.epoch + 1 {
            return Err(format!("install epoch {epoch} after {}", self.epoch));
        }
        self.epoch = epoch;
        Ok(())
    }

    fn sweep_op(
        &mut self,
        bytes: &[u8],
        ruleset_ix: usize,
        engine: crate::mix::Engine,
        series: &mut Series,
    ) -> Result<(), String> {
        let start = Instant::now();
        let mut kids = Vec::new();
        let ruleset = self.parse(bytes, &mut kids)?;
        let t = Instant::now();
        let swept = self
            .pool
            .match_corpus_pinned(&ruleset, engine.kind(), self.shards);
        let t1 = Instant::now();
        kids.push(self.tracer.span("core.sweep_sharded", t, t1));
        let (epoch, verdicts) = swept.map_err(|e| e.to_string())?;
        let mut body = format!(
            "{{\"epoch\": {epoch}, \"policies\": {}, \"verdicts\": [",
            verdicts.len()
        );
        for (i, (name, v)) in verdicts.iter().enumerate() {
            let _ = write!(
                body,
                "{}{{\"name\": \"{name}\", \"behavior\": \"{}\", \"fired_rule\": {}}}",
                if i > 0 { ", " } else { "" },
                v.behavior.as_str(),
                v.fired_rule.map_or("null".to_string(), |i| i.to_string()),
            );
        }
        body.push_str("]}\n");
        let size = self.respond(epoch, &body, &mut kids);
        let root = self.tracer.span("op.sweep", start, Instant::now());
        self.tracer.adopt(&kids, root);
        series
            .entry("bytes/sweep".into())
            .or_default()
            .push(size as f64);
        series
            .entry(format!("sweepN/{}", engine.label()))
            .or_default()
            .push((t1 - t).as_secs_f64() * 1e3);

        // The same sweep on one thread, with the executor's counts.
        let snapshot = self.pool.pin();
        let t = Instant::now();
        let single = snapshot
            .match_corpus(&ruleset, engine.kind())
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let stats = p3p_minidb::exec::stats_snapshot();
        self.tracer.span("core.sweep", t, t1);
        series
            .entry(format!("sweep1/{}", engine.label()))
            .or_default()
            .push((t1 - t).as_secs_f64() * 1e3);
        for (name, value) in [
            ("rows_scanned", stats.rows_scanned),
            ("exists_builds", stats.exists_builds),
            ("join_hash_builds", stats.join_hash_builds),
        ] {
            series
                .entry(format!("count/{name}_per_sweep"))
                .or_default()
                .push(value as f64);
        }

        if single != verdicts {
            return Err("one-thread sweep differs from the sharded one".into());
        }
        for (name, verdict) in &verdicts {
            let Some(&policy) = self.index.get(name.as_str()) else {
                return Err(format!("unknown policy `{name}`"));
            };
            if verdict != self.expect(policy, ruleset_ix) {
                return Err(format!("`{name}`: {verdict:?} differs from native"));
            }
        }
        Ok(())
    }

    /// Replay whole rounds of `workload`'s stream 0 until `deadline`.
    fn replay(&mut self, workload: Workload, seed: u64, deadline: Instant) -> Replayed {
        self.tracer.workload = workload.name();
        // Each workload runs with its own verdict-cache setting.
        self.shared
            .with(|s| s.set_verdict_cache_capacity(workload.verdict_cache()));
        self.pool.refresh(&self.shared);
        let snapshot = self.pool.pin();
        let (t0, v0) = (
            snapshot.translation_cache_stats(),
            snapshot.verdict_cache_stats(),
        );
        drop(snapshot);
        let mut series = Series::new();
        let mut mix = Mix::new(workload, seed, 0);
        while Instant::now() < deadline && mix.installs() < self.catalog.fresh.len() {
            for op in mix.round() {
                self.op(op, &mut series);
            }
        }
        let snapshot = self.pool.pin();
        let (t1, v1) = (
            snapshot.translation_cache_stats(),
            snapshot.verdict_cache_stats(),
        );
        let ratio = |hits: u64, misses: u64| {
            (hits + misses > 0).then(|| hits as f64 / (hits + misses) as f64)
        };
        let translation = ratio(t1.hits - t0.hits, t1.misses - t0.misses);
        let verdict = (workload == Workload::InstallChurn)
            .then(|| ratio(v1.hits - v0.hits, v1.misses - v0.misses))
            .flatten();
        // Self times of each operation's layers.
        let mut children: HashMap<usize, Vec<usize>> = HashMap::new();
        for s in &self.tracer.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push(s.id);
            }
        }
        let dur = |s: &Span| us(s.end - s.start);
        let kids = |id: usize| children.get(&id).map_or(&[][..], Vec::as_slice);
        let mut ops = Vec::new();
        let roots = self.tracer.spans.iter().filter(|s| {
            s.workload == workload.name() && s.parent.is_none() && s.name.starts_with("op.")
        });
        for root in roots {
            let kind = &root.name[3..];
            let mut layers = Vec::new();
            for &c in kids(root.id) {
                let child = &self.tracer.spans[c];
                let covered: f64 = kids(c).iter().map(|&g| dur(&self.tracer.spans[g])).sum();
                layers.push((child.name, dur(child) - covered));
                // Derived phases are layers of their own.
                layers.extend(
                    kids(c)
                        .iter()
                        .map(|&g| (self.tracer.spans[g].name, dur(&self.tracer.spans[g]))),
                );
            }
            for &(name, value) in &layers {
                series
                    .entry(format!("{kind}/{name}"))
                    .or_default()
                    .push(value);
            }
            ops.push(OpLayers { kind, layers });
        }
        Replayed {
            series,
            ops,
            translation,
            verdict,
        }
    }
}

/// One replayed operation's layer self times (µs).
struct OpLayers {
    kind: &'static str,
    layers: Vec<(&'static str, f64)>,
}

struct Replayed {
    series: Series,
    ops: Vec<OpLayers>,
    translation: Option<f64>,
    verdict: Option<f64>,
}

/// The layer split of the operations around the median: the mean self
/// time of each layer over the operations whose summed layers rank
/// within [`BAND`] of the median. Layer means over one set of
/// operations add up to their mean total, which sits at the median of
/// the totals; per-layer medians over all operations would not add up
/// in a bimodal mix.
fn median_band(ops: &[&OpLayers]) -> Vec<(&'static str, f64)> {
    let mut by_total: Vec<(f64, &OpLayers)> = ops
        .iter()
        .map(|op| (op.layers.iter().map(|l| l.1).sum(), *op))
        .collect();
    by_total.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = by_total.len();
    let lo = ((0.5 - BAND) * n as f64).floor() as usize;
    let hi = (((0.5 + BAND) * n as f64).ceil() as usize).clamp(lo + 1, n);
    let band = &by_total[lo..hi];
    let mut sums: Vec<(&'static str, f64)> = Vec::new();
    for (_, op) in band {
        for &(name, value) in &op.layers {
            match sums.iter_mut().find(|(n, _)| *n == name) {
                Some(entry) => entry.1 += value,
                None => sums.push((name, value)),
            }
        }
    }
    for entry in &mut sums {
        entry.1 /= band.len() as f64;
    }
    sums
}

/// Half-width of the rank band around the median.
const BAND: f64 = 0.05;

pub fn run(args: &Args) -> Result<String, String> {
    let workload = args.workload;
    report::phase("start");
    let rulesets = inputs::rulesets();
    let served = setup::build(args.seed, workload, &rulesets, true)?;
    let fresh = inputs::fresh_policies(
        args.seed,
        crate::mix::MAX_INSTALLS_PER_S * args.seconds as usize,
    );
    let catalog = Catalog {
        corpus: &served.corpus.policies,
        fresh: &fresh,
    };
    let replay_server = served.snapshot.expect("set-up keeps a snapshot");

    // End-to-end medians over HTTP, untraced.
    let addr = served.daemon.local_addr();
    let (_, start_epoch) = load::health(addr)?;
    let half = Duration::from_secs_f64(args.seconds as f64 / 2.0);
    let clients = workload.clients(p3p_serve::ServeConfig::default().workers);
    let http = load::run_window(
        addr, workload, clients, args.seed, &catalog, &rulesets, half,
    );
    setup::stop(served.daemon);
    let all: Vec<&[Sample]> = http.streams.iter().map(Vec::as_slice).collect();
    let (checked, self_test) =
        crate::verify(&all, &catalog, &rulesets, Some(&replay_server), start_epoch)?;
    let mut e2e: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in all.iter().flat_map(|s| s.iter()) {
        let kind = match s.op {
            Op::Match { .. } => "match",
            Op::Install { .. } => "install",
            Op::Sweep { .. } => "sweep",
        };
        e2e.entry(kind).or_default().push(s.nanos as f64 / 1e3);
    }

    // In-process replay.
    let shared = SharedServer::new(replay_server);
    let pool = MatchPool::new(&shared);
    let mut replay = Replay {
        epoch: shared.catalog_epoch(),
        shared,
        pool,
        empty: PolicyServer::new(),
        catalog: &catalog,
        rulesets: &rulesets,
        tracer: Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            workload: workload.name(),
            op: 0,
        },
        native: crate::oracle::native_engine(),
        expected: HashMap::new(),
        index: (0..CORPUS + fresh.len())
            .map(|p| (catalog.doc(p).name.clone(), p))
            .collect(),
        shards: std::thread::available_parallelism().map_or(1, |n| n.get()),
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
    };
    report::phase("HTTP phase verified");
    let deadline = Instant::now() + half;
    let mut results = vec![(workload, replay.replay(workload, args.seed, deadline))];
    report::phase("replayed");
    // Churn last: it turns the verdict cache on and grows the catalog.
    for other in [
        Workload::PointPresets,
        Workload::PointCustom,
        Workload::CorpusSweep,
        Workload::InstallChurn,
    ] {
        if other != workload {
            let probe = Instant::now() + Duration::from_secs_f64(args.seconds as f64 * PROBE_SHARE);
            results.push((other, replay.replay(other, args.seed, probe)));
            report::phase(other.name());
        }
    }
    let path = format!(
        ".bench_out/spans-{}-seed{}.jsonl",
        workload.name(),
        args.seed
    );
    replay
        .tracer
        .write(&path)
        .map_err(|e| format!("write {path}: {e}"))?;

    // A series from the named workload if it has one, else from the
    // first replayed workload that does.
    let find = |key: &str| {
        results
            .iter()
            .find_map(|(_, r)| r.series.get(key).filter(|v| !v.is_empty()).cloned())
            .unwrap_or_default()
    };
    let mut metrics = Vec::new();
    let primary = if workload == Workload::CorpusSweep {
        "sweep"
    } else {
        "match"
    };
    println!(
        "# workload {} seed {} revision {}",
        workload.name(),
        args.seed,
        report::git_revision()
    );
    println!("# spans {} written to {path}", replay.tracer.spans.len());
    let mut gap_us = f64::NAN;
    for (kind, samples) in &e2e {
        let e2e_median = median(samples.clone());
        let ops: Vec<&OpLayers> = results[0]
            .1
            .ops
            .iter()
            .filter(|o| o.kind == *kind)
            .collect();
        if ops.is_empty() {
            continue;
        }
        println!(
            "# {kind}: layer self times (µs), mean over the replayed operations ranked within {}% of the median, against the end-to-end median of {} requests",
            BAND * 100.0,
            samples.len()
        );
        let band = median_band(&ops);
        for (layer, value) in &band {
            println!("#   {layer:<24} {value:>12.1}");
        }
        let sum: f64 = band.iter().map(|l| l.1).sum();
        let gap = e2e_median - sum;
        println!("#   {:<24} {sum:>12.1}", "sum of layers");
        println!("#   {:<24} {e2e_median:>12.1}", "end-to-end median");
        println!("#   {:<24} {gap:>12.1}", "unaccounted (gap)");
        if *kind == primary {
            gap_us = gap;
        }
    }
    let med = |key: &str| median(find(key));
    let mean = |key: &str| {
        let v = find(key);
        v.iter().sum::<f64>() / v.len() as f64
    };
    metrics.push(Metric::new(
        "serve.request_parse_us",
        med(&format!("{primary}/serve.request_parse")),
        "us",
    ));
    metrics.push(Metric::new(
        "serve.response_write_us",
        med(&format!("{primary}/serve.response_write")),
        "us",
    ));
    metrics.push(Metric::new(
        "serve.response_bytes",
        med(&format!("bytes/{primary}")),
        "bytes",
    ));
    metrics.push(Metric::new("serve.unaccounted_us", gap_us, "us"));
    metrics.push(Metric::new(
        "appel.ruleset_parse_us",
        med(&format!("{primary}/appel.ruleset_parse")),
        "us",
    ));
    for (name, key) in [
        ("core.resolve_policy_us", "match/core.resolve_policy"),
        ("core.resolve_uri_us", "match/core.resolve_uri"),
        ("core.convert_us", "match/core.convert"),
        ("core.query_us", "match/core.query"),
        ("core.match_other_us", "match/core.match"),
        ("core.translate_us", "side/core.translate"),
        ("minidb.prepare_us", "side/minidb.prepare"),
        ("core.install_us", "install/core.install"),
        ("core.install_fresh_us", "side/core.install_fresh"),
        ("core.refresh_us", "install/core.refresh"),
        ("p3p.policy_parse_us", "side/p3p.policy_parse"),
        ("xmldom.parse_us", "side/xmldom.parse"),
    ] {
        metrics.push(Metric::new(name, med(key), "us"));
    }
    for level in (0..PRESETS).map(level_label) {
        let values = sorted(find(&format!("level/{level}")));
        let tail = report::tail_percentile(values.len());
        metrics.push(Metric::new(
            format!("core.match_p50_us.{level}"),
            percentile(&values, 50.0),
            "us",
        ));
        metrics.push(Metric::new(
            format!("core.match_tail_us.{level}"),
            percentile(&values, tail),
            "us",
        ));
    }
    let ratio = |pick: fn(&Replayed) -> Option<f64>| {
        results
            .iter()
            .find_map(|(_, r)| pick(r))
            .unwrap_or(f64::NAN)
    };
    metrics.push(Metric::new(
        "core.translation_hit_ratio",
        ratio(|r| r.translation),
        "ratio",
    ));
    metrics.push(Metric::new(
        "core.verdict_hit_ratio",
        ratio(|r| r.verdict),
        "ratio",
    ));
    for engine in ["sql", "sql_generic"] {
        metrics.push(Metric::new(
            format!("core.sweep_ms.{engine}"),
            med(&format!("sweep1/{engine}")),
            "ms",
        ));
        metrics.push(Metric::new(
            format!("core.sweep_sharded_ms.{engine}"),
            med(&format!("sweepN/{engine}")),
            "ms",
        ));
    }
    for name in [
        "rows_scanned",
        "index_probes",
        "exists_builds",
        "exists_probes",
        "seq_scans",
    ] {
        metrics.push(Metric::new(
            format!("minidb.{name}_per_match"),
            mean(&format!("count/{name}_per_match")),
            "count",
        ));
    }
    for name in ["rows_scanned", "exists_builds", "join_hash_builds"] {
        metrics.push(Metric::new(
            format!("minidb.{name}_per_sweep"),
            mean(&format!("count/{name}_per_sweep")),
            "count",
        ));
    }

    let attempted = checked.attempted + replay.attempted;
    let failed = checked.failed + replay.failed;
    println!(
        "# ops attempted {attempted} failed {failed} (HTTP phase {}, replay {})",
        checked.attempted, replay.attempted
    );
    for note in checked.notes.iter().chain(&replay.notes) {
        println!("# FAILED {note}");
    }
    let correct = self_test && !http.exhausted && metrics.iter().all(|m| m.value.is_finite());
    Ok(report::result_line(correct, attempted, failed, &metrics))
}
