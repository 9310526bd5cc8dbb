//! Closed-loop HTTP load: each client sends its next request only after
//! the previous answer arrived, in whole rounds, until the window ends.

use crate::inputs::{site_prefix, PolicyDoc, RulesetDoc, CORPUS};
use crate::mix::{Mix, Op, Target, Workload};
use p3p_serve::Client;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Every policy a run can name: the corpus, then the fresh ones.
pub struct Catalog<'a> {
    pub corpus: &'a [PolicyDoc],
    pub fresh: &'a [PolicyDoc],
}

impl Catalog<'_> {
    pub fn doc(&self, policy: usize) -> &PolicyDoc {
        if policy < CORPUS {
            &self.corpus[policy]
        } else {
            &self.fresh[policy - CORPUS]
        }
    }

    pub fn uri(&self, policy: usize, page: u32) -> String {
        format!("{}page{page}.html", site_prefix(&self.doc(policy).name))
    }

    /// Path (with query) and body of the HTTP request for `op`.
    pub fn request<'b>(&'b self, op: &Op, rulesets: &'b [RulesetDoc]) -> (String, &'b [u8]) {
        match *op {
            Op::Match { ruleset, target } => {
                let path = match target {
                    Target::Policy(p) => format!("/match?policy={}", self.doc(p).name),
                    Target::Uri(p, page) => format!("/match?uri={}", self.uri(p, page)),
                };
                (path, rulesets[ruleset].xml.as_bytes())
            }
            Op::Install { fresh } => (
                "/install".to_string(),
                self.doc(CORPUS + fresh).xml.as_bytes(),
            ),
            Op::Sweep { ruleset, engine } => (
                format!("/match_corpus?engine={}", engine.label()),
                rulesets[ruleset].xml.as_bytes(),
            ),
        }
    }
}

/// One answered (or failed) request.
pub struct Sample {
    pub op: Op,
    /// 0 when the transport failed.
    pub status: u16,
    pub nanos: u64,
    /// The `X-P3P-Epoch` header.
    pub epoch: Option<u64>,
    pub body: Vec<u8>,
}

fn send(client: &mut Option<Client>, addr: SocketAddr, op: Op, path: &str, body: &[u8]) -> Sample {
    let start = Instant::now();
    let result = match client {
        Some(c) => c.request("POST", path, body),
        None => Client::connect(addr).and_then(|c| client.insert(c).request("POST", path, body)),
    };
    let nanos = start.elapsed().as_nanos() as u64;
    match result {
        Ok(response) => Sample {
            op,
            status: response.status,
            nanos,
            epoch: response.header("x-p3p-epoch").and_then(|e| e.parse().ok()),
            body: response.body,
        },
        Err(_) => {
            // Reconnect on the next request.
            *client = None;
            Sample {
                op,
                status: 0,
                nanos,
                epoch: None,
                body: Vec::new(),
            }
        }
    }
}

/// What [`run_window`] measured.
pub struct Window {
    /// Each client's samples in send order.
    pub streams: Vec<Vec<Sample>>,
    /// Until the last client finished its last round.
    pub elapsed: Duration,
    /// A client ran out of fresh policies before the window ended.
    pub exhausted: bool,
}

/// Run `workload` for `window`: each client its own seeded stream of
/// whole rounds.
pub fn run_window(
    addr: SocketAddr,
    workload: Workload,
    clients: usize,
    seed: u64,
    catalog: &Catalog<'_>,
    rulesets: &[RulesetDoc],
    window: Duration,
) -> Window {
    let start = Instant::now();
    let deadline = start + window;
    let results: Vec<(Vec<Sample>, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut mix = Mix::new(workload, seed, c as u64);
                    let mut client = None;
                    let mut samples = Vec::new();
                    while Instant::now() < deadline {
                        if mix.installs() == catalog.fresh.len() {
                            return (samples, true);
                        }
                        for op in mix.round() {
                            let (path, body) = catalog.request(&op, rulesets);
                            samples.push(send(&mut client, addr, op, &path, body));
                        }
                    }
                    (samples, false)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let exhausted = results.iter().any(|(_, e)| *e);
    Window {
        streams: results.into_iter().map(|(s, _)| s).collect(),
        elapsed,
        exhausted,
    }
}

/// Send `ops` in order on one connection.
pub fn run_ops(
    addr: SocketAddr,
    ops: &[Op],
    catalog: &Catalog<'_>,
    rulesets: &[RulesetDoc],
) -> Vec<Sample> {
    let mut client = None;
    ops.iter()
        .map(|op| {
            let (path, body) = catalog.request(op, rulesets);
            send(&mut client, addr, *op, &path, body)
        })
        .collect()
}

/// `/health`: (policy count, epoch).
pub fn health(addr: SocketAddr) -> Result<(usize, u64), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let response = client
        .request("GET", "/health", b"")
        .map_err(|e| format!("/health: {e}"))?;
    let body = response.body_string();
    let policies = crate::oracle::json_field(&body, "policies").and_then(|v| v.parse().ok());
    let epoch = crate::oracle::json_field(&body, "epoch").and_then(|v| v.parse().ok());
    match (response.status, policies, epoch) {
        (200, Some(p), Some(e)) => Ok((p, e)),
        _ => Err(format!("/health answered {}: {body}", response.status)),
    }
}
