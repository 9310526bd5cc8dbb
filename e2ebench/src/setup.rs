//! Set-up shared by every workload: build a `PolicyServer` through the
//! XML-in path, add the reference file, bind the daemon, warm it.

use crate::inputs::{self, Corpus, RulesetDoc, PRESETS};
use crate::mix::Workload;
use p3p_serve::{Client, Daemon, ServeConfig};
use p3p_server::PolicyServer;
use std::time::{Duration, Instant};

pub struct Served {
    pub corpus: Corpus,
    pub daemon: Daemon,
    /// A snapshot of the server as bound, when the caller asked for
    /// one: the oracle resolves URIs on it, the traced run replays on
    /// it. It shares the daemon's tables until either side mutates.
    pub snapshot: Option<PolicyServer>,
    /// From corpus generation to the daemon answering warm.
    pub elapsed: Duration,
}

/// One full set-up. The corpus is installed in-process with
/// `install_policy_xml` rather than over `/install`, which costs two
/// orders of magnitude more per policy and has no reference-file
/// counterpart.
pub fn build(
    seed: u64,
    workload: Workload,
    rulesets: &[RulesetDoc],
    keep_snapshot: bool,
) -> Result<Served, String> {
    let start = Instant::now();
    let corpus = inputs::corpus(seed);
    let mut server = PolicyServer::new();
    server.set_verdict_cache_capacity(workload.verdict_cache());
    for policy in &corpus.policies {
        server
            .install_policy_xml(&policy.xml)
            .map_err(|e| format!("install {}: {e}", policy.name))?;
    }
    server
        .install_reference_xml(&corpus.reference_xml)
        .map_err(|e| format!("install reference file: {e}"))?;
    let snapshot = keep_snapshot.then(|| server.clone_state());
    let daemon = Daemon::bind("127.0.0.1:0", server, ServeConfig::default())
        .map_err(|e| format!("bind daemon: {e}"))?;
    // Warm: each preset once, so the translation cache holds them.
    let mut client =
        Client::connect(daemon.local_addr()).map_err(|e| format!("connect daemon: {e}"))?;
    let path = format!("/match?policy={}", corpus.policies[0].name);
    for doc in &rulesets[..PRESETS] {
        let response = client
            .request("POST", &path, doc.xml.as_bytes())
            .map_err(|e| format!("warm-up request: {e}"))?;
        if response.status != 200 {
            return Err(format!(
                "warm-up answered {}: {}",
                response.status,
                response.body_string()
            ));
        }
    }
    drop(client);
    Ok(Served {
        corpus,
        daemon,
        snapshot,
        elapsed: start.elapsed(),
    })
}

/// Drain and join a daemon.
pub fn stop(daemon: Daemon) {
    daemon.begin_drain();
    daemon.join();
}
