//! Crash recovery across a **real process boundary**: a daemon is
//! killed with SIGKILL mid-stream and a fresh process restores its
//! checkpoint; replaying the remaining reveals must be bit-identical to
//! an uninterrupted in-process run — same exact costs, same final
//! permutation.

mod util;

use std::path::PathBuf;

use mla_adversary::{random_clique_instance, random_line_instance, MergeShape};
use mla_graph::{RevealEvent, Topology};
use mla_permutation::Permutation;
use mla_runner::Json;
use mla_serve::{Reply, Server};
use mla_sim::{open_session, BackendKind, PolicyKind, SessionSpec};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use util::{events_json, Daemon};

fn instance_pairs(topology: Topology, n: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let events = match topology {
        Topology::Cliques => random_clique_instance(n, MergeShape::Uniform, &mut rng)
            .events()
            .to_vec(),
        Topology::Lines => random_line_instance(n, MergeShape::Uniform, &mut rng)
            .events()
            .to_vec(),
    };
    events
        .iter()
        .map(|e| (e.a().index(), e.b().index()))
        .collect()
}

fn to_events(pairs: &[(usize, usize)]) -> Vec<RevealEvent> {
    pairs
        .iter()
        .map(|&(a, b)| {
            RevealEvent::new(mla_permutation::Node::new(a), mla_permutation::Node::new(b))
        })
        .collect()
}

fn tmp_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// One grid cell, end to end: serve a prefix in process A, checkpoint,
/// SIGKILL it, restore in process B, serve the remainder, and compare
/// against the uninterrupted in-process reference.
fn assert_subprocess_recovery(
    name: &str,
    topology: Topology,
    policy: PolicyKind,
    backend: BackendKind,
) {
    let n = 16;
    let seed = 29;
    let pairs = instance_pairs(topology, n, 41);
    let cut = pairs.len() / 2;

    // Uninterrupted in-process reference.
    let mut spec = SessionSpec::new(topology, n, policy, backend, seed);
    let target = Permutation::random(n, &mut SmallRng::seed_from_u64(77));
    let target_json: Vec<String> = target.iter().map(|node| node.index().to_string()).collect();
    if policy == PolicyKind::Opt {
        spec = spec.target(target.clone());
    }
    let mut reference = open_session(spec).unwrap();
    reference.apply_events(&to_events(&pairs)).unwrap();
    let want = reference.outcome();

    let ckpt = tmp_path(&format!("crash-{name}.ckpt"));
    let ckpt_str = ckpt.to_str().unwrap();
    let (topo_str, policy_str, backend_str) = (
        match topology {
            Topology::Cliques => "cliques",
            Topology::Lines => "lines",
        },
        match policy {
            PolicyKind::Rand => "rand",
            PolicyKind::Fair => "fair",
            PolicyKind::SmallerMoves => "smaller-moves",
            PolicyKind::Det => "det",
            PolicyKind::Opt => "opt",
        },
        match backend {
            BackendKind::Dense => "dense",
            BackendKind::Segment => "segment",
        },
    );
    let target_field = if policy == PolicyKind::Opt {
        format!(",\"target\":[{}]", target_json.join(","))
    } else {
        String::new()
    };

    // Process A: open, serve the prefix, checkpoint, die hard.
    let mut first = Daemon::spawn(&["--checkpoint", ckpt_str]);
    first.request_ok(&format!(
        "{{\"op\":\"open\",\"tenant\":\"{name}\",\"topology\":\"{topo_str}\",\"n\":{n},\
         \"policy\":\"{policy_str}\",\"backend\":\"{backend_str}\",\"seed\":{seed}\
         {target_field}}}"
    ));
    first.request_ok(&format!(
        "{{\"op\":\"reveals\",\"tenant\":\"{name}\",\"events\":{}}}",
        events_json(&pairs[..cut])
    ));
    first.request_ok("{\"op\":\"checkpoint\"}");
    first.kill9();

    // Process B: restore, serve the remainder, compare.
    let mut second = Daemon::spawn(&["--restore", ckpt_str]);
    second.request_ok(&format!(
        "{{\"op\":\"reveals\",\"tenant\":\"{name}\",\"events\":{}}}",
        events_json(&pairs[cut..])
    ));
    let outcome = second.request_ok(&format!("{{\"op\":\"outcome\",\"tenant\":\"{name}\"}}"));
    second.shutdown();

    assert_eq!(
        outcome.get("total_cost").and_then(Json::as_u128),
        Some(want.total_cost),
        "{name}: total cost diverged across the process boundary"
    );
    assert_eq!(
        outcome.get("moving_cost").and_then(Json::as_u128),
        Some(want.moving_cost),
        "{name}: moving cost diverged"
    );
    assert_eq!(
        outcome.get("rearranging_cost").and_then(Json::as_u128),
        Some(want.rearranging_cost),
        "{name}: rearranging cost diverged"
    );
    let perm: Vec<usize> = outcome
        .get("perm")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|v| v.as_usize().unwrap())
        .collect();
    let want_perm: Vec<usize> = want.final_perm.iter().map(|node| node.index()).collect();
    assert_eq!(perm, want_perm, "{name}: final permutation diverged");
}

#[test]
fn rand_cliques_segment_recovers_across_processes() {
    assert_subprocess_recovery(
        "rand-cliques-segment",
        Topology::Cliques,
        PolicyKind::Rand,
        BackendKind::Segment,
    );
}

#[test]
fn fair_lines_segment_recovers_across_processes() {
    assert_subprocess_recovery(
        "fair-lines-segment",
        Topology::Lines,
        PolicyKind::Fair,
        BackendKind::Segment,
    );
}

#[test]
fn smaller_moves_cliques_dense_recovers_across_processes() {
    assert_subprocess_recovery(
        "smaller-cliques-dense",
        Topology::Cliques,
        PolicyKind::SmallerMoves,
        BackendKind::Dense,
    );
}

#[test]
fn det_lines_dense_recovers_across_processes() {
    assert_subprocess_recovery(
        "det-lines-dense",
        Topology::Lines,
        PolicyKind::Det,
        BackendKind::Dense,
    );
}

#[test]
fn opt_cliques_segment_recovers_across_processes() {
    assert_subprocess_recovery(
        "opt-cliques-segment",
        Topology::Cliques,
        PolicyKind::Opt,
        BackendKind::Segment,
    );
}

/// Checkpoint files are replaced atomically through `<path>.tmp`: a
/// successful write leaves no temp file behind, and a torn temp file —
/// what a crash during a later write leaves — never shadows the last
/// good checkpoint at `--restore PATH`.
#[test]
fn torn_temp_file_never_shadows_the_last_good_checkpoint() {
    let pairs = instance_pairs(Topology::Cliques, 16, 5);
    let ckpt = tmp_path("atomic.ckpt");
    let ckpt_str = ckpt.to_str().unwrap();
    let tmp = tmp_path("atomic.ckpt.tmp");
    let _ = std::fs::remove_file(&tmp);

    let mut first = Daemon::spawn(&["--checkpoint", ckpt_str]);
    first.request_ok(
        "{\"op\":\"open\",\"tenant\":\"t0\",\"topology\":\"cliques\",\"n\":16,\
         \"policy\":\"rand\",\"seed\":3}",
    );
    first.request_ok(&format!(
        "{{\"op\":\"reveals\",\"tenant\":\"t0\",\"events\":{}}}",
        events_json(&pairs)
    ));
    let want = first.request_ok("{\"op\":\"outcome\",\"tenant\":\"t0\"}");
    first.request_ok("{\"op\":\"checkpoint\"}");
    assert!(!tmp.exists(), "a successful write left {tmp:?} behind");
    let good = std::fs::read(&ckpt).unwrap();
    std::fs::write(&tmp, &good[..good.len() / 2]).unwrap();
    first.kill9();

    let mut second = Daemon::spawn(&["--restore", ckpt_str, "--checkpoint", ckpt_str]);
    let got = second.request_ok("{\"op\":\"outcome\",\"tenant\":\"t0\"}");
    assert_eq!(
        got, want,
        "restore read something other than the good checkpoint"
    );
    // Shutdown writes the same state again, replacing the torn temp file.
    second.shutdown();
    assert!(!tmp.exists(), "the next write left {tmp:?} behind");
    assert_eq!(std::fs::read(&ckpt).unwrap(), good);
}

/// A checkpoint write that fails mid-way answers `io`, removes its
/// `<path>.tmp` and leaves every tenant serving; `shutdown` still stops
/// the server, with the same `io` code. A directory at the checkpoint
/// path makes the write fail after the temp file is written: renaming
/// a file over a directory is refused.
#[test]
fn a_failed_checkpoint_write_answers_io_and_leaves_no_temp_file() {
    let dir = tmp_path("checkpoint-is-a-dir");
    std::fs::create_dir_all(&dir).unwrap();
    let tmp = tmp_path("checkpoint-is-a-dir.tmp");
    let _ = std::fs::remove_file(&tmp);
    let mut server = Server::new(1, 0).checkpoint_path(&dir);
    // Each reply as (did the server stop, error code).
    let mut send = |text: &str| {
        let (stopped, response) = match server.handle(&Json::parse(text).unwrap()) {
            Reply::Continue(response) => (false, response),
            Reply::Shutdown(response) => (true, response),
        };
        let code = response
            .get("code")
            .and_then(Json::as_str)
            .map(str::to_owned);
        (stopped, code)
    };
    let opened = send(
        "{\"op\":\"open\",\"tenant\":\"t0\",\"topology\":\"cliques\",\"n\":6,\
         \"policy\":\"rand\"}",
    );
    assert_eq!(opened, (false, None));

    let failed = send("{\"op\":\"checkpoint\"}");
    assert_eq!(failed, (false, Some("io".to_owned())));
    assert!(!tmp.exists(), "a failed write left {tmp:?} behind");
    let served = send("{\"op\":\"reveal\",\"tenant\":\"t0\",\"a\":0,\"b\":1}");
    assert_eq!(served, (false, None));

    // A shutdown whose checkpoint fails keeps serving, so the reveals
    // since the last good checkpoint are not lost.
    let refused = send("{\"op\":\"shutdown\"}");
    assert_eq!(refused, (false, Some("io".to_owned())));
    assert!(!tmp.exists(), "a failed write left {tmp:?} behind");
    assert!(dir.is_dir());
    let served = send("{\"op\":\"reveal\",\"tenant\":\"t0\",\"a\":2,\"b\":3}");
    assert_eq!(served, (false, None));
}

/// The daemon also speaks the protocol over TCP; a session opened on
/// one connection survives to the next, and `shutdown` ends the
/// process.
#[test]
fn tcp_daemon_serves_across_connections() {
    use std::io::{BufRead, BufReader, BufWriter};
    use std::net::TcpStream;
    use std::process::{Command, Stdio};

    use mla_runner::{read_frame, write_frame};

    let mut child = Command::new(env!("CARGO_BIN_EXE_mla-serve"))
        .args(["--tcp", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mla-serve --tcp");
    let mut stderr = BufReader::new(child.stderr.take().expect("child stderr"));
    let mut line = String::new();
    stderr.read_line(&mut line).expect("read listen banner");
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .expect("address in listen banner")
        .to_owned();

    let request = |stream: &TcpStream, text: &str| -> Json {
        let mut writer = BufWriter::new(stream.try_clone().expect("clone stream"));
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        write_frame(&mut writer, &Json::parse(text).expect("request json"))
            .expect("write tcp frame");
        read_frame(&mut reader)
            .expect("read tcp frame")
            .expect("response")
    };

    {
        let first = TcpStream::connect(&addr).expect("connect");
        let opened = request(
            &first,
            "{\"op\":\"open\",\"tenant\":\"t0\",\"topology\":\"cliques\",\"n\":8,\
             \"policy\":\"rand\",\"seed\":3}",
        );
        assert_eq!(opened.get("ok").and_then(Json::as_bool), Some(true));
        // Drop the connection without shutdown: tenants must survive.
    }
    {
        let second = TcpStream::connect(&addr).expect("reconnect");
        let cost = request(&second, "{\"op\":\"cost\",\"tenant\":\"t0\"}");
        assert_eq!(cost.get("ok").and_then(Json::as_bool), Some(true));
        let done = request(&second, "{\"op\":\"shutdown\"}");
        assert_eq!(done.get("shutdown").and_then(Json::as_bool), Some(true));
    }
    let status = child.wait().expect("wait for tcp daemon");
    assert!(status.success(), "daemon exited with {status:?}");
}
