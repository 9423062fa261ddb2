//! Golden checkpoint compatibility: fixtures written by earlier codecs
//! are committed to the repository, and this suite proves that today's
//! decoders still accept them **and** resume them to the exact
//! historical outcome. Any incompatible codec change trips this test —
//! the fix is a version bump plus a decode path for the old version,
//! never a silent format break.
//!
//! - `session-v1.ckpt`: a session checkpoint in format 1, whose body
//!   ends with a since-removed batch planner's 16-byte tuning triple.
//!   Frozen: no encoder writes format 1 any more.
//! - `session-v2.ckpt`: the same session in format 2, which drops the
//!   triple. Frozen.
//! - `session-v3.ckpt`: the same session in format 3, whose segment
//!   arrangement drops an unread 8-byte counter that formats 1 and 2
//!   stored after its node count.
//! - `server-v1.ckpt`: a whole-server checkpoint in format 1, written
//!   mid-stream by the format-1 daemon on `--shards 3`. Each tenant
//!   carries a shard label (2 and 1 here), which format 2 drops. Frozen.
//! - `wire.requests` and `wire.responses`: a short request stream and
//!   the exact bytes the daemon answered it with, so the wire protocol's
//!   bytes are pinned against the implementation that wrote them, not
//!   only against today's `Json` path.
//!
//! Regenerate `session-v3.ckpt` (after an intentional, versioned format
//! change) or the wire transcript (after an intentional change of the
//! wire bytes, never to make a failing comparison pass) with:
//!
//! ```text
//! cargo test -p mla-serve --test golden -- --ignored regenerate_golden_fixture
//! cargo test -p mla-serve --test golden -- --ignored regenerate_wire_transcript
//! ```

use std::io::BufReader;

use mla_graph::{RevealEvent, Topology};
use mla_permutation::Node;
use mla_runner::Json;
use mla_serve::{serve_loop, Reply, Server};
use mla_sim::checkpoint;
use mla_sim::{decode_session, encode_session, open_session, BackendKind, PolicyKind, SessionSpec};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

/// The session fixtures' reveal script: a fixed merge tournament on 12
/// nodes (hardcoded, so the fixtures never depend on adversary-generator
/// internals). Merges pair **distant** nodes so every step forces real
/// movement — the costs pinned below are non-trivial. The checkpoints
/// were taken after [`CUT`] reveals.
const EVENTS: [(usize, usize); 11] = [
    (0, 6),
    (1, 7),
    (2, 8),
    (0, 1),
    (3, 9),
    (4, 10),
    (2, 3),
    (5, 11),
    (0, 2),
    (4, 5),
    (0, 4),
];
const CUT: usize = 6;

/// Historical values pinned at fixture-generation time. `regenerate`
/// prints fresh ones.
const MID_TOTAL_COST: u128 = 19;
const FINAL_TOTAL_COST: u128 = 37;

/// Bytes format 1 appended to every session body: the planner tuning
/// `(window: u64, full_seals: u32, collapse_streak: u32)`.
const V1_TUNING_BYTES: usize = 16;

/// Bytes formats 1 and 2 stored in every segment arrangement: a counter
/// of the search tree that format 3's order index replaced.
const V2_COUNTER_BYTES: usize = 8;

fn fixture_spec() -> SessionSpec {
    SessionSpec::new(
        Topology::Cliques,
        12,
        PolicyKind::Rand,
        BackendKind::Segment,
        42,
    )
}

fn events(range: std::ops::Range<usize>) -> Vec<RevealEvent> {
    EVENTS[range]
        .iter()
        .map(|&(a, b)| RevealEvent::new(Node::new(a), Node::new(b)))
        .collect()
}

fn read_fixture(name: &str) -> Vec<u8> {
    std::fs::read(format!("{GOLDEN}/{name}")).unwrap_or_else(|err| {
        panic!(
            "missing fixture {name} ({err}); session-v3.ckpt and the wire \
             transcript are written by this file's `--ignored` regenerate tests"
        )
    })
}

#[test]
fn golden_fixture_still_decodes_and_resumes_to_the_historical_outcome() {
    let mut fresh = open_session(fixture_spec()).unwrap();
    fresh.apply_events(&events(0..EVENTS.len())).unwrap();
    for (name, version) in [
        ("session-v1.ckpt", 1),
        ("session-v2.ckpt", 2),
        ("session-v3.ckpt", 3),
    ] {
        let bytes = read_fixture(name);
        assert_eq!(checkpoint::open(&bytes).unwrap().0, version, "{name}");
        let mut session = decode_session(&bytes).expect("the fixture must keep decoding");

        let spec = session.spec().clone();
        assert_eq!(spec, fixture_spec(), "{name}: fixture spec drifted");
        assert_eq!(session.steps(), CUT, "{name}");
        assert_eq!(session.outcome().total_cost, MID_TOTAL_COST, "{name}");

        session.apply_events(&events(CUT..EVENTS.len())).unwrap();
        let resumed = session.outcome();
        assert_eq!(resumed.total_cost, FINAL_TOTAL_COST, "{name}");

        // The resumed historical session and a fresh uninterrupted run are
        // bit-identical — the crash-recovery contract, pinned across codec
        // versions.
        assert_eq!(resumed, fresh.outcome(), "{name}");
    }
}

#[test]
fn reencoding_the_fixture_is_byte_stable() {
    let bytes = read_fixture("session-v3.ckpt");
    let session = decode_session(&bytes).unwrap();
    assert_eq!(
        encode_session(session.as_ref()),
        bytes,
        "decode → encode must reproduce the committed bytes exactly"
    );
}

#[test]
fn the_old_fixtures_reencode_as_the_v3_fixture() {
    let v3 = read_fixture("session-v3.ckpt");
    for (name, dropped) in [
        ("session-v1.ckpt", V1_TUNING_BYTES + V2_COUNTER_BYTES),
        ("session-v2.ckpt", V2_COUNTER_BYTES),
    ] {
        let old = read_fixture(name);
        let reencoded = encode_session(decode_session(&old).unwrap().as_ref());
        assert_eq!(
            reencoded, v3,
            "decode {name} → encode must give the v3 fixture"
        );
        assert_eq!(v3.len(), old.len() - dropped, "{name}");
    }
}

/// One tenant of the server fixture: its `open` request, its reveal
/// script, how much of it ran before the checkpoint, and the total
/// costs the format-1 daemon reported at the cut and at the end.
struct ServerTenant {
    name: &'static str,
    open: &'static str,
    events: &'static [(usize, usize)],
    cut: usize,
    mid_total: u128,
    final_total: u128,
}

/// The tenants of `server-v1.ckpt`. The daemon ran on `--shards 3`:
/// `cliques` opened on shard 0 and was migrated to shard 2, `lines`
/// opened on shard 1.
const SERVER_TENANTS: [ServerTenant; 2] = [
    ServerTenant {
        name: "cliques",
        open: "{\"op\":\"open\",\"tenant\":\"cliques\",\"topology\":\"cliques\",\"n\":12,\
               \"policy\":\"rand\",\"backend\":\"segment\",\"seed\":11}",
        events: &EVENTS,
        cut: CUT,
        mid_total: 31,
        final_total: 63,
    },
    ServerTenant {
        name: "lines",
        open: "{\"op\":\"open\",\"tenant\":\"lines\",\"topology\":\"lines\",\"n\":10,\
               \"policy\":\"rand\",\"backend\":\"dense\",\"seed\":5,\"record\":4,\
               \"check_feasibility\":true}",
        events: &[
            (0, 9),
            (2, 7),
            (4, 5),
            (9, 2),
            (1, 8),
            (3, 6),
            (7, 4),
            (8, 3),
            (0, 1),
        ],
        cut: 5,
        mid_total: 34,
        final_total: 74,
    },
];

fn handle_ok(server: &mut Server, text: &str) -> Json {
    let Reply::Continue(response) = server.handle(&Json::parse(text).unwrap()) else {
        panic!("{text} stopped the server");
    };
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "{text} -> {response:?}"
    );
    response
}

fn reveals(server: &mut Server, tenant: &ServerTenant, pairs: &[(usize, usize)]) -> Json {
    let events: Vec<String> = pairs.iter().map(|(a, b)| format!("[{a},{b}]")).collect();
    handle_ok(
        server,
        &format!(
            "{{\"op\":\"reveals\",\"tenant\":\"{}\",\"events\":[{}]}}",
            tenant.name,
            events.join(",")
        ),
    )
}

fn total_cost(response: &Json) -> Option<u128> {
    let moving = response.get("moving_cost").and_then(Json::as_u128)?;
    let rearranging = response.get("rearranging_cost").and_then(Json::as_u128)?;
    Some(moving + rearranging)
}

#[test]
fn server_v1_fixture_restores_and_resumes_bit_identically() {
    let v1 = read_fixture("server-v1.ckpt");
    assert_eq!(checkpoint::open(&v1).unwrap().0, 1);
    let mut restored = Server::new(1, 0);
    assert_eq!(restored.restore_bytes(&v1).unwrap(), SERVER_TENANTS.len());

    // The uninterrupted reference: the same tenants, served in one go.
    let mut fresh = Server::new(1, 0);
    for tenant in &SERVER_TENANTS {
        handle_ok(&mut fresh, tenant.open);
        reveals(&mut fresh, tenant, &tenant.events[..tenant.cut]);
    }
    let listed = handle_ok(&mut restored, "{\"op\":\"tenants\"}");
    assert_eq!(listed, handle_ok(&mut fresh, "{\"op\":\"tenants\"}"));
    assert!(!listed.render_compact().contains("shard"), "{listed:?}");
    for tenant in &SERVER_TENANTS {
        let cost = handle_ok(
            &mut restored,
            &format!("{{\"op\":\"cost\",\"tenant\":\"{}\"}}", tenant.name),
        );
        assert_eq!(total_cost(&cost), Some(tenant.mid_total), "{}", tenant.name);
    }

    // The current checkpoint of the restored table drops one shard word
    // per tenant, the tuning triple of each nested session and the
    // counter of the one segment arrangement (`cliques`).
    let current = restored.checkpoint_bytes();
    assert_eq!(checkpoint::open(&current).unwrap().0, checkpoint::VERSION);
    assert_eq!(
        current.len(),
        v1.len() - SERVER_TENANTS.len() * (8 + V1_TUNING_BYTES) - V2_COUNTER_BYTES
    );
    let mut reloaded = Server::new(1, 0);
    assert_eq!(
        reloaded.restore_bytes(&current).unwrap(),
        SERVER_TENANTS.len()
    );
    assert_eq!(
        reloaded.checkpoint_bytes(),
        current,
        "the current checkpoint round-trips"
    );

    for tenant in &SERVER_TENANTS {
        let rest = &tenant.events[tenant.cut..];
        let outcome = format!("{{\"op\":\"outcome\",\"tenant\":\"{}\"}}", tenant.name);
        for server in [&mut fresh, &mut restored, &mut reloaded] {
            reveals(server, tenant, rest);
        }
        let want = handle_ok(&mut fresh, &outcome);
        assert_eq!(
            total_cost(&want),
            Some(tenant.final_total),
            "{}",
            tenant.name
        );
        assert_eq!(handle_ok(&mut restored, &outcome), want, "{}", tenant.name);
        assert_eq!(handle_ok(&mut reloaded, &outcome), want, "{}", tenant.name);
    }
}

#[test]
fn every_committed_fixture_is_checked_here() {
    let mut names: Vec<String> = std::fs::read_dir(GOLDEN)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(
        names,
        [
            "server-v1.ckpt",
            "session-v1.ckpt",
            "session-v2.ckpt",
            "session-v3.ckpt",
            "wire.requests",
            "wire.responses"
        ]
    );
}

#[test]
#[ignore = "writes the committed fixture; run only after an intentional format change"]
fn regenerate_golden_fixture() {
    let mut session = open_session(fixture_spec()).unwrap();
    session.apply_events(&events(0..CUT)).unwrap();
    let bytes = encode_session(session.as_ref());
    let mid_total = session.outcome().total_cost;
    session.apply_events(&events(CUT..EVENTS.len())).unwrap();
    let final_total = session.outcome().total_cost;
    let path = format!("{GOLDEN}/session-v3.ckpt");
    std::fs::create_dir_all(GOLDEN).unwrap();
    std::fs::write(&path, &bytes).unwrap();
    println!(
        "wrote {} bytes to {path}\nMID_TOTAL_COST = {mid_total}\nFINAL_TOTAL_COST = {final_total}",
        bytes.len()
    );
}

/// The wire transcript's request payloads, one frame each. Opens on both
/// topologies and backends, compact and non-compact `reveal` frames, a
/// `reveal` frame for every error code one can draw while the stream
/// stays in sync (`bad-json`, `bad-request`, `unknown-op`,
/// `unknown-tenant`, `graph`, `feasibility`), then `cost`, `outcome` and
/// `shutdown`.
const TRANSCRIPT: [&[u8]; 37] = [
    br#"{"op":"open","tenant":"c","topology":"cliques","n":8,"policy":"rand","backend":"segment","seed":3}"#,
    br#"{"op":"open","tenant":"d","topology":"cliques","n":6,"policy":"fair","backend":"dense","seed":4}"#,
    br#"{"op":"open","tenant":"l","topology":"lines","n":8,"policy":"rand","backend":"dense","seed":5,"check_feasibility":true}"#,
    br#"{"op":"open","tenant":"s","topology":"lines","n":6,"policy":"smaller-moves","backend":"segment","seed":6}"#,
    b"{\"op\":\"open\",\"tenant\":\"\xc3\xa9t\xc3\xa9\",\"topology\":\"cliques\",\"n\":4,\"policy\":\"rand\"}",
    br#"{"op":"open","tenant":"o","topology":"cliques","n":4,"policy":"opt","target":[0,1,2,3],"check_feasibility":true}"#,
    // Compact reveals, in several key orders.
    br#"{"op":"reveal","tenant":"c","a":0,"b":5}"#,
    br#"{"tenant":"c","op":"reveal","b":7,"a":2}"#,
    br#"{"a":5,"b":0,"tenant":"d","op":"reveal"}"#,
    br#"{"b":5,"tenant":"l","a":0,"op":"reveal"}"#,
    br#"{"op":"reveal","tenant":"s","a":2,"b":5}"#,
    b"{\"op\":\"reveal\",\"tenant\":\"\xc3\xa9t\xc3\xa9\",\"a\":3,\"b\":0}",
    // Non-compact reveals: whitespace, an escape, extra and duplicated
    // members, numbers that are not plain digits.
    br#"{"op": "reveal", "tenant": "c", "a": 4, "b": 1}"#,
    b"{\n  \"op\": \"reveal\",\n  \"tenant\": \"l\",\n  \"a\": 2,\n  \"b\": 7\n}",
    br#"{"op":"reveal","tenant":"\u0063","a":6,"b":3}"#,
    br#"{"op":"reveal","tenant":"d","a":1,"b":4,"seq":9}"#,
    br#"{"op":"reveal","tenant":"s","a":0,"a":4,"b":3}"#,
    br#"{"op":"reveal","tenant":"l","a":4.0,"b":-0}"#,
    br#"{"op":"reveal","tenant":"l","a":6,"b":7e0}"#,
    // Errors.
    br#"{"op":"reveal","tenant":"c","a":01,"b":2}"#,
    b"{\"op\":\"reveal\",\"tenant\":\"\xff\",\"a\":0,\"b\":1}",
    br#"{"op":"reveal","tenant":"c","a":0,"b":8}"#,
    br#"{"op":"reveal","tenant":"c","a":18446744073709551616,"b":1}"#,
    br#"{"op":"reveal","tenant":"c","a":0}"#,
    br#"{"op":"reveal","tenant":"c","a":"0","b":2}"#,
    br#"{"op":"reveal","a":0,"b":2}"#,
    br#"{"op":"Reveal","tenant":"c","a":0,"b":2}"#,
    br#"{"op":"reveal","tenant":"ghost","a":0,"b":2}"#,
    b"{\"op\":\"reveal\",\"tenant\":\"gh\xe2\x80\x8bost\",\"a\":0,\"b\":2}",
    br#"{"op":"reveal","tenant":"c","a":5,"b":0}"#,
    br#"{"op":"reveal","tenant":"l","a":5,"b":0}"#,
    br#"{"op":"reveal","tenant":"o","a":0,"b":2}"#,
    br#"{"op":"cost","tenant":"c"}"#,
    br#"{"op":"cost","tenant":"l"}"#,
    br#"{"op":"outcome","tenant":"d"}"#,
    br#"{"op":"outcome","tenant":"s"}"#,
    br#"{"op":"shutdown"}"#,
];

/// Runs a request stream through [`serve_loop`] on a fresh server,
/// reading it through a buffer of `capacity` bytes.
fn serve_transcript(requests: &[u8], capacity: usize) -> Vec<u8> {
    let mut responses = Vec::new();
    let mut reader = BufReader::with_capacity(capacity, requests);
    let shut_down = serve_loop(&mut Server::new(1, 0), &mut reader, &mut responses).unwrap();
    assert!(shut_down, "the transcript ends with a shutdown");
    responses
}

#[test]
fn the_wire_transcript_is_answered_byte_for_byte() {
    let requests = read_fixture("wire.requests");
    let want = read_fixture("wire.responses");
    // A buffer of one byte makes every frame straddle a refill; the
    // default holds the whole stream.
    for capacity in [1, 7, 64, 8 * 1024] {
        let got = serve_transcript(&requests, capacity);
        assert!(
            got == want,
            "buffer of {capacity} bytes: the responses differ from wire.responses:\n{}",
            String::from_utf8_lossy(&got)
        );
    }
}

#[test]
#[ignore = "writes the committed wire transcript; run only after an intentional wire change"]
fn regenerate_wire_transcript() {
    let mut requests = Vec::new();
    for payload in TRANSCRIPT {
        requests.extend_from_slice(format!("{}\n", payload.len()).as_bytes());
        requests.extend_from_slice(payload);
        requests.push(b'\n');
    }
    let responses = serve_transcript(&requests, 8 * 1024);
    std::fs::write(format!("{GOLDEN}/wire.requests"), &requests).unwrap();
    std::fs::write(format!("{GOLDEN}/wire.responses"), &responses).unwrap();
    println!(
        "wrote {} request and {} response bytes to {GOLDEN}/wire.*",
        requests.len(),
        responses.len()
    );
}
