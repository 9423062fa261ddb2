//! The 64-tenant soak: a long interleaved session script against the
//! real daemon — reveals in ragged frames (single reveals as `reveal`
//! requests, larger frames as `reveals`), mid-stream position and cost
//! queries, and two `kill -9` + restore cycles — with every tenant's
//! final costs and permutation checked against a single-process
//! reference run. A wall-clock budget keeps the suite CI-friendly.

mod util;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use mla_adversary::{random_clique_instance, random_line_instance, MergeShape};
use mla_graph::{RevealEvent, Topology};
use mla_permutation::Node;
use mla_runner::Json;
use mla_sim::{open_session, BackendKind, PolicyKind, RunOutcome, SessionSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use util::{events_json, Daemon};

const TENANTS: usize = 64;
/// Generous CI budget; the soak takes well under this on a laptop.
const WALL_CLOCK_BUDGET: Duration = Duration::from_secs(120);

struct TenantPlan {
    name: String,
    topology: Topology,
    policy: PolicyKind,
    backend: BackendKind,
    n: usize,
    seed: u64,
    pairs: Vec<(usize, usize)>,
}

fn plan_tenants() -> Vec<TenantPlan> {
    let policies = [
        PolicyKind::Rand,
        PolicyKind::Fair,
        PolicyKind::SmallerMoves,
        PolicyKind::Det,
    ];
    (0..TENANTS)
        .map(|index| {
            let topology = if index % 2 == 0 {
                Topology::Cliques
            } else {
                Topology::Lines
            };
            let n = 8 + (index % 7) * 2;
            let seed = 1_000 + index as u64;
            let mut rng = SmallRng::seed_from_u64(seed);
            let events = match topology {
                Topology::Cliques => random_clique_instance(n, MergeShape::Uniform, &mut rng)
                    .events()
                    .to_vec(),
                Topology::Lines => random_line_instance(n, MergeShape::Uniform, &mut rng)
                    .events()
                    .to_vec(),
            };
            TenantPlan {
                name: format!("tenant-{index:02}"),
                topology,
                policy: policies[index % policies.len()],
                backend: if index % 3 == 0 {
                    BackendKind::Dense
                } else {
                    BackendKind::Segment
                },
                n,
                seed,
                pairs: events
                    .iter()
                    .map(|e| (e.a().index(), e.b().index()))
                    .collect(),
            }
        })
        .collect()
}

fn reference_outcome(plan: &TenantPlan) -> RunOutcome {
    let spec = SessionSpec::new(plan.topology, plan.n, plan.policy, plan.backend, plan.seed);
    let mut session = open_session(spec).unwrap();
    let events: Vec<RevealEvent> = plan
        .pairs
        .iter()
        .map(|&(a, b)| RevealEvent::new(Node::new(a), Node::new(b)))
        .collect();
    session.apply_events(&events).unwrap();
    session.outcome()
}

fn open_request(plan: &TenantPlan) -> String {
    format!(
        "{{\"op\":\"open\",\"tenant\":\"{}\",\"topology\":\"{}\",\"n\":{},\
         \"policy\":\"{}\",\"backend\":\"{}\",\"seed\":{}}}",
        plan.name,
        match plan.topology {
            Topology::Cliques => "cliques",
            Topology::Lines => "lines",
        },
        plan.n,
        match plan.policy {
            PolicyKind::Rand => "rand",
            PolicyKind::Fair => "fair",
            PolicyKind::SmallerMoves => "smaller-moves",
            PolicyKind::Det => "det",
            PolicyKind::Opt => "opt",
        },
        match plan.backend {
            BackendKind::Dense => "dense",
            BackendKind::Segment => "segment",
        },
        plan.seed,
    )
}

#[test]
fn soak_64_tenants_survive_two_kill9_cycles_with_identical_costs() {
    let start = Instant::now();
    let plans = plan_tenants();
    let references: Vec<RunOutcome> = plans.iter().map(reference_outcome).collect();
    let total_events: usize = plans.iter().map(|p| p.pairs.len()).sum();

    let ckpt = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("soak.ckpt");
    let ckpt_str = ckpt.to_str().unwrap().to_owned();
    let spawn = |restore: bool| {
        let mut args = vec!["--checkpoint", ckpt_str.as_str()];
        if restore {
            args.push("--restore");
            args.push(ckpt_str.as_str());
        }
        Daemon::spawn(&args)
    };

    let mut daemon = spawn(false);
    for plan in &plans {
        daemon.request_ok(&open_request(plan));
    }

    // Interleave: random tenant, random frame size, with queries
    // sprinkled in. Two kill -9 + restore cycles at roughly
    // 1/3 and 2/3 of total progress.
    let mut script_rng = SmallRng::seed_from_u64(0xbeef);
    let mut cursors = vec![0usize; plans.len()];
    let mut served = 0usize;
    let mut kills = [false, false];
    loop {
        let remaining: Vec<usize> = (0..plans.len())
            .filter(|&i| cursors[i] < plans[i].pairs.len())
            .collect();
        let Some(&tenant) = remaining.get(script_rng.gen_range(0..remaining.len().max(1))) else {
            break;
        };
        let plan = &plans[tenant];
        let cursor = cursors[tenant];
        let frame = script_rng
            .gen_range(1usize..=4)
            .min(plan.pairs.len() - cursor);
        // A frame of one reveal goes out as a `reveal` request, which the
        // daemon reads without a `Json` tree.
        let request = if frame == 1 {
            let (a, b) = plan.pairs[cursor];
            format!(
                "{{\"op\":\"reveal\",\"tenant\":\"{}\",\"a\":{a},\"b\":{b}}}",
                plan.name
            )
        } else {
            format!(
                "{{\"op\":\"reveals\",\"tenant\":\"{}\",\"events\":{}}}",
                plan.name,
                events_json(&plan.pairs[cursor..cursor + frame])
            )
        };
        let response = daemon.request_ok(&request);
        cursors[tenant] += frame;
        served += frame;
        assert_eq!(
            response.get("steps").and_then(Json::as_usize),
            Some(cursors[tenant]),
            "{} step count drifted",
            plan.name
        );

        // Mid-stream queries: positions must be in range, costs exact.
        if script_rng.gen_range(0..4) == 0 {
            let node = script_rng.gen_range(0..plan.n);
            let position = daemon.request_ok(&format!(
                "{{\"op\":\"position\",\"tenant\":\"{}\",\"node\":{node}}}",
                plan.name
            ));
            let at = position.get("position").and_then(Json::as_usize).unwrap();
            assert!(at < plan.n, "{}: position {at} out of range", plan.name);
        }
        if script_rng.gen_range(0..6) == 0 {
            let cost =
                daemon.request_ok(&format!("{{\"op\":\"cost\",\"tenant\":\"{}\"}}", plan.name));
            assert_eq!(
                cost.get("steps").and_then(Json::as_usize),
                Some(cursors[tenant]),
                "{} step count drifted",
                plan.name
            );
        }

        // Crash cycles.
        let progress = served as f64 / total_events as f64;
        for (slot, threshold) in [(0usize, 1.0 / 3.0), (1, 2.0 / 3.0)] {
            if !kills[slot] && progress >= threshold {
                kills[slot] = true;
                daemon.request_ok("{\"op\":\"checkpoint\"}");
                daemon.kill9();
                daemon = spawn(true);
                let listed = daemon.request_ok("{\"op\":\"tenants\"}");
                let count = listed
                    .get("tenants")
                    .and_then(Json::as_array)
                    .map(<[Json]>::len);
                assert_eq!(count, Some(TENANTS), "tenant lost in restore");
            }
        }
    }
    assert!(kills[0] && kills[1], "both crash cycles must have run");

    // Every tenant's final state matches the single-process reference.
    for (plan, want) in plans.iter().zip(&references) {
        let outcome = daemon.request_ok(&format!(
            "{{\"op\":\"outcome\",\"tenant\":\"{}\"}}",
            plan.name
        ));
        assert_eq!(
            outcome.get("moving_cost").and_then(Json::as_u128),
            Some(want.moving_cost),
            "{}: moving cost diverged",
            plan.name
        );
        assert_eq!(
            outcome.get("rearranging_cost").and_then(Json::as_u128),
            Some(want.rearranging_cost),
            "{}: rearranging cost diverged",
            plan.name
        );
        let perm: Vec<usize> = outcome
            .get("perm")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|v| v.as_usize().unwrap())
            .collect();
        let want_perm: Vec<usize> = want.final_perm.iter().map(|node| node.index()).collect();
        assert_eq!(perm, want_perm, "{}: final permutation diverged", plan.name);
    }
    daemon.shutdown();

    let elapsed = start.elapsed();
    assert!(
        elapsed < WALL_CLOCK_BUDGET,
        "soak blew its CI budget: {elapsed:?} >= {WALL_CLOCK_BUDGET:?}"
    );
}
