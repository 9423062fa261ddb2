//! The four workloads and their inputs. Every input derives from the
//! benchmark seed through [`SeedSequence`], before any timing starts.

use std::ops::Range;

use mla_adversary::StreamingWorkload;
use mla_adversary::{random_clique_instance, random_line_instance, sharded_instance, MergeShape};
use mla_graph::{RevealEvent, Topology};
use mla_runner::{write_frame, Json, SeedSequence};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StreamCliques,
    StreamLinesChecked,
    ServeSingle,
    ServeBatched,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::StreamCliques,
        Workload::StreamLinesChecked,
        Workload::ServeSingle,
        Workload::ServeBatched,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamCliques => "stream-cliques",
            Workload::StreamLinesChecked => "stream-lines-checked",
            Workload::ServeSingle => "serve-single",
            Workload::ServeBatched => "serve-batched",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_stream(self) -> bool {
        matches!(self, Workload::StreamCliques | Workload::StreamLinesChecked)
    }
}

/// Input sizes: the measured size and a smoke size for the benchmark's
/// own tests. One repetition of a measured workload takes about half a
/// second, so a run holds many of them.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub cliques_n: usize,
    pub lines_n: usize,
    pub tenants: usize,
    pub tenant_n: usize,
    /// Interleaved disjoint sub-clusters of each sharded tenant.
    pub sub_clusters: usize,
    /// Reveals per `reveals` frame on serve-batched.
    pub batch_frame: usize,
    /// Traced passes per traced run (the fastest is reported).
    pub traced_passes: usize,
}

pub const FULL: Size = Size {
    cliques_n: 1 << 17,
    lines_n: 1 << 16,
    tenants: 32,
    tenant_n: 2048,
    sub_clusters: 16,
    batch_frame: 1000,
    traced_passes: 3,
};

pub const SMOKE: Size = Size {
    cliques_n: 4_000,
    lines_n: 3_000,
    tenants: 8,
    tenant_n: 400,
    sub_clusters: 8,
    batch_frame: 100,
    traced_passes: 2,
};

/// A streamed engine run: `rand` policy, segment backend, uniform merges,
/// recording off.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    pub topology: Topology,
    pub n: usize,
    pub check: bool,
    pub source_seed: u64,
    pub alg_seed: u64,
}

impl StreamSpec {
    pub fn new(workload: Workload, size: &Size, seed: u64) -> Self {
        let seeds = SeedSequence::new(seed).child_str(workload.name());
        let (topology, n, check) = match workload {
            Workload::StreamCliques => (Topology::Cliques, size.cliques_n, false),
            _ => (Topology::Lines, size.lines_n, true),
        };
        StreamSpec {
            topology,
            n,
            check,
            source_seed: seeds.seed(0),
            alg_seed: seeds.seed(1),
        }
    }

    pub fn source(&self) -> StreamingWorkload {
        StreamingWorkload::new(self.topology, self.n, MergeShape::Uniform, self.source_seed)
    }

    pub fn reveals(&self) -> usize {
        self.n - 1
    }
}

/// One daemon tenant and its whole reveal sequence.
#[derive(Debug, Clone)]
pub struct Tenant {
    pub name: String,
    pub topology: Topology,
    pub n: usize,
    /// Seed of the tenant's session RNG.
    pub seed: u64,
    pub events: Vec<RevealEvent>,
}

/// The daemon workloads' inputs: tenants, the frame schedule, and the
/// frames rendered around the mid-stream checkpoint. The `restore`
/// frame is built from the checkpoint response at run time.
#[derive(Debug)]
pub struct ServeInputs {
    pub tenants: Vec<Tenant>,
    /// Reveal frames in send order: (tenant, range of its events).
    pub schedule: Vec<(usize, Range<usize>)>,
    /// Reveal frames sent before the checkpoint.
    pub before_checkpoint: usize,
    /// `true` for one `reveal` frame per reveal, `false` for `reveals`.
    pub single: bool,
    /// Opens, the first half of the reveal frames and `checkpoint`.
    pub part_a: Vec<u8>,
    /// The second half of the reveal frames, one `cost` per tenant and
    /// `shutdown`.
    pub part_b: Vec<u8>,
}

impl ServeInputs {
    /// Same tenants and reveal sequence for both daemon workloads; only
    /// the framing differs.
    pub fn new(workload: Workload, size: &Size, seed: u64) -> Self {
        let root = SeedSequence::new(seed).child_str("tenants");
        let tenants: Vec<Tenant> = (0..size.tenants)
            .map(|i| {
                let seeds = root.child(i as u64);
                let topology = if i % 2 == 0 {
                    Topology::Cliques
                } else {
                    Topology::Lines
                };
                let mut rng = SmallRng::seed_from_u64(seeds.seed(0));
                let n = size.tenant_n;
                // A quarter of the tenants (both topologies) hold
                // interleaved disjoint sub-clusters.
                let instance = if i % 8 < 2 {
                    sharded_instance(
                        topology,
                        n,
                        size.sub_clusters,
                        MergeShape::Uniform,
                        &mut rng,
                    )
                } else if topology == Topology::Cliques {
                    random_clique_instance(n, MergeShape::Uniform, &mut rng)
                } else {
                    random_line_instance(n, MergeShape::Uniform, &mut rng)
                };
                Tenant {
                    name: format!("t{i:02}"),
                    topology,
                    n,
                    seed: seeds.seed(1),
                    events: instance.events().to_vec(),
                }
            })
            .collect();
        let single = workload == Workload::ServeSingle;
        let frame = if single { 1 } else { size.batch_frame };
        // Round-robin across tenants, one frame each per round.
        let mut schedule = Vec::new();
        let rounds = tenants
            .iter()
            .map(|t| t.events.len().div_ceil(frame))
            .max()
            .unwrap_or(0);
        for round in 0..rounds {
            for (index, tenant) in tenants.iter().enumerate() {
                let start = round * frame;
                if start < tenant.events.len() {
                    schedule.push((index, start..(start + frame).min(tenant.events.len())));
                }
            }
        }
        let before_checkpoint = schedule.len() / 2;
        let mut inputs = ServeInputs {
            tenants,
            schedule,
            before_checkpoint,
            single,
            part_a: Vec::new(),
            part_b: Vec::new(),
        };
        inputs.render();
        inputs
    }

    fn render(&mut self) {
        let mut a = Vec::new();
        for tenant in &self.tenants {
            push_frame(
                &mut a,
                &Json::object()
                    .field("op", "open")
                    .field("tenant", tenant.name.as_str())
                    .field("topology", tenant.topology.to_string())
                    .field("n", tenant.n)
                    .field("policy", "rand")
                    .field("backend", "segment")
                    .field("seed", tenant.seed)
                    .field("record", "off"),
            );
        }
        let mut b = Vec::new();
        for (k, (index, range)) in self.schedule.iter().enumerate() {
            let out = if k < self.before_checkpoint {
                &mut a
            } else {
                &mut b
            };
            push_frame(out, &self.reveal_frame(*index, range.clone()));
        }
        push_frame(&mut a, &Json::object().field("op", "checkpoint"));
        for tenant in &self.tenants {
            push_frame(
                &mut b,
                &Json::object()
                    .field("op", "cost")
                    .field("tenant", tenant.name.as_str()),
            );
        }
        push_frame(&mut b, &Json::object().field("op", "shutdown"));
        self.part_a = a;
        self.part_b = b;
    }

    fn reveal_frame(&self, index: usize, range: Range<usize>) -> Json {
        let tenant = &self.tenants[index];
        let events = &tenant.events[range];
        let base = Json::object().field("tenant", tenant.name.as_str());
        if self.single {
            base.field("op", "reveal")
                .field("a", events[0].a().index())
                .field("b", events[0].b().index())
        } else {
            let pairs = events
                .iter()
                .map(|e| Json::Array(vec![e.a().index().into(), e.b().index().into()]))
                .collect();
            base.field("op", "reveals")
                .field("events", Json::Array(pairs))
        }
    }

    pub fn reveals(&self) -> usize {
        self.tenants.iter().map(|t| t.events.len()).sum()
    }

    /// Every frame the client sends, the runtime `restore` included.
    pub fn frames(&self) -> usize {
        2 * self.tenants.len() + self.schedule.len() + 3
    }
}

/// Appends one wire frame to an in-memory frame file.
pub fn push_frame(out: &mut Vec<u8>, message: &Json) {
    write_frame(out, message).expect("writing a frame into memory cannot fail");
}

/// The `restore` frame carrying a checkpoint response's hex bytes.
pub fn restore_frame(hex: &str) -> Vec<u8> {
    let payload = format!("{{\"op\":\"restore\",\"bytes\":\"{hex}\"}}");
    format!("{}\n{payload}\n", payload.len()).into_bytes()
}
