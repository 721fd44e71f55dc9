//! Workload inputs: every graph is sampled here from the workload seed (`sample_fast`), so the
//! server only ever receives edge lists, and every operation of every client is a pure
//! function of `(seed, client, index)`. The server phase and the in-process replay therefore
//! see the same request bytes without the benchmark keeping them in memory.

use crate::client::request_bytes;
use kronpriv::kronpriv_graph::io::to_edge_list_string;
use kronpriv::kronpriv_skg::sample::{sample_fast, SamplerOptions};
use kronpriv::kronpriv_skg::Initiator2;
use kronpriv_json::Json;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The initiator every benchmark graph is sampled from.
const THETA: (f64, f64, f64) = (0.99, 0.45, 0.25);
/// The `(ε, δ)` draw of `inline_small` and `durable_mixed` releases (the paper's setting).
const DRAW: (f64, f64) = (0.2, 0.01);
/// The `dataset_k16` draw. A dataset's δ limit must stay below 1, so δ = 0.01 would cap one
/// dataset at 99 releases; δ only sets the smoothing parameter β, not the amount of work.
const DRAW_K16: (f64, f64) = (0.2, 1e-4);
/// The `dataset_k16` budget: about 9,000 releases, far more than a run makes.
const BUDGET_K16: (f64, f64) = (1e6, 0.9);
/// The `durable_mixed` per-dataset budget: four releases of [`DRAW`] fit.
const BUDGET_CYCLE: (f64, f64) = (1.0, 0.05);
/// Distinct inline graphs, a third each of orders 10, 11 and 12, so every seed sends the same
/// mix of sizes. Request `j` of client `c` uses graph `(c + clients·j) mod` this; the count is
/// odd, so each client cycles through all of them.
const INLINE_POOL: usize = 63;
/// Distinct `durable_mixed` datasets; cycle `n` uploads graph `n mod` this.
const DURABLE_POOL: usize = 16;
/// Operations in one `durable_mixed` cycle: upload, four releases, budget, delete.
pub const CYCLE_OPS: u64 = 7;
/// `dataset_k16` operations come in blocks of this many: releases, then an upload and a delete
/// of a probe copy of the dataset, so that uploads are timed across the whole timed phase.
const K16_BLOCK: u64 = 26;
/// Cycles of the `durable_mixed` set-up prefix. Even cycles keep their dataset, so the prefix
/// leaves eight live datasets and 216 records (three snapshot compactions at the default 64).
pub const PREFIX_CYCLES: u64 = 16;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One 2^16-node dataset, one client, metered releases.
    DatasetK16,
    /// Inline 2^10..2^12-node edge lists, two clients.
    InlineSmall,
    /// A `--data-dir` server, one client cycling upload / 4 releases / budget / delete.
    DurableMixed,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "dataset_k16" => Some(Workload::DatasetK16),
            "inline_small" => Some(Workload::InlineSmall),
            "durable_mixed" => Some(Workload::DurableMixed),
            _ => None,
        }
    }

    /// Closed-loop clients, each with at most one connection open.
    pub fn clients(self) -> usize {
        match self {
            Workload::InlineSmall => 2,
            _ => 1,
        }
    }

    /// Operations per client that warm the server up at the end of each set-up.
    pub fn warmup_ops(self) -> u64 {
        match self {
            Workload::DatasetK16 => 2,
            Workload::InlineSmall => 10,
            Workload::DurableMixed => CYCLE_OPS,
        }
    }

    /// Full set-ups per run; `setup_s` reports their median.
    pub fn setups(self) -> usize {
        match self {
            Workload::DurableMixed => 3,
            _ => 5,
        }
    }
}

/// What an operation does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Submit an estimate, follow its events to the terminal one, fetch the job.
    Release,
    /// `POST /api/v1/datasets`.
    Upload,
    /// `GET /api/v1/datasets/{name}/budget`.
    Budget,
    /// `DELETE /api/v1/datasets/{name}`.
    Delete,
}

/// One client operation.
pub struct Op {
    /// What it does.
    pub kind: Kind,
    /// The dataset it addresses (`None` for inline releases).
    pub dataset: Option<String>,
    /// The `(ε, δ)` a release draws.
    pub draw: (f64, f64),
    /// The request line's method.
    pub method: &'static str,
    /// The request line's path.
    pub path: String,
    /// The JSON body (empty for GET and DELETE).
    pub body: String,
}

impl Op {
    /// The exact request bytes.
    pub fn bytes(&self) -> Vec<u8> {
        request_bytes(self.method, &self.path, &self.body)
    }
}

/// The generated inputs of one run.
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    seed: u64,
    /// Pre-escaped JSON string literals of the graph pool's edge lists.
    graphs: Vec<String>,
}

impl Plan {
    /// Samples the workload's graphs from `seed`.
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let mut rng = StdRng::seed_from_u64(seed);
        let theta = Initiator2::new(THETA.0, THETA.1, THETA.2);
        let orders: Vec<u32> = match workload {
            Workload::DatasetK16 => vec![16],
            Workload::InlineSmall => (0..INLINE_POOL).map(|i| 10 + (i % 3) as u32).collect(),
            Workload::DurableMixed => vec![14; DURABLE_POOL],
        };
        let graphs = orders
            .into_iter()
            .map(|k| {
                let g = sample_fast(&theta, k, &SamplerOptions::default(), &mut rng);
                kronpriv_json::to_string(&Json::String(to_edge_list_string(&g)))
            })
            .collect();
        Plan { workload, seed, graphs }
    }

    /// The noise seed of operation `index` of `client` (SplitMix64 of the three).
    fn op_seed(&self, client: usize, index: u64) -> u64 {
        let mut z = self.seed ^ (client as u64).rotate_left(48) ^ index.wrapping_mul(0x9E37);
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) >> 11 // below 2^53, so the seed survives a JSON number round trip
    }

    /// The `dataset_k16` upload, sent once per set-up before its warm-up.
    pub fn k16_upload(&self) -> Op {
        upload("k16", &self.graphs[0], BUDGET_K16)
    }

    /// Operation `index` of `client`. The first [`Workload::warmup_ops`] indices of each
    /// client are the set-up's warm-up; the timed phase continues from there.
    pub fn op(&self, client: usize, index: u64) -> Op {
        let seed = self.op_seed(client, index);
        match self.workload {
            Workload::DatasetK16 => match index % K16_BLOCK {
                i if i == K16_BLOCK - 2 => upload("k16-probe", &self.graphs[0], BUDGET_K16),
                i if i == K16_BLOCK - 1 => delete("k16-probe"),
                _ => release_on("k16", DRAW_K16, seed),
            },
            Workload::InlineSmall => {
                let clients = self.workload.clients();
                let graph = &self.graphs[(client + clients * index as usize) % self.graphs.len()];
                Op {
                    kind: Kind::Release,
                    dataset: None,
                    draw: DRAW,
                    method: "POST",
                    path: "/api/v1/estimate".to_string(),
                    body: format!(
                        r#"{{"graph":{{"edge_list":{graph}}},"params":{{"epsilon":{},"delta":{}}},"seed":{seed}}}"#,
                        DRAW.0, DRAW.1
                    ),
                }
            }
            Workload::DurableMixed => {
                self.cycle_op(&format!("t{}", index / CYCLE_OPS), index / CYCLE_OPS, index, seed)
            }
        }
    }

    /// Operation `index` of the `durable_mixed` set-up prefix, or `None` where an even
    /// (kept) cycle skips its delete.
    pub fn prefix_op(&self, index: u64) -> Option<Op> {
        let cycle = index / CYCLE_OPS;
        if cycle.is_multiple_of(2) && index % CYCLE_OPS == CYCLE_OPS - 1 {
            return None;
        }
        let seed = self.op_seed(usize::MAX, index);
        Some(self.cycle_op(&format!("s{cycle}"), cycle, index, seed))
    }

    fn cycle_op(&self, name: &str, cycle: u64, index: u64, seed: u64) -> Op {
        match index % CYCLE_OPS {
            0 => upload(name, &self.graphs[cycle as usize % self.graphs.len()], BUDGET_CYCLE),
            1..=4 => release_on(name, DRAW, seed),
            5 => Op {
                kind: Kind::Budget,
                dataset: Some(name.to_string()),
                draw: (0.0, 0.0),
                method: "GET",
                path: format!("/api/v1/datasets/{name}/budget"),
                body: String::new(),
            },
            _ => delete(name),
        }
    }
}

fn upload(name: &str, graph: &str, budget: (f64, f64)) -> Op {
    Op {
        kind: Kind::Upload,
        dataset: Some(name.to_string()),
        draw: (0.0, 0.0),
        method: "POST",
        path: "/api/v1/datasets".to_string(),
        body: format!(
            r#"{{"name":"{name}","edge_list":{graph},"budget":{{"epsilon":{},"delta":{}}}}}"#,
            budget.0, budget.1
        ),
    }
}

fn delete(name: &str) -> Op {
    Op {
        kind: Kind::Delete,
        dataset: Some(name.to_string()),
        draw: (0.0, 0.0),
        method: "DELETE",
        path: format!("/api/v1/datasets/{name}"),
        body: String::new(),
    }
}

fn release_on(name: &str, draw: (f64, f64), seed: u64) -> Op {
    Op {
        kind: Kind::Release,
        dataset: Some(name.to_string()),
        draw,
        method: "POST",
        path: format!("/api/v1/datasets/{name}/estimate"),
        body: format!(r#"{{"params":{{"epsilon":{},"delta":{}}},"seed":{seed}}}"#, draw.0, draw.1),
    }
}
