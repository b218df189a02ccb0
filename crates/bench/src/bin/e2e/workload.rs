//! The four workloads and their seeded request lists.
//!
//! A workload is a fixed cycle of requests. The timed pass runs whole
//! cycles, so every run, on every commit, measures the same mix; the
//! workload seed picks the cycle's order and the requests' seeds. Each
//! cycle is composed so that its median request sits inside a block of
//! similar requests rather than on the edge between two very different
//! ones, which keeps the median steady from seed to seed.

use soctam::Benchmark;

/// Worker threads for every program under test (`--jobs`), the
/// in-process pool, and the number of client connections of the serve
/// workloads: the machine this benchmark was sized on has two cores.
pub const JOBS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CliLarge,
    ServeOptimizer,
    ServeJobs,
    Table3,
}

pub const ALL: [Workload; 4] = [
    Workload::CliLarge,
    Workload::ServeOptimizer,
    Workload::ServeJobs,
    Workload::Table3,
];

/// How the requests reach the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Front {
    /// One `soctam` process per request, one at a time.
    Cli,
    /// A `soctam-serve` daemon with [`JOBS`] client connections.
    Serve { journal: bool },
}

/// How a serve request is made: a blocking tool call, or an async job
/// polled to completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Sync,
    Job,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tool {
    Optimize {
        patterns: usize,
        width: u32,
        partitions: u32,
        baseline: bool,
    },
    /// The paper's full sweep (`W_max` 8..64, `i` 1, 2, 4, 8).
    Table { patterns: usize },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    pub soc: Benchmark,
    pub tool: Tool,
    pub seed: u64,
    pub mode: Mode,
}

impl Request {
    fn optimize(soc: Benchmark, patterns: usize, width: u32, partitions: u32) -> Request {
        Request {
            soc,
            tool: Tool::Optimize {
                patterns,
                width,
                partitions,
                baseline: false,
            },
            seed: 0,
            mode: Mode::Sync,
        }
    }

    fn baseline(mut self) -> Request {
        if let Tool::Optimize { baseline, .. } = &mut self.tool {
            *baseline = true;
        }
        self
    }

    pub fn tool_name(&self) -> &'static str {
        match self.tool {
            Tool::Optimize { .. } => "optimize",
            Tool::Table { .. } => "table",
        }
    }

    /// The `soctam` command line for this request.
    pub fn cli_args(&self) -> Vec<String> {
        let mut args: Vec<String> = vec![self.tool_name().into(), self.soc.name().into()];
        let mut flag = |name: &str, value: String| {
            args.push(format!("--{name}"));
            args.push(value);
        };
        match self.tool {
            Tool::Optimize {
                patterns,
                width,
                partitions,
                baseline,
            } => {
                flag("patterns", patterns.to_string());
                flag("width", width.to_string());
                flag("partitions", partitions.to_string());
                flag("seed", self.seed.to_string());
                flag("jobs", JOBS.to_string());
                if baseline {
                    args.push("--baseline".into());
                }
            }
            Tool::Table { patterns } => {
                flag("patterns", patterns.to_string());
                flag("seed", self.seed.to_string());
                flag("jobs", JOBS.to_string());
            }
        }
        args
    }

    /// The daemon request body for this request.
    pub fn json_body(&self) -> String {
        let params = match self.tool {
            Tool::Optimize {
                patterns,
                width,
                partitions,
                baseline,
            } => format!(
                r#"{{"patterns":{patterns},"width":{width},"partitions":{partitions},"seed":{},"baseline":{baseline}}}"#,
                self.seed
            ),
            Tool::Table { patterns } => {
                format!(r#"{{"patterns":{patterns},"seed":{}}}"#, self.seed)
            }
        };
        format!(r#"{{"soc":"{}","params":{params}}}"#, self.soc.name())
    }

    /// A short label such as `p93791/100000/64/4` for reports.
    pub fn label(&self) -> String {
        match self.tool {
            Tool::Optimize {
                patterns,
                width,
                partitions,
                baseline,
            } => format!(
                "{}/{patterns}/{width}/{partitions}{}",
                self.soc.name(),
                if baseline { "/baseline" } else { "" }
            ),
            Tool::Table { patterns } => format!("table {}/{patterns}", self.soc.name()),
        }
    }
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::CliLarge => "cli-large",
            Workload::ServeOptimizer => "serve-optimizer",
            Workload::ServeJobs => "serve-jobs",
            Workload::Table3 => "table3",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn front(self) -> Front {
        match self {
            Workload::CliLarge | Workload::Table3 => Front::Cli,
            Workload::ServeOptimizer => Front::Serve { journal: false },
            Workload::ServeJobs => Front::Serve { journal: true },
        }
    }

    /// Requests traced in-process for the per-layer metrics, and how
    /// many of those are also sent through the CLI and idle daemons for
    /// the front-end overhead metrics.
    pub fn traced_counts(self) -> (usize, usize) {
        match self {
            Workload::CliLarge => (10, 3),
            Workload::ServeOptimizer => (24, 4),
            Workload::ServeJobs => (24, 6),
            Workload::Table3 => (2, 1),
        }
    }

    /// Leading cycles of the list whose distinct requests the gate
    /// re-derives in-process: enough answers for a steady
    /// `t_soc_over_lb`.
    fn gate_cycles(self) -> usize {
        match self {
            Workload::CliLarge => 3,
            _ => 1,
        }
    }

    /// One cycle's requests, before shuffling and seeding.
    fn shapes(self) -> Vec<Request> {
        use Benchmark::{D695, P34392, P93791};
        let opt = Request::optimize;
        match self {
            // Compaction-dominated: the reference request p93791 at
            // N_r = 100 000 with i = 4, where the horizontal stage is
            // about half the request. Only the width varies: it moves
            // the optimizer's share, not the compaction's.
            Workload::CliLarge => [32, 48, 64]
                .into_iter()
                .map(|w| opt(P93791, 100_000, w, 4))
                .collect(),
            // Optimizer-dominated: i = 1 bypasses the hypergraph and
            // N_r = 2 000 keeps compaction small; a quarter of the
            // requests optimize the InTest-only baseline.
            Workload::ServeOptimizer => {
                let n = 2_000;
                vec![
                    opt(P34392, n, 48, 1).baseline(),
                    opt(P34392, n, 64, 1).baseline(),
                    opt(P93791, n, 56, 1).baseline(),
                    opt(P34392, n, 64, 1),
                    opt(P93791, n, 48, 1),
                    opt(P93791, n, 56, 1),
                    opt(P93791, n, 56, 1),
                    opt(P93791, n, 56, 1),
                    opt(P93791, n, 64, 1),
                    opt(P93791, n, 64, 1),
                    opt(P93791, n, 64, 1),
                    opt(P93791, n, 64, 1),
                ]
            }
            // A working set of 40 repeated requests that the daemon's
            // shared evaluator cache can serve warm, at W 32 and 64: two
            // seeds each of d695 and p93791, sixteen of p34392. Sorted
            // by latency, the 32 p34392 requests hold the median. The
            // partitioner's cost varies by ±15 % from seed to seed, so
            // the many p34392 seeds keep the median from following the
            // few seeds a smaller set would draw.
            Workload::ServeJobs => [(D695, 2), (P34392, 16), (P93791, 2)]
                .into_iter()
                .flat_map(|(soc, seeds)| {
                    [32, 64]
                        .into_iter()
                        .flat_map(move |w| vec![opt(soc, 10_000, w, 4); seeds])
                })
                .collect(),
            Workload::Table3 => vec![Request {
                soc: P93791,
                tool: Tool::Table { patterns: 100_000 },
                seed: 0,
                mode: Mode::Sync,
            }],
        }
    }
}

/// splitmix64: the benchmark's own generator, so that its inputs never
/// change with the program's RNG.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A request seed: small enough to read, and exact in JSON.
    fn request_seed(&mut self) -> u64 {
        self.next_u64() % 1_000_000_000
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Distinct, reproducible generator streams for one plan.
fn stream(seed: u64, workload: Workload, purpose: u64) -> SplitMix {
    let salt = workload as u64 + 1;
    let mut mix = SplitMix::new(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
    SplitMix::new(mix.next_u64() ^ purpose.wrapping_mul(0xE703_7ED1_A0B4_28DB))
}

const CYCLE_STREAM: u64 = 1;
const FRESH_STREAM: u64 = 2;
const WARMUP_STREAM: u64 = 3;
/// The seed of the warm-up requests, whatever the workload seed.
const WARMUP_SEED: u64 = 2007;

/// The request list of one run: an endless repetition of one cycle.
#[derive(Clone, Debug)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    cycle: Vec<Request>,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let mut rng = stream(seed, workload, CYCLE_STREAM);
        let mut shapes = workload.shapes();
        for i in (1..shapes.len()).rev() {
            shapes.swap(i, rng.below(i + 1));
        }
        for shape in &mut shapes {
            shape.seed = rng.request_seed();
        }
        let cycle = if workload == Workload::ServeJobs {
            // Each shape once as a blocking call and once as a job, the
            // two kinds alternating along the list.
            (0..2)
                .flat_map(|round| {
                    shapes.iter().enumerate().map(move |(i, shape)| Request {
                        mode: if (i + round) % 2 == 1 {
                            Mode::Job
                        } else {
                            Mode::Sync
                        },
                        ..*shape
                    })
                })
                .collect()
        } else {
            shapes
        };
        Plan {
            workload,
            seed,
            cycle,
        }
    }

    pub fn cycle_len(&self) -> usize {
        self.cycle.len()
    }

    /// Requests per measurement window: whole cycles, about a second.
    pub fn window_len(&self) -> usize {
        let cycles = match self.workload {
            Workload::ServeOptimizer => 10,
            _ => 1,
        };
        cycles * self.cycle.len()
    }

    /// Whether a later cycle repeats the first one exactly. Only
    /// `serve-jobs` does, to be served from the daemon's cache; every
    /// other request gets a fresh seed. The partitioner's running time
    /// varies a lot from seed to seed, so a run that sampled only a few
    /// seeds would measure those seeds rather than the workload.
    pub fn repeats(&self) -> bool {
        self.workload == Workload::ServeJobs
    }

    /// Request `index` of the endless list.
    pub fn request(&self, index: usize) -> Request {
        let mut request = self.cycle[index % self.cycle.len()];
        if !self.repeats() && index >= self.cycle.len() {
            let mut rng = stream(self.seed, self.workload, FRESH_STREAM);
            let mut mix = SplitMix::new(rng.next_u64() ^ index as u64);
            request.seed = mix.request_seed();
        }
        request
    }

    /// The untimed requests that end each set-up: they let lazy
    /// initialisation finish and, for `serve-jobs`, fill the daemon's
    /// cache with the working set. Except for that working set they do
    /// not depend on the workload seed, so that set-up time does not
    /// follow the partitioner's seed-dependent cost.
    pub fn warmup(&self) -> Vec<Request> {
        if self.workload == Workload::ServeJobs {
            return self
                .cycle
                .iter()
                .filter(|r| r.mode == Mode::Sync)
                .copied()
                .collect();
        }
        let mut rng = stream(WARMUP_SEED, self.workload, WARMUP_STREAM);
        let mut shapes = self.workload.shapes();
        if self.workload == Workload::CliLarge {
            shapes.truncate(1);
        }
        shapes
            .into_iter()
            .map(|r| Request {
                seed: rng.request_seed(),
                ..r
            })
            .collect()
    }

    /// The requests the correctness gate re-derives in-process: the
    /// distinct requests of the leading cycles, with their list
    /// positions. A blocking call and a job of the same request count
    /// once.
    pub fn gated(&self) -> Vec<(usize, Request)> {
        let mut seen: Vec<(usize, Request)> = Vec::new();
        for i in 0..self.workload.gate_cycles() * self.cycle.len() {
            let r = self.request(i);
            let same = |s: &(usize, Request)| {
                Request {
                    mode: s.1.mode,
                    ..r
                } == s.1
            };
            if !seen.iter().any(same) {
                seen.push((i, r));
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(plan: &Plan, n: usize) -> Vec<Request> {
        (0..n).map(|i| plan.request(i)).collect()
    }

    #[test]
    fn request_lists_are_deterministic_and_follow_the_seed() {
        for workload in ALL {
            let n = 3 * Plan::new(workload, 1).cycle_len();
            let a = list(&Plan::new(workload, 2007), n);
            assert_eq!(
                a,
                list(&Plan::new(workload, 2007), n),
                "{}",
                workload.name()
            );
            assert_ne!(
                a,
                list(&Plan::new(workload, 2008), n),
                "{}",
                workload.name()
            );
            assert_eq!(
                Plan::new(workload, 2007).warmup(),
                Plan::new(workload, 2007).warmup()
            );
        }
    }

    #[test]
    fn the_seed_changes_order_and_seeds_but_not_the_mix() {
        for workload in ALL {
            let shape = |r: &Request| (r.soc, r.tool, r.mode);
            let n = Plan::new(workload, 1).cycle_len();
            let mut a: Vec<_> = list(&Plan::new(workload, 1), n).iter().map(shape).collect();
            let mut b: Vec<_> = list(&Plan::new(workload, 2), n).iter().map(shape).collect();
            a.sort_by_key(|s| format!("{s:?}"));
            b.sort_by_key(|s| format!("{s:?}"));
            assert_eq!(a, b, "{}", workload.name());
        }
    }

    #[test]
    fn only_serve_jobs_repeats_its_requests() {
        for workload in ALL {
            let plan = Plan::new(workload, 7);
            let l = plan.cycle_len();
            let seeds: Vec<u64> = (0..3 * l).map(|i| plan.request(i).seed).collect();
            let mut distinct = seeds.clone();
            distinct.sort_unstable();
            distinct.dedup();
            if workload == Workload::ServeJobs {
                assert_eq!(plan.request(l), plan.request(0));
                assert!(distinct.len() <= l);
            } else {
                assert_eq!(distinct.len(), seeds.len(), "{}", workload.name());
                let warm: Vec<u64> = plan.warmup().iter().map(|r| r.seed).collect();
                assert!(warm.iter().all(|s| !seeds.contains(s)));
                assert_eq!(plan.warmup(), Plan::new(workload, 8).warmup());
            }
        }
    }

    #[test]
    fn serve_jobs_alternates_kinds_over_its_working_set() {
        let plan = Plan::new(Workload::ServeJobs, 11);
        let l = plan.cycle_len();
        assert_eq!(l, 80);
        let modes: Vec<Mode> = (0..l).map(|i| plan.request(i).mode).collect();
        assert!(modes.windows(2).filter(|w| w[0] == w[1]).count() <= 1);
        assert_eq!(modes.iter().filter(|&&m| m == Mode::Job).count(), l / 2);
        assert_eq!(plan.gated().len(), l / 2);
        assert_eq!(plan.warmup().len(), l / 2);
    }

    #[test]
    fn requests_render_for_both_fronts() {
        let r = Request {
            seed: 42,
            ..Request::optimize(Benchmark::P93791, 2_000, 64, 1).baseline()
        };
        assert_eq!(
            r.cli_args().join(" "),
            "optimize p93791 --patterns 2000 --width 64 --partitions 1 --seed 42 --jobs 2 --baseline"
        );
        assert_eq!(
            r.json_body(),
            r#"{"soc":"p93791","params":{"patterns":2000,"width":64,"partitions":1,"seed":42,"baseline":true}}"#
        );
        assert_eq!(r.label(), "p93791/2000/64/1/baseline");
    }
}
