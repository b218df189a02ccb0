//! The interprocedural passes: DET-10 (determinism taint), the
//! lock-order cycle search (LOCK-01 within functions, LOCK-02 across
//! calls) and ARITH-02 (unchecked arithmetic on quantity-function
//! results).
//!
//! All three walk the [`crate::graph::CallGraph`] with `BTreeMap`-only
//! state and deterministic iteration order, so the findings — including
//! their call-path evidence — are bit-identical for any job count.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::facts::{Event, FileFacts};
use crate::graph::CallGraph;
use crate::lints::{Finding, PathStep};

/// DET-10 skips the benchmark harness entirely — neither its sinks nor
/// its sources participate (measuring wall clock and reading the
/// environment is the crate's whole point).
const DET10_EXEMPT_CRATES: &[&str] = &["bench"];

/// The sanctioned wall-clock module: sources inside it never taint
/// (mirrors DET-02's carve-out).
const DET10_EXEMPT_FILES: &[(&str, &str)] = &[("exec", "src/metrics.rs")];

/// LOCK-01 / LOCK-02 scope: the crates owning the workspace's locks.
const LOCK_CRATES: &[&str] = &["exec", "serve"];

/// ARITH-02 scope: crates deriving pattern counts, widths and times.
const ARITH02_CRATES: &[&str] = &["tam", "wrapper", "patterns"];

/// Crates where ARITH-01 already flags every bare narrowing cast, so
/// ARITH-02 skips its `as` form there to avoid double-reporting.
const ARITH01_CAST_CRATES: &[&str] = crate::lints::CAST_CRATES;

fn det10_exempt_file(file: &FileFacts) -> bool {
    DET10_EXEMPT_FILES
        .iter()
        .any(|&(c, r)| file.crate_dir == c && file.rel_path == r)
}

/// DET-10: for every function containing a determinism-critical sink,
/// search the call graph for a reachable nondeterminism source and
/// report the shortest source→sink call path. One finding per
/// (sink function, source file) so a source-site waiver in one file
/// cannot shadow an unwaived source in another.
#[must_use]
pub fn det10(facts: &[FileFacts], graph: &CallGraph) -> Vec<Finding> {
    let mut out = Vec::new();
    for n in 0..graph.nodes.len() {
        let file = graph.file(facts, n);
        let fact = graph.fact(facts, n);
        if !file.is_src
            || DET10_EXEMPT_CRATES.contains(&file.crate_dir.as_str())
            || fact.sinks.is_empty()
        {
            continue;
        }
        // BFS for shortest paths; edges are sorted, so ties break
        // deterministically.
        let mut parent: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::new();
        seen.insert(n);
        queue.push_back(n);
        // First source hit per source *file*.
        let mut hits: BTreeMap<usize, usize> = BTreeMap::new();
        while let Some(cur) = queue.pop_front() {
            let cur_file = graph.file(facts, cur);
            if !graph.fact(facts, cur).sources.is_empty()
                && !det10_exempt_file(cur_file)
                && !DET10_EXEMPT_CRATES.contains(&cur_file.crate_dir.as_str())
            {
                hits.entry(graph.nodes[cur].file).or_insert(cur);
            }
            for edge in &graph.edges[cur] {
                if seen.insert(edge.to) {
                    parent.insert(edge.to, (cur, edge.line));
                    queue.push_back(edge.to);
                }
            }
        }
        let (sink_kind, sink_line) = fact.sinks[0].clone();
        for (_, target) in hits {
            out.push(det10_finding(
                facts, graph, n, target, &parent, &sink_kind, sink_line,
            ));
        }
    }
    out
}

fn det10_finding(
    facts: &[FileFacts],
    graph: &CallGraph,
    sink: usize,
    source: usize,
    parent: &BTreeMap<usize, (usize, usize)>,
    sink_kind: &str,
    sink_line: usize,
) -> Finding {
    // Reconstruct sink → source.
    let mut chain = vec![source];
    let mut cur = source;
    while cur != sink {
        let Some(&(prev, _)) = parent.get(&cur) else {
            break;
        };
        chain.push(prev);
        cur = prev;
    }
    chain.reverse(); // sink first
    let src_fact = graph.fact(facts, source);
    let src_file = graph.file(facts, source);
    let (src_kind, src_line) = src_fact
        .sources
        .first()
        .cloned()
        .unwrap_or_else(|| ("source".to_string(), src_fact.line));
    // Path steps: each hop at the call site inside that function; the
    // final step sits on the source expression itself.
    let mut path = Vec::new();
    for (i, &node) in chain.iter().enumerate() {
        let fact = graph.fact(facts, node);
        let file = graph.file(facts, node);
        let line = if i + 1 < chain.len() {
            let next = chain[i + 1];
            parent.get(&next).map(|&(_, l)| l).unwrap_or(fact.line)
        } else {
            src_line
        };
        path.push(PathStep {
            func: fact.qual_name(),
            file: file.display_path.clone(),
            line,
        });
    }
    let route: Vec<String> = chain
        .iter()
        .map(|&c| format!("`{}`", graph.fact(facts, c).qual_name()))
        .collect();
    Finding {
        lint: "DET-10",
        file: graph.file(facts, sink).display_path.clone(),
        line: sink_line,
        message: format!(
            "nondeterministic source `{src_kind}` ({}:{src_line}) reaches the \
             {sink_kind} sink in `{}` via {}",
            src_file.display_path,
            graph.fact(facts, sink).qual_name(),
            route.join(" → "),
        ),
        waiver_reason: None,
        path,
    }
}

/// Where a (function, label) transitive acquisition comes from.
#[derive(Clone, Copy, Debug)]
enum AcqOrigin {
    /// Acquired directly at this line.
    Direct(usize),
    /// Acquired somewhere inside the callee (node, call line).
    Via(usize, usize),
}

/// One witnessed label-order edge `held → acquired`.
#[derive(Clone, Debug)]
struct OrderWitness {
    /// Caller node.
    node: usize,
    /// Line where the held lock was taken.
    held_line: usize,
    /// Line of the acquisition or of the call that leads to it.
    line: usize,
    /// For cross-function edges: the first callee on the path.
    via: Option<usize>,
}

/// Qualifies `self.<field>` labels with the impl type so `self.inner`
/// in two different types cannot alias.
fn qualify(label: &str, impl_type: &str) -> String {
    match label.strip_prefix("self.") {
        Some(rest) if !impl_type.is_empty() => format!("{impl_type}.{rest}"),
        _ => label.to_string(),
    }
}

/// The lock-order search: builds the label digraph with acquisitions
/// held across call edges, finds its cycles (strongly connected label
/// groups) and reports one finding per cycle — LOCK-02 when an edge of
/// the cycle crosses a call, LOCK-01 when every edge lies inside one
/// function.
#[must_use]
pub fn lock_order(facts: &[FileFacts], graph: &CallGraph) -> Vec<Finding> {
    let in_scope = |n: usize| {
        let f = graph.file(facts, n);
        f.is_src && LOCK_CRATES.contains(&f.crate_dir.as_str())
    };
    // Transitive acquisition sets per node, with a deterministic origin
    // for path rendering.
    let mut locks: Vec<BTreeMap<String, AcqOrigin>> = vec![BTreeMap::new(); graph.nodes.len()];
    for (n, acquired) in locks.iter_mut().enumerate() {
        if !in_scope(n) {
            continue;
        }
        let fact = graph.fact(facts, n);
        for event in &fact.events {
            if let Event::Acq { label, line } = event {
                acquired
                    .entry(qualify(label, &fact.impl_type))
                    .or_insert(AcqOrigin::Direct(*line));
            }
        }
    }
    loop {
        let mut changed = false;
        for n in 0..graph.nodes.len() {
            for e in 0..graph.edges[n].len() {
                let edge = graph.edges[n][e];
                let callee_labels: Vec<String> = locks[edge.to].keys().cloned().collect();
                for label in callee_labels {
                    if let Entry::Vacant(slot) = locks[n].entry(label) {
                        slot.insert(AcqOrigin::Via(edge.to, edge.line));
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Order edges: walk each scoped function's event stream with the
    // held set (over-approximate: never released before the fn ends).
    let mut order: BTreeMap<(String, String), OrderWitness> = BTreeMap::new();
    for n in 0..graph.nodes.len() {
        if !in_scope(n) {
            continue;
        }
        let fact = graph.fact(facts, n);
        let mut held: Vec<(String, usize)> = Vec::new();
        for event in &fact.events {
            match event {
                Event::Acq { label, line } => {
                    let label = qualify(label, &fact.impl_type);
                    for (h, hl) in &held {
                        if *h != label {
                            order
                                .entry((h.clone(), label.clone()))
                                .or_insert(OrderWitness {
                                    node: n,
                                    held_line: *hl,
                                    line: *line,
                                    via: None,
                                });
                        }
                    }
                    held.push((label, *line));
                }
                Event::Call {
                    kind,
                    qualifier,
                    name,
                    line,
                    ..
                } => {
                    if held.is_empty() {
                        continue;
                    }
                    for to in graph.resolve(facts, n, *kind, qualifier, name) {
                        for label in locks[to].keys() {
                            for (h, hl) in &held {
                                if h != label {
                                    order.entry((h.clone(), label.clone())).or_insert(
                                        OrderWitness {
                                            node: n,
                                            held_line: *hl,
                                            line: *line,
                                            via: Some(to),
                                        },
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    // Strongly connected label groups via transitive closure.
    let mut reach: BTreeMap<&String, BTreeSet<&String>> = BTreeMap::new();
    for (a, b) in order.keys().map(|(a, b)| (a, b)) {
        reach.entry(a).or_default().insert(b);
        reach.entry(b).or_default();
    }
    loop {
        let mut changed = false;
        let labels: Vec<&String> = reach.keys().copied().collect();
        for &a in &labels {
            let next: BTreeSet<&String> = reach[&a]
                .iter()
                .flat_map(|&b| reach[&b].iter().copied())
                .collect();
            for b in next {
                if reach.get_mut(a).is_some_and(|s| s.insert(b)) {
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    let mut assigned: BTreeSet<&String> = BTreeSet::new();
    let mut out = Vec::new();
    let labels: Vec<&String> = reach.keys().copied().collect();
    for &a in &labels {
        if assigned.contains(a) {
            continue;
        }
        let scc: Vec<&String> = labels
            .iter()
            .copied()
            .filter(|&b| a == b || (reach[&a].contains(b) && reach[&b].contains(a)))
            .collect();
        if scc.len() < 2 {
            continue;
        }
        assigned.extend(scc.iter().copied());
        // Internal edges of the cycle, cross-function ones first.
        let internal: Vec<(&(String, String), &OrderWitness)> = order
            .iter()
            .filter(|((x, y), _)| scc.contains(&x) && scc.contains(&y))
            .collect();
        out.push(match internal.iter().find(|(_, w)| w.via.is_some()) {
            Some(&((held, acquired), w)) => {
                lock02_finding(facts, graph, &locks, &scc, held, acquired, w)
            }
            None => lock01_finding(facts, graph, &scc, &internal),
        });
    }
    out
}

/// LOCK-01: a cycle with no call edge, reported at the witness of its
/// first edge in label order; the message lists every edge's witness.
fn lock01_finding(
    facts: &[FileFacts],
    graph: &CallGraph,
    scc: &[&String],
    internal: &[(&(String, String), &OrderWitness)],
) -> Finding {
    let file = |w: &OrderWitness| graph.file(facts, w.node).display_path.clone();
    let edges: Vec<String> = internal
        .iter()
        .map(|((held, acquired), w)| {
            let func = graph.fact(facts, w.node).qual_name();
            format!(
                "`{held}` before `{acquired}` in fn `{func}` ({}:{})",
                file(w),
                w.line
            )
        })
        .collect();
    let cycle: Vec<String> = scc.iter().map(|l| format!("`{l}`")).collect();
    let first = internal.first().map(|&(_, w)| w);
    Finding {
        lint: "LOCK-01",
        file: first.map(file).unwrap_or_default(),
        line: first.map_or(0, |w| w.line),
        message: format!(
            "lock-order cycle among {{{}}} with every edge inside one function: {}",
            cycle.join(", "),
            edges.join(", "),
        ),
        waiver_reason: None,
        path: Vec::new(),
    }
}

#[allow(clippy::too_many_arguments)]
fn lock02_finding(
    facts: &[FileFacts],
    graph: &CallGraph,
    locks: &[BTreeMap<String, AcqOrigin>],
    scc: &[&String],
    held: &str,
    acquired: &str,
    w: &OrderWitness,
) -> Finding {
    let caller = graph.fact(facts, w.node);
    let caller_file = graph.file(facts, w.node).display_path.clone();
    let mut path = vec![
        PathStep {
            func: caller.qual_name(),
            file: caller_file.clone(),
            line: w.held_line,
        },
        PathStep {
            func: caller.qual_name(),
            file: caller_file.clone(),
            line: w.line,
        },
    ];
    // Chase the acquisition to its direct site for the evidence chain.
    let mut via_names = Vec::new();
    let mut cur = w.via;
    while let Some(node) = cur {
        let fact = graph.fact(facts, node);
        via_names.push(format!("`{}`", fact.qual_name()));
        match locks[node].get(acquired) {
            Some(AcqOrigin::Direct(line)) => {
                path.push(PathStep {
                    func: fact.qual_name(),
                    file: graph.file(facts, node).display_path.clone(),
                    line: *line,
                });
                cur = None;
            }
            Some(AcqOrigin::Via(next, line)) => {
                path.push(PathStep {
                    func: fact.qual_name(),
                    file: graph.file(facts, node).display_path.clone(),
                    line: *line,
                });
                cur = Some(*next);
            }
            None => cur = None,
        }
    }
    let cycle: Vec<String> = scc.iter().map(|l| format!("`{l}`")).collect();
    Finding {
        lint: "LOCK-02",
        file: caller_file,
        line: w.line,
        message: format!(
            "lock-order cycle among {{{}}}: `{held}` is held in fn `{}` while \
             the call at line {} acquires `{acquired}` via {} — the reverse \
             order elsewhere closes the cycle",
            cycle.join(", "),
            caller.qual_name(),
            w.line,
            via_names.join(" → "),
        ),
        waiver_reason: None,
        path,
    }
}

/// ARITH-02: unchecked `+`/`*`/narrowing-`as` applied to the result of
/// a call that resolves to a workspace quantity function.
#[must_use]
pub fn arith02(facts: &[FileFacts], graph: &CallGraph) -> Vec<Finding> {
    let mut out = Vec::new();
    for n in 0..graph.nodes.len() {
        let file = graph.file(facts, n);
        if !file.is_src || !ARITH02_CRATES.contains(&file.crate_dir.as_str()) {
            continue;
        }
        let fact = graph.fact(facts, n);
        for event in &fact.events {
            let Event::Call {
                kind,
                qualifier,
                name,
                line,
                arith,
            } = event
            else {
                continue;
            };
            if arith.is_empty() {
                continue;
            }
            if arith.starts_with("as ") && ARITH01_CAST_CRATES.contains(&file.crate_dir.as_str()) {
                continue; // ARITH-01 already flags the bare cast
            }
            let Some(callee) = graph
                .resolve(facts, n, *kind, qualifier, name)
                .into_iter()
                .find(|&c| graph.fact(facts, c).quantity)
            else {
                continue;
            };
            let callee_fact = graph.fact(facts, callee);
            let callee_file = graph.file(facts, callee);
            out.push(Finding {
                lint: "ARITH-02",
                file: file.display_path.clone(),
                line: *line,
                message: format!(
                    "unchecked `{arith}` on the result of quantity fn `{}` \
                     ({}:{}) across a function boundary — use \
                     saturating_add/saturating_mul or a checked cast",
                    callee_fact.qual_name(),
                    callee_file.display_path,
                    callee_fact.line,
                ),
                waiver_reason: None,
                path: vec![
                    PathStep {
                        func: fact.qual_name(),
                        file: file.display_path.clone(),
                        line: *line,
                    },
                    PathStep {
                        func: callee_fact.qual_name(),
                        file: callee_file.display_path.clone(),
                        line: callee_fact.line,
                    },
                ],
            });
        }
    }
    out
}
