//! GridNPB 3.0 workflow traffic models.
//!
//! The NAS Grid Benchmarks compose slightly modified NPB solvers into
//! dataflow graphs; each graph node computes and then forwards
//! initialization data to its successors (van der Wijngaart & Frumkin,
//! NAS-02-005). The paper runs the Helical Chain (HC), Visualization
//! Pipeline (VP), and Mixed Bag (MB) graphs at class S. We reproduce the
//! three graph shapes with configurable transfer sizes and compute
//! times; the traffic shape (sparser, pipelined, less communication than
//! ScaLapack) is what the load-balance evaluation depends on.

use crate::{tag, untag};
use massf_engine::{LpId, SimTime};
use massf_netsim::{AppLogic, FlowId, NetEvent, SimApi};
use massf_topology::NodeId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One workflow task.
#[derive(Debug, Clone)]
pub struct WorkflowTask {
    /// Index into the host list where the task runs.
    pub host: usize,
    /// Local compute time before outputs are sent.
    pub compute: SimTime,
    /// `(successor task index, transfer bytes)` pairs.
    pub successors: Vec<(usize, u64)>,
}

/// A complete workflow: tasks plus the hosts they run on.
#[derive(Debug, Clone)]
pub struct WorkflowSpec {
    pub name: &'static str,
    pub hosts: Vec<NodeId>,
    pub tasks: Vec<WorkflowTask>,
}

impl WorkflowSpec {
    /// In-degree of every task.
    pub fn indegrees(&self) -> Vec<usize> {
        let mut d = vec![0usize; self.tasks.len()];
        for t in &self.tasks {
            for &(s, _) in &t.successors {
                d[s] += 1;
            }
        }
        d
    }

    /// Sink tasks (no successors).
    pub fn sinks(&self) -> Vec<usize> {
        (0..self.tasks.len())
            .filter(|&i| self.tasks[i].successors.is_empty())
            .collect()
    }

    /// Validate: successor indices in range, DAG (no cycles), every task
    /// host within the host list.
    pub fn validate(&self) {
        let n = self.tasks.len();
        for (i, t) in self.tasks.iter().enumerate() {
            assert!(t.host < self.hosts.len(), "task {i} host out of range");
            for &(s, _) in &t.successors {
                assert!(s < n, "task {i} successor {s} out of range");
            }
        }
        // Kahn's algorithm detects cycles.
        let mut deg = self.indegrees();
        let mut queue: Vec<usize> = (0..n).filter(|&i| deg[i] == 0).collect();
        let mut seen = 0;
        while let Some(i) = queue.pop() {
            seen += 1;
            for &(s, _) in &self.tasks[i].successors {
                deg[s] -= 1;
                if deg[s] == 0 {
                    queue.push(s);
                }
            }
        }
        assert_eq!(seen, n, "workflow graph has a cycle");
    }
}

/// Helical Chain: `width · rounds` tasks in a single chain that cycles
/// over `width` hosts (BT → SP → LU → BT → …). The paper uses width 3,
/// 3 rounds (9 tasks).
pub fn helical_chain(
    hosts: Vec<NodeId>,
    rounds: usize,
    bytes: u64,
    compute: SimTime,
) -> WorkflowSpec {
    let width = hosts.len();
    assert!(width >= 1 && rounds >= 1);
    let n = width * rounds;
    let tasks = (0..n)
        .map(|i| WorkflowTask {
            host: i % width,
            compute,
            successors: if i + 1 < n {
                vec![(i + 1, bytes)]
            } else {
                vec![]
            },
        })
        .collect();
    WorkflowSpec {
        name: "HC",
        hosts,
        tasks,
    }
}

/// Visualization Pipeline: `stages` pipelined triples BT → MG → FT; the
/// BT of frame `f+1` depends on the BT of frame `f` (pipelining), and
/// each stage feeds the next within the frame.
pub fn visualization_pipeline(
    hosts: Vec<NodeId>,
    frames: usize,
    bytes: u64,
    compute: SimTime,
) -> WorkflowSpec {
    assert!(hosts.len() >= 3, "VP needs at least 3 hosts");
    assert!(frames >= 1);
    // Task layout: frame f has tasks 3f (BT), 3f+1 (MG), 3f+2 (FT).
    let mut tasks = Vec::with_capacity(3 * frames);
    for f in 0..frames {
        let base = 3 * f;
        // BT
        let mut succ = vec![(base + 1, bytes)];
        if f + 1 < frames {
            succ.push((base + 3, bytes)); // next frame's BT
        }
        tasks.push(WorkflowTask {
            host: 0,
            compute,
            successors: succ,
        });
        // MG
        tasks.push(WorkflowTask {
            host: 1,
            compute,
            successors: vec![(base + 2, bytes / 2)],
        });
        // FT (sink of the frame)
        tasks.push(WorkflowTask {
            host: 2,
            compute,
            successors: vec![],
        });
    }
    WorkflowSpec {
        name: "VP",
        hosts,
        tasks,
    }
}

/// Mixed Bag: `layers` of three tasks (LU, MG, FT) where every task of
/// layer `l` feeds every task of layer `l+1` with asymmetric sizes.
pub fn mixed_bag(hosts: Vec<NodeId>, layers: usize, bytes: u64, compute: SimTime) -> WorkflowSpec {
    assert!(hosts.len() >= 3, "MB needs at least 3 hosts");
    assert!(layers >= 1);
    let per = 3usize;
    let mut tasks = Vec::with_capacity(per * layers);
    for l in 0..layers {
        for j in 0..per {
            let mut successors = Vec::new();
            if l + 1 < layers {
                for j2 in 0..per {
                    // Asymmetric transfer sizes ("mixed bag").
                    let b = bytes / (1 + ((j + j2) % 3) as u64);
                    successors.push(((l + 1) * per + j2, b));
                }
            }
            tasks.push(WorkflowTask {
                host: j % hosts.len(),
                compute,
                successors,
            });
        }
    }
    WorkflowSpec {
        name: "MB",
        hosts,
        tasks,
    }
}

/// The dataflow execution engine for a [`WorkflowSpec`].
#[derive(Clone)]
pub struct WorkflowApp {
    spec: Arc<WorkflowSpec>,
    ns: u8,
    /// Remaining unsatisfied inputs per task (kept at the task's host).
    waiting: BTreeMap<usize, usize>,
    /// Flow → (successor task) mapping at the flow's source host.
    flow_edge: BTreeMap<FlowId, usize>,
    /// Tasks completed (their outputs fully delivered or none).
    pub tasks_done: u32,
    /// Sinks completed so far.
    sinks_done: usize,
    /// Virtual time the last sink finished computing.
    pub finished_at: Option<SimTime>,
}

const CTRL_BYTES: u32 = 64;

impl WorkflowApp {
    /// Build with app namespace `ns`. Validates the spec.
    pub fn new(spec: WorkflowSpec, ns: u8) -> Self {
        spec.validate();
        WorkflowApp {
            spec: Arc::new(spec),
            ns,
            waiting: BTreeMap::new(),
            flow_edge: BTreeMap::new(),
            tasks_done: 0,
            sinks_done: 0,
            finished_at: None,
        }
    }

    /// The workflow definition.
    pub fn spec(&self) -> &WorkflowSpec {
        &self.spec
    }

    /// Source tasks start computing at t = 0.
    pub fn initial_events(&self) -> Vec<(SimTime, LpId, NetEvent)> {
        let deg = self.spec.indegrees();
        (0..self.spec.tasks.len())
            .filter(|&i| deg[i] == 0)
            .map(|i| {
                let t = &self.spec.tasks[i];
                (
                    t.compute,
                    LpId(self.spec.hosts[t.host].0),
                    NetEvent::AppTimer {
                        token: tag(self.ns, i as u64),
                    },
                )
            })
            .collect()
    }

    /// A task finished computing at its host: ship outputs.
    fn task_computed(&mut self, task: usize, api: &mut SimApi<'_, '_>) {
        let spec = self.spec.clone();
        let t = &spec.tasks[task];
        self.tasks_done += 1;
        if t.successors.is_empty() {
            self.sinks_done += 1;
            if self.sinks_done == spec.sinks().len() {
                self.finished_at = Some(api.now());
            }
            return;
        }
        for &(succ, bytes) in &t.successors {
            let dst = spec.hosts[spec.tasks[succ].host];
            if dst == api.host() {
                // Same-host edge: input satisfied immediately.
                self.input_arrived(succ, api);
            } else {
                match api.start_tcp_flow(dst, bytes) {
                    Some(flow) => {
                        self.flow_edge.insert(flow, succ);
                    }
                    None => {
                        // Unroutable edge (possible under BGP policy):
                        // deliver the dependency notification directly so
                        // the workflow still terminates; the bytes simply
                        // never hit the network.
                        self.input_arrived(succ, api);
                    }
                }
            }
        }
    }

    /// One input of `task` became available at its host.
    fn input_arrived(&mut self, task: usize, api: &mut SimApi<'_, '_>) {
        let deg = self.spec.indegrees()[task];
        let need = self.waiting.entry(task).or_insert(deg);
        *need -= 1;
        if *need == 0 {
            self.waiting.remove(&task);
            api.set_timer(self.spec.tasks[task].compute, tag(self.ns, task as u64));
        }
    }
}

impl AppLogic for WorkflowApp {
    fn on_timer(&mut self, _host: NodeId, token: u64, api: &mut SimApi<'_, '_>) {
        let (ns, task) = untag(token);
        if ns != self.ns {
            return;
        }
        self.task_computed(task as usize, api);
    }

    fn on_flow_complete(&mut self, _host: NodeId, flow: FlowId, api: &mut SimApi<'_, '_>) {
        let Some(succ) = self.flow_edge.remove(&flow) else {
            return; // not ours
        };
        // Data fully acknowledged: notify the successor's host.
        let dst = self.spec.hosts[self.spec.tasks[succ].host];
        if dst == api.host() {
            self.input_arrived(succ, api);
        } else {
            api.send_datagram(dst, CTRL_BYTES, tag(self.ns, succ as u64));
        }
    }

    fn on_datagram(
        &mut self,
        _host: NodeId,
        _from: FlowId,
        _bytes: u32,
        meta: u64,
        api: &mut SimApi<'_, '_>,
    ) {
        let (ns, task) = untag(meta);
        if ns != self.ns {
            return;
        }
        self.input_arrived(task as usize, api);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_netsim::NetSimBuilder;
    use massf_routing::{CostMetric, FlatResolver};
    use massf_topology::{generate_flat_network, FlatTopologyConfig};

    fn run_spec(spec: WorkflowSpec) -> WorkflowApp {
        let net = generate_flat_network(&FlatTopologyConfig::tiny());
        let resolver = Arc::new(FlatResolver::new(&net, CostMetric::Latency));
        let app = WorkflowApp::new(spec, 3);
        let mut builder = NetSimBuilder::new(net, resolver);
        builder.add_initial_events(app.initial_events());
        let out = builder.run_sequential(app, SimTime::from_secs(600));
        out.apps.into_iter().next().expect("one app was registered")
    }

    fn hosts(n: usize) -> Vec<NodeId> {
        let net = generate_flat_network(&FlatTopologyConfig::tiny());
        net.host_ids().into_iter().take(n).collect()
    }

    #[test]
    fn hc_structure() {
        let spec = helical_chain(hosts(3), 3, 100_000, SimTime::from_ms(50));
        spec.validate();
        assert_eq!(spec.tasks.len(), 9);
        assert_eq!(spec.sinks(), vec![8]);
        assert_eq!(spec.indegrees()[0], 0);
        assert!(spec.indegrees()[1..].iter().all(|&d| d == 1));
    }

    #[test]
    fn vp_structure() {
        let spec = visualization_pipeline(hosts(3), 3, 100_000, SimTime::from_ms(50));
        spec.validate();
        assert_eq!(spec.tasks.len(), 9);
        assert_eq!(spec.sinks().len(), 3, "one FT sink per frame");
        // Frame 0 BT feeds MG0 and BT1.
        assert_eq!(spec.tasks[0].successors.len(), 2);
    }

    #[test]
    fn mb_structure() {
        let spec = mixed_bag(hosts(3), 3, 90_000, SimTime::from_ms(50));
        spec.validate();
        assert_eq!(spec.tasks.len(), 9);
        // Middle layers have full bipartite fan-out.
        assert_eq!(spec.tasks[0].successors.len(), 3);
        assert_eq!(spec.indegrees()[8], 3);
    }

    #[test]
    fn hc_runs_to_completion() {
        let app = run_spec(helical_chain(hosts(3), 3, 50_000, SimTime::from_ms(20)));
        assert_eq!(app.tasks_done, 9);
        assert!(app.finished_at.is_some());
    }

    #[test]
    fn vp_runs_to_completion() {
        let app = run_spec(visualization_pipeline(
            hosts(3),
            3,
            50_000,
            SimTime::from_ms(20),
        ));
        assert_eq!(app.tasks_done, 9);
        assert!(app.finished_at.is_some());
    }

    #[test]
    fn mb_runs_to_completion() {
        let app = run_spec(mixed_bag(hosts(4), 3, 50_000, SimTime::from_ms(20)));
        assert_eq!(app.tasks_done, 9);
        assert!(app.finished_at.is_some());
    }

    #[test]
    fn chain_makespan_exceeds_sum_of_computes() {
        let compute = SimTime::from_ms(30);
        let app = run_spec(helical_chain(hosts(3), 2, 50_000, compute));
        // 6 tasks in a strict chain: makespan ≥ 6 × compute.
        assert!(app.finished_at.expect("chain finishes") >= compute * 6);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_detected() {
        let spec = WorkflowSpec {
            name: "bad",
            hosts: hosts(2),
            tasks: vec![
                WorkflowTask {
                    host: 0,
                    compute: SimTime::from_ms(1),
                    successors: vec![(1, 10)],
                },
                WorkflowTask {
                    host: 1,
                    compute: SimTime::from_ms(1),
                    successors: vec![(0, 10)],
                },
            ],
        };
        WorkflowApp::new(spec, 0);
    }
}
