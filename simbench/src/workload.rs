//! The three workloads: how each is built from its seed, run and
//! collected, and the checks every run must pass.

use std::time::Instant;

use experiments::scenario::{GatewayKind, ScenarioWorld, TreeScenario};
use experiments::star::{build_star, BranchSpec};
use experiments::tree::{build_tree, pps_to_bps, CongestionCase};
use experiments::ScenarioSpec;
use netsim::agent::Agent;
use netsim::engine::Engine;
use netsim::id::{AgentId, ChannelId, GroupId, NodeId};
use netsim::packet::tx_nanos;
use netsim::queue::QueueConfig;
use netsim::time::{SimDuration, SimTime};
use netsim::trace::TraceDigest;
use rla::{McastReceiver, RlaConfig, RlaSender};
use tcp_sack::{TcpConfig, TcpReceiver, TcpSender};

use crate::layers::{AgentKind, Wrappers};

/// Receivers (branches) of the star workload.
const STAR_BRANCHES: usize = 100;

/// One named workload. Why each was chosen is in the benchmark's README.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure-7 case 1 with drop-tail gateways on one domain.
    TreeCase1DropTail,
    /// Case 5 with RED gateways, partitioned into two execution domains.
    TreeCase5Red2Domains,
    /// The figure-1 star with 100 lossy branches.
    StarLossy100,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::TreeCase1DropTail,
        Workload::TreeCase5Red2Domains,
        Workload::StarLossy100,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TreeCase1DropTail => "tree_case1_droptail",
            Workload::TreeCase5Red2Domains => "tree_case5_red_2domains",
            Workload::StarLossy100 => "star_lossy_100",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated seconds of one measured run. The pinned digests hold for
    /// this length only.
    pub fn sim_secs(self) -> u64 {
        match self {
            Workload::TreeCase1DropTail => 60,
            Workload::TreeCase5Red2Domains => 40,
            Workload::StarLossy100 => 16,
        }
    }

    /// How much simulated time a measured run advances between two host
    /// speed probes: about 70 ms of wall time on the reference host.
    pub fn probe_every(self) -> SimDuration {
        SimDuration::from_secs(match self {
            Workload::TreeCase1DropTail => 5,
            Workload::TreeCase5Red2Domains => 4,
            Workload::StarLossy100 => 1,
        })
    }

    /// Execution domains the workload is partitioned into. The measured
    /// runs execute them all on one thread; see the README for why.
    pub fn domains(self) -> usize {
        match self {
            Workload::TreeCase5Red2Domains => 2,
            _ => 1,
        }
    }

    /// The tree scenario on `shards` execution domains and worker
    /// threads, for the two tree workloads.
    fn scenario(self, seed: u64, secs: u64, shards: usize) -> Option<TreeScenario> {
        let (case, gateway) = match self {
            Workload::TreeCase1DropTail => (CongestionCase::Case1RootLink, GatewayKind::DropTail),
            Workload::TreeCase5Red2Domains => (CongestionCase::Case5OneLevel2, GatewayKind::Red),
            Workload::StarLossy100 => return None,
        };
        Some(
            ScenarioSpec::paper(case)
                .with_gateway(gateway)
                .with_duration(SimDuration::from_secs(secs))
                .with_seed(seed)
                .with_shards(shards)
                .build(),
        )
    }

    /// Build the world through the program's own builders: the tree
    /// workloads through `TreeScenario::build` on `domains` execution
    /// domains run by `workers` threads, the star through
    /// `experiments::star`.
    pub fn build(self, seed: u64, secs: u64, domains: usize, workers: usize) -> Built {
        let mut built = match self.scenario(seed, secs, domains) {
            Some(scenario) => {
                let world = Box::new(scenario.build());
                Built::Scenario(scenario, world)
            }
            None => assemble_star(seed, secs, None).0,
        };
        built.engine_mut().set_workers(workers);
        built
    }

    /// Build the world on one thread from public engine calls, wrapping
    /// every agent when `wrappers` is given. Returns the world and the
    /// seconds spent computing routes and multicast trees.
    pub fn assemble(self, seed: u64, secs: u64, wrappers: Option<&mut Wrappers>) -> (Built, f64) {
        let (mut built, routes_s) = match self.scenario(seed, secs, self.domains()) {
            Some(scenario) => assemble_tree(&scenario, wrappers),
            None => assemble_star(seed, secs, wrappers),
        };
        built.engine_mut().set_workers(1);
        (built, routes_s)
    }
}

/// The agents whose statistics a run resets and reads.
#[derive(Debug, Clone, Default)]
pub struct Flows {
    pub tcp_senders: Vec<AgentId>,
    pub tcp_receivers: Vec<AgentId>,
    pub rla_senders: Vec<AgentId>,
    pub rla_receivers: Vec<AgentId>,
}

/// A world built and ready to run.
pub enum Built {
    /// A tree built by `TreeScenario::build`, run through `ScenarioWorld`.
    Scenario(TreeScenario, Box<ScenarioWorld>),
    /// A world the benchmark assembled from public engine calls.
    Assembled {
        engine: Engine,
        flows: Flows,
        warmup: SimTime,
        end: SimTime,
    },
}

impl Built {
    /// The simulator.
    pub fn engine(&self) -> &Engine {
        match self {
            Built::Scenario(_, world) => &world.engine,
            Built::Assembled { engine, .. } => engine,
        }
    }

    /// Mutable simulator access.
    pub fn engine_mut(&mut self) -> &mut Engine {
        match self {
            Built::Scenario(_, world) => &mut world.engine,
            Built::Assembled { engine, .. } => engine,
        }
    }

    fn ends(&self) -> (SimTime, SimTime) {
        match self {
            Built::Scenario(s, _) => (SimTime::ZERO + s.warmup, SimTime::ZERO + s.duration),
            Built::Assembled { warmup, end, .. } => (*warmup, *end),
        }
    }

    fn advance(&mut self, to: SimTime) {
        match self {
            Built::Scenario(_, world) => world.run_span(to),
            Built::Assembled { engine, .. } => engine.run_until(to),
        }
    }

    /// Run the warmup, reset the statistics windows, and run to the end.
    /// With `slice`, the engine is advanced one slice of simulated time at
    /// a time, and `between` is called after each with the slice's wall
    /// seconds, outside the timed region. Returns the seconds spent inside
    /// the engine's run calls.
    pub fn run(&mut self, slice: Option<SimDuration>, mut between: impl FnMut(f64)) -> f64 {
        let (warmup, end) = self.ends();
        let mut inside = 0.0;
        for (i, target) in [warmup, end].into_iter().enumerate() {
            if i == 1 {
                self.reset_stats();
            }
            while self.engine().now() < target {
                let to = slice.map_or(target, |d| (self.engine().now() + d).min(target));
                let start = Instant::now();
                self.advance(to);
                let secs = start.elapsed().as_secs_f64();
                inside += secs;
                between(secs);
            }
        }
        inside
    }

    fn reset_stats(&mut self) {
        match self {
            Built::Scenario(_, world) => world.reset_stats(),
            Built::Assembled { engine, flows, .. } => {
                // The same resets `ScenarioWorld::reset_stats` makes.
                let now = engine.now();
                for &a in &flows.tcp_senders {
                    agent_mut::<TcpSender>(engine, a).reset_stats(now);
                }
                for &a in &flows.tcp_receivers {
                    agent_mut::<TcpReceiver>(engine, a).reset_stats();
                }
                for &a in &flows.rla_senders {
                    agent_mut::<RlaSender>(engine, a).reset_stats(now);
                }
                for &a in &flows.rla_receivers {
                    agent_mut::<McastReceiver>(engine, a).reset_stats();
                }
            }
        }
    }

    /// Collect the run's result: the program's own per-flow rows for the
    /// tree scenarios, then the totals and checks the benchmark reports.
    pub fn collect(&self) -> Outcome {
        match self {
            Built::Scenario(scenario, world) => {
                std::hint::black_box(world.collect(scenario));
                let flows = Flows {
                    tcp_senders: world.tcp_senders.clone(),
                    tcp_receivers: world.tcp_receivers.clone(),
                    rla_senders: world.rla_senders.clone(),
                    rla_receivers: world.rla_receivers.concat(),
                };
                Outcome::read(&world.engine, &flows)
            }
            Built::Assembled { engine, flows, .. } => Outcome::read(engine, flows),
        }
    }
}

fn agent_mut<T: 'static>(engine: &mut Engine, id: AgentId) -> &mut T {
    engine
        .agent_as_mut::<T>(id)
        .unwrap_or_else(|| panic!("{id} is not a {}", std::any::type_name::<T>()))
}

fn agent_ref<T: 'static>(engine: &Engine, id: AgentId) -> &T {
    engine
        .agent_as::<T>(id)
        .unwrap_or_else(|| panic!("{id} is not a {}", std::any::type_name::<T>()))
}

/// Add an agent, wrapped when wrappers are installed.
fn add(
    engine: &mut Engine,
    node: NodeId,
    kind: AgentKind,
    agent: Box<dyn Agent>,
    wrappers: &mut Option<&mut Wrappers>,
) -> AgentId {
    let agent = match wrappers {
        Some(p) => p.agent(kind, agent),
        None => agent,
    };
    engine.add_agent(node, agent)
}

/// `TreeScenario::build` for a static scenario, call for call, so the
/// agents can be wrapped as they are created. Any difference shows as a
/// digest that differs from the `TreeScenario::build` run's.
fn assemble_tree(sc: &TreeScenario, mut wrappers: Option<&mut Wrappers>) -> (Built, f64) {
    assert!(
        sc.events.is_empty() && sc.bg_load.is_none(),
        "only static scenarios are mirrored"
    );
    let queue = sc.gateway.queue_config();
    let mut engine = Engine::new(sc.seed);
    let tree = build_tree(&mut engine, sc.case, &queue);
    engine.partition_merged(None, sc.shards, sc.domain_costs.as_deref());
    engine.set_workers(sc.shards);

    let mut receiver_nodes = tree.leaves.clone();
    if sc.case.has_g3_receivers() {
        receiver_nodes.extend(tree.g3.iter().copied());
    }
    let tcp_cfg = TcpConfig::default();
    let mut flows = Flows::default();
    for &node in &tree.leaves {
        let rx = Box::new(TcpReceiver::new(tcp_cfg.ack_size));
        let rx = add(&mut engine, node, AgentKind::TcpReceiver, rx, &mut wrappers);
        let tx = sc.tcp_cc.build_sender(rx, tcp_cfg.clone());
        let tx = add(
            &mut engine,
            tree.root,
            AgentKind::TcpSender,
            tx,
            &mut wrappers,
        );
        flows.tcp_receivers.push(rx);
        flows.tcp_senders.push(tx);
    }
    let rla_cfg = sc.rla_config.clone();
    for _ in 0..sc.rla_sessions {
        let group = engine.new_group();
        for &node in &receiver_nodes {
            let rx = Box::new(McastReceiver::new(rla_cfg.ack_size));
            let rx = add(&mut engine, node, AgentKind::RlaReceiver, rx, &mut wrappers);
            engine.join_group(group, rx);
            flows.rla_receivers.push(rx);
        }
        let tx = Box::new(RlaSender::new(group, rla_cfg.clone()));
        let tx = add(
            &mut engine,
            tree.root,
            AgentKind::RlaSender,
            tx,
            &mut wrappers,
        );
        flows.rla_senders.push(tx);
    }

    let routes = Instant::now();
    engine.compute_routes();
    for gid in 0..sc.rla_sessions {
        engine.build_group_tree(GroupId::from(gid), tree.root);
    }
    let routes_s = routes.elapsed().as_secs_f64();

    if matches!(sc.gateway, GatewayKind::DropTail) {
        let service = SimDuration::from_nanos(tx_nanos(
            rla_cfg.packet_size,
            pps_to_bps(sc.case.bottleneck_pps()),
        ));
        for &a in flows.tcp_senders.iter().chain(&flows.rla_senders) {
            engine.set_send_overhead(a, service);
        }
    }
    let ack_jitter = SimDuration::from_millis(2);
    for &a in flows.tcp_receivers.iter().chain(&flows.rla_receivers) {
        engine.set_send_overhead(a, ack_jitter);
    }
    let mut t = SimTime::ZERO;
    for &a in flows.tcp_senders.iter().chain(&flows.rla_senders) {
        engine.start_agent_at(a, t);
        t += SimDuration::from_millis(173);
    }
    let built = Built::Assembled {
        engine,
        flows,
        warmup: SimTime::ZERO + sc.warmup,
        end: SimTime::ZERO + sc.duration,
    };
    (built, routes_s)
}

/// The §4.3 restricted topology as `bounds_sweep` builds it: one RLA
/// session over a 100-branch star plus one TCP flow on the worst branch.
/// Every branch is 80 Mb/s with 30 ms delay; Bernoulli loss is 2% on the
/// worst branch and 0.2% on the others; buffers hold 1000 packets, so
/// the loss comes from the fault injectors, not the queues.
fn assemble_star(seed: u64, secs: u64, mut wrappers: Option<&mut Wrappers>) -> (Built, f64) {
    let mut engine = Engine::new(seed);
    let queue = QueueConfig::DropTail { limit: 1000 };
    let mut branches = vec![
        BranchSpec::new(80_000_000, SimDuration::from_millis(30))
            .with_loss(0.002);
        STAR_BRANCHES
    ];
    branches[0].drop_prob = 0.02;
    let star = build_star(&mut engine, &branches, &queue);
    let overhead = SimDuration::from_millis(1);

    let mut flows = Flows::default();
    let tcp_rx = Box::new(TcpReceiver::new(40));
    let tcp_rx = add(
        &mut engine,
        star.leaves[0],
        AgentKind::TcpReceiver,
        tcp_rx,
        &mut wrappers,
    );
    engine.set_send_overhead(tcp_rx, overhead);
    let tcp_tx = Box::new(TcpSender::new(tcp_rx, TcpConfig::default()));
    let tcp_tx = add(
        &mut engine,
        star.root,
        AgentKind::TcpSender,
        tcp_tx,
        &mut wrappers,
    );
    flows.tcp_receivers.push(tcp_rx);
    flows.tcp_senders.push(tcp_tx);

    let group = engine.new_group();
    for &leaf in &star.leaves {
        let rx = Box::new(McastReceiver::new(40));
        let rx = add(&mut engine, leaf, AgentKind::RlaReceiver, rx, &mut wrappers);
        engine.set_send_overhead(rx, overhead);
        engine.join_group(group, rx);
        flows.rla_receivers.push(rx);
    }
    let rla_tx = Box::new(RlaSender::new(group, RlaConfig::default()));
    let rla_tx = add(
        &mut engine,
        star.root,
        AgentKind::RlaSender,
        rla_tx,
        &mut wrappers,
    );
    flows.rla_senders.push(rla_tx);

    let routes = Instant::now();
    engine.compute_routes();
    engine.build_group_tree(group, star.root);
    let routes_s = routes.elapsed().as_secs_f64();

    engine.start_agent_at(tcp_tx, SimTime::ZERO);
    engine.start_agent_at(rla_tx, SimTime::from_millis(501));
    let built = Built::Assembled {
        engine,
        flows,
        warmup: SimTime::from_secs(secs / 5),
        end: SimTime::from_secs(secs),
    };
    (built, routes_s)
}

/// Sent and repaired packets of one protocol's senders over the
/// measurement window.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProtoTotals {
    /// Data packets sent, retransmissions included.
    pub sent: u64,
    /// Retransmissions.
    pub retransmits: u64,
    /// Window cuts (RLA: randomized plus forced; TCP: fast recovery).
    pub window_cuts: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
}

impl ProtoTotals {
    /// Retransmissions over data packets sent (0 when nothing was sent).
    pub fn retransmit_ratio(&self) -> f64 {
        ratio(self.retransmits, self.sent)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// What a finished run produced, read from the engine after the run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The merged trace digest: hash plus per-kind event counts.
    pub digest: TraceDigest,
    /// The first channel that broke conservation, if any.
    pub conservation: Result<(), String>,
    /// Packets offered to all channels.
    pub offered: u64,
    /// Packets the fault injectors discarded.
    pub fault_drops: u64,
    pub rla: ProtoTotals,
    pub tcp: ProtoTotals,
    /// Slot capacity of domain 0's packet arena.
    pub arena_capacity: usize,
    /// Packets still in flight at the end.
    pub live_packets: usize,
}

impl Outcome {
    fn read(engine: &Engine, flows: &Flows) -> Outcome {
        let world = engine.world();
        let mut conservation = Ok(());
        let (mut offered, mut fault_drops) = (0, 0);
        for i in 0..world.channel_count() {
            let s = &world.channel(ChannelId(i as u32)).stats;
            offered += s.offered;
            fault_drops += s.fault_drops;
            let admitted = s.accepted + s.queue_drops() + s.fault_drops;
            if conservation.is_ok() && (s.offered != admitted || s.transmitted > s.accepted) {
                conservation = Err(format!(
                    "channel {i}: offered {} accepted {} queue drops {} fault drops {} transmitted {}",
                    s.offered,
                    s.accepted,
                    s.queue_drops(),
                    s.fault_drops,
                    s.transmitted
                ));
            }
        }
        let mut rla = ProtoTotals::default();
        for &a in &flows.rla_senders {
            let s = &agent_ref::<RlaSender>(engine, a).stats;
            let retx = s.retransmits_multicast + s.retransmits_unicast;
            rla.sent += s.data_sent + retx;
            rla.retransmits += retx;
            rla.window_cuts += s.window_cuts();
            rla.timeouts += s.timeouts;
        }
        let mut tcp = ProtoTotals::default();
        for &a in &flows.tcp_senders {
            let s = &agent_ref::<TcpSender>(engine, a).stats;
            tcp.sent += s.data_sent;
            tcp.retransmits += s.retransmits;
            tcp.window_cuts += s.window_cuts;
            tcp.timeouts += s.timeouts;
        }
        Outcome {
            digest: engine.trace_digest(),
            conservation,
            offered,
            fault_drops,
            rla,
            tcp,
            arena_capacity: world.arena().capacity(),
            live_packets: world.live_packets(),
        }
    }
}
