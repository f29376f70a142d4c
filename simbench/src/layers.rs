//! Forwarding wrappers that time the calls into the queue and agent
//! layers from outside the program.
//!
//! A [`TimedQueue`] replaces each channel's discipline through
//! `World::channel_mut(..).queue` and a [`TimedAgent`] wraps each agent
//! before `Engine::add_agent`. Both forward every call unchanged (the
//! agent's `as_any` hooks go to the inner agent, so `Engine::agent_as`
//! still finds the concrete type), so a traced run must reproduce the
//! untraced trace digest; the traced run checks that it does.
//!
//! Each wrapper owns its counters, aligned to a cache line, so wrappers
//! whose domains run on different worker threads never write one line.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use netsim::agent::Agent;
use netsim::arena::PacketHandle;
use netsim::engine::{Context, World};
use netsim::id::ChannelId;
use netsim::packet::Packet;
use netsim::queue::{Enqueue, QueueConfig, QueueDiscipline};
use netsim::time::SimTime;
use rand::rngs::StdRng;

/// Adds to a counter that only one thread writes at a time: the thread
/// running the domain that owns the wrapped channel or agent. The
/// executor joins its workers before the benchmark reads the counters, so
/// `Relaxed` suffices (the counters publish no other data), and a plain
/// load and store avoids a locked read-modify-write on every call.
fn add(counter: &AtomicU64, v: u64) {
    counter.store(counter.load(Ordering::Relaxed) + v, Ordering::Relaxed);
}

fn read(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// The two gateway disciplines, told apart by whether the discipline
/// keeps a RED average.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// FIFO with tail drop.
    DropTail,
    /// Random Early Detection.
    Red,
}

impl QueueKind {
    /// Both kinds, in report order.
    pub const ALL: [QueueKind; 2] = [QueueKind::DropTail, QueueKind::Red];

    /// The metric-name component.
    pub fn name(self) -> &'static str {
        match self {
            QueueKind::DropTail => "droptail",
            QueueKind::Red => "red",
        }
    }
}

/// The four agent roles the workloads create.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentKind {
    /// `rla::RlaSender`.
    RlaSender,
    /// `rla::McastReceiver`.
    RlaReceiver,
    /// `tcp_sack::TcpSender`.
    TcpSender,
    /// `tcp_sack::TcpReceiver`.
    TcpReceiver,
}

impl AgentKind {
    /// All roles, in report order.
    pub const ALL: [AgentKind; 4] = [
        AgentKind::RlaSender,
        AgentKind::RlaReceiver,
        AgentKind::TcpSender,
        AgentKind::TcpReceiver,
    ];

    /// The metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            AgentKind::RlaSender => "rla.sender",
            AgentKind::RlaReceiver => "rla.receiver",
            AgentKind::TcpSender => "tcp.sender",
            AgentKind::TcpReceiver => "tcp.receiver",
        }
    }
}

/// One queue wrapper's counters.
#[repr(align(64))]
#[derive(Debug, Default)]
struct QueueCounters {
    enqueue_calls: AtomicU64,
    enqueue_ns: AtomicU64,
    drops: AtomicU64,
    dequeue_calls: AtomicU64,
    dequeue_ns: AtomicU64,
    dequeue_hits: AtomicU64,
}

/// A discipline that times and counts every call into the one it wraps.
#[derive(Debug)]
struct TimedQueue {
    inner: Box<dyn QueueDiscipline>,
    counters: Arc<QueueCounters>,
}

impl QueueDiscipline for TimedQueue {
    fn enqueue(&mut self, handle: PacketHandle, now: SimTime, rng: &mut StdRng) -> Enqueue {
        let start = Instant::now();
        let outcome = self.inner.enqueue(handle, now, rng);
        let c = &*self.counters;
        add(&c.enqueue_ns, ns_since(start));
        add(&c.enqueue_calls, 1);
        if matches!(outcome, Enqueue::Dropped(..)) {
            add(&c.drops, 1);
        }
        outcome
    }

    fn dequeue(&mut self, now: SimTime) -> Option<PacketHandle> {
        let start = Instant::now();
        let next = self.inner.dequeue(now);
        let c = &*self.counters;
        add(&c.dequeue_ns, ns_since(start));
        add(&c.dequeue_calls, 1);
        if next.is_some() {
            add(&c.dequeue_hits, 1);
        }
        next
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn red_avg(&self) -> Option<f64> {
        self.inner.red_avg()
    }
}

/// One agent wrapper's counters.
#[repr(align(64))]
#[derive(Debug, Default)]
struct AgentCounters {
    packet_calls: AtomicU64,
    packet_ns: AtomicU64,
    timer_calls: AtomicU64,
    timer_ns: AtomicU64,
    start_ns: AtomicU64,
}

/// An agent that times and counts every callback into the one it wraps.
struct TimedAgent {
    inner: Box<dyn Agent>,
    counters: Arc<AgentCounters>,
}

impl Agent for TimedAgent {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let start = Instant::now();
        self.inner.on_start(ctx);
        add(&self.counters.start_ns, ns_since(start));
    }

    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        let start = Instant::now();
        self.inner.on_packet(packet, ctx);
        let c = &*self.counters;
        add(&c.packet_ns, ns_since(start));
        add(&c.packet_calls, 1);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        let start = Instant::now();
        self.inner.on_timer(token, ctx);
        let c = &*self.counters;
        add(&c.timer_ns, ns_since(start));
        add(&c.timer_calls, 1);
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// Summed counters of every queue of one kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct QueueTotals {
    pub enqueue_calls: u64,
    pub enqueue_ns: u64,
    pub drops: u64,
    pub dequeue_calls: u64,
    pub dequeue_ns: u64,
    pub dequeue_hits: u64,
}

/// Summed counters of every agent of one role.
#[derive(Debug, Default, Clone, Copy)]
pub struct AgentTotals {
    pub packet_calls: u64,
    pub packet_ns: u64,
    pub timer_calls: u64,
    pub timer_ns: u64,
    pub start_ns: u64,
}

/// The counters of every wrapper installed in one world.
#[derive(Debug, Default)]
pub struct Wrappers {
    queues: Vec<(QueueKind, Arc<QueueCounters>)>,
    agents: Vec<(AgentKind, Arc<AgentCounters>)>,
}

impl Wrappers {
    /// Wrap an agent before it is added to the engine.
    pub fn agent(&mut self, kind: AgentKind, inner: Box<dyn Agent>) -> Box<dyn Agent> {
        let counters = Arc::new(AgentCounters::default());
        self.agents.push((kind, Arc::clone(&counters)));
        Box::new(TimedAgent { inner, counters })
    }

    /// Wrap the discipline of every channel in the world.
    pub fn wrap_queues(&mut self, world: &mut World) {
        for i in 0..world.channel_count() {
            let channel = world.channel_mut(ChannelId(i as u32));
            let placeholder = QueueConfig::DropTail { limit: 1 }.build();
            let inner = std::mem::replace(&mut channel.queue, placeholder);
            let kind = if inner.red_avg().is_some() {
                QueueKind::Red
            } else {
                QueueKind::DropTail
            };
            let counters = Arc::new(QueueCounters::default());
            self.queues.push((kind, Arc::clone(&counters)));
            channel.queue = Box::new(TimedQueue { inner, counters });
        }
    }

    /// Sum over the queues of one kind.
    pub fn queue_totals(&self, kind: QueueKind) -> QueueTotals {
        let mut t = QueueTotals::default();
        for (_, c) in self.queues.iter().filter(|(k, _)| *k == kind) {
            t.enqueue_calls += read(&c.enqueue_calls);
            t.enqueue_ns += read(&c.enqueue_ns);
            t.drops += read(&c.drops);
            t.dequeue_calls += read(&c.dequeue_calls);
            t.dequeue_ns += read(&c.dequeue_ns);
            t.dequeue_hits += read(&c.dequeue_hits);
        }
        t
    }

    /// Sum over the agents of one role.
    pub fn agent_totals(&self, kind: AgentKind) -> AgentTotals {
        let mut t = AgentTotals::default();
        for (_, c) in self.agents.iter().filter(|(k, _)| *k == kind) {
            t.packet_calls += read(&c.packet_calls);
            t.packet_ns += read(&c.packet_ns);
            t.timer_calls += read(&c.timer_calls);
            t.timer_ns += read(&c.timer_ns);
            t.start_ns += read(&c.start_ns);
        }
        t
    }

    /// Nanoseconds spent inside every wrapped call: the queue and agent
    /// child time of the run span.
    pub fn child_ns(&self) -> u64 {
        let queues: u64 = QueueKind::ALL
            .iter()
            .map(|&k| {
                let t = self.queue_totals(k);
                t.enqueue_ns + t.dequeue_ns
            })
            .sum();
        let agents: u64 = AgentKind::ALL
            .iter()
            .map(|&k| {
                let t = self.agent_totals(k);
                t.packet_ns + t.timer_ns + t.start_ns
            })
            .sum();
        queues + agents
    }
}
