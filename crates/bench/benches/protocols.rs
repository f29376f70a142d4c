//! Protocol-level benchmarks: how much wall-clock time one simulated
//! second of each transport costs (TCP, RLA, and the rate baselines),
//! and the RLA sender's per-ACK cost as the receiver count grows.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use baselines::{Ltrc, LtrcConfig, RateConfig, RateReceiver, RateSender};
use experiments::star::{build_star, BranchSpec};
use netsim::prelude::*;
use rla::{McastReceiver, RlaConfig, RlaSender};
use tcp_sack::{TcpConfig, TcpReceiver, TcpSender};

/// One TCP over a 100 pkt/s bottleneck for `secs` simulated seconds.
fn tcp_flow(secs: u64) -> u64 {
    let mut e = Engine::new(1);
    let a = e.add_node("a");
    let b = e.add_node("b");
    e.add_link(
        a,
        b,
        800_000,
        SimDuration::from_millis(50),
        &QueueConfig::paper_droptail(),
    );
    let rx = e.add_agent(b, Box::new(TcpReceiver::new(40)));
    let tx = e.add_agent(a, Box::new(TcpSender::new(rx, TcpConfig::default())));
    e.compute_routes();
    e.start_agent_at(tx, SimTime::ZERO);
    e.run_until(SimTime::from_secs(secs));
    e.agent_as::<TcpReceiver>(rx).expect("rx").stats.delivered
}

/// A 9-receiver RLA session over congested branches.
fn rla_session(secs: u64) -> u64 {
    let mut e = Engine::new(1);
    let q = QueueConfig::paper_droptail();
    let root = e.add_node("S");
    let group = e.new_group();
    for i in 0..9 {
        let leaf = e.add_node(format!("R{i}"));
        e.add_link(root, leaf, 1_600_000, SimDuration::from_millis(40), &q);
        let rx = e.add_agent(leaf, Box::new(McastReceiver::new(40)));
        e.set_send_overhead(rx, SimDuration::from_millis(2));
        e.join_group(group, rx);
    }
    let tx = e.add_agent(root, Box::new(RlaSender::new(group, RlaConfig::default())));
    e.compute_routes();
    e.build_group_tree(group, root);
    e.start_agent_at(tx, SimTime::ZERO);
    e.run_until(SimTime::from_secs(secs));
    e.agent_as::<RlaSender>(tx).expect("tx").stats.delivered
}

/// An LTRC rate-controlled session over the same star.
fn ltrc_session(secs: u64) -> u64 {
    let mut e = Engine::new(1);
    let q = QueueConfig::paper_droptail();
    let root = e.add_node("S");
    let group = e.new_group();
    let mut rx0 = None;
    for i in 0..9 {
        let leaf = e.add_node(format!("R{i}"));
        e.add_link(root, leaf, 1_600_000, SimDuration::from_millis(40), &q);
        let rx = e.add_agent(
            leaf,
            Box::new(RateReceiver::new(SimDuration::from_millis(500), 0.25)),
        );
        e.join_group(group, rx);
        rx0.get_or_insert(rx);
    }
    let tx = e.add_agent(
        root,
        Box::new(RateSender::new(
            group,
            RateConfig::default(),
            Ltrc::new(LtrcConfig::default()),
        )),
    );
    e.compute_routes();
    e.build_group_tree(group, root);
    e.start_agent_at(tx, SimTime::ZERO);
    e.run_until(SimTime::from_secs(secs));
    e.agent_as::<RateReceiver>(rx0.expect("rx"))
        .expect("rx")
        .stats
        .received
}

/// Calls into the wrapped sender's `on_packet` (its ACK handler) and the
/// wall-clock nanoseconds spent inside them.
#[derive(Debug, Default)]
struct AckClock {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl AckClock {
    fn read(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.nanos.load(Ordering::Relaxed),
        )
    }
}

/// An [`RlaSender`] whose ACK handling is timed from outside.
struct TimedSender {
    inner: RlaSender,
    clock: Arc<AckClock>,
}

impl Agent for TimedSender {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.inner.on_start(ctx);
    }

    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        let start = Instant::now();
        self.inner.on_packet(packet, ctx);
        let ns = start.elapsed().as_nanos() as u64;
        self.clock.calls.fetch_add(1, Ordering::Relaxed);
        self.clock.nanos.fetch_add(ns, Ordering::Relaxed);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        self.inner.on_timer(token, ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// An RLA session over an `n`-branch star shaped like the §4.3 restricted
/// topology (80 Mb/s, 30 ms branches, 0.2% Bernoulli data loss each),
/// run past its start-up so the window is open.
fn ack_session(n: usize) -> (Engine, Arc<AckClock>) {
    let mut e = Engine::new(1);
    let branch = BranchSpec::new(80_000_000, SimDuration::from_millis(30)).with_loss(0.002);
    let star = build_star(
        &mut e,
        &vec![branch; n],
        &QueueConfig::DropTail { limit: 1000 },
    );
    let group = e.new_group();
    for &leaf in &star.leaves {
        let rx = e.add_agent(leaf, Box::new(McastReceiver::new(40)));
        e.set_send_overhead(rx, SimDuration::from_millis(1));
        e.join_group(group, rx);
    }
    let clock = Arc::new(AckClock::default());
    let tx = e.add_agent(
        star.root,
        Box::new(TimedSender {
            inner: RlaSender::new(group, RlaConfig::default()),
            clock: clock.clone(),
        }),
    );
    e.compute_routes();
    e.build_group_tree(group, star.root);
    e.start_agent_at(tx, SimTime::ZERO);
    e.run_until(SimTime::from_secs(5));
    (e, clock)
}

/// The RLA sender's per-ACK cost at 9, 27 and 100 receivers. Each
/// iteration advances the session by one simulated second; the layer
/// figure is the `ns per ACK` line printed after each case: time inside
/// `RlaSender::on_packet` over the ACKs it handled. It should stay flat
/// as the receiver count grows.
fn bench_rla_on_ack(c: &mut Criterion) {
    let mut g = c.benchmark_group("rla_sender_on_ack");
    g.sample_size(10);
    for n in [9, 27, 100] {
        let (mut e, clock) = ack_session(n);
        let (calls0, nanos0) = clock.read();
        g.bench_function(&format!("{n}_receivers_1_sim_second"), |b| {
            b.iter(|| e.run_for(SimDuration::from_secs(1)))
        });
        let (calls, nanos) = clock.read();
        let acks = calls - calls0;
        println!(
            "  rla_sender_on_ack/{n}: {:.0} ns per ACK ({acks} ACKs)",
            (nanos - nanos0) as f64 / acks.max(1) as f64
        );
    }
    g.finish();
}

fn bench_protocols(c: &mut Criterion) {
    let mut g = c.benchmark_group("protocols");
    g.sample_size(10);
    g.bench_function("tcp_30_sim_seconds", |b| b.iter(|| black_box(tcp_flow(30))));
    g.bench_function("rla_9rcvr_30_sim_seconds", |b| {
        b.iter(|| black_box(rla_session(30)))
    });
    g.bench_function("ltrc_9rcvr_30_sim_seconds", |b| {
        b.iter(|| black_box(ltrc_session(30)))
    });
    g.finish();
}

criterion_group!(benches, bench_protocols, bench_rla_on_ack);
criterion_main!(benches);
