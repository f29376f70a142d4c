//! Pins the RLA sender's behaviour on the §4.3 restricted topology: one
//! session over a 100-branch lossy star. Each run pins the whole
//! packet-event stream (trace digest and event count) and every
//! `RlaStats` counter, so any change to the sender's per-ACK bookkeeping
//! that alters a single decision shows up here.
//!
//! The three runs cover the paths the committed goldens do not reach:
//! the default configuration (multicast repair only), unicast repair
//! (`rexmit_threshold > 0`), and the slow-receiver ejection policy with a
//! receiver that really is ejected, combined with a mid-session leave
//! and join.
//!
//! The pinned values were recorded from the sender that rescanned every
//! receiver on each ACK (for the pipe, `min_last_ack` and `reach_all`);
//! its cached aggregates must reproduce them exactly.

use experiments::star::{build_star, BranchSpec, Star};
use netsim::engine::Engine;
use netsim::fault::FaultInjector;
use netsim::id::{AgentId, GroupId};
use netsim::queue::QueueConfig;
use netsim::time::{SimDuration, SimTime};
use rla::{McastReceiver, RlaConfig, RlaSender, SlowReceiverPolicy};

const BRANCHES: usize = 100;

/// The star: 80 Mb/s, 30 ms branches with 0.2% Bernoulli data loss (2%
/// on branch 0) and 1000-packet drop-tail buffers, one RLA session.
struct Session {
    engine: Engine,
    star: Star,
    group: GroupId,
    sender: AgentId,
    receivers: Vec<AgentId>,
}

fn session(seed: u64, cfg: RlaConfig) -> Session {
    let mut engine = Engine::new(seed);
    let mut branches =
        vec![BranchSpec::new(80_000_000, SimDuration::from_millis(30)).with_loss(0.002); BRANCHES];
    branches[0].drop_prob = 0.02;
    let star = build_star(
        &mut engine,
        &branches,
        &QueueConfig::DropTail { limit: 1000 },
    );
    let group = engine.new_group();
    let receivers = star
        .leaves
        .iter()
        .map(|&leaf| {
            let rx = engine.add_agent(leaf, Box::new(McastReceiver::new(40)));
            engine.set_send_overhead(rx, SimDuration::from_millis(1));
            engine.join_group(group, rx);
            rx
        })
        .collect();
    let sender = engine.add_agent(star.root, Box::new(RlaSender::new(group, cfg)));
    engine.compute_routes();
    engine.build_group_tree(group, star.root);
    engine.start_agent_at(sender, SimTime::ZERO);
    Session {
        engine,
        star,
        group,
        sender,
        receivers,
    }
}

/// Digest, event count and every sender counter, as one comparable line.
fn fingerprint(s: &Session) -> String {
    let d = s.engine.trace_digest();
    let tx: &RlaSender = s.engine.agent_as(s.sender).expect("rla sender");
    let st = &tx.stats;
    format!(
        "digest={} events={} delivered={} data_sent={} rexmit_mc={} rexmit_uc={} \
         signals={} per_rcvr_sum={} rcuts={} fcuts={} timeouts={} skipped={} \
         unknown={} early={} ejected={} rtt_n={} reach_all={} next_seq={} cwnd={:?}",
        d.hex(),
        d.events(),
        st.delivered,
        st.data_sent,
        st.retransmits_multicast,
        st.retransmits_unicast,
        st.cong_signals,
        st.cong_signals_per_receiver.iter().sum::<u64>(),
        st.randomized_cuts,
        st.forced_cuts,
        st.timeouts,
        st.skipped_rare,
        st.unknown_acks,
        st.early_retransmits,
        st.ejected_receivers.len(),
        st.rtt.count(),
        tx.max_reach_all(),
        tx.next_seq(),
        tx.cwnd(),
    )
}

#[test]
fn default_config_is_pinned() {
    let mut s = session(1, RlaConfig::default());
    s.engine.run_until(SimTime::from_secs(20));
    let got = fingerprint(&s);
    let tx: &RlaSender = s.engine.agent_as(s.sender).unwrap();
    assert!(tx.stats.retransmits_multicast > 0, "{got}");
    assert_eq!(
        got,
        concat!(
            "digest=d48ee71a7c95ca58 events=12391590 delivered=12915 data_sent=13104 rexmit_mc=2827 rexmit_uc=0 ",
            "signals=2214 per_rcvr_sum=2214 rcuts=19 fcuts=0 timeouts=0 skipped=25 unknown=0 ",
            "early=97 ejected=0 rtt_n=10381 reach_all=12915 next_seq=13104 cwnd=27.092156861862033",
        )
    );
}

#[test]
fn unicast_repair_is_pinned() {
    let cfg = RlaConfig {
        rexmit_threshold: 3,
        ..RlaConfig::default()
    };
    let mut s = session(2, cfg);
    s.engine.run_until(SimTime::from_secs(20));
    let got = fingerprint(&s);
    let tx: &RlaSender = s.engine.agent_as(s.sender).unwrap();
    assert!(tx.stats.retransmits_unicast > 0, "{got}");
    assert_eq!(
        got,
        concat!(
            "digest=4e8f1f97993fb4a6 events=5558480 delivered=7331 data_sent=7369 rexmit_mc=0 rexmit_uc=1679 ",
            "signals=1453 per_rcvr_sum=1453 rcuts=20 fcuts=4 timeouts=0 skipped=9 unknown=0 ",
            "early=87 ejected=0 rtt_n=5820 reach_all=7331 next_seq=7369 cwnd=19.198225177717088",
        )
    );
}

#[test]
fn ejection_and_churn_are_pinned() {
    let cfg = RlaConfig {
        slow_receiver_policy: SlowReceiverPolicy::Eject {
            lag_packets: 10,
            patience: SimDuration::from_secs(1),
        },
        ..RlaConfig::default()
    };
    let mut s = session(3, cfg);
    // Branch 5 goes dark once the window has opened: the packets in
    // flight toward it are lost, so its receiver falls behind the rest
    // and must be ejected once it has lagged for the patience window.
    s.engine.run_until(SimTime::from_secs(6));
    let dark = s.star.down[5];
    s.engine.set_fault(dark, FaultInjector::new(1.0));
    // Receiver 7 leaves mid-session...
    s.engine.run_until(SimTime::from_secs(9));
    assert!(s.engine.leave_group(s.group, s.receivers[7]));
    s.engine.build_group_tree(s.group, s.star.root);
    {
        let tx: &mut RlaSender = s.engine.agent_as_mut(s.sender).unwrap();
        assert!(tx.remove_receiver(s.receivers[7]));
    }
    // ...and a fresh receiver joins at the same leaf.
    s.engine.run_until(SimTime::from_secs(11));
    let now = s.engine.now();
    let next = s.engine.agent_as::<RlaSender>(s.sender).unwrap().next_seq();
    let joiner = s.engine.add_agent(
        s.star.leaves[7],
        Box::new(McastReceiver::joining_at(next, 40)),
    );
    s.engine
        .set_send_overhead(joiner, SimDuration::from_millis(1));
    s.engine.join_group(s.group, joiner);
    s.engine.build_group_tree(s.group, s.star.root);
    s.engine
        .agent_as_mut::<RlaSender>(s.sender)
        .unwrap()
        .add_receiver(joiner, now);
    s.engine.run_until(SimTime::from_secs(20));

    let got = fingerprint(&s);
    let tx: &RlaSender = s.engine.agent_as(s.sender).unwrap();
    assert_eq!(
        tx.stats.ejected_receivers,
        vec![s.receivers[5]],
        "the dark receiver must be ejected: {got}"
    );
    let rx: &McastReceiver = s.engine.agent_as(joiner).unwrap();
    assert!(rx.cum_ack() > next, "the joiner must make progress: {got}");
    assert_eq!(
        got,
        concat!(
            "digest=ef35333bc29219ca events=9416697 delivered=9905 data_sent=9960 rexmit_mc=2178 rexmit_uc=0 ",
            "signals=1775 per_rcvr_sum=1775 rcuts=19 fcuts=4 timeouts=1 skipped=3 unknown=0 ",
            "early=70 ejected=1 rtt_n=7971 reach_all=9905 next_seq=9960 cwnd=28.529764307255483",
        )
    );
}
