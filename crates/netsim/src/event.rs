//! The endpoint/wire vocabulary of the simulator and its one event loop,
//! [`run_exchange`].
//!
//! QUIC scans are pairwise (scanner ↔ server): a [`Wire`] with one
//! [`LinkModel`] per direction connects two [`Endpoint`] state machines,
//! and every measured number belongs to one such connection. Sessions
//! share no state, so each exchange runs on its own local event heap;
//! scanners loop over records and call [`run_exchange`] once per probe.
//!
//! Every datagram offered to the wire is recorded as a [`TraceEvent`], so
//! measurements (amplification factors, handshake byte splits, RTT counts)
//! are taken from the *wire view*, exactly like the paper's passive
//! perspective, and not from what an implementation believes it sent.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};

use quicert_obs::{Counter, MetricsRegistry};

use crate::datagram::Datagram;
use crate::fault::FaultInjector;
use crate::link::{Delivery, LinkModel};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Which endpoint sent a datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// From endpoint A (by convention: the client / scanner).
    AtoB,
    /// From endpoint B (by convention: the server).
    BtoA,
}

impl Direction {
    /// The opposite direction.
    pub fn flip(self) -> Direction {
        match self {
            Direction::AtoB => Direction::BtoA,
            Direction::BtoA => Direction::AtoB,
        }
    }
}

/// A state machine attached to one end of a [`Wire`].
///
/// Endpoints are polled synchronously: they receive datagrams and timer
/// callbacks, and push any datagrams they want to transmit into `out`.
pub trait Endpoint {
    /// Called once when the exchange starts; the initiating endpoint should
    /// emit its first flight here.
    fn start(&mut self, _now: SimTime, _out: &mut Vec<Datagram>) {}

    /// A datagram arrived from the peer.
    fn on_datagram(&mut self, dgram: &Datagram, now: SimTime, out: &mut Vec<Datagram>);

    /// The deadline returned by [`Endpoint::next_timer`] was reached.
    fn on_timer(&mut self, now: SimTime, out: &mut Vec<Datagram>);

    /// The next time this endpoint wants `on_timer` to fire, if any.
    fn next_timer(&self) -> Option<SimTime>;

    /// Whether this endpoint considers its part of the exchange complete.
    fn is_done(&self) -> bool;
}

/// A bidirectional path between two endpoints.
#[derive(Debug, Clone, Default)]
pub struct Wire {
    /// Link model applied to A→B datagrams.
    pub a_to_b: LinkModel,
    /// Link model applied to B→A datagrams.
    pub b_to_a: LinkModel,
    /// Additional fault injection applied to A→B datagrams.
    pub fault_a_to_b: FaultInjector,
    /// Additional fault injection applied to B→A datagrams.
    pub fault_b_to_a: FaultInjector,
}

impl Wire {
    /// A symmetric wire with identical link models in both directions.
    pub fn symmetric(link: LinkModel) -> Self {
        Wire {
            a_to_b: link.clone(),
            b_to_a: link,
            ..Wire::default()
        }
    }

    /// A symmetric ideal wire with the given one-way latency.
    pub fn ideal(latency: SimDuration) -> Self {
        Wire::symmetric(LinkModel::ideal(latency))
    }

    /// The round-trip time of the wire (sum of the base one-way latencies).
    pub fn rtt(&self) -> SimDuration {
        self.a_to_b.latency + self.b_to_a.latency
    }

    /// Whether every component of the wire is RNG-free: both link models
    /// (no loss, no jitter) and both fault injectors (no random drops or
    /// corruption). Sessions over a deterministic wire replay identically
    /// for any seed, which is what makes scenario-class memoization of
    /// whole handshakes sound.
    pub fn is_deterministic(&self) -> bool {
        self.a_to_b.is_deterministic()
            && self.b_to_a.is_deterministic()
            && self.fault_a_to_b.is_deterministic()
            && self.fault_b_to_a.is_deterministic()
    }
}

/// Why a datagram did not arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Random loss on the link.
    Loss,
    /// Exceeded the path MTU (size after encapsulation).
    Mtu(usize),
    /// Removed by the fault injector.
    Fault,
}

/// One datagram transmission as observed on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the sender handed the datagram to the wire.
    pub sent_at: SimTime,
    /// Transmission direction.
    pub direction: Direction,
    /// UDP payload size in bytes.
    pub payload_len: usize,
    /// Delivery time, or the reason the datagram was dropped.
    pub outcome: Result<SimTime, DropReason>,
}

impl TraceEvent {
    /// Whether the datagram arrived.
    pub fn delivered(&self) -> bool {
        self.outcome.is_ok()
    }
}

/// Safety limits for an exchange.
#[derive(Debug, Clone, Copy)]
pub struct ExchangeLimits {
    /// Hard wall-clock (simulated) deadline.
    pub deadline: SimTime,
    /// Maximum number of processed events, as a runaway guard.
    pub max_events: usize,
}

impl Default for ExchangeLimits {
    fn default() -> Self {
        ExchangeLimits {
            deadline: SimTime::ZERO + SimDuration::from_secs(300),
            max_events: 100_000,
        }
    }
}

/// The result of running an exchange to quiescence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeOutcome {
    /// Every datagram offered to the wire, in send order.
    pub trace: Vec<TraceEvent>,
    /// Simulated time when the loop stopped.
    pub finished_at: SimTime,
    /// True if the loop stopped because both endpoints reported done (as
    /// opposed to hitting a limit or running out of events).
    pub quiesced: bool,
    /// Datagrams removed by the wire's [`FaultInjector`]s during *this*
    /// exchange (both directions; counters on a reused wire are deltas).
    pub fault_drops: u64,
    /// Datagrams corrupted by the wire's [`FaultInjector`]s during this
    /// exchange.
    pub fault_corruptions: u64,
    /// Datagrams delivered twice by the wire's [`FaultInjector`]s during
    /// this exchange.
    pub fault_duplications: u64,
}

impl ExchangeOutcome {
    /// Total UDP payload bytes *delivered* in the given direction.
    pub fn delivered_bytes(&self, dir: Direction) -> usize {
        self.trace
            .iter()
            .filter(|e| e.direction == dir && e.delivered())
            .map(|e| e.payload_len)
            .sum()
    }

    /// Total UDP payload bytes *sent* (including dropped datagrams) in the
    /// given direction.
    pub fn sent_bytes(&self, dir: Direction) -> usize {
        self.trace
            .iter()
            .filter(|e| e.direction == dir)
            .map(|e| e.payload_len)
            .sum()
    }

    /// Number of datagrams sent in the given direction.
    pub fn datagrams(&self, dir: Direction) -> usize {
        self.trace.iter().filter(|e| e.direction == dir).count()
    }
}

/// Process-wide event-loop counters on [`MetricsRegistry::global`],
/// flushed once per [`run_exchange`] so the per-event path never touches a
/// shared atomic.
struct NetMetrics {
    events: Arc<Counter>,
    timer_fires: Arc<Counter>,
    drops: Arc<Counter>,
    corruptions: Arc<Counter>,
    duplications: Arc<Counter>,
}

fn net_metrics() -> &'static NetMetrics {
    static METRICS: OnceLock<NetMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = MetricsRegistry::global();
        NetMetrics {
            events: registry.counter(
                "quicert_netsim_events_total",
                "Simulator events processed (deliveries and timer fires)",
            ),
            timer_fires: registry.counter(
                "quicert_netsim_timer_fires_total",
                "Simulator timer events fired",
            ),
            drops: registry.counter(
                "quicert_netsim_fault_drops_total",
                "Datagrams removed by fault injectors",
            ),
            corruptions: registry.counter(
                "quicert_netsim_fault_corruptions_total",
                "Datagrams corrupted by fault injectors",
            ),
            duplications: registry.counter(
                "quicert_netsim_fault_duplications_total",
                "Datagrams duplicated by fault injectors",
            ),
        }
    })
}

/// A datagram in flight, queued for delivery at `at`.
struct Pending {
    at: SimTime,
    /// Send sequence number: equal-time deliveries arrive in send order.
    seq: u64,
    direction: Direction,
    dgram: Datagram,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Fault-injector totals (drops, corruptions, duplications) on both
/// directions of a wire.
fn fault_totals(wire: &Wire) -> (u64, u64, u64) {
    (
        wire.fault_a_to_b.drops() + wire.fault_b_to_a.drops(),
        wire.fault_a_to_b.corruptions() + wire.fault_b_to_a.corruptions(),
        wire.fault_a_to_b.duplications() + wire.fault_b_to_a.duplications(),
    )
}

/// Run an exchange between endpoint `a` (initiator) and endpoint `b` over
/// `wire` until both endpoints are done, nothing remains in flight and no
/// timers are pending — or until `limits` are hit.
///
/// Both `start` hooks run at [`SimTime::ZERO`]. Each step then takes the
/// earliest of the next delivery and the two endpoints' timers; at equal
/// times a delivery fires before a timer, deliveries fire in send order,
/// and timer A fires before timer B. Every RNG draw comes from `rng`, in
/// the order fault, duplication, link, so a fixed seed replays the
/// exchange exactly. The caller's `wire` accumulates its fault counters
/// and `rng` is left at its advanced stream position. The equivalence
/// test in `tests/` pins this loop against a verbatim copy of the original
/// two-endpoint implementation.
pub fn run_exchange<A, B>(
    a: &mut A,
    b: &mut B,
    wire: &mut Wire,
    limits: ExchangeLimits,
    rng: &mut SimRng,
) -> ExchangeOutcome
where
    A: Endpoint + ?Sized,
    B: Endpoint + ?Sized,
{
    let faults_before = fault_totals(wire);
    let mut flight = InFlight::default();
    let mut outbox = Vec::new();
    let mut now = SimTime::ZERO;

    a.start(now, &mut outbox);
    flight.offer(&mut outbox, Direction::AtoB, now, wire, rng);
    b.start(now, &mut outbox);
    flight.offer(&mut outbox, Direction::BtoA, now, wire, rng);

    let mut events = 0usize;
    let mut timer_fires = 0u64;
    let quiesced = loop {
        if events >= limits.max_events {
            break false;
        }
        let next_delivery = flight.queue.peek().map(|Reverse(p)| p.at);
        let timer_a = a.next_timer();
        let timer_b = b.next_timer();
        let next = [next_delivery, timer_a, timer_b]
            .into_iter()
            .flatten()
            .min();
        let Some(at) = next.filter(|&at| at <= limits.deadline) else {
            break a.is_done() && b.is_done();
        };
        now = at;
        events += 1;
        let direction = if next_delivery == Some(at) {
            let Reverse(pending) = flight.queue.pop().expect("peeked delivery must exist");
            match pending.direction {
                Direction::AtoB => b.on_datagram(&pending.dgram, now, &mut outbox),
                Direction::BtoA => a.on_datagram(&pending.dgram, now, &mut outbox),
            }
            pending.direction.flip()
        } else {
            timer_fires += 1;
            if timer_a == Some(at) {
                a.on_timer(now, &mut outbox);
                Direction::AtoB
            } else {
                b.on_timer(now, &mut outbox);
                Direction::BtoA
            }
        };
        flight.offer(&mut outbox, direction, now, wire, rng);
    };

    let faults_after = fault_totals(wire);
    let outcome = ExchangeOutcome {
        trace: flight.trace,
        finished_at: now,
        quiesced,
        fault_drops: faults_after.0 - faults_before.0,
        fault_corruptions: faults_after.1 - faults_before.1,
        fault_duplications: faults_after.2 - faults_before.2,
    };
    let metrics = net_metrics();
    metrics.events.add(events as u64);
    metrics.timer_fires.add(timer_fires);
    metrics.drops.add(outcome.fault_drops);
    metrics.corruptions.add(outcome.fault_corruptions);
    metrics.duplications.add(outcome.fault_duplications);
    outcome
}

/// The wire side of one exchange: datagrams in flight, ordered by
/// `(arrival, send sequence)`, and the trace of every transmission.
#[derive(Default)]
struct InFlight {
    queue: BinaryHeap<Reverse<Pending>>,
    trace: Vec<TraceEvent>,
    seq: u64,
}

impl InFlight {
    /// Offer every datagram in `outbox` to the wire: apply the fault
    /// injector, then the link model, queueing deliveries and recording
    /// one [`TraceEvent`] per datagram copy. RNG draw order: fault first,
    /// then (optional) duplication, then one link draw per copy.
    /// Injectors with every chance at zero leave the stream untouched.
    fn offer(
        &mut self,
        outbox: &mut Vec<Datagram>,
        direction: Direction,
        now: SimTime,
        wire: &mut Wire,
        rng: &mut SimRng,
    ) {
        let (link, fault) = match direction {
            Direction::AtoB => (&wire.a_to_b, &mut wire.fault_a_to_b),
            Direction::BtoA => (&wire.b_to_a, &mut wire.fault_b_to_a),
        };
        for mut dgram in outbox.drain(..) {
            dgram.sent_at = now;
            let payload_len = dgram.payload_len();
            let Some(dgram) = fault.apply(rng, dgram) else {
                self.trace.push(TraceEvent {
                    sent_at: now,
                    direction,
                    payload_len,
                    outcome: Err(DropReason::Fault),
                });
                continue;
            };
            let duplicate = fault.maybe_duplicate(rng).then(|| dgram.clone());
            for dgram in std::iter::once(dgram).chain(duplicate) {
                let outcome = match link.deliver(rng, &dgram, now) {
                    Delivery::Arrives(at) => {
                        self.seq += 1;
                        self.queue.push(Reverse(Pending {
                            at,
                            seq: self.seq,
                            direction,
                            dgram,
                        }));
                        Ok(at)
                    }
                    Delivery::LostRandom => Err(DropReason::Loss),
                    Delivery::LostMtu(size) => Err(DropReason::Mtu(size)),
                };
                self.trace.push(TraceEvent {
                    sent_at: now,
                    direction,
                    payload_len,
                    outcome,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    /// Sends `count` pings; expects an echo for each before sending the next.
    struct Pinger {
        remaining: u32,
        awaiting: bool,
    }

    /// Echoes every datagram back.
    struct Echoer;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    impl Endpoint for Pinger {
        fn start(&mut self, _now: SimTime, out: &mut Vec<Datagram>) {
            if self.remaining > 0 {
                out.push(Datagram::new(A, B, 1000, 443, vec![1; 100]));
                self.awaiting = true;
            }
        }
        fn on_datagram(&mut self, _d: &Datagram, _now: SimTime, out: &mut Vec<Datagram>) {
            self.remaining -= 1;
            self.awaiting = false;
            if self.remaining > 0 {
                out.push(Datagram::new(A, B, 1000, 443, vec![1; 100]));
                self.awaiting = true;
            }
        }
        fn on_timer(&mut self, _now: SimTime, _out: &mut Vec<Datagram>) {}
        fn next_timer(&self) -> Option<SimTime> {
            None
        }
        fn is_done(&self) -> bool {
            self.remaining == 0
        }
    }

    impl Endpoint for Echoer {
        fn on_datagram(&mut self, d: &Datagram, _now: SimTime, out: &mut Vec<Datagram>) {
            out.push(d.reply_with(d.payload.clone()));
        }
        fn on_timer(&mut self, _now: SimTime, _out: &mut Vec<Datagram>) {}
        fn next_timer(&self) -> Option<SimTime> {
            None
        }
        fn is_done(&self) -> bool {
            true
        }
    }

    /// A burst sender: emits `n` datagrams at once so several deliveries
    /// share one arrival timestamp.
    struct Burst {
        n: usize,
    }

    impl Endpoint for Burst {
        fn start(&mut self, _now: SimTime, out: &mut Vec<Datagram>) {
            for i in 0..self.n {
                out.push(Datagram::new(A, B, 1000, 443, vec![i as u8; 10 + i]));
            }
        }
        fn on_datagram(&mut self, _d: &Datagram, _now: SimTime, _out: &mut Vec<Datagram>) {}
        fn on_timer(&mut self, _now: SimTime, _out: &mut Vec<Datagram>) {}
        fn next_timer(&self) -> Option<SimTime> {
            None
        }
        fn is_done(&self) -> bool {
            true
        }
    }

    /// Records the payload sizes it receives, in arrival order.
    #[derive(Default)]
    struct Recorder {
        seen: Vec<usize>,
    }

    impl Endpoint for Recorder {
        fn on_datagram(&mut self, d: &Datagram, _now: SimTime, _out: &mut Vec<Datagram>) {
            self.seen.push(d.payload_len());
        }
        fn on_timer(&mut self, _now: SimTime, _out: &mut Vec<Datagram>) {}
        fn next_timer(&self) -> Option<SimTime> {
            None
        }
        fn is_done(&self) -> bool {
            true
        }
    }

    #[test]
    fn ping_pong_runs_to_quiescence() {
        let mut pinger = Pinger {
            remaining: 3,
            awaiting: false,
        };
        let mut echoer = Echoer;
        let mut wire = Wire::ideal(SimDuration::from_millis(10));
        let mut rng = SimRng::new(1);
        let out = run_exchange(
            &mut pinger,
            &mut echoer,
            &mut wire,
            ExchangeLimits::default(),
            &mut rng,
        );
        assert!(out.quiesced);
        assert_eq!(out.datagrams(Direction::AtoB), 3);
        assert_eq!(out.datagrams(Direction::BtoA), 3);
        assert_eq!(out.delivered_bytes(Direction::AtoB), 300);
        // 3 round trips at 20ms RTT.
        assert_eq!(
            out.finished_at,
            SimTime::ZERO + SimDuration::from_millis(60)
        );
    }

    #[test]
    fn lossy_wire_without_timers_stalls_unquiesced() {
        let mut pinger = Pinger {
            remaining: 1,
            awaiting: false,
        };
        let mut echoer = Echoer;
        let mut wire = Wire {
            fault_a_to_b: FaultInjector::dropping(1.0),
            ..Wire::default()
        };
        let mut rng = SimRng::new(2);
        let out = run_exchange(
            &mut pinger,
            &mut echoer,
            &mut wire,
            ExchangeLimits::default(),
            &mut rng,
        );
        assert!(!out.quiesced, "pinger never got its echo");
        assert_eq!(out.sent_bytes(Direction::AtoB), 100);
        assert_eq!(out.delivered_bytes(Direction::AtoB), 0);
        assert_eq!(out.trace[0].outcome, Err(DropReason::Fault));
    }

    #[test]
    fn outcome_surfaces_fault_counters() {
        let mut wire = Wire::ideal(SimDuration::from_millis(1));
        wire.fault_a_to_b = FaultInjector::dropping(1.0);
        let out = run_exchange(
            &mut Pinger {
                remaining: 1,
                awaiting: false,
            },
            &mut Echoer,
            &mut wire,
            ExchangeLimits::default(),
            &mut SimRng::new(3),
        );
        assert!(!out.quiesced);
        assert_eq!(out.fault_drops, 1);
        assert_eq!(out.fault_corruptions, 0);
        assert_eq!(out.fault_duplications, 0);
        assert_eq!(wire.fault_a_to_b.drops(), 1);
    }

    #[test]
    fn max_events_guards_against_runaway() {
        let mut pinger = Pinger {
            remaining: u32::MAX,
            awaiting: false,
        };
        let mut echoer = Echoer;
        let mut wire = Wire::ideal(SimDuration::from_nanos(1));
        let mut rng = SimRng::new(3);
        let out = run_exchange(
            &mut pinger,
            &mut echoer,
            &mut wire,
            ExchangeLimits {
                max_events: 100,
                ..ExchangeLimits::default()
            },
            &mut rng,
        );
        assert!(!out.quiesced);
        assert!(out.trace.len() <= 102);
    }

    #[test]
    fn deadline_stops_the_clock() {
        let mut pinger = Pinger {
            remaining: 1000,
            awaiting: false,
        };
        let mut echoer = Echoer;
        let mut wire = Wire::ideal(SimDuration::from_millis(100));
        let mut rng = SimRng::new(4);
        let out = run_exchange(
            &mut pinger,
            &mut echoer,
            &mut wire,
            ExchangeLimits {
                deadline: SimTime::ZERO + SimDuration::from_secs(1),
                ..ExchangeLimits::default()
            },
            &mut rng,
        );
        assert!(out.finished_at <= SimTime::ZERO + SimDuration::from_secs(1));
        assert!(!out.quiesced);
    }

    #[test]
    fn equal_timestamp_deliveries_arrive_in_send_order() {
        // A burst of datagrams over a zero-jitter wire all arrive at the
        // same instant; the recorder must see them in send (seq) order.
        let mut recorder = Recorder::default();
        let out = run_exchange(
            &mut Burst { n: 8 },
            &mut recorder,
            &mut Wire::ideal(SimDuration::from_millis(5)),
            ExchangeLimits::default(),
            &mut SimRng::new(2),
        );
        assert!(out.quiesced);
        assert_eq!(recorder.seen, (0..8).map(|i| 10 + i).collect::<Vec<_>>());
    }

    #[test]
    fn duplicating_injector_delivers_every_datagram_twice() {
        let mut recorder = Recorder::default();
        let mut wire = Wire::ideal(SimDuration::from_millis(5));
        wire.fault_a_to_b = FaultInjector::duplicating(1.0);
        let out = run_exchange(
            &mut Burst { n: 4 },
            &mut recorder,
            &mut wire,
            ExchangeLimits::default(),
            &mut SimRng::new(7),
        );
        assert!(out.quiesced);
        // One trace event per copy, no drops, and the duplication count
        // surfaces on the outcome itself (not just the wire).
        assert_eq!(out.datagrams(Direction::AtoB), 8);
        assert_eq!(out.fault_drops, 0);
        assert_eq!(out.fault_duplications, 4);
        assert_eq!(wire.fault_a_to_b.duplications(), 4);
        // Each payload arrives twice, copies adjacent in send order.
        assert_eq!(recorder.seen, vec![10, 10, 11, 11, 12, 12, 13, 13]);
    }

    #[test]
    fn fault_counts_on_a_reused_wire_are_per_exchange_deltas() {
        let mut wire = Wire::ideal(SimDuration::from_millis(5));
        wire.fault_a_to_b = FaultInjector::duplicating(1.0);
        let mut rng = SimRng::new(8);
        for _ in 0..2 {
            let out = run_exchange(
                &mut Burst { n: 3 },
                &mut Recorder::default(),
                &mut wire,
                ExchangeLimits::default(),
                &mut rng,
            );
            assert_eq!(out.fault_duplications, 3);
        }
        assert_eq!(wire.fault_a_to_b.duplications(), 6);
    }

    #[test]
    fn max_events_zero_finishes_immediately_unquiesced() {
        let mut pinger = Pinger {
            remaining: 1,
            awaiting: false,
        };
        let out = run_exchange(
            &mut pinger,
            &mut Echoer,
            &mut Wire::ideal(SimDuration::from_millis(1)),
            ExchangeLimits {
                max_events: 0,
                ..ExchangeLimits::default()
            },
            &mut SimRng::new(4),
        );
        assert!(!out.quiesced);
        assert_eq!(out.finished_at, SimTime::ZERO);
        // The Initial was offered to the wire but never delivered.
        assert_eq!(out.datagrams(Direction::AtoB), 1);
        assert_eq!(pinger.remaining, 1);
    }

    #[test]
    fn nothing_to_do_quiesces_at_zero() {
        let out = run_exchange(
            &mut Pinger {
                remaining: 0,
                awaiting: false,
            },
            &mut Echoer,
            &mut Wire::ideal(SimDuration::from_millis(1)),
            ExchangeLimits::default(),
            &mut SimRng::new(5),
        );
        assert!(out.quiesced);
        assert_eq!(out.finished_at, SimTime::ZERO);
        assert!(out.trace.is_empty());
    }

    #[test]
    fn direction_flip_is_involutive() {
        assert_eq!(Direction::AtoB.flip(), Direction::BtoA);
        assert_eq!(Direction::AtoB.flip().flip(), Direction::AtoB);
    }
}
