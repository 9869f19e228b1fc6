//! Threaded transport: each peer on its own thread, crossbeam channels in
//! between.
//!
//! The simulated network in [`crate::sim`] is deterministic and is what the
//! experiments measure. This module demonstrates the same protocol under
//! real concurrency: a router thread dispatches messages between per-peer
//! channels, mirroring the prototype's socket layer. Integration tests run
//! complete negotiations over it to show the protocol is not an artifact of
//! deterministic scheduling.

use crate::faults::{FaultLane, FaultPlan, FaultStats};
use crate::message::Message;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use peertrust_core::PeerId;
use peertrust_telemetry::{Field, Telemetry};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A peer's connection to the router.
pub struct Endpoint {
    pub peer: PeerId,
    to_router: Sender<Message>,
    from_router: Receiver<Message>,
    telemetry: Telemetry,
}

impl Endpoint {
    /// Send a message (routing is by `msg.to`).
    pub fn send(&self, msg: Message) -> Result<(), String> {
        if self.telemetry.enabled() {
            self.telemetry
                .incr(&format!("net.thread.sent.{}", self.peer), 1);
            let mut fields = vec![
                Field::str("from", self.peer.to_string()),
                Field::str("to", msg.to.to_string()),
                Field::str("kind", msg.payload.kind()),
            ];
            crate::sim::push_trace_fields(&mut fields, msg.trace);
            self.telemetry
                .event(0, msg.negotiation.0, "net.thread.send", fields);
        }
        self.to_router
            .send(msg)
            .map_err(|e| format!("router gone: {e}"))
    }

    /// Blocking receive with timeout; `None` on timeout or router shutdown.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Message> {
        match self.from_router.recv_timeout(timeout) {
            Ok(m) => {
                if self.telemetry.enabled() {
                    self.telemetry
                        .incr(&format!("net.thread.recv.{}", self.peer), 1);
                    let mut fields = vec![
                        Field::str("to", self.peer.to_string()),
                        Field::str("kind", m.payload.kind()),
                    ];
                    crate::sim::push_trace_fields(&mut fields, m.trace);
                    self.telemetry
                        .event(0, m.negotiation.0, "net.thread.recv", fields);
                }
                Some(m)
            }
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Non-blocking drain of everything currently queued.
    pub fn drain(&self) -> Vec<Message> {
        let mut out = Vec::new();
        while let Ok(m) = self.from_router.try_recv() {
            out.push(m);
        }
        if self.telemetry.enabled() && !out.is_empty() {
            self.telemetry
                .observe("net.thread.queue_depth", out.len() as u64);
        }
        out
    }
}

/// Handle to the router thread; dropping it (after endpoints are dropped)
/// shuts the router down.
pub struct Router {
    handle: Option<JoinHandle<u64>>,
    undeliverable: Arc<AtomicU64>,
    faults: Arc<Mutex<FaultStats>>,
}

impl Router {
    /// Wait for the router to finish (all endpoints dropped). Returns the
    /// number of messages routed.
    pub fn join(mut self) -> u64 {
        self.handle
            .take()
            .expect("join called once")
            .join()
            .expect("router thread panicked")
    }

    /// Messages addressed to peers the router does not know. Compatible
    /// with `NetStats::undeliverable` — a dropped-message count, never a
    /// silent discard.
    pub fn undeliverable(&self) -> u64 {
        self.undeliverable.load(Ordering::SeqCst)
    }

    /// Injection counters from the router's fault lane (all zero when the
    /// network was built without one). Final once the router has exited;
    /// a live router publishes after each routed message.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.lock().expect("fault stats poisoned").clone()
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Create endpoints for `peers` plus the router thread connecting them.
/// Messages to unknown peers are dropped (counted but not delivered).
pub fn channel_network(peers: &[PeerId]) -> (HashMap<PeerId, Endpoint>, Router) {
    channel_network_with_telemetry(peers, Telemetry::disabled())
}

/// [`channel_network`] with a telemetry pipeline shared by every endpoint:
/// sends, receives and drain depths are recorded per peer. The handle is
/// cloned into each endpoint, so events from all peer threads interleave
/// into one stream.
pub fn channel_network_with_telemetry(
    peers: &[PeerId],
    telemetry: Telemetry,
) -> (HashMap<PeerId, Endpoint>, Router) {
    channel_network_faulty(peers, FaultPlan::none(), telemetry)
}

/// [`channel_network_with_telemetry`] with a fault lane in the router —
/// the same [`FaultPlan`] vocabulary the simulated network uses, applied
/// under real concurrency. Drop, duplicate and corruption probabilities
/// behave as in the sim; injected delays/reorders only count (channel
/// scheduling is already nondeterministic, there is no global clock to
/// shift against), and crash windows are interpreted on the router's
/// routed-message index rather than ticks. [`FaultPlan::none`] makes this
/// behave exactly like the plain router.
///
/// Messages to unknown peers are never silently discarded: they count in
/// [`Router::undeliverable`] and emit a `net.undeliverable` event.
pub fn channel_network_faulty(
    peers: &[PeerId],
    plan: FaultPlan,
    telemetry: Telemetry,
) -> (HashMap<PeerId, Endpoint>, Router) {
    let (to_router, router_rx) = unbounded::<Message>();
    let mut endpoints = HashMap::new();
    let mut peer_txs: HashMap<PeerId, Sender<Message>> = HashMap::new();
    for &peer in peers {
        let (tx, rx) = unbounded::<Message>();
        peer_txs.insert(peer, tx);
        endpoints.insert(
            peer,
            Endpoint {
                peer,
                to_router: to_router.clone(),
                from_router: rx,
                telemetry: telemetry.clone(),
            },
        );
    }
    drop(to_router); // router exits when every endpoint sender is dropped

    let undeliverable = Arc::new(AtomicU64::new(0));
    let faults = Arc::new(Mutex::new(FaultStats::default()));
    let undeliverable_in = Arc::clone(&undeliverable);
    let faults_in = Arc::clone(&faults);
    let router_telemetry = telemetry.clone();
    let handle = std::thread::Builder::new()
        .name("peertrust-router".into())
        .spawn(move || {
            let mut routed = 0u64;
            let mut lane = (!plan.is_none()).then(|| FaultLane::new(plan));
            let mut clock = 0u64;
            while let Ok(msg) = router_rx.recv() {
                clock += 1;
                let Some(tx) = peer_txs.get(&msg.to) else {
                    undeliverable_in.fetch_add(1, Ordering::SeqCst);
                    router_telemetry.incr("net.undeliverable", 1);
                    if router_telemetry.enabled() {
                        router_telemetry.event(
                            clock,
                            msg.negotiation.0,
                            "net.undeliverable",
                            vec![
                                Field::str("from", msg.from.to_string()),
                                Field::str("to", msg.to.to_string()),
                                Field::str("kind", msg.payload.kind()),
                            ],
                        );
                    }
                    continue;
                };
                let mut duplicate = false;
                if let Some(lane) = &mut lane {
                    let verdict = lane.apply(&msg, clock);
                    duplicate = verdict.duplicate_at.is_some();
                    *faults_in.lock().expect("fault stats poisoned") = lane.stats().clone();
                    if let Some(kind) = verdict.dropped {
                        router_telemetry.incr(&format!("net.fault.{}", kind.name()), 1);
                        if router_telemetry.enabled() && !msg.trace.is_none() {
                            let mut fields = vec![
                                Field::str("kind", kind.name()),
                                Field::str("from", msg.from.to_string()),
                                Field::str("to", msg.to.to_string()),
                            ];
                            crate::sim::push_trace_fields(&mut fields, msg.trace);
                            router_telemetry.event(clock, msg.negotiation.0, "net.fault", fields);
                        }
                        continue;
                    }
                }
                if duplicate {
                    // Same message id delivered twice, as on the sim lane.
                    let _ = tx.send(msg.clone());
                }
                // A send error just means the recipient hung up.
                if tx.send(msg).is_ok() {
                    routed += 1;
                }
            }
            routed
        })
        .expect("spawn router");

    (
        endpoints,
        Router {
            handle: Some(handle),
            undeliverable,
            faults,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{MessageId, NegotiationId, Payload, QueryId, TraceContext};
    use peertrust_core::Literal;

    fn p(n: &str) -> PeerId {
        PeerId::new(n)
    }

    fn mk(from: PeerId, to: PeerId, n: u64) -> Message {
        Message {
            id: MessageId(n),
            negotiation: NegotiationId(1),
            from,
            to,
            payload: Payload::Query {
                id: QueryId(n),
                goal: Literal::truth(),
            },
            hops: 0,
            trace: TraceContext::NONE,
        }
    }

    #[test]
    fn routes_between_endpoints() {
        let peers = [p("t-a"), p("t-b")];
        let (mut eps, router) = channel_network(&peers);
        let a = eps.remove(&p("t-a")).unwrap();
        let b = eps.remove(&p("t-b")).unwrap();

        a.send(mk(p("t-a"), p("t-b"), 1)).unwrap();
        let got = b.recv_timeout(Duration::from_secs(2)).expect("delivered");
        assert_eq!(got.from, p("t-a"));

        drop(a);
        drop(b);
        assert_eq!(router.join(), 1);
    }

    #[test]
    fn unknown_recipient_counted_not_silently_dropped() {
        let peers = [p("u-a")];
        let (mut eps, router) = channel_network(&peers);
        let a = eps.remove(&p("u-a")).unwrap();
        a.send(mk(p("u-a"), p("u-ghost"), 1)).unwrap();
        a.send(mk(p("u-a"), p("u-a"), 2)).unwrap();
        // The router handles messages in order, so once the self-message
        // arrives the ghost one has already been counted.
        let got = a
            .recv_timeout(Duration::from_secs(2))
            .expect("self message");
        assert_eq!(got.id, MessageId(2));
        assert_eq!(router.undeliverable(), 1);
        drop(a);
        assert_eq!(router.join(), 1);
    }

    #[test]
    fn unknown_recipient_emits_telemetry_event() {
        let (telemetry, ring) = Telemetry::ring(64);
        let peers = [p("ut-a")];
        let (mut eps, router) = channel_network_with_telemetry(&peers, telemetry.clone());
        let a = eps.remove(&p("ut-a")).unwrap();
        a.send(mk(p("ut-a"), p("ut-ghost"), 1)).unwrap();
        a.send(mk(p("ut-a"), p("ut-a"), 2)).unwrap();
        a.recv_timeout(Duration::from_secs(2))
            .expect("self message");
        assert_eq!(router.undeliverable(), 1);
        assert!(ring.events().iter().any(|e| e.kind == "net.undeliverable"));
        assert_eq!(telemetry.metrics().unwrap().counter("net.undeliverable"), 1);
        drop(a);
        router.join();
    }

    #[test]
    fn faulty_router_drops_and_duplicates_deterministically_by_plan() {
        use crate::faults::{FaultPlan, LinkFaults};
        // Drop everything on one link, duplicate everything on another.
        let plan = FaultPlan::uniform(1, LinkFaults::NONE)
            .with_link(p("f-a"), p("f-b"), LinkFaults::drops(1.0))
            .with_link(
                p("f-b"),
                p("f-a"),
                LinkFaults {
                    dup_ppm: 1_000_000,
                    ..LinkFaults::NONE
                },
            );
        let peers = [p("f-a"), p("f-b")];
        let (mut eps, router) = channel_network_faulty(&peers, plan, Telemetry::disabled());
        let a = eps.remove(&p("f-a")).unwrap();
        let b = eps.remove(&p("f-b")).unwrap();

        a.send(mk(p("f-a"), p("f-b"), 1)).unwrap();
        assert!(b.recv_timeout(Duration::from_millis(200)).is_none());

        b.send(mk(p("f-b"), p("f-a"), 2)).unwrap();
        let first = a.recv_timeout(Duration::from_secs(2)).expect("original");
        let second = a.recv_timeout(Duration::from_secs(2)).expect("duplicate");
        assert_eq!(first.id, second.id);

        let stats = router.fault_stats();
        assert_eq!(stats.injected_drops, 1);
        assert_eq!(stats.duplicates, 1);
        drop(a);
        drop(b);
        router.join();
    }

    #[test]
    fn concurrent_senders() {
        let names: Vec<PeerId> = (0..4).map(|i| PeerId::new(&format!("c-{i}"))).collect();
        let (mut eps, router) = channel_network(&names);
        let sink = eps.remove(&names[0]).unwrap();
        let senders: Vec<Endpoint> = names[1..]
            .iter()
            .map(|pid| eps.remove(pid).unwrap())
            .collect();

        let handles: Vec<_> = senders
            .into_iter()
            .map(|ep| {
                let to = names[0];
                std::thread::spawn(move || {
                    for i in 0..10 {
                        ep.send(mk(ep.peer, to, i)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        let mut received = 0;
        while received < 30 {
            if sink.recv_timeout(Duration::from_secs(2)).is_some() {
                received += 1;
            } else {
                break;
            }
        }
        assert_eq!(received, 30);
        drop(sink);
        assert_eq!(router.join(), 30);
    }

    #[test]
    fn drain_collects_queued() {
        let peers = [p("d-a"), p("d-b")];
        let (mut eps, _router) = channel_network(&peers);
        let a = eps.remove(&p("d-a")).unwrap();
        let b = eps.remove(&p("d-b")).unwrap();
        for i in 0..5 {
            a.send(mk(p("d-a"), p("d-b"), i)).unwrap();
        }
        // Wait until all five arrive, then drain.
        let first = b.recv_timeout(Duration::from_secs(2)).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let rest = b.drain();
        assert_eq!(1 + rest.len(), 5);
        assert_eq!(first.id, MessageId(0));
    }
}

/// A framed endpoint: like [`Endpoint`] but every message crosses the
/// router as a length-prefixed JSON frame (see [`crate::codec`]), exactly
/// as a socket deployment would ship it. Useful to prove the negotiation
/// protocol survives real serialization, not just in-process moves.
pub struct FramedEndpoint {
    inner: Endpoint,
}

impl FramedEndpoint {
    pub fn peer(&self) -> peertrust_core::PeerId {
        self.inner.peer
    }

    /// Encode and send; fails on serialization or routing errors.
    pub fn send(&self, msg: &Message) -> Result<(), String> {
        let frame = crate::codec::encode_frame(msg).map_err(|e| e.to_string())?;
        // The frame is decoded immediately to validate it, then the decoded
        // message is routed (the router only understands `Message`).
        let mut buf = bytes::BytesMut::from(&frame[..]);
        let decoded = crate::codec::decode_frame(&mut buf).map_err(|e| e.to_string())?;
        self.inner.send(decoded)
    }

    /// Blocking receive with timeout.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Option<Message> {
        self.inner.recv_timeout(timeout)
    }
}

/// [`channel_network`] with framed endpoints: every send round-trips
/// through the wire codec.
pub fn framed_channel_network(
    peers: &[peertrust_core::PeerId],
) -> (
    std::collections::HashMap<peertrust_core::PeerId, FramedEndpoint>,
    Router,
) {
    let (endpoints, router) = channel_network(peers);
    let framed = endpoints
        .into_iter()
        .map(|(id, inner)| (id, FramedEndpoint { inner }))
        .collect();
    (framed, router)
}

#[cfg(test)]
mod framed_tests {
    use super::*;
    use crate::message::{MessageId, NegotiationId, Payload, QueryId, TraceContext};
    use peertrust_core::{Literal, PeerId, Term};
    use std::time::Duration;

    #[test]
    fn framed_endpoints_roundtrip_messages() {
        let peers = [PeerId::new("fr-a"), PeerId::new("fr-b")];
        let (mut eps, _router) = framed_channel_network(&peers);
        let a = eps.remove(&peers[0]).unwrap();
        let b = eps.remove(&peers[1]).unwrap();
        let msg = Message {
            id: MessageId(1),
            negotiation: NegotiationId(1),
            from: peers[0],
            to: peers[1],
            payload: Payload::Query {
                id: QueryId(1),
                goal: Literal::new("student", vec![Term::var("X")]).at(Term::str("UIUC")),
            },
            hops: 0,
            trace: TraceContext::NONE,
        };
        a.send(&msg).unwrap();
        let got = b.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(got, msg);
        assert_eq!(b.peer(), peers[1]);
    }
}
