//! Credit-based flow control.
//!
//! A wire stream is a bounded window of `W` tuples: at most `W` tuples
//! are in flight between sender and receiver, and a sender whose
//! receiver stalls blocks.
//!
//! Mechanically: the sender starts with `W` credits ([`CreditGate`]),
//! spends one per tuple, and blocks (bounded by a timeout) at zero. The
//! receiving side buffers tuples in a bounded [`Inbox`]; each consumer
//! `pop` returns one credit to the sender as a [`Frame::Credit`] on the
//! reverse direction of the same TCP connection.
//!
//! Every wait here is bounded: a sender that never receives credit fails
//! with a flow-control timeout (and a `flow.stall` event), and a consumer
//! whose producer goes silent fails with a receive timeout. A dead or
//! stalled peer therefore surfaces as a clean per-query error, never a
//! hang.

use crate::frame::{write_frame, Frame};
use paradise_exec::{ExecError, Result, Tuple};
use paradise_obs::EventLog;
use paradise_util::failpoint;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

fn lock_err<T>(e: std::sync::PoisonError<T>) -> T {
    e.into_inner()
}

struct GateState {
    credits: u64,
    closed: Option<String>,
}

/// Sender-side credit counter: `acquire` blocks until the receiver has
/// granted room (or the link dies / the wait times out).
pub struct CreditGate {
    state: Mutex<GateState>,
    cv: Condvar,
    events: Option<Arc<EventLog>>,
}

impl CreditGate {
    /// A gate holding `initial` credits (the stream's window).
    pub fn new(initial: u64) -> CreditGate {
        CreditGate {
            state: Mutex::new(GateState { credits: initial, closed: None }),
            cv: Condvar::new(),
            events: None,
        }
    }

    /// A gate that reports flow-control stalls to `events`.
    pub fn with_events(initial: u64, events: Option<Arc<EventLog>>) -> CreditGate {
        CreditGate { events, ..CreditGate::new(initial) }
    }

    /// Takes one credit, waiting up to `timeout` for the receiver.
    pub fn acquire(&self, timeout: Duration) -> Result<()> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock().unwrap_or_else(lock_err);
        loop {
            if let Some(reason) = &st.closed {
                return Err(ExecError::Other(format!("stream closed: {reason}")));
            }
            if st.credits > 0 {
                st.credits -= 1;
                return Ok(());
            }
            let now = Instant::now();
            if now >= deadline {
                if let Some(events) = &self.events {
                    events
                        .emit("flow.stall", &[("timeout_ms", (timeout.as_millis() as u64).into())]);
                }
                return Err(ExecError::Other(
                    "flow-control timeout: receiver granted no credit (stalled or dead peer)"
                        .into(),
                ));
            }
            let (guard, _) = self.cv.wait_timeout(st, deadline - now).unwrap_or_else(lock_err);
            st = guard;
        }
    }

    /// Returns `n` credits (receiver consumed `n` tuples).
    pub fn grant(&self, n: u64) {
        let mut st = self.state.lock().unwrap_or_else(lock_err);
        st.credits += n;
        self.cv.notify_all();
    }

    /// Marks the stream dead; pending and future `acquire`s fail fast.
    pub fn close(&self, reason: &str) {
        let mut st = self.state.lock().unwrap_or_else(lock_err);
        if st.closed.is_none() {
            st.closed = Some(reason.to_string());
        }
        self.cv.notify_all();
    }

    /// Waits up to `timeout` for [`CreditGate::close`].
    pub fn wait_closed(&self, timeout: Duration) {
        let st = self.state.lock().unwrap_or_else(lock_err);
        let _ = self.cv.wait_timeout_while(st, timeout, |st| st.closed.is_none());
    }
}

/// How long a consumer waits for the *next* tuple before declaring the
/// producer dead, when no explicit timeout is configured.
pub const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(30);

struct InboxState {
    queue: VecDeque<Tuple>,
    eos: bool,
    error: Option<String>,
}

/// Receiver-side bounded tuple buffer (capacity = the stream window).
pub struct Inbox {
    state: Mutex<InboxState>,
    cv: Condvar,
    capacity: usize,
    recv_timeout: Duration,
    /// Reverse direction of the stream's connection, used to return
    /// credits from the consumer thread. Deliberately *outside* the state
    /// mutex: a credit write to a blocked socket must never hold up the
    /// connection reader's `push`.
    credit_sink: Mutex<Option<Box<dyn Write + Send>>>,
}

impl Inbox {
    /// An empty inbox holding at most `capacity` tuples, with the default
    /// per-tuple receive timeout.
    pub fn new(capacity: usize) -> Inbox {
        Inbox::with_timeout(capacity, DEFAULT_RECV_TIMEOUT)
    }

    /// An empty inbox whose `pop` waits at most `recv_timeout` for the
    /// next tuple before declaring the producer stalled or dead.
    pub fn with_timeout(capacity: usize, recv_timeout: Duration) -> Inbox {
        Inbox {
            state: Mutex::new(InboxState { queue: VecDeque::new(), eos: false, error: None }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
            recv_timeout,
            credit_sink: Mutex::new(None),
        }
    }

    /// Attaches the connection on which `pop` returns credits.
    pub fn set_credit_sink(&self, conn: impl Write + Send + 'static) {
        *self.credit_sink.lock().unwrap_or_else(lock_err) = Some(Box::new(conn));
    }

    /// Enqueues a received tuple (called by the connection reader). Blocks
    /// while the buffer is full — with a well-behaved peer this never
    /// happens, because credits bound the tuples in flight. Returns `false`
    /// (discarding the tuple) once the stream is terminal: the consumer
    /// saw EOS, the link died, or the receiver was dropped — the reader
    /// must stop, not block forever against a consumer that will never
    /// pop again.
    #[must_use]
    pub fn push(&self, t: Tuple) -> bool {
        let mut st = self.state.lock().unwrap_or_else(lock_err);
        loop {
            if st.eos || st.error.is_some() {
                return false;
            }
            if st.queue.len() < self.capacity {
                st.queue.push_back(t);
                self.cv.notify_all();
                return true;
            }
            st = self.cv.wait(st).unwrap_or_else(lock_err);
        }
    }

    /// Marks the stream complete (peer sent EOS) and wakes any blocked
    /// pusher or popper.
    pub fn finish(&self) {
        let mut st = self.state.lock().unwrap_or_else(lock_err);
        st.eos = true;
        self.cv.notify_all();
    }

    /// Marks the stream broken (peer died / protocol error) and wakes any
    /// blocked pusher or popper.
    pub fn fail(&self, reason: &str) {
        let mut st = self.state.lock().unwrap_or_else(lock_err);
        if st.error.is_none() {
            st.error = Some(reason.to_string());
        }
        self.cv.notify_all();
    }

    /// Declares the consuming side gone (the receiver handle was dropped
    /// before EOS). Blocked pushers bail out instead of waiting on pops
    /// that will never come.
    pub fn close_receiver(&self) {
        let mut st = self.state.lock().unwrap_or_else(lock_err);
        if !st.eos && st.error.is_none() {
            st.error = Some("receiver dropped before EOS".to_string());
        }
        st.queue.clear();
        self.cv.notify_all();
    }

    /// Dequeues the next tuple, blocking until one arrives, the peer
    /// finishes, the link dies, or the per-tuple receive timeout expires
    /// (a producer gone silent is a dead peer, not a reason to hang).
    /// Returns `None` on EOS *and* on failure — check [`Inbox::error`] to
    /// distinguish. Each successful pop returns one credit to the sender,
    /// written *after* the inbox lock is released.
    pub fn pop(&self) -> Option<Tuple> {
        let deadline = Instant::now() + self.recv_timeout;
        let popped = {
            let mut st = self.state.lock().unwrap_or_else(lock_err);
            loop {
                if let Some(t) = st.queue.pop_front() {
                    self.cv.notify_all();
                    break Some(t);
                }
                if st.eos || st.error.is_some() {
                    break None;
                }
                let now = Instant::now();
                if now >= deadline {
                    st.error = Some(format!(
                        "stream receive timeout after {} ms (stalled or dead peer)",
                        self.recv_timeout.as_millis()
                    ));
                    self.cv.notify_all();
                    break None;
                }
                let (guard, _) = self.cv.wait_timeout(st, deadline - now).unwrap_or_else(lock_err);
                st = guard;
            }
        };
        if popped.is_some() {
            // Return the credit on the reverse channel, outside the state
            // lock. Write failures mean the sender is gone; its own error
            // handling covers that. `net.credit` injects grant loss.
            if failpoint::trigger("net.credit").is_none() {
                let mut sink = self.credit_sink.lock().unwrap_or_else(lock_err);
                if let Some(conn) = sink.as_mut() {
                    let _ = write_frame(conn, &Frame::Credit(1));
                }
            }
        }
        popped
    }

    /// The abnormal-termination reason, if the link died.
    pub fn error(&self) -> Option<String> {
        self.state.lock().unwrap_or_else(lock_err).error.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradise_exec::value::Value;
    use std::sync::mpsc;
    use std::sync::Arc;

    fn tuple(v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(v)])
    }

    #[test]
    fn gate_blocks_and_unblocks() {
        let gate = Arc::new(CreditGate::new(2));
        gate.acquire(Duration::from_millis(10)).unwrap();
        gate.acquire(Duration::from_millis(10)).unwrap();
        // Exhausted: acquire times out.
        assert!(gate.acquire(Duration::from_millis(20)).is_err());
        // A concurrent grant unblocks a waiting acquire.
        let g2 = gate.clone();
        let waiter = std::thread::spawn(move || g2.acquire(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(10));
        gate.grant(1);
        waiter.join().unwrap().unwrap();
    }

    #[test]
    fn gate_close_fails_fast() {
        let gate = Arc::new(CreditGate::new(0));
        let g2 = gate.clone();
        let waiter = std::thread::spawn(move || g2.acquire(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(10));
        gate.close("peer died");
        let err = waiter.join().unwrap().unwrap_err();
        assert!(err.to_string().contains("peer died"), "{err}");
    }

    #[test]
    fn inbox_pop_blocks_until_push_and_drains_after_eos() {
        let inbox = Arc::new(Inbox::new(4));
        let i2 = inbox.clone();
        let consumer = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Some(t) = i2.pop() {
                got.push(t);
            }
            got
        });
        for v in 0..3 {
            assert!(inbox.push(tuple(v)));
        }
        inbox.finish();
        let got = consumer.join().unwrap();
        assert_eq!(got.len(), 3);
        assert!(inbox.error().is_none());
    }

    #[test]
    fn inbox_fail_wakes_consumer() {
        let inbox = Arc::new(Inbox::new(4));
        let i2 = inbox.clone();
        let consumer = std::thread::spawn(move || i2.pop());
        std::thread::sleep(Duration::from_millis(10));
        inbox.fail("connection reset");
        assert!(consumer.join().unwrap().is_none());
        assert_eq!(inbox.error().unwrap(), "connection reset");
    }

    /// A credit sink that blocks every write until released — a stand-in
    /// for a TCP socket whose peer stopped draining its receive buffer.
    struct StalledWriter {
        release: Arc<(Mutex<bool>, Condvar)>,
    }

    impl StalledWriter {
        fn new() -> (StalledWriter, Arc<(Mutex<bool>, Condvar)>) {
            let release = Arc::new((Mutex::new(false), Condvar::new()));
            (StalledWriter { release: release.clone() }, release)
        }
    }

    impl Write for StalledWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let (m, cv) = &*self.release;
            let mut open = m.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Regression (flow.rs:175 bug): `pop` used to write the credit frame
    /// while holding the inbox mutex, so a stalled credit socket wedged
    /// the reader's `push` and deadlocked the stream. The credit write
    /// must happen outside the lock: a popped slot is immediately
    /// pushable even while the credit write blocks.
    #[test]
    fn stalled_credit_write_does_not_block_push() {
        let inbox = Arc::new(Inbox::new(2));
        let (writer, release) = StalledWriter::new();
        inbox.set_credit_sink(writer);
        assert!(inbox.push(tuple(1)));
        assert!(inbox.push(tuple(2)));
        // Consumer pops one tuple, then blocks inside the credit write.
        let i2 = inbox.clone();
        let consumer = std::thread::spawn(move || i2.pop());
        std::thread::sleep(Duration::from_millis(30));
        // Reader pushes into the freed slot; pre-fix this deadlocked
        // against the in-flight credit write.
        let i3 = inbox.clone();
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let ok = i3.push(tuple(3));
            done_tx.send(ok).unwrap();
        });
        let pushed = done_rx
            .recv_timeout(Duration::from_secs(2))
            .expect("push must not block behind a stalled credit write");
        assert!(pushed);
        // Unblock the credit write and drain.
        {
            let (m, cv) = &*release;
            *m.lock().unwrap() = true;
            cv.notify_all();
        }
        assert!(consumer.join().unwrap().is_some());
    }

    /// Regression (flow.rs:141 bug): a full inbox whose stream went
    /// terminal (fail, EOS, or dropped receiver) used to block `push`
    /// forever — `finish`/`fail`/`close_receiver` must wake pushers, and
    /// `push` must bail out instead of enqueueing into a dead stream.
    #[test]
    fn push_bails_out_once_stream_is_terminal() {
        for terminate in [
            (|i: &Inbox| i.fail("connection reset")) as fn(&Inbox),
            |i| i.finish(),
            |i| i.close_receiver(),
        ] {
            let inbox = Arc::new(Inbox::new(1));
            assert!(inbox.push(tuple(1)));
            let i2 = inbox.clone();
            let (done_tx, done_rx) = mpsc::channel();
            std::thread::spawn(move || {
                let ok = i2.push(tuple(2)); // blocks: inbox full
                done_tx.send(ok).unwrap();
            });
            std::thread::sleep(Duration::from_millis(20));
            terminate(&inbox);
            let pushed = done_rx
                .recv_timeout(Duration::from_secs(2))
                .expect("terminal stream must release blocked pushers");
            assert!(!pushed, "push into a terminal stream must report failure");
        }
    }

    #[test]
    fn dropped_receiver_reports_as_link_error() {
        let inbox = Inbox::new(4);
        assert!(inbox.push(tuple(1)));
        inbox.close_receiver();
        assert!(inbox.error().unwrap().contains("receiver dropped"), "{:?}", inbox.error());
        assert!(!inbox.push(tuple(2)));
        // A receiver dropped *after* EOS is normal completion, not an error.
        let done = Inbox::new(4);
        done.finish();
        done.close_receiver();
        assert!(done.error().is_none());
    }

    /// A producer that goes silent must surface as a bounded, clean error
    /// — never an indefinite hang of the consuming operator.
    #[test]
    fn pop_times_out_on_silent_producer() {
        let inbox = Inbox::with_timeout(4, Duration::from_millis(50));
        let t0 = Instant::now();
        assert!(inbox.pop().is_none());
        assert!(t0.elapsed() < Duration::from_secs(2));
        assert!(inbox.error().unwrap().contains("receive timeout"), "{:?}", inbox.error());
    }
}
