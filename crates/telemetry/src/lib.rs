//! Deterministic, zero-overhead-when-off event telemetry for the Mosaic
//! simulator.
//!
//! # Design
//!
//! - **Typed events** ([`Event`]): plain `Copy` records, no strings, no
//!   heap, serialized to JSONL with a fixed key order so equal traces are
//!   byte-identical.
//! - **Thread-local gate**: tracing state lives in a thread-local
//!   (enabled flag + boxed sink), which keeps the parallel sweep executor
//!   deterministic — each worker thread traces only its own runs, and
//!   collected events are re-ordered by job submission index, so traces
//!   are byte-identical at any `--jobs` count.
//! - **Zero overhead when off**: instrumentation sites call
//!   [`emit`] with a *closure*; when tracing is disabled the closure is
//!   never invoked, no event is constructed, and no sink is touched. The
//!   enabled check is one `const`-initialized thread-local `Cell` load.
//! - **Stall attribution** ([`StallBreakdown`]): exact per-bucket
//!   decomposition of warp stall cycles, built from [`AccessTimeline`]s
//!   on the always-on path (cheap stack writes, no tracing required).
//!
//! See `DESIGN.md` §10 for the determinism contract and overhead policy.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chrome;
pub mod event;
pub mod json;
pub mod progress;
pub mod stall;

pub use event::{escape_json, run_begin_jsonl, Event, SCHEMA};
pub use progress::Eta;
pub use stall::{AccessTimeline, StallBreakdown, StallBucket, MAX_TIMELINE_SEGS};

use std::cell::{Cell, RefCell};

/// Receives emitted events. Sinks run on the emitting thread; they must
/// not assume any global ordering across threads.
pub trait EventSink {
    /// Records one event.
    fn record(&mut self, ev: Event);

    /// Drains and returns buffered events, if the sink buffers any.
    /// In-memory sinks override this; streaming sinks use the default.
    fn take_events(&mut self) -> Vec<Event> {
        Vec::new()
    }
}

/// A sink that discards everything (the explicit "off" sink; with the
/// gate disabled it is never even called).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    fn record(&mut self, _ev: Event) {}
}

/// An unbounded in-memory sink; [`EventSink::take_events`] drains it.
#[derive(Debug, Default)]
pub struct MemSink {
    events: Vec<Event>,
}

impl MemSink {
    /// An empty sink.
    pub fn new() -> Self {
        MemSink::default()
    }
}

impl EventSink for MemSink {
    fn record(&mut self, ev: Event) {
        self.events.push(ev);
    }

    fn take_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }
}

/// A bounded cycle-stamped ring buffer: keeps the most recent `capacity`
/// events and counts how many were overwritten. Useful for flight-
/// recorder style capture of long runs.
#[derive(Debug)]
pub struct RingSink {
    buf: Vec<Event>,
    capacity: usize,
    next: usize,
    dropped: u64,
}

impl RingSink {
    /// A ring holding at most `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        RingSink { buf: Vec::new(), capacity: capacity.max(1), next: 0, dropped: 0 }
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl EventSink for RingSink {
    fn record(&mut self, ev: Event) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
            self.dropped += 1;
        }
        self.next = (self.next + 1) % self.capacity;
    }

    /// Drains the ring in arrival order (oldest surviving event first).
    fn take_events(&mut self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len());
        if self.buf.len() == self.capacity {
            out.extend_from_slice(&self.buf[self.next..]);
            out.extend_from_slice(&self.buf[..self.next]);
        } else {
            out.extend_from_slice(&self.buf);
        }
        self.buf.clear();
        self.next = 0;
        out
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static SINK: RefCell<Option<Box<dyn EventSink>>> = const { RefCell::new(None) };
}

/// Whether tracing is enabled on this thread. One thread-local load;
/// instrumentation may use it to skip building expensive event inputs.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Emits an event if tracing is enabled on this thread. The closure runs
/// only when enabled, so disabled call sites construct nothing.
#[inline]
pub fn emit(f: impl FnOnce() -> Event) {
    if enabled() {
        let ev = f();
        SINK.with(|sink| {
            if let Some(s) = sink.borrow_mut().as_mut() {
                s.record(ev);
            }
        });
    }
}

/// Turns the per-thread gate on or off.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Installs (or removes) this thread's sink, returning the previous one.
/// Installing a sink does not enable the gate — [`set_enabled`] controls
/// that separately, which is what lets tests install a counting sink and
/// prove the disabled path never reaches it.
pub fn set_sink(sink: Option<Box<dyn EventSink>>) -> Option<Box<dyn EventSink>> {
    SINK.with(|s| std::mem::replace(&mut *s.borrow_mut(), sink))
}

/// A scoped tracing session: enables tracing into a [`MemSink`] on
/// creation, and restores the disabled/no-sink state on
/// [`TraceSession::finish`] (or drop). One session wraps one simulated
/// run on one worker thread.
#[derive(Debug)]
pub struct TraceSession {
    finished: bool,
}

impl TraceSession {
    /// Starts tracing on this thread into a fresh in-memory sink.
    pub fn start() -> Self {
        set_sink(Some(Box::new(MemSink::new())));
        set_enabled(true);
        TraceSession { finished: false }
    }

    /// Stops tracing and returns the captured events in emission order.
    pub fn finish(mut self) -> Vec<Event> {
        self.finished = true;
        set_enabled(false);
        match set_sink(None) {
            Some(mut sink) => sink.take_events(),
            None => Vec::new(),
        }
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        if !self.finished {
            set_enabled(false);
            set_sink(None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64) -> Event {
        Event::Epoch { cycle, instructions: 0, stall_cycles: 0 }
    }

    #[test]
    fn disabled_emit_never_runs_the_closure() {
        set_enabled(false);
        let mut ran = false;
        emit(|| {
            ran = true;
            ev(0)
        });
        assert!(!ran);
    }

    #[test]
    fn session_captures_and_restores() {
        let session = TraceSession::start();
        assert!(enabled());
        emit(|| ev(1));
        emit(|| ev(2));
        let events = session.finish();
        assert_eq!(events, vec![ev(1), ev(2)]);
        assert!(!enabled());
        let mut captured = false;
        emit(|| {
            captured = true;
            ev(3)
        });
        assert!(!captured, "finish restores the disabled state");
    }

    #[test]
    fn dropped_session_restores_state() {
        {
            let _session = TraceSession::start();
            assert!(enabled());
        }
        assert!(!enabled());
        assert!(set_sink(None).is_none(), "drop removed the sink");
    }

    #[test]
    fn ring_sink_keeps_newest_in_order() {
        let mut ring = RingSink::new(3);
        for c in 0..5 {
            ring.record(ev(c));
        }
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.take_events(), vec![ev(2), ev(3), ev(4)]);
        // Partially filled after drain.
        ring.record(ev(9));
        assert_eq!(ring.take_events(), vec![ev(9)]);
    }
}
