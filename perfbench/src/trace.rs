//! The traced run's instruments, all owned by the benchmark: a counting
//! global allocator, and a `Process` adapter around each composite `Layer`
//! that times `Layer::poll`/`Layer::handle` per wire lane.
//!
//! The adapter does exactly what `simnet::impl_process_for_layer!` does
//! (`ctx.take_sends`, then the layer call, then `ctx.restore_sends`), so a
//! simulation of `Traced<S>` runs the same execution as one of `S`. Per-call
//! timings are summed into one bucket per simulated round: reconfig at
//! n=128 makes about 48k handle calls a round, far too many to keep a span
//! each.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use counters::CounterMsg;
use reconfig::ReconfigMsg;
use sharedmem::SharedMemMsg;
use simnet::stack::{Layer, Outbox};
use simnet::{Context, Payload, Process, ProcessId, WireCodec};
use vssmr::SmrMsg;

/// Counts allocations while [`counting`] is switched on. Only the traced run
/// switches it on; the untraced run pays one relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain statistics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` through this allocator, and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches allocation counting on or off.
pub fn counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// A composite wire format whose lanes the adapter can tell apart.
pub trait Lanes: WireCodec + Clone {
    /// Lane names, indexed by wire tag (the variant's declaration index).
    const LANES: &'static [&'static str];
    /// The lane that carries a nested `ReconfigMsg`, if any.
    const NESTED: Option<usize>;
    /// The wire tag of this message and, on the nested lane, the tag of the
    /// `ReconfigMsg` inside.
    fn tags(&self) -> (usize, Option<usize>);
}

/// Lane names of `ReconfigMsg`, which sharedmem and smr also nest.
pub const RECONFIG_LANES: &[&str] = &["heartbeat", "recsa", "recma", "join"];

fn reconfig_tag(msg: &ReconfigMsg) -> usize {
    match msg {
        ReconfigMsg::Heartbeat => 0,
        ReconfigMsg::RecSa(_) => 1,
        ReconfigMsg::RecMa(_) => 2,
        ReconfigMsg::Join(_) => 3,
    }
}

impl Lanes for ReconfigMsg {
    const LANES: &'static [&'static str] = RECONFIG_LANES;
    const NESTED: Option<usize> = None;
    fn tags(&self) -> (usize, Option<usize>) {
        (reconfig_tag(self), None)
    }
}

impl Lanes for CounterMsg {
    const LANES: &'static [&'static str] = &["sync", "label", "quorum"];
    const NESTED: Option<usize> = None;
    fn tags(&self) -> (usize, Option<usize>) {
        let tag = match self {
            CounterMsg::Sync(_) => 0,
            CounterMsg::Label(_) => 1,
            CounterMsg::Quorum(_) => 2,
        };
        (tag, None)
    }
}

impl Lanes for SmrMsg {
    const LANES: &'static [&'static str] = &["reconfig", "counter", "state"];
    const NESTED: Option<usize> = Some(0);
    fn tags(&self) -> (usize, Option<usize>) {
        match self {
            SmrMsg::Reconfig(inner) => (0, Some(reconfig_tag(inner))),
            SmrMsg::Counter(_) => (1, None),
            SmrMsg::State(_) => (2, None),
        }
    }
}

impl Lanes for SharedMemMsg {
    const LANES: &'static [&'static str] = &["reconfig", "register"];
    const NESTED: Option<usize> = Some(0);
    fn tags(&self) -> (usize, Option<usize>) {
        match self {
            SharedMemMsg::Reconfig(inner) => (0, Some(reconfig_tag(inner))),
            SharedMemMsg::Register(_) => (1, None),
        }
    }
}

/// Width of the per-lane tables: no wire format has more lanes.
const MAX_LANES: usize = 4;

/// Layer work of one simulated round, summed over every call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Bucket {
    /// Nanoseconds inside `Layer::poll`.
    pub poll_ns: u64,
    /// Nanoseconds inside `Layer::handle`, by inbound lane.
    pub handle_ns: [u64; MAX_LANES],
    /// Nanoseconds inside `Layer::handle` for the nested `ReconfigMsg`
    /// lane, by the nested tag.
    pub nested_ns: [u64; MAX_LANES],
    /// Messages sent, by outbound lane.
    pub msgs: [u64; MAX_LANES],
    /// Encoded bytes sent, by outbound lane (`WireCodec::encode`).
    pub bytes: [u64; MAX_LANES],
    /// Allocations made inside the layer calls.
    pub node_allocs: u64,
    /// Nanoseconds the adapter spent on its own bookkeeping (encoding and
    /// classifying outbound messages), excluded from substrate time.
    pub book_ns: u64,
}

impl Bucket {
    /// Total nanoseconds inside layer calls.
    pub fn node_ns(&self) -> u64 {
        self.poll_ns + self.handle_ns.iter().sum::<u64>()
    }
}

thread_local! {
    static BUCKET: RefCell<(Bucket, Vec<u8>)> = RefCell::new((Bucket::default(), Vec::new()));
}

/// Takes the bucket filled since the last call, leaving an empty one.
pub fn take_bucket() -> Bucket {
    BUCKET.with(|b| std::mem::take(&mut b.borrow_mut().0))
}

/// The benchmark-owned `Process` adapter around a composite layer.
#[derive(Debug, Clone)]
pub struct Traced<S>(pub S);

fn account_sends<W: Lanes>(sends: &[(ProcessId, Payload<W>)]) {
    let start = Instant::now();
    BUCKET.with(|b| {
        let (bucket, scratch) = &mut *b.borrow_mut();
        for (_, payload) in sends {
            let msg = payload.get();
            scratch.clear();
            msg.encode(scratch);
            let lane = msg.tags().0;
            bucket.msgs[lane] += 1;
            bucket.bytes[lane] += scratch.len() as u64;
        }
        bucket.book_ns += start.elapsed().as_nanos() as u64;
    });
}

fn record_call(ns: u64, node_allocs: u64, lane: Option<(usize, Option<usize>)>) {
    BUCKET.with(|b| {
        let bucket = &mut b.borrow_mut().0;
        bucket.node_allocs += node_allocs;
        match lane {
            None => bucket.poll_ns += ns,
            Some((tag, nested)) => {
                bucket.handle_ns[tag] += ns;
                if let Some(inner) = nested {
                    bucket.nested_ns[inner] += ns;
                }
            }
        }
    });
}

impl<S> Process for Traced<S>
where
    S: Layer,
    S::Wire: Lanes,
{
    type Msg = S::Wire;

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let mut out = Outbox::from_buffer(ctx.take_sends());
        let (allocs_before, start) = (allocs(), Instant::now());
        Layer::poll(&mut self.0, ctx.ids(), &mut out);
        record_call(
            start.elapsed().as_nanos() as u64,
            allocs() - allocs_before,
            None,
        );
        let sends = out.into_payloads();
        account_sends(&sends);
        ctx.restore_sends(sends);
    }

    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, ctx: &mut Context<'_, Self::Msg>) {
        let lane = msg.tags();
        let mut out = Outbox::from_buffer(ctx.take_sends());
        let (allocs_before, start) = (allocs(), Instant::now());
        Layer::handle(&mut self.0, from, msg, &mut out);
        record_call(
            start.elapsed().as_nanos() as u64,
            allocs() - allocs_before,
            Some(lane),
        );
        let sends = out.into_payloads();
        account_sends(&sends);
        ctx.restore_sends(sends);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::scenario::ScenarioTarget;
    use simnet::{SchedulerMode, Simulation};

    /// The match-based classification agrees with the tag bytes the codec
    /// writes, on every message a short bootstrap sends.
    fn tags_match_codec<S>(n: usize)
    where
        S: ScenarioTarget + Layer,
        S::Wire: Lanes,
    {
        let scenario = simnet::scenario::find("quiescent", n).expect("catalog scenario");
        let mut sim: Simulation<Traced<S>> =
            Simulation::new(scenario.sim_config(1, SchedulerMode::EventDriven));
        for i in 0..n as u32 {
            let id = ProcessId::new(i);
            sim.add_process_with_id(id, Traced(S::spawn_initial(id, n)));
        }
        let mut seen = 0;
        for _ in 0..30 {
            sim.step_round();
            for (from, to) in sim.network().links().collect::<Vec<_>>() {
                for packet in sim
                    .network()
                    .channel(from, to)
                    .into_iter()
                    .flat_map(|c| c.in_flight())
                {
                    let msg = packet.msg();
                    let mut bytes = Vec::new();
                    msg.encode(&mut bytes);
                    let (tag, nested) = msg.tags();
                    assert_eq!(bytes[0] as usize, tag);
                    assert_eq!(nested.is_some(), S::Wire::NESTED == Some(tag));
                    if let Some(inner) = nested {
                        assert_eq!(bytes[1] as usize, inner);
                    }
                    seen += 1;
                }
            }
        }
        assert!(seen > 0);
        take_bucket();
    }

    #[test]
    fn lane_tags_are_the_codec_tag_bytes() {
        tags_match_codec::<reconfig::ReconfigNode>(4);
        tags_match_codec::<counters::CounterNode>(4);
        tags_match_codec::<sharedmem::SharedMemNode>(4);
        tags_match_codec::<vssmr::SmrNode>(4);
    }
}
