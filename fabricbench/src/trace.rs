//! Outside-in tracing: everything here wraps the simulator's public
//! surface from the benchmark's side, so the crates under test are run
//! unmodified.
//!
//! * [`CountingAllocator`] counts heap allocations process-wide.
//! * [`Timed`] wraps a [`HostApp`] and times its callbacks, charging them
//!   to one [`Layer`]. It also tallies the frames delivered to the host
//!   by kind, which gives the ASIC replay its frame mix.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tpp_netsim::{HostApp, HostCtx, Simulator};
use tpp_wire::ethernet::{EtherType, Frame};
use tpp_wire::tpp::{TppPacket, FLAG_ECHOED};

/// Global allocator that counts allocations (and reallocations).
pub struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards unchanged to the system allocator; the
// only addition is a relaxed counter increment, which publishes no data.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations made by the process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Which layer a host app's callback time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `tpp-host` closed-loop transport (`ClosedFlowGenApp`).
    Transport,
    /// `tpp-bench::traffic` open-loop flow generator (`FlowGenApp`).
    FlowGen,
    /// `tpp-apps` monitors, ndb, RCP\*, CSTORE writers and echo peers.
    Apps,
}

/// One kind of frame seen at the hosts, with the first copy captured.
pub struct FrameKind {
    /// A copy of the first frame of this kind, rewound to how its sender
    /// built it (TPP hop, stack pointer and executed flag reset).
    pub frame: Vec<u8>,
    /// Frames of this kind delivered.
    pub count: u64,
}

/// Callback-timing wrapper around one host app.
pub struct Timed {
    inner: Box<dyn HostApp>,
    layer: Layer,
    /// Host time spent inside the wrapped app's callbacks, ns.
    pub ns: u64,
    /// Callbacks made.
    pub calls: u64,
    /// Host time spent classifying delivered frames, ns (tracing cost,
    /// subtracted from the simulator's self time).
    pub capture_ns: u64,
    /// Delivered frames by kind (see [`frame_kind`]).
    pub kinds: BTreeMap<u64, FrameKind>,
}

impl Timed {
    /// Wrap `inner`, charging its callbacks to `layer`.
    pub fn new(inner: Box<dyn HostApp>, layer: Layer) -> Self {
        Timed {
            inner,
            layer,
            ns: 0,
            calls: 0,
            capture_ns: 0,
            kinds: BTreeMap::new(),
        }
    }

    /// The layer this app is charged to.
    pub fn layer(&self) -> Layer {
        self.layer
    }

    fn timed(&mut self, f: impl FnOnce(&mut dyn HostApp)) {
        let t = Instant::now();
        f(&mut *self.inner);
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
    }
}

impl HostApp for Timed {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.timed(|app| app.on_start(ctx));
    }

    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        let t0 = Instant::now();
        let key = frame_kind(&frame);
        match self.kinds.get_mut(&key) {
            Some(kind) => kind.count += 1,
            None => {
                let kind = FrameKind {
                    frame: rewind(&frame),
                    count: 1,
                };
                self.kinds.insert(key, kind);
            }
        }
        let t1 = Instant::now();
        self.capture_ns += (t1 - t0).as_nanos() as u64;
        self.inner.on_frame(frame, ctx);
        self.ns += t1.elapsed().as_nanos() as u64;
        self.calls += 1;
    }

    fn on_timer(&mut self, token: u64, ctx: &mut HostCtx<'_>) {
        self.timed(|app| app.on_timer(token, ctx));
    }
}

/// Read host `id`'s app as a `T`, looking through a [`Timed`] wrapper
/// when the run was traced.
pub fn app<T: HostApp>(sim: &Simulator, id: tpp_netsim::HostId, traced: bool) -> &T {
    if traced {
        // Deref the box first: `AsAny` is also implemented for the box
        // itself, which would hide the app inside.
        (*sim.host_app::<Timed>(id).inner)
            .as_any()
            .downcast_ref::<T>()
            .expect("traced host app type mismatch")
    } else {
        sim.host_app::<T>(id)
    }
}

/// A frame's kind: EtherType plus, for TPPs, whether it is an echo and
/// a hash of its instruction bytes; for other frames, the size class in
/// 256-byte steps.
pub fn frame_kind(frame: &[u8]) -> u64 {
    let Ok(eth) = Frame::new_checked(frame) else {
        return 0;
    };
    let ethertype = eth.ethertype().0 as u64;
    if eth.ethertype() == EtherType::TPP {
        if let Ok(tpp) = TppPacket::new_checked(eth.payload()) {
            let echoed = (tpp.flags() & FLAG_ECHOED != 0) as u64;
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in tpp.instruction_bytes() {
                h = (h ^ *b as u64).wrapping_mul(0x0100_0000_01b3);
            }
            return ethertype << 48 ^ echoed << 47 ^ (h >> 17);
        }
    }
    ethertype << 48 ^ (frame.len() as u64 / 256)
}

/// A copy of `frame` as its sender built it: a TPP that has not been
/// echoed gets its hop counter, stack pointer and executed flag reset,
/// so replaying it runs the program from the first hop again.
fn rewind(frame: &[u8]) -> Vec<u8> {
    let mut out = frame.to_vec();
    let mut eth = Frame::new_unchecked(&mut out[..]);
    if eth.ethertype() != EtherType::TPP {
        return out;
    }
    let payload = eth.payload_mut();
    if TppPacket::new_checked(&payload[..]).is_err() {
        return out;
    }
    let mut tpp = TppPacket::new_unchecked(payload);
    let flags = tpp.flags();
    if flags & FLAG_ECHOED == 0 {
        tpp.set_flags(flags & !tpp_wire::tpp::FLAG_EXECUTED);
        tpp.set_hop(0);
        tpp.set_sp(0);
    }
    out
}
