//! Byte identity of `CounterTask`'s probes.
//!
//! Two writers (host ids 0 and 2, so distinct per-writer guard cells)
//! increment one shared counter across a dumbbell, once racy and once
//! linearizable, so reads, writes and guarded increment ops go out for
//! many `(seq, cond, value)` triples. The receivers keep every probe as
//! it arrives, executed by the target switch, and then echo it. The
//! digests were captured from the task when it still re-assembled each
//! program from text per op; any change to the bytes the task puts on
//! the wire fails here.

use tpp_apps::{CounterTask, CounterWriteMode};
use tpp_host::EchoReceiver;
use tpp_netsim::{dumbbell, time, DumbbellParams, HostApp, HostCtx, RunLimit};
use tpp_wire::EthernetAddress;

/// Echoes like [`EchoReceiver`], keeping a copy of every frame first.
#[derive(Default)]
struct Recorder {
    frames: Vec<Vec<u8>>,
    echo: EchoReceiver,
}

impl HostApp for Recorder {
    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        self.frames.push(frame.clone());
        self.echo.on_frame(frame, ctx);
    }
}

/// FNV-1a over each frame's length and bytes, in arrival order.
fn digest(frames: &[Vec<u8>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in frames {
        for b in (f.len() as u32).to_be_bytes().iter().chain(f) {
            h = (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// `(frames, digest)` seen by each receiver after both writers finish.
fn run(mode: CounterWriteMode) -> Vec<(usize, u64)> {
    let apps: Vec<(Box<dyn HostApp>, Box<dyn HostApp>)> = (0..2)
        .map(|i| {
            let dst = EthernetAddress::from_host_id(2 * i + 1);
            (
                Box::new(CounterTask::new(dst, 1, 4, 12, mode)) as Box<dyn HostApp>,
                Box::new(Recorder::default()) as Box<dyn HostApp>,
            )
        })
        .collect();
    let (mut sim, bell) = dumbbell(
        DumbbellParams {
            n_pairs: 2,
            bottleneck_kbps: 100_000,
            ..Default::default()
        },
        apps,
    );
    sim.run(RunLimit::Until(time::secs(5)));
    for s in &bell.senders {
        assert!(sim.host_app::<CounterTask>(*s).done());
    }
    bell.receivers
        .iter()
        .map(|r| {
            let frames = &sim.host_app::<Recorder>(*r).frames;
            (frames.len(), digest(frames))
        })
        .collect()
}

#[test]
fn racy_reads_and_writes_are_byte_identical() {
    assert_eq!(
        run(CounterWriteMode::Racy),
        [(24, 0x7f25_9a17_a861_7d12), (24, 0xe427_c7f5_b260_7289)]
    );
}

#[test]
fn linearizable_reads_and_ops_are_byte_identical() {
    // Writer 2 loses CSTORE races and retries: more ops, fresh conds.
    assert_eq!(
        run(CounterWriteMode::Linearizable),
        [(24, 0x1f1b_9a83_7b7f_7c67), (48, 0xcbfb_a92b_dd57_f3f7)]
    );
}
