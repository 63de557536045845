//! Byte identity of the frame writers.
//!
//! Hosts write every probe, transport segment and echo into a pooled
//! buffer. The goldens below were captured from the allocating builders
//! these writers replaced, so a change to any wire encoding fails here
//! before it shifts a simulation fingerprint. The properties check that a
//! recycled buffer (large capacity, dirty bytes, then cleared, as
//! `FramePool::alloc` hands it out) yields exactly the bytes of a fresh
//! `Vec`, and that the parsers read every field back.

use proptest::prelude::*;
use tpp_host::manager::NONCE_LEN;
use tpp_host::transport::{SegmentHdr, FLAG_FIN, FLAG_MINING, KIND_ACK, KIND_DATA};
use tpp_host::{echo_reply, ProbeBuilder};
use tpp_isa::{assemble, Program};
use tpp_wire::ethernet::{build_frame, EtherType, Frame};
use tpp_wire::tpp::{AddressingMode, TppPacket, FLAG_ECHOED, FLAG_EXECUTED};
use tpp_wire::{EthernetAddress, ETHERNET_HEADER_LEN};

/// `STACK_PROBE`: 70 bytes on the wire; the bytes after this prefix are zero.
const STACK_PROBE_LEN: usize = 70;
const STACK_PROBE: &[u8] = &[
    0x02, 0x00, 0x00, 0x00, 0x01, 0x02, 0x02, 0x00, 0x00, 0x0a, 0x0b, 0x0c, 0x66, 0x66, 0x01, 0x00,
    0x00, 0x30, 0x00, 0x08, 0x00, 0x18, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x02, 0x18, 0x00,
    0x00, 0x00, 0x18, 0x00, 0x20, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x00, 0x00, 0x00, 0x07, 0x01, 0x02,
    0x03, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x70, 0x61,
    0x79, 0x6c, 0x6f, 0x61, 0x64, 0x21,
];

/// `HOP_PROBE`: 70 bytes on the wire; the bytes after this prefix are zero.
const HOP_PROBE_LEN: usize = 70;
const HOP_PROBE: &[u8] = &[
    0x02, 0x00, 0x00, 0x00, 0x01, 0x02, 0x02, 0x00, 0x00, 0x0a, 0x0b, 0x0c, 0x66, 0x66, 0x01, 0x00,
    0x00, 0x38, 0x00, 0x08, 0x00, 0x20, 0x01, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x18, 0x00,
    0x00, 0x00, 0x18, 0x00, 0x20,
];

/// `DATA_FULL`: 1464 bytes on the wire; the bytes after this prefix are zero.
const DATA_FULL_LEN: usize = 1464;
const DATA_FULL: &[u8] = &[
    0x02, 0x00, 0x00, 0x00, 0x01, 0x02, 0x02, 0x00, 0x00, 0x0a, 0x0b, 0x0c, 0x08, 0x03, 0xf1, 0xc7,
    0x01, 0x02, 0x00, 0x01, 0x86, 0xa0, 0x00, 0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0xfe, 0xed,
    0xfa, 0xce, 0xca, 0xfe, 0xbe, 0xef, 0x00, 0x00, 0x00, 0x11, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x0b, 0xad, 0xf0, 0x0d, 0x05, 0x80,
];

/// `DATA_EMPTY`: 56 bytes on the wire; the bytes after this prefix are zero.
const DATA_EMPTY_LEN: usize = 56;
const DATA_EMPTY: &[u8] = &[
    0x02, 0x00, 0x00, 0x00, 0x01, 0x02, 0x02, 0x00, 0x00, 0x0a, 0x0b, 0x0c, 0x08, 0x03, 0xf1, 0xc7,
    0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x4d,
];

/// `ACK`: 56 bytes on the wire; the bytes after this prefix are zero.
const ACK_LEN: usize = 56;
const ACK: &[u8] = &[
    0x02, 0x00, 0x00, 0x00, 0x01, 0x02, 0x02, 0x00, 0x00, 0x0a, 0x0b, 0x0c, 0x08, 0x03, 0xf1, 0xc7,
    0x02, 0x03, 0x00, 0x00, 0x0b, 0xb8, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0xe2, 0x40, 0x01, 0x23,
    0x45, 0x67, 0x89, 0xab, 0xcd, 0xef, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x0f, 0x42, 0x3f,
];

/// `EXECUTED`: 70 bytes on the wire; the bytes after this prefix are zero.
const EXECUTED_LEN: usize = 70;
const EXECUTED: &[u8] = &[
    0x02, 0x00, 0x00, 0x00, 0x01, 0x02, 0x02, 0x00, 0x00, 0x0a, 0x0b, 0x0c, 0x66, 0x66, 0x01, 0x01,
    0x00, 0x30, 0x00, 0x08, 0x00, 0x18, 0x00, 0x01, 0x00, 0x08, 0x00, 0x00, 0x08, 0x02, 0x18, 0x00,
    0x00, 0x00, 0x18, 0x00, 0x20, 0x00, 0x00, 0x00, 0x00, 0x11, 0x00, 0x00, 0x00, 0x22, 0x01, 0x02,
    0x03, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x70, 0x61,
    0x79, 0x6c, 0x6f, 0x61, 0x64, 0x21,
];

/// `ECHO`: 70 bytes on the wire; the bytes after this prefix are zero.
const ECHO_LEN: usize = 70;
const ECHO: &[u8] = &[
    0x02, 0x00, 0x00, 0x0a, 0x0b, 0x0c, 0x02, 0x00, 0x00, 0x00, 0x01, 0x02, 0x66, 0x66, 0x01, 0x03,
    0x00, 0x30, 0x00, 0x08, 0x00, 0x18, 0x00, 0x01, 0x00, 0x08, 0x00, 0x00, 0x08, 0x02, 0x18, 0x00,
    0x00, 0x00, 0x18, 0x00, 0x20, 0x00, 0x00, 0x00, 0x00, 0x11, 0x00, 0x00, 0x00, 0x22, 0x01, 0x02,
    0x03, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x70, 0x61,
    0x79, 0x6c, 0x6f, 0x61, 0x64, 0x21,
];

fn dst() -> EthernetAddress {
    EthernetAddress::from_host_id(0x0102)
}

fn src() -> EthernetAddress {
    EthernetAddress::from_host_id(0x0a0b0c)
}

/// A pinned frame: `prefix` then zeros up to `len` bytes.
fn golden(prefix: &[u8], len: usize) -> Vec<u8> {
    let mut frame = prefix.to_vec();
    frame.resize(len, 0);
    frame
}

/// What `FramePool::alloc` hands out after a large frame was recycled:
/// empty, with plenty of capacity and stale bytes behind `len`.
fn recycled_buffer() -> Vec<u8> {
    let mut buf = vec![0xa5u8; 4096];
    buf.clear();
    buf
}

fn two_push_program() -> Program {
    assemble("PUSH [Switch:SwitchID]\nPUSH [Queue:QueueSize]").unwrap()
}

fn stack_probe() -> ProbeBuilder {
    ProbeBuilder::stack(&two_push_program(), 3).init_memory(&[0xdead_beef, 7, 0x0102_0304])
}

#[test]
fn stack_probe_with_init_and_payload_matches_golden() {
    let expected = golden(STACK_PROBE, STACK_PROBE_LEN);
    let probe = stack_probe();
    assert_eq!(
        probe.build_frame_with_payload(dst(), src(), b"payload!", 0x0802),
        expected
    );
    let mut buf = recycled_buffer();
    probe.build_into(&mut buf, dst(), src(), b"payload!", 0x0802);
    assert_eq!(buf, expected);
}

#[test]
fn hop_probe_matches_golden() {
    let expected = golden(HOP_PROBE, HOP_PROBE_LEN);
    let probe = ProbeBuilder::hop(&two_push_program(), 4);
    assert_eq!(probe.build_frame(dst(), src()), expected);
    let mut buf = recycled_buffer();
    probe.build_into(&mut buf, dst(), src(), &[], 0);
    assert_eq!(buf, expected);
}

fn full_data() -> SegmentHdr {
    SegmentHdr {
        kind: KIND_DATA,
        flags: FLAG_MINING,
        total_bytes: 100_000,
        start_ns: 0x1122_3344_5566,
        key: 0xfeed_face_cafe_beef,
        seq: 17,
        ack: 0,
        ts: 0x0bad_f00d,
        body_len: 1408,
    }
}

fn empty_data() -> SegmentHdr {
    SegmentHdr {
        kind: KIND_DATA,
        flags: FLAG_FIN,
        total_bytes: 0,
        start_ns: 5,
        key: 9,
        seq: 0,
        ack: 0,
        ts: 77,
        body_len: 0,
    }
}

fn ack() -> SegmentHdr {
    SegmentHdr {
        kind: KIND_ACK,
        flags: FLAG_FIN | FLAG_MINING,
        total_bytes: 3000,
        start_ns: 123_456,
        key: 0x0123_4567_89ab_cdef,
        seq: 2,
        ack: 3,
        ts: 999_999,
        body_len: 0,
    }
}

#[test]
fn transport_segments_match_goldens() {
    for (hdr, prefix, len) in [
        (full_data(), DATA_FULL, DATA_FULL_LEN),
        (empty_data(), DATA_EMPTY, DATA_EMPTY_LEN),
        (ack(), ACK, ACK_LEN),
    ] {
        let expected = golden(prefix, len);
        let mut fresh = Vec::new();
        hdr.write_frame(&mut fresh, dst(), src());
        assert_eq!(fresh, expected, "{hdr:?}");
        let mut buf = recycled_buffer();
        hdr.write_frame(&mut buf, dst(), src());
        assert_eq!(buf, expected, "{hdr:?}");
        assert_eq!(hdr.frame_len(), len);
    }
}

#[test]
fn echo_rewrites_in_place_to_golden() {
    let executed = golden(EXECUTED, EXECUTED_LEN);
    // The executed frame is the stack probe after one hop.
    let mut probe = stack_probe().build_frame_with_payload(dst(), src(), b"payload!", 0x0802);
    {
        let mut frame = Frame::new_unchecked(&mut probe[..]);
        let mut tpp = TppPacket::new_unchecked(frame.payload_mut());
        tpp.set_flags(FLAG_EXECUTED);
        tpp.push_word(0x11).unwrap();
        tpp.push_word(0x22).unwrap();
        tpp.set_hop(1);
    }
    assert_eq!(probe, executed);
    let ptr = probe.as_ptr();
    let echo = echo_reply(probe, dst()).expect("executed TPP for dst");
    assert_eq!(echo, golden(ECHO, ECHO_LEN));
    assert_eq!(echo.as_ptr(), ptr, "the echo reuses the received buffer");
}

#[test]
fn frames_that_are_not_echoed_come_back_untouched() {
    let executed = golden(EXECUTED, EXECUTED_LEN);
    let not_executed = stack_probe().build_frame_with_payload(dst(), src(), b"payload!", 0x0802);
    let echoed = golden(ECHO, ECHO_LEN);
    let cases = [
        (
            "non-TPP",
            build_frame(dst(), src(), EtherType(0x0802), b"data"),
            dst(),
        ),
        ("not executed", not_executed, dst()),
        // An echo addressed back to its sender is never echoed again.
        ("already echoed", echoed, src()),
        ("wrong destination MAC", executed, src()),
        ("runt", vec![0x02, 0x00, 0x00], dst()),
    ];
    for (what, frame, me) in cases {
        assert_eq!(echo_reply(frame.clone(), me), Err(frame), "{what}");
    }
}

fn arb_mode() -> impl Strategy<Value = AddressingMode> {
    prop_oneof![Just(AddressingMode::Stack), Just(AddressingMode::Hop)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Probes: a recycled buffer gets the bytes of a fresh one, the
    /// allocating wrapper agrees, the reservation covers the nonce, and
    /// the TPP parser reads every field back.
    #[test]
    fn probe_writer_is_buffer_independent_and_parses_back(
        mode in arb_mode(),
        pushes in 1usize..6,
        hops in 0usize..6,
        init in proptest::collection::vec(any::<u32>(), 0..12),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        inner_ethertype in any::<u16>(),
    ) {
        let program = assemble(&"PUSH [Switch:SwitchID]\n".repeat(pushes)).unwrap();
        let builder = match mode {
            AddressingMode::Stack => ProbeBuilder::stack(&program, hops),
            AddressingMode::Hop => ProbeBuilder::hop(&program, hops),
        }
        .init_memory(&init);
        let mut fresh = Vec::new();
        builder.build_into(&mut fresh, dst(), src(), &payload, inner_ethertype);
        prop_assert!(fresh.capacity() >= fresh.len() + NONCE_LEN, "nonce room reserved");
        prop_assert_eq!(fresh.len() + NONCE_LEN, builder.frame_capacity(payload.len()));
        let mut recycled = recycled_buffer();
        builder.build_into(&mut recycled, dst(), src(), &payload, inner_ethertype);
        prop_assert_eq!(&recycled, &fresh);
        prop_assert_eq!(
            &builder.build_frame_with_payload(dst(), src(), &payload, inner_ethertype),
            &fresh
        );

        let frame = Frame::new_checked(&fresh[..]).unwrap();
        prop_assert_eq!(frame.dst_addr(), dst());
        prop_assert_eq!(frame.src_addr(), src());
        prop_assert!(frame.is_tpp());
        let tpp = TppPacket::new_checked(frame.payload()).unwrap();
        prop_assert_eq!(tpp.addressing_mode(), mode);
        prop_assert_eq!((tpp.flags(), tpp.hop(), tpp.sp()), (0, 0, 0));
        prop_assert_eq!(tpp.instruction_words(), program.encode_words().unwrap());
        let mut memory = init.clone();
        memory.resize(builder.mem_words(), 0);
        prop_assert_eq!(tpp.memory_words(), memory);
        let per_hop = match mode {
            AddressingMode::Stack => 0,
            AddressingMode::Hop => program.words_per_hop() * 4,
        };
        prop_assert_eq!(tpp.per_hop_len(), per_hop);
        prop_assert_eq!(tpp.inner_ethertype(), inner_ethertype);
        prop_assert_eq!(tpp.inner_payload(), &payload[..]);
    }

    /// Transport segments: buffer-independent, and `decode` reads every
    /// header field back.
    #[test]
    fn segment_writer_is_buffer_independent_and_decodes_back(
        data in any::<bool>(),
        flags in 0u8..4,
        total_bytes in any::<u32>(),
        start_ns in any::<u64>(),
        key in any::<u64>(),
        seq in any::<u32>(),
        ack_no in any::<u32>(),
        ts in any::<u64>(),
        body_len in 0u16..1409,
    ) {
        let hdr = SegmentHdr {
            kind: if data { KIND_DATA } else { KIND_ACK },
            flags,
            total_bytes,
            start_ns,
            key,
            seq,
            ack: ack_no,
            ts,
            body_len,
        };
        let mut fresh = Vec::new();
        hdr.write_frame(&mut fresh, dst(), src());
        let mut recycled = recycled_buffer();
        hdr.write_frame(&mut recycled, dst(), src());
        prop_assert_eq!(&recycled, &fresh);
        prop_assert_eq!(fresh.len(), hdr.frame_len());
        let body = if data { body_len as usize } else { 0 };
        prop_assert!(fresh[fresh.len() - body..].iter().all(|&b| b == 0), "zeroed body");
        prop_assert_eq!(SegmentHdr::decode(&fresh[ETHERNET_HEADER_LEN..]), Some(hdr));
    }

    /// Echoes: the in-place rewrite swaps the addresses, sets the echo
    /// flag, and leaves every other byte alone.
    #[test]
    fn echo_changes_only_addresses_and_flag(
        init in proptest::collection::vec(any::<u32>(), 0..8),
        payload in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let mut frame = ProbeBuilder::stack(&two_push_program(), 3)
            .init_memory(&init)
            .build_frame_with_payload(dst(), src(), &payload, 0x0802);
        {
            let mut eth = Frame::new_unchecked(&mut frame[..]);
            TppPacket::new_unchecked(eth.payload_mut()).set_flags(FLAG_EXECUTED);
        }
        let before = frame.clone();
        let echo = echo_reply(frame, dst()).unwrap();
        prop_assert_eq!(echo.len(), before.len());
        prop_assert_eq!(&echo[0..6], &before[6..12]);
        prop_assert_eq!(&echo[6..12], &dst().0[..]);
        prop_assert_eq!(echo[15], FLAG_EXECUTED | FLAG_ECHOED);
        prop_assert_eq!(&echo[12..15], &before[12..15]);
        prop_assert_eq!(&echo[16..], &before[16..]);
    }
}
