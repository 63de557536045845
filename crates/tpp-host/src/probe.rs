//! Building TPP probes and echoing them back.
//!
//! §2.2: a flow's rate controller queries the network "using the flow's
//! packets, or using additional probe packets". Both are supported: a
//! [`ProbeBuilder`] mints stand-alone probes, or piggy-backs the TPP onto
//! an application datagram via [`ProbeBuilder::build_frame_with_payload`].
//! Hot senders write probes straight into a pooled buffer with
//! [`ProbeBuilder::build_into`], and receivers echo in place with
//! [`echo_reply`], so a probe's round trip need not allocate.

use tpp_isa::Program;
use tpp_netsim::HostCtx;
use tpp_wire::ethernet::{write_header, EtherType, Frame};
use tpp_wire::tpp::{
    AddressingMode, TppPacket, TppSection, FLAG_ECHOED, FLAG_EXECUTED, TPP_HEADER_LEN, WORD_SIZE,
};
use tpp_wire::{EthernetAddress, ETHERNET_HEADER_LEN};

use crate::manager::NONCE_LEN;

/// EtherType used for plain (non-TPP) application data frames in the
/// reproduction's experiments. Deliberately not 0x0800: the payloads are
/// synthetic datagrams, not real IPv4 packets.
pub const DATA_ETHERTYPE: EtherType = EtherType(0x0802);

/// Compiles a program once and mints TPP frames on demand.
#[derive(Debug, Clone)]
pub struct ProbeBuilder {
    words: Vec<u32>,
    mode: AddressingMode,
    mem_words: usize,
    per_hop_words: usize,
    init: Vec<u32>,
}

impl ProbeBuilder {
    /// A stack-mode probe with room for `expected_hops` executions of
    /// `program` (packet memory is sized from the program's per-hop
    /// footprint, the §2.1 "preallocate enough packet memory" rule).
    pub fn stack(program: &Program, expected_hops: usize) -> Self {
        let per_hop = program.words_per_hop();
        ProbeBuilder {
            words: program.encode_words().expect("valid program"),
            mode: AddressingMode::Stack,
            mem_words: per_hop * expected_hops,
            per_hop_words: 0,
            init: Vec::new(),
        }
    }

    /// A hop-mode probe: `per_hop_words` words per hop, `expected_hops`
    /// hop slots.
    pub fn hop(program: &Program, expected_hops: usize) -> Self {
        let per_hop = program.words_per_hop();
        ProbeBuilder {
            words: program.encode_words().expect("valid program"),
            mode: AddressingMode::Hop,
            mem_words: per_hop * expected_hops,
            per_hop_words: per_hop,
            init: Vec::new(),
        }
    }

    /// Initialize the head of packet memory with explicit words — how
    /// CSTORE/CEXEC operands and STORE sources are loaded into the
    /// network (Fig. 4: "packet memory can contain initialized values").
    /// Memory is extended if the initializer is longer than the
    /// preallocation.
    pub fn init_memory(mut self, words: &[u32]) -> Self {
        self.set_init_memory(words);
        self
    }

    /// Replace the init words in place, reusing their buffer: a task
    /// that re-sends one program with new operands keeps a single
    /// builder and rewrites only these words per probe.
    pub fn set_init_memory(&mut self, words: &[u32]) {
        self.init.clear();
        self.init.extend_from_slice(words);
    }

    /// Total packet-memory words the probe will carry.
    pub fn mem_words(&self) -> usize {
        self.mem_words.max(self.init.len())
    }

    /// Bytes to reserve for a probe carrying `payload_len` payload
    /// bytes: the whole frame plus the nonce [`ProbeManager::track`]
    /// appends, so tracking never reallocates.
    ///
    /// [`ProbeManager::track`]: crate::ProbeManager::track
    pub fn frame_capacity(&self, payload_len: usize) -> usize {
        ETHERNET_HEADER_LEN
            + TPP_HEADER_LEN
            + (self.words.len() + self.mem_words()) * WORD_SIZE
            + payload_len
            + NONCE_LEN
    }

    /// Append a probe frame piggy-backed on `payload` (of EtherType
    /// `inner_ethertype`, 0 for none) to `buf` in one pass — normally an
    /// empty buffer from `HostCtx::alloc_frame`. Reserves
    /// [`frame_capacity`](Self::frame_capacity) bytes.
    pub fn build_into(
        &self,
        buf: &mut Vec<u8>,
        dst: EthernetAddress,
        src: EthernetAddress,
        payload: &[u8],
        inner_ethertype: u16,
    ) {
        buf.reserve(self.frame_capacity(payload.len()));
        write_header(buf, dst, src, EtherType::TPP);
        TppSection {
            mode: self.mode,
            instructions: &self.words,
            memory_init: &self.init,
            memory_words: self.mem_words,
            per_hop_len: self.per_hop_words * WORD_SIZE,
            payload,
            inner_ethertype,
        }
        .write_into(buf);
    }

    /// [`build_into`](Self::build_into) a buffer drawn from the
    /// simulator's frame pool, addressed from this host to `dst`.
    pub fn pooled_frame(
        &self,
        ctx: &mut HostCtx<'_>,
        dst: EthernetAddress,
        payload: &[u8],
        inner_ethertype: u16,
    ) -> Vec<u8> {
        let mut buf = ctx.alloc_frame(self.frame_capacity(payload.len()));
        self.build_into(&mut buf, dst, ctx.mac(), payload, inner_ethertype);
        buf
    }

    /// Build a stand-alone probe frame.
    pub fn build_frame(&self, dst: EthernetAddress, src: EthernetAddress) -> Vec<u8> {
        self.build_frame_with_payload(dst, src, &[], 0)
    }

    /// Build a probe piggy-backed on application payload of the given
    /// inner EtherType, in a freshly allocated buffer.
    pub fn build_frame_with_payload(
        &self,
        dst: EthernetAddress,
        src: EthernetAddress,
        payload: &[u8],
        inner_ethertype: u16,
    ) -> Vec<u8> {
        let mut buf = Vec::new();
        self.build_into(&mut buf, dst, src, payload, inner_ethertype);
        buf
    }
}

/// If `frame` is an executed, not-yet-echoed TPP addressed to `my_mac`,
/// rewrite it in place into the echo — source and destination swapped,
/// [`FLAG_ECHOED`] set, contents untouched — and return it as `Ok`.
/// Anything else comes back byte-for-byte untouched as `Err`, so the
/// caller can look at it or recycle it.
///
/// "The receiver simply echos a fully executed TPP back to the sender"
/// (§2.2 Phase 1). Filtering on [`FLAG_ECHOED`] keeps a sender from
/// re-echoing its own echo.
pub fn echo_reply(mut frame: Vec<u8>, my_mac: EthernetAddress) -> Result<Vec<u8>, Vec<u8>> {
    let (orig_src, flags) = {
        let Ok(parsed) = Frame::new_checked(&frame[..]) else {
            return Err(frame);
        };
        if !parsed.is_tpp() || parsed.dst_addr() != my_mac {
            return Err(frame);
        }
        let Ok(tpp) = TppPacket::new_checked(parsed.payload()) else {
            return Err(frame);
        };
        let flags = tpp.flags();
        if flags & FLAG_EXECUTED == 0 || flags & FLAG_ECHOED != 0 {
            return Err(frame);
        }
        (parsed.src_addr(), flags)
    };
    let mut out = Frame::new_unchecked(&mut frame[..]);
    out.set_dst_addr(orig_src);
    out.set_src_addr(my_mac);
    TppPacket::new_unchecked(out.payload_mut()).set_flags(flags | FLAG_ECHOED);
    Ok(frame)
}

/// Parse an incoming frame as an echoed TPP addressed to `my_mac`,
/// returning the TPP view over its payload bytes.
pub fn parse_echo(frame: &[u8], my_mac: EthernetAddress) -> Option<TppPacket<&[u8]>> {
    let parsed = Frame::new_checked(frame).ok()?;
    if !parsed.is_tpp() || parsed.dst_addr() != my_mac {
        return None;
    }
    let payload = &frame[tpp_wire::ETHERNET_HEADER_LEN..];
    let tpp = TppPacket::new_checked(payload).ok()?;
    if tpp.flags() & FLAG_ECHOED == 0 {
        return None;
    }
    Some(tpp)
}

/// The send-time stamp a periodic prober put in the first 8 bytes of
/// its probe's inner payload, read back from the echo.
pub fn send_stamp<T: AsRef<[u8]>>(tpp: &TppPacket<T>) -> Option<u64> {
    let stamp = tpp.inner_payload().get(..8)?;
    Some(u64::from_be_bytes(stamp.try_into().expect("8 bytes")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_isa::assemble;
    use tpp_wire::ethernet::build_frame;

    fn macs() -> (EthernetAddress, EthernetAddress) {
        (
            EthernetAddress::from_host_id(10),
            EthernetAddress::from_host_id(20),
        )
    }

    #[test]
    fn stack_probe_sizes_memory_from_program() {
        let program =
            assemble("PUSH [Switch:SwitchID]\nPUSH [Link:QueueSize]\nPUSH [Link:RX-Utilization]")
                .unwrap();
        let probe = ProbeBuilder::stack(&program, 5);
        assert_eq!(probe.mem_words(), 15, "3 words/hop x 5 hops");
        let (dst, src) = macs();
        let frame = probe.build_frame(dst, src);
        let parsed = Frame::new_checked(&frame[..]).unwrap();
        assert!(parsed.is_tpp());
        let tpp = TppPacket::new_checked(parsed.payload()).unwrap();
        assert_eq!(tpp.mem_len(), 60);
        assert_eq!(tpp.instruction_count(), 3);
    }

    #[test]
    fn init_memory_loads_operands() {
        let program = assemble("CEXEC [Switch:SwitchID], [Packet:0]").unwrap();
        let probe = ProbeBuilder::stack(&program, 1).init_memory(&[0xffff_ffff, 0xb0b]);
        let (dst, src) = macs();
        let frame = probe.build_frame(dst, src);
        let parsed = Frame::new_checked(&frame[..]).unwrap();
        let tpp = TppPacket::new_checked(parsed.payload()).unwrap();
        assert_eq!(tpp.memory_words(), vec![0xffff_ffff, 0xb0b]);
    }

    #[test]
    fn echo_only_executed_unechoed_tpps_for_me() {
        let program = assemble("PUSH [Queue:QueueSize]").unwrap();
        let probe = ProbeBuilder::stack(&program, 2);
        let (dst, src) = macs();
        let frame = probe.build_frame(dst, src);

        // Not yet executed: no echo, and the frame comes back as is.
        assert_eq!(echo_reply(frame.clone(), dst), Err(frame.clone()));

        // Mark executed (as a TCPU would).
        let mut executed = frame.clone();
        {
            let mut f = Frame::new_unchecked(&mut executed[..]);
            let mut tpp = TppPacket::new_unchecked(f.payload_mut());
            tpp.set_flags(FLAG_EXECUTED);
        }
        // Wrong recipient: no echo.
        assert!(echo_reply(executed.clone(), src).is_err());
        // Right recipient: echo with swapped addresses and ECHOED flag.
        let reply = echo_reply(executed, dst).unwrap();
        let parsed = Frame::new_checked(&reply[..]).unwrap();
        assert_eq!(parsed.dst_addr(), src);
        assert_eq!(parsed.src_addr(), dst);
        let tpp = TppPacket::new_checked(parsed.payload()).unwrap();
        assert_ne!(tpp.flags() & FLAG_ECHOED, 0);
        // An echo is never echoed again.
        assert!(echo_reply(reply.clone(), src).is_err());
        // And the original sender can parse it.
        assert!(parse_echo(&reply, src).is_some());
        assert!(parse_echo(&reply, dst).is_none());
    }

    #[test]
    fn piggyback_preserves_payload() {
        let program = assemble("PUSH [Queue:QueueSize]").unwrap();
        let probe = ProbeBuilder::stack(&program, 3);
        let (dst, src) = macs();
        let frame = probe.build_frame_with_payload(dst, src, b"app-data", DATA_ETHERTYPE.0);
        let parsed = Frame::new_checked(&frame[..]).unwrap();
        let tpp = TppPacket::new_checked(parsed.payload()).unwrap();
        assert_eq!(tpp.inner_payload(), b"app-data");
        assert_eq!(tpp.inner_ethertype(), DATA_ETHERTYPE.0);
    }

    #[test]
    fn non_tpp_frames_are_ignored() {
        let (dst, src) = macs();
        let frame = build_frame(dst, src, DATA_ETHERTYPE, b"x");
        assert!(echo_reply(frame.clone(), dst).is_err());
        assert!(parse_echo(&frame, dst).is_none());
    }
}
