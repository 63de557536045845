//! # tpp-wire — byte-level packet formats for Tiny Packet Programs
//!
//! This crate defines the on-the-wire representation of a TPP packet as
//! described in §3.2 and Figure 4 of *Tiny Packet Programs for low-latency
//! network control and monitoring* (HotNets 2013):
//!
//! ```text
//! +------------------+---------------------+----------------------+-----------+
//! | Ethernet header  | TPP header + insns  | Packet memory        | Payload   |
//! | (14 bytes)       | (16 B hdr, 4 B/insn)| (initialized by host)| (optional)|
//! +------------------+---------------------+----------------------+-----------+
//! ```
//!
//! A TPP is "any ethernet packet with a uniquely identifiable header that
//! contains instructions, some additional space (packet memory), and
//! encapsulates an optional ethernet payload". We identify TPPs by the
//! dedicated [`ETHERTYPE_TPP`] EtherType.
//!
//! The API follows the zero-copy typed-view idiom: [`ethernet::Frame`] and
//! [`tpp::TppPacket`] wrap any `AsRef<[u8]>` buffer, validate it once with
//! `new_checked`, and then expose cheap field accessors. Mutation is only
//! available when the underlying buffer is `AsMut<[u8]>`. Frames are
//! encoded by append-style writers ([`ethernet::write_header`],
//! [`tpp::TppSection::write_into`]) into a caller's buffer, typically a
//! pooled one; nothing in this crate allocates except the `Vec`-returning
//! wrappers over them ([`tpp::TppBuilder::build`],
//! [`ethernet::build_frame`]).
//!
//! Design constraints taken from the paper:
//! * all memory lengths are 4-byte aligned "for efficient encoding" (Fig. 4);
//! * the header carries: total TPP length, packet-memory length, the
//!   packet-memory addressing mode (stack or hop), the hop number / stack
//!   pointer, and the per-hop memory length (Fig. 4, fields 1–5);
//! * instructions are fixed-size 4-byte words (§3.3 "we were able to encode
//!   an instruction and its operands in a 4-byte integer");
//! * packet memory is preallocated by the end-host and never grows or
//!   shrinks inside the network (Fig. 1 caption).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ethernet;
pub mod ipv4;
pub mod tpp;

pub use ethernet::{EtherType, EthernetAddress, Frame, ETHERNET_HEADER_LEN};
pub use ipv4::{build_ipv4, Ipv4Address, Ipv4Packet, IPV4_MIN_HEADER_LEN};
pub use tpp::{AddressingMode, TppBuilder, TppPacket, TppSection, ETHERTYPE_TPP, TPP_HEADER_LEN};

/// Errors produced when parsing or manipulating wire formats.
///
/// Parsing never panics: a buffer that is too short, misaligned, or
/// internally inconsistent yields a descriptive [`WireError`], so a corrupted
/// TPP can never take down a switch pipeline (§6 of DESIGN.md, failure
/// injection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than the fixed header of the format being read.
    Truncated {
        /// How many bytes the format needed.
        needed: usize,
        /// How many bytes were available.
        got: usize,
    },
    /// A length field points past the end of the buffer or violates
    /// the format's internal invariants (e.g. not 4-byte aligned).
    Malformed(&'static str),
    /// The caller asked for an offset outside packet memory.
    OutOfBounds {
        /// The byte offset that was requested.
        offset: usize,
        /// The size of the region the offset had to fall in.
        len: usize,
    },
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "buffer truncated: needed {needed} bytes, got {got}")
            }
            WireError::Malformed(reason) => write!(f, "malformed packet: {reason}"),
            WireError::OutOfBounds { offset, len } => {
                write!(f, "offset {offset} out of bounds for region of {len} bytes")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Convenience alias used across the wire crate.
pub type Result<T> = core::result::Result<T, WireError>;

/// Read a big-endian `u16` at `offset`; the caller guarantees bounds.
pub(crate) fn get_u16(buf: &[u8], offset: usize) -> u16 {
    u16::from_be_bytes([buf[offset], buf[offset + 1]])
}

/// Write a big-endian `u16` at `offset`; the caller guarantees bounds.
pub(crate) fn put_u16(buf: &mut [u8], offset: usize, value: u16) {
    buf[offset..offset + 2].copy_from_slice(&value.to_be_bytes());
}

/// Read a big-endian `u32` at `offset`; the caller guarantees bounds.
pub(crate) fn get_u32(buf: &[u8], offset: usize) -> u32 {
    u32::from_be_bytes([
        buf[offset],
        buf[offset + 1],
        buf[offset + 2],
        buf[offset + 3],
    ])
}

/// Write a big-endian `u32` at `offset`; the caller guarantees bounds.
pub(crate) fn put_u32(buf: &mut [u8], offset: usize, value: u32) {
    buf[offset..offset + 4].copy_from_slice(&value.to_be_bytes());
}
