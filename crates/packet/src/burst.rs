//! Array-of-packets burst processing (the DPDK `rx_burst` idiom).
//!
//! A [`Burst`] is an ordered group of frames that arrived at the same
//! simulated instant and are pushed through the pipeline as one unit. The
//! point is amortization, never reordering: every consumer of a burst is
//! required to produce the byte-identical observable outcome of processing
//! the frames one at a time, so the burst size is a pure
//! execution-strategy choice of the caller.
//!
//! [`Burst::parse`] performs the array-of-packets parse: one pass over the
//! frames producing each packet's [`ParsedPacket`] and flow hash up front,
//! so downstream stages (flow-cache probes, table lookups) can operate on
//! runs of equal keys instead of re-deriving per packet.

use crate::packet::Packet;
use crate::parse::{parse_packet, ParsedPacket};

/// An ordered group of same-instant frames processed as one unit.
#[derive(Debug, Default)]
pub struct Burst {
    frames: Vec<Packet>,
}

impl Burst {
    /// An empty burst.
    pub fn new() -> Self {
        Burst { frames: Vec::new() }
    }

    /// An empty burst with room for `cap` frames.
    pub fn with_capacity(cap: usize) -> Self {
        Burst {
            frames: Vec::with_capacity(cap),
        }
    }

    /// Wraps an already-collected group of frames.
    pub fn from_frames(frames: Vec<Packet>) -> Self {
        Burst { frames }
    }

    /// Appends a frame, preserving arrival order.
    pub fn push(&mut self, pkt: Packet) {
        self.frames.push(pkt);
    }

    /// Number of frames in the burst.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when the burst holds no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Gives the frames back in arrival order.
    pub fn into_frames(self) -> Vec<Packet> {
        self.frames
    }

    /// The array-of-packets parse: one pass computing every frame's
    /// parse result and flow hash, consuming the burst.
    ///
    /// Unparseable frames keep their slot (`parsed[i] == None`) so the
    /// consumer can account the drop at exactly the position a sequential
    /// pass would have — impairment faults must land on the right packet
    /// inside a burst.
    ///
    /// Consecutive frames whose payloads alias the *same buffer* (zero-copy
    /// replays of one template via [`Packet::from_shared`] /
    /// [`Packet::clone`]) are parsed once and the result copied: two live
    /// slices at one address with one length hold identical bytes, and
    /// parsing is pure, so the reuse is unobservable.
    pub fn parse(self) -> ParsedBurst {
        let n = self.frames.len();
        let mut parsed: Vec<Option<ParsedPacket>> = Vec::with_capacity(n);
        let mut flow_hashes: Vec<Option<u64>> = Vec::with_capacity(n);
        let mut prev: Option<(*const u8, usize)> = None;
        for pkt in &self.frames {
            let key = (pkt.bytes().as_ptr(), pkt.len());
            if prev != Some(key) {
                let p = parse_packet(pkt.bytes()).ok();
                flow_hashes.push(p.as_ref().and_then(|p| p.flow_key()).map(|k| k.hash64()));
                parsed.push(p);
                prev = Some(key);
            } else {
                flow_hashes.push(*flow_hashes.last().expect("prev set after first slot"));
                parsed.push(*parsed.last().expect("prev set after first slot"));
            }
        }
        ParsedBurst {
            pkts: self.frames,
            parsed,
            flow_hashes,
        }
    }
}

impl From<Vec<Packet>> for Burst {
    fn from(frames: Vec<Packet>) -> Self {
        Burst::from_frames(frames)
    }
}

impl IntoIterator for Burst {
    type Item = Packet;
    type IntoIter = std::vec::IntoIter<Packet>;
    fn into_iter(self) -> Self::IntoIter {
        self.frames.into_iter()
    }
}

/// The result of [`Burst::parse`]: frames plus their per-slot parse
/// results and flow hashes, all index-aligned with arrival order.
#[derive(Debug)]
pub struct ParsedBurst {
    /// The frames, in arrival order.
    pub pkts: Vec<Packet>,
    /// `parsed[i]` is frame `i`'s parse result (`None`: parse error).
    pub parsed: Vec<Option<ParsedPacket>>,
    /// `flow_hashes[i]` is frame `i`'s 5-tuple hash (`None`: no flow key
    /// or parse error). Equal adjacent hashes form the runs that burst
    /// consumers classify with a single flow-cache probe.
    pub flow_hashes: Vec<Option<u64>>,
}

impl ParsedBurst {
    /// Number of frames in the burst.
    pub fn len(&self) -> usize {
        self.pkts.len()
    }

    /// True when the burst holds no frames.
    pub fn is_empty(&self) -> bool {
        self.pkts.is_empty()
    }

    /// Length of the run of frames starting at `i` that share frame `i`'s
    /// flow hash (1 when the hash is `None`: unkeyed frames never batch).
    pub fn run_len(&self, i: usize) -> usize {
        match self.flow_hashes[i] {
            None => 1,
            Some(h) => {
                let mut j = i + 1;
                while j < self.flow_hashes.len() && self.flow_hashes[j] == Some(h) {
                    j += 1;
                }
                j - i
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PacketBuilder;
    use std::net::Ipv4Addr;

    fn udp_frame(src_port: u16) -> Packet {
        Packet::anonymous(
            PacketBuilder::udp(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                src_port,
                80,
                b"x",
            )
            .pad_to(64)
            .build(),
        )
    }

    #[test]
    fn parse_keeps_slots_aligned_including_errors() {
        let mut b = Burst::with_capacity(4);
        b.push(udp_frame(1000));
        b.push(Packet::anonymous(vec![0xde, 0xad])); // runt: parse error
        b.push(udp_frame(1000));
        b.push(udp_frame(2000));
        assert_eq!(b.len(), 4);
        let pb = b.parse();
        assert_eq!(pb.len(), 4);
        assert!(pb.parsed[0].is_some());
        assert!(pb.parsed[1].is_none(), "error keeps its slot");
        assert!(pb.flow_hashes[1].is_none());
        assert_eq!(pb.flow_hashes[0], pb.flow_hashes[2]);
        assert_ne!(pb.flow_hashes[0], pb.flow_hashes[3]);
    }

    #[test]
    fn run_len_groups_equal_flow_keys() {
        let frames = vec![
            udp_frame(7),
            udp_frame(7),
            udp_frame(7),
            udp_frame(9),
            Packet::anonymous(vec![0u8; 4]),
        ];
        let pb = Burst::from_frames(frames).parse();
        assert_eq!(pb.run_len(0), 3);
        assert_eq!(pb.run_len(1), 2, "runs are suffixes, not rescans");
        assert_eq!(pb.run_len(3), 1);
        assert_eq!(pb.run_len(4), 1, "unkeyed frames never batch");
    }
}
