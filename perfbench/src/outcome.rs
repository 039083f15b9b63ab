//! Outcome checks: a digest of what a rep produced, and packet
//! conservation.
//!
//! The digest covers every host's receive statistics (per flow, with the
//! latency samples) and the `Network::publish_metrics` registry JSON. A
//! sharded rep is digested over its shards' merged state, which the
//! engine's contract makes equal to the single-world run's.

use edp_netsim::Network;
use edp_packet::FlowKey;
use edp_telemetry::Registry;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Counter names that count a frame dropped inside a switch.
const SWITCH_DROPS: [&str; 6] = [
    "dropped_by_program",
    "dropped_overflow",
    "dropped_link_down",
    "parse_errors",
    "recirc_limit_drops",
    "cascade_limit_drops",
];
/// Counter names (scope `net`) that count a frame lost on a wire.
const NET_DROPS: [&str; 3] = ["link_fault_drops", "link_down_drops", "dropped_unconnected"];

/// What one rep produced.
pub struct Outcome {
    /// Digest of host statistics and the metrics registry.
    pub digest: u64,
    /// The merged metrics registry.
    pub reg: Registry,
    /// Frames received by hosts.
    pub delivered: u64,
    /// Frames injected: the workload's sends plus switch-generated ones.
    pub sent: u64,
    /// Frames dropped by switches or wires (counted drops).
    pub dropped: u64,
    /// Frames still queued in a switch at the deadline.
    pub queued: u64,
}

impl Outcome {
    /// Digests `nets` (one world, or every shard of a sharded rep) after
    /// a rep in which the workload sent `sent` frames.
    pub fn of(nets: &[&Network], sent: u64) -> Outcome {
        let mut reg = Registry::new();
        for net in nets {
            let mut r = Registry::new();
            net.publish_metrics(&mut r);
            reg.merge(&r);
        }
        let mut text = String::new();
        let mut delivered = 0;
        for h in 0..nets[0].hosts.len() {
            let (mut pkts, mut bytes, mut errors) = (0u64, 0u64, 0u64);
            let mut flows: BTreeMap<FlowKey, [u64; 4]> = BTreeMap::new();
            for net in nets {
                let st = &net.hosts[h].stats;
                pkts += st.rx_pkts;
                bytes += st.rx_bytes;
                errors += st.rx_errors;
                for (k, f) in &st.flows {
                    let e = flows.entry(*k).or_default();
                    e[0] += f.pkts;
                    e[1] += f.bytes;
                    e[2] += f.latency_ns.count();
                    e[3] ^= f.latency_ns.mean().to_bits();
                }
            }
            delivered += pkts;
            let _ = writeln!(text, "host{h} {pkts} {bytes} {errors}");
            for (k, v) in &flows {
                let _ = writeln!(text, "{k:?} {v:?}");
            }
        }
        text.push_str(&edp_telemetry::to_json(&reg));
        let sum = |names: &[&str]| -> u64 {
            reg.counters()
                .filter(|(n, _, _)| names.contains(n))
                .map(|(_, _, v)| v)
                .sum()
        };
        let dropped = sum(&SWITCH_DROPS) + sum(&NET_DROPS);
        let generated = sum(&["generated"]);
        let queued = reg
            .gauges()
            .filter(|(n, _, _)| *n == "queue_pkts")
            .map(|(_, _, v)| v.max(0) as u64)
            .sum();
        Outcome {
            digest: fnv1a(text.as_bytes()),
            reg,
            delivered,
            sent: sent + generated,
            dropped,
            queued,
        }
    }

    /// Sent = delivered + counted drops + still queued.
    pub fn conserved(&self) -> bool {
        self.sent == self.delivered + self.dropped + self.queued
    }

    /// Sum of counter `name` over every scope.
    pub fn counter(&self, name: &str) -> u64 {
        self.reg
            .counters()
            .filter(|(n, _, _)| *n == name)
            .map(|(_, _, v)| v)
            .sum()
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}
