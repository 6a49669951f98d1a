//! Header-overhead comparison (Section 2.4 / Fig. 2 of the paper).
//!
//! TCP-class transports spend 74 bytes of headers (TCP 20 B + IPv6 40 B +
//! Ethernet 14 B) per segment, which is acceptable for kilobyte payloads but
//! prohibitive at cache-line granularity. CXL flits spend 16 bytes
//! (2 B header + 8 B CRC + 6 B FEC) per 240-byte payload, and RXL keeps the
//! exact same flit structure — that is the point of embedding the sequence
//! number in the CRC instead of adding fields.

/// Per-unit overhead description of one protocol.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProtocolOverhead {
    /// Display name.
    pub name: &'static str,
    /// Header + redundancy bytes per transfer unit.
    pub overhead_bytes: u32,
    /// Payload bytes per transfer unit.
    pub payload_bytes: u32,
    /// Bits of the unit's headers devoted to sequence/acknowledgement
    /// tracking.
    pub sequence_tracking_bits: u32,
}

impl ProtocolOverhead {
    /// Fraction of each transfer unit spent on overhead.
    pub fn overhead_fraction(&self) -> f64 {
        self.overhead_bytes as f64 / (self.overhead_bytes + self.payload_bytes) as f64
    }

    /// Units (segments / flits) needed to move `bytes` of payload.
    pub fn units_for(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.payload_bytes as u64)
    }

    /// Total wire bytes needed to move `bytes` of payload.
    pub fn wire_bytes_for(&self, bytes: u64) -> u64 {
        self.units_for(bytes) * (self.overhead_bytes + self.payload_bytes) as u64
    }
}

/// The header-overhead comparison table of experiment E19.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HeaderOverhead;

impl HeaderOverhead {
    /// TCP/IPv6/Ethernet with a 1-KiB payload (the paper's framing).
    pub fn tcp_ipv6_ethernet() -> ProtocolOverhead {
        ProtocolOverhead {
            name: "TCP + IPv6 + Ethernet (1 KiB payload)",
            overhead_bytes: 20 + 40 + 14,
            payload_bytes: 1024,
            // 32-bit SeqNum + 32-bit AckNum.
            sequence_tracking_bits: 64,
        }
    }

    /// The CXL 3.0 256-byte flit.
    pub fn cxl_flit_256() -> ProtocolOverhead {
        ProtocolOverhead {
            name: "CXL 256B flit",
            overhead_bytes: 2 + 8 + 6,
            payload_bytes: 240,
            // The 10-bit FSN is the only sequence-tracking field.
            sequence_tracking_bits: 10,
        }
    }

    /// The RXL 256-byte flit: identical wire format, zero sequence bits in
    /// the header (the sequence rides in the CRC).
    pub fn rxl_flit_256() -> ProtocolOverhead {
        ProtocolOverhead {
            name: "RXL 256B flit",
            overhead_bytes: 2 + 8 + 6,
            payload_bytes: 240,
            sequence_tracking_bits: 0,
        }
    }

    /// The CXL 68-byte low-latency flit.
    pub fn cxl_flit_68() -> ProtocolOverhead {
        ProtocolOverhead {
            name: "CXL 68B flit",
            overhead_bytes: 4,
            payload_bytes: 64,
            sequence_tracking_bits: 10,
        }
    }

    /// A hypothetical CXL flit extended with TCP-style explicit 32-bit
    /// SeqNum + AckNum fields — the overhead ISN avoids.
    pub fn cxl_flit_with_explicit_tcp_fields() -> ProtocolOverhead {
        ProtocolOverhead {
            name: "CXL 256B flit + explicit 8B Seq/Ack",
            overhead_bytes: 2 + 8 + 6 + 8,
            payload_bytes: 232,
            sequence_tracking_bits: 64,
        }
    }

    /// All rows of the comparison table.
    pub fn table() -> Vec<ProtocolOverhead> {
        vec![
            Self::tcp_ipv6_ethernet(),
            Self::cxl_flit_68(),
            Self::cxl_flit_256(),
            Self::cxl_flit_with_explicit_tcp_fields(),
            Self::rxl_flit_256(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_stack_overhead_matches_the_paper() {
        let tcp = HeaderOverhead::tcp_ipv6_ethernet();
        assert_eq!(tcp.overhead_bytes, 74);
        assert!(tcp.overhead_fraction() < 0.07);
    }

    #[test]
    fn cxl_flit_overhead_is_5_5_percent_redundancy_plus_header() {
        let cxl = HeaderOverhead::cxl_flit_256();
        assert_eq!(cxl.overhead_bytes, 16);
        assert!((cxl.overhead_fraction() - 16.0 / 256.0).abs() < 1e-12);
    }

    #[test]
    fn rxl_keeps_the_flit_format_but_frees_the_sequence_bits() {
        let cxl = HeaderOverhead::cxl_flit_256();
        let rxl = HeaderOverhead::rxl_flit_256();
        assert_eq!(cxl.overhead_bytes, rxl.overhead_bytes);
        assert_eq!(cxl.payload_bytes, rxl.payload_bytes);
        assert_eq!(rxl.sequence_tracking_bits, 0);
        assert!(cxl.sequence_tracking_bits > 0);
    }

    #[test]
    fn explicit_tcp_fields_would_cost_payload() {
        let explicit = HeaderOverhead::cxl_flit_with_explicit_tcp_fields();
        let rxl = HeaderOverhead::rxl_flit_256();
        assert!(explicit.payload_bytes < rxl.payload_bytes);
        assert!(explicit.overhead_fraction() > rxl.overhead_fraction());
        // Moving 1 MiB of payload costs more wire bytes with explicit fields.
        let mib = 1 << 20;
        assert!(explicit.wire_bytes_for(mib) > rxl.wire_bytes_for(mib));
    }

    #[test]
    fn units_and_wire_bytes_round_up() {
        let cxl = HeaderOverhead::cxl_flit_256();
        assert_eq!(cxl.units_for(1), 1);
        assert_eq!(cxl.units_for(240), 1);
        assert_eq!(cxl.units_for(241), 2);
        assert_eq!(cxl.wire_bytes_for(241), 512);
    }

    #[test]
    fn table_has_five_distinct_rows() {
        let rows = HeaderOverhead::table();
        assert_eq!(rows.len(), 5);
        let names: std::collections::HashSet<_> = rows.iter().map(|r| r.name).collect();
        assert_eq!(names.len(), 5);
    }
}
