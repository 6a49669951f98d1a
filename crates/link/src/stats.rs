//! Link-layer statistics counters.

/// Counters accumulated by one link direction (a TX/RX pair).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Protocol flits transmitted for the first time.
    pub flits_sent: u64,
    /// Flits retransmitted due to NACKs / retries.
    pub flits_retransmitted: u64,
    /// Standalone ACK flits transmitted (no payload).
    pub standalone_acks_sent: u64,
    /// Idle flits emitted when nothing was pending.
    pub idle_flits_sent: u64,
    /// Flits received and accepted by the link layer.
    pub flits_accepted: u64,
    /// Flits received but rejected (FEC uncorrectable or CRC mismatch).
    pub flits_rejected: u64,
    /// Flits discarded without a NACK of their own: those arriving while a
    /// requested go-back-N replay is on its way, and (RXL) intact
    /// duplicates of flits already accepted, whose ISN residue names a
    /// sequence number behind the expected one. A duplicate is answered
    /// with a re-ACK of the last accepted flit instead of a NACK.
    pub flits_discarded_in_replay: u64,
    /// NACK counts of both halves: [`crate::LinkRx`] counts each NACK it
    /// decides to send and [`crate::LinkTx`] each NACK flit it emits. A
    /// half's own stats therefore count each NACK once, but
    /// [`crate::LinkEndpoint::stats`] (and every report merged from it)
    /// counts each emitted NACK twice.
    pub nacks_sent: u64,
    /// Acknowledgements emitted (piggybacked or standalone).
    pub acks_sent: u64,
    /// Flits accepted whose own sequence number could not be checked because
    /// the FSN field carried an acknowledgement (baseline CXL blind spot).
    pub unchecked_sequence_accepts: u64,
    /// Sequence mismatches detected via the explicit FSN field.
    pub explicit_sequence_mismatches: u64,
    /// Sequence-or-data mismatches detected via the ISN ECRC.
    pub ecrc_rejections: u64,
}

impl LinkStats {
    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &LinkStats) {
        self.flits_sent += other.flits_sent;
        self.flits_retransmitted += other.flits_retransmitted;
        self.standalone_acks_sent += other.standalone_acks_sent;
        self.idle_flits_sent += other.idle_flits_sent;
        self.flits_accepted += other.flits_accepted;
        self.flits_rejected += other.flits_rejected;
        self.flits_discarded_in_replay += other.flits_discarded_in_replay;
        self.nacks_sent += other.nacks_sent;
        self.acks_sent += other.acks_sent;
        self.unchecked_sequence_accepts += other.unchecked_sequence_accepts;
        self.explicit_sequence_mismatches += other.explicit_sequence_mismatches;
        self.ecrc_rejections += other.ecrc_rejections;
    }

    /// Total flits put on the wire (payload, retransmissions, ACKs, idles).
    pub fn total_wire_flits(&self) -> u64 {
        self.flits_sent
            + self.flits_retransmitted
            + self.standalone_acks_sent
            + self.idle_flits_sent
    }

    /// Fraction of wire flits that were not first-time payload flits —
    /// a direct estimate of the bandwidth loss of Section 7.2.
    pub fn bandwidth_overhead(&self) -> f64 {
        let total = self.total_wire_flits();
        if total == 0 {
            return 0.0;
        }
        1.0 - self.flits_sent as f64 / total as f64
    }

    /// Protocol flits transmitted in total (first transmissions plus
    /// retransmissions) — the exposure denominator of per-flit failure rates.
    pub fn protocol_flits_transmitted(&self) -> u64 {
        self.flits_sent + self.flits_retransmitted
    }

    /// Acknowledgements that rode inside protocol flits rather than in
    /// standalone ACK flits.
    pub fn piggybacked_acks(&self) -> u64 {
        self.acks_sent - self.standalone_acks_sent
    }

    /// Measured fraction of first-transmission protocol flits whose FSN
    /// field carried a piggybacked acknowledgement instead of a sequence
    /// number — the empirical counterpart of the paper's `p_coalescing`.
    /// (Both counters are accumulated at first emission, which is why the
    /// denominator excludes retransmissions.)
    pub fn measured_p_coalescing(&self) -> f64 {
        if self.flits_sent == 0 {
            return 0.0;
        }
        self.piggybacked_acks() as f64 / self.flits_sent as f64
    }
}

impl std::fmt::Display for LinkStats {
    /// Renders the counters as an aligned multi-line block, one counter per
    /// line, so reports and examples need not hand-format them.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "flits sent             : {}", self.flits_sent)?;
        writeln!(f, "retransmissions        : {}", self.flits_retransmitted)?;
        writeln!(f, "standalone ACKs        : {}", self.standalone_acks_sent)?;
        writeln!(f, "idle flits             : {}", self.idle_flits_sent)?;
        writeln!(f, "flits accepted         : {}", self.flits_accepted)?;
        writeln!(f, "flits rejected         : {}", self.flits_rejected)?;
        writeln!(
            f,
            "discarded in replay    : {}",
            self.flits_discarded_in_replay
        )?;
        writeln!(f, "NACKs sent             : {}", self.nacks_sent)?;
        writeln!(f, "ACKs sent              : {}", self.acks_sent)?;
        writeln!(
            f,
            "unchecked seq accepts  : {}",
            self.unchecked_sequence_accepts
        )?;
        writeln!(
            f,
            "explicit seq mismatches: {}",
            self.explicit_sequence_mismatches
        )?;
        writeln!(f, "ECRC rejections        : {}", self.ecrc_rejections)?;
        write!(
            f,
            "bandwidth overhead     : {:.3}%",
            self.bandwidth_overhead() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = LinkStats {
            flits_sent: 10,
            flits_retransmitted: 2,
            ..Default::default()
        };
        let b = LinkStats {
            flits_sent: 5,
            nacks_sent: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.flits_sent, 15);
        assert_eq!(a.flits_retransmitted, 2);
        assert_eq!(a.nacks_sent, 1);
    }

    #[test]
    fn coalescing_and_exposure_helpers() {
        let s = LinkStats {
            flits_sent: 90,
            flits_retransmitted: 10,
            acks_sent: 12,
            standalone_acks_sent: 2,
            ..Default::default()
        };
        assert_eq!(s.protocol_flits_transmitted(), 100);
        assert_eq!(s.piggybacked_acks(), 10);
        assert!((s.measured_p_coalescing() - 10.0 / 90.0).abs() < 1e-12);
        assert_eq!(LinkStats::default().measured_p_coalescing(), 0.0);
    }

    #[test]
    fn display_renders_key_counters() {
        let s = LinkStats {
            flits_sent: 7,
            nacks_sent: 3,
            unchecked_sequence_accepts: 5,
            ..Default::default()
        };
        let out = s.to_string();
        assert!(out.contains("flits sent             : 7"));
        assert!(out.contains("NACKs sent             : 3"));
        assert!(out.contains("unchecked seq accepts  : 5"));
        assert!(out.contains("bandwidth overhead"));
    }

    #[test]
    fn bandwidth_overhead_counts_non_payload_flits() {
        let s = LinkStats {
            flits_sent: 90,
            flits_retransmitted: 5,
            standalone_acks_sent: 5,
            ..Default::default()
        };
        assert_eq!(s.total_wire_flits(), 100);
        assert!((s.bandwidth_overhead() - 0.1).abs() < 1e-12);
        assert_eq!(LinkStats::default().bandwidth_overhead(), 0.0);
    }
}
