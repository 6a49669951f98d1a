//! Protocol variants, the flit codec each one puts on the wire, and link
//! configuration.

use rxl_flit::{Flit256, FlitDecode, RxlFlitCodec, WireFlit};

/// The three protocol variants the paper evaluates (Section 7.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum ProtocolVariant {
    /// Baseline CXL with ACK piggybacking: minimal bandwidth overhead but an
    /// ACK-carrying flit hides its own sequence number, so silent drops can
    /// slip through (Fig. 4).
    #[default]
    CxlPiggyback,
    /// CXL with standalone ACK flits: every protocol flit carries its own
    /// explicit sequence number, closing the reliability hole at the cost of
    /// reverse-direction bandwidth proportional to the coalescing level.
    CxlStandaloneAck,
    /// RXL: the Implicit Sequence Number rides in the transport-layer ECRC,
    /// so ACKs can piggyback freely without losing sequence protection.
    Rxl,
}

impl ProtocolVariant {
    /// `true` if this variant validates sequence continuity on every flit.
    pub fn always_checks_sequence(self) -> bool {
        matches!(
            self,
            ProtocolVariant::CxlStandaloneAck | ProtocolVariant::Rxl
        )
    }

    /// `true` if acknowledgements ride inside protocol flits.
    pub fn piggybacks_acks(self) -> bool {
        matches!(self, ProtocolVariant::CxlPiggyback | ProtocolVariant::Rxl)
    }

    /// Short display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolVariant::CxlPiggyback => "CXL (piggybacked ACK)",
            ProtocolVariant::CxlStandaloneAck => "CXL (standalone ACK)",
            ProtocolVariant::Rxl => "RXL",
        }
    }
}

/// The flit codec a [`ProtocolVariant`] puts on the wire: the one
/// [`RxlFlitCodec`] plus its binding rule. RXL binds each flit to its
/// transmit sequence number (control flits to 0); both CXL variants bind
/// every flit to 0, which makes the CRC the plain link CRC over
/// `header ‖ payload` and keeps the CXL wire bytes. This is the one place
/// that choice is made — [`crate::LinkTx`] and [`crate::LinkRx`] each hold
/// one, and so does any caller that materialises a wire image for them (the
/// fabric engine's lazy encoder), which is why such an image is
/// bit-identical to the transmitter's.
#[derive(Clone, Debug)]
pub struct LinkCodec {
    codec: RxlFlitCodec,
    binds_seq: bool,
}

impl LinkCodec {
    /// The codec `variant` puts on the wire.
    pub fn for_variant(variant: ProtocolVariant) -> Self {
        LinkCodec {
            codec: RxlFlitCodec::new(),
            binds_seq: variant == ProtocolVariant::Rxl,
        }
    }

    /// The sequence number the CRC binds for link-layer sequence `seq`:
    /// `seq` itself under RXL, 0 under CXL.
    #[inline]
    fn bound(&self, seq: u16) -> u16 {
        if self.binds_seq {
            seq
        } else {
            0
        }
    }

    /// Encodes `flit` bound to link-layer sequence number `seq`.
    #[inline]
    pub fn encode(&self, flit: &Flit256, seq: u16) -> WireFlit {
        self.codec.encode(flit, self.bound(seq))
    }

    /// Decodes `wire`, checking its CRC against link-layer sequence number
    /// `expected_seq`.
    #[inline]
    pub(crate) fn decode(&self, wire: &WireFlit, expected_seq: u16) -> FlitDecode {
        self.codec.decode(wire, self.bound(expected_seq))
    }

    /// The link-layer sequence number a decoded flit's CRC residue names
    /// (see [`RxlFlitCodec::seq_of`]). `None` under CXL, which binds every
    /// flit to 0 and so carries no sequence in its CRC.
    #[inline]
    pub(crate) fn seq_of(&self, residue: u64) -> Option<u16> {
        if self.binds_seq {
            self.codec.seq_of(residue)
        } else {
            None
        }
    }
}

/// Static configuration of one link direction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkConfig {
    /// Protocol variant in use.
    pub variant: ProtocolVariant,
    /// ACK coalescing level: one acknowledgement is produced per this many
    /// accepted flits (the paper's `p_coalescing` is `1 / ack_coalescing`).
    pub ack_coalescing: u32,
    /// Capacity of the transmit replay buffer, in flits.
    pub replay_capacity: usize,
    /// Time to serialise one 256-byte flit on the link, in nanoseconds
    /// (2 ns for a ×16 CXL 3.0 link).
    pub flit_time_ns: f64,
    /// Go-back-N retry round-trip latency, in nanoseconds (100 ns in the
    /// paper's performance analysis).
    pub retry_latency_ns: f64,
    /// Watchdog timeout after which the transmitter re-issues a go-back-N
    /// replay of everything unacknowledged (covers lost NACK/ACK control
    /// flits), in nanoseconds.
    pub replay_timeout_ns: f64,
}

impl LinkConfig {
    /// The paper's ×16 CXL 3.0 operating point for a given variant.
    pub fn cxl3_x16(variant: ProtocolVariant) -> Self {
        LinkConfig {
            variant,
            ack_coalescing: 10,
            replay_capacity: 256,
            flit_time_ns: 2.0,
            retry_latency_ns: 100.0,
            replay_timeout_ns: 4_000.0,
        }
    }

    /// Fraction of flits that carry an acknowledgement
    /// (the paper's `p_coalescing`).
    pub fn p_coalescing(&self) -> f64 {
        1.0 / self.ack_coalescing as f64
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self::cxl3_x16(ProtocolVariant::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_capabilities() {
        assert!(!ProtocolVariant::CxlPiggyback.always_checks_sequence());
        assert!(ProtocolVariant::CxlStandaloneAck.always_checks_sequence());
        assert!(ProtocolVariant::Rxl.always_checks_sequence());
        assert!(ProtocolVariant::CxlPiggyback.piggybacks_acks());
        assert!(!ProtocolVariant::CxlStandaloneAck.piggybacks_acks());
        assert!(ProtocolVariant::Rxl.piggybacks_acks());
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            ProtocolVariant::CxlPiggyback.name(),
            ProtocolVariant::CxlStandaloneAck.name(),
            ProtocolVariant::Rxl.name(),
        ];
        assert_eq!(
            names.iter().collect::<std::collections::HashSet<_>>().len(),
            3
        );
    }

    #[test]
    fn default_config_matches_the_paper_operating_point() {
        let cfg = LinkConfig::default();
        assert_eq!(cfg.variant, ProtocolVariant::CxlPiggyback);
        assert!((cfg.flit_time_ns - 2.0).abs() < 1e-12);
        assert!((cfg.retry_latency_ns - 100.0).abs() < 1e-12);
        assert!((cfg.p_coalescing() - 0.1).abs() < 1e-12);
    }
}
