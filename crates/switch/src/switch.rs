//! The switching-device model.

use rand::Rng;
use rxl_crc::catalog::Crc64;
use rxl_fec::{InterleavedFec, RsDecodeOutcome};
use rxl_flit::WireFlit;

use crate::internal_error::InternalErrorModel;
use crate::stats::SwitchStats;

/// How the switch treats the 8-byte CRC field of forwarded flits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LinkCrcMode {
    /// Baseline CXL: the CRC is a *link-layer* check, so the switch verifies
    /// it on ingress, drops mismatching flits, and regenerates it on egress.
    /// Corruption introduced inside the switch is therefore masked by the
    /// freshly computed CRC and reaches the endpoint undetected.
    Regenerate,
    /// RXL: the CRC is a *transport-layer* (end-to-end) check. The switch
    /// never touches it — it is just payload bytes to the FEC — so any
    /// switch-internal corruption is still visible to the endpoint's ECRC.
    #[default]
    Passthrough,
}

/// Static configuration of one switch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SwitchConfig {
    /// Number of ports. The pipeline is the same on every port; the fabric
    /// engine sizes a switch's output lanes from this count.
    pub ports: usize,
    /// Internal (post-FEC-decode) corruption model.
    pub internal_error: InternalErrorModel,
    /// CRC handling mode (CXL regenerates per hop; RXL passes it through).
    pub crc_mode: LinkCrcMode,
}

impl SwitchConfig {
    /// A small fault-free switch with the given port count (RXL-style
    /// pass-through CRC handling).
    pub fn simple(ports: usize) -> Self {
        SwitchConfig {
            ports,
            internal_error: InternalErrorModel::none(),
            crc_mode: LinkCrcMode::Passthrough,
        }
    }

    /// A fault-free switch that verifies and regenerates the link CRC per hop
    /// (baseline CXL behaviour).
    pub fn cxl(ports: usize) -> Self {
        SwitchConfig {
            crc_mode: LinkCrcMode::Regenerate,
            ..Self::simple(ports)
        }
    }
}

/// What [`Switch::process_in_place`] did to the flit it was handed. It
/// carries no wire image — the caller's buffer *is* the output — so the
/// pipeline moves no flit bytes and allocates nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcessVerdict {
    /// The flit survived the pipeline; the caller's buffer now holds the
    /// FEC-re-encoded egress image.
    Forwarded {
        /// Number of symbols the ingress FEC corrected.
        corrected_symbols: usize,
        /// `true` if switch-internal corruption was injected.
        internally_corrupted: bool,
    },
    /// The FEC (or, in Regenerate mode, the link CRC) rejected the flit; it
    /// was silently dropped. Callers discard the buffer: on the CRC-drop
    /// path the FEC decode may already have applied corrections to it, so it
    /// is not guaranteed to hold the bytes as received.
    DroppedUncorrectable,
}

impl ProcessVerdict {
    /// `true` if the flit survived the pipeline.
    pub fn forwarded(&self) -> bool {
        matches!(self, ProcessVerdict::Forwarded { .. })
    }
}

/// A stateless switching device: the link-layer forwarding pipeline the
/// crate docs describe, and the statistics it accumulates. It keeps no routes and no
/// buffers; the caller owns the flit, decides where it goes next, and
/// queues it (the fabric engine's output lanes, or the next hop of the
/// path simulator).
pub struct Switch {
    config: SwitchConfig,
    fec: InterleavedFec,
    crc: Crc64,
    stats: SwitchStats,
}

impl Switch {
    /// Creates a switch.
    pub fn new(config: SwitchConfig) -> Self {
        assert!(config.ports >= 2, "a switch needs at least two ports");
        Switch {
            fec: InterleavedFec::cxl_flit(),
            crc: Crc64::flit(),
            stats: SwitchStats::default(),
            config,
        }
    }

    /// The switch configuration.
    pub fn config(&self) -> &SwitchConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SwitchStats {
        &self.stats
    }

    /// Runs the forwarding pipeline on one flit, transforming the caller's
    /// wire image in place (no flit copy, no allocation): link-layer FEC
    /// decode, silent drop of uncorrectable patterns, the configured CRC
    /// policy (verify + regenerate for CXL, pass-through for RXL),
    /// switch-internal fault injection, and egress FEC re-encode. Every
    /// per-flit statistic (`flits_in`, corrections, drops, internal
    /// corruption, `flits_forwarded`) is accumulated here.
    ///
    /// The egress half — CRC regeneration (CXL) and FEC re-encode — runs only
    /// when [`InternalErrorModel::apply`] reports that it changed the flit.
    /// On every other forwarded flit it would be the identity: an accepted
    /// `fec.decode` leaves every way a codeword, i.e. the parity bytes in the
    /// buffer already are the (unique, systematic) encoding of the data bytes
    /// in front of them; in `Regenerate` mode the ingress check has just
    /// established that the stored CRC is the checksum a regeneration would
    /// write; and `apply` returning `false` touched no byte. Recomputing both
    /// would write back the bytes already there, so skipping them changes no
    /// wire byte, verdict, statistic or RNG draw (the argument
    /// [`Self::forward_clean`] makes for flits the channel never touched,
    /// extended to flits the ingress FEC repaired).
    pub fn process_in_place<R: Rng + ?Sized>(
        &mut self,
        wire: &mut WireFlit,
        rng: &mut R,
    ) -> ProcessVerdict {
        self.stats.flits_in += 1;

        // Link-layer FEC decode, correcting the wire image in place.
        let fec_result = self.fec.decode(wire);
        if !fec_result.accepted() {
            // Silent drop: the defining behaviour of switched CXL fabrics.
            self.stats.flits_dropped_uncorrectable += 1;
            return ProcessVerdict::DroppedUncorrectable;
        }
        let corrected_symbols = fec_result.outcome.corrected_symbols();
        if corrected_symbols > 0 {
            self.stats.flits_corrected += 1;
        }

        let data_len = self.fec.data_len();
        let crc_offset = data_len - 8;

        // Baseline CXL switches also verify the link CRC on ingress and drop
        // flits that fail it (the CRC covers errors the FEC miscorrected).
        if self.config.crc_mode == LinkCrcMode::Regenerate {
            let expected = self.crc.checksum(&wire[..crc_offset]);
            let received = u64::from_le_bytes(wire[crc_offset..data_len].try_into().unwrap());
            if expected != received {
                self.stats.flits_dropped_uncorrectable += 1;
                return ProcessVerdict::DroppedUncorrectable;
            }
        }

        // Switch-internal faults strike the *decoded* block, i.e. after the
        // ingress FEC can help and before the egress FEC is recomputed.
        let internally_corrupted = self
            .config
            .internal_error
            .apply(&mut wire[..crc_offset], rng);
        if internally_corrupted {
            self.stats.flits_internally_corrupted += 1;
        }

        if internally_corrupted {
            // Per-hop CRC regeneration (CXL) masks whatever happened inside
            // the switch; pass-through (RXL) leaves the originator's ECRC
            // intact.
            if self.config.crc_mode == LinkCrcMode::Regenerate {
                let fresh = self.crc.checksum(&wire[..crc_offset]);
                wire[crc_offset..data_len].copy_from_slice(&fresh.to_le_bytes());
            }
            // Egress FEC re-encode, in place over the corrupted data bytes.
            self.fec.encode_into(wire);
        } else {
            // Untouched since the ingress decode accepted it (and the link
            // CRC verified): already the image the egress half would write.
            debug_assert_eq!(
                self.fec.decode(&mut { *wire }).outcome,
                RsDecodeOutcome::NoError,
                "a skipped re-encode must leave all-zero syndromes"
            );
        }
        self.stats.flits_forwarded += 1;
        ProcessVerdict::Forwarded {
            corrected_symbols,
            internally_corrupted,
        }
    }

    /// Accounts a flit that is *known clean* through the forwarding pipeline
    /// without running it: bumps `flits_in`/`flits_forwarded` and leaves the
    /// caller's buffer untouched.
    ///
    /// This is only sound when the full pipeline is provably the identity on
    /// the flit: the wire image is a valid codeword whose data bytes carry a
    /// matching link CRC (true for anything a conforming endpoint or switch
    /// emitted that the channel did not touch), and the switch-internal error
    /// model is disabled (`per_flit_probability <= 0.0`, where
    /// [`InternalErrorModel::apply`] is also draw-free). Under those
    /// preconditions [`Self::process_in_place`] would decode zero errors,
    /// verify the CRC, inject nothing, re-encode the identical parity, and
    /// consume zero RNG draws — so skipping it changes neither the flit, the
    /// statistics, nor the RNG stream. The fabric engine uses this from its
    /// skip-ahead path when the link-channel cursor reports zero flips.
    pub fn forward_clean(&mut self) {
        self.stats.flits_in += 1;
        self.stats.flits_forwarded += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};
    use rxl_flit::{CxlFlitCodec, Flit256, FlitHeader, MemOp, Message, WIRE_FLIT_LEN};

    fn wire_flit(tag: u16) -> WireFlit {
        let codec = CxlFlitCodec::new();
        let mut flit = Flit256::new(FlitHeader::with_seq(tag));
        flit.pack_messages(&[Message::request(MemOp::RdCurr, tag as u64 * 64, 0, tag)])
            .unwrap();
        codec.encode(&flit)
    }

    #[test]
    fn clean_flits_are_forwarded_unmodified() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut sw = Switch::new(SwitchConfig::simple(2));
        let wire = wire_flit(7);
        let mut forwarded = wire;
        assert_eq!(
            sw.process_in_place(&mut forwarded, &mut rng),
            ProcessVerdict::Forwarded {
                corrected_symbols: 0,
                internally_corrupted: false
            }
        );
        assert_eq!(
            forwarded, wire,
            "a clean flit must be forwarded bit-exactly"
        );
        assert_eq!(sw.stats().flits_in, 1);
        assert_eq!(sw.stats().flits_forwarded, 1);
    }

    #[test]
    fn correctable_errors_are_repaired_before_forwarding() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut sw = Switch::new(SwitchConfig::simple(2));
        let clean = wire_flit(9);
        let mut wire = clean;
        wire[100] ^= 0xFF;
        wire[101] ^= 0x0F;
        match sw.process_in_place(&mut wire, &mut rng) {
            ProcessVerdict::Forwarded {
                corrected_symbols, ..
            } => assert_eq!(corrected_symbols, 2),
            other => panic!("unexpected verdict {other:?}"),
        }
        assert_eq!(wire, clean, "the switch must forward the repaired flit");
        assert_eq!(sw.stats().flits_corrected, 1);
    }

    #[test]
    fn uncorrectable_flits_are_silently_dropped() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut sw = Switch::new(SwitchConfig::simple(2));
        let mut wire = wire_flit(3);
        // Equal-magnitude double error in one FEC way → uncorrectable.
        wire[0] ^= 0x5A;
        wire[3] ^= 0x5A;
        assert_eq!(
            sw.process_in_place(&mut wire, &mut rng),
            ProcessVerdict::DroppedUncorrectable
        );
        assert_eq!(sw.stats().flits_forwarded, 0);
        assert_eq!(sw.stats().flits_dropped_uncorrectable, 1);
        assert!((sw.stats().drop_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn internal_corruption_is_invisible_to_downstream_fec() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut sw = Switch::new(SwitchConfig {
            internal_error: InternalErrorModel::new(1.0, 1),
            ..SwitchConfig::simple(2)
        });
        let clean = wire_flit(11);
        let mut forwarded = clean;
        match sw.process_in_place(&mut forwarded, &mut rng) {
            ProcessVerdict::Forwarded {
                internally_corrupted,
                ..
            } => assert!(internally_corrupted),
            other => panic!("unexpected verdict {other:?}"),
        }
        assert_ne!(
            forwarded, clean,
            "internal corruption must have altered the flit"
        );
        // The corrupted flit still passes a *downstream* FEC check, because
        // the switch re-encoded the FEC over the corrupted data. Only an
        // end-to-end CRC can catch this (Section 6.3 of the paper).
        let fec = rxl_fec::InterleavedFec::cxl_flit();
        let mut block = forwarded.to_vec();
        assert!(fec.decode(&mut block).accepted());
        // And the CXL link CRC (computed by the original endpoint) does
        // catch it, since the payload no longer matches.
        let codec = CxlFlitCodec::new();
        let out = codec.decode(&forwarded);
        assert!(out.fec.accepted());
        assert!(!out.crc_ok);
    }

    #[test]
    fn cxl_crc_regeneration_masks_internal_corruption() {
        // In Regenerate mode (baseline CXL), the switch recomputes the link
        // CRC after its internal corruption, so the downstream endpoint's CRC
        // check passes even though the payload is wrong — exactly the gap the
        // paper closes by elevating the CRC to the transport layer.
        let mut rng = StdRng::seed_from_u64(6);
        let mut sw = Switch::new(SwitchConfig {
            internal_error: InternalErrorModel::new(1.0, 1),
            ..SwitchConfig::cxl(2)
        });
        let clean = wire_flit(12);
        let mut forwarded = clean;
        assert!(sw.process_in_place(&mut forwarded, &mut rng).forwarded());
        assert_ne!(forwarded, clean);
        let codec = CxlFlitCodec::new();
        let out = codec.decode(&forwarded);
        assert!(
            out.accepted(),
            "regenerated CRC hides the corruption from CXL"
        );
        assert_ne!(
            out.flit.unwrap().payload,
            codec.decode(&clean).flit.unwrap().payload
        );
    }

    #[test]
    fn cxl_switch_drops_flits_whose_link_crc_fails() {
        // A flit whose FEC decodes but whose CRC mismatches (e.g. an FEC
        // miscorrection upstream) is dropped by a CXL switch on ingress.
        let mut rng = StdRng::seed_from_u64(7);
        let mut sw = Switch::new(SwitchConfig::cxl(2));
        // Build a wire image whose CRC field is wrong but whose FEC is valid.
        let clean = wire_flit(13);
        let fec = rxl_fec::InterleavedFec::cxl_flit();
        let mut block = clean.to_vec();
        assert!(fec.decode(&mut block).accepted());
        block[242] ^= 0xFF; // corrupt the stored CRC itself
        let reencoded = fec.encode(&block[..250]);
        let mut tampered = [0u8; WIRE_FLIT_LEN];
        tampered.copy_from_slice(&reencoded);
        assert_eq!(
            sw.process_in_place(&mut { tampered }, &mut rng),
            ProcessVerdict::DroppedUncorrectable
        );
        // A pass-through (RXL) switch would have forwarded it for the
        // endpoint to judge.
        let mut rxl_sw = Switch::new(SwitchConfig::simple(2));
        assert!(rxl_sw
            .process_in_place(&mut { tampered }, &mut rng)
            .forwarded());
    }

    #[test]
    fn forward_clean_matches_the_full_pipeline_on_clean_flits() {
        // On a valid codeword with a disabled internal model, the full
        // pipeline is the identity and draw-free — forward_clean must be an
        // exact stand-in: same buffer, same stats, same RNG stream.
        let mut rng = StdRng::seed_from_u64(21);
        let mut full = Switch::new(SwitchConfig::cxl(2));
        let mut fast = Switch::new(SwitchConfig::cxl(2));
        let clean = wire_flit(33);
        for _ in 0..16 {
            let mut buf = clean;
            assert!(full.process_in_place(&mut buf, &mut rng).forwarded());
            assert_eq!(buf, clean, "pipeline must be the identity here");
            fast.forward_clean();
        }
        let mut twin = StdRng::seed_from_u64(21);
        assert_eq!(rng.next_u64(), twin.next_u64(), "pipeline drew from RNG");
        assert_eq!(full.stats().flits_in, fast.stats().flits_in);
        assert_eq!(full.stats().flits_forwarded, fast.stats().flits_forwarded);
        assert_eq!(fast.stats().flits_dropped_uncorrectable, 0);
    }

    /// The forwarding pipeline with an unconditional egress half — the CRC is
    /// always regenerated (CXL) and the FEC always re-encoded, whether or not
    /// the flit changed inside the switch. [`Switch::process_in_place`] skips
    /// both on unchanged flits and must be indistinguishable from this.
    fn reference_process_in_place(
        config: &SwitchConfig,
        stats: &mut SwitchStats,
        wire: &mut WireFlit,
        rng: &mut StdRng,
    ) -> ProcessVerdict {
        let fec = InterleavedFec::cxl_flit();
        let crc = Crc64::flit();
        let crc_offset = fec.data_len() - 8;
        let regenerate = config.crc_mode == LinkCrcMode::Regenerate;
        stats.flits_in += 1;
        let fec_result = fec.decode(wire);
        if !fec_result.accepted() {
            stats.flits_dropped_uncorrectable += 1;
            return ProcessVerdict::DroppedUncorrectable;
        }
        let corrected_symbols = fec_result.outcome.corrected_symbols();
        if corrected_symbols > 0 {
            stats.flits_corrected += 1;
        }
        if regenerate {
            let stored = u64::from_le_bytes(wire[crc_offset..crc_offset + 8].try_into().unwrap());
            if crc.checksum(&wire[..crc_offset]) != stored {
                stats.flits_dropped_uncorrectable += 1;
                return ProcessVerdict::DroppedUncorrectable;
            }
        }
        let internally_corrupted = config.internal_error.apply(&mut wire[..crc_offset], rng);
        if internally_corrupted {
            stats.flits_internally_corrupted += 1;
        }
        if regenerate {
            let fresh = crc.checksum(&wire[..crc_offset]);
            wire[crc_offset..crc_offset + 8].copy_from_slice(&fresh.to_le_bytes());
        }
        fec.encode_into(wire);
        stats.flits_forwarded += 1;
        ProcessVerdict::Forwarded {
            corrected_symbols,
            internally_corrupted,
        }
    }

    #[test]
    fn conditional_egress_half_matches_the_always_regenerate_pipeline() {
        for crc_mode in [LinkCrcMode::Passthrough, LinkCrcMode::Regenerate] {
            for probability in [0.0, 0.3, 1.0] {
                let config = SwitchConfig {
                    internal_error: InternalErrorModel::new(probability, 2),
                    crc_mode,
                    ..SwitchConfig::simple(2)
                };
                let mut sw = Switch::new(config);
                let mut reference_stats = SwitchStats::default();
                let mut rng = StdRng::seed_from_u64(77);
                let mut reference_rng = StdRng::seed_from_u64(77);
                let mut channel = StdRng::seed_from_u64(78);
                let mut verdicts = [0usize; 2];
                for i in 0..400u16 {
                    // 0–4 channel flips: clean, corrected, FEC-uncorrectable
                    // and miscorrected-then-CRC-dropped flits all occur.
                    let mut wire = wire_flit(i);
                    for _ in 0..i % 5 {
                        wire[channel.random_range(0..WIRE_FLIT_LEN)] ^=
                            channel.random_range(1..=255u8);
                    }
                    let mut reference_wire = wire;
                    let verdict = sw.process_in_place(&mut wire, &mut rng);
                    let reference_verdict = reference_process_in_place(
                        &config,
                        &mut reference_stats,
                        &mut reference_wire,
                        &mut reference_rng,
                    );
                    let case = format!("{crc_mode:?}, p = {probability}, flit {i}");
                    assert_eq!(verdict, reference_verdict, "{case}");
                    assert_eq!(wire, reference_wire, "{case}");
                    verdicts[verdict.forwarded() as usize] += 1;
                }
                assert_eq!(*sw.stats(), reference_stats);
                assert_eq!(rng.next_u64(), reference_rng.next_u64());
                assert!(verdicts[0] > 0 && verdicts[1] > 0, "{verdicts:?}");
                assert!(sw.stats().flits_corrected > 0);
                assert_eq!(sw.stats().flits_internally_corrupted > 0, probability > 0.0);
            }
        }
    }
}
