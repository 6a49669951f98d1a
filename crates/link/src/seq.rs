//! Wrap-aware arithmetic on the 10-bit flit sequence number space.
//!
//! All sequence comparisons in the link layer must tolerate wrap-around at
//! 1024. The helpers here assume the usual sliding-window invariant: the
//! distance between any two live sequence numbers is less than half the
//! sequence space.

/// Number of distinct sequence numbers: one per entry of the ISN table
/// (2^10, the FSN width `rxl_crc::isn::SEQ_BITS`).
pub const SEQ_SPACE: u16 = 1 << rxl_flit::FSN_BITS;
/// Mask selecting the valid sequence bits.
pub const SEQ_MASK: u16 = SEQ_SPACE - 1;

/// Adds a (possibly negative) offset to a sequence number, wrapping.
pub fn seq_add(seq: u16, offset: i32) -> u16 {
    let s = seq as i32 + offset;
    (s.rem_euclid(SEQ_SPACE as i32)) as u16
}

/// The next sequence number after `seq`.
pub fn seq_next(seq: u16) -> u16 {
    (seq + 1) & SEQ_MASK
}

/// Forward distance from `from` to `to` (how many increments reach `to`).
pub fn seq_distance(from: u16, to: u16) -> u16 {
    (to.wrapping_sub(from)) & SEQ_MASK
}

/// `true` if `a` is at or after `b` within a window of half the sequence
/// space (standard go-back-N comparison).
pub fn seq_ge(a: u16, b: u16) -> bool {
    seq_distance(b, a) < SEQ_SPACE / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_wraps_at_the_top() {
        assert_eq!(seq_next(0), 1);
        assert_eq!(seq_next(1022), 1023);
        assert_eq!(seq_next(1023), 0);
    }

    #[test]
    fn add_handles_negative_offsets() {
        assert_eq!(seq_add(0, -1), 1023);
        assert_eq!(seq_add(5, -10), 1019);
        assert_eq!(seq_add(1020, 10), 6);
        assert_eq!(seq_add(7, 0), 7);
    }

    #[test]
    fn distance_is_forward_modular() {
        assert_eq!(seq_distance(0, 5), 5);
        assert_eq!(seq_distance(1020, 3), 7);
        assert_eq!(seq_distance(5, 5), 0);
        assert_eq!(seq_distance(5, 4), 1023);
    }

    #[test]
    fn ge_respects_the_window() {
        assert!(seq_ge(5, 5));
        assert!(seq_ge(6, 5));
        assert!(seq_ge(3, 1020)); // wrapped ahead
        assert!(!seq_ge(1020, 3));
        assert!(!seq_ge(5, 6));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn distance_inverts_add(seq in 0u16..SEQ_SPACE, k in 0u16..SEQ_SPACE) {
                let later = seq_add(seq, k as i32);
                prop_assert_eq!(seq_distance(seq, later), k);
            }

            #[test]
            fn next_is_add_one(seq in 0u16..SEQ_SPACE) {
                prop_assert_eq!(seq_next(seq), seq_add(seq, 1));
            }
        }
    }
}
