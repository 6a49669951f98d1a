//! Per-switch statistics counters.

/// Counters accumulated by one switching device.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Flits received on any ingress port.
    pub flits_in: u64,
    /// Flits forwarded to an egress queue.
    pub flits_forwarded: u64,
    /// Flits in which the ingress FEC corrected at least one symbol.
    pub flits_corrected: u64,
    /// Flits silently dropped because the FEC reported an uncorrectable
    /// pattern — the drops whose downstream consequences the paper analyses.
    pub flits_dropped_uncorrectable: u64,
    /// Always 0: a switch keeps no route table, so no flit lacks a route.
    /// Kept because its `Debug`/`Display` text is part of pinned report
    /// digests and example output.
    pub flits_dropped_no_route: u64,
    /// Always 0: lanes are credit-gated, so no flit meets a full buffer.
    /// Kept because its `Debug`/`Display` text is part of pinned report
    /// digests and example output.
    pub flits_dropped_queue_full: u64,
    /// Flits corrupted by switch-internal faults after the FEC decode.
    pub flits_internally_corrupted: u64,
}

impl SwitchStats {
    /// Total flits dropped for any reason.
    pub fn total_dropped(&self) -> u64 {
        self.flits_dropped_uncorrectable
            + self.flits_dropped_no_route
            + self.flits_dropped_queue_full
    }

    /// Fraction of incoming flits that were silently dropped due to
    /// uncorrectable errors.
    pub fn drop_rate(&self) -> f64 {
        if self.flits_in == 0 {
            return 0.0;
        }
        self.flits_dropped_uncorrectable as f64 / self.flits_in as f64
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &SwitchStats) {
        self.flits_in += other.flits_in;
        self.flits_forwarded += other.flits_forwarded;
        self.flits_corrected += other.flits_corrected;
        self.flits_dropped_uncorrectable += other.flits_dropped_uncorrectable;
        self.flits_dropped_no_route += other.flits_dropped_no_route;
        self.flits_dropped_queue_full += other.flits_dropped_queue_full;
        self.flits_internally_corrupted += other.flits_internally_corrupted;
    }
}

impl std::fmt::Display for SwitchStats {
    /// Renders the counters as an aligned multi-line block, one counter per
    /// line, so reports and examples need not hand-format them.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "flits in             : {}", self.flits_in)?;
        writeln!(f, "flits forwarded      : {}", self.flits_forwarded)?;
        writeln!(f, "corrected by FEC     : {}", self.flits_corrected)?;
        writeln!(
            f,
            "silent drops         : {}",
            self.flits_dropped_uncorrectable
        )?;
        writeln!(f, "no-route drops       : {}", self.flits_dropped_no_route)?;
        writeln!(
            f,
            "queue-full drops     : {}",
            self.flits_dropped_queue_full
        )?;
        writeln!(
            f,
            "internal corruptions : {}",
            self.flits_internally_corrupted
        )?;
        write!(f, "silent drop rate     : {:.3e}", self.drop_rate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_rates() {
        let s = SwitchStats {
            flits_in: 100,
            flits_forwarded: 95,
            flits_dropped_uncorrectable: 3,
            flits_dropped_no_route: 1,
            flits_dropped_queue_full: 1,
            ..Default::default()
        };
        assert_eq!(s.total_dropped(), 5);
        assert!((s.drop_rate() - 0.03).abs() < 1e-12);
        assert_eq!(SwitchStats::default().drop_rate(), 0.0);
    }

    #[test]
    fn display_renders_every_counter() {
        let s = SwitchStats {
            flits_in: 100,
            flits_forwarded: 95,
            flits_dropped_uncorrectable: 3,
            ..Default::default()
        };
        let out = s.to_string();
        assert!(out.contains("flits in             : 100"));
        assert!(out.contains("flits forwarded      : 95"));
        assert!(out.contains("silent drops         : 3"));
        assert!(out.contains("silent drop rate"));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = SwitchStats {
            flits_in: 10,
            ..Default::default()
        };
        a.merge(&SwitchStats {
            flits_in: 5,
            flits_corrected: 2,
            ..Default::default()
        });
        assert_eq!(a.flits_in, 15);
        assert_eq!(a.flits_corrected, 2);
    }
}
