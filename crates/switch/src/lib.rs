//! # rxl-switch — Switching devices for scaled-out interconnect fabrics
//!
//! The paper's scale-out scenario routes flits through one or more switching
//! devices. Switches are **stateless** with respect to the transport
//! protocol: they operate purely at the link layer (Section 6.4):
//!
//! 1. decode the incoming flit's FEC, correcting up to a three-symbol burst,
//! 2. **silently drop** the flit if the FEC reports an uncorrectable pattern
//!    (this is the behaviour of real PCIe/Ethernet switch ASICs the paper
//!    cites, and the root cause of the ordering failures it analyses),
//! 3. optionally corrupt the flit internally (buffer or logic faults) —
//!    errors that no link-layer mechanism can see but RXL's end-to-end CRC
//!    catches,
//! 4. re-encode the FEC and forward the flit towards its egress port.
//!
//! Crucially, switches never look at CRCs or sequence numbers, which is what
//! lets RXL add end-to-end protection without any switch modifications.

pub mod internal_error;
pub mod stats;
pub mod switch;

pub use internal_error::InternalErrorModel;
pub use stats::SwitchStats;
pub use switch::{LinkCrcMode, ProcessVerdict, Switch, SwitchConfig};
