//! Multi-switch fabric topologies.
//!
//! Where `rxl_sim::Topology` describes the *path* between one host and one
//! device (a chain of switches), the types here describe a whole *fabric*:
//! many hosts, many devices, shared switches, and the trunk links between
//! them. Three generator families cover the scale-out scenarios of the
//! paper's Sections 6.4 and 7.1:
//!
//! * [`FabricTopology::leaf_spine`] — endpoints on leaf switches, every leaf
//!   connected to every spine; cross-leaf sessions traverse
//!   leaf → spine → leaf (three switching levels).
//! * [`FabricTopology::fat_tree2`] — a two-tier fat-tree with a dedicated
//!   host tier and a dedicated device tier of edge switches joined by core
//!   switches (the disaggregated-memory shape of the paper's introduction).
//! * [`FabricTopology::ring`] — switches in a cycle, sessions spanning a
//!   configurable number of hops; the generator of choice for sweeping
//!   switching depth, since a session's path crosses exactly `span + 1`
//!   switches.
//! * [`FabricTopology::torus`] — a 2-D wrap-around grid; the smallest
//!   topology with path diversity in *two* dimensions, which is what the
//!   minimal-adaptive routing layer exploits.
//! * [`FabricTopology::dragonfly`] — fully-connected groups joined by one
//!   global trunk per group pair, the paper's scale-out end state.
//!
//! # Virtual-channel metadata: trunk classes and datelines
//!
//! Ring and torus trunks close cycles, and cyclic trunk graphs deadlock
//! under saturation with a single buffer class: every switch's output queue
//! on the cycle can fill with flits whose next hop is the *next* queue of
//! the same cycle, a circular credit wait no one can break (the bug pinned
//! by `saturated_ring_span2_reports_credit_deadlock`). The classical fix is
//! a **dateline** per ring dimension: one trunk of each cycle is marked, and
//! a flit that crosses a marked trunk moves from escape VC 0 to escape VC 1
//! for the remaining hops in that dimension. Minimal routes cross each
//! dimension's dateline at most once, so each escape VC's channel
//! dependency graph is the cycle *minus* one edge — acyclic — and the
//! engine's round-robin VC arbitration guarantees the escape VCs service,
//! which makes the whole fabric deadlock-free.
//!
//! [`TrunkClass`] carries that static metadata: the ring dimension a trunk
//! belongs to (`dim` — the torus needs the x and y cycles tracked
//! *separately*, a single shared "crossed" bit re-admits cycles through the
//! second dimension) and whether it is its cycle's dateline. Generators
//! whose trunk graphs are acyclic (leaf–spine, fat-tree) carry no
//! datelines; the dragonfly marks its global trunks so traffic entering the
//! destination group switches to VC 1, keeping the local→global→local
//! dependency chain acyclic.

/// Virtual-channel class metadata of one trunk: which ring dimension the
/// trunk belongs to and whether it is that cycle's dateline (see the
/// module docs). Trunks of acyclic fabrics use the default (`dim 0`, no
/// dateline), which makes every escape flit ride VC 0 — exactly the
/// single-queue pre-VC behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrunkClass {
    /// Ring dimension this trunk closes (0 = x / the only ring, 1 = y).
    pub dim: u8,
    /// `true` for the one trunk per cycle whose crossing bumps a flit from
    /// escape VC 0 to escape VC 1.
    pub dateline: bool,
}

/// Structural family of a fabric, used by the routing layer to pick an
/// escape-path algorithm that is provably deadlock-free on that structure.
/// BFS/ECMP remains the fallback everywhere (and the only choice once a
/// scenario degrades the fabric — see `RoutingTable::degraded`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyLayout {
    /// No exploitable structure: escape routing is plain BFS/ECMP.
    Irregular,
    /// A `cols × rows` wrap-around grid (switch `s = row * cols + col`):
    /// escape routing is dimension-ordered (x, then y).
    Grid {
        /// Ring length of dimension 0.
        cols: usize,
        /// Ring length of dimension 1.
        rows: usize,
    },
    /// `groups` fully-connected groups of `group_size` switches: escape
    /// routing takes at most one global trunk (local → global → local).
    Dragonfly {
        /// Number of groups.
        groups: usize,
        /// Switches per group.
        group_size: usize,
    },
}

/// Whether an endpoint initiates requests (host) or serves them (device).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeRole {
    /// A request-initiating endpoint (CPU / host bridge).
    Host,
    /// A request-serving endpoint (accelerator / memory device).
    Device,
}

/// One endpoint of the fabric and its attachment point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EndpointNode {
    /// Host or device.
    pub role: NodeRole,
    /// Index of the switch the endpoint is attached to.
    pub switch: usize,
    /// Port on that switch the endpoint occupies.
    pub port: usize,
}

/// One switching device of the fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwitchNode {
    /// Number of ports (endpoint ports + trunk ports).
    pub ports: usize,
}

/// A bidirectional trunk link between two switch ports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrunkLink {
    /// One side: `(switch index, port)`.
    pub a: (usize, usize),
    /// The other side: `(switch index, port)`.
    pub b: (usize, usize),
}

/// One transaction session: a host–device pair exchanging bidirectional
/// traffic across the fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Session {
    /// Endpoint index of the host side.
    pub host: usize,
    /// Endpoint index of the device side.
    pub device: usize,
}

/// Identifier of one physical link of the fabric: either an endpoint's
/// attachment link (endpoint ⇄ its switch) or a trunk (switch ⇄ switch).
/// Links are what fault-injection scenarios target — the fabric engine keeps
/// one (possibly time-varying) channel per link. Obtain ids via
/// [`FabricTopology::endpoint_link`], [`FabricTopology::trunk_link`] or
/// [`FabricTopology::trunk_between`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub(crate) usize);

impl LinkId {
    /// Dense index into the fabric's link space: endpoint attachment links
    /// first (in endpoint order), then trunks (in trunk order).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// A complete fabric description: endpoints, switches, trunks, and the
/// host–device sessions that will exercise them.
#[derive(Clone, Debug)]
pub struct FabricTopology {
    /// Human-readable topology label for reports.
    pub name: String,
    /// All endpoints, hosts and devices interleaved.
    pub endpoints: Vec<EndpointNode>,
    /// All switching devices.
    pub switches: Vec<SwitchNode>,
    /// All switch-to-switch trunk links.
    pub trunks: Vec<TrunkLink>,
    /// Virtual-channel class of each trunk, parallel to [`Self::trunks`].
    /// May be empty, meaning every trunk has the default class (no ring
    /// dimension, no dateline) — the case for acyclic trunk graphs.
    pub trunk_classes: Vec<TrunkClass>,
    /// Structural family, used to pick the escape-path routing algorithm.
    pub layout: TopologyLayout,
    /// All host–device sessions.
    pub sessions: Vec<Session>,
}

impl FabricTopology {
    /// A leaf–spine fabric: `leaves` leaf switches each carrying
    /// `pairs_per_leaf` host/device pairs, fully meshed to `spines` spine
    /// switches. Session `k` of leaf `l` pairs that leaf's host `k` with the
    /// device `k` of leaf `(l + 1) % leaves`, so with more than one leaf
    /// every session crosses leaf → spine → leaf (three switching levels).
    pub fn leaf_spine(leaves: usize, spines: usize, pairs_per_leaf: usize) -> Self {
        assert!(leaves >= 1 && spines >= 1 && pairs_per_leaf >= 1);
        let leaf_ports = 2 * pairs_per_leaf + spines;
        let mut switches: Vec<SwitchNode> = (0..leaves)
            .map(|_| SwitchNode { ports: leaf_ports })
            .collect();
        switches.extend((0..spines).map(|_| SwitchNode { ports: leaves }));

        let mut endpoints = Vec::new();
        for leaf in 0..leaves {
            for k in 0..pairs_per_leaf {
                endpoints.push(EndpointNode {
                    role: NodeRole::Host,
                    switch: leaf,
                    port: 2 * k,
                });
                endpoints.push(EndpointNode {
                    role: NodeRole::Device,
                    switch: leaf,
                    port: 2 * k + 1,
                });
            }
        }

        let mut trunks = Vec::new();
        for leaf in 0..leaves {
            for spine in 0..spines {
                trunks.push(TrunkLink {
                    a: (leaf, 2 * pairs_per_leaf + spine),
                    b: (leaves + spine, leaf),
                });
            }
        }

        let endpoint_id = |leaf: usize, k: usize, device: bool| {
            2 * (leaf * pairs_per_leaf + k) + usize::from(device)
        };
        let sessions = (0..leaves)
            .flat_map(|leaf| {
                (0..pairs_per_leaf).map(move |k| Session {
                    host: endpoint_id(leaf, k, false),
                    device: endpoint_id((leaf + 1) % leaves, k, true),
                })
            })
            .collect();

        FabricTopology {
            name: format!("leaf-spine {leaves}x{spines} ({pairs_per_leaf} pairs/leaf)"),
            endpoints,
            switches,
            trunks,
            trunk_classes: Vec::new(),
            layout: TopologyLayout::Irregular,
            sessions,
        }
    }

    /// A two-tier fat-tree with a dedicated host tier and device tier:
    /// `edges` host-side edge switches (each with `pairs_per_edge` hosts),
    /// `edges` device-side edge switches (each with `pairs_per_edge`
    /// devices), and `cores` core switches meshing the two tiers. Every
    /// session crosses host-edge → core → device-edge (three switching
    /// levels), the disaggregated-pool shape of the paper's introduction.
    pub fn fat_tree2(edges: usize, cores: usize, pairs_per_edge: usize) -> Self {
        assert!(edges >= 1 && cores >= 1 && pairs_per_edge >= 1);
        let edge_ports = pairs_per_edge + cores;
        // Switch order: host edges, device edges, cores.
        let mut switches: Vec<SwitchNode> = (0..2 * edges)
            .map(|_| SwitchNode { ports: edge_ports })
            .collect();
        switches.extend((0..cores).map(|_| SwitchNode { ports: 2 * edges }));

        let mut endpoints = Vec::new();
        for edge in 0..edges {
            for k in 0..pairs_per_edge {
                endpoints.push(EndpointNode {
                    role: NodeRole::Host,
                    switch: edge,
                    port: k,
                });
            }
        }
        for edge in 0..edges {
            for k in 0..pairs_per_edge {
                endpoints.push(EndpointNode {
                    role: NodeRole::Device,
                    switch: edges + edge,
                    port: k,
                });
            }
        }

        let mut trunks = Vec::new();
        for edge in 0..2 * edges {
            for core in 0..cores {
                trunks.push(TrunkLink {
                    a: (edge, pairs_per_edge + core),
                    b: (2 * edges + core, edge),
                });
            }
        }

        let hosts = edges * pairs_per_edge;
        let sessions = (0..hosts)
            .map(|h| Session {
                host: h,
                device: hosts + h,
            })
            .collect();

        FabricTopology {
            name: format!("fat-tree-2 {edges}+{edges}x{cores} ({pairs_per_edge} pairs/edge)"),
            endpoints,
            switches,
            trunks,
            trunk_classes: Vec::new(),
            layout: TopologyLayout::Irregular,
            sessions,
        }
    }

    /// A ring of `switches` switches, each carrying `pairs_per_switch`
    /// host/device pairs. Session `k` of switch `i` pairs that switch's host
    /// `k` with the device `k` of switch `(i + span) % switches`, so every
    /// session's shortest path crosses exactly `span + 1` switches —
    /// the generator to use when sweeping switching depth.
    pub fn ring(switches: usize, pairs_per_switch: usize, span: usize) -> Self {
        assert!(switches >= 3, "a ring needs at least three switches");
        assert!(pairs_per_switch >= 1);
        assert!(
            span <= switches / 2,
            "span beyond half the ring would not be the shortest path"
        );
        // Ports: 0 = clockwise trunk (to i+1), 1 = counter-clockwise trunk
        // (to i-1), then endpoint ports.
        let ports = 2 + 2 * pairs_per_switch;
        let switch_nodes: Vec<SwitchNode> = (0..switches).map(|_| SwitchNode { ports }).collect();

        let mut endpoints = Vec::new();
        for sw in 0..switches {
            for k in 0..pairs_per_switch {
                endpoints.push(EndpointNode {
                    role: NodeRole::Host,
                    switch: sw,
                    port: 2 + 2 * k,
                });
                endpoints.push(EndpointNode {
                    role: NodeRole::Device,
                    switch: sw,
                    port: 2 + 2 * k + 1,
                });
            }
        }

        let trunks: Vec<TrunkLink> = (0..switches)
            .map(|sw| TrunkLink {
                a: (sw, 0),
                b: ((sw + 1) % switches, 1),
            })
            .collect();
        // The single ring cycle is dimension 0; its wrap trunk
        // (switch n-1 ⇄ switch 0) is the dateline.
        let trunk_classes = (0..trunks.len())
            .map(|i| TrunkClass {
                dim: 0,
                dateline: i == switches - 1,
            })
            .collect();

        let endpoint_id = |sw: usize, k: usize, device: bool| {
            2 * (sw * pairs_per_switch + k) + usize::from(device)
        };
        let sessions = (0..switches)
            .flat_map(|sw| {
                (0..pairs_per_switch).map(move |k| Session {
                    host: endpoint_id(sw, k, false),
                    device: endpoint_id((sw + span) % switches, k, true),
                })
            })
            .collect();

        FabricTopology {
            name: format!("ring of {switches} (span {span}, {pairs_per_switch} pairs/switch)"),
            endpoints,
            switches: switch_nodes,
            trunks,
            trunk_classes,
            layout: TopologyLayout::Irregular,
            sessions,
        }
    }

    /// A 2-D torus (wrap-around grid) of `cols × rows` switches, each
    /// carrying `pairs_per_switch` host/device pairs. Switch `(r, c)` sits
    /// at index `r * cols + c`; ports 0/1 are the +x/−x trunks, 2/3 the
    /// +y/−y trunks, endpoints attach from port 4. Session `k` of switch
    /// `(r, c)` pairs its host with the device `k` of switch
    /// `((r + rows/2) % rows, (c + cols/2) % cols)` — the antipodal
    /// placement, so saturated workloads exercise full row *and* column
    /// cycles (the configuration that deadlocks without virtual channels).
    ///
    /// Each row's wrap trunk (col `cols-1` ⇄ col 0) is the dimension-0
    /// dateline; each column's wrap trunk (row `rows-1` ⇄ row 0) is the
    /// dimension-1 dateline.
    pub fn torus(cols: usize, rows: usize, pairs_per_switch: usize) -> Self {
        assert!(
            cols >= 3 && rows >= 3,
            "a torus needs at least 3 switches per dimension"
        );
        assert!(pairs_per_switch >= 1);
        let n = cols * rows;
        let ports = 4 + 2 * pairs_per_switch;
        let switch_nodes: Vec<SwitchNode> = (0..n).map(|_| SwitchNode { ports }).collect();

        let mut endpoints = Vec::new();
        for sw in 0..n {
            for k in 0..pairs_per_switch {
                endpoints.push(EndpointNode {
                    role: NodeRole::Host,
                    switch: sw,
                    port: 4 + 2 * k,
                });
                endpoints.push(EndpointNode {
                    role: NodeRole::Device,
                    switch: sw,
                    port: 4 + 2 * k + 1,
                });
            }
        }

        let at = |r: usize, c: usize| r * cols + c;
        let mut trunks = Vec::new();
        let mut trunk_classes = Vec::new();
        // x trunks: (r, c) +x ⇄ (r, c+1) −x; the column wrap is the
        // dimension-0 dateline of that row's cycle.
        for r in 0..rows {
            for c in 0..cols {
                trunks.push(TrunkLink {
                    a: (at(r, c), 0),
                    b: (at(r, (c + 1) % cols), 1),
                });
                trunk_classes.push(TrunkClass {
                    dim: 0,
                    dateline: c == cols - 1,
                });
            }
        }
        // y trunks: (r, c) +y ⇄ (r+1, c) −y; the row wrap is the
        // dimension-1 dateline of that column's cycle.
        for r in 0..rows {
            for c in 0..cols {
                trunks.push(TrunkLink {
                    a: (at(r, c), 2),
                    b: (at((r + 1) % rows, c), 3),
                });
                trunk_classes.push(TrunkClass {
                    dim: 1,
                    dateline: r == rows - 1,
                });
            }
        }

        let endpoint_id = |sw: usize, k: usize, device: bool| {
            2 * (sw * pairs_per_switch + k) + usize::from(device)
        };
        let sessions = (0..n)
            .flat_map(|sw| {
                let (r, c) = (sw / cols, sw % cols);
                let peer = at((r + rows / 2) % rows, (c + cols / 2) % cols);
                (0..pairs_per_switch).map(move |k| Session {
                    host: endpoint_id(sw, k, false),
                    device: endpoint_id(peer, k, true),
                })
            })
            .collect();

        FabricTopology {
            name: format!("torus {cols}x{rows} ({pairs_per_switch} pairs/switch)"),
            endpoints,
            switches: switch_nodes,
            trunks,
            trunk_classes,
            layout: TopologyLayout::Grid { cols, rows },
            sessions,
        }
    }

    /// A small dragonfly: `groups` groups of `group_size` fully-connected
    /// switches, one global trunk per group pair, `pairs_per_switch`
    /// host/device pairs on every switch. The global between groups `i` and
    /// `j` attaches at switch `j % group_size` of group `i` and switch
    /// `i % group_size` of group `j` (a deterministic gateway spread).
    /// Session `k` of switch `s` pairs its host with the device `k` of the
    /// same-position switch of the *next group*, so every session crosses
    /// exactly one global trunk.
    ///
    /// Every global trunk is a dateline: traffic that has entered its
    /// destination group rides escape VC 1 on the remaining local hop,
    /// keeping the local → global → local dependency chain acyclic. Escape
    /// routing (see `RoutingTable`) takes at most one global per path —
    /// longer global detours would put global trunks *after* a dateline
    /// crossing and reopen the cycle.
    pub fn dragonfly(groups: usize, group_size: usize, pairs_per_switch: usize) -> Self {
        assert!(groups >= 2, "a dragonfly needs at least two groups");
        assert!(
            group_size >= 2,
            "a dragonfly group needs at least two switches"
        );
        assert!(pairs_per_switch >= 1);
        let n = groups * group_size;
        let at = |g: usize, s: usize| g * group_size + s;

        // Trunk list: all locals (complete graph per group), then all
        // globals (one per group pair) — globals are the datelines.
        let mut trunk_ends: Vec<((usize, usize), bool)> = Vec::new();
        for g in 0..groups {
            for u in 0..group_size {
                for v in (u + 1)..group_size {
                    trunk_ends.push(((at(g, u), at(g, v)), false));
                }
            }
        }
        for i in 0..groups {
            for j in (i + 1)..groups {
                trunk_ends.push(((at(i, j % group_size), at(j, i % group_size)), true));
            }
        }

        // Assign trunk ports first (in trunk order), then endpoint ports.
        let mut next_port = vec![0usize; n];
        let mut trunks = Vec::new();
        let mut trunk_classes = Vec::new();
        for ((a, b), global) in trunk_ends {
            let pa = next_port[a];
            next_port[a] += 1;
            let pb = next_port[b];
            next_port[b] += 1;
            trunks.push(TrunkLink {
                a: (a, pa),
                b: (b, pb),
            });
            trunk_classes.push(TrunkClass {
                dim: 0,
                dateline: global,
            });
        }

        let mut endpoints = Vec::new();
        for (sw, port) in next_port.iter_mut().enumerate() {
            for _ in 0..pairs_per_switch {
                endpoints.push(EndpointNode {
                    role: NodeRole::Host,
                    switch: sw,
                    port: *port,
                });
                endpoints.push(EndpointNode {
                    role: NodeRole::Device,
                    switch: sw,
                    port: *port + 1,
                });
                *port += 2;
            }
        }
        let switch_nodes: Vec<SwitchNode> = next_port
            .iter()
            .map(|&ports| SwitchNode { ports })
            .collect();

        let endpoint_id = |sw: usize, k: usize, device: bool| {
            2 * (sw * pairs_per_switch + k) + usize::from(device)
        };
        let sessions = (0..n)
            .flat_map(|sw| {
                let peer = (sw + group_size) % n;
                (0..pairs_per_switch).map(move |k| Session {
                    host: endpoint_id(sw, k, false),
                    device: endpoint_id(peer, k, true),
                })
            })
            .collect();

        FabricTopology {
            name: format!("dragonfly {groups}x{group_size} ({pairs_per_switch} pairs/switch)"),
            endpoints,
            switches: switch_nodes,
            trunks,
            trunk_classes,
            layout: TopologyLayout::Dragonfly { groups, group_size },
            sessions,
        }
    }

    /// Virtual-channel class of trunk index `trunk`. Topologies built
    /// before (or without) VC metadata have an empty `trunk_classes` vec;
    /// every trunk then reports the default class (no dateline).
    pub fn trunk_class(&self, trunk: usize) -> TrunkClass {
        assert!(trunk < self.trunks.len(), "trunk out of range");
        self.trunk_classes.get(trunk).copied().unwrap_or_default()
    }

    /// Total number of endpoints.
    pub fn endpoint_count(&self) -> usize {
        self.endpoints.len()
    }

    /// Total number of switching devices.
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Number of host–device sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Total number of physical links: every endpoint attachment link plus
    /// every trunk.
    pub fn link_count(&self) -> usize {
        self.endpoints.len() + self.trunks.len()
    }

    /// The attachment link of endpoint `endpoint`.
    pub fn endpoint_link(&self, endpoint: usize) -> LinkId {
        assert!(endpoint < self.endpoints.len(), "endpoint out of range");
        LinkId(endpoint)
    }

    /// The link of trunk index `trunk` (position in [`Self::trunks`]).
    pub fn trunk_link(&self, trunk: usize) -> LinkId {
        assert!(trunk < self.trunks.len(), "trunk out of range");
        LinkId(self.endpoints.len() + trunk)
    }

    /// The trunk link connecting switches `a` and `b` (either orientation),
    /// if one exists — the natural way for a scenario to name "the leaf 0 →
    /// spine 0 uplink".
    pub fn trunk_between(&self, a: usize, b: usize) -> Option<LinkId> {
        self.trunks
            .iter()
            .position(|t| (t.a.0 == a && t.b.0 == b) || (t.a.0 == b && t.b.0 == a))
            .map(|i| self.trunk_link(i))
    }

    /// Human-readable description of a link, for scenario reports.
    pub fn describe_link(&self, link: LinkId) -> String {
        if link.0 < self.endpoints.len() {
            let ep = &self.endpoints[link.0];
            format!("{:?} endpoint {} ⇄ switch {}", ep.role, link.0, ep.switch)
        } else {
            let t = &self.trunks[link.0 - self.endpoints.len()];
            format!("trunk switch {} ⇄ switch {}", t.a.0, t.b.0)
        }
    }

    /// Checks structural invariants: ports in range, no port used twice, all
    /// session endpoints valid with host/device roles. Panics with a
    /// description on violation; generator unit tests and `FabricSim::new`
    /// call this so malformed topologies fail fast.
    pub fn validate(&self) {
        let mut used = std::collections::HashSet::new();
        for (i, ep) in self.endpoints.iter().enumerate() {
            assert!(ep.switch < self.switches.len(), "endpoint {i}: bad switch");
            assert!(
                ep.port < self.switches[ep.switch].ports,
                "endpoint {i}: port out of range"
            );
            assert!(
                used.insert((ep.switch, ep.port)),
                "endpoint {i}: port {:?} already used",
                (ep.switch, ep.port)
            );
        }
        for (i, t) in self.trunks.iter().enumerate() {
            for (sw, port) in [t.a, t.b] {
                assert!(sw < self.switches.len(), "trunk {i}: bad switch");
                assert!(
                    port < self.switches[sw].ports,
                    "trunk {i}: port out of range"
                );
                assert!(
                    used.insert((sw, port)),
                    "trunk {i}: port {:?} already used",
                    (sw, port)
                );
            }
        }
        assert!(
            self.trunk_classes.is_empty() || self.trunk_classes.len() == self.trunks.len(),
            "trunk_classes must be empty or parallel to trunks"
        );
        for (i, s) in self.sessions.iter().enumerate() {
            assert!(
                s.host < self.endpoints.len() && s.device < self.endpoints.len(),
                "session {i}: endpoint out of range"
            );
            assert_eq!(
                self.endpoints[s.host].role,
                NodeRole::Host,
                "session {i}: host side is not a host"
            );
            assert_eq!(
                self.endpoints[s.device].role,
                NodeRole::Device,
                "session {i}: device side is not a device"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_spine_shape() {
        let t = FabricTopology::leaf_spine(3, 2, 2);
        t.validate();
        assert_eq!(t.switch_count(), 5);
        assert_eq!(t.endpoint_count(), 12);
        assert_eq!(t.session_count(), 6);
        assert_eq!(t.trunks.len(), 6);
        // Sessions cross leaves.
        for s in &t.sessions {
            assert_ne!(
                t.endpoints[s.host].switch, t.endpoints[s.device].switch,
                "leaf-spine sessions must cross leaves"
            );
        }
    }

    #[test]
    fn fat_tree2_shape() {
        let t = FabricTopology::fat_tree2(2, 2, 3);
        t.validate();
        assert_eq!(t.switch_count(), 6);
        assert_eq!(t.endpoint_count(), 12);
        assert_eq!(t.session_count(), 6);
        assert_eq!(t.trunks.len(), 8);
        // Hosts live on the host tier, devices on the device tier.
        for s in &t.sessions {
            assert!(t.endpoints[s.host].switch < 2);
            assert!((2..4).contains(&t.endpoints[s.device].switch));
        }
    }

    #[test]
    fn ring_shape_and_span() {
        let t = FabricTopology::ring(6, 1, 2);
        t.validate();
        assert_eq!(t.switch_count(), 6);
        assert_eq!(t.endpoint_count(), 12);
        assert_eq!(t.trunks.len(), 6);
        for s in &t.sessions {
            let a = t.endpoints[s.host].switch;
            let b = t.endpoints[s.device].switch;
            assert_eq!((a + 2) % 6, b);
        }
    }

    #[test]
    fn ring_span_zero_keeps_sessions_local() {
        let t = FabricTopology::ring(3, 2, 0);
        t.validate();
        for s in &t.sessions {
            assert_eq!(t.endpoints[s.host].switch, t.endpoints[s.device].switch);
        }
    }

    #[test]
    #[should_panic]
    fn ring_rejects_over_half_spans() {
        let _ = FabricTopology::ring(4, 1, 3);
    }

    #[test]
    fn ring_marks_one_dateline_on_the_wrap_trunk() {
        let t = FabricTopology::ring(6, 1, 2);
        let datelines: Vec<usize> = (0..t.trunks.len())
            .filter(|&i| t.trunk_class(i).dateline)
            .collect();
        assert_eq!(datelines, [5], "exactly the wrap trunk is the dateline");
        assert!((0..t.trunks.len()).all(|i| t.trunk_class(i).dim == 0));
        // Topologies without VC metadata report the default class.
        let ls = FabricTopology::leaf_spine(2, 2, 1);
        assert!(ls.trunk_classes.is_empty());
        assert_eq!(ls.trunk_class(0), TrunkClass::default());
        assert_eq!(ls.layout, TopologyLayout::Irregular);
    }

    #[test]
    fn torus_shape_and_datelines() {
        let t = FabricTopology::torus(3, 4, 1);
        t.validate();
        assert_eq!(t.switch_count(), 12);
        assert_eq!(t.endpoint_count(), 24);
        assert_eq!(t.trunks.len(), 24, "2 trunks per switch in a 2-D torus");
        assert_eq!(t.layout, TopologyLayout::Grid { cols: 3, rows: 4 });
        // One dateline per row cycle (dim 0) and per column cycle (dim 1).
        let d0 = (0..t.trunks.len())
            .filter(|&i| t.trunk_class(i).dateline && t.trunk_class(i).dim == 0)
            .count();
        let d1 = (0..t.trunks.len())
            .filter(|&i| t.trunk_class(i).dateline && t.trunk_class(i).dim == 1)
            .count();
        assert_eq!((d0, d1), (4, 3));
        // Antipodal sessions cross both dimensions.
        for s in &t.sessions {
            let (a, b) = (t.endpoints[s.host].switch, t.endpoints[s.device].switch);
            assert_ne!(a / 3, b / 3, "sessions must cross rows");
            assert_ne!(a % 3, b % 3, "sessions must cross columns");
        }
    }

    #[test]
    fn dragonfly_shape_globals_are_datelines() {
        let t = FabricTopology::dragonfly(3, 2, 1);
        t.validate();
        assert_eq!(t.switch_count(), 6);
        // Locals: 1 per group × 3 groups; globals: C(3,2) = 3.
        assert_eq!(t.trunks.len(), 6);
        let datelines = (0..t.trunks.len())
            .filter(|&i| t.trunk_class(i).dateline)
            .count();
        assert_eq!(datelines, 3, "every global trunk is a dateline");
        // Each session crosses into another group.
        for s in &t.sessions {
            let (a, b) = (t.endpoints[s.host].switch, t.endpoints[s.device].switch);
            assert_ne!(a / 2, b / 2, "dragonfly sessions must cross groups");
        }
    }
}
