//! Fabric error type.

use core::fmt;

use crate::topology::{DomainId, HostId, LinkId, MhdId};

/// Errors returned by fabric operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FabricError {
    /// The address is not covered by any allocated segment.
    Unmapped {
        /// Offending pool address.
        hpa: u64,
    },
    /// The host is not entitled to access the segment covering this
    /// address.
    AccessDenied {
        /// The host that attempted the access.
        host: HostId,
        /// Offending pool address.
        hpa: u64,
    },
    /// The access covers no bytes (an empty buffer or payload).
    EmptyAccess {
        /// Pool address of the empty access.
        hpa: u64,
    },
    /// The access straddles the end of its segment.
    OutOfBounds {
        /// Offending pool address.
        hpa: u64,
        /// Access length in bytes.
        len: u64,
    },
    /// No surviving path between the host and the MHD backing the
    /// address (all λ redundant links or the MHD itself failed).
    NoPath {
        /// The requesting host.
        host: HostId,
        /// The unreachable device.
        mhd: MhdId,
    },
    /// The pool has no free capacity for the requested allocation.
    OutOfCapacity {
        /// Requested bytes.
        requested: u64,
        /// Bytes currently free.
        free: u64,
    },
    /// A topology reference was invalid (unknown host/MHD/link).
    UnknownEntity(String),
    /// No MHD is reachable by every host that must share the segment.
    NoCommonMhd {
        /// The hosts that needed a common device.
        hosts: Vec<HostId>,
    },
    /// The referenced link is administratively or physically down.
    LinkDown(LinkId),
    /// The placement pinned the segment to a failure domain with no
    /// up MHD reachable by every owner.
    DomainDown(DomainId),
    /// A striped/replicated placement asked for more distinct failure
    /// domains than the owners can currently reach together.
    InsufficientDomains {
        /// Domains the placement required.
        wanted: usize,
        /// Distinct domains actually reachable by every owner.
        available: usize,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Unmapped { hpa } => write!(f, "address {hpa:#x} is not mapped"),
            FabricError::AccessDenied { host, hpa } => {
                write!(f, "host {host:?} may not access {hpa:#x}")
            }
            FabricError::EmptyAccess { hpa } => write!(f, "empty access at {hpa:#x}"),
            FabricError::OutOfBounds { hpa, len } => {
                write!(f, "access at {hpa:#x} len {len} exceeds segment bounds")
            }
            FabricError::NoPath { host, mhd } => {
                write!(f, "no surviving path from {host:?} to {mhd:?}")
            }
            FabricError::OutOfCapacity { requested, free } => {
                write!(f, "pool exhausted: requested {requested} B, free {free} B")
            }
            FabricError::UnknownEntity(what) => write!(f, "unknown entity: {what}"),
            FabricError::NoCommonMhd { hosts } => {
                write!(f, "no MHD reachable by all of {hosts:?}")
            }
            FabricError::LinkDown(id) => write!(f, "link {id:?} is down"),
            FabricError::DomainDown(d) => {
                write!(f, "failure domain {d:?} has no reachable up MHD")
            }
            FabricError::InsufficientDomains { wanted, available } => {
                write!(
                    f,
                    "placement needs {wanted} failure domains, owners reach {available}"
                )
            }
        }
    }
}

impl std::error::Error for FabricError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = FabricError::Unmapped { hpa: 0x1000 };
        assert!(e.to_string().contains("0x1000"));
        let e = FabricError::OutOfCapacity {
            requested: 10,
            free: 5,
        };
        assert!(e.to_string().contains("requested 10"));
    }
}
