//! Software-coherent shared-memory structures on non-coherent CXL pools.
//!
//! The paper's key datapath building block (§4.1) is a sub-microsecond
//! host-to-host message channel living in shared CXL memory: a ring
//! buffer of 64 B cache-line slots, written with non-temporal stores so
//! data is visible across hosts without hardware coherence, and polled
//! by the receiver with invalidate-then-load so reads are fresh.
//!
//! This crate implements that channel twice:
//!
//! - [`ring`], [`channel`]: over the simulated [`cxl_fabric::Fabric`],
//!   with full timing — this is what the Figure 4 reproduction and the
//!   MMIO-forwarding datapath use.
//! - [`real`]: over actual process memory with atomics, byte-identical
//!   protocol, runnable across real threads — this is how we prove the
//!   protocol has no ordering bugs that the (deterministic, sequential)
//!   simulator could hide.
//!
//! Plus the control-plane primitives built from the same discipline:
//! [`mailbox`] (latest-value register) and heartbeat tables.
//!
//! # Examples
//!
//! ```
//! use cxl_fabric::{Fabric, PodConfig, HostId};
//! use shmem::ring::{RingBuf, SendOutcome, PollOutcome};
//! use simkit::Nanos;
//!
//! let mut fabric = Fabric::new(PodConfig::new(2, 2, 2));
//! let ring = RingBuf::allocate(&mut fabric, HostId(0), HostId(1), 16).unwrap();
//! let (mut tx, mut rx) = ring.split();
//!
//! let t = match tx.send(&mut fabric, Nanos(0), b"hello").unwrap() {
//!     SendOutcome::Sent(t) => t,
//!     SendOutcome::Full(_) => unreachable!(),
//! };
//! match rx.poll(&mut fabric, t).unwrap() {
//!     PollOutcome::Msg { data, .. } => assert_eq!(data, b"hello"),
//!     PollOutcome::Empty(_) => unreachable!(),
//! }
//! ```

pub mod channel;
pub mod mailbox;
pub mod pingpong;
pub mod real;
pub mod ring;
pub mod seqlock;

pub use channel::{
    plan_idle_passes, skip_idle_passes, Channel, ChannelReceiver, ChannelSend, ChannelSender,
    ChannelStats,
};
pub use mailbox::{HeartbeatTable, Mailbox};
pub use ring::{PollCost, PollOutcome, RingBuf, RingReceiver, RingSender, SendOutcome};
