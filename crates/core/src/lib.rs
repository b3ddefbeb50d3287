//! Software PCIe device pooling over CXL memory pools — the paper's
//! contribution.
//!
//! A CXL pod's hosts can all reach the same pool memory, and so can
//! every PCIe device attached to any of those hosts (via its attach
//! host's DMA path). This crate turns that observation into a device
//! pool:
//!
//! - **Datapath** ([`proto`], [`vdev`], [`agent`]): I/O buffers live in
//!   shared pool segments; a host using a *remote* device writes its
//!   buffers with software coherence and forwards the MMIO part of the
//!   operation (doorbells, queue submissions) over a sub-microsecond
//!   shared-memory channel to the device's attach host, where a pooling
//!   agent executes it and returns a completion.
//! - **Pooling orchestrator** ([`orchestrator`]): allocates devices to
//!   hosts (local-first below a load threshold, else least-utilized),
//!   learns of dead devices from agents' `DevFailed` notices, migrates
//!   load, and fails affected hosts over to surviving devices.
//! - **Assembly** ([`pod`]): [`pod::PodSim`] wires fabric, devices,
//!   agents, channels, and orchestrator into one simulated rack you can
//!   drive from tests, examples, and benches.
//! - **Tenant lifecycle** ([`lifecycle`]): provision/migrate/release a
//!   whole tenant's device bindings and pool state — the §4.2
//!   orchestrator's churn response, generalizing connection migration.
//! - **§5 extensions** ([`striping`], [`accelpool`], [`torless`],
//!   [`migration`]): storage striping across pooled SSDs, 1:16
//!   accelerator disaggregation, ToR-less availability modelling, and
//!   TCP-connection migration between pooled NICs.

#![warn(missing_docs)]

pub mod accelpool;
pub mod agent;
pub mod bonding;
pub mod lifecycle;
pub mod migration;
pub mod orchestrator;
pub mod pod;
pub mod proto;
pub mod striping;
pub mod telemetry;
pub mod torless;
pub mod vdev;

pub use lifecycle::{LifecycleStats, TenantMigrationReport, TenantState};
pub use orchestrator::{AllocPolicy, Orchestrator};
pub use pod::{AdvanceStats, PodParams, PodSim};
pub use proto::Msg;
pub use striping::{Replica, ReplicaSet, StripedVolume};
pub use vdev::{DeviceKind, VirtualDevice};
