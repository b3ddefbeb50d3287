//! Wire format of pooling control messages.
//!
//! Every message fits one ring fragment (≤ 52 bytes) so the common case
//! — one doorbell forward — costs exactly one non-temporal store on the
//! sender and one load on the receiver. Encoding is a hand-rolled
//! little-endian TLV: `[kind: u8][fields…]`; no self-describing overhead.

use cxl_fabric::HostId;
use pcie_sim::DeviceId;

use crate::vdev::DeviceKind;

/// One request to a PCIe device, whatever its kind. The owner runs it
/// on a local device or forwards it to the attach host as
/// [`Msg::Submit`]; either way [`crate::agent::Agent::execute`] carries
/// it out. Buffers are pool addresses staged by the owner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DevReq {
    /// NIC transmit of `len` bytes from `buf`.
    Tx {
        /// Pool address of the TX payload.
        buf: u64,
        /// Payload length.
        len: u32,
    },
    /// NIC RX buffer post.
    RxPost {
        /// Pool address of the RX buffer.
        buf: u64,
        /// Buffer capacity.
        len: u32,
    },
    /// NVMe read of `blocks` blocks from `lba` into `buf`.
    SsdRead {
        /// Starting logical block.
        lba: u64,
        /// Block count.
        blocks: u32,
        /// Destination pool buffer.
        buf: u64,
    },
    /// NVMe write of `blocks` blocks at `lba` from `buf`.
    SsdWrite {
        /// Starting logical block.
        lba: u64,
        /// Block count.
        blocks: u32,
        /// Source pool buffer.
        buf: u64,
    },
    /// Accelerator job over `len` bytes of `inbuf`, output to `outbuf`.
    Accel {
        /// Input pool buffer.
        inbuf: u64,
        /// Input length.
        len: u32,
        /// Output pool buffer.
        outbuf: u64,
    },
}

impl DevReq {
    /// The kind of device that serves this request.
    pub fn kind(&self) -> DeviceKind {
        match self {
            DevReq::Tx { .. } | DevReq::RxPost { .. } => DeviceKind::Nic,
            DevReq::SsdRead { .. } | DevReq::SsdWrite { .. } => DeviceKind::Ssd,
            DevReq::Accel { .. } => DeviceKind::Accel,
        }
    }

    /// Wire tag and layout after the `[tag][op][dev]` header: a u64, a
    /// u32 and, for SSD and accelerator requests, a trailing u64.
    fn wire(&self) -> (u8, u64, u32, Option<u64>) {
        match *self {
            DevReq::Tx { buf, len } => (1, buf, len, None),
            DevReq::RxPost { buf, len } => (2, buf, len, None),
            DevReq::SsdRead { lba, blocks, buf } => (3, lba, blocks, Some(buf)),
            DevReq::SsdWrite { lba, blocks, buf } => (4, lba, blocks, Some(buf)),
            DevReq::Accel { inbuf, len, outbuf } => (5, inbuf, len, Some(outbuf)),
        }
    }
}

/// A pooling control message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Msg {
    /// A device request forwarded to the device's attach host.
    Submit {
        /// Operation id for completion matching.
        op: u64,
        /// Target device.
        dev: DeviceId,
        /// What the device is to do.
        req: DevReq,
    },
    /// Completion of a forwarded operation.
    Done {
        /// Operation id being completed.
        op: u64,
        /// 0 = success; nonzero maps to a device error class.
        status: u8,
        /// Device-reported completion time (ns).
        at: u64,
    },
    /// Agent → orchestrator: a local device failed.
    DevFailed {
        /// The failed device.
        dev: DeviceId,
        /// Detection time (ns).
        at: u64,
    },
    /// Orchestrator → agent: (re)assign `host`'s device of this kind.
    Assign {
        /// The host whose binding changes.
        host: HostId,
        /// Device kind discriminant (see [`crate::vdev::DeviceKind`]).
        kind: u8,
        /// The newly assigned device.
        dev: DeviceId,
    },
    /// Agent → orchestrator: periodic load report (0-100).
    HostLoad {
        /// Reporting host.
        host: HostId,
        /// Aggregate device load percentage.
        load: u8,
    },
    /// Agent → orchestrator: per-device load report (0-100).
    DevLoad {
        /// The device being reported.
        dev: DeviceId,
        /// Load percentage.
        load: u8,
    },
    /// Attach agent → buffer owner: a frame landed in your RX buffer.
    RxDone {
        /// Pool address of the filled buffer.
        buf: u64,
        /// Frame length.
        len: u32,
        /// Time the DMA write was visible (ns).
        at: u64,
    },
}

/// Errors from [`Msg::decode`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer was shorter than the fixed layout for its kind.
    Truncated,
    /// Unknown kind byte.
    BadKind(u8),
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "message truncated"),
            DecodeError::BadKind(k) => write!(f, "unknown message kind {k}"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Result<u8, DecodeError> {
        let v = *self.buf.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(v)
    }
    fn u16(&mut self) -> Result<u16, DecodeError> {
        let s = self
            .buf
            .get(self.pos..self.pos + 2)
            .ok_or(DecodeError::Truncated)?;
        self.pos += 2;
        Ok(u16::from_le_bytes(s.try_into().expect("2 bytes")))
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        let s = self
            .buf
            .get(self.pos..self.pos + 4)
            .ok_or(DecodeError::Truncated)?;
        self.pos += 4;
        Ok(u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        let s = self
            .buf
            .get(self.pos..self.pos + 8)
            .ok_or(DecodeError::Truncated)?;
        self.pos += 8;
        Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }
}

impl Msg {
    /// Stable short name of the message kind (used as the trace
    /// annotation on `proto/encode` events).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Msg::Submit { req, .. } => match req {
                DevReq::Tx { .. } => "TxSubmit",
                DevReq::RxPost { .. } => "RxPost",
                DevReq::SsdRead { .. } => "SsdRead",
                DevReq::SsdWrite { .. } => "SsdWrite",
                DevReq::Accel { .. } => "AccelRun",
            },
            Msg::Done { .. } => "Done",
            Msg::DevFailed { .. } => "DevFailed",
            Msg::Assign { .. } => "Assign",
            Msg::HostLoad { .. } => "HostLoad",
            Msg::DevLoad { .. } => "DevLoad",
            Msg::RxDone { .. } => "RxDone",
        }
    }

    /// Serializes to bytes (≤ 30 for every variant).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(30);
        match *self {
            Msg::Submit { op, dev, req } => {
                let (tag, a, b, c) = req.wire();
                out.push(tag);
                put_u64(&mut out, op);
                put_u32(&mut out, dev.0);
                put_u64(&mut out, a);
                put_u32(&mut out, b);
                if let Some(c) = c {
                    put_u64(&mut out, c);
                }
            }
            Msg::Done { op, status, at } => {
                out.push(6);
                put_u64(&mut out, op);
                out.push(status);
                put_u64(&mut out, at);
            }
            Msg::DevFailed { dev, at } => {
                out.push(7);
                put_u32(&mut out, dev.0);
                put_u64(&mut out, at);
            }
            Msg::Assign { host, kind, dev } => {
                out.push(8);
                put_u16(&mut out, host.0);
                out.push(kind);
                put_u32(&mut out, dev.0);
            }
            Msg::HostLoad { host, load } => {
                out.push(9);
                put_u16(&mut out, host.0);
                out.push(load);
            }
            Msg::DevLoad { dev, load } => {
                out.push(10);
                put_u32(&mut out, dev.0);
                out.push(load);
            }
            Msg::RxDone { buf, len, at } => {
                out.push(11);
                put_u64(&mut out, buf);
                put_u32(&mut out, len);
                put_u64(&mut out, at);
            }
        }
        out
    }

    /// Parses a message from bytes.
    pub fn decode(buf: &[u8]) -> Result<Msg, DecodeError> {
        let mut r = Reader { buf, pos: 0 };
        let kind = r.u8()?;
        Ok(match kind {
            1..=5 => {
                let (op, dev) = (r.u64()?, DeviceId(r.u32()?));
                let (a, b) = (r.u64()?, r.u32()?);
                let req = match kind {
                    1 => DevReq::Tx { buf: a, len: b },
                    2 => DevReq::RxPost { buf: a, len: b },
                    3 => DevReq::SsdRead {
                        lba: a,
                        blocks: b,
                        buf: r.u64()?,
                    },
                    4 => DevReq::SsdWrite {
                        lba: a,
                        blocks: b,
                        buf: r.u64()?,
                    },
                    _ => DevReq::Accel {
                        inbuf: a,
                        len: b,
                        outbuf: r.u64()?,
                    },
                };
                Msg::Submit { op, dev, req }
            }
            6 => Msg::Done {
                op: r.u64()?,
                status: r.u8()?,
                at: r.u64()?,
            },
            7 => Msg::DevFailed {
                dev: DeviceId(r.u32()?),
                at: r.u64()?,
            },
            8 => Msg::Assign {
                host: HostId(r.u16()?),
                kind: r.u8()?,
                dev: DeviceId(r.u32()?),
            },
            9 => Msg::HostLoad {
                host: HostId(r.u16()?),
                load: r.u8()?,
            },
            10 => Msg::DevLoad {
                dev: DeviceId(r.u32()?),
                load: r.u8()?,
            },
            11 => Msg::RxDone {
                buf: r.u64()?,
                len: r.u32()?,
                at: r.u64()?,
            },
            k => return Err(DecodeError::BadKind(k)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn all_variants() -> Vec<Msg> {
        vec![
            Msg::Submit {
                op: 1,
                dev: DeviceId(2),
                req: DevReq::Tx {
                    buf: 0xDEAD_BEEF,
                    len: 1500,
                },
            },
            Msg::Submit {
                op: 2,
                dev: DeviceId(3),
                req: DevReq::RxPost {
                    buf: 0x1000,
                    len: 2048,
                },
            },
            Msg::Submit {
                op: 3,
                dev: DeviceId(4),
                req: DevReq::SsdRead {
                    lba: 77,
                    blocks: 8,
                    buf: 0x2000,
                },
            },
            Msg::Submit {
                op: 4,
                dev: DeviceId(5),
                req: DevReq::SsdWrite {
                    lba: 99,
                    blocks: 1,
                    buf: 0x3000,
                },
            },
            Msg::Submit {
                op: 5,
                dev: DeviceId(6),
                req: DevReq::Accel {
                    inbuf: 0x4000,
                    len: 4096,
                    outbuf: 0x5000,
                },
            },
            Msg::Done {
                op: 6,
                status: 0,
                at: 123_456,
            },
            Msg::DevFailed {
                dev: DeviceId(7),
                at: 42,
            },
            Msg::Assign {
                host: HostId(3),
                kind: 1,
                dev: DeviceId(8),
            },
            Msg::HostLoad {
                host: HostId(2),
                load: 85,
            },
            Msg::DevLoad {
                dev: DeviceId(9),
                load: 61,
            },
            Msg::RxDone {
                buf: 0x7000,
                len: 1500,
                at: 987_654,
            },
        ]
    }

    #[test]
    fn every_variant_roundtrips() {
        for m in all_variants() {
            let bytes = m.encode();
            let back = Msg::decode(&bytes).expect("decode");
            assert_eq!(back, m);
        }
    }

    #[test]
    fn every_variant_fits_one_fragment() {
        for m in all_variants() {
            assert!(
                m.encode().len() <= 52,
                "{m:?} is {} bytes",
                m.encode().len()
            );
        }
    }

    #[test]
    fn truncated_buffers_error_not_panic() {
        for m in all_variants() {
            let bytes = m.encode();
            for cut in 0..bytes.len() {
                assert_eq!(Msg::decode(&bytes[..cut]), Err(DecodeError::Truncated));
            }
        }
    }

    #[test]
    fn request_wire_layout_is_pinned() {
        // `[tag][op u64][dev u32][u64][u32]`, plus a trailing u64 for SSD
        // and accelerator requests; little-endian, fields in this order.
        const OP: [u8; 8] = [0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01];
        const DEV: [u8; 4] = [0x54, 0x53, 0x52, 0x51];
        const A: [u8; 8] = [0x28, 0x27, 0x26, 0x25, 0x24, 0x23, 0x22, 0x21];
        const B: [u8; 4] = [0x34, 0x33, 0x32, 0x31];
        const C: [u8; 8] = [0x48, 0x47, 0x46, 0x45, 0x44, 0x43, 0x42, 0x41];
        let (a, b, c) = (0x2122_2324_2526_2728, 0x3132_3334, 0x4142_4344_4546_4748);
        let cases = [
            (DevReq::Tx { buf: a, len: b }, 1, "TxSubmit", false),
            (DevReq::RxPost { buf: a, len: b }, 2, "RxPost", false),
            (
                DevReq::SsdRead {
                    lba: a,
                    blocks: b,
                    buf: c,
                },
                3,
                "SsdRead",
                true,
            ),
            (
                DevReq::SsdWrite {
                    lba: a,
                    blocks: b,
                    buf: c,
                },
                4,
                "SsdWrite",
                true,
            ),
            (
                DevReq::Accel {
                    inbuf: a,
                    len: b,
                    outbuf: c,
                },
                5,
                "AccelRun",
                true,
            ),
        ];
        for (req, tag, name, tail) in cases {
            let m = Msg::Submit {
                op: 0x0102_0304_0506_0708,
                dev: DeviceId(0x5152_5354),
                req,
            };
            let mut want = [&[tag][..], &OP, &DEV, &A, &B].concat();
            if tail {
                want.extend_from_slice(&C);
            }
            assert_eq!(m.encode(), want, "{name}");
            assert_eq!(m.kind_name(), name);
        }
    }

    #[test]
    fn unknown_kind_rejected() {
        assert_eq!(Msg::decode(&[200, 0, 0]), Err(DecodeError::BadKind(200)));
        assert_eq!(Msg::decode(&[0]), Err(DecodeError::BadKind(0)));
    }

    proptest! {
        #[test]
        fn tx_submit_roundtrips(op in any::<u64>(), dev in any::<u32>(),
                                buf in any::<u64>(), len in any::<u32>()) {
            let m = Msg::Submit { op, dev: DeviceId(dev), req: DevReq::Tx { buf, len } };
            prop_assert_eq!(Msg::decode(&m.encode()).unwrap(), m);
        }

        #[test]
        fn done_roundtrips(op in any::<u64>(), status in any::<u8>(), at in any::<u64>()) {
            let m = Msg::Done { op, status, at };
            prop_assert_eq!(Msg::decode(&m.encode()).unwrap(), m);
        }

        #[test]
        fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = Msg::decode(&bytes);
        }
    }
}
