//! The versioned, length-prefixed binary wire protocol.
//!
//! Every frame on a fleet connection is:
//!
//! ```text
//! offset  size  field
//!      0     4  magic      0x4455_4650 ("DUFP", big-endian bytes)
//!      4     2  version    protocol version (little-endian), currently 2
//!      6     1  frame type (see [`FrameType`])
//!      7     1  reserved   must be 0
//!      8     4  payload length N (little-endian; at most MAX_PAYLOAD)
//!     12     N  payload    frame-specific fields, little-endian
//!   12+N     4  CRC-32     over bytes [4, 12+N) — everything but the magic
//! ```
//!
//! The CRC is the same IEEE 802.3 polynomial the experiment journal uses
//! ([`dufp_journal::crc32`]), so a frame hexdump is checkable with the same
//! standard tools. Strings are `u16` length-prefixed UTF-8; floats are
//! `f64::to_le_bytes`. Decoding never panics: bad magic, a torn frame, a
//! flipped bit, an unknown frame type or an oversized length each produce a
//! typed [`Error`] the peer can log and survive.

use dufp_journal::crc32;
use dufp_types::{Error, Result, Watts};
use std::io::{Read, Write};

/// Frame magic: the ASCII bytes `DUFP`.
pub const MAGIC: [u8; 4] = *b"DUFP";

/// Protocol version spoken by this build. Version 2 added the coordination
/// term (fencing token) to `Hello`/`BudgetGrant`/`Heartbeat` and the
/// `Handover` frame for planned coordinator succession.
pub const VERSION: u16 = 2;

/// Upper bound on a frame payload; anything larger is corruption (or an
/// attack) and is rejected before allocation.
pub const MAX_PAYLOAD: u32 = 64 * 1024;

/// Fixed header size (magic + version + type + reserved + length).
pub const HEADER_LEN: usize = 12;

/// Frame discriminants as they appear on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Agent → coordinator: introduce a node.
    Hello = 1,
    /// Agent → coordinator: per-epoch demand observation.
    DemandReport = 2,
    /// Coordinator → agent: a new budget ceiling.
    BudgetGrant = 3,
    /// Agent → coordinator: liveness beacon.
    Heartbeat = 4,
    /// Either direction: clean departure.
    Goodbye = 5,
    /// Coordinator → agent: planned succession — reconnect to the named
    /// successor, which will grant under the announced term.
    Handover = 6,
}

impl FrameType {
    fn from_u8(v: u8) -> Result<Self> {
        match v {
            1 => Ok(FrameType::Hello),
            2 => Ok(FrameType::DemandReport),
            3 => Ok(FrameType::BudgetGrant),
            4 => Ok(FrameType::Heartbeat),
            5 => Ok(FrameType::Goodbye),
            6 => Ok(FrameType::Handover),
            other => Err(Error::Corruption(format!("unknown frame type {other}"))),
        }
    }

    /// The largest payload this frame type can legitimately carry. Only
    /// [`FrameType::Hello`] has variable-length fields (two strings); every
    /// other frame is fixed-size, so a hostile peer cannot pad a heartbeat
    /// out to [`MAX_PAYLOAD`] and make every receiver buffer it.
    pub fn max_payload(self) -> u32 {
        match self {
            // str(node) + floor + node_max + str(app) + term; bounded by
            // the frame-wide ceiling.
            FrameType::Hello => MAX_PAYLOAD,
            // seq(8) + ceiling(8) + consumption(8) + active(1)
            FrameType::DemandReport => 25,
            // epoch(8) + ceiling(8) + kind(1) + term(8)
            FrameType::BudgetGrant => 25,
            // seq(8) + term(8)
            FrameType::Heartbeat => 16,
            FrameType::Goodbye => 0,
            // str(successor) bounded to 1 KiB + term(8); an address, not
            // a document.
            FrameType::Handover => 2 + 1024 + 8,
        }
    }
}

/// Why a coordinator moved a node's ceiling (the wire form of the
/// telemetry reasons).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum GrantKind {
    /// The ceiling rose (or is the node's first allocation).
    Raise = 0,
    /// The ceiling shrank to fund other nodes or fit the budget.
    Shrink = 1,
}

impl GrantKind {
    fn from_u8(v: u8) -> Result<Self> {
        match v {
            0 => Ok(GrantKind::Raise),
            1 => Ok(GrantKind::Shrink),
            other => Err(Error::Corruption(format!("unknown grant kind {other}"))),
        }
    }
}

/// A decoded protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Agent → coordinator introduction.
    Hello {
        /// Human-readable node name (unique per fleet run is advisable,
        /// not enforced).
        node: String,
        /// The node's floor: the allocator never grants below it.
        floor: Watts,
        /// The node's silicon PL1: watts above it are unusable.
        node_max: Watts,
        /// The application (queue) the node is running, for reports.
        app: String,
        /// The highest coordination term the agent has seen (0 on a fresh
        /// start). A coordinator whose own term is lower knows a successor
        /// has taken over and fences itself.
        term: u64,
    },
    /// Agent → coordinator demand observation.
    DemandReport {
        /// The agent's report sequence number.
        seq: u64,
        /// The ceiling the agent currently enforces.
        ceiling: Watts,
        /// Average package power since the previous report.
        consumption: Watts,
        /// Whether the node still has work.
        active: bool,
    },
    /// Coordinator → agent ceiling update.
    BudgetGrant {
        /// The coordinator's allocator epoch.
        epoch: u64,
        /// The new ceiling the agent must enforce.
        ceiling: Watts,
        /// Whether this raises or shrinks the previous ceiling.
        kind: GrantKind,
        /// The granting coordinator's term. Agents apply grants only in
        /// `(term, epoch)` lexicographic order: a stale primary's grants
        /// are discarded once any higher term has been seen.
        term: u64,
    },
    /// Agent → coordinator liveness beacon.
    Heartbeat {
        /// Monotonic beacon sequence number.
        seq: u64,
        /// The highest coordination term the agent has seen.
        term: u64,
    },
    /// Clean departure (either direction).
    Goodbye,
    /// Coordinator → agent: planned succession. The agent should reconnect
    /// to `successor` immediately, skipping the disconnect grace window.
    Handover {
        /// Address (`host:port`) of the coordinator taking over.
        successor: String,
        /// The term the successor will grant under (the departing
        /// coordinator's term + 1); pre-fences the old term.
        term: u64,
    },
}

impl Frame {
    /// The frame's wire discriminant.
    pub fn frame_type(&self) -> FrameType {
        match self {
            Frame::Hello { .. } => FrameType::Hello,
            Frame::DemandReport { .. } => FrameType::DemandReport,
            Frame::BudgetGrant { .. } => FrameType::BudgetGrant,
            Frame::Heartbeat { .. } => FrameType::Heartbeat,
            Frame::Goodbye => FrameType::Goodbye,
            Frame::Handover { .. } => FrameType::Handover,
        }
    }

    /// Encodes the frame into a self-contained byte vector: the header,
    /// the payload written in place behind it, the length patched in and
    /// the CRC appended — one exactly sized allocation per frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HEADER_LEN + self.payload_len() + 4);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.push(self.frame_type() as u8);
        buf.push(0); // reserved
        buf.extend_from_slice(&[0; 4]); // payload length, patched below
        self.put_payload(&mut buf);
        let len = (buf.len() - HEADER_LEN) as u32;
        buf[8..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
        let crc = crc32(&buf[4..]);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// The payload's encoded size: the per-type bound for fixed-size
    /// frames, the (clamped) string lengths plus fixed fields otherwise.
    fn payload_len(&self) -> usize {
        let str_len = |s: &str| 2 + s.len().min(u16::MAX as usize);
        match self {
            Frame::Hello { node, app, .. } => str_len(node) + 16 + str_len(app) + 8,
            Frame::Handover { successor, .. } => str_len(successor) + 8,
            fixed => fixed.frame_type().max_payload() as usize,
        }
    }

    /// Appends the frame-specific payload fields to `p`.
    fn put_payload(&self, p: &mut Vec<u8>) {
        match self {
            Frame::Hello {
                node,
                floor,
                node_max,
                app,
                term,
            } => {
                put_str(p, node);
                p.extend_from_slice(&floor.value().to_le_bytes());
                p.extend_from_slice(&node_max.value().to_le_bytes());
                put_str(p, app);
                p.extend_from_slice(&term.to_le_bytes());
            }
            Frame::DemandReport {
                seq,
                ceiling,
                consumption,
                active,
            } => {
                p.extend_from_slice(&seq.to_le_bytes());
                p.extend_from_slice(&ceiling.value().to_le_bytes());
                p.extend_from_slice(&consumption.value().to_le_bytes());
                p.push(u8::from(*active));
            }
            Frame::BudgetGrant {
                epoch,
                ceiling,
                kind,
                term,
            } => {
                p.extend_from_slice(&epoch.to_le_bytes());
                p.extend_from_slice(&ceiling.value().to_le_bytes());
                p.push(*kind as u8);
                p.extend_from_slice(&term.to_le_bytes());
            }
            Frame::Heartbeat { seq, term } => {
                p.extend_from_slice(&seq.to_le_bytes());
                p.extend_from_slice(&term.to_le_bytes());
            }
            Frame::Goodbye => {}
            Frame::Handover { successor, term } => {
                put_str(p, successor);
                p.extend_from_slice(&term.to_le_bytes());
            }
        }
    }

    /// Decodes a frame from a complete byte buffer (header + payload +
    /// CRC). The inverse of [`Frame::encode`].
    pub fn decode(buf: &[u8]) -> Result<Frame> {
        if buf.len() < HEADER_LEN + 4 {
            return Err(Error::Corruption(format!(
                "frame truncated: {} bytes, need at least {}",
                buf.len(),
                HEADER_LEN + 4
            )));
        }
        let len = check_header(&buf[..HEADER_LEN])?;
        let want = HEADER_LEN + len as usize + 4;
        if buf.len() != want {
            return Err(Error::Corruption(format!(
                "frame truncated: {} bytes, header says {want}",
                buf.len()
            )));
        }
        let crc_at = HEADER_LEN + len as usize;
        let stored = u32::from_le_bytes([
            buf[crc_at],
            buf[crc_at + 1],
            buf[crc_at + 2],
            buf[crc_at + 3],
        ]);
        let computed = crc32(&buf[4..crc_at]);
        if stored != computed {
            return Err(Error::Corruption(format!(
                "frame CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            )));
        }
        let ty = FrameType::from_u8(buf[6])?;
        if len > ty.max_payload() {
            return Err(Error::FrameTooLarge {
                len: u64::from(len),
                max: ty.max_payload(),
            });
        }
        let mut r = Cursor::new(&buf[HEADER_LEN..crc_at]);
        let frame = match ty {
            FrameType::Hello => Frame::Hello {
                node: r.str_()?,
                floor: Watts(r.f64_()?),
                node_max: Watts(r.f64_()?),
                app: r.str_()?,
                term: r.u64_()?,
            },
            FrameType::DemandReport => Frame::DemandReport {
                seq: r.u64_()?,
                ceiling: Watts(r.f64_()?),
                consumption: Watts(r.f64_()?),
                active: r.u8_()? != 0,
            },
            FrameType::BudgetGrant => Frame::BudgetGrant {
                epoch: r.u64_()?,
                ceiling: Watts(r.f64_()?),
                kind: GrantKind::from_u8(r.u8_()?)?,
                term: r.u64_()?,
            },
            FrameType::Heartbeat => Frame::Heartbeat {
                seq: r.u64_()?,
                term: r.u64_()?,
            },
            FrameType::Goodbye => Frame::Goodbye,
            FrameType::Handover => Frame::Handover {
                successor: r.str_()?,
                term: r.u64_()?,
            },
        };
        r.finish()?;
        Ok(frame)
    }

    /// Writes the frame to a stream.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        w.write_all(&self.encode())?;
        Ok(())
    }

    /// Reads one frame from a stream.
    ///
    /// Returns `Ok(None)` on clean EOF at a frame boundary (the peer went
    /// away between frames). A torn frame, bad magic, a version mismatch,
    /// an oversized length or a CRC failure is a typed error; the caller
    /// decides whether to drop the connection.
    pub fn read_from<R: Read>(r: &mut R) -> Result<Option<Frame>> {
        let mut header = [0u8; HEADER_LEN];
        match r.read(&mut header)? {
            0 => return Ok(None),
            n => r.read_exact(&mut header[n..]).map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    Error::Corruption("frame truncated inside the header".into())
                } else {
                    Error::Io(e)
                }
            })?,
        }
        let len = check_header(&header)?;
        // When the type byte is recognisable, enforce its (much tighter)
        // per-type bound *before* allocating the payload buffer; unknown
        // types stay bounded by MAX_PAYLOAD and fail typed in decode.
        if let Ok(ty) = FrameType::from_u8(header[6]) {
            if len > ty.max_payload() {
                return Err(Error::FrameTooLarge {
                    len: u64::from(len),
                    max: ty.max_payload(),
                });
            }
        }
        let mut buf = vec![0u8; HEADER_LEN + len as usize + 4];
        buf[..HEADER_LEN].copy_from_slice(&header);
        r.read_exact(&mut buf[HEADER_LEN..]).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                Error::Corruption("frame truncated inside the payload".into())
            } else {
                Error::Io(e)
            }
        })?;
        Frame::decode(&buf).map(Some)
    }
}

/// Validates a frame header's magic, version and global length bound,
/// returning the payload length it announces.
fn check_header(header: &[u8]) -> Result<u32> {
    if header[0..4] != MAGIC {
        return Err(Error::Corruption("bad frame magic".into()));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(Error::Unsupported(
            "peer speaks a different dufp-net protocol version",
        ));
    }
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if len > MAX_PAYLOAD {
        return Err(Error::FrameTooLarge {
            len: u64::from(len),
            max: MAX_PAYLOAD,
        });
    }
    Ok(len)
}

fn put_str(p: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    p.extend_from_slice(&(len as u16).to_le_bytes());
    p.extend_from_slice(&bytes[..len]);
}

/// A bounds-checked payload reader; every under-read is a typed error,
/// never a panic.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.at..end];
                self.at = end;
                Ok(s)
            }
            None => Err(Error::Corruption(format!(
                "payload underrun: wanted {n} bytes at offset {} of {}",
                self.at,
                self.buf.len()
            ))),
        }
    }

    fn u8_(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u64_(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64_(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64_()?))
    }

    fn str_(&mut self) -> Result<String> {
        let b = self.take(2)?;
        let len = u16::from_le_bytes([b[0], b[1]]) as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| Error::Corruption("payload string is not UTF-8".into()))
    }

    fn finish(&self) -> Result<()> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(Error::Corruption(format!(
                "{} trailing byte(s) after the payload",
                self.buf.len() - self.at
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn samples() -> Vec<Frame> {
        vec![
            Frame::Hello {
                node: "node-3".into(),
                floor: Watts(65.0),
                node_max: Watts(125.0),
                app: "CG+EP".into(),
                term: 2,
            },
            Frame::DemandReport {
                seq: 17,
                ceiling: Watts(105.0),
                consumption: Watts(98.5),
                active: true,
            },
            Frame::BudgetGrant {
                epoch: 4,
                ceiling: Watts(112.5),
                kind: GrantKind::Raise,
                term: 3,
            },
            Frame::Heartbeat { seq: 9001, term: 3 },
            Frame::Goodbye,
            Frame::Handover {
                successor: "127.0.0.1:7102".into(),
                term: 4,
            },
        ]
    }

    /// `samples()` as wire bytes, one frame per `FrameType` in
    /// discriminant order. Built independently of this codec (Python's
    /// `struct` + `zlib.crc32`), so any change to a byte of the format —
    /// field order, widths, the CRC — fails here first.
    const GOLDEN_HEX: [&str; 6] = [
        "44554650020001002700000006006e6f64652d3300000000004050400000000000405f4005004347\
         2b45500200000000000000e4c6148c",
        "44554650020002001900000011000000000000000000000000405a400000000000a058400144c0ab20",
        "44554650020003001900000004000000000000000000000000205c40000300000000000000386dbfce",
        "44554650020004001000000029230000000000000300000000000000ad18ee1b",
        "445546500200050000000000a749ca77",
        "4455465002000600180000000e003132372e302e302e313a3731303204000000000000002cbe7a9d",
    ];

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Any `f64` bit pattern, NaN payloads and infinities included: the
    /// codec moves bits, it does not judge them (vetting does).
    fn watts() -> impl Strategy<Value = Watts> {
        any::<u64>().prop_map(|bits| Watts(f64::from_bits(bits)))
    }

    /// Short strings mixing one- to four-byte UTF-8 characters.
    fn text() -> impl Strategy<Value = String> {
        let chars = vec![
            'a',
            'Z',
            '0',
            '-',
            ':',
            '.',
            '\u{e9}',
            '\u{65e5}',
            '\u{1f980}',
        ];
        prop::collection::vec(prop::sample::select(chars), 0..40)
            .prop_map(|cs| cs.into_iter().collect())
    }

    /// The largest payload a Hello may carry leaves this many bytes for
    /// its two strings (two u16 lengths, two f64s and the term take 28).
    const HELLO_TEXT_MAX: usize = MAX_PAYLOAD as usize - 28;
    /// A Handover's successor address bound.
    const SUCCESSOR_MAX: usize = 1024;

    fn hello(node: String, app: String, term: u64) -> Frame {
        Frame::Hello {
            node,
            floor: Watts(65.0),
            node_max: Watts(125.0),
            app,
            term,
        }
    }

    fn any_frame() -> impl Strategy<Value = Frame> {
        prop_oneof![
            2 => (text(), watts(), watts(), text(), any::<u64>()).prop_map(
                |(node, floor, node_max, app, term)| Frame::Hello {
                    node,
                    floor,
                    node_max,
                    app,
                    term,
                }
            ),
            // Both strings together exactly fill the Hello payload bound.
            (0..=HELLO_TEXT_MAX, any::<u64>()).prop_map(|(n, term)| {
                hello("n".repeat(n), "a".repeat(HELLO_TEXT_MAX - n), term)
            }),
            2 => (any::<u64>(), watts(), watts(), any::<bool>()).prop_map(
                |(seq, ceiling, consumption, active)| Frame::DemandReport {
                    seq,
                    ceiling,
                    consumption,
                    active,
                }
            ),
            2 => (any::<u64>(), watts(), any::<bool>(), any::<u64>()).prop_map(
                |(epoch, ceiling, shrink, term)| Frame::BudgetGrant {
                    epoch,
                    ceiling,
                    kind: if shrink { GrantKind::Shrink } else { GrantKind::Raise },
                    term,
                }
            ),
            2 => (any::<u64>(), any::<u64>()).prop_map(|(seq, term)| Frame::Heartbeat { seq, term }),
            Just(Frame::Goodbye),
            (text(), any::<u64>())
                .prop_map(|(successor, term)| Frame::Handover { successor, term }),
            (0..=SUCCESSOR_MAX, any::<u64>()).prop_map(|(n, term)| Frame::Handover {
                successor: "h".repeat(n),
                term,
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn encode_decode_encode_is_byte_stable(f in any_frame()) {
            let bytes = f.encode();
            let len = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
            prop_assert_eq!(len as usize, bytes.len() - HEADER_LEN - 4);
            prop_assert!(len <= f.frame_type().max_payload());
            let back = match Frame::decode(&bytes) {
                Ok(back) => back,
                Err(e) => return Err(format!("{e}")),
            };
            prop_assert_eq!(back.frame_type(), f.frame_type());
            prop_assert_eq!(back.encode(), bytes);
        }
    }

    #[test]
    fn strings_one_byte_past_their_bound_are_refused() {
        let bytes = hello("n".repeat(HELLO_TEXT_MAX + 1), String::new(), 1).encode();
        let err = Frame::decode(&bytes).unwrap_err();
        assert!(matches!(err, Error::FrameTooLarge { .. }), "{err:?}");
        let bytes = Frame::Handover {
            successor: "h".repeat(SUCCESSOR_MAX + 1),
            term: 1,
        }
        .encode();
        let err = Frame::decode(&bytes).unwrap_err();
        assert!(matches!(err, Error::FrameTooLarge { .. }), "{err:?}");
    }

    #[test]
    fn a_stream_ending_in_a_torn_frame_yields_every_whole_frame_then_corruption() {
        let mut whole = Vec::new();
        for f in samples() {
            f.write_to(&mut whole).unwrap();
        }
        let tail = samples()[0].encode();
        for cut in 0..tail.len() {
            let mut stream = whole.clone();
            stream.extend_from_slice(&tail[..cut]);
            let mut r = std::io::Cursor::new(stream);
            for want in samples() {
                assert_eq!(
                    Frame::read_from(&mut r).unwrap().unwrap(),
                    want,
                    "cut {cut}"
                );
            }
            match Frame::read_from(&mut r) {
                Ok(None) => assert_eq!(cut, 0, "only an empty tail is a clean EOF"),
                Ok(Some(f)) => panic!("cut {cut}: torn tail decoded as {f:?}"),
                Err(e) => {
                    assert!(cut > 0, "empty tail must be a clean EOF: {e}");
                    let inside = if cut < HEADER_LEN {
                        "header"
                    } else {
                        "payload"
                    };
                    assert!(
                        matches!(&e, Error::Corruption(m) if m.contains(inside)),
                        "cut {cut}: {e:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_frame_round_trips() {
        for (i, (f, golden)) in samples().into_iter().zip(GOLDEN_HEX).enumerate() {
            assert_eq!(f.frame_type() as usize, i + 1, "samples() order");
            let bytes = f.encode();
            assert_eq!(hex(&bytes), golden, "{f:?}");
            assert_eq!(Frame::decode(&bytes).unwrap(), f, "{f:?}");
        }
    }

    #[test]
    fn stream_round_trip_preserves_order() {
        let mut buf = Vec::new();
        for f in samples() {
            f.write_to(&mut buf).unwrap();
        }
        let mut r = std::io::Cursor::new(buf);
        for want in samples() {
            assert_eq!(Frame::read_from(&mut r).unwrap().unwrap(), want);
        }
        assert!(Frame::read_from(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncation_anywhere_is_corruption_not_panic() {
        let bytes = samples()[0].encode();
        for cut in 0..bytes.len() {
            let torn = &bytes[..cut];
            let err = Frame::decode(torn).unwrap_err();
            assert!(matches!(err, Error::Corruption(_)), "cut at {cut}: {err:?}");
        }
    }

    #[test]
    fn flipped_bits_fail_the_crc() {
        let bytes = samples()[1].encode();
        // Flip one bit in every payload byte position in turn.
        for i in HEADER_LEN..bytes.len() - 4 {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            let err = Frame::decode(&bad).unwrap_err();
            assert!(matches!(err, Error::Corruption(_)), "byte {i}: {err:?}");
            assert!(err.to_string().contains("CRC"), "byte {i}: {err}");
        }
    }

    #[test]
    fn unknown_frame_type_is_typed() {
        let mut bytes = Frame::Goodbye.encode();
        bytes[6] = 0xEE;
        // Re-seal the CRC so the type check (not the CRC) is what trips.
        let crc_at = bytes.len() - 4;
        let crc = crc32(&bytes[4..crc_at]);
        bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
        let err = Frame::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("unknown frame type"), "{err}");
    }

    #[test]
    fn version_mismatch_is_typed() {
        let mut bytes = Frame::Heartbeat { seq: 1, term: 1 }.encode();
        bytes[4..6].copy_from_slice(&99u16.to_le_bytes());
        let err = Frame::decode(&bytes).unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)), "{err:?}");
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut bytes = Frame::Goodbye.encode();
        bytes[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        let err = Frame::decode(&bytes).unwrap_err();
        assert!(matches!(err, Error::FrameTooLarge { .. }), "{err:?}");

        // And through the streaming reader, too.
        let mut r = std::io::Cursor::new(bytes);
        let err = Frame::read_from(&mut r).unwrap_err();
        assert!(matches!(err, Error::FrameTooLarge { .. }), "{err:?}");
    }

    #[test]
    fn fixed_size_frames_enforce_their_own_payload_bound() {
        // A heartbeat claiming a 4 KiB payload is under MAX_PAYLOAD but
        // eight hundred times its real size: the per-type bound refuses it
        // in the streaming reader before the payload buffer is allocated.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.push(FrameType::Heartbeat as u8);
        bytes.push(0);
        bytes.extend_from_slice(&4096u32.to_le_bytes());
        let mut r = std::io::Cursor::new(bytes.clone());
        let err = Frame::read_from(&mut r).unwrap_err();
        assert!(
            matches!(err, Error::FrameTooLarge { len: 4096, max: 16 }),
            "{err:?}"
        );

        // decode sees the same refusal on a complete, CRC-sealed buffer.
        bytes.extend_from_slice(&[0u8; 4096]);
        let crc = crc32(&bytes[4..]);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let err = Frame::decode(&bytes).unwrap_err();
        assert!(matches!(err, Error::FrameTooLarge { .. }), "{err:?}");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = Frame::Goodbye.encode();
        bytes[0] = b'X';
        assert!(Frame::decode(&bytes).is_err());
        let mut r = std::io::Cursor::new(bytes);
        assert!(Frame::read_from(&mut r).is_err());
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        // A Hello (the one variable-size frame) with one spare payload byte
        // appended, length and CRC re-sealed so only finish() can object.
        let good = samples()[0].encode();
        let payload_len = good.len() - HEADER_LEN - 4;
        let mut bytes = good[..good.len() - 4].to_vec();
        bytes.push(0);
        bytes[8..12].copy_from_slice(&((payload_len + 1) as u32).to_le_bytes());
        let crc = crc32(&bytes[4..]);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let err = Frame::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }
}
