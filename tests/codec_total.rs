//! Every fixed-size header, in one table: its layout pinned byte for byte
//! (the appendix's field order, network byte order), its codec a round trip,
//! and its decoder total over short input. Then the XDR reads and the
//! AUTH_UNIX credential check, whose length fields the input chooses: total
//! over truncations, lengths around and far beyond the bytes there are, and
//! padding that is cut or not zero.

use std::fmt::Debug;

use inet::arp::ArpPkt;
use inet::eth::EthHdr;
use inet::icmp::IcmpHdr;
use inet::ip::IpHeader;
use inet::tcp::TcpHeader;
use inet::udp::UdpHdr;
use sunrpc::auth::{AuthUnix, CredScheme};
use sunrpc::rr::RrHdr;
use sunrpc::sunselect::SunSelHdr;
use sunrpc::xdr::{XdrReader, XdrWriter};
use xkernel::prelude::*;
use xkernel::shim::NullHdr;
use xrpc::hdr::{ChannelHdr, FragmentHdr, SelectHdr, SpriteHdr};

/// `hdr` encodes to exactly `wire`; `wire` (with or without bytes after it)
/// decodes to `hdr`; and every proper prefix of `wire` is refused as corrupt,
/// not a panic.
fn pinned<H: PartialEq + Debug, const N: usize>(
    name: &str,
    hdr: H,
    wire: [u8; N],
    encode: impl Fn(&H) -> [u8; N],
    decode: impl Fn(&[u8]) -> XResult<H>,
) {
    assert_eq!(encode(&hdr), wire, "{name}: layout");
    assert_eq!(decode(&wire).unwrap(), hdr, "{name}: decode");
    let mut padded = wire.to_vec();
    padded.extend_from_slice(&[0xaa; 3]);
    assert_eq!(decode(&padded).unwrap(), hdr, "{name}: trailing bytes");
    for k in 0..N {
        match decode(&wire[..k]) {
            Err(XError::Reject(Reject::Corrupt(_))) => {}
            other => panic!("{name}: {k} of {N} bytes decoded to {other:?}"),
        }
    }
}

#[test]
fn every_fixed_size_header_is_pinned_and_its_decoder_total() {
    let (a, b) = (IpAddr::new(10, 0, 0, 1), IpAddr::new(10, 0, 0, 2));
    let (ea, eb) = (EthAddr::from_index(1), EthAddr::from_index(2));

    pinned(
        "sprite_hdr",
        SpriteHdr {
            flags: 0x0009,
            clnt_host: a,
            srvr_host: b,
            channel: 3,
            srvr_process: 9,
            sequence_num: 0x0102_0304,
            num_frags: 11,
            frag_mask: 0x07ff,
            command: 42,
            boot_id: 0xdead_beef,
            data1_sz: 100,
            data2_sz: 200,
            data1_offset: 36,
            data2_offset: 136,
        },
        [
            0x00, 0x09, 10, 0, 0, 1, 10, 0, 0, 2, 0, 3, 0, 9, 1, 2, 3, 4, 0, 11, 0x07, 0xff, 0, 42,
            0xde, 0xad, 0xbe, 0xef, 0, 100, 0, 200, 0, 36, 0, 136,
        ],
        SpriteHdr::encode,
        SpriteHdr::decode,
    );
    pinned(
        "select_hdr",
        SelectHdr {
            typ: 1,
            command: 0x0201,
            status: 7,
        },
        [1, 2, 1, 7],
        SelectHdr::encode,
        SelectHdr::decode,
    );
    pinned(
        "channel_hdr",
        ChannelHdr {
            flags: 0x0002,
            channel: 12,
            protocol_num: 103,
            sequence_num: 0x0000_2328,
            error: 2,
            boot_id: 0x0000_beef,
        },
        [
            0, 2, 0, 12, 0, 0, 0, 103, 0, 0, 0x23, 0x28, 0, 2, 0, 0, 0xbe, 0xef,
        ],
        ChannelHdr::encode,
        ChannelHdr::decode,
    );
    pinned(
        "fragment_hdr",
        FragmentHdr {
            typ: 2,
            clnt_host: a,
            srvr_host: b,
            protocol_num: 103,
            sequence_num: 0x0000_7a69,
            num_frags: 11,
            frag_mask: 0b101,
            len: 16_000,
        },
        [
            2, 10, 0, 0, 1, 10, 0, 0, 2, 0, 0, 0, 103, 0, 0, 0x7a, 0x69, 0, 11, 0, 5, 0x3e, 0x80,
        ],
        FragmentHdr::encode,
        FragmentHdr::decode,
    );
    pinned(
        "eth",
        EthHdr {
            dst: EthAddr::BROADCAST,
            src: ea,
            ty: 0x0800,
        },
        [
            0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 0x00, 0x5e, 0x00, 0x00, 0x01, 0x08, 0x00,
        ],
        EthHdr::encode,
        EthHdr::decode,
    );
    pinned(
        "ip",
        IpHeader {
            total_len: 0x0073,
            id: 0x1234,
            more_frags: true,
            frag_off: 0x0010,
            ttl: 64,
            proto: 17,
            src: a,
            dst: b,
        },
        // RFC 791 order; the checksum (bytes 10–11) makes the words sum to
        // 0xffff.
        [
            0x45, 0x00, 0x00, 0x73, 0x12, 0x34, 0x20, 0x10, 0x40, 0x11, 0x34, 0x34, 10, 0, 0, 1,
            10, 0, 0, 2,
        ],
        IpHeader::encode,
        IpHeader::decode,
    );
    pinned(
        "udp",
        UdpHdr {
            src_port: 0x0401,
            dst_port: 111,
            length: 0x0108,
            checksum: 0xbeef,
        },
        [0x04, 0x01, 0, 111, 0x01, 0x08, 0xbe, 0xef],
        UdpHdr::encode,
        UdpHdr::decode,
    );
    pinned(
        "tcp",
        TcpHeader {
            src_port: 1234,
            dst_port: 80,
            seq: 0x0102_0304,
            ack: 0x0506_0708,
            flags: 0x12,
            window: 8192,
        },
        // RFC 793 order: offset 5 words, no urgent pointer; the checksum
        // (bytes 16–17) is over an all-zero pseudo-header and no payload.
        [
            0x04, 0xd2, 0, 80, 1, 2, 3, 4, 5, 6, 7, 8, 0x50, 0x12, 0x20, 0x00, 0x7a, 0xb7, 0, 0,
        ],
        |h| h.encode(&[0; 12], &[]),
        TcpHeader::decode,
    );
    pinned(
        "arp",
        ArpPkt {
            op: 1,
            sip: a,
            seth: ea,
            tip: b,
            teth: eb,
        },
        [
            0, 1, 10, 0, 0, 1, 0x02, 0x00, 0x5e, 0x00, 0x00, 0x01, 10, 0, 0, 2, 0x02, 0x00, 0x5e,
            0x00, 0x00, 0x02,
        ],
        ArpPkt::encode,
        ArpPkt::decode,
    );
    pinned(
        "icmp",
        IcmpHdr {
            ty: 8,
            id: 7,
            seq: 9,
        },
        // RFC 792 echo: code 0; the checksum (bytes 2–3) covers "abc" too.
        [8, 0, 0x33, 0x8d, 0, 7, 0, 9],
        |h| h.encode(b"abc"),
        IcmpHdr::decode,
    );
    pinned(
        "request_reply",
        RrHdr {
            xid: 0x0102_0304,
            mtype: 1,
            proto_num: 5,
        },
        [1, 2, 3, 4, 0, 0, 0, 1, 0, 0, 0, 5],
        RrHdr::encode,
        RrHdr::decode,
    );
    pinned(
        "sun_select",
        SunSelHdr {
            prog: 100_003,
            vers: 2,
            proc: 1,
            status: 3,
        },
        [0, 0x01, 0x86, 0xa3, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 3],
        SunSelHdr::encode,
        SunSelHdr::decode,
    );
    pinned(
        "null",
        NullHdr {
            num: 0x0102,
            pad: 0,
        },
        [1, 2, 0, 0],
        NullHdr::encode,
        NullHdr::decode,
    );
}

/// `Ok`, or refused as corrupt: anything else from a decoder fed bad bytes —
/// a panic included — fails the test.
fn total<T: Debug>(what: &str, got: XResult<T>) -> Option<T> {
    match got {
        Ok(v) => Some(v),
        Err(XError::Reject(Reject::Corrupt(_))) => None,
        Err(other) => panic!("{what}: {other:?}"),
    }
}

/// Each XDR read this workspace makes, on `bytes`.
fn xdr_reads(what: &str, bytes: &[u8]) {
    total(what, XdrReader::new(bytes).u32());
    total(what, XdrReader::new(bytes).opaque());
    total(what, XdrReader::new(bytes).string());
}

/// A length word, then `body`: what `XdrReader::opaque` and `string` read.
fn length_prefixed(len: u32, body: &[u8]) -> Vec<u8> {
    [&len.to_be_bytes()[..], body].concat()
}

#[test]
fn xdr_reads_and_auth_unix_credentials_are_total() {
    let server = AuthUnix {
        uid: 0,
        gid: 0,
        machine: "srv".into(),
        allowed_uids: None,
    };
    let mut w = XdrWriter::new();
    w.u32(7)
        .string("sun3")
        .u32(1000)
        .u32(20)
        .u32(2)
        .u32(5)
        .u32(6);
    let cred = w.finish();
    assert!(server.verify_cred(&cred).is_ok());

    // Every truncation of a valid credential. None is a shorter credential:
    // the gid count promises two words that only the whole one has.
    for k in 0..cred.len() {
        assert!(
            total("truncated cred", server.verify_cred(&cred[..k])).is_none(),
            "{k} of {} bytes accepted",
            cred.len()
        );
        xdr_reads("truncated cred", &cred[..k]);
    }

    // Opaque lengths 0–8 against bodies of 0–8 bytes: exactly the padded
    // length decodes, with the data it names.
    for len in 0..=8u32 {
        for have in 0..=12usize {
            let body: Vec<u8> = (0..have as u8).collect();
            let bytes = length_prefixed(len, &body);
            xdr_reads("opaque", &bytes);
            let got = total("opaque", XdrReader::new(&bytes).opaque());
            let padded = (len as usize).next_multiple_of(4);
            assert_eq!(got.is_some(), have >= padded, "len {len}, {have} bytes");
            if let Some(data) = got {
                assert_eq!(data, &body[..len as usize]);
            }
        }
    }

    // A length one off the body, both ways, and the largest there is — in
    // the XDR reads and in the credential's machine name.
    let name = b"sun3";
    for len in [3, 5, u32::MAX, u32::MAX - 1, 1 << 31] {
        xdr_reads("length", &length_prefixed(len, name));
        let mut bad = cred.clone();
        bad[4..8].copy_from_slice(&len.to_be_bytes());
        total("cred name length", server.verify_cred(&bad));
    }

    // Odd padding: a three-byte name whose pad byte is not zero. The reader
    // skips pad bytes without looking (RFC 1014 has the sender write zeros),
    // and a credential cut inside its padding is short.
    let mut w = XdrWriter::new();
    w.u32(7).string("sun").u32(1000).u32(20).u32(0);
    let mut odd = w.finish();
    odd[11] = 0xff;
    assert_eq!(XdrReader::new(&odd[4..]).string().unwrap(), "sun");
    assert!(total("odd padding", server.verify_cred(&odd)).is_some());
    assert!(total("cut padding", XdrReader::new(&odd[4..11]).opaque()).is_none());

    // A gid count far beyond the bytes that follow.
    let mut many = cred.clone();
    let at = many.len() - 12;
    many[at..at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
    assert!(total("gid count", server.verify_cred(&many)).is_none());

    // A name that is not UTF-8.
    let mut latin = cred.clone();
    latin[8] = 0xff;
    assert!(total("non-utf-8 name", server.verify_cred(&latin)).is_none());
}
