//! Wire headers, field-for-field after the C structs in the paper's
//! appendix.
//!
//! The paper's syntactic-equivalence claim is checked structurally by tests
//! here: the union of the SELECT, CHANNEL, and FRAGMENT headers is nearly
//! identical to the monolithic Sprite header — the layered version only
//! *duplicates* some fields (each of FRAGMENT and CHANNEL has its own
//! sequence number) and *adds* a protocol-number field per layer (required
//! for a layer to stand alone and serve multiple high-level protocols).
//! Like the paper's implementation, hosts are identified by 32-bit internet
//! addresses (Sprite host ids are also 32 bits).

use xkernel::prelude::*;

/// Message-kind flags shared by Sprite RPC and CHANNEL.
pub mod flags {
    /// This message is a request.
    pub const REQUEST: u16 = 0x0001;
    /// This message is a reply.
    pub const REPLY: u16 = 0x0002;
    /// Explicit acknowledgement ("still working on it").
    pub const ACK: u16 = 0x0004;
    /// Sender asks the receiver to acknowledge explicitly.
    pub const PLEASE_ACK: u16 = 0x0008;
    /// Negative ack: the frag_mask names *missing* fragments to resend.
    pub const NACK: u16 = 0x0010;
}

wire_header! {
    /// The monolithic Sprite RPC header (`sprite_hdr` in the appendix).
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
    pub struct SpriteHdr: SPRITE_HDR_LEN, "sprite_hdr" {
        /// Message kind bits (see [`flags`]).
        pub flags: u16,
        /// Client host address.
        pub clnt_host: IpAddr,
        /// Server host address.
        pub srvr_host: IpAddr,
        /// Channel index.
        pub channel: u16,
        /// Server process hint (kept for layout fidelity; we dispatch on
        /// `command`).
        pub srvr_process: u16,
        /// RPC sequence number (at-most-once identity).
        pub sequence_num: u32,
        /// Number of fragments in this message.
        pub num_frags: u16,
        /// Bitmask of which fragment(s) this packet carries — or, with
        /// [`flags::NACK`]/[`flags::ACK`], which fragments were received.
        pub frag_mask: u16,
        /// Procedure id.
        pub command: u16,
        /// Sender's boot incarnation.
        pub boot_id: u32,
        /// First data area size.
        pub data1_sz: u16,
        /// Second data area size (unused by the layered version; see appendix
        /// note).
        pub data2_sz: u16,
        /// First data area offset.
        pub data1_offset: u16,
        /// Second data area offset.
        pub data2_offset: u16,
    }
}

wire_header! {
    /// The SELECT layer header (`select_hdr`).
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
    pub struct SelectHdr: SELECT_HDR_LEN, "select_hdr" {
        /// Request (0) or reply (1).
        pub typ: u8,
        /// Procedure id.
        pub command: u16,
        /// Reply status: 0 ok, non-zero server-side error code.
        pub status: u8,
    }
}

wire_header! {
    /// The CHANNEL layer header (`channel_hdr`).
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
    pub struct ChannelHdr: CHANNEL_HDR_LEN, "channel_hdr" {
        /// Message kind bits (see [`flags`]).
        pub flags: u16,
        /// Channel index (client-scoped; unique per client kernel).
        pub channel: u16,
        /// The high-level protocol this channel serves — present because
        /// CHANNEL, as an independent protocol, "must have its own protocol
        /// number (type) field".
        pub protocol_num: u32,
        /// Request sequence number (at-most-once identity).
        pub sequence_num: u32,
        /// Server-reported error code (0 = ok).
        pub error: u16,
        /// Sender's boot incarnation.
        pub boot_id: u32,
    }
}

/// FRAGMENT packet kinds.
pub mod frag_type {
    /// Carries one fragment of a message.
    pub const DATA: u8 = 1;
    /// Receiver-to-sender request for missing fragments (mask = missing).
    pub const NACK: u8 = 2;
}

wire_header! {
    /// The FRAGMENT layer header (`fragment_hdr`).
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
    pub struct FragmentHdr: FRAGMENT_HDR_LEN, "fragment_hdr" {
        /// Packet kind (see [`frag_type`]).
        pub typ: u8,
        /// Sending host of the original message.
        pub clnt_host: IpAddr,
        /// Receiving host of the original message.
        pub srvr_host: IpAddr,
        /// The high-level protocol the message belongs to.
        pub protocol_num: u32,
        /// FRAGMENT-level message sequence number (unique per sender).
        pub sequence_num: u32,
        /// Total fragments in the message.
        pub num_frags: u16,
        /// Bit i set = this packet carries (or, for NACK, requests) fragment i.
        pub frag_mask: u16,
        /// Total message length in bytes.
        pub len: u16,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's syntactic-equivalence claim, checked structurally from
    /// the headers' own field lists: every monolithic field the layered
    /// version keeps is carried by some layer's header, the layered union
    /// adds only a protocol number per reusable layer, the SELECT
    /// type/status bytes, FRAGMENT's type byte and CHANNEL's error field,
    /// and it duplicates only the sequence number (and those two shared
    /// fields).
    #[test]
    fn layered_headers_cover_the_monolithic_header() {
        let layers = [
            ("select", SelectHdr::FIELDS),
            ("channel", ChannelHdr::FIELDS),
            ("fragment", FragmentHdr::FIELDS),
        ];
        let carriers = |field: &str| -> Vec<&str> {
            let field = if field == "data1_sz" { "len" } else { field };
            layers
                .iter()
                .filter(|(_, fields)| fields.contains(&field))
                .map(|(layer, _)| *layer)
                .collect()
        };
        // FRAGMENT's `len` is `data1_sz` renamed; the process hint and the
        // second data area are what the appendix notes the layered version
        // does not need.
        let dropped = ["srvr_process", "data2_sz", "data1_offset", "data2_offset"];
        for field in SpriteHdr::FIELDS {
            assert_eq!(
                carriers(field).is_empty(),
                dropped.contains(field),
                "{field}: {:?}",
                carriers(field)
            );
        }
        assert_eq!(carriers("sequence_num"), ["channel", "fragment"]);
        assert_eq!(carriers("protocol_num"), ["channel", "fragment"]);
        assert_eq!(carriers("typ"), ["select", "fragment"]);

        let mut added: Vec<&str> = layers
            .iter()
            .flat_map(|(_, fields)| fields.iter().copied())
            .filter(|f| *f != "len" && !SpriteHdr::FIELDS.contains(f))
            .collect();
        added.sort_unstable();
        added.dedup();
        assert_eq!(added, ["error", "protocol_num", "status", "typ"]);

        // Size accounting: +8 two protocol-number fields, +4 duplicated
        // sequence number, +3 per-layer type/status framing, +2 error field,
        // -8 dropped process-hint, data2 and offset fields = +9 bytes.
        let layered = SELECT_HDR_LEN + CHANNEL_HDR_LEN + FRAGMENT_HDR_LEN;
        assert_eq!((layered, SPRITE_HDR_LEN), (45, 36));
    }
}
