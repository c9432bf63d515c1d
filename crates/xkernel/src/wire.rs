//! Big-endian wire codec helpers used by every header implementation.
//!
//! Headers in this suite are laid out field-for-field after the C structs in
//! the paper's appendix, in network byte order. A fixed-size header is built
//! in a [`HdrBuf`] — an array on the stack, the host's counterpart of the
//! paper's "simply adjusts a pointer for each new header" — and read back
//! through a [`HdrReader`], which checks the length once. A header whose
//! every bit is a field is declared once, with
//! [`wire_header!`](crate::wire_header), which writes both from its field
//! list. [`WireWriter`] and [`WireReader`] are for what has no fixed size
//! (PSYNC's dependency list): the writer appends to a heap buffer, the reader
//! consumes a byte slice and reports truncation as a [`Reject::Corrupt`]
//! instead of panicking.
//!
//! Every method here is a leaf that another crate calls once per header
//! field, so each carries `#[inline]` (see DESIGN.md, "What crosses a
//! crate"); its error is a constant.

use crate::addr::{EthAddr, IpAddr};
use crate::error::{Reject, XResult};
use crate::msg::Message;

/// Builds an `N`-byte header on the stack in network byte order: the array,
/// a cursor, and [`WireWriter`]'s methods. Writing past `N` bytes panics, as
/// does finishing short of them — either is a bug in the codec, not in what
/// arrived.
#[derive(Debug)]
pub struct HdrBuf<const N: usize> {
    buf: [u8; N],
    pos: usize,
}

impl<const N: usize> Default for HdrBuf<N> {
    #[inline]
    fn default() -> Self {
        HdrBuf {
            buf: [0; N],
            pos: 0,
        }
    }
}

impl<const N: usize> HdrBuf<N> {
    /// An empty `N`-byte header.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn put<const K: usize>(&mut self, v: [u8; K]) -> &mut Self {
        self.buf[self.pos..self.pos + K].copy_from_slice(&v);
        self.pos += K;
        self
    }

    /// Appends a `u8`.
    #[inline]
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.put([v])
    }

    /// Appends a `u16` in network byte order.
    #[inline]
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.put(v.to_be_bytes())
    }

    /// Appends a `u32` in network byte order.
    #[inline]
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.put(v.to_be_bytes())
    }

    /// Appends an internet address (4 bytes).
    #[inline]
    pub fn ip(&mut self, v: IpAddr) -> &mut Self {
        self.put(v.octets())
    }

    /// Appends an Ethernet address (6 bytes).
    #[inline]
    pub fn eth(&mut self, v: EthAddr) -> &mut Self {
        self.put(v.0)
    }

    /// The encoded header, which must be complete.
    #[inline]
    pub fn finish(&self) -> [u8; N] {
        assert_eq!(self.pos, N, "fixed-size header left short");
        self.buf
    }
}

/// Reads an `N`-byte header in network byte order: [`HdrReader::new`] checks
/// once that `N` bytes are there (anything after them is ignored), and the
/// field reads that follow cannot fail. Reading past `N` bytes panics — a bug
/// in the codec, which no input can reach.
#[derive(Debug)]
pub struct HdrReader<'a, const N: usize> {
    buf: &'a [u8; N],
    pos: usize,
}

impl<'a, const N: usize> HdrReader<'a, N> {
    /// A reader over the first `N` bytes of `bytes`, or a
    /// [`Reject::Corrupt`] naming the header (`what`) if there are fewer.
    #[inline]
    pub fn new(bytes: &'a [u8], what: &'static str) -> XResult<Self> {
        match bytes.first_chunk::<N>() {
            Some(buf) => Ok(HdrReader { buf, pos: 0 }),
            None => Err(Reject::Corrupt(what).into()),
        }
    }

    /// The whole header, whatever has been read from it (for a checksum).
    #[inline]
    pub fn array(&self) -> &'a [u8; N] {
        self.buf
    }

    #[inline]
    fn take<const K: usize>(&mut self) -> [u8; K] {
        let mut out = [0; K];
        out.copy_from_slice(&self.buf[self.pos..self.pos + K]);
        self.pos += K;
        out
    }

    /// Reads a `u8`.
    #[inline]
    pub fn u8(&mut self) -> u8 {
        self.take::<1>()[0]
    }

    /// Reads a big-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> u16 {
        u16::from_be_bytes(self.take())
    }

    /// Reads a big-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> u32 {
        u32::from_be_bytes(self.take())
    }

    /// Reads an internet address.
    #[inline]
    pub fn ip(&mut self) -> IpAddr {
        IpAddr(self.u32())
    }

    /// Reads an Ethernet address.
    #[inline]
    pub fn eth(&mut self) -> EthAddr {
        EthAddr(self.take())
    }
}

/// A type a [`wire_header!`](crate::wire_header) field can have: its width
/// on the wire, and how [`HdrBuf`] writes it and [`HdrReader`] reads it back.
pub trait Field: Copy {
    /// Encoded width in bytes.
    const WIDTH: usize;
    /// Appends `self` to `buf`.
    fn put<const N: usize>(self, buf: &mut HdrBuf<N>);
    /// Reads one value from `r`.
    fn get<const N: usize>(r: &mut HdrReader<'_, N>) -> Self;
}

macro_rules! field {
    ($($ty:ty => $width:literal, $method:ident;)*) => {$(
        impl Field for $ty {
            const WIDTH: usize = $width;
            #[inline]
            fn put<const N: usize>(self, buf: &mut HdrBuf<N>) {
                buf.$method(self);
            }
            #[inline]
            fn get<const N: usize>(r: &mut HdrReader<'_, N>) -> Self {
                r.$method()
            }
        }
    )*};
}

field! {
    u8 => 1, u8;
    u16 => 2, u16;
    u32 => 4, u32;
    IpAddr => 4, ip;
    EthAddr => 6, eth;
}

/// A fixed-size header written once, as its struct: the fields in wire
/// order, each a [`Field`]. From that one list come the struct, the length
/// constant (the sum of the field widths), `encode` over a [`HdrBuf`],
/// `decode` over a [`HdrReader`] that refuses short input as
/// [`Reject::Corrupt`] naming the header, and `FIELDS`, the field names in
/// wire order.
///
/// ```
/// use xkernel::prelude::*;
///
/// wire_header! {
///     /// Docs and derives pass through.
///     #[derive(Debug, PartialEq)]
///     pub struct Toy: TOY_LEN, "toy" {
///         /// A port.
///         pub port: u16,
///         /// A host.
///         pub host: IpAddr,
///     }
/// }
///
/// let toy = Toy { port: 7, host: IpAddr::new(10, 0, 0, 1) };
/// assert_eq!(TOY_LEN, 6);
/// assert_eq!(Toy::FIELDS, ["port", "host"]);
/// assert_eq!(toy.encode(), [0, 7, 10, 0, 0, 1]);
/// assert_eq!(Toy::decode(&toy.encode()), Ok(toy));
/// assert!(Toy::decode(&[0, 7]).is_err());
/// ```
#[macro_export]
macro_rules! wire_header {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident: $len:ident, $what:literal {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty,)*
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty,)*
        }

        #[doc = concat!("Encoded size of [`", stringify!($name), "`].")]
        $vis const $len: usize = 0 $(+ <$ty as $crate::wire::Field>::WIDTH)*;

        impl $name {
            /// The field names, in wire order.
            pub const FIELDS: &'static [&'static str] = &[$(stringify!($field)),*];

            /// Encodes to network byte order.
            pub fn encode(&self) -> [u8; $len] {
                let mut buf = $crate::wire::HdrBuf::<$len>::new();
                $($crate::wire::Field::put(self.$field, &mut buf);)*
                buf.finish()
            }

            /// Decodes from network byte order.
            pub fn decode(bytes: &[u8]) -> $crate::error::XResult<$name> {
                let mut r = $crate::wire::HdrReader::<$len>::new(bytes, $what)?;
                Ok($name {
                    $($field: $crate::wire::Field::get(&mut r),)*
                })
            }
        }
    };
}

/// Serializes variable-length data in network byte order.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Creates a writer with capacity for `cap` bytes.
    #[inline]
    pub fn with_capacity(cap: usize) -> WireWriter {
        WireWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends a `u8`.
    #[inline]
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a `u16` in network byte order.
    #[inline]
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a `u32` in network byte order.
    #[inline]
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends an internet address (4 bytes).
    #[inline]
    pub fn ip(&mut self, v: IpAddr) -> &mut Self {
        self.buf.extend_from_slice(&v.octets());
        self
    }

    /// Appends an Ethernet address (6 bytes).
    #[inline]
    pub fn eth(&mut self, v: EthAddr) -> &mut Self {
        self.buf.extend_from_slice(&v.0);
        self
    }

    /// Appends raw bytes.
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Finishes and returns the encoded bytes.
    #[inline]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Deserializes variable-length data in network byte order.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> WireReader<'a> {
    /// Creates a reader over `buf`; `what` names the header for error text.
    #[inline]
    pub fn new(buf: &'a [u8], what: &'static str) -> WireReader<'a> {
        WireReader { buf, pos: 0, what }
    }

    #[inline]
    fn take(&mut self, n: usize) -> XResult<&'a [u8]> {
        match self
            .pos
            .checked_add(n)
            .and_then(|end| self.buf.get(self.pos..end))
        {
            Some(s) => {
                self.pos += n;
                Ok(s)
            }
            None => Err(Reject::Corrupt(self.what).into()),
        }
    }

    /// Reads a `u8`.
    #[inline]
    pub fn u8(&mut self) -> XResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> XResult<u16> {
        let s = self.take(2)?;
        Ok(u16::from_be_bytes([s[0], s[1]]))
    }

    /// Reads a big-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> XResult<u32> {
        let s = self.take(4)?;
        Ok(u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads an internet address.
    #[inline]
    pub fn ip(&mut self) -> XResult<IpAddr> {
        Ok(IpAddr(self.u32()?))
    }

    /// Reads an Ethernet address.
    #[inline]
    pub fn eth(&mut self) -> XResult<EthAddr> {
        let s = self.take(6)?;
        let mut a = [0u8; 6];
        a.copy_from_slice(s);
        Ok(EthAddr(a))
    }

    /// Reads `n` raw bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> XResult<&'a [u8]> {
        self.take(n)
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current offset from the start of the buffer.
    #[inline]
    pub fn offset(&self) -> usize {
        self.pos
    }
}

/// The Internet checksum (RFC 1071 one's-complement sum) over `data`,
/// used by the IP header and the UDP/TCP pseudo-header checksums.
pub fn internet_checksum(chunks: &[&[u8]]) -> u16 {
    let mut sum: u32 = 0;
    // Odd-length chunks are treated as if zero-padded, matching how the
    // checksum composes over pseudo-header + header + data.
    for data in chunks {
        let mut i = 0;
        while i + 1 < data.len() {
            sum += u32::from(u16::from_be_bytes([data[i], data[i + 1]]));
            i += 2;
        }
        if i < data.len() {
            sum += u32::from(u16::from_be_bytes([data[i], 0]));
        }
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// Incremental Internet checksum over a *byte stream* fed in arbitrary
/// chunks. Unlike [`internet_checksum`], which zero-pads each odd-length
/// chunk independently, this accumulator carries an odd trailing byte into
/// the next chunk, so folding a message segment-by-segment yields exactly
/// the checksum of the concatenated bytes — however the rope happens to be
/// split. This is what lets UDP/TCP checksum a [`Message`] without ever
/// materializing a contiguous copy.
///
/// Feed even-length prefix chunks (pseudo-header, protocol header) with
/// [`ChecksumAcc::add`], the payload with [`ChecksumAcc::add_message`], and
/// read the ones-complement result with [`ChecksumAcc::finish`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ChecksumAcc {
    sum: u64,
    /// The high byte of a 16-bit word whose low byte arrives in a later
    /// chunk (set iff an odd number of bytes has been absorbed so far).
    pending: Option<u8>,
}

impl ChecksumAcc {
    /// A fresh accumulator (sum 0, no half-word pending).
    pub fn new() -> ChecksumAcc {
        ChecksumAcc::default()
    }

    /// Absorbs `data`, pairing any byte left over from the previous chunk.
    pub fn add(&mut self, mut data: &[u8]) {
        if let Some(hi) = self.pending.take() {
            match data.first() {
                Some(&lo) => {
                    self.sum += u64::from(u16::from_be_bytes([hi, lo]));
                    data = &data[1..];
                }
                None => {
                    self.pending = Some(hi);
                    return;
                }
            }
        }
        // Eight bytes a step, as two big-endian 32-bit halves: each half is
        // two 16-bit words, and 2¹⁶ ≡ 1 in the ones'-complement sum, so the
        // fold in `finish` gives what a word-by-word sum would.
        let mut words = data.chunks_exact(8);
        for word in &mut words {
            let mut be = [0; 8];
            be.copy_from_slice(word);
            let word = u64::from_be_bytes(be);
            self.sum += (word >> 32) + (word & 0xffff_ffff);
        }
        let mut pairs = words.remainder().chunks_exact(2);
        for pair in &mut pairs {
            self.sum += u64::from(u16::from_be_bytes([pair[0], pair[1]]));
        }
        if let [last] = pairs.remainder() {
            self.pending = Some(*last);
        }
    }

    /// Absorbs every byte of `msg` in order, borrowing each segment.
    pub fn add_message(&mut self, msg: &Message) {
        msg.for_each_segment(|seg| self.add(seg));
    }

    /// Folds and complements: the value to place in (or compare against)
    /// a checksum field. A trailing odd byte is zero-padded, as RFC 1071
    /// prescribes for the end of the data.
    pub fn finish(self) -> u16 {
        let mut sum = self.sum;
        if let Some(hi) = self.pending {
            sum += u64::from(u16::from_be_bytes([hi, 0]));
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::XError;
    use proptest::prelude::*;

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = WireWriter::with_capacity(32);
        w.u8(7)
            .u16(0xbeef)
            .u32(0xdead_beef)
            .ip(IpAddr::new(1, 2, 3, 4))
            .eth(EthAddr::from_index(5))
            .bytes(&[9, 9, 9]);
        let buf = w.finish();
        assert_eq!(buf.len(), 1 + 2 + 4 + 4 + 6 + 3);

        let mut r = WireReader::new(&buf, "test");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.ip().unwrap(), IpAddr::new(1, 2, 3, 4));
        assert_eq!(r.eth().unwrap(), EthAddr::from_index(5));
        assert_eq!(r.bytes(3).unwrap(), &[9, 9, 9]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn fixed_size_header_roundtrips_on_the_stack() {
        let hdr: [u8; 20] = HdrBuf::new()
            .u8(7)
            .u16(0xbeef)
            .u32(0xdead_beef)
            .ip(IpAddr::new(1, 2, 3, 4))
            .eth(EthAddr::from_index(5))
            .u8(9)
            .u16(0x0909)
            .finish();
        assert_eq!(hdr[..3], [7, 0xbe, 0xef]);

        // Bytes after the header are not its reader's business.
        let mut wire = hdr.to_vec();
        wire.push(0xaa);
        let mut r = HdrReader::<20>::new(&wire, "test").unwrap();
        assert_eq!(r.array(), &hdr);
        assert_eq!(r.u8(), 7);
        assert_eq!(r.u16(), 0xbeef);
        assert_eq!(r.u32(), 0xdead_beef);
        assert_eq!(r.ip(), IpAddr::new(1, 2, 3, 4));
        assert_eq!(r.eth(), EthAddr::from_index(5));
        assert_eq!(r.take::<3>(), [9, 9, 9]);
    }

    #[test]
    fn fixed_size_reader_rejects_every_short_input() {
        for k in 0..20 {
            match HdrReader::<20>::new(&[0u8; 20][..k], "short") {
                Err(XError::Reject(Reject::Corrupt("short"))) => {}
                other => panic!("{k} bytes: {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "left short")]
    fn unfinished_fixed_size_header_is_a_bug() {
        let _ = HdrBuf::<4>::new().u16(1).finish();
    }

    #[test]
    fn reader_reports_truncation() {
        let mut r = WireReader::new(&[1, 2], "short");
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(
            r.u32().unwrap_err(),
            XError::Reject(Reject::Corrupt("short"))
        );
    }

    #[test]
    fn checksum_known_vector() {
        // Example from RFC 1071: the sum of these words is 0xddf2, so the
        // checksum is !0xddf2 = 0x220d.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&[&data]), 0x220d);
    }

    #[test]
    fn checksum_verifies_to_zero() {
        let mut data = vec![0x45u8, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11];
        let c = internet_checksum(&[&data]);
        data.extend_from_slice(&c.to_be_bytes());
        assert_eq!(internet_checksum(&[&data]), 0);
    }

    #[test]
    fn checksum_chunking_is_associative_for_even_chunks() {
        let a = [1u8, 2, 3, 4];
        let b = [5u8, 6, 7, 8];
        let joined = [1u8, 2, 3, 4, 5, 6, 7, 8];
        assert_eq!(internet_checksum(&[&a, &b]), internet_checksum(&[&joined]));
    }

    fn stream(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 37 % 251) as u8).collect()
    }

    fn acc_over_chunks(chunks: &[&[u8]]) -> u16 {
        let mut acc = ChecksumAcc::new();
        for c in chunks {
            acc.add(c);
        }
        acc.finish()
    }

    #[test]
    fn acc_matches_contiguous_at_every_split_point() {
        // Odd and even splits, odd and even total lengths: the accumulator
        // must carry the half-word across the boundary, which the
        // chunk-padding internet_checksum deliberately does not.
        for total in [8usize, 9, 64, 65] {
            let data = stream(total);
            let whole = internet_checksum(&[&data]);
            for at in 0..=total {
                let (l, r) = data.split_at(at);
                assert_eq!(acc_over_chunks(&[l, r]), whole, "split at {at} of {total}");
            }
        }
    }

    proptest! {
        /// Random bytes cut at random points, odd ones included: the
        /// accumulator, fed the pieces, gives the contiguous checksum.
        #[test]
        fn acc_matches_contiguous_over_random_cuts(
            data in proptest::collection::vec(any::<u8>(), 0..600),
            cuts in proptest::collection::vec(0usize..600, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut acc = ChecksumAcc::new();
            let mut from = 0;
            for at in cuts.into_iter().chain([data.len()]) {
                acc.add(&data[from..at]);
                from = at;
            }
            prop_assert_eq!(acc.finish(), internet_checksum(&[&data]));
        }
    }

    #[test]
    fn acc_handles_empty_and_single_byte_chunks() {
        let data = stream(11);
        let whole = internet_checksum(&[&data]);
        // All-singleton feed, with empty chunks interleaved (including one
        // arriving while a half-word is pending).
        let mut acc = ChecksumAcc::new();
        for (i, b) in data.iter().enumerate() {
            acc.add(&[]);
            acc.add(std::slice::from_ref(b));
            if i % 3 == 0 {
                acc.add(&[]);
            }
        }
        assert_eq!(acc.finish(), whole);
        assert_eq!(acc_over_chunks(&[]), internet_checksum(&[]));
    }

    #[test]
    fn acc_folds_message_segments_like_contiguous_bytes() {
        // Build messages whose ropes are split at odd offsets via headers,
        // split_off/append, and partial pops; the segment fold must always
        // equal the checksum of to_vec().
        let mut m = Message::from_user(stream(1000));
        m.push_header(&stream(7)); // Odd-length front.
        let tail = m.split_off(333).unwrap(); // Odd split inside the rope.
        m.append(tail);
        let _ = m.pop_header(3).unwrap(); // Partial pop leaves odd offset.
        let mut popped_to_empty = Message::from_user(stream(5));
        let _ = popped_to_empty.pop_header(5).unwrap(); // Now empty.
        m.append(popped_to_empty); // Appending empties is harmless.

        let mut seg_count = 0;
        m.for_each_segment(|_| seg_count += 1);
        assert!(seg_count >= 2, "rope must actually be fragmented");

        let contiguous = m.to_vec();
        let mut acc = ChecksumAcc::new();
        acc.add_message(&m);
        assert_eq!(acc.finish(), internet_checksum(&[&contiguous]));

        // And with even prefix chunks in front (the pseudo-header shape).
        let pseudo = stream(12);
        let hdr = stream(8);
        let mut acc = ChecksumAcc::new();
        acc.add(&pseudo);
        acc.add(&hdr);
        acc.add_message(&m);
        assert_eq!(
            acc.finish(),
            internet_checksum(&[&pseudo, &hdr, &contiguous])
        );
    }
}
