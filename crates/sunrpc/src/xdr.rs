//! XDR — Sun's eXternal Data Representation (RFC 1014 subset).
//!
//! Sun RPC's headers and credentials are XDR-encoded; this is the encoding
//! substrate for the Mix-and-Match decomposition. Everything is big-endian
//! and padded to 4-byte boundaries.

use xkernel::prelude::*;

/// Serializes XDR items.
#[derive(Debug, Default)]
pub struct XdrWriter {
    buf: Vec<u8>,
}

impl XdrWriter {
    /// A fresh writer.
    pub fn new() -> XdrWriter {
        XdrWriter::default()
    }

    /// A fresh writer with room for `len` bytes, for an encoding whose size
    /// is known up front.
    pub(crate) fn with_capacity(len: usize) -> XdrWriter {
        XdrWriter {
            buf: Vec::with_capacity(len),
        }
    }

    /// Encodes a `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Encodes an `i32`.
    pub fn i32(&mut self, v: i32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Encodes a `u64` as an XDR hyper.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Encodes a bool (XDR: 4-byte 0/1).
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u32(u32::from(v))
    }

    /// Encodes variable-length opaque data: length then bytes, padded to 4.
    pub fn opaque(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        let pad = (4 - v.len() % 4) % 4;
        self.buf.extend(std::iter::repeat_n(0u8, pad));
        self
    }

    /// Encodes a string as opaque UTF-8.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.opaque(s.as_bytes())
    }

    /// Finishes and returns the encoded bytes (always 4-byte aligned).
    pub fn finish(self) -> Vec<u8> {
        debug_assert_eq!(self.buf.len() % 4, 0);
        self.buf
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Deserializes XDR items.
#[derive(Debug)]
pub struct XdrReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> XdrReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> XdrReader<'a> {
        XdrReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> XResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|e| *e <= self.buf.len())
            .ok_or(Reject::Corrupt("xdr: truncated"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Decodes a `u32`.
    pub fn u32(&mut self) -> XResult<u32> {
        let s = self.take(4)?;
        Ok(u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Decodes an `i32`.
    pub fn i32(&mut self) -> XResult<i32> {
        Ok(self.u32()? as i32)
    }

    /// Decodes a `u64` hyper.
    pub fn u64(&mut self) -> XResult<u64> {
        let hi = u64::from(self.u32()?);
        let lo = u64::from(self.u32()?);
        Ok((hi << 32) | lo)
    }

    /// Decodes a bool.
    pub fn bool(&mut self) -> XResult<bool> {
        match self.u32()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(Reject::Corrupt("xdr: bool out of range").into()),
        }
    }

    /// Decodes variable-length opaque data.
    pub fn opaque(&mut self) -> XResult<&'a [u8]> {
        let len = self.u32()? as usize;
        if len > self.buf.len() {
            return Err(Reject::Corrupt("xdr: opaque too long").into());
        }
        let data = self.take(len)?;
        let pad = (4 - len % 4) % 4;
        self.take(pad)?;
        Ok(data)
    }

    /// Decodes a UTF-8 string.
    pub fn string(&mut self) -> XResult<String> {
        let data = self.opaque()?;
        String::from_utf8(data.to_vec())
            .map_err(|_| Reject::Corrupt("xdr: string is not utf-8").into())
    }

    /// Bytes consumed so far.
    pub fn consumed(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = XdrWriter::new();
        w.u32(42).i32(-7).u64(0xdead_beef_cafe_f00d).bool(true);
        let b = w.finish();
        assert_eq!(b.len(), 4 + 4 + 8 + 4);
        let mut r = XdrReader::new(&b);
        assert_eq!(r.u32().unwrap(), 42);
        assert_eq!(r.i32().unwrap(), -7);
        assert_eq!(r.u64().unwrap(), 0xdead_beef_cafe_f00d);
        assert!(r.bool().unwrap());
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn opaque_padding() {
        for len in 0..9usize {
            let data: Vec<u8> = (0..len as u8).collect();
            let mut w = XdrWriter::new();
            w.opaque(&data);
            let b = w.finish();
            assert_eq!(b.len() % 4, 0, "alignment for len {len}");
            let mut r = XdrReader::new(&b);
            assert_eq!(r.opaque().unwrap(), &data[..]);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn string_roundtrip() {
        let mut w = XdrWriter::new();
        w.string("x-kernel");
        let b = w.finish();
        let mut r = XdrReader::new(&b);
        assert_eq!(r.string().unwrap(), "x-kernel");
    }

    #[test]
    fn truncation_is_an_error() {
        let mut w = XdrWriter::new();
        w.u32(5);
        let b = w.finish();
        let mut r = XdrReader::new(&b[..2]);
        assert!(r.u32().is_err());
        // Opaque longer than the buffer must not panic.
        let mut w = XdrWriter::new();
        w.u32(1000);
        let b = w.finish();
        let mut r = XdrReader::new(&b);
        assert!(r.opaque().is_err());
    }

    #[test]
    fn bad_bool_rejected() {
        let mut w = XdrWriter::new();
        w.u32(2);
        let b = w.finish();
        assert!(XdrReader::new(&b).bool().is_err());
    }
}
