//! Minimal binary wire format shared by every snapshot section: u64
//! little-endian integers, length-prefixed byte strings, and f64s as raw
//! bit patterns (bitwise-exact round trips, no text formatting loss).
//!
//! Deliberately not a serde: the build environment vendors no
//! serialisation framework, the section layouts are tiny, and hand-rolled
//! encoders keep the on-disk format independently readable.

/// Append-only encoder.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a u64, little-endian.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an f64 as its raw bit pattern.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append raw bytes with no length prefix (fixed-size fields, magic).
    #[inline]
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a length-prefixed byte string.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Append a slice of u64s with a length prefix.
    pub fn u64s(&mut self, vs: &[u64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v);
        }
    }

    /// Append a slice of f64s with a length prefix.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor-based decoder over a byte slice. Every read is bounds-checked
/// and returns a descriptive error instead of panicking, so a truncated
/// or foreign file fails cleanly.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Start reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                format!(
                    "truncated snapshot: wanted {n} bytes at offset {}, have {}",
                    self.pos,
                    self.buf.len() - self.pos
                )
            })?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Read a little-endian u64.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Read an f64 from its raw bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read `n` raw bytes (fixed-size fields, magic).
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], String> {
        self.take(n)
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], String> {
        let n = self.u64()? as usize;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, String> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|e| format!("bad utf-8 in snapshot string: {e}"))
    }

    /// Read a length-prefixed slice of u64s.
    pub fn u64s(&mut self) -> Result<Vec<u64>, String> {
        let n = self.u64()? as usize;
        let bytes = self.take(n.checked_mul(8).ok_or("snapshot u64 count overflows")?)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte chunk")))
            .collect())
    }

    /// Read a length-prefixed slice of f64s.
    pub fn f64s(&mut self) -> Result<Vec<f64>, String> {
        let n = self.u64()? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    /// Bytes remaining past the cursor.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless the whole buffer was consumed — catches section
    /// layout drift early.
    pub fn finish(self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after snapshot section",
                self.buf.len() - self.pos
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_kinds() {
        let mut w = WireWriter::new();
        w.u64(42);
        w.f64(-0.5);
        w.str("hello");
        w.bytes(&[1, 2, 3]);
        w.u64s(&[7, 8]);
        w.f64s(&[1.5]);
        w.raw(b"XY");
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.f64().unwrap(), -0.5);
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.u64s().unwrap(), vec![7, 8]);
        assert_eq!(r.f64s().unwrap(), vec![1.5]);
        assert_eq!(r.raw(2).unwrap(), b"XY");
        r.finish().unwrap();
    }

    #[test]
    fn f64_bit_exact() {
        for v in [0.0, -0.0, f64::MIN_POSITIVE, 1.0 / 3.0, f64::INFINITY] {
            let mut w = WireWriter::new();
            w.f64(v);
            let buf = w.into_bytes();
            let got = WireReader::new(&buf).f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = WireWriter::new();
        w.str("hello");
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf[..buf.len() - 1]);
        assert!(r.str().is_err());
        let mut r2 = WireReader::new(&buf);
        r2.str().unwrap();
        assert!(r2.u64().is_err());
    }

    #[test]
    fn finish_flags_trailing_bytes() {
        let mut w = WireWriter::new();
        w.u64(1);
        w.u64(2);
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        r.u64().unwrap();
        assert!(r.finish().is_err());
    }
}
