//! Byte-addressed data memory (little endian).

use core::fmt;

/// Error produced by an out-of-range or misaligned access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessError {
    /// Offending address.
    pub addr: u32,
    /// Access width in bytes.
    pub width: u8,
    /// Whether the failure is a misalignment (else: out of range).
    pub misaligned: bool,
}

impl fmt::Display for AccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.misaligned {
            write!(
                f,
                "misaligned {}-byte access at address {:#x}",
                self.width, self.addr
            )
        } else {
            write!(
                f,
                "out-of-range {}-byte access at address {:#x}",
                self.width, self.addr
            )
        }
    }
}

impl std::error::Error for AccessError {}

/// log2 of the page size.
const PAGE_BITS: u32 = 12;
/// Bytes per page.
const PAGE_SIZE: usize = 1 << PAGE_BITS;
/// Offset-within-page mask.
const PAGE_MASK: usize = PAGE_SIZE - 1;
/// FNV prime of [`Memory::digest`].
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// `FNV_PRIME` to the power `n` (mod 2^64), by repeated squaring.
fn fnv_prime_pow(mut n: usize) -> u64 {
    let (mut p, mut base) = (1u64, FNV_PRIME);
    while n > 0 {
        if n & 1 == 1 {
            p = p.wrapping_mul(base);
        }
        base = base.wrapping_mul(base);
        n >>= 1;
    }
    p
}

type Page = [u8; PAGE_SIZE];

/// A fresh zeroed page, built out of line so the page-sized temporary
/// never lands in the frame of a function the accessors inline into.
#[cold]
#[inline(never)]
fn zeroed_page() -> Box<Page> {
    Box::new([0; PAGE_SIZE])
}

/// Little-endian memory for the simulator, allocated one 4 KiB page at
/// a time on first store.
///
/// The address space is `0..size()` and behaves exactly like a flat
/// zeroed byte array of that size: an untouched page reads as zero,
/// every access is range- and alignment-checked against `size()`, and
/// [`Memory::digest`] absorbs the same bytes a flat array would. A core
/// whose kernels touch a few kilobytes therefore costs a few kilobytes,
/// not the configured megabyte. Aligned 1/2/4-byte accesses never cross
/// a page.
///
/// # Examples
///
/// ```
/// use xr32::mem::Memory;
///
/// let mut m = Memory::new(1024);
/// m.store_u32(0x10, 0xdeadbeef)?;
/// assert_eq!(m.load_u32(0x10)?, 0xdeadbeef);
/// assert_eq!(m.load_u8(0x10)?, 0xef); // little endian
/// assert_eq!(m.load_u32(0x20)?, 0); // untouched memory reads as zero
/// # Ok::<(), xr32::mem::AccessError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Memory {
    size: usize,
    /// `None` until the page's first store.
    pages: Vec<Option<Box<Page>>>,
}

impl Memory {
    /// Creates `size` bytes of zeroed memory. No page is allocated
    /// until it is first stored to.
    pub fn new(size: usize) -> Self {
        Memory {
            size,
            pages: vec![None; size.div_ceil(PAGE_SIZE)],
        }
    }

    /// Memory size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    fn check(&self, addr: u32, width: u8) -> Result<usize, AccessError> {
        let a = addr as usize;
        if !a.is_multiple_of(width as usize) {
            return Err(AccessError {
                addr,
                width,
                misaligned: true,
            });
        }
        if a + width as usize > self.size {
            return Err(AccessError {
                addr,
                width,
                misaligned: false,
            });
        }
        Ok(a)
    }

    /// The page holding `a`, if it has been stored to.
    fn page(&self, a: usize) -> Option<&Page> {
        self.pages[a >> PAGE_BITS].as_deref()
    }

    /// The page holding `a`, allocated (zeroed) on first use.
    fn page_mut(&mut self, a: usize) -> &mut Page {
        self.pages[a >> PAGE_BITS].get_or_insert_with(zeroed_page)
    }

    /// Offset of the `N`-aligned address `a` within its page. Masking
    /// off the alignment bits too (a no-op on a checked address) lets
    /// the compiler see that `N` bytes from it fit in the page.
    fn offset<const N: usize>(a: usize) -> usize {
        a & PAGE_MASK & !(N - 1)
    }

    /// Loads `N` bytes at a checked, `N`-aligned address.
    fn load<const N: usize>(&self, a: usize) -> [u8; N] {
        match self.page(a) {
            Some(p) => {
                let o = Self::offset::<N>(a);
                p[o..o + N].try_into().expect("width checked")
            }
            None => [0; N],
        }
    }

    /// Stores `N` bytes at a checked, `N`-aligned address.
    fn store<const N: usize>(&mut self, a: usize, v: [u8; N]) {
        let o = Self::offset::<N>(a);
        self.page_mut(a)[o..o + N].copy_from_slice(&v);
    }

    /// Loads a byte.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] when the address is out of range.
    #[inline]
    pub fn load_u8(&self, addr: u32) -> Result<u8, AccessError> {
        let a = self.check(addr, 1)?;
        Ok(self.load::<1>(a)[0])
    }

    /// Stores a byte.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] when the address is out of range.
    #[inline]
    pub fn store_u8(&mut self, addr: u32, v: u8) -> Result<(), AccessError> {
        let a = self.check(addr, 1)?;
        self.store(a, [v]);
        Ok(())
    }

    /// Loads a halfword (16-bit aligned).
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] on misalignment or out-of-range.
    #[inline]
    pub fn load_u16(&self, addr: u32) -> Result<u16, AccessError> {
        let a = self.check(addr, 2)?;
        Ok(u16::from_le_bytes(self.load(a)))
    }

    /// Stores a halfword (16-bit aligned).
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] on misalignment or out-of-range.
    #[inline]
    pub fn store_u16(&mut self, addr: u32, v: u16) -> Result<(), AccessError> {
        let a = self.check(addr, 2)?;
        self.store(a, v.to_le_bytes());
        Ok(())
    }

    /// Loads a word (32-bit aligned).
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] on misalignment or out-of-range.
    #[inline]
    pub fn load_u32(&self, addr: u32) -> Result<u32, AccessError> {
        let a = self.check(addr, 4)?;
        Ok(u32::from_le_bytes(self.load(a)))
    }

    /// Stores a word (32-bit aligned).
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] on misalignment or out-of-range.
    #[inline]
    pub fn store_u32(&mut self, addr: u32, v: u32) -> Result<(), AccessError> {
        let a = self.check(addr, 4)?;
        self.store(a, v.to_le_bytes());
        Ok(())
    }

    /// Checks that `len` bytes from `addr` lie inside memory.
    fn check_region(&self, addr: u32, len: usize) -> Result<usize, AccessError> {
        let a = addr as usize;
        if a + len > self.size {
            return Err(AccessError {
                addr,
                width: 1,
                misaligned: false,
            });
        }
        Ok(a)
    }

    /// Copies a byte slice into memory at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] if the region exceeds memory.
    pub fn write_bytes(&mut self, addr: u32, mut data: &[u8]) -> Result<(), AccessError> {
        let mut a = self.check_region(addr, data.len())?;
        while !data.is_empty() {
            let o = a & PAGE_MASK;
            let n = data.len().min(PAGE_SIZE - o);
            self.page_mut(a)[o..o + n].copy_from_slice(&data[..n]);
            a += n;
            data = &data[n..];
        }
        Ok(())
    }

    /// Reads `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] if the region exceeds memory.
    pub fn read_bytes(&self, addr: u32, len: usize) -> Result<Vec<u8>, AccessError> {
        let mut a = self.check_region(addr, len)?;
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let o = a & PAGE_MASK;
            let n = (len - out.len()).min(PAGE_SIZE - o);
            match self.page(a) {
                Some(p) => out.extend_from_slice(&p[o..o + n]),
                None => out.resize(out.len() + n, 0),
            }
            a += n;
        }
        Ok(out)
    }

    /// 64-bit FNV-1a-style digest over the full memory contents. Used
    /// by the dual-fidelity co-simulation checks to compare
    /// whole-memory architectural state without copying it out.
    /// Absorbs eight little-endian bytes per round (not the byte-wise
    /// reference FNV), then the `size() % 8` trailing bytes one per
    /// round, so digesting a megabyte core stays cheap enough to sample
    /// after every sweep. An untouched page costs a few multiplications.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (i, page) in self.pages.iter().enumerate() {
            let len = (self.size - (i << PAGE_BITS)).min(PAGE_SIZE);
            let Some(page) = page else {
                // Absorbing zero leaves `h` unchanged, so each round of
                // an untouched page is one multiplication by the prime.
                h = h.wrapping_mul(fnv_prime_pow(len / 8 + len % 8));
                continue;
            };
            let mut chunks = page[..len].chunks_exact(8);
            for c in &mut chunks {
                h ^= u64::from_le_bytes(c.try_into().expect("width checked"));
                h = h.wrapping_mul(FNV_PRIME);
            }
            for &b in chunks.remainder() {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
        h
    }

    /// Writes a slice of `u32` words (little-endian) starting at `addr`
    /// (must be 4-byte aligned).
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] on misalignment or overflow.
    pub fn write_words(&mut self, addr: u32, words: &[u32]) -> Result<(), AccessError> {
        for (i, &w) in words.iter().enumerate() {
            self.store_u32(addr + 4 * i as u32, w)?;
        }
        Ok(())
    }

    /// Reads `n` `u32` words starting at `addr` (4-byte aligned).
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] on misalignment or overflow.
    pub fn read_words(&self, addr: u32, n: usize) -> Result<Vec<u32>, AccessError> {
        (0..n).map(|i| self.load_u32(addr + 4 * i as u32)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new(64);
        m.store_u32(0, 0x0102_0304).unwrap();
        assert_eq!(m.load_u8(0).unwrap(), 0x04);
        assert_eq!(m.load_u8(3).unwrap(), 0x01);
        assert_eq!(m.load_u16(0).unwrap(), 0x0304);
        assert_eq!(m.load_u16(2).unwrap(), 0x0102);
    }

    #[test]
    fn misaligned_accesses_rejected() {
        let mut m = Memory::new(64);
        assert!(m.load_u32(2).unwrap_err().misaligned);
        assert!(m.store_u16(1, 0).unwrap_err().misaligned);
        assert!(m.load_u8(1).is_ok());
    }

    #[test]
    fn out_of_range_rejected() {
        let mut m = Memory::new(16);
        assert!(!m.load_u32(16).unwrap_err().misaligned);
        assert!(m.store_u8(15, 1).is_ok());
        assert!(m.store_u8(16, 1).is_err());
        assert!(m.write_bytes(10, &[0; 7]).is_err());
    }

    #[test]
    fn bulk_words_roundtrip() {
        let mut m = Memory::new(256);
        let words = [1u32, 2, 3, 0xffff_ffff];
        m.write_words(0x40, &words).unwrap();
        assert_eq!(m.read_words(0x40, 4).unwrap(), words);
    }

    #[test]
    fn bulk_bytes_roundtrip() {
        let mut m = Memory::new(64);
        m.write_bytes(5, b"hello").unwrap();
        assert_eq!(m.read_bytes(5, 5).unwrap(), b"hello");
    }
}
