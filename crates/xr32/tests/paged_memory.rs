//! Paged [`Memory`] behaves exactly like the flat zeroed byte array it
//! models: every load, store, bulk copy and error agrees with a flat
//! `Vec<u8>` reference, and `digest` absorbs the same bytes as the flat
//! FNV loop — for sizes that are not multiples of the page or digest
//! width, and for memory nobody has stored to.

use proptest::prelude::*;
use xr32::mem::{AccessError, Memory};

/// The flat reference model: a zeroed `Vec<u8>` with the documented
/// range and alignment rules.
struct Flat(Vec<u8>);

impl Flat {
    fn check(&self, addr: u32, width: u8) -> Result<usize, AccessError> {
        let a = addr as usize;
        if !a.is_multiple_of(width as usize) {
            return Err(AccessError {
                addr,
                width,
                misaligned: true,
            });
        }
        if a + width as usize > self.0.len() {
            return Err(AccessError {
                addr,
                width,
                misaligned: false,
            });
        }
        Ok(a)
    }

    fn load(&self, addr: u32, width: u8) -> Result<u32, AccessError> {
        let a = self.check(addr, width)?;
        let mut v = 0u32;
        for i in (0..width as usize).rev() {
            v = v << 8 | u32::from(self.0[a + i]);
        }
        Ok(v)
    }

    fn store(&mut self, addr: u32, width: u8, v: u32) -> Result<(), AccessError> {
        let a = self.check(addr, width)?;
        self.0[a..a + width as usize].copy_from_slice(&v.to_le_bytes()[..width as usize]);
        Ok(())
    }

    fn write_bytes(&mut self, addr: u32, data: &[u8]) -> Result<(), AccessError> {
        let a = self.bulk(addr, data.len())?;
        self.0[a..a + data.len()].copy_from_slice(data);
        Ok(())
    }

    fn read_bytes(&self, addr: u32, len: usize) -> Result<Vec<u8>, AccessError> {
        let a = self.bulk(addr, len)?;
        Ok(self.0[a..a + len].to_vec())
    }

    /// Bulk copies report a width-1 range error.
    fn bulk(&self, addr: u32, len: usize) -> Result<usize, AccessError> {
        let a = addr as usize;
        if a + len > self.0.len() {
            return Err(AccessError {
                addr,
                width: 1,
                misaligned: false,
            });
        }
        Ok(a)
    }

    /// The flat digest loop `Memory::digest` must reproduce.
    fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut chunks = self.0.chunks_exact(8);
        for c in &mut chunks {
            h ^= u64::from_le_bytes(c.try_into().unwrap());
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        for &b in chunks.remainder() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }
}

fn load(m: &Memory, addr: u32, width: u8) -> Result<u32, AccessError> {
    match width {
        1 => m.load_u8(addr).map(u32::from),
        2 => m.load_u16(addr).map(u32::from),
        _ => m.load_u32(addr),
    }
}

fn store(m: &mut Memory, addr: u32, width: u8, v: u32) -> Result<(), AccessError> {
    match width {
        1 => m.store_u8(addr, v as u8),
        2 => m.store_u16(addr, v as u16),
        _ => m.store_u32(addr, v),
    }
}

/// Picks an address that is usually in range, often at a page or
/// memory edge, and sometimes anywhere in the 32-bit space.
fn pick_addr(size: usize, sel: u8, raw: u32) -> u32 {
    let size = size as u64;
    let a = match sel {
        0 => u64::from(raw),
        1 => size.saturating_sub(u64::from(raw % 12)),
        2 => {
            let boundary = (u64::from(raw >> 8) % (size / 4096 + 1)) * 4096;
            (boundary + u64::from(raw % 8)).saturating_sub(4)
        }
        _ => u64::from(raw) % (size + 16),
    };
    a as u32
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn paged_memory_matches_a_flat_byte_array(
        size in prop::sample::select(vec![16usize, 60, 4100, 12290, 1 << 20]),
        ops in prop::collection::vec(
            (0u8..8, 0u8..6, any::<u32>(), any::<u32>(), 0usize..40),
            0..120,
        ),
    ) {
        let mut m = Memory::new(size);
        let mut flat = Flat(vec![0; size]);
        prop_assert_eq!(m.size(), size);
        // Untouched memory reads and digests as zeros.
        prop_assert_eq!(m.digest(), flat.digest());
        for (kind, sel, raw, val, len) in ops {
            let addr = pick_addr(size, sel, raw);
            let width = [1u8, 2, 4][(val % 3) as usize];
            match kind {
                0..=2 => prop_assert_eq!(load(&m, addr, width), flat.load(addr, width)),
                3..=4 => prop_assert_eq!(
                    store(&mut m, addr, width, val),
                    flat.store(addr, width, val)
                ),
                5 => {
                    let data: Vec<u8> = (0..len).map(|i| val.rotate_left(i as u32) as u8).collect();
                    prop_assert_eq!(m.write_bytes(addr, &data), flat.write_bytes(addr, &data));
                }
                6 => prop_assert_eq!(m.read_bytes(addr, len), flat.read_bytes(addr, len)),
                _ => {
                    // Word writes stop at the first failing word, having
                    // stored the ones before it.
                    let words: Vec<u32> = (0..len / 4).map(|i| val ^ i as u32).collect();
                    let mut expect = Ok(());
                    for (i, &w) in words.iter().enumerate() {
                        expect = flat.store(addr.wrapping_add(4 * i as u32), 4, w);
                        if expect.is_err() {
                            break;
                        }
                    }
                    prop_assert_eq!(m.write_words(addr, &words), expect);
                }
            }
        }
        prop_assert_eq!(m.read_bytes(0, size).unwrap(), flat.0.clone());
        prop_assert_eq!(m.digest(), flat.digest());
        prop_assert_eq!(m.clone().digest(), flat.digest());
    }
}

#[test]
fn untouched_sizes_digest_like_flat_zeros() {
    for size in [0, 1, 7, 8, 9, 16, 60, 4095, 4096, 4097, 4100, 8191, 1 << 20] {
        let m = Memory::new(size);
        let flat = Flat(vec![0; size]);
        assert_eq!(m.digest(), flat.digest(), "size {size}");
        assert_eq!(m.read_bytes(0, size).unwrap(), flat.0, "size {size}");
    }
}
