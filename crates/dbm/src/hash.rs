//! A fast word-at-a-time hasher for in-process maps.

use std::hash::Hasher;

/// A fast word-at-a-time hasher for maps keyed by solver data.
///
/// Discrete states, dense ids and precomputed hashes hash as short runs of
/// machine words, so a multiply-mix per word is sufficient and several times
/// cheaper than `SipHash`'s per-call setup and finalization.  It offers no
/// HashDoS resistance: use it only for maps whose keys an adversary does not
/// choose (interned ids, the output of a randomly keyed hash, maps built once
/// from solver output and only probed), and keep a randomly keyed `SipHash`
/// for maps grown from untrusted input.
#[derive(Default)]
pub struct StateHasher(u64);

impl StateHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        // Rotate-xor-multiply, word-at-a-time (the fxhash construction).
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for StateHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.mix(i as u64);
    }
}
