//! A 64-bit FNV-1a digest over output bytes: cheap, stable across
//! platforms and builds, and enough to tell two outputs apart.

/// Running FNV-1a state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// A fresh digest.
    pub fn new() -> Digest {
        Digest::default()
    }

    /// Fold `bytes` in.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold in a length-prefixed section, so that moving bytes from one
    /// section to the next changes the digest.
    pub fn section(&mut self, bytes: &[u8]) {
        self.update(&(bytes.len() as u64).to_le_bytes());
        self.update(bytes);
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}
