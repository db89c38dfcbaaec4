//! Segment geometry and on-disk segment summaries.
//!
//! The log-structured logical disk divides the device into 512 KB segments
//! (the MIT LLD's size, which the paper uses). Each segment's first block
//! is its *summary*: the logical owner of every data slot, so a mounted
//! volume (or a cleaner) can tell live blocks from dead ones.

use fscore::{FsError, FsResult};

/// Device blocks per segment (512 KB / 4 KB).
pub const SEG_BLOCKS: u64 = 128;
/// Data slots per segment (one block goes to the summary).
pub const SEG_DATA: u64 = SEG_BLOCKS - 1;
/// Sentinel for "no owner" / unmapped.
pub const NONE: u32 = u32::MAX;
/// Summary magic ("LSEG").
pub const SUMMARY_MAGIC: u32 = 0x4C53_4547;

/// Byte length of the checksummed summary header: magic, fill, seq, owner
/// table and data checksum.
const HEAD_BYTES: usize = 16 + SEG_DATA as usize * 4 + 8;

/// The checksum protecting summaries and checkpoints. A crash can tear the
/// multi-block segment flush (summary first, data after); the checksums let
/// mount detect and discard such segments instead of replaying garbage.
///
/// This is FNV-1a lifted from bytes to 64-bit words: the byte-serial
/// multiply chain priced every 512 KB seal at a millisecond of host time,
/// so each step folds in eight bytes at once. The digest is a pure function
/// of the concatenated byte stream (chunk boundaries never change it — a
/// carry buffer regroups bytes across chunks), and the total length is
/// folded into the final step so streams differing only in trailing zeros
/// stay distinct.
pub fn fnv64(chunks: &[&[u8]]) -> u64 {
    let mut h = Fnv64::new();
    for chunk in chunks {
        h.update(chunk);
    }
    h.finish()
}

/// The resumable form of [`fnv64`]: feed the byte stream in any number of
/// [`update`](Fnv64::update) calls and read the digest of everything fed
/// so far with [`finish`](Fnv64::finish), which leaves the state intact so
/// the stream can keep growing. An open segment keeps one of these, so each
/// flush hashes only the slots appended since the previous one.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    h: u64,
    /// Bytes of a not-yet-complete word, regrouped across chunks.
    carry: [u8; 8],
    pending: usize,
    total: u64,
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv64 {
    /// The digest state of the empty stream.
    pub fn new() -> Self {
        Self {
            h: 0xcbf2_9ce4_8422_2325,
            carry: [0; 8],
            pending: 0,
            total: 0,
        }
    }

    /// Append `chunk` to the stream.
    pub fn update(&mut self, chunk: &[u8]) {
        self.total += chunk.len() as u64;
        let mut rest = chunk;
        if self.pending > 0 {
            let take = (8 - self.pending).min(rest.len());
            self.carry[self.pending..self.pending + take].copy_from_slice(&rest[..take]);
            self.pending += take;
            rest = &rest[take..];
            if self.pending < 8 {
                // The chunk ran out before completing a word; keep the
                // partial carry for the next chunk.
                return;
            }
            self.h = (self.h ^ u64::from_le_bytes(self.carry)).wrapping_mul(FNV_PRIME);
        }
        let mut words = rest.chunks_exact(8);
        for w in &mut words {
            let word = u64::from_le_bytes(w.try_into().expect("chunk of 8"));
            self.h = (self.h ^ word).wrapping_mul(FNV_PRIME);
        }
        let tail = words.remainder();
        self.carry[..tail.len()].copy_from_slice(tail);
        self.pending = tail.len();
    }

    /// The digest of the stream so far.
    pub fn finish(&self) -> u64 {
        let mut h = self.h;
        if self.pending > 0 {
            let mut last = self.carry;
            last[self.pending..].fill(0);
            h = (h ^ u64::from_le_bytes(last)).wrapping_mul(FNV_PRIME);
        }
        (h ^ self.total).wrapping_mul(FNV_PRIME)
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-segment bookkeeping state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegState {
    /// No live data; available for writing.
    Free,
    /// Sealed on disk, may contain live and dead blocks.
    Dirty,
    /// The segment currently accepting appends (in memory).
    Open,
}

/// In-memory image of a segment summary block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    /// Logical owner of each data slot (NONE = never written).
    pub owners: Vec<u32>,
    /// Number of slots actually appended.
    pub fill: u32,
    /// Monotonic flush sequence: every summary written to disk (partial
    /// flush or seal) gets a fresh value, so mount-time roll-forward can
    /// order segments and skip ones older than the checkpoint.
    pub seq: u64,
    /// Checksum over the `fill` data blocks flushed with this summary.
    /// Roll-forward verifies it before trusting the segment: if the crash
    /// tore the flush after the summary block but before (all of) the data
    /// landed, the mismatch exposes it.
    pub data_csum: u64,
}

impl Summary {
    /// An empty summary.
    pub fn empty() -> Self {
        Self {
            owners: vec![NONE; SEG_DATA as usize],
            fill: 0,
            seq: 0,
            data_csum: 0,
        }
    }

    /// Serialise into a block image of `block_size` bytes. The header is
    /// sealed with its own checksum so a torn summary write (partial
    /// sectors of the summary block itself) is detectable.
    pub fn encode(&self, block_size: usize) -> Vec<u8> {
        let mut b = vec![0u8; block_size];
        self.encode_into(&mut b);
        b
    }

    /// [`Summary::encode`] into an existing block buffer (every byte of
    /// `b` is overwritten).
    pub fn encode_into(&self, b: &mut [u8]) {
        b.fill(0);
        b[0..4].copy_from_slice(&SUMMARY_MAGIC.to_le_bytes());
        b[4..8].copy_from_slice(&self.fill.to_le_bytes());
        b[8..16].copy_from_slice(&self.seq.to_le_bytes());
        for (i, o) in self.owners.iter().enumerate() {
            let off = 16 + i * 4;
            b[off..off + 4].copy_from_slice(&o.to_le_bytes());
        }
        let data_off = 16 + SEG_DATA as usize * 4;
        b[data_off..data_off + 8].copy_from_slice(&self.data_csum.to_le_bytes());
        let head_csum = fnv64(&[&b[..HEAD_BYTES]]);
        b[HEAD_BYTES..HEAD_BYTES + 8].copy_from_slice(&head_csum.to_le_bytes());
    }

    /// Decode a summary block, verifying the header checksum.
    pub fn decode(buf: &[u8]) -> FsResult<Summary> {
        if buf.len() < HEAD_BYTES + 8 {
            return Err(FsError::Invalid("summary block too small"));
        }
        if u32::from_le_bytes(buf[0..4].try_into().expect("slice of 4")) != SUMMARY_MAGIC {
            return Err(FsError::Invalid("bad segment summary magic"));
        }
        let stored = u64::from_le_bytes(
            buf[HEAD_BYTES..HEAD_BYTES + 8]
                .try_into()
                .expect("slice of 8"),
        );
        if fnv64(&[&buf[..HEAD_BYTES]]) != stored {
            return Err(FsError::Invalid("segment summary checksum mismatch"));
        }
        let fill = u32::from_le_bytes(buf[4..8].try_into().expect("slice of 4"));
        if fill > SEG_DATA as u32 {
            return Err(FsError::Invalid("summary fill out of range"));
        }
        let seq = u64::from_le_bytes(buf[8..16].try_into().expect("slice of 8"));
        let mut owners = Vec::with_capacity(SEG_DATA as usize);
        for i in 0..SEG_DATA as usize {
            let off = 16 + i * 4;
            owners.push(u32::from_le_bytes(
                buf[off..off + 4].try_into().expect("slice of 4"),
            ));
        }
        let data_off = 16 + SEG_DATA as usize * 4;
        let data_csum = u64::from_le_bytes(
            buf[data_off..data_off + 8]
                .try_into()
                .expect("slice of 8"),
        );
        Ok(Summary {
            owners,
            fill,
            seq,
            data_csum,
        })
    }
}

/// Map a global data-slot number to its segment and slot index.
#[inline]
pub fn slot_to_seg(slot: u64) -> (u32, u32) {
    ((slot / SEG_DATA) as u32, (slot % SEG_DATA) as u32)
}

/// Map (segment, slot index) to the global slot number.
#[inline]
pub fn seg_to_slot(seg: u32, idx: u32) -> u64 {
    seg as u64 * SEG_DATA + idx as u64
}

/// Device block holding a data slot.
#[inline]
pub fn slot_device_block(slot: u64) -> u64 {
    let (seg, idx) = slot_to_seg(slot);
    seg as u64 * SEG_BLOCKS + 1 + idx as u64
}

/// Device block holding a segment's summary.
#[inline]
pub fn summary_block(seg: u32) -> u64 {
    seg as u64 * SEG_BLOCKS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_roundtrip() {
        let mut s = Summary::empty();
        s.owners[0] = 5;
        s.owners[126] = 99;
        s.fill = 2;
        s.seq = 77;
        s.data_csum = 0xDEAD_BEEF_F00D;
        let img = s.encode(4096);
        assert_eq!(Summary::decode(&img).unwrap(), s);
    }

    #[test]
    fn tampered_summary_header_rejected() {
        let mut img = Summary::empty().encode(4096);
        img[20] ^= 0x01; // flip one owner bit
        assert!(Summary::decode(&img).is_err(), "checksum must catch tamper");
    }

    #[test]
    fn bad_summary_rejected() {
        assert!(Summary::decode(&vec![0u8; 4096]).is_err());
        assert!(Summary::decode(&[0u8; 10]).is_err());
        let mut s = Summary::empty().encode(4096);
        s[4] = 0xFF; // fill > SEG_DATA
        s[5] = 0xFF;
        assert!(Summary::decode(&s).is_err());
    }

    #[test]
    fn fnv64_depends_only_on_the_byte_stream() {
        let data: Vec<u8> = (0..100u8).collect();
        let whole = fnv64(&[&data]);
        // Any chunking of the same stream must digest identically.
        assert_eq!(fnv64(&[&data[..3], &data[3..]]), whole);
        assert_eq!(fnv64(&[&data[..8], &data[8..64], &data[64..]]), whole);
        assert_eq!(fnv64(&[&[], &data, &[]]), whole);
        // Different streams must (overwhelmingly) differ — including ones
        // that only differ by trailing zeros.
        assert_ne!(fnv64(&[&data[..99]]), whole);
        assert_ne!(fnv64(&[&[0u8; 8]]), fnv64(&[&[0u8; 16]]));
        assert_ne!(fnv64(&[&[]]), fnv64(&[&[0u8]]));
    }

    #[test]
    fn resumable_digest_matches_one_shot_at_every_prefix() {
        let data: Vec<u8> = (0..200u8).map(|b| b.wrapping_mul(37)).collect();
        let mut h = Fnv64::new();
        let mut fed = 0;
        // Uneven steps, so word boundaries fall inside and between chunks;
        // `finish` mid-stream must not disturb later updates.
        for step in [0usize, 3, 5, 8, 13, 1, 16, 7, 40, 107] {
            h.update(&data[fed..fed + step]);
            fed += step;
            assert_eq!(h.finish(), fnv64(&[&data[..fed]]), "prefix {fed}");
        }
    }

    #[test]
    fn slot_addressing_roundtrip() {
        for slot in [0u64, 1, 126, 127, 128, 1000] {
            let (seg, idx) = slot_to_seg(slot);
            assert_eq!(seg_to_slot(seg, idx), slot);
        }
        assert_eq!(slot_device_block(0), 1, "slot 0 skips the summary");
        assert_eq!(slot_device_block(127), 129, "second segment starts at 128");
        assert_eq!(summary_block(1), 128);
    }
}
