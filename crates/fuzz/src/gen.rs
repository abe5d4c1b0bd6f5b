//! Input generators: seeded mutation of valid encodings, and raw byte soup.
//!
//! Both generators are driven by the in-house deterministic
//! [`StdRng`], so a fuzz run is fully reproducible from
//! its seed — a corpus-worthy input found in CI can be regenerated locally
//! from the same `--seed`/iteration count.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use scout_fabric::wire::crc32;
use scout_store::chain_next;
use scout_store::journal::{JOURNAL_VERSION, RECORD_HEADER_LEN, SEGMENT_HEADER_LEN, SEGMENT_MAGIC};
use scout_store::Digest;

use crate::oracle::Surface;

/// Byte offset of the CRC-32 word in a snapshot frame (after the 4-byte
/// magic and the 4-byte version).
const SNAPSHOT_CRC_OFFSET: usize = 8;
/// Total snapshot header length: magic, version, CRC.
const SNAPSHOT_HEADER_LEN: usize = 12;

/// Rewrites a snapshot frame's checksum to match its (possibly mutated)
/// payload, so the mutant penetrates past [`ChecksumMismatch`] into the
/// structural and semantic decode layers under test.
///
/// [`ChecksumMismatch`]: scout_core::SnapshotError::ChecksumMismatch
pub fn restamp_snapshot_crc(bytes: &mut [u8]) {
    if bytes.len() < SNAPSHOT_HEADER_LEN {
        return;
    }
    let crc = crc32(&bytes[SNAPSHOT_HEADER_LEN..]);
    bytes[SNAPSHOT_CRC_OFFSET..SNAPSHOT_HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
}

/// Rewrites a journal segment's checksums and hash chain to match its
/// (possibly mutated) bytes: the header CRC, then every complete record
/// frame's payload CRC, chain digest and frame CRC, walking frames by their
/// length prefixes. Restamping stops at the first frame whose promised
/// payload runs past the buffer (a torn or framing-damaged tail stays as it
/// is). This lets structural mutants penetrate past the CRC and chain gates
/// into the payload decode and epoch-sequencing layers under test.
pub fn restamp_journal(bytes: &mut [u8]) {
    if bytes.len() < SEGMENT_HEADER_LEN {
        return;
    }
    let crc = crc32(&bytes[0..48]);
    bytes[48..52].copy_from_slice(&crc.to_le_bytes());
    let mut chain: Digest = bytes[16..48].try_into().expect("32 bytes");
    let mut offset = SEGMENT_HEADER_LEN;
    while bytes.len() - offset >= RECORD_HEADER_LEN {
        let len =
            u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        if bytes.len() - offset - RECORD_HEADER_LEN < len {
            break;
        }
        let payload_start = offset + RECORD_HEADER_LEN;
        let payload_crc = crc32(&bytes[payload_start..payload_start + len]);
        chain = chain_next(&chain, &bytes[payload_start..payload_start + len]);
        bytes[offset + 4..offset + 8].copy_from_slice(&payload_crc.to_le_bytes());
        bytes[offset + 8..offset + 40].copy_from_slice(&chain);
        let frame_crc = crc32(&bytes[offset..offset + 40]);
        bytes[offset + 40..offset + 44].copy_from_slice(&frame_crc.to_le_bytes());
        offset = payload_start + len;
    }
}

/// One random structural mutation of `bytes`.
fn mutate_once(rng: &mut StdRng, bytes: &mut Vec<u8>) {
    match rng.gen_range(0u8..8) {
        // Flip one bit.
        0 if !bytes.is_empty() => {
            let i = rng.gen_range(0..bytes.len());
            bytes[i] ^= 1 << rng.gen_range(0u8..8);
        }
        // Overwrite one byte.
        1 if !bytes.is_empty() => {
            let i = rng.gen_range(0..bytes.len());
            bytes[i] = rng.gen_range(0u8..=255);
        }
        // Saturate a would-be length prefix: eight 0xFF bytes in place.
        2 if bytes.len() >= 8 => {
            let i = rng.gen_range(0..=bytes.len() - 8);
            bytes[i..i + 8].fill(0xFF);
        }
        // Truncate.
        3 if !bytes.is_empty() => {
            let keep = rng.gen_range(0..bytes.len());
            bytes.truncate(keep);
        }
        // Remove a span.
        4 if !bytes.is_empty() => {
            let start = rng.gen_range(0..bytes.len());
            let len = rng.gen_range(1..=(bytes.len() - start).min(16));
            bytes.drain(start..start + len);
        }
        // Insert random bytes.
        5 => {
            let at = rng.gen_range(0..=bytes.len());
            let insert: Vec<u8> = (0..rng.gen_range(1usize..=16))
                .map(|_| rng.gen_range(0u8..=255))
                .collect();
            bytes.splice(at..at, insert);
        }
        // Duplicate a span (grows repeated-element payloads).
        6 if !bytes.is_empty() => {
            let start = rng.gen_range(0..bytes.len());
            let len = rng.gen_range(1..=(bytes.len() - start).min(32));
            let span: Vec<u8> = bytes[start..start + len].to_vec();
            let at = rng.gen_range(0..=bytes.len());
            bytes.splice(at..at, span);
        }
        // Append trailing garbage (the finish() oracle).
        _ => {
            for _ in 0..rng.gen_range(1usize..=8) {
                bytes.push(rng.gen_range(0u8..=255));
            }
        }
    }
}

/// Produces the next fuzz input for `surface`: usually a mutated seed,
/// sometimes pure byte soup.
pub fn next_input(rng: &mut StdRng, surface: Surface, seeds: &[Vec<u8>]) -> Vec<u8> {
    // 1-in-8 inputs are raw soup; everything else mutates a seed.
    if seeds.is_empty() || rng.gen_range(0u8..8) == 0 {
        let len = rng.gen_range(0usize..2048);
        let mut soup: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
        if surface == Surface::Snapshot && rng.gen_bool(0.5) && soup.len() >= SNAPSHOT_HEADER_LEN {
            // Give half the soup a valid frame so it reaches the payload
            // decoder instead of dying at BadMagic.
            soup[..4].copy_from_slice(b"SCSN");
            soup[4..8].copy_from_slice(&scout_core::SNAPSHOT_VERSION.to_le_bytes());
            restamp_snapshot_crc(&mut soup);
        }
        if surface == Surface::Journal && rng.gen_bool(0.5) && soup.len() >= SEGMENT_HEADER_LEN {
            // Likewise: half the journal soup gets a valid header prologue
            // and fresh stamps so it reaches the record walk.
            soup[..4].copy_from_slice(&SEGMENT_MAGIC);
            soup[4..8].copy_from_slice(&JOURNAL_VERSION.to_le_bytes());
            restamp_journal(&mut soup);
        }
        return soup;
    }

    let mut input = seeds.choose(rng).expect("seeds checked non-empty").clone();
    for _ in 0..rng.gen_range(1usize..=4) {
        mutate_once(rng, &mut input);
    }
    if surface == Surface::Snapshot && rng.gen_bool(0.75) {
        // Most snapshot mutants get a fresh checksum; the rest keep the
        // stale one to exercise the ChecksumMismatch path itself.
        restamp_snapshot_crc(&mut input);
    }
    if surface == Surface::Journal && rng.gen_bool(0.75) {
        // Most journal mutants get fresh CRCs and a recomputed chain so they
        // reach the batch decode and epoch checks; the rest keep the stale
        // stamps to exercise the CRC/chain gates themselves.
        restamp_journal(&mut input);
    }
    input
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use scout_core::Snapshot;

    #[test]
    fn crc_matches_the_snapshot_frame() {
        // Restamping an untouched valid snapshot must be a no-op: the
        // restamp offsets agree with the frame scout-core stamps.
        let seed = crate::seeds::for_surface(Surface::Snapshot)[0].clone();
        let mut restamped = seed.clone();
        restamp_snapshot_crc(&mut restamped);
        assert_eq!(restamped, seed);
        assert!(Snapshot::from_bytes(&restamped).is_ok());
    }

    #[test]
    fn restamped_payload_mutants_pass_the_checksum_gate() {
        let seed = crate::seeds::for_surface(Surface::Snapshot)[0].clone();
        let mut mutant = seed.clone();
        let mid = SNAPSHOT_HEADER_LEN + (mutant.len() - SNAPSHOT_HEADER_LEN) / 2;
        mutant[mid] ^= 0x01;
        restamp_snapshot_crc(&mut mutant);
        // Whatever the decode outcome, it must not be ChecksumMismatch.
        match Snapshot::from_bytes(&mutant) {
            Ok(_) => {}
            Err(err) => {
                let rendered = err.to_string();
                assert!(
                    !rendered.contains("checksum"),
                    "restamp failed to clear the checksum gate: {rendered}"
                );
            }
        }
    }

    #[test]
    fn journal_restamp_is_a_fixpoint_on_valid_segments() {
        // Restamping an untouched valid segment must be a no-op: the frame
        // walk, CRCs and chain agree with what scout-store stamps.
        let seed = crate::seeds::for_surface(Surface::Journal)[0].clone();
        let mut restamped = seed.clone();
        restamp_journal(&mut restamped);
        assert_eq!(restamped, seed);
        assert!(scout_store::decode_segment(&restamped).is_ok());
    }

    #[test]
    fn restamped_journal_mutants_pass_the_crc_and_chain_gates() {
        let seed = crate::seeds::for_surface(Surface::Journal)[0].clone();
        // Flip one payload byte mid-segment, then restamp: whatever the
        // decode outcome, it must not be a CRC or chain failure.
        let mut mutant = seed.clone();
        let mid = SEGMENT_HEADER_LEN + RECORD_HEADER_LEN + 10;
        mutant[mid] ^= 0x01;
        restamp_journal(&mut mutant);
        if let Err(err) = scout_store::decode_segment(&mutant) {
            let rendered = err.to_string();
            assert!(
                !rendered.contains("checksum") && !rendered.contains("chain"),
                "restamp failed to clear the CRC/chain gates: {rendered}"
            );
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let seeds = crate::seeds::for_surface(Surface::EventBatch);
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..50)
                .map(|_| next_input(&mut rng, Surface::EventBatch, seeds))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
