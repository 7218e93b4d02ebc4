//! Shared-memory bank-conflict accounting.
//!
//! Kepler SMs expose 32 banks; in 8-byte mode consecutive 64-bit words map
//! to consecutive banks. A warp instruction whose lanes touch `k` *distinct*
//! words in the same bank replays `k - 1` times. Multiple lanes reading the
//! *same* word broadcast without conflict.

use crate::exec::WARP_LANES;

/// Most banks a device may declare.
pub(crate) const MAX_BANKS: usize = 64;

/// Number of extra replays for one warp-wide shared-memory access touching
/// the given 8-byte word indices, one per active lane. `banks` must be a
/// power of two no larger than 64 (`Gpu` construction checks the device's).
pub fn bank_conflict_replays(word_indices: &[usize], banks: usize) -> u64 {
    replays_and_repeats(word_indices, banks).0
}

/// Bank-conflict replays of one warp-wide access, and how many active lanes
/// repeat a word an earlier lane already touched. Allocation-free: a
/// 64-bit mask of each distinct word's low six bits tells a new word from a
/// repeat in one test, and only a word whose low bits an earlier word had
/// compares against the distinct words so far. Each new word adds one to
/// its bank's degree (a word always maps to the same bank, `word & (banks -
/// 1)`), and the busiest bank replays one time fewer than its degree.
pub(crate) fn replays_and_repeats(word_indices: &[usize], banks: usize) -> (u64, u64) {
    assert!(
        banks.is_power_of_two() && banks <= MAX_BANKS,
        "{banks} shared-memory banks; a power of two up to {MAX_BANKS} supported"
    );
    assert!(
        word_indices.len() <= WARP_LANES,
        "{} lanes in one warp access",
        word_indices.len()
    );
    if word_indices.len() < 2 {
        // One lane can neither conflict nor repeat.
        return (0, 0);
    }
    let bank_mask = banks - 1;
    let mut words = [0usize; WARP_LANES];
    let mut degree = [0u8; MAX_BANKS];
    let (mut seen, mut nw, mut max_degree, mut repeats) = (0u64, 0, 0, 0u64);
    for &w in word_indices {
        let low = 1u64 << (w & 63);
        if seen & low != 0 && words[..nw].contains(&w) {
            repeats += 1;
            continue;
        }
        seen |= low;
        words[nw] = w;
        nw += 1;
        let d = &mut degree[w & bank_mask];
        *d += 1;
        max_degree = max_degree.max(*d);
    }
    (u64::from(max_degree.saturating_sub(1)), repeats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_free_sequential_access() {
        let idx: Vec<usize> = (0..32).collect();
        assert_eq!(bank_conflict_replays(&idx, 32), 0);
    }

    #[test]
    fn broadcast_is_free() {
        let idx = [7; 32];
        assert_eq!(bank_conflict_replays(&idx, 32), 0);
    }

    #[test]
    fn stride_two_gives_two_way_conflict() {
        let idx: Vec<usize> = (0..32).map(|l| l * 2).collect();
        assert_eq!(bank_conflict_replays(&idx, 32), 1);
    }

    #[test]
    fn stride_32_fully_serializes() {
        let idx: Vec<usize> = (0..32).map(|l| l * 32).collect();
        assert_eq!(bank_conflict_replays(&idx, 32), 31);
    }

    #[test]
    fn inactive_lanes_ignored() {
        // Only the four active lanes' words are passed.
        let idx: Vec<usize> = (0..4).map(|l| l * 32).collect();
        assert_eq!(bank_conflict_replays(&idx, 32), 3);
    }

    #[test]
    fn empty_warp_no_conflicts() {
        assert_eq!(bank_conflict_replays(&[], 32), 0);
    }

    #[test]
    fn sixteen_banks_fold_sequential_words_two_way() {
        // Words 0..32 over 16 banks: every bank holds two distinct words.
        let idx: Vec<usize> = (0..32).collect();
        assert_eq!(bank_conflict_replays(&idx, 16), 1);
        // Stride 16 puts all 32 words in bank 0.
        let idx: Vec<usize> = (0..32).map(|l| l * 16).collect();
        assert_eq!(bank_conflict_replays(&idx, 16), 31);
    }

    #[test]
    fn sixty_four_banks_absorb_stride_two() {
        // Stride 2 over 64 banks lands every word in its own bank.
        let idx: Vec<usize> = (0..32).map(|l| l * 2).collect();
        assert_eq!(bank_conflict_replays(&idx, 64), 0);
        // Stride 32 over 64 banks alternates between banks 0 and 32.
        let idx: Vec<usize> = (0..32).map(|l| l * 32).collect();
        assert_eq!(bank_conflict_replays(&idx, 64), 15);
    }

    #[test]
    fn duplicate_words_in_one_bank_count_once() {
        // Lanes alternate between words 0 and 32 (both bank 0): two distinct
        // words, one replay, however many lanes repeat them.
        let idx: Vec<usize> = (0..32).map(|l| (l % 2) * 32).collect();
        assert_eq!(bank_conflict_replays(&idx, 32), 1);
        assert_eq!(replays_and_repeats(&idx, 32), (1, 30));
        // Three distinct words in bank 5, each touched by several lanes,
        // next to conflict-free lanes elsewhere.
        let idx: Vec<usize> = (0..32)
            .map(|l| if l < 12 { 5 + (l % 3) * 32 } else { l })
            .collect();
        assert_eq!(replays_and_repeats(&idx, 32), (2, 9));
    }

    #[test]
    #[should_panic(expected = "33 lanes in one warp access")]
    fn more_lanes_than_a_warp_are_rejected() {
        let idx: Vec<usize> = (0..33).collect();
        bank_conflict_replays(&idx, 32);
    }
}
