//! Property tests for the lane table: no double grant and conservation
//! of occupancy under arbitrary allocate/release interleavings.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wormsim_lanes::{LaneAllocatorKind, LaneConfig, LaneTable};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn allocator_never_double_grants_and_conserves_occupancy(
        lanes in 2u32..=8,
        channels in 1usize..=4,
        seed in 0u64..10_000,
        ops in 20usize..200,
    ) {
        let cfg = LaneConfig::new(lanes, LaneAllocatorKind::FirstFree).expect("valid multi-lane config");
        let mut table = LaneTable::new(channels, &cfg);
        let mut rng = SmallRng::seed_from_u64(seed);
        // Shadow model: the set of held lanes per channel.
        let mut held: Vec<Vec<u16>> = vec![Vec::new(); channels];
        for _ in 0..ops {
            let ch = rng.gen_range(0..channels);
            let release = !held[ch].is_empty() && rng.gen_range(0..3) == 0;
            if release {
                let i = rng.gen_range(0..held[ch].len());
                let lane = held[ch].swap_remove(i);
                table.release(ch, lane);
                prop_assert!(table.is_free(ch, lane), "released lane must be free");
            } else {
                match table.allocate(ch) {
                    Some(lane) => {
                        prop_assert!(lane < lanes as u16, "lane index in range");
                        prop_assert!(
                            !held[ch].contains(&lane),
                            "double grant of channel {ch} lane {lane}"
                        );
                        prop_assert!(!table.is_free(ch, lane), "granted lane must be busy");
                        held[ch].push(lane);
                    }
                    None => prop_assert_eq!(
                        held[ch].len(),
                        lanes as usize,
                        "allocate may only fail with every lane held"
                    ),
                }
            }
            // Conservation: the table's occupancy equals the shadow set's.
            for (c, h) in held.iter().enumerate() {
                prop_assert_eq!(table.occupied(c) as usize, h.len());
                prop_assert_eq!(table.free_lanes(c) as usize, lanes as usize - h.len());
            }
        }
    }

    #[test]
    fn full_channel_rejects_and_drains_in_any_order(
        lanes in 2u32..=6,
        seed in 0u64..1_000,
    ) {
        let cfg = LaneConfig::new(lanes, LaneAllocatorKind::FirstFree).expect("valid");
        let mut table = LaneTable::new(1, &cfg);
        let mut granted: Vec<u16> = (0..lanes).map(|_| table.allocate(0).expect("free")).collect();
        // All lanes distinct — the pigeonhole form of no-double-grant.
        let mut sorted = granted.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), lanes as usize, "grants must be distinct lanes");
        prop_assert!(table.allocate(0).is_none(), "full channel must refuse");
        // Release in a seed-shuffled order; the table drains to empty.
        let mut rng = SmallRng::seed_from_u64(seed);
        while !granted.is_empty() {
            let i = rng.gen_range(0..granted.len());
            table.release(0, granted.swap_remove(i));
        }
        prop_assert_eq!(table.free_lanes(0), lanes);
        prop_assert_eq!(table.occupied(0), 0);
    }
}
