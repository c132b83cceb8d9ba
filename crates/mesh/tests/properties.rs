//! Property tests for the mesh model, driven by seeded random cases
//! from the in-tree PRNG.

use mesh::{ClusterMode, Topology};
use simfabric::prng::Rng;

/// CHA selection is deterministic and respects the cluster-mode
/// affinity constraint for every address.
#[test]
fn cha_respects_mode_constraints() {
    let mut rng = Rng::seed_from_u64(0x3e54_0003);
    for case in 0..128 {
        let addr = rng.gen_range(0u64..(1u64 << 40));
        let is_mcdram: bool = rng.gen();
        let topo = Topology::knl7210();
        for mode in [
            ClusterMode::Quadrant,
            ClusterMode::Hemisphere,
            ClusterMode::AllToAll,
        ] {
            let port = mode.port_for(&topo, addr, is_mcdram);
            let cha1 = mode.cha_for(&topo, addr, port);
            let cha2 = mode.cha_for(&topo, addr, port);
            assert_eq!(cha1, cha2, "case {case}: non-deterministic CHA");
            match mode {
                ClusterMode::Quadrant => assert_eq!(
                    topo.quadrant_of(cha1),
                    topo.quadrant_of(topo.port(port)),
                    "case {case}"
                ),
                ClusterMode::Hemisphere => assert_eq!(
                    topo.hemisphere_of(cha1),
                    topo.hemisphere_of(topo.port(port)),
                    "case {case}"
                ),
                _ => {}
            }
            // The CHA is always an active tile.
            assert!(topo.tiles.contains(&cha1), "case {case}");
        }
    }
}
