//! Tile grid and memory-port placement.
//!
//! The KNL die arranges tiles in a 2D grid with the eight MCDRAM EDC
//! ports at the die's corners (two per corner) and the two DDR memory
//! controllers on the left and right edges. The Xeon Phi 7210 used by
//! the paper's testbed has 32 active tiles (64 cores) out of the 38
//! physical sites; we model the active grid as 6 columns × 6 rows with
//! four sites unused, which preserves the average hop distances that
//! matter to the timing model.

/// A grid coordinate (column, row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Column (0 = west edge).
    pub x: u8,
    /// Row (0 = north edge).
    pub y: u8,
}

impl Coord {
    /// Manhattan distance to `other` (the XY-routed hop count).
    pub(crate) fn hops_to(self, other: Coord) -> u32 {
        (self.x.abs_diff(other.x) + self.y.abs_diff(other.y)) as u32
    }
}

/// A memory port on the mesh edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemPort {
    /// One of the eight MCDRAM embedded DRAM controllers.
    Edc(u8),
    /// One of the two DDR memory controllers (each drives 3 channels).
    DdrMc(u8),
}

/// The mesh topology: active tiles and memory-port positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Grid width in tile columns.
    pub cols: u8,
    /// Grid height in tile rows.
    pub rows: u8,
    /// Positions of active tiles, indexed by tile ID.
    pub tiles: Vec<Coord>,
    /// Positions of the eight EDCs (MCDRAM ports).
    pub edcs: Vec<Coord>,
    /// Positions of the two DDR MCs.
    pub ddr_mcs: Vec<Coord>,
}

impl Topology {
    /// The Xeon Phi 7210 layout: 32 active tiles on a 6×6 grid, EDCs
    /// paired at the four corners, DDR MCs mid-height on the west and
    /// east edges.
    pub fn knl7210() -> Self {
        let mut tiles = Vec::with_capacity(32);
        // Skip the four sites nearest the grid centre-columns' top row,
        // mirroring how parts are binned (which sites are fused off
        // varies per die; the choice only perturbs hop averages by a
        // fraction of a hop).
        let inactive = [(2u8, 0u8), (3, 0), (2, 5), (3, 5)];
        for y in 0..6u8 {
            for x in 0..6u8 {
                if inactive.contains(&(x, y)) {
                    continue;
                }
                tiles.push(Coord { x, y });
            }
        }
        debug_assert_eq!(tiles.len(), 32);
        Topology {
            cols: 6,
            rows: 6,
            tiles,
            edcs: vec![
                Coord { x: 0, y: 0 },
                Coord { x: 1, y: 0 },
                Coord { x: 4, y: 0 },
                Coord { x: 5, y: 0 },
                Coord { x: 0, y: 5 },
                Coord { x: 1, y: 5 },
                Coord { x: 4, y: 5 },
                Coord { x: 5, y: 5 },
            ],
            ddr_mcs: vec![Coord { x: 0, y: 2 }, Coord { x: 5, y: 2 }],
        }
    }

    /// Position of a memory port.
    pub fn port(&self, port: MemPort) -> Coord {
        match port {
            MemPort::Edc(i) => self.edcs[i as usize],
            MemPort::DdrMc(i) => self.ddr_mcs[i as usize],
        }
    }

    /// The quadrant (0–3) a coordinate belongs to: west/east split at
    /// `cols/2`, north/south at `rows/2`.
    pub fn quadrant_of(&self, c: Coord) -> u8 {
        let east = (c.x >= self.cols / 2) as u8;
        let south = (c.y >= self.rows / 2) as u8;
        south * 2 + east
    }

    /// The hemisphere (0–1) a coordinate belongs s to (west/east).
    pub fn hemisphere_of(&self, c: Coord) -> u8 {
        (c.x >= self.cols / 2) as u8
    }

    /// Average tile-to-tile hop count (all ordered active pairs).
    pub(crate) fn avg_tile_hops(&self) -> f64 {
        let n = self.tiles.len();
        let total: u32 = self
            .tiles
            .iter()
            .flat_map(|&a| self.tiles.iter().map(move |&b| a.hops_to(b)))
            .sum();
        total as f64 / (n * n) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knl7210_has_32_tiles_8_edcs_2_mcs() {
        let t = Topology::knl7210();
        assert_eq!(t.tiles.len(), 32);
        assert_eq!(t.edcs.len(), 8);
        assert_eq!(t.ddr_mcs.len(), 2);
    }

    #[test]
    fn hops_are_manhattan_and_symmetric() {
        let a = Coord { x: 0, y: 0 };
        let b = Coord { x: 3, y: 4 };
        assert_eq!(a.hops_to(b), 7);
        assert_eq!(b.hops_to(a), 7);
        assert_eq!(a.hops_to(a), 0);
    }

    #[test]
    fn quadrants_partition_the_die() {
        let t = Topology::knl7210();
        let mut counts = [0u32; 4];
        for &c in &t.tiles {
            counts[t.quadrant_of(c) as usize] += 1;
        }
        // 32 tiles, 4 inactive sites split evenly: 8 per quadrant.
        assert_eq!(counts, [8, 8, 8, 8]);
        // Two EDCs per quadrant.
        let mut edcs = [0u32; 4];
        for &c in &t.edcs {
            edcs[t.quadrant_of(c) as usize] += 1;
        }
        assert_eq!(edcs, [2, 2, 2, 2]);
    }

    #[test]
    fn hemispheres_split_east_west() {
        let t = Topology::knl7210();
        assert_eq!(t.hemisphere_of(Coord { x: 0, y: 3 }), 0);
        assert_eq!(t.hemisphere_of(Coord { x: 5, y: 3 }), 1);
    }

    #[test]
    fn avg_hops_is_reasonable_for_6x6() {
        // For a uniform 6x6 grid the mean Manhattan distance is ~3.9;
        // the active-tile subset should be close.
        let t = Topology::knl7210();
        let avg = t.avg_tile_hops();
        assert!(avg > 3.0 && avg < 4.5, "avg hops {avg}");
    }

    #[test]
    fn ports_resolve() {
        let t = Topology::knl7210();
        assert_eq!(t.port(MemPort::Edc(0)), Coord { x: 0, y: 0 });
        assert_eq!(t.port(MemPort::DdrMc(1)), Coord { x: 5, y: 2 });
    }
}
