//! A fixed host-speed reference: a benchmark-local kernel of random
//! hash-map updates over a small (~6 MiB) and a large (~60 MiB) working
//! set. It shares no code with the simulator, so a simulator change
//! cannot move it, but it slows down with the host (contention from
//! co-located work) much as the simulator does.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

type Map = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

/// `(keys, updates per kernel call)` of the small and the large map.
const SMALL: (u64, u64) = (200_000, 100_000);
const LARGE: (u64, u64) = (2_000_000, 60_000);

/// Host ns one kernel call takes on the reference host; host times are
/// reported scaled to it. (On a quiet 2-core 2.0 GHz Xeon VM the call
/// takes about this long.)
pub const REFERENCE_NS: f64 = 25e6;

/// The calibration kernel and its maps.
pub struct Calib {
    small: Map,
    large: Map,
}

fn filled(keys: u64) -> Map {
    (0..keys).map(|k| (k, k)).collect()
}

/// `updates` pseudo-random read-modify-writes over `map`'s keys.
fn updates(map: &mut Map, (keys, updates): (u64, u64)) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for _ in 0..updates {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = x % keys;
        *map.entry(k).or_insert(0) += 1;
        acc = acc.wrapping_add(map.get(&(k ^ 1)).copied().unwrap_or(0));
    }
    acc
}

impl Calib {
    /// Builds the maps (not timed).
    pub fn new() -> Calib {
        Calib {
            small: filled(SMALL.0),
            large: filled(LARGE.0),
        }
    }

    /// Runs the kernel once and returns its host ns.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        black_box(updates(&mut self.small, SMALL) ^ updates(&mut self.large, LARGE));
        t.elapsed().as_nanos() as f64
    }
}
