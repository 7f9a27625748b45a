//! Designs every workload draws from, all derived from the workload seed.

use oiso_designs::random::RandomParams;
use oiso_designs::{bundled, Design, BUNDLED_NAMES};

/// One step of the SplitMix64 generator.
pub fn splitmix(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `index`-th seed of stream `tag` under the workload seed.
pub fn derive(seed: u64, tag: &str, index: u64) -> u64 {
    let mut state = seed;
    for b in tag.bytes() {
        state = splitmix(state ^ u64::from(b));
    }
    splitmix(state ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

/// One design of a workload's corpus.
pub struct Entry {
    /// Job-name stem: the bundled name, or `random<i>_<ops>x<width>`
    /// (position and size, not the generator seed, so pinned digests are
    /// keyed by position).
    pub name: String,
    /// The design.
    pub design: Design,
    /// `true` for bundled designs (see [`crate::runner::Job::reference`]).
    pub reference: bool,
}

/// The eight bundled designs as shipped (the reference jobs, the same on
/// every seed), then one seeded random design per entry of `ops`
/// (operator counts) at operand width `width`, its generator seed drawn
/// from the stream `tag` under the workload seed.
pub fn corpus(seed: u64, tag: &str, ops: &[usize], width: u8) -> Vec<Entry> {
    let bundled = BUNDLED_NAMES.iter().map(|&name| Entry {
        name: name.to_string(),
        design: bundled(name).expect("registry name"),
        reference: true,
    });
    let random = ops.iter().enumerate().map(|(i, &n)| {
        let params = RandomParams {
            seed: derive(seed, tag, i as u64),
            ops: n,
            width,
        };
        Entry {
            name: format!("random{i}_{n}x{width}"),
            design: oiso_designs::random::build(&params),
            reference: false,
        }
    });
    bundled.chain(random).collect()
}
