//! The exact kriged-answer memo of the hybrid evaluator.
//!
//! A kriged answer is a pure function of the session state it was solved
//! in: the stored sites, the variogram model and whether the approximate
//! path screens neighbours (the settings, the nugget among them, are fixed
//! for the session's life). [`Stamp`] names that state bit for bit — the
//! store is append-only, so its size names its content. The memo keeps the
//! accepted answers solved at one stamp; asked at any other stamp it
//! answers nothing and forgets them all at the next [`KrigedMemo::keep`],
//! so a recalled answer is exactly the answer a fresh solve would return.
//!
//! Storage is an open-addressed table of `2 × CAPACITY` slots plus a
//! key slab and an answer list of [`CAPACITY`] entries each, allocated on
//! the first kept answer and never again: forgetting bumps a generation
//! number instead of clearing the slots, and a full memo keeps nothing
//! more until its stamp changes. Keys can come from a server client, so
//! the bound matters: configurations crafted to collide cost at most
//! [`CAPACITY`] probes per query, about one solve, in their own session.

/// Most answers kept at one stamp. Later answers at the same stamp are
/// solved every time they are asked for.
pub(super) const CAPACITY: usize = 1024;

/// Table slots: twice [`CAPACITY`], so the load stays at most ½ and probe
/// chains stay short. A power of two.
const SLOTS: usize = 2 * CAPACITY;

/// The session state a kriging solve reads, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Stamp {
    /// Stored sites (append-only, so the size names the content).
    pub(super) store_len: usize,
    /// Variogram-model parameter bits.
    pub(super) model: [u64; 4],
    /// Whether the validated approximate path screens neighbours.
    pub(super) approx: bool,
}

/// One accepted kriged answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct Kriged {
    /// The interpolated value `λ̂`.
    pub(super) value: f64,
    /// The kriging variance σ².
    pub(super) variance: f64,
    /// Neighbours in the system.
    pub(super) neighbors: usize,
    /// Jitter-ladder rungs the solve escalated through.
    pub(super) retries: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// The memo generation that filled the slot; any other means empty.
    generation: u64,
    /// High half of the key's hash, to skip most key comparisons.
    tag: u32,
    /// Index into the key slab and the answer list.
    entry: u32,
}

/// Accepted kriged answers of one session state, keyed by configuration.
#[derive(Debug, Default)]
pub(super) struct KrigedMemo {
    /// The state every kept answer was solved in.
    stamp: Option<Stamp>,
    /// Slots of other generations are empty. Starts at 0 with no slots
    /// allocated; the first [`KrigedMemo::keep`] moves it to 1.
    generation: u64,
    /// Configuration length, fixed by the first kept answer.
    dim: usize,
    slots: Vec<Slot>,
    /// `answers.len() × dim` keys, entry-major.
    keys: Vec<i32>,
    answers: Vec<Kriged>,
}

impl KrigedMemo {
    /// The answer solved for `config` at `stamp`, if one was kept.
    pub(super) fn recall(&self, stamp: &Stamp, config: &[i32]) -> Option<Kriged> {
        if self.stamp.as_ref() != Some(stamp) || config.len() != self.dim {
            return None;
        }
        let (_, found) = self.find(config);
        found
            .ok()
            .map(|i| self.answers[self.slots[i].entry as usize])
    }

    /// Keeps `answer`, solved for `config` at `stamp`. Answers kept at
    /// another stamp are forgotten first; a full memo keeps nothing.
    pub(super) fn keep(&mut self, stamp: Stamp, config: &[i32], answer: Kriged) {
        if self.stamp != Some(stamp) {
            self.forget();
            self.stamp = Some(stamp);
        }
        if self.slots.is_empty() {
            self.dim = config.len();
            self.slots = vec![Slot::default(); SLOTS];
            self.keys.reserve_exact(CAPACITY * self.dim);
            self.answers.reserve_exact(CAPACITY);
        }
        if self.answers.len() == CAPACITY || config.len() != self.dim {
            return;
        }
        // A kept answer stays: the same state gives the same answer.
        if let (tag, Err(i)) = self.find(config) {
            self.slots[i] = Slot {
                generation: self.generation,
                tag,
                entry: self.answers.len() as u32,
            };
            self.keys.extend_from_slice(config);
            self.answers.push(answer);
        }
    }

    /// Forgets every kept answer in O(1); the storage stays allocated.
    pub(super) fn forget(&mut self) {
        self.stamp = None;
        self.generation += 1;
        self.keys.clear();
        self.answers.clear();
    }

    /// Linear probe for `config`: its hash tag, and the slot holding it
    /// (`Ok`) or the empty slot it would take (`Err`). Terminates because
    /// at most half the slots are ever full.
    fn find(&self, config: &[i32]) -> (u32, Result<usize, usize>) {
        let hash = hash(config);
        let tag = (hash >> 32) as u32;
        let mut i = hash as usize & (SLOTS - 1);
        loop {
            let slot = self.slots[i];
            if slot.generation != self.generation {
                return (tag, Err(i));
            }
            if slot.tag == tag && self.key(slot.entry as usize) == config {
                return (tag, Ok(i));
            }
            i = (i + 1) & (SLOTS - 1);
        }
    }

    fn key(&self, entry: usize) -> &[i32] {
        &self.keys[entry * self.dim..(entry + 1) * self.dim]
    }
}

/// Multiply–rotate hash of a configuration with a SplitMix64 finish, so
/// configurations a ±1 step apart spread over the whole table.
fn hash(config: &[i32]) -> u64 {
    let mut h = config.len() as u64;
    for &x in config {
        h = (h.rotate_left(5) ^ u64::from(x as u32)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(store_len: usize) -> Stamp {
        Stamp {
            store_len,
            model: [1, 2, 3, 4],
            approx: false,
        }
    }

    fn answer(value: f64) -> Kriged {
        Kriged {
            value,
            variance: 0.5,
            neighbors: 9,
            retries: 0,
        }
    }

    #[test]
    fn recalls_only_at_the_stamp_it_kept() {
        let mut memo = KrigedMemo::default();
        assert_eq!(memo.recall(&stamp(5), &[1, 2]), None);
        memo.keep(stamp(5), &[1, 2], answer(1.0));
        assert_eq!(memo.recall(&stamp(5), &[1, 2]), Some(answer(1.0)));
        assert_eq!(memo.recall(&stamp(5), &[2, 1]), None);
        assert_eq!(memo.recall(&stamp(6), &[1, 2]), None);
        let other_model = Stamp {
            model: [1, 2, 3, 5],
            ..stamp(5)
        };
        assert_eq!(memo.recall(&other_model, &[1, 2]), None);
        // Keeping at a new stamp forgets the old one's answers.
        memo.keep(stamp(6), &[3, 4], answer(2.0));
        assert_eq!(memo.recall(&stamp(5), &[1, 2]), None);
        assert_eq!(memo.recall(&stamp(6), &[1, 2]), None);
        assert_eq!(memo.recall(&stamp(6), &[3, 4]), Some(answer(2.0)));
        memo.forget();
        assert_eq!(memo.recall(&stamp(6), &[3, 4]), None);
    }

    #[test]
    fn a_full_memo_keeps_what_it_has_and_nothing_more() {
        let mut memo = KrigedMemo::default();
        let config = |i: usize| [i as i32 % 37, i as i32 / 37];
        for i in 0..CAPACITY + 100 {
            memo.keep(stamp(1), &config(i), answer(i as f64));
        }
        for i in 0..CAPACITY + 100 {
            let expected = (i < CAPACITY).then(|| answer(i as f64));
            assert_eq!(memo.recall(&stamp(1), &config(i)), expected, "{i}");
        }
        // A new stamp empties it again.
        memo.keep(stamp(2), &config(CAPACITY), answer(-1.0));
        assert_eq!(
            memo.recall(&stamp(2), &config(CAPACITY)),
            Some(answer(-1.0))
        );
        assert_eq!(memo.recall(&stamp(2), &config(0)), None);
    }

    #[test]
    fn other_dimensions_are_neither_kept_nor_recalled() {
        let mut memo = KrigedMemo::default();
        memo.keep(stamp(1), &[1, 2], answer(1.0));
        memo.keep(stamp(1), &[1, 2, 3], answer(2.0));
        assert_eq!(memo.recall(&stamp(1), &[1, 2, 3]), None);
        assert_eq!(memo.recall(&stamp(1), &[1]), None);
    }
}
