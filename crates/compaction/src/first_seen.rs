//! First-seen numbering of values known by a 64-bit fingerprint: the
//! pipeline's duplicate removal and grouping's distinct care-core sets
//! both run on it.

// soctam-analyze: allow-file(DET-01) -- the fingerprint table is lookup-only (entry API) and never iterated, so hash order cannot affect an id

use std::collections::hash_map::{Entry, HashMap};

use soctam_exec::FxBuildHasher;

/// End of a fingerprint chain.
const END: u32 = u32::MAX;

/// Numbers distinct values 0, 1, 2, … in the order they are first seen.
///
/// Values are looked up by a 64-bit fingerprint, and the caller confirms
/// every match exactly. Distinct values that share a fingerprint are
/// chained, so a collision costs comparisons, never a wrong answer.
#[derive(Debug)]
pub(crate) struct FirstSeen {
    /// Fingerprint → the newest id with that fingerprint.
    newest: HashMap<u64, u32, FxBuildHasher>,
    /// `older[id]`: the next older id with the same fingerprint, or `END`.
    older: Vec<u32>,
}

impl FirstSeen {
    /// An empty numbering with room for `values` distinct values.
    pub(crate) fn with_capacity(values: usize) -> Self {
        FirstSeen {
            newest: HashMap::with_capacity_and_hasher(values, FxBuildHasher),
            older: Vec::with_capacity(values),
        }
    }

    /// The id of a value with `fingerprint`, and whether this is its
    /// first sighting: an earlier id when `equals(id)` confirms that value
    /// id is the same value, a new id otherwise.
    pub(crate) fn id_of(
        &mut self,
        fingerprint: u64,
        mut equals: impl FnMut(u32) -> bool,
    ) -> (u32, bool) {
        let new = self.older.len() as u32;
        // Fx digests carry their entropy in the high bits; the table
        // indexes by the low ones.
        match self.newest.entry(fingerprint.rotate_left(26)) {
            Entry::Vacant(slot) => {
                slot.insert(new);
                self.older.push(END);
            }
            Entry::Occupied(mut slot) => {
                let mut id = *slot.get();
                while id != END {
                    if equals(id) {
                        return (id, false);
                    }
                    id = self.older[id as usize];
                }
                self.older.push(slot.insert(new));
            }
        }
        (new, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_values_in_first_seen_order() {
        let values = [7u64, 3, 7, 9, 3, 3, 11];
        let mut seen = FirstSeen::with_capacity(4);
        let ids: Vec<(u32, bool)> = values
            .iter()
            .map(|&v| seen.id_of(v, |id| [7u64, 3, 9, 11][id as usize] == v))
            .collect();
        assert_eq!(
            ids,
            [
                (0, true),
                (1, true),
                (0, false),
                (2, true),
                (1, false),
                (1, false),
                (3, true)
            ]
        );
    }

    #[test]
    fn colliding_fingerprints_are_told_apart_exactly() {
        let values = [5u64, 6, 5, 7, 6, 7, 8];
        let mut seen = FirstSeen::with_capacity(0);
        let firsts = [5u64, 6, 7, 8];
        let ids: Vec<u32> = values
            .iter()
            .map(|&v| seen.id_of(0, |id| firsts[id as usize] == v).0)
            .collect();
        assert_eq!(ids, [0, 1, 0, 2, 1, 2, 3]);
    }
}
