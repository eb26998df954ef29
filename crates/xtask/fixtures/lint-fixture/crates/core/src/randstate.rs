//! no-random-state fixture: maps on `RandomState` in shipped library code
//! (`crates/<k>/src`). Each live site below must trip; the fixed-key alias,
//! the annotated site and the test module stay clean.

use std::collections::{HashMap, HashSet};

pub type DetHashMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<std::hash::DefaultHasher>>;

pub fn per_node(pages: &[(usize, u64)]) -> Vec<u64> {
    let mut by_node: HashMap<usize, Vec<u64>> = HashMap::new(); // trips no-random-state
    for (node, page) in pages {
        by_node.entry(*node).or_default().push(*page);
    }
    by_node.into_values().flatten().collect() // ...and this order is why
}

pub fn seen() -> HashSet<u64> {
    HashSet::with_capacity(8) // trips no-random-state
}

pub struct Index<S = std::collections::hash_map::RandomState>(pub HashMap<u64, u64, S>); // trips

pub fn fixed_keys_are_clean() -> DetHashMap<u64, u64> {
    DetHashMap::default()
}

pub fn annotated_is_clean() -> HashSet<u64> {
    // lint: allow(no-random-state) fixture: handed to a caller that only tests membership
    HashSet::new()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_use_any_hasher() {
        let _ = std::collections::HashMap::<u8, u8>::new();
    }
}
