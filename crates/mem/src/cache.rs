//! A generic set-associative, write-back cache with true-LRU replacement.
//!
//! The same structure backs the CPU cache levels (with `V = ()`) and the
//! security-metadata cache in the memory controller (with `V = Node64`),
//! because the paper's cache-tree is built directly on the metadata
//! cache's set/way organization (§III-E) — so set membership and
//! within-set ordering must be first-class here.

/// A line evicted to make room for an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted<V> {
    /// The address (line index) of the victim.
    pub addr: u64,
    /// Whether the victim was dirty (needs a write-back).
    pub dirty: bool,
    /// The victim's payload.
    pub value: V,
}

/// Result of [`SetAssocCache::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertOutcome<V> {
    /// The victim evicted by LRU, if the set was full.
    pub evicted: Option<Evicted<V>>,
}

/// A set-associative cache mapping line addresses to payloads.
///
/// Replacement is true LRU within each set. The set index is
/// `addr % num_sets`, matching the line-interleaved indexing of the
/// modeled caches.
///
/// Storage is structure-of-arrays over flat `num_sets * ways` slot
/// arrays: a contiguous tag array (`addrs`) that probes scan, parallel
/// dirty flags and payload slots, and a per-set recency list (`order`)
/// of one-byte way ids in LRU→MRU order. Payloads stay in their slot for
/// their whole residency — a recency update rotates a few bytes of
/// `order` instead of memmoving payloads (the metadata cache's payload
/// is a whole cached node), and the tag scan touches one cache line per
/// set. The contiguous layout also keeps cloning a populated cache (as
/// a whole-machine `fork` does) a handful of allocation-free memcpys.
///
/// ```
/// use star_mem::SetAssocCache;
/// let mut c: SetAssocCache<u32> = SetAssocCache::new(2, 2);
/// c.insert(0, 10, false);
/// c.insert(2, 20, true); // same set as 0
/// let out = c.insert(4, 30, false); // evicts LRU (addr 0)
/// assert_eq!(out.evicted.unwrap().addr, 0);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<V> {
    /// Tags: `addrs[set * ways + way]` is the address cached in that way,
    /// or [`NO_ADDR`] for an empty way.
    addrs: Vec<u64>,
    /// Dirty flags, parallel to `addrs`.
    dirty: Vec<bool>,
    /// Payloads, parallel to `addrs` (meaningful iff the way is
    /// occupied; empty ways hold `V::default()` so the array stays a
    /// plain contiguous block with no per-way discriminant).
    values: Vec<V>,
    /// Per-set recency lists: `order[set * ways..][..lens[set]]` holds
    /// way ids (< `ways`) in LRU→MRU order.
    order: Vec<u8>,
    /// Resident ways per set.
    lens: Vec<u32>,
    ways: usize,
    /// `num_sets - 1` when the set count is a power of two (the modeled
    /// geometries all are), letting the per-probe set index be a mask
    /// instead of a hardware divide; `None` falls back to `%`.
    set_mask: Option<u64>,
}

/// Tag stored in empty ways. No modeled address space reaches it: line
/// indices and flat metadata indices are far below `u64::MAX`.
const NO_ADDR: u64 = u64::MAX;

impl<V: Default> SetAssocCache<V> {
    /// Creates a cache with `num_sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` is zero, or `ways` is zero or above 256 (way
    /// ids are stored as bytes).
    pub fn new(num_sets: usize, ways: usize) -> Self {
        assert!(num_sets > 0, "cache needs at least one set");
        assert!(ways > 0, "cache needs at least one way");
        assert!(ways <= 256, "way ids are stored as bytes");
        Self {
            addrs: vec![NO_ADDR; num_sets * ways],
            dirty: vec![false; num_sets * ways],
            values: (0..num_sets * ways).map(|_| V::default()).collect(),
            order: vec![0; num_sets * ways],
            lens: vec![0; num_sets],
            ways,
            set_mask: num_sets.is_power_of_two().then_some(num_sets as u64 - 1),
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.lens.len()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total capacity in lines.
    pub fn capacity_lines(&self) -> usize {
        self.addrs.len()
    }

    /// Lines currently resident.
    pub fn len(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.lens.iter().all(|&l| l == 0)
    }

    /// The set index `addr` maps to.
    #[inline]
    pub fn set_of(&self, addr: u64) -> usize {
        match self.set_mask {
            Some(mask) => (addr & mask) as usize,
            None => (addr % self.lens.len() as u64) as usize,
        }
    }

    /// The slot holding `addr`, if resident: one linear scan of the
    /// set's contiguous tag array.
    #[inline]
    fn slot_of(&self, addr: u64) -> Option<usize> {
        let base = self.set_of(addr) * self.ways;
        self.addrs[base..base + self.ways]
            .iter()
            .position(|&a| a == addr)
            .map(|w| base + w)
    }

    /// Moves the way holding `slot` to MRU in its set's recency list.
    #[inline]
    fn promote(&mut self, slot: usize) {
        let set = slot / self.ways;
        let base = set * self.ways;
        let len = self.lens[set] as usize;
        let way = (slot - base) as u8;
        let order = &mut self.order[base..base + len];
        if let Some(pos) = order.iter().position(|&w| w == way) {
            order[pos..].rotate_left(1);
        }
    }

    /// True if `addr` is resident (no recency update).
    pub fn contains(&self, addr: u64) -> bool {
        self.slot_of(addr).is_some()
    }

    /// True if `addr` is resident and dirty (no recency update).
    pub fn is_dirty(&self, addr: u64) -> bool {
        self.slot_of(addr).is_some_and(|i| self.dirty[i])
    }

    /// Looks up `addr` without updating recency or dirtiness.
    pub fn peek(&self, addr: u64) -> Option<&V> {
        self.slot_of(addr).map(|i| &self.values[i])
    }

    /// Looks up `addr` with its dirty flag, without updating recency.
    pub fn peek_entry(&self, addr: u64) -> Option<(&V, bool)> {
        self.slot_of(addr).map(|i| (&self.values[i], self.dirty[i]))
    }

    /// Looks up `addr`, marking it most-recently-used.
    pub fn get_mut(&mut self, addr: u64) -> Option<&mut V> {
        let slot = self.slot_of(addr)?;
        self.promote(slot);
        Some(&mut self.values[slot])
    }

    /// Touches `addr` (recency only). Returns true if it was resident.
    pub fn touch(&mut self, addr: u64) -> bool {
        self.get_mut(addr).is_some()
    }

    /// If `addr` is resident, replaces its value, sets its dirty flag and
    /// marks it MRU — the combined write-hit update, one probe instead of
    /// a `contains`/`get_mut`/`set_dirty` sequence. Returns residency.
    pub fn update(&mut self, addr: u64, value: V, dirty: bool) -> bool {
        match self.slot_of(addr) {
            None => false,
            Some(slot) => {
                self.values[slot] = value;
                self.dirty[slot] = dirty;
                self.promote(slot);
                true
            }
        }
    }

    /// If `addr` is resident and dirty, clears the dirty flag and returns
    /// the payload (the `clwb` write-back step). No recency update.
    pub fn clean_if_dirty(&mut self, addr: u64) -> Option<&V> {
        let slot = self.slot_of(addr)?;
        if !self.dirty[slot] {
            return None;
        }
        self.dirty[slot] = false;
        Some(&self.values[slot])
    }

    /// If `addr` is resident and *clean*, replaces its value and marks it
    /// MRU (installing a fill without clobbering newer dirty content).
    /// Returns true if the value was installed.
    pub fn fill_clean(&mut self, addr: u64, value: V) -> bool {
        match self.slot_of(addr) {
            Some(slot) if !self.dirty[slot] => {
                self.values[slot] = value;
                self.promote(slot);
                true
            }
            _ => false,
        }
    }

    /// Inserts `addr` with `value`, marking it MRU; evicts LRU on overflow.
    ///
    /// If `addr` is already resident its value and dirtiness are replaced.
    pub fn insert(&mut self, addr: u64, value: V, dirty: bool) -> InsertOutcome<V> {
        debug_assert_ne!(addr, NO_ADDR, "NO_ADDR is reserved for empty ways");
        if let Some(slot) = self.slot_of(addr) {
            self.values[slot] = value;
            self.dirty[slot] = dirty;
            self.promote(slot);
            return InsertOutcome { evicted: None };
        }
        let set = self.set_of(addr);
        let base = set * self.ways;
        let len = self.lens[set] as usize;
        let (way, evicted) = if len >= self.ways {
            // Reuse the LRU victim's slot; its order entry rotates from
            // front to back below.
            let way = self.order[base] as usize;
            let slot = base + way;
            self.order[base..base + len].rotate_left(1);
            let victim = Evicted {
                addr: self.addrs[slot],
                dirty: self.dirty[slot],
                value: std::mem::take(&mut self.values[slot]),
            };
            (way, Some(victim))
        } else {
            // First empty way: tags of empty ways are NO_ADDR.
            let way = self.addrs[base..base + self.ways]
                .iter()
                .position(|&a| a == NO_ADDR)
                .expect("set below capacity has an empty way");
            self.lens[set] = len as u32 + 1;
            self.order[base + len] = way as u8;
            (way, None)
        };
        let slot = base + way;
        self.addrs[slot] = addr;
        self.dirty[slot] = dirty;
        self.values[slot] = value;
        InsertOutcome { evicted }
    }

    /// Sets the dirty bit of a resident line. Returns the previous dirty
    /// state, or `None` if absent. Does not update recency.
    pub fn set_dirty(&mut self, addr: u64, dirty: bool) -> Option<bool> {
        let slot = self.slot_of(addr)?;
        let was = self.dirty[slot];
        self.dirty[slot] = dirty;
        Some(was)
    }

    /// Removes `addr`, returning its payload and dirtiness.
    pub fn remove(&mut self, addr: u64) -> Option<(V, bool)> {
        let slot = self.slot_of(addr)?;
        let set = self.set_of(addr);
        let base = set * self.ways;
        let len = self.lens[set] as usize;
        let way = (slot - base) as u8;
        let order = &mut self.order[base..base + len];
        if let Some(pos) = order.iter().position(|&w| w == way) {
            order[pos..].rotate_left(1);
        }
        self.lens[set] = len as u32 - 1;
        self.addrs[slot] = NO_ADDR;
        let value = std::mem::take(&mut self.values[slot]);
        let dirty = self.dirty[slot];
        self.dirty[slot] = false;
        Some((value, dirty))
    }

    /// The LRU victim of the set `addr` maps to, if that set is full.
    pub fn victim_for(&self, addr: u64) -> Option<(u64, bool)> {
        let set = self.set_of(addr);
        if (self.lens[set] as usize) >= self.ways {
            let slot = set * self.ways + self.order[set * self.ways] as usize;
            Some((self.addrs[slot], self.dirty[slot]))
        } else {
            None
        }
    }

    /// The slots of set `set_index` in recency order (LRU first) — the
    /// canonical iteration order every bulk view uses, so reports stay
    /// byte-identical to the packed-slot layout this replaces.
    fn set_slots(&self, set_index: usize) -> impl Iterator<Item = usize> + '_ {
        let base = set_index * self.ways;
        self.order[base..base + self.lens[set_index] as usize]
            .iter()
            .map(move |&w| base + w as usize)
    }

    /// Iterates over `(addr, dirty, &value)` of every resident line
    /// (set-major, LRU→MRU within each set).
    pub fn iter(&self) -> impl Iterator<Item = (u64, bool, &V)> {
        (0..self.num_sets()).flat_map(move |s| {
            self.set_slots(s)
                .map(move |slot| (self.addrs[slot], self.dirty[slot], &self.values[slot]))
        })
    }

    /// Iterates over `(addr, dirty, &value)` in one set (recency order,
    /// LRU first).
    pub fn iter_set(&self, set_index: usize) -> impl Iterator<Item = (u64, bool, &V)> {
        self.set_slots(set_index)
            .map(move |slot| (self.addrs[slot], self.dirty[slot], &self.values[slot]))
    }

    /// Number of dirty resident lines.
    pub fn dirty_count(&self) -> usize {
        self.iter().filter(|&(_, d, _)| d).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(4, 2);
        assert!(c.get_mut(8).is_none());
        c.insert(8, 1, false);
        assert_eq!(*c.get_mut(8).unwrap(), 1);
        assert!(c.contains(8));
        assert!(!c.contains(12));
    }

    #[test]
    fn lru_within_set() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 2);
        c.insert(1, 1, false);
        c.insert(2, 2, false);
        c.touch(1); // 2 becomes LRU
        let out = c.insert(3, 3, false);
        assert_eq!(out.evicted.unwrap().addr, 2);
    }

    #[test]
    fn eviction_reports_dirty_payload() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 1);
        c.insert(1, 42, true);
        let out = c.insert(2, 0, false);
        let ev = out.evicted.unwrap();
        assert!(ev.dirty);
        assert_eq!(ev.value, 42);
    }

    #[test]
    fn sets_are_independent() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(2, 1);
        c.insert(0, 0, false); // set 0
        let out = c.insert(1, 1, false); // set 1
        assert!(out.evicted.is_none());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn set_dirty_transitions() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(1, 4);
        c.insert(1, (), false);
        assert_eq!(c.set_dirty(1, true), Some(false));
        assert!(c.is_dirty(1));
        assert_eq!(c.set_dirty(1, true), Some(true));
        assert_eq!(c.set_dirty(99, true), None);
        assert_eq!(c.dirty_count(), 1);
    }

    #[test]
    fn reinsert_replaces_value_and_dirty() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 2);
        c.insert(1, 10, true);
        let out = c.insert(1, 20, false);
        assert!(out.evicted.is_none());
        assert_eq!(c.len(), 1);
        assert_eq!(*c.peek(1).unwrap(), 20);
        assert!(!c.is_dirty(1));
    }

    #[test]
    fn victim_prediction_matches_eviction() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 2);
        c.insert(1, 1, true);
        c.insert(2, 2, false);
        let predicted = c.victim_for(4).unwrap();
        let actual = c.insert(4, 4, false).evicted.unwrap();
        assert_eq!(predicted, (actual.addr, actual.dirty));
    }

    #[test]
    fn reinsert_of_mid_set_line_keeps_lru_order() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 3);
        c.insert(1, 1, false);
        c.insert(2, 2, false);
        c.insert(3, 3, false);
        c.insert(2, 20, false); // 2 becomes MRU; order is now 1, 3, 2
        let order: Vec<u64> = c.iter_set(0).map(|(a, _, _)| a).collect();
        assert_eq!(order, vec![1, 3, 2]);
        assert_eq!(c.insert(4, 4, false).evicted.unwrap().addr, 1);
    }

    #[test]
    fn remove_mid_set_preserves_order_and_capacity() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 3);
        c.insert(1, 1, false);
        c.insert(2, 2, true);
        c.insert(3, 3, false);
        assert_eq!(c.remove(2), Some((2, true)));
        assert_eq!(c.len(), 2);
        let order: Vec<u64> = c.iter_set(0).map(|(a, _, _)| a).collect();
        assert_eq!(order, vec![1, 3]);
        c.insert(4, 4, false);
        assert!(c.insert(5, 5, false).evicted.is_some(), "set is full again");
    }

    #[test]
    fn combined_ops_match_their_split_equivalents() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 3);
        c.insert(1, 1, false);
        c.insert(2, 2, false);
        // update = value + dirty + MRU, one probe.
        assert!(c.update(1, 10, true));
        assert!(!c.update(9, 9, true));
        assert_eq!(c.peek_entry(1), Some((&10, true)));
        assert_eq!(c.insert(3, 3, false).evicted, None);
        assert_eq!(c.victim_for(4), Some((2, false)), "1 was promoted");
        // clean_if_dirty drains the dirty bit exactly once.
        assert_eq!(c.clean_if_dirty(1), Some(&10));
        assert_eq!(c.clean_if_dirty(1), None);
        // fill_clean refuses dirty lines, installs into clean ones.
        c.set_dirty(2, true);
        assert!(!c.fill_clean(2, 99));
        assert_eq!(c.peek(2), Some(&2));
        assert!(c.fill_clean(1, 77));
        assert_eq!(c.peek(1), Some(&77));
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn zero_sets_rejected() {
        SetAssocCache::<()>::new(0, 1);
    }
}
