//! Flat per-line (or per-page) state.
//!
//! The simulator keeps a few bytes of state per cache line it has seen —
//! which components touched it (Fig. 4), its last off-chip event (Fig. 9) —
//! and a mapped bit per page. The keys are dense: the bump [`Allocator`]
//! hands out two ranges from fixed bases. [`LineTable`] stores the state in
//! flat chunks of [`LineTable::CHUNK`] entries, allocated on first touch, so
//! a lookup is an index computation instead of a hash probe.
//!
//! [`Allocator`]: crate::Allocator

use std::fmt;

/// Key bits resolved inside one chunk.
const CHUNK_BITS: u32 = 12;
/// Chunk-number bits resolved inside one directory.
const DIR_BITS: u32 = 12;
/// No chunk number: chunk numbers are keys shifted right, so they stay
/// below `u64::MAX`.
const NO_CHUNK: u64 = u64::MAX;

/// Entries of type `T` keyed by line or page number, in chunks of
/// [`CHUNK`](Self::CHUNK) consecutive keys that are allocated (filled with
/// `T::default()`) on first touch.
///
/// A lookup first checks the chunk used last, which catches every
/// sequential sweep. Otherwise it finds the key's directory — one per
/// 2^24-key region, found by a linear scan over the one or two regions an
/// allocator's address spaces occupy — and reads the chunk's position from
/// it. Nothing is hashed, and the entry of a key whose chunk was never
/// touched reads as `T::default()`.
///
/// # Examples
///
/// ```
/// use heteropipe_mem::LineTable;
///
/// let mut t: LineTable<u8> = LineTable::new();
/// *t.entry(5) |= 2;
/// *t.entry(1 << 40) += 1;
/// assert_eq!(t.get(5), 2);
/// assert_eq!(t.get(6), 0); // same chunk, never written
/// assert_eq!(t.get(1 << 20), 0); // chunk never allocated
/// assert_eq!(t.values().filter(|&&v| v != 0).count(), 2);
/// ```
#[derive(Clone)]
pub struct LineTable<T> {
    /// The chunk used last: its chunk number and position in `chunks`.
    last: (u64, usize),
    /// One directory per region of `2^(CHUNK_BITS + DIR_BITS)` keys: the
    /// region number, and per chunk of the region one plus its position
    /// in `chunks` (0 while unallocated).
    dirs: Vec<(u64, Box<[u32; 1 << DIR_BITS]>)>,
    /// Chunks in first-touch order.
    chunks: Vec<Box<[T; 1 << CHUNK_BITS]>>,
}

impl<T: Copy + Default> LineTable<T> {
    /// Consecutive keys per chunk.
    pub const CHUNK: u64 = 1 << CHUNK_BITS;

    /// An empty table.
    pub fn new() -> Self {
        LineTable {
            last: (NO_CHUNK, 0),
            dirs: Vec::new(),
            chunks: Vec::new(),
        }
    }

    /// The entry for `key`: `T::default()` if its chunk was never touched.
    #[inline]
    pub fn get(&self, key: u64) -> T {
        let chunk = key >> CHUNK_BITS;
        let pos = if chunk == self.last.0 {
            self.last.1
        } else {
            match self.find(chunk) {
                Some(pos) => pos,
                None => return T::default(),
            }
        };
        self.chunks[pos][slot_of(key)]
    }

    /// The entry for `key`, allocating its chunk on first touch.
    #[inline]
    pub fn entry(&mut self, key: u64) -> &mut T {
        let chunk = key >> CHUNK_BITS;
        if chunk != self.last.0 {
            let pos = match self.find(chunk) {
                Some(pos) => pos,
                None => self.alloc(chunk),
            };
            self.last = (chunk, pos);
        }
        &mut self.chunks[self.last.1][slot_of(key)]
    }

    /// Every entry of every allocated chunk, chunks in first-touch order.
    /// Keys never written read as `T::default()`.
    pub fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    fn find(&self, chunk: u64) -> Option<usize> {
        let region = chunk >> DIR_BITS;
        let (_, dir) = self.dirs.iter().find(|(r, _)| *r == region)?;
        let pos = dir[chunk as usize & ((1 << DIR_BITS) - 1)];
        pos.checked_sub(1).map(|p| p as usize)
    }

    #[cold]
    fn alloc(&mut self, chunk: u64) -> usize {
        let region = chunk >> DIR_BITS;
        let d = match self.dirs.iter().position(|(r, _)| *r == region) {
            Some(d) => d,
            None => {
                self.dirs.push((region, boxed_array(0)));
                self.dirs.len() - 1
            }
        };
        let pos = self.chunks.len();
        self.chunks.push(boxed_array(T::default()));
        self.dirs[d].1[chunk as usize & ((1 << DIR_BITS) - 1)] =
            u32::try_from(pos + 1).expect("line table chunk count fits u32");
        pos
    }
}

impl<T: Copy + Default> Default for LineTable<T> {
    fn default() -> Self {
        LineTable::new()
    }
}

impl<T> fmt::Debug for LineTable<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LineTable")
            .field("chunks", &self.chunks.len())
            .finish()
    }
}

/// A key's position inside its chunk.
#[inline]
fn slot_of(key: u64) -> usize {
    key as usize & ((1 << CHUNK_BITS) - 1)
}

/// A heap array of `N` copies of `value`, built without an `N`-sized
/// stack temporary.
fn boxed_array<T: Copy, const N: usize>(value: T) -> Box<[T; N]> {
    vec![value; N]
        .into_boxed_slice()
        .try_into()
        .unwrap_or_else(|_| unreachable!("vec![_; N] has length N"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn untouched_keys_read_default() {
        let mut t: LineTable<u32> = LineTable::new();
        assert_eq!(t.get(0), 0);
        assert_eq!(t.values().count(), 0);
        *t.entry(4095) = 7;
        assert_eq!(t.get(4095), 7);
        assert_eq!(t.get(4096), 0);
        assert_eq!(t.values().count(), 4096);
    }

    #[test]
    fn extreme_keys() {
        let mut t: LineTable<u8> = LineTable::new();
        *t.entry(u64::MAX) = 1;
        *t.entry(0) = 2;
        assert_eq!(t.get(u64::MAX), 1);
        assert_eq!(t.get(0), 2);
        assert_eq!(t.get(u64::MAX - 4096), 0);
    }

    /// Agrees with a map under random writes and reads across chunk and
    /// region boundaries, whatever the memo holds.
    #[test]
    fn matches_map_reference() {
        let bases = [0, 4096 - 3, 1 << 24, (1 << 24) - 5, 1 << 37, 1 << 45];
        heteropipe_sim::check::cases(48, 0x7AB1E, |g| {
            let mut t: LineTable<u32> = LineTable::new();
            let mut r: HashMap<u64, u32> = HashMap::new();
            for _ in 0..g.usize(1, 600) {
                let key = bases[g.usize(0, bases.len())] + g.u64(0, 3 * 4096);
                if g.bool() {
                    let v = g.u32(1, 100);
                    *t.entry(key) += v;
                    *r.entry(key).or_default() += v;
                } else {
                    assert_eq!(t.get(key), r.get(&key).copied().unwrap_or(0));
                }
            }
            let mut seen: Vec<u32> = t.values().copied().filter(|&v| v != 0).collect();
            let mut want: Vec<u32> = r.values().copied().filter(|&v| v != 0).collect();
            seen.sort_unstable();
            want.sort_unstable();
            assert_eq!(seen, want);
        });
    }
}
