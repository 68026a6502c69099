//! One logical input made of many shards.
//!
//! Shards exist so the matcher can scan them in parallel, but matching
//! semantics are defined over the *concatenation*: a match may start in
//! one shard and end in another. [`ShardedInput`] provides absolute
//! addressing over the concatenation without materializing the joined
//! buffer.

/// Borrowed shards viewed as one contiguous byte string.
#[derive(Debug)]
pub struct ShardedInput<'a> {
    shards: &'a [&'a [u8]],
    /// `starts[i]` is the absolute offset of shard `i`; a final entry
    /// holds the total length, so `starts.len() == shards.len() + 1`.
    starts: Vec<usize>,
}

impl<'a> ShardedInput<'a> {
    /// Wrap a shard list (empty shards are fine).
    pub fn new(shards: &'a [&'a [u8]]) -> Self {
        let mut starts = Vec::with_capacity(shards.len() + 1);
        let mut off = 0usize;
        for s in shards {
            starts.push(off);
            off += s.len();
        }
        starts.push(off);
        ShardedInput { shards, starts }
    }

    /// Total length of the concatenation.
    pub fn total_len(&self) -> usize {
        *self.starts.last().unwrap()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Absolute `[start, end)` of shard `i`.
    pub fn shard_bounds(&self, i: usize) -> (usize, usize) {
        (self.starts[i], self.starts[i + 1])
    }

    /// The bytes of shard `i`.
    pub fn shard(&self, i: usize) -> &'a [u8] {
        self.shards[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concatenation_addressing() {
        let shards: &[&[u8]] = &[b"ab", b"", b"cde", b"f"];
        let inp = ShardedInput::new(shards);
        assert_eq!(inp.total_len(), 6);
        assert_eq!(inp.shard_bounds(0), (0, 2));
        assert_eq!(inp.shard_bounds(1), (2, 2));
        assert_eq!(inp.shard_bounds(2), (2, 5));
        assert_eq!(inp.shard_bounds(3), (5, 6));
        let all: Vec<u8> = (0..4).flat_map(|i| inp.shard(i).to_vec()).collect();
        assert_eq!(all, b"abcdef");
    }

    #[test]
    fn empty_input() {
        let shards: &[&[u8]] = &[];
        let inp = ShardedInput::new(shards);
        assert_eq!(inp.total_len(), 0);
        assert_eq!(inp.shard_count(), 0);
        let shards2: &[&[u8]] = &[b"", b""];
        let inp2 = ShardedInput::new(shards2);
        assert_eq!(inp2.total_len(), 0);
        assert_eq!(inp2.shard_bounds(1), (0, 0));
    }
}
