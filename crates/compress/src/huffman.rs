//! Canonical Huffman coding over byte alphabets.
//!
//! Code lengths are limited to [`MAX_CODE_LEN`] bits so they can be stored
//! as 4-bit nibbles in the container header. Length limiting uses the
//! standard clamp-then-repair approach on the Kraft sum; the loss versus an
//! optimal length-limited code is negligible on certificate data.

use crate::bitio::{BitReader, BitWriter};

/// Maximum Huffman code length in bits (fits a 4-bit nibble).
pub const MAX_CODE_LEN: u8 = 15;

/// A canonical Huffman code over the 256-symbol byte alphabet.
#[derive(Debug, Clone)]
pub struct Code {
    /// Code length per symbol; 0 = symbol unused.
    pub lengths: [u8; 256],
    codes: [u32; 256],
}

impl Code {
    /// Build a length-limited canonical code from symbol frequencies.
    pub fn from_frequencies(freqs: &[u64; 256]) -> Code {
        let lengths = build_lengths(freqs);
        Code::from_lengths(lengths)
    }

    /// Reconstruct the canonical code from stored lengths.
    pub fn from_lengths(lengths: [u8; 256]) -> Code {
        let mut codes = [0u32; 256];
        // Canonical assignment: count codes per length, then assign
        // consecutive values in (length, symbol) order.
        let mut count = [0u32; (MAX_CODE_LEN + 1) as usize];
        for &len in lengths.iter() {
            if len > 0 {
                count[len as usize] += 1;
            }
        }
        let mut next = [0u32; (MAX_CODE_LEN + 2) as usize];
        let mut code = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            code = (code + count[len - 1]) << 1;
            next[len] = code;
        }
        for sym in 0..256 {
            let len = lengths[sym] as usize;
            if len > 0 {
                codes[sym] = next[len];
                next[len] += 1;
            }
        }
        Code { lengths, codes }
    }

    /// Encode one symbol.
    pub fn write_symbol(&self, w: &mut BitWriter, sym: u8) {
        let len = self.lengths[sym as usize];
        debug_assert!(len > 0, "symbol {sym} has no code");
        w.write_bits(self.codes[sym as usize], len);
    }

    /// Total encoded size in bits for the given frequencies.
    pub fn cost_bits(&self, freqs: &[u64; 256]) -> u64 {
        freqs
            .iter()
            .zip(self.lengths.iter())
            .map(|(&f, &l)| f * l as u64)
            .sum()
    }

    /// Build a decoder for this code.
    pub fn decoder(&self) -> Decoder {
        Decoder::new(&self.lengths)
    }
}

/// Compute length-limited Huffman code lengths for `freqs`.
///
/// The tree lives in index arrays: nodes `0..n` are the used symbols in
/// symbol order, and merge `k` creates node `n + k`. Every node's
/// `(weight, index)` pair is unique, so the merge order is fully
/// determined: always the two minimal pairs. Leaves are consumed in
/// `(weight, index)` order from a sorted queue; merged nodes come out in
/// non-decreasing weight and increasing index, so they form a second
/// sorted queue. The lesser of the two queue fronts is the global minimum,
/// so no heap is needed.
fn build_lengths(freqs: &[u64; 256]) -> [u8; 256] {
    let mut lengths = [0u8; 256];
    let mut symbols = [0u8; 256];
    let mut weight = [0u64; 511];
    let mut n = 0usize;
    for (sym, &f) in freqs.iter().enumerate() {
        if f > 0 {
            symbols[n] = sym as u8;
            weight[n] = f;
            n += 1;
        }
    }
    match n {
        0 => return lengths,
        1 => {
            lengths[symbols[0] as usize] = 1;
            return lengths;
        }
        _ => {}
    }

    let mut leaves = [0u16; 256];
    for (i, slot) in leaves[..n].iter_mut().enumerate() {
        *slot = i as u16;
    }
    leaves[..n].sort_unstable_by_key(|&i| (weight[i as usize], i));
    let mut parent = [0u16; 511];
    let (mut next_leaf, mut next_merged) = (0usize, n);
    let mut pop_min = |merged_end: usize, weight: &[u64; 511]| -> usize {
        let leaf = leaves[..n].get(next_leaf).map(|&i| i as usize);
        let merged = (next_merged < merged_end).then_some(next_merged);
        match (leaf, merged) {
            (Some(l), Some(m)) if (weight[m], m) < (weight[l], l) => {
                next_merged += 1;
                m
            }
            (Some(l), _) => {
                next_leaf += 1;
                l
            }
            (None, Some(m)) => {
                next_merged += 1;
                m
            }
            (None, None) => unreachable!("a merge always has two live nodes"),
        }
    };
    for node in n..2 * n - 1 {
        let a = pop_min(node, &weight);
        let b = pop_min(node, &weight);
        // Saturating: astronomically skewed inputs still produce a valid
        // (if marginally suboptimal) tree instead of overflowing.
        weight[node] = weight[a].saturating_add(weight[b]);
        parent[a] = node as u16;
        parent[b] = node as u16;
    }
    // Parents always have larger indices, so one descending pass assigns
    // every depth from the root (the last node, depth 0) downwards.
    let root = 2 * n - 2;
    let mut depth = [0u8; 511];
    for node in (0..root).rev() {
        depth[node] = depth[parent[node] as usize] + 1;
    }
    for i in 0..n {
        lengths[symbols[i] as usize] = depth[i];
    }
    limit_lengths(freqs, &symbols[..n], &mut lengths);
    lengths
}

/// Length-limit: clamp, then repair the Kraft inequality by lengthening
/// the cheapest (least frequent) still-short codes. `used` lists the
/// symbols with a nonzero frequency in symbol order.
fn limit_lengths(freqs: &[u64; 256], used: &[u8], lengths: &mut [u8; 256]) {
    let mut over = false;
    for len in lengths.iter_mut() {
        if *len > MAX_CODE_LEN {
            *len = MAX_CODE_LEN;
            over = true;
        }
    }
    if !over {
        return;
    }
    let budget = 1u64 << MAX_CODE_LEN;
    let mut k: u64 = lengths
        .iter()
        .filter(|&&l| l > 0)
        .map(|&l| 1u64 << (MAX_CODE_LEN - l))
        .sum();
    // Lengthen least-frequent symbols until the code is feasible again
    // (a stable sort: equal frequencies stay in symbol order).
    let mut by_freq = used.to_vec();
    by_freq.sort_by_key(|&s| freqs[s as usize]);
    'outer: while k > budget {
        for &s in &by_freq {
            let s = s as usize;
            if lengths[s] > 0 && lengths[s] < MAX_CODE_LEN {
                k -= 1 << (MAX_CODE_LEN - lengths[s]);
                lengths[s] += 1;
                k += 1 << (MAX_CODE_LEN - lengths[s]);
                if k <= budget {
                    break 'outer;
                }
            }
        }
    }
}

/// A canonical Huffman decoder (per-length first-code tables).
#[derive(Debug, Clone)]
pub struct Decoder {
    // For each length: the first canonical code of that length, and the
    // index into `symbols` where codes of that length start.
    first_code: [u32; (MAX_CODE_LEN + 1) as usize],
    first_index: [u32; (MAX_CODE_LEN + 1) as usize],
    count: [u32; (MAX_CODE_LEN + 1) as usize],
    symbols: Vec<u8>,
}

impl Decoder {
    /// Build a decoder from code lengths.
    pub fn new(lengths: &[u8; 256]) -> Decoder {
        let mut count = [0u32; (MAX_CODE_LEN + 1) as usize];
        for &len in lengths.iter() {
            if len > 0 {
                count[len as usize] += 1;
            }
        }
        let mut first_code = [0u32; (MAX_CODE_LEN + 1) as usize];
        let mut first_index = [0u32; (MAX_CODE_LEN + 1) as usize];
        let mut code = 0u32;
        let mut index = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            code = (code + count[len - 1]) << 1;
            first_code[len] = code;
            first_index[len] = index;
            index += count[len];
        }
        // Symbols sorted by (length, symbol) — canonical order.
        let mut symbols = Vec::with_capacity(index as usize);
        for len in 1..=MAX_CODE_LEN {
            for (sym, &l) in lengths.iter().enumerate() {
                if l == len {
                    symbols.push(sym as u8);
                }
            }
        }
        Decoder {
            first_code,
            first_index,
            count,
            symbols,
        }
    }

    /// Decode one symbol from the bit stream.
    pub fn read_symbol(&self, r: &mut BitReader<'_>) -> Option<u8> {
        let mut code = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            code = (code << 1) | r.read_bit()? as u32;
            let n = self.count[len];
            if n > 0 {
                let first = self.first_code[len];
                if code < first + n {
                    if code < first {
                        return None; // malformed stream
                    }
                    let idx = self.first_index[len] + (code - first);
                    return self.symbols.get(idx as usize).copied();
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn freq_of(data: &[u8]) -> [u64; 256] {
        let mut f = [0u64; 256];
        for &b in data {
            f[b as usize] += 1;
        }
        f
    }

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let code = Code::from_frequencies(&freq_of(data));
        let mut w = BitWriter::new();
        for &b in data {
            code.write_symbol(&mut w, b);
        }
        let bits = w.finish();
        let dec = code.decoder();
        let mut r = BitReader::new(&bits);
        (0..data.len())
            .map(|_| dec.read_symbol(&mut r).expect("decode"))
            .collect()
    }

    /// The original tree-based builder (a `Box` tree in a `BinaryHeap`),
    /// kept verbatim as the oracle the flat builder must match exactly:
    /// same lengths means same canonical codes and same compressed bytes.
    mod tree_oracle {
        use super::super::MAX_CODE_LEN;

        pub(super) fn build_lengths(freqs: &[u64; 256]) -> [u8; 256] {
            let mut lengths = [0u8; 256];
            let used: Vec<usize> = (0..256).filter(|&s| freqs[s] > 0).collect();
            match used.len() {
                0 => return lengths,
                1 => {
                    lengths[used[0]] = 1;
                    return lengths;
                }
                _ => {}
            }

            // Standard Huffman tree construction over a (weight, tiebreak) min-heap.
            #[derive(Debug)]
            enum Node {
                Leaf(usize),
                Internal(Box<Node>, Box<Node>),
            }
            #[derive(Debug)]
            struct HeapItem {
                weight: u64,
                tiebreak: usize,
                node: Node,
            }
            impl PartialEq for HeapItem {
                fn eq(&self, other: &Self) -> bool {
                    (self.weight, self.tiebreak) == (other.weight, other.tiebreak)
                }
            }
            impl Eq for HeapItem {}
            impl PartialOrd for HeapItem {
                fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                    Some(self.cmp(other))
                }
            }
            impl Ord for HeapItem {
                fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                    // Reversed: BinaryHeap is a max-heap, we want the minimum.
                    (other.weight, other.tiebreak).cmp(&(self.weight, self.tiebreak))
                }
            }
            let mut heap: std::collections::BinaryHeap<HeapItem> = used
                .iter()
                .enumerate()
                .map(|(i, &s)| HeapItem {
                    weight: freqs[s],
                    tiebreak: i,
                    node: Node::Leaf(s),
                })
                .collect();
            let mut tiebreak = used.len();
            while heap.len() > 1 {
                let a = heap.pop().unwrap();
                let b = heap.pop().unwrap();
                heap.push(HeapItem {
                    // Saturating: astronomically skewed inputs still produce a
                    // valid (if marginally suboptimal) tree instead of overflowing.
                    weight: a.weight.saturating_add(b.weight),
                    tiebreak,
                    node: Node::Internal(Box::new(a.node), Box::new(b.node)),
                });
                tiebreak += 1;
            }
            let root = heap.pop().unwrap().node;

            fn assign(node: &Node, depth: u8, lengths: &mut [u8; 256]) {
                match node {
                    Node::Leaf(sym) => lengths[*sym] = depth.max(1),
                    Node::Internal(a, b) => {
                        assign(a, depth + 1, lengths);
                        assign(b, depth + 1, lengths);
                    }
                }
            }
            assign(&root, 0, &mut lengths);

            // Length-limit: clamp, then repair the Kraft inequality by lengthening
            // the cheapest (least frequent) still-short codes.
            let mut over = false;
            for len in lengths.iter_mut() {
                if *len > MAX_CODE_LEN {
                    *len = MAX_CODE_LEN;
                    over = true;
                }
            }
            if over {
                let kraft = |lengths: &[u8; 256]| -> u64 {
                    lengths
                        .iter()
                        .filter(|&&l| l > 0)
                        .map(|&l| 1u64 << (MAX_CODE_LEN - l))
                        .sum()
                };
                let budget = 1u64 << MAX_CODE_LEN;
                let mut k = kraft(&lengths);
                // Lengthen least-frequent symbols until the code is feasible again.
                let mut by_freq: Vec<usize> = used.clone();
                by_freq.sort_by_key(|&s| freqs[s]);
                'outer: while k > budget {
                    for &s in &by_freq {
                        if lengths[s] > 0 && lengths[s] < MAX_CODE_LEN {
                            k -= 1 << (MAX_CODE_LEN - lengths[s]);
                            lengths[s] += 1;
                            k += 1 << (MAX_CODE_LEN - lengths[s]);
                            if k <= budget {
                                break 'outer;
                            }
                        }
                    }
                }
            }
            lengths
        }
    }

    /// xorshift64*: a dependency-free stream for randomized tables.
    fn next_random(state: &mut u64) -> u64 {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    #[test]
    fn flat_builder_matches_the_tree_oracle_on_random_tables() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for case in 0..2_000 {
            let mut freqs = [0u64; 256];
            // Vary the alphabet density and the weight range so ties,
            // sparse tables and two-symbol tables all occur.
            let density = 1 + next_random(&mut state) % 256;
            let range = [2u64, 16, 1 << 10, 1 << 40][case % 4];
            for f in freqs.iter_mut() {
                if next_random(&mut state) % 256 < density {
                    *f = next_random(&mut state) % range;
                }
            }
            assert_eq!(
                build_lengths(&freqs),
                tree_oracle::build_lengths(&freqs),
                "case {case}"
            );
        }
    }

    #[test]
    fn flat_builder_matches_the_tree_oracle_on_fibonacci_tables() {
        // Fibonacci weights build the deepest possible tree, far past
        // MAX_CODE_LEN, so these tables exercise the clamp-and-repair path
        // (and its tie order) rather than plain Huffman merging.
        let mut fib = [0u64; 90];
        fib[0] = 1;
        fib[1] = 1;
        for i in 2..fib.len() {
            fib[i] = fib[i - 1] + fib[i - 2];
        }
        for symbols in [17usize, 24, 40, 64, 90] {
            for offset in [0usize, 3, 100] {
                let mut freqs = [0u64; 256];
                for (i, &w) in fib[..symbols].iter().enumerate() {
                    freqs[(offset + i * 7) % 256] = w;
                }
                let flat = build_lengths(&freqs);
                assert!(flat.contains(&MAX_CODE_LEN), "{symbols}");
                assert_eq!(
                    flat,
                    tree_oracle::build_lengths(&freqs),
                    "{symbols} symbols at offset {offset}"
                );
            }
        }
        // Saturating weights: the top of the table overflows u64 sums.
        let mut freqs = [0u64; 256];
        for (i, f) in freqs.iter_mut().enumerate().take(70) {
            *f = u64::MAX >> (i / 2);
        }
        assert_eq!(build_lengths(&freqs), tree_oracle::build_lengths(&freqs));
    }

    #[test]
    fn roundtrip_text() {
        let data = b"the quick brown fox jumps over the lazy dog, repeatedly! \
                     the quick brown fox jumps over the lazy dog";
        assert_eq!(roundtrip(data), data);
    }

    #[test]
    fn roundtrip_single_symbol() {
        let data = vec![0x42u8; 100];
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn roundtrip_two_symbols() {
        let data: Vec<u8> = (0..100).map(|i| if i % 3 == 0 { 1 } else { 2 }).collect();
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn roundtrip_all_bytes() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 90% 'a', rest uniform: entropy well under 8 bits/symbol.
        let mut data = vec![b'a'; 9000];
        data.extend((0..1000).map(|i| (i % 256) as u8));
        let code = Code::from_frequencies(&freq_of(&data));
        let bits = code.cost_bits(&freq_of(&data));
        assert!(bits < data.len() as u64 * 8 / 2, "cost {bits} bits");
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn kraft_inequality_holds() {
        // Exponentially skewed frequencies force deep trees that must be
        // length-limited.
        let mut freqs = [0u64; 256];
        for (i, f) in freqs.iter_mut().enumerate() {
            *f = 1u64 << (63 - (i / 5).min(62) as u64);
        }
        let code = Code::from_frequencies(&freqs);
        let kraft: f64 = code
            .lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!(kraft <= 1.0 + 1e-9, "kraft sum {kraft}");
        assert!(code.lengths.iter().all(|&l| l <= MAX_CODE_LEN));
    }

    #[test]
    fn decoder_rejects_garbage_gracefully() {
        let mut freqs = [0u64; 256];
        freqs[b'x' as usize] = 10;
        freqs[b'y' as usize] = 1;
        let code = Code::from_frequencies(&freqs);
        let dec = code.decoder();
        // All-ones padding cannot decode forever; eventually returns None
        // instead of panicking.
        let bits = vec![0xFFu8; 4];
        let mut r = BitReader::new(&bits);
        let mut decoded = 0;
        while dec.read_symbol(&mut r).is_some() {
            decoded += 1;
            assert!(decoded < 64, "runaway decode");
        }
    }
}
