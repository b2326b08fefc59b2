//! Composite key encoding for the k-path index.
//!
//! The index key is the paper's search key `⟨label path, sourceID, targetID⟩`
//! encoded as an order-preserving byte string:
//!
//! ```text
//! [ path length  : u8          ]
//! [ signed label : u16 BE  ] × length
//! [ source id    : u32 BE      ]
//! [ target id    : u32 BE      ]
//! ```
//!
//! Because every field is fixed-width and big-endian, lexicographic byte
//! order equals the tuple order `(path, source, target)`, and the encodings
//! of `⟨p⟩` and `⟨p, a⟩` are exactly the prefixes needed for the three lookup
//! shapes of Example 3.1.

use pathix_graph::{NodeId, SignedLabel};

/// Incrementally builds a composite byte key from fixed-width big-endian
/// fields. Big-endian encodings of unsigned integers preserve numeric order,
/// so a key built from fixed-width fields sorts exactly like the tuple of its
/// fields.
struct KeyBuf {
    bytes: Vec<u8>,
}

impl KeyBuf {
    /// Creates a key buffer with pre-allocated capacity.
    fn with_capacity(cap: usize) -> Self {
        KeyBuf {
            bytes: Vec::with_capacity(cap),
        }
    }

    /// Appends a single byte.
    fn push_u8(&mut self, v: u8) -> &mut Self {
        self.bytes.push(v);
        self
    }

    /// Appends a big-endian `u16`.
    fn push_u16(&mut self, v: u16) -> &mut Self {
        self.bytes.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian `u32`.
    fn push_u32(&mut self, v: u32) -> &mut Self {
        self.bytes.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Consumes the buffer, returning the key bytes.
    fn finish(self) -> Vec<u8> {
        self.bytes
    }
}

/// Computes the smallest byte string strictly greater than every string that
/// starts with `prefix`, or `None` when no such string exists (the prefix is
/// empty or consists solely of `0xFF` bytes). Turns a prefix scan into a
/// half-open range scan `[prefix, successor)`.
pub fn prefix_successor(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut out = prefix.to_vec();
    while let Some(last) = out.last_mut() {
        if *last < 0xFF {
            *last += 1;
            return Some(out);
        }
        out.pop();
    }
    None
}

/// Maximum supported label-path length (keys store the length in one byte).
pub const MAX_PATH_LEN: usize = u8::MAX as usize;

/// Encodes the key prefix `⟨p⟩` for a label path.
pub fn encode_path_prefix(path: &[SignedLabel]) -> Vec<u8> {
    assert!(path.len() <= MAX_PATH_LEN, "label path too long to encode");
    let mut key = KeyBuf::with_capacity(1 + 2 * path.len());
    key.push_u8(path.len() as u8);
    for sl in path {
        key.push_u16(sl.code());
    }
    key.finish()
}

/// Encodes the key prefix `⟨p, source⟩`.
pub fn encode_path_source_prefix(path: &[SignedLabel], source: NodeId) -> Vec<u8> {
    let mut key = KeyBuf::with_capacity(1 + 2 * path.len() + 4);
    key.push_u8(path.len() as u8);
    for sl in path {
        key.push_u16(sl.code());
    }
    key.push_u32(source.0);
    key.finish()
}

/// Encodes the full key `⟨p, source, target⟩`.
pub fn encode_entry(path: &[SignedLabel], source: NodeId, target: NodeId) -> Vec<u8> {
    let mut key = KeyBuf::with_capacity(1 + 2 * path.len() + 8);
    key.push_u8(path.len() as u8);
    for sl in path {
        key.push_u16(sl.code());
    }
    key.push_u32(source.0);
    key.push_u32(target.0);
    key.finish()
}

/// Decodes a full entry key back into `(path, source, target)`.
///
/// Returns `None` if the key is malformed (wrong length for its header).
pub fn decode_entry(key: &[u8]) -> Option<(Vec<SignedLabel>, NodeId, NodeId)> {
    let len = *key.first()? as usize;
    let expected = 1 + 2 * len + 8;
    if key.len() != expected {
        return None;
    }
    let mut path = Vec::with_capacity(len);
    for i in 0..len {
        let off = 1 + 2 * i;
        let code = u16::from_be_bytes([key[off], key[off + 1]]);
        path.push(SignedLabel::from_code(code));
    }
    let src_off = 1 + 2 * len;
    let source = u32::from_be_bytes([
        key[src_off],
        key[src_off + 1],
        key[src_off + 2],
        key[src_off + 3],
    ]);
    let target = u32::from_be_bytes([
        key[src_off + 4],
        key[src_off + 5],
        key[src_off + 6],
        key[src_off + 7],
    ]);
    Some((path, NodeId(source), NodeId(target)))
}

/// Decodes only the `(source, target)` suffix of an entry key, assuming the
/// path length is already known. This is the hot path of index scans.
#[inline]
pub fn decode_pair(key: &[u8]) -> (NodeId, NodeId) {
    let n = key.len();
    debug_assert!(n >= 9, "entry key too short");
    let source = u32::from_be_bytes([key[n - 8], key[n - 7], key[n - 6], key[n - 5]]);
    let target = u32::from_be_bytes([key[n - 4], key[n - 3], key[n - 2], key[n - 1]]);
    (NodeId(source), NodeId(target))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathix_graph::LabelId;

    fn sl(label: u16, backward: bool) -> SignedLabel {
        if backward {
            SignedLabel::backward(LabelId(label))
        } else {
            SignedLabel::forward(LabelId(label))
        }
    }

    #[test]
    fn entry_roundtrip() {
        let path = vec![sl(0, false), sl(1, true), sl(2, false)];
        let key = encode_entry(&path, NodeId(7), NodeId(99));
        let (p, s, t) = decode_entry(&key).unwrap();
        assert_eq!(p, path);
        assert_eq!(s, NodeId(7));
        assert_eq!(t, NodeId(99));
        assert_eq!(decode_pair(&key), (NodeId(7), NodeId(99)));
    }

    #[test]
    fn prefixes_are_prefixes_of_entries() {
        let path = vec![sl(3, false), sl(3, true)];
        let entry = encode_entry(&path, NodeId(5), NodeId(6));
        let p_prefix = encode_path_prefix(&path);
        let ps_prefix = encode_path_source_prefix(&path, NodeId(5));
        assert!(entry.starts_with(&p_prefix));
        assert!(entry.starts_with(&ps_prefix));
        assert!(ps_prefix.starts_with(&p_prefix));
    }

    #[test]
    fn keys_sort_by_path_then_source_then_target() {
        let p1 = vec![sl(0, false)];
        let p2 = vec![sl(0, true)];
        let a = encode_entry(&p1, NodeId(1), NodeId(9));
        let b = encode_entry(&p1, NodeId(2), NodeId(0));
        let c = encode_entry(&p2, NodeId(0), NodeId(0));
        assert!(a < b, "source should order entries within a path");
        assert!(b < c, "path should order before source");
        let d = encode_entry(&p1, NodeId(1), NodeId(10));
        assert!(a < d, "target should break ties");
    }

    #[test]
    fn different_lengths_do_not_collide() {
        // A length-1 path with label code equal to a node id byte pattern must
        // not be confused with a length-2 path.
        let short = encode_path_prefix(&[sl(1, false)]);
        let long = encode_path_prefix(&[sl(1, false), sl(1, false)]);
        assert_ne!(short[0], long[0]);
        assert!(!long.starts_with(&short));
    }

    #[test]
    fn keybuf_fields_are_order_preserving() {
        let key = |a: u16, b: u32| {
            let mut k = KeyBuf::with_capacity(6);
            k.push_u16(a).push_u32(b);
            k.finish()
        };
        assert!(key(1, 500) < key(2, 0));
        assert!(key(1, 1) < key(1, 2));
        assert!(key(0, u32::MAX) < key(1, 0));
    }

    #[test]
    fn prefix_successor_simple() {
        assert_eq!(prefix_successor(b"abc"), Some(b"abd".to_vec()));
        assert_eq!(prefix_successor(&[1, 2, 0xFF]), Some(vec![1, 3]));
        assert_eq!(prefix_successor(&[0xFF, 0xFF]), None);
        assert_eq!(prefix_successor(b""), None);
    }

    #[test]
    fn prefix_successor_bounds_all_extensions() {
        let prefix = vec![9u8, 0xFF, 3];
        let succ = prefix_successor(&prefix).unwrap();
        // Any key starting with the prefix is < successor.
        for ext in [vec![], vec![0u8], vec![0xFFu8; 4]] {
            let mut key = prefix.clone();
            key.extend_from_slice(&ext);
            assert!(key.as_slice() < succ.as_slice());
        }
        // And the successor does not itself start with the prefix.
        assert!(!succ.starts_with(&prefix));
    }

    #[test]
    fn malformed_keys_are_rejected() {
        assert_eq!(decode_entry(&[]), None);
        assert_eq!(decode_entry(&[2, 0, 0]), None);
        let good = encode_entry(&[sl(0, false)], NodeId(1), NodeId(2));
        assert_eq!(decode_entry(&good[..good.len() - 1]), None);
    }
}
