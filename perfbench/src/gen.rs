//! Seeded op streams and the value checker.
//!
//! The benchmark, not the program, owns the inputs: every request of a run
//! comes out of [`generate`] from the `--seed` argument, and every value a
//! client writes is derived from its key and length ([`Values::pattern`]),
//! so any GET hit can be checked without a shadow copy of the cache.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spotcache_workload::{FacebookPool, FacebookWorkload, ScrambledZipfian};

/// Period of the value byte cycle. Prime, so a value shifted or cut by
/// anything but a multiple of it no longer matches its key's pattern.
pub const PERIOD: usize = 251;
/// Largest value the ETC pool writes (bytes).
pub const MAX_VALUE: usize = 500_000;
/// Smallest value either pool writes (bytes).
pub const MIN_VALUE: usize = 2;
/// Key prefix of the hot set, the keys the primary replicates to its
/// backup. Every other key starts with [`COLD_PREFIX`].
pub const HOT_PREFIX: u8 = b'h';
/// Key prefix outside the hot set.
pub const COLD_PREFIX: u8 = b'k';

/// One of the two Facebook pools, sized for this benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Which pool's mix, skew and value sizes to draw.
    pub pool: FacebookPool,
    /// Key-space size.
    pub keys: u64,
    /// Popularity ranks `0..hot_ranks` form the hot set.
    pub hot_ranks: u64,
    /// Zipf skew (the pool's published θ).
    pub theta: f64,
}

impl Spec {
    /// USR: 99.8% GET, 2-byte values, θ = 1.5, over a key space that fits
    /// in the store.
    pub fn usr() -> Self {
        Self {
            pool: FacebookPool::Usr,
            keys: 200_000,
            hot_ranks: 2_000,
            theta: 1.5,
        }
    }

    /// ETC: 97% GET, 2 B – 500 KB values, θ = 1.05, over a working set far
    /// larger than the store.
    pub fn etc() -> Self {
        Self {
            pool: FacebookPool::Etc,
            keys: 100_000,
            hot_ranks: 5_000,
            theta: 1.05,
        }
    }

    /// Whether `len` is a value length this pool can write.
    pub fn valid_len(&self, len: usize) -> bool {
        match self.pool {
            FacebookPool::Usr => len == 2,
            FacebookPool::Etc => (MIN_VALUE..=MAX_VALUE).contains(&len),
        }
    }
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Key id in `0..Spec::keys`.
    pub id: u32,
    /// Value size: written by a SET, or by the look-aside SET after a
    /// GET miss.
    pub size: u32,
    /// GET (true) or SET (false).
    pub read: bool,
}

/// Key naming: which ids are hot (popularity rank below
/// `Spec::hot_ranks`) and how long each key is.
pub struct Keys {
    spec: Spec,
    hot: Vec<bool>,
    sizer: FacebookWorkload,
}

impl Keys {
    /// The key space of `spec`.
    pub fn new(spec: &Spec) -> Self {
        let zipf = ScrambledZipfian::new(spec.keys, spec.theta);
        let mut hot = vec![false; spec.keys as usize];
        for rank in 0..spec.hot_ranks {
            hot[zipf.key_for_rank(rank) as usize] = true;
        }
        Self {
            spec: *spec,
            hot,
            sizer: FacebookWorkload::new(spec.pool, 1),
        }
    }

    /// The pool these keys belong to.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// Whether key `id` is hot.
    pub fn is_hot(&self, id: u32) -> bool {
        self.hot[id as usize]
    }

    /// Appends the key bytes of `id` to `out`: the hot or cold prefix,
    /// then the id zero-padded to the pool's key size (16/21 bytes for
    /// USR, 16–40 for ETC).
    pub fn push(&self, id: u32, out: &mut Vec<u8>) {
        let size = self.sizer.key_size(u64::from(id));
        out.push(if self.is_hot(id) {
            HOT_PREFIX
        } else {
            COLD_PREFIX
        });
        push_padded(out, u64::from(id), size - 1);
    }
}

/// Appends `n` in decimal, left-padded with zeros to `width` digits.
pub fn push_padded(out: &mut Vec<u8>, n: u64, width: usize) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    let mut v = n;
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    let len = digits.len() - i;
    out.extend(std::iter::repeat_n(b'0', width.saturating_sub(len)));
    out.extend_from_slice(&digits[i..]);
}

/// Appends `n` in decimal.
pub fn push_u64(out: &mut Vec<u8>, n: u64) {
    push_padded(out, n, 0);
}

/// Draws `count` requests of `spec`'s pool from `seed`.
pub fn generate(spec: &Spec, seed: u64, count: usize) -> Vec<Op> {
    let workload = FacebookWorkload::new(spec.pool, spec.keys);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let r = workload.next_request(&mut rng);
            Op {
                id: r.key as u32,
                size: r.value_size as u32,
                read: r.is_read,
            }
        })
        .collect()
}

/// FNV-1a over a stream, for the same-seed-same-stream check.
pub fn digest(ops: &[Op]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for op in ops {
        for b in op
            .id
            .to_le_bytes()
            .into_iter()
            .chain(op.size.to_le_bytes())
            .chain([op.read as u8])
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Requests pre-rendered in memcached text for one connection.
#[derive(Debug, Default)]
pub struct ConnStream {
    /// Every request, back to back: `get <key>\r\n` or
    /// `set <key> 0 0 <len>\r\n<value>\r\n`.
    pub bytes: Vec<u8>,
    /// Per request: where it sits in `bytes` and what it asks.
    pub ops: Vec<Rendered>,
}

/// One pre-rendered request.
#[derive(Debug, Clone, Copy)]
pub struct Rendered {
    /// Offset of the request's first byte in [`ConnStream::bytes`].
    pub start: u32,
    /// Offset just past its last byte.
    pub end: u32,
    /// Length of its key (which starts at `start + 4`).
    pub key_len: u8,
    /// The generated request.
    pub op: Op,
}

/// Appends the memcached text of a SET of `key` to `out`.
pub fn push_set(out: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    out.extend_from_slice(b"set ");
    out.extend_from_slice(key);
    out.extend_from_slice(b" 0 0 ");
    push_u64(out, value.len() as u64);
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(value);
    out.extend_from_slice(b"\r\n");
}

/// Renders `ops` as one connection's request stream into `s`, replacing
/// what it held and keeping its buffers.
pub fn render_into(keys: &Keys, values: &Values, ops: &[Op], s: &mut ConnStream) {
    s.bytes.clear();
    s.ops.clear();
    let mut key = Vec::with_capacity(48);
    for &op in ops {
        key.clear();
        keys.push(op.id, &mut key);
        let start = s.bytes.len();
        if op.read {
            s.bytes.extend_from_slice(b"get ");
            s.bytes.extend_from_slice(&key);
            s.bytes.extend_from_slice(b"\r\n");
        } else {
            push_set(&mut s.bytes, &key, values.pattern(&key, op.size as usize));
        }
        s.ops.push(Rendered {
            start: start as u32,
            end: s.bytes.len() as u32,
            key_len: key.len() as u8,
            op,
        });
    }
}

/// The seed of connection `conn`'s stream in a run seeded `seed`: each
/// client thread draws its own requests, as independent users do.
pub fn conn_seed(seed: u64, conn: usize) -> u64 {
    let mut z = seed ^ (conn as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Key-and-length-derived value bytes: a window of a fixed byte cycle
/// whose start depends on the key and the length. A corrupted byte, or a
/// value cut short or shifted (by anything but a multiple of
/// [`PERIOD`]), no longer equals its pattern.
pub struct Values {
    cycle: Vec<u8>,
}

impl Default for Values {
    fn default() -> Self {
        Self::new()
    }
}

impl Values {
    /// Builds the byte cycle.
    pub fn new() -> Self {
        Self {
            cycle: (0..MAX_VALUE + PERIOD)
                .map(|i| (i % PERIOD) as u8)
                .collect(),
        }
    }

    /// The value a client writes for `key` at length `len`.
    pub fn pattern(&self, key: &[u8], len: usize) -> &[u8] {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in key {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        let off = ((h % PERIOD as u64) as usize + len) % PERIOD;
        &self.cycle[off..off + len]
    }

    /// Whether `data` is a value some client of `spec` could have written
    /// for `key`.
    pub fn check(&self, spec: &Spec, key: &[u8], data: &[u8]) -> bool {
        spec.valid_len(data.len()) && self.pattern(key, data.len()) == data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_always_generates_the_same_stream() {
        for spec in [Spec::usr(), Spec::etc()] {
            let a = generate(&spec, 7, 20_000);
            let b = generate(&spec, 7, 20_000);
            assert_eq!(a, b);
            assert_eq!(digest(&a), digest(&b));
            let c = generate(&spec, 8, 20_000);
            assert_ne!(digest(&a), digest(&c), "another seed, another stream");
        }
    }

    #[test]
    fn a_seed_always_renders_the_same_bytes() {
        let spec = Spec::etc();
        let keys = Keys::new(&spec);
        let values = Values::new();
        let ops = generate(&spec, conn_seed(11, 1), 5_000);
        let (mut a, mut b) = (ConnStream::default(), ConnStream::default());
        render_into(&keys, &values, &ops, &mut a);
        render_into(&keys, &values, &ops, &mut b);
        assert_eq!(a.bytes, b.bytes);
        assert_eq!(a.ops.len(), ops.len());
        assert_ne!(conn_seed(11, 0), conn_seed(11, 1));
    }

    #[test]
    fn keys_have_the_pool_sizes_and_prefixes() {
        let keys = Keys::new(&Spec::usr());
        let mut key = Vec::new();
        for id in 0..1_000u32 {
            key.clear();
            keys.push(id, &mut key);
            assert!(key.len() == 16 || key.len() == 21, "{key:?}");
            let want = if keys.is_hot(id) {
                HOT_PREFIX
            } else {
                COLD_PREFIX
            };
            assert_eq!(key[0], want);
        }
    }

    #[test]
    fn checker_accepts_what_a_client_writes() {
        let values = Values::new();
        let etc = Spec::etc();
        for len in [2, 3, 100, 251, 252, 4_096, MAX_VALUE] {
            let v = values.pattern(b"k000000000000042", len).to_vec();
            assert!(values.check(&etc, b"k000000000000042", &v), "len {len}");
        }
        let usr = Spec::usr();
        let v = values.pattern(b"h00000000000007", 2).to_vec();
        assert!(values.check(&usr, b"h00000000000007", &v));
    }

    #[test]
    fn checker_rejects_a_corrupted_value() {
        let values = Values::new();
        let spec = Spec::etc();
        let key = b"k000000000000042";
        let good = values.pattern(key, 1_000).to_vec();
        for pos in [0, 1, 500, 999] {
            let mut bad = good.clone();
            bad[pos] ^= 0x20;
            assert!(!values.check(&spec, key, &bad), "flip at {pos}");
        }
        // Another key's value is not this key's value.
        let other = values.pattern(b"k000000000000043", 1_000).to_vec();
        assert!(!values.check(&spec, key, &other));
        // USR values are exactly two bytes.
        let usr = Spec::usr();
        let mut two = values.pattern(b"h00000000000007", 2).to_vec();
        two[1] ^= 1;
        assert!(!values.check(&usr, b"h00000000000007", &two));
    }

    #[test]
    fn checker_rejects_a_truncated_value() {
        let values = Values::new();
        let spec = Spec::etc();
        let key = b"k000000000000042";
        let good = values.pattern(key, 1_000).to_vec();
        for cut in [1, 2, 250, 500, 997] {
            let short = &good[..good.len() - cut];
            assert!(!values.check(&spec, key, short), "cut {cut}");
        }
        // Below the pool's smallest value.
        assert!(!values.check(&spec, key, &good[..1]));
        let usr = Spec::usr();
        let two = values.pattern(b"h00000000000007", 2);
        assert!(!values.check(&usr, b"h00000000000007", &two[..1]));
        assert!(!values.check(&usr, b"h00000000000007", &[]));
    }

    #[test]
    fn padding_and_decimal_rendering() {
        let mut out = Vec::new();
        push_padded(&mut out, 42, 6);
        push_u64(&mut out, 0);
        push_u64(&mut out, 1_234_567);
        assert_eq!(out, b"00004201234567");
    }
}
