//! Query identification.
//!
//! WATCHMAN identifies a retrieved set by the *query ID*: the query string
//! with all delimiter runs compressed to a single separator character
//! (paper §3).  To avoid comparing full strings on every lookup, each cache
//! entry additionally carries a *signature* — a hash of the query ID — and
//! only entries with a matching signature are compared textually.
//!
//! [`QueryKey`] bundles the compressed query text with its signature;
//! [`Signature`] is the 64-bit hash used by the signature index.
//!
//! ## The kernel and its reference
//!
//! Deriving a key sits in front of every lookup, so compression and
//! signature come out of one byte-level pass (`compress_ascii`): a table
//! classifies each byte, the first delimiter of a run becomes the separator
//! and the rest of the run is skipped by *selects*, not branches — delimiter
//! boundaries are where a branch predictor is wrong — while the FNV-1a state
//! is carried along.  The pass writes into a per-thread scratch buffer, so
//! [`QueryKey::from_raw_query`] allocates once (the `Arc<str>`) and
//! [`Signature::of_raw_query`] not at all.  It is defined on ASCII only: a
//! string holding any byte ≥ 0x80 goes, whole, to the `char` loop
//! (`compress_chars`), which knows Unicode whitespace such as U+00A0 or
//! U+2003 and is the reference the kernel is property-tested against.  Text
//! and signature are bit-identical on either path: shard routing and
//! persisted traces depend on the signature.

use std::cell::RefCell;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

/// A 64-bit signature of a query ID, computed with FNV-1a.
///
/// FNV-1a is used instead of the standard library's SipHash because the
/// signature must be *stable* across processes (it is persisted in traces and
/// experiment outputs) and because query IDs are looked up extremely
/// frequently.  HashDoS resistance is not a concern: query IDs are generated
/// by the warehouse front end, not by untrusted clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Signature(pub u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Signature {
    /// Computes the FNV-1a signature of the given bytes.
    pub fn of_bytes(bytes: &[u8]) -> Signature {
        let mut hash = FNV_OFFSET;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        Signature(hash)
    }

    /// Computes the signature of a query ID string.
    pub fn of_str(text: &str) -> Signature {
        Signature::of_bytes(text.as_bytes())
    }

    /// The signature [`QueryKey::from_raw_query`] would give `raw`, without
    /// building the key (no allocation for ASCII text).
    pub fn of_raw_query(raw: &str) -> Signature {
        with_compressed(raw, |_, signature| signature)
    }

    /// Returns the raw 64-bit value.
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The [`BuildHasher`] of every signature-keyed map: a key that hashes as
/// one `u64` (a [`QueryKey`] or a raw signature) is mixed by a single 64×64
/// → 128-bit multiply folded to 64 bits, where `std`'s default runs
/// SipHash-1-3 over a value that is already an FNV hash.  The seed is drawn
/// once per process from [`RandomState`], so bucket placement cannot be
/// predicted from a signature.  Iteration order is as unspecified as with
/// `RandomState`.
#[derive(Debug, Clone, Copy)]
pub struct SignatureState {
    seed: u64,
}

impl Default for SignatureState {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        SignatureState {
            seed: *SEED.get_or_init(|| RandomState::new().hash_one(FNV_OFFSET)),
        }
    }
}

impl BuildHasher for SignatureState {
    type Hasher = SignatureHasher;

    fn build_hasher(&self) -> SignatureHasher {
        SignatureHasher { state: self.seed }
    }
}

/// The hasher [`SignatureState`] builds.  Bytes written other than as one
/// `u64` are folded in a word at a time, so any key type stays usable.
#[derive(Debug, Clone, Copy)]
pub struct SignatureHasher {
    state: u64,
}

/// An odd multiplier with well-spread bits (the 64-bit golden ratio).
const FOLD_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// The high and low halves of `a × b`, xor-ed together.
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

impl Hasher for SignatureHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, value: u64) {
        self.state = folded_multiply(self.state ^ value, FOLD_MULTIPLIER);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// A `HashMap` keyed by signature, or by something hashed as one.
pub type SignatureMap<K, V> = HashMap<K, V, SignatureState>;

/// Compresses a raw query string into a canonical query ID.
///
/// The paper compresses the query string "by substituting all delimiters with
/// a single special character".  This function collapses every maximal run of
/// whitespace, commas and semicolons into a single `'\u{1}'` separator and
/// trims leading and trailing separators; all other characters are left
/// untouched (SQL identifiers may be case sensitive, so only whitespace
/// handling is normalized).
pub fn compress_query_text(raw: &str) -> String {
    with_compressed(raw, |text, _| text.to_owned())
}

/// The reference compression: one `char` at a time, any Unicode whitespace.
fn compress_chars(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut in_delim = false;
    for ch in raw.chars() {
        let is_delim = ch.is_whitespace() || ch == ',' || ch == ';';
        if is_delim {
            in_delim = true;
        } else {
            if in_delim && !out.is_empty() {
                out.push('\u{1}');
            }
            in_delim = false;
            out.push(ch);
        }
    }
    out
}

/// `DELIMITER[b]`: whether the ASCII byte `b` is a delimiter — comma,
/// semicolon, or what `char::is_whitespace` accepts below 0x80 (`\t \n
/// \x0B \x0C \r` and space; not `\x1C`–`\x1F`).
static DELIMITER: [bool; 256] = {
    let delimiters = b"\t\n\x0B\x0C\r ,;";
    let mut table = [false; 256];
    let mut i = 0;
    while i < delimiters.len() {
        table[delimiters[i] as usize] = true;
        i += 1;
    }
    table
};

/// The kernel: compresses ASCII `raw` into the front of `out` (grown to fit,
/// never shrunk) and returns the compressed length and its signature.
fn compress_ascii(raw: &[u8], out: &mut Vec<u8>) -> (usize, Signature) {
    // Trailing delimiters go first, so the loop never takes a separator back.
    let end = raw.iter().rposition(|&b| !DELIMITER[usize::from(b)]);
    let raw = &raw[..end.map_or(0, |last| last + 1)];
    if out.len() < raw.len() {
        out.resize(raw.len(), 0);
    }
    let mut hash = FNV_OFFSET;
    let mut len = 0;
    // Starts set: leading delimiters are skipped like the rest of a run.
    let mut in_delim = true;
    for &b in raw {
        let delim = DELIMITER[usize::from(b)];
        let emit = !(delim & in_delim);
        let byte = if delim { 1 } else { b };
        // `len` counts emitted bytes, at most the bytes read before this one.
        out[len] = byte;
        len += usize::from(emit);
        // A skipped byte hashes as `(hash ^ 0) * 1`: the multiply stays the
        // only thing on the loop's dependency chain.
        let (mix, factor) = if emit {
            (u64::from(byte), FNV_PRIME)
        } else {
            (0, 1)
        };
        hash = (hash ^ mix).wrapping_mul(factor);
        in_delim = delim;
    }
    (len, Signature(hash))
}

thread_local! {
    /// The kernel's output buffer; as long as the longest text this thread
    /// has compressed.
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on the compressed text of `raw` and its signature: the kernel
/// for ASCII, the `char` reference for everything else.
fn with_compressed<R>(raw: &str, f: impl FnOnce(&str, Signature) -> R) -> R {
    if !raw.is_ascii() {
        let text = compress_chars(raw);
        return f(&text, Signature::of_str(&text));
    }
    SCRATCH.with_borrow_mut(|scratch| {
        let (len, signature) = compress_ascii(raw.as_bytes(), scratch);
        let text = std::str::from_utf8(&scratch[..len]).expect("the kernel writes ASCII");
        f(text, signature)
    })
}

/// The identity of a query (and therefore of its retrieved set) inside the
/// cache manager.
///
/// A `QueryKey` owns the compressed query ID text (shared via `Arc` so that
/// cloning keys while moving entries between the cache and the retained
/// reference store is cheap) and caches its [`Signature`].
///
/// Equality is *exact textual* equality, as in the paper: two semantically
/// equivalent but syntactically different queries are distinct keys.  The
/// `Hash` implementation forwards the precomputed signature so that hash-map
/// lookups do not re-hash the text.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryKey {
    text: Arc<str>,
    signature: Signature,
}

impl QueryKey {
    /// Creates a key from an already-canonical query ID.
    ///
    /// Use [`QueryKey::from_raw_query`] when starting from user-facing SQL
    /// text that still contains arbitrary whitespace.
    pub fn new(text: impl Into<Arc<str>>) -> Self {
        let text = text.into();
        let signature = Signature::of_str(&text);
        QueryKey { text, signature }
    }

    /// Creates a key from raw query text, compressing delimiters first.
    pub fn from_raw_query(raw: &str) -> Self {
        with_compressed(raw, |text, signature| QueryKey {
            text: Arc::from(text),
            signature,
        })
    }

    /// A key with a chosen signature, to make two keys collide in tests.
    #[cfg(test)]
    pub(crate) fn with_signature_for_tests(text: &str, signature: u64) -> Self {
        QueryKey {
            text: Arc::from(text),
            signature: Signature(signature),
        }
    }

    /// Returns the canonical query ID text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Returns the precomputed signature.
    pub fn signature(&self) -> Signature {
        self.signature
    }

    /// Returns the number of bytes of metadata this key occupies, used when
    /// accounting for the space taken by retained reference information.
    pub fn metadata_bytes(&self) -> u64 {
        self.text.len() as u64 + std::mem::size_of::<Signature>() as u64
    }
}

impl PartialEq for QueryKey {
    fn eq(&self, other: &Self) -> bool {
        // Fast path on the signature; fall back to exact text comparison to
        // resolve collisions, exactly like the paper's lookup procedure.
        self.signature == other.signature && self.text == other.text
    }
}

impl Eq for QueryKey {}

impl Hash for QueryKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.signature.0);
    }
}

impl PartialOrd for QueryKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueryKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.text.cmp(&other.text)
    }
}

impl fmt::Display for QueryKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.text.replace('\u{1}', " "))
    }
}

impl From<&str> for QueryKey {
    fn from(text: &str) -> Self {
        QueryKey::new(text.to_owned())
    }
}

impl From<String> for QueryKey {
    fn from(text: String) -> Self {
        QueryKey::new(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;

    /// What the kernel must reproduce: the `char` loop, then FNV-1a over
    /// what it wrote.
    fn reference(raw: &str) -> (String, Signature) {
        let text = compress_chars(raw);
        let signature = Signature::of_str(&text);
        (text, signature)
    }

    /// The pieces the property below strings together, ASCII first: every
    /// control byte (so `\x0B \x0C` compress and `\x1C`–`\x1F` do not), an
    /// embedded separator, the three delimiter kinds alone and in runs,
    /// quoted literals holding delimiters, plain words — then multi-byte
    /// whitespace and multi-byte text, which must take the `char` loop.
    fn fragments() -> (Vec<String>, usize) {
        let mut pieces: Vec<String> = (0u8..0x20)
            .chain([0x7F])
            .map(|b| char::from(b).to_string())
            .collect();
        pieces.extend(
            [
                " ", ",", ";", "   ", ",;", " , ; ", "\t\n", "'a,b;c'", "'x y'", "SELECT", "l_tax",
                "(1-d)", "*",
            ]
            .map(str::to_owned),
        );
        let ascii = pieces.len();
        pieces.extend(
            [
                "\u{85}", "\u{A0}", "\u{2003}", "\u{3000}", "é", "naïve", "日本",
            ]
            .map(str::to_owned),
        );
        (pieces, ascii)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn kernel_matches_the_char_reference(
            picks in proptest::collection::vec(0usize..1024, 0..24),
            ascii_only in 0u8..2,
        ) {
            let (pieces, ascii) = fragments();
            let choices = if ascii_only == 1 { ascii } else { pieces.len() };
            let raw: String = picks.iter().map(|pick| pieces[pick % choices].as_str()).collect();
            let (text, signature) = reference(&raw);
            prop_assert_eq!(compress_query_text(&raw), text.clone());
            prop_assert_eq!(Signature::of_raw_query(&raw), signature);
            let key = QueryKey::from_raw_query(&raw);
            prop_assert_eq!(key.text(), text.as_str());
            prop_assert_eq!(key.signature(), signature);
            if raw.is_ascii() {
                // Straight at the kernel, into a scratch too short for it.
                let mut scratch = vec![0xFF; raw.len() / 2];
                let (len, direct) = compress_ascii(raw.as_bytes(), &mut scratch);
                prop_assert_eq!(&scratch[..len], text.as_bytes());
                prop_assert_eq!(direct, signature);
            }
        }
    }

    #[test]
    fn kernel_handles_empty_and_all_delimiter_input() {
        for raw in ["", " ", ",;", " \t\n\x0B\x0C\r,; ", "\u{A0}\u{2003}"] {
            assert_eq!(compress_query_text(raw), "");
            assert_eq!(Signature::of_raw_query(raw), Signature::of_bytes(b""));
        }
        // Not whitespace to `char::is_whitespace`, so not delimiters here.
        assert_eq!(compress_query_text("a\x1C\x1Fb"), "a\x1C\x1Fb");
        assert_eq!(compress_query_text("\u{1} a"), "\u{1}\u{1}a");
    }

    /// Signatures are persisted (traces, experiment outputs) and route
    /// requests to shards: these were captured before the kernel existed.
    #[test]
    fn tpcd_signatures_are_the_ones_on_record() {
        let recorded: [(&str, u64); 10] = [
            ("/* TPC-D.Q1 */ SELECT l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), avg(l_discount), count(*) FROM lineitem WHERE l_shipdate <= date '1998-12-01' - interval '27' day GROUP BY l_returnflag, l_linestatus", 0x4bdb3c5a1bd77b41),
            ("/* TPC-D.Q10 */ SELECT c_custkey, c_name, sum(l_extendedprice*(1-l_discount)), c_acctbal, n_name FROM customer, orders, lineitem, nation WHERE o_orderdate >= date '17' AND l_returnflag = 'R' GROUP BY c_custkey, ...", 0xdde0c87a94d18424),
            ("/* TPC-D.Q11 */ SELECT ps_partkey, sum(ps_supplycost*ps_availqty) FROM partsupp, supplier, nation WHERE n_name = '23' GROUP BY ps_partkey HAVING sum(...) > fraction", 0xa7abb8d73204bd09),
            ("/* TPC-D.Q12 */ SELECT l_shipmode, sum(case when o_orderpriority in ('1-URGENT','2-HIGH') then 1 else 0 end) FROM orders, lineitem WHERE l_shipmode in ('29') GROUP BY l_shipmode", 0xd24575ec9dfd9414),
            ("/* TPC-D.Q13 */ SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, sum(l_quantity) FROM customer, orders, lineitem WHERE o_orderkey in (SELECT l_orderkey FROM lineitem GROUP BY l_orderkey HAVING sum(l_quantity) > 8206814388855)", 0x61332fd25503e214),
            ("/* TPC-D.Q14 */ SELECT 100.00 * sum(case when p_type like 'PROMO%' then l_extendedprice*(1-l_discount) else 0 end) / sum(l_extendedprice*(1-l_discount)) FROM lineitem, part WHERE l_shipdate >= date '6'", 0x5bb058bb54005b3c),
            ("/* TPC-D.Q15 */ SELECT s_suppkey, s_name, total_revenue FROM supplier, revenue_view WHERE total_revenue = (SELECT max(total_revenue) FROM revenue_view) AND quarter = '26'", 0x0537d45f171dbf3f),
            ("/* TPC-D.Q16 */ SELECT p_brand, p_type, p_size, count(distinct ps_suppkey) FROM partsupp, part WHERE p_brand <> '63723304' AND p_size in (...) GROUP BY p_brand, p_type, p_size", 0x8ced64b8ebfeb57c),
            ("/* TPC-D.Q17 */ SELECT sum(l_extendedprice) / 7.0 FROM lineitem, part WHERE p_brand = '349' AND l_quantity < (SELECT 0.2*avg(l_quantity) FROM lineitem WHERE l_partkey = p_partkey)", 0x065f930b9e9b5c53),
            ("/* TPC-D.Q2 */ SELECT s_acctbal, s_name, n_name, p_partkey FROM part, supplier, partsupp, nation, region WHERE p_size = 242 AND ps_supplycost = (SELECT min(ps_supplycost) ...)", 0xc91cd591dc119b9a),
        ];
        for (raw, signature) in recorded {
            assert_eq!(QueryKey::from_raw_query(raw).signature().value(), signature);
            // The shed path's entry agrees with the key's.
            assert_eq!(Signature::of_raw_query(raw).value(), signature);
        }
    }

    #[test]
    fn signature_is_deterministic() {
        let a = Signature::of_str("SELECT * FROM lineitem");
        let b = Signature::of_str("SELECT * FROM lineitem");
        assert_eq!(a, b);
    }

    #[test]
    fn signature_differs_for_different_text() {
        let a = Signature::of_str("q1");
        let b = Signature::of_str("q2");
        assert_ne!(a, b);
    }

    #[test]
    fn signature_known_value_of_empty() {
        // FNV-1a offset basis for empty input.
        assert_eq!(Signature::of_bytes(b"").value(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn compress_collapses_whitespace_runs() {
        let compressed = compress_query_text("SELECT   a,\n\tb FROM  t ;");
        assert_eq!(compressed, "SELECT\u{1}a\u{1}b\u{1}FROM\u{1}t");
    }

    #[test]
    fn compress_trims_leading_and_trailing_delimiters() {
        assert_eq!(compress_query_text("   x   "), "x");
        assert_eq!(compress_query_text(""), "");
        assert_eq!(compress_query_text(" ,; "), "");
    }

    #[test]
    fn keys_with_same_text_are_equal() {
        let a = QueryKey::new("Q1(p=3)");
        let b = QueryKey::new("Q1(p=3)");
        assert_eq!(a, b);
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn keys_from_raw_query_normalize_whitespace() {
        let a = QueryKey::from_raw_query("SELECT  x FROM t");
        let b = QueryKey::from_raw_query("SELECT x\nFROM t");
        assert_eq!(a, b);
    }

    #[test]
    fn hash_uses_signature() {
        let key = QueryKey::new("Q7(a=1,b=2)");
        let mut h1 = DefaultHasher::new();
        key.hash(&mut h1);
        let mut h2 = DefaultHasher::new();
        h2.write_u64(key.signature().value());
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn display_replaces_separator_with_space() {
        let key = QueryKey::from_raw_query("SELECT  x FROM t");
        assert_eq!(key.to_string(), "SELECT x FROM t");
    }

    #[test]
    fn metadata_bytes_accounts_for_text() {
        let key = QueryKey::new("abcd");
        assert_eq!(key.metadata_bytes(), 4 + 8);
    }

    #[test]
    fn ordering_is_textual() {
        let a = QueryKey::new("a");
        let b = QueryKey::new("b");
        assert!(a < b);
    }

    #[test]
    fn signature_maps_hash_a_key_as_its_signature() {
        let state = SignatureState::default();
        let key = QueryKey::from_raw_query("SELECT a FROM t");
        assert_eq!(
            state.hash_one(&key),
            state.hash_one(key.signature().value())
        );
        // The seed is per process, so every map of it places keys alike.
        assert_eq!(
            state.hash_one(&key),
            SignatureState::default().hash_one(&key)
        );
        let other = QueryKey::from_raw_query("SELECT b FROM t");
        assert_ne!(state.hash_one(&key), state.hash_one(&other));
        let mut map = SignatureMap::default();
        map.insert(key.clone(), 1);
        map.insert(other.clone(), 2);
        assert_eq!((map[&key], map[&other]), (1, 2));
    }
}
