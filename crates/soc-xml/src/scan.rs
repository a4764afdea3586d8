//! Batched byte scanning — the reader's inner loops, 8 bytes at a time.
//!
//! Every hot loop in [`crate::reader`] and [`crate::escape`] reduces to
//! the same primitive: *find the next byte of interest*. This module
//! implements that primitive SWAR-style (SIMD Within A Register): load
//! 8 bytes into a `u64`, turn "lane equals needle" into the lane's high
//! bit with carry-free arithmetic, and locate the first set high bit
//! with `trailing_zeros`. A scalar loop handles the sub-word tail.
//!
//! Correctness notes, because SWAR lane tricks are where parsers grow
//! silent bugs:
//!
//! - Words are loaded with [`u64::from_le_bytes`], so lane *k* of the
//!   word is byte *i + k* of the haystack and `trailing_zeros() / 8`
//!   is the first matching index on any host endianness.
//! - `zero_lanes` is the *exact* per-lane formula (mask to 7 bits
//!   before adding so carries cannot cross lanes), not the classic
//!   `haszero` approximation that admits false positives above a true
//!   match. Exactness is what lets [`skip_whitespace`] test "all 8
//!   lanes are whitespace" and skip the whole word.
//! - Multi-byte UTF-8 sequences are just opaque `>= 0x80` bytes here:
//!   every needle is ASCII, and an ASCII byte never occurs inside a
//!   multi-byte UTF-8 sequence, so byte-level scanning is safe on
//!   `str` content and slicing at a match index keeps UTF-8 boundaries.
//!
//! Each public finder has a naive byte-loop twin in [`naive`]; the
//! differential suite in `tests/scan_differential.rs` drives both over
//! adversarial inputs (interest byte in every lane position, multi-byte
//! UTF-8 straddling word boundaries, bytes `>= 0x80`).

/// Low bit of every lane: `0x01` broadcast across the word.
const LO: u64 = 0x0101_0101_0101_0101;
/// High bit of every lane: `0x80` broadcast across the word.
const HI: u64 = 0x8080_8080_8080_8080;

/// `b` copied into all 8 lanes.
#[inline(always)]
const fn broadcast(b: u8) -> u64 {
    (b as u64) * LO
}

/// Load 8 bytes as a little-endian word, so lane order equals byte
/// order and `trailing_zeros` walks the haystack front to back.
#[inline(always)]
fn load(haystack: &[u8], at: usize) -> u64 {
    let chunk: [u8; 8] = haystack[at..at + 8].try_into().unwrap();
    u64::from_le_bytes(chunk)
}

/// High bit of each lane set **iff** that lane's byte is zero. Exact:
/// the low 7 bits are isolated before the add, so no carry can cross a
/// lane boundary and no lane can report a neighbour's zero.
#[inline(always)]
const fn zero_lanes(v: u64) -> u64 {
    !(((v & !HI) + !HI) | v) & HI
}

/// High bit of each lane set iff that lane's byte equals `needle`.
#[inline(always)]
const fn eq_lanes(v: u64, needle: u8) -> u64 {
    zero_lanes(v ^ broadcast(needle))
}

/// Index of the first set high-bit lane in `mask` (which must be
/// non-zero), as a byte offset within the word.
#[inline(always)]
const fn first_lane(mask: u64) -> usize {
    (mask.trailing_zeros() / 8) as usize
}

/// Find the first occurrence of `needle` in `haystack` (memchr).
#[inline]
pub fn find_byte(haystack: &[u8], needle: u8) -> Option<usize> {
    let mut i = 0;
    while i + 8 <= haystack.len() {
        let mask = eq_lanes(load(haystack, i), needle);
        if mask != 0 {
            return Some(i + first_lane(mask));
        }
        i += 8;
    }
    haystack[i..].iter().position(|&b| b == needle).map(|p| i + p)
}

/// Find the first occurrence of `a` or `b` (memchr2).
#[inline]
pub fn find_byte2(haystack: &[u8], a: u8, b: u8) -> Option<usize> {
    let mut i = 0;
    while i + 8 <= haystack.len() {
        let w = load(haystack, i);
        let mask = eq_lanes(w, a) | eq_lanes(w, b);
        if mask != 0 {
            return Some(i + first_lane(mask));
        }
        i += 8;
    }
    haystack[i..].iter().position(|&x| x == a || x == b).map(|p| i + p)
}

/// Find the first occurrence of `a`, `b`, or `c` (memchr3).
#[inline]
pub fn find_byte3(haystack: &[u8], a: u8, b: u8, c: u8) -> Option<usize> {
    let mut i = 0;
    while i + 8 <= haystack.len() {
        let w = load(haystack, i);
        let mask = eq_lanes(w, a) | eq_lanes(w, b) | eq_lanes(w, c);
        if mask != 0 {
            return Some(i + first_lane(mask));
        }
        i += 8;
    }
    haystack[i..].iter().position(|&x| x == a || x == b || x == c).map(|p| i + p)
}

/// Find the first byte that is any of `needles` (at most 8 of them —
/// enough for the attribute-escape set). With a constant needle slice
/// the inner loop unrolls into straight-line lane arithmetic.
#[inline]
pub fn find_any(haystack: &[u8], needles: &[u8]) -> Option<usize> {
    debug_assert!(needles.len() <= 8, "find_any is tuned for small needle sets");
    let mut i = 0;
    while i + 8 <= haystack.len() {
        let w = load(haystack, i);
        let mut mask = 0u64;
        for &n in needles {
            mask |= eq_lanes(w, n);
        }
        if mask != 0 {
            return Some(i + first_lane(mask));
        }
        i += 8;
    }
    haystack[i..].iter().position(|b| needles.contains(b)).map(|p| i + p)
}

/// Find the first occurrence of `needle` as a substring: memchr on the
/// first byte, verify the rest. The reader's `take_until` delimiters
/// (`?>`, `-->`, `]]>`) are short and rare, so the verify step almost
/// never runs.
#[inline]
pub fn find_substr(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    let (&first, rest) = needle.split_first()?;
    let mut i = 0;
    while i < haystack.len() {
        let at = i + find_byte(&haystack[i..], first)?;
        let tail = &haystack[at + 1..];
        if tail.len() >= rest.len() && &tail[..rest.len()] == rest {
            return Some(at);
        }
        i = at + 1;
    }
    None
}

/// Count occurrences of `needle` — one popcount per 8 bytes. Feeds
/// lazy line-number materialization ([`crate::error::Position::locate`]):
/// the reader tracks only byte offsets on the hot path and pays for
/// line/column exactly once, when an error is actually constructed.
#[inline]
pub fn count_byte(haystack: &[u8], needle: u8) -> usize {
    let mut i = 0;
    let mut n = 0;
    while i + 8 <= haystack.len() {
        n += eq_lanes(load(haystack, i), needle).count_ones() as usize;
        i += 8;
    }
    n + haystack[i..].iter().filter(|&&b| b == needle).count()
}

/// Find the last occurrence of `needle` (memrchr): whole words from the
/// back, `63 - leading_zeros` picking the highest matching lane.
#[inline]
pub fn rfind_byte(haystack: &[u8], needle: u8) -> Option<usize> {
    let mut end = haystack.len();
    let head = end % 8;
    if let Some(p) = haystack[end - head..].iter().rposition(|&b| b == needle) {
        return Some(end - head + p);
    }
    end -= head;
    while end >= 8 {
        let mask = eq_lanes(load(haystack, end - 8), needle);
        if mask != 0 {
            return Some(end - 8 + (63 - mask.leading_zeros() as usize) / 8);
        }
        end -= 8;
    }
    None
}

/// Number of leading bytes of `haystack` that are XML whitespace
/// (space, tab, CR, LF). Whole words of whitespace are skipped 8 bytes
/// per iteration; the first word containing a non-whitespace lane is
/// resolved with lane arithmetic.
#[inline]
pub fn skip_whitespace(haystack: &[u8]) -> usize {
    // Dense markup rarely has leading whitespace at all; bail before
    // the word loop spins up.
    if !haystack.first().is_some_and(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n')) {
        return 0;
    }
    let mut i = 1;
    while i + 8 <= haystack.len() {
        let w = load(haystack, i);
        let ws = eq_lanes(w, b' ') | eq_lanes(w, b'\t') | eq_lanes(w, b'\r') | eq_lanes(w, b'\n');
        if ws == HI {
            i += 8;
            continue;
        }
        return i + first_lane(!ws & HI);
    }
    while i < haystack.len() && matches!(haystack[i], b' ' | b'\t' | b'\r' | b'\n') {
        i += 1;
    }
    i
}

/// Byte-at-a-time oracles with the same signatures as the SWAR finders.
/// These are the *specification*: the differential tests assert the
/// batched implementations agree with them on every input.
pub mod naive {
    /// Oracle twin of [`super::find_byte`].
    pub fn find_byte(haystack: &[u8], needle: u8) -> Option<usize> {
        haystack.iter().position(|&b| b == needle)
    }

    /// Oracle twin of [`super::find_byte2`].
    pub fn find_byte2(haystack: &[u8], a: u8, b: u8) -> Option<usize> {
        haystack.iter().position(|&x| x == a || x == b)
    }

    /// Oracle twin of [`super::find_byte3`].
    pub fn find_byte3(haystack: &[u8], a: u8, b: u8, c: u8) -> Option<usize> {
        haystack.iter().position(|&x| x == a || x == b || x == c)
    }

    /// Oracle twin of [`super::find_any`].
    pub fn find_any(haystack: &[u8], needles: &[u8]) -> Option<usize> {
        haystack.iter().position(|b| needles.contains(b))
    }

    /// Oracle twin of [`super::find_substr`].
    pub fn find_substr(haystack: &[u8], needle: &[u8]) -> Option<usize> {
        if needle.is_empty() {
            return None;
        }
        if haystack.len() < needle.len() {
            return None;
        }
        (0..=haystack.len() - needle.len()).find(|&i| &haystack[i..i + needle.len()] == needle)
    }

    /// Oracle twin of [`super::count_byte`].
    pub fn count_byte(haystack: &[u8], needle: u8) -> usize {
        haystack.iter().filter(|&&b| b == needle).count()
    }

    /// Oracle twin of [`super::rfind_byte`].
    pub fn rfind_byte(haystack: &[u8], needle: u8) -> Option<usize> {
        haystack.iter().rposition(|&b| b == needle)
    }

    /// Oracle twin of [`super::skip_whitespace`].
    pub fn skip_whitespace(haystack: &[u8]) -> usize {
        haystack
            .iter()
            .position(|b| !matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
            .unwrap_or(haystack.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_needle_in_every_lane_position() {
        for lane in 0..24 {
            let mut buf = vec![b'a'; 24];
            buf[lane] = b'<';
            assert_eq!(find_byte(&buf, b'<'), Some(lane), "lane {lane}");
        }
    }

    #[test]
    fn no_match_returns_none() {
        assert_eq!(find_byte(b"abcdefghijklmnop", b'<'), None);
        assert_eq!(find_byte(b"", b'<'), None);
        assert_eq!(find_byte2(b"xyz", b'<', b'&'), None);
    }

    #[test]
    fn sub_word_tails_are_scanned() {
        assert_eq!(find_byte(b"abc<", b'<'), Some(3));
        assert_eq!(find_byte(b"abcdefgh012<", b'<'), Some(11));
    }

    #[test]
    fn earliest_of_multiple_needles_wins() {
        assert_eq!(find_byte2(b"xx&yy<zz", b'<', b'&'), Some(2));
        assert_eq!(find_byte3(b"ab]cd&ef<", b'<', b'&', b']'), Some(2));
        assert_eq!(find_any(b"ab\tcd\"e", b"\"\t\n"), Some(2));
    }

    #[test]
    fn high_bytes_never_match_ascii_needles() {
        // 0x80..0xFF bytes (UTF-8 continuation range) must not alias
        // into any ASCII needle under the lane arithmetic.
        let buf: Vec<u8> = (0x80..=0xFFu8).collect();
        assert_eq!(find_byte(&buf, b'<'), None);
        assert_eq!(find_any(&buf, b"<>&\"'\n\t"), None);
        assert_eq!(skip_whitespace(&buf), 0);
    }

    #[test]
    fn substr_finds_delimiters() {
        assert_eq!(find_substr(b"data?>rest", b"?>"), Some(4));
        assert_eq!(find_substr(b"a--b-->c", b"-->"), Some(4));
        assert_eq!(find_substr(b"]]x]]>", b"]]>"), Some(3));
        assert_eq!(find_substr(b"no delim", b"?>"), None);
        // Overlapping candidate prefixes must not desync the scan.
        assert_eq!(find_substr(b"-- -- -->", b"-->"), Some(6));
    }

    #[test]
    fn whitespace_runs_longer_than_a_word() {
        let mut buf = vec![b' '; 20];
        buf.extend_from_slice(b"<x/>");
        assert_eq!(skip_whitespace(&buf), 20);
        assert_eq!(skip_whitespace(b"  \t\r\n  x"), 7);
        assert_eq!(skip_whitespace(b"x"), 0);
        assert_eq!(skip_whitespace(b"        "), 8);
    }

    #[test]
    fn count_and_rfind_cover_word_and_tail() {
        let buf = b"a\nbb\ncccc\ndddddddd\ne";
        assert_eq!(count_byte(buf, b'\n'), 4);
        assert_eq!(rfind_byte(buf, b'\n'), Some(18));
        assert_eq!(rfind_byte(buf, b'z'), None);
        assert_eq!(rfind_byte(b"", b'\n'), None);
        for lane in 0..24 {
            let mut v = vec![b'a'; 24];
            v[lane] = b'\n';
            assert_eq!(rfind_byte(&v, b'\n'), Some(lane), "lane {lane}");
            assert_eq!(count_byte(&v, b'\n'), 1);
        }
    }

    #[test]
    fn zero_lanes_is_exact_per_lane() {
        // 0x0100 is the classic haszero false positive: the borrow out
        // of the low lane must not mark the 0x01 lane as zero.
        let w = u64::from_le_bytes([0x00, 0x01, 0x80, 0xFF, 0x00, 0x7F, 0x01, 0x00]);
        let mask = zero_lanes(w);
        for lane in 0..8 {
            let expect = w.to_le_bytes()[lane] == 0;
            assert_eq!(mask & (0x80 << (lane * 8)) != 0, expect, "lane {lane}");
        }
    }
}
