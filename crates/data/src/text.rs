//! Text generation and the text operations the paper specifies.
//!
//! Documents and the manual are built from a repeated sentence seeded with
//! the owning object's id, exactly like the Java release: the text contains
//! the substring `"I am"` and plenty of `'I'` characters so that T4/OP4
//! (count `'I'`), T5/ST7 (swap `"I am"` ↔ `"This is"`) and OP11 (swap
//! `'I'` ↔ `'i'`) always have work to do.
//!
//! Every kernel is a single pass over the text's bytes. The needles the
//! operations use are ASCII, and an ASCII byte never occurs inside a
//! multi-byte UTF-8 sequence, so counting or swapping such a byte needs no
//! decoding. [`count_char`] with an ASCII needle counts bytes in blocks of
//! at most 255, so each block sums into a `u8` without overflow and the
//! compiler vectorizes the comparison; a non-ASCII needle decodes chars.
//! [`swap_manual_case`] flips `'I'`/`'i'` in place and counts in the same
//! pass. [`swap_text`] builds its output and its count in one
//! `match_indices` pass.
//!
//! These kernels make the *op body* cheap; they deliberately leave the
//! synchronization cost alone. The monolithic STM backend still clones
//! the whole manual on every OP11 write (copy-on-write of a 1 MiB object)
//! and the sharded one clones each changed chunk: that logging cost is
//! what §5 of the paper measures, so it stays as it is.

/// Builds document text of exactly `size` characters for composite part
/// `comp_id`.
pub fn document_text(comp_id: u32, size: usize) -> String {
    fill(
        &format!("I am the documentation of composite part #{comp_id}. "),
        size,
    )
}

/// Builds the manual text of exactly `size` characters for module
/// `module_id`.
pub fn manual_text(module_id: u32, size: usize) -> String {
    fill(&format!("I am the manual of module #{module_id}. "), size)
}

/// Builds a document title; titles are unique per composite part and are
/// the keys of index 4 (Table 1).
pub fn document_title(comp_id: u32) -> String {
    format!("Composite Part #{comp_id}")
}

fn fill(pattern: &str, size: usize) -> String {
    assert!(!pattern.is_empty());
    let mut s = String::with_capacity(size + pattern.len());
    while s.len() < size {
        s.push_str(pattern);
    }
    s.truncate(size);
    s
}

/// Counts occurrences of `needle` (T4, OP4 use `'I'`; ST2 too).
pub fn count_char(text: &str, needle: char) -> usize {
    match u8::try_from(needle) {
        Ok(byte) if byte.is_ascii() => count_byte(text.as_bytes(), byte),
        _ => text.chars().filter(|&c| c == needle).count(),
    }
}

/// Largest block whose per-byte 0/1 tallies sum into a `u8` exactly.
const BLOCK: usize = u8::MAX as usize;

fn count_byte(bytes: &[u8], needle: u8) -> usize {
    bytes
        .chunks(BLOCK)
        .map(|block| usize::from(block.iter().map(|&b| u8::from(b == needle)).sum::<u8>()))
        .sum()
}

/// Returns whether the first and last characters are equal (OP5).
pub fn first_last_equal(text: &str) -> bool {
    match (text.chars().next(), text.chars().next_back()) {
        (Some(a), Some(b)) => a == b,
        _ => false,
    }
}

/// The T5/ST7 update: replace every `"I am"` with `"This is"`, or, if no
/// `"I am"` is present, every `"This is"` with `"I am"`. Returns the number
/// of substrings replaced.
pub fn swap_text(text: &mut String) -> usize {
    match replace_counting(text, "I am", "This is")
        .or_else(|| replace_counting(text, "This is", "I am"))
    {
        Some((swapped, count)) => {
            *text = swapped;
            count
        }
        None => 0,
    }
}

/// `text` with every `from` replaced by `to`, and the number replaced;
/// `None` when `from` does not occur.
fn replace_counting(text: &str, from: &str, to: &str) -> Option<(String, usize)> {
    let mut out = String::new();
    let mut count = 0;
    let mut last = 0;
    for (at, _) in text.match_indices(from) {
        if count == 0 {
            out.reserve(text.len());
        }
        out.push_str(&text[last..at]);
        out.push_str(to);
        last = at + from.len();
        count += 1;
    }
    if count == 0 {
        return None;
    }
    out.push_str(&text[last..]);
    Some((out, count))
}

/// The OP11 update on the manual: replace every `'I'` with `'i'`, or, if
/// no `'I'` is present, every `'i'` with `'I'`. Returns the number of
/// characters changed.
pub fn swap_manual_case(text: &mut String) -> usize {
    let (from, to) = if text.contains('I') {
        (b'I', b'i')
    } else {
        (b'i', b'I')
    };
    replace_byte(text, from, to)
}

/// Replaces every ASCII byte `from` with the ASCII byte `to` in place, in
/// one pass, and returns how many it replaced. Panics unless both are
/// ASCII, which is what keeps the text valid UTF-8.
pub fn replace_byte(text: &mut String, from: u8, to: u8) -> usize {
    assert!(
        from.is_ascii() && to.is_ascii(),
        "replace_byte swaps ASCII bytes"
    );
    let mut bytes = std::mem::take(text).into_bytes();
    let count = bytes
        .chunks_mut(BLOCK)
        .map(|block| {
            let hits = block.iter_mut().map(|b| {
                let hit = *b == from;
                *b = if hit { to } else { *b };
                u8::from(hit)
            });
            usize::from(hits.sum::<u8>())
        })
        .sum();
    *text = String::from_utf8(bytes).expect("an ASCII-for-ASCII swap keeps UTF-8 valid");
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The multi-pass kernels the single-pass ones replaced, kept as the
    /// reference the property tests compare against.
    mod reference {
        pub fn count_char(text: &str, needle: char) -> usize {
            text.chars().filter(|&c| c == needle).count()
        }

        pub fn swap_text(text: &mut String) -> usize {
            swap_pair(text, "I am", "This is")
        }

        pub fn swap_manual_case(text: &mut String) -> usize {
            if text.contains('I') {
                swap_pair(text, "I", "i")
            } else {
                swap_pair(text, "i", "I")
            }
        }

        fn swap_pair(text: &mut String, a: &str, b: &str) -> usize {
            let (from, to) = if text.contains(a) { (a, b) } else { (b, a) };
            let count = text.matches(from).count();
            if count > 0 {
                *text = text.replace(from, to);
            }
            count
        }
    }

    /// Pieces the generated texts are built from: both case letters, both
    /// T5 fragments (and near misses), and multi-byte characters.
    const PIECES: [&str; 12] = [
        "I", "i", "I am", "This is", "Th", "is ", " ", "x", "é", "😀", "Ié", "i😀I",
    ];

    /// Texts of runs of pieces: empty up to a few KiB, so lengths land on
    /// both sides of the 255-byte block edge many times over.
    fn text() -> impl Strategy<Value = String> {
        proptest::collection::vec((0..PIECES.len(), 1usize..64), 0..40).prop_map(|runs| {
            runs.into_iter()
                .map(|(piece, reps)| PIECES[piece].repeat(reps))
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn count_char_matches_reference(t in text(), n in 0..6usize) {
            let needle = ['I', 'i', ' ', 'é', '😀', 'z'][n];
            prop_assert_eq!(count_char(&t, needle), reference::count_char(&t, needle));
        }

        #[test]
        fn swap_text_matches_reference(t in text()) {
            let (mut got, mut want) = (t.clone(), t);
            prop_assert_eq!(swap_text(&mut got), reference::swap_text(&mut want));
            prop_assert_eq!(got.len(), want.len());
            prop_assert_eq!(got, want);
        }

        #[test]
        fn swap_manual_case_matches_reference(t in text()) {
            let (mut got, mut want) = (t.clone(), t);
            prop_assert_eq!(swap_manual_case(&mut got), reference::swap_manual_case(&mut want));
            prop_assert_eq!(got.len(), want.len());
            prop_assert_eq!(got, want);
        }
    }

    /// Exact block edges, and blocks where every byte is a hit (the `u8`
    /// tally reaching 255), which generated texts rarely produce.
    #[test]
    fn kernels_match_reference_across_block_edges() {
        for len in [0, 1, 254, 255, 256, 509, 510, 511, 1 << 12] {
            for base in ["I", "i", "é", "I am. ", "This is! "] {
                let t: String = base.repeat(len).chars().take(len).collect();
                for needle in ['I', 'i', 'é'] {
                    assert_eq!(count_char(&t, needle), reference::count_char(&t, needle));
                }
                let (mut got, mut want) = (t.clone(), t.clone());
                assert_eq!(
                    swap_manual_case(&mut got),
                    reference::swap_manual_case(&mut want)
                );
                assert_eq!(got, want);
                let (mut got, mut want) = (t.clone(), t);
                assert_eq!(swap_text(&mut got), reference::swap_text(&mut want));
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn fill_is_exact_and_repeats() {
        let t = document_text(42, 100);
        assert_eq!(t.len(), 100);
        assert!(t.starts_with("I am the documentation of composite part #42. "));
    }

    #[test]
    fn titles_are_unique_per_id() {
        assert_ne!(document_title(1), document_title(2));
    }

    #[test]
    fn count_char_counts() {
        assert_eq!(count_char("III", 'I'), 3);
        assert_eq!(count_char("", 'I'), 0);
        let t = manual_text(1, 500);
        assert!(count_char(&t, 'I') > 0);
    }

    #[test]
    fn first_last_equal_cases() {
        assert!(first_last_equal("aba"));
        assert!(!first_last_equal("ab"));
        assert!(first_last_equal("x"));
        assert!(!first_last_equal(""));
    }

    #[test]
    fn swap_text_roundtrips() {
        let mut t = document_text(7, 200);
        let n1 = swap_text(&mut t);
        assert!(n1 > 0);
        assert!(t.contains("This is"));
        assert!(!t.contains("I am"));
        let n2 = swap_text(&mut t);
        assert_eq!(n1, n2);
        assert_eq!(t, document_text(7, 200));
    }

    #[test]
    fn swap_manual_case_roundtrips_count() {
        let mut t = manual_text(1, 300);
        let upper = count_char(&t, 'I');
        let n1 = swap_manual_case(&mut t);
        assert_eq!(n1, upper);
        assert_eq!(count_char(&t, 'I'), 0);
        // Swapping back changes every 'i' (original ones plus the converted).
        let n2 = swap_manual_case(&mut t);
        assert!(n2 >= n1);
        assert_eq!(count_char(&t, 'i'), 0);
    }

    #[test]
    fn swap_text_on_neutral_text_is_noop() {
        let mut t = String::from("nothing to see here");
        assert_eq!(swap_text(&mut t), 0);
        assert_eq!(t, "nothing to see here");
    }
}
