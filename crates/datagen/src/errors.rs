//! Error-injection primitives.
//!
//! The paper (Appendix B) injects errors by "either changing characters or
//! replacing the attribute value with another value from the domain attribute
//! values".  The hospital generator additionally uses abbreviation errors
//! (e.g. `Fort Wayne → FT Wayne`) because those are the kind of recurrent,
//! source-correlated mistakes its motivation section describes.

use gdr_relation::Value;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// The kinds of corruption the generators can apply to a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Replace/drop individual characters (a typo).
    Typo,
    /// Replace the value with a different value drawn from the attribute's
    /// domain.
    DomainSwap,
    /// Abbreviate the value (keep the first letters of each word).
    Abbreviation,
}

/// Applies a typo to a string: one character substitution and, for longer
/// strings, one deletion.  Guaranteed to differ from the input for non-empty
/// inputs.
pub(crate) fn apply_typo(value: &str, rng: &mut StdRng) -> String {
    let chars: Vec<char> = value.chars().collect();
    if chars.is_empty() {
        return "x".to_string();
    }
    let mut out = chars.clone();
    let pos = rng.gen_range(0..out.len());
    let alphabet = "abcdefghijklmnopqrstuvwxyz0123456789";
    let replacement = loop {
        let c = alphabet
            .chars()
            .nth(rng.gen_range(0..alphabet.len()))
            .unwrap();
        if c != out[pos] {
            break c;
        }
    };
    out[pos] = replacement;
    if out.len() > 4 && rng.gen_bool(0.5) {
        let del = rng.gen_range(0..out.len());
        out.remove(del);
    }
    let result: String = out.into_iter().collect();
    if result == value {
        format!("{result}x")
    } else {
        result
    }
}

/// Abbreviates a value the way hurried data entry does (`Fort Wayne →
/// Frt Wayne`, `Michigan City → Mchigan City`): the first vowel after the
/// leading character of the first word is dropped.  The corruption is small —
/// the correct repair stays the closest value by edit distance, which is what
/// lets the repair-evaluation score (Eq. 7) and the VOI ranking favour the
/// right fix, as in the paper's data.  Values without a droppable vowel lose
/// their last character instead.
pub(crate) fn apply_abbreviation(value: &str) -> String {
    let words: Vec<&str> = value.split_whitespace().collect();
    let first = words.first().copied().unwrap_or(value);
    let chars: Vec<char> = first.chars().collect();
    let vowel_pos = chars
        .iter()
        .enumerate()
        .skip(1)
        .find(|(_, c)| "aeiouAEIOU".contains(**c))
        .map(|(i, _)| i);
    let shortened: String = match vowel_pos {
        Some(pos) => chars
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != pos)
            .map(|(_, c)| *c)
            .collect(),
        None if chars.len() > 1 => chars[..chars.len() - 1].iter().collect(),
        None => format!("{first}X"),
    };
    let mut out = vec![shortened];
    out.extend(words.iter().skip(1).map(|w| w.to_string()));
    let result = out.join(" ");
    if result == value {
        format!("{result}.")
    } else {
        result
    }
}

/// Replaces a value with a different one drawn from `domain`.  Returns `None`
/// when the domain offers no alternative.
pub(crate) fn apply_domain_swap(value: &str, domain: &[&str], rng: &mut StdRng) -> Option<String> {
    let alternatives: Vec<&&str> = domain.iter().filter(|&&d| d != value).collect();
    alternatives.choose(rng).map(|s| s.to_string())
}

/// Applies the requested error kind, always returning a value different from
/// the input (falling back to a typo when a swap is impossible).
pub fn corrupt(value: &Value, kind: ErrorKind, domain: &[&str], rng: &mut StdRng) -> Value {
    let text = value.render().into_owned();
    let corrupted = match kind {
        ErrorKind::Typo => apply_typo(&text, rng),
        ErrorKind::Abbreviation => apply_abbreviation(&text),
        ErrorKind::DomainSwap => {
            apply_domain_swap(&text, domain, rng).unwrap_or_else(|| apply_typo(&text, rng))
        }
    };
    Value::from(corrupted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1234)
    }

    #[test]
    fn typo_always_changes_the_value() {
        let mut rng = rng();
        for original in ["Fort Wayne", "46825", "a", "IN"] {
            for _ in 0..20 {
                assert_ne!(apply_typo(original, &mut rng), original);
            }
        }
    }

    #[test]
    fn typo_on_empty_string_produces_something() {
        let mut rng = rng();
        assert_eq!(apply_typo("", &mut rng), "x");
    }

    #[test]
    fn abbreviation_shortens_multiword_values() {
        assert_eq!(apply_abbreviation("Fort Wayne"), "Frt Wayne");
        assert_eq!(apply_abbreviation("Michigan City"), "Mchigan City");
        assert_eq!(apply_abbreviation("New Haven"), "Nw Haven");
    }

    /// Minimal Levenshtein distance for the closeness check below (the real
    /// implementation lives in `gdr-repair`, which this crate does not
    /// depend on).
    fn edit(a: &str, b: &str) -> usize {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        let mut prev: Vec<usize> = (0..=b.len()).collect();
        for (i, &ca) in a.iter().enumerate() {
            let mut current = vec![i + 1];
            for (j, &cb) in b.iter().enumerate() {
                let substitution = prev[j] + usize::from(ca != cb);
                current.push(substitution.min(prev[j + 1] + 1).min(current[j] + 1));
            }
            prev = current;
        }
        prev[b.len()]
    }

    #[test]
    fn abbreviation_keeps_the_correct_value_closest() {
        // The dropped-vowel corruption must stay closer to the true city than
        // any other value of the domain, so Eq. 7 ranks the correct repair
        // first (the property the VOI ranking relies on).
        let corrupted = apply_abbreviation("Fort Wayne");
        assert!(edit(&corrupted, "Fort Wayne") < edit(&corrupted, "Westville"));
        assert_eq!(edit(&corrupted, "Fort Wayne"), 1);
    }

    #[test]
    fn abbreviation_of_short_values_still_differs() {
        assert_ne!(apply_abbreviation("IN"), "IN");
        assert_ne!(apply_abbreviation("Westville"), "Westville");
        assert_ne!(apply_abbreviation("BCDF"), "BCDF");
    }

    #[test]
    fn domain_swap_picks_a_different_value() {
        let mut rng = rng();
        let domain = ["46360", "46825", "46391"];
        for _ in 0..20 {
            let swapped = apply_domain_swap("46360", &domain, &mut rng).unwrap();
            assert_ne!(swapped, "46360");
            assert!(domain.contains(&swapped.as_str()));
        }
        assert_eq!(apply_domain_swap("only", &["only"], &mut rng), None);
    }

    #[test]
    fn corrupt_never_returns_the_original() {
        let mut rng = rng();
        let domain = ["Fort Wayne", "Westville", "Michigan City"];
        for kind in [
            ErrorKind::Typo,
            ErrorKind::DomainSwap,
            ErrorKind::Abbreviation,
        ] {
            for _ in 0..10 {
                let out = corrupt(&Value::from("Fort Wayne"), kind, &domain, &mut rng);
                assert_ne!(out, Value::from("Fort Wayne"));
            }
        }
    }

    #[test]
    fn corrupt_with_empty_domain_falls_back_to_typo() {
        let mut rng = rng();
        let out = corrupt(&Value::from("46360"), ErrorKind::DomainSwap, &[], &mut rng);
        assert_ne!(out, Value::from("46360"));
    }

    #[test]
    fn corruption_is_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        assert_eq!(
            apply_typo("Fort Wayne", &mut a),
            apply_typo("Fort Wayne", &mut b)
        );
    }
}
