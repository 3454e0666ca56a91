//! Limited query-equivalence testing (paper §3 and §6).
//!
//! WATCHMAN's lookup uses an *exact* query-ID match: two syntactically
//! different but semantically equivalent queries occupy separate cache
//! entries.  The paper notes that general query equivalence is NP-hard and
//! that existing rewrite-based tests for aggregate queries are too expensive,
//! and lists the development of a *simpler* method as future work.
//!
//! This module implements such a simple method: a **canonicalizer** that
//! removes the cheap, purely syntactic sources of mismatch —
//!
//! * letter case of keywords and identifiers (quoted literals are preserved),
//! * whitespace and delimiter runs,
//! * the order of top-level `AND` conjuncts in a `WHERE` or `HAVING` clause
//!   with no top-level `OR` (`a AND b OR c` is `(a AND b) OR c`, so such a
//!   clause is left in its order),
//! * the order of entries in a `GROUP BY` list, which is a set.  An
//!   `ORDER BY` list is a sequence — `ORDER BY a, b` and `ORDER BY b, a`
//!   return rows in different orders — and keeps its order,
//!
//! and a [`canonical_key`] helper that produces a [`QueryKey`] from the
//! canonical form.  Queries that differ only in these aspects then map to the
//! same cache entry.  The method is sound for the query shapes the
//! warehousing workloads use (single-block select/aggregate queries); it
//! never merges queries whose canonical forms differ, so at worst it behaves
//! like the exact matcher.

use crate::key::{compress_query_text, QueryKey};

/// Lowercases SQL text outside of single-quoted string literals.
fn lowercase_outside_literals(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut in_literal = false;
    for ch in sql.chars() {
        if ch == '\'' {
            in_literal = !in_literal;
            out.push(ch);
        } else if in_literal {
            out.push(ch);
        } else {
            out.extend(ch.to_lowercase());
        }
    }
    out
}

/// Splits a clause on a top-level separator, respecting parentheses and
/// string literals.
fn split_top_level<'a>(text: &'a str, separator: &str) -> Vec<&'a str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut in_literal = false;
    let mut start = 0usize;
    let bytes = text.as_bytes();
    let sep = separator.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\'' => in_literal = !in_literal,
            b'(' if !in_literal => depth += 1,
            b')' if !in_literal => depth = depth.saturating_sub(1),
            _ => {}
        }
        if !in_literal
            && depth == 0
            && i + sep.len() <= bytes.len()
            && bytes[i..i + sep.len()].eq_ignore_ascii_case(sep)
        {
            parts.push(text[start..i].trim());
            i += sep.len();
            start = i;
            continue;
        }
        i += 1;
    }
    parts.push(text[start..].trim());
    parts
}

/// Sorts the elements of a `GROUP BY` list (comma separated) into a
/// canonical order.
fn canonicalize_list(list: &str) -> String {
    let mut items: Vec<&str> = split_top_level(list, ",");
    items.sort_unstable();
    items.join(", ")
}

/// Whether `predicate` has an `or` outside parentheses and literals.
fn has_top_level_or(predicate: &str) -> bool {
    let bytes = predicate.as_bytes();
    let word = |at: usize| {
        bytes
            .get(at)
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
    };
    let (mut depth, mut in_literal) = (0usize, false);
    for (i, &byte) in bytes.iter().enumerate() {
        match byte {
            b'\'' => in_literal = !in_literal,
            b'(' if !in_literal => depth += 1,
            b')' if !in_literal => depth = depth.saturating_sub(1),
            _ if in_literal || depth > 0 => {}
            _ if bytes[i..].starts_with(b"or") && (i == 0 || !word(i - 1)) && !word(i + 2) => {
                return true;
            }
            _ => {}
        }
    }
    false
}

/// Sorts top-level `AND` conjuncts of a predicate into a canonical order,
/// unless a top-level `OR` makes their order part of the meaning.
fn canonicalize_conjunction(predicate: &str) -> String {
    if has_top_level_or(predicate) {
        return predicate.to_owned();
    }
    let mut conjuncts: Vec<String> = split_top_level(predicate, " and ")
        .into_iter()
        .map(|c| c.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect();
    conjuncts.sort_unstable();
    conjuncts.join(" and ")
}

/// Produces the canonical form of a single-block SQL query.
///
/// The canonical form lowercases everything outside string literals,
/// normalizes whitespace, orders the conjuncts of a `WHERE` or `HAVING`
/// clause without a top-level `OR`, and orders the `GROUP BY` list.  Queries
/// whose canonical forms are equal are considered equivalent for caching
/// purposes.
pub fn canonicalize(sql: &str) -> String {
    let lowered = lowercase_outside_literals(sql);
    let collapsed = lowered.split_whitespace().collect::<Vec<_>>().join(" ");

    // Locate the top-level clauses.  This is a deliberately simple scanner:
    // if the query does not match the expected single-block shape, it is
    // returned in collapsed form (still a sound exact-match key).
    let clause_markers = [" where ", " group by ", " order by ", " having "];
    let mut boundaries: Vec<(usize, &str)> = Vec::new();
    for marker in clause_markers {
        let mut offset = 0;
        while let Some(pos) = collapsed[offset..].find(marker) {
            let absolute = offset + pos;
            // Only treat it as a clause boundary at parenthesis depth zero.
            let depth = collapsed[..absolute].matches('(').count() as i64
                - collapsed[..absolute].matches(')').count() as i64;
            let literal_quotes = collapsed[..absolute].matches('\'').count();
            if depth == 0 && literal_quotes % 2 == 0 {
                boundaries.push((absolute, marker));
                break;
            }
            offset = absolute + marker.len();
        }
    }
    boundaries.sort_by_key(|&(pos, _)| pos);

    if boundaries.is_empty() {
        return collapsed;
    }

    let mut out = String::with_capacity(collapsed.len());
    out.push_str(collapsed[..boundaries[0].0].trim());
    for (i, &(pos, marker)) in boundaries.iter().enumerate() {
        let body_start = pos + marker.len();
        let body_end = boundaries.get(i + 1).map_or(collapsed.len(), |&(p, _)| p);
        let body = collapsed[body_start..body_end].trim();
        let canonical_body = match marker {
            " where " | " having " => canonicalize_conjunction(body),
            " group by " => canonicalize_list(body),
            _ => body.to_owned(),
        };
        out.push_str(marker);
        out.push_str(&canonical_body);
    }
    out
}

/// Whether two queries are equivalent under the canonicalizer.
pub fn queries_equivalent(a: &str, b: &str) -> bool {
    canonicalize(a) == canonicalize(b)
}

/// Builds a cache key from the canonical form of a query, so that
/// canonically-equivalent queries share one cache entry.
pub fn canonical_key(sql: &str) -> QueryKey {
    QueryKey::new(compress_query_text(&canonicalize(sql)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_and_whitespace_are_ignored() {
        assert!(queries_equivalent(
            "SELECT   sum(x)  FROM t WHERE a = 1",
            "select sum(X) from T where A = 1"
        ));
    }

    #[test]
    fn string_literals_keep_their_case() {
        assert!(!queries_equivalent(
            "SELECT * FROM t WHERE name = 'Alpha'",
            "SELECT * FROM t WHERE name = 'alpha'"
        ));
        let canonical = canonicalize("SELECT * FROM t WHERE name = 'Alpha'");
        assert!(canonical.contains("'Alpha'"));
    }

    #[test]
    fn where_conjunct_order_is_irrelevant() {
        assert!(queries_equivalent(
            "SELECT count(*) FROM bench WHERE k2 = 1 AND k10 = 3 AND k100 < 41",
            "SELECT count(*) FROM bench WHERE k100 < 41 AND k2 = 1 AND k10 = 3"
        ));
    }

    #[test]
    fn group_by_order_is_irrelevant() {
        assert!(queries_equivalent(
            "SELECT a, b, sum(c) FROM t GROUP BY a, b",
            "SELECT a, b, sum(c) FROM t GROUP BY b, a"
        ));
    }

    #[test]
    fn different_predicates_are_not_merged() {
        assert!(!queries_equivalent(
            "SELECT count(*) FROM bench WHERE k2 = 1",
            "SELECT count(*) FROM bench WHERE k2 = 2"
        ));
        assert!(!queries_equivalent(
            "SELECT sum(a) FROM t",
            "SELECT sum(b) FROM t"
        ));
    }

    #[test]
    fn or_disjuncts_are_not_reordered() {
        // Only AND conjuncts are order-insensitive at this level of the
        // canonicalizer; OR expressions are left untouched (conservative).
        let a = "SELECT * FROM t WHERE a = 1 OR b = 2";
        let b = "SELECT * FROM t WHERE b = 2 OR a = 1";
        assert!(!queries_equivalent(a, b));
        assert!(queries_equivalent(
            a,
            "select * from t where A = 1 or B = 2"
        ));
    }

    #[test]
    fn order_by_is_a_sequence() {
        let a = canonical_key("SELECT a, b FROM t ORDER BY a, b");
        let b = canonical_key("SELECT a, b FROM t ORDER BY b, a");
        assert_ne!(a, b);
        assert_eq!(a, canonical_key("select a, b from T order by a, b"));
    }

    #[test]
    fn a_clause_with_a_top_level_or_keeps_its_order() {
        // (a ∧ b) ∨ c against b ∨ (c ∧ a): sorting the split on AND would
        // give both the conjuncts `a = 1` and `b = 2 or c = 3`.
        let a = canonical_key("SELECT * FROM t WHERE a = 1 AND b = 2 OR c = 3");
        let b = canonical_key("SELECT * FROM t WHERE b = 2 OR c = 3 AND a = 1");
        assert_ne!(a, b);
    }

    #[test]
    fn a_top_level_or_is_a_word_outside_parentheses_and_literals() {
        for (predicate, has_or) in [
            ("a = 1 and b = 2 or(c = 3)", true),
            ("x = 'a or b' and y = 1", false),
            ("color = 1 and orders = 2", false),
            ("(a = 1 or b = 2) and c = 3", false),
        ] {
            assert_eq!(has_top_level_or(predicate), has_or, "{predicate}");
        }
    }

    #[test]
    fn nested_parentheses_are_not_split() {
        assert!(queries_equivalent(
            "SELECT * FROM t WHERE (a = 1 AND b = 2) AND c = 3",
            "SELECT * FROM t WHERE c = 3 AND (a = 1 AND b = 2)"
        ));
        // The inner conjunction keeps its own order (conservative).
        assert!(!queries_equivalent(
            "SELECT * FROM t WHERE (a = 1 AND b = 2)",
            "SELECT * FROM t WHERE (b = 2 AND a = 1)"
        ));
    }

    #[test]
    fn canonical_keys_collide_exactly_when_equivalent() {
        let a = canonical_key("SELECT sum(x) FROM t WHERE p = 1 AND q = 2 GROUP BY g, h");
        let b = canonical_key("select SUM(x) from t where q = 2 and p = 1 group by h, g");
        let c = canonical_key("SELECT sum(x) FROM t WHERE p = 1 AND q = 3 GROUP BY g, h");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn queries_without_clauses_are_just_collapsed() {
        assert_eq!(canonicalize("SELECT  1"), "select 1");
        assert_eq!(canonicalize("  "), "");
    }

    #[test]
    fn having_clause_conjuncts_are_ordered() {
        assert!(queries_equivalent(
            "SELECT a, sum(b) FROM t GROUP BY a HAVING sum(b) > 10 AND count(*) > 2",
            "SELECT a, sum(b) FROM t GROUP BY a HAVING count(*) > 2 AND sum(b) > 10"
        ));
    }
}
