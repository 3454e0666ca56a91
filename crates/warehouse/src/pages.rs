//! Physical identifiers: relations and pages.
//!
//! The warehouse stores every relation as a contiguous run of fixed-size disk
//! pages.  Page identifiers are what the query access model produces and what
//! the buffer manager (`watchman-buffer`) caches; the number of *logical
//! block reads* a query performs (its execution cost in the paper's setup,
//! §4.1) is simply the length of its page-access list.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifies a relation within a [`crate::catalog::Catalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RelationId(pub u16);

impl RelationId {
    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RelationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// Identifies one disk page of one relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PageId {
    /// The relation the page belongs to.
    pub relation: RelationId,
    /// The page number within the relation (zero-based).
    pub page: u32,
}

impl PageId {
    /// Creates a page id.
    pub const fn new(relation: RelationId, page: u32) -> Self {
        PageId { relation, page }
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.relation, self.page)
    }
}

/// The fixed page size used throughout the warehouse, in bytes.
///
/// The traces in the paper were collected on Oracle 7, whose default block
/// size was 2 KB; we use 4 KB, the more common modern default.  Only the
/// *relative* costs of queries matter to the cache policies, so the choice
/// does not affect any experimental conclusion.
pub const PAGE_SIZE_BYTES: u64 = 4096;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let page = PageId::new(RelationId(3), 17);
        assert_eq!(page.to_string(), "R3:17");
        assert_eq!(RelationId(3).to_string(), "R3");
    }

    #[test]
    fn ordering_is_by_relation_then_page() {
        let a = PageId::new(RelationId(1), 100);
        let b = PageId::new(RelationId(2), 0);
        let c = PageId::new(RelationId(2), 5);
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn relation_index_round_trip() {
        assert_eq!(RelationId(7).index(), 7);
    }
}
