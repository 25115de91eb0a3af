//! Lockable object identities and the lock hierarchy.
//!
//! We model the four-level hierarchy the paper describes ("a database
//! contains tables, which in turn contain pages and rows", Section 3.1):
//! `Database → Table → Page → Record`.

/// Identifies a table within the database.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

impl std::fmt::Display for TableId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Level of an object in the lock hierarchy, top (coarse) to bottom (fine).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LockLevel {
    /// The whole database (coarsest).
    Database,
    /// One table.
    Table,
    /// One page of a table.
    Page,
    /// One record (row) — the finest granularity.
    Record,
}

impl LockLevel {
    /// SLI criterion 1: "the lock is page-level or higher in the hierarchy".
    #[inline]
    pub fn is_page_or_higher(self) -> bool {
        self <= LockLevel::Page
    }
}

/// The identity of a lockable object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockId {
    /// The single database object at the root of the hierarchy.
    Database,
    /// A table.
    Table(TableId),
    /// A page of a table.
    Page(TableId, u32),
    /// A record slot on a page of a table.
    Record(TableId, u32, u16),
}

impl LockId {
    /// This object's level in the hierarchy.
    #[inline]
    pub fn level(self) -> LockLevel {
        match self {
            LockId::Database => LockLevel::Database,
            LockId::Table(_) => LockLevel::Table,
            LockId::Page(..) => LockLevel::Page,
            LockId::Record(..) => LockLevel::Record,
        }
    }

    /// The immediate parent in the hierarchy, or `None` for the root.
    #[inline]
    pub fn parent(self) -> Option<LockId> {
        match self {
            LockId::Database => None,
            LockId::Table(_) => Some(LockId::Database),
            LockId::Page(t, _) => Some(LockId::Table(t)),
            LockId::Record(t, p, _) => Some(LockId::Page(t, p)),
        }
    }

    /// Ancestors from the root down to (excluding) `self`, in lock-
    /// acquisition order. At most 3 entries, so this returns a fixed-size
    /// buffer and a length to stay allocation-free on the hot path.
    #[inline]
    pub fn ancestors_top_down(self) -> ([LockId; 3], usize) {
        let mut buf = [LockId::Database; 3];
        let mut n = 0;
        let mut cur = self.parent();
        while let Some(id) = cur {
            buf[n] = id;
            n += 1;
            cur = id.parent();
        }
        buf[..n].reverse();
        (buf, n)
    }

    /// Cheap, well-distributed 64-bit hash used by the lock table. The
    /// Fibonacci-style mix keeps consecutive pages/records from colliding
    /// into adjacent buckets.
    #[inline]
    pub fn hash64(self) -> u64 {
        let raw: u64 = match self {
            LockId::Database => 0x0100_0000_0000_0000,
            LockId::Table(t) => 0x0200_0000_0000_0000 | t.0 as u64,
            LockId::Page(t, p) => 0x0300_0000_0000_0000 | ((t.0 as u64) << 32) | p as u64,
            LockId::Record(t, p, s) => {
                0x0400_0000_0000_0000 | ((t.0 as u64) << 40) | ((p as u64) << 16) | s as u64
            }
        };
        // SplitMix64 finalizer.
        let mut z = raw.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl std::hash::Hash for LockId {
    /// Writes [`LockId::hash64`] once; it is fully mixed, so
    /// [`LockIdHasher`] passes it through.
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash64());
    }
}

/// Pass-through hasher for maps keyed by [`LockId`]: no second (SipHash)
/// pass over an already-finalized hash.
#[derive(Default)]
pub(crate) struct LockIdHasher(u64);

impl std::hash::Hasher for LockIdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("LockIdHasher hashes LockId keys only");
    }
}

/// `BuildHasher` for the transaction lock cache.
pub(crate) type BuildLockIdHasher = std::hash::BuildHasherDefault<LockIdHasher>;

impl std::fmt::Display for LockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockId::Database => write!(f, "db"),
            LockId::Table(t) => write!(f, "{t}"),
            LockId::Page(t, p) => write!(f, "{t}.p{p}"),
            LockId::Record(t, p, s) => write!(f, "{t}.p{p}.r{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parent_chain_terminates_at_database() {
        let rec = LockId::Record(TableId(3), 7, 2);
        assert_eq!(rec.parent(), Some(LockId::Page(TableId(3), 7)));
        assert_eq!(
            rec.parent().unwrap().parent(),
            Some(LockId::Table(TableId(3)))
        );
        assert_eq!(
            rec.parent().unwrap().parent().unwrap().parent(),
            Some(LockId::Database)
        );
        assert_eq!(LockId::Database.parent(), None);
    }

    #[test]
    fn ancestors_are_top_down() {
        let rec = LockId::Record(TableId(1), 5, 0);
        let (buf, n) = rec.ancestors_top_down();
        assert_eq!(
            &buf[..n],
            &[
                LockId::Database,
                LockId::Table(TableId(1)),
                LockId::Page(TableId(1), 5)
            ]
        );
        let (_, n0) = LockId::Database.ancestors_top_down();
        assert_eq!(n0, 0);
    }

    #[test]
    fn levels_ordered_coarse_to_fine() {
        assert!(LockLevel::Database < LockLevel::Table);
        assert!(LockLevel::Table < LockLevel::Page);
        assert!(LockLevel::Page < LockLevel::Record);
        assert!(LockLevel::Page.is_page_or_higher());
        assert!(LockLevel::Table.is_page_or_higher());
        assert!(!LockLevel::Record.is_page_or_higher());
    }

    #[test]
    fn hash_distinguishes_nearby_objects() {
        let a = LockId::Record(TableId(0), 0, 0).hash64();
        let b = LockId::Record(TableId(0), 0, 1).hash64();
        let c = LockId::Page(TableId(0), 0).hash64();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn hash_spreads_buckets() {
        // 4k consecutive records should hit a healthy number of 1024 buckets.
        let mut buckets = std::collections::HashSet::new();
        for p in 0..64u32 {
            for s in 0..64u16 {
                buckets.insert(LockId::Record(TableId(1), p, s).hash64() % 1024);
            }
        }
        assert!(buckets.len() > 900, "only {} buckets hit", buckets.len());
    }
}
