//! Lazy deletes, the one way both two-level structures delete.
//!
//! A deleted segment stays in the index pages and is hidden from every
//! read: resident in a [`Hidden`] set each group walk hands to
//! [`crate::batch::Slots`], durable in a [`crate::chain`] of full
//! segments that only `attach` and `validate` read back. The owner
//! purges them all by rebuilding from its live set.

use crate::batch::Hidden;
use crate::chain;
use segdb_geom::Segment;
use segdb_pager::{PageId, Pager, PagerError, Result, NULL_PAGE};

/// A structure's tombstones: the resident set and its durable chain.
#[derive(Debug)]
pub(crate) struct Tombstones {
    hidden: Hidden,
    head: PageId,
}

impl Tombstones {
    pub(crate) fn new() -> Self {
        Tombstones {
            hidden: Hidden::new(),
            head: NULL_PAGE,
        }
    }

    /// Load the chain recorded as `(head, count)`. A count of 0 means no
    /// chain, whatever `head` says. A chain that does not hold exactly
    /// `count` distinct segments is refused: every count would be off by
    /// the difference.
    pub(crate) fn attach(pager: &Pager, head: PageId, count: u64) -> Result<Self> {
        let mut tombs = Tombstones::new();
        if count == 0 {
            return Ok(tombs);
        }
        chain::scan(pager, head, |s| tombs.hidden.insert(s))?;
        if tombs.len() != count {
            return Err(PagerError::Corrupt(
                "tombstone chain disagrees with the superblock's tombstone count",
            ));
        }
        tombs.head = head;
        Ok(tombs)
    }

    /// `(chain head, count)`, what [`Tombstones::attach`] takes back.
    pub(crate) fn state(&self) -> (PageId, u64) {
        (self.head, self.len())
    }

    pub(crate) fn len(&self) -> u64 {
        self.hidden.len() as u64
    }

    /// What every read withholds.
    pub(crate) fn hidden(&self) -> &Hidden {
        &self.hidden
    }

    /// Is the segment carrying `id` tombstoned?
    pub(crate) fn hides(&self, id: u64) -> bool {
        self.hidden.get(id).is_some()
    }

    /// Tombstone a stored, live `seg`: one chain append.
    pub(crate) fn push(&mut self, pager: &Pager, seg: &Segment) -> Result<()> {
        self.head = chain::push(pager, self.head, seg)?;
        self.hidden.insert(*seg);
        Ok(())
    }

    /// Drop every tombstone and free the chain — once the owner has
    /// rebuilt without them, or is being destroyed.
    pub(crate) fn clear(&mut self, pager: &Pager) -> Result<()> {
        chain::destroy(pager, self.head)?;
        *self = Tombstones::new();
        Ok(())
    }

    /// The resident set against its durable copy.
    pub(crate) fn validate(&self, pager: &Pager) -> Result<()> {
        let chained = chain::collect(pager, self.head)?;
        if chained.len() != self.hidden.len()
            || !chained.iter().all(|s| self.hidden.get(s.id) == Some(s))
        {
            return Err(PagerError::Corrupt(
                "resident tombstones disagree with the tombstone chain",
            ));
        }
        Ok(())
    }
}
