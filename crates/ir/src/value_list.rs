//! [`ValueList`]: an operation's operands or results, held in place up
//! to four; and the same [`IdList`] over the other arena ids, an op's
//! regions and a region's blocks.
//!
//! A lowered kernel is made of ops with zero to three operands and zero
//! or one result; as `Vec<ValueId>`s those lists were two heap blocks
//! per op built, copied and dropped. A `ValueList` is the size of a
//! `Vec` header (24 bytes) and keeps up to four ids inside it. A longer
//! list — a `memref.store` with three subscripts, a `func.return` or a
//! `dfg.node` over many values — spills to one boxed slice, grown by
//! doubling as a `Vec` would and copied at its exact length. It derefs
//! to `[ValueId]`, so reading one is reading a slice. An op's region
//! list and a region's block list are `IdList`s too: a loop's one
//! region and its region's one block cost no heap block each, built,
//! cloned or dropped.
//!
//! The two storages share 16 bytes as a `union` beside a `spilled` flag,
//! so finding the slice is a select between two addresses with no bounds
//! check, which every pass that reads operands pays per op. The safe
//! form — an `enum` of the two, matched and sliced on every read — was
//! measured slower on every layer that reads operands, verification
//! most (docs/PERFORMANCE.md, *An op that allocates nothing*). The
//! `unsafe` blocks are in this module, as is everything that can change
//! which field is live or the length.
//!
//! # Examples
//!
//! ```
//! use everest_ir::{ValueId, ValueList};
//!
//! let mut list: ValueList = (0..4).map(ValueId::from_raw).collect();
//! list.push(ValueId::from_raw(4)); // the fifth spills
//! assert_eq!(list.len(), 5);
//! assert_eq!(list[4], ValueId::from_raw(4));
//! list.truncate(2);
//! assert_eq!(list, vec![ValueId::from_raw(0), ValueId::from_raw(1)]);
//! ```

use std::fmt;
use std::mem::ManuallyDrop;
use std::ops::{Deref, DerefMut};

use crate::ids::{BlockId, RegionId, ValueId};

/// How many ids a list holds without allocating.
pub(crate) const INLINE: usize = 4;

/// An arena id an [`IdList`] holds: a `u32` index that is `Copy`.
pub trait ListId: Copy + PartialEq + fmt::Debug {
    /// What fills the slots past a list's length; never read.
    const HOLE: Self;
}

impl ListId for ValueId {
    const HOLE: Self = ValueId(0);
}

impl ListId for RegionId {
    const HOLE: Self = RegionId(0);
}

impl ListId for BlockId {
    const HOLE: Self = BlockId(0);
}

/// An op's operands or results.
pub type ValueList = IdList<ValueId>;

/// A list of arena ids that holds up to `INLINE` of them in place; see
/// the `value_list` module source.
///
/// Two conditions hold between the fields, and the `unsafe` blocks rely
/// on them: `data.heap` is the live field exactly when `spilled`, else
/// `data.inline` is (every constructor writes one of them with the flag
/// to match, and `reserve` is the only code that switches); and `len`
/// never exceeds the live field's length (`push` reserves first,
/// `truncate` only shrinks, constructors write the length they copy).
pub struct IdList<I: ListId> {
    len: u32,
    spilled: bool,
    data: Data<I>,
}

/// The storage of an [`IdList`]: which field is live is the list's
/// `spilled` flag.
union Data<I: ListId> {
    inline: [I; INLINE],
    /// Its length is the capacity.
    heap: ManuallyDrop<Box<[I]>>,
}

impl<I: ListId> IdList<I> {
    /// An empty list; allocates nothing.
    pub const fn new() -> Self {
        IdList {
            len: 0,
            spilled: false,
            data: Data {
                inline: [I::HOLE; INLINE],
            },
        }
    }

    /// The live storage, capacity included.
    fn storage(&self) -> &[I] {
        if self.spilled {
            // SAFETY: `heap` is live while `spilled` (the first condition
            // on `IdList`).
            unsafe { &self.data.heap }
        } else {
            // SAFETY: `inline` is live while not `spilled`.
            unsafe { &self.data.inline }
        }
    }

    /// The ids as a slice.
    pub fn as_slice(&self) -> &[I] {
        debug_assert!(self.len as usize <= self.capacity());
        let items = self.storage().as_ptr();
        // SAFETY: `items` starts the live storage, whose first `len` ids
        // are initialised and in bounds (the second condition).
        unsafe { std::slice::from_raw_parts(items, self.len as usize) }
    }

    /// The ids as a mutable slice.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [I] {
        debug_assert!(self.len as usize <= self.capacity());
        let items = if self.spilled {
            // SAFETY: as in `storage`.
            unsafe { (*self.data.heap).as_mut_ptr() }
        } else {
            // SAFETY: as in `storage`.
            unsafe { self.data.inline.as_mut_ptr() }
        };
        // SAFETY: as in `as_slice`; `&mut self` makes the borrow unique.
        unsafe { std::slice::from_raw_parts_mut(items, self.len as usize) }
    }

    /// How many ids the list holds before it next allocates.
    pub fn capacity(&self) -> usize {
        self.storage().len()
    }

    /// Makes room for `additional` more ids: in place while they fit,
    /// else one boxed slice of at least twice the current length.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let len = self.len();
        let needed = len.saturating_add(additional);
        if needed <= self.capacity() {
            return;
        }
        assert!(u32::try_from(needed).is_ok(), "id list overflows u32");
        let mut items = vec![I::HOLE; needed.max(2 * len)].into_boxed_slice();
        items[..len].copy_from_slice(self);
        if self.spilled {
            // SAFETY: `heap` is live (as in `storage`) and is overwritten
            // below without being read again.
            unsafe { ManuallyDrop::drop(&mut self.data.heap) };
        }
        self.data = Data {
            heap: ManuallyDrop::new(items),
        };
        self.spilled = true;
    }

    /// Appends an id.
    pub fn push(&mut self, id: I) {
        self.reserve(1);
        let at = self.len();
        self.len += 1;
        self.as_mut_slice()[at] = id;
    }

    /// Keeps the first `len` ids (all of them when there are fewer);
    /// the storage stays as it is.
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.len = len as u32;
        }
    }

    /// Removes every id, keeping the storage.
    pub fn clear(&mut self) {
        self.truncate(0);
    }
}

impl<I: ListId> Drop for IdList<I> {
    fn drop(&mut self) {
        if self.spilled {
            // SAFETY: `heap` is live (as in `storage`) and never read again.
            unsafe { ManuallyDrop::drop(&mut self.data.heap) };
        }
    }
}

impl<I: ListId> Default for IdList<I> {
    fn default() -> Self {
        Self::new()
    }
}

impl<I: ListId> Deref for IdList<I> {
    type Target = [I];

    fn deref(&self) -> &[I] {
        self.as_slice()
    }
}

impl<I: ListId> DerefMut for IdList<I> {
    fn deref_mut(&mut self) -> &mut [I] {
        self.as_mut_slice()
    }
}

impl<I: ListId> From<&[I]> for IdList<I> {
    /// In place up to `INLINE` ids, else one slice of exactly
    /// `ids.len()`.
    fn from(ids: &[I]) -> Self {
        let len = u32::try_from(ids.len()).expect("id list overflows u32");
        if ids.len() <= INLINE {
            let mut inline = [I::HOLE; INLINE];
            inline[..ids.len()].copy_from_slice(ids);
            IdList {
                len,
                spilled: false,
                data: Data { inline },
            }
        } else {
            IdList {
                len,
                spilled: true,
                data: Data {
                    heap: ManuallyDrop::new(ids.into()),
                },
            }
        }
    }
}

impl<I: ListId> From<Vec<I>> for IdList<I> {
    fn from(ids: Vec<I>) -> Self {
        ids.as_slice().into()
    }
}

impl<I: ListId> Clone for IdList<I> {
    /// Copies the live ids only: a spilled list that was truncated to
    /// `INLINE` or fewer clones into place.
    fn clone(&self) -> Self {
        self.as_slice().into()
    }
}

impl<I: ListId> Extend<I> for IdList<I> {
    fn extend<T: IntoIterator<Item = I>>(&mut self, ids: T) {
        let ids = ids.into_iter();
        self.reserve(ids.size_hint().0);
        ids.for_each(|id| self.push(id));
    }
}

impl<I: ListId> FromIterator<I> for IdList<I> {
    fn from_iter<T: IntoIterator<Item = I>>(ids: T) -> Self {
        let mut list = IdList::new();
        list.extend(ids);
        list
    }
}

impl<'a, I: ListId> IntoIterator for &'a IdList<I> {
    type Item = &'a I;
    type IntoIter = std::slice::Iter<'a, I>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a, I: ListId> IntoIterator for &'a mut IdList<I> {
    type Item = &'a mut I;
    type IntoIter = std::slice::IterMut<'a, I>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

impl<I: ListId> IntoIterator for IdList<I> {
    type Item = I;
    type IntoIter = IntoIter<I>;

    fn into_iter(self) -> IntoIter<I> {
        IntoIter {
            list: self,
            next: 0,
        }
    }
}

/// The owning iterator of an [`IdList`].
#[derive(Debug)]
pub struct IntoIter<I: ListId> {
    list: IdList<I>,
    next: usize,
}

impl<I: ListId> Iterator for IntoIter<I> {
    type Item = I;

    fn next(&mut self) -> Option<I> {
        let id = self.list.get(self.next).copied()?;
        self.next += 1;
        Some(id)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.list.len() - self.next;
        (left, Some(left))
    }
}

impl<I: ListId> ExactSizeIterator for IntoIter<I> {}

impl<I: ListId> PartialEq for IdList<I> {
    fn eq(&self, other: &IdList<I>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<I: ListId + Eq> Eq for IdList<I> {}

impl<I: ListId> PartialEq<Vec<I>> for IdList<I> {
    fn eq(&self, other: &Vec<I>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<I: ListId> fmt::Debug for IdList<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(range: std::ops::Range<u32>) -> Vec<ValueId> {
        range.map(ValueId::from_raw).collect()
    }

    #[test]
    fn in_place_up_to_four_and_spilled_exactly_past_them() {
        let four: ValueList = ids(0..4).into_iter().collect();
        assert_eq!(four.capacity(), INLINE);
        assert_eq!(four, ids(0..4));
        let five: ValueList = ids(0..5).into_iter().collect();
        assert_eq!(five.capacity(), 5, "an exact-size collect spills exactly");
        assert_eq!(five, ids(0..5));
    }

    #[test]
    fn pushes_double_past_the_spill_and_clones_shrink_back() {
        let mut list = ValueList::new();
        for (n, id) in ids(0..9).into_iter().enumerate() {
            list.push(id);
            assert_eq!(list.as_slice(), &ids(0..n as u32 + 1)[..]);
        }
        assert_eq!(list.capacity(), 16);
        list.truncate(3);
        assert_eq!(list.capacity(), 16, "truncate keeps the storage");
        let copy = list.clone();
        assert_eq!(copy.capacity(), INLINE);
        assert_eq!(copy, ids(0..3));
        list[2] = ValueId::from_raw(7);
        assert_eq!(list, [0, 1, 7].map(ValueId::from_raw).to_vec());
    }

    #[test]
    fn debug_prints_as_a_vec_does() {
        let list: ValueList = ids(0..2).into_iter().collect();
        assert_eq!(format!("{list:?}"), format!("{:?}", ids(0..2)));
    }
}
