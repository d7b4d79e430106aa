//! [`ValueList`]: an operation's operands or results, held in place up
//! to four.
//!
//! A lowered kernel is made of ops with zero to three operands and zero
//! or one result; as `Vec<ValueId>`s those lists were two heap blocks
//! per op built, copied and dropped. A `ValueList` is the size of a
//! `Vec` header (24 bytes) and keeps up to four ids inside it. A longer
//! list — a `memref.store` with three subscripts, a `func.return` or a
//! `dfg.node` over many values — spills to one boxed slice, grown by
//! doubling as a `Vec` would and copied at its exact length. It derefs
//! to `[ValueId]`, so reading one is reading a slice.
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

use crate::ids::ValueId;

/// How many ids a list holds without allocating.
pub const INLINE: usize = 4;

/// What fills the slots past a list's length; never read.
const HOLE: ValueId = ValueId(0);

/// A list of SSA values that holds up to [`INLINE`] of them in place;
/// see the [module docs](self).
///
/// Two conditions hold between the fields, and the `unsafe` blocks rely
/// on them: `data.heap` is the live field exactly when `spilled`, else
/// `data.inline` is (every constructor writes one of them with the flag
/// to match, and `reserve` is the only code that switches); and `len`
/// never exceeds the live field's length (`push` reserves first,
/// `truncate` only shrinks, constructors write the length they copy).
pub struct ValueList {
    len: u32,
    spilled: bool,
    data: Data,
}

/// The storage of a [`ValueList`]: which field is live is the list's
/// `spilled` flag.
union Data {
    inline: [ValueId; INLINE],
    /// Its length is the capacity.
    heap: ManuallyDrop<Box<[ValueId]>>,
}

impl ValueList {
    /// An empty list; allocates nothing.
    pub const fn new() -> Self {
        ValueList {
            len: 0,
            spilled: false,
            data: Data {
                inline: [HOLE; INLINE],
            },
        }
    }

    /// The live storage, capacity included.
    fn storage(&self) -> &[ValueId] {
        if self.spilled {
            // SAFETY: `heap` is live while `spilled` (the first condition
            // on `ValueList`).
            unsafe { &self.data.heap }
        } else {
            // SAFETY: `inline` is live while not `spilled`.
            unsafe { &self.data.inline }
        }
    }

    /// The values as a slice.
    pub fn as_slice(&self) -> &[ValueId] {
        debug_assert!(self.len as usize <= self.capacity());
        let items = self.storage().as_ptr();
        // SAFETY: `items` starts the live storage, whose first `len` ids
        // are initialised and in bounds (the second condition).
        unsafe { std::slice::from_raw_parts(items, self.len as usize) }
    }

    /// The values as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [ValueId] {
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

    /// How many values the list holds before it next allocates.
    pub fn capacity(&self) -> usize {
        self.storage().len()
    }

    /// Makes room for `additional` more values: in place while they
    /// fit, else one boxed slice of at least twice the current length.
    pub fn reserve(&mut self, additional: usize) {
        let len = self.len();
        let needed = len.saturating_add(additional);
        if needed <= self.capacity() {
            return;
        }
        assert!(u32::try_from(needed).is_ok(), "value list overflows u32");
        let mut items = vec![HOLE; needed.max(2 * len)].into_boxed_slice();
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

    /// Appends a value.
    pub fn push(&mut self, value: ValueId) {
        self.reserve(1);
        let at = self.len();
        self.len += 1;
        self.as_mut_slice()[at] = value;
    }

    /// Keeps the first `len` values (all of them when there are fewer);
    /// the storage stays as it is.
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.len = len as u32;
        }
    }

    /// Removes every value, keeping the storage.
    pub fn clear(&mut self) {
        self.truncate(0);
    }
}

impl Drop for ValueList {
    fn drop(&mut self) {
        if self.spilled {
            // SAFETY: `heap` is live (as in `storage`) and never read again.
            unsafe { ManuallyDrop::drop(&mut self.data.heap) };
        }
    }
}

impl Default for ValueList {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for ValueList {
    type Target = [ValueId];

    fn deref(&self) -> &[ValueId] {
        self.as_slice()
    }
}

impl DerefMut for ValueList {
    fn deref_mut(&mut self) -> &mut [ValueId] {
        self.as_mut_slice()
    }
}

impl From<&[ValueId]> for ValueList {
    /// In place up to [`INLINE`] values, else one slice of exactly
    /// `values.len()`.
    fn from(values: &[ValueId]) -> Self {
        let len = u32::try_from(values.len()).expect("value list overflows u32");
        if values.len() <= INLINE {
            let mut inline = [HOLE; INLINE];
            inline[..values.len()].copy_from_slice(values);
            ValueList {
                len,
                spilled: false,
                data: Data { inline },
            }
        } else {
            ValueList {
                len,
                spilled: true,
                data: Data {
                    heap: ManuallyDrop::new(values.into()),
                },
            }
        }
    }
}

impl From<Vec<ValueId>> for ValueList {
    fn from(values: Vec<ValueId>) -> Self {
        values.as_slice().into()
    }
}

impl Clone for ValueList {
    /// Copies the live values only: a spilled list that was truncated to
    /// [`INLINE`] or fewer clones into place.
    fn clone(&self) -> Self {
        self.as_slice().into()
    }
}

impl Extend<ValueId> for ValueList {
    fn extend<I: IntoIterator<Item = ValueId>>(&mut self, values: I) {
        let values = values.into_iter();
        self.reserve(values.size_hint().0);
        values.for_each(|value| self.push(value));
    }
}

impl FromIterator<ValueId> for ValueList {
    fn from_iter<I: IntoIterator<Item = ValueId>>(values: I) -> Self {
        let mut list = ValueList::new();
        list.extend(values);
        list
    }
}

impl<'a> IntoIterator for &'a ValueList {
    type Item = &'a ValueId;
    type IntoIter = std::slice::Iter<'a, ValueId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a> IntoIterator for &'a mut ValueList {
    type Item = &'a mut ValueId;
    type IntoIter = std::slice::IterMut<'a, ValueId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

impl IntoIterator for ValueList {
    type Item = ValueId;
    type IntoIter = IntoIter;

    fn into_iter(self) -> IntoIter {
        IntoIter {
            list: self,
            next: 0,
        }
    }
}

/// The owning iterator of a [`ValueList`].
#[derive(Debug)]
pub struct IntoIter {
    list: ValueList,
    next: usize,
}

impl Iterator for IntoIter {
    type Item = ValueId;

    fn next(&mut self) -> Option<ValueId> {
        let value = self.list.get(self.next).copied()?;
        self.next += 1;
        Some(value)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.list.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for IntoIter {}

impl PartialEq for ValueList {
    fn eq(&self, other: &ValueList) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ValueList {}

impl PartialEq<Vec<ValueId>> for ValueList {
    fn eq(&self, other: &Vec<ValueId>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for ValueList {
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
