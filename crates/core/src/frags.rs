//! The fragment core under FRAGMENT and M_RPC (DESIGN.md §14). Both carry a
//! message in at most [`MAX_FRAGS`] pieces, one bit each in a 16-bit
//! `frag_mask`: [`count`] and [`selected`] are the sender's side, [`Place`]
//! (a data fragment's checked header) and [`Slot`] (one message being
//! reassembled) the receiver's.
//!
//! A data fragment whose `num_frags` is 0 or past [`MAX_FRAGS`], whose mask
//! is not exactly one bit below `num_frags`, or whose `num_frags` its open
//! slot disagrees with, is refused here as a [`Reject::Corrupt`], which the
//! protocol's demux returns and its seam counts. ACK and NACK masks name
//! many fragments and are the protocols' own. Nothing here charges: the push
//! loops, whose order of charges the virtual clock sees, stay in each
//! protocol.

use xkernel::prelude::*;

/// Most fragments one message takes: one bit each in the 16-bit mask.
pub const MAX_FRAGS: usize = 16;

/// The mask naming fragments `0..num` (`num` at most [`MAX_FRAGS`]).
pub fn full_mask(num: u16) -> u16 {
    debug_assert!(usize::from(num) <= MAX_FRAGS);
    ((1u32 << num) - 1) as u16
}

/// How many `frag_size`-byte fragments carry `len` bytes (an empty message
/// still takes one), or `TooBig` past [`MAX_FRAGS`] of them or past the
/// 16-bit length and offset fields the headers carry.
pub fn count(len: usize, frag_size: usize) -> XResult<u16> {
    let max = (MAX_FRAGS * frag_size).min(usize::from(u16::MAX));
    if len > max {
        return Err(XError::TooBig { size: len, max });
    }
    Ok(len.max(1).div_ceil(frag_size) as u16)
}

/// The pieces of `msg` (which [`count`] accepted) under `frag_size` that
/// `mask` selects, in order, each as `(index, its bit, bytes)`. Zero-copy:
/// a piece is a view of `msg`'s segments, cut from one clone as the caller
/// asks for it, and nothing past the highest bit `mask` names is cut.
pub fn selected(
    msg: &Message,
    frag_size: usize,
    mask: u16,
) -> impl Iterator<Item = (usize, u16, Message)> {
    let upto = (u16::BITS - mask.leading_zeros()) as usize;
    let mut rest = Some(msg.clone());
    (0..upto)
        .map_while(move |i| {
            let mut piece = rest.take()?;
            if piece.len() > frag_size {
                // Within `piece`'s length, so the split cannot fail.
                rest = piece.split_off(frag_size).ok();
            }
            Some((i, 1u16 << i, piece))
        })
        .filter(move |(_, bit, _)| mask & bit != 0)
}

/// A data fragment's place in its message: `num` in `1..=MAX_FRAGS`, and one
/// bit below it.
#[derive(Clone, Copy, Debug)]
pub struct Place {
    num: u16,
    bit: u16,
}

impl Place {
    /// Checks a data fragment's `num_frags` and `frag_mask`; a malformed pair
    /// is refused.
    pub fn check(num_frags: u16, frag_mask: u16) -> Result<Place, Reject> {
        let ok = (1..=MAX_FRAGS as u16).contains(&num_frags)
            && frag_mask.is_power_of_two()
            && frag_mask & !full_mask(num_frags) == 0;
        if !ok {
            return Err(Reject::Corrupt("fragment place"));
        }
        Ok(Place {
            num: num_frags,
            bit: frag_mask,
        })
    }

    /// Whether this is the message's first fragment.
    pub fn is_first(self) -> bool {
        self.bit == 1
    }
}

/// One message being reassembled: a hole per fragment and the mask of those
/// filled.
#[derive(Clone, Debug)]
pub struct Slot {
    num: u16,
    have: u16,
    parts: Vec<Option<Message>>,
}

impl Slot {
    /// An empty slot for the message `at` belongs to.
    pub fn new(at: Place) -> Slot {
        Slot {
            num: at.num,
            have: 0,
            parts: (0..at.num).map(|_| None).collect(),
        }
    }

    /// Files `frag` at `at` and says whether the slot lacked it (a
    /// duplicate is not filed again); refuses it if `at` names a message of
    /// another size.
    pub fn take(&mut self, at: Place, frag: Message) -> Result<bool, Reject> {
        if at.num != self.num {
            return Err(Reject::Corrupt("fragment of another message size"));
        }
        if self.have & at.bit != 0 {
            return Ok(false);
        }
        // `Place::check` put the bit below `num`, which sized `parts`.
        let Some(part) = self.parts.get_mut(at.bit.trailing_zeros() as usize) else {
            return Err(Reject::Corrupt("fragment place"));
        };
        *part = Some(frag);
        self.have |= at.bit;
        Ok(true)
    }

    /// How many fragments the message has.
    pub fn num(&self) -> u16 {
        self.num
    }

    /// The fragments filed so far.
    pub fn have(&self) -> u16 {
        self.have
    }

    /// The fragments still to come.
    pub fn missing(&self) -> u16 {
        full_mask(self.num) & !self.have
    }

    /// Whether every fragment is in.
    pub fn complete(&self) -> bool {
        self.missing() == 0
    }

    /// Hands back the message, its fragments in index order. The slot keeps
    /// its masks, so a late copy of any fragment is a duplicate.
    pub fn assemble(&mut self) -> Message {
        debug_assert!(self.complete(), "assembling an incomplete message");
        // Every part is here; `map`, unlike `flatten`, tells `concat` how
        // many, so the rope is sized once.
        Message::concat(
            std::mem::take(&mut self.parts)
                .into_iter()
                .map(Option::unwrap_or_default),
        )
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The pieces against a model that cuts every piece first and keeps
        /// the masked ones: the same indices, bits and bytes, for any length
        /// `count` accepts and any mask, bits past the last piece included.
        #[test]
        fn selected_yields_the_masked_pieces_of_a_vec_model(
            len in 0usize..2_000,
            frag_size in 1usize..300,
            mask in 0u32..0x1_0000,
        ) {
            let mask = mask as u16;
            // At most sixteen pieces, as `count` accepts.
            let len = len % (MAX_FRAGS * frag_size + 1);
            let bytes: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let got: Vec<_> = selected(&Message::from_user(bytes.clone()), frag_size, mask)
                .map(|(i, bit, piece)| (i, bit, piece.to_vec()))
                .collect();
            let pieces: Vec<&[u8]> = if len == 0 {
                vec![&[]]
            } else {
                bytes.chunks(frag_size).collect()
            };
            let want: Vec<_> = pieces
                .into_iter()
                .enumerate()
                .filter(|(i, _)| mask & 1 << i != 0)
                .map(|(i, piece)| (i, 1u16 << i, piece.to_vec()))
                .collect();
            prop_assert_eq!(got, want);
        }

        /// The slot against a `Vec` model: fragments in any order, with
        /// duplicates and fragments of a message of another size, come out
        /// as the model's bytes in index order, once every index is in.
        #[test]
        fn a_slot_reassembles_what_a_vec_model_does(
            num in 1u16..17,
            arrivals in proptest::collection::vec((0u16..16, 0u16..17), 1..80),
        ) {
            let piece = |i: u16| vec![i as u8; usize::from(i) + 1];
            let mut slot = Slot::new(Place::check(num, 1).unwrap());
            let mut model: Vec<Option<Vec<u8>>> = vec![None; usize::from(num)];
            for (i, other) in arrivals {
                let i = i % num;
                // One arrival in four claims a message of another size.
                let claimed = if other % 4 == 0 { 1 + other % 16 } else { num };
                let at = Place::check(claimed, 1 << (i % claimed)).unwrap();
                let took = slot.take(at, Message::from_user(piece(i % claimed)));
                let want = if claimed != num {
                    Err(Reject::Corrupt("fragment of another message size"))
                } else if model[usize::from(i)].is_some() {
                    Ok(false)
                } else {
                    model[usize::from(i)] = Some(piece(i));
                    Ok(true)
                };
                prop_assert_eq!(took, want);
                let have = model
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.is_some())
                    .fold(0u16, |m, (j, _)| m | 1 << j);
                prop_assert_eq!(slot.have(), have);
                prop_assert_eq!(slot.missing(), full_mask(num) & !have);
            }
            if slot.complete() {
                let whole: Vec<u8> = model.into_iter().flatten().flatten().collect();
                prop_assert_eq!(slot.assemble().to_vec(), whole);
                let again = Place::check(num, 1).unwrap();
                prop_assert_eq!(slot.take(again, Message::empty()), Ok(false));
            }
        }
    }
}
