//! The upper half: the application's checkpointable memory.
//!
//! In real MANA the upper half is the process's virtual memory minus the
//! lower-half MPI library; DMTCP writes its segments to the image file
//! verbatim. Here the upper half is modeled as a set of **named byte
//! segments** — the application keeps all state it wants to survive a
//! restart in segments, and a checkpoint serializes exactly this struct
//! (plus MANA's own metadata) and nothing else. The essential split-process
//! property is preserved: nothing of the lower half (the live `mpisim`
//! endpoint) is ever saved.
//!
//! **Change tracking.** A checkpoint writes the upper half over the image
//! the rank's kept buffer holds (`ImageHead::encode_into`), and only the
//! bytes that differ from it are copied and staled. Finding them by
//! comparing every byte at the freeze would put a pass over the whole
//! upper half inside the stop-the-world window, so the upper half finds
//! them when the application saves them instead. Once it has been frozen
//! through `&mut` (a rank's checkpoint), the first
//! [`UpperHalf::write_segment`] of a segment after a freeze, if it keeps
//! the segment's length, compares the new bytes with the ones they replace
//! and records which 64 KiB windows of the segment differ. A length change,
//! a new or removed segment, [`UpperHalf::segment_mut`] (whose writes
//! nobody sees), [`UpperHalf::remove_segment`] and a second save before
//! the next freeze make what is known of that segment unknown, and the
//! next freeze compares it whole.
//!
//! The trade: once tracking is on, a segment saved once per checkpoint
//! interval pays at its save the compare the freeze used to make, in
//! application time, and the freeze compares only the windows that save
//! changed. The work is moved out of the stop-the-world window, not added
//! (a 2 MiB segment with 2 % rewritten: ≈ 140–165 µs at the save and
//! ≈ 40–50 µs at the freeze, against ≈ 170–235 µs at the freeze
//! untracked, on a 2-vCPU host). A segment saved more than once per
//! interval gains nothing, as its freeze compares it whole anyway, so its
//! saves are not compared: a second save stops the compares for the rest
//! of the interval, and a segment saved more than once in the interval
//! before is not compared in the next. An application that saves a
//! segment every step pays what it paid untracked, plus at most one
//! compare in the interval its saving pattern changed. Before a rank's
//! first checkpoint nothing is tracked and a save costs what it always
//! did. A clone or a decoded upper half has never frozen, so it starts
//! untracked too.

use crate::codec::{CodecError, Decode, Encode, Reader};
use crate::image::{Overwrite, CRC_BLOCK};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// The size of a tracked window: a segment's bytes are tracked in windows
/// of this many bytes from the segment's start, the size of a block of the
/// image's CRC table.
const WINDOW: usize = CRC_BLOCK;

/// Checkpointable application memory: named segments of bytes.
///
/// Two upper halves are equal when their segments are; what one has
/// tracked since its last freeze (see the module doc) is not part of it.
#[derive(Debug, Default)]
pub struct UpperHalf {
    segments: BTreeMap<String, Vec<u8>>,
    /// What was saved since the last tracked freeze; `None` until the
    /// first.
    since: Option<Since>,
}

/// Names one tracked freeze: which upper half (a number no other upper half
/// takes) and which of its freezes. A kept `ImageBuf` records the stamp of
/// the tracked freeze that wrote it last, and no stamp when anything else
/// did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Stamp {
    upper: u64,
    freeze: u64,
}

/// What the saves since a tracked freeze changed, segment by segment.
#[derive(Debug)]
struct Since {
    /// The freeze it is counted from.
    stamp: Stamp,
    /// Each segment as that freeze wrote it.
    seen: BTreeMap<String, Seen>,
}

/// A segment as a tracked freeze wrote it, and what a save did since.
#[derive(Debug, Default)]
struct Seen {
    len: usize,
    /// Which windows a save has changed (`None`: unknown).
    changed: Option<Vec<bool>>,
    /// Saves since the freeze.
    saves: u32,
    /// Saves between the freeze before and this one.
    saves_before: u32,
}

impl Seen {
    /// Nothing saved since a freeze that wrote `len` bytes; the marks are
    /// kept in place, so a steady rank's freeze allocates nothing.
    fn reset(&mut self, len: usize) {
        let changed = self.changed.get_or_insert_with(Vec::new);
        changed.clear();
        changed.resize(len.div_ceil(WINDOW), false);
        self.len = len;
        self.saves_before = std::mem::take(&mut self.saves);
    }
}

impl Since {
    /// The segment `name` was saved as `new` over `old` (`None`: it did
    /// not exist). The first save of the same length since the freeze
    /// marks the windows whose bytes differ, unless the segment was saved
    /// more than once between the two freezes before; any other save makes
    /// the segment unknown.
    fn saved(&mut self, name: &str, old: Option<&[u8]>, new: &[u8]) {
        let Some(seen) = self.seen.get_mut(name) else {
            return; // not in the frozen layout: the next freeze compares all
        };
        seen.saves = seen.saves.saturating_add(1);
        let compare = seen.saves == 1 && seen.saves_before <= 1;
        match (&mut seen.changed, old) {
            (Some(changed), Some(old)) if old.len() == new.len() && compare => {
                let windows = old.chunks(WINDOW).zip(new.chunks(WINDOW));
                for (flag, (was, now)) in changed.iter_mut().zip(windows) {
                    *flag = was != now;
                }
            }
            (changed, _) => *changed = None,
        }
    }

    /// The segment `name` may have changed in any way.
    fn unknown(&mut self, name: &str) {
        if let Some(seen) = self.seen.get_mut(name) {
            seen.changed = None;
        }
    }

    /// Whether `segments` have the names and lengths the freeze wrote, so
    /// that each segment's bytes lie where they lay in its image.
    fn same_layout(&self, segments: &BTreeMap<String, Vec<u8>>) -> bool {
        self.seen.len() == segments.len()
            && (self.seen.iter().zip(segments))
                .all(|((name, seen), (now, bytes))| name == now && seen.len == bytes.len())
    }
}

impl Clone for UpperHalf {
    /// The same segments, untracked: a clone has never frozen.
    fn clone(&self) -> Self {
        UpperHalf {
            segments: self.segments.clone(),
            since: None,
        }
    }
}

impl PartialEq for UpperHalf {
    fn eq(&self, other: &Self) -> bool {
        self.segments == other.segments
    }
}

impl Eq for UpperHalf {}

impl UpperHalf {
    /// Empty upper half.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace (or create) a segment wholesale. Once tracking is on (see
    /// the module doc), the segment's first save after a freeze compares
    /// `bytes` with the bytes they replace when the length is kept and the
    /// segment was saved at most once in the interval before.
    pub fn write_segment(&mut self, name: &str, bytes: Vec<u8>) {
        let held = self.segments.get_mut(name);
        if let Some(since) = &mut self.since {
            since.saved(name, held.as_deref().map(Vec::as_slice), &bytes);
        }
        match held {
            Some(held) => *held = bytes,
            None => {
                self.segments.insert(name.to_owned(), bytes);
            }
        }
    }

    /// Store any `Encode`-able value as a segment.
    pub fn write_value<T: Encode>(&mut self, name: &str, value: &T) {
        self.write_segment(name, value.to_bytes());
    }

    /// Read a segment's raw bytes.
    pub fn segment(&self, name: &str) -> Option<&[u8]> {
        self.segments.get(name).map(|v| v.as_slice())
    }

    /// Mutable access to a segment, creating it if absent. What is written
    /// through it is not tracked: the next freeze compares the segment
    /// whole.
    pub fn segment_mut(&mut self, name: &str) -> &mut Vec<u8> {
        if let Some(since) = &mut self.since {
            since.unknown(name);
        }
        self.segments.entry(name.to_owned()).or_default()
    }

    /// Decode a segment as a typed value.
    pub fn read_value<T: Decode>(&self, name: &str) -> Option<Result<T, CodecError>> {
        self.segments.get(name).map(|b| T::from_bytes(b))
    }

    /// Drop a segment, returning whether it existed.
    pub fn remove_segment(&mut self, name: &str) -> bool {
        if let Some(since) = &mut self.since {
            since.unknown(name);
        }
        self.segments.remove(name).is_some()
    }

    /// Segment names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.segments.keys().map(|s| s.as_str())
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True when no segments exist.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Total payload bytes across segments — the dominant term of the
    /// checkpoint image size reported in Fig. 3.
    pub fn total_bytes(&self) -> usize {
        self.segments.values().map(|v| v.len()).sum()
    }
}

/// The upper half an encode reads ([`crate::ImageHead::encode_into`]):
/// borrowed, it is compared with the buffer's image block by block; lent
/// mutably — a rank's freeze — its change tracking is turned on (see the
/// module doc), and the windows no save changed since its previous freeze
/// are skipped when the buffer still holds that freeze's image.
#[derive(Debug)]
pub enum UpperRef<'u> {
    /// Encoded by comparing every block.
    Compared(&'u UpperHalf),
    /// Frozen with its changes tracked.
    Tracked(&'u mut UpperHalf),
}

impl<'u> From<&'u UpperHalf> for UpperRef<'u> {
    fn from(upper: &'u UpperHalf) -> Self {
        UpperRef::Compared(upper)
    }
}

impl<'u> From<&'u mut UpperHalf> for UpperRef<'u> {
    fn from(upper: &'u mut UpperHalf) -> Self {
        UpperRef::Tracked(upper)
    }
}

impl UpperRef<'_> {
    /// Write the upper half through `w`, whose buffer was last written by
    /// the tracked freeze `held` names (`None`: by anything else); returns
    /// the stamp the buffer records now.
    pub(crate) fn write(self, w: &mut Overwrite<'_>, held: Option<Stamp>) -> Option<Stamp> {
        match self {
            UpperRef::Compared(upper) => {
                upper.write(w, None);
                None
            }
            UpperRef::Tracked(upper) => Some(upper.freeze(w, held)),
        }
    }
}

impl UpperHalf {
    /// The one encoder of an upper half, through the image writer: onto a
    /// `Vec<u8>` ([`Encode`]) or over the image a rank's kept buffer
    /// holds ([`crate::ImageHead::encode_into`]). The bytes are what the
    /// map encodes to — a count, then a length-prefixed name and a
    /// length-prefixed payload per segment — with the exact length
    /// reserved up front: one allocation instead of doubling through
    /// megabytes. Given what changed since the freeze whose image the
    /// writer holds, a window no save changed is skipped, not compared.
    fn write(&self, w: &mut Overwrite<'_>, since: Option<&Since>) {
        let framing = 8 + 16 * self.segments.len();
        let names: usize = self.segments.keys().map(|k| k.len()).sum();
        w.reserve(framing + names + self.total_bytes());
        w.put(&(self.segments.len() as u64).to_le_bytes());
        for (name, payload) in &self.segments {
            w.put(&(name.len() as u64).to_le_bytes());
            w.put(name.as_bytes());
            w.put(&(payload.len() as u64).to_le_bytes());
            let changed = since.and_then(|s| s.seen.get(name)?.changed.as_deref());
            match changed {
                Some(changed) => {
                    for (window, &dirty) in payload.chunks(WINDOW).zip(changed) {
                        match dirty {
                            true => w.put(window),
                            false => w.skip(window),
                        }
                    }
                }
                None => w.put(payload),
            }
        }
    }

    /// What changed since the freeze `held` names, when that is this upper
    /// half's previous freeze and the segments' names and lengths are as
    /// it wrote them.
    fn clean_since(&self, held: Option<Stamp>) -> Option<&Since> {
        (self.since.as_ref())
            .filter(|since| Some(since.stamp) == held && since.same_layout(&self.segments))
    }

    /// Whether a tracked freeze over a buffer `held` wrote skips the
    /// windows no save changed.
    #[cfg(test)]
    pub(crate) fn skips(&self, held: Option<Stamp>) -> bool {
        self.clean_since(held).is_some()
    }

    /// A tracked freeze: the upper half written through `w`, skipping the
    /// windows no save changed when the buffer was last written by this
    /// upper half's previous freeze (`held`) and the segments' names and
    /// lengths are as it wrote them; changes are counted from here on.
    fn freeze(&mut self, w: &mut Overwrite<'_>, held: Option<Stamp>) -> Stamp {
        static UPPERS: AtomicU64 = AtomicU64::new(0);
        self.write(w, self.clean_since(held));
        let since = self.since.get_or_insert_with(|| Since {
            stamp: Stamp {
                upper: UPPERS.fetch_add(1, Ordering::Relaxed),
                freeze: 0,
            },
            seen: BTreeMap::new(),
        });
        since.stamp.freeze += 1;
        since
            .seen
            .retain(|name, _| self.segments.contains_key(name));
        for (name, bytes) in &self.segments {
            match since.seen.get_mut(name) {
                Some(seen) => seen.reset(bytes.len()),
                None => {
                    let mut seen = Seen::default();
                    seen.reset(bytes.len());
                    since.seen.insert(name.clone(), seen);
                }
            }
        }
        since.stamp
    }
}

/// Hand-written: it writes raw bytes through the image writer.
impl Encode for UpperHalf {
    fn encode(&self, out: &mut Vec<u8>) {
        self.write(&mut Overwrite::append(out), None);
    }
}

impl Decode for UpperHalf {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(UpperHalf {
            segments: BTreeMap::decode(r)?,
            since: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_roundtrip() {
        let mut uh = UpperHalf::new();
        uh.write_segment("particles", vec![1, 2, 3]);
        uh.write_value("step", &42u64);
        uh.segment_mut("log").extend_from_slice(b"hello");
        let bytes = uh.to_bytes();
        let back = UpperHalf::from_bytes(&bytes).unwrap();
        assert_eq!(back, uh);
        assert_eq!(back.segment("particles"), Some(&[1u8, 2, 3][..]));
        assert_eq!(back.read_value::<u64>("step").unwrap().unwrap(), 42);
        assert_eq!(back.segment("log"), Some(&b"hello"[..]));
    }

    #[test]
    fn encodes_in_one_allocation_to_the_per_byte_reference() {
        let mut uh = UpperHalf::new();
        assert_eq!(uh.to_bytes(), 0u64.to_bytes());
        uh.write_segment("grid", (0..=255u8).cycle().take(70_001).collect());
        uh.write_segment("", vec![]);
        uh.write_value("step", &42u64);
        // The format, spelt out one byte at a time.
        let mut reference = Vec::new();
        (uh.len() as u64).encode(&mut reference);
        for name in uh.names() {
            (name.len() as u64).encode(&mut reference);
            reference.extend_from_slice(name.as_bytes());
            let payload = uh.segment(name).unwrap();
            (payload.len() as u64).encode(&mut reference);
            for byte in payload {
                reference.push(*byte);
            }
        }
        let bytes = uh.to_bytes();
        assert_eq!(bytes, reference);
        assert_eq!(
            bytes.capacity(),
            bytes.len(),
            "the exact length is reserved up front: one allocation, no slack"
        );
        assert_eq!(UpperHalf::from_bytes(&bytes).unwrap(), uh);
    }

    /// Which windows of `name` a save changed since the last freeze
    /// (`None`: unknown, or not tracked).
    fn changed(uh: &UpperHalf, name: &str) -> Option<Vec<bool>> {
        uh.since.as_ref()?.seen.get(name)?.changed.clone()
    }

    #[test]
    fn saves_after_a_freeze_mark_the_windows_they_change() {
        let freeze = |uh: &mut UpperHalf| uh.freeze(&mut Overwrite::append(&mut Vec::new()), None);
        let mut uh = UpperHalf::new();
        uh.write_segment("s", vec![0; 3 * WINDOW + 1]);
        assert!(uh.since.is_none(), "nothing is tracked before a freeze");
        freeze(&mut uh);
        assert_eq!(changed(&uh, "s"), Some(vec![false; 4]));
        let mut bytes = vec![0; 3 * WINDOW + 1];
        bytes[WINDOW + 5] = 1;
        bytes[3 * WINDOW] = 1;
        uh.write_segment("s", bytes);
        assert_eq!(changed(&uh, "s"), Some(vec![false, true, false, true]));
        // A second save before the next freeze is not compared: unknown.
        uh.write_segment("s", vec![0; 3 * WINDOW + 1]);
        assert_eq!(changed(&uh, "s"), None);
        // The next freeze counts afresh, but a segment saved twice in the
        // interval before is not compared in this one.
        freeze(&mut uh);
        assert_eq!(changed(&uh, "s"), Some(vec![false; 4]));
        uh.write_segment("s", vec![1; 3 * WINDOW + 1]);
        assert_eq!(changed(&uh, "s"), None);
        // After an interval with one save, the first save compares again.
        freeze(&mut uh);
        uh.write_segment("s", vec![0; 3 * WINDOW + 1]);
        assert_eq!(changed(&uh, "s"), Some(vec![true; 4]));
        // A clone or a decoded upper half has never frozen.
        assert!(uh.clone().since.is_none());
        assert!(UpperHalf::from_bytes(&uh.to_bytes())
            .unwrap()
            .since
            .is_none());
        // A length change, `segment_mut` and a removal make it unknown.
        for edit in [0, 1, 2] {
            let mut uh = UpperHalf::new();
            uh.write_segment("s", vec![0; 10]);
            freeze(&mut uh);
            match edit {
                0 => uh.write_segment("s", vec![0; 11]),
                1 => uh.segment_mut("s")[0] = 1,
                _ => assert!(uh.remove_segment("s")),
            }
            assert_eq!(changed(&uh, "s"), None, "edit {edit}");
        }
    }

    #[test]
    fn totals_and_names() {
        let mut uh = UpperHalf::new();
        assert!(uh.is_empty());
        uh.write_segment("b", vec![0; 10]);
        uh.write_segment("a", vec![0; 5]);
        assert_eq!(uh.total_bytes(), 15);
        assert_eq!(uh.len(), 2);
        assert_eq!(uh.names().collect::<Vec<_>>(), vec!["a", "b"]);
    }

    #[test]
    fn remove_segment_works() {
        let mut uh = UpperHalf::new();
        uh.write_segment("x", vec![1]);
        assert!(uh.remove_segment("x"));
        assert!(!uh.remove_segment("x"));
        assert!(uh.segment("x").is_none());
    }

    #[test]
    fn missing_value_is_none() {
        let uh = UpperHalf::new();
        assert!(uh.read_value::<u64>("nope").is_none());
    }

    #[test]
    fn corrupt_value_reports_codec_error() {
        let mut uh = UpperHalf::new();
        uh.write_segment("v", vec![1, 2]); // too short for u64
        assert!(uh.read_value::<u64>("v").unwrap().is_err());
    }
}
