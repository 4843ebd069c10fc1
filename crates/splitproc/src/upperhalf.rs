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

use crate::codec::{CodecError, Decode, Encode, Reader};
use crate::image::Overwrite;
use std::collections::BTreeMap;

/// Checkpointable application memory: named segments of bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpperHalf {
    segments: BTreeMap<String, Vec<u8>>,
}

impl UpperHalf {
    /// Empty upper half.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace (or create) a segment wholesale.
    pub fn write_segment(&mut self, name: &str, bytes: Vec<u8>) {
        self.segments.insert(name.to_owned(), bytes);
    }

    /// Store any `Encode`-able value as a segment.
    pub fn write_value<T: Encode>(&mut self, name: &str, value: &T) {
        self.segments.insert(name.to_owned(), value.to_bytes());
    }

    /// Read a segment's raw bytes.
    pub fn segment(&self, name: &str) -> Option<&[u8]> {
        self.segments.get(name).map(|v| v.as_slice())
    }

    /// Mutable access to a segment, creating it if absent.
    pub fn segment_mut(&mut self, name: &str) -> &mut Vec<u8> {
        self.segments.entry(name.to_owned()).or_default()
    }

    /// Decode a segment as a typed value.
    pub fn read_value<T: Decode>(&self, name: &str) -> Option<Result<T, CodecError>> {
        self.segments.get(name).map(|b| T::from_bytes(b))
    }

    /// Drop a segment, returning whether it existed.
    pub fn remove_segment(&mut self, name: &str) -> bool {
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

impl UpperHalf {
    /// The one encoder of an upper half, through the image writer: onto a
    /// `Vec<u8>` ([`Encode`]) or over the image a rank's kept buffer
    /// holds ([`crate::ImageHead::encode_into`]). The bytes are what the
    /// map encodes to — a count, then a length-prefixed name and a
    /// length-prefixed payload per segment — with the exact length
    /// reserved up front: one allocation instead of doubling through
    /// megabytes.
    pub(crate) fn write(&self, w: &mut Overwrite<'_>) {
        let framing = 8 + 16 * self.segments.len();
        let names: usize = self.segments.keys().map(|k| k.len()).sum();
        w.reserve(framing + names + self.total_bytes());
        w.put(&(self.segments.len() as u64).to_le_bytes());
        for (name, payload) in &self.segments {
            w.put(&(name.len() as u64).to_le_bytes());
            w.put(name.as_bytes());
            w.put(&(payload.len() as u64).to_le_bytes());
            w.put(payload);
        }
    }
}

/// Hand-written: it writes raw bytes through the image writer.
impl Encode for UpperHalf {
    fn encode(&self, out: &mut Vec<u8>) {
        self.write(&mut Overwrite::append(out));
    }
}

impl Decode for UpperHalf {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(UpperHalf {
            segments: BTreeMap::decode(r)?,
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
