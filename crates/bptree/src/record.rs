//! Record, comparator and probe abstractions.

use segdb_pager::codec::{fixed, i64_at, u64_at};
use segdb_pager::{ByteReader, ByteWriter, Result};
use std::cmp::Ordering;

/// A fixed-width, codec-serializable record stored in tree nodes.
///
/// `ENCODED_SIZE` must be exact: node capacity is computed from it and
/// `encode` must write exactly that many bytes.
pub trait Record: Copy + std::fmt::Debug {
    /// Exact encoded size in bytes.
    const ENCODED_SIZE: usize;
    /// Serialize into a node page.
    fn encode(&self, w: &mut ByteWriter<'_>) -> Result<()>;
    /// Read one record from the head of `bytes` — the one parser of the
    /// layout, called by the read path's node views per record they
    /// touch: check the length once ([`fixed`]) and read each field at
    /// its fixed offset.
    fn read(bytes: &[u8]) -> Result<Self>;
    /// Deserialize the next record of a node page: [`Record::read`] on
    /// the reader's next `ENCODED_SIZE` bytes.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        Self::read(r.bytes(Self::ENCODED_SIZE)?)
    }
}

/// A stateful total order over records.
///
/// Implementations must be antisymmetric and transitive; structures break
/// geometric ties (touching segments) by record id to stay total.
pub trait RecordOrd<R> {
    /// Compare two records.
    fn cmp_records(&self, a: &R, b: &R) -> Ordering;
}

/// A search target that can position itself against records, without
/// being a record (e.g. "the query ordinate at the boundary line").
pub trait Probe<R> {
    /// `Ordering::Less` ⇒ the probe sorts before `rec`.
    fn cmp_record(&self, rec: &R) -> Ordering;
}

/// Blanket probe: any closure `Fn(&R) -> Ordering`.
impl<R, F: Fn(&R) -> Ordering> Probe<R> for F {
    fn cmp_record(&self, rec: &R) -> Ordering {
        self(rec)
    }
}

/// A ready-made record for plain `i64` keys with a `u64` payload — used
/// by tests here and by simple ordered lists elsewhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyValue {
    /// Sort key.
    pub key: i64,
    /// Opaque payload.
    pub value: u64,
}

impl Record for KeyValue {
    const ENCODED_SIZE: usize = 16;
    fn encode(&self, w: &mut ByteWriter<'_>) -> Result<()> {
        w.i64(self.key)?;
        w.u64(self.value)
    }
    fn read(bytes: &[u8]) -> Result<Self> {
        let b = fixed::<16>(bytes)?;
        Ok(KeyValue {
            key: i64_at(b, 0),
            value: u64_at(b, 8),
        })
    }
}

/// Natural order for [`KeyValue`] (key, then value for totality).
#[derive(Debug, Default, Clone, Copy)]
pub struct KeyOrder;

impl RecordOrd<KeyValue> for KeyOrder {
    fn cmp_records(&self, a: &KeyValue, b: &KeyValue) -> Ordering {
        (a.key, a.value).cmp(&(b.key, b.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyvalue_roundtrip() {
        let mut buf = vec![0u8; 16];
        let kv = KeyValue { key: -7, value: 99 };
        kv.encode(&mut ByteWriter::new(&mut buf)).unwrap();
        let back = KeyValue::decode(&mut ByteReader::new(&buf)).unwrap();
        assert_eq!(back, kv);
        assert_eq!(KeyValue::read(&buf).unwrap(), kv);
        assert!(KeyValue::read(&buf[..15]).is_err());
    }

    #[test]
    fn closure_probe() {
        let p = |rec: &KeyValue| 5i64.cmp(&rec.key);
        assert_eq!(p.cmp_record(&KeyValue { key: 9, value: 0 }), Ordering::Less);
        assert_eq!(
            p.cmp_record(&KeyValue { key: 5, value: 0 }),
            Ordering::Equal
        );
        assert_eq!(
            p.cmp_record(&KeyValue { key: 1, value: 0 }),
            Ordering::Greater
        );
    }

    #[test]
    fn key_order_total() {
        let o = KeyOrder;
        let a = KeyValue { key: 1, value: 5 };
        let b = KeyValue { key: 1, value: 6 };
        assert_eq!(o.cmp_records(&a, &b), Ordering::Less);
        assert_eq!(o.cmp_records(&b, &a), Ordering::Greater);
        assert_eq!(o.cmp_records(&a, &a), Ordering::Equal);
    }
}
