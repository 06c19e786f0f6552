//! Answer checking: a digest of every answer, compared against a reference
//! taken at set-up by a local session that never touched the wire.

use maybms::{AnyBackend, Session, SessionBackend};
use ws_census::all_queries;
use ws_relational::Tuple;
use ws_storage::codec::{enc_tuple, Writer};

use crate::ops::QUERIES;
use crate::setup::durable_in_memory;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Row count plus the wrapping sum of each row's FNV-1a over its codec
/// encoding — a multiset digest, because commits may reorder an answer but
/// never change it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub hash: u64,
}

impl Digest {
    fn add(&mut self, tuple: &Tuple, confidence: Option<f64>) {
        let mut w = Writer::new();
        enc_tuple(&mut w, tuple);
        if let Some(p) = confidence {
            w.u64(p.to_bits());
        }
        self.rows += 1;
        self.hash = self.hash.wrapping_add(fnv1a(&w.into_bytes()));
    }

    pub fn of_rows(rows: &[Tuple]) -> Digest {
        let mut d = Digest::default();
        rows.iter().for_each(|t| d.add(t, None));
        d
    }

    /// Confidences enter by their exact bit pattern.
    pub fn of_confidences(rows: &[(Tuple, f64)]) -> Digest {
        let mut d = Digest::default();
        rows.iter().for_each(|(t, p)| d.add(t, Some(*p)));
        d
    }
}

/// The expected digests of Q1–Q6: answers and confidences.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Reference {
    pub execute: [Digest; QUERIES],
    pub confidence: [Digest; QUERIES],
}

impl Reference {
    /// Prepare and answer all six queries through `session`.
    pub fn take<B>(session: &mut Session<B>) -> Result<Reference, String>
    where
        B: SessionBackend,
        B::Error: Into<maybms::Error>,
    {
        let mut reference = Reference::default();
        for (q, (_, query)) in all_queries().into_iter().enumerate() {
            let plan = session.prepare(query).map_err(|e| e.to_string())?;
            let rows: Vec<Tuple> = session.execute(&plan).map_err(|e| e.to_string())?.collect();
            reference.execute[q] = Digest::of_rows(&rows);
            let confidences = session.confidence(&plan).map_err(|e| e.to_string())?;
            reference.confidence[q] = Digest::of_confidences(&confidences);
        }
        Ok(reference)
    }

    /// The answers of a local session over `backend` that never touches the
    /// wire or the disk.  Confidences are compared by bit pattern, so the
    /// reference goes through the same kind of session as the system it
    /// checks (see [`durable_in_memory`]).
    pub fn local(backend: AnyBackend, durable: bool) -> Result<Reference, String> {
        if durable {
            Reference::take(&mut durable_in_memory(backend)?)
        } else {
            Reference::take(&mut Session::new(backend))
        }
    }

    /// How many of the twelve digests differ from `other`.
    pub fn mismatches(&self, other: &Reference) -> u64 {
        let differing =
            |a: &[Digest], b: &[Digest]| a.iter().zip(b).filter(|(x, y)| x != y).count();
        (differing(&self.execute, &other.execute) + differing(&self.confidence, &other.confidence))
            as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_order_but_not_content_or_confidence_bits() {
        let a = Tuple::from_iter([1i64, 2]);
        let b = Tuple::from_iter([3i64, 4]);
        assert_eq!(
            Digest::of_rows(&[a.clone(), b.clone()]),
            Digest::of_rows(&[b.clone(), a.clone()])
        );
        let only = |t: &Tuple| Digest::of_rows(std::slice::from_ref(t));
        assert_ne!(only(&a), only(&b));
        assert_ne!(only(&a), Digest::of_rows(&[a.clone(), a.clone()]));
        let half = Digest::of_confidences(&[(a.clone(), 0.5)]);
        let nearly = Digest::of_confidences(&[(a, f64::from_bits(0.5f64.to_bits() + 1))]);
        assert_ne!(half, nearly);
    }
}
