//! The [`Persist`] trait: what a backend must provide to be snapshotted.
//!
//! Each of the five possible-worlds representations encodes its *entire*
//! state (catalog + uncertainty structure) behind a one-byte representation
//! tag, so a snapshot file is self-describing: the reader learns which
//! backend it holds from the payload itself.  `maybms::AnyBackend` uses the
//! tag to dispatch its decode.

use crate::codec::{self, Reader, Writer};
use crate::error::{Result, StorageError};
use ws_core::{WorldSet, Wsd};
use ws_relational::Database;
use ws_urel::UDatabase;
use ws_uwsdt::Uwsdt;

/// Representation tag of a single-world [`Database`].
pub const TAG_DATABASE: u8 = 1;
/// Representation tag of a [`Wsd`].
pub const TAG_WSD: u8 = 2;
/// Representation tag of a [`Uwsdt`].
pub const TAG_UWSDT: u8 = 3;
/// Representation tag of a [`UDatabase`] (U-relations).
pub const TAG_UREL: u8 = 4;
/// Representation tag of an explicit [`WorldSet`].
pub const TAG_WORLDS: u8 = 5;

/// A backend state the durability layer can snapshot and recover.
pub trait Persist: Sized {
    /// Append the representation tag plus the full state to `w`.
    fn encode_state(&self, w: &mut Writer);

    /// Decode a state previously written by [`Persist::encode_state`].
    /// Concrete representations reject a foreign tag; dynamic wrappers
    /// (`maybms::AnyBackend`) dispatch on it.
    fn decode_state(r: &mut Reader) -> Result<Self>;

    /// Check the representation's own invariants on a state about to be
    /// encoded — the checks [`Persist::decode_state`] runs — so that
    /// [`crate::Durable`] never writes a snapshot recovery would refuse.
    /// Fails with [`StorageError::Invalid`].
    fn validate_state(&self) -> Result<()>;

    /// Encode to a standalone byte vector.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_state(&mut w);
        w.into_bytes()
    }

    /// Decode from a standalone byte slice, rejecting trailing garbage.
    fn decode_from_slice(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let state = Self::decode_state(&mut r)?;
        r.finish("backend state")?;
        Ok(state)
    }
}

fn expect_tag(r: &mut Reader, expected: u8, what: &str) -> Result<()> {
    let tag = r.u8("representation tag")?;
    if tag != expected {
        return Err(StorageError::corrupt(format!(
            "snapshot holds representation tag {tag}, expected {expected} ({what})"
        )));
    }
    Ok(())
}

impl Persist for Database {
    fn encode_state(&self, w: &mut Writer) {
        w.u8(TAG_DATABASE);
        codec::enc_database(w, self);
    }

    fn decode_state(r: &mut Reader) -> Result<Self> {
        expect_tag(r, TAG_DATABASE, "database")?;
        codec::dec_database(r)
    }

    /// Every relation is valid by construction; decoding checks only bytes.
    fn validate_state(&self) -> Result<()> {
        Ok(())
    }
}

impl Persist for Wsd {
    fn encode_state(&self, w: &mut Writer) {
        w.u8(TAG_WSD);
        codec::enc_wsd(w, self);
    }

    fn decode_state(r: &mut Reader) -> Result<Self> {
        expect_tag(r, TAG_WSD, "wsd")?;
        codec::dec_wsd(r)
    }

    fn validate_state(&self) -> Result<()> {
        self.validate()
            .map_err(|e| StorageError::invalid(format!("WSD: {e}")))
    }
}

impl Persist for Uwsdt {
    fn encode_state(&self, w: &mut Writer) {
        w.u8(TAG_UWSDT);
        codec::enc_uwsdt(w, self);
    }

    fn decode_state(r: &mut Reader) -> Result<Self> {
        expect_tag(r, TAG_UWSDT, "uwsdt")?;
        codec::dec_uwsdt(r)
    }

    fn validate_state(&self) -> Result<()> {
        self.validate()
            .map_err(|e| StorageError::invalid(format!("UWSDT: {e}")))
    }
}

impl Persist for UDatabase {
    fn encode_state(&self, w: &mut Writer) {
        w.u8(TAG_UREL);
        codec::enc_udatabase(w, self);
    }

    fn decode_state(r: &mut Reader) -> Result<Self> {
        expect_tag(r, TAG_UREL, "urel")?;
        codec::dec_udatabase(r)
    }

    fn validate_state(&self) -> Result<()> {
        self.validate()
            .map_err(|e| StorageError::invalid(format!("U-database: {e}")))
    }
}

impl Persist for WorldSet {
    fn encode_state(&self, w: &mut Writer) {
        w.u8(TAG_WORLDS);
        codec::enc_worldset(w, self);
    }

    fn decode_state(r: &mut Reader) -> Result<Self> {
        expect_tag(r, TAG_WORLDS, "worlds")?;
        codec::dec_worldset(r)
    }

    /// An explicit world list is valid by construction; decoding checks
    /// only bytes.
    fn validate_state(&self) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_five_representations_roundtrip_with_their_own_tag() {
        let wsd = ws_core::wsd::example_census_wsd();
        let db = wsd.enumerate_worlds(1 << 20).unwrap()[0].0.clone();
        let uwsdt = ws_uwsdt::from_wsd(&wsd).unwrap();
        let urel = ws_urel::from_wsd(&wsd).unwrap();
        let worlds = wsd.rep().unwrap();

        let bytes = db.encode_to_vec();
        assert_eq!(bytes[0], TAG_DATABASE);
        assert_eq!(Database::decode_from_slice(&bytes).unwrap(), db);

        let bytes = wsd.encode_to_vec();
        assert_eq!(bytes[0], TAG_WSD);
        let decoded = Wsd::decode_from_slice(&bytes).unwrap();
        assert_eq!(decoded.encode_to_vec(), bytes);

        let bytes = uwsdt.encode_to_vec();
        assert_eq!(bytes[0], TAG_UWSDT);
        let decoded = Uwsdt::decode_from_slice(&bytes).unwrap();
        assert_eq!(decoded.encode_to_vec(), bytes);

        let bytes = urel.encode_to_vec();
        assert_eq!(bytes[0], TAG_UREL);
        assert_eq!(UDatabase::decode_from_slice(&bytes).unwrap(), urel);

        let bytes = worlds.encode_to_vec();
        assert_eq!(bytes[0], TAG_WORLDS);
        let decoded = WorldSet::decode_from_slice(&bytes).unwrap();
        assert_eq!(decoded.encode_to_vec(), bytes);

        // Foreign tags are rejected.
        assert!(Wsd::decode_from_slice(&db.encode_to_vec()).is_err());
        assert!(Database::decode_from_slice(&worlds.encode_to_vec()).is_err());
    }
}
