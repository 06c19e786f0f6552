//! The uniform WSDT representation (§3 "Uniform World-Set Decompositions",
//! §5).
//!
//! Database systems do not support relations of data-dependent arity, so the
//! variable-arity components of a WSD are stored in three fixed-schema
//! relations plus one template relation per represented relation:
//!
//! * `C[FID, LWID, VAL]` — the possible values of each placeholder field,
//! * `F[FID, CID]`       — which component each placeholder belongs to,
//! * `W[CID, LWID, PR]`  — the local worlds of each component and their
//!   probabilities,
//! * `R⁰`                — the template: one row per tuple, holding the
//!   values that are the same in all worlds and `?` for placeholders.
//!
//! A possible world is obtained by choosing one `LWID` per component
//! (according to `W`); a placeholder then takes the value recorded in `C` for
//! that `LWID`.  A tuple is *absent* from a world if one of its placeholders
//! has no `C` entry for the chosen local world, or if one of its *presence
//! conditions* excludes that local world.  Presence conditions are this
//! implementation's version of the "exists column" the paper suggests to
//! avoid composing components during projection: they record, per result
//! tuple, the set of local worlds of a component in which the tuple exists.

use crate::error::{Result, UwsdtError};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use ws_core::FieldId;
use ws_relational::{Database, Relation, Tuple, Value};

/// A component identifier.
pub type Cid = usize;

/// A local-world identifier, scoped to one component.
pub type Lwid = usize;

/// A key addressing one tuple of one represented relation.
pub type TupleKey = (String, usize);

/// One entry of the `W` relation: a local world of a component.
#[derive(Clone, Debug, PartialEq)]
pub struct WorldEntry {
    /// The local-world identifier.
    pub lwid: Lwid,
    /// Its probability within the component.
    pub prob: f64,
}

/// A presence condition: the tuple exists only in the listed local worlds of
/// the given component.
#[derive(Clone, Debug, PartialEq)]
pub struct PresenceCondition {
    /// The component the condition ranges over.
    pub cid: Cid,
    /// The local worlds in which the tuple is present.
    pub lwids: BTreeSet<Lwid>,
}

/// The flattened, deterministically ordered raw state of a [`Uwsdt`] — the
/// boundary the persistence codec works against, so that the hash-map-backed
/// internals never leak their (instance-dependent) iteration order into
/// snapshot bytes.
///
/// Produced by [`Uwsdt::to_snapshot`]; consumed (and re-validated) by
/// [`Uwsdt::from_snapshot`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UwsdtSnapshot {
    /// The template relations, sorted by relation name.
    pub templates: Vec<Relation>,
    /// Per component (sorted by id): its local worlds and the placeholder
    /// fields it defines, in their original registration order.
    pub components: Vec<(Cid, Vec<WorldEntry>, Vec<FieldId>)>,
    /// The `C` entries per placeholder field, sorted by field.
    pub values: Vec<(FieldId, Vec<(Lwid, Value)>)>,
    /// The presence conditions per tuple, sorted by `(relation, tuple)`;
    /// each tuple's condition list keeps its original (conjunctive) order.
    pub presence: Vec<(String, usize, Vec<PresenceCondition>)>,
    /// The next fresh component identifier.
    pub next_cid: Cid,
}

/// A uniform world-set decomposition with template relations.
#[derive(Clone, Debug, Default)]
pub struct Uwsdt {
    /// Template relations, keyed by relation name.  Row `i` of the template
    /// of `R` is tuple `i` of `R`.
    templates: BTreeMap<String, Relation>,
    /// `F`: placeholder field → component.
    f: HashMap<FieldId, Cid>,
    /// `C`: placeholder field → its possible values per local world.
    c: HashMap<FieldId, BTreeMap<Lwid, Value>>,
    /// `W`: component → local worlds with probabilities.
    w: HashMap<Cid, Vec<WorldEntry>>,
    /// Reverse index: component → the placeholder fields it defines.
    comp_fields: HashMap<Cid, Vec<FieldId>>,
    /// Presence conditions per tuple (conjunctive).
    presence: HashMap<TupleKey, Vec<PresenceCondition>>,
    /// Next fresh component identifier.
    next_cid: Cid,
}

impl Uwsdt {
    /// Create an empty UWSDT.
    pub fn new() -> Self {
        Uwsdt::default()
    }

    // ------------------------------------------------------------------
    // Template relations
    // ------------------------------------------------------------------

    /// Add a template relation.  Placeholder fields must be registered
    /// afterwards with [`Uwsdt::add_placeholder`] or
    /// [`Uwsdt::add_placeholder_in_component`].
    pub fn add_template(&mut self, template: Relation) -> Result<()> {
        let name = template.schema().relation().to_string();
        if self.templates.contains_key(&name) {
            return Err(UwsdtError::invalid(format!(
                "relation `{name}` already present"
            )));
        }
        self.templates.insert(name, template);
        Ok(())
    }

    /// The template relation of `name`.
    pub fn template(&self, name: &str) -> Result<&Relation> {
        self.templates
            .get(name)
            .ok_or_else(|| UwsdtError::UnknownRelation(name.to_string()))
    }

    /// Mutable access to a template relation (used by the operators).
    pub(crate) fn template_mut(&mut self, name: &str) -> Result<&mut Relation> {
        self.templates
            .get_mut(name)
            .ok_or_else(|| UwsdtError::UnknownRelation(name.to_string()))
    }

    /// Names of the represented relations.
    pub fn relation_names(&self) -> Vec<&str> {
        self.templates.keys().map(String::as_str).collect()
    }

    /// Whether a relation is represented.
    pub fn contains_relation(&self, name: &str) -> bool {
        self.templates.contains_key(name)
    }

    /// Remove a relation (template, placeholders, presence conditions).
    /// Components the relation referenced and nothing else does are
    /// dropped.
    pub fn drop_relation(&mut self, name: &str) -> Result<()> {
        let template = self
            .templates
            .remove(name)
            .ok_or_else(|| UwsdtError::UnknownRelation(name.to_string()))?;
        let fields: Vec<FieldId> = self
            .f
            .keys()
            .filter(|fid| fid.in_relation(name))
            .cloned()
            .collect();
        // The components this relation referenced may now be unreferenced.
        let mut cids: Vec<Cid> = fields
            .iter()
            .filter_map(|f| self.f.get(f).copied())
            .collect();
        cids.extend(
            self.presence
                .iter()
                .filter(|((rel, _), _)| rel == name)
                .flat_map(|(_, conditions)| conditions.iter().map(|c| c.cid)),
        );
        for fid in fields {
            self.remove_placeholder(&fid);
        }
        self.presence.retain(|(rel, _), _| rel != name);
        self.drop_unreferenced(cids);
        drop(template);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Components and placeholders
    // ------------------------------------------------------------------

    /// Create a fresh component with the given local worlds.
    pub fn create_component(&mut self, worlds: Vec<WorldEntry>) -> Result<Cid> {
        if worlds.is_empty() {
            return Err(UwsdtError::invalid("a component needs local worlds"));
        }
        let total: f64 = worlds.iter().map(|w| w.prob).sum();
        if (total - 1.0).abs() > 1e-6 {
            return Err(UwsdtError::invalid(format!(
                "component probabilities sum to {total}, expected 1"
            )));
        }
        let cid = self.next_cid;
        self.next_cid += 1;
        self.w.insert(cid, worlds);
        self.comp_fields.insert(cid, Vec::new());
        Ok(cid)
    }

    /// Register a placeholder field with its own fresh component, one local
    /// world per alternative.  This is the standard way of loading an or-set
    /// field.  Returns the new component's id.
    pub fn add_placeholder(
        &mut self,
        field: FieldId,
        alternatives: Vec<(Value, f64)>,
    ) -> Result<Cid> {
        let worlds: Vec<WorldEntry> = alternatives
            .iter()
            .enumerate()
            .map(|(i, (_, p))| WorldEntry { lwid: i, prob: *p })
            .collect();
        let cid = self.create_component(worlds)?;
        let values: BTreeMap<Lwid, Value> = alternatives
            .into_iter()
            .enumerate()
            .map(|(i, (v, _))| (i, v))
            .collect();
        self.attach_placeholder(field, cid, values)?;
        Ok(cid)
    }

    /// Register a placeholder inside an existing component, giving its value
    /// for (a subset of) the component's local worlds.  Local worlds without
    /// a value encode the absence of the placeholder's tuple in those worlds.
    pub fn add_placeholder_in_component(
        &mut self,
        field: FieldId,
        cid: Cid,
        values: BTreeMap<Lwid, Value>,
    ) -> Result<()> {
        if !self.w.contains_key(&cid) {
            return Err(UwsdtError::UnknownComponent(cid));
        }
        self.attach_placeholder(field, cid, values)
    }

    fn attach_placeholder(
        &mut self,
        field: FieldId,
        cid: Cid,
        values: BTreeMap<Lwid, Value>,
    ) -> Result<()> {
        let relation = field.relation.to_string();
        let template = self.template(&relation)?;
        let row = template
            .rows()
            .get(field.tuple.0)
            .ok_or_else(|| UwsdtError::invalid(format!("tuple {} out of range", field.tuple)))?;
        let pos = template.schema().position_of(field.attr.as_ref())?;
        if !row[pos].is_unknown() {
            return Err(UwsdtError::invalid(format!(
                "template field {field} is not a `?` placeholder"
            )));
        }
        if self.f.contains_key(&field) {
            return Err(UwsdtError::invalid(format!(
                "placeholder {field} already registered"
            )));
        }
        let lwids: BTreeSet<Lwid> = self.w[&cid].iter().map(|w| w.lwid).collect();
        if values.keys().any(|l| !lwids.contains(l)) {
            return Err(UwsdtError::invalid(format!(
                "placeholder {field} refers to a local world not in W"
            )));
        }
        self.f.insert(field.clone(), cid);
        self.c.insert(field.clone(), values);
        self.comp_fields.entry(cid).or_default().push(field);
        Ok(())
    }

    /// Drop a placeholder field entirely.  Its component stays, even when
    /// this was its last placeholder: only [`Uwsdt::drop_unreferenced`]
    /// drops components.
    pub(crate) fn remove_placeholder(&mut self, field: &FieldId) {
        if let Some(cid) = self.f.remove(field) {
            self.c.remove(field);
            if let Some(fields) = self.comp_fields.get_mut(&cid) {
                fields.retain(|f| f != field);
            }
        }
    }

    /// The component of a placeholder field, if it is one.
    pub fn component_of(&self, field: &FieldId) -> Option<Cid> {
        self.f.get(field).copied()
    }

    /// The possible values of a placeholder field (per local world).
    pub fn placeholder_values(&self, field: &FieldId) -> Option<&BTreeMap<Lwid, Value>> {
        self.c.get(field)
    }

    /// The local worlds of a component.
    pub fn component_worlds(&self, cid: Cid) -> Result<&[WorldEntry]> {
        self.w
            .get(&cid)
            .map(Vec::as_slice)
            .ok_or(UwsdtError::UnknownComponent(cid))
    }

    /// The placeholder fields defined by a component.
    pub fn component_fields(&self, cid: Cid) -> &[FieldId] {
        self.comp_fields.get(&cid).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All component identifiers currently in use.
    pub fn component_ids(&self) -> Vec<Cid> {
        let mut ids: Vec<Cid> = self.w.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Whether the field is a placeholder (uncertain) field.
    pub fn is_placeholder(&self, field: &FieldId) -> bool {
        self.f.contains_key(field)
    }

    /// Iterate over all placeholder fields of one relation.
    pub fn placeholders_of(&self, relation: &str) -> Vec<FieldId> {
        let mut out: Vec<FieldId> = self
            .f
            .keys()
            .filter(|fid| fid.in_relation(relation))
            .cloned()
            .collect();
        out.sort();
        out
    }

    // ------------------------------------------------------------------
    // Presence conditions
    // ------------------------------------------------------------------

    /// Add a presence condition to a tuple (conjunctive with existing ones).
    pub fn add_presence(
        &mut self,
        relation: &str,
        tuple: usize,
        cid: Cid,
        lwids: BTreeSet<Lwid>,
    ) -> Result<()> {
        if !self.w.contains_key(&cid) {
            return Err(UwsdtError::UnknownComponent(cid));
        }
        let key = (relation.to_string(), tuple);
        let conditions = self.presence.entry(key).or_default();
        match conditions.iter_mut().find(|p| p.cid == cid) {
            Some(p) => p.lwids = p.lwids.intersection(&lwids).copied().collect(),
            None => conditions.push(PresenceCondition { cid, lwids }),
        }
        Ok(())
    }

    /// The presence conditions of a tuple.
    pub fn presence_of(&self, relation: &str, tuple: usize) -> &[PresenceCondition] {
        self.presence
            .get(&(relation.to_string(), tuple))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Overwrite (or clear) the presence conditions of a tuple.
    pub fn set_presence(
        &mut self,
        relation: &str,
        tuple: usize,
        conditions: Vec<PresenceCondition>,
    ) {
        if conditions.is_empty() {
            self.presence.remove(&(relation.to_string(), tuple));
        } else {
            self.presence
                .insert((relation.to_string(), tuple), conditions);
        }
    }

    // ------------------------------------------------------------------
    // Component composition
    // ------------------------------------------------------------------

    /// Compose two or more components into one (product of their local
    /// worlds, probabilities multiplied).  Placeholders and presence
    /// conditions referring to the old components are rewritten to the new
    /// one.  Returns the new component id (composing a single component is a
    /// no-op returning it unchanged).
    pub fn compose(&mut self, cids: &[Cid]) -> Result<Cid> {
        let mut distinct: Vec<Cid> = cids.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        match distinct.len() {
            0 => {
                return Err(UwsdtError::invalid(
                    "compose requires at least one component",
                ))
            }
            1 => return Ok(distinct[0]),
            _ => {}
        }
        for &cid in &distinct {
            if !self.w.contains_key(&cid) {
                return Err(UwsdtError::UnknownComponent(cid));
            }
        }
        // Build the product of the local-world lists.  A combined local world
        // remembers which original lwid it came from for each source cid.
        let mut combos: Vec<(Vec<(Cid, Lwid)>, f64)> = vec![(Vec::new(), 1.0)];
        for &cid in &distinct {
            let mut next = Vec::with_capacity(combos.len() * self.w[&cid].len());
            for (combo, p) in &combos {
                for entry in &self.w[&cid] {
                    let mut combo = combo.clone();
                    combo.push((cid, entry.lwid));
                    next.push((combo, p * entry.prob));
                }
            }
            combos = next;
        }
        let new_worlds: Vec<WorldEntry> = combos
            .iter()
            .enumerate()
            .map(|(i, (_, p))| WorldEntry { lwid: i, prob: *p })
            .collect();
        let new_cid = self.create_component(new_worlds)?;
        // Map (source cid, source lwid) → the new lwids containing it.
        let mut expansion: HashMap<(Cid, Lwid), BTreeSet<Lwid>> = HashMap::new();
        for (new_lwid, (combo, _)) in combos.iter().enumerate() {
            for &(cid, lwid) in combo {
                expansion.entry((cid, lwid)).or_default().insert(new_lwid);
            }
        }
        // Move placeholders.
        for &cid in &distinct {
            let fields = self.comp_fields.remove(&cid).unwrap_or_default();
            for field in fields {
                let old_values = self.c.remove(&field).unwrap_or_default();
                let mut new_values: BTreeMap<Lwid, Value> = BTreeMap::new();
                for (old_lwid, value) in old_values {
                    if let Some(new_lwids) = expansion.get(&(cid, old_lwid)) {
                        for &nl in new_lwids {
                            new_values.insert(nl, value.clone());
                        }
                    }
                }
                self.f.insert(field.clone(), new_cid);
                self.c.insert(field.clone(), new_values);
                self.comp_fields.entry(new_cid).or_default().push(field);
            }
            self.w.remove(&cid);
        }
        // Rewrite presence conditions.
        for conditions in self.presence.values_mut() {
            let mut rewritten: Vec<PresenceCondition> = Vec::new();
            for cond in conditions.drain(..) {
                if distinct.contains(&cond.cid) {
                    let mut lwids = BTreeSet::new();
                    for lwid in &cond.lwids {
                        if let Some(new_lwids) = expansion.get(&(cond.cid, *lwid)) {
                            lwids.extend(new_lwids.iter().copied());
                        }
                    }
                    match rewritten.iter_mut().find(|p| p.cid == new_cid) {
                        Some(p) => p.lwids = p.lwids.intersection(&lwids).copied().collect(),
                        None => rewritten.push(PresenceCondition {
                            cid: new_cid,
                            lwids,
                        }),
                    }
                } else {
                    rewritten.push(cond);
                }
            }
            *conditions = rewritten;
        }
        Ok(new_cid)
    }

    /// Remove local worlds from a component (used by the chase), dropping the
    /// corresponding `C` entries and renormalizing the remaining
    /// probabilities.  Fails with [`UwsdtError::Inconsistent`] if all local
    /// worlds would be removed.
    pub fn remove_local_worlds(&mut self, cid: Cid, remove: &BTreeSet<Lwid>) -> Result<()> {
        let worlds = self
            .w
            .get_mut(&cid)
            .ok_or(UwsdtError::UnknownComponent(cid))?;
        worlds.retain(|w| !remove.contains(&w.lwid));
        if worlds.is_empty() {
            return Err(UwsdtError::Inconsistent);
        }
        let total: f64 = worlds.iter().map(|w| w.prob).sum();
        if total <= 0.0 {
            return Err(UwsdtError::Inconsistent);
        }
        for w in worlds.iter_mut() {
            w.prob /= total;
        }
        for field in self.comp_fields.get(&cid).cloned().unwrap_or_default() {
            if let Some(values) = self.c.get_mut(&field) {
                values.retain(|lwid, _| !remove.contains(lwid));
            }
        }
        for conditions in self.presence.values_mut() {
            for cond in conditions.iter_mut() {
                if cond.cid == cid {
                    cond.lwids.retain(|l| !remove.contains(l));
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Normalization support (see the `normalize` module)
    // ------------------------------------------------------------------

    /// Iterate over every presence condition together with the tuple it
    /// constrains.
    pub fn all_presence(&self) -> impl Iterator<Item = (&str, usize, &PresenceCondition)> {
        self.presence.iter().flat_map(|((rel, tuple), conditions)| {
            conditions.iter().map(move |c| (rel.as_str(), *tuple, c))
        })
    }

    /// Mutable access to the local worlds of a component (normalization
    /// rewrites probabilities in place without renormalizing).
    pub(crate) fn worlds_mut(&mut self, cid: Cid) -> Result<&mut Vec<WorldEntry>> {
        self.w
            .get_mut(&cid)
            .ok_or(UwsdtError::UnknownComponent(cid))
    }

    /// Mutable access to the per-local-world values of a placeholder.
    pub(crate) fn values_map_mut(&mut self, field: &FieldId) -> Option<&mut BTreeMap<Lwid, Value>> {
        self.c.get_mut(field)
    }

    /// Mutable access to every presence condition.
    pub(crate) fn presence_conditions_mut(
        &mut self,
    ) -> impl Iterator<Item = &mut PresenceCondition> {
        self.presence.values_mut().flatten()
    }

    /// Overwrite a template field with a concrete value (used when a
    /// placeholder turns out to be certain and is folded back into the
    /// template).
    pub(crate) fn set_template_value(&mut self, field: &FieldId, value: Value) -> Result<()> {
        let relation = field.relation.to_string();
        let tuple = field.tuple.0;
        let attr = field.attr.to_string();
        let template = self.template_mut(&relation)?;
        let pos = template.schema().position_of(&attr)?;
        let row = template
            .rows_mut()
            .get_mut(tuple)
            .ok_or_else(|| UwsdtError::invalid(format!("tuple {tuple} out of range")))?;
        row.set(pos, value);
        Ok(())
    }

    /// Drop every component among `candidates` that nothing references any
    /// more: no placeholder (`F` entry) lives in it and no presence condition
    /// names it.  This is the one rule by which a component leaves `W`;
    /// dropping a referenced one would change the represented world-set.
    /// Returns the number of dropped components.
    pub(crate) fn drop_unreferenced(&mut self, candidates: impl IntoIterator<Item = Cid>) -> usize {
        let mut unreferenced: BTreeSet<Cid> = candidates
            .into_iter()
            .filter(|cid| self.w.contains_key(cid) && self.component_fields(*cid).is_empty())
            .collect();
        if unreferenced.is_empty() {
            return 0;
        }
        for condition in self.presence.values().flatten() {
            unreferenced.remove(&condition.cid);
        }
        for cid in &unreferenced {
            self.comp_fields.remove(cid);
            self.w.remove(cid);
        }
        unreferenced.len()
    }

    // ------------------------------------------------------------------
    // World semantics
    // ------------------------------------------------------------------

    /// The number of local-world combinations (saturating).
    pub fn world_count(&self) -> u128 {
        self.w
            .values()
            .fold(1u128, |acc, w| acc.saturating_mul(w.len() as u128))
    }

    /// Enumerate the possible worlds with probabilities (for tests, oracles
    /// and small examples).
    pub fn enumerate_worlds(&self, limit: u128) -> Result<Vec<(Database, f64)>> {
        let count = self.world_count();
        if count > limit {
            return Err(UwsdtError::TooManyWorlds {
                worlds: count,
                limit,
            });
        }
        let cids = self.component_ids();
        let mut choice: Vec<usize> = vec![0; cids.len()];
        let mut out = Vec::new();
        loop {
            let mut prob = 1.0;
            let mut chosen: HashMap<Cid, Lwid> = HashMap::with_capacity(cids.len());
            for (k, &cid) in cids.iter().enumerate() {
                let entry = &self.w[&cid][choice[k]];
                prob *= entry.prob;
                chosen.insert(cid, entry.lwid);
            }
            out.push((self.world_for(&chosen)?, prob));
            let mut k = 0;
            loop {
                if k == cids.len() {
                    return Ok(out);
                }
                choice[k] += 1;
                if choice[k] < self.w[&cids[k]].len() {
                    break;
                }
                choice[k] = 0;
                k += 1;
            }
            if cids.is_empty() {
                return Ok(out);
            }
        }
    }

    /// Build the world selected by the given per-component local worlds.
    pub fn world_for(&self, chosen: &HashMap<Cid, Lwid>) -> Result<Database> {
        let mut db = Database::new();
        for (name, template) in &self.templates {
            let mut rel = Relation::new(template.schema().clone());
            'tuples: for (t, row) in template.rows().iter().enumerate() {
                // Presence conditions.
                for cond in self.presence_of(name, t) {
                    let lwid = chosen
                        .get(&cond.cid)
                        .ok_or_else(|| UwsdtError::invalid("world misses a component choice"))?;
                    if !cond.lwids.contains(lwid) {
                        continue 'tuples;
                    }
                }
                let mut values = Vec::with_capacity(row.arity());
                for (i, attr) in template.schema().attrs().iter().enumerate() {
                    if row[i].is_unknown() {
                        let field = FieldId::from_parts(
                            Arc::from(name.as_str()),
                            ws_core::TupleId(t),
                            attr.clone(),
                        );
                        let cid = self.f.get(&field).ok_or_else(|| {
                            UwsdtError::invalid(format!("placeholder {field} has no component"))
                        })?;
                        let lwid = chosen.get(cid).ok_or_else(|| {
                            UwsdtError::invalid("world misses a component choice")
                        })?;
                        match self.c.get(&field).and_then(|vals| vals.get(lwid)) {
                            Some(v) => values.push(v.clone()),
                            // No value for this local world: the tuple is
                            // absent from this world.
                            None => continue 'tuples,
                        }
                    } else {
                        values.push(row[i].clone());
                    }
                }
                let tuple = Tuple::new(values);
                if !rel.contains(&tuple) {
                    rel.push(tuple)?;
                }
            }
            db.insert_relation(rel);
        }
        Ok(db)
    }

    /// The possible values of one field of one tuple: the template value if
    /// certain, otherwise the distinct values recorded in `C`.
    pub fn possible_field_values(
        &self,
        relation: &str,
        tuple: usize,
        attr: &str,
    ) -> Result<Vec<Value>> {
        let template = self.template(relation)?;
        let pos = template.schema().position_of(attr)?;
        let row = template
            .rows()
            .get(tuple)
            .ok_or_else(|| UwsdtError::invalid(format!("tuple {tuple} out of range")))?;
        if !row[pos].is_unknown() {
            return Ok(vec![row[pos].clone()]);
        }
        let field = FieldId::new(relation, tuple, attr);
        let values = self
            .c
            .get(&field)
            .ok_or_else(|| UwsdtError::invalid(format!("placeholder {field} has no values")))?;
        let mut distinct: Vec<Value> = values.values().cloned().collect();
        distinct.sort();
        distinct.dedup();
        Ok(distinct)
    }

    /// Validate structural invariants: placeholders agree with templates,
    /// `C` entries refer to existing local worlds, probabilities sum to one,
    /// every presence condition names a live component, and every component
    /// is named by an `F` entry or a presence condition (an orphan is one
    /// [`crate::normalize::prune_unreferenced_components`] should have pruned).
    ///
    /// `?` template cells and `F` entries must correspond one to one.  This
    /// runs on every snapshot decode, so it is checked without a [`FieldId`]
    /// per template cell: every `F` entry of a represented relation must land
    /// on a `?` cell, and each template must hold as many `?` cells as it has
    /// `F` entries.  The culprit field is only built for the error message.
    pub fn validate(&self) -> Result<()> {
        let mut f_entries: HashMap<&str, usize> = HashMap::with_capacity(self.templates.len());
        for field in self.f.keys() {
            // Entries of relations without a template are checked against W
            // and C only, below.
            let Some(template) = self.templates.get(field.relation.as_ref()) else {
                continue;
            };
            let cell = template
                .schema()
                .position(&field.attr)
                .and_then(|pos| template.rows().get(field.tuple.0).map(|row| &row[pos]));
            match cell {
                Some(value) if value.is_unknown() => {
                    *f_entries.entry(field.relation.as_ref()).or_default() += 1;
                }
                Some(_) => {
                    return Err(UwsdtError::invalid(format!(
                        "certain field {field} has an F entry"
                    )))
                }
                None => {
                    return Err(UwsdtError::invalid(format!(
                        "placeholder {field} lies outside its template"
                    )))
                }
            }
        }
        for (name, template) in &self.templates {
            let unknown: usize = template
                .rows()
                .iter()
                .map(|row| row.values().iter().filter(|v| v.is_unknown()).count())
                .sum();
            if unknown != f_entries.get(name.as_str()).copied().unwrap_or(0) {
                // The counted entries sit on distinct `?` cells, so some `?`
                // cell has none.
                return Err(self.unregistered_placeholder(name, template));
            }
        }
        for (field, cid) in &self.f {
            let worlds = self.w.get(cid).ok_or(UwsdtError::UnknownComponent(*cid))?;
            let lwids: BTreeSet<Lwid> = worlds.iter().map(|w| w.lwid).collect();
            let total: f64 = worlds.iter().map(|w| w.prob).sum();
            if (total - 1.0).abs() > 1e-6 {
                return Err(UwsdtError::invalid(format!(
                    "component {cid} probabilities sum to {total}"
                )));
            }
            let values = self.c.get(field).ok_or_else(|| {
                UwsdtError::invalid(format!("placeholder {field} has no C entries"))
            })?;
            if values.keys().any(|l| !lwids.contains(l)) {
                return Err(UwsdtError::invalid(format!(
                    "placeholder {field} refers to unknown local worlds"
                )));
            }
        }
        if let Some(condition) = self
            .presence
            .values()
            .flatten()
            .find(|c| !self.w.contains_key(&c.cid))
        {
            return Err(UwsdtError::UnknownComponent(condition.cid));
        }
        let mut named: HashSet<Cid> = self.f.values().copied().collect();
        named.extend(self.presence.values().flatten().map(|c| c.cid));
        if let Some(orphan) = self.w.keys().find(|cid| !named.contains(cid)) {
            return Err(UwsdtError::invalid(format!(
                "component {orphan} is orphaned: no F entry and no presence condition names it"
            )));
        }
        Ok(())
    }

    /// The error naming the first `?` cell of `template` without an `F`
    /// entry ([`Uwsdt::validate`]'s slow path).
    fn unregistered_placeholder(&self, name: &str, template: &Relation) -> UwsdtError {
        let relation: Arc<str> = Arc::from(name);
        for (t, row) in template.rows().iter().enumerate() {
            for (i, attr) in template.schema().attrs().iter().enumerate() {
                let field =
                    FieldId::from_parts(Arc::clone(&relation), ws_core::TupleId(t), attr.clone());
                if row[i].is_unknown() && !self.f.contains_key(&field) {
                    return UwsdtError::invalid(format!("placeholder {field} has no F entry"));
                }
            }
        }
        UwsdtError::invalid(format!(
            "template {name} and its F entries disagree on the placeholder count"
        ))
    }

    // ------------------------------------------------------------------
    // Snapshot surface (the persistence layer's codec boundary)
    // ------------------------------------------------------------------

    /// Flatten the whole UWSDT into a [`UwsdtSnapshot`]: every hash-map is
    /// rendered in a canonical sorted order so that encoding the same state
    /// twice produces identical bytes, while order-significant vectors
    /// (per-component field registration order, per-tuple presence-condition
    /// order) are preserved verbatim.
    pub fn to_snapshot(&self) -> UwsdtSnapshot {
        let templates: Vec<Relation> = self.templates.values().cloned().collect();
        let components: Vec<(Cid, Vec<WorldEntry>, Vec<FieldId>)> = self
            .component_ids()
            .into_iter()
            .map(|cid| {
                (
                    cid,
                    self.w[&cid].clone(),
                    self.component_fields(cid).to_vec(),
                )
            })
            .collect();
        let mut values: Vec<(FieldId, Vec<(Lwid, Value)>)> = self
            .c
            .iter()
            .map(|(f, vals)| {
                (
                    f.clone(),
                    vals.iter().map(|(l, v)| (*l, v.clone())).collect(),
                )
            })
            .collect();
        values.sort_by(|a, b| a.0.cmp(&b.0));
        let mut presence: Vec<(String, usize, Vec<PresenceCondition>)> = self
            .presence
            .iter()
            .map(|((rel, tuple), conds)| (rel.clone(), *tuple, conds.clone()))
            .collect();
        presence.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
        UwsdtSnapshot {
            templates,
            components,
            values,
            presence,
            next_cid: self.next_cid,
        }
    }

    /// Rebuild a UWSDT from a snapshot, re-deriving the `F` index from the
    /// per-component field lists and validating the result, so a corrupted
    /// snapshot is rejected instead of silently accepted.
    pub fn from_snapshot(snapshot: UwsdtSnapshot) -> Result<Uwsdt> {
        let mut u = Uwsdt::new();
        for template in snapshot.templates {
            u.add_template(template)?;
        }
        let mut max_cid = 0;
        for (cid, worlds, fields) in snapshot.components {
            if u.w.insert(cid, worlds).is_some() {
                return Err(UwsdtError::invalid(format!(
                    "component {cid} appears twice in the snapshot"
                )));
            }
            for field in &fields {
                if u.f.insert(field.clone(), cid).is_some() {
                    return Err(UwsdtError::invalid(format!(
                        "placeholder {field} belongs to two components in the snapshot"
                    )));
                }
            }
            u.comp_fields.insert(cid, fields);
            max_cid = max_cid.max(cid + 1);
        }
        for (field, values) in snapshot.values {
            if !u.f.contains_key(&field) {
                return Err(UwsdtError::invalid(format!(
                    "snapshot carries C entries for unregistered placeholder {field}"
                )));
            }
            let count = values.len();
            let values: BTreeMap<Lwid, Value> = values.into_iter().collect();
            if values.len() != count {
                return Err(UwsdtError::invalid(format!(
                    "snapshot lists a local world twice among the C entries of {field}"
                )));
            }
            if u.c.insert(field.clone(), values).is_some() {
                return Err(UwsdtError::invalid(format!(
                    "placeholder {field} has two C-entry lists in the snapshot"
                )));
            }
        }
        for (relation, tuple, conditions) in snapshot.presence {
            for cond in &conditions {
                if !u.w.contains_key(&cond.cid) {
                    return Err(UwsdtError::UnknownComponent(cond.cid));
                }
            }
            if u.presence
                .insert((relation.clone(), tuple), conditions)
                .is_some()
            {
                return Err(UwsdtError::invalid(format!(
                    "tuple {relation}.{tuple} has two presence-condition lists in the snapshot"
                )));
            }
        }
        u.next_cid = snapshot.next_cid.max(max_cid);
        u.validate()?;
        Ok(u)
    }

    /// Total number of `C` entries (the `|C|` column of Figure 27).
    pub fn c_size(&self) -> usize {
        self.c.values().map(BTreeMap::len).sum()
    }

    /// Total number of `C` entries belonging to one relation.
    pub fn c_size_of(&self, relation: &str) -> usize {
        self.c
            .iter()
            .filter(|(fid, _)| fid.in_relation(relation))
            .map(|(_, v)| v.len())
            .sum()
    }
}

#[cfg(test)]
mod snapshot_tests {
    use super::*;

    fn sample() -> Uwsdt {
        crate::build::from_wsd(&ws_core::wsd::example_census_wsd()).unwrap()
    }

    #[test]
    fn snapshot_roundtrips_and_validates() {
        let uwsdt = sample();
        let snapshot = uwsdt.to_snapshot();
        let rebuilt = Uwsdt::from_snapshot(snapshot.clone()).unwrap();
        assert_eq!(rebuilt.to_snapshot(), snapshot);
        rebuilt.validate().unwrap();
        assert_eq!(rebuilt.world_count(), uwsdt.world_count());
    }

    #[test]
    fn orphaned_components_are_rejected() {
        let mut uwsdt = sample();
        uwsdt.validate().unwrap();
        let orphan = uwsdt
            .create_component(vec![WorldEntry { lwid: 0, prob: 1.0 }])
            .unwrap();
        let err = uwsdt.validate().unwrap_err().to_string();
        assert!(
            err.contains(&format!("component {orphan} is orphaned")),
            "{err}"
        );
        assert!(Uwsdt::from_snapshot(uwsdt.to_snapshot()).is_err());
        // A presence condition is a reference: the component is no orphan.
        uwsdt.set_presence(
            "R",
            0,
            vec![PresenceCondition {
                cid: orphan,
                lwids: BTreeSet::from([0]),
            }],
        );
        uwsdt.validate().unwrap();
    }

    #[test]
    fn duplicate_snapshot_entries_are_rejected() {
        let uwsdt = sample();
        let base = uwsdt.to_snapshot();

        // A component listed twice.
        let mut s = base.clone();
        let dup = s.components[0].clone();
        s.components.push(dup);
        assert!(Uwsdt::from_snapshot(s).is_err());

        // A C-entry list listed twice for the same placeholder.
        let mut s = base.clone();
        let dup = s.values[0].clone();
        s.values.push(dup);
        assert!(Uwsdt::from_snapshot(s).is_err());

        // The same local world listed twice inside one C-entry list.
        let mut s = base.clone();
        let dup_entry = s.values[0].1[0].clone();
        s.values[0].1.push(dup_entry);
        assert!(Uwsdt::from_snapshot(s).is_err());

        // A presence-condition list listed twice for the same tuple.
        let mut s = base.clone();
        s.presence.push(("R".to_string(), 0, Vec::new()));
        s.presence.push(("R".to_string(), 0, Vec::new()));
        assert!(Uwsdt::from_snapshot(s).is_err());

        // The untouched snapshot still reconstructs.
        assert!(Uwsdt::from_snapshot(base).is_ok());
    }

    fn rejection(snapshot: UwsdtSnapshot) -> String {
        Uwsdt::from_snapshot(snapshot).unwrap_err().to_string()
    }

    #[test]
    fn template_and_f_disagreements_are_rejected() {
        let base = sample().to_snapshot();

        // A template `?` whose field was removed from its component's field
        // list (and, with it, its C entries): the `?` has no F entry.
        let mut s = base.clone();
        let field = s.components[0].2.remove(0);
        s.values.retain(|(f, _)| *f != field);
        let message = rejection(s);
        assert!(message.contains("has no F entry"), "{message}");
        assert!(message.contains(&field.to_string()), "{message}");

        // A certain template cell that still carries an F entry.
        let mut s = base.clone();
        let field = s.components[0].2[0].clone();
        let template = s
            .templates
            .iter_mut()
            .find(|t| *t.schema().relation() == field.relation)
            .unwrap();
        let pos = template.schema().position(&field.attr).unwrap();
        template.rows_mut()[field.tuple.0].set(pos, Value::int(0));
        let message = rejection(s);
        assert!(message.contains("has an F entry"), "{message}");
        assert!(message.contains(&field.to_string()), "{message}");

        // An F entry addressed past the template's last tuple.
        let mut s = base;
        s.components[0].2.push(FieldId::new("R", 99, "S"));
        let message = rejection(s);
        assert!(message.contains("lies outside its template"), "{message}");
    }
}
