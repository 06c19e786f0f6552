//! Linked medical data as world-set decompositions (§10).
//!
//! Medical knowledge comes with clusters of interdependent facts: a
//! medication is only compatible with some diagnoses, procedures are
//! prescribed for some diseases and forbidden for others.  An incompletely
//! specified patient record therefore describes a *set* of possible worlds in
//! which the interdependent fields (diagnosis, medication) must be chosen
//! jointly while unrelated fields stay independent.  Following the paper's
//! suggestion, interrelated values are wrapped into one WSD component (one
//! component per linked cluster) and everything else into per-field
//! components.

use std::collections::BTreeMap;

use ws_core::{confidence, Component, FieldId, Result, WsError, Wsd};
use ws_relational::{engine, Predicate, RaExpr, Value};

/// The relation name used for patient records.
pub const PATIENT_RELATION: &str = "Patient";

/// The attributes of the patient relation.
pub const PATIENT_ATTRS: [&str; 3] = ["PID", "DIAGNOSIS", "MEDICATION"];

/// A compatibility knowledge base: which medications may be prescribed for
/// which diagnosis.
#[derive(Clone, Debug, Default)]
pub struct MedicalScenario {
    compatibility: BTreeMap<String, Vec<String>>,
}

impl MedicalScenario {
    /// An empty knowledge base.
    pub fn new() -> Self {
        MedicalScenario::default()
    }

    /// A small built-in knowledge base used by the example and the tests.
    pub fn demo() -> Self {
        let mut s = MedicalScenario::new();
        s.add_compatibility("flu", ["oseltamivir", "paracetamol"]);
        s.add_compatibility("migraine", ["ibuprofen", "triptan"]);
        s.add_compatibility("hypertension", ["lisinopril", "amlodipine"]);
        s.add_compatibility("angina", ["nitroglycerin", "amlodipine"]);
        s
    }

    /// Declare (or extend) the medications compatible with a diagnosis.
    pub fn add_compatibility<S: Into<String>>(
        &mut self,
        diagnosis: impl Into<String>,
        medications: impl IntoIterator<Item = S>,
    ) {
        let entry = self.compatibility.entry(diagnosis.into()).or_default();
        for m in medications {
            let m = m.into();
            if !entry.contains(&m) {
                entry.push(m);
            }
        }
    }

    /// The known diagnoses.
    pub fn diagnoses(&self) -> Vec<&str> {
        self.compatibility.keys().map(String::as_str).collect()
    }

    /// The medications compatible with a diagnosis (empty if unknown).
    pub fn compatible_medications(&self, diagnosis: &str) -> &[String] {
        self.compatibility
            .get(diagnosis)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Build the WSD of a set of (possibly incomplete) patient records.
    pub fn build_wsd(&self, patients: &[PatientRecord]) -> Result<Wsd> {
        let mut wsd = Wsd::new();
        wsd.register_relation(PATIENT_RELATION, &PATIENT_ATTRS, patients.len())?;
        for (t, patient) in patients.iter().enumerate() {
            wsd.set_certain(
                FieldId::new(PATIENT_RELATION, t, "PID"),
                Value::int(patient.id),
            )?;
            let pairs = patient.admissible_pairs(self);
            if pairs.is_empty() {
                return Err(WsError::invalid(format!(
                    "patient {} has no admissible (diagnosis, medication) pair",
                    patient.id
                )));
            }
            let mut component = Component::new(vec![
                FieldId::new(PATIENT_RELATION, t, "DIAGNOSIS"),
                FieldId::new(PATIENT_RELATION, t, "MEDICATION"),
            ]);
            let prob = 1.0 / pairs.len() as f64;
            for (diagnosis, medication) in pairs {
                component.push_row(vec![Value::text(diagnosis), Value::text(medication)], prob)?;
            }
            wsd.add_component(component)?;
        }
        wsd.validate()?;
        Ok(wsd)
    }
}

/// An incompletely specified patient record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PatientRecord {
    /// Patient identifier.
    pub id: i64,
    /// The candidate diagnoses (empty means "any known diagnosis").
    pub candidate_diagnoses: Vec<String>,
    /// The medication observed on the chart, if any; `None` leaves every
    /// compatible medication possible.
    pub observed_medication: Option<String>,
}

impl PatientRecord {
    /// A record with unrestricted diagnosis and medication.
    pub fn unknown(id: i64) -> Self {
        PatientRecord {
            id,
            candidate_diagnoses: Vec::new(),
            observed_medication: None,
        }
    }

    /// A record with a set of candidate diagnoses.
    pub fn with_candidates<S: Into<String>>(
        id: i64,
        candidates: impl IntoIterator<Item = S>,
    ) -> Self {
        PatientRecord {
            id,
            candidate_diagnoses: candidates.into_iter().map(Into::into).collect(),
            observed_medication: None,
        }
    }

    /// Restrict the record to an observed medication.
    pub fn observed(mut self, medication: impl Into<String>) -> Self {
        self.observed_medication = Some(medication.into());
        self
    }

    /// The (diagnosis, medication) pairs admissible for this record under the
    /// knowledge base: candidate diagnoses × compatible medications, filtered
    /// by the observed medication if present.
    pub fn admissible_pairs(&self, scenario: &MedicalScenario) -> Vec<(String, String)> {
        let diagnoses: Vec<String> = if self.candidate_diagnoses.is_empty() {
            scenario.diagnoses().iter().map(|d| d.to_string()).collect()
        } else {
            self.candidate_diagnoses.clone()
        };
        let mut pairs = Vec::new();
        for d in &diagnoses {
            for m in scenario.compatible_medications(d) {
                if self
                    .observed_medication
                    .as_ref()
                    .map(|obs| obs == m)
                    .unwrap_or(true)
                {
                    pairs.push((d.clone(), m.clone()));
                }
            }
        }
        pairs
    }
}

/// The possible diagnoses of one patient with the probability of each.
pub fn possible_diagnoses(wsd: &Wsd, patient_id: i64) -> Result<Vec<(String, f64)>> {
    answer_column(
        wsd,
        &RaExpr::rel(PATIENT_RELATION)
            .select(Predicate::eq_const("PID", patient_id))
            .project(vec!["DIAGNOSIS"]),
    )
}

/// The medications that may be prescribed (to any patient) for a diagnosis,
/// with the probability that some patient actually receives them for it.
pub fn medications_for(wsd: &Wsd, diagnosis: &str) -> Result<Vec<(String, f64)>> {
    answer_column(
        wsd,
        &RaExpr::rel(PATIENT_RELATION)
            .select(Predicate::eq_const("DIAGNOSIS", diagnosis))
            .project(vec!["MEDICATION"]),
    )
}

fn answer_column(wsd: &Wsd, query: &RaExpr) -> Result<Vec<(String, f64)>> {
    let mut scratch = wsd.clone();
    let out = engine::fresh_scratch_name(|n| scratch.contains_relation(n), &mut 0, "medical_q");
    engine::evaluate_query(&mut scratch, query, &out)?;
    let mut answers = Vec::new();
    for (tuple, conf) in confidence::possible_with_confidence(&scratch, &out)? {
        let label = tuple
            .get(0)
            .and_then(|v| v.as_text().map(str::to_string))
            .unwrap_or_else(|| tuple.to_string());
        answers.push((label, conf));
    }
    answers.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    Ok(answers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knowledge_base_management() {
        let mut s = MedicalScenario::new();
        assert!(s.diagnoses().is_empty());
        s.add_compatibility("flu", ["paracetamol"]);
        s.add_compatibility("flu", ["paracetamol", "oseltamivir"]);
        assert_eq!(s.compatible_medications("flu").len(), 2);
        assert!(s.compatible_medications("unknown").is_empty());
        let demo = MedicalScenario::demo();
        assert_eq!(demo.diagnoses().len(), 4);
    }

    #[test]
    fn compatibility_holds_in_every_world() {
        let scenario = MedicalScenario::demo();
        let patients = vec![
            PatientRecord::with_candidates(1, ["flu", "migraine"]),
            PatientRecord::unknown(2),
            PatientRecord::with_candidates(3, ["hypertension"]).observed("amlodipine"),
        ];
        let wsd = scenario.build_wsd(&patients).unwrap();
        for (world, _) in wsd.enumerate_worlds(1 << 16).unwrap() {
            let rel = world.relation(PATIENT_RELATION).unwrap();
            assert_eq!(rel.len(), 3);
            for row in rel.rows() {
                let diagnosis = row[1].as_text().unwrap();
                let medication = row[2].as_text().unwrap().to_string();
                assert!(
                    scenario
                        .compatible_medications(diagnosis)
                        .contains(&medication),
                    "world contains incompatible pair ({diagnosis}, {medication})"
                );
            }
        }
    }

    #[test]
    fn possible_diagnoses_reflect_candidates_and_observations() {
        let scenario = MedicalScenario::demo();
        let patients = vec![
            PatientRecord::with_candidates(1, ["flu", "migraine"]),
            // amlodipine is compatible with hypertension and angina only.
            PatientRecord::unknown(2).observed("amlodipine"),
        ];
        let wsd = scenario.build_wsd(&patients).unwrap();

        let p1 = possible_diagnoses(&wsd, 1).unwrap();
        let labels: Vec<&str> = p1.iter().map(|(d, _)| d.as_str()).collect();
        assert_eq!(labels.len(), 2);
        assert!(labels.contains(&"flu") && labels.contains(&"migraine"));
        let total: f64 = p1.iter().map(|(_, c)| c).sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "diagnoses of one patient are exclusive"
        );

        let p2 = possible_diagnoses(&wsd, 2).unwrap();
        let labels: Vec<&str> = p2.iter().map(|(d, _)| d.as_str()).collect();
        assert_eq!(labels.len(), 2);
        assert!(labels.contains(&"hypertension") && labels.contains(&"angina"));

        // Medication query: flu patients can only get flu medication.
        let meds = medications_for(&wsd, "flu").unwrap();
        assert!(meds
            .iter()
            .all(|(m, _)| m == "oseltamivir" || m == "paracetamol"));
    }

    #[test]
    fn certain_records_stay_certain() {
        let scenario = MedicalScenario::demo();
        let patients = vec![PatientRecord::with_candidates(7, ["flu"]).observed("paracetamol")];
        let wsd = scenario.build_wsd(&patients).unwrap();
        assert_eq!(wsd.world_count(), 1);
        let diagnoses = possible_diagnoses(&wsd, 7).unwrap();
        assert_eq!(diagnoses, vec![("flu".to_string(), 1.0)]);
    }

    #[test]
    fn impossible_records_are_rejected() {
        let scenario = MedicalScenario::demo();
        // Observed medication incompatible with every candidate diagnosis.
        let patients = vec![PatientRecord::with_candidates(9, ["flu"]).observed("triptan")];
        assert!(scenario.build_wsd(&patients).is_err());
        // Unknown diagnosis with no compatible medication.
        let patients = vec![PatientRecord::with_candidates(9, ["scurvy"])];
        assert!(scenario.build_wsd(&patients).is_err());
    }
}
