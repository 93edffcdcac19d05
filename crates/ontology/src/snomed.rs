//! Hand-curated clinical ontology fragment.
//!
//! SNOMED CT is distributed under a national-licence model, so this module
//! ships a small curated is-a fragment instead — a substitution for the
//! full terminology the paper uses, not an extract of it. It is built to
//! two requirements:
//!
//! 1. it contains every concept appearing in the paper's Table I (acute
//!    bronchitis, chest pain, tracheobronchitis, broken arm), and
//! 2. the worked example of §V-C holds **exactly**: the shortest path
//!    between *acute bronchitis* and *chest pain* has length 5, and between
//!    *tracheobronchitis* and *acute bronchitis* length 2 — so the paper's
//!    conclusion "patients 1 and 3 are more similar than patients 1 and 2"
//!    is reproduced by construction.
//!
//! Concept codes are SNOMED-CT-style numeric strings; they are stable
//! within this crate but are illustrative, not an extract of the licensed
//! terminology.

use crate::hierarchy::{Ontology, OntologyBuilder};

/// Well-known concept labels used across examples and tests.
pub mod labels {
    /// Table I, patient 1 problem.
    pub const ACUTE_BRONCHITIS: &str = "Acute bronchitis";
    /// Table I, patient 2 problem.
    pub const CHEST_PAIN: &str = "Chest pain";
    /// Table I, patient 3 problem (a).
    pub const TRACHEOBRONCHITIS: &str = "Tracheobronchitis";
    /// Table I, patient 3 problem (b).
    pub const BROKEN_ARM: &str = "Fracture of upper limb";
}

/// Builds the curated clinical fragment (57 concepts, max depth 4).
///
/// Layout (depths): root(0) → clinical finding(1) → body-system disorder
/// families(2) → diseases(3) → specific diseases(4).
pub fn clinical_fragment() -> Ontology {
    let mut b = OntologyBuilder::new("138875005", "SNOMED CT Concept");
    let root = b.root_id();

    let finding = b
        .add_child(root, "404684003", "Clinical finding")
        .expect("fresh builder");

    // --- Respiratory ------------------------------------------------------
    let resp = b
        .add_child(finding, "50043002", "Disorder of respiratory system")
        .unwrap();
    let bronchitis = b.add_child(resp, "32398004", "Bronchitis").unwrap();
    // Table I anchors: siblings under Bronchitis ⇒ path(trach, acute) = 2.
    b.add_child(bronchitis, "10509002", labels::ACUTE_BRONCHITIS)
        .unwrap();
    b.add_child(bronchitis, "63480004", "Chronic bronchitis")
        .unwrap();
    b.add_child(bronchitis, "247007002", labels::TRACHEOBRONCHITIS)
        .unwrap();
    let pneumonia = b.add_child(resp, "233604007", "Pneumonia").unwrap();
    b.add_child(pneumonia, "385093006", "Community acquired pneumonia")
        .unwrap();
    b.add_child(pneumonia, "425464007", "Nosocomial pneumonia")
        .unwrap();
    b.add_child(resp, "195967001", "Asthma").unwrap();
    b.add_child(resp, "54150009", "Upper respiratory infection")
        .unwrap();
    b.add_child(resp, "13645005", "Chronic obstructive lung disease")
        .unwrap();

    // --- Pain findings ----------------------------------------------------
    // Chest pain sits at depth 2 under a *pain* family at depth 1... no:
    // pain family at depth 2 under Clinical finding(1) ⇒ chest pain depth 3.
    // path(acute bronchitis, chest pain)
    //   = depth(AB) + depth(CP) − 2·depth(lca = Clinical finding)
    //   = 4 + 3 − 2·1 = 5  ✓ (the paper's worked value).
    let pain = b.add_child(finding, "22253000", "Pain finding").unwrap();
    b.add_child(pain, "29857009", labels::CHEST_PAIN).unwrap();
    b.add_child(pain, "25064002", "Headache").unwrap();
    b.add_child(pain, "21522001", "Abdominal pain").unwrap();
    b.add_child(pain, "30989003", "Knee pain").unwrap();
    b.add_child(pain, "161891005", "Back pain").unwrap();

    // --- Cardiovascular ---------------------------------------------------
    let cardio = b
        .add_child(finding, "49601007", "Disorder of cardiovascular system")
        .unwrap();
    let heart = b.add_child(cardio, "56265001", "Heart disease").unwrap();
    b.add_child(heart, "22298006", "Myocardial infarction")
        .unwrap();
    b.add_child(heart, "194828000", "Angina pectoris").unwrap();
    b.add_child(heart, "84114007", "Heart failure").unwrap();
    b.add_child(heart, "49436004", "Atrial fibrillation")
        .unwrap();
    b.add_child(cardio, "38341003", "Hypertensive disorder")
        .unwrap();
    b.add_child(cardio, "400047006", "Peripheral vascular disease")
        .unwrap();

    // --- Musculoskeletal --------------------------------------------------
    let musculo = b
        .add_child(finding, "928000", "Disorder of musculoskeletal system")
        .unwrap();
    let fracture = b
        .add_child(musculo, "125605004", "Fracture of bone")
        .unwrap();
    b.add_child(fracture, "65966004", labels::BROKEN_ARM)
        .unwrap();
    b.add_child(fracture, "46866001", "Fracture of lower limb")
        .unwrap();
    b.add_child(fracture, "207957008", "Fracture of rib")
        .unwrap();
    let arthritis = b.add_child(musculo, "3723001", "Arthritis").unwrap();
    b.add_child(arthritis, "69896004", "Rheumatoid arthritis")
        .unwrap();
    b.add_child(arthritis, "396275006", "Osteoarthritis")
        .unwrap();
    b.add_child(musculo, "64859006", "Osteoporosis").unwrap();

    // --- Neoplastic (the iManageCancer context) ---------------------------
    let neoplasm = b
        .add_child(finding, "55342001", "Neoplastic disease")
        .unwrap();
    let malignant = b
        .add_child(neoplasm, "363346000", "Malignant neoplastic disease")
        .unwrap();
    b.add_child(malignant, "254837009", "Malignant neoplasm of breast")
        .unwrap();
    b.add_child(malignant, "363358000", "Malignant neoplasm of lung")
        .unwrap();
    b.add_child(malignant, "363406005", "Malignant neoplasm of colon")
        .unwrap();
    b.add_child(malignant, "399068003", "Malignant neoplasm of prostate")
        .unwrap();
    b.add_child(malignant, "93143009", "Leukemia").unwrap();
    b.add_child(neoplasm, "20376005", "Benign neoplastic disease")
        .unwrap();

    // --- Metabolic / endocrine --------------------------------------------
    let metabolic = b
        .add_child(finding, "75934005", "Metabolic disease")
        .unwrap();
    let diabetes = b
        .add_child(metabolic, "73211009", "Diabetes mellitus")
        .unwrap();
    b.add_child(diabetes, "46635009", "Diabetes mellitus type 1")
        .unwrap();
    b.add_child(diabetes, "44054006", "Diabetes mellitus type 2")
        .unwrap();
    b.add_child(metabolic, "55822004", "Hyperlipidemia")
        .unwrap();
    b.add_child(metabolic, "66999008", "Obesity").unwrap();

    // --- Mental / behavioural ---------------------------------------------
    let mental = b.add_child(finding, "74732009", "Mental disorder").unwrap();
    b.add_child(mental, "35489007", "Depressive disorder")
        .unwrap();
    b.add_child(mental, "197480006", "Anxiety disorder")
        .unwrap();
    b.add_child(mental, "13746004", "Bipolar disorder").unwrap();

    // --- Digestive ---------------------------------------------------------
    let digestive = b
        .add_child(finding, "53619000", "Disorder of digestive system")
        .unwrap();
    b.add_child(digestive, "235595009", "Gastroesophageal reflux disease")
        .unwrap();
    b.add_child(digestive, "397825006", "Gastric ulcer")
        .unwrap();
    b.add_child(digestive, "34000006", "Crohn's disease")
        .unwrap();

    // --- Neurological -------------------------------------------------------
    let neuro = b
        .add_child(finding, "118940003", "Disorder of nervous system")
        .unwrap();
    b.add_child(neuro, "84757009", "Epilepsy").unwrap();
    b.add_child(neuro, "24700007", "Multiple sclerosis")
        .unwrap();
    b.add_child(neuro, "49049000", "Parkinson's disease")
        .unwrap();

    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_path_lengths_hold_exactly() {
        let o = clinical_fragment();
        let acute = o.by_label(labels::ACUTE_BRONCHITIS).unwrap();
        let chest = o.by_label(labels::CHEST_PAIN).unwrap();
        let trach = o.by_label(labels::TRACHEOBRONCHITIS).unwrap();
        // §V-C: "the shortest path between those two nodes is 5".
        assert_eq!(o.path_len(acute, chest), 5);
        // §V-C: "the shortest path ... is only 2".
        assert_eq!(o.path_len(trach, acute), 2);
    }

    #[test]
    fn paper_conclusion_patient1_closer_to_patient3() {
        let o = clinical_fragment();
        let acute = o.by_label(labels::ACUTE_BRONCHITIS).unwrap();
        let chest = o.by_label(labels::CHEST_PAIN).unwrap();
        let trach = o.by_label(labels::TRACHEOBRONCHITIS).unwrap();
        let s = crate::similarity::PathScoring::InversePath;
        assert!(s.score(&o, acute, trach) > s.score(&o, acute, chest));
    }

    #[test]
    fn all_table1_concepts_present() {
        let o = clinical_fragment();
        for label in [
            labels::ACUTE_BRONCHITIS,
            labels::CHEST_PAIN,
            labels::TRACHEOBRONCHITIS,
            labels::BROKEN_ARM,
        ] {
            assert!(o.by_label(label).is_some(), "missing {label}");
        }
    }

    #[test]
    fn fragment_shape() {
        let o = clinical_fragment();
        assert!(o.len() > 50, "fragment should be a non-trivial tree");
        assert_eq!(o.max_depth(), 4);
        assert_eq!(o.concept(o.root()).label, "SNOMED CT Concept");
        // Every leaf reachable from root; depths consistent.
        for c in o.iter() {
            if let Some(p) = o.parent(c.id) {
                assert_eq!(o.depth(c.id), o.depth(p) + 1);
            }
        }
    }

    #[test]
    fn codes_are_unique_and_resolvable() {
        let o = clinical_fragment();
        for c in o.iter() {
            assert_eq!(o.by_code(&c.code), Some(c.id), "code {:?}", c.code);
        }
    }
}
