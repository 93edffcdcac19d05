//! Persistence integration: a dataset written to disk and reloaded drives
//! the engine to identical recommendations, and the TSV readers meet
//! arbitrary input with a typed error, never a panic.

use fairrec::data::tsv;
use fairrec::ontology::codec;
use fairrec::prelude::*;
use proptest::prelude::*;
use std::io::BufReader;

#[test]
fn full_dataset_survives_disk_round_trip() {
    let ontology = fairrec::ontology::snomed::clinical_fragment();
    let data = SyntheticDataset::generate(
        SyntheticConfig {
            num_users: 50,
            num_items: 90,
            ratings_per_user: 15,
            seed: 77,
            ..Default::default()
        },
        &ontology,
    )
    .unwrap();

    // Serialise everything to in-memory "files".
    let mut ontology_file = Vec::new();
    codec::write_ontology(&ontology, &mut ontology_file).unwrap();
    let mut ratings_file = Vec::new();
    tsv::write_ratings(&data.matrix, &mut ratings_file).unwrap();
    let mut profiles_file = Vec::new();
    tsv::write_profiles(&data.profiles, &ontology, &mut profiles_file).unwrap();

    // Reload.
    let ontology2 = codec::read_ontology(BufReader::new(ontology_file.as_slice())).unwrap();
    let matrix2 = tsv::read_ratings(
        BufReader::new(ratings_file.as_slice()),
        Some((data.matrix.num_users(), data.matrix.num_items())),
    )
    .unwrap();
    let profiles2 =
        tsv::read_profiles(BufReader::new(profiles_file.as_slice()), &ontology2).unwrap();

    assert_eq!(data.matrix, matrix2);
    assert_eq!(data.profiles.len(), profiles2.len());

    // Same recommendations from both copies, under a profile-driven
    // similarity so the reloaded ontology and profiles are exercised too.
    let config = EngineConfig {
        similarity: SimilarityKind::Hybrid {
            ratings: 1.0,
            profile: 1.0,
            semantic: 1.0,
        },
        ..Default::default()
    };
    let group_members = data.sample_group(3, None, 1);

    let engine1 =
        RecommenderEngine::new(data.matrix.clone(), data.profiles.clone(), ontology, config)
            .unwrap();
    let engine2 = RecommenderEngine::new(matrix2, profiles2, ontology2, config).unwrap();

    let group = Group::new(GroupId::new(0), group_members).unwrap();
    let rec1 = engine1.recommend_for_group(&group, 6).unwrap();
    let rec2 = engine2.recommend_for_group(&group, 6).unwrap();
    assert_eq!(rec1, rec2);
}

#[test]
fn files_are_human_readable() {
    let ontology = fairrec::ontology::snomed::clinical_fragment();
    let mut buf = Vec::new();
    codec::write_ontology(&ontology, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.lines().next().unwrap().starts_with('#'));
    assert!(text.contains("Acute bronchitis"));
    assert!(text.contains("10509002"));
}

/// An ontology row, `id \t (-|parent) \t code \t label`. `@` is the
/// line's position (the id the contiguity rule expects when no line was
/// skipped), `%` one past it and `<` the previous line (`-` on the
/// first): ids meet or break the rule, `-` on a later line is a second
/// root, and a parent of `@` or `%` is not below its id.
const ONTOLOGY_LINE: &str = "(@|@|@|@|@|@|%|0|4294967295)\t(<|<|<|<|<|-|0|@|%|4294967295|x)\
                             \t(c@|c@|10509002|)\t(l@|l@\tx|Acute bronchitis)";

/// A file of up to six generated lines: either all ontology rows, or
/// each shaped like a ratings, profiles or documents row (so the
/// readers get past their field-count checks) or free-form: ids
/// below 10⁴ (`I`, `J`), the reserved sentinel `4294967295`, and tokens
/// valid in some column or in none.
fn file_strategy() -> impl Strategy<Value = String> {
    let line = (
        "(I|4294967295|x)\t(J|4294967295)\t(1|2.5|5|0|9.5|NaN)\
         |(I|4294967295|-1)\t(female|male|robot)\t(-|44|256)\t(|10509002|BOGUS|,)\t(|a|b|)\t(|c)\
         |(I|4294967295|x)\t(J|x)\t(|t)\t(|b\tc)\
         |(I|x|# c|)(\t(J|4294967295|-|female|3))*",
        0u32..10_000,
        0u32..10_000,
    )
        .prop_map(|(line, i, j)| {
            line.replace('I', &i.to_string())
                .replace('J', &j.to_string())
        });
    let mixed = proptest::collection::vec(line, 0..7);
    let ontology = proptest::collection::vec(ONTOLOGY_LINE, 0..7);
    (mixed, ontology, 0u8..2).prop_map(|(mixed, ontology, pick)| {
        let lines = if pick == 0 { mixed } else { ontology };
        lines
            .iter()
            .enumerate()
            .map(|(k, line)| {
                let previous = k.checked_sub(1).map_or("-".into(), |p| p.to_string());
                line.replace('@', &k.to_string())
                    .replace('%', &(k + 1).to_string())
                    .replace('<', &previous)
            })
            .collect::<Vec<_>>()
            .join("\n")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every reader answers arbitrary lines with `Ok` or a typed `Err`
    /// and never panics or aborts; the reserved id `4294967295` is an
    /// error wherever it names a user, and every ontology read
    /// re-encodes and decodes to equal concepts.
    #[test]
    fn tsv_readers_never_panic_on_generated_input(text in file_strategy()) {
        let ontology = fairrec::ontology::snomed::clinical_fragment();
        let ratings = tsv::read_ratings(BufReader::new(text.as_bytes()), None);
        let padded = tsv::read_ratings(BufReader::new(text.as_bytes()), Some((7, 11)));
        prop_assert_eq!(ratings.is_ok(), padded.is_ok());
        let profiles = tsv::read_profiles(BufReader::new(text.as_bytes()), &ontology);
        let documents = tsv::read_documents(BufReader::new(text.as_bytes()));
        if let Ok(matrix) = ratings {
            prop_assert!(matrix.num_users() <= 10_000 && matrix.num_items() <= 10_000);
        }
        if let Ok(store) = profiles {
            prop_assert!(store.iter().all(|p| p.user.raw() < 10_000));
        }
        if let Ok(docs) = documents {
            prop_assert!(docs.len() <= 6);
        }
        if let Ok(read) = codec::read_ontology(BufReader::new(text.as_bytes())) {
            let mut encoded = Vec::new();
            prop_assert!(codec::write_ontology(&read, &mut encoded).is_ok());
            let decoded = codec::read_ontology(BufReader::new(encoded.as_slice()));
            prop_assert!(decoded.is_ok(), "{:?}", decoded.err());
            let decoded = decoded.unwrap();
            prop_assert_eq!(read.len(), decoded.len());
            for (a, b) in read.iter().zip(decoded.iter()) {
                prop_assert_eq!(a, b);
                prop_assert_eq!(read.parent(a.id), decoded.parent(b.id));
            }
        }
    }
}
