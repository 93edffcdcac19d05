//! Plain TSV persistence for ratings and profiles.
//!
//! Formats (header comments allowed anywhere, `#`-prefixed):
//!
//! * ratings — `user \t item \t rating`
//! * profiles — `user \t gender \t age|- \t problem codes (,) \t
//!   medications (|) \t procedures (|)`
//!
//! Problems are stored as ontology *codes* (stable external identifiers),
//! so profile files remain valid across ontology rebuilds that preserve
//! codes.

use fairrec_ontology::Ontology;
use fairrec_phr::{Gender, PatientProfile, PhrStore};
use fairrec_types::{FairrecError, ItemId, RatingMatrix, RatingMatrixBuilder, Result, UserId};
use std::io::{BufRead, Write};

/// Writes the rating triples of `matrix`.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_ratings<W: Write>(matrix: &RatingMatrix, out: &mut W) -> Result<()> {
    writeln!(out, "# fairrec ratings v1: user\titem\trating")?;
    for t in matrix.to_triples() {
        writeln!(
            out,
            "{}\t{}\t{}",
            t.user.raw(),
            t.item.raw(),
            t.rating.value()
        )?;
    }
    Ok(())
}

/// Reads a ratings TSV into a matrix. `reserve` pads the id spaces so
/// rating-less entities survive a round-trip.
///
/// # Errors
/// [`FairrecError::Parse`] on malformed lines; [`FairrecError::InvalidRating`]
/// and duplicate-pair errors surface from the matrix builder.
pub fn read_ratings<R: BufRead>(input: R, reserve: Option<(u32, u32)>) -> Result<RatingMatrix> {
    let mut builder = RatingMatrixBuilder::new();
    if let Some((users, items)) = reserve {
        builder = builder.reserve_ids(users, items);
    }
    for (lineno, line) in input.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split('\t');
        let (u, i, r) = match (fields.next(), fields.next(), fields.next()) {
            (Some(u), Some(i), Some(r)) => (u, i, r),
            _ => {
                return Err(FairrecError::parse_at(
                    lineno,
                    format!("expected user\\titem\\trating, got {line:?}"),
                ))
            }
        };
        let user: u32 = u
            .parse()
            .map_err(|_| FairrecError::parse_at(lineno, format!("bad user id {u:?}")))?;
        let item: u32 = i
            .parse()
            .map_err(|_| FairrecError::parse_at(lineno, format!("bad item id {i:?}")))?;
        let rating: f64 = r
            .parse()
            .map_err(|_| FairrecError::parse_at(lineno, format!("bad rating {r:?}")))?;
        builder.add_raw(UserId::new(user), ItemId::new(item), rating)?;
    }
    builder.build()
}

/// Writes profiles; problems as ontology codes.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_profiles<W: Write>(store: &PhrStore, ontology: &Ontology, out: &mut W) -> Result<()> {
    writeln!(
        out,
        "# fairrec profiles v1: user\tgender\tage\tproblems\tmedications\tprocedures"
    )?;
    for p in store.iter() {
        let problems: Vec<&str> = p
            .problems
            .iter()
            .map(|&c| ontology.concept(c).code.as_str())
            .collect();
        let age = p.age.map_or_else(|| "-".to_string(), |a| a.to_string());
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            p.user.raw(),
            p.gender.as_token(),
            age,
            problems.join(","),
            p.medications.join("|"),
            p.procedures.join("|"),
        )?;
    }
    Ok(())
}

/// Reads profiles written by [`write_profiles`].
///
/// # Errors
/// [`FairrecError::Parse`] on malformed lines or unknown problem codes;
/// [`FairrecError::InvalidParameter`] for the reserved user id
/// `4294967295` (`u32::MAX`), exactly as [`read_ratings`] rejects it.
pub fn read_profiles<R: BufRead>(input: R, ontology: &Ontology) -> Result<PhrStore> {
    let mut store = PhrStore::new();
    for (lineno, line) in input.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line?;
        let line = line.trim_end_matches(['\n', '\r']);
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 6 {
            return Err(FairrecError::parse_at(
                lineno,
                format!("expected 6 fields, got {}", fields.len()),
            ));
        }
        let user: u32 = fields[0]
            .parse()
            .map_err(|_| FairrecError::parse_at(lineno, format!("bad user id {:?}", fields[0])))?;
        if user == u32::MAX {
            // The store is dense by user id: the sentinel has no `id + 1`
            // to size it with (and would ask for a 2³²-entry vector).
            return Err(FairrecError::invalid_parameter(
                "user",
                "id u32::MAX would overflow the user id space",
            ));
        }
        let gender = match fields[1] {
            "female" => Gender::Female,
            "male" => Gender::Male,
            "other" => Gender::Other,
            "unknown" => Gender::Unknown,
            g => {
                return Err(FairrecError::parse_at(lineno, format!("bad gender {g:?}")));
            }
        };
        let mut builder = PatientProfile::builder(UserId::new(user)).gender(gender);
        if fields[2] != "-" {
            let age: u8 = fields[2]
                .parse()
                .map_err(|_| FairrecError::parse_at(lineno, format!("bad age {:?}", fields[2])))?;
            builder = builder.age(age);
        }
        for code in fields[3].split(',').filter(|c| !c.is_empty()) {
            let concept = ontology.by_code(code).ok_or_else(|| {
                FairrecError::parse_at(lineno, format!("unknown problem code {code:?}"))
            })?;
            builder = builder.problem(concept);
        }
        for med in fields[4].split('|').filter(|m| !m.is_empty()) {
            builder = builder.medication(med);
        }
        for proc_ in fields[5].split('|').filter(|p| !p.is_empty()) {
            builder = builder.procedure(proc_);
        }
        store.upsert(builder.build());
    }
    Ok(store)
}

/// Writes a generated document corpus:
/// `item \t topic \t title \t body` (title/body must not contain tabs,
/// which the generator guarantees).
///
/// # Errors
/// Propagates I/O failures.
pub fn write_documents<W: Write>(
    docs: &[crate::documents::HealthDocument],
    out: &mut W,
) -> Result<()> {
    writeln!(out, "# fairrec documents v1: item\ttopic\ttitle\tbody")?;
    for d in docs {
        debug_assert!(!d.title.contains('\t') && !d.body.contains('\t'));
        writeln!(
            out,
            "{}\t{}\t{}\t{}",
            d.item.raw(),
            d.topic,
            d.title,
            d.body
        )?;
    }
    Ok(())
}

/// Reads documents written by [`write_documents`].
///
/// # Errors
/// [`FairrecError::Parse`] on malformed lines.
pub fn read_documents<R: BufRead>(input: R) -> Result<Vec<crate::documents::HealthDocument>> {
    let mut docs = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line?;
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.splitn(4, '\t').collect();
        if fields.len() != 4 {
            return Err(FairrecError::parse_at(
                lineno,
                format!("expected 4 fields, got {}", fields.len()),
            ));
        }
        let item: u32 = fields[0]
            .parse()
            .map_err(|_| FairrecError::parse_at(lineno, format!("bad item id {:?}", fields[0])))?;
        let topic: u32 = fields[1]
            .parse()
            .map_err(|_| FairrecError::parse_at(lineno, format!("bad topic {:?}", fields[1])))?;
        docs.push(crate::documents::HealthDocument {
            item: ItemId::new(item),
            topic,
            title: fields[2].to_string(),
            body: fields[3].to_string(),
        });
    }
    Ok(docs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{SyntheticConfig, SyntheticDataset};
    use fairrec_ontology::snomed::clinical_fragment;
    use std::io::BufReader;

    #[test]
    fn ratings_round_trip() {
        let ont = clinical_fragment();
        let d = SyntheticDataset::generate(
            SyntheticConfig {
                num_users: 30,
                num_items: 50,
                ratings_per_user: 10,
                ..Default::default()
            },
            &ont,
        )
        .unwrap();
        let mut buf = Vec::new();
        write_ratings(&d.matrix, &mut buf).unwrap();
        let back = read_ratings(BufReader::new(buf.as_slice()), Some((30, 50))).unwrap();
        assert_eq!(d.matrix, back);
    }

    #[test]
    fn profiles_round_trip() {
        let ont = clinical_fragment();
        let d = SyntheticDataset::generate(
            SyntheticConfig {
                num_users: 25,
                num_items: 40,
                ratings_per_user: 5,
                ..Default::default()
            },
            &ont,
        )
        .unwrap();
        let mut buf = Vec::new();
        write_profiles(&d.profiles, &ont, &mut buf).unwrap();
        let back = read_profiles(BufReader::new(buf.as_slice()), &ont).unwrap();
        assert_eq!(back.len(), d.profiles.len());
        for p in d.profiles.iter() {
            let q = back.get(p.user).unwrap();
            assert_eq!(p, q, "profile {} mismatch", p.user);
        }
    }

    #[test]
    fn profile_without_age_or_lists_round_trips() {
        let ont = clinical_fragment();
        let mut store = PhrStore::new();
        store.upsert(PatientProfile::builder(UserId::new(3)).build());
        let mut buf = Vec::new();
        write_profiles(&store, &ont, &mut buf).unwrap();
        let back = read_profiles(BufReader::new(buf.as_slice()), &ont).unwrap();
        let p = back.get(UserId::new(3)).unwrap();
        assert_eq!(p.age, None);
        assert!(p.problems.is_empty());
        assert!(p.medications.is_empty());
    }

    #[test]
    fn malformed_ratings_rejected() {
        let cases = [
            ("1\t2\n", "expected user"),
            ("x\t2\t3\n", "bad user id"),
            ("1\ty\t3\n", "bad item id"),
            ("1\t2\tz\n", "bad rating"),
            // The sentinel id has no `id + 1` to size the id space with.
            ("4294967295\t0\t3\n", "invalid parameter `user`"),
            ("0\t4294967295\t3\n", "invalid parameter `item`"),
        ];
        for (text, needle) in cases {
            let err = read_ratings(BufReader::new(text.as_bytes()), None).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{text:?} → {err} (wanted {needle})"
            );
        }
        // Out-of-range rating surfaces the rating error.
        let err = read_ratings(BufReader::new("1\t2\t9.5\n".as_bytes()), None).unwrap_err();
        assert!(err.to_string().contains("invalid rating"));
    }

    #[test]
    fn documents_round_trip() {
        let docs = crate::documents::generate(crate::documents::CorpusConfig {
            num_documents: 20,
            ..Default::default()
        });
        let mut buf = Vec::new();
        write_documents(&docs, &mut buf).unwrap();
        let back = read_documents(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(docs, back);
    }

    #[test]
    fn malformed_documents_rejected() {
        for (text, needle) in [
            ("1\t2\ttitle\n", "expected 4 fields"),
            ("x\t2\ttitle\tbody\n", "bad item id"),
            ("1\tx\ttitle\tbody\n", "bad topic"),
        ] {
            let err = read_documents(BufReader::new(text.as_bytes())).unwrap_err();
            assert!(err.to_string().contains(needle), "{text:?} → {err}");
        }
    }

    #[test]
    fn malformed_profiles_rejected() {
        let ont = clinical_fragment();
        let cases = [
            ("1\tmale\t44\t\t\t\textra\n", "expected 6 fields"),
            ("1\tmale\t44\t\t\n", "expected 6 fields"),
            ("x\tmale\t44\t\t\t\n", "bad user id"),
            ("1\trobot\t44\t\t\t\n", "bad gender"),
            ("1\tmale\txx\t\t\t\n", "bad age"),
            ("1\tmale\t44\tBOGUS\t\t\n", "unknown problem code"),
            // The sentinel id has no `id + 1` to size the dense store with.
            ("4294967295\tfemale\t-\t\t\t\n", "invalid parameter `user`"),
        ];
        for (text, needle) in cases {
            let err = read_profiles(BufReader::new(text.as_bytes()), &ont).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{text:?} → {err} (wanted {needle})"
            );
        }
    }
}
