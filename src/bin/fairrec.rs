//! `fairrec` — command-line front end for the fairness-aware group
//! recommender.
//!
//! ```text
//! fairrec generate  --out DIR [--users N] [--items N] [--communities N]
//!                   [--ratings N] [--seed S]
//! fairrec stats     --data DIR
//! fairrec recommend --data DIR --group 1,2,3 [--z N] [--k N] [--delta D]
//!                   [--similarity ratings|profile|semantic|hybrid]
//!                   [--algorithm greedy|swaps|exact|plain]
//!                   [--aggregation avg|min] [--mapreduce WORKERS]
//! fairrec search    --data DIR --query "TERMS" [--mode any|all] [--limit N]
//! ```
//!
//! `generate` writes `ontology.tsv`, `ratings.tsv`, `profiles.tsv`, and
//! `documents.tsv` into DIR; the other commands read them back.

use fairrec::data::{documents, tsv, SyntheticConfig, SyntheticDataset};
use fairrec::mapreduce::{mapreduce_group_predictions, JobConfig, PipelineConfig};
use fairrec::ontology::codec;
use fairrec::prelude::*;
use fairrec::search::{CurationStatus, DocumentStore, QueryMode, SearchIndex, StoredDocument};
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "generate" => cmd_generate(rest),
        "stats" => cmd_stats(rest),
        "recommend" => cmd_recommend(rest),
        "search" => cmd_search(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  fairrec generate  --out DIR [--users N] [--items N] [--communities N] [--ratings N] [--seed S]
  fairrec stats     --data DIR
  fairrec recommend --data DIR --group 1,2,3 [--z N] [--k N] [--delta D]
                    [--similarity ratings|profile|semantic|hybrid]
                    [--algorithm greedy|swaps|exact|plain] [--aggregation avg|min]
                    [--mapreduce WORKERS]
  fairrec search    --data DIR --query \"TERMS\" [--mode any|all] [--limit N]";

type CliError = Box<dyn std::error::Error>;

/// `--key value` argument bag with typed accessors.
struct Flags(HashMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected --flag, got {key:?}").into());
            };
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Self(map))
    }

    fn required(&self, name: &str) -> Result<&str, CliError> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{name}").into())
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError>
    where
        T::Err: std::fmt::Display,
    {
        match self.0.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|e| format!("bad value for --{name}: {e}").into()),
        }
    }
}

fn data_paths(dir: &str) -> (PathBuf, PathBuf, PathBuf, PathBuf) {
    let dir = Path::new(dir);
    (
        dir.join("ontology.tsv"),
        dir.join("ratings.tsv"),
        dir.join("profiles.tsv"),
        dir.join("documents.tsv"),
    )
}

fn cmd_generate(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(args)?;
    let out = flags.required("out")?.to_string();
    let config = SyntheticConfig {
        num_users: flags.get("users", 200u32)?,
        num_items: flags.get("items", 400u32)?,
        num_communities: flags.get("communities", 4u32)?,
        ratings_per_user: flags.get("ratings", 30u32)?,
        seed: flags.get("seed", 42u64)?,
        ..Default::default()
    };
    let ontology = fairrec::ontology::snomed::clinical_fragment();
    let data = SyntheticDataset::generate(config, &ontology)?;
    let docs = documents::generate_with_topics(
        documents::CorpusConfig {
            num_documents: config.num_items,
            num_topics: config.num_communities,
            seed: config.seed,
            ..Default::default()
        },
        &(0..config.num_items)
            .map(|i| data.communities.item_community(ItemId::new(i)))
            .collect::<Vec<_>>(),
    );

    std::fs::create_dir_all(&out)?;
    let (ont_p, rat_p, prof_p, doc_p) = data_paths(&out);
    codec::write_ontology(&ontology, &mut BufWriter::new(File::create(&ont_p)?))?;
    tsv::write_ratings(&data.matrix, &mut BufWriter::new(File::create(&rat_p)?))?;
    tsv::write_profiles(
        &data.profiles,
        &ontology,
        &mut BufWriter::new(File::create(&prof_p)?),
    )?;
    tsv::write_documents(&docs, &mut BufWriter::new(File::create(&doc_p)?))?;
    println!(
        "wrote {} users / {} items / {} ratings / {} documents to {out}/",
        config.num_users,
        config.num_items,
        data.matrix.num_ratings(),
        docs.len()
    );
    Ok(())
}

struct LoadedData {
    ontology: Ontology,
    matrix: RatingMatrix,
    profiles: PhrStore,
}

fn load_data(dir: &str) -> Result<LoadedData, CliError> {
    let (ont_p, rat_p, prof_p, _) = data_paths(dir);
    let ontology = codec::read_ontology(BufReader::new(File::open(&ont_p)?))?;
    let matrix = tsv::read_ratings(BufReader::new(File::open(&rat_p)?), None)?;
    let profiles = tsv::read_profiles(BufReader::new(File::open(&prof_p)?), &ontology)?;
    Ok(LoadedData {
        ontology,
        matrix,
        profiles,
    })
}

fn cmd_stats(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(args)?;
    let data = load_data(flags.required("data")?)?;
    let s = data.matrix.stats();
    println!(
        "ontology : {} concepts, max depth {}",
        data.ontology.len(),
        data.ontology.max_depth()
    );
    println!(
        "users    : {} ({} with ratings, {} with profiles)",
        s.num_users,
        s.users_with_ratings,
        data.profiles.len()
    );
    println!(
        "items    : {} ({} with ratings)",
        s.num_items, s.items_with_ratings
    );
    println!(
        "ratings  : {} (density {:.2}%, mean {:.2})",
        s.num_ratings,
        s.density * 100.0,
        s.mean_rating
    );
    Ok(())
}

fn cmd_recommend(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(args)?;
    let data = load_data(flags.required("data")?)?;
    let members: Vec<UserId> = flags
        .required("group")?
        .split(',')
        .map(|raw| raw.trim().parse::<u32>().map(UserId::new))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("bad --group: {e}"))?;
    let z: usize = flags.get("z", 8usize)?;

    let similarity = match flags.get("similarity", "ratings".to_string())?.as_str() {
        "ratings" => SimilarityKind::Ratings,
        "profile" => SimilarityKind::Profile,
        "semantic" => SimilarityKind::Semantic,
        "hybrid" => SimilarityKind::Hybrid {
            ratings: 1.0,
            profile: 1.0,
            semantic: 1.0,
        },
        other => return Err(format!("unknown similarity {other:?}").into()),
    };
    let algorithm = match flags.get("algorithm", "greedy".to_string())?.as_str() {
        "greedy" => SelectionAlgorithm::Greedy,
        "swaps" => SelectionAlgorithm::GreedyWithSwaps { max_passes: 10 },
        "exact" => SelectionAlgorithm::Exact,
        "plain" => SelectionAlgorithm::PlainTopZ,
        other => return Err(format!("unknown algorithm {other:?}").into()),
    };
    let aggregation = match flags.get("aggregation", "avg".to_string())?.as_str() {
        "avg" => Aggregation::Average,
        "min" => Aggregation::Min,
        other => return Err(format!("unknown aggregation {other:?}").into()),
    };
    let mapreduce_workers: Option<usize> = flags
        .0
        .get("mapreduce")
        .map(|raw| raw.parse())
        .transpose()
        .map_err(|e| format!("bad --mapreduce: {e}"))?;
    if mapreduce_workers.is_some() && !matches!(similarity, SimilarityKind::Ratings) {
        let msg = "--mapreduce computes ratings similarity only; use --similarity ratings";
        return Err(msg.into());
    }

    let engine = RecommenderEngine::new(
        data.matrix,
        data.profiles,
        data.ontology,
        EngineConfig {
            similarity,
            algorithm,
            aggregation,
            delta: flags.get("delta", 0.0f64)?,
            k: flags.get("k", 10usize)?,
            ..Default::default()
        },
    )?;
    let group = Group::new(GroupId::new(0), members)?;
    let rec = match mapreduce_workers {
        // The paper's §IV Job 0→1→2→3 chain computes the predictions;
        // the engine selects from them exactly as it does in memory.
        Some(workers) => {
            let config = engine.config();
            let (predictions, _report) = mapreduce_group_predictions(
                engine.ratings().to_triples(),
                engine.ratings().num_items(),
                &group,
                &PipelineConfig {
                    delta: config.delta,
                    min_overlap: config.min_overlap,
                    max_peers: config.max_peers,
                    aggregation: config.aggregation,
                    missing: config.missing,
                    job: JobConfig::with_workers(workers),
                },
            )?;
            engine.recommend_from_predictions(&group, &predictions, z)?
        }
        None => engine.recommend_for_group(&group, z)?,
    };

    println!(
        "package for {:?} (fairness {:.2}, value {:.2}, pool m = {}):",
        group.members(),
        rec.fairness,
        rec.value,
        rec.pool_size
    );
    for item in &rec.items {
        println!(
            "  {:<6} groupRel {:.2}{}",
            item.item.to_string(),
            item.group_relevance,
            if item.padded { "  (padded)" } else { "" }
        );
    }
    for m in &rec.members {
        println!(
            "  {}: {}",
            m.user,
            if m.satisfied {
                "satisfied"
            } else {
                "NOT satisfied"
            }
        );
    }
    Ok(())
}

fn cmd_search(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(args)?;
    let (_, _, _, doc_p) = data_paths(flags.required("data")?);
    let docs = tsv::read_documents(BufReader::new(File::open(&doc_p)?))?;
    let store: DocumentStore = docs
        .into_iter()
        .map(|d| StoredDocument {
            item: d.item,
            title: d.title,
            body: d.body,
            status: CurationStatus::Approved,
        })
        .collect();
    let index = SearchIndex::build(&store);
    let mode = match flags.get("mode", "any".to_string())?.as_str() {
        "any" => QueryMode::Any,
        "all" => QueryMode::All,
        other => return Err(format!("unknown mode {other:?}").into()),
    };
    let limit: usize = flags.get("limit", 10usize)?;
    let query = flags.required("query")?;
    let hits = index.search(query, mode, limit);
    if hits.is_empty() {
        println!("no results for {query:?}");
        return Ok(());
    }
    for hit in hits {
        let doc = store.get(hit.item).expect("hit comes from the index");
        println!(
            "{:>7.3}  {:<6} {}",
            hit.score,
            doc.item.to_string(),
            doc.title
        );
    }
    Ok(())
}
