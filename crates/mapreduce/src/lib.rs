//! In-process MapReduce engine and the paper's recommendation jobs (§IV).
//!
//! The paper implements its recommender as three MapReduce jobs (Fig. 2):
//!
//! 1. **Job 1** — group the rating triples by item; items unrated by the
//!    group become candidate recommendations, items rated by a member
//!    produce *partial similarity scores* for (member, non-member) pairs;
//! 2. **Job 2** — sum the partials into `simU(u_G, u)` and keep pairs
//!    above the threshold δ;
//! 3. **Job 3** — compute per-member relevance (Equation 1) and the
//!    aggregated group relevance (Definition 2) for every candidate.
//!
//! The original runs on Hadoop; the substrate here is an in-process,
//! multi-threaded engine with the same semantics — `map → hash partition →
//! sort by key → reduce` — so the decomposition itself is exercised
//! faithfully. That is a substitution: no Hadoop cluster, HDFS or job
//! tracker, and no transport between workers; only the job structure
//! and its key order are the paper's. The engine is
//! deterministic: identical inputs produce identical outputs regardless of
//! worker count or thread scheduling. It has no retry layer: a task is a
//! pure function of its input, so a panicking mapper or reducer would
//! panic again, and the panic propagates out of [`run_job`].
//!
//! Because the paper's Pearson similarity needs per-user rating means
//! before any pair can be scored, the pipeline adds a **Job 0** (user
//! means) ahead of Job 1 — on Hadoop this is the usual side-channel
//! ("distributed cache") preparation step that Fig. 2 leaves implicit.
//!
//! [`topk`] implements the MapReduce top-k selection the paper cites as
//! ref. \[5\] for when final results do not fit in memory.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod engine;
pub mod jobs;
pub mod pipeline;
pub mod topk;

pub use engine::{run_job, JobConfig, JobMetrics, JobResult, Mapper, Reducer};
pub use pipeline::{mapreduce_group_predictions, MapReducePipelineReport, PipelineConfig};
