//! Input generation. Every input is a pure function of the seeds on
//! the command line; the programs under test only ever see the files
//! and batches made here.

use std::path::{Path, PathBuf};

use caliper_format::Dataset;
use miniapps::paradis::{self, ParaDisParams};

use crate::util::{mix, run, Ledger};
use crate::Ctx;

/// The ParaDiS corpus in the three encodings the scan reads.
pub struct Corpus {
    pub text: Vec<PathBuf>,
    pub v1: Vec<PathBuf>,
    pub v2: Vec<PathBuf>,
    /// Snapshot records in the corpus (per encoding).
    pub records: u64,
    pub iterations: usize,
}

impl Corpus {
    pub fn files(&self, enc: Encoding) -> &[PathBuf] {
        match enc {
            Encoding::Text => &self.text,
            Encoding::V1 => &self.v1,
            Encoding::V2 => &self.v2,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    Text,
    V1,
    V2,
}

impl Encoding {
    pub const ALL: [Encoding; 3] = [Encoding::Text, Encoding::V1, Encoding::V2];

    pub fn name(self) -> &'static str {
        match self {
            Encoding::Text => "text",
            Encoding::V1 => "v1",
            Encoding::V2 => "v2",
        }
    }
}

/// Write a `ranks` × `iterations` ParaDiS corpus as text `.cali` files
/// under `dir`, then pack each file to CALB v1 and v2 with `cali-pack`
/// (two packers at a time).
pub fn make_corpus(
    ctx: &Ctx,
    dir: &Path,
    (ranks, iterations): (usize, usize),
    ledger: &mut Ledger,
) -> std::io::Result<Corpus> {
    let cali_pack = &ctx.bin("cali-pack");
    let params = ParaDisParams {
        iterations,
        seed: ctx.seeds.paradis,
    };
    let text = paradis::write_files(&params, ranks, &dir.join("text"))?;
    // Every rank has the same record count.
    let records = paradis::generate_rank(&params, 0).records.len() as u64 * ranks as u64;
    let v1 = pack_all(cali_pack, &text, &dir.join("v1"), true, ledger)?;
    let v2 = pack_all(cali_pack, &text, &dir.join("v2"), false, ledger)?;
    Ok(Corpus {
        text,
        v1,
        v2,
        records,
        iterations,
    })
}

fn pack_all(
    cali_pack: &Path,
    inputs: &[PathBuf],
    out_dir: &Path,
    v1: bool,
    ledger: &mut Ledger,
) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(out_dir)?;
    let outputs: Vec<PathBuf> = inputs
        .iter()
        .map(|p| out_dir.join(p.with_extension("calb").file_name().expect("file name")))
        .collect();
    let jobs: Vec<(&PathBuf, &PathBuf)> = inputs.iter().zip(&outputs).collect();
    let results: Vec<std::io::Result<bool>> = std::thread::scope(|s| {
        let halves: Vec<_> = jobs
            .chunks(jobs.len().div_ceil(2).max(1))
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|(input, output)| {
                            let mut args = vec!["-o".to_string(), output.display().to_string()];
                            if v1 {
                                args.push("--v1".to_string());
                            }
                            args.push(input.display().to_string());
                            run(cali_pack, &args, out_dir).map(|f| f.ok)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("packer thread"))
            .collect()
    });
    for (r, input) in results.into_iter().zip(inputs) {
        let ok = r?;
        ledger.op(ok, || format!("cali-pack failed on {}", input.display()));
    }
    Ok(outputs)
}

/// Self-contained `.cali` ingest batches of `batch_records` records,
/// cut from ParaDiS ranks. The cut seed shifts each rank's first cut,
/// so the batch boundaries (and the short leading batch) move with it.
pub fn cut_batches(
    ranks: usize,
    iterations: usize,
    paradis_seed: u64,
    cut_seed: u64,
    batch_records: usize,
) -> Vec<Batch> {
    let params = ParaDisParams {
        iterations,
        seed: paradis_seed,
    };
    let mut batches = Vec::new();
    for rank in 0..ranks {
        let ds = paradis::generate_rank(&params, rank);
        let phase = (mix(cut_seed, rank as u64) % batch_records as u64) as usize;
        let mut start = 0;
        let mut end = phase.max(1).min(ds.records.len());
        while start < ds.records.len() {
            batches.push(Batch::cut(&ds, start, end));
            start = end;
            end = (end + batch_records).min(ds.records.len());
        }
    }
    batches
}

/// One ingest batch: its `.cali` bytes and record count.
pub struct Batch {
    pub payload: Vec<u8>,
    pub records: u64,
}

impl Batch {
    fn cut(ds: &Dataset, start: usize, end: usize) -> Batch {
        let mut part = ds.clone();
        part.records = ds.records[start..end].to_vec();
        Batch {
            payload: caliper_format::cali::to_bytes(&part),
            records: (end - start) as u64,
        }
    }
}
