//! Output verification: every response is reduced to a summary and compared
//! with the summary of the oracle's output for the same input. Binary
//! outputs must match exactly; float heads match on their L1 norm and 64
//! strided samples at 1e-4 relative (float summation order is the engine's
//! business). Summaries for the default seed are committed under `golden/`
//! so a default run skips the oracle; any other seed computes them live.

use std::fmt::Write as _;
use std::path::PathBuf;

use phonebit::core::ActivationData;

use crate::json::Json;
use crate::oracle::{Fmap, Values};

pub const GOLDEN_SEED: u64 = 2020;
const FLOAT_SAMPLES: usize = 64;
const REL_TOL: f64 = 1e-4;

#[derive(Debug, Clone, PartialEq)]
pub enum Summary {
    Bits {
        len: usize,
        ones: usize,
        /// FNV-1a over the bits in `(h, w, c)` order.
        hash: u64,
    },
    Floats {
        len: usize,
        l1: f64,
        samples: Vec<f32>,
    },
}

fn of_bits(bits: impl Iterator<Item = bool>) -> Summary {
    let (mut len, mut ones, mut hash) = (0, 0, 0xcbf2_9ce4_8422_2325_u64);
    for b in bits {
        len += 1;
        ones += usize::from(b);
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    Summary::Bits { len, ones, hash }
}

fn of_floats(v: &[f32]) -> Summary {
    let n = FLOAT_SAMPLES.min(v.len());
    Summary::Floats {
        len: v.len(),
        l1: v.iter().map(|x| x.abs() as f64).sum(),
        samples: (0..n).map(|i| v[i * v.len() / n]).collect(),
    }
}

impl Summary {
    pub fn of_oracle(out: &Fmap) -> Self {
        match &out.data {
            Values::Signs(s) => of_bits(s.iter().map(|&v| v > 0)),
            Values::Floats(f) => of_floats(f),
            Values::Bytes(_) => panic!("networks do not output raw bytes"),
        }
    }

    /// Summary of a batch-1 engine output.
    pub fn of_engine(out: &ActivationData) -> Self {
        let s = out.shape();
        assert_eq!(s.n, 1, "summaries are per image");
        let coords = (0..s.h)
            .flat_map(move |h| (0..s.w).flat_map(move |w| (0..s.c).map(move |c| (h, w, c))));
        match out {
            ActivationData::Bits(t) => of_bits(coords.map(|(h, w, c)| t.get_bit(0, h, w, c))),
            ActivationData::Floats(t) => {
                of_floats(&coords.map(|(h, w, c)| t.at(0, h, w, c)).collect::<Vec<_>>())
            }
            ActivationData::Bytes(_) => panic!("networks do not output raw bytes"),
        }
    }

    /// Whether `got` is the output this summary expects.
    pub fn accepts(&self, got: &Summary) -> bool {
        match (self, got) {
            (Summary::Bits { .. }, Summary::Bits { .. }) => self == got,
            (
                Summary::Floats { len, l1, samples },
                Summary::Floats {
                    len: glen,
                    l1: gl1,
                    samples: gs,
                },
            ) => {
                let floor = l1 / (*len).max(1) as f64;
                len == glen
                    && (l1 - gl1).abs() <= REL_TOL * l1
                    && samples.iter().zip(gs).all(|(&e, &g)| {
                        ((e - g).abs() as f64) <= REL_TOL * (e.abs() as f64 + floor)
                    })
            }
            _ => false,
        }
    }

    fn to_json(&self) -> String {
        match self {
            Summary::Bits { len, ones, hash } => {
                format!("{{\"bits\":{len},\"ones\":{ones},\"hash\":\"{hash:016x}\"}}")
            }
            Summary::Floats { len, l1, samples } => {
                let s: Vec<String> = samples.iter().map(|v| format!("{v:?}")).collect();
                format!(
                    "{{\"floats\":{len},\"l1\":{l1:?},\"samples\":[{}]}}",
                    s.join(",")
                )
            }
        }
    }

    fn from_json(v: &Json) -> Option<Self> {
        let num = |k: &str| v.get(k).and_then(Json::as_f64);
        if let Some(len) = num("bits") {
            return Some(Summary::Bits {
                len: len as usize,
                ones: num("ones")? as usize,
                hash: u64::from_str_radix(v.get("hash")?.as_str()?, 16).ok()?,
            });
        }
        Some(Summary::Floats {
            len: num("floats")? as usize,
            l1: num("l1")?,
            samples: v
                .get("samples")?
                .as_arr()
                .iter()
                .map(|s| s.as_f64().map(|x| x as f32))
                .collect::<Option<_>>()?,
        })
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("golden/seed{GOLDEN_SEED}.json"))
}

/// The committed expected summaries of one workload, if `seed` is the
/// golden seed and the file holds them.
pub fn load_golden(workload: &str, seed: u64) -> Option<Vec<Summary>> {
    if seed != GOLDEN_SEED {
        return None;
    }
    let doc = Json::parse(&std::fs::read_to_string(golden_path()).ok()?).ok()?;
    doc.get(workload)?
        .as_arr()
        .iter()
        .map(Summary::from_json)
        .collect()
}

/// Writes the golden file from `(workload, expected summaries)` pairs.
pub fn write_golden(entries: &[(&str, Vec<Summary>)]) -> std::io::Result<()> {
    let mut out = format!("{{\"seed\":{GOLDEN_SEED}");
    for (name, summaries) in entries {
        let rows: Vec<String> = summaries.iter().map(Summary::to_json).collect();
        let _ = write!(out, ",\n\"{name}\":[\n{}\n]", rows.join(",\n"));
    }
    out.push_str("\n}\n");
    let path = golden_path();
    std::fs::create_dir_all(path.parent().expect("golden/ has a parent"))?;
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries_round_trip_through_json() {
        for s in [
            of_bits([true, false, true, true].into_iter()),
            of_floats(&(0..200).map(|i| (i as f32).sin() * 3.7).collect::<Vec<_>>()),
        ] {
            let back = Summary::from_json(&Json::parse(&s.to_json()).expect("valid json"));
            assert_eq!(back.as_ref(), Some(&s));
        }
    }

    #[test]
    fn float_summaries_tolerate_rounding_but_not_errors() {
        let v: Vec<f32> = (0..500).map(|i| (i as f32 * 0.37).cos()).collect();
        let want = of_floats(&v);
        let jitter: Vec<f32> = v.iter().map(|x| x * (1.0 + 2e-6)).collect();
        assert!(want.accepts(&of_floats(&jitter)));
        let mut wrong = v.clone();
        wrong[0] += 0.01;
        assert!(!want.accepts(&of_floats(&wrong)));
        let a = of_bits([true, false].into_iter());
        assert!(!a.accepts(&of_bits([false, true].into_iter())));
    }
}
