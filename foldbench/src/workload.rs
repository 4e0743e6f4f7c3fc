//! The three fold workloads and their seeded inputs.

use lightnobel::hook::AaqHook;
use ln_datasets::{Dataset, Registry};
use ln_protein::generator::StructureGenerator;
use ln_protein::{Sequence, Structure};

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["fold_fp32_l192", "fold_aaq_cameo", "fold_qdomain_l128"];

/// Which precision path the folds take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `NoopHook`: the FP32 baseline on the fused GEMM path.
    Fp32,
    /// `AaqHook::paper()`: AAQ fake-quantization at every tap.
    Aaq,
    /// `AaqHook::paper().with_quantized_domain()`: encode once, integer
    /// `qgemm` inside the units.
    QuantizedDomain,
}

/// One workload: a precision path and the sequence lengths of one pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Name from [`NAMES`].
    pub name: &'static str,
    /// Precision path.
    pub mode: Mode,
    /// Lengths folded in one pass, in order.
    pub lengths: Vec<usize>,
}

/// One fold input.
#[derive(Debug, Clone)]
pub struct Input {
    /// Residues.
    pub sequence: Sequence,
    /// Native structure (the embedding's structural prior).
    pub native: Structure,
}

impl Workload {
    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        let (name, mode, lengths) = match name {
            "fold_fp32_l192" => (NAMES[0], Mode::Fp32, vec![192]),
            "fold_aaq_cameo" => (NAMES[1], Mode::Aaq, shortest_cameo_lengths(3)),
            "fold_qdomain_l128" => (NAMES[2], Mode::QuantizedDomain, vec![128]),
            _ => return None,
        };
        Some(Workload {
            name,
            mode,
            lengths,
        })
    }

    /// The inputs of one pass: the same `seed` gives the same inputs.
    pub fn inputs(&self, seed: u64) -> Vec<Input> {
        self.lengths
            .iter()
            .map(|&len| {
                let label = format!("foldbench/seed{seed}/L{len}");
                Input {
                    sequence: Sequence::random(&label, len),
                    native: StructureGenerator::new(&label).generate(len),
                }
            })
            .collect()
    }

    /// The quantizer hook of one fold, `None` on the FP32 path.
    pub fn quantizer(&self) -> Option<AaqHook> {
        match self.mode {
            Mode::Fp32 => None,
            Mode::Aaq => Some(AaqHook::paper()),
            Mode::QuantizedDomain => Some(AaqHook::paper().with_quantized_domain()),
        }
    }
}

/// The `n` shortest CAMEO record lengths, ascending.
fn shortest_cameo_lengths(n: usize) -> Vec<usize> {
    let registry = Registry::standard();
    let mut lengths: Vec<usize> = registry
        .dataset(Dataset::Cameo)
        .records()
        .iter()
        .map(|r| r.length())
        .collect();
    lengths.sort_unstable();
    lengths.truncate(n);
    lengths
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_parse_with_their_lengths() {
        let lengths: Vec<Vec<usize>> = NAMES
            .iter()
            .map(|n| Workload::parse(n).unwrap().lengths)
            .collect();
        assert_eq!(lengths, vec![vec![192], vec![64, 96, 128], vec![128]]);
        assert!(Workload::parse("fold_int4").is_none());
    }

    #[test]
    fn inputs_follow_the_seed() {
        let w = Workload::parse("fold_qdomain_l128").unwrap();
        let seqs = |seed| w.inputs(seed)[0].sequence.to_string();
        assert_eq!(seqs(1), seqs(1));
        assert_ne!(seqs(1), seqs(2));
    }
}
