//! The traced fold: the same computation as
//! [`ln_ppm::FoldingModel::predict_with_hook`], composed from the public
//! layer functions so that each call can be wrapped in a span.
//!
//! The units are built with the model's `{label}/block{i}/{unit}` weight
//! labels, so the composition is bit-identical to the model's own forward
//! pass for the same input and hook. The run checks that on every traced
//! fold.

use crate::trace::Tracer;
use ln_ppm::blocks::{
    AttentionNode, PairTransition, SequenceTrack, TriangleDirection, TriangularAttention,
    TriangularMultiplication,
};
use ln_ppm::cost::Stage;
use ln_ppm::embed::Embedding;
use ln_ppm::structure_module::decode_structure;
use ln_ppm::taps::ActivationHook;
use ln_ppm::{PpmConfig, PpmError, PredictionOutput};
use ln_protein::{Sequence, Structure};
use ln_tensor::{Tensor2, Tensor3};

/// Weight label `FoldingModel::new` derives every block from.
pub const MODEL_LABEL: &str = "lightnobel/ppm";

/// Span name of a whole fold.
pub const FOLD_SPAN: &str = "fold";
/// Span name of the input embedding.
pub const EMBED_SPAN: &str = "ppm.embed";
/// Span name of the structure module.
pub const STRUCTURE_SPAN: &str = "ppm.structure_module";

/// The per-block units in dataflow order: span name and the cost-model
/// stages whose MACs and bytes the unit performs.
pub const UNITS: [(&str, &[Stage]); 6] = [
    (
        "ppm.seq_track",
        &[
            Stage::SeqAttention,
            Stage::SeqTransition,
            Stage::OuterProductMean,
        ],
    ),
    ("ppm.tri_mul_out", &[Stage::TriMulOutgoing]),
    ("ppm.tri_mul_in", &[Stage::TriMulIncoming]),
    ("ppm.tri_attn_start", &[Stage::TriAttnStarting]),
    ("ppm.tri_attn_end", &[Stage::TriAttnEnding]),
    ("ppm.pair_transition", &[Stage::PairTransition]),
];

/// Whether the unit named `name` belongs to the pair dataflow.
pub fn is_pair_unit(name: &str) -> bool {
    name != UNITS[0].0
}

enum Layer {
    Seq(SequenceTrack),
    TriMul(TriangularMultiplication),
    TriAttn(TriangularAttention),
    Transition(PairTransition),
}

struct Unit {
    name: &'static str,
    layer: Layer,
}

impl Unit {
    fn forward(
        &self,
        seq: &mut Tensor2,
        pair: &mut Tensor3,
        hook: &mut dyn ActivationHook,
        block: usize,
    ) -> Result<(), PpmError> {
        match &self.layer {
            Layer::Seq(u) => u.forward(seq, pair),
            Layer::TriMul(u) => u.forward(pair, hook, block, 0),
            Layer::TriAttn(u) => u.forward(pair, hook, block, 0),
            Layer::Transition(u) => u.forward(pair, hook, block, 0),
        }
    }
}

/// The folding model split into its traced units.
pub struct Trunk {
    embedding: Embedding,
    blocks: Vec<Vec<Unit>>,
}

impl Trunk {
    /// Builds the units of `FoldingModel::new(config)`.
    ///
    /// # Panics
    ///
    /// If `config.recycles != 1`: recycling re-normalises the pair state
    /// through a private model layer that this composition does not
    /// reproduce.
    pub fn new(config: &PpmConfig) -> Self {
        assert_eq!(config.recycles, 1, "the traced fold runs one recycle");
        let blocks = (0..config.blocks)
            .map(|i| {
                let tag = |unit: &str| format!("{MODEL_LABEL}/block{i}/{unit}");
                vec![
                    Unit {
                        name: UNITS[0].0,
                        layer: Layer::Seq(SequenceTrack::new(config, &tag("seq"))),
                    },
                    Unit {
                        name: UNITS[1].0,
                        layer: Layer::TriMul(TriangularMultiplication::new(
                            config,
                            &tag("tri_mul_out"),
                            TriangleDirection::Outgoing,
                        )),
                    },
                    Unit {
                        name: UNITS[2].0,
                        layer: Layer::TriMul(TriangularMultiplication::new(
                            config,
                            &tag("tri_mul_in"),
                            TriangleDirection::Incoming,
                        )),
                    },
                    Unit {
                        name: UNITS[3].0,
                        layer: Layer::TriAttn(TriangularAttention::new(
                            config,
                            &tag("tri_attn_start"),
                            AttentionNode::Starting,
                        )),
                    },
                    Unit {
                        name: UNITS[4].0,
                        layer: Layer::TriAttn(TriangularAttention::new(
                            config,
                            &tag("tri_attn_end"),
                            AttentionNode::Ending,
                        )),
                    },
                    Unit {
                        name: UNITS[5].0,
                        layer: Layer::Transition(PairTransition::new(config, &tag("transition"))),
                    },
                ]
            })
            .collect();
        Trunk {
            embedding: Embedding::new(config.clone()),
            blocks,
        }
    }

    /// Folds `sequence` with a span around the whole fold, the embedding,
    /// each unit of each block and the structure module.
    ///
    /// # Errors
    ///
    /// The same as [`ln_ppm::FoldingModel::predict_with_hook`].
    pub fn fold(
        &self,
        sequence: &Sequence,
        native: &Structure,
        hook: &mut dyn ActivationHook,
        tracer: &Tracer,
    ) -> Result<PredictionOutput, PpmError> {
        tracer.span(FOLD_SPAN, || {
            let (mut seq, mut pair) =
                tracer.span(EMBED_SPAN, || self.embedding.embed(sequence, native))?;
            for (b, units) in self.blocks.iter().enumerate() {
                for unit in units {
                    tracer.span(unit.name, || unit.forward(&mut seq, &mut pair, hook, b))?;
                }
            }
            let structure = tracer.span(STRUCTURE_SPAN, || decode_structure(&pair))?;
            Ok(PredictionOutput {
                structure,
                pair_rep: pair,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::bit_identical;
    use lightnobel::hook::AaqHook;
    use ln_ppm::taps::NoopHook;
    use ln_ppm::FoldingModel;
    use ln_protein::generator::StructureGenerator;

    fn input(len: usize) -> (Sequence, Structure) {
        (
            Sequence::random("foldbench/test", len),
            StructureGenerator::new("foldbench/test").generate(len),
        )
    }

    #[test]
    fn composition_is_bit_identical_to_the_model() {
        let config = PpmConfig::standard();
        let model = FoldingModel::new(config.clone());
        let trunk = Trunk::new(&config);
        let (seq, native) = input(24);
        let tracer = Tracer::default();
        let want = model
            .predict_with_hook(&seq, &native, &mut NoopHook)
            .unwrap();
        let got = trunk.fold(&seq, &native, &mut NoopHook, &tracer).unwrap();
        assert!(bit_identical(&want, &got));

        let mut hook = AaqHook::paper().with_quantized_domain();
        let want = model.predict_with_hook(&seq, &native, &mut hook).unwrap();
        let mut hook = AaqHook::paper().with_quantized_domain();
        let got = trunk.fold(&seq, &native, &mut hook, &tracer).unwrap();
        assert!(bit_identical(&want, &got));
    }

    /// Negative control: a composition that skips one unit must fail the
    /// bit-identity check.
    #[test]
    fn skipping_a_unit_trips_the_bit_identity_check() {
        let config = PpmConfig::standard();
        let model = FoldingModel::new(config.clone());
        let mut trunk = Trunk::new(&config);
        trunk.blocks[1].retain(|u| u.name != "ppm.tri_attn_end");
        let (seq, native) = input(24);
        let want = model.predict(&seq, &native).unwrap();
        let got = trunk
            .fold(&seq, &native, &mut NoopHook, &Tracer::default())
            .unwrap();
        assert!(!bit_identical(&want, &got));
    }

    #[test]
    fn every_unit_and_phase_gets_a_span() {
        let config = PpmConfig::standard();
        let trunk = Trunk::new(&config);
        let (seq, native) = input(16);
        let tracer = Tracer::default();
        trunk.fold(&seq, &native, &mut NoopHook, &tracer).unwrap();
        let spans = tracer.spans();
        assert_eq!(spans[0].name, FOLD_SPAN);
        for (name, _) in UNITS {
            let n = spans.iter().filter(|s| s.name == name).count();
            assert_eq!(n, config.blocks, "{name}");
        }
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
    }
}
