//! Output checks. A fold that fails any of them counts as failed.

use ln_ppm::PredictionOutput;
use ln_protein::metrics::tm_score;
use ln_protein::Structure;
use std::fmt;

/// Lowest TM-score an FP32 prediction may reach against the native. Pairs
/// of unrelated generated structures score 0.11–0.25; the FP32 model scored
/// 0.52 at its worst over 40 seeds at each of L = 64, 96 and 128.
pub const MIN_FP32_TM_VS_NATIVE: f64 = 0.4;
/// Lowest TM-score a quantized prediction may reach against the FP32 one.
pub const MIN_TM_VS_FP32: f64 = 0.98;
/// Highest relative RMSE of the final pair representation against FP32.
pub const MAX_PAIR_REL_RMSE_VS_FP32: f64 = 0.05;

/// Why a fold failed.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// The model returned an error.
    Error(String),
    /// The pair representation or a coordinate is NaN or infinite.
    NonFinite,
    /// The FP32 prediction is too far from the native.
    Fp32Tm(f64),
    /// The quantized prediction is too far from the FP32 one (TM-score).
    TmVsFp32(f64),
    /// The quantized pair representation is too far from the FP32 one.
    PairRelRmse(f64),
    /// A repeat fold of the same input gave different bits.
    NotDeterministic,
    /// The traced composition differs from `predict_with_hook`.
    CompositionMismatch,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Error(e) => write!(f, "fold error: {e}"),
            Failure::NonFinite => write!(f, "non-finite output"),
            Failure::Fp32Tm(tm) => {
                write!(f, "FP32 TM vs native {tm:.4} < {MIN_FP32_TM_VS_NATIVE}")
            }
            Failure::TmVsFp32(tm) => write!(f, "TM vs FP32 {tm:.4} < {MIN_TM_VS_FP32}"),
            Failure::PairRelRmse(e) => {
                write!(
                    f,
                    "pair rel. RMSE vs FP32 {e:.5} > {MAX_PAIR_REL_RMSE_VS_FP32}"
                )
            }
            Failure::NotDeterministic => write!(f, "repeat fold differs bitwise"),
            Failure::CompositionMismatch => {
                write!(f, "traced composition differs from predict_with_hook")
            }
        }
    }
}

/// Accuracy of one fold against its FP32 reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// TM-score of the prediction against the FP32 prediction.
    pub tm_vs_fp32: f64,
    /// Relative RMSE of the final pair representation against FP32.
    pub pair_rel_rmse_vs_fp32: f64,
}

/// Whether every value of the prediction is finite.
pub fn is_finite(out: &PredictionOutput) -> bool {
    out.pair_rep.as_slice().iter().all(|x| x.is_finite())
        && out
            .structure
            .coords()
            .iter()
            .all(|c| c.x.is_finite() && c.y.is_finite() && c.z.is_finite())
}

/// TM-score of `model` against `reference`, 0 when it cannot be scored.
pub fn tm(model: &Structure, reference: &Structure) -> f64 {
    tm_score(model, reference).map_or(0.0, |r| r.score)
}

/// Relative RMSE of `x` against `reference`, resolved to FP32 precision:
/// the reference's own half-ulp rounding counts as error, so two identical
/// FP32 tensors read their f32 resolution (about 3e-8) instead of 0.
pub fn rel_rmse_f32(x: &[f32], reference: &[f32]) -> f64 {
    assert_eq!(x.len(), reference.len(), "tensors must have equal size");
    let (mut err, mut val) = (0.0f64, 0.0f64);
    for (&a, &r) in x.iter().zip(reference) {
        let half_ulp = 0.5 * ulp(r) as f64;
        let e = (a - r) as f64;
        err += e * e + half_ulp * half_ulp;
        val += (r as f64) * (r as f64);
    }
    (err / val.max(f64::MIN_POSITIVE)).sqrt()
}

fn ulp(x: f32) -> f32 {
    let a = x.abs();
    f32::from_bits(a.to_bits() + 1) - a
}

/// Checks one fold. `reference` is the FP32 fold of the same input for a
/// quantized workload, `None` for the FP32 workload itself, whose own
/// prediction must then clear the TM floor against `native`.
pub fn check_fold(
    out: &PredictionOutput,
    native: &Structure,
    reference: Option<&PredictionOutput>,
) -> Result<Accuracy, Failure> {
    if !is_finite(out) {
        return Err(Failure::NonFinite);
    }
    let fp32 = reference.unwrap_or(out);
    let native_tm = tm(&fp32.structure, native);
    if native_tm < MIN_FP32_TM_VS_NATIVE {
        return Err(Failure::Fp32Tm(native_tm));
    }
    let acc = Accuracy {
        tm_vs_fp32: tm(&out.structure, &fp32.structure),
        pair_rel_rmse_vs_fp32: rel_rmse_f32(out.pair_rep.as_slice(), fp32.pair_rep.as_slice()),
    };
    if acc.tm_vs_fp32 < MIN_TM_VS_FP32 {
        return Err(Failure::TmVsFp32(acc.tm_vs_fp32));
    }
    if acc.pair_rel_rmse_vs_fp32 > MAX_PAIR_REL_RMSE_VS_FP32 {
        return Err(Failure::PairRelRmse(acc.pair_rel_rmse_vs_fp32));
    }
    Ok(acc)
}

/// Bitwise equality of two predictions.
pub fn bit_identical(a: &PredictionOutput, b: &PredictionOutput) -> bool {
    digest(a) == digest(b)
        && a.pair_rep.shape() == b.pair_rep.shape()
        && a.pair_rep
            .as_slice()
            .iter()
            .zip(b.pair_rep.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// FNV-1a offset basis: the digest of no words.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a digest of the final pair representation and the structure.
pub fn digest(out: &PredictionOutput) -> u64 {
    let coords = out.structure.coords().iter().flat_map(|c| [c.x, c.y, c.z]);
    let words = out
        .pair_rep
        .as_slice()
        .iter()
        .map(|x| u64::from(x.to_bits()))
        .chain(coords.map(f64::to_bits));
    fold_digest(FNV_OFFSET, words)
}

/// Continues an FNV-1a digest over 64-bit words.
pub fn fold_digest(mut h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightnobel::hook::AaqHook;
    use ln_ppm::taps::{ActivationHook, ActivationSite, Tap};
    use ln_ppm::{FoldingModel, PpmConfig};
    use ln_protein::generator::StructureGenerator;
    use ln_protein::Sequence;
    use ln_tensor::Tensor2;

    /// Paper AAQ, except that the residual stream entering every
    /// triangular multiplication is scaled by the given factor.
    struct ScaleTriMulResidual(AaqHook, f32);

    impl ActivationHook for ScaleTriMulResidual {
        fn on_activation(&mut self, tap: Tap, activation: &mut Tensor2) {
            if tap.site == ActivationSite::TriMulResidualIn {
                activation
                    .as_mut_slice()
                    .iter_mut()
                    .for_each(|x| *x *= self.1);
            } else {
                self.0.on_activation(tap, activation);
            }
        }
    }

    fn fold(hook: &mut dyn ActivationHook) -> (PredictionOutput, PredictionOutput, Structure) {
        let len = 48;
        let model = FoldingModel::new(PpmConfig::standard());
        let seq = Sequence::random("foldbench/checks", len);
        let native = StructureGenerator::new("foldbench/checks").generate(len);
        let fp32 = model.predict(&seq, &native).unwrap();
        let out = model.predict_with_hook(&seq, &native, hook).unwrap();
        (out, fp32, native)
    }

    #[test]
    fn paper_aaq_passes_the_accuracy_check() {
        let (out, fp32, native) = fold(&mut AaqHook::paper());
        let acc = check_fold(&out, &native, Some(&fp32)).unwrap();
        assert!(acc.pair_rel_rmse_vs_fp32 > 1e-4, "{acc:?}");
        let own = check_fold(&fp32, &native, None).unwrap();
        assert_eq!(own.tm_vs_fp32, 1.0);
        assert!(own.pair_rel_rmse_vs_fp32 > 0.0 && own.pair_rel_rmse_vs_fp32 < 1e-7);
    }

    /// Negative control: a hook that zeroes one activation must trip the
    /// accuracy check.
    #[test]
    fn corrupting_hook_trips_the_accuracy_check() {
        let (out, fp32, native) = fold(&mut ScaleTriMulResidual(AaqHook::paper(), 0.0));
        let err = check_fold(&out, &native, Some(&fp32)).unwrap_err();
        assert!(matches!(err, Failure::TmVsFp32(_)), "{err}");
    }

    /// Negative control: a 5% corruption leaves TM saturated at 1 but must
    /// trip the pair-representation check.
    #[test]
    fn mild_corruption_trips_the_pair_check_while_tm_saturates() {
        let (out, fp32, native) = fold(&mut ScaleTriMulResidual(AaqHook::paper(), 0.95));
        assert!(tm(&out.structure, &fp32.structure) > 0.999);
        let err = check_fold(&out, &native, Some(&fp32)).unwrap_err();
        assert!(matches!(err, Failure::PairRelRmse(_)), "{err}");
    }

    /// Negative control: an FP32 prediction scored against an unrelated
    /// native must trip the TM floor.
    #[test]
    fn unrelated_native_trips_the_fp32_tm_floor() {
        let (_, fp32, _) = fold(&mut AaqHook::paper());
        let unrelated = StructureGenerator::new("foldbench/unrelated").generate(48);
        let err = check_fold(&fp32, &unrelated, None).unwrap_err();
        assert!(matches!(err, Failure::Fp32Tm(_)), "{err}");
    }

    /// Negative control: a non-finite output fails the fold.
    #[test]
    fn non_finite_output_fails_the_fold() {
        let (mut out, fp32, native) = fold(&mut AaqHook::paper());
        out.pair_rep.as_mut_slice()[7] = f32::NAN;
        assert_eq!(
            check_fold(&out, &native, Some(&fp32)),
            Err(Failure::NonFinite)
        );
    }

    #[test]
    fn digest_sees_a_single_bit() {
        let (out, _, _) = fold(&mut AaqHook::paper());
        let mut flipped = out.clone();
        let x = &mut flipped.pair_rep.as_mut_slice()[3];
        *x = f32::from_bits(x.to_bits() ^ 1);
        assert_ne!(digest(&out), digest(&flipped));
        assert!(!bit_identical(&out, &flipped));
        assert!(bit_identical(&out, &out.clone()));
    }
}
