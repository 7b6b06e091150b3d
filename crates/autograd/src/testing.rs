//! Test utilities: finite-difference gradient checking.

use crate::tensor::Tensor;
use crate::var::Var;

/// Checks analytic gradients of `f` against central finite differences for
/// every parameter in `params`.
///
/// `f` must rebuild the graph from the current parameter values on each call
/// and return a scalar variable. Errors are compared with a mixed
/// absolute/relative tolerance `tol`.
///
/// # Panics
///
/// Panics when any gradient entry disagrees beyond the tolerance — this is a
/// test helper and failure is the signal.
pub fn numeric_grad(params: &[&Var], f: impl Fn() -> Var, eps: f32, tol: f32) {
    for p in params {
        p.zero_grad();
    }
    let loss = f();
    loss.backward();
    let analytic: Vec<Tensor> = params
        .iter()
        .map(|p| p.grad().unwrap_or_else(|| Tensor::zeros(&p.shape())))
        .collect();

    for (pi, p) in params.iter().enumerate() {
        let base = p.value();
        for i in 0..base.numel() {
            let mut plus = base.clone();
            let pd = plus.data_mut();
            pd[i] += eps;
            p.set_value(plus);
            let l_plus = f().item();

            let mut minus = base.clone();
            let md = minus.data_mut();
            md[i] -= eps;
            p.set_value(minus);
            let l_minus = f().item();

            p.set_value(base.clone());

            let numeric = (l_plus - l_minus) / (2.0 * eps);
            let got = analytic[pi].data()[i];
            let denom = 1.0_f32.max(numeric.abs()).max(got.abs());
            assert!(
                (numeric - got).abs() / denom <= tol,
                "gradient mismatch for param {pi} element {i}: numeric {numeric} vs analytic {got}"
            );
        }
    }
    for p in params {
        p.zero_grad();
    }
}
